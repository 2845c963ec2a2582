"""One workload in its own process: set up, print ``ready``, run, print JSON.

Started by ``run.py``, which measures set-up as the time from starting this
process to the ``ready`` line.  Timed runs (``--trace 0``) repeat rounds of
the workload's operations with tracing off until ``--seconds`` have passed,
ending on a round boundary.  The traced run (``--trace 1``) alternates
untraced and traced rounds; their ratio is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS, CliCorpus, Outcome

REFERENCE_REPEATS = 5  # subprocess reference timings (python floor, imports)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def execute(wl, op, tr, runner):
    """Run one operation under its time limit; returns (outcome, seconds).

    The heap is collected first, so garbage from earlier operations does
    not make this one pay for a collection at a random moment."""
    if wl.in_process:
        gc.collect()
    tr.begin_op()
    t0 = perf_counter()
    if wl.in_process:
        signal.setitimer(signal.ITIMER_REAL, op.limit_s)
    try:
        out = runner(op, tr)
    except (OpTimeout, subprocess.TimeoutExpired):
        out = Outcome(None, "over the time limit")
    except Exception as exc:  # an unexpected exception from the program is a failed operation
        out = Outcome(None, f"{type(exc).__name__}: {exc}")
    finally:
        if wl.in_process:
            signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = perf_counter() - t0
    if elapsed > op.limit_s and out.error is None:
        out.error = "over the time limit"
    return out, elapsed


class Ledger:
    """Samples of every operation run.  The first output of each operation
    is checked as soon as it arrives and then dropped, keeping only a digest
    that later rounds must reproduce, so the benchmark holds no outputs
    that the program's garbage collector would have to walk."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.samples: list[tuple[int, float, str | None, int]] = []
        self.digests: dict[int, object] = {}
        self.problems: dict[int, str] = {}

    def add(self, k: int, out: Outcome, elapsed: float) -> None:
        """Record one sample.  An outcome without output (a time-out, an
        exception) is a failure but not a wrong answer: it is neither
        checked nor compared, and the first outcome with output is."""
        if out.output is not None:
            digest = self.wl.digest(out)
            if k not in self.digests:
                self.digests[k] = digest
                problem = self.wl.check(self.wl.ops[k], out)
                if problem:
                    self.problems[k] = problem
            elif digest != self.digests[k]:
                self.problems.setdefault(k, "output changed between rounds")
        self.samples.append((k, elapsed, out.error, out.work))

    def verdicts(self) -> dict:
        """Failures, latencies and throughput over every sample.  Throughput
        is the median over rounds, so one slow round moves it less."""
        ops, problems = self.wl.ops, self.problems
        latencies, failed = [], 0
        reasons: Counter = Counter()
        rounds: list[list[float]] = []  # [work, busy] per round
        for n, (k, elapsed, error, units) in enumerate(self.samples):
            if n % len(ops) == 0:
                rounds.append([0.0, 0.0])
            if error or k in problems:
                failed += 1
                reasons[(error or problems[k]).split(": {")[0][:160]] += 1
                # a failure misses the limit: charged the limit on top of the time it took
                latencies.append(ops[k].limit_s + elapsed)
                units = 0
            else:
                latencies.append(elapsed)
            rounds[-1][0] += units
            rounds[-1][1] += elapsed
        return {
            "correct": not problems,
            "attempted": len(self.samples),
            "failed": failed,
            "latencies": latencies,
            "work_per_s": statistics.median(w / b for w, b in rounds),
            "problems": {ops[k].key: p for k, p in problems.items()},
            "fail_reasons": dict(reasons.most_common(10)),
            "distinct_ops": len(ops),
            "rounds": len(rounds),
        }


def timed_run(wl, seconds: float) -> dict:
    ledger = Ledger(wl)
    deadline = perf_counter() + seconds
    k = 0
    while True:
        out, elapsed = execute(wl, wl.ops[k], spans.OFF, wl.run)
        ledger.add(k, out, elapsed)
        k = (k + 1) % len(wl.ops)
        if k == 0 and perf_counter() >= deadline:
            break
    v = ledger.verdicts()
    lat = v.pop("latencies")
    p90 = _p90(lat)
    metrics = {
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": p90 * 1000,
        "work_per_s": v["work_per_s"],
        "peak_rss_mb": _peak_rss_mb(wl),
    }
    detail = dict(v, samples=len(lat), samples_beyond_p90=sum(t > p90 for t in lat))
    if isinstance(wl, CliCorpus):
        detail["references_ms"] = _subprocess_references(with_package=False)
    return {"metrics": metrics, "detail": detail}


def traced_run(wl, seconds: float, spans_path: Path) -> dict:
    ledger = Ledger(wl)
    tracer = spans.Tracer()
    runner = wl.run_in_process if isinstance(wl, CliCorpus) else wl.run
    plain_rounds: list[float] = []
    traced_rounds: list[float] = []
    round_counts: list[Counter] = []
    deadline = perf_counter() + seconds
    while not (plain_rounds and traced_rounds and perf_counter() >= deadline):
        traced = len(plain_rounds) > len(traced_rounds)
        tr = tracer if traced else spans.OFF
        before = Counter(tracer.counters)
        tracer.peaks.clear()
        busy = 0.0  # operation time only: checking the outputs is not part of a round
        for k, op in enumerate(wl.ops):
            out, elapsed = execute(wl, op, tr, runner)
            busy += elapsed
            if traced:
                ledger.add(k, out, elapsed)
        if isinstance(wl, CliCorpus):
            t0 = perf_counter()
            wl.layer_calls(tr)
            busy += perf_counter() - t0
        (traced_rounds if traced else plain_rounds).append(busy)
        if traced:
            counts = Counter({n: tracer.counters[n] - before[n] for n in tracer.counters})
            round_counts.append(counts | Counter(tracer.peaks))
    v = ledger.verdicts()
    v.pop("latencies")
    unsteady = sorted(n for n in round_counts[0] if any(rc[n] != round_counts[0][n] for rc in round_counts))
    if unsteady:
        v["correct"] = False
        v["problems"]["counts"] = "counts differ between rounds: " + ", ".join(unsteady)
    tracer.dump(spans_path)

    n = len(traced_rounds)
    totals = tracer.totals()
    counts = round_counts[0]
    metrics = {f"{name}_s": t / n for name, t in totals.items()}
    metrics.update({name: float(c) for name, c in counts.items()})
    metrics.update({f"{layer}.self_s": t / n for layer, t in tracer.self_times().items()})
    parse_s = totals.get("lang.parse", 0.0)
    metrics["lang.chars_per_s"] = counts["lang.chars"] / (parse_s / n) if parse_s else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced_rounds) / statistics.median(plain_rounds)
    if isinstance(wl, CliCorpus):
        runs = [end - start for name, start, end, _p, _o in tracer.spans if name == "cli.run"]
        metrics["cli.run_ms"] = statistics.median(runs) * 1000
        refs = _subprocess_references(with_package=True)
        metrics["cli.python_floor_ms"] = refs["python_floor_ms"]
        metrics["cli.numpy_import_ms"] = refs["numpy_import_ms"]
        metrics["cli.import_ms"] = refs["import_cli_ms"]
    detail = dict(v, plain_rounds_s=plain_rounds, traced_rounds_s=traced_rounds, spans=len(tracer.spans))
    return {"metrics": metrics, "detail": detail}


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _time_subprocess(code: str) -> float:
    """Wall seconds of ``python -c code`` in a fresh process."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    return perf_counter() - t0


def _subprocess_references(with_package: bool) -> dict:
    """Median wall times of a bare interpreter, of importing numpy and,
    optionally, of importing chaingraph.cli, each in a fresh subprocess."""
    jobs = {"python_floor_ms": "pass", "numpy_import_ms": "import numpy"}
    if with_package:
        jobs["import_cli_ms"] = "import chaingraph.cli"
    return {
        name: statistics.median(_time_subprocess(code) for _ in range(REFERENCE_REPEATS)) * 1000
        for name, code in jobs.items()
    }


def _peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliCorpus) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, _alarm)
    wl = WORKLOADS[args.workload](args.root, args.seed, args.workdir)
    gc.collect()
    gc.freeze()  # the inputs live for the whole run; keep them out of the program's collections
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_run(wl, args.seconds, args.spans_out)
    else:
        result = timed_run(wl, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
