"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``./src``.
``--workload all`` runs the three workloads one after another.  Each run
starts the workload in a worker process several times to measure set-up,
then once more for the measured run; it prints every metric with its unit,
writes a result file under ``.perfbench/results/`` and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  Metric names and
units come from ``BENCHMARK.json``; ``METRICS.md`` says what each means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_corpus", "random_chain", "oracle_sweep")
# set-up is measured at least SETUP_MIN times (the measured run included),
# and more while the samples add up to less than SETUP_BUDGET_S
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 4, 12, 1.5
RUN_LIMIT_S = 170.0

# per-workload names of the end-to-end metrics, printed beside them
ALIASES = {
    "cli_corpus": {"op_p50_ms": "cli_p50_ms", "op_p90_ms": "cli_p90_ms"},
    "random_chain": {"op_p50_ms": "verdict_p50_ms", "op_p90_ms": "verdict_p90_ms"},
    "oracle_sweep": {"work_per_s": "queries_per_s"},
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def child_env(root: Path) -> dict:
    """The environment of the worker and of every CLI call it makes.  The
    same whatever the caller's environment: bytecode is cached under
    ``.perfbench/`` (so no call recompiles the package, and nothing is
    written outside the checkout), and numpy's BLAS keeps one thread, so a
    call's start-up does not depend on the machine's core count."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(root / ".perfbench" / "pycache")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    return env


def warm_bytecode(env: dict) -> None:
    """Fill the bytecode cache before anything is timed."""
    subprocess.run([sys.executable, "-c", "import chaingraph.cli, chaingraph.oracle"], env=env, check=True, timeout=120)


def machine() -> dict:
    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }
    try:
        info["numpy"] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        info["numpy"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu"] = models[0] if models else None
    except OSError:
        info["cpu"] = None
    return info


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def start_worker(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and the set-up time in seconds."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict | None]:
    out_dir = root / ".perfbench"
    workdir = out_dir / "work" / f"{workload}-{seed}"
    results = out_dir / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    env = child_env(root)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--root", str(root), "--workdir", str(workdir), "--spans-out", str(results / f"{stem}-spans.json"),
    ]
    started = perf_counter()
    setups = []
    try:
        warm_bytecode(env)
        while len(setups) < SETUP_MIN - 1 or (len(setups) < SETUP_MAX - 1 and sum(setups) < SETUP_BUDGET_S):
            proc, setup = start_worker(cmd + ["--setup-only"], env)
            proc.communicate(timeout=60)
            setups.append(setup)
        proc, setup = start_worker(cmd, env)
        setups.append(setup)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - started)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return fail(f"{workload}: the run did not end within {RUN_LIMIT_S:.0f} s"), None
    except (RuntimeError, subprocess.SubprocessError) as exc:
        return fail(f"{workload}: {exc}"), None
    if proc.returncode != 0:
        return fail(f"{workload}: worker exited with {proc.returncode}"), None
    result = json.loads(stdout.strip().splitlines()[-1])
    detail = result["detail"]

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = dict(result["metrics"], setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    line = {
        "correct": bool(detail["correct"]),
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(root),
        "machine": machine(),
        "setup_samples_s": setups,
        "fail_ratio": line["failed"] / line["attempted"],
        "aliases": ALIASES.get(workload, {}),
        "result": line,
        "all_metrics": measured,
        "detail": detail,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{workload} seed={seed} trace={trace}: {line['attempted']} operations, {line['failed']} failed, correct={line['correct']}")
    print(f"  fail_ratio = {record['fail_ratio']:.4f} ({line['failed']}/{line['attempted']})")
    aliases = ALIASES.get(workload, {})
    for name, m in metrics.items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{alias}")
    if "references_ms" in detail:
        refs = detail["references_ms"]
        print(f"  reference: python floor {refs['python_floor_ms']:.1f} ms, import numpy {refs['numpy_import_ms']:.1f} ms")
    for reason, n in detail["fail_reasons"].items():
        print(f"  failed x{n}: {reason}")
    for key, problem in detail["problems"].items():
        print(f"  WRONG {key}: {problem}")
    return 0, line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "chaingraph" / "__init__.py").is_file():
        return fail("no chaingraph sources under ./src; run this from the root of a checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload != "all":
        code, line = run_workload(root, spec, args.workload, args.seed, seconds, args.trace)
        if line is not None:
            print(json.dumps(line))
        return code
    worst = 0
    for workload in WORKLOADS:
        code, _line = run_workload(root, spec, workload, args.seed, seconds, args.trace)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
