"""The three benchmark workloads.

Each workload builds one round of operations from the seed, runs one
operation at a time (a closed loop with one client), and checks the first
output of every operation against :mod:`reference`.  ``run`` takes a
tracer: :data:`spans.OFF` for timed runs, a :class:`spans.Tracer` for the
traced run.  Span names are ``layer.function`` for the public function the
benchmark calls; ``factorize.factorize`` includes the decomposition that
``factorize_chain`` does inside the call.
"""

from __future__ import annotations

import io
import random
import re
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gen
import reference as ref

CORPUS = ("fig1a", "fig1b", "fig2", "fig3", "ffnet", "boltzmann", "cad", "coin", "banks")
PLATED = ("coin", "banks")


@dataclass
class Op:
    """One operation: ``key`` names it in reports, ``limit_s`` is its time limit."""

    key: str
    limit_s: float
    data: Any


@dataclass
class Outcome:
    output: Any
    error: str | None = None  # the program refused or raised
    work: int = 0  # work units if the operation succeeds and checks out


def _chaingraph():
    """The package under test.  Imported only where it runs in-process, so
    the CLI workload's own set-up does not pay for it."""
    import chaingraph

    return chaingraph


# -- cli_corpus --------------------------------------------------------------------

_SPAN_RE = re.compile(r":\d+:\d+")


class CliCorpus:
    """CLI calls that cover every corpus model and every subcommand, plus
    malformed mutations of corpus sources, each as one ``python -m
    chaingraph.cli`` subprocess (in-process ``cli.run`` when traced).  The
    subprocesses inherit the worker's environment, so they import ``./src``."""

    name = "cli_corpus"
    in_process = False
    CALL_LIMIT_S = 10.0
    # One round: every model, every subcommand (most on two models) and
    # every call that has a golden (fig2, fig1a simplify, boltzmann
    # --condition o, the plated products).  Every call pays the same
    # start-up, so covering every pair of model and subcommand would only
    # repeat it; a round this short fits several times in a run.
    CALLS = {
        "fig1a": ("validate", "simplify", "elim-det"),
        "fig1b": ("moralize", "condition"),
        "fig2": ("components", "factorize", "latex", "query"),
        "fig3": ("cliques", "subgraphs", "query"),
        "ffnet": ("latex", "elim-det", "dot"),
        "boltzmann": ("components", "cliques", "condition"),
        "cad": ("subgraphs", "moralize", "factorize"),
        "coin": ("factorize", "expand", "query"),
        "banks": ("factorize", "expand", "query", "dot"),
    }
    MUTANTS = len(gen.MUTATIONS)

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.sources = {m: (root / "src" / "chaingraph" / "models" / f"{m}.cg").read_text("utf-8") for m in CORPUS}
        self.models = {m: ref.read_model(s) for m, s in self.sources.items()}
        self.paths: dict[str, str] = {}
        self.bindings: dict[str, dict] = {}
        for m, s in self.sources.items():
            self.paths[m] = self._write(workdir, f"{m}.cg", s)
        self.ops: list[Op] = []
        for m in CORPUS:
            self._model_calls(rng, m)
        for k in range(self.MUTANTS):
            m = rng.choice(CORPUS)
            kind = gen.MUTATIONS[k]
            name = f"mutant{k}_{kind}_{m}"
            src = gen.mutate_source(rng, self.sources[m], kind)
            self.sources[name] = src
            self.paths[name] = self._write(workdir, f"{name}.cg", src)
            self._add(("validate", name), {"model": name, "expect": "reject"})
        rng.shuffle(self.ops)

    @staticmethod
    def _write(workdir: Path, fname: str, text: str) -> str:
        path = workdir / fname
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _add(self, argv: tuple, check: dict) -> None:
        cmd, model, *rest = argv
        self.ops.append(Op(" ".join((cmd, model, *rest)), self.CALL_LIMIT_S, (cmd, model, tuple(rest), check)))

    def _model_calls(self, rng: random.Random, m: str) -> None:
        g = self.models[m]
        calls = self.CALLS[m]
        bind_args: tuple = ()
        if m == "coin":
            n = rng.randint(3, 6)
            self.bindings[m] = {"N": n}
            bind_args = ("--bind", f"N={n}")
            q = ("heads_1", f"heads_{n}", ("theta",) if rng.random() < 0.5 else ())
        elif m == "banks":
            prices = [rng.randint(1, 3), rng.randint(1, 3)]
            self.bindings[m] = {"Banks": 2, "Prices": prices}
            bind_args = ("--bind", "Banks=2", "--bind", f"Prices={prices[0]},{prices[1]}")
            q = ("spread_1_1", f"spread_2_{prices[1]}", ("lambda", "theta") if rng.random() < 0.5 else ("lambda",))
        else:
            a, b = rng.sample(g.nodes, 2)
            rest = [n for n in g.nodes if n not in (a, b)]
            q = (a, b, tuple(rng.sample(rest, rng.randint(0, min(2, len(rest))))))
        for call in calls:
            if call == "latex":
                self._add(("factorize", m, "--format", "latex"), {"model": m})
            elif call == "condition":
                hidden = [n for n in g.nodes if n not in g.observed]
                target = "o" if m == "boltzmann" else hidden[-1]
                self._add(("factorize", m, "--condition", target), {"model": m, "target": target})
            elif call == "expand":
                self._add(("expand", m, *bind_args), {"model": m, "bind": self.bindings[m]})
            elif call == "query":
                a, b, s = q
                ci = f"{a} _||_ {b}" + (f" | {','.join(s)}" if s else "")
                check = {"model": m, "query": q} | ({"bind": self.bindings[m]} if bind_args else {})
                self._add(("query", m, *bind_args, "--ci", ci), check)
                if m == "fig2":  # the README's example query
                    self._add(("query", m, "--ci", ref.FIG2_QUERY[0]),
                              {"model": m, "query": ("a", "e", ("b", "c")), "golden": ref.FIG2_QUERY[1]})
            else:
                if call == "simplify" and not (all(d for *_, d in g.edges) or not any(d for *_, d in g.edges)):
                    raise ValueError(f"simplify does not apply to {m}")
                self._add((call, m), {"model": m})

    # -- running

    def argv(self, op: Op) -> list[str]:
        cmd, model, rest, _ = op.data
        return [cmd, self.paths[model], *rest]

    def run(self, op: Op, tr) -> Outcome:
        proc = subprocess.run(
            [sys.executable, "-m", "chaingraph.cli", *self.argv(op)],
            capture_output=True,
            text=True,
            timeout=op.limit_s,
        )
        return self._outcome(op, proc.returncode, proc.stdout, proc.stderr)

    def run_in_process(self, op: Op, tr) -> Outcome:
        from chaingraph import cli

        out, err = io.StringIO(), io.StringIO()
        with tr.span("cli.run"):
            rc = cli.run(self.argv(op), out=out, err=err)
        return self._outcome(op, rc, out.getvalue(), err.getvalue())

    def digest(self, out: Outcome):
        return out.output

    @staticmethod
    def _outcome(op: Op, rc: int, stdout: str, stderr: str) -> Outcome:
        reject = op.data[3].get("expect") == "reject"
        if rc not in ((0, 1) if reject else (0,)):
            first = stderr.strip().splitlines()[:1]
            return Outcome((rc, stdout, stderr), f"exit {rc}: {first[0] if first else ''}")
        return Outcome((rc, stdout, stderr), None, 1)

    def layer_calls(self, tr) -> None:
        """Time the library calls behind the subcommands, layer by layer:
        parse and resolve every source, then decompose, moralize, list
        cliques, factorize, render and condition each plain corpus model,
        and factorize each plated one unbound and expand it under the
        binding its CLI calls use."""
        cg = _chaingraph()
        models = {}
        for name, src in self.sources.items():
            with tr.span("lang.parse"):
                parsed = cg.parse(src)
            tr.count("lang.chars", len(src))
            diags = len(parsed.diagnostics)
            if parsed.ast is not None and parsed.ok:
                with tr.span("lang.resolve"):
                    resolved = cg.resolve(parsed.ast)
                diags += len(resolved.diagnostics)
                models[name] = resolved.model
            tr.count("lang.diagnostics", diags)
        for name in CORPUS:
            if name in PLATED:
                with tr.span("plates.symbolic"):
                    e = cg.factorize_plated(models[name])
                with tr.span("factorize.render"):
                    cg.render(e)
                with tr.span("plates.expand"):
                    g = cg.expand(models[name], self.bindings[name])
                tr.count("plates.ground_nodes", len(g))
                tr.count("plates.ground_edges", len(g.edges))
                continue
            g = models[name].graph
            with tr.span("decompose.components"):
                cg.chain_components(g)
            with tr.span("markov.moralize"):
                cg.moralize_chain(g)
            with tr.span("markov.cliques"):
                biggest = 0
                for sub in cg.conditional_subgraphs(g):
                    if sub.flavor == "undirected":
                        plain = sub.uncompleted()
                        for c in cg.max_cliques(cg.UndirectedGraph(plain.node_names, [(e.u, e.v) for e in plain.edges])):
                            biggest = max(biggest, len(c))
            tr.peak("markov.max_clique", biggest)
            with tr.span("factorize.factorize"):
                e = cg.factorize_chain(g)
            tr.count("factorize.terms", len(e.terms))
            with tr.span("factorize.render"):
                cg.render(e)
            hidden = [n for n in g.node_names if not g.attr(n).observed]
            with tr.span("factorize.condition"):
                ratio = cg.condition_expression(e, frozenset(hidden[-1:]))
            with tr.span("factorize.render"):
                cg.render(ratio)

    # -- checking

    def check(self, op: Op, out: Outcome) -> str | None:
        cmd, model, rest, check = op.data
        rc, stdout, stderr = out.output
        if check.get("expect") == "reject":
            if rc != 1:
                return f"malformed source accepted (exit {rc})"
            if not _SPAN_RE.search(stderr):
                return "no file:line:col diagnostic on stderr"
            return None
        if out.error:
            return None
        g = self.models[model]
        lines = stdout.splitlines()
        if cmd == "validate":
            return None if lines == ["ok"] else f"validate printed {lines[:2]}"
        if cmd == "components":
            if model == "fig2" and lines != ref.FIG2_COMPONENTS:
                return "fig2 components differ from the golden"
            want = set(ref.undirected_components(g.nodes, g.edges))
            return None if {frozenset(ln.split()) for ln in lines} == want and len(lines) == len(want) else "components differ"
        if cmd == "subgraphs":
            blocks = [frozenset(ln.split()) for ln in lines]
            if sorted(n for b in blocks for n in b) != sorted(g.nodes):
                return "subgraphs do not partition the nodes"
            comps = ref.undirected_components(g.nodes, g.edges)
            if any(not any(c <= b for b in blocks) for c in comps):
                return "a chain component is split across subgraphs"
            return None
        if cmd == "moralize":
            got = {frozenset(ln.split(" -- ")) for ln in lines}
            return None if got == ref.moral_edges(g.nodes, g.edges) and len(got) == len(lines) else "moral graph differs"
        if cmd == "cliques":
            adj = {frozenset((u, v)) for u, v, _ in g.edges}
            for ln in lines:
                ns = ln.split()
                if any(frozenset((u, v)) not in adj for k, u in enumerate(ns) for v in ns[k + 1:]):
                    return f"clique {ln!r} is not complete"
            return None
        if cmd == "dot":
            if not lines or not lines[0].startswith("digraph"):
                return "dot output is not a digraph"
            return None if all(n in stdout for n in g.nodes) else "dot output misses a node"
        if cmd == "factorize":
            if len(lines) != 1:
                return f"factorize printed {len(lines)} lines"
            text = lines[0]
            if "--format" in rest:
                if model == "fig2" and not (text.startswith("p(a,b) p(c \\mid b)") and text.endswith("f_{6}(g,h)")):
                    return "fig2 latex differs from the golden"
                return None
            if "--condition" in rest:
                if model == "boltzmann" and text != ref.BOLTZMANN_CONDITION_O:
                    return "boltzmann --condition o differs from the golden"
                return None if " / " in text and check["target"] in text else "not a conditional ratio"
            if model in PLATED:
                want = ref.BANKS_SYMBOLIC if model == "banks" else ref.COIN_SYMBOLIC
                return None if text == want else f"{model} symbolic product differs from the golden"
            if model == "fig2" and text != ref.FIG2_FACTORIZATION:
                return "fig2 factorization differs from the golden"
            return ref.factorization_problem(text, g.nodes, g.edges)
        if cmd == "query":
            a, b, s = check["query"]
            if "bind" in check:
                names, edges = ref.ground_graph(model, check["bind"])
            else:
                names, edges = g.nodes, g.edges
            want = "true" if ref.lwf_separated(names, edges, a, b, s) else "false"
            if check.get("golden", want) != want:
                raise RuntimeError("the LWF reference disagrees with the README")
            return None if lines == [want] else f"query answered {lines}, expected {want}"
        if cmd == "expand":
            got = ref.read_model(stdout)
            names, edges = ref.ground_graph(model, check["bind"])
            if sorted(got.nodes) != sorted(names):
                return "expanded nodes differ"
            want = {ref.edge_key(*e) for e in edges}
            return None if {ref.edge_key(*e) for e in got.edges} == want and len(got.edges) == len(edges) else "expanded edges differ"
        if cmd == "elim-det":
            got = ref.read_model(stdout)
            return None if got.nodes == [n for n in g.nodes if n not in g.deterministic] else "elim-det kept the wrong nodes"
        if cmd == "simplify":
            got = ref.read_model(stdout)
            if got.nodes != g.nodes:
                return "simplify changed the nodes"
            if model == "fig1a":  # the paper's fig1a simplifies exactly onto fig1b
                fig1b = self.models["fig1b"]
                return None if sorted(got.edges) == sorted(fig1b.edges) else "fig1a does not simplify onto fig1b"
            old = {ref.edge_key(*e) for e in g.edges}
            return None if all(ref.edge_key(*e) in old for e in got.edges) else "simplify added an edge"
        return f"no check for {cmd}"


# -- random_chain ----------------------------------------------------------------------


class RandomChain:
    """One seeded sparse chain graph per operation: construct, validate,
    decompose, moralize, answer CI queries, build the master graph,
    factorize and render.  A share of graphs carries a planted
    semi-directed cycle; their correct verdict is 'invalid'."""

    name = "random_chain"
    in_process = True
    GRAPHS = 120

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.cg = _chaingraph()  # its import belongs to set-up
        rng = random.Random(seed)
        self.ops = [
            # a linear budget per graph: 50 ms plus 1 ms per node
            Op(f"{'dag' if c.dag else 'chain'}{'-cyclic' if not c.valid else ''} n={c.size}", 0.05 + 0.001 * c.size, c)
            for c in gen.random_chain_cases(rng, self.GRAPHS)
        ]

    def run(self, op: Op, tr) -> Outcome:
        c: gen.GraphCase = op.data
        Edge = self.cg.Edge
        with tr.span("core.construct"):
            g = self.cg.ChainGraph(c.names, [Edge(u, v, d) for u, v, d in c.edges])
        with tr.span("core.validate"):
            report = self.cg.validate_chain_graph(g)
        if not report.ok:
            tr.count("core.rejected_invalid")
            return Outcome({"valid": False, "witnesses": [v.nodes for v in report.errors if v.kind == "semi-directed-cycle"]}, None, c.size)
        out: dict = {"valid": True}
        with tr.span("decompose.components"):
            out["components"] = self.cg.chain_components(g).blocks
        tr.count("decompose.chain_components", len(out["components"]))
        with tr.span("markov.moralize"):
            out["moral"] = self.cg.moralize_chain(g)
        CiQuery, implies_ci = self.cg.CiQuery, self.cg.implies_ci
        with tr.span("markov.implies_ci"):
            out["answers"] = tuple(
                implies_ci(g, CiQuery(frozenset((a,)), frozenset((b,)), frozenset(s))) for a, b, s in c.queries
            )
        tr.count("markov.ci_queries", len(c.queries))
        try:
            with tr.span("decompose.master_graph"):
                mg = self.cg.master_graph(g)
        except self.cg.GraphError as exc:
            tr.count("decompose.graph_errors")
            return Outcome(out, f"GraphError: {exc}")
        out["blocks"] = mg.blocks
        tr.count("decompose.blocks", len(mg.blocks))
        with tr.span("factorize.factorize"):
            e = self.cg.factorize_chain(g)
        tr.count("factorize.terms", len(e.terms))
        tr.peak("markov.max_clique", max((len(t.vars) for t in e.terms if t.kind == "potential"), default=0))
        with tr.span("factorize.render"):
            out["text"] = self.cg.render(e)
        return Outcome(out, None, c.size)

    def digest(self, out: Outcome):
        o = out.output
        return (o["valid"], len(o.get("components", ())), o.get("answers"), len(o.get("blocks", ())), o.get("text"), out.error)

    def check(self, op: Op, out: Outcome) -> str | None:
        c: gen.GraphCase = op.data
        o = out.output
        cyclic = ref.has_semi_directed_cycle(c.names, c.edges)
        if cyclic == c.valid:
            raise RuntimeError(f"generator broke its own guarantee on {op.key}")
        if o["valid"] != c.valid:
            return "valid graph rejected" if c.valid else "graph with a semi-directed cycle accepted"
        if not c.valid:
            if not any(ref.is_semi_directed_cycle(w, c.edges) for w in o["witnesses"]):
                return "no witness is a semi-directed cycle"
            return None
        if set(o["components"]) != set(ref.undirected_components(c.names, c.edges)):
            return "chain components differ"
        if {frozenset(p) for p in o["moral"].edge_pairs()} != ref.moral_edges(c.names, c.edges):
            return "moral graph differs"
        separated = ref.d_separated if c.dag else ref.lwf_separated
        for (a, b, s), got in zip(c.queries, o["answers"]):
            if got != separated(c.names, c.edges, a, b, s):
                return f"query {a} _||_ {b} | {','.join(s)} answered {got}"
        if "blocks" not in o:
            return None  # refused before decomposition; counted as failed, not as wrong
        pos = {n: k for k, b in enumerate(o["blocks"]) for n in b}
        if sorted(pos) != sorted(c.names):
            return "master-graph blocks do not partition the nodes"
        if any(len({pos[n] for n in comp}) != 1 for comp in o["components"]):
            return "a chain component is split across master-graph blocks"
        if any(d and pos[u] > pos[v] for u, v, d in c.edges):
            return "an arc runs backwards in the master-graph order"
        return ref.factorization_problem(o["text"], c.names, c.edges)


# -- oracle_sweep ------------------------------------------------------------------------

SWEEP_TRIALS = 20
# ground coin of 6 and 8 nodes: with these, the middle sample of a round falls
# inside the block of 6-node sweeps rather than at its edge
COIN_SIZES = (5, 7)
EQUIV_SHARED = {"p(Dis|Age,Occ,Clim)": "p(Dis|Age,Occ,Clim)", "p(Symp|Age,Dis)": "p(Symp|Age,Dis)"}


# the names check_global_markov looks up in chaingraph.oracle, and their spans
ORACLE_STEPS = {
    "factorize_chain": "factorize.factorize",
    "all_singleton_queries": "oracle.queries",
    "implies_ci": "markov.implies_ci",
    "assignment_from_rng": "oracle.assign",
    "build_joint": "oracle.build_joint",
    "ci_deviation": "oracle.ci_deviation",
}
# counters kept per call: name and what one call adds
ORACLE_COUNTS = {
    "implies_ci": ("markov.ci_queries", lambda result: 1),
    "build_joint": ("oracle.joint_configs", lambda result: result.table.size),
    "ci_deviation": ("oracle.ci_deviation_calls", lambda result: 1),
}


@contextmanager
def _oracle_spans(tr):
    """With tracing on, wrap each step of the oracle's own sweep in a span
    for as long as the block runs, then put the module's functions back;
    with tracing off, change nothing."""
    if not tr.enabled:
        yield
        return
    from chaingraph import oracle

    saved = {name: getattr(oracle, name) for name in ORACLE_STEPS}

    def wrap(name, fn):
        span = ORACLE_STEPS[name]
        counter, units = ORACLE_COUNTS.get(name, (None, None))

        def traced(*args, **kwargs):
            with tr.span(span):
                result = fn(*args, **kwargs)
            if counter:
                tr.count(counter, units(result))
            return result

        return traced

    try:
        for name, fn in saved.items():
            setattr(oracle, name, wrap(name, fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(oracle, name, fn)


class OracleSweep:
    """``check_global_markov`` with 20 trials on every corpus model of at
    most 8 nodes and on ground coin, plus ``check_equivalence`` of fig1a
    against fig1b.  Traced, the functions the sweep looks up in
    ``chaingraph.oracle`` get a span each (see :func:`_oracle_spans`)."""

    name = "oracle_sweep"
    in_process = True

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.cg = _chaingraph()  # its import belongs to set-up
        rng = random.Random(seed)
        graphs = {m: self.cg.corpus.load(m).graph for m in ("fig1a", "fig1b", "fig2", "fig3", "cad")}
        coin = self.cg.corpus.load("coin")
        for n in COIN_SIZES:
            graphs[f"coin N={n}"] = self.cg.expand(coin, {"N": n})
        self.ops = [Op(k, 30.0, ("sweep", g, rng.randrange(2**31))) for k, g in graphs.items()]
        self.ops.append(Op("equivalence fig1a fig1b", 30.0, ("equiv", (graphs["fig1a"], graphs["fig1b"]), rng.randrange(2**31))))
        rng.shuffle(self.ops)

    def run(self, op: Op, tr) -> Outcome:
        kind, g, seed = op.data
        if kind == "equiv":
            factorize_chain = self.cg.factorize_chain
            with tr.span("factorize.factorize"):
                e1, e2 = factorize_chain(g[0]), factorize_chain(g[1])
            with tr.span("oracle.equivalence"):
                rep = self.cg.check_equivalence(e1, e2, shared=EQUIV_SHARED, trials=SWEEP_TRIALS, seed=seed, mode="conditional", tol=1e-12)
            return Outcome((rep.ok,), None, SWEEP_TRIALS)
        with _oracle_spans(tr), tr.span("oracle.sweep"):
            rep = self.cg.check_global_markov(g, trials=SWEEP_TRIALS, seed=seed)
        records = tuple((r.query, r.implied) for r in rep.records)
        return Outcome((rep.ok, records), None, len(records) * SWEEP_TRIALS)

    def digest(self, out: Outcome):
        return out.output

    def check(self, op: Op, out: Outcome) -> str | None:
        kind, g, _seed = op.data
        if kind == "equiv":
            return None if out.output[0] else "fig1a and fig1b disagree on p(Dis | rest)"
        ok, records = out.output
        if not ok:
            return "an implied independence fails numerically"
        names = g.node_names
        edges = [(e.u, e.v, e.directed) for e in g.edges]
        if len(records) != ref.singleton_query_count(len(names)):
            return f"{len(records)} queries, expected {ref.singleton_query_count(len(names))}"
        implied = 0
        for q, got in records:
            (a,), (b,) = q.a, q.b
            if got != ref.lwf_separated(names, edges, a, b, q.s):
                return f"query {q.text()} implied={got}"
            implied += got
        if op.key == "fig3" and (len(records), implied) != ref.FIG3_QUERIES:
            return f"fig3: {implied} of {len(records)} implied, expected 46 of 240"
        return None


WORKLOADS: dict[str, Callable] = {w.name: w for w in (CliCorpus, RandomChain, OracleSweep)}
