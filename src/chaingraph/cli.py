"""Command-line front end.

Exit codes: 0 success; 1 invalid model (or a failed soundness check);
2 usage error (bad flags, malformed query, bad binding); 3 resource guard
(state space too large).  Results go to stdout, diagnostics to stderr.

`run` writes to the ``out`` and ``err`` it is given; argparse's help and usage
errors reach them by a process-wide redirect of sys.stdout and sys.stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Sequence

from .core import ChainGraph, GraphError, StateSpaceError
from .decompose import chain_components, component_subgraphs, conditional_subgraphs
from .dot import to_dot
from .factorize import (
    FactorError,
    condition_expression,
    eliminate_deterministic,
    factorize_plated,
    render,
    simplify_conditional,
)
from .lang import ModelError, emit_model, read_model
from .markov import QueryError, implies_ci, moralize_chain, parse_ci_query
from .plates import PlateError, PlateModel, expand

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _UsageError(ValueError):
    pass


def _parse_bindings(pairs: Sequence[str] | None) -> dict[str, int | list[int]] | None:
    if not pairs:
        return None
    out: dict[str, int | list[int]] = {}
    for raw in pairs:
        sym, eq, val = raw.partition("=")
        sym = sym.strip()
        if not eq or not sym or not val.strip():
            raise _UsageError(f"binding {raw!r} is not SYMBOL=INT or SYMBOL=INT,INT,...")
        try:
            parts = [int(x) for x in val.split(",")]
        except ValueError:
            raise _UsageError(f"binding {raw!r} has a non-integer count") from None
        if sym in out:
            raise _UsageError(f"symbol {sym!r} bound twice")
        out[sym] = parts[0] if len(parts) == 1 else parts
    return out


def _load(path: str, err) -> PlateModel:
    try:
        source = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    model, diags = read_model(source)
    for d in diags:
        print(d.render(path), file=err)
    if model is None:
        raise ModelError(path, [d for d in diags if d.severity == "error"])
    return model


def _blocks_lines(g: ChainGraph, blocks) -> list[str]:
    # Frozensets have no order of their own; print members in declaration order.
    return [" ".join(g.sorted_nodes(b)) for b in blocks]


def _graph_for_query(m: PlateModel, bind, what: str) -> ChainGraph:
    if bind is not None:
        return expand(m, bind)
    if m.plates:
        raise _UsageError(f"{what} on a plated model needs --bind for every plate symbol")
    return m.graph


def run(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr

    ap = argparse.ArgumentParser(
        prog="chaingraph",
        description="Parse, validate, decompose, query, and factorize chain-graph models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *, bind: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("model", help="path to a .cg model file")
        p.add_argument("-o", "--output", help="write stdout content to this file")
        if bind:
            p.add_argument(
                "--bind",
                action="append",
                metavar="SYM=INT[,INT...]",
                help="plate cardinality (a list gives per-instance counts of the enclosing plate)",
            )
        return p

    add("validate", "check the model and print diagnostics")
    add("components", "chain components, one block per line")
    add("subgraphs", "component subgraphs, one block per line")
    add("moralize", "edges of the moralized graph")
    add("cliques", "maximal cliques of each undirected block extended with its parents")
    q = add("query", "answer a conditional-independence query", bind=True)
    q.add_argument("--ci", required=True, metavar="'A _||_ B | S'", help="comma-separated node lists")
    f = add("factorize", "print the symbolic factorization", bind=True)
    f.add_argument("--format", choices=("text", "latex"), default="text")
    f.add_argument("--condition", metavar="X[,Y...]", help="render p(target | observed) instead")
    add("simplify", "drop arcs/edges made redundant by observed nodes")
    add("elim-det", "remove deterministic nodes, rewiring to their stochastic children")
    add("expand", "replace plates by ground copies", bind=True)
    add("dot", "Graphviz source for the model")
    o = add("oracle", "numeric check of every implied independence", bind=True)
    o.add_argument("--trials", type=int, default=20)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--tol", type=float, default=1e-9)
    o.add_argument("--json", action="store_true", help="machine-readable per-query records")

    try:
        with redirect_stdout(out), redirect_stderr(err):
            ns = ap.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:  # the parser already printed the message
        return int(exc.code or 0)

    try:
        lines = _dispatch(ns, err)
    except (_UsageError, QueryError, FactorError, PlateError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except StateSpaceError as exc:  # the clique bound's error among them
        print(f"error: {exc}", file=err)
        return EXIT_RESOURCE
    except ModelError:
        return EXIT_INVALID
    except GraphError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INVALID

    if lines is None:
        return EXIT_INVALID
    text = "\n".join(lines) + ("\n" if lines else "")
    if getattr(ns, "output", None):
        try:
            Path(ns.output).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"error: cannot write {ns.output}: {exc.strerror or exc}", file=err)
            return EXIT_USAGE
    else:
        out.write(text)
    return EXIT_OK


def _dispatch(ns, err) -> list[str] | None:
    m = _load(ns.model, err)
    g = m.graph
    bind = _parse_bindings(getattr(ns, "bind", None))

    if ns.command == "validate":
        return ["ok"]

    if ns.command == "components":
        return _blocks_lines(g, chain_components(g))

    if ns.command == "subgraphs":
        return _blocks_lines(g, component_subgraphs(g))

    if ns.command == "moralize":
        return [f"{u} -- {v}" for u, v in moralize_chain(g).edge_pairs()]

    if ns.command == "cliques":
        lines: list[str] = []
        for sub_ in conditional_subgraphs(g):
            if sub_.flavor != "undirected":
                continue
            for c in sub_.cliques():
                lines.append(" ".join(g.sorted_nodes(c)))
        return lines

    if ns.command == "query":
        target = _graph_for_query(m, bind, "query")
        query = parse_ci_query(ns.ci)
        unknown = sorted((query.a | query.b | query.s) - set(target.node_names))
        if unknown:
            raise _UsageError(f"unknown node(s) in query: {', '.join(unknown)}")
        return ["true" if implies_ci(target, query) else "false"]

    if ns.command == "factorize":
        e = factorize_plated(m, bind)
        if ns.condition:
            targets = frozenset(x.strip() for x in ns.condition.split(",") if x.strip())
            e = condition_expression(e, targets)
        return [render(e, ns.format)]

    if ns.command == "simplify":
        if m.plates:
            raise _UsageError("simplify does not take plated models; expand first")
        return emit_model(simplify_conditional(g), name=m.name).splitlines()

    if ns.command == "elim-det":
        if m.plates:
            raise _UsageError("elim-det does not take plated models; expand first")
        return emit_model(eliminate_deterministic(g), name=m.name).splitlines()

    if ns.command == "expand":
        if bind is None and m.plates:
            raise _UsageError("expand needs --bind for every plate symbol")
        return emit_model(expand(m, bind or {}), name=m.name).splitlines()

    if ns.command == "dot":
        return to_dot(m).splitlines()

    if ns.command == "oracle":
        if ns.trials < 1:
            raise _UsageError(f"--trials must be at least 1, got {ns.trials}")
        if ns.seed < 0:
            raise _UsageError(f"--seed must be at least 0, got {ns.seed}")
        if not 0.0 <= ns.tol < float("inf"):
            raise _UsageError(f"--tol must be a finite number >= 0, got {ns.tol:g}")
        from .oracle import check_global_markov  # numpy is only loaded here

        target = _graph_for_query(m, bind, "oracle")
        report = check_global_markov(target, trials=ns.trials, seed=ns.seed, tol=ns.tol)
        lines = report.summary().splitlines()
        if ns.json:
            import json  # only this branch writes JSON

            payload = {
                "nodes": report.node_count,
                "trials": report.trials,
                "seed": report.seed,
                "tol": report.tol,
                "ok": report.ok,
                "records": [
                    {
                        "query": r.query.text(),
                        "implied": r.implied,
                        "max_deviation": r.max_deviation,
                        "sound": r.sound,
                        "dependence_seen": r.dependence_seen,
                    }
                    for r in report.records
                ],
            }
            lines = [json.dumps(payload, indent=2, sort_keys=True)]
        if not report.ok:
            for line in lines:
                print(line, file=err)
            return None
        return lines

    raise _UsageError(f"unknown command {ns.command!r}")


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
