"""Shared test utilities.

Independent oracles (implemented differently from the library on purpose)
and random-graph generators used by both the unit tests and the
acceptance suite.
"""

from __future__ import annotations

import importlib.util
import random
import re
import sys
from pathlib import Path

import numpy as np

from chaingraph import ChainGraph, Edge, NodeAttr, factorize_chain, simplify_conditional
from chaingraph.oracle import (
    OracleError,
    TermTable,
    _check_size,
    _joint_shape,
    _require_ground,
    _term_shape,
    assignment_from_rng,
    build_joint,
)
from chaingraph.plates import _index_tuples


def _load_benchmark_module(name: str):
    # perfbench/ is a directory of scripts, not a package: load by path
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# the benchmark's read-only checks (LWF moralization and separation,
# d-separation, factorization coverage), written without chaingraph
reference = _load_benchmark_module("reference")
# the benchmark's seeded sparse random chain graphs (plain names and edge triples)
bench_gen = _load_benchmark_module("gen")

# ---------------------------------------------------------------------------
# rendered-factorization comparison


_TERM_RE = re.compile(r"(?P<name>p|delta|f_\d+)\((?P<args>[^()]*)\)\Z")
_Z_RE = re.compile(r"Z(_\d+)?\^-1\Z")


def term_key(token: str) -> tuple:
    """Canonical key for one rendered term, insensitive to f- and Z-label
    numbering and to the order of names inside a head or conditioning list."""
    if _Z_RE.match(token):
        return ("Z", (), ())
    m = _TERM_RE.match(token)
    if m is None:
        raise ValueError(f"not a factor term: {token!r}")
    args = m.group("args")
    head, _, given = args.partition("|")
    kind = "f" if m.group("name").startswith("f_") else m.group("name")
    heads = tuple(sorted(x for x in head.split(",") if x))
    givens = tuple(sorted(x for x in given.split(",") if x))
    return (kind, heads, givens)


def term_multiset(rendered: str) -> list[tuple]:
    """Sorted term keys of a flat (plate-free, ratio-free) factorization."""
    return sorted(term_key(tok) for tok in rendered.split())


# ---------------------------------------------------------------------------
# brute-force semi-directed-cycle oracle


def has_semi_directed_cycle(nodes, edges) -> bool:
    """Cycle search that never looks at quotient graphs: a semi-directed
    cycle exists iff some arc u->v admits a semi-directed path v ~> u.

    ``edges`` is an iterable of ``(u, v, directed)`` triples.
    """
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    arcs: list[tuple[str, str]] = []
    for u, v, is_arc in edges:
        adj[u].add(v)
        if is_arc:
            arcs.append((u, v))
        else:
            adj[v].add(u)
    for u, v in arcs:
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if u in seen:
            return True
    return False


def is_closed_semi_directed_walk(g: ChainGraph, nodes) -> bool:
    """True iff ``nodes`` (in order, wrapping around) is a cycle in ``g``
    whose directed hops all point forward, with at least one directed hop."""
    if len(nodes) < 2:
        return False
    arcs = 0
    for i, u in enumerate(nodes):
        v = nodes[(i + 1) % len(nodes)]
        if v in g.children(u):
            arcs += 1
        elif v not in g.neighbors(u):
            return False
    return arcs >= 1


def _reach(nodes, steps) -> dict[str, set[str]]:
    """For each node, the nodes reachable from it (itself included) along
    ``steps``, a set of ordered pairs."""
    out = {}
    for x in nodes:
        seen, todo = {x}, [x]
        while todo:
            u = todo.pop()
            for a, b in steps:
                if a == u and b not in seen:
                    seen.add(b)
                    todo.append(b)
        out[x] = seen
    return out


def chain_component_of(g: ChainGraph) -> dict[str, frozenset[str]]:
    """Each node's chain component, by reachability along undirected edges."""
    steps = {p for e in g.edges if not e.directed for p in ((e.u, e.v), (e.v, e.u))}
    return {x: frozenset(r) for x, r in _reach(g.node_names, steps).items()}


def cyclic_parts(g: ChainGraph) -> set[frozenset[str]]:
    """The node sets strongly connected by semi-directed paths (arcs
    forward, undirected edges either way) that span two or more chain
    components, by brute-force reachability."""
    steps = {p for e in g.edges for p in (((e.u, e.v),) if e.directed else ((e.u, e.v), (e.v, e.u)))}
    reach = _reach(g.node_names, steps)
    comp = chain_component_of(g)
    parts = {frozenset(y for y in reach[x] if x in reach[y]) for x in g.node_names}
    return {p for p in parts if len({comp[x] for x in p}) > 1}


# ---------------------------------------------------------------------------
# path-based d-separation (directed graphs only)
#
# The library answers queries by moralizing an ancestral subgraph; this is
# the classic active-trail reachability instead, so the two can check each
# other on random DAGs.


def d_connected(g: ChainGraph, a_set, b_set, s_set) -> bool:
    a_set, b_set, s_set = set(a_set), set(b_set), set(s_set)
    anc = set(s_set)
    stack = list(s_set)
    while stack:
        for p in g.parents(stack.pop()):
            if p not in anc:
                anc.add(p)
                stack.append(p)

    visited: set[tuple[str, str]] = set()
    frontier = [(x, "up") for x in a_set]
    while frontier:
        state = frontier.pop()
        if state in visited:
            continue
        visited.add(state)
        x, direction = state
        if x in b_set and x not in s_set:
            return True
        if direction == "up":
            if x in s_set:
                continue
            for p in g.parents(x):
                frontier.append((p, "up"))
            for c in g.children(x):
                frontier.append((c, "down"))
        else:  # arrived from a parent
            if x not in s_set:
                for c in g.children(x):
                    frontier.append((c, "down"))
            if x in anc:  # collider (or its descendant) activated by S
                for p in g.parents(x):
                    frontier.append((p, "up"))
    return False


# ---------------------------------------------------------------------------
# random graph generators


def random_dag(rng: random.Random, n: int, p: float = 0.4, obs_p: float = 0.0) -> ChainGraph:
    """Random DAG; the declaration order doubles as a topological order."""
    names = [f"n{i}" for i in range(n)]
    attrs = {x: NodeAttr(observed=rng.random() < obs_p) for x in names}
    edges = [
        Edge(names[i], names[j], True)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return ChainGraph(attrs, edges)


def random_undirected(rng: random.Random, n: int, p: float = 0.45, obs_p: float = 0.5) -> ChainGraph:
    names = [f"n{i}" for i in range(n)]
    attrs = {x: NodeAttr(observed=rng.random() < obs_p) for x in names}
    edges = [
        Edge(names[i], names[j], False)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return ChainGraph(attrs, edges)


def random_chain_graph(rng: random.Random, n: int, p: float = 0.4) -> ChainGraph:
    """Valid-by-construction chain graph: partition the nodes into ordered
    blocks, wire undirected edges within blocks and arcs forward only."""
    names = [f"n{i}" for i in range(n)]
    block_of: dict[str, int] = {}
    next_block = 0
    for x in names:
        block_of[x] = next_block
        if rng.random() < 0.5:
            next_block += 1
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= p:
                continue
            u, v = names[i], names[j]
            if block_of[u] == block_of[v]:
                edges.append(Edge(u, v, False))
            else:
                edges.append(Edge(u, v, True))
    return ChainGraph(names, edges)


def random_mixed(rng: random.Random, n: int, p: float = 0.4) -> ChainGraph:
    """Arbitrary mixed graph; may or may not contain semi-directed cycles."""
    names = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= p:
                continue
            u, v = names[i], names[j]
            roll = rng.random()
            if roll < 1 / 3:
                edges.append(Edge(u, v, False))
            elif roll < 2 / 3:
                edges.append(Edge(u, v, True))
            else:
                edges.append(Edge(v, u, True))
    return ChainGraph(names, edges)


def side_by_side(g1: ChainGraph, g2: ChainGraph) -> ChainGraph:
    """The disjoint union of two graphs, their nodes prefixed ``a`` and
    ``b``; it has the semi-directed cycles of both."""
    nodes = {f"{tag}{x}": a for tag, g in (("a", g1), ("b", g2)) for x, a in g.attrs().items()}
    edges = [Edge(f"{tag}{e.u}", f"{tag}{e.v}", e.directed) for tag, g in (("a", g1), ("b", g2)) for e in g.edges]
    return ChainGraph(nodes, edges)


# ---------------------------------------------------------------------------
# graph comparison


def edge_triples(g: ChainGraph) -> list[tuple[str, str, bool]]:
    """Edges as ``(u, v, directed)`` triples, the form the benchmark's
    references take."""
    return [(e.u, e.v, e.directed) for e in g.edges]


def parents_of_set(g: ChainGraph, members) -> frozenset[str]:
    """The parents of ``members`` that lie outside them, read off the edge
    list."""
    inside = set(members)
    return frozenset(u for u, v, d in edge_triples(g) if d and v in inside and u not in inside)


def joined_pairs(g: ChainGraph) -> set[frozenset[str]]:
    """The node pairs that an edge of either kind joins, read off the edge
    list."""
    return {frozenset((u, v)) for u, v, _ in edge_triples(g)}


def edge_signature(g: ChainGraph) -> set[tuple]:
    return {(e.u, e.v, "->") if e.directed else (e.u, e.v, "--") for e in g.edges}


def same_graph(g1: ChainGraph, g2: ChainGraph, check_attrs: bool = True) -> bool:
    """Equality up to node/edge order (names must match exactly)."""
    if set(g1.node_names) != set(g2.node_names):
        return False
    if edge_signature(g1) != edge_signature(g2):
        return False
    if check_attrs and g1.attrs() != g2.attrs():
        return False
    return True


# ---------------------------------------------------------------------------
# conveniences the library does not need


def indval(m, v: str, b) -> set[tuple[int, ...]]:
    """All index tuples of node v: the cross product of the index ranges of
    the plates containing it.  A node in no plate has the single empty tuple."""
    if v not in m.graph:
        raise KeyError(v)
    return set(_index_tuples(m, m.membership(v), b))


def random_assignment(e, seed: int):
    """Random tables for every term of ``e``, drawn from one seed."""
    return assignment_from_rng(e, np.random.default_rng(seed))


def _spread(tt: TermTable, big_vars: tuple) -> np.ndarray:
    """View a small term table over a superset of axes (for broadcasting)."""
    pos = {v: i for i, v in enumerate(big_vars)}
    order = sorted(range(len(tt.vars)), key=lambda i: pos[tt.vars[i]])
    arr = np.transpose(tt.table, order)
    shape = [1] * len(big_vars)
    for i in order:
        shape[pos[tt.vars[i]]] = tt.table.shape[i]
    return arr.reshape(shape)


def transfer_deviation(g: ChainGraph, seed: int) -> tuple[float, list[str]]:
    """Simplify ``g``, move every term table of ``factorize_chain(g)``
    (normalizers and deltas too) into the first term of the simplified
    graph's product whose variables hold it, and compare p(hidden |
    observed) of the two joints.  A term that finds no home must hold
    observed variables alone, as it is constant given the evidence; the
    names of the terms that break this come back with the deviation."""
    g2 = simplify_conditional(g)
    e, e2 = factorize_chain(g), factorize_chain(g2)
    pa = random_assignment(e, seed)
    size = {x: g.attr(x).domain_size for x in g.node_names}
    acc = {r.name(): np.ones(tuple(size[v] for v in r.vars)) for r in e2.terms}
    homeless = []
    for t in e.terms:
        home = next((r for r in e2.terms if set(t.vars) <= set(r.vars)), None)
        if home is None:
            if not all(g.attr(x).observed for x in t.vars):
                homeless.append(t.name())
            continue
        acc[home.name()] = acc[home.name()] * _spread(pa[t.name()], home.vars)
    pa2 = {r.name(): TermTable(r.vars, acc[r.name()]) for r in e2.terms}
    hidden = tuple(x for x in g.node_names if not g.attr(x).observed)
    observed = tuple(x for x in g.node_names if g.attr(x).observed)
    return per_trial_conditional_deviation(build_joint(e, pa), build_joint(e2, pa2), hidden, observed), homeless


# ---------------------------------------------------------------------------
# the oracle one trial at a time: the per-trial loop that the stacked draws,
# joints and deviations of `chaingraph.oracle` replaced, kept as it was


def per_trial_assignment(e, rng: np.random.Generator) -> dict:
    """One trial's tables, drawn term by term from ``rng``."""
    _require_ground(e)
    domains = e.domains
    pa = {}
    for t in e.terms:
        shape = _term_shape(t, domains)
        _check_size(f"table for {t.name()}", shape)
        if t.kind == "conditional":
            raw = rng.uniform(0.1, 1.0, size=shape)
            table = raw / raw.sum(axis=tuple(range(len(t.given), len(shape))), keepdims=True)
        elif t.kind == "delta":
            given_shape = shape[: len(t.given)]
            head_sizes = shape[len(t.given) :]
            if len(head_sizes) != 1:
                raise OracleError("delta terms carry exactly one head variable")
            choice = rng.integers(0, head_sizes[0], size=given_shape)
            table = (np.arange(head_sizes[0]) == choice[..., None]).astype(float)
        elif t.kind == "potential":
            table = rng.uniform(0.1, 1.0, size=shape)
        elif t.kind == "normalizer":
            continue
        else:
            raise OracleError(f"unknown term kind {t.kind!r}")
        pa[t.name()] = TermTable(t.vars, table)
    per_trial_normalizers(e, pa, skip=frozenset())
    return pa


def per_trial_normalizers(e, pa: dict, skip: frozenset) -> None:
    """Each normalizer as 1 / sum of its group's potential product."""
    domains = e.domains
    for t in e.terms:
        if t.kind != "normalizer" or t.name() in skip:
            continue
        group = [u for u in e.terms if u.kind == "potential" and u.group == t.group]
        union = [v for v in e.order if any(v in u.vars for u in group) or v in t.vars]
        shape = tuple(domains[v] for v in union)
        _check_size(f"potential product for {t.name()}", shape)
        arr = np.ones(shape)
        for u in group:
            arr = arr * _per_trial_broadcast(pa[u.name()], union, domains)
        summed = arr.sum(axis=tuple(i for i, v in enumerate(union) if v not in t.vars))
        kept = [v for v in union if v in t.vars]
        inv = 1.0 / summed
        perm = [kept.index(v) for v in t.vars]
        pa[t.name()] = TermTable(t.vars, np.transpose(inv, perm) if perm else inv)


def _per_trial_broadcast(tt, order, domains) -> np.ndarray:
    perm = sorted(range(len(tt.vars)), key=lambda i: order.index(tt.vars[i]))
    arr = np.transpose(tt.table, perm)
    return arr.reshape([domains[v] if v in tt.vars else 1 for v in order])


def per_trial_joint(e, pa: dict) -> TermTable:
    """One trial's normalized joint: the product of its tables, term by term."""
    domains = e.domains
    order, shape = _joint_shape(e)
    arr = np.ones(shape)
    for t in e.terms:
        arr = arr * _per_trial_broadcast(pa[t.name()], order, domains)
    s = float(arr.sum())
    if not np.isfinite(s) or s <= 0.0:
        raise OracleError("assignment yields a zero or non-finite joint")
    return TermTable(order, arr / s)


def per_trial_aligned(j: TermTable, order) -> np.ndarray:
    """One joint's marginal on ``order``, its axes in that order."""
    vars_, table = j.vars, j.table
    drop = tuple(i for i, v in enumerate(vars_) if v not in order)
    kept = tuple(v for v in vars_ if v in order)
    m = table.sum(axis=drop) if drop else table
    return np.transpose(m, [kept.index(v) for v in order])


def per_trial_conditional_deviation(j1: TermTable, j2: TermTable, head, given) -> float:
    """max |p1(head | given) - p2(head | given)| over the configs of
    ``given`` that both joints support."""
    head, given = tuple(head), tuple(given)

    def cond(j):
        arr = per_trial_aligned(j, head + given)
        p = arr.reshape(int(np.prod(arr.shape[: len(head)])), -1)
        pg = p.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = p / pg
        return c, pg

    c1, g1 = cond(j1)
    c2, g2 = cond(j2)
    ok = (g1 > 0.0) & (g2 > 0.0)
    if not ok.any():
        return 0.0
    return float(np.abs(c1[:, ok] - c2[:, ok]).max(initial=0.0))


def per_trial_marginal_deviation(j1: TermTable, j2: TermTable, on) -> float:
    on = tuple(on)
    return float(np.abs(per_trial_aligned(j1, on) - per_trial_aligned(j2, on)).max(initial=0.0))


def per_trial_equivalence(e1, e2, shared: dict, trials: int, seed: int, mode: str) -> list[float]:
    """`check_equivalence`'s deviations, one trial at a time: e1's tables,
    then e2's, from one generator per trial, the shared ones copied."""
    if mode == "conditional":
        head = tuple(sorted(e1.free_vars, key=e1.sort_key))
        given = tuple(sorted(e1.given_vars, key=e1.sort_key))
    else:
        common = {v for t in e1.terms for v in t.vars} & {v for t in e2.terms for v in t.vars}
        head = tuple(v for v in e1.order if v in common)
    inverse = {v: k for k, v in shared.items()}
    devs = []
    for seq in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(seq)
        pa1 = per_trial_assignment(e1, rng)
        pa2 = per_trial_assignment(e2, rng)
        for name2, name1 in inverse.items():
            pa2[name2] = pa1[name1]
        per_trial_normalizers(e2, pa2, skip=frozenset(inverse))
        j1 = per_trial_joint(e1, pa1)
        j2 = per_trial_joint(e2, pa2)
        if mode == "conditional":
            devs.append(per_trial_conditional_deviation(j1, j2, head, given))
        else:
            devs.append(per_trial_marginal_deviation(j1, j2, head))
    return devs


# ---------------------------------------------------------------------------
# deterministic-node elimination, numerically


def eliminated_edges(g: ChainGraph) -> list[Edge]:
    """The edge sequence of ``eliminate_deterministic(g)``, by brute force:
    the edges between stochastic nodes, then u -> y for each stochastic
    u != y that a directed path with only deterministic nodes inside joins
    to stochastic y, in (u, y) declaration order, skipping pairs that an
    edge already joins."""
    det = {x for x in g.node_names if g.attr(x).deterministic}
    out = [e for e in g.edges if e.u not in det and e.v not in det]
    joined = {frozenset((e.u, e.v)) for e in g.edges}
    for u in g.node_names:
        if u in det:
            continue
        inside, todo = set(), [u]  # the det nodes that u reaches through det nodes
        while todo:
            for c in g.children(todo.pop()):
                if c in det and c not in inside:
                    inside.add(c)
                    todo.append(c)
        for y in g.node_names:
            if y in det or y == u or frozenset((u, y)) in joined:
                continue
            if any(y in g.children(d) for d in inside):
                out.append(Edge(u, y, True))
    return out


def eliminated_assignment(g: ChainGraph, g2: ChainGraph, pa: dict) -> dict:
    """Tables for factorize_chain(g2), where g2 = eliminate_deterministic(g)
    and g is purely directed: each surviving node's table composes the
    original one with the deterministic functions it absorbed.  The result
    represents exactly the original marginal on the surviving nodes."""
    if not all(e.directed for e in g.edges):
        raise OracleError("eliminated_assignment requires a purely directed graph")
    dets = {x for x in g.node_names if g.attr(x).deterministic}

    def value_of(x: str, env: dict) -> int:
        if x in env:
            return env[x]
        if x not in dets:
            raise OracleError(f"value of non-deterministic node {x!r} is not determined")
        parents = g.sorted_nodes(g.parents(x))
        vals = tuple(value_of(p, env) for p in parents)
        env[x] = int(np.argmax(pa[f"delta({x}|{','.join(parents)})"].table[vals]))
        return env[x]

    out = {}
    for y in g2.node_names:
        new_parents = g2.sorted_nodes(g2.parents(y))
        old_parents = g.sorted_nodes(g.parents(y))
        old = pa[f"p({y}|{','.join(old_parents)})" if old_parents else f"p({y})"]
        shape = tuple(g2.attr(p).domain_size for p in new_parents) + (g.attr(y).domain_size,)
        table = np.empty(shape)
        for idx in np.ndindex(shape[:-1]):
            env = dict(zip(new_parents, (int(i) for i in idx)))
            table[idx] = old.table[tuple(value_of(p, env) for p in old_parents)]
        new_name = f"p({y}|{','.join(new_parents)})" if new_parents else f"p({y})"
        out[new_name] = TermTable(tuple(new_parents) + (y,), table)
    return out


# ---------------------------------------------------------------------------
# plate references: the quadratic loops that `expand` and `validate_plates`
# replaced


def expand_all_pairs(m, b) -> tuple[list[str], list[Edge]]:
    """Ground node names and edge sequence of ``expand(m, b)``, found by
    testing every pair of endpoint copies on the plates they share."""
    by_name = {p.name: p for p in m.plates}
    order = {p.name: i for i, p in enumerate(m.plates)}

    def depth(p) -> int:
        d = 0
        while p.parent is not None:
            p, d = by_name[p.parent], d + 1
        return d

    def chain(v) -> list:
        return sorted((p for p in m.plates if v in p.members), key=lambda p: (depth(p), order[p.name]))

    def name(v, t) -> str:
        return v + "".join(f"_{i}" for i in t)

    tuples = {v: sorted(indval(m, v, b)) for v in m.graph.node_names}
    nodes = [name(v, t) for v in m.graph.node_names for t in tuples[v]]
    edges = []
    for e in m.graph.edges:
        cu, cv = chain(e.u), chain(e.v)
        shared = [(cu.index(p), cv.index(p)) for p in cu if p in cv]
        for tu in tuples[e.u]:
            for tv in tuples[e.v]:
                if all(tu[i] == tv[j] for i, j in shared):
                    edges.append(Edge(name(e.u, tu), name(e.v, tv), e.directed))
    return nodes, edges


def plate_collisions_by_regex(m) -> list[tuple[str, str]]:
    """(plated node, clashing name) pairs, in declaration order: one pattern
    of expansion-copy names per plated node, matched against every name."""
    names = m.graph.node_names
    out = []
    for v in names:
        if any(v in p.members for p in m.plates):
            pat = re.compile(re.escape(v) + r"(?:_[1-9][0-9]*)+\Z")
            out += [(v, w) for w in names if w != v and pat.fullmatch(w)]
    return out
