"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the run's seed, so the
same seed always yields the same inputs.  Nothing here imports chaingraph:
the program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# -- random chain graphs -------------------------------------------------------

SMALLEST_GRAPH = 4
LARGEST_GRAPH = 3000
QUERIES_PER_GRAPH = 6
PARENT_WINDOW = 40  # parents are drawn from the nearest earlier nodes


@dataclass
class GraphCase:
    """One random chain graph with the truth it was built to have."""

    names: list[str]
    edges: list[tuple[str, str, bool]]  # (u, v, directed)
    valid: bool
    dag: bool
    queries: list[tuple[str, str, tuple[str, ...]]]

    @property
    def size(self) -> int:
        return len(self.names)


@dataclass
class Shape:
    """A graph over nodes 0..n-1 in a topological order, before naming."""

    n: int
    edges: list[tuple[int, int, bool]]
    valid: bool
    dag: bool
    queries: list[tuple[int, int, tuple[int, ...]]]


def log_spread_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes spread logarithmically over [lo, hi], one per stratum,
    so the mix of sizes barely changes from seed to seed."""
    span = math.log(hi) - math.log(lo)
    return [
        max(lo, min(hi, round(math.exp(math.log(lo) + span * (k + rng.random()) / count))))
        for k in range(count)
    ]


def _blocks(rng: random.Random, n: int, dag: bool) -> list[list[int]]:
    blocks: list[list[int]] = []
    i = 0
    while i < n:
        size = 1 if dag or rng.random() < 0.5 else 2 + min(4, int(rng.expovariate(0.7)))
        size = min(size, n - i)
        blocks.append(list(range(i, i + size)))
        i += size
    return blocks


def random_shape(rng: random.Random, n: int, *, dag: bool, plant_cycle: bool) -> Shape:
    """A sparse chain graph, valid by construction: ordered chain components,
    each a random tree (plus an occasional chord) of undirected edges, and
    arcs only from earlier components to later ones.  With ``plant_cycle``
    one extra arc closes a semi-directed cycle."""
    blocks = _blocks(rng, n, dag)
    adj: dict[int, set[int]] = {x: set() for x in range(n)}
    edges: list[tuple[int, int, bool]] = []

    def add(u: int, v: int, directed: bool) -> None:
        edges.append((u, v, directed))
        adj[u].add(v)
        adj[v].add(u)

    for blk in blocks:
        for k in range(1, len(blk)):
            add(blk[rng.randrange(k)], blk[k], False)
        if len(blk) >= 3 and rng.random() < 0.3:
            u, v = rng.sample(blk, 2)
            if v not in adj[u]:
                add(u, v, False)
    for blk in blocks[1:]:
        first = blk[0]
        for x in blk:
            for p in rng.sample(range(max(0, first - PARENT_WINDOW), first), min(first, rng.choice((0, 1, 1, 2, 2, 3)))):
                add(p, x, True)

    if plant_cycle:
        _plant_cycle(rng, n, blocks, adj, edges, add)
    queries = [] if plant_cycle else _queries(rng, n, adj)
    return Shape(n, edges, not plant_cycle, dag, queries)


def name_shape(rng: random.Random, shape: Shape) -> GraphCase:
    """Name the nodes of a shape and declare them in a random order, so the
    declaration order is unrelated to the topological order."""
    perm = list(range(shape.n))
    rng.shuffle(perm)
    name = [f"x{perm[x]}" for x in range(shape.n)]
    return GraphCase(
        names=[f"x{i}" for i in range(shape.n)],
        edges=[(name[u], name[v], d) for u, v, d in shape.edges],
        valid=shape.valid,
        dag=shape.dag,
        queries=[(name[a], name[b], tuple(name[x] for x in s)) for a, b, s in shape.queries],
    )


def _plant_cycle(rng, n, blocks, adj, edges, add) -> None:
    """Add one arc that closes a semi-directed cycle.

    Either an arc between two non-adjacent members of one chain component
    (the cycle returns along the component's undirected tree), or an arc
    from a node back to one of its anterior nodes (the cycle follows the
    semi-directed path forward and the new arc back)."""
    wide = [blk for blk in blocks if len(blk) >= 3]
    if wide and rng.random() < 0.5:
        blk = rng.choice(wide)
        pairs = [(u, v) for u in blk for v in blk if u != v and v not in adj[u]]
        if pairs:
            u, v = rng.choice(pairs)
            add(u, v, True)
            return
    into = {x: [] for x in range(n)}  # semi-directed predecessors
    for u, v, d in edges:
        into[v].append(u)
        if not d:
            into[u].append(v)
    for w in rng.sample(range(n), n):
        seen = {w}
        frontier = [w]
        anterior: list[int] = []
        while frontier and len(anterior) < 50:
            nxt = []
            for x in frontier:
                for y in into[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                        if y not in adj[w]:
                            anterior.append(y)
            frontier = nxt
        if anterior:
            add(w, rng.choice(anterior), True)
            return
    raise RuntimeError("no semi-directed path to close")  # only for edge-free graphs


def _queries(rng: random.Random, n: int, adj: dict[int, set[int]]) -> list[tuple[int, int, tuple[int, ...]]]:
    """Singleton CI queries between nearby nodes (so answers are not all
    trivially 'independent'), with a few conditioning nodes from the
    neighbourhood."""
    out = []
    for _ in range(QUERIES_PER_GRAPH):
        if n < 3:
            break
        a = rng.randrange(n)
        near = {a}
        frontier = [a]
        for _hop in range(3):
            frontier = [y for x in frontier for y in adj[x] if y not in near]
            near.update(frontier)
        pool = sorted(near - {a})
        b = rng.choice(pool) if pool and rng.random() < 0.8 else rng.randrange(n)
        if b == a:
            b = (a + 1) % n
        cand = sorted((near | adj[a] | adj[b]) - {a, b})
        s = rng.sample(cand, min(len(cand), rng.choice((0, 1, 1, 2, 3))))
        out.append((a, b, tuple(s)))
    return out


# The graph shapes come from this fixed seed, so every run does the same
# amount of work; the run's seed names the nodes and orders declarations.
SHAPE_SEED = 20130219


def random_chain_cases(rng: random.Random, count: int) -> list[GraphCase]:
    """``count`` graphs, sizes spread logarithmically.  Kinds take turns
    along the sizes (every tenth graph a DAG, every tenth one with a planted
    cycle, the rest chain graphs), so each kind covers every size."""
    shapes = random.Random(SHAPE_SEED)
    cases = [
        name_shape(rng, random_shape(shapes, n, dag=k % 10 == 0, plant_cycle=k % 10 == 5))
        for k, n in enumerate(log_spread_sizes(shapes, count, SMALLEST_GRAPH, LARGEST_GRAPH))
    ]
    rng.shuffle(cases)
    return cases


# -- malformed model sources ---------------------------------------------------

MUTATIONS = ("drop_semicolon", "unknown_endpoint", "duplicate_node", "stray_character", "unclosed_brace", "self_loop")


def mutate_source(rng: random.Random, source: str, kind: str) -> str:
    """A copy of a model source that the language must reject.

    Each kind breaks a rule of the `.cg` language: a statement without its
    ``;``, an edge to an undeclared node, a node declared twice, a character
    outside the language, a model whose ``}`` is missing, a self-loop."""
    lines = source.splitlines()
    decl = [i for i, s in enumerate(lines) if s.strip().startswith(("node ", "obs node", "det node"))]
    edge = [i for i, s in enumerate(lines) if ("->" in s or "--" in s) and not s.strip().startswith("#")]
    if kind == "drop_semicolon":
        i = rng.choice(decl + edge)
        lines[i] = lines[i].replace(";", "", 1)
    elif kind == "unknown_endpoint":
        i = rng.choice(edge)
        left, arrow, _right = lines[i].partition("->") if "->" in lines[i] else lines[i].partition("--")
        lines[i] = f"{left}{arrow} undeclared_{rng.randrange(1000)};"
    elif kind == "duplicate_node":
        i = rng.choice(decl)
        lines.insert(i + 1, lines[i])
    elif kind == "stray_character":
        i = rng.choice(decl + edge)
        code = lines[i].split("#", 1)[0].rstrip()
        col = rng.randrange(len(code) - len(code.lstrip()), len(code))
        lines[i] = lines[i][:col] + rng.choice("@$%!?") + lines[i][col:]
    elif kind == "unclosed_brace":
        last = max(i for i, s in enumerate(lines) if s.strip() == "}")
        del lines[last]
    elif kind == "self_loop":
        i = rng.choice(decl)
        node = lines[i].split("node", 1)[1].split(";")[0].split("[")[0].strip()
        lines.insert(i + 1, f"    {node} -> {node};")
    else:
        raise ValueError(kind)
    return "\n".join(lines) + "\n"
