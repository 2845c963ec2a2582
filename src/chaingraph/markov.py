"""Separation queries on chain graphs via moralization.

`implies_ci` answers "does the graph imply A independent of B given S?" by
separation in the moral graph of the anterior set of A, B and S: their
closure under parents and undirected neighbours.  Moralizing joins every
pair of nodes with children in a common chain component, then drops arc
directions.  No subgraph is built: the anterior set is a union of whole
chain components, each holding its parents, so the moral neighbours of a
node x in it are read off the graph and its cached component index --
x's neighbours and parents, and each child c of x in the set together
with the parents of c's component.  A walk from A that stops at S then
either reaches B or not.  For a purely directed graph the same procedure
degenerates to classic moralization of parents.  `moralize_chain` builds
the whole moral graph explicitly, and `separates` tests separation in it.

The module also hosts the maximal-clique enumeration used by the
factorizer, and the two conditional-model simplifications: deleting arcs
into fully-observed nodes, and deleting edges between observed nodes whose
common neighbors are all observed.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple

from .core import ChainGraph, Edge, GraphError


class QueryError(ValueError):
    """Malformed conditional-independence query."""


class CliqueBoundError(RuntimeError):
    """Clique enumeration refused: graph exceeds the node bound."""


MAX_CLIQUE_NODES = 64


class _CiQuery(NamedTuple):
    a: frozenset[str]
    b: frozenset[str]
    s: frozenset[str]


class CiQuery(_CiQuery):
    """A _||_ B | S with non-empty, pairwise disjoint A and B."""

    __slots__ = ()

    def __new__(cls, a: frozenset[str], b: frozenset[str], s: frozenset[str] = frozenset()) -> "CiQuery":
        if not a or not b:
            raise QueryError("both sides of an independence query must be non-empty")
        if a & b or a & s or b & s:
            raise QueryError("query sets must be pairwise disjoint")
        return tuple.__new__(cls, (a, b, s))

    @classmethod
    def _make(cls, fields: Iterable) -> "CiQuery":
        # ``_replace`` builds through here, so it checks too
        return cls(*fields)

    def text(self, order: Iterable[str] | None = None) -> str:
        def fmt(ns: frozenset[str]) -> str:
            if order is not None:
                idx = {n: i for i, n in enumerate(order)}
                return ",".join(sorted(ns, key=lambda n: idx.get(n, len(idx))))
            return ",".join(sorted(ns))

        out = f"{fmt(self.a)} _||_ {fmt(self.b)}"
        if self.s:
            out += f" | {fmt(self.s)}"
        return out


_QUERY_RE = re.compile(r"^(?P<a>[^|]+?)_\|\|_(?P<b>[^|]+?)(?:\|(?P<s>.*))?$")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_ci_query(text: str) -> CiQuery:
    """Parse ``A _||_ B | S`` with comma-separated node lists.

    Whitespace is insignificant; the ``| S`` part may be absent or empty.
    """
    compact = "".join(text.split())
    m = _QUERY_RE.match(compact)
    if not m:
        raise QueryError(f"cannot parse independence query: {text!r}")

    def names(part: str | None) -> frozenset[str]:
        if part is None or part == "":
            return frozenset()
        items = part.split(",")
        if any(not _NAME_RE.match(it) for it in items):
            raise QueryError(f"malformed node name in query: {text!r}")
        return frozenset(items)

    try:
        return CiQuery(names(m.group("a")), names(m.group("b")), names(m.group("s")))
    except QueryError:
        raise
    except ValueError as exc:  # pragma: no cover - defensive
        raise QueryError(str(exc)) from exc


class UndirectedGraph:
    """Plain undirected graph with the node order of its source graph."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self._nodes = tuple(nodes)
        self._index = {n: i for i, n in enumerate(self._nodes)}
        if len(self._index) != len(self._nodes):
            raise GraphError("duplicate node in undirected graph")
        adj: dict[str, set[str]] = {n: set() for n in self._nodes}
        for u, v in edges:
            if u not in adj or v not in adj:
                raise GraphError(f"unknown endpoint in edge ({u!r}, {v!r})")
            if u == v:
                continue
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj

    @property
    def node_names(self) -> tuple[str, ...]:
        return self._nodes

    def index(self, name: str) -> int:
        if name not in self._index:
            raise GraphError(f"unknown node {name!r}")
        return self._index[name]

    def neighbors(self, x: str) -> frozenset[str]:
        if x not in self._adj:
            raise GraphError(f"unknown node {x!r}")
        return frozenset(self._adj[x])

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.neighbors(u)

    def edge_pairs(self) -> list[tuple[str, str]]:
        """Edges as (u, v) with u before v canonically, sorted."""
        out = []
        for u in self._nodes:
            for v in self._adj[u]:
                if self._index[u] < self._index[v]:
                    out.append((u, v))
        out.sort(key=lambda p: (self._index[p[0]], self._index[p[1]]))
        return out

    def sorted_nodes(self, names: Iterable[str]) -> tuple[str, ...]:
        names = list(names)
        for n in names:
            self.index(n)
        return tuple(sorted(names, key=self._index.__getitem__))

    def __len__(self) -> int:
        return len(self._nodes)


def moralize_chain(g: ChainGraph) -> UndirectedGraph:
    """Join every two nodes with children in a common chain component,
    then drop all arc directions."""
    edges = [(e.u, e.v) for e in g.edges]
    for ps in g.component_index.parents:
        edges.extend(combinations(ps, 2))
    return UndirectedGraph(g.node_names, edges)


def max_cliques(ug: UndirectedGraph, node_bound: int = MAX_CLIQUE_NODES) -> list[frozenset[str]]:
    """All maximal cliques, canonically ordered.

    Bron-Kerbosch with pivoting; exponential in the worst case, so graphs
    larger than ``node_bound`` nodes are refused.
    """
    return maximal_cliques(ug._adj, ug._index.__getitem__, node_bound)


def maximal_cliques(
    adj: Mapping[str, AbstractSet[str]],
    position: Callable[[str], int],
    node_bound: int = MAX_CLIQUE_NODES,
) -> list[frozenset[str]]:
    """The maximal cliques of the graph given by a symmetric adjacency map,
    sorted by their members' positions.  :func:`max_cliques` is this over
    an :class:`UndirectedGraph`; ``ConditionalSubgraph.cliques`` passes a
    block's parent-extended adjacency directly."""
    if len(adj) > node_bound:
        raise CliqueBoundError(
            f"clique enumeration graph has {len(adj)} nodes, over the limit of {node_bound}"
        )
    out: list[frozenset[str]] = []

    def expand(r: list[str], p: set[str], x: set[str]) -> None:
        # r: the clique so far; p: its candidates; x: those already tried
        if not p:
            if not x:
                out.append(frozenset(r))
            return
        best = -1
        for u in (*p, *x):  # the pivot keeps most candidates out of the loop
            k = len(adj[u] & p)
            if k > best:
                best, pivot = k, u
        for v in p - adj[pivot]:
            nv = adj[v]
            r.append(v)
            expand(r, p & nv, x & nv)
            r.pop()
            p.remove(v)
            x.add(v)

    if adj:
        expand([], set(adj), set())
    out.sort(key=lambda c: sorted(map(position, c)))
    return out


def separates(ug: UndirectedGraph, q: CiQuery) -> bool:
    """True iff every path from A to B passes through S."""
    for n in q.a | q.b | q.s:
        ug.index(n)
    blocked = set(q.s)
    seen = set(q.a)
    todo = list(q.a)
    while todo:
        x = todo.pop()
        for y in ug.neighbors(x):
            if y in blocked or y in seen:
                continue
            if y in q.b:
                return False
            seen.add(y)
            todo.append(y)
    return True


def implies_ci(g: ChainGraph, q: CiQuery) -> bool:
    """Does the graph imply A _||_ B | S for every distribution it admits?

    Sound for all distributions that factorize according to the graph
    (positivity needed on undirected components); not complete in general.

    Equal to ``separates(moralize_chain(g.induced(anterior)), q)``, without
    building either graph: the walk goes from A, stopping at S, over the
    moral graph of the anterior set as read off ``g`` itself (its adjacency
    sets are read, not copied).
    """
    anterior = g.ancestors_chain(q.a | q.b | q.s)
    index = g.component_index
    comp_of, comp_parents = index.component_of, index.parents
    parents, children, neighbors = g._parents, g._children, g._neighbors
    blocked, targets = q.s, q.b
    seen = set(q.a)
    todo = list(q.a)
    while todo:
        x = todo.pop()
        own = comp_of[x]
        moral = [neighbors[x], parents[x]]
        for c in children[x]:
            if c in anterior:
                moral.append((c,))
                if comp_of[c] != own:
                    moral.append(comp_parents[comp_of[c]])
        for ys in moral:
            for y in ys:
                if y in blocked or y in seen:
                    continue
                if y in targets:
                    return False
                seen.add(y)
                todo.append(y)
    return True


def simplify_conditional_directed(g: ChainGraph) -> ChainGraph:
    """Delete arcs into every observed node whose parents are all observed.

    Applies to directed conditional models; repeated until nothing changes.
    The conditional of hidden given observed is preserved.
    """
    if not g.is_directed:
        raise GraphError("simplify_conditional_directed requires a purely directed graph")
    edges = list(g.edges)
    while True:
        drop: set[Edge] = set()
        incoming: dict[str, list[Edge]] = {}
        for e in edges:
            incoming.setdefault(e.v, []).append(e)
        for x in g.node_names:
            if not g.attr(x).observed:
                continue
            parents = {e.u for e in incoming.get(x, ())}
            if parents and all(g.attr(p).observed for p in parents):
                drop.update(incoming[x])
        if not drop:
            break
        edges = [e for e in edges if e not in drop]
    return ChainGraph(g.attrs(), edges)


def simplify_conditional_undirected(g: ChainGraph) -> ChainGraph:
    """Delete each edge between observed nodes whose common neighbors are
    all observed.

    Eligibility is judged against the original adjacency, and all deletions
    happen in one simultaneous pass.
    """
    if not g.is_undirected:
        raise GraphError("simplify_conditional_undirected requires a purely undirected graph")
    drop: set[Edge] = set()
    for e in g.edges:
        if not (g.attr(e.u).observed and g.attr(e.v).observed):
            continue
        common = g.neighbors(e.u) & g.neighbors(e.v)
        if all(g.attr(w).observed for w in common):
            drop.add(e)
    return ChainGraph(g.attrs(), [e for e in g.edges if e not in drop])
