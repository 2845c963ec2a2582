"""Separation queries on chain graphs via moralization.

`implies_ci` answers "does the graph imply A independent of B given S?" by
separation in the moral graph of the anterior set of A, B and S: their
closure under parents and undirected neighbours.  Moralizing joins every
pair of nodes with children in a common chain component, then drops arc
directions.  No subgraph is built, and the walk runs on node ids: the
query's names are looked up once, and the anterior set is a union of whole
chain components, each holding its parents, so `ComponentIndex.anterior`
marks its components in a bytearray by their closure under the quotient
arcs.  The moral neighbours of a node x in it are read off the graph's id
tuples and its cached component index -- x's neighbours and parents, and
each child c of x in a marked component together with the parents of c's
component.  A walk from A that stops at S then either reaches B or not.
Each component's parent set is queued once per query, the first time the
walk expands one of its parents (the married parents act as one factor
vertex; Kschischang, Frey & Loeliger 2001), so the walk takes time linear
in the graph however many parents a component has.
For a purely directed graph the same procedure degenerates to classic
moralization of parents.  `moralize_chain` applies the same rule to every
node, one tuple of neighbour ids per node with no edge list in between,
and `moral_adjacency` to the marked components of an anterior set, which
`separated_pairs` reads.  An `UndirectedGraph` keeps names only at its
public methods: inside, node i holds the tuple of its neighbours' ids.

The module also hosts the one maximal-clique kernel, `clique_ids(masks,
roots)`, whose contract is "the maximal cliques that meet ``roots``":
Bron-Kerbosch with Tomita pivoting over int bitmasks, under an outer loop
that branches on each root in ascending id order.  Its callers number the
nodes 0..n-1 in node-position order and give each node the bitmask of its
neighbours, so a clique's ascending ids are its members in canonical
order, and the sorted id tuples are the canonical clique order.
`max_cliques` builds the masks from an `UndirectedGraph`'s adjacency and
passes every node as a root; a block of the master graph passes the masks
and the member bitmask that `decompose.block_masks` builds, so the
factorizer gets only the cliques that hold a member.  Every caller checks
the node bound before any mask is built; `CliqueBoundError` is a
`StateSpaceError`, so a refused search is a resource guard like the others.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import ChainGraph, GraphError, StateSpaceError


class QueryError(ValueError):
    """Malformed conditional-independence query."""


class CliqueBoundError(StateSpaceError):
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

    def text(self) -> str:
        out = f"{','.join(sorted(self.a))} _||_ {','.join(sorted(self.b))}"
        if self.s:
            out += f" | {','.join(sorted(self.s))}"
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

    return CiQuery(names(m.group("a")), names(m.group("b")), names(m.group("s")))


class UndirectedGraph:
    """Plain undirected graph with the node order of its source graph.

    Node i is the i-th node; ``_adj[i]`` is the tuple of its neighbours'
    ids.  Names appear only at the public methods."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self._nodes = tuple(nodes)
        self._index = index = {n: i for i, n in enumerate(self._nodes)}
        if len(index) != len(self._nodes):
            raise GraphError("duplicate node in undirected graph")
        adj: list[set[int]] = [set() for _ in self._nodes]
        for u, v in edges:
            if u not in index or v not in index:
                raise GraphError(f"unknown endpoint in edge ({u!r}, {v!r})")
            if u == v:
                continue
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
        self._adj = tuple(map(tuple, adj))

    @classmethod
    def _trusted(cls, nodes: tuple[str, ...], index: dict[str, int], adj: Sequence[tuple[int, ...]]) -> "UndirectedGraph":
        """The graph of a symmetric id adjacency over ``nodes``, taken as it
        is; ``index`` maps each node to its id."""
        ug = cls.__new__(cls)
        ug._nodes, ug._index, ug._adj = nodes, index, adj
        return ug

    @property
    def node_names(self) -> tuple[str, ...]:
        return self._nodes

    def index(self, name: str) -> int:
        if name not in self._index:
            raise GraphError(f"unknown node {name!r}")
        return self._index[name]

    def neighbors(self, x: str) -> frozenset[str]:
        return frozenset(map(self._nodes.__getitem__, self._adj[self.index(x)]))

    def edge_pairs(self) -> list[tuple[str, str]]:
        """Edges as (u, v) with u before v canonically, sorted."""
        pairs = sorted((i, j) for i, row in enumerate(self._adj) for j in row if i < j)
        name = self._nodes
        return [(name[i], name[j]) for i, j in pairs]

    def __len__(self) -> int:
        return len(self._nodes)


def _moral_rows(g: ChainGraph, ids: Iterable[int], inside: bytearray | None) -> Iterator[tuple[int, ...]]:
    """The moral neighbours of each node id of ``ids``, in a union of whole
    chain components holding their parents (the components marked in
    ``inside``, or the whole graph when it is None): the node's neighbours
    and parents, and each child c inside with the parents of c's component
    when c lies in another component.  The rule `implies_ci` walks."""
    index = g.component_index
    comp_of, comp_parents = index.component_of, index.parents
    pa, ch, nb = g._pa, g._ch, g._nb
    for x in ids:
        kids = ch[x] if inside is None else [c for c in ch[x] if inside[comp_of[c]]]
        if not kids:  # one edge at most joins two nodes: no repeats
            yield nb[x] + pa[x]
            continue
        row = {*nb[x], *pa[x], *kids}
        own = comp_of[x]
        for c in kids:
            k = comp_of[c]
            if k != own:
                row.update(comp_parents[k])
        row.discard(x)
        yield tuple(row)


def moral_adjacency(g: ChainGraph, inside: bytearray) -> dict[int, tuple[int, ...]]:
    """The moral graph of the chain components marked in ``inside`` (a
    union of whole components holding their parents, such as the anterior
    set that `ComponentIndex.anterior` marks), as a map from each node id
    in them to its moral neighbours' ids, read off ``g`` and its cached
    component index."""
    comps = g.component_index.components
    ids = [x for k, comp in enumerate(comps) if inside[k] for x in comp]
    return dict(zip(ids, _moral_rows(g, ids, inside)))


def moralize_chain(g: ChainGraph) -> UndirectedGraph:
    """Join every two nodes with children in a common chain component,
    then drop all arc directions.  Built straight from the graph's id
    tuples, one row per node; no edge list is made."""
    return UndirectedGraph._trusted(g.node_names, g._index, tuple(_moral_rows(g, g._index.values(), None)))


def max_cliques(ug: UndirectedGraph, node_bound: int = MAX_CLIQUE_NODES) -> list[frozenset[str]]:
    """All maximal cliques, sorted by their members' positions.

    The kernel `clique_ids` over masks built from the adjacency; it is
    exponential in the worst case, so graphs larger than ``node_bound``
    nodes are refused before any mask is built.
    """
    check_clique_bound(len(ug), node_bound)
    masks = []
    for i, row in enumerate(ug._adj):
        m = 0
        for j in row:
            m |= 1 << j
        masks.append(m & ~(1 << i))
    nodes = ug.node_names
    return [frozenset(map(nodes.__getitem__, c)) for c in clique_ids(masks, (1 << len(masks)) - 1)]


def check_clique_bound(n: int, node_bound: int = MAX_CLIQUE_NODES) -> None:
    """Refuse a clique search over ``n`` nodes when that is more than
    ``node_bound``; called before anything is built for the search."""
    if n > node_bound:
        raise CliqueBoundError(
            f"clique enumeration graph has {n} nodes, over the limit of {node_bound}"
        )


def clique_ids(masks: Sequence[int], roots: int) -> list[tuple[int, ...]]:
    """The maximal cliques that meet ``roots``, in the graph on local ids
    0..n-1 whose node i has neighbour bitmask ``masks[i]`` (symmetric, no
    self bits), each as its ids in ascending order, the cliques sorted.
    ``roots`` is a bitmask of ids; all n bits give every maximal clique.

    The outer loop branches on each root in ascending id order and then
    moves it to the excluded nodes, so a clique is found once, in the
    branch of its smallest root (the vertex-ordered outer loop of Eppstein,
    Loeffler and Strash, 2010).  Inside a branch, Bron-Kerbosch with Tomita
    pivoting: see `_expand`.  With ids numbered in node-position order,
    ascending ids are the canonical member order and the sorted list is the
    canonical clique order."""
    found: list[tuple[int, ...]] = []
    _expand(masks, found, (), (1 << len(masks)) - 1, 0, roots)
    found.sort()
    return found


def _expand(masks: Sequence[int], found: list, r: tuple[int, ...], p: int, x: int, branch: int) -> None:
    """Add to ``found`` every maximal clique made of the clique ``r``, a
    node of ``branch`` and other nodes of ``p``.  ``p`` holds the
    candidates (the untried nodes adjacent to all of ``r``), ``x`` the
    tried ones, and ``branch`` is part of ``p``.  Each node v of ``branch``
    is tried in ascending order and then moves from ``p`` to ``x``; below
    v, only the candidates not adjacent to the pivot are branched on, the
    pivot being the node of candidates or tried with the most candidate
    neighbours (Tomita pivoting)."""
    while branch:
        low = branch & -branch
        branch ^= low
        v = low.bit_length() - 1
        nv = masks[v]
        pv = p & nv
        if pv & (pv - 1):
            xv = x & nv
            best, pivot, rest = -1, 0, pv | xv
            while rest:
                bit = rest & -rest
                rest ^= bit
                u = bit.bit_length() - 1
                k = (pv & masks[u]).bit_count()
                if k > best:
                    best, pivot = k, u
            _expand(masks, found, r + (v,), pv, xv, pv & ~masks[pivot])
        elif pv:  # one candidate w left: r + v + w is maximal unless x extends it
            w = pv.bit_length() - 1
            if not x & nv & masks[w]:
                found.append(tuple(sorted(r + (v, w))))
        elif not x & nv:  # nothing left to add or to exclude: maximal
            found.append(tuple(sorted(r + (v,))))
        p ^= low
        x |= low


def implies_ci(g: ChainGraph, q: CiQuery) -> bool:
    """Does the graph imply A _||_ B | S for every distribution it admits?

    Sound for all distributions that factorize according to the graph
    (positivity needed on undirected components); not complete in general.

    Equal to separation in the moral graph of the subgraph on the anterior
    set, without building either graph: the query goes to ids once, the
    anterior set's components are marked by their closure under the
    quotient arcs, and the walk goes from A, stopping at S, over the moral
    graph of those components as read off ``g``'s id tuples and its
    component index.
    """
    a, b, s = g._ids(q.a), g._ids(q.b), g._ids(q.s)
    index = g.component_index
    inside = index.anterior(a + b + s)
    comp_of, comp_parents = index.component_of, index.parents
    pa, ch, nb = g._pa, g._ch, g._nb
    state = bytearray(len(comp_of))  # 1: seen or blocked, 2: a target
    for x in s:
        state[x] = 1
    for x in b:
        state[x] = 2
    for x in a:
        state[x] = 1
    todo = a
    while todo:
        x = todo.pop()
        own = comp_of[x]
        ys = [*nb[x], *pa[x]]
        for c in ch[x]:
            k = comp_of[c]
            if inside[k]:
                ys.append(c)
                if k != own and inside[k] == 1:
                    inside[k] = 2  # its parents are queued: once per query
                    ys += comp_parents[k]
        for y in ys:
            seen = state[y]
            if not seen:
                state[y] = 1
                todo.append(y)
            elif seen == 2:
                return False
    return True


def separated_pairs(members: Sequence[int], moral: Mapping[int, Sequence[int]]) -> list[tuple[int, int]]:
    """The pairs (a, b) of the node ids ``members`` (ascending), a before
    b, for which ``implies_ci(g, a _||_ b | members - {a, b})`` holds, all
    found in one pass.  ``moral`` is ``moral_adjacency`` of the anterior set
    of ``members``: every such query has that anterior set, so node sets
    with one anterior set can share it.

    A path from a to b that avoids the rest of ``members`` is the edge
    a - b or runs through An(members) - members alone: a and b are
    separated iff they are not moral neighbours and touch no common
    component of the moral graph on An(members) - members.
    """
    rest = moral.keys() - set(members)
    label: dict[int, int] = {}  # each node of the rest -> a root of its component
    for root in rest:
        if root in label:
            continue
        label[root] = root
        todo = [root]
        while todo:
            for y in moral[todo.pop()]:
                if y in rest and y not in label:
                    label[y] = root
                    todo.append(y)
    touched = {u: {label[y] for y in moral[u] if y in label} for u in members}
    return [
        (a, b)
        for i, a in enumerate(members)
        for b in members[i + 1 :]
        if b not in moral[a] and touched[a].isdisjoint(touched[b])
    ]
