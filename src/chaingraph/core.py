"""Graph data model and primitive queries for chain graphs.

A chain graph mixes directed arcs and undirected edges, subject to one
structural law: no semi-directed cycle, i.e. no cycle that can be traversed
following arcs forward and undirected edges either way while using at least
one arc.  :class:`ChainGraph` stores the nodes and edges; it is immutable
after construction, and node declaration order fixes every canonical
ordering used downstream (partitions, clique listings, factor terms).
Inside, a node is its declaration position, its id: each node's parents,
children and neighbours are tuples of ids, and the cached
:class:`ComponentIndex` (the chain components, each node's component and
each component's parents) holds ids too.  Names are translated only at
the public methods, which take and return names.

:func:`validate_chain_graph` performs the semantic checks on ids and
reports violations with witness cycles rather than raising, so callers that
collect diagnostics (the model-language resolver, the CLI) can surface all
problems at once: each arc inside a component, then one cycle per strongly
connected part among the components that Kahn's order leaves out.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence


class GraphError(ValueError):
    """Structurally malformed graph or a reference to an unknown node."""


class StateSpaceError(RuntimeError):
    """The requested enumeration exceeds the brute-force guards.

    Defined here rather than in the numpy-backed oracle so that callers can
    catch it without importing numpy."""


class _NodeAttr(NamedTuple):
    deterministic: bool
    observed: bool
    domain_size: int


class NodeAttr(_NodeAttr):
    """Per-node attributes: deterministic flag, observedness, domain size."""

    __slots__ = ()

    def __new__(cls, deterministic: bool = False, observed: bool = False, domain_size: int = 2) -> "NodeAttr":
        if domain_size < 1:
            raise GraphError(f"domain_size must be a positive integer, got {domain_size}")
        return tuple.__new__(cls, (deterministic, observed, domain_size))

    @classmethod
    def _make(cls, fields: Iterable) -> "NodeAttr":
        # ``_replace`` builds through here, so it checks the domain too
        return cls(*fields)


# shared by every node declared by bare name
_DEFAULT_ATTR = NodeAttr()


def _unknown(name: str) -> GraphError:
    return GraphError(f"unknown node {name!r}")


class _Edge(NamedTuple):
    u: str
    v: str
    directed: bool


class Edge(_Edge):
    """A single arc (directed=True, u -> v) or undirected edge (u -- v).

    Undirected edges are normalised so that u <= v lexicographically, which
    makes Edge values comparable independent of construction order.
    """

    __slots__ = ()

    def __new__(cls, u: str, v: str, directed: bool) -> "Edge":
        if not directed and u > v:
            u, v = v, u
        return tuple.__new__(cls, (u, v, directed))

    @classmethod
    def _make(cls, fields: Iterable) -> "Edge":
        # ``_replace`` builds through here, so it normalises too
        return cls(*fields)


def directed(u: str, v: str) -> Edge:
    return Edge(u, v, True)


def undirected(u: str, v: str) -> Edge:
    return Edge(u, v, False)


class ChainGraph:
    """Immutable mixed graph over named nodes.

    ``nodes`` is a name -> :class:`NodeAttr` mapping (or a plain iterable of
    names, which get default attributes); its iteration order becomes the
    canonical node order.  At most one edge of any kind may join a pair of
    nodes, and self-loops are rejected outright.

    Inside, node i is the i-th declared node: ``_index`` maps a name to its
    id, and ``_pa[i]``, ``_ch[i]`` and ``_nb[i]`` hold the ids of node i's
    parents, children and neighbours as tuples.  Names appear only at the
    public methods, which take and return them.
    """

    def __init__(self, nodes: Mapping[str, NodeAttr] | Iterable[str], edges: Iterable[Edge] = ()):
        if isinstance(nodes, Mapping):
            items = list(nodes.items())
        else:
            items = [(name, _DEFAULT_ATTR) for name in nodes]
        index: dict[str, int] = {}
        attrs: list[NodeAttr] = []
        for name, attr in items:
            if not name:
                raise GraphError("empty node name")
            if name in index:
                raise GraphError(f"duplicate node {name!r}")
            if not isinstance(attr, NodeAttr):
                raise GraphError(f"node {name!r}: expected NodeAttr, got {type(attr).__name__}")
            index[name] = len(attrs)
            attrs.append(attr)
        self._names = names = tuple(index)
        self._attr = tuple(attrs)
        self._index = index

        n = len(names)
        self._edges = edges = list(edges)
        pa: list[list[int]] = [[] for _ in names]
        ch: list[list[int]] = [[] for _ in names]
        nb: list[list[int]] = [[] for _ in names]
        pairs: set[int] = set()  # u * n + v for each joined pair of ids u < v
        get = index.get
        for u, v, arc in edges:
            iu, iv = get(u), get(v)
            if iu is None or iv is None:
                raise GraphError(f"edge endpoint {u if iu is None else v!r} is not a declared node")
            if iu == iv:
                raise GraphError(f"self-loop on {u!r}")
            key = iu * n + iv if iu < iv else iv * n + iu
            if key in pairs:
                raise GraphError(f"more than one edge between {u!r} and {v!r}")
            pairs.add(key)
            if arc:
                pa[iv].append(iu)
                ch[iu].append(iv)
            else:
                nb[iu].append(iv)
                nb[iv].append(iu)
        self._pa = tuple(map(tuple, pa))
        self._ch = tuple(map(tuple, ch))
        self._nb = tuple(map(tuple, nb))

    # -- basic accessors ---------------------------------------------------

    @property
    def node_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def attr(self, name: str) -> NodeAttr:
        return self._attr[self.index(name)]

    def attrs(self) -> dict[str, NodeAttr]:
        return dict(zip(self._names, self._attr))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise _unknown(name) from None

    def sorted_nodes(self, names: Iterable[str]) -> tuple[str, ...]:
        """Sort names into canonical (declaration) order, validating each."""
        try:  # the sort key looks every name up, even for a single name
            return tuple(sorted(names, key=self._index.__getitem__))
        except KeyError as exc:
            raise _unknown(exc.args[0]) from None

    def _ids(self, names: Iterable[str]) -> list[int]:
        """The ids of ``names``, each checked."""
        return [self.index(n) for n in names]

    def _named(self, ids: Iterable[int]) -> frozenset[str]:
        return frozenset(map(self._names.__getitem__, ids))

    # -- local structure ---------------------------------------------------

    def parents(self, x: str) -> frozenset[str]:
        """Sources of arcs pointing into x."""
        return self._named(self._pa[self.index(x)])

    def children(self, x: str) -> frozenset[str]:
        """Targets of arcs leaving x."""
        return self._named(self._ch[self.index(x)])

    def neighbors(self, x: str) -> frozenset[str]:
        """Nodes joined to x by an undirected edge."""
        return self._named(self._nb[self.index(x)])

    # -- derived graphs ------------------------------------------------------

    def with_attrs(self, updates: Mapping[str, NodeAttr]) -> "ChainGraph":
        """Copy of the graph with some node attributes replaced."""
        self._ids(updates)
        nodes = {n: updates.get(n, a) for n, a in zip(self._names, self._attr)}
        return ChainGraph(nodes, self._edges)

    # -- component helpers ---------------------------------------------------

    @cached_property
    def component_index(self) -> "ComponentIndex":
        """The chain components, computed on first use and kept: the graph
        never changes, and a copy (`with_attrs`) is a new graph with
        its own index."""
        pa = self._pa
        comps = self._components(self._nb)
        component_of = [0] * len(pa)
        comp_parents = []
        inner_arcs = False
        for k, comp in enumerate(comps):
            if len(comp) == 1:  # no self-loops: a lone node's parents lie outside it
                component_of[comp[0]] = k
                comp_parents.append(pa[comp[0]])
                continue
            for i in comp:
                component_of[i] = k
            ps = {p for i in comp for p in pa[i]}
            outside = ps.difference(comp)
            inner_arcs = inner_arcs or len(outside) < len(ps)
            comp_parents.append(tuple(sorted(outside)))
        return ComponentIndex(comps, component_of, tuple(comp_parents), inner_arcs)

    def _components(self, adj: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
        """Connected components of the ids under the rows ``adj``, each in
        breadth first order from its first id, the components by first id."""
        seen = bytearray(len(adj))
        comps: list[tuple[int, ...]] = []
        for start, row in zip(self._index.values(), adj):  # the ids, as the ints the tuples share
            if seen[start]:
                continue
            seen[start] = 1
            if not row:
                comps.append((start,))
                continue
            comp = [start]
            for x in comp:  # breadth first: the list is its own queue
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = 1
                        comp.append(y)
            comps.append(tuple(comp))
        return tuple(comps)

    def undirected_path(self, src: str, dst: str) -> list[str]:
        """Some path from src to dst using undirected edges only."""
        start, goal = self.index(src), self.index(dst)
        prev: dict[int, int] = {start: -1}
        todo = deque([start])
        while todo:
            x = todo.popleft()
            if x == goal:
                path = [x]
                while prev[path[-1]] >= 0:
                    path.append(prev[path[-1]])
                return [self._names[i] for i in reversed(path)]
            for y in self._nb[x]:
                if y not in prev:
                    prev[y] = x
                    todo.append(y)
        raise GraphError(f"no undirected path from {src!r} to {dst!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChainGraph(nodes={len(self._names)}, edges={len(self._edges)})"


class ComponentIndex:
    """A graph's chain components (connected components under undirected
    edges), ordered by their first node id, each a tuple of node ids in
    breadth-first order from its first.  ``component_of[i]`` is the
    position of node i's component, and is not to be modified;
    ``parents[k]`` holds the ids of the parents of component k's members
    that lie outside it (a single node's own parent tuple, or ascending
    ids).  ``inner_arcs`` says whether some arc joins two members of one
    component, that is whether a member's parents meet its own component."""

    def __init__(
        self,
        components: tuple[tuple[int, ...], ...],
        component_of: list[int],
        parents: tuple[tuple[int, ...], ...],
        inner_arcs: bool,
    ) -> None:
        self.components = components
        self.component_of = component_of
        self.parents = parents
        self.inner_arcs = inner_arcs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComponentIndex):
            return NotImplemented
        return (self.components, self.component_of, self.parents, self.inner_arcs) == (
            other.components, other.component_of, other.parents, other.inner_arcs
        )

    def anterior(self, seed: Iterable[int]) -> bytearray:
        """Marks of the components in the anterior set of the node ids
        ``seed``: the components holding them and every component with a
        quotient path into one of those (``inside[k]`` is 1 for each)."""
        comp_of, parents = self.component_of, self.parents
        inside = bytearray(len(self.components))
        todo = []
        for i in seed:
            k = comp_of[i]
            if not inside[k]:
                inside[k] = 1
                todo.append(k)
        while todo:
            for p in parents[todo.pop()]:
                j = comp_of[p]
                if not inside[j]:
                    inside[j] = 1
                    todo.append(j)
        return inside

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Component positions in a topological order of the quotient, by
        Kahn's algorithm taking the ready component discovered first, so
        components keep declaration order wherever the arcs allow.  It is
        shorter than ``components`` exactly when the quotient has a cycle,
        and then lists only the components that no cycle reaches."""
        comp_of = self.component_of
        succ: list[list[int]] = [[] for _ in self.components]
        indeg = [len(ps) for ps in self.parents]  # one count per arc: Kahn's pass needs no merging
        for j, ps in enumerate(self.parents):
            for p in ps:
                succ[comp_of[p]].append(j)
        ready = [j for j, d in enumerate(indeg) if not d]  # ascending: already a heap
        emit: list[int] = []
        while ready:
            i = heapq.heappop(ready)
            emit.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    heapq.heappush(ready, j)
        return tuple(emit)


# -- validation ---------------------------------------------------------------


class Violation(NamedTuple):
    """One validation failure; `nodes` carries the witness cycle if any."""

    kind: str
    message: str
    nodes: tuple[str, ...] = ()
    edge: tuple[str, str] | None = None


class ValidationReport:
    def __init__(self, errors: list[Violation], warnings: list[str]) -> None:
        self.errors = errors
        self.warnings = warnings

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_chain_graph(g: ChainGraph) -> ValidationReport:
    """Check the chain-graph law and node-attribute sanity.

    A graph passes iff it has no semi-directed cycle: equivalently, no arc
    joins two nodes of a common chain component, and the quotient graph
    over the components is acyclic.  Each arc inside a component is one
    failure, in edge declaration order; then each strongly connected part
    of two or more components that Kahn's pass leaves out of
    :attr:`ComponentIndex.order` is one more.  Each comes with a witness: a
    closed semi-directed walk.  A deterministic node is a function of its
    parents, so it must have at least one parent and no undirected edge; a
    node both deterministic and observed is legal but warned about.
    """
    errors: list[Violation] = []
    warnings: list[str] = []

    index = g.component_index
    if index.inner_arcs:
        comp_of, ids = index.component_of, g._index
        for e in g._edges:
            if e.directed and comp_of[ids[e.u]] == comp_of[ids[e.v]]:
                errors.append(_cycle_violation(g, [(ids[e.u], ids[e.v])]))
    if len(index.order) < len(index.components):
        errors.extend(_cycle_violation(g, arcs) for arcs in _quotient_cycles(g))

    for n, a, ps, ns in zip(g._names, g._attr, g._pa, g._nb):
        if not a.deterministic:
            continue
        if not ps:
            msg = f"deterministic node {n!r} has no parents"
            errors.append(Violation("deterministic-without-parents", msg, (n,)))
        if ns:
            msg = f"deterministic node {n!r} has undirected edges"
            errors.append(Violation("deterministic-with-undirected-edges", msg, (n,)))
        if a.observed:
            warnings.append(f"node {n!r} is both deterministic and observed")

    return ValidationReport(errors, warnings)


def _quotient_cycles(g: ChainGraph) -> list[list[tuple[int, int]]]:
    """One cycle of arcs (tail id, head id) per strongly connected part of
    two or more components in the quotient.  Only the components that
    Kahn's pass leaves out can lie on a cycle, so Kosaraju runs over them
    alone: forward along arcs built from their ``parents``, then back along
    ``parents`` themselves.  In a part, a walk back from its first component
    along arcs from other members closes where a component repeats."""
    index = g.component_index
    comps, comp_of, comp_parents, pa = index.components, index.component_of, index.parents, g._pa
    done = set(index.order)
    succ: dict[int, list[int]] = {k: [] for k in range(len(comps)) if k not in done}  # the left-out components
    for k in succ:
        for p in comp_parents[k]:
            if comp_of[p] in succ:
                succ[comp_of[p]].append(k)

    finished: list[int] = []
    seen = bytearray(len(comps))
    for start in succ:
        if seen[start]:
            continue
        seen[start] = 1
        stack = [(start, iter(succ[start]))]
        while stack:
            j = next((j for j in stack[-1][1] if not seen[j]), None)
            if j is None:
                finished.append(stack.pop()[0])
            else:
                seen[j] = 1
                stack.append((j, iter(succ[j])))

    part_of = [-1] * len(comps)
    cycles: list[list[tuple[int, int]]] = []
    for start in reversed(finished):
        if part_of[start] >= 0:
            continue
        part_of[start] = start
        part = [start]
        for k in part:  # the list is its own queue
            for p in comp_parents[k]:
                j = comp_of[p]
                if j in succ and part_of[j] < 0:
                    part_of[j] = start
                    part.append(j)
        if len(part) < 2:
            continue
        k, walked, arcs = start, {}, []
        while k not in walked:
            walked[k] = len(arcs)
            tail, head = next(
                (p, x) for x in comps[k] for p in pa[x] if part_of[comp_of[p]] == start and comp_of[p] != k
            )
            arcs.append((tail, head))
            k = comp_of[tail]
        cycles.append(arcs[walked[k]:][::-1])
    return cycles


def _cycle_violation(g: ChainGraph, arcs: list[tuple[int, int]]) -> Violation:
    """The violation for a cycle of arcs (tail id, head id) in which each
    head shares a chain component with the next arc's tail (the last head
    with the first tail): each head joins the next tail by an undirected
    path, which makes the witness a closed semi-directed walk.  A single
    arc inside a component is the one-arc case."""
    names = g._names
    segments = [g.undirected_path(names[h], names[t]) for (_, h), (t, _) in zip(arcs, arcs[1:] + arcs[:1])]
    msg = f"semi-directed cycle: {' -> '.join(map(' -- '.join, segments))} -> {segments[0][0]}"
    tail, head = arcs[0]
    return Violation("semi-directed-cycle", msg, tuple(x for seg in segments for x in seg), (names[tail], names[head]))
