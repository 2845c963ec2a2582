"""Graph data model and primitive queries for chain graphs.

A chain graph mixes directed arcs and undirected edges, subject to one
structural law: no semi-directed cycle, i.e. no cycle that can be traversed
following arcs forward and undirected edges either way while using at least
one arc.  :class:`ChainGraph` stores the nodes and edges; it is immutable
after construction, and node declaration order fixes every canonical
ordering used downstream (partitions, clique listings, factor terms).

:func:`validate_chain_graph` performs the semantic checks and reports
violations with witness cycles rather than raising, so callers that collect
diagnostics (the model-language resolver, the CLI) can surface all problems
at once.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple


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
    """

    def __init__(self, nodes: Mapping[str, NodeAttr] | Iterable[str], edges: Iterable[Edge] = ()):
        if isinstance(nodes, Mapping):
            items = list(nodes.items())
        else:
            items = [(name, _DEFAULT_ATTR) for name in nodes]
        self._attrs: dict[str, NodeAttr] = {}
        for name, attr in items:
            if not name:
                raise GraphError("empty node name")
            if name in self._attrs:
                raise GraphError(f"duplicate node {name!r}")
            if not isinstance(attr, NodeAttr):
                raise GraphError(f"node {name!r}: expected NodeAttr, got {type(attr).__name__}")
            self._attrs[name] = attr
        self._index = {name: i for i, name in enumerate(self._attrs)}

        self._edges: list[Edge] = []
        parents: dict[str, set[str]] = {n: set() for n in self._attrs}
        children: dict[str, set[str]] = {n: set() for n in self._attrs}
        neighbors: dict[str, set[str]] = {n: set() for n in self._attrs}
        for e in edges:
            u, v = e.u, e.v
            if u not in self._attrs or v not in self._attrs:
                missing = u if u not in self._attrs else v
                raise GraphError(f"edge endpoint {missing!r} is not a declared node")
            if u == v:
                raise GraphError(f"self-loop on {u!r}")
            if v in parents[u] or v in children[u] or v in neighbors[u]:
                raise GraphError(f"more than one edge between {u!r} and {v!r}")
            self._edges.append(e)
            if e.directed:
                parents[v].add(u)
                children[u].add(v)
            else:
                neighbors[u].add(v)
                neighbors[v].add(u)
        self._parents = parents
        self._children = children
        self._neighbors = neighbors

    # -- basic accessors ---------------------------------------------------

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(self._attrs)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges)

    def __len__(self) -> int:
        return len(self._attrs)

    def __contains__(self, name: str) -> bool:
        return name in self._attrs

    def attr(self, name: str) -> NodeAttr:
        try:
            return self._attrs[name]
        except KeyError:
            raise _unknown(name) from None

    def attrs(self) -> dict[str, NodeAttr]:
        return dict(self._attrs)

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

    @property
    def is_directed(self) -> bool:
        """True when the graph contains no undirected edge."""
        return all(e.directed for e in self._edges)

    @property
    def is_undirected(self) -> bool:
        """True when the graph contains no directed arc."""
        return not any(e.directed for e in self._edges)

    def has_edge(self, u: str, v: str) -> bool:
        """Adjacency of any kind between u and v."""
        self._check(u)
        self._check(v)
        return v in self._neighbors[u] or v in self._children[u] or v in self._parents[u]

    def deterministic_nodes(self) -> tuple[str, ...]:
        return tuple(n for n, a in self._attrs.items() if a.deterministic)

    def observed_nodes(self) -> tuple[str, ...]:
        return tuple(n for n, a in self._attrs.items() if a.observed)

    # -- local structure ---------------------------------------------------

    def parents(self, x: str) -> frozenset[str]:
        """Sources of arcs pointing into x."""
        try:
            return frozenset(self._parents[x])
        except KeyError:
            raise _unknown(x) from None

    def children(self, x: str) -> frozenset[str]:
        """Targets of arcs leaving x."""
        try:
            return frozenset(self._children[x])
        except KeyError:
            raise _unknown(x) from None

    def neighbors(self, x: str) -> frozenset[str]:
        """Nodes joined to x by an undirected edge."""
        try:
            return frozenset(self._neighbors[x])
        except KeyError:
            raise _unknown(x) from None

    def parents_of_set(self, a: Iterable[str]) -> frozenset[str]:
        """Union of the members' parents, minus the set itself."""
        a = set(a)
        for n in a:
            self._check(n)
        out: set[str] = set()
        for n in a:
            out |= self._parents[n]
        return frozenset(out - a)

    # -- closures ------------------------------------------------------------

    def ancestors_chain(self, seed: Iterable[str]) -> frozenset[str]:
        """Least set containing the seed and closed under parents and neighbors
        (the anterior set).  It is a union of whole chain components, and it
        holds the parents of each of them."""
        todo: list[str] = []
        out: set[str] = set()
        for n in seed:
            self._check(n)
            if n not in out:
                out.add(n)
                todo.append(n)
        parents, neighbors = self._parents, self._neighbors
        while todo:
            x = todo.pop()
            for frontier in (parents[x], neighbors[x]):
                for y in frontier:
                    if y not in out:
                        out.add(y)
                        todo.append(y)
        return frozenset(out)

    def non_deterministic_children(self, x: str) -> frozenset[str]:
        """Stochastic nodes reachable from x by arcs through deterministic
        intermediates only (direct stochastic children included)."""
        self._check(x)
        out: set[str] = set()
        seen_dets: set[str] = set()
        todo = deque([x])
        while todo:
            cur = todo.popleft()
            for ch in self._children[cur]:
                if self._attrs[ch].deterministic:
                    if ch not in seen_dets:
                        seen_dets.add(ch)
                        todo.append(ch)
                else:
                    out.add(ch)
        return frozenset(out)

    # -- derived graphs ------------------------------------------------------

    def induced(self, subset: Iterable[str]) -> "ChainGraph":
        """Subgraph on the given nodes, keeping declaration order and attrs."""
        keep = set(subset)
        for n in keep:
            self._check(n)
        nodes = {n: a for n, a in self._attrs.items() if n in keep}
        edges = [e for e in self._edges if e.u in keep and e.v in keep]
        return ChainGraph(nodes, edges)

    def with_attrs(self, updates: Mapping[str, NodeAttr]) -> "ChainGraph":
        """Copy of the graph with some node attributes replaced."""
        for n in updates:
            self._check(n)
        nodes = {n: updates.get(n, a) for n, a in self._attrs.items()}
        return ChainGraph(nodes, self._edges)

    def observe(self, names: Iterable[str]) -> "ChainGraph":
        """Copy with the given nodes marked observed."""
        ups = {n: self.attr(n)._replace(observed=True) for n in names}
        return self.with_attrs(ups)

    # -- component helpers ---------------------------------------------------

    @cached_property
    def component_index(self) -> "ComponentIndex":
        """The chain components, computed on first use and kept: the graph
        never changes, and every copy (`induced`, `with_attrs`, `observe`)
        is a new graph with its own index."""
        comps = tuple(tuple(c) for c in self._components(self._neighbors.__getitem__))
        component_of = {n: k for k, comp in enumerate(comps) for n in comp}
        parents = self._parents
        comp_parents = tuple(
            frozenset(set().union(*(parents[n] for n in comp)).difference(comp)) for comp in comps
        )
        return ComponentIndex(comps, component_of, comp_parents)

    def undirected_components(self) -> list[list[str]]:
        """Connected components under undirected edges only (arcs ignored).

        Components are discovered in declaration order; singletons included.
        """
        return [list(c) for c in self.component_index.components]

    def weak_components(self) -> list[list[str]]:
        """Connected components treating every edge as undirected."""
        return self._components(
            lambda n: self._neighbors[n] | self._parents[n] | self._children[n]
        )

    def _components(self, adj) -> list[list[str]]:
        seen: set[str] = set()
        comps: list[list[str]] = []
        for start in self._attrs:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            todo = deque([start])
            while todo:
                x = todo.popleft()
                for y in adj(x):
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        todo.append(y)
            comps.append(comp)
        return comps

    def undirected_path(self, src: str, dst: str) -> list[str]:
        """Some path from src to dst using undirected edges only."""
        self._check(src)
        self._check(dst)
        prev: dict[str, str | None] = {src: None}
        todo = deque([src])
        while todo:
            x = todo.popleft()
            if x == dst:
                path = [x]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])  # type: ignore[arg-type]
                path.reverse()
                return path
            for y in self._neighbors[x]:
                if y not in prev:
                    prev[y] = x
                    todo.append(y)
        raise GraphError(f"no undirected path from {src!r} to {dst!r}")

    def _check(self, name: str) -> None:
        if name not in self._attrs:
            raise _unknown(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChainGraph(nodes={len(self._attrs)}, edges={len(self._edges)})"


class ComponentIndex:
    """A graph's chain components (connected components under undirected
    edges), in discovery order as :meth:`ChainGraph.undirected_components`
    lists them.  ``component_of`` maps each node to its component's
    position and is not to be modified; ``parents[i]`` is the union of the
    parents of component i's members, minus the component itself."""

    def __init__(
        self,
        components: tuple[tuple[str, ...], ...],
        component_of: dict[str, int],
        parents: tuple[frozenset[str], ...],
    ) -> None:
        self.components = components
        self.component_of = component_of
        self.parents = parents

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComponentIndex):
            return NotImplemented
        return (self.components, self.component_of, self.parents) == (
            other.components, other.component_of, other.parents
        )

    @cached_property
    def sources(self) -> tuple[frozenset[int], ...]:
        """``sources[j]``: the components holding component j's parents,
        that is the tails of the quotient arcs into j."""
        comp_of = self.component_of
        return tuple(frozenset(comp_of[p] for p in ps) for ps in self.parents)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Component positions in a topological order of the quotient, by
        Kahn's algorithm taking the ready component discovered first, so
        components keep declaration order wherever the arcs allow.  It is
        shorter than ``components`` exactly when the quotient has a cycle,
        and then lists only the components that no cycle reaches."""
        succ: list[list[int]] = [[] for _ in self.components]
        indeg = [len(src) for src in self.sources]
        for j, src in enumerate(self.sources):
            for i in src:
                succ[i].append(j)
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
    joins two nodes of a common undirected component, and the quotient graph
    over undirected components is acyclic.  Each failure is reported with a
    reconstructed witness cycle.  Deterministic nodes must have at least one
    parent; a node both deterministic and observed is legal but warned about.
    """
    errors: list[Violation] = []
    warnings: list[str] = []

    index = g.component_index
    comps, comp_of = index.components, index.component_of

    # the witness quotient is built only when Kahn's pass finds a cycle
    quotient: dict[int, dict[int, tuple[str, str]]] = {}
    if len(index.order) < len(comps):
        quotient = {i: {} for i in range(len(comps))}
    for e in g.edges:
        if not e.directed:
            continue
        cu, cv = comp_of[e.u], comp_of[e.v]
        if cu == cv:
            back = g.undirected_path(e.v, e.u)
            cycle = (e.u, *back[:-1])
            msg = "semi-directed cycle: " + f"{e.u} -> " + " -- ".join(back)
            errors.append(Violation("semi-directed-cycle", msg, nodes=cycle, edge=(e.u, e.v)))
        elif quotient:
            quotient[cu].setdefault(cv, (e.u, e.v))

    for scc in _cyclic_sccs(quotient):
        comp_cycle = _cycle_within(quotient, scc)
        nodes, msg = _node_level_witness(g, quotient, comp_cycle)
        first_edge = quotient[comp_cycle[0]][comp_cycle[1]]
        errors.append(Violation("semi-directed-cycle", msg, nodes=nodes, edge=first_edge))

    for n, a in g._attrs.items():
        if a.deterministic and not g._parents[n]:
            errors.append(
                Violation(
                    "deterministic-without-parents",
                    f"deterministic node {n!r} has no parents",
                    nodes=(n,),
                )
            )
        if a.deterministic and a.observed:
            warnings.append(f"node {n!r} is both deterministic and observed")

    return ValidationReport(errors, warnings)


def _cyclic_sccs(quotient: dict[int, dict[int, tuple[str, str]]]) -> list[list[int]]:
    """Strongly connected components of the quotient with more than one member.

    Kosaraju with iterative DFS; the quotient has no self-loops, so any
    multi-member SCC certifies a cycle.
    """
    order: list[int] = []
    seen: set[int] = set()
    for start in quotient:
        if start in seen:
            continue
        stack: list[tuple[int, Iterable[int]]] = [(start, iter(quotient[start]))]
        seen.add(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(quotient[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    reverse: dict[int, list[int]] = {i: [] for i in quotient}
    for u, targets in quotient.items():
        for v in targets:
            reverse[v].append(u)

    assigned: set[int] = set()
    sccs: list[list[int]] = []
    for start in reversed(order):
        if start in assigned:
            continue
        comp = [start]
        assigned.add(start)
        todo = deque([start])
        while todo:
            x = todo.popleft()
            for y in reverse[x]:
                if y not in assigned:
                    assigned.add(y)
                    comp.append(y)
                    todo.append(y)
        if len(comp) > 1:
            sccs.append(sorted(comp))
    return sccs


def _cycle_within(quotient: dict[int, dict[int, tuple[str, str]]], scc: list[int]) -> list[int]:
    """A directed cycle through quotient nodes restricted to one SCC."""
    members = set(scc)
    start = scc[0]
    prev: dict[int, int] = {}
    todo = deque([start])
    visited = {start}
    while todo:
        x = todo.popleft()
        for y in quotient[x]:
            if y == start:
                cycle = [x]
                while cycle[-1] != start:
                    cycle.append(prev[cycle[-1]])
                cycle.reverse()
                return cycle
            if y in members and y not in visited:
                visited.add(y)
                prev[y] = x
                todo.append(y)
    raise AssertionError("SCC without a cycle")  # pragma: no cover


def _node_level_witness(
    g: ChainGraph,
    quotient: dict[int, dict[int, tuple[str, str]]],
    comp_cycle: list[int],
) -> tuple[tuple[str, ...], str]:
    """Expand a component-level cycle into node names and a display string."""
    k = len(comp_cycle)
    hops = [quotient[comp_cycle[i]][comp_cycle[(i + 1) % k]] for i in range(k)]
    segments: list[list[str]] = []
    for i in range(k):
        comp_idx = comp_cycle[(i + 1) % k]
        entry = hops[i][1]
        exit_ = hops[(i + 1) % k][0]
        seg = g.undirected_path(entry, exit_)
        segments.append(seg)
    nodes: list[str] = []
    for seg in segments:
        nodes.extend(seg)
    seg_strs = [" -- ".join(seg) for seg in segments]
    msg = "semi-directed cycle: " + " -> ".join(seg_strs) + f" -> {segments[0][0]}"
    return tuple(nodes), msg
