"""Decomposition of a chain graph into components and a master graph.

Three nested structures are computed here:

* chain components -- connected components once every arc is deleted;
* component subgraphs -- the coarsening that merges singleton chain
  components connected (in either arc direction) through other singletons,
  so each block induces a purely directed or purely undirected subgraph;
* the master graph -- the quotient DAG over component subgraphs, whose
  topological order fixes the emission order of the factorization.

Each component subgraph is also packaged as a conditional subgraph: the
block together with its parents, parents marked observed and completed into
a clique (directed completion for directed blocks, undirected otherwise).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .core import ChainGraph, Edge, GraphError, NodeAttr


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering a graph's nodes, in canonical order."""

    blocks: tuple[frozenset[str], ...]

    @classmethod
    def from_blocks(cls, g: ChainGraph, blocks: Iterable[Iterable[str]]) -> "Partition":
        frozen = [frozenset(b) for b in blocks]
        seen: set[str] = set()
        for b in frozen:
            if not b:
                raise GraphError("empty partition block")
            if b & seen:
                raise GraphError("overlapping partition blocks")
            seen |= b
        if seen != set(g.node_names):
            raise GraphError("partition does not cover the node set")
        frozen.sort(key=lambda b: min(g.index(n) for n in b))
        return cls(tuple(frozen))

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def chain_components(g: ChainGraph) -> Partition:
    """Connected components after deleting every directed arc.

    Read off the graph's cached :attr:`ChainGraph.component_index`, whose
    discovery order is already the canonical block order."""
    return Partition(tuple(frozenset(c) for c in g.component_index.components))


def component_subgraphs(g: ChainGraph) -> Partition:
    """Coarsen chain components by merging arc-connected singletons.

    Singleton chain components that reach each other through directed arcs
    (direction ignored for connectivity) collapse into one directed block;
    multi-node chain components pass through unchanged.
    """
    comps = chain_components(g)
    singles = {next(iter(b)) for b in comps if len(b) == 1}
    merged = g.induced(singles).weak_components()
    blocks = [b for b in comps if len(b) > 1] + [frozenset(c) for c in merged]
    return Partition.from_blocks(g, blocks)


@dataclass(frozen=True)
class ConditionalSubgraph:
    """One component subgraph extended with its (observed) parents.

    ``graph`` holds the completed form: all parents marked observed and made
    pairwise adjacent.  For an undirected block every edge direction is
    dropped; for a directed block the original arcs are kept and completion
    arcs run from lower to higher canonical index.  ``completion_edges``
    records exactly the edges the completion added, so the uncompleted
    parent-extended graph is recoverable (clique listings and potentials are
    read off the uncompleted form).
    """

    graph: ChainGraph
    own_nodes: frozenset[str]
    parent_nodes: frozenset[str]
    flavor: str  # "directed" | "undirected"
    completion_edges: tuple[Edge, ...] = ()

    def uncompleted(self) -> ChainGraph:
        added = set(self.completion_edges)
        return ChainGraph(self.graph.attrs(), [e for e in self.graph.edges if e not in added])


@dataclass(frozen=True)
class MasterGraph:
    """Conditional subgraphs in topological order plus the quotient arcs."""

    subgraphs: tuple[ConditionalSubgraph, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def blocks(self) -> tuple[frozenset[str], ...]:
        return tuple(s.own_nodes for s in self.subgraphs)


def master_graph(g: ChainGraph) -> MasterGraph:
    """Quotient the graph over its component subgraphs.

    An arc runs from block U to block V when some member of U has a child in
    V.  For a valid chain graph over chain components this quotient is a DAG;
    merging singletons can, in corner cases, produce arcs both ways between
    two blocks, which is reported as an error because no emission order then
    exists.
    """
    part = component_subgraphs(g)
    blocks = list(part.blocks)
    block_idx: dict[str, int] = {}
    for i, b in enumerate(blocks):
        for n in b:
            block_idx[n] = i

    succ: dict[int, set[int]] = {i: set() for i in range(len(blocks))}
    for e in g.edges:
        if not e.directed:
            continue
        bu, bv = block_idx[e.u], block_idx[e.v]
        if bu != bv:
            succ[bu].add(bv)

    indeg = {i: 0 for i in range(len(blocks))}
    for i, targets in succ.items():
        for j in targets:
            indeg[j] += 1
    ready = [i for i in range(len(blocks)) if indeg[i] == 0]
    heapq.heapify(ready)
    emit: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        emit.append(i)
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(emit) != len(blocks):
        stuck = [blocks[i] for i in range(len(blocks)) if i not in set(emit)]
        names = "; ".join("{" + " ".join(g.sorted_nodes(b)) + "}" for b in stuck)
        raise GraphError(
            "component subgraphs admit no topological order "
            f"(arcs run both ways between merged blocks): {names}"
        )

    position = {old: new for new, old in enumerate(emit)}
    subs = tuple(_conditional_subgraph(g, blocks[i]) for i in emit)
    edges = tuple(
        sorted((position[i], position[j]) for i, targets in succ.items() for j in targets)
    )
    return MasterGraph(subs, edges)


def conditional_subgraphs(g: ChainGraph) -> list[ConditionalSubgraph]:
    """The component subgraphs with parents attached, in emission order."""
    return list(master_graph(g).subgraphs)


def _conditional_subgraph(g: ChainGraph, block: frozenset[str]) -> ConditionalSubgraph:
    parents = g.parents_of_set(block)
    sub = g.induced(block | parents)
    has_undirected = any(not e.directed and e.u in block for e in sub.edges)
    flavor = "undirected" if has_undirected else "directed"

    attrs = {
        n: (NodeAttr(a.deterministic, True, a.domain_size) if n in parents else a)
        for n, a in sub.attrs().items()
    }

    if flavor == "undirected":
        base = [Edge(e.u, e.v, False) for e in sub.edges]
    else:
        base = list(sub.edges)

    present = {e.pair for e in base}
    added: list[Edge] = []
    ordered_parents = g.sorted_nodes(parents)
    for i, u in enumerate(ordered_parents):
        for v in ordered_parents[i + 1 :]:
            if frozenset((u, v)) not in present:
                added.append(Edge(u, v, flavor == "directed"))
                present.add(frozenset((u, v)))

    completed = ChainGraph(attrs, base + added)
    return ConditionalSubgraph(
        graph=completed,
        own_nodes=block,
        parent_nodes=parents,
        flavor=flavor,
        completion_edges=tuple(added),
    )
