"""Decomposition of a chain graph into components and a master graph.

Three structures are computed here:

* chain components -- connected components once every arc is deleted;
* the master graph -- the quotient DAG over chain components, whose
  topological order fixes the emission order of the factorization.  A
  chain graph factorizes as the product over its chain components of
  p(x_comp | x_parents(comp)), so each component is one block;
* component subgraphs -- the coarsening that merges singleton chain
  components connected (in either arc direction) through other singletons.
  It is kept only as the listing of the ``subgraphs`` command; nothing
  downstream reads it.

Each block of the master graph is packaged as a conditional subgraph: the
chain component together with its parents, the parents marked observed.
No completion edges are added: two parents are adjacent only when the graph
joins them.
Its clique structure is read off the parent-extended adjacency, built from
the graph's cached component index in time proportional to the block and
its parents; no graph is built per block unless one is asked for.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .core import ChainGraph, Edge, GraphError
from .markov import maximal_cliques


class Partition:
    """Disjoint blocks covering a graph's nodes, in canonical order."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[frozenset[str], ...]) -> None:
        self.blocks = blocks

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


class ConditionalSubgraph:
    """One chain component of ``source`` extended with its parents.

    ``flavor`` is ``"undirected"`` for a component of two or more nodes and
    ``"directed"`` for a single node.  ``parent_nodes`` is the component's
    cached parent set.
    """

    def __init__(
        self, own_nodes: frozenset[str], parent_nodes: frozenset[str], flavor: str, source: ChainGraph
    ) -> None:
        self.own_nodes = own_nodes
        self.parent_nodes = parent_nodes
        self.flavor = flavor  # "directed" | "undirected"
        self.source = source

    @cached_property
    def graph(self) -> ChainGraph:
        """The parent-extended graph: the block, its parents (marked
        observed) and every edge among them, with arc directions dropped
        for an undirected block.  Built on first use."""
        g, parents = self.source, self.parent_nodes
        nodes = g.sorted_nodes(self.own_nodes | parents)
        keep = frozenset(nodes)
        arcs = self.flavor == "directed"
        attrs = {n: g.attr(n)._replace(observed=True) if n in parents else g.attr(n) for n in nodes}
        edges = []
        for v in nodes:  # from the head's side, as in adjacency()
            edges.extend(Edge(u, v, arcs) for u in g._parents[v] & keep)
            edges.extend(Edge(u, v, False) for u in g._neighbors[v] & keep if u < v)
        return ChainGraph(attrs, edges)

    def uncompleted(self) -> ChainGraph:
        """The parent-extended graph, as :attr:`graph`."""
        return self.graph

    def adjacency(self) -> dict[str, set[str]]:
        """The parent-extended graph with directions dropped, as an
        adjacency map over members and parents.  A member is adjacent to
        its parents and neighbours; a parent to the members it points into
        and to the other parents it shares an edge with.  Edges are found
        from the head's side (a node's parents and neighbours), so a hub
        parent's children outside the block are never looked at.  The
        graph's own adjacency sets are read, not copied."""
        g, parents = self.source, self.parent_nodes
        g_parents, g_neighbors = g._parents, g._neighbors
        adj: dict[str, set[str]] = {p: set() for p in parents}
        for x in self.own_nodes:
            adj[x] = set(g_neighbors[x])
        for x in self.own_nodes:
            for p in g_parents[x]:
                adj[x].add(p)
                adj[p].add(x)
        for p in parents:
            for q in (g_parents[p] | g_neighbors[p]) & parents:
                adj[p].add(q)
                adj[q].add(p)
        return adj

    def cliques(self) -> list[frozenset[str]]:
        """Maximal cliques of the parent-extended graph, canonically ordered."""
        return maximal_cliques(self.adjacency(), self.source.index)


class MasterGraph:
    """Conditional subgraphs in topological order plus the quotient arcs."""

    __slots__ = ("subgraphs", "edges")

    def __init__(self, subgraphs: tuple[ConditionalSubgraph, ...], edges: tuple[tuple[int, int], ...]) -> None:
        self.subgraphs = subgraphs
        self.edges = edges

    @property
    def blocks(self) -> tuple[frozenset[str], ...]:
        return tuple(s.own_nodes for s in self.subgraphs)


def master_graph(g: ChainGraph) -> MasterGraph:
    """Quotient the graph over its chain components.

    An arc runs from component U to component V when some member of U is a
    parent of a member of V.  Components come in the cached Kahn order of
    :attr:`ComponentIndex.order`, which takes the ready component declared
    first, so blocks keep declaration order wherever the arcs allow.  For a
    valid chain graph the quotient is a DAG; a cycle in it is a
    semi-directed cycle and raises GraphError.
    """
    index = g.component_index
    comps, emit = index.components, index.order
    if len(emit) != len(comps):
        emitted = set(emit)
        names = "; ".join(
            "{" + " ".join(g.sorted_nodes(c)) + "}" for k, c in enumerate(comps) if k not in emitted
        )
        raise GraphError(
            "chain components admit no topological order (the graph has a "
            f"semi-directed cycle, so it is no chain graph); left unordered: {names}"
        )

    position = [0] * len(comps)
    for new, old in enumerate(emit):
        position[old] = new
    subs = tuple(
        ConditionalSubgraph(
            frozenset(comps[k]), index.parents[k], "undirected" if len(comps[k]) > 1 else "directed", g
        )
        for k in emit
    )
    edges = tuple(sorted((position[i], position[j]) for j, src in enumerate(index.sources) for i in src))
    return MasterGraph(subs, edges)


def conditional_subgraphs(g: ChainGraph) -> list[ConditionalSubgraph]:
    """The chain components with parents attached, in emission order."""
    return list(master_graph(g).subgraphs)
