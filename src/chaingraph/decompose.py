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
joins them.  `block_masks` builds that parent-extended adjacency for the
clique kernel: it numbers the block and its parents 0..n-1 in node-position
order and gives each the int bitmask of its neighbours, read straight off
the graph's parent and neighbour sets in time proportional to the block
and its parents.  The factorizer hands those masks to the clique kernel
(`markov.clique_ids`), and so do a conditional subgraph's `cliques`, built
on first use.  A conditional subgraph's `adjacency` map and its `graph`
share one walk of the same sets and build no masks, whose ints are as wide
as the block.  No graph is built per block unless one is asked for
(`ConditionalSubgraph.graph`).  `block_order` is the one emission order,
and the one place that refuses a cyclic quotient.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .core import ChainGraph, Edge, GraphError
from .markov import check_clique_bound, clique_ids


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


def block_masks(g: ChainGraph, members: Iterable[str], parents: frozenset[str]) -> tuple[tuple[str, ...], list[int]]:
    """The parent-extended graph of a block with directions dropped, on
    local ids: the block's members and ``parents`` in node-position order,
    and for each the bitmask of its neighbours by local id.  A member is
    adjacent to its parents and neighbours; a parent to the members it
    points into and to the other parents it shares an edge with.  Edges
    are read from the head's side (a node's parents and neighbours), so a
    hub parent's children outside the block are never looked at."""
    nodes = g.sorted_nodes((*members, *parents))
    local = {n: i for i, n in enumerate(nodes)}
    masks = [0] * len(nodes)
    g_parents, g_neighbors = g._parents, g._neighbors
    for x in members:
        i = local[x]
        m = masks[i]
        for y in g_neighbors[x]:
            m |= 1 << local[y]
        for p in g_parents[x]:
            j = local[p]
            m |= 1 << j
            masks[j] |= 1 << i
        masks[i] = m
    for p in parents:
        j = local[p]
        for q in g_parents[p]:
            if q in parents:
                k = local[q]
                masks[j] |= 1 << k
                masks[k] |= 1 << j
        for q in g_neighbors[p]:
            if q in parents:
                masks[j] |= 1 << local[q]
    return nodes, masks


class ConditionalSubgraph:
    """One chain component of ``source`` extended with its parents.

    ``flavor`` is ``"undirected"`` for a component of two or more nodes and
    ``"directed"`` for a single node.  ``parent_nodes`` is the component's
    cached parent set.  The block's cliques come from its
    :func:`block_masks`, built on first use; its adjacency map and graph
    from one walk of the edges among its nodes.
    """

    def __init__(
        self, own_nodes: frozenset[str], parent_nodes: frozenset[str], flavor: str, source: ChainGraph
    ) -> None:
        self.own_nodes = own_nodes
        self.parent_nodes = parent_nodes
        self.flavor = flavor  # "directed" | "undirected"
        self.source = source

    @cached_property
    def _masks(self) -> tuple[tuple[str, ...], list[int]]:
        return block_masks(self.source, self.own_nodes, self.parent_nodes)

    def _edges(self) -> tuple[tuple[str, ...], list[tuple[str, str, bool]]]:
        """The block and its parents in node order, and every edge among
        them as (u, v, is_arc), read from the head's side as in
        :func:`block_masks`."""
        g = self.source
        nodes = g.sorted_nodes(self.own_nodes | self.parent_nodes)
        keep = frozenset(nodes)
        edges = []
        for v in nodes:
            edges.extend((u, v, True) for u in g._parents[v] & keep)
            edges.extend((u, v, False) for u in g._neighbors[v] & keep if u < v)
        return nodes, edges

    @cached_property
    def graph(self) -> ChainGraph:
        """The parent-extended graph: the block, its parents (marked
        observed) and every edge among them, with arc directions dropped
        for an undirected block.  Built on first use."""
        g, parents = self.source, self.parent_nodes
        nodes, edges = self._edges()
        arcs = self.flavor == "directed"
        attrs = {n: g.attr(n)._replace(observed=True) if n in parents else g.attr(n) for n in nodes}
        return ChainGraph(attrs, [Edge(u, v, arcs and is_arc) for u, v, is_arc in edges])

    def uncompleted(self) -> ChainGraph:
        """The parent-extended graph, as :attr:`graph`."""
        return self.graph

    def adjacency(self) -> dict[str, set[str]]:
        """The parent-extended graph with directions dropped, as an
        adjacency map over members and parents in node order, read off the
        graph's parent and neighbour sets (no masks are built)."""
        nodes, edges = self._edges()
        adj: dict[str, set[str]] = {n: set() for n in nodes}
        for u, v, _ in edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def cliques(self) -> list[frozenset[str]]:
        """Maximal cliques of the parent-extended graph, canonically ordered."""
        check_clique_bound(len(self.own_nodes) + len(self.parent_nodes))
        nodes, masks = self._masks
        return [frozenset(map(nodes.__getitem__, c)) for c in clique_ids(masks)]


class MasterGraph:
    """The chain components of ``source`` in emission order (``order``, by
    position in its component index): their node sets, their conditional
    subgraphs and the quotient arcs between them, each built on first use."""

    def __init__(self, source: ChainGraph, order: tuple[int, ...]) -> None:
        self.source = source
        self.order = order

    @cached_property
    def blocks(self) -> tuple[frozenset[str], ...]:
        comps = self.source.component_index.components
        return tuple(frozenset(comps[k]) for k in self.order)

    @cached_property
    def subgraphs(self) -> tuple[ConditionalSubgraph, ...]:
        g = self.source
        parents = g.component_index.parents
        return tuple(
            ConditionalSubgraph(own, parents[k], "undirected" if len(own) > 1 else "directed", g)
            for k, own in zip(self.order, self.blocks)
        )

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(i, j) for each quotient arc from block i to block j, sorted."""
        position = [0] * len(self.order)
        for new, old in enumerate(self.order):
            position[old] = new
        sources = self.source.component_index.sources
        return tuple(sorted((position[i], position[j]) for j, src in enumerate(sources) for i in src))


def block_order(g: ChainGraph) -> tuple[int, ...]:
    """The positions of the chain components in emission order: the cached
    Kahn order of :attr:`ComponentIndex.order`, which takes the ready
    component declared first, so blocks keep declaration order wherever the
    arcs allow.  For a valid chain graph the quotient is a DAG; a cycle in
    it is a semi-directed cycle and raises GraphError."""
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
    return emit


def master_graph(g: ChainGraph) -> MasterGraph:
    """Quotient the graph over its chain components, in the order of
    :func:`block_order`.

    An arc runs from component U to component V when some member of U is a
    parent of a member of V.
    """
    return MasterGraph(g, block_order(g))


def conditional_subgraphs(g: ChainGraph) -> list[ConditionalSubgraph]:
    """The chain components with parents attached, in emission order."""
    return list(master_graph(g).subgraphs)
