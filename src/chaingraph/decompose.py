"""Decomposition of a chain graph into components and a master graph.

Every listing here is a view of the graph's cached component index, its
id tuples turned into a `Partition` of name sets by one helper:

* chain components -- connected components once every arc is deleted;
* the master graph -- the chain components in the topological order of
  their quotient DAG (`block_order`), the emission order of the
  factorization: a chain graph factorizes as the product over its chain
  components of p(x_comp | x_parents(comp)), so each is one block;
* component subgraphs -- the ``subgraphs`` listing: the larger chain
  components, and the singletons merged through arcs (either direction)
  into directed blocks, found in one walk over id rows.

Each block of the master graph is packaged as a conditional subgraph: the
chain component together with its parents, the parents marked observed.
No completion edges are added: two parents are adjacent only when the graph
joins them.  `block_masks` builds that parent-extended adjacency for the
clique kernel: it takes the node ids of the block and its parents, numbers
them 0..n-1 in ascending id (node-position) order and gives each the int
bitmask of its neighbours (an int as wide as the block, so it checks
the clique bound before it builds any), read straight off the graph's parent and
neighbour id tuples, together with the bitmask of the block's members.
The factorizer asks the clique kernel (`markov.clique_ids`) for the
maximal cliques that meet the members; a conditional subgraph's `cliques`
asks for all of them.  A conditional subgraph keeps its component's ids
and offers three views, each built when asked for: `cliques`, `graph` (the
parent-extended `ChainGraph`, which builds no masks) and `uncompleted`, an
alias of `graph`.  `block_order` is the one emission order, and the one
place that refuses a cyclic quotient.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .core import ChainGraph, Edge, GraphError
from .markov import check_clique_bound, clique_ids


class Partition:
    """Disjoint blocks covering a graph's nodes, in canonical order."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[frozenset[str], ...]) -> None:
        self.blocks = blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def _partition(g: ChainGraph, rows: Iterable[Iterable[int]]) -> Partition:
    """The name sets of the id tuples ``rows``, in their order."""
    name = g.node_names.__getitem__
    return Partition(tuple(frozenset(map(name, r)) for r in rows))


def chain_components(g: ChainGraph) -> Partition:
    """Connected components after deleting every directed arc.

    Read off the graph's cached :attr:`ChainGraph.component_index`, whose
    discovery order is already the canonical block order."""
    return _partition(g, g.component_index.components)


def component_subgraphs(g: ChainGraph) -> Partition:
    """Coarsen chain components by merging arc-connected singletons.

    One walk, by first node id: a node with undirected edges has its
    neighbours as its row, so its chain component passes unchanged; a
    singleton's row is its parents and children that are singletons too.
    """
    nb = g._nb
    rows = [n or [y for y in p + c if not nb[y]] for n, p, c in zip(nb, g._pa, g._ch)]
    return _partition(g, g._components(rows))


def block_masks(g: ChainGraph, members: Sequence[int], parents: Sequence[int]) -> tuple[list[int], list[int], int]:
    """The parent-extended graph of a block with directions dropped, on
    local ids: the node ids of the block's ``members`` and ``parents`` in
    ascending (node-position) order, for each the bitmask of its
    neighbours by local id, and the bitmask of the members.  A member is
    adjacent to its parents and neighbours; a parent to the members it
    points into and to the other parents it shares an edge with.  Edges are read from the head's side (a
    node's parents and neighbours), so a hub parent's children outside the
    block are never looked at.  Every mask is as wide as the block, so a
    block over the clique bound is refused before anything is built."""
    check_clique_bound(len(members) + len(parents))
    nodes = sorted((*members, *parents))
    local = {x: i for i, x in enumerate(nodes)}
    masks = [0] * len(nodes)
    pa, nb = g._pa, g._nb
    roots = 0
    for x in members:
        i = local[x]
        roots |= 1 << i
        m = masks[i]
        for y in nb[x]:
            m |= 1 << local[y]
        for p in pa[x]:
            j = local[p]
            m |= 1 << j
            masks[j] |= 1 << i
        masks[i] = m
    # a parent's parent or neighbour found in the block is another parent: a
    # member there would put the parent in the component, or make the
    # quotient cyclic, which `block_order` refuses before any block is built
    for p in parents:
        j = local[p]
        for q in pa[p]:
            k = local.get(q)
            if k is not None:
                masks[j] |= 1 << k
                masks[k] |= 1 << j
        for q in nb[p]:
            k = local.get(q)
            if k is not None:
                masks[j] |= 1 << k
    return nodes, masks, roots


class ConditionalSubgraph:
    """One chain component of ``source`` extended with its parents, given
    as the node ids of its ``members`` and ``parents``.

    ``flavor`` is ``"undirected"`` for a component of two or more nodes and
    ``"directed"`` for a single node.  ``own_nodes`` and ``parent_nodes``
    name the members and the component's cached parent set.  The block's
    cliques come from its :func:`block_masks`, its graph from one walk of
    the edges among its nodes; each is built when asked for.
    """

    def __init__(self, source: ChainGraph, members: tuple[int, ...], parents: tuple[int, ...]) -> None:
        self.source = source
        self._members, self._parents = members, parents
        self.own_nodes = source._named(members)
        self.parent_nodes = source._named(parents)
        self.flavor = "undirected" if len(members) > 1 else "directed"

    @cached_property
    def graph(self) -> ChainGraph:
        """The parent-extended graph: the block, its parents (marked
        observed) and every edge among them, read from the head's side as
        in :func:`block_masks`, with arc directions dropped for an
        undirected block.  Built on first use."""
        g, parents = self.source, set(self._parents)
        ids = sorted((*self._members, *parents))
        keep = set(ids)
        name, attr, pa, nb = g.node_names, g._attr, g._pa, g._nb
        arcs = self.flavor == "directed"
        attrs = {name[i]: attr[i]._replace(observed=True) if i in parents else attr[i] for i in ids}
        edges = []
        for v in ids:
            edges.extend(Edge(name[u], name[v], arcs) for u in pa[v] if u in keep)
            edges.extend(Edge(name[u], name[v], False) for u in nb[v] if u < v and u in keep)
        return ChainGraph(attrs, edges)

    def uncompleted(self) -> ChainGraph:
        """The parent-extended graph, as :attr:`graph`."""
        return self.graph

    def cliques(self) -> list[frozenset[str]]:
        """Maximal cliques of the parent-extended graph, canonically ordered."""
        nodes, masks, _ = block_masks(self.source, self._members, self._parents)
        name = self.source.node_names
        return [frozenset(name[nodes[i]] for i in c) for c in clique_ids(masks, (1 << len(masks)) - 1)]


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
        name = g.node_names
        names = "; ".join(
            "{" + " ".join(name[i] for i in sorted(c)) + "}" for k, c in enumerate(comps) if k not in emitted
        )
        raise GraphError(
            "chain components admit no topological order (the graph has a "
            f"semi-directed cycle, so it is no chain graph); left unordered: {names}"
        )
    return emit


def master_graph(g: ChainGraph) -> Partition:
    """The chain components in the order of :func:`block_order`: the
    blocks of the quotient DAG, where an arc runs from component U to
    component V when some member of U is a parent of a member of V."""
    return _partition(g, map(g.component_index.components.__getitem__, block_order(g)))


def conditional_subgraphs(g: ChainGraph) -> list[ConditionalSubgraph]:
    """The chain components with parents attached, in emission order."""
    index = g.component_index
    return [ConditionalSubgraph(g, index.components[k], index.parents[k]) for k in block_order(g)]
