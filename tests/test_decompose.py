import random

import pytest

from chaingraph import (
    ChainGraph,
    GraphError,
    chain_components,
    check_global_markov,
    component_subgraphs,
    conditional_subgraphs,
    directed,
    factorize_chain,
    master_graph,
    render,
    undirected,
    validate_chain_graph,
)
from chaingraph import decompose
from helpers import (
    edge_triples,
    joined_pairs,
    random_chain_graph,
    random_dag,
    random_mixed,
    random_undirected,
    reference,
)


def blocks_as_sets(partition):
    return [set(b) for b in partition]


def test_fig2_components_and_subgraphs(graphs):
    g = graphs["fig2"]
    assert blocks_as_sets(chain_components(g)) == [
        {"a", "b"},
        {"c"},
        {"d"},
        {"e", "f", "g", "h"},
    ]
    assert blocks_as_sets(component_subgraphs(g)) == [
        {"a", "b"},
        {"c", "d"},
        {"e", "f", "g", "h"},
    ]


def test_fig3_components_and_subgraphs(graphs):
    g = graphs["fig3"]
    assert blocks_as_sets(chain_components(g)) == [{"a", "b"}, {"c", "d"}, {"e"}, {"f"}]
    assert blocks_as_sets(component_subgraphs(g)) == [
        {"a", "b"},
        {"c", "d"},
        {"e", "f"},
    ]


def test_boltzmann_components(graphs):
    g = graphs["boltzmann"]
    comps = blocks_as_sets(chain_components(g))
    assert len(comps) == 4
    assert {"x1", "x2", "x3", "x4", "h1", "o"} in comps
    for w in ("wC1", "wC2", "wC3"):
        assert {w} in comps


def test_partition_covers_and_is_disjoint(graphs):
    for g in graphs.values():
        for part in (chain_components(g), component_subgraphs(g)):
            seen: set[str] = set()
            for b in part:
                assert not (seen & b)
                seen |= b
            assert seen == set(g.node_names)


def _reference_block_order(names, edges):
    """The chain components, each taken when all its parents' components
    are out, the first declared of the ready ones first; None when some
    are never ready (a cyclic quotient)."""
    comps = reference.undirected_components(names, edges)
    comp_of = {x: k for k, c in enumerate(comps) for x in c}
    feeds = {k: {comp_of[u] for u, v, d in edges if d and comp_of[v] == k} - {k} for k in range(len(comps))}
    order: list[int] = []
    while len(order) < len(comps):
        ready = [k for k in range(len(comps)) if k not in order and feeds[k] <= set(order)]
        if not ready:
            return None
        order.append(ready[0])
    return tuple(comps[k] for k in order)


def test_listings_equal_union_find_references():
    # component subgraphs join undirected edges and the arcs between two
    # nodes without undirected edges (union-find over those pairs); the
    # master graph lists the chain components in Kahn order; cyclic graphs
    # from random_mixed included
    rng = random.Random(2404)
    makers = (random_chain_graph, random_mixed, random_dag, random_undirected)
    cyclic = 0
    for k in range(1200):
        g = makers[k % 4](rng, rng.randint(1, 14), p=rng.choice((0.1, 0.25, 0.4)))
        names, edges = g.node_names, edge_triples(g)
        joined = {x for u, v, d in edges if not d for x in (u, v)}
        merged = [(u, v, False) for u, v, d in edges if not d or (u not in joined and v not in joined)]
        assert component_subgraphs(g).blocks == tuple(reference.undirected_components(names, merged))
        expect = _reference_block_order(names, edges)
        if expect is None:
            cyclic += 1
            with pytest.raises(GraphError, match="semi-directed cycle"):
                master_graph(g)
        else:
            assert master_graph(g).blocks == expect
    assert cyclic >= 50, cyclic


def test_master_graph_is_topological(graphs):
    for g in graphs.values():
        mg = master_graph(g)
        pos = {n: i for i, b in enumerate(mg.blocks) for n in b}
        # an arc never joins two nodes of one chain component, so every
        # quotient arc runs forward between block positions
        assert all(pos[e.u] < pos[e.v] for e in g.edges if e.directed)


def test_master_graph_random_property():
    rng = random.Random(99)
    for _ in range(80):
        g = random_chain_graph(rng, rng.randint(2, 8))
        mg = master_graph(g)
        pos = {n: i for i, b in enumerate(mg.blocks) for n in b}
        for e in g.edges:
            if e.directed and pos[e.u] != pos[e.v]:
                assert pos[e.u] < pos[e.v]


def test_merged_blocks_with_arcs_both_ways_factorize():
    # {c} and {d} merge into one component subgraph through c -> d; {e, f}
    # is undirected; f -> d points back into that merged block, which also
    # feeds e.  Over chain components the order is c, e-f, d.
    g = ChainGraph(
        ["c", "d", "e", "f"],
        [directed("c", "d"), directed("c", "e"), undirected("e", "f"), directed("f", "d")],
    )
    assert validate_chain_graph(g).ok
    assert [set(b) for b in master_graph(g).blocks] == [{"c"}, {"e", "f"}, {"d"}]
    text = render(factorize_chain(g))
    assert reference.factorization_problem(text, g.node_names, edge_triples(g)) is None
    assert check_global_markov(g, trials=3).ok


def test_quotient_cycle_is_an_error():
    # a -> b -- c -> a: not a chain graph, and its components have no order
    g = ChainGraph(["a", "b", "c"], [directed("a", "b"), undirected("b", "c"), directed("c", "a")])
    assert not validate_chain_graph(g).ok
    with pytest.raises(GraphError, match="semi-directed cycle"):
        master_graph(g)


def test_fig2_conditional_subgraphs(graphs):
    subs = {frozenset(s.own_nodes): s for s in conditional_subgraphs(graphs["fig2"])}
    # one block per chain component: the singletons c and d stay apart
    assert set(subs) == {frozenset("ab"), frozenset("c"), frozenset("d"), frozenset("efgh")}

    ab = subs[frozenset("ab")]
    assert ab.flavor == "undirected"
    assert ab.parent_nodes == frozenset()

    c, d = subs[frozenset("c")], subs[frozenset("d")]
    assert c.flavor == d.flavor == "directed"
    assert c.parent_nodes == {"b"} and d.parent_nodes == {"a", "c"}
    assert all(d.graph.attr(p).observed for p in ("a", "c"))
    assert not d.graph.attr("d").observed
    # arcs keep their direction, and the parents a, c stay non-adjacent
    assert {(e.u, e.v, e.directed) for e in d.graph.edges} == {("a", "d", True), ("c", "d", True)}

    efgh = subs[frozenset("efgh")]
    assert efgh.flavor == "undirected"
    assert efgh.parent_nodes == {"b", "c"}
    assert efgh.uncompleted() is efgh.graph
    assert not any(d for *_, d in edge_triples(efgh.graph))  # every direction dropped
    assert efgh.graph.node_names == ("b", "c", "e", "f", "g", "h")
    assert {(e.u, e.v) for e in efgh.graph.edges} == {
        ("b", "c"), ("c", "e"), ("b", "f"), ("e", "f"), ("f", "h"), ("g", "h"), ("e", "g"),
    }


def test_parents_stay_unmarried_in_the_block_graph(graphs):
    subs = {frozenset(s.own_nodes): s for s in conditional_subgraphs(graphs["boltzmann"])}
    block = subs[frozenset({"x1", "x2", "x3", "x4", "h1", "o"})]
    assert block.flavor == "undirected"
    assert block.parent_nodes == {"wC1", "wC2", "wC3"}
    assert all(block.graph.attr(w).observed for w in ("wC1", "wC2", "wC3"))
    for u, v in (("wC1", "wC2"), ("wC1", "wC3"), ("wC2", "wC3")):
        assert frozenset((u, v)) not in joined_pairs(block.graph)
    assert block.graph.neighbors("wC1") == {"h1", "x1", "o"}


def test_directed_block_has_no_completion_arc():
    # p and q live in undirected blocks; {x} is a block of its own whose two
    # parents are not adjacent, and nothing joins them.
    g = ChainGraph(
        ["p", "p2", "q", "q2", "x"],
        [undirected("p", "p2"), undirected("q", "q2"), directed("p", "x"), directed("q", "x")],
    )
    subs = conditional_subgraphs(g)
    x = next(s for s in subs if s.own_nodes == {"x"})
    assert x.flavor == "directed"
    assert x.parent_nodes == {"p", "q"}
    assert x.graph.node_names == ("p", "q", "x")
    assert {(e.u, e.v, e.directed) for e in x.graph.edges} == {("p", "x", True), ("q", "x", True)}
    assert x.uncompleted() is x.graph


def test_block_adjacency_keeps_edges_among_parents():
    # the parents p -> q of the block {x, y} are adjacent, so {p, q, x} is one clique
    g = ChainGraph(
        ["p", "q", "x", "y"],
        [directed("p", "q"), directed("p", "x"), directed("q", "x"), undirected("x", "y")],
    )
    (xy,) = [s for s in conditional_subgraphs(g) if s.flavor == "undirected"]
    assert xy.graph.node_names == ("p", "q", "x", "y")
    assert frozenset("pq") in joined_pairs(xy.graph)
    want = {"p": {"q", "x"}, "q": {"p", "x"}, "x": {"p", "q", "y"}, "y": {"x"}}
    assert {n: xy.graph.neighbors(n) for n in "pqxy"} == want
    assert xy.cliques() == [frozenset("pqx"), frozenset("xy")]
    assert render(factorize_chain(g)) == "p(p) p(q|p) f_0(p,q) f_1(p,q,x) f_2(x,y)"


def test_block_adjacency_builds_no_masks(monkeypatch):
    # masks are as wide as the block: on a long path they would cost memory
    # quadratic in its length
    names = [f"v{i}" for i in range(10_000)]
    g = ChainGraph(names, [undirected(u, v) for u, v in zip(names, names[1:])])
    (sub,) = conditional_subgraphs(g)

    def refused(*args):
        raise AssertionError("block_masks called for the block graph")

    monkeypatch.setattr(decompose, "block_masks", refused)
    graph = sub.graph
    assert graph.node_names == tuple(names)
    assert all(graph.neighbors(v) == set(names[max(0, i - 1) : i + 2]) - {v} for i, v in enumerate(names))


def _valid_random_graphs():
    """random_chain_graph graphs, and random_mixed graphs that validate,
    of 2 to 30 nodes over several seeds."""
    for seed in (1, 2, 3, 4):
        rng = random.Random(seed)
        for _ in range(30):
            yield random_chain_graph(rng, rng.randint(2, 30), p=rng.choice((0.1, 0.2, 0.4)))
        kept = 0
        while kept < 15:
            g = random_mixed(rng, rng.randint(2, 30), p=rng.choice((0.05, 0.1, 0.2)))
            if validate_chain_graph(g).ok:
                kept += 1
                yield g


def test_every_valid_random_graph_factorizes_soundly():
    small = 0
    for g in _valid_random_graphs():
        mg = master_graph(g)
        assert sorted(map(sorted, mg.blocks)) == sorted(map(sorted, chain_components(g)))
        pos = {n: i for i, b in enumerate(mg.blocks) for n in b}
        assert all(pos[e.u] < pos[e.v] for e in g.edges if e.directed)
        text = render(factorize_chain(g))
        assert reference.factorization_problem(text, g.node_names, edge_triples(g)) is None, text
        if len(g) <= 8:
            small += 1
            assert check_global_markov(g, trials=2).ok
    assert small >= 20


def test_hub_factorization_builds_no_graph(monkeypatch):
    # theta -> a_i for 1500 children, each a_i -- b_i: one hub parent shared
    # by 1500 two-node blocks.  Building a graph per block (or scanning the
    # hub's children per block) is quadratic; counting constructions keeps
    # this test free of timing.
    n = 1500
    names = ["theta"] + [f"{x}_{i}" for i in range(n) for x in "ab"]
    edges = [e for i in range(n) for e in (directed("theta", f"a_{i}"), undirected(f"a_{i}", f"b_{i}"))]
    g = ChainGraph(names, edges)
    built = []
    init = ChainGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChainGraph, "__init__", counting_init)
    mg = master_graph(g)
    e = factorize_chain(g)
    assert not built
    assert len(mg.blocks) == n + 1
    assert len(e.terms) == 1 + 3 * n  # p(theta), then f(theta) and two potentials per block
