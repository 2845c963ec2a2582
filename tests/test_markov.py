import random
from itertools import combinations

import pytest

from chaingraph import (
    ChainGraph,
    CiQuery,
    CliqueBoundError,
    GraphError,
    NodeAttr,
    QueryError,
    UndirectedGraph,
    directed,
    implies_ci,
    max_cliques,
    moralize_chain,
    parse_ci_query,
    separates,
    simplify_conditional_directed,
    simplify_conditional_undirected,
    undirected,
)
from helpers import (
    d_connected,
    edge_triples,
    random_chain_graph,
    random_dag,
    random_mixed,
    reference,
    same_graph,
)


# -- queries -------------------------------------------------------------------


def test_parse_ci_query_forms():
    q = parse_ci_query("a _||_ b | c,d")
    assert q == CiQuery(frozenset("a"), frozenset("b"), frozenset("cd"))
    assert parse_ci_query("a,b _||_ c") == CiQuery(frozenset("ab"), frozenset("c"))
    assert parse_ci_query("  a _||_ b |  ") == CiQuery(frozenset("a"), frozenset("b"))
    assert parse_ci_query("x1,x2 _||_ y | z").text() == "x1,x2 _||_ y | z"


@pytest.mark.parametrize(
    "text",
    ["", "a b", "a _||_", "_||_ b", "a _||_ b | c | d", "a, _||_ b", "a _||_ a"],
)
def test_parse_ci_query_rejects(text):
    with pytest.raises(QueryError):
        parse_ci_query(text)


def test_query_sets_must_be_disjoint():
    with pytest.raises(QueryError):
        CiQuery(frozenset("a"), frozenset("b"), frozenset("a"))
    with pytest.raises(QueryError):
        CiQuery(frozenset(), frozenset("b"))
    with pytest.raises(QueryError):
        CiQuery(frozenset("a"), frozenset("b"))._replace(s=frozenset("b"))


def test_query_text_respects_order():
    q = CiQuery(frozenset(["z", "a"]), frozenset(["m"]))
    assert q.text() == "a,z _||_ m"
    assert q.text(order=["z", "m", "a"]) == "z,a _||_ m"


# -- moralization --------------------------------------------------------------


def test_moralize_chain_marries_component_coparents(graphs):
    moral = moralize_chain(graphs["fig2"])
    # a and c share the child d
    assert "c" in moral.neighbors("a")
    # b and c both point into the component {e,f,g,h}; they are already
    # adjacent, and stay so after dropping the direction
    assert "c" in moral.neighbors("b")
    # no marriage is invented inside a component
    assert "h" not in moral.neighbors("e")


def test_moralize_chain_equals_reference_moral_edges(graphs):
    # on a DAG, LWF moralization is classic moralization: parents married
    rng = random.Random(17)
    dags = [graphs["fig1a"], graphs["fig1b"]] + [random_dag(rng, rng.randint(2, 9)) for _ in range(20)]
    for g in dags:
        pairs = {frozenset(p) for p in moralize_chain(g).edge_pairs()}
        assert pairs == reference.moral_edges(g.node_names, edge_triples(g))


def _components_by_union_find(g):
    """Chain components found without the graph's own component index."""
    root = {n: n for n in g.node_names}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for e in g.edges:
        if not e.directed:
            root[find(e.u)] = find(e.v)
    comps = {}
    for n in g.node_names:
        comps.setdefault(find(n), []).append(n)
    return list(comps.values())


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_moralize_chain_equals_parents_of_set_per_component(seed):
    rng = random.Random(seed)
    for n in range(2, 10):
        for make in (random_chain_graph, random_mixed):
            g = make(rng, n)
            want = {frozenset((e.u, e.v)) for e in g.edges}
            for comp in _components_by_union_find(g):
                want |= {frozenset(p) for p in combinations(g.parents_of_set(comp), 2)}
            got = moralize_chain(g).edge_pairs()
            assert {frozenset(p) for p in got} == want
            # canonical order: pairs sorted by declaration index, u before v
            assert got == sorted(got, key=lambda p: (g.index(p[0]), g.index(p[1])))
            assert all(g.index(u) < g.index(v) for u, v in got)


# -- separation and implied independence ---------------------------------------


def _singleton_queries(g):
    names = g.node_names
    for a, b in combinations(names, 2):
        rest = [v for v in names if v not in (a, b)]
        for k in range(len(rest) + 1):
            for s in combinations(rest, k):
                yield CiQuery(frozenset((a,)), frozenset((b,)), frozenset(s))


def _textbook_implies_ci(g, q, cache):
    """Separation in the moral graph of the induced anterior subgraph."""
    nodes = q.a | q.b | q.s
    if nodes not in cache:
        cache[nodes] = moralize_chain(g.induced(g.ancestors_chain(nodes)))
    return separates(cache[nodes], q)


@pytest.mark.parametrize("seed", [5, 11, 404])
def test_implies_ci_equals_separation_in_anterior_moral_graph(seed):
    rng = random.Random(seed)
    for n in range(2, 10):
        # random_mixed graphs may carry semi-directed cycles, where an arc
        # joins two nodes of one chain component; the walk must agree there too
        for make in (random_chain_graph, random_mixed):
            g = make(rng, n)
            cache = {}
            for q in _singleton_queries(g):
                assert implies_ci(g, q) == _textbook_implies_ci(g, q, cache), q.text()


def test_copies_answer_from_their_own_index():
    rng = random.Random(99)
    for n in range(3, 10):
        g = random_chain_graph(rng, n)
        index = g.component_index  # cached on g before any copy is made
        names = g.node_names
        for h in (g.observe(names[:1]), g.with_attrs({names[-1]: NodeAttr(domain_size=3)})):
            assert h.component_index is not index
            assert h.component_index == index
        keep = [x for x in names if rng.random() < 0.6] or [names[0]]
        sub = g.induced(keep)
        assert sub.component_index is not index
        assert {frozenset(c) for c in sub.component_index.components} == {
            frozenset(c) for c in _components_by_union_find(sub)
        }
        cache = {}
        for q in _singleton_queries(sub):
            assert implies_ci(sub, q) == _textbook_implies_ci(sub, q, cache), q.text()


def test_separates_path_graph():
    ug = UndirectedGraph("abc", [("a", "b"), ("b", "c")])
    assert separates(ug, CiQuery(frozenset("a"), frozenset("c"), frozenset("b")))
    assert not separates(ug, CiQuery(frozenset("a"), frozenset("c")))
    with pytest.raises(GraphError):
        separates(ug, CiQuery(frozenset("a"), frozenset("z")))


def test_implies_ci_fig1a(graphs):
    g = graphs["fig1a"]
    assert implies_ci(g, parse_ci_query("Symp _||_ Occ | Age,Dis"))
    assert implies_ci(g, parse_ci_query("Symp _||_ Clim | Age,Dis"))
    assert not implies_ci(g, parse_ci_query("Symp _||_ Occ | Age"))
    assert not implies_ci(g, parse_ci_query("Age _||_ Occ"))


def test_implies_ci_fig2(graphs):
    g = graphs["fig2"]
    assert implies_ci(g, parse_ci_query("a _||_ e | b,c"))
    assert implies_ci(g, parse_ci_query("a _||_ e | b"))
    # conditioning on the collider d activates a--d--c
    assert not implies_ci(g, parse_ci_query("a _||_ c | b,d"))
    assert implies_ci(g, parse_ci_query("a _||_ c | b"))


def test_implies_ci_agrees_with_d_separation_on_dags():
    rng = random.Random(424242)
    for _ in range(120):
        g = random_dag(rng, rng.randint(3, 7))
        names = list(g.node_names)
        rng.shuffle(names)
        a, b, rest = names[0], names[1], names[2:]
        s = frozenset(x for x in rest if rng.random() < 0.4)
        q = CiQuery(frozenset([a]), frozenset([b]), s)
        assert implies_ci(g, q) == (not d_connected(g, {a}, {b}, s)), q.text()


# -- cliques -------------------------------------------------------------------


def test_max_cliques_triangle_with_tail():
    ug = UndirectedGraph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    assert max_cliques(ug) == [frozenset("abc"), frozenset("cd")]


def test_max_cliques_edgeless_and_empty():
    assert max_cliques(UndirectedGraph("ab", [])) == [frozenset("a"), frozenset("b")]
    assert max_cliques(UndirectedGraph("", [])) == []


def test_max_cliques_bound():
    ug = UndirectedGraph([f"n{i}" for i in range(10)], [])
    with pytest.raises(CliqueBoundError, match="graph has 10 nodes, over the limit of 9"):
        max_cliques(ug, node_bound=9)


def test_max_cliques_canonical_order():
    # cliques come back ordered by their members' declaration indices
    ug = UndirectedGraph("dcba", [("a", "b"), ("c", "d")])
    assert max_cliques(ug) == [frozenset("dc"), frozenset("ba")]


# -- observation-driven simplification ------------------------------------------


def test_simplify_directed_fig1a_gives_fig1b(graphs):
    simplified = simplify_conditional_directed(graphs["fig1a"])
    assert same_graph(simplified, graphs["fig1b"])


def test_simplify_directed_keeps_hidden_parents():
    g = ChainGraph(
        {"h": NodeAttr(), "x": NodeAttr(observed=True), "y": NodeAttr(observed=True)},
        [directed("h", "x"), directed("x", "y")],
    )
    out = simplify_conditional_directed(g)
    # x has the hidden parent h, so nothing may be dropped; y's only parent
    # x is observed, so x -> y goes
    assert {(e.u, e.v) for e in out.edges} == {("h", "x")}


def test_simplify_directed_cascades():
    # dropping arcs never makes a new node eligible, but the fixpoint loop
    # must still terminate cleanly on chains of observed nodes
    g = ChainGraph(
        {n: NodeAttr(observed=True) for n in "abc"},
        [directed("a", "b"), directed("b", "c")],
    )
    assert simplify_conditional_directed(g).edges == ()


def test_simplify_undirected_respects_hidden_common_neighbor():
    g = ChainGraph(
        {"h": NodeAttr(), "o1": NodeAttr(observed=True), "o2": NodeAttr(observed=True)},
        [undirected("h", "o1"), undirected("h", "o2"), undirected("o1", "o2")],
    )
    out = simplify_conditional_undirected(g)
    # h is a hidden common neighbor, so o1 -- o2 must stay
    assert same_graph(out, g)


def test_simplify_undirected_drops_edges_simultaneously():
    g = ChainGraph(
        {n: NodeAttr(observed=True) for n in ("o1", "o2", "o3")},
        [undirected("o1", "o2"), undirected("o2", "o3"), undirected("o1", "o3")],
    )
    assert simplify_conditional_undirected(g).edges == ()


def test_simplify_flavor_guards(graphs):
    with pytest.raises(GraphError):
        simplify_conditional_directed(graphs["fig2"])
    with pytest.raises(GraphError):
        simplify_conditional_undirected(graphs["fig1a"])
