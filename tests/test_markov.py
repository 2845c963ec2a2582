import random
import time
from itertools import combinations

import pytest

from chaingraph import (
    ChainGraph,
    CiQuery,
    CliqueBoundError,
    Edge,
    NodeAttr,
    QueryError,
    UndirectedGraph,
    directed,
    factorize_chain,
    implies_ci,
    max_cliques,
    moralize_chain,
    parse_ci_query,
    render,
    simplify_conditional,
    undirected,
)
from chaingraph.markov import MAX_CLIQUE_NODES, clique_ids
from helpers import (
    bench_gen,
    d_connected,
    edge_triples,
    parents_of_set,
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
        for make in (random_chain_graph, random_mixed, random_dag):
            g = make(rng, n)
            want = {frozenset((e.u, e.v)) for e in g.edges}
            for comp in _components_by_union_find(g):
                want |= {frozenset(p) for p in combinations(parents_of_set(g, comp), 2)}
            moral = moralize_chain(g)
            got = moral.edge_pairs()
            assert {frozenset(p) for p in got} == want
            # the same graph as the edge list of the graph and the parent pairs
            names = g.node_names
            marriages = [(names[p], names[q]) for ps in g.component_index.parents for p, q in combinations(ps, 2)]
            listed = UndirectedGraph(g.node_names, [(e.u, e.v) for e in g.edges] + marriages)
            assert moral.node_names == listed.node_names
            assert all(moral.neighbors(x) == listed.neighbors(x) for x in g.node_names)
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
    """Separation in the moral graph of the induced anterior subgraph, with
    the anterior set closed here and the moral graph built by the
    benchmark's reference moralization, cached per node set."""
    nodes = q.a | q.b | q.s
    if nodes not in cache:
        keep, todo = set(nodes), list(nodes)
        while todo:
            x = todo.pop()
            for y in g.parents(x) | g.neighbors(x):
                if y not in keep:
                    keep.add(y)
                    todo.append(y)
        names = [x for x in g.node_names if x in keep]
        edges = [t for t in edge_triples(g) if t[0] in keep and t[1] in keep]
        adj = {x: set() for x in names}
        for u, v in map(tuple, reference.moral_edges(names, edges)):
            adj[u].add(v)
            adj[v].add(u)
        cache[nodes] = adj
    adj = cache[nodes]
    seen, todo = set(q.a), list(q.a)
    while todo:
        for y in adj[todo.pop()]:
            if y in q.b:
                return False
            if y not in seen and y not in q.s:
                seen.add(y)
                todo.append(y)
    return True


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
        for update in ({names[0]: NodeAttr(observed=True)}, {names[-1]: NodeAttr(domain_size=3)}):
            h = g.with_attrs(update)
            assert h.component_index is not index
            assert h.component_index == index
        keep = [x for x in names if rng.random() < 0.6] or [names[0]]
        sub = ChainGraph(
            {x: g.attr(x) for x in keep}, [Edge(u, v, d) for u, v, d in edge_triples(g) if u in keep and v in keep]
        )
        assert sub.component_index is not index
        assert {frozenset(map(sub.node_names.__getitem__, c)) for c in sub.component_index.components} == {
            frozenset(c) for c in _components_by_union_find(sub)
        }
        cache = {}
        for q in _singleton_queries(sub):
            assert implies_ci(sub, q) == _textbook_implies_ci(sub, q, cache), q.text()


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


def test_hub_query_is_linear_in_fan_in():
    # x_i -> y -> z with four times the parents: queuing y's parent set once
    # per query measures about 4x, while re-reading it at every parent the
    # walk expands measures 13-15x, so a bound of 8x leaves room for a busy
    # machine on both sides
    def hub(k):
        names = [f"x{i}" for i in range(k)] + ["y", "z"]
        return ChainGraph(names, [directed(f"x{i}", "y") for i in range(k)] + [directed("y", "z")])

    q = CiQuery(frozenset({"x0"}), frozenset({"z"}), frozenset({"y"}))
    best = {hub(2000): float("inf"), hub(8000): float("inf")}
    for _ in range(5):
        for g in best:
            t = time.perf_counter()
            assert implies_ci(g, q)
            best[g] = min(best[g], time.perf_counter() - t)
    small, large = best.values()
    assert large <= 8.0 * small


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


def _brute_force_maximal_cliques(adj):
    """Every node set that is complete and inside no larger complete set."""
    nodes = list(adj)
    complete = [
        frozenset(c)
        for k in range(1, len(nodes) + 1)
        for c in combinations(nodes, k)
        if all(v in adj[u] for u, v in combinations(c, 2))
    ]
    return {c for c in complete if not any(c < d for d in complete)}


def _random_adjacency(rng, n, p):
    names = [f"v{i}" for i in range(n)]
    adj = {x: set() for x in names}
    for u, v in combinations(names, 2):
        if rng.random() < p:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def test_clique_kernel_equals_brute_force():
    rng = random.Random(14)
    cases = [{}]
    for n in range(11):
        # p = 0: isolated nodes only; p = 1: one complete graph
        for p in (0.0, 0.2, 0.5, 0.8, 1.0):
            cases.extend(_random_adjacency(rng, n, p) for _ in range(3))
    for adj in cases:
        order = list(adj)
        rng.shuffle(order)
        position = {x: i for i, x in enumerate(order)}.__getitem__
        got = max_cliques(UndirectedGraph(order, [(u, v) for u in adj for v in adj[u]]))
        assert len(got) == len(set(got))
        assert set(got) == _brute_force_maximal_cliques(adj)
        assert got == sorted(got, key=lambda c: sorted(map(position, c)))


def _brute_force_clique_ids(masks, roots):
    """The maximal cliques that meet ``roots`` of the graph on ids
    0..n-1 with neighbour bitmasks ``masks``, as sorted id tuples, sorted:
    every node set, kept when it is complete, no outside node is adjacent
    to all of it, and it holds a root."""
    n, out = len(masks), []
    for s in range(1, 1 << n):
        ids = [i for i in range(n) if s >> i & 1]
        complete = all(s & ~(1 << i) & ~masks[i] == 0 for i in ids)
        maximal = not any(s & ~masks[v] == 0 for v in range(n) if not s >> v & 1)
        if complete and maximal and s & roots:
            out.append(tuple(ids))
    return sorted(out)


def test_clique_kernel_with_roots_equals_brute_force():
    rng = random.Random(2010)
    for _ in range(600):
        n = rng.randint(0, 10)
        p = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
        masks = [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        full = (1 << n) - 1
        for roots in (0, full, rng.getrandbits(n) if n else 0):
            assert clique_ids(masks, roots) == _brute_force_clique_ids(masks, roots)


class _Unread:
    """An adjacency set or position map that fails when read."""

    def __iter__(self, *args):
        raise AssertionError("graph read before the bound check")

    __contains__ = __getitem__ = __iter__


@pytest.mark.parametrize("bound", [0, 5, MAX_CLIQUE_NODES])
def test_clique_bound_fires_before_any_mask(bound):
    nodes = tuple(f"n{i}" for i in range(bound + 1))
    ug = UndirectedGraph._trusted(nodes, _Unread(), {n: _Unread() for n in nodes})
    msg = f"clique enumeration graph has {bound + 1} nodes, over the limit of {bound}"
    with pytest.raises(CliqueBoundError) as err:
        max_cliques(ug, node_bound=bound)
    assert str(err.value) == msg
    # at the bound itself the search runs
    edgeless = UndirectedGraph(nodes[:bound])
    assert max_cliques(edgeless, node_bound=bound) == [frozenset((x,)) for x in nodes[:bound]]


# -- observation-driven simplification: the DAG and Markov-network cases --------


def test_simplify_directed_fig1a_gives_fig1b(graphs):
    simplified = simplify_conditional(graphs["fig1a"])
    assert same_graph(simplified, graphs["fig1b"])


def test_simplify_directed_keeps_hidden_parents():
    g = ChainGraph(
        {"h": NodeAttr(), "x": NodeAttr(observed=True), "y": NodeAttr(observed=True)},
        [directed("h", "x"), directed("x", "y")],
    )
    out = simplify_conditional(g)
    # x has the hidden parent h, so nothing may be dropped; y's only parent
    # x is observed, so x -> y goes
    assert {(e.u, e.v) for e in out.edges} == {("h", "x")}


def test_simplify_directed_cascades():
    # dropping arcs never makes a new node eligible, so one pass drops every
    # arc of a chain of observed nodes
    g = ChainGraph(
        {n: NodeAttr(observed=True) for n in "abc"},
        [directed("a", "b"), directed("b", "c")],
    )
    assert simplify_conditional(g).edges == ()


def test_simplify_directed_is_one_pass():
    # an arc survives iff its head is hidden or has a hidden parent, and a
    # second pass finds nothing more to drop
    rng = random.Random(31)
    for _ in range(200):
        g = random_dag(rng, rng.randint(1, 9), obs_p=rng.random())
        out = simplify_conditional(g)
        hidden = {x for x in g.node_names if not g.attr(x).observed}
        assert out.edges == tuple(e for e in g.edges if e.v in hidden or g.parents(e.v) & hidden)
        assert simplify_conditional(out).edges == out.edges


def test_simplify_undirected_respects_hidden_common_neighbor():
    g = ChainGraph(
        {"h": NodeAttr(), "o1": NodeAttr(observed=True), "o2": NodeAttr(observed=True)},
        [undirected("h", "o1"), undirected("h", "o2"), undirected("o1", "o2")],
    )
    out = simplify_conditional(g)
    # h is a hidden common neighbor, so o1 -- o2 must stay
    assert same_graph(out, g)


def test_simplify_undirected_drops_edges_simultaneously():
    g = ChainGraph(
        {n: NodeAttr(observed=True) for n in ("o1", "o2", "o3")},
        [undirected("o1", "o2"), undirected("o2", "o3"), undirected("o1", "o3")],
    )
    assert simplify_conditional(g).edges == ()


# -- mid-size graphs against the benchmark's reference ---------------------------


def test_mid_size_random_chain_graphs_match_the_reference():
    """Seeded sparse chain graphs of 100-600 nodes from the benchmark's
    generator, every fifth a DAG: each CI answer agrees with the reference
    separation (LWF, or d-separation on DAGs), the moral graph with the
    reference moralization, and the factorization covers each component
    with its parents.  Besides the generator's nearby queries, each graph
    gets queries between random nodes, whose anterior sets span many chain
    components."""
    shapes, names = random.Random(1915), random.Random(1916)
    checked = {"separated": 0, "connected": 0}
    for k, n in enumerate(bench_gen.log_spread_sizes(shapes, 30, 100, 600)):
        case = bench_gen.name_shape(names, bench_gen.random_shape(shapes, n, dag=k % 5 == 0, plant_cycle=False))
        g = ChainGraph(case.names, [Edge(u, v, d) for u, v, d in case.edges])
        assert {frozenset(p) for p in moralize_chain(g).edge_pairs()} == reference.moral_edges(case.names, case.edges)
        far = []
        for _ in range(6):
            a, b, *s = names.sample(case.names, 2 + names.randrange(4))
            far.append((a, b, tuple(s)))
        separated = reference.d_separated if case.dag else reference.lwf_separated
        for a, b, s in case.queries + far:
            got = implies_ci(g, CiQuery(frozenset((a,)), frozenset((b,)), frozenset(s)))
            assert got == separated(case.names, case.edges, a, b, s), (n, a, b, s)
            checked["separated" if got else "connected"] += 1
        assert reference.factorization_problem(render(factorize_chain(g)), case.names, case.edges) is None
    assert min(checked.values()) >= 20, checked
