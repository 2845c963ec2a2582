import random
import tracemalloc
from itertools import combinations

import pytest

from chaingraph import (
    ChainGraph,
    CliqueBoundError,
    FactorError,
    FactorTerm,
    GraphError,
    NodeAttr,
    condition_expression,
    conditional_subgraphs,
    directed,
    eliminate_deterministic,
    factorize_chain,
    render,
    render_term,
    simplify_conditional,
    undirected,
    validate_chain_graph,
)
from chaingraph.factorize import _block_terms
from chaingraph.markov import MAX_CLIQUE_NODES, clique_ids
from helpers import (
    edge_triples,
    joined_pairs,
    parents_of_set,
    random_chain_graph,
    random_dag,
    random_mixed,
    same_graph,
    transfer_deviation,
)


# -- whole-corpus golden renders -------------------------------------------------

GOLDEN = {
    "fig1a": "p(Age) p(Occ|Age) p(Clim|Age,Occ) p(Dis|Age,Occ,Clim) p(Symp|Age,Dis)",
    "fig1b": "p(Age) p(Occ) p(Clim) p(Dis|Age,Occ,Clim) p(Symp|Age,Dis)",
    "fig2": "p(a,b) p(c|b) p(d|a,c) f_0(b,c) f_1(b,f) f_2(c,e) f_3(e,f) f_4(e,g) f_5(f,h) f_6(g,h)",
    "fig3": "p(a,b) f_0(a,b) f_1(a,c) f_2(b,d) f_3(c,d) p(e|c) p(f|d,e)",
    "cad": "p(s) p(S|s) p(A) p(c|s,S,A) p(a|c) f_0(c) f_1(c,Q,T)",
    "boltzmann": (
        "p(wC1) p(wC2) p(wC3) f_0(wC1,wC2,wC3)"
        " f_1(x1,h1,o,wC1) f_2(x2,h1,o,wC2) f_3(x3,x4,o,wC3)"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_factorizations(name, graphs):
    assert render(factorize_chain(graphs[name])) == GOLDEN[name]


def test_fig2_latex(graphs):
    assert render(factorize_chain(graphs["fig2"]), fmt="latex") == (
        r"p(a,b) p(c \mid b) p(d \mid a,c) f_{0}(b,c) f_{1}(b,f)"
        r" f_{2}(c,e) f_{3}(e,f) f_{4}(e,g) f_{5}(f,h) f_{6}(g,h)"
    )


# -- term and expression mechanics ----------------------------------------------


def test_term_vars_and_names():
    t = FactorTerm("conditional", head=("x",), given=("a", "b"))
    assert t.vars == ("a", "b", "x")
    assert t.name() == "p(x|a,b)"
    assert render_term(t, "latex") == r"p(x \mid a,b)"

    z = FactorTerm("normalizer", label="Z")
    assert z.name() == "Z^-1"
    assert render_term(z, "latex") == "Z^{-1}"

    d = FactorTerm("delta", head=("y",), given=("x",))
    assert d.name() == "delta(y|x)"
    assert render_term(d, "latex") == r"\delta(y \mid x)"

    f = FactorTerm("potential", given=("u", "v"), label="f_3")
    assert f.name() == "f_3(u,v)"
    assert render_term(f, "latex") == "f_{3}(u,v)"


def test_latex_variable_treatment(graphs):
    text = render(factorize_chain(graphs["cad"]), fmt="latex")
    # single-letter names stay bare math letters, including capitals
    assert "p(s)" in text
    assert r"p(S \mid s)" in text
    assert r"f_{1}(c,Q,T)" in text


def test_latex_subscripts_take_multi_digit_indices():
    # copy indices past 9 are subscripts too, braced as a group
    t = FactorTerm("conditional", head=("heads_10",), given=("theta", "heads_9"))
    assert render_term(t, "latex") == r"p(\text{heads}_{10} \mid \theta,\text{heads}_9)"
    t = FactorTerm("conditional", head=("x_1_12",), given=("spread_i_j", "bid_ask_12"))
    assert render_term(t, "latex") == r"p(x_{1,12} \mid \text{spread}_{i,j},\text{bid\_ask}_{12})"
    # a segment of several letters stays in the name
    t = FactorTerm("conditional", head=("bid_ask",))
    assert render_term(t, "latex") == r"p(\text{bid\_ask})"


def test_parentless_blocks_get_numbered_normalizers():
    g = ChainGraph("abcdef", [undirected("a", "b"), undirected("b", "c"), undirected("d", "e"), undirected("e", "f")])
    e = factorize_chain(g)
    assert render(e) == "Z_0^-1 f_0(a,b) f_1(b,c) Z_1^-1 f_2(d,e) f_3(e,f)"
    assert render(e, "latex").startswith("Z_{0}^{-1} f_{0}(a,b) f_{1}(b,c) Z_{1}^{-1}")


def test_factorize_directed_ignores_observation():
    g = ChainGraph(
        {"a": NodeAttr(observed=True), "b": NodeAttr()}, [directed("a", "b")]
    )
    e = factorize_chain(g)
    assert render(e) == "p(a) p(b|a)"
    assert e.given_vars == frozenset("a")
    assert e.free_vars == frozenset("b")


def test_labels_run_across_blocks():
    # two undirected blocks with parents: the label counter must not reset
    g = ChainGraph(
        ["r", "u1", "u2", "v1", "v2"],
        [
            directed("r", "u1"),
            undirected("u1", "u2"),
            directed("r", "v1"),
            undirected("v1", "v2"),
        ],
    )
    e = factorize_chain(g)
    labels = [t.label for t in e.terms if t.label]
    assert labels == sorted(set(labels), key=lambda s: int(s.split("_")[1]))
    assert len(set(labels)) == len(labels)


def test_parentless_multi_clique_block_gets_global_z():
    g = ChainGraph("abc", [undirected("a", "b"), undirected("b", "c")])
    e = factorize_chain(g)  # not purely directed: goes through the master graph
    kinds = [t.kind for t in e.terms]
    assert kinds[0] == "normalizer"
    assert render(e) == "Z^-1 f_0(a,b) f_1(b,c)"


# -- emission order ------------------------------------------------------------


def _shuffled(rng, g):
    """The same graph with its nodes declared in a random order."""
    names = list(g.node_names)
    rng.shuffle(names)
    return ChainGraph({n: g.attr(n) for n in names}, g.edges)


def test_dag_terms_follow_their_parents_whatever_the_declaration_order():
    rng = random.Random(5)
    for _ in range(30):
        g = _shuffled(rng, random_dag(rng, rng.randint(2, 12)))
        e = factorize_chain(g)
        emitted: set[str] = set()
        for t in e.terms:
            assert set(t.given) <= emitted, (render(e), t)
            emitted.update(t.head)
        assert emitted == set(g.node_names)


def test_dag_declared_in_topological_order_keeps_declaration_order():
    rng = random.Random(6)
    for _ in range(30):
        g = random_dag(rng, rng.randint(1, 12))
        assert [t.head for t in factorize_chain(g).terms] == [(x,) for x in g.node_names]


def _brute_force_cliques(g, nodes):
    """The maximal complete sets of the graph induced on ``nodes`` (in node
    order), in canonical order."""
    pairs = joined_pairs(g)
    complete = [
        c
        for k in range(1, len(nodes) + 1)
        for c in combinations(nodes, k)
        if all(frozenset(p) in pairs for p in combinations(c, 2))
    ]
    maximal = [c for c in complete if not any(set(c) < set(d) for d in complete)]
    return sorted(maximal, key=lambda c: [g.index(x) for x in c])


def test_blocks_equal_brute_force_cliques():
    """Each block's parent-extended graph is the graph induced on the block
    and its parents (a member's arc into its parents would close a cycle in
    the quotient).  The block's views of it and its potentials, the maximal
    cliques not inside the parents, match that induced graph."""
    rng = random.Random(1406)
    graphs = []
    for make in (random_chain_graph, random_mixed, random_dag):
        for _ in range(80):
            g = make(rng, rng.randint(2, 12), p=rng.choice((0.2, 0.4, 0.6)))
            try:
                graphs.append((g, conditional_subgraphs(g)))
            except GraphError:
                continue  # a cyclic quotient has no product
    blocks = 0
    for g, subs in graphs:
        pairs = joined_pairs(g)
        for sub, (comp, terms) in zip(subs, _block_terms(g), strict=True):
            parents = parents_of_set(g, comp)
            assert sub.own_nodes == set(comp) and sub.parent_nodes == parents
            nodes = [x for x in g.node_names if x in sub.own_nodes or x in parents]
            assert sub.graph.node_names == tuple(nodes)
            assert {frozenset((e.u, e.v)) for e in sub.graph.edges} == {
                frozenset(p) for p in combinations(nodes, 2) if frozenset(p) in pairs
            }
            cliques = _brute_force_cliques(g, nodes)
            assert sub.cliques() == [frozenset(c) for c in cliques]
            if len(comp) == 1:
                (x,) = comp
                assert [(t.kind, t.head, t.given) for t in terms] == [("conditional", (x,), g.sorted_nodes(parents))]
                continue
            blocks += 1
            want = [c for c in cliques if not set(c) <= parents]
            if terms[0].kind == "conditional":
                assert not parents and [terms[0].head] == want
            else:
                assert terms[0].kind == "normalizer" and terms[0].given == g.sorted_nodes(parents)
                assert [t.given for t in terms[1:]] == want
                assert all(t.kind == "potential" for t in terms[1:])
    assert blocks >= 100, blocks


def _kernel_cliques_per_factorization(monkeypatch, g):
    """How many cliques the kernel returns while ``g`` is factorized."""
    from chaingraph import factorize

    returned = []

    def counted(*args):
        found = clique_ids(*args)
        returned.append(len(found))
        return found

    monkeypatch.setattr(factorize, "clique_ids", counted)
    e = factorize_chain(g)
    return sum(returned), e


def test_factorizer_asks_the_kernel_only_for_cliques_it_uses(monkeypatch):
    # block {x, y} has parents p -- q, so its parent-extended graph is the
    # 4-cycle p-q-y-x; its maximal clique {p, q} holds no member and becomes
    # no potential, so the kernel must not return it
    g = ChainGraph(
        ["p", "q", "x", "y"],
        [undirected("p", "q"), directed("p", "x"), directed("q", "y"), undirected("x", "y")],
    )
    count, e = _kernel_cliques_per_factorization(monkeypatch, g)
    assert render(e) == "p(p,q) f_0(p,q) f_1(p,x) f_2(q,y) f_3(x,y)"
    assert count == 4

    rng = random.Random(2010)
    for make in (random_chain_graph, random_mixed):
        for _ in range(40):
            g = make(rng, rng.randint(2, 14), p=rng.choice((0.2, 0.4)))
            if not validate_chain_graph(g).ok:
                continue
            count, e = _kernel_cliques_per_factorization(monkeypatch, g)
            used = [t for t in e.terms if t.kind == "potential" or (t.kind == "conditional" and len(t.head) > 1)]
            assert count == len(used), render(e)


def test_block_over_the_clique_bound_is_refused_before_its_masks(monkeypatch):
    from chaingraph import decompose, factorize

    def no_masks(*args):
        raise AssertionError("masks built for a block over the bound")

    monkeypatch.setattr(factorize, "block_masks", no_masks)
    monkeypatch.setattr(decompose, "block_masks", no_masks)
    names = [f"x{i}" for i in range(MAX_CLIQUE_NODES + 1)]
    g = ChainGraph(names, [undirected(u, v) for u, v in zip(names, names[1:])])
    msg = f"clique enumeration graph has {MAX_CLIQUE_NODES + 1} nodes, over the limit of {MAX_CLIQUE_NODES}"
    with pytest.raises(CliqueBoundError) as err:
        factorize_chain(g)
    assert str(err.value) == msg
    (block,) = conditional_subgraphs(g)
    with pytest.raises(CliqueBoundError):
        block.cliques()
    with pytest.raises(CliqueBoundError) as err:
        simplify_conditional(g)
    assert str(err.value) == msg


# -- conditioning ----------------------------------------------------------------


def test_condition_boltzmann(graphs):
    e = factorize_chain(graphs["boltzmann"])
    c = condition_expression(e, ["o"])
    assert render(c) == (
        "sum_{h1} [ f_1(x1,h1,o,wC1) f_2(x2,h1,o,wC2) f_3(x3,x4,o,wC3) ]"
        " / sum_{h1,o} [ f_1(x1,h1,o,wC1) f_2(x2,h1,o,wC2) f_3(x3,x4,o,wC3) ]"
    )
    assert c.is_ratio


def test_condition_fig1a_posterior(graphs):
    e = factorize_chain(graphs["fig1a"])
    c = condition_expression(e, ["Dis"])
    assert render(c) == (
        "p(Dis|Age,Occ,Clim) p(Symp|Age,Dis)"
        " / sum_{Dis} [ p(Dis|Age,Occ,Clim) p(Symp|Age,Dis) ]"
    )


def test_condition_cad(graphs):
    e = factorize_chain(graphs["cad"])
    c = condition_expression(e, ["c"])
    assert render(c) == (
        "p(c|s,S,A) p(a|c) f_0(c) f_1(c,Q,T)"
        " / sum_{c} [ p(c|s,S,A) p(a|c) f_0(c) f_1(c,Q,T) ]"
    )


def test_condition_errors(graphs):
    e = factorize_chain(graphs["boltzmann"])
    with pytest.raises(FactorError, match="not free"):
        condition_expression(e, ["x1"])  # observed
    with pytest.raises(FactorError, match="not free"):
        condition_expression(e, ["nope"])
    with pytest.raises(FactorError, match="empty"):
        condition_expression(e, [])
    ratio = condition_expression(e, ["o"])
    with pytest.raises(FactorError, match="already"):
        condition_expression(ratio, ["o"])


# -- deterministic-node elimination ----------------------------------------------


def test_eliminate_ffnet(graphs):
    g2 = eliminate_deterministic(graphs["ffnet"])
    assert set(g2.node_names) == {"x1", "x2", "x3", "o1", "o2"}
    expected = {(x, o, True) for x in ("x1", "x2", "x3") for o in ("o1", "o2")}
    expected.add(("o1", "o2", False))
    assert {(e.u, e.v, e.directed) for e in g2.edges} == expected


def test_eliminate_det_chain():
    g = ChainGraph(
        {
            "x": NodeAttr(),
            "d1": NodeAttr(deterministic=True),
            "d2": NodeAttr(deterministic=True),
            "y": NodeAttr(),
        },
        [directed("x", "d1"), directed("d1", "d2"), directed("d2", "y")],
    )
    g2 = eliminate_deterministic(g)
    assert set(g2.node_names) == {"x", "y"}
    assert {(e.u, e.v) for e in g2.edges} == {("x", "y")}


def test_eliminate_keeps_existing_arcs():
    g = ChainGraph(
        {"x": NodeAttr(), "d": NodeAttr(deterministic=True), "y": NodeAttr()},
        [directed("x", "d"), directed("d", "y"), directed("x", "y")],
    )
    g2 = eliminate_deterministic(g)
    assert {(e.u, e.v) for e in g2.edges} == {("x", "y")}


def test_eliminate_no_det_nodes_is_identity(graphs):
    g = graphs["fig1a"]
    assert same_graph(eliminate_deterministic(g), g)


def test_eliminate_rejects_undirected_det():
    g = ChainGraph(
        {"x": NodeAttr(), "d": NodeAttr(deterministic=True), "y": NodeAttr()},
        [directed("x", "d"), undirected("d", "y")],
    )
    with pytest.raises(GraphError, match="undirected"):
        eliminate_deterministic(g)


# -- observation-driven simplification ------------------------------------------


def _co_parent_graph() -> ChainGraph:
    # u -- v is its own parentless block, where it could go, but it is also
    # a parent pair of the block {w, y}, whose clique {u, v, w} holds the
    # hidden w
    return ChainGraph(
        {"u": NodeAttr(observed=True), "v": NodeAttr(observed=True), "w": NodeAttr(), "y": NodeAttr()},
        [undirected("u", "v"), directed("u", "w"), directed("v", "w"), undirected("w", "y")],
    )


def test_simplify_keeps_an_observed_edge_that_a_later_block_has_as_parents():
    g = _co_parent_graph()
    assert same_graph(simplify_conditional(g), g)


def test_simplify_keeps_the_conditional_of_random_chain_graphs():
    # the referee of the rule: every term with a hidden variable must find
    # a home in the simplified product, and p(hidden | observed) must agree
    rng = random.Random(2301)
    simplified = count = 0
    while count < 600:
        g = random_chain_graph(rng, rng.randint(3, 10))
        obs_p = rng.random()
        g = g.with_attrs({x: NodeAttr(observed=True) for x in g.node_names if rng.random() < obs_p})
        observed = {x for x in g.node_names if g.attr(x).observed}
        if not observed or len(observed) == len(g):
            continue
        dev, homeless = transfer_deviation(g, rng.randrange(2**31))
        assert not homeless and dev <= 1e-12, (edge_triples(g), homeless, dev)
        simplified += len(simplify_conditional(g).edges) < len(g.edges)
        count += 1
    assert simplified >= 100, simplified  # the rule is exercised, not vacuous
    dev, homeless = transfer_deviation(_co_parent_graph(), 7)
    assert not homeless and dev <= 1e-12


def test_simplify_on_a_wide_hub_needs_no_block_masks():
    # x_i -> y for 32,000 observed parents: y's block holds only its own
    # arcs, so judging it takes memory linear in the parents; one bitmask
    # per parent as wide as the block would take about 130 MB
    k = 32_000
    names = [f"x{i}" for i in range(k)] + ["y"]
    g = ChainGraph({n: NodeAttr(observed=True) for n in names}, [directed(f"x{i}", "y") for i in range(k)])
    g.component_index  # built before tracing, as part of the graph
    tracemalloc.start()
    try:
        out = simplify_conditional(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.edges == ()
    assert peak < 40 * 2**20, peak
    hidden = g.with_attrs({"x0": NodeAttr()})
    assert simplify_conditional(hidden).edges == g.edges
