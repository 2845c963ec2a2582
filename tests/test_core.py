import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaingraph import (
    ChainGraph,
    Edge,
    GraphError,
    NodeAttr,
    directed,
    undirected,
    validate_chain_graph,
)
from helpers import (
    has_semi_directed_cycle,
    is_closed_semi_directed_walk,
    random_chain_graph,
    random_mixed,
)


def test_edge_normalizes_undirected_order():
    e = undirected("b", "a")
    assert (e.u, e.v) == ("a", "b")
    assert undirected("a", "b") == e
    # arcs keep their orientation
    assert directed("b", "a").u == "b"


def test_node_attr_rejects_bad_domain():
    with pytest.raises(GraphError):
        NodeAttr(domain_size=0)
    with pytest.raises(GraphError):
        NodeAttr(domain_size=3)._replace(domain_size=0)


def test_records_are_named_tuples():
    # a record equals the plain tuple of its fields; _replace checks and
    # normalises as construction does
    assert NodeAttr(observed=True) == (False, True, 2)
    assert NodeAttr()._replace(observed=True) == NodeAttr(observed=True)
    assert directed("a", "b") == ("a", "b", True)
    e = directed("b", "a")._replace(directed=False)
    assert (type(e), e) == (Edge, ("a", "b", False))


def test_declaration_order_is_canonical():
    g = ChainGraph(["c", "a", "b"], [directed("c", "a")])
    assert g.node_names == ("c", "a", "b")
    assert g.sorted_nodes({"b", "a"}) == ("a", "b")
    assert g.sorted_nodes(["b", "c"]) == ("c", "b")


@pytest.mark.parametrize(
    "nodes, edges, match",
    [
        (["a", "a"], [], "duplicate node"),
        ([""], [], "empty node name"),
        (["a"], [directed("a", "x")], "not a declared node"),
        (["a"], [Edge("a", "a", False)], "self-loop"),
        (["a", "b"], [directed("a", "b"), undirected("a", "b")], "more than one edge"),
        (["a", "b"], [directed("a", "b"), directed("b", "a")], "more than one edge"),
        (["a", "b"], [undirected("a", "b"), directed("b", "a")], "more than one edge"),
    ],
)
def test_construction_errors(nodes, edges, match):
    with pytest.raises(GraphError, match=match):
        ChainGraph(nodes, edges)


def test_adjacency_accessors():
    g = ChainGraph(
        ["a", "b", "c", "d"],
        [directed("a", "b"), directed("c", "b"), undirected("b", "d")],
    )
    assert g.parents("b") == {"a", "c"}
    assert g.children("a") == {"b"}
    assert g.neighbors("b") == {"d"}
    assert g.neighbors("a") == frozenset()
    assert g.parents_of_set({"b", "d"}) == {"a", "c"}
    assert "d" in g and "z" not in g
    with pytest.raises(GraphError):
        g.parents("z")


def test_flavor_flags():
    assert ChainGraph(["a", "b"], [directed("a", "b")]).is_directed
    assert ChainGraph(["a", "b"], [undirected("a", "b")]).is_undirected
    mixed = ChainGraph(["a", "b", "c"], [directed("a", "b"), undirected("b", "c")])
    assert not mixed.is_directed and not mixed.is_undirected
    # the empty-edge graph counts as both
    empty = ChainGraph(["a"])
    assert empty.is_directed and empty.is_undirected


def test_induced_keeps_attrs_and_inner_edges():
    g = ChainGraph(
        {"a": NodeAttr(observed=True), "b": NodeAttr(), "c": NodeAttr(domain_size=3)},
        [directed("a", "b"), undirected("b", "c")],
    )
    sub = g.induced(["b", "c"])
    assert set(sub.node_names) == {"b", "c"}
    assert sub.attr("c").domain_size == 3
    assert {(e.u, e.v, e.directed) for e in sub.edges} == {("b", "c", False)}


def test_observe_and_with_attrs():
    g = ChainGraph(["a", "b"], [directed("a", "b")])
    g2 = g.observe(["b"])
    assert g2.attr("b").observed and not g.attr("b").observed
    assert g2.observed_nodes() == ("b",)
    g3 = g.with_attrs({"a": NodeAttr(deterministic=True, domain_size=4)})
    assert g3.attr("a").domain_size == 4
    with pytest.raises(GraphError):
        g.observe(["nope"])


def test_component_helpers():
    g = ChainGraph(
        ["a", "b", "c", "d", "e"],
        [undirected("a", "b"), directed("b", "c"), undirected("d", "e")],
    )
    comps = {frozenset(c) for c in g.undirected_components()}
    assert comps == {frozenset("ab"), frozenset("c"), frozenset("de")}
    weak = {frozenset(c) for c in g.weak_components()}
    assert weak == {frozenset("abc"), frozenset("de")}
    assert g.undirected_path("a", "b") == ["a", "b"]
    with pytest.raises(GraphError):
        g.undirected_path("a", "c")


def test_component_index():
    g = ChainGraph(
        ["a", "b", "c", "d", "e", "f"],
        [undirected("a", "b"), directed("b", "c"), directed("a", "d"),
         undirected("d", "e"), directed("c", "e"), directed("e", "f")],
    )
    index = g.component_index
    assert index is g.component_index  # computed once
    assert index.components == (("a", "b"), ("c",), ("d", "e"), ("f",))
    assert index.component_of == {"a": 0, "b": 0, "c": 1, "d": 2, "e": 2, "f": 3}
    assert index.parents == (frozenset(), frozenset("b"), frozenset("ac"), frozenset("e"))
    for comp, ps in zip(index.components, index.parents):
        assert ps == g.parents_of_set(comp)


# -- validation ----------------------------------------------------------------


def test_corpus_models_validate(models):
    for name, m in models.items():
        report = validate_chain_graph(m.graph)
        assert report.ok, f"{name}: {[v.message for v in report.errors]}"


@pytest.mark.parametrize(
    "edges",
    [
        [directed("a", "b"), directed("b", "c"), directed("c", "a")],
        [directed("a", "b"), undirected("b", "c"), directed("c", "a")],
        [undirected("a", "b"), directed("b", "c"), undirected("c", "d"), directed("d", "a")],
        [directed("a", "b"), undirected("a", "b")],
    ],
)
def test_semi_directed_cycles_rejected(edges):
    try:
        g = ChainGraph(["a", "b", "c", "d"], edges)
    except GraphError:
        return  # double edge is rejected at construction, which is fine too
    report = validate_chain_graph(g)
    assert not report.ok
    v = report.errors[0]
    assert v.kind == "semi-directed-cycle"
    assert is_closed_semi_directed_walk(g, v.nodes)


def test_undirected_cycle_is_legal():
    g = ChainGraph(["a", "b", "c"], [undirected("a", "b"), undirected("b", "c"), undirected("a", "c")])
    assert validate_chain_graph(g).ok


def test_arc_into_own_undirected_component_rejected():
    # a -> c runs inside the undirected component {a, b, c}
    g = ChainGraph(["a", "b", "c"], [undirected("a", "b"), undirected("b", "c"), directed("a", "c")])
    report = validate_chain_graph(g)
    assert not report.ok
    v = report.errors[0]
    assert v.edge == ("a", "c")
    assert is_closed_semi_directed_walk(g, v.nodes)


def test_deterministic_rules():
    g = ChainGraph({"a": NodeAttr(deterministic=True)})
    report = validate_chain_graph(g)
    assert [v.kind for v in report.errors] == ["deterministic-without-parents"]

    g2 = ChainGraph(
        {"a": NodeAttr(), "b": NodeAttr(deterministic=True, observed=True)},
        [directed("a", "b")],
    )
    report2 = validate_chain_graph(g2)
    assert report2.ok and report2.warnings


def test_validator_agrees_with_brute_force_sample():
    rng = random.Random(20260814)
    for _ in range(150):
        g = random_mixed(rng, rng.randint(2, 6))
        expect = has_semi_directed_cycle(
            g.node_names, [(e.u, e.v, e.directed) for e in g.edges]
        )
        got = any(v.kind == "semi-directed-cycle" for v in validate_chain_graph(g).errors)
        assert got == expect, f"nodes={g.node_names} edges={g.edges}"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_constructed_chain_graphs_always_validate(seed, n):
    g = random_chain_graph(random.Random(seed), n)
    assert validate_chain_graph(g).ok
