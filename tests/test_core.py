import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaingraph import (
    ChainGraph,
    Edge,
    GraphError,
    NodeAttr,
    directed,
    moralize_chain,
    undirected,
    validate_chain_graph,
)
from helpers import (
    bench_gen,
    chain_component_of,
    cyclic_parts,
    edge_triples,
    has_semi_directed_cycle,
    is_closed_semi_directed_walk,
    joined_pairs,
    parents_of_set,
    random_chain_graph,
    random_dag,
    random_mixed,
    reference,
    side_by_side,
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
        # exact messages, and which check speaks first when two fail
        (["a", "", "a"], [], "^empty node name$"),
        ({"a": NodeAttr(), "b": 2}, [], "^node 'b': expected NodeAttr, got int$"),
        (["a", "b"], [directed("b", "x"), Edge("a", "a", False)], "^edge endpoint 'x' is not a declared node$"),
        (["a"], [directed("x", "x")], "^edge endpoint 'x' is not a declared node$"),
        (["a", "b"], [Edge("b", "b", True), directed("a", "b"), directed("a", "b")], "^self-loop on 'b'$"),
        (["a", "b"], [directed("a", "b"), directed("b", "a"), directed("a", "x")], "^more than one edge between 'b' and 'a'$"),
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
    pairs = joined_pairs(g)
    for x in g.node_names:
        assert g.parents(x) == parents_of_set(g, [x])
        assert {y for y in g.node_names if frozenset((x, y)) in pairs} == g.parents(x) | g.children(x) | g.neighbors(x)
    index, names = g.component_index, g.node_names

    def anterior(*seed):
        inside = index.anterior([g.index(x) for x in seed])
        return {names[i] for k, comp in enumerate(index.components) if inside[k] for i in comp}

    assert anterior("d") == {"a", "b", "c", "d"}
    assert anterior("a", "c") == {"a", "c"}
    assert "d" in g and "z" not in g
    for method in (g.parents, g.children, g.neighbors, g.index):
        with pytest.raises(GraphError, match="^unknown node 'z'$"):
            method("z")


def test_observe_and_with_attrs():
    g = ChainGraph(["a", "b"], [directed("a", "b")])
    g2 = g.with_attrs({"b": NodeAttr(observed=True)})
    assert g2.attr("b").observed and not g.attr("b").observed
    assert [x for x in g2.node_names if g2.attr(x).observed] == ["b"]
    g3 = g.with_attrs({"a": NodeAttr(deterministic=True, domain_size=4)})
    assert g3.attr("a").domain_size == 4
    with pytest.raises(GraphError):
        g.with_attrs({"nope": NodeAttr(observed=True)})


def test_component_helpers():
    g = ChainGraph(
        ["a", "b", "c", "d", "e"],
        [undirected("a", "b"), directed("b", "c"), undirected("d", "e")],
    )
    names = g.node_names
    comps = {frozenset(names[i] for i in c) for c in g.component_index.components}
    assert comps == {frozenset("ab"), frozenset("c"), frozenset("de")}
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
    # node ids are declaration positions: a=0, b=1, c=2, d=3, e=4, f=5
    assert index.components == ((0, 1), (2,), (3, 4), (5,))
    assert index.component_of == [0, 0, 1, 2, 2, 3]
    assert index.parents == ((), (1,), (0, 2), (4,))
    names = g.node_names
    for comp, ps in zip(index.components, index.parents):
        assert {names[p] for p in ps} == parents_of_set(g, (names[i] for i in comp))
    assert not index.inner_arcs
    inner = ChainGraph(["a", "b", "c"], [undirected("a", "b"), undirected("b", "c"), directed("a", "c")])
    assert inner.component_index.inner_arcs


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

    # a function of its parents has no undirected edge
    g3 = ChainGraph(
        {"a": NodeAttr(), "d": NodeAttr(deterministic=True), "c": NodeAttr(), "e": NodeAttr()},
        [directed("a", "d"), undirected("d", "c"), undirected("c", "e")],
    )
    (v,) = validate_chain_graph(g3).errors
    assert v.kind == "deterministic-with-undirected-edges" and v.nodes == ("d",)
    assert "undirected" in v.message


def test_validator_agrees_with_brute_force_sample():
    # one witness per arc inside a chain component, and one per strongly
    # connected set of nodes that spans two or more components; dense
    # graphs side by side give graphs with two such sets
    rng = random.Random(20260814)
    graphs = [random_mixed(rng, rng.randint(2, 6)) for _ in range(150)]
    dense = [random_mixed(rng, rng.randint(3, 6), 0.6) for _ in range(120)]
    graphs += [side_by_side(g1, g2) for g1, g2 in zip(dense[::2], dense[1::2])]
    assert sum(len(cyclic_parts(g)) > 1 for g in graphs) >= 5
    for g in graphs:
        expect = has_semi_directed_cycle(
            g.node_names, [(e.u, e.v, e.directed) for e in g.edges]
        )
        cycles = [v for v in validate_chain_graph(g).errors if v.kind == "semi-directed-cycle"]
        assert bool(cycles) == expect, f"nodes={g.node_names} edges={g.edges}"
        comp = chain_component_of(g)
        inner = sum(e.directed and comp[e.u] == comp[e.v] for e in g.edges)
        assert len(cycles) == inner + len(cyclic_parts(g)), f"nodes={g.node_names} edges={g.edges}"
        for v in cycles:
            assert is_closed_semi_directed_walk(g, v.nodes)
            hops = zip(v.nodes, v.nodes[1:] + v.nodes[:1])
            assert v.edge in hops and v.edge[1] in g.children(v.edge[0]), v


def _report_key(report):
    return [tuple(v) for v in report.errors], report.warnings


def _full_path_report(g):
    """`validate_chain_graph` with its per-arc loop forced on, as it ran on
    every graph before valid graphs could skip it."""
    h = ChainGraph(g.attrs(), g.edges)
    h.component_index.inner_arcs = True
    return validate_chain_graph(h)


def _has_inner_arc(g):
    comp = {x: k for k, c in enumerate(reference.undirected_components(g.node_names, edge_triples(g))) for x in c}
    return any(e.directed and comp[e.u] == comp[e.v] for e in g.edges)


def test_validation_skips_the_arc_loop_only_where_it_finds_nothing():
    rng = random.Random(1414)
    graphs = [
        # an arc inside a chain component
        ChainGraph(["a", "b", "c"], [undirected("a", "b"), undirected("b", "c"), directed("a", "c")]),
        # a cyclic quotient: {a, b} -> c -> {d, e} -> a
        ChainGraph(
            ["a", "b", "c", "d", "e"],
            [undirected("a", "b"), directed("b", "c"), directed("c", "d"), undirected("d", "e"), directed("e", "a")],
        ),
        # a det node without parents
        ChainGraph({"a": NodeAttr(deterministic=True), "b": NodeAttr()}, [undirected("a", "b")]),
    ]
    for make in (random_chain_graph, random_mixed, random_dag):
        for _ in range(60):
            g = make(rng, rng.randint(2, 12))
            dets = {x: NodeAttr(deterministic=True, observed=rng.random() < 0.3) for x in g.node_names if rng.random() < 0.2}
            graphs.append(g.with_attrs(dets))
    seen = {"inner": 0, "cyclic": 0, "det": 0, "ok": 0}
    for g in graphs:
        index = g.component_index
        assert index.inner_arcs == _has_inner_arc(g)
        report = validate_chain_graph(g)
        assert _report_key(report) == _report_key(_full_path_report(g))
        cyclic = any(v.kind == "semi-directed-cycle" for v in report.errors)
        assert cyclic == has_semi_directed_cycle(g.node_names, [(e.u, e.v, e.directed) for e in g.edges])
        seen["inner"] += index.inner_arcs
        seen["cyclic"] += len(index.order) < len(index.components)
        seen["det"] += any(v.kind == "deterministic-without-parents" for v in report.errors)
        seen["ok"] += report.ok
    assert min(seen.values()) >= 10, seen


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_constructed_chain_graphs_always_validate(seed, n):
    g = random_chain_graph(random.Random(seed), n)
    assert validate_chain_graph(g).ok


def test_graph_index_and_moral_graph_footprint():
    """A 3000-node sparse chain graph from the benchmark's generator, its
    component index and its moral graph hold node ids in tuples: together
    they retain well under 800 bytes per node (about 460 measured; per-node
    sets of names took about 1800)."""
    case = bench_gen.name_shape(random.Random(1), bench_gen.random_shape(random.Random(7), 3000, dag=False, plant_cycle=False))
    edges = [Edge(u, v, d) for u, v, d in case.edges]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = ChainGraph(case.names, edges)
        index = g.component_index
        moral = moralize_chain(g)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index.components) < len(g) == len(moral) == 3000
    assert retained / len(g) <= 800, retained / len(g)
