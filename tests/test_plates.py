import random

import pytest

from chaingraph import (
    ChainGraph,
    Edge,
    FactorError,
    NodeAttr,
    Plate,
    PlateError,
    PlateModel,
    StateSpaceError,
    directed,
    expand,
    factorize_chain,
    factorize_plated,
    parse_model,
    render,
    undirected,
    validate_plates,
)
from chaingraph import plates
from chaingraph.plates import _ground_size
from helpers import expand_all_pairs, indval, plate_collisions_by_regex, same_graph


def plate_model(nodes, edges, plates, **kw):
    return PlateModel(ChainGraph(nodes, edges), tuple(plates), **kw)


def violation_kinds(m):
    return sorted(v.kind for v in validate_plates(m).errors)


# -- validation ------------------------------------------------------------------


def test_valid_corpus_plate_models(models):
    for name, m in models.items():
        assert validate_plates(m).ok, name


def test_unknown_parent_and_member():
    with pytest.raises(PlateError, match="plate 'P' nests in unknown plate 'ghost'"):
        plate_model("ab", [], [Plate("P", "N", frozenset("a"), parent="ghost")])
    m2 = plate_model("ab", [], [Plate("P", "N", frozenset("az"))])
    assert violation_kinds(m2) == ["plate-member"]


def test_duplicate_plate_name_rejected_at_construction():
    with pytest.raises(PlateError, match="duplicate plate name"):
        plate_model("ab", [], [Plate("P", "N", frozenset("a")), Plate("P", "M", frozenset("b"))])


def test_duplicate_symbol():
    m = plate_model(
        "ab",
        [],
        [Plate("P", "N", frozenset("a")), Plate("Q", "N", frozenset("b"))],
    )
    assert violation_kinds(m) == ["plate-symbol"]


def test_nesting_cycle():
    with pytest.raises(PlateError, match="plate 'P' nests in a cycle"):
        plate_model(
            "ab",
            [],
            [
                Plate("P", "N", frozenset("a"), parent="Q"),
                Plate("Q", "M", frozenset("a"), parent="P"),
            ],
        )
    with pytest.raises(PlateError, match="plate 'R' nests in a cycle"):
        plate_model("a", [], [Plate("R", "N", frozenset("a"), parent="R")])
    # S sits below the cycle without being on it
    with pytest.raises(PlateError, match="plate 'S' nests in a cycle"):
        plate_model("a", [], [Plate("S", "K", frozenset("a"), parent="R"), Plate("R", "N", frozenset("a"), parent="R")])


def test_membership_consistency():
    m = plate_model(
        "ab",
        [],
        [
            Plate("outer", "N", frozenset("a")),
            Plate("inner", "M", frozenset("b"), parent="outer"),
        ],
    )
    assert violation_kinds(m) == ["plate-membership"]


def test_boundary_rules():
    # undirected edges may never cross
    m = plate_model("ab", [undirected("a", "b")], [Plate("P", "N", frozenset("a"))])
    assert violation_kinds(m) == ["plate-boundary"]
    # arcs must point into the deeper membership set
    m2 = plate_model("ab", [directed("a", "b")], [Plate("P", "N", frozenset("a"))])
    assert violation_kinds(m2) == ["plate-boundary"]
    m3 = plate_model("ab", [directed("a", "b")], [Plate("P", "N", frozenset("b"))])
    assert validate_plates(m3).ok


def test_arc_between_sibling_plates_is_rejected():
    m = plate_model(
        "ab",
        [directed("a", "b")],
        [Plate("P", "N", frozenset("a")), Plate("Q", "M", frozenset("b"))],
    )
    # memberships {P} and {Q} are disjoint, so neither strictly contains the other
    assert violation_kinds(m) == ["plate-boundary"]


def test_expansion_name_collision():
    m = plate_model(
        ["x", "x_1"],
        [],
        [Plate("P", "N", frozenset(["x"]))],
    )
    assert violation_kinds(m) == ["plate-collision"]


def test_collision_requires_all_numeric_suffixes():
    # x_0 can never be produced by expansion (indices start at 1), and
    # x_foo is not an index pattern at all
    m = plate_model(
        ["x", "x_0", "x_foo"],
        [],
        [Plate("P", "N", frozenset(["x"]))],
    )
    assert validate_plates(m).ok


def test_collision_check_matches_regex_reference():
    rng = random.Random(3)
    stems = ["x", "x_1", "y", "y_", "z_2"]
    suffixes = ["_1", "_0", "_1_2", "_01", "_x", "_12", "_3_4"]
    found = 0
    for _ in range(300):
        names = rng.sample(stems, rng.randint(1, len(stems)))
        while len(names) < 12:
            w = rng.choice(stems) + "".join(rng.choices(suffixes, k=rng.randint(1, 3)))
            if w not in names:
                names.append(w)
        rng.shuffle(names)
        m = plate_model(names, [], [Plate("P", "N", frozenset(rng.sample(names, rng.randint(1, 4))))])
        want = plate_collisions_by_regex(m)
        assert [v.nodes for v in validate_plates(m).errors] == want
        found += len(want)
    assert found


# -- indval and expansion ----------------------------------------------------------


def test_indval_flat_and_nested(models):
    coin = models["coin"]
    assert indval(coin, "theta", {"N": 3}) == {()}
    assert indval(coin, "heads", {"N": 3}) == {(1,), (2,), (3,)}

    banks = models["banks"]
    assert indval(banks, "class", {"Banks": 2, "Prices": 9}) == {(1,), (2,)}
    assert indval(banks, "spread", {"Banks": 2, "Prices": [2, 3]}) == {
        (1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
    }
    with pytest.raises(KeyError):
        indval(banks, "nope", {"Banks": 1, "Prices": 1})


def test_cardinality_errors(models):
    banks = models["banks"]
    with pytest.raises(PlateError, match="unbound plate symbol"):
        expand(banks, {"Banks": 2})
    with pytest.raises(PlateError, match="non-positive"):
        expand(banks, {"Banks": 0, "Prices": 1})
    with pytest.raises(PlateError, match="2 entries for 3 instances"):
        expand(banks, {"Banks": 3, "Prices": [1, 2]})
    with pytest.raises(PlateError, match="must be an integer"):
        expand(banks, {"Banks": "two", "Prices": 1})
    with pytest.raises(PlateError, match="needs an enclosing plate"):
        expand(models["coin"], {"N": [1, 2]})


def test_binding_of_a_symbol_no_plate_uses_is_refused(models, graphs, monkeypatch):
    with pytest.raises(PlateError, match="no plate uses the bound symbol\\(s\\) 'Typo'$"):
        expand(models["coin"], {"N": 2, "Typo": 4})
    with pytest.raises(PlateError, match="symbol\\(s\\) 'M', 'N'$"):
        expand(PlateModel(graphs["fig2"]), {"N": 2, "M": 1})
    # refused before the ground graph is sized, so even a huge count is not counted
    monkeypatch.setattr(plates, "_ground_size", None)
    with pytest.raises(PlateError, match="'Typo'"):
        expand(models["coin"], {"N": 10**9, "Typo": 1})


def test_expand_coin(models):
    g = expand(models["coin"], {"N": 2})
    want = ChainGraph(
        {
            "theta": NodeAttr(),
            "heads_1": NodeAttr(observed=True),
            "heads_2": NodeAttr(observed=True),
        },
        [directed("theta", "heads_1"), directed("theta", "heads_2")],
    )
    assert same_graph(g, want)


def test_expand_banks_ragged(models):
    g = expand(models["banks"], {"Banks": 2, "Prices": [1, 2]})
    names = set(g.node_names)
    assert {"theta", "mu", "lambda", "class_1", "class_2"} <= names
    assert "spread_1_1" in names and "spread_1_2" not in names
    assert {"spread_2_1", "spread_2_2"} <= names
    # each ground spread keeps exactly its own bank's class as parent
    assert g.parents("spread_2_2") == {"lambda", "class_2"}
    assert g.parents("bid_ask_diff_1_1") == {"mu", "class_1"}


def test_expand_shares_all_common_plate_indices():
    # u -> v inside the same plate must wire copy i to copy i only
    m = plate_model(
        ["u", "v"],
        [directed("u", "v")],
        [Plate("P", "N", frozenset(["u", "v"]))],
    )
    g = expand(m, {"N": 3})
    assert {(e.u, e.v) for e in g.edges} == {("u_1", "v_1"), ("u_2", "v_2"), ("u_3", "v_3")}


def test_collision_check_covers_plated_lookalikes():
    # the static check is deliberately conservative: a declared x_1 clashes
    # with copies of a plated x no matter whether x_1 is itself plated
    m = plate_model(
        ["x", "x_1"],
        [],
        [Plate("P", "N", frozenset(["x", "x_1"]))],
    )
    assert violation_kinds(m) == ["plate-collision"]
    with pytest.raises(PlateError, match="collides"):
        expand(m, {"N": 2})


def random_plated_model(rng):
    """Up to five plates nested at most three deep; each node sits in up to
    two plates and all plates around them, so sibling plates may share a
    node; arcs point into deeper plate sets and undirected edges stay in
    one.  An inner plate is bound to a list (ragged) half of the time."""
    parent_of, depth = {}, {}
    for k in range(rng.randint(1, 5)):
        parent = rng.choice([None] + [q for q in parent_of if depth[q] < 2])
        parent_of[f"P{k}"] = parent
        depth[f"P{k}"] = 0 if parent is None else depth[parent] + 1

    def enclosed(ps):
        out = set()
        for p in ps:
            while p is not None:
                out.add(p)
                p = parent_of[p]
        return frozenset(out)

    names = [f"v{i}" for i in range(rng.randint(2, 8))]
    sets = {v: enclosed(rng.sample(sorted(parent_of), rng.randint(0, min(2, len(parent_of))))) for v in names}
    edges = []
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            if rng.random() < 0.5:
                if sets[u] == sets[v]:
                    edges.append(Edge(u, v, rng.random() < 0.5))
                elif sets[u] < sets[v]:
                    edges.append(Edge(u, v, True))
                elif sets[v] < sets[u]:
                    edges.append(Edge(v, u, True))
    ps = [Plate(p, "N" + p[1:], frozenset(v for v in names if p in sets[v]), q) for p, q in parent_of.items()]
    b = {}
    for p, q in parent_of.items():
        outer = b.get("N" + q[1:]) if q is not None else None
        if outer is None or rng.random() < 0.5:
            b["N" + p[1:]] = rng.randint(1, 3)
        else:
            size = outer if isinstance(outer, int) else max(outer)
            b["N" + p[1:]] = [rng.randint(1, 3) for _ in range(size)]
    return plate_model(names, edges, ps), b


def test_expand_matches_all_pairs_reference():
    rng = random.Random(11)
    seen = {"deep": 0, "ragged": 0, "overlap": 0}
    for _ in range(300):
        m, b = random_plated_model(rng)
        assert validate_plates(m).ok
        g = expand(m, b)
        nodes, edges = expand_all_pairs(m, b)
        assert list(g.node_names) == nodes
        assert g.edges == tuple(edges)
        assert _ground_size(m, b) == len(nodes) + len(edges)
        seen["deep"] += any(m.depth(p) == 2 and p.members for p in m.plates)
        seen["ragged"] += any(isinstance(n, list) for n in b.values()) and bool(edges)
        chains = [m.membership(v) for v in m.graph.node_names]
        seen["overlap"] += any(c and c != m.path(c[-1]) for c in chains)
    assert all(seen.values()), seen


def test_ground_size_is_checked_before_expansion(monkeypatch):
    monkeypatch.setattr("chaingraph.plates.MAX_GROUND_SIZE", 7)
    coin = parse_model("model c { node theta; plate p [N] { node heads; } theta -> heads; }")
    assert len(expand(coin, {"N": 3})) == 4  # 4 nodes and 3 edges
    with pytest.raises(StateSpaceError, match="ground graph has 9 nodes and edges, over the limit of 7"):
        expand(coin, {"N": 4})
    # a ragged plate inside a ragged plate is counted index by index, and the
    # count stops once it is over the limit: K has entries for only 20 of
    # M's 10^9 indices
    ragged = parse_model("model r { plate p [N] { plate q [M] { plate r [K] { node x; } } } }")
    with pytest.raises(StateSpaceError, match="over the limit of 7"):
        expand(ragged, {"N": 1, "M": [10**9], "K": [1] * 20})


def test_expand_requires_valid_model():
    m = plate_model("ab", [undirected("a", "b")], [Plate("P", "N", frozenset("a"))])
    with pytest.raises(PlateError, match="crosses a plate boundary"):
        expand(m, {"N": 2})


# -- factorization -----------------------------------------------------------------


def test_unbound_coin_and_banks_renders(models):
    assert render(factorize_plated(models["coin"])) == (
        "p(theta) prod_{i in N} [ p(heads_i|theta) ]"
    )
    assert render(factorize_plated(models["banks"])) == (
        "p(theta) p(mu) p(lambda) prod_{i in Banks} [ p(class_i|theta)"
        " prod_{j in Prices(i)} [ p(spread_i_j|lambda,class_i)"
        " p(bid_ask_diff_i_j|mu,class_i) ] ]"
    )


def test_unbound_banks_latex(models):
    text = render(factorize_plated(models["banks"]), fmt="latex")
    assert r"\prod_{i \in \text{Banks}}" in text
    assert r"\prod_{j \in \text{Prices}(i)}" in text
    assert r"p(\theta)" in text
    assert r"p(\text{spread}_{i,j} \mid \lambda,\text{class}_i)" in text


def test_unbound_undirected_block_inside_plate():
    m = plate_model(
        {"z": NodeAttr(), "x": NodeAttr(), "y": NodeAttr()},
        [directed("z", "x"), undirected("x", "y")],
        [Plate("P", "N", frozenset(["x", "y"]))],
    )
    e = factorize_plated(m)
    assert render(e) == "p(z) prod_{i in N} [ f_0(z) f_1(z,x_i) f_2(x_i,y_i) ]"


def test_bound_equals_expanded(models):
    for b in ({"Banks": 1, "Prices": 1}, {"Banks": 2, "Prices": [2, 1]}):
        got = render(factorize_plated(models["banks"], b))
        want = render(factorize_chain(expand(models["banks"], b)))
        assert got == want


def test_unbound_overlapping_plates_rejected():
    m = plate_model(
        ["x"],
        [],
        [Plate("P", "N", frozenset("x")), Plate("Q", "M", frozenset("x"))],
    )
    assert validate_plates(m).ok  # structurally fine ...
    assert [p.name for p in m.unnested("x")] == ["P"]
    with pytest.raises(FactorError) as err:
        factorize_plated(m)  # ... but it has no nested-product form
    assert str(err.value) == (
        "node 'x' sits in overlapping plates; no nested product form exists — bind the plates instead"
    )
    e = factorize_plated(m, {"N": 2, "M": 2})  # binding works fine
    assert render(e) == "p(x_1_1) p(x_1_2) p(x_2_1) p(x_2_2)"


def test_unplated_model_ignores_binding_machinery(graphs):
    m = PlateModel(graphs["fig2"])
    assert render(factorize_plated(m)) == render(factorize_chain(graphs["fig2"]))
