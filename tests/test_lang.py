import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaingraph import (
    ChainGraph,
    Diagnostic,
    EdgeDecl,
    ModelError,
    NodeDecl,
    Plate,
    PlateDecl,
    PlateError,
    PlateModel,
    corpus,
    directed,
    emit_model,
    expand,
    parse,
    parse_model,
    read_model,
    resolve,
)
from chaingraph.lang import _lex
from helpers import same_graph


GOOD = """\
# a tiny mixed model
model demo {
    node a;
    obs node b [3];
    det node c;
    a -> c;
    b -> c;
    plate reps [K] {
        obs node y;
        c -> y;
    }
}
"""


# -- lexing and parsing ----------------------------------------------------------


def test_parse_good_model():
    r = parse(GOOD)
    assert r.ok and r.ast is not None
    assert r.ast.name == "demo"
    kinds = [type(s).__name__ for s in r.ast.statements]
    assert kinds == ["NodeDecl", "NodeDecl", "NodeDecl", "EdgeDecl", "EdgeDecl", "PlateDecl"]
    b = r.ast.statements[1]
    assert isinstance(b, NodeDecl) and b.attrs == ("obs",) and b.domain == 3
    plate = r.ast.statements[-1]
    assert isinstance(plate, PlateDecl) and plate.symbol == "K"
    inner = plate.body[1]
    assert isinstance(inner, EdgeDecl) and (inner.u, inner.v, inner.directed) == ("c", "y", True)


def test_spans_point_at_the_source():
    src = "model m {\n  node a;\n  node a;\n}\n"
    r = parse(src)
    assert r.ok  # duplicate nodes are a resolve error, not a parse error
    second = r.ast.statements[1]
    assert (second.span.line, second.span.column) == (3, 3)
    assert src[second.span.start : second.span.end] == "node a;"


def test_diagnostic_render_format():
    d = Diagnostic("error", "boom", None)
    assert d.render("x.cg") == "x.cg: error: boom"
    r = parse("model m { node 1x; }")
    assert not r.ok
    line = r.diagnostics[0].render("m.cg")
    assert line.startswith("m.cg:1:") and ": error: " in line


def test_comments_and_whitespace():
    r = parse("model m { # comment -> with arrows; and } braces\n node a; }")
    assert r.ok
    assert isinstance(r.ast.statements[0], NodeDecl)


def test_keywords_are_reserved():
    r = parse("model m { node node; }")
    assert not r.ok
    r2 = parse("model plate { node a; }")
    assert not r2.ok


def test_error_recovery_collects_multiple_diagnostics():
    src = "model m {\n  node a\n  node b;;\n  a -> ;\n  node c;\n}"
    r = parse(src)
    assert not r.ok
    assert len(r.diagnostics) >= 2
    # recovery must still deliver the salvageable declarations
    names = [s.name for s in r.ast.statements if isinstance(s, NodeDecl)]
    assert "c" in names


def _statement_names(stmts):
    out = []
    for s in stmts:
        if isinstance(s, NodeDecl):
            out.append(s.name)
        elif isinstance(s, EdgeDecl):
            out.append(f"{s.u}{'->' if s.directed else '--'}{s.v}")
        else:
            out.append(f"{s.name}[{' '.join(_statement_names(s.body))}]")
    return out


_TOO_DEEP = "model m {\n" + "plate p [N] { " * 17 + "node x; " + "} " * 17 + "\n  node b;\n}"
_TOO_DEEP_OPEN = "model m {\n" + "plate p [N] { " * 16 + "plate q [N] node c; node d; " + "} " * 16 + "\n  node b;\n}"


@pytest.mark.parametrize(
    "src, diagnostics, survivors",
    [
        # the model header: no model without it
        ("modl m {\n  node a;\n}", [(1, 1, "expected 'model', found 'modl'")], None),
        ("model {\n  node a;\n}", [(1, 7, "expected model name, found '{'")], None),
        ("model m\n  node a;\n}", [(2, 3, "expected '{', found 'node'")], None),
        # a failed statement is skipped to its ';'
        ("model m {\n  node a;\n  5 node c;\n  node b;\n}", [(3, 3, "expected a statement, found '5'")], ["a", "b"]),
        ("model m {\n  det obs det node a;\n  node b;\n}", [(2, 11, "duplicate attribute 'det'")], ["a", "b"]),
        ("model m {\n  node a;\n  obs c;\n  node b;\n}", [(3, 7, "expected 'node', found 'c'")], ["a", "b"]),
        ("model m {\n  node a;\n  node 7;\n  node b;\n}", [(3, 8, "expected node name, found '7'")], ["a", "b"]),
        ("model m {\n  node a;\n  node c [x];\n  node b;\n}", [(3, 11, "expected domain size, found 'x'")], ["a", "b"]),
        ("model m {\n  node a;\n  node c [3;\n  node b;\n}", [(3, 12, "expected ']', found ';'")], ["a", "b"]),
        (
            "model m {\n  node a;\n  node c [0];\n  node b;\n}",
            [(3, 11, "domain size must be at least 1, got 0")],
            ["a", "b"],
        ),
        (
            "model m {\n  node a;\n  a b;\n  node b;\n}",
            [(3, 5, "expected '->' or '--' after 'a', found 'b'")],
            ["a", "b"],
        ),
        ("model m {\n  node a;\n  a -> ;\n  node b;\n}", [(3, 8, "expected edge endpoint, found ';'")], ["a", "b"]),
        # a missing ';' takes the next statement with it
        ("model m {\n  node a;\n  node c\n  node d;\n  node b;\n}", [(4, 3, "expected ';', found 'node'")], ["a", "b"]),
        ("model m {\n  node a;\n  a -- b\n  node c;\n  node b;\n}", [(4, 3, "expected ';', found 'node'")], ["a", "b"]),
        # a bad plate header skips the block, and parsing resumes just past its '}'
        (
            "model m {\n  node a;\n  plate [N] { node c; }\n  node d;\n  node b;\n}",
            [(3, 9, "expected plate name, found '['")],
            ["a", "d", "b"],
        ),
        (
            "model m {\n  node a;\n  plate p N] { node c; }\n  node d;\n  node b;\n}",
            [(3, 11, "expected '[', found 'N'")],
            ["a", "d", "b"],
        ),
        (
            "model m {\n  node a;\n  plate p [3] { node c; }\n  node d;\n  node b;\n}",
            [(3, 12, "expected cardinality symbol, found '3'")],
            ["a", "d", "b"],
        ),
        (
            "model m {\n  node a;\n  plate p [N { node c; }\n  node d;\n  node b;\n}",
            [(3, 14, "expected ']', found '{'")],
            ["a", "d", "b"],
        ),
        # an over-deep plate is skipped whole, its block included
        (_TOO_DEEP, [(2, 225, "plate 'p' has 17 levels of nesting, over the limit of 16")], ["p[" * 16 + "]" * 16, "b"]),
        # without its '{', the statements up to the plate's '}' are its body
        (
            "model m {\n  node a;\n  plate p [N] node c; }\n  node b;\n}",
            [(3, 15, "expected '{', found 'node'")],
            ["a", "p[c]", "b"],
        ),
        # without either brace, the plate's body runs to the model's '}'
        (
            "model m {\n  node a;\n  plate p [N] node c;\n  node b;\n}",
            [(3, 15, "expected '{', found 'node'"), (5, 2, "expected '}', found 'end of input'")],
            ["a", "p[c b]"],
        ),
        # an over-deep plate without its '{' is skipped to its ';'
        (
            _TOO_DEEP_OPEN,
            [(2, 225, "plate 'q' has 17 levels of nesting, over the limit of 16")],
            ["p[" * 16 + "d" + "]" * 16, "b"],
        ),
        # an unclosed plate takes the model's '}'
        (
            "model m {\n  node a;\n  plate p [N] {\n    node c;\n  node b;\n}",
            [(6, 2, "expected '}', found 'end of input'")],
            ["a", "p[c b]"],
        ),
        ("model m {\n  node a;\n}\nnode b;", [(4, 1, "trailing input after model")], ["a"]),
    ],
    ids=[
        "model", "model-name", "model-lbrace", "statement", "duplicate-attr", "node", "node-name", "domain-int",
        "domain-rbracket", "domain-zero", "edge-operator", "edge-endpoint", "node-semi", "edge-semi", "plate-name",
        "plate-lbracket", "plate-symbol", "plate-rbracket", "plate-too-deep", "plate-lbrace", "plate-no-braces",
        "plate-too-deep-lbrace", "plate-unclosed", "trailing",
    ],
)
def test_every_recovery_site(src, diagnostics, survivors):
    r = parse(src)
    assert [(d.span.line, d.span.column, d.message) for d in r.diagnostics] == diagnostics
    assert all(d.severity == "error" for d in r.diagnostics) and not r.ok
    assert (None if r.ast is None else _statement_names(r.ast.statements)) == survivors


def test_domain_must_be_positive():
    assert not parse("model m { node a [0]; }").ok
    assert parse("model m { node a [1]; }").ok


def test_duplicate_attr_rejected():
    assert not parse("model m { det det node a; }").ok
    assert parse("model m { det obs node a; a -> a; }").ok  # self-loop is for resolve


def test_deep_nesting_is_cut_off():
    src = "model m { " + "plate p [N] { " * 20 + "node x; " + "} " * 20 + "}"
    r = parse(src)
    assert not r.ok
    assert any("has 17 levels of nesting, over the limit of 16" in d.message for d in r.diagnostics)


@pytest.mark.parametrize("digit", ["\u00b2", "\u00b9", "\u00b3", "\u0661"])
def test_domain_sizes_are_ascii_numerals(digit):
    # superscripts pass str.isdigit and Arabic-Indic digits pass int(); neither is a domain size
    r = parse(f"model m {{ node x [{digit}]; }}")
    assert not r.ok
    errors = [d for d in r.diagnostics if d.severity == "error"]
    assert errors and all(d.span is not None for d in errors)
    assert errors[0].span.line == 1 and errors[0].span.column == 19


_WIDE = ["\u00e9", "\u20ac", "\U0001f600", "\ud800"]


def _wide_source(rng):
    lines = ["model m {"]
    for i in range(rng.randint(1, 12)):
        word = "".join(rng.choice(["a", "_", "7"] + _WIDE) for _ in range(rng.randint(0, 3)))
        stmt = rng.choice([f"node a{i}", f"node a{i}{word}", f"a{i} -> {word}b", f"{word} -- b", "node x [2]"])
        comment = "".join(rng.choice(["x", " ", "#"] + _WIDE) for _ in range(rng.randint(0, 6)))
        lines.append(f"  {stmt}; # {comment}" if rng.random() < 0.5 else f"{comment}{stmt};")
    lines.append("}")
    return "\n".join(lines)


def test_spans_on_non_ascii_source():
    rng = random.Random(11)
    for _ in range(400):
        src = _wide_source(rng)
        data = src.encode("utf-8", "surrogatepass")
        diags = []
        toks = _lex(src, diags)
        spans = [(t.span, t.value) for t in toks]
        for d in diags:
            text = data[d.span.start : d.span.end].decode("utf-8", "surrogatepass")
            assert text == "-" if d.message.startswith("stray") else repr(text) in d.message
            spans.append((d.span, text))
        for span, text in spans:
            assert data[span.start : span.end] == text.encode("utf-8", "surrogatepass")
            before = data[: span.start].decode("utf-8", "surrogatepass")
            assert span.line == before.count("\n") + 1
            assert span.column == len(before) - before.rfind("\n")
        assert toks[-1].kind == "eof" and toks[-1].span.start == len(data)
        parse(src)  # must not throw


def test_non_ascii_lexing_is_linear():
    # four times the lines: linear code measures 4.2-5.2x, while re-encoding
    # the prefix for each token's byte offset measures 15-21x, so a bound of
    # 8x leaves room for a busy machine on both sides
    def source(lines):
        return "model m {\n" + "".join(f"  node n{i};  # caf\u00e9 \u20ac {i}\n" for i in range(lines)) + "}\n"

    small, large = source(1000), source(4000)
    best = {small: float("inf"), large: float("inf")}
    for _ in range(7):
        for src in best:
            t = time.perf_counter()
            assert parse(src).ok
            best[src] = min(best[src], time.perf_counter() - t)
    assert best[large] <= 8.0 * best[small]


def test_parse_never_raises_on_garbage():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 60)
        junk = "".join(chr(rng.randint(1, 0x2FF)) for _ in range(n))
        parse(junk)  # must not throw


# -- resolution -------------------------------------------------------------------


def resolve_src(src):
    r = parse(src)
    assert r.ok, [d.message for d in r.diagnostics]
    return resolve(r.ast)


@pytest.mark.parametrize(
    "src, needle",
    [
        ("model m { node a; node a; }", "duplicate node"),
        ("model m { node a; a -> b; }", "unknown node"),
        ("model m { node a; a -> a; }", "self loop"),
        ("model m { node a; node b; a -> b; a -- b; }", "duplicate edge"),
        ("model m { }", "no nodes"),
        ("model m { node a; node b; a -> b; b -> a; }", "duplicate edge"),
        ("model m { node a; node b; node c; a -> b; b -> c; c -> a; }", "cycle"),
        ("model m { det node a; }", "no parents"),
        ("model m { plate p [N] { node a; } plate q [N] { node b; } }", "index set"),
    ],
)
def test_resolve_errors(src, needle):
    rr = resolve_src(src)
    assert not rr.ok
    assert any(needle in d.message for d in rr.diagnostics if d.severity == "error"), [
        d.message for d in rr.diagnostics
    ]


def test_cycle_diagnostic_points_at_an_edge():
    # three arcs inside the component {a, .., e}, and the cycle x -> y -> z
    # -> x among three singletons: each diagnostic points at the line of the arc
    # that closes its witness, the last hop of its message
    lines = [
        "model m {",
        "  node a; node b; node c; node d; node e; node x; node y; node z;",
        "  a -- b;",
        "  b -- c;",
        "  a -> c;",
        "  c -- d;",
        "  b -> d;",
        "  x -> y;",
        "  d -- e;",
        "  e -> a;",
        "  y -> z;",
        "  z -> x;",
        "}",
    ]
    rr = resolve_src("\n".join(lines))
    errs = [d for d in rr.diagnostics if "cycle" in d.message]
    assert len(errs) == 4
    for err in errs:
        *_, u, v = re.split(" -> | -- ", err.message)
        assert err.message.endswith(f"{u} -> {v}")
        assert lines[err.span.line - 1] == f"  {u} -> {v};", err.message


def test_resolve_warning_for_det_obs():
    rr = resolve_src("model m { node a; det obs node b; a -> b; }")
    assert rr.ok
    assert any(d.severity == "warning" for d in rr.diagnostics)


def test_resolve_builds_plates():
    rr = resolve_src(GOOD)
    assert rr.ok
    m = rr.model
    assert [p.name for p in m.plates] == ["reps"]
    assert m.plates[0].symbol == "K"
    assert m.plates[0].members == frozenset(["y"])
    assert m.graph.attr("b").domain_size == 3
    assert m.graph.attr("c").deterministic
    assert m.graph.attr("y").observed


def test_nested_plate_membership():
    rr = resolve_src(
        "model m { plate o [N] { node a; plate i [M] { node b; a -> b; } } }"
    )
    assert rr.ok
    plates = {p.name: p for p in rr.model.plates}
    assert plates["i"].parent == "o"
    assert plates["i"].members == frozenset(["b"])
    assert plates["o"].members == frozenset(["a", "b"])


# -- printing and emission ----------------------------------------------------------


def assert_round_trips(m):
    """emit_model text re-parses to the same graph and plates, and emitting
    the re-parsed model gives the same text."""
    text = emit_model(m)
    m2 = parse_model(text)
    assert same_graph(m2.graph, m.graph)
    assert {(p.name, p.symbol, p.parent, p.members) for p in m2.plates} == {
        (p.name, p.symbol, p.parent, p.members) for p in m.plates
    }
    assert emit_model(m2) == text
    return text


def test_emit_model_is_canonical_and_stable():
    text = assert_round_trips(parse_model(GOOD))
    assert "obs node b [3];" in text


def test_emit_model_round_trips_ground_graphs(models):
    g = expand(models["banks"], {"Banks": 2, "Prices": [1, 2]})
    src = emit_model(g, name="ground")
    m2 = parse_model(src)
    assert m2.name == "ground"
    assert same_graph(m2.graph, g)


def test_emit_model_round_trips_plated_models(models):
    for name in ("coin", "banks"):
        assert_round_trips(models[name])
    # a top-level plate without member nodes has no member to open it at
    empty = parse_model("model m { node a; plate p [N] { } plate q [M] { node b; } a -> b; }")
    assert [p.name for p in empty.plates] == ["p", "q"]
    assert "plate p [N] {" in assert_round_trips(empty)


def test_emit_model_of_an_unnamed_plate_model_round_trips():
    g = ChainGraph(["theta", "x"], [directed("theta", "x")])
    m = PlateModel(g, (Plate("P", "N", frozenset({"x"})),))
    assert assert_round_trips(m).startswith("model G {")


def test_emit_model_rejects_overlapping_plates():
    # x sits in the sibling plates P and Q: nested blocks cannot say that
    g = ChainGraph(["y", "x"], [directed("y", "x")])
    m = PlateModel(g, (Plate("P", "N", frozenset({"x"})), Plate("Q", "M", frozenset({"x"}))))
    with pytest.raises(PlateError) as err:
        emit_model(m)
    assert str(err.value) == "node 'x' is in plates 'P' and 'Q', which do not nest; .cg text cannot place it in both"


def test_read_model_returns_the_diagnostics_of_both_steps():
    model, diags = read_model("model m { node a; det obs node b; a -> b; }")
    assert model is not None and [d.severity for d in diags] == ["warning"]
    model, diags = read_model("model m { node a; a -> b; }")
    assert model is None and [d.message for d in diags] == ["unknown node 'b' in edge"]
    model, diags = read_model("model m { node a [0]; a -> b; }")
    assert model is None and [d.message for d in diags] == ["domain size must be at least 1, got 0"]


def test_parse_model_raises_with_diagnostics():
    with pytest.raises(ModelError) as exc:
        parse_model("model m { node a; a -> b; }", filename="bad.cg")
    text = str(exc.value)
    assert "bad.cg" in text and "unknown node" in text


def test_load_model(tmp_path):
    p = tmp_path / "tiny.cg"
    p.write_text("model tiny { node a; }", encoding="utf-8")
    m = parse_model(p.read_text(encoding="utf-8"), str(p))
    assert m.graph.node_names == ("a",)
    broken = tmp_path / "broken.cg"
    broken.write_text("model { }", encoding="utf-8")
    with pytest.raises(ModelError, match="broken.cg"):
        parse_model(broken.read_text(encoding="utf-8"), str(broken))


# -- bundled corpus -----------------------------------------------------------------


def test_corpus_complete_and_loadable():
    assert corpus.MODEL_NAMES == (
        "fig1a", "fig1b", "fig2", "fig3", "ffnet", "boltzmann", "cad", "coin", "banks",
    )
    for name in corpus.MODEL_NAMES:
        assert corpus.load(name).name == name


def test_corpus_rejects_unknown_name():
    with pytest.raises(KeyError):
        corpus.load("nonesuch")


def test_corpus_round_trips_through_emitter():
    for name in corpus.MODEL_NAMES:
        assert_round_trips(corpus.load(name))


# -- property: emitter/parser loop ---------------------------------------------------


_ident = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in {"model", "node", "plate", "det", "obs"}
)


def _random_body(rng, names, where, path, ids):
    """Statements of one block: some of ``names`` (consumed; ``where`` maps
    each to its plate path) and up to two nested plates, numbered from
    ``ids``, down to three levels; each plate may stay empty."""
    out = []
    while names and rng.random() < 0.6:
        attrs = ("det " if rng.random() < 0.2 else "") + rng.choice(("", "obs "))
        dom = rng.choice(("", "", " [3]"))
        where[names[-1]] = path
        out.append(f"{attrs}node {names.pop()}{dom};")
    for _ in range(rng.randrange(3) if len(path) < 3 else 0):
        k = next(ids)
        body = _random_body(rng, names, where, path + (k,), ids)
        out.append(f"plate P{k} [N{k}] {{ {' '.join(body)} }}")
    return out


def test_random_models_round_trip():
    accepted = []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        names = data.draw(st.lists(_ident, min_size=1, max_size=6, unique=True))
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        pending, where = list(reversed(names)), {}
        decls = _random_body(rng, pending, where, (), itertools.count())
        for n in reversed(pending):
            where[n] = ()
            decls.append(f"node {n};")
        for i, u in enumerate(names):
            for v in names[i + 1 :]:
                pu, pv = where[u], where[v]
                roll = rng.random()
                if roll < 0.1 and pu == pv:
                    decls.append(f"{u} -- {v};")
                elif roll < 0.3 and pv[: len(pu)] == pu:
                    decls.append(f"{u} -> {v};")
                elif roll < 0.3 and pu[: len(pv)] == pv:
                    decls.append(f"{v} -> {u};")
        r = parse("model m { " + " ".join(decls) + " }")
        assert r.ok
        # a det node may have no parent, undirected edges may close a
        # semi-directed cycle, and names may look like expansion copies:
        # keep what resolves
        model = resolve(r.ast).model
        if model is not None:
            accepted.append(model)
            assert_round_trips(model)

    check()
    assert accepted
    assert any(m.plates for m in accepted)
