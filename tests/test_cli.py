import ast
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chaingraph import corpus, emit_model, to_dot
from chaingraph.cli import run
from chaingraph.markov import MAX_CLIQUE_NODES


MODELS = Path(__file__).resolve().parent.parent / "src" / "chaingraph" / "models"


def cg(name):
    return str(MODELS / f"{name}.cg")


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- happy paths -------------------------------------------------------------------


def test_validate_ok():
    code, out, err = invoke("validate", cg("fig2"))
    assert (code, out) == (0, "ok\n")


def test_components_and_subgraphs():
    code, out, _ = invoke("components", cg("fig2"))
    assert code == 0
    assert out == "a b\nc\nd\ne f g h\n"
    code, out, _ = invoke("subgraphs", cg("fig2"))
    assert code == 0
    assert out == "a b\nc d\ne f g h\n"


def test_moralize_lists_edges():
    code, out, _ = invoke("moralize", cg("fig1a"))
    assert code == 0
    lines = out.splitlines()
    assert "Age -- Occ" in lines
    assert len(lines) == 8  # the original eight edges; no marriages needed


def test_cliques_boltzmann():
    code, out, _ = invoke("cliques", cg("boltzmann"))
    assert code == 0
    assert out == "x1 h1 o wC1\nx2 h1 o wC2\nx3 x4 o wC3\n"


def test_query_true_false():
    assert invoke("query", cg("fig2"), "--ci", "a _||_ e | b,c")[:2] == (0, "true\n")
    assert invoke("query", cg("fig2"), "--ci", "a _||_ c | b,d")[:2] == (0, "false\n")


def test_factorize_text_latex_condition():
    code, out, _ = invoke("factorize", cg("fig2"))
    assert code == 0 and out.startswith("p(a,b) p(c|b)")
    code, out, _ = invoke("factorize", cg("fig2"), "--format", "latex")
    assert code == 0 and r"p(c \mid b)" in out
    code, out, _ = invoke("factorize", cg("boltzmann"), "--condition", "o")
    assert code == 0 and out.startswith("sum_{h1} [")
    code, out, _ = invoke("factorize", cg("cad"), "--condition", "c")
    assert code == 0 and " / sum_{c} [" in out


def test_factorize_plated_and_bound():
    code, out, _ = invoke("factorize", cg("banks"))
    assert code == 0
    assert out.startswith("p(theta) p(mu) p(lambda) prod_{i in Banks} [")
    code, out, _ = invoke("factorize", cg("coin"), "--bind", "N=2")
    assert code == 0
    assert out == "p(theta) p(heads_1|theta) p(heads_2|theta)\n"


# One emission rule, the master graph's topological order, whatever the
# declaration order: for a DAG, a plated model and its ground graph alike.


def test_child_declared_before_its_parent_comes_after_it(tmp_path):
    dag = tmp_path / "dag.cg"
    dag.write_text("model dag {\n    node y;\n    node x;\n    x -> y;\n}\n", encoding="utf-8")
    assert invoke("factorize", str(dag)) == (0, "p(x) p(y|x)\n", "")


def test_plated_and_bound_products_share_the_emission_order(tmp_path):
    plated = tmp_path / "plated.cg"
    plated.write_text(
        "model plated {\n    plate p [N] {\n        node y;\n        node z;\n    }\n"
        "    node x;\n    x -> y;\n    y -- z;\n}\n",
        encoding="utf-8",
    )
    code, out, _ = invoke("factorize", str(plated))
    assert (code, out) == (0, "p(x) prod_{i in N} [ f_0(x) f_1(y_i,z_i) f_2(y_i,x) ]\n")
    code, out, _ = invoke("factorize", str(plated), "--bind", "N=2")
    assert (code, out) == (0, "p(x) f_0(x) f_1(y_1,z_1) f_2(y_1,x) f_3(x) f_4(y_2,z_2) f_5(y_2,x)\n")


def test_expand_and_simplify_and_elim():
    code, out, _ = invoke("expand", cg("coin"), "--bind", "N=2")
    assert code == 0 and "theta -> heads_2;" in out
    code, out, _ = invoke("simplify", cg("fig1a"))
    assert code == 0 and "Age -> Occ;" not in out and "Age -> Dis;" in out
    code, out, _ = invoke("simplify", cg("cad"))  # a mixed model
    assert code == 0 and "s -> S;" not in out and "s -> c;" in out
    code, out, _ = invoke("elim-det", cg("ffnet"))
    assert code == 0 and "x1 -> o1;" in out and "h1" not in out


def test_expand_ragged_binding():
    code, out, _ = invoke("expand", cg("banks"), "--bind", "Banks=2", "--bind", "Prices=1,2")
    assert code == 0
    assert "obs node spread_2_2;" in out
    assert "spread_1_2" not in out


def test_dot_output():
    code, out, _ = invoke("dot", cg("banks"))
    assert code == 0
    assert out.startswith('digraph "banks" {')
    assert 'subgraph "cluster_price"' in out
    assert '"lambda" -> "spread";' in out
    code, out, _ = invoke("dot", cg("fig2"))
    assert '"a" -- "b"' not in out  # undirected edges use dir=none in digraph
    assert '"a" -> "b" [dir=none];' in out or '"b" -> "a" [dir=none];' in out


def test_dot_marks_special_nodes():
    text = to_dot(corpus.load("ffnet"))
    assert "peripheries=2" in text  # deterministic nodes
    text2 = to_dot(corpus.load("fig1a"))
    assert text2.count("fillcolor=lightgrey") == 4  # the four observed nodes


def test_oracle_summary_and_json():
    code, out, _ = invoke("oracle", cg("fig3"), "--trials", "2", "--seed", "3")
    assert code == 0
    assert "soundness: ok" in out
    code, out, _ = invoke("oracle", cg("fig3"), "--trials", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["nodes"] == 6
    assert len(payload["records"]) == 240


def test_oracle_bound_plated_model():
    code, out, _ = invoke("oracle", cg("coin"), "--bind", "N=3", "--trials", "2")
    assert code == 0 and "soundness: ok" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--trials", "0"), "--trials must be at least 1, got 0"),
        (("--tol", "-1"), "--tol must be a finite number >= 0, got -1"),
        (("--tol", "nan"), "--tol must be a finite number >= 0, got nan"),
        (("--tol", "inf"), "--tol must be a finite number >= 0, got inf"),
        (("--seed", "-5"), "--seed must be at least 0, got -5"),
    ],
)
def test_oracle_argument_checks_exit_2(flags, message):
    code, out, err = invoke("oracle", cg("fig3"), *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_output_file(tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = invoke("factorize", cg("fig2"), "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("p(a,b)")


def test_output_is_deterministic():
    for args in (
        ("components", cg("fig2")),
        ("cliques", cg("boltzmann")),
        ("factorize", cg("banks")),
        ("dot", cg("banks")),
        ("moralize", cg("fig2")),
    ):
        assert invoke(*args) == invoke(*args)


# -- failure paths -----------------------------------------------------------------


def test_invalid_model_exits_1(tmp_path):
    bad = tmp_path / "bad.cg"
    bad.write_text("model bad { node a; node b; a -> b; b -> a; }", encoding="utf-8")
    code, out, err = invoke("validate", str(bad))
    assert code == 1
    assert "duplicate edge" in err
    assert out == ""


def test_parse_errors_exit_1_with_positions(tmp_path):
    bad = tmp_path / "syntax.cg"
    bad.write_text("model m { node ; }", encoding="utf-8")
    code, _, err = invoke("validate", str(bad))
    assert code == 1
    assert "syntax.cg:1:" in err


def test_missing_file_is_a_usage_error():
    code, _, err = invoke("validate", "/nonexistent/m.cg")
    assert code == 2
    assert "cannot read" in err


def test_model_that_is_not_utf8_is_a_usage_error(tmp_path):
    latin = tmp_path / "latin.cg"
    latin.write_bytes(b"model m {\n node caf\xe9;\n}\n")
    code, out, err = invoke("validate", str(latin))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {latin}: 'utf-8' codec can't decode byte 0xe9")


def test_output_into_a_missing_directory_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = invoke("factorize", cg("fig2"), "-o", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_usage_errors_exit_2():
    # malformed query
    code, _, err = invoke("query", cg("fig2"), "--ci", "a b")
    assert code == 2
    # unknown node in query
    code, _, err = invoke("query", cg("fig2"), "--ci", "a _||_ zz")
    assert code == 2 and "unknown node" in err
    # plated model without binding
    code, _, err = invoke("factorize", cg("coin"), "--condition", "theta")
    assert code == 2 and "bind the plates" in err
    # malformed binding
    code, _, err = invoke("expand", cg("coin"), "--bind", "N=x")
    assert code == 2
    # a binding for a symbol that no plate uses, on a plated model and on a plain one
    code, out, err = invoke("factorize", cg("coin"), "--bind", "N=2", "--bind", "Typo=4")
    assert code == 2 and not out and "no plate uses the bound symbol(s) 'Typo'" in err
    code, out, err = invoke("query", cg("fig2"), "--bind", "N=2", "--ci", "a _||_ b")
    assert code == 2 and not out and "no plate uses the bound symbol(s) 'N'" in err
    # so a model without plates expands with no binding, to itself
    code, out, _ = invoke("expand", cg("fig2"))
    assert code == 0 and out == emit_model(corpus.load("fig2").graph, name="fig2")
    # duplicate binding
    code, _, err = invoke("expand", cg("coin"), "--bind", "N=1", "--bind", "N=2")
    assert code == 2 and "twice" in err
    # conditioning on an observed variable
    code, _, err = invoke("factorize", cg("boltzmann"), "--condition", "x1")
    assert code == 2 and "not free" in err
    # expand without --bind
    code, _, err = invoke("expand", cg("coin"))
    assert code == 2
    # simplify on a plated model
    code, _, err = invoke("simplify", cg("coin"))
    assert code == 2 and "expand first" in err
    # unknown subcommand handled by argparse
    code, _, _ = invoke("frobnicate", cg("fig2"))
    assert code == 2


def test_argument_errors_go_to_the_given_err(capsys):
    code, out, err = invoke("nope")
    assert (code, out) == (2, "")
    assert "invalid choice: 'nope'" in err and err.startswith("usage: chaingraph")
    code, out, err = invoke("validate")
    assert (code, out) == (2, "")
    assert "the following arguments are required: model" in err
    # nothing reaches the process's own streams
    assert capsys.readouterr() == ("", "")


def test_resource_errors_exit_3():
    # ground coin with N=10 has 11 nodes, one over the sweep's limit
    code, _, err = invoke("oracle", cg("coin"), "--bind", "N=10")
    assert code == 3
    assert "has 11 nodes, over the limit of 10" in err


@pytest.mark.parametrize("command", ["factorize", "cliques", "simplify"])
def test_block_over_the_clique_bound_exits_3(tmp_path, command):
    n = MAX_CLIQUE_NODES + 1
    path = tmp_path / "long.cg"
    body = "".join(f"    node x{i};\n" for i in range(n)) + "".join(f"    x{i} -- x{i + 1};\n" for i in range(n - 1))
    path.write_text("model long {\n" + body + "}\n", encoding="utf-8")
    code, out, err = invoke(command, str(path))
    assert (code, out) == (3, "")
    assert err == f"error: clique enumeration graph has {n} nodes, over the limit of {MAX_CLIQUE_NODES}\n"


@pytest.mark.parametrize(
    "command", [("expand",), ("factorize",), ("query", "--ci", "theta _||_ heads_1"), ("oracle",)]
)
def test_ground_size_guard_exits_3_before_building(command):
    start = time.perf_counter()
    code, out, err = invoke(command[0], cg("coin"), *command[1:], "--bind", "N=1000000000")
    assert (code, out) == (3, "")
    assert err == "error: ground graph has 2000000001 nodes and edges, over the limit of 1000000\n"
    assert time.perf_counter() - start < 1


def test_non_ascii_numeral_is_a_diagnostic(tmp_path):
    bad = tmp_path / "sup.cg"
    bad.write_text("model m {\n    node x [\u00b2];\n}\n", encoding="utf-8")
    code, out, err = invoke("validate", str(bad))
    assert code == 1 and out == ""
    assert err.startswith(f"{bad}:2:13: error: ")
    assert "Traceback" not in err


def test_import_leaves_numpy_unloaded():
    src = str(MODELS.parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = (
        "import sys, chaingraph\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('chaingraph.'))\n"
        "print(*loaded())\n"
        "import chaingraph.lang\n"
        "print(*loaded())\n"
        "import chaingraph.cli\n"
        "print('numpy' in sys.modules)\n"
        "for name in (*chaingraph.__all__, 'corpus', 'oracle', 'cli'): getattr(chaingraph, name)\n"
        "print('numpy' in sys.modules)\n"
        "print(chaingraph.corpus.load, chaingraph.oracle.__name__, chaingraph.cli.__name__)\n"
        "print(set(chaingraph.__all__) <= set(dir(chaingraph)), len(set(chaingraph.__all__)) == len(chaingraph.__all__))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    # the package loads no module of its own; the language needs only these
    assert lines[:2] == ["", "chaingraph.core chaingraph.lang chaingraph.plates"]
    # numpy is loaded only once an oracle name is used
    assert lines[2:4] == ["False", "True"]
    assert lines[4].startswith("<function load at ") and lines[4].endswith(" chaingraph.oracle chaingraph.cli")
    assert lines[5:] == ["True True"]


def test_no_module_imports_a_private_name():
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(MODELS.parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


def test_cli_call_leaves_heavy_modules_unloaded():
    # -S: the modules an installation's .pth files import stay out of the count
    env = dict(os.environ, PYTHONPATH=str(MODELS.parent.parent))
    probe = (
        "import sys, chaingraph.cli\n"
        f"code = chaingraph.cli.run(['factorize', {cg('fig2')!r}])\n"
        "heavy = ('dataclasses', 'inspect', 'json', 'numpy')\n"
        "print(code, *sorted(m for m in heavy if m in sys.modules))\n"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "p(a,b) p(c|b) p(d|a,c) f_0(b,c) f_1(b,f) f_2(c,e) f_3(e,f) f_4(e,g) f_5(f,h) f_6(g,h)",
        "0",
    ]


def test_elim_det_error_exit_1(tmp_path):
    bad = tmp_path / "detundir.cg"
    bad.write_text(
        "model m { node x; det node d; node y; x -> d; d -- y; }", encoding="utf-8"
    )
    code, _, err = invoke("elim-det", str(bad))
    assert code == 1
    assert "undirected" in err


@pytest.mark.parametrize("command", ["validate", "factorize", "simplify"])
def test_det_node_with_undirected_edges_is_invalid(tmp_path, command):
    bad = tmp_path / "detundir.cg"
    bad.write_text("model m { node a; det node d; node c; node e; a -> d; d -- c; c -- e; }", encoding="utf-8")
    code, out, err = invoke(command, str(bad))
    assert (code, out) == (1, "")
    assert err == f"{bad}:1:19: error: deterministic node 'd' has undirected edges\n"
