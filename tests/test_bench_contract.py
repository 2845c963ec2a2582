"""The names the benchmark reaches in chaingraph exist.

`perfbench/workloads.py` is read as source, not imported, so a deletion or
rename in the package that would break a benchmark run fails here first.
"""

import ast
import importlib
from pathlib import Path

import chaingraph
from chaingraph import conditional_subgraphs, factorize_chain, master_graph, oracle

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _tree():
    return ast.parse(WORKLOADS.read_text("utf-8"))


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _package_paths(tree):
    """Every attribute path read off the package: ``cg.x.y`` and
    ``self.cg.x.y`` give ``x.y``."""
    out = set()
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, ast.Attribute) else None
        for root in ("cg.", "self.cg."):
            if name and name.startswith(root):
                out.add(name[len(root):])
    return out


def _literal(tree, target):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == target for t in node.targets):
            return node.value
    raise AssertionError(f"{target} not found in {WORKLOADS.name}")


def _resolves(obj, path):
    for part in path.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_package_name_the_benchmark_reads_exists():
    paths = _package_paths(_tree())
    assert {"factorize_chain", "max_cliques", "UndirectedGraph", "implies_ci"} <= paths
    missing = sorted(p for p in paths if not _resolves(chaingraph, p))
    assert not missing, f"benchmark reads names chaingraph lacks: {missing}"


def test_every_module_the_benchmark_imports_from_the_package_exists():
    imported = {
        alias.name
        for node in ast.walk(_tree())
        if isinstance(node, ast.ImportFrom) and node.module == "chaingraph"
        for alias in node.names
    }
    assert imported == {"cli", "oracle"}
    assert callable(importlib.import_module("chaingraph.cli").run)


def test_oracle_steps_name_functions_of_the_oracle():
    tree = _tree()
    steps = _literal(tree, "ORACLE_STEPS")
    counts = _literal(tree, "ORACLE_COUNTS")
    names = {k.value for k in steps.keys} | {k.value for k in counts.keys}
    assert names
    missing = sorted(n for n in names if not callable(getattr(oracle, n, None)))
    assert not missing, f"ORACLE_STEPS or ORACLE_COUNTS name what chaingraph.oracle lacks: {missing}"


def test_conditional_subgraph_members_the_benchmark_reads_exist(graphs):
    # the cliques layer reads each undirected conditional subgraph as `sub`
    read = {
        node.attr
        for node in ast.walk(_tree())
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sub"
    }
    assert "uncompleted" in read
    sub = next(s for s in conditional_subgraphs(graphs["fig2"]) if s.flavor == "undirected")
    missing = sorted(a for a in read if not hasattr(sub, a))
    assert not missing, f"benchmark reads what a conditional subgraph lacks: {missing}"


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _binds(node, var):
    """The values ``node`` binds to the name ``var``: the right-hand sides
    of its assignments for a function, the iterables for a comprehension."""
    if isinstance(node, ast.FunctionDef):
        return [
            a.value
            for a in ast.walk(node)
            if isinstance(a, ast.Assign) and any(getattr(t, "id", None) == var for t in a.targets)
        ]
    if isinstance(node, _COMPREHENSIONS):
        return [c.iter for c in node.generators if getattr(c.target, "id", None) == var]
    return []


def _members_read(tree, var, bound_to):
    """The attributes read off ``var`` in every function or comprehension
    that binds it to a value whose source ends with one of ``bound_to``,
    skipping nested comprehensions that bind ``var`` to something else."""
    read = set()
    for scope in ast.walk(tree):
        values = [ast.unparse(v.func if isinstance(v, ast.Call) else v) for v in _binds(scope, var)]
        if not any(v.endswith(bound_to) for v in values):
            continue
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if _binds(node, var):
                continue
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == var:
                read.add(node.attr)
            todo.extend(ast.iter_child_nodes(node))
    return read


def test_master_graph_and_factor_members_the_benchmark_reads_exist(graphs):
    # `mg` is a master graph, `e` a factor expression and `t` one of its
    # terms; the `e` of an edge-list comprehension is an edge, not checked here
    tree = _tree()
    g = graphs["fig2"]
    e = factorize_chain(g)
    for var, bound_to, obj, needed in (
        ("mg", ("master_graph",), master_graph(g), {"blocks"}),
        ("e", ("factorize_chain", "factorize_plated"), e, {"terms"}),
        ("t", ("e.terms",), e.terms[0], {"kind", "vars"}),
    ):
        read = _members_read(tree, var, bound_to)
        assert needed <= read, (var, read)
        missing = sorted(a for a in read if not hasattr(obj, a))
        assert not missing, f"benchmark reads what {type(obj).__name__} lacks: {missing}"
