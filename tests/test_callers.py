"""Every private definition in the package is used by the package itself.

A private function, class, or method of a private class that nothing in
``src`` refers to is either dead or kept alive only by tests; either way it
is a second path to delete.  References are found by name with `ast`: a
``Name`` or an attribute ``.name`` anywhere in the package outside the
definition's own body counts as a caller.
"""

import ast
import pathlib

import chaingraph

PACKAGE = pathlib.Path(chaingraph.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """(qualified name, node) of each module-level private function and
    class, and of each method of a private class but its dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _private(node.name):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                        yield f"{node.name}.{item.name}", item


def uncalled(package):
    """``file:qualified name`` of each private definition in ``package`` (a
    directory of modules) that no code of the package outside it refers to."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    refs = {}  # name -> [(file, line)]
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((file, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((file, node.lineno))
    out = []
    for file, tree in trees.items():
        for name, node in _definitions(tree):
            outside = [
                (f, line) for f, line in refs.get(node.name, [])
                if f != file or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                out.append(f"{file}:{name}")
    return out


def test_every_private_definition_has_a_caller():
    assert uncalled(PACKAGE) == []


def test_an_uncalled_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return _used_too()\n\n"
        "def _used_too():\n    return 1\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\n"
        "class _Parser:\n"
        "    def __init__(self):\n        self.n = 0\n\n"
        "    def step(self):\n        return self.step_more()\n\n"
        "    def step_more(self):\n        return 0\n\n"
        "    def skip_block(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import _used, _Parser\n\nVALUE = _used() + _Parser().step()\n")
    assert uncalled(tmp_path) == ["a.py:_recursive", "a.py:_Parser.skip_block"]
