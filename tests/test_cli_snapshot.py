"""Byte-level snapshot of the CLI on the bundled corpus.

Every corpus model goes through each read-only subcommand in process, via
``cli.run``, together with a few bound, conditioned and query calls, and
``validate`` runs on a few malformed sources to pin the reject paths.  The
exit code, stdout and stderr of each call, with the model path shown as the
model name, must match ``tests/data/cli_snapshot.txt``.  After an intended
output change, rewrite that file with

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

import chaingraph
from chaingraph import corpus
from chaingraph.cli import run

MODELS = Path(chaingraph.__file__).resolve().parent / "models"
SNAPSHOT = Path(__file__).resolve().parent / "data" / "cli_snapshot.txt"

COMMANDS = (
    ("validate",),
    ("components",),
    ("subgraphs",),
    ("moralize",),
    ("cliques",),
    ("dot",),
    ("simplify",),
    ("elim-det",),
    ("factorize",),
    ("factorize", "--format", "latex"),
)

EXTRA = (
    ("coin", "factorize", "--bind", "N=3"),
    ("coin", "expand", "--bind", "N=3"),
    ("coin", "expand", "--bind", "N=1000000000"),
    ("banks", "factorize", "--bind", "Banks=2", "--bind", "Prices=2,3"),
    ("banks", "expand", "--bind", "Banks=2", "--bind", "Prices=2,3"),
    ("fig2", "query", "--ci", "a _||_ e | b,c"),
    ("boltzmann", "factorize", "--condition", "o"),
    ("fig1a", "oracle", "--trials", "3", "--json"),
    ("fig3", "oracle", "--trials", "3", "--json"),
    ("coin", "oracle", "--bind", "N=3", "--trials", "3", "--json"),
)

# name -> source; each is recorded through ``validate``
MALFORMED = {
    "stray_dash": "model m {\n    node a;\n    node b;\n    a - b;\n}\n",
    "unexpected_char": "model m {\n    node a$;\n    node b;\n}\n",
    "non_ascii_ident": "# d\u00e9j\u00e0 vu \u20ac \U0001f600\nmodel m {\n    node ok;  # caf\u00e9\n    node na\u00efve;\n}\n",
    "missing_semi": "model m {\n    node a\n    node b;\n}\n",
    "unclosed_brace": "model m {\n    node a;\n    plate p [N] {\n        node b;\n}\n",
    "zero_domain": "model m {\n    node a [0];\n    node b [2];\n}\n",
}


def calls() -> list[tuple[str, ...]]:
    """(model name, subcommand, options...) for every recorded call."""
    return [(name, *cmd) for name in corpus.MODEL_NAMES for cmd in COMMANDS] + list(EXTRA)


def record(name: str, command: str, *options: str, models: Path = MODELS) -> str:
    path = str(models / f"{name}.cg")
    out, err = io.StringIO(), io.StringIO()
    code = run([command, path, *options], out=out, err=err)
    lines = [f"$ {command} {name} {' '.join(options)}".rstrip(), f"exit {code}"]
    for prefix, text in (("  ", out.getvalue()), ("! ", err.getvalue())):
        text = text.replace(path, name)
        lines.extend(prefix + line for line in text.splitlines())
        if text and not text.endswith("\n"):
            lines.append(prefix + "\\ no newline at end")
    return "\n".join(lines) + "\n"


def snapshot() -> str:
    text = "".join(record(*call) for call in calls())
    with tempfile.TemporaryDirectory() as tmp:
        for name, source in MALFORMED.items():
            (Path(tmp) / f"{name}.cg").write_text(source, encoding="utf-8")
            text += record(name, "validate", models=Path(tmp))
    return text


def test_cli_output_matches_snapshot():
    assert snapshot() == SNAPSHOT.read_text(encoding="utf-8")


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(snapshot(), encoding="utf-8", newline="\n")
