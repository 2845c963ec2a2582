"""Byte-level snapshot of the CLI on the bundled corpus.

Every corpus model goes through each read-only subcommand in process, via
``cli.run``, together with a few bound, conditioned and query calls.  The
exit code, stdout and stderr of each call, with the model path shown as the
model name, must match ``tests/data/cli_snapshot.txt``.  After an intended
output change, rewrite that file with

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

from __future__ import annotations

import io
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
    ("banks", "factorize", "--bind", "Banks=2", "--bind", "Prices=2,3"),
    ("banks", "expand", "--bind", "Banks=2", "--bind", "Prices=2,3"),
    ("fig2", "query", "--ci", "a _||_ e | b,c"),
    ("boltzmann", "factorize", "--condition", "o"),
)


def calls() -> list[tuple[str, ...]]:
    """(model name, subcommand, options...) for every recorded call."""
    return [(name, *cmd) for name in corpus.MODEL_NAMES for cmd in COMMANDS] + list(EXTRA)


def record(name: str, command: str, *options: str) -> str:
    path = str(MODELS / f"{name}.cg")
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
    return "".join(record(*call) for call in calls())


def test_cli_output_matches_snapshot():
    assert snapshot() == SNAPSHOT.read_text(encoding="utf-8")


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(snapshot(), encoding="utf-8", newline="\n")
