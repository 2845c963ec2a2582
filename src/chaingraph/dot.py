"""Graphviz export.

Drawing conventions: undirected edges are drawn with ``dir=none``, observed
nodes are filled, deterministic nodes get doubled peripheries, and each
plate becomes a cluster labeled with its cardinality symbol.
"""

from __future__ import annotations

from typing import Union

from .core import ChainGraph
from .plates import Plate, PlateModel


def _q(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_stmt(g: ChainGraph, name: str) -> str:
    a = g.attr(name)
    opts: list[str] = []
    if a.observed:
        opts.append("style=filled")
        opts.append("fillcolor=lightgrey")
    if a.deterministic:
        opts.append("peripheries=2")
    suffix = f" [{', '.join(opts)}]" if opts else ""
    return f"{_q(name)}{suffix};"


def to_dot(m: Union[PlateModel, ChainGraph]) -> str:
    """DOT text for a graph or plate model; deterministic for a given input."""
    if isinstance(m, ChainGraph):
        m = PlateModel(m, (), name="G")
    g = m.graph

    lines: list[str] = [f"digraph {_q(m.name)} {{", "    node [shape=ellipse];"]

    # a node is drawn in its innermost plate's cluster
    for root in m.children(None):
        for d, item in m.walk(root):
            pad = "    " * (d + 1)
            if isinstance(item, Plate):
                lines.append(f"{pad}subgraph {_q('cluster_' + item.name)} {{")
                lines.append(f'{pad}    label="{item.symbol}";')
                lines.append(f"{pad}    labelloc=b;")
            elif item is None:
                lines.append(f"{pad}}}")
            else:
                lines.append(f"{pad}{_node_stmt(g, item)}")
    for v in g.node_names:
        if not m.membership(v):
            lines.append(f"    {_node_stmt(g, v)}")

    for e in g.edges:
        attr = "" if e.directed else " [dir=none]"
        lines.append(f"    {_q(e.u)} -> {_q(e.v)}{attr};")

    lines.append("}")
    return "\n".join(lines) + "\n"
