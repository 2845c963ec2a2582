"""Plates: replicated sub-models over index sets.

A plate wraps a set of template nodes and stands for that many i.i.d.
copies.  Directed arcs may cross into a plate (from outside to inside);
undirected edges never cross a boundary.  Bindings give each plate's
cardinality; an inner plate may be bound to a list of counts indexed by
its enclosing plate (ragged nesting), e.g. ``Banks=2, Prices=[2,3]``.

`expand` produces the ground graph (copies named ``base_i`` / ``base_i_j``).
`require_valid` is the one plate-validity check that `expand` and
`factorize.factorize_plated` (the symbolic nested-product form) both run.
The module imports only `core`: the model language loads it without the
factorizer.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

from .core import ChainGraph, Edge, NodeAttr, StateSpaceError, ValidationReport, Violation


class PlateError(ValueError):
    """Bad binding or misuse of a plate model."""


Binding = Mapping[str, Union[int, Sequence[int]]]

# one index suffix of an expansion copy's name (indices start at 1)
_COPY_SUFFIX = re.compile(r"_[1-9][0-9]*\Z")

# nodes plus edges of the largest ground graph `expand` builds
MAX_GROUND_SIZE = 1_000_000


class Plate(NamedTuple):
    """A replication box.  ``symbol`` names the index set (its cardinality
    under a binding); ``parent`` is the enclosing plate's name, if any."""

    name: str
    symbol: str
    members: frozenset[str]
    parent: str | None = None


class PlateModel:
    """A chain graph with plates.  The plates must form a forest: every
    parent names a plate of the model and no plate nests in itself, which
    construction checks.  The nesting is indexed once, here, and every plate
    consumer reads it."""

    def __init__(self, graph: ChainGraph, plates: tuple[Plate, ...] = (), name: str = "G") -> None:
        self.graph = graph
        self.plates = plates
        self.name = name  # the default is not a keyword, so emitted text parses
        names = {p.name for p in plates}
        if len(names) != len(plates):
            raise PlateError("duplicate plate name")
        children: dict[str | None, list[Plate]] = {}
        for p in plates:
            if p.parent is not None and p.parent not in names:
                raise PlateError(f"plate {p.name!r} nests in unknown plate {p.parent!r}")
            children.setdefault(p.parent, []).append(p)
        # paths grow down from the top-level plates; one they never reach
        # nests in a cycle
        paths: dict[str, tuple[Plate, ...]] = {}
        grow: list[tuple[Plate, ...]] = [()]
        while grow:
            path = grow.pop()
            for c in children.get(path[-1].name if path else None, ()):
                paths[c.name] = path + (c,)
                grow.append(paths[c.name])
        for p in plates:
            if p.name not in paths:
                raise PlateError(f"plate {p.name!r} nests in a cycle")

        membership: dict[str, list[Plate]] = {}
        for p in sorted(plates, key=lambda p: len(paths[p.name])):  # stable: depth, then declaration
            for v in p.members:
                membership.setdefault(v, []).append(p)
        innermost: dict[str, list[str]] = {p.name: [] for p in plates}
        for v in graph.sorted_nodes(v for v in membership if v in graph):
            innermost[membership[v][-1].name].append(v)

        self._paths = paths
        self._children = {k: tuple(ps) for k, ps in children.items()}
        self._membership = {v: tuple(ps) for v, ps in membership.items()}
        self._innermost = {k: tuple(vs) for k, vs in innermost.items()}

    def plate(self, name: str) -> Plate:
        return self._paths[name][-1]

    def path(self, p: Plate) -> tuple[Plate, ...]:
        """p and the plates around it, outermost first."""
        return self._paths[p.name]

    def depth(self, p: Plate) -> int:
        return len(self._paths[p.name]) - 1

    def children(self, p: Plate | None) -> tuple[Plate, ...]:
        """Plates nested directly in p (for None, the top-level plates), in
        declaration order."""
        return self._children.get(None if p is None else p.name, ())

    def membership(self, v: str) -> tuple[Plate, ...]:
        """Plates containing v, outermost first (depth, then declaration)."""
        return self._membership.get(v, ())

    def unnested(self, v: str) -> list[Plate]:
        """The plates of v off the path of its innermost plate: empty when
        v's plates nest, one inside the next."""
        chain = self.membership(v)
        return [p for p in chain if p not in self.path(chain[-1])] if chain else []

    def walk(self, p: Plate) -> Iterator[tuple[int, Plate | str | None]]:
        """Pre-order walk of p's subtree, each item tagged with its depth:
        ``(d, p)`` where p has depth d, then ``(d + 1, v)`` for each node v
        whose innermost plate is p, in declaration order, then the walks of
        p's nested plates, then ``(d, None)`` to close p."""
        stack: list[tuple[int, Plate | None]] = [(self.depth(p), p)]
        while stack:
            d, q = stack.pop()
            yield d, q
            if q is not None:
                yield from ((d + 1, v) for v in self._innermost[q.name])
                stack.append((d, None))
                stack += [(d + 1, c) for c in reversed(self.children(q))]


def validate_plates(m: PlateModel) -> ValidationReport:
    errors: list[Violation] = []
    g = m.graph
    symbols: dict[str, str] = {}

    for p in m.plates:
        if p.symbol in symbols:
            errors.append(
                Violation(
                    "plate-symbol",
                    f"index set {p.symbol!r} is used by plates {symbols[p.symbol]!r} and {p.name!r}",
                )
            )
        symbols.setdefault(p.symbol, p.name)
        for v in p.members:
            if v not in g:
                errors.append(Violation("plate-member", f"plate {p.name!r} lists unknown node {v!r}", (v,)))

    if errors:  # membership/boundary checks assume sane declarations
        return ValidationReport(errors, [])

    # a node inside an inner plate must also be inside every enclosing plate
    for p in m.plates:
        if p.parent is None:
            continue
        outer = m.plate(p.parent)
        for v in sorted(p.members - outer.members):
            errors.append(
                Violation(
                    "plate-membership",
                    f"node {v!r} is in plate {p.name!r} but not in its enclosing plate {outer.name!r}",
                    (v,),
                )
            )

    member_sets = {v: frozenset(p.name for p in m.membership(v)) for v in g.node_names}
    for e in g.edges:
        mu, mv = member_sets[e.u], member_sets[e.v]
        if mu == mv:
            continue
        if not e.directed:
            errors.append(
                Violation(
                    "plate-boundary",
                    f"undirected edge {e.u} -- {e.v} crosses a plate boundary",
                    (e.u, e.v),
                    (e.u, e.v),
                )
            )
        elif not mu < mv:
            errors.append(
                Violation(
                    "plate-boundary",
                    f"arc {e.u} -> {e.v} does not point into the deeper plate set",
                    (e.u, e.v),
                    (e.u, e.v),
                )
            )

    # declared names that look like expansion copies of a plated node: strip
    # index suffixes off each name, one at a time, and look the stems up
    clashes: list[tuple[int, int, str, str]] = []
    for j, w in enumerate(member_sets):
        stem = w
        while (cut := _COPY_SUFFIX.search(stem)) is not None:
            stem = stem[: cut.start()]
            if member_sets.get(stem):
                clashes.append((g.index(stem), j, stem, w))
    for _, _, v, w in sorted(clashes):
        errors.append(
            Violation("plate-collision", f"node {w!r} collides with expansion copies of plated node {v!r}", (v, w))
        )
    return ValidationReport(errors, [])


def require_valid(m: PlateModel) -> None:
    """Raise PlateError with every `validate_plates` message, if any."""
    report = validate_plates(m)
    if not report.ok:
        raise PlateError("; ".join(v.message for v in report.errors))


def _cardinality(m: PlateModel, p: Plate, b: Binding, ctx: Mapping[str, int]) -> int:
    """Instance count of plate p given the enclosing indices in ctx."""
    if p.symbol not in b:
        raise PlateError(f"unbound plate symbol {p.symbol!r}")
    val = b[p.symbol]
    if isinstance(val, (bool, str)) or not isinstance(val, (int, Sequence)):
        raise PlateError(f"binding for {p.symbol!r} must be an integer or a list of integers")
    if isinstance(val, int):
        if val < 1:
            raise PlateError(f"plate symbol {p.symbol!r} bound to non-positive count {val}")
        return val
    if p.parent is None:
        raise PlateError(f"list binding for {p.symbol!r} needs an enclosing plate")
    outer = m.plate(p.parent)
    outer_val = b.get(outer.symbol)
    if isinstance(outer_val, int) and len(val) != outer_val:
        raise PlateError(
            f"list binding for {p.symbol!r} has {len(val)} entries for {outer_val} instances of {outer.symbol!r}"
        )
    i = ctx.get(p.parent)
    if i is None:
        raise PlateError(f"list binding for {p.symbol!r} used outside plate {outer.name!r}")
    if i > len(val):
        raise PlateError(f"list binding for {p.symbol!r} has no entry for {outer.symbol!r} index {i}")
    n = val[i - 1]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PlateError(f"list binding for {p.symbol!r} has non-positive entry at index {i}")
    return n


def _index_tuples(m: PlateModel, chain: tuple[Plate, ...], b: Binding) -> Iterator[tuple[int, ...]]:
    """The index tuples over the plates of chain, in lexicographic order."""

    def rec(pos: int, ctx: dict[str, int], acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if pos == len(chain):
            yield acc
            return
        p = chain[pos]
        for i in range(1, _cardinality(m, p, b, ctx) + 1):
            ctx[p.name] = i
            yield from rec(pos + 1, ctx, acc + (i,))
            del ctx[p.name]

    return rec(0, {}, ())


def _ground_name(base: str, t: tuple[int, ...]) -> str:
    return base if not t else base + "_" + "_".join(str(i) for i in t)


def _copies(m: PlateModel, chain: tuple[Plate, ...], b: Binding) -> int:
    """How many tuples ``_index_tuples(m, chain, b)`` yields, or some number
    over MAX_GROUND_SIZE.  Only the indices of the plates before the last
    one bound to a list are listed; from there on the counts multiply."""
    last = max((k for k, p in enumerate(chain) if not isinstance(b.get(p.symbol), int)), default=0)
    n = 0
    for t in _index_tuples(m, chain[:last], b):
        ctx = {p.name: i for p, i in zip(chain, t)}
        n += math.prod(_cardinality(m, p, b, ctx) for p in chain[last:])
        if n > MAX_GROUND_SIZE:
            break
    return n


def _ground_size(m: PlateModel, b: Binding) -> int:
    """Nodes plus edges of ``expand(m, b)``, from the binding alone."""
    copies = {v: _copies(m, m.membership(v), b) for v in m.graph.node_names}
    # an arc's tail sits in a subset of its head's plates (validate_plates),
    # so each copy of the head gets exactly one copy of the edge
    return sum(copies.values()) + sum(copies[e.v] for e in m.graph.edges)


def expand(m: PlateModel, b: Binding) -> ChainGraph:
    """Ground chain graph: one copy of each node per index tuple, arcs
    replicated so endpoint copies agree on every shared plate."""
    require_valid(m)
    unused = sorted(set(b) - {p.symbol for p in m.plates})
    if unused:
        raise PlateError(f"no plate uses the bound symbol(s) {', '.join(map(repr, unused))}")
    size = _ground_size(m, b)
    if size > MAX_GROUND_SIZE:
        raise StateSpaceError(f"ground graph has {size} nodes and edges, over the limit of {MAX_GROUND_SIZE}")
    g = m.graph
    tuples = {v: list(_index_tuples(m, m.membership(v), b)) for v in g.node_names}
    names = {v: [_ground_name(v, t) for t in ts] for v, ts in tuples.items()}

    attrs: dict[str, NodeAttr] = {}
    origin: dict[str, str] = {}
    for v, copies in names.items():
        for name in copies:
            if name in attrs:
                raise PlateError(f"expansion name clash: {name!r} (from {origin[name]!r} and {v!r})")
            attrs[name] = g.attr(v)
            origin[name] = v

    edges: list[Edge] = []
    for e in g.edges:
        pv = {p.name: k for k, p in enumerate(m.membership(e.v))}
        shared = [(k, pv[p.name]) for k, p in enumerate(m.membership(e.u)) if p.name in pv]
        # copies of v grouped by their indices on the plates u shares; each
        # copy of u takes its group, in the order of an all-pairs loop
        group: dict[tuple[int, ...], list[str]] = {}
        for tv, name in zip(tuples[e.v], names[e.v]):
            group.setdefault(tuple(tv[k] for _, k in shared), []).append(name)
        for tu, name in zip(tuples[e.u], names[e.u]):
            for w in group.get(tuple(tu[k] for k, _ in shared), ()):
                edges.append(Edge(name, w, e.directed))
    return ChainGraph(attrs, edges)
