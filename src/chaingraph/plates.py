"""Plates: replicated sub-models over index sets.

A plate wraps a set of template nodes and stands for that many i.i.d.
copies.  Directed arcs may cross into a plate (from outside to inside);
undirected edges never cross a boundary.  Bindings give each plate's
cardinality; an inner plate may be bound to a list of counts indexed by
its enclosing plate (ragged nesting), e.g. ``Banks=2, Prices=[2,3]``.

`expand` produces the ground graph (copies named ``base_i`` / ``base_i_j``);
`factorize_plated` without a binding yields the symbolic nested-product
form, with one product per plate, mirroring the template structure.  Its
terms are those of `factorize_chain` on the template graph, in the same
emission order: each term sits in the product of its block's plates, and a
plate product takes the place of the first term inside it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Mapping, Sequence, Union

from .core import ChainGraph, Edge, NodeAttr, ValidationReport, Violation
from .factorize import (
    FactorError,
    FactorExpression,
    FactorTerm,
    Item,
    PlateProduct,
    _block_terms,
    _metadata,
    factorize_chain,
)


class PlateError(ValueError):
    """Bad binding or misuse of a plate model."""


Binding = Mapping[str, Union[int, Sequence[int]]]

_INDEX_LETTERS = "ijklmn"


@dataclass(frozen=True)
class Plate:
    """A replication box.  ``symbol`` names the index set (its cardinality
    under a binding); ``parent`` is the enclosing plate's name, if any."""

    name: str
    symbol: str
    members: frozenset[str]
    parent: str | None = None


@dataclass(frozen=True)
class PlateModel:
    graph: ChainGraph
    plates: tuple[Plate, ...] = ()
    name: str = "model"

    def __post_init__(self) -> None:
        names = [p.name for p in self.plates]
        if len(set(names)) != len(names):
            raise PlateError("duplicate plate name")

    def plate(self, name: str) -> Plate:
        for p in self.plates:
            if p.name == name:
                return p
        raise KeyError(name)

    def depth(self, p: Plate) -> int:
        d, seen = 0, {p.name}
        while p.parent is not None:
            p = self.plate(p.parent)
            if p.name in seen:  # defensive; validate_plates reports this
                raise PlateError(f"plate nesting cycle at {p.name!r}")
            seen.add(p.name)
            d += 1
        return d

    def membership(self, v: str) -> tuple[Plate, ...]:
        """Plates containing v, outermost first (depth, then declaration)."""
        ps = [p for p in self.plates if v in p.members]
        order = {p.name: i for i, p in enumerate(self.plates)}
        return tuple(sorted(ps, key=lambda p: (self.depth(p), order[p.name])))


def validate_plates(m: PlateModel) -> ValidationReport:
    errors: list[Violation] = []
    g = m.graph
    names = {p.name for p in m.plates}
    symbols: dict[str, str] = {}

    for p in m.plates:
        if p.parent is not None and p.parent not in names:
            errors.append(Violation("plate-parent", f"plate {p.name!r} nests in unknown plate {p.parent!r}"))
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

    # nesting must be a forest
    for p in m.plates:
        seen = {p.name}
        q: Plate | None = p
        while q is not None and q.parent in names:
            q = m.plate(q.parent)  # type: ignore[arg-type]
            if q.name in seen:
                errors.append(Violation("plate-nesting", f"plate nesting cycle through {q.name!r}"))
                break
            seen.add(q.name)

    if errors:  # membership/boundary checks assume a sane forest
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

    # declared names that look like expansion copies of a plated node
    for v in g.node_names:
        if not member_sets[v]:
            continue
        pat = re.compile(re.escape(v) + r"(?:_[1-9][0-9]*)+\Z")
        for w in g.node_names:
            if w != v and pat.fullmatch(w):
                errors.append(
                    Violation(
                        "plate-collision",
                        f"node {w!r} collides with expansion copies of plated node {v!r}",
                        (v, w),
                    )
                )
    return ValidationReport(errors, [])


def _require_valid(m: PlateModel) -> None:
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


def _index_tuples(m: PlateModel, chain: tuple[Plate, ...], b: Binding) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(pos: int, ctx: dict[str, int], acc: tuple[int, ...]) -> None:
        if pos == len(chain):
            out.append(acc)
            return
        p = chain[pos]
        for i in range(1, _cardinality(m, p, b, ctx) + 1):
            ctx[p.name] = i
            rec(pos + 1, ctx, acc + (i,))
            del ctx[p.name]

    rec(0, {}, ())
    return out


def indval(m: PlateModel, v: str, b: Binding) -> set[tuple[int, ...]]:
    """All index tuples of node v: the cross product of the index ranges of
    the plates containing it.  A node in no plate has the single empty tuple."""
    if v not in m.graph:
        raise KeyError(v)
    return set(_index_tuples(m, m.membership(v), b))


def _ground_name(base: str, t: tuple[int, ...]) -> str:
    return base if not t else base + "_" + "_".join(str(i) for i in t)


def expand(m: PlateModel, b: Binding) -> ChainGraph:
    """Ground chain graph: one copy of each node per index tuple, arcs
    replicated so endpoint copies agree on every shared plate."""
    _require_valid(m)
    g = m.graph
    chains = {v: m.membership(v) for v in g.node_names}
    tuples = {v: _index_tuples(m, chains[v], b) for v in g.node_names}

    attrs: dict[str, NodeAttr] = {}
    origin: dict[str, str] = {}
    for v in g.node_names:
        for t in tuples[v]:
            name = _ground_name(v, t)
            if name in attrs:
                raise PlateError(f"expansion name clash: {name!r} (from {origin[name]!r} and {v!r})")
            attrs[name] = g.attr(v)
            origin[name] = v

    edges: list[Edge] = []
    for e in g.edges:
        pu = {p.name: k for k, p in enumerate(chains[e.u])}
        pv = {p.name: k for k, p in enumerate(chains[e.v])}
        shared = [(pu[n], pv[n]) for n in pu if n in pv]
        for tu in tuples[e.u]:
            for tv in tuples[e.v]:
                if all(tu[a] == tv[bz] for a, bz in shared):
                    edges.append(Edge(_ground_name(e.u, tu), _ground_name(e.v, tv), e.directed))
    return ChainGraph(attrs, edges)


# -- symbolic (unbound) factorization ---------------------------------------


def _plate_letter(depth: int) -> str:
    return _INDEX_LETTERS[depth] if depth < len(_INDEX_LETTERS) else f"i{depth}"


def _suffix(m: PlateModel, v: str) -> str:
    chain = m.membership(v)
    return _ground_name(v, ()) if not chain else v + "".join(
        "_" + _plate_letter(m.depth(p)) for p in chain
    )


def _index_set_label(m: PlateModel, p: Plate) -> str:
    args = []
    q = p
    while q.parent is not None:
        q = m.plate(q.parent)
        args.append(_plate_letter(m.depth(q)))
    if not args:
        return p.symbol
    return f"{p.symbol}({','.join(reversed(args))})"


def _symbolic_expression(m: PlateModel) -> FactorExpression:
    g = m.graph
    chains = {v: m.membership(v) for v in g.node_names}
    for v, chain in chains.items():
        depths = [m.depth(p) for p in chain]
        if sorted(set(depths)) != list(range(len(chain))):
            raise FactorError(
                f"node {v!r} sits in overlapping plates; no nested product form exists — bind the plates instead"
            )
    rename = {v: _suffix(m, v) for v in g.node_names}

    # each term with its block's plate chain (undirected edges never cross
    # a plate boundary, so a block's members share one) and its emission
    # position, which orders the terms as their blocks are ordered
    placed: list[tuple[tuple[Plate, ...], int, FactorTerm]] = []
    for pos, (sub, t) in enumerate(_block_terms(g)):
        chain = chains[next(iter(sub.own_nodes))]
        renamed = replace(
            t, head=tuple(rename[v] for v in t.head), given=tuple(rename[v] for v in t.given)
        )
        placed.append((chain, pos, renamed))

    plate_order = {p.name: i for i, p in enumerate(m.plates)}

    def build(prefix: tuple[Plate, ...]) -> tuple[list[tuple[int, Item]], int]:
        """Items whose plate chain extends ``prefix``, keyed for ordering."""
        keyed: list[tuple[int, Item]] = []
        for chain, pos, t in placed:
            if chain == prefix:
                keyed.append((pos, t))
        children = sorted(
            {chain[len(prefix)].name for chain, _, _ in placed if chain[: len(prefix)] == prefix and len(chain) > len(prefix)},
            key=lambda n: plate_order[n],
        )
        for name in children:
            p = m.plate(name)
            inner, first = build(prefix + (p,))
            keyed.append(
                (first, PlateProduct(_plate_letter(m.depth(p)), _index_set_label(m, p), tuple(it for _, it in inner)))
            )
        keyed.sort(key=lambda kv: kv[0])
        return keyed, min((k for k, _ in keyed), default=0)

    items, _ = build(())
    meta = _metadata(g)
    return FactorExpression(
        items=tuple(it for _, it in items),
        free_vars=frozenset(rename[v] for v in meta["free_vars"]),
        given_vars=frozenset(rename[v] for v in meta["given_vars"]),
        order=tuple(rename[v] for v in meta["order"]),
        domains={rename[v]: s for v, s in meta["domains"].items()},
    )


def factorize_plated(m: PlateModel, b: Binding | None = None) -> FactorExpression:
    """With a binding: the ground graph's factorization.  Without: the
    symbolic nested-product form, one product per plate."""
    _require_valid(m)
    if b is not None:
        return factorize_chain(expand(m, b))
    if not m.plates:
        return factorize_chain(m.graph)
    return _symbolic_expression(m)
