"""Symbolic factorizations of chain-graph models.

A factorization is an ordered product of terms:

* ``conditional`` -- p(x | parents), or p(a,b) for a parentless undirected
  block that is a single clique;
* ``potential`` -- f_k(C), one per maximal clique of an undirected block
  extended with its parents (direction dropped, no completion edges);
* ``normalizer`` -- f_k(Y) over the block's parent set Y, the term that
  makes each undirected block's conditional sum to one (rendered ``Z^-1``
  when Y is empty, numbered ``Z_0^-1``, ``Z_1^-1``, ... when two or more
  blocks have no parents);
* ``delta`` -- delta(x | parents) for a deterministic node.

Every product comes from one rule: terms are emitted one chain component
at a time, in the master graph's topological order (among components whose
parents are all emitted, the one declared first goes next); within an
undirected block the normalizer comes first, then potentials in canonical
clique order.  Potential labels count up globally through the expression.
A DAG is the case where every component is a single node, so its product
is one p(x | parents(x)) per node in that same order, and `plates` places
these same terms inside nested plate products.  `factorize_undirected` is
a different product: one global normalizer over a whole Markov network.
`condition_expression` turns a product into the symbolic ratio for
p(target | observed), summing hidden variables in the numerator and the
hidden-plus-target variables in the denominator; terms mentioning no free
variable cancel.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Union

from .core import ChainGraph, Edge, GraphError
from .decompose import ConditionalSubgraph, master_graph
from .markov import UndirectedGraph, max_cliques


class FactorError(ValueError):
    """Expression misuse (bad target, conditioning a plated product, ...)."""


class FactorTerm(NamedTuple):
    """One factor.  Conditionals and deltas carry head variables; potentials
    and normalizers keep all their arguments in ``given``.  ``group`` ties a
    normalizer to the potentials it normalizes."""

    kind: str  # "conditional" | "potential" | "normalizer" | "delta"
    head: tuple[str, ...] = ()
    given: tuple[str, ...] = ()
    label: str = ""
    group: int = -1

    @property
    def vars(self) -> tuple[str, ...]:
        return self.given + self.head

    def name(self) -> str:
        """Canonical text rendering; unique within an expression."""
        return render_term(self)


class PlateProduct(NamedTuple):
    """A replicated sub-product: prod over ``index`` ranging in ``index_set``."""

    index: str
    index_set: str
    items: tuple[Union[FactorTerm, "PlateProduct"], ...]


Item = Union[FactorTerm, PlateProduct]


class FactorExpression:
    """An ordered product of terms, possibly nested in plate products, with
    optional marginalization (``sum_out``) and an optional ratio denominator
    (``denom_sum``) produced by conditioning."""

    def __init__(
        self,
        items: tuple[Item, ...],
        free_vars: frozenset[str],
        given_vars: frozenset[str],
        order: tuple[str, ...],
        domains: dict[str, int] | None = None,
        sum_out: tuple[str, ...] = (),
        denom_sum: tuple[str, ...] | None = None,
    ) -> None:
        self.items = items
        self.free_vars = free_vars
        self.given_vars = given_vars
        self.order = order
        self.domains = domains
        self.sum_out = sum_out
        self.denom_sum = denom_sum

    @property
    def terms(self) -> tuple[FactorTerm, ...]:
        return tuple(_walk_terms(self.items))

    @property
    def is_ratio(self) -> bool:
        return self.denom_sum is not None

    def sort_key(self, name: str) -> int:
        """Position of ``name`` in ``order``; names outside it sort last."""
        return self._positions.get(name, len(self.order))

    @cached_property
    def _positions(self) -> dict[str, int]:
        # built on first use; no code reassigns ``order`` afterwards
        return {n: i for i, n in enumerate(self.order)}


def _walk_terms(items: Iterable[Item]) -> Iterator[FactorTerm]:
    for it in items:
        if isinstance(it, FactorTerm):
            yield it
        else:
            yield from _walk_terms(it.items)


# -- construction ---------------------------------------------------------


def _metadata(g: ChainGraph) -> dict:
    attrs = g.attrs()
    return dict(
        free_vars=frozenset(n for n, a in attrs.items() if not a.observed),
        given_vars=frozenset(n for n, a in attrs.items() if a.observed),
        order=g.node_names,
        domains={n: a.domain_size for n, a in attrs.items()},
    )


def factorize_undirected(g: ChainGraph) -> FactorExpression:
    """One potential per maximal clique plus a global normalizer over the
    empty set (the partition-function placeholder, rendered ``Z^-1``)."""
    if not g.is_undirected:
        raise GraphError("factorize_undirected requires a purely undirected graph")
    ug = UndirectedGraph(g.node_names, [(e.u, e.v) for e in g.edges])
    cliques = max_cliques(ug)
    terms: list[FactorTerm] = []
    for i, c in enumerate(cliques):
        terms.append(FactorTerm("potential", given=g.sorted_nodes(c), label=f"f_{i}", group=0))
    terms.append(FactorTerm("normalizer", label="Z", group=0))
    return FactorExpression(items=tuple(terms), **_metadata(g))


def _subgraph_terms(
    g: ChainGraph, sub: ConditionalSubgraph, start_label: int, group: int
) -> tuple[list[FactorTerm], int]:
    """Terms for one conditional subgraph; returns the next free label."""
    y = g.sorted_nodes(sub.parent_nodes)
    if sub.flavor == "directed":
        (x,) = sub.own_nodes
        kind = "delta" if g.attr(x).deterministic else "conditional"
        return [FactorTerm(kind, head=(x,), given=y)], start_label

    member_cliques = [c for c in sub.cliques() if not c <= sub.parent_nodes]

    if not y and len(member_cliques) == 1:
        head = g.sorted_nodes(member_cliques[0])
        return [FactorTerm("conditional", head=head)], start_label

    label = start_label
    if y:
        terms = [FactorTerm("normalizer", given=y, label=f"f_{label}", group=group)]
        label += 1
    else:
        # no parents to range over: this is the plain partition function
        terms = [FactorTerm("normalizer", label="Z", group=group)]
    for c in member_cliques:
        terms.append(
            FactorTerm("potential", given=g.sorted_nodes(c), label=f"f_{label}", group=group)
        )
        label += 1
    return terms, label


def _block_terms(g: ChainGraph) -> Iterator[tuple[ConditionalSubgraph, FactorTerm]]:
    """Every term of the chain-component product with the block it belongs
    to, in the master graph's order.  Potential labels count up across
    blocks; the normalizers of parentless blocks are numbered Z_0, Z_1, ...
    when there are two or more of them, so that term names stay unique."""
    pairs: list[tuple[ConditionalSubgraph, FactorTerm]] = []
    label = 0
    for group, sub in enumerate(master_graph(g).subgraphs):
        terms, label = _subgraph_terms(g, sub, label, group)
        pairs.extend((sub, t) for t in terms)
    zs = [i for i, (_, t) in enumerate(pairs) if t.kind == "normalizer" and not t.given]
    if len(zs) > 1:
        for k, i in enumerate(zs):
            sub, t = pairs[i]
            pairs[i] = (sub, t._replace(label=f"Z_{k}"))
    yield from pairs


def factorize_chain(g: ChainGraph) -> FactorExpression:
    """The full joint as a product over the chain components, each given
    its parents, in master-graph topological order.  A DAG is the case
    where every component is a single node: one p(x | parents(x)) each.
    Observedness is ignored: the product is the full joint."""
    terms = tuple(t for _, t in _block_terms(g))
    return FactorExpression(items=terms, **_metadata(g))


def condition_expression(e: FactorExpression, target: Iterable[str]) -> FactorExpression:
    """Symbolic p(target | observed) as a ratio of restricted products.

    Hidden variables (free but not targeted) are summed in the numerator,
    hidden plus target in the denominator; any term mentioning no free
    variable is constant given the observations and cancels.
    """
    target_set = frozenset(target)
    if e.is_ratio:
        raise FactorError("expression is already a conditional ratio")
    if any(isinstance(it, PlateProduct) for it in e.items):
        raise FactorError("cannot condition a plate-indexed expression; bind the plates first")
    if not target_set:
        raise FactorError("empty target")
    if not target_set <= e.free_vars:
        extra = ", ".join(sorted(target_set - e.free_vars))
        raise FactorError(f"target variables not free in the expression: {extra}")

    hidden = e.free_vars - target_set
    kept = tuple(t for t in e.terms if set(t.vars) & e.free_vars)
    by_order = lambda ns: tuple(sorted(ns, key=e.sort_key))  # noqa: E731
    return FactorExpression(
        items=kept,
        free_vars=target_set,
        given_vars=e.given_vars,
        order=e.order,
        domains=dict(e.domains) if e.domains is not None else None,
        sum_out=by_order(hidden),
        denom_sum=by_order(hidden | target_set),
    )


def eliminate_deterministic(g: ChainGraph) -> ChainGraph:
    """Remove deterministic nodes, wiring every node to its non-deterministic
    children so the surviving graph represents the same marginal.

    Deterministic nodes incident to undirected edges have no defined
    elimination and are rejected.
    """
    dets = set(g.deterministic_nodes())
    for d in dets:
        if g.neighbors(d):
            raise GraphError(
                f"deterministic node {d!r} has undirected edges; elimination is undefined"
            )
    keep = [n for n in g.node_names if n not in dets]
    attrs = {n: g.attr(n) for n in keep}
    edges = [e for e in g.edges if e.u not in dets and e.v not in dets]
    present = {(e.u, e.v) for e in edges if e.directed}
    # Arcs u -> y for each stochastic y reachable from u through
    # deterministic intermediates, unless already present.
    for u in keep:
        for y in g.sorted_nodes(g.non_deterministic_children(u)):
            if y == u or (u, y) in present:
                continue
            edges.append(Edge(u, y, True))
            present.add((u, y))
    return ChainGraph(attrs, edges)


# -- rendering --------------------------------------------------------------

_GREEK = {
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lambda", "mu", "nu", "xi", "pi", "rho", "sigma",
    "tau", "upsilon", "phi", "chi", "psi", "omega",
}


def _latex_var(name: str) -> str:
    # Trailing single-character segments become subscripts: spread_i_j.
    parts = name.split("_")
    subs: list[str] = []
    while len(parts) > 1 and len(parts[-1]) == 1 and parts[-1].isalnum():
        subs.insert(0, parts.pop())
    base = "_".join(parts)
    sub = ""
    if subs:
        sub = f"_{subs[0]}" if len(subs) == 1 else "_{" + ",".join(subs) + "}"
    if base in _GREEK:
        return f"\\{base}{sub}"
    if len(base) == 1:
        return base + sub
    return "\\text{" + base.replace("_", r"\_") + "}" + sub


def _latex_index_set(index_set: str) -> str:
    if "(" in index_set:
        sym, rest = index_set.split("(", 1)
        return "\\text{" + sym + "}(" + rest
    return "\\text{" + index_set + "}"


def render_term(t: FactorTerm, fmt: str = "text") -> str:
    if fmt == "text":
        if t.kind == "conditional":
            inner = ",".join(t.head) + (f"|{','.join(t.given)}" if t.given else "")
            return f"p({inner})"
        if t.kind == "delta":
            return f"delta({','.join(t.head)}|{','.join(t.given)})"
        if t.kind == "potential":
            return f"{t.label}({','.join(t.given)})"
        if t.kind == "normalizer":
            if not t.given:
                return f"{t.label}^-1"
            return f"{t.label}({','.join(t.given)})"
        raise FactorError(f"unknown term kind {t.kind!r}")
    if fmt == "latex":
        heads = ",".join(_latex_var(v) for v in t.head)
        givens = ",".join(_latex_var(v) for v in t.given)
        if t.kind == "conditional":
            return f"p({heads} \\mid {givens})" if t.given else f"p({heads})"
        if t.kind == "delta":
            return f"\\delta({heads} \\mid {givens})"
        if t.kind in ("potential", "normalizer"):
            if t.kind == "normalizer" and not t.given:
                base, _, num = t.label.partition("_")
                return f"{base}_{{{num}}}^{{-1}}" if num else f"{base}^{{-1}}"
            idx = t.label.split("_", 1)[1] if "_" in t.label else t.label
            return f"f_{{{idx}}}({givens})"
        raise FactorError(f"unknown term kind {t.kind!r}")
    raise FactorError(f"unknown render format {fmt!r}")


def _render_items(items: Iterable[Item], fmt: str) -> str:
    parts: list[str] = []
    for it in items:
        if isinstance(it, FactorTerm):
            parts.append(render_term(it, fmt))
        else:
            inner = _render_items(it.items, fmt)
            if fmt == "text":
                parts.append(f"prod_{{{it.index} in {it.index_set}}} [ {inner} ]")
            else:
                parts.append(
                    f"\\prod_{{{it.index} \\in {_latex_index_set(it.index_set)}}}"
                    f" \\left[ {inner} \\right]"
                )
    return " ".join(parts)


def render(e: FactorExpression, fmt: str = "text") -> str:
    """Deterministic one-line rendering; ``fmt`` is ``text`` or ``latex``."""
    if fmt not in ("text", "latex"):
        raise FactorError(f"unknown render format {fmt!r}")
    raw = _render_items(e.items, fmt) or "1"
    if e.is_ratio:
        if fmt == "text":
            num = raw if not e.sum_out else f"sum_{{{','.join(e.sum_out)}}} [ {raw} ]"
            return f"{num} / sum_{{{','.join(e.denom_sum or ())}}} [ {raw} ]"
        dsum = ",".join(_latex_var(v) for v in (e.denom_sum or ()))
        if e.sum_out:
            nsum = ",".join(_latex_var(v) for v in e.sum_out)
            num = f"\\sum_{{{nsum}}} {raw}"
        else:
            num = raw
        return f"\\frac{{{num}}}{{\\sum_{{{dsum}}} {raw}}}"
    if e.sum_out:
        if fmt == "text":
            return f"sum_{{{','.join(e.sum_out)}}} [ {raw} ]"
        nsum = ",".join(_latex_var(v) for v in e.sum_out)
        return f"\\sum_{{{nsum}}} {raw}"
    return raw
