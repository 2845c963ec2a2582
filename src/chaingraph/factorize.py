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
at a time, in the master graph's topological order (`decompose.block_order`:
among components whose parents are all emitted, the one declared first
goes next); within an undirected block the normalizer comes first, then
potentials in canonical clique order.  Potential labels count up globally
through the expression.  `_block_terms` makes one pass over the cached
component index in that order, with no conditional subgraph per block and
on node ids throughout, mapping ids to names only as it emits a term: a
single node emits its conditional or delta directly, and an undirected
block asks the clique kernel for the maximal cliques of its
`decompose.block_masks` that meet its members, the only cliques that
become potentials; their ascending local ids already give each clique's
members in node order.
A DAG is the case where every component is a single node, so its product
is one p(x | parents(x)) per node in that same order.  A Markov network
is the case where no component has parents: one normalizer and its
potentials per component, or p(a,b) for a component that is a single
clique.
`factorize_plated` factorizes a plate model: with a binding, the ground
graph that `plates.expand` builds; without one, the symbolic nested-product
form, one product per plate.  Its terms are those of `factorize_chain` on
the template graph, in the same emission order: each term sits in the
product of its block's innermost plate, with plate-indexed names
(``x_i_j``), and a plate product takes the place of the first term inside
it.
`condition_expression` turns a product into the symbolic ratio for
p(target | observed), summing hidden variables in the numerator and the
hidden-plus-target variables in the denominator; terms mentioning no free
variable cancel.
Two rewrites return a new graph.  `simplify_conditional` deletes the edges
that observation makes constant in the product of block conditionals, with
each larger block's parent-extended graph read off `decompose.block_masks`
under the clique bound, as the factorizer reads it; `eliminate_deterministic`
removes deterministic nodes.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Union

from .core import ChainGraph, Edge, GraphError
from .decompose import block_masks, block_order
from .markov import check_clique_bound, clique_ids
from .plates import Binding, Plate, PlateModel, expand, require_valid

# `_new(FactorTerm, fields)` builds a term from all five fields without the
# keyword-handling ``__new__``; the factorizer's loops make one per term
_new = tuple.__new__


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

    @cached_property
    def terms(self) -> tuple[FactorTerm, ...]:
        """Every term in product order, plate products flattened; built on
        first use (only the constructor assigns ``items``), and ``items``
        itself when it holds no plate product."""
        if not any(isinstance(it, PlateProduct) for it in self.items):
            return self.items
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


def _block_terms(g: ChainGraph) -> list[tuple[tuple[str, ...], list[FactorTerm]]]:
    """Each chain component's names with its terms, in one pass over the
    components in :func:`block_order`.  A single node gives its conditional
    or delta directly.  A block of two or more nodes gives its normalizer,
    then one potential per maximal clique of its parent-extended graph that
    holds a member: the kernel is asked for those cliques alone.  Potential
    labels count up across blocks; the normalizers of parentless blocks are
    numbered Z_0, Z_1, ... when there are two or more of them, so that term
    names stay unique."""
    index = g.component_index
    comps, comp_parents, attr, names = index.components, index.parents, g._attr, g.node_names
    blocks: list[tuple[tuple[str, ...], list[FactorTerm]]] = []
    zs: list[list[FactorTerm]] = []  # the term lists that open with Z
    label = 0
    for group, k in enumerate(block_order(g)):
        comp, parents = comps[k], comp_parents[k]
        if len(comp) == 1:
            x = comp[0]
            head, given = (names[x],), tuple([names[p] for p in sorted(parents)])
            kind = "delta" if attr[x].deterministic else "conditional"
            blocks.append((head, [_new(FactorTerm, (kind, head, given, "", -1))]))
            continue
        check_clique_bound(len(comp) + len(parents))
        nodes, masks, members = block_masks(g, comp, parents)
        # every member has a neighbour in the block, so each clique has two
        # or more ids and itemgetter gives a tuple; ids ascend, so its
        # names come in node order
        local = [names[x] for x in nodes]
        cliques = [itemgetter(*ids)(local) for ids in clique_ids(masks, members)]
        if not parents and len(cliques) == 1:
            terms = [FactorTerm("conditional", cliques[0])]
        else:
            if parents:
                terms = [FactorTerm("normalizer", (), tuple([names[p] for p in parents]), f"f_{label}", group)]
                label += 1
            else:
                # no parents to range over: this is the plain partition function
                terms = [FactorTerm("normalizer", (), (), "Z", group)]
                zs.append(terms)
            terms += [_new(FactorTerm, ("potential", (), c, f"f_{i}", group)) for i, c in enumerate(cliques, label)]
            label += len(cliques)
        blocks.append((tuple([names[x] for x in comp]), terms))
    if len(zs) > 1:
        for n, terms in enumerate(zs):
            terms[0] = terms[0]._replace(label=f"Z_{n}")
    return blocks


def factorize_chain(g: ChainGraph) -> FactorExpression:
    """The full joint as a product over the chain components, each given
    its parents, in master-graph topological order.  A DAG is the case
    where every component is a single node: one p(x | parents(x)) each.
    Observedness is ignored: the product is the full joint."""
    terms = tuple(t for _, block in _block_terms(g) for t in block)
    return FactorExpression(items=terms, **_metadata(g))


# -- plated factorization ---------------------------------------------------

_INDEX_LETTERS = "ijklmn"


def _plate_letter(depth: int) -> str:
    return _INDEX_LETTERS[depth] if depth < len(_INDEX_LETTERS) else f"i{depth}"


def _suffix(m: PlateModel, v: str) -> str:
    return v + "".join("_" + _plate_letter(k) for k in range(len(m.membership(v))))


def _index_set_label(m: PlateModel, p: Plate) -> str:
    d = m.depth(p)
    return f"{p.symbol}({','.join(_plate_letter(k) for k in range(d))})" if d else p.symbol


def _symbolic_expression(m: PlateModel) -> FactorExpression:
    g = m.graph
    for v in g.node_names:
        if m.unnested(v):
            raise FactorError(
                f"node {v!r} sits in overlapping plates; no nested product form exists — bind the plates instead"
            )
    rename = {v: _suffix(m, v) for v in g.node_names}

    # each term goes to its block's innermost plate (undirected edges never
    # cross a plate boundary, so a block's members share their plates), keyed
    # by its emission position, which orders the terms as their blocks are
    placed: dict[str | None, list[tuple[int, Item]]] = {}
    pos = 0
    for comp, terms in _block_terms(g):
        chain = m.membership(comp[0])
        here = placed.setdefault(chain[-1].name if chain else None, [])
        for t in terms:
            head, given = tuple(rename[v] for v in t.head), tuple(rename[v] for v in t.given)
            here.append((pos, t._replace(head=head, given=given)))
            pos += 1

    def build(p: Plate | None) -> list[tuple[int, Item]]:
        """The terms in p and a product for each nested plate that holds
        any, keyed by the first emission position inside them."""
        keyed = list(placed.get(p.name if p is not None else None, ()))
        for c in m.children(p):
            inner = build(c)
            if inner:
                items = tuple(it for _, it in inner)
                keyed.append((inner[0][0], PlateProduct(_plate_letter(m.depth(c)), _index_set_label(m, c), items)))
        keyed.sort(key=lambda kv: kv[0])
        return keyed

    meta = _metadata(g)
    return FactorExpression(
        items=tuple(it for _, it in build(None)),
        free_vars=frozenset(rename[v] for v in meta["free_vars"]),
        given_vars=frozenset(rename[v] for v in meta["given_vars"]),
        order=tuple(rename[v] for v in meta["order"]),
        domains={rename[v]: s for v, s in meta["domains"].items()},
    )


def factorize_plated(m: PlateModel, b: Binding | None = None) -> FactorExpression:
    """With a binding: the ground graph's factorization.  Without: the
    symbolic nested-product form, one product per plate."""
    if b is not None:
        return factorize_chain(expand(m, b))  # expand checks the plates
    require_valid(m)
    if not m.plates:
        return factorize_chain(m.graph)
    return _symbolic_expression(m)


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


def simplify_conditional(g: ChainGraph) -> ChainGraph:
    """Delete the edges that observation makes constant in the product of
    block conditionals p(x_tau | x_pa(tau)), keeping p(hidden | observed).

    An edge goes when both its ends are observed and every block whose
    parent-extended graph holds it -- its own block (the head's component
    for an arc, the shared one for an undirected edge) and each block of
    two or more nodes that has both ends as parents -- has all its parents
    observed and only observed common neighbours of the two ends.  Then
    every term with a hidden variable keeps its clique or its parent set.
    Eligibility is judged against the original graph (a single node's
    block holds only its own arcs, a larger one's graph is read off its
    :func:`block_masks` under the clique bound), and all deletions happen
    in one simultaneous pass.  For a DAG this deletes the arcs into each
    observed node whose parents are all observed; for a Markov network,
    each edge between observed nodes whose common neighbours are all
    observed.
    """
    index = g.component_index
    hidden = [not a.observed for a in g._attr]
    kept: set[tuple[int, int]] = set()  # observed id pairs that some block holds on to
    for comp, parents in zip(index.components, index.parents):
        if len(comp) == 1:
            x = comp[0]
            if not hidden[x] and any(hidden[p] for p in parents):
                kept.update((p, x) if p < x else (x, p) for p in parents)
            continue
        check_clique_bound(len(comp) + len(parents))
        nodes, masks, _ = block_masks(g, comp, parents)
        hid = sum(1 << i for i, x in enumerate(nodes) if hidden[x])
        blocked = any(hidden[p] for p in parents)
        for i, x in enumerate(nodes):
            if hid >> i & 1:
                continue
            rest = masks[i] & ~hid & -(2 << i)  # the observed neighbours after i
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if blocked or masks[i] & masks[j] & hid:
                    kept.add((x, nodes[j]))
    ids = g._index

    def stays(e: Edge) -> bool:
        u, v = sorted((ids[e.u], ids[e.v]))
        return hidden[u] or hidden[v] or (u, v) in kept

    return ChainGraph(g.attrs(), [e for e in g.edges if stays(e)])


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
    # Trailing single-character or all-digit segments become subscripts:
    # spread_i_j, heads_10.
    parts = name.split("_")
    subs: list[str] = []
    while len(parts) > 1 and (parts[-1].isdigit() or len(parts[-1]) == 1 and parts[-1].isalnum()):
        subs.insert(0, parts.pop())
    base = "_".join(parts)
    sub = ""
    if subs:
        sub = f"_{subs[0]}" if len(subs) == len(subs[0]) == 1 else "_{" + ",".join(subs) + "}"
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
