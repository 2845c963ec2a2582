"""Brute-force numeric ground truth for small discrete models.

Expressions get random positive tables; the joint is the explicit product
over every configuration (guarded at 2^20).  Conditional independence is
then a direct check of p(A,B|S) = p(A|S) p(B|S), which lets every
graph-level answer be confirmed or refuted numerically:

* `check_global_markov` sweeps all singleton-pair queries over all
  conditioning sets and fails hard if a graph-implied independence does
  not hold numerically (soundness); implied dependencies that never show
  up numerically are only warned about, since random tables need not be
  faithful.  The trials are scored together: their joints are stacked on
  a leading axis, and each node set U takes one marginal of the stack.
  The stack is first summed over each trailing run of axes that some set
  drops, as numpy sums such a run, and laid out with the trials last; a
  set's marginal sums one of these over its other dropped axes, along
  rows of trials, adding every entry in the order of the stack's own sum.
  The sets of one domain shape share a block, and one kernel call per
  pair of the block's axes scores a _||_ b | U - {a, b} for every set in
  it, taking p(S) from the block wherever numpy's order of summation for
  the query can be read from it.  Whether the graph implies each query
  comes from one pass per node set over the moral graph of its anterior
  set.
* `check_equivalence` instantiates two expressions with shared tables for
  designated terms and compares the conditional (or a marginal) they
  represent, scoring every trial of a chunk in one call of one kernel.

Normalizer terms are not random: they are computed as the actual
normalizing constants of their block's potentials, so the instantiated
product is a genuine chain-graph distribution.

Both checks draw their trials as stacks.  Trial k has its own generator,
the k-th child of ``SeedSequence(seed)``.  Tables are drawn term by term,
each term by every generator of a chunk in turn, so each generator's
sequence of draws, and every number, is what a trial drawn on its own
gets.  Each term's tables, and each normalizer computed from
the stacked potentials, sit on a leading trials axis; the joints are one
broadcast multiply per term over the stack, then one sum and one division
per trial.  The sweep and the equivalence check split their trials into
chunks by one rule (`_chunk_size`), so that no stack holds more than
``MAX_JOINT_CONFIGS`` entries, and each chunk spawns its generators when it
runs.  A joint, like a term's table, is a `TermTable`: its variables and
an array whose last axes follow them.

`assignment_from_rng`, `build_joint` and `ci_deviation` are the one-trial
case of the same code.  No check calls them; they remain because the traced
``oracle_sweep`` benchmark names them.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .core import ChainGraph, StateSpaceError  # noqa: F401  (re-exported)
from .factorize import (
    FactorExpression,
    FactorTerm,
    PlateProduct,
    factorize_chain,
)
from .markov import CiQuery, implies_ci, moral_adjacency, separated_pairs  # noqa: F401  (implies_ci re-exported)

MAX_JOINT_CONFIGS = 1 << 20
MAX_MARKOV_NODES = 10
DEFAULT_TOL = 1e-9
DEPENDENCE_THRESHOLD = 1e-6


class OracleError(ValueError):
    """Malformed request: missing tables, unknown variables, ratio input."""


class TermTable(NamedTuple):
    """A numeric table whose last axes follow ``vars``: a term's (given +
    head) or a joint's (expression order).  Axes before them hold trials."""

    vars: tuple[str, ...]
    table: np.ndarray


PotentialAssignment = dict[str, TermTable]


def _marginal(
    table: np.ndarray, vars_: tuple[str, ...], keep: Iterable[str]
) -> tuple[tuple[str, ...], np.ndarray]:
    """Sum out every variable not in ``keep``.  The last ``len(vars_)`` axes
    of ``table`` follow ``vars_``; any axes before them (trials) are kept."""
    keep_set = set(keep)
    unknown = keep_set - set(vars_)
    if unknown:
        raise OracleError(f"unknown variables {sorted(unknown)} in marginal")
    lead = table.ndim - len(vars_)
    drop = tuple(lead + i for i, v in enumerate(vars_) if v not in keep_set)
    return tuple(v for v in vars_ if v in keep_set), table.sum(axis=drop) if drop else table


def _check_size(what: str, shape: Iterable[int]) -> None:
    """Refuse a table of this shape before it is allocated."""
    size = math.prod(shape)
    if size > MAX_JOINT_CONFIGS:
        raise StateSpaceError(
            f"{what} has {size} configurations, over the limit of {MAX_JOINT_CONFIGS}"
        )


def _check_tol(tol: float) -> None:
    # a negative or NaN tol fails every comparison against it, an infinite one passes every one
    if not 0.0 <= tol < math.inf:
        raise OracleError(f"tol must be a finite number >= 0, got {tol!r}")


def _check_seed(seed: int) -> None:
    # SeedSequence takes only integers >= 0; a non-integer fails operator.index
    if operator.index(seed) < 0:
        raise OracleError(f"seed must be >= 0, got {seed!r}")


def _domains_of(e: FactorExpression) -> dict[str, int]:
    if e.domains is None:
        raise OracleError("expression carries no domain sizes")
    return e.domains


def _require_ground(e: FactorExpression) -> None:
    if any(isinstance(it, PlateProduct) for it in e.items):
        raise OracleError("expression has unbound plate products; bind the plates first")
    if e.is_ratio or e.sum_out:
        raise OracleError("expression is a conditional ratio, not a plain product")


def _positive(rngs: Sequence[np.random.Generator], shape: tuple[int, ...]) -> np.ndarray:
    """Uniform draws in [0.1, 1.0) of ``shape``, one per generator, stacked."""
    out = np.empty((len(rngs),) + shape)
    for k, rng in enumerate(rngs):
        out[k] = rng.uniform(0.1, 1.0, size=shape)
    return out


def _term_shape(t: FactorTerm, domains: Mapping[str, int]) -> tuple[int, ...]:
    try:
        return tuple(domains[v] for v in t.vars)
    except KeyError as exc:
        raise OracleError(f"no domain size for variable {exc.args[0]!r}") from None


def _draw_terms(e: FactorExpression, rngs: Sequence[np.random.Generator]) -> PotentialAssignment:
    """Every term's table but the normalizers, for each generator of
    ``rngs``, stacked on a leading trials axis.  Terms are drawn in term
    order, each by every generator in turn, so each generator makes the
    draws one trial of its own would make.  A table is size-checked per
    trial; the caller keeps ``len(rngs)`` times the joint within
    ``MAX_JOINT_CONFIGS``."""
    _require_ground(e)
    domains = _domains_of(e)
    pa: PotentialAssignment = {}
    for t in e.terms:
        shape = _term_shape(t, domains)
        _check_size(f"table for {t.name()}", shape)
        if t.kind == "conditional":
            raw = _positive(rngs, shape)
            table = raw / raw.sum(axis=tuple(range(1 + len(t.given), 1 + len(shape))), keepdims=True)
        elif t.kind == "delta":
            given_shape = shape[: len(t.given)]
            head_sizes = shape[len(t.given) :]
            if len(head_sizes) != 1:
                raise OracleError("delta terms carry exactly one head variable")
            choice = np.empty((len(rngs),) + given_shape, dtype=np.int64)
            for k, rng in enumerate(rngs):
                choice[k] = rng.integers(0, head_sizes[0], size=given_shape)
            table = (np.arange(head_sizes[0]) == choice[..., None]).astype(float)
        elif t.kind == "potential":
            table = _positive(rngs, shape)
        elif t.kind == "normalizer":
            continue  # computed from the group's potentials
        else:
            raise OracleError(f"unknown term kind {t.kind!r}")
        pa[t.name()] = TermTable(t.vars, table)
    return pa


def assignment_from_rng(e: FactorExpression, rng: np.random.Generator) -> PotentialAssignment:
    """Tables for every term, keyed by the term's rendered name.

    Conditionals: positive rows normalized over the head.  Deltas: a random
    deterministic function (one-hot rows).  Potentials: uniform in
    [0.1, 1.0].  Normalizers: computed exactly from their group's
    potentials so each block's conditional sums to one.  This is one trial
    of the stacked tables the sweep and the equivalence check draw.
    """
    return {name: TermTable(tt.vars, tt.table[0]) for name, tt in _draw(e, [rng]).items()}


def _draw(e: FactorExpression, rngs: Sequence[np.random.Generator]) -> PotentialAssignment:
    """Every term's table for each generator of ``rngs``, stacked on a
    leading trials axis, normalizers included."""
    pa = _draw_terms(e, rngs)
    _compute_normalizers(e, pa, len(rngs), skip=frozenset())
    return pa


def _compute_normalizers(
    e: FactorExpression, pa: PotentialAssignment, trials: int, skip: frozenset[str]
) -> None:
    """(Re)derive each normalizer table as 1 / sum of its group's potential
    product, for each of the ``trials`` stacked tables in ``pa``."""
    domains = _domains_of(e)
    terms = e.terms
    for t in terms:
        if t.kind != "normalizer" or t.name() in skip:
            continue
        group = [u for u in terms if u.kind == "potential" and u.group == t.group]
        union = [v for v in e.order if any(v in u.vars for u in group) or v in t.vars]
        shape = tuple(domains[v] for v in union)
        _check_size(f"potential product for {t.name()}", shape)
        arr = np.ones((trials,) + shape)
        for u in group:
            arr *= _broadcast(pa[u.name()], union, domains)
        summed = arr.sum(axis=tuple(1 + i for i, v in enumerate(union) if v not in t.vars))
        kept = [v for v in union if v in t.vars]
        inv = 1.0 / summed
        perm = [1 + kept.index(v) for v in t.vars]
        pa[t.name()] = TermTable(t.vars, np.transpose(inv, [0, *perm]))


def _broadcast(tt: TermTable, order: Sequence[str], domains: Mapping[str, int]) -> np.ndarray:
    """View a (stacked) term table over the full variable order, ready to
    multiply; leading trials axes stay in front."""
    missing = [v for v in tt.vars if v not in order]
    if missing:
        raise OracleError(f"term variable {missing[0]!r} missing from joint order")
    lead = tt.table.ndim - len(tt.vars)
    perm = sorted(range(len(tt.vars)), key=lambda i: order.index(tt.vars[i]))
    arr = np.transpose(tt.table, [*range(lead), *(lead + i for i in perm)])
    shape = [domains[v] if v in tt.vars else 1 for v in order]
    return arr.reshape(tt.table.shape[:lead] + tuple(shape))


def _joint_shape(e: FactorExpression) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Variables (in expression order) and shape of the joint, size-checked."""
    domains = _domains_of(e)
    used: set[str] = set()
    for t in e.terms:
        used.update(t.vars)
    order = tuple(v for v in e.order if v in used)
    shape = tuple(domains[v] for v in order)
    _check_size("joint", shape)
    return order, shape


def _joint_stack(e: FactorExpression, pa: PotentialAssignment, trials: int) -> np.ndarray:
    """The normalized joints of ``trials`` stacked tables, as (trials,
    *joint): one broadcast multiply per term, then one sum and one division
    per trial, so each trial's joint is summed as a joint of its own."""
    domains = _domains_of(e)
    order, shape = _joint_shape(e)
    arr = np.ones((trials,) + shape)
    for t in e.terms:
        arr *= _broadcast(pa[t.name()], order, domains)
    for joint in arr:
        s = float(joint.sum())
        if not np.isfinite(s) or s <= 0.0:
            raise OracleError("assignment yields a zero or non-finite joint")
        joint /= s
    return arr


def build_joint(e: FactorExpression, pa: PotentialAssignment) -> TermTable:
    """Explicit normalized joint over every variable the expression mentions."""
    _require_ground(e)
    domains = _domains_of(e)
    order, _ = _joint_shape(e)
    for t in e.terms:
        tt = pa.get(t.name())
        if tt is None:
            raise OracleError(f"no table assigned to term {t.name()}")
        if tuple(tt.vars) != t.vars:
            raise OracleError(f"table for {t.name()} has variables {tt.vars}, expected {t.vars}")
        expected = _term_shape(t, domains)
        if tuple(tt.table.shape) != expected:
            raise OracleError(f"table for {t.name()} has shape {tt.table.shape}, expected {expected}")
    one = {t.name(): TermTable(t.vars, pa[t.name()].table[None]) for t in e.terms}
    return TermTable(order, _joint_stack(e, one, 1)[0])


def _pair_deviations(flat: np.ndarray, i: int, j: int, sums: Sequence[np.ndarray]) -> np.ndarray:
    """max over trials and S-configs with p(S)>0 of |p(A,B|S) - p(A|S) p(B|S)|
    for each node set of a block, A on local axis ``i``, B on axis ``j`` and
    S on the others.

    ``flat`` is (*dims, sets, trials): the marginals of node sets of one
    domain shape, each set's axes in joint order, laid out so that every
    step runs along rows of sets x trials entries.  ``sums[x]`` is ``flat``
    summed over axis x, keeping it: p(A,S) is ``sums[j]`` and p(B,S)
    ``sums[i]``; numpy adds fewer than 8 terms of one axis in index order
    whatever the layout.

    p(S) comes from `_s_sums`.
    """
    n, t = flat.shape[-2:]
    ps = _s_sums(flat, i, j, sums)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.multiply(sums[j] / ps, sums[i] / ps)
        np.subtract(flat / ps, dev, out=dev)
    np.abs(dev, out=dev)
    unseen = ps <= 0.0
    if unseen.any():
        np.copyto(dev, 0.0, where=unseen)
    return dev.reshape(-1, n * t).max(axis=0).reshape(n, t).max(axis=1, initial=0.0)


def _s_sums(flat: np.ndarray, i: int, j: int, sums: Sequence[np.ndarray]) -> np.ndarray:
    """p(S) of `_pair_deviations`, in each query's own order of summation,
    which follows the memory layout of its (trials, A, B, S) view of its
    marginal.  Where that order can be read from ``flat`` (its rows of sets
    x trials hold more than one entry, and no axis has one state), p(S) is
    taken from the block:

    * the query adds A-major in index order along rows of S when B is not
      the last axis, or when some S axis comes before A and another
      between A and B (the view is copied), or when A and B are the last
      two axes and A x B < 8 (one pairwise sum of fewer than 8 terms), and
      summing ``flat`` over A and B does the same;
    * when A is the first axis, B the last and S between them, the query
      sums each A row over B first and adds the rows in order, which for
      B < 8 is ``sums[j]`` summed over A.

    Otherwise it comes from `_view_sum`.
    """
    *dims, n, t = flat.shape
    k = len(dims)
    readable = n * t > 1 and 1 not in dims
    if readable and (j < k - 1 or 0 < i < k - 2 or (i == k - 2 and dims[i] * dims[j] < 8)):
        return flat.sum(axis=(i, j), keepdims=True)
    if readable and i < k - 2 and dims[j] < 8:
        return sums[j].sum(axis=i, keepdims=True)
    return _view_sum(flat, i, j)


def _view_sum(flat: np.ndarray, i: int, j: int) -> np.ndarray:
    """p(S) of `_pair_deviations`, summed from the view (sets, trials, A, B,
    S) of the marginals laid out as (sets, trials, *dims), with its axes
    back in ``flat``'s order.  This is each query's own order of summation
    on any layout; it costs a copy of the block, so `_pair_deviations`
    calls it only where that order cannot be read from the block."""
    *dims, n, t = flat.shape
    marginals = np.ascontiguousarray(np.moveaxis(flat, (-2, -1), (0, 1)))
    rest = [x for x in range(len(dims)) if x != i and x != j]
    view = marginals.transpose(0, 1, 2 + i, 2 + j, *(2 + x for x in rest))
    ps = view.reshape(n, t, dims[i], dims[j], -1).sum(axis=(2, 3))
    ps = ps.reshape(n, t, *(1 if x == i or x == j else d for x, d in enumerate(dims)))
    return np.moveaxis(ps, (0, 1), (-2, -1))


def ci_deviation(j: TermTable, q: CiQuery) -> float:
    """max over S-configs with p(S)>0 of max |p(A,B|S) - p(A|S) p(B|S)|."""
    nodes = q.a | q.b | q.s
    missing = nodes - set(j.vars)
    if missing:
        raise OracleError(f"query variables {sorted(missing)} not in joint")
    m_vars, m = _marginal(j.table, j.vars, nodes)
    if len(q.a) == len(q.b) == 1:  # as the sweep scores it
        (a,), (b,) = q.a, q.b
        i, k = m_vars.index(a), m_vars.index(b)
    else:  # A and B each merged into one axis
        axes_a, axes_b, axes_s = (sorted(m_vars.index(v) for v in x) for x in (q.a, q.b, q.s))
        na, nb = (math.prod(m.shape[x] for x in axes) for axes in (axes_a, axes_b))
        m = m.transpose(axes_a + axes_b + axes_s).reshape(na, nb, *(m.shape[x] for x in axes_s))
        i, k = 0, 1
    flat = m[..., None, None]  # one node set, one trial
    sums = [flat.sum(axis=x, keepdims=True) for x in range(m.ndim)]
    return float(_pair_deviations(flat, i, k, sums)[0])


def _equivalence_deviations(
    j1: TermTable, j2: TermTable, head: tuple[str, ...], given: tuple[str, ...], mode: str
) -> np.ndarray:
    """Per trial of two stacks of joints, laid out as (trials, *joint), the
    largest |p1 - p2| of p(head | given) over the configs of ``given`` that
    both sides support (``mode="conditional"``), or of p(head)
    (``mode="marginal"``, with ``given`` empty)."""
    order = head + given

    def aligned(j: TermTable) -> np.ndarray:
        kept, m = _marginal(j.table, j.vars, order)
        return np.transpose(m, [0, *(1 + kept.index(v) for v in order)])

    p1, p2 = aligned(j1), aligned(j2)
    if mode == "conditional":
        nh = math.prod(p1.shape[1 : 1 + len(head)])
        p1, p2 = p1.reshape(len(p1), nh, -1), p2.reshape(len(p2), nh, -1)
        g1, g2 = p1.sum(axis=1, keepdims=True), p2.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.abs(p1 / g1 - p2 / g2)
        np.copyto(dev, 0.0, where=~((g1 > 0.0) & (g2 > 0.0)))
    else:
        dev = np.abs(p1 - p2)
    return dev.reshape(len(dev), -1).max(axis=1, initial=0.0)


# -- global Markov sweep ------------------------------------------------------


class QueryRecord(NamedTuple):
    query: CiQuery
    implied: bool
    max_deviation: float
    sound: bool  # implied queries: deviation stayed within tol on every trial
    dependence_seen: bool  # non-implied queries: some trial deviated > threshold


class MarkovReport(NamedTuple):
    node_count: int
    trials: int
    seed: int
    tol: float
    dependence_threshold: float
    records: tuple[QueryRecord, ...]

    @property
    def violations(self) -> tuple[QueryRecord, ...]:
        return tuple(r for r in self.records if r.implied and not r.sound)

    @property
    def unconfirmed(self) -> tuple[QueryRecord, ...]:
        return tuple(r for r in self.records if not r.implied and not r.dependence_seen)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        implied = sum(1 for r in self.records if r.implied)
        lines = [
            f"global Markov check: {self.node_count} nodes, {len(self.records)} queries"
            f" ({implied} implied independent), {self.trials} trials, tol={self.tol:g}",
            f"soundness: {'ok' if self.ok else 'VIOLATED'} ({len(self.violations)} violations)",
        ]
        for r in self.violations:
            lines.append(f"  VIOLATION {r.query.text()} deviated {r.max_deviation:.3e}")
        n_unconf = len(self.unconfirmed)
        lines.append(
            f"completeness: {n_unconf} non-implied queries without observed dependence"
            f" > {self.dependence_threshold:g} (warning only)"
        )
        return "\n".join(lines)


def all_singleton_queries(g: ChainGraph) -> list[CiQuery]:
    """Every (a _||_ b | S) with singleton a, b and S over the remaining nodes.

    Pairs come in node order, a before b; each pair's sets S count up as
    bitmasks over the remaining nodes in order (see `_query_index`)."""
    names = g.node_names
    out: list[CiQuery] = []
    for i, a in enumerate(names):
        fa = frozenset((a,))
        for b in names[i + 1 :]:
            fb = frozenset((b,))
            subsets = [frozenset()]
            for v in names:
                if v != a and v != b:
                    subsets += [s | {v} for s in subsets]
            out.extend(CiQuery(fa, fb, s) for s in subsets)
    return out


def _query_index(n: int, ia: int, ib: int, nodes: int) -> int:
    """Position in `all_singleton_queries` of a _||_ b | S over ``n`` nodes,
    where a and b sit at node positions ``ia < ib`` and the bitmask ``nodes``
    over node positions holds a, b and S."""
    low = nodes & ((1 << ia) - 1)
    mid = nodes >> (ia + 1) & ((1 << (ib - ia - 1)) - 1)
    high = nodes >> (ib + 1)
    pair = ia * (2 * n - ia - 1) // 2 + ib - ia - 1
    return pair << (n - 2) | low | mid << ia | high << (ib - 1)


def _node_sets(nodes: Sequence) -> Iterator[tuple[int, tuple]]:
    """Every set of two or more of ``nodes`` (names or ids, in node order),
    as a bitmask over node positions and its nodes in node order."""
    for mask in range(1 << len(nodes)):
        if mask & (mask - 1):
            yield mask, tuple(v for k, v in enumerate(nodes) if mask >> k & 1)


def _implied(g: ChainGraph, count: int) -> list[bool]:
    """`implies_ci` of each of the ``count`` queries of `all_singleton_queries`,
    found by one `separated_pairs` pass per node set.  The moral adjacency
    of an anterior set is built once, for the first node set that has it."""
    n = len(g)
    anterior = g.component_index.anterior
    implied = [False] * count
    moral: dict[bytes, dict[int, tuple[int, ...]]] = {}
    for mask, nodes in _node_sets(range(n)):
        inside = anterior(nodes)
        key = bytes(inside)
        if key not in moral:
            moral[key] = moral_adjacency(g, inside)
        for a, b in separated_pairs(nodes, moral[key]):
            implied[_query_index(n, a, b, mask)] = True
    return implied


class _Block(NamedTuple):
    shape: tuple[int, ...]  # the domain shape of its node sets
    marginals: list[tuple[int, tuple[int, ...]]]  # per node set: (m, axes), see `_trailing_sums`
    queries: np.ndarray  # [pair of local axes, node set] -> query index


def _blocks(names: Sequence[str], shape: Sequence[int], trials: int) -> list[_Block]:
    """The node sets of the joint over ``names`` (of this ``shape``), sorted
    by domain shape into blocks of at most ``MAX_JOINT_CONFIGS >> 7`` entries
    over ``trials`` trials, or of one set each where one set is larger.

    A node set's marginal is ``pre[m].sum(axis=axes)`` (see
    `_trailing_sums`): m ends the set's last kept axis of more than one
    state, so the axes from m on are the trailing run it drops (one-state
    axes, kept or dropped, pass), and ``axes`` are all the axes it drops."""
    classes: dict[tuple[int, ...], list[tuple[int, tuple[str, ...]]]] = {}
    for mask, nodes in _node_sets(names):
        dshape = tuple(d for k, d in enumerate(shape) if mask >> k & 1)
        classes.setdefault(dshape, []).append((mask, nodes))
    rank = {v: k for k, v in enumerate(names)}
    out = []
    for dshape, sets in classes.items():
        per = max(1, (MAX_JOINT_CONFIGS >> 7) // (trials * math.prod(dshape)))
        for start in range(0, len(sets), per):
            part = sets[start : start + per]
            queries = [
                [_query_index(len(names), rank[nodes[i]], rank[nodes[j]], mask) for mask, nodes in part]
                for i, j in combinations(range(len(dshape)), 2)
            ]
            marginals = [
                (
                    max((x + 1 for x, d in enumerate(shape) if mask >> x & 1 and d > 1), default=0),
                    tuple(x for x in range(len(shape)) if not mask >> x & 1),
                )
                for mask, _ in part
            ]
            out.append(_Block(dshape, marginals, np.array(queries)))
    return out


def _trailing_sums(stack: np.ndarray, starts: Iterable[int]) -> dict[int, np.ndarray]:
    """For each m of ``starts``, the stack (trials, *joint) summed over its
    axes from m on, laid out with trials last: (*joint[:m], 1, ..., 1,
    trials).  The run is summed as numpy sums the trailing axes it drops
    (pairwise, over one contiguous row), so ``pre[m].sum(axis=axes)`` adds
    each entry of ``stack.sum(axis=axes)`` in the same order, along rows
    of trials: numpy reduces a C-contiguous array in C order, and only a
    reduced innermost axis is summed pairwise."""
    t, *shape = stack.shape
    pre = {}
    for m in starts:
        summed = stack.reshape(t, -1, math.prod(shape[m:])).sum(axis=-1)
        pre[m] = summed.T.copy().reshape(*shape[:m], *[1] * (len(shape) - m), t)
    return pre


def _chunk_size(*shapes: tuple[int, ...]) -> int:
    """Trials per chunk: as many as keep a stack of the largest of these
    joints within ``MAX_JOINT_CONFIGS`` entries, and at least one."""
    return max(1, MAX_JOINT_CONFIGS // max(math.prod(shape) for shape in shapes))


def _trial_chunks(seed: int, trials: int, chunk: int) -> Iterator[list[np.random.Generator]]:
    """The generators of ``trials`` trials, ``chunk`` at a time.  Each chunk
    spawns its own from the one ``SeedSequence(seed)``, so trial k has the
    k-th child whatever the chunking, and no generator exists before its
    chunk runs."""
    root = np.random.SeedSequence(seed)
    for start in range(0, trials, chunk):
        yield [np.random.default_rng(seq) for seq in root.spawn(min(chunk, trials - start))]


def check_global_markov(
    g: ChainGraph,
    trials: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    dependence_threshold: float = DEPENDENCE_THRESHOLD,
) -> MarkovReport:
    """Verify every implied independence numerically on random instantiations.

    Each trial draws its own tables; a query's deviation is its largest over
    the trials.  The trials' joints are stacked in chunks of at most
    ``MAX_JOINT_CONFIGS`` entries.  The queries a _||_ b | U - {a, b} are
    scored per node set U: the sets of one domain shape take their marginals
    of the stack into a block of at most ``MAX_JOINT_CONFIGS >> 7`` entries
    (a larger set gets a block of its own), laid out as (*dims, sets,
    trials).  Each marginal is summed from the stack's sum over the
    trailing run of axes the set drops, laid out with trials last
    (`_trailing_sums`), so it equals ``stack.sum(axis=dropped)`` bit for
    bit.  For each pair of local axes, `_pair_deviations` scores every set
    of the block at once, and a query's record follows from its node
    positions.  Whether the graph implies a query is answered per node set
    by `separated_pairs`, which equals `implies_ci` on each query.
    """
    n = len(g.node_names)
    if n > MAX_MARKOV_NODES:
        raise StateSpaceError(
            f"global Markov sweep graph has {n} nodes, over the limit of {MAX_MARKOV_NODES}"
        )
    if trials < 1:
        raise OracleError("trials must be positive")
    _check_tol(tol)
    _check_seed(seed)
    e = factorize_chain(g)
    # factorize_chain lays the joint out in node order (order == g.node_names),
    # so node positions index both the joint's axes and all_singleton_queries
    order, shape = _joint_shape(e)
    queries = all_singleton_queries(g)
    implied = _implied(g, len(queries))
    chunk = _chunk_size(shape)
    blocks = _blocks(order, shape, min(trials, chunk))
    starts = {m for block in blocks for m, _ in block.marginals}

    max_dev = np.zeros(len(queries))
    for rngs in _trial_chunks(seed, trials, chunk):
        # neither the stack nor its sums outlive the chunk, so the next
        # chunk's stack is built without them
        pre = _trailing_sums(_joint_stack(e, _draw(e, rngs), len(rngs)), starts)
        for block in blocks:
            k = len(block.shape)
            flat = np.empty(block.shape + (len(block.marginals), len(rngs)))
            for x, (m, axes) in enumerate(block.marginals):
                np.sum(pre[m], axis=axes, out=flat[..., x, :])
            sums = [flat.sum(axis=x, keepdims=True) for x in range(k)]
            devs = [_pair_deviations(flat, i, j, sums) for i, j in combinations(range(k), 2)]
            max_dev[block.queries] = np.maximum(max_dev[block.queries], devs)
        del pre

    records = tuple(
        QueryRecord(q, imp, dev, (not imp) or dev <= tol, imp or dev > dependence_threshold)
        for q, imp, dev in zip(queries, implied, max_dev.tolist())
    )
    return MarkovReport(n, trials, seed, tol, dependence_threshold, records)


# -- expression equivalence ---------------------------------------------------


class EquivalenceReport(NamedTuple):
    trials: int
    mode: str
    tol: float
    deviations: tuple[float, ...]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations, default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tol

    def summary(self) -> str:
        return (
            f"equivalence ({self.mode}): {'ok' if self.ok else 'FAILED'} over"
            f" {self.trials} trials, max deviation {self.max_deviation:.3e} (tol {self.tol:g})"
        )


def check_equivalence(
    e1: FactorExpression,
    e2: FactorExpression,
    shared: Mapping[str, str] | None = None,
    trials: int = 20,
    seed: int = 0,
    mode: str = "conditional",
    tol: float = 1e-12,
) -> EquivalenceReport:
    """Compare what two expressions represent, sharing designated tables.

    ``shared`` maps term names of e1 to term names of e2; those terms are
    instantiated identically (they must range over the same variables).
    ``mode="conditional"`` compares p(free | given), requiring equal
    free/given sets; ``mode="marginal"`` compares the marginal over the
    variables both expressions mention.  Each trial's generator draws e1's
    tables, then e2's; the shared ones are then copied, and e2's
    normalizers computed from its potentials as copied.
    """
    if trials < 1:
        raise OracleError("trials must be positive")
    _check_tol(tol)
    _check_seed(seed)
    _require_ground(e1)
    _require_ground(e2)
    shared = dict(shared or {})
    names1 = {t.name(): t for t in e1.terms}
    names2 = {t.name(): t for t in e2.terms}
    for k, v in shared.items():
        if k not in names1:
            raise OracleError(f"shared term {k!r} not in first expression")
        if v not in names2:
            raise OracleError(f"shared term {v!r} not in second expression")
        if names1[k].vars != names2[v].vars or names1[k].kind != names2[v].kind:
            raise OracleError(f"shared terms {k!r} and {v!r} have different signatures")

    if mode == "conditional":
        if e1.free_vars != e2.free_vars or e1.given_vars != e2.given_vars:
            raise OracleError("conditional comparison needs matching free/given variables")
        head = tuple(sorted(e1.free_vars, key=e1.sort_key))
        given = tuple(sorted(e1.given_vars, key=e1.sort_key))
    elif mode == "marginal":
        common = {v for t in e1.terms for v in t.vars} & {v for t in e2.terms for v in t.vars}
        head = tuple(v for v in e1.order if v in common)
        given = ()
    else:
        raise OracleError(f"unknown comparison mode {mode!r}")

    # refuse oversized joints before drawing any table
    order1, shape1 = _joint_shape(e1)
    order2, shape2 = _joint_shape(e2)
    inverse = {v: k for k, v in shared.items()}
    devs: list[float] = []
    for rngs in _trial_chunks(seed, trials, _chunk_size(shape1, shape2)):
        n = len(rngs)
        pa1 = _draw(e1, rngs)
        pa2 = _draw_terms(e2, rngs)
        for name2, name1 in inverse.items():
            pa2[name2] = pa1[name1]
        # e2's normalizers come from its potentials after the copy; a copied
        # normalizer stays as copied
        _compute_normalizers(e2, pa2, n, skip=frozenset(inverse))
        j1 = TermTable(order1, _joint_stack(e1, pa1, n))
        j2 = TermTable(order2, _joint_stack(e2, pa2, n))
        devs += _equivalence_deviations(j1, j2, head, given, mode).tolist()
    return EquivalenceReport(trials, mode, tol, tuple(devs))
