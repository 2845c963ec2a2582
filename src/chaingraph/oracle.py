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
  a leading axis, and each set of query nodes takes one marginal of the
  stack, on which one kernel scores every query over those nodes.
* `check_equivalence` instantiates two expressions with shared tables for
  designated terms and compares the conditional (or a marginal) they
  represent.

Normalizer terms are not random: they are computed as the actual
normalizing constants of their block's potentials, so the instantiated
product is a genuine chain-graph distribution.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import ChainGraph, StateSpaceError  # noqa: F401  (re-exported)
from .factorize import (
    FactorExpression,
    FactorTerm,
    PlateProduct,
    factorize_chain,
)
from .markov import CiQuery, implies_ci

MAX_JOINT_CONFIGS = 1 << 20
MAX_MARKOV_NODES = 10
DEFAULT_TOL = 1e-9
DEPENDENCE_THRESHOLD = 1e-6


class OracleError(ValueError):
    """Malformed request: missing tables, unknown variables, ratio input."""


class TermTable(NamedTuple):
    """A numeric table for one term; axes follow ``vars`` (given + head)."""

    vars: tuple[str, ...]
    table: np.ndarray


PotentialAssignment = dict[str, TermTable]


class JointTable(NamedTuple):
    vars: tuple[str, ...]
    table: np.ndarray

    def marginal(self, keep: Iterable[str]) -> "JointTable":
        return JointTable(*_marginal(self.table, self.vars, keep))

    def aligned(self, order: Sequence[str]) -> np.ndarray:
        if set(order) != set(self.vars) or len(order) != len(self.vars):
            raise OracleError("variable order does not match table")
        perm = [self.vars.index(v) for v in order]
        return np.transpose(self.table, perm)


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


def _domains_of(e: FactorExpression) -> dict[str, int]:
    if e.domains is None:
        raise OracleError("expression carries no domain sizes")
    return e.domains


def _require_ground(e: FactorExpression) -> None:
    if any(isinstance(it, PlateProduct) for it in e.items):
        raise OracleError("expression has unbound plate products; bind the plates first")
    if e.is_ratio or e.sum_out:
        raise OracleError("expression is a conditional ratio, not a plain product")


def _positive(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.uniform(0.1, 1.0, size=shape)


def _term_shape(t: FactorTerm, domains: Mapping[str, int]) -> tuple[int, ...]:
    try:
        return tuple(domains[v] for v in t.vars)
    except KeyError as exc:
        raise OracleError(f"no domain size for variable {exc.args[0]!r}") from None


def assignment_from_rng(e: FactorExpression, rng: np.random.Generator) -> PotentialAssignment:
    """Tables for every term, keyed by the term's rendered name.

    Conditionals: positive rows normalized over the head.  Deltas: a random
    deterministic function (one-hot rows).  Potentials: uniform in
    [0.1, 1.0].  Normalizers: computed exactly from their group's
    potentials so each block's conditional sums to one.
    """
    _require_ground(e)
    domains = _domains_of(e)
    pa: PotentialAssignment = {}
    terms = e.terms

    for t in terms:
        shape = _term_shape(t, domains)
        _check_size(f"table for {t.name()}", shape)
        if t.kind == "conditional":
            raw = _positive(rng, shape)
            table = raw / raw.sum(axis=tuple(range(len(t.given), len(shape))), keepdims=True)
        elif t.kind == "delta":
            given_shape = shape[: len(t.given)]
            head_sizes = shape[len(t.given) :]
            if len(head_sizes) != 1:
                raise OracleError("delta terms carry exactly one head variable")
            choice = rng.integers(0, head_sizes[0], size=given_shape)
            table = (np.arange(head_sizes[0]) == choice[..., None]).astype(float)
        elif t.kind == "potential":
            table = _positive(rng, shape)
        elif t.kind == "normalizer":
            continue  # computed below from the group's potentials
        else:
            raise OracleError(f"unknown term kind {t.kind!r}")
        pa[t.name()] = TermTable(t.vars, table)

    _compute_normalizers(e, pa, skip=frozenset())
    return pa


def _compute_normalizers(e: FactorExpression, pa: PotentialAssignment, skip: frozenset[str]) -> None:
    """(Re)derive each normalizer table as 1 / sum of its group's potential product."""
    domains = _domains_of(e)
    terms = e.terms
    for t in terms:
        if t.kind != "normalizer" or t.name() in skip:
            continue
        group = [u for u in terms if u.kind == "potential" and u.group == t.group]
        union = [v for v in e.order if any(v in u.vars for u in group) or v in t.vars]
        shape = tuple(domains[v] for v in union)
        _check_size(f"potential product for {t.name()}", shape)
        arr = np.ones(shape)
        for u in group:
            arr = arr * _broadcast(pa[u.name()], union, domains)
        summed = arr.sum(axis=tuple(i for i, v in enumerate(union) if v not in t.vars))
        kept = [v for v in union if v in t.vars]
        inv = 1.0 / summed
        perm = [kept.index(v) for v in t.vars]
        pa[t.name()] = TermTable(t.vars, np.transpose(inv, perm) if perm else inv)


def _broadcast(tt: TermTable, order: Sequence[str], domains: Mapping[str, int]) -> np.ndarray:
    """View a term table over the full variable order, ready to multiply."""
    missing = [v for v in tt.vars if v not in order]
    if missing:
        raise OracleError(f"term variable {missing[0]!r} missing from joint order")
    perm = sorted(range(len(tt.vars)), key=lambda i: order.index(tt.vars[i]))
    arr = np.transpose(tt.table, perm)
    shape = [domains[v] if v in tt.vars else 1 for v in order]
    return arr.reshape(shape)


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


def build_joint(e: FactorExpression, pa: PotentialAssignment) -> JointTable:
    """Explicit normalized joint over every variable the expression mentions."""
    _require_ground(e)
    domains = _domains_of(e)
    order, shape = _joint_shape(e)
    arr = np.ones(shape)
    for t in e.terms:
        tt = pa.get(t.name())
        if tt is None:
            raise OracleError(f"no table assigned to term {t.name()}")
        if tuple(tt.vars) != t.vars:
            raise OracleError(f"table for {t.name()} has variables {tt.vars}, expected {t.vars}")
        expected = _term_shape(t, domains)
        if tuple(tt.table.shape) != expected:
            raise OracleError(f"table for {t.name()} has shape {tt.table.shape}, expected {expected}")
        arr = arr * _broadcast(tt, order, domains)
    s = float(arr.sum())
    if not np.isfinite(s) or s <= 0.0:
        raise OracleError("assignment yields a zero or non-finite joint")
    return JointTable(order, arr / s)


def _ci_deviations(m: np.ndarray, m_vars: tuple[str, ...], queries: Sequence[CiQuery]) -> np.ndarray:
    """Each query's `ci_deviation`, at its largest over a stack of marginals.

    The leading axis of ``m`` counts the tables (trials), the other axes
    follow ``m_vars``, and every query mentions exactly the nodes of
    ``m_vars``.  Each query views ``m`` as (trials, A, B, S).  The queries
    whose views share a shape are scored together by `_block_deviations`,
    in blocks of as many as fit in ``MAX_JOINT_CONFIGS >> 7`` entries (at
    least one query each).
    """
    budget = MAX_JOINT_CONFIGS >> 7
    pos = {v: i for i, v in enumerate(m_vars)}
    t, dims = m.shape[0], m.shape[1:]
    buckets: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {}
    for k, q in enumerate(queries):
        a, b, s = (sorted(pos[v] for v in x) for x in (q.a, q.b, q.s))
        shape = (t, *(math.prod(dims[i] for i in x) for x in (a, b, s)))
        buckets.setdefault(shape, []).append((k, [0] + [1 + i for i in a + b + s]))
    out = np.zeros(len(queries))
    for shape, members in buckets.items():
        per = max(1, budget // math.prod(shape))
        for start in range(0, len(members), per):
            ks, perms = zip(*members[start : start + per])
            # a reshape may copy, so a block's views are made only when it is scored
            out[list(ks)] = _block_deviations([m.transpose(perm).reshape(shape) for perm in perms])
    return out


def _block_deviations(views: Sequence[np.ndarray]) -> np.ndarray:
    """max over trials and S-configs with p(S)>0 of |p(A,B|S) - p(A|S) p(B|S)|
    for each of the same-shaped (trials, A, B, S) views, scored together.

    The views are copied into one block, and every step after the copy is
    one numpy call over the block, done in place.  p(S) is summed from each
    query's own view: numpy's order for that sum over A and B follows the
    memory layout, and summing the block would change the last bit of some
    deviations.  p(A,S) and p(B,S) are summed from the block; that is the
    same arithmetic for A and B of fewer than 8 states, which numpy adds in
    index order whatever the layout.
    """
    t, na, nb, ns = views[0].shape
    p = np.empty((len(views), t, na, nb, ns))
    ps = np.empty((len(views), t, 1, 1, ns))
    for i, view in enumerate(views):
        p[i] = view
        view.sum(axis=(1, 2), out=ps[i, :, 0, 0])
    pas = p.sum(axis=3, keepdims=True)
    pbs = p.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(p, ps, out=p)
        np.divide(pas, ps, out=pas)
        np.divide(pbs, ps, out=pbs)
        np.subtract(p, pas * pbs, out=p)
    np.abs(p, out=p)
    np.copyto(p, 0.0, where=ps <= 0.0)
    return p.reshape(len(views), -1).max(axis=1, initial=0.0)


def ci_deviation(j: JointTable, q: CiQuery) -> float:
    """max over S-configs with p(S)>0 of max |p(A,B|S) - p(A|S) p(B|S)|."""
    nodes = q.a | q.b | q.s
    missing = nodes - set(j.vars)
    if missing:
        raise OracleError(f"query variables {sorted(missing)} not in joint")
    m_vars, m = _marginal(j.table[None], j.vars, nodes)
    return float(_ci_deviations(m, m_vars, [q])[0])


def conditional_deviation(
    j1: JointTable, j2: JointTable, head: Iterable[str], given: Iterable[str]
) -> float:
    """max |p1(head|given) - p2(head|given)| over configs both sides support."""
    head_t = tuple(head)
    given_t = tuple(given)
    order = head_t + given_t

    def cond(j: JointTable) -> tuple[np.ndarray, np.ndarray]:
        arr = j.marginal(order).aligned(order)
        nh = math.prod(arr.shape[: len(head_t)])
        p = arr.reshape(nh, -1)
        pg = p.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = p / pg
        return c, pg

    c1, g1 = cond(j1)
    c2, g2 = cond(j2)
    ok = (g1 > 0.0) & (g2 > 0.0)
    if not ok.any():
        return 0.0
    return float(np.abs(c1[:, ok] - c2[:, ok]).max(initial=0.0))


def marginal_deviation(j1: JointTable, j2: JointTable, on: Iterable[str]) -> float:
    order = tuple(on)
    m1 = j1.marginal(order).aligned(order)
    m2 = j2.marginal(order).aligned(order)
    return float(np.abs(m1 - m2).max(initial=0.0))


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
    """Every (a _||_ b | S) with singleton a, b and S over the remaining nodes."""
    names = g.node_names
    out: list[CiQuery] = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            rest = [v for v in names if v not in (a, b)]
            for mask in range(1 << len(rest)):
                s = frozenset(rest[k] for k in range(len(rest)) if mask >> k & 1)
                out.append(CiQuery(frozenset((a,)), frozenset((b,)), s))
    return out


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
    ``MAX_JOINT_CONFIGS`` entries, and the queries are grouped by the nodes
    they mention: per group and chunk one marginal is taken, and
    `_ci_deviations` scores all of the group's queries on it at once.  It
    copies same-shaped (trials, A, B, S) views of the marginal into stacked
    blocks of at most ``MAX_JOINT_CONFIGS >> 7`` entries, so each numpy step
    of the deviation runs once per block, not once per query.
    Whether the graph implies a query is `implies_ci`'s answer.
    """
    if len(g.node_names) > MAX_MARKOV_NODES:
        raise StateSpaceError(
            f"global Markov sweep graph has {len(g.node_names)} nodes, over the limit of {MAX_MARKOV_NODES}"
        )
    if trials < 1:
        raise OracleError("trials must be positive")
    _check_tol(tol)
    e = factorize_chain(g)
    order, shape = _joint_shape(e)
    queries = all_singleton_queries(g)
    groups: dict[frozenset[str], list[int]] = {}
    for k, q in enumerate(queries):
        groups.setdefault(q.a | q.b | q.s, []).append(k)
    implied = [implies_ci(g, q) for q in queries]

    max_dev = np.zeros(len(queries))
    seqs = np.random.SeedSequence(seed).spawn(trials)
    chunk = max(1, MAX_JOINT_CONFIGS // math.prod(shape))
    for start in range(0, trials, chunk):
        part = seqs[start : start + chunk]
        stack = np.empty((len(part),) + shape)
        for i, seq in enumerate(part):
            stack[i] = build_joint(e, assignment_from_rng(e, np.random.default_rng(seq))).table
        for nodes, ks in groups.items():
            m_vars, m = _marginal(stack, order, nodes)
            max_dev[ks] = np.maximum(max_dev[ks], _ci_deviations(m, m_vars, [queries[k] for k in ks]))

    records = tuple(
        QueryRecord(
            query=q,
            implied=imp,
            max_deviation=float(max_dev[k]),
            sound=bool((not imp) or max_dev[k] <= tol),
            dependence_seen=bool(imp or max_dev[k] > dependence_threshold),
        )
        for k, (q, imp) in enumerate(zip(queries, implied))
    )
    return MarkovReport(len(g.node_names), trials, seed, tol, dependence_threshold, records)


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
    variables both expressions mention.
    """
    _check_tol(tol)
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
    _joint_shape(e1)
    _joint_shape(e2)
    inverse = {v: k for k, v in shared.items()}
    devs: list[float] = []
    for seq in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(seq)
        pa1 = assignment_from_rng(e1, rng)
        pa2 = assignment_from_rng(e2, rng)
        for name2, name1 in inverse.items():
            pa2[name2] = pa1[name1]
        # a copied potential invalidates its group's computed normalizer
        _compute_normalizers(e2, pa2, skip=frozenset(inverse))
        j1 = build_joint(e1, pa1)
        j2 = build_joint(e2, pa2)
        if mode == "conditional":
            devs.append(conditional_deviation(j1, j2, head, given))
        else:
            devs.append(marginal_deviation(j1, j2, head))
    return EquivalenceReport(trials, mode, tol, tuple(devs))


# -- deterministic-node elimination, numerically ------------------------------


def _delta_value(tt: TermTable, given_values: tuple[int, ...]) -> int:
    row = tt.table[given_values]
    return int(np.argmax(row))


def eliminated_assignment(
    g: ChainGraph, g2: ChainGraph, pa: PotentialAssignment
) -> PotentialAssignment:
    """Tables for factorize_chain(g2), where g2 = eliminate_deterministic(g)
    and g is purely directed: each surviving node's table composes the
    original one with the deterministic functions it absorbed.  The result
    represents exactly the original marginal on the surviving nodes.
    """
    if not g.is_directed:
        raise OracleError("eliminated_assignment requires a purely directed graph")
    dets = set(g.deterministic_nodes())

    def value_of(x: str, env: dict[str, int]) -> int:
        if x in env:
            return env[x]
        if x not in dets:
            raise OracleError(f"value of non-deterministic node {x!r} is not determined")
        parents = g.sorted_nodes(g.parents(x))
        vals = tuple(value_of(p, env) for p in parents)
        name = f"delta({x}|{','.join(parents)})"
        env[x] = _delta_value(pa[name], vals)
        return env[x]

    out: PotentialAssignment = {}
    for y in g2.node_names:
        new_parents = g2.sorted_nodes(g2.parents(y))
        old_parents = g.sorted_nodes(g.parents(y))
        old_name = f"p({y}|{','.join(old_parents)})" if old_parents else f"p({y})"
        old = pa[old_name]
        dsize = g.attr(y).domain_size
        shape = tuple(g2.attr(p).domain_size for p in new_parents) + (dsize,)
        table = np.empty(shape)
        for idx in np.ndindex(shape[:-1]):
            env = dict(zip(new_parents, (int(i) for i in idx)))
            old_vals = tuple(value_of(p, env) for p in old_parents)
            table[idx] = old.table[old_vals]
        new_name = f"p({y}|{','.join(new_parents)})" if new_parents else f"p({y})"
        out[new_name] = TermTable(tuple(new_parents) + (y,), table)
    return out
