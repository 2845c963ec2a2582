import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from chaingraph import (
    ChainGraph,
    CiQuery,
    NodeAttr,
    OracleError,
    StateSpaceError,
    TermTable,
    all_singleton_queries,
    assignment_from_rng,
    build_joint,
    check_equivalence,
    check_global_markov,
    ci_deviation,
    directed,
    eliminate_deterministic,
    expand,
    factorize_chain,
    implies_ci,
    undirected,
    validate_chain_graph,
)
from chaingraph import oracle
from helpers import (
    eliminated_assignment,
    per_trial_aligned,
    per_trial_assignment,
    per_trial_equivalence,
    per_trial_joint,
    per_trial_marginal_deviation,
    random_assignment,
    random_chain_graph,
    random_dag,
    random_mixed,
)


def chain(n):
    names = [f"n{i}" for i in range(n)]
    return ChainGraph(names, [directed(names[i], names[i + 1]) for i in range(n - 1)])


# -- assignments -------------------------------------------------------------------


def test_conditional_tables_are_normalized(graphs):
    e = factorize_chain(graphs["fig1a"])
    pa = random_assignment(e, seed=11)
    t = pa["p(Dis|Age,Occ,Clim)"]
    assert t.vars == ("Age", "Occ", "Clim", "Dis")
    np.testing.assert_allclose(t.table.sum(axis=-1), 1.0)
    prior = pa["p(Age)"]
    np.testing.assert_allclose(prior.table.sum(), 1.0)


def test_potentials_live_in_the_positive_band(graphs):
    e = factorize_chain(graphs["boltzmann"])
    pa = random_assignment(e, seed=3)
    f1 = pa["f_1(x1,h1,o,wC1)"]
    assert f1.table.shape == (2, 2, 2, 2)
    assert (f1.table >= 0.1).all() and (f1.table < 1.0).all()


def test_delta_tables_are_one_hot():
    g = ChainGraph(
        {"x": NodeAttr(), "d": NodeAttr(deterministic=True, domain_size=3)},
        [directed("x", "d")],
    )
    e = factorize_chain(g)
    pa = random_assignment(e, seed=0)
    t = pa["delta(d|x)"]
    assert t.table.shape == (2, 3)
    assert ((t.table == 0.0) | (t.table == 1.0)).all()
    np.testing.assert_allclose(t.table.sum(axis=-1), 1.0)


def test_normalizers_are_computed_not_random(graphs):
    g = ChainGraph("abc", [undirected("a", "b"), undirected("b", "c")])
    e = factorize_chain(g)
    assert [t.name() for t in e.terms] == ["Z^-1", "f_0(a,b)", "f_1(b,c)"]
    pa = random_assignment(e, seed=5)
    f0, f1 = pa["f_0(a,b)"].table, pa["f_1(b,c)"].table
    z = pa["Z^-1"].table
    np.testing.assert_allclose(z, 1.0 / np.einsum("ab,bc->", f0, f1))


def test_parentless_block_normalizers_are_distinct():
    # two parentless blocks: each needs its own partition function
    g = ChainGraph("abcdef", [undirected("a", "b"), undirected("b", "c"), undirected("d", "e"), undirected("e", "f")])
    e = factorize_chain(g)
    names = [t.name() for t in e.terms]
    assert len(set(names)) == len(names)
    pa = random_assignment(e, seed=5)
    for group in sorted({t.group for t in e.terms}):
        members = [t for t in e.terms if t.group == group]
        order = sorted({v for t in members for v in t.vars})
        operands = []
        for t in members:
            operands += [pa[t.name()].table, [order.index(v) for v in t.vars]]
        # potentials times normalizer, summed over the block: one, before
        # build_joint renormalizes anything
        assert np.einsum(*operands, []) == pytest.approx(1.0, rel=1e-12)


def test_block_normalizer_inverts_the_parent_sum(graphs):
    e = factorize_chain(graphs["fig2"])
    pa = random_assignment(e, seed=7)
    # f_0(b,c) must equal 1 / sum over e,f,g,h of the product of f_1..f_6
    z = pa["f_0(b,c)"]
    assert z.vars == ("b", "c")
    total = np.zeros((2, 2))
    for b in range(2):
        for c in range(2):
            s = 0.0
            for ev in range(2):
                for f in range(2):
                    for gg in range(2):
                        for h in range(2):
                            s += (
                                pa["f_1(b,f)"].table[b, f]
                                * pa["f_2(c,e)"].table[c, ev]
                                * pa["f_3(e,f)"].table[ev, f]
                                * pa["f_4(e,g)"].table[ev, gg]
                                * pa["f_5(f,h)"].table[f, h]
                                * pa["f_6(g,h)"].table[gg, h]
                            )
            total[b, c] = s
    np.testing.assert_allclose(z.table, 1.0 / total)


# -- joints ------------------------------------------------------------------------


def test_build_joint_normalizes(graphs):
    for name in ("fig1a", "fig2", "boltzmann", "cad"):
        e = factorize_chain(graphs[name])
        j = build_joint(e, random_assignment(e, seed=1))
        assert j.table.shape == tuple(2 for _ in j.vars)
        np.testing.assert_allclose(j.table.sum(), 1.0)
        assert (j.table >= 0).all()


def test_build_joint_respects_the_size_guard():
    e = factorize_chain(chain(21))
    with pytest.raises(StateSpaceError, match="joint has 2097152 configurations, over the limit of 1048576"):
        build_joint(e, {})


def _peak_bytes(fn):
    """Peak traced allocation while ``fn`` runs (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_guards_refuse_before_allocating():
    parents = [f"x{i}" for i in range(21)]
    wide = factorize_chain(ChainGraph(parents + ["y"], [directed(p, "y") for p in parents]))
    long_block = factorize_chain(
        ChainGraph(parents, [undirected(u, v) for u, v in zip(parents, parents[1:])])
    )
    cases = [
        (lambda: assignment_from_rng(wide, np.random.default_rng(0)), "table for p\\(y\\|x0,.*,x20\\) has 4194304"),
        (lambda: assignment_from_rng(long_block, np.random.default_rng(0)), "potential product for Z\\^-1 has 2097152"),
        (lambda: check_equivalence(wide, wide), "joint has 4194304"),
    ]
    for call, message in cases:
        def refused():
            with pytest.raises(StateSpaceError, match=message + " configurations, over the limit of 1048576"):
                call()

        assert _peak_bytes(refused) < 1 << 20


def test_build_joint_checks_tables(graphs):
    e = factorize_chain(graphs["fig1a"])
    pa = random_assignment(e, seed=1)
    del pa["p(Age)"]
    with pytest.raises(OracleError, match="no table assigned"):
        build_joint(e, pa)
    pa2 = random_assignment(e, seed=1)
    bad = pa2["p(Age)"]
    pa2["p(Age)"] = TermTable(bad.vars, np.ones((3,)))
    with pytest.raises(OracleError, match="shape"):
        build_joint(e, pa2)
    pa3 = random_assignment(e, seed=1)
    pa3["p(Age)"] = TermTable(("Occ",), pa3["p(Age)"].table)
    with pytest.raises(OracleError, match="variables"):
        build_joint(e, pa3)


# -- deviations ----------------------------------------------------------------------


def test_ci_deviation_on_product_distribution():
    pa = np.array([0.3, 0.7])
    pb = np.array([0.6, 0.4])
    j = TermTable(("a", "b"), np.outer(pa, pb))
    q = CiQuery(frozenset("a"), frozenset("b"))
    assert ci_deviation(j, q) < 1e-15
    assert ci_deviation(j, q) <= oracle.DEFAULT_TOL

    dependent = TermTable(("a", "b"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert ci_deviation(dependent, q) == pytest.approx(0.25)
    assert ci_deviation(dependent, q) > oracle.DEFAULT_TOL


def test_ci_deviation_conditional():
    # a and b independent given s, but strongly dependent marginally
    ps = np.array([0.5, 0.5])
    pa_s = np.array([[0.9, 0.1], [0.1, 0.9]])
    pb_s = np.array([[0.9, 0.1], [0.1, 0.9]])
    table = np.einsum("s,sa,sb->abs", ps, pa_s, pb_s)
    j = TermTable(("a", "b", "s"), table)
    assert ci_deviation(j, CiQuery(frozenset("a"), frozenset("b"), frozenset("s"))) < 1e-15
    assert ci_deviation(j, CiQuery(frozenset("a"), frozenset("b"))) > 0.1


# -- numeric vs graph answers ---------------------------------------------------------


def test_numeric_ci_agrees_with_graph_on_fig1a(graphs):
    g = graphs["fig1a"]
    e = factorize_chain(g)
    j = build_joint(e, random_assignment(e, seed=23))
    from chaingraph import parse_ci_query

    for text in ("Symp _||_ Occ | Age,Dis", "Symp _||_ Clim | Age,Dis"):
        q = parse_ci_query(text)
        assert implies_ci(g, q) and ci_deviation(j, q) <= oracle.DEFAULT_TOL
    # non-implied dependencies should actually show up for a random draw
    q = parse_ci_query("Symp _||_ Occ | Age")
    assert not implies_ci(g, q) and ci_deviation(j, q) > oracle.DEFAULT_TOL


def test_all_singleton_queries_counts():
    g = chain(4)
    qs = all_singleton_queries(g)
    assert len(qs) == 6 * 4  # pairs times subsets of the remaining two
    assert len({q.text() for q in qs}) == len(qs)


def test_check_global_markov_soundness(graphs):
    rep = check_global_markov(graphs["fig3"], trials=3, seed=1)
    assert rep.ok
    assert rep.node_count == 6
    assert not rep.violations
    assert "soundness: ok" in rep.summary()


def test_check_global_markov_node_bound(models):
    # ground coin with N=10 has 11 nodes, one over the limit
    with pytest.raises(StateSpaceError, match="sweep graph has 11 nodes, over the limit of 10"):
        check_global_markov(expand(models["coin"], {"N": 10}))


@pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf"), float("-inf")])
def test_sweep_and_equivalence_refuse_a_bad_tol(graphs, tol):
    # such a tol would fail, or pass, every comparison against it
    with pytest.raises(OracleError, match="tol must be a finite number >= 0"):
        check_global_markov(graphs["fig3"], trials=1, tol=tol)
    e = factorize_chain(graphs["fig3"])
    with pytest.raises(OracleError, match="tol must be a finite number >= 0"):
        check_equivalence(e, e, trials=1, tol=tol)


@pytest.mark.parametrize("trials", [0, -3])
def test_sweep_and_equivalence_refuse_no_trials(graphs, trials):
    # with no trial, every check would pass vacuously
    with pytest.raises(OracleError, match="trials must be positive"):
        check_global_markov(graphs["fig3"], trials=trials)
    e1, e2 = factorize_chain(graphs["fig1a"]), factorize_chain(graphs["fig3"])
    with pytest.raises(OracleError, match="trials must be positive"):
        check_equivalence(e1, e2, trials=trials, mode="marginal")


def test_sweep_and_equivalence_refuse_a_negative_seed(graphs):
    with pytest.raises(OracleError, match="seed must be >= 0, got -5"):
        check_global_markov(graphs["fig3"], trials=1, seed=-5)
    e = factorize_chain(graphs["fig3"])
    with pytest.raises(OracleError, match="seed must be >= 0, got -1"):
        check_equivalence(e, e, trials=1, seed=-1)


def test_zero_tol_is_accepted(graphs):
    assert check_global_markov(graphs["fig1a"], trials=1, tol=0.0).tol == 0.0
    e = factorize_chain(graphs["fig3"])
    assert check_equivalence(e, e, trials=1, tol=0).tol == 0


def _one_joint_deviation(j, q):
    """The deviation of one query on one joint, written without the stacked
    kernel that `ci_deviation` and the sweep share."""
    a, b, s = (tuple(sorted(x, key=j.vars.index)) for x in (q.a, q.b, q.s))
    arr = per_trial_aligned(j, a + b + s)
    na, nb = arr.shape[0], arr.shape[1]  # singleton queries
    p = arr.reshape(na, nb, -1)
    ps = p.sum(axis=(0, 1))
    pas = p.sum(axis=1)
    pbs = p.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(p / ps - (pas[:, None, :] / ps) * (pbs[None, :, :] / ps))
    dev[:, :, ps <= 0.0] = 0.0
    return float(dev.max(initial=0.0))


def _per_trial_sweep(g, trials, seed):
    """The sweep as a plain loop: every trial's tables and joint drawn on
    their own, every query scored on its own; `implies_ci` per query."""
    e = factorize_chain(g)
    queries = all_singleton_queries(g)
    max_dev = [0.0] * len(queries)
    for seq in np.random.SeedSequence(seed).spawn(trials):
        j = per_trial_joint(e, per_trial_assignment(e, np.random.default_rng(seq)))
        for k, q in enumerate(queries):
            d = _one_joint_deviation(j, q)
            assert ci_deviation(j, q) == d
            max_dev[k] = max(max_dev[k], d)
    return [(q, implies_ci(g, q), d) for q, d in zip(queries, max_dev)]


def _implied_pass_targets(models):
    for name, m in sorted(models.items()):
        if not m.plates and len(m.graph.node_names) <= oracle.MAX_MARKOV_NODES:
            yield name, m.graph
    for n in range(3, 8):
        yield f"coin[N={n}]", expand(models["coin"], {"N": n})
    for seed in range(3):
        rng = random.Random(seed)
        for n in range(2, 10):
            for make in (random_chain_graph, random_mixed, random_dag):
                g = make(rng, n)
                if validate_chain_graph(g).ok:
                    yield f"{make.__name__}(seed {seed}, {n} nodes)", g


def test_implied_pass_equals_implies_ci(models):
    """The sweep's one `separated_pairs` pass per node set answers every
    singleton query as `implies_ci` does."""
    for name, g in _implied_pass_targets(models):
        queries = all_singleton_queries(g)
        want = [implies_ci(g, q) for q in queries]
        assert oracle._implied(g, len(queries)) == want, name


def _sweep_targets(models):
    fig2 = models["fig2"].graph
    return {
        "fig2": fig2,
        "cad": models["cad"].graph,
        "coin[N=5]": expand(models["coin"], {"N": 5}),
        # a group's pairs of 2- and 3-state nodes take views of several
        # shapes, and the 3-state deterministic d leaves some p(S) at zero
        "fig2[3-state]": fig2.with_attrs(
            {v: NodeAttr(domain_size=3, deterministic=v == "d") for v in "bdeg"}
        ),
    }


def _watch_blocks(monkeypatch):
    """Record (node sets, trials, domain shape, (|a|, |b|)) for every pair of
    local axes `_pair_deviations` scores over a block."""
    blocks = []
    score = oracle._pair_deviations

    def watched(flat, i, j, sums):
        *dims, n, t = flat.shape
        blocks.append((n, t, tuple(dims), (dims[i], dims[j])))
        return score(flat, i, j, sums)

    monkeypatch.setattr(oracle, "_pair_deviations", watched)
    return blocks


def _assert_matches_per_trial_loop(g, trials, seed):
    rep = check_global_markov(g, trials=trials, seed=seed)
    want = _per_trial_sweep(g, trials, seed)
    assert [r.query for r in rep.records] == [q for q, _, _ in want]
    for r, (_, implied, dev) in zip(rep.records, want):
        assert r.implied == implied
        assert r.max_deviation == dev  # exactly: same arithmetic, trial by trial
        assert r.sound == ((not implied) or dev <= rep.tol)
        assert r.dependence_seen == (implied or dev > rep.dependence_threshold)


@pytest.mark.parametrize("name", ["fig2", "cad", "coin[N=5]", "fig2[3-state]"])
def test_batched_sweep_matches_per_trial_loop(models, monkeypatch, name):
    blocks = _watch_blocks(monkeypatch)
    _assert_matches_per_trial_loop(_sweep_targets(models)[name], trials=6, seed=17)
    pairs = {ab for _, t, _, ab in blocks if t == 6}
    assert pairs == ({(2, 2), (2, 3), (3, 2), (3, 3)} if name == "fig2[3-state]" else {(2, 2)})


@pytest.mark.parametrize("name", ["fig2", "cad", "coin[N=5]"])
def test_batched_sweep_in_small_chunks(models, monkeypatch, name):
    stacks, sizes = [], []
    trailing_sums = oracle._trailing_sums

    def watched(stack, starts):
        pre = trailing_sums(stack, starts)
        stacks.append(stack.shape)
        sizes.extend(p.size for p in pre.values())
        assert sum(p.size for p in pre.values()) < 2 * stack.size
        return pre

    monkeypatch.setattr(oracle, "_trailing_sums", watched)
    blocks = _watch_blocks(monkeypatch)
    # 600 entries hold two 8-node joints: fig2's trials go in chunks of two.
    # 2^14 entries hold every stack whole, and its block budget of 128
    # entries stacks several node sets of one domain shape into a block.
    for limit in (600, 1 << 14):
        monkeypatch.setattr(oracle, "MAX_JOINT_CONFIGS", limit)
        stacks.clear()
        sizes.clear()
        blocks.clear()
        _assert_matches_per_trial_loop(_sweep_targets(models)[name], trials=5, seed=4)
        assert max(sizes + [np.prod(s) for s in stacks]) <= limit
        if name == "fig2" and limit == 600:
            assert {s[0] for s in stacks} == {2, 1}
        budget = limit >> 7
        assert all(n == 1 or n * t * np.prod(dims) <= budget for n, t, dims, _ in blocks)
        assert any(n > 1 for n, _, _, _ in blocks) == (limit > 600)


def test_trailing_sums_give_every_marginal_bit_for_bit():
    """Each node set's marginal, summed from the stack's sum over its
    trailing run with trials last, is ``stack.sum(axis=dropped)``: 8- and
    11-state runs are summed pairwise, one-state axes pass."""
    rng = np.random.default_rng(25)
    runs = set()
    for _ in range(60):
        shape = tuple(int(d) for d in rng.choice((1, 2, 8, 11), size=rng.integers(2, 6)))
        if np.prod(shape) > 1 << 13:
            continue
        t = int(rng.integers(1, 6))
        stack = rng.uniform(0.1, 1.0, size=(t, *shape))
        names = [f"v{x}" for x in range(len(shape))]
        marginals = [mg for block in oracle._blocks(names, shape, t) for mg in block.marginals]
        assert len(marginals) == 2 ** len(shape) - len(shape) - 1
        pre = oracle._trailing_sums(stack, {m for m, _ in marginals})
        for m, axes in marginals:
            want = np.moveaxis(stack.sum(axis=tuple(1 + x for x in axes)), 0, -1)
            assert _same_bits(pre[m].sum(axis=axes), want), (shape, t, axes)
            runs.add(np.prod(shape[m:]))
    assert max(runs) >= 64  # runs past numpy's 8-term pairwise blocks


def test_p_s_from_the_block_equals_the_view_sum(monkeypatch):
    """Wherever `_s_sums` takes p(S) from the block, it equals `_view_sum`
    bit for bit, on blocks of one row (one set, one trial) or more, with
    one-, 2-, 3-, 7-, 8- and 9-state axes."""
    view_sum = oracle._view_sum
    called = []

    def watched(flat, i, j):
        called.append((i, j))
        return view_sum(flat, i, j)

    monkeypatch.setattr(oracle, "_view_sum", watched)
    rng = np.random.default_rng(25)
    taken = 0
    for _ in range(300):
        dims = tuple(int(d) for d in rng.choice((1, 2, 3, 7, 8, 9), size=rng.integers(2, 5)))
        if np.prod(dims) > 2000:
            continue
        n, t = (int(x) for x in rng.integers(1, 4, size=2))
        flat = rng.uniform(0.1, 1.0, size=(*dims, n, t))
        sums = [flat.sum(axis=x, keepdims=True) for x in range(len(dims))]
        for i, j in combinations(range(len(dims)), 2):
            called.clear()
            ps = oracle._s_sums(flat, i, j, sums)
            if not called:
                taken += 1
                assert _same_bits(ps, view_sum(flat, i, j)), (dims, n, t, i, j)
    assert taken > 200


def test_batched_sweep_matches_per_trial_loop_on_random_graphs():
    """Random chain, mixed and DAG graphs of 2-5 nodes with 1-7 states each:
    a one-state node lets numpy merge axes in a query's own p(S) sum, which
    the block cannot follow."""
    rng = random.Random(25)
    makers = (random_chain_graph, random_mixed, random_dag)
    made = 0
    while made < 40:
        g = makers[made % 3](rng, rng.randint(2, 5))
        if not validate_chain_graph(g).ok:
            continue
        g = g.with_attrs({v: NodeAttr(domain_size=rng.randint(1, 7)) for v in g.node_names})
        _assert_matches_per_trial_loop(g, trials=rng.randint(1, 3), seed=made)
        made += 1


# -- stacked trials against the per-trial loop ---------------------------------------


def _generators(seed, trials):
    return [np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(trials)]


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _assert_stack_matches_per_trial_loop(e, trials, seed, label):
    """Every stacked table and joint equals the per-trial loop's, bit for bit."""
    pa = oracle._draw(e, _generators(seed, trials))
    stack = oracle._joint_stack(e, pa, trials)
    for k, (rng, same) in enumerate(zip(_generators(seed, trials), _generators(seed, trials))):
        want = per_trial_assignment(e, rng)
        assert list(pa) == list(want), label
        for name, tt in want.items():
            assert pa[name].vars == tt.vars, (label, name)
            assert _same_bits(pa[name].table[k], tt.table), (label, name, k)
        assert _same_bits(stack[k], per_trial_joint(e, want).table), (label, k)
        assert _same_bits(build_joint(e, want).table, stack[k]), (label, k)
        one = assignment_from_rng(e, same)
        assert all(_same_bits(one[name].table, tt.table) for name, tt in want.items()), (label, k)


def _oracle_corpus(models):
    for name, m in sorted(models.items()):
        if not m.plates:
            yield name, m.graph
    yield "coin[N=5]", expand(models["coin"], {"N": 5})
    yield "banks[2; 2,3]", expand(models["banks"], {"Banks": 2, "Prices": (2, 3)})


def test_stacked_tables_and_joints_match_per_trial_loop_on_corpus(models):
    kinds = set()
    for name, g in _oracle_corpus(models):
        e = factorize_chain(g)
        kinds |= {t.kind for t in e.terms}
        _assert_stack_matches_per_trial_loop(e, trials=4, seed=5, label=name)
    assert kinds == {"conditional", "delta", "potential", "normalizer"}


def _random_oracle_graphs(count):
    """Valid random chain, mixed and DAG graphs whose joint the oracle
    accepts, with domain sizes from {2, 3, 5, 9}; a node with parents and no
    undirected edge is deterministic half the time."""
    rng = random.Random(15)
    makers = (random_chain_graph, random_mixed, random_dag)
    made = 0
    while made < count:
        g = makers[made % 3](rng, rng.randint(2, 7))
        if not validate_chain_graph(g).ok:
            continue
        attrs = {
            v: NodeAttr(
                domain_size=rng.choice((2, 3, 5, 9)),
                deterministic=bool(g.parents(v)) and not g.neighbors(v) and rng.random() < 0.5,
            )
            for v in g.node_names
        }
        g = g.with_attrs(attrs)
        if np.prod([a.domain_size for a in attrs.values()]) > oracle.MAX_JOINT_CONFIGS:
            continue
        made += 1
        yield g


def test_stacked_tables_and_joints_match_per_trial_loop_on_random_graphs():
    kinds, states, largest = set(), set(), 0
    for k, g in enumerate(_random_oracle_graphs(210)):
        e = factorize_chain(g)
        kinds |= {t.kind for t in e.terms}
        states |= set(e.domains.values())
        largest = max(largest, int(np.prod(oracle._joint_shape(e)[1])))
        _assert_stack_matches_per_trial_loop(e, trials=3, seed=k, label=k)
    assert kinds == {"conditional", "delta", "potential", "normalizer"}
    assert states == {2, 3, 5, 9}
    assert largest > 1 << 16  # joints past numpy's summation blocks


EQUIV_SHARED = {"p(Dis|Age,Occ,Clim)": "p(Dis|Age,Occ,Clim)", "p(Symp|Age,Dis)": "p(Symp|Age,Dis)"}


@pytest.mark.parametrize("mode", ["conditional", "marginal"])
def test_equivalence_deviations_match_per_trial_loop(graphs, mode):
    e1 = factorize_chain(graphs["fig1a"])
    e2 = factorize_chain(graphs["fig1b"])
    fig3 = factorize_chain(graphs["fig3"])
    potentials = {t.name(): t.name() for t in fig3.terms if t.kind == "potential"}
    for a, b, shared in ((e1, e2, EQUIV_SHARED), (e1, e2, {}), (fig3, fig3, potentials)):
        rep = check_equivalence(a, b, shared=shared, trials=7, seed=3, mode=mode)
        want = per_trial_equivalence(a, b, shared, trials=7, seed=3, mode=mode)
        assert _same_bits(rep.deviations, want)


def test_chunking_leaves_sweep_and_equivalence_unchanged(graphs, monkeypatch):
    """fig3's joint has 64 entries: limits of 64, 128 and 192 entries run
    its trials one, two and three to a chunk (fig1a's and fig1b's 32-entry
    joints twice as many), each chunk spawning its own generators."""
    g = graphs["fig3"]
    e = factorize_chain(g)
    e1, e2 = factorize_chain(graphs["fig1a"]), factorize_chain(graphs["fig1b"])

    def run():
        return (
            check_global_markov(g, trials=5, seed=8).records,
            check_equivalence(e, e, trials=5, seed=8, mode="marginal").deviations,
            check_equivalence(e1, e2, shared=EQUIV_SHARED, trials=5, seed=8).deviations,
        )

    whole = run()
    stacks = []
    joint_stack = oracle._joint_stack

    def watched(e, pa, trials):
        out = joint_stack(e, pa, trials)
        stacks.append(out.shape)
        return out

    monkeypatch.setattr(oracle, "_joint_stack", watched)
    for per_chunk in (1, 2, 3):
        limit = 64 * per_chunk
        monkeypatch.setattr(oracle, "MAX_JOINT_CONFIGS", limit)
        stacks.clear()
        assert run() == whole
        assert max(s[0] for s in stacks if s[1:] == (2,) * 6) == per_chunk
        assert all(np.prod(s) <= limit for s in stacks)


# -- equivalence ----------------------------------------------------------------------


def test_equivalence_of_identical_models(graphs):
    e = factorize_chain(graphs["fig3"])
    rep = check_equivalence(e, e, shared={t.name(): t.name() for t in e.terms if t.kind != "normalizer"}, trials=3)
    assert rep.ok
    assert rep.max_deviation < 1e-15


def test_equivalence_negative_control(graphs):
    # without shared tables, two independently sampled models differ
    e1 = factorize_chain(graphs["fig1a"])
    e2 = factorize_chain(graphs["fig1b"])
    rep = check_equivalence(e1, e2, trials=3)
    assert not rep.ok
    assert rep.max_deviation > 1e-3
    assert "FAILED" in rep.summary()


def test_equivalence_shared_map_validation(graphs):
    e1 = factorize_chain(graphs["fig1a"])
    e2 = factorize_chain(graphs["fig1b"])
    with pytest.raises(OracleError, match="not in first"):
        check_equivalence(e1, e2, shared={"p(nope)": "p(Age)"})
    with pytest.raises(OracleError, match="not in second"):
        check_equivalence(e1, e2, shared={"p(Age)": "p(nope)"})
    with pytest.raises(OracleError, match="different signatures"):
        check_equivalence(e1, e2, shared={"p(Occ|Age)": "p(Occ)"})


def test_equivalence_modes(graphs):
    e1 = factorize_chain(graphs["fig1a"])
    e2 = factorize_chain(graphs["fig2"])
    with pytest.raises(OracleError, match="matching free/given"):
        check_equivalence(e1, e2, mode="conditional")
    with pytest.raises(OracleError, match="unknown comparison mode"):
        check_equivalence(e1, e1, mode="exact")
    rep = check_equivalence(e1, e1, shared={t.name(): t.name() for t in e1.terms}, trials=2, mode="marginal")
    assert rep.ok


# -- deterministic elimination, numerically --------------------------------------------


def _det_funnel():
    """x1 -> d <- x2 with d -> y, d deterministic: eliminating d rewires
    both x1 and x2 to y."""
    return ChainGraph(
        {
            "x1": NodeAttr(),
            "x2": NodeAttr(),
            "d": NodeAttr(deterministic=True),
            "y": NodeAttr(),
        },
        [directed("x1", "d"), directed("x2", "d"), directed("d", "y")],
    )


def test_eliminated_assignment_preserves_marginal():
    g = _det_funnel()
    g2 = eliminate_deterministic(g)
    e = factorize_chain(g)
    pa = random_assignment(e, seed=31)
    pa2 = eliminated_assignment(g, g2, pa)
    e2 = factorize_chain(g2)
    j = build_joint(e, pa)
    j2 = build_joint(e2, pa2)
    assert per_trial_marginal_deviation(j, j2, g2.node_names) < 1e-14


def test_eliminated_assignment_refuses_a_wrong_elimination():
    # the referee must bite: an elimination that drops the rewired arc
    # x2 -> y leaves y's value undetermined by its new parents
    g = _det_funnel()
    g2 = eliminate_deterministic(g)
    assert directed("x2", "y") in g2.edges
    wrong = ChainGraph(g2.attrs(), [e for e in g2.edges if e != directed("x2", "y")])
    pa = random_assignment(factorize_chain(g), seed=31)
    with pytest.raises(OracleError, match="'x2' is not determined"):
        eliminated_assignment(g, wrong, pa)


def test_eliminated_assignment_requires_directed(graphs):
    g = graphs["ffnet"]  # has an undirected o1 -- o2 edge
    with pytest.raises(OracleError):
        eliminated_assignment(g, g, {})
