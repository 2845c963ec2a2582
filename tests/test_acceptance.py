"""Acceptance checklist for the package.

Nine end-to-end checks, one test each.  Every test prints a single
``ACCEPTANCE n: PASS/FAIL - <what it covers>`` line (run pytest with ``-s``
to see them) and then fails loudly with the collected problems if the
criterion is not met.  Checks with a runtime budget measure wall time and
count an overrun as a failure.
"""

import random
from time import perf_counter

import numpy as np

from chaingraph import (
    ChainGraph,
    Edge,
    NodeAttr,
    TermTable,
    build_joint,
    chain_components,
    check_equivalence,
    check_global_markov,
    component_subgraphs,
    conditional_deviation,
    conditional_subgraphs,
    corpus,
    eliminate_deterministic,
    eliminated_assignment,
    expand,
    factorize_chain,
    factorize_plated,
    marginal_deviation,
    parse,
    render,
    simplify_conditional_directed,
    simplify_conditional_undirected,
    validate_chain_graph,
)
from helpers import (
    has_semi_directed_cycle,
    random_assignment,
    random_dag,
    random_mixed,
    random_undirected,
    same_graph,
    term_multiset,
)


def _verdict(num: int, desc: str, failures: list, elapsed=None, budget=None) -> None:
    if elapsed is not None and budget is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s over the {budget:g}s budget")
    status = "FAIL" if failures else "PASS"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num}: {status} - {desc}{timing}")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures)


def test_acceptance_1_mixed_graph_pipeline():
    g = corpus.load("fig2").graph
    t0 = perf_counter()
    comps = [set(b) for b in chain_components(g).blocks]
    subs = [set(b) for b in component_subgraphs(g).blocks]
    text = render(factorize_chain(g))
    elapsed = perf_counter() - t0

    failures = []
    if comps != [{"a", "b"}, {"c"}, {"d"}, {"e", "f", "g", "h"}]:
        failures.append(f"chain components {comps}")
    if subs != [{"a", "b"}, {"c", "d"}, {"e", "f", "g", "h"}]:
        failures.append(f"component subgraphs {subs}")
    want = (
        "p(a,b) p(c|b) p(d|a,c)"
        " f_0(b,c) f_1(c,e) f_2(b,f) f_3(e,f) f_4(f,h) f_5(h,g) f_6(g,e)"
    )
    if term_multiset(text) != term_multiset(want):
        failures.append(f"factorization {text!r}")
    _verdict(
        1,
        "fig2 components, subgraphs, and joint factorization",
        failures,
        elapsed,
        1.0,
    )


def test_acceptance_2_two_pair_chain_decomposition():
    g = corpus.load("fig3").graph
    t0 = perf_counter()
    comps = [set(b) for b in chain_components(g).blocks]
    subs = [set(b) for b in component_subgraphs(g).blocks]
    elapsed = perf_counter() - t0

    failures = []
    if comps != [{"a", "b"}, {"c", "d"}, {"e"}, {"f"}]:
        failures.append(f"chain components {comps}")
    if subs != [{"a", "b"}, {"c", "d"}, {"e", "f"}]:
        failures.append(f"component subgraphs {subs}")
    _verdict(2, "fig3 components and subgraphs", failures, elapsed, 1.0)


def test_acceptance_3_stochastic_network_cliques():
    g = corpus.load("boltzmann").graph
    t0 = perf_counter()
    comps = chain_components(g).blocks
    cliques = set()
    for sub in conditional_subgraphs(g):
        if sub.flavor != "undirected":
            continue
        cliques.update(sub.cliques())
    elapsed = perf_counter() - t0

    failures = []
    if len(comps) != 4:
        failures.append(f"{len(comps)} chain components, wanted 4")
    want = {
        frozenset({"x1", "h1", "o", "wC1"}),
        frozenset({"x2", "h1", "o", "wC2"}),
        frozenset({"x3", "x4", "o", "wC3"}),
    }
    if cliques != want:
        failures.append(f"cliques {sorted(map(sorted, cliques))}")
    _verdict(3, "boltzmann components and parent-extended cliques", failures, elapsed, 1.0)


def test_acceptance_4_conditional_equivalence_after_arc_deletion():
    ga = corpus.load("fig1a").graph
    gb = corpus.load("fig1b").graph
    t0 = perf_counter()
    shared = {
        "p(Dis|Age,Occ,Clim)": "p(Dis|Age,Occ,Clim)",
        "p(Symp|Age,Dis)": "p(Symp|Age,Dis)",
    }
    rep = check_equivalence(
        factorize_chain(ga),
        factorize_chain(gb),
        shared=shared,
        trials=20,
        seed=0,
        mode="conditional",
        tol=1e-12,
    )
    simplified = simplify_conditional_directed(ga)
    elapsed = perf_counter() - t0

    failures = []
    if not rep.ok:
        failures.append(f"max deviation {rep.max_deviation:.3e} > 1e-12")
    if not same_graph(simplified, gb):
        failures.append("simplify_conditional_directed(fig1a) is not fig1b")
    _verdict(
        4,
        "fig1a and fig1b agree on p(Dis|rest); simplification maps one to the other",
        failures,
        elapsed,
        5.0,
    )


def test_acceptance_5_markov_soundness_sweep():
    targets = [
        ("fig1a", corpus.load("fig1a").graph),
        ("fig1b", corpus.load("fig1b").graph),
        ("fig2", corpus.load("fig2").graph),
        ("fig3", corpus.load("fig3").graph),
        ("cad", corpus.load("cad").graph),
        ("coin[N=3]", expand(corpus.load("coin"), {"N": 3})),
        ("banks[1,1]", expand(corpus.load("banks"), {"Banks": 1, "Prices": 1})),
        ("boltzmann", corpus.load("boltzmann").graph),
        ("ffnet", corpus.load("ffnet").graph),
    ]
    failures = []
    queries = 0
    t0 = perf_counter()
    for name, g in targets:
        oversized = [n for n in g.node_names if g.attr(n).domain_size != 2]
        if oversized:
            failures.append(f"{name}: non-binary domains on {oversized}")
            continue
        rep = check_global_markov(g, trials=20, seed=0, tol=1e-9)
        queries += len(rep.records)
        if not rep.ok:
            failures.append(f"{name}: {len(rep.violations)} soundness violations")
    elapsed = perf_counter() - t0
    _verdict(
        5,
        f"every implied independence held numerically ({queries} queries x 20 trials,"
        f" {len(targets)} models, tol 1e-9)",
        failures,
        elapsed,
        60.0,
    )


def test_acceptance_6_deterministic_node_elimination():
    rng = random.Random(606)
    failures = []
    worst = 0.0
    count = 0
    t0 = perf_counter()
    while count < 50:
        g0 = random_dag(rng, rng.randint(3, 6), p=0.55)
        candidates = [x for x in g0.node_names if g0.parents(x)]
        if not candidates:
            continue
        rng.shuffle(candidates)
        dets = candidates[: rng.randint(1, min(2, len(candidates)))]
        g = g0.with_attrs({d: g0.attr(d)._replace(deterministic=True) for d in dets})
        if not validate_chain_graph(g).ok:
            continue
        e = factorize_chain(g)
        pa = random_assignment(e, seed=rng.randrange(2**31))
        g2 = eliminate_deterministic(g)
        pa2 = eliminated_assignment(g, g2, pa)
        dev = marginal_deviation(
            build_joint(e, pa),
            build_joint(factorize_chain(g2), pa2),
            g2.node_names,
        )
        worst = max(worst, dev)
        count += 1
    elapsed = perf_counter() - t0
    if worst > 1e-12:
        failures.append(f"worst marginal deviation {worst:.3e} > 1e-12")
    _verdict(
        6,
        f"eliminating deterministic nodes preserved the surviving marginal"
        f" on {count} random DAGs",
        failures,
        elapsed,
        30.0,
    )


def test_acceptance_7_plates():
    coin = corpus.load("coin")
    banks = corpus.load("banks")
    t0 = perf_counter()
    failures = []

    ground = expand(coin, {"N": 3})
    obs = NodeAttr(observed=True)
    hand = ChainGraph(
        {"theta": NodeAttr(), "heads_1": obs, "heads_2": obs, "heads_3": obs},
        [
            Edge("theta", "heads_1", True),
            Edge("theta", "heads_2", True),
            Edge("theta", "heads_3", True),
        ],
    )
    if not same_graph(ground, hand):
        failures.append("expand(coin, N=3) is not the hand-built ground graph")

    want = (
        "p(theta) p(mu) p(lambda)"
        " prod_{i in Banks} [ p(class_i|theta)"
        " prod_{j in Prices(i)} [ p(spread_i_j|lambda,class_i)"
        " p(bid_ask_diff_i_j|mu,class_i) ] ]"
    )
    got = render(factorize_plated(banks))
    if got != want:
        failures.append(f"unbound banks render {got!r}")

    bindings = [
        (banks, {"Banks": 2, "Prices": 2}),
        (banks, {"Banks": 1, "Prices": 3}),
        (banks, {"Banks": 2, "Prices": [1, 2]}),
        (coin, {"N": 1}),
        (coin, {"N": 4}),
    ]
    for m, b in bindings:
        bound = render(factorize_plated(m, b))
        expanded = render(factorize_chain(expand(m, b)))
        if bound != expanded:
            failures.append(f"binding {b}: {bound!r} != {expanded!r}")
    elapsed = perf_counter() - t0
    _verdict(
        7,
        "plate expansion, unbound symbolic render, bound render = expand-then-factorize",
        failures,
        elapsed,
        2.0,
    )


def _spread(tt: TermTable, big_vars: tuple) -> np.ndarray:
    """View a small term table over a superset of axes (for broadcasting)."""
    pos = {v: i for i, v in enumerate(big_vars)}
    order = sorted(range(len(tt.vars)), key=lambda i: pos[tt.vars[i]])
    arr = np.transpose(tt.table, order)
    shape = [1] * len(big_vars)
    for i in order:
        shape[pos[tt.vars[i]]] = tt.table.shape[i]
    return arr.reshape(shape)


def test_acceptance_8_observed_edge_dropping_keeps_conditional():
    rng = random.Random(808)
    failures = []
    worst = 0.0
    count = 0
    t0 = perf_counter()
    while count < 50:
        g = random_undirected(rng, rng.randint(3, 6), p=0.5, obs_p=0.5)
        hidden = tuple(x for x in g.node_names if not g.attr(x).observed)
        observed = tuple(x for x in g.node_names if g.attr(x).observed)
        if not hidden or not observed:
            continue
        g2 = simplify_conditional_undirected(g)
        e = factorize_chain(g)
        e2 = factorize_chain(g2)
        pa = random_assignment(e, seed=rng.randrange(2**31))
        pa2 = dict(random_assignment(e2, seed=rng.randrange(2**31)))

        # Rebuild the simplified graph's potentials out of the original ones:
        # each original clique factor lands in the first simplified clique
        # that contains it.  Cliques contained in none must be all-observed
        # (they cancel in the conditional) and are dropped.  Normalizers are
        # left stale; the joint is normalized globally anyway.
        receivers = [t for t in e2.terms if t.kind in ("conditional", "potential")]
        acc = {t.name(): np.ones_like(pa2[t.name()].table) for t in receivers}
        for t in e.terms:
            if t.kind not in ("conditional", "potential"):
                continue
            home = next((r for r in receivers if set(t.vars) <= set(r.vars)), None)
            if home is None:
                if not all(g.attr(x).observed for x in t.vars):
                    failures.append(f"clique {t.vars} with hidden nodes was split")
                continue
            acc[home.name()] = acc[home.name()] * _spread(pa[t.name()], home.vars)
        for r in receivers:
            pa2[r.name()] = TermTable(pa2[r.name()].vars, acc[r.name()])

        dev = conditional_deviation(
            build_joint(e, pa), build_joint(e2, pa2), hidden, observed
        )
        worst = max(worst, dev)
        count += 1
    elapsed = perf_counter() - t0
    if worst > 1e-12:
        failures.append(f"worst conditional deviation {worst:.3e} > 1e-12")
    _verdict(
        8,
        f"dropping observed-observed edges preserved p(hidden|observed)"
        f" on {count} random graphs",
        failures,
        elapsed,
        30.0,
    )


_MUTATION_ALPHABET = list("{}[];|,->_ \nnodeobsdetplatemodel0123456789")


def test_acceptance_9_robustness():
    failures = []

    rng = random.Random(909)
    for _ in range(10_000):
        source = rng.randbytes(rng.randint(0, 160)).decode("latin-1")
        try:
            parse(source)
        except Exception as exc:  # pragma: no cover - only on failure
            failures.append(f"parse crashed on random bytes: {exc!r}")
            break

    sources = [corpus.model_source(n) for n in corpus.MODEL_NAMES]
    for i in range(10_000):
        chars = list(sources[i % len(sources)])
        for _ in range(rng.randint(1, 4)):
            if not chars:
                break
            k = rng.randrange(len(chars))
            op = rng.randrange(4)
            if op == 0:
                chars[k] = rng.choice(_MUTATION_ALPHABET)
            elif op == 1:
                del chars[k]
            elif op == 2:
                chars.insert(k, rng.choice(_MUTATION_ALPHABET))
            else:
                chars[k:k] = chars[k : k + rng.randint(1, 12)]
        try:
            parse("".join(chars))
        except Exception as exc:  # pragma: no cover - only on failure
            failures.append(f"parse crashed on mutated source: {exc!r}")
            break

    disagreements = 0
    for _ in range(500):
        g = random_mixed(rng, rng.randint(1, 7), p=0.5)
        brute = has_semi_directed_cycle(
            g.node_names, [(e.u, e.v, e.directed) for e in g.edges]
        )
        flagged = any(
            v.kind == "semi-directed-cycle" for v in validate_chain_graph(g).errors
        )
        if brute != flagged:
            disagreements += 1
    if disagreements:
        failures.append(f"validator disagreed with brute force on {disagreements}/500 graphs")

    _verdict(
        9,
        "20000 fuzzed parses without a crash; cycle validator matches brute force on 500 graphs",
        failures,
    )
