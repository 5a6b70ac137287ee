"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines with their runtimes.  Golden values come from closed forms evaluated
by independent means (scipy root finding, exhaustive enumeration, hand
arithmetic); statistical checks run at fixed seeds and three standard
errors.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import scipy.optimize

import support
from pathwager import (
    SimulationConfig,
    StrategyProfile,
    build_profile,
    build_stopping_variant,
    build_window_game,
    build_graph,
    classify,
    exploit_search,
    fairness_check,
    invariant_measure,
    run,
    solve,
    stopping_analysis,
)
from support import chooser_transition_matrix
from pathwager.verify import audit_convergence, brute_force_value, certify_graph

ACCEPTANCE_SEED = 20260811


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL ({label})")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS ({label}) [{elapsed:.3f}s < {budget_s:g}s]")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def brentq_lambda(n: int) -> float:
    return scipy.optimize.brentq(lambda x: x**n - x ** (n - 1) - 1, 1.0, 2.0, xtol=1e-15)


def test_criterion_01_fan_closed_form():
    fan = [["root", "a", "b"], [("root", "a"), ("root", "b")]]
    exact_fan = build_graph(*fan, {"a": Fraction(2), "b": Fraction(4)})
    float_fan = build_graph(*fan, {"a": 2.0, "b": 4.0})
    # the clock times the closed form, not the process's first calls into
    # numpy and fractions: one exact solve of another fan runs before it
    solve(build_graph(*fan, {"a": Fraction(1), "b": Fraction(3)}), exact=True)
    with criterion(1, "fan closed form", budget_s=1e-3):
        # the chooser's mix is (1/v_j) / sum(1/v_k) over the leaves
        exact = solve(exact_fan, exact=True)
        root, recips = exact.exact_values[0], [1 / v for v in exact.exact_values[1:]]
        probs = tuple(r / sum(recips) for r in recips)
        assert root == Fraction(8, 3)
        assert probs == (Fraction(2, 3), Fraction(1, 3))
        sol = solve(float_fan)
        root_f, probs_f = sol.values[0], sol.reciprocals[1:] / sol.reciprocals[1:].sum()
        assert abs(root_f - 8 / 3) <= 1e-12
        assert abs(probs_f[0] - 2 / 3) <= 1e-12 and abs(probs_f[1] - 1 / 3) <= 1e-12
        # minimum-risk wager equals the critical wager 1 - H / v_max
        w = 1.0 - 2 * min(probs_f)
        assert abs(w - 1 / 3) <= 1e-12
        assert abs(w - (1 - root_f / 4)) <= 1e-12
    profile = build_profile(sol, beta=1.0)
    assert np.array_equal(profile.chooser, probs_f) and profile.wagers[0] == w


def test_criterion_02_deterministic_fortune():
    with criterion(2, "deterministic fortune at minimum risk", budget_s=1.0):
        g = support.full_corpus()[0].graph  # fan24
        sol = solve(g)
        profile = build_profile(sol, beta=1.0)
        result = run(SimulationConfig(profile=profile, start=0,
                                      replications=10**4, seed=ACCEPTANCE_SEED))
        assert np.abs(result.final_fortunes - 8 / 3).max() <= 1e-12


def test_criterion_03_one_lie_family():
    with criterion(3, "one-lie window family n=2..10", budget_s=1.0):
        lams = []
        for n in range(2, 11):
            lam = brentq_lambda(n)
            lams.append(lam)
            g = build_window_game(n, 1)
            sol = solve(g)
            assert abs(sol.spectral.radius - lam / 2) <= 1e-10, n
            profile = build_profile(sol, beta=1.0)
            start = slice(g.edge_offsets[0], g.edge_offsets[1])  # node 0's edges
            assert abs(profile.chooser[start][0] - 1 / lam) <= 1e-10, n
            assert abs(profile.chooser[start][1] - lam**-n) <= 1e-10, n
            mu = invariant_measure(sol)
            want = np.ones(n) / (lam**n + n - 1)
            want[0] *= lam**n
            assert np.abs(mu - want).max() <= 1e-10, n
        assert all(b < a for a, b in zip(lams, lams[1:]))


def test_criterion_04_stopping_variant():
    with criterion(4, "stopping variant closed form", budget_s=1.0):
        for n in range(2, 11):
            g = build_stopping_variant(n)
            sol = solve(g)
            p = chooser_transition_matrix(sol)
            stop = g.index_of("stop")
            want = (2.0**n - 1.0) / (3.0 * (2.0 ** (n - 1) + 2.0 ** (n - 2) - 1.0))
            assert abs(p[0, stop] - want) <= 1e-10, n
        g20 = build_stopping_variant(20)
        p20 = chooser_transition_matrix(solve(g20))
        assert abs(p20[0, g20.index_of("stop")] - 4 / 9) <= 0.01


def test_criterion_05_fairness_agreement():
    with criterion(5, "structural vs value fairness on random corpus", budget_s=5.0):
        entries = support.random_corpus()
        assert len(entries) >= 50
        assert all(e.graph.num_nodes <= 12 for e in entries)
        for entry in entries:
            verdict = fairness_check(solve(entry.graph))
            assert verdict.fair == verdict.value_route_fair, entry.name


def test_criterion_06_monte_carlo_consistency():
    with criterion(6, "Monte Carlo vs closed-form statistics", budget_s=60.0):
        reps = 10**5
        for entry in support.terminating_corpus():
            g = entry.graph
            if not g.nonterminals:
                continue
            sol = solve(g)
            profile = build_profile(sol, beta=1.0)
            start = g.nonterminals[0]
            result = run(SimulationConfig(profile=profile, start=start,
                                          replications=reps, seed=ACCEPTANCE_SEED))
            assert not result.censored.any(), entry.name
            fortunes = result.final_fortunes
            se_f = fortunes.std(ddof=1) / math.sqrt(reps)
            v_start = sol.values[start]
            assert abs(fortunes.mean() - v_start) <= 3 * se_f + 1e-9 * v_start, entry.name

            stats = stopping_analysis(sol, t_max=500)
            pos = g.nonterminals.index(start)
            times = result.stopping_times.astype(float)
            se_t = times.std(ddof=1) / math.sqrt(reps)
            assert abs(times.mean() - stats.tau[pos]) <= 3 * se_t + 1e-9, entry.name

            for col, k in enumerate(g.terminals):
                rho = stats.terminal_probs[pos, col]
                freq = float((result.terminal_nodes == k).mean())
                se_r = math.sqrt(max(rho * (1 - rho), 1e-12) / reps)
                assert abs(freq - rho) <= 3 * se_r + 1e-9, (entry.name, g.labels[k])


def test_criterion_07_equilibrium_certificates():
    with criterion(7, "fan certificates and perturbation detection", budget_s=10.0):
        for entry in support.fan_corpus():
            g = entry.graph
            root = g.nonterminals[0]
            leaf_values = [g.values[j] for j in g.successors[root]]
            sol = solve(g)
            for beta in (0.0, 0.5, 1.0):
                cert = certify_graph(sol, betas=(beta,))
                assert cert.passed, (entry.name, beta)
                assert cert.max_chooser_gain <= 1e-9 and cert.max_guesser_gain <= 1e-9
            if len(set(leaf_values)) < 2:
                continue
            base = build_profile(sol, beta=1.0)
            for pos in range(len(leaf_values)):
                for delta in (0.01, -0.01):
                    skew = base.chooser.copy()  # the root's row: a fan's every edge
                    if skew[pos] + delta <= 0:
                        continue
                    skew[pos] += delta
                    skew /= skew.sum()
                    bad = StrategyProfile(sol, beta=1.0, chooser=skew,
                                          guesser=base.guesser, wagers=base.wagers)
                    report = exploit_search(bad, fixed_side="chooser")
                    assert report.gain > 1e-4, (entry.name, pos, delta)


def test_criterion_08_brute_force_agreement():
    with criterion(8, "backward-induction brackets", budget_s=60.0):
        checked = 0
        for entry in support.terminating_corpus():
            g = entry.graph
            if g.num_nodes > 8:
                continue
            sol = solve(g)
            bounds = brute_force_value(g, depth_limit=60)
            slack = 1e-9 * (1 + float(np.abs(sol.values).max()))
            assert np.all(sol.values >= bounds.lower - slack), entry.name
            assert np.all(sol.values <= bounds.upper + slack), entry.name
            checked += 1
        assert checked >= 20


def test_criterion_09_convergence_audits():
    with criterion(9, "propagation-matrix limits at s=400", budget_s=10.0):
        for entry in support.full_corpus():
            cert = audit_convergence(solve(entry.graph), steps=400)
            assert cert.passed, (entry.name, cert.residual)
            assert cert.residual <= 1e-8, entry.name
            if classify(entry.graph).kind.value == "strongly_connected_aperiodic":
                positive = next(c for c in cert.checks if c.name == "limit_strictly_positive")
                assert positive.passed, entry.name


def test_criterion_10_language_correctness():
    with criterion(10, "window and pattern game languages to length 12", budget_s=30.0):
        from pathwager import build_forbidden_pattern_game

        for n in range(1, 5):
            for k in range(0, n):
                g = build_window_game(n, k)
                assert (
                    support.realizable_strings(g, 12)
                    == support.legal_window_strings(n, k, 12)
                ), (n, k)
        pattern_game = build_forbidden_pattern_game(["LL"])
        window_game = build_window_game(2, 1)
        assert (
            support.realizable_strings(pattern_game, 12)
            == support.realizable_strings(window_game, 12)
        )
