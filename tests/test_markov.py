"""Markov dynamics: stopping times, fairness, invariant measures, fortunes."""

import math
import random
import tracemalloc

import numpy as np
import pytest

import pathwager.markov
import pathwager.values
import support
from pathwager import (
    analyze,
    build_graph,
    build_propagation_matrix,
    build_stopping_variant,
    build_window_game,
    classify,
    fairness_check,
    gn1_reference,
    invariant_measure,
    solve,
    steady_state_fortunes,
    stopping_analysis,
)
from pathwager.values import ConvergenceError, UnsupportedGraphError, _component_block

PHI = (1 + math.sqrt(5)) / 2


def test_fan_one_step_statistics():
    g = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 2, "b": 4})
    sol = solve(g)
    stats = stopping_analysis(sol, t_max=10)
    assert abs(stats.tau[0] - 1.0) < 1e-14
    assert abs(stats.stop_dist[0, 0] - 1.0) < 1e-14
    assert np.abs(stats.stop_dist[1:]).max() < 1e-14
    assert np.allclose(stats.terminal_probs[0], [2 / 3, 1 / 3])
    assert stats.tail_mass[0] < 1e-14


def test_loop_graph_geometric_stopping():
    g = build_graph(["1", "t"], [("1", "1"), ("1", "t")], {"t": 1})
    sol = solve(g)
    stats = stopping_analysis(sol, t_max=40)
    assert abs(stats.tau[0] - 2.0) < 1e-12
    for t in range(1, 21):
        assert abs(stats.stop_dist[t - 1, 0] - 2.0**-t) < 1e-14


def test_stopping_identities_on_corpus(terminating_corpus):
    for entry in terminating_corpus:
        g = entry.graph
        if not g.nonterminals:
            continue
        sol = solve(g)
        stats = stopping_analysis(sol, t_max=500)
        assert np.abs(stats.terminal_probs.sum(axis=1) - 1).max() <= 1e-10, entry.name
        t_grid = np.arange(1, 501)
        partial = stats.stop_dist.T @ t_grid.astype(float)
        assert np.abs(partial - stats.tau).max() <= 1e-8, entry.name
        assert np.all(stats.tau >= 1.0 - 1e-12)


def _dense_stopping(graph, sol, t_max):
    """tau, rho and q_t from the dense blocks A, B: two solves and dense powers of A."""
    m = build_propagation_matrix(graph).matrix
    nt, t = graph.nonterminals, graph.terminals
    a, b = m[np.ix_(nt, nt)], m[np.ix_(nt, t)]
    v, u_t = sol.values[list(nt)], sol.reciprocals[list(t)]
    eye = np.eye(len(nt))
    tau = v * np.linalg.solve(eye - a, 1.0 / v)
    rho = v[:, None] * np.linalg.solve(eye - a, b * u_t)
    core, power, q = b @ u_t, eye, []
    for _ in range(t_max):
        q.append(v * (power @ core))
        power = power @ a
    return tau, rho, np.array(q)


def _chained_cycles(rng):
    """Two to four cyclic components chained toward two terminals, with acyclic feeders."""
    edges, labels, downstream = set(), ["t0", "t1"], ["t0", "t1"]
    for b in range(rng.randint(2, 4)):
        ring = [f"c{b}_{k}" for k in range(rng.randint(1, 5))]
        for k, node in enumerate(ring):  # a ring of one is a self-loop
            edges.add((node, ring[(k + 1) % len(ring)]))
            if rng.random() < 0.4:
                edges.add((node, rng.choice(ring)))
        for node in rng.sample(ring, rng.randint(1, len(ring))):
            edges.add((node, rng.choice(downstream)))
        edges |= {(f"f{b}", ring[0]), (f"f{b}", rng.choice(downstream))}
        labels += ring + [f"f{b}"]
        downstream += ring + [f"f{b}"]
    edges |= {("root", node) for node in rng.sample(downstream, 3)}
    values = {"t0": rng.choice([0.5, 1, 2, 3]), "t1": rng.choice([1, 1.5, 4])}
    return build_graph(labels + ["root"], sorted(edges), values)


def test_stopping_analysis_matches_dense_reference(terminating_corpus):
    graphs = [(e.name, e.graph) for e in terminating_corpus if e.graph.nonterminals]
    graphs += [(f"window-stop:{n}", build_stopping_variant(n)) for n in range(5, 61)]
    rng = random.Random(20)
    for k in range(50):
        g = _chained_cycles(rng)
        assert classify(g).is_terminating and sum(map(g.is_cyclic, g.components)) >= 2
        graphs.append((f"chained_{k}", g))
    for name, g in graphs:
        sol = solve(g)
        stats = stopping_analysis(sol, t_max=60)
        tau, rho, q = _dense_stopping(g, sol, 60)
        for got, want in ((stats.tau, tau), (stats.terminal_probs, rho), (stats.stop_dist, q)):
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def test_stopping_analysis_builds_each_block_once(monkeypatch):
    calls = []

    def counted(graph, comp, *args):
        calls.append(comp)
        return _component_block(graph, comp, *args)

    monkeypatch.setattr(pathwager.markov, "_component_block", counted)
    monkeypatch.setattr(pathwager.values, "_component_block", counted)
    for n in range(5, 61):
        g = build_stopping_variant(n)
        sol = solve(g)
        calls.clear()
        stats = stopping_analysis(sol, t_max=60)
        assert calls == [c for c in g.components if g.is_cyclic(c)] and calls, n
        ref = support.two_walk_stopping(sol, 60)  # builds every block twice
        for field in ("tau", "stop_dist", "terminal_probs", "tail_mass"):
            got, want = getattr(stats, field), getattr(ref, field)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, field)
        tau, rho, q = _dense_stopping(g, sol, 60)
        assert np.abs(stats.stop_dist - q).max() <= 1e-12 * np.abs(q).max(), n


def test_stopping_analysis_forms_no_dense_matrix():
    # a caterpillar: the path p0 -> ... -> p1999, every node also exiting to a or b
    n = 2000
    labels = [f"p{k}" for k in range(n)] + ["a", "b"]
    edges = [(f"p{k}", f"p{k + 1}") for k in range(n - 1)]
    edges += [(f"p{k}", "ab"[k % 2]) for k in range(n)]
    g = build_graph(labels, edges, {"a": 1, "b": 2})
    sol = solve(g)
    tracemalloc.start()
    try:
        stats = stopping_analysis(sol, t_max=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.num_nodes**2 * 8, peak  # one N x N float64 array
    assert stats.stop_dist.shape == (50, n) and stats.terminal_probs.shape == (n, 2)
    assert np.abs(stats.terminal_probs.sum(axis=1) - 1).max() <= 1e-12


def test_stopping_analysis_validates_tmax():
    g = build_graph(["r", "a"], [("r", "a")], {"a": 1})
    sol = solve(g)
    with pytest.raises(ValueError):
        stopping_analysis(sol, t_max=0)


def test_fairness_examples():
    fair_fan = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")],
                           {"a": 1, "b": 1})
    verdict = fairness_check(solve(fair_fan))
    assert verdict.fair and verdict.value_route_fair

    chain = build_graph(["r", "m", "l"], [("r", "m"), ("m", "l")], {"l": 1})
    verdict = fairness_check(solve(chain))
    assert not verdict.fair and "out-degree 1" in verdict.reason
    assert "'r'" in verdict.reason or "'m'" in verdict.reason

    offvalue = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")],
                           {"a": 1, "b": 2})
    verdict = fairness_check(solve(offvalue))
    assert not verdict.fair and "value" in verdict.reason

    window = build_window_game(3, 1)
    verdict = fairness_check(solve(window))
    assert not verdict.fair
    sol = solve(window)
    assert sol.spectral.radius < 1.0 - 1e-6  # fortune grows without bound


def test_fairness_two_routes_agree(corpus):
    for entry in corpus:
        verdict = fairness_check(solve(entry.graph))
        assert verdict.fair == verdict.value_route_fair, entry.name


def test_invariant_measure_symmetric_case():
    g = build_graph(
        ["p", "q", "r"],
        [("p", "q"), ("p", "r"), ("q", "p"), ("q", "r"), ("r", "p"), ("r", "q")], {})
    mu = invariant_measure(solve(g))
    assert np.abs(mu - 1 / 3).max() <= 1e-12


def test_invariant_measure_window_two():
    g = build_window_game(2, 1)
    mu = invariant_measure(solve(g))
    want = np.array([PHI**2, 1.0]) / (PHI**2 + 1)
    assert np.abs(mu - want).max() <= 1e-10
    assert abs(mu[0] - 0.7236067977) < 1e-9


def test_invariant_measure_properties(sc_corpus):
    for entry in sc_corpus:
        sol = solve(entry.graph)
        mu = invariant_measure(sol)
        assert abs(mu.sum() - 1) <= 1e-12
        assert np.all(mu > 0), entry.name


def test_invariant_measure_rejects_a_wrong_left_vector():
    sol = solve(build_window_game(4, 1))
    sol.spectral.left_vec = sol.spectral.left_vec.copy()
    sol.spectral.left_vec[0] *= 1.5
    with pytest.raises(ConvergenceError, match="stationarity"):
        invariant_measure(sol)


def test_lie_fraction_grows_toward_cap():
    # long-run lie fraction approaches its 1/n cap from below as n grows
    fractions = []
    for n in range(2, 11):
        mu = invariant_measure(solve(build_window_game(n, 1)))
        lie_state = 1  # the just-lied node
        assert mu[lie_state] < 1 / n, n
        fractions.append(n * mu[lie_state])
        ref = gn1_reference(n)
        assert abs(mu[lie_state] - 1 / (ref.lam**n + n - 1)) < 1e-10
    assert all(b > a for a, b in zip(fractions, fractions[1:]))


def test_invariant_requires_strongly_connected():
    g = build_graph(["r", "a"], [("r", "a")], {"a": 1})
    with pytest.raises(UnsupportedGraphError):
        invariant_measure(solve(g))


def test_steady_state_shape():
    g = build_graph(
        ["p", "q", "r"],
        [("p", "q"), ("p", "r"), ("q", "p"), ("q", "r"), ("r", "p"), ("r", "q")], {})
    sol = solve(g)
    ssf = steady_state_fortunes(sol)
    # fair graph: values are all 1, so the shape is the invariant measure
    assert np.abs(ssf.shape - invariant_measure(sol)).max() <= 1e-12

    g2 = build_window_game(2, 1)
    sol2 = solve(g2)
    ssf2 = steady_state_fortunes(sol2)
    mu2 = invariant_measure(sol2)
    want = mu2 / sol2.values
    want /= want.sum()
    assert np.abs(ssf2.shape - want).max() <= 1e-12


def test_analyze_report_shapes():
    term = build_graph(["1", "t"], [("1", "1"), ("1", "t")], {"t": 1})
    report = analyze(solve(term), t_max=64)
    doc = report.to_dict()
    # out-degree 2 (loop + exit) with value 1: fair
    assert doc["fair"] is True
    assert abs(doc["expected_stopping_times"]["1"] - 2.0) < 1e-12
    assert abs(doc["terminal_probabilities"]["1"]["t"] - 1.0) < 1e-12

    window = build_window_game(2, 1)
    report = analyze(solve(window))
    doc = report.to_dict()
    assert "invariant_measure" in doc and "steady_fortune_shape" in doc


def test_corpus_fails_when_no_graph_passes(monkeypatch):
    # a broken stopping series rejects every terminating graph; the corpus
    # build must then fail, not admit other draws
    monkeypatch.setattr(support, "_CORPUS", None)
    monkeypatch.setattr(support, "_converges_fast", lambda graph: False)
    with pytest.raises(RuntimeError, match="'term'"):
        support.full_corpus()


def test_every_random_corpus_entry_still_converges_fast():
    # the corpus admits draws by number, so a solver change that would
    # reject one of them must fail here instead of swapping test graphs
    for entry in support.random_corpus():
        assert support._converges_fast(entry.graph), entry.name
