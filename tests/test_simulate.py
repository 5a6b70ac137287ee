"""Monte Carlo engine: determinism, payoff rule, statistics, deviations."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import support

from pathwager import (
    SimulationConfig,
    StepRng,
    StrategyProfile,
    build_graph,
    build_profile,
    build_stopping_variant,
    build_window_game,
    exploit_search,
    invariant_measure,
    play_step,
    run,
    solve,
    step_uniforms,
    stopping_analysis,
)
from pathwager import simulate
from pathwager.graph import GraphKind, classify
from pathwager.simulate import _best_reply, _bisect, _edge_tables, _philox_block


def fan(values):
    labels = ["root"] + [f"leaf{i}" for i in range(len(values))]
    return build_graph(
        labels,
        [("root", lab) for lab in labels[1:]],
        {lab: v for lab, v in zip(labels[1:], values)},
    )


def optimal_config(graph, beta=1.0, **kwargs):
    sol = solve(graph)
    profile = build_profile(sol, beta=beta)
    defaults = dict(profile=profile, start=graph.nonterminals[0] if graph.nonterminals else 0,
                    replications=1000, seed=7)
    if sol.spectral is not None:
        defaults["max_steps"] = 200
    defaults.update(kwargs)
    return SimulationConfig(**defaults), sol


def test_uniform_stream_statistics():
    reps = np.arange(200000)
    u1, u2 = step_uniforms(123, reps, 5)
    for u in (u1, u2):
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.002
    assert abs(np.corrcoef(u1, u2)[0, 1]) < 0.01
    # distinct steps decorrelate too
    v1, _ = step_uniforms(123, reps, 6)
    assert abs(np.corrcoef(u1, v1)[0, 1]) < 0.01
    # different seeds give different streams
    w1, _ = step_uniforms(124, reps, 5)
    assert not np.array_equal(u1, w1)


def test_stream_is_counter_based():
    # same (seed, rep, step) triple always yields the same pair, regardless
    # of evaluation order or batching
    single = step_uniforms(9, np.array([42]), 3)
    batched = step_uniforms(9, np.arange(100), 3)
    assert single[0][0] == batched[0][42]
    assert single[1][0] == batched[1][42]


def test_play_step_payoffs():
    # forced move with full wager doubles
    chain = build_graph(["r", "m", "t"], [("r", "m"), ("m", "t")], {"t": 5})
    profile = build_profile(solve(chain))
    node, fortune = play_step(profile, 0, 1.0, StepRng(seed=0))
    assert node == 1 and fortune == 2.0
    # last hop multiplies by the terminal value
    node, fortune = play_step(profile, 1, 2.0, StepRng(seed=0, step=1))
    assert node == 2 and fortune == 4.0 * 5

    # zero wager leaves the fortune unchanged
    g = fan([1, 1])
    profile = build_profile(solve(g), beta=1.0)
    assert profile.wagers[0] == 0.0
    _, fortune = play_step(profile, 0, 3.0, StepRng(seed=1))
    assert fortune == 3.0  # terminal value is 1


def test_play_step_deterministic_fortune_fan24():
    g = fan([2, 4])
    profile = build_profile(solve(g), beta=1.0)
    seen = set()
    for rep in range(200):
        node, fortune = play_step(profile, 0, 1.0, StepRng(seed=3, rep=rep))
        seen.add(node)
        assert abs(fortune - 8 / 3) < 1e-12
    assert seen == {1, 2}  # both choices occur, same payoff either way


def scalar_walk(config, rep):
    """Nodes reached, and the final fortune, of replication ``rep`` played one
    ``play_step`` at a time."""
    g = config.graph
    rng = StepRng(seed=config.seed, rep=rep)
    node, fortune, nodes = config.start, 1.0, []
    while not g.is_terminal(node) and rng.step < config.max_steps:
        node, fortune = play_step(config.profile, node, fortune, rng)
        nodes.append(node)
    return nodes, fortune


def test_bisection_takes_the_searchsorted_pick(corpus):
    rng = np.random.default_rng(25)
    for entry in corpus:
        for beta in (0.0, 1.0):
            profile = build_profile(solve(entry.graph), beta=beta)
            offsets, _, g_cdf, c_cdf, *_ = _edge_tables(profile)
            for node in entry.graph.nonterminals:
                first, last = offsets[node], offsets[node + 1] - 1
                rounds = int(last - first).bit_length()
                for cdf, probs in ((g_cdf, profile.guesser), (c_cdf, profile.chooser)):
                    row = cdf[first:last + 1]
                    for u in [0.0, *row, *np.nextafter(row, 0.0), *rng.random(8)]:
                        want = first + support.searchsorted_pick(probs[first:last + 1], u)
                        assert _bisect(cdf, first, last, u, rounds) == want, (entry.name, node, u)
    # a row whose CDF ends below u picks its last edge, also on a row
    # shorter than the longest, whose bisection idles for a round
    probs = np.array([0.125, 0.125, 0.125, 0.125, 0.25, 0.25])
    cdf = np.concatenate([np.cumsum(probs[:4]), np.cumsum(probs[4:])])
    first, last = np.array([0, 0, 4, 4]), np.array([3, 3, 5, 5])
    u = np.array([0.375, 0.75, 0.25, 0.75])
    want = [first[k] + support.searchsorted_pick(probs[first[k]:last[k] + 1], u[k])
            for k in range(4)]
    assert _bisect(cdf, first, last, u, 2).tolist() == want == [3, 3, 5, 5]


def test_run_matches_scalar_play(terminating_corpus):
    # the 1000-leaf fan takes 10 bisection rounds per pick
    games = [(e.name, e.graph) for e in terminating_corpus[:6]]
    games.append(("fan1000", fan([1 + k % 7 for k in range(1000)])))
    for name, g in games:
        if not g.nonterminals:
            continue
        config, _ = optimal_config(g, replications=50, seed=11)
        result = run(config)
        for rep in (0, 17, 49):
            nodes, fortune = scalar_walk(config, rep)
            assert fortune == result.final_fortunes[rep], name
            if g.is_terminal(nodes[-1]):
                assert len(nodes) == result.stopping_times[rep]
                assert nodes[-1] == result.terminal_nodes[rep]
    for n, k in ((3, 1), (12, 3)):
        config, _ = optimal_config(build_window_game(n, k), replications=50, seed=11,
                                   max_steps=60, checkpoints=(1, 7, 60))
        result = run(config)
        for rep in (0, 17, 49):
            nodes, _ = scalar_walk(config, rep)
            for t, (states, _) in result.checkpoints.items():
                assert states[rep] == nodes[t - 1], (n, k, rep, t)


def test_run_matches_scalar_play_past_the_cdf_end():
    # a CDF row can end below u (by rounding; here every row sums to 1/2):
    # both picks then take the last successor, also on a row shorter than
    # the longest, whose bisection idles for a round
    g = build_graph(["r", "x", "a", "b", "c", "d", "e"],
                    [("r", "x"), ("r", "a"), ("r", "b"), ("r", "c"), ("x", "d"), ("x", "e")],
                    {lab: 2 for lab in "abcde"})
    rows = np.concatenate([np.full(4, 0.125), np.full(2, 0.25)])  # r's edges, then x's
    profile = StrategyProfile(solve(g), beta=1.0, chooser=rows, guesser=rows,
                              wagers=np.array([0.5, 0.5, 0, 0, 0, 0, 0]))
    config = SimulationConfig(profile=profile, start=0, replications=400, seed=5)
    result = run(config)
    assert (result.terminal_nodes == g.index_of("e")).any()
    for rep in range(400):
        nodes, fortune = scalar_walk(config, rep)
        assert (nodes[-1], fortune) == (result.terminal_nodes[rep], result.final_fortunes[rep])


def test_run_memory_is_linear_in_edges():
    # one node of out-degree 5000: a padded (N, d_max) float table of the
    # CDFs would take 5001 * 5000 * 8 bytes, 200 MB
    config, _ = optimal_config(fan([1 + k % 7 for k in range(5000)]), replications=1000)
    tracemalloc.start()
    try:
        result = run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.stopping_times == 1).all()
    assert peak < 10 * 2**20, peak


def test_column_of_steps_matches_per_step_draws():
    reps, steps = np.array([0, 3, 7, 2**40 + 5]), np.array([0, 1, 9, 2**32 + 1, 10**5])
    u_guess, u_choice = step_uniforms(17, reps, steps[:, None])
    assert u_guess.shape == u_choice.shape == (len(steps), len(reps))
    for row, t in enumerate(steps.tolist()):
        g, c = step_uniforms(17, reps, t)
        assert u_guess[row].tobytes() == g.tobytes() and u_choice[row].tobytes() == c.tobytes()


def assert_same_result(result, reference):
    for name in ("final_fortunes", "stopping_times", "terminal_nodes", "censored",
                 "visits", "occupancy"):
        got, want = getattr(result, name), getattr(reference, name)
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert result.checkpoints.keys() == reference.checkpoints.keys()
    for t, (states, fortunes) in reference.checkpoints.items():
        assert result.checkpoints[t][0].tobytes() == states.tobytes(), t
        assert result.checkpoints[t][1].tobytes() == fortunes.tobytes(), t
    assert result.warnings == reference.warnings


def run_both(config, monkeypatch):
    """``run`` through the step kernel, and through the per-step reference."""
    result = run(config)
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_walk", support.stepwise_walk)
        return result, run(config)


def kernel_cases(corpus):
    # (name, graph, replications, max_steps, checkpoints)
    cases = []
    for entry in corpus:
        kind = classify(entry.graph).kind
        if not entry.graph.nonterminals or kind is GraphKind.UNSUPPORTED:
            continue
        if kind is GraphKind.STRONGLY_CONNECTED_APERIODIC:
            cases.append((entry.name, entry.graph, 7, 60, (1, 9, 18, 59, 60)))
        else:
            cases.append((entry.name, entry.graph, 20, 10**5, None))
    cases += [("window:3,1", build_window_game(3, 1), 7, 100, (9, 45, 50, 100)),
              ("window:3,1 wide", build_window_game(3, 1), 200, 100, (1, 9, 50, 100)),
              ("window:12,3", build_window_game(12, 3), 5, 77, (12, 13, 77)),
              ("window:12,3 wide", build_window_game(12, 3), 150, 77, (12, 13, 77)),
              ("window-stop:12", build_stopping_variant(12), 20, 10**5, None),
              ("window-stop:12 wide", build_stopping_variant(12), 300, 10**5, None),
              ("ring censored", support.slow_ring(), 5, 50, None),
              ("ring", support.slow_ring(), 30, 10**4, None)]
    return cases


@pytest.mark.parametrize("budget", [64, None])
def test_step_kernel_matches_the_per_step_walk(budget, corpus, monkeypatch):
    # with 64 blocks a span is 64 // live steps: 9 for 7 live replications,
    # which divides neither horizon; checkpoints fall on and off span edges.
    # The wide cases step more live replications than 64 in slices of 64.
    if budget is not None:
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", budget)
    blocks = []

    def counted(seed, reps, steps):
        u_guess, u_choice = step_uniforms(seed, reps, steps)
        blocks.append(u_guess.size)
        return u_guess, u_choice

    monkeypatch.setattr(simulate, "step_uniforms", counted)
    for name, g, reps, max_steps, checkpoints in kernel_cases(corpus):
        config, _ = optimal_config(g, replications=reps, seed=23, max_steps=max_steps,
                                   checkpoints=checkpoints,
                                   track_occupancy=checkpoints is not None)
        blocks.clear()
        result, reference = run_both(config, monkeypatch)
        assert_same_result(result, reference)
        assert max(blocks) <= simulate._DRAW_BUDGET, name
        if name == "window-stop:12":
            # 20 replications draw spans of 3; some absorb inside the first
            assert (result.stopping_times % 3 != 0).any()
        if name == "ring censored":
            assert result.censored.any() and not result.censored.all()


def test_draws_are_counted_one_id_per_block(monkeypatch):
    # each Philox call gets one replication id per block it draws; blocks
    # drawn for replications that absorb inside their span go unread
    calls = []

    def counted(seed, reps, steps):
        u_guess, u_choice = step_uniforms(seed, reps, steps)
        calls.append((len(reps), u_guess.size, u_choice.size))
        return u_guess, u_choice

    monkeypatch.setattr(simulate, "step_uniforms", counted)
    config, _ = optimal_config(build_stopping_variant(12), replications=3000, seed=4)
    result = run(config)
    assert all(ids == a == b for ids, a, b in calls)
    assert 1 < len(calls) < int(result.stopping_times.max())
    assert sum(ids for ids, _, _ in calls) >= int(result.stopping_times.sum())


def test_draw_ahead_memory_is_capped_by_the_budget():
    # one replication over 10^5 steps: a span set by the horizon would hold
    # 10^5-block arrays (about 8 MB at the peak), the budget's span 8192
    config, _ = optimal_config(support.slow_ring(), replications=1, max_steps=10**5)
    tracemalloc.start()
    try:
        result = run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not result.censored[0]
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("name, graph, max_steps", [
    ("window:3,1", build_window_game(3, 1), 3),
    ("window-stop:12", build_stopping_variant(12), 10**5),
])
def test_working_set_is_held_to_the_draw_budget(name, graph, max_steps):
    # past the budget the kernel steps its live replications in slices of at
    # most _DRAW_BUDGET, so what it holds beyond the result is the state and
    # the live ids, 16 B per replication, plus a few budget-sized arrays
    reps = 200000
    config, _ = optimal_config(graph, replications=reps, seed=3, max_steps=max_steps)
    tracemalloc.start()
    try:
        result = run(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.final_fortunes.size == reps
    assert peak - held <= 24 * reps + 2 * 2**20, (name, peak - held)


def test_uniforms_leave_the_caller_arrays_alone():
    reps = np.array([0, 5, 2**31, 2**32 - 1, 2**40 + 5], dtype=np.uint64)
    steps = np.array([0, 3, 2**32 + 1, 7, 9], dtype=np.uint64)
    kept = reps.copy(), steps.copy()
    for t in (steps, steps[:, None], 11):
        step_uniforms(21, reps, t)
        step_uniforms(21, reps[:4], t if np.isscalar(t) else t[:4])
        assert reps.tobytes() == kept[0].tobytes() and steps.tobytes() == kept[1].tobytes()
    # ids below 2**32 draw with a scalar high word: the same blocks as
    # beside an id that needs the high word
    narrow, wide = step_uniforms(21, reps[:4], steps[:4]), step_uniforms(21, reps, steps)
    for u, v in zip(narrow, wide):
        assert u.tobytes() == v[:4].tobytes()


@pytest.mark.parametrize("counter, key, words", [
    ((0, 0, 0, 0), (0, 0), "6627e8d5 e169c58d bc57ac4c 9b00dbd8"),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, "408f276d 41c83b0e a20bc7c6 6d5451fd"),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     "d16cfe09 94fdcceb 5001e420 24126ea1"),
])
def test_philox_known_answers(counter, key, words):
    # the Random123 known-answer vectors for Philox4x32-10
    block = _philox_block(*(np.array([c], dtype=np.uint32) for c in counter), *key)
    assert " ".join(f"{int(w[0]):08x}" for w in block) == words


def test_run_is_bit_deterministic():
    g = build_window_game(3, 1)
    config, _ = optimal_config(g, replications=500, max_steps=100, seed=99,
                               checkpoints=(50, 100))
    a, b = run(config), run(config)
    assert np.array_equal(a.final_fortunes, b.final_fortunes)
    assert json.dumps(a.summary(), sort_keys=True) == json.dumps(b.summary(), sort_keys=True)


def test_fair_fan_monte_carlo():
    g = fan([1, 1])
    config, sol = optimal_config(g, beta=0.0, replications=10000, seed=5)
    result = run(config)
    summary = result.summary()
    se = summary["se_fortune"]
    assert abs(summary["mean_fortune"] - 1.0) <= 3 * se + 1e-9


def test_fan24_min_risk_is_deterministic():
    g = fan([2, 4])
    config, _ = optimal_config(g, beta=1.0, replications=10000, seed=21)
    result = run(config)
    assert np.abs(result.final_fortunes - 8 / 3).max() < 1e-12


def test_terminating_statistics_match_theory():
    g = build_graph(["1", "t"], [("1", "1"), ("1", "t")], {"t": 1})
    config, sol = optimal_config(g, replications=40000, seed=2)
    result = run(config)
    stats = stopping_analysis(sol, t_max=200)
    summary = result.summary()
    assert abs(summary["mean_stopping_time"] - stats.tau[0]) <= 3 * summary["se_stopping_time"]
    assert abs(summary["mean_fortune"] - sol.values[0]) <= 3 * summary["se_fortune"] + 1e-9


def test_sc_checkpoints_stable():
    g = build_window_game(2, 1)
    config, sol = optimal_config(g, replications=30000, max_steps=100, seed=13,
                                 checkpoints=(50, 100))
    result = run(config)
    m50, f50 = result.checkpoints[50][1].mean(), result.checkpoints[50][1]
    m100, f100 = result.checkpoints[100][1].mean(), result.checkpoints[100][1]
    se = math.hypot(f50.std(ddof=1) / len(f50) ** 0.5, f100.std(ddof=1) / len(f100) ** 0.5)
    assert abs(m50 - m100) <= 3 * se


def test_sc_occupancy_memory_is_linear_in_nodes():
    # the per-node counts need O(N); the reps x N matrix, kept only on request,
    # would take 10^5 * 220 * 8 bytes, 176 MB
    g = build_window_game(12, 3)
    config, _ = optimal_config(g, replications=100000, max_steps=1)
    tracemalloc.start()
    try:
        result = run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.occupancy is None and result.visits.sum() == 100000
    assert peak < 32 * 2**20, peak  # about 14 MB: a dozen replication-length arrays
    config = replace(config, replications=500, max_steps=50)
    counted, kept = run(config), run(replace(config, track_occupancy=True))
    assert np.array_equal(kept.occupancy.sum(axis=0), counted.visits)
    assert json.dumps(kept.summary()) == json.dumps(counted.summary())


def test_sc_occupancy_matches_invariant_measure():
    g = build_window_game(3, 1)
    config, sol = optimal_config(g, replications=200, max_steps=10000, seed=17,
                                 track_occupancy=True)
    result = run(config)
    mu = invariant_measure(sol)
    fractions = result.occupancy / result.occupancy.sum(axis=1, keepdims=True)
    for node in range(g.num_nodes):
        mean = fractions[:, node].mean()
        se = fractions[:, node].std(ddof=1) / len(fractions) ** 0.5
        assert abs(mean - mu[node]) <= 3 * se + 1e-6, node


def test_steady_fortune_shape_from_simulation():
    from pathwager import steady_state_fortunes

    g = build_window_game(3, 1)
    config, sol = optimal_config(g, replications=100000, max_steps=60, seed=29,
                                 checkpoints=(60,))
    result = run(config)
    shape = steady_state_fortunes(sol).shape
    nodes, fortunes = result.checkpoints[60]
    # the constant c of D * 1{X = j} ~ c * shape_j, by least squares of the
    # per-replication masked fortunes against the shape
    c = float((fortunes * shape[nodes] / float(shape @ shape)).mean())
    # occupancy-masked fortune means are proportional to the shape: each
    # per-node mean of D * 1{X = j} matches c * shape_j within 3 SE
    for j in range(g.num_nodes):
        masked = fortunes * (nodes == j)
        se = masked.std(ddof=1) / len(masked) ** 0.5
        assert abs(masked.mean() - c * shape[j]) <= 3 * se + 1e-12, j
    # and the fortune conditioned on the position is flat against 1/v
    cond = np.array([fortunes[nodes == j].mean() * sol.values[j] for j in range(g.num_nodes)])
    assert np.abs(cond - cond.mean()).max() <= 0.02 * cond.mean()


def test_fortune_positivity_min_risk(terminating_corpus):
    for entry in terminating_corpus[:12]:
        g = entry.graph
        if not g.nonterminals:
            continue
        config, _ = optimal_config(g, beta=1.0, replications=2000, seed=31)
        result = run(config)
        assert np.all(result.final_fortunes > 0), entry.name


def test_censoring_warns_and_excludes():
    g = build_graph(["1", "t"], [("1", "1"), ("1", "t")], {"t": 1})
    sol = solve(g)
    # hand-crafted chooser that never exits the loop
    sticky = StrategyProfile(
        sol,
        beta=1.0,
        chooser=np.array([1.0, 0.0]),
        guesser=np.array([1.0, 0.0]),
        wagers=np.array([0.0, 0.0]),
    )
    config = SimulationConfig(profile=sticky, start=0, replications=50,
                              max_steps=64, seed=1)
    result = run(config)
    assert result.censored.all()
    assert result.warnings and "censored" in result.warnings[0]
    assert result.summary()["mean_fortune"] is None


def test_config_validation():
    g = fan([2, 4])
    profile = build_profile(solve(g))
    with pytest.raises(ValueError):
        SimulationConfig(profile=profile, start=1, replications=10)  # terminal start
    with pytest.raises(ValueError):
        SimulationConfig(profile=profile, start=0, replications=0)


def test_exploit_search_fan_equilibrium():
    g = fan([2, 4])
    sol = solve(g)
    profile = build_profile(sol)
    held_guesser = exploit_search(profile, fixed_side="guesser")
    # every pure chooser move yields exactly the harmonic-mean value
    assert held_guesser.gain <= 1e-12
    assert abs(held_guesser.values[0] - 8 / 3) < 1e-12

    held_chooser = exploit_search(profile, fixed_side="chooser")
    assert held_chooser.values[0] <= 8 / 3 + 1e-12
    assert held_chooser.gain <= 1e-12


def test_exploit_search_detects_perturbed_chooser():
    g = fan([2, 4])
    sol = solve(g)
    profile = build_profile(sol, beta=1.0)
    skew = profile.chooser + np.array([0.01, -0.01])
    bad = StrategyProfile(sol, beta=1.0, chooser=skew / skew.sum(),
                          guesser=profile.guesser, wagers=profile.wagers)
    report = exploit_search(bad, fixed_side="chooser")
    assert report.gain > 1e-4


def test_exploit_search_equilibrium_on_corpus(terminating_corpus):
    for entry in terminating_corpus[:15]:
        if not entry.graph.nonterminals:
            continue
        sol = solve(entry.graph)
        for beta in (0.0, 1.0):
            for side in ("chooser", "guesser"):
                profile = build_profile(sol, beta=beta)
                report = exploit_search(profile, fixed_side=side)
                assert report.gain <= 1e-9, (entry.name, side, beta)


def test_exploit_search_requires_terminating():
    g = build_window_game(2, 1)
    sol = solve(g)
    with pytest.raises(Exception):
        exploit_search(build_profile(sol), fixed_side="chooser")


@pytest.mark.parametrize("node", [-1, -2, 3])
def test_out_of_range_nodes_are_refused(node):
    g = fan([2, 4])  # nodes 0..2
    profile = build_profile(solve(g))
    with pytest.raises(ValueError, match=f"start node {node} is outside 0..2"):
        SimulationConfig(profile=profile, start=node, replications=5)
    with pytest.raises(ValueError, match=f"node {node} is outside 0..2"):
        play_step(profile, node, 1.0, StepRng(seed=0))


def test_no_grid_wager_beats_the_best_reply():
    # guess j at wager w earns p_j c_j (1 + max(n - 1, 1) w) + (p.c - p_j c_j)(1 - w)
    rng = np.random.default_rng(20261018)
    wagers = np.linspace(0.0, 1.0, 1001)
    for n in range(1, 7):
        win, lose = 1.0 + max(n - 1, 1) * wagers, 1.0 - wagers
        for _ in range(200):
            p = rng.dirichlet(np.ones(n))
            cont = 10.0 ** rng.uniform(-3.0, 3.0, n)
            j, best = _best_reply(p, cont)
            pc = p * cont
            payoff = pc[:, None] * win + (pc.sum() - pc)[:, None] * lose
            assert payoff.max() <= best * (1.0 + 1e-15), (n, p, cont)
            assert payoff[j, -1] == best  # attained all in on guess j
