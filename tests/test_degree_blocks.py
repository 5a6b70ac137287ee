"""Degree-blocked profiles, edge tables, deviation sweeps and brackets, bit
for bit against the per-node loops they replaced (``support.loop_*``)."""

import functools
import random
import types
import warnings

import numpy as np
import pytest

import support
from pathwager import (
    StrategyError,
    StrategyProfile,
    build_graph,
    build_profile,
    build_stopping_variant,
    exploit_search,
    solve,
)
from pathwager.simulate import _edge_tables
from pathwager.verify import brute_force_value

BETAS = (0.0, 0.25, 0.5, 1.0)


def _fan(leaves: int, seed: int):
    rng = random.Random(seed)
    labels = [f"leaf{i}" for i in range(leaves)]
    values = {lab: rng.choice([0.5, 1.0, 2.0, 3.0, 8.0]) for lab in labels}
    return build_graph(["root"] + labels, [("root", lab) for lab in labels], values)


def _mixed_dag(size: int, seed: int):
    """A layered DAG with out-degrees 1..7: node k always reaches k + 1, so
    its depth, and the sweeps a deviation search needs off equilibrium, is
    about ``size``."""
    rng = random.Random(seed)
    terminals = 4
    labels = [f"n{k}" for k in range(size)] + [f"t{k}" for k in range(terminals)]
    edges = []
    for k in range(size):
        later = labels[k + 2:]
        extra = rng.sample(later, min(len(later), rng.randint(0, 6)))
        edges += [(labels[k], labels[k + 1])] + [(labels[k], lab) for lab in extra]
    values = {f"t{k}": rng.choice([0.5, 1.0, 2.0, 4.0]) for k in range(terminals)}
    return build_graph(labels, edges, values)


@functools.lru_cache(maxsize=None)
def _games():
    """(name, graph, solution): the corpus, window-stop:5..60, fans of 8, 12,
    33 and 130 leaves, and mixed-degree DAGs."""
    graphs = [(e.name, e.graph) for e in support.full_corpus()]
    graphs += [(f"window-stop:{n}", build_stopping_variant(n)) for n in range(5, 61)]
    graphs += [(f"fan{n}", _fan(n, n)) for n in (8, 12, 33, 130)]
    graphs += [(f"dag{size}_{seed}", _mixed_dag(size, seed)) for size, seed in
               ((12, 1), (40, 2), (150, 3))]
    return tuple((name, g, solve(g)) for name, g in graphs)


def _terminating():
    return [(n, g, s) for n, g, s in _games() if s.graph_class.is_terminating and g.nonterminals]


def _same_arrays(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_profile(got: StrategyProfile, want: StrategyProfile) -> bool:
    return (
        got.beta == want.beta
        and list(got.chooser) == list(want.chooser) == list(got.guesser) == list(got.wagers)
        and all(_same_arrays(got.chooser[i], want.chooser[i]) for i in want.chooser)
        and all(_same_arrays(got.guesser[i], want.guesser[i]) for i in want.guesser)
        and all(type(got.wagers[i]) is float and got.wagers[i] == want.wagers[i]
                for i in want.wagers)
    )


def _same_report(got, want) -> bool:
    return (
        _same_arrays(got.values, want.values)
        and got.gain == want.gain
        and list(got.deviation.items()) == list(want.deviation.items())
        and got.converged == want.converged
    )


def test_degree_blocks_partition_the_nonterminals():
    for name, g, _ in _games():
        degrees = [d for d, _, _ in g.degree_blocks]
        assert degrees == sorted(set(degrees)), name
        seen = []
        for d, nodes, succ in g.degree_blocks:
            assert nodes.dtype == succ.dtype == np.int64, name
            assert succ.shape == (len(nodes), d) and list(nodes) == sorted(nodes), name
            assert [tuple(row) for row in succ.tolist()] == [g.successors[i] for i in nodes]
            seen += nodes.tolist()
        assert sorted(seen) == list(g.nonterminals), name
    assert [d for d, _, _ in _mixed_dag(150, 3).degree_blocks] == [1, 2, 3, 4, 5, 6, 7]


def test_blocked_profiles_match_the_loops():
    for name, g, sol in _games():
        for beta in BETAS:
            try:
                want = support.loop_build_profile(sol, g, beta)
            except StrategyError as exc:
                with pytest.raises(StrategyError) as got:
                    build_profile(sol, g, beta=beta)
                assert str(got.value) == str(exc), (name, beta)
                continue
            assert _same_profile(build_profile(sol, g, beta=beta), want), (name, beta)


def test_blocked_edge_tables_match_the_loops():
    for name, g, sol in _games():
        if not g.nonterminals:
            continue
        for beta in BETAS:
            profile = build_profile(sol, g, beta=beta)
            got, want = _edge_tables(g, profile), support.loop_edge_tables(g, profile)
            assert all(_same_arrays(a, b) for a, b in zip(got, want)), (name, beta)


def test_blocked_exploit_search_matches_the_loops():
    for name, g, sol in _terminating():
        for beta in BETAS:
            profile = build_profile(sol, g, beta=beta)
            for side in ("guesser", "chooser"):
                want, _ = support.loop_exploit_search(g, sol, side, profile)
                assert want.converged, (name, beta, side)
                got = exploit_search(g, sol, fixed_side=side, profile=profile)
                assert _same_report(got, want), (name, beta, side)
                assert _same_report(exploit_search(g, sol, fixed_side=side, beta=beta), want)


def test_blocked_brackets_match_the_loops():
    for name, g, sol in _terminating():
        if g.num_nodes > 80:  # the upper anchor N^N v_max stays finite
            continue
        bounds = brute_force_value(g, depth_limit=60)
        lower, upper, converged = support.loop_brute_force_value(g, 60)
        assert _same_arrays(bounds.lower, lower) and _same_arrays(bounds.upper, upper), name
        assert bounds.converged == converged, name


def _off_equilibrium(profile: StrategyProfile, t: float) -> StrategyProfile:
    """The chooser leans toward her first successor and the guesser toward the
    uniform guess, each by t; the wagers shrink by the factor 1 - t."""
    chooser = {i: (1 - t) * p + t * np.eye(len(p))[0] for i, p in profile.chooser.items()}
    guesser = {i: (1 - t) * g + t / len(g) for i, g in profile.guesser.items()}
    wagers = {i: (1 - t) * w for i, w in profile.wagers.items()}
    return StrategyProfile(profile.beta, chooser, guesser, wagers)


def test_off_equilibrium_sweeps_match_the_loops():
    names = {"window-stop:10", "window-stop:30", "window-stop:60", "dag40_2", "dag150_3"}
    sweeps, unconverged = [], 0
    for name, g, sol in _terminating():
        if name not in names:
            continue
        for t in (0.01, 0.5):
            profile = _off_equilibrium(build_profile(sol, g, beta=0.5), t)
            for side in ("guesser", "chooser"):
                want, count = support.loop_exploit_search(g, sol, side, profile)
                got = exploit_search(g, sol, fixed_side=side, profile=profile)
                assert _same_report(got, want), (name, t, side)
                if want.converged:
                    sweeps.append(count)
                else:
                    unconverged += 1
    # deep DAGs converge after ~depth sweeps; biased choosers on the
    # stopping cycles let the guesser's fortune grow without bound
    assert max(sweeps) >= 100 and unconverged >= 6


def _zero_wager_tree():
    # r's two children have three leaves each: equal at "x" (uniform
    # chooser row, zero wager at beta = 1) and unequal at "y"
    leaves = {"a": 2, "b": 2, "c": 2, "d": 1, "e": 2, "f": 4}
    edges = [("r", "x"), ("r", "y")] + [("x", k) for k in "abc"] + [("y", k) for k in "def"]
    return build_graph(["r", "x", "y", *leaves], edges, leaves)


def test_zero_wager_rows_raise_nothing_and_guess_uniformly():
    g = _zero_wager_tree()
    sol = solve(g)
    x, y = g.index_of("x"), g.index_of("y")
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        profile = build_profile(sol, g, beta=1.0)
        tables = _edge_tables(g, profile)
    assert profile.wagers[x] == 0.0 and profile.wagers[y] > 0.0
    assert profile.guesser[x].tolist() == [1 / 3] * 3
    assert _same_profile(profile, support.loop_build_profile(sol, g, 1.0))
    assert all(_same_arrays(a, b) for a, b in zip(tables, support.loop_edge_tables(g, profile)))


def test_clamp_error_names_the_lowest_offending_node():
    # a negative weight at "s" puts the guess row of "a" (out-degree 3) out
    # of range, and one at "v" those of "b" and "c" (out-degree 2); "a" is
    # the lowest node but lies in the last degree block
    labels = ["a", "b", "c", "s", "t", "u", "v", "w"]
    edges = [("a", "s"), ("a", "t"), ("a", "u"), ("b", "v"), ("b", "w"), ("c", "v"), ("c", "w")]
    g = build_graph(labels, edges, {k: 1 for k in "stuvw"})
    for u_s, node in ((-1.0, "a"), (1.0, "b")):
        fake = types.SimpleNamespace(graph=g, reciprocals=np.array([1, 1, 1, u_s, 2, 1, -1, 2.0]))
        with pytest.raises(StrategyError) as want:
            support.loop_build_profile(fake, g, 0.5)
        with pytest.raises(StrategyError) as got:
            build_profile(fake, g, beta=0.5)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"guess probabilities out of range at node {node!r}: [")
