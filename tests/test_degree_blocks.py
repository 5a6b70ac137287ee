"""Degree-blocked profiles, edge tables, deviation sweeps and brackets, bit
for bit against the per-node loops they replaced (``support.loop_*``), and
per-edge profiles rendered and played byte for byte as the per-node rows
they replaced (``support.rows_*``)."""

import ast
import functools
import io
import itertools
import random
import re
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
    serialize_graph,
    solve,
    to_dot,
)
from pathwager.cli import dispatch, play_repl
from pathwager.simulate import _edge_tables
from pathwager.verify import brute_force_value
from pathwager.writer import _dumps

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
    return got.beta == want.beta and all(
        _same_arrays(getattr(got, name), getattr(want, name))
        for name in ("chooser", "guesser", "wagers")
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
        degrees = [d for d, _, _, _ in g.degree_blocks]
        assert degrees == sorted(set(degrees)), name
        dst = np.array([j for _, j in g.edges()], dtype=np.int64)
        assert g.edge_offsets.tolist() == [0, *itertools.accumulate(map(len, g.successors))]
        assert g.targets.dtype == g.sources.dtype == np.int64, name
        assert g.targets.tolist() == dst.tolist(), name
        assert g.sources.tolist() == [i for i, _ in g.edges()], name
        degree = np.diff(g.edge_offsets)[g.sources]
        assert g.weights.tolist() == [0.5 if d == 1 else 1 / d for d in degree.tolist()], name
        seen, seen_edges = [], []
        for d, nodes, succ, edges in g.degree_blocks:
            assert nodes.dtype == succ.dtype == edges.dtype == np.int64, name
            assert succ.shape == edges.shape == (len(nodes), d), name
            assert list(nodes) == sorted(nodes), name
            assert [tuple(row) for row in succ.tolist()] == [g.successors[i] for i in nodes]
            assert np.array_equal(dst[edges], succ), name
            assert np.array_equal(g.targets[edges], succ), name
            seen += nodes.tolist()
            seen_edges += edges.ravel().tolist()
        assert sorted(seen) == list(g.nonterminals), name
        assert sorted(seen_edges) == list(range(len(dst))), name
    assert [d for d, *_ in _mixed_dag(150, 3).degree_blocks] == [1, 2, 3, 4, 5, 6, 7]


def test_edge_offsets_are_read_only():
    g = _mixed_dag(12, 1)
    for table in (g.edge_offsets, g.targets, g.sources, g.weights):
        with pytest.raises(ValueError):
            table[1] = 0


def test_blocked_profiles_match_the_loops():
    for name, g, sol in _games():
        for beta in BETAS:
            try:
                want = support.loop_build_profile(sol, beta)
            except StrategyError as exc:
                with pytest.raises(StrategyError) as got:
                    build_profile(sol, beta=beta)
                assert str(got.value) == str(exc), (name, beta)
                continue
            assert _same_profile(build_profile(sol, beta=beta), want), (name, beta)


def test_blocked_edge_tables_match_the_loops():
    for name, g, sol in _games():
        if not g.nonterminals:
            continue
        for beta in BETAS:
            profile = build_profile(sol, beta=beta)
            got, want = _edge_tables(profile), support.loop_edge_tables(profile)
            assert all(_same_arrays(a, b) for a, b in zip(got, want)), (name, beta)


def test_blocked_exploit_search_matches_the_loops():
    for name, g, sol in _terminating():
        for beta in BETAS:
            profile = build_profile(sol, beta=beta)
            for side in ("guesser", "chooser"):
                want, _ = support.loop_exploit_search(profile, side)
                assert want.converged, (name, beta, side)
                got = exploit_search(profile, fixed_side=side)
                assert _same_report(got, want), (name, beta, side)


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
    g = profile.graph
    degree = np.diff(g.edge_offsets)
    first = np.zeros(len(profile.chooser))
    first[g.edge_offsets[:-1][degree > 0]] = 1.0
    chooser = (1 - t) * profile.chooser + t * first
    guesser = (1 - t) * profile.guesser + t / np.repeat(degree, degree)
    return StrategyProfile(profile.solution, profile.beta, chooser, guesser,
                           (1 - t) * profile.wagers)


def test_off_equilibrium_sweeps_match_the_loops():
    names = {"window-stop:10", "window-stop:30", "window-stop:60", "dag40_2", "dag150_3"}
    sweeps, unconverged = [], 0
    for name, g, sol in _terminating():
        if name not in names:
            continue
        for t in (0.01, 0.5):
            profile = _off_equilibrium(build_profile(sol, beta=0.5), t)
            for side in ("guesser", "chooser"):
                want, count = support.loop_exploit_search(profile, side)
                got = exploit_search(profile, fixed_side=side)
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
        profile = build_profile(sol, beta=1.0)
        tables = _edge_tables(profile)
    assert profile.wagers[x] == 0.0 and profile.wagers[y] > 0.0
    assert profile.guesser[g.edge_offsets[x]:g.edge_offsets[x + 1]].tolist() == [1 / 3] * 3
    assert _same_profile(profile, support.loop_build_profile(sol, 1.0))
    assert all(_same_arrays(a, b) for a, b in zip(tables, support.loop_edge_tables(profile)))


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
            support.loop_build_profile(fake, 0.5)
        with pytest.raises(StrategyError) as got:
            build_profile(fake, beta=0.5)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"guess probabilities out of range at node {node!r}: [")


class _FirstMoveHuman:
    """``play_repl``'s input: wager 1/2, and the first of the moves it lists
    last that does not read as a request to quit (``support.human_move``)."""

    def __init__(self, out: io.StringIO):
        self.out = out

    def readline(self) -> str:
        text = self.out.getvalue()
        if text.endswith("your wager fraction [0,1]: "):
            return "0.5\n"
        moves = ast.literal_eval(re.findall(r": moves (\[.*\]), fortune", text)[-1])
        return support.human_move(moves) + "\n"


def test_per_edge_profiles_render_and_play_as_the_rows():
    for name, g, sol in _games():
        for beta in BETAS:
            try:
                rows = support.loop_profile_rows(sol, beta)
            except StrategyError:  # the same refusal as build_profile's, pinned above
                continue
            profile = build_profile(sol, beta=beta)
            assert _dumps(profile.to_dict()) == _dumps(support.rows_to_dict(g, rows)), name
            assert to_dot(g, profile) == support.rows_to_dot(g, rows), (name, beta)
            if not g.nonterminals or beta not in (0.5, 1.0):  # play solves on each call
                continue
            for side in ("chooser", "guesser"):
                out = io.StringIO()
                got = play_repl(g, side, beta=beta, seed=7, in_stream=_FirstMoveHuman(out),
                                out_stream=out, max_rounds=12)
                want = support.rows_play(g, rows, side, 7, 12)
                assert _dumps(got) == _dumps(want), (name, beta, side)


def test_strategy_and_export_dot_print_the_rows(tmp_path, capsys):
    for name, g, sol in _games()[::4]:
        path = tmp_path / "g.json"
        path.write_text(serialize_graph(g))
        for beta in (0.0, 1.0):
            try:
                rows = support.loop_profile_rows(sol, beta)
            except StrategyError:
                continue
            # the report is the rows' document with the manifest appended
            assert dispatch(["strategy", "--graph", str(path), "--beta", str(beta)]) == 0
            report = _dumps(support.rows_to_dict(g, rows))
            assert capsys.readouterr().out.startswith(report[:-2] + ',\n  "manifest": {'), name
            assert dispatch(["export-dot", "--graph", str(path), "--beta", str(beta)]) == 0
            assert capsys.readouterr().out == support.rows_to_dot(g, rows) + "\n", name
