"""Oracle game generation: automata, languages, and closed-form references."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

import support
from support import chooser_transition_matrix
from pathwager import (
    GraphError,
    GraphKind,
    build_forbidden_pattern_game,
    build_profile,
    build_stopping_variant,
    build_window_game,
    classify,
    gn1_reference,
    invariant_measure,
    serialize_graph,
    solve,
    stop_probability_formula,
)
from pathwager import oracle
from pathwager.oracle import OracleBuildError, OracleSpec, parse_pattern_lines

PHI = (1 + math.sqrt(5)) / 2


def brentq_lambda(n):
    return scipy.optimize.brentq(lambda x: x**n - x ** (n - 1) - 1, 1.0, 2.0, xtol=1e-15)


def test_window_two_one_topology():
    g = build_window_game(2, 1)
    assert g.labels == ("1", "2")
    assert g.successors == ((0, 1), (0,))
    assert g.edge_labels == {(0, 0): "truth", (0, 1): "lie", (1, 0): "truth"}


def test_window_one_lie_family_is_cycle_plus_loop():
    for n in range(2, 8):
        g = build_window_game(n, 1)
        assert g.num_nodes == n
        assert g.successors[0] == (0, 1)
        for i in range(1, n - 1):
            assert g.successors[i] == (i + 1,)
        assert g.successors[n - 1] == (0,)


def test_window_zero_budget_single_loop():
    for n in (1, 2, 5, 10**12):
        g = build_window_game(n, 0)
        assert g.num_nodes == 1
        assert g.successors == ((0,),)
        assert g.edge_labels == {(0, 0): "truth"}


def test_window_rejects_bad_parameters():
    with pytest.raises(OracleBuildError):
        build_window_game(0, 0)
    with pytest.raises(OracleBuildError):
        build_window_game(3, 3)
    with pytest.raises(OracleBuildError):
        build_window_game(3, -1)


def test_window_language_matches_brute_force():
    for n in range(1, 5):
        for k in range(0, n):
            g = build_window_game(n, k)
            got = support.realizable_strings(g, 12)
            want = support.legal_window_strings(n, k, 12)
            assert got == want, (n, k)


def test_minimization_never_grows_states():
    # raw reachable histories bound the minimized count
    for n in range(1, 6):
        for k in range(0, n):
            g = build_window_game(n, k)
            assert g.num_nodes <= 2 ** max(n - 1, 0)


def test_pattern_game_equals_window_game():
    g = build_forbidden_pattern_game(["LL"])
    w = build_window_game(2, 1)
    assert support.realizable_strings(g, 12) == support.realizable_strings(w, 12)


def test_pattern_game_single_truth_loop():
    g = build_forbidden_pattern_game(["L"])
    assert g.num_nodes == 1
    assert g.edge_labels == {(0, 0): "truth"}


def test_pattern_game_two_patterns_language():
    patterns = ["LL", "LTL"]
    g = build_forbidden_pattern_game(patterns)
    got = support.realizable_strings(g, 12)
    want = support.legal_pattern_strings(patterns, 12)
    assert got == want


def test_pattern_game_rejects_unreduced_sets():
    with pytest.raises(OracleBuildError, match="reduced"):
        build_forbidden_pattern_game(["L", "LL"])


def test_pattern_game_rejects_impossible_sets():
    with pytest.raises(OracleBuildError, match="forbids everything"):
        build_forbidden_pattern_game(["T", "L"])


def test_pattern_game_rejects_unsupported_structure():
    # avoiding "LT" strands play in a lie-only loop: not strongly connected
    with pytest.raises(OracleBuildError):
        build_forbidden_pattern_game(["LT"])


def test_parse_pattern_lines():
    assert parse_pattern_lines("L L\nT L T\n") == ["LL", "TLT"]
    with pytest.raises(OracleBuildError):
        parse_pattern_lines("L X\n")
    with pytest.raises(OracleBuildError):
        parse_pattern_lines("\n\n")


def test_oracle_spec_builders(tmp_path):
    assert OracleSpec(kind="window", n=3, k=1).build().num_nodes == 3
    assert OracleSpec(kind="window-stop", n=3).build().num_nodes == 4
    assert OracleSpec(kind="patterns", patterns=("LL",)).build().num_nodes == 2
    with pytest.raises(OracleBuildError):
        OracleSpec(kind="nope").build()


def test_stopping_variant_structure_and_probabilities():
    g = build_stopping_variant(3)
    assert classify(g).kind is GraphKind.TERMINATING
    stop = g.index_of("stop")
    assert g.values[stop] == 1.0
    # no stop move from the just-lied node
    assert stop not in g.successors[1]
    sol = solve(g)
    p = chooser_transition_matrix(sol)
    assert abs(p[0, stop] - 7 / 15) < 1e-12
    assert p[1, stop] == 0.0
    assert abs(p[2, stop] - 7 / 12) < 1e-12


def test_stopping_variant_formula_range():
    assert abs(stop_probability_formula(2, 1) - 0.5) < 1e-15
    assert stop_probability_formula(5, 2) == 0.0
    with pytest.raises(ValueError):
        stop_probability_formula(3, 4)
    with pytest.raises(OracleBuildError):
        build_stopping_variant(1)


@pytest.mark.parametrize("n", [5, 60, 1024, 1100, 2000])
def test_stop_probability_formula_matches_rational_arithmetic(n):
    for i in [1] + list(range(3, n + 1)):
        if i == 1:
            exact = Fraction(2**n - 1, 3 * (2 ** (n - 1) + 2 ** (n - 2) - 1))
        else:
            exact = Fraction(2**n - 1, 2 ** (n + 1) - 2 ** (i - 2) - 2)
        got = stop_probability_formula(n, i)
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**15) * exact, (n, i)


def test_stopping_variant_matches_formula():
    for n in range(2, 11):
        g = build_stopping_variant(n)
        sol = solve(g)
        p = chooser_transition_matrix(sol)
        stop = g.index_of("stop")
        for i in range(1, n + 1):
            want = stop_probability_formula(n, i)
            assert abs(p[g.index_of(str(i)), stop] - want) <= 1e-10, (n, i)


def test_stopping_probability_limit():
    g = build_stopping_variant(20)
    sol = solve(g)
    p = chooser_transition_matrix(sol)
    assert abs(p[0, g.index_of("stop")] - 4 / 9) < 0.01


def test_reference_root_and_monotonicity():
    ref = gn1_reference(2)
    assert abs(ref.lam - PHI) < 1e-12
    lams = [gn1_reference(n).lam for n in range(2, 31)]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert lams[-1] > 1.0
    with pytest.raises(ValueError):
        gn1_reference(1)


def test_reference_internal_identities():
    for n in range(2, 11):
        ref = gn1_reference(n)
        assert abs(ref.lam - brentq_lambda(n)) < 1e-12, n
        assert 1.0 <= ref.lam <= 2.0
        assert abs(ref.truth_prob + ref.lie_prob - 1.0) <= 1e-12
        assert abs(ref.invariant.sum() - 1.0) <= 1e-12
        # eigen identities against the cycle-plus-loop adjacency
        a = np.zeros((n, n))
        a[0, 0] = a[0, 1] = 1.0
        for i in range(1, n - 1):
            a[i, i + 1] = 1.0
        a[n - 1, 0] = 1.0
        assert np.abs(a @ ref.right_vec - ref.lam * ref.right_vec).max() < 1e-9, n
        assert np.abs(a.T @ ref.left_vec - ref.lam * ref.left_vec).max() < 1e-9, n


def test_solver_reproduces_reference_family():
    for n in range(2, 11):
        g = build_window_game(n, 1)
        sol = solve(g)
        ref = gn1_reference(n)
        assert abs(sol.spectral.radius - ref.radius) < 1e-10, n
        profile = build_profile(sol, beta=1.0)
        start = slice(g.edge_offsets[0], g.edge_offsets[1])  # node 0's edges
        assert abs(profile.chooser[start][0] - ref.truth_prob) < 1e-10, n
        assert abs(profile.chooser[start][1] - ref.lie_prob) < 1e-10, n
        assert abs(profile.wagers[0] - ref.wager) < 1e-10, n
        assert np.allclose(profile.guesser[start], [1.0, 0.0], atol=1e-10)
        mu = invariant_measure(sol)
        assert np.abs(mu - ref.invariant).max() < 1e-10, n


# -- Hopcroft minimization against the Moore reference ------------------------

HOPCROFT_WINDOWS = [(n, k) for n in range(1, 15) for k in range(min(n, 5))] + [(16, 4), (200, 1)]
PATTERN_SETS = [["LL"], ["L"], ["LL", "LTL"], ["LT"], ["T", "L"], ["L", "LL"]]
RANDOM_AUTOMATA = support.random_automata(200, seed=1971)


def _built(build):
    """serialize_graph bytes of ``build()``, or its error message (a random
    automaton whose start reaches a dead end is no game graph)."""
    try:
        return serialize_graph(build())
    except (OracleBuildError, GraphError) as exc:
        return f"error: {exc}"


def _builds(family):
    if family == "windows":
        return {f"window:{n},{k}": lambda n=n, k=k: build_window_game(n, k)
                for n, k in HOPCROFT_WINDOWS}
    if family == "window-stop":
        return {f"window-stop:{n}": lambda n=n: build_stopping_variant(n) for n in range(2, 61)}
    return {"patterns:" + ",".join(p): lambda p=p: build_forbidden_pattern_game(p)
            for p in PATTERN_SETS}


@pytest.mark.parametrize("family", ["windows", "window-stop", "patterns", "random"])
def test_hopcroft_matches_moore(family, monkeypatch):
    # the coarsest stable partition is unique, so both number the same blocks
    # by lowest state; the graph bytes then agree through every builder
    if family == "random":
        automata = [(t, 0, f"random {i}") for i, t in enumerate(RANDOM_AUTOMATA)]
    else:
        automata = []
        real = oracle._minimize

        def recording(transitions, start):
            automata.append((transitions, start, spec))
            return real(transitions, start)

        for spec, build in _builds(family).items():
            monkeypatch.setattr(oracle, "_minimize", recording)
            hopcroft = _built(build)
            monkeypatch.setattr(oracle, "_minimize", support.moore_minimize)
            assert hopcroft == _built(build), spec
        monkeypatch.undo()
        assert {spec for *_, spec in automata} >= set(_builds(family)) - {
            "patterns:T,L", "patterns:L,LL"}
    for transitions, start, spec in automata:
        assert oracle._partition(transitions) == support.moore_partition(transitions), spec
        got, want = oracle._minimize(transitions, start), support.moore_minimize(transitions, start)
        assert got == want, spec
        assert (_built(lambda: oracle._automaton_to_graph(*got))
                == _built(lambda: oracle._automaton_to_graph(*want))), spec


def test_random_automata_have_unreachable_and_dead_end_states():
    unreachable = dead_ends = merged = 0
    for table in RANDOM_AUTOMATA:
        reached, frontier = {0}, [0]
        while frontier:
            for t in table[frontier.pop()].values():
                if t not in reached:
                    reached.add(t)
                    frontier.append(t)
        unreachable += len(reached) < len(table)
        dead_ends += any(not trans for trans in table)
        merged += len(oracle._minimize(table, 0)[0]) < len(table)
    assert min(unreachable, dead_ends, merged) >= 50, (unreachable, dead_ends, merged)


def test_hopcroft_quotient_is_minimal():
    for i, table in enumerate(RANDOM_AUTOMATA):
        merged, start = oracle._minimize(table, 0)
        assert len(support.moore_minimize(merged, start)[0]) == len(merged), i


def test_hopcroft_quotient_reads_the_same_strings():
    for i, table in enumerate(RANDOM_AUTOMATA):
        merged, start = oracle._minimize(table, 0)
        assert (support.realizable_strings(merged, 10, start)
                == support.realizable_strings(table, 10)), i


@pytest.mark.parametrize("n, k, states", [(20, 5, 16664), (14, 3, 378), (12, 4, 562)])
def test_window_raw_histories_match_the_binomial_count(n, k, states, monkeypatch):
    sizes = []
    real = oracle._minimize
    monkeypatch.setattr(oracle, "_minimize", lambda t, s: sizes.append(len(t)) or real(t, s))
    build_window_game(n, k)
    assert sizes == [states] == [sum(math.comb(n - 1, j) for j in range(k + 1))]
    monkeypatch.setattr(oracle, "MAX_WINDOW_STATES", states)
    build_window_game(n, k)
    monkeypatch.setattr(oracle, "MAX_WINDOW_STATES", states - 1)
    with pytest.raises(OracleBuildError, match=f"more than {states - 1} raw histories"):
        build_window_game(n, k)


def test_window_refuses_oversized_specs_at_once():
    # window:64,32 would need about 2^62 raw histories
    start = time.perf_counter()
    for n, k in [(64, 32), (10**9, 10**8), (oracle.MAX_WINDOW_STATES + 2, 1)]:
        with pytest.raises(OracleBuildError, match="too many to build"):
            build_window_game(n, k)
    assert time.perf_counter() - start < 1.0
