"""Strategy profiles: the beta family, wagers, and the transition matrix.

A fan's root is node 0 and owns every edge, so its profile arrays are the
root's rows; elsewhere ``support.node_rows`` cuts the per-edge arrays into
per-node rows.
"""

import math
import types

import numpy as np
import pytest

import support
from support import chooser_transition_matrix
from pathwager import (
    GraphKind,
    StrategyError,
    StrategyProfile,
    build_graph,
    build_propagation_matrix,
    build_stopping_variant,
    build_window_game,
    build_profile,
    classify,
    solve,
)

PHI = (1 + math.sqrt(5)) / 2
BETAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def fan24():
    return build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 2, "b": 4})


def test_min_risk_profile_on_fan24():
    g = fan24()
    profile = build_profile(solve(g), beta=1.0)
    assert np.allclose(profile.chooser, [2 / 3, 1 / 3])
    assert abs(profile.wagers[0] - 1 / 3) < 1e-12
    # critical wager: 1 - H / v_max
    assert abs(profile.wagers[0] - (1 - (8 / 3) / 4)) < 1e-12
    assert np.allclose(profile.guesser, [1.0, 0.0], atol=1e-15)


def test_max_risk_profile_on_fan24():
    g = fan24()
    profile = build_profile(solve(g), beta=0.0)
    assert profile.wagers[0] == 1.0
    assert np.allclose(profile.guesser, profile.chooser)


def test_intermediate_beta_on_fan24():
    g = fan24()
    profile = build_profile(solve(g), beta=0.5)
    assert abs(profile.wagers[0] - 2 / 3) < 1e-12
    # (n p_1 - 1 + w) / (n w) with p_1 = 2/3, w = 2/3
    assert abs(profile.guesser[0] - 3 / 4) < 1e-12


def test_window_game_min_risk_closed_form():
    g = build_window_game(2, 1)
    rows = support.node_rows(build_profile(solve(g), beta=1.0))
    assert abs(rows.chooser[0][0] - 1 / PHI) < 1e-10
    assert abs(rows.chooser[0][1] - 1 / PHI**2) < 1e-10
    assert np.allclose(rows.guesser[0], [1.0, 0.0], atol=1e-12)
    assert abs(rows.wagers[0] - (1 / PHI - 1 / PHI**2)) < 1e-10
    # forced node: bet everything
    assert rows.wagers[1] == 1.0
    assert rows.chooser[1][0] == 1.0


def test_beta_family_identities(corpus):
    for entry in corpus:
        sol = solve(entry.graph)
        for beta in BETAS:
            profile = support.node_rows(build_profile(sol, beta=beta))
            for i in entry.graph.nonterminals:
                p = profile.chooser[i]
                g = profile.guesser[i]
                w = profile.wagers[i]
                n = len(p)
                assert abs(p.sum() - 1) <= 1e-12, entry.name
                assert abs(g.sum() - 1) <= 1e-12, entry.name
                assert np.all(g >= 0) and np.all(g <= 1), entry.name
                assert 0 <= w <= 1
                if n == 1:
                    assert w == 1.0
                    continue
                if w > 0:
                    # defining identity of the family
                    assert np.abs(w * (n * g - 1) - (n * p - 1)).max() <= 1e-12, entry.name


def test_beta_one_excludes_least_likely(corpus):
    for entry in corpus:
        sol = solve(entry.graph)
        profile = support.node_rows(build_profile(sol, beta=1.0))
        for i in entry.graph.nonterminals:
            p = profile.chooser[i]
            if len(p) == 1 or profile.wagers[i] == 0.0:
                continue
            argmins = np.nonzero(np.abs(p - p.min()) <= 1e-15)[0]
            assert np.all(profile.guesser[i][argmins] == 0.0), entry.name


@pytest.mark.parametrize("n", [20, 30])
def test_min_risk_profile_with_tiny_wagers(n):
    # smallest wagers about 9.5e-7 (n = 20) and 9.3e-10 (n = 30)
    g = build_stopping_variant(n)
    profile = support.node_rows(build_profile(solve(g), beta=1.0))
    assert 0.0 < min(w for w in profile.wagers.values()) < 1e-6
    for i in g.nonterminals:
        p, guess, w = profile.chooser[i], profile.guesser[i], profile.wagers[i]
        assert np.all(guess >= 0.0) and abs(guess.sum() - 1.0) <= 1e-12
        if len(p) > 1:
            # defining identity of the family: w (n g - 1) = n p - 1
            assert np.abs(w * (len(p) * guess - 1) - (len(p) * p - 1)).max() <= 1e-12


def test_beta_zero_full_wager(corpus):
    for entry in corpus[:20]:
        sol = solve(entry.graph)
        profile = support.node_rows(build_profile(sol, beta=0.0))
        for i in entry.graph.nonterminals:
            assert profile.wagers[i] == 1.0
            assert np.allclose(profile.guesser[i], profile.chooser[i], atol=1e-15)


def test_zero_wager_uniform_guess():
    g = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 1, "b": 1})
    profile = build_profile(solve(g), beta=1.0)
    assert profile.wagers[0] == 0.0
    assert np.allclose(profile.guesser, [0.5, 0.5])


def test_build_profile_validates():
    g = fan24()
    sol = solve(g)
    with pytest.raises(StrategyError):
        build_profile(sol, beta=1.5)


def test_a_profile_refuses_arrays_that_do_not_fit_its_graph():
    sol = solve(build_stopping_variant(5))  # 10 edges, 6 nodes
    other = build_profile(solve(build_stopping_variant(6)))  # 12 edges, 7 nodes
    fits = build_profile(sol)
    arrays = fits.chooser, fits.guesser, fits.wagers
    for k, wrong in enumerate((other.chooser, other.guesser, other.wagers)):
        bad = list(arrays)
        bad[k] = wrong
        with pytest.raises(StrategyError, match="needs 10 edge and 6 node entries"):
            StrategyProfile(sol, 1.0, *bad)
    assert StrategyProfile(sol, 1.0, *arrays).graph is sol.graph


def test_guess_rows_paths():
    g = fan24()
    profile = build_profile(solve(g), beta=0.5)
    # the root's guess row lies on the simplex, so clamping leaves it as it is
    row = profile.guesser[g.edge_offsets[0]:g.edge_offsets[1]]
    clamped = np.clip(row, 0.0, 1.0)
    assert np.allclose(clamped / clamped.sum(), row) and len(row) == 2
    # a terminal node owns no edges and wagers nothing
    assert g.edge_offsets.tolist() == [0, 2, 2, 2] and profile.wagers[1] == 0.0
    # a guess row out of range is refused where it is built: u = (1, -1, 2)
    # gives the root p = (-1, 2) and, at beta = 1/2, the guess (-1/4, 5/4)
    bad = types.SimpleNamespace(graph=g, reciprocals=np.array([1.0, -1.0, 2.0]))
    with pytest.raises(StrategyError):
        build_profile(bad, beta=0.5)


def test_transition_matrix_terminating(corpus):
    for entry in corpus:
        sol = solve(entry.graph)
        p = chooser_transition_matrix(sol)
        assert np.abs(p.sum(axis=1) - 1).max() <= 1e-12, entry.name
        # positivity pattern: P_ij > 0 iff i -> j (terminals absorb)
        for i in range(entry.graph.num_nodes):
            succ = set(entry.graph.successors[i])
            for j in range(entry.graph.num_nodes):
                if entry.graph.is_terminal(i):
                    assert p[i, j] == (1.0 if i == j else 0.0)
                elif j in succ:
                    assert p[i, j] > 0, entry.name
                else:
                    assert p[i, j] == 0.0, entry.name


def test_transition_matrix_agrees_with_profile(corpus):
    for entry in corpus[:25]:
        sol = solve(entry.graph)
        p = chooser_transition_matrix(sol)
        profile = build_profile(sol)
        for e, (i, j) in enumerate(entry.graph.edges()):
            assert abs(p[i, j] - profile.chooser[e]) <= 1e-12, entry.name


def test_transition_equals_propagation_when_fair():
    g = build_graph(
        ["p", "q", "r"],
        [("p", "q"), ("p", "r"), ("q", "p"), ("q", "r"), ("r", "p"), ("r", "q")], {})
    sol = solve(g)
    p = chooser_transition_matrix(sol)
    m = build_propagation_matrix(g).matrix
    assert np.abs(p - m).max() <= 1e-12


def test_one_step_fortune_multiplier_identity(corpus):
    # expected multiplier i -> j equals v_i / v_j (with a 1/r factor on
    # strongly connected graphs), for every edge and every beta
    for entry in corpus:
        sol = solve(entry.graph)
        scale = 1.0 if sol.spectral is None else 1.0 / sol.spectral.radius
        for beta in (0.0, 0.5, 1.0):
            profile = support.node_rows(build_profile(sol, beta=beta))
            for i in entry.graph.nonterminals:
                succ = entry.graph.successors[i]
                n = len(succ)
                w = profile.wagers[i]
                for pos, j in enumerate(succ):
                    g_ij = profile.guesser[i][pos]
                    if n == 1:
                        mult = 1.0 + w
                    else:
                        mult = g_ij * (1 + (n - 1) * w) + (1 - g_ij) * (1 - w)
                    want = scale * sol.values[i] / sol.values[j]
                    assert abs(mult - want) <= 1e-9 * max(1.0, want), (entry.name, beta)
