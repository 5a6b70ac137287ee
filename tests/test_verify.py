"""Verification oracles: certificates, brute-force brackets, audits."""

import json
import random

import numpy as np
import pytest

import support
from pathwager import (
    StrategyProfile,
    build_graph,
    build_profile,
    build_stopping_variant,
    build_window_game,
    classify,
    exploit_search,
    parse_graph,
    serialize_graph,
    solve,
)
from pathwager.cli import dispatch
from pathwager.simulate import _move_payoffs
from pathwager.values import build_propagation_matrix
import pathwager.values
import pathwager.verify
from pathwager.verify import (
    audit_convergence,
    brute_force_value,
    certify_graph,
)


def fan24():
    return build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 2, "b": 4})


def assert_fan_certified(g, sol, beta, name=None):
    """``certify_graph`` passes the fan at ``beta`` with no gain on either
    side, and every chooser move at the root earns the root's value."""
    cert = certify_graph(sol, betas=(beta,))
    assert cert.passed, (name, beta)
    assert cert.max_chooser_gain <= 1e-12, (name, beta)
    assert cert.max_guesser_gain <= 1e-12, (name, beta)
    root = g.nonterminals[0]  # the root owns every edge of a fan
    profile = build_profile(sol, beta=beta)
    leaves = np.array([g.values[j] for j in g.successors[root]])
    per_move = _move_payoffs(profile.guesser, float(profile.wagers[root]), leaves)
    assert np.abs(per_move - sol.values[root]).max() <= 1e-9, (name, beta)


def test_certify_fan_passes_at_optimum():
    g = fan24()
    sol = solve(g)
    for beta in (0.0, 0.5, 1.0):
        assert_fan_certified(g, sol, beta)


def test_certify_fan_flags_bad_wager():
    # right guess support, wrong wager: moving to the high-value leaf pays
    # only 4 * (1 - 0.9) = 0.4, far below the value
    g = fan24()
    bad = StrategyProfile(
        solve(g),
        beta=1.0,
        chooser=np.array([2 / 3, 1 / 3]),
        guesser=np.array([1.0, 0.0]),
        wagers=np.array([0.9, 0.0, 0.0]),
    )
    report = exploit_search(bad, fixed_side="guesser")
    assert report.gain > 2.0
    assert report.deviation[0] == g.index_of("b")
    assert abs(report.values[0] - 0.4) < 1e-12


def test_certify_fan_uniform_always_passes():
    g = build_graph(["r", "a", "b", "c"], [("r", x) for x in "abc"], {x: 5 for x in "abc"})
    sol = solve(g)
    for beta in (0.0, 0.3, 1.0):
        assert_fan_certified(g, sol, beta)


def test_certificates_on_corpus_fans(fan_corpus):
    for entry in fan_corpus:
        g = entry.graph
        sol = solve(g)
        for beta in (0.0, 0.5, 1.0):
            assert_fan_certified(g, sol, beta, entry.name)


def test_move_payoffs_sum_to_the_out_degree():
    # sum_j E[F | move j] / v_j = n for any guess mix and wager at n >= 2
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        g = rng.dirichlet(np.ones(n), size=50)
        w = rng.uniform(0.0, 1.0, size=(50, 1))
        cont = rng.uniform(0.25, 8.0, size=(50, n))
        totals = (_move_payoffs(g, w, cont) / cont).sum(axis=1)
        assert np.abs(totals - n).max() <= 1e-12 * n, n
        for k in range(3):  # one node at a time, with a scalar wager
            total = (_move_payoffs(g[k], float(w[k, 0]), cont[k]) / cont[k]).sum()
            assert abs(total - n) <= 1e-12 * n, n


def test_perturbation_sensitivity_on_fans(fan_corpus):
    for entry in fan_corpus:
        g = entry.graph
        root = g.nonterminals[0]
        leaf_values = [g.values[j] for j in g.successors[root]]
        if len(set(leaf_values)) < 2:
            continue
        sol = solve(g)
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


def test_brute_force_collapses_on_fans():
    bounds = brute_force_value(fan24(), depth_limit=5)
    assert abs(bounds.lower[0] - 8 / 3) < 1e-12
    assert abs(bounds.upper[0] - 8 / 3) < 1e-12
    assert bounds.converged


def test_brute_force_height_two_tree():
    g = build_graph(
        ["r", "x", "y", "a", "b", "c", "d"],
        [("r", "x"), ("r", "y"), ("x", "a"), ("x", "b"), ("y", "c"), ("y", "d")],
        {"a": 2, "b": 4, "c": 2, "d": 4},
    )
    bounds = brute_force_value(g, depth_limit=60)
    assert bounds.width < 1e-6
    assert bounds.lower[0] - 1e-12 <= 8 / 3 <= bounds.upper[0] + 1e-12


def test_brute_force_loop_graph_geometric():
    g = build_graph(["1", "t"], [("1", "1"), ("1", "t")], {"t": 1})
    bounds = brute_force_value(g, depth_limit=60)
    assert bounds.width < 1e-9
    assert bounds.lower[0] - 1e-12 <= 1.0 <= bounds.upper[0] + 1e-12


def test_brute_force_brackets_contain_engine_values(terminating_corpus):
    for entry in terminating_corpus:
        g = entry.graph
        if g.num_nodes > 8:
            continue
        sol = solve(g)
        bounds = brute_force_value(g, depth_limit=60)
        slack = 1e-9 * (1 + np.abs(sol.values).max())
        assert np.all(sol.values >= bounds.lower - slack), entry.name
        assert np.all(sol.values <= bounds.upper + slack), entry.name


def test_brute_force_requires_terminating():
    with pytest.raises(Exception):
        brute_force_value(build_window_game(2, 1))


def forced_move():
    return build_graph(["r", "m", "a", "b"], [("r", "m"), ("m", "a"), ("m", "b")],
                       {"a": 2, "b": 4})


@pytest.mark.parametrize("kwargs, message", [
    ({"depth_limit": 0}, "depth must be at least 1, got 0"),
    ({"depth_limit": -1}, "depth must be at least 1, got -1"),
])
def test_brute_force_rejects_empty_sweeps(kwargs, message):
    with pytest.raises(ValueError, match=message):
        brute_force_value(forced_move(), **kwargs)


def test_audit_convergence_fan_is_exact():
    cert = audit_convergence(solve(fan24()), steps=1)
    assert cert.passed
    assert cert.residual < 1e-15


def test_audit_convergence_window_game():
    cert = audit_convergence(solve(build_window_game(2, 1)), steps=200)
    assert cert.passed
    assert cert.residual < 1e-8
    positive = next(c for c in cert.checks if c.name == "limit_strictly_positive")
    assert positive.passed


def test_audit_convergence_stopping_variant_blocks():
    cert = audit_convergence(solve(build_stopping_variant(3)), steps=400)
    assert cert.passed
    block = next(c for c in cert.checks if c.name == "power_limit_absorbing")
    assert block.passed


def test_audit_convergence_across_corpus(corpus):
    for entry in corpus:
        cert = audit_convergence(solve(entry.graph), steps=400)
        assert cert.passed, (entry.name, cert.residual)


def test_certify_graph_composite(terminating_corpus, sc_corpus):
    for entry in terminating_corpus[:6] + sc_corpus[:3]:
        sol = solve(entry.graph)
        cert = certify_graph(sol, depth=40)
        assert cert.passed, entry.name
        doc = cert.to_dict()
        assert doc["passed"] and doc["checks"]


def test_certify_graph_reuses_the_solution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify_graph solved the graph again")

    assert not hasattr(pathwager.verify, "solve")
    solvers = ("solve", "solve_terminating", "solve_tree", "solve_strongly_connected")
    for g in (build_stopping_variant(4), build_window_game(3, 1)):
        sol = solve(g)
        with monkeypatch.context() as patch:
            for name in solvers:
                patch.setattr(pathwager.values, name, refuse)
            assert certify_graph(sol).passed


def test_traced_audit_is_a_span_inside_certify_graph():
    # the benchmark's tracer rebinds public names; verify.audit_s must see the audit
    spans = support.bench_module("spans")
    graphs = [build_stopping_variant(6), build_window_game(3, 1)]
    solutions = [solve(g) for g in graphs]
    tracer = spans.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        for sol in solutions:
            assert pathwager.verify.certify_graph(sol).passed
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics(since)["verify.audit_s"][0] > 0
    by_id = {span[0]: span for span in tracer.spans}
    audits = [span for span in tracer.spans if span[1] == "verify.audit_convergence"]
    assert len(audits) == len(graphs)
    assert all(by_id[span[4]][1] == "verify.certify_graph" for span in audits)


def test_certify_graph_builds_one_profile_per_beta(monkeypatch):
    g = build_stopping_variant(6)
    sol = solve(g)
    betas = []

    def counting(solution, beta=1.0):
        betas.append(beta)
        return build_profile(solution, beta=beta)

    monkeypatch.setattr(pathwager.verify, "build_profile", counting)
    cert = certify_graph(sol, betas=(0.0, 0.5, 1.0))
    assert betas == [0.0, 0.5, 1.0] and cert.passed
    deviations = [c for c in cert.checks if c.name.startswith("no_profitable_deviation")]
    assert [c.detail["converged"] for c in deviations] == [True] * 3


@pytest.mark.parametrize("betas", [(0.0, 0.5, 1.0), (1.0,), (0.25, 0.75)])
def test_certify_graph_runs_the_guesser_search_once(monkeypatch, betas):
    # the chooser's mix is the same at every beta, so the search against it
    # runs once and its report serves every beta's check
    g = build_stopping_variant(6)
    sol = solve(g)
    sides = []

    def counting(profile, fixed_side):
        sides.append(fixed_side)
        return exploit_search(profile, fixed_side=fixed_side)

    monkeypatch.setattr(pathwager.verify, "exploit_search", counting)
    cert = certify_graph(sol, betas=betas)
    assert sorted(sides) == ["chooser"] + ["guesser"] * len(betas) and cert.passed
    for beta, check in zip(betas, cert.checks[1:]):
        per_beta = exploit_search(build_profile(sol, beta=beta), fixed_side="chooser")
        assert check.detail["guesser_gain"] == per_beta.gain and per_beta.converged


@pytest.mark.parametrize("stuck", ["guesser", "chooser"])
def test_certify_graph_fails_an_unconverged_search(monkeypatch, stuck):
    g = build_stopping_variant(6)
    sol = solve(g)

    def unconverged(profile, fixed_side):
        report = exploit_search(profile, fixed_side=fixed_side)
        assert report.converged and report.gain <= 1e-9
        report.converged = fixed_side != stuck
        return report

    monkeypatch.setattr(pathwager.verify, "exploit_search", unconverged)
    cert = certify_graph(sol, betas=(0.5,))
    check = next(c for c in cert.checks if c.name == "no_profitable_deviation_beta_0.5")
    assert not check.passed and check.detail["converged"] is False
    assert not cert.passed and cert.max_chooser_gain <= 1e-9 and cert.max_guesser_gain <= 1e-9


def dense_propagation(graph):
    """M assembled from the successor lists: 1 on terminals, 1/2 on a forced
    move, 1/n_i on each of n_i >= 2 moves."""
    n = graph.num_nodes
    m = np.zeros((n, n))
    for i in range(n):
        succ = list(graph.successors[i])
        if not succ:
            m[i, i] = 1.0
        else:
            m[i, succ] += 0.5 if len(succ) == 1 else 1.0 / len(succ)
    return m


def sequential_audit_residual(graph, solution, steps=400):
    """max |M^s - limit| (r^{-s} M^s on strongly connected graphs) by s
    sequential products, with the limit of the paper's limit theory."""
    m = dense_propagation(graph)
    n = graph.num_nodes
    if solution.spectral is None:
        nt, t = list(graph.nonterminals), list(graph.terminals)
        limit = np.zeros((n, n))
        limit[t, t] = 1.0
        if nt:
            limit[np.ix_(nt, t)] = np.linalg.solve(
                np.eye(len(nt)) - m[np.ix_(nt, nt)], m[np.ix_(nt, t)]
            )
        scale = 1.0
    else:
        x, y = solution.spectral.right_vec, solution.spectral.left_vec
        limit = np.outer(x, y) / (x @ y)
        scale = solution.spectral.radius
    power = np.eye(n)
    for _ in range(steps):
        power = (power @ m) / scale
    return float(np.abs(power - limit).max())


def test_squared_audit_matches_sequential_products(corpus):
    graphs = [(entry.name, entry.graph) for entry in corpus]
    graphs += [("window:12,3", build_window_game(12, 3)),
               ("window-stop:20", build_stopping_variant(20))]
    for name, g in graphs:
        sol = solve(g)
        cert = audit_convergence(sol, 400)
        reference = sequential_audit_residual(g, sol)
        assert abs(cert.residual - reference) <= 1e-12, (name, cert.residual, reference)
        assert cert.passed == (reference <= pathwager.verify.RESIDUAL_TOL), name


def test_audit_still_fails_the_one_lie_window_of_thirty():
    cert = audit_convergence(solve(build_window_game(30, 1)))
    assert not cert.passed
    assert abs(cert.residual - 7.645e-6) <= 0.01 * 7.645e-6
    scaled = next(c for c in cert.checks if c.name == "scaled_power_limit")
    assert not scaled.passed


def test_audit_still_fails_a_slowly_absorbing_ring():
    # each ring node moves one or two steps on; only r0 may also exit
    g = support.slow_ring(32)
    nt = list(g.nonterminals)
    transient = dense_propagation(g)[np.ix_(nt, nt)]
    assert np.abs(np.linalg.eigvals(transient)).max() >= 0.96
    cert = audit_convergence(solve(g))
    assert not cert.passed
    failed = {c.name for c in cert.checks if not c.passed}
    assert failed == {"power_limit_absorbing"}


def test_audit_rejects_negative_steps():
    with pytest.raises(ValueError):
        audit_convergence(solve(fan24()), steps=-1)
    with pytest.raises(ValueError):
        audit_convergence(solve(build_window_game(3, 1)), -1)


def test_audit_with_zero_steps_compares_the_identity():
    cert = audit_convergence(solve(fan24()), steps=0)
    assert not cert.passed
    assert cert.residual == 1.0


def audit_graphs(corpus):
    """The corpus, the stopping windows, the benchmark's trees and random
    terminating graphs, the slow ring and one multi-lie window."""
    bench = support.bench_module("workloads")
    rng = random.Random(17)
    graphs = [(e.name, e.graph) for e in corpus]
    graphs += [(f"window-stop:{n}", build_stopping_variant(n)) for n in range(5, 61)]
    graphs += [(f"tree{n}", parse_graph(json.dumps(bench.tree_doc(rng, n)))) for n in (200, 400)]
    graphs += [(f"term{n}", parse_graph(json.dumps(bench.terminating_doc(rng, n - n // 20, n // 20))))
               for n in (100, 200, 300)]
    return graphs + [("slow_ring", support.slow_ring(32)), ("window:12,3", build_window_game(12, 3))]


def count_products(monkeypatch):
    """Record the audit's products over the edge table, one entry each."""
    products = []

    def counted(graph):
        matvec, rmatvec = build(graph)

        def counted_matvec(x):
            products.append(1)
            return matvec(x)

        return counted_matvec, rmatvec

    build = pathwager.verify._products
    monkeypatch.setattr(pathwager.verify, "_products", counted)
    return products


def dense_transient_norm(g, steps):
    """||A^steps 1||_inf for the dense transient block A, by repeated squaring."""
    nt = list(g.nonterminals)
    a = build_propagation_matrix(g).matrix[np.ix_(nt, nt)]
    return float((support.matrix_power(a, steps) @ np.ones(len(nt))).max(initial=0.0))


def test_block_audit_matches_the_full_matrix_power(corpus, monkeypatch):
    negligible = pathwager.verify.RESIDUAL_TOL * 2.0**-52
    for name, g in audit_graphs(corpus):
        sol = solve(g)
        for steps in (0, 1, 400):
            products = count_products(monkeypatch)
            cert = audit_convergence(sol, steps)
            monkeypatch.undo()
            ref = support.dense_audit(sol, steps)
            assert [(c.name, c.passed) for c in cert.checks] == \
                [(c.name, c.passed) for c in ref.checks], (name, steps)
            if sol.spectral is not None:
                assert cert.residual == ref.residual, (name, steps)
                continue
            # both terms of the dense residual are at most ||A^s 1||_inf, which the audit bounds
            norm = dense_transient_norm(g, steps)
            assert cert.residual >= norm, (name, steps)
            if g.nonterminals:  # the figure also bounds the dense A^s's largest entry, with its verdict
                dense_max = ref.checks[0].detail["transient_max_entry"]
                assert cert.checks[0].detail["residual"] == cert.residual >= dense_max, name
                assert cert.passed == (dense_max <= pathwager.verify.RESIDUAL_TOL), name
            if len(products) == steps:  # the figure is max(A^s 1) times its rounding allowance
                terms = max(map(len, g.successors)) + 1
                allowance = (1 + terms * 2.0**-53 / (1 - terms * 2.0**-53)) ** steps
                assert abs(cert.residual / allowance - norm) <= 1e-13 * norm, (name, steps)
            else:
                assert len(products) < steps and cert.residual <= negligible, (name, steps)


def tree_depth(g):
    """Edges on the longest path of an acyclic graph, whose components are single nodes, sinks first."""
    depth = [0] * g.num_nodes
    for (i,) in g.components:
        depth[i] = max((depth[j] + 1 for j in g.successors[i]), default=0)
    return max(depth)


def test_terminating_audit_stops_within_a_tree_depth(corpus, monkeypatch):
    # a tree's A^k 1 is zero once k reaches its depth, which stops the products there
    for name, g in audit_graphs(corpus):
        if not classify(g).is_tree:
            continue
        sol = solve(g)
        depth = tree_depth(g)
        for steps in (1, 2, 3, 5, 64, 400, 401, 1023):
            products = count_products(monkeypatch)
            cert = audit_convergence(sol, steps)
            monkeypatch.undo()
            assert len(products) <= min(steps, depth), (name, steps, len(products), depth)
            if steps >= depth:
                assert cert.passed, (name, steps)


def test_audit_of_a_graph_without_moves_passes(capsys, tmp_path):
    g = parse_graph('{"nodes":["t"],"edges":[],"values":{"t":2}}')
    for steps in (0, 1, 400):
        cert = audit_convergence(solve(g), steps=steps)
        assert cert.passed and cert.residual == 0.0
        assert [c.name for c in cert.checks] == ["power_limit_absorbing"]
    path = tmp_path / "t.json"
    path.write_text('{"nodes":["t"],"edges":[],"values":{"t":2}}')
    assert dispatch(["verify", "--graph", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_audit_over_its_memory_budget_fails_without_building_arrays(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the audit built its arrays over the budget")

    assert 4 * 495 ** 2 * 8 <= pathwager.verify.AUDIT_BUDGET_BYTES  # window:12,4 is audited
    g = build_window_game(3, 1)
    needed = 4 * g.num_nodes ** 2 * 8
    with monkeypatch.context() as patch:
        patch.setattr(pathwager.verify, "AUDIT_BUDGET_BYTES", needed)
        assert audit_convergence(solve(g), 400).passed
        patch.setattr(pathwager.verify, "AUDIT_BUDGET_BYTES", needed - 1)
        patch.setattr(pathwager.verify, "_matrix_power", refuse)
        patch.setattr(pathwager.verify, "build_propagation_matrix", refuse)
        cert = certify_graph(solve(g))
        check = cert.checks[0]
        assert check.name == "power_audit_not_run" and not check.passed
        assert check.detail == {"bytes_needed": needed, "budget_bytes": needed - 1}
        assert not cert.passed
        path = tmp_path / "g.json"
        path.write_text(serialize_graph(g))
        assert dispatch(["verify", "--graph", str(path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["checks"][0] == {"name": "power_audit_not_run", "passed": False,
                                    "bytes_needed": needed, "budget_bytes": needed - 1}
    # the terminating audit holds no N x N array, so no budget applies to it
    g = build_stopping_variant(6)
    with monkeypatch.context() as patch:
        patch.setattr(pathwager.verify, "AUDIT_BUDGET_BYTES", 1)
        patch.setattr(pathwager.verify, "_matrix_power", refuse)
        patch.setattr(pathwager.verify, "build_propagation_matrix", refuse)
        cert = certify_graph(solve(g))
        assert cert.passed
        assert [c.name for c in cert.checks[:2]] == ["power_limit_absorbing",
                                                     "no_profitable_deviation_beta_0"]
        path.write_text(serialize_graph(g))
        assert dispatch(["verify", "--graph", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_audits_a_tree_too_large_for_dense_arrays(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the terminating audit built a dense array")

    doc = support.bench_module("workloads").tree_doc(random.Random(5), 6000)
    g = parse_graph(json.dumps(doc))
    assert len(g.nonterminals) == 3098
    assert 4 * 6000 ** 2 * 8 > pathwager.verify.AUDIT_BUDGET_BYTES
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(pathwager.verify, "_matrix_power", refuse)
    monkeypatch.setattr(pathwager.verify, "build_propagation_matrix", refuse)
    assert dispatch(["verify", "--graph", str(path)]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["power_limit_absorbing"]["passed"]
    assert "transient_block_vanishes" not in checks  # power_limit_absorbing carries its bound


def test_bracket_reports_whether_it_closed(terminating_corpus):
    # term_13 has 4 nodes and self-loops; its bracket is 7.3e-3 wide after 60 sweeps
    g = next(e.graph for e in terminating_corpus if e.name == "term_13")
    assert g.num_nodes <= 8 and any(map(g.is_cyclic, g.components))
    cert = certify_graph(solve(g), depth=60)
    check = next(c for c in cert.checks
                 if c.name == "backward_induction_brackets_contain_values")
    assert check.detail["converged"] is False and check.detail["max_width"] > 1e-3
    assert check.passed and cert.passed
    check = next(c for c in certify_graph(solve(fan24())).checks
                 if c.name == "backward_induction_brackets_contain_values")
    assert check.detail["converged"] is True


def reference_graphs(terminating_corpus):
    graphs = [(e.name, e.graph) for e in terminating_corpus if e.graph.nonterminals]
    return graphs + [(f"window-stop:{n}", build_stopping_variant(n)) for n in range(5, 61)]


def test_exact_best_replies_match_the_wager_grid(terminating_corpus):
    for name, g in reference_graphs(terminating_corpus):
        sol = solve(g)
        for beta in (0.0, 0.5, 1.0):
            for side in ("chooser", "guesser"):
                profile = build_profile(sol, beta=beta)
                report = exploit_search(profile, fixed_side=side)
                values, gain, converged = support.grid_exploit_search(sol, side, beta)
                where = (name, beta, side)
                assert np.all(np.abs(report.values - values) <= 1e-15 * np.abs(values)), where
                assert abs(report.gain - gain) <= 1e-13, where
                assert report.converged == converged, where


def test_all_in_lower_sweep_matches_the_wager_grid(terminating_corpus):
    for name, g in reference_graphs(terminating_corpus):
        bounds = brute_force_value(g)
        lower, upper, converged = support.grid_brute_force_value(g)
        # normwise: on unconverged graphs the grid's max over its wagers
        # rounds up, sweep after sweep, and entries drift apart by 1.3e-15
        assert np.abs(bounds.lower - lower).max() <= 1e-15 * lower.max(), name
        assert np.array_equal(bounds.upper, upper), name
        if bounds.converged != converged:
            # the all-in sweep can settle a few sweeps before the grid's max,
            # which wiggles in the last bit (window-stop:13: sweep 60 against 63)
            assert bounds.converged, name
            assert support.grid_brute_force_value(g, depth_limit=70)[2], name


def four_ary_tree(size):
    """Node k's parent is (k - 1) // 4; leaves are worth 1 to 4."""
    labels = [f"n{k}" for k in range(size)]
    edges = [(labels[(k - 1) // 4], labels[k]) for k in range(1, size)]
    inner = {(k - 1) // 4 for k in range(1, size)}
    values = {labels[k]: 1 + k % 4 for k in range(size) if k not in inner}
    return build_graph(labels, edges, values)


@pytest.mark.parametrize("size", [143, 200])
def test_brute_force_refuses_an_anchor_that_overflows(size):
    # N^N * v_max: 143^143 * 4 is past the largest double, 200^200 far past it
    with pytest.raises(ValueError, match=f"not finite at N = {size}"):
        brute_force_value(four_ary_tree(size), depth_limit=2)
