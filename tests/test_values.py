"""Value engine: closed forms, linear solves, spectral solves, truncation."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

import pathwager.verify
import support
from pathwager import values
from pathwager.oracle import parse_oracle_spec
from pathwager import (
    GraphKind,
    UnsupportedGraphError,
    build_graph,
    build_propagation_matrix,
    build_stopping_variant,
    build_window_game,
    classify,
    build_profile,
    solve,
    solve_strongly_connected,
    solve_terminating,
    solve_tree,
    stopping_analysis,
)
from pathwager.values import _truncation_series

PHI = (1 + math.sqrt(5)) / 2


def lam_root(n: int) -> float:
    """Independent root of x^n - x^(n-1) - 1 on [1, 2]."""
    return scipy.optimize.brentq(lambda x: x**n - x ** (n - 1) - 1, 1.0, 2.0, xtol=1e-15)


def fan_graph(leaf_values):
    leaves = [f"leaf{k}" for k in range(len(leaf_values))]
    return build_graph(["root", *leaves], [("root", lab) for lab in leaves],
                       dict(zip(leaves, leaf_values)))


def fan_root_and_mix(leaf_values, exact=False):
    """The root value, and the chooser's mix as a tuple, of a solved fan."""
    g = fan_graph(leaf_values)
    sol = solve(g, exact=exact)
    if exact:
        recips = [1 / v for v in sol.exact_values[1:]]
        return sol.exact_values[0], tuple(r / sum(recips) for r in recips)
    return sol.values[0], tuple(build_profile(sol).chooser.tolist())


def test_solve_fan_closed_forms():
    root, probs = fan_root_and_mix([2, 4])
    assert abs(root - 8 / 3) < 1e-15
    assert abs(probs[0] - 2 / 3) < 1e-15 and abs(probs[1] - 1 / 3) < 1e-15

    root, probs = fan_root_and_mix([5])
    assert root == 10.0 and probs == (1.0,)

    root, probs = fan_root_and_mix([3.5] * 4)
    assert abs(root - 3.5) < 1e-12
    assert all(abs(p - 0.25) < 1e-15 for p in probs)


def test_solve_fan_exact():
    root, probs = fan_root_and_mix([2, 4], exact=True)
    assert root == Fraction(8, 3)
    assert probs == (Fraction(2, 3), Fraction(1, 3))


def test_solve_fan_rejects_bad_input():
    with pytest.raises(ValueError):
        fan_graph([])  # the leafless root is a terminal without a value
    with pytest.raises(ValueError):
        fan_graph([1, -2])


def test_solve_tree_chain_doubles():
    g = build_graph(["root", "mid", "leaf"], [("root", "mid"), ("mid", "leaf")], {"leaf": 1})
    sol = solve_tree(g)
    assert np.allclose(sol.values, [4.0, 2.0, 1.0])


def test_solve_tree_height_two():
    # two branches, each a (2, 4) fan: inner values 8/3, root 8/3
    g = build_graph(
        ["r", "x", "y", "a", "b", "c", "d"],
        [("r", "x"), ("r", "y"), ("x", "a"), ("x", "b"), ("y", "c"), ("y", "d")],
        {"a": 2, "b": 4, "c": 2, "d": 4},
    )
    sol = solve_tree(g, exact=True)
    assert sol.exact_values[0] == Fraction(8, 3)
    assert sol.exact_values[1] == Fraction(8, 3)
    assert sol.exact_values[2] == Fraction(8, 3)


def test_solve_tree_matches_solve_fan():
    g = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 2, "b": 4})
    tree = solve_tree(g)
    fan_root, _ = fan_root_and_mix([2, 4])
    assert tree.values[0] == fan_root == 2 / (1 / 2 + 1 / 4)  # the harmonic mean

    # single-leaf fan: sure bet doubles the leaf value
    g1 = build_graph(["root", "a"], [("root", "a")], {"a": 5})
    assert classify(g1).kind is GraphKind.FAN
    assert solve_tree(g1).values[0] == fan_root_and_mix([5])[0] == 10.0


def _dense_absorbing_values(g):
    """Reference values from (I - A) u_nt = B u_t, assembled here from the edges."""
    nt, t = list(g.nonterminals), list(g.terminals)
    pos = {i: k for k, i in enumerate(nt)}
    a = np.zeros((len(nt), len(nt)))
    b = np.zeros((len(nt), g.num_nodes))
    for i in nt:
        succ = g.successors[i]
        for j in succ:
            w = 0.5 if len(succ) == 1 else 1.0 / len(succ)
            if j in pos:
                a[pos[i], pos[j]] = w
            else:
                b[pos[i], j] = w
    u = np.zeros(g.num_nodes)
    u[t] = [1.0 / g.values[k] for k in t]
    u[nt] = np.linalg.solve(np.eye(len(nt)) - a, b @ u)
    return 1.0 / u


def test_tree_and_terminating_agree(terminating_corpus):
    for entry in terminating_corpus:
        ref = _dense_absorbing_values(entry.graph)
        solvers = [solve_terminating]
        if classify(entry.graph).is_tree:
            solvers.append(solve_tree)
        for solver in solvers:
            got = solver(entry.graph).values
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12, (entry.name, solver)


def test_long_chain_solves_without_recursion():
    # node i moves to i + 1 or exits (value 2); the chain ends at a value-1 leaf
    n = 20_000
    labels = [str(i) for i in range(n)] + ["exit"]
    chain = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    g = build_graph(labels, chain + [(labels[i], "exit") for i in range(n - 1)],
                    {labels[n - 1]: 1, "exit": 2})
    assert classify(g).kind is GraphKind.TERMINATING
    assert len(g.components) == n + 1
    sol = solve(g)
    # u_i - 1/2 halves at every step back from the leaf
    expected = 0.5 + 0.5 * 0.5 ** np.arange(n - 1, -1, -1.0)
    assert np.abs(sol.reciprocals[:n] - expected).max() <= 1e-15

    tree = build_graph(labels[:n], chain, {labels[n - 1]: 1})
    assert classify(tree).kind is GraphKind.TREE
    assert len(tree.components) == n


def test_exact_mode_on_a_diamond_dag():
    # s -> {a, b}, a -> {c, t1}, b -> c, c -> t2: not a tree (c has two parents)
    g = build_graph(
        ["s", "a", "b", "c", "t1", "t2"],
        [("s", "a"), ("s", "b"), ("a", "c"), ("a", "t1"), ("b", "c"), ("c", "t2")],
        {"t1": [1, 3], "t2": 5},
    )
    assert classify(g).kind is GraphKind.TERMINATING
    sol = solve(g, exact=True)
    u = [1 / v for v in sol.exact_values]
    assert all(isinstance(x, Fraction) for x in u)
    for i in g.nonterminals:
        succ = g.successors[i]
        if len(succ) == 1:
            assert u[i] == u[succ[0]] / 2
        else:
            assert u[i] == sum((u[j] for j in succ), Fraction(0)) / len(succ)
    # u_c = 1/10, u_b = 1/20, u_a = (1/10 + 3)/2 = 31/20, u_s = (31/20 + 1/20)/2 = 4/5
    assert sol.exact_values[0] == Fraction(5, 4)
    assert np.allclose(sol.values, _dense_absorbing_values(g), rtol=1e-12, atol=0)

    loop = build_graph(["1", "t"], [("1", "1"), ("1", "t")], {"t": 1})
    with pytest.raises(UnsupportedGraphError):
        solve(loop, exact=True)


def test_exact_tree_requires_exact_values():
    g = build_graph(["r", "a"], [("r", "a")], {"a": 1.5})
    with pytest.raises(UnsupportedGraphError):
        solve_tree(g, exact=True)


def test_propagation_matrix_shapes():
    # cycle 1->2->3->1 with loop at 1: every row is half an adjacency row
    g = build_graph(["1", "2", "3"], [("1", "1"), ("1", "2"), ("2", "3"), ("3", "1")], {})
    m = build_propagation_matrix(g).matrix
    a = np.array([[1, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert np.array_equal(m, a / 2)

    fan = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 1, "b": 1})
    prop = build_propagation_matrix(fan)
    assert np.array_equal(prop.matrix[0], [0, 0.5, 0.5])
    assert np.array_equal(prop.matrix[1], [0, 1, 0])
    nt, t = fan.nonterminals, fan.terminals
    assert prop.matrix[np.ix_(nt, nt)].shape == (1, 1)
    assert prop.matrix[np.ix_(nt, t)].shape == (1, 2)

    chain = build_graph(["r", "t"], [("r", "t")], {"t": 1})
    assert build_propagation_matrix(chain).matrix[0, 1] == 0.5


def test_propagation_partition_structure(terminating_corpus):
    # after permuting nodes to (non-terminal, terminal) order the matrix is
    # [[A, B], [0, I]]
    for entry in terminating_corpus:
        full = build_propagation_matrix(entry.graph).matrix
        nt, t = entry.graph.nonterminals, entry.graph.terminals
        order = list(nt) + list(t)
        m = full[np.ix_(order, order)]
        k = len(nt)
        assert np.array_equal(m[:k, :k], full[np.ix_(nt, nt)]), entry.name
        assert np.array_equal(m[:k, k:], full[np.ix_(nt, t)]), entry.name
        assert np.all(m[k:, :k] == 0), entry.name
        assert np.array_equal(m[k:, k:], np.eye(len(t))), entry.name


def test_exact_tree_satisfies_eigen_identity_in_rationals():
    from fractions import Fraction

    g = build_graph(
        ["r", "x", "y", "a", "b", "c"],
        [("r", "x"), ("r", "y"), ("x", "a"), ("x", "b"), ("y", "c")],
        {"a": [1, 2], "b": 3, "c": [8, 3]},
    )
    sol = solve_tree(g, exact=True)
    u = [1 / v for v in sol.exact_values]
    for i in range(g.num_nodes):
        succ = g.successors[i]
        if not succ:
            continue
        if len(succ) == 1:
            assert u[i] == u[succ[0]] / 2
        else:
            assert u[i] == sum((u[j] for j in succ), Fraction(0)) / len(succ)
        assert sol.exact_values[i] * u[i] == 1


def test_propagation_row_sums(corpus):
    for entry in corpus:
        prop = build_propagation_matrix(entry.graph)
        sums = prop.matrix.sum(axis=1)
        assert np.all(sums >= 0.5 - 1e-15) and np.all(sums <= 1.0 + 1e-15), entry.name
        for k in entry.graph.terminals:
            assert sums[k] == 1.0


def test_transient_block_is_substochastic_power(terminating_corpus):
    # some power of A sends the all-ones vector strictly below 1
    for entry in terminating_corpus:
        nt = entry.graph.nonterminals
        if not nt:
            continue
        a = build_propagation_matrix(entry.graph).matrix[np.ix_(nt, nt)]
        vec = np.ones(len(nt))
        ok = False
        for _ in range(entry.graph.num_nodes):
            vec = a @ vec
            if vec.max() < 1.0:
                ok = True
                break
        assert ok, entry.name


def test_solve_terminating_hand_cases():
    fan = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 1, "b": 1})
    assert abs(solve_terminating(fan).values[0] - 1.0) < 1e-14

    loop = build_graph(["1", "t"], [("1", "1"), ("1", "t")], {"t": 1})
    # u_1 = u_1/2 + 1/2  =>  v_1 = 1
    assert abs(solve_terminating(loop).values[0] - 1.0) < 1e-14


def test_terminating_eigen_identity(terminating_corpus):
    for entry in terminating_corpus:
        sol = solve_terminating(entry.graph)
        m = build_propagation_matrix(entry.graph).matrix
        assert np.abs(m @ sol.reciprocals - sol.reciprocals).max() <= 1e-10, entry.name
        assert np.all(sol.values > 0)
        for k in entry.graph.terminals:
            assert sol.values[k] == entry.graph.values[k]


def test_terminating_scaling_linearity(terminating_corpus):
    for entry in terminating_corpus[:10]:
        g = entry.graph
        scaled = build_graph(
            g.labels,
            [(g.labels[i], g.labels[j]) for i, j in g.edges()],
            {g.labels[i]: 3.0 * g.values[i] for i in g.values},
        )
        base = solve_terminating(g).values
        tripled = solve_terminating(scaled).values
        assert np.max(np.abs(tripled - 3.0 * base)) <= 1e-10 * np.max(tripled), entry.name


def test_solve_strongly_connected_stochastic_case():
    g = build_graph(
        ["p", "q", "r"],
        [("p", "q"), ("p", "r"), ("q", "p"), ("q", "r"), ("r", "p"), ("r", "q")], {})
    sol = solve_strongly_connected(g)
    assert abs(sol.spectral.radius - 1.0) <= 1e-12
    assert np.abs(sol.reciprocals - 1.0).max() <= 1e-12


def test_solve_strongly_connected_window_roots():
    for n in (2, 3):
        g = build_window_game(n, 1)
        sol = solve_strongly_connected(g)
        assert abs(sol.spectral.radius - lam_root(n) / 2) < 1e-12
    assert abs(lam_root(2) - PHI) < 1e-12
    assert abs(lam_root(3) - 1.4655712318767682) < 1e-10


ONE_LIE_WINDOWS = (16, 30, 60, 200)


@pytest.mark.parametrize("n", ONE_LIE_WINDOWS)
def test_one_lie_window_radius_matches_closed_form(n):
    # |lambda_2| / r reaches 0.9976 at n = 200, the slowest mixing these solves meet
    sol = solve_strongly_connected(build_window_game(n, 1))
    assert abs(sol.spectral.radius - lam_root(n) / 2) <= 2e-12


def _exact_ratio_bracket(graph, x):
    """min and max over i of (Mx)_i / x_i in exact rationals; every float is a binary rational."""
    xs = [Fraction(v) for v in x.tolist()]
    ratios = [
        Fraction(1, 2 if len(succ) == 1 else len(succ)) * sum(xs[j] for j in succ) / xs[i]
        for i, succ in enumerate(graph.successors)
    ]
    return min(ratios), max(ratios)


def _renewal_sign(n, lam):
    """Sign of p(lam) = lam^n - lam^(n-1) - 1, negative below the one positive root and positive above."""
    p = lam**n - lam ** (n - 1) - 1
    return (p > 0) - (p < 0)


@pytest.mark.parametrize("n", ONE_LIE_WINDOWS)
def test_collatz_wielandt_bracket_holds_the_radius(n):
    # min_i (Mx)_i / x_i <= r <= max_i (Mx)_i / x_i for any positive x
    # (Meyer, Matrix Analysis, 8.3), evaluated exactly over the edges, and
    # r = lambda / 2 at the root of lambda^n - lambda^(n-1) - 1; the sign test
    # needs neither a reference solver nor a rounding allowance
    g = build_window_game(n, 1)
    sol = solve_strongly_connected(g)
    lo, hi = _exact_ratio_bracket(g, sol.spectral.right_vec)
    assert _renewal_sign(n, 2 * lo) <= 0 <= _renewal_sign(n, 2 * hi)
    assert hi - lo <= 4e-12


@pytest.mark.parametrize("n", [2, 3, 16, 200, 1600])
def test_slow_mixing_one_lie_windows_solve_to_rounding(n):
    # |lambda_2| / r reaches 0.998 here, where power iteration stops with a bracket 2.5e-12 wide (n = 200)
    g = build_window_game(n, 1)
    assert g.successors == ((0, 1),) + tuple((i + 1,) for i in range(1, n - 1)) + ((0,),)
    start = time.perf_counter()
    sol = solve_strongly_connected(g)
    elapsed = time.perf_counter() - start
    r = sol.spectral.radius
    x, y = sol.spectral.right_vec, sol.spectral.left_vec
    lo, hi = _exact_ratio_bracket(g, x)
    assert _renewal_sign(n, 2 * lo) <= 0 <= _renewal_sign(n, 2 * hi)
    assert hi - lo <= 1e-15
    matvec, rmatvec = values._products(g)
    assert np.abs(matvec(x) - r * x).max() <= 1e-15
    assert np.abs(rmatvec(y) - r * y).max() <= 1e-15
    assert elapsed < 0.1


@pytest.mark.parametrize("n", [2, 3, 8, 60])
def test_cycle_heads_find_the_start_state_of_one_lie_windows(n):
    g = build_window_game(n, 1)
    heads, order = g.search.heads, g.search.order
    assert heads == (g.index_of("1"),)
    assert sorted(order) == list(range(n))


def test_cycle_heads_find_the_start_state_under_relabelling():
    g = build_window_game(200, 1)
    order = random.Random(12).sample(range(200), 200)
    relabelled = build_graph(
        [g.labels[i] for i in order], [(g.labels[i], g.labels[j]) for i, j in g.edges()], {})
    assert relabelled.index_of("1") != 0
    assert relabelled.search.heads == (relabelled.index_of("1"),)


@pytest.mark.parametrize("spec", ["window:5,2", "window:12,3"])
def test_cycle_heads_find_several_on_multi_lie_windows(spec):
    assert len(parse_oracle_spec(spec).build().search.heads) >= 2


def test_renewal_path_matches_power_iteration(sc_corpus):
    renewal = 0
    for entry in sc_corpus:
        if len(entry.graph.search.heads) != 1:
            continue
        renewal += 1
        g = entry.graph
        matvec, rmatvec = values._products(g)
        x = values._power_iteration(matvec, g.num_nodes)
        y = values._power_iteration(rmatvec, g.num_nodes)
        r = y @ matvec(x) / (y @ x)
        u = x * (y.sum() / (x @ y))
        sol = solve_strongly_connected(entry.graph)
        assert abs(sol.spectral.radius - min(r, 1.0)) <= 1e-12, entry.name
        assert np.abs(sol.reciprocals / u - 1).max() <= 1e-9, entry.name
    assert renewal == 10


@pytest.mark.parametrize("spec", ["window:12,3", "window:16,4"])
def test_power_iteration_r_lies_in_the_exact_count_bracket(spec):
    # the brackets are 5.6e-23 and 4.1e-17 wide, narrower than one ulp of r,
    # so no float lies strictly inside; each side is widened by one spacing
    g = parse_oracle_spec(spec).build()
    assert len(g.search.heads) > 1  # the power-iteration branch
    r = solve_strongly_connected(g).spectral.radius
    lo, hi = support.count_bracket(g)
    assert lo - Fraction(np.spacing(r)) <= Fraction(r) <= hi + Fraction(np.spacing(r))


@pytest.mark.parametrize("k", [300, 2000])
def test_renewal_solve_converges_on_a_deep_ladder(k):
    # i -> {i+1, i+2}, wrapping to the looped start 0: s(1/2) grows like the k-th
    # Fibonacci number.  Plain Newton in r needs more than 100 steps at k = 300, and at
    # k = 2000 the walk at r = 1/2 overflows, so r first bisects towards the root
    labels = [str(i) for i in range(k)]
    edges = {("0", "0")} | {(str(i), str(j if j < k else 0)) for i in range(k) for j in (i + 1, i + 2)}
    g = build_graph(labels, sorted(edges), {})
    assert g.search.heads == (0,)
    sol = solve_strongly_connected(g)
    r, x = sol.spectral.radius, sol.spectral.right_vec
    lo, hi = _exact_ratio_bracket(g, x)
    assert lo <= r <= hi
    assert hi - lo <= 1e-12
    assert np.abs(values._products(g)[0](x) - r * x).max() <= 1e-15


def test_renewal_solve_of_a_stochastic_operator():
    # no game graph with one feedback vertex is stochastic: the last node
    # before f has out-degree 1 and row sum 1/2; so weights are set by hand
    offsets, targets = np.array([0, 3, 5, 6]), np.array([0, 1, 2, 0, 2, 0])
    weights = np.array([1 / 3, 1 / 3, 1 / 3, 0.5, 0.5, 1.0])
    r, x, y = values._renewal_solve(offsets, targets, weights, 0, [2, 1])
    u = x * (y.sum() / (x @ y))
    assert r == 1.0
    assert np.abs(u - 1.0).max() <= 1e-15


def _per_product_power_iteration(product, n):
    """The same acceptance tests as ``values._power_iteration``, after every product."""
    x = np.ones(n) / n
    y = product(x)
    r = float(x @ y / (x @ x))
    best, since_improvement = np.inf, 0
    for _ in range(values._MAX_POWER_ITERATIONS):
        x_new = y / np.abs(y).sum()
        y = product(x_new)
        r_new = float(x_new @ y / (x_new @ x_new))
        drift = float(np.abs(x_new - x).sum())
        residual = float(np.abs(y - r_new * x_new).max())
        x, r_prev, r = x_new, r, r_new
        if residual < best:
            best, since_improvement = residual, 0
        else:
            since_improvement += 1
        settled = (abs(r - r_prev) <= values._EIGENVALUE_RTOL * abs(r)
                   and drift <= values._EIGENVECTOR_TOL)
        if settled and (residual <= values._RESIDUAL_TOL
                        or since_improvement >= values._STAGNATION_WINDOW):
            return
    raise AssertionError("the per-product reference did not converge")


@pytest.mark.parametrize("spec", ["window:60,1", "window:16,4"])
def test_blocked_power_iteration_costs_few_extra_products(spec):
    g = parse_oracle_spec(spec).build()
    for product in values._products(g):
        counts = []
        for iterate in (values._power_iteration, _per_product_power_iteration):
            count = [0]

            def counted(v, product=product, count=count):
                count[0] += 1
                return product(v)

            iterate(counted, g.num_nodes)
            counts.append(count[0])
        blocked, per_product = counts
        assert blocked <= 1.05 * per_product, (spec, blocked, per_product)


def test_sc_eigen_identities(sc_corpus):
    for entry in sc_corpus:
        sol = solve_strongly_connected(entry.graph)
        m = build_propagation_matrix(entry.graph).matrix
        r = sol.spectral.radius
        assert np.abs(m @ sol.reciprocals - r * sol.reciprocals).max() <= 1e-10, entry.name
        assert 0.5 - 1e-12 <= r <= 1.0 + 1e-12
        assert np.all(sol.reciprocals > 0)
        assert np.all(sol.spectral.right_vec > 0)
        assert np.all(sol.spectral.left_vec > 0)
        if all(entry.graph.out_degree(i) >= 2 for i in range(entry.graph.num_nodes)):
            assert abs(r - 1.0) <= 1e-12
            assert np.abs(sol.reciprocals - 1.0).max() <= 1e-12


def test_spectral_solve_matches_general_eigensolver(sc_corpus):
    # power iteration vs numpy's general (QR) eigensolver, two routes
    for entry in sc_corpus:
        m = build_propagation_matrix(entry.graph).matrix
        sol = solve(entry.graph)
        eigvals = np.linalg.eigvals(m)
        dominant = eigvals[np.argmax(np.abs(eigvals))]
        assert abs(dominant.imag) < 1e-10, entry.name
        assert abs(sol.spectral.radius - dominant.real) < 1e-10, entry.name


def test_single_self_loop_node():
    g = build_graph(["only"], [("only", "only")], {})
    sol = solve(g)
    assert abs(sol.spectral.radius - 0.5) <= 1e-13
    assert abs(sol.reciprocals[0] - 1.0) <= 1e-12


def test_solve_dispatch_and_unsupported():
    two_cycle = build_graph(["1", "2"], [("1", "2"), ("2", "1")], {})
    with pytest.raises(UnsupportedGraphError):
        solve(two_cycle)
    fan = build_graph(["r", "a"], [("r", "a")], {"a": 2})
    assert solve(fan).graph_class.kind is GraphKind.FAN
    with pytest.raises(UnsupportedGraphError):
        solve(build_window_game(2, 1), exact=True)


def test_truncated_values_terminating():
    fan = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 2, "b": 4})
    residuals = _truncation_series(solve(fan), 3)
    sol = solve(fan)
    # s = 0 starts from ones on non-terminals
    assert residuals[0] == abs(1.0 - sol.reciprocals[0])
    # a fan converges in one step exactly
    assert residuals[1] == 0.0
    assert residuals[3] == 0.0


def test_truncated_values_sc_converges():
    g = build_window_game(2, 1)
    assert _truncation_series(solve(g), 64)[64] < 1e-9


def test_truncation_residuals_settle(corpus):
    # monotone decay after a short transient, until the float noise floor
    noise_floor = 1e-9
    for entry in corpus:
        res = _truncation_series(solve(entry.graph), 220)
        assert res[200] < 1e-8, entry.name
        for s in range(25, 219):
            if res[s] <= noise_floor and res[s + 1] <= noise_floor:
                continue
            assert res[s + 1] <= res[s] * 1.001 + 1e-15, (entry.name, s)


def test_truncation_residuals_are_the_stacked_series_bit_for_bit(corpus):
    graphs = [e.graph for e in corpus] + [build_window_game(12, 3), build_stopping_variant(30)]
    for g in graphs:
        sol = solve(g)
        got, want = _truncation_series(sol, 300), support.stacked_truncation_residuals(sol, 300)
        assert got.tobytes() == want.tobytes(), g.labels[:3]


def test_truncation_series_holds_one_vector_at_a_time():
    # stacking all S + 1 vectors would take some 3 (S + 1) N 8 bytes, 10.6 MB here
    g = build_window_game(12, 3)
    sol, steps = solve(g), 2000
    _truncation_series(sol, 1)  # the edge table's arrays are cached before tracing
    tracemalloc.start()
    try:
        _truncation_series(sol, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (steps + 1) + 16 * 8 * (g.num_nodes + int(g.edge_offsets[-1])), peak


def test_solution_serialization_roundtrip():
    fan = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 2, "b": 4})
    doc = solve(fan, exact=True).to_dict()
    assert doc["values"]["root"] == [8, 3]
    assert doc["class"] == "fan"
    doc_float = solve(fan).to_dict()
    assert abs(doc_float["values"]["root"] - 8 / 3) < 1e-15


def _exit_cycle(n: int):
    """One n-node cycle whose first node may also exit: one cyclic component."""
    labels = [f"c{k}" for k in range(n)] + ["exit"]
    edges = [(f"c{k}", f"c{(k + 1) % n}") for k in range(n)] + [("c0", "exit")]
    return build_graph(labels, edges, {"exit": 1})


def test_dense_block_over_its_budget_is_refused_before_allocating():
    n = 6000  # four 6000 x 6000 float64 arrays: 1.15e9 bytes, over 1 GiB
    g = _exit_cycle(n)
    classify(g)  # the graph's own structures, before the clock
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedGraphError) as refused:
            solve(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak  # a 6000-entry right-hand side, not a 6000 x 6000 block
    assert str(refused.value) == (
        f"a cyclic component of {n} nodes needs {4 * n * n * 8} bytes for its dense solve, "
        f"over the budget of {2**30} bytes")


def test_both_dense_block_builders_share_one_budget(monkeypatch):
    # the audit's budget is this constant; window-stop:4000 and the benchmark's
    # largest cyclic component (251 nodes) stay under it
    assert pathwager.verify.AUDIT_BUDGET_BYTES is values.DENSE_BUDGET_BYTES == 2**30
    assert 4 * 4000**2 * 8 <= values.DENSE_BUDGET_BYTES
    g = build_stopping_variant(60)  # one 60-node cyclic component
    needed = 4 * 60**2 * 8
    monkeypatch.setattr(values, "DENSE_BUDGET_BYTES", needed)
    sol = solve(g)
    stopping_analysis(sol, t_max=10)
    monkeypatch.setattr(values, "DENSE_BUDGET_BYTES", needed - 1)
    for call in (lambda: solve(g), lambda: stopping_analysis(sol, t_max=10)):
        with pytest.raises(UnsupportedGraphError, match=f"of 60 nodes needs {needed} bytes"):
            call()
