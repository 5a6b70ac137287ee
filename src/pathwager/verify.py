"""Independent correctness oracles for solved games.

A solved game is certified by checking the saddle condition from both
sides: against the guesser's profile every chooser move yields the game
value, and against the chooser's mix no (guess, wager) pair beats it.  Both
deviation searches are exact: the guesser's payoff is linear in her wager,
so her best reply stakes everything on one successor, and no wager grid is
searched.  ``certify_graph`` runs them on every terminating graph, fans
included, taking the solution alone.  Small terminating games are additionally bracketed by
depth-limited backward induction that is entirely independent of the
linear-algebra solvers, and ``audit_convergence`` audits the limit theory by
raising the propagation matrix to a high power: on a terminating graph it
bounds the power of the transient block with products over the graph's
edge table, stopped
once the bound is negligible, and on a strongly connected graph it squares
the dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import GameGraph, GraphKind, classify
from .simulate import _move_payoffs, exploit_search
from .strategy import build_profile
from .values import (
    DENSE_BUDGET_BYTES as AUDIT_BUDGET_BYTES,
    GameSolution,
    UnsupportedGraphError,
    _products,
    build_propagation_matrix,
)

GAIN_TOL = 1e-9
RESIDUAL_TOL = 1e-8
_UNIT_ROUNDOFF = 2.0**-53
_NEGLIGIBLE = RESIDUAL_TOL * 2.0**-52  # an audit bound this small stops the products


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class Certificate:
    """Outcome of a verification pass: fails loudly, never silently."""

    checks: list[CheckResult]
    max_chooser_gain: float = 0.0
    max_guesser_gain: float = 0.0
    residual: float = 0.0

    @property
    def passed(self) -> bool:
        return (
            all(c.passed for c in self.checks)
            and self.max_chooser_gain <= GAIN_TOL
            and self.max_guesser_gain <= GAIN_TOL
            and self.residual <= RESIDUAL_TOL
        )

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_chooser_gain": self.max_chooser_gain,
            "max_guesser_gain": self.max_guesser_gain,
            "residual": self.residual,
            "checks": [
                {"name": c.name, "passed": c.passed, **c.detail} for c in self.checks
            ],
        }


@dataclass
class BruteForceBounds:
    """Per-node value brackets from depth-limited backward induction."""

    lower: np.ndarray
    upper: np.ndarray
    depth: int
    converged: bool

    @property
    def width(self) -> float:
        return float((self.upper - self.lower).max())


def brute_force_value(graph: GameGraph, depth_limit: int = 60) -> BruteForceBounds:
    """Bracket the game values without solving any linear system.

    Backward induction over the depth-limited game: each sweep replaces a
    node's bracket with the one-level game value over its successors'
    brackets, one degree block at a time.  The upper sweep uses the exact
    one-level optimum, the harmonic mean; the lower sweep scores the
    guesser's all-in mix, g_j proportional to 1/v_j at wager 1, by its worst
    case against the chooser, which never over-states, so the true value
    stays inside the bracket.
    Starting anchors are rigid bounds: v_min(terminals) and
    N^N * v_max(terminals); a graph whose N^N * v_max overflows is refused.
    """
    _check_depth(depth_limit)
    if not classify(graph).is_terminating:
        raise UnsupportedGraphError("brute force bounds require a terminating graph")
    n_nodes = graph.num_nodes
    v_term = np.array([graph.values[k] for k in graph.terminals])
    try:
        anchor = float(n_nodes) ** n_nodes * float(v_term.max())
    except OverflowError:
        anchor = math.inf
    if not math.isfinite(anchor):
        raise ValueError(f"the upper anchor N^N * v_max is not finite at N = {n_nodes}")
    lower = np.full(n_nodes, float(v_term.min()))
    upper = np.full(n_nodes, anchor)
    for k in graph.terminals:
        lower[k] = upper[k] = graph.values[k]

    converged = False
    for _ in range(depth_limit):
        new_lower = lower.copy()
        new_upper = upper.copy()
        for d, nodes, succ, _ in graph.degree_blocks:
            high, low = upper[succ], lower[succ]
            new_upper[nodes] = 2.0 * high[:, 0] if d == 1 else d / (1.0 / high).sum(axis=1)
            inv = 1.0 / low
            mix = inv / inv.sum(axis=1, keepdims=True)
            new_lower[nodes] = _move_payoffs(mix, 1.0, low).min(axis=1)
        shift = max(
            float(np.abs(new_lower - lower).max()),
            float(np.abs(new_upper - upper).max()),
        )
        lower, upper = new_lower, new_upper
        if shift == 0.0:
            converged = True
            break
    return BruteForceBounds(lower=lower, upper=upper, depth=depth_limit, converged=converged)


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError(f"the backward-induction depth must be at least 1, got {depth}")


def audit_convergence(solution: GameSolution, steps: int = 400) -> Certificate:
    """Check that iterating the propagation matrix reaches its limit.

    Terminating: M^s approaches [[0, (I-A)^{-1} B], [0, I]], and both of its
    nonzero blocks are off the limit by at most ||A^s||_inf (the absorption
    probabilities (I-A)^{-1} B lie in [0, 1] and A^s (I-A)^{-1} B is the
    gap), which ``_transient_power_bound`` bounds from above with products
    over the edge table, holding no N x N array.  Strongly connected: r^{-s} M^s
    approaches the positive rank-one matrix x y^T / (x . y); M^s is formed
    by repeated squaring, and a graph whose arrays would exceed
    ``AUDIT_BUDGET_BYTES`` gets a failed ``power_audit_not_run`` check
    instead.
    """
    if steps < 0:
        raise ValueError(f"audit steps must be nonnegative, got {steps}")
    graph = solution.graph
    if solution.graph_class.is_terminating:
        bound = _transient_power_bound(solution, steps)
        checks = [CheckResult("power_limit_absorbing", bound <= RESIDUAL_TOL,
                              {"steps": steps, "residual": bound})]
        return Certificate(checks=checks, residual=bound)

    n = graph.num_nodes
    needed = 4 * n * n * 8  # M, the spare, the power and the limit
    if needed > AUDIT_BUDGET_BYTES:
        detail = {"bytes_needed": needed, "budget_bytes": AUDIT_BUDGET_BYTES}
        return Certificate(checks=[CheckResult("power_audit_not_run", False, detail)])
    prop = build_propagation_matrix(graph)
    spectral = solution.spectral
    x, y = spectral.right_vec, spectral.left_vec
    limit = np.outer(x, y)
    limit /= x @ y
    prop.matrix /= spectral.radius
    power = _matrix_power(prop.matrix, steps)
    power -= limit
    residual = float(np.abs(power, out=power).max())
    checks = [
        CheckResult("scaled_power_limit", residual <= RESIDUAL_TOL,
                    {"steps": steps, "residual": residual}),
        CheckResult("limit_strictly_positive", bool(limit.min() > 0.0),
                    {"min_entry": float(limit.min())}),
    ]
    return Certificate(checks=checks, residual=residual)


def _transient_power_bound(solution: GameSolution, steps: int) -> float:
    """An upper bound on ||A^steps||_inf for the transient block A of M.

    A >= 0, so ||A^k||_inf = max(A^k 1), and k products v <- M v over the
    edge table from v = 1 on the non-terminals give it: a terminal row has no
    edges, so v stays 0 there and the moves into terminals add 0.  Each row
    of a product sums at most d_max terms, each with a rounded weight, so the
    computed v is at least the exact A v / (1 + gamma), gamma = (d_max + 1) u
    / (1 - (d_max + 1) u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), and rho_k = max(v_k) (1 + gamma)^k bounds
    ||A^k||_inf.  With s = q k + r,
    ||A^s|| <= rho_k^q rho_r; the loop stops at the first k where that is
    below ``_NEGLIGIBLE``, which also stops a tree once A^k 1 = 0, and
    otherwise reports rho_s.
    """
    graph = solution.graph
    transient, matvec = np.diff(graph.edge_offsets) > 0, _products(graph)[0]
    terms = max(map(len, graph.successors)) + 1
    growth = 1.0 + terms * _UNIT_ROUNDOFF / (1.0 - terms * _UNIT_ROUNDOFF)
    v = transient.astype(float)
    rho = [float(transient.any())]
    for k in range(1, steps + 1):
        v = matvec(v)
        rho.append(float(v.max()) * growth**k)
        q, r = divmod(steps, k)
        bound = rho[k] ** q * rho[r]
        if bound <= _NEGLIGIBLE:
            return bound
    return rho[steps]


def _matrix_power(m: np.ndarray, steps: int) -> np.ndarray:
    """m^steps by repeated squaring (Knuth, TAOCP vol. 2, 4.6.3); overwrites m.

    The square, the power and one reused spare are the only arrays held, in
    at most floor(log2 s) + popcount(s) - 1 products.
    """
    power, spare = None, np.empty_like(m)
    while steps:
        steps, bit = divmod(steps, 2)
        if bit and power is None:
            power = m.copy()
        elif bit:
            power, spare = np.matmul(power, m, out=spare), power
        if steps:
            m, spare = np.matmul(m, m, out=spare), m
    return np.eye(len(m)) if power is None else power


def certify_graph(
    solution: GameSolution,
    betas: Sequence[float] = (0.0, 0.5, 1.0),
    depth: int = 60,
) -> Certificate:
    """Composite certificate used by the command-line ``verify``.

    Runs the convergence audit, both-sided deviation searches (terminating
    graphs) against the one profile built for each beta, and the
    backward-induction bracket on small graphs.  The chooser's mix does not
    depend on beta, so the guesser's deviation search runs once, against the
    first profile, and its report serves every beta.  A beta's deviation
    check passes only when both searches converged and neither side gains.
    """
    _check_depth(depth)  # before the audit, on every graph class
    graph = solution.graph
    checks: list[CheckResult] = []
    max_c = max_g = 0.0

    audit = audit_convergence(solution)
    checks.extend(audit.checks)
    residual = audit.residual

    if solution.graph_class.is_terminating and graph.nonterminals:
        dev_g = None
        for beta in betas:
            profile = build_profile(solution, beta=beta)
            dev_c = exploit_search(profile, fixed_side="guesser")
            dev_g = dev_g or exploit_search(profile, fixed_side="chooser")
            max_c = max(max_c, dev_c.gain)
            max_g = max(max_g, dev_g.gain)
            converged = dev_c.converged and dev_g.converged
            checks.append(
                CheckResult(
                    f"no_profitable_deviation_beta_{beta:g}",
                    converged and dev_c.gain <= GAIN_TOL and dev_g.gain <= GAIN_TOL,
                    {"chooser_gain": dev_c.gain, "guesser_gain": dev_g.gain,
                     "converged": converged},
                )
            )
        if graph.num_nodes <= 8:
            bounds = brute_force_value(graph, depth_limit=depth)
            slack = 1e-9 * (1.0 + float(np.abs(solution.values).max()))
            inside = bool(
                np.all(solution.values >= bounds.lower - slack)
                and np.all(solution.values <= bounds.upper + slack)
            )
            checks.append(
                CheckResult(
                    "backward_induction_brackets_contain_values",
                    inside,
                    {"max_width": bounds.width, "depth": bounds.depth,
                     "converged": bounds.converged},
                )
            )
    elif solution.graph_class.kind is GraphKind.STRONGLY_CONNECTED_APERIODIC:
        # eigen-equation residual doubles as the optimality certificate here
        u = solution.reciprocals
        eig_res = float(np.abs(_products(graph)[0](u) - solution.spectral.radius * u).max())
        checks.append(
            CheckResult(
                "reciprocal_values_solve_eigen_equation",
                eig_res <= 1e-10,
                {"residual": eig_res},
            )
        )
    return Certificate(
        checks=checks,
        max_chooser_gain=max_c,
        max_guesser_gain=max_g,
        residual=residual,
    )
