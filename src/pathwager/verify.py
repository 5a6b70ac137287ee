"""Independent correctness oracles for solved games.

A solved game is certified by checking the saddle condition from both
sides: against the guesser's profile every chooser move yields the game
value, and against the chooser's mix no (guess, wager) pair beats it.  Both
deviation searches are exact: the guesser's payoff is linear in her wager,
so her best reply stakes everything on one successor, and no wager grid is
searched.  ``certify_graph`` runs them on every terminating graph, fans
included.  Small terminating games are additionally bracketed by
depth-limited backward induction that is entirely independent of the
linear-algebra solvers, and ``audit_convergence`` audits the limit theory by
raising the propagation matrix to a high power directly, by repeated
squaring of its transient block, stopped once that block's power is exactly
zero.
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
    build_propagation_matrix,
)

GAIN_TOL = 1e-9
RESIDUAL_TOL = 1e-8


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

    Terminating: M^s approaches [[0, (I-A)^{-1} B], [0, I]].  Strongly
    connected: r^{-s} M^s approaches the positive rank-one matrix
    x y^T / (x . y).  M^s is formed by repeated squaring of the pair
    (A, B) in at most floor(log2 s) + popcount(s) - 1 block products, never
    touching the terminal rows [0, I]; it stops early once A's power is
    exactly zero, as on trees and every graph with an acyclic transient
    part.  A graph whose arrays would exceed ``AUDIT_BUDGET_BYTES`` gets a
    failed ``power_audit_not_run`` check instead.
    """
    if steps < 0:
        raise ValueError(f"audit steps must be nonnegative, got {steps}")
    graph = solution.graph
    n = graph.num_nodes
    needed = 4 * n * n * 8  # at most four N x N float64 arrays are live at once
    if needed > AUDIT_BUDGET_BYTES:
        detail = {"bytes_needed": needed, "budget_bytes": AUDIT_BUDGET_BYTES}
        return Certificate(checks=[CheckResult("power_audit_not_run", False, detail)])
    prop = build_propagation_matrix(graph)
    if solution.graph_class.is_terminating:
        a, b = prop.A, prop.B
        del prop  # frees M, so the arrays below stay within four N x N
        limit = np.linalg.solve(np.eye(len(a)) - a, b)  # (I - A)^{-1} B
        # the terminal rows of M^s and of the limit are both [0, I]
        power, reach = _block_power(a, b, steps)
        reach -= limit
        # the limit's transient block is zero, so this is |A^s| there
        upper_left = float(np.abs(power, out=power).max(initial=0.0))
        residual = max(upper_left, float(np.abs(reach, out=reach).max(initial=0.0)))
        checks = [
            CheckResult(
                "power_limit_absorbing",
                residual <= RESIDUAL_TOL,
                {"steps": steps, "residual": residual},
            )
        ]
        if graph.nonterminals:
            checks.append(
                CheckResult(
                    "transient_block_vanishes",
                    upper_left <= RESIDUAL_TOL,
                    {"max_entry": upper_left},
                )
            )
        return Certificate(checks=checks, residual=residual)

    spectral = solution.spectral
    x, y = spectral.right_vec, spectral.left_vec
    limit = np.outer(x, y)
    limit /= x @ y
    prop.matrix /= spectral.radius
    power, _ = _block_power(prop.matrix, np.empty((n, 0)), steps)
    power -= limit
    residual = float(np.abs(power, out=power).max())
    checks = [
        CheckResult(
            "scaled_power_limit",
            residual <= RESIDUAL_TOL,
            {"steps": steps, "residual": residual},
        ),
        CheckResult(
            "limit_strictly_positive",
            bool(limit.min() > 0.0),
            {"min_entry": float(limit.min())},
        ),
    ]
    return Certificate(checks=checks, residual=residual)


def _block_power(a: np.ndarray, b: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """[[a, b], [0, I]]^steps as the pair (a^s, (I + a + ... + a^(s-1)) b); overwrites a, b.

    Pairs multiply as (P1, C1)(P2, C2) = (P1 P2, P1 C2 + C1), so the identity
    rows are never formed.  The power is taken by repeated squaring (Knuth,
    TAOCP vol. 2, 4.6.3) into one reused spare pair, so the square, the spare
    and the power are the only pairs held.  Once a square's P is exactly zero,
    every later square equals it bit for bit (0 C = 0 and C + 0 = C for finite
    C), and after one product with it so does the power: the loop stops there.
    With b of zero columns this is the plain product sequence of a^steps.
    """
    power, spare, square = None, (np.empty_like(a), np.empty_like(b)), (a, b)
    while steps:
        steps, bit = divmod(steps, 2)
        if steps and not square[0].any():
            steps, bit = 0, 1  # every later square is this one: one product takes them all
        if bit and power is None:
            power = (square[0].copy(), square[1].copy())
        elif bit:
            power, spare = _pair_product(power, square, spare), power
        if steps:
            square, spare = _pair_product(square, square, spare), square
    return (np.eye(len(a)), np.zeros_like(b)) if power is None else power


def _pair_product(x: tuple, y: tuple, out: tuple) -> tuple:
    """(P1, C1)(P2, C2) = (P1 P2, P1 C2 + C1), written into the pair ``out``."""
    np.matmul(x[0], y[1], out=out[1])
    np.add(out[1], x[1], out=out[1])
    np.matmul(x[0], y[0], out=out[0])
    return out


def certify_graph(
    graph: GameGraph,
    solution: GameSolution,
    betas: Sequence[float] = (0.0, 0.5, 1.0),
    depth: int = 60,
) -> Certificate:
    """Composite certificate used by the command-line ``verify``.

    Runs the convergence audit, both-sided deviation searches (terminating
    graphs) against the one profile built for each beta, and the
    backward-induction bracket on small graphs.  A beta's deviation check
    passes only when both searches converged and neither side gains.
    """
    _check_depth(depth)  # before the audit, on every graph class
    checks: list[CheckResult] = []
    max_c = max_g = 0.0

    audit = audit_convergence(solution)
    checks.extend(audit.checks)
    residual = audit.residual

    if solution.graph_class.is_terminating and graph.nonterminals:
        for beta in betas:
            profile = build_profile(solution, graph, beta=beta)
            dev_c = exploit_search(graph, solution, fixed_side="guesser", profile=profile)
            dev_g = exploit_search(graph, solution, fixed_side="chooser", profile=profile)
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
        eig_res = float(np.abs(solution.edges.matvec(u) - solution.spectral.radius * u).max())
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
