"""Play dynamics under the limiting strategies.

For terminating graphs: expected stopping times, the stopping-time
distribution, and terminal-hit probabilities, in closed form in the blocks
A, B of the propagation operator and the value diagonal V:

    tau = V_nt (I - A)^{-1} V_nt^{-1} 1
    q_t = V_nt A^{t-1} B V_t^{-1} 1
    rho = V_nt (I - A)^{-1} B V_t^{-1}

A and B are never formed: tau, rho and q_t come from one component walk,
sinks first, that builds each cyclic component's dense block once.  Every
call takes the solution alone and reads the graph from it, so the report
and its labels always belong to the graph that was solved.

For strongly connected aperiodic graphs: the invariant measure of the
position walk (entrywise product of the scaled Perron eigenvectors) and the
shape of the steady-state discounted fortunes, proportional to mu_j / v_j.
A game is fair (value 1 everywhere) exactly when every terminal value is 1
and every non-terminal out-degree is at least 2 (terminating case), or
every out-degree is at least 2 (strongly connected case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import GraphKind
from .values import ConvergenceError, GameSolution, UnsupportedGraphError
from .values import _component_block, _products

_VALUE_FAIR_TOL = 1e-10
_STATIONARY_TOL = 1e-10


@dataclass
class StoppingStats:
    tau: np.ndarray             # expected stopping times, per non-terminal node
    stop_dist: np.ndarray       # q[t-1, i] = P(T = t | start i), t = 1..t_max
    terminal_probs: np.ndarray  # rho[i, k] over (non-terminal, terminal)
    tail_mass: np.ndarray       # 1 - sum_t q_t per start node (truncation error)


@dataclass
class FairnessVerdict:
    fair: bool
    reason: str
    value_route_fair: bool      # independent verdict from the computed values


@dataclass
class SteadyStateFortunes:
    shape: np.ndarray           # mu_j / v_j, normalized to sum 1


@dataclass
class MarkovReport:
    solution: GameSolution
    fairness: FairnessVerdict
    stopping: Optional[StoppingStats] = None
    invariant: Optional[np.ndarray] = None
    steady_fortunes: Optional[SteadyStateFortunes] = None
    t_max: int = 0
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        graph = self.solution.graph
        labels = graph.labels
        doc: dict = {
            "node_order": list(labels),
            "fair": self.fairness.fair,
            "fairness_reason": self.fairness.reason,
        }
        if self.stopping is not None:
            nt = [labels[i] for i in graph.nonterminals]
            t = [labels[k] for k in graph.terminals]
            doc["expected_stopping_times"] = dict(zip(nt, self.stopping.tau.tolist()))
            doc["terminal_probabilities"] = {
                lab: dict(zip(t, row)) for lab, row in zip(nt, self.stopping.terminal_probs.tolist())
            }
            doc["stopping_tail_mass"] = dict(zip(nt, self.stopping.tail_mass.tolist()))
            doc["t_max"] = self.t_max
        if self.invariant is not None:
            doc["invariant_measure"] = dict(zip(labels, self.invariant.tolist()))
        if self.steady_fortunes is not None:
            doc["steady_fortune_shape"] = dict(zip(labels, self.steady_fortunes.shape.tolist()))
        if self.warnings:
            doc["warnings"] = list(self.warnings)
        return doc


def stopping_analysis(solution: GameSolution, t_max: int) -> StoppingStats:
    """Exact stopping-time and terminal-hit statistics on a terminating graph."""
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if not solution.graph_class.is_terminating:
        raise UnsupportedGraphError("stopping analysis requires a terminating graph")
    graph = solution.graph
    nt, t = list(graph.nonterminals), list(graph.terminals)
    v_nt, u = solution.values[nt], solution.reciprocals
    # w = [z | c]: tau, rho = V_nt z for (I - A) z = [u_nt | diag(u_t)], and q_t = V_nt c_t
    # for c_1 = B u_t, c_{t+1} = A c_t; [z | c_1..] takes its inflow from [z | c_0..]
    k = 1 + len(t)
    w = np.zeros((graph.num_nodes, k + t_max + 1))
    w[nt, 0], w[t, 1 + np.arange(len(t))], w[t, k] = u[nt], u[t], u[t]
    src = w[:, :-1]
    for comp in graph.components:
        i, succ = comp[0], graph.successors[comp[0]]
        if graph.is_cyclic(comp):
            rows = list(comp)
            inflow = src[rows]  # [z | 0]: no c_s is set on the component yet
            block = _component_block(graph, comp, src, inflow)  # one edge loop for both
            # values' solve has factored this same I - A_cc, so it is not singular
            w[rows, :k] = np.linalg.solve(np.eye(len(comp)) - block, inflow[:, :k])
            local = np.vstack([np.zeros(len(comp)), inflow[:, k:].T])  # local[s] = c_s
            for prev, row in zip(local, local[1:]):
                row += block.dot(prev)
            w[rows, k:] = local.T
        elif succ:
            inflow = sum(src[j] for j in succ) / (2 if len(succ) == 1 else len(succ))
            w[i, :k] += inflow[:k]
            w[i, k + 1:] = inflow[k:]
    stop_dist = v_nt * w[nt, k + 1:].T
    return StoppingStats(tau=v_nt * w[nt, 0], stop_dist=stop_dist,
                         terminal_probs=v_nt[:, None] * w[nt, 1:k],
                         tail_mass=1.0 - stop_dist.sum(axis=0))


def fairness_check(solution: GameSolution) -> FairnessVerdict:
    """Structural fairness verdict, with the value-based verdict alongside.

    The two routes are mathematically equivalent; both are reported so that
    they can be cross-checked.
    """
    graph = solution.graph
    if solution.graph_class.is_terminating:
        value_fair = bool(np.abs(solution.values - 1.0).max() <= _VALUE_FAIR_TOL)
        fair_reason = "all terminal values are 1 and every non-terminal out-degree is >= 2"
    elif solution.graph_class.kind is GraphKind.STRONGLY_CONNECTED_APERIODIC:
        value_fair = bool(abs(solution.spectral.radius - 1.0) <= _VALUE_FAIR_TOL)
        fair_reason = "every out-degree is >= 2"
    else:
        raise UnsupportedGraphError("fairness is defined for supported graph classes only")
    for i in graph.nonterminals:  # every node of a strongly connected graph
        if graph.out_degree(i) == 1:
            return FairnessVerdict(False, f"node {graph.labels[i]!r} has out-degree 1", value_fair)
    for i in graph.terminals:  # none on a strongly connected graph
        if graph.values[i] != 1:
            reason = f"terminal node {graph.labels[i]!r} has value {graph.values[i]:.12g} != 1"
            return FairnessVerdict(False, reason, value_fair)
    return FairnessVerdict(True, fair_reason, value_fair)


def invariant_measure(solution: GameSolution) -> np.ndarray:
    """Stationary distribution of the position walk on a strongly connected graph.

    mu_i = x_i y_i / (x . y) for the Perron eigenvectors x, y of the
    propagation matrix; stationarity P^T mu = diag(u) M^T (v mu) / r = mu is
    verified before return.
    """
    if solution.spectral is None:
        raise UnsupportedGraphError("invariant measure requires a strongly connected graph")
    x, y = solution.spectral.right_vec, solution.spectral.left_vec
    mu = x * y / (x @ y)
    mu = mu / mu.sum()
    flow = solution.reciprocals * _products(solution.graph)[1](solution.values * mu)
    drift = float(np.abs(flow / solution.spectral.radius - mu).max())
    if drift > _STATIONARY_TOL:
        raise ConvergenceError(f"invariant measure fails stationarity check: drift {drift:.3e}")
    return mu


def steady_state_fortunes(solution: GameSolution) -> SteadyStateFortunes:
    """Shape of the long-run discounted fortunes across positions.

    The steady-state discounted fortune mass at node j (the occupancy-
    weighted fortune E[D_t; X_t = j] under the invariant start) is
    proportional to mu_j / v_j.  Equivalently, the fortune conditioned on
    being at j is proportional to 1/v_j alone, and the occupancy weight
    mu_j supplies the rest.  The proportionality constant has no closed
    form.
    """
    mu = invariant_measure(solution)
    shape = mu / solution.values
    return SteadyStateFortunes(shape=shape / shape.sum())


def analyze(solution: GameSolution, t_max: int = 500) -> MarkovReport:
    """Full dynamics report for a solved graph."""
    graph = solution.graph
    report = MarkovReport(solution, fairness_check(solution), t_max=t_max)
    if solution.graph_class.is_terminating:
        if graph.nonterminals:
            report.stopping = stopping_analysis(solution, t_max)
            worst_tail = float(report.stopping.tail_mass.max())
            if worst_tail > 1e-8:
                report.warnings.append(
                    f"stopping-time distribution truncated at t_max={t_max} "
                    f"with tail mass {worst_tail:.3e}"
                )
    else:
        report.invariant = invariant_measure(solution)
        report.steady_fortunes = steady_state_fortunes(solution)
    return report
