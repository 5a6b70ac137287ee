"""Optimal strategy profiles for both players.

Given the node values, the chooser moves to successor j of node i with
probability proportional to u_j (certainty on forced moves).  The guesser
has a one-parameter family of optimal strategies indexed by the risk
parameter beta in [0, 1]:

    wager  w_i = 1 - n_i * beta * p_min      (1 on forced moves)
    guess  g_ij = (p_ij - beta * p_min) / w_i

beta = 0 is the maximum-risk strategy (bet everything, guess like the
chooser); beta = 1 is the minimum-risk strategy whose wager equals the
critical wager 1 - H/v_max and which never guesses a least-likely move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GameGraph
from .values import GameSolution

_PROB_TOL = 1e-12
_WAGER_ZERO_TOL = 1e-12


class StrategyError(ValueError):
    """Raised for inconsistent strategy inputs."""


@dataclass
class StrategyProfile:
    """Per-node strategies for both players.

    ``chooser[i]`` and ``guesser[i]`` are probability vectors aligned with
    ``graph.successors[i]``; ``wagers[i]`` is the fraction of the guesser's
    fortune wagered at node i.  Only non-terminal nodes carry entries.
    """

    beta: float
    chooser: dict[int, np.ndarray]
    guesser: dict[int, np.ndarray]
    wagers: dict[int, float]

    def to_dict(self, graph: GameGraph) -> dict:
        nodes = {}
        for i in graph.nonterminals:
            succ = graph.successors[i]
            nodes[graph.labels[i]] = {
                "wager": self.wagers[i],
                "chooser": {graph.labels[j]: float(p) for j, p in zip(succ, self.chooser[i])},
                "guesser": {graph.labels[j]: float(p) for j, p in zip(succ, self.guesser[i])},
            }
        return {"beta": self.beta, "nodes": nodes}


def build_profile(solution: GameSolution, graph: GameGraph, beta: float = 1.0) -> StrategyProfile:
    """Limiting strategy profile for a solved graph at risk parameter beta."""
    if not 0.0 <= beta <= 1.0:
        raise StrategyError(f"beta must lie in [0, 1], got {beta}")
    if solution.graph != graph:
        raise StrategyError("solution does not belong to this graph")
    u = solution.reciprocals
    chooser: dict[int, np.ndarray] = {}
    guesser: dict[int, np.ndarray] = {}
    wagers: dict[int, float] = {}
    for i in graph.nonterminals:
        succ = graph.successors[i]
        n = len(succ)
        if n == 1:
            chooser[i] = np.array([1.0])
            guesser[i] = np.array([1.0])
            wagers[i] = 1.0
            continue
        weights = u[list(succ)]
        p = weights / weights.sum()
        pmin = float(p.min())
        w = 1.0 - n * beta * pmin
        if w > _WAGER_ZERO_TOL:
            # the entries are >= 0 and sum to w in exact arithmetic; dividing
            # by their own sum stays in range when w is tiny and inexact
            g = p - beta * pmin
            g = _clamped(g / g.sum(), f"node {graph.labels[i]!r}")
        else:
            # numerically zero wager: any guess is payoff-irrelevant, pick
            # uniform (beta = 1 with a uniform chooser row lands here)
            w = 0.0
            g = np.full(n, 1.0 / n)
        chooser[i] = p
        guesser[i] = g
        wagers[i] = w
    return StrategyProfile(beta=float(beta), chooser=chooser, guesser=guesser, wagers=wagers)


def _clamped(g: np.ndarray, where: str) -> np.ndarray:
    low, high = float(g.min()), float(g.max())
    if low < -_PROB_TOL or high > 1.0 + _PROB_TOL:
        raise StrategyError(f"guess probabilities out of range at {where}: {g}")
    g = np.clip(g, 0.0, 1.0)
    return g / g.sum()


def guess_distribution(profile: StrategyProfile, node: int) -> np.ndarray:
    """Guesser's probability vector at a node (clamped to the simplex)."""
    if node not in profile.guesser:
        raise StrategyError(f"node {node} is terminal or unknown to the profile")
    return _clamped(profile.guesser[node].copy(), f"node {node}")


def chooser_transition_matrix(solution: GameSolution, graph: GameGraph) -> np.ndarray:
    """Markov transition matrix of the players' position under optimal play.

    P = V M V^{-1} with V = diag(values); terminal nodes become absorbing
    (P_kk = 1).  On strongly connected graphs the similarity is scaled by
    1/r so P is row-stochastic.
    """
    if solution.graph != graph:
        raise StrategyError("solution does not belong to this graph")
    p = np.zeros((graph.num_nodes, graph.num_nodes))
    p[solution.edges.src, solution.edges.dst] = _edge_probabilities(solution)
    return p


def _edge_probabilities(solution: GameSolution) -> np.ndarray:
    """P along each edge of ``solution.edges``: v_src w u_dst, divided by r if there is one."""
    edges = solution.edges
    p = solution.values[edges.src] * edges.weight * solution.reciprocals[edges.dst]
    return p if solution.spectral is None else p / solution.spectral.radius
