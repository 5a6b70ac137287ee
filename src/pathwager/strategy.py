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
``build_profile`` computes them per ``GameGraph.degree_blocks`` entry, one
m x d array pass per out-degree d, bit for bit as node by node.
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
            succ = [graph.labels[j] for j in graph.successors[i]]
            nodes[graph.labels[i]] = {
                "wager": self.wagers[i],
                "chooser": dict(zip(succ, self.chooser[i].tolist())),
                "guesser": dict(zip(succ, self.guesser[i].tolist())),
            }
        return {"beta": self.beta, "nodes": nodes}


def build_profile(solution: GameSolution, graph: GameGraph, beta: float = 1.0) -> StrategyProfile:
    """Limiting strategy profile for a solved graph at risk parameter beta.

    Nodes of one out-degree d are handled together, as the rows of m x d
    arrays (``graph.degree_blocks``); each node's entries are views of its
    row.  A guess row out of range raises at the lowest such node.
    """
    if not 0.0 <= beta <= 1.0:
        raise StrategyError(f"beta must lie in [0, 1], got {beta}")
    if solution.graph != graph:
        raise StrategyError("solution does not belong to this graph")
    u = solution.reciprocals
    chooser, guesser, wagers = (dict.fromkeys(graph.nonterminals) for _ in range(3))
    errors: list[tuple[int, str]] = []
    for d, nodes, succ in graph.degree_blocks:
        if d == 1:
            p, g, w = np.ones((len(nodes), 1)), np.ones((len(nodes), 1)), np.ones(len(nodes))
        else:
            weights = u[succ]
            p = weights / weights.sum(axis=1, keepdims=True)
            pmin = p.min(axis=1)
            w = 1.0 - d * beta * pmin
            # numerically zero wager: any guess is payoff-irrelevant, pick
            # uniform (beta = 1 with a uniform chooser row lands here)
            live = w > _WAGER_ZERO_TOL
            w[~live] = 0.0
            g = np.full(p.shape, 1.0 / d)
            # the entries are >= 0 and sum to w in exact arithmetic; dividing
            # by their own sum stays in range when w is tiny and inexact
            raw = p[live] - (beta * pmin[live])[:, None]
            raw /= raw.sum(axis=1, keepdims=True)
            bad = _out_of_range(raw)
            if bad.any():
                k = int(bad.argmax())
                i = int(nodes[live][k])
                errors.append((i, f"node {graph.labels[i]!r}: {raw[k]}"))
            g[live] = _clip_rows(raw)
        nodes = nodes.tolist()
        chooser.update(zip(nodes, p))
        guesser.update(zip(nodes, g))
        wagers.update(zip(nodes, w.tolist()))
    if errors:
        raise StrategyError(f"guess probabilities out of range at {min(errors)[1]}")
    return StrategyProfile(beta=float(beta), chooser=chooser, guesser=guesser, wagers=wagers)


def _out_of_range(g: np.ndarray) -> np.ndarray:
    """Whether each row (last axis) of guess probabilities leaves [0, 1] by more than rounding."""
    return (g.min(axis=-1) < -_PROB_TOL) | (g.max(axis=-1) > 1.0 + _PROB_TOL)


def _clip_rows(g: np.ndarray) -> np.ndarray:
    g = np.clip(g, 0.0, 1.0)
    return g / g.sum(axis=-1, keepdims=True)


def guess_distribution(profile: StrategyProfile, node: int) -> np.ndarray:
    """Guesser's probability vector at a node (clamped to the simplex)."""
    if node not in profile.guesser:
        raise StrategyError(f"node {node} is terminal or unknown to the profile")
    g = profile.guesser[node]
    if _out_of_range(g):
        raise StrategyError(f"guess probabilities out of range at node {node}: {g}")
    return _clip_rows(g)


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
