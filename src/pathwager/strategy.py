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
A profile holds both players' strategies as flat per-edge arrays, in the
layout of ``GameGraph.edge_offsets`` (node i's edges are
``edge_offsets[i]:edge_offsets[i + 1]``, its successors in order), and the
wagers as one per-node array.  ``build_profile`` computes them per
``GameGraph.degree_blocks`` entry, one m x d array pass per out-degree d,
and scatters each block into the arrays through the block's edge indices.
A profile keeps the solution it was built from, and through it the graph, so
every consumer takes the profile alone.
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
    """Strategies of both players on the graph of ``solution``, per edge.

    ``chooser[e]`` and ``guesser[e]`` are the probabilities that the chooser
    moves along edge e and that the guesser guesses it, with edges laid out
    by ``graph.edge_offsets``; ``wagers[i]`` is the fraction of the guesser's
    fortune wagered at node i (0 at terminal nodes).  Arrays of another
    length than the graph's edge and node counts are refused.
    """

    solution: GameSolution
    beta: float
    chooser: np.ndarray
    guesser: np.ndarray
    wagers: np.ndarray

    def __post_init__(self) -> None:
        edges, nodes = int(self.graph.edge_offsets[-1]), self.graph.num_nodes
        if not len(self.chooser) == len(self.guesser) == edges or len(self.wagers) != nodes:
            raise StrategyError(
                f"a profile of this graph needs {edges} edge and {nodes} node entries, got "
                f"{len(self.chooser)}, {len(self.guesser)} and {len(self.wagers)}"
            )

    @property
    def graph(self) -> GameGraph:
        return self.solution.graph

    def to_dict(self) -> dict:
        graph = self.graph
        offsets = graph.edge_offsets.tolist()
        chooser, guesser, wagers = self.chooser.tolist(), self.guesser.tolist(), self.wagers.tolist()
        nodes = {}
        for i in graph.nonterminals:
            succ = [graph.labels[j] for j in graph.successors[i]]
            edges = slice(offsets[i], offsets[i + 1])
            nodes[graph.labels[i]] = {
                "wager": wagers[i],
                "chooser": dict(zip(succ, chooser[edges])),
                "guesser": dict(zip(succ, guesser[edges])),
            }
        return {"beta": self.beta, "nodes": nodes}


def build_profile(solution: GameSolution, beta: float = 1.0) -> StrategyProfile:
    """Limiting strategy profile for a solved graph at risk parameter beta.

    Nodes of one out-degree d are handled together, as the rows of m x d
    arrays (``graph.degree_blocks``) that scatter into the per-edge arrays.
    A guess row out of range raises at the lowest such node.
    """
    if not 0.0 <= beta <= 1.0:
        raise StrategyError(f"beta must lie in [0, 1], got {beta}")
    graph, u = solution.graph, solution.reciprocals
    edge_count = graph.edge_offsets[-1]
    chooser, guesser, wagers = np.ones(edge_count), np.ones(edge_count), np.zeros(graph.num_nodes)
    errors: list[tuple[int, str]] = []
    for d, nodes, succ, edges in graph.degree_blocks:
        if d == 1:  # a forced move: certain choice and guess, everything wagered
            wagers[nodes] = 1.0
            continue
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
        bad = (raw.min(axis=1) < -_PROB_TOL) | (raw.max(axis=1) > 1.0 + _PROB_TOL)
        if bad.any():
            k = int(bad.argmax())
            i = int(nodes[live][k])
            errors.append((i, f"node {graph.labels[i]!r}: {raw[k]}"))
        clipped = np.clip(raw, 0.0, 1.0)
        g[live] = clipped / clipped.sum(axis=1, keepdims=True)
        chooser[edges], guesser[edges], wagers[nodes] = p, g, w
    if errors:
        raise StrategyError(f"guess probabilities out of range at {min(errors)[1]}")
    return StrategyProfile(solution, float(beta), chooser, guesser, wagers)

