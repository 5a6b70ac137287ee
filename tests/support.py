"""Shared test corpus and brute-force oracles.

The corpus is deterministic (fixed seeds) and desk-scale: every graph has
at most 12 nodes.  Randomly generated terminating and strongly connected
graphs enter it by draw number, from a committed table of the draws whose
depth-limited value iteration contracts fast enough for the fixed-depth
convergence checks used across the suite (residual < 1e-9 by step 200,
settling monotonically after a short transient); building the corpus checks
that they still do, so a solver change cannot silently swap test graphs.
The oracles here are deliberately independent of the library's
linear-algebra and automaton code paths: cycle gcds come from explicit
simple-cycle enumeration and from BFS levels, string languages from
exhaustive enumeration, and root references from scipy's root finder.  The wager-grid references keep
the grid searches that the library's closed-form best replies replaced, the
Moore refinement reference the library's Hopcroft minimization, the
per-node loop references the library's degree-blocked profiles, edge tables
and deviation sweeps, the dict-of-rows profile renderings and play loop the
library's per-edge profile arrays, the dense transition matrix the per-edge
chooser probabilities, the two-walk stopping analysis the library's single
component walk, the per-cell CSV loops the library's row formats, and the
per-step walk the step kernel's block-at-a-time Philox draws, the
full-matrix power audit the library's transient-block power, and the
searchsorted pick the step kernel's bisection.
"""

from __future__ import annotations

import collections
import importlib.util
import itertools
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pathwager import (
    ExploitReport,
    GameGraph,
    GraphKind,
    StrategyError,
    StrategyProfile,
    build_graph,
    build_profile,
    build_stopping_variant,
    build_window_game,
    classify,
    solve,
    stopping_analysis,
)
from pathwager.markov import StoppingStats
from pathwager.simulate import (
    _CENSOR_WARN_RATE,
    SimulationResult,
    StepRng,
    _bisect,
    _edge_tables,
    _multipliers,
    step_uniforms,
)
from pathwager.values import _component_block, _truncation_series, build_propagation_matrix
from pathwager.verify import RESIDUAL_TOL, Certificate, CheckResult

_VALUE_POOL = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0]


@dataclass(frozen=True)
class Entry:
    name: str
    graph: GameGraph


def _converges_fast(graph: GameGraph) -> bool:
    res = _truncation_series(solve(graph), 400)
    if res[200] > 1e-9 or res[400] > 1e-10:
        return False
    settle = 25
    if not all(res[s + 1] <= res[s] * 1.001 + 1e-15 for s in range(settle, 400)):
        return False
    # absorption must also be fast (the value residual is blind to it on
    # fair graphs, where the series starts at the fixed point)
    if classify(graph).is_terminating and graph.nonterminals:
        stats = stopping_analysis(solve(graph), t_max=500)
        if stats.tail_mass.max() > 1e-10:
            return False
        partial = stats.stop_dist.T @ np.arange(1.0, 501.0)
        if np.abs(partial - stats.tau).max() > 1e-9:
            return False
    return True


def stacked_truncation_residuals(solution, steps: int) -> np.ndarray:
    """``values._truncation_series`` as it was first written: every vector of
    the series kept, stacked, and compared with the limit at the end."""
    graph = solution.graph
    terminal = np.diff(graph.edge_offsets) == 0
    u = np.ones(graph.num_nodes)
    u[terminal] = [1.0 / graph.values[i] for i in graph.terminals]
    scale = 1.0 if solution.spectral is None else 1.0 / solution.spectral.radius
    vectors = [u]
    for _ in range(steps):
        u = np.where(terminal, u, scale * np.bincount(
            graph.sources, weights=graph.weights * u[graph.targets], minlength=graph.num_nodes))
        vectors.append(u)
    return np.abs(np.array(vectors) - solution.reciprocals).max(axis=1)


def _random_fan(rng: random.Random, tag: int) -> Entry:
    n = rng.randint(2, 6)
    leaves = [f"leaf{i}" for i in range(n)]
    values = {leaf: rng.choice(_VALUE_POOL) for leaf in leaves}
    g = build_graph(["root"] + leaves, [("root", leaf) for leaf in leaves], values)
    return Entry(f"fan_{tag}", g)


def _random_tree(rng: random.Random, tag: int) -> Entry:
    labels = ["n0"]
    edges = []
    values = {}
    frontier = [("n0", 0)]
    count = 1
    while frontier:
        node, depth = frontier.pop()
        if depth >= 3 or (depth > 0 and rng.random() < 0.35) or count >= 10:
            values[node] = rng.choice(_VALUE_POOL)
            continue
        kids = rng.randint(1, 3)
        for _ in range(kids):
            child = f"n{count}"
            count += 1
            labels.append(child)
            edges.append((node, child))
            frontier.append((child, depth + 1))
    g = build_graph(labels, edges, values)
    return Entry(f"tree_{tag}", g)


def _random_terminating(rng: random.Random, tag: int, fair: bool) -> Entry | None:
    n_total = rng.randint(4, 12)
    n_term = rng.randint(1, 2) if not fair else 1
    labels = [f"v{i}" for i in range(n_total)]
    terminals = labels[-n_term:]
    edges = set()
    for i in range(n_total - n_term):
        degree = rng.randint(2, 3) if fair else rng.randint(1, 3)
        targets = rng.sample(range(n_total), k=min(degree, n_total))
        for j in targets:
            edges.add((labels[i], labels[j]))
    values = {t: (1 if fair else rng.choice(_VALUE_POOL)) for t in terminals}
    try:
        g = build_graph(labels, sorted(edges), values)
    except Exception:
        return None
    cls = classify(g)
    if cls.kind not in (GraphKind.TERMINATING, GraphKind.TREE, GraphKind.FAN):
        return None
    if fair and any(g.out_degree(i) < 2 for i in g.nonterminals):
        return None
    return Entry(f"{'fair_term' if fair else 'term'}_{tag}", g)


def _random_strongly_connected(rng: random.Random, tag: int, fair: bool) -> Entry | None:
    n = rng.randint(2, 10)
    labels = [f"s{i}" for i in range(n)]
    edges = {(labels[i], labels[(i + 1) % n]) for i in range(n)}
    edges.add((labels[0], labels[0]))  # loop forces aperiodicity
    extra = rng.randint(0, 2 * n)
    for _ in range(extra):
        i, j = rng.randrange(n), rng.randrange(n)
        edges.add((labels[i], labels[j]))
    if fair:
        for i in range(n):
            out = [e for e in edges if e[0] == labels[i]]
            while len(out) < 2:
                j = rng.randrange(n)
                edge = (labels[i], labels[j])
                if edge not in edges:
                    edges.add(edge)
                    out.append(edge)
    try:
        g = build_graph(labels, sorted(edges), {})
    except Exception:
        return None
    if classify(g).kind is not GraphKind.STRONGLY_CONNECTED_APERIODIC:
        return None
    return Entry(f"{'fair_sc' if fair else 'sc'}_{tag}", g)


def _named_entries() -> list[Entry]:
    entries = [
        Entry("fan24", build_graph(["root", "a", "b"],
                                   [("root", "a"), ("root", "b")], {"a": 2, "b": 4})),
        Entry("fan_uniform", build_graph(["root", "a", "b", "c"],
                                         [("root", x) for x in "abc"],
                                         {x: 3 for x in "abc"})),
        Entry("fan11", build_graph(["root", "a", "b"],
                                   [("root", "a"), ("root", "b")], {"a": 1, "b": 1})),
        Entry("chain", build_graph(["root", "mid", "leaf"],
                                   [("root", "mid"), ("mid", "leaf")], {"leaf": 1})),
        Entry("loop_exit", build_graph(["1", "t"], [("1", "1"), ("1", "t")], {"t": 1})),
        Entry("height2_tree", build_graph(
            ["r", "x", "y", "a", "b", "c", "d"],
            [("r", "x"), ("r", "y"), ("x", "a"), ("x", "b"), ("y", "c"), ("y", "d")],
            {"a": 2, "b": 4, "c": 2, "d": 4})),
        Entry("complete3", build_graph(
            ["p", "q", "r"],
            [("p", "q"), ("p", "r"), ("q", "p"), ("q", "r"), ("r", "p"), ("r", "q")], {})),
        # degenerate single-node games
        Entry("lone_terminal", build_graph(["end"], [], {"end": 2})),
        Entry("lone_loop", build_graph(["spin"], [("spin", "spin")], {})),
    ]
    for n in range(2, 7):
        entries.append(Entry(f"window_{n}_1", build_window_game(n, 1)))
        entries.append(Entry(f"stop_{n}", build_stopping_variant(n)))
    entries.append(Entry("window_3_2", build_window_game(3, 2)))
    entries.append(Entry("window_4_2", build_window_game(4, 2)))
    entries.append(Entry("window_4_3", build_window_game(4, 3)))
    return entries


_CORPUS: list[Entry] | None = None
_RANDOM_COUNT = {"fan": 14, "tree": 8}
# Draw numbers (from 1, per group) whose graph enters the corpus: the draws
# that passed ``_converges_fast``.  That check consumes no randomness, so the
# stream, and with it every later draw, does not depend on the solver.
_ADMITTED = {
    "term": (1, 2, 3, 5, 6, 8, 10, 14, 15, 16, 17, 20, 21, 23),
    "fair_term": (1, 2, 3, 6, 7, 8),
    "sc": (1, 4, 5, 7, 14, 16, 22, 24, 27, 32),
    "fair_sc": (1, 2, 3, 4),
}


def full_corpus() -> list[Entry]:
    """Named special graphs plus >= 50 random graphs, all <= 12 nodes."""
    global _CORPUS
    if _CORPUS is not None:
        return _CORPUS
    rng = random.Random(20260811)
    entries = _named_entries()
    for i in range(_RANDOM_COUNT["fan"]):
        entries.append(_random_fan(rng, i))
    for i in range(_RANDOM_COUNT["tree"]):
        entries.append(_random_tree(rng, i))
    for group, fair, draw in (("term", False, _random_terminating),
                              ("fair_term", True, _random_terminating),
                              ("sc", False, _random_strongly_connected),
                              ("fair_sc", True, _random_strongly_connected)):
        admitted, made = _ADMITTED[group], 0
        for number in range(1, admitted[-1] + 1):
            entry = draw(rng, made, fair)
            if number not in admitted:
                continue
            if entry is None or not _converges_fast(entry.graph):
                # a broken solver or stopping series, not a new corpus
                raise RuntimeError(f"corpus group {group!r}: draw {number} no longer "
                                   "converges fast enough to be admitted")
            entries.append(entry)
            made += 1
    _CORPUS = entries
    return entries


def random_corpus() -> list[Entry]:
    prefixes = ("fan_", "tree_", "term_", "fair_term_", "sc_", "fair_sc_")
    return [e for e in full_corpus() if e.name.startswith(prefixes)]


def terminating_corpus() -> list[Entry]:
    return [e for e in full_corpus() if classify(e.graph).is_terminating]


def sc_corpus() -> list[Entry]:
    return [
        e
        for e in full_corpus()
        if classify(e.graph).kind is GraphKind.STRONGLY_CONNECTED_APERIODIC
    ]


def fan_corpus() -> list[Entry]:
    return [e for e in full_corpus() if classify(e.graph).kind is GraphKind.FAN
            and e.graph.out_degree(e.graph.nonterminals[0]) >= 2]


# -- brute-force oracles -----------------------------------------------------


def simple_cycle_lengths(graph: GameGraph) -> set[int]:
    """All simple-cycle lengths, by DFS rooted at each cycle's minimal node."""
    lengths: set[int] = set()

    def extend(start: int, node: int, visited: set[int], depth: int) -> None:
        for nxt in graph.successors[node]:
            if nxt == start:
                lengths.add(depth + 1)
            elif nxt > start and nxt not in visited:
                extend(start, nxt, visited | {nxt}, depth + 1)

    for start in range(graph.num_nodes):
        extend(start, start, {start}, 0)
    return lengths


def gcd_of_cycles(graph: GameGraph) -> int:
    acc = 0
    for length in simple_cycle_lengths(graph):
        acc = math.gcd(acc, length)
    return acc


def bfs_level_gcd(graph: GameGraph) -> int:
    """gcd of |level(i) + 1 - level(j)| over edges i -> j, levels from a BFS at node 0.

    On a strongly connected graph this is the gcd of all cycle lengths.  The
    library reads the same gcd from its depth-first search tree instead.
    """
    level = {0: 0}
    queue = collections.deque([0])
    while queue:
        i = queue.popleft()
        for j in graph.successors[i]:
            if j not in level:
                level[j] = level[i] + 1
                queue.append(j)
    acc = 0
    for i, j in graph.edges():
        acc = math.gcd(acc, abs(level[i] + 1 - level[j]))
    return acc


def window_legal(bits: tuple[int, ...], n: int, k: int) -> bool:
    """At most k ones in every window of n (whole string when shorter)."""
    if len(bits) < n:
        return sum(bits) <= k
    return all(sum(bits[i:i + n]) <= k for i in range(len(bits) - n + 1))


def legal_window_strings(n: int, k: int, max_len: int) -> set[str]:
    out = set()
    for length in range(1, max_len + 1):
        for bits in itertools.product((0, 1), repeat=length):
            if window_legal(bits, n, k):
                out.add("".join("L" if b else "T" for b in bits))
    return out


def legal_pattern_strings(patterns: list[str], max_len: int) -> set[str]:
    out = set()
    for length in range(1, max_len + 1):
        for combo in itertools.product("TL", repeat=length):
            s = "".join(combo)
            if not any(p in s for p in patterns):
                out.add(s)
    return out


def realizable_strings(graph: GameGraph | list[dict[str, int]], max_len: int,
                       start: int = 0) -> set[str]:
    """Edge-label strings readable from the start node (index 0), of a graph
    or of a transition table (one {"truth"|"lie": target} dict per state)."""
    symbol_char = {"truth": "T", "lie": "L"}
    if isinstance(graph, GameGraph):
        table: list[dict[str, int]] = [dict() for _ in range(graph.num_nodes)]
        for (i, j), label in (graph.edge_labels or {}).items():
            for sym in label.split("|"):
                table[i][sym] = j
    else:
        table = graph
    out: set[str] = set()

    def walk(state: int, prefix: str) -> None:
        if len(prefix) == max_len:
            return
        for sym, nxt in table[state].items():
            word = prefix + symbol_char[sym]
            out.add(word)
            walk(nxt, word)

    walk(start, "")
    return out


# -- automaton minimization reference -----------------------------------------
# The library minimizes oracle automata by Hopcroft's partition refinement.
# This is the Moore refinement it replaced, kept to compare partitions with.


def moore_partition(transitions: list[dict[str, int]]) -> list[int]:
    """Block of each state, numbered by lowest state: split by enabled symbols,
    then by symbol-wise target blocks until a round changes nothing."""
    n = len(transitions)
    block = [0] * n
    signature: dict = {}
    for s in range(n):
        key = tuple(sorted(transitions[s]))
        block[s] = signature.setdefault(key, len(signature))
    while True:
        signature = {}
        new_block = [0] * n
        for s in range(n):
            key = (block[s], tuple((sym, block[t]) for sym, t in sorted(transitions[s].items())))
            new_block[s] = signature.setdefault(key, len(signature))
        if new_block == block:
            return block
        block = new_block


def moore_minimize(transitions: list[dict[str, int]],
                   start: int) -> tuple[list[dict[str, int]], int]:
    """``oracle._minimize``'s (merged, start block), by Moore refinement."""
    block = moore_partition(transitions)
    merged: list[dict[str, int]] = [dict() for _ in range(len(set(block)))]
    for s in range(len(transitions)):
        for sym, t in transitions[s].items():
            merged[block[s]][sym] = block[t]
    return merged, block[start]


def random_automata(count: int, seed: int) -> list[list[dict[str, int]]]:
    """Partial deterministic automata over truth/lie with 1-12 states.

    Each transition is missing with probability 0.3; a third of the draws
    get a state with no transitions at all, and up to two trailing states
    are never a target, so from state 0 they are unreachable.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        targets = max(1, n - rng.randint(0, 2))
        table = [{sym: rng.randrange(targets) for sym in ("truth", "lie") if rng.random() >= 0.3}
                 for _ in range(n)]
        if rng.random() < 1 / 3:
            table[rng.randrange(n)] = {}
        out.append(table)
    return out


# -- wager-grid references ---------------------------------------------------
# The library finds the guesser's best replies in closed form.  These are the
# 1001-point wager sweeps it replaced, kept to compare the closed forms with.


def grid_exploit_search(solution, fixed_side: str, beta: float,
                        grid: int = 1001) -> tuple[np.ndarray, float, bool]:
    """(values, gain, converged) of ``exploit_search``, with the guesser's
    wager searched over ``grid`` evenly spaced points of [0, 1]."""
    graph, profile = solution.graph, build_profile(solution, beta=beta)
    offsets = graph.edge_offsets
    wagers = np.linspace(0.0, 1.0, grid)
    values = solution.values.copy()
    converged = False
    for _ in range(10 * graph.num_nodes + 50):
        new = values.copy()
        for i in graph.nonterminals:
            succ = list(graph.successors[i])
            n, cont = len(succ), values[succ]
            row = slice(offsets[i], offsets[i + 1])
            if fixed_side == "guesser":
                g, w = profile.guesser[row], profile.wagers[i]
                new[i] = ((g * (1.0 + max(n - 1, 1) * w) + (1.0 - g) * (1.0 - w)) * cont).min()
            elif n == 1:
                new[i] = (1.0 + wagers[-1]) * cont[0]
            else:
                p = profile.chooser[row]
                stake = float((n * p * cont).max())
                new[i] = ((1.0 - wagers) * float(p @ cont) + wagers * stake).max()
        shift = float(np.abs(new - values).max())
        values = new
        if shift <= 1e-14 * max(1.0, float(np.abs(new).max())):
            converged = True
            break
    diff = solution.values - values if fixed_side == "guesser" else values - solution.values
    return values, float(diff[list(graph.nonterminals)].max(initial=0.0)), converged


def grid_brute_force_value(graph: GameGraph, grid: int = 1001,
                           depth_limit: int = 60) -> tuple[np.ndarray, np.ndarray, bool]:
    """(lower, upper, converged) of ``brute_force_value``, with the lower
    sweep's wager searched over ``grid`` points: at each wager the guesser
    plays her equalizing mix, scored by its worst chooser move.  Nodes of
    equal out-degree d are swept together, as rows of (m, d) arrays."""
    n_nodes = graph.num_nodes
    v_term = [graph.values[k] for k in graph.terminals]
    lower = np.full(n_nodes, float(min(v_term)))
    upper = np.full(n_nodes, float(n_nodes) ** n_nodes * float(max(v_term)))
    for k in graph.terminals:
        lower[k] = upper[k] = graph.values[k]
    wagers = np.linspace(0.0, 1.0, grid)
    pos = wagers[wagers > 0.0]
    by_degree: dict[int, list[int]] = {}
    for i in graph.nonterminals:
        by_degree.setdefault(graph.out_degree(i), []).append(i)
    rows = [(nodes, np.array([graph.successors[i] for i in nodes])) for nodes in by_degree.values()]

    def harmonic(vals):
        if vals.shape[1] == 1:
            return 2.0 * vals[:, 0]
        return vals.shape[1] / (1.0 / vals).sum(axis=1)

    def grid_lower(vals):
        n = vals.shape[1]
        if n == 1:
            return (1.0 + float(wagers.max())) * vals[:, 0]
        raw = np.clip((harmonic(vals)[:, None] / vals)[:, :, None] - (1.0 - pos), 0.0, None)
        totals = raw.sum(axis=1)[:, None, :]
        ok = totals > 0.0
        g = np.divide(raw, totals, out=np.zeros_like(raw), where=ok)
        worst = (vals[:, :, None] * (pos * (n * g - 1.0) + 1.0)).min(axis=1)
        best = np.where(ok[:, 0, :], worst, 0.0).max(axis=1)
        return np.maximum(best, vals.min(axis=1)) if (wagers <= 0.0).any() else best

    for _ in range(depth_limit):
        new_lower, new_upper = lower.copy(), upper.copy()
        for nodes, succ in rows:
            new_upper[nodes] = harmonic(upper[succ])
            new_lower[nodes] = grid_lower(lower[succ])
        shift = max(float(np.abs(new_lower - lower).max()),
                    float(np.abs(new_upper - upper).max()))
        lower, upper = new_lower, new_upper
        if shift == 0.0:
            return lower, upper, True
    return lower, upper, False


# -- per-node loop references ------------------------------------------------
# The library builds profiles, edge tables and deviation sweeps one degree
# block at a time, as rows of m x d arrays, and keeps a profile as flat
# per-edge arrays.  These are the per-node loops it replaced, kept to require
# bit-for-bit equal outputs, and the dict-of-rows profile with its renderings.


@dataclass
class ProfileRows:
    """A profile as one row per non-terminal node: node -> chooser row,
    guesser row (arrays over the node's successors), and wager (a float)."""

    beta: float
    chooser: dict
    guesser: dict
    wagers: dict


def loop_profile_rows(solution, beta: float = 1.0) -> ProfileRows:
    """``build_profile``'s strategies, one node at a time, as rows."""
    graph, u = solution.graph, solution.reciprocals
    chooser, guesser, wagers = {}, {}, {}
    for i in graph.nonterminals:
        succ = graph.successors[i]
        n = len(succ)
        if n == 1:
            chooser[i], guesser[i], wagers[i] = np.array([1.0]), np.array([1.0]), 1.0
            continue
        weights = u[list(succ)]
        p = weights / weights.sum()
        pmin = float(p.min())
        w = 1.0 - n * beta * pmin
        if w > 1e-12:
            g = p - beta * pmin
            g = g / g.sum()
            if float(g.min()) < -1e-12 or float(g.max()) > 1.0 + 1e-12:
                raise StrategyError(
                    f"guess probabilities out of range at node {graph.labels[i]!r}: {g}")
            g = np.clip(g, 0.0, 1.0)
            g = g / g.sum()
        else:
            w, g = 0.0, np.full(n, 1.0 / n)
        chooser[i], guesser[i], wagers[i] = p, g, w
    return ProfileRows(float(beta), chooser, guesser, wagers)


def flat_profile(solution, rows: ProfileRows) -> StrategyProfile:
    """The rows laid out per edge, node after node; terminal nodes wager 0."""
    nodes = solution.graph.nonterminals
    wagers = np.zeros(solution.graph.num_nodes)
    wagers[list(nodes)] = [rows.wagers[i] for i in nodes]
    return StrategyProfile(
        solution,
        beta=rows.beta,
        chooser=np.concatenate([rows.chooser[i] for i in nodes] or [np.empty(0)]),
        guesser=np.concatenate([rows.guesser[i] for i in nodes] or [np.empty(0)]),
        wagers=wagers,
    )


def loop_build_profile(solution, beta: float = 1.0) -> StrategyProfile:
    """``build_profile``, one node at a time."""
    return flat_profile(solution, loop_profile_rows(solution, beta))


def node_rows(profile: StrategyProfile) -> ProfileRows:
    """A flat profile cut into its nodes' rows, at offsets counted here."""
    graph = profile.graph
    chooser, guesser, wagers, start = {}, {}, {}, 0
    for i in graph.nonterminals:
        end = start + len(graph.successors[i])
        chooser[i], guesser[i] = profile.chooser[start:end], profile.guesser[start:end]
        wagers[i], start = float(profile.wagers[i]), end
    return ProfileRows(profile.beta, chooser, guesser, wagers)


def rows_to_dict(graph: GameGraph, rows: ProfileRows) -> dict:
    """``StrategyProfile.to_dict``, from rows: the ``strategy`` report."""
    nodes = {}
    for i in graph.nonterminals:
        succ = [graph.labels[j] for j in graph.successors[i]]
        nodes[graph.labels[i]] = {
            "wager": rows.wagers[i],
            "chooser": dict(zip(succ, rows.chooser[i].tolist())),
            "guesser": dict(zip(succ, rows.guesser[i].tolist())),
        }
    return {"beta": rows.beta, "nodes": nodes}


def rows_to_dot(g: GameGraph, rows: ProfileRows) -> str:
    """``graph.to_dot`` annotated with a profile, from rows."""
    lines = ["digraph game {", "  rankdir=LR;"]
    for i, lab in enumerate(g.labels):
        attrs = []
        if g.is_terminal(i):
            attrs.append("shape=doublecircle")
            attrs.append(f'label="{lab}\\nv={g.values[i]:.12g}"')
        else:
            attrs.append("shape=circle")
            attrs.append(f'label="{lab}\\nw={rows.wagers[i]:.12g}"')
        lines.append(f'  "{lab}" [{", ".join(attrs)}];')
    for i, succ in enumerate(g.successors):
        for pos, j in enumerate(succ):
            parts = []
            if g.edge_labels and (i, j) in g.edge_labels:
                parts.append(g.edge_labels[(i, j)])
            parts.append(f"p={rows.chooser[i][pos]:.12g}")
            parts.append(f"g={rows.guesser[i][pos]:.12g}")
            label = f' [label="{" ".join(parts)}"]' if parts else ""
            lines.append(f'  "{g.labels[i]}" -> "{g.labels[j]}"{label};')
    lines.append("}")
    return "\n".join(lines)


def searchsorted_pick(probs: np.ndarray, u: float) -> int:
    """The successor index u picks from a row of probabilities: the count of
    CDF entries <= u, capped at degree - 1 (a CDF that ends below u by
    rounding picks the last successor).  ``simulate._bisect`` finds it."""
    cdf = np.cumsum(probs)
    return min(int(np.searchsorted(cdf, u, side="right")), len(probs) - 1)


def human_move(labels: list[str]) -> str:
    """The first label that ``play_repl`` does not read as quitting, else "quit"."""
    return next((lab for lab in labels if lab.lower() not in ("q", "quit", "exit")), "quit")


def rows_play(graph: GameGraph, rows: ProfileRows, human_side: str, seed: int,
              max_rounds: int) -> dict:
    """``cli.play_repl``'s transcript, from rows, against a human who wagers
    1/2 and takes (chooser) or guesses (guesser) the successor ``human_move``
    names, or quits."""
    rng = StepRng(seed=seed)
    node, fortune, rounds = graph.nonterminals[0], 1.0, []
    while len(rounds) < max_rounds:
        succ = graph.successors[node]
        u_guess, u_choice = rng.next_pair()
        move = human_move([graph.labels[j] for j in succ])
        if move == "quit":
            break
        if human_side == "guesser":
            wager, guess = 0.5, graph.index_of(move)
            choice = succ[searchsorted_pick(rows.chooser[node], u_choice)]
        else:
            wager, guess = rows.wagers[node], succ[searchsorted_pick(rows.guesser[node], u_guess)]
            choice = graph.index_of(move)
        win, lose = _multipliers(len(succ), wager)
        mult = win if guess == choice else lose
        fortune *= mult
        rounds.append({"node": graph.labels[node], "wager": wager, "guess": graph.labels[guess],
                       "move": graph.labels[choice], "multiplier": mult, "fortune": fortune})
        node = choice
        if graph.is_terminal(node):
            fortune *= graph.values[node]
            break
    return {"seed": seed, "beta": rows.beta, "human_side": human_side, "rounds": rounds,
            "final_fortune": fortune}


def chooser_transition_matrix(solution) -> np.ndarray:
    """Markov transition matrix of the players' position under optimal play.

    P = V M V^{-1} with V = diag(values); terminal nodes become absorbing
    (P_kk = 1).  On strongly connected graphs the similarity is scaled by
    1/r so P is row-stochastic.
    """
    graph = solution.graph
    p = np.zeros((graph.num_nodes, graph.num_nodes))
    p[graph.sources, graph.targets] = _edge_probabilities(solution)
    t = list(graph.terminals)
    p[t, t] = solution.values[t] * solution.reciprocals[t]  # v_k M_kk u_k with M_kk = 1
    return p


def _edge_probabilities(solution) -> np.ndarray:
    """P along each edge of the graph's edge table: v_src w u_dst, divided by r if there is one."""
    g = solution.graph
    p = solution.values[g.sources] * g.weights * solution.reciprocals[g.targets]
    return p if solution.spectral is None else p / solution.spectral.radius


def loop_edge_tables(profile: StrategyProfile):
    """``simulate._edge_tables``, one node at a time."""
    graph = profile.graph
    n = graph.num_nodes
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(succ) for succ in graph.successors], out=offsets[1:])
    dst = np.fromiter((j for succ in graph.successors for j in succ), np.int64, int(offsets[-1]))
    rows = graph.nonterminals
    g_cdf = np.concatenate([np.cumsum(profile.guesser[offsets[i]:offsets[i + 1]]) for i in rows])
    c_cdf = np.concatenate([np.cumsum(profile.chooser[offsets[i]:offsets[i + 1]]) for i in rows])
    win, lose, value = np.ones(n), np.ones(n), np.zeros(n)
    for i in rows:
        w = float(profile.wagers[i])
        win[i], lose[i] = 1.0 + max(graph.out_degree(i) - 1, 1) * w, 1.0 - w
    for k in graph.terminals:
        value[k] = graph.values[k]
    return offsets, dst, g_cdf, c_cdf, win, lose, value


def loop_exploit_search(profile: StrategyProfile, fixed_side: str) -> tuple[ExploitReport, int]:
    """``exploit_search`` against ``profile``, one node at a time, and the
    number of sweeps it ran."""
    solution, graph, rows = profile.solution, profile.graph, node_rows(profile)
    values = solution.values.copy()
    deviation: dict[int, object] = {}
    converged, sweeps = False, 0
    for sweeps in range(1, 10 * graph.num_nodes + 51):
        new = values.copy()
        for i in graph.nonterminals:
            succ = graph.successors[i]
            n, cont = len(succ), values[list(succ)]
            if fixed_side == "guesser":
                g, w = rows.guesser[i], rows.wagers[i]
                per_move = (g * (1.0 + max(n - 1, 1) * w) + (1.0 - g) * (1.0 - w)) * cont
                k = int(np.argmin(per_move))
                new[i], deviation[i] = per_move[k], succ[k]
            else:
                stake = rows.chooser[i] * cont
                j = int(np.argmax(stake))
                new[i], deviation[i] = (1.0 + max(n - 1, 1)) * float(stake[j]), (succ[j], 1.0)
        if float(np.abs(new - values).max()) <= 1e-14 * max(1.0, float(np.abs(new).max())):
            values, converged = new, True
            break
        values = new
    diff = solution.values - values if fixed_side == "guesser" else values - solution.values
    gain = float(diff[list(graph.nonterminals)].max(initial=0.0))
    return ExploitReport(fixed_side, values, gain, deviation, converged), sweeps


def loop_brute_force_value(graph: GameGraph, depth_limit: int = 60):
    """(lower, upper, converged) of ``brute_force_value``, one node at a time."""
    n_nodes = graph.num_nodes
    v_term = np.array([graph.values[k] for k in graph.terminals])
    lower = np.full(n_nodes, float(v_term.min()))
    upper = np.full(n_nodes, float(n_nodes) ** n_nodes * float(v_term.max()))
    for k in graph.terminals:
        lower[k] = upper[k] = graph.values[k]
    for _ in range(depth_limit):
        new_lower, new_upper = lower.copy(), upper.copy()
        for i in graph.nonterminals:
            succ = list(graph.successors[i])
            n, high, low = len(succ), upper[succ], lower[succ]
            new_upper[i] = 2.0 * float(high[0]) if n == 1 else n / float((1.0 / high).sum())
            inv = 1.0 / low
            g = inv / inv.sum()
            new_lower[i] = ((g * (1.0 + max(n - 1, 1)) + (1.0 - g) * 0.0) * low).min()
        shift = max(float(np.abs(new_lower - lower).max()), float(np.abs(new_upper - upper).max()))
        lower, upper = new_lower, new_upper
        if shift == 0.0:
            return lower, upper, True
    return lower, upper, False


def two_walk_stopping(solution, t_max: int) -> StoppingStats:
    """``stopping_analysis`` as two component walks, each building its own blocks."""
    graph = solution.graph
    nt, t = list(graph.nonterminals), list(graph.terminals)
    v_nt, u = solution.values[nt], solution.reciprocals
    z = np.zeros((graph.num_nodes, 1 + len(t)))
    z[nt, 0], z[t, 1 + np.arange(len(t))] = u[nt], u[t]
    for comp in graph.components:
        i, succ = comp[0], graph.successors[comp[0]]
        if graph.is_cyclic(comp):
            rhs = z[list(comp)]
            block = _component_block(graph, comp, z, rhs)
            z[list(comp)] = np.linalg.solve(np.eye(len(comp)) - block, rhs)
        elif succ:
            z[i] = z[i] + sum(map(z.__getitem__, succ)) / (2 if len(succ) == 1 else len(succ))
    z[nt] *= v_nt[:, None]
    c = np.zeros((graph.num_nodes, t_max + 1))
    c[t, 0] = u[t]
    for comp in graph.components:
        i, succ = comp[0], graph.successors[comp[0]]
        if graph.is_cyclic(comp):
            local = np.zeros((t_max + 1, len(comp)))
            block = _component_block(graph, comp, c[:, :-1], local[1:].T)
            for prev, row in zip(local, local[1:]):
                row += block.dot(prev)
            c[list(comp)] = local.T
        elif succ:
            c[i, 1:] = sum(c[j, :-1] for j in succ) / (2 if len(succ) == 1 else len(succ))
    stop_dist = v_nt * c[nt, 1:].T
    return StoppingStats(tau=z[nt, 0], stop_dist=stop_dist, terminal_probs=z[nt, 1:],
                         tail_mass=1.0 - stop_dist.sum(axis=0))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cell_loop_stopping_csv(graph: GameGraph, stop_dist: np.ndarray) -> str:
    """``analyze --format csv``, one formatted cell at a time."""
    lines = ["t," + ",".join(graph.labels[i] for i in graph.nonterminals)]
    for t, row in enumerate(stop_dist, start=1):
        lines.append(f"{t}," + ",".join(_fmt(x) for x in row))
    return "\n".join(lines)


def cell_loop_simulation_csv(graph: GameGraph, result) -> str:
    """``simulate --format csv``, one formatted cell at a time."""
    lines = ["rep,stopping_time,terminal,final_fortune,censored"]
    for rep in range(len(result.final_fortunes)):
        term = result.terminal_nodes[rep]
        lines.append(",".join([
            str(rep),
            str(int(result.stopping_times[rep])),
            graph.labels[term] if term >= 0 else "",
            _fmt(float(result.final_fortunes[rep])),
            str(int(result.censored[rep])),
        ]))
    return "\n".join(lines)


# -- per-step kernel reference -----------------------------------------------


def stepwise_walk(config, kind: GraphKind, discount: float, checkpoints: set):
    """``simulate._walk`` drawing one step's uniforms per Philox call, and
    reading and writing the replications' state through ``active`` gathers."""
    graph, reps = config.graph, config.replications
    horizon = kind is GraphKind.STRONGLY_CONNECTED_APERIODIC
    offsets, dst, g_cdf, c_cdf, win, lose, value = _edge_tables(config.profile)
    rounds = (int(np.diff(offsets).max()) - 1).bit_length()
    is_terminal = offsets[:-1] == offsets[1:]

    state = np.full(reps, config.start, dtype=np.int64)
    fortune = np.ones(reps)
    stop_time = np.full(reps, config.max_steps, dtype=np.int64)
    terminal_node = np.full(reps, -1, dtype=np.int64)
    visits = np.zeros(graph.num_nodes, dtype=np.int64) if horizon else None
    track = horizon and config.track_occupancy
    occupancy = np.zeros((reps, graph.num_nodes), dtype=np.int64) if track else None
    records: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    active = np.arange(reps, dtype=np.int64)

    for t in range(config.max_steps):
        if active.size == 0:
            break
        u_guess, u_choice = step_uniforms(config.seed, active, t)
        nodes = state[active]
        first, last = offsets[nodes], offsets[nodes + 1] - 1
        guess = _bisect(g_cdf, first, last, u_guess, rounds)
        choice = _bisect(c_cdf, first, last, u_choice, rounds)
        nxt = dst[choice]
        fortune[active] *= discount * np.where(guess == choice, win[nodes], lose[nodes])
        state[active] = nxt
        if horizon:
            visits += np.bincount(nxt, minlength=graph.num_nodes)
        if occupancy is not None:
            occupancy[active, nxt] += 1
        if t + 1 in checkpoints:
            records[t + 1] = (state.copy(), fortune.copy())
        absorbed = is_terminal[nxt]
        if absorbed.any():
            done = active[absorbed]
            fortune[done] *= value[nxt[absorbed]]
            stop_time[done] = t + 1
            terminal_node[done] = nxt[absorbed]
            active = active[~absorbed]

    censored = np.zeros(reps, dtype=bool)
    censored[active] = not horizon  # a fixed horizon censors no replication
    result = SimulationResult(
        config=config, kind=kind, final_fortunes=fortune, stopping_times=stop_time,
        terminal_nodes=terminal_node, censored=censored, checkpoints=records, visits=visits,
        occupancy=occupancy,
    )
    rate = censored.mean()
    if rate > _CENSOR_WARN_RATE:
        result.warnings.append(
            f"{rate:.2%} of replications were censored at max_steps={config.max_steps}; "
            "fortune statistics exclude them"
        )
    return result


def count_bracket(graph: GameGraph, steps: int = 400) -> tuple[Fraction, Fraction]:
    """Exact bracket on r for a strongly connected graph whose out-degrees are at most 2.

    Every edge then weighs 1/2, so M = T / 2 for the 0/1 transition matrix T,
    and c_s = T^s 1 counts the walks of length s from each node.  The counts
    are kept in Python integers over ``successors``, with no call into the
    solver.  c_s > 0, so min_i c_{s+1,i} / c_{s,i} <= 2 r <= max_i c_{s+1,i} /
    c_{s,i} (Collatz-Wielandt; Meyer, Matrix Analysis, 8.3).
    """
    if max(map(len, graph.successors)) > 2:
        raise ValueError("the count bracket needs out-degrees of at most 2")
    counts = [1] * graph.num_nodes
    for _ in range(steps):
        counts = [sum(counts[j] for j in succ) for succ in graph.successors]
    ratios = [Fraction(sum(counts[j] for j in succ), 2 * c)
              for succ, c in zip(graph.successors, counts)]
    return min(ratios), max(ratios)


def slow_ring(k: int = 32):
    """A ring whose nodes move one or two steps on; only r0 may also exit,
    so optimal play wanders the ring for many steps before absorbing."""
    labels = [f"r{i}" for i in range(k)] + ["exit"]
    edges = [(f"r{i}", f"r{(i + d) % k}") for i in range(k) for d in (1, 2)]
    edges.append(("r0", "exit"))
    return build_graph(labels, edges, {"exit": 1})


# -- full-matrix audit reference ---------------------------------------------
# The library bounds a terminating graph's audit by ||A^s 1||_inf from
# edge-list products.  This is the full N x N power M^s it replaced, kept as
# a reference.


def matrix_power(m: np.ndarray, steps: int) -> np.ndarray:
    """m^steps by repeated squaring over the whole matrix; overwrites m."""
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


def dense_audit(solution, steps: int = 400) -> Certificate:
    """``verify._audit`` on the full propagation matrix M^steps."""
    graph = solution.graph
    prop = build_propagation_matrix(graph)
    n = graph.num_nodes
    if solution.graph_class.is_terminating:
        nt, t = list(graph.nonterminals), list(graph.terminals)
        limit = np.zeros((n, n))
        limit[t, t] = 1.0
        if nt:
            a, b = prop.matrix[np.ix_(nt, nt)], prop.matrix[np.ix_(nt, t)]
            limit[np.ix_(nt, t)] = np.linalg.solve(np.eye(len(nt)) - a, b)
        power = matrix_power(prop.matrix, steps)
        power -= limit
        residual = float(np.abs(power, out=power).max())
        detail = {"steps": steps, "residual": residual}
        if nt:  # the largest entry of A^steps, which the library's figure also bounds
            detail["transient_max_entry"] = float(power[np.ix_(nt, nt)].max())
        checks = [CheckResult("power_limit_absorbing", residual <= RESIDUAL_TOL, detail)]
        return Certificate(checks=checks, residual=residual)
    x, y = solution.spectral.right_vec, solution.spectral.left_vec
    limit = np.outer(x, y)
    limit /= x @ y
    prop.matrix /= solution.spectral.radius
    power = matrix_power(prop.matrix, steps)
    power -= limit
    residual = float(np.abs(power, out=power).max())
    checks = [
        CheckResult("scaled_power_limit", residual <= RESIDUAL_TOL,
                    {"steps": steps, "residual": residual}),
        CheckResult("limit_strictly_positive", bool(limit.min() > 0.0),
                    {"min_entry": float(limit.min())}),
    ]
    return Certificate(checks=checks, residual=residual)


def bench_module(name: str):
    """``bench/<name>.py``, loaded from its file (the benchmark is not a package);
    ``workloads`` holds the graph generators, ``spans`` the tracer, both stdlib only."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module
