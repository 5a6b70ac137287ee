"""Lying-oracle game generation.

An oracle who must not lie more than k times in any window of n statements
(or, more generally, must avoid a finite set of forbidden truth/lie
patterns) plays a guessing game whose legal statement sequences form a
regular language.  These builders compile such constraints into game
graphs: states track the relevant recent history (window histories are
bit-packed ints), edges carry "truth"/"lie" labels, and Hopcroft partition
refinement over the automaton completed with one dead state minimizes it in
O(n log n), so that the one-lie-per-window game comes out as the familiar
n-node cycle with a loop at the clean state.

The one-lie family has closed-form spectral data driven by the largest root
of lambda^n - lambda^(n-1) - 1; ``gn1_reference`` packages it as an
independent check on the numerical solvers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .graph import GameGraph, GraphError, GraphKind, build_graph, classify
from .strategy import build_profile
from .values import solve_terminating

TRUTH = "truth"
LIE = "lie"

_STOP_FORMULA_TOL = 1e-10
# raw window histories; window:22,7 (198440) builds in 5.5 s with a 333 MB peak
# RSS on a 2-core virtual machine
MAX_WINDOW_STATES = 200_000


class OracleBuildError(ValueError):
    """Raised when an oracle specification admits no valid game graph."""


@dataclass(frozen=True)
class OracleSpec:
    """Parsed oracle-game request (CLI surface).

    kind is one of "window" (n, k), "patterns" (forbidden pattern list), or
    "window-stop" (one lie per window of n, oracle may stop after truths).
    """

    kind: str
    n: int = 0
    k: int = 0
    patterns: tuple[str, ...] = ()

    def build(self) -> GameGraph:
        if self.kind == "window":
            return build_window_game(self.n, self.k)
        if self.kind == "patterns":
            return build_forbidden_pattern_game(self.patterns)
        if self.kind == "window-stop":
            return build_stopping_variant(self.n)
        raise OracleBuildError(f"unknown oracle kind {self.kind!r}")


def parse_oracle_spec(text: str) -> OracleSpec:
    """Parse "window:N,K", "window-stop:N", or "patterns:<file>"."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "window":
            n_str, k_str = rest.split(",")
            return OracleSpec(kind="window", n=int(n_str), k=int(k_str))
        if kind == "window-stop":
            return OracleSpec(kind="window-stop", n=int(rest))
        if kind == "patterns":
            with open(rest) as fh:
                patterns = parse_pattern_lines(fh.read())
            return OracleSpec(kind="patterns", patterns=tuple(patterns))
    except (ValueError, OSError) as exc:
        raise OracleBuildError(f"bad oracle spec {text!r}: {exc}") from exc
    raise OracleBuildError(f"unknown oracle kind {kind!r}")


def parse_pattern_lines(text: str) -> list[str]:
    """One pattern per line; tokens T/L, whitespace ignored."""
    patterns = []
    for line in text.splitlines():
        compact = "".join(line.split()).upper()
        if not compact:
            continue
        if set(compact) - {"T", "L"}:
            raise OracleBuildError(f"pattern {line.strip()!r} contains tokens other than T/L")
        patterns.append(compact)
    if not patterns:
        raise OracleBuildError("pattern file contains no patterns")
    return patterns


# -- labelled automaton scaffolding ---------------------------------------


def _partition(transitions: list[dict[str, int]]) -> list[int]:
    """Block of each state, numbered by lowest state, in the coarsest partition
    whose blocks read equal label strings (Hopcroft 1971, O(n log n)).

    Missing transitions go to a dead state looping on both symbols (Valmari &
    Lehtinen, STACS 2008); after a split only the smaller half joins the
    worklist of (block, symbol) splitters, or both if the block was waiting.
    """
    n = len(transitions)
    preimage: dict[str, list[list[int]]] = {sym: [[] for _ in range(n + 1)] for sym in (TRUTH, LIE)}
    for s, trans in enumerate(transitions + [{}]):
        for sym, pre in preimage.items():
            pre[trans.get(sym, n)].append(s)
    block = [0] * n + [1]
    members = [set(range(n)), {n}]
    waiting = {(1, TRUTH), (1, LIE)}
    while waiting:
        splitter, sym = waiting.pop()
        hit: dict[int, set[int]] = {}
        for t in members[splitter]:
            for s in preimage[sym][t]:
                hit.setdefault(block[s], set()).add(s)
        for b, moved in hit.items():
            if len(moved) == len(members[b]):
                continue
            members[b] -= moved
            new = len(members)
            members.append(moved)
            for s in moved:
                block[s] = new
            smaller = len(moved) <= len(members[b])
            for a in (TRUTH, LIE):
                waiting.add((new, a) if smaller or (b, a) in waiting else (b, a))
    number: dict[int, int] = {}
    return [number.setdefault(b, len(number)) for b in block[:n]]


def _minimize(transitions: list[dict[str, int]], start: int) -> tuple[list[dict[str, int]], int]:
    """Merge behaviorally identical states; the quotient reads the same label strings."""
    label = _partition(transitions)
    merged: list[dict[str, int]] = [dict() for _ in range(max(label) + 1)]
    for s, trans in enumerate(transitions):
        merged[label[s]].update((sym, label[t]) for sym, t in trans.items())
    return merged, label[start]


def _order_from(transitions: list[dict[str, int]], start: int) -> list[int]:
    """BFS order from the start, truth-edge before lie-edge."""
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for sym in (TRUTH, LIE):
            t = transitions[s].get(sym)
            if t is not None and t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return order


def _automaton_to_graph(transitions: list[dict[str, int]], start: int) -> GameGraph:
    """Reorder states BFS-from-start, merge parallel edges, attach labels."""
    order = _order_from(transitions, start)
    remap = {s: i for i, s in enumerate(order)}
    transitions = [
        {sym: remap[t] for sym, t in transitions[s].items()} for s in order
    ]
    labels = [str(i + 1) for i in range(len(transitions))]
    edges = []
    edge_labels = {}
    for s, trans in enumerate(transitions):
        targets: dict[int, list[str]] = {}
        for sym in (TRUTH, LIE):
            if sym in trans:
                targets.setdefault(trans[sym], []).append(sym)
        for t, syms in sorted(targets.items()):
            edges.append((labels[s], labels[t]))
            edge_labels[(labels[s], labels[t])] = "|".join(syms)
    return build_graph(labels, edges, {}, edge_labels=edge_labels)


# -- window games ----------------------------------------------------------


def build_window_game(n: int, k: int) -> GameGraph:
    """Game graph for "at most k lies in any window of n statements".

    States are the sum_{j <= k} C(n-1, j) recent histories, (n-1)-bit ints
    with the newest statement lowest (lie = 1), reached from the all-truth 0
    (more than ``MAX_WINDOW_STATES`` are refused); a lie transition exists
    when the window it completes stays within budget.  The automaton is
    minimized, which collapses the k = 1 family to n states: a cycle of
    length n with a loop at the start state.
    """
    if n < 1:
        raise OracleBuildError("window length n must be at least 1")
    if not 0 <= k < n:
        raise OracleBuildError("lie budget k must satisfy 0 <= k < n")
    sizes = accumulate(math.comb(n - 1, j) for j in range(k + 1))
    if any(size > MAX_WINDOW_STATES for size in sizes):
        raise OracleBuildError(f"window:{n},{k} has more than {MAX_WINDOW_STATES} raw histories "
                               f"(the sum of C({n - 1}, j) for j <= {k}), too many to build")
    mask = (1 << (n - 1)) - 1 if k else 0  # k = 0 admits any n but only history 0
    index = {0: 0}
    histories = [0]
    transitions: list[dict[str, int]] = []
    for hist in histories:  # grows as new histories are found, in BFS order
        moves = {TRUTH: (hist << 1) & mask}
        if hist.bit_count() + 1 <= k:
            moves[LIE] = ((hist << 1) | 1) & mask
        for nxt in moves.values():
            if nxt not in index:
                index[nxt] = len(histories)
                histories.append(nxt)
        transitions.append({sym: index[nxt] for sym, nxt in moves.items()})
    minimized, start = _minimize(transitions, 0)
    return _automaton_to_graph(minimized, start)


# -- forbidden-pattern games ------------------------------------------------


def build_forbidden_pattern_game(patterns: Sequence[str]) -> GameGraph:
    """Game graph whose legal statement strings avoid every forbidden pattern.

    Patterns are strings over T/L; the set must be reduced (no pattern a
    substring of another).  States are pattern-prefix matcher states;
    transitions that would complete a pattern are deleted, dead-end states
    are pruned, and the result must come out strongly connected and
    aperiodic.
    """
    pats = [p.upper() for p in patterns]
    if not pats:
        raise OracleBuildError("pattern set must be non-empty")
    for p in pats:
        if not p or set(p) - {"T", "L"}:
            raise OracleBuildError(f"pattern {p!r} must be a non-empty string over T/L")
    for i, p in enumerate(pats):
        for j, q in enumerate(pats):
            if i != j and p in q:
                raise OracleBuildError(
                    f"pattern set is not reduced: {p!r} is a substring of {q!r}"
                )

    # matcher states: proper prefixes of patterns; transition = longest
    # suffix of state+symbol that is still a prefix; completing any pattern
    # kills the transition
    prefixes = {""}
    for p in pats:
        for i in range(1, len(p)):
            prefixes.add(p[:i])
    states = sorted(prefixes, key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(states)}
    symbol_of = {TRUTH: "T", LIE: "L"}

    pattern_set = set(pats)

    def target(state: str, ch: str) -> Optional[str]:
        word = state + ch
        if any(word[cut:] in pattern_set for cut in range(len(word))):
            return None
        for cut in range(len(word)):
            if word[cut:] in prefixes:
                return word[cut:]
        return ""

    transitions: list[dict[str, int]] = [dict() for _ in states]
    for s, state in enumerate(states):
        for sym, ch in symbol_of.items():
            t = target(state, ch)
            if t is not None:
                transitions[s][sym] = index[t]

    # prune dead ends (no legal continuation), cascading
    alive = set(range(len(states)))
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            if not any(t in alive for t in transitions[s].values()):
                alive.discard(s)
                changed = True
    if 0 not in alive:
        raise OracleBuildError("pattern set forbids everything: no infinite legal string")
    kept = sorted(alive)
    remap = {s: i for i, s in enumerate(kept)}
    pruned = [
        {sym: remap[t] for sym, t in transitions[s].items() if t in alive} for s in kept
    ]
    minimized, start = _minimize(pruned, remap[0])
    graph = _automaton_to_graph(minimized, start)
    cls = classify(graph)
    if cls.kind is not GraphKind.STRONGLY_CONNECTED_APERIODIC:
        raise OracleBuildError(f"pattern game is not supported: {cls.reason or cls}")
    return graph


# -- stopping variant --------------------------------------------------------


def stop_probability_formula(n: int, i: int) -> float:
    """Closed-form optimal stop probability from node i in the stopping game.

    (2^n - 1) / (3 (2^(n-1) + 2^(n-2) - 1)) for i = 1 and
    (2^n - 1) / (2^(n+1) - 2^(i-2) - 2) for 3 <= i <= n, evaluated with
    numerator and denominator divided by 2^n so that no power overflows.
    """
    tiny = 2.0**-n
    if i == 1:
        return (1.0 - tiny) / (3.0 * (0.75 - tiny))
    if i == 2:
        return 0.0
    if 3 <= i <= n:
        return (1.0 - tiny) / (2.0 - 2.0 ** (i - 2 - n) - 2.0 * tiny)
    raise ValueError(f"node index {i} outside 1..{n}")


def build_stopping_variant(n: int) -> GameGraph:
    """One lie per window of n, and the oracle may stop after telling a truth.

    The graph is the one-lie window game plus a terminal "stop" node of
    value 1, reachable from the start node and from every post-truth node
    (all nodes except the just-lied node 2).  Construction is self-checking:
    the solved stop probabilities must match the known closed form.
    """
    if n < 2:
        raise OracleBuildError("stopping variant requires n >= 2")
    if n > MAX_WINDOW_STATES:  # window:n,1 has n raw histories
        raise OracleBuildError(f"window-stop:{n} has more than {MAX_WINDOW_STATES} raw histories, "
                               "too many to build")
    base = build_window_game(n, 1)
    labels = list(base.labels) + ["stop"]
    edges = [(base.labels[i], base.labels[j]) for i, j in base.edges()]
    edge_labels = {
        (base.labels[i], base.labels[j]): lab
        for (i, j), lab in (base.edge_labels or {}).items()
    }
    for node in range(n):
        if node == 1:  # the just-lied state has no stop move
            continue
        edges.append((base.labels[node], "stop"))
        edge_labels[(base.labels[node], "stop")] = "stop"
    graph = build_graph(labels, edges, {"stop": 1}, edge_labels=edge_labels)

    chooser = build_profile(solve_terminating(graph), beta=0).chooser
    stop, last = graph.index_of("stop"), graph.edge_offsets[1:] - 1
    for i in range(1, n + 1):
        want = stop_probability_formula(n, i)
        node = graph.index_of(str(i))
        # "stop" has the highest index: the last successor of a node that can stop
        got = float(chooser[last[node]]) if graph.successors[node][-1] == stop else 0.0
        if abs(got - want) > _STOP_FORMULA_TOL:
            raise OracleBuildError(
                f"stopping-variant construction failed its self-check at node {i}: "
                f"stop probability {got!r} != {want!r}"
            )
    return graph


# -- closed-form reference for the one-lie family ----------------------------


@dataclass
class Gn1Reference:
    """Exact quantities for the one-lie-per-window-of-n game."""

    n: int
    lam: float                  # largest root of lambda^n - lambda^(n-1) - 1
    radius: float               # lam / 2
    right_vec: np.ndarray
    left_vec: np.ndarray
    truth_prob: float           # lam^-1
    lie_prob: float             # lam^-n
    wager: float                # lam^-1 - lam^-n, the minimum-risk wager
    invariant: np.ndarray       # (lam^n, 1, ..., 1) / (lam^n + n - 1)


def _char_poly_root(n: int, tol: float = 1e-14) -> float:
    lo, hi = 1.0, 2.0
    f = lambda lam: lam**n - lam ** (n - 1) - 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def gn1_reference(n: int) -> Gn1Reference:
    """Bisection root plus the assembled closed forms, for n >= 2."""
    if n < 2:
        raise ValueError("reference family is defined for n >= 2")
    lam = _char_poly_root(n)
    right = np.array([lam ** (n - 1)] + [lam**j for j in range(n - 1)])
    left = np.array([lam ** (n - 1 - j) for j in range(n)])
    invariant = np.ones(n)
    invariant[0] = lam**n
    invariant /= lam**n + n - 1
    return Gn1Reference(
        n=n,
        lam=lam,
        radius=lam / 2.0,
        right_vec=right,
        left_vec=left,
        truth_prob=1.0 / lam,
        lie_prob=lam**-n,
        wager=1.0 / lam - lam**-n,
        invariant=invariant,
    )
