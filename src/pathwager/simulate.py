"""Monte Carlo engine for the wagering game.

One play step at node i: the guesser draws a guess from her profile and
wagers the fraction w_i of her fortune, the chooser independently draws the
next node, and the fortune is multiplied by

    1 + (n_i - 1) w_i   correct guess, out-degree n_i >= 2
    1 + w_i             correct guess, out-degree 1
    1 - w_i             incorrect guess.

Reaching a terminal node multiplies the fortune by that node's value and
ends the game.

A profile holds both players' strategies per edge, in the layout of
``GameGraph.edge_offsets``: row i, ``edge_offsets[i]:edge_offsets[i + 1]``,
holds node i's successors in order.  One step kernel picks every move:
node i's successors and both players' CDFs over them fill row i of flat
per-edge tables (``_edge_tables``), and a bisection in that row
(``_bisect``) picks the guess and the move, the index
``searchsorted(cdf, u, side="right")`` capped at degree - 1.  ``play_step``
runs it for one game, ``run`` for all replications together, vectorised.
Every call takes the profile, and reads the solution and graph it was built
from.  Replications drop out at a terminal; strongly connected games instead
run a fixed horizon, discounted every step by the solution's r.
``_DRAW_BUDGET`` bounds both the Philox blocks per call and the replications
per kernel pass: one call draws a span of steps for all live replications
while they fit, and past it each step runs over slices of them, so the
working set is O(E + budget) beside O(replications) results.

``exploit_search`` sweeps best replies over ``GameGraph.degree_blocks``, one
m x d array pass per out-degree d and sweep, on the profile's entries
gathered once through each block's edge indices.

Randomness is counter-based (Philox 4x32, 10 rounds): the pair of uniforms
consumed at step t of replication k is a pure function of (seed, k, t), so
replications are independent streams and results are bit-identical whether
replications run serially or concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import GameGraph, GraphKind
from .strategy import StrategyProfile
from .values import UnsupportedGraphError

_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_DEFAULT_MAX_STEPS = 10**5
_DRAW_BUDGET = 8192  # Philox blocks the step kernel draws ahead
_CENSOR_WARN_RATE = 0.01


def _philox_block(c0, c1, c2, c3, k0: int, k1: int):
    """One Philox 4x32-10 block per counter entry.

    Each 32-bit word is held in uint64, as an array or as a scalar that
    broadcasts, so the 32x32-bit products are exact and no round casts.
    Array words share one shape; the rounds overwrite uint64 ones (others
    are copied), each product and its low half in the word they came from.
    """
    c0, c1, c2, c3 = (np.asarray(c, np.uint64) if np.ndim(c) else np.uint64(c)
                      for c in (c0, c1, c2, c3))
    for _ in range(10):
        c0 *= _PHILOX_M0  # in place on arrays; a scalar word is rebound
        c2 *= _PHILOX_M1
        c1 ^= (c2 >> _SHIFT32) ^ np.uint64(k0)
        c3 ^= (c0 >> _SHIFT32) ^ np.uint64(k1)
        c2 &= _LO32
        c0 &= _LO32
        c0, c1, c2, c3 = c1, c2, c3, c0
        k0, k1 = (k0 + 0x9E3779B9) & 0xFFFFFFFF, (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return c0, c1, c2, c3


def step_uniforms(seed: int, reps: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """Two independent uniforms in [0, 1) per replication and step.

    ``steps`` is one step, or an array that broadcasts against ``reps`` (a
    column of steps gives one row per step).  The counter is (step, rep_low,
    rep_high, 0), rep_high a scalar 0 while every id is below 2**32, and the
    key is the 64-bit seed, so every (seed, replication, step) triple owns
    its own block.  Each uniform packs 53 bits from two 32-bit output words.
    ``reps`` and ``steps`` are only read: Philox overwrites words made here.
    """
    reps, steps = np.atleast_1d(np.asarray(reps, dtype=np.uint64)), np.asarray(steps, np.uint64)
    if steps.ndim:  # every array word takes the block's shape
        reps, steps = np.broadcast_arrays(reps, steps)
    w0, w1, w2, w3 = _philox_block(
        steps & _LO32, reps & _LO32, reps >> _SHIFT32 if reps.max(initial=0) > _LO32 else 0, 0,
        seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF,
    )
    for hi, lo in (w0, w1), (w2, w3):  # 53 bits per uniform, packed over hi
        np.left_shift(np.right_shift(hi, np.uint64(5), out=hi), np.uint64(26), out=hi)
        hi |= np.right_shift(lo, np.uint64(6), out=lo)
    return tuple(np.divide(hi, 9007199254740992.0, out=hi.view(np.float64)) for hi in (w0, w2))


@dataclass
class StepRng:
    """Stream position for scalar play: replication ``rep`` of ``seed``."""

    seed: int
    rep: int = 0
    step: int = 0

    def next_pair(self) -> tuple[float, float]:
        u1, u2 = step_uniforms(self.seed, np.array([self.rep]), self.step)
        self.step += 1
        return float(u1[0]), float(u2[0])


@dataclass
class SimulationConfig:
    """Replications of play under ``profile``, on the graph it was built for."""

    profile: StrategyProfile
    start: int
    replications: int
    max_steps: int = _DEFAULT_MAX_STEPS
    seed: int = 0
    checkpoints: Optional[tuple[int, ...]] = None
    track_occupancy: bool = False  # also keep the reps x N visit matrix

    @property
    def graph(self) -> GameGraph:
        return self.profile.graph

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0 <= self.start < self.graph.num_nodes:
            raise ValueError(f"start node {self.start} is outside 0..{self.graph.num_nodes - 1}")
        if self.graph.is_terminal(self.start):
            raise ValueError("start node must be non-terminal")


@dataclass
class SimulationResult:
    config: SimulationConfig
    kind: GraphKind
    final_fortunes: np.ndarray
    stopping_times: np.ndarray            # steps played (terminating: hitting time)
    terminal_nodes: np.ndarray            # -1 where censored or non-terminating
    censored: np.ndarray
    checkpoints: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    visits: Optional[np.ndarray] = None     # visit counts per node (strongly connected)
    occupancy: Optional[np.ndarray] = None  # visit counts per (replication, node), on request
    warnings: list = field(default_factory=list)

    def summary(self) -> dict:
        graph = self.config.graph
        out: dict = {"replications": int(len(self.final_fortunes))}
        if self.kind is GraphKind.STRONGLY_CONNECTED_APERIODIC:
            out["horizon"] = int(self.config.max_steps)
            out["discount"] = self.config.profile.solution.spectral.radius
            out["discounted_checkpoints"] = {}
            for t in sorted(self.checkpoints):
                _, fortune = self.checkpoints[t]
                out["discounted_checkpoints"][str(t)] = {
                    "mean": float(fortune.mean()),
                    "se": _se(fortune),
                }
            freq = self.visits / self.visits.sum()
            out["occupancy"] = dict(zip(graph.labels, freq.tolist()))
        else:
            live = ~self.censored
            out["censored"] = int(self.censored.sum())
            fortunes = self.final_fortunes[live]
            times = self.stopping_times[live]
            out["mean_fortune"] = float(fortunes.mean()) if fortunes.size else None
            out["se_fortune"] = _se(fortunes)
            out["mean_stopping_time"] = float(times.mean()) if times.size else None
            out["se_stopping_time"] = _se(times.astype(float))
            hits: dict[str, float] = {}
            if fortunes.size:
                for k in graph.terminals:
                    hits[graph.labels[k]] = float((self.terminal_nodes[live] == k).mean())
            out["terminal_frequencies"] = hits
            counts = np.bincount(times) if times.size else np.array([], dtype=int)
            out["stopping_histogram"] = {
                str(t): int(c) for t, c in enumerate(counts) if c
            }
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def _se(x: np.ndarray) -> Optional[float]:
    if x.size < 2:
        return None
    return float(x.std(ddof=1) / np.sqrt(x.size))


def play_step(profile: StrategyProfile, node: int, fortune: float,
              rng: StepRng) -> tuple[int, float]:
    """One round at a non-terminal node; returns (next node, new fortune).

    The guess is drawn before the choice from the same counter block; the
    two draws are independent, and both are picked by the step kernel of
    ``run``.  Landing on a terminal node multiplies the fortune by that
    node's value.
    """
    graph = profile.graph
    if not 0 <= node < graph.num_nodes:
        raise ValueError(f"node {node} is outside 0..{graph.num_nodes - 1}")
    if graph.is_terminal(node):
        raise ValueError("cannot play from a terminal node")
    u_guess, u_choice = rng.next_pair()
    offsets, dst, g_cdf, c_cdf, win, lose, value = _edge_tables(profile)
    first, last = offsets[node], offsets[node + 1] - 1
    rounds = int(last - first).bit_length()
    guess, choice = (int(_bisect(cdf, first, last, u, rounds))
                     for cdf, u in ((g_cdf, u_guess), (c_cdf, u_choice)))
    fortune *= float(win[node] if guess == choice else lose[node])
    nxt = int(dst[choice])
    if graph.is_terminal(nxt):
        fortune *= float(value[nxt])
    return nxt, fortune


def _multipliers(n: int, w: float) -> tuple[float, float]:
    """Fortune multipliers (correct guess, incorrect guess) at out-degree n, wager w.

    A correct guess pays (n - 1) w, or w on a forced move; a wrong one loses w.
    """
    return 1.0 + max(n - 1, 1) * w, 1.0 - w


def _move_payoffs(g: np.ndarray, w, cont: np.ndarray) -> np.ndarray:
    """The guesser's expected fortune for each chooser move, when she guesses
    by the mix g and wagers w, and successor j is worth cont_j; moves run
    along the last axis (a degree block passes its wagers as a column)."""
    win, lose = _multipliers(cont.shape[-1], w)
    return (g * win + (1.0 - g) * lose) * cont


def _best_reply(p: np.ndarray, cont: np.ndarray):
    """The guesser's best (guess, wager = 1) against the chooser mix p, and its worth.

    Her payoff (1 - w) p.cont + w n p_j cont_j is linear in w, and the mean
    of n p_j cont_j over j is p.cont, so staking everything on the largest
    p_j cont_j (the first, on ties) is a best reply.  On a forced move it
    doubles cont.  Moves run along the last axis, one reply per row.
    """
    win, _ = _multipliers(cont.shape[-1], 1.0)
    stake = p * cont
    return stake.argmax(axis=-1), win * stake.max(axis=-1)


def run(config: SimulationConfig) -> SimulationResult:
    """Run all replications; deterministic given (seed, config).

    A strongly connected game is discounted every step by the solution's r.
    """
    solution = config.profile.solution
    kind = solution.graph_class.kind
    if kind is not GraphKind.STRONGLY_CONNECTED_APERIODIC:
        return _walk(config, kind, 1.0, set())
    checkpoints = set(config.checkpoints or (config.max_steps,))
    if any(t < 1 or t > config.max_steps for t in checkpoints):
        raise ValueError("checkpoints must lie in 1..max_steps")
    return _walk(config, kind, solution.spectral.radius, checkpoints)


def _walk(config: SimulationConfig, kind: GraphKind, discount: float, checkpoints: set):
    """The step kernel: each live replication plays one round per step.

    Replications drop out at a terminal and are censored if still live after
    max_steps.  Strongly connected games (where none drops out) are discounted
    every step and record checkpoints and per-node visit counts (per
    replication too if the config asks for it); terminating games pass
    ``discount`` = 1.0, by which multiplying is exact.  Past ``_DRAW_BUDGET``
    live replications each step runs over slices of them of that size, and
    the absorbed leave once every slice has run.  Within a drawn span, one
    that drops out leaves the rest of its column of uniforms unread.
    """
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

    t = 0
    while t < config.max_steps and active.size:
        span = max(1, min(_DRAW_BUDGET // active.size, config.max_steps - t))
        cols = slice(None)  # the live replications' columns of the drawn span
        for row in range(span):
            keep = None  # which live replications stay live, made once one drops out
            for lo in range(0, active.size, _DRAW_BUDGET):  # one slice unless span is 1
                ids = active[lo:lo + _DRAW_BUDGET]  # ``lanes`` views state until one drops out
                lanes = slice(lo, lo + ids.size) if active.size == reps else ids
                if not row:  # one id per block drawn; a scalar step spares Philox's first rounds
                    block = step_uniforms(config.seed, *((ids, t) if span == 1 else (
                        np.tile(ids, span), np.arange(t, t + span).repeat(ids.size))))
                    u_guess, u_choice = (u.reshape(span, -1) for u in block)
                nodes = state[lanes]
                first, last = offsets[nodes], offsets[nodes + 1] - 1
                guess = _bisect(g_cdf, first, last, u_guess[row][cols], rounds)
                choice = _bisect(c_cdf, first, last, u_choice[row][cols], rounds)
                nxt = dst[choice]
                fortune[lanes] *= discount * np.where(guess == choice, win[nodes], lose[nodes])
                state[lanes] = nxt  # ``nodes`` may view ``state``: it is not read again
                if horizon:
                    visits += np.bincount(nxt, minlength=graph.num_nodes)
                if occupancy is not None:
                    occupancy[ids, nxt] += 1
                absorbed = is_terminal[nxt]
                if absorbed.any():
                    done = ids[absorbed]
                    fortune[done] *= value[nxt[absorbed]]
                    stop_time[done] = t + 1
                    terminal_node[done] = nxt[absorbed]
                    keep = np.ones(active.size, dtype=bool) if keep is None else keep
                    keep[lo:lo + ids.size] = ~absorbed
            t += 1
            if t in checkpoints:
                records[t] = (state.copy(), fortune.copy())
            if keep is not None:
                active = active[keep]
                if span > 1:
                    cols = np.flatnonzero(keep) if isinstance(cols, slice) else cols[keep]
                if not active.size:
                    break

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


def _edge_tables(profile: StrategyProfile):
    """Flat per-edge tables in the profile's layout, and per-node payoffs.

    Row i of the edge tables is ``offsets[i]:offsets[i + 1]``
    (``graph.edge_offsets``): the successors of node i and the guesser's and
    chooser's CDFs over them, each the ``np.cumsum`` of the node's row of
    the profile, filled one degree block at a time.  ``win``/``lose`` are
    the node's multipliers and ``value`` the terminal values (0 elsewhere).
    """
    graph = profile.graph
    n, offsets = graph.num_nodes, graph.edge_offsets
    g_cdf, c_cdf = np.empty(offsets[-1]), np.empty(offsets[-1])
    win, lose, value = np.ones(n), np.ones(n), np.zeros(n)
    for d, nodes, _, edges in graph.degree_blocks:
        g_cdf[edges] = np.cumsum(profile.guesser[edges], axis=1)
        c_cdf[edges] = np.cumsum(profile.chooser[edges], axis=1)
        win[nodes], lose[nodes] = _multipliers(d, profile.wagers[nodes])
    value[np.diff(offsets) == 0] = [graph.values[k] for k in graph.terminals]
    return offsets, graph.targets, g_cdf, c_cdf, win, lose, value


def _bisect(cdf: np.ndarray, first: np.ndarray, last: np.ndarray, u: np.ndarray, rounds: int):
    """Per replication, the edge of CDF row [first, last] that u picks.

    A CDF row is nondecreasing, so the count of its entries <= u in [first,
    last), which the halvings of [lo, hi) find, equals searchsorted(side="right")
    over the whole row capped at degree - 1.  ``rounds`` is the bit length of
    d_max - 1; shorter rows idle once lo == hi.  Scalars pick for one game.
    """
    lo, hi = first, last
    for _ in range(rounds):
        mid = (lo + hi) >> 1
        right = (cdf[mid] <= u) & (lo < hi)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


# -- best-response search --------------------------------------------------


@dataclass
class ExploitReport:
    """Best achievable values when one side deviates from the profile.

    ``values[i]`` is the deviating side's optimal expected final fortune
    from node i against the fixed opponent; ``gain`` is the largest
    improvement over the game value across nodes (positive means the fixed
    profile is exploitable).  ``deviation`` maps each non-terminal node to
    the deviating action: a successor index (chooser) or a
    (successor, 1.0) guess-and-wager pair (guesser).
    """

    fixed_side: str
    values: np.ndarray
    gain: float
    deviation: dict[int, object]
    converged: bool


def exploit_search(profile: StrategyProfile, fixed_side: str) -> ExploitReport:
    """Search pure positional deviations against one side's fixed strategy.

    Uses exact expectation recursion (no sampling): Jacobi sweeps, each
    node updated from the previous sweep's values with the engine values as
    the start, until the largest change is within 1e-14 relative, or
    ``converged`` is False after 10 N + 50 sweeps.  Each sweep runs one
    array pass per degree block.  The chooser deviates over pure successor
    choices, the first on ties; the guesser's best reply at a node stakes
    her whole fortune on one successor, which ``_best_reply`` finds
    exactly.  ``deviation`` holds the last sweep's actions.  The fixed side
    plays ``profile``, which may be off equilibrium; the gain is always
    reported relative to the value of the solution it was built from.
    """
    if fixed_side not in ("chooser", "guesser"):
        raise ValueError("fixed_side must be 'chooser' or 'guesser'")
    solution, graph = profile.solution, profile.graph
    if not solution.graph_class.is_terminating:
        raise UnsupportedGraphError("exploit search requires a terminating graph")
    guesser_held = fixed_side == "guesser"
    mix = profile.guesser if guesser_held else profile.chooser
    blocks = [
        (nodes, succ, mix[edges], profile.wagers[nodes][:, None] if guesser_held else None)
        for _, nodes, succ, edges in graph.degree_blocks
    ]
    moves = [None] * len(blocks)
    values = solution.values.copy()
    max_sweeps = 10 * graph.num_nodes + 50
    converged = False
    for _ in range(max_sweeps):
        new = values.copy()
        for b, (nodes, succ, mix, wager) in enumerate(blocks):
            cont = values[succ]
            if guesser_held:
                # chooser picks the successor minimizing her expected fortune
                per_move = _move_payoffs(mix, wager, cont)
                moves[b], new[nodes] = per_move.argmin(axis=1), per_move.min(axis=1)
            else:
                moves[b], new[nodes] = _best_reply(mix, cont)
        if float(np.abs(new - values).max()) <= 1e-14 * max(1.0, float(np.abs(new).max())):
            values = new
            converged = True
            break
        values = new
    target = np.zeros(graph.num_nodes, dtype=np.int64)
    for (nodes, succ, _, _), k in zip(blocks, moves):
        target[nodes] = succ[np.arange(len(nodes)), k]
    rows = list(graph.nonterminals)
    targets = target[rows].tolist()
    if guesser_held:
        deviation = dict(zip(rows, targets))
        gain = float((solution.values - values)[rows].max(initial=0.0))
    else:
        deviation = {i: (j, 1.0) for i, j in zip(rows, targets)}
        gain = float((values - solution.values)[rows].max(initial=0.0))
    return ExploitReport(
        fixed_side=fixed_side,
        values=values,
        gain=gain,
        deviation=deviation,
        converged=converged,
    )
