"""Workloads: seeded game corpora and the command list of one round.

A workload is a list of games and a list of operations.  Each operation is
one ``pathwager`` command line, run in-process through ``cli.dispatch``.
Every round runs the same operations in the same order, so the share of
operations counted as failed is the same in every run.

Games are either Lying Oracle games, which the program itself generates
from an oracle spec during set-up, or graphs that this module draws from
the run's seed.  The program receives only the graph files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("oracle_sc", "mc_play", "absorbing_certify", "cli_corpus")

# Failures the program is known to produce on seed-independent inputs.  An
# operation tagged with one of them is counted failed when it fails exactly
# this way, and is checked like any other operation if it succeeds.
FAULTS = {
    # strategy.build_profile at beta = 1 on window-stop:20 and :30: the
    # smallest wagers are 9.5e-7 and 9.3e-10, and (p - beta p_min) / w
    # overshoots the 1e-12 clamp.
    "profile_clamp": (1, "guess probabilities out of range"),
    # verify on window:30,1: the values match the closed form, but the
    # 400-step scaled power audit leaves a residual of 7.6e-6 > 1e-8.
    "audit_residual": (2, None),
}


@dataclass
class Game:
    """One input graph.

    ``oracle`` is the spec the program generates the graph from; ``doc`` is
    a graph document drawn here.  ``kind`` is the class the benchmark built
    the graph to have ("fan", "tree", "terminating", "sc", or "invalid").
    """

    name: str
    kind: str
    oracle: str | None = None
    doc: dict | None = None
    raw: str | None = None          # file content for malformed inputs
    exact: bool = False
    file: str = ""                  # path, set when the file is written


@dataclass
class Op:
    """One command of a round.

    ``args`` follow the graph argument.  ``expect`` is "ok" or
    "input_error" (the correct outcome is exit code 1 with an ``error:``
    line); ``faults`` names the FAULTS the operation is counted failed for.
    """

    id: str
    cmd: str
    game: str | None
    args: list[str] = field(default_factory=list)
    stdin: str | None = None
    transcript: bool = False        # play: write the transcript with --out
    expect: str = "ok"
    faults: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    games: list[Game]
    ops: list[Op]
    patterns: dict[str, str] = field(default_factory=dict)   # file name -> text


# -- graph generators ---------------------------------------------------------------
#
# Drawn graphs come from CORPUS_SEED, not from the run's seed.  Both FAULTS can
# show on a drawn graph: a small but nonzero wager trips build_profile's clamp
# at beta = 1, and a slowly absorbing or slowly mixing graph fails verify's
# 400-step audit.  On graphs that changed with the seed, the number of failed
# operations would change with it, so the corpus is fixed and every operation
# on a drawn graph that can meet a fault is tagged with it (``_drawn_faults``).
# checks.py counts such a failure only where its own reference shows the
# cause.  The run's seed picks the simulation and play seeds and the scripted
# play sessions.

CORPUS_SEED = 0


def _values(rng: random.Random, labels, exact: bool) -> dict:
    out = {}
    for lab in labels:
        num = rng.randint(1, 12)
        if exact and rng.random() < 0.3:
            den = rng.choice((2, 3, 5, 7))
            frac = Fraction(num, den)
            out[lab] = [frac.numerator, frac.denominator] if frac.denominator > 1 else num
        else:
            out[lab] = num
    return out


def fan_doc(rng: random.Random, leaves: int) -> dict:
    names = [f"leaf{i}" for i in range(leaves)]
    return {"nodes": ["root"] + names, "edges": [["root", x] for x in names],
            "values": _values(rng, names, exact=True)}


def tree_doc(rng: random.Random, size: int, max_children: int = 4) -> dict:
    """Random recursive tree on ``size`` nodes rooted at n0; leaves carry values."""
    labels = [f"n{i}" for i in range(size)]
    children = [0] * size
    edges = []
    for k in range(1, size):
        while True:
            parent = rng.randrange(k)
            if children[parent] < max_children:
                break
        children[parent] += 1
        edges.append([f"n{parent}", f"n{k}"])
    leaves = [labels[i] for i in range(size) if children[i] == 0]
    return {"nodes": labels, "edges": edges, "values": _values(rng, leaves, exact=True)}


def terminating_doc(rng: random.Random, internal: int, terminals: int) -> dict:
    """Cyclic graph in which every node reaches a terminal.

    Node i has a forward edge to one of the next few nodes (the last ones
    exit to a terminal), so every node reaches a terminal; further edges go
    anywhere, which closes cycles.
    """
    labels = [f"v{i}" for i in range(internal)] + [f"t{k}" for k in range(terminals)]
    edges = []
    for i in range(internal):
        span = list(range(i + 1, min(i + 4, internal)))
        first = rng.choice(span) if span else internal + rng.randrange(terminals)
        succ = {first}
        degree = rng.choices((1, 2, 3), weights=(2, 5, 3))[0]
        while len(succ) < degree:
            j = rng.randrange(internal + terminals)
            if j != i:
                succ.add(j)
        edges.extend([labels[i], labels[j]] for j in sorted(succ))
    return {"nodes": labels, "edges": edges,
            "values": _values(rng, labels[internal:], exact=False)}


def slow_absorbing_doc(rng: random.Random, ring: int, exits: int) -> dict:
    """Ring with one chord per node (no forced moves) and an exit at only
    ``exits`` of its nodes: optimal play wanders the ring for tens of steps."""
    labels = [f"r{i}" for i in range(ring)]
    succ = [{(i + 1) % ring} for i in range(ring)]
    for i in range(ring):
        while len(succ[i]) < 2:
            succ[i].add(rng.randrange(ring))
    edges = [[labels[i], labels[j]] for i in range(ring) for j in sorted(succ[i])]
    values = {}
    for k, i in enumerate(sorted(rng.sample(range(ring), exits))):
        edges.append([labels[i], f"exit{k}"])
        values[f"exit{k}"] = rng.randint(2, 9)
    return {"nodes": labels + list(values), "edges": edges, "values": values}


def sc_doc(rng: random.Random, size: int) -> dict:
    """Ring with a loop at s0 (so aperiodic) and size // 2 random chords."""
    labels = [f"s{i}" for i in range(size)]
    edges = {(i, (i + 1) % size) for i in range(size)} | {(0, 0)}
    for _ in range(size // 2):
        edges.add((rng.randrange(size), rng.randrange(size)))
    return {"nodes": labels, "values": {},
            "edges": [[labels[i], labels[j]] for i, j in sorted(edges)]}


# -- workloads ------------------------------------------------------------------

SLOW_RING = 32


def _oracle(spec: str) -> Game:
    kind = "terminating" if spec.startswith("window-stop") else "sc"
    return Game(name=spec.replace(":", "_").replace(",", "_"), kind=kind, oracle=spec)


def _core_ops(game: Game, reps: int, horizon: int | None, seed: int,
              verify: bool = True, faults: tuple[str, ...] = ()) -> list[Op]:
    """solve, strategy, analyze, simulate (and verify) on one game."""
    sim = ["--reps", str(reps), "--seed", str(seed)]
    if horizon is not None:
        sim += ["--horizon", str(horizon)]
    ops = [
        Op(f"{game.name}/solve", "solve", game.name),
        Op(f"{game.name}/strategy", "strategy", game.name, ["--beta", "1"]),
        Op(f"{game.name}/analyze", "analyze", game.name),
        Op(f"{game.name}/simulate", "simulate", game.name, sim),
    ]
    if verify:
        ops.append(Op(f"{game.name}/verify", "verify", game.name))
    for op in ops:
        if op.cmd in ("strategy", "simulate", "verify"):
            op.faults = faults
    return ops


def _probe(rng: random.Random, seed: int) -> tuple[list[Game], list[Op]]:
    """Two small games that reach the tree, terminating, stopping, deviation
    and brute-force paths, so that every layer metric is above 0 in every
    workload."""
    tree = Game("probe_tree", "tree", doc=tree_doc(rng, 7), exact=True)
    stop = _oracle("window-stop:5")
    ops = _core_ops(tree, 500, None, seed + 1) + _core_ops(stop, 500, None, seed + 2)
    ops.append(Op("window-stop_5/generate", "generate", None, ["--oracle", "window-stop:5"]))
    return [tree, stop], ops


def oracle_sc(seed: int, smoke: bool) -> Workload:
    """Strongly connected Lying Oracle window games up to N = 1820."""
    rng = random.Random(CORPUS_SEED * 7919 + 1)
    # (spec, reps, verify); verify on one-lie windows passes for n <= 20 only,
    # and window:16,4 would spend about 2 minutes in the dense audit.
    plan = [("window:3,1", 10000, True), ("window:8,1", 2000, True),
            ("window:16,1", 2000, True), ("window:60,1", 1000, False),
            ("window:200,1", 1000, False), ("window:14,3", 1000, True),
            ("window:12,4", 1000, True), ("window:16,4", 300, False)]
    if smoke:
        plan = [("window:3,1", 500, True), ("window:8,1", 200, True),
                ("window:12,3", 100, True)]
    games, ops = [], []
    for k, (spec, reps, verify) in enumerate(plan):
        game = _oracle(spec)
        games.append(game)
        ops.append(Op(f"{game.name}/generate", "generate", None, ["--oracle", spec]))
        ops += _core_ops(game, reps, 100, seed * 100 + k, verify)
    # counted failure: the audit residual on the slow mixer window:30,1
    game = _oracle("window:30,1")
    games.append(game)
    ops += _core_ops(game, 1000, 100, seed * 100 + 50, verify=False)
    ops.append(Op(f"{game.name}/verify", "verify", game.name, faults=("audit_residual",)))
    probe_games, probe_ops = _probe(rng, seed * 100 + 60)
    return Workload("oracle_sc", games + probe_games, ops + probe_ops)


def mc_play(seed: int, smoke: bool) -> Workload:
    """Large replication counts: the step kernel and the Philox draws."""
    rng = random.Random(CORPUS_SEED * 7919 + 2)
    scale = 20 if smoke else 1
    slow = Game("slow_ring", "terminating",
                doc=slow_absorbing_doc(rng, 8 if smoke else SLOW_RING, 1 if smoke else 2))
    deep = Game("deep_tree", "tree", exact=True,
                doc=tree_doc(rng, 30 if smoke else 120, max_children=2))
    plan = [(_oracle("window:3,1"), 40000, 100), (_oracle("window:12,3"), 4000, 100),
            (_oracle("window-stop:6"), 40000, None), (_oracle("window-stop:12"), 40000, None),
            (slow, 10000, None), (deep, 10000, None)]
    games, ops = [], []
    for k, (game, reps, horizon) in enumerate(plan):
        games.append(game)
        if game.oracle:
            ops.append(Op(f"{game.name}/generate", "generate", None, ["--oracle", game.oracle]))
        ops += _core_ops(game, max(reps // scale, 100), horizon, seed * 100 + k)
    return Workload("mc_play", games, ops)


def absorbing_certify(seed: int, smoke: bool) -> Workload:
    """Terminating games: deviation searches, dense audits, stopping series."""
    rng = random.Random(CORPUS_SEED * 7919 + 3)
    if smoke:
        stops, random_sizes, tree_sizes = (10, 20), (12,), (20,)
    else:
        stops, random_sizes, tree_sizes = (10, 20, 30, 40, 60), (100, 200, 300), (200, 400)
    games, ops = [], []
    for k, n in enumerate(stops):
        game = _oracle(f"window-stop:{n}")
        faults = ("profile_clamp",) if n in (20, 30) else ()
        games.append(game)
        ops.append(Op(f"{game.name}/generate", "generate", None, ["--oracle", game.oracle]))
        ops += _core_ops(game, 2000, None, seed * 100 + k, faults=faults)
        ops.append(Op(f"{game.name}/analyze_csv", "analyze", game.name, ["--format", "csv"]))
        ops.append(Op(f"{game.name}/export-dot", "export-dot", game.name, ["--beta", "1"],
                      faults=faults))
    for k, size in enumerate(random_sizes):
        terminals = max(2, size // 20)
        game = Game(f"term{size}", "terminating",
                    doc=terminating_doc(rng, size - terminals, terminals))
        games.append(game)
        ops += _core_ops(game, 2000, None, seed * 100 + 20 + k)
        ops.append(Op(f"{game.name}/export-dot", "export-dot", game.name, ["--beta", "1"]))
    for k, size in enumerate(tree_sizes):
        game = Game(f"tree{size}", "tree", doc=tree_doc(rng, size), exact=True)
        games.append(game)
        ops += _core_ops(game, 2000, None, seed * 100 + 40 + k)
        ops.append(Op(f"{game.name}/solve_exact", "solve", game.name, ["--exact"]))
    # one strongly connected game keeps the invariant-measure path measured
    game = _oracle("window:3,1")
    games.append(game)
    ops += _core_ops(game, 1000, 100, seed * 100 + 60)
    probe_games, probe_ops = _probe(rng, seed * 100 + 70)
    return Workload("absorbing_certify", games + probe_games, ops + probe_ops)


PATTERN_SETS = (("LL", "LTL"), ("LLL", "LTLL"))
# Avoiding LTL and LLT leaves transient automaton states: generate refuses it.
UNSUPPORTED_PATTERNS = ("LTL", "LLT")


def _play_script(doc: dict, rng: random.Random, side: str) -> str:
    """A scripted session: some illegal entries, then legal ones, then quit.

    As chooser the script walks a path drawn here, which fixes the whole
    session; as guesser it plays one round and quits, since the next node
    depends on the program's chooser.
    """
    succ: dict[str, list[str]] = {n: [] for n in doc["nodes"]}
    for a, b in doc["edges"]:
        succ[a].append(b)
    node = next(n for n in doc["nodes"] if succ[n])
    if side == "guesser":
        return "\n".join(["2", "oops", "0.5", "nowhere", sorted(succ[node])[0], "quit"]) + "\n"
    lines = ["nowhere"]
    for _ in range(6):
        if not succ[node]:
            break
        node = rng.choice(sorted(succ[node]))
        lines.append(node)
    lines.append("quit")
    return "\n".join(lines) + "\n"


def cli_corpus(seed: int, smoke: bool) -> Workload:
    """Desk-size graphs through every subcommand: fixed per-call cost."""
    rng = random.Random(CORPUS_SEED * 7919 + 4)
    scripts = random.Random(seed * 7919 + 5)
    # sizes are fixed so that every seed costs about the same: fans of 2-6
    # leaves, trees of 5-12 nodes and terminating graphs of 4-12 nodes, half
    # of each small enough (<= 8 nodes) for verify's backward induction
    shapes = list(zip((2, 3, 4, 5, 6, 3), (5, 7, 8, 10, 11, 12),
                      ((3, 1), (4, 2), (5, 1), (8, 2), (9, 1), (10, 2)), (3, 4, 5, 7, 8, 10)))
    games: list[Game] = []
    for k, (leaves, tree, (internal, terminals), sc) in enumerate(shapes[:2] if smoke else shapes):
        games += [Game(f"fan{k}", "fan", doc=fan_doc(rng, leaves), exact=True),
                  Game(f"tree{k}", "tree", doc=tree_doc(rng, tree), exact=True),
                  Game(f"term{k}", "terminating", doc=terminating_doc(rng, internal, terminals)),
                  Game(f"sc{k}", "sc", doc=sc_doc(rng, sc))]
    pattern_files = {f"patterns{k}.txt": "\n".join(p) + "\n"
                     for k, p in enumerate(PATTERN_SETS)}
    pattern_files["unsupported.txt"] = "\n".join(UNSUPPORTED_PATTERNS) + "\n"
    for spec in [f"patterns:patterns{k}.txt" for k in range(len(PATTERN_SETS))] + [
            "window:5,2", "window:6,1", "window-stop:5"]:
        game = _oracle(spec)
        game.name = game.name.replace(".txt", "")
        games.append(game)

    ops: list[Op] = []
    for k, game in enumerate(games):
        g = game.name
        ops += [Op(f"{g}/solve", "solve", g),
                Op(f"{g}/solve_truncate", "solve", g, ["--truncate", "20"])]
        if game.exact:
            ops.append(Op(f"{g}/solve_exact", "solve", g, ["--exact"]))
        for beta in ("0", "0.5", "1"):
            ops.append(Op(f"{g}/strategy_{beta}", "strategy", g, ["--beta", beta]))
        ops.append(Op(f"{g}/analyze", "analyze", g))
        if game.kind != "sc":
            ops.append(Op(f"{g}/analyze_csv", "analyze", g, ["--format", "csv"]))
        sim = ["--reps", "500", "--seed", str(seed * 100 + k)]
        ops.append(Op(f"{g}/simulate", "simulate", g, sim))
        if k % 4 == 0:
            ops.append(Op(f"{g}/simulate_csv", "simulate", g, sim + ["--format", "csv"]))
        ops += [Op(f"{g}/verify", "verify", g),
                Op(f"{g}/export-dot", "export-dot", g),
                Op(f"{g}/export-dot_beta", "export-dot", g, ["--beta", "1"])]
        if game.doc is not None:
            for side in ("chooser", "guesser"):
                ops.append(Op(f"{g}/play_{side}", "play", g,
                              ["--as", side, "--seed", str(seed * 100 + k)],
                              stdin=_play_script(game.doc, scripts, side), transcript=True))
        if game.oracle is not None:
            ops.append(Op(f"{g}/generate", "generate", None, ["--oracle", game.oracle]))

    bad = [Game("bad_json", "invalid", raw='{"nodes": ["a", "b"], "edges": [["a", "b"]'),
           Game("bad_missing_edges", "invalid", raw='{"nodes": ["a"], "values": {"a": 1}}'),
           Game("bad_no_value", "invalid",
                raw=json.dumps({"nodes": ["a", "b"], "edges": [["a", "b"]], "values": {}})),
           Game("bad_periodic", "invalid",
                raw=json.dumps({"nodes": ["a", "b"], "edges": [["a", "b"], ["b", "a"]],
                                "values": {}})),
           Game("bad_stuck", "invalid",
                raw=json.dumps({"nodes": ["a", "b", "c", "t"],
                                "edges": [["a", "b"], ["a", "t"], ["b", "c"], ["c", "b"]],
                                "values": {"t": 2}}))]
    games += bad
    for game in bad:
        ops.append(Op(f"{game.name}/solve", "solve", game.name, expect="input_error"))
    ops += [Op("bad_periodic/simulate", "simulate", "bad_periodic", expect="input_error"),
            Op("bad_stuck/verify", "verify", "bad_stuck", expect="input_error"),
            Op("fan0/strategy_beta2", "strategy", "fan0", ["--beta", "2"],
               expect="input_error"),
            Op("missing/solve", "solve", None, ["--graph", "@no-such-graph.json"],
               expect="input_error"),
            Op("bogus/generate", "generate", None, ["--oracle", "bogus:3"],
               expect="input_error"),
            Op("unsupported/generate", "generate", None, ["--oracle", "patterns:unsupported.txt"],
               expect="input_error"),
            Op("sc0/solve_exact", "solve", "sc0", ["--exact"], expect="input_error")]
    return Workload("cli_corpus", games, ops, pattern_files)


def _drawn_faults(op: Op) -> tuple[str, ...]:
    """The FAULTS an operation on a drawn graph can meet: every command that
    builds the beta = 1 profile can meet the clamp, and verify the audit."""
    if op.cmd == "verify":
        return ("profile_clamp", "audit_residual")
    beta = op.args[op.args.index("--beta") + 1] if "--beta" in op.args else None
    if op.cmd in ("simulate", "play") or beta == "1":
        return ("profile_clamp",)
    return ()


def build(name: str, seed: int, smoke: bool) -> Workload:
    by_name = {"oracle_sc": oracle_sc, "mc_play": mc_play,
               "absorbing_certify": absorbing_certify, "cli_corpus": cli_corpus}
    wl = by_name[name](seed, smoke)
    drawn = {g.name for g in wl.games if g.doc is not None}
    for op in wl.ops:
        if op.game in drawn and op.expect == "ok":
            op.faults = _drawn_faults(op)
    return wl
