"""Command-line surface: solve, strategy, analyze, simulate, generate, verify,
play, export-dot.

Reports are JSON (CSV where it makes sense) and every report embeds a run
manifest: the resolved configuration, the sha256 of the graph bytes that
were parsed, tool version, and seed, so equal manifests reproduce equal
outputs.  All JSON, graph files included, is written by ``writer._dumps``,
byte for byte as ``json.dumps(obj, indent=2)``.  Exit codes: 0 success,
1 validation error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import asdict, dataclass

from . import __version__
from .graph import GameGraph, GraphError, parse_graph, serialize_graph, to_dot
from .markov import analyze
from .oracle import OracleBuildError, parse_oracle_spec
from .simulate import SimulationConfig, StepRng, _bisect, _edge_tables, _multipliers, run
from .strategy import StrategyError, build_profile
from .values import ConvergenceError, UnsupportedGraphError, _truncation_series, solve
from .verify import certify_graph
from .writer import _dumps

SEED_ENV_VAR = "PATHWAGER_SEED"


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    input_digests: dict
    version: str = __version__
    seed: int | None = None


def _load_graph(path: str) -> tuple[GameGraph, str]:
    """The graph in the file and the sha256 of the very bytes it was parsed from."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_graph(data.decode("utf-8")), hashlib.sha256(data).hexdigest()


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise GraphError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return 0


def _emit(report: dict, args, digest: str, **extra) -> None:
    """Attach the run manifest and write the report as JSON.

    The manifest's config holds every parsed option that is set, overridden
    by ``extra`` (values the handler resolved, such as the seed).  ``digest``
    is the sha256 ``_load_graph`` returned for ``args.graph``.
    """
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    config.update(extra)
    manifest = RunManifest(
        subcommand=args.subcommand,
        config=dict(sorted(config.items())),
        input_digests={args.graph: digest},
        seed=config.get("seed"),
    )
    report["manifest"] = asdict(manifest)
    _write(_dumps(report), args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# -- subcommand handlers ----------------------------------------------------


def _cmd_solve(args) -> int:
    graph, digest = _load_graph(args.graph)
    solution = solve(graph, exact=args.exact)
    report = solution.to_dict()
    if args.truncate is not None:
        report["residuals"] = _truncation_series(solution, args.truncate).tolist()
    _emit(report, args, digest)
    return 0


def _cmd_strategy(args) -> int:
    graph, digest = _load_graph(args.graph)
    solution = solve(graph)
    report = build_profile(solution, beta=args.beta).to_dict()
    _emit(report, args, digest)
    return 0


def _cmd_analyze(args) -> int:
    graph, digest = _load_graph(args.graph)
    solution = solve(graph)
    report_obj = analyze(solution, t_max=args.tmax)
    if args.format == "csv":
        if report_obj.stopping is None:
            raise UnsupportedGraphError("CSV output is for stopping-time series (terminating graphs)")
        row = "%d," + ",".join(["%.12g"] * len(graph.nonterminals))
        lines = ["t," + ",".join(graph.labels[i] for i in graph.nonterminals)]
        lines += [row % (t, *q) for t, q in enumerate(report_obj.stopping.stop_dist.tolist(), 1)]
        _write("\n".join(lines), args)
        return 0
    report = report_obj.to_dict()
    _emit(report, args, digest)
    return 0


def _cmd_simulate(args) -> int:
    graph, digest = _load_graph(args.graph)
    solution = solve(graph)
    profile = build_profile(solution, beta=args.beta)
    seed = _resolve_seed(args)
    start = graph.index_of(args.start) if args.start else _first_nonterminal(graph)
    horizon = args.horizon
    if horizon is None:  # a censoring cap on terminating graphs, else an exact horizon
        horizon = 10**5 if solution.graph_class.is_terminating else 100
    config = SimulationConfig(
        profile=profile,
        start=start,
        replications=args.reps,
        max_steps=horizon,
        seed=seed,
    )
    result = run(config)
    if args.format == "csv":
        names = [*graph.labels, ""]  # terminal node -1 (none reached) names ""
        columns = zip(range(args.reps), result.stopping_times.tolist(),
                      map(names.__getitem__, result.terminal_nodes.tolist()),
                      result.final_fortunes.tolist(), result.censored.tolist())
        lines = ["rep,stopping_time,terminal,final_fortune,censored"]
        lines += ["%d,%d,%s,%.12g,%d" % row for row in columns]
        _write("\n".join(lines), args)
        return 0
    report = {
        "summary": result.summary(),
        "start": graph.labels[start],
        "value_at_start": float(solution.values[start]),
    }
    _emit(report, args, digest, seed=seed)
    return 0


def _cmd_generate(args) -> int:
    spec = parse_oracle_spec(args.oracle)
    graph = spec.build()
    _write(serialize_graph(graph), args)
    return 0


def _cmd_verify(args) -> int:
    graph, digest = _load_graph(args.graph)
    solution = solve(graph)
    betas = (args.beta,) if args.beta is not None else (0.0, 0.5, 1.0)
    certificate = certify_graph(solution, betas=betas, depth=args.depth)
    report = certificate.to_dict()
    _emit(report, args, digest)
    return 0 if certificate.passed else 2


def _cmd_export_dot(args) -> int:
    graph, _ = _load_graph(args.graph)
    profile = None
    if args.beta is not None:
        profile = build_profile(solve(graph), beta=args.beta)
    _write(to_dot(graph, profile), args)
    return 0


def _first_nonterminal(graph: GameGraph) -> int:
    if not graph.nonterminals:
        raise ValueError("the graph has no non-terminal node to play from")
    return graph.nonterminals[0]


# -- interactive play ---------------------------------------------------------


def play_repl(
    graph: GameGraph,
    human_side: str,
    beta: float = 1.0,
    seed: int = 0,
    in_stream=None,
    out_stream=None,
    max_rounds: int | None = None,
) -> dict:
    """Line-oriented match against the optimal opponent.

    Protocol per round: the wager is announced, the guess is committed
    (hidden), the chooser moves, the guess is revealed, and the payoff is
    applied.  Entering "quit" (or closing the input) ends the session;
    illegal entries re-prompt.  Returns the transcript (also printed),
    which carries the seed so a session can be replayed.
    """
    if human_side not in ("chooser", "guesser"):
        raise ValueError("human side must be 'chooser' or 'guesser'")
    stdin = in_stream if in_stream is not None else sys.stdin
    stdout = out_stream if out_stream is not None else sys.stdout

    def say(msg: str) -> None:
        print(msg, file=stdout)

    def ask(prompt: str) -> str:
        print(prompt, end="", file=stdout, flush=True)
        line = stdin.readline()
        if not line:
            raise _QuitSession
        line = line.strip()
        if line.lower() in ("q", "quit", "exit"):
            raise _QuitSession
        return line

    profile = build_profile(solve(graph), beta=beta)
    offsets, dst, g_cdf, c_cdf, _, _, _ = _edge_tables(profile)  # the step kernel's, built once

    def pick(cdf, node: int, u: float) -> int:
        """The successor of ``node`` that u picks from its row of ``cdf``, as ``run`` does."""
        first, last = offsets[node], offsets[node + 1] - 1
        return int(dst[_bisect(cdf, first, last, u, int(last - first).bit_length())])

    rng = StepRng(seed=seed)
    node = _first_nonterminal(graph)
    fortune = 1.0
    rounds: list[dict] = []
    say(f"you are the {human_side}; play starts at node {graph.labels[node]!r} with $1")

    while True:
        if max_rounds is not None and len(rounds) >= max_rounds:
            break
        succ = graph.successors[node]
        names = [graph.labels[j] for j in succ]
        say(f"\nnode {graph.labels[node]!r}: moves {names}, fortune {_fmt(fortune)}")

        u_guess, u_choice = rng.next_pair()
        try:
            if human_side == "guesser":
                wager = _ask_wager(ask, say)
                guess = _ask_move(ask, say, graph, succ, "your guess: ")
                say(f"wager announced: {_fmt(wager)}")
                choice = pick(c_cdf, node, u_choice)
                say(f"chooser moves to {graph.labels[choice]!r}")
            else:
                wager = float(profile.wagers[node])
                say(f"guesser announces wager {_fmt(wager)} (guess is written down)")
                guess = pick(g_cdf, node, u_guess)
                choice = _ask_move(ask, say, graph, succ, "your move: ")
                say(f"guesser's committed guess was {graph.labels[guess]!r}")
        except _QuitSession:
            say("session ended")
            break

        correct = guess == choice
        win, lose = _multipliers(len(succ), wager)
        mult = win if correct else lose
        fortune *= mult
        say(f"guess {'correct' if correct else 'incorrect'}: fortune x {_fmt(mult)} -> {_fmt(fortune)}")
        rounds.append(
            {
                "node": graph.labels[node],
                "wager": wager,
                "guess": graph.labels[guess],
                "move": graph.labels[choice],
                "multiplier": mult,
                "fortune": fortune,
            }
        )
        node = choice
        if graph.is_terminal(node):
            fortune *= graph.values[node]
            say(
                f"terminal node {graph.labels[node]!r}: fortune x {_fmt(graph.values[node])}"
                f" -> final fortune {_fmt(fortune)}"
            )
            break

    transcript = {
        "seed": seed,
        "beta": beta,
        "human_side": human_side,
        "rounds": rounds,
        "final_fortune": fortune,
    }
    say(f"\nfinal fortune: {_fmt(fortune)}")
    return transcript


class _QuitSession(Exception):
    pass


def _ask_wager(ask, say) -> float:
    while True:
        raw = ask("your wager fraction [0,1]: ")
        try:
            w = float(raw)
        except ValueError:
            say(f"not a number: {raw!r}")
            continue
        if 0.0 <= w <= 1.0:
            return w
        say("wager must lie in [0, 1]")


def _ask_move(ask, say, graph: GameGraph, succ, prompt: str) -> int:
    names = {graph.labels[j]: j for j in succ}
    while True:
        raw = ask(prompt)
        if raw in names:
            return names[raw]
        say(f"illegal move {raw!r}; legal moves: {sorted(names)}")


def _cmd_play(args) -> int:
    graph, _ = _load_graph(args.graph)
    seed = _resolve_seed(args)
    transcript = play_repl(graph, args.side, beta=args.beta, seed=seed)
    if args.out:
        _write(_dumps(transcript), args)
    return 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathwager",
        description="solve, analyze, simulate, and generate path-guessing wagering games",
    )
    parser.add_argument("--version", action="version", version=f"pathwager {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # each subcommand declares only the options its handler reads
    def common(p):
        p.add_argument("--graph", required=True, help="game graph JSON file")
        p.add_argument("--out", help="write the report to this file instead of stdout")

    def output_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)")

    p = sub.add_parser("solve", help="compute node values")
    common(p)
    p.add_argument("--exact", action="store_true", help="rational arithmetic (acyclic graphs)")
    p.add_argument("--truncate", type=int, default=None, metavar="S",
                   help="also report depth-limited value residuals up to S steps")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("strategy", help="optimal strategy profile")
    common(p)
    p.add_argument("--beta", type=float, default=1.0, help="risk parameter in [0,1]")
    p.set_defaults(func=_cmd_strategy)

    p = sub.add_parser("analyze", help="Markov dynamics under optimal play")
    common(p)
    output_format(p)
    p.add_argument("--tmax", type=int, default=500, help="stopping-time horizon")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo play")
    common(p)
    output_format(p)
    seed(p)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--horizon", type=int, default=None,
                   help="max steps; default 1e5 on terminating graphs (a censoring "
                        "cap), 100 on strongly connected ones (an exact horizon)")
    p.add_argument("--start", default=None, help="start node label")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("generate", help="generate a lying-oracle game graph")
    p.add_argument("--oracle", required=True,
                   help="window:N,K | patterns:FILE | window-stop:N")
    p.add_argument("--out", help="output graph file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="equilibrium and convergence certificates")
    common(p)
    p.add_argument("--beta", type=float, default=None,
                   help="certify a single beta (default: 0, 0.5, 1)")
    p.add_argument("--depth", type=int, default=60)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("play", help="interactive match against the optimal opponent")
    common(p)
    seed(p)
    p.add_argument("--as", dest="side", choices=("chooser", "guesser"), required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("export-dot", help="Graphviz rendering of a game graph")
    common(p)
    p.add_argument("--beta", type=float, default=None,
                   help="annotate with the optimal profile at this beta")
    p.set_defaults(func=_cmd_export_dot)
    return parser


_PARSER = _build_parser()  # built once; each parse_args call fills a fresh Namespace


def dispatch(argv=None) -> int:
    """Run one subcommand; returns the exit code (0 ok, 1 input error, 2 verify fail)."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags; that code is ours
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except BrokenPipeError:  # a reader that went away; ``main`` ends quietly
        raise
    except (
        GraphError,
        UnsupportedGraphError,
        StrategyError,
        OracleBuildError,
        ConvergenceError,
        OSError,  # a missing, unreadable or unwritable file, or a directory
        ValueError,
        MemoryError,  # an allocation the caller asked for (a huge --reps); numpy names the size
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = dispatch()
        sys.stdout.flush()  # a reader that went away shows here, inside the try
    except BrokenPipeError:  # ``pathwager ... | head``: the recipe of Python's signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
