#!/usr/bin/env python3
"""End-to-end benchmark of the pathwager command line.

One closed-loop client in one process drives ``pathwager.cli.dispatch``
the way a user runs the tool: each command starts when the previous one
has returned.  A run sets up the workload (import, graphs written as graph
JSON, one warm-up call of each subcommand), then repeats whole rounds of
the workload's commands until ``--seconds`` have passed, then checks every
output against computations made apart from the program (``checks.py``,
run in a child process so that its scipy references stay out of this
process's memory).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload oracle_sc --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload
    python3 bench/run.py --workload all --smoke           # small sizes, seconds
    python3 bench/run.py --selftest                       # perturbed reports fail

Set-up is timed cold: each of its repetitions runs in a fresh interpreter
(``--setup-child``), which imports the package, writes the inputs and makes
each subcommand's first call.

``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics from the spans in ``spans.py``; the spans are written to
``bench/_out/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import os

# One BLAS thread: with two, the first dense solve of a run is twice as slow
# as later ones.  Set before numpy is imported here or in any child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170
END_TO_END = {
    "setup_s": "s", "solve_s": "s", "analyze_s": "s", "verify_s": "s",
    "sim_rep_steps_per_s": "1/s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return env


def _cold_setup_seconds(name: str, seed: int, smoke: bool) -> float:
    """One set-up, timed in a fresh interpreter (``--setup-child``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", "--workload", name,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    out = subprocess.run(cmd, env=_child_env(), check=True, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


def _setup(cli, name: str, seed: int, smoke: bool, work: Path) -> Client:
    """Draw the workload, write its inputs and call each subcommand once."""
    wl = workloads.build(name, seed, smoke)
    client = Client(cli, wl, work)
    _write_inputs(client)
    for op in _warmup_ops(wl):
        client.call(op)
    return client


def setup_child(name: str, seed: int, smoke: bool) -> int:
    """Prints the seconds of one set-up in this fresh process, import included.

    Nothing of the package is imported before the clock starts (this module
    and ``workloads`` import only the standard library), so a cost paid on a
    command's first call, such as a lazy import or a table built once, shows.
    """
    work = HERE / "_work" / f"setup-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sys.path.insert(0, str(SRC))
        start = time.perf_counter()
        from pathwager import cli

        _setup(cli, name, seed, smoke, work)
        print(time.perf_counter() - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


class Client:
    """Runs commands through ``cli.dispatch`` and keeps what they printed."""

    def __init__(self, cli, workload, work: Path):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.games = {g.name: g for g in workload.games}
        self.tracer: Tracer | None = None

    def argv(self, op) -> list[str]:
        argv = [op.cmd]
        if op.game is not None:
            argv += ["--graph", self.games[op.game].file]
        argv += [self._resolve(a) for a in op.args]
        if op.transcript:
            argv += ["--out", str(self.work / "transcripts" / f"{_safe(op.id)}.json")]
        return argv

    def _resolve(self, arg: str) -> str:
        if arg.startswith("patterns:"):
            return "patterns:" + str(self.work / arg.split(":", 1)[1])
        if arg.startswith("@"):                 # a file of the work directory
            return str(self.work / arg[1:])
        return arg

    def call(self, op) -> tuple[float, dict]:
        """Run one command; returns its wall time and what it produced."""
        argv = self.argv(op)
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(op.stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                rc = self.cli.dispatch(argv)
                wall = time.perf_counter() - start
        finally:
            sys.stdin = stdin
        record = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if op.transcript:
            path = Path(argv[argv.index("--out") + 1])
            record["transcript"] = path.read_text() if path.exists() else None
            if path.exists():
                path.unlink()
        return wall, record


def _safe(name: str) -> str:
    return name.replace("/", "__").replace(":", "_").replace(",", "_")


def _write_inputs(client: Client) -> None:
    """Write every game as graph JSON; oracle games come from ``generate``."""
    wl = client.workload
    (client.work / "graphs").mkdir(parents=True, exist_ok=True)
    (client.work / "transcripts").mkdir(exist_ok=True)
    for name, text in wl.patterns.items():
        (client.work / name).write_text(text)
    for game in wl.games:
        game.file = str(client.work / "graphs" / f"{game.name}.json")
        if game.oracle is not None:
            spec = client._resolve(game.oracle)
            rc = client.cli.dispatch(["generate", "--oracle", spec, "--out", game.file])
            if rc != 0:
                raise RuntimeError(f"generate {game.oracle} exited {rc}")
        elif game.raw is not None:
            Path(game.file).write_text(game.raw)
        else:
            Path(game.file).write_text(json.dumps(game.doc))


def _warmup_ops(wl) -> list:
    """Each subcommand once, on its smallest game, with few replications."""
    size = {g.name: Path(g.file).stat().st_size for g in wl.games}
    chosen = {}
    for op in wl.ops:
        if op.expect != "ok" or op.faults:
            continue
        best = chosen.get(op.cmd)
        if best is None or size.get(op.game, 0) < size.get(best.game, 0):
            chosen[op.cmd] = op
    ops = []
    for op in chosen.values():
        args = list(op.args)
        if "--reps" in args:
            args[args.index("--reps") + 1] = "100"
        ops.append(workloads.Op(op.id + "#warmup", op.cmd, op.game, args, op.stdin,
                                op.transcript))
    return ops


def _normalized(record: dict) -> str:
    """Output with the run manifest removed (its timestamp differs per call)."""
    text = record["stdout"]
    try:
        doc = json.loads(text)
    except ValueError:
        return text + "\0" + (record.get("transcript") or "")
    if isinstance(doc, dict):
        doc.pop("manifest", None)
    return json.dumps(doc, sort_keys=True) + "\0" + (record.get("transcript") or "")


def _round(client: Client, first: list | None) -> tuple[list[float], list[dict], list[str]]:
    walls, records, mismatches = [], [], []
    for k, op in enumerate(client.workload.ops):
        if client.tracer is not None:
            client.tracer.command = op.id
        wall, record = client.call(op)
        walls.append(wall)
        if first is None:
            records.append(record)
        elif _normalized(record) != _normalized(first[k]):
            mismatches.append(op.id)
    return walls, records, mismatches


def _round_metrics(ops, walls, rep_steps) -> dict[str, float]:
    group = {"solve_s": ("solve", "strategy"), "analyze_s": ("analyze",),
             "verify_s": ("verify",)}
    out = {name: sum(w for op, w in zip(ops, walls) if op.cmd in cmds)
           for name, cmds in group.items()}
    sim_wall = sum(w for op, w in zip(ops, walls) if op.cmd == "simulate")
    out["sim_rep_steps_per_s"] = rep_steps / sim_wall if sim_wall > 0 else 0.0
    out["ops_per_s"] = len(ops) / sum(walls)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 keep: Path | None = None) -> dict:
    """One run; the work directory (graphs, results) is removed unless ``keep`` names it."""
    if not (SRC / "pathwager" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    work = keep or HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(name, seed, seconds, trace, smoke, work)
    finally:
        if keep is None:
            shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, smoke, work) -> dict:
    import pathwager
    from pathwager import cli

    if Path(pathwager.__file__).resolve().parent != (SRC / "pathwager").resolve():
        raise SystemExit(f"error: imported pathwager from {pathwager.__file__}, not {SRC}")

    import checks

    # set-up, timed cold in fresh interpreters; then this process sets up
    # (untimed) and warms up each command before its rounds are timed
    setups = [_cold_setup_seconds(name, seed, smoke)
              for _ in range(1 if smoke else SETUP_REPEATS)]
    client = _setup(cli, name, seed, smoke, work)
    wl = client.workload

    # timed rounds
    tracer = Tracer() if trace else None
    rounds, traced_rounds, layer_rounds = [], [], []
    first, mismatches = None, []
    deadline = time.perf_counter() + seconds
    while True:
        walls, records, bad = _round(client, first)
        rounds.append(walls)
        mismatches += bad
        if first is None:
            first = records
        if tracer is not None:
            tracer.install()
            client.tracer = tracer
            mark = tracer.mark()
            try:
                twalls, _, bad = _round(client, first)
            finally:
                tracer.uninstall()
                client.tracer = None
            mismatches += bad
            traced_rounds.append(twalls)
            layers = tracer.layer_metrics(mark)
            layers["cli.report_bytes"] = (
                sum(len(r["stdout"]) + len(r.get("transcript") or "") for r in first), "bytes")
            layer_rounds.append(layers)
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # a fixed-seed rerun of a simulation must reproduce its summary
    sim = next(k for k, op in enumerate(wl.ops) if op.cmd == "simulate" and op.expect == "ok"
               and not op.faults)
    _, again = client.call(wl.ops[sim])
    if _normalized(again) != _normalized(first[sim]):
        mismatches.append(wl.ops[sim].id + " (rerun)")

    # check outputs apart from the program, in a child process
    results = [
        {"id": op.id, "cmd": op.cmd, "game": op.game, "argv": client.argv(op)[1:],
         "expect": op.expect, "faults": list(op.faults), "stdin": op.stdin, **rec}
        for op, rec in zip(wl.ops, first)
    ]
    bundle = {"workload": name, "seed": seed,
              "games": [checks.game_record(g) for g in wl.games], "results": results}
    bundle_path = work / "results.json"
    bundle_path.write_text(json.dumps(bundle))
    verdict = _check_in_child(bundle_path)
    problems = verdict["problems"] + [f"output changed between rounds: {m}" for m in mismatches]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    rep_steps = verdict["rep_steps"]
    per_round = [_round_metrics(wl.ops, walls, rep_steps) for walls in rounds]
    metrics: dict[str, dict] = {}
    if trace:
        for metric in layer_rounds[0]:
            values = [lr[metric][0] for lr in layer_rounds]
            metrics[metric] = {"value": statistics.median_low(values),
                               "unit": layer_rounds[0][metric][1]}
        overhead = (statistics.median(sum(w) for w in traced_rounds)
                    - statistics.median(sum(w) for w in rounds))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        (HERE / "_out").mkdir(exist_ok=True)
        tracer.write(HERE / "_out" / f"trace-{name}.jsonl")
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        for metric in ("solve_s", "analyze_s", "verify_s", "sim_rep_steps_per_s", "ops_per_s"):
            metrics[metric] = {"value": statistics.median(r[metric] for r in per_round),
                               "unit": END_TO_END[metric]}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    attempted = len(wl.ops) * (len(rounds) + len(traced_rounds))
    return {"correct": not problems, "attempted": attempted,
            "failed": verdict["failed"] * (len(rounds) + len(traced_rounds)),
            "metrics": metrics}


def _check_in_child(bundle_path: Path) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "checks.py"), str(bundle_path)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"failed": 0, "rep_steps": 0, "problems": ["checker exited "
                                                          f"{proc.returncode}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """One child process per workload; prints each metric with its unit."""
    summary, ok = {}, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            ok = False
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, one round")
    parser.add_argument("--selftest", action="store_true",
                        help="check that perturbed reports fail the checks")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        return setup_child(args.workload, args.seed, args.smoke)
    if args.selftest:
        return selftest()
    if args.smoke:
        args.seconds = 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selftest() -> int:
    """Smoke-run each workload, then perturb its reports one at a time."""
    import checks

    (HERE / "_out").mkdir(exist_ok=True)
    failures = 0
    for name in workloads.WORKLOADS:
        keep = HERE / "_out" / f"selftest-{name}"
        result = run_workload(name, 1, 0, False, True, keep=keep)
        if not result["correct"]:
            print(f"{name}: the unperturbed smoke run fails its checks")
            failures += 1
            continue
        bundle = json.loads((keep / "results.json").read_text())
        for label, caught in checks.perturbation_trials(bundle):
            print(f"{name}: {label}: {'caught' if caught else 'NOT CAUGHT'}")
            failures += not caught
    print(json.dumps({"selftest_passed": failures == 0}))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
