"""Command-line surface: subcommands, exit codes, manifests, the REPL."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pathwager
import pathwager.cli
import pathwager.graph
import pathwager.markov
import pathwager.oracle
import pathwager.strategy
import pathwager.values
import pathwager.verify
from pathwager import build_graph, serialize_graph
from pathwager.cli import dispatch, play_repl

FAN24 = '{"nodes":["root","a","b"],"edges":[["root","a"],["root","b"]],"values":{"a":2,"b":4}}'


@pytest.fixture
def fan_path(tmp_path):
    path = tmp_path / "fan24.json"
    path.write_text(FAN24)
    return str(path)


def run_json(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_reports_values_and_class(fan_path, capsys):
    code, doc = run_json(["solve", "--graph", fan_path], capsys)
    assert code == 0
    assert doc["class"] == "fan"
    assert abs(doc["values"]["root"] - 8 / 3) < 1e-12
    assert doc["manifest"]["subcommand"] == "solve"
    assert fan_path in doc["manifest"]["input_digests"]


@pytest.mark.parametrize("command", ["solve", "strategy", "analyze", "simulate", "verify"])
def test_every_report_carries_its_manifest(command, fan_path, capsys):
    code, doc = run_json([command, "--graph", fan_path], capsys)
    assert code == 0
    manifest = doc["manifest"]
    assert manifest["subcommand"] == command == manifest["config"]["subcommand"]
    assert fan_path in manifest["input_digests"]
    assert ("format" in manifest["config"]) == (command in ("analyze", "simulate"))


def test_solve_exact_and_truncate(fan_path, capsys):
    code, doc = run_json(["solve", "--graph", fan_path, "--exact", "--truncate", "4"], capsys)
    assert code == 0
    assert doc["values"]["root"] == [8, 3]
    assert doc["residuals"][1] == 0.0


def test_solve_rejects_unsupported_graph(tmp_path, capsys):
    path = tmp_path / "two_cycle.json"
    path.write_text('{"nodes":["1","2"],"edges":[["1","2"],["2","1"]],"values":{}}')
    assert dispatch(["solve", "--graph", str(path)]) == 1
    assert "periodic" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["simulate"], ["play", "--as", "chooser"],
                                  ["play", "--as", "guesser"]])
def test_play_and_simulate_reject_a_graph_without_moves(argv, tmp_path, capsys, monkeypatch):
    path = tmp_path / "lone.json"
    path.write_text('{"nodes":["t"],"edges":[],"values":{"t":2}}')
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert dispatch([*argv, "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the graph has no non-terminal node to play from\n"


def test_solve_missing_file_is_input_error(capsys):
    assert dispatch(["solve", "--graph", "/nonexistent.json"]) == 1


def test_bad_flags_are_input_errors(capsys):
    assert dispatch(["solve"]) == 1  # missing --graph
    assert dispatch(["no-such-subcommand"]) == 1
    assert dispatch(["solve", "--graph", "x", "--unknown-flag"]) == 1
    assert dispatch(["--help"]) == 0
    assert dispatch(["--version"]) == 0
    capsys.readouterr()


def test_dispatch_builds_no_parser(fan_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert dispatch(["solve", "--graph", fan_path]) == 0
    assert dispatch(["analyze", "--graph", fan_path, "--format", "csv"]) == 0
    capsys.readouterr()
    assert built == []


# the options that every subcommand used to declare and these handlers never read
REMOVED_OPTIONS = (
    [(cmd, "--format", "csv") for cmd in ("solve", "strategy", "verify", "play", "export-dot")]
    + [(cmd, "--seed", "1") for cmd in ("solve", "strategy", "analyze", "verify", "export-dot")]
)


@pytest.mark.parametrize("command, option, value", REMOVED_OPTIONS)
def test_options_no_handler_reads_are_rejected(command, option, value, fan_path, capsys):
    extra = ["--as", "chooser"] if command == "play" else []
    assert dispatch([command, "--graph", fan_path, *extra, option, value]) == 1
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--reps", "20", "--seed", "3", "--horizon", "50", "--format", "csv",
     "--beta", "0.5"],
    ["analyze", "--format", "csv", "--tmax", "20"],
    ["play", "--as", "chooser", "--seed", "2"],
    ["solve", "--exact", "--truncate", "5"],
    ["strategy", "--beta", "0.5"],
    ["export-dot", "--beta", "0.5"],
])
def test_benchmark_options_are_accepted(argv, fan_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
    assert dispatch([argv[0], "--graph", fan_path, *argv[1:]]) == 0
    assert capsys.readouterr().err == ""


def test_verify_rejects_an_empty_wager_grid(fan_path, capsys):
    # best replies are exact, so verify has no wager grid to set
    assert dispatch(["verify", "--graph", fan_path, "--grid", "5"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert dispatch(["verify", "--graph", fan_path]) == 0


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_verify_rejects_a_depth_below_one(depth, tmp_path, capsys):
    # the bracket check used to pass vacuously: no sweep compared the rigid anchors
    forced = tmp_path / "forced.json"
    forced.write_text('{"nodes":["r","m","a","b"],"edges":[["r","m"],["m","a"],["m","b"]],'
                      '"values":{"a":2,"b":4}}')
    assert dispatch(["verify", "--graph", str(forced), "--depth", depth]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"depth must be at least 1, got {depth}" in err
    assert dispatch(["verify", "--graph", str(forced), "--depth", "1"]) == 0


def test_strategy_profile_schema(fan_path, capsys):
    code, doc = run_json(["strategy", "--graph", fan_path, "--beta", "1"], capsys)
    assert code == 0
    assert doc["beta"] == 1.0
    node = doc["nodes"]["root"]
    assert abs(node["wager"] - 1 / 3) < 1e-12
    assert abs(node["chooser"]["a"] - 2 / 3) < 1e-12
    assert node["guesser"]["b"] == 0.0


def test_analyze_json_and_csv(fan_path, capsys, tmp_path):
    code, doc = run_json(["analyze", "--graph", fan_path, "--tmax", "8"], capsys)
    assert code == 0
    assert abs(doc["expected_stopping_times"]["root"] - 1.0) < 1e-12

    out = tmp_path / "q.csv"
    assert dispatch(["analyze", "--graph", fan_path, "--format", "csv",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,root"
    assert lines[1].startswith("1,1")


def test_simulate_summary_and_seed_env(fan_path, capsys, monkeypatch):
    code, doc = run_json(
        ["simulate", "--graph", fan_path, "--beta", "1", "--reps", "200", "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert abs(doc["summary"]["mean_fortune"] - 8 / 3) < 1e-12
    assert doc["manifest"]["seed"] == 5

    monkeypatch.setenv("PATHWAGER_SEED", "9")
    code, doc = run_json(["simulate", "--graph", fan_path, "--reps", "50"], capsys)
    assert code == 0 and doc["manifest"]["seed"] == 9

    monkeypatch.setenv("PATHWAGER_SEED", "not-a-number")
    assert dispatch(["simulate", "--graph", fan_path, "--reps", "50"]) == 1


def test_simulate_runs_on_every_strongly_connected_graph(sc_corpus, tmp_path, capsys):
    # power iteration can put the radius of a stochastic M a few ulps above 1,
    # which the discount check would refuse
    for entry in sc_corpus:
        assert pathwager.solve(entry.graph).spectral.radius <= 1.0, entry.name
        path = tmp_path / f"{entry.name}.json"
        path.write_text(serialize_graph(entry.graph))
        argv = ["simulate", "--graph", str(path), "--reps", "20", "--seed", "1"]
        assert dispatch(argv) == 0, (entry.name, capsys.readouterr().err)


def test_simulate_csv(fan_path, tmp_path):
    out = tmp_path / "reps.csv"
    assert dispatch(["simulate", "--graph", fan_path, "--reps", "10", "--seed", "1",
                     "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "rep,stopping_time,terminal,final_fortune,censored"
    assert len(lines) == 11


def test_generate_then_solve_pipeline(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert dispatch(["generate", "--oracle", "window:3,1", "--out", str(out)]) == 0
    code, doc = run_json(["solve", "--graph", str(out)], capsys)
    assert code == 0
    assert abs(doc["r"] - 0.7327856159) < 1e-9

    assert dispatch(["generate", "--oracle", "window-stop:3", "--out", str(out)]) == 0
    code, doc = run_json(["solve", "--graph", str(out)], capsys)
    assert code == 0 and doc["class"] == "terminating"

    assert dispatch(["generate", "--oracle", "window:1,1"]) == 1


def test_generate_large_stopping_variant(tmp_path):
    # 2**n overflows a float from n = 1024 on
    out = tmp_path / "g.json"
    assert dispatch(["generate", "--oracle", "window-stop:1030", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["nodes"]) == 1031


def test_generate_window_twenty_five(tmp_path):
    out = tmp_path / "g.json"
    assert dispatch(["generate", "--oracle", "window:20,5", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["nodes"]) == 15504


def test_generate_refuses_an_oversized_window(tmp_path, capsys):
    # window:64,32 has about 2^62 raw histories: refused before any is built
    out = tmp_path / "g.json"
    start = time.perf_counter()
    assert dispatch(["generate", "--oracle", "window:64,32", "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "raw histories" in err and not out.exists()


def test_generate_refusal_names_the_stopping_spec(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert dispatch(["generate", "--oracle", "window-stop:300000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window-stop:300000 has more than 200000 raw histories")
    assert "window:" not in err and not out.exists()


@pytest.mark.parametrize("module", ["pathwager", "pathwager.cli"])
def test_runs_as_a_module_from_the_source_tree(module, fan_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    assert run("--version").strip() == f"pathwager {pathwager.__version__}"
    doc = json.loads(run("solve", "--graph", fan_path))
    assert abs(doc["values"]["root"] - 8 / 3) < 1e-12


def test_closed_stdout_exits_1_without_a_traceback(tmp_path, fan_path):
    # ``pathwager verify --graph g.json | head -5`` with the reader already gone
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    graph = tmp_path / "w.json"
    assert dispatch(["generate", "--oracle", "window:5,2", "--out", str(graph)]) == 0
    for argv in (["verify", "--graph", str(graph)], ["solve", "--graph", fan_path]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "pathwager", *argv], env=env,
                                  stdout=write, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        assert done.returncode == 1 and done.stderr == b"", (argv, done.stderr)


def test_a_directory_in_place_of_a_file_is_an_input_error(tmp_path, capsys):
    # an OSError other than a closed stdout ends in exit 1 and an ``error:`` line
    for argv in (["solve", "--graph", str(tmp_path)],
                 ["generate", "--oracle", "window:3,1", "--out", str(tmp_path)]):
        assert dispatch(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), argv


def test_generate_patterns_file(tmp_path, capsys):
    pat = tmp_path / "patterns.txt"
    pat.write_text("L L\n")
    out = tmp_path / "g.json"
    assert dispatch(["generate", "--oracle", f"patterns:{pat}", "--out", str(out)]) == 0
    code, doc = run_json(["solve", "--graph", str(out)], capsys)
    assert code == 0
    assert abs(doc["r"] - 0.80901699437) < 1e-9


def test_solve_exact_on_a_diamond_dag(tmp_path, capsys):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps({
        "nodes": ["s", "a", "b", "c", "t1", "t2"],
        "edges": [["s", "a"], ["s", "b"], ["a", "c"], ["a", "t1"], ["b", "c"], ["c", "t2"]],
        "values": {"t1": [1, 3], "t2": 5},
    }))
    code, doc = run_json(["solve", "--graph", str(path), "--exact"], capsys)
    assert code == 0 and doc["class"] == "terminating"
    assert doc["values"]["s"] == [5, 4] and doc["reciprocal_values"]["a"] == [31, 20]


def _count_calls(monkeypatch, name, modules):
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("spec", ["window:8,1", "window-stop:6"])
def test_each_command_classifies_and_solves_once(spec, tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.json")
    commands = {
        ("solve",): 0,
        ("solve", "--truncate", "5"): 0,
        ("strategy",): 0,
        ("simulate", "--reps", "50"): 0,
        ("analyze",): 0,
        ("verify",): int(spec.startswith("window:")),  # the strongly connected audit only
    }
    for module in (pathwager.markov, pathwager.strategy, pathwager.oracle):
        assert not hasattr(module, "build_propagation_matrix"), module.__name__
    passes = _count_calls(monkeypatch, "_depth_first_search", [pathwager.graph])
    assert not hasattr(pathwager.verify, "solve")  # certify_graph reuses the solution
    solves = _count_calls(monkeypatch, "solve", [pathwager.cli, pathwager.values])
    dense = _count_calls(monkeypatch, "build_propagation_matrix",
                         [pathwager.values, pathwager.verify])
    assert dispatch(["generate", "--oracle", spec, "--out", path]) == 0
    assert dense == []  # the window-stop self-check reads only the stop edges
    for command, dense_builds in commands.items():
        for calls in (passes, solves, dense):
            calls.clear()
        assert dispatch([command[0], "--graph", path, *command[1:]]) == 0, command
        capsys.readouterr()
        assert (len(passes), len(solves), len(dense)) == (1, 1, dense_builds), command


def test_memory_error_is_an_input_error(fan_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.7 GiB for an array with shape (32000, 32000)")

    monkeypatch.setattr(pathwager.cli, "solve", exhausted)
    assert dispatch(["solve", "--graph", fan_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "7.7 GiB" in err


def test_verify_exit_codes(fan_path, tmp_path, capsys):
    assert dispatch(["verify", "--graph", fan_path]) == 0
    capsys.readouterr()
    out = tmp_path / "sc.json"
    assert dispatch(["generate", "--oracle", "window:2,1", "--out", str(out)]) == 0
    assert dispatch(["verify", "--graph", str(out)]) == 0


def test_export_dot(fan_path, capsys):
    assert dispatch(["export-dot", "--graph", fan_path, "--beta", "1"]) == 0
    out = capsys.readouterr().out
    assert "digraph" in out and "doublecircle" in out and "w=" in out


def test_manifest_digests_the_bytes_that_were_parsed(fan_path, tmp_path, capsys, monkeypatch):
    _, lf = run_json(["solve", "--graph", fan_path], capsys)
    assert lf["manifest"]["input_digests"][fan_path] == hashlib.sha256(FAN24.encode()).hexdigest()

    crlf = tmp_path / "crlf.json"
    crlf.write_bytes(json.dumps(json.loads(FAN24), indent=2).replace("\n", "\r\n").encode())
    _, doc = run_json(["solve", "--graph", str(crlf)], capsys)
    assert doc["manifest"]["input_digests"] == {
        str(crlf): hashlib.sha256(crlf.read_bytes()).hexdigest()}
    assert doc["values"] == lf["values"]

    # a file rewritten after it was read: the digest is of the bytes that were solved
    parse = pathwager.cli.parse_graph

    def parse_then_rewrite(text):
        crlf.write_text(FAN24.replace('"a":2', '"a":3'))
        return parse(text)

    monkeypatch.setattr(pathwager.cli, "parse_graph", parse_then_rewrite)
    before = hashlib.sha256(crlf.read_bytes()).hexdigest()
    _, again = run_json(["solve", "--graph", str(crlf)], capsys)
    assert again == doc and again["manifest"]["input_digests"][str(crlf)] == before


def test_invalid_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(FAN24.replace("root", "r\u00f6ot").encode("latin-1"))
    assert dispatch(["solve", "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "utf-8" in captured.err


def test_manifest_reproducibility(fan_path, capsys):
    _, a = run_json(["solve", "--graph", fan_path], capsys)
    _, b = run_json(["solve", "--graph", fan_path], capsys)
    assert a == b


def test_play_repl_human_chooser_deterministic_fortune():
    g = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 2, "b": 4})
    for move, seed in (("a", 0), ("b", 1), ("a", 17)):
        out = io.StringIO()
        transcript = play_repl(g, "chooser", beta=1.0, seed=seed,
                               in_stream=io.StringIO(f"{move}\n"), out_stream=out)
        assert abs(transcript["final_fortune"] - 8 / 3) < 1e-12
        assert transcript["rounds"][0]["move"] == move
        assert transcript["seed"] == seed


def test_play_repl_zero_wager_guesser_keeps_fortune():
    g = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 1, "b": 1})
    out = io.StringIO()
    transcript = play_repl(g, "guesser", seed=3,
                           in_stream=io.StringIO("0\na\n"), out_stream=out)
    assert transcript["final_fortune"] == 1.0
    assert transcript["rounds"][0]["wager"] == 0.0


def test_play_repl_builds_the_step_tables_once(monkeypatch):
    g = build_graph(["r", "s", "a", "b"], [("r", "s"), ("r", "a"), ("s", "r"), ("s", "b")],
                    {"a": 2, "b": 4})
    calls = _count_calls(monkeypatch, "_edge_tables", [pathwager.cli])
    transcript = play_repl(g, "chooser", seed=2, in_stream=io.StringIO("s\nr\ns\nb\n"),
                           out_stream=io.StringIO())
    assert [r["move"] for r in transcript["rounds"]] == ["s", "r", "s", "b"]
    assert len(calls) == 1


def test_play_repl_reprompts_on_illegal_input():
    g = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 2, "b": 4})
    out = io.StringIO()
    transcript = play_repl(g, "chooser", seed=0,
                           in_stream=io.StringIO("nope\nb\n"), out_stream=out)
    assert transcript["rounds"][0]["move"] == "b"
    assert "illegal move" in out.getvalue()

    out = io.StringIO()
    transcript = play_repl(g, "guesser", seed=0,
                           in_stream=io.StringIO("1.5\nabc\n0.25\na\n"), out_stream=out)
    assert transcript["rounds"][0]["wager"] == 0.25
    printed = out.getvalue()
    assert "wager must lie in [0, 1]" in printed and "not a number" in printed


def test_play_repl_protocol_order_for_human_guesser():
    # the chooser's move is revealed only after the committed guess
    g = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 2, "b": 4})
    out = io.StringIO()
    play_repl(g, "guesser", seed=11, in_stream=io.StringIO("0.5\nb\n"), out_stream=out)
    printed = out.getvalue()
    assert printed.index("wager announced") < printed.index("chooser moves")


def test_play_repl_window_game_respects_structure():
    from pathwager import build_window_game

    g = build_window_game(2, 1)
    out = io.StringIO()
    # human chooser tries two lies in a row; the second is rejected
    transcript = play_repl(g, "chooser", seed=2, max_rounds=3,
                           in_stream=io.StringIO("2\n2\n1\n1\n1\n"), out_stream=out)
    moves = [r["move"] for r in transcript["rounds"]]
    assert moves[0] == "2"
    assert moves[1] == "1"  # forced: node 2 has only the truth edge
    assert "illegal move" in out.getvalue()


def test_play_repl_quits_cleanly_on_infinite_games():
    from pathwager import build_window_game

    g = build_window_game(2, 1)
    out = io.StringIO()
    transcript = play_repl(g, "chooser", seed=5,
                           in_stream=io.StringIO("1\n1\nquit\n"), out_stream=out)
    assert len(transcript["rounds"]) == 2
    assert "session ended" in out.getvalue()

    # closing the input stream also ends the session instead of crashing
    out = io.StringIO()
    transcript = play_repl(g, "guesser", seed=5,
                           in_stream=io.StringIO("0.1\n1\n"), out_stream=out)
    assert len(transcript["rounds"]) == 1


def test_play_cli_saves_transcript(fan_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
    out = tmp_path / "transcript.json"
    assert dispatch(["play", "--graph", fan_path, "--as", "chooser",
                     "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 4
    assert abs(doc["final_fortune"] - 8 / 3) < 1e-12


def test_exact_mode_refuses_every_cyclic_graph_with_one_message(tmp_path, capsys):
    graphs = {
        "strongly_connected": '{"nodes":["p","q"],"edges":[["p","p"],["p","q"],["q","p"]],'
                              '"values":{}}',
        "cyclic_terminating": '{"nodes":["1","t"],"edges":[["1","1"],["1","t"]],"values":{"t":1}}',
    }
    for name, text in graphs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert dispatch(["solve", "--graph", str(path), "--exact"]) == 1, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exact mode requires an acyclic graph\n", name


def test_an_oversized_cyclic_component_is_an_input_error(tmp_path, capsys):
    n = 6000
    labels = [f"c{k}" for k in range(n)] + ["exit"]
    edges = [[f"c{k}", f"c{(k + 1) % n}"] for k in range(n)] + [["c0", "exit"]]
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"nodes": labels, "edges": edges, "values": {"exit": 1}}))
    for command in ("solve", "analyze", "verify"):
        assert dispatch([command, "--graph", str(path)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a cyclic component of 6000 nodes needs 1152000000 bytes for its dense "
            "solve, over the budget of 1073741824 bytes\n"), command


def test_the_readme_library_example_runs_as_written(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    sol, summary = namespace["sol"], namespace["result"].summary()
    assert summary["discount"] == sol.spectral.radius and summary["horizon"] == 100
    assert summary["replications"] == 10**5
    assert capsys.readouterr().out == f"{summary}\n"


def test_the_public_surface_is_pinned():
    assert pathwager.__all__ == [
        "ConvergenceError", "ExploitReport", "FairnessVerdict", "GameGraph",
        "GameSolution", "Gn1Reference", "GraphClass", "GraphError", "GraphKind", "MarkovReport",
        "OracleSpec", "PropagationMatrix", "SimulationConfig", "SimulationResult", "SpectralData",
        "StepRng", "StrategyError", "StrategyProfile",
        "UnsupportedGraphError", "analyze", "aperiodicity_gcd", "build_forbidden_pattern_game",
        "build_graph", "build_profile", "build_propagation_matrix", "build_stopping_variant",
        "build_window_game", "classify", "exploit_search", "fairness_check", "gn1_reference",
        "graph", "invariant_measure", "markov", "oracle", "parse_graph", "play_step", "run",
        "serialize_graph", "simulate", "solve", "solve_strongly_connected", "solve_terminating",
        "solve_tree", "steady_state_fortunes", "step_uniforms", "stop_probability_formula",
        "stopping_analysis", "strategy", "to_dot", "values", "writer",
    ]
