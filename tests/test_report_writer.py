"""The report writer: byte for byte ``json.dumps(indent=2)``, and row-formatted CSV.

``json.dumps(obj, indent=2, default=_jsonable)`` stays here as the
reference for ``writer._dumps``; the per-cell CSV loops are in
``support``.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathwager.cli
import pathwager.writer
import support
from pathwager import analyze, build_stopping_variant, classify, serialize_graph
from pathwager.cli import dispatch, play_repl
from pathwager.oracle import parse_oracle_spec
from pathwager.writer import _dumps, _jsonable, _level


def reference(obj) -> str:
    return json.dumps(obj, indent=2, default=_jsonable)


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    """The corpus and window-stop:5..60, as graph files: (name, graph, path)."""
    root = tmp_path_factory.mktemp("graphs")
    entries = [(e.name, e.graph) for e in support.full_corpus()]
    entries += [(f"window-stop_{n}", build_stopping_variant(n)) for n in range(5, 61)]
    files = []
    for name, graph in entries:
        path = root / f"{name}.json"
        path.write_text(serialize_graph(graph))
        files.append((name, graph, str(path)))
    return files


@pytest.fixture
def checked_dumps(monkeypatch):
    """Make the CLI's writer compare every document it writes with the reference."""
    written = []

    def dumps(obj):
        text = _dumps(obj)
        assert text == reference(obj)
        written.append(obj)
        return text

    monkeypatch.setattr(pathwager.cli, "_dumps", dumps)
    return written


def test_every_report_matches_the_stdlib(graph_files, checked_dumps, capsys):
    for name, graph, path in graph_files:
        argvs = [["solve", "--truncate", "3"], ["analyze", "--tmax", "40"], ["verify", "--depth", "8"]]
        argvs += [["strategy", "--beta", beta] for beta in ("0", "0.5", "1")]
        if graph.nonterminals:  # simulate starts at a non-terminal node
            argvs.append(["simulate", "--reps", "30", "--seed", "2"])
        for argv in argvs:
            before = len(checked_dumps)
            assert dispatch([argv[0], "--graph", path, *argv[1:]]) in (0, 2), (name, argv)
            assert len(checked_dumps) == before + 1, (name, argv)
            assert capsys.readouterr().out == _dumps(checked_dumps[-1]) + "\n"
    kinds = {classify(graph).is_terminating for _, graph, _ in graph_files}
    assert kinds == {True, False}  # terminating and strongly connected reports both ran


def test_play_transcripts_match_the_stdlib(graph_files, checked_dumps, tmp_path, monkeypatch):
    out = tmp_path / "transcript.json"
    playable = [f for f in graph_files if f[1].nonterminals]
    for name, graph, path in playable[::7]:
        for side, script in (("chooser", ""), ("guesser", "0.25\n")):
            labels = [graph.labels[j] for j in graph.successors[graph.nonterminals[0]]]
            monkeypatch.setattr("sys.stdin", io.StringIO(f"{script}{labels[0]}\nquit\n"))
            monkeypatch.setattr("sys.stdout", io.StringIO())
            assert dispatch(["play", "--graph", path, "--as", side, "--out", str(out)]) == 0
            assert out.read_text() == reference(checked_dumps[-1]) + "\n", name
    transcript = play_repl(playable[0][1], "chooser", in_stream=io.StringIO("quit\n"),
                           out_stream=io.StringIO())
    assert _dumps(transcript) == reference(transcript)


@pytest.mark.parametrize("spec", ["window:3,1", "window:8,1", "window:5,2", "window:12,3",
                                  "window-stop:3", "window-stop:30", "window-stop:60"])
def test_generated_graphs_match_the_stdlib(spec, tmp_path):
    graph = parse_oracle_spec(spec).build()
    assert serialize_graph(graph) == json.dumps(graph.to_dict(), indent=2)
    out = tmp_path / "g.json"
    assert dispatch(["generate", "--oracle", spec, "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(graph.to_dict(), indent=2) + "\n"


# -- generated documents ------------------------------------------------------

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_LABELS = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€\U0001f600 '), max_size=6)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    _FLOATS,
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, 5e-324, 0.1]),
    _LABELS,
    _FLOATS.map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.lists(_FLOATS, max_size=4).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 2)),
)
_KEYS = st.one_of(_LABELS, st.integers(min_value=-(2**70), max_value=2**70), _FLOATS,
                  st.booleans(), st.none())
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_DOCUMENTS)
@example({"a": [[], {}, [[{}]], ()], 1.5: {"b": ()}, None: [np.arange(3)], True: {"x": {}},
          math.nan: [np.float64(-0.0), np.int64(-(2**63))], -0.0: [10**30, "\u2028\""],
          2: np.array([[1.5, math.inf], [-math.inf, math.nan]])})
@example({1: 2, None: 3, math.nan: 4, False: 5, -math.inf: "x"})
def test_generated_documents_match_the_stdlib(doc):
    assert _dumps(doc) == reference(doc)


def test_unencodable_keys_and_values_raise_like_the_stdlib():
    for doc in ({(1, 2): 1}, {(1, 2): [1]}, [object()], {"a": [np.bool_(True)]}):
        with pytest.raises(TypeError):
            reference(doc)
        with pytest.raises(TypeError):
            _dumps(doc)


@contextlib.contextmanager
def without_c_encoder():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pathwager.writer, "c_make_encoder", None)
        _level.cache_clear()
        try:
            assert isinstance(_level("\n  ").__self__, json.JSONEncoder)  # the fallback
            yield
        finally:
            _level.cache_clear()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_DOCUMENTS)
def test_documents_without_the_c_encoder(doc):
    with without_c_encoder():
        assert _dumps(doc) == reference(doc)


def test_reports_without_the_c_encoder(graph_files):
    with without_c_encoder():
        for name, graph, _ in graph_files[::5]:
            solution = pathwager.solve(graph)
            for doc in (solution.to_dict(), analyze(solution, t_max=20).to_dict(),
                        pathwager.build_profile(solution, beta=0.5).to_dict(),
                        graph.to_dict()):
                assert _dumps(doc) == reference(doc), name


# -- CSV ------------------------------------------------------------------------


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(_FLOATS, st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324])))
def test_percent_format_is_the_format_spec(x):
    assert "%.12g" % x == f"{x:.12g}" == "%.12g" % np.float64(x)


def test_analyze_csv_matches_the_cell_loop(graph_files, capsys):
    checked = 0
    for name, graph, path in graph_files:
        solution = pathwager.solve(graph)
        if not (solution.graph_class.is_terminating and graph.nonterminals):
            continue
        stop_dist = analyze(solution, t_max=40).stopping.stop_dist
        assert dispatch(["analyze", "--graph", path, "--tmax", "40", "--format", "csv"]) == 0
        assert capsys.readouterr().out == support.cell_loop_stopping_csv(graph, stop_dist) + "\n"
        checked += 1
    assert checked > 56


def test_simulate_csv_matches_the_cell_loop(graph_files, capsys, monkeypatch):
    results = []

    def run(config):
        results.append(pathwager.simulate.run(config))
        return results[-1]

    monkeypatch.setattr(pathwager.cli, "run", run)
    censored = unfinished = 0
    for name, graph, path in [f for f in graph_files if f[1].nonterminals][::3]:
        for horizon in (["--horizon", "2"], []):
            argv = ["simulate", "--graph", path, "--reps", "40", "--seed", "5", "--format", "csv"]
            assert dispatch(argv + horizon) == 0, name
            result = results[-1]
            assert capsys.readouterr().out == support.cell_loop_simulation_csv(graph, result) + "\n"
            censored += int(result.censored.sum())
            unfinished += int((result.terminal_nodes < 0).sum())
    assert censored and unfinished > censored  # both the "1" and the empty-terminal cells ran
