"""Graph parsing, validation, classification, and DOT export."""

import json
import random
from collections import deque

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

import support
from pathwager import (
    GraphError,
    GraphKind,
    aperiodicity_gcd,
    build_graph,
    build_profile,
    classify,
    parse_graph,
    serialize_graph,
    solve,
    to_dot,
)
from pathwager.oracle import parse_oracle_spec


MINIMAL_FAN = '{"nodes":["root","a","b"],"edges":[["root","a"],["root","b"]],"values":{"a":1,"b":1}}'


def test_parse_minimal_fan():
    g = parse_graph(MINIMAL_FAN)
    assert g.labels == ("root", "a", "b")
    assert g.successors == ((1, 2), (), ())
    assert g.values == {1: 1.0, 2: 1.0}
    assert classify(g).kind is GraphKind.FAN


def test_parse_maps_labels_in_insertion_order():
    g = parse_graph('{"nodes":["z","y","x"],"edges":[["z","y"],["z","x"]],"values":{"y":1,"x":2}}')
    assert g.index_of("z") == 0
    assert g.index_of("y") == 1
    assert g.index_of("x") == 2


def test_index_of_refuses_unknown_labels():
    g = parse_graph('{"nodes":["z","y","x"],"edges":[["z","y"],["z","x"]],"values":{"y":1,"x":2}}')
    assert [g.index_of(lab) for lab in ("x", "z")] == [2, 0]
    with pytest.raises(GraphError, match="unknown node label 'w'"):
        g.index_of("w")


def test_parse_cycle_with_loop_document():
    doc = '{"nodes":["1","2","3"],"edges":[["1","1"],["1","2"],["2","3"],["3","1"]],"values":{}}'
    g = parse_graph(doc)
    assert g.terminals == ()
    assert classify(g).kind is GraphKind.STRONGLY_CONNECTED_APERIODIC


def test_parse_exact_rational_values():
    g = parse_graph('{"nodes":["r","a"],"edges":[["r","a"]],"values":{"a":[8,3]}}')
    assert g.exact_values is not None
    assert g.exact_values[1] * 3 == 8
    assert abs(g.values[1] - 8 / 3) < 1e-15


def test_parse_float_values_disable_exact_mode():
    g = parse_graph('{"nodes":["r","a"],"edges":[["r","a"]],"values":{"a":1.5}}')
    assert g.exact_values is None


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("not json at all {{{", "malformed JSON"),
        ('{"nodes":["x"],"edges":[],"values":{}}', "lacks a value"),
        ('{"nodes":["x"],"edges":[],"values":{"x":-1}}', "strictly positive"),
        ('{"nodes":["x"],"edges":[],"values":{"x":0}}', "strictly positive"),
        ('{"nodes":["a","b"],"edges":[["a","b"]],"values":{"a":1,"b":1}}', "out-degree"),
        ('{"nodes":["a","b"],"edges":[["a","c"]],"values":{"b":1}}', "unknown node"),
        ('{"nodes":["a","b"],"edges":[["a","b"],["a","b"]],"values":{"b":1}}', "duplicate edge"),
        ('{"nodes":["a","a"],"edges":[],"values":{"a":1}}', "duplicate node"),
        ('{"nodes":[],"edges":[],"values":{}}', "at least one node"),
    ],
)
def test_parse_rejects_invalid_documents(doc, fragment):
    with pytest.raises(GraphError, match=fragment):
        parse_graph(doc)


def test_round_trip_identity(corpus):
    for entry in corpus:
        assert parse_graph(serialize_graph(entry.graph)) == entry.graph, entry.name


def test_round_trip_preserves_exact_values():
    g = build_graph(["r", "a", "b"], [("r", "a"), ("r", "b")], {"a": [8, 3], "b": 2})
    again = parse_graph(serialize_graph(g))
    assert again == g
    assert again.exact_values == g.exact_values


def test_classify_spec_shapes():
    two_cycle = build_graph(["1", "2"], [("1", "2"), ("2", "1")], {})
    cls = classify(two_cycle)
    assert cls.kind is GraphKind.UNSUPPORTED
    assert "periodic" in cls.reason

    loop_pair = build_graph(["1", "2"], [("1", "1"), ("1", "2"), ("2", "1")], {})
    assert classify(loop_pair).kind is GraphKind.STRONGLY_CONNECTED_APERIODIC

    fan = build_graph(["root", "a", "b"], [("root", "a"), ("root", "b")], {"a": 1, "b": 2})
    assert classify(fan).kind is GraphKind.FAN

    chain = build_graph(["r", "m", "l"], [("r", "m"), ("m", "l")], {"l": 1})
    assert classify(chain).kind is GraphKind.TREE

    # cycle feeding a terminal: terminating but not a tree
    cyclic = build_graph(["a", "b", "t"], [("a", "b"), ("b", "a"), ("a", "t")], {"t": 1})
    assert classify(cyclic).kind is GraphKind.TERMINATING

    # periodic component that can also exit: still terminating (cycles allowed)
    assert classify(cyclic).is_terminating

    single_terminal = build_graph(["t"], [], {"t": 2})
    assert classify(single_terminal).kind is GraphKind.TERMINATING

    # no terminals, not strongly connected
    stray = build_graph(["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")], {})
    cls = classify(stray)
    assert cls.kind is GraphKind.UNSUPPORTED
    assert "strongly connected" in cls.reason


def test_classify_is_kept_on_the_graph():
    g = build_graph(["1", "t"], [("1", "1"), ("1", "t")], {"t": 1})
    assert classify(g) is classify(g)
    assert g.terminals is g.terminals and g.nonterminals is g.nonterminals


def test_classify_stable_under_relabeling(corpus):
    for entry in corpus:
        g = entry.graph
        order = list(range(g.num_nodes))[::-1]  # reverse the node order
        relabeled = build_graph(
            [g.labels[i] for i in order],
            [(g.labels[i], g.labels[j]) for i, j in g.edges()],
            {g.labels[i]: g.values[i] for i in g.values},
        )
        assert classify(relabeled).kind is classify(g).kind, entry.name


def test_aperiodicity_gcd_examples():
    two_cycle = build_graph(["1", "2"], [("1", "2"), ("2", "1")], {})
    assert aperiodicity_gcd(two_cycle) == 2
    three_cycle = build_graph(["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")], {})
    assert aperiodicity_gcd(three_cycle) == 3
    fig1 = build_graph(["1", "2", "3"], [("1", "1"), ("1", "2"), ("2", "3"), ("3", "1")], {})
    # cycles of length 1 and 3
    assert support.simple_cycle_lengths(fig1) == {1, 3}
    assert aperiodicity_gcd(fig1) == 1


def _ring(k, chords=()):
    labels = [str(i) for i in range(k)]
    edges = [(str(i), str((i + d) % k)) for i in range(k) for d in (1, *chords)]
    return build_graph(labels, edges, {})


def test_aperiodicity_gcd_matches_cycle_enumeration(sc_corpus):
    # the search reads the period from its own tree; BFS levels and cycle
    # enumeration are independent references
    window = parse_oracle_spec("window:200,1").build()
    order = random.Random(12).sample(range(200), 200)
    relabelled = build_graph([window.labels[i] for i in order],
                             [(window.labels[i], window.labels[j]) for i, j in window.edges()], {})
    assert relabelled.index_of("1") != 0
    rings = [_ring(k) for k in (1, 2, 5, 12)] + [_ring(12, (3,)), _ring(12, (4,)), _ring(12, (2,))]
    graphs = [(e.name, e.graph) for e in sc_corpus] + [("window:200,1", relabelled)]
    graphs += [(f"ring{k}", g) for k, g in enumerate(rings)]
    periods = []
    for name, g in graphs:
        period = g.search.period
        assert period == support.bfs_level_gcd(g) == aperiodicity_gcd(g), name
        if g.num_nodes <= 8 or name.startswith(("ring", "window")):
            assert period == support.gcd_of_cycles(g), name
        periods.append(period)
    assert periods[-7:] == [1, 2, 5, 12, 2, 3, 1]
    assert classify(rings[3]).reason == "periodic: every cycle length is a multiple of 12"


def _single_head_graphs(corpus):
    yield from ((e.name, e.graph) for e in corpus)
    yield from enumerate(_random_digraphs(200))
    for spec in ("window:2,1", "window:8,1", "window:60,1", "window-stop:12"):
        yield spec, parse_oracle_spec(spec).build()


def test_post_order_lists_every_successor_first_on_single_head_graphs(corpus):
    # with one back-edge head f, the graph less f is acyclic and the post-order
    # is its sinks-first order: the renewal walk's order
    seen = 0
    for name, g in _single_head_graphs(corpus):
        heads, order = g.search.heads, g.search.order
        assert sorted(order) == list(range(g.num_nodes)), name
        if len(heads) != 1:
            continue
        seen += 1
        place = {i: k for k, i in enumerate(order)}
        for i, j in g.edges():
            if heads[0] not in (i, j):
                assert place[j] < place[i], (name, i, j)
    assert seen >= 30


def test_search_finds_no_head_exactly_on_acyclic_graphs(corpus):
    for name, g in [(e.name, e.graph) for e in corpus] + list(enumerate(_random_digraphs(200))):
        cyclic = any(len(c) > 1 or c[0] in g.successors[c[0]] for c in g.components)
        assert bool(g.search.heads) == cyclic, name


def test_aperiodicity_gcd_requires_strong_connectivity():
    fan = build_graph(["r", "a"], [("r", "a")], {"a": 1})
    with pytest.raises(GraphError):
        aperiodicity_gcd(fan)


def _reverse_reachable(g, sources):
    preds = [[] for _ in range(g.num_nodes)]
    for i, j in g.edges():
        preds[j].append(i)
    seen = set(sources)
    queue = deque(seen)
    while queue:
        for i in preds[queue.popleft()]:
            if i not in seen:
                seen.add(i)
                queue.append(i)
    return seen


def test_reverse_bfs_covers_terminating_graphs(terminating_corpus):
    for entry in terminating_corpus:
        g = entry.graph
        assert len(_reverse_reachable(g, g.terminals)) == g.num_nodes, entry.name
        assert classify(g).is_terminating, entry.name


def _random_digraphs(count, size=8, p=0.25):
    rng = np.random.default_rng(11)
    for _ in range(count):
        labels = [str(i) for i in range(size)]
        edges = [(a, b) for a in labels for b in labels if rng.random() < p]
        heads = {a for a, _ in edges}
        yield build_graph(labels, edges, {lab: 1 for lab in labels if lab not in heads})


def test_components_match_scipy_strong_components(corpus):
    # the corpus, plus random digraphs with several cyclic components
    for name, g in [(e.name, e.graph) for e in corpus] + list(enumerate(_random_digraphs(50))):
        edges = list(g.edges())
        adj = scipy.sparse.csr_matrix(
            (np.ones(len(edges)), ([i for i, _ in edges], [j for _, j in edges])),
            shape=(g.num_nodes, g.num_nodes),
        )
        count, labels = scipy.sparse.csgraph.connected_components(adj, connection="strong")
        ours = {frozenset(c) for c in g.components}
        theirs = {frozenset(np.flatnonzero(labels == k).tolist()) for k in range(count)}
        assert ours == theirs, name
        # sinks first: every edge stays in its component or leaves for an earlier one
        rank = {i: k for k, comp in enumerate(g.components) for i in comp}
        assert all(rank[j] <= rank[i] for i, j in edges), name



def test_to_dot_plain_and_with_profile():
    g = parse_graph(MINIMAL_FAN)
    dot = to_dot(g)
    assert dot.count("->") == 2
    assert "doublecircle" in dot

    profile = build_profile(solve(g), beta=0.0)
    annotated = to_dot(g, profile)
    assert "p=0.5" in annotated
    assert "w=" in annotated


def test_to_dot_rejects_mismatched_profile():
    g = parse_graph(MINIMAL_FAN)
    other = build_graph(["r", "x"], [("r", "x")], {"x": 1})
    # a fan of g's shape and labels whose terminal values differ: same array lengths
    twin = build_graph(list(g.labels), [(g.labels[i], g.labels[j]) for i, j in g.edges()],
                       {g.labels[k]: 3 for k in g.terminals})
    for graph in (other, twin):
        with pytest.raises(GraphError, match="strategy profile does not match the graph"):
            to_dot(g, build_profile(solve(graph)))
    assert to_dot(twin, build_profile(solve(twin))).count("->") == 2


def test_to_dot_stopping_variant_styles_terminal():
    from pathwager import build_stopping_variant

    g = build_stopping_variant(3)
    dot = to_dot(g)
    assert '"stop" [shape=doublecircle' in dot
    assert "truth" in dot and "lie" in dot


def test_edge_labels_survive_json(tmp_path):
    from pathwager import build_window_game

    g = build_window_game(3, 1)
    assert parse_graph(serialize_graph(g)).edge_labels == g.edge_labels


def test_graph_is_immutable():
    g = parse_graph(MINIMAL_FAN)
    with pytest.raises(Exception):
        g.labels = ("x",)
