"""Game graphs: representation, JSON parsing, validation, classification, DOT export.

A game graph is a finite directed graph in which every node of out-degree
zero ("terminal") carries a positive value.  Play starts at a non-terminal
node and walks edges until a terminal node is reached (if ever).  Each graph
caches one read-only edge table in the compressed-sparse-row layout of
``edge_offsets``: edge e runs from ``sources[e]`` to ``targets[e]``, and
``weights[e]`` is its entry in the propagation operator (1/2 at out-degree 1,
1/d at out-degree d).  Terminal nodes have no edges.  Each graph also caches
one depth-first search, ``search``: it gives the strongly connected
components sinks first, the lowest node that reaches no terminal, the
back-edge heads, the post-order and the period, so classification and every
solve read one pass over the edges.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .writer import _dumps


class GraphError(ValueError):
    """Raised for malformed or invalid game-graph input."""


class GraphKind(Enum):
    FAN = "fan"
    TREE = "tree"
    TERMINATING = "terminating"
    STRONGLY_CONNECTED_APERIODIC = "strongly_connected_aperiodic"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class GraphClass:
    """Structural class of a game graph.

    Classification reports the most specific class: every fan is a tree and
    every tree is terminating.  ``reason`` is set only for UNSUPPORTED.
    """

    kind: GraphKind
    reason: Optional[str] = None

    @property
    def is_terminating(self) -> bool:
        return self.kind in (GraphKind.FAN, GraphKind.TREE, GraphKind.TERMINATING)

    @property
    def is_tree(self) -> bool:
        return self.kind in (GraphKind.FAN, GraphKind.TREE)

    def __str__(self) -> str:
        if self.kind is GraphKind.UNSUPPORTED:
            return f"unsupported ({self.reason})"
        return self.kind.value


@dataclass(frozen=True)
class GameGraph:
    """Immutable directed game graph.

    Nodes are dense integer indices 0..N-1 with string labels (insertion
    order of the input defines the index mapping).  ``successors[i]`` is the
    sorted tuple of successor indices of node i.  ``values`` maps every
    terminal node (out-degree 0) to its positive value; ``exact_values`` is
    present when every value was given exactly (integers or num/den pairs)
    and enables rational arithmetic downstream.  ``edge_labels`` optionally
    tags edges with move names (e.g. "truth"/"lie" for oracle games; a
    merged edge may carry "truth|lie").
    """

    labels: tuple[str, ...]
    successors: tuple[tuple[int, ...], ...]
    values: dict[int, float] = field(default_factory=dict)
    exact_values: Optional[dict[int, Fraction]] = None
    edge_labels: Optional[dict[tuple[int, int], str]] = None

    def __post_init__(self) -> None:
        _validate(self)

    # -- basic accessors -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    def out_degree(self, i: int) -> int:
        return len(self.successors[i])

    def is_terminal(self, i: int) -> bool:
        return not self.successors[i]

    @cached_property
    def terminals(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.num_nodes) if self.is_terminal(i))

    @cached_property
    def nonterminals(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.num_nodes) if not self.is_terminal(i))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown node label {label!r}") from None

    @cached_property
    def edge_offsets(self) -> np.ndarray:
        """Row pointer of the per-edge layout; cached and read-only.

        Node i's edges are ``edge_offsets[i]:edge_offsets[i + 1]``, one per
        successor in ``successors[i]`` order, so edge e of ``edges()`` is e.
        """
        offsets = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum([len(succ) for succ in self.successors], out=offsets[1:])
        return _read_only(offsets)

    @cached_property
    def targets(self) -> np.ndarray:
        """Head of each edge, the successors flattened; cached and read-only."""
        count = int(self.edge_offsets[-1])
        return _read_only(np.fromiter(itertools.chain.from_iterable(self.successors), np.int64, count))

    @cached_property
    def sources(self) -> np.ndarray:
        """Tail of each edge, its row of the table; cached and read-only."""
        return _read_only(np.repeat(np.arange(self.num_nodes), np.diff(self.edge_offsets)))

    @cached_property
    def weights(self) -> np.ndarray:
        """M's entry on each edge, 1/2 at out-degree 1 and 1/d at d; cached and read-only."""
        degree = np.diff(self.edge_offsets)[self.sources]
        return _read_only(np.where(degree == 1, 0.5, 1.0 / degree))

    @cached_property
    def degree_blocks(self) -> tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Non-terminal nodes by out-degree d, d increasing: (d, nodes, succ, edges); cached.

        ``nodes`` is ascending; row k of the m x d matrices ``succ`` and
        ``edges`` holds the successors of ``nodes[k]`` and the indices of its
        edges (see ``edge_offsets``), so per-node work runs as axis-1
        operations and per-edge arrays scatter and gather through ``edges``.
        """
        by_degree: dict[int, list[int]] = {}
        for i in self.nonterminals:
            by_degree.setdefault(len(self.successors[i]), []).append(i)
        blocks = []
        for d, nodes in sorted(by_degree.items()):
            edges = self.edge_offsets[nodes][:, None] + np.arange(d)
            blocks.append((d, np.array(nodes), self.targets[edges], edges))
        return tuple(blocks)

    def edges(self) -> Iterable[tuple[int, int]]:
        return ((i, j) for i, succ in enumerate(self.successors) for j in succ)

    @cached_property
    def search(self) -> DepthFirstSearch:
        """The one depth-first search that classifies the graph and orders its solve; cached."""
        return _depth_first_search(self.successors)

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Strongly connected components, sinks first (the value solve's order)."""
        return self.search.components

    @cached_property
    def _class(self) -> GraphClass:
        """Structural class, as ``classify`` reports it; cached."""
        return _classify(self)

    def is_cyclic(self, component: Sequence[int]) -> bool:
        """True when a component carries a cycle: two or more nodes, or a self-loop."""
        return len(component) > 1 or component[0] in self.successors[component[0]]

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        edges = [[self.labels[i], self.labels[j]] for i, j in self.edges()]
        values: dict[str, object] = {}
        for i in sorted(self.values):
            if self.exact_values is not None:
                values[self.labels[i]] = rational_json(self.exact_values[i])
            else:
                values[self.labels[i]] = self.values[i]
        doc: dict = {"nodes": list(self.labels), "edges": edges, "values": values}
        if self.edge_labels:
            doc["edge_labels"] = [
                self.edge_labels.get((i, j)) for i, j in self.edges()
            ]
        return doc


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def rational_json(frac: Fraction):
    """JSON form of an exact value: an integer, or a [numerator, denominator] pair."""
    return int(frac) if frac.denominator == 1 else [frac.numerator, frac.denominator]


def build_graph(
    labels: Sequence[str],
    edges: Iterable[tuple[str, str]],
    values: Mapping[str, object],
    edge_labels: Optional[Mapping[tuple[str, str], str]] = None,
) -> GameGraph:
    """Construct a validated GameGraph from labelled parts.

    Values may be int, float, Fraction, or (numerator, denominator) pairs;
    exact rational values are retained when every value is exact.
    """
    if not labels:
        raise GraphError("graph must contain at least one node")
    index: dict[str, int] = {}
    for lab in labels:
        lab = str(lab)
        if lab in index:
            raise GraphError(f"duplicate node label {lab!r}")
        index[lab] = len(index)

    succ: list[set[int]] = [set() for _ in labels]
    labelled: dict[tuple[int, int], str] = {}
    for a, b in edges:
        if a not in index:
            raise GraphError(f"edge references unknown node {a!r}")
        if b not in index:
            raise GraphError(f"edge references unknown node {b!r}")
        i, j = index[a], index[b]
        if j in succ[i]:
            raise GraphError(f"duplicate edge {a!r} -> {b!r}")
        succ[i].add(j)
    if edge_labels:
        for (a, b), lab in edge_labels.items():
            labelled[(index[a], index[b])] = lab

    float_values: dict[int, float] = {}
    exact: dict[int, Fraction] = {}
    all_exact = True
    for lab, raw in values.items():
        if lab not in index:
            raise GraphError(f"value assigned to unknown node {lab!r}")
        i = index[lab]
        frac: Optional[Fraction]
        if isinstance(raw, Fraction):
            frac = raw
        elif isinstance(raw, bool):
            raise GraphError(f"value for node {lab!r} must be a number")
        elif isinstance(raw, int):
            frac = Fraction(raw)
        elif isinstance(raw, float):
            frac = None
        elif isinstance(raw, (list, tuple)) and len(raw) == 2:
            num, den = raw
            if not isinstance(num, int) or not isinstance(den, int) or den == 0:
                raise GraphError(f"value for node {lab!r} is not a valid num/den pair")
            frac = Fraction(num, den)
        else:
            raise GraphError(f"value for node {lab!r} must be a number or [num, den] pair")
        if frac is not None:
            float_values[i] = float(frac)
            exact[i] = frac
        else:
            float_values[i] = float(raw)
            all_exact = False

    return GameGraph(
        labels=tuple(str(lab) for lab in labels),
        successors=tuple(tuple(sorted(s)) for s in succ),
        values=float_values,
        exact_values=exact if all_exact else None,
        edge_labels=labelled or None,
    )


def _validate(g: GameGraph) -> None:
    n = len(g.labels)
    if n == 0:
        raise GraphError("graph must contain at least one node")
    for i, succ in enumerate(g.successors):
        for j in succ:
            if not 0 <= j < n:
                raise GraphError(f"edge from {g.labels[i]!r} references unknown node index {j}")
        if len(set(succ)) != len(succ):
            raise GraphError(f"duplicate edge out of node {g.labels[i]!r}")
    for i in range(n):
        if g.is_terminal(i):
            if i not in g.values:
                raise GraphError(f"terminal node {g.labels[i]!r} lacks a value")
        elif i in g.values:
            raise GraphError(
                f"node {g.labels[i]!r} has a value but out-degree {g.out_degree(i)}; "
                "values belong to terminal nodes only"
            )
    for i, v in g.values.items():
        if not math.isfinite(v) or v <= 0:
            raise GraphError(f"terminal value of node {g.labels[i]!r} must be strictly positive")
    if g.exact_values is not None:
        if set(g.exact_values) != set(g.values):
            raise GraphError("exact values must cover exactly the terminal nodes")
        for i, frac in g.exact_values.items():
            if frac <= 0:
                raise GraphError(f"terminal value of node {g.labels[i]!r} must be strictly positive")


# -- JSON wire format ----------------------------------------------------


def parse_graph(text: str) -> GameGraph:
    """Parse the JSON graph document.

    Schema: {"nodes": [label, ...], "edges": [[from, to], ...],
    "values": {label: number-or-[num,den], ...}} with an optional
    "edge_labels" array aligned with "edges".
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    for key in ("nodes", "edges", "values"):
        if key not in doc:
            raise GraphError(f"graph document missing {key!r}")
    nodes = doc["nodes"]
    edges = doc["edges"]
    values = doc["values"]
    if not isinstance(nodes, list) or not all(isinstance(x, str) for x in nodes):
        raise GraphError("'nodes' must be a list of string labels")
    if not isinstance(edges, list):
        raise GraphError("'edges' must be a list of [from, to] pairs")
    pairs: list[tuple[str, str]] = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise GraphError(f"edge {e!r} is not a [from, to] pair")
        pairs.append((e[0], e[1]))
    if not isinstance(values, dict):
        raise GraphError("'values' must be an object")
    edge_labels = None
    if "edge_labels" in doc and doc["edge_labels"] is not None:
        raw = doc["edge_labels"]
        if not isinstance(raw, list) or len(raw) != len(pairs):
            raise GraphError("'edge_labels' must align with 'edges'")
        edge_labels = {
            pair: lab for pair, lab in zip(pairs, raw) if lab is not None
        }
    return build_graph(nodes, pairs, values, edge_labels=edge_labels)


def serialize_graph(g: GameGraph) -> str:
    """Serialize to the JSON wire format; parse(serialize(g)) == g."""
    return _dumps(g.to_dict())


# -- classification ------------------------------------------------------


class DepthFirstSearch(NamedTuple):
    """What ``_depth_first_search`` finds."""

    components: tuple[tuple[int, ...], ...]  # strongly connected, sinks first
    stuck: Optional[int]                     # the lowest node reaching no terminal
    heads: tuple[int, ...]                   # back-edge targets, sorted; none when acyclic
    order: tuple[int, ...]                   # post-order
    period: int                              # gcd of the cycle lengths; 1 with terminals


def _depth_first_search(successors: Sequence[Sequence[int]]) -> DepthFirstSearch:
    """One iterative Tarjan search (Tarjan, SIAM J. Comput. 1972), O(N + E).

    It starts at the only self-loop node if there is one (a self-loop is a
    back edge, so another root would add a head), else at node 0, then at
    each unseen node in index order.  With one head f every cycle passes
    through f, and the post-order lists the rest sinks first.  A component
    closes after every component it reaches, which settles whether it reaches
    a terminal.  The period is the gcd of d(i) + 1 - d(j) over edges i -> j,
    d the tree depth: a cycle's length is the sum of its terms, and each term
    is the difference of two closed walks through the root.
    """
    n = len(successors)
    loops = [i for i, row in enumerate(successors) if i in row]
    index, low, depth, on_path = [-1] * n, [0] * n, [0] * n, [False] * n
    reach = [not row for row in successors]  # reaches a terminal
    period = 1 if any(reach) else 0  # 1 skips the gcd
    counter, stack, components, heads, order = itertools.count(), [], [], set(), []
    for root in itertools.chain(loops if len(loops) == 1 else (), range(n)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = next(counter)
        on_path[root] = True
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            v, children = work[-1]
            for w in children:
                iw = index[w]
                if iw < 0:
                    index[w] = low[w] = next(counter)
                    depth[w], on_path[w] = len(work), True
                    stack.append(w)
                    work.append((w, iter(successors[w])))
                    break
                if iw < low[v]:  # a node in a closed component has index n
                    low[v] = iw
                if on_path[w]:
                    heads.add(w)
                if period != 1:
                    period = math.gcd(period, depth[v] + 1 - depth[w])
                if reach[w]:
                    reach[v] = True
            else:
                order.append(work.pop()[0])
                on_path[v] = False
                if low[v] == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    for w in members:  # v's reach holds all of theirs
                        index[w], reach[w] = n, reach[v]
                    components.append(tuple(sorted(members)))
                if work:
                    u = work[-1][0]
                    low[u], reach[u] = min(low[u], low[v]), reach[u] or reach[v]
    stuck = next((i for i in range(n) if not reach[i]), None)
    return DepthFirstSearch(tuple(components), stuck, tuple(sorted(heads)), tuple(order), period)


def aperiodicity_gcd(g: GameGraph) -> int:
    """gcd of all cycle lengths of a strongly connected graph (1: aperiodic), from its search."""
    if g.terminals:
        raise GraphError("aperiodicity is defined for graphs without terminal nodes")
    if len(g.components) != 1:
        raise GraphError("aperiodicity requires a strongly connected graph")
    return g.search.period


def classify(g: GameGraph) -> GraphClass:
    """Most specific structural class, or UNSUPPORTED with a reason; kept on the graph."""
    return g._class


def _classify(g: GameGraph) -> GraphClass:
    search = g.search
    if g.terminals:
        if search.stuck is not None:
            return GraphClass(GraphKind.UNSUPPORTED,
                              f"node {g.labels[search.stuck]!r} cannot reach any terminal node")
        # acyclic, with N - 1 edges into N - 1 distinct nodes: a tree rooted
        # at the one node nothing enters, a source of the condensation
        root = search.components[-1][0]
        if (
            not search.heads
            and not g.is_terminal(root)
            and len(set(g.targets.tolist())) == len(g.targets) == g.num_nodes - 1
        ):
            if all(g.is_terminal(j) for j in g.successors[root]):
                return GraphClass(GraphKind.FAN)
            return GraphClass(GraphKind.TREE)
        return GraphClass(GraphKind.TERMINATING)
    if len(search.components) != 1:
        return GraphClass(GraphKind.UNSUPPORTED,
                          "no terminal nodes and the graph is not strongly connected")
    if search.period != 1:
        return GraphClass(GraphKind.UNSUPPORTED,
                          f"periodic: every cycle length is a multiple of {search.period}")
    return GraphClass(GraphKind.STRONGLY_CONNECTED_APERIODIC)


# -- DOT export ----------------------------------------------------------


def to_dot(g: GameGraph, profile=None) -> str:
    """Render the graph in Graphviz DOT form.

    When a strategy profile is supplied, non-terminal nodes are annotated
    with their wager and edges with the chooser/guesser probabilities; a
    profile of another graph is refused.
    """
    if profile is not None:
        if profile.graph != g:
            raise GraphError("strategy profile does not match the graph")
        chooser, guesser, wagers = (a.tolist() for a in (profile.chooser, profile.guesser,
                                                         profile.wagers))
    lines = ["digraph game {", "  rankdir=LR;"]
    for i, lab in enumerate(g.labels):
        attrs = []
        if g.is_terminal(i):
            attrs.append("shape=doublecircle")
            attrs.append(f'label="{lab}\\nv={g.values[i]:.12g}"')
        else:
            attrs.append("shape=circle")
            if profile is not None:
                attrs.append(f'label="{lab}\\nw={wagers[i]:.12g}"')
        lines.append(f'  "{lab}" [{", ".join(attrs)}];')
    for e, (i, j) in enumerate(g.edges()):
        parts = []
        if g.edge_labels and (i, j) in g.edge_labels:
            parts.append(g.edge_labels[(i, j)])
        if profile is not None:
            parts.append(f"p={chooser[e]:.12g}")
            parts.append(f"g={guesser[e]:.12g}")
        label = f' [label="{" ".join(parts)}"]' if parts else ""
        lines.append(f'  "{g.labels[i]}" -> "{g.labels[j]}"{label};')
    lines.append("}")
    return "\n".join(lines)
