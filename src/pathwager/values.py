"""Node values for game graphs.

The value v_i of a node is the guesser's expected final fortune under
optimal play starting at i with one dollar.  All solvers work with the
reciprocal values u_i = 1/v_i, which propagate linearly:

    u_i = u_j / 2                      out-degree 1, edge i -> j
    u_i = (1/n_i) * sum_{j: i->j} u_j  out-degree n_i >= 2

Every solve reads the rule from the graph's edge table, whose weights are
the entries of M (``GameGraph.weights``).  Terminating graphs pin u
at the terminals and back-substitute over the strongly connected components,
sinks first, solving densely only on cyclic ones (and refusing one whose
dense solve would pass ``DENSE_BUDGET_BYTES``); the same walk solves
(I - A) Z = R for a block of right-hand sides.  Strongly connected aperiodic
graphs have no terminals and the reciprocal values are the Perron eigenvector
of the propagation operator, whose maximal eigenvalue is the discount factor.
When one node lies on every cycle (the one-lie window games), the graph's
depth-first search (``GameGraph.search``) finds it as the only back-edge
head; the eigenvalue is the root of that node's scalar renewal equation and
the vectors follow by walks over the acyclic rest in the search's
post-order.  Every other such graph is power-iterated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .graph import GameGraph, GraphClass, GraphKind, classify, rational_json

_EIGENVALUE_RTOL = 1e-13   # successive Rayleigh-quotient estimates
_EIGENVECTOR_TOL = 1e-12   # successive iterates, 1-norm
_RESIDUAL_TOL = 1e-14      # ||M x - r x||_inf at acceptance
_STAGNATION_WINDOW = 200   # products; accept the best iterate if the residual stops improving
_POWER_BLOCK = 16          # products between convergence tests
_MAX_POWER_ITERATIONS = 10**6
_MAX_NEWTON_STEPS = 100
# Memory a dense C x C solve may take (four float64 arrays: C <= 5792); the
# strongly connected audit in ``verify``, the only holder of N x N arrays,
# is held to the same budget.
DENSE_BUDGET_BYTES = 1 << 30


class UnsupportedGraphError(ValueError):
    """Raised when an operation is asked to solve an unsupported graph."""


class ConvergenceError(RuntimeError):
    """An iterative Perron solve failed to converge within its budget."""


def _products(graph: GameGraph):
    """The products x -> M x and y -> M^T y over the graph's edge table.

    A terminal row of M x, which has no edges, is 0.  They close over
    writeable copies of the index arrays, because ``np.bincount`` copies a
    read-only index array on every call.
    """
    src, dst, w, n = graph.sources.copy(), graph.targets.copy(), graph.weights, graph.num_nodes
    return (lambda x: np.bincount(src, weights=w * x[dst], minlength=n),
            lambda y: np.bincount(dst, weights=w * y[src], minlength=n))


@dataclass
class PropagationMatrix:
    """Dense propagation matrix M, rows and columns in native node order.

    M[i, j] = 1 if i is terminal and i == j, 1/2 if out-degree(i) == 1 and
    i -> j, 1/n_i if out-degree(i) >= 2 and i -> j, else 0.  After
    permuting nodes to (non-terminal, terminal) order M takes the form
    [[A, B], [0, I]].
    """

    matrix: np.ndarray


@dataclass
class SpectralData:
    """Perron data of the propagation matrix of a strongly connected graph."""

    radius: float               # maximal eigenvalue r, in [1/2, 1]
    right_vec: np.ndarray       # strictly positive, M x = r x
    left_vec: np.ndarray        # strictly positive, M^T y = r y


@dataclass
class GameSolution:
    """Values and reciprocal values of a solved graph."""

    graph: GameGraph
    graph_class: GraphClass
    values: np.ndarray
    reciprocals: np.ndarray
    spectral: Optional[SpectralData] = None
    exact_values: Optional[list[Fraction]] = None

    def to_dict(self) -> dict:
        doc: dict = {
            "class": str(self.graph_class),
            "node_order": list(self.graph.labels),
            "values": {},
            "reciprocal_values": {},
        }
        for i, lab in enumerate(self.graph.labels):
            if self.exact_values is not None:
                doc["values"][lab] = rational_json(self.exact_values[i])
                doc["reciprocal_values"][lab] = rational_json(1 / self.exact_values[i])
            else:
                doc["values"][lab] = float(self.values[i])
                doc["reciprocal_values"][lab] = float(self.reciprocals[i])
        if self.spectral is not None:
            doc["r"] = self.spectral.radius
            doc["discount"] = self.spectral.radius  # the optimal per-step discount is r
        return doc


def build_propagation_matrix(graph: GameGraph) -> PropagationMatrix:
    """Dense propagation matrix of a supported graph (terminal self-loops added here)."""
    cls = classify(graph)
    if cls.kind is GraphKind.UNSUPPORTED:
        raise UnsupportedGraphError(cls.reason)
    m = np.diag((np.diff(graph.edge_offsets) == 0).astype(float))  # terminal rows: identity
    m[graph.sources, graph.targets] = graph.weights
    return PropagationMatrix(matrix=m)


def solve_tree(graph: GameGraph, exact: bool = False) -> GameSolution:
    """Values of a fan or tree; see ``solve_terminating``."""
    cls = classify(graph)
    if not cls.is_tree:
        raise UnsupportedGraphError(f"solve_tree requires a fan or tree, got {cls}")
    return _solve_values(graph, cls, exact)


def solve_terminating(graph: GameGraph, exact: bool = False) -> GameSolution:
    """Limiting values on a terminating graph by back-substitution.

    Components are visited sinks first.  A node on no cycle takes the rule
    directly; a cyclic component solves (I - A_cc) u_c = A_c,out u_out densely.
    Exact mode keeps the arithmetic rational; it needs an acyclic graph with
    exact terminal values.
    """
    cls = classify(graph)
    if not cls.is_terminating:
        raise UnsupportedGraphError(f"solve_terminating requires a terminating graph, got {cls}")
    return _solve_values(graph, cls, exact)


def _solve_values(graph: GameGraph, cls: GraphClass, exact: bool) -> GameSolution:
    if exact:
        _check_exact(graph)
    terminal = graph.exact_values if exact else graph.values
    u = [1 / terminal[i] if i in terminal else 0 for i in range(graph.num_nodes)]
    _solve_by_components(graph, u)

    if exact:
        exact_vals = [Fraction(1) / ui for ui in u]
        values = np.array([float(v) for v in exact_vals])
        recips = np.array([float(ui) for ui in u])
        return GameSolution(graph, cls, values, recips, exact_values=exact_vals)
    recips = np.array(u, dtype=float)
    if np.any(recips <= 0):
        raise ConvergenceError("computed reciprocal values are not strictly positive")
    return GameSolution(graph, cls, 1.0 / recips, recips)


def _check_exact(graph: GameGraph) -> None:
    """Refuse exact mode unless the graph has no back edge (is acyclic) and exact terminal values."""
    if graph.search.heads:
        raise UnsupportedGraphError("exact mode requires an acyclic graph")
    if graph.exact_values is None:
        raise UnsupportedGraphError("exact mode requires exact (rational) terminal values")


def _solve_by_components(graph: GameGraph, z: list) -> None:
    """Overwrite each entry r_i of z with the solution of (I - A) z = r, sinks first.

    Entries are floats or Fractions; terminals stay.
    """
    for comp in graph.components:
        i, succ = comp[0], graph.successors[comp[0]]
        if graph.is_cyclic(comp):
            rhs = np.array([z[i] for i in comp], dtype=float)
            block = _component_block(graph, comp, z, rhs)
            try:
                solved = np.linalg.solve(np.subtract(np.eye(len(comp)), block, out=block), rhs)
            except np.linalg.LinAlgError as exc:  # impossible for valid input
                raise ConvergenceError(f"singular system on a cyclic component: {exc}") from exc
            for i, x in zip(comp, solved.tolist()):
                z[i] = x
        elif succ:
            z[i] = z[i] + sum(map(z.__getitem__, succ)) / (2 if len(succ) == 1 else len(succ))


def _component_block(graph: GameGraph, comp: Sequence[int], z, inflow: np.ndarray) -> np.ndarray:
    """Dense block A_cc of a component; adds A_c,out z_out to ``inflow``, row by row.

    A component whose dense solve would pass ``DENSE_BUDGET_BYTES`` (the
    block, I, I - A_cc and the solver's copy) is refused before anything is
    allocated.
    """
    needed = 4 * len(comp) ** 2 * 8
    if needed > DENSE_BUDGET_BYTES:
        raise UnsupportedGraphError(
            f"a cyclic component of {len(comp)} nodes needs {needed} bytes for its dense solve, "
            f"over the budget of {DENSE_BUDGET_BYTES} bytes"
        )
    nodes = np.array(comp)
    first = graph.edge_offsets[nodes]
    count = graph.edge_offsets[nodes + 1] - first
    row = np.repeat(np.arange(len(comp)), count)
    edges = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(row))
    target, weight = graph.targets[edges], graph.weights[edges]
    col = np.searchsorted(nodes, target)  # components are sorted
    inside = nodes[np.minimum(col, len(comp) - 1)] == target
    block = np.zeros((len(comp), len(comp)))
    block[row[inside], col[inside]] = weight[inside]
    outside = ~inside
    for k, j, w in zip(row[outside].tolist(), target[outside].tolist(), weight[outside].tolist()):
        inflow[k] += w * z[j]
    return block


def _power_iteration(product, n: int) -> np.ndarray:
    """Perron vector of a primitive nonnegative operator given by its product.

    Deterministic all-ones start.  The product is applied ``_POWER_BLOCK``
    (k) times in a row with no normalization or test in between; near the
    Perron vector each product scales the iterate by r in [1/2, 1], so a
    block shrinks it by at most 2^-k.  At each block boundary the last two
    iterates are scaled to unit 1-norm and tested: converged when their
    Rayleigh quotients agree to 1e-13 (relative), they differ by at most
    1e-12 (1-norm), and the eigen-residual of the newer one is at the
    rounding floor (below 1e-14, or no better than the best one for
    ``_STAGNATION_WINDOW`` products).  The residual's product starts the next
    block.  Returns the best iterate tested.
    """
    x = np.ones(n) / n
    y = product(x)
    best = (np.inf, x)
    since_improvement = 0  # products since the best residual last improved
    for _ in range(_MAX_POWER_ITERATIONS // _POWER_BLOCK):
        prev = y
        for _ in range(_POWER_BLOCK - 1):
            prev, y = y, product(y)
        prev_norm, norm = float(np.abs(prev).sum()), float(np.abs(y).sum())
        if norm == 0.0:
            raise ConvergenceError("power iteration collapsed to zero")
        x_prev, x = prev / prev_norm, y / norm
        r_prev = float(x_prev @ (y / prev_norm) / (x_prev @ x_prev))
        y = product(x)
        r = float(x @ y / (x @ x))
        drift = float(np.abs(x - x_prev).sum())
        residual = float(np.abs(y - r * x).max())
        if residual < best[0]:
            best = (residual, x)
            since_improvement = 0
        else:
            since_improvement += _POWER_BLOCK
        settled = (
            abs(r - r_prev) <= _EIGENVALUE_RTOL * max(abs(r), 1e-300)
            and drift <= _EIGENVECTOR_TOL
        )
        if settled and (residual <= _RESIDUAL_TOL or since_improvement >= _STAGNATION_WINDOW):
            return best[1]
    raise ConvergenceError(
        f"power iteration did not converge in {_MAX_POWER_ITERATIONS} products; "
        f"best residual {best[0]:.3e}"
    )


def _renewal_solve(offsets: np.ndarray, targets: np.ndarray, weights: np.ndarray, f: int,
                   order: Sequence[int]) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron triple (r, x, y) when every cycle passes through f; ``order`` lists the rest, R, sinks first.

    With x_f = 1, x_R = X(r) = (rI - M_RR)^{-1} M_Rf and r solves the renewal
    equation s(r) = (M_ff + M_fR X(r)) / r = 1 (Meyer's stochastic complement).
    s is a positive sum of powers of 1/r, so log s is convex and decreasing in
    log r, and s(1/2) >= 1 since r >= the least row sum 1/2: Newton steps in
    log r from 1/2, one sinks-first walk of X and dX/dr each, rise to the root
    and stop when r stops rising.  X falls as r rises, so it can overflow only
    before the first step; r then bisects [1/2, 1] in log r until X is finite
    with s >= 1.  A sources-first walk pushes y_R.
    """
    bounds, targets, weights = offsets.tolist(), targets.tolist(), weights.tolist()
    rows = [list(zip(targets[a:b], weights[a:b])) for a, b in zip(bounds, bounds[1:])]
    n = len(rows)
    x, dx, y = [0.0] * n, [0.0] * n, [0.0] * n
    x[f] = y[f] = 1.0
    lo = r = 0.5
    hi, searching = 1.0, True  # [lo, hi] holds the root while searching
    for _ in range(_MAX_NEWTON_STEPS):
        for i in (*order, f):  # f last, where a and b become r s and r ds/dr + s
            a = b = 0.0
            for j, w in rows[i]:
                a += w * x[j]
                b += w * dx[j]
            if i != f:
                x[i], dx[i] = a / r, (b - a / r) / r
        if searching and not (a >= r and math.isfinite(a - b)):
            lo, hi = (r, hi) if a >= r else (lo, r)  # X overflowed below the root, or r passed it
            r = math.sqrt(lo * hi)
            continue
        searching = False
        step = r * math.exp(math.log(a / r) / (1 - r * b / a))
        if not step > r:
            break
        r = step
    else:
        raise ConvergenceError(f"renewal equation did not converge in {_MAX_NEWTON_STEPS} Newton steps")
    for i in (f, *reversed(order)):
        if i != f:
            y[i] /= r
        for j, w in rows[i]:
            if j != f:
                y[j] += w * y[i]
    x_vec, y_vec = np.array(x), np.array(y)
    return r, x_vec / x_vec.sum(), y_vec / y_vec.sum()


def solve_strongly_connected(graph: GameGraph) -> GameSolution:
    """Perron solve for strongly connected aperiodic graphs.

    The maximal eigenvalue r of M (in [1/2, 1]) is the optimal discount
    factor, with right and left eigenvectors x and y.  ``_renewal_solve`` finds
    them when the graph's search has one back-edge head, a node on every
    cycle (the one-lie windows); power iteration on M and M^T does
    otherwise, with r the two-sided Rayleigh quotient y^T M x / y^T x.  The reciprocal
    values u = x * sum(y) / (x . y) are the limit of the depth-limited values
    r^{-s} M^s 1, with no rescaling.
    """
    cls = classify(graph)
    if cls.kind is not GraphKind.STRONGLY_CONNECTED_APERIODIC:
        raise UnsupportedGraphError(
            f"solve_strongly_connected requires a strongly connected aperiodic graph, got {cls}"
        )
    heads, order = graph.search.heads, graph.search.order
    if len(heads) == 1:
        r, x, y = _renewal_solve(graph.edge_offsets, graph.targets, graph.weights, heads[0],
                                 [i for i in order if i != heads[0]])
    else:
        matvec, rmatvec = _products(graph)
        x = _power_iteration(matvec, graph.num_nodes)
        y = _power_iteration(rmatvec, graph.num_nodes)
        mx = matvec(x)
        r = float(y @ mx / (y @ x))
        r += float(y @ (mx - r * x) / (y @ x))  # the same quotient, less its rounding error
    # cap at the row-sum bound r <= max_i sum_j M_ij = 1 (Meyer, Matrix Analysis,
    # 8.1): rounding can put the estimates a few ulps above it
    radius = min(r, 1.0)
    u = x * (y.sum() / (x @ y))
    if np.any(u <= 0) or np.any(x <= 0) or np.any(y <= 0):
        raise ConvergenceError("Perron vectors are not strictly positive")
    spectral = SpectralData(radius=radius, right_vec=x, left_vec=y)
    return GameSolution(graph, cls, 1.0 / u, u, spectral=spectral)


def solve(graph: GameGraph, exact: bool = False) -> GameSolution:
    """Dispatch to the solver for the graph's class."""
    cls = classify(graph)
    if cls.is_tree:
        return solve_tree(graph, exact=exact)
    if cls.kind is GraphKind.TERMINATING:
        return solve_terminating(graph, exact=exact)
    if cls.kind is GraphKind.STRONGLY_CONNECTED_APERIODIC:
        if exact:
            _check_exact(graph)  # a strongly connected graph is cyclic: this raises
        return solve_strongly_connected(graph)
    raise UnsupportedGraphError(cls.reason)


def _truncation_series(solution: GameSolution, steps: int) -> np.ndarray:
    """Sup-norm distances of the s-step games' reciprocal values to the limit, s = 0..steps.

    Terminating graphs iterate u_{s+1} = M u_s from the leaf vector (ones on
    non-terminal nodes, pre-assigned reciprocals on terminals), where M's
    terminal rows are the identity's; strongly connected graphs iterate the
    discount-scaled form (1/r) M from all-ones.  Each residual is taken as
    its step is made, so one vector is held at a time.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    graph = solution.graph
    limit = solution.reciprocals
    terminal, matvec = np.diff(graph.edge_offsets) == 0, _products(graph)[0]
    u = np.ones(graph.num_nodes)
    u[terminal] = [1.0 / graph.values[i] for i in graph.terminals]
    scale = 1.0 if solution.spectral is None else 1.0 / solution.spectral.radius
    residuals = np.empty(steps + 1)
    residuals[0] = np.abs(u - limit).max()
    for s in range(1, steps + 1):
        u = np.where(terminal, u, scale * matvec(u))
        residuals[s] = np.abs(u - limit).max()
    return residuals
