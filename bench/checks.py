"""Checks of the program's outputs against computations made apart from it.

Nothing here imports pathwager.  Graph files are read as plain JSON, and
every reference (values, Perron data, transition matrices, absorbing
systems, stopping series, exact recursions) is recomputed from the graph
with numpy and scipy.sparse.  None of it is timed.

    python3 bench/checks.py RESULTS.json    # prints {"failed", "rep_steps", "problems"}
"""

from __future__ import annotations

import copy
import json
import math
import sys
from fractions import Fraction

import numpy as np

from workloads import FAULTS

MC_SIGMAS = 5.0        # Monte Carlo means must lie within this many standard errors
VALUE_RTOL = 1e-8
# A counted failure must have its cause in the graph: for the clamp fault a
# beta = 1 wager below CLAMP_WAGER (above WAGER_ZERO on terminating graphs,
# where an exact tie gives a zero wager that build_profile handles; power
# iteration can split a tie, so on strongly connected graphs any small wager
# counts), for the audit fault a contraction rate (spectral radius of the
# transient block, or |lambda_2| / r) whose AUDIT_STEPS-th power is above
# AUDIT_FLOOR.
CLAMP_WAGER = 1e-3
WAGER_ZERO = 1e-12
AUDIT_STEPS = 400
AUDIT_FLOOR = 1e-12


def game_record(game) -> dict:
    return {"name": game.name, "file": game.file, "oracle": game.oracle}


class CheckFailure(Exception):
    pass


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def close(got, want, rtol=VALUE_RTOL, atol=1e-12) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


# -- reference computations -------------------------------------------------------


def _as_fraction(raw) -> Fraction:
    if isinstance(raw, list):
        return Fraction(raw[0], raw[1])
    if isinstance(raw, int):
        return Fraction(raw)
    return Fraction(raw)


class Reference:
    """Independent model of one game graph."""

    def __init__(self, record: dict):
        self.record = record
        with open(record["file"]) as fh:
            doc = json.load(fh)
        self.doc = doc
        self.labels = list(doc["nodes"])
        index = {lab: i for i, lab in enumerate(self.labels)}
        self.index = index
        n = len(self.labels)
        self.n = n
        succ: list[list[int]] = [[] for _ in range(n)]
        for a, b in doc["edges"]:
            succ[index[a]].append(index[b])
        self.succ = [sorted(s) for s in succ]
        self.terminals = [i for i in range(n) if not self.succ[i]]
        self.nonterminals = [i for i in range(n) if self.succ[i]]
        self.raw_values = {index[k]: v for k, v in doc["values"].items()}
        self.term_values = {i: float(_as_fraction(v)) for i, v in self.raw_values.items()}
        self.edges = sum(len(s) for s in self.succ)
        self._solved = False

    # structure

    def kind(self) -> str:
        if not self.terminals:
            return "strongly_connected_aperiodic"
        indeg = [0] * self.n
        for s in self.succ:
            for j in s:
                indeg[j] += 1
        roots = [i for i in range(self.n) if indeg[i] == 0]
        if (len(roots) == 1 and self.succ[roots[0]]
                and all(indeg[i] == 1 for i in range(self.n) if i != roots[0])
                and len(self._reach(roots[0])) == self.n):
            root = roots[0]
            return "fan" if all(not self.succ[j] for j in self.succ[root]) else "tree"
        return "terminating"

    def _reach(self, start: int) -> set:
        seen, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in self.succ[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    def matrix(self):
        """Sparse propagation matrix M (terminal rows carry a unit self-loop)."""
        from scipy import sparse

        rows, cols, vals = [], [], []
        for i, s in enumerate(self.succ):
            if not s:
                rows.append(i), cols.append(i), vals.append(1.0)
            for j in s:
                rows.append(i), cols.append(j), vals.append(0.5 if len(s) == 1 else 1.0 / len(s))
        return sparse.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    # values

    def solve(self) -> None:
        if self._solved:
            return
        self._solved = True
        self.M = self.matrix()
        self.r = None
        if self.terminals:
            self._solve_terminating()
        else:
            self._solve_perron()
        self.v = 1.0 / self.u

    def _solve_terminating(self) -> None:
        from scipy.sparse import identity
        from scipy.sparse.linalg import spsolve

        nt, t = self.nonterminals, self.terminals
        u = np.zeros(self.n)
        u[t] = [1.0 / self.term_values[k] for k in t]
        if nt:
            a = self.M[nt][:, nt]
            b = self.M[nt][:, t]
            lhs = (identity(len(nt), format="csc") - a).tocsc()
            u[nt] = np.atleast_1d(spsolve(lhs, b @ u[t]))
        self.u = u

    def _solve_perron(self) -> None:
        """Perron pair from dense LAPACK, or from ARPACK on large graphs.

        ARPACK does not converge on slowly mixing one-lie windows (n >= 120),
        whose eigenvalues crowd the circle of radius r; LAPACK handles them.
        """
        m = self.M
        if self.n <= 600:
            dense = m.toarray()
            x = _perron(dense)
            y = _perron(dense.T)
        else:
            from scipy.sparse.linalg import eigs

            x = _positive(eigs(m, k=1, which="LM", tol=1e-15)[1][:, 0])
            y = _positive(eigs(m.T.tocsr(), k=1, which="LM", tol=1e-15)[1][:, 0])
        mx = m @ x
        self.r = float(mx @ x / (x @ x))
        self.u = x * (y.sum() / (x @ y))

    def transition(self):
        """P = V M V^-1 (divided by r on strongly connected graphs), sparse."""
        from scipy import sparse

        self.solve()
        p = sparse.diags(self.v) @ self.M @ sparse.diags(self.u)
        if self.r is not None:
            p = p / self.r
        return p.tocsr()

    def moments(self, beta: float = 1.0):
        """Sparse K1, K2 with K_ij = E[mult^k; next = j | at i] at risk beta.

        The guesser's wager and guess rows come from the reference values:
        w = 1 - n beta p_min (0 when that is below 1e-12, with a uniform
        guess), g = (p - beta p_min) / w; a forced move wagers everything.
        """
        from scipy import sparse

        self.solve()
        rows, cols, k1, k2 = [], [], [], []
        for i in self.nonterminals:
            s = self.succ[i]
            n = len(s)
            p = self.u[s] / self.u[s].sum()
            if n == 1:
                g, win, lose = np.ones(1), 2.0, 0.0
            else:
                w = 1.0 - n * beta * p.min()
                g = (p - beta * p.min()) / w if w > 1e-12 else np.full(n, 1.0 / n)
                w = w if w > 1e-12 else 0.0
                win, lose = 1.0 + (n - 1) * w, 1.0 - w
            rows += [i] * n
            cols += s
            k1 += list(p * (g * win + (1 - g) * lose))
            k2 += list(p * (g * win**2 + (1 - g) * lose**2))
        shape = (self.n, self.n)
        return (sparse.csr_matrix((k1, (rows, cols)), shape=shape),
                sparse.csr_matrix((k2, (rows, cols)), shape=shape))

    def fortune_moments(self, start: int, horizon: int | None):
        """Exact mean and variance of the final (discounted) fortune."""
        k1, k2 = self.moments()
        if self.r is not None:
            m1, m2 = np.ones(self.n), np.ones(self.n)
            for _ in range(horizon):
                m1, m2 = self.r * (k1 @ m1), self.r**2 * (k2 @ m2)
            return m1[start], m2[start] - m1[start] ** 2
        from scipy.sparse import identity
        from scipy.sparse.linalg import spsolve

        nt, t = self.nonterminals, self.terminals
        vals = np.array([self.term_values[k] for k in t])
        out = []
        for k, power in ((k1, 1), (k2, 2)):
            lhs = (identity(len(nt), format="csc") - k[nt][:, nt]).tocsc()
            out.append(np.atleast_1d(spsolve(lhs, k[nt][:, t] @ vals**power)))
        pos = nt.index(start)
        return out[0][pos], out[1][pos] - out[0][pos] ** 2

    def absorbing(self):
        """(Q, R) blocks of the transition matrix over non-terminals."""
        p = self.transition()
        nt, t = self.nonterminals, self.terminals
        return p[nt][:, nt].tocsc(), p[nt][:, t].tocsc()

    def tau_and_rho(self):
        from scipy.sparse import identity
        from scipy.sparse.linalg import spsolve

        q, r = self.absorbing()
        lhs = (identity(q.shape[0], format="csc") - q).tocsc()
        tau = np.atleast_1d(spsolve(lhs, np.ones(q.shape[0])))
        rho = spsolve(lhs, r.toarray())
        return tau, np.asarray(rho).reshape(q.shape[0], len(self.terminals))

    def exact_reciprocals(self) -> list[Fraction]:
        """Rational u by the harmonic-mean recursion (fans and trees)."""
        u: list = [None] * self.n
        for k in self.terminals:
            u[k] = 1 / _as_fraction(self.raw_values[k])

        def visit(i: int) -> Fraction:
            if u[i] is None:
                kids = [visit(j) for j in self.succ[i]]
                u[i] = kids[0] / 2 if len(kids) == 1 else sum(kids) / len(kids)
            return u[i]

        for i in range(self.n):
            visit(i)
        return u

    def shows(self, fault: str) -> bool:
        """Whether the graph has the cause of a known fault (``FAULTS``)."""
        self.solve()
        if fault == "profile_clamp":
            floor = -1.0 if self.r is not None else WAGER_ZERO
            return any(floor < 1.0 - len(s) * (self.u[s] / self.u[s].sum()).min() < CLAMP_WAGER
                       for s in self.succ if len(s) >= 2)
        dense = self.M.toarray()
        if self.r is None:
            nt = self.nonterminals
            rate = float(np.abs(np.linalg.eigvals(dense[np.ix_(nt, nt)])).max())
        else:
            moduli = np.sort(np.abs(np.linalg.eigvals(dense)))
            rate = float(moduli[-2] / moduli[-1])
        return rate**AUDIT_STEPS > AUDIT_FLOOR

    def one_lie_n(self) -> int | None:
        spec = self.record.get("oracle") or ""
        if spec.startswith("window:") and spec.endswith(",1"):
            return int(spec[len("window:"):-2])
        return None


def _positive(vec: np.ndarray) -> np.ndarray:
    vec = np.real(vec)
    vec = vec if vec.sum() > 0 else -vec
    return vec / vec.sum()


def _perron(dense: np.ndarray) -> np.ndarray:
    w, vecs = np.linalg.eig(dense)
    return _positive(vecs[:, int(np.argmax(w.real))])


def one_lie_lambda(n: int) -> float:
    """Largest real root of lam^n - lam^(n-1) - 1, by Newton from 2."""
    lam = 2.0
    for _ in range(200):
        f = lam**n - lam ** (n - 1) - 1.0
        df = n * lam ** (n - 1) - (n - 1) * lam ** (n - 2)
        step = f / df
        lam -= step
        if abs(step) < 1e-16:
            break
    return lam


# -- per-command checks -------------------------------------------------------------


def _report(res: dict) -> dict:
    need(res["rc"] == 0, f"exit code {res['rc']}: {res['stderr'].strip()[:200]}")
    try:
        return json.loads(res["stdout"])
    except ValueError:
        raise CheckFailure("standard output is not one JSON document")


def check_solve(res, ref: Reference) -> None:
    rep = _report(res)
    need(rep["class"] == ref.kind(), f"class {rep['class']} != {ref.kind()}")
    need(rep["node_order"] == ref.labels, "node order differs from the input")
    if "--exact" in res["argv"]:
        exact = ref.exact_reciprocals()
        for i, lab in enumerate(ref.labels):
            need(_as_fraction(rep["values"][lab]) == 1 / exact[i],
                 f"exact value of {lab} differs from the harmonic-mean recursion")
        return
    ref.solve()
    got_v = np.array([rep["values"][lab] for lab in ref.labels])
    got_u = np.array([rep["reciprocal_values"][lab] for lab in ref.labels])
    need(close(got_v, ref.v), "values differ from the reference solve")
    need(close(got_u * got_v, 1.0, rtol=1e-12), "values are not reciprocals")
    m = ref.M
    if ref.r is None:
        nt, t = ref.nonterminals, ref.terminals
        if nt:
            a, b = m[nt][:, nt], m[nt][:, t]
            resid = np.abs(got_u[nt] - a @ got_u[nt] - b @ got_u[t]).max()
            need(resid <= 1e-10 * np.abs(got_u).max(), f"(I-A)u != B u_t, residual {resid:.3e}")
    else:
        r = rep["r"]
        mx = m @ got_u
        ratios = mx / got_u
        slack = 1e-12 * r
        need(ratios.min() - slack <= r <= ratios.max() + slack,
             f"r={r!r} outside the Collatz-Wielandt bracket "
             f"[{ratios.min()!r}, {ratios.max()!r}]")
        resid = np.abs(mx - r * got_u).max() / np.abs(got_u).max()
        need(resid <= 1e-9, f"eigen-residual {resid:.3e}")
        need(abs(r - ref.r) <= 1e-9, f"r={r!r} differs from the reference {ref.r!r}")
        need(rep["discount"] == r, "discount differs from r")
        n1 = ref.one_lie_n()
        if n1 is not None:
            lam = one_lie_lambda(n1)
            need(abs(r - lam / 2) <= 1e-10, f"r={r!r} != lambda/2={lam / 2!r}")
    if "--truncate" in res["argv"]:
        steps = int(res["argv"][res["argv"].index("--truncate") + 1])
        need(len(rep["residuals"]) == steps + 1, "wrong number of truncation residuals")
        u = np.ones(ref.n)
        if ref.r is None:
            u[ref.terminals] = ref.u[ref.terminals]
        scale = 1.0 if ref.r is None else 1.0 / ref.r
        want = [np.abs(u - ref.u).max()]
        for _ in range(steps):
            u = scale * (m @ u)
            want.append(np.abs(u - ref.u).max())
        need(close(rep["residuals"], want, rtol=1e-6, atol=1e-9),
             "truncation residuals differ from the reference series")


def check_strategy(res, ref: Reference) -> None:
    rep = _report(res)
    ref.solve()
    beta = float(res["argv"][res["argv"].index("--beta") + 1])
    need(rep["beta"] == beta, "beta differs from the request")
    need(sorted(rep["nodes"]) == sorted(ref.labels[i] for i in ref.nonterminals),
         "profile does not cover exactly the non-terminal nodes")
    for i in ref.nonterminals:
        node = rep["nodes"][ref.labels[i]]
        succ = [ref.labels[j] for j in ref.succ[i]]
        need(list(node["chooser"]) == succ and list(node["guesser"]) == succ,
             f"rows at {ref.labels[i]} do not follow the successors")
        p = np.array([node["chooser"][s] for s in succ])
        g = np.array([node["guesser"][s] for s in succ])
        for row in (p, g):
            need(row.min() >= 0 and abs(row.sum() - 1) <= 1e-9,
                 f"row at {ref.labels[i]} is off the simplex")
        weights = ref.u[ref.succ[i]]
        want_p = weights / weights.sum()
        need(close(p, want_p, rtol=1e-8, atol=1e-12),
             f"chooser row at {ref.labels[i]} is not proportional to u")
        n = len(succ)
        w = node["wager"]
        if n == 1:
            need(w == 1.0, f"forced move at {ref.labels[i]} wagers {w}")
            continue
        want_w = 1.0 - n * beta * want_p.min()
        need(abs(w - want_w) <= 1e-8, f"wager at {ref.labels[i]} is {w!r}, want {want_w!r}")
        if want_w > 1e-4:
            need(close(g, (p - beta * p.min()) / w, rtol=1e-6, atol=1e-9),
                 f"guess row at {ref.labels[i]} differs from (p - beta p_min)/w")


def check_analyze(res, ref: Reference) -> None:
    ref.solve()
    if "csv" in res["argv"]:
        return check_analyze_csv(res, ref)
    rep = _report(res)
    need(rep["node_order"] == ref.labels, "node order differs from the input")
    degrees_ok = all(len(ref.succ[i]) >= 2 for i in ref.nonterminals)
    fair = degrees_ok and all(v == 1 for v in ref.term_values.values())
    need(rep["fair"] == fair, f"fairness verdict {rep['fair']} != {fair}")
    if ref.r is None:
        if not ref.nonterminals:
            return
        tau, rho = ref.tau_and_rho()
        got_tau = np.array([rep["expected_stopping_times"][ref.labels[i]]
                            for i in ref.nonterminals])
        need(close(got_tau, tau, rtol=1e-8), "expected stopping times differ from (I-Q)^-1 1")
        got_rho = np.array([[rep["terminal_probabilities"][ref.labels[i]][ref.labels[k]]
                             for k in ref.terminals] for i in ref.nonterminals])
        need(close(got_rho, rho, rtol=1e-8, atol=1e-11),
             "terminal probabilities differ from (I-Q)^-1 R")
        return
    mu = np.array([rep["invariant_measure"][lab] for lab in ref.labels])
    need(mu.min() > 0 and abs(mu.sum() - 1) <= 1e-9, "invariant measure is not a distribution")
    drift = np.abs(ref.transition().T @ mu - mu).max()
    need(drift <= 1e-9 * mu.max() + 1e-13, f"invariant measure not stationary: drift {drift:.3e}")
    shape = np.array([rep["steady_fortune_shape"][lab] for lab in ref.labels])
    want = mu / ref.v
    need(close(shape, want / want.sum(), rtol=1e-7, atol=1e-14),
         "steady fortune shape is not proportional to mu / v")


def check_analyze_csv(res, ref: Reference) -> None:
    need(res["rc"] == 0, f"exit code {res['rc']}")
    lines = res["stdout"].strip().splitlines()
    header = lines[0].split(",")
    need(header == ["t"] + [ref.labels[i] for i in ref.nonterminals], "CSV header")
    q, r = ref.absorbing()
    dist = np.asarray(r.sum(axis=1)).ravel()
    for t, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        need(int(cells[0]) == t, "CSV rows out of order")
        need(close([float(c) for c in cells[1:]], dist, rtol=1e-7, atol=1e-11),
             f"P(T = {t}) differs from the reference series")
        dist = q @ dist
    need(len(lines) == 501, "stopping series does not run to t_max = 500")


def _mc(mean, se, want, what: str, reps: int, var: float = 0.0) -> None:
    """A sample mean lies within MC_SIGMAS standard errors of its exact value.

    The standard error is the larger of the sample's and the exact one
    (from the exact variance), since on skewed fortunes the sample
    standard error understates the spread of the mean.
    """
    want = float(want)
    exact_se = math.sqrt(var / reps) if math.isfinite(var) and var > 0 else 0.0
    limit = MC_SIGMAS * max(se or 0.0, exact_se) + 1e-9 * max(1.0, abs(want))
    need(abs(mean - want) <= limit,
         f"{what} {mean!r} is off {want!r} by {abs(mean - want):.3e} "
         f"(se {se}, exact se {exact_se:.3e})")


def check_simulate(res, ref: Reference) -> float:
    """Returns the replication-steps the report accounts for."""
    ref.solve()
    argv = res["argv"]
    reps = int(argv[argv.index("--reps") + 1])
    start = ref.nonterminals[0]
    if "csv" in argv:
        need(res["rc"] == 0, f"exit code {res['rc']}")
        rows = [line.split(",") for line in res["stdout"].strip().splitlines()[1:]]
        need(len(rows) == reps, "CSV has the wrong number of replications")
        times = np.array([int(r[1]) for r in rows], dtype=float)
        fortunes = np.array([float(r[3]) for r in rows])
        need(all(r[4] == "0" for r in rows), "censored replications")
        if ref.r is not None:
            need(np.all(times == times[0]), "replications ran different horizons")
            _check_discounted(ref, start, int(times[0]), fortunes.mean(), _se(fortunes), reps)
        else:
            _check_terminating(ref, start, reps, fortunes.mean(), _se(fortunes), times.mean(),
                               _se(times))
        return float(times.sum())
    rep = _report(res)
    summary = rep["summary"]
    need(summary["replications"] == reps, "replication count differs from the request")
    need(rep["start"] == ref.labels[start], "simulation did not start at the first node")
    need(close(rep["value_at_start"], ref.v[start]), "value at start differs")
    if ref.r is not None:
        horizon = summary["horizon"]
        need(abs(summary["discount"] - ref.r) <= 1e-9, "discount differs from r")
        last = summary["discounted_checkpoints"][str(horizon)]
        _check_discounted(ref, start, horizon, last["mean"], last["se"], reps)
        occ = np.array(list(summary["occupancy"].values()))
        need(abs(occ.sum() - 1) <= 1e-9 and occ.min() >= 0, "occupancy is not a distribution")
        return float(reps * horizon)
    need(summary["censored"] == 0, "censored replications")
    hist = {int(t): c for t, c in summary["stopping_histogram"].items()}
    need(sum(hist.values()) == reps, "stopping histogram does not count every replication")
    steps = float(sum(t * c for t, c in hist.items()))
    need(abs(steps / reps - summary["mean_stopping_time"]) <= 1e-9 * max(1, steps / reps),
         "mean stopping time disagrees with the histogram")
    need(abs(sum(summary["terminal_frequencies"].values()) - 1) <= 1e-9,
         "terminal frequencies do not sum to 1")
    _check_terminating(ref, start, reps, summary["mean_fortune"], summary["se_fortune"],
                       summary["mean_stopping_time"], summary["se_stopping_time"])
    return steps


def _check_discounted(ref: Reference, start: int, horizon: int, mean, se, reps: int) -> None:
    """E[r^T F_T] = v_start * sum_j (P^T)[start, j] / v_j on a strongly connected game."""
    p = ref.transition()
    row = np.zeros(ref.n)
    row[start] = 1.0
    for _ in range(horizon):
        row = p.T @ row
    want = ref.v[start] * float(row @ ref.u)
    exact_mean, var = ref.fortune_moments(start, horizon)
    need(close(exact_mean, want, rtol=1e-9), "reference moments disagree with the P^T formula")
    _mc(mean, se, want, f"E[discounted fortune at {horizon}]", reps, var)


def _se(x: np.ndarray):
    return float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else None


def _check_terminating(ref, start, reps, mean_f, se_f, mean_t, se_t) -> None:
    exact_mean, var = ref.fortune_moments(start, None)
    need(close(exact_mean, ref.v[start], rtol=1e-9), "reference moments disagree with v")
    _mc(mean_f, se_f, ref.v[start], "mean final fortune", reps, var)
    tau, _ = ref.tau_and_rho()
    _mc(mean_t, se_t, tau[ref.nonterminals.index(start)], "mean stopping time", reps)


def check_verify(res, ref: Reference) -> None:
    rep = _report(res)
    need(rep["passed"] is True, "verify did not pass")


def check_export_dot(res, ref: Reference) -> None:
    need(res["rc"] == 0, f"exit code {res['rc']}")
    lines = res["stdout"].strip().splitlines()
    node_lines = [ln for ln in lines if ln.strip().startswith('"') and "->" not in ln]
    edge_lines = [ln for ln in lines if "->" in ln]
    need(len(node_lines) == ref.n and len(edge_lines) == ref.edges,
         "DOT output does not have one line per node and per edge")
    if "--beta" not in res["argv"]:
        return
    ref.solve()
    for line in edge_lines:
        head, _, rest = line.partition("->")
        a = ref.index[head.strip().strip('"')]
        b = ref.index[rest.split("[")[0].strip().rstrip(";").strip().strip('"')]
        p = float(rest.split("p=")[1].split()[0].rstrip('"];'))
        weights = ref.u[ref.succ[a]]
        want = ref.u[b] / weights.sum() if len(weights) > 1 else 1.0
        need(close(p, want, rtol=1e-9, atol=1e-12),
             f"edge {ref.labels[a]}->{ref.labels[b]} has p={p!r}, want {want!r}")


def check_generate(res, ref: Reference | None, spec: str) -> None:
    need(res["rc"] == 0, f"exit code {res['rc']}")
    doc = json.loads(res["stdout"])
    if ref is not None:
        need(doc == ref.doc, f"generate {spec} differs from the graph file set up with it")
    nodes = len(doc["nodes"])
    kind, _, rest = spec.partition(":")
    if kind == "window":
        n, k = (int(x) for x in rest.split(","))
        need(nodes == math.comb(n, k), f"window:{rest} has {nodes} states, want C(n,k)")
    if kind == "window-stop":
        n = int(rest)
        need(nodes == n + 1 and len(doc["edges"]) == 2 * n, f"window-stop:{n} shape")
        need(doc["values"] == {"stop": 1}, "stop node must be worth 1")
    labels = doc.get("edge_labels") or []
    need(len(labels) == len(doc["edges"]) and
         set(labels) <= {"truth", "lie", "truth|lie", "stop"}, "edge labels")


def check_play(res, ref: Reference) -> None:
    need(res["rc"] == 0, f"exit code {res['rc']}")
    ref.solve()
    out = res["stdout"]
    script = res["stdin"].splitlines()
    side = res["argv"][res["argv"].index("--as") + 1]
    transcript = json.loads(res["transcript"])
    need("illegal move 'nowhere'" in out, "an illegal move was not refused")
    if side == "guesser":
        need("wager must lie in [0, 1]" in out and "not a number: 'oops'" in out,
             "an illegal wager was not refused")
    fortune = 1.0
    for k, rnd in enumerate(transcript["rounds"]):
        i, j = ref.index[rnd["node"]], ref.index[rnd["move"]]
        need(j in ref.succ[i] and ref.index[rnd["guess"]] in ref.succ[i], "illegal move played")
        n = len(ref.succ[i])
        w = rnd["wager"]
        if side == "guesser":
            need(w == 0.5 and rnd["guess"] == script[4], "the scripted guess was not played")
        else:
            need(rnd["move"] == script[k + 1], "the scripted move was not played")
            p = ref.u[ref.succ[i]] / ref.u[ref.succ[i]].sum()
            want_w = 1.0 if n == 1 else 1.0 - n * p.min()
            need(abs(w - want_w) <= 1e-8, "opponent's wager is not the beta = 1 wager")
        if rnd["guess"] == rnd["move"]:
            mult = 1.0 + (n - 1) * w if n >= 2 else 1.0 + w
        else:
            mult = 1.0 - w
        need(abs(rnd["multiplier"] - mult) <= 1e-12, "payoff multiplier breaks the rules")
        fortune *= mult
        need(close(rnd["fortune"], fortune, rtol=1e-12), "fortune is not the running product")
    if transcript["rounds"] and not ref.succ[ref.index[transcript["rounds"][-1]["move"]]]:
        fortune *= ref.term_values[ref.index[transcript["rounds"][-1]["move"]]]
    need(close(transcript["final_fortune"], fortune, rtol=1e-12), "final fortune")


def check_input_error(res) -> None:
    need(res["rc"] == 1, f"exit code {res['rc']}, want 1")
    need(res["stderr"].startswith("error:"), "no 'error:' line on standard error")


# -- checking a results bundle ------------------------------------------------------


def check_bundle(bundle: dict) -> dict:
    refs: dict[str, Reference] = {}
    files = {g["oracle"]: g for g in bundle["games"] if g["oracle"]}

    def reference(name: str) -> Reference:
        if name not in refs:
            refs[name] = Reference(next(g for g in bundle["games"] if g["name"] == name))
        return refs[name]

    problems, failed, rep_steps = [], 0, 0.0
    for res in bundle["results"]:
        try:
            fault = _matching_fault(res)
            if fault is not None:
                need(res["game"] is None or reference(res["game"]).shows(fault),
                     f"failed as the known fault {fault!r}, but the graph has not its cause")
                failed += 1
                continue
            if res["expect"] == "input_error":
                check_input_error(res)
                continue
            cmd = res["cmd"]
            if cmd == "generate":
                spec = res["argv"][res["argv"].index("--oracle") + 1]
                game = files.get(_spec_key(spec, files))
                check_generate(res, reference(game["name"]) if game else None,
                               game["oracle"] if game else spec)
                continue
            ref = reference(res["game"])
            if cmd == "simulate":
                rep_steps += check_simulate(res, ref)
            else:
                {"solve": check_solve, "strategy": check_strategy, "analyze": check_analyze,
                 "verify": check_verify, "export-dot": check_export_dot,
                 "play": check_play}[cmd](res, ref)
        except CheckFailure as exc:
            problems.append(f"{res['id']}: {exc}")
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            problems.append(f"{res['id']}: malformed output ({type(exc).__name__}: {exc})")
    return {"failed": failed, "rep_steps": rep_steps, "problems": problems}


def _spec_key(spec: str, files: dict):
    """The set-up spec a generate argument names (pattern paths are resolved)."""
    for key in files:
        if spec == key or (key.startswith("patterns:") and spec.endswith(key.split(":", 1)[1])):
            return key
    return None


def _matching_fault(res: dict):
    for name in res["faults"]:
        rc, text = FAULTS[name]
        if res["rc"] == rc and (text is None or text in res["stderr"]):
            return name
    return None


# -- perturbation self-test ---------------------------------------------------------


def _perturbations():
    """(label, predicate on a result, mutation) triples, one per kind of check."""

    def edit_json(res, fn):
        doc = json.loads(res["stdout"])
        fn(doc)
        res["stdout"] = json.dumps(doc)

    def first_key(d):
        return next(iter(d))

    def solve_value(res):
        def fn(doc):
            lab = doc["node_order"][0]
            doc["values"][lab] *= 1 + 1e-6
        edit_json(res, fn)

    def solve_r(res):
        edit_json(res, lambda doc: doc.update(r=doc["r"] + 1e-7, discount=doc["r"] + 1e-7))

    def exact_value(res):
        def fn(doc):
            lab = doc["node_order"][0]
            v = doc["values"][lab]
            doc["values"][lab] = [v[0] + 1, v[1]] if isinstance(v, list) else v + 1
        edit_json(res, fn)

    def wager(res):
        def fn(doc):
            for node in doc["nodes"].values():
                if len(node["chooser"]) > 1:
                    node["wager"] += 1e-6
                    return
        edit_json(res, fn)

    def tau(res):
        def fn(doc):
            lab = first_key(doc["expected_stopping_times"])
            doc["expected_stopping_times"][lab] *= 1.001
        edit_json(res, fn)

    def invariant(res):
        def fn(doc):
            mu = doc["invariant_measure"]
            a, b = list(mu)[:2]
            mu[a], mu[b] = mu[a] + 1e-6, mu[b] - 1e-6
        edit_json(res, fn)

    def csv_cell(res):
        lines = res["stdout"].splitlines()
        cells = lines[3].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        lines[3] = ",".join(cells)
        res["stdout"] = "\n".join(lines)

    def mc_mean(res):
        def fn(doc):
            s = doc["summary"]
            if "mean_fortune" in s:
                s["mean_fortune"] += 10 * (s["se_fortune"] or 0) + 0.05 * s["mean_fortune"]
            else:
                cp = s["discounted_checkpoints"][str(s["horizon"])]
                cp["mean"] += 10 * (cp["se"] or 0) + 0.05 * cp["mean"]
        edit_json(res, fn)

    def verify_fail(res):
        res["rc"] = 2
        edit_json(res, lambda doc: doc.update(passed=False))

    def error_ok(res):
        res["rc"], res["stderr"] = 0, ""

    def drop_edge(res):
        def fn(doc):
            doc["edges"].pop()
            if doc.get("edge_labels"):
                doc["edge_labels"].pop()
        edit_json(res, fn)

    def play_fortune(res):
        doc = json.loads(res["transcript"])
        doc["final_fortune"] *= 1.01
        res["transcript"] = json.dumps(doc)

    def dot_prob(res):
        res["stdout"] = res["stdout"].replace("p=", "p=0.0", 1)

    def fake_fault(res):
        rc, text = FAULTS[res["faults"][0]]
        res["rc"], res["stdout"] = rc, ""
        res["stderr"] = f"error: {text or 'audit failed'}\n"

    def ok(res, cmd):
        return res["cmd"] == cmd and res["expect"] == "ok" and res["rc"] == 0

    return [
        ("solve value +1e-6", lambda r: ok(r, "solve") and "--exact" not in r["argv"]
         and "--truncate" not in r["argv"], solve_value),
        ("solve r +1e-7", lambda r: ok(r, "solve") and '"r":' in r["stdout"], solve_r),
        ("exact value", lambda r: ok(r, "solve") and "--exact" in r["argv"], exact_value),
        ("strategy wager +1e-6", lambda r: ok(r, "strategy") and '"wager": 0.' in r["stdout"],
         wager),
        ("analyze tau", lambda r: ok(r, "analyze") and "expected_stopping_times" in r["stdout"],
         tau),
        ("analyze invariant", lambda r: ok(r, "analyze") and "invariant_measure" in r["stdout"],
         invariant),
        ("analyze csv cell", lambda r: ok(r, "analyze") and "csv" in r["argv"], csv_cell),
        ("simulate mean", lambda r: ok(r, "simulate") and "csv" not in r["argv"], mc_mean),
        ("verify failure", lambda r: ok(r, "verify"), verify_fail),
        ("error exit 0", lambda r: r["expect"] == "input_error", error_ok),
        ("generate edge dropped", lambda r: ok(r, "generate"), drop_edge),
        ("play fortune", lambda r: ok(r, "play"), play_fortune),
        ("dot probability", lambda r: ok(r, "export-dot") and "--beta" in r["argv"], dot_prob),
        ("known fault without its cause", lambda r: ok(r, r["cmd"]) and bool(r["faults"]),
         fake_fault),
    ]


def perturbation_trials(bundle: dict):
    """Yield (label, caught) for each perturbation that applies to the bundle."""
    for label, applies, mutate in _perturbations():
        k = next((k for k, r in enumerate(bundle["results"]) if applies(r)), None)
        if k is None:
            continue
        trial = copy.deepcopy(bundle)
        mutate(trial["results"][k])
        trial["results"] = [trial["results"][k]]
        yield f"{label} ({bundle['results'][k]['id']})", bool(check_bundle(trial)["problems"])


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        verdict = check_bundle(json.load(fh))
    print(json.dumps(verdict))
