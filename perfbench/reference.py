"""Reference values computed apart from the program, and the checks that
compare the program's outputs with them.

Everything here works from a `Spec`'s tables with numpy alone: its own
pair indexing, its own mergeability closure and strongly connected
components, dense `eigvals` for radii and dense `solve` for stationary
laws.  No emsync code is called.  Each check returns a list of problems;
an empty list means the output passed.
"""

import math

import numpy as np

# Tolerances.  The kv format prints 9 significant digits, so a printed
# value is within 5e-9 of the true one, relative.
KV_REL = 5e-9
# sync_rate and rate_report return the midpoint of a certified bracket of
# width at most eps = 1e-9.
RADIUS_EPS = 1e-9
# Stated error of dense eigvals on the Perron root of these small
# nonnegative matrices; measured differences stay below 1e-12.
EIG_ERR = 1e-10
# Stated error of the dense stationary solves behind the drifts and bounds.
SOLVE_REL = 1e-9


class PairTables:
    """Ordered pairs (p, q), p != q, of a spec, indexed p*n + q, with the
    successor and weight of each pair on each symbol (-1 / 0 when the pair
    dies or merges)."""

    def __init__(self, spec):
        n, k = spec.n, spec.k
        p, q = np.divmod(np.arange(n * n), n)
        keep = p != q
        self.n = n
        self.p, self.q = p[keep], q[keep]
        self.row_of = np.full(n * n, -1, dtype=np.int64)
        self.row_of[np.flatnonzero(keep)] = np.arange(keep.sum())
        tp, tq = spec.delta[self.p], spec.delta[self.q]
        alive = (tp >= 0) & (tq >= 0) & (tp != tq)
        self.succ = np.where(alive, self.row_of[np.where(alive, tp * n + tq, 0)], -1)
        self.weight = np.where(alive, spec.probs[self.p], 0.0)
        # A pair merges at once when both states go to one state, or when
        # exactly one of them can read the symbol.
        self.seed = (((tp >= 0) & (tp == tq)) | ((tp >= 0) != (tq >= 0))).any(axis=1)

    @property
    def m(self):
        return self.p.size

    def matrix(self, rows=None):
        """Dense summed transition matrix, optionally restricted to rows."""
        rows = np.arange(self.m) if rows is None else np.asarray(rows)
        local = np.full(self.m, -1, dtype=np.int64)
        local[rows] = np.arange(rows.size)
        T = np.zeros((rows.size, rows.size))
        for j in range(self.succ.shape[1]):
            dst = self.succ[rows, j]
            ok = (dst >= 0) & (local[np.maximum(dst, 0)] >= 0)
            np.add.at(T, (np.flatnonzero(ok), local[dst[ok]]), self.weight[rows, j][ok])
        return T

    def mergeable(self):
        """Rows from which some word merges the pair (fixpoint of the
        backward closure from the one-symbol seeds)."""
        merge = self.seed.copy()
        while True:
            reach = np.where(self.succ >= 0, merge[np.maximum(self.succ, 0)], False).any(axis=1)
            grown = merge | reach
            if (grown == merge).all():
                return merge
            merge = grown

    def closed_components(self, rows):
        """Closed strongly connected components of the subgraph on rows
        (a set closed under pair moves), each as a sorted row array."""
        rows = [int(r) for r in rows]
        members = set(rows)
        succ = {r: [int(t) for t in self.succ[r] if t >= 0 and t in members] for r in rows}
        comps = _scc(rows, succ)
        closed = []
        for comp in comps:
            inside = set(comp)
            if all(t in inside for r in comp for t in succ[r]):
                closed.append(np.array(sorted(comp)))
        return closed


def _scc(nodes, succ):
    """Kosaraju: strongly connected components of a graph given by
    successor lists, iteratively."""
    order, seen = [], set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            nxt = next((v for v in it if v not in seen), None)
            if nxt is None:
                stack.pop()
                order.append(node)
            else:
                seen.add(nxt)
                stack.append((nxt, iter(succ[nxt])))
    pred = {v: [] for v in nodes}
    for u in nodes:
        for v in succ[u]:
            pred[v].append(u)
    comps, assigned = [], set()
    for root in reversed(order):
        if root in assigned:
            continue
        assigned.add(root)
        comp, stack = [], [root]
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in pred[u]:
                if v not in assigned:
                    assigned.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def stationary(P):
    """Stationary row vector of an irreducible stochastic matrix: dense
    solve of (P^T - I) x = 0 with the last equation replaced by sum = 1."""
    c = P.shape[0]
    A = P.T - np.eye(c)
    A[-1] = 1.0
    b = np.zeros(c)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def state_chain(spec):
    T = np.zeros((spec.n, spec.n))
    for i, j in zip(*np.nonzero(spec.delta >= 0)):
        T[i, spec.delta[i, j]] += spec.probs[i, j]
    return T


def radius(T):
    return float(np.abs(np.linalg.eigvals(T)).max()) if T.size else 0.0


def drift(spec, tables, rows):
    """Drift of one closed component: the expected log-likelihood ratio of
    the first coordinate against the second under the component's
    equilibrium."""
    P = tables.matrix(rows)
    rho = stationary(P)
    total = 0.0
    for r, weight in zip(rows, rho):
        p, q = tables.p[r], tables.q[r]
        for j in np.flatnonzero(tables.succ[r] >= 0):
            w = spec.probs[p, j]
            total += weight * w * math.log(w / spec.probs[q, j])
    return float(total)


class Reference:
    """Every value the CLI and the oracles report for a spec, recomputed."""

    def __init__(self, spec, length):
        tables = PairTables(spec)
        merge = tables.mergeable()
        dead = np.flatnonzero(~merge)
        closed = tables.closed_components(dead)
        absorbed = np.zeros(tables.m, dtype=bool)
        for comp in closed:
            absorbed[comp] = True
        T = tables.matrix()
        self.classification = "exact" if dead.size == 0 else "non-exact"
        self.edges = int((spec.delta >= 0).sum())
        self.drifts = sorted(drift(spec, tables, comp) for comp in closed)
        self.prc = math.exp(-self.drifts[0]) if self.drifts else 0.0
        if absorbed.any():
            self.src = None
            self.escape = radius(tables.matrix(np.flatnonzero(~absorbed)))
        else:
            # nothing is absorbed, so the escape restriction is T itself
            self.escape = radius(T)
            self.src = self.escape if self.classification == "exact" else None
        pi = stationary(state_chain(spec))
        self.bounds = {}
        v = np.ones(tables.m)
        for ell in range(length + 1):
            totals = np.zeros(spec.n)
            maxima = np.zeros(spec.n)
            np.add.at(totals, tables.p, v)
            np.maximum.at(maxima, tables.p, v)
            self.bounds[ell] = (float(pi @ maxima), float(pi @ totals))
            v = T @ v


def close(value, expected, rel, absolute=0.0):
    return abs(value - expected) <= rel * abs(expected) + absolute


def check_cli(spec, ref, out, length):
    """Compare one machine's parsed CLI reports with the reference.

    out maps a subcommand to its {key: text} report."""
    problems = []

    def bad(what):
        problems.append(f"{spec.name}: {what}")

    v = out["validate"]
    for key, want in (
        ("machine", spec.name),
        ("states", str(spec.n)),
        ("symbols", str(spec.k)),
        ("edges", str(ref.edges)),
        ("classification", ref.classification),
    ):
        if v.get(key) != want:
            bad(f"validate {key}={v.get(key)!r}, expected {want!r}")

    radius_tol = RADIUS_EPS + EIG_ERR
    if ref.src is not None:
        src = float(out["sync-rate"]["src"])
        if not close(src, ref.src, KV_REL, radius_tol):
            bad(f"src={src!r}, eigvals radius {ref.src!r}")

    pred = out["pred-rate"]
    prc = float(pred["prc"])
    drifts = sorted(float(pred[key]) for key in pred if key.startswith("e_m."))
    escape = float(pred["escape"])
    if len(drifts) != len(ref.drifts):
        bad(f"{len(drifts)} drifts, expected {len(ref.drifts)} closed components")
    else:
        for got, want in zip(drifts, ref.drifts):
            if not close(got, want, KV_REL + SOLVE_REL, 1e-12):
                bad(f"drift {got!r}, reference {want!r}")
            if not got > 0:
                bad(f"drift {got!r} is not positive")
    if ref.classification == "exact":
        if prc != 0.0:
            bad(f"prc={prc!r} on an exact machine")
    else:
        if not 0.0 < prc < 1.0:
            bad(f"prc={prc!r} outside (0, 1)")
        if not close(prc, ref.prc, KV_REL + SOLVE_REL, 1e-12):
            bad(f"prc={prc!r}, exp(-min drift) {ref.prc!r}")
    if not close(escape, ref.escape, KV_REL, radius_tol):
        bad(f"escape={escape!r}, restricted radius {ref.escape!r}")
    if ref.src is not None and not close(escape, ref.src, KV_REL, radius_tol):
        bad(f"escape={escape!r} differs from src on an exact machine")

    b = out["bounds"]
    lower, upper = float(b["nsyn.lower"]), float(b["nsyn.upper"])
    want_lower, want_upper = ref.bounds[length]
    if b.get("length") != str(length):
        bad(f"bounds length={b.get('length')!r}")
    if not close(lower, want_lower, KV_REL + SOLVE_REL, 1e-15):
        bad(f"nsyn.lower={lower!r}, reference {want_lower!r}")
    if not close(upper, want_upper, KV_REL + SOLVE_REL, 1e-15):
        bad(f"nsyn.upper={upper!r}, reference {want_upper!r}")
    return problems


def check_sandwich(name, lower, nsyn, upper, rel):
    """nsyn.lower <= exact nsyn <= nsyn.upper, with a relative slack for
    rounding."""
    if lower <= nsyn * (1 + rel) + 1e-300 and nsyn <= upper * (1 + rel) + 1e-300:
        return []
    return [f"{name}: exact nsyn {nsyn!r} outside [{lower!r}, {upper!r}]"]
