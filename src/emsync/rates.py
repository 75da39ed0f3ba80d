"""Rate constants: spectral radius of the pair chain, synchronization rate,
non-synchronization sandwich bounds, per-component drift expectations, the
prediction rate, and the escape rate.

All quantities live on the pair automaton.  For exact machines the pair
chain is strictly substochastic in the long run and its spectral radius is
the decay rate of the non-reset probability.  For non-exact machines the
closed deadlock components carry stochastic sub-chains; the expected
log-likelihood ratio accumulated along a component's edges sets the rate at
which an observer's residual uncertainty shrinks.
"""

import math

import numpy as np

from .errors import ConvergenceError, InputError, PreconditionError, integer, real
from .graphs import is_strongly_connected, labelled_period, restrict, tarjan
from .machine import chain_matrix, solve_stationary, stationary_distribution
from .pairs import build_pair_automaton, deadlock_analysis

RATE_EPS = 1e-9  # absolute accuracy of sync_rate, escape_rate and rate_report
DRIFT_EPS = 1e-12  # raw width at which a drift bracket stops
DRIFT_MAX_STEPS = 10**5  # relative value iteration steps per component
DENSE_SEED_PAIRS = 256  # largest component whose drift iteration starts from a dense solve
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def pair_matrix(pa):
    """Dense view of the pair operator, for small machines: the read-only
    (m, m) array whose entry [s, t] sums the weights of the pair moves
    s -> t over the symbols."""
    total = chain_matrix(pa.delta2, pa.weight)
    total.flags.writeable = False
    return total


def _canonical_tables(vals, cols):
    """Canonical form of (rows, w) value and column tables, -1 for no entry.

    Per row, the distinct columns holding a positive value, in ascending
    order; the values of a repeated column are summed in table order, as
    `chain_matrix` sums them.  One stable sort of the keys row * rows +
    column puts each (row, column) group in place with its repeats in
    table order, `np.add.at` sums each group in that order, and an entry's
    slot is its rank within its row.  Zero values are dropped first: the
    values are nonnegative, and a zero adds nothing to a sum.  Returned
    transposed, as (width, rows) arrays padded with value 0 and column -1,
    width the most entries of any row: a step then adds one contiguous
    vector per slot, where a sum along the short row axis would run row by
    row.
    """
    rows = cols.shape[0]
    r, j = np.nonzero((cols >= 0) & (vals > 0))
    key = np.ravel_multi_index((r, cols[r, j]), (rows, rows))
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.diff(key, prepend=-1) != 0  # the first entry of each group
    sums = np.zeros(int(first.sum()))
    np.add.at(sums, np.cumsum(first) - 1, vals[r, j][order])
    row, col = np.divmod(key[first], rows)
    slot = np.arange(len(row)) - np.searchsorted(row, row)
    out_vals = np.zeros((int(slot.max(initial=-1)) + 1, rows))
    out_cols = np.full(out_vals.shape, -1)
    out_vals[slot, row] = sums
    out_cols[slot, row] = col
    return out_vals, out_cols


def _step(vals, cols, z):
    """Product with z of the operator in transposed (width, rows) tables,
    O(rows * width); slots with column -1 must carry value 0."""
    return (vals * z[cols]).sum(axis=0)


def _power_steps(vals, cols, d, x):
    """Bracketed power iteration from positive x, in windows of d steps.

    For positive x the quotient (A^d x)_i / x_i brackets rho(A)^d between
    its extremes (d = period of the support graph; stepping in windows of d
    keeps the bracket contracting when A^d splits into primitive diagonal
    blocks).  A window takes one ratio pass; its d - 1 inner normalisations
    add up to one log shift, read only when d > 1.  Yields, per window, the
    certified bracket and the window's last vector scaled to maximum 1.
    """
    while True:
        z = _step(vals, cols, x)
        shift = 0.0
        for _ in range(d - 1):
            s = float(z.max())
            shift += math.log(s)
            z = _step(vals, cols, z / s)
        ratio = z / x
        lo, hi = float(ratio.min()), float(ratio.max())
        if d > 1:
            scale = math.exp(shift / d)
            lo, hi = scale * lo ** (1.0 / d), scale * hi ** (1.0 / d)
        x = z / float(z.max())
        yield lo, hi, x


def _steps_to_close(widths, eps):
    """Predicted number of further steps before a bracket narrows to eps,
    from its widths after each step so far: the geometric contraction per
    step over the later half of the steps, extrapolated (0 or less once the
    last width is at most eps); inf when the bracket did not narrow over
    that half.  Before 8 steps there is no prediction, and the result is 0.
    """
    t = len(widths)
    if t < 8 or not widths[t // 2 - 1] < math.inf:
        return 0.0
    rate = (widths[-1] / widths[t // 2 - 1]) ** (1.0 / (t - t // 2))
    return math.inf if rate >= 1.0 else math.log(eps / widths[-1]) / math.log(rate)


def _noda_steps(vals, cols, x):
    """Noda iteration from positive x (Numer. Math. 17, 1971): yields the
    Collatz-Wielandt bracket min/max (Ax)_i / x_i of each vector and shifts
    the next solve by its upper end sigma.  The solve runs on the
    diagonally scaled block, (sigma I - D^-1 A D) y = 1 with D = diag(x),
    then x <- x * y / max: in exact arithmetic (sigma I - A) y = x, but on
    a diagonally dominant M-matrix, so accurate entry by entry even when x
    spans many orders of magnitude (Alfa, Xue & Ye, Math. Comp. 71, 2002).
    For irreducible A and sigma > rho the inverse is positive, so x stays
    positive and every bracket is certified.  No dense A is kept: each
    solve's system is built from the tables, where a canonical (row,
    column) entry appears once, so entry [i, j] is (a_ij x_j) / -x_i with
    the roundings of the dense (A * x) / -x[:, None].  One b x b system is
    alive at a time, two while the next is built.  Ends at a singular
    solve, one leaving the positive cone, or a bracket no narrower than the
    one before.
    """
    b, width = cols.shape[1], math.inf
    while True:
        ratio = _step(vals, cols, x) / x
        lo, hi = float(ratio.min()), float(ratio.max())
        if not hi - lo < width:
            return
        width = hi - lo
        yield lo, hi
        shifted = chain_matrix(cols.T, (vals * x[cols] / -x).T)  # sigma I - D^-1 A D
        shifted.flat[:: b + 1] += hi
        try:
            y = np.linalg.solve(shifted, np.ones(b))
        except np.linalg.LinAlgError:
            return
        if not (np.isfinite(y).all() and y.min() > 0):
            return
        y *= x
        x = y / y.max()


def _block_radius(vals, cols, d, eps):
    """Spectral radius of an irreducible nonnegative block in canonical
    (w, b) tables, support period d: the midpoint of the intersection
    [lo, hi] of the certified brackets once hi - lo <= eps, else
    ConvergenceError with [lo, hi].  Power iteration runs on the tables, at
    most b windows (dense, the work of one factorisation), and hands off to
    Noda iteration early once the bracket is predicted to need more than
    twice the windows left (`_steps_to_close`) to narrow to the larger of
    eps and the block's resolution; Noda stops at its first step that does
    not narrow, and its solves alone build dense b x b systems.  So
    both phases end without a step counter, and eps decides only when to
    succeed: below the resolution, the path does not depend on it.

    The resolution is 6 d (w + 1) u hi, and a bracket within it at the
    hand-off raises instead.  With u the unit roundoff, one ratio pass sums
    w products per entry (error w u, first order) and divides by x_i (u
    more): each ratio is within (w + 1) u of exact, a window's within
    d (w + 1) u (the d-th root given no credit).  x, rounded as much by the
    window before, spreads even the exact ratios of the Perron vector by
    twice that either way (each is a weighted mean of the perturbations
    less its own).  So each end lies within 3 d (w + 1) u hi of rho from
    rounding alone, and a width within the resolution may be noise that no
    step narrows.
    """
    b = cols.shape[1]
    resolution = 6 * (vals.shape[0] + 1) * d * _UNIT_ROUNDOFF  # times hi
    lo, hi, widths = 0.0, math.inf, []
    for step_lo, step_hi, x in _power_steps(vals, cols, d, np.full(b, 1.0 / b)):
        lo, hi = max(lo, step_lo), min(hi, step_hi)
        if hi - lo <= eps:
            return 0.5 * (lo + hi)
        widths.append(hi - lo)
        target = max(eps, resolution * hi)
        if len(widths) == b or _steps_to_close(widths, target) > 2 * (b - len(widths)):
            break
    if hi - lo <= resolution * hi:
        raise ConvergenceError("radius bracket is at floating-point resolution", bracket=(lo, hi))
    for step_lo, step_hi in _noda_steps(vals, cols, x):
        lo, hi = max(lo, step_lo), min(hi, step_hi)
        if hi - lo <= eps:
            return 0.5 * (lo + hi)
    raise ConvergenceError("radius iteration stopped narrowing", bracket=(lo, hi))


def spectral_radius(mat, eps=1e-10, columns=None):
    """Largest-modulus eigenvalue of a nonnegative square matrix within eps.

    Without `columns`, mat is the dense square matrix.  With `columns`, mat
    and columns are (rows, w) tables of one sparse square matrix: row a has
    entry mat[a, j] in column columns[a, j], -1 meaning no entry, and
    entries sharing a column add up (the matrix `chain_matrix` builds).
    The support graph (the columns of the positive entries) is condensed
    into strongly connected blocks by one Tarjan pass (`graphs.tarjan`),
    whose depths also give each block's period, and `_radius_of_blocks`
    returns the largest block radius.  A zero matrix gives 0.  eps must
    be positive, read by `errors.real`; one below the floating-point
    resolution of the block that sets the radius raises ConvergenceError
    with that block's bracket.
    """
    vals = np.asarray(mat, dtype=float)
    if columns is None:
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise InputError("matrix must be square")
        cols = np.broadcast_to(np.arange(vals.shape[0]), vals.shape)
    else:
        cols = np.asarray(columns)
        if not (vals.ndim == 2 and cols.shape == vals.shape and cols.dtype.kind in "iu"):
            raise InputError("columns must be an integer table shaped like the values")
        if not ((cols >= -1) & (cols < vals.shape[0])).all():
            raise InputError("columns must lie between -1 and the row count - 1")
    if not (np.isfinite(vals).all() and (vals >= 0).all()):
        raise InputError("matrix entries must be finite and nonnegative")
    return _radius_of_blocks(vals, cols, *tarjan(np.where(vals > 0, cols, -1)), eps)


def _radius_of_blocks(vals, cols, blocks, labels, eps):
    """Largest spectral radius, within eps, over `blocks` of the matrix in
    (n, w) tables, given the strongly connected blocks of its support graph
    and path-length labels: per block, labels[v] - labels[r] is the length
    of some path in the block from one fixed node r to v.

    The depths of the depth-first forest that found the blocks are such
    labels: every node v of a block descends, in that forest, from the
    block's first-visited node r, and the tree path from r to v stays in
    the block (each node on it is reached from r and reaches v, which
    reaches r).  So are the labels that `DeadlockAnalysis.scc` lifts.  The
    gcd of |labels[u] + 1 - labels[v]| over the block's edges is its period
    (`graphs.labelled_period`; labels[r] cancels).  A one-row block reads
    its self-loop from its row.  Another is canonicalised on its own, its
    rows cut out with `graphs.restrict` (a block of every row needs no
    cut), so its tables and their width are those of the block alone.
    Each runs certified bracketed iteration (power iteration handing off
    to Noda iteration, whose solves alone build dense systems).  A block
    that raises ConvergenceError is set aside: its bracket holds its
    radius, so when its upper end lies below the largest block value less
    eps/2 the block does not set the radius.  Otherwise the failure with
    the largest upper end is raised, whatever the block order.  No block
    gives 0.
    """
    if not real(eps, "eps") > 0:
        raise InputError("eps must be positive")
    labels = np.asarray(labels)
    value, failures = 0.0, []
    for block in blocks:
        if len(block) == 1:  # cumsum adds in table order, as the canonical sum does
            (v,) = block
            value = max(value, float(np.cumsum(np.append(0.0, vals[v][cols[v] == v]))[-1]))
            continue
        if len(block) == len(cols):  # every row, in order
            sub_vals, sub_cols, sub_labels = *_canonical_tables(vals, cols), labels
        else:
            sub_vals, sub_cols = _canonical_tables(vals[block], restrict(cols, block))
            sub_labels = labels[block]
        d = labelled_period(sub_cols.T, sub_labels)
        try:
            value = max(value, _block_radius(sub_vals, sub_cols, d, eps))
        except ConvergenceError as exc:
            failures.append(exc)
    if failures and not max(exc.bracket[1] for exc in failures) < value - eps / 2:
        raise max(failures, key=lambda exc: exc.bracket[1])
    return value


def sync_rate(m, eps=RATE_EPS):
    """Synchronization rate constant of an exact machine: the decay rate of
    the probability that a word of length L fails to reset the observer.

    Equals the spectral radius of the summed pair matrix.  Raises a
    precondition error naming a never-merging pair when the machine is not
    exact.
    """
    pa, da = deadlock_analysis(m)
    if da.component_rows:
        p, q = pa.pair(np.argmin(da.mask))
        raise PreconditionError(
            f"machine is not exact: state pair ({m.states[p]}, {m.states[q]}) never merges"
        )
    return _surviving_radius(da, eps)


class NsynBounds:
    """Sandwich bounds on the probability of staying unsynchronized after
    reading a word of the given length.

    row_sums : per-pair mass R over length-L words keeping the pair alive,
        aligned with `pairs`.
    state_totals / state_maxima : per first coordinate p, the sum and max
        of row_sums over partners q.
    lower / upper : stationary-weighted bounds; the true probability of not
        being synchronized after L symbols lies between them.
    """

    def __init__(self, length, pairs, row_sums, state_totals, state_maxima, lower, upper):
        self.length = int(length)
        self.pairs = pairs
        self.row_sums = row_sums
        self.state_totals = state_totals
        self.state_maxima = state_maxima
        self.lower = float(lower)
        self.upper = float(upper)

    def __repr__(self):
        return f"NsynBounds(L={self.length}, lower={self.lower!r}, upper={self.upper!r})"


def nsyn_bounds(m, length):
    """Bounds after `length` symbols, by repeated steps of the pair operator
    v <- sum_j weight[:, j] * v[delta2[:, j]] from the all-ones vector,
    O(m k) each: `_step` on the transposed tables (undefined moves carry
    weight 0)."""
    length = integer(length, "length")
    pa = build_pair_automaton(m)
    vals, cols = pa.weight.T.copy(), pa.delta2.T.copy()
    v = np.ones(pa.count)
    for _ in range(length):
        v = _step(vals, cols, v)
    totals = np.zeros(m.n)
    maxima = np.zeros(m.n)
    np.add.at(totals, pa.pairs[:, 0], v)
    np.maximum.at(maxima, pa.pairs[:, 0], v)
    pi = stationary_distribution(m).pi
    for a in (v, totals, maxima):
        a.flags.writeable = False
    return NsynBounds(length, pa.pairs, v, totals, maxima, float(pi @ maxima), float(pi @ totals))


class EdgeMachineStats:
    """Drift statistics of one closed deadlock component.

    The component's pairs form a finite irreducible chain (rows are
    stochastic by closure).  Its edges, weighted by the equilibrium of that
    chain, carry the log-likelihood ratio between the two coordinate states;
    the expectation of that ratio is the component's drift.

    component : tuple of (p, q) pairs, in component order.
    rho : equilibrium over the component's pairs, aligned with component.
    edge_states : list of ((p, q), symbol index) with a defined move.
    edge_rho : equilibrium over edge states, rho of the pair times the
        emission probability of the first coordinate.
    f_values : per edge state, ln of the ratio of the two coordinates'
        emission probabilities.
    expectation : sum of edge_rho * f_values; nonnegative, and positive
        whenever some pair in the component has differing emission rows.
    """

    def __init__(self, component, rho, edge_states, edge_rho, f_values, expectation):
        self.component = component
        self.rho = rho
        self.edge_states = edge_states
        self.edge_rho = edge_rho
        self.f_values = f_values
        self.expectation = float(expectation)

    def __repr__(self):
        return (
            f"EdgeMachineStats(pairs={len(self.component)},"
            f" expectation={self.expectation!r})"
        )


def edge_machine_stats(component, pa):
    """Equilibrium and drift of one closed deadlock component.

    Within a closed component every symbol emitted by the first coordinate
    is also accepted by the second and moves the pair to a pair of the
    component (closure), so the log ratio is always finite.  Raises an
    input error when the component is empty, names a pair outside the
    machine or twice, is not closed, or is not strongly connected (so that
    its equilibrium is unique).
    Edge states are listed, and the expectation summed, in a fixed order:
    pairs in component order, symbols in declaration order.
    """
    m = pa.machine
    if len(component) == 0:
        raise InputError("empty component")
    p, q = np.asarray(component, dtype=np.int64).reshape(len(component), 2).T
    if not ((p >= 0) & (p < m.n) & (q >= 0) & (q < m.n) & (p != q)).all():
        raise InputError("component names a pair outside the machine")
    rows = pa.pair_index(p, q)
    moves = pa.moves_within(rows)
    if ((m.delta[p] >= 0) & (moves < 0)).any():
        raise InputError("component is not closed under the pair moves")
    # a repeated pair renumbers to its last copy, leaving the earlier copy
    # without incoming moves, so this check also catches repeats
    if not is_strongly_connected(moves):
        raise InputError("component repeats a pair or is not strongly connected")
    rho = solve_stationary(chain_matrix(moves, pa.weight[rows]))
    at, j = np.nonzero(moves >= 0)
    w = m.probs[p[at], j]
    edge_rho = rho[at] * w
    f_values = np.log(w / m.probs[q[at], j])
    edge_states = [(tuple(component[a]), b) for a, b in zip(at.tolist(), j.tolist())]
    rho.flags.writeable = False
    # cumsum adds one term at a time, in edge-state order
    expectation = np.cumsum(edge_rho * f_values)[-1]
    return EdgeMachineStats(tuple(component), rho, edge_states, edge_rho, f_values, expectation)


def _drift_bracket(rows, pa, labels):
    """Certified interval [lo, hi] holding the drift of the closed strongly
    connected component `rows`, from relative value iteration on its
    sparse tables; `labels` are path-length labels of the pair graph's rows
    (`DeadlockAnalysis.scc`), which give the component's period.  A
    component of c pairs over k symbols builds a c x c matrix only when
    c^2 <= 3 k DRIFT_MAX_STEPS (see below).

    Let P be the component chain, g_i = sum_j w_ij ln(w_ij / P(j|q_i)) the
    expected log ratio out of pair i, and rho the left Perron vector of P
    (its equilibrium), rho P = lam rho, rho.1 = 1; the drift is E = rho.g.
    For any vector h, r = g + Ph - h gives rho.r = E + (lam - 1) rho.h, so
    E lies in [min r, max r] widened by |lam - 1| |h| <= delta |h|, where
    delta is the rows' sum defect max_i |1 - sum_j w_ij| (Odoni, Oper. Res.
    17, 1969; lam lies between the extreme row sums).  Each step sets
    h <- h + beta (r - r_0) at O(c k) cost.  On an aperiodic component
    beta = 1, and the span of r shrinks as the largest modulus of P's
    eigenvalues other than 1.  Where the period d exceeds 1, P has other
    eigenvalues on the unit circle and the span would oscillate, so
    beta = 1/2: relative value iteration on the lazy chain (I + P)/2, which
    is aperiodic (Puterman, Markov Decision Processes, 1994, 8.5.4), with
    its h halved.  The period is read from the labels
    (`graphs.labelled_period`) at the first update of h, so a component
    whose first step closes never reads it.  A
    component of at most DENSE_SEED_PAIRS pairs first takes h from one
    dense Poisson solve (I - P)h + E 1 = g, h_0 = 0; its bracket then
    closes in about one step.  A larger component starts from h = 0 and
    switches once to that seed as soon as its bracket is predicted to need
    more than c further steps (`_steps_to_close`), if c^2 <= 3 k
    DRIFT_MAX_STEPS.  That is the size up to which the seed is the cheaper
    way past the step cap: its LU takes about c^3 / 3 multiply-adds and a
    step about k c, so the seed costs no more than the steps to the cap
    while c^3 / 3 <= k c DRIFT_MAX_STEPS.  A component above it never
    builds a c x c matrix.

    Iteration stops once max r - min r <= DRIFT_EPS.  Each end is then
    widened by omega = 2 (k + 5) u (max_i G_i + (1 + delta) |h|) +
    delta |h|, with u the unit roundoff, |h| = max_i |h_i| and
    G_i = sum_j w_ij (|ln(w_ij / P(j|q_i))| + 1).  With a libm log within
    one ulp, each term of g is within 4 u w_ij (|ln| + 1) of exact and
    their sum within (k - 1) u G_i more, so |g_i error| <= (k + 3) u G_i;
    the k products and sums of a step and the subtraction of h put Ph - h
    within (k + 3) u (1 + delta) |h| of its exact value for the h at hand,
    and the addition of g adds u |r_i| <= u (G_i + (2 + delta) |h|).  The
    factor 2 covers second-order terms and the rounding of omega and of
    lo - omega and hi + omega; delta is computed plus (k + 1) u for the
    rounding of the row sums.  beta enters neither bound: it sets the next
    h, and the bracket holds for any h.  Raises ConvergenceError, with the
    widened bracket of the last step, after DRIFT_MAX_STEPS steps.
    """
    vals, cols = pa.weight[rows].T.copy(), pa.moves_within(rows).T.copy()
    k, c = vals.shape
    # closure: the second coordinate accepts every symbol the first emits
    partner = pa.machine.probs[pa.pairs[rows, 1]].T
    log_ratio = np.log(np.divide(vals, partner, out=np.ones(vals.shape), where=cols >= 0))
    g = (vals * log_ratio).sum(axis=0)
    spread = float((vals * (np.abs(log_ratio) + 1.0)).sum(axis=0).max())
    delta = float(np.abs(1.0 - vals.sum(axis=0)).max()) + (k + 1) * _UNIT_ROUNDOFF
    h = np.zeros(c)
    seed = c * c <= 3 * k * DRIFT_MAX_STEPS  # a dense seed is still allowed
    if c <= DENSE_SEED_PAIRS:
        h, seed = _poisson_seed(vals, cols, g, h), False
    widths, beta = [], None
    while True:
        r = g + (_step(vals, cols, h) - h)
        lo, hi = float(r.min()), float(r.max())
        widths.append(hi - lo)
        if hi - lo <= DRIFT_EPS or len(widths) == DRIFT_MAX_STEPS:
            break
        if seed and _steps_to_close(widths, DRIFT_EPS) > c:
            h, seed = _poisson_seed(vals, cols, g, h), False
            continue
        if beta is None:
            beta = 1.0 if labelled_period(cols.T, labels[rows]) == 1 else 0.5
        h = h + beta * (r - r[0])
    size = float(np.abs(h).max())
    omega = 2 * (k + 5) * _UNIT_ROUNDOFF * (spread + (1.0 + delta) * size) + delta * size
    if hi - lo > DRIFT_EPS:
        raise ConvergenceError("drift iteration hit the step cap", bracket=(lo - omega, hi + omega))
    return lo - omega, hi + omega


def _poisson_seed(vals, cols, g, h):
    """h from one dense Poisson solve (I - P)h + E 1 = g with h_0 = 0, for
    the component chain P in the (k, c) tables; the given h when the solve
    is singular or not finite.  I - P is built as one c x c array, -P from
    the tables plus 1 on the diagonal, with the roundings of I - P."""
    A = chain_matrix(cols.T, -vals.T)
    A.flat[:: A.shape[0] + 1] += 1.0
    A[:, 0] = 1.0  # column 0 multiplies h_0 = 0; it now carries E
    try:
        x = np.linalg.solve(A, g)
    except np.linalg.LinAlgError:  # singular in floating point: keep iterating
        return h
    if not np.isfinite(x).all():
        return h
    x[0] = 0.0
    return x


def _drifts(pa, da):
    """Certified drift interval of each closed deadlock component, in
    component order; an exact machine has none."""
    labels = da.scc[1]
    return [_drift_bracket(rows, pa, labels) for rows in da.component_rows]


def _surviving_radius(da, eps):
    """Spectral radius of the summed pair matrix restricted to the pairs
    outside every closed deadlock component (every pair when there is
    none).  Transient deadlock pairs stay in the restriction.  Its blocks
    and labels are those the analysis lifts from its one Tarjan pass
    (`da.scc`), less the blocks it flags closed.  `_radius_of_blocks` cuts
    each from the pair automaton's (m, k) tables as they are: every stored
    probability is positive, so their support is the pair graph, and a
    move into a closed component leaves the block it is cut from.
    """
    blocks, labels, closed = da.scc
    surviving = [b for b in blocks if not closed[b[0]]]
    return _radius_of_blocks(da.pa.weight, da.pa.delta2, surviving, labels, eps)


def prediction_rate(m):
    """Prediction rate constant: the slowest decay rate of an observer's
    residual uncertainty.

    0 for exact machines.  Otherwise the largest exp(-drift) over the
    closed deadlock components; ties resolve to the earliest component in
    the deterministic component order.
    """
    # prc reads only the drift intervals, so no escape radius is computed
    return RateReport(None, _drifts(*deadlock_analysis(m))).prc


def escape_rate(m):
    """Decay rate of the probability that a state pair has neither merged
    nor entered a closed deadlock component.

    Spectral radius of the summed pair matrix restricted to the pairs
    outside every closed component.  Deadlock pairs outside all closed
    components (transient deadlock) stay in the restriction: a pair sitting
    there has not yet entered a component and still counts as surviving.
    Computed to the same accuracy (RATE_EPS) as `rate_report(m).escape`.
    """
    return _surviving_radius(deadlock_analysis(m)[1], RATE_EPS)


class RateReport:
    """Bundle of every rate constant for one machine, derived from the
    escape radius and the drift intervals.

    classification : 'exact' or 'non-exact' (no closed deadlock component,
        or some).
    src : synchronization rate constant, the escape rate of an exact
        machine; None for non-exact machines.
    prc : prediction rate constant exp(-min drift) (0 for exact machines).
    escape : escape rate constant.
    drifts : per-component drifts, in component order: the midpoints of
        drift_intervals.
    drift_intervals : per-component certified (lo, hi) drift intervals.
    prc_interval : (exp(-min hi), exp(-min lo)), certified to hold the
        prediction rate; (0.0, 0.0) for exact machines.
    """

    def __init__(self, escape, drift_intervals):
        self.escape = escape
        self.drift_intervals = list(drift_intervals)
        self.drifts = [0.5 * (lo + hi) for lo, hi in self.drift_intervals]
        if self.drifts:
            self.classification, self.src = "non-exact", None
            self.prc = math.exp(-min(self.drifts))
            self.prc_interval = (
                math.exp(-min(hi for _, hi in self.drift_intervals)),
                math.exp(-min(lo for lo, _ in self.drift_intervals)),
            )
        else:
            self.classification, self.src = "exact", escape
            self.prc, self.prc_interval = 0.0, (0.0, 0.0)

    def __repr__(self):
        return (
            f"RateReport({self.classification!r}, src={self.src!r},"
            f" prc={self.prc!r}, escape={self.escape!r})"
        )


def rate_report(m):
    """Classification plus all rate constants in one pass.  An exact machine
    has no closed components, so its escape restriction is the whole pair
    matrix and its escape rate is src."""
    pa, da = deadlock_analysis(m)
    intervals = _drifts(pa, da)  # a drift at its step cap raises before the radius runs
    return RateReport(_surviving_radius(da, RATE_EPS), intervals)
