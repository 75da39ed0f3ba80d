"""Independent verification routes: exhaustive word enumeration, aggregated
word-action walks, reset-threshold search, and Monte Carlo belief simulation.

Nothing here uses the rates module.  Of the pair automaton, only the
deadlock pairs of `pairs.mergeable_pairs` are read, to give each simulated
start state its deadlock partners; `reset_threshold` checks the
classification without it.  Agreement between these oracles and the rates
module is what the test suite certifies.
"""

import functools
import itertools
import operator

import numpy as np

from .errors import ImpossibleWordError, InputError, ResourceError, integer
from .machine import PROB_TOL, stationary_distribution
from .pairs import build_pair_automaton, mergeable_pairs

ENUM_BUDGET = 10**7  # default step budget of exact_word_stats and nonreset_profile


def _extended_tables(m):
    """Transition and log-emission tables with a dead sentinel row.

    State n is the dead state: undefined moves land there and stay there,
    with log-probability -inf.
    """
    n, k = m.n, m.k
    delta_ext = np.vstack([np.where(m.delta < 0, n, m.delta), np.full((1, k), n, dtype=np.int64)])
    with np.errstate(divide="ignore"):
        logp = np.where(m.probs > 0, np.log(np.where(m.probs > 0, m.probs, 1.0)), -np.inf)
    logp_ext = np.vstack([logp, np.full((1, k), -np.inf)])
    return delta_ext, logp_ext


def _extend_level(delta_ext, table_ext, states, values, combine):
    """One level of a word walk: every row of `states` (rows, n; state n is
    dead) extended by every symbol in (row, symbol) order, all-dead rows
    dropped.  `values` (rows, n) is combined with table_ext at the step
    taken: np.add for log-probabilities, np.multiply for probabilities.
    Returns the parent row, symbol, states and values of the kept rows.

    Both tables are read flat at state·k + symbol, and rows are gathered
    with `take`: on arrays this small, numpy's fancy indexing costs several
    times more."""
    dead, k = delta_ext.shape[0] - 1, delta_ext.shape[1]
    rows, n = states.shape
    index = ((states * k)[:, None, :] + np.arange(k)[None, :, None]).reshape(rows * k, n)
    new_states = delta_ext.take(index)
    # a row is live where its smallest state is; column by column, as in
    # _endpoint_posterior
    keep = np.flatnonzero(functools.reduce(np.minimum, new_states.T) < dead)
    parent, sym = np.divmod(keep, k)
    new_values = combine(values.take(parent, axis=0), table_ext.take(index.take(keep, axis=0)))
    return parent, sym, new_states.take(keep, axis=0), new_values


# -- belief tracking ---------------------------------------------------------


def _residual_mass(phi):
    """Per row: total mass off the most likely entry (the first on ties).

    Mathematically 1 - max, but summing the small entries directly keeps
    residuals below machine epsilon representable instead of rounding
    them to 0.  The sum runs column by column: numpy reduces a short row
    axis one row at a time.
    """
    rest = np.atleast_2d(phi).copy()
    rest[np.arange(rest.shape[0]), np.argmax(rest, axis=1)] = 0.0
    return functools.reduce(np.add, rest.T)


def _endpoint_posterior(log_start, logv, endpoints):
    """Word probabilities and the observer's posterior from a likelihood table.

    Row r of `logv` (rows, n) holds each start state's log-probability of
    emitting word r, row r of `endpoints` the state it ends in (n if dead).
    The posterior of endpoint t is the start law times likelihood summed
    over the start states ending at t, normalized.  Returns ln P(w) per row
    and the (rows, n) posterior.
    """
    rows, n = endpoints.shape
    log_joint = log_start[None, :] + logv
    # column by column: exact like max(axis=1), and far faster for few states
    peak = functools.reduce(np.maximum, log_joint.T)
    log_pw = peak + np.log(np.exp(log_joint - peak[:, None]).sum(axis=1))
    posterior = np.exp(log_joint - log_pw[:, None])  # per start state
    # bincount adds in input order; dead endpoints fill column n, dropped
    index = (np.arange(rows) * (n + 1))[:, None] + endpoints
    phi = np.bincount(index.ravel(), posterior.ravel(), rows * (n + 1))
    return log_pw, phi.reshape(rows, n + 1)[:, :n]


class BeliefState:
    """Observer's posterior over current states after a word.

    phi : probability per state.
    top_state : argmax of phi, lowest index on ties.
    q_l : 1 - phi[top_state], the residual uncertainty.
    """

    def __init__(self, phi):
        phi = np.asarray(phi, dtype=float)
        phi.flags.writeable = False
        self.phi = phi
        self.top_state = int(np.argmax(phi))
        self.q_l = float(_residual_mass(phi)[0])

    def __repr__(self):
        return f"BeliefState(top={self.top_state}, q_l={self.q_l!r})"


def belief(m, pi0, word):
    """Posterior over current states given a start distribution and a word.

    Bayes update symbol by symbol with renormalization each step: the mass
    of state p moves to p.j scaled by p's probability of emitting j.
    Raises an impossible-word error when the word has probability 0 from
    pi0.
    """
    phi = np.asarray(pi0, dtype=float)
    if phi.shape != (m.n,):
        raise InputError("initial distribution length must match the state count")
    if not (np.isfinite(phi).all() and phi.min() >= 0 and abs(phi.sum() - 1.0) <= PROB_TOL):
        raise InputError("initial distribution must be a probability vector")
    phi = phi.copy()
    read = []
    for j in m.word_indices(word):
        read.append(m.symbols[j])
        new_phi = np.zeros(m.n)
        for p in range(m.n):
            t = int(m.delta[p, j])
            if t >= 0 and phi[p] > 0.0:
                new_phi[t] += phi[p] * m.probs[p, j]
        total = new_phi.sum()
        if total <= 0.0:
            raise ImpossibleWordError(
                f"word {' '.join(read)!r} has probability 0 from the given distribution"
            )
        phi = new_phi / total
    return BeliefState(phi)


# -- exhaustive enumeration ---------------------------------------------------


class WordRecord:
    """Verification data for one enumerated word."""

    __slots__ = ("word", "q_l", "f_state", "s_state", "ratio")

    def __init__(self, word, q_l, f_state, s_state, ratio):
        self.word = word
        self.q_l = q_l
        self.f_state = f_state
        self.s_state = s_state
        self.ratio = ratio

    def __repr__(self):
        return f"WordRecord(word={self.word!r}, q_l={self.q_l!r})"


class WordStats:
    """Exact length-L word statistics under the stationary start law.

    nsyn : exact probability that the emitted word leaves more than one
        possible state (equivalently that the residual uncertainty is
        positive).
    mean_q : expectation of the residual uncertainty over all words.
    root_mean / inv_root_mean : expectations of the uncertainty to the
        powers 1/L and -1/L, conditioned on positive uncertainty; None when
        L = 0 or no such word exists.
    records : per-word verification data in lexicographic word order, or
        None unless requested.
    """

    def __init__(self, length, word_count, nsyn, mean_q, root_mean, inv_root_mean, records):
        self.length = length
        self.word_count = word_count
        self.nsyn = nsyn
        self.mean_q = mean_q
        self.root_mean = root_mean
        self.inv_root_mean = inv_root_mean
        self.records = records

    def __repr__(self):
        return f"WordStats(L={self.length}, words={self.word_count}, nsyn={self.nsyn!r})"


def exact_word_stats(m, length, budget=ENUM_BUDGET, keep_words=False):
    """Enumerate every length-L word of positive probability.

    Level iteration keeps one row per word: the endpoint of each start
    state (dead sentinel included), the log-probability from each start
    state and, with keep_words, the word's symbol indices (8 bytes per
    path step).  The enumeration costs about L * |symbols|**L path steps
    and is refused up front when that exceeds the budget, naming the
    count, or writing it as L * k^L when the power is too large to form.
    """
    length = integer(length, "length")
    budget = integer(budget, "budget")
    n, k = m.n, m.k
    if k > 1 and length > max(budget.bit_length(), 64):
        # k**L >= 2**L > budget: refused without forming the power, which
        # may be too slow to form and too long to print; up to 64 symbols
        # the exact count is short enough to name
        raise ResourceError(
            f"enumeration needs a budget of {length} * {k}^{length} path steps, exceeding {budget}"
        )
    steps = length * k**length
    if steps > budget:
        raise ResourceError(
            f"enumeration needs a budget of {steps} path steps, exceeding {budget}"
        )
    delta_ext, logp_ext = _extended_tables(m)

    endpoints = np.arange(n, dtype=np.int64)[None, :]
    logv = np.zeros((1, n))
    # when kept, row r's word so far: its parent's word and the new symbol
    words = np.zeros((1, 0), dtype=np.int64) if keep_words else None
    for _ in range(length):
        parent, sym, endpoints, logv = _extend_level(delta_ext, logp_ext, endpoints, logv, np.add)
        if keep_words:
            words = np.hstack([words.take(parent, axis=0), sym[:, None]])

    rows = endpoints.shape[0]
    log_pw, phi_end = _endpoint_posterior(np.log(stationary_distribution(m).pi), logv, endpoints)
    pw = np.exp(log_pw)
    nonreset = _distinct_live(endpoints, n) > 1
    q = np.where(nonreset, _residual_mass(phi_end), 0.0)

    nsyn = float(pw[nonreset].sum())
    mean_q = float((pw * q).sum())
    root_mean = inv_root_mean = None
    if length > 0 and nsyn > 0.0:
        qn = q[nonreset]
        wn = pw[nonreset]
        root_mean = float((wn * qn ** (1.0 / length)).sum() / nsyn)
        inv_root_mean = float((wn * qn ** (-1.0 / length)).sum() / nsyn)

    records = None
    if keep_words:
        f_state = np.argmax(logv, axis=1)
        other = endpoints != endpoints[np.arange(rows), f_state][:, None]
        masked = np.where(other, logv, -np.inf)
        s_state = np.argmax(masked, axis=1)
        ratio = np.exp(masked[np.arange(rows), s_state] - logv[np.arange(rows), f_state])
        columns = (nonreset, q, f_state, s_state, ratio)
        records = [
            WordRecord(tuple(w), q_r, f, s if live else None, r if live else None)
            for w, live, q_r, f, s, r in zip(words.tolist(), *(c.tolist() for c in columns))
        ]
    return WordStats(length, rows, nsyn, mean_q, root_mean, inv_root_mean, records)


# -- aggregated word actions ---------------------------------------------------


def nonreset_profile(m, max_length, budget=ENUM_BUDGET):
    """Exact per-start-state non-reset probabilities for every length up to
    max_length, by walking deduplicated word actions.

    A word acts on the state set as a map into states plus a dead point;
    only the action decides whether the word is a reset word, so words
    sharing an action are aggregated, keeping one weight per start state.
    Returns (by_state, at_stationary): an (max_length+1, n) array with
    entry [L, p] the probability that a word emitted from p after L steps
    leaves more than one live image state, and its stationary mixture.
    """
    max_length = integer(max_length, "max_length")
    budget = integer(budget, "budget")
    n, k = m.n, m.k
    delta_ext, _ = _extended_tables(m)
    probs_ext = np.vstack([m.probs, np.zeros((1, k))])

    actions = np.arange(n, dtype=np.int64)[None, :]
    weights = np.ones((1, n))
    by_state = np.zeros((max_length + 1, n))
    spent = 0
    for level in range(max_length + 1):
        live_counts = _distinct_live(actions, n)
        mask = live_counts > 1
        by_state[level] = weights[mask].sum(axis=0)
        if level == max_length:
            break
        spent += actions.shape[0] * k
        if spent > budget:
            raise ResourceError(
                f"action walk exceeded the budget of {budget} row steps at length {level + 1}"
            )
        _, _, new_actions, new_weights = _extend_level(
            delta_ext, probs_ext, actions, weights, np.multiply
        )
        actions, inverse = _unique_rows(new_actions)
        weights = np.zeros((actions.shape[0], n))
        np.add.at(weights, inverse, new_weights)
    pi = stationary_distribution(m).pi
    by_state.flags.writeable = False
    return by_state, by_state @ pi


def _unique_rows(table):
    """The distinct rows of an integer table in lexicographic order, and
    each row's index among them: what np.unique(table, axis=0,
    return_inverse=True) gives, from one lexsort of the columns (the first
    column is the primary key) and one comparison of each sorted row with
    the row before it."""
    order = np.lexsort(table.T[::-1])
    ordered = table.take(order, axis=0)
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered.take(np.flatnonzero(first), axis=0), inverse


def _distinct_live(actions, n):
    """Per row of `actions`, the number of distinct live states (n is dead)."""
    ordered = np.sort(actions, axis=1)
    return (np.diff(ordered, axis=1) != 0).sum(axis=1) + 1 - (ordered[:, -1] == n)


# -- reset threshold -----------------------------------------------------------


def reset_threshold(m, cap=None):
    """Shortest length of a word whose set image is a single state, or None
    when no such word exists.

    Breadth-first search over subsets of the state set (exponential; meant
    for small machines).  With a cap, an undecided search past the cap
    raises a resource error; None is returned only when the subset graph is
    exhausted, which certifies that no reset word exists.
    """
    if cap is not None:
        cap = integer(cap, "cap")
    n, k = m.n, m.k
    full = (1 << n) - 1
    if n == 1:
        return 0
    seen = {full}
    frontier = [full]
    length = 0
    while frontier:
        length += 1
        if cap is not None and length > cap:
            raise ResourceError(f"no reset word within the cap of {cap} symbols")
        nxt = []
        for subset in frontier:
            states = [i for i in range(n) if subset >> i & 1]
            for j in range(k):
                image = 0
                for i in states:
                    t = int(m.delta[i, j])
                    if t >= 0:
                        image |= 1 << t
                if image == 0 or image in seen:
                    continue
                if image & (image - 1) == 0:
                    return length
                seen.add(image)
                nxt.append(image)
        frontier = nxt
    return None


# -- Monte Carlo simulation ------------------------------------------------------


class BeliefSimulation:
    """Seeded simulation sample.

    starts : (runs,) sampled start states.
    q_values : (runs,) residual uncertainty after the full length.
    y_values : flat array of per-run averaged log-likelihood ratios, one
        entry per (start state, deadlock partner) pairing; empty for exact
        machines.
    q_at : dict mapping each requested checkpoint length to its (runs,)
        uncertainty sample.
    """

    def __init__(self, length, runs, seed, starts, q_values, y_values, q_at):
        self.length = length
        self.runs = runs
        self.seed = seed
        self.starts = starts
        self.q_values = q_values
        self.y_values = y_values
        self.q_at = q_at

    def __repr__(self):
        return f"BeliefSimulation(L={self.length}, runs={self.runs}, seed={self.seed})"


def simulate_beliefs(m, length, runs, seed, record_at=None):
    """Sample words from the stationary machine and track the observer.

    One PCG64 stream (numpy default_rng) drives everything; draws happen
    step-major across the whole run batch, in blocks of at most n steps,
    so results are deterministic given the seed regardless of platform.
    Each run samples a start state from the stationary law and emits
    `length` symbols.  A shadow table keeps, per start state and run,
    where that start state has moved and its log-probability of the
    emitted word; the run's true state is its start's own entry.  The
    observer's belief (the stationary law conditioned on the word) is read
    from this table at each checkpoint and at the end, not updated symbol
    by symbol.  The table also gives the averaged log-likelihood ratio
    between the run's start state and each of its deadlock partners.
    """
    runs = integer(runs, "runs", 1)
    length = integer(length, "length")
    seed = integer(seed, "seed")
    if record_at is None:
        record_at = ()
    try:
        record_at = sorted({integer(step, "checkpoint", 0, length) for step in record_at})
    except TypeError:
        raise InputError("checkpoints must be an iterable of integers") from None

    n, k = m.n, m.k
    rng = np.random.default_rng(seed)
    pi = stationary_distribution(m).pi
    log_pi = np.log(pi)
    delta_ext, logp_ext = _extended_tables(m)
    # a draw u in [0, 1) passes exactly the thresholds of the outcomes before
    # the one it picks; +inf from the last live outcome on means that a sum
    # rounded below 1 cannot let u pass every outcome
    start_cum = np.append(np.cumsum(pi)[:-1], np.inf)
    cum = np.cumsum(m.probs, axis=1).T
    last_live = k - 1 - np.argmax(m.probs[:, ::-1] > 0, axis=1)
    cum[np.arange(k)[:, None] >= last_live] = np.inf
    # row j, column state·k: the state's P(symbol <= j); the last row, all
    # +inf, is passed by no draw and left out
    thresholds = np.repeat(cum[:-1], k, axis=1)

    start = (rng.random(runs)[:, None] >= start_cum[None, :]).sum(axis=1)
    # both tables are read flat at state·k + symbol, so the shadow keeps
    # state·k; row p follows start state p through every run, so a step
    # adds the symbol along the contiguous axis, and a run's true state is
    # flat at start·runs + run
    delta_k = delta_ext.ravel() * k
    shadow = np.repeat(np.arange(n, dtype=np.int64) * k, runs).reshape(n, runs)
    true_at = start * runs + np.arange(runs)
    logw = np.zeros((n, runs))
    q_at = {}
    done = 0
    for stop in sorted({*record_at, length}):
        for first in range(done, stop, n):
            # one row of draws per step, in stream order; a block is no
            # larger than the shadow table
            for u in rng.random((min(n, stop - first), runs)):
                # count the thresholds passed at each run's true state
                sym = (u >= thresholds.take(shadow.take(true_at), axis=1)).sum(axis=0)
                index = shadow + sym
                logw += logp_ext.take(index)
                shadow = delta_k.take(index)
        done = stop
        # run-major, as the read-out takes; logw as a contiguous copy, since
        # the sum along a row of a transposed view rounds differently
        q_at[stop] = _residual_mass(
            _endpoint_posterior(log_pi, np.ascontiguousarray(logw.T), (shadow // k).T)[1]
        )

    q_values = q_at[length] if length in record_at else q_at.pop(length)

    pa = build_pair_automaton(m)
    deadlock = pa.pairs[~mergeable_pairs(pa).mask].tolist() if length > 0 else []
    # deadlock pairs are in lexicographic order: grouped by start state
    pieces = []
    for p, group in itertools.groupby(deadlock, key=operator.itemgetter(0)):
        own = logw[:, start == p]
        pieces += [(own[p] - own[q]) / length for _, q in group]
    y_values = np.concatenate(pieces) if pieces else np.zeros(0)

    for a in (start, q_values, y_values):
        a.flags.writeable = False
    return BeliefSimulation(length, runs, seed, start, q_values, y_values, q_at)
