"""Machine model: parsing, validation, word probabilities, stationary law.

An epsilon-machine is a strongly connected partial DFA whose states carry a
probability distribution over their outgoing edges.  Missing edges encode
probability zero; stored probabilities are strictly positive.  No two states
may generate identical word distributions.
"""

import functools
import math
import string

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EdgeProbabilityError,
    EquivalentStatesError,
    GenerationError,
    InputError,
    MachineSyntaxError,
    NotStronglyConnectedError,
    NumericalError,
    RowSumError,
    UnknownNameError,
    integer,
    real,
)
from .graphs import is_strongly_connected

PROB_TOL = 1e-9  # absolute tolerance for probability comparisons
MAX_TRIES = 10000  # candidates random_machine draws by default before it gives up


class EpsilonMachine:
    """Immutable machine over named states and symbols.

    Parameters
    ----------
    states, symbols : sequences of identifier strings (order fixes indices);
        an identifier, like the name, is nonempty and holds no whitespace
        or '#', so that the text format carries it.
    edges : iterable of (state, symbol, target, probability) by name.
    name : machine name used when rendering.
    check_equivalent : validate that no two states are probabilistically
        equivalent.  Parsing always validates; tests that exercise
        the equivalence analysis itself may disable it.

    Attributes (treat as read-only)
    -------------------------------
    delta : (n, k) int array, target state index or -1 when undefined.
    probs : (n, k) float array, emission probabilities, 0 when undefined.
    stationary : StationaryDist of the state chain, solved on first read
        and kept: every reader of the machine gets the same object.
    """

    def __init__(self, states, symbols, edges, name="machine", check_equivalent=True):
        self.name = str(name)
        self.states = tuple(str(s) for s in states)
        self.symbols = tuple(str(s) for s in symbols)
        if not self.states:
            raise MachineSyntaxError("at least one state is required")
        if not self.symbols:
            raise MachineSyntaxError("at least one symbol is required")
        for label in (self.name, *self.states, *self.symbols):
            if label.split() != [label] or "#" in label:
                raise MachineSyntaxError(f"name {label!r} is empty or holds whitespace or '#'")
        if len(set(self.states)) != len(self.states):
            raise MachineSyntaxError("duplicate state identifier")
        if len(set(self.symbols)) != len(self.symbols):
            raise MachineSyntaxError("duplicate symbol identifier")
        self._state_index = {s: i for i, s in enumerate(self.states)}
        self._symbol_index = {s: i for i, s in enumerate(self.symbols)}

        n, k = len(self.states), len(self.symbols)
        delta = [[-1] * k for _ in range(n)]
        probs = [[0.0] * k for _ in range(n)]
        for src, sym, dst, prob in edges:
            src, sym, dst = str(src), str(sym), str(dst)
            if src not in self._state_index:
                raise UnknownNameError(f"unknown state {src!r} in edge")
            if dst not in self._state_index:
                raise UnknownNameError(f"unknown state {dst!r} in edge")
            if sym not in self._symbol_index:
                raise UnknownNameError(f"unknown symbol {sym!r} in edge")
            i, j = self._state_index[src], self._symbol_index[sym]
            if delta[i][j] != -1:
                raise DuplicateEdgeError(f"duplicate edge for state {src!r}, symbol {sym!r}")
            try:
                if isinstance(prob, (bool, np.bool_)):
                    raise TypeError
                prob = float(prob)
            except (TypeError, ValueError):
                raise EdgeProbabilityError(
                    f"edge probability {prob!r} is not a number for state {src!r}, symbol {sym!r}"
                ) from None
            if not (0.0 < prob <= 1.0):
                raise EdgeProbabilityError(
                    f"edge probability {prob!r} outside (0, 1] for state {src!r}, symbol {sym!r}"
                )
            delta[i][j] = self._state_index[dst]
            probs[i][j] = prob
        delta = np.array(delta, dtype=np.int64)
        probs = np.array(probs)

        for state, total in zip(self.states, probs.sum(axis=1).tolist()):
            if abs(total - 1.0) > PROB_TOL:
                raise RowSumError(f"emission probabilities of state {state!r} sum to {total!r}, not 1")

        delta.flags.writeable = False
        probs.flags.writeable = False
        self.delta = delta
        self.probs = probs

        if not is_strongly_connected(delta):
            raise NotStronglyConnectedError("transition graph is not strongly connected")
        if check_equivalent:
            classes = check_equivalence(self)
            if len(classes) != n:
                bad = next(c for c in classes if len(c) > 1)
                names = ", ".join(self.states[i] for i in bad)
                raise EquivalentStatesError(f"states {{{names}}} are probabilistically equivalent")

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self):
        return len(self.states)

    @property
    def k(self):
        return len(self.symbols)

    def state_index(self, state):
        """Dense index of a state: a string is its name, anything else its index."""
        if not isinstance(state, str):
            return integer(state, "state index", 0, self.n - 1)
        try:
            return self._state_index[state]
        except KeyError:
            raise InputError(f"unknown state {state!r}") from None

    def symbol_index(self, symbol):
        try:
            return self._symbol_index[str(symbol)]
        except KeyError:
            raise InputError(f"unknown symbol {symbol!r}") from None

    def word_indices(self, word):
        """Normalize a word (string of one-char symbols, or a sequence of
        symbol names) to a tuple of symbol indices."""
        return tuple(self.symbol_index(a) for a in word)

    def step(self, state_idx, symbol_idx):
        """Target index of delta, or None when undefined."""
        t = int(self.delta[state_idx, symbol_idx])
        return t if t >= 0 else None

    def edges(self):
        """Yield (state_idx, symbol_idx, target_idx, probability) for all edges."""
        for i in range(self.n):
            for j in range(self.k):
                t = int(self.delta[i, j])
                if t >= 0:
                    yield i, j, t, float(self.probs[i, j])

    def edge_count(self):
        return int((self.delta >= 0).sum())

    def transition_matrix(self):
        """One-step state transition matrix T with T[p, q] = sum of P_p(a)
        over symbols a with delta(p, a) = q."""
        return chain_matrix(self.delta, self.probs)

    @functools.cached_property
    def stationary(self):
        """StationaryDist of the state chain (unique and positive by strong
        connectivity).  A fact of the machine alone that the oracles and
        the bounds read many times, so it is solved once, on first read;
        it holds no reference back to the machine."""
        return StationaryDist(solve_stationary(self.transition_matrix()))

    def __eq__(self, other):
        if not isinstance(other, EpsilonMachine):
            return NotImplemented
        return (
            self.name == other.name
            and self.states == other.states
            and self.symbols == other.symbols
            and np.array_equal(self.delta, other.delta)
            and np.array_equal(self.probs, other.probs)
        )

    def __repr__(self):
        return f"EpsilonMachine({self.name!r}, n={self.n}, k={self.k}, edges={self.edge_count()})"


# -- text format -----------------------------------------------------------


def parse_machine(text):
    """Parse the line-based machine format.

    Grammar (one directive per line, '#' starts a comment, blanks ignored)::

        machine <name>
        states <id> <id> ...
        symbols <id> <id> ...
        edge <state> <symbol> <state> <probability>
        end

    Raises a distinct error per defect category; syntax errors carry the
    line number.
    """
    name = None
    states = None
    symbols = None
    edges = []
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise MachineSyntaxError("content after 'end'", lineno)
        fields = line.split()
        keyword = fields[0]
        if keyword == "machine":
            if name is not None:
                raise MachineSyntaxError("second 'machine' line", lineno)
            if len(fields) != 2:
                raise MachineSyntaxError("'machine' takes exactly one name", lineno)
            name = fields[1]
        elif keyword == "states":
            if name is None:
                raise MachineSyntaxError("'states' before 'machine'", lineno)
            if states is not None:
                raise MachineSyntaxError("second 'states' line", lineno)
            if len(fields) < 2:
                raise MachineSyntaxError("'states' needs at least one identifier", lineno)
            states = fields[1:]
        elif keyword == "symbols":
            if states is None:
                raise MachineSyntaxError("'symbols' must follow 'states'", lineno)
            if symbols is not None:
                raise MachineSyntaxError("second 'symbols' line", lineno)
            if len(fields) < 2:
                raise MachineSyntaxError("'symbols' needs at least one identifier", lineno)
            symbols = fields[1:]
        elif keyword == "edge":
            if symbols is None:
                raise MachineSyntaxError("'edge' must follow 'symbols'", lineno)
            if len(fields) != 5:
                raise MachineSyntaxError("'edge' takes: source symbol target probability", lineno)
            try:
                prob = float(fields[4])
            except ValueError:
                raise MachineSyntaxError(f"bad probability {fields[4]!r}", lineno) from None
            edges.append((fields[1], fields[2], fields[3], prob))
        elif keyword == "end":
            if symbols is None:
                raise MachineSyntaxError("'end' before the machine is declared", lineno)
            ended = True
        else:
            raise MachineSyntaxError(f"unknown directive {keyword!r}", lineno)
    if name is None:
        raise MachineSyntaxError("missing 'machine' line")
    if states is None or symbols is None:
        raise MachineSyntaxError("missing 'states' or 'symbols' line")
    if not ended:
        raise MachineSyntaxError("missing 'end' line")
    return EpsilonMachine(states, symbols, edges, name=name)


def render_machine(m):
    """Render a machine in the parse format; round-trips exactly."""
    lines = [f"machine {m.name}"]
    lines.append("states " + " ".join(m.states))
    lines.append("symbols " + " ".join(m.symbols))
    for i, j, t, p in m.edges():
        lines.append(f"edge {m.states[i]} {m.symbols[j]} {m.states[t]} {p!r}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# -- probabilistic equivalence ----------------------------------------------


def _probability_classes(values):
    """Cluster a set of floats so values within PROB_TOL share a class id.

    Clustering is transitive along chains of close values; fine for the
    decimal inputs this format carries.
    """
    ordered = sorted(set(values))
    ids = {}
    current = 0
    previous = None
    for v in ordered:
        if previous is not None and v - previous > PROB_TOL:
            current += 1
        ids[v] = current
        previous = v
    return ids


def check_equivalence(m):
    """Partition states into probabilistic-equivalence classes.

    Two states are equivalent when they assign the same probability to every
    word.  Partition refinement: a state's signature maps each symbol to
    (emission probability class, class of the successor); classes split until
    a fixpoint.  A valid machine refines to singletons.
    """
    rows = [
        [(j, t, p) for j, (t, p) in enumerate(zip(targets, weights)) if t >= 0]
        for targets, weights in zip(m.delta.tolist(), m.probs.tolist())
    ]
    prob_ids = _probability_classes(p for row in rows for _, _, p in row)
    rows = [[(j, t, prob_ids[p]) for j, t, p in row] for row in rows]
    labels = [0] * m.n
    while True:
        order = {}
        new_labels = [
            order.setdefault((labels[i], tuple((j, c, labels[t]) for j, t, c in row)), len(order))
            for i, row in enumerate(rows)
        ]
        if new_labels == labels:
            break
        labels = new_labels
    classes = {}
    for i, lab in enumerate(labels):
        classes.setdefault(lab, []).append(i)
    return sorted(classes.values())


# -- word probabilities ------------------------------------------------------


def word_probability(m, state, word):
    """Probability that the machine started in `state` emits `word`.

    Product of the emission probabilities along the unique labeled path,
    accumulated in log-space; exactly 0.0 when the path leaves the domain of
    delta (distinct from any floating-point underflow of the exponential).
    """
    i = m.state_index(state)
    log_p = 0.0
    for j in m.word_indices(word):
        t = int(m.delta[i, j])
        if t < 0:
            return 0.0
        log_p += math.log(m.probs[i, j])
        i = t
    return math.exp(log_p)


# -- stationary distribution --------------------------------------------------


class StationaryDist:
    """Stationary law pi of the one-step state chain, with its extremes.

    Immutable, since one instance is shared by every reader of a machine:
    pi is read-only and no attribute can be set or deleted.
    """

    __slots__ = ("pi", "pi_min", "pi_max")

    def __init__(self, pi):
        pi = np.asarray(pi, dtype=float)
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "pi_min", float(pi.min()))
        object.__setattr__(self, "pi_max", float(pi.max()))

    def __setattr__(self, name, value):
        raise AttributeError(f"StationaryDist is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"StationaryDist is immutable: cannot delete {name!r}")

    def __repr__(self):
        return f"StationaryDist({np.array2string(self.pi, precision=6)})"


def chain_matrix(targets, weights):
    """Dense square chain matrix of (rows, k) tables: entry [a, b] sums
    weights[a, j] over the j with targets[a, j] = b in column (symbol)
    order, skipping -1 targets."""
    out = np.zeros((targets.shape[0], targets.shape[0]))
    for j in range(targets.shape[1]):
        hit = np.flatnonzero(targets[:, j] >= 0)
        out[hit, targets[hit, j]] += weights[hit, j]
    return out


def solve_stationary(T):
    """Left fixed point pi T = pi with sum(pi) = 1 for an irreducible
    row-stochastic matrix T.

    Square solve of (T^t - I) with its last balance equation replaced by
    the normalization row; valid for periodic chains.  Raises NumericalError
    on a singular system (a reducible chain), a residual above PROB_TOL or
    a non-positive entry.
    """
    T = np.asarray(T, dtype=float)
    n = T.shape[0]
    A = T.T.copy()
    A.flat[:: n + 1] -= 1.0
    A[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise NumericalError("stationary solve is singular (chain not irreducible)") from None
    if abs(pi.sum() - 1.0) > PROB_TOL or np.max(np.abs(pi @ T - pi)) > PROB_TOL:
        raise NumericalError("stationary solve residual exceeds tolerance")
    if pi.min() <= 0.0:
        raise NumericalError("stationary solve produced a non-positive entry")
    return pi


def stationary_distribution(m):
    """The machine's one StationaryDist, `m.stationary`: solved on the
    first call and the same object on every later one."""
    return m.stationary


# -- random machines ----------------------------------------------------------


def _default_symbols(k):
    if k <= 26:
        return list(string.ascii_lowercase[:k])
    return [f"x{i}" for i in range(k)]


def random_machine(n, k, density=1.0, seed=0, max_tries=MAX_TRIES):
    """Sample a valid machine: each (state, symbol) edge present with the
    given density (at least one edge per state), targets uniform, emission
    probabilities flat on the simplex of present edges.

    Each state of a candidate draws, in this order: k uniforms, where
    symbol j is present when its uniform is below `density`; one fallback
    symbol `integers(k)` when none is; one target `integers(0, n)` per
    present symbol; and the weights, standard exponentials divided by
    their sum taken in order.  These are bit for bit the draws of
    `integers(0, n, size=s)` and `dirichlet(ones(s))`, without the array
    overhead of those calls; the seeded corpora pinned in
    perfbench/corpus.py depend on this order.

    A candidate whose target table is not strongly connected is rejected
    before any machine is constructed; the rest go through the full
    EpsilonMachine validation (row sums, strong connectivity, no
    equivalent states, probabilities in (0, 1]).  Deterministic for a
    given seed; raises GenerationError after max_tries rejections, and
    InputError when n, k, seed or max_tries is not an integer, n, k or
    max_tries is below 1, seed is negative, or density is not a real
    number in (0, 1] (a bool is refused).
    """
    n, k = integer(n, "n", 1), integer(k, "k", 1)
    seed = integer(seed, "seed")
    max_tries = integer(max_tries, "max_tries", 1)
    if not 0.0 < real(density, "density") <= 1.0:
        raise InputError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    states = [str(i) for i in range(n)]
    symbols = _default_symbols(k)
    for _ in range(max_tries):
        targets = [[-1] * k for _ in range(n)]
        edges = []
        for i, row in enumerate(targets):
            present = [j for j, u in enumerate(rng.random(k).tolist()) if u < density]
            if not present:
                present = [int(rng.integers(k))]
            for j in present:
                row[j] = int(rng.integers(0, n))
            weights = rng.standard_exponential(len(present)).tolist()
            total = 0.0
            for w in weights:  # in order, as dirichlet sums (sum() may compensate)
                total += w
            scale = 1.0 / total
            for j, w in zip(present, weights):
                edges.append((states[i], symbols[j], states[row[j]], w * scale))
        if not is_strongly_connected(targets):
            continue
        try:
            return EpsilonMachine(states, symbols, edges, name=f"random-{seed}")
        except (EquivalentStatesError, EdgeProbabilityError):
            continue
    raise GenerationError(
        f"no valid machine found in {max_tries} attempts (n={n}, k={k}, density={density})"
    )
