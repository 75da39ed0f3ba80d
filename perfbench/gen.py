"""Seeded input generators for the benchmark.

Every generator builds a machine from tables alone and never rejects a
candidate, so set-up time does not depend on luck.  Each guarantees its
classification by construction (see the docstrings), so the workloads know
what every machine must be without asking the program.

A machine is a `Spec`: the transition table `delta` (-1 where undefined)
and the emission table `probs`, indexed by state and symbol.  The
independent checks in `perfbench.reference` work from these tables; the
program only ever sees the rendered text or an object built from it.
"""

import numpy as np

SYMBOL_NAMES = "abcdefghijklmnopqrstuvwxyz"


class Spec:
    """Tables of one generated machine; states are named "0".."n-1"."""

    def __init__(self, name, delta, probs, kind):
        self.name = name
        self.delta = np.asarray(delta, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=float)
        self.kind = kind  # "exact" or "non-exact", fixed by construction

    @property
    def n(self):
        return self.delta.shape[0]

    @property
    def k(self):
        return self.delta.shape[1]

    def edges(self):
        """(state, symbol, target, probability) by name, in table order."""
        return [
            (str(i), SYMBOL_NAMES[j], str(int(self.delta[i, j])), float(self.probs[i, j]))
            for i in range(self.n)
            for j in range(self.k)
            if self.delta[i, j] >= 0
        ]

    def text(self):
        """The machine-file text; the same layout as emsync.render_machine."""
        lines = [
            f"machine {self.name}",
            "states " + " ".join(str(i) for i in range(self.n)),
            "symbols " + " ".join(SYMBOL_NAMES[: self.k]),
        ]
        lines += [f"edge {s} {a} {t} {p!r}" for s, a, t, p in self.edges()]
        lines.append("end")
        return "\n".join(lines) + "\n"


def _probabilities(defined, rng):
    """Per state, a flat Dirichlet draw over the defined symbols mixed half
    and half with the uniform law.

    Every probability is at least 1/(2k).  Without that floor a random
    exact machine now and then puts almost all weight on its cycle symbol,
    the pair chain becomes nearly periodic, and one radius takes tens of
    seconds (seen at n = 32 and 40), which would make run time depend on the
    seed.  The slow-gap machines are added on purpose, as fixed inputs.
    """
    probs = np.zeros(defined.shape)
    for i in range(defined.shape[0]):
        cols = np.flatnonzero(defined[i])
        probs[i, cols] = 0.5 * rng.dirichlet(np.ones(cols.size)) + 0.5 / cols.size
    return probs


def _cycle(order):
    """Permutation mapping order[i] to order[i + 1], cyclically."""
    perm = np.empty(len(order), dtype=np.int64)
    perm[order] = np.roll(order, -1)
    return perm


def exact_spec(n, k, rng, name):
    """Exact machine, strongly connected by construction.

    Symbol a is a Hamiltonian cycle in a random order; the other symbols
    are random maps, and the last of them is undefined at one random state
    h.  Exact: for any pair (p, q), cycling with a until p reaches h leaves
    q elsewhere, and the last symbol is then defined at exactly one of the
    two, which merges the pair.
    """
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 and k >= 2")
    delta = np.empty((n, k), dtype=np.int64)
    delta[:, 0] = _cycle(rng.permutation(n))
    for j in range(1, k):
        delta[:, j] = rng.integers(0, n, size=n)
    delta[rng.integers(n), k - 1] = -1
    return Spec(name, delta, _probabilities(delta >= 0, rng), "exact")


def permutation_spec(n, k, rng, name):
    """Non-exact machine: symbol a is an n-cycle in a random order, the
    others random permutations.  Permutations never merge a pair and every
    symbol is defined everywhere, so every pair is a deadlock pair."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    delta = np.empty((n, k), dtype=np.int64)
    delta[:, 0] = _cycle(rng.permutation(n))
    for j in range(1, k):
        delta[:, j] = rng.permutation(n)
    return Spec(name, delta, _probabilities(delta >= 0, rng), "non-exact")


def transient_spec(h, k, rng, name):
    """Non-exact machine with transient deadlock pairs; M_TRANS of the test
    suite generalised to two blocks of h states.

    State (i, s) has index i + s*h.  Symbol a applies one random h-cycle
    inside both blocks, b swaps the blocks, and the last symbol x maps
    (i, 0) to (i, 0) and (i, 1) to (tau(i), 0), with tau another random
    h-cycle (so it has no fixed point).  With k = 4, symbol c applies one
    more random permutation inside both blocks.  Then:

    - pairs inside a block never merge and stay inside a block: closed
      deadlock;
    - diagonal cross pairs ((i, 0), (i, 1)) stay diagonal under a, b and c,
      and x sends them to distinct in-block pairs: deadlock, but drained
      one-way into the closed set, so transient;
    - the escape restriction is therefore never empty.
    """
    if h < 2 or k not in (3, 4):
        raise ValueError("need h >= 2 and k in (3, 4)")
    inner = _cycle(rng.permutation(h))
    tau = _cycle(rng.permutation(h))
    i = np.arange(h)
    columns = [np.concatenate([inner, inner + h]), np.concatenate([i + h, i])]
    if k == 4:
        extra = rng.permutation(h)
        columns.append(np.concatenate([extra, extra + h]))
    columns.append(np.concatenate([i, tau]))
    delta = np.stack(columns, axis=1)
    return Spec(name, delta, _probabilities(delta >= 0, rng), "non-exact")


def cerny_spec(n):
    """Černý-type exact machine, fixed for a given n: symbol a is the cycle
    i -> i+1, symbol b sends state 0 to 1 and fixes every other state.
    P(a | i) runs evenly from 0.25 to 0.75, so no two states are
    equivalent.  Its pair chain is nearly periodic, |lambda2/lambda1| is
    close to 1, and the radius is slow."""
    delta = np.empty((n, 2), dtype=np.int64)
    delta[:, 0] = (np.arange(n) + 1) % n
    delta[:, 1] = np.arange(n)
    delta[0, 1] = 1
    p_a = 0.25 + 0.5 * np.arange(n) / (n - 1)
    return Spec(f"cerny-{n}", delta, np.stack([p_a, 1.0 - p_a], axis=1), "exact")


def load_spec(path, kind):
    """Tables of a machine file whose states are named 0..n-1 and whose
    symbols are a, b, ... in declaration order."""
    name, n, k, edges = None, 0, 0, []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if fields[0] == "machine":
                name = fields[1]
            elif fields[0] == "states":
                n = len(fields) - 1
            elif fields[0] == "symbols":
                k = len(fields) - 1
            elif fields[0] == "edge":
                edges.append((int(fields[1]), SYMBOL_NAMES.index(fields[2]), int(fields[3]), float(fields[4])))
    delta = np.full((n, k), -1, dtype=np.int64)
    probs = np.zeros((n, k))
    for i, j, t, p in edges:
        delta[i, j] = t
        probs[i, j] = p
    return Spec(name, delta, probs, kind)
