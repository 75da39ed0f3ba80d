"""Pair automaton over ordered state pairs, mergeability, deadlock structure.

The pair automaton tracks an observer's two-hypothesis ambiguity: a pair
(p, q) survives a symbol only when both states accept it and land on
distinct states.  Pairs from which no word ever collapses the ambiguity are
deadlock pairs; their closed strongly connected components carry the
asymptotic behaviour of non-exact machines.  Every pair quantity is read
from the (m, k) arrays delta2 and weight, rows in lexicographic pair order.
"""

from functools import cached_property

import numpy as np

from .graphs import restrict, strongly_connected_components


class PairAutomaton:
    """Transition structure on ordered pairs (p, q), p != q.

    Pairs are kept in lexicographic order.  delta2 is (m, k) int with -1 for
    undefined, weight is (m, k) float carrying the emission probability of
    the first coordinate (0 where undefined).
    """

    def __init__(self, machine):
        self.machine = machine
        n = machine.n
        p, q = np.divmod(np.arange(n * n, dtype=np.int64), n)
        off = p != q
        pairs = np.stack([p[off], q[off]], axis=1)
        tp = machine.delta[pairs[:, 0]]
        tq = machine.delta[pairs[:, 1]]
        alive = (tp >= 0) & (tq >= 0) & (tp != tq)
        delta2 = np.where(alive, self.pair_index(tp, tq), -1)
        weight = np.where(alive, machine.probs[pairs[:, 0]], 0.0)
        for a in (pairs, delta2, weight):
            a.flags.writeable = False
        self.pairs = pairs
        self.delta2 = delta2
        self.weight = weight

    @property
    def count(self):
        return self.pairs.shape[0]

    def pair_index(self, p, q):
        """Row of the ordered pair (p, q) in lexicographic order; p and q
        may be equal-shaped integer arrays."""
        return p * (self.machine.n - 1) + q - (q > p)

    def pair(self, r):
        p, q = self.pairs[r]
        return int(p), int(q)

    def moves_within(self, rows):
        """delta2 of `rows`, its targets renumbered to positions within
        `rows`; -1 where the move is undefined or leaves `rows`."""
        return restrict(self.delta2, rows)

    def __repr__(self):
        return f"PairAutomaton({self.machine.name!r}, pairs={self.count})"


def build_pair_automaton(m):
    return PairAutomaton(m)


class DeadlockAnalysis:
    """Split of the pair set into mergeable and deadlock pairs, and the
    closed strongly connected components of the deadlock part.

    pa : the PairAutomaton analysed.
    mask : (m,) bool row mask, True on mergeable pairs.
    component_rows : rows of each closed deadlock component, ordered by
        their smallest member, members sorted.
    components : component_rows as tuples of (p, q) pairs.
    mergeable, deadlock : frozensets of the (p, q) pairs on either side of
        the mask.
    All but pa and mask are computed on first use.
    """

    def __init__(self, pa, mask):
        self.pa = pa
        self.mask = mask

    @cached_property
    def component_rows(self):
        """Deadlock pairs are closed under defined moves, so every pair
        transition out of a deadlock pair stays in the deadlock set;
        components that still have an edge to a different component are
        transient and dropped."""
        dead_rows = np.flatnonzero(~self.mask)
        moves = self.pa.moves_within(dead_rows)
        comps = strongly_connected_components(moves)
        label = np.empty(dead_rows.size, dtype=np.int64)
        for c, comp in enumerate(comps):
            label[comp] = c
        leaves = ((moves >= 0) & (label[moves] != label[:, None])).any(axis=1)
        rows = [dead_rows[comp] for comp in comps if not leaves[comp].any()]
        rows.sort(key=lambda comp_rows: comp_rows[0])
        return rows

    @cached_property
    def components(self):
        return [tuple(map(tuple, self.pa.pairs[r].tolist())) for r in self.component_rows]

    @cached_property
    def mergeable(self):
        return frozenset(map(tuple, self.pa.pairs[self.mask].tolist()))

    @cached_property
    def deadlock(self):
        return frozenset(map(tuple, self.pa.pairs[~self.mask].tolist()))

    def __repr__(self):
        return (
            f"DeadlockAnalysis(mergeable={self.mask.sum()},"
            f" deadlock={(~self.mask).sum()}, components={len(self.component_rows)})"
        )


def mergeable_pairs(pa):
    """Classify every ordered pair as mergeable or deadlock.

    Seeds are pairs that a single symbol already collapses: both states map
    to the same state, or the symbol is defined at exactly one of the two
    (the set image shrinks to a singleton either way).  Backward closure
    over pair transitions then adds every pair that can reach a seed.
    """
    tp = pa.machine.delta[pa.pairs[:, 0]]
    tq = pa.machine.delta[pa.pairs[:, 1]]
    mask = (((tp >= 0) & (tp == tq)) | ((tp >= 0) != (tq >= 0))).any(axis=1)
    # predecessor lists of the pair graph in CSR form
    sources, symbols = np.nonzero(pa.delta2 >= 0)
    targets = pa.delta2[sources, symbols]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(targets, minlength=pa.count))]).tolist()
    preds = sources[np.argsort(targets, kind="stable")].tolist()
    merged = mask.tolist()
    stack = np.flatnonzero(mask).tolist()
    while stack:
        t = stack.pop()
        for r in preds[indptr[t] : indptr[t + 1]]:
            if not merged[r]:
                merged[r] = True
                stack.append(r)
    return DeadlockAnalysis(pa, np.array(merged, dtype=bool))


def deadlock_components(da, pa):
    """Closed strongly connected components of the deadlock subgraph of
    `pa`, analysed in `da`, as tuples of (p, q) pairs: `da.components`."""
    return da.components


def deadlock_analysis(m):
    """Full pair-space pipeline; returns (PairAutomaton, DeadlockAnalysis)
    with the closed components computed."""
    pa = build_pair_automaton(m)
    da = mergeable_pairs(pa)
    deadlock_components(da, pa)
    return pa, da


def classify(m):
    """'exact' when every ordered pair is mergeable (a reset word exists),
    'non-exact' otherwise."""
    pa = build_pair_automaton(m)
    da = mergeable_pairs(pa)
    return "exact" if da.mask.all() else "non-exact"
