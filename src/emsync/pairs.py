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

from .graphs import restrict, tarjan


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
    """Structure of the pair graph: the split of the pairs into mergeable
    and deadlock pairs, and the closed strongly connected components of the
    deadlock part.

    pa : the PairAutomaton analysed.
    seeds : (m,) bool row mask, True on pairs that one symbol collapses:
        both states map to the same state, or the symbol is defined at
        exactly one of the two (the set image shrinks to a singleton
        either way).
    mask : (m,) bool row mask, True on mergeable pairs, those that reach a
        seed.
    scc : (blocks, depth) of one Tarjan pass over the pair graph
        (`graphs.tarjan`).
    component_rows : rows of each closed deadlock component, ordered by
        their smallest member, members sorted.
    components : component_rows as tuples of (p, q) pairs.
    mergeable, deadlock : frozensets of the (p, q) pairs on either side of
        the mask.
    All but pa and seeds are computed on first use: the rates read scc and
    component_rows (and mask only for the error of `sync_rate` on a
    non-exact machine), `classify` and `simulate_beliefs` only mask.
    """

    def __init__(self, pa):
        self.pa = pa
        tp, tq = pa.machine.delta[pa.pairs.T]
        self.seeds = (((tp >= 0) & (tp == tq)) | ((tp >= 0) != (tq >= 0))).any(axis=1)

    @cached_property
    def mask(self):
        """Backward closure of the seeds over the pair moves."""
        pa = self.pa
        # predecessor lists of the pair graph in CSR form
        sources, symbols = np.nonzero(pa.delta2 >= 0)
        targets = pa.delta2[sources, symbols]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(targets, minlength=pa.count))]).tolist()
        preds = sources[np.argsort(targets, kind="stable")].tolist()
        merged = self.seeds.tolist()
        stack = np.flatnonzero(self.seeds).tolist()
        while stack:
            t = stack.pop()
            for r in preds[indptr[t] : indptr[t + 1]]:
                if not merged[r]:
                    merged[r] = True
                    stack.append(r)
        return np.array(merged, dtype=bool)

    @cached_property
    def scc(self):
        return tarjan(self.pa.delta2)

    @cached_property
    def component_rows(self):
        """The blocks that hold no seed and that no move leaves.  A block
        that no move leaves reaches only itself, so it is deadlock exactly
        when it holds no seed.  Deadlock pairs move only to deadlock pairs
        (a move to a mergeable pair would merge), so a closed component of
        the deadlock subgraph is such a block of the whole graph.  Every
        pair reaches some block that no move leaves, so a machine is exact
        exactly when there is none."""
        blocks, _ = self.scc
        label = np.empty(self.pa.count, dtype=np.int64)
        for c, block in enumerate(blocks):
            label[block] = c
        leaves = ((self.pa.delta2 >= 0) & (label[self.pa.delta2] != label[:, None])).any(axis=1)
        closed = np.bincount(label, weights=leaves | self.seeds, minlength=len(blocks)) == 0
        # blocks are disjoint sorted lists: in list order, by smallest member
        return [np.array(block) for block in sorted(blocks[c] for c in np.flatnonzero(closed))]

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
    """Classify every ordered pair as mergeable or deadlock: the analysis
    of `pa`, whose mask is the backward closure of the one-symbol seeds."""
    return DeadlockAnalysis(pa)


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
