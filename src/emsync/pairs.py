"""Pair automaton over ordered state pairs, mergeability, deadlock structure.

The pair automaton tracks an observer's two-hypothesis ambiguity: a pair
(p, q) survives a symbol only when both states accept it and land on
distinct states.  Pairs from which no word ever collapses the ambiguity are
deadlock pairs; their closed strongly connected components carry the
asymptotic behaviour of non-exact machines.  Every pair quantity is read
from the (m, k) arrays delta2 and weight, rows in lexicographic pair order.

The structure of the pair graph is found on half of it.  Swapping the two
coordinates commutes with every move, so the graph on ordered pairs is the
lift of a graph on the m/2 unordered pairs whose edges carry a Z2 label,
set where a move comes out reversed (a voltage graph: Gross & Tucker,
Topological Graph Theory, 1987).  The mergeable mask is a closure there,
and the strongly connected blocks come from one Tarjan pass there, lifted
back by the parity of each node's tree path; the weights, which follow the
first coordinate and so differ between a pair and its swap, stay ordered.
"""

import itertools
from functools import cached_property, lru_cache

import numpy as np

from .graphs import restrict, tarjan


class PairAutomaton:
    """Transition structure on ordered pairs (p, q), p != q.

    Pairs are kept in lexicographic order; `pairs` is the (m, 2) array of
    `pair_layout` itself, not a copy.  delta2 is (m, k) int with -1 for
    undefined, weight is (m, k) float carrying the emission probability of
    the first coordinate (0 where undefined), and seeds is the (m,) bool
    row mask of the pairs that one symbol collapses: both states map to
    the same state, or the symbol is defined at exactly one of the two
    (the set image shrinks to a singleton either way).  All four are
    read-only, and both coordinates' moves are gathered once, for delta2
    and seeds together.
    """

    def __init__(self, machine):
        self.machine = machine
        self.pairs = pairs = pair_layout(machine.n)[0]
        tp = machine.delta[pairs[:, 0]]
        tq = machine.delta[pairs[:, 1]]
        alive = (tp >= 0) & (tq >= 0) & (tp != tq)
        delta2 = np.where(alive, self.pair_index(tp, tq), -1)
        weight = np.where(alive, machine.probs[pairs[:, 0]], 0.0)
        seeds = (~alive & ((tp >= 0) | (tq >= 0))).any(axis=1)
        for a in (delta2, weight, seeds):
            a.flags.writeable = False
        self.delta2 = delta2
        self.weight = weight
        self.seeds = seeds

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


@lru_cache(maxsize=16)
def pair_layout(n):
    """The one enumeration of the pair space of n states: (pairs, upper,
    node, flipped).  pairs is the (n(n-1), 2) array of the ordered pairs
    (p, q), p != q, in lexicographic order; upper holds the rows with
    p < q, one per unordered pair; node and flipped fold the rows onto the
    n(n-1)/2 unordered pairs {p < q}, also in lexicographic order, giving
    per row its unordered pair and whether p > q, with one more slot
    (-1, False) that answers row -1.  A fact of n alone, kept for the last
    16 n: every analysis reads it, and on machines of a few states building
    it costs as much as the closure it serves."""
    p, q = np.divmod(np.arange(n * n, dtype=np.int64), n)
    off = p != q
    p, q = p[off], q[off]
    low = np.minimum(p, q)
    # a (2n - a - 3) / 2 unordered pairs start below a
    node = np.append(low * (2 * n - 5 - low) // 2 + p + q - 1, -1)
    flipped = np.append(p > q, False)
    upper = np.flatnonzero(p < q)
    pairs = np.stack([p, q], axis=1)
    for a in (pairs, upper, node, flipped):
        a.flags.writeable = False
    return pairs, upper, node, flipped


class DeadlockAnalysis:
    """Structure of the pair graph: the split of the pairs into mergeable
    and deadlock pairs, and the closed strongly connected components of the
    deadlock part.

    pa : the PairAutomaton analysed.
    mask : (m,) bool row mask, True on mergeable pairs, those that reach a
        seed (`pa.seeds`).
    quotient : the pair graph on unordered pairs, with a flip bit per
        move.
    scc : (blocks, labels, closed), the strongly connected blocks of the
        pair graph, and per row a path-length label that gives its block's
        period and whether its block is closed (no seed, no move out), all
        lifted from one Tarjan pass over the quotient (`graphs.tarjan`).
    component_rows : rows of each closed deadlock component, ordered by
        their smallest member, members sorted.
    components : component_rows as tuples of (p, q) pairs.
    mergeable, deadlock : frozensets of the (p, q) pairs on either side of
        the mask.
    All but pa are computed on first use: the rates read scc and
    component_rows (and mask only for the error of `sync_rate` on a
    non-exact machine), `classify` and `simulate_beliefs` only mask.
    """

    def __init__(self, pa):
        self.pa = pa

    @cached_property
    def quotient(self):
        """The pair graph on unordered pairs: (table, flips), both
        (n(n-1)/2, k), rows the unordered pairs {p < q} in lexicographic
        order (`pair_layout`).  The swap (p, q) -> (q, p) commutes with
        every move, so the ordered graph is the lift of this quotient by
        the Z2 label `flips`: the move of {p < q} on a symbol flips when it
        lands on (t, s) with t > s.  table holds -1 and flips False where
        there is no move.  Read off the rows of delta2 with p < q."""
        _, upper, node, flipped = pair_layout(self.pa.machine.n)
        moves = self.pa.delta2[upper]
        return node[moves], flipped[moves]

    @cached_property
    def mask(self):
        """Backward closure of the seeds over the moves of the quotient,
        gathered back to the ordered rows: a pair and its swap merge
        together."""
        _, upper, node, _ = pair_layout(self.pa.machine.n)
        table, _ = self.quotient
        # predecessor lists of the quotient graph in CSR form: the sorted
        # flat table, the absent moves (-1) first
        flat = table.ravel()
        indptr = np.cumsum(np.bincount(flat + 1, minlength=len(table) + 1)).tolist()
        preds = (np.argsort(flat, kind="stable") // table.shape[1]).tolist()
        seeds = self.pa.seeds[upper]
        merged = seeds.tolist()
        stack = np.flatnonzero(seeds).tolist()
        while stack:
            t = stack.pop()
            for r in preds[indptr[t] : indptr[t + 1]]:
                if not merged[r]:
                    merged[r] = True
                    stack.append(r)
        return np.array(merged, dtype=bool)[node[:-1]]

    @cached_property
    def scc(self):
        """(blocks, labels, closed): the strongly connected blocks of the
        ordered pair graph, each a sorted row array, in reverse topological
        order; per row a path-length label for `graphs.labelled_period`;
        and per row whether its block is closed, holding no seed with no
        move leaving it.

        One `graphs.tarjan` pass over the quotient gives its blocks, depths
        and parities (the flips along each tree path).  A quotient block C
        lifts exactly.  If f ^ parity[u] ^ parity[v] = 0 on every edge
        u -> v of flip f inside C, every closed walk in C flips an even
        number of times, and the lift is two mirror blocks: the rows
        oriented as their parity says, and their swaps, each a copy of C
        labelled by its depths.  Otherwise the lift is one block holding
        both orientations of each pair, and the copy against the parity is
        labelled depth + (depth[u] + 1 - depth[v]) for one parity-breaking
        edge u -> v, the length at which the tree path to u and that edge
        reach it; so the labels give the lift's period (the swap 0 <-> 1
        has quotient period 1 and lifted period 2).  The lifted blocks go
        in the order of their quotient blocks, which keeps it reverse
        topological.  Mirror blocks carry different weights, so the radius
        and the drifts run on the lifted blocks.

        A lifted block is closed exactly when its quotient block C is: a
        pair and its swap are seeds together, and a move of a row projects
        to a move of its pair, so a move leaves the lift of C exactly when
        its projection leaves C; and no move goes from a mirror block to
        the other, since such an edge, inside C, would break parity.
        """
        _, upper, node, flipped = pair_layout(self.pa.machine.n)
        node, flipped = node[:-1], flipped[:-1]
        table, flips = self.quotient
        blocks, depth, parity = tarjan(table, flips)
        depth, parity = np.array(depth, dtype=np.int64), np.array(parity, dtype=bool)
        against = flipped ^ parity[node]  # rows in the copy against their parity
        label = np.empty(len(table), dtype=np.int64)
        label[np.fromiter(itertools.chain.from_iterable(blocks), np.int64, len(table))] = np.repeat(
            np.arange(len(blocks)), [len(block) for block in blocks]
        )
        # the codes 2 label + parity of an edge's ends, after its flip, differ
        # in the label bits where it leaves its block and in the parity bit
        # alone where it breaks parity inside it; a missing move (-1) reads the
        # last node, and `table >= 0` masks it off
        code = 2 * label + parity
        differ = (code[table] ^ code[:, None] ^ flips) * (table >= 0)
        rows, slots = np.nonzero(differ == 1)
        breaking = label[rows]
        odd = np.bincount(breaking, minlength=len(blocks)) > 0
        shift = np.zeros(len(blocks), dtype=np.int64)
        shift[breaking] = depth[rows] + 1 - depth[table[rows, slots]]
        exits = (differ > 1).any(axis=1) | self.pa.seeds[upper]  # a move out, or a seed
        closed = np.bincount(label[exits], minlength=len(blocks)) == 0
        del differ  # not held while the row-sized arrays below are built
        block = label[node]
        key = 2 * block + (against & ~odd[block])
        order = np.argsort(key, kind="stable")
        ends = np.cumsum(np.bincount(key, minlength=2 * len(blocks))).tolist()
        labels = depth[node] + against * shift[block]
        return [order[a:b] for a, b in zip([0] + ends, ends) if b > a], labels, closed[block]

    @cached_property
    def component_rows(self):
        """The closed blocks of `scc`, those that hold no seed and that no
        move leaves.  A block that no move leaves reaches only itself, so
        it is deadlock exactly when it holds no seed.  Deadlock pairs move
        only to deadlock pairs (a move to a mergeable pair would merge), so
        a closed component of the deadlock subgraph is such a block of the
        whole graph.  Every pair reaches some block that no move leaves, so
        a machine is exact exactly when there is none."""
        blocks, _, closed = self.scc
        # blocks are disjoint sorted arrays: ordered by smallest member
        return sorted((rows for rows in blocks if closed[rows[0]]), key=lambda rows: rows[0])

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
    """Full pair-space pipeline; returns (PairAutomaton, DeadlockAnalysis),
    every fact of the analysis computed on first read."""
    pa = build_pair_automaton(m)
    return pa, mergeable_pairs(pa)


def classify(m):
    """'exact' when every ordered pair is mergeable (a reset word exists),
    'non-exact' otherwise."""
    pa = build_pair_automaton(m)
    da = mergeable_pairs(pa)
    return "exact" if da.mask.all() else "non-exact"
