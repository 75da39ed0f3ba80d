"""Property tests of the pair layer on drawn machines.

Each machine has 1 to 7 states and 1 to 3 symbols.  A Hamiltonian cycle
through the states, each of its edges on a drawn symbol, keeps it strongly
connected; every other (state, symbol) entry is undefined or a drawn
target.  Equivalent states are allowed, since the pair layer does not
depend on minimality.  The draws are derandomised, so every run checks the
same machines.  The parser is checked on mutations of valid machine texts,
and the spectral radius also on drawn reducible and periodic matrices.  The
radius's canonical tables are checked against a per-row reference on drawn
raw tables with repeated columns and zeros, and on pair tables.  The
one-pass traversal of `graphs.tarjan` is checked against a reference Tarjan
on adjacency lists and breadth-first periods, on these graphs and on the
pair graphs of 32- and 40-state exact machines.  The closed components
that the deadlock analysis reads off its one pass over the pair graph are
checked against the mutual-reachability classes of deadlock pairs that no
move leaves.  The action walk's row dedupe is checked against
`np.unique(..., axis=0)` on drawn action tables with repeated rows.
"""

import itertools
import math
import pathlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from emsync import (
    ConvergenceError,
    EmsyncError,
    EpsilonMachine,
    build_pair_automaton,
    deadlock_analysis,
    edge_machine_stats,
    mergeable_pairs,
    nsyn_bounds,
    pair_matrix,
    parse_machine,
    rate_report,
    render_machine,
    spectral_radius,
)
from emsync import oracle, rates
from emsync.graphs import (
    component_period,
    is_strongly_connected,
    labelled_period,
    restrict,
    strongly_connected_components,
    tarjan,
)
from emsync.machine import chain_matrix
from emsync.pairs import pair_layout
from perfbench import gen

pair_layer_settings = settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def machines(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    delta = [[-1] * k for _ in range(n)]
    for i in range(n):
        delta[order[i]][draw(st.integers(0, k - 1))] = order[(i + 1) % n]
    for p in range(n):
        for j in range(k):
            if delta[p][j] < 0:
                delta[p][j] = draw(st.integers(-1, n - 1))
    edges = []
    for p in range(n):
        defined = [j for j in range(k) if delta[p][j] >= 0]
        weights = [draw(st.integers(1, 4)) for _ in defined]
        for j, w in zip(defined, weights):
            edges.append((str(p), f"s{j}", str(delta[p][j]), w / sum(weights)))
    return EpsilonMachine(
        [str(p) for p in range(n)],
        [f"s{j}" for j in range(k)],
        edges,
        name="drawn",
        check_equivalent=False,
    )


@st.composite
def permutation_machines(draw):
    """Machines on 2 to 6 states whose 2 or 3 symbols each permute the
    states, symbol 0 along a Hamiltonian cycle.  Every pair is a deadlock
    pair, and drawn weights give most closed components a positive drift."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, 3))
    order = draw(st.permutations(range(n)))
    columns = [{order[i]: order[(i + 1) % n] for i in range(n)}]
    columns += [dict(enumerate(draw(st.permutations(range(n))))) for _ in range(k - 1)]
    edges = []
    for p in range(n):
        weights = [draw(st.integers(1, 4)) for _ in range(k)]
        for j, w in enumerate(weights):
            edges.append((str(p), f"s{j}", str(columns[j][p]), w / sum(weights)))
    return EpsilonMachine(
        [str(p) for p in range(n)],
        [f"s{j}" for j in range(k)],
        edges,
        name="drawn-permutation",
        check_equivalent=False,
    )


@st.composite
def split_symbol_machines(draw):
    """A drawn machine whose symbol j is split three ways: two added
    symbols copy its moves, and the three share its probability in drawn
    parts, so every pair that moves on j reaches one target three times."""
    m = draw(machines())
    j = draw(st.integers(0, m.k - 1))
    parts = [draw(st.integers(1, 9)) for _ in range(3)]
    names = [f"s{j}", "twin1", "twin2"]
    edges = []
    for p, a, t, w in m.edges():
        if a != j:
            edges.append((str(p), f"s{a}", str(t), w))
            continue
        edges += [(str(p), name, str(t), w * part / sum(parts)) for name, part in zip(names, parts)]
    return EpsilonMachine(
        list(m.states),
        list(m.symbols) + names[1:],
        edges,
        name="drawn-split",
        check_equivalent=False,
    )


@st.composite
def block_triangular_matrices(draw):
    """Nonnegative matrices whose rows and columns are a drawn permutation
    of a block upper triangular form: 1 to 3 diagonal blocks, each after
    the first entered by one drawn entry from an earlier block, so that the
    matrix is reducible when it has two or more.  A block of p * q rows (p
    and q from 1 to 3) holds the cycle r -> r + 1 and drawn entries only
    from row r to the columns t with t - r = 1 mod p, so its period is a
    multiple of p.  Entries are tenths from 0 to 0.9."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        size = p * q
        B = np.zeros((size, size))
        for r in range(size):
            for t in range(size):
                if (t - r - 1) % p == 0:
                    B[r, t] = draw(st.integers(1 if t == (r + 1) % size else 0, 9))
        blocks.append(B)
    start = np.cumsum([0] + [len(B) for B in blocks])
    n = int(start[-1])
    A = np.zeros((n, n))
    for b, B in enumerate(blocks):
        A[start[b] : start[b + 1], start[b] : start[b + 1]] = B
        if b:
            source = draw(st.integers(0, start[b] - 1))
            A[source, draw(st.integers(start[b], start[b + 1] - 1))] = draw(st.integers(1, 9))
    order = draw(st.permutations(range(n)))
    return A[np.ix_(order, order)] / 10.0


VALUES = [0.0, -0.0, 5e-324, 1e-300, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.5, 0.7, 1.0, 3.0]


@st.composite
def raw_tables(draw):
    """(rows, w) value and column tables as `spectral_radius` may receive
    them, 0 to 8 rows.  Either dense (row a lists every column once, as
    `np.arange` columns) or drawn: each row is empty (-1 throughout), or
    holds drawn columns from -1 on, or up to 12 copies of one column among
    them.  Values are drawn from zeros, -0.0, tiny and ordinary numbers, and
    some rows are all zeros."""
    rows = draw(st.integers(0, 8))
    if rows and draw(st.booleans()):
        cols = np.broadcast_to(np.arange(rows), (rows, rows))
    else:
        width = draw(st.integers(0, 14))
        cols = np.full((rows, width), -1)
        for r in range(rows):
            kind = draw(st.sampled_from(["empty", "drawn", "repeat"]))
            if kind != "empty":
                cols[r] = draw(st.lists(st.integers(-1, rows - 1), min_size=width, max_size=width))
            if kind == "repeat" and width:
                copies = draw(st.integers(1, min(12, width)))
                at = draw(st.permutations(range(width)))[:copies]
                cols[r, at] = draw(st.integers(0, rows - 1))
    vals = np.array(
        [[draw(st.sampled_from(VALUES)) for _ in range(cols.shape[1])] for _ in range(rows)]
    ).reshape(cols.shape)
    for r in range(rows):
        if draw(st.integers(0, 4)) == 0:
            vals[r] = 0.0
    return vals, cols


REFERENCE_TEXTS = [
    path.read_text(encoding="utf-8")
    for path in sorted((pathlib.Path(__file__).resolve().parents[1] / "machines").glob("*.em"))
]
ODD_TOKENS = ["nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0", "-0.5", "1.5", "0x1", "#"]


@st.composite
def mutated_machine_texts(draw):
    """A valid machine text (a reference file or a drawn machine) after 1
    to 3 edits: delete, duplicate or replace one token or one line.  A
    replacement is an odd numeral or a comment mark, a token of the text,
    so that names repeat, or short arbitrary text.  The edits come from a random
    stream seeded by the draw, since drawn choices favour the first option,
    the first line and arbitrary text."""
    text = draw(st.one_of(st.sampled_from(REFERENCE_TEXTS), machines().map(render_machine)))
    lines = [line.split() for line in text.splitlines()]
    words = sorted({word for line in lines for word in line})
    place = random.Random(draw(st.integers(0, 2**32 - 1)))

    def replacement():
        pick = place.random()
        if pick < 0.4:
            return place.choice(ODD_TOKENS)
        return place.choice(words) if pick < 0.8 else draw(st.text(max_size=4))

    for _ in range(place.randint(1, 3)):
        edit = place.choice(["delete", "duplicate", "replace"])
        lines = lines or [[]]
        where = place.randrange(len(lines))
        line = lines[where]
        if line and place.random() < 0.5:  # edit one token, often an edge's probability
            i = place.choice([len(line) - 1, place.randrange(len(line))])
            if edit == "delete":
                del line[i]
            elif edit == "duplicate":
                line.insert(i, line[i])
            else:
                line[i] = replacement()
        elif edit == "delete":
            del lines[where]
        elif edit == "duplicate":
            lines.insert(place.randrange(len(lines) + 1), list(line))
        else:
            lines[where] = [replacement() for _ in range(place.randint(0, 6))]
    return "\n".join(" ".join(line) for line in lines) + "\n"


def reference_canonical_tables(vals, cols):
    """The canonical tables by a per-row stable sort and a running sum
    slot by slot: a repeated column accumulates in table order, and only
    the last of its run, if positive, is kept."""
    rows = cols.shape[0]
    key = np.where(cols >= 0, cols, rows)  # no entry sorts last
    order = np.argsort(key, axis=1, kind="stable")
    key = np.take_along_axis(key, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    last = np.ones(key.shape, dtype=bool)
    for j in range(1, key.shape[1]):
        run = key[:, j] == key[:, j - 1]
        vals[run, j] += vals[run, j - 1]
        last[run, j - 1] = False
    keep = last & (key < rows) & (vals > 0)
    r, j = np.nonzero(keep)
    slot = (np.cumsum(keep, axis=1) - 1)[r, j]
    out_vals = np.zeros((int(keep.sum(axis=1).max(initial=0)), rows))
    out_cols = np.full(out_vals.shape, -1)
    out_vals[slot, r] = vals[r, j]
    out_cols[slot, r] = key[r, j]
    return out_vals, out_cols


def reference_unique_rows(table):
    """The distinct rows and each row's index among them, by numpy's own
    row dedupe."""
    return np.unique(table, axis=0, return_inverse=True)


@st.composite
def action_tables(draw):
    """(rows, n) tables of word actions on n = 1 to 6 states, entries from
    0 to n (n is the dead point): 1 to 40 rows drawn from a pool of 1 to 8
    rows, so repeats are common and a pool of one gives all-equal rows."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.lists(st.integers(0, n), min_size=n, max_size=n), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), n)


def reference_pair_arrays(m):
    """The pair automaton by a loop over pairs and symbols."""
    pairs = [(p, q) for p in range(m.n) for q in range(m.n) if p != q]
    index = {pair: r for r, pair in enumerate(pairs)}
    delta2 = np.full((len(pairs), m.k), -1, dtype=np.int64)
    weight = np.zeros((len(pairs), m.k))
    for r, (p, q) in enumerate(pairs):
        for j in range(m.k):
            tp, tq = int(m.delta[p, j]), int(m.delta[q, j])
            if tp >= 0 and tq >= 0 and tp != tq:
                delta2[r, j] = index[(tp, tq)]
                weight[r, j] = m.probs[p, j]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), delta2, weight


def reference_mergeable(m):
    """Mergeable pairs as the least fixed point of one-step merging: a pair
    merges when some symbol collapses it or moves it to a merging pair."""
    pairs = [(p, q) for p in range(m.n) for q in range(m.n) if p != q]
    merged = set()
    changed = True
    while changed:
        changed = False
        for p, q in pairs:
            if (p, q) in merged:
                continue
            for j in range(m.k):
                tp, tq = int(m.delta[p, j]), int(m.delta[q, j])
                if (tp < 0) != (tq < 0) or (tp >= 0 and (tp == tq or (tp, tq) in merged)):
                    merged.add((p, q))
                    changed = True
                    break
    return np.array([pair in merged for pair in pairs], dtype=bool)


def graph_tables(m):
    """The target tables the program hands to the graph helpers: the state
    graph, the pair graph and the moves among deadlock pairs."""
    pa = build_pair_automaton(m)
    dead = np.flatnonzero(~mergeable_pairs(pa).mask)
    return [m.delta, pa.delta2, pa.moves_within(dead)]


def adjacency_matrix(targets):
    a = np.zeros((len(targets), len(targets)), dtype=np.int64)
    rows, slots = np.nonzero(targets >= 0)
    a[rows, targets[rows, slots]] = 1
    return a


def reachability(targets):
    """Reflexive transitive closure of a table's graph."""
    return closure(adjacency_matrix(targets))


def closure(adjacency):
    """Reflexive transitive closure of a 0/1 adjacency matrix, by boolean
    squaring."""
    reach = (adjacency + np.eye(len(adjacency), dtype=np.int64)) > 0
    while True:
        wider = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(wider, reach):
            return reach
        reach = wider


def reference_period(targets):
    """gcd of the lengths L <= b with tr(A^L) > 0 on a b-node table; 0 when
    the graph has no cycle."""
    a = adjacency_matrix(targets)
    power, g = np.eye(len(a), dtype=np.int64), 0
    for length in range(1, len(a) + 1):
        power = np.minimum(power @ a, 1)
        if np.trace(power) > 0:
            g = math.gcd(g, length)
    return g


def reference_components(targets):
    """Iterative Tarjan on adjacency lists, one iterator per open node: the
    components (sorted lists) in the order they close."""
    adjacency = [[t for t in row if t >= 0] for row in np.asarray(targets).tolist()]
    n = len(adjacency)
    index = [0] * n  # visit order from 1; n + 1 once the component is out
    low = [0] * n
    stack, work, components = [], [], []
    counter = itertools.count(1)

    def visit(v):
        index[v] = low[v] = next(counter)
        stack.append(v)
        work.append((v, iter(adjacency[v])))

    for root in range(n):
        if index[root]:
            continue
        visit(root)
        while work:
            u, it = work[-1]
            for v in it:
                if not index[v]:
                    visit(v)
                    break
                low[u] = min(low[u], index[v])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[u])
                if low[u] == index[u]:
                    comp = []
                    while not comp or comp[-1] != u:
                        comp.append(stack.pop())
                        index[comp[-1]] = n + 1
                    comp.sort()
                    components.append(comp)
    return components


def reference_bfs_period(targets):
    """Period of a strongly connected table from breadth-first levels from
    node 0: the gcd of level[u] + 1 - level[v] over the edges; 1 without a
    cycle."""
    adjacency = [[t for t in row if t >= 0] for row in np.asarray(targets).tolist()]
    level = [-1] * len(adjacency)
    level[0] = 0
    order = [0]
    g = 0
    for u in order:
        for v in adjacency[u]:
            if level[v] >= 0:
                g = math.gcd(g, level[u] + 1 - level[v])
            else:
                level[v] = level[u] + 1
                order.append(v)
    return abs(g) if g else 1


def assert_traversal_matches_references(targets, exhaustive_period=True):
    """tarjan's components, in order, are the reference Tarjan's, and the
    period of each block from the whole-graph depths is its BFS period
    (and, when exhaustive_period, its closed-walk period)."""
    components, depth = tarjan(targets)
    assert components == reference_components(targets)
    assert strongly_connected_components(targets) == components
    depth = np.array(depth)
    for block in components:
        sub = restrict(targets, block)
        d = labelled_period(sub, depth[block])
        assert d == reference_bfs_period(sub) == component_period(sub)
        if exhaustive_period:
            assert d == (reference_period(sub) or 1)


def reference_restrict(targets, nodes):
    """graphs.restrict by a loop over the entries of the chosen rows."""
    where = {v: i for i, v in enumerate(nodes)}
    out = np.full((len(nodes), targets.shape[1]), -1, dtype=np.int64)
    for i, v in enumerate(nodes):
        for j in range(targets.shape[1]):
            t = int(targets[v, j])
            if t >= 0 and t in where:
                out[i, j] = where[t]
    return out


def class_radii(A):
    """max |eigvals| of the diagonal block of each mutual reachability class
    of A's support; together their eigenvalues are those of A.  The Perron
    root of each block is a simple eigenvalue; eigvals of the whole matrix
    loses about the square root of the unit roundoff where a class leads to
    another of the same radius (a Jordan block)."""
    mutual = closure((A > 0).astype(np.int64))
    mutual &= mutual.T
    return [float(np.abs(np.linalg.eigvals(A[np.ix_(row, row)])).max()) for row in np.unique(mutual, axis=0)]


def reference_edge_stats(m, component, rho):
    """Edge states, edge_rho, f_values and expectation of a component by a
    loop over its pairs and symbols, given its equilibrium rho."""
    edge_states, edge_rho, f_values = [], [], []
    expectation = 0.0
    for i, (p, q) in enumerate(component):
        for j in range(m.k):
            if m.delta[p, j] < 0 or m.delta[q, j] < 0 or m.delta[p, j] == m.delta[q, j]:
                continue
            w = float(m.probs[p, j])
            f = math.log(w / float(m.probs[q, j]))
            edge_states.append(((p, q), j))
            edge_rho.append(float(rho[i]) * w)
            f_values.append(f)
            expectation += float(rho[i]) * w * f
    return edge_states, np.array(edge_rho), np.array(f_values), expectation


@pair_layer_settings
@given(machines())
def test_transition_matrix_matches_edge_loop(m):
    T = np.zeros((m.n, m.n))
    for i, _, t, p in m.edges():
        T[i, t] += p
    assert np.array_equal(m.transition_matrix(), T)


@pair_layer_settings
@given(permutation_machines())
def test_edge_stats_match_loop_reference(m):
    pa, da = deadlock_analysis(m)
    for comp in da.components:
        stats = edge_machine_stats(comp, pa)
        edge_states, edge_rho, f_values, expectation = reference_edge_stats(m, comp, stats.rho)
        assert stats.edge_states == edge_states
        np.testing.assert_allclose(stats.edge_rho, edge_rho, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(stats.f_values, f_values, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(stats.expectation, expectation, rtol=1e-14, atol=0.0)


@pair_layer_settings
@given(permutation_machines())
def test_closed_component_first_coordinate_is_stationary(m):
    # closure moves the pair inside its component on every symbol the first
    # coordinate emits, so that coordinate runs the machine's own chain
    pa, da = deadlock_analysis(m)
    for comp in da.components:
        rho = edge_machine_stats(comp, pa).rho
        first = np.bincount([p for p, _ in comp], weights=rho, minlength=m.n)
        np.testing.assert_allclose(first, m.stationary.pi, rtol=0.0, atol=1e-12)


def assert_drift_brackets_hold_dense_drift(m):
    pa, da = deadlock_analysis(m)
    for comp, rows in zip(da.components, da.component_rows):
        lo, hi = rates._drift_bracket(rows, pa, da.scc[1])
        assert lo <= edge_machine_stats(comp, pa).expectation <= hi


@pair_layer_settings
@given(st.one_of(machines(), permutation_machines()))
def test_drift_bracket_holds_dense_drift(m):
    assert_drift_brackets_hold_dense_drift(m)


@pair_layer_settings
@given(st.one_of(machines(), permutation_machines()))
def test_drift_bracket_from_zero_holds_dense_drift(m):
    # every component iterates from h = 0: the seed returns the h it is
    # given, as it does when its solve fails
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rates, "_poisson_seed", lambda vals, cols, g, h: h)
        assert_drift_brackets_hold_dense_drift(m)


@pair_layer_settings
@given(machines())
def test_pair_arrays_match_loop_reference(m):
    pa = build_pair_automaton(m)
    for actual, expected in zip((pa.pairs, pa.delta2, pa.weight), reference_pair_arrays(m)):
        assert actual.dtype == expected.dtype
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected)


@pair_layer_settings
@given(machines())
def test_mergeable_mask_matches_fixed_point(m):
    da = mergeable_pairs(build_pair_automaton(m))
    assert np.array_equal(da.mask, reference_mergeable(m))


@pair_layer_settings
@given(machines(), st.integers(0, 8))
def test_nsyn_row_sums_match_matrix_power(m, length):
    T = pair_matrix(build_pair_automaton(m))
    expected = np.linalg.matrix_power(T, length) @ np.ones(T.shape[0])
    actual = nsyn_bounds(m, length).row_sums
    np.testing.assert_allclose(actual, expected, rtol=1e-13, atol=0.0)


@pair_layer_settings
@given(machines())
def test_escape_is_radius_of_dense_restriction(m):
    pa, da = deadlock_analysis(m)
    absorbed = {pair for comp in da.components for pair in comp}
    keep = [r for r in range(pa.count) if pa.pair(r) not in absorbed]
    T = pair_matrix(pa)
    assert rate_report(m).escape == spectral_radius(T[np.ix_(keep, keep)], 1e-9)


@pair_layer_settings
@given(st.one_of(machines(), split_symbol_machines()))
def test_radius_of_tables_is_radius_of_chain_matrix(m):
    pa, da = deadlock_analysis(m)
    rows = np.arange(pa.count)
    if da.component_rows:
        rows = np.delete(rows, np.concatenate(da.component_rows))
    for subset in (np.arange(pa.count), rows):
        t, w = pa.moves_within(subset), pa.weight[subset]
        assert spectral_radius(w, 1e-9, columns=t) == spectral_radius(chain_matrix(t, w), 1e-9)


def total_pair_matrix(m):
    return pair_matrix(build_pair_automaton(m))


@pair_layer_settings
@given(
    st.one_of(
        machines().map(total_pair_matrix),
        permutation_machines().map(total_pair_matrix),
        block_triangular_matrices(),
    ),
    st.sampled_from([1e-6, 1e-9, 1e-12, 1e-300]),
)
def test_radius_lies_within_half_eps_of_eigenvalues(A, eps):
    # eigensolver allowance 1e-12: eigvals is backward stable, so the simple
    # Perron root of a block of at most 42 rows with entries at most 1 is
    # off by a few unit roundoffs times its condition number
    try:
        value = spectral_radius(A, eps)
    except ConvergenceError as exc:
        # only an eps below resolution may stop on the bracket of the block
        # at hand; every reachable eps must close
        if eps > 1e-300:
            raise
        lo, hi = exc.bracket
        assert any(lo - 1e-12 <= r <= hi + 1e-12 for r in class_radii(A))
        return
    assert abs(value - max(class_radii(A), default=0.0)) <= eps / 2 + 1e-12


@pair_layer_settings
@given(st.one_of(machines(), permutation_machines()))
def test_components_are_mutual_reachability_classes(m):
    for targets in graph_tables(m):
        components = strongly_connected_components(targets)
        label = np.full(len(targets), -1)
        for c, comp in enumerate(components):
            assert comp == sorted(comp)
            assert (label[comp] == -1).all()
            label[comp] = c
        assert (label >= 0).all()
        reach = reachability(targets)
        assert np.array_equal(label[:, None] == label[None, :], reach & reach.T)
        # reverse topological order: every edge ends in its own component
        # or in one listed earlier
        rows, slots = np.nonzero(targets >= 0)
        assert (label[targets[rows, slots]] <= label[rows]).all()
        assert is_strongly_connected(targets) == (len(components) <= 1)


@pair_layer_settings
@given(st.one_of(machines(), permutation_machines()))
def test_component_period_is_gcd_of_closed_walk_lengths(m):
    for targets in graph_tables(m):
        for block in strongly_connected_components(targets):
            sub = restrict(targets, block)
            assert component_period(sub) == (reference_period(sub) or 1)


@pair_layer_settings
@given(st.one_of(machines(), permutation_machines()))
def test_traversal_matches_reference_tarjan_and_periods(m):
    for targets in graph_tables(m):
        assert_traversal_matches_references(targets)


# Machines whose pair graphs lift from the unordered pairs in each way.
# One state: no unordered pair.  Two states: the one pair is exact, or the
# only symbol swaps it, an odd lift (its quotient block is a self-loop of
# period 1, its lift a 2-cycle of period 2).
ONE_STATE = EpsilonMachine(["0"], ["a"], [("0", "a", "0", 1.0)], name="one-state")
TWO_STATE = EpsilonMachine(
    ["0", "1"], ["a", "b"], [("0", "a", "0", 0.5), ("0", "b", "1", 0.5), ("1", "a", "0", 1.0)]
)
SWAP = EpsilonMachine(["0", "1"], ["a"], [("0", "a", "1", 1.0), ("1", "a", "0", 1.0)], check_equivalent=False)


def mirror_transient_machine():
    """Four states: a swaps the states within {0, 1} and within {2, 3}, x
    and c send every pair into those two sets.  The pairs within them form
    one closed block, an odd lift.  The transient deadlock pairs (0, 2)
    and (1, 3), and the mergeable (0, 3) and (1, 2), form two blocks each
    with their swaps: even lifts, each a mirror pair of 2-cycles with
    different weights."""
    probs = [(0.5, 0.3, 0.2), (0.4, 0.35, 0.25), (0.3, 0.45, 0.25), (0.25, 0.35, 0.4)]
    maps = {"a": [1, 0, 3, 2], "x": [0, 1, 1, 0], "c": [2, 3, 3, 2]}
    edges = [
        (str(p), symbol, str(to[p]), w[j])
        for p, w in enumerate(probs)
        for j, (symbol, to) in enumerate(maps.items())
    ]
    return EpsilonMachine([str(p) for p in range(4)], list(maps), edges, name="mirror-transient")


MIRROR_TRANSIENT = mirror_transient_machine()


def assert_reverse_topological(targets, blocks):
    """Every edge ends in its own block or in one listed earlier."""
    label = np.empty(len(targets), dtype=np.int64)
    for c, block in enumerate(blocks):
        label[block] = c
    rows, slots = np.nonzero(targets >= 0)
    assert (label[targets[rows, slots]] <= label[rows]).all()


def assert_lift_matches_ordered_pair_graph(m):
    """The analysis makes its one pass over the unordered pairs and lifts
    it back.  The reference is the ordered pair graph: the blocks of the
    reference Tarjan (as sets), in a reverse topological order; the
    closed-walk period of each block, from the lifted labels; the
    fixed-point mask; and the closed components, the mutual-reachability
    classes of deadlock rows that no move leaves.  The automaton's rows are
    the layout's one read-only array, whose fold sends a row and its swap
    to one unordered pair, and its seeds match a per-pair reference."""
    pa = build_pair_automaton(m)
    pairs, upper, node, flipped = pair_layout(m.n)
    assert pa.pairs is pairs and build_pair_automaton(m).pairs is pairs
    assert not pairs.flags.writeable
    p, q = pairs.T
    assert np.array_equal(node[:-1], node[pa.pair_index(q, p)])
    assert np.array_equal(upper, np.flatnonzero(p < q))
    assert np.array_equal(node[upper], np.arange(m.n * (m.n - 1) // 2))
    assert np.array_equal(flipped[:-1], p > q)
    assert (node[-1], flipped[-1]) == (-1, False)
    seeds = [
        any(
            (tp < 0) != (tq < 0) or (tp >= 0 and tp == tq)
            for tp, tq in zip(m.delta[a].tolist(), m.delta[b].tolist())
        )
        for a, b in pairs.tolist()
    ]
    assert pa.seeds.tolist() == seeds
    da = mergeable_pairs(pa)
    blocks, labels, _ = da.scc
    assert {tuple(b.tolist()) for b in blocks} == set(map(tuple, reference_components(pa.delta2)))
    assert_reverse_topological(pa.delta2, blocks)
    for block in blocks:
        sub = restrict(pa.delta2, block)
        assert labelled_period(sub, labels[block]) == (reference_period(sub) or 1)
    mergeable = reference_mergeable(m)
    assert np.array_equal(da.mask, mergeable)
    reach = reachability(pa.delta2)
    expected = set()
    for r in np.flatnonzero(~mergeable):
        cls = np.flatnonzero(reach[r] & reach[:, r])
        moves = pa.delta2[cls]
        if np.isin(moves[moves >= 0], cls).all():
            expected.add(tuple(cls.tolist()))
    assert [rows.tolist() for rows in da.component_rows] == [list(c) for c in sorted(expected)]


@pair_layer_settings
@given(st.one_of(machines(), permutation_machines(), split_symbol_machines()))
@example(ONE_STATE)
@example(TWO_STATE)
@example(SWAP)
@example(MIRROR_TRANSIENT)
def test_closed_components_are_closed_deadlock_classes(m):
    assert_lift_matches_ordered_pair_graph(m)


def test_lift_matches_ordered_pair_graph_on_nonexact_corpus(nonexact_corpus):
    for m in nonexact_corpus:
        assert_lift_matches_ordered_pair_graph(m)


def pair_tables(m):
    pa = build_pair_automaton(m)
    return pa.weight, pa.delta2


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    st.one_of(raw_tables(), machines().map(pair_tables), permutation_machines().map(pair_tables))
)
def test_canonical_tables_match_reference(tables):
    vals, cols = tables
    pairs = zip(rates._canonical_tables(vals, cols), reference_canonical_tables(vals, cols))
    for got, want in pairs:
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


@pair_layer_settings
@given(block_triangular_matrices())
def test_radius_blocks_and_periods_on_reducible_periodic_matrices(A):
    # the table spectral_radius reads: row a lists the b with A[a, b] > 0
    _, cols = rates._canonical_tables(A.copy(), np.broadcast_to(np.arange(len(A)), A.shape))
    assert_traversal_matches_references(cols.T)
    alone = []  # per block of several rows, the canonical tables of that block alone
    for block in strongly_connected_components(cols.T):
        if len(block) > 1:
            sub = A[np.ix_(block, block)]
            columns = np.broadcast_to(np.arange(len(block)), sub.shape)
            alone.append(reference_canonical_tables(sub, columns))
    handed = []  # per block iterated, whether it was handed its own period and tables

    def record(vals, cols, d, eps):
        own = any(np.array_equal(vals, v) and np.array_equal(cols, c) for v, c in alone)
        handed.append(d == reference_period(cols.T) and own)
        return 0.0

    with mock.patch.object(rates, "_block_radius", record):
        spectral_radius(A)
    assert len(handed) == len(alone) and all(handed)


@pytest.mark.parametrize("n, k", [(32, 2), (40, 3)])
def test_traversal_matches_references_on_large_pair_graphs(n, k):
    """The 992- and 1,560-pair graphs of exact ladder machines, as the pair
    automaton and as the radius reads them; the closed-walk period would
    take a thousand dense matrix products, so the BFS period stands in."""
    m = parse_machine(gen.exact_spec(n, k, np.random.default_rng(1), "exact").text())
    pa = build_pair_automaton(m)
    assert pa.count == n * (n - 1)
    _, cols = rates._canonical_tables(pa.weight, pa.delta2)
    for targets in (pa.delta2, cols.T):
        assert_traversal_matches_references(targets, exhaustive_period=False)


def test_traversal_is_iterative_on_a_long_cycle():
    n = 10**5
    targets = np.roll(np.arange(n), -1)[:, None]
    components, depth = tarjan(targets)
    assert components == [list(range(n))]
    assert depth == list(range(n))
    assert labelled_period(targets, depth) == n


@pair_layer_settings
@given(st.one_of(machines(), permutation_machines()), st.randoms(use_true_random=False))
def test_restrict_matches_entry_loop(m, random):
    for targets in graph_tables(m):
        nodes = random.sample(range(len(targets)), random.randint(0, len(targets)))
        expected = reference_restrict(targets, nodes)
        assert np.array_equal(restrict(targets, nodes), expected)
        for block in strongly_connected_components(targets):
            assert np.array_equal(restrict(targets, block), reference_restrict(targets, block))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(mutated_machine_texts())
def test_parser_mutations_raise_only_package_errors(text):
    try:
        m = parse_machine(text)
    except EmsyncError:
        return
    assert isinstance(m, EpsilonMachine)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(action_tables())
def test_unique_rows_match_reference(table):
    for got, want in zip(oracle._unique_rows(table), reference_unique_rows(table)):
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()
