"""Rate constants: pair matrices, spectral radius, synchronization and
prediction rates, sandwich bounds, drift expectations, escape rate."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from emsync import (
    ConvergenceError,
    InputError,
    PreconditionError,
    build_pair_automaton,
    classify,
    deadlock_analysis,
    edge_machine_stats,
    escape_rate,
    nonreset_profile,
    nsyn_bounds,
    pair_matrix,
    prediction_rate,
    random_machine,
    rate_report,
    spectral_radius,
    sync_rate,
)
from emsync import graphs, pairs, rates
from emsync.machine import EpsilonMachine, parse_machine
from emsync.rates import RATE_EPS
from perfbench import gen, workloads

SRC_EX = 0.3535533905932738  # sqrt(1/8)
E_NE = 0.186538595978474
PRC_NE = 0.829826533366243
E_MIX = 0.115561829206268
PRC_MIX = 0.890865489028142
E_TRANS = 0.03046564454298287
ESCAPE_MIX = 0.5477225575051661  # sqrt(0.3)
ESCAPE_TRANS = 0.7306878574061176
PERM4_DRIFTS = [0.0246174695139084, 0.0896051146784206, 0.113342157427772]
PRC_PERM4 = 0.975683069170512


def cerny_machine(n):
    """Cerny-type exact machine: symbol a is the cycle i -> i+1, symbol b
    sends 0 -> 1 and fixes every other state; P(a|i) runs evenly from 0.25
    to 0.75.  Its pair chain has |l2/l1| close to 1."""
    edges = []
    for i in range(n):
        p_a = 0.25 + 0.5 * i / (n - 1)
        edges.append((str(i), "a", str((i + 1) % n), p_a))
        edges.append((str(i), "b", "1" if i == 0 else str(i), 1.0 - p_a))
    return EpsilonMachine([str(i) for i in range(n)], ["a", "b"], edges, name=f"cerny-{n}")


def cycle_machine(n, k, seed):
    """Exact machine drawn like the benchmark's exact ladder: symbol 0 is a
    Hamiltonian cycle in a random order, the others random maps, the last
    of them undefined at one state; each state's probabilities are half a
    flat Dirichlet draw and half uniform."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    delta = np.empty((n, k), dtype=np.int64)
    delta[order, 0] = np.roll(order, -1)
    for j in range(1, k):
        delta[:, j] = rng.integers(0, n, size=n)
    delta[rng.integers(n), k - 1] = -1
    edges = []
    for i in range(n):
        defined = np.flatnonzero(delta[i] >= 0)
        probs = 0.5 * rng.dirichlet(np.ones(defined.size)) + 0.5 / defined.size
        edges += [(str(i), f"s{j}", str(delta[i, j]), float(w)) for j, w in zip(defined, probs)]
    return EpsilonMachine([str(i) for i in range(n)], [f"s{j}" for j in range(k)], edges)


def permutation_cycle_machine(n, seed):
    """Non-exact machine on n states: symbol a is the cycle i -> i+1,
    symbol b a random permutation; P(a|i) runs evenly from 0.25 to 0.75.
    Permutations never merge a pair, so every pair is deadlock."""
    b_map = np.random.default_rng(seed).permutation(n)
    edges = []
    for i in range(n):
        p_a = 0.25 + 0.5 * i / (n - 1)
        edges.append((str(i), "a", str((i + 1) % n), p_a))
        edges.append((str(i), "b", str(b_map[i]), 1.0 - p_a))
    return EpsilonMachine([str(i) for i in range(n)], ["a", "b"], edges, name=f"perm-cycle-{n}")


def rare_b_machine(n):
    """gen.permutation_spec(n, 2) with symbol b rare, P(b|i) = 1e-4 (1 + i/n):
    one closed component of n(n - 1) pairs that mixes slowly."""
    spec = gen.permutation_spec(n, 2, np.random.default_rng(5), f"rare-b-{n}")
    spec.probs[:, 0] = 1 - 1e-4 * (1 + np.arange(n) / n)
    spec.probs[:, 1] = 1 - spec.probs[:, 0]
    return parse_machine(spec.text())


def block_swap_machine(k, seed):
    """Non-exact machine on 6 states whose symbols all swap the blocks
    {0, 1, 2} and {3, 4, 5}: symbol s0 is the 6-cycle 0 3 1 4 2 5, the
    others random bijections between the blocks.  A pair's first state
    alternates between the blocks, so every closed component has an even
    period."""
    rng = np.random.default_rng(seed)
    probs = 0.5 * rng.dirichlet(np.ones(k), size=6) + 0.5 / k
    edges = []
    for j in range(k):
        if j == 0:
            image = np.array([3, 4, 5, 1, 2, 0])
        else:
            image = np.concatenate([3 + rng.permutation(3), rng.permutation(3)])
        edges += [(str(i), f"s{j}", str(image[i]), float(probs[i, j])) for i in range(6)]
    return EpsilonMachine([str(i) for i in range(6)], [f"s{j}" for j in range(k)], edges)


def dense_radius(A):
    return float(np.abs(np.linalg.eigvals(np.asarray(A))).max())


def dense_copies(call, rows):
    """Peak bytes that tracemalloc traces while `call()` runs, in units of
    one dense rows x rows float array (8 rows^2 bytes).  numpy's LAPACK
    working copy of a solve's matrix is allocated outside the tracer."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * rows * rows)


def weighted_cycle(size, rng):
    """Cycle 0 -> 1 -> ... -> size-1 -> 0 with random positive weights: all
    its eigenvalues share one modulus."""
    C = np.zeros((size, size))
    C[np.arange(size), (np.arange(size) + 1) % size] = rng.uniform(0.5, 1.5, size)
    return C


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts dense solves, one per Noda step."""
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


@pytest.fixture
def step_calls(monkeypatch):
    """Row counts of the power steps of the rates module: one per power
    window of period 1 and one per Noda step."""
    calls = []
    step = rates._step

    def counting(vals, cols, z):
        calls.append(z.size)
        return step(vals, cols, z)

    monkeypatch.setattr(rates, "_step", counting)
    return calls


@pytest.fixture
def chain_matrix_calls(monkeypatch):
    """Row counts of the dense blocks the rates module builds."""
    calls = []
    build = rates.chain_matrix

    def counting(targets, weights):
        calls.append(targets.shape[0])
        return build(targets, weights)

    monkeypatch.setattr(rates, "chain_matrix", counting)
    return calls


@pytest.fixture
def tarjan_rows(monkeypatch):
    """Node counts of the graphs handed to `graphs.tarjan`, by any module."""
    calls = []
    traverse = graphs.tarjan

    def counting(targets, flips=None):
        calls.append(len(targets))
        return traverse(targets, flips)

    for module in (graphs, pairs, rates):
        monkeypatch.setattr(module, "tarjan", counting, raising=False)
    return calls


@pytest.fixture
def canonical_rows(monkeypatch):
    """Row counts of the tables handed to `rates._canonical_tables`."""
    calls = []
    canonical = rates._canonical_tables

    def counting(vals, cols):
        calls.append(len(vals))
        return canonical(vals, cols)

    monkeypatch.setattr(rates, "_canonical_tables", counting)
    return calls


@pytest.fixture
def analyses(monkeypatch):
    """Every DeadlockAnalysis built."""
    made = []
    init = pairs.DeadlockAnalysis.__init__

    def recording(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(pairs.DeadlockAnalysis, "__init__", recording)
    return made


class TestOnePass:
    @pytest.mark.parametrize("entry", [rate_report, sync_rate, escape_rate, prediction_rate])
    def test_rate_runs_one_tarjan_pass_and_no_closure(self, entry, ref_ex, tarjan_rows, analyses):
        # the blocks of one pass, over the unordered pairs, give the closed
        # components and the escape radius; only a reader of the mask runs
        # the backward closure, and no rate builds the tuple view of the
        # components
        for m in (ref_ex, cycle_machine(12, 3, seed=1)):
            tarjan_rows.clear()
            analyses.clear()
            entry(m)
            assert tarjan_rows == [m.n * (m.n - 1) // 2]
            (da,) = analyses
            assert "mask" not in vars(da)
            assert "components" not in vars(da)

    @pytest.mark.parametrize("entry", [rate_report, sync_rate, escape_rate, prediction_rate])
    def test_non_exact_rate_runs_one_tarjan_pass(self, entry, trans_machine, tarjan_rows, analyses):
        # sync_rate refuses the machine after the pass (test_non_exact_is_rejected)
        with contextlib.suppress(PreconditionError):
            entry(trans_machine)
        assert tarjan_rows == [trans_machine.n * (trans_machine.n - 1) // 2]
        (da,) = analyses
        assert "components" not in vars(da)

    def test_radius_canonicalises_each_surviving_block_once(
        self, ref_ex, trans_machine, canonical_rows, analyses
    ):
        # an exact machine's pair graph here is one block of every row,
        # canonicalised in place; a non-exact machine's surviving blocks each
        # get their own tables, and its closed component none
        for m in (ref_ex, cycle_machine(12, 3, seed=1)):
            canonical_rows.clear()
            rate_report(m)
            assert canonical_rows == [m.n * (m.n - 1)]
        canonical_rows.clear()
        analyses.clear()
        rate_report(trans_machine)
        (da,) = analyses
        blocks, _, closed = da.scc
        surviving = [len(block) for block in blocks if len(block) > 1 and not closed[block[0]]]
        assert surviving and sorted(canonical_rows) == sorted(surviving)

    def test_classify_runs_the_closure_and_no_tarjan_pass(
        self, ref_ex, trans_machine, tarjan_rows, analyses
    ):
        assert (classify(ref_ex), classify(trans_machine)) == ("exact", "non-exact")
        assert tarjan_rows == []
        assert all("mask" in vars(da) for da in analyses)


class TestPairMatrix:
    def test_ex_totals(self, ref_ex):
        pa = build_pair_automaton(ref_ex)
        pm = pair_matrix(pa)
        assert np.allclose(pm, [[0.0, 0.5], [0.25, 0.0]], atol=1e-15)
        # symbol a merges both states, so it has no pair move
        assert (pa.delta2[:, 0] == -1).all() and not pa.weight[:, 0].any()
        # symbol b carries every entry of the total
        assert pa.delta2[:, 1].tolist() == [1, 0]
        assert np.allclose(pa.weight[:, 1], [pm[0, 1], pm[1, 0]], atol=1e-15)

    def test_ne_totals(self, ref_ne):
        pa = build_pair_automaton(ref_ne)
        pm = pair_matrix(pa)
        assert np.allclose(pm, [[0.7, 0.3], [0.6, 0.4]], atol=1e-15)
        assert pa.delta2[:, 0].tolist() == [0, 1]
        assert np.allclose(pa.weight[:, 0], [0.7, 0.4], atol=1e-15)
        assert pa.delta2[:, 1].tolist() == [1, 0]
        assert np.allclose(pa.weight[:, 1], [0.3, 0.6], atol=1e-15)

    def test_one_state_machine_is_empty(self, ref_1):
        pa = build_pair_automaton(ref_1)
        assert pair_matrix(pa).shape == (0, 0)
        assert pa.delta2.shape == pa.weight.shape == (0, 1)

    def test_total_is_symbol_sum(self):
        m = random_machine(4, 3, seed=5)
        pa = build_pair_automaton(m)
        expected = np.zeros((pa.count, pa.count))
        for s, j in zip(*np.nonzero(pa.delta2 >= 0)):
            expected[s, pa.delta2[s, j]] += pa.weight[s, j]
        assert np.allclose(expected, pair_matrix(pa), atol=1e-15)

    def test_rows_substochastic(self, nonexact_corpus):
        for m in nonexact_corpus[:25]:
            pm = pair_matrix(build_pair_automaton(m))
            sums = pm.sum(axis=1)
            assert (sums <= 1.0 + 1e-12).all()


class TestSpectralRadius:
    def test_ex_pair_matrix(self):
        assert spectral_radius([[0.0, 0.5], [0.25, 0.0]]) == pytest.approx(
            SRC_EX, abs=1e-10
        )

    def test_zero_and_empty(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_singleton(self):
        assert spectral_radius([[0.37]]) == pytest.approx(0.37, abs=1e-15)

    def test_stochastic_is_one(self, mixed_corpus):
        for m in mixed_corpus[:10]:
            T = m.transition_matrix()
            assert spectral_radius(T) == pytest.approx(1.0, abs=1e-9)

    def test_periodic_non_stochastic(self):
        # period-2 support; plain power iteration would oscillate
        assert spectral_radius([[0.0, 4.0], [1.0, 0.0]]) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_two_by_two_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b, c, d = rng.uniform(0.0, 2.0, size=4)
            expected = 0.5 * (a + d + math.sqrt((a - d) ** 2 + 4.0 * b * c))
            got = spectral_radius([[a, b], [c, d]])
            assert got == pytest.approx(expected, abs=1e-6)

    def test_against_dense_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            A = rng.uniform(size=(n, n))
            A[rng.uniform(size=(n, n)) < 0.35] = 0.0
            expected = float(np.abs(np.linalg.eigvals(A)).max())
            got = spectral_radius(A, eps=1e-12)
            assert got == pytest.approx(expected, abs=1e-8)

    def test_reducible_matrix(self):
        # two blocks, no path back from the second to the first
        A = np.array(
            [
                [0.2, 0.5, 0.1, 0.0],
                [0.4, 0.1, 0.0, 0.2],
                [0.0, 0.0, 0.3, 0.6],
                [0.0, 0.0, 0.5, 0.2],
            ]
        )
        expected = float(np.abs(np.linalg.eigvals(A)).max())
        assert spectral_radius(A) == pytest.approx(expected, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(InputError):
            spectral_radius(np.zeros((2, 3)))
        with pytest.raises(InputError):
            spectral_radius(np.zeros(4))
        with pytest.raises(InputError):
            spectral_radius([[1.0, -0.1], [0.2, 0.3]])
        with pytest.raises(InputError):
            spectral_radius([[0.5]], eps=0.0)

    def test_table_input_validation(self):
        w = np.array([[0.5, 0.5], [1.0, 0.0]])
        bad_columns = [
            np.array([[0, 1]]),  # one row short
            np.array([[0, 1, 1], [0, 1, 1]]),  # one column too many
            np.array([0, 1]),
            np.array([[0, 2], [1, -1]]),  # past the last row
            np.array([[0, -2], [1, -1]]),
            w,  # not integers
        ]
        for columns in bad_columns:
            with pytest.raises(InputError, match="columns"):
                spectral_radius(w, columns=columns)
        with pytest.raises(InputError, match="columns"):
            spectral_radius(np.zeros(2), columns=np.zeros(2, dtype=int))
        with pytest.raises(InputError, match="finite"):
            spectral_radius([[math.nan, 0.5], [1.0, 0.0]], columns=[[0, 1], [0, -1]])

    def test_tables_sum_repeated_columns(self):
        # row 0 reaches column 1 twice; -1 entries and zero values are absent
        w = [[0.25, 0.25, 7.0], [0.25, 0.0, 0.0]]
        t = [[1, 1, -1], [0, 0, -1]]
        assert spectral_radius(w, columns=t) == pytest.approx(SRC_EX, abs=1e-10)

    @pytest.mark.parametrize(
        "A",
        [
            [[math.nan]],
            [[0.0, math.nan], [1.0, 0.0]],
            [[math.nan, 1.0], [1.0, math.nan]],
            [[math.inf, 1.0], [1.0, 0.0]],
        ],
    )
    def test_non_finite_entries_are_rejected(self, A):
        # a NaN or infinite entry has no radius to bracket
        with pytest.raises(InputError, match="finite"):
            spectral_radius(A)

    # a non-number would fail the comparison with 0 as a bare TypeError, and
    # a bool is a `numbers.Real` that would pass as 1
    @pytest.mark.parametrize(
        "eps", [math.nan, math.inf, -math.inf, -1e-9, "1e-9", "x", None, [1e-9], True]
    )
    def test_eps_must_be_positive_and_finite(self, eps, ref_ex):
        with pytest.raises(InputError, match="eps must be (a finite real number|positive)"):
            spectral_radius([[0.5, 0.3], [0.2, 0.4]], eps=eps)
        with pytest.raises(InputError, match="eps must be (a finite real number|positive)"):
            sync_rate(ref_ex, eps=eps)

    def test_periodic_block_through_noda(self, solve_calls):
        # bipartite, period 2; A^2 has its eigenvalues nearly on one circle,
        # so the power windows leave the bracket open
        rng = np.random.default_rng(3)
        h = 20
        B = weighted_cycle(h, rng) + 1e-4
        C = weighted_cycle(h, rng) + 1e-4
        A = np.block([[np.zeros((h, h)), B], [C, np.zeros((h, h))]])
        eps = 1e-10
        assert spectral_radius(A, eps=eps) == pytest.approx(dense_radius(A), abs=eps)
        assert solve_calls and set(solve_calls) == {2 * h}

    def test_slow_gap_block_through_noda(self, solve_calls):
        # a weighted cycle plus one weak self-loop: aperiodic, |l2/l1| ~ 1
        rng = np.random.default_rng(4)
        A = weighted_cycle(30, rng)
        A[0, 0] = 1e-3
        eps = 1e-10
        assert spectral_radius(A, eps=eps) == pytest.approx(dense_radius(A), abs=eps)
        assert solve_calls and set(solve_calls) == {30}

    def test_fast_block_stays_in_power_phase(self, solve_calls):
        A = np.random.default_rng(5).uniform(size=(60, 60))
        assert spectral_radius(A) == pytest.approx(dense_radius(A), abs=1e-10)
        assert solve_calls == []

    def test_convergence_error_carries_bracket(self):
        with pytest.raises(ConvergenceError) as exc:
            spectral_radius([[0.5, 0.3], [0.2, 0.4]], eps=1e-300)
        lo, hi = exc.value.bracket
        # true value is 0.7; the bracket is certified to contain it
        assert lo <= 0.7 <= hi
        assert f"[{lo!r}, {hi!r}], width {hi - lo:.3g}" in str(exc.value)

    def test_bracket_at_resolution_skips_noda(self, solve_calls):
        # the power bracket stalls within rounding of the radius, about 30,
        # where a Noda step could not narrow it either
        A = np.random.default_rng(5).uniform(size=(60, 60))
        with pytest.raises(ConvergenceError, match="resolution") as exc:
            spectral_radius(A, eps=1e-16)
        lo, hi = exc.value.bracket
        assert hi - lo <= 6 * 61 * 2.0**-53 * hi
        assert lo - 1e-12 <= dense_radius(A) <= hi + 1e-12
        assert solve_calls == []


class TestSyncRate:
    def test_ex(self, ref_ex):
        assert sync_rate(ref_ex) == pytest.approx(SRC_EX, abs=1e-9)

    def test_gm_synchronizes_in_one_step(self, ref_gm):
        assert sync_rate(ref_gm) == 0.0

    def test_one_state(self, ref_1):
        assert sync_rate(ref_1) == 0.0

    def test_non_exact_is_rejected(self, ref_ne):
        with pytest.raises(PreconditionError, match=r"not exact.*\(0, 1\)"):
            sync_rate(ref_ne)

    def test_stall_below_resolution_skips_noda(self, solve_calls):
        # a 40-state exact machine (1,560 pairs): its power bracket stalls
        # at about 7 u hi, inside the bound of 18 u hi for w = 2 and d = 1
        m = parse_machine(gen.exact_spec(40, 2, np.random.default_rng(1), "exact-40").text())
        with pytest.raises(ConvergenceError, match="resolution"):
            sync_rate(m, eps=1e-300)
        assert solve_calls == []

    def test_eps_below_resolution_ends_on_one_bracket(self):
        # eps only decides success: below a block's resolution the hand-off
        # aims at the resolution, so 1e-16 and 1e-300 take one path
        for text in dict.fromkeys(spec.text() for spec in workloads.ExactLadder().specs(1)):
            m = parse_machine(text)
            ends = []
            for eps in (1e-16, 1e-300):
                try:
                    ends.append(sync_rate(m, eps))
                except ConvergenceError as exc:
                    ends.append(exc.bracket)
            assert ends[0] == ends[1], m.name

    def test_eps_below_resolution_keeps_the_default_radius(self, exact_corpus, mixed_corpus):
        # a block that stops below resolution does not hide the one that sets
        # the radius: each eps returns the default value, or raises with a
        # bracket that holds it
        for m in exact_corpus + mixed_corpus:
            _, da = deadlock_analysis(m)
            want = rates._surviving_radius(da, RATE_EPS)
            for eps in (1e-16, 1e-300):
                try:
                    value = rates._surviving_radius(da, eps)
                except ConvergenceError as exc:
                    lo, hi = exc.bracket
                    assert lo - RATE_EPS <= want <= hi + RATE_EPS, (m.name, eps)
                else:
                    assert abs(value - want) <= RATE_EPS, (m.name, eps)

    @pytest.mark.parametrize("n", [17, 24, 32, 40])
    def test_cerny_machines_match_eigenvalues(self, n, solve_calls, step_calls):
        m = cerny_machine(n)
        T = pair_matrix(build_pair_automaton(m))
        assert sync_rate(m) == pytest.approx(dense_radius(T), abs=1e-9)
        # the one n(n-1)-pair block closes in Noda iteration, in fewer steps
        # than its budget of power windows: no stall hands it back to them
        assert solve_calls and set(solve_calls) == {n * (n - 1)}
        assert len(step_calls) < n * (n - 1)

    def test_power_phase_builds_no_dense_block(self, chain_matrix_calls):
        sync_rate(cycle_machine(40, 2, seed=1))
        assert chain_matrix_calls == []

    def test_noda_builds_one_dense_block(self, chain_matrix_calls, solve_calls, step_calls):
        sync_rate(cerny_machine(17))
        # one system per solve, each built from the 272-row block's tables:
        # no dense block is kept between solves
        assert solve_calls and chain_matrix_calls == solve_calls
        assert set(chain_matrix_calls) == {17 * 16}
        # power iteration alone would need about 600 windows here, so the
        # block hands off before its budget of 272 windows is spent
        assert len(step_calls) < 17 * 16

    def test_noda_holds_at_most_two_systems(self, solve_calls):
        # Cerny-24's one 552-pair block closes in Noda.  Its solve reads one
        # b x b system; the previous step's system is still alive while the
        # next is built, so two copies at most.  The tables, vectors and pair
        # automaton are O(b) arrays, under 0.1 copy here; a dense block kept
        # across solves would add a third copy.
        b = 24 * 23
        assert dense_copies(lambda: sync_rate(cerny_machine(24)), b) < 2.5
        assert solve_calls and set(solve_calls) == {b}

    def test_repeated_eigenvalue_radius(self):
        # exact-n4-k2-0 of the exact ladder at seed 13: its pair graph is
        # three 4-pair blocks, each a single 4-cycle on symbol a whose
        # weights are P(a|i) of the four states.  The pair matrix has each
        # fourth root of their product three times over, a root that dense
        # eigenvalue routines may split by about 1e-8.
        m = parse_machine(
            "machine exact-n4-k2-0\n"
            "states 0 1 2 3\n"
            "symbols a b\n"
            "edge 0 a 1 1.0\n"
            "edge 1 a 3 0.5489138828863571\n"
            "edge 1 b 1 0.4510861171136429\n"
            "edge 2 a 0 0.5046672049561929\n"
            "edge 2 b 1 0.4953327950438071\n"
            "edge 3 a 2 0.3068088584663175\n"
            "edge 3 b 2 0.6931911415336824\n"
            "end\n"
        )
        pa, da = deadlock_analysis(m)
        blocks = [block for block in da.scc[0] if len(block) > 1]
        assert [len(block) for block in blocks] == [4, 4, 4]
        block = blocks[0]
        inside = np.isin(pa.delta2[block], block)
        assert inside.sum() == 4
        value = math.prod(pa.weight[block][inside].tolist()) ** 0.25
        assert value == pytest.approx(0.53993850330145010119, abs=4e-16)  # mpmath, 50 digits
        for rate in (sync_rate(m), rate_report(m).escape):
            assert abs(rate - value) <= RATE_EPS / 2 + 1e-15

    def test_slow_gap_random_machine_matches_eigenvalues(self):
        m = random_machine(10, 2, density=0.9, seed=10)
        T = pair_matrix(build_pair_automaton(m))
        assert sync_rate(m) == pytest.approx(dense_radius(T), abs=1e-9)

    def test_matches_profile_decay(self, ref_ex):
        # P_pi(not synchronized after L) equals src**L at even L for this
        # machine, so the profile pins the rate with no tolerance to spare
        _, at_stationary = nonreset_profile(ref_ex, 16)
        src = sync_rate(ref_ex)
        for L in range(2, 17, 2):
            assert at_stationary[L] == pytest.approx(src**L, rel=1e-10)


class TestNsynBounds:
    def test_ex_length_two_is_tight(self, ref_ex):
        b = nsyn_bounds(ref_ex, 2)
        assert b.length == 2
        assert np.allclose(b.row_sums, [0.125, 0.125], atol=1e-15)
        assert np.allclose(b.state_totals, [0.125, 0.125], atol=1e-15)
        assert np.allclose(b.state_maxima, [0.125, 0.125], atol=1e-15)
        assert b.lower == pytest.approx(0.125, abs=1e-12)
        assert b.upper == pytest.approx(0.125, abs=1e-12)

    def test_length_zero(self, ref_ex):
        b = nsyn_bounds(ref_ex, 0)
        assert np.allclose(b.row_sums, 1.0)
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(1.0, abs=1e-12)

    def test_gm_dies_immediately(self, ref_gm):
        b = nsyn_bounds(ref_gm, 1)
        assert b.lower == 0.0
        assert b.upper == 0.0

    def test_one_state(self, ref_1):
        b = nsyn_bounds(ref_1, 3)
        assert b.row_sums.shape == (0,)
        assert b.lower == 0.0 and b.upper == 0.0

    def test_negative_length(self, ref_ex):
        with pytest.raises(InputError):
            nsyn_bounds(ref_ex, -1)
        for length in (2.5, True):
            with pytest.raises(InputError, match="length must be an integer"):
                nsyn_bounds(ref_ex, length)

    def test_row_sums_match_matrix_power(self):
        m = random_machine(4, 3, seed=11)
        T = pair_matrix(build_pair_automaton(m))
        for L in (1, 4, 7):
            expected = np.linalg.matrix_power(T, L) @ np.ones(T.shape[0])
            assert np.allclose(nsyn_bounds(m, L).row_sums, expected, atol=1e-12)

    def test_ordering_and_upper_decay(self, mixed_corpus):
        for m in mixed_corpus[:10]:
            prev_upper = None
            for L in range(6):
                b = nsyn_bounds(m, L)
                assert b.lower <= b.upper + 1e-12
                if prev_upper is not None:
                    assert b.upper <= prev_upper + 1e-12
                prev_upper = b.upper


def edge_chain_matrix(stats, pa):
    """Transition matrix of the chain on edge states: from ((p,q),x) move to
    the successor pair and pick its next symbol with the first coordinate's
    emission probability."""
    index = {e: i for i, e in enumerate(stats.edge_states)}
    E = np.zeros((len(index), len(index)))
    m = pa.machine
    for (pair, x), i in index.items():
        r = pa.pair_index(*pair)
        succ = pa.pair(int(pa.delta2[r, x]))
        for y in range(m.k):
            if (succ, y) in index:
                E[i, index[(succ, y)]] = m.probs[succ[0], y]
    return E


class TestEdgeMachineStats:
    def test_ne_component(self, ref_ne):
        pa, da = deadlock_analysis(ref_ne)
        stats = edge_machine_stats(da.components[0], pa)
        assert stats.component == ((0, 1), (1, 0))
        assert np.allclose(stats.rho, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        assert stats.edge_states == [((0, 1), 0), ((0, 1), 1), ((1, 0), 0), ((1, 0), 1)]
        expected_f = [
            math.log(0.7 / 0.4),
            math.log(0.3 / 0.6),
            math.log(0.4 / 0.7),
            math.log(0.6 / 0.3),
        ]
        assert np.allclose(stats.f_values, expected_f, atol=1e-12)
        expected_rho = [
            (2.0 / 3.0) * 0.7,
            (2.0 / 3.0) * 0.3,
            (1.0 / 3.0) * 0.4,
            (1.0 / 3.0) * 0.6,
        ]
        assert np.allclose(stats.edge_rho, expected_rho, atol=1e-12)
        assert stats.expectation == pytest.approx(E_NE, abs=1e-12)

    def test_mix_component(self, mix_machine):
        pa, da = deadlock_analysis(mix_machine)
        assert da.components == [((0, 2), (1, 2), (2, 0), (2, 1))]
        stats = edge_machine_stats(da.components[0], pa)
        assert np.allclose(stats.rho, [0.4, 0.2, 4.0 / 13.0, 6.0 / 65.0], atol=1e-12)
        assert stats.expectation == pytest.approx(E_MIX, abs=1e-12)

    def test_edge_rho_is_stationary_for_edge_chain(self, ref_ne, mix_machine):
        for m in (ref_ne, mix_machine):
            pa, da = deadlock_analysis(m)
            for comp in da.components:
                stats = edge_machine_stats(comp, pa)
                assert stats.edge_rho.sum() == pytest.approx(1.0, abs=1e-12)
                E = edge_chain_matrix(stats, pa)
                assert np.allclose(stats.edge_rho @ E, stats.edge_rho, atol=1e-10)

    def test_empty_component(self, ref_ne):
        pa, _ = deadlock_analysis(ref_ne)
        with pytest.raises(InputError):
            edge_machine_stats((), pa)

    @pytest.mark.parametrize("component", [[(0, 1)], [(0, 2)]])
    def test_component_not_closed_or_outside_machine(self, ref_ne, component):
        # (0, 1) moves to (1, 0) outside the component; state 2 does not exist
        pa, _ = deadlock_analysis(ref_ne)
        with pytest.raises(InputError):
            edge_machine_stats(component, pa)

    def test_union_of_closed_components_is_rejected(self, perm4_machine):
        # each component alone has a unique equilibrium; their union has a
        # family of them, and so no single drift
        pa, da = deadlock_analysis(perm4_machine)
        with pytest.raises(InputError, match="strongly connected"):
            edge_machine_stats(da.components[0] + da.components[1], pa)

    def test_merging_pairs_are_rejected(self, ref_ex):
        # symbol a sends both states to state 0, so it merges both pairs
        pa, _ = deadlock_analysis(ref_ex)
        with pytest.raises(InputError, match="not closed"):
            edge_machine_stats([(0, 1), (1, 0)], pa)

    def test_repeated_pair_is_rejected(self, ref_ne):
        pa, da = deadlock_analysis(ref_ne)
        with pytest.raises(InputError, match="repeats a pair"):
            edge_machine_stats(da.components[0] + da.components[0][:1], pa)

    def test_first_coordinate_moves_as_the_machine(self, nonexact_corpus):
        # in a closed component every symbol the first coordinate emits moves
        # the pair inside it, so the first coordinate is the machine's own
        # chain and its equilibrium marginal is the stationary law
        components = 0
        for m in nonexact_corpus:
            pa, da = deadlock_analysis(m)
            for comp in da.components:
                rho = edge_machine_stats(comp, pa).rho
                first = np.bincount([p for p, _ in comp], weights=rho, minlength=m.n)
                np.testing.assert_allclose(first, m.stationary.pi, rtol=0.0, atol=1e-12)
                components += 1
        assert components >= len(nonexact_corpus)

    def test_expectation_positive_on_corpus(self, nonexact_corpus):
        for m in nonexact_corpus[:40]:
            pa, da = deadlock_analysis(m)
            for comp in da.components:
                assert edge_machine_stats(comp, pa).expectation > 0.0


class TestDriftBracket:
    def test_intervals_hold_dense_drifts(self, ref_ne, mix_machine, perm4_machine, trans_machine):
        for m in (ref_ne, mix_machine, perm4_machine, trans_machine):
            pa, da = deadlock_analysis(m)
            r = rate_report(m)
            assert len(r.drift_intervals) == len(da.components)
            for comp, (lo, hi), mid in zip(da.components, r.drift_intervals, r.drifts):
                assert lo <= edge_machine_stats(comp, pa).expectation <= hi
                assert hi - lo <= 2 * rates.DRIFT_EPS
                assert mid == 0.5 * (lo + hi)
            lo = min(lo for lo, _ in r.drift_intervals)
            hi = min(hi for _, hi in r.drift_intervals)
            assert r.prc_interval == (math.exp(-hi), math.exp(-lo))
            assert r.prc_interval[0] <= r.prc <= r.prc_interval[1]

    def test_exact_machine_has_no_interval(self, ref_ex):
        r = rate_report(ref_ex)
        assert r.drift_intervals == []
        assert r.prc_interval == (0.0, 0.0)

    def test_large_component_builds_no_dense_chain(self, chain_matrix_calls, solve_calls):
        m = permutation_cycle_machine(20, seed=3)
        pa, da = deadlock_analysis(m)
        assert max(len(rows) for rows in da.component_rows) > rates.DENSE_SEED_PAIRS
        r = rate_report(m)
        assert chain_matrix_calls == [] and solve_calls == []
        for comp, (lo, hi) in zip(da.components, r.drift_intervals):
            assert lo <= edge_machine_stats(comp, pa).expectation <= hi

    def test_small_component_closes_in_one_step_after_one_solve(
        self, mix_machine, solve_calls, monkeypatch
    ):
        steps = []
        step = rates._step

        def counting(vals, cols, z):
            steps.append(z.size)
            return step(vals, cols, z)

        monkeypatch.setattr(rates, "_step", counting)
        rates._drifts(*deadlock_analysis(mix_machine))
        assert solve_calls == [4] and steps == [4]

    def test_slow_component_switches_once_to_dense_seed(self, solve_calls, monkeypatch):
        # one closed component of 30 pairs, aperiodic, 128 steps from h = 0
        m = permutation_cycle_machine(6, seed=0)
        pa, da = deadlock_analysis(m)
        (rows,) = da.component_rows
        expected = edge_machine_stats(da.components[0], pa).expectation
        solve_calls.clear()
        monkeypatch.setattr(rates, "DENSE_SEED_PAIRS", 15)  # no seed up front
        monkeypatch.setattr(rates, "DRIFT_MAX_STEPS", 150)  # 30^2 <= 3 * 2 * 150
        lo, hi = rates._drift_bracket(rows, pa, da.scc[1])
        assert solve_calls == [30] and lo <= expected <= hi
        solve_calls.clear()
        monkeypatch.setattr(rates, "DRIFT_MAX_STEPS", 100)  # 30^2 > 3 * 2 * 100: no dense seed
        with pytest.raises(ConvergenceError) as exc:
            rates._drift_bracket(rows, pa, da.scc[1])
        lo, hi = exc.value.bracket
        assert solve_calls == [] and lo <= expected <= hi

    def test_periodic_components_keep_the_lazy_chain(self, monkeypatch):
        # on a component of period d > 1 relative value iteration on P itself
        # oscillates; every component iterates from h = 0 and must close
        monkeypatch.setattr(rates, "_poisson_seed", lambda vals, cols, g, h: h)
        components = 0
        for k in (2, 3):
            for seed in range(4):
                pa, da = deadlock_analysis(block_swap_machine(k, seed))
                for comp, rows in zip(da.components, da.component_rows):
                    assert graphs.component_period(graphs.restrict(pa.delta2, rows)) % 2 == 0
                    lo, hi = rates._drift_bracket(rows, pa, da.scc[1])
                    assert lo <= edge_machine_stats(comp, pa).expectation <= hi
                    components += 1
        assert components == 22

    def test_aperiodic_component_iterates_its_own_chain(self, step_calls):
        # 992 pairs over 2 symbols, above the seed bound (992^2 > 3 * 2 *
        # DRIFT_MAX_STEPS), so it iterates from h = 0 alone: 92 steps on P,
        # 180 on the lazy chain (I + P)/2
        m = parse_machine(gen.permutation_spec(32, 2, np.random.default_rng(1), "perm-32").text())
        pa, da = deadlock_analysis(m)
        (rows,) = da.component_rows
        step_calls.clear()
        lo, hi = rates._drift_bracket(rows, pa, da.scc[1])
        assert step_calls == [992] * 92
        assert lo <= edge_machine_stats(da.components[0], pa).expectation <= hi

    def test_dense_seed_holds_one_system(self, solve_calls):
        # a 240-pair component seeds from one Poisson solve: I - P is the one
        # c x c array, built from the tables; the tables, g and h are O(c k)
        # arrays, under 0.1 copy here.  An identity subtracted from a built P
        # would add a copy.
        m = parse_machine(gen.permutation_spec(16, 2, np.random.default_rng(1), "perm-16").text())
        pa, da = deadlock_analysis(m)
        (rows,) = da.component_rows
        c = len(rows)
        assert c == 240 <= rates.DENSE_SEED_PAIRS
        solve_calls.clear()
        assert dense_copies(lambda: rates._drift_bracket(rows, pa, da.scc[1]), c) < 1.5
        assert solve_calls == [c]

    def test_rare_b_24_switches_to_dense_seed(self, solve_calls):
        # 552 pairs over 2 symbols, 552^2 <= 3 * 2 * DRIFT_MAX_STEPS; from
        # h = 0 it runs to the step cap
        m = rare_b_machine(24)
        pa, da = deadlock_analysis(m)
        ((lo, hi),) = rate_report(m).drift_intervals
        assert solve_calls == [552]
        assert lo <= edge_machine_stats(da.components[0], pa).expectation <= hi

    def test_step_cap_raises_with_certified_bracket(self, mix_machine, monkeypatch):
        monkeypatch.setattr(rates, "DENSE_SEED_PAIRS", 0)
        monkeypatch.setattr(rates, "DRIFT_MAX_STEPS", 2)
        with pytest.raises(ConvergenceError) as exc:
            rate_report(mix_machine)
        lo, hi = exc.value.bracket
        assert hi - lo > rates.DRIFT_EPS
        pa, da = deadlock_analysis(mix_machine)
        assert lo <= edge_machine_stats(da.components[0], pa).expectation <= hi


class TestPredictionRate:
    def test_ne(self, ref_ne):
        assert prediction_rate(ref_ne) == pytest.approx(PRC_NE, abs=1e-12)

    def test_mix(self, mix_machine):
        assert prediction_rate(mix_machine) == pytest.approx(PRC_MIX, abs=1e-12)

    def test_perm4_smallest_drift_wins(self, perm4_machine):
        pa, da = deadlock_analysis(perm4_machine)
        assert len(da.components) == 3
        drifts = sorted(edge_machine_stats(c, pa).expectation for c in da.components)
        assert np.allclose(drifts, PERM4_DRIFTS, atol=1e-12)
        assert prediction_rate(perm4_machine) == pytest.approx(PRC_PERM4, abs=1e-12)
        assert prediction_rate(perm4_machine) == pytest.approx(
            math.exp(-drifts[0]), abs=1e-15
        )

    def test_exact_machines_are_zero(self, ref_ex, ref_gm, ref_1):
        assert prediction_rate(ref_ex) == 0.0
        assert prediction_rate(ref_gm) == 0.0
        assert prediction_rate(ref_1) == 0.0


class TestEscapeRate:
    def test_ne_has_nothing_outside_components(self, ref_ne):
        assert escape_rate(ref_ne) == 0.0

    def test_exact_machine_equals_sync_rate(self, ref_ex):
        assert escape_rate(ref_ex) == pytest.approx(sync_rate(ref_ex), abs=1e-12)

    def test_mix(self, mix_machine):
        assert escape_rate(mix_machine) == pytest.approx(ESCAPE_MIX, abs=1e-9)

    def test_transient_deadlock_pairs_count_as_surviving(self, trans_machine):
        pa, da = deadlock_analysis(trans_machine)
        assert len(da.deadlock) == 8
        assert da.components == [((0, 1), (1, 0), (2, 3), (3, 2))]
        stats = edge_machine_stats(da.components[0], pa)
        assert stats.expectation == pytest.approx(E_TRANS, abs=1e-12)
        assert escape_rate(trans_machine) == pytest.approx(ESCAPE_TRANS, abs=1e-9)

    def test_one_state(self, ref_1):
        assert escape_rate(ref_1) == 0.0

    def test_same_accuracy_as_rate_report(
        self, ref_ex, ref_ne, ref_gm, ref_1, mix_machine, trans_machine, mixed_corpus
    ):
        machines = [ref_ex, ref_ne, ref_gm, ref_1, mix_machine, trans_machine]
        machines += [
            random_machine(n, 3, density=0.8, seed=s) for n in (5, 8, 12) for s in range(5)
        ]
        for m in machines + mixed_corpus[:20]:
            assert escape_rate(m) == rate_report(m).escape

    def test_full_pair_matrix_radius_is_one_when_components_exist(
        self, ref_ne, mix_machine
    ):
        for m in (ref_ne, mix_machine):
            T = pair_matrix(build_pair_automaton(m))
            assert spectral_radius(T) == pytest.approx(1.0, abs=1e-9)


class TestRateReport:
    def test_ne(self, ref_ne):
        r = rate_report(ref_ne)
        assert r.classification == "non-exact"
        assert r.src is None
        assert r.prc == pytest.approx(PRC_NE, abs=1e-12)
        assert r.escape == 0.0
        assert len(r.drifts) == 1
        assert r.drifts[0] == pytest.approx(E_NE, abs=1e-12)

    def test_ex(self, ref_ex):
        r = rate_report(ref_ex)
        assert r.classification == "exact"
        assert r.src == pytest.approx(SRC_EX, abs=1e-9)
        assert r.prc == 0.0
        assert r.escape == pytest.approx(r.src, abs=1e-12)
        assert r.drifts == []

    def test_exact_machines_reuse_src_as_escape(self, ref_ex, ref_gm, ref_1):
        for m in (ref_ex, ref_gm, ref_1):
            r = rate_report(m)
            assert r.escape == r.src

    def test_relabeling_invariance(self, mix_machine):
        named = [
            (mix_machine.states[s], mix_machine.symbols[x], mix_machine.states[t], p)
            for s, x, t, p in mix_machine.edges()
        ]
        relabeled = EpsilonMachine(
            ["2", "0", "1"], ["b", "a"], named, name="M_MIX_relabeled"
        )
        r0 = rate_report(mix_machine)
        r1 = rate_report(relabeled)
        assert r1.classification == r0.classification
        assert r1.prc == pytest.approx(r0.prc, abs=1e-12)
        assert r1.escape == pytest.approx(r0.escape, abs=1e-9)
        assert np.allclose(sorted(r1.drifts), sorted(r0.drifts), atol=1e-12)

    def test_classification_matches_radius(self, mixed_corpus):
        for m in mixed_corpus[:15]:
            T = pair_matrix(build_pair_automaton(m))
            rho = spectral_radius(T, eps=1e-9) if T.size else 0.0
            if classify(m) == "non-exact":
                assert abs(rho - 1.0) <= 1e-6
            else:
                assert rho < 1.0 - 1e-6
