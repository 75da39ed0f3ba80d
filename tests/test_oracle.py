"""Verification routes: belief tracking, exhaustive word enumeration,
aggregated word actions, reset threshold, and Monte Carlo simulation."""

import ast
import hashlib
import itertools
import math
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

import emsync
from emsync import (
    EpsilonMachine,
    ImpossibleWordError,
    InputError,
    ResourceError,
    belief,
    exact_word_stats,
    nonreset_profile,
    parse_machine,
    random_machine,
    reset_threshold,
    simulate_beliefs,
    stationary_distribution,
)
from perfbench import workloads

E_NE = 0.186538595978474

# sha256 of simulation_digest's arrays, pinned so that a change to the draws
# or to the belief read-out shows; machines/*.em by name, then
# random_machine(5, 3, density=0.5, seed=s) as random-s
SIMULATION_SHA256 = {
    "M_1": "ff6698a6e831ffcf47af2fed388ffc262f319e72b26cd140929d1e19b1246ad4",
    "M_EX": "bb704b9b9dfce75a0980102c9ab2dff5b608f5d9d21bef752e316e49ffe3146b",
    "M_GM": "bb704b9b9dfce75a0980102c9ab2dff5b608f5d9d21bef752e316e49ffe3146b",
    "M_NE": "5666da7c1e89ecea21d5dd728c5972eb91a0c7c345c6845160678dde1e00f2ce",
    "random-0": "21d4940f1f1f7f1dfa80d8a2f6e6812fb72e062029ea97cce2661fc95e7a4a51",
    "random-1": "f54438b6f94dac0aabdef9c903449b897015219b03763e4efbe4047c1521a238",
    "random-2": "3e9a4fe30f7614797942c79d96428bec1cd8233c5defa084b7ee17c3ad0544f3",
    "random-3": "09612cde698e852f1dc48b419efb4092688ab32d64e508bc7de76e80698e8304",
    "random-4": "5934fc83389ead5c67d05cafc99dd25a4a82c954901313bff01511f0a1b96865",
    "random-5": "2304bfa27d8a8282559f6cf7287914c2cb9d40208e2f85b799711ff63b88c71f",
    "random-6": "e17e0e65ebbd614a7fe3b42b714ea64e666f4e2d5fa95d23c7b644b7f7030b7f",
    "random-7": "60c75287aec4ef04fcd80b2a14701925311fdd92234e245d6c0fe92311e8a2a6",
    "random-8": "757a35e63fcba90f6974b6c09868b7181699b9a363369aa8e1271a220a47c535",
    "random-9": "c3df8a65ec6633a8877457fb6619068ba96744d8c5ba1fa7c65e547af27de3a9",
}
# sha256 of edge_digest, pinned so that a draw block that ends one step off
# shows: the oracle-check machines at seed 1 (3 to 8 states, 2 to 4
# symbols) and M_1, at lengths around the state count with a checkpoint at
# every step
SIMULATION_EDGE_SHA256 = "1a7d25438cd19d893b865f43facc3ec6c14a0f54a9660b6365a9b3edda8ff886"


# sha256 of enumeration_digest (WordStats fields and records at several
# lengths) and of profile_digest (both nonreset_profile arrays), pinned so
# that a change to the level walk or to the action dedupe shows; same
# machines as SIMULATION_SHA256
ENUMERATION_SHA256 = {
    "M_1": "59650641da42a14261b5991d06bf0e347fc7ad5459c77280a6010c547fc33235",
    "M_EX": "45996b3ce5567f197c9a35c29fc664196185182824deeac76dfc8adce88c824d",
    "M_GM": "96c203b0f8f0ed40ed55c927f0f8510ec796ebe0e7b3dc40f5bcc81a177cae03",
    "M_NE": "7a1fdaf82de65869c5dc6684d96ca1d562c549943a2da15c139685caa5e706db",
    "random-0": "b47f644990ce0d1505fce6fd349d1e5dfbc2b5fa6ab8bd2000f54b593130a8b1",
    "random-1": "db2ea83ced0c197025072313f6b3bfcc757b36e4af6ba8c2e7042cf00ed240e6",
    "random-2": "97bc10306ba27427b4d28a64ad8dec4ec92ee72b4b14a1b7aee6642ea42539be",
    "random-3": "d6babc7e0bd86fc46aec6fe3a3e9a2350294c6147bd9e6a9f809a3676cf6c907",
    "random-4": "d4402ab84f8864d26f5d6b5a488cf3a8e815458de89a4f45ee403fda1e6e98f0",
    "random-5": "cb178678b74301ecf07f9ffb579fa3ea8881bcf8ebd35f752f66250ebfed5637",
    "random-6": "6fe9a1ae273d841bab74f60c2a10a9bdd2d98b15464a5c3a206c21348eb7d7ac",
    "random-7": "351965791eacfca8ac0399e1c1fc332b8e6f2e429b0b46d7ba6e2097ecfb26f3",
    "random-8": "b267a0e0db1aa32b91dc3deda46903be3a6fc117674efdbff4352d5c6c691107",
    "random-9": "30821f6052043bf1a0c02fe6d604fbee3252d8d9349e7651150fbeacec19e714",
}
PROFILE_SHA256 = {
    "M_1": "86d2cf5b090f43ee54d8f7c1dcf746a853951191457ff6dac96269a9d24860b9",
    "M_EX": "28ee86d12ff65b009ca26f4772f7efcc8dbac6972ba2058ea1c08befeff1c36e",
    "M_GM": "0be38f059009dda525b44176aaa0a516adf09924b2dcd9660a5ebbbc1070b9a6",
    "M_NE": "888a426f321b6a387f0b15e4d7feaa182e7f69fcadabb5fa9fb47e1023853cfa",
    "random-0": "e30eaee11ff1fa3eb6eb8ea0f4ba2ebe061071d544dc8fb3fce31254db8baaa7",
    "random-1": "d1ada815438a798340e34ae4fdbf135629072a1dd8368c02ae5a23aa15d44c00",
    "random-2": "e33cc70d73e8a4c927dd30cd7afb365f5b7d139376c81cd65e05d9d0ce97d629",
    "random-3": "436275ffbe86db8e9f8a59b660780f20abc2c011f1bba1a6861c809db80bb7f0",
    "random-4": "1919df02179977b7de939567b70dd279f3a409e9cb05ef0fe1d8fa6d18715753",
    "random-5": "467fd788f97c4bf3f7e7d5505c400144d5d9750c6b1e0d8c63f81e5f00650f55",
    "random-6": "e7432c658e7a94c16740afbf0e18e51b2304912cfcf0a2ac8014fd2674f7cb03",
    "random-7": "5d2e79ec65c516de60756624d1673aae273d70fffad40b97e2b135fe6a50e873",
    "random-8": "c457a8209e6cb3bc8ba6eba5f83e147676d4fcfae1cd9534f4c1c83e021b4788",
    "random-9": "3398d312ae5a49e83dd3be222ac42b2b9e2a5fe9353a9dcfb8f60a7bb156df08",
}


def simulation_digest(m):
    sim = simulate_beliefs(m, 60, 300, seed=0, record_at=[0, 10, 30])
    digest = hashlib.sha256()
    for a in (sim.starts, sim.q_values, sim.y_values, *(sim.q_at[t] for t in sorted(sim.q_at))):
        digest.update(a.tobytes())
    return digest.hexdigest()


def edge_digest(machines):
    digest = hashlib.sha256()
    for m, seed in machines:
        for length in (m.n - 1, m.n, m.n + 1, 2 * m.n + 3):
            sim = simulate_beliefs(m, length, 7, seed, record_at=range(length + 1))
            digest.update(sim.starts.tobytes() + sim.q_values.tobytes() + sim.y_values.tobytes())
            for t in range(length + 1):
                digest.update(sim.q_at[t].tobytes())
    return digest.hexdigest()


def pinned_machines(machine_dir):
    machines = [parse_machine(p.read_text(encoding="utf-8")) for p in machine_dir.glob("*.em")]
    return machines + [random_machine(5, 3, density=0.5, seed=s) for s in range(10)]


def enumeration_digest(m):
    digest = hashlib.sha256()
    for length in (0, 1, 2, 4, 6):
        stats = exact_word_stats(m, length, keep_words=True)
        fields = (stats.word_count, stats.nsyn, stats.mean_q, stats.root_mean, stats.inv_root_mean)
        records = [(r.word, r.q_l, r.f_state, r.s_state, r.ratio) for r in stats.records]
        # repr of a float round-trips, so it pins every bit
        digest.update(repr((fields, records)).encode())
    return digest.hexdigest()


def profile_digest(m):
    by_state, at_stationary = nonreset_profile(m, 10)
    return hashlib.sha256(by_state.tobytes() + at_stationary.tobytes()).hexdigest()


def cerny_machine():
    """Four-state machine with a cyclic symbol and a one-state nudge; its
    shortest reset word has the extremal length 9."""
    p_a = [0.5, 0.6, 0.7, 0.8]
    b_map = [1, 1, 2, 3]
    edges = []
    for i in range(4):
        edges.append((str(i), "a", str((i + 1) % 4), p_a[i]))
        edges.append((str(i), "b", str(b_map[i]), 1.0 - p_a[i]))
    return EpsilonMachine([str(i) for i in range(4)], ["a", "b"], edges, name="cerny4")


def test_oracle_does_not_import_rates():
    # the oracles certify the rates module only while they share none of
    # its code
    source = pathlib.Path(emsync.__file__).with_name("oracle.py").read_text(encoding="utf-8")
    imports = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imports += [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            imports += [module + [alias.name] for alias in node.names]
    assert imports and not [path for path in imports if "rates" in path]


class TestBelief:
    def test_ne_single_symbol(self, ref_ne):
        pi = stationary_distribution(ref_ne).pi
        b = belief(ref_ne, pi, "a")
        assert np.allclose(b.phi, [7.0 / 9.0, 2.0 / 9.0], atol=1e-12)
        assert b.top_state == 0
        assert b.q_l == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_ne_tie_breaks_to_lowest_index(self, ref_ne):
        pi = stationary_distribution(ref_ne).pi
        b = belief(ref_ne, pi, "b")
        assert np.allclose(b.phi, [0.5, 0.5], atol=1e-12)
        assert b.top_state == 0
        assert b.q_l == pytest.approx(0.5, abs=1e-12)

    def test_ex_merging_symbol_resets(self, ref_ex):
        pi = stationary_distribution(ref_ex).pi
        b = belief(ref_ex, pi, "a")
        assert np.allclose(b.phi, [1.0, 0.0], atol=1e-15)
        assert b.q_l == 0.0

    def test_empty_word_returns_start(self, ref_ne):
        b = belief(ref_ne, [0.25, 0.75], "")
        assert np.allclose(b.phi, [0.25, 0.75], atol=1e-15)
        assert b.top_state == 1
        assert b.q_l == pytest.approx(0.25, abs=1e-15)

    def test_impossible_word(self, ref_gm):
        with pytest.raises(ImpossibleWordError, match="'b'"):
            belief(ref_gm, [0.0, 1.0], "b")

    @pytest.mark.parametrize(
        "pi0", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0], [0.5, math.nan]]
    )
    def test_non_finite_start_law(self, ref_ne, pi0):
        # NaN fails both guard comparisons, so it needs a check of its own
        with pytest.raises(InputError, match="probability vector"):
            belief(ref_ne, pi0, "")

    def test_composition(self):
        m = random_machine(4, 3, seed=23)
        pi = stationary_distribution(m).pi
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = [m.symbols[rng.integers(m.k)] for _ in range(rng.integers(1, 4))]
            v = [m.symbols[rng.integers(m.k)] for _ in range(rng.integers(1, 4))]
            try:
                direct = belief(m, pi, u + v)
            except ImpossibleWordError:
                continue
            staged = belief(m, belief(m, pi, u).phi, v)
            assert np.allclose(direct.phi, staged.phi, atol=1e-12)

    def test_input_validation(self, ref_ne):
        with pytest.raises(InputError):
            belief(ref_ne, [0.5, 0.25, 0.25], "a")
        with pytest.raises(InputError):
            belief(ref_ne, [0.8, 0.1], "a")
        with pytest.raises(InputError):
            belief(ref_ne, [-0.2, 1.2], "a")
        with pytest.raises(InputError):
            belief(ref_ne, [0.5, 0.5], "z")

    def test_phi_is_readonly(self, ref_ne):
        b = belief(ref_ne, [0.5, 0.5], "a")
        with pytest.raises(ValueError):
            b.phi[0] = 0.0


class TestExactWordStats:
    def test_ex_length_two(self, ref_ex):
        stats = exact_word_stats(ref_ex, 2, keep_words=True)
        assert stats.length == 2
        assert stats.word_count == 4
        assert stats.nsyn == pytest.approx(0.125, abs=1e-15)
        assert stats.mean_q == pytest.approx(0.125 / 3.0, abs=1e-15)
        assert stats.root_mean == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
        assert stats.inv_root_mean == pytest.approx(math.sqrt(3.0), abs=1e-12)
        by_word = {rec.word: rec for rec in stats.records}
        assert set(by_word) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        bb = by_word[(1, 1)]
        assert bb.q_l == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert bb.f_state == 0  # equal word probability, lowest index wins
        assert bb.s_state == 1
        assert bb.ratio == pytest.approx(1.0, abs=1e-15)
        aa = by_word[(0, 0)]
        assert aa.q_l == 0.0
        assert aa.f_state == 1  # state 1 gives the word higher probability
        assert aa.s_state is None and aa.ratio is None

    def test_records_in_word_order(self, ref_ex):
        stats = exact_word_stats(ref_ex, 3, keep_words=True)
        words = [rec.word for rec in stats.records]
        assert words == sorted(words)

    def test_ne_length_one_records(self, ref_ne):
        stats = exact_word_stats(ref_ne, 1, keep_words=True)
        assert stats.nsyn == pytest.approx(1.0, abs=1e-15)
        assert stats.mean_q == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert stats.root_mean == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert stats.inv_root_mean == pytest.approx(3.5, abs=1e-12)
        rec_a, rec_b = stats.records
        assert rec_a.word == (0,)
        assert rec_a.q_l == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert rec_a.f_state == 0
        assert rec_a.s_state == 1
        assert rec_a.ratio == pytest.approx(4.0 / 7.0, abs=1e-12)
        assert rec_b.word == (1,)
        assert rec_b.q_l == pytest.approx(0.5, abs=1e-12)
        assert rec_b.f_state == 1
        assert rec_b.s_state == 0
        assert rec_b.ratio == pytest.approx(0.5, abs=1e-12)

    def test_gm_synchronizes_after_one_symbol(self, ref_gm):
        stats = exact_word_stats(ref_gm, 1)
        assert stats.word_count == 2
        assert stats.nsyn == 0.0
        assert stats.root_mean is None and stats.inv_root_mean is None

    def test_length_zero(self, ref_ne, ref_1):
        stats = exact_word_stats(ref_ne, 0)
        assert stats.word_count == 1
        assert stats.nsyn == pytest.approx(1.0, abs=1e-15)
        assert stats.mean_q == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert stats.root_mean is None
        assert exact_word_stats(ref_1, 0).nsyn == 0.0

    def test_budget_refusal_names_needed_budget(self, ref_ex):
        with pytest.raises(ResourceError, match="32212254720"):
            exact_word_stats(ref_ex, 30)

    def test_refusal_writes_unprintable_budget_as_power(self, ref_ne):
        # 16000 * 2**16000 path steps: a number of 4,821 digits, more than
        # Python converts to a string
        with pytest.raises(ResourceError, match=r"of 16000 \* 2\^16000 path steps, exceeding 10000000$"):
            exact_word_stats(ref_ne, 16_000)

    def test_refusal_does_not_form_the_power(self, trans_machine):
        # 3**(10**7) alone would take seconds to form
        assert trans_machine.k == 3
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="budget"):
            exact_word_stats(trans_machine, 10**7)
        assert time.perf_counter() - start < 0.1

    def test_negative_length(self, ref_ex):
        with pytest.raises(InputError):
            exact_word_stats(ref_ex, -2)
        for length in (2.5, True):
            with pytest.raises(InputError, match="length must be an integer"):
                exact_word_stats(ref_ex, length)

    def test_negative_budget(self, ref_ex):
        # a length-0 enumeration needs 0 steps, so only the sign can refuse it
        with pytest.raises(InputError, match="budget"):
            exact_word_stats(ref_ex, 0, budget=-5)
        # read as an integer, like the lengths: not truncated, not a TypeError
        for budget in (None, 2.5, True):
            with pytest.raises(InputError, match="budget must be an integer"):
                exact_word_stats(ref_ex, 0, budget=budget)

    def test_records_none_by_default(self, ref_ex):
        assert exact_word_stats(ref_ex, 2).records is None

    def test_belief_sandwich(self, ref_ne, mixed_corpus):
        # Q_L(w) is squeezed between c1 * ratio and c2 * ratio where ratio
        # compares the strongest start state f against the strongest one
        # with a different endpoint.  The lower constant is pi_min.  The
        # upper constant is (1 - pi_min)/pi_min: every start state whose
        # endpoint differs from f's is at most as likely as that runner-up,
        # and their prior mass is at most 1 - pi(f).  For n = 2 it equals
        # pi_max/pi_min.  Acceptance criterion 5 states the same bound.
        for m in [ref_ne] + mixed_corpus[:12]:
            pi = stationary_distribution(m)
            c1 = pi.pi_min
            c2 = (1.0 - pi.pi_min) / pi.pi_min
            for L in range(1, 7):
                stats = exact_word_stats(m, L, keep_words=True)
                for rec in stats.records:
                    if rec.q_l <= 0.0:
                        continue
                    assert rec.q_l >= c1 * rec.ratio - 1e-9
                    assert rec.q_l <= c2 * rec.ratio + 1e-9

    def test_conditional_means_against_brute_force(self, ref_ne):
        # independent reference: walk every word with the belief tracker
        L = 3
        pi = stationary_distribution(ref_ne).pi
        total = wsum = winv = 0.0
        for word in itertools.product(range(ref_ne.k), repeat=L):
            p = 0.0
            for s in range(ref_ne.n):
                lp = 0.0
                state, dead = s, False
                for j in word:
                    t = ref_ne.step(state, j)
                    if t is None:
                        dead = True
                        break
                    lp += math.log(ref_ne.probs[state, j])
                    state = t
                if not dead:
                    p += pi[s] * math.exp(lp)
            if p == 0.0:
                continue
            q = belief(ref_ne, pi, [ref_ne.symbols[j] for j in word]).q_l
            if q > 0.0:
                total += p
                wsum += p * q ** (1.0 / L)
                winv += p * q ** (-1.0 / L)
        stats = exact_word_stats(ref_ne, L)
        assert stats.nsyn == pytest.approx(total, abs=1e-12)
        assert stats.root_mean == pytest.approx(wsum / total, abs=1e-12)
        assert stats.inv_root_mean == pytest.approx(winv / total, abs=1e-12)

    def test_pinned_hashes(self, machine_dir):
        machines = pinned_machines(machine_dir)
        assert {m.name: enumeration_digest(m) for m in machines} == ENUMERATION_SHA256


class TestNonresetProfile:
    def test_ex_profile(self, ref_ex):
        by_state, at_stationary = nonreset_profile(ref_ex, 4)
        assert np.allclose(by_state[0], [1.0, 1.0], atol=1e-15)
        assert np.allclose(by_state[1], [0.5, 0.25], atol=1e-15)
        assert np.allclose(by_state[2], [0.125, 0.125], atol=1e-15)
        pi = stationary_distribution(ref_ex).pi
        assert np.allclose(at_stationary, by_state @ pi, atol=1e-15)

    def test_one_state_never_unsynchronized(self, ref_1):
        by_state, at_stationary = nonreset_profile(ref_1, 3)
        assert not by_state.any()
        assert not at_stationary.any()

    def test_agrees_with_enumeration(self, ref_ex, ref_gm, ref_ne, mixed_corpus):
        cases = [(ref_ex, 6), (ref_gm, 3), (ref_ne, 4)]
        cases += [(m, 5) for m in mixed_corpus[:8]]
        for m, L in cases:
            _, at_stationary = nonreset_profile(m, L)
            for ell in range(L + 1):
                expected = exact_word_stats(m, ell).nsyn
                assert at_stationary[ell] == pytest.approx(expected, abs=1e-12)

    def test_budget_refusal(self, ref_ex):
        with pytest.raises(ResourceError):
            nonreset_profile(ref_ex, 2, budget=1)

    def test_negative_length(self, ref_ex):
        with pytest.raises(InputError):
            nonreset_profile(ref_ex, -1)
        for length in (2.5, True):
            with pytest.raises(InputError, match="max_length must be an integer"):
                nonreset_profile(ref_ex, length)

    def test_negative_budget(self, ref_ex):
        with pytest.raises(InputError, match="budget"):
            nonreset_profile(ref_ex, 0, budget=-1)
        for budget in (None, 2.5, True):
            with pytest.raises(InputError, match="budget must be an integer"):
                nonreset_profile(ref_ex, 0, budget=budget)

    def test_pinned_hashes(self, machine_dir):
        machines = pinned_machines(machine_dir)
        assert {m.name: profile_digest(m) for m in machines} == PROFILE_SHA256


class TestResetThreshold:
    def test_references(self, ref_ex, ref_gm, ref_ne, ref_1):
        assert reset_threshold(ref_ex) == 1
        assert reset_threshold(ref_gm) == 1
        assert reset_threshold(ref_ne) is None
        assert reset_threshold(ref_1) == 0

    def test_cerny_extremal_length(self):
        assert reset_threshold(cerny_machine()) == 9

    def test_cap_semantics(self, ref_ne):
        m = cerny_machine()
        with pytest.raises(ResourceError, match="cap of 5"):
            reset_threshold(m, cap=5)
        assert reset_threshold(m, cap=9) == 9
        # exhaustion certifies None even under a cap
        assert reset_threshold(ref_ne, cap=50) is None

    def test_negative_cap(self, ref_1, ref_ex):
        # checked before the one-state shortcut, which needs no search
        with pytest.raises(InputError, match="cap"):
            reset_threshold(ref_1, cap=-1)
        # a fractional cap is refused, not compared with the search length
        for cap in (0.5, True):
            with pytest.raises(InputError, match="cap must be an integer"):
                reset_threshold(ref_ex, cap=cap)

    def test_matches_profile_support(self, mixed_corpus):
        # the threshold is the first length with a reset word; before it
        # every state stays unsynchronized with probability 1 from the
        # full-support start
        for m in mixed_corpus[:6]:
            t = reset_threshold(m)
            by_state, _ = nonreset_profile(m, 6)
            for L in range(7):
                some_reset_word = by_state[L].min() < 1.0 - 1e-12
                if t is None or L < t:
                    assert not some_reset_word or m.n == 1
                else:
                    assert some_reset_word


class TestSimulateBeliefs:
    def test_deterministic_given_seed(self, ref_ne):
        a = simulate_beliefs(ref_ne, 12, 64, seed=5)
        b = simulate_beliefs(ref_ne, 12, 64, seed=5)
        assert np.array_equal(a.starts, b.starts)
        assert np.array_equal(a.q_values, b.q_values)
        assert np.array_equal(a.y_values, b.y_values)
        c = simulate_beliefs(ref_ne, 12, 64, seed=6)
        assert not np.array_equal(a.q_values, c.q_values)

    def test_mean_uncertainty_matches_enumeration(self, ref_ne):
        L, runs = 6, 20000
        sim = simulate_beliefs(ref_ne, L, runs, seed=11)
        exact = exact_word_stats(ref_ne, L)
        se = sim.q_values.std() / math.sqrt(runs)
        assert abs(sim.q_values.mean() - exact.mean_q) <= 3.0 * se

    def test_reset_fraction_matches_profile(self, ref_ex):
        L, runs = 4, 4000
        sim = simulate_beliefs(ref_ex, L, runs, seed=3)
        _, at_stationary = nonreset_profile(ref_ex, L)
        p = at_stationary[L]
        frac = float((sim.q_values > 0.0).mean())
        se = math.sqrt(p * (1.0 - p) / runs)
        assert abs(frac - p) <= 3.0 * se
        # synchronized runs carry an exact zero, not float dust
        assert (sim.q_values[sim.q_values <= 1e-300] == 0.0).all()

    def test_checkpoints(self, ref_ne):
        sim = simulate_beliefs(ref_ne, 10, 32, seed=1, record_at=[0, 5, 10])
        assert sorted(sim.q_at) == [0, 5, 10]
        for arr in sim.q_at.values():
            assert arr.shape == (32,)
        assert np.array_equal(sim.q_at[10], sim.q_values)
        # an array of steps is read as a sequence, not as a truth value
        sim = simulate_beliefs(ref_ne, 5, 4, seed=1, record_at=np.array([3, 2]))
        assert sorted(sim.q_at) == [2, 3]

    def test_posterior_matches_belief_reference(self, ref_ne, mixed_corpus):
        # every simulated uncertainty is the per-symbol Bayes value of some
        # positive-probability word; exact zeros only where reset words exist
        L = 6
        for m in (ref_ne, mixed_corpus[1], mixed_corpus[7]):
            pi = stationary_distribution(m).pi
            nonreset_q, any_reset = [], False
            for word in itertools.product(range(m.k), repeat=L):
                image = set(range(m.n))
                for j in word:
                    image = {int(m.delta[s, j]) for s in image if m.delta[s, j] >= 0}
                if not image:
                    continue
                q_l = belief(m, pi, [m.symbols[j] for j in word]).q_l
                if len(image) == 1:
                    assert q_l == 0.0
                    any_reset = True
                else:
                    nonreset_q.append(q_l)
            reference = np.sort(nonreset_q)
            q = simulate_beliefs(m, L, 2000, seed=17).q_values
            if not any_reset:
                assert (q > 0.0).all()
            positive = q[q > 0.0]
            assert positive.size > 0
            at = np.clip(np.searchsorted(reference, positive), 1, reference.size - 1)
            nearest = np.minimum(
                np.abs(reference[at] - positive), np.abs(reference[at - 1] - positive)
            )
            assert (nearest <= 1e-12 * positive).all()

    def test_y_values_empty_for_exact_machines(self, ref_ex, ref_ne):
        assert simulate_beliefs(ref_ex, 8, 16, seed=2).y_values.size == 0
        assert simulate_beliefs(ref_ne, 0, 16, seed=2).y_values.size == 0

    def test_y_values_concentrate_on_drift(self, ref_ne):
        sim = simulate_beliefs(ref_ne, 200, 500, seed=9)
        assert sim.y_values.shape == (500,)
        assert abs(sim.y_values.mean() - E_NE) <= 0.01

    def test_pinned_hashes(self, machine_dir):
        machines = [parse_machine(p.read_text(encoding="utf-8")) for p in machine_dir.glob("*.em")]
        machines += [random_machine(5, 3, density=0.5, seed=s) for s in range(10)]
        assert {m.name: simulation_digest(m) for m in machines} == SIMULATION_SHA256

    def test_pinned_hash_at_block_edges(self, ref_1):
        check = workloads.OracleCheck()
        check.setup(emsync, 1, None)
        machines = [(m, seed) for _, m, seed in check.inputs] + [(ref_1, 0)]
        assert edge_digest(machines) == SIMULATION_EDGE_SHA256

    def test_draws_at_the_top_of_the_unit_interval(self, monkeypatch):
        # the stationary law sums to 1 - 2^-52 and state 2's row to 1 - 1e-13,
        # so a draw of nextafter(1, 0) passes every one of their cumulative
        # sums; symbol c is defined nowhere, so drawing it would leave the
        # word impossible
        m = EpsilonMachine(
            ["0", "1", "2"],
            ["a", "b", "c"],
            [
                ("0", "a", "1", 0.25),
                ("0", "b", "2", 0.75),
                ("1", "a", "2", 0.4),
                ("1", "b", "0", 0.6),
                ("2", "a", "0", 0.5),
                ("2", "b", "1", 0.4999999999999),
            ],
        )
        pi = stationary_distribution(m).pi
        assert np.cumsum(pi)[-1] < np.nextafter(1.0, 0.0)

        class TopDraws:
            def __init__(self, seed):
                pass

            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        monkeypatch.setattr(np.random, "default_rng", TopDraws)
        sim = simulate_beliefs(m, 9, 4, seed=0, record_at=range(10))
        assert (sim.starts < m.n).all()
        # each draw is the last live symbol of the true state: b, whose
        # moves cycle 2 -> 1 -> 0 -> 2
        for t, q in sim.q_at.items():
            assert q == pytest.approx(belief(m, pi, "b" * t).q_l, rel=1e-9, abs=0.0)

    def test_memory_does_not_grow_with_length(self, ref_ne):
        # draws in blocks of at most n steps keep the working set at
        # O(runs·n); a block of all 20,000 × 500 draws would take 78 MB on
        # its own
        tracemalloc.start()
        try:
            simulate_beliefs(ref_ne, 20_000, 500, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_starts_follow_state_indices(self, ref_ne):
        sim = simulate_beliefs(ref_ne, 3, 100, seed=4)
        assert sim.starts.min() >= 0 and sim.starts.max() < ref_ne.n

    def test_input_validation(self, ref_ne):
        with pytest.raises(InputError):
            simulate_beliefs(ref_ne, 5, 0, seed=1)
        with pytest.raises(InputError):
            simulate_beliefs(ref_ne, -1, 10, seed=1)
        for length in (2.5, True):
            with pytest.raises(InputError, match="length must be an integer"):
                simulate_beliefs(ref_ne, length, 10, seed=1)
        with pytest.raises(InputError):
            simulate_beliefs(ref_ne, 5, 10, seed=1, record_at=[7])
        # a checkpoint that is no step would be left out of q_at
        with pytest.raises(InputError, match="checkpoint"):
            simulate_beliefs(ref_ne, 10, 5, seed=0, record_at=[2.5, 3])
        with pytest.raises(InputError, match="checkpoint must be an integer"):
            simulate_beliefs(ref_ne, 10, 5, seed=0, record_at=[True])
        with pytest.raises(InputError, match="checkpoint"):
            simulate_beliefs(ref_ne, 10, 5, seed=0, record_at=5)
        with pytest.raises(InputError, match="seed"):
            simulate_beliefs(ref_ne, 3, 10, seed=-1)
        # read with operator.index: a float is refused, not truncated, and a bool too
        for runs in (2.5, True):
            with pytest.raises(InputError, match="runs must be an integer"):
                simulate_beliefs(ref_ne, 10, runs, seed=0)
        with pytest.raises(InputError, match="runs must be at least 1"):
            simulate_beliefs(ref_ne, 10, -3, seed=0)
        for seed in (1.5, True):
            with pytest.raises(InputError, match="seed must be an integer"):
                simulate_beliefs(ref_ne, 10, 5, seed=seed)
