import gc
import itertools
import math
import pathlib
import weakref
from fractions import Fraction

import numpy as np
import pytest

from emsync import (
    DuplicateEdgeError,
    EdgeProbabilityError,
    EpsilonMachine,
    EquivalentStatesError,
    GenerationError,
    InputError,
    MachineSyntaxError,
    NotStronglyConnectedError,
    NumericalError,
    RowSumError,
    UnknownNameError,
    check_equivalence,
    classify,
    deadlock_analysis,
    exact_word_stats,
    nonreset_profile,
    nsyn_bounds,
    pair_matrix,
    parse_machine,
    random_machine,
    rate_report,
    render_machine,
    reset_threshold,
    simulate_beliefs,
    stationary_distribution,
    word_probability,
)
from emsync import machine as machine_module
from emsync.machine import _default_symbols, solve_stationary
from perfbench import corpus

M_EX_TEXT = (pathlib.Path(__file__).resolve().parents[1] / "machines" / "M_EX.em").read_text(
    encoding="utf-8"
)


def symmetric_machine():
    # two states swapped by the single symbol, identical probabilities
    return EpsilonMachine(
        ["0", "1"],
        ["a", "b"],
        [
            ("0", "a", "1", 0.5),
            ("0", "b", "0", 0.5),
            ("1", "a", "0", 0.5),
            ("1", "b", "1", 0.5),
        ],
        check_equivalent=False,
    )


class TestParsing:
    def test_reference_machines(self, ref_ex, ref_ne, ref_gm, ref_1):
        assert ref_ex.name == "M_EX"
        assert ref_ex.states == ("0", "1")
        assert ref_ex.symbols == ("a", "b")
        assert ref_ex.edge_count() == 4
        assert ref_ne.edge_count() == 4
        assert ref_gm.edge_count() == 3
        assert ref_1.n == 1 and ref_1.k == 1

    def test_comments_and_blanks(self):
        text = "# header\n\nmachine m\nstates 0\nsymbols a\nedge 0 a 0 1.0 # loop\nend\n"
        m = parse_machine(text)
        assert m.n == 1

    def test_round_trip(self, ref_ex, ref_ne, ref_gm, ref_1):
        for m in (ref_ex, ref_ne, ref_gm, ref_1, random_machine(4, 3, density=0.8, seed=5)):
            assert parse_machine(render_machine(m)) == m

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("machine m\nstates 0\nsymbols a\nedge 0 a 0 1.0\n", "missing 'end'"),
            ("states 0\nsymbols a\nend\n", "line 1"),
            ("machine m\nmachine m2\nstates 0\nsymbols a\nend\n", "line 2"),
            ("machine m\nstates 0\nsymbols a\nedge 0 a 0 x\nend\n", "line 4"),
            ("machine m\nstates 0\nsymbols a\nedge 0 a 0\nend\n", "line 4"),
            ("machine m\nstates 0\nsymbols a\nend\nedge 0 a 0 1.0\n", "line 5"),
            ("machine m\nstates 0\nsymbols a\nwhatever\nend\n", "line 4"),
            ("machine m\nsymbols a\nstates 0\nend\n", "line 2"),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(MachineSyntaxError) as err:
            parse_machine(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "states,symbols,name",
        [
            (["a b", "c#d"], ["x"], "m"),
            (["0"], [""], "m"),
            (["0"], ["x\ty"], "m"),
            (["0"], ["x"], "my machine"),
            (["0"], ["x"], "m#1"),
            (["0"], ["x"], "m\u2028"),  # a line separator to str.splitlines
        ],
    )
    def test_names_the_text_format_cannot_carry(self, states, symbols, name):
        # render_machine would write text that parse_machine rejects
        edges = [(states[0], symbols[0], states[0], 1.0)]
        with pytest.raises(MachineSyntaxError) as err:
            EpsilonMachine(states, symbols, edges, name=name)
        assert err.value.exit_code == 2

    def test_row_sum_error(self):
        with pytest.raises(RowSumError):
            parse_machine(M_EX_TEXT.replace("edge 0 a 0 0.5", "edge 0 a 0 0.6"))

    def test_duplicate_edge_error(self):
        with pytest.raises(DuplicateEdgeError):
            parse_machine(M_EX_TEXT.replace("edge 0 b 1 0.5", "edge 0 a 1 0.5"))

    def test_unknown_state_error(self):
        with pytest.raises(UnknownNameError):
            parse_machine(M_EX_TEXT.replace("edge 0 b 1 0.5", "edge 0 b 7 0.5"))

    def test_unknown_symbol_error(self):
        with pytest.raises(UnknownNameError):
            parse_machine(M_EX_TEXT.replace("edge 0 b 1 0.5", "edge 0 c 1 0.5"))

    def test_edge_probability_error(self):
        bad = M_EX_TEXT.replace("edge 0 a 0 0.5", "edge 0 a 0 1.5").replace(
            "edge 0 b 1 0.5", "edge 0 b 1 -0.5"
        )
        with pytest.raises(EdgeProbabilityError):
            parse_machine(bad)

    @pytest.mark.parametrize("prob", ["abc", None, [1], True, np.True_])
    def test_non_numeric_probability_is_edge_probability_error(self, prob):
        edges = [("a", "x", "b", prob), ("b", "x", "a", 1.0)]
        with pytest.raises(EdgeProbabilityError, match="not a number"):
            EpsilonMachine(["a", "b"], ["x"], edges)

    def test_not_strongly_connected_error(self):
        text = (
            "machine m\nstates 0 1\nsymbols a\n"
            "edge 0 a 1 1.0\nedge 1 a 1 1.0\nend\n"
        )
        with pytest.raises(NotStronglyConnectedError):
            parse_machine(text)

    def test_equivalent_states_error(self):
        text = (
            "machine m\nstates 0 1\nsymbols a\n"
            "edge 0 a 1 1.0\nedge 1 a 0 1.0\nend\n"
        )
        with pytest.raises(EquivalentStatesError):
            parse_machine(text)


class TestEquivalence:
    def test_references_are_reduced(self, ref_ex, ref_ne):
        assert check_equivalence(ref_ex) == [[0], [1]]
        assert check_equivalence(ref_ne) == [[0], [1]]

    def test_symmetric_machine_collapses(self):
        assert check_equivalence(symmetric_machine()) == [[0, 1]]

    def test_idempotent_on_corpus(self, mixed_corpus):
        for m in mixed_corpus[:10]:
            assert check_equivalence(m) == [[i] for i in range(m.n)]


class TestWordProbability:
    def test_reference_values(self, ref_ex, ref_gm):
        assert word_probability(ref_ex, 0, "bb") == pytest.approx(0.125, abs=1e-12)
        assert word_probability(ref_ex, "0", "") == 1.0
        assert word_probability(ref_gm, 1, "b") == 0.0

    def test_unknown_names(self, ref_ex):
        with pytest.raises(InputError):
            word_probability(ref_ex, 5, "a")
        with pytest.raises(InputError):
            word_probability(ref_ex, 0, "z")
        # a state that is not a string is an index, and a bool is none
        for state in (True, np.True_):
            with pytest.raises(InputError, match="state index must be an integer"):
                word_probability(ref_ex, state, "a")

    def test_length_sum_is_one(self, ref_ex, ref_ne, ref_gm, mixed_corpus):
        for m in (ref_ex, ref_ne, ref_gm, *mixed_corpus[:5]):
            for p in range(m.n):
                for length in (1, 3, 5):
                    total = sum(
                        word_probability(m, p, w)
                        for w in itertools.product(m.symbols, repeat=length)
                    )
                    assert total == pytest.approx(1.0, abs=1e-9)

    def test_prefix_decomposition(self, ref_ex):
        # probability of a word = probability of its head times the
        # probability of the tail from the reached state
        for w in itertools.product("ab", repeat=4):
            full = word_probability(ref_ex, 0, w)
            head = word_probability(ref_ex, 0, w[:1])
            t = ref_ex.step(0, ref_ex.symbol_index(w[0]))
            tail = word_probability(ref_ex, t, w[1:])
            assert full == pytest.approx(head * tail, abs=1e-12)


class TestStationary:
    def test_reference_values(self, ref_ex, ref_ne, ref_1):
        for m in (ref_ex, ref_ne):
            dist = stationary_distribution(m)
            assert dist.pi == pytest.approx([2 / 3, 1 / 3], abs=1e-10)
            assert dist.pi_min == pytest.approx(1 / 3, abs=1e-10)
            assert dist.pi_max == pytest.approx(2 / 3, abs=1e-10)
        assert stationary_distribution(ref_1).pi == pytest.approx([1.0])

    def test_fixed_point_on_corpus(self, mixed_corpus):
        for m in mixed_corpus:
            dist = stationary_distribution(m)
            T = m.transition_matrix()
            assert np.max(np.abs(dist.pi @ T - dist.pi)) < 1e-9
            assert dist.pi.sum() == pytest.approx(1.0, abs=1e-9)
            assert dist.pi_min > 0

    def test_periodic_chain(self):
        # two states exchanged with certainty; the chain has period 2
        m = EpsilonMachine(
            ["0", "1"],
            ["a", "b"],
            [
                ("0", "a", "1", 0.4),
                ("0", "b", "1", 0.6),
                ("1", "a", "0", 0.7),
                ("1", "b", "0", 0.3),
            ],
        )
        assert stationary_distribution(m).pi == pytest.approx([0.5, 0.5], abs=1e-10)


class TestStationaryMemo:
    def test_solved_on_first_read_and_kept(self, machine_dir):
        m = parse_machine((machine_dir / "M_NE.em").read_text(encoding="utf-8"))
        assert "stationary" not in vars(m)
        dist = stationary_distribution(m)
        assert vars(m)["stationary"] is dist
        assert m.stationary is dist
        assert stationary_distribution(m) is dist

    @pytest.mark.parametrize("name", ["M_EX", "M_NE", "M_GM"])
    def test_one_solve_per_oracle_check_operation(self, name, machine_dir, monkeypatch):
        # what one oracle-check operation asks of a machine: every reader of
        # the stationary law gets the machine's one solve
        solves = []

        def counting_solve(T):
            solves.append(np.shape(T))
            return solve_stationary(T)

        monkeypatch.setattr(machine_module, "solve_stationary", counting_solve)
        m = parse_machine((machine_dir / f"{name}.em").read_text(encoding="utf-8"))
        for length in range(11):
            exact_word_stats(m, length)
        nonreset_profile(m, 10)
        for length in range(11):
            nsyn_bounds(m, length)
        simulate_beliefs(m, 200, 200, 1)
        assert solves == [(m.n, m.n)]

    def test_no_memo_keeps_its_machine_alive(self, machine_dir):
        # with the cycle collector off, only reference counts free the
        # machine: nothing the calls leave behind may point back at it
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name in ("M_EX", "M_NE"):
                m = parse_machine((machine_dir / f"{name}.em").read_text(encoding="utf-8"))
                exact_word_stats(m, 4, keep_words=True)
                nonreset_profile(m, 6)
                reset_threshold(m)
                simulate_beliefs(m, 20, 10, 0, record_at=[5])
                nsyn_bounds(m, 3)
                classify(m)
                rate_report(m)
                assert "stationary" in vars(m)
                ref = weakref.ref(m)
                del m
                assert ref() is None, name
        finally:
            if enabled:
                gc.enable()

    def test_stationary_dist_is_immutable(self, ref_ne):
        dist = stationary_distribution(ref_ne)
        for name in ("pi", "pi_min", "pi_max"):
            with pytest.raises(AttributeError):
                setattr(dist, name, 0.5)
            with pytest.raises(AttributeError):
                delattr(dist, name)
        with pytest.raises(AttributeError):
            dist.extra = 1
        with pytest.raises(ValueError):
            dist.pi[0] = 0.5
        assert dist.pi == pytest.approx([2 / 3, 1 / 3], abs=1e-10)


def exact_stationary(T):
    """Stationary law of T by Gauss-Jordan elimination over the rationals:
    every float entry converted exactly, the last balance equation of
    pi (T - I) = 0 replaced by sum(pi) = 1."""
    n = T.shape[0]
    rows = [[Fraction(float(T[c, r])) - (r == c) for c in range(n)] for r in range(n - 1)]
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rhs[c], rhs[pivot] = rhs[pivot], rhs[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
                rhs[r] -= factor * rhs[c]
    return np.array([float(rhs[i] / rows[i][i]) for i in range(n)])


def small_chains(machines, max_states=14):
    """State chains and closed deadlock component chains of at most
    max_states states."""
    for m in machines:
        chains = [m.transition_matrix()]
        pa, da = deadlock_analysis(m)
        total = pair_matrix(pa)
        chains += [total[np.ix_(rows, rows)] for rows in da.component_rows]
        yield from (T for T in chains if T.shape[0] <= max_states)


class TestSolveStationary:
    def test_matches_exact_elimination_on_corpora(self, nonexact_corpus, mixed_corpus):
        # the worst case here is 2.1e-13: a 5-state chain whose smallest
        # entry, 5.3e-4, is off by 1.1e-16
        worst = 0.0
        count = 0
        for T in small_chains([*nonexact_corpus, *mixed_corpus]):
            exact = exact_stationary(T)
            worst = max(worst, float(np.max(np.abs(solve_stationary(T) - exact) / exact)))
            count += 1
        assert count > 1500
        assert worst <= 3e-13

    def test_one_state_and_two_cycle(self):
        assert np.array_equal(solve_stationary([[1.0]]), [1.0])
        assert np.array_equal(solve_stationary([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5])

    @pytest.mark.parametrize(
        "T",
        [
            np.eye(2),  # two closed classes: the system is singular
            [[0.5, 0.5], [0.0, 1.0]],  # a transient state: pi has a zero
            [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],  # two closed classes
        ],
    )
    def test_reducible_chain_is_numerical_error(self, T):
        with pytest.raises(NumericalError):
            solve_stationary(T)


def reference_random_machine(n, k, density=1.0, seed=0, max_tries=10000):
    """The earlier draw loop of random_machine, kept as the oracle for its
    stream: every candidate is drawn with array calls and constructed."""
    rng = np.random.default_rng(seed)
    states = [str(i) for i in range(n)]
    symbols = _default_symbols(k)
    for _ in range(max_tries):
        edges = []
        for i in range(n):
            present = np.flatnonzero(rng.random(k) < density)
            if present.size == 0:
                present = np.array([rng.integers(k)])
            targets = rng.integers(0, n, size=present.size)
            weights = rng.dirichlet(np.ones(present.size))
            for j, t, w in zip(present, targets, weights):
                edges.append((states[i], symbols[j], states[t], float(w)))
        try:
            return EpsilonMachine(states, symbols, edges, name=f"random-{seed}")
        except (NotStronglyConnectedError, EquivalentStatesError, EdgeProbabilityError):
            continue
    raise GenerationError(
        f"no valid machine found in {max_tries} attempts (n={n}, k={k}, density={density})"
    )


def _draw_outcome(generate, *args, **kwargs):
    try:
        return generate(*args, **kwargs)
    except GenerationError as exc:
        return str(exc)


class TestRandomMachine:
    def test_deterministic(self):
        a = random_machine(3, 2, density=0.9, seed=7)
        b = random_machine(3, 2, density=0.9, seed=7)
        assert a == b

    def test_valid_output(self):
        for seed in range(5):
            m = random_machine(4, 2, density=0.8, seed=seed)
            assert check_equivalence(m) == [[i] for i in range(4)]
            assert parse_machine(render_machine(m)) == m

    def test_single_state(self, ref_1):
        m = random_machine(1, 1, density=1.0, seed=0)
        assert np.array_equal(m.delta, ref_1.delta)
        assert np.array_equal(m.probs, ref_1.probs)

    def test_impossible_shape_fails(self):
        # two states over one symbol force a deterministic cycle with unit
        # probabilities, which always collapses under equivalence
        with pytest.raises(GenerationError):
            random_machine(2, 1, density=1.0, seed=3)

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            random_machine(0, 2, seed=0)
        with pytest.raises(InputError):
            random_machine(2, 2, density=0.0, seed=0)
        with pytest.raises(InputError, match="seed"):
            random_machine(3, 2, seed=-1)
        for tries in (0, -5):
            with pytest.raises(InputError, match="max_tries"):
                random_machine(3, 2, seed=0, max_tries=tries)

    @pytest.mark.parametrize(
        "args, kwargs, name",
        [
            ((3.0, 2), {}, "n"),
            ((3, 2.0), {}, "k"),
            ((3, "2"), {}, "k"),
            ((3, 2), {"seed": 1.5}, "seed"),
            ((3, 2), {"seed": None}, "seed"),
            ((3, 2), {"max_tries": 2.5}, "max_tries"),
            ((3, 2), {"density": "0.5"}, "density"),
            ((3, 2), {"density": None}, "density"),
            ((3, 2), {"density": True}, "density"),
            ((True, 2), {}, "n"),
            ((3, True), {}, "k"),
            ((3, 2), {"seed": False}, "seed"),
            ((3, 2), {"max_tries": True}, "max_tries"),
        ],
    )
    def test_argument_types(self, args, kwargs, name):
        # a float or a bool is refused, not truncated, and no argument of
        # the wrong type escapes as a bare TypeError
        with pytest.raises(InputError, match=name):
            random_machine(*args, **kwargs)

    def test_numpy_scalars_draw_as_python_numbers(self):
        a = random_machine(np.int64(4), np.int64(2), density=np.float64(0.8), seed=np.int64(3))
        assert a == random_machine(4, 2, density=0.8, seed=3)
        assert a.name == "random-3"

    # k up to 12 gives weight sums of more than 8 terms, where a pairwise or
    # compensated sum would differ from dirichlet's in-order one; density
    # 0.15 hits the fallback draw of a state with no edges
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9, 12])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_same_draws_as_reference_loop(self, n, k):
        for density, seed in itertools.product([0.15, 0.5, 1.0], [0, 1, 7]):
            kwargs = dict(density=density, seed=seed, max_tries=30)
            expected = _draw_outcome(reference_random_machine, n, k, **kwargs)
            assert _draw_outcome(random_machine, n, k, **kwargs) == expected

    def test_disconnected_candidates_never_constructed(self, monkeypatch):
        outcomes = []
        init = EpsilonMachine.__init__

        def counted(self, *args, **kwargs):
            try:
                init(self, *args, **kwargs)
            except Exception as exc:
                outcomes.append(type(exc))
                raise
            outcomes.append(None)

        monkeypatch.setattr(EpsilonMachine, "__init__", counted)
        seeds = range(4)
        for seed in seeds:
            reference_random_machine(6, 2, density=0.6, seed=seed)
        assert NotStronglyConnectedError in outcomes  # these seeds draw some
        outcomes.clear()
        for seed in seeds:
            random_machine(6, 2, density=0.6, seed=seed)
        assert outcomes.count(None) == len(seeds)
        assert NotStronglyConnectedError not in outcomes


NONEXACT_1000_SHA256 = "48d084969149a6733c34b66dfb0af5d570cd8221be57a978f848201a8761ffdf"


def test_corpus_fixtures_match_pinned_hashes(exact_corpus, mixed_corpus, nonexact_corpus):
    # the fixtures are perfbench's recipes; the non-exact one at 1000
    # machines, ten times the benchmark's pinned size
    assert corpus.corpus_hash(exact_corpus) == corpus.CORPUS_SHA256["exact"]
    assert corpus.corpus_hash(mixed_corpus) == corpus.CORPUS_SHA256["mixed"]
    assert corpus.corpus_hash(nonexact_corpus) == NONEXACT_1000_SHA256


def test_machine_is_immutable(ref_ex):
    with pytest.raises(ValueError):
        ref_ex.delta[0, 0] = 1
    with pytest.raises(ValueError):
        ref_ex.probs[0, 0] = 0.9


def test_transition_matrix(ref_ex):
    T = ref_ex.transition_matrix()
    assert T == pytest.approx(np.array([[0.5, 0.5], [1.0, 0.0]]))
