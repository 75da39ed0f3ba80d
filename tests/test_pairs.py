import numpy as np
import pytest

from emsync import (
    EpsilonMachine,
    build_pair_automaton,
    classify,
    deadlock_analysis,
    deadlock_components,
    mergeable_pairs,
)


class TestPairAutomaton:
    def test_reference_structure(self, ref_ex):
        pa = build_pair_automaton(ref_ex)
        assert pa.count == 2
        assert [pa.pair(r) for r in range(2)] == [(0, 1), (1, 0)]
        b = ref_ex.symbol_index("b")
        a = ref_ex.symbol_index("a")
        r01 = pa.pair_index(0, 1)
        assert pa.delta2[r01, b] == pa.pair_index(1, 0)
        assert pa.weight[r01, b] == pytest.approx(0.5)
        assert pa.delta2[r01, a] == -1  # both states move to 0
        assert pa.weight[r01, a] == 0.0

    def test_single_state_machine(self, ref_1):
        pa = build_pair_automaton(ref_1)
        assert pa.count == 0

    def test_all_defined_for_permutation_symbols(self, ref_ne):
        pa = build_pair_automaton(ref_ne)
        assert (pa.delta2 >= 0).all()
        r01 = pa.pair_index(0, 1)
        r10 = pa.pair_index(1, 0)
        assert pa.weight[r01].tolist() == [0.7, 0.3]
        assert pa.weight[r10].tolist() == [0.4, 0.6]

    def test_pair_order_is_lexicographic(self, mix_machine):
        pa = build_pair_automaton(mix_machine)
        pairs = [pa.pair(r) for r in range(pa.count)]
        assert pairs == sorted(pairs)
        assert pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_weight_is_first_coordinate_emission(self, mix_machine):
        pa = build_pair_automaton(mix_machine)
        m = mix_machine
        for r in range(pa.count):
            p, _ = pa.pair(r)
            for j in range(m.k):
                if pa.delta2[r, j] >= 0:
                    assert pa.weight[r, j] == m.probs[p, j]
                else:
                    assert pa.weight[r, j] == 0.0


class TestMergeable:
    def test_exact_references(self, ref_ex, ref_gm):
        for m in (ref_ex, ref_gm):
            da = mergeable_pairs(build_pair_automaton(m))
            assert da.mergeable == {(0, 1), (1, 0)}
            assert da.deadlock == frozenset()

    def test_nonexact_reference(self, ref_ne):
        da = mergeable_pairs(build_pair_automaton(ref_ne))
        assert da.mergeable == frozenset()
        assert da.deadlock == {(0, 1), (1, 0)}

    def test_mixed_machine(self, mix_machine):
        da = mergeable_pairs(build_pair_automaton(mix_machine))
        assert da.mergeable == {(0, 1), (1, 0)}
        assert da.deadlock == {(0, 2), (2, 0), (1, 2), (2, 1)}

    def test_symmetry_on_corpus(self, mixed_corpus):
        for m in mixed_corpus:
            da = mergeable_pairs(build_pair_automaton(m))
            assert {(q, p) for p, q in da.deadlock} == da.deadlock

    def test_deadlock_closure_on_corpus(self, nonexact_corpus):
        # every defined move of a deadlock pair lands on a deadlock pair,
        # and the outgoing weight of a deadlock pair sums to 1
        for m in nonexact_corpus[:40]:
            pa = build_pair_automaton(m)
            da = mergeable_pairs(pa)
            dead_rows = {pa.pair_index(p, q) for p, q in da.deadlock}
            for r in dead_rows:
                targets = pa.delta2[r][pa.delta2[r] >= 0].tolist()
                assert all(t in dead_rows for t in targets)
                assert pa.weight[r].sum() == pytest.approx(1.0, abs=1e-9)


class TestComponents:
    def test_reference_components(self, ref_ex, ref_ne):
        pa = build_pair_automaton(ref_ne)
        da = mergeable_pairs(pa)
        assert deadlock_components(da, pa) == [((0, 1), (1, 0))]
        pa = build_pair_automaton(ref_ex)
        da = mergeable_pairs(pa)
        assert deadlock_components(da, pa) == []

    def test_component_rows_on_first_use(self, mix_machine):
        # the analysis that mergeable_pairs returns is whole: its closed
        # components need no further call
        da = mergeable_pairs(build_pair_automaton(mix_machine))
        assert [rows.tolist() for rows in da.component_rows] == [[1, 3, 4, 5]]

    def test_components_are_pairs_of_component_rows(
        self, perm4_machine, trans_machine, nonexact_corpus
    ):
        for m in [perm4_machine, trans_machine, *nonexact_corpus[:40]]:
            pa = build_pair_automaton(m)
            da = mergeable_pairs(pa)
            expected = [tuple(map(tuple, pa.pairs[rows].tolist())) for rows in da.component_rows]
            assert da.components == expected

    def test_mixed_machine_component(self, mix_machine):
        _, da = deadlock_analysis(mix_machine)
        assert da.components == [((0, 2), (1, 2), (2, 0), (2, 1))]

    def test_three_components(self, perm4_machine):
        _, da = deadlock_analysis(perm4_machine)
        assert len(da.deadlock) == 12
        assert da.components == [
            ((0, 1), (1, 0), (2, 3), (3, 2)),
            ((0, 2), (1, 3), (2, 0), (3, 1)),
            ((0, 3), (1, 2), (2, 1), (3, 0)),
        ]

    def test_transient_deadlock_pairs(self, trans_machine):
        # the cross-block orbit is deadlock but leaks into the closed
        # component, so it belongs to no component
        pa, da = deadlock_analysis(trans_machine)
        assert len(da.deadlock) == 8
        assert da.components == [((0, 1), (1, 0), (2, 3), (3, 2))]
        transient = da.deadlock - set(da.components[0])
        assert transient == {(0, 2), (1, 3), (2, 0), (3, 1)}
        # transient rows are still stochastic
        for p, q in transient:
            assert pa.weight[pa.pair_index(p, q)].sum() == pytest.approx(1.0, abs=1e-9)

    def test_components_closed_under_moves(self, nonexact_corpus):
        for m in nonexact_corpus[:40]:
            pa, da = deadlock_analysis(m)
            for comp in da.components:
                rows = {pa.pair_index(p, q) for p, q in comp}
                for r in rows:
                    assert set(pa.delta2[r][pa.delta2[r] >= 0].tolist()) <= rows

    def test_two_block_machine_components_avoid_merging_pairs(self):
        # two permutation blocks joined by a symbol that collapses each
        # block to a single target: in-block pairs merge immediately, and
        # the only closed component lives among the never-merging
        # cross-block pairs
        edges = []
        a_map = {0: 1, 1: 0, 2: 3, 3: 2}
        b_map = {0: 2, 1: 2, 2: 0, 3: 0}
        probs = {0: (0.7, 0.3), 1: (0.4, 0.6), 2: (0.55, 0.45), 3: (0.35, 0.65)}
        for i in range(4):
            edges.append((str(i), "a", str(a_map[i]), probs[i][0]))
            edges.append((str(i), "b", str(b_map[i]), probs[i][1]))
        m = EpsilonMachine([str(i) for i in range(4)], ["a", "b"], edges, name="two-block")
        _, da = deadlock_analysis(m)
        assert da.mergeable == {(0, 1), (1, 0), (2, 3), (3, 2)}
        assert da.components == [((0, 2), (1, 3), (2, 0), (3, 1))]
        component_pairs = set(da.components[0])
        assert component_pairs <= da.deadlock
        assert all(pair not in da.mergeable for pair in component_pairs)
        assert classify(m) == "non-exact"


class TestClassify:
    def test_references(self, ref_ex, ref_ne, ref_gm, ref_1):
        assert classify(ref_ex) == "exact"
        assert classify(ref_ne) == "non-exact"
        assert classify(ref_gm) == "exact"
        assert classify(ref_1) == "exact"

    def test_corpus_construction(self, nonexact_corpus, exact_corpus):
        assert all(classify(m) == "non-exact" for m in nonexact_corpus[:50])
        assert all(classify(m) == "exact" for m in exact_corpus[:20])
