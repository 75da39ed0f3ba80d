"""The benchmark's checks pass on the program's outputs and reject
perturbed ones; the generators keep their promises; the tracer sees calls
between modules and leaves the program as it found it.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import copy
import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import corpus, gen, reference, tracing, workloads  # noqa: E402

em = importlib.import_module("emsync")
importlib.import_module("emsync.cli")

LENGTH = workloads.LADDER_LENGTH


def cli_outputs(spec, tmp_path, commands):
    path = tmp_path / f"{spec.name}.em"
    path.write_text(spec.text())
    out = {}
    for command in commands:
        argv = [command, str(path), "--format", "kv"]
        if command == "bounds":
            argv += ["--length", str(LENGTH)]
        code, text = workloads.run_cli(argv)
        assert code == 0
        out[command] = workloads.parse_kv(text)
    return out


def nudge(out, command, key, delta):
    bad = copy.deepcopy(out)
    bad[command][key] = repr(float(bad[command][key]) + delta)
    return bad


@pytest.fixture(scope="module")
def exact_case(tmp_path_factory):
    spec = gen.exact_spec(12, 2, np.random.default_rng(5), "exact-case")
    out = cli_outputs(spec, tmp_path_factory.mktemp("exact"), workloads.ExactLadder.commands)
    return spec, reference.Reference(spec, LENGTH), out


@pytest.fixture(scope="module")
def transient_case(tmp_path_factory):
    spec = gen.transient_spec(4, 3, np.random.default_rng(6), "trans-case")
    out = cli_outputs(spec, tmp_path_factory.mktemp("trans"), workloads.NonexactLadder.commands)
    return spec, reference.Reference(spec, LENGTH), out


class TestGenerators:
    @pytest.mark.parametrize("seed", range(5))
    def test_classification_holds_by_construction(self, seed):
        rng = np.random.default_rng(seed)
        for spec in (
            gen.exact_spec(9, 2, rng, "e2"),
            gen.exact_spec(7, 3, rng, "e3"),
            gen.permutation_spec(8, 2, rng, "p"),
            gen.transient_spec(3, 3, rng, "t3"),
            gen.transient_spec(5, 4, rng, "t4"),
        ):
            m = em.parse_machine(spec.text())
            assert em.render_machine(m) == spec.text()
            assert em.classify(m) == spec.kind
            assert reference.Reference(spec, 0).classification == spec.kind

    def test_transient_machines_have_transient_deadlock_pairs(self):
        spec = gen.transient_spec(5, 4, np.random.default_rng(1), "t")
        tables = reference.PairTables(spec)
        dead = np.flatnonzero(~tables.mergeable())
        closed = sum(len(c) for c in tables.closed_components(dead))
        assert len(dead) == 2 * 5 * 5  # in-block pairs plus diagonal cross pairs
        assert closed == 2 * 5 * 4

    def test_same_seed_same_inputs(self):
        texts = [[s.text() for s in workloads.ExactLadder().specs(3)] for _ in range(2)]
        assert texts[0] == texts[1]
        assert texts[0] != [s.text() for s in workloads.ExactLadder().specs(4)]

    def test_slow_gap_machine_matches_random_machine(self):
        pinned = gen.load_spec(workloads.SLOW_GAP, "exact")
        m = em.random_machine(10, 2, density=0.9, seed=10)
        assert np.array_equal(pinned.delta, m.delta)
        assert np.array_equal(pinned.probs, m.probs)


class TestCliChecks:
    def test_program_outputs_pass(self, exact_case, transient_case):
        for spec, ref, out in (exact_case, transient_case):
            assert reference.check_cli(spec, ref, out, LENGTH) == []

    @pytest.mark.parametrize(
        "command, key, delta",
        [
            ("sync-rate", "src", 1e-6),
            ("sync-rate", "src", -1e-6),
            ("pred-rate", "escape", 1e-6),
            ("pred-rate", "prc", 1e-6),
            ("bounds", "nsyn.lower", 1e-7),
            ("bounds", "nsyn.upper", -1e-7),
        ],
    )
    def test_exact_perturbations_rejected(self, exact_case, command, key, delta):
        spec, ref, out = exact_case
        assert reference.check_cli(spec, ref, nudge(out, command, key, delta), LENGTH)

    @pytest.mark.parametrize(
        "key, delta",
        [("e_m.0", 1e-4), ("e_m.0", -1e-6), ("prc", 1e-6), ("escape", -1e-6)],
    )
    def test_nonexact_perturbations_rejected(self, transient_case, key, delta):
        spec, ref, out = transient_case
        assert reference.check_cli(spec, ref, nudge(out, "pred-rate", key, delta), LENGTH)

    def test_wrong_classification_rejected(self, exact_case):
        spec, ref, out = exact_case
        bad = copy.deepcopy(out)
        bad["validate"]["classification"] = "non-exact"
        assert reference.check_cli(spec, ref, bad, LENGTH)

    def test_sandwich(self):
        assert reference.check_sandwich("m", 0.1, 0.2, 0.3, 1e-9) == []
        assert reference.check_sandwich("m", 0.1, 0.31, 0.3, 1e-9)
        assert reference.check_sandwich("m", 0.1, 0.09, 0.3, 1e-9)


class TestOracleChecks:
    @pytest.fixture(scope="class")
    def case(self):
        work = workloads.OracleCheck()
        work.setup(em, 0, None)
        work.inputs = work.inputs[:2] + work.inputs[-1:]
        outputs = [out for out, _ in work.round()]
        return work, outputs

    def test_program_outputs_pass(self, case):
        work, outputs = case
        assert work.check(outputs) == []

    @pytest.mark.parametrize(
        "field, change",
        [
            ("profile", lambda v: v[:3] + (v[3] * (1 + 1e-6),) + v[4:]),
            ("upper", lambda v: v[:3] + (v[3] * (1 + 1e-6),) + v[4:]),
            ("nsyn", lambda v: v[:2] + (v[2] * 2,) + v[3:]),
            ("reset", lambda v: None),
            ("y", lambda v: (v[0] + 1, v[1])),
        ],
    )
    def test_perturbations_rejected(self, case, field, change):
        work, outputs = case
        bad = copy.deepcopy(outputs)
        bad[0][field] = change(bad[0][field])
        assert work.check(bad)


class TestCorpusChecks:
    @pytest.fixture(scope="class")
    def exact_corpus(self):
        return list(corpus.recipe(em, "exact"))

    def test_pinned_hash(self, exact_corpus):
        assert corpus.corpus_hash(exact_corpus) == corpus.CORPUS_SHA256["exact"]
        m = exact_corpus[0]
        assert gen.Spec(m.name, m.delta, m.probs, None).text() == em.render_machine(m)

    def test_one_changed_probability_rejected(self, exact_corpus):
        m = exact_corpus[7]
        edges = [(m.states[i], m.symbols[j], m.states[t], p) for i, j, t, p in m.edges()]
        s, a, t, p = edges[0]
        edges[0] = (s, a, t, p - 1e-12)
        changed = em.EpsilonMachine(m.states, m.symbols, edges, name=m.name)
        bad = exact_corpus[:7] + [changed] + exact_corpus[8:]
        assert corpus.corpus_hash(bad) != corpus.CORPUS_SHA256["exact"]

    def test_check_rejects_wrong_class(self, exact_corpus):
        work = workloads.CorpusGen()
        work.setup(em, 0, None)
        assert work.check_recipe("exact", exact_corpus) == []
        with open(os.path.join(ROOT, "machines", "M_NE.em"), encoding="utf-8") as handle:
            non_exact = em.parse_machine(handle.read())
        problems = work.check_recipe("exact", exact_corpus[:-1] + [non_exact])
        assert any("hash" in p for p in problems)
        assert any("is non-exact" in p for p in problems)


class TestTracer:
    def test_spans_between_modules(self, tmp_path):
        spec = gen.exact_spec(6, 2, np.random.default_rng(0), "traced")
        path = tmp_path / "m.em"
        path.write_text(spec.text())
        originals = (em.rate_report, sys.modules["emsync.cli"].rate_report, em.EpsilonMachine.__init__)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = 0
            code, _ = workloads.run_cli(["pred-rate", str(path), "--format", "kv"])
        finally:
            tracer.uninstall()
        assert code == 0
        assert (em.rate_report, sys.modules["emsync.cli"].rate_report, em.EpsilonMachine.__init__) == originals
        values = tracer.metrics(1, 0.0)
        assert set(values) == {name for name, _, _ in tracing.layer_metric_specs()}
        assert values["cli.main.calls"] == 1
        assert values["rates.rate_report.calls"] == 1  # bound in emsync.cli
        assert values["pairs.build_pair_automaton.calls"] >= 1  # called from rates
        assert values["machine.EpsilonMachine.calls"] == 1
        assert values["pairs.rows"] == 30
        names = {span[0]: span[2] for span in tracer.spans}
        parents = {names[s[1]] for s in tracer.spans if s[2] == "rates.rate_report"}
        assert parents == {"cli.main"}
        total = sum(s[5] - s[4] for s in tracer.spans if s[2] == "cli.main")
        assert sum(s[6] for s in tracer.spans) == pytest.approx(total)


class TestCommand:
    def run(self, cwd, *extra):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle-check", "--seed", "1", *extra],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=170,
        )

    def test_traced_run_prints_every_layer_metric(self):
        done = self.run(ROOT, "--seconds", "0.2", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 60
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = json.load(handle)
        assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
        done = self.run(tmp_path, "--seconds", "0.2")
        assert done.returncode != 0
        assert "{" not in done.stdout
