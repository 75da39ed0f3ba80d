"""The four workloads.

A workload builds its inputs from the seed in `setup`, yields one
(output, ok) pair per operation from `round` (the same operations in the
same order every round), and checks one round's outputs in `check`
against `perfbench.reference`, the program's own oracles, or properties
the method must have.  Program functions are always looked up on the
emsync modules at call time, so a traced run sees every call.
"""

import contextlib
import io
import os
import sys

import numpy as np

from . import corpus, gen, reference

HERE = os.path.dirname(os.path.abspath(__file__))
SLOW_GAP = os.path.join(HERE, "machines", "slow_gap_10.em")

# Word length of `emsync bounds` on the ladders.
LADDER_LENGTH = 8

# (states, symbols) of the random exact ladder, 28 machines, followed by
# the fixed slow-gap machines: the slow-gap machine of random_machine once
# and the 17-state Černý-type machine three times, each slower than any
# random machine.  The 12-state machines come three times per alphabet so
# that the median falls among them, and with 32 operations a round the 90th
# percentile falls among the Černý samples, whatever the number of rounds;
# neither then jumps between machine sizes from one seed to the next.
EXACT_LADDER = [(n, k) for n in (4, 5, 6, 7, 8, 10) for k in (2, 3)]
EXACT_LADDER += [(12, 2), (12, 3)] * 3
EXACT_LADDER += [(n, k) for n in (16, 20, 24, 32, 40) for k in (2, 3)]
CERNY_STATES, CERNY_REPEATS = 17, 3
# (states, symbols) of the permutation machines and (block size, symbols)
# of the transient-deadlock machines: 54 per round.  The 32-state machines
# come three times per alphabet so that the 90th percentile falls among
# them whatever the number of rounds.
PERMUTATION_LADDER = [(n, k) for n in (6, 8, 10, 12, 14, 16) for k in (2, 3)] * 2
PERMUTATION_LADDER += [(n, k) for n in (20, 24, 28) for k in (2, 3)]
PERMUTATION_LADDER += [(32, 2), (32, 3)] * 3 + [(40, 2), (48, 2)]
TRANSIENT_LADDER = [(h, k) for h in (2, 3, 4, 6, 8, 10, 12, 16) for k in (3, 4)]

# Small machines of both classes for the oracles, 30 per round; enumeration
# length by alphabet size keeps every machine near 10^3 words.
ORACLE_SIZES = [(n, k) for n in range(3, 9) for k in (2, 3)]
ORACLE_TRANSIENT = [(h, k) for h in (2, 3, 4) for k in (3, 4)]
ORACLE_LENGTH = {2: 10, 3: 7, 4: 6}
SIM_LENGTH, SIM_RUNS = 200, 200


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def run_cli(argv):
    """emsync.cli.main in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["emsync.cli"].main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return code, out.getvalue()


def parse_kv(text):
    return dict(line.split("\t", 1) for line in text.splitlines() if "\t" in line)


class CliLadder:
    """Each operation takes one machine file through a fixed sequence of
    CLI subcommands, in-process, with --format kv."""

    commands = ()

    def specs(self, seed):
        raise NotImplementedError

    def setup(self, em, seed, workdir):
        self.em = em
        self.inputs = []
        os.makedirs(workdir, exist_ok=True)
        for index, spec in enumerate(self.specs(seed)):
            path = os.path.join(workdir, f"{index:03d}-{spec.name}.em")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(spec.text())
            self.inputs.append((spec, path))

    def round(self):
        for _, path in self.inputs:
            out, ok = {}, True
            for command in self.commands:
                argv = [command, path, "--format", "kv"]
                if command == "bounds":
                    argv += ["--length", str(LADDER_LENGTH)]
                code, text = run_cli(argv)
                ok = ok and code == 0
                out[command] = parse_kv(text)
            yield out, ok

    def check(self, outputs):
        problems = []
        for (spec, _), out in zip(self.inputs, outputs):
            if out is None:
                continue
            ref = reference.Reference(spec, LADDER_LENGTH)
            problems += reference.check_cli(spec, ref, out, LADDER_LENGTH)
            machine = self.em.parse_machine(spec.text())
            nsyn = self.em.exact_word_stats(machine, LADDER_LENGTH).nsyn
            bounds = out["bounds"]
            problems += reference.check_sandwich(
                spec.name,
                float(bounds["nsyn.lower"]),
                nsyn,
                float(bounds["nsyn.upper"]),
                reference.KV_REL,
            )
        return problems


class ExactLadder(CliLadder):
    commands = ("validate", "sync-rate", "pred-rate", "bounds")

    def specs(self, seed):
        rng = _rng(seed, 1)
        specs = [
            gen.exact_spec(n, k, rng, f"exact-n{n}-k{k}-{i}") for i, (n, k) in enumerate(EXACT_LADDER)
        ]
        return specs + [gen.load_spec(SLOW_GAP, "exact")] + [gen.cerny_spec(CERNY_STATES)] * CERNY_REPEATS


class NonexactLadder(CliLadder):
    commands = ("validate", "pred-rate", "bounds")

    def specs(self, seed):
        rng = _rng(seed, 2)
        specs = [
            gen.permutation_spec(n, k, rng, f"perm-n{n}-k{k}-{i}")
            for i, (n, k) in enumerate(PERMUTATION_LADDER)
        ]
        return specs + [
            gen.transient_spec(h, k, rng, f"trans-h{h}-k{k}") for h, k in TRANSIENT_LADDER
        ]


class OracleCheck:
    """Each operation runs every oracle on one small machine, plus the
    bounds they sandwich."""

    def setup(self, em, seed, workdir):
        self.em = em
        rng = _rng(seed, 3)
        specs = []
        for n, k in ORACLE_SIZES:
            specs.append(gen.exact_spec(n, k, rng, f"exact-n{n}-k{k}"))
            specs.append(gen.permutation_spec(n, k, rng, f"perm-n{n}-k{k}"))
        specs += [gen.transient_spec(h, k, rng, f"trans-h{h}-k{k}") for h, k in ORACLE_TRANSIENT]
        self.inputs = [
            (spec, em.parse_machine(spec.text()), seed * 1000 + i) for i, spec in enumerate(specs)
        ]

    def round(self):
        em = self.em
        for spec, m, sim_seed in self.inputs:
            length = ORACLE_LENGTH[spec.k]
            nsyn = tuple(em.exact_word_stats(m, ell).nsyn for ell in range(length + 1))
            _, at_pi = em.nonreset_profile(m, length)
            bounds = [em.nsyn_bounds(m, ell) for ell in range(length + 1)]
            reset = em.reset_threshold(m)
            sim = em.simulate_beliefs(m, SIM_LENGTH, SIM_RUNS, sim_seed)
            yield {
                "nsyn": nsyn,
                "profile": tuple(float(x) for x in at_pi),
                "lower": tuple(b.lower for b in bounds),
                "upper": tuple(b.upper for b in bounds),
                "reset": reset,
                "q": (float(sim.q_values.min()), float(sim.q_values.max())),
                "y": (sim.y_values.size, bool(np.isfinite(sim.y_values).all())),
                "starts": tuple(np.bincount(sim.starts, minlength=m.n).tolist()),
            }, True

    def check(self, outputs):
        problems = []
        for (spec, _, _), out in zip(self.inputs, outputs):
            if out is None:
                continue
            name = spec.name
            length = ORACLE_LENGTH[spec.k]
            ref = reference.Reference(spec, length)
            tables = reference.PairTables(spec)
            dead = ~tables.mergeable()
            for ell in range(length + 1):
                nsyn, lower, upper = out["nsyn"][ell], out["lower"][ell], out["upper"][ell]
                problems += reference.check_sandwich(f"{name} L={ell}", lower, nsyn, upper, 1e-12)
                if not reference.close(out["profile"][ell], nsyn, 1e-9, 1e-15):
                    problems.append(
                        f"{name} L={ell}: profile {out['profile'][ell]!r} != enumerated {nsyn!r}"
                    )
                want_lower, want_upper = ref.bounds[ell]
                if not (
                    reference.close(lower, want_lower, reference.SOLVE_REL, 1e-15)
                    and reference.close(upper, want_upper, reference.SOLVE_REL, 1e-15)
                ):
                    problems.append(
                        f"{name} L={ell}: bounds ({lower!r}, {upper!r}),"
                        f" reference ({want_lower!r}, {want_upper!r})"
                    )
            if (out["reset"] is None) != (spec.kind == "non-exact"):
                problems.append(f"{name}: reset_threshold {out['reset']!r} on a {spec.kind} machine")
            if ref.classification != spec.kind:
                problems.append(f"{name}: reference classifies {ref.classification}, built {spec.kind}")
            q_min, q_max = out["q"]
            if not 0.0 <= q_min <= q_max <= 1.0:
                problems.append(f"{name}: simulated uncertainty outside [0, 1]")
            partners = np.zeros(spec.n, dtype=np.int64)
            np.add.at(partners, tables.p[dead], 1)
            want_y = int(np.dot(out["starts"], partners))
            if out["y"] != (want_y, True) or sum(out["starts"]) != SIM_RUNS:
                problems.append(f"{name}: {out['y']} log-likelihood averages, expected {want_y} finite")
        return problems


class CorpusGen:
    """Each operation draws one accepted machine of an acceptance corpus;
    a round builds all three corpora."""

    def setup(self, em, seed, workdir):
        # The corpora are fixed by their seed bases; the run seed does not
        # enter (see README).
        self.em = em

    def round(self):
        for name in corpus.RECIPES:
            for m in corpus.recipe(self.em, name):
                yield (name, m), True

    def check(self, outputs):
        by_recipe = {name: [] for name in corpus.RECIPES}
        for out in outputs:
            if out is not None:
                by_recipe[out[0]].append(out[1])
        problems = []
        for name, machines in by_recipe.items():
            problems += self.check_recipe(name, machines)
        return problems

    def check_recipe(self, name, machines):
        """The pinned hash, the round trip, and the classification by two
        independent routes: the benchmark's mergeability closure and the
        program's reset-word search (an oracle that never builds pairs)."""
        em = self.em
        problems = []
        if len(machines) != corpus.RECIPES[name][0]:
            problems.append(f"{name} corpus: {len(machines)} machines")
        if corpus.corpus_hash(machines) != corpus.CORPUS_SHA256[name]:
            problems.append(f"{name} corpus: hash differs from the pinned one")
        for m in machines:
            if em.parse_machine(em.render_machine(m)) != m:
                problems.append(f"{name} corpus: {m.name} does not round-trip")
            tables = reference.PairTables(gen.Spec(m.name, m.delta, m.probs, None))
            exact = bool(tables.mergeable().all())
            if exact != (em.reset_threshold(m) is not None):
                problems.append(f"{name} corpus: {m.name} mergeability and reset search disagree")
            if name != "mixed" and exact != (name == "exact"):
                problems.append(f"{name} corpus: {m.name} is {'exact' if exact else 'non-exact'}")
        return problems


WORKLOADS = {
    "exact-ladder": ExactLadder,
    "nonexact-ladder": NonexactLadder,
    "oracle-check": OracleCheck,
    "corpus-gen": CorpusGen,
}
