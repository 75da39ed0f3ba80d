"""Same-bits digests of the CLI's kv output over a named comparison set.

For each machine file of the set and each of the commands `validate`,
`sync-rate`, `pred-rate` and `bounds --length 8`, this runs
`emsync.cli.main` in-process with `--format kv` and keeps one SHA-256 of
its exit code, stdout and stderr.  The set, built through `perfbench.gen`,
`perfbench.workloads` and `perfbench.corpus` without changing them:

    machines   machines/*.em
    ladders    the exact and non-exact ladders at each of --seeds
    corpus     the three acceptance-corpus recipes
    nonexact   the 1,000-machine non-exact corpus of the test suite
    hard       Černý-24 and Černý-40 (slow radii), and rare-b-24, a
               24-state permutation machine whose rare symbol b makes a
               slow drift that switches to its dense seed

The digests go to one JSON file with the BLAS thread count
(`OPENBLAS_NUM_THREADS`, as set in the environment) and the numpy version
they were made with; full-precision values depend on the thread count, so
compare two trees at one count.  Run from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 tools/samebits.py --out change.json
    OPENBLAS_NUM_THREADS=1 python3 tools/samebits.py --tree ../parent --out parent.json
    python3 tools/samebits.py --compare parent.json change.json

`--tree` digests another checkout (its `src` and `perfbench`), so the parent
of a change needs no copy of this script.  `--compare` lists the keys whose
digests differ, or that only one file has, and exits 1 if there is any.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = ("machines", "ladders", "corpus", "nonexact", "hard")
SEEDS = (1, 2, 3, 13)
COMMANDS = (("validate",), ("sync-rate",), ("pred-rate",), ("bounds", "--length", "8"))


def machine_files(tree, sets, seeds, workdir):
    """(name, path) of every machine file of the chosen sets, the generated
    ones written under workdir."""
    import emsync
    import numpy as np
    from perfbench import corpus, gen, workloads

    def written(group, specs):
        os.makedirs(os.path.join(workdir, group))
        for index, spec in enumerate(specs):
            name = f"{group}/{index:04d}-{spec.name}.em"
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                handle.write(spec.text())
            yield name, os.path.join(workdir, name)

    def specs_of(machines):
        return (gen.Spec(m.name, m.delta, m.probs, None) for m in machines)

    if "machines" in sets:
        for path in sorted(glob.glob(os.path.join(tree, "machines", "*.em"))):
            yield f"machines/{os.path.basename(path)}", path
    if "ladders" in sets:
        for seed in seeds:
            yield from written(f"exact-ladder-{seed}", workloads.ExactLadder().specs(seed))
            yield from written(f"nonexact-ladder-{seed}", workloads.NonexactLadder().specs(seed))
    if "corpus" in sets:
        for name in corpus.RECIPES:
            yield from written(f"corpus-{name}", specs_of(corpus.recipe(emsync, name)))
    if "nonexact" in sets:
        _, (max_states,), seed_base = corpus.RECIPES["non-exact"]
        machines = corpus.nonexact_corpus(emsync, 1000, max_states, seed_base)
        yield from written("nonexact-1000", specs_of(machines))
    if "hard" in sets:
        rare_b = gen.permutation_spec(24, 2, np.random.default_rng(5), "rare-b-24")
        rare_b.probs[:, 0] = 1 - 1e-4 * (1 + np.arange(24) / 24)
        rare_b.probs[:, 1] = 1 - rare_b.probs[:, 0]
        yield from written("hard", [gen.cerny_spec(24), gen.cerny_spec(40), rare_b])


def digest(cli_main, argv):
    """SHA-256 of the exit code, stdout and stderr of one in-process run of
    the CLI entry point `cli_main`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def digests(tree, sets, seeds):
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    import numpy
    from emsync.cli import main as cli_main

    result = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, path in machine_files(tree, sets, seeds, workdir):
            for command in COMMANDS:
                result[f"{' '.join(command)} {name}"] = digest(cli_main, [*command, path, "--format", "kv"])
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "sets": list(sets),
        "seeds": list(seeds),
        "digests": result,
    }


def compare(a, b):
    """Print the keys whose digests differ between two digest files; the
    number of them."""
    runs = []
    for path in (a, b):
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    for path, run in zip((a, b), runs):
        print(f"{path}: OPENBLAS_NUM_THREADS={run['OPENBLAS_NUM_THREADS']} numpy {run['numpy']}")
    left, right = runs[0]["digests"], runs[1]["digests"]
    differ = sorted(key for key in left.keys() | right.keys() if left.get(key) != right.get(key))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(left.keys() | right.keys()) - len(differ)} same, {len(differ)} differ")
    return len(differ)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=ROOT, help="checkout to digest (default: this one)")
    parser.add_argument("--sets", nargs="+", choices=SETS, default=list(SETS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS), help="ladder seeds")
    parser.add_argument("--out", help="digest file to write (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    text = json.dumps(digests(os.path.abspath(args.tree), args.sets, args.seeds), indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
