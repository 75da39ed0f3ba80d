"""The three seeded acceptance-corpus recipes of the test suite, one
accepted machine at a time.

The recipes repeat those in tests/conftest.py draw for draw (same seed
bases, size ranges and rejection rules).  The exact and mixed corpora are
built in full; the non-exact one with 100 machines instead of 1000, which
are the first 90 permutation machines and the first 10 generic machines of
the acceptance corpus (its generic slice takes 10 s to build in full).
Program functions are looked up on the emsync package at call time, so a
traced run sees them.

The corpora must stay bit-identical through refactors.  CORPUS_SHA256
pins the SHA-256 of the concatenated machine texts of each corpus; the
text is the emsync.render_machine layout.  Recompute the hashes, from the
repository root, with

    python3 -m perfbench.corpus
"""

import hashlib
import os
import sys

import numpy as np

from .gen import Spec

# recipe -> (count, size arguments, seed base); as in tests/conftest.py
# except the non-exact count there, 1000
RECIPES = {
    "exact": (100, (5, 3), 1000),
    "non-exact": (100, (6,), 2000),
    "mixed": (50, (4, 3), 3000),
}

CORPUS_SHA256 = {
    "exact": "72b32ea01c55c6ebfd0117d46bceb1842a4fbf8a1e172b38750a87c54e9da1ae",
    "non-exact": "84a8910921d66bfd15e7815262ab03e592ba72152b104d2008c46fd2ecf80c29",
    "mixed": "b090f4fc983b086b150b8dbf03b20bf05d8a4ee5889ca4eef2adced1817f417f",
}


def permutation_machine(em, n, k, seed, tries=50):
    """Machine whose every symbol permutes the states; None when no valid
    draw appears within `tries`."""
    rng = np.random.default_rng(seed)
    states = [str(i) for i in range(n)]
    symbols = [chr(ord("a") + j) for j in range(k)]
    for _ in range(tries):
        perms = [rng.permutation(n) for _ in range(k)]
        edges = []
        for i in range(n):
            weights = rng.dirichlet(np.ones(k))
            for j in range(k):
                edges.append((states[i], symbols[j], states[int(perms[j][i])], float(weights[j])))
        try:
            return em.EpsilonMachine(states, symbols, edges, name=f"perm-{seed}")
        except (em.NotStronglyConnectedError, em.EquivalentStatesError):
            continue
    return None


def _generic(em, seed, low, max_states, max_symbols):
    """random_machine draw of one candidate seed, or None when it gives up."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(low, max_states + 1))
    k = int(rng.integers(2, max_symbols + 1))
    density = float(rng.uniform(0.5, 1.0))
    try:
        return em.random_machine(n, k, density=density, seed=seed)
    except em.GenerationError:
        return None


def exact_corpus(em, count, max_states, max_symbols, seed_base):
    seed, made = seed_base, 0
    while made < count:
        seed += 1
        m = _generic(em, seed, 2, max_states, max_symbols)
        if m is not None and em.classify(m) == "exact":
            made += 1
            yield m


def nonexact_corpus(em, count, max_states, seed_base):
    generic_share = count // 10
    seed, made = seed_base, 0
    while made < count - generic_share:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, max_states + 1))
        k = int(rng.integers(2, 4))
        m = permutation_machine(em, n, k, seed)
        if m is not None:
            made += 1
            yield m
    seed = seed_base + 10**6
    while made < count:
        seed += 1
        m = _generic(em, seed, 3, max_states, 3)
        if m is not None and em.classify(m) == "non-exact":
            made += 1
            yield m


def mixed_corpus(em, count, max_states, max_symbols, seed_base):
    seed, made = seed_base, 0
    while made < count:
        seed += 1
        m = _generic(em, seed, 2, max_states, max_symbols)
        if m is not None:
            made += 1
            yield m


def recipe(em, name):
    """Iterator over the accepted machines of one acceptance corpus."""
    count, sizes, base = RECIPES[name]
    build = {"exact": exact_corpus, "non-exact": nonexact_corpus, "mixed": mixed_corpus}[name]
    return build(em, count, *sizes, base)


def corpus_hash(machines):
    digest = hashlib.sha256()
    for m in machines:
        digest.update(Spec(m.name, m.delta, m.probs, None).text().encode())
    return digest.hexdigest()


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import emsync

    status = 0
    for name in RECIPES:
        value = corpus_hash(recipe(emsync, name))
        pinned = CORPUS_SHA256[name]
        print(f"{name}\t{value}\t{'match' if value == pinned else 'DIFFERS from ' + pinned}")
        status |= value != pinned
    return status


if __name__ == "__main__":
    sys.exit(main())
