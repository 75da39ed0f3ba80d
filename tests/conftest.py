"""Shared fixtures: reference machines and seeded random corpora.

Corpora are deterministic (fixed seed bases, rejection rules documented
inline) and session-scoped so the property tests and the acceptance gate
share one build.
"""

import pathlib

import numpy as np
import pytest

from emsync import (
    EpsilonMachine,
    EquivalentStatesError,
    GenerationError,
    NotStronglyConnectedError,
    classify,
    parse_machine,
    random_machine,
)

MACHINES = pathlib.Path(__file__).resolve().parents[1] / "machines"


def reference_machine(name):
    return parse_machine((MACHINES / f"{name}.em").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def machine_dir():
    """The directory of the reference machine files; tests only read it."""
    return MACHINES


@pytest.fixture(scope="session")
def ref_ex():
    return reference_machine("M_EX")


@pytest.fixture(scope="session")
def ref_ne():
    return reference_machine("M_NE")


@pytest.fixture(scope="session")
def ref_gm():
    return reference_machine("M_GM")


@pytest.fixture(scope="session")
def ref_1():
    return reference_machine("M_1")


def permutation_machine(n, k, seed, tries=50):
    """Machine whose every symbol permutes the state set.

    Permutation symbols never shrink a set image, so every state pair is a
    deadlock pair and the machine is non-exact by construction.  Emission
    probabilities are flat Dirichlet.  Returns None when no strongly
    connected, non-equivalent draw appears within `tries`.
    """
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
            return EpsilonMachine(states, symbols, edges, name=f"perm-{seed}")
        except (NotStronglyConnectedError, EquivalentStatesError):
            continue
    return None


def build_exact_corpus(count, max_states, max_symbols, seed_base):
    """Seeded random exact machines from generic sampling."""
    corpus = []
    seed = seed_base
    while len(corpus) < count:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, max_states + 1))
        k = int(rng.integers(2, max_symbols + 1))
        density = float(rng.uniform(0.5, 1.0))
        try:
            m = random_machine(n, k, density=density, seed=seed)
        except GenerationError:
            continue
        if classify(m) == "exact":
            corpus.append(m)
    return corpus


def build_nonexact_corpus(count, max_states, seed_base):
    """Seeded random non-exact machines.

    Generic sampling yields non-exact machines too rarely (about 1 in 80)
    to fill a large corpus, so most entries use permutation symbols, with a
    slice of generic rejection-sampled machines mixed in for shape
    diversity.
    """
    generic_share = count // 10
    corpus = []
    seed = seed_base
    while len(corpus) < count - generic_share:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, max_states + 1))
        k = int(rng.integers(2, 4))
        m = permutation_machine(n, k, seed)
        if m is not None:
            corpus.append(m)
    seed = seed_base + 10**6
    while len(corpus) < count:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, max_states + 1))
        k = int(rng.integers(2, 4))
        density = float(rng.uniform(0.5, 1.0))
        try:
            m = random_machine(n, k, density=density, seed=seed)
        except GenerationError:
            continue
        if classify(m) == "non-exact":
            corpus.append(m)
    return corpus


def build_mixed_corpus(count, max_states, max_symbols, seed_base):
    """Seeded random machines of any classification."""
    corpus = []
    seed = seed_base
    while len(corpus) < count:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, max_states + 1))
        k = int(rng.integers(2, max_symbols + 1))
        density = float(rng.uniform(0.5, 1.0))
        try:
            corpus.append(random_machine(n, k, density=density, seed=seed))
        except GenerationError:
            continue
    return corpus


@pytest.fixture(scope="session")
def mix_machine():
    """Three states with both mergeable and deadlock pairs: symbol b merges
    states 0 and 1, while pairs involving state 2 form one closed deadlock
    component."""
    return EpsilonMachine(
        ["0", "1", "2"],
        ["a", "b"],
        [
            ("0", "a", "1", 0.5),
            ("0", "b", "2", 0.5),
            ("1", "a", "0", 0.6),
            ("1", "b", "2", 0.4),
            ("2", "a", "2", 0.3),
            ("2", "b", "0", 0.7),
        ],
        name="M_MIX",
    )


@pytest.fixture(scope="session")
def perm4_machine():
    """Four states under two permutation symbols (an in-block swap and a
    block exchange); every pair is deadlock and the pair space splits into
    three closed components with distinct drifts."""
    p_a = [0.5, 0.6, 0.7, 0.8]
    a_map = [1, 0, 3, 2]
    b_map = [2, 3, 0, 1]
    edges = []
    for i in range(4):
        edges.append((str(i), "a", str(a_map[i]), p_a[i]))
        edges.append((str(i), "b", str(b_map[i]), 1.0 - p_a[i]))
    return EpsilonMachine([str(i) for i in range(4)], ["a", "b"], edges, name="M_PERM4")


@pytest.fixture(scope="session")
def trans_machine():
    """perm4 plus a third symbol that collides states across the blocks;
    the cross-block pair orbit stays deadlock but drains one-way into the
    closed in-block component, so it is transient: deadlock yet outside
    every closed component."""
    p = {
        0: (0.5, 0.3, 0.2),
        1: (0.4, 0.35, 0.25),
        2: (0.3, 0.45, 0.25),
        3: (0.25, 0.35, 0.4),
    }
    a_map = [1, 0, 3, 2]
    b_map = [2, 3, 0, 1]
    x_map = [0, 1, 1, 0]
    edges = []
    for i in range(4):
        edges.append((str(i), "a", str(a_map[i]), p[i][0]))
        edges.append((str(i), "b", str(b_map[i]), p[i][1]))
        edges.append((str(i), "x", str(x_map[i]), p[i][2]))
    return EpsilonMachine([str(i) for i in range(4)], ["a", "b", "x"], edges, name="M_TRANS")


@pytest.fixture(scope="session")
def exact_corpus():
    """100 exact machines, n <= 5, |symbols| <= 3 (sandwich criteria)."""
    return build_exact_corpus(100, 5, 3, seed_base=1000)


@pytest.fixture(scope="session")
def nonexact_corpus():
    """1000 non-exact machines, n <= 6 (drift positivity criterion)."""
    return build_nonexact_corpus(1000, 6, seed_base=2000)


@pytest.fixture(scope="session")
def mixed_corpus():
    """50 machines, n <= 4, |symbols| <= 3 (belief sandwich criterion)."""
    return build_mixed_corpus(50, 4, 3, seed_base=3000)
