"""Shared fixtures: reference machines and seeded random corpora.

The corpora are the acceptance-corpus recipes of `perfbench.corpus` (fixed
seed bases, rejection rules documented there), so the suite and the
benchmark draw the same machines.  They are session-scoped so the property
tests and the acceptance gate share one build.
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import emsync  # noqa: E402
from emsync import EpsilonMachine, parse_machine  # noqa: E402
from perfbench import corpus  # noqa: E402

MACHINES = ROOT / "machines"


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
    return list(corpus.recipe(emsync, "exact"))


@pytest.fixture(scope="session")
def nonexact_corpus():
    """1000 non-exact machines, n <= 6 (drift positivity criterion): the
    benchmark's non-exact recipe at ten times its size."""
    _, (max_states,), seed_base = corpus.RECIPES["non-exact"]
    return list(corpus.nonexact_corpus(emsync, 1000, max_states, seed_base))


@pytest.fixture(scope="session")
def mixed_corpus():
    """50 machines, n <= 4, |symbols| <= 3 (belief sandwich criterion)."""
    return list(corpus.recipe(emsync, "mixed"))
