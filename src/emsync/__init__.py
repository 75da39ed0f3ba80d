"""Synchronization and prediction rate constants of epsilon-machines.

An epsilon-machine is a strongly connected partial automaton whose states
emit symbols with fixed probabilities.  An observer reading the emitted
stream either pins down the state after finitely many symbols (exact
machines; the failure probability decays like the synchronization rate
constant) or only asymptotically (the residual uncertainty decays like the
prediction rate constant).  This package computes both constants from the
pair automaton and verifies them against exhaustive and Monte Carlo
oracles.
"""

from .errors import (
    ConvergenceError,
    DuplicateEdgeError,
    EdgeProbabilityError,
    EmsyncError,
    EquivalentStatesError,
    GenerationError,
    ImpossibleWordError,
    InputError,
    MachineError,
    MachineSyntaxError,
    NotStronglyConnectedError,
    NumericalError,
    PreconditionError,
    ResourceError,
    RowSumError,
    UnknownNameError,
)
from .machine import (
    EpsilonMachine,
    StationaryDist,
    check_equivalence,
    parse_machine,
    random_machine,
    render_machine,
    stationary_distribution,
    word_probability,
)
from .oracle import (
    BeliefSimulation,
    BeliefState,
    WordRecord,
    WordStats,
    belief,
    exact_word_stats,
    nonreset_profile,
    reset_threshold,
    simulate_beliefs,
)
from .pairs import (
    DeadlockAnalysis,
    PairAutomaton,
    build_pair_automaton,
    classify,
    deadlock_analysis,
    deadlock_components,
    mergeable_pairs,
)
from .rates import (
    EdgeMachineStats,
    NsynBounds,
    RateReport,
    edge_machine_stats,
    escape_rate,
    nsyn_bounds,
    pair_matrix,
    prediction_rate,
    rate_report,
    spectral_radius,
    sync_rate,
)

__version__ = "0.1.0"

__all__ = [
    "EpsilonMachine",
    "StationaryDist",
    "parse_machine",
    "render_machine",
    "check_equivalence",
    "word_probability",
    "stationary_distribution",
    "random_machine",
    "PairAutomaton",
    "DeadlockAnalysis",
    "build_pair_automaton",
    "mergeable_pairs",
    "deadlock_components",
    "deadlock_analysis",
    "classify",
    "NsynBounds",
    "EdgeMachineStats",
    "RateReport",
    "pair_matrix",
    "spectral_radius",
    "sync_rate",
    "nsyn_bounds",
    "edge_machine_stats",
    "prediction_rate",
    "escape_rate",
    "rate_report",
    "BeliefState",
    "BeliefSimulation",
    "WordStats",
    "WordRecord",
    "belief",
    "exact_word_stats",
    "nonreset_profile",
    "reset_threshold",
    "simulate_beliefs",
    "EmsyncError",
    "MachineError",
    "MachineSyntaxError",
    "RowSumError",
    "DuplicateEdgeError",
    "UnknownNameError",
    "EdgeProbabilityError",
    "NotStronglyConnectedError",
    "EquivalentStatesError",
    "InputError",
    "ImpossibleWordError",
    "PreconditionError",
    "ResourceError",
    "GenerationError",
    "NumericalError",
    "ConvergenceError",
]
