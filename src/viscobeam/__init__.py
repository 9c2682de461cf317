"""Finite-difference solver for a damped Euler-Bernoulli beam with
tempered power-law memory, plus a self-convergence study harness."""

__version__ = "0.1.0"

from .kernel import (
    ConfigurationError,
    KernelSpec,
    KernelTables,
    NO_MEMORY,
    NON_OSCILLATORY,
    OSCILLATORY,
)
from .grid_ops import (
    Grid,
    norm,
    second_difference_eigenvalues,
    sine_transform,
)
from .model import (
    DampingFunction,
    ProblemSpec,
)
from .stepper import (
    NonConvergenceError,
    NumericalError,
    SolverConfig,
    SolverState,
    TimeSeries,
    assemble_step_system,
    initialize,
    run,
    step,
    write_solution_csv,
)
from .diagnostics import (
    StabilityVerdict,
    data_functional,
    energy,
    stability_monitor,
)
from .presets import example1_problem, example2_problem, preset_config

__all__ = [
    "ConfigurationError", "ConvergenceReport", "DampingFunction",
    "Grid", "KernelSpec", "KernelTables", "NO_MEMORY",
    "NON_OSCILLATORY", "NonConvergenceError", "NumericalError", "OSCILLATORY",
    "ProblemSpec", "SolverConfig", "SolverState", "StabilityVerdict",
    "StudyCell", "StudySpec", "TimeSeries", "assemble_step_system",
    "data_functional", "energy", "example1_problem", "example2_problem",
    "initialize", "norm", "preset_config", "rate", "run", "run_study",
    "second_difference_eigenvalues", "sine_transform", "stability_monitor",
    "step", "write_solution_csv",
]

#: Names of the study harness, which loads on first use of one of them.
_STUDY_NAMES = ("ConvergenceReport", "StudyCell", "StudySpec", "rate", "run_study")


def __getattr__(name):
    if name in _STUDY_NAMES:
        from . import studies
        return getattr(studies, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
