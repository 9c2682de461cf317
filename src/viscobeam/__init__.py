"""Finite-difference solver for a damped Euler-Bernoulli beam with
tempered power-law memory, plus a self-convergence study harness."""

__version__ = "0.1.0"

import types as _types

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

#: Names of the study harness, which loads on first use of one of them.
_STUDY_NAMES = ("ConvergenceReport", "StudyCell", "StudySpec", "rate", "run_study")
#: Every public name the imports above bind, their submodules left out, and
#: the study harness's.
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
                 + list(_STUDY_NAMES))


def __getattr__(name):
    if name in _STUDY_NAMES:
        from . import studies
        return getattr(studies, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
