"""JSON run configuration: loading, dotted-path overrides, spec building.

A config document has sections {kernel, damping, initial, forcing, grid,
time, solver} plus an optional {study} section for convergence ladders.
Initial data and forcing are chosen by name from the registries
``INITIAL_DATA`` and ``FORCING``, whose builders take their coefficients
as keyword parameters; no code is ever embedded in configs.  A key that
no section, builder or kernel parameter knows is a ConfigurationError
naming its dotted path, so a typo never silently runs a default;
``build_problem`` checks the section names and the study section's keys,
so a run that reads no study still rejects a study-key typo.  A study
sweep cell sets its label and problem only: a key of it outside label,
time.T and the kernel, damping, initial and forcing sections is a
ConfigurationError too, and so is a label that an earlier cell has.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .grid_ops import Grid
from .kernel import ConfigurationError, KernelSpec
from .model import DampingFunction, ProblemSpec
from .stepper import SolverConfig

if TYPE_CHECKING:
    from .studies import StudySpec

_SECTIONS = ("kernel", "damping", "initial", "forcing", "grid", "time",
             "solver", "study")
_TIME_KEYS = ("T", "N")
_STUDY_KEYS = ("axis", "levels", "sweep")
#: The sections a study sweep cell may override, with time.T: the problem's.
_CELL_SECTIONS = ("kernel", "damping", "initial", "forcing")


def _sin_mode(*, amplitude=1.0, mode=1):
    """amplitude * sin(mode pi x)."""
    return lambda x: amplitude * np.sin(mode * np.pi * np.asarray(x, dtype=float))


def _poly_bump(*, amplitude=1.0, power=2.0):
    """amplitude * x**power * (1-x)**power."""
    return lambda x: amplitude * np.asarray(x, dtype=float)**power \
        * (1.0 - np.asarray(x, dtype=float))**power


def _tempered_sin(*, sigma, alpha, amplitude=1.0, mode=1):
    """amplitude * exp(-sigma t) * t**alpha * sin(mode pi x)."""
    return lambda x, t: (amplitude * np.exp(-sigma * t) * t**alpha
                         * np.sin(mode * np.pi * np.asarray(x, dtype=float)))


#: Initial data u(x) and forcing f(x, t) by config name.  Each builder takes
#: the section's coefficients as keyword parameters and returns the callable.
#: The zero load is the scalar 0.0, which the stepper broadcasts over the
#: grid, so an unforced run makes no array for it.
INITIAL_DATA = {
    "zero": lambda: lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    "sin_mode": _sin_mode,
    "poly_bump": _poly_bump,
}
FORCING = {
    "zero": lambda: lambda x, t: 0.0,
    "tempered_sin": _tempered_sin,
}
_DAMPING = {
    "affine": lambda *, a=1.0, b=1.0: DampingFunction.affine(a, b),
    "sqrt_affine": lambda *, a=1.0, b=1.0: DampingFunction.sqrt_affine(a, b),
    "constant": lambda *, c=1.0: DampingFunction.constant(c),
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return _mapping(json.load(fh), "")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")


def apply_overrides(config: dict, assignments) -> dict:
    """Return a copy of ``config`` with dotted-path entries overridden.

    ``assignments`` is either a sequence of ``section.key=value`` strings,
    whose values parse as JSON when possible, or a mapping of dotted paths
    to values (a study sweep entry, or a preset's overrides).  The copy
    shares no value with ``config`` or ``assignments``.
    """
    if isinstance(assignments, dict):
        items = assignments.items()
    else:
        items = map(_parse_assignment, assignments or ())
    out = copy.deepcopy(config)
    for path, value in items:
        keys = path.strip().split(".")
        node = out
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"override path {path!r} crosses a leaf")
        node[keys[-1]] = copy.deepcopy(value)
    return out


def _parse_assignment(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ConfigurationError(
            f"override {item!r} is not of the form section.key=value")
    path, _, raw = item.partition("=")
    try:
        return path, json.loads(raw)
    except json.JSONDecodeError:
        return path, raw


def _number(value, name: str, integral: bool = False):
    """``value`` as a finite float, or as an int when ``integral``.

    Anything else, a non-integral count, an infinite or NaN value and an
    integer too large for a float included, is a ConfigurationError naming
    the entry: truncating 2.7 steps to 2 would run a different problem than
    the one asked for.
    """
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if integral and number.is_integer():
                return int(number)
            if not integral and math.isfinite(number):
                return number
    kind = "an integer" if integral else "a finite number"
    raise ConfigurationError(f"{name} must be {kind} (got {value!r})")


def _mapping(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"{name or 'config'} must be a mapping (got {value!r})")
    return value


def _checked(section, allowed, name: str) -> dict:
    """``section`` once it is a mapping whose keys all lie in ``allowed``."""
    for key in _mapping(section, name):
        if key not in allowed:
            raise ConfigurationError(
                f"unknown config key {name + '.' if name else ''}{key}; "
                + (f"expected one of {', '.join(allowed)}" if allowed
                   else f"{name} takes no keys"))
    return section


def _section(config: dict, key: str, allowed) -> dict:
    return _checked(config.get(key, {}), allowed, key)


def _keywords(builder, entries, name: str):
    """``builder(**entries)`` with each entry of the kind its parameter's
    default declares: a ``str`` default passes the value through, an
    ``int`` default makes it an integer, and any other default, or none, a
    finite number.  Each entry must be a keyword parameter of ``builder``,
    and each parameter without a default must be given."""
    params = inspect.signature(builder).parameters
    _checked(entries, tuple(params), name)
    for key, param in params.items():
        if param.default is param.empty and key not in entries:
            raise ConfigurationError(f"{name}.{key} is required")
    return builder(**{key: value if isinstance(params[key].default, str) else
                      _number(value, f"{name}.{key}", type(params[key].default) is int)
                      for key, value in entries.items()})


def _registered(builders: dict, section, name: str, key: str = "name",
                default=None):
    """The builder that ``section[key]`` names, called with the other entries."""
    entries = dict(_mapping(section, name))
    choice = entries.pop(key, default)
    if not isinstance(choice, str) or choice not in builders:
        raise ConfigurationError(
            f"{name}.{key} must be one of {', '.join(builders)} (got {choice!r})")
    return _keywords(builders[choice], entries, name)


def build_problem(config: dict) -> ProblemSpec:
    _checked(config, _SECTIONS, "")
    _section(config, "study", _STUDY_KEYS)
    initial = _section(config, "initial", ("u0", "u1"))
    zero = {"name": "zero"}
    return ProblemSpec(
        u0=_registered(INITIAL_DATA, initial.get("u0", zero), "initial.u0"),
        u1=_registered(INITIAL_DATA, initial.get("u1", zero), "initial.u1"),
        forcing=_registered(FORCING, config.get("forcing", zero), "forcing"),
        damping=_registered(_DAMPING, config.get("damping", {}), "damping",
                            key="kind", default="affine"),
        kernel=_keywords(KernelSpec, config.get("kernel", {}), "kernel"),
        T=_number(_section(config, "time", _TIME_KEYS).get("T", 1.0), "time.T"),
    )


def build_grid(config: dict) -> Grid:
    return _keywords(lambda *, J=32: Grid(J), config.get("grid", {}), "grid")


def build_steps(config: dict) -> int:
    n = _number(_section(config, "time", _TIME_KEYS).get("N", 128), "time.N",
                integral=True)
    if n < 1:
        raise ConfigurationError(f"step count N must be at least 1 (got {n})")
    return n


def build_solver_config(config: dict) -> SolverConfig:
    return _keywords(SolverConfig, config.get("solver", {}), "solver")


def build_study(config: dict) -> StudySpec:
    # Imported here, so that a run that builds no study never loads the harness.
    from .studies import TEMPORAL, StudyCell, StudySpec

    section = config.get("study")
    if not section:
        raise ConfigurationError("config has no 'study' section")
    _checked(section, _STUDY_KEYS, "study")
    axis = section.get("axis", TEMPORAL)
    levels = _number(section.get("levels", 2), "study.levels", integral=True)
    sweep = section.get("sweep")
    if not isinstance(sweep, (list, type(None))):
        raise ConfigurationError(f"study.sweep must be a list (got {sweep!r})")
    cells = []
    for i, overrides in enumerate(sweep or [{"label": "base"}]):
        overrides = _mapping(overrides, f"study.sweep[{i}]")
        label = str(overrides.get("label", f"cell{i}"))
        labels = [cell.label for cell in cells]
        outside = [key for key in overrides if key.strip() not in ("label", "time.T")
                   and key.strip().split(".")[0] not in _CELL_SECTIONS]
        # A cell's bad input, an invalid model included, is a config error
        # that names the cell, found before any run: not a failed cell.
        try:
            if label in labels:
                raise ConfigurationError(f"same label as study.sweep[{labels.index(label)}]; "
                                         "labels must be unique")
            if outside:
                raise ConfigurationError(
                    f"a sweep cell cannot set {outside[0]}; it may set only label, "
                    f"time.T and keys under {', '.join(_CELL_SECTIONS)}")
            problem = build_problem(apply_overrides(
                config, {k: v for k, v in overrides.items() if k != "label"}))
        except ConfigurationError as exc:
            raise ConfigurationError(f"study.sweep[{i}] ({label}): {exc}")
        cells.append(StudyCell(label=label, problem=problem))
    return StudySpec(axis=axis, cells=tuple(cells), levels=levels,
                     grid=build_grid(config), N=build_steps(config))
