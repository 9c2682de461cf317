"""JSON run configuration: loading, dotted-path overrides, spec building.

A config document has sections {kernel, damping, initial, forcing, grid,
time, solver} plus an optional {study} section for convergence ladders.
Initial data and forcing are registry names with coefficients; see
:mod:`viscobeam.presets`.
"""

from __future__ import annotations

import copy
import json

from .grid_ops import Grid
from .kernel import ConfigurationError, KernelSpec
from .model import DampingFunction, ProblemSpec
from .presets import make_forcing, make_initial
from .stepper import SolverConfig
from .studies import TEMPORAL, StudyCell, StudySpec


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")


def apply_overrides(config: dict, assignments) -> dict:
    """Return a copy of ``config`` with dotted-path entries overridden.

    ``assignments`` is either a sequence of ``section.key=value`` strings,
    whose values parse as JSON when possible, or a mapping of dotted paths
    to values (a study sweep entry).
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
        node[keys[-1]] = value
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
    """``value`` as a float, or as an int when ``integral``.

    Anything else, a non-integral count included, is a ConfigurationError
    naming the entry: truncating 2.7 steps to 2 would run a different
    problem than the one asked for.
    """
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if not integral:
                return number
            if number.is_integer():
                return int(number)
    kind = "an integer" if integral else "a number"
    raise ConfigurationError(f"{name} must be {kind} (got {value!r})")


def _numbers(section: dict, name: str, skip: str = "") -> dict:
    """The entries of ``section`` as floats, except the one named ``skip``."""
    return {key: value if key == skip else _number(value, f"{name}.{key}")
            for key, value in section.items()}


def _build_damping(section: dict) -> DampingFunction:
    section = _numbers({"a": 1.0, "b": 1.0, "c": 1.0, **section}, "damping",
                       skip="kind")
    kind = section.get("kind", "affine")
    if kind == "affine":
        return DampingFunction.affine(section["a"], section["b"])
    if kind == "sqrt_affine":
        return DampingFunction.sqrt_affine(section["a"], section["b"])
    if kind == "constant":
        return DampingFunction.constant(section["c"])
    raise ConfigurationError(
        f"unknown damping kind {kind!r}; config files support "
        "affine, sqrt_affine and constant")


def build_problem(config: dict) -> ProblemSpec:
    try:
        kern = KernelSpec(**_numbers(config.get("kernel", {}), "kernel",
                                     skip="family"))
        init = config.get("initial", {})
        u0_cfg = _numbers(init.get("u0", {"name": "zero"}), "initial.u0", skip="name")
        u1_cfg = _numbers(init.get("u1", {"name": "zero"}), "initial.u1", skip="name")
        f_cfg = _numbers(config.get("forcing", {"name": "zero"}), "forcing",
                         skip="name")
        problem = ProblemSpec(
            u0=make_initial(u0_cfg.pop("name"), **u0_cfg),
            u1=make_initial(u1_cfg.pop("name"), **u1_cfg),
            forcing=make_forcing(f_cfg.pop("name"), **f_cfg),
            damping=_build_damping(config.get("damping", {})),
            kernel=kern,
            T=_number(config.get("time", {}).get("T", 1.0), "time.T"),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed config: {exc!r}")
    return problem


def build_grid(config: dict) -> Grid:
    J = _number(config.get("grid", {}).get("J", 32), "grid.J", integral=True)
    try:
        return Grid(J)
    except ValueError as exc:
        raise ConfigurationError(str(exc))


def build_steps(config: dict) -> int:
    n = _number(config.get("time", {}).get("N", 128), "time.N", integral=True)
    if n < 1:
        raise ConfigurationError(f"step count N must be positive (got {n})")
    return n


def build_solver_config(config: dict, record_energy: bool | None = None) -> SolverConfig:
    section = dict(config.get("solver", {}))
    if record_energy is not None:
        section["record_energy"] = record_energy
    if "fp_max_iters" in section:
        section["fp_max_iters"] = _number(section["fp_max_iters"],
                                          "solver.fp_max_iters", integral=True)
    try:
        return SolverConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad solver section: {exc}")


def build_study(config: dict) -> StudySpec:
    section = config.get("study")
    if not section:
        raise ConfigurationError("config has no 'study' section")
    axis = section.get("axis", TEMPORAL)
    levels = _number(section.get("levels", 2), "study.levels", integral=True)
    sweep = section.get("sweep") or [{"label": "base"}]
    cells = []
    for i, overrides in enumerate(sweep):
        label = str(overrides.get("label", f"cell{i}"))
        cell_cfg = apply_overrides(
            config, {k: v for k, v in overrides.items() if k != "label"})
        cells.append(StudyCell(label=label, problem=build_problem(cell_cfg)))
    J = build_grid(config).J
    N = build_steps(config)
    # A temporal ladder refines N at fixed J, a spatial one J at fixed N.
    level0, fixed = (N, {"J": J}) if axis == TEMPORAL else (J, {"N": N})
    try:
        return StudySpec(axis=axis, cells=tuple(cells), level0=level0,
                         levels=levels, **fixed)
    except ValueError as exc:
        raise ConfigurationError(f"bad study section: {exc}")
