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
from .studies import SPATIAL, TEMPORAL, StudyCell, StudySpec


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


def _build_damping(section: dict) -> DampingFunction:
    kind = section.get("kind", "affine")
    if kind == "affine":
        return DampingFunction.affine(float(section.get("a", 1.0)),
                                      float(section.get("b", 1.0)))
    if kind == "sqrt_affine":
        return DampingFunction.sqrt_affine(float(section.get("a", 1.0)),
                                           float(section.get("b", 1.0)))
    if kind == "constant":
        return DampingFunction.constant(float(section.get("c", 1.0)))
    raise ConfigurationError(
        f"unknown damping kind {kind!r}; config files support "
        "affine, sqrt_affine and constant")


def build_problem(config: dict) -> ProblemSpec:
    try:
        kern = KernelSpec(**config.get("kernel", {}))
        init = config.get("initial", {})
        u0_cfg = dict(init.get("u0", {"name": "zero"}))
        u1_cfg = dict(init.get("u1", {"name": "zero"}))
        f_cfg = dict(config.get("forcing", {"name": "zero"}))
        problem = ProblemSpec(
            u0=make_initial(u0_cfg.pop("name"), **u0_cfg),
            u1=make_initial(u1_cfg.pop("name"), **u1_cfg),
            forcing=make_forcing(f_cfg.pop("name"), **f_cfg),
            damping=_build_damping(config.get("damping", {})),
            kernel=kern,
            T=float(config.get("time", {}).get("T", 1.0)),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed config: {exc!r}")
    return problem


def build_grid(config: dict) -> Grid:
    try:
        return Grid(int(config.get("grid", {}).get("J", 32)))
    except ValueError as exc:
        raise ConfigurationError(str(exc))


def build_steps(config: dict) -> int:
    n = int(config.get("time", {}).get("N", 128))
    if n < 1:
        raise ConfigurationError(f"step count N must be positive (got {n})")
    return n


def build_solver_config(config: dict, record_energy: bool | None = None) -> SolverConfig:
    section = dict(config.get("solver", {}))
    if record_energy is not None:
        section["record_energy"] = record_energy
    try:
        return SolverConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad solver section: {exc}")


def build_study(config: dict) -> StudySpec:
    section = config.get("study")
    if not section:
        raise ConfigurationError("config has no 'study' section")
    axis = section.get("axis", TEMPORAL)
    levels = int(section.get("levels", 2))
    sweep = section.get("sweep") or [{"label": "base"}]
    cells = []
    for i, overrides in enumerate(sweep):
        label = str(overrides.get("label", f"cell{i}"))
        cell_cfg = apply_overrides(
            config, {k: v for k, v in overrides.items() if k != "label"})
        cells.append(StudyCell(label=label, problem=build_problem(cell_cfg)))
    J = build_grid(config).J
    N = build_steps(config)
    if axis == TEMPORAL:
        return StudySpec(axis=TEMPORAL, cells=tuple(cells), level0=N,
                         levels=levels, J=J)
    if axis == SPATIAL:
        return StudySpec(axis=SPATIAL, cells=tuple(cells), level0=J,
                         levels=levels, N=N)
    raise ConfigurationError(f"unknown study axis {axis!r}")
