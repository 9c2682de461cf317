"""Named preset configs and the two example problems built from them.

Each numerical example is written out once, as a config dict in the format
:mod:`viscobeam.config` reads, and every preset is one of them with
dotted-path overrides, applied by ``config.apply_overrides`` as ``--set``
and study sweep cells are; ``example1_problem``/``example2_problem``
build their problems the same way.  The two examples exercise each
kernel family: a forced sine-mode beam with affine damping (oscillatory
kernel) and an unforced polynomial bump with square-root damping
(non-oscillatory kernel).
"""

from __future__ import annotations

from .config import apply_overrides, build_problem
from .kernel import ConfigurationError, NON_OSCILLATORY, OSCILLATORY
from .model import ProblemSpec

_EXAMPLE1 = {
    "kernel": {"family": OSCILLATORY, "sigma": 1.2, "gamma": 1.0, "alpha": 0.5},
    "damping": {"kind": "affine", "a": 1.0, "b": 1.0},
    "initial": {"u0": {"name": "sin_mode", "mode": 1},
                "u1": {"name": "sin_mode", "mode": 2}},
    "forcing": {"name": "tempered_sin", "sigma": 1.2, "alpha": 0.5},
    "grid": {"J": 32},
    "time": {"T": 1.0, "N": 256},
    "solver": {},
}
_EXAMPLE2 = {
    "kernel": {"family": NON_OSCILLATORY, "sigma": 1.5, "gamma": 0.0, "alpha": 0.5},
    "damping": {"kind": "sqrt_affine", "a": 1.0, "b": 1.0},
    "initial": {"u0": {"name": "poly_bump", "power": 2},
                "u1": {"name": "poly_bump", "power": 3}},
    "forcing": {"name": "zero"},
    "grid": {"J": 64},
    "time": {"T": 1.0, "N": 128},
    "solver": {},
}


def example1_problem(sigma: float = 1.2, gamma: float = 1.0,
                     alpha: float = 0.5, T: float = 1.0) -> ProblemSpec:
    """Forced sine-mode beam with affine damping and oscillatory kernel.

    u0 = sin(pi x), u1 = sin(2 pi x), f = exp(-sigma t) t**alpha sin(pi x),
    G(v) = 1 + v.  The forcing reuses the kernel's tempering parameters.
    """
    return build_problem(apply_overrides(_EXAMPLE1, {
        "kernel.sigma": sigma, "kernel.gamma": gamma, "kernel.alpha": alpha,
        "forcing.sigma": sigma, "forcing.alpha": alpha, "time.T": T}))


def example2_problem(sigma: float = 1.5, alpha: float = 0.5,
                     T: float = 1.0) -> ProblemSpec:
    """Unforced polynomial bump with square-root damping, non-oscillatory kernel.

    u0 = x^2 (1-x)^2, u1 = x^3 (1-x)^3, f = 0, G(v) = sqrt(1 + v).
    """
    return build_problem(apply_overrides(
        _EXAMPLE2, {"kernel.sigma": sigma, "kernel.alpha": alpha, "time.T": T}))


#: Each preset as (example, overrides).
_PRESETS = {
    "example1": (_EXAMPLE1, {}),
    "example2": (_EXAMPLE2, {}),
    "example1-temporal": (_EXAMPLE1, {
        "kernel.gamma": 0.0, "time.N": 16, "study.axis": "temporal", "study.levels": 5,
        "study.sweep": [{"label": f"gamma={g}", "kernel.gamma": g} for g in (0.0, 0.5, 1.0)]}),
    "example1-spatial": (_EXAMPLE1, {
        "kernel.sigma": 2.0, "kernel.gamma": 0.0, "forcing.sigma": 2.0, "grid.J": 8,
        "time.N": 64, "study.axis": "spatial", "study.levels": 4,
        "study.sweep": [{"label": f"alpha={a},gamma={g}", "kernel.alpha": a, "kernel.gamma": g,
                         "forcing.alpha": a} for a in (0.5, 1.0) for g in (0.0, 1.0, 2.0)]}),
    "example2-temporal": (_EXAMPLE2, {
        "study.axis": "temporal", "study.levels": 4, "study.sweep": [
            {"label": f"sigma={s}", "kernel.sigma": s} for s in (1.5, 2.0, 2.5, 3.0)]}),
    "example2-spatial": (_EXAMPLE2, {
        "grid.J": 16, "time.N": 64, "study.axis": "spatial", "study.levels": 4,
        "study.sweep": [{"label": f"sigma={s},alpha={a}", "kernel.sigma": s, "kernel.alpha": a}
                        for s in (1.5, 3.0) for a in (0.3, 0.7)]}),
    "example2-longtime": (_EXAMPLE2, {"time.T": 50.0, "time.N": 5000}),
}


def preset_config(name: str) -> dict:
    """Full config dict for a named preset (single runs and studies)."""
    if name not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; known presets: {', '.join(_PRESETS)}")
    return apply_overrides(*_PRESETS[name])
