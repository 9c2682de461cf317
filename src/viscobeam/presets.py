"""Named preset configs and the two example problems built from them.

Each numerical example is written out once, as a config dict in the format
:mod:`viscobeam.config` reads; ``example1_problem``/``example2_problem``
build their problems from those same dicts.  The two examples exercise
each kernel family: a forced sine-mode beam with affine damping
(oscillatory kernel) and an unforced polynomial bump with square-root
damping (non-oscillatory kernel).
"""

from __future__ import annotations

from .config import build_problem
from .kernel import ConfigurationError, NON_OSCILLATORY, OSCILLATORY
from .model import ProblemSpec


def _example1_config(sigma=1.2, gamma=1.0, alpha=0.5, J=32, N=256, T=1.0):
    return {
        "kernel": {"family": OSCILLATORY, "sigma": sigma, "gamma": gamma,
                   "alpha": alpha},
        "damping": {"kind": "affine", "a": 1.0, "b": 1.0},
        "initial": {"u0": {"name": "sin_mode", "mode": 1},
                    "u1": {"name": "sin_mode", "mode": 2}},
        "forcing": {"name": "tempered_sin", "sigma": sigma, "alpha": alpha},
        "grid": {"J": J},
        "time": {"T": T, "N": N},
        "solver": {},
    }


def _example2_config(sigma=1.5, alpha=0.5, J=64, N=128, T=1.0):
    return {
        "kernel": {"family": NON_OSCILLATORY, "sigma": sigma, "gamma": 0.0,
                   "alpha": alpha},
        "damping": {"kind": "sqrt_affine", "a": 1.0, "b": 1.0},
        "initial": {"u0": {"name": "poly_bump", "power": 2},
                    "u1": {"name": "poly_bump", "power": 3}},
        "forcing": {"name": "zero"},
        "grid": {"J": J},
        "time": {"T": T, "N": N},
        "solver": {},
    }


def example1_problem(sigma: float = 1.2, gamma: float = 1.0,
                     alpha: float = 0.5, T: float = 1.0) -> ProblemSpec:
    """Forced sine-mode beam with affine damping and oscillatory kernel.

    u0 = sin(pi x), u1 = sin(2 pi x), f = exp(-sigma t) t**alpha sin(pi x),
    G(v) = 1 + v.  The forcing reuses the kernel's tempering parameters.
    """
    return build_problem(_example1_config(sigma, gamma, alpha, T=T))


def example2_problem(sigma: float = 1.5, alpha: float = 0.5,
                     T: float = 1.0) -> ProblemSpec:
    """Unforced polynomial bump with square-root damping, non-oscillatory kernel.

    u0 = x^2 (1-x)^2, u1 = x^3 (1-x)^3, f = 0, G(v) = sqrt(1 + v).
    """
    return build_problem(_example2_config(sigma, alpha, T=T))


def _with_study(cfg: dict, axis: str, levels: int, sweep: list) -> dict:
    cfg["study"] = {"axis": axis, "levels": levels, "sweep": sweep}
    return cfg


_PRESETS = {
    "example1": _example1_config,
    "example2": _example2_config,
    "example1-temporal": lambda: _with_study(
        _example1_config(gamma=0.0, J=32, N=16), "temporal", 5,
        [{"label": f"gamma={g}", "kernel.gamma": g} for g in (0.0, 0.5, 1.0)]),
    "example1-spatial": lambda: _with_study(
        _example1_config(sigma=2.0, gamma=0.0, alpha=0.5, J=8, N=64),
        "spatial", 4,
        [{"label": f"alpha={a},gamma={g}", "kernel.alpha": a,
          "kernel.gamma": g, "forcing.alpha": a}
         for a in (0.5, 1.0) for g in (0.0, 1.0, 2.0)]),
    "example2-temporal": lambda: _with_study(
        _example2_config(J=64, N=128), "temporal", 4,
        [{"label": f"sigma={s}", "kernel.sigma": s} for s in (1.5, 2.0, 2.5, 3.0)]),
    "example2-spatial": lambda: _with_study(
        _example2_config(J=16, N=64), "spatial", 4,
        [{"label": f"sigma={s},alpha={a}", "kernel.sigma": s, "kernel.alpha": a}
         for s in (1.5, 3.0) for a in (0.3, 0.7)]),
    "example2-longtime": lambda: _example2_config(J=64, N=5000, T=50.0),
}


def preset_config(name: str) -> dict:
    """Full config dict for a named preset (single runs and studies)."""
    if name not in _PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; known presets: {', '.join(_PRESETS)}")
    return _PRESETS[name]()
