"""Problem specification: damping law, initial data, forcing, kernel choice.

The damping coefficient multiplies the velocity and is a function
G(v) >= g0 > 0 of the instantaneous discrete bending energy v = ||D2 U||^2,
read from the sine coefficients of U.  The analysis behind the scheme
needs G bounded below and Lipschitz with a non-negative derivative; the
built-in laws satisfy this by construction and declare their constants,
any other callable is only sample-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid_ops import Grid, bending_energy, second_difference_eigenvalues
from .kernel import ConfigurationError, KernelSpec

#: Upper end of the sampling range used to spot-check damping bounds.  The
#: theory only needs them on the (unknowable a priori) range the solution
#: visits, so this is a pragmatic stand-in.
_V_MAX = 1.0e4

#: End values of the initial data may not exceed this times max(1, max|u|)
#: on a probe grid: roundoff of a field that vanishes there scales with it.
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class DampingFunction:
    """Damping coefficient G with declared lower bound and Lipschitz constant.

    Use the constructors :meth:`affine`, :meth:`sqrt_affine` and
    :meth:`constant`, or pass any callable with the bounds it claims;
    :func:`validate` checks those claims only by sampling.
    """

    fn: Callable[[float], float] = field(repr=False)
    g0: float
    lipschitz: float

    def __call__(self, v: float) -> float:
        return float(self.fn(v))

    @classmethod
    def affine(cls, a: float, b: float) -> "DampingFunction":
        """G(v) = a + b*v with a > 0, b >= 0."""
        return cls(lambda v: a + b * v, g0=a, lipschitz=b)

    @classmethod
    def sqrt_affine(cls, a: float, b: float) -> "DampingFunction":
        """G(v) = sqrt(a + b*v); steepest at v = 0, so L = b / (2*sqrt(a))."""
        g0 = float(np.sqrt(a))
        lip = b / (2.0 * g0) if g0 > 0 else np.inf
        return cls(lambda v: float(np.sqrt(a + b * v)), g0=g0, lipschitz=lip)

    @classmethod
    def constant(cls, c: float) -> "DampingFunction":
        return cls(lambda v: c, g0=c, lipschitz=0.0)


@dataclass(frozen=True)
class ProblemSpec:
    """Initial data, forcing, damping law, kernel and horizon of one problem.

    ``u0``/``u1`` map node positions to initial displacement/velocity,
    ``forcing`` maps (x, t) to the load.  Both initial fields must vanish at
    the ends to be compatible with the hinged boundary.  Immutable once
    validated; safe to share across concurrent runs.
    """

    u0: Callable[[np.ndarray], np.ndarray]
    u1: Callable[[np.ndarray], np.ndarray]
    forcing: Callable[[np.ndarray, float], np.ndarray]
    damping: DampingFunction
    kernel: KernelSpec
    T: float = 1.0


def damping_coefficient(damping: DampingFunction, U_hat, grid: Grid) -> float:
    """G at the bending energy ||D2 U||^2 of the field with sine coefficients U_hat."""
    return damping(bending_energy(U_hat, second_difference_eigenvalues(grid), grid.h))


def validate(spec: ProblemSpec) -> list[str]:
    """Collect violated model assumptions; an empty list means valid.

    Checks kernel parameter ranges, the damping lower bound and Lipschitz
    property on sampled arguments (and that it stays finite there), and
    hinged-boundary compatibility of the initial data relative to its scale.
    """
    errs = list(spec.kernel.violations())

    d = spec.damping
    if not d.g0 > 0.0:
        errs.append(f"damping lower bound g0 must be positive (got {d.g0}); "
                    "the velocity term must stay dissipative")
    if d.lipschitz < 0.0:
        errs.append(f"Lipschitz constant must be non-negative (got {d.lipschitz})")
    else:
        vs = np.concatenate([[0.0], np.geomspace(1e-6, _V_MAX, 25)])
        try:
            gv = np.array([d(v) for v in vs])
        except Exception as exc:  # pragma: no cover - caller-supplied callables only
            errs.append(f"damping function raised on sampled input: {exc!r}")
        else:
            nonfinite = vs[~np.isfinite(gv)]
            if nonfinite.size:
                errs.append(
                    f"damping returns a non-finite value at {nonfinite.size} "
                    f"sampled arguments (first v = {nonfinite[0]:.6g})")
            else:
                if d.g0 > 0.0 and np.min(gv) < d.g0 - 1e-12:
                    errs.append(
                        f"damping drops to {np.min(gv):.6g} below its declared "
                        f"lower bound g0={d.g0} on sampled arguments")
                bad = np.abs(np.diff(gv)) > d.lipschitz * np.diff(vs) + 1e-12
                if np.any(bad):
                    errs.append(
                        "damping violates its declared Lipschitz constant "
                        f"L={d.lipschitz} on sampled argument pairs")

    if not spec.T > 0.0:
        errs.append(f"time horizon T must be positive (got {spec.T})")

    for name, f in (("u0", spec.u0), ("u1", spec.u1)):
        try:
            values = np.abs(np.asarray(f(np.linspace(0.0, 1.0, 65)), dtype=float))
        except Exception as exc:
            errs.append(f"initial data {name} raised on the probe grid: {exc!r}")
            continue
        ends = values[[0, -1]]
        if np.any(ends > _BOUNDARY_TOL * max(1.0, float(np.max(values)))):
            errs.append(
                f"initial data {name} must vanish at x=0 and x=1 for the "
                f"hinged boundary (got end values {ends.tolist()} against "
                f"max |{name}| = {np.max(values):.6g})")
    return errs


def require_valid(spec: ProblemSpec) -> ProblemSpec:
    """Return the problem unchanged or raise with every violation listed."""
    errs = validate(spec)
    if errs:
        raise ConfigurationError("; ".join(errs))
    return spec
