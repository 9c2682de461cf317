"""Problem specification: damping law, initial data, forcing, kernel choice.

The damping coefficient multiplies the velocity and is a function
G(v) >= g0 > 0 of the instantaneous discrete bending energy v = ||D2 U||^2,
read from the sine coefficients of U.  The analysis behind the scheme
needs G bounded below and Lipschitz with a non-negative derivative; the
built-in laws satisfy this by construction and declare their constants,
any other callable is only sample-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernel import ConfigurationError, KernelSpec, require_real

#: Upper end of the sampling range used to spot-check damping bounds.  The
#: theory only needs them on the (unknowable a priori) range the solution
#: visits, so this is a pragmatic stand-in.
_V_MAX = 1.0e4

#: Slack of the sampled damping checks, relative to the values compared:
#: a + b*v rounds by about eps * (a + b*v), so an absolute slack rejects
#: valid laws once b*v is large.
_ROUNDOFF = 4.0 * math.ulp(1.0)

#: End values of the initial data may not exceed this times max(1, max|u|)
#: on a probe grid: roundoff of a field that vanishes there scales with it.
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class DampingFunction:
    """Damping coefficient G with declared lower bound and Lipschitz constant.

    Use the constructors :meth:`affine`, :meth:`sqrt_affine` and
    :meth:`constant`, or pass any callable with the bounds it claims; the
    :class:`ProblemSpec` that holds it checks those claims, by sampling.
    """

    fn: Callable[[float], float] = field(repr=False)
    g0: float
    lipschitz: float

    def __post_init__(self):
        require_real(self.g0, "damping lower bound g0")
        require_real(self.lipschitz, "damping Lipschitz constant")

    def __call__(self, v: float) -> float:
        return float(self.fn(v))

    @classmethod
    def affine(cls, a: float, b: float) -> "DampingFunction":
        """G(v) = a + b*v with a > 0, b >= 0."""
        return cls(lambda v: a + b * v, g0=a, lipschitz=b)

    @classmethod
    def sqrt_affine(cls, a: float, b: float) -> "DampingFunction":
        """G(v) = sqrt(a + b*v); steepest at v = 0, so L = b / (2*sqrt(a))."""
        g0 = math.sqrt(a) if a >= 0.0 else math.nan
        lip = b / (2.0 * g0) if g0 > 0 else np.inf
        # math.sqrt costs a fraction of numpy's scalar call; a negative
        # argument (only with a < 0, which ProblemSpec rejects) gives NaN as
        # numpy does, rather than raising or warning.
        return cls(lambda v: math.sqrt(s) if (s := a + b * v) >= 0.0 else math.nan,
                   g0=g0, lipschitz=lip)

    @classmethod
    def constant(cls, c: float) -> "DampingFunction":
        return cls(lambda v: c, g0=c, lipschitz=0.0)


@dataclass(frozen=True)
class ProblemSpec:
    """Initial data, forcing, damping law, kernel and horizon of one problem.

    ``u0``/``u1`` map node positions to initial displacement/velocity.
    ``forcing`` maps (x, t) to the load, for a block of levels at once: it
    must broadcast over x of shape (1, J-1), the interior nodes, and t of
    shape (L, 1), the levels' times, and its result is broadcast to
    (L, J-1), so a scalar load still works.  Both initial fields must
    vanish at the ends to be compatible with the hinged boundary.  A
    problem that breaks the scheme's assumptions cannot be built.
    Immutable; safe to share across concurrent runs.
    """

    u0: Callable[[np.ndarray], np.ndarray]
    u1: Callable[[np.ndarray], np.ndarray]
    forcing: Callable[[np.ndarray, np.ndarray], np.ndarray | float]
    damping: DampingFunction
    kernel: KernelSpec
    T: float = 1.0

    def __post_init__(self):
        """Raise a ConfigurationError that lists every broken assumption.

        Checks the damping lower bound and Lipschitz property on sampled
        arguments (and that it stays finite there), the horizon, and that
        the initial data are finite on a probe grid and vanish at its ends
        relative to their scale (hinged-boundary compatibility).  The
        kernel checked its own ranges when it was built.
        """
        require_real(self.T, "time horizon T")
        errs = []
        d = self.damping
        if not d.g0 > 0.0:
            errs.append(f"damping lower bound g0 must be positive (got {d.g0}); "
                        "the velocity term must stay dissipative")
        if d.lipschitz < 0.0:
            errs.append(f"Lipschitz constant must be non-negative (got {d.lipschitz})")
        else:
            vs = np.concatenate([[0.0], np.geomspace(1e-6, _V_MAX, 25)])
            try:
                gv = np.array([d(v) for v in vs])
            except Exception as exc:
                errs.append(f"damping function raised on sampled input: {exc!r}")
            else:
                nonfinite = vs[~np.isfinite(gv)]
                if nonfinite.size:
                    errs.append(
                        f"damping returns a non-finite value at {nonfinite.size} "
                        f"sampled arguments (first v = {nonfinite[0]:.6g})")
                else:
                    if d.g0 > 0.0 and np.min(gv) < d.g0 * (1.0 - _ROUNDOFF):
                        errs.append(
                            f"damping drops to {np.min(gv):.6g} below its declared "
                            f"lower bound g0={d.g0} on sampled arguments")
                    slack = _ROUNDOFF * (np.abs(gv[1:]) + np.abs(gv[:-1]))
                    if np.any(np.abs(np.diff(gv)) > d.lipschitz * np.diff(vs) + slack):
                        errs.append(
                            "damping violates its declared Lipschitz constant "
                            f"L={d.lipschitz} on sampled argument pairs")

        if not 0.0 < self.T < math.inf:
            errs.append(f"time horizon T must be positive and finite (got {self.T})")

        probe = np.linspace(0.0, 1.0, 65)
        for name, f in (("u0", self.u0), ("u1", self.u1)):
            try:
                values = np.abs(np.asarray(f(probe), dtype=float))
            except Exception as exc:
                errs.append(f"initial data {name} raised on the probe grid: {exc!r}")
                continue
            if values.shape != probe.shape:
                errs.append(f"initial data {name} must return one value per point of the "
                            f"probe grid, shape {probe.shape} (got shape {values.shape})")
                continue
            nonfinite = probe[~np.isfinite(values)]
            if nonfinite.size:
                errs.append(f"initial data {name} is not finite on the probe grid "
                            f"(first at x = {nonfinite[0]:.6g})")
                continue
            ends = values[[0, -1]]
            if np.any(ends > _BOUNDARY_TOL * max(1.0, float(np.max(values)))):
                errs.append(
                    f"initial data {name} must vanish at x=0 and x=1 for the "
                    f"hinged boundary (got end values {ends.tolist()} against "
                    f"max |{name}| = {np.max(values):.6g})")
        if errs:
            raise ConfigurationError("; ".join(errs))
