"""Discrete energy functional and a long-time stability tripwire.

The monitored quantity mirrors the left-hand side of the scheme's energy
estimate: per level the kinetic part, the running damping dissipation and
the weighted bending energy, all from the norms a run already records.  For
well-posed data it must stay below a data-dependent functional times a
generous safety factor; the sharp theoretical constant is not computable,
so the monitor is a regression tripwire rather than a proof checker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import ConfigurationError, require_real


def energy(vel_norm, curv_norm, g0: float, mu0: float, dt: float):
    """Energy columns (kinetic, dissipated, elastic, total) of a run.

    Built from the norms ||dU^n|| and ||D2 U^n|| a run records per level:
    kinetic ||dU^n||^2 / 2, elastic (mu0/4) ||D2 U^n||^2 and the running
    dissipation g0 * dt * sum of ||dU^m||^2 over the levels after the
    first.  All are non-negative and the dissipation is non-decreasing.
    """
    v = np.asarray(vel_norm, dtype=float)
    kinetic = 0.5 * v**2
    elastic = 0.25 * mu0 * np.asarray(curv_norm, dtype=float) ** 2
    dissipated = np.concatenate([[0.0], np.cumsum(g0 * dt * v[1:] ** 2)])
    return kinetic, dissipated, elastic, kinetic + dissipated + elastic


def data_functional(state) -> float:
    """Data-dependent bound shape the energy of a one-member run is
    measured against.

    ||dU^1||^2 + (1 + 2 C0 + 2 C0^2/mu0) ||D2 U^0||^2 + dt^2 ||D2 dU^1||^2
    + (L1 norm of the forcing)^2, all on the state's grid, with C0 = K0
    and mu0 from its kernel tables.  U^0 and the discrete initial velocity
    dU^1, the samples of u1 up to roundoff, are read from the state's sine
    coefficients and the D2 norms from its eigenvalues lambda, as
    h ||lambda W||^2, so no initial datum is sampled or transformed again.
    The L1 norm is the composite-trapezoid integral of the norms
    ||f(., t_m)|| that the run recorded at its levels
    (:attr:`SolverState.forcing_norms`), so the forcing is not sampled
    again either.
    """
    dt, h, lam = state.dt, state.grid.h, state._eigs
    C0, mu0 = state.tables.K0, state.tables.mu0
    dU1, C = state._history[0, 0], lam * state._U0[0]
    C1 = lam * dU1
    norms = state.forcing_norms
    f1 = dt * (0.5 * norms[0] + norms[1:-1].sum() + 0.5 * norms[-1])
    return (h * (dU1 @ dU1)
            + (1.0 + 2.0 * C0 + 2.0 * C0**2 / mu0) * (h * (C @ C))
            + dt**2 * (h * (C1 @ C1))
            + f1**2)


@dataclass(frozen=True)
class StabilityVerdict:
    """The largest total energy, the bound it is held to, and the first
    step whose energy exceeds the bound, None when none does: then, and
    only then, the verdict passes."""

    max_total: float
    bound: float
    first_violation: int | None = None
    passed = property(lambda self: self.first_violation is None)

    def __str__(self) -> str:
        if self.passed:
            return (f"PASS: max energy {self.max_total:.6e} within bound "
                    f"{self.bound:.6e}")
        return (f"FAIL: energy {self.max_total:.6e} exceeds bound "
                f"{self.bound:.6e} first at step {self.first_violation}")


#: The default safety factor of :func:`stability_monitor`, deliberately
#: loose so that only genuine blow-ups trip it.
DEFAULT_SAFETY = 1e3


def require_safety(safety) -> None:
    """The one rule for a safety factor: a real number (``bool`` excluded)
    of at least 1 and finite; anything else is a ConfigurationError.  A
    factor below 1 makes the bound no bound, and an infinite or NaN one a
    PASS that nothing could fail."""
    require_real(safety, "safety factor")
    if not 1.0 <= safety < np.inf:
        raise ConfigurationError(f"safety factor must be at least 1 and finite (got {safety!r})")


def stability_monitor(steps, total, data_functional: float,
                      safety: float = DEFAULT_SAFETY) -> StabilityVerdict:
    """PASS iff the total energy never exceeds safety * data_functional.

    ``steps`` labels the entries of ``total``; the first violating one is
    reported otherwise; a total that is not finite violates the bound.
    ``safety`` stands in for the uncomputable constant of the underlying
    estimate and must pass :func:`require_safety`.  A data functional that
    is not a real number or not finite, the data's fault, a bound that
    overflows, and ``steps`` and ``total`` of different lengths raise
    :class:`ConfigurationError`.
    """
    require_safety(safety)
    require_real(data_functional, "stability data functional")
    # Data can make it infinite: say a forcing singular at t = 0, a level a
    # run samples for its norm alone.
    if not np.isfinite(data_functional):
        raise ConfigurationError(
            f"stability data functional {data_functional:.6e} is not finite; it sums norms "
            "of the initial data and of the forcing at every level, t = 0 included")
    bound = safety * data_functional
    if not np.isfinite(bound):
        raise ConfigurationError(
            f"stability bound: safety factor {safety:.6e} times data functional "
            f"{data_functional:.6e} is not finite")
    total = np.asarray(total, dtype=float)
    if len(steps) != total.size:
        raise ConfigurationError(f"stability steps and total energies differ in length "
                                 f"(got {len(steps)} steps and {total.size} energies)")
    over = np.flatnonzero(~(total <= bound))
    return StabilityVerdict(
        max_total=float(np.max(total, initial=0.0)), bound=bound,
        first_violation=int(steps[over[0]]) if over.size else None)
