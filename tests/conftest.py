"""Shared fixtures and independent quadrature oracles.

The oracles deliberately avoid the implementation paths under test: the
kernel density is re-evaluated from its formula, tails come from direct
adaptive quadrature of the density (QAGS handles the integrable endpoint
singularity), antiderivatives from single-fold quadrature of the oracle
tail, and convolution weights from brute-force double integration.  The
dense fourth-difference oracle is built column by column from the stencil
itself, never from the sine eigen-decomposition the stepper uses.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, dblquad, quad
from scipy.special import gamma as gamma_fn

from viscobeam import KernelSpec, NO_MEMORY, OSCILLATORY, fourth_difference


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def dense_fourth_difference(grid) -> np.ndarray:
    """Dense hinged D4: fourth_difference applied to the identity's columns."""
    return np.column_stack([fourth_difference(e, grid)
                            for e in np.eye(grid.n_interior)])


def oracle_beta(spec: KernelSpec, s: float) -> float:
    if spec.family == NO_MEMORY:
        return 0.0
    g = spec.gamma if spec.family == OSCILLATORY else 0.0
    return (math.exp(-spec.sigma * s) * s ** (spec.alpha - 1.0)
            * math.cos(g * s) / gamma_fn(spec.alpha))


def oracle_tail(spec: KernelSpec, t: float) -> float:
    """K(t) by adaptive quadrature of the density with a truncated tail.

    The exponential tempering bounds the discarded remainder beyond
    t + 45/sigma far below 1e-15.
    """
    if spec.family == NO_MEMORY:
        return 0.0
    upper = t + 45.0 / spec.sigma
    with warnings.catch_warnings():
        # At the weak endpoint singularity QAGS falls back to its epsilon
        # extrapolation and warns about roundoff; the extrapolated value is
        # the one wanted here and meets the asserted tolerances.
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda s: oracle_beta(spec, s), t, upper,
                      epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def oracle_tail_antiderivatives(spec: KernelSpec, t: float) -> tuple[float, float]:
    """(J1, J2) via quadrature of the oracle tail; J2 uses the repeated-
    integration identity J2(t) = integral of (t - s) K(s)."""
    j1, _ = quad(lambda s: oracle_tail(spec, s), 0.0, t,
                 epsabs=1e-11, epsrel=1e-11, limit=200)
    j2, _ = quad(lambda s: (t - s) * oracle_tail(spec, s), 0.0, t,
                 epsabs=1e-11, epsrel=1e-11, limit=200)
    return j1, j2


def oracle_weight(spec: KernelSpec, dt: float, n: int, p: int) -> float:
    """w[n, p] by brute-force nested quadrature of the defining double
    integral of K(t - s) over the (step n) x (history panel p) cell.

    Tolerances are relaxed to ~1e-8 absolute: every inner evaluation is
    itself an adaptive integral of the (weakly singular) density, and the
    weights being certified are O(1e-2).
    """
    def tail(t):
        upper = t + 45.0 / spec.sigma
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(lambda s: oracle_beta(spec, s), t, upper,
                          epsabs=1e-10, epsrel=1e-10, limit=100)
        return val

    tn1, tn = (n - 1) * dt, n * dt
    tp1, tp = (p - 1) * dt, p * dt
    val, _ = dblquad(lambda s, t: tail(t - s),
                     tn1, tn,
                     lambda t: tp1,
                     (lambda t: min(t, tp)) if p == n else (lambda t: tp),
                     epsabs=5e-9, epsrel=1e-8)
    return val / dt
