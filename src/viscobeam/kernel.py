"""Memory kernels, their integrated tails, and product-integration weights.

The viscoelastic memory term convolves the bending load with a tempered
power-law kernel

    beta(t) = exp(-sigma*t) * t**(alpha-1) * cos(gamma*t) / Gamma(alpha)

(oscillatory family; the non-oscillatory family drops the cosine).  The
time stepper never uses beta directly: integrating the convolution by
parts moves it onto the velocity, weighted by the integrated tail

    K(t) = integral of beta over (t, infinity).

Everything the solver needs derives from K and its antiderivatives

    J1(t) = integral of K over (0, t),      J2(t) = integral of J1 over (0, t),

because the averaged product-integration weights reduce exactly to second
differences of J2.  Rather than integrating K numerically, this module
evaluates the truncated moments of beta,

    M_k(t) = integral of s**k * beta(s) over (0, t),

and uses the identities (obtained by swapping the order of integration)

    K(t)  = K(0) - M_0(t),
    J1(t) = M_1(t) + t*K(t),
    J2(t) = t*M_1(t) - M_2(t)/2 + t**2*K(t)/2.

One vectorized evaluator, ``_grid_moments``, produces (K, M_1, M_2) on a
whole time grid: elementary closed forms (alpha = 1), regularized
incomplete gamma functions (non-oscillatory), or panel-wise
Gauss-Legendre sums after the substitution s = u**2 (oscillatory
alpha = 1/2, where the incomplete gamma would need a complex argument).
``KernelTables.build`` uses it on the time grid and is the only path to
the weights; the tables derive mu0 = 1 - K(0) from their K0.  The scalar
``kernel_tail`` and ``tail_antiderivatives`` read its last entry on a
short grid ending at the requested time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import math

import numpy as np
from scipy import special

OSCILLATORY = "oscillatory"
NON_OSCILLATORY = "non_oscillatory"
NO_MEMORY = "none"

_FAMILIES = (OSCILLATORY, NON_OSCILLATORY, NO_MEMORY)

#: Gauss-Legendre order for the per-panel moment quadratures.  Panels are
#: at most one time step wide on the tables' grid and at most _U_PANEL wide
#: in u = sqrt(s) for a single time, and the substituted integrand is
#: entire, so this is far inside the regime where the rule is exact to
#: roundoff.
_GL_ORDER = 24
_U_PANEL = 0.25

#: Points used when certifying that the tail never exceeds its value at
#: zero (so the running maximum C0 equals K(0)).
_C0_SAMPLES = 1024


class ConfigurationError(ValueError):
    """A kernel/problem specification violates its stated parameter ranges."""


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of the memory kernel family.

    ``sigma`` is the exponential tempering rate, ``alpha`` the power-law
    exponent and ``gamma`` the oscillation frequency (oscillatory family
    only).  ``family="none"`` encodes the degenerate memory-free kernel
    beta = 0, useful for testing against exact memory-free dynamics.
    """

    family: str = NO_MEMORY
    sigma: float = 2.0
    gamma: float = 0.0
    alpha: float = 1.0

    def violations(self) -> list[str]:
        """Return human-readable descriptions of violated parameter ranges."""
        errs = []
        if self.family not in _FAMILIES:
            return [f"unknown kernel family {self.family!r}; "
                    f"expected one of {_FAMILIES}"]
        if self.family == NO_MEMORY:
            return errs
        if not self.sigma > 1.0:
            errs.append(
                f"kernel tempering rate sigma must be > 1 (got {self.sigma}); "
                "otherwise the tail mass K(0) is not below 1")
        if self.family == OSCILLATORY:
            if not 0.0 <= self.gamma <= self.sigma:
                errs.append(
                    f"oscillation frequency gamma must satisfy 0 <= gamma <= sigma "
                    f"(got gamma={self.gamma}, sigma={self.sigma})")
            if self.alpha not in (0.5, 1.0):
                errs.append(
                    f"oscillatory kernel supports alpha in {{1/2, 1}} only "
                    f"(got {self.alpha})")
        else:
            if not 0.0 < self.alpha <= 1.0:
                errs.append(
                    f"non-oscillatory kernel needs alpha in (0, 1] "
                    f"(got {self.alpha})")
            if self.gamma != 0.0:
                errs.append(
                    f"gamma={self.gamma} is meaningless for the "
                    "non-oscillatory family; use the oscillatory family or "
                    "set gamma to 0")
        return errs

    def require_valid(self) -> "KernelSpec":
        errs = self.violations()
        if errs:
            raise ConfigurationError("; ".join(errs))
        return self

    @property
    def has_memory(self) -> bool:
        return self.family != NO_MEMORY


def beta_eval(spec: KernelSpec, t):
    """Evaluate the memory kernel beta at time(s) ``t``.

    Raises for non-positive times when ``alpha < 1`` (the power law is
    singular at zero).  Accepts scalars or arrays.
    """
    spec.require_valid()
    t_arr = np.asarray(t, dtype=float)
    if spec.family == NO_MEMORY:
        out = np.zeros_like(t_arr)
        return float(out) if np.isscalar(t) else out
    if spec.alpha < 1.0 and np.any(t_arr <= 0.0):
        raise ValueError("beta is singular at t <= 0 for alpha < 1")
    if np.any(t_arr < 0.0):
        raise ValueError("beta is defined for t >= 0 only")
    out = np.exp(-spec.sigma * t_arr) * t_arr ** (spec.alpha - 1.0)
    if spec.family == OSCILLATORY:
        out = out * np.cos(spec.gamma * t_arr)
    out = out / special.gamma(spec.alpha)
    return float(out) if np.isscalar(t) else out


def _tail_mass(spec: KernelSpec) -> float:
    """K(0), the total integral of beta: Re[(sigma - i*gamma)**(-alpha)]."""
    if spec.family == NO_MEMORY:
        return 0.0
    gamma = spec.gamma if spec.family == OSCILLATORY else 0.0
    return float(((spec.sigma - 1j * gamma) ** -spec.alpha).real)


def _moments_at(spec: KernelSpec, t: float):
    """(K, M1, M2) at one time t >= 0: the last entry of _grid_moments.

    Only the oscillatory alpha = 1/2 branch accumulates panels; it gets a
    grid uniform in sqrt(s) with panels at most _U_PANEL wide there.  The
    other branches are pointwise, so the grid is just [0, t].
    """
    panels = 1
    if spec.family == OSCILLATORY and spec.alpha == 0.5:
        panels = max(1, math.ceil(math.sqrt(t) / _U_PANEL))
    ts = np.linspace(0.0, math.sqrt(t), panels + 1) ** 2
    ts[-1] = t
    tail, m1, m2 = _grid_moments(spec, ts)
    return tail[-1], m1[-1], m2[-1]


def kernel_tail(spec: KernelSpec, t: float) -> float:
    """Integrated tail K(t) of the memory kernel."""
    spec.require_valid()
    if t < 0.0:
        raise ValueError("kernel tail is defined for t >= 0")
    return float(_moments_at(spec, t)[0])


def tail_antiderivatives(spec: KernelSpec, t: float) -> tuple[float, float]:
    """First and second antiderivatives (J1, J2) of the tail at time ``t``.

    Both vanish at zero.  J1' = K and J2'' = K, so whenever the tail stays
    non-negative J1 is non-decreasing and J2 convex; strongly oscillatory
    tails may dip below zero, but J1 stays positive and J2 non-decreasing.
    """
    spec.require_valid()
    if t < 0.0:
        raise ValueError("antiderivatives are defined for t >= 0")
    if spec.family == NO_MEMORY or t == 0.0:
        return 0.0, 0.0
    tail, m1, m2 = _moments_at(spec, t)
    j1 = m1 + t * tail
    j2 = t * m1 - 0.5 * m2 + 0.5 * t * t * tail
    return float(j1), float(j2)


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the _GL_ORDER rule, computed on first use and
    shared read-only."""
    rule = np.polynomial.legendre.leggauss(_GL_ORDER)
    for part in rule:
        part.flags.writeable = False
    return rule


def _grid_moments(spec: KernelSpec, ts: np.ndarray):
    """(K, M1, M2) on an increasing time grid starting at ts[0] = 0."""
    if spec.family == NO_MEMORY:
        z = np.zeros_like(ts)
        return z, z.copy(), z.copy()
    if spec.family == NON_OSCILLATORY:
        a, s = spec.alpha, spec.sigma
        tail = s ** -a * special.gammaincc(a, s * ts)
        m1 = a / s ** (a + 1) * special.gammainc(a + 1.0, s * ts)
        m2 = a * (a + 1) / s ** (a + 2) * special.gammainc(a + 2.0, s * ts)
        return tail, m1, m2
    if spec.alpha == 1.0:
        z = spec.sigma - 1j * spec.gamma
        zt = z * ts
        e = np.exp(-zt)
        m1 = ((1.0 - e * (1.0 + zt)) / z**2).real
        m2 = ((2.0 - e * (2.0 + 2.0 * zt + zt * zt)) / z**3).real
        tail = (e / z).real
        return tail, m1, m2
    # oscillatory alpha = 1/2: accumulate panel integrals in u = sqrt(s),
    # where the integrand is entire (no endpoint singularity left).
    s, g = spec.sigma, spec.gamma
    nodes, wts = _gauss_legendre()
    us = np.sqrt(ts)
    mid = 0.5 * (us[:-1] + us[1:])
    half = 0.5 * (us[1:] - us[:-1])
    u = mid[:, None] + half[:, None] * nodes[None, :]
    base = np.exp(-s * u * u) * np.cos(g * u * u)
    scale = 2.0 / math.sqrt(math.pi) * half
    m0 = np.concatenate([[0.0], np.cumsum(scale * (base @ wts))])
    m1 = np.concatenate([[0.0], np.cumsum(scale * ((base * u**2) @ wts))])
    m2 = np.concatenate([[0.0], np.cumsum(scale * ((base * u**4) @ wts))])
    tail = _tail_mass(spec) - m0
    return tail, m1, m2


def weights_from_second_antiderivative(j2: np.ndarray, dt: float) -> np.ndarray:
    """Convolution weights omega_k from J2 sampled at k*dt, k = 0..n.

    omega_0 = J2(dt)/dt and omega_k is the scaled second difference of J2
    at k*dt.  Exposed separately so tests can drive the weight formula with
    analytically known antiderivatives (e.g. a constant tail).
    """
    j2 = np.asarray(j2, dtype=float)
    n = len(j2) - 1
    if n < 1:
        raise ValueError("need J2 at least at t = 0 and t = dt")
    w = np.empty(n)
    w[0] = j2[1] / dt
    if n > 1:
        w[1:] = (j2[2:] - 2.0 * j2[1:-1] + j2[:-2]) / dt
    return w


@dataclass(frozen=True)
class KernelTables:
    """Precomputed kernel data shared by every step of one simulation.

    ``weights`` are the averaged product-integration weights
    omega_0..omega_{n_steps-1}, the only place they are formed.  The double
    integral of K(t - s) over each (time panel) x (history panel) cell is
    translation invariant, so the full weight matrix w[n, p] equals
    omega[n - p].  Where an oscillatory tail crosses zero inside the
    horizon, far weights inherit the sign of the local tail average and may
    be (slightly) negative.  ``K0 = K(0)`` is the tail mass, which
    :meth:`build` certifies to be the running maximum of the tail (the
    constant C0 of the stability estimate), and ``tail`` holds K at the
    time-grid nodes (the transformed equation sources the initial bending
    load through K(t_n)).  Two fields are derived on construction, so
    ``dataclasses.replace`` keeps them in step: ``mu0 = 1 - K0``, the
    elastic coefficient left after the memory transformation, and
    ``reversed_weights``, a contiguous copy of ``weights[::-1]``.
    Immutable after construction; safe to share between runs.
    """

    K0: float
    weights: np.ndarray
    tail: np.ndarray
    mu0: float = field(init=False)
    reversed_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mu0", 1.0 - self.K0)
        object.__setattr__(self, "reversed_weights",
                           np.ascontiguousarray(self.weights[::-1]))

    @classmethod
    def build(cls, spec: KernelSpec, dt: float, n_steps: int) -> "KernelTables":
        spec.require_valid()
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if n_steps < 1:
            raise ValueError("need at least one step")
        ts = dt * np.arange(n_steps + 1)
        tail, m1, m2 = _grid_moments(spec, ts)
        j2 = ts * m1 - 0.5 * m2 + 0.5 * ts * ts * tail
        weights = weights_from_second_antiderivative(j2, dt)
        k0 = _tail_mass(spec)
        if spec.has_memory:
            if not 0.0 < k0 < 1.0:
                raise ConfigurationError(
                    f"tail mass K(0) = {k0} outside (0, 1); "
                    "the transformed elastic coefficient would be non-positive")
            # Certify C0 = K(0), so callers may pass K0 as C0: the tail may
            # oscillate but must never exceed its initial value.
            probe = np.linspace(0.0, 40.0 / spec.sigma, _C0_SAMPLES)
            probe_tail, _, _ = _grid_moments(spec, probe)
            excess = float(np.max(probe_tail)) - k0
            if excess > 1e-10:
                raise ConfigurationError(
                    f"kernel tail exceeds its value at zero by {excess:g}; "
                    "running maximum C0 = K(0) does not hold")
        return cls(K0=k0, weights=weights, tail=tail)
