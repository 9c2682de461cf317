"""Memory kernels, their integrated tails, and product-integration weights.

The viscoelastic memory term convolves the bending load with a tempered
power-law kernel

    beta(t) = exp(-sigma*t) * t**(alpha-1) * cos(gamma*t) / Gamma(alpha)

(oscillatory family; the non-oscillatory family drops the cosine).  The
scheme never uses beta directly: integrating the convolution by parts
moves it onto the velocity, weighted by the integrated tail

    K(t) = integral of beta over (t, infinity),

and the fully discrete scheme takes four quantities from the kernel, the
fields of :class:`KernelTables` and its property mu0: the tail mass K(0),
the elastic coefficient mu0 = 1 - K(0), the averaged product-integration
weights omega_k and the tail K(t_n) at the time-grid nodes.  This module
makes only those four; beta enters them only through its moments below.
The weights and the tail derive from K and its antiderivatives

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
whole time grid for every memory family.  It substitutes u = s**alpha,
which turns beta(s) ds into exp(-sigma*s) * cos(gamma*s) du / Gamma(alpha+1)
and so removes the endpoint singularity, and sums Gauss-Legendre panel
integrals cumulatively; the first panel is split geometrically in s toward
s = 0, where the integrand is only finitely smooth in u unless 1/alpha is
an integer.  The rule's nodes and weights are module constants, and the
panel sums are formed a fixed number of panels at a time, so their
scratch memory does not grow with the grid.  ``KernelTables.build`` uses
it on the time grid and forms the weights itself, as the second
differences of J2 there, with K(0) from the closed form ``KernelSpec.K0``;
``KernelTables.stack`` joins several runs' tables for a lockstep batch.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers

import numpy as np

OSCILLATORY = "oscillatory"
NON_OSCILLATORY = "non_oscillatory"
NO_MEMORY = "none"

_FAMILIES = (OSCILLATORY, NON_OSCILLATORY, NO_MEMORY)

#: The 24-point Gauss-Legendre rule on [-1, 1] for the per-panel moment
#: quadratures in u = s**alpha: its positive nodes (first row) and their
#: weights, as numpy.polynomial.legendre.leggauss(24) gives them; the rule
#: is exactly symmetric.  Each panel spans one step of the time grid.  The
#: first panel is split into _GRADED_LEVELS + 1 pieces whose ends shrink by
#: _GRADING_RATIO in s toward s = 0, so s grows by at most 1/_GRADING_RATIO
#: across every piece but the innermost, whatever alpha is; graded in u,
#: one piece would hold the integrand's steep drop near u = sigma**-alpha
#: for small alpha.  No bound is proved: against the closed form, at the
#: alphas sampled from 0.01 to 1, the tail is within 1e-14 for steps up to
#: 10; the worst case seen is 6.9e-11, at alpha = 0.01 and dt = 1000.
_GL_HALF_RULE = np.array([
    [0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
     0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
     0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213],
    [0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
     0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
     0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869]])
_GL_NODES, _GL_WEIGHTS = np.concatenate(
    [_GL_HALF_RULE[:, ::-1] * [[-1.0], [1.0]], _GL_HALF_RULE], axis=1)
_GRADED_LEVELS = 8
_GRADING_RATIO = 0.25
#: Panels per block of the moment sums, which bounds their scratch memory.
_PANEL_BLOCK = 512


class ConfigurationError(ValueError):
    """A kernel/problem specification violates its stated parameter ranges."""


def require_real(value, name: str) -> None:
    """The one type test of real inputs: a value that is not a real number
    (``bool`` included) is a ConfigurationError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number (got {value!r})")


def require_integer(value, name: str, least: int) -> None:
    """The one rule for step counts, ladder levels, grid sizes and iteration
    caps: a value that is not an integer (``bool`` included; a numpy
    integer is one) or is below ``least`` is a ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer (got {value!r})")
    if value < least:
        raise ConfigurationError(f"{name} must be at least {least} (got {value!r})")


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of the memory kernel family.

    ``sigma`` is the exponential tempering rate, ``alpha`` the power-law
    exponent and ``gamma`` the oscillation frequency (oscillatory family
    only).  ``family="none"`` encodes the degenerate memory-free kernel
    beta = 0, useful for testing against exact memory-free dynamics.
    A spec outside these ranges, or whose tail mass ``K0`` = K(0) rounds
    out of (0, 1), cannot be built.  Every spec that can be built has
    K(t) <= K0 for t >= 0, so K0 is the running maximum C0 of the
    stability estimate.  Proof: K(0) - K(t) is the integral I(t) of beta
    over (0, t), and I >= 0 in each case:
    - gamma = 0 or the non-oscillatory family: beta >= 0.
    - alpha = 1: I = [sigma - g(t)] / (sigma**2 + gamma**2), where
      g = exp(-sigma*t) * (sigma*cos(gamma*t) - gamma*sin(gamma*t)) has
      g(0) = sigma, g' = -(sigma**2 + gamma**2) exp(-sigma*t) cos(gamma*t)
      and later local maxima at gamma*t = 3*pi/2 + 2*k*pi, where
      g = gamma*exp(-sigma*t) <= sigma*exp(-3*pi/2) < sigma.
    - alpha = 1/2: with x = gamma*s and rho = sigma/gamma >= 1, I is a
      positive multiple of the integral of x**-0.5 * exp(-rho*x) * cos(x)
      over (0, gamma*t).  The weight decreases, so the lobes after the
      first half-lobe alternate in sign and shrink, and the smallest later
      partial integral is at x = 3*pi/2: 1.375 > 0 at rho = 1 (scipy quad).
      For rho > 1 the extra factor exp(-(rho - 1)*x) decreases, so by the
      second mean value theorem no partial integral turns negative.
    """

    family: str = NO_MEMORY
    sigma: float = 2.0
    gamma: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        """Raise a ConfigurationError that lists every violated range."""
        if self.family not in _FAMILIES:
            raise ConfigurationError(f"unknown kernel family {self.family!r}; "
                                     f"expected one of {_FAMILIES}")
        for name in ("sigma", "gamma", "alpha"):
            require_real(getattr(self, name), f"kernel {name}")
        errs = []
        if self.has_memory and not self.sigma > 1.0:
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
        elif self.family == NON_OSCILLATORY:
            if not 0.0 < self.alpha <= 1.0:
                errs.append(
                    f"non-oscillatory kernel needs alpha in (0, 1] "
                    f"(got {self.alpha})")
            if self.gamma != 0.0:
                errs.append(
                    f"gamma={self.gamma} is meaningless for the "
                    "non-oscillatory family; use the oscillatory family or "
                    "set gamma to 0")
        if errs:
            raise ConfigurationError("; ".join(errs))
        if self.has_memory and not 0.0 < self.K0 < 1.0:
            raise ConfigurationError(
                f"tail mass K(0) = {self.K0} outside (0, 1); "
                "the transformed elastic coefficient would be non-positive")

    @property
    def has_memory(self) -> bool:
        return self.family != NO_MEMORY

    @property
    def K0(self) -> float:
        """K(0), the total integral of beta: Re[(sigma - i*gamma)**(-alpha)]."""
        if not self.has_memory:
            return 0.0
        return float(((self.sigma - 1j * self.gamma) ** -self.alpha).real)


def _grid_moments(spec: KernelSpec, ts: np.ndarray):
    """(K, M1, M2) on an increasing time grid starting at ts[0] = 0."""
    if spec.family == NO_MEMORY:
        z = np.zeros_like(ts)
        return z, z.copy(), z.copy()
    a, sigma, gamma = spec.alpha, spec.sigma, spec.gamma
    grading = (ts[1] * _GRADING_RATIO ** np.arange(_GRADED_LEVELS, 0, -1)) ** a
    edges = np.concatenate([[0.0], grading, ts[1:] ** a])
    half = 0.5 * np.diff(edges)
    mid, scale = edges[:-1] + half, half / math.gamma(a + 1.0)
    sums = np.empty((3, len(half)))
    for i in range(0, len(half), _PANEL_BLOCK):
        b = slice(i, i + _PANEL_BLOCK)
        s = (mid[b, None] + half[b, None] * _GL_NODES) ** (1.0 / a)
        base = np.exp(-sigma * s) * np.cos(gamma * s) * scale[b, None]
        sums[:, b] = np.stack([base, base * s, base * s * s]) @ _GL_WEIGHTS
    m0, m1, m2 = np.concatenate([np.zeros((3, 1)),
                                 np.cumsum(sums, axis=1)[:, _GRADED_LEVELS:]], axis=1)
    return spec.K0 - m0, m1, m2


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
    :class:`KernelSpec` proves to be the running maximum of the tail (the
    constant C0 of the stability estimate), and ``tail`` holds K at the
    time-grid nodes (the transformed equation sources the initial bending
    load through K(t_n)).  ``mu0 = 1 - K0``, the elastic coefficient left
    after the memory transformation, is a property computed from K0, not a
    field, so nothing can set it out of step.  These four are all that the
    scheme takes from the kernel.  Immutable after construction; safe to
    share between runs.
    """

    K0: float
    weights: np.ndarray
    tail: np.ndarray
    mu0 = property(lambda self: 1.0 - self.K0)

    @classmethod
    def stack(cls, tables: list["KernelTables"]) -> "KernelTables":
        """The tables of several runs with one step count, as one: each
        field gains a leading member axis, K0 and mu0 as (B, 1) columns that
        broadcast against the members' rows.  One table comes back as is."""
        return tables[0] if len(tables) == 1 else cls(np.array([[t.K0] for t in tables]), *(
            np.stack([getattr(t, name) for t in tables]) for name in ("weights", "tail")))

    @classmethod
    def build(cls, spec: KernelSpec, dt: float, n_steps: int) -> "KernelTables":
        """The tables of ``spec`` on the time grid k dt, k = 0..n_steps.

        A step dt that is not positive and finite, such as T/N when it
        rounds to 0, a step count that is not an integer or is below 1,
        or a horizon N dt so long that a weight or a tail value is not
        finite (J2 grows like t**2, so it overflows past about 1e154) is a
        ConfigurationError that names it: bad input, not a failure of the
        run.  numpy warns of none of them."""
        require_real(dt, "time step T/N")
        if not 0.0 < dt < math.inf:
            raise ConfigurationError(f"time step T/N must be positive and finite (got {dt!r})")
        require_integer(n_steps, "step count N", 1)
        ts = dt * np.arange(n_steps + 1)
        # An overflow is reported below, as the error it is, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            tail, m1, m2 = _grid_moments(spec, ts)
            j2 = ts * m1 - 0.5 * m2 + 0.5 * ts * ts * tail
            # omega_0 = J2(dt)/dt; omega_k is the second difference of J2 at k*dt over dt.
            weights = np.concatenate([j2[1:2], j2[2:] - 2.0 * j2[1:-1] + j2[:-2]]) / dt
        # J2(t_k) holds K(t_k) for k >= 1 and K(0) = K0 is finite, so a tail
        # value that is not finite makes a weight so too.
        if not np.isfinite(weights).all():
            raise ConfigurationError(f"kernel tables overflow on the horizon N*dt = "
                                     f"{ts[-1]:.6g}; take a shorter horizon T")
        return cls(spec.K0, weights, tail)
