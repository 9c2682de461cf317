"""Shared fixtures and independent quadrature oracles.

The oracles deliberately avoid the implementation paths under test: the
kernel density is re-evaluated from its formula, the tail K in closed form
through the incomplete gamma function and the complex erfc (one test
checks it against adaptive quadrature of the density), antiderivatives
come from single-fold quadrature of that tail, and convolution weights
from adaptive double integration of it over each cell; the truncated
moments of the non-oscillatory density are in closed form too.  The
grid-space difference quotients below are the stencils themselves, never
the sine eigen-decomposition the solver uses, and the dense
fourth-difference oracle is built from them column by column.  The
per-level step system repeats the stepper's formula with the forcing of
each level transformed on its own and the direct history sum, one gemv
over all rows, so blocked forcing can be checked bit for bit against it
and the blocked history sum against a summation bound.  The forcing's L1
norm is integrated from samples taken afresh, and the long-double oracle
runs the scheme in its displacement form, with direct history sums, to
check the solver's roundoff.  The error metrics difference the final
solutions of single runs, one pair per call, so the study's lockstep
batches can be checked against them bit for bit.  The scalar tail
antiderivatives read the library's moment evaluator on a grid uniform in
u = s**alpha rather than the tables' uniform time grid.

``zero_problem`` builds the beam at rest without load or memory, with
any of its fields replaced, and ``assert_same_run`` compares two runs by
everything a state shows: its newest level, its forcing norms and its
series, bit for bit.  ``traced_peak`` is the tracemalloc peak of a call.
"""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import erfc, gammainc, gammaincc
from scipy.special import gamma as gamma_fn

from viscobeam import (DampingFunction, Grid, KernelSpec, KernelTables, NO_MEMORY,
                       OSCILLATORY, ProblemSpec, SolverConfig, initialize, norm, run,
                       second_difference_eigenvalues, sine_transform, step)
from viscobeam.kernel import _grid_moments


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def traced_peak(call) -> int:
    """The peak in bytes that tracemalloc traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_problem(**fields) -> ProblemSpec:
    """The beam at rest: zero u0, u1 and forcing, damping G = 1 + v, no
    memory and T = 1, each replaced by its entry in ``fields``."""
    return ProblemSpec(**{"u0": _zero, "u1": _zero, "forcing": lambda x, t: _zero(x),
                          "damping": DampingFunction.affine(1.0, 1.0),
                          "kernel": KernelSpec(family=NO_MEMORY), "T": 1.0, **fields})


def assert_same_run(a, b) -> None:
    """Two one-member states at the same level, with the same bits in their
    newest level, their forcing norms and every column of their series."""
    assert a.n == b.n
    assert a.U_prev.tobytes() == b.U_prev.tobytes()
    assert a.forcing_norms.tobytes() == b.forcing_norms.tobytes()
    sa, sb = a.series(), b.series()
    for f in dataclasses.fields(sa):
        assert getattr(sa, f.name).tobytes() == getattr(sb, f.name).tobytes(), f.name


def _interior(W, grid) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.shape != (grid.n_interior,):
        raise ValueError(
            f"interior vector has shape {W.shape}, expected ({grid.n_interior},)")
    return W


def second_difference(W, grid) -> np.ndarray:
    """Second difference quotient with zero boundary values.

    Neighbours are summed before the centre term is subtracted, which makes
    the operator commute with the mirror j -> J-j exactly in floating point.
    """
    W = _interior(W, grid)
    padded = np.zeros(grid.n_interior + 2)
    padded[1:-1] = W
    return ((padded[2:] + padded[:-2]) - 2.0 * W) / grid.h**2


def fourth_difference(W, grid) -> np.ndarray:
    """Fourth difference quotient with the odd ghost extension
    W_{-1} = -W_1, W_{J+1} = -W_{J-1}.

    Equals second_difference applied twice; mirror-equivariant exactly (see
    second_difference).
    """
    W = _interior(W, grid)
    padded = np.zeros(grid.n_interior + 4)
    padded[2:-2] = W
    padded[0] = -W[0]
    padded[-1] = -W[-1]
    return ((padded[4:] + padded[:-4])
            - 4.0 * (padded[3:-1] + padded[1:-3])
            + 6.0 * padded[2:-2]) / grid.h**4


def inner(V, W, grid) -> float:
    """Discrete L2 inner product h * sum_j V_j W_j."""
    return float(grid.h * np.dot(_interior(V, grid), _interior(W, grid)))


def max_norm(W) -> float:
    W = np.asarray(W, dtype=float)
    return float(np.max(np.abs(W))) if W.size else 0.0


def solve_levels(problem, grid, N, config=None):
    """Final state and the grid values U^0..U^N of a run, level by level."""
    config = config or SolverConfig()
    state = initialize(problem, grid, N)
    levels = [state.U0, state.U_prev]
    while state.n <= N:
        step(state, config)
        levels.append(state.U_prev)
    return state, levels


def _final_solution(problem, J: int, N: int, config) -> np.ndarray:
    return run(problem, Grid(J), N, config)[0].U_prev


def temporal_error(problem, grid, N: int, config=None) -> float:
    """Discrete L2 distance at t = T between the runs with N and 2N steps."""
    coarse = _final_solution(problem, grid.J, N, config)
    return norm(coarse - _final_solution(problem, grid.J, 2 * N, config), grid)


def spatial_error(problem, J: int, N: int, config=None) -> float:
    """Distance at t = T between grids J and 2J at fixed step count,
    coarse node j against fine node 2j, in the coarse grid's norm."""
    coarse = _final_solution(problem, J, N, config)
    fine = _final_solution(problem, 2 * J, N, config)
    return norm(coarse - fine[1::2], Grid(J))


def assemble_per_level(state):
    """``assemble_step_system`` with one forcing sample and one transform
    per level and the history sum as one gemv over all rows: with the
    weights and tail zeroed, the same (r, D) bit for bit.  The elastic
    term is the stepper's mu0 lambda C, on the carried curvature
    coefficients.  It records the level's forcing norm as the stepper
    does for a block."""
    n, N, dt, tables = state.n, state.n_steps, state.dt, state.tables
    lam, f = state._eigs[None], np.empty(state._C.shape)
    lam2 = lam ** 2
    for i, problem in enumerate(state.problems):
        f[i] = problem.forcing(state.grid.x, n * dt)
    state._records[:, 4, n] = np.sqrt(state.grid.h * np.vecdot(f, f))
    mem = np.matmul(np.ascontiguousarray(tables.weights[..., ::-1])[..., None, N - n:N - 1],
                    state._history[:, : n - 1])[:, 0]
    r = (sine_transform(f) + state._history[:, n - 2] / dt
         - (tables.mu0 * lam * state._C
            + lam2 * (mem + tables.tail[..., n:n + 1] * state._U0)))
    return r, 1.0 / dt + (tables.mu0 * dt + tables.weights[..., :1]) * lam2


def forcing_norms(problem, grid, dt: float, n_steps: int) -> np.ndarray:
    """sqrt(h) ||f(., t_m)|| at levels 0..n_steps, from forcing samples
    taken here one level at a time."""
    return np.array([math.sqrt(grid.h * np.sum(np.broadcast_to(
        problem.forcing(grid.x, m * dt), grid.x.shape) ** 2)) for m in range(n_steps + 1)])


def trapezoid(values, dt: float) -> float:
    """Composite-trapezoid integral of equally spaced samples."""
    return dt * (0.5 * values[0] + math.fsum(values[1:-1]) + 0.5 * values[-1])


def forcing_l1_norm(problem, grid, dt: float, n_steps: int) -> float:
    """Composite-trapezoid integral of ||f(., t)|| over the run's time grid."""
    return trapezoid(forcing_norms(problem, grid, dt, n_steps), dt)


def long_double_solution(problem, grid, N: int, tol: float = 1e-16) -> np.ndarray:
    """Sine coefficients of U^N of the scheme, stepped in long double.

    The scheme's inputs are float64 values made as the solver makes them:
    U^0 and U^1 = U^0 + dt u1 from one transform of the samples of u0 and
    u1, lambda^2, the weights, the tail, mu0 and each level's transformed
    forcing.  Each level solves the displacement form mode by mode,

        (1/dt^2 + G/dt + (mu0 + w[0]/dt) lambda^2) U^n
          = f^n + (2 U^{n-1} - U^{n-2})/dt^2 + (G/dt) U^{n-1}
            + lambda^2 ((w[0]/dt) U^{n-1} - mem - K(t_n) U^0),

    with mem the direct history sum over dU^1..dU^{n-1}, and iterates G
    from 2 U^{n-1} - U^{n-2} until the iterate moves by at most
    ``tol * max(1, ||U^n||)``.  The damping law's own callable is applied
    to the long-double argument.  Its 1/dt^2 terms cost about 1e-19 N^2
    of relative accuracy, so at N = 4096 it is good to about 1e-12 at
    worst and far better in practice.
    """
    ld, step_size = np.longdouble, problem.T / N
    dt, h = ld(step_size), ld(grid.h)
    tables = KernelTables.build(problem.kernel, step_size, N)
    lam2, mu0 = (second_difference_eigenvalues(grid) ** 2).astype(ld), ld(tables.mu0)
    w, tail = tables.weights.astype(ld), tables.tail.astype(ld)
    U0, u1 = sine_transform(np.stack([problem.u0(grid.x), problem.u1(grid.x)]))
    U = np.zeros((N + 1, grid.n_interior), dtype=ld)
    U[0], U[1] = U0, U0 + step_size * u1
    dU = np.zeros_like(U)
    dU[1] = (U[1] - U[0]) / dt
    for n in range(2, N + 1):
        f_hat = sine_transform(np.broadcast_to(
            problem.forcing(grid.x, n * step_size), grid.x.shape)).astype(ld)
        mem = w[n - 1:0:-1] @ dU[1:n]
        fixed = (f_hat + (2 * U[n - 1] - U[n - 2]) / dt**2
                 + lam2 * (w[0] / dt * U[n - 1] - mem - tail[n] * U[0]))
        diag = 1 / dt**2 + (mu0 + w[0] / dt) * lam2
        Un = 2 * U[n - 1] - U[n - 2]
        for _ in range(200):
            G = ld(problem.damping.fn(h * np.sum(lam2 * Un * Un)))
            nxt = (fixed + G / dt * U[n - 1]) / (diag + G / dt)
            moved = np.sqrt(h * np.sum((nxt - Un) ** 2))
            Un = nxt
            if moved <= tol * max(1, np.sqrt(h * np.sum(Un * Un))):
                break
        else:
            raise AssertionError(f"long-double fixed point stalled at level {n}")
        U[n], dU[n] = Un, (Un - U[n - 1]) / dt
    return U[N]


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
    """K(t), the integral of beta over (t, infinity), in closed form.

    With z = sigma - i*gamma it is Re[z**-alpha * Gamma(alpha, z*t) / Gamma(alpha)]:
    sigma**-alpha * Q(alpha, sigma*t) for the non-oscillatory family, with
    Q the regularized upper incomplete gamma function, and for the
    oscillatory one Re[exp(-z*t) / z] at alpha = 1 and
    Re[z**-0.5 * erfc(sqrt(z*t))] at alpha = 1/2.
    """
    if spec.family == NO_MEMORY:
        return 0.0
    if spec.family != OSCILLATORY:
        return float(spec.sigma ** -spec.alpha * gammaincc(spec.alpha, spec.sigma * t))
    z = complex(spec.sigma, -spec.gamma)
    if spec.alpha == 1.0:
        return (cmath.exp(-z * t) / z).real
    return float((z ** -0.5 * erfc(cmath.sqrt(z * t))).real)


def oracle_moment(alpha: float, sigma: float, k: int, t):
    """M_k(t), the integral of s**k * exp(-sigma s) * s**(alpha-1) / Gamma(alpha)
    over (0, t), in closed form through the regularized lower incomplete
    gamma function P:

        M_k(t) = Gamma(alpha + k) / Gamma(alpha) * sigma**(-alpha - k) * P(alpha + k, sigma t).

    With sigma the non-oscillatory kernel's rate these are the truncated
    moments of beta; ``t`` may be an array."""
    return (gamma_fn(alpha + k) / gamma_fn(alpha) * sigma ** (-alpha - k)
            * gammainc(alpha + k, sigma * t))


def tail_antiderivatives(spec: KernelSpec, t: float) -> tuple[float, float]:
    """(J1, J2) at one time t >= 0 from the last entry of
    ``kernel._grid_moments`` on a grid uniform in u = s**alpha, with panels
    at most 0.25 wide there, through J1 = M1 + t K and
    J2 = t M1 - M2/2 + t^2 K/2."""
    u = t ** spec.alpha
    ts = np.linspace(0.0, u, max(1, math.ceil(u / 0.25)) + 1) ** (1.0 / spec.alpha)
    ts[-1] = t
    tail, m1, m2 = (m[-1] for m in _grid_moments(spec, ts))
    return float(m1 + t * tail), float(t * m1 - 0.5 * m2 + 0.5 * t * t * tail)


def oracle_tail_antiderivatives(spec: KernelSpec, t: float) -> tuple[float, float]:
    """(J1, J2) via quadrature of the oracle tail; J2 uses the repeated-
    integration identity J2(t) = integral of (t - s) K(s)."""
    j1, _ = quad(lambda s: oracle_tail(spec, s), 0.0, t,
                 epsabs=1e-11, epsrel=1e-11, limit=200)
    j2, _ = quad(lambda s: (t - s) * oracle_tail(spec, s), 0.0, t,
                 epsabs=1e-11, epsrel=1e-11, limit=200)
    return j1, j2


def oracle_weight(spec: KernelSpec, dt: float, n: int, p: int) -> float:
    """w[n, p] by adaptive double integration of the defining integral of
    K(t - s) over the (step n) x (history panel p) cell, with the
    closed-form tail as integrand."""
    tn1, tn = (n - 1) * dt, n * dt
    tp1, tp = (p - 1) * dt, p * dt
    val, _ = dblquad(lambda s, t: oracle_tail(spec, t - s),
                     tn1, tn,
                     lambda t: tp1,
                     (lambda t: min(t, tp)) if p == n else (lambda t: tp),
                     epsabs=1e-13, epsrel=1e-12)
    return val / dt
