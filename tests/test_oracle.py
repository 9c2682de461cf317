"""Exact-error oracles with memory and nonlinear damping.

A manufactured solution u(x, t) = sin(pi x) * phi(t) with phi(0) = 1 solves
the original, untransformed equation

    u_tt + g(||D2 u||**2) u_t + D4 u - (beta * D4 u)(t) = f

once the load is f = sin(pi x) * [phi'' + g(E) phi' + kappa4 (phi - (beta * phi))],
with E = kappa4 phi**2 / 2 the discrete bending energy of the mode, and
u1 = phi'(0) sin(pi x).  The convolution is written through the truncated
moments M_k(t) of beta in closed form (``conftest.oracle_moment``).
kappa4 is the square of mode 1's discrete D2 eigenvalue, so the grid holds
the mode exactly and the error at t = T is the scheme's time error alone.
All cells take the non-oscillatory kernel alpha = 1/2, sigma = 1.5, and
a = b = 1 in the damping law:

- phi = 1 + t + t**2 on [0, 1], J = 32.  As
  phi(t - s) = phi(t) - phi'(t) s + s**2, the convolution is
  (beta * phi)(t) = phi M_0(t) - phi'(t) M_1(t) + M_2(t).  Two cells take
  it: affine damping g = a + b E, and sqrt_affine g = sqrt(a + b E).
- The long-time cell, on the kernel and horizon of the
  ``example2-longtime`` preset: phi = exp(-c t) (1 + t) with c = 1/4 on
  [0, 50], J = 64.  As phi(t - s) = exp(-c t) exp(c s) (1 + t - s), the
  convolution is (beta * phi)(t) = exp(-c t) [(1 + t) M_0(t) - M_1(t)],
  with the moments taken at sigma - c; affine damping.

Each check pins both the first-order rate and an error constant, which
sees defects that leave the rate alone.
"""

import dataclasses

import numpy as np
import pytest

from conftest import oracle_moment
from viscobeam import (NON_OSCILLATORY, DampingFunction, Grid, KernelSpec, KernelTables,
                       ProblemSpec, norm, rate, run, second_difference_eigenvalues, stepper)

ALPHA, SIGMA, A, B, J, T = 0.5, 1.5, 1.0, 1.0, 32, 1.0
STEPS = [16 * 2**i for i in range(7)]
AFFINE = DampingFunction.affine(A, B)
#: The long-time cell: phi's decay rate c, grid, horizon and step counts.
DECAY, LONG_J, LONG_T, LONG_STEPS = 0.25, 64, 50.0, [1250, 2500, 5000]


def quadratic(t):
    """phi = 1 + t + t**2, phi', phi'' and beta * phi at ``t``."""
    phi, dphi = 1.0 + t + t**2, 1.0 + 2.0 * t
    m0, m1, m2 = (oracle_moment(ALPHA, SIGMA, k, t) for k in range(3))
    return phi, dphi, 2.0, phi * m0 - dphi * m1 + m2


def decaying(t):
    """phi = exp(-c t) (1 + t), phi', phi'' and beta * phi at ``t``."""
    e = np.exp(-DECAY * t)
    m0, m1 = (oracle_moment(ALPHA, SIGMA - DECAY, k, t) for k in range(2))
    return (e * (1.0 + t), e * (1.0 - DECAY * (1.0 + t)),
            e * DECAY * (DECAY * (1.0 + t) - 2.0), e * ((1.0 + t) * m0 - m1))


def oracle_problem(grid: Grid, history, horizon: float,
                   damping: DampingFunction = AFFINE) -> ProblemSpec:
    """The manufactured problem on ``grid`` up to ``horizon`` for the phi,
    its derivatives and its convolution that ``history`` gives, damped by
    ``damping``."""
    kappa4 = second_difference_eigenvalues(grid)[0] ** 2
    law = np.vectorize(damping, otypes=[float])

    def forcing(x, t):
        # x has shape (1, J-1) and t shape (L, 1): the block contract.
        phi, dphi, ddphi, convolution = history(t)
        return np.sin(np.pi * x) * (ddphi + law(kappa4 * phi ** 2 / 2.0) * dphi
                                    + kappa4 * (phi - convolution))

    mode = lambda x: np.sin(np.pi * np.asarray(x, dtype=float))  # noqa: E731
    speed = history(0.0)[1]
    return ProblemSpec(u0=mode, u1=lambda x: speed * mode(x),
                       forcing=forcing, damping=damping,
                       kernel=KernelSpec(family=NON_OSCILLATORY, alpha=ALPHA, sigma=SIGMA),
                       T=horizon)


def exact_errors(history, J: int, horizon: float, steps,
                 damping: DampingFunction = AFFINE) -> tuple[list[float], float]:
    """Discrete L2 distances at t = horizon from the exact solution, for
    each of ``steps``, and the exact solution's norm there."""
    grid = Grid(J)
    problem = oracle_problem(grid, history, horizon, damping)
    exact = history(horizon)[0] * np.sin(np.pi * grid.x)
    return ([norm(run(problem, grid, N)[0].U_prev - exact, grid) for N in steps],
            norm(exact, grid))


def check_exact_errors(damping: DampingFunction = AFFINE, pin=(0.3100, 0.3115)):
    """The observed rates of the last two pairs of STEPS lie in [0.95, 1.05],
    and N * e at the last N in ``pin``."""
    errors, _ = exact_errors(quadratic, J, T, STEPS, damping)
    observed = [rate(e, f) for e, f in zip(errors, errors[1:])]
    assert all(0.95 <= rate <= 1.05 for rate in observed[-2:]), observed
    assert pin[0] <= STEPS[-1] * errors[-1] <= pin[1], errors


def check_sqrt_affine_errors():
    """:func:`check_exact_errors` with G = sqrt(a + b v), N * e in [0.5240, 0.5256]."""
    check_exact_errors(DampingFunction.sqrt_affine(A, B), (0.5240, 0.5256))


def check_long_time_errors():
    """The observed rate of the last pair of LONG_STEPS lies in [0.95, 1.05],
    and the error relative to ||u(T)|| at the last N in [7.29e-4, 7.34e-4]."""
    errors, size = exact_errors(decaying, LONG_J, LONG_T, LONG_STEPS)
    assert 0.95 <= rate(errors[-2], errors[-1]) <= 1.05, errors
    assert 7.29e-4 <= errors[-1] / size <= 7.34e-4, errors


def test_exact_error_converges_at_first_order():
    # Measured: errors 1.843e-2 (N = 16) down to 3.034e-4 (N = 1024); rates
    # 0.958, 0.982, 0.992, 0.996, 0.998, 0.999; N * e = 0.31072 at N = 1024.
    check_exact_errors()


def test_sqrt_affine_error_converges_at_first_order():
    # Measured: errors 3.0905e-2 (N = 16) down to 5.1254e-4 (N = 1024);
    # rates 0.9553, 0.9786, 0.9894, 0.9947, 0.9973, 0.9986; N * e = 0.52484.
    check_sqrt_affine_errors()


def test_long_time_error_converges_at_first_order():
    # Measured: errors 3.9527e-7, 1.9694e-7, 9.8294e-8 at N = 1250, 2500,
    # 5000; rates 1.0051, 1.0025; relative error 7.3140e-4 at N = 5000.
    check_long_time_errors()


def _weights_scaled(scale):
    def apply(monkeypatch):
        build = KernelTables.build

        def scaled(spec, dt, n_steps):
            tables = build(spec, dt, n_steps)
            return dataclasses.replace(tables, weights=scale(tables.weights))

        monkeypatch.setattr(KernelTables, "build", scaled)
    return apply


def _load_one_level_late(monkeypatch):
    run_batch = stepper.run_batch

    def late(problems, grid, N, config=None):
        return run_batch([dataclasses.replace(
            p, forcing=lambda x, t, f=p.forcing, dt=p.T / N: f(x, np.maximum(t - dt, 0.0)))
            for p in problems], grid, N, config)

    monkeypatch.setattr(stepper, "run_batch", late)


defects = pytest.mark.parametrize("defect", [
    _weights_scaled(lambda w: 1.02 * w),
    _weights_scaled(lambda w: np.concatenate([1.02 * w[:1], w[1:]])),
    _load_one_level_late,
], ids=["weights-x1.02", "omega0-x1.02", "load-one-level-late"])


# Self-convergence rates stay near 1 under each defect.  Measured: all
# weights x 1.02 stall the exact error (last two rates 0.793, -1.244);
# omega_0 x 1.02 gives N * e = 0.3084 and the load one level late 1.6496,
# both with the rates unchanged.
@defects
def test_oracle_catches_defect(defect, monkeypatch):
    defect(monkeypatch)
    with pytest.raises(AssertionError):
        check_exact_errors()


# Measured: all weights x 1.02 give last two rates -0.2064 and -0.0933;
# omega_0 x 1.02 gives N * e = 0.50230 and the load one level late 0.91092,
# with rates 1.0185 and 1.0139.
@defects
def test_sqrt_affine_oracle_catches_defect(defect, monkeypatch):
    defect(monkeypatch)
    with pytest.raises(AssertionError):
        check_sqrt_affine_errors()


# Measured: all weights x 1.02 give rates 0.147 and 0.079; omega_0 x 1.02
# a relative error of 8.874e-4 and the load one level late 3.040e-3.
@defects
def test_long_time_oracle_catches_defect(defect, monkeypatch):
    defect(monkeypatch)
    with pytest.raises(AssertionError):
        check_long_time_errors()
