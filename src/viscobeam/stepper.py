"""Fully discrete time stepper: implicit two-level scheme with memory.

Each step n >= 2 solves the nonlinear system

    (U^n - 2U^{n-1} + U^{n-2})/dt^2  +  G(||D2 U^n||^2) (U^n - U^{n-1})/dt
      + mu0 * D4 U^n  +  sum_{p=1..n} w[n-p] * D4 dU^p
      =  f^n - K(t_n) * D4 U^0,

where D2/D4 are the hinged difference operators, dU^p the stored velocity
differences (U^p - U^{p-1})/dt and w the product-integration weights of the
kernel tail.  The p = n weight splits off the unknown, shifting the D4
coefficient to mu0 + w[0]/dt.  Under the hinged closure D4 = D2^2, and D2
is diagonal in the orthonormal sine basis, so with the damping
coefficient frozen the system is one division per sine mode.  Only that
scalar is nonlinear; it is resolved by fixed-point iteration on the
modal coefficients, with G evaluated from the modes.

The whole state lives in the sine basis: U^0, the two newest levels and
the velocity history are stored as coefficients, and grid values are made
only from the initial data, the forcing sample and on output.  Each step
therefore costs one O(n * J) convolution, one sine transform (of the
forcing) and O(J) per inner iteration.  The convolution is exact and runs
as one BLAS matrix-vector product, reading the weights forward from the
kernel tables' reversed copy: numpy keeps a negatively strided operand out
of BLAS and loops several times slower.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .grid_ops import (Grid, bending_energy, norm, second_difference_eigenvalues,
                       sine_transform)
from .kernel import KernelTables
from .model import ProblemSpec, damping_coefficient, require_valid

_CSV_BLOCK_ROWS = 1024


class NumericalError(RuntimeError):
    """A step failed numerically; ``step_index`` is the level being solved."""

    def __init__(self, step_index: int, message: str):
        super().__init__(message)
        self.step_index = step_index


class NonConvergenceError(NumericalError):
    """Fixed-point iteration exhausted its budget at some step."""

    def __init__(self, step_index: int, last_increment: float, max_iters: int):
        super().__init__(
            step_index,
            f"fixed-point iteration did not converge at step {step_index}: "
            f"increment {last_increment:.3e} after {max_iters} iterations")
        self.last_increment = last_increment
        self.max_iters = max_iters


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the per-step fixed-point solve and of run recording.

    ``fp_tol`` bounds the final fixed-point increment relative to the
    iterate's discrete L2 norm, or absolutely while that norm is below 1,
    so fields of any scale converge down to their own roundoff.
    """

    fp_tol: float = 1e-12
    fp_max_iters: int = 50
    record_energy: bool = False

    def __post_init__(self):
        if not self.fp_tol > 0.0:
            raise ValueError("fp_tol must be positive")
        if self.fp_max_iters < 1:
            raise ValueError("fp_max_iters must be at least 1")


@dataclass
class SolverState:
    """Mutable state of one simulation between steps, in the sine basis.

    ``n`` is the index of the next level to solve.  ``_U0``, ``_U1`` and
    ``_U2`` hold the sine coefficients of U^0, U^{n-1} and U^{n-2}; the
    velocity history lives in a preallocated buffer, row p-1 storing the
    coefficients of dU^p.  The properties return grid values.  Confine a
    state to one thread; the shared tables are read-only.
    """

    problem: ProblemSpec
    grid: Grid
    dt: float
    n_steps: int
    n: int
    tables: KernelTables
    _U0: np.ndarray = field(repr=False)
    _U1: np.ndarray = field(repr=False)
    _U2: np.ndarray = field(repr=False)
    _history: np.ndarray = field(repr=False)
    _eigs: np.ndarray = field(repr=False)  # of D2, in sine_transform order

    @property
    def U0(self) -> np.ndarray:
        """The initial level U^0."""
        return sine_transform(self._U0)

    @property
    def U_prev(self) -> np.ndarray:
        """The newest computed level U^{n-1}."""
        return sine_transform(self._U1)

    @property
    def U_prev2(self) -> np.ndarray:
        """The level before it, U^{n-2}."""
        return sine_transform(self._U2)

    @property
    def velocity_history(self) -> np.ndarray:
        """Rows dU^1..dU^{n-1}."""
        return sine_transform(self._history[: self.n - 1])


@dataclass
class StepInfo:
    """Per-step diagnostics recorded by :func:`run`."""

    n: int
    t: float
    vel_norm: float
    curv_norm: float
    damping: float
    fp_iters: int


@dataclass
class TimeSeries:
    """Per-step diagnostic records of one run, with optional energy columns.

    Serializable to CSV; identical runs produce identical series.
    """

    n: np.ndarray
    t: np.ndarray
    vel_norm: np.ndarray
    curv_norm: np.ndarray
    damping: np.ndarray
    fp_iters: np.ndarray
    kinetic: np.ndarray | None = None
    dissipated: np.ndarray | None = None
    elastic: np.ndarray | None = None
    total: np.ndarray | None = None

    @property
    def has_energy(self) -> bool:
        return self.total is not None

    def to_csv(self, path) -> None:
        cols = ["n", "t", "vel_norm", "curv_norm", "damping", "fp_iters"]
        if self.has_energy:
            cols += ["kinetic", "dissipated", "elastic", "total"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            # Rows go out in blocks: whole columns as Python lists would
            # raise the peak memory of a long run by about 1 MB.
            for i in range(0, len(self.n), _CSV_BLOCK_ROWS):
                block = (getattr(self, c)[i:i + _CSV_BLOCK_ROWS].tolist() for c in cols)
                writer.writerows(zip(*block))


def write_solution_csv(path, grid: Grid, U: np.ndarray) -> None:
    """Write the solution on all nodes (boundary zeros included) as x,u rows."""
    xs = np.concatenate([[0.0], grid.x, [1.0]])
    us = np.concatenate([[0.0], np.asarray(U, dtype=float), [0.0]])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "u"])
        writer.writerows(zip(xs.tolist(), us.tolist()))


def initialize(problem: ProblemSpec, grid: Grid, dt: float) -> SolverState:
    """Set up levels 0 and 1 and precompute kernel tables and eigenvalues.

    The first level is the explicit start U^1 = U^0 + dt * u1, which pins
    the discrete initial velocity dU^1 to the samples of u1 up to roundoff.
    The samples of u0 and u1 are the only grid values transformed here.
    """
    require_valid(problem)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n_steps = int(round(problem.T / dt))
    if n_steps < 1 or abs(n_steps * dt - problem.T) > 1e-9 * max(1.0, problem.T):
        raise ValueError(f"dt={dt} does not divide the horizon T={problem.T}")
    U0, u1 = sine_transform(np.stack([problem.u0(grid.x), problem.u1(grid.x)]))
    U1 = U0 + dt * u1
    tables = KernelTables.build(problem.kernel, dt, n_steps)
    history = np.zeros((n_steps, grid.n_interior))
    history[0] = (U1 - U0) / dt
    return SolverState(problem=problem, grid=grid, dt=dt, n_steps=n_steps,
                       n=2, tables=tables, _U0=U0, _U1=U1, _U2=U0,
                       _history=history,
                       _eigs=second_difference_eigenvalues(grid))


def assemble_step_system(state: SolverState) -> tuple[np.ndarray, ...]:
    """Level n's step system in the sine basis, with G left free.

    Returns sine coefficients ``(b, d, V, U)``: for a frozen damping
    coefficient G the coefficients of U^n solve, mode by mode,
    (d + G/dt) * U^n = b + (G/dt) * V, where V belongs to U^{n-1} and
    d = 1/dt^2 + (mu0 + w[0]/dt) * lambda^2 > 0.  ``b`` collects the
    forcing, the initial-load source, the inertia terms, the w[0] split
    and the history convolution; ``U`` is the start iterate
    2 U^{n-1} - U^{n-2}.  The forcing sample, broadcast over the grid when
    it is a scalar, is the only transform.
    """
    n, dt = state.n, state.dt
    w = state.tables.weights
    lam2 = state._eigs ** 2
    U1, U2 = state._U1, state._U2
    f_n = sine_transform(np.broadcast_to(
        state.problem.forcing(state.grid.x, n * dt), U1.shape))
    # w[n-1:0:-1], read forward so that the product is a BLAS gemv.
    w_rev = state.tables.reversed_weights
    mem = w_rev[len(w_rev) - n:len(w_rev) - 1] @ state._history[: n - 1]
    b = (f_n + (2.0 * U1 - U2) / dt**2
         + lam2 * ((w[0] / dt) * U1 - mem - state.tables.tail[n] * state._U0))
    return (b, 1.0 / dt**2 + (state.tables.mu0 + w[0] / dt) * lam2,
            U1, 2.0 * U1 - U2)


def step(state: SolverState, config: SolverConfig) -> StepInfo:
    """Advance the state by one level via fixed-point iteration.

    The G-free step system is assembled once, in the sine basis.  Starting
    from the linear extrapolation of the last two levels, each iterate
    freezes G at the previous one and divides mode by mode; the iteration
    stops when the iterate moves by at most ``fp_tol * max(1, ||U^n||)`` in
    the discrete L2 norm, which the orthonormal transform preserves.  A
    non-finite G or iterate raises :class:`NumericalError` at once.
    """
    if state.n > state.n_steps:
        raise ValueError(f"run is complete (n={state.n} > N={state.n_steps})")
    n, dt, grid = state.n, state.dt, state.grid
    lam = state._eigs
    b_hat, diag, U1_hat, U_hat = assemble_step_system(state)
    damping = state.problem.damping
    for it in range(1, config.fp_max_iters + 1):
        G_val = damping(bending_energy(U_hat, lam, grid.h))
        if not math.isfinite(G_val):
            raise NumericalError(
                n, f"damping coefficient G = {G_val!r} at step {n} is not finite")
        U_next = (b_hat + (G_val / dt) * U1_hat) / (diag + G_val / dt)
        increment = norm(U_next - U_hat, grid)
        if not math.isfinite(increment):
            raise NumericalError(n, f"non-finite iterate at step {n}")
        U_hat = U_next
        if increment <= config.fp_tol * max(1.0, norm(U_next, grid)):
            break
    else:
        raise NonConvergenceError(n, increment, config.fp_max_iters)

    state._history[n - 1] = (U_hat - state._U1) / dt
    state._U2, state._U1 = state._U1, U_hat
    state.n = n + 1
    return StepInfo(n=n, t=n * dt,
                    vel_norm=norm(state._history[n - 1], grid),
                    curv_norm=math.sqrt(bending_energy(U_hat, lam, grid.h)),
                    damping=G_val, fp_iters=it)


def run(problem: ProblemSpec, grid: Grid, N: int,
        config: SolverConfig | None = None) -> tuple[SolverState, TimeSeries]:
    """Initialize and solve levels 2..N; return final state and diagnostics.

    With N = 1 only the explicit start is performed.  Failures propagate
    with the failing step index attached.
    """
    config = config or SolverConfig()
    if N < 1:
        raise ValueError("N must be at least 1")
    state = initialize(problem, grid, problem.T / N)

    # The explicit start's record, read from the modes like every step's.
    infos = [StepInfo(n=1, t=state.dt,
                      vel_norm=norm(state._history[0], grid),
                      curv_norm=math.sqrt(bending_energy(state._U1, state._eigs, grid.h)),
                      damping=damping_coefficient(problem.damping, state._U1, grid),
                      fp_iters=0)]
    while state.n <= N:
        infos.append(step(state, config))

    series = TimeSeries(
        n=np.array([i.n for i in infos]),
        t=np.array([i.t for i in infos]),
        vel_norm=np.array([i.vel_norm for i in infos]),
        curv_norm=np.array([i.curv_norm for i in infos]),
        damping=np.array([i.damping for i in infos]),
        fp_iters=np.array([i.fp_iters for i in infos]),
    )
    if config.record_energy:
        (series.kinetic, series.dissipated, series.elastic,
         series.total) = diagnostics.energy(series.vel_norm, series.curv_norm,
                                            problem.damping.g0,
                                            state.tables.mu0, state.dt)
    return state, series
