"""Fully discrete time stepper: implicit two-level scheme with memory.

Each step n >= 2 solves the nonlinear system

    (U^n - 2U^{n-1} + U^{n-2})/dt^2  +  G(||D2 U^n||^2) (U^n - U^{n-1})/dt
      + mu0 * D4 U^n  +  sum_{p=1..n} w[n-p] * D4 dU^p
      =  f^n - K(t_n) * D4 U^0,

where D2/D4 are the hinged difference operators, dU^p the stored velocity
differences (U^p - U^{p-1})/dt and w the product-integration weights of the
kernel tail.  The step is solved for its velocity v = dU^n, the new row of
the history, with U^n = U^{n-1} + dt v: then the inertia term is
(v - dU^{n-1})/dt and the p = n weight joins the unknown, so no term of
the system grows like U/dt^2.  Under the hinged closure D4 = D2^2, and D2
is diagonal in the orthonormal sine basis, so with the damping
coefficient frozen the system is one division per sine mode.  Only that
scalar is nonlinear; it is resolved by fixed-point iteration on the
modal coefficients, with G evaluated from the modes and started from G
extrapolated from the last two levels.

The whole state lives in the sine basis: U^0, the newest level (as its
curvature coefficients lambda U^{n-1}) and the velocity history are
stored as coefficients, and grid values are made only from the initial
data, the forcing samples and on output.  The levels fall into blocks of
32, aligned at levels 2 + 32k.  For each block the forcing is sampled in
one call per member and transformed at once, and the exact history sum
is split in two.  Its far part, over the rows before the block, is made
once for the whole block as panel products of history rows with Toeplitz
panels of the weights (see :func:`_far_history`), and folded with the
forcing and the initial-load source into one cached right-hand side per
level.  Each step adds its near part, one matrix-vector product over the
at most 31 rows made inside the block.  The sum still costs O(n * J) per
step, but most of it runs as matrix products; only its order of
summation differs from the direct sum.  Each step also costs O(J) per
inner iteration.  A run records per-level norms, the forcing's included, in
preallocated columns and builds its energy columns from them once, at
the end.

One stepper advances B runs ("members") that share the grid, the step size
and the step count in lockstep: every array of the state carries a leading
member axis, the history sums are batched matmuls (one product per
member), the forcing blocks one transform, and only the damping law is
called member by member.  Each member follows exactly the iterates of its
own run, so a batch gives every member the bits of its run alone.
:func:`run` is the B = 1 case of :func:`run_batch`, which the convergence
studies use to step all cells of a refinement level together.

One loop advances a state from its level n up to a stop level:
:func:`run_batch` makes one call of it per batch, and :func:`step` is its
one-level case.  What every level shares is read once per call (dt, h,
lambda, the damping laws, the solver knobs), the last two G are carried
from level to level as floats, and the Toeplitz window of the weights is
cached with the block.  A level is a few divisions over J-1 modes, so it
is written for few array calls (see :func:`_advance`); the state carries
U^{n-1} as its curvature coefficients C = lambda U^{n-1}, all that a
level reads of it.  The arithmetic of a level is the same whichever way
it is reached, so both give the same bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import diagnostics
from .grid_ops import Grid, second_difference_eigenvalues, sine_transform
from .kernel import ConfigurationError, KernelTables, require_integer
from .model import ProblemSpec

_CSV_BLOCK_ROWS = 64
#: Levels per block: the forcing is sampled and transformed, and the far
#: part of the history sum is made, once per block.  A block holds 32 (J-1)
#: floats per member; 128 levels raised the peak RSS of
#: ``study --preset example2-temporal`` by about 1.2 MB.
_BLOCK_LEVELS = 32
#: History rows per far-part panel product, halved on grids finer than
#: J = 64 until C (J-1) < 2^14.  On a 2-CPU Haswell host OpenBLAS 0.3.31 ran
#: every (J-1) x C by C x 32 product with 32 C (J-1) < 2^19 on one thread
#: (its worker thread took no CPU time); products of 32 x 200 by 200 x 127
#: and 32 x 500 by 500 x 63 ran on two, and such threaded products were up
#: to 16 times slower while the other CPU was busy.  At J = 64, 512 rows
#: raised the CPU time of ``stability --preset example2-longtime`` in
#: process from 0.34 to 0.66 s.  The history rows enter transposed, as a
#: view: 63 x 256 by 256 x 32 took 18-24 us there, against 26-37 us for
#: the same sums as 32 x 256 by 256 x 63.  The two orders give equal bits
#: when (J-1) mod 8 is 0, 5, 6 or 7, so on every power-of-two grid; on the
#: other grids OpenBLAS's edge kernels sum in another order.
_PANEL_ROWS = 256
#: The empty block cache of a state: no levels, made from no tables.
_NO_BLOCK = (0, 0, None, None, None, None, None, None, None)


class NumericalError(RuntimeError):
    """A step failed numerically; ``step_index`` is the level being solved
    and ``member`` the index of the failing run in its batch."""

    def __init__(self, step_index: int, message: str, member: int = 0):
        super().__init__(message)
        self.step_index, self.member = step_index, member


class NonConvergenceError(NumericalError):
    """Fixed-point iteration exhausted its budget at some step."""

    def __init__(self, step_index: int, last_increment: float, max_iters: int, member=0):
        super().__init__(
            step_index,
            f"fixed-point iteration did not converge at step {step_index}: "
            f"increment {last_increment:.3e} after {max_iters} iterations", member)
        self.last_increment = last_increment
        self.max_iters = max_iters


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the per-step fixed-point solve.

    ``fp_tol`` bounds the final fixed-point increment relative to the
    iterate's discrete L2 norm, or absolutely while that norm is below 1,
    so fields of any scale converge down to their own roundoff.
    """

    fp_tol: float = 1e-12
    fp_max_iters: int = 50

    def __post_init__(self):
        tol = self.fp_tol
        if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                or not 0.0 < tol < math.inf):
            raise ConfigurationError(
                f"solver.fp_tol must be positive and finite (got {tol!r})")
        n = self.fp_max_iters
        require_integer(n, "solver.fp_max_iters")
        if n < 1:
            raise ConfigurationError(
                f"solver.fp_max_iters must be an integer of at least 1 (got {n!r})")


def _unbatched(a: np.ndarray) -> np.ndarray:
    """``a`` without its leading member axis when it holds one member."""
    return a[0] if len(a) == 1 else a


@dataclass
class SolverState:
    """Mutable state of B members stepped in lockstep, in the sine basis.

    ``problems`` holds the members' problems and ``tables`` their kernel
    tables (:meth:`KernelTables.stack` of them when B > 1).  ``n`` is the
    index of the next level to solve.  ``_U0`` holds the sine
    coefficients of U^0 and ``_C`` the curvature coefficients
    C = lambda U^{n-1} of the newest level, as (B, J-1) arrays; C is all
    that a step reads of U^{n-1}, whose own coefficients ``_U1`` are made
    as C / lambda when read.  The velocity history is one preallocated
    (B, N, J-1) buffer, row p-1 of a member storing the coefficients of
    its dU^p, and ``_records`` holds each level's velocity norm, curvature
    norm, G, iteration count and forcing norm sqrt(h) ||f^n|| in
    (B, 5, N+1) columns; the forcing norms are written a block of levels
    ahead.  ``_block``, the one cache, holds the block of levels
    first..end-1: first and end, the part of each level's right-hand side
    fixed before the block as an (end-first, B, J-1) array, level-major,
    lambda^2, mu0 lambda, the velocity system's diagonal D, the near
    weights, and the tables it was made from with their Toeplitz window
    of the reversed weights.  :func:`dataclasses.replace` empties it, and
    a step refills it for other tables, so ``tables`` may be assigned or
    replaced at any level.  Nothing else is carried across levels: the
    stepping loop reads the last two G from the records when it is called
    and carries them itself, and ``_C`` views the curvature row of the
    level that made it.  The properties ``U0`` and ``U_prev`` return grid
    values and ``forcing_norms`` the recorded forcing norms, each through
    :func:`_unbatched`, the one rule that drops the member axis when
    B = 1.  Confine a state to one thread; the shared tables are
    read-only.
    """

    problems: tuple[ProblemSpec, ...]
    grid: Grid
    dt: float
    n_steps: int
    n: int
    tables: KernelTables
    _U0: np.ndarray = field(repr=False)
    _C: np.ndarray = field(repr=False)  # lambda U^{n-1}
    _history: np.ndarray = field(repr=False)
    _records: np.ndarray = field(repr=False)
    _eigs: np.ndarray = field(repr=False)  # of D2, in sine_transform order
    _block: tuple = field(default=_NO_BLOCK, init=False, repr=False)

    _U1 = property(lambda self: self._C / self._eigs,
                   doc="Sine coefficients of U^{n-1}, made from C.")
    U0 = property(lambda self: _unbatched(sine_transform(self._U0)),
                  doc="The initial level U^0.")
    U_prev = property(lambda self: _unbatched(sine_transform(self._U1)),
                      doc="The newest computed level U^{n-1}.")
    forcing_norms = property(lambda self: _unbatched(self._records[:, 4, :self.n]),
                             doc="sqrt(h) ||f^m|| of the forcing samples at levels 0..n-1.")

    def series(self) -> TimeSeries:
        """Records of levels 1..n-1 of a one-member state, with the energy
        columns built from them."""
        vel, curv, damping, iters = self._records[0, :4, 1:self.n]
        n = np.arange(1, self.n)
        return TimeSeries(n, n * self.dt, vel, curv, damping, iters.astype(int),
                          *diagnostics.energy(vel, curv, self.problems[0].damping.g0,
                                              self.tables.mu0, self.dt))


@dataclass
class TimeSeries:
    """Per-step diagnostic records of one run, energy columns included.

    Serializable to CSV; identical runs produce identical series.
    """

    n: np.ndarray
    t: np.ndarray
    vel_norm: np.ndarray
    curv_norm: np.ndarray
    damping: np.ndarray
    fp_iters: np.ndarray
    kinetic: np.ndarray
    dissipated: np.ndarray
    elastic: np.ndarray
    total: np.ndarray

    def to_csv(self, path) -> None:
        _write_csv(path, {f.name: getattr(self, f.name) for f in fields(self)})


def _write_csv(path, columns: dict) -> None:
    """Write equal-length numeric columns under a header of their names,
    byte for byte as :func:`csv.writer` does: ``repr`` of each Python int
    or float, comma separated, CRLF line ends.  The rows go out in blocks
    of 64: ``repr`` is mapped over each column's block as a Python list,
    and the block's rows are joined into one write.  Whole columns as
    lists would raise the peak memory of a long run by about 1 MB; blocks
    of 256 rows raised the peak RSS of ``stability --preset
    example2-longtime`` in process by 0.13-0.2 MB, and blocks of 64 kept
    it within 0.1 MB of writing row by row."""
    arrays = list(columns.values())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for i in range(0, len(arrays[0]), _CSV_BLOCK_ROWS):
            cells = (map(repr, a[i:i + _CSV_BLOCK_ROWS].tolist()) for a in arrays)
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))


def write_solution_csv(path, grid: Grid, U: np.ndarray) -> None:
    """Write the solution on all nodes (boundary zeros included) as x,u rows."""
    _write_csv(path, {"x": np.concatenate([[0.0], grid.x, [1.0]]),
                      "u": np.concatenate([[0.0], np.asarray(U, dtype=float), [0.0]])})


_MEMBER_ARRAYS = ("_U0", "_C", "_history", "_records")


def _start(problem: ProblemSpec, grid: Grid, N: int) -> SolverState:
    """The one-member state of :func:`initialize` before :func:`_stack`
    makes room for later levels: its history holds dU^1 only and its
    records stop at level 1, the forcing norms at levels 0 and 1
    included.  Level 1's record, made with 0 iterations, goes through
    :func:`_flush_records` as every later level's does; level 0's stays
    zero but for its forcing norm.  A step count that is not an integer
    (``bool`` included) is a ConfigurationError, by the rule that the
    tables and studies apply too, and so is fewer than one step, as
    :meth:`KernelTables.build` would raise it, raised here because the
    step T/N is taken first."""
    require_integer(N, "step count N")
    if N < 1:
        raise ConfigurationError(f"step count N must be at least 1 (got {N})")
    dt = problem.T / N
    U0, u1 = sine_transform(np.stack([problem.u0(grid.x), problem.u1(grid.x)]))
    U1 = U0 + dt * u1
    eigs, dU1 = second_difference_eigenvalues(grid), (U1 - U0) / dt
    C = eigs * U1
    state = SolverState((problem,), grid, dt, N, 2, KernelTables.build(problem.kernel, dt, N),
                        U0[None], C[None], dU1[None, None], np.zeros((1, 5, 2)), eigs)
    _flush_records(state, [([dU1 @ dU1], [C @ C], [problem.damping(grid.h * (C @ C))], [0])])
    _sample_forcing(state, 0, 2)
    return state


def _stack(states: list[SolverState]) -> SolverState:
    """One state of one-member states at the same level and step size, with
    room for every level: the only place a history buffer is allocated.
    Like every replaced state, it starts with an empty block cache."""
    first, n = states[0], states[0].n
    history = np.zeros((len(states), first.n_steps, first.grid.n_interior))
    records = np.zeros((len(states), 5, first.n_steps + 1))
    for k, s in enumerate(states):
        history[k, :n - 1], records[k, :, :n] = s._history[0, :n - 1], s._records[0, :, :n]
    # The levels are joined as they are; history and records got room above.
    return replace(
        first, problems=tuple(s.problems[0] for s in states), _history=history,
        _records=records, tables=KernelTables.stack([s.tables for s in states]),
        **{a: np.concatenate([getattr(s, a) for s in states]) for a in _MEMBER_ARRAYS[:2]})


def initialize(problem: ProblemSpec, grid: Grid, N: int) -> SolverState:
    """Set up levels 0 and 1 of a one-member state, with step size T/N, and
    build its kernel tables, with room for every level.

    The first level is the explicit start U^1 = U^0 + dt * u1, which pins
    the discrete initial velocity dU^1 to the samples of u1 up to roundoff.
    The samples of u0 and u1 are the only grid values transformed here,
    and the only samples of them a run takes: the state keeps U^0 and
    dU^1 as sine coefficients, which :func:`diagnostics.data_functional`
    reads.  The explicit start's record is read from the modes and written
    by the same writer as every step's; the forcing is sampled at levels 0
    and 1 for its norms only.
    """
    return _stack([_start(problem, grid, N)])


def _sample_forcing(state: SolverState, first: int, end: int) -> np.ndarray:
    """The members' forcing samples at levels first..end-1 as an
    (end-first, B, J-1) array: one call per member, on the interior nodes
    as a (1, J-1) row and the levels' times as an (end-first, 1) column,
    its result broadcast over both.  Their norms sqrt(h) ||f^m|| go to the
    records once every sample is in."""
    x, t = state.grid.x[None], np.arange(first, end)[:, None] * state.dt
    f = np.empty((end - first, len(state.problems), state.grid.n_interior))
    for i, problem in enumerate(state.problems):
        f[:, i] = problem.forcing(x, t)
    state._records[:, 4, first:end] = np.sqrt(state.grid.h * np.vecdot(f, f)).T
    return f


def _far_history(state: SolverState, window: np.ndarray, first: int, end: int) -> np.ndarray:
    """The far part of the history sum at the levels first..end-1 of a
    block: row i of each member is sum_{p<first} w[first+i-p] dU^p.

    Row q of the history (dU^{q+1}) is weighted by rev[N - first - i + q]
    of the reversed weights rev = w[N-1::-1], so the weights form a
    Toeplitz matrix whose row j holds rev[j - i] at column i, zero for
    j < i, read from ``window``, made from the state's tables, which may
    be assigned at any level (see :func:`assemble_step_system`).  Member
    by member, it is copied transposed, one panel of at most C history
    rows at a time, into one (C, end-first) buffer, and each panel is one
    matrix product of the panel's history rows, viewed transposed, with
    it, summed in panel order into a (J-1, end-first) array.  Panels start
    at multiples of C, which depends on J only (see _PANEL_ROWS), so a
    member's sum does not depend on its batch.  The far part is returned
    as an (end-first, B, J-1) view.
    """
    history, N, rows, L = state._history, state.n_steps, first - 1, end - first
    width = _PANEL_ROWS
    while width > 1 and width * history.shape[-1] >= 2**14:
        width //= 2
    buffer = np.empty((min(rows, width), L))
    far = np.zeros((len(history), history.shape[-1], L))
    for k in range(len(history)):
        for q in range(0, rows, width):
            panel = buffer[:min(rows - q, width)]
            np.copyto(panel, window[k, N - first + q:N - first + q + len(panel), :L])
            far[k] += history[k, q:q + len(panel)].T @ panel
    return far.transpose(2, 0, 1)


def assemble_step_system(state: SolverState) -> tuple[np.ndarray, np.ndarray]:
    """Level n's velocity system in the sine basis, with G left free.

    Returns sine coefficients ``(r, D)``, one row per member: for a frozen
    damping coefficient G the coefficients of v = dU^n solve, mode by
    mode, (D + G) v = r, and the new level's curvature coefficients are
    C^n = C + (lambda dt) v, with C = lambda U^{n-1} the state's.  Here
    D = 1/dt + (mu0 dt + w[0]) lambda^2 > 0 and

        r = f^n + dU^{n-1}/dt - mu0 lambda C - lambda^2 (mem + K(t_n) U^0),

    with mem the history sum over the rows before level n.  The block of
    level n comes from the state's cache.  When n lies outside it, or the
    state's tables, which may be assigned or replaced at any level, are
    not those it was made from, the whole aligned block of 32 levels from
    first = 2 + 32k (to N at most) is made again: the members' forcing
    samples are taken in one call per member (see :func:`_sample_forcing`)
    and transformed at once, the only transform; their norms go to the
    records; and the far part of the history sum is made and folded, with
    the initial-load source, into P = f - lambda^2 (far + K U^0) for each
    level of the block, stored level-major.  Each level then adds
    dU^{n-1}/dt, the mu0 term and its near part, over history rows
    first..n-1, with weights read from the far part's Toeplitz window,
    made of the weights reversed and zero-padded only for new tables.  A
    forcing callable that raises does so at the first level of its block,
    and the cache and the records are then left as they were.
    """
    n, N, dt, tables = state.n, state.n_steps, state.dt, state.tables
    # By index, so that a refill does not hold the old block.
    (first, end), (made, window) = state._block[:2], state._block[7:]
    if not first <= n < end or made is not tables:
        first = n - (n - 2) % _BLOCK_LEVELS
        end = min(first + _BLOCK_LEVELS, N + 1)
        f = _sample_forcing(state, first, end)
        # The old block goes once the samples are in, so that a refill
        # holds one block at a time.
        state._block = _NO_BLOCK
        if made is not tables:
            rev = np.zeros((len(state._U0), N + _BLOCK_LEVELS - 1))
            rev[:, _BLOCK_LEVELS - 1:] = tables.weights[..., ::-1]
            window = sliding_window_view(rev, _BLOCK_LEVELS, axis=-1)[..., ::-1]
        # The far part and the initial-load source K(t_m) U^0 of each level.
        fixed = _far_history(state, window, first, end)
        fixed += (tables.tail[..., first:end, None] * state._U0[:, None]).swapaxes(0, 1)
        lam = state._eigs[None]
        lam2 = lam ** 2
        P = sine_transform(f)
        P -= lam2 * fixed
        D = 1.0 / dt + (tables.mu0 * dt + tables.weights[..., :1]) * lam2
        # Window row N-2 read forward: its last m entries are w[m:0:-1].
        near_w = window[:, None, N - 2, ::-1]
        state._block = (first, end, P, lam2, tables.mu0 * lam, D, near_w, tables, window)
    first, end, P, lam2, mu0_lam, D, near_w = state._block[:7]
    # w[n-first:0:-1] of each member, read forward so that each product is
    # a BLAS gemv.
    near = np.matmul(near_w[..., _BLOCK_LEVELS - n + first:],
                     state._history[:, first - 1:n - 1])[:, 0]
    r = P[n - first] + state._history[:, n - 2] / dt - (mu0_lam * state._C + lam2 * near)
    return r, D


def _unit_size_bound(eigs: np.ndarray) -> float:
    """The bound lambda_1^2 on h ||C||^2 up to which ||U|| <= 1 is sure.

    lambda_1 is the D2 eigenvalue of smallest magnitude, so
    ||U|| = sqrt(h) ||C / lambda|| <= sqrt(h) ||C|| / |lambda_1|."""
    return float(np.min(eigs * eigs))


def _first_nonfinite(values: list) -> int | None:
    """The index of the first non-finite value, None if there is none."""
    return next((i for i, x in enumerate(values) if not math.isfinite(x)), None)


def _flush_records(state: SolverState, pending: list) -> None:
    """Write the records of the last ``len(pending)`` levels, before
    ``state.n``, and empty ``pending``.  Each entry holds a level's
    squared velocity and curvature norms (without the factor h), G and
    iteration count, one float per member; the norms take one vectorized
    sqrt, which rounds as math.sqrt does."""
    records = np.array(pending).transpose(2, 1, 0)
    records[:, :2] = np.sqrt(state.grid.h * records[:, :2])
    state._records[:, :4, state.n - len(pending):state.n] = records
    pending.clear()


def step(state: SolverState, config: SolverConfig) -> None:
    """Solve level n of every member via fixed-point iteration: the
    one-level case of the stepping loop :func:`_advance`, which describes
    the iteration and its errors.  Past level N it raises ``ValueError``."""
    if state.n > state.n_steps:
        raise ValueError(f"run is complete (n={state.n} > N={state.n_steps})")
    _advance(state, config, state.n + 1)


def _advance(state: SolverState, config: SolverConfig, stop: int) -> None:
    """Solve levels n..stop-1 of every member, one level at a time, via
    fixed-point iteration.

    Each level's G-free velocity system is assembled once, in the sine
    basis.  The start iterate v_0 is solved with
    G_0 = max(2 G_{n-1} - G_{n-2}, 0), extrapolated from the G of the last
    two levels (G_1 at n = 2).  Each iteration k >= 1 freezes a member's G
    at the trial level C + (lambda dt) v_{k-1} of its previous iterate and
    divides mode by mode; a member stops iterating when its level moves by
    at most ``fp_tol * max(1, ||U^n||)`` in the discrete L2 norm, which
    the orthonormal transform preserves.  A member's scale is 1 while
    sqrt(h) ||C|| / |lambda_1| <= 1, which bounds ||U^n|| (see
    :func:`_unit_size_bound`); ||U^n|| = sqrt(h) ||C / lambda|| is formed
    only in a pass where some member's bound exceeds 1.  So v_0 itself is
    never accepted, and the G recorded is the one the accepted iterate was
    solved with.  A non-finite G or iterate raises :class:`NumericalError`,
    with the failing member's index as ``member``.  An error at level n
    leaves the state at level n - 1, as the last good level left it; that
    includes an exception from a forcing callable (see
    :func:`assemble_step_system`).

    The last two G are carried as floats, equal to the recorded ones.
    The passes alternate between two iterate rows, so that only the
    history copies the accepted one, and the levels between two curvature
    rows, so that level n never writes C^{n-1}; each pass forms its trial
    level in two calls.  The records wait in a list and are written once
    a block's worth, 32, are waiting, or before an error propagates; only
    :func:`assemble_step_system` knows where a block starts.
    """
    dt, h, lam = state.dt, state.grid.h, state._eigs[None]
    lam_dt, unit = lam * dt, _unit_size_bound(state._eigs)
    laws = [problem.damping for problem in state.problems]
    tol, max_iters = config.fp_tol, config.fp_max_iters
    # With one member G is a scalar; with more the members' G fill one
    # column, written whole each pass.  A member that has converged keeps
    # its G, so its row of every later iterate repeats its final one bit
    # for bit.  One vecdot of the rows gives the squared norms of the
    # increment, of both iterates and of both curvature rows of every
    # member.  The start v_0 is its own increment, so its squared norm is
    # what is checked for being finite, and the increment row, left from
    # an earlier level, is not read.
    G_col, members, single = np.empty((len(laws), 1)), range(len(laws)), len(laws) == 1
    rows = np.zeros((5,) + state._C.shape)
    row = list(rows)  # the rows as views, indexed without numpy
    G_before, G_last = state._records[:, 2, state.n - 2:state.n].T.tolist()
    pending = []
    try:
        for n in range(state.n, stop):
            if len(pending) == _BLOCK_LEVELS:
                _flush_records(state, pending)
            r, D = assemble_step_system(state)
            G = ([max(2.0 * g - g_before, 0.0) for g, g_before in zip(G_last, G_before)]
                 if n > 2 else G_last[:])
            C, curvature = state._C, 3 + n % 2
            trial, iters, active = row[curvature], [0] * len(laws), members
            for it in range(max_iters + 1):
                if it:
                    for i in active:
                        G[i] = laws[i](h * energies[i])
                # One sum checks every G; it is inf or NaN also when finite
                # values overflow or inf - inf cancels, so the scan decides.
                if not math.isfinite(sum(G)) and (i := _first_nonfinite(G)) is not None:
                    raise NumericalError(
                        n, f"damping coefficient G = {G[i]!r} at step {n} is not finite", i)
                iterate = 1 + it % 2
                v = row[iterate]
                if single:
                    np.divide(r, D + G[0], v)
                else:
                    G_col[:, 0] = G
                    np.divide(r, D + G_col, v)
                if it:
                    np.subtract(v, row[3 - iterate], row[0])
                np.add(C, np.multiply(lam_dt, v, trial), trial)
                norms = np.vecdot(rows, rows).tolist()
                squared, energies = norms[0] if it else norms[iterate], norms[curvature]
                if (not math.isfinite(sum(squared))
                        and (i := _first_nonfinite(squared)) is not None):
                    raise NumericalError(n, f"non-finite iterate at step {n}", i)
                if not it:
                    continue
                if h * max(energies) > unit:
                    U = np.divide(trial, lam)
                    sizes = np.vecdot(U, U).tolist()
                for i in active:
                    scale = max(1.0, math.sqrt(h * sizes[i])) if h * energies[i] > unit else 1.0
                    if dt * math.sqrt(h * squared[i]) <= tol * scale:
                        iters[i] = it
                if not (active := [i for i in active if not iters[i]]):
                    break
            else:
                raise NonConvergenceError(n, dt * math.sqrt(h * squared[active[0]]),
                                          max_iters, active[0])

            # The history row is the accepted iterate, the one copy a level
            # makes; its record waits for the next flush.
            state._history[:, n - 1] = v
            pending.append((norms[iterate], energies, G, iters))
            state._C, state.n = trial, n + 1
            G_before, G_last = G_last, G
    finally:
        if pending:
            _flush_records(state, pending)


def run_batch(problems, grid: Grid, N: int, config: SolverConfig | None = None
              ) -> list[SolverState | Exception]:
    """Solve levels 2..N of every problem; return each one's final state.

    Problems with the same step size T/N go through levels 2..N as one
    batch, in one call of the stepping loop.  A member whose set-up fails,
    an N that is not an integer or is below 1, or a forcing that raises at
    level 0 or 1 included, or whose step raises a :class:`NumericalError`,
    gets the exception in place of its state, and the rest of its batch
    goes on, in a new call, from the level it reached.  Any other error in a step, say a
    forcing or damping callable that raises rather than returning a
    non-finite value, ends its whole batch.  In the steps the forcing is
    sampled up to 31 levels ahead, so a forcing that raises does so at the
    first level of the block that reaches its bad time.  Each final state
    views its member's rows of the batch.
    """
    config = config or SolverConfig()
    results = []
    for problem in problems:
        try:
            results.append(_start(problem, grid, N))
        except Exception as exc:
            results.append(exc)
    live = [i for i, r in enumerate(results) if isinstance(r, SolverState)]
    while live:
        group = [i for i in live if results[i].dt == results[live[0]].dt]
        batch, failure = _stack([results[i] for i in group]), None
        try:
            _advance(batch, config, N + 1)
        except Exception as exc:
            failure = exc
        for k, i in enumerate(group):
            results[i] = replace(results[i], n=batch.n, **{
                a: getattr(batch, a)[k:k + 1] for a in _MEMBER_ARRAYS})
        # A NumericalError names its member; any other error ends the batch.
        # With no failure the whole group has ended, keeping its states.
        ended = [group[failure.member]] if isinstance(failure, NumericalError) else group
        results = [failure or r if i in ended else r for i, r in enumerate(results)]
        live = [i for i in live if i not in ended]
    return results


def run(problem: ProblemSpec, grid: Grid, N: int,
        config: SolverConfig | None = None) -> tuple[SolverState, TimeSeries]:
    """Initialize and solve levels 2..N; return final state and diagnostics.

    The one-member case of :func:`run_batch`.  With N = 1 only the
    explicit start is performed.  The energy columns are built once at the
    end from the recorded norms.  Failures propagate with the failing step
    index attached.
    """
    state, = run_batch((problem,), grid, N, config)
    if isinstance(state, Exception):
        raise state
    return state, state.series()
