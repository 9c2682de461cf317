import dataclasses
import math
import time

import numpy as np
import pytest

from viscobeam import (
    DampingFunction,
    Grid,
    KernelSpec,
    NO_MEMORY,
    NonConvergenceError,
    NumericalError,
    ProblemSpec,
    SolverConfig,
    assemble_step_system,
    initialize,
    kernel_tail,
    norm,
    run,
    sine_transform,
    step,
    write_solution_csv,
)
import viscobeam.stepper
from viscobeam.presets import example1_problem, example2_problem

from conftest import (dense_fourth_difference, fourth_difference, max_norm,
                      second_difference, solve_levels)


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_problem(T=1.0):
    return ProblemSpec(u0=_zero, u1=_zero, forcing=lambda x, t: _zero(x),
                       damping=DampingFunction.affine(1.0, 1.0),
                       kernel=KernelSpec(family=NO_MEMORY), T=T)


class TestInitialize:
    def test_zero_data(self):
        state = initialize(zero_problem(), Grid(8), 0.25)
        assert np.all(state.U0 == 0.0)
        assert np.all(state.U_prev == 0.0)
        assert state.n == 2
        assert state.velocity_history.shape == (1, 7)

    def test_explicit_start_levels(self):
        p = example1_problem()
        g = Grid(32)
        dt = 1.0 / 16
        state = initialize(p, g, dt)
        assert np.allclose(state.U0, np.sin(np.pi * g.x), rtol=1e-15)
        expected_u1 = np.sin(np.pi * g.x) + dt * np.sin(2 * np.pi * g.x)
        assert np.allclose(state.U_prev, expected_u1, rtol=1e-15)
        # discrete initial velocity equals the u1 samples exactly
        assert np.allclose(state.velocity_history[0], np.sin(2 * np.pi * g.x),
                           atol=1e-13)

    def test_polynomial_start(self):
        p = example2_problem()
        g = Grid(16)
        state = initialize(p, g, 1.0 / 8)
        assert np.allclose(state.U0, g.x**2 * (1 - g.x) ** 2, rtol=1e-15)

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ValueError):
            initialize(zero_problem(T=1.0), Grid(8), 0.3)


def dense_step_matrix(state, G_val):
    """(1/dt^2 + G/dt) I + (mu0 + w[0]/dt) D4 from the dense stencil oracle."""
    dt, m = state.dt, state.grid.n_interior
    return ((1.0 / dt**2 + G_val / dt) * np.eye(m)
            + (state.tables.mu0 + state.tables.weights[0] / dt)
            * dense_fourth_difference(state.grid))


class TestAssembleStepSystem:
    """The step system as assembled in the sine basis, against the dense
    stencil oracle."""

    def test_zero_state_gives_zero_solution(self):
        state = initialize(zero_problem(), Grid(8), 0.25)
        b, d, V, U = assemble_step_system(state)
        assert np.all(b == 0.0) and np.all(V == 0.0) and np.all(U == 0.0)
        assert np.all((b + V) / (d + 1.0) == 0.0)
        info = step(state, SolverConfig())
        assert np.all(state.U_prev == 0.0)
        assert info.fp_iters == 1

    def test_matrix_positive_definite_dense_oracle(self):
        state = initialize(example1_problem(), Grid(8), 1.0 / 16)
        _, d, _, _ = assemble_step_system(state)
        G_val = 1.3
        modal = d + G_val / state.dt
        eigs = np.linalg.eigvalsh(dense_step_matrix(state, G_val))
        assert eigs.min() > 0.0 and modal.min() > 0.0
        assert np.allclose(eigs, np.sort(modal), rtol=0, atol=1e-12 * modal.max())

    def test_matrix_symmetric(self):
        state = initialize(example2_problem(), Grid(8), 1.0 / 16)
        _, d, _, _ = assemble_step_system(state)
        G_val = 2.0
        dense = dense_step_matrix(state, G_val)
        assert np.array_equal(dense, dense.T)
        S = sine_transform(np.eye(state.grid.n_interior))
        modal = S @ np.diag(d + G_val / state.dt) @ S
        scale = np.abs(dense).max()
        assert np.max(np.abs(modal - modal.T)) <= 1e-14 * scale
        assert np.max(np.abs(modal - dense)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_rhs_matches_dense_oracle(self, n):
        # First, a middle and the last (n = N) step, so both ends of the
        # weight slice the history sum reads are checked.
        p = example1_problem()
        g = Grid(8)
        dt = 1.0 / 16
        state = initialize(p, g, dt)
        while state.n < n:
            step(state, SolverConfig())
        b, _, V, U = assemble_step_system(state)
        w = state.tables.weights
        mem = w[n - 1:0:-1] @ state.velocity_history
        expected = (p.forcing(g.x, n * dt)
                    + (2.0 * state.U_prev - state.U_prev2) / dt**2
                    + (w[0] / dt) * fourth_difference(state.U_prev, g)
                    - fourth_difference(mem, g)
                    - state.tables.tail[n] * fourth_difference(state.U0, g))
        scale = np.abs(expected).max()
        assert np.allclose(sine_transform(b), expected, rtol=0, atol=1e-12 * scale)
        assert np.allclose(sine_transform(V), state.U_prev, rtol=0, atol=1e-15)
        assert np.allclose(sine_transform(U), 2.0 * state.U_prev - state.U_prev2,
                           rtol=0, atol=1e-15)

    def test_history_contribution_linear(self, rng):
        p = example2_problem()
        state = initialize(p, Grid(8), 1.0 / 16)

        def rhs_with_history(hist_row):
            state._history[0] = hist_row
            return assemble_step_system(state)[0]

        h0 = rhs_with_history(np.zeros(7))
        h1_row = rng.standard_normal(7)
        h1 = rhs_with_history(h1_row)
        h2 = rhs_with_history(2.0 * h1_row)
        assert np.allclose(h2 - h0, 2.0 * (h1 - h0), rtol=1e-13, atol=1e-9)


class TestStep:
    def test_zero_data_stays_zero(self):
        state = initialize(zero_problem(), Grid(8), 0.125)
        cfg = SolverConfig()
        for _ in range(8 - 1):
            step(state, cfg)
        assert np.all(state.U_prev == 0.0)
        assert np.all(state.velocity_history == 0.0)

    def test_nonconvergence_raises_with_step_index(self):
        p = example1_problem()
        cfg = SolverConfig(fp_tol=1e-12, fp_max_iters=1)
        state = initialize(p, Grid(32), 1.0 / 16)
        with pytest.raises(NonConvergenceError) as exc:
            step(state, cfg)
        assert exc.value.step_index == 2
        assert exc.value.last_increment > 1e-12

    def test_step_past_end_rejected(self):
        state = initialize(zero_problem(), Grid(8), 0.5)
        cfg = SolverConfig()
        step(state, cfg)
        with pytest.raises(ValueError):
            step(state, cfg)

    def test_nonfinite_damping_raises_numerical_error(self):
        # Finite on every argument validate samples (v <= 1e4), NaN beyond;
        # amplitude 100 puts ||D2 U||^2 near 4.9e5.
        def fn(v):
            return 1.0 + v if v <= 1e4 else float("nan")

        p = ProblemSpec(u0=lambda x: 100.0 * np.sin(np.pi * np.asarray(x)),
                        u1=_zero, forcing=lambda x, t: _zero(x),
                        damping=DampingFunction(fn, 1.0, 1.0),
                        kernel=KernelSpec(family=NO_MEMORY))
        state = initialize(p, Grid(16), 1.0 / 8)
        with pytest.raises(NumericalError, match="not finite") as exc:
            step(state, SolverConfig())
        assert not isinstance(exc.value, NonConvergenceError)
        assert exc.value.step_index == 2
        with pytest.raises(NumericalError) as exc:
            run(p, Grid(16), 8)
        assert exc.value.step_index == 2

    def test_nonfinite_forcing_raises_numerical_error(self):
        p = dataclasses.replace(
            example2_problem(),
            forcing=lambda x, t: np.full_like(np.asarray(x, dtype=float),
                                              np.nan if t > 0.3 else 0.0))
        with pytest.raises(NumericalError, match="non-finite iterate") as exc:
            run(p, Grid(8), 8)
        assert exc.value.step_index == 3

    def test_one_sine_transform_per_step(self, monkeypatch):
        # The state stays in the sine basis, so a step transforms only its
        # forcing sample; levels and history are never moved back to grid
        # values between steps.
        state = initialize(example2_problem(), Grid(16), 1.0 / 16)
        calls = []

        def counting_transform(W):
            calls.append(np.shape(W))
            return sine_transform(W)

        monkeypatch.setattr(viscobeam.stepper, "sine_transform", counting_transform)
        for _ in range(10):
            step(state, SolverConfig())
        assert len(calls) == 10

    def test_scalar_forcing_broadcast_over_grid(self):
        def problem(forcing):
            return dataclasses.replace(example2_problem(), forcing=forcing)

        g = Grid(16)
        s_scalar, _ = run(problem(lambda x, t: 1.0), g, 16)
        s_array, _ = run(problem(lambda x, t: np.ones_like(x)), g, 16)
        assert np.array_equal(s_scalar.U_prev, s_array.U_prev)

    def test_run_propagates_failing_step_index(self):
        p = example1_problem()
        with pytest.raises(NonConvergenceError) as exc:
            run(p, Grid(32), 16, SolverConfig(fp_max_iters=1))
        assert exc.value.step_index == 2


class TestSineModeOracle:
    def test_matches_scalar_recurrence(self):
        # Memory-free constant damping keeps the lowest sine mode an exact
        # eigenvector, reducing the scheme to a scalar three-term
        # recurrence solved independently here.
        J, N, g0 = 16, 1000, 2.0
        g = Grid(J)
        problem = ProblemSpec(
            u0=lambda x: np.sin(np.pi * np.asarray(x)),
            u1=_zero,
            forcing=lambda x, t: _zero(x),
            damping=DampingFunction.constant(g0),
            kernel=KernelSpec(family=NO_MEMORY),
            T=1.0,
        )
        state, _ = run(problem, g, N)
        dt = 1.0 / N
        lam4 = (4.0 * np.sin(np.pi * g.h / 2.0) ** 2 / g.h**2) ** 2
        a = np.empty(N + 1)
        a[0] = a[1] = 1.0
        for n in range(2, N + 1):
            a[n] = ((2.0 + g0 * dt) * a[n - 1] - a[n - 2]) \
                / (1.0 + g0 * dt + dt**2 * lam4)
        assert max_norm(state.U_prev - a[N] * np.sin(np.pi * g.x)) <= 1e-10


class TestRun:
    def test_single_level_run(self):
        p = example2_problem()
        state, series = run(p, Grid(8), 1)
        assert state.n == 2           # initialized, nothing solved
        assert len(series.n) == 1     # only the explicit start record
        assert series.fp_iters[0] == 0

    def test_step_count_and_dt_contract(self):
        p = example2_problem()
        for N in (8, 16):
            state, series = run(p, Grid(8), N)
            assert state.dt == p.T / N
            assert len(series.n) == N
            assert series.t[-1] == pytest.approx(p.T, rel=1e-14)

    def test_example1_within_iteration_budget(self):
        p = example1_problem(sigma=1.2, gamma=1.0, alpha=0.5)
        cfg = SolverConfig(fp_max_iters=50)
        _, series = run(p, Grid(32), 256, cfg)
        assert series.fp_iters[1:].max() <= 50
        assert series.fp_iters[1:].min() >= 1

    def test_deterministic_reruns_bit_identical(self):
        p = example1_problem()
        s1, t1 = run(p, Grid(16), 32)
        s2, t2 = run(p, Grid(16), 32)
        assert np.array_equal(s1.U_prev, s2.U_prev)
        for name in ("t", "vel_norm", "curv_norm", "damping", "fp_iters"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

    def test_mirror_symmetry_preserved(self):
        # Example 2 data are symmetric about x = 1/2 and every operator in
        # the scheme commutes with the mirror, up to solver roundoff.
        p = example2_problem()
        _, levels = solve_levels(p, Grid(64), 64)
        worst = max(max_norm(U - U[::-1]) for U in levels)
        assert worst <= 1e-12

    def test_scheme_residual_bound(self, rng):
        # Substituting accepted levels back into the discrete equation,
        # rebuilt here from the raw difference operators, leaves a residual
        # controlled by the fixed-point increment bound.
        p = example1_problem(sigma=1.2, gamma=1.0, alpha=0.5)
        J, N = 32, 64
        g = Grid(J)
        fp_tol = 1e-12
        state, U = solve_levels(p, g, N, SolverConfig(fp_tol=fp_tol))
        dt = state.dt
        w = state.tables.weights
        bound = 10.0 * fp_tol / dt**2
        for n in rng.choice(np.arange(2, N + 1), size=5, replace=False):
            n = int(n)
            dUs = np.array([(U[q] - U[q - 1]) / dt for q in range(1, n + 1)])
            mem = w[n - 1::-1] @ dUs[:n]
            G_val = p.damping(norm(second_difference(U[n], g), g) ** 2)
            res = ((U[n] - 2 * U[n - 1] + U[n - 2]) / dt**2
                   + G_val * (U[n] - U[n - 1]) / dt
                   + state.tables.mu0 * fourth_difference(U[n], g)
                   + fourth_difference(mem, g)
                   - p.forcing(g.x, n * dt)
                   + kernel_tail(p.kernel, n * dt) * fourth_difference(U[0], g))
            assert max_norm(res) <= bound

    @pytest.mark.parametrize("problem", [example1_problem, example2_problem])
    def test_level_one_record_matches_grid_oracle(self, problem):
        # The explicit start's curvature norm and damping are read from the
        # modes like every later step's; check them against the stencil.
        p = problem()
        g = Grid(32)
        state = initialize(p, g, p.T / 16)
        _, series = run(p, g, 16)
        curv = norm(second_difference(state.U_prev, g), g)
        assert series.n[0] == 1
        assert series.curv_norm[0] == pytest.approx(curv, rel=1e-13)
        assert series.damping[0] == pytest.approx(p.damping(curv**2), rel=1e-13)

    def test_energy_columns_present_when_recorded(self):
        p = example2_problem()
        _, series = run(p, Grid(16), 16)
        assert np.all(np.diff(series.dissipated) >= 0.0)
        assert np.all(series.kinetic >= 0.0)
        assert np.all(series.elastic >= 0.0)

    def test_history_sum_runs_at_gemv_speed(self, rng):
        # The history convolution is the O(n J) part of each step, and it
        # must cost about one matrix-vector product on contiguous operands.
        # numpy keeps a negatively strided operand such as w[n-1:0:-1] out
        # of BLAS and runs its own loop, several times slower.  The history
        # part is timed as assembly at the last step minus assembly at the
        # first, against the bare product of the same shape; each is the
        # fastest of many interleaved calls, so scheduler noise drops out.
        p = example2_problem()
        N = 4096
        state = initialize(p, Grid(64), p.T / N)
        state._history[:] = rng.standard_normal(state._history.shape)
        w = rng.standard_normal(N - 1)
        rows = state._history[: N - 1]

        def assemble_at(n):
            state.n = n
            assemble_step_system(state)

        calls = {"last": lambda: assemble_at(N), "first": lambda: assemble_at(2),
                 "gemv": lambda: w @ rows}
        best = dict.fromkeys(calls, math.inf)
        for _ in range(200):
            for key, call in calls.items():
                t0 = time.perf_counter()
                call()
                best[key] = min(best[key], time.perf_counter() - t0)
        assert best["last"] - best["first"] <= 2.0 * best["gemv"]


class TestSerialization:
    def test_timeseries_csv_roundtrip(self, tmp_path):
        # N = 2500 spans several of the row blocks the writer emits.
        p = example2_problem()
        path = tmp_path / "ts.csv"
        for N in (8, 2500):
            _, series = run(p, Grid(8), N)
            series.to_csv(path)
            rows = path.read_text().strip().splitlines()
            assert rows[0] == ("n,t,vel_norm,curv_norm,damping,fp_iters,"
                               "kinetic,dissipated,elastic,total")
            assert len(rows) == 1 + N
            cells = [r.split(",") for r in rows[1:]]
            for j, name in enumerate(rows[0].split(",")):
                parse = int if name in ("n", "fp_iters") else float
                back = np.array([parse(c[j]) for c in cells])
                assert np.array_equal(back, getattr(series, name)), name

    def test_solution_csv_includes_boundaries(self, tmp_path):
        g = Grid(8)
        path = tmp_path / "sol.csv"
        write_solution_csv(path, g, np.ones(7))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x,u"
        assert len(rows) == 1 + 9
        assert rows[1].startswith("0.0,") and rows[-1].startswith("1.0,")
