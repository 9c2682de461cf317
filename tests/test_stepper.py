import copy
import csv
import dataclasses
import math
import re
import time

import numpy as np
import pytest

from viscobeam import (
    ConfigurationError,
    DampingFunction,
    Grid,
    KernelSpec,
    NO_MEMORY,
    NonConvergenceError,
    NumericalError,
    SolverConfig,
    SolverState,
    assemble_step_system,
    initialize,
    norm,
    run,
    sine_transform,
    step,
    write_solution_csv,
)
import viscobeam.stepper
from viscobeam.config import FORCING
from viscobeam.stepper import _stack, _start, run_batch
from viscobeam.presets import example1_problem, example2_problem

from conftest import (assemble_per_level, assert_same_run, dense_fourth_difference,
                      fourth_difference, long_double_solution, max_norm, second_difference,
                      solve_levels, traced_peak, zero_problem)


class TestSolverConfig:
    # Each of these once got through: an infinite fp_tol ran every step on
    # one unconverged iteration, 2.5 iterations raised a raw TypeError at
    # the first step and True ran as one iteration; fp_tol=True ran every
    # step on one iteration and "abc" raised a raw TypeError.
    @pytest.mark.parametrize("kwargs, message", [
        ({"fp_tol": math.inf}, "solver.fp_tol must be positive and finite"),
        ({"fp_tol": True}, "solver.fp_tol must be a real number"),
        ({"fp_tol": "abc"}, "solver.fp_tol must be a real number"),
        ({"fp_max_iters": 2.5}, "solver.fp_max_iters must be an integer"),
        ({"fp_max_iters": True}, "solver.fp_max_iters must be an integer"),
    ], ids=["fp_tol=inf", "fp_tol=True", "fp_tol=abc", "fp_max_iters=2.5",
            "fp_max_iters=True"])
    def test_rejects_what_the_config_rejects(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            SolverConfig(**kwargs)


class TestInitialize:
    def test_zero_data(self):
        state = initialize(zero_problem(), Grid(8), 4)
        assert np.all(state.U0 == 0.0)
        assert np.all(state.U_prev == 0.0)
        assert state.n == 2
        assert state.series().vel_norm.tolist() == [0.0]

    def test_explicit_start_levels(self):
        p = example1_problem()
        g = Grid(32)
        dt = 1.0 / 16
        state = initialize(p, g, 16)
        assert np.allclose(state.U0, np.sin(np.pi * g.x), rtol=1e-15)
        expected_u1 = np.sin(np.pi * g.x) + dt * np.sin(2 * np.pi * g.x)
        assert np.allclose(state.U_prev, expected_u1, rtol=1e-15)
        # discrete initial velocity equals the u1 samples up to roundoff
        assert np.allclose((state.U_prev - state.U0) / dt, np.sin(2 * np.pi * g.x),
                           atol=1e-13)

    def test_polynomial_start(self):
        p = example2_problem()
        g = Grid(16)
        state = initialize(p, g, 8)
        assert np.allclose(state.U0, g.x**2 * (1 - g.x) ** 2, rtol=1e-15)

    def test_needs_at_least_one_step(self):
        # The same error type and wording as KernelTables.build's; N = -3
        # once reached the step T/N.  N = 8.0 or True once raised numpy's
        # TypeError, and out of run_batch as a whole; np.int64(8) runs.
        for N, rule in ((0, "be at least 1"), (-3, "be at least 1"),
                        (8.0, "be an integer"), (True, "be an integer")):
            message = f"step count N must {rule} (got {N})"
            for start in (initialize, run):
                with pytest.raises(ConfigurationError, match=re.escape(message)):
                    start(zero_problem(), Grid(8), N)
            failure, = run_batch([zero_problem()], Grid(8), N)
            assert isinstance(failure, ConfigurationError)
            assert str(failure) == message
        assert run(zero_problem(), Grid(8), np.int64(8))[0].n == 9


def dense_step_matrix(state, G_val):
    """(1/dt + G) I + (mu0 dt + w[0]) D4 from the dense stencil oracle."""
    dt, m = state.dt, state.grid.n_interior
    return ((1.0 / dt + G_val) * np.eye(m)
            + (state.tables.mu0 * dt + state.tables.weights[0])
            * dense_fourth_difference(state.grid))


class TestAssembleStepSystem:
    """The velocity system as assembled in the sine basis, against the
    dense stencil oracle."""

    def test_zero_state_gives_zero_solution(self):
        state = initialize(zero_problem(), Grid(8), 4)
        r, D = assemble_step_system(state)
        assert np.all(r == 0.0) and np.all(state.U_prev == 0.0)
        assert np.all(r / (D + 1.0) == 0.0)
        step(state, SolverConfig())
        assert np.all(state.U_prev == 0.0)
        assert state.series().fp_iters[-1] == 1

    def test_matrix_positive_definite_dense_oracle(self):
        state = initialize(example1_problem(), Grid(8), 16)
        _, D = assemble_step_system(state)
        G_val = 1.3
        modal = D + G_val
        eigs = np.linalg.eigvalsh(dense_step_matrix(state, G_val))
        assert eigs.min() > 0.0 and modal.min() > 0.0
        assert np.allclose(eigs, np.sort(modal), rtol=0, atol=1e-12 * modal.max())

    def test_matrix_symmetric(self):
        state = initialize(example2_problem(), Grid(8), 16)
        _, D = assemble_step_system(state)
        G_val = 2.0
        dense = dense_step_matrix(state, G_val)
        assert np.array_equal(dense, dense.T)
        S = sine_transform(np.eye(state.grid.n_interior))
        modal = S @ np.diag(D[0] + G_val) @ S
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
        state = initialize(p, g, 16)
        levels = [state.U0, state.U_prev]
        while state.n < n:
            step(state, SolverConfig())
            levels.append(state.U_prev)
        r, _ = assemble_step_system(state)
        w, dU = state.tables.weights, np.diff(levels, axis=0) / dt
        mem = w[n - 1:0:-1] @ dU
        expected = (p.forcing(g.x, n * dt)
                    + dU[-1] / dt
                    - state.tables.mu0 * fourth_difference(state.U_prev, g)
                    - fourth_difference(mem, g)
                    - state.tables.tail[n] * fourth_difference(state.U0, g))
        scale = np.abs(expected).max()
        assert np.allclose(sine_transform(r), expected, rtol=0, atol=1e-12 * scale)


class TestStep:
    def test_nonconvergence_raises_with_step_index(self):
        p = example1_problem()
        cfg = SolverConfig(fp_tol=1e-12, fp_max_iters=1)
        state = initialize(p, Grid(32), 16)
        with pytest.raises(NonConvergenceError) as exc:
            step(state, cfg)
        assert exc.value.step_index == 2
        assert exc.value.last_increment > 1e-12

    def test_step_past_end_rejected(self):
        state = initialize(zero_problem(), Grid(8), 2)
        cfg = SolverConfig()
        step(state, cfg)
        with pytest.raises(ValueError):
            step(state, cfg)

    def test_nonfinite_damping_raises_numerical_error(self):
        # Finite where the problem's check samples it (v <= 1e4), NaN beyond;
        # amplitude 100 puts ||D2 U||^2 near 4.9e5.
        def fn(v):
            return 1.0 + v if v <= 1e4 else float("nan")

        p = zero_problem(u0=lambda x: 100.0 * np.sin(np.pi * np.asarray(x)),
                         damping=DampingFunction(fn, 1.0, 1.0))
        state = initialize(p, Grid(16), 8)
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
            forcing=lambda x, t: np.where(t > 0.3, np.nan, 0.0) * np.ones_like(x))
        with pytest.raises(NumericalError, match="non-finite iterate") as exc:
            run(p, Grid(8), 8)
        assert exc.value.step_index == 3

    def test_one_sine_transform_per_forcing_block(self, monkeypatch):
        # The state stays in the sine basis and the forcing is transformed
        # 32 levels at a time: 40 steps from level 2 transform the blocks
        # of levels 2..33 and 34..64 (N = 64) and nothing else, so no level
        # or history row is moved back to grid values between steps.  The
        # blocks are level-major: (levels, members, J-1).
        state = initialize(example2_problem(), Grid(16), 64)
        calls = []

        def counting_transform(W):
            calls.append(np.shape(W))
            return sine_transform(W)

        monkeypatch.setattr(viscobeam.stepper, "sine_transform", counting_transform)
        for _ in range(40):
            step(state, SolverConfig())
        assert len(calls) == math.ceil(40 / 32)
        assert calls == [(32, 1, 15), (31, 1, 15)]

    def test_one_forcing_call_per_member_and_block(self):
        # Each member's forcing is called once at set-up, for levels 0 and 1,
        # and once per block of levels, on the grid as a (1, J-1) row and
        # the levels' times as an (L, 1) column.
        g, N = Grid(16), 64
        calls = []

        def spy(member, f):
            def forcing(x, t):
                calls.append((member, np.shape(x), np.shape(t), (t * N).ravel().tolist()))
                return f(x, t)
            return forcing

        problems = [example1_problem(sigma=s) for s in (1.2, 2.0)]
        problems = [dataclasses.replace(p, forcing=spy(k, p.forcing))
                    for k, p in enumerate(problems)]
        run_batch(problems, g, N)
        want = [(k, (1, 15), (2, 1), [0, 1]) for k in (0, 1)]
        want += [(k, (1, 15), (len(levels), 1), list(levels))
                 for levels in (range(2, 34), range(34, 65)) for k in (0, 1)]
        assert calls == want

    def test_scalar_forcing_broadcast_over_grid(self):
        def problem(forcing):
            return dataclasses.replace(example2_problem(), forcing=forcing)

        g = Grid(16)
        assert_same_run(run(problem(lambda x, t: 1.0), g, 16)[0],
                        run(problem(lambda x, t: np.ones_like(x)), g, 16)[0])

    def test_run_propagates_failing_step_index(self):
        p = example1_problem()
        with pytest.raises(NonConvergenceError) as exc:
            run(p, Grid(32), 16, SolverConfig(fp_max_iters=1))
        assert exc.value.step_index == 2


class TestZeroLoad:
    def test_registry_zero_load_is_scalar(self):
        zero = FORCING["zero"]()
        for x, t in ((0.25, 0.0), (np.linspace(0.0, 1.0, 9), 2.5)):
            load = zero(x, t)
            assert type(load) is float and load == 0.0

    def test_scalar_zero_load_changes_nothing(self):
        # J = 16, N = 100 crosses four blocks of forcing samples: the
        # scalar load gives the final level and every record, forcing norms
        # included, of an array of zeros.
        p, g, N = example2_problem(), Grid(16), 100
        scalar, _ = run(p, g, N)
        array, _ = run(dataclasses.replace(p, forcing=lambda x, t: np.zeros_like(x)), g, N)
        assert_same_run(scalar, array)


class TestRunBatch:
    def test_members_match_single_runs(self):
        # Every member of a batch gets the bits of its run alone: the final
        # level and every recorded column, iteration counts included.  The
        # last problem has another horizon, so it steps in a batch of its own.
        problems = ([example2_problem(sigma=s) for s in (1.5, 2.0)]
                    + [example1_problem(), example2_problem(T=2.0)])
        g, N = Grid(16), 32
        for p, state in zip(problems, run_batch(problems, g, N)):
            assert state.n == N + 1
            assert_same_run(state, run(p, g, N)[0])

    @pytest.mark.parametrize("steps", [5, 32])
    def test_failed_step_leaves_state_unchanged(self, steps):
        # A step that runs out of iterations raises before it writes: the
        # state shows what it showed before, and stepped on it gives the
        # bits of a run that never failed.  After 32 steps the failing
        # level 34 starts a block, whose fill is then kept.
        p, g, N = example1_problem(), Grid(32), 256
        state = initialize(p, g, N)
        for _ in range(steps):
            step(state, SolverConfig())
        before = copy.deepcopy(state)
        with pytest.raises(NonConvergenceError) as exc:
            step(state, SolverConfig(fp_max_iters=1))
        assert exc.value.step_index == state.n == steps + 2
        assert_same_run(state, before)
        while state.n <= N:
            step(state, SolverConfig())
        assert_same_run(state, run(p, g, N)[0])

    def test_member_error_names_the_member(self):
        # The second member's G turns NaN: its error carries the member's
        # index and the message of its run alone, and the first member
        # keeps the bits of its own run.
        nan_law = DampingFunction(lambda v: 1.0 if v <= 1e4 else float("nan"), 1.0, 0.0)
        big = zero_problem(u0=lambda x: 100.0 * np.sin(np.pi * np.asarray(x)), damping=nan_law)
        g = Grid(8)
        with pytest.raises(NumericalError, match="not finite") as exc:
            run(big, g, 8)
        states = run_batch([example2_problem(), big], g, 8)
        assert (states[1].step_index, states[1].member) == (2, 1)
        assert str(states[1]) == str(exc.value)
        assert_same_run(states[0], run(example2_problem(), g, 8)[0])

    def test_raising_callable_ends_its_batch(self):
        # An exception other than NumericalError names no member, so every
        # member of that batch gets it; a batch of another horizon goes on.
        # The forcing raises for t > 0.5, in a step, not at set-up.
        def broken(x, t):
            if np.any(t > 0.5):
                raise RuntimeError("forcing broke")
            return 0.0

        bad = dataclasses.replace(example2_problem(), forcing=broken)
        states = run_batch([example2_problem(), bad, example2_problem(T=2.0)], Grid(8), 8)
        assert isinstance(states[0], RuntimeError) and states[1] is states[0]
        assert isinstance(states[2], SolverState)

    @pytest.mark.parametrize("sigmas", [(1.5,), (1.2, 1.5, 2.0)])
    def test_level_by_level_matches_whole_run(self, sigmas):
        # One step at a time reads the last two G from the records and
        # writes its record at once; one whole-run call of a batch carries
        # the G from level to level and writes the records a block at a
        # time.  Both give the same bits, at the level-2 start and around
        # the first block boundary (level 34).
        problems = [example1_problem(sigma=s) for s in sigmas]
        g = Grid(16)
        for N in (2, 3, 33, 34, 40, 65):
            for p, whole in zip(problems, run_batch(problems, g, N)):
                stepped = initialize(p, g, N)
                while stepped.n <= N:
                    step(stepped, SolverConfig())
                assert_same_run(whole, stepped)

    def test_failure_inside_a_whole_run_call_keeps_the_last_level(self):
        # The second member's forcing turns NaN for t > 0.6, or for
        # t > 0.52: inside one call from level 2 to N = 64, level 39 fails,
        # past the block boundary at 34, or level 34 itself, the first of
        # its block, right after the records of levels 2..33 went out.  The
        # first member goes on from the level before in a new call and
        # keeps the bits of its run alone: no level's buffer was written
        # over by the failing one, and every waiting record was written.
        base = example1_problem(sigma=1.5)
        g, N = Grid(16), 64
        for after, failing in ((0.6, 39), (0.52, 34)):
            bad = dataclasses.replace(base, forcing=lambda x, t, f=base.forcing, c=after: (
                np.where(t > c, np.nan, f(x, t))))
            good, failure = run_batch((base, bad), g, N)
            assert (failure.step_index, failure.member) == (failing, 1)
            assert "non-finite iterate" in str(failure)
            assert_same_run(good, run(base, g, N)[0])

    def test_one_finiteness_check_per_pass_scans_an_overflowing_sum(self):
        # One sum of the members' G checks them all each pass.  Two finite
        # G of 1e308 overflow it: the scan then finds no non-finite member,
        # and every member keeps the bits of its run alone.  An infinite G
        # among them is found and named.  The laws are 1 where the problem
        # samples them (v <= 1e4); amplitude 100 puts ||D2 U||^2 near 4.9e5.
        def beyond(value):
            return zero_problem(
                u0=lambda x: 100.0 * np.sin(np.pi * np.asarray(x)),
                damping=DampingFunction(lambda v: 1.0 if v <= 1e4 else value, 1.0, 0.0))

        g, N, huge = Grid(8), 2, beyond(1e308)
        problems = [example2_problem(), huge, huge]
        for state, p in zip(run_batch(problems, g, N), problems):
            assert_same_run(state, run(p, g, N)[0])
        assert run(huge, g, N)[1].damping[-1] == 1e308
        states = run_batch([huge, beyond(math.inf), huge], g, N)
        assert isinstance(states[0], SolverState) and isinstance(states[2], SolverState)
        assert isinstance(states[1], NumericalError) and states[1].member == 1
        assert "G = inf" in str(states[1])

    def test_forcing_raising_at_start_fails_its_member_only(self):
        # Levels 0 and 1 are sampled at set-up, member by member, so a
        # forcing that raises at t = 0 is a set-up failure of its member:
        # the rest of its batch keeps the bits of their own runs.
        def broken(x, t):
            raise RuntimeError("forcing broke")

        g, good = Grid(8), [example2_problem(sigma=s) for s in (1.5, 2.0)]
        bad = dataclasses.replace(example2_problem(), forcing=broken)
        states = run_batch([good[0], bad, good[1]], g, 8)
        assert isinstance(states[1], RuntimeError) and str(states[1]) == "forcing broke"
        with pytest.raises(RuntimeError, match="forcing broke"):
            initialize(bad, g, 8)
        for k, p in ((0, good[0]), (2, good[1])):
            assert_same_run(states[k], run(p, g, 8)[0])


class TestForcingBlocks:
    """Levels fall into aligned blocks of 32: the forcing of a block is
    sampled and transformed at once, and the far part of its history sum
    is made once.  Every level keeps the bits of one transform per level,
    and the history sum differs from the direct sum by its order only."""

    def test_levels_match_per_level_transform(self, monkeypatch):
        # J = 16, N = 100: levels 2..100 fill three blocks and a partial
        # one.  The oracle run steps with the per-level step system, whose
        # history sum is one gemv over all rows.  With the weights and tail
        # zeroed the history drops out of both, so the forcing path must
        # match bit for bit.
        p, g, N, cfg = example1_problem(), Grid(16), 100, SolverConfig()
        blocked, oracle = initialize(p, g, N), initialize(p, g, N)
        blocked.tables = oracle.tables = dataclasses.replace(
            blocked.tables, weights=np.zeros(N), tail=np.zeros(N + 1))
        while blocked.n <= N:
            assert np.array_equal(assemble_step_system(blocked)[0],
                                  assemble_per_level(oracle)[0])
            step(blocked, cfg)
            with monkeypatch.context() as m:
                m.setattr(viscobeam.stepper, "assemble_step_system", assemble_per_level)
                step(oracle, cfg)
            # The forcing norms of a block's later levels are recorded when
            # the block is filled, the oracle's one level at a time.
            assert_same_run(blocked, oracle)

    @staticmethod
    def assert_within_summation_bound(state, problem):
        # r against the per-level step system on the same state, mode by
        # mode: at most 4 n eps times the sum of the magnitudes of r's
        # terms, the history term as sum |w| |dU|.
        n, N, dt, tables = state.n, state.n_steps, state.dt, state.tables
        r, r_ref = assemble_step_system(state)[0], assemble_per_level(state)[0]
        U0, U1, dU1 = state._U0, state._U1, state._history[:, n - 2]
        history = (np.abs(tables.weights[n - 1:0:-1])
                   @ np.abs(state._history[0, :n - 1]))
        scale = (np.abs(sine_transform(problem.forcing(state.grid.x, n * dt)))
                 + np.abs(dU1) / dt
                 + state._eigs**2 * (np.abs(tables.mu0 * U1) + history
                                     + np.abs(tables.tail[n] * U0)))
        assert np.all(np.abs(r - r_ref) <= 4 * n * np.finfo(float).eps * scale), n

    def test_history_sum_within_summation_bound(self, monkeypatch):
        # With the real tables the far and near parts sum the history in
        # another order than the direct sum, by design, so r may differ in
        # its last bits, within the summation bound at every level of the
        # run.  Both runs take the same number of fixed-point iterations
        # at every level.
        p, g, N, cfg = example1_problem(), Grid(16), 100, SolverConfig()
        blocked, oracle = initialize(p, g, N), initialize(p, g, N)
        while blocked.n <= N:
            self.assert_within_summation_bound(blocked, p)
            step(blocked, cfg)
            with monkeypatch.context() as m:
                m.setattr(viscobeam.stepper, "assemble_step_system", assemble_per_level)
                step(oracle, cfg)
        assert np.array_equal(blocked.series().fp_iters, oracle.series().fp_iters)

    @pytest.mark.parametrize("J", [16, 64, 128, 256])
    def test_far_panels_within_summation_bound(self, rng, J):
        # Far parts over several panels: 256 history rows per panel up to
        # J = 64, 128 at J = 128 and 64 at J = 256.  With a random history,
        # r keeps within the summation bound at levels around the panel
        # and block edges.
        p, N = example1_problem(), 600
        state = initialize(p, Grid(J), N)
        state._history[:] = rng.standard_normal(state._history.shape)
        for n in (2, 33, 66, 130, 131, 258, 259, 290, 300, 321, 514, 600):
            state.n = n
            self.assert_within_summation_bound(state, p)

    def test_far_part_once_per_block_near_part_short(self, monkeypatch):
        # The far part is made once per block, with its forcing samples
        # (test_one_forcing_call_per_member_and_block).  Across the block of
        # levels 66..97 each level's near product spans the rows made
        # inside the block so far: 0, 1, .., 31.
        state = initialize(example1_problem(), Grid(16), 100)
        while state.n < 66:
            step(state, SolverConfig())
        near, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, b: near.append(b.shape[-2]) or matmul(a, b))
        for _ in range(32):
            step(state, SolverConfig())
        assert near == list(range(32))

    @pytest.mark.parametrize("n", [2, 40, 66])
    def test_assigned_tables_take_effect(self, n):
        # Halved weights given to a state at level n, by assigning its
        # tables or by replacing the state, take effect at level n: inside
        # a cached block (40) and at the first level of a new one (66).
        # Level n's system matches the per-level one on the new tables,
        # and both ways of giving them reach the same bits at level N.
        p, g, N, cfg = example1_problem(), Grid(16), 100, SolverConfig()
        assigned, replaced = initialize(p, g, N), initialize(p, g, N)
        while assigned.n < n:
            step(assigned, cfg)
            step(replaced, cfg)
        assigned.tables = dataclasses.replace(
            assigned.tables, weights=assigned.tables.weights / 2)
        replaced = dataclasses.replace(replaced, tables=dataclasses.replace(
            replaced.tables, weights=replaced.tables.weights / 2))
        (r, D), (r_ref, D_ref) = assemble_step_system(assigned), assemble_per_level(assigned)
        assert np.max(np.abs(r - r_ref)) <= 1e-12 * np.max(np.abs(r_ref))
        assert np.array_equal(D, D_ref)
        for state in (assigned, replaced):
            while state.n <= N:
                step(state, cfg)
        assert_same_run(assigned, replaced)

    def test_far_block_fill_peak_memory_bounded(self):
        # The step to level 8162 at J = 64, N = 8192 makes the block of
        # levels 8162..8192, which sums 8161 history rows through one
        # 31 x 256 panel buffer, about 0.13 MB at peak with the block's
        # arrays; a 31 x 8161 Toeplitz copy of the weights alone would take
        # 2 MB.
        p, N = example2_problem(), 8192
        state = initialize(p, Grid(64), N)
        while state.n < 8162:
            step(state, SolverConfig())
        assert traced_peak(lambda: step(state, SolverConfig())) <= 0.3e6

    def test_member_failing_inside_a_block(self):
        # The middle member's forcing turns NaN for t > 0.6, inside the
        # block of levels 34..65.  It fails at the step of its run alone;
        # the others go on from there in a new batch with an empty cache
        # and keep the bits of their own runs.
        g, N = Grid(16), 100
        bad = example1_problem(sigma=1.5)
        bad = dataclasses.replace(bad, forcing=lambda x, t, f=bad.forcing: (
            np.where(t > 0.6, np.nan, f(x, t))))
        problems = [example1_problem(sigma=1.2), bad, example1_problem(sigma=2.0)]
        states = run_batch(problems, g, N)
        with pytest.raises(NumericalError, match="non-finite iterate") as exc:
            run(bad, g, N)
        assert 34 < exc.value.step_index < 65
        assert isinstance(states[1], NumericalError) and states[1].member == 1
        assert states[1].step_index == exc.value.step_index
        for k in (0, 2):
            assert_same_run(states[k], run(problems[k], g, N)[0])

    def test_restacked_long_batch_keeps_single_run_bits(self):
        # Histories longer than one far-part panel of 256 rows: the middle
        # member's forcing turns NaN for t > 0.4975, so it fails at level
        # 299, inside the block of levels 290..321.  The other two go on
        # from level 299 as a new batch, which makes that block again at
        # level 299.  Panels do not depend on the batch, so each keeps the
        # bits of its run alone up to N = 600.
        g, N = Grid(8), 600
        bad = example1_problem(sigma=1.5)
        bad = dataclasses.replace(bad, forcing=lambda x, t, f=bad.forcing: (
            np.where(t > 0.4975, np.nan, f(x, t))))
        problems = [example1_problem(sigma=1.2), bad, example1_problem(sigma=2.0)]
        states = run_batch(problems, g, N)
        assert states[1].step_index == 299
        for k in (0, 2):
            assert_same_run(states[k], run(problems[k], g, N)[0])

    def test_raising_forcing_leaves_state_unchanged(self):
        # A forcing that raises for t > 0.5 raises when the block of levels
        # 34..65 is sampled, at level 34.  The state is as it was, and the
        # next step samples that block again rather than read half of it.
        base, cfg = example1_problem(), SolverConfig()

        def forcing(x, t):
            if np.any(t > 0.5):
                raise RuntimeError("forcing broke")
            return base.forcing(x, t)

        state = initialize(dataclasses.replace(base, forcing=forcing), Grid(16), 100)
        while state.n < 34:
            step(state, cfg)
        before = copy.deepcopy(state)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="forcing broke"):
                step(state, cfg)
            assert_same_run(state, before)

    def test_stepping_memory_does_not_grow_with_N(self):
        # The records of a whole-run call wait in a list for one block of
        # levels at most.  So the traced peak of run_batch at J = 16, less
        # the arrays of about N entries it holds (the history, J - 1 floats
        # a level, five records, the weights, the tail and the Toeplitz
        # window's reversed weights), is the same within 16 kB at N = 512
        # and N = 1024; it stays within 0.2 kB of its value at N = 512 up
        # to N = 8192, and falls below it only at smaller N.  Records held
        # for the whole call would add about 0.6 kB per level, 0.3 MB
        # between the two.  The problem has no memory, so the kernel
        # tables take no quadrature scratch, which would set the peak.
        # A first run, untraced, makes what is made once per process.
        free = dataclasses.replace(example1_problem(), kernel=KernelSpec(family=NO_MEMORY))
        run_batch([free], Grid(16), 64)
        peaks = {}
        for N in (512, 1024):
            peak = traced_peak(lambda: run_batch([free], Grid(16), N))
            peaks[N] = peak - 8 * N * (Grid(16).n_interior + 8)
        assert abs(peaks[1024] - peaks[512]) <= 16e3, peaks

    def test_step_peak_memory_bounded(self):
        # 64 steps of a 4-member batch at J = 64 hold one block of
        # 4 x 32 x 63 floats of forcing and one of the history's far part,
        # the transform's temporaries and one panel buffer at a time,
        # about 0.5 MB; a longer block would show here.  The batch is made
        # as run_batch makes it, to be stepped by hand.
        state = _stack([_start(example1_problem(sigma=s), Grid(64), 128)
                        for s in (1.2, 1.5, 2.0, 2.5)])
        assert traced_peak(lambda: [step(state, SolverConfig()) for _ in range(64)]) <= 0.6e6


class TestVelocitySolve:
    """Each step solves for its velocity, starting the fixed point from G
    extrapolated from the last two levels."""

    def test_roundoff_flat_in_N(self):
        # Against the same scheme stepped in long double.  A system with
        # U/dt^2 terms (about 1e7 here) loses accuracy like N^2 and read
        # 7.1e-11 relative here; the velocity form has none and reads
        # 1.2e-12.
        p, g, N = example1_problem(), Grid(16), 4096
        U = sine_transform(run(p, g, N)[0].U_prev)
        ref = long_double_solution(p, g, N)
        assert float(np.linalg.norm(U - ref) / np.linalg.norm(ref)) <= 5e-12

    def test_one_iteration_per_step_on_fine_grids(self):
        # The extrapolated G is O(dt^2) off, so at J = 64, N = 8192 one
        # iteration meets fp_tol on nearly every step (99.8 %).
        _, series = run(example1_problem(), Grid(64), 8192)
        assert np.mean(series.fp_iters[1:] == 1) >= 0.99

    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "example1"],
        ["solve", "--preset", "example2"],
        ["solve", "--preset", "example1", "--set", "initial.u0.amplitude=30"],
    ], ids=["example1", "example2", "example1-amplitude30"])
    def test_unit_scale_shortcut_changes_no_byte(self, argv, tmp_path, monkeypatch):
        # The tolerance scale max(1, ||U||) is taken as 1 without forming
        # ||U|| = sqrt(h) ||C / lambda|| while sqrt(h) ||C|| / |lambda_1|,
        # which bounds it, is at most 1.  With that bound forced off,
        # ||C / lambda|| is formed at every pass, and the outputs keep
        # every byte.  At amplitude 30 (||U|| about 21 at the end) the
        # exact scale decides either way.
        from viscobeam import cli
        assert cli.main(argv + ["-o", str(tmp_path / "bound")]) == 0
        monkeypatch.setattr(viscobeam.stepper, "_unit_size_bound", lambda eigs: -1.0)
        assert cli.main(argv + ["-o", str(tmp_path / "exact")]) == 0
        for name in ("timeseries.csv", "solution.csv"):
            assert ((tmp_path / "bound" / name).read_bytes()
                    == (tmp_path / "exact" / name).read_bytes()), name
        with open(tmp_path / "exact" / "solution.csv", newline="") as fh:
            u = np.array([float(row[1]) for row in list(csv.reader(fh))[1:]])
        assert (norm(u[1:-1], Grid(len(u) - 1)) > 1.0) == ("amplitude=30" in argv[-1])

    def test_start_changes_only_iteration_counts(self):
        # Scaling the recorded G of the last two levels before each step
        # starts the fixed point from 100 G_0.  The run takes more
        # iterations, but every level is accepted within 10 fp_tol of the
        # run started from G_0, and v_0 itself is never accepted.
        p, g, N, cfg = example1_problem(), Grid(16), 64, SolverConfig()
        plain, far = initialize(p, g, N), initialize(p, g, N)
        while plain.n <= N:
            n = plain.n
            step(plain, cfg)
            recorded = far._records[:, 2, n - 2:n].copy()
            far._records[:, 2, n - 2:n] *= 100.0
            step(far, cfg)
            far._records[:, 2, n - 2:n] = recorded
            scale = max(1.0, norm(plain.U_prev, g))
            assert norm(far.U_prev - plain.U_prev, g) <= 10 * cfg.fp_tol * scale, n
        fast, slow = plain.series(), far.series()
        assert np.all(slow.fp_iters[1:] >= fast.fp_iters[1:])
        assert slow.fp_iters.sum() > fast.fp_iters.sum()
        # G follows the bending energy, which D2 (about 1e3 at J = 16) makes
        # more sensitive than the level: 1.1e-11 relative at most here.
        assert np.allclose(slow.damping, fast.damping, rtol=1e-10, atol=0.0)


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

    def test_deterministic_reruns_bit_identical(self):
        assert_same_run(*(run(example1_problem(), Grid(16), 32)[0] for _ in range(2)))

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
                   + state.tables.tail[n] * fourth_difference(U[0], g))
            assert max_norm(res) <= bound

    @pytest.mark.parametrize("problem", [
        example1_problem, example2_problem,
        pytest.param(zero_problem, id="at_rest_affine"),
        pytest.param(lambda: zero_problem(damping=DampingFunction.sqrt_affine(1.0, 1.0)),
                     id="at_rest_sqrt_affine")])
    def test_level_one_record_matches_grid_oracle(self, problem):
        # The explicit start's curvature norm and damping are read from the
        # modes like every later step's; check them against the stencil.
        # At rest G is exactly the law's lower bound g0.
        p = problem()
        g = Grid(32)
        state = initialize(p, g, 16)
        _, series = run(p, g, 16)
        curv = norm(second_difference(state.U_prev, g), g)
        assert series.n[0] == 1
        assert series.curv_norm[0] == pytest.approx(curv, rel=1e-13)
        assert series.damping[0] == pytest.approx(p.damping(curv**2), rel=1e-13)
        assert curv > 0.0 or series.damping[0] == p.damping.g0

    @pytest.mark.parametrize("problem", [example1_problem, example2_problem])
    def test_step_records_match_grid_oracle(self, problem):
        # Every later level records the norms of its own velocity and
        # curvature, and a G that the accepted level's bending energy gives
        # up to the fixed-point tolerance; N = 40 crosses a block.
        p, g, N = problem(), Grid(16), 40
        state, U = solve_levels(p, g, N)
        series = state.series()
        for n in range(2, N + 1):
            curv = norm(second_difference(U[n], g), g)
            assert series.vel_norm[n - 1] == pytest.approx(
                norm((U[n] - U[n - 1]) / state.dt, g), rel=1e-12), n
            assert series.curv_norm[n - 1] == pytest.approx(curv, rel=1e-12), n
            assert series.damping[n - 1] == pytest.approx(p.damping(curv**2), rel=1e-9), n

    def test_far_block_fill_costs_few_gemvs(self, rng):
        # The far part of the history sum is made once per block of 32
        # levels as panel products, which BLAS runs as matrix products.  At
        # J = 64, N = 8192 one fill at level 4098 must cost at most 16 bare
        # gemvs over 4097 history rows, where a gemv per step would cost
        # 32.  The fill is timed as assembly at the block's first level on
        # a replaced state, whose cache is empty, minus assembly with the
        # block cached; each is the fastest of many interleaved calls, so
        # scheduler noise drops out.  The fill also samples and transforms
        # the (zero) forcing of its 32 levels, one to two gemvs' worth.
        p, N, n0 = example2_problem(), 8192, 4098
        state = initialize(p, Grid(64), N)
        while state.n < n0:
            step(state, SolverConfig())
        w, rows = rng.standard_normal(n0 - 1), rng.standard_normal((n0 - 1, 63))
        calls = {"fill": lambda: assemble_step_system(dataclasses.replace(state)),
                 "cached": lambda: assemble_step_system(state), "gemv": lambda: w @ rows}
        best = dict.fromkeys(calls, math.inf)
        for _ in range(100):
            for key, call in calls.items():
                t0 = time.perf_counter()
                call()
                best[key] = min(best[key], time.perf_counter() - t0)
        assert best["fill"] - best["cached"] <= 16.0 * best["gemv"]


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

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # The writers join repr()s themselves, in blocks of 64 rows; the
        # bytes must be csv.writer's, on ints and on floats at the edges.
        # 600 rows span ten blocks, the last one partial.
        values = np.array([0.0, -0.0, 1e-300, 1e300, np.inf, -np.inf, np.nan, 0.1, 1 / 3])
        cols = {f.name: np.resize(np.roll(values, k), 600)
                for k, f in enumerate(dataclasses.fields(viscobeam.stepper.TimeSeries))}
        cols["n"] = cols["fp_iters"] = np.arange(-300, 300)
        series = viscobeam.stepper.TimeSeries(**cols)
        series.to_csv(tmp_path / "ts.csv")
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(cols))
            writer.writerows(zip(*(c.tolist() for c in cols.values())))
        assert (tmp_path / "ts.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

        g, U = Grid(8), np.array([-0.0, 1e-300, 1e300, np.inf, np.nan, 0.1, -2.5])
        write_solution_csv(tmp_path / "sol.csv", g, U)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "u"])
            writer.writerows(zip([0.0, *g.x.tolist(), 1.0], [0.0, *U.tolist(), 0.0]))
        assert (tmp_path / "sol.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_csv_writer_peak_memory_bounded(self, tmp_path, rng):
        # 8192 rows of 10 columns take about 45 kB at peak in blocks of 64
        # rows; blocks of 128 took 82 kB and of 256 took 154 kB.
        series = viscobeam.stepper.TimeSeries(np.arange(8192), *rng.standard_normal((9, 8192)))
        assert traced_peak(lambda: series.to_csv(tmp_path / "big.csv")) <= 64e3

    def test_solution_csv_includes_boundaries(self, tmp_path):
        g = Grid(8)
        path = tmp_path / "sol.csv"
        write_solution_csv(path, g, np.ones(7))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x,u"
        assert len(rows) == 1 + 9
        assert rows[1].startswith("0.0,") and rows[-1].startswith("1.0,")
        # A short U once wrote 5 rows, u = 0 at x = 0.5 as at a boundary.
        with pytest.raises(ConfigurationError) as exc:
            write_solution_csv(tmp_path / "short.csv", g, np.ones(3))
        assert str(exc.value) == "CSV columns differ in length (got x: 9, u: 5)"
        assert not (tmp_path / "short.csv").exists()
