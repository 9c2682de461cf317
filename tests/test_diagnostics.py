import dataclasses

import numpy as np
import pytest

from viscobeam import (
    Grid,
    SolverConfig,
    data_functional,
    energy,
    forcing_l1_norm,
    initialize,
    norm,
    run,
    stability_monitor,
    step,
)
from viscobeam.presets import example1_problem, example2_problem

from conftest import second_difference


class TestEnergyRecord:
    def test_zero_state(self):
        p = example2_problem()
        zero = dataclasses.replace(p, u0=lambda x: 0.0 * np.asarray(x),
                                   u1=lambda x: 0.0 * np.asarray(x))
        _, series = run(zero, Grid(8), 8)
        for column in (series.kinetic, series.elastic, series.dissipated,
                       series.total):
            assert np.all(column == 0.0)

    def test_stationary_step_has_zero_kinetic(self):
        # dU = 0 at every level, the beam bent: only elastic energy.
        kinetic, dissipated, elastic, total = energy(
            np.zeros(2), np.array([1.0, 2.0]), g0=1.0, mu0=0.5, dt=0.125)
        assert np.all(kinetic == 0.0)
        assert np.all(dissipated == 0.0)
        assert np.all(elastic > 0.0)
        assert np.array_equal(total, elastic)

    def test_columns_from_recorded_norms(self):
        kinetic, dissipated, elastic, total = energy(
            np.array([1.0, 2.0, 3.0]), np.array([2.0, 0.0, 1.0]),
            g0=0.5, mu0=0.4, dt=0.1)
        assert np.allclose(kinetic, [0.5, 2.0, 4.5], rtol=1e-15)
        assert np.allclose(elastic, [0.4, 0.0, 0.1], rtol=1e-15)
        # No dissipation at the explicit start level, then g0*dt*||dU^m||^2.
        assert np.allclose(dissipated, [0.0, 0.2, 0.65], rtol=1e-15)
        assert np.allclose(total, [0.9, 2.2, 5.25], rtol=1e-15)

    def test_example2_regression_value(self):
        # Frozen baseline from the first accepted run of this configuration.
        p = example2_problem()
        _, series = run(p, Grid(32), 64)
        total = float(series.total[-1])
        assert total > 0.0
        assert total == pytest.approx(0.015081183226336715, rel=1e-10)

    def test_components_nonnegative_dissipation_monotone(self):
        p = example1_problem()
        _, series = run(p, Grid(16), 64)
        assert np.all(series.kinetic >= 0.0)
        assert np.all(series.elastic >= 0.0)
        assert np.all(np.diff(series.dissipated) >= 0.0)


class TestForcingNorm:
    def test_zero_forcing(self):
        p = example2_problem()
        assert forcing_l1_norm(p, Grid(16), 1.0 / 32, 32) == 0.0

    def test_trapezoid_matches_analytic_factorization(self):
        # f = exp(-sigma t) t^alpha sin(pi x) factorizes, so the L1 norm is
        # ||sin(pi x)||_h times the scalar trapezoid integral.  N = 300
        # samples the forcing in more than one block of time levels.
        p = example1_problem(sigma=1.2, gamma=0.0, alpha=0.5)
        g = Grid(16)
        for N in (64, 300):
            dt = 1.0 / N
            got = forcing_l1_norm(p, g, dt, N)
            ts = dt * np.arange(N + 1)
            scalar = np.exp(-1.2 * ts) * ts**0.5
            scalar_int = dt * (0.5 * scalar[0] + scalar[1:-1].sum()
                               + 0.5 * scalar[-1])
            expected = norm(np.sin(np.pi * g.x), g) * scalar_int
            assert got == pytest.approx(expected, rel=1e-12)


class TestStabilityMonitor:
    def test_zero_data_passes_trivially(self):
        verdict = stability_monitor(np.arange(1, 10), np.zeros(9),
                                    data_functional=0.0)
        assert verdict.passed

    def test_violation_reports_first_step(self):
        verdict = stability_monitor([1, 2, 3], [0.1, 9.0, 12.0],
                                    data_functional=1.0, safety=5.0)
        assert not verdict.passed
        assert verdict.first_violation == 2
        assert "FAIL" in str(verdict)

    def test_safety_factor_must_not_shrink_the_bound(self):
        with pytest.raises(ValueError):
            stability_monitor([], [], 1.0, safety=0.5)

    def test_healthy_long_run_passes(self):
        p = example2_problem(T=2.0)
        g = Grid(16)
        N = 200
        state, series = run(p, g, N)
        functional = data_functional(p, g, state.dt, N,
                                     C0=state.tables.K0, mu0=state.tables.mu0)
        verdict = stability_monitor(series.n, series.total, functional)
        assert verdict.passed

    @pytest.mark.parametrize("problem", [example1_problem, example2_problem])
    def test_data_functional_matches_grid_oracle(self, problem):
        # The bending terms come from the sine modes; rebuild the functional
        # from the stencil oracle on the grid samples.
        p = problem()
        g = Grid(32)
        N = 64
        dt = p.T / N
        C0, mu0 = 0.3, 0.7
        u0s, u1s = p.u0(g.x), p.u1(g.x)
        expected = (norm(u1s, g) ** 2
                    + (1.0 + 2.0 * C0 + 2.0 * C0**2 / mu0)
                    * norm(second_difference(u0s, g), g) ** 2
                    + dt**2 * norm(second_difference(u1s, g), g) ** 2
                    + forcing_l1_norm(p, g, dt, N) ** 2)
        got = data_functional(p, g, dt, N, C0=C0, mu0=mu0)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_negated_weights_trip_the_monitor(self):
        # Fault injection: flipping the sign of the memory weights turns the
        # history term anti-dissipative.  The energy blows past any
        # reasonable data bound within a few steps (and the fixed-point
        # solve eventually diverges outright); the monitor must flag the
        # recorded prefix.
        from viscobeam import NonConvergenceError

        p = example2_problem(T=2.0)
        g = Grid(8)
        N = 500
        state = initialize(p, g, p.T / N)
        state.tables = dataclasses.replace(state.tables,
                                           weights=-state.tables.weights)
        cfg = SolverConfig()
        mu0 = state.tables.mu0
        infos = []
        try:
            while state.n <= N:
                infos.append(step(state, cfg))
        except NonConvergenceError:
            pass
        _, _, _, total = energy([i.vel_norm for i in infos],
                                [i.curv_norm for i in infos],
                                p.damping.g0, mu0, state.dt)
        functional = data_functional(p, g, state.dt, N, C0=state.tables.K0,
                                     mu0=mu0)
        verdict = stability_monitor([i.n for i in infos], total, functional,
                                    safety=1e3)
        assert not verdict.passed
        assert verdict.max_total > verdict.bound
