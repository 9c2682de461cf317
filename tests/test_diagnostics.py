import dataclasses
import math

import numpy as np
import pytest

from viscobeam import (
    ConfigurationError,
    Grid,
    SolverConfig,
    data_functional,
    energy,
    initialize,
    norm,
    run,
    stability_monitor,
    step,
)
from viscobeam.presets import example1_problem, example2_problem

from conftest import forcing_l1_norm, forcing_norms, second_difference, trapezoid


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
    """A run records the forcing's norm at every level, so the data
    functional needs no second pass over the forcing; the oracle samples
    it afresh."""

    def test_zero_forcing(self):
        p = example2_problem()
        state, _ = run(p, Grid(16), 32)
        assert np.all(state.forcing_norms == 0.0)
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

    @pytest.mark.parametrize("N", [1, 64, 300])
    def test_recorded_norms_match_fresh_samples(self, N):
        # Levels 0 and 1 are sampled at the start, the rest a block of 32
        # levels at a time; N = 1 runs the start only.
        p = example1_problem(sigma=1.2, gamma=0.0, alpha=0.5)
        g, dt = Grid(16), 1.0 / N
        state, _ = run(p, g, N)
        expected = forcing_norms(p, g, dt, N)
        assert state.forcing_norms.shape == (N + 1,)
        assert np.allclose(state.forcing_norms, expected, rtol=1e-14, atol=0.0)
        assert trapezoid(state.forcing_norms, dt) == pytest.approx(
            forcing_l1_norm(p, g, dt, N), rel=1e-14)


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

    def test_non_finite_energy_is_a_violation(self):
        # A NaN energy once passed: "PASS: max energy nan within bound ...".
        verdict = stability_monitor([1, 2], [1.0, math.nan], 1.0)
        assert verdict.first_violation == 2 and str(verdict).startswith("FAIL")

    def test_steps_and_energies_of_different_lengths(self):
        # A longer total once raised a raw IndexError from steps[over[0]].
        with pytest.raises(ConfigurationError) as exc:
            stability_monitor([1], [1.0, 5000.0], 1.0)
        assert str(exc.value) == ("stability steps and total energies differ in length "
                                  "(got 1 steps and 2 energies)")

    def test_safety_factor_must_not_shrink_the_bound(self):
        with pytest.raises(ValueError):
            stability_monitor([], [], 1.0, safety=0.5)

    @pytest.mark.parametrize("safety", [float("nan"), float("inf")])
    def test_safety_factor_must_be_finite(self, safety):
        # A NaN factor once returned "PASS: ... within bound nan", and an
        # infinite one a PASS that no energy could fail.
        with pytest.raises(ValueError, match="at least 1 and finite"):
            stability_monitor([1, 2], [1.0, 2.0], 1.0, safety=safety)

    def test_overflowing_bound_is_config_error(self):
        # A finite safety factor times a finite functional can overflow; the
        # bound inf once gave a PASS that no energy could fail.
        with pytest.raises(ConfigurationError, match="not finite"):
            stability_monitor([1, 2], [1.0, 2.0], 2.0, safety=1e308)

    def test_infinite_functional_is_named(self):
        # Only the CLI once named the functional; the library blamed the
        # bound, "stability bound 1.000000e+03 * data functional inf".
        with pytest.raises(ConfigurationError) as exc:
            stability_monitor([1], [1.0], math.inf)
        assert str(exc.value) == (
            "stability data functional inf is not finite; it sums norms of the initial "
            "data and of the forcing at every level, t = 0 included")

    def test_healthy_long_run_passes(self):
        p = example2_problem(T=2.0)
        g = Grid(16)
        N = 200
        state, series = run(p, g, N)
        verdict = stability_monitor(series.n, series.total, data_functional(state))
        assert verdict.passed

    @pytest.mark.parametrize("problem", [example1_problem, example2_problem])
    def test_data_functional_matches_grid_oracle(self, problem):
        # The bending terms come from the sine modes and the forcing term
        # from the norms a run records; rebuild the functional from the
        # stencil oracle on the grid samples and fresh forcing samples.
        p = problem()
        g = Grid(32)
        N = 64
        dt = p.T / N
        state, _ = run(p, g, N)
        C0, mu0 = state.tables.K0, state.tables.mu0
        u0s, u1s = p.u0(g.x), p.u1(g.x)
        expected = (norm(u1s, g) ** 2
                    + (1.0 + 2.0 * C0 + 2.0 * C0**2 / mu0)
                    * norm(second_difference(u0s, g), g) ** 2
                    + dt**2 * norm(second_difference(u1s, g), g) ** 2
                    + forcing_l1_norm(p, g, dt, N) ** 2)
        got = data_functional(state)
        assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("problem", [example1_problem, example2_problem])
    def test_data_functional_samples_nothing(self, problem):
        # U^0, dU^1 and the forcing norms come from the state; the functional
        # once sampled u0 and u1 again and transformed them a second time.
        calls = {"u0": 0, "u1": 0, "forcing": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        p = problem()
        p = dataclasses.replace(p, **{name: counted(name, getattr(p, name))
                                      for name in calls})
        state, _ = run(p, Grid(16), 40)
        before = dict(calls)
        assert before["u0"] and before["u1"] and before["forcing"]
        data_functional(state)
        assert calls == before

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
        state = initialize(p, g, N)
        state.tables = dataclasses.replace(state.tables,
                                           weights=-state.tables.weights)
        cfg = SolverConfig()
        try:
            while state.n <= N:
                step(state, cfg)
        except NonConvergenceError:
            pass
        series = state.series()
        verdict = stability_monitor(series.n, series.total, data_functional(state),
                                    safety=1e3)
        assert not verdict.passed
        assert verdict.max_total > verdict.bound
