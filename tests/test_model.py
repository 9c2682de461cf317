import dataclasses
import math
import warnings

import numpy as np
import pytest

from viscobeam import (
    ConfigurationError,
    DampingFunction,
    KernelSpec,
    OSCILLATORY,
)
from viscobeam.config import INITIAL_DATA, build_problem
from viscobeam.presets import example1_problem, example2_problem

from conftest import zero_problem


class TestDampingFunction:
    def test_affine_constants(self):
        d = DampingFunction.affine(1.0, 1.0)
        assert d.g0 == 1.0 and d.lipschitz == 1.0
        assert d(2.5) == 3.5

    def test_sqrt_affine_constants(self):
        # Derivative b / (2 sqrt(a + b v)) peaks at v = 0.
        d = DampingFunction.sqrt_affine(1.0, 1.0)
        assert d.g0 == 1.0 and d.lipschitz == 0.5
        assert d(3.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.3, 2.5), (4.0, 1e-3)])
    def test_sqrt_affine_matches_numpy_bit_for_bit(self, a, b):
        # The law calls math.sqrt; numpy's sqrt is correctly rounded too, so
        # both give the same bits over the whole range, infinity included.
        vs = [0.0, 1e-300, *np.geomspace(1e-6, 1e12, 61).tolist(), 1e300, math.inf]
        d = DampingFunction.sqrt_affine(a, b)
        got = np.array([d(v) for v in vs])
        want = np.array([float(np.sqrt(a + b * v)) for v in vs])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert math.isnan(d(math.nan)) and math.isnan(np.sqrt(a + b * math.nan))

    def test_sqrt_affine_negative_argument_is_nan(self):
        # Only a < 0 reaches a negative argument; as with numpy's sqrt the
        # law returns NaN there, so a problem holding it reports it as
        # non-finite.
        d = DampingFunction.sqrt_affine(-1.0, 1.0)
        assert math.isnan(d.g0)
        assert math.isnan(d(0.0)) and d(3.0) == math.sqrt(2.0)
        with pytest.raises(ConfigurationError, match="non-finite value"):
            zero_problem(damping=d)

    def test_sqrt_affine_negative_a_is_config_error_without_warnings(self):
        # g0 = sqrt(a) is NaN for a < 0 without a numpy RuntimeWarning, so a
        # caller that turns warnings into errors still gets the problem's g0
        # message rather than an exception from the constructor.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="g0 must be positive"):
                zero_problem(damping=DampingFunction.sqrt_affine(-1.0, 1.0))

    def test_constant(self):
        d = DampingFunction.constant(2.0)
        assert d.g0 == 2.0 and d.lipschitz == 0.0

    def test_custom_bounds_sampled(self):
        good = DampingFunction(lambda v: 2.0 + np.tanh(v), g0=2.0,
                               lipschitz=1.0)
        assert zero_problem(damping=good).damping is good
        lying = DampingFunction(lambda v: 0.5, g0=2.0, lipschitz=1.0)
        with pytest.raises(ConfigurationError, match="lower bound"):
            zero_problem(damping=lying)

    def test_custom_lipschitz_violation_detected(self):
        steep = DampingFunction(lambda v: 1.0 + v**2, g0=1.0, lipschitz=1.0)
        with pytest.raises(ConfigurationError, match="Lipschitz"):
            zero_problem(damping=steep)

    @pytest.mark.parametrize("b", [1.0, 300.0, 1e4])
    def test_slight_breaks_of_declared_constants_detected(self, b):
        # A law one part in a million above its Lipschitz constant, or below
        # its lower bound, is far beyond roundoff.
        over = DampingFunction(lambda v: 1.0 + b * (1.0 + 1e-6) * v, g0=1.0, lipschitz=b)
        with pytest.raises(ConfigurationError, match="Lipschitz"):
            zero_problem(damping=over)
        under = DampingFunction(lambda v: (1.0 - 1e-6) + b * v, g0=1.0, lipschitz=b)
        with pytest.raises(ConfigurationError, match="lower bound"):
            zero_problem(damping=under)


class TestValidate:
    """A problem that breaks the scheme's assumptions cannot be built."""

    def test_example_presets_valid(self):
        assert example1_problem().T == example2_problem().T == 1.0

    def test_sigma_below_one_reported(self):
        with pytest.raises(ConfigurationError, match="sigma"):
            zero_problem(kernel=KernelSpec(family=OSCILLATORY, sigma=0.9,
                                           gamma=0.0, alpha=1.0))

    def test_zero_damping_reported(self):
        with pytest.raises(ConfigurationError, match="g0"):
            zero_problem(damping=DampingFunction.constant(0.0))

    def test_boundary_compatibility(self):
        with pytest.raises(ConfigurationError, match="u0 must vanish"):
            zero_problem(u0=lambda x: np.cos(np.pi * np.asarray(x)))

    def test_boundary_check_relative_to_scale(self):
        # sin(pi) * 1e4 ~ 1.2e-12 is roundoff of a field of size 1e4.
        big = INITIAL_DATA["sin_mode"](mode=1, amplitude=1e4)
        assert zero_problem(u0=big, u1=big).u0 is big
        with pytest.raises(ConfigurationError, match="u0 must vanish"):
            zero_problem(u0=lambda x: 1e4 * (np.sin(np.pi * np.asarray(x)) + 1e-6))

    def test_nonfinite_damping_reported(self):
        d = DampingFunction(lambda v: float("nan") if v < 40.0 else 1.0 + v,
                            g0=1.0, lipschitz=1.0)
        with pytest.raises(ConfigurationError, match="non-finite"):
            zero_problem(damping=d)

    def test_raising_damping_reported(self):
        def broken(v):
            raise RuntimeError("no G here")

        with pytest.raises(ConfigurationError) as exc:
            zero_problem(damping=DampingFunction(broken, g0=1.0, lipschitz=1.0))
        assert str(exc.value) == (
            "damping function raised on sampled input: RuntimeError('no G here')")

    def test_raising_initial_datum_reported(self):
        def broken(x):
            raise RuntimeError("no u0 here")

        with pytest.raises(ConfigurationError) as exc:
            zero_problem(u0=broken)
        assert str(exc.value) == (
            "initial data u0 raised on the probe grid: RuntimeError('no u0 here')")

    def test_initial_datum_of_wrong_shape_reported(self):
        # A datum of three values once raised a raw IndexError on the probe.
        with pytest.raises(ConfigurationError) as exc:
            zero_problem(u1=lambda x: np.ones(3))
        assert str(exc.value) == ("initial data u1 must return one value per point of the "
                                  "probe grid, shape (65,) (got shape (3,))")

    def test_nonpositive_horizon(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            zero_problem(T=0.0)

    @pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan])
    def test_nonfinite_horizon(self, T):
        # T = inf once reached the stepper, which stopped with a bare
        # "cannot convert float NaN to integer".
        with pytest.raises(ConfigurationError,
                           match="time horizon T must be positive and finite"):
            zero_problem(T=T)

    def test_every_violation_listed(self):
        # The problem's own violations, in order, joined by "; ".
        with pytest.raises(ConfigurationError) as exc:
            zero_problem(damping=DampingFunction.constant(0.0), T=0.0,
                         u1=lambda x: 1.0 + 0.0 * np.asarray(x))
        assert str(exc.value) == (
            "damping lower bound g0 must be positive (got 0.0); the velocity term "
            "must stay dissipative; time horizon T must be positive and finite "
            "(got 0.0); "
            "initial data u1 must vanish at x=0 and x=1 for the hinged boundary "
            "(got end values [1.0, 1.0] against max |u1| = 1)")

    def test_replace_checks_again(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            dataclasses.replace(example2_problem(), T=-1.0)


class TestInitialRegistry:
    def test_poly_bump_matches_polynomial(self):
        f = INITIAL_DATA["poly_bump"](power=2)
        x = np.linspace(0.0, 1.0, 11)
        assert np.allclose(f(x), x**2 * (1 - x) ** 2)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            build_problem({"initial": {"u0": {"name": "wavelet"}}})
