import numpy as np
import pytest

from viscobeam import (
    ConfigurationError,
    DampingFunction,
    Grid,
    KernelSpec,
    OSCILLATORY,
    ProblemSpec,
    damping_coefficient,
    norm,
    require_valid,
    sine_transform,
    validate,
)
from viscobeam.config import INITIAL_DATA, build_problem
from viscobeam.presets import example1_problem, example2_problem

from conftest import second_difference


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _problem(**kw):
    defaults = dict(u0=_zero, u1=_zero, forcing=lambda x, t: _zero(x),
                    damping=DampingFunction.affine(1.0, 1.0),
                    kernel=KernelSpec(), T=1.0)
    defaults.update(kw)
    return ProblemSpec(**defaults)


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

    def test_constant(self):
        d = DampingFunction.constant(2.0)
        assert d.g0 == 2.0 and d.lipschitz == 0.0

    def test_custom_bounds_sampled(self):
        good = DampingFunction(lambda v: 2.0 + np.tanh(v), g0=2.0,
                               lipschitz=1.0)
        assert validate(_problem(damping=good)) == []
        lying = DampingFunction(lambda v: 0.5, g0=2.0, lipschitz=1.0)
        errs = validate(_problem(damping=lying))
        assert any("lower bound" in e for e in errs)

    def test_custom_lipschitz_violation_detected(self):
        steep = DampingFunction(lambda v: 1.0 + v**2, g0=1.0, lipschitz=1.0)
        errs = validate(_problem(damping=steep))
        assert any("Lipschitz" in e for e in errs)


class TestDampingCoefficient:
    """G read from sine coefficients, against the grid-space stencil."""

    def test_affine_at_rest(self):
        g = Grid(8)
        d = DampingFunction.affine(1.0, 1.0)
        assert damping_coefficient(d, np.zeros(7), g) == 1.0

    def test_sqrt_at_rest(self):
        g = Grid(8)
        d = DampingFunction.sqrt_affine(1.0, 1.0)
        assert damping_coefficient(d, np.zeros(7), g) == 1.0

    def test_sine_mode_eigen_identity(self):
        # For the lowest sine mode the second difference is an exact
        # eigenvector, so G(1 + lambda^2 ||U||^2); cross-checked against the
        # brute-force second difference.
        g = Grid(32)
        u = np.sin(np.pi * g.x)
        d = DampingFunction.affine(1.0, 1.0)
        lam = -4.0 * np.sin(np.pi * g.h / 2.0) ** 2 / g.h**2
        expected = 1.0 + lam**2 * norm(u, g) ** 2
        brute = 1.0 + norm(second_difference(u, g), g) ** 2
        got = damping_coefficient(d, sine_transform(u), g)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(brute, rel=1e-15)


class TestValidate:
    def test_example_presets_valid(self):
        assert validate(example1_problem()) == []
        assert validate(example2_problem()) == []

    def test_sigma_below_one_reported(self):
        bad = _problem(kernel=KernelSpec(family=OSCILLATORY, sigma=0.9,
                                         gamma=0.0, alpha=1.0))
        errs = validate(bad)
        assert any("sigma" in e for e in errs)
        with pytest.raises(ConfigurationError):
            require_valid(bad)

    def test_zero_damping_reported(self):
        errs = validate(_problem(damping=DampingFunction.constant(0.0)))
        assert any("g0" in e for e in errs)

    def test_boundary_compatibility(self):
        bad = _problem(u0=lambda x: np.cos(np.pi * np.asarray(x)))
        errs = validate(bad)
        assert any("u0" in e and "vanish" in e for e in errs)

    def test_boundary_check_relative_to_scale(self):
        # sin(pi) * 1e4 ~ 1.2e-12 is roundoff of a field of size 1e4.
        big = INITIAL_DATA["sin_mode"](mode=1, amplitude=1e4)
        assert validate(_problem(u0=big, u1=big)) == []
        shifted = _problem(u0=lambda x: 1e4 * (np.sin(np.pi * np.asarray(x)) + 1e-6))
        errs = validate(shifted)
        assert any("u0" in e and "vanish" in e for e in errs)

    def test_nonfinite_damping_reported(self):
        d = DampingFunction(lambda v: float("nan") if v < 40.0 else 1.0 + v,
                            g0=1.0, lipschitz=1.0)
        errs = validate(_problem(damping=d))
        assert any("non-finite" in e for e in errs)
        with pytest.raises(ConfigurationError):
            require_valid(_problem(damping=d))

    def test_nonpositive_horizon(self):
        errs = validate(_problem(T=0.0))
        assert any("horizon" in e for e in errs)

    def test_require_valid_passes_through(self):
        p = example2_problem()
        assert require_valid(p) is p


class TestInitialRegistry:
    def test_poly_bump_matches_polynomial(self):
        f = INITIAL_DATA["poly_bump"](power=2)
        x = np.linspace(0.0, 1.0, 11)
        assert np.allclose(f(x), x**2 * (1 - x) ** 2)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            build_problem({"initial": {"u0": {"name": "wavelet"}}})
