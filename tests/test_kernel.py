import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from viscobeam import (
    ConfigurationError,
    KernelSpec,
    KernelTables,
    NO_MEMORY,
    NON_OSCILLATORY,
    OSCILLATORY,
)
from viscobeam import DampingFunction, kernel
from viscobeam.config import build_problem, build_steps
from viscobeam.diagnostics import stability_monitor
from viscobeam.presets import preset_config

from conftest import (oracle_beta, oracle_tail, oracle_tail_antiderivatives,
                      oracle_weight, tail_antiderivatives, traced_peak, zero_problem)

OSC = lambda s, g, a: KernelSpec(family=OSCILLATORY, sigma=s, gamma=g, alpha=a)
NONOSC = lambda s, a: KernelSpec(family=NON_OSCILLATORY, sigma=s, alpha=a)
NONE = KernelSpec(family=NO_MEMORY)


def weights(spec, dt, n):
    return KernelTables.build(spec, dt, n).weights


def mu0(spec):
    return KernelTables.build(spec, 1.0, 1).mu0


def k0(spec):
    return KernelTables.build(spec, 1.0, 1).K0


def tails(spec, t_end, n):
    """K at the n + 1 times k * t_end / n, from the tables."""
    return KernelTables.build(spec, t_end / n, n).tail


# Valid parameter combinations spanning the benchmark tables.
TABLE_SPECS = (
    [OSC(1.2, g, 0.5) for g in (0.0, 0.5, 1.0)]
    + [OSC(2.0, g, a) for g in (0.0, 1.0, 2.0) for a in (0.5, 1.0)]
    + [NONOSC(s, 0.5) for s in (1.5, 2.0, 2.5, 3.0)]
    + [NONOSC(s, a) for s in (1.5, 3.0) for a in (0.3, 0.7)]
)


class TestBetaEval:
    # The density has one implementation, the test oracle; the package
    # takes beta only through its moments.
    def test_exponential_case(self):
        # Gamma(1) = 1 and cos(0) = 1 leave the bare exponential.
        assert oracle_beta(OSC(2.0, 0.0, 1.0), 1.0) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_value_at_zero_for_alpha_one(self):
        assert oracle_beta(OSC(1.2, 1.0, 1.0), 0.0) == 1.0

    def test_weakly_singular_value(self):
        # exp(-1/2) * 0.25**(-1/2) / sqrt(pi); high-precision reference.
        got = oracle_beta(OSC(2.0, 0.0, 0.5), 0.25)
        assert got == pytest.approx(0.68439656062443307, rel=1e-14)

    def test_no_memory_family_is_zero(self):
        assert oracle_beta(NONE, 0.7) == 0.0


class TestSpecValidation:
    @pytest.mark.parametrize("spec", [
        (OSCILLATORY, 0.9, 0.0, 1.0),        # tempering too weak
        (OSCILLATORY, 2.0, 3.0, 1.0),        # gamma above sigma
        (OSCILLATORY, 2.0, 1.0, 0.3),        # unsupported oscillatory exponent
        (NON_OSCILLATORY, 2.0, 0.0, 1.5),    # exponent above 1
        (NON_OSCILLATORY, 2.0, 0.0, 0.0),    # exponent must be positive
        (NON_OSCILLATORY, 2.0, 0.7, 0.5),    # stray gamma
        ("exotic", 2.0, 0.0, 1.0),           # unknown family
    ])
    def test_invalid_specs_raise(self, spec):
        # (family, sigma, gamma, alpha)
        with pytest.raises(ConfigurationError):
            KernelSpec(*spec)

    def test_sigma_message_names_the_constraint(self):
        with pytest.raises(ConfigurationError, match=r"sigma must be > 1 \(got 0\.9\)"):
            OSC(0.9, 0.0, 1.0)

    def test_every_violation_listed(self):
        message = ("kernel tempering rate sigma must be > 1 (got 0.9); otherwise the "
                   "tail mass K(0) is not below 1; oscillatory kernel supports alpha "
                   "in {1/2, 1} only (got 0.3)")
        with pytest.raises(ConfigurationError) as exc:
            OSC(0.9, 0.0, 0.3)
        assert str(exc.value) == message

    def test_tail_mass_rounding_to_one_rejected(self):
        # sigma > 1 holds, but K(0) = sigma**-alpha rounds to 1.
        message = (r"^tail mass K\(0\) = 1\.0 outside \(0, 1\); the transformed "
                   r"elastic coefficient would be non-positive$")
        with pytest.raises(ConfigurationError, match=message):
            KernelSpec(NON_OSCILLATORY, np.nextafter(1.0, 2.0), 0.0, 0.01)


# Each once raised a raw TypeError from a comparison, or, for T = True,
# built a problem of horizon 1.
@pytest.mark.parametrize("make, message", [
    (lambda: KernelSpec(NON_OSCILLATORY, "2", 0.0, 0.5), "kernel sigma"),
    (lambda: zero_problem(T="1"), "time horizon T"),
    (lambda: zero_problem(T=True), "time horizon T"),
    (lambda: KernelTables.build(NONOSC(1.5, 0.5), "0.1", 8), "time step T/N"),
    (lambda: stability_monitor([1], [1.0], 1.0, safety="5"), "safety factor"),
    # A string functional once raised a raw TypeError, and True passed.
    (lambda: stability_monitor([1], [1.0], "1"), "stability data functional"),
    (lambda: stability_monitor([1], [1.0], True), "stability data functional"),
    (lambda: DampingFunction(lambda v: 1.0, "1", 0.0), "damping lower bound g0"),
    (lambda: DampingFunction(lambda v: 1.0, 1.0, "0"), "damping Lipschitz constant"),
], ids=["kernel-sigma", "T-str", "T-bool", "tables-dt", "safety", "functional-str",
        "functional-bool", "damping-g0", "damping-lipschitz"])
def test_real_inputs_must_be_real_numbers(make, message):
    with pytest.raises(ConfigurationError, match=f"^{message} must be a real number"):
        make()


class TestKernelTail:
    def test_closed_form_exponential(self):
        assert k0(OSC(2.0, 0.0, 1.0)) == pytest.approx(0.5, abs=1e-14)

    def test_closed_form_oscillatory(self):
        # sigma / (sigma^2 + gamma^2) at t = 0
        got = k0(OSC(1.2, 1.0, 1.0))
        assert got == pytest.approx(1.2 / 2.44, rel=1e-14)

    # alpha = 0.95 pins the graded first panel: without it the rule in
    # u = s**alpha misses this oracle by about 2e-9.
    @pytest.mark.parametrize("spec", TABLE_SPECS + [NONOSC(1.5, 0.95)])
    def test_matches_quadrature_oracle(self, spec):
        dt = 0.01
        tail = KernelTables.build(spec, dt, 370).tail
        for k in (0, 13, 50, 100, 370):
            assert tail[k] == pytest.approx(oracle_tail(spec, k * dt), abs=1e-11)

    # The first panel was once graded in u = s**alpha, which at alpha =
    # 0.01 left the tail's drop near u = sigma**-alpha inside one piece:
    # off by 3.5e-13, 1.4e-7 and 3.4e-5 at these steps.
    @pytest.mark.parametrize("dt", [1.0 / 64.0, 1.0, 10.0])
    def test_small_alpha_on_coarse_steps(self, dt):
        spec = NONOSC(1.5, 0.01)
        tail = KernelTables.build(spec, dt, 50).tail
        for k in range(51):
            assert abs(tail[k] - oracle_tail(spec, k * dt)) <= 1e-14, k

    @pytest.mark.parametrize("spec", TABLE_SPECS)
    def test_tail_negligible_far_out(self, spec):
        assert abs(tails(spec, 50.0 / spec.sigma, 256)[-1]) <= 1e-12

    @pytest.mark.parametrize(
        "spec", [OSC(1.2, 0.0, 0.5), OSC(2.0, 0.0, 1.0)]
        + [NONOSC(s, a) for s in (1.5, 3.0) for a in (0.3, 0.5, 0.7, 1.0)])
    def test_monotone_families_non_increasing(self, spec):
        # Without oscillation the density is non-negative, so the tail
        # decreases; sampled on a fine grid.
        vals = tails(spec, 40.0 / spec.sigma, 999)
        assert np.all(vals >= -1e-15)
        assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("spec", [OSC(1.2, 1.0, 0.5), OSC(2.0, 2.0, 1.0),
                                      OSC(2.0, 2.0, 0.5)])
    def test_oscillatory_tail_peaks_at_zero(self, spec):
        # The tail may oscillate (and even dip negative) but never exceeds
        # its value at zero, so the running maximum C0 equals K(0).
        vals = tails(spec, 40.0 / spec.sigma, 999)
        assert np.max(vals) <= vals[0] + 1e-10

    @pytest.mark.parametrize("spec", [OSC(1.2, 1.0, 0.5), OSC(2.0, 2.0, 0.5), OSC(1.2, 0.0, 0.5),
                                      OSC(2.0, 1.0, 1.0), OSC(2.0, 2.0, 1.0), NONOSC(1.5, 0.5),
                                      NONOSC(3.0, 0.3), NONOSC(1.5, 1.0), NONE])
    def test_closed_form_matches_density_quadrature(self, spec):
        # Ties the closed-form oracle to beta's definition: adaptive
        # quadrature of the density over (t, t + 45/sigma), where the
        # tempering leaves a remainder far below 1e-15.
        for t in (0.0, 0.01, 0.3, 1.0, 4.0, 14.0, 40.0):
            with warnings.catch_warnings():
                # At the weak endpoint singularity QAGS falls back to its
                # epsilon extrapolation and warns about roundoff; the
                # extrapolated value is the one wanted here.
                warnings.simplefilter("ignore", IntegrationWarning)
                direct, _ = quad(lambda s: oracle_beta(spec, s), t, t + 45.0 / spec.sigma,
                                 epsabs=1e-13, epsrel=1e-13, limit=400)
            assert abs(oracle_tail(spec, t) - direct) <= 1e-14, t

    def test_oscillatory_tail_does_cross_zero(self):
        # gamma = sigma = 2: closed form exp(-2t)(cos 2t - sin 2t)/4 is
        # negative at t = 1/2.  Pins down why weight positivity cannot hold
        # for every oscillatory configuration.
        assert tails(OSC(2.0, 2.0, 1.0), 0.5, 32)[-1] < -0.02


class TestAntiderivatives:
    def test_zero_at_origin(self):
        assert tail_antiderivatives(OSC(1.2, 0.5, 0.5), 0.0) == (0.0, 0.0)

    def test_no_memory_is_flat(self):
        assert tail_antiderivatives(NONE, 3.0) == (0.0, 0.0)

    def test_exponential_closed_form(self):
        j1, _ = tail_antiderivatives(OSC(2.0, 0.0, 1.0), 1.0)
        assert j1 == pytest.approx((1.0 - math.exp(-2.0)) / 4.0, rel=1e-13)

    @pytest.mark.parametrize("spec", [OSC(1.2, 1.0, 0.5), OSC(2.0, 1.0, 1.0),
                                      NONOSC(1.5, 0.3), NONOSC(3.0, 0.7),
                                      NONOSC(1.5, 0.95)])
    def test_matches_nested_quadrature(self, spec):
        for t in (0.25, 1.0, 2.5):
            j1, j2 = tail_antiderivatives(spec, t)
            oj1, oj2 = oracle_tail_antiderivatives(spec, t)
            assert j1 == pytest.approx(oj1, abs=5e-10)
            assert j2 == pytest.approx(oj2, abs=5e-10)

    @pytest.mark.parametrize("spec", [OSC(1.2, 0.0, 0.5), NONOSC(1.5, 0.5)])
    def test_shape_properties_monotone_tail(self, spec):
        # J1' = K and J2'' = K, so for non-negative tails J1 is
        # non-decreasing and J2 convex.
        ts = np.linspace(0.0, 5.0, 60)
        j1 = np.array([tail_antiderivatives(spec, t)[0] for t in ts])
        j2 = np.array([tail_antiderivatives(spec, t)[1] for t in ts])
        assert np.all(np.diff(j1) >= -1e-13)          # J1 non-decreasing
        assert np.all(np.diff(j2) >= -1e-13)          # J2 non-decreasing
        assert np.all(np.diff(j2, 2) >= -1e-10)       # J2 convex

    def test_shape_properties_oscillatory(self):
        # A zero-crossing tail makes J1 dip, but J1 stays positive (the
        # early positive lobe dominates), hence J2 is still non-decreasing.
        spec = OSC(1.2, 1.0, 0.5)
        ts = np.linspace(0.0, 5.0, 60)
        j1 = np.array([tail_antiderivatives(spec, t)[0] for t in ts])
        j2 = np.array([tail_antiderivatives(spec, t)[1] for t in ts])
        assert np.all(j1[1:] > 0.0)
        assert np.any(np.diff(j1) < 0.0)
        assert np.all(np.diff(j2) >= -1e-13)


class TestMu0:
    def test_examples(self):
        assert mu0(OSC(2.0, 0.0, 1.0)) == pytest.approx(0.5, abs=1e-14)
        assert mu0(NONE) == 1.0
        assert mu0(OSC(1.2, 1.0, 1.0)) == pytest.approx(0.50819672131147541,
                                                        rel=1e-13)


class TestQuadratureWeights:
    @pytest.mark.parametrize("n", [1, 5, 37])
    def test_row_sum_identity(self, n):
        # Row sums telescope to the difference quotient of the second
        # antiderivative over the last panel; the antiderivative here comes
        # from the conftest helper, whose panels are uniform in t**alpha (here
        # sqrt(t)) rather than the weights' uniform time grid.
        spec = OSC(1.2, 0.5, 0.5)
        dt = 1.0 / 64.0
        w = weights(spec, dt, n)
        _, j2_hi = tail_antiderivatives(spec, n * dt)
        _, j2_lo = tail_antiderivatives(spec, (n - 1) * dt)
        assert w.sum() == pytest.approx((j2_hi - j2_lo) / dt, abs=1e-10)

    @pytest.mark.parametrize("spec", [OSC(1.2, 1.0, 0.5), OSC(2.0, 1.0, 1.0),
                                      NONOSC(1.5, 0.5), NONOSC(3.0, 0.3)])
    def test_translation_invariant_double_integral(self, spec):
        # Adaptive double integration of the defining w[n, p] equals
        # omega[n - p] for off-diagonal and diagonal cells alike (measured
        # within 3.7e-16).
        dt = 0.125
        w = weights(spec, dt, 5)
        for n, p in [(1, 1), (3, 1), (5, 2)]:
            assert w[n - p] == pytest.approx(oracle_weight(spec, dt, n, p),
                                             abs=1e-14)

    def test_small_alpha_weights_on_a_unit_step(self):
        # Graded in u, the first panel once put these off by 9.2e-5, 3.1e-5
        # and 7.5e-4 relative.
        spec = NONOSC(1.5, 0.01)
        w = weights(spec, 1.0, 3)
        for n in (1, 2, 3):
            assert abs(w[n - 1] - oracle_weight(spec, 1.0, n, 1)) <= 1e-14, n - 1

    def test_positive_for_monotone_tail_configs(self):
        # Strict positivity is guaranteed whenever the tail stays positive
        # on the horizon: all non-oscillatory cells and the mildly
        # oscillatory ones.
        cases = ([(OSC(1.2, g, 0.5), n) for g in (0.0, 0.5)
                  for n in (8, 32, 256)]
                 + [(OSC(1.2, 1.0, 0.5), n) for n in (8, 16, 32)]
                 + [(OSC(2.0, 1.0, a), 64) for a in (0.5, 1.0)]
                 + [(NONOSC(s, 0.5), 1024) for s in (1.5, 2.0, 2.5, 3.0)]
                 + [(NONOSC(s, a), 128) for s in (1.5, 3.0) for a in (0.3, 0.7)])
        for spec, n in cases:
            w = weights(spec, 1.0 / n, n)
            assert w.min() > 0.0, (spec, n)

    def test_negative_weights_where_tail_crosses_zero(self):
        # The gamma = sigma = 2 cells have K < 0 on part of [0, 1], so the
        # far weights (local tail averages) go negative there.
        w = weights(OSC(2.0, 2.0, 1.0), 1.0 / 64, 64)
        assert w.min() < -1e-4
        assert w[0] > 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the weights are second differences of one global "
        "J2 and keep its absolute roundoff, so on a long horizon far weights "
        "that fall to 1e-36 come out negative (1,385 of 5,000, min -1.5e-12)"))
    def test_long_horizon_weights_positive(self):
        # The non-oscillatory tail of example2-longtime is positive, so every
        # true weight is; accurate far weights will turn this into a pass.
        cfg = preset_config("example2-longtime")
        problem, N = build_problem(cfg), build_steps(cfg)
        assert weights(problem.kernel, problem.T / N, N).min() > 0.0


class TestKernelTables:
    def test_build_fields(self):
        spec = OSC(1.2, 1.0, 0.5)
        tables = KernelTables.build(spec, 1.0 / 32, 32)
        assert tables.K0 == pytest.approx(0.75232562044403501, rel=1e-13)
        assert tables.mu0 == pytest.approx(1.0 - tables.K0, abs=1e-15)
        assert tables.weights.shape == (32,)
        assert tables.tail.shape == (33,)
        assert tables.tail[0] == pytest.approx(tables.K0, abs=1e-14)

    @pytest.mark.parametrize("spec", TABLE_SPECS + [NONE])
    def test_k0_is_the_spec_closed_form(self, spec):
        # Bit for bit: the tables take K0 from the spec, and so does the tail.
        tables = KernelTables.build(spec, 1.0 / 16, 16)
        assert spec.K0 == tables.K0 == tables.tail[0]

    def test_no_memory_tables(self):
        tables = KernelTables.build(NONE, 0.01, 10)
        assert tables.K0 == 0.0 and tables.mu0 == 1.0
        assert np.all(tables.weights == 0.0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelTables.build(OSC(0.5, 0.0, 1.0), 0.01, 4)

    # A NaN or infinite step once gave NaN weights, and so did a horizon
    # N*dt = 1e155, whose J2 overflows, with two RuntimeWarnings.  Each is
    # named by its own check: without the step's, a zero step would be
    # reported as an overflow.
    @pytest.mark.parametrize("dt, n_steps, message", [
        *((dt, 4, f"time step T/N must be positive and finite (got {dt!r})")
          for dt in (0.0, -0.1, math.nan, math.inf)),
        (0.1, 0, "step count N must be at least 1 (got 0)"),
        (2.5e154, 4, "kernel tables overflow on the horizon N*dt = 1e+155; "
                     "take a shorter horizon T"),
    ], ids=["0.0-4", "-0.1-4", "nan-4", "inf-4", "0.1-0", "2.5e+154-4"])
    def test_bad_step_rejected(self, dt, n_steps, message):
        with pytest.raises(ConfigurationError) as exc:
            KernelTables.build(NONOSC(1.5, 0.5), dt, n_steps)
        assert str(exc.value) == message

    @pytest.mark.parametrize("spec", [NONE, NONOSC(1.5, 0.5), OSC(2.0, 1.0, 0.5)])
    def test_overflowing_horizon_named(self, spec):
        with pytest.raises(ConfigurationError) as exc:
            KernelTables.build(spec, 2.5e154, 4)
        assert str(exc.value) == (
            "kernel tables overflow on the horizon N*dt = 1e+155; take a shorter horizon T")
        tables = KernelTables.build(spec, 2.5e153, 4)
        assert np.isfinite(tables.weights).all() and np.isfinite(tables.tail).all()

    def test_stack_adds_member_axis(self):
        one, two = (KernelTables.build(NONOSC(s, 0.5), 1.0 / 16, 16) for s in (1.5, 3.0))
        assert KernelTables.stack([one]) is one
        both = KernelTables.stack([one, two])
        assert both.K0.shape == both.mu0.shape == (2, 1)
        assert np.array_equal(both.weights, [one.weights, two.weights])
        assert np.array_equal(both.tail, [one.tail, two.tail])
        assert np.array_equal(both.mu0[:, 0], [one.mu0, two.mu0])

    def test_build_peak_memory_bounded(self):
        # The moment sums run in blocks of panels, so the scratch memory of
        # a build no longer grows with N: a whole (3, N, 24) stack of
        # quadrature values took about 10.8 MB here.
        spec = OSC(1.25, 0.75, 0.5)
        assert traced_peak(lambda: KernelTables.build(spec, 1.0 / 8192, 8192)) <= 3e6


def test_rule_matches_leggauss():
    # The 24-point rule is stored as constants; leggauss computes it with an
    # eigensolve, which a run no longer makes.
    nodes, wts = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(kernel._GL_NODES, nodes)
    assert np.array_equal(kernel._GL_WEIGHTS, wts)


class TestC0Certification:
    """KernelSpec's docstring proves that the tail never exceeds K(0): a
    build evaluates the moments on its own grid only, and the closed-form
    tail checks it at its peaks."""

    SPEC = NONOSC(1.7, 0.45)

    def test_one_moment_evaluation_per_build(self, monkeypatch):
        real, sizes = kernel._grid_moments, []

        def recorded(spec, ts):
            sizes.append(len(ts))
            return real(spec, ts)

        monkeypatch.setattr(kernel, "_grid_moments", recorded)
        first = KernelTables.build(self.SPEC, 0.1, 10)
        again = KernelTables.build(self.SPEC, 0.1, 10)
        KernelTables.build(self.SPEC, 0.05, 20)
        assert sizes == [11, 11, 21]
        assert np.array_equal(first.weights, again.weights)

    # Admissible oscillatory specs up to gamma = sigma, down to sigma = 1 + 1e-6.
    @pytest.mark.parametrize("spec", [OSC(s, r * s, a) for s in (1.0 + 1e-6, 1.2, 2.0, 5.0)
                                      for r in (0.25, 0.5, 1.0) for a in (0.5, 1.0)])
    def test_tail_peaks_stay_below_k0(self, spec):
        # The tail's later local maxima lie at gamma*t = 3*pi/2 + 2*k*pi; the
        # closed-form tail, not the library's moments, bounds them.
        for k in range(4):
            t = (2 * k + 1.5) * math.pi / spec.gamma
            assert oracle_tail(spec, t) <= spec.K0 * (1.0 + 1e-12)
