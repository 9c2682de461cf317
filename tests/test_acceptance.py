"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Criteria 1-4 reproduce the reference convergence tables within
+-10% on errors and the stated bands on observed orders; 5-7 certify the
kernel and operator layers against independent oracles; 8-9 check
structural invariants and long-time stability.

Criterion 5's blanket weight-positivity clause is implemented verbatim in
``test_criterion5_weight_positivity_all_cells`` and marked as a strict
expected failure: for the strongly oscillatory cells the kernel tail
provably crosses zero inside the horizon (closed form at alpha = 1,
gamma = sigma = 2: exp(-2t)(cos 2t - sin 2t)/4 < 0 for t in (pi/8, 1]),
so the weights, which are local tail averages, must go negative there.
Positivity holds and is enforced on every positive-tail cell.
"""

import functools
import time

import numpy as np
import pytest

from viscobeam import (
    Grid,
    KernelSpec,
    KernelTables,
    NO_MEMORY,
    NON_OSCILLATORY,
    OSCILLATORY,
    DampingFunction,
    ProblemSpec,
    data_functional,
    kernel_tail,
    norm,
    run,
    second_difference_eigenvalues,
    sine_transform,
    stability_monitor,
    tail_antiderivatives,
)
from viscobeam.config import build_study
from viscobeam.presets import example2_problem, preset_config
from viscobeam.studies import run_study

from conftest import (dense_fourth_difference, fourth_difference, inner, max_norm,
                      oracle_tail, second_difference, solve_levels)
from reference_tables import TABLE1, TABLE2, TABLE3, TABLE4

ERROR_BAND = 0.10


def criterion(name, budget=None):
    """Print the pass/fail line and enforce the runtime budget."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            elapsed = time.perf_counter() - t0
            print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
            assert budget is None or elapsed < budget, \
                f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"
        return wrapper
    return decorate


def _check_table(report, reference, labels, rate_band):
    by_label = {c.label: c for c in report.cells}
    for key, label in labels.items():
        cell = by_label[label]
        assert cell.failure is None, f"{label}: {cell.failure}"
        for row, (level, ref_err, ref_rate) in zip(cell.rows, reference[key]):
            assert row.level == level
            rel = abs(row.error - ref_err) / ref_err
            assert rel <= ERROR_BAND, \
                f"{label} level {level}: error {row.error:.4e} vs " \
                f"reference {ref_err:.4e} ({100 * rel:.1f}% off)"
            if ref_rate is None:
                assert row.rate is None
            else:
                assert abs(row.rate - ref_rate) <= rate_band, \
                    f"{label} level {level}: rate {row.rate:.3f} vs " \
                    f"reference {ref_rate}"


@criterion("criterion 1 (temporal table, oscillatory kernel)", budget=60)
def test_criterion1_temporal_table_example1():
    report = run_study(build_study(preset_config("example1-temporal")))
    labels = {g: f"gamma={g}" for g in TABLE1}
    _check_table(report, TABLE1, labels, rate_band=0.06)


@criterion("criterion 2 (spatial table, oscillatory kernel)", budget=120)
def test_criterion2_spatial_table_example1():
    report = run_study(build_study(preset_config("example1-spatial")))
    labels = {(a, g): f"alpha={a},gamma={g}" for (a, g) in TABLE2}
    _check_table(report, TABLE2, labels, rate_band=0.08)


@criterion("criterion 3 (temporal table, non-oscillatory kernel)", budget=300)
def test_criterion3_temporal_table_example2():
    report = run_study(build_study(preset_config("example2-temporal")))
    labels = {s: f"sigma={s}" for s in TABLE3}
    _check_table(report, TABLE3, labels, rate_band=0.06)


@criterion("criterion 4 (spatial table, non-oscillatory kernel)", budget=120)
def test_criterion4_spatial_table_example2():
    report = run_study(build_study(preset_config("example2-spatial")))
    labels = {(s, a): f"sigma={s},alpha={a}" for (s, a) in TABLE4}
    _check_table(report, TABLE4, labels, rate_band=0.10)


# Kernel parameters appearing anywhere in the four tables, with the step
# counts of the runs behind each ladder.
_T1_SPECS = [(KernelSpec(OSCILLATORY, 1.2, g, 0.5), n)
             for g in (0.0, 0.5, 1.0) for n in (8, 16, 32, 64, 128, 256)]
_T2_SPECS = [(KernelSpec(OSCILLATORY, 2.0, g, a), 64)
             for a in (0.5, 1.0) for g in (0.0, 1.0, 2.0)]
_T3_SPECS = [(KernelSpec(NON_OSCILLATORY, s, 0.0, 0.5), n)
             for s in (1.5, 2.0, 2.5, 3.0) for n in (64, 128, 256, 512, 1024)]
_T4_SPECS = [(KernelSpec(NON_OSCILLATORY, s, 0.0, a), 64)
             for s in (1.5, 3.0) for a in (0.3, 0.7)]
ALL_TABLE_SPECS = _T1_SPECS + _T2_SPECS + _T3_SPECS + _T4_SPECS

# Cells whose tail crosses zero inside [0, 1]: gamma = 1 at sigma = 6/5 once
# the step resolves the crossing, and the gamma = sigma = 2 cells always.
_NEGATIVE_WEIGHT_CELLS = (
    [(KernelSpec(OSCILLATORY, 1.2, 1.0, 0.5), n) for n in (64, 128, 256)]
    + [(KernelSpec(OSCILLATORY, 2.0, 2.0, a), 64) for a in (0.5, 1.0)]
)


def _is_negative_cell(spec, n):
    return any(spec == s and n == m for s, m in _NEGATIVE_WEIGHT_CELLS)


@criterion("criterion 5 (kernel property suite)", budget=10)
def test_criterion5_kernel_properties():
    # Closed-form tail vs direct quadrature of the density, alpha = 1.
    for sigma, gamma in [(2.0, 0.0), (2.0, 1.0), (2.0, 2.0), (1.2, 1.0)]:
        spec = KernelSpec(OSCILLATORY, sigma, gamma, 1.0)
        for t in np.linspace(0.0, 20.0, 81):
            assert abs(kernel_tail(spec, t) - oracle_tail(spec, t)) <= 1e-10

    # Tail mass below one for every table configuration.
    for spec, _ in ALL_TABLE_SPECS:
        k0 = kernel_tail(spec, 0.0)
        assert 0.0 < k0 < 1.0, spec

    # Row-sum identity against the second antiderivative integrated on the
    # scalar path's own panels.
    rng = np.random.default_rng(7)
    for spec in (KernelSpec(OSCILLATORY, 1.2, 0.5, 0.5),
                 KernelSpec(NON_OSCILLATORY, 1.5, 0.0, 0.5)):
        dt = 1.0 / 64
        w = KernelTables.build(spec, dt, 64).weights
        for n in rng.integers(1, 65, size=4):
            _, j2_hi = tail_antiderivatives(spec, int(n) * dt)
            _, j2_lo = tail_antiderivatives(spec, (int(n) - 1) * dt)
            assert abs(w[:n].sum() - (j2_hi - j2_lo) / dt) <= 1e-10

    # Weight positivity on every positive-tail cell.
    for spec, n in ALL_TABLE_SPECS:
        if _is_negative_cell(spec, n):
            continue
        w = KernelTables.build(spec, 1.0 / n, n).weights
        assert w.min() > 0.0, (spec, n)


@pytest.mark.xfail(
    strict=True,
    reason="the kernel tail provably crosses zero inside the horizon for the "
           "strongly oscillatory cells (closed form at alpha=1, gamma=sigma=2),"
           " so some product-integration weights are negative there; "
           "positivity over *all* table configurations cannot hold")
def test_criterion5_weight_positivity_all_cells():
    print("ACCEPTANCE criterion 5 (weight positivity, all table cells): "
          "expected FAIL, see reason")
    for spec, n in ALL_TABLE_SPECS:
        w = KernelTables.build(spec, 1.0 / n, n).weights
        assert w.min() > 0.0, (spec, n, float(w.min()))


@criterion("criterion 6 (operator property suite)", budget=5)
def test_criterion6_operator_properties():
    rng = np.random.default_rng(11)
    g = Grid(16)
    for _ in range(100):
        w = rng.standard_normal(g.n_interior)
        # summation by parts: <W, D4 W> = ||D2 W||^2
        lhs = inner(w, fourth_difference(w, g), g)
        rhs = norm(second_difference(w, g), g) ** 2
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + norm(w, g) ** 2 * g.h**-4)
        # composition identity
        composed = second_difference(second_difference(w, g), g)
        assert np.allclose(fourth_difference(w, g), composed,
                           rtol=1e-13, atol=1e-13 * g.h**-4)
    # The stepper solves with D4 = S diag(lambda^2) S; certify it against
    # the dense stencil oracle and its eigensolve.
    for J in range(4, 65):
        g = Grid(J)
        dense = dense_fourth_difference(g)
        lam2 = second_difference_eigenvalues(g) ** 2
        S = sine_transform(np.eye(g.n_interior))
        assert np.max(np.abs(S @ np.diag(lam2) @ S - dense)) <= 1e-13 * lam2.max()
        eigs = np.linalg.eigvalsh(dense)
        assert np.allclose(eigs, np.sort(lam2), rtol=0, atol=1e-12 * lam2.max())
        assert eigs.min() > 0.0


@criterion("criterion 7 (memory-free sine-mode oracle)", budget=1)
def test_criterion7_sine_mode_oracle():
    J, N, g0 = 16, 1000, 2.0
    g = Grid(J)
    problem = ProblemSpec(
        u0=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
        u1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        forcing=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        damping=DampingFunction.constant(g0),
        kernel=KernelSpec(family=NO_MEMORY),
        T=1.0,
    )
    state, _ = run(problem, g, N)
    dt = 1.0 / N
    lam4 = (4.0 * np.sin(np.pi * g.h / 2.0) ** 2 / g.h**2) ** 2
    a_prev2, a_prev = 1.0, 1.0
    for _ in range(2, N + 1):
        a_prev2, a_prev = a_prev, ((2.0 + g0 * dt) * a_prev - a_prev2) \
            / (1.0 + g0 * dt + dt**2 * lam4)
    assert max_norm(state.U_prev - a_prev * np.sin(np.pi * g.x)) <= 1e-10


@criterion("criterion 8 (structural invariants)")
def test_criterion8_structural_invariants():
    # Mirror symmetry over the full run of the symmetric benchmark.
    p = example2_problem()
    _, levels = solve_levels(p, Grid(64), 128)
    worst = max(max_norm(U - U[::-1]) for U in levels)
    assert worst <= 1e-12

    # Zero data produce the exactly zero solution.
    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))
    zero_p = ProblemSpec(u0=zero, u1=zero, forcing=lambda x, t: zero(x),
                         damping=DampingFunction.affine(1.0, 1.0),
                         kernel=KernelSpec(OSCILLATORY, 1.2, 1.0, 0.5), T=1.0)
    state, _ = run(zero_p, Grid(16), 32)
    assert np.all(state.U_prev == 0.0)

    # Determinism: bit-identical reruns.
    s1, t1 = run(p, Grid(32), 64)
    s2, t2 = run(p, Grid(32), 64)
    assert np.array_equal(s1.U_prev, s2.U_prev)
    for name in ("t", "vel_norm", "curv_norm", "damping", "fp_iters",
                 "kinetic", "dissipated", "elastic", "total"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name))


@criterion("criterion 9 (long-time stability)", budget=180)
def test_criterion9_long_time_stability():
    p = example2_problem(T=50.0)
    g = Grid(64)
    N = 5000
    state, series = run(p, g, N)
    functional = data_functional(p, g, state.dt, N,
                                 C0=state.tables.K0, mu0=state.tables.mu0)
    verdict = stability_monitor(series.n, series.total, functional, safety=1e3)
    assert verdict.passed, str(verdict)

    # No late growth: over the final 10% of steps the total never exceeds
    # its running maximum by more than 1%.
    total = series.total
    running_max = np.maximum.accumulate(total)
    tail_slice = slice(int(0.9 * len(total)), None)
    assert np.all(total[tail_slice] <= 1.01 * running_max[tail_slice])
