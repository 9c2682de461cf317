import dataclasses
import json
import math
import re

import numpy as np
import pytest

from viscobeam import (
    ConfigurationError,
    Grid,
    DampingFunction,
    KernelSpec,
    KernelTables,
    NumericalError,
    ProblemSpec,
    rate,
    run,
    run_study,
)
from viscobeam.config import apply_overrides, build_study
from viscobeam.presets import example2_problem, preset_config
from viscobeam.studies import (SPATIAL, TEMPORAL, CellResult, StudyCell, StudyRow,
                               StudySpec)

from conftest import spatial_error, temporal_error, zero_problem



class TestRate:
    def test_halving_by_four_gives_two(self):
        assert rate(4.0e-3, 1.0e-3) == pytest.approx(2.0, abs=1e-14)

    def test_degenerate_errors_give_none(self):
        assert rate(0.0, 1e-3) is None
        assert rate(1e-3, 0.0) is None
        # Non-finite errors once gave nan and inf as orders.
        assert rate(math.nan, 0.5) is None
        assert rate(math.inf, 1.0) is None


class TestErrorMetrics:
    def test_identical_zero_runs_give_zero(self):
        p = zero_problem()
        assert temporal_error(p, Grid(8), 4) == 0.0
        assert spatial_error(p, 8, 4) == 0.0

    def test_temporal_error_positive_and_first_order(self):
        # Rates are strongly pre-asymptotic below N ~ 64 for this problem
        # (the memory quadrature error carries a large constant).
        p = example2_problem()
        e_coarse = temporal_error(p, Grid(16), 64)
        e_fine = temporal_error(p, Grid(16), 128)
        assert e_coarse > e_fine > 0.0
        assert 0.6 <= math.log2(e_coarse / e_fine) <= 1.2

    def test_spatial_error_second_order(self):
        p = example2_problem()
        e_coarse = spatial_error(p, 8, 32)
        e_fine = spatial_error(p, 16, 32)
        assert 1.7 <= math.log2(e_coarse / e_fine) <= 2.3

    def test_node_nesting_bit_exact(self):
        for J in (8, 12, 24, 32):
            coarse = Grid(J).x
            fine = Grid(2 * J).x
            assert np.array_equal(coarse, fine[1::2])


class TestStudySpec:
    def test_display_levels_double(self):
        s = StudySpec(axis=TEMPORAL, cells=(StudyCell("c", zero_problem()),),
                      levels=3, grid=Grid(8), N=8)
        assert s.display_levels() == [8, 16, 32]

    def test_rejects_bad_axis_and_levels(self):
        cells = (StudyCell("c", zero_problem()),)
        with pytest.raises(ConfigurationError, match="unknown study axis 'sideways'"):
            StudySpec(axis="sideways", cells=cells, levels=3, grid=Grid(8), N=8)
        with pytest.raises(ConfigurationError,
                           match=r"^study levels must be at least 2 \(got 1\)$"):
            StudySpec(axis=TEMPORAL, cells=cells, levels=1, grid=Grid(8), N=8)
        with pytest.raises(ConfigurationError, match="J/2 >= 4"):
            # anchor grid would be J = 3, too small for the stencil
            StudySpec(axis=SPATIAL, cells=cells, levels=2, grid=Grid(6), N=8)
        with pytest.raises(ConfigurationError,
                           match="^temporal studies need an even base step count$"):
            StudySpec(axis=TEMPORAL, cells=cells, levels=2, grid=Grid(8), N=7)
        with pytest.raises(ConfigurationError,
                           match=r"^step count N must be at least 1 \(got 0\)$"):
            StudySpec(axis=SPATIAL, cells=cells, levels=2, grid=Grid(8), N=0)

    # Each once got through: tables of 8.0 steps built 8 weights and of
    # True steps one, a study of N = 8.0 failed its cell at run time and
    # one of 2.0 levels raised a raw TypeError from run_study.
    @pytest.mark.parametrize("make, bad, good, name", [
        (lambda n: KernelTables.build(KernelSpec("non_oscillatory", 1.5, 0.0, 0.5), 0.125, n),
         bad, 8, "step count N") for bad in (8.0, True)] + [
        (lambda n: StudySpec(TEMPORAL, (StudyCell("c", zero_problem()),), 2, Grid(8), n),
         8.0, 8, "step count N"),
        (lambda n: StudySpec(TEMPORAL, (StudyCell("c", zero_problem()),), n, Grid(8), 8),
         2.0, 2, "study levels")], ids=["tables-N-8.0", "tables-N-True", "study-N", "study-levels"])
    def test_counts_must_be_integers(self, make, bad, good, name):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"{name} must be an integer (got {bad!r})")):
            make(bad)
        make(np.int64(good))

    def test_spatial_levels_double_the_grid(self):
        s = StudySpec(axis=SPATIAL, cells=(StudyCell("c", zero_problem()),),
                      levels=3, grid=Grid(8), N=5)
        assert s.display_levels() == [8, 16, 32]


class TestRunStudy:
    def test_two_levels_emit_one_rate(self):
        p = example2_problem()
        study = StudySpec(axis=TEMPORAL, cells=(StudyCell("base", p),),
                          levels=2, grid=Grid(8), N=8)
        report = run_study(study)
        rows = report.cells[0].rows
        assert len(rows) == 2
        assert rows[0].rate is None
        assert rows[1].rate is not None

    def test_rows_match_standalone_metrics_bitwise(self):
        # The ladder reuses its runs but must produce exactly the single-run
        # metric values: temporal rows are temporal_error at half the row
        # level; spatial rows carry the row grid's norm (1/sqrt(2) factor).
        p = example2_problem()
        study = StudySpec(axis=TEMPORAL, cells=(StudyCell("c", p),),
                          levels=3, grid=Grid(16), N=8)
        report = run_study(study)
        for row in report.cells[0].rows:
            assert row.error == temporal_error(p, Grid(16), row.level // 2)
        study_x = StudySpec(axis=SPATIAL, cells=(StudyCell("c", p),),
                            levels=2, grid=Grid(8), N=8)
        report_x = run_study(study_x)
        for row in report_x.cells[0].rows:
            assert row.error == spatial_error(p, row.level // 2, 8) / math.sqrt(2.0)

    def test_cell_failure_isolated(self):
        # An invalid kernel cannot be built, so it can no longer reach a
        # run; a forcing that raises at t = 0 fails its cell at set-up.
        good = example2_problem()
        with pytest.raises(ConfigurationError, match="sigma"):
            dataclasses.replace(good.kernel, sigma=0.5)

        def broken(x, t):
            raise RuntimeError("forcing broke at t = 0")

        bad = dataclasses.replace(good, forcing=broken)
        study = StudySpec(axis=TEMPORAL,
                          cells=(StudyCell("bad", bad), StudyCell("good", good)),
                          levels=2, grid=Grid(8), N=8)
        report = run_study(study)
        assert report.cells[0].failure is not None
        assert "forcing broke" in report.cells[0].failure
        assert report.cells[1].failure is None
        assert len(report.cells[1].rows) == 2

    def test_each_cell_checked_once(self, monkeypatch):
        # A problem checks itself when it is built, once per cell: nothing
        # in the runs of the ladder checks it again.
        checks = []
        check = ProblemSpec.__post_init__
        monkeypatch.setattr(ProblemSpec, "__post_init__",
                            lambda self: checks.append(self) or check(self))
        study = build_study(apply_overrides(
            preset_config("example2-temporal"), ["grid.J=8", "time.N=8", "study.levels=2"]))
        run_study(study)
        assert len(study.cells) == 4
        assert checks == [cell.problem for cell in study.cells]

    def test_report_deterministic_modulo_timestamp(self):
        p = example2_problem()
        study = StudySpec(axis=TEMPORAL, cells=(StudyCell("c", p),),
                          levels=2, grid=Grid(8), N=8)
        r1 = run_study(study)
        r2 = run_study(study)
        assert r1.cells == r2.cells
        m1 = dict(r1.metadata)
        m2 = dict(r2.metadata)
        m1.pop("created")
        m2.pop("created")
        assert m1 == m2

    def test_csv_and_json_emission(self, tmp_path):
        p = example2_problem()
        study = StudySpec(axis=TEMPORAL, cells=(StudyCell("c", p),),
                          levels=2, grid=Grid(8), N=8)
        report = run_study(study)
        report.to_csv(tmp_path / "report.csv")
        report.to_json(tmp_path / "report.json")
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "cell,axis,level,refinement,error,rate"
        assert len(lines) == 3
        assert lines[1].split(",")[5] == "*"
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["axis"] == "temporal"
        assert len(doc["cells"][0]["rows"]) == 2

    def test_preset_study_shapes(self):
        study = build_study(preset_config("example1-temporal"))
        assert study.axis == TEMPORAL
        assert len(study.cells) == 3
        assert study.display_levels() == [16, 32, 64, 128, 256]
        study = build_study(preset_config("example2-spatial"))
        assert study.axis == SPATIAL
        assert len(study.cells) == 4
        assert study.display_levels() == [16, 32, 64, 128]

    @pytest.mark.parametrize("name", ["example1", "example2", "example1-temporal",
                                      "example1-spatial", "example2-temporal",
                                      "example2-spatial", "example2-longtime"])
    def test_preset_configs_share_nothing(self, name):
        # A preset is its example with overrides; a config that shared a
        # dict or the sweep list with them once gave the next call the
        # caller's edits (a fifth example2-temporal cell).
        def mutate(node):
            for child in node.values() if isinstance(node, dict) else node:
                if isinstance(child, (dict, list)):
                    mutate(child)
            node.append("edited") if isinstance(node, list) else node.update(edited=1)

        before = json.dumps(preset_config(name))
        mutate(preset_config(name))
        assert json.dumps(preset_config(name)) == before

    def test_observed_orders_in_band(self):
        # Small ladder version of the headline property: temporal rates
        # drift toward 1, spatial toward 2, by the last displayed level.
        p = example2_problem()
        t_study = StudySpec(axis=TEMPORAL, cells=(StudyCell("c", p),),
                            levels=3, grid=Grid(16), N=128)
        last = run_study(t_study).cells[0].rows[-1].rate
        assert 0.85 <= last <= 1.10
        x_study = StudySpec(axis=SPATIAL, cells=(StudyCell("c", p),),
                            levels=3, grid=Grid(16), N=64)
        last = run_study(x_study).cells[0].rows[-1].rate
        assert 1.90 <= last <= 2.15


def single_run_rows(study, cell):
    """One cell's rows from single runs, through the single-run metrics."""
    rows, previous = [], None
    for level in study.display_levels():
        if study.axis == TEMPORAL:
            error = temporal_error(cell.problem, study.grid, level // 2)
            refinement = cell.problem.T / level
        else:
            error = spatial_error(cell.problem, level // 2, study.N) / math.sqrt(2.0)
            refinement = 1.0 / level
        rows.append(StudyRow(level, refinement, error,
                             None if previous is None else rate(previous, error)))
        previous = error
    return tuple(rows)


class TestLockstep:
    """run_study steps all cells of a level as one batch; each cell must
    still get exactly the rows of its own single runs."""

    @pytest.mark.parametrize("preset", ["example1-temporal", "example1-spatial",
                                        "example2-temporal", "example2-spatial"])
    def test_preset_rows_equal_single_runs(self, preset):
        study = build_study(apply_overrides(
            preset_config(preset), ["grid.J=8", "time.N=8", "study.levels=2"]))
        report = run_study(study)
        assert len(report.cells) == len(study.cells) > 1
        for cell, result in zip(study.cells, report.cells):
            assert result.failure is None
            assert result.rows == single_run_rows(study, cell)

    def test_mid_run_failure_leaves_other_cells_bit_identical(self):
        # G turns NaN once the bending energy passes 6e4, which the forced
        # cell's iterates reach at step 5 of its N = 8 run, the coarsest of
        # the ladder: it fails inside the batch, mid-run, and leaves it.
        bad = dataclasses.replace(
            example2_problem(),
            damping=DampingFunction(lambda v: 1.0 if v <= 6e4 else float("nan"), 1.0, 0.0),
            forcing=lambda x, t: 1500.0 * np.sin(np.pi * np.asarray(x)))
        good = [StudyCell(f"sigma={s}", example2_problem(sigma=s)) for s in (1.5, 2.0)]

        def study(cells):
            return StudySpec(axis=TEMPORAL, cells=tuple(cells), levels=2, grid=Grid(8), N=16)

        with pytest.raises(NumericalError) as exc:
            run(bad, Grid(8), 8)
        assert exc.value.step_index == 5
        report = run_study(study([good[0], StudyCell("bad", bad), good[1]]))
        alone = run_study(study(good))
        assert report.cells[1] == CellResult("bad", failure=str(exc.value))
        assert (report.cells[0], report.cells[2]) == alone.cells
