import json
import subprocess
import sys

import numpy as np
import pytest

from viscobeam import KernelTables, NumericalError, cli, studies
from viscobeam.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from viscobeam.presets import example1_problem


def config_error(capsys, argv) -> str:
    """The message of the config error that ``main(argv)`` must end in: exit
    2 and one stderr line, the JSON object {"category": "config",
    "message": ...}."""
    assert main(argv) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert list(err) == ["category", "message"] and err["category"] == "config", err
    return err["message"]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ZERO_CONFIG = {
    "kernel": {"family": "none"},
    "damping": {"kind": "affine", "a": 1.0, "b": 1.0},
    "initial": {"u0": {"name": "zero"}, "u1": {"name": "zero"}},
    "forcing": {"name": "zero"},
    "grid": {"J": 8},
    "time": {"T": 1.0, "N": 4},
    "solver": {},
}


class TestSolve:
    def test_zero_data_writes_zero_solution(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ZERO_CONFIG)
        code = main(["solve", "--config", cfg, "-o", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "solution.csv").read_text().strip().splitlines()
        assert rows[0] == "x,u"
        values = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(values == 0.0)
        # Every run records its energy; the columns were once opt-in.
        header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
        assert header.endswith("kinetic,dissipated,elastic,total")

    def test_preset_solve(self, tmp_path, capsys):
        code = main(["solve", "--preset", "example2", "--set", "time.N=8",
                     "--set", "grid.J=8", "-o", str(tmp_path)])
        assert code == EXIT_OK
        assert "solved 8 steps" in capsys.readouterr().out

    def test_fine_grid_converges(self, tmp_path, capsys):
        # The D4 solve's roundoff once grew like cond(D4) ~ J^4 and kept the
        # increment above fp_tol = 1e-12 at J = 256.
        code = main(["solve", "--preset", "example1", "--set", "grid.J=256",
                     "--set", "time.N=16", "-o", str(tmp_path)])
        assert code == EXIT_OK
        assert "solved 16 steps on J=256" in capsys.readouterr().out

    def test_large_field_converges(self, tmp_path, capsys):
        # An absolute fp_tol = 1e-12 sits below the roundoff of a field of
        # size 1e4; the increment once stalled near 1.3e-12 at step 3.
        code = main(["solve", "--preset", "example1", "--set",
                     "initial.u0.amplitude=1e4", "--set", "time.N=16",
                     "-o", str(tmp_path)])
        assert code == EXIT_OK
        assert "solved 16 steps" in capsys.readouterr().out

    @pytest.mark.parametrize("b", ["300", "1e4"])
    def test_steep_affine_damping_solves(self, b, tmp_path, capsys):
        # a + b*v rounds by about eps*b*v at the sampled v <= 1e4, so an
        # absolute slack of 1e-12 on the sampled slopes once rejected these
        # valid laws as breaking their Lipschitz constant.
        code = main(["solve", "--preset", "example1", "--set", f"damping.b={b}",
                     "-o", str(tmp_path)])
        assert code == EXIT_OK, capsys.readouterr().err
        assert "solved 256 steps" in capsys.readouterr().out

    def test_set_override_changes_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ZERO_CONFIG)
        code = main(["solve", "--config", cfg, "--set", "grid.J=16",
                     "-o", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "solution.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 17


class TestErrorPaths:
    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        assert config_error(capsys, ["solve", "--preset", "example99", "-o", str(tmp_path)]) == (
            "unknown preset 'example99'; known presets: example1, example2, "
            "example1-temporal, example1-spatial, example2-temporal, example2-spatial, "
            "example2-longtime")

    def test_invalid_sigma_is_config_error(self, tmp_path, capsys):
        assert config_error(capsys, ["solve", "--preset", "example1", "--set",
                                     "kernel.sigma=0.9", "-o", str(tmp_path)]) == (
            "kernel tempering rate sigma must be > 1 (got 0.9); otherwise the tail mass "
            "K(0) is not below 1; oscillation frequency gamma must satisfy "
            "0 <= gamma <= sigma (got gamma=1.0, sigma=0.9)")

    def test_override_crossing_a_leaf_is_config_error(self, tmp_path, capsys):
        assert config_error(capsys, ["solve", "--preset", "example1", "--set",
                                     "kernel.sigma.foo=1", "-o", str(tmp_path)]) == (
            "override path 'kernel.sigma.foo' crosses a leaf")

    def test_missing_config_and_preset(self, tmp_path, capsys):
        assert config_error(capsys, ["solve", "-o", str(tmp_path)]) == (
            "provide --config FILE or --preset NAME")

    def test_removed_solver_key_is_config_error(self, tmp_path, capsys):
        assert config_error(capsys, ["solve", "--preset", "example2", "--set",
                                     "solver.snapshot_every=4", "-o", str(tmp_path)]) == (
            "unknown config key solver.snapshot_every; expected one of fp_tol, fp_max_iters")

    def test_invalid_damping_is_config_error(self, tmp_path, capsys):
        assert "damping lower bound g0 must be positive" in config_error(
            capsys, ["solve", "--preset", "example2", "--set", "damping.a=-1",
                     "-o", str(tmp_path)])

    def test_nonconvergence_is_numerical_error(self, tmp_path, capsys):
        code = main(["solve", "--preset", "example1", "--set", "time.N=16",
                     "--set", "solver.fp_max_iters=1", "-o", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err.strip())
        assert err["category"] == "numerical"

    def test_numerical_error_is_numerical_exit(self, tmp_path, capsys,
                                                monkeypatch):
        def failing_run(*args, **kwargs):
            raise NumericalError(5, "non-finite iterate at step 5")

        monkeypatch.setattr(cli, "run", failing_run)
        code = main(["solve", "--preset", "example2", "-o", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"category": "numerical",
                       "message": "non-finite iterate at step 5"}

    @pytest.mark.parametrize("command", ["solve", "study"])
    def test_config_not_a_mapping_is_config_error(self, command, tmp_path, capsys):
        cfg = write_config(tmp_path, [1])
        assert "must be a mapping" in config_error(
            capsys, [command, "--config", cfg, "--set", "grid.J=8", "-o", str(tmp_path)])

    @pytest.mark.parametrize("argv, message", [
        pytest.param(argv, message, id=" ".join(argv)) for argv, message in [
            (["solve", "--preset", "example1", "--set", "grid.J"],
             "override 'grid.J' is not of the form section.key=value"),
            (["solve", "--preset", "example1", "--set", 'forcing={"name":"tempered_sin"}'],
             "forcing.sigma is required"),
            (["study", "--preset", "example1"], "config has no 'study' section"),
            (["study", "--preset", "example2-temporal", "--set", "time.N=7"],
             "temporal studies need an even base step count"),
            # The config once said "must be positive", the tables "at least 1".
            *((["solve", "--preset", "example1", "--set", f"time.N={n}"],
               f"step count N must be at least 1 (got {n})") for n in (0, -2)),
            # The forcing t**-0.5 is infinite at t = 0 alone, which solve
            # never loads; the message once blamed --safety for it.
            (["stability", "--preset", "example1", "--set", "forcing.alpha=-0.5"],
             "stability data functional inf is not finite; it sums norms of the "
             "initial data and of the forcing at every level, t = 0 included"),
        ]])
    def test_config_error_message(self, argv, message, tmp_path, capsys):
        assert config_error(capsys, argv + ["-o", str(tmp_path)]) == message

    def test_config_file_not_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("not json")
        assert config_error(capsys, ["solve", "--config", str(path), "-o", str(tmp_path)]) == (
            f"config file {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)")

    def test_config_file_unreadable(self, tmp_path, capsys):
        path = tmp_path / "missing" / "config.json"
        assert config_error(capsys, ["solve", "--config", str(path), "-o", str(tmp_path)]) == (
            f"cannot read config file {path}: [Errno 2] No such file or directory: '{path}'")

    def test_config_and_preset_together_is_usage_error(self, tmp_path, capsys):
        # --config was once ignored silently when --preset was given too.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--preset", "example1", "--config", str(tmp_path / "missing.json"),
                  "-o", str(tmp_path)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "example1", "--set", "time.N=abc"],
        ["solve", "--preset", "example1", "--set", "time.T=abc"],
        ["solve", "--preset", "example1", "--set", "kernel.sigma=abc"],
        ["solve", "--preset", "example1", "--set", "damping.a=abc"],
        ["solve", "--preset", "example1", "--set", "initial.u0.amplitude=abc"],
        ["study", "--preset", "example2-temporal", "--set", "study.levels=1"],
        ["study", "--preset", "example2-temporal", "--set", "study.levels=abc"],
        ["study", "--preset", "example2-temporal", "--set", "study.axis=spatial",
         "--set", "grid.J=6"],
        ["stability", "--preset", "example2-longtime", "--safety", "0.5"],
        # An infinite factor once gave a PASS "within bound inf".
        ["stability", "--preset", "example2", "--set", "time.N=8", "--safety", "inf"],
        ["stability", "--preset", "example2", "--set", "time.N=8", "--safety", "nan"],
        # Non-integral counts once truncated silently (2.7 steps ran 2).
        ["solve", "--preset", "example1", "--set", "time.N=2.7"],
        ["solve", "--preset", "example1", "--set", "grid.J=64.5"],
        ["study", "--preset", "example2-temporal", "--set", "study.levels=2.5"],
        ["solve", "--preset", "example1", "--set", "solver.fp_max_iters=2.5"],
        # A section that is not a mapping.
        ["solve", "--preset", "example1", "--set", "initial.u0=5"],
        # Unknown keys once ran the defaults silently.
        ["solve", "--preset", "example1", "--set", "grid.j=64"],
        ["solve", "--preset", "example1", "--set", "time.n=64"],
        ["solve", "--preset", "example1", "--set", "initial.u0.modee=2"],
        ["solve", "--preset", "example1", "--set", "damping.d=1"],
        ["solve", "--preset", "example1", "--set", "grdi.J=64"],
        ["study", "--preset", "example2-temporal", "--set", "study.level=3"],
        ["study", "--preset", "example2-temporal", "--set", "study.sweep=5"],
        ["study", "--preset", "example2-temporal", "--set", "study.sweep=[5]"],
        # A non-integral mode once truncated silently (2.5 ran mode 2).
        ["solve", "--preset", "example1", "--set", "initial.u0.mode=2.5"],
        ["solve", "--preset", "example1", "--set", "forcing.mode=1.5"],
        # Solver values once reached SolverConfig unconverted.
        ["solve", "--preset", "example1", "--set", "solver.fp_tol=abc"],
        ["solve", "--preset", "example1", "--set", "solver.fp_tol=true"],
        ["solve", "--preset", "example1", "--set", "solver.record_energy=true"],
        # Non-finite numbers once got through: T=Infinity raised a raw
        # ValueError, an infinite amplitude passed the boundary check and an
        # infinite fp_tol ran every step unconverged.
        ["solve", "--preset", "example1", "--set", "time.T=Infinity"],
        ["solve", "--preset", "example2", "--set", "initial.u0.amplitude=Infinity"],
        ["solve", "--preset", "example1", "--set", "solver.fp_tol=Infinity"],
        # A horizon whose step T/N rounds to 0 once ended in a traceback.
        *([command, "--preset", "example1", "--set", "time.T=5e-324"]
          for command in ("solve", "stability", "weights")),
        # A horizon whose kernel tables overflow once wrote inf and NaN
        # weights, or failed its run at step 2.
        *([command, "--preset", "example1", "--set", "time.T=1e155", "--set", "time.N=4"]
          for command in ("solve", "stability", "weights")),
        # Finite parameters, infinite data: 1/(x(1-x)) once passed the
        # boundary check because inf > tol * inf is False.
        ["solve", "--preset", "example2", "--set", "initial.u0.power=-1",
         "--set", "time.N=8"],
        # K(0) = sigma**-alpha rounds to 1 although sigma > 1.
        ["solve", "--preset", "example2", "--set", "kernel.sigma=1.0000000000000002",
         "--set", "kernel.alpha=0.01", "--set", "time.N=8"],
        # An integer too large for a float once ended in a traceback: the
        # conversion raised OverflowError.
        *(["solve", "--preset", "example1", "--set", f"{key}=1{'0' * 400}"]
          for key in ("time.N", "kernel.sigma", "solver.fp_max_iters")),
    ], ids=lambda argv: " ".join(argv[:1] + argv[3:]))
    def test_bad_value_is_config_error(self, argv, tmp_path, capsys):
        config_error(capsys, argv + ["-o", str(tmp_path)])

    @pytest.mark.parametrize("command, key", [
        ("solve", "grid.j"), ("solve", "time.n"), ("solve", "initial.u0.modee"),
        ("solve", "damping.d"), ("solve", "forcing.modee"), ("solve", "grdi"),
        ("stability", "kernel.sigmaa"), ("weights", "grid.j"),
        # example2's forcing is "zero", whose builder takes no keys.
        ("solve", "forcing.amplitude"),
        # Sections a subcommand does not read were once never built, so
        # their typos ran: weights built no solver, and only study read
        # the study section.
        ("weights", "solver.fp_tl"), ("solve", "study.levls"),
        ("stability", "study.levls"), ("weights", "study.levls"),
    ])
    def test_unknown_key_is_named(self, command, key, tmp_path, capsys):
        message = config_error(capsys, [command, "--preset", "example2", "--set", f"{key}=1",
                                        "-o", str(tmp_path)])
        assert f"unknown config key {key};" in message
        # An entry without keys once listed none: "expected one of ".
        assert not message.endswith("one of ")

    @pytest.mark.parametrize("command, preset", [
        ("solve", "example1"), ("study", "example2-temporal"),
        ("stability", "example2-longtime"), ("weights", "example2")])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_output_dir_is_config_error(self, command, preset, below,
                                                 tmp_path, monkeypatch, capsys):
        # A regular file, or a path below one, once raised a raw traceback
        # after the whole run; now it stops before any run or table build.
        def unreached(*args, **kwargs):
            raise AssertionError("the run started")

        # study loads run_study from viscobeam.studies when it is called.
        monkeypatch.setattr(cli, "run", unreached)
        monkeypatch.setattr(studies, "run_study", unreached)
        monkeypatch.setattr(KernelTables, "build", unreached)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / below if below else blocker
        assert f"cannot use output directory {out}:" in config_error(
            capsys, [command, "--preset", preset, "-o", str(out)])

    def test_overflowing_stability_bound_is_config_error(self, tmp_path, capsys):
        # safety * data functional once overflowed, and the run printed
        # "PASS: max energy ... within bound inf" and exited 0.
        message = config_error(capsys, ["stability", "--preset", "example2", "--set", "time.N=8",
                                        "--set", "grid.J=8", "--safety", "1e308",
                                        "-o", str(tmp_path)])
        assert "--safety" in message and "not finite" in message

    @pytest.mark.parametrize("command", ["solve", "stability", "weights"])
    def test_unallocatable_size_is_config_error(self, command, tmp_path, capsys):
        # N = 10^15 asks for petabytes of kernel tables, which numpy refuses
        # at once, so nothing is allocated; it once ended in a raw
        # traceback.  Never test with a size the machine could hold.
        assert config_error(capsys, [command, "--preset", "example1", "--set",
                                     f"time.N={10**15}", "-o", str(tmp_path)]
                            ).startswith("Unable to allocate")


class TestStudy:
    def test_small_study_writes_report(self, tmp_path, capsys):
        doc = dict(ZERO_CONFIG)
        doc["kernel"] = {"family": "non_oscillatory", "sigma": 1.5, "alpha": 0.5}
        doc["initial"] = {"u0": {"name": "poly_bump", "power": 2},
                          "u1": {"name": "poly_bump", "power": 3}}
        doc["time"] = {"T": 1.0, "N": 8}
        doc["study"] = {"axis": "temporal", "levels": 2,
                        "sweep": [{"label": "base"}]}
        cfg = write_config(tmp_path, doc)
        code = main(["study", "--config", cfg, "-o", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["cells"][0]["rows"]) == 2
        assert (tmp_path / "report.csv").exists()

    def test_preset_study_table_shape(self, tmp_path, capsys):
        code = main(["study", "--preset", "example1-temporal",
                     "-o", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "report.csv").read_text().strip().splitlines()
        # header + 3 gamma cells x 5 levels
        assert len(rows) == 1 + 15
        report = json.loads((tmp_path / "report.json").read_text())
        assert [c["label"] for c in report["cells"]] == \
            ["gamma=0.0", "gamma=0.5", "gamma=1.0"]
        assert all(c["failure"] is None for c in report["cells"])

    def test_failed_cell_returns_numerical_exit(self, tmp_path, capsys):
        # A valid model whose bending energy overflows: G turns infinite at
        # the first step, so the cell fails numerically and the other runs.
        doc = dict(ZERO_CONFIG)
        doc["time"] = {"T": 1.0, "N": 8}
        doc["study"] = {"axis": "temporal", "levels": 2,
                        "sweep": [{"label": "bad", "initial.u0.name": "sin_mode",
                                   "initial.u0.amplitude": 1e300},
                                  {"label": "ok"}]}
        cfg = write_config(tmp_path, doc)
        code = main(["study", "--config", cfg, "-o", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"category": "numerical", "message": "study cells failed: ['bad']"}

    def test_overflowing_horizon_fails_its_cell(self, tmp_path, capsys):
        # The kernel tables are built by the cell's runs, so a horizon
        # that overflows them fails the cell rather than the config.
        doc = dict(ZERO_CONFIG)
        doc["time"] = {"T": 1.0, "N": 8}
        doc["study"] = {"axis": "temporal", "levels": 2,
                        "sweep": [{"label": "long", "time.T": 1e155}, {"label": "ok"}]}
        code = main(["study", "--config", write_config(tmp_path, doc), "-o", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert json.loads(capsys.readouterr().err)["message"] == "study cells failed: ['long']"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["cells"][0]["failure"] == (
            "kernel tables overflow on the horizon N*dt = 1e+155; take a shorter horizon T")
        assert report["cells"][1]["failure"] is None

    @pytest.mark.parametrize("override, label, fragment", [
        pytest.param(override, label, fragment, id=f"{override}-{label}")
        for override, label, fragment in [
            ('study.sweep=[{"label": "bad", "damping.a": -1}, {"label": "ok"}]',
             "study.sweep[0] (bad): ", "damping lower bound g0 must be positive"),
            ("damping.a=-1", "study.sweep[0] (sigma=1.5): ",
             "damping lower bound g0 must be positive"),
            # A kernel whose K(0) rounds to 1 once failed as a numerical cell.
            ('study.sweep=[{"label": "edge", "kernel.sigma": 1.0000000000000002, '
             '"kernel.alpha": 0.01}, {"label": "ok", "kernel.sigma": 1.5}]',
             "study.sweep[0] (edge): ", "tail mass K(0) = 1.0 outside (0, 1)"),
        ]])
    def test_invalid_cell_is_config_error(self, override, label, fragment,
                                          tmp_path, capsys):
        # An invalid model is bad input, as it is for solve, not a cell
        # that failed numerically; the message names the cell.
        message = config_error(capsys, ["study", "--preset", "example2-temporal", "--set",
                                        override, "-o", str(tmp_path)])
        assert message.startswith(label) and fragment in message
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("grid.J", 8), ("time.N", 64), ("solver.fp_tol", 1e-3), ("grid.j", 8)])
    def test_cell_key_outside_its_problem_is_config_error(self, key, value,
                                                          tmp_path, capsys):
        # Such keys once printed a table with the cell run at the base J, N
        # and tolerance, and a misspelled one was ignored the same way.
        sweep = json.dumps([{"label": "a"}, {"label": "b", key: value}])
        message = config_error(capsys, ["study", "--preset", "example2-temporal", "--set",
                                        "study.levels=2", "--set", "time.N=8", "--set",
                                        f"study.sweep={sweep}", "-o", str(tmp_path)])
        assert message.startswith(f"study.sweep[1] (b): a sweep cell cannot set {key}; ")
        assert "label, time.T and keys under kernel, damping, initial, forcing" in message
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("sweep", ["0", "false", "{}"])
    def test_sweep_not_a_list_is_config_error(self, sweep, tmp_path, capsys):
        # These once ran the one base cell and exited 0.
        assert config_error(capsys, ["study", "--preset", "example2-temporal", "--set",
                                     "study.levels=2", "--set", "time.N=8", "--set",
                                     f"study.sweep={sweep}", "-o", str(tmp_path)]
                            ).startswith("study.sweep must be a list")

    def test_repeated_label_is_config_error(self, tmp_path, capsys):
        # Two "[a]" blocks once ran, which no report could tell apart.
        assert config_error(capsys, [
            "study", "--preset", "example2-temporal", "--set", "study.levels=2",
            "--set", "time.N=8", "--set",
            'study.sweep=[{"label": "a"}, {"label": "b"}, {"label": "a"}]',
            "-o", str(tmp_path)]) == ("study.sweep[2] (a): same label as study.sweep[0]; "
                                      "labels must be unique")

    @pytest.mark.parametrize("sweep", ["null", "[]"])
    def test_absent_sweep_is_one_base_cell(self, sweep, tmp_path, capsys):
        code = main(["study", "--preset", "example2-temporal", "--set", "study.levels=2",
                     "--set", "time.N=8", "--set", f"study.sweep={sweep}",
                     "-o", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert [c["label"] for c in report["cells"]] == ["base"]

    def test_cell_sets_its_problem_and_horizon(self, tmp_path, capsys):
        sweep = json.dumps([{"label": "a", "time.T": 0.5, "kernel.sigma": 2.0,
                             "damping.a": 2.0, "initial.u0.power": 3,
                             "forcing.name": "zero"}])
        code = main(["study", "--preset", "example2-temporal", "--set", "study.levels=2",
                     "--set", "time.N=8", "--set", f"study.sweep={sweep}",
                     "-o", str(tmp_path)])
        assert code == EXIT_OK
        cell, = json.loads((tmp_path / "report.json").read_text())["cells"]
        assert cell["label"] == "a"
        assert [r["refinement"] for r in cell["rows"]] == [0.5 / 8, 0.5 / 16]

    def test_plain_preset_study_exits_ok(self, tmp_path, capsys):
        code = main(["study", "--preset", "example2-temporal", "-o", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert all(c["failure"] is None for c in report["cells"])

    def test_sweep_override_crossing_a_leaf_is_config_error(self, tmp_path,
                                                             capsys):
        doc = dict(ZERO_CONFIG)
        doc["kernel"] = {"family": "non_oscillatory", "sigma": 1.5, "alpha": 0.5}
        doc["study"] = {"axis": "temporal", "levels": 2,
                        "sweep": [{"label": "bad", "kernel.sigma.foo": 1}]}
        message = config_error(capsys, ["study", "--config", write_config(tmp_path, doc),
                                        "-o", str(tmp_path)])
        assert message.startswith("study.sweep[0] (bad): ") and "kernel.sigma.foo" in message


class TestStabilityCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        code = main(["stability", "--preset", "example2", "--set", "time.N=64",
                     "--set", "grid.J=16", "-o", str(tmp_path)])
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
        assert header.endswith("kinetic,dissipated,elastic,total")

    def test_safety_flag_accepted(self, tmp_path, capsys):
        code = main(["stability", "--preset", "example2", "--set", "time.N=64",
                     "--set", "grid.J=16", "--safety", "10", "-o",
                     str(tmp_path)])
        assert code == EXIT_OK

    def test_energy_above_bound_fails(self, tmp_path, capsys, monkeypatch):
        # A data functional of 1e-30 puts the bound below the first energy.
        monkeypatch.setattr(cli, "data_functional", lambda state: 1e-30)
        code = main(["stability", "--preset", "example2", "--set", "time.N=8",
                     "-o", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL:")
        assert captured.err.splitlines() == [
            '{"category": "numerical", "message": "stability monitor FAIL"}']


class TestWeightsCommand:
    def test_dump_weights(self, tmp_path, capsys):
        code = main(["weights", "--preset", "example1", "--set", "time.N=8",
                     "-o", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "weights.csv").read_text().strip().splitlines()
        assert rows[0] == "k,t,omega"
        assert len(rows) == 1 + 8
        out = capsys.readouterr().out
        assert "K0" in out and "mu0" in out

    def test_weights_cells_parse_as_floats(self, tmp_path):
        # Each cell is plain repr text (numpy 2 once leaked np.float64(...)
        # into the omega column), lines end with CRLF like the other CSVs,
        # and omega is the tables' weights bit for bit.
        N = 64
        assert main(["weights", "--preset", "example1", "--set", f"time.N={N}",
                     "-o", str(tmp_path)]) == EXIT_OK
        raw = (tmp_path / "weights.csv").read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n") == 1 + N
        rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
        cells = np.array([[float(c) for c in row] for row in rows])
        problem = example1_problem()
        tables = KernelTables.build(problem.kernel, problem.T / N, N)
        assert np.array_equal(cells[:, 0], np.arange(N))
        assert np.array_equal(cells[:, 1], np.arange(N) * (problem.T / N))
        assert np.array_equal(cells[:, 2], tables.weights)


class TestSubprocessEntry:
    def test_module_invocation_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, ZERO_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "viscobeam.cli", "solve", "--config", cfg,
             "-o", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "solution.csv").exists()

    def test_cli_runs_without_scipy(self, tmp_path):
        # scipy is a test-only dependency: with its import blocked, every
        # subcommand still runs, and no scipy module is loaded.
        out = str(tmp_path)
        script = f"""
import sys
sys.modules["scipy"] = None
from viscobeam.cli import main
for argv in (
        ["solve", "--preset", "example1", "--set", "grid.J=8", "--set", "time.N=8"],
        ["study", "--preset", "example2-temporal", "--set", "grid.J=8",
         "--set", "time.N=4", "--set", "study.levels=2"],
        ["stability", "--preset", "example2-longtime", "--set", "grid.J=8",
         "--set", "time.N=50", "--set", "time.T=5"],
        ["weights", "--preset", "example1", "--set", "time.N=8"]):
    assert main(argv + ["-o", {out!r}]) == 0, argv
loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod]
assert not loaded, loaded
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_study_leaves_numpy_polynomial_unloaded(self, tmp_path):
        # The Gauss-Legendre rule is a module constant, so no run imports
        # numpy.polynomial or computes the rule with an eigensolve.
        script = f"""
import sys
from viscobeam.cli import main
assert main(["study", "--preset", "example2-temporal", "--set", "grid.J=8",
             "--set", "time.N=4", "--set", "study.levels=2", "-o", {str(tmp_path)!r}]) == 0
assert "numpy.polynomial" not in sys.modules
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_only_study_loads_the_study_harness(self, tmp_path):
        # solve, stability and weights once imported viscobeam.studies, and
        # with it csv, at ``import viscobeam.cli``; now only study loads it.
        script = f"""
import sys
import viscobeam
from viscobeam.cli import main
for argv in (
        ["solve", "--preset", "example1", "--set", "grid.J=8", "--set", "time.N=8"],
        ["stability", "--preset", "example2-longtime", "--set", "grid.J=8",
         "--set", "time.N=50", "--set", "time.T=5"],
        ["weights", "--preset", "example1", "--set", "time.N=8"]):
    assert main(argv + ["-o", {str(tmp_path)!r}]) == 0, argv
loaded = [m for m in ("viscobeam.studies", "csv") if m in sys.modules]
assert not loaded, loaded
assert main(["study", "--preset", "example2-temporal", "--set", "grid.J=8",
             "--set", "time.N=4", "--set", "study.levels=2", "-o", {str(tmp_path)!r}]) == 0
assert "viscobeam.studies" in sys.modules
assert viscobeam.run_study is sys.modules["viscobeam.studies"].run_study
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("override, code", [
        ("initial.u0.amplitude=1e300", EXIT_NUMERICAL),
        ("initial.u0.power=-1", EXIT_CONFIG),
    ])
    def test_stderr_is_one_json_line(self, override, code, tmp_path):
        # numpy's overflow and divide warnings once printed ahead of the
        # JSON line.
        proc = subprocess.run(
            [sys.executable, "-m", "viscobeam.cli", "solve", "--preset",
             "example2", "--set", override, "--set", "time.N=8",
             "-o", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert "category" in json.loads(lines[0])

    def test_usage_error_exit_code_distinct(self):
        proc = subprocess.run(
            [sys.executable, "-m", "viscobeam.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2
