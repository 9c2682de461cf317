"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest benchmarks/test_bench.py

Each workload's tiny variant runs through the same ``bench.py`` code as the
benchmark; references for it are taken from one untraced run first.
"""

from __future__ import annotations

import copy
import importlib
import json
import random
import sys

import pytest

import bench
from workloads import POOL, WORKLOADS

sys.path.insert(0, str(bench.ROOT / "src"))
import child  # noqa: E402  (imports viscobeam.cli)

SEED = 7


@pytest.fixture(scope="module")
def env():
    return bench.child_env()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny(request, env, tmp_path_factory):
    """(workload, reference, untraced output dir) of a tiny nonzero-seed run."""
    workload = WORKLOADS[request.param].shrunk()
    opdir = tmp_path_factory.mktemp(request.param)
    op = bench.run_operation(workload, SEED, None, opdir, env)
    assert op.ok, op.problems
    reference = workload.extract(opdir / "out", (opdir / "stdout.txt").read_text())
    return workload, reference, opdir / "out"


def test_seeded_draws_change_only_kernel_parameters():
    for workload in WORKLOADS.values():
        assert workload.overrides(0) == workload.overrides(POOL) == []
        sets = workload.overrides(SEED)
        assert sets == workload.overrides(SEED)
        assert sets and all(s.startswith(("kernel.", "forcing.sigma=",
                                          "study.sweep=")) for s in sets)


def test_workload_runs_tiny_with_nonzero_seed(tiny, tmp_path):
    workload, reference, _ = tiny
    result = bench.measure(workload, SEED, 0.0, False, reference, tmp_path)
    assert result["correct"] and result["failed"] == 0, result["problems"]
    assert result["attempted"] >= 1
    assert all(v > 0 for v in result["metrics"].values()), result["metrics"]


def test_every_metric_prints_with_unit(tiny, tmp_path, capsys):
    workload, reference, _ = tiny
    for trace in (False, True):
        result = bench.measure(workload, SEED, 0.0, trace, reference,
                               tmp_path / str(trace))
        units = bench.metric_specs(trace)
        bench.emit(result, units)
        lines = capsys.readouterr().out.splitlines()
        for name, unit in units.items():
            assert any(line.split()[0] == name and line.split()[2] == unit
                       for line in lines[:-1]), name
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == units
        assert last["correct"] and last["failed"] == 0


def test_traced_outputs_byte_identical(tiny, env, tmp_path):
    workload, _, plain_out = tiny
    op = bench.run_operation(workload, SEED, None, tmp_path, env, traced=True)
    assert op.ok, op.problems
    compared = [name for name in bench.DETERMINISTIC_OUTPUTS
                if (plain_out / name).exists()]
    assert compared
    assert bench.differing_outputs(plain_out, tmp_path / "out") == []
    assert op.layers["stepper.history_rhs_calls"] > 0
    assert op.absent == []
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert len(spans) == sum(v for k, v in op.layers.items()
                             if k.endswith("_calls") or k == "studies.runs")


def _corrupt(reference: dict) -> dict:
    """Nudge one number by 1e-5 relative, far outside every tolerance."""
    bad = copy.deepcopy(reference)
    if "u" in bad:
        bad["u"][len(bad["u"]) // 2] *= 1 + 1e-5
    elif "cells" in bad:
        cell = bad["cells"][sorted(bad["cells"])[0]]
        cell["errors"][-1] *= 1 + 1e-5
    else:
        bad["max_total"] *= 1 + 1e-5
    return bad


def test_corrupted_reference_counts_as_failure(tiny, tmp_path):
    workload, reference, _ = tiny
    result = bench.measure(workload, SEED, 0.0, False, _corrupt(reference),
                           tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_absent_layer_is_reported_not_fatal(monkeypatch):
    tracer = child.Tracer()
    layers = child.LAYERS + (("stepper.gone", "viscobeam.stepper:no_such_fn"),
                             ("grid_ops.gone", "viscobeam.grid_ops:Missing.solve"),
                             ("x.gone", "viscobeam.no_such_module:fn"))
    for _, target in child.LAYERS:  # undo the wrapping after the test
        module, _, path = target.partition(":")
        owner = importlib.import_module(module)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        monkeypatch.setattr(owner, attr, vars(owner)[attr])
    tracer.install(layers)
    assert len(tracer.absent) == 3
    metrics = tracer.metrics()
    assert metrics["stepper.history_rhs_calls"] == 0


def test_stored_references_match_draws():
    for workload in WORKLOADS.values():
        path = bench.HERE / "references" / f"{workload.name}.json"
        doc = json.loads(path.read_text())
        assert doc["pool"] == POOL and len(doc["draws"]) == POOL
        for draw in random.Random(0).sample(range(POOL), 5):
            assert doc["draws"][str(draw)]["set"] == workload.overrides(draw)
