"""Seeded sweep of the command line over the model's parameter ranges.

The paper's stability, error and solvability results cover every kernel
with sigma > 1, 0 <= gamma <= sigma and alpha in its family's range, and
every damping law G >= g0 > 0 with a finite Lipschitz constant.  The
generator draws valid configs from fixed ranges that reach those edges
(affine and square-root slopes up to b = 1e6), adds the edges themselves,
and one config just outside each range.  Each runs through ``cli.main``
``solve`` or ``stability`` at J = 8, N = 8 from ``--set`` entries alone,
so a failure prints the line that reproduces it.

A valid config exits 0, or 3 with a step index for a real blow-up; one
outside a range exits 2 with a message that names the offending key or
parameter.  Exits 2 and 3 print one JSON line to stderr.  The seed and the
ranges are fixed here: a failing config is fixed or marked, never drawn
away.
"""

import json
import math
import re
import shlex

import numpy as np
import pytest

from viscobeam.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

SEED = 20261019
N_DRAWN = 56


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _field(rng):
    if rng.random() < 0.5:
        return {"name": "sin_mode", "amplitude": _log_uniform(rng, 1e-3, 10.0),
                "mode": int(rng.integers(1, 5))}
    return {"name": "poly_bump", "amplitude": _log_uniform(rng, 1e-3, 10.0),
            "power": float(rng.uniform(1.0, 4.0))}


def _draw(rng):
    """One valid config: every entry inside the ranges the scheme assumes."""
    family = str(rng.choice(["oscillatory", "non_oscillatory", "none"]))
    sigma = 1.0 + _log_uniform(rng, 1e-7, 49.0)
    kernel = {"family": family}
    if family == "oscillatory":
        kernel.update(sigma=sigma, gamma=float(rng.uniform(0.0, sigma)),
                      alpha=float(rng.choice([0.5, 1.0])))
    elif family == "non_oscillatory":
        kernel.update(sigma=sigma, alpha=float(rng.uniform(1e-3, 1.0)))
    kind = str(rng.choice(["affine", "sqrt_affine", "constant"]))
    if kind == "constant":
        damping = {"kind": kind, "c": _log_uniform(rng, 1e-3, 10.0)}
    else:
        damping = {"kind": kind, "a": _log_uniform(rng, 1e-3, 10.0),
                   "b": _log_uniform(rng, 1e-3, 1e6)}
    forcing = {"name": "zero"}
    if rng.random() < 0.5:
        forcing = {"name": "tempered_sin", "sigma": float(rng.uniform(0.0, 5.0)),
                   "alpha": float(rng.uniform(0.0, 2.0)),
                   "amplitude": _log_uniform(rng, 1e-3, 10.0),
                   "mode": int(rng.integers(1, 5))}
    initial = {"u0": _field(rng),
               "u1": _field(rng) if rng.random() < 0.5 else {"name": "zero"}}
    return {"kernel": kernel, "damping": damping, "initial": initial,
            "forcing": forcing, "grid": {"J": 8},
            "time": {"T": float(rng.uniform(0.05, 5.0)), "N": 8}}


BASE = {"kernel": {"family": "oscillatory", "sigma": 2.0, "gamma": 1.0, "alpha": 0.5},
        "damping": {"kind": "affine", "a": 1.0, "b": 1.0},
        "initial": {"u0": {"name": "sin_mode", "amplitude": 1.0, "mode": 1}},
        "grid": {"J": 8}, "time": {"T": 1.0, "N": 8}}


def _with(**sections):
    doc = json.loads(json.dumps(BASE))
    doc.update(sections)
    return doc


NONOSC = {"family": "non_oscillatory", "sigma": 2.0, "alpha": 0.5}

#: The valid edges of every range.
EDGES = [
    _with(kernel={"family": "oscillatory", "sigma": 1.0 + 1e-7, "gamma": 1.0 + 1e-7,
                  "alpha": 1.0}),
    _with(kernel={"family": "non_oscillatory", "sigma": 50.0, "alpha": 1e-3}),
    _with(kernel=dict(NONOSC, alpha=1.0)),
    _with(damping={"kind": "affine", "a": 1.0, "b": 1e6}),
    _with(damping={"kind": "sqrt_affine", "a": 1e-3, "b": 1e6}),
    _with(damping={"kind": "affine", "a": 1e-3, "b": 0.0}),
    _with(time={"T": 1e-3, "N": 8}, grid={"J": 4}),
]

#: One config just outside each range, with the name its message must hold.
OUTSIDE = [
    (_with(kernel={"family": "oscillatory", "sigma": 1.0, "gamma": 0.5, "alpha": 0.5}),
     "sigma"),
    (_with(kernel=dict(NONOSC, sigma=1.0)), "sigma"),
    (_with(kernel={"family": "oscillatory", "sigma": 2.0, "gamma": 2.0 + 1e-9,
                   "alpha": 0.5}), "gamma"),
    (_with(kernel=dict(NONOSC, gamma=1e-9)), "gamma"),
    (_with(kernel=dict(NONOSC, alpha=0.0)), "alpha"),
    (_with(kernel=dict(NONOSC, alpha=1.5)), "alpha"),
    (_with(kernel={"family": "oscillatory", "sigma": 2.0, "gamma": 1.0, "alpha": 0.3}),
     "alpha"),
    (_with(damping={"kind": "affine", "a": 0.0, "b": 1.0}), "g0"),
    (_with(damping={"kind": "affine", "a": 1.0, "b": -1e-9}), "Lipschitz"),
    (_with(damping={"kind": "sqrt_affine", "a": -1e-9, "b": 1.0}), "g0"),
    (_with(damping={"kind": "constant", "c": 0.0}), "g0"),
    (_with(time={"T": 0.0, "N": 8}), "T"),
    (_with(grid={"J": 3}), "J"),
    (_with(time={"T": 1.0, "N": 0}), "N"),
    (_with(initial={"u0": {"name": "sin_mode", "amplitude": 1.0, "mode": 2.5}}), "mode"),
]


def _assignments(doc, prefix=""):
    """The config as ``--set`` entries: strings bare, numbers as JSON."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _assignments(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}={value if isinstance(value, str) else json.dumps(value)}"


def _sweep():
    rng = np.random.default_rng(SEED)
    valid = [_draw(rng) for _ in range(N_DRAWN)] + EDGES
    commands = ["solve", "stability"]
    return ([(commands[k % 2], doc, None) for k, doc in enumerate(valid)]
            + [(commands[k % 2], doc, name) for k, (doc, name) in enumerate(OUTSIDE)])


def test_sweep(tmp_path, capsys):
    (tmp_path / "empty.json").write_text("{}")
    ranges_reached = {"affine": 0.0, "sqrt_affine": 0.0}
    failures = []
    for command, doc, name in _sweep():
        argv = [command, "--config", str(tmp_path / "empty.json"), "-o", str(tmp_path)]
        for entry in _assignments(doc):
            argv += ["--set", entry]
        code = main(argv)
        err = capsys.readouterr().err
        where = f"viscobeam {shlex.join(argv)}: exit {code}, stderr {err!r}"
        kind = doc["damping"]["kind"]
        if name is None and kind in ranges_reached:
            ranges_reached[kind] = max(ranges_reached[kind], doc["damping"]["b"])
        if code not in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL):
            failures.append(where)
            continue
        if code == EXIT_OK:
            if name is not None:
                failures.append(f"accepted outside its range: {where}")
            continue
        lines = err.splitlines()
        if len(lines) != 1:
            failures.append(f"not one stderr line: {where}")
            continue
        message = json.loads(lines[0])["message"]
        if code == EXIT_CONFIG and (name is None or not re.search(rf"\b{name}\b", message)):
            failures.append(f"config error not naming {name}: {where}")
        if code == EXIT_NUMERICAL and (name is not None
                                       or not re.search(r"\bstep \d+", message)):
            failures.append(f"numerical error without a step index: {where}")
    assert not failures, "\n".join(failures)
    assert ranges_reached == {"affine": 1e6, "sqrt_affine": 1e6}
