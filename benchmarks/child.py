"""Run one viscobeam CLI operation in this fresh process and time it.

    python3 child.py RESULT_JSON --calibrate ROWS [--trace SPANS_JSON] -- CLI_ARGS...

Times ``import viscobeam.cli`` (``setup_s``) and ``viscobeam.cli.main``
(``run_s``) and writes them, with the exit code, to RESULT_JSON.  Between
the two it runs the host-speed calibration (``calibrate.py``) with a
ROWS x 64 matrix and records its wall and CPU time, which ``bench.py``
takes out of the operation's.  With ``--trace`` it first wraps the package's
public functions from outside (the package has no timers of its own), keeps
one span per wrapped call in memory, writes the spans to SPANS_JSON when
the operation ends and adds per-layer totals to the result.  A wrapped name
that no longer exists is listed as an absent layer; the run goes on without
it.
"""

import time

_T0 = time.perf_counter()
import viscobeam.cli  # noqa: E402  (the import is what setup_s measures)
_SETUP_S = time.perf_counter() - _T0

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from calibrate import calibrate  # noqa: E402


def _assemble_layer(args, kwargs, tracer):
    """First assembly of a step builds the history right-hand side; later
    ones in the same step only refresh the damping part."""
    state = args[0] if args else kwargs.get("state")
    key = (id(state), getattr(state, "n", None))
    first = key != tracer.last_assemble
    tracer.last_assemble = key
    return "stepper.history_rhs" if first else "stepper.refresh"


# (layer, "module:attribute") in wrapping order.  Wrapping one target twice
# nests the later layer outside the earlier one, so ``studies.run`` spans
# contain the ``stepper.run`` span of the same call.  A layer given as a
# function picks its name per call.
LAYERS = (
    ("stepper.run", "viscobeam.cli:run"),
    ("stepper.run", "viscobeam.studies:run"),
    ("studies.run", "viscobeam.studies:run"),
    ("stepper.step", "viscobeam.stepper:step"),
    (_assemble_layer, "viscobeam.stepper:assemble_step_system"),
    ("model.damping", "viscobeam.stepper:damping_coefficient"),
    ("grid_ops.solve", "viscobeam.grid_ops:BandedMatrix.solve"),
    ("kernel.tables", "viscobeam.kernel:KernelTables.build"),
    ("diagnostics.energy", "viscobeam.diagnostics:energy"),
    ("diagnostics.data_functional", "viscobeam.cli:data_functional"),
    ("diagnostics.monitor", "viscobeam.cli:stability_monitor"),
    ("cli.config", "viscobeam.cli:preset_config"),
    ("cli.config", "viscobeam.cli:load_config"),
    ("cli.config", "viscobeam.cli:apply_overrides"),
    ("cli.config", "viscobeam.cli:build_problem"),
    ("cli.config", "viscobeam.cli:build_grid"),
    ("cli.config", "viscobeam.cli:build_steps"),
    ("cli.config", "viscobeam.cli:build_solver_config"),
    ("cli.config", "viscobeam.cli:build_study"),
    ("cli.config", "viscobeam.cli:require_valid"),
    ("cli.write", "viscobeam.cli:write_solution_csv"),
    ("cli.write", "viscobeam.stepper:TimeSeries.to_csv"),
    ("cli.write", "viscobeam.studies:ConvergenceReport.to_csv"),
    ("cli.write", "viscobeam.studies:ConvergenceReport.to_json"),
)

# Layers whose wrapped children are subtracted: reported as <layer>_self_s.
SELF_TIMED = ("stepper.step", "stepper.run")
# Calls of run() made by run_study: the study's run count.
RENAMED = {"studies.run_calls": "studies.runs"}


class Tracer:
    """Spans (name, start, end, parent index) of wrapped calls, in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []
        self.last_assemble = None
        self.fp_iters = [0, 0]  # sum and count over all run() series

    def wrap(self, layer, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs, self)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if name == "stepper.run":
                self._count_iterations(result)
            return result
        return traced

    def _count_iterations(self, result):
        # run() returns (state, series); level 1 is the explicit start.
        iters = getattr(result[1], "fp_iters", None) \
            if isinstance(result, tuple) and len(result) == 2 else None
        if iters is not None:
            self.fp_iters[0] += int(sum(iters[1:]))
            self.fp_iters[1] += max(len(iters) - 1, 0)

    def install(self, layers=LAYERS):
        for layer, target in layers:
            label = layer if isinstance(layer, str) else target
            module_name, _, path = target.partition(":")
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for name in owners:
                    owner = getattr(owner, name)
                raw = vars(owner)[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{label} ({target})")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(layer, raw.__func__))
            else:
                wrapped = self.wrap(layer, raw)
            setattr(owner, attr, wrapped)

    def layer_totals(self) -> dict:
        """Per span name: total time, call count and time in child spans."""
        totals = {}
        for name, start, end, parent in self.spans:
            entry = totals.setdefault(name, [0.0, 0, 0.0])
            entry[0] += end - start
            entry[1] += 1
            if parent >= 0:
                totals.setdefault(self.spans[parent][0], [0.0, 0, 0.0])[2] += \
                    end - start
        return totals

    def metrics(self) -> dict:
        """Per-layer metric values named <layer>_s and <layer>_calls."""
        out = {}
        totals = self.layer_totals()
        names = {layer for layer, _ in LAYERS if isinstance(layer, str)}
        names |= {"stepper.history_rhs", "stepper.refresh"}
        for name in sorted(names):
            total, calls, children = totals.get(name, (0.0, 0, 0.0))
            if name in SELF_TIMED:
                out[f"{name}_self_s"] = total - children
            else:
                out[f"{name}_s"] = total
            calls_name = f"{name}_calls"
            out[RENAMED.get(calls_name, calls_name)] = calls
        iters, steps = self.fp_iters
        out["stepper.fp_iters_mean"] = iters / steps if steps else 0.0
        return out


def main(argv) -> int:
    result_path, *rest = argv
    split = rest.index("--") if "--" in rest else len(rest)
    own, cli_args = rest[:split], rest[split + 1:]
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None
    rows = int(own[own.index("--calibrate") + 1])
    calibration_s, calibration_cpu_s = calibrate(rows)
    result = {"setup_s": _SETUP_S, "calibration_s": calibration_s,
              "calibration_cpu_s": calibration_cpu_s}
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = viscobeam.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    result["run_s"] = time.perf_counter() - start
    result["exit_code"] = code
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent_layers"] = tracer.absent
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
