"""Spans and counters around calls into the package's layers.

Tracing patches module attributes so that the package's own calls go
through a timing wrapper; nothing inside the package changes.  Each
wrapper records one span (name, start, end, parent span, operation) and
optional counts taken from the call's arguments and result, so counts are
exact and repeat from run to run.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter


def _steps(_args, result):
    return {"steps": len(result) - 1}


def _local_steps(args, result):
    return {"steps": len(result) - 1, "bus": args[0].bus}


def _rows_written(args, _result):
    return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}


def _rows_read(args, result):
    return {"rows": len(result[0]), "bytes": os.path.getsize(args[0])}


# (module, attribute, span name, attrs from (args, result)).  Functions
# imported by name are patched in every module that calls them.
TARGETS = (
    ("microdse.config", "load_scenario_dict", "config.load_scenario_dict", None),
    ("microdse.sim", "build_coupled_plant", "models.build_coupled_plant", None),
    ("microdse.cli", "build_coupled_plant", "models.build_coupled_plant", None),
    ("microdse.sim", "discretize_exact", "discretize.plant", None),
    ("microdse.sim", "closed_loop_matrix", "sim.closed_loop_matrix", None),
    ("numpy.linalg", "eigvals", "sim.eigvals", None),
    ("microdse.sim", "regulated_equilibrium", "sim.regulated_equilibrium", None),
    ("microdse.pipeline", "run_plant", "sim.run_plant", _steps),
    ("microdse.pipeline", "downsample", "sim.downsample", None),
    ("microdse.pipeline", "build_local_estimator", "estimation.build_local", None),
    ("microdse.estimation", "run_local", "estimation.run_local", _local_steps),
    ("microdse.pipeline", "local_posterior_covariance", "kalman.steady_state", None),
    ("microdse.pipeline", "global_input_covariance", "estimation.global_input", None),
    ("microdse.pipeline", "build_global_estimator", "estimation.build_global", None),
    ("microdse.pipeline", "run_global", "estimation.run_global", _steps),
    ("microdse.pipeline", "simulate_scenario", "pipeline.simulate_scenario", None),
    ("microdse.cli", "simulate_scenario", "pipeline.simulate_scenario", None),
    ("microdse.pipeline", "estimate_scenario", "pipeline.estimate_scenario", None),
    ("microdse.cli", "estimate_scenario", "pipeline.estimate_scenario", None),
    ("microdse.pipeline", "compute_metrics", "pipeline.compute_metrics", None),
    ("microdse.cli", "compute_metrics", "pipeline.compute_metrics", None),
    ("microdse.cli", "write_csv", "traceio.write_csv", _rows_written),
    ("microdse.cli", "read_csv", "traceio.read_csv", _rows_read),
)

LAYERS = (
    "config",
    "models",
    "discretize",
    "sim",
    "kalman",
    "estimation",
    "pipeline",
    "traceio",
    "cli",
)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.errors: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs_of):
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            span = {
                "name": name,
                "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span["attrs"] = attrs_of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, attrs_of in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, attrs_of))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "errors": dict(self.errors)}


# Per-layer metrics of a traced run, with units.  ``_ms`` values are the
# span time of a layer's calls per traced operation, child spans included;
# ``_us`` values divide a layer's time by its exact work count, and
# ``sim.step_us`` uses ``run_plant``'s self time (without model build,
# discretization, closed-loop check and equilibrium).  Counts are totals
# over the workload's batch, so they repeat exactly from run to run.
PER_LAYER = {
    "config.validate_ms": "ms",
    "models.plant_build_ms": "ms",
    "discretize.plant_ms": "ms",
    "sim.closed_loop_check_ms": "ms",
    "kalman.steady_state_ms": "ms",
    "sim.step_us": "us",
    "sim.steps": "count",
    "sim.downsample_ms": "ms",
    "estimation.local.step_us": "us",
    "estimation.local.steps": "count",
    "estimation.local.convergence_step_max": "count",
    "estimation.local.redundant_cov_share": "ratio",
    "estimation.global.build_ms": "ms",
    "estimation.global.step_us": "us",
    "estimation.global.steps": "count",
    "pipeline.metrics_ms": "ms",
    "traceio.write_us_per_row": "us",
    "traceio.read_us_per_row": "us",
    "traceio.rows_written": "count",
    "traceio.rows_read": "count",
    "traceio.bytes_written": "bytes",
    "traceio.bytes_read": "bytes",
    "cli.startup_s": "s",
    "cli.simulate_s": "s",
    "cli.estimate_s": "s",
    "cli.report_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_share": "ratio",
}


def merge(into: list[dict], spans: list[dict], op: int) -> None:
    """Append one process's spans, re-based so parent indices stay valid."""
    base = len(into)
    for span in spans:
        parent = span["parent"]
        into.append({**span, "op": op, "parent": None if parent is None else parent + base})


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(
    spans: list[dict],
    errors: dict,
    n_ops: int,
    convergence: list[dict[int, int]],
    cli_times: dict[str, float],
    overhead_share: float,
) -> dict[str, float]:
    """Reduce a traced run's spans to the ``PER_LAYER`` metrics.

    ``convergence[op][bus]`` is the step after which bus ``bus``'s gain
    has converged in operation ``op``; later covariance updates repeat the
    same values, which gives ``estimation.local.redundant_cov_share``.
    """
    total: dict[str, float] = {}
    child: dict[int, float] = {}
    counts: dict[str, int] = {}
    for i, span in enumerate(spans):
        total[span["name"]] = total.get(span["name"], 0.0) + _duration(span)
        if span["parent"] is not None:
            child[span["parent"]] = child.get(span["parent"], 0.0) + _duration(span)
        for key, value in span.get("attrs", {}).items():
            if key != "bus":
                counts[f"{span['name']}.{key}"] = counts.get(f"{span['name']}.{key}", 0) + value
    plant_self = sum(
        _duration(s) - child.get(i, 0.0)
        for i, s in enumerate(spans)
        if s["name"] == "sim.run_plant"
    )
    redundant = sum(
        max(0, s["attrs"]["steps"] - convergence[s["op"]][s["attrs"]["bus"]])
        for s in spans
        if s["name"] == "estimation.run_local" and "attrs" in s
    )

    def per_op_ms(*names):
        return 1e3 * sum(total.get(n, 0.0) for n in names) / n_ops

    def us_per(name, count_key):
        n = counts.get(count_key, 0)
        return 1e6 * total.get(name, 0.0) / n if n else 0.0

    plant_steps = counts.get("sim.run_plant.steps", 0)
    local_steps = counts.get("estimation.run_local.steps", 0)
    out = {
        "config.validate_ms": per_op_ms("config.load_scenario_dict"),
        "models.plant_build_ms": per_op_ms("models.build_coupled_plant"),
        "discretize.plant_ms": per_op_ms("discretize.plant"),
        "sim.closed_loop_check_ms": per_op_ms("sim.closed_loop_matrix", "sim.eigvals"),
        "kalman.steady_state_ms": per_op_ms("kalman.steady_state"),
        "sim.step_us": 1e6 * plant_self / plant_steps if plant_steps else 0.0,
        "sim.steps": plant_steps,
        "sim.downsample_ms": per_op_ms("sim.downsample"),
        "estimation.local.step_us": us_per("estimation.run_local", "estimation.run_local.steps"),
        "estimation.local.steps": local_steps,
        "estimation.local.convergence_step_max": max(
            (step for per_bus in convergence for step in per_bus.values()), default=0
        ),
        "estimation.local.redundant_cov_share": redundant / local_steps
        if local_steps
        else 0.0,
        "estimation.global.build_ms": per_op_ms(
            "estimation.global_input", "estimation.build_global"
        ),
        "estimation.global.step_us": us_per("estimation.run_global", "estimation.run_global.steps"),
        "estimation.global.steps": counts.get("estimation.run_global.steps", 0),
        "pipeline.metrics_ms": per_op_ms("pipeline.compute_metrics"),
        "traceio.write_us_per_row": us_per("traceio.write_csv", "traceio.write_csv.rows"),
        "traceio.read_us_per_row": us_per("traceio.read_csv", "traceio.read_csv.rows"),
        "traceio.rows_written": counts.get("traceio.write_csv.rows", 0),
        "traceio.rows_read": counts.get("traceio.read_csv.rows", 0),
        "traceio.bytes_written": counts.get("traceio.write_csv.bytes", 0),
        "traceio.bytes_read": counts.get("traceio.read_csv.bytes", 0),
        **{f"cli.{key}": cli_times.get(key, 0.0) for key in
           ("startup_s", "simulate_s", "estimate_s", "report_s")},
        **{f"{layer}.errors": errors.get(layer, 0) for layer in LAYERS},
        "trace.overhead_share": overhead_share,
    }
    if out.keys() != PER_LAYER.keys():
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return out
