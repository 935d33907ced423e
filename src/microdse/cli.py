"""Command line: simulate scenarios, run the estimators, report metrics.

Exit codes: 0 success, 1 configuration/validation problem, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import config as cfgmod
from .config import ConfigError

if TYPE_CHECKING:
    import numpy as np

    from .config import ScenarioConfig
    from .sim import Trace

#: What ``simulate`` and ``estimate`` use of numpy and the pipeline, by
#: the module it comes from.  ``_load_runtime`` binds each name here on
#: first use, so ``report`` loads none of it.  The commands look these
#: names up in this module when they run, so a caller may replace one (the
#: benchmark's tracer does); ``__getattr__`` loads a name asked for first.
_RUNTIME = {
    ".models": ("build_coupled_plant", "input_record_labels"),
    ".pipeline": ("compute_metrics", "estimate_scenario", "simulate_scenario"),
    ".sim": ("Trace", "sample_times"),
    ".traceio": ("read_csv", "write_csv"),
}
_SOURCE = {name: module for module, names in _RUNTIME.items() for name in names}

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_SOURCE[name], __package__), name)
    globals()[name] = value
    return value


def _load_runtime() -> None:
    """Bind numpy as ``np`` and each name of ``_RUNTIME`` that is not bound yet."""
    global np
    import numpy as np

    for name in _SOURCE.keys() - globals().keys():
        __getattr__(name)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 for runtime failures only
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="scenario JSON (default: bundled reference scenario)")
    p.add_argument("--out", type=Path, default=None, help="output directory (default: from config)")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.add_argument("--duration", type=float, default=None, help="override the simulated duration in seconds")
    p.add_argument("--event-time", type=float, default=None, help="override the load-event time in seconds")
    p.add_argument("--discretization", choices=["euler", "exact"], default=None, help="override the estimator discretization method")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="microdse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="simulate a scenario and write truth/measurement CSVs")
    _add_common(p_sim)
    p_est = sub.add_parser("estimate", help="run the estimators over simulated traces")
    _add_common(p_est)
    p_est.add_argument("--truth", type=Path, required=True, help="truth CSV from 'simulate'")
    p_est.add_argument("--measurements", type=Path, required=True, help="measurement CSV from 'simulate'")
    p_rep = sub.add_parser("report", help="print a human-readable metrics summary")
    p_rep.add_argument("--metrics", type=Path, required=True, help="metrics JSON from 'estimate'")
    return parser


def _overrides(args) -> dict:
    return {
        "seed": args.seed,
        "duration_s": args.duration,
        "event_time_s": getattr(args, "event_time", None),
        "discretization": args.discretization,
    }


def _load_raw(args) -> dict:
    if args.config is None:
        raw = cfgmod.bundled_config_dict()
    else:
        raw = cfgmod.read_json_object(args.config, "configuration")
    return cfgmod.apply_overrides(raw, _overrides(args))


def _out_dir(args, raw: dict) -> Path:
    out = args.out if args.out is not None else Path(raw.get("output", {}).get("directory", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _trace_columns(trace: Trace, measured: bool) -> dict[str, np.ndarray]:
    states = trace.z_state if measured else trace.x_true
    inputs = trace.u_meas if measured else trace.u_true
    cols: dict[str, np.ndarray] = {}
    for i, lab in enumerate(trace.state_labels):
        cols[lab] = states[:, i]
    for i, lab in enumerate(trace.input_labels):
        cols[lab] = inputs[:, i]
    return cols


def cmd_simulate(args) -> int:
    _load_runtime()
    raw = _load_raw(args)
    sim = raw.get("simulation")
    if isinstance(sim, dict) and sim.get("duration_s") == 0:
        # degenerate run: emit the channel schema without any samples; the
        # other runs are validated once, by ``load_scenario_dict``
        cfgmod._schema_check(raw)
        topology = cfgmod._topology(raw)
        model = build_coupled_plant(topology)
        labels = model.state_labels + input_record_labels(topology.n_buses)
        out = _out_dir(args, raw)
        empty = {lab: np.empty(0) for lab in labels}
        for name in ("truth.csv", "measurements.csv"):
            write_csv(out / name, np.empty(0), empty)
            print(f"wrote {out / name} (header only)")
        return EXIT_OK
    scn = cfgmod.load_scenario_dict(raw)
    trace = simulate_scenario(scn)
    out = _out_dir(args, raw)
    write_csv(out / "truth.csv", trace.t, _trace_columns(trace, measured=False))
    write_csv(out / "measurements.csv", trace.t, _trace_columns(trace, measured=True))
    print(f"simulated {scn.name}: {len(trace)} samples at {trace.rate_hz:.0f} Hz (seed {scn.sim.seed})")
    print(f"wrote {out / 'truth.csv'}")
    print(f"wrote {out / 'measurements.csv'}")
    return EXIT_OK


def _read_trace(scn: ScenarioConfig, truth_path: Path, meas_path: Path) -> Trace:
    t, truth_cols = read_csv(truth_path)
    t2, meas_cols = read_csv(meas_path)
    if t.shape != t2.shape or not np.array_equal(t, t2):
        raise ConfigError("truth and measurement traces are not time-aligned")
    if t.shape[0] < 2:
        raise ConfigError("traces need at least two samples")
    step = scn.sim.plant_step_s
    off_grid = np.flatnonzero(t != sample_times(t.shape[0], step))
    if off_grid.size:
        k = int(off_grid[0])
        raise ConfigError(
            f"{truth_path}: line {k + 2} has t={float(t[k])!r} s, off the scenario's "
            f"grid of {step!r} s steps"
        )
    model = build_coupled_plant(scn.sim.topology)
    state_labels = model.state_labels
    input_labels = input_record_labels(scn.sim.topology.n_buses)
    for lab in (*state_labels, *input_labels):
        if lab not in truth_cols or lab not in meas_cols:
            raise ConfigError(
                f"trace files do not match the configured topology: missing column {lab!r}"
            )
    x_true = np.column_stack([truth_cols[lab] for lab in state_labels])
    u_true = np.column_stack([truth_cols[lab] for lab in input_labels])
    # t and the columns are views of the parsed truth: release it before
    # the measurement blocks are stacked
    t = t.copy()
    del truth_cols
    z_state = np.column_stack([meas_cols[lab] for lab in state_labels])
    u_meas = np.column_stack([meas_cols[lab] for lab in input_labels])
    return Trace(
        t=t,
        t_step_s=step,
        x_true=x_true,
        z_state=z_state,
        u_true=u_true,
        u_meas=u_meas,
        state_labels=state_labels,
        input_labels=input_labels,
    )


def cmd_estimate(args) -> int:
    _load_runtime()
    raw = _load_raw(args)
    scn = cfgmod.load_scenario_dict(raw)
    trace = _read_trace(scn, args.truth, args.measurements)
    result = estimate_scenario(scn, trace)
    # scored first, so that a run that cannot be scored writes no file
    metrics = compute_metrics(scn, result)
    out = _out_dir(args, raw)
    for bus, etr in sorted(result.local_estimates.items()):
        cols = {lab: etr.x_hat[:, i] for i, lab in enumerate(etr.labels)}
        cols["nis"] = etr.nis
        path = out / f"local_bus{bus}.csv"
        write_csv(path, etr.t, cols)
        print(f"wrote {path}")
    g = result.global_estimate
    cols = {lab: g.x_hat[:, i] for i, lab in enumerate(g.labels)}
    cols["nis"] = g.nis
    write_csv(out / "global.csv", g.t, cols)
    print(f"wrote {out / 'global.csv'}")
    metrics_path = out / "metrics.json"
    metrics_path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(f"wrote {metrics_path}")
    return EXIT_OK


def _objects_of(value_schema: dict) -> dict:
    return {"type": "object", "additionalProperties": value_schema}


def _record(**fields) -> dict:
    return {"type": "object", "required": list(fields), "properties": fields}


_NUMBER = {"type": "number"}
_NUMBER_OR_NULL = {"type": ["number", "null"]}

#: The shape of the ``metrics.json`` sections that ``report`` prints.
_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "channels": _objects_of(
            _record(
                windows={
                    "type": "array",
                    "items": _record(
                        window_s={
                            "type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2
                        },
                        rmse_estimate=_NUMBER,
                        rmse_measurement=_NUMBER,
                        improvement_ratio=_NUMBER_OR_NULL,
                    ),
                }
            )
        ),
        "innovation": _objects_of(_record(mean_nis=_NUMBER, dim={"type": "integer"})),
        "tracking": _objects_of(
            {
                "type": "array",
                "items": _record(event_time_s=_NUMBER, recovery_time_s=_NUMBER_OR_NULL),
            }
        ),
    },
}


def cmd_report(args) -> int:
    metrics = cfgmod.read_json_object(args.metrics, "metrics")
    cfgmod._schema_check(metrics, _REPORT_SCHEMA, "metrics")
    channels = metrics.get("channels", {})
    if not channels:
        print("no data")
        return EXIT_OK
    print(f"scenario: {metrics.get('scenario', '?')}  seed: {metrics.get('seed', '?')}")
    header = f"{'channel':<10} {'window [s]':<14} {'rmse(est)':>12} {'rmse(meas)':>12} {'ratio':>8}"
    print(header)
    print("-" * len(header))
    for label, entry in channels.items():
        for w in entry["windows"]:
            a, b = w["window_s"]
            ratio = w["improvement_ratio"]
            ratio_txt = f"{ratio:8.3f}" if ratio is not None else f"{'n/a':>8}"
            print(
                f"{label:<10} [{a:5.2f},{b:5.2f}] {w['rmse_estimate']:>12.4g} "
                f"{w['rmse_measurement']:>12.4g} {ratio_txt}"
            )
    innovation = metrics.get("innovation", {})
    if innovation:
        print()
        for name, entry in innovation.items():
            print(f"innovation {name}: mean NIS {entry['mean_nis']:.3f} (dim {entry['dim']})")
    tracking = metrics.get("tracking", {})
    if tracking:
        print()
        for name, events in tracking.items():
            for ev in events:
                rec = ev["recovery_time_s"]
                rec_txt = f"{rec * 1000:.1f} ms" if rec is not None else "not within horizon"
                print(f"tracking {name}: event at {ev['event_time_s']} s -> recovered in {rec_txt}")
    return EXIT_OK


_COMMANDS = {"simulate": cmd_simulate, "estimate": cmd_estimate, "report": cmd_report}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
