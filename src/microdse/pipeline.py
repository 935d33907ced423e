"""End-to-end scenario runs: simulate, estimate at both rates, score.

This is the programmatic counterpart of the command line; it works on
in-memory traces so the same code path backs the CLI and the tests.
``compute_metrics`` scores each metrics window as one block of rows, found
by binary search in the sorted sample times, and each event's recovery
for many buses at once: one ``rmse`` or ``tracking_recovery_time`` call
covers as many channels as fit in a block of ``_SCORE_VALUES`` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .estimation import (
    EstimateTrace,
    GlobalEstimator,
    LocalEstimator,
    build_global_estimator,
    build_local_estimator,
    global_input_covariance,
    local_posterior_covariance,
    rmse,
    run_global,
    run_locals,
    tracking_recovery_time,
)
from .models import bus_columns
from .sim import Trace, downsample, run_plant


@dataclass
class EstimationResult:
    local_trace: Trace
    local_estimates: dict[int, EstimateTrace]
    local_estimators: list[LocalEstimator]
    global_trace: Trace
    global_estimate: EstimateTrace
    global_estimator: GlobalEstimator


def build_local_estimators(scn: ScenarioConfig) -> list[LocalEstimator]:
    est = scn.estimation
    return [
        build_local_estimator(
            scn.sim.topology, bus, est.local_noise, est.local_rate_hz, est.method
        )
        for bus in range(1, scn.sim.topology.n_buses + 1)
    ]


def simulate_scenario(scn: ScenarioConfig) -> Trace:
    return run_plant(scn.sim)


def estimate_scenario(scn: ScenarioConfig, trace: Trace) -> EstimationResult:
    """Run the local estimators at their rate and the global one below them."""
    est = scn.estimation
    topology = scn.sim.topology
    local_trace = downsample(trace, est.local_rate_hz)
    estimators = build_local_estimators(scn)
    local_estimates = run_locals(estimators, local_trace)

    posteriors = {e.bus: local_posterior_covariance(e) for e in estimators}
    m_global = global_input_covariance(topology, posteriors)
    global_estimator = build_global_estimator(
        topology,
        q=est.global_noise.q,
        r=est.global_noise.r,
        rate_hz=est.global_rate_hz,
        input_covariance=m_global,
        method=est.method,
    )
    global_trace = downsample(local_trace, est.global_rate_hz)
    voltage_ticks = {
        bus: downsample(tr, est.global_rate_hz) for bus, tr in local_estimates.items()
    }
    global_estimate = run_global(global_estimator, voltage_ticks, global_trace)
    return EstimationResult(
        local_trace=local_trace,
        local_estimates=local_estimates,
        local_estimators=estimators,
        global_trace=global_trace,
        global_estimate=global_estimate,
        global_estimator=global_estimator,
    )


#: Values of the largest block of rows x channels that one scoring call
#: takes, so that scoring holds no more than a few such blocks at once.
_SCORE_VALUES = 2**16


def _window_rows(t: np.ndarray, a: float, b: float) -> slice:
    """The samples of the sorted times ``t`` with a <= t <= b."""
    return slice(
        int(np.searchsorted(t, a, side="left")), int(np.searchsorted(t, b, side="right"))
    )


def _groups(n_arrays: int, values: int) -> list[slice]:
    """Consecutive groups of ``n_arrays`` equal arrays of ``values`` values
    each, as many per group as fit in ``_SCORE_VALUES`` (at least one)."""
    size = max(1, _SCORE_VALUES // max(values, 1))
    return [slice(g, min(g + size, n_arrays)) for g in range(0, n_arrays, size)]


def _columns(columns: np.ndarray) -> slice | np.ndarray:
    """``columns`` as a slice when they are consecutive, which reads a block
    of a record without a copy."""
    if columns.size and np.array_equal(columns, np.arange(columns[0], columns[0] + columns.size)):
        return slice(int(columns[0]), int(columns[0]) + columns.size)
    return columns


def _window_channels(t, estimates, trace, columns, kind, windows, channels):
    """Score the channels of the ``estimates``, equal-width estimate traces
    whose columns side by side match the ``columns`` (n_traces, width) of
    ``trace``'s truth and measurements.  Each window runs over the block
    of its rows, one ``rmse`` call per quantity for as many traces as fit
    in ``_SCORE_VALUES``; a window without samples is skipped."""
    labels = [label for etr in estimates for label in etr.labels]
    scored = {label: [] for label in labels}
    for a, b in windows:
        rows = _window_rows(t, a, b)
        if rows.start >= rows.stop:
            continue
        r_est, r_meas = [], []
        for group in _groups(len(estimates), (rows.stop - rows.start) * columns.shape[1]):
            cols = _columns(columns[group].reshape(-1))
            truth = trace.x_true[rows, cols]
            estimate = np.concatenate([etr.x_hat[rows] for etr in estimates[group]], axis=1)
            r_est += rmse(estimate, truth)[0].tolist()
            r_meas += rmse(trace.z_state[rows, cols], truth)[0].tolist()
        for label, e, m in zip(labels, r_est, r_meas):
            scored[label].append(
                {
                    "window_s": [a, b],
                    "rmse_estimate": e,
                    "rmse_measurement": m,
                    "improvement_ratio": (e / m) if m > 0.0 else None,
                }
            )
    for label in labels:
        channels[label] = {"kind": kind, "windows": scored[label]}


def compute_metrics(scn: ScenarioConfig, result: EstimationResult) -> dict:
    """Per-channel error metrics, innovation statistics and event recovery.

    Each metrics window scores the channels of a kind in one pass over the
    window's rows, and each event's recovery is scored for many buses at
    once, in blocks of at most ``_SCORE_VALUES`` values."""
    sim = scn.sim
    windows = scn.estimation.metrics.resolved_windows(sim.duration_s, sim.events)
    lt = result.local_trace
    buses = sorted(result.local_estimates)
    local = [result.local_estimates[bus] for bus in buses]
    bus_cols = bus_columns(np.array(buses)[:, None])
    channels: dict[str, dict] = {}
    _window_channels(lt.t, local, lt, bus_cols, "local", windows, channels)
    _window_channels(
        result.global_trace.t,
        [result.global_estimate],
        result.global_trace,
        sim.topology.line_columns[None],
        "global",
        windows,
        channels,
    )

    innovation = {
        f"local_bus{bus}": {
            "mean_nis": float(np.nanmean(tr.nis)),
            "dim": tr.x_hat.shape[1],
        }
        for bus, tr in zip(buses, local)
    }
    innovation["global"] = {
        "mean_nis": float(np.nanmean(result.global_estimate.nis)),
        "dim": result.global_estimate.x_hat.shape[1],
    }

    horizon = scn.estimation.metrics.tracking_horizon_s
    tracking: dict[str, list] = {}
    for ev in sim.events.steps:
        pre = [w for w in windows if w[1] <= ev.time_s]
        pre_window = pre[-1] if pre else (max(0.0, ev.time_s - 1.0), ev.time_s)
        # the rows from the pre-event window to the end of the horizon
        rows = slice(
            _window_rows(lt.t, *pre_window).start,
            _window_rows(lt.t, ev.time_s, ev.time_s + horizon).stop,
        )
        t = lt.t[rows]
        pre_mask = (t >= pre_window[0]) & (t < min(pre_window[1], ev.time_s))
        recovery = []
        for group in _groups(len(buses), len(t) * bus_cols.shape[1]):
            errors = np.stack([etr.x_hat[rows] for etr in local[group]], axis=1)
            errors -= lt.x_true[rows, _columns(bus_cols[group].reshape(-1))].reshape(errors.shape)
            try:
                recovery += tracking_recovery_time(
                    t, errors, pre_mask, ev.time_s, horizon
                ).tolist()
            except ValueError as exc:
                raise ValueError(f"recovery after the event at {ev.time_s} s: {exc}") from exc
        for bus, rec in zip(buses, recovery):
            tracking.setdefault(f"local_bus{bus}", []).append(
                {
                    "event_time_s": ev.time_s,
                    "recovery_time_s": rec if np.isfinite(rec) else None,
                    "horizon_s": horizon,
                }
            )

    return {
        "scenario": scn.name,
        "seed": sim.seed,
        "duration_s": sim.duration_s,
        "windows_s": [list(w) for w in windows],
        "events": [
            {"time_s": ev.time_s, "bus": ev.bus} for ev in sim.events.steps
        ],
        "channels": channels,
        "innovation": innovation,
        "tracking": tracking,
    }
