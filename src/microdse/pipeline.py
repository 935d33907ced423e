"""End-to-end scenario runs: simulate, estimate at both rates, score.

This is the programmatic counterpart of the command line; it works on
in-memory traces so the same code path backs the CLI and the tests.
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
        q=np.diag(np.square(est.global_process_std)),
        r=np.diag(np.square(est.global_measurement_std)),
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


def _window_channels(t, x_hat, x_true, z, labels, kind, windows, channels):
    for ci, label in enumerate(labels):
        per_window = []
        for a, b in windows:
            mask = (t >= a) & (t <= b)
            if not mask.any():
                continue
            r_est = float(rmse(x_hat[mask, ci], x_true[mask, ci])[0][0])
            r_meas = float(rmse(z[mask, ci], x_true[mask, ci])[0][0])
            per_window.append(
                {
                    "window_s": [a, b],
                    "rmse_estimate": r_est,
                    "rmse_measurement": r_meas,
                    "improvement_ratio": (r_est / r_meas) if r_meas > 0.0 else None,
                }
            )
        channels[label] = {"kind": kind, "windows": per_window}


def compute_metrics(scn: ScenarioConfig, result: EstimationResult) -> dict:
    """Per-channel error metrics, innovation statistics and event recovery."""
    sim = scn.sim
    windows = scn.estimation.metrics.resolved_windows(sim.duration_s, sim.events)
    lt = result.local_trace
    channels: dict[str, dict] = {}
    for bus in sorted(result.local_estimates):
        etr = result.local_estimates[bus]
        cols = bus_columns(bus)
        _window_channels(
            lt.t,
            etr.x_hat,
            lt.x_true[:, cols],
            lt.z_state[:, cols],
            etr.labels,
            "local",
            windows,
            channels,
        )
    gt = result.global_trace
    line_cols = sim.topology.line_columns
    _window_channels(
        gt.t,
        result.global_estimate.x_hat,
        gt.x_true[:, line_cols],
        gt.z_state[:, line_cols],
        result.global_estimate.labels,
        "global",
        windows,
        channels,
    )

    innovation = {
        f"local_bus{bus}": {
            "mean_nis": float(np.nanmean(tr.nis)),
            "dim": tr.x_hat.shape[1],
        }
        for bus, tr in sorted(result.local_estimates.items())
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
        pre_mask = (lt.t >= pre_window[0]) & (lt.t < min(pre_window[1], ev.time_s))
        for bus in sorted(result.local_estimates):
            etr = result.local_estimates[bus]
            err = etr.x_hat - lt.x_true[:, bus_columns(bus)]
            rec = tracking_recovery_time(lt.t, err, pre_mask, ev.time_s, horizon)
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
