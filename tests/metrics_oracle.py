"""Per-channel reference scoring: each channel and window through its own
boolean mask, and each bus's event recovery on its own.

It is the oracle for ``microdse.pipeline.compute_metrics``, which scores
each window as one block of rows and each event for every bus at once; the
two must give the same keys and windows, ``None`` in the same places, and
values that agree to rounding.
"""

from __future__ import annotations

import numpy as np

from microdse.models import bus_columns


def _rmse(estimate, truth):
    return float(np.sqrt(np.square(estimate - truth).mean()))


def recovery_time(t, errors, pre_mask, event_time, horizon_s, factor=3.0):
    """Seconds after ``event_time`` until one bus's (N, C) error is back
    at its steady level; ``inf`` when it never settles in the horizon."""
    sigma = np.sqrt(np.square(errors[pre_mask]).mean(axis=0))
    if (sigma <= 0.0).any():
        raise ValueError("pre-event window has zero error variance on some channel")
    post = (t >= event_time) & (t <= event_time + horizon_s)
    if post.sum() < 2:
        raise ValueError("recovery horizon holds no sample after the event's first")
    norm = np.sqrt(np.square(errors[post] / sigma).mean(axis=1))
    above = norm >= factor
    if not above.any():
        return 0.0
    last_above = np.flatnonzero(above)[-1]
    if last_above + 1 >= norm.shape[0]:
        return float("inf")
    return float(t[post][last_above + 1] - event_time)


def _window_channels(t, x_hat, x_true, z, labels, kind, windows, channels):
    for ci, label in enumerate(labels):
        per_window = []
        for a, b in windows:
            mask = (t >= a) & (t <= b)
            if not mask.any():
                continue
            r_est = _rmse(x_hat[mask, ci], x_true[mask, ci])
            r_meas = _rmse(z[mask, ci], x_true[mask, ci])
            per_window.append(
                {
                    "window_s": [a, b],
                    "rmse_estimate": r_est,
                    "rmse_measurement": r_meas,
                    "improvement_ratio": (r_est / r_meas) if r_meas > 0.0 else None,
                }
            )
        channels[label] = {"kind": kind, "windows": per_window}


def oracle_metrics(scn, result) -> dict:
    """The ``channels`` and ``tracking`` sections of ``compute_metrics``."""
    sim = scn.sim
    windows = scn.estimation.metrics.resolved_windows(sim.duration_s, sim.events)
    lt = result.local_trace
    channels: dict[str, dict] = {}
    for bus in sorted(result.local_estimates):
        etr = result.local_estimates[bus]
        cols = bus_columns(bus)
        _window_channels(
            lt.t, etr.x_hat, lt.x_true[:, cols], lt.z_state[:, cols],
            etr.labels, "local", windows, channels,
        )
    gt = result.global_trace
    line_cols = sim.topology.line_columns
    _window_channels(
        gt.t, result.global_estimate.x_hat, gt.x_true[:, line_cols],
        gt.z_state[:, line_cols], result.global_estimate.labels, "global",
        windows, channels,
    )

    horizon = scn.estimation.metrics.tracking_horizon_s
    tracking: dict[str, list] = {}
    for ev in sim.events.steps:
        pre = [w for w in windows if w[1] <= ev.time_s]
        pre_window = pre[-1] if pre else (max(0.0, ev.time_s - 1.0), ev.time_s)
        pre_mask = (lt.t >= pre_window[0]) & (lt.t < min(pre_window[1], ev.time_s))
        for bus in sorted(result.local_estimates):
            etr = result.local_estimates[bus]
            err = etr.x_hat - lt.x_true[:, bus_columns(bus)]
            rec = recovery_time(lt.t, err, pre_mask, ev.time_s, horizon)
            tracking.setdefault(f"local_bus{bus}", []).append(
                {
                    "event_time_s": ev.time_s,
                    "recovery_time_s": rec if np.isfinite(rec) else None,
                    "horizon_s": horizon,
                }
            )
    return {"channels": channels, "tracking": tracking}
