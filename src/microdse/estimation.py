"""Decentralized estimators: one high-rate filter per DGU, one low-rate
filter over all line currents.

Local estimators consume each bus's own noisy state and input channels
and are fully independent of each other.  The global estimator treats the
line currents as states and takes its (noisy) line inputs from the
locally estimated bus voltages through the grid's incidence
(``MicrogridTopology.incidence``); the input-noise covariance fed to its
effective process noise is propagated from the local filters'
steady-state posterior voltage blocks.

Both layers share one filter model (H = I, constant Q_eff and R), so both
run a record the same way, through ``kalman.filter_record``: a data-free
gain schedule, then a state pass with the converged gain.  ``run_locals``
runs all its buses as one stack, reading each bus's columns of the trace
in place, and ``run_local`` wraps each bus's share of the result; the
global filter, and a bus run alone, are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .discretize import discretize_euler, discretize_exact
from .kalman import (
    CovarianceError,
    KalmanEstimator,
    NoiseSpec,
    effective_process_noise,
    filter_record,
    steady_state_covariance,
)
from .models import (
    ContinuousLtiModel,
    MicrogridTopology,
    build_dgu_model,
    block_diagonal,
    build_line_model,
    bus_columns,
    bus_records,
)
from .sim import Trace


@dataclass(frozen=True)
class EstimateTrace:
    """Per-sample posterior estimates with innovation diagnostics.

    ``nis`` holds the normalized innovation squared of each update; the
    first sample initializes the filter from the measurement and carries
    NaN diagnostics.
    """

    t: np.ndarray
    t_step_s: float
    x_hat: np.ndarray
    labels: tuple[str, ...]
    nis: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def rate_hz(self) -> float:
        return 1.0 / self.t_step_s


@dataclass
class LocalEstimator:
    """Kalman filter over one DGU's 4-state model at the sensor rate."""

    bus: int
    kf: KalmanEstimator
    rate_hz: float

    @property
    def columns(self) -> np.ndarray:
        """The bus's columns in the plant state and in the input record."""
        return bus_columns(self.bus)


@dataclass
class GlobalEstimator:
    """Kalman filter over the stacked line currents at the reporting rate."""

    kf: KalmanEstimator
    rate_hz: float
    topology: MicrogridTopology


def _discretize(model, t_s: float, method: str):
    if method == "exact":
        return discretize_exact(model, t_s)
    if method == "euler":
        return discretize_euler(model, t_s)
    raise ValueError(f"unknown discretization method {method!r}")


def build_local_estimator(
    topology: MicrogridTopology,
    bus: int,
    noise: NoiseSpec,
    rate_hz: float,
    method: str = "exact",
) -> LocalEstimator:
    """Local estimator for one bus; its process noise is corrected for the
    configured input-measurement covariance ``noise.m``."""
    if not 1 <= bus <= topology.n_buses:
        raise ValueError(f"bus {bus} outside 1..{topology.n_buses}")
    model = build_dgu_model(topology.dgus[bus - 1], topology.omega, bus=bus)
    disc = _discretize(model, 1.0 / rate_hz, method)
    q_eff = effective_process_noise(noise.q, disc.b_d, noise.m)
    kf = KalmanEstimator(disc, q_eff=q_eff, r=noise.r)
    return LocalEstimator(bus=bus, kf=kf, rate_hz=rate_hz)


def local_posterior_covariance(est: LocalEstimator) -> np.ndarray:
    """Steady-state posterior covariance of a local estimator."""
    return steady_state_covariance(est.kf.model.a_d, est.kf.q_eff, est.kf.r)


def global_input_covariance(
    topology: MicrogridTopology, local_posteriors: Mapping[int, np.ndarray]
) -> np.ndarray:
    """Covariance of the stacked line input vector built from local voltage estimates.

    The voltage sub-blocks of the local posterior covariances combine
    through the transposed signed incidence (lines sharing a bus end up
    correlated).
    """
    g = np.kron(topology.incidence.T, np.eye(2))
    p_v = block_diagonal(
        [np.asarray(local_posteriors[b])[:2, :2] for b in range(1, topology.n_buses + 1)]
    )
    m = g @ p_v @ g.T
    return 0.5 * (m + m.T)


def build_global_estimator(
    topology: MicrogridTopology,
    q: np.ndarray,
    r: np.ndarray,
    rate_hz: float,
    input_covariance: np.ndarray,
    method: str = "exact",
) -> GlobalEstimator:
    """Global estimator over all line currents.

    ``q``/``r`` are per-line 2x2 blocks, tiled to every line; its process
    noise is corrected for ``input_covariance``, the stacked covariance of
    the bus-voltage-difference inputs (see ``global_input_covariance``).
    Raises ``ValueError`` for a grid without lines.
    """
    nl = topology.n_lines
    if nl == 0:
        raise ValueError("the global estimator needs at least one line; the grid has none")
    subs = [build_line_model(line, topology.omega) for line in topology.lines]
    a = block_diagonal([s.a for s in subs])
    b = block_diagonal([s.b for s in subs])
    state_labels = tuple(lab for s in subs for lab in s.state_labels)
    input_labels = tuple(lab for s in subs for lab in s.input_labels)
    model = ContinuousLtiModel(a, b, state_labels, input_labels)
    disc = _discretize(model, 1.0 / rate_hz, method)
    q_eff = effective_process_noise(block_diagonal([q] * nl), disc.b_d, input_covariance)
    kf = KalmanEstimator(disc, q_eff=q_eff, r=block_diagonal([r] * nl))
    return GlobalEstimator(kf=kf, rate_hz=rate_hz, topology=topology)


def _check_rate(trace_step: float, rate_hz: float, what: str) -> None:
    if abs(trace_step * rate_hz - 1.0) > 1e-9:
        raise ValueError(
            f"{what} runs at {rate_hz} Hz but the trace is sampled "
            f"every {trace_step} s"
        )


def _failure(what: str, t: np.ndarray, exc: CovarianceError) -> RuntimeError:
    k = exc.step
    return RuntimeError(f"{what}: filter failure at sample {k} (t={t[k]:.6f}s): {exc}")


def _local_name(est: LocalEstimator) -> str:
    return f"local estimator bus {est.bus}"


def run_local(
    est: LocalEstimator,
    trace: Trace,
    record: tuple[np.ndarray, np.ndarray] | None = None,
) -> EstimateTrace:
    """The estimates of one local estimator over the measured state/input
    channels of its bus.  ``record`` is the bus's (estimates, NIS) from
    ``run_locals``' stacked pass; without it the bus runs alone, as a
    stack of one."""
    if record is None:
        return run_locals([est], trace)[est.bus]
    x_hat, nis = record
    labels = tuple(trace.state_labels[c] for c in est.columns)
    return EstimateTrace(
        t=trace.t.copy(), t_step_s=trace.t_step_s, x_hat=x_hat, labels=labels, nis=nis
    )


def run_locals(estimators: list[LocalEstimator], trace: Trace) -> dict[int, EstimateTrace]:
    """Run independent local estimators; a bus's result depends on its own
    channels only.

    All buses run as one stack through ``kalman.filter_record``, which
    reads each bus's columns of the trace; ``run_local`` then wraps each
    bus's share.  Each filter converges at its own step and then repeats
    its last update, so a bus gets the same result, bit for bit, alone as
    in any batch.  If several buses fail, the one reported is the bus whose
    covariance fails at the earliest sample; of several failing at that
    sample, the first in ``estimators``.  The estimators are not changed,
    so running them again gives the same results.
    """
    if not estimators:
        return {}
    for est in estimators:
        _check_rate(trace.t_step_s, est.rate_hz, f"local estimator (bus {est.bus})")
    buses = np.array([est.bus for est in estimators])
    n_buses = int(buses.max())
    try:
        x_hat, nis = filter_record(
            [est.kf for est in estimators],
            bus_records(trace.z_state, n_buses),
            bus_records(trace.u_meas, n_buses),
            buses - 1,
        )
    except CovarianceError as exc:
        raise _failure(_local_name(estimators[exc.index]), trace.t, exc) from exc
    return {
        est.bus: run_local(est, trace, (x, n))
        for est, x, n in zip(estimators, x_hat, nis)
    }


def run_global(
    est: GlobalEstimator,
    bus_voltage_estimates: Mapping[int, EstimateTrace],
    line_current_trace: Trace,
) -> EstimateTrace:
    """Run the global estimator on line-current measurements with inputs
    assembled from per-line differences of the estimated bus voltages.

    All traces must be time-aligned at the global rate; no interpolation
    is performed.  The filter runs like a local one, as a gain schedule
    plus a state pass.
    """
    topo = est.topology
    nb = topo.n_buses
    trace_t = line_current_trace.t
    _check_rate(line_current_trace.t_step_s, est.rate_hz, "global estimator")
    for bus in range(1, nb + 1):
        if bus not in bus_voltage_estimates:
            raise ValueError(f"missing voltage estimates for bus {bus}")
        vt = bus_voltage_estimates[bus]
        if vt.t.shape != trace_t.shape or not np.array_equal(vt.t, trace_t):
            raise ValueError(
                f"bus {bus} voltage estimates are not time-aligned with the "
                "line-current measurements"
            )
    # index the bus voltages rather than multiply by the incidence, so that
    # a NaN voltage reaches only the lines at its own bus
    v = np.stack([bus_voltage_estimates[b].x_hat[:, 0:2] for b in range(1, nb + 1)], axis=1)
    frm = [line.from_bus - 1 for line in topo.lines]
    to = [line.to_bus - 1 for line in topo.lines]
    u = (v[:, frm] - v[:, to]).reshape(trace_t.shape[0], 2 * topo.n_lines)
    line_cols = topo.line_columns
    z = line_current_trace.z_state[:, line_cols]
    try:
        x_hat, nis = filter_record([est.kf], z[:, None], u[:, None])
    except CovarianceError as exc:
        raise _failure("global estimator", trace_t, exc) from exc
    labels = tuple(line_current_trace.state_labels[c] for c in line_cols)
    return EstimateTrace(
        t=trace_t.copy(),
        t_step_s=line_current_trace.t_step_s,
        x_hat=x_hat[0],
        labels=labels,
        nis=nis[0],
    )


def rmse(estimate: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-channel root-mean-square error plus the all-channel aggregate.

    Each channel's mean runs over its own samples alone, so a channel's
    RMSE does not depend on the other channels of the block."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    if estimate.ndim == 1:
        estimate = estimate[:, None]
        truth = truth[:, None]
    if estimate.shape[0] == 0:
        raise ValueError("empty traces")
    # channel-major, so that each channel's samples are one contiguous row
    sq = np.subtract(estimate.T, truth.T, order="C")
    np.square(sq, out=sq)
    return np.sqrt(sq.mean(axis=1)), float(np.sqrt(sq.mean()))


#: Error magnitude, in pre-event RMS units, below which a group has recovered.
RECOVERY_FACTOR = 3.0


def tracking_recovery_time(
    t: np.ndarray,
    errors: np.ndarray,
    pre_mask: np.ndarray,
    event_time: float,
    horizon_s: float,
) -> float | np.ndarray:
    """Seconds after ``event_time`` until the estimation error is back at its
    steady level.

    ``errors`` (N, C) holds the error of C channels per sample, or (N, G, C)
    those of G independent groups (one per bus, say), each scored on its
    own; the result is then an array of G times.  The per-channel errors
    are normalized by their RMS over the samples of ``pre_mask``, combined
    into one RMS magnitude per sample and group, and the recovery instant
    is the first time from which that magnitude stays below
    ``RECOVERY_FACTOR`` (3) for the rest of the horizon.  A group that
    never settles within the horizon gets ``inf``.  Raises ``ValueError``
    when the pre-event window holds no sample, when a channel has no error
    in it, or when the horizon holds no sample after the event's first.
    """
    t = np.asarray(t, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if not np.any(pre_mask):
        raise ValueError("pre-event window holds no samples")
    pre = errors[pre_mask]
    sigma = np.sqrt(np.square(pre, out=pre).mean(axis=0))
    if (sigma <= 0.0).any():
        raise ValueError("pre-event window has zero error variance on some channel")
    post = (t >= event_time) & (t <= event_time + horizon_s)
    if np.count_nonzero(post) < 2:
        raise ValueError("recovery horizon holds no sample after the event's first")
    scaled = errors[post]
    scaled /= sigma
    norm = np.sqrt(np.square(scaled, out=scaled).mean(axis=-1))
    above = norm >= RECOVERY_FACTOR
    n_post = norm.shape[0]
    # the sample after each group's last one above the factor; 0 for none
    settled = np.where(above.any(axis=0), n_post - np.argmax(above[::-1], axis=0), 0)
    t_post = t[post]
    out = np.where(
        settled >= n_post,
        np.inf,
        np.where(settled == 0, 0.0, t_post[np.minimum(settled, n_post - 1)] - event_time),
    )
    return float(out) if out.ndim == 0 else out
