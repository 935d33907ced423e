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
computes the schedules of all its buses as one stack
(``kalman.schedules_of``) and then runs each bus's state pass through
``run_local``; the global filter, and a bus run alone, are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .discretize import discretize_euler, discretize_exact
from .kalman import (
    CovarianceError,
    GainSchedule,
    KalmanEstimator,
    NoiseSpec,
    effective_process_noise,
    filter_record,
    schedules_of,
    steady_state_covariance,
)
from .models import (
    ContinuousLtiModel,
    MicrogridTopology,
    build_dgu_model,
    block_diagonal,
    build_line_model,
    bus_columns,
)
from .sim import Trace, downsample


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
    configured input-measurement covariance."""
    if not 1 <= bus <= topology.n_buses:
        raise ValueError(f"bus {bus} outside 1..{topology.n_buses}")
    model = build_dgu_model(topology.dgus[bus - 1], topology.omega, bus=bus)
    disc = _discretize(model, 1.0 / rate_hz, method)
    return LocalEstimator(bus=bus, kf=KalmanEstimator(disc, noise=noise), rate_hz=rate_hz)


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

    ``q``/``r`` are either per-line 2x2 blocks (tiled to every line) or
    full stacked matrices; ``input_covariance`` is the stacked covariance
    of the bus-voltage-difference inputs, see ``global_input_covariance``.
    """
    nl = topology.n_lines
    subs = [build_line_model(line, topology.omega) for line in topology.lines]
    a = block_diagonal([s.a for s in subs])
    b = block_diagonal([s.b for s in subs])
    state_labels = tuple(lab for s in subs for lab in s.state_labels)
    input_labels = tuple(lab for s in subs for lab in s.input_labels)
    model = ContinuousLtiModel(a, b, state_labels, input_labels)
    disc = _discretize(model, 1.0 / rate_hz, method)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if q.shape == (2, 2):
        q = block_diagonal([q] * nl)
    if r.shape == (2, 2):
        r = block_diagonal([r] * nl)
    q_eff = effective_process_noise(q, disc.b_d, input_covariance)
    return GlobalEstimator(
        kf=KalmanEstimator(disc, q_eff=q_eff, r=r), rate_hz=rate_hz, topology=topology
    )


def _check_rate(trace_step: float, rate_hz: float, what: str) -> None:
    if abs(trace_step * rate_hz - 1.0) > 1e-9:
        raise ValueError(
            f"{what} runs at {rate_hz} Hz but the trace is sampled "
            f"every {trace_step} s"
        )


def _failure(what: str, t: np.ndarray, exc: CovarianceError) -> RuntimeError:
    k = exc.step
    return RuntimeError(f"{what}: filter failure at sample {k} (t={t[k]:.6f}s): {exc}")


def _estimate(
    kf: KalmanEstimator, t, z, u, labels, t_step, what: str, schedule=None
) -> EstimateTrace:
    """Run ``kf`` over a record through ``kalman.filter_record``: sample 0
    initializes from the measurement, then each sample k predicts with the
    input recorded at k-1 (the value held over the preceding interval) and
    updates with the measurement at k."""
    try:
        x_hat, nis = filter_record(kf, z, u, schedule)
    except CovarianceError as exc:
        raise _failure(what, t, exc) from exc
    return EstimateTrace(t=t.copy(), t_step_s=t_step, x_hat=x_hat, labels=labels, nis=nis)


def _local_name(est: LocalEstimator) -> str:
    return f"local estimator bus {est.bus}"


def run_local(
    est: LocalEstimator, trace: Trace, schedule: GainSchedule | None = None
) -> EstimateTrace:
    """Run one local estimator over the measured state/input channels of its
    bus.  ``schedule`` is its gain schedule from ``run_locals``' stack;
    without it the bus runs alone, as a stack of one."""
    _check_rate(trace.t_step_s, est.rate_hz, f"local estimator (bus {est.bus})")
    cols = est.columns
    z = trace.z_state[:, cols]
    u = trace.u_meas[:, cols]
    labels = tuple(trace.state_labels[c] for c in cols)
    return _estimate(
        est.kf, trace.t, z, u, labels, trace.t_step_s, _local_name(est), schedule
    )


def run_locals(estimators: list[LocalEstimator], trace: Trace) -> dict[int, EstimateTrace]:
    """Run independent local estimators; a bus's result depends on its own
    channels only.

    The covariance layers of all buses run as one stack
    (``kalman.schedules_of``), then each bus's state pass runs through
    ``run_local`` with its own schedule.  Each filter leaves the stack at
    its own convergence step, so a bus gets the same result, bit for bit,
    alone as in any batch.  If several buses fail, the one reported is the
    bus whose covariance fails at the earliest sample; of several failing
    at that sample, the first in ``estimators``.

    Estimators are stateful, so pass freshly built instances.
    """
    if not estimators:
        return {}
    for est in estimators:
        _check_rate(trace.t_step_s, est.rate_hz, f"local estimator (bus {est.bus})")
    try:
        schedules = schedules_of([est.kf for est in estimators], len(trace) - 1)
    except CovarianceError as exc:
        raise _failure(_local_name(estimators[exc.index]), trace.t, exc) from exc
    return {
        est.bus: run_local(est, trace, schedule)
        for est, schedule in zip(estimators, schedules)
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
    labels = tuple(line_current_trace.state_labels[c] for c in line_cols)
    return _estimate(
        est.kf, trace_t, z, u, labels, line_current_trace.t_step_s, "global estimator"
    )


def rmse(estimate: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-channel root-mean-square error plus the all-channel aggregate."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    if estimate.ndim == 1:
        estimate = estimate[:, None]
        truth = truth[:, None]
    if estimate.shape[0] == 0:
        raise ValueError("empty traces")
    sq = np.square(estimate - truth)
    return np.sqrt(sq.mean(axis=0)), float(np.sqrt(sq.mean()))


def tracking_recovery_time(
    t: np.ndarray,
    errors: np.ndarray,
    pre_mask: np.ndarray,
    event_time: float,
    horizon_s: float,
    factor: float = 3.0,
) -> float:
    """Seconds after ``event_time`` until the estimation error is back at its
    steady level.

    The per-channel errors are normalized by their pre-event RMS, combined
    into one RMS magnitude per sample, and the recovery instant is the
    first time from which that magnitude stays below ``factor`` for the
    rest of the horizon.  Returns ``inf`` when it never settles within the
    horizon.
    """
    t = np.asarray(t, dtype=float)
    errors = np.asarray(errors, dtype=float)
    sigma = np.sqrt(np.square(errors[pre_mask]).mean(axis=0))
    if (sigma <= 0.0).any():
        raise ValueError("pre-event window has zero error variance on some channel")
    post = (t >= event_time) & (t <= event_time + horizon_s)
    if not post.any():
        raise ValueError("no samples inside the recovery horizon")
    norm = np.sqrt(np.square(errors[post] / sigma).mean(axis=1))
    above = norm >= factor
    if not above.any():
        return 0.0
    last_above = np.flatnonzero(above)[-1]
    if last_above + 1 >= norm.shape[0]:
        return float("inf")
    t_post = t[post]
    return float(t_post[last_above + 1] - event_time)
