"""Ground-truth simulator for the coupled microgrid plant.

Integrates the coupled LTI model with exact (zero-order-hold)
discretization at the plant step, regulates each DGU terminal voltage
with a PI law, applies scheduled load-step events, and attaches seeded
measurement/input noise to the recorded streams.  Same config and seed
always reproduce bit-identical traces.

Plant plus PI regulator is one linear system over xi = [plant states,
integrators d, q], and ``_closed_loop`` builds it once, the one home of
the regulator law: xi_{k+1} = A_cl xi_k + G e_k, with the droop-shifted
reference and the loads as exogenous inputs e_k and the process noise
added on the plant rows, and the raw regulator output read off xi by
``_raw_output``.  ``run_plant`` runs that recursion over the record in
segments of blocks (``kalman._linear_recursion``).  From the first
sample where the raw output reaches the clamp it steps the rest of the
record per sample through the same matrices, with the clip and the
conditional anti-windup applied on top (``_step_saturated``).
``closed_loop_matrix`` returns A_cl for the stability check.  An
equilibrium start is the fixed point of the same recursion under the
first sample's inputs (``regulated_equilibrium``), with or without a
controller, so the operating point is never derived apart from the
matrices the run steps through.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discretize import DiscreteLtiModel, discretize_exact
from .kalman import _BLOCK, NoiseSpec, _linear_recursion
from .models import (
    ContinuousLtiModel,
    MicrogridTopology,
    build_coupled_plant,
    bus_records,
    input_record_labels,
)


class SimulationDivergedError(RuntimeError):
    """Raised when the integrated state leaves the plausible range."""


@dataclass(frozen=True)
class LoadStep:
    """Step change of one bus's constant-current dq load."""

    time_s: float
    bus: int
    delta_d: float
    delta_q: float

    def __post_init__(self):
        if self.time_s < 0.0 or not np.isfinite(self.time_s):
            raise ValueError("event time must be finite and non-negative")
        if self.bus < 1:
            raise ValueError("bus indices are 1-based")
        for name in ("delta_d", "delta_q"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"load step {name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class EventSchedule:
    steps: tuple[LoadStep, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        times = [s.time_s for s in self.steps]
        if any(b >= a for a, b in zip(times[1:], times)):
            raise ValueError("event times must be strictly increasing")

    @property
    def last_time(self) -> float:
        return self.steps[-1].time_s if self.steps else 0.0


#: The regulator's outputs clamp at this multiple of the base reference.
V_MAX_SCALE = 2.0


@dataclass(frozen=True)
class RegulatorConfig:
    """Gains and references of the per-DGU terminal-voltage regulator."""

    kp: float
    ki: float  # 1/s
    virtual_resistance: float  # ohm; damps the LC resonance
    droop: float  # V per A of bus output d-current
    reference: np.ndarray  # per-bus d-axis voltage amplitude, V

    def __post_init__(self):
        object.__setattr__(self, "reference", np.asarray(self.reference, dtype=float))
        # chained comparisons are false for NaN
        for name in ("kp", "ki"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(
                    f"{name} must be finite and strictly positive, got {getattr(self, name)!r}"
                )
        for name in ("virtual_resistance", "droop"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {getattr(self, name)!r}"
                )
        ref = self.reference
        if ref.ndim != 1 or not (np.isfinite(ref) & (ref > 0.0)).all():
            raise ValueError("reference must be a 1-D array of finite positive voltages")


@dataclass(frozen=True)
class SimNoise:
    """Per-subsystem noise specs: 4-channel DGU blocks, 2-channel line blocks.

    ``dgu.q``/``line.q`` are process covariances injected into the truth,
    ``dgu.r``/``line.r`` measurement covariances on the recorded states,
    and ``dgu.m`` the covariance of the measured DGU input channels.
    """

    dgu: NoiseSpec
    line: NoiseSpec

    def __post_init__(self):
        if self.dgu.q.shape != (4, 4) or self.dgu.m.shape != (4, 4):
            raise ValueError("DGU noise spec must be 4-channel")
        if self.line.q.shape != (2, 2):
            raise ValueError("line noise spec must be 2-channel")

    @classmethod
    def zero(cls) -> "SimNoise":
        z4 = np.zeros((4, 4))
        z2 = np.zeros((2, 2))
        return cls(dgu=NoiseSpec(z4, z4, z4), line=NoiseSpec(z2, z2, z2))


@dataclass(frozen=True)
class SimConfig:
    topology: MicrogridTopology
    duration_s: float
    plant_step_s: float
    seed: int
    initial_loads: np.ndarray  # (n_buses, 2) dq amperes
    events: EventSchedule = EventSchedule()
    noise: SimNoise | None = None
    controller: RegulatorConfig | None = None
    fixed_terminal_voltage: np.ndarray | None = None  # (n_buses, 2), used when controller is None
    start: str = "equilibrium"

    def __post_init__(self):
        nb = self.topology.n_buses
        object.__setattr__(
            self, "initial_loads", np.asarray(self.initial_loads, dtype=float)
        )
        if self.noise is None:
            object.__setattr__(self, "noise", SimNoise.zero())
        # chained comparisons are false for NaN
        for name in ("plant_step_s", "duration_s"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(
                    f"{name} must be finite and positive, got {getattr(self, name)!r}"
                )
        steps = self.duration_s / self.plant_step_s
        if steps < 1 - 1e-9 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"duration_s {self.duration_s!r} is not a whole number "
                f"of plant_step_s {self.plant_step_s!r}"
            )
        if self.duration_s < self.events.last_time:
            raise ValueError("duration must cover the latest scheduled event")
        if self.initial_loads.shape != (nb, 2):
            raise ValueError(f"initial_loads must have shape ({nb}, 2)")
        if not np.isfinite(self.initial_loads).all():
            raise ValueError("initial_loads must be finite")
        for ev in self.events.steps:
            if ev.bus > nb:
                raise ValueError(f"event bus {ev.bus} outside 1..{nb}")
        if self.start not in ("equilibrium", "zero"):
            raise ValueError("start must be 'equilibrium' or 'zero'")
        if self.controller is not None:
            if self.controller.reference.shape != (nb,):
                raise ValueError(f"controller reference must have shape ({nb},)")
        else:
            vt = self.fixed_terminal_voltage
            vt = np.zeros((nb, 2)) if vt is None else np.asarray(vt, dtype=float)
            if vt.shape != (nb, 2):
                raise ValueError(f"fixed_terminal_voltage must have shape ({nb}, 2)")
            if not np.isfinite(vt).all():
                raise ValueError("fixed_terminal_voltage must be finite")
            object.__setattr__(self, "fixed_terminal_voltage", vt)


@dataclass(frozen=True)
class Trace:
    """Column-aligned arrays over time, one row per sample.

    ``u_true``/``u_meas`` hold the per-DGU measured-input channels
    [v_td, v_tq, i_od, i_oq] per bus, which is what the local estimators
    consume; the plant-level load inputs are internal to the simulator.
    """

    t: np.ndarray
    t_step_s: float
    x_true: np.ndarray
    z_state: np.ndarray
    u_true: np.ndarray
    u_meas: np.ndarray
    state_labels: tuple[str, ...]
    input_labels: tuple[str, ...]

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def rate_hz(self) -> float:
        return 1.0 / self.t_step_s


def downsample(trace, target_rate_hz: float):
    """Keep every k-th record so that the result is sampled at ``target_rate_hz``.

    No interpolation: the target rate must divide the trace rate.  Works
    on any trace-like dataclass with a ``t_step_s`` field and arrays whose
    leading axis is time.
    """
    rate = 1.0 / trace.t_step_s
    factor = rate / target_rate_hz
    k = int(round(factor))
    if k < 1 or abs(factor - k) > 1e-6 * max(1.0, factor):
        raise ValueError(
            f"target rate {target_rate_hz!r} Hz does not divide the trace rate {rate!r} Hz"
        )
    if k == 1:
        return dataclasses.replace(trace)
    n = trace.t.shape[0]
    updates = {"t_step_s": trace.t_step_s * k}
    for f in dataclasses.fields(trace):
        v = getattr(trace, f.name)
        if isinstance(v, np.ndarray) and v.ndim >= 1 and v.shape[0] == n:
            updates[f.name] = v[::k].copy()
    return dataclasses.replace(trace, **updates)


def _covariance_factor(cov: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = cov, valid for singular PSD matrices."""
    w, v = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def _output_current_map(topology: MicrogridTopology) -> np.ndarray:
    """Maps the plant state to stacked per-bus line outflow [d, q interleaved]."""
    io = np.zeros((2 * topology.n_buses, 4 * topology.n_buses + 2 * topology.n_lines))
    io[:, topology.line_columns] = np.kron(topology.incidence, np.eye(2))
    return io


class _Loop(NamedTuple):
    """The simulated plant as the linear recursion xi_{k+1} = a xi_k + g e_k.

    ``xi`` stacks the plant state and, under a controller, the regulator's
    d and q integrators.  ``e_k`` stacks sample k's exogenous inputs: the
    droop-shifted d reference per bus under a controller (the fixed
    terminal voltages [d..., q...] without one), then the loads [d, q
    interleaved per bus].  Under a controller ``r`` gives the regulator
    output before its clamp (``_raw_output``); without one it is None.
    """

    model: ContinuousLtiModel
    disc: DiscreteLtiModel
    a: np.ndarray
    g: np.ndarray
    r: np.ndarray | None


def _closed_loop(cfg: SimConfig) -> _Loop:
    """Plant plus PI regulator, from one exact discretization of the
    coupled plant: the regulator law while its output is inside the
    clamp, and the base that ``_step_saturated`` clips."""
    topo = cfg.topology
    nb = topo.n_buses
    model = build_coupled_plant(topo)
    disc = discretize_exact(model, cfg.plant_step_s)
    b_vtd = disc.b_d[:, 0 : 2 * nb : 2]
    b_vtq = disc.b_d[:, 1 : 2 * nb : 2]
    b_load = disc.b_d[:, 2 * nb :]
    ctl = cfg.controller
    if ctl is None:
        return _Loop(model, disc, disc.a_d, np.hstack([b_vtd, b_vtq, b_load]), None)
    n = model.n_states
    # rows of the identity that select v_d, v_q, i_td and i_tq, (nb, n) each
    sel_vd, sel_vq, sel_itd, sel_itq = bus_records(np.eye(n), nb).T
    # the bus output d-current lowers the reference through the droop
    e_xd = -ctl.droop * _output_current_map(topo)[0::2] - sel_vd
    e_xq = -sel_vq
    vx_d = (1.0 + ctl.kp) * e_xd + sel_vd - ctl.virtual_resistance * sel_itd
    vx_q = ctl.kp * e_xq - ctl.virtual_resistance * sel_itq
    m = n + 2 * nb
    a = np.zeros((m, m))
    a[:n, :n] = disc.a_d + b_vtd @ vx_d + b_vtq @ vx_q
    a[:n, n : n + nb] = ctl.ki * b_vtd
    a[:n, n + nb :] = ctl.ki * b_vtq
    a[n : n + nb, :n] = cfg.plant_step_s * e_xd
    a[n : n + nb, n : n + nb] = np.eye(nb)
    a[n + nb :, :n] = cfg.plant_step_s * e_xq
    a[n + nb :, n + nb :] = np.eye(nb)
    g = np.zeros((m, 3 * nb))
    g[:n, :nb] = (1.0 + ctl.kp) * b_vtd
    g[:n, nb:] = b_load
    g[n : n + nb, :nb] = cfg.plant_step_s * np.eye(nb)
    r = np.zeros((2 * nb, m))
    r[:nb, :n] = vx_d
    r[:nb, n : n + nb] = ctl.ki * np.eye(nb)
    r[nb:, :n] = vx_q
    r[nb:, n + nb :] = ctl.ki * np.eye(nb)
    return _Loop(model, disc, a, g, r)


def _raw_output(loop: _Loop, ctl: RegulatorConfig, xi: np.ndarray, ref: np.ndarray):
    """Regulator output [v_td...; v_tq...] before its clamp, for closed-loop
    states ``xi`` (one, or one per row) and their droop-shifted d
    references ``ref``: ``r xi`` plus ``(1 + kp)`` times the reference on
    the d rows."""
    v_t = xi @ loop.r.T
    v_t[..., : ref.shape[-1]] += (1.0 + ctl.kp) * ref
    return v_t


def closed_loop_matrix(cfg: SimConfig) -> np.ndarray:
    """Discrete closed-loop matrix over [plant states, integrators d, q].

    Linear regime only (clamp and anti-windup ignored); its spectral
    radius must be below one for the regulated plant to be stable.
    """
    if cfg.controller is None:
        raise ValueError("closed_loop_matrix requires a controller")
    return _closed_loop(cfg).a


def regulated_equilibrium(loop: _Loop, e0: np.ndarray) -> np.ndarray:
    """Operating point of ``loop`` under the constant exogenous inputs
    ``e0``: the fixed point xi = a xi + g e0, so the plant states plus,
    under a controller, the integrators.  I - a is invertible for every
    loop ``_truth`` runs: a closed loop passes the spectral-radius check
    first, and ``discretize_exact`` rejects an open loop's singular A."""
    return np.linalg.solve(np.eye(loop.a.shape[0]) - loop.a, loop.g @ e0)


def _add_noise(rng, out: np.ndarray, topology, dgu_cov, line_cov=None) -> None:
    """Add one draw per row of ``out`` to each block of its columns, in the
    fixed order: DGU blocks bus by bus, then (given ``line_cov``) line
    blocks, as one block-major draw per kind of block.  This order is the
    draw order of every noise stream."""
    rows, nl = out.shape[0], topology.n_lines
    kinds = [(bus_records(out, topology.n_buses), dgu_cov)]
    if line_cov is not None and nl:
        lc = topology.line_columns
        kinds.append((out[:, lc[0] : lc[-1] + 1].reshape(rows, nl, 2), line_cov))
    for blocks, cov in kinds:
        draw = rng.standard_normal((blocks.shape[1], rows, blocks.shape[2]))
        if cov.any():
            blocks += (draw @ _covariance_factor(cov).T).transpose(1, 0, 2)


def _diverged(t_k: float, guard: float) -> SimulationDivergedError:
    return SimulationDivergedError(
        f"simulation diverged at t={t_k:.6f}s: "
        f"|state| exceeded 1e6 x nominal ({guard:.3e})"
    )


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of ``mask``, or its length."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.shape[0]


#: Closed-loop state values held at once while a record runs (2 MiB).
_SEGMENT_VALUES = 2**18


def _step_saturated(cfg, loop, k0, xi, exo, x_true, u_true, guard, t) -> None:
    """Step the record from sample ``k0``, whose closed-loop state is
    ``xi``, one sample at a time through the closed-loop matrices with
    the clamp applied: the plant gets the clipped output, through the
    correction ``B_vt (out - raw)``, and an integrator whose output is
    clipped keeps its value while its step pushes the output further out
    (conditional anti-windup).  Row k + 1 of ``x_true`` holds step k's
    process noise until it is overwritten with the state."""
    ctl = cfg.controller
    nb = cfg.topology.n_buses
    n = loop.model.n_states
    steps = x_true.shape[0] - 1
    vmax = np.tile(V_MAX_SCALE * ctl.reference, 2)
    b_vt = loop.disc.b_d[:, np.r_[0 : 2 * nb : 2, 1 : 2 * nb : 2]]
    v_t = bus_records(u_true, nb)[:, :, :2]
    for k in range(k0, steps + 1):
        raw = _raw_output(loop, ctl, xi, exo[k, :nb])
        out = np.clip(raw, -vmax, vmax)
        v_t[k] = out.reshape(2, nb).T
        if k == steps:
            break
        nxt = loop.a @ xi + loop.g @ exo[k]
        nxt[:n] += x_true[k + 1] + b_vt @ (out - raw)
        push = nxt[n:] - xi[n:]
        hold = ((raw > vmax) & (push > 0)) | ((raw < -vmax) & (push < 0))
        nxt[n:][hold] = xi[n:][hold]
        if not (np.abs(nxt[:n]) <= guard).all():
            raise _diverged(t[k + 1], guard)
        x_true[k + 1] = nxt[:n]
        xi = nxt


def _truth(cfg: SimConfig, loop: _Loop, t: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """The true plant states and DGU inputs of every sample, with the
    process noise drawn from ``rng``.  Raises on an unstable closed loop,
    on an equilibrium start outside the regulator clamp and on divergence.

    The linear pass runs a whole number of ``_BLOCK``-sample blocks at a
    time, as many as fit in ``_SEGMENT_VALUES``, so the state with its
    integrators is never held for the whole record.  It stops at the
    first sample whose regulator output reaches the clamp."""
    topo = cfg.topology
    nb = topo.n_buses
    ctl = cfg.controller
    n = loop.model.n_states
    n_rec = t.shape[0]
    steps = n_rec - 1

    # exogenous inputs per sample; loads are piecewise constant
    head = nb if ctl is not None else 2 * nb
    exo = np.empty((n_rec, head + 2 * nb))
    loads = exo[:, head:]
    loads[:] = cfg.initial_loads.reshape(-1)
    for ev in cfg.events.steps:
        ke = int(np.searchsorted(t, ev.time_s - 1e-12))
        loads.reshape(n_rec, nb, 2)[ke:, ev.bus - 1] += (ev.delta_d, ev.delta_q)
    if ctl is not None:
        rho = float(np.abs(np.linalg.eigvals(loop.a)).max())
        if rho >= 1.0:
            raise ValueError(
                f"configured controller yields an unstable closed loop "
                f"(spectral radius {rho:.6f})"
            )
        exo[:, :nb] = ctl.reference - ctl.droop * loads[:, 0::2]
    else:
        exo[:, : 2 * nb] = cfg.fixed_terminal_voltage.T.ravel()

    xi0 = np.zeros(loop.a.shape[0])
    if cfg.start == "equilibrium":
        xi0[:] = regulated_equilibrium(loop, exo[0])

    # until the pass reaches it, row k + 1 holds step k's process noise
    x_true = np.zeros((n_rec, n))
    x_true[0] = xi0[:n]
    _add_noise(rng, x_true[1:], topo, cfg.noise.dgu.q, cfg.noise.line.q)
    u_true = np.empty((n_rec, 4 * nb))
    dgu_inputs = bus_records(u_true, nb)
    if ctl is not None:
        nominal = max(1.0, float(ctl.reference.max()))
        vmax = np.tile(V_MAX_SCALE * ctl.reference, 2)
    else:
        nominal = max(
            1.0,
            float(np.abs(xi0).max()),
            float(np.abs(cfg.fixed_terminal_voltage).max()),
            float(np.abs(loads).max()),
        )
        dgu_inputs[:, :, :2] = cfg.fixed_terminal_voltage
    guard = 1e6 * nominal

    def clamp_free(xi: np.ndarray, k: int) -> int:
        """Write the regulator outputs of samples k.. from their states
        ``xi``; returns how many of them stay inside the clamp."""
        if ctl is None:
            return xi.shape[0]
        v_t = _raw_output(loop, ctl, xi, exo[k : k + xi.shape[0], :nb])
        dgu_inputs[k : k + xi.shape[0], :, :2] = v_t.reshape(-1, 2, nb).swapaxes(1, 2)
        return _first((np.abs(v_t) > vmax).any(axis=1))

    m = xi0.shape[0]
    segment = max(1, _SEGMENT_VALUES // (m * _BLOCK)) * _BLOCK
    # the recursion runs on a stack of one system; one power for every
    # segment of a long record
    a_stack = loop.a[None]
    a_block = np.linalg.matrix_power(a_stack, _BLOCK) if steps > segment else None
    buf = np.empty((min(steps, segment) + 1, m))
    buf[0] = xi0
    saturated = None if clamp_free(buf[:1], 0) else 0
    if saturated is not None and cfg.start == "equilibrium":
        raise ValueError("equilibrium terminal voltage exceeds the regulator clamp")
    a = 0
    while saturated is None and a < steps:
        rows = min(segment, steps - a)
        xi = buf[: rows + 1]
        np.matmul(exo[a : a + rows], loop.g.T, out=xi[1:])
        xi[1:, :n] += x_true[a + 1 : a + 1 + rows]
        _linear_recursion(a_stack, xi[:1], xi[None, 1:], a_block)
        x = xi[1:, :n]
        # NaN-safe: a state that is not finite trips the guard as well
        tripped = _first(~((x.max(axis=1) <= guard) & (x.min(axis=1) >= -guard)))
        free = clamp_free(xi[1:], a + 1)
        if tripped <= free and tripped < rows:
            raise _diverged(t[a + 1 + tripped], guard)
        valid = min(free + 1, rows)
        x_true[a + 1 : a + 1 + valid] = x[:valid]
        if free < rows:
            saturated = a + 1 + free
            buf[0] = xi[1 + free]
        else:
            buf[0] = xi[-1]
        a += rows
    if saturated is not None:
        _step_saturated(cfg, loop, saturated, buf[0], exo, x_true, u_true, guard, t)

    io = x_true @ _output_current_map(topo).T + loads
    dgu_inputs[:, :, 2:] = io.reshape(n_rec, nb, 2)
    return x_true, u_true


def sample_times(n: int, step_s: float) -> np.ndarray:
    """``n`` sample times at ``step_s``, rounded to the trace CSVs' 9 decimals."""
    return np.round(np.arange(n) * step_s, 9)


def run_plant(cfg: SimConfig) -> Trace:
    """Simulate the configured scenario; deterministic given the seed.

    The plant with its regulator runs as one linear recursion over the
    whole record.  From the first sample where the regulator output
    reaches its clamp, the rest of the record is stepped sample by sample
    through the same closed-loop matrices, with the clip and the
    conditional anti-windup applied on top.  A state beyond
    1e6 x nominal (or not finite) raises ``SimulationDivergedError`` naming
    its time.

    Noise streams are drawn in a fixed order (process, state measurement,
    input measurement) so that configs differing only in noise magnitudes
    share the underlying standard-normal draws.
    """
    loop = _closed_loop(cfg)
    dt = cfg.plant_step_s
    n_rec = int(round(cfg.duration_s / dt)) + 1
    t = sample_times(n_rec, dt)
    rng = np.random.default_rng(cfg.seed)
    x_true, u_true = _truth(cfg, loop, t, rng)

    noise = cfg.noise
    z_state = x_true.copy()
    _add_noise(rng, z_state, cfg.topology, noise.dgu.r, noise.line.r)
    u_meas = u_true.copy()
    _add_noise(rng, u_meas, cfg.topology, noise.dgu.m)
    return Trace(
        t=t,
        t_step_s=dt,
        x_true=x_true,
        z_state=z_state,
        u_true=u_true,
        u_meas=u_meas,
        state_labels=loop.model.state_labels,
        input_labels=input_record_labels(cfg.topology.n_buses),
    )
