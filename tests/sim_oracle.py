"""Per-sample reference simulator: ``run_plant`` as one Python loop.

Each sample evaluates the plant matvec, ``VoltageRegulator.step``, the
output-current map and the divergence guard in turn.  It is the oracle
for ``microdse.sim.run_plant``, whose regulator law lives only in the
closed-loop matrices of ``sim._closed_loop``: ``VoltageRegulator`` writes
the same law, clip and conditional anti-windup per sample from the bus
quantities, independently of those matrices.  Its equilibrium start is
derived by hand from the steady-state circuit relations
(``regulated_equilibrium`` here), where the simulator solves for its
loop's fixed point.  ``steady_state_residual_dgu``/``_line`` write the
same relations as residuals, which check operating points solved from
the models of ``microdse.models``.  The two simulators must agree to
rounding, draw the same noise in the same order and stop at the same
sample.
"""

from __future__ import annotations

import numpy as np

from microdse import sim
from microdse.discretize import discretize_exact
from microdse.models import (
    DguParams,
    LineParams,
    MicrogridTopology,
    build_coupled_plant,
    dgu_input_labels,
)
from microdse.sim import (
    RegulatorConfig,
    SimConfig,
    SimulationDivergedError,
    Trace,
    _covariance_factor,
    _output_current_map,
    closed_loop_matrix,
)


def bus_channel_columns(nb: int) -> np.ndarray:
    """Plant-state columns of v_d, v_q, i_td and i_tq (rows) of buses
    1..``nb`` (columns): four columns per bus, bus by bus."""
    return 4 * np.arange(nb) + np.arange(4)[:, None]


def regulated_equilibrium(
    topology: MicrogridTopology, controller: RegulatorConfig, loads: np.ndarray
):
    """Closed-loop operating point for given per-bus dq loads.

    Solved from the steady-state circuit relations with every bus voltage
    pinned at its (droop-shifted) reference and v_q at zero.  Returns
    ``(x, integ_d, integ_q, v_t)`` where ``x`` is the plant state and the
    integrator values make the regulator reproduce ``v_t`` exactly.
    """
    nb = topology.n_buses
    omega = topology.omega
    loads = np.asarray(loads, dtype=float)
    inc = topology.incidence
    r_line = np.array([ln.r for ln in topology.lines])
    l_line = np.array([ln.l for ln in topology.lines])
    z2 = r_line**2 + (omega * l_line) ** 2
    g_d = r_line / z2
    g_q = -omega * l_line / z2
    kd = controller.droop
    lhs = np.eye(nb) + kd * (inc * g_d) @ inc.T
    v_d = np.linalg.solve(lhs, controller.reference - kd * loads[:, 0])
    dv = inc.T @ v_d  # per-line endpoint difference
    i_line_d = g_d * dv
    i_line_q = g_q * dv
    i_od = loads[:, 0] + inc @ i_line_d
    i_oq = loads[:, 1] + inc @ i_line_q
    c_t = np.array([d.c_t for d in topology.dgus])
    r_t = np.array([d.r_t for d in topology.dgus])
    l_t = np.array([d.l_t for d in topology.dgus])
    i_td = i_od  # v_q = 0 removes the capacitor d-axis term
    i_tq = i_oq + omega * c_t * v_d
    v_td = v_d + r_t * i_td - omega * l_t * i_tq
    v_tq = r_t * i_tq + omega * l_t * i_td
    vmax = sim.V_MAX_SCALE * controller.reference
    if (np.abs(v_td) > vmax).any() or (np.abs(v_tq) > vmax).any():
        raise ValueError("equilibrium terminal voltage exceeds the regulator clamp")
    ref_d = controller.reference - kd * i_od
    integ_d = (v_td - ref_d + controller.virtual_resistance * i_td) / controller.ki
    integ_q = (v_tq + controller.virtual_resistance * i_tq) / controller.ki
    idx_vd, _, idx_itd, idx_itq = bus_channel_columns(nb)
    lines = topology.line_columns
    x = np.zeros(4 * nb + lines.size)
    x[idx_vd] = v_d
    x[idx_itd] = i_td
    x[idx_itq] = i_tq
    x[lines[0::2]] = i_line_d
    x[lines[1::2]] = i_line_q
    return x, integ_d, integ_q, np.column_stack([v_td, v_tq])


def steady_state_residual_dgu(
    x: np.ndarray, u: np.ndarray, p: DguParams, omega: float
) -> np.ndarray:
    """Residuals of the DGU steady-state relations at the state
    [v_d, v_q, i_td, i_tq] and input [v_td, v_tq, i_od, i_oq]; zero iff
    (x, u) is an equilibrium.  Components: the series-branch voltage
    balance (d, q), then the capacitor current balance (d, q)."""
    v_d, v_q, i_td, i_tq = x
    v_td, v_tq, i_od, i_oq = u
    wl = omega * p.l_t
    wc = omega * p.c_t
    return np.array(
        [
            v_td - v_d - p.r_t * i_td + wl * i_tq,
            v_tq - v_q - p.r_t * i_tq - wl * i_td,
            i_td - i_od + wc * v_q,
            i_tq - i_oq - wc * v_d,
        ]
    )


def steady_state_residual_line(
    i: np.ndarray, v_i: np.ndarray, v_j: np.ndarray, p: LineParams, omega: float
) -> np.ndarray:
    """Residual of the line steady-state relation for the current [i_d, i_q]
    between endpoint voltages ``v_i`` and ``v_j`` (each [d, q]); zero iff
    the current balances the voltage drop."""
    wl = omega * p.l
    dv = v_i - v_j
    return np.array([dv[0] - p.r * i[0] + wl * i[1], dv[1] - p.r * i[1] - wl * i[0]])


class VoltageRegulator:
    """Discrete PI regulator holding each bus at (reference, 0) in dq.

    A virtual-resistance term on the filter current damps the otherwise
    nearly undamped LC resonance, and an optional droop term lowers the
    d-axis reference in proportion to the bus output current so that load
    changes shift the steady-state line flows.  Outputs clamp at
    ``sim.V_MAX_SCALE`` times the base reference with conditional anti-windup.
    """

    def __init__(self, config: RegulatorConfig, dt: float, n_units: int):
        if config.reference.shape != (n_units,):
            raise ValueError(
                f"reference must have one entry per unit ({n_units}), "
                f"got shape {config.reference.shape}"
            )
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.config = config
        self.dt = dt
        self.integ_d = np.zeros(n_units)
        self.integ_q = np.zeros(n_units)

    def step(self, v_d, v_q, i_td, i_tq, i_od=None):
        """One control update from the current bus state; returns (v_td, v_tq)."""
        cfg = self.config
        ref = cfg.reference
        if i_od is not None and cfg.droop != 0.0:
            ref = ref - cfg.droop * np.asarray(i_od)
        e_d = ref - v_d
        e_q = -np.asarray(v_q)
        raw_d = ref + cfg.kp * e_d + cfg.ki * self.integ_d - cfg.virtual_resistance * i_td
        raw_q = cfg.kp * e_q + cfg.ki * self.integ_q - cfg.virtual_resistance * i_tq
        vmax = sim.V_MAX_SCALE * cfg.reference
        out_d = np.clip(raw_d, -vmax, vmax)
        out_q = np.clip(raw_q, -vmax, vmax)
        hold_d = ((raw_d > vmax) & (e_d > 0)) | ((raw_d < -vmax) & (e_d < 0))
        hold_q = ((raw_q > vmax) & (e_q > 0)) | ((raw_q < -vmax) & (e_q < 0))
        self.integ_d = self.integ_d + self.dt * np.where(hold_d, 0.0, e_d)
        self.integ_q = self.integ_q + self.dt * np.where(hold_q, 0.0, e_q)
        return out_d, out_q


def run_plant_loop(cfg: SimConfig) -> Trace:
    topo = cfg.topology
    nb, nl = topo.n_buses, topo.n_lines
    model = build_coupled_plant(topo)
    disc = discretize_exact(model, cfg.plant_step_s)
    n = model.n_states
    dt = cfg.plant_step_s
    steps = int(round(cfg.duration_s / dt))
    n_rec = steps + 1
    t = np.round(np.arange(n_rec) * dt, 9)
    rng = np.random.default_rng(cfg.seed)

    loads = np.tile(cfg.initial_loads.reshape(-1), (n_rec, 1))
    for ev in cfg.events.steps:
        ke = int(np.searchsorted(t, ev.time_s - 1e-12))
        loads[ke:, 2 * (ev.bus - 1)] += ev.delta_d
        loads[ke:, 2 * (ev.bus - 1) + 1] += ev.delta_q

    regulator = None
    if cfg.controller is not None:
        regulator = VoltageRegulator(cfg.controller, dt, nb)
        rho = float(np.abs(np.linalg.eigvals(closed_loop_matrix(cfg))).max())
        if rho >= 1.0:
            raise ValueError(
                f"configured controller yields an unstable closed loop "
                f"(spectral radius {rho:.6f})"
            )
        vt_fix_d = vt_fix_q = None
    else:
        vt_fix_d = cfg.fixed_terminal_voltage[:, 0].copy()
        vt_fix_q = cfg.fixed_terminal_voltage[:, 1].copy()

    if cfg.start == "zero":
        x0 = np.zeros(n)
    elif regulator is not None:
        # the first sample's loads, an event at t = 0 included
        x0, integ_d, integ_q, _ = regulated_equilibrium(
            topo, cfg.controller, loads[0].reshape(nb, 2)
        )
        regulator.integ_d[:] = integ_d
        regulator.integ_q[:] = integ_q
    else:
        u0 = np.concatenate([cfg.fixed_terminal_voltage.reshape(-1), loads[0]])
        x0 = np.linalg.solve(model.a, -(model.b @ u0))

    noise = cfg.noise
    f_dgu_q = _covariance_factor(noise.dgu.q)
    f_line_q = _covariance_factor(noise.line.q)
    f_dgu_r = _covariance_factor(noise.dgu.r)
    f_line_r = _covariance_factor(noise.line.r)
    f_dgu_m = _covariance_factor(noise.dgu.m)

    w = np.zeros((steps, n))
    for b in range(nb):
        w[:, 4 * b : 4 * b + 4] = rng.standard_normal((steps, 4)) @ f_dgu_q.T
    for j in range(nl):
        c0 = 4 * nb + 2 * j
        w[:, c0 : c0 + 2] = rng.standard_normal((steps, 2)) @ f_line_q.T
    have_w = bool(w.any())

    if regulator is not None:
        nominal = max(1.0, float(cfg.controller.reference.max()))
    else:
        nominal = max(
            1.0,
            float(np.abs(x0).max()),
            float(np.abs(cfg.fixed_terminal_voltage).max()),
            float(np.abs(loads).max()),
        )
    guard = 1e6 * nominal

    io_map = _output_current_map(topo)
    idx_vd, idx_vq, idx_itd, idx_itq = bus_channel_columns(nb)
    a_d = disc.a_d
    b_d = disc.b_d
    x_true = np.empty((n_rec, n))
    u_true = np.empty((n_rec, 4 * nb))
    u_plant = np.empty(4 * nb)
    x = x0.copy()
    x_true[0] = x

    def dgu_inputs(k, xi):
        io = io_map @ xi + loads[k]
        if regulator is not None:
            vtd, vtq = regulator.step(
                xi[idx_vd], xi[idx_vq], xi[idx_itd], xi[idx_itq], io[0::2]
            )
        else:
            vtd, vtq = vt_fix_d, vt_fix_q
        u_true[k, 0::4] = vtd
        u_true[k, 1::4] = vtq
        u_true[k, 2::4] = io[0::2]
        u_true[k, 3::4] = io[1::2]
        return vtd, vtq

    for k in range(steps):
        vtd, vtq = dgu_inputs(k, x)
        u_plant[0 : 2 * nb : 2] = vtd
        u_plant[1 : 2 * nb : 2] = vtq
        u_plant[2 * nb :] = loads[k]
        x = a_d @ x + b_d @ u_plant
        if have_w:
            x = x + w[k]
        if np.abs(x).max() > guard:
            raise SimulationDivergedError(
                f"simulation diverged at t={t[k + 1]:.6f}s: "
                f"|state| exceeded 1e6 x nominal ({guard:.3e})"
            )
        x_true[k + 1] = x
    dgu_inputs(steps, x)

    z_state = x_true.copy()
    for b in range(nb):
        z_state[:, 4 * b : 4 * b + 4] += rng.standard_normal((n_rec, 4)) @ f_dgu_r.T
    for j in range(nl):
        c0 = 4 * nb + 2 * j
        z_state[:, c0 : c0 + 2] += rng.standard_normal((n_rec, 2)) @ f_line_r.T
    u_meas = u_true.copy()
    for b in range(nb):
        u_meas[:, 4 * b : 4 * b + 4] += rng.standard_normal((n_rec, 4)) @ f_dgu_m.T

    input_labels = tuple(lab for b in range(1, nb + 1) for lab in dgu_input_labels(b))
    return Trace(
        t=t,
        t_step_s=dt,
        x_true=x_true,
        z_state=z_state,
        u_true=u_true,
        u_meas=u_meas,
        state_labels=model.state_labels,
        input_labels=input_labels,
    )
