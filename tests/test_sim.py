import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sim_oracle import (
    VoltageRegulator,
    bus_channel_columns,
    regulated_equilibrium,
    run_plant_loop,
)
from structure_oracle import (
    coupled_plant_loop,
    global_input_covariance_loop,
    output_current_map_loop,
)

import microdse as m
from microdse import (
    EventSchedule,
    LoadStep,
    NoiseSpec,
    RegulatorConfig,
    SimConfig,
    SimNoise,
    SimulationDivergedError,
    build_coupled_plant,
    closed_loop_matrix,
    discretize_exact,
    downsample,
    run_plant,
)
from microdse.estimation import global_input_covariance
from microdse.models import DguParams, LineParams, MicrogridTopology, build_dgu_model
from microdse.sim import _closed_loop, _output_current_map, _raw_output

LOADS = np.array([[150.0, 30.0], [220.0, 40.0], [180.0, 35.0]])


def open_loop_config(topology, duration=1.0, vt=None, loads=None, start="equilibrium",
                     noise=None, seed=0, events=EventSchedule()):
    vt = np.array([[11000.0, 150.0]] * 3) if vt is None else vt
    loads = LOADS if loads is None else loads
    return SimConfig(
        topology=topology,
        duration_s=duration,
        plant_step_s=1e-4,
        seed=seed,
        initial_loads=loads,
        events=events,
        noise=noise,
        controller=None,
        fixed_terminal_voltage=vt,
        start=start,
    )


def test_open_loop_equilibrium_is_held(reference_topology):
    cfg = open_loop_config(reference_topology)
    trace = run_plant(cfg)
    model = build_coupled_plant(reference_topology)
    u = np.concatenate([cfg.fixed_terminal_voltage.reshape(-1), LOADS.reshape(-1)])
    x_star = np.linalg.solve(model.a, -(model.b @ u))
    assert np.abs(trace.x_true - x_star).max() < 1e-9


def test_zero_state_zero_inputs_stay_zero(reference_topology):
    cfg = open_loop_config(
        reference_topology,
        duration=0.1,
        vt=np.zeros((3, 2)),
        loads=np.zeros((3, 2)),
        start="zero",
    )
    trace = run_plant(cfg)
    assert not trace.x_true.any()
    assert not trace.z_state.any()
    assert not trace.u_meas.any()


def test_load_event_shifts_line_current_levels(reference_scenario):
    # zero out measurement noise so window means are the true levels
    sim = dataclasses.replace(reference_scenario.sim, noise=SimNoise.zero())
    trace = run_plant(sim)
    t = trace.t
    i12 = trace.x_true[:, 12]
    i13 = trace.x_true[:, 14]
    pre = (t >= 1.5) & (t < 2.0)
    post = t >= 3.5
    assert abs(i12[post].mean() - i12[pre].mean()) > 5.0
    assert abs(i13[post].mean() - i13[pre].mean()) > 5.0


def test_event_only_jumps_the_load_input(reference_scenario):
    sim = dataclasses.replace(
        reference_scenario.sim,
        noise=SimNoise.zero(),
        duration_s=2.2,
    )
    trace = run_plant(sim)
    ke = int(np.searchsorted(trace.t, 2.0 - 1e-12))
    # the bus-1 measured output current jumps by the step size at the event
    dio = trace.u_true[ke, 2] - trace.u_true[ke - 1, 2]
    assert dio == pytest.approx(150.0, abs=1.0)
    # the state is continuous: the step into the event sample still uses the
    # pre-event inputs
    disc = discretize_exact(build_coupled_plant(sim.topology), sim.plant_step_s)
    vt = trace.u_true[ke - 1, [0, 1, 4, 5, 8, 9]]
    u_plant = np.empty(12)
    u_plant[0:6:2] = vt[0::2]
    u_plant[1:6:2] = vt[1::2]
    u_plant[6:] = LOADS.reshape(-1)
    x_pred = disc.a_d @ trace.x_true[ke - 1] + disc.b_d @ u_plant
    np.testing.assert_allclose(x_pred, trace.x_true[ke], rtol=0, atol=1e-9)


def test_downsample_keeps_every_kth(reference_scenario):
    sim = dataclasses.replace(reference_scenario.sim, duration_s=1.0, events=EventSchedule())
    trace = run_plant(sim)
    low = downsample(trace, 100.0)
    assert low.t_step_s == pytest.approx(0.01)
    np.testing.assert_array_equal(low.t, trace.t[::100])
    np.testing.assert_array_equal(low.x_true, trace.x_true[::100])
    np.testing.assert_array_equal(low.z_state, trace.z_state[::100])
    same = downsample(trace, trace.rate_hz)
    np.testing.assert_array_equal(same.t, trace.t)
    with pytest.raises(ValueError, match="divide"):
        downsample(trace, 3000.0)


def test_regulator_steady_when_error_is_zero():
    gains = RegulatorConfig(
        kp=0.05, ki=400.0, virtual_resistance=0.3, droop=0.0,
        reference=np.array([100.0]),
    )
    reg = VoltageRegulator(gains, 1e-4, 1)
    # integrator holding the feedforward offset for v_t = 105 at v = ref
    reg.integ_d[:] = (105.0 - 100.0 + 0.3 * 7.0) / 400.0
    reg.integ_q[:] = (2.0 + 0.3 * 3.0) / 400.0
    for _ in range(3):
        v_td, v_tq = reg.step(
            np.array([100.0]), np.array([0.0]), np.array([7.0]), np.array([3.0])
        )
        assert v_td[0] == pytest.approx(105.0, rel=1e-12)
        assert v_tq[0] == pytest.approx(2.0, rel=1e-12)


def test_regulator_settles_after_reference_step(reference_topology):
    # regression for the tuned gains: a 10% reference step on bus 1 settles
    # well inside the 0.5 s budget (2% band), in the production closed
    # loop started from the equilibrium of the old reference
    dt = 1e-4
    base_ref = 11267.652 * np.ones(3)
    gains0 = RegulatorConfig(
        kp=0.05, ki=400.0, virtual_resistance=0.3, droop=0.0, reference=base_ref
    )
    x, integ_d, integ_q, _ = regulated_equilibrium(reference_topology, gains0, LOADS)
    gains1 = dataclasses.replace(
        gains0, reference=base_ref * np.array([1.10, 1.0, 1.0])
    )
    cfg = SimConfig(
        topology=reference_topology, duration_s=0.5, plant_step_s=dt, seed=0,
        initial_loads=LOADS, controller=gains1,
    )
    loop = _closed_loop(cfg)
    e = np.concatenate([gains1.reference, LOADS.reshape(-1)])  # no droop
    steps = 5000
    xi = np.empty((steps + 1, loop.a.shape[0]))
    xi[0] = np.concatenate([x, integ_d, integ_q])
    for k in range(steps):
        xi[k + 1] = loop.a @ xi[k] + loop.g @ e
    # the clamp stays out of play, so the linear loop is the whole law
    vmax = np.tile(m.sim.V_MAX_SCALE * gains1.reference, 2)
    assert (np.abs(_raw_output(loop, gains1, xi, gains1.reference)) < vmax).all()
    vd1 = xi[:, 0]
    target = gains1.reference[0]
    outside = np.abs(vd1 - target) > 0.02 * target
    settle = (np.flatnonzero(outside)[-1] + 1) * dt if outside.any() else 0.0
    assert settle < 0.5
    assert settle <= 0.01  # pinned regression for the tuned gains
    assert abs(vd1[-1] - target) < 0.001 * target


def test_regulator_clamps_and_freezes_integrator():
    gains = RegulatorConfig(
        kp=10.0, ki=100.0, virtual_resistance=0.0, droop=0.0,
        reference=np.array([100.0]),
    )
    reg = VoltageRegulator(gains, 1e-3, 1)
    v_td, _ = reg.step(np.array([-200.0]), np.array([0.0]), np.array([0.0]), np.array([0.0]))
    assert v_td[0] == 200.0  # clamped at 2x reference
    assert reg.integ_d[0] == 0.0  # anti-windup froze the integrator
    _, v_tq = reg.step(np.array([100.0]), np.array([500.0]), np.array([0.0]), np.array([0.0]))
    assert v_tq[0] == -200.0
    assert reg.integ_q[0] == 0.0


def test_traces_are_bit_identical_for_same_seed(reference_scenario):
    sim = dataclasses.replace(reference_scenario.sim, duration_s=0.3, events=EventSchedule())
    t1 = run_plant(sim)
    t2 = run_plant(sim)
    for name in ("t", "x_true", "z_state", "u_true", "u_meas"):
        np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))


def test_measurement_noise_matches_configured_covariance(reference_topology):
    noise = SimNoise(
        dgu=NoiseSpec.from_std(
            [0.0] * 4, [30.0, 30.0, 20.0, 20.0], [2.0, 2.0, 1.0, 1.0]
        ),
        line=NoiseSpec.from_std([0.0, 0.0], [25.0, 25.0], [0.0, 0.0]),
    )
    cfg = open_loop_config(
        reference_topology,
        duration=10.0,
        vt=np.zeros((3, 2)),
        loads=np.zeros((3, 2)),
        start="zero",
        noise=noise,
        seed=99,
    )
    trace = run_plant(cfg)
    assert len(trace) >= 100_000
    resid = trace.z_state - trace.x_true
    cov = resid.T @ resid / len(trace)
    expected = np.zeros((18, 18))
    for b in range(3):
        expected[4 * b : 4 * b + 4, 4 * b : 4 * b + 4] = noise.dgu.r
    for j in range(3):
        c0 = 12 + 2 * j
        expected[c0 : c0 + 2, c0 : c0 + 2] = noise.line.r
    assert np.abs(cov - expected).max() < 0.05 * expected.max()
    resid_u = trace.u_meas - trace.u_true
    cov_u = resid_u.T @ resid_u / len(trace)
    expected_u = np.zeros((12, 12))
    for b in range(3):
        expected_u[4 * b : 4 * b + 4, 4 * b : 4 * b + 4] = noise.dgu.m
    assert np.abs(cov_u - expected_u).max() < 0.05 * expected_u.max()


def test_closed_loop_is_stable_for_reference_scenario(reference_scenario):
    rho = np.abs(np.linalg.eigvals(closed_loop_matrix(reference_scenario.sim))).max()
    assert rho < 1.0


def test_unstable_controller_rejected(reference_scenario):
    bad = dataclasses.replace(
        reference_scenario.sim.controller, kp=0.2, ki=300.0, virtual_resistance=0.2
    )
    sim = dataclasses.replace(reference_scenario.sim, controller=bad, duration_s=2.0)
    with pytest.raises(ValueError, match="unstable"):
        run_plant(sim)


def test_divergence_guard_aborts(reference_topology):
    noise = SimNoise(
        dgu=NoiseSpec.from_std([1e9, 1e9, 0.0, 0.0], [0.0] * 4, [0.0] * 4),
        line=NoiseSpec.from_std([0.0, 0.0], [0.0, 0.0], [0.0, 0.0]),
    )
    cfg = open_loop_config(
        reference_topology, duration=0.5, start="zero",
        vt=np.zeros((3, 2)), loads=np.zeros((3, 2)), noise=noise,
    )
    with pytest.raises(SimulationDivergedError) as new:
        run_plant(cfg)
    with pytest.raises(SimulationDivergedError) as old:
        run_plant_loop(cfg)
    assert str(new.value) == str(old.value)
    assert "t=0.000" in str(new.value)


@pytest.mark.parametrize("segment_values", [None, 1])
@pytest.mark.parametrize("regulated", [True, False])
def test_non_finite_state_trips_the_guard(
    reference_scenario, reference_topology, monkeypatch, regulated, segment_values
):
    # a NaN load from t = 0.01 s makes the state NaN one step later, in
    # the second segment when a segment holds one block; LoadStep rejects
    # a NaN delta, so it is set past that check
    if segment_values is not None:
        monkeypatch.setattr(m.sim, "_SEGMENT_VALUES", segment_values)
    step = LoadStep(0.01, 2, 0.0, 0.0)
    object.__setattr__(step, "delta_d", float("nan"))
    events = EventSchedule((step,))
    if regulated:
        cfg = dataclasses.replace(reference_scenario.sim, duration_s=0.05, events=events)
    else:
        cfg = open_loop_config(reference_topology, duration=0.05, events=events)
    with pytest.raises(SimulationDivergedError, match=r"t=0\.010100s"):
        run_plant(cfg)


def test_config_validation():
    topo = m.bundled_scenario().sim.topology
    with pytest.raises(ValueError, match="cover"):
        open_loop_config(
            topo,
            duration=1.0,
            events=EventSchedule((LoadStep(2.0, 1, 10.0, 0.0),)),
        )
    with pytest.raises(ValueError, match="initial_loads"):
        open_loop_config(topo, loads=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="start"):
        open_loop_config(topo, start="warm")
    with pytest.raises(ValueError, match="increasing"):
        EventSchedule((LoadStep(1.0, 1, 1.0, 0.0), LoadStep(1.0, 1, 1.0, 0.0)))


@pytest.mark.parametrize("duration", [0.30006, 0.30004, 0.00005, 1.5e-4])
def test_a_duration_off_the_plant_step_grid_is_refused(reference_topology, duration):
    with pytest.raises(
        ValueError,
        match=rf"^duration_s {duration!r} is not a whole number of plant_step_s 0\.0001$",
    ):
        open_loop_config(reference_topology, duration=duration)


@pytest.mark.parametrize("duration", [1e-4, 0.3, 0.29999999999])
def test_a_duration_on_the_plant_step_grid_runs_its_samples(reference_topology, duration):
    # within the 1e-9 relative rule a duration is a whole number of steps
    cfg = open_loop_config(reference_topology, duration=duration)
    assert len(run_plant(cfg)) == round(duration / 1e-4) + 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["kp", "ki", "virtual_resistance", "droop", "reference"])
def test_non_finite_regulator_setting_is_rejected_naming_it(reference_scenario, field, bad):
    ctl = reference_scenario.sim.controller
    value = np.where([False, True, False], bad, ctl.reference) if field == "reference" else bad
    with pytest.raises(ValueError, match=f"^{field} must be .*finite"):
        dataclasses.replace(ctl, **{field: value})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_loads_and_voltages_are_rejected_naming_them(reference_topology, bad):
    with pytest.raises(ValueError, match="delta_d must be finite"):
        LoadStep(0.1, 1, bad, 0.0)
    with pytest.raises(ValueError, match="delta_q must be finite"):
        LoadStep(0.1, 1, 0.0, bad)
    loads = LOADS.copy()
    loads[1, 0] = bad
    with pytest.raises(ValueError, match="initial_loads must be finite"):
        open_loop_config(reference_topology, loads=loads)
    vt = np.array([[11000.0, 150.0]] * 3)
    vt[2, 1] = bad
    with pytest.raises(ValueError, match="fixed_terminal_voltage must be finite"):
        open_loop_config(reference_topology, vt=vt)


TRACE_FIELDS = ("x_true", "z_state", "u_true", "u_meas")
PROCESS_NOISE = SimNoise(
    dgu=NoiseSpec.from_std([5.0, 5.0, 2.0, 2.0], [30.0, 30.0, 20.0, 20.0], [2.0, 2.0, 1.0, 1.0]),
    line=NoiseSpec.from_std([1.0, 1.0], [25.0, 25.0], [0.0, 0.0]),
)


def assert_matches_loop_oracle(cfg, rtol=1e-9):
    new = run_plant(cfg)
    old = run_plant_loop(cfg)
    np.testing.assert_array_equal(new.t, old.t)
    for name in TRACE_FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= rtol * max(1.0, np.abs(b).max()), name
    return new


def clamped_samples(cfg, trace):
    vmax = m.sim.V_MAX_SCALE * cfg.controller.reference
    vt = np.column_stack([trace.u_true[:, 0::4], trace.u_true[:, 1::4]])
    return np.flatnonzero((np.abs(vt) >= np.tile(vmax, 2) * (1.0 - 1e-12)).any(axis=1))


def test_linear_pass_matches_loop_on_reference_scenario(reference_scenario):
    assert reference_scenario.sim.events.steps
    assert_matches_loop_oracle(reference_scenario.sim)


@pytest.mark.parametrize("segment_values", [None, 1])
def test_linear_pass_matches_loop_open_loop(reference_topology, monkeypatch, segment_values):
    if segment_values is not None:
        monkeypatch.setattr(m.sim, "_SEGMENT_VALUES", segment_values)
    cfg = open_loop_config(
        reference_topology,
        duration=0.3,
        noise=PROCESS_NOISE,
        seed=7,
        events=EventSchedule((LoadStep(0.1, 2, 80.0, -10.0),)),
    )
    assert_matches_loop_oracle(cfg)


def test_linear_pass_matches_loop_when_clamp_engages_at_start(reference_scenario, monkeypatch):
    monkeypatch.setattr(m.sim, "V_MAX_SCALE", 1.02)
    cfg = dataclasses.replace(
        reference_scenario.sim, duration_s=0.2, start="zero", events=EventSchedule()
    )
    trace = assert_matches_loop_oracle(cfg)
    assert clamped_samples(cfg, trace).size == 7


@pytest.mark.parametrize("segment_values", [None, 1])
def test_linear_pass_matches_loop_when_clamp_engages_mid_record(
    reference_scenario, monkeypatch, segment_values
):
    # removing 1000 A of bus-1 load raises its droop-shifted reference
    # into the clamp after 500 linear samples; one block per segment puts
    # that sample inside the eighth segment
    if segment_values is not None:
        monkeypatch.setattr(m.sim, "_SEGMENT_VALUES", segment_values)
    monkeypatch.setattr(m.sim, "V_MAX_SCALE", 1.02)
    cfg = dataclasses.replace(
        reference_scenario.sim,
        duration_s=0.1,
        noise=PROCESS_NOISE,
        events=EventSchedule((LoadStep(0.05, 1, -1000.0, 0.0),)),
    )
    trace = assert_matches_loop_oracle(cfg)
    assert clamped_samples(cfg, trace)[0] == 500


def test_equilibrium_outside_the_clamp_is_rejected(reference_scenario, monkeypatch):
    # 2000 A of capacitive load per bus needs a terminal voltage above
    # 1.0001 x reference: the linear loop's fixed point is no operating
    # point of the clamped regulator
    monkeypatch.setattr(m.sim, "V_MAX_SCALE", 1.0001)
    sim = reference_scenario.sim
    cfg = dataclasses.replace(
        sim, initial_loads=np.column_stack([sim.initial_loads[:, 0], np.full(3, -2000.0)])
    )
    for simulate in (run_plant, run_plant_loop):
        with pytest.raises(ValueError, match="equilibrium terminal voltage exceeds the regulator clamp"):
            simulate(cfg)


@st.composite
def random_grids(draw, min_buses=2, max_buses=6, max_chords=3):
    """Connected grids: a random spanning tree plus optional chords, so
    both radial and meshed grids are drawn."""
    nb = draw(st.integers(min_buses, max_buses))
    pairs = {(draw(st.integers(1, b - 1)), b) for b in range(2, nb + 1)}
    others = [(a, b) for a in range(1, nb + 1) for b in range(a + 1, nb + 1)]
    if others:
        pairs |= set(draw(st.lists(st.sampled_from(others), max_size=max_chords)))
    uniform = lambda lo, hi: draw(st.floats(lo, hi))  # noqa: E731
    topology = MicrogridTopology(
        n_buses=nb,
        dgus=tuple(
            DguParams(uniform(0.9e-3, 1.3e-3), uniform(90e-6, 110e-6), uniform(50e-6, 60e-6))
            for _ in range(nb)
        ),
        lines=tuple(
            LineParams(a, b, uniform(0.9, 1.3), uniform(0.44e-3, 0.67e-3))
            for a, b in sorted(pairs)
        ),
        omega=2.0 * math.pi * 60.0,
    )
    loads = np.array([[uniform(150.0, 220.0), uniform(30.0, 40.0)] for _ in range(nb)])
    return topology, loads


@settings(max_examples=25, deadline=None)
@given(
    grid=random_grids(),
    seed=st.integers(0, 2**31 - 1),
    # (start, clamp): from zero a clamp at 1.02 x reference engages at once
    regime=st.sampled_from([("equilibrium", 2.0), ("zero", 2.0), ("zero", 1.02)]),
    steps=st.integers(1, 400),
)
def test_linear_pass_matches_loop_on_random_grids(reference_scenario, grid, seed, regime, steps):
    topology, loads = grid
    nb = topology.n_buses
    start, clamp = regime
    controller = dataclasses.replace(
        reference_scenario.sim.controller, droop=0.1, reference=np.full(nb, 11267.652)
    )
    cfg = SimConfig(
        topology=topology,
        duration_s=steps * 1e-4,
        plant_step_s=1e-4,
        seed=seed,
        initial_loads=loads,
        events=EventSchedule((LoadStep(0.5 * steps * 1e-4, nb, 50.0, 10.0),)),
        noise=PROCESS_NOISE,
        controller=controller,
        start=start,
    )
    assume(np.abs(np.linalg.eigvals(closed_loop_matrix(cfg))).max() < 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m.sim, "V_MAX_SCALE", clamp)
        trace = assert_matches_loop_oracle(cfg)
        if clamp < 2.0:
            assert clamped_samples(cfg, trace).size


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
@example(seed=100874)  # bus 1's v_tq is -2.2 mV, a sum of ~70 V terms
def test_closed_loop_builder_is_the_regulator_law(reference_scenario, seed):
    # in the linear regime one builder row block is one step of the
    # oracle's per-sample VoltageRegulator
    sim = reference_scenario.sim
    ctl = sim.controller
    nb, n = 3, 18
    rng = np.random.default_rng(seed)
    x_eq, integ_d, integ_q, _ = regulated_equilibrium(sim.topology, ctl, sim.initial_loads)
    x = x_eq + rng.normal(scale=np.where(x_eq != 0.0, 0.01 * np.abs(x_eq), 1.0))
    integ = np.concatenate([integ_d, integ_q]) + rng.normal(scale=0.01, size=2 * nb)
    loads = sim.initial_loads.reshape(-1) + rng.normal(scale=20.0, size=2 * nb)
    loop = _closed_loop(sim)
    xi = np.concatenate([x, integ])
    ref = ctl.reference - ctl.droop * loads[0::2]
    raw = _raw_output(loop, ctl, xi, ref)
    integ_next = loop.a[n:] @ xi + loop.g[n:] @ np.concatenate([ref, loads])

    reg = VoltageRegulator(ctl, sim.plant_step_s, nb)
    reg.integ_d, reg.integ_q = integ[:nb].copy(), integ[nb:].copy()
    ivd, ivq, iitd, iitq = bus_channel_columns(nb)
    io = _output_current_map(sim.topology) @ x + loads
    v_td, v_tq = reg.step(x[ivd], x[ivq], x[iitd], x[iitq], io[0::2])
    assert (np.abs(raw) < np.tile(m.sim.V_MAX_SCALE * ctl.reference, 2)).all()
    # the two evaluation orders agree to rounding of the law's largest
    # terms, which can dwarf the channel itself (v_tq is millivolts from
    # tens of volts): bound each channel by the magnitudes of its terms
    ref_d = ctl.reference - ctl.droop * io[0::2]
    terms_d = (
        np.abs(ctl.reference) + np.abs(ctl.droop * io[0::2]) + np.abs(ctl.kp * (ref_d - x[ivd]))
        + np.abs(ctl.ki * integ[:nb]) + np.abs(ctl.virtual_resistance * x[iitd])
    )
    terms_q = (
        np.abs(ctl.kp * x[ivq]) + np.abs(ctl.ki * integ[nb:])
        + np.abs(ctl.virtual_resistance * x[iitq])
    )
    error = np.abs(raw - np.concatenate([v_td, v_tq]))
    assert (error <= 1e-12 * np.concatenate([terms_d, terms_q])).all()
    np.testing.assert_allclose(
        integ_next, np.concatenate([reg.integ_d, reg.integ_q]), rtol=1e-10, atol=1e-12
    )


def storage_weights(topology):
    """diag(C, C, L_t, L_t per bus; L, L per line): twice the stored energy
    is x^T W x."""
    per_bus = [(d.c_t, d.c_t, d.l_t, d.l_t) for d in topology.dgus]
    per_line = [(ln.l, ln.l) for ln in topology.lines]
    return np.concatenate([np.ravel(per_bus), np.ravel(per_line)])


@settings(max_examples=40, deadline=None)
@given(grid=random_grids(1, 12, max_chords=6))
def test_coupled_plant_is_dissipative(grid):
    # with the inputs held at zero the grid only loses energy through its
    # resistors; a sign error in the coupling creates energy
    topology, _ = grid
    a = build_coupled_plant(topology).a
    wa = storage_weights(topology)[:, None] * a
    rate = np.linalg.eigvalsh(0.5 * (wa + wa.T)).max()
    assert rate <= 1e-12 * np.abs(wa).max()


@settings(max_examples=10, deadline=None)
@given(grid=random_grids(1, 1))
def test_one_bus_plant_is_the_dgu_model(grid):
    topology, _ = grid
    plant = build_coupled_plant(topology)
    dgu = build_dgu_model(topology.dgus[0], topology.omega, bus=1)
    np.testing.assert_array_equal(plant.a, dgu.a)
    np.testing.assert_array_equal(plant.b, dgu.b)
    assert plant.state_labels == dgu.state_labels


@settings(max_examples=40, deadline=None)
@given(grid=random_grids(1, 12, max_chords=6), seed=st.integers(0, 2**31 - 1))
def test_structure_matches_the_per_line_oracle(grid, seed):
    topology, _ = grid
    plant, oracle = build_coupled_plant(topology), coupled_plant_loop(topology)
    np.testing.assert_array_equal(plant.a, oracle.a)
    np.testing.assert_array_equal(plant.b, oracle.b)
    assert plant.state_labels == oracle.state_labels
    assert plant.input_labels == oracle.input_labels
    np.testing.assert_array_equal(
        _output_current_map(topology), output_current_map_loop(topology)
    )
    rng = np.random.default_rng(seed)
    posteriors = {}
    for bus in range(1, topology.n_buses + 1):
        f = rng.normal(size=(4, 4))
        posteriors[bus] = f @ f.T + np.eye(4)
    np.testing.assert_array_equal(
        global_input_covariance(topology, posteriors),
        global_input_covariance_loop(topology, posteriors),
    )


def regulated_config(reference_scenario, grid, droop):
    """One regulated plant step on ``grid`` with the reference gains."""
    topology, loads = grid
    ctl = dataclasses.replace(
        reference_scenario.sim.controller, droop=droop,
        reference=np.full(topology.n_buses, 11267.652),
    )
    return SimConfig(
        topology=topology, duration_s=1e-4, plant_step_s=1e-4, seed=0,
        initial_loads=loads, controller=ctl,
    )


@settings(max_examples=40, deadline=None)
@given(grid=random_grids(1, 12, max_chords=6), droop=st.floats(0.0, 1.0))
def test_regulated_equilibrium_is_the_closed_loop_fixed_point(reference_scenario, grid, droop):
    cfg = regulated_config(reference_scenario, grid, droop)
    topology, loads, ctl = cfg.topology, cfg.initial_loads, cfg.controller
    x, integ_d, integ_q, v_t = regulated_equilibrium(topology, ctl, loads)
    xi = np.concatenate([x, integ_d, integ_q])
    loop = _closed_loop(cfg)
    ref = ctl.reference - ctl.droop * loads[:, 0]
    step = loop.a @ xi + loop.g @ np.concatenate([ref, loads.reshape(-1)]) - xi
    assert np.abs(step).max() <= 1e-9 * np.abs(xi).max()
    raw = _raw_output(loop, ctl, xi, ref)
    assert np.abs(raw - v_t.T.reshape(-1)).max() <= 1e-12 * np.abs(v_t).max()


@settings(max_examples=40, deadline=None)
@given(grid=random_grids(1, 12, max_chords=6), droop=st.floats(0.0, 1.0))
def test_regulated_start_is_the_analytic_equilibrium(reference_scenario, grid, droop):
    # the simulator solves its loop's fixed point; the oracle derives the
    # operating point from the circuit relations by hand
    cfg = regulated_config(reference_scenario, grid, droop)
    assume(np.abs(np.linalg.eigvals(closed_loop_matrix(cfg))).max() < 1.0)
    x, _, _, v_t = regulated_equilibrium(cfg.topology, cfg.controller, cfg.initial_loads)
    trace = run_plant(cfg)
    assert np.abs(trace.x_true[0] - x).max() <= 1e-12 * np.abs(x).max()
    v_t0 = np.column_stack([trace.u_true[0, 0::4], trace.u_true[0, 1::4]])
    assert np.abs(v_t0 - v_t).max() <= 1e-12 * np.abs(v_t).max()


@settings(max_examples=20, deadline=None)
@given(grid=random_grids(1, 12, max_chords=6))
def test_open_loop_start_is_the_continuous_time_equilibrium(grid):
    topology, loads = grid
    vt = np.tile([11000.0, 150.0], (topology.n_buses, 1))
    cfg = open_loop_config(topology, duration=1e-4, vt=vt, loads=loads)
    model = build_coupled_plant(topology)
    u0 = np.concatenate([vt.reshape(-1), loads.reshape(-1)])
    x_star = np.linalg.solve(model.a, -(model.b @ u0))
    x0 = run_plant(cfg).x_true[0]
    assert np.abs(x0 - x_star).max() <= 1e-12 * np.abs(x_star).max()
