import dataclasses
import math
import re

import numpy as np
import pytest
from filter_oracle import assert_close, step_oracle

import microdse as m
from microdse import (
    EventSchedule,
    KalmanEstimator,
    NoiseSpec,
    SimNoise,
    build_global_estimator,
    build_line_model,
    build_local_estimator,
    discretize_exact,
    downsample,
    global_input_covariance,
    local_posterior_covariance,
    rmse,
    run_global,
    run_local,
    run_locals,
    run_plant,
    tracking_recovery_time,
)
from microdse.estimation import EstimateTrace
from microdse import kalman
from microdse.kalman import filter_record, gain_schedule, schedules_of
from microdse.models import DguParams, LineParams, MicrogridTopology
from microdse.pipeline import build_local_estimators

LOCAL_SPEC = NoiseSpec.from_std(
    [0.5] * 4, [30.0, 30.0, 20.0, 20.0], [2.0, 2.0, 1.0, 1.0]
)


def quiet_sim(scenario, duration=0.5, events=None):
    return dataclasses.replace(
        scenario.sim,
        duration_s=duration,
        events=EventSchedule() if events is None else events,
        noise=SimNoise.zero(),
    )


def test_noise_free_equilibrium_estimates_are_exact(reference_scenario, reference_topology):
    trace = run_plant(quiet_sim(reference_scenario, duration=0.3))
    for bus in (1, 2, 3):
        est = build_local_estimator(reference_topology, bus, LOCAL_SPEC, 10_000.0)
        out = run_local(est, trace)
        cols = est.columns
        err = np.abs(out.x_hat - trace.x_true[:, cols])
        assert err[-100:].max() < 1e-6


def test_zero_input_noise_reduces_to_classical_filter(reference_scenario, reference_topology):
    trace = run_plant(
        dataclasses.replace(
            reference_scenario.sim, duration_s=0.2, events=EventSchedule()
        )
    )
    spec = NoiseSpec.from_std(
        [0.5] * 4, [30.0, 30.0, 20.0, 20.0], [0.0, 0.0, 0.0, 0.0]
    )
    with_m = build_local_estimator(reference_topology, 1, spec, 10_000.0)
    bare = build_local_estimator(reference_topology, 1, spec, 10_000.0)
    bare.kf = KalmanEstimator(
        with_m.kf.model, q_eff=spec.q, r=spec.r
    )
    out_m = run_local(with_m, trace)
    out_bare = run_local(bare, trace)
    np.testing.assert_array_equal(out_m.x_hat, out_bare.x_hat)


def test_scenario_estimates_beat_measurements(reference_scenario):
    sim = dataclasses.replace(
        reference_scenario.sim,
        duration_s=2.0,
        events=EventSchedule((m.LoadStep(0.5, 1, 150.0, 30.0),)),
    )
    scn = dataclasses.replace(reference_scenario, sim=sim)
    trace = m.simulate_scenario(scn)
    result = m.estimate_scenario(scn, trace)
    metrics = m.compute_metrics(scn, result)
    for label, entry in metrics["channels"].items():
        for w in entry["windows"]:
            assert w["improvement_ratio"] < 1.0, (label, w)


def test_global_estimator_tracks_noise_free_truth(reference_scenario):
    scn = dataclasses.replace(
        reference_scenario, sim=quiet_sim(reference_scenario, duration=1.0)
    )
    trace = m.simulate_scenario(scn)
    result = m.estimate_scenario(scn, trace)
    gt = result.global_trace
    line_cols = 12 + np.arange(6)
    err = np.abs(result.global_estimate.x_hat - gt.x_true[:, line_cols])
    assert err[gt.t >= 0.2].max() < 1e-6


def test_single_line_global_equals_standalone_line_filter():
    omega = 2 * math.pi * 60.0
    topo = MicrogridTopology(
        n_buses=2,
        dgus=(
            DguParams(1.1e-3, 90e-6, 50e-6),
            DguParams(1.3e-3, 100e-6, 55e-6),
        ),
        lines=(LineParams(1, 2, 1.1, 0.52e-3),),
        omega=omega,
    )
    rate = 100.0
    rng = np.random.default_rng(8)
    n = 60
    t = np.round(np.arange(n) / rate, 9)
    p_local = {1: np.diag([40.0, 40.0, 9.0, 9.0]), 2: np.diag([30.0, 30.0, 9.0, 9.0])}
    m_in = global_input_covariance(topo, p_local)
    q2 = np.diag([0.25, 0.25])
    r2 = np.diag([625.0, 625.0])
    gest = build_global_estimator(topo, q2, r2, rate, m_in)

    v1 = 11000.0 + rng.standard_normal((n, 2)) * 5
    v2 = 10950.0 + rng.standard_normal((n, 2)) * 5
    z_line = rng.standard_normal((n, 2)) * 40
    volt_traces = {}
    for bus, v in ((1, v1), (2, v2)):
        x_hat = np.zeros((n, 4))
        x_hat[:, 0:2] = v
        volt_traces[bus] = EstimateTrace(
            t=t, t_step_s=1.0 / rate, x_hat=x_hat,
            labels=(f"v_d{bus}", f"v_q{bus}", f"i_td{bus}", f"i_tq{bus}"),
            nis=np.full(n, np.nan),
        )
    x_true = np.zeros((n, 10))
    z_state = x_true.copy()
    z_state[:, 8:10] = z_line
    line_trace = m.Trace(
        t=t, t_step_s=1.0 / rate, x_true=x_true, z_state=z_state,
        u_true=np.zeros((n, 8)), u_meas=np.zeros((n, 8)),
        state_labels=m.build_coupled_plant(topo).state_labels,
        input_labels=tuple(f"u{i}" for i in range(8)),
    )
    out = run_global(gest, volt_traces, line_trace)

    # standalone two-state filter fed the same data: the same arithmetic
    # gives the same bits, and the oracle's own law agrees to rounding
    disc = discretize_exact(build_line_model(topo.lines[0], omega), 1.0 / rate)
    q_eff = disc.b_d @ m_in @ disc.b_d.T + q2

    def standalone():
        return KalmanEstimator(disc, q_eff=0.5 * (q_eff + q_eff.T), r=r2)

    expected, expected_nis = (
        out[0] for out in filter_record([standalone()], z_line[:, None], (v1 - v2)[:, None])
    )
    np.testing.assert_array_equal(out.x_hat, expected)
    np.testing.assert_array_equal(out.nis, expected_nis)
    oracle = step_oracle(standalone(), z_line, v1 - v2)
    assert_close(out.x_hat, oracle.x_hat)
    assert_close(out.nis, oracle.nis)


def meshed_scenario():
    """Six buses on a ring with two chords (eight lines, 16 global states),
    global filter at 1 kHz, 0.2 s with a load step at 0.1 s."""
    raw = m.bundled_config_dict()
    dgus = raw["topology"]["dgus"]
    raw["topology"]["dgus"] = [
        {**dgus[(b - 1) % 3], "bus": b} for b in range(1, 7)
    ]
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4), (2, 5)]
    lines = raw["topology"]["lines"]
    raw["topology"]["lines"] = [
        {**lines[j % 3], "from_bus": a, "to_bus": b} for j, (a, b) in enumerate(pairs)
    ]
    sim = raw["simulation"]
    sim["duration_s"] = 0.2
    sim["controller"]["droop_v_per_a"] = 0.1
    sim["controller"]["reference_scale"] = [1.004, 1.0, 0.996, 1.002, 0.998, 1.0]
    sim["loads"]["initial_amps"] = sim["loads"]["initial_amps"] * 2
    sim["loads"]["events"][0]["time_s"] = 0.1
    raw["estimation"]["global_rate_hz"] = 1000.0
    raw["estimation"]["metrics"]["windows_s"] = [[0.05, 0.2]]
    return m.load_scenario_dict(raw)


def global_step_oracle(result):
    """``run_global``'s record run by the oracle with the global
    estimator's model and noise, inputs assembled here from the local
    voltage estimates."""
    est = result.global_estimator
    topo = est.topology
    gt = result.global_trace
    ticks = {
        bus: downsample(tr, est.rate_hz) for bus, tr in result.local_estimates.items()
    }
    u = np.column_stack(
        [
            ticks[line.from_bus].x_hat[:, 0:2] - ticks[line.to_bus].x_hat[:, 0:2]
            for line in topo.lines
        ]
    )
    z = gt.z_state[:, 4 * topo.n_buses :]
    return step_oracle(est.kf, z, u)


@pytest.mark.parametrize("case", ["reference", "meshed"])
def test_global_estimator_matches_step_oracle(reference_scenario, case):
    if case == "reference":
        sim = dataclasses.replace(
            reference_scenario.sim,
            duration_s=1.0,
            events=EventSchedule((m.LoadStep(0.5, 1, 150.0, 30.0),)),
        )
        scn = dataclasses.replace(reference_scenario, sim=sim)
    else:
        scn = meshed_scenario()
    trace = m.simulate_scenario(scn)
    result = m.estimate_scenario(scn, trace)
    kf = result.global_estimator.kf
    n = len(result.global_estimate)
    stack = [mat[None] for mat in (kf.model.a_d, kf.q_eff, kf.r, kf.p0)]
    updates = gain_schedule(*stack, n - 1).lengths[0]
    # the record holds the whole gain schedule plus a steady-gain stretch
    assert updates < n - 1
    if case == "meshed":
        assert kf.n_states == 16 and updates >= 5
    oracle = global_step_oracle(result)
    assert_close(result.global_estimate.x_hat, oracle.x_hat)
    assert_close(result.global_estimate.nis, oracle.nis)


def test_no_production_path_steps_per_sample(reference_scenario, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("per-step filter API called")

    monkeypatch.setattr(KalmanEstimator, "step", refuse)
    scn = dataclasses.replace(
        reference_scenario, sim=quiet_sim(reference_scenario, duration=0.1)
    )
    result = m.estimate_scenario(scn, m.simulate_scenario(scn))
    assert len(result.global_estimate) == 11
    assert np.isfinite(result.global_estimate.x_hat).all()


@pytest.mark.parametrize(
    "duration,layer,samples,rate",
    [(0.005, "global", 1, "100"), (0.0, "local", 1, "10000")],
)
def test_a_record_too_short_for_one_update_is_refused(
    reference_scenario, duration, layer, samples, rate
):
    """A local or global record of fewer than two samples names its layer,
    sample count and rate instead of scoring an empty NIS."""
    sim = dataclasses.replace(reference_scenario.sim, duration_s=0.01, events=EventSchedule())
    scn = dataclasses.replace(reference_scenario, sim=sim)
    trace = m.simulate_scenario(scn)
    rows = int(round(duration / trace.t_step_s)) + 1
    short = dataclasses.replace(
        trace, t=trace.t[:rows], x_true=trace.x_true[:rows], z_state=trace.z_state[:rows],
        u_true=trace.u_true[:rows], u_meas=trace.u_meas[:rows],
    )
    message = f"the {layer} record holds {samples} sample(s) at {rate} Hz"
    with pytest.raises(ValueError, match=re.escape(message)):
        m.estimate_scenario(scn, short)
    # one global period is enough
    assert len(m.estimate_scenario(scn, trace).global_estimate) == 2


def test_a_second_run_on_the_same_estimators_gives_the_same_bits(reference_scenario):
    sim = dataclasses.replace(reference_scenario.sim, duration_s=0.2, events=EventSchedule())
    scn = dataclasses.replace(reference_scenario, sim=sim)
    result = m.estimate_scenario(scn, m.simulate_scenario(scn))
    # a record run reads each filter's model, noise and read-only p0, so
    # per-step calls in between, which move p, change none of its bits
    for kf in (result.local_estimators[0].kf, result.global_estimator.kf):
        p0 = kf.p0.copy()
        kf.step(np.zeros(kf.model.n_inputs), np.zeros(kf.n_states))
        assert not np.array_equal(kf.p, p0) and not kf.p0.flags.writeable
        np.testing.assert_array_equal(kf.p0, p0)
    again = run_locals(result.local_estimators, result.local_trace)
    for bus, first in result.local_estimates.items():
        np.testing.assert_array_equal(again[bus].x_hat, first.x_hat)
        np.testing.assert_array_equal(again[bus].nis, first.nis)
    rate = result.global_estimator.rate_hz
    ticks = {bus: downsample(tr, rate) for bus, tr in result.local_estimates.items()}
    again = run_global(result.global_estimator, ticks, result.global_trace)
    np.testing.assert_array_equal(again.x_hat, result.global_estimate.x_hat)
    np.testing.assert_array_equal(again.nis, result.global_estimate.nis)


def test_local_runs_are_schedule_independent(reference_scenario):
    scn = reference_scenario
    sim = dataclasses.replace(scn.sim, duration_s=0.4, events=EventSchedule())
    trace = run_plant(sim)
    topo = sim.topology

    def fresh(order):
        return [
            build_local_estimator(topo, b, scn.estimation.local_noise, 10_000.0)
            for b in order
        ]

    batch = run_locals(fresh([1, 2, 3]), trace)
    rev = run_locals(fresh([3, 2, 1]), trace)
    for bus in (1, 2, 3):
        alone = run_locals(fresh([bus]), trace)[bus]
        np.testing.assert_array_equal(alone.x_hat, batch[bus].x_hat)
        np.testing.assert_array_equal(alone.x_hat, rev[bus].x_hat)
        np.testing.assert_array_equal(alone.nis, batch[bus].nis)


def generated_mesh(seed, n_buses=10, n_chords=4):
    """A seeded random connected grid: a spanning tree plus ``n_chords``
    extra lines, parameters drawn inside the README table's ranges, 0.05 s
    without a load step."""
    rng = np.random.default_rng(seed)
    raw = m.bundled_config_dict()
    raw["topology"]["dgus"] = [
        {
            "bus": bus,
            "r_ohm": rng.uniform(0.9e-3, 1.3e-3),
            "l_henry": rng.uniform(90e-6, 110e-6),
            "c_farad": rng.uniform(50e-6, 60e-6),
        }
        for bus in range(1, n_buses + 1)
    ]
    pairs = {(int(rng.integers(1, b)), b) for b in range(2, n_buses + 1)}
    while len(pairs) < n_buses - 1 + n_chords:
        a, b = sorted(int(x) for x in rng.choice(n_buses, 2, replace=False) + 1)
        pairs.add((a, b))
    raw["topology"]["lines"] = [
        {
            "from_bus": a,
            "to_bus": b,
            "r_ohm": rng.uniform(0.9, 1.3),
            "l_henry": rng.uniform(0.44e-3, 0.67e-3),
        }
        for a, b in sorted(pairs)
    ]
    sim = raw["simulation"]
    sim["duration_s"] = 0.05
    sim["controller"]["droop_v_per_a"] = 0.1
    sim["controller"]["reference_scale"] = rng.uniform(0.996, 1.004, n_buses).tolist()
    sim["loads"]["initial_amps"] = [
        [rng.uniform(150.0, 220.0), rng.uniform(30.0, 40.0)] for _ in range(n_buses)
    ]
    sim["loads"]["events"] = []
    raw["estimation"]["metrics"]["windows_s"] = [[0.01, 0.05]]
    return m.load_scenario_dict(raw)


def test_local_runs_are_order_independent_on_a_generated_mesh():
    scn = generated_mesh(seed=11)
    trace = m.simulate_scenario(scn)
    batch = run_locals(build_local_estimators(scn), trace)
    rev = run_locals(build_local_estimators(scn)[::-1], trace)
    # the buses converge at different updates, all inside the record
    stack = build_local_estimators(scn)
    lengths = set(schedules_of([est.kf for est in stack], len(trace) - 1).lengths)
    assert len(stack) == 10 and len(lengths) > 1 and max(lengths) < len(trace) - 1
    for est in build_local_estimators(scn):
        alone = run_locals([est], trace)[est.bus]
        for other in (batch[est.bus], rev[est.bus]):
            np.testing.assert_array_equal(alone.x_hat, other.x_hat)
            np.testing.assert_array_equal(alone.nis, other.nis)


def test_repeated_runs_on_a_large_grid_reuse_all_data_free_work():
    """On a grid of more than six buses, a second run of the same scenario
    finds both gain schedules and every bus's steady posterior cached."""
    scn = generated_mesh(seed=11)
    trace = m.simulate_scenario(scn)
    caches = (kalman._schedules, kalman._steady)
    m.estimate_scenario(scn, trace)
    before = [c.cache_info() for c in caches]
    m.estimate_scenario(scn, trace)
    after = [c.cache_info() for c in caches]
    n_buses = len(build_local_estimators(scn))
    assert n_buses > 6
    lookups = [(a.hits - b.hits, a.misses - b.misses) for a, b in zip(after, before)]
    assert lookups == [(2, 0), (n_buses, 0)]


def test_local_runs_are_order_independent_across_segment_edges(monkeypatch):
    """With a segment budget of two blocks for the 10-bus batch, the batch
    cuts the steady tails into three segments and a bus alone runs its tail
    as one; each bus still gets the same bits, alone, in the batch, in
    reverse and in a shuffled part of the batch."""
    monkeypatch.setattr(kalman, "_SEGMENT_VALUES", 2 * 10 * 4 * kalman._BLOCK)
    scn = generated_mesh(seed=11)
    trace = m.simulate_scenario(scn)
    kfs = [e.kf for e in build_local_estimators(scn)]
    cuts = schedules_of(kfs, len(trace) - 1).lengths
    assert min(len(trace) - 1 - c for c in cuts) > 2 * 2 * kalman._BLOCK
    batch = run_locals(build_local_estimators(scn), trace)
    rev = run_locals(build_local_estimators(scn)[::-1], trace)
    part = run_locals([build_local_estimators(scn)[i] for i in (6, 2, 9, 0)], trace)
    for est in build_local_estimators(scn):
        alone = run_locals([est], trace)[est.bus]
        for other in (batch, rev, part):
            if est.bus in other:
                np.testing.assert_array_equal(alone.x_hat, other[est.bus].x_hat)
                np.testing.assert_array_equal(alone.nis, other[est.bus].nis)


@pytest.mark.parametrize(
    "order, broken, reported",
    [
        ([1, 2, 3], {2: "late", 3: "early"}, "bus 3: filter failure at sample 1 "),
        ([1, 2, 3], {2: "early", 3: "early"}, "bus 2: filter failure at sample 1 "),
        ([3, 2, 1], {2: "early", 3: "early"}, "bus 3: filter failure at sample 1 "),
        ([3, 2, 1], {1: "late"}, "bus 1: filter failure at sample 5 "),
    ],
)
def test_multi_bus_failure_names_the_earliest_then_first_listed_bus(
    reference_scenario, order, broken, reported
):
    """``run_locals`` reports the bus whose covariance fails at the earliest
    sample, and of several failing at that sample the first in the list."""
    scn = dataclasses.replace(
        reference_scenario, sim=quiet_sim(reference_scenario, duration=0.01)
    )
    trace = m.simulate_scenario(scn)
    zero = np.zeros((4, 4))
    noise = {
        "early": dict(q_eff=zero, r=zero, p0=zero),
        "late": dict(q_eff=zero, r=np.diag([1.0, 1.0, 1.0, 1e-13]), p0=np.eye(4)),
    }
    estimators = {est.bus: est for est in build_local_estimators(scn)}
    for bus, kind in broken.items():
        est = estimators[bus]
        est.kf = KalmanEstimator(est.kf.model, **noise[kind])
    with pytest.raises(RuntimeError, match=f"^local estimator {reported}"):
        run_locals([estimators[bus] for bus in order], trace)


def test_nan_measurement_stays_on_its_own_bus(reference_scenario):
    scn = reference_scenario
    sim = dataclasses.replace(scn.sim, duration_s=0.05, events=EventSchedule())
    trace = run_plant(sim)
    z_state = trace.z_state.copy()
    z_state[100, 0] = np.nan  # bus 1, v_d
    poisoned = dataclasses.replace(trace, z_state=z_state)

    def estimates(tr):
        return run_locals(
            [
                build_local_estimator(
                    sim.topology, b, scn.estimation.local_noise, 10_000.0
                )
                for b in (1, 2, 3)
            ],
            tr,
        )

    clean, dirty = estimates(trace), estimates(poisoned)
    assert np.isnan(dirty[1].x_hat[100:]).any()
    for bus in (2, 3):
        np.testing.assert_array_equal(dirty[bus].x_hat, clean[bus].x_hat)
        np.testing.assert_array_equal(dirty[bus].nis, clean[bus].nis)


def test_global_consumes_every_kth_local_sample(reference_scenario):
    scn = dataclasses.replace(
        reference_scenario, sim=quiet_sim(reference_scenario, duration=0.5)
    )
    trace = m.simulate_scenario(scn)
    result = m.estimate_scenario(scn, trace)
    local = result.local_estimates[1]
    ticks = downsample(local, 100.0)
    np.testing.assert_array_equal(ticks.x_hat, local.x_hat[::100])
    np.testing.assert_array_equal(result.global_trace.t, result.local_trace.t[::100])
    with pytest.raises(ValueError, match="divide"):
        downsample(local, 3000.0)


def test_global_rejects_misaligned_timestamps(reference_scenario):
    scn = dataclasses.replace(
        reference_scenario, sim=quiet_sim(reference_scenario, duration=0.3)
    )
    trace = m.simulate_scenario(scn)
    result = m.estimate_scenario(scn, trace)
    shifted = {
        bus: dataclasses.replace(
            downsample(tr, 100.0), t=downsample(tr, 100.0).t + 1e-3
        )
        for bus, tr in result.local_estimates.items()
    }
    with pytest.raises(ValueError, match="aligned"):
        run_global(result.global_estimator, shifted, result.global_trace)


def test_local_rate_mismatch_rejected(reference_scenario, reference_topology):
    trace = run_plant(quiet_sim(reference_scenario, duration=0.1))
    est = build_local_estimator(reference_topology, 1, LOCAL_SPEC, 5000.0)
    with pytest.raises(ValueError, match="Hz"):
        run_local(est, trace)


def test_local_estimator_at_divided_rate(reference_scenario, reference_topology):
    trace = run_plant(quiet_sim(reference_scenario, duration=0.2))
    half = downsample(trace, 5000.0)
    est = build_local_estimator(reference_topology, 2, LOCAL_SPEC, 5000.0)
    out = run_local(est, half)
    assert out.rate_hz == pytest.approx(5000.0)
    err = np.abs(out.x_hat - half.x_true[:, est.columns])
    assert err[-50:].max() < 1e-6


@pytest.mark.parametrize(
    "layer, what",
    [("local", "local estimator bus 1"), ("global", "global estimator")],
    ids=["local", "global"],
)
def test_filter_failure_reports_sample_index(reference_scenario, layer, what):
    scn = dataclasses.replace(
        reference_scenario, sim=quiet_sim(reference_scenario, duration=0.05)
    )
    result = m.estimate_scenario(scn, m.simulate_scenario(scn))
    est = result.local_estimators[0] if layer == "local" else result.global_estimator
    zeros = np.zeros((est.kf.n_states, est.kf.n_states))
    est.kf = KalmanEstimator(est.kf.model, q_eff=zeros, r=zeros, p0=zeros)
    with pytest.raises(RuntimeError, match=f"{what}: filter failure at sample 1 "):
        if layer == "local":
            run_local(est, result.local_trace)
        else:
            ticks = {
                bus: downsample(tr, est.rate_hz)
                for bus, tr in result.local_estimates.items()
            }
            run_global(est, ticks, result.global_trace)


def test_rmse_examples():
    a = np.arange(12.0).reshape(6, 2)
    per, agg = rmse(a, a)
    np.testing.assert_array_equal(per, np.zeros(2))
    assert agg == 0.0
    per, agg = rmse(a + np.array([3.0, -4.0]), a)
    np.testing.assert_allclose(per, [3.0, 4.0])
    assert agg == pytest.approx(math.sqrt((9 + 16) / 2))
    rng = np.random.default_rng(4)
    noise = rng.standard_normal((100_000, 1)) * 2.5
    per, _ = rmse(a[:1, :1] + noise, np.broadcast_to(a[:1, :1], noise.shape))
    assert per[0] == pytest.approx(2.5, rel=0.05)


def test_rmse_shape_mismatch():
    with pytest.raises(ValueError):
        rmse(np.zeros((3, 2)), np.zeros((4, 2)))


def test_tracking_recovery_time_synthetic():
    dt = 1e-3
    t = np.arange(0, 1.0, dt)
    rng = np.random.default_rng(6)
    err = rng.standard_normal((t.size, 2))
    event = 0.5
    tau = 0.01
    transient = 50.0 * np.exp(-np.clip(t - event, 0.0, None) / tau)
    transient[t < event] = 0.0
    err[:, 0] += transient
    pre = (t >= 0.1) & (t < event)
    rec = tracking_recovery_time(t, err, pre, event, horizon_s=0.2)
    expected = tau * math.log(50.0 / 3.0)  # decay below 3 sigma, sigma ~ 1
    assert rec == pytest.approx(expected, abs=0.02)
    # a transient that never decays inside the horizon reports inf
    err2 = rng.standard_normal((t.size, 2))
    err2[t >= event, 0] += 100.0
    rec2 = tracking_recovery_time(t, err2, pre, event, horizon_s=0.2)
    assert math.isinf(rec2)


def test_global_estimator_rejects_a_grid_without_lines():
    topo = MicrogridTopology(
        n_buses=1,
        dgus=(DguParams(r_t=1.1e-3, l_t=90e-6, c_t=50e-6),),
        lines=(),
        omega=2 * math.pi * 60.0,
    )
    with pytest.raises(ValueError, match="needs at least one line"):
        build_global_estimator(
            topo, q=np.eye(2), r=np.eye(2), rate_hz=100.0, input_covariance=np.zeros((0, 0))
        )
