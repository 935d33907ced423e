import dataclasses
import math

import numpy as np
import pytest
from metrics_oracle import oracle_metrics, recovery_time
from test_estimation import generated_mesh

import microdse as m
from microdse import EventSchedule, LoadStep, SimNoise, tracking_recovery_time
from microdse.config import MetricsSettings


def assert_matches_oracle(scn, result):
    """``compute_metrics`` against the per-channel oracle: the same
    channels, kinds, windows and events, ``None`` in the same places, and
    values within 1e-12 relative."""
    got = m.compute_metrics(scn, result)
    want = oracle_metrics(scn, result)

    def same(a, b, path):
        if isinstance(b, dict):
            assert isinstance(a, dict) and list(a) == list(b), path
            for key in b:
                same(a[key], b[key], f"{path}/{key}")
        elif isinstance(b, list):
            assert isinstance(a, list) and len(a) == len(b), path
            for i, (x, y) in enumerate(zip(a, b)):
                same(x, y, f"{path}[{i}]")
        elif isinstance(b, float):
            assert isinstance(a, float), path
            assert a == pytest.approx(b, rel=1e-12, abs=0.0), path
        else:
            assert a == b, path

    same(got["channels"], want["channels"], "channels")
    same(got["tracking"], want["tracking"], "tracking")
    return got


def with_metrics(scn, windows=None, events=None, noise=None):
    sim = scn.sim
    sim = dataclasses.replace(
        sim,
        events=sim.events if events is None else events,
        noise=sim.noise if noise is None else noise,
    )
    est = scn.estimation
    if windows is not None:
        est = dataclasses.replace(
            est, metrics=MetricsSettings(tuple(windows), est.metrics.tracking_horizon_s)
        )
    return dataclasses.replace(scn, sim=sim, estimation=est)


def run(scn):
    return m.estimate_scenario(scn, m.simulate_scenario(scn))


def test_metrics_match_the_oracle_on_the_reference_scenario(scenario_run):
    got = assert_matches_oracle(scenario_run["scenario"], scenario_run["result"])
    assert len(got["channels"]) == 18 and len(got["tracking"]) == 3


def test_metrics_match_the_oracle_on_a_generated_mesh():
    scn = with_metrics(
        generated_mesh(seed=11),
        windows=[(0.005, 0.02), (0.035, 0.05)],
        events=EventSchedule((LoadStep(0.025, 3, 150.0, 30.0),)),
    )
    got = assert_matches_oracle(scn, run(scn))
    assert len(got["channels"]) == 4 * 10 + 2 * 13
    assert len(got["tracking"]) == 10


@pytest.fixture(scope="module")
def short_reference():
    scn = m.bundled_scenario()
    sim = dataclasses.replace(
        scn.sim, duration_s=0.3, events=EventSchedule((LoadStep(0.15, 1, 150.0, 30.0),))
    )
    scn = dataclasses.replace(scn, sim=sim)
    return scn, run(scn)


def test_window_edges_on_samples_are_inclusive(short_reference):
    scn, result = short_reference
    t = result.local_trace.t
    # edges exactly on local samples; the upper one also on a global sample
    scn = with_metrics(scn, windows=[(t[1003], t[2000])])
    got = assert_matches_oracle(scn, result)
    (window,) = got["channels"]["v_d2"]["windows"]
    truth = result.local_trace.x_true[1003:2001, 4]
    expected = math.sqrt(np.mean(np.square(result.local_estimates[2].x_hat[1003:2001, 0] - truth)))
    assert window["rmse_estimate"] == pytest.approx(expected, rel=1e-12)
    assert len(got["channels"]["i_d12"]["windows"]) == 1


def test_window_without_samples_is_skipped(short_reference):
    scn, result = short_reference
    t = result.local_trace.t
    step = t[1] - t[0]
    # no local sample in the first window; local but no global samples in
    # the second
    scn = with_metrics(
        scn, windows=[(t[500] + 0.25 * step, t[500] + 0.75 * step), (t[501], t[520])]
    )
    got = assert_matches_oracle(scn, result)
    assert [w["window_s"] for w in got["channels"]["v_d1"]["windows"]] == [[t[501], t[520]]]
    assert got["channels"]["i_d12"]["windows"] == []


def test_zero_measurement_error_gives_a_null_ratio(reference_scenario):
    scn = with_metrics(
        reference_scenario,
        windows=[(0.05, 0.1)],
        events=EventSchedule(),
        noise=SimNoise.zero(),
    )
    scn = dataclasses.replace(scn, sim=dataclasses.replace(scn.sim, duration_s=0.1))
    got = assert_matches_oracle(scn, run(scn))
    for channel in got["channels"].values():
        (window,) = channel["windows"]
        assert window["rmse_measurement"] == 0.0
        assert window["improvement_ratio"] is None


def test_recovery_time_scores_every_group_as_alone():
    rng = np.random.default_rng(3)
    t = np.arange(0, 1.0, 1e-3)
    errors = rng.standard_normal((t.size, 5, 4))
    for g, (size, tau) in enumerate([(50.0, 0.01), (50.0, 0.03), (0.0, 0.01), (1e3, 1.0), (8.0, 0.02)]):
        errors[t >= 0.5, g, 1] += size * np.exp(-(t[t >= 0.5] - 0.5) / tau)
    pre = (t >= 0.1) & (t < 0.5)
    stacked = tracking_recovery_time(t, errors, pre, 0.5, 0.2)
    alone = [tracking_recovery_time(t, errors[:, g], pre, 0.5, 0.2) for g in range(5)]
    assert stacked.shape == (5,) and all(isinstance(a, float) for a in alone)
    np.testing.assert_array_equal(stacked, alone)
    assert alone[2] == 0.0 and math.isinf(alone[3]) and 0.0 < alone[0] < alone[1]


def test_recovery_time_rejects_an_empty_pre_event_window():
    t = np.arange(0, 0.3, 1e-3)
    errors = np.ones((t.size, 4))
    with pytest.raises(ValueError, match="pre-event window holds no samples"):
        tracking_recovery_time(t, errors, np.zeros(t.size, dtype=bool), 0.0, 0.1)


@pytest.mark.parametrize("event_time", [0.299, 0.2995])
def test_recovery_time_rejects_a_horizon_without_a_sample_after_the_event(event_time):
    t = np.arange(300) * 1e-3
    errors = np.ones((t.size, 4))
    pre = t < 0.2
    for recovery in (tracking_recovery_time, recovery_time):
        with pytest.raises(ValueError, match="no sample after the event's first"):
            recovery(t, errors, pre, event_time, 0.1)


def test_event_at_time_zero_fails_the_metrics(reference_scenario):
    scn = with_metrics(reference_scenario, events=EventSchedule((LoadStep(0.0, 1, 150.0, 30.0),)))
    scn = dataclasses.replace(scn, sim=dataclasses.replace(scn.sim, duration_s=0.3))
    result = run(scn)
    with pytest.raises(ValueError, match="event at 0.0 s: pre-event window holds no samples"):
        m.compute_metrics(scn, result)
