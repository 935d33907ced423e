"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them)."""

import dataclasses
import math

import numpy as np
import pytest

import microdse as m
from microdse import (
    DqSample,
    KalmanEstimator,
    NoiseSpec,
    build_coupled_plant,
    build_dgu_model,
    build_local_estimator,
    discretize_euler,
    discretize_exact,
    downsample,
    effective_process_noise,
    innovation_consistency,
    matrix_exponential,
    run_locals,
    run_plant,
    steady_state_residual_dgu,
    steady_state_residual_line,
)
from microdse.cli import main as cli_main
from microdse.pipeline import build_local_estimators

CRITERION_CHANNELS = ("v_d1", "v_q1", "i_td1", "i_tq1", "i_d12", "i_q12")


def _report(num, name, ok):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_scenario_reproduction(scenario_run):
    trace = scenario_run["trace"]
    assert len(trace) == 40001  # 4 s at 10 kHz
    assert trace.x_true.shape == (40001, 18)
    metrics = scenario_run["metrics"]
    failures = []
    for label in CRITERION_CHANNELS:
        windows = metrics["channels"][label]["windows"]
        assert [w["window_s"] for w in windows] == [[1.0, 2.0], [2.5, 4.0]]
        for w in windows:
            if not w["improvement_ratio"] < 0.5:
                failures.append((label, w))
    runtime_ok = scenario_run["elapsed_s"] < 10.0
    ok = not failures and runtime_ok
    _report(
        1,
        "scenario reproduction, estimate RMSE < 0.5x measurement, "
        f"simulate {scenario_run['simulate_s']:.2f} s + "
        f"estimate {scenario_run['estimate_s']:.2f} s",
        ok,
    )
    assert not failures, failures
    assert runtime_ok, f"scenario took {scenario_run['elapsed_s']:.1f} s"


def test_criterion_2_tracking_through_event(scenario_run):
    tracking = scenario_run["metrics"]["tracking"]
    recoveries = {
        name: events[0]["recovery_time_s"] for name, events in tracking.items()
    }
    ok = all(r is not None and r <= 0.1 for r in recoveries.values())
    _report(2, "local estimators re-converge within 0.1 s of the load step", ok)
    assert ok, recoveries


def test_criterion_3_equilibrium_consistency(reference_topology):
    topo = reference_topology
    model = build_coupled_plant(topo)
    vt = np.array([[11000.0, 150.0], [10980.0, 140.0], [11020.0, 160.0]])
    loads = np.array([[150.0, 30.0], [220.0, 40.0], [180.0, 35.0]])
    u = np.concatenate([vt.reshape(-1), loads.reshape(-1)])
    x_star = np.linalg.solve(model.a, -(model.b @ u))

    inc = np.zeros((3, 3))
    for j, line in enumerate(topo.lines):
        inc[line.from_bus - 1, j] = 1.0
        inc[line.to_bus - 1, j] = -1.0
    i_line = x_star[12:].reshape(3, 2)
    worst = 0.0
    for b in range(3):
        i_o = loads[b] + inc[b] @ i_line
        u_dgu = np.array([vt[b, 0], vt[b, 1], i_o[0], i_o[1]])
        res = steady_state_residual_dgu(
            x_star[4 * b : 4 * b + 4], u_dgu, topo.dgus[b], topo.omega
        )
        worst = max(worst, np.abs(res).max())
    for j, line in enumerate(topo.lines):
        fi, ti = line.from_bus - 1, line.to_bus - 1
        res = steady_state_residual_line(
            DqSample(*i_line[j]),
            DqSample(x_star[4 * fi], x_star[4 * fi + 1]),
            DqSample(x_star[4 * ti], x_star[4 * ti + 1]),
            line,
            topo.omega,
        )
        worst = max(worst, np.abs(res).max())
    residual_ok = worst < 1e-9

    cfg = m.SimConfig(
        topology=topo,
        duration_s=1.0,
        plant_step_s=1e-4,
        seed=0,
        initial_loads=loads,
        controller=None,
        fixed_terminal_voltage=vt,
        start="equilibrium",
    )
    trace = run_plant(cfg)
    drift = np.abs(trace.x_true - x_star).max()
    drift_ok = drift < 1e-9
    ok = residual_ok and drift_ok
    _report(3, "equilibrium residuals and zero-noise drift below 1e-9", ok)
    assert residual_ok, f"worst steady-state residual {worst:.3e}"
    assert drift_ok, f"max drift over 1 s: {drift:.3e}"


def test_criterion_4_discretization_order(reference_topology):
    model = build_dgu_model(reference_topology.dgus[0], reference_topology.omega)
    errs = []
    for t_s in (1e-4, 5e-5):
        diff = discretize_euler(model, t_s).a_d - discretize_exact(model, t_s).a_d
        errs.append(np.linalg.norm(diff, 2))
    ratio = errs[0] / errs[1]
    ratio_ok = 3.6 <= ratio <= 4.4

    theta = 1.2
    rot = matrix_exponential(np.array([[0.0, theta], [-theta, 0.0]]))
    expected = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )
    expm_ok = np.abs(rot - expected).max() < 1e-12
    ok = ratio_ok and expm_ok
    _report(4, "second-order Euler error and exact rotation exponential", ok)
    assert ratio_ok, f"error ratio {ratio:.3f}"
    assert expm_ok


def test_criterion_5_kalman_core(reference_topology):
    # scalar hand-computed case
    model = m.DiscreteLtiModel(np.array([[1.0]]), np.array([[0.0]]), 1.0, "euler")
    est = KalmanEstimator(
        model, q_eff=np.array([[0.0]]), r=np.array([[1.0]]),
        x0=np.array([0.0]), p0=np.array([[1.0]]),
    )
    est.update(np.array([2.0]))
    scalar_ok = est.x_hat[0] == 1.0 and est.p[0, 0] == 0.5

    # steady-state covariance equals the fixed point of the iteration
    disc = discretize_exact(build_dgu_model(reference_topology.dgus[0], reference_topology.omega), 1e-4)
    q = np.diag([0.01, 0.01, 0.04, 0.04])
    r = np.eye(4)
    filt = KalmanEstimator(disc, q_eff=q, r=r)
    rng = np.random.default_rng(3)
    for _ in range(3000):
        filt.step(rng.standard_normal(4), rng.standard_normal(4))
    p = r.copy()
    for _ in range(100_000):
        p_prior = disc.a_d @ p @ disc.a_d.T + q
        k = p_prior @ np.linalg.inv(r + p_prior)
        i_k = np.eye(4) - k
        p_next = i_k @ p_prior @ i_k.T + k @ r @ k.T
        if np.abs(p_next - p).max() < 1e-14:
            p = p_next
            break
        p = p_next
    riccati_ok = np.abs(filt.p - p).max() < 1e-9

    # symmetry and positive semidefiniteness over 1e5 random-noise steps
    spec = NoiseSpec.from_std([0.5] * 4, [30.0, 30.0, 20.0, 20.0], [2.0, 2.0, 1.0, 1.0])
    est5 = KalmanEstimator(
        disc, q_eff=effective_process_noise(spec.q, disc.b_d, spec.m), r=spec.r
    )
    sym_ok = psd_ok = True
    us = rng.standard_normal((100_000, 4)) * 100
    zs = rng.standard_normal((100_000, 4)) * 100
    for k in range(100_000):
        est5.step(us[k], zs[k])
        if np.abs(est5.p - est5.p.T).max() >= 1e-10:
            sym_ok = False
            break
        if np.linalg.eigvalsh(est5.p).min() < -1e-10:
            psd_ok = False
            break
    ok = scalar_ok and riccati_ok and sym_ok and psd_ok
    _report(5, "Kalman scalar case, Riccati fixed point, covariance health", ok)
    assert scalar_ok
    assert riccati_ok
    assert sym_ok and psd_ok


def test_criterion_6_noisy_input_correction(reference_topology):
    rng = np.random.default_rng(14)
    psd_ok = True
    for _ in range(100):
        n, mdim = rng.integers(1, 6), rng.integers(1, 6)
        gq = rng.standard_normal((n, n))
        gm = rng.standard_normal((mdim, mdim))
        b = rng.standard_normal((n, mdim))
        q_eff = effective_process_noise(gq @ gq.T, b, gm @ gm.T)
        if np.linalg.eigvalsh(q_eff).min() < -1e-10 * max(1.0, np.abs(q_eff).max()):
            psd_ok = False

    # Monte Carlo: filter with corrected covariance vs filter with bare Q
    disc = discretize_exact(build_dgu_model(reference_topology.dgus[0], reference_topology.omega), 1e-4)
    q = np.diag([0.25] * 4)
    r = np.diag([2500.0, 2500.0, 400.0, 400.0])
    m_cov = np.diag([400.0, 400.0, 25.0, 25.0])
    q_eff = effective_process_noise(q, disc.b_d, m_cov)
    steps = 3000
    t = np.arange(steps) * 1e-4
    u_base = np.column_stack(
        [
            11000.0 + 500.0 * np.sin(2 * np.pi * 3.0 * t),
            200.0 * np.cos(2 * np.pi * 2.0 * t),
            150.0 + 80.0 * np.sin(2 * np.pi * 5.0 * t),
            40.0 + 20.0 * np.cos(2 * np.pi * 1.0 * t),
        ]
    )
    scores = {"corrected": [], "bare": []}
    for seed in range(20):
        srng = np.random.default_rng(100 + seed)
        w = srng.multivariate_normal(np.zeros(4), q, size=steps)
        mn = srng.multivariate_normal(np.zeros(4), m_cov, size=steps)
        v = srng.multivariate_normal(np.zeros(4), r, size=steps)
        x = np.zeros(4)
        truth = np.empty((steps, 4))
        for k in range(steps):
            x = disc.a_d @ x + disc.b_d @ u_base[k] + w[k]
            truth[k] = x
        z = truth + v
        u_meas = u_base + mn
        for name, qq in (("corrected", q_eff), ("bare", q)):
            kf = KalmanEstimator(disc, q_eff=qq, r=r, x0=z[0], p0=r.copy())
            err = np.empty((steps - 1, 4))
            for k in range(1, steps):
                kf.step(u_meas[k - 1], z[k])
                err[k - 1] = kf.x_hat - truth[k]
            tail = err[steps // 2 :]
            scores[name].append(float(np.sqrt(np.mean(tail**2))))
    mean_corrected = np.mean(scores["corrected"])
    mean_bare = np.mean(scores["bare"])
    mc_ok = mean_corrected <= mean_bare
    ok = psd_ok and mc_ok
    _report(6, "input-noise corrected covariance is PSD and not worse", ok)
    assert psd_ok
    assert mc_ok, f"corrected {mean_corrected:.3f} vs bare {mean_bare:.3f}"


def test_criterion_7_multirate_decentralization(scenario_run):
    # decentralization: each bus run alone equals the same bus in the
    # pipeline's full batch and in a batch run in reversed order
    scn = scenario_run["scenario"]
    trace = scenario_run["trace"]
    result = scenario_run["result"]
    reversed_batch = run_locals(build_local_estimators(scn)[::-1], trace)
    alone = {
        est.bus: run_locals([est], trace)[est.bus] for est in build_local_estimators(scn)
    }
    bit_ok = all(
        np.array_equal(alone[bus].x_hat, result.local_estimates[bus].x_hat)
        and np.array_equal(alone[bus].x_hat, reversed_batch[bus].x_hat)
        for bus in (1, 2, 3)
    )
    local = result.local_estimates[1]
    ticks = downsample(local, 100.0)
    decim_ok = (
        np.array_equal(ticks.x_hat, local.x_hat[::100])
        and np.array_equal(result.global_trace.t, result.local_trace.t[::100])
        and result.global_estimate.t.shape[0] == (len(result.local_trace) - 1) // 100 + 1
    )
    ok = bit_ok and decim_ok
    _report(7, "bus alone == bus in batch, any order; global eats every 100th", ok)
    assert bit_ok
    assert decim_ok


def test_criterion_8_filter_consistency(reference_topology):
    disc = discretize_exact(build_dgu_model(reference_topology.dgus[0], reference_topology.omega), 1e-4)
    q = np.diag([0.25, 0.25, 0.25, 0.25])
    r = np.diag([900.0, 900.0, 400.0, 400.0])
    est = KalmanEstimator(disc, q_eff=q, r=r)
    rng = np.random.default_rng(77)
    u = np.array([11000.0, 100.0, 150.0, 30.0])
    x = np.zeros(4)
    steps = 10_000
    innovations = np.empty((steps, 4))
    covs = np.empty((steps, 4, 4))
    for k in range(steps):
        x = disc.a_d @ x + disc.b_d @ u + rng.multivariate_normal(np.zeros(4), q)
        z = x + rng.multivariate_normal(np.zeros(4), r)
        innovations[k], _ = est.step(u, z)
        covs[k] = est.innovation_cov
    stat = innovation_consistency(innovations, covs)
    ok = 0.75 * 4 <= stat <= 1.25 * 4
    _report(8, f"normalized innovation squared = {stat:.3f} in [3, 5]", ok)
    assert ok, stat


def test_criterion_9_reproducible_csv_output(tmp_path):
    args = ["simulate", "--duration", "0.4", "--event-time", "0.2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    ok = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("truth.csv", "measurements.csv")
    )
    _report(9, "identical config and seed give byte-identical CSVs", ok)
    assert ok
