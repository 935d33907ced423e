import dataclasses
import math

import numpy as np
import pytest
from filter_oracle import (
    assert_close,
    assert_matches_oracle,
    dare_oracle,
    filter_schedule,
    riccati_oracle,
    step_oracle,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microdse import (
    DiscreteLtiModel,
    KalmanEstimator,
    NoiseSpec,
    build_dgu_model,
    discretize_exact,
    effective_process_noise,
    steady_state_covariance,
)
from microdse import kalman
from microdse.kalman import (
    CovarianceError,
    _linear_recursion,
    filter_record,
    gain_schedule,
    schedules_of,
)
from microdse.models import DguParams
from microdse.pipeline import build_local_estimators

OMEGA_60 = 2 * math.pi * 60.0
DGU1 = DguParams(r_t=1.1e-3, l_t=90e-6, c_t=50e-6)


def scalar_estimator(a=1.0, b=0.0, q=0.0, r=1.0, p0=1.0):
    model = DiscreteLtiModel(np.array([[a]]), np.array([[b]]), 1.0, "euler")
    return KalmanEstimator(model, q_eff=np.array([[q]]), r=np.array([[r]]), p0=np.array([[p0]]))


def dgu_discrete(t_s=1e-4):
    return discretize_exact(build_dgu_model(DGU1, OMEGA_60), t_s)


def test_noise_spec_rejects_asymmetric_and_indefinite():
    with pytest.raises(ValueError, match="symmetric"):
        NoiseSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="semidefinite"):
        NoiseSpec(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), np.eye(2))


@pytest.mark.parametrize("name", ["q_eff", "r", "p0"])
def test_filter_covariances_reject_non_finite_entries(name):
    noise = {"q_eff": np.eye(4), "r": np.eye(4), "p0": np.eye(4)}
    noise[name][1, 1] = np.nan
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        KalmanEstimator(dgu_discrete(), **noise)


def test_noise_spec_rejects_non_finite_std():
    with pytest.raises(ValueError, match="^q must be finite$"):
        NoiseSpec.from_std([np.nan, 1.0, 1.0, 1.0], [1.0] * 4, [1.0] * 4)
    with pytest.raises(ValueError, match="^m must be finite$"):
        NoiseSpec.from_std([1.0] * 4, [1.0] * 4, [1.0, np.inf, 1.0, 1.0])


def test_noise_spec_from_std():
    spec = NoiseSpec.from_std([1.0, 2.0], [3.0, 4.0], [0.5, 0.5])
    np.testing.assert_array_equal(spec.q, np.diag([1.0, 4.0]))
    np.testing.assert_array_equal(spec.r, np.diag([9.0, 16.0]))


def test_effective_process_noise_limits():
    q = np.diag([1.0, 2.0])
    np.testing.assert_array_equal(
        effective_process_noise(q, np.eye(2), np.zeros((2, 2))), q
    )
    m = np.diag([3.0, 4.0])
    np.testing.assert_array_equal(
        effective_process_noise(np.zeros((2, 2)), np.eye(2), m), m
    )


def test_effective_process_noise_hand_case():
    out = effective_process_noise(
        np.eye(2), np.array([[2.0], [0.0]]), np.array([[1.0]])
    )
    np.testing.assert_array_equal(out, np.array([[5.0, 0.0], [0.0, 1.0]]))


def test_effective_process_noise_dimension_mismatch():
    with pytest.raises(ValueError):
        effective_process_noise(np.eye(3), np.ones((2, 1)), np.eye(1))
    with pytest.raises(ValueError):
        effective_process_noise(np.eye(2), np.ones((2, 1)), np.eye(2))


def test_effective_process_noise_psd_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n, mdim = rng.integers(1, 6), rng.integers(1, 6)
        gq = rng.standard_normal((n, n))
        gm = rng.standard_normal((mdim, mdim))
        b = rng.standard_normal((n, mdim))
        out = effective_process_noise(gq @ gq.T, b, gm @ gm.T)
        assert np.linalg.eigvalsh(out).min() >= -1e-10 * max(1.0, np.abs(out).max())


def test_update_scalar_hand_recursion():
    # A=1, B=0, Q=0 leaves the update alone. P=1, R=1, estimate 0,
    # measurement 2: S=2, K=0.5, estimate 1, Joseph P = 0.25 + 0.25 = 0.5
    est = scalar_estimator(p0=1.0, r=1.0)
    est.step(np.array([0.0]), np.array([2.0]))
    assert est.x_hat[0] == 1.0
    assert est.p[0, 0] == 0.5


def test_predict_scalar_covariance():
    # A=2, B=1, Q=0.5, P=1, R=1, estimate 0, input 1, measurement 12:
    # prior estimate 1 and P_prior 4.5, S=5.5, K=9/11, estimate 1 + 9 = 10,
    # Joseph P = (2/11)^2 4.5 + (9/11)^2 = 9/11
    est = scalar_estimator(a=2.0, b=1.0, q=0.5, p0=1.0, r=1.0)
    est.step(np.array([1.0]), np.array([12.0]))
    assert est.x_hat[0] == pytest.approx(10.0, rel=1e-15)
    assert est.p[0, 0] == pytest.approx(9.0 / 11.0, rel=1e-15)


def test_predict_rejects_wrong_input_shape():
    est = scalar_estimator()
    with pytest.raises(ValueError, match="^input must have shape"):
        est.step(np.array([1.0, 2.0]), np.array([0.0]))
    assert est.x_hat[0] == 0.0 and est.p[0, 0] == 1.0


def test_update_rejects_wrong_measurement_shape():
    est = scalar_estimator()
    with pytest.raises(ValueError, match="^measurement must have shape"):
        est.step(np.array([0.0]), np.array([1.0, 2.0]))
    assert est.x_hat[0] == 0.0 and est.p[0, 0] == 1.0


def test_update_huge_r_leaves_estimate():
    model = DiscreteLtiModel(np.eye(2), np.zeros((2, 1)), 1.0, "euler")
    est = KalmanEstimator(model, q_eff=np.zeros((2, 2)), r=1e12 * np.eye(2), p0=np.eye(2))
    est.step(np.zeros(1), np.array([5.0, 5.0]))
    assert np.abs(est.x_hat).max() < 1e-10


def test_update_zero_innovation_contracts_covariance():
    est = scalar_estimator(p0=2.0, r=1.0)
    est.step(np.array([0.0]), np.array([0.0]))
    assert est.x_hat[0] == 0.0
    assert est.p[0, 0] < 2.0


def test_step_matches_the_oracle_from_zero():
    """``step`` starts from a zero estimate, so it runs the oracle's
    filter over a record whose first measurement is zero."""
    disc = dgu_discrete()
    spec = NoiseSpec.from_std([0.5] * 4, [30.0, 30.0, 20.0, 20.0], [2.0, 2.0, 1.0, 1.0])
    est = KalmanEstimator(disc, q_eff=effective_process_noise(spec.q, disc.b_d, spec.m), r=spec.r)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((50, 4)) * 100.0
    z = rng.standard_normal((51, 4)) * 100.0
    z[0] = 0.0
    oracle = step_oracle(est, z, u)
    for k in range(1, 51):
        est.step(u[k - 1], z[k])
        assert_close(est.x_hat, oracle.x_hat[k])
        assert_close(est.p, oracle.p[k - 1])


def test_exact_measurements_drive_estimate_to_truth():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((3, 3))
    a *= 0.9 / np.abs(np.linalg.eigvals(a)).max()
    b = rng.standard_normal((3, 2))
    model = DiscreteLtiModel(a, b, 1.0, "euler")
    est = KalmanEstimator(model, q_eff=np.zeros((3, 3)), r=1e-9 * np.eye(3), p0=np.eye(3))
    # the truth starts far from the estimate's zero
    x = np.array([100.0, -50.0, 20.0])
    for _ in range(100):
        u = rng.standard_normal(2)
        x = a @ x + b @ u
        est.step(u, x)
    assert np.abs(est.x_hat - x).max() < 1e-6


def test_covariance_converges_to_riccati_fixed_point():
    disc = dgu_discrete()
    q = np.diag([0.01, 0.01, 0.04, 0.04])
    r = np.eye(4)
    est = KalmanEstimator(disc, q_eff=q, r=r)
    rng = np.random.default_rng(2)
    for _ in range(3000):
        est.step(rng.standard_normal(4), rng.standard_normal(4))
    p_star = riccati_oracle(disc.a_d, q, r)
    assert np.abs(est.p - p_star).max() < 1e-9
    assert np.abs(steady_state_covariance(disc.a_d, q, r) - p_star).max() < 1e-9
    # the limit satisfies the fixed-point equation itself
    p_prior = disc.a_d @ p_star @ disc.a_d.T + q
    k = p_prior @ np.linalg.inv(r + p_prior)
    i_k = np.eye(4) - k
    residual = i_k @ p_prior @ i_k.T + k @ r @ k.T - p_star
    assert np.abs(residual).max() < 1e-9


def test_covariance_stays_symmetric_psd_under_random_steps():
    disc = dgu_discrete()
    spec = NoiseSpec.from_std([0.5] * 4, [30.0, 30.0, 20.0, 20.0], [2.0, 2.0, 1.0, 1.0])
    est = KalmanEstimator(
        disc, q_eff=effective_process_noise(spec.q, disc.b_d, spec.m), r=spec.r
    )
    rng = np.random.default_rng(9)
    for _ in range(2000):
        est.step(rng.standard_normal(4) * 100, rng.standard_normal(4) * 100)
        assert np.abs(est.p - est.p.T).max() < 1e-10
        assert np.linalg.eigvalsh(est.p).min() >= -1e-10


def test_larger_r_never_gains_more():
    # the covariance reduction K S K^T = P_prior - P_post shrinks when R
    # grows; with A = I and Q = 0, P_prior is P
    rng = np.random.default_rng(21)
    for n in (1, 2):
        g = rng.standard_normal((n, n))
        p0 = g @ g.T + np.eye(n)
        extra = rng.standard_normal((n, n))
        r1 = np.eye(n)
        r2 = r1 + extra @ extra.T
        reductions = []
        for r in (r1, r2):
            model = DiscreteLtiModel(np.eye(n), np.zeros((n, 1)), 1.0, "euler")
            est = KalmanEstimator(model, q_eff=np.zeros((n, n)), r=r, p0=p0)
            est.step(np.zeros(1), rng.standard_normal(n))
            reductions.append(np.diag(p0 - est.p))
        assert (reductions[1] <= reductions[0] + 1e-12).all()


def test_input_noise_term_has_zero_mean():
    disc = dgu_discrete()
    m_cov = np.diag([4.0, 4.0, 1.0, 1.0])
    rng = np.random.default_rng(33)
    draws = rng.multivariate_normal(np.zeros(4), m_cov, size=100_000)
    pushed = draws @ disc.b_d.T
    mean = pushed.mean(axis=0)
    sigma = math.sqrt(np.trace(disc.b_d @ m_cov @ disc.b_d.T))
    assert np.linalg.norm(mean) < 4.0 * sigma / math.sqrt(100_000)


def _generative_nis(steps, q_std, r_std, seed, bias=0.0):
    """The NIS of ``filter_record`` over samples 1.. of a record drawn from
    the filter's own model, with ``bias`` added to every measurement."""
    disc = dgu_discrete()
    q = np.diag(np.square(q_std))
    r = np.diag(np.square(r_std))
    rng = np.random.default_rng(seed)
    x = np.zeros(4)
    u = np.tile([11000.0, 100.0, 150.0, 30.0], (steps, 1))
    z = np.empty((steps, 4))
    for k in range(steps):
        x = disc.a_d @ x + disc.b_d @ u[k] + rng.multivariate_normal(np.zeros(4), q)
        z[k] = x + rng.multivariate_normal(np.zeros(4), r) + bias
    _, nis = filter_record([KalmanEstimator(disc, q_eff=q, r=r)], z[:, None], u[:, None])
    return nis[0, 1:]


def test_innovation_consistency_on_generative_model():
    nis = _generative_nis(10_000, [0.5, 0.5, 0.5, 0.5], [30.0, 30.0, 20.0, 20.0], seed=101)
    assert 3.5 < nis.mean() < 4.5


def test_innovation_consistency_zero_noise_is_zero():
    disc = dgu_discrete()
    u = np.tile([500.0, 10.0, 5.0, 1.0], (100, 1))
    z = np.empty((100, 4))
    x = np.zeros(4)
    for k in range(100):
        x = z[k] = disc.a_d @ x + disc.b_d @ u[k]
    est = KalmanEstimator(disc, q_eff=np.zeros((4, 4)), r=np.eye(4))
    _, nis = filter_record([est], z[:, None], u[:, None])
    assert nis[0, 1:].mean() < 1e-12


def test_innovation_consistency_detects_bias():
    r_std = np.array([30.0, 30.0, 20.0, 20.0])
    stat_u = _generative_nis(3000, [0.5] * 4, r_std, seed=7).mean()
    stat_b = _generative_nis(3000, [0.5] * 4, r_std, seed=7, bias=5.0 * r_std).mean()
    assert stat_b > 1.25 * 4
    assert stat_b > stat_u + 5.0


def test_singular_innovation_covariance_raises():
    est = scalar_estimator(q=0.0, r=0.0, p0=0.0)
    with pytest.raises(CovarianceError, match="not positive definite") as info:
        est.step(np.array([0.0]), np.array([1.0]))
    assert info.value.step is None


@pytest.mark.parametrize("eps", [1e-14, 1e-12, 5e-12])
def test_record_and_step_filters_give_one_innovation_verdict(eps):
    """R = G diag(eps, 3) G^T with G a rotation by 0.3 rad, a condition
    number of 6e11 to 3e14 around the 1e12 bound: ``filter_record`` and
    ``KalmanEstimator.step`` must both accept or both reject it, and give
    the oracle's estimates where they accept.  The record's first
    measurement is zero, the estimate ``step`` starts from."""
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    r = rot @ np.diag([eps, 3.0]) @ rot.T
    model = DiscreteLtiModel(np.eye(2), np.array([[1.0], [0.5]]), 1.0, "euler")

    def fresh():
        return KalmanEstimator(model, q_eff=np.zeros((2, 2)), r=r, p0=np.zeros((2, 2)))

    rng = np.random.default_rng(12)
    z = rng.standard_normal((20, 2))
    z[0] = 0.0
    u = rng.standard_normal((20, 1))

    def stepped():
        kf = fresh()
        x_hat = np.zeros_like(z)
        for k in range(1, len(z)):
            kf.step(u[k - 1], z[k])
            x_hat[k] = kf.x_hat
        return x_hat

    outcomes = []
    for run in (lambda: filter_record([fresh()], z[:, None], u[:, None])[0][0], stepped):
        try:
            outcomes.append(run())
        except CovarianceError as exc:
            outcomes.append(str(exc))
    record, step = outcomes
    assert isinstance(record, str) == isinstance(step, str) == (eps < 1e-12)
    if isinstance(record, str):
        assert record == step and "numerically singular" in record
    else:
        expected = step_oracle(fresh(), z, u).x_hat
        assert_close(record, expected)
        assert_close(step, expected)


def _stack(*matrices):
    """Each matrix as a stack of one, for ``gain_schedule``."""
    return [m[None] for m in matrices]


def _random_filter(seed, n, n_inputs, radius):
    """A stable model with random PSD q_eff, r and p0 (r kept well conditioned)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= radius / max(np.abs(np.linalg.eigvals(a)).max(), 1e-12)
    b = rng.standard_normal((n, n_inputs))
    gq, gr, gp = (rng.standard_normal((n, n)) for _ in range(3))
    # small q with a slow model gives a steady gain with slow closed-loop
    # dynamics, which carry state across many samples
    q = gq @ gq.T * 10.0 ** rng.uniform(-6.0, 0.3)
    r = gr @ gr.T + np.diag(rng.uniform(0.1, 1.0, n))
    p0 = gp @ gp.T * rng.uniform(0.0, 5.0)
    model = DiscreteLtiModel(a, b, 1.0, "euler")
    return model, q, r, p0, rng


def _compare_with_oracle(seed, n, n_inputs, radius, steps):
    model, q, r, p0, rng = _random_filter(seed, n, n_inputs, radius)
    z = rng.standard_normal((steps, n)) * 10.0 + 50.0
    u = rng.standard_normal((steps, n_inputs))
    split = KalmanEstimator(model, q_eff=q, r=r, p0=p0)
    x_hat, nis = (out[0] for out in filter_record([split], z[:, None], u[:, None]))
    schedule = filter_schedule(schedules_of([split], steps - 1))
    assert_matches_oracle(x_hat, nis, schedule, step_oracle(split, z, u), p0)
    return schedule


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    n_inputs=st.integers(1, 4),
    radius=st.floats(0.0, 0.999),
    steps=st.integers(2, 700),
)
# a slow loop whose final estimate differs from the oracle's by 3.5e-9,
# just above 1e-9 of that one sample but well inside the record's scale
@example(seed=0, n=1, n_inputs=2, radius=0.9765625, steps=661)
def test_split_filter_matches_step_oracle(seed, n, n_inputs, radius, steps):
    _compare_with_oracle(seed, n, n_inputs, radius, steps)


@pytest.mark.parametrize("seed,radius", [(3, 0.9), (4, 0.9), (5, 0.999)])
def test_split_filter_matches_oracle_on_both_sides_of_convergence(seed, radius):
    model, q, r, p0, _ = _random_filter(seed, 4, 2, radius)
    converged_at = gain_schedule(*_stack(model.a_d, q, r, p0), 100_000).lengths[0]
    assert 2 < converged_at < 5_000
    before = _compare_with_oracle(seed, 4, 2, radius, converged_at)
    assert not before.converged
    after = _compare_with_oracle(seed, 4, 2, radius, converged_at + 500)
    assert after.converged and after.gains.shape[0] == converged_at


def _compare_stack_with_oracle(filters, steps, rng):
    """Run ``filters`` [(model, q, r, p0), ...] as one stack through
    ``filter_record``, each on its own record, against its own step oracle;
    check that each filter alone gets the same bits as in the stack, and
    return the stack's schedules."""

    def fresh():
        return [KalmanEstimator(model, q_eff=q, r=r, p0=p0) for model, q, r, p0 in filters]

    n, n_inputs = filters[0][0].n_states, filters[0][0].n_inputs
    z = rng.standard_normal((steps, len(filters), n)) * 10.0 + 50.0
    u = rng.standard_normal((steps, len(filters), n_inputs))
    split = fresh()
    x_hat, nis = filter_record(split, z, u)
    stacked = schedules_of(split, steps - 1)
    schedules = [filter_schedule(stacked, i) for i in range(len(filters))]
    for i, (sched, kf) in enumerate(zip(schedules, split)):
        oracle = step_oracle(kf, z[:, i], u[:, i])
        assert_matches_oracle(x_hat[i], nis[i], sched, oracle, kf.p0)
        alone_x, alone_nis = filter_record([fresh()[i]], z, u, [i])
        np.testing.assert_array_equal(alone_x[0], x_hat[i])
        np.testing.assert_array_equal(alone_nis[0], nis[i])
    return schedules


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_filters=st.integers(1, 6),
    n=st.integers(1, 6),
    n_inputs=st.integers(1, 4),
    radii=st.lists(st.floats(0.0, 0.999), min_size=6, max_size=6),
    steps=st.integers(1, 400),
)
# a one-sample record: an empty schedule and no update
@example(seed=0, n_filters=3, n=2, n_inputs=1, radii=[0.5] * 6, steps=1)
def test_stacked_schedule_matches_step_oracle(seed, n_filters, n, n_inputs, radii, steps):
    filters = [
        _random_filter(seed + i, n, n_inputs, radii[i])[:4] for i in range(n_filters)
    ]
    _compare_stack_with_oracle(filters, steps, np.random.default_rng(seed))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_filters=st.integers(1, 6),
    n=st.integers(1, 4),
    n_inputs=st.integers(1, 3),
    radii=st.lists(st.floats(0.0, 0.95), min_size=6, max_size=6),
    end=st.sampled_from(["before", "inside", "after"]),
    blocks=st.integers(1, 4),
    edge=st.sampled_from([-1, 0, 1]),
    segment_blocks=st.integers(1, 3),
)
def test_stacked_pass_matches_step_oracle_around_cuts_and_segment_edges(
    seed, n_filters, n, n_inputs, radii, end, blocks, edge, segment_blocks
):
    """Records that end before every filter's cut, between cuts, or after
    all of them with the latest-cut filter's steady tail 64k - 1, 64k or
    64k + 1 rows long, run in segments of two or three blocks, so that the
    tails cross segment edges."""
    filters = [
        _random_filter(seed + i, n, n_inputs, radii[i])[:4] for i in range(n_filters)
    ]
    cuts = sorted(
        gain_schedule(*_stack(model.a_d, q, r, p0), 100_000).lengths[0]
        for model, q, r, p0 in filters
    )
    if end == "before":
        updates = max(1, cuts[0] - 1)
    elif end == "inside":
        updates = (cuts[0] + cuts[-1]) // 2
    else:
        updates = cuts[-1] + kalman._BLOCK * blocks + edge
    budget = segment_blocks * n_filters * n * kalman._BLOCK
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kalman, "_SEGMENT_VALUES", budget)
        _compare_stack_with_oracle(filters, updates + 1, np.random.default_rng(seed))


def test_tail_that_ends_segments_before_another_equals_its_lone_run():
    """Under a two-block segment budget, one filter's steady tail ends at
    least one full segment before another's, so it runs whole segments on
    zero input; each filter still equals its lone run and the step oracle."""
    filters = [
        _random_filter(seed, 4, 2, radius)[:4] for seed, radius in ((5, 0.999), (6, 0.5))
    ]
    cuts = [
        gain_schedule(*_stack(model.a_d, q, r, p0), 100_000).lengths[0]
        for model, q, r, p0 in filters
    ]
    segment = 2 * kalman._BLOCK
    # the tails differ by the cuts' difference
    assert max(cuts) - min(cuts) >= 2 * segment
    updates = max(cuts) + 3 * kalman._BLOCK + 5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kalman, "_SEGMENT_VALUES", len(filters) * 4 * segment)
        schedules = _compare_stack_with_oracle(filters, updates + 1, np.random.default_rng(11))
    assert all(s.converged for s in schedules)


def test_stack_cut_inside_some_schedules_equals_each_filter_alone():
    filters = [
        _random_filter(seed, 4, 2, radius)[:4]
        for seed, radius in ((3, 0.9), (4, 0.9), (5, 0.999))
    ]
    alone = [
        filter_schedule(gain_schedule(*_stack(model.a_d, q, r, p0), 100_000))
        for model, q, r, p0 in filters
    ]
    lengths = [s.gains.shape[0] for s in alone]
    # the record ends after the middle filter's convergence step
    updates = sorted(lengths)[1]
    schedules = _compare_stack_with_oracle(filters, updates + 1, np.random.default_rng(9))
    converged = [s.converged for s in schedules]
    assert converged == [length <= updates for length in lengths]
    assert any(converged) and not all(converged)
    for sched, solo in zip(schedules, alone):
        m = sched.gains.shape[0]
        assert m == min(updates, solo.gains.shape[0])
        np.testing.assert_array_equal(sched.gains, solo.gains[:m])
        np.testing.assert_array_equal(sched.s_inv, solo.s_inv[:m])
        if sched.converged:
            np.testing.assert_array_equal(sched.p, solo.p)


def _stacks(filters):
    """The stacks (a_d, q, r, p0) of ``_random_filter`` draws."""
    models, q, r, p0 = zip(*(f[:4] for f in filters))
    return [np.array(m) for m in ([model.a_d for model in models], q, r, p0)]


def test_rows_past_each_cut_repeat_the_last_update():
    """In a stack whose cuts differ, every row of the time-major schedule
    past a filter's cut holds its last gain and S^-1, bit for bit, and the
    stack stops at the slowest filter's cut."""
    draws = [_random_filter(seed, 4, 2, radius) for seed, radius in ((6, 0.5), (3, 0.9), (4, 0.9))]
    sched = gain_schedule(*_stacks(draws), 100_000)
    assert len(set(sched.lengths)) == 3 and sched.converged.all()
    assert sched.gains.shape == sched.s_inv.shape == (max(sched.lengths), 3, 4, 4)
    for i, length in enumerate(sched.lengths):
        for rows in (sched.gains[:, i], sched.s_inv[:, i]):
            last = np.broadcast_to(rows[length - 1], rows[length:].shape)
            np.testing.assert_array_equal(rows[length:], last)


def test_schedule_without_updates_leaves_p0_writable():
    a_d, q, r, p0 = _stacks(_random_filter(seed, 3, 1, 0.5) for seed in (1, 2))
    sched = gain_schedule(a_d, q, r, p0, 0)
    assert sched.gains.shape == sched.s_inv.shape == (0, 2, 3, 3)
    np.testing.assert_array_equal(sched.p, p0)
    assert not sched.converged.any() and (sched.lengths == 0).all()
    assert p0.flags.writeable and not sched.p.flags.writeable


def test_stacked_schedule_reports_the_earliest_failure_then_the_first_in_stack():
    a_d = dgu_discrete().a_d
    zero = np.zeros((4, 4))
    healthy = (a_d, 1e-2 * np.eye(4), np.eye(4), np.eye(4))
    # with R near singular, S becomes numerically singular at update 5
    late = (a_d, zero, np.diag([1.0, 1.0, 1.0, 1e-13]), np.eye(4))
    early = (a_d, zero, zero, zero)  # S = 0 at the first update
    # starts at its steady state, so it converges, and repeats its last
    # update, before ``late`` fails
    settled = (a_d, *healthy[1:3], steady_state_covariance(*healthy[:3]))

    def failure(*filters):
        with pytest.raises(CovarianceError) as info:
            gain_schedule(*(np.array(m) for m in zip(*filters)), 10)
        return info.value.index, info.value.step, str(info.value)

    index, step, message = failure(late)
    assert (index, step) == (0, 5) and "numerically singular" in message
    index, step, message = failure(healthy, late, early)
    assert (index, step) == (2, 1) and "not positive definite" in message
    assert failure(healthy, early, late, early)[:2] == (1, 1)
    assert failure(healthy, late)[:2] == (1, 5)
    assert failure(healthy, late, late)[:2] == (1, 5)
    assert failure(settled, late)[:2] == (1, 5)
    assert gain_schedule(*_stack(*settled), 10).lengths[0] < 5


@pytest.mark.parametrize("steps", [0, 1, 63, 64, 65, 128, 129, 1000])
def test_blocked_linear_recursion_matches_loop(steps):
    rng = np.random.default_rng(steps)
    theta = 0.01
    f = 0.9999 * np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])
    x0 = np.array([100.0, -40.0])
    g = rng.standard_normal((steps, 2))
    expected = np.empty_like(g)
    x = x0
    for k in range(steps):
        x = expected[k] = f @ x + g[k]
    stacked = g[None].copy()
    _linear_recursion(f[None], x0[None], stacked)
    np.testing.assert_allclose(stacked[0], expected, rtol=0, atol=1e-11)


@pytest.mark.parametrize("remainder", [0, 1, 63])
def test_blocked_linear_recursion_steps_one_remainder_for_the_stack(remainder):
    """A stack of systems sharing one length 64k + r: each gets the rows of
    its own loop, and the same rows, bit for bit, as when it runs alone."""
    rng = np.random.default_rng(remainder)
    steps = 3 * kalman._BLOCK + remainder
    theta = rng.uniform(0.0, 0.1, 5)
    f = 0.999 * np.array(
        [[[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]] for a in theta]
    )
    x0 = rng.standard_normal((len(theta), 2)) * 100.0
    g = rng.standard_normal((len(theta), steps, 2))
    stacked = g.copy()
    last = _linear_recursion(f, x0, stacked)
    np.testing.assert_allclose(last, stacked[:, -1], rtol=0, atol=1e-11)
    for i in range(len(theta)):
        expected = np.empty((steps, 2))
        x = x0[i]
        for k in range(steps):
            x = expected[k] = f[i] @ x + g[i, k]
        np.testing.assert_allclose(stacked[i], expected, rtol=0, atol=1e-11)
        alone = g[i : i + 1].copy()
        _linear_recursion(f[i : i + 1], x0[i : i + 1], alone)
        np.testing.assert_array_equal(stacked[i], alone[0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), radius=st.floats(0.0, 0.98))
def test_dare_steady_state_matches_riccati_iteration(seed, n, radius):
    model, q, r, _, _ = _random_filter(seed, n, 1, radius)
    p_star = riccati_oracle(model.a_d, q, r)
    p_dare = steady_state_covariance(model.a_d, q, r)
    assert np.abs(p_dare - p_star).max() <= 1e-9 * max(1.0, np.abs(p_star).max())


def test_gain_schedule_reports_the_failed_update():
    model = DiscreteLtiModel(np.eye(2), np.zeros((2, 1)), 1.0, "euler")
    zero = np.zeros((2, 2))
    with pytest.raises(CovarianceError) as info:
        gain_schedule(*_stack(model.a_d, zero, zero, zero), 10)
    assert info.value.step == 1


def _relative_gap(actual, expected):
    return np.abs(actual - expected).max() / max(1.0, np.abs(expected).max())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), radius=st.floats(0.0, 0.999))
def test_doubling_steady_state_matches_scipy_dare(seed, n, radius):
    model, q, r, _, _ = _random_filter(seed, n, 1, radius)
    p_sda = steady_state_covariance(model.a_d, q, r)
    assert _relative_gap(p_sda, dare_oracle(model.a_d, q, r)) <= 1e-9


def test_doubling_steady_state_matches_scipy_dare_on_the_reference_buses(reference_scenario):
    for est in build_local_estimators(reference_scenario):
        a_d, q, r = est.kf.model.a_d, est.kf.q_eff, est.kf.r
        assert _relative_gap(steady_state_covariance(a_d, q, r), dare_oracle(a_d, q, r)) <= 1e-12


def test_doubling_fails_loudly_without_a_stabilizing_start():
    """With Q_eff = 0 the doubling stays at the non-stabilizing P = 0 and
    raises, where scipy finds the stabilizing solution."""
    a_d, zero, r = np.diag([1.2, 0.5]), np.zeros((2, 2)), np.eye(2)
    assert dare_oracle(a_d, zero, r)[0, 0] > 0.0
    with pytest.raises(CovarianceError, match="stabilizing"):
        steady_state_covariance(a_d, zero, r)
    # a stable model without process noise settles at P = 0
    np.testing.assert_array_equal(steady_state_covariance(np.diag([0.9, 0.5]), zero, r), zero)


def dgu_estimator():
    return KalmanEstimator(dgu_discrete(), q_eff=1e-2 * np.eye(4), r=np.eye(4))


def _clear_caches():
    kalman._schedules.cache_clear()
    kalman._steady.cache_clear()


def test_memo_hit_equals_a_cold_call():
    _clear_caches()
    kf = dgu_estimator()
    cold = filter_schedule(gain_schedule(*_stack(kf.model.a_d, kf.q_eff, kf.r, kf.p0), 300))
    first = schedules_of([dgu_estimator()], 300)
    hit = schedules_of([dgu_estimator()], 300)
    assert kalman._schedules.cache_info()[:2] == (1, 1)
    for sched in (filter_schedule(first), filter_schedule(hit)):
        np.testing.assert_array_equal(sched.gains, cold.gains)
        np.testing.assert_array_equal(sched.s_inv, cold.s_inv)
        np.testing.assert_array_equal(sched.p, cold.p)
        assert sched.converged == cold.converged
    cold = kalman._steady_posterior(kf.model.a_d, kf.q_eff, kf.r)
    for _ in range(2):
        np.testing.assert_array_equal(steady_state_covariance(kf.model.a_d, kf.q_eff, kf.r), cold)
    assert kalman._steady.cache_info()[:2] == (1, 1)
    assert kalman._schedules.cache_info()[:2] == (1, 1)


def test_memo_returns_read_only_arrays():
    sched = schedules_of([dgu_estimator()], 300)
    kf = dgu_estimator()
    steady = steady_state_covariance(kf.model.a_d, kf.q_eff, kf.r)
    for array in (sched.gains, sched.s_inv, sched.lengths, sched.p, sched.converged, steady):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.gains = sched.gains.copy()
    assert schedules_of([dgu_estimator()], 300) is sched


def test_memo_keys_on_content():
    _clear_caches()
    a_d = dgu_discrete().a_d
    q, r = 1e-2 * np.eye(4), np.eye(4)
    steady_state_covariance(a_d, q, r)
    steady_state_covariance(a_d.copy(), np.diag(np.full(4, 1e-2)), np.eye(4))
    assert kalman._steady.cache_info()[:2] == (1, 1)
    # one entry, one ulp apart
    nudged = a_d.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], 2.0)
    steady_state_covariance(nudged, q, r)
    assert kalman._steady.cache_info()[:2] == (1, 2)
    # the same filter over another number of updates
    schedules_of([dgu_estimator()], 10)
    schedules_of([dgu_estimator()], 11)
    assert kalman._schedules.cache_info()[:2] == (0, 2)
    assert kalman._steady.cache_info()[:2] == (1, 2)


def test_memo_does_not_keep_a_failure():
    _clear_caches()
    zero = np.zeros((2, 2))
    model = DiscreteLtiModel(np.eye(2), np.zeros((2, 1)), 1.0, "euler")
    for _ in range(2):
        with pytest.raises(CovarianceError) as info:
            schedules_of([KalmanEstimator(model, q_eff=zero, r=zero, p0=zero)], 10)
        assert info.value.step == 1
        with pytest.raises(CovarianceError, match="stabilizing"):
            steady_state_covariance(np.diag([1.2, 0.5]), zero, np.eye(2))
    assert kalman._schedules.cache_info()[:2] == (0, 2)
    assert kalman._steady.cache_info()[:2] == (0, 2)
    assert kalman._schedules.cache_info().currsize == kalman._steady.cache_info().currsize == 0


def test_memo_stays_within_its_size():
    fills = {
        kalman._schedules: lambda k: schedules_of([dgu_estimator()], k + 1),
        kalman._steady: lambda k: steady_state_covariance(
            np.eye(1), np.full((1, 1), k + 1.0), np.eye(1)
        ),
    }
    for cache, fill in fills.items():
        cache.cache_clear()
        maxsize = cache.cache_info().maxsize
        for k in range(2 * maxsize + 3):
            fill(k)
            assert cache.cache_info().currsize <= maxsize
        assert cache.cache_info().currsize == maxsize
