"""Reference filters for ``microdse.kalman``.

``step_oracle`` runs a whole record one ``KalmanEstimator`` predict and
update at a time: the oracle for the state pass of ``filter_record``,
which the local and global estimators run; the two must agree to
rounding.  It computes each NIS itself, by a plain solve with the
innovation covariance R + P_prior.  Since
``KalmanEstimator`` shares its covariance update with ``gain_schedule``,
the covariance recursion is checked on its own against
``covariance_oracle`` and ``riccati_oracle``, written here with plain
numpy solves.  ``dare_oracle`` is scipy's DARE solver, the independent
reference for the doubling of ``steady_state_covariance``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.linalg import solve_discrete_are


def step_oracle(kf, z, u):
    """Estimates and NIS of ``kf`` over a record: sample 0 initializes from
    ``z[0]``, then each sample k predicts with ``u[k-1]`` and updates with
    ``z[k]``.  The NIS of update k is d^T S^-1 d, for the innovation
    d = z[k] - x_prior and S = R + P_prior, read between the two."""
    x_hat = np.empty_like(z)
    nis = np.full(z.shape[0], np.nan)
    kf.x_hat = z[0].copy()
    x_hat[0] = kf.x_hat
    for k in range(1, z.shape[0]):
        kf.predict(u[k - 1])
        d = z[k] - kf.x_hat
        s = kf.r + kf.p
        kf.update(z[k])
        x_hat[k] = kf.x_hat
        nis[k] = d @ np.linalg.solve(s, d)
    return x_hat, nis


def assert_close(actual, expected, rtol=1e-9):
    """Same NaN pattern, and max |actual - expected| within ``rtol`` of
    max(1, max |expected|)."""
    scale = max(1.0, float(np.abs(expected[np.isfinite(expected)]).max(initial=0.0)))
    np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected))
    assert np.nanmax(np.abs(actual - expected), initial=0.0) <= rtol * scale


def covariance_oracle(a, q, r, p0, steps):
    """Gains, inverse innovation covariances and posterior covariances of
    the first ``steps`` updates of the filter (a, q, r) from ``p0``, each
    stacked (steps, n, n); with H = I, K = P_prior S^-1 and
    S = R + P_prior."""
    n = a.shape[0]
    eye = np.eye(n)
    p = p0
    gains, s_invs, posteriors = (np.empty((steps, n, n)) for _ in range(3))
    for k in range(steps):
        p_prior = a @ p @ a.T + q
        s = r + p_prior
        # S and P_prior are symmetric, so K^T = S^-1 P_prior
        gain = np.linalg.solve(s, p_prior).T
        i_k = eye - gain
        p = i_k @ p_prior @ i_k.T + gain @ r @ gain.T
        p = 0.5 * (p + p.T)
        gains[k], s_invs[k], posteriors[k] = gain, np.linalg.solve(s, eye), p
    return gains, s_invs, posteriors


def filter_schedule(sched, i=0):
    """Filter i's part of a stacked ``GainSchedule``: its gains and inverse
    innovation covariances up to its length, its final posterior and
    whether it converged."""
    m = sched.lengths[i]
    return SimpleNamespace(
        gains=sched.gains[i, :m],
        s_inv=sched.s_inv[i, :m],
        p=sched.p[i],
        converged=bool(sched.converged[i]),
    )


def assert_schedule_matches_oracle(schedule, a, q, r, p0):
    """The gains, inverse innovation covariances and final posterior of
    one filter's ``filter_schedule`` against ``covariance_oracle``."""
    steps = schedule.gains.shape[0]
    gains, s_invs, posteriors = covariance_oracle(a, q, r, p0, steps)
    assert_close(schedule.gains, gains)
    assert_close(schedule.s_inv, s_invs)
    assert_close(schedule.p, posteriors[-1] if steps else p0)


def riccati_oracle(a, q, r, tol=1e-14, iters=500000):
    """Posterior covariance fixed point, by direct iteration of the
    prediction/innovation/gain/Joseph equations from R."""
    n = a.shape[0]
    p = r.copy()
    for _ in range(iters):
        p_prior = a @ p @ a.T + q
        s = r + p_prior
        k = p_prior @ np.linalg.inv(s)
        i_k = np.eye(n) - k
        p_next = i_k @ p_prior @ i_k.T + k @ r @ k.T
        if np.abs(p_next - p).max() < tol * max(1.0, np.abs(p_next).max()):
            return p_next
        p = p_next
    raise AssertionError("oracle iteration did not converge")


def dare_oracle(a, q, r):
    """Posterior covariance fixed point from scipy's stabilizing solution
    of the filtering DARE, with the Joseph update written out."""
    n = a.shape[0]
    p_prior = solve_discrete_are(a.T, np.eye(n), q, r)
    gain = np.linalg.solve(r + p_prior, p_prior).T
    i_k = np.eye(n) - gain
    return i_k @ p_prior @ i_k.T + gain @ r @ gain.T
