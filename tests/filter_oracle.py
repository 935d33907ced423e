"""Reference filters for ``microdse.kalman``.

``step_oracle`` runs a filter over a whole record one sample at a time,
with its own plain-numpy law: the gain by ``np.linalg.solve``, the Joseph
posterior, and each NIS by its own solve with the innovation covariance
R + P_prior.  It reads only a filter's model, noise and ``p0``, and calls
nothing of ``microdse.kalman``, so it checks both layers of
``filter_record``, the gain schedule and the state pass, which the local
and global estimators run; the two must agree to rounding.
``riccati_oracle`` iterates the same equations to their fixed point, and
``dare_oracle`` is scipy's DARE solver, the independent reference for the
doubling of ``steady_state_covariance``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.linalg import solve_discrete_are


def step_oracle(kf, z, u):
    """The filter ``kf`` (its ``model``, ``q_eff``, ``r`` and ``p0``) over
    a record: sample 0 initializes the estimate from ``z[0]``, then each
    sample k predicts with ``u[k-1]`` and updates with ``z[k]``.  With
    H = I, S = R + P_prior and K = P_prior S^-1; the NIS of update k is
    d^T S^-1 d for the innovation d = z[k] - x_prior.

    Returns the estimates ``x_hat`` (N, n) and ``nis`` (N,), NaN at sample
    0, and the ``gains``, inverse innovation covariances ``s_inv`` and
    posterior covariances ``p`` of updates 1..N-1, each (N-1, n, n)."""
    a, b, q, r = kf.model.a_d, kf.model.b_d, kf.q_eff, kf.r
    n = a.shape[0]
    eye = np.eye(n)
    updates = z.shape[0] - 1
    x_hat = np.empty_like(z)
    nis = np.full(z.shape[0], np.nan)
    gains, s_invs, posteriors = (np.empty((updates, n, n)) for _ in range(3))
    x = x_hat[0] = z[0]
    p = kf.p0
    for k in range(1, z.shape[0]):
        x_prior = a @ x + b @ u[k - 1]
        p_prior = a @ p @ a.T + q
        s = r + p_prior
        # S and P_prior are symmetric, so K^T = S^-1 P_prior
        gain = np.linalg.solve(s, p_prior).T
        d = z[k] - x_prior
        x = x_hat[k] = x_prior + gain @ d
        nis[k] = d @ np.linalg.solve(s, d)
        i_k = eye - gain
        p = i_k @ p_prior @ i_k.T + gain @ r @ gain.T
        p = 0.5 * (p + p.T)
        gains[k - 1], s_invs[k - 1], posteriors[k - 1] = gain, np.linalg.solve(s, eye), p
    return SimpleNamespace(x_hat=x_hat, nis=nis, gains=gains, s_inv=s_invs, p=posteriors)


def assert_close(actual, expected, rtol=1e-9):
    """Same NaN pattern, and max |actual - expected| within ``rtol`` of
    max(1, max |expected|)."""
    scale = max(1.0, float(np.abs(expected[np.isfinite(expected)]).max(initial=0.0)))
    np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected))
    assert np.nanmax(np.abs(actual - expected), initial=0.0) <= rtol * scale


def filter_schedule(sched, i=0):
    """Filter i's part of a stacked ``GainSchedule``: its gains and inverse
    innovation covariances up to its length, its final posterior and
    whether it converged."""
    m = sched.lengths[i]
    return SimpleNamespace(
        gains=sched.gains[:m, i],
        s_inv=sched.s_inv[:m, i],
        p=sched.p[i],
        converged=bool(sched.converged[i]),
    )


def assert_matches_oracle(x_hat, nis, schedule, oracle, p0):
    """One filter's estimates, NIS (from sample 1) and ``filter_schedule``
    (gains, inverse innovation covariances and final posterior, or ``p0``
    for an empty schedule) against its ``step_oracle`` run."""
    assert_close(x_hat, oracle.x_hat)
    assert_close(nis[1:], oracle.nis[1:])
    steps = schedule.gains.shape[0]
    assert_close(schedule.gains, oracle.gains[:steps])
    assert_close(schedule.s_inv, oracle.s_inv[:steps])
    assert_close(schedule.p, oracle.p[steps - 1] if steps else p0)
    if schedule.converged:
        assert_close(schedule.p, oracle.p[-1])


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
