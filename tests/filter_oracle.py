"""Per-step reference filter: a whole record one ``KalmanEstimator.step``
at a time.

It is the oracle for ``microdse.kalman.filter_record``, which the local
and global estimators run; the two must agree to rounding.
"""

from __future__ import annotations

import numpy as np


def step_oracle(kf, z, u):
    """Estimates and NIS of ``kf`` over a record: sample 0 initializes from
    ``z[0]``, then each sample k predicts with ``u[k-1]`` and updates with
    ``z[k]``."""
    x_hat = np.empty_like(z)
    nis = np.full(z.shape[0], np.nan)
    kf.x_hat = z[0].copy()
    x_hat[0] = kf.x_hat
    for k in range(1, z.shape[0]):
        kf.step(u[k - 1], z[k])
        x_hat[k] = kf.x_hat
        nis[k] = kf.nis
    return x_hat, nis


def assert_close(actual, expected, rtol=1e-9):
    """Same NaN pattern, and max |actual - expected| within ``rtol`` of
    max(1, max |expected|)."""
    scale = max(1.0, float(np.abs(expected[np.isfinite(expected)]).max(initial=0.0)))
    np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected))
    assert np.nanmax(np.abs(actual - expected), initial=0.0) <= rtol * scale
