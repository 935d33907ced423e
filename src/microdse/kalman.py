"""Kalman filter recursion with full-state measurements and noisy-input correction.

The measurement model is fixed to identity (every state channel is
measured directly), so the innovation covariance is simply R + P.  Input
measurements carry their own zero-mean noise; its effect on the state
prediction is folded into an effective process covariance
``Q_eff = B_d M B_d^T + Q`` once at construction time.

With H = I and constant Q_eff and R, the gain and innovation covariance
sequences do not depend on the data.  ``filter_record`` therefore runs a
whole record as two layers: ``gain_schedule`` iterates the covariance
recursion alone until consecutive posteriors agree, and a state pass
then applies those gains, with the last one held as the steady-state
gain (Anderson & Moore, *Optimal Filtering*, 1979, ch. 4).  The
covariance layer runs on stacks of (B, n, n) arrays, so the schedules of
many independent filters cost one loop of batched small-matrix
operations; each filter leaves the stack when it converges, and its
schedule is the same, bit for bit, for every B and stack order.  A lone
filter is a stack of one.
``steady_state_covariance`` takes the limit directly from the discrete
algebraic Riccati equation (DARE; Arnold & Laub, Proc. IEEE 1984).
``KalmanEstimator`` is the per-step API of the same recursion and the
tests' reference for ``filter_record``; the estimators run whole records
through ``filter_record`` only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, solve_discrete_are

from .discretize import DiscreteLtiModel

_sysv, = get_lapack_funcs(("sysv",), (np.empty((1, 1), dtype=float),))

#: Tolerances for covariance validation.
SYMMETRY_TOL = 1e-10
EIGENVALUE_TOL = -1e-10
#: Consecutive posterior covariances that agree to this relative
#: tolerance mark the covariance recursion as converged.
STEADY_STATE_RTOL = 1e-13


class CovarianceError(np.linalg.LinAlgError):
    """A covariance update failed; ``step`` counts updates from 1 and
    ``index`` is the failed filter's position in the stack of
    ``gain_schedule``."""

    def __init__(self, step: int, message: str, index: int = 0):
        super().__init__(message)
        self.step = step
        self.index = index


def _check_covariance(name: str, m: np.ndarray, dim: int | None = None) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"{name} must be {dim}x{dim}, got {m.shape[0]}x{m.shape[0]}")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric")
    if np.linalg.eigvalsh(m).min() < EIGENVALUE_TOL * scale:
        raise ValueError(f"{name} is not positive semidefinite")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class NoiseSpec:
    """Process (q), measurement (r) and input-measurement (m) covariances."""

    q: np.ndarray
    r: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        q = _check_covariance("q", self.q)
        r = _check_covariance("r", self.r, dim=q.shape[0])
        m = _check_covariance("m", self.m)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", m)

    @classmethod
    def from_std(cls, q_std, r_std, m_std) -> "NoiseSpec":
        """Diagonal covariances from per-channel standard deviations."""
        return cls(
            q=np.diag(np.square(np.asarray(q_std, dtype=float))),
            r=np.diag(np.square(np.asarray(r_std, dtype=float))),
            m=np.diag(np.square(np.asarray(m_std, dtype=float))),
        )


def effective_process_noise(q: np.ndarray, b_d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Process covariance corrected for input-measurement noise: B_d M B_d^T + Q."""
    q = np.asarray(q, dtype=float)
    b_d = np.asarray(b_d, dtype=float)
    m = np.asarray(m, dtype=float)
    if q.shape != (b_d.shape[0], b_d.shape[0]):
        raise ValueError(f"q shape {q.shape} does not match state dimension {b_d.shape[0]}")
    if m.shape != (b_d.shape[1], b_d.shape[1]):
        raise ValueError(f"m shape {m.shape} does not match input dimension {b_d.shape[1]}")
    out = b_d @ m @ b_d.T + q
    return 0.5 * (out + out.T)


def _transposed(m: np.ndarray) -> np.ndarray:
    """Transpose of a matrix or of each matrix in a stack."""
    return m.swapaxes(-1, -2)


def _predict_covariance(a_d: np.ndarray, p: np.ndarray, q_eff: np.ndarray) -> np.ndarray:
    p_prior = a_d @ p @ _transposed(a_d) + q_eff
    return 0.5 * (p_prior + _transposed(p_prior))


_NOT_POSITIVE_DEFINITE = (
    "innovation covariance is not positive definite; "
    "check that R is PSD and P has not collapsed"
)
_ILL_CONDITIONED = "innovation covariance is numerically singular (condition number > 1e12)"


def _solve_innovation(s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """S^-1 rhs through a symmetric LDL^T factorization of the innovation
    covariance S, rejecting S that is indefinite or numerically singular."""
    factor, ipiv, sol, info = _sysv(s, rhs, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"innovation covariance is singular (sysv info={info})"
        )
    diag = np.diagonal(factor)
    if (ipiv <= 0).any() or (diag <= 0.0).any():
        raise np.linalg.LinAlgError(_NOT_POSITIVE_DEFINITE)
    # the pivot spread lower-bounds the condition number of S
    if diag.max() > 1e12 * diag.min():
        raise np.linalg.LinAlgError(_ILL_CONDITIONED)
    return sol


def _joseph_update(p_prior: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    i_k = np.eye(k.shape[-1]) - k
    p = (i_k @ p_prior) @ _transposed(i_k) + (k @ r) @ _transposed(k)
    return 0.5 * (p + _transposed(p))


class KalmanEstimator:
    """Stateful predict/update recursion over a discrete LTI model.

    One instance is owned by exactly one caller at a time; distinct
    instances are fully independent.
    """

    def __init__(
        self,
        model: DiscreteLtiModel,
        noise: NoiseSpec | None = None,
        *,
        q_eff: np.ndarray | None = None,
        r: np.ndarray | None = None,
        x0: np.ndarray | None = None,
        p0: np.ndarray | None = None,
    ):
        self.model = model
        n = model.n_states
        if noise is not None:
            if q_eff is not None or r is not None:
                raise ValueError("pass either a NoiseSpec or explicit q_eff/r, not both")
            q_eff = effective_process_noise(noise.q, model.b_d, noise.m)
            r = noise.r
        if q_eff is None or r is None:
            raise ValueError("q_eff and r are required when no NoiseSpec is given")
        self.q_eff = _check_covariance("q_eff", q_eff, dim=n)
        self.r = _check_covariance("r", r, dim=n)
        self.x_hat = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
        if self.x_hat.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},)")
        p0 = self.r.copy() if p0 is None else p0
        self.p = _check_covariance("p0", p0, dim=n)
        self.innovation: np.ndarray | None = None
        self.innovation_cov: np.ndarray | None = None
        self.nis: float | None = None
        self._a_d = model.a_d
        self._b_d = model.b_d

    @property
    def n_states(self) -> int:
        return self.model.n_states

    def predict(self, u: np.ndarray) -> None:
        """Propagate estimate and covariance one step using input sample ``u``."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.model.n_inputs,):
            raise ValueError(
                f"input must have shape ({self.model.n_inputs},), got {u.shape}"
            )
        self.x_hat = self._a_d @ self.x_hat + self._b_d @ u
        self.p = _predict_covariance(self._a_d, self.p, self.q_eff)

    def update(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fold in a full-state measurement; returns (innovation, post-fit residual).

        The covariance is updated in Joseph form and re-symmetrized.  The
        innovation covariance R + P is inverted through a symmetric LDL^T
        factorization, rejecting matrices that are indefinite or
        numerically singular.
        """
        z = np.asarray(z, dtype=float)
        n = self.model.n_states
        if z.shape != (n,):
            raise ValueError(f"measurement must have shape ({n},), got {z.shape}")
        p_prior = self.p
        s = self.r + p_prior
        innovation = z - self.x_hat
        rhs = np.empty((n, n + 1))
        rhs[:, :n] = p_prior
        rhs[:, n] = innovation
        sol = _solve_innovation(s, rhs)
        k = sol[:, :n].T
        self.x_hat = self.x_hat + k @ innovation
        self.p = _joseph_update(p_prior, k, self.r)
        self.nis = float(innovation @ sol[:, n])
        self.innovation = innovation
        self.innovation_cov = s
        return innovation, z - self.x_hat

    def step(self, u: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predict with ``u`` then update with ``z``."""
        self.predict(u)
        return self.update(z)


def innovation_consistency(
    innovations: np.ndarray, innovation_covariances: np.ndarray
) -> float:
    """Mean normalized innovation squared over a window.

    For a consistent filter the statistic is close to the state dimension;
    at least ~30 samples are needed for it to be meaningful.
    """
    innovations = np.asarray(innovations, dtype=float)
    covariances = np.asarray(innovation_covariances, dtype=float)
    if innovations.size == 0:
        raise ValueError("empty innovation history")
    if innovations.ndim != 2 or covariances.shape != innovations.shape + innovations.shape[-1:]:
        raise ValueError(
            f"expected (N, n) innovations with (N, n, n) covariances, "
            f"got {innovations.shape} and {covariances.shape}"
        )
    solved = np.linalg.solve(covariances, innovations[..., None])[..., 0]
    return float(np.mean(np.sum(innovations * solved, axis=1)))


@dataclass(frozen=True)
class GainSchedule:
    """Gains of the first updates of one filter's recursion, which depend
    on no data.

    ``gains[k]`` and ``s_inv[k]`` are the gain and the inverse innovation
    covariance of update k + 1; ``p`` is the posterior covariance after
    the last of them.  When ``converged``, that posterior agrees with the
    one before it, and the last gain serves every later update.
    """

    gains: np.ndarray
    s_inv: np.ndarray
    p: np.ndarray
    converged: bool


def _innovation_failure(s: np.ndarray) -> tuple[int, str] | None:
    """The first innovation covariance of the stack ``s`` (B, n, n) that is
    not positive definite or is numerically singular, as (index, reason);
    None when all pass.

    A Cholesky factor S = L L^T checks both: it exists only for positive
    definite S, and the spread of its pivots diag(L)^2 lower-bounds the
    condition number of S.
    """
    try:
        pivots = np.square(np.diagonal(np.linalg.cholesky(s), axis1=1, axis2=2))
    except np.linalg.LinAlgError:
        if len(s) == 1:
            return 0, _NOT_POSITIVE_DEFINITE
        # the stacked factorization does not say which S failed
        for i in range(len(s)):
            failure = _innovation_failure(s[i : i + 1])
            if failure is not None:
                return i, failure[1]
        raise
    singular = pivots.max(axis=1) > 1e12 * pivots.min(axis=1)
    if singular.any():
        return int(np.argmax(singular)), _ILL_CONDITIONED
    return None


#: Updates per filter that ``gain_schedule`` first makes room for; the
#: room doubles as needed.
_SCHEDULE_ROWS = 64


def gain_schedule(
    a_d: np.ndarray, q_eff: np.ndarray, r: np.ndarray, p0: np.ndarray, max_steps: int
) -> list[GainSchedule]:
    """Covariance layer of B independent filters at once.

    ``a_d``, ``q_eff``, ``r`` and ``p0`` are stacks (B, n, n): filter i
    runs the predict/update recursion of ``KalmanEstimator`` without the
    state, from the covariance ``p0[i]`` of its initial estimate, for at
    most ``max_steps`` updates.  Each filter stops once its consecutive
    posteriors agree to ``STEADY_STATE_RTOL`` and then drops out of the
    stack, so its schedule, and whether it fails, do not depend on the
    other filters.  The arithmetic is the same for every B, so a filter run
    alone (B = 1) gets the same schedule bit for bit as in any stack.

    Returns one ``GainSchedule`` per filter, in stack order.  Raises
    ``CovarianceError`` for the filter whose innovation covariance fails
    at the earliest update; of several failing at that update, the first
    in the stack is reported.
    """
    a_d, q_eff, r, p = (np.asarray(m, dtype=float) for m in (a_d, q_eff, r, p0))
    n_filters, n = a_d.shape[:2]
    active = np.arange(n_filters)
    # filter-major, so that each filter's schedule is one contiguous block
    gains = np.empty((n_filters, min(max_steps, _SCHEDULE_ROWS), n, n))
    s_invs = np.empty_like(gains)
    lengths = np.zeros(n_filters, dtype=int)
    converged = np.zeros(n_filters, dtype=bool)
    final_p = p.copy()
    for step in range(1, max_steps + 1):
        if step > gains.shape[1]:
            rows = min(max_steps, 2 * gains.shape[1])
            gains, s_invs = (_extended(buf, rows) for buf in (gains, s_invs))
        p_prior = _predict_covariance(a_d, p, q_eff)
        s = r + p_prior
        failure = _innovation_failure(s)
        if failure is not None:
            i, reason = failure
            raise CovarianceError(step, reason, index=int(active[i]))
        s_inv = np.linalg.inv(s)
        k = p_prior @ s_inv
        gains[active, step - 1] = k
        s_invs[active, step - 1] = s_inv
        p_next = _joseph_update(p_prior, k, r)
        done = np.abs(p_next - p).max(axis=(1, 2)) <= STEADY_STATE_RTOL * np.maximum(
            1.0, np.abs(p_next).max(axis=(1, 2))
        )
        p = p_next
        if done.any():
            finished = active[done]
            lengths[finished] = step
            converged[finished] = True
            final_p[finished] = p[done]
            keep = ~done
            active, a_d, q_eff, r, p = (m[keep] for m in (active, a_d, q_eff, r, p))
            if not active.size:
                break
    lengths[active] = max_steps
    final_p[active] = p
    return [
        GainSchedule(
            gains=gains[i, : lengths[i]],
            s_inv=s_invs[i, : lengths[i]],
            p=final_p[i],
            converged=bool(converged[i]),
        )
        for i in range(n_filters)
    ]


def _extended(buf: np.ndarray, rows: int) -> np.ndarray:
    """``buf`` (B, steps, n, n) with room for ``rows`` steps."""
    out = np.empty((buf.shape[0], rows, *buf.shape[2:]))
    out[:, : buf.shape[1]] = buf
    return out


#: Rows per block of ``_linear_recursion``.
_BLOCK = 64


def _linear_recursion(
    f: np.ndarray, x0: np.ndarray, g: np.ndarray, f_block: np.ndarray | None = None
) -> np.ndarray:
    """Overwrite the rows g_1..g_N of ``g`` with x_1..x_N of
    x_k = f x_{k-1} + g_k, from x0, and return ``g``.  ``f_block`` is
    f^_BLOCK, for callers that run many records with the same f.

    The rows are cut into blocks of ``_BLOCK``.  One pass over the block
    offsets runs every block at once from a zero state.  A pass over the
    blocks then carries each block's end state into the next with
    f^_BLOCK, and a second pass over the offsets adds f^(j+1) times every
    block's start state to its j-th row, one matrix product per offset.
    That is N / _BLOCK + 2 _BLOCK small steps in Python instead of N, with
    one row per block of memory besides ``g``.  Rows after the last full
    block are stepped one at a time.
    """
    if not g.flags.c_contiguous:
        raise ValueError("the recursion runs in place on a C-contiguous array")
    steps, n = g.shape
    blocks = steps // _BLOCK
    y = g[: blocks * _BLOCK].reshape(blocks, _BLOCK, n)
    ft = f.T
    for j in range(1, _BLOCK):
        y[:, j] += y[:, j - 1] @ ft
    if f_block is None and blocks:
        f_block = np.linalg.matrix_power(f, _BLOCK)
    starts = np.empty((blocks, n))
    x = x0
    for b in range(blocks):
        starts[b] = x
        x = f_block @ x + y[b, -1]
    for j in range(_BLOCK):
        starts = starts @ ft
        y[:, j] += starts
    for k in range(blocks * _BLOCK, steps):
        x = g[k] = f @ x + g[k]
    return g


def schedules_of(
    estimators: list[KalmanEstimator], max_steps: int
) -> list[GainSchedule]:
    """``gain_schedule`` of the estimators, stacked, from their current
    posterior covariances."""
    return gain_schedule(
        np.array([kf.model.a_d for kf in estimators]),
        np.array([kf.q_eff for kf in estimators]),
        np.array([kf.r for kf in estimators]),
        np.array([kf.p for kf in estimators]),
        max_steps,
    )


def filter_record(
    kf: KalmanEstimator,
    z: np.ndarray,
    u: np.ndarray,
    schedule: GainSchedule | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``kf`` over a whole record; returns the estimates and the NIS.

    Sample 0 initializes the estimate from ``z[0]`` (NaN NIS); each sample
    k >= 1 predicts with ``u[k-1]`` and updates with ``z[k]``, as
    ``kf.step`` would.  The gains come from ``schedule``, which must be
    ``kf``'s schedule over ``len(z) - 1`` updates, as ``schedules_of``
    computes it for a stack of filters; without it, ``kf`` runs alone as a
    stack of one.  Once the gains have converged to K, the rest of the
    record is the linear recursion
    x_k = (I - K) A x_{k-1} + (I - K) B u_{k-1} + K z_k.  ``kf`` is left
    with the final estimate and posterior covariance.
    """
    n = z.shape[0]
    a_d, b_d = kf.model.a_d, kf.model.b_d
    sched = schedules_of([kf], n - 1)[0] if schedule is None else schedule
    m = sched.gains.shape[0]
    bu = u[: n - 1] @ b_d.T
    x_hat = np.empty(z.shape)
    x = x_hat[0] = z[0]
    for k in range(1, m + 1):
        x_prior = a_d @ x + bu[k - 1]
        x = x_hat[k] = x_prior + sched.gains[k - 1] @ (z[k] - x_prior)
    if m < n - 1:
        k_inf = sched.gains[-1]
        i_k = np.eye(k_inf.shape[0]) - k_inf
        rest = x_hat[m + 1 :]
        np.matmul(bu[m:], i_k.T, out=rest)
        rest += z[m + 1 :] @ k_inf.T
        _linear_recursion(i_k @ a_d, x_hat[m], rest)
    innovation = z[1:] - (x_hat[:-1] @ a_d.T + bu)
    nis = np.full(n, np.nan)
    nis[1 : m + 1] = np.einsum(
        "ki,kij,kj->k", innovation[:m], sched.s_inv, innovation[:m]
    )
    if m < n - 1:
        tail = innovation[m:]
        nis[m + 1 :] = np.einsum("ki,ki->k", tail @ sched.s_inv[-1].T, tail)
    kf.x_hat = x_hat[-1].copy()
    kf.p = sched.p
    return x_hat, nis


def steady_state_covariance(
    a_d: np.ndarray, q_eff: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Posterior covariance fixed point of the predict/update recursion.

    The prior fixed point solves the filtering DARE, the dual of the
    control one: P = A P A^T - A P (P + R)^-1 P A^T + Q_eff.  One update
    step then gives the posterior.
    """
    a_d = np.asarray(a_d, dtype=float)
    q_eff = np.asarray(q_eff, dtype=float)
    r = np.asarray(r, dtype=float)
    n = a_d.shape[0]
    p_prior = solve_discrete_are(a_d.T, np.eye(n), q_eff, r)
    p_prior = 0.5 * (p_prior + p_prior.T)
    k = _solve_innovation(r + p_prior, p_prior).T
    return _joseph_update(p_prior, k, r)
