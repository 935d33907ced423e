"""Kalman filter recursion with full-state measurements and noisy-input correction.

The measurement model is fixed to identity (every state channel is
measured directly), so the innovation covariance is simply R + P.  Input
measurements carry their own zero-mean noise; the estimator builders of
``estimation`` fold it into the process covariance the filter is given,
``Q_eff = B_d M B_d^T + Q`` (``effective_process_noise``).

With H = I and constant Q_eff and R, the gain and innovation covariance
sequences do not depend on the data.  ``filter_record`` therefore runs a
whole record as two layers: ``gain_schedule`` iterates the covariance
recursion alone until consecutive posteriors agree, and a state pass
then applies those gains, with the last one held as the steady-state
gain (Anderson & Moore, *Optimal Filtering*, 1979, ch. 4).  Both layers
run on stacks of filters, so many independent filters cost one loop of
batched small-matrix operations.  The covariance layer works on (B, n, n)
arrays until the slowest filter converges; a converged filter repeats its
last update, so every row of the schedule is defined.  The state pass
steps the whole stack one sample at a time through those rows, a filter
past its own cut applying its last gain again, then runs each filter's
steady-gain remainder from its own convergence step as a blocked linear
recursion, a bounded segment of rows at a time, on shapes shared by the
whole stack: a filter whose remainder has ended runs on zero input and
its rows are discarded, and a recursion has one remainder after its last
full block for the whole stack.  A filter's schedule and estimates are
the same, bit for bit, for every B and stack order (for the estimates,
under the BLAS condition that ``filter_record`` states), and a lone
filter is a stack of one.
``steady_state_covariance`` takes the limit directly from the discrete
algebraic Riccati equation (DARE), solved by the structure-preserving
doubling algorithm (SDA; Anderson, Int. J. Control 1978; Lin & Xu, SIAM
J. Matrix Anal. Appl. 2006) in a few dozen matrix products.

None of this work reads a measurement, so a process does it once per
content.  The schedule stays one read-only time-major stack (M, B, n,
n), in the shape it is computed in and that the state pass reads, and
each kind of work has its own LRU cache, keyed on the exact bytes and
shapes of the model and noise matrices (``_content_key``):
``_schedules`` holds 8 stacked schedules for ``schedules_of``, and
``_steady`` 1 024 steady posteriors for ``steady_state_covariance``.
Runs with the same model and noise, such as Monte Carlo seeds, then
share them.  An estimation run of N buses looks up two schedules (local
and global) and N steady posteriors, so on the 30-bus benchmark mesh
every run after the first hits all 32 lookups.
``KalmanEstimator`` holds one filter's validated model, noise and
initial estimate, which ``filter_record`` reads and never changes.  Its
per-step ``predict``/``update``/``step`` are the same recursion one
sample at a time: the tests' reference for ``filter_record`` and the
benchmark's count of steps to convergence; the estimators run whole
records through ``filter_record`` only.  All three paths, the schedule,
the per-step update and the DARE's posterior, run one stacked covariance
update, ``_update_covariance``, so they accept the same innovation
covariances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteLtiModel

#: Tolerances for covariance validation.
SYMMETRY_TOL = 1e-10
EIGENVALUE_TOL = -1e-10
#: Consecutive posterior covariances that agree to this relative
#: tolerance mark the covariance recursion as converged.
STEADY_STATE_RTOL = 1e-13


class CovarianceError(np.linalg.LinAlgError):
    """A covariance update failed; ``step`` counts the updates of
    ``gain_schedule`` from 1 (None for a single update outside it, as in
    ``KalmanEstimator.update``) and ``index`` is the failed filter's
    position in the stack."""

    def __init__(self, step: int | None, message: str, index: int = 0):
        super().__init__(message)
        self.step = step
        self.index = index


def _check_covariance(name: str, m: np.ndarray, dim: int | None = None) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"{name} must be {dim}x{dim}, got {m.shape[0]}x{m.shape[0]}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
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


def _right_factor(m: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of the stack ``m``, laid out C-contiguous:
    ``x @ _right_factor(m)`` applies m to every row of x, and numpy's
    stacked products run several times faster on it than on a transposed
    view."""
    return np.ascontiguousarray(_transposed(m))


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m v for each matrix of the stack ``m`` and vector of ``v``."""
    return (m @ v[..., None])[..., 0]


def _quadratic_form(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """d^T m d for each vector of ``d`` and matrix of the stack ``m``, its
    terms (d_i m_ij) d_j summed one after another in row-major order, so
    that each value rounds the same for every stack shape (``np.einsum``
    picks its summation order from the operand shapes)."""
    terms = d[..., :, None] * m * d[..., None, :]
    return np.cumsum(terms.reshape(*d.shape[:-1], d.shape[-1] ** 2), axis=-1)[..., -1]


def _predict_covariance(a_d: np.ndarray, p: np.ndarray, q_eff: np.ndarray) -> np.ndarray:
    p_prior = a_d @ p @ _transposed(a_d) + q_eff
    return 0.5 * (p_prior + _transposed(p_prior))


_NOT_POSITIVE_DEFINITE = (
    "innovation covariance is not positive definite; "
    "check that R is PSD and P has not collapsed"
)
_ILL_CONDITIONED = "innovation covariance is numerically singular (condition number > 1e12)"


def _update_covariance(
    p_prior: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measurement update of the stack (B, n, n) of prior covariances
    ``p_prior`` with measurement covariances ``r``: the gains, the inverse
    innovation covariances and the Joseph posteriors, re-symmetrized.

    Raises ``CovarianceError`` (no step) for the first innovation
    covariance S = R + P of the stack that is not positive definite or is
    numerically singular.  Its Cholesky factor S = L L^T checks both: it
    exists only for positive definite S, and the spread of its pivots
    diag(L)^2 lower-bounds the condition number of S.
    """
    s = r + p_prior
    try:
        pivots = np.square(np.diagonal(np.linalg.cholesky(s), axis1=1, axis2=2))
    except np.linalg.LinAlgError:
        if len(s) == 1:
            raise CovarianceError(None, _NOT_POSITIVE_DEFINITE) from None
        # the stacked factorization does not say which S failed
        for i in range(len(s)):
            try:
                _update_covariance(p_prior[i : i + 1], r[i : i + 1])
            except CovarianceError as exc:
                raise CovarianceError(None, str(exc), index=i) from None
        raise
    singular = pivots.max(axis=1) > 1e12 * pivots.min(axis=1)
    if singular.any():
        raise CovarianceError(None, _ILL_CONDITIONED, index=int(np.argmax(singular)))
    s_inv = np.linalg.inv(s)
    k = p_prior @ s_inv
    i_k = np.eye(k.shape[-1]) - k
    p = (i_k @ p_prior) @ _transposed(i_k) + (k @ r) @ _transposed(k)
    return k, s_inv, 0.5 * (p + _transposed(p))


class KalmanEstimator:
    """Stateful predict/update recursion over a discrete LTI model with
    process covariance ``q_eff`` and measurement covariance ``r``; the
    initial estimate ``x0`` defaults to zero and its covariance ``p0`` to r.
    ``x0`` (``x_hat``) and ``p``, a copy of the read-only ``p0``, serve
    only the per-step ``predict``/``update``/``step`` path:
    ``filter_record`` reads neither, only the model, noise and ``p0``.

    One instance is owned by exactly one caller at a time; distinct
    instances are fully independent.
    """

    def __init__(
        self,
        model: DiscreteLtiModel,
        *,
        q_eff: np.ndarray,
        r: np.ndarray,
        x0: np.ndarray | None = None,
        p0: np.ndarray | None = None,
    ):
        self.model = model
        n = model.n_states
        self.q_eff = _check_covariance("q_eff", q_eff, dim=n)
        self.r = _check_covariance("r", r, dim=n)
        self.x_hat = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
        if self.x_hat.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},)")
        self.p0 = _check_covariance("p0", self.r if p0 is None else p0, dim=n)
        self.p0.setflags(write=False)
        self.p = self.p0.copy()
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

        The covariance update is ``gain_schedule``'s on a stack of one:
        Joseph form, and ``CovarianceError`` (no step) for an innovation
        covariance R + P that is not positive definite or is numerically
        singular.
        """
        z = np.asarray(z, dtype=float)
        n = self.model.n_states
        if z.shape != (n,):
            raise ValueError(f"measurement must have shape ({n},), got {z.shape}")
        k, _, self.p = (m[0] for m in _update_covariance(self.p[None], self.r[None]))
        innovation = z - self.x_hat
        self.x_hat = self.x_hat + k @ innovation
        return innovation, z - self.x_hat

    def step(self, u: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predict with ``u`` then update with ``z``."""
        self.predict(u)
        return self.update(z)


@dataclass(frozen=True)
class GainSchedule:
    """The first updates of the recursions of a stack of B filters, which
    depend on no data; every array is read-only.

    Filter i's schedule is ``lengths[i]`` updates long: ``gains[k, i]`` and
    ``s_inv[k, i]`` (M, B, n, n), M the longest length, are the gain and
    the inverse innovation covariance of its update k + 1, for
    k < ``lengths[i]``; its later rows repeat the last of them, bit for
    bit.  ``p[i]`` is its posterior covariance after the last of them.
    When ``converged[i]``, that posterior agrees with the one before it,
    and the last gain serves every later update.
    """

    gains: np.ndarray
    s_inv: np.ndarray
    lengths: np.ndarray
    p: np.ndarray
    converged: np.ndarray


def gain_schedule(
    a_d: np.ndarray, q_eff: np.ndarray, r: np.ndarray, p0: np.ndarray, max_steps: int
) -> GainSchedule:
    """Covariance layer of B independent filters at once.

    ``a_d``, ``q_eff``, ``r`` and ``p0`` are stacks (B, n, n): filter i
    runs the predict/update recursion of ``KalmanEstimator`` without the
    state, from the covariance ``p0[i]`` of its initial estimate, for at
    most ``max_steps`` updates.  Filter i's schedule ends once its
    consecutive posteriors agree to ``STEADY_STATE_RTOL``; from then on it
    is fed the prior of its last update again, so its gain, S^-1 and
    posterior repeat bit for bit and it cannot fail.  The stack runs until
    its slowest filter converges.  The arithmetic is the same for every B,
    so a filter run alone (B = 1) gets the same schedule bit for bit as in
    any stack, and whether it fails does not depend on the other filters.

    Each update's gains and S^-1 make one row (B, n, n) of the read-only
    time-major stack (M, B, n, n), M the longest length, assembled once
    after the last update; ``schedules_of`` caches it whole, one entry per
    stack.  Raises ``CovarianceError`` for the filter whose innovation
    covariance fails at the earliest update; of several failing at that
    update, the first in the stack is reported.
    """
    a_d, q_eff, r = (np.asarray(m, dtype=float) for m in (a_d, q_eff, r))
    # a copy, so that the read-only posteriors of a schedule without
    # updates are not the caller's array
    p = np.array(p0, dtype=float)
    n_filters, n = a_d.shape[:2]
    lengths = np.full(n_filters, max_steps)
    converged = np.zeros(n_filters, dtype=bool)
    gains, s_invs = [], []
    prior = p
    for step in range(1, max_steps + 1):
        prior = np.where(converged[:, None, None], prior, _predict_covariance(a_d, p, q_eff))
        try:
            k, s_inv, p_next = _update_covariance(prior, r)
        except CovarianceError as exc:
            raise CovarianceError(step, str(exc), index=exc.index) from None
        gains.append(k)
        s_invs.append(s_inv)
        done = np.abs(p_next - p).max(axis=(1, 2)) <= STEADY_STATE_RTOL * np.maximum(
            1.0, np.abs(p_next).max(axis=(1, 2))
        )
        p = p_next
        lengths[done & ~converged] = step
        converged |= done
        if converged.all():
            break
    gains, s_invs = (np.reshape(m, (len(m), n_filters, n, n)) for m in (gains, s_invs))
    for m in (gains, s_invs, lengths, p, converged):
        m.setflags(write=False)
    return GainSchedule(gains, s_invs, lengths, p, converged)


#: Rows per block of ``_linear_recursion``.
_BLOCK = 64
#: Values (filters x rows x states) per working array of one segment of
#: the steady tails in ``filter_record``.
_SEGMENT_VALUES = 2**16


def _linear_recursion(
    f: np.ndarray, x0: np.ndarray, g: np.ndarray, f_block: np.ndarray | None = None
) -> np.ndarray:
    """Overwrite the rows g_1..g_N of each record in ``g`` (B, N, n) with
    x_1..x_N of x_k = f x_{k-1} + g_k, from x0 (B, n), for the B systems of
    the stack ``f`` (B, n, n).  ``f_block`` is f^_BLOCK, for callers that
    run many records with the same f.  Returns x_N as the pass over the
    blocks carries it, which may round apart from the row g_N.

    The rows are cut into blocks of ``_BLOCK``.  One pass over the block
    offsets runs every block at once from a zero state.  A pass over the
    blocks then carries each block's end state into the next with
    f^_BLOCK, and a second pass over the offsets adds f^(j+1) times every
    block's start state to its j-th row, one matrix product per offset.
    That is N / _BLOCK + 2 _BLOCK small steps in Python instead of N, with
    one row per block of memory besides ``g``.  The rows after the last
    full block, one remainder for the whole stack, are then stepped one at
    a time.  Each system's rows are the same, bit for bit, for every B.
    """
    if not g.flags.c_contiguous:
        raise ValueError("the recursion runs in place on a C-contiguous array")
    n_sys, steps, n = g.shape
    blocks = steps // _BLOCK
    y = g[:, : blocks * _BLOCK].reshape(n_sys, blocks, _BLOCK, n)
    ft = _transposed(f)
    for j in range(1, _BLOCK):
        y[:, :, j] += y[:, :, j - 1] @ ft
    if f_block is None and blocks:
        f_block = np.linalg.matrix_power(f, _BLOCK)
    offsets = np.empty((n_sys, blocks, n))
    x = x0
    for b in range(blocks):
        offsets[:, b] = x
        x = _apply(f_block, x) + y[:, b, -1]
    for j in range(_BLOCK):
        offsets = offsets @ ft
        y[:, :, j] += offsets
    for k in range(blocks * _BLOCK, steps):
        x = g[:, k] = _apply(f, x) + g[:, k]
    return x


def schedules_of(estimators: list[KalmanEstimator], max_steps: int) -> GainSchedule:
    """``gain_schedule`` of the estimators, stacked, from their initial
    covariances ``p0``; computed once per content."""
    return _schedules(
        max_steps,
        *_content_key(
            [kf.model.a_d for kf in estimators],
            [kf.q_eff for kf in estimators],
            [kf.r for kf in estimators],
            [kf.p0 for kf in estimators],
        ),
    )


def _content_key(*matrices) -> tuple:
    """The shapes and the bytes of the float arrays ``matrices``: a cache
    key under which equal inputs built separately meet and one changed bit
    does not."""
    arrays = [np.asarray(m, dtype=float) for m in matrices]
    return (tuple(m.shape for m in arrays), *(m.tobytes() for m in arrays))


def _from_key(shapes: tuple, blobs: tuple) -> list[np.ndarray]:
    """The read-only arrays of a ``_content_key``."""
    return [np.frombuffer(b).reshape(s) for b, s in zip(blobs, shapes)]


@functools.lru_cache(maxsize=8)
def _schedules(max_steps: int, shapes: tuple, *blobs: bytes) -> GainSchedule:
    """``gain_schedule`` of the stacks (a_d, q_eff, r, p0) of a
    ``_content_key``.  A failure raises and is not cached."""
    return gain_schedule(*_from_key(shapes, blobs), max_steps)


def filter_record(
    filters: list[KalmanEstimator],
    z: np.ndarray,
    u: np.ndarray,
    index: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run B filters of one state dimension over their records at once;
    returns the estimates (B, N, n) and the NIS (B, N).

    ``z`` (N, R, n) and ``u`` (N, R, p) hold R measurement and input
    records, sample-major; filter i reads ``z[:, index[i]]`` and
    ``u[:, index[i]]`` (default: record i).  They are read a segment at a
    time, so they may be strided views of a wider trace.

    Sample 0 initializes each estimate from its measurement (NaN NIS); each
    sample k >= 1 predicts with the input at k-1 and updates with the
    measurement at k, as ``KalmanEstimator.step`` would.  The gains come
    from the filters' stacked ``schedules_of`` over N - 1 updates, which
    raises ``CovarianceError`` with the failed filter's index.  The state
    pass then runs in two segments:

    * updates 1..M, M the longest schedule, one sample at a time for the
      whole stack; update k applies row k - 1 of the schedule, which for
      filter i past its schedule's length m_i repeats its last gain;
    * once filter i's gain has converged to K, the rest of its record is
      the linear recursion x_k = (I - K) A x_{k-1} + (I - K) B u_{k-1} +
      K z_k.  Every filter with such a tail runs it from its own cut m_i
      through ``_linear_recursion``, replacing the rows that the first
      segment stepped past the cut, in segments of whole blocks of at most
      ``_SEGMENT_VALUES`` values per working array; each segment hands the
      next the start of its next block, so that no row depends on where a
      segment ends.  A filter whose tail has ended runs on zero input, and
      those rows are discarded.

    Only the filters' models, noise and ``p0`` are read, so a second run
    on the same filters gives the same results, even after per-step calls.
    A filter's results are the same, bit for bit, alone as in any stack
    and order, provided BLAS rounds each row of a matrix product the same
    for every row count of at least two.  OpenBLAS does for small models
    such as the 4-state local filters; for products of wide matrices with
    few rows it may not.  The stack never decides whether a product is a
    matrix-vector one, which BLAS rounds differently.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    if z.shape[0] == 0:
        raise ValueError("empty record")
    index = np.arange(len(filters)) if index is None else np.asarray(index)
    sched = schedules_of(filters, z.shape[0] - 1)
    a_d = np.array([kf.model.a_d for kf in filters])
    b_d = np.array([kf.model.b_d for kf in filters])
    x_hat = np.empty((len(filters), z.shape[0], z.shape[2]))
    nis = np.full(x_hat.shape[:2], np.nan)
    x_hat[:, 0] = z[0, index]
    _schedule_segment(sched, a_d, b_d, z, u, index, x_hat, nis)
    _steady_tails(sched, a_d, b_d, z, u, index, x_hat, nis)
    return x_hat, nis


def _schedule_segment(sched, a_d, b_d, z, u, index, x_hat, nis):
    """Updates 1..M of ``filter_record``, M the longest schedule, one
    sample at a time for the whole stack, update k from the schedule's
    row k - 1.  A filter past its cut keeps stepping with its last gain,
    which its rows repeat; ``_steady_tails`` rewrites those estimates."""
    steps = sched.gains.shape[0]
    zs = z[1 : steps + 1, index]
    # B u as the rows of one matrix product per filter, of at least two rows
    us = u[: max(steps, 2), index].swapaxes(0, 1)
    bu = (np.ascontiguousarray(us) @ _right_factor(b_d)).swapaxes(0, 1)
    innovation = np.empty((steps, len(index), x_hat.shape[2]))
    x = x_hat[:, 0]
    for k in range(1, steps + 1):
        x_prior = _apply(a_d, x) + bu[k - 1]
        d = innovation[k - 1] = zs[k - 1] - x_prior
        x = x_hat[:, k] = x_prior + _apply(sched.gains[k - 1], d)
    nis[:, 1 : steps + 1] = _quadratic_form(innovation, sched.s_inv).T


def _steady_tails(sched, a_d, b_d, z, u, index, x_hat, nis):
    """The records of ``filter_record`` after each filter's cut, as one
    stack of linear recursions run a segment at a time.  Every filter with
    a tail runs through every segment; one whose tail has ended runs on
    zero input, and those rows are discarded."""
    n_rec, n = x_hat.shape[1:]
    tailed = np.flatnonzero(sched.lengths < n_rec - 1)
    if not tailed.size:
        return
    cuts = sched.lengths[tailed]
    tails = n_rec - 1 - cuts
    longest = int(tails.max())
    a_d = a_d[tailed]
    k_inf = sched.gains[-1, tailed]
    i_k = np.eye(n) - k_inf
    f = i_k @ a_d
    f_block = np.linalg.matrix_power(f, _BLOCK)
    # right factors of the row products below
    a_dt, b_dt, k_t, i_kt, s_inv_t = (
        _right_factor(m) for m in (a_d, b_d[tailed], k_inf, i_k, sched.s_inv[-1, tailed])
    )
    # at least two blocks, so that no block pass multiplies a single row
    seg_blocks = max(2, _SEGMENT_VALUES // (tailed.size * n * _BLOCK))
    x_prev = start = x_hat[tailed, cuts]
    done = 0
    while done < longest:
        blocks = min(seg_blocks, max(2, -(-(longest - done) // _BLOCK)))
        rows = blocks * _BLOCK
        valid = np.clip(tails - done, 0, rows)
        # the segment holds samples at + 0..rows-1 of each filter
        at = cuts + 1 + done
        zs = np.zeros((tailed.size, rows, n))
        us = np.zeros((tailed.size, rows, u.shape[2]))
        for j, i in enumerate(tailed):
            a, v, r = at[j], valid[j], index[i]
            zs[j, :v] = z[a : a + v, r]
            us[j, :v] = u[a - 1 : a - 1 + v, r]
        bu = us @ b_dt
        del us
        x = bu @ i_kt
        x += zs @ k_t
        # zs - bu, then the innovations z_k - A x_{k-1} - B u_{k-1}, in place;
        # A x_{k-1} of every row, the segment's first included, comes from
        # one row product, so that no row rounds by where its segment starts
        zs -= bu
        del bu
        start = _linear_recursion(f, start, x, f_block)
        zs -= np.concatenate([x_prev[:, None], x[:, :-1]], axis=1) @ a_dt
        seg_nis = np.einsum("bki,bki->bk", zs @ s_inv_t, zs)
        for j, i in enumerate(tailed):
            a, v = at[j], valid[j]
            x_hat[i, a : a + v] = x[j, :v]
            nis[i, a : a + v] = seg_nis[j, :v]
        x_prev = x[:, -1]
        done += rows


def steady_state_covariance(
    a_d: np.ndarray, q_eff: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Posterior covariance fixed point of the predict/update recursion;
    read-only, and computed once per content.

    The prior fixed point solves the filtering DARE, the dual of the
    control one: P = A P A^T - A P (P + R)^-1 P A^T + Q_eff.  The update
    of ``gain_schedule`` then gives the posterior.  Raises
    ``CovarianceError`` where the doubling finds no stabilizing solution,
    for instance for Q_eff = 0 with an unstable A_d.
    """
    return _steady(*_content_key(a_d, q_eff, r))


@functools.lru_cache(maxsize=1024)
def _steady(shapes: tuple, *blobs: bytes) -> np.ndarray:
    """``_steady_posterior`` of the (a_d, q_eff, r) of a ``_content_key``,
    read-only.  A failure raises and is not cached."""
    out = _steady_posterior(*_from_key(shapes, blobs))
    out.setflags(write=False)
    return out


#: Doubling steps of ``_steady_posterior`` before it gives up: 2^64
#: steps of the covariance recursion.
_DOUBLINGS = 64


def _steady_posterior(a_d: np.ndarray, q_eff: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``steady_state_covariance`` by the SDA for the control-form DARE
    with A = A_d^T, G = R^-1 and H = Q_eff.  Each doubling sets
    W = (I + G H)^-1, then A <- A W A, G <- G + A W G A^T and
    H <- H + A^T H W A, so that H_k is the prior after 2^k steps of the
    recursion from a zero posterior and A_k the closed-loop transition
    over those steps.  H has converged to the stabilizing solution once it
    stops changing and A_k has vanished.
    """
    n = a_d.shape[0]
    a, g, h = a_d.T, np.linalg.inv(r), q_eff
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(_DOUBLINGS):
                wa, wg = np.split(np.linalg.solve(np.eye(n) + g @ h, np.hstack((a, g))), 2, 1)
                h_next = h + a.T @ h @ wa
                g = g + a @ wg @ a.T
                a = a @ wa
                g, h_next = 0.5 * (g + g.T), 0.5 * (h_next + h_next.T)
                settled = np.abs(h_next - h).max() <= STEADY_STATE_RTOL * max(
                    1.0, np.abs(h_next).max()
                )
                h = h_next
                if settled and np.abs(a).max() <= STEADY_STATE_RTOL:
                    return _update_covariance(h[None], r[None])[2][0]
    except FloatingPointError:
        pass
    raise CovarianceError(
        None,
        "the Riccati doubling found no stabilizing steady state; "
        "check that the model's unstable modes receive process noise",
    )
