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
arrays and each filter leaves the stack when it converges.  The state pass
steps the filters still inside their schedules one sample at a time, then
runs each filter's steady-gain remainder from its own convergence step as
a blocked linear recursion, a bounded segment of rows at a time.  A
filter's schedule and estimates are the same, bit for bit, for every B and
stack order (for the estimates, under the BLAS condition that
``filter_record`` states), and a lone filter is a stack of one.
``steady_state_covariance`` takes the limit directly from the discrete
algebraic Riccati equation (DARE), solved by the structure-preserving
doubling algorithm (SDA; Anderson, Int. J. Control 1978; Lin & Xu, SIAM
J. Matrix Anal. Appl. 2006) in a few dozen matrix products.

None of this work reads a measurement, so a process does it once per
content: the schedules of ``filter_record`` (through ``schedules_of``) and
the steady posteriors come from one small LRU memo keyed on the exact
bytes and shapes of the model and noise matrices (``_data_free``), and
are returned read-only.  Runs with the same model and noise, such as
Monte Carlo seeds, then share them.  An estimation run looks up N + 2
entries, the steady posterior of each of its N buses plus the local and
the global schedules, so the 8-entry memo serves grids of up to six
buses; on larger grids each run evicts what the next one needs, and the
memo never hits.
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
    ``x0`` (and so ``x_hat``) serves only the per-step ``predict``/
    ``update``/``step`` path: ``filter_record`` starts every estimate from
    the record's first measurement and never reads it.

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
        p0 = self.r.copy() if p0 is None else p0
        self.p = _check_covariance("p0", p0, dim=n)
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
        try:
            k, s_inv, p_next = _update_covariance(_predict_covariance(a_d, p, q_eff), r)
        except CovarianceError as exc:
            raise CovarianceError(step, str(exc), index=int(active[exc.index])) from None
        gains[active, step - 1] = k
        s_invs[active, step - 1] = s_inv
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
#: Values (filters x rows x states) per working array of one segment of
#: the steady tails in ``filter_record``.
_SEGMENT_VALUES = 2**16


def _linear_recursion(
    f: np.ndarray,
    x0: np.ndarray,
    g: np.ndarray,
    f_block: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Overwrite the rows g_1..g_N of each record in ``g`` (B, N, n) with
    x_1..x_N of x_k = f x_{k-1} + g_k, from x0 (B, n), for the B systems of
    the stack ``f`` (B, n, n).  ``f_block`` is f^_BLOCK, for callers that
    run many records with the same f.  Record i may end after
    ``lengths[i]`` rows (default N); its later rows are left undefined.
    Returns the state that starts the block after the last full one.

    The rows are cut into blocks of ``_BLOCK``.  One pass over the block
    offsets runs every block at once from a zero state.  A pass over the
    blocks then carries each block's end state into the next with
    f^_BLOCK, and a second pass over the offsets adds f^(j+1) times every
    block's start state to its j-th row, one matrix product per offset.
    That is N / _BLOCK + 2 _BLOCK small steps in Python instead of N, with
    one row per block of memory besides ``g``.  The rows of a record after
    its last full block are stepped one at a time from that block's start.
    Each system's rows are the same, bit for bit, for every B.
    """
    if not g.flags.c_contiguous:
        raise ValueError("the recursion runs in place on a C-contiguous array")
    n_sys, steps, n = g.shape
    blocks = steps // _BLOCK
    every = np.arange(n_sys)
    lengths = np.full(n_sys, steps) if lengths is None else np.asarray(lengths)
    stepped_from = lengths // _BLOCK * _BLOCK
    n_stepped = lengths - stepped_from
    stepped_rows = np.minimum(
        stepped_from[:, None] + np.arange(n_stepped.max(initial=0)), steps - 1
    )
    # kept before the block passes overwrite them
    stepped_g = g[every[:, None], stepped_rows]
    y = g[:, : blocks * _BLOCK].reshape(n_sys, blocks, _BLOCK, n)
    ft = _transposed(f)
    for j in range(1, _BLOCK):
        y[:, :, j] += y[:, :, j - 1] @ ft
    if f_block is None and blocks:
        f_block = np.linalg.matrix_power(f, _BLOCK)
    starts = np.empty((n_sys, blocks + 1, n))
    x = x0
    for b in range(blocks):
        starts[:, b] = x
        x = _apply(f_block, x) + y[:, b, -1]
    starts[:, blocks] = x
    offsets = starts[:, :blocks]
    for j in range(_BLOCK):
        offsets = offsets @ ft
        y[:, :, j] += offsets
    x_step = starts[every, stepped_from // _BLOCK]
    for r in range(stepped_rows.shape[1]):
        x_step = _apply(f, x_step) + stepped_g[:, r]
        keep = r < n_stepped
        g[every[keep], stepped_rows[keep, r]] = x_step[keep]
    return x


def schedules_of(
    estimators: list[KalmanEstimator], max_steps: int
) -> list[GainSchedule]:
    """``gain_schedule`` of the estimators, stacked, from their covariances
    ``p``; read-only, and computed once per content."""
    return list(
        _memoized(
            max_steps,
            [kf.model.a_d for kf in estimators],
            [kf.q_eff for kf in estimators],
            [kf.r for kf in estimators],
            [kf.p for kf in estimators],
        )
    )


def _memoized(max_steps: int | None, *matrices) -> tuple | np.ndarray:
    """``_data_free`` on the float stacks ``matrices``, keyed on their content."""
    stacks = [np.asarray(m, dtype=float) for m in matrices]
    return _data_free(max_steps, tuple(m.shape for m in stacks), *(m.tobytes() for m in stacks))


@functools.lru_cache(maxsize=8)
def _data_free(max_steps: int | None, shapes: tuple, *blobs: bytes) -> tuple | np.ndarray:
    """The data-free work on the float arrays of ``shapes`` whose bytes are
    ``blobs``, with every array read-only: for a ``max_steps``, the
    ``gain_schedule`` of the stacks (a_d, q_eff, r, p0) as a tuple; for
    None, the steady posterior of (a_d, q_eff, r).

    The key is the exact content, so equal inputs built separately share
    an entry and one changed bit misses it.  A failure raises and is not
    cached.
    """
    matrices = [np.frombuffer(b).reshape(s) for b, s in zip(blobs, shapes)]
    if max_steps is None:
        out = _steady_posterior(*matrices)
        out.setflags(write=False)
        return out
    schedules = tuple(gain_schedule(*matrices, max_steps))
    for sched in schedules:
        for m in (sched.gains, sched.s_inv, sched.p):
            m.setflags(write=False)
    return schedules


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

    * updates 1..max m_i, one sample at a time, each for the filters still
      inside their own schedule (filter i's is m_i updates long);
    * once filter i's gain has converged to K, the rest of its record is
      the linear recursion x_k = (I - K) A x_{k-1} + (I - K) B u_{k-1} +
      K z_k.  Every filter runs it from its own cut m_i through
      ``_linear_recursion``, in segments of whole blocks of at most
      ``_SEGMENT_VALUES`` values per working array, and each segment hands
      the next the start of its next block, so that no row depends on
      where a segment ends.

    The filters are read, not changed, so a second run on the same
    filters gives the same results.  A filter's results are the same, bit
    for bit, alone as in any stack and order, provided BLAS rounds each row
    of a matrix product the same for every row count of at least two.
    OpenBLAS does for small models such as the 4-state local filters; for
    products of wide matrices with few rows it may not.  The stack never
    decides whether a product is a matrix-vector one, which BLAS rounds
    differently.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    if z.shape[0] == 0:
        raise ValueError("empty record")
    index = np.arange(len(filters)) if index is None else np.asarray(index)
    schedules = schedules_of(filters, z.shape[0] - 1)
    cuts = np.array([s.gains.shape[0] for s in schedules])
    # longest schedule first: the filters inside their schedules at an
    # update, and those whose tails still run in a segment, are then a
    # prefix and a suffix of ``order``
    order = np.argsort(-cuts, kind="stable")
    x_hat = np.empty((len(filters), z.shape[0], z.shape[2]))
    nis = np.full(x_hat.shape[:2], np.nan)
    x_hat[:, 0] = z[0, index]
    _schedule_segment(filters, schedules, order, z, u, index, x_hat, nis)
    _steady_tails(filters, schedules, order, z, u, index, x_hat, nis)
    return x_hat, nis


def _schedule_segment(filters, schedules, order, z, u, index, x_hat, nis):
    """Updates 1..max m_i of ``filter_record``, one sample at a time, each
    for the filters whose schedules reach it, in chunks of updates of at
    most ``_SEGMENT_VALUES`` gain values."""
    cuts = np.array([schedules[i].gains.shape[0] for i in order])
    steps = int(cuts[0])
    n_filters, _, n = x_hat.shape
    # filters inside their schedules at update k: order[:active[k - 1]]
    active = np.searchsorted(-cuts, -np.arange(1, steps + 1), side="right")
    a_d = np.array([filters[i].model.a_d for i in order])
    b_dt = _right_factor(np.array([filters[i].model.b_d for i in order]))
    chunk = max(2, _SEGMENT_VALUES // (n_filters * n * n))
    x = x_hat[order, 0]
    for k0 in range(0, steps, chunk):
        k1 = min(steps, k0 + chunk)
        live = order[: active[k0]]
        gains = np.empty((k1 - k0, live.size, n, n))
        for j, i in enumerate(live):
            g = schedules[i].gains[k0:k1]
            gains[: len(g), j] = g
        zs = z[k0 + 1 : k1 + 1, index[live]]
        # B u as the rows of one matrix product per filter, of at least
        # two rows
        us = u[k0 : max(k1, k0 + 2), index[live]].swapaxes(0, 1)
        bu = (np.ascontiguousarray(us) @ b_dt[: live.size]).swapaxes(0, 1)
        innovation = np.empty((k1 - k0, live.size, n))
        for k in range(k0 + 1, k1 + 1):
            c, r = active[k - 1], k - 1 - k0
            x_prior = _apply(a_d[:c], x[:c]) + bu[r, :c]
            d = innovation[r, :c] = zs[r, :c] - x_prior
            x = x_prior + _apply(gains[r, :c], d)
            x_hat[order[:c], k] = x
        for j, i in enumerate(live):
            d = innovation[: min(cuts[j], k1) - k0, j]
            nis[i, k0 + 1 : k0 + 1 + len(d)] = np.einsum(
                "ki,kij,kj->k", d, schedules[i].s_inv[k0 : k0 + len(d)], d
            )


def _steady_tails(filters, schedules, order, z, u, index, x_hat, nis):
    """The records of ``filter_record`` after each filter's cut, as one
    stack of linear recursions run a segment at a time."""
    n_rec, n = x_hat.shape[1:]
    cuts = np.array([schedules[i].gains.shape[0] for i in order])
    # ascending, since ``order`` sorts the cuts descending
    tails = n_rec - 1 - cuts
    order, cuts, tails = (a[tails > 0] for a in (order, cuts, tails))
    if not order.size:
        return
    a_d = np.array([filters[i].model.a_d for i in order])
    k_inf = np.array([schedules[i].gains[-1] for i in order])
    i_k = np.eye(n) - k_inf
    f = i_k @ a_d
    f_block = np.linalg.matrix_power(f, _BLOCK)
    # right factors of the row products below
    a_dt, b_dt, k_t, i_kt, s_inv_t = (
        _right_factor(m)
        for m in (
            a_d,
            np.array([filters[i].model.b_d for i in order]),
            k_inf,
            i_k,
            np.array([schedules[i].s_inv[-1] for i in order]),
        )
    )
    # at least two blocks, so that no block pass multiplies a single row
    seg_blocks = max(2, _SEGMENT_VALUES // (order.size * n * _BLOCK))
    start = x_hat[order, cuts]
    x_prev = start.copy()
    done = 0
    first = 0
    while first < order.size:
        blocks = min(seg_blocks, max(2, -(-(int(tails[-1]) - done) // _BLOCK)))
        rows = blocks * _BLOCK
        live = slice(first, None)
        valid = np.minimum(tails[live] - done, rows)
        # the segment holds samples at + 0..rows-1 of each live filter
        at = cuts[live] + 1 + done
        zs = np.zeros((valid.size, rows, n))
        us = np.zeros((valid.size, rows, u.shape[2]))
        for j, i in enumerate(order[live]):
            a, v, r = at[j], valid[j], index[i]
            zs[j, :v] = z[a : a + v, r]
            us[j, :v] = u[a - 1 : a - 1 + v, r]
        bu = us @ b_dt[live]
        del us
        x = bu @ i_kt[live]
        x += zs @ k_t[live]
        # zs - bu, then the innovations z_k - A x_{k-1} - B u_{k-1}, in place;
        # A x_{k-1} of every row, the segment's first included, comes from
        # one row product, so that no row rounds by where its segment starts
        zs -= bu
        del bu
        start[live] = _linear_recursion(f[live], start[live], x, f_block[live], valid)
        zs -= np.concatenate([x_prev[live, None], x[:, :-1]], axis=1) @ a_dt[live]
        seg_nis = np.einsum("bki,bki->bk", zs @ s_inv_t[live], zs)
        for j, i in enumerate(order[live]):
            a, v = at[j], valid[j]
            x_hat[i, a : a + v] = x[j, :v]
            nis[i, a : a + v] = seg_nis[j, :v]
        x_prev[live] = x[:, -1]
        done += rows
        first = int(np.searchsorted(tails, done, side="right"))


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
    return _memoized(None, a_d, q_eff, r)


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
