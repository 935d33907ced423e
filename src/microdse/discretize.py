"""Discretization of continuous LTI models at a fixed sampling period.

The exact (zero-order-hold) method needs the matrix exponential, computed
here in numpy by Pade-13 scaling and squaring (Higham, SIAM J. Matrix
Anal. Appl. 26, 2005).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ContinuousLtiModel

#: Condition-number cutoff beyond which the continuous A matrix is treated
#: as non-invertible for the exact method.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class DiscreteLtiModel:
    """Discrete-time pair (A_d, B_d) at sampling period ``t_s``."""

    a_d: np.ndarray
    b_d: np.ndarray
    t_s: float
    method: str  # "euler" or "exact"
    state_labels: tuple[str, ...] = ()
    input_labels: tuple[str, ...] = ()

    def __post_init__(self):
        a = np.asarray(self.a_d, dtype=float)
        b = np.asarray(self.b_d, dtype=float)
        object.__setattr__(self, "a_d", a)
        object.__setattr__(self, "b_d", b)
        if self.t_s <= 0.0 or not np.isfinite(self.t_s):
            raise ValueError("t_s must be strictly positive")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape[0] != a.shape[0]:
            raise ValueError(f"inconsistent dimensions: A_d {a.shape}, B_d {b.shape}")
        if self.method not in ("euler", "exact"):
            raise ValueError(f"unknown discretization method {self.method!r}")

    @property
    def n_states(self) -> int:
        return self.a_d.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b_d.shape[1]


def discretize_euler(m: ContinuousLtiModel, t_s: float) -> DiscreteLtiModel:
    """First-order forward-Euler discretization: A_d = I + T_s A, B_d = T_s B."""
    if t_s <= 0.0 or not np.isfinite(t_s):
        raise ValueError("t_s must be strictly positive")
    a_d = np.eye(m.n_states) + t_s * m.a
    b_d = t_s * m.b
    return DiscreteLtiModel(a_d, b_d, t_s, "euler", m.state_labels, m.input_labels)


#: Coefficients b_0..b_13 of the degree-13 Pade approximant of e^x,
#: divided by b_0 so that e^0 comes out exactly as I.
_PADE13 = np.array(
    [
        64764752532480000, 32382376266240000, 7771770303897600,
        1187353796428800, 129060195264000, 10559470521600, 670442572800,
        33522128640, 1323241920, 40840800, 960960, 16380, 182, 1,
    ]
) / 64764752532480000
#: 1-norm up to which the degree-13 approximant is accurate to double
#: precision; larger matrices are scaled down by powers of two.
_THETA13 = 5.371920351148152


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """Matrix exponential e^A: the Pade-13 approximant of A / 2^s, squared
    s times, with the least s that brings the 1-norm to ``_THETA13``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**squarings
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    # the odd and even parts of the numerator, as U = A (A6 U1 + U0) and
    # V = A6 V1 + V0; the denominator is V - U
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + eye
    out = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        out = out @ out
    return out


def discretize_exact(m: ContinuousLtiModel, t_s: float) -> DiscreteLtiModel:
    """Zero-order-hold discretization A_d = e^{T_s A}, B_d = A^{-1}(A_d - I)B.

    Requires an invertible continuous A; near-singular matrices
    (condition number above ``CONDITION_LIMIT``) are rejected.
    """
    if t_s <= 0.0 or not np.isfinite(t_s):
        raise ValueError("t_s must be strictly positive")
    cond = np.linalg.cond(m.a)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise np.linalg.LinAlgError(
            f"continuous A is singular or near-singular (cond={cond:.3e}); "
            "use discretize_euler for this model"
        )
    a_d = matrix_exponential(t_s * m.a)
    b_d = np.linalg.solve(m.a, (a_d - np.eye(m.n_states)) @ m.b)
    return DiscreteLtiModel(a_d, b_d, t_s, "exact", m.state_labels, m.input_labels)
