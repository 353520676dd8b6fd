"""Dense linear algebra helpers with explicit rank tolerances.

Every rank decision in the package goes through this module so that the
zero-cutoff convention is applied uniformly: a singular value counts as zero
iff it is at most rank_rtol times the largest singular value.  Callers that
know the structural scale of a product (for example projector times
orthonormal basis, whose genuine singular values are at most 1) pass it as
`scale`, which floors the reference so an all-noise matrix is treated as
exactly zero instead of having its noise inverted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by all witness computations.

    rank_rtol: a singular value sigma counts as zero iff sigma <= rank_rtol * reference.
    membership_rtol: v is in col(M) iff ||M M^+ v - v|| <= membership_rtol * ||v||.
    Both must lie in (0, 1); anything else raises ValueError.
    """

    rank_rtol: float = 1e-10
    membership_rtol: float = 1e-8

    def __post_init__(self):
        # a chained comparison, so that NaN fails too
        if not (0.0 < self.rank_rtol < 1.0 and 0.0 < self.membership_rtol < 1.0):
            raise ValueError(
                f"tolerances must lie in (0, 1), got rank_rtol={self.rank_rtol!r} "
                f"and membership_rtol={self.membership_rtol!r}"
            )


DEFAULT_TOLS = Tolerances()

PHASE_ROUND_TOL = 1e-9  # phases this close to 0 or pi are snapped there


def _rank(s: np.ndarray, tols: Tolerances, scale: Optional[float]) -> int:
    """How many of the descending singular values s are nonzero: above
    rank_rtol times the largest, floored by scale when given."""
    top = float(s[0]) if s.size else 0.0
    ref = max(top, scale) if scale is not None else top
    return int(np.count_nonzero(s > tols.rank_rtol * ref)) if ref > 0.0 else 0


def singular_values(mat: np.ndarray) -> np.ndarray:
    """All singular values of mat, descending."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.zeros(0)
    return np.linalg.svd(mat, compute_uv=False)


def numerical_rank(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> int:
    return _rank(singular_values(mat), tols, scale)


def _svd(
    mat: np.ndarray, tols: Tolerances, scale: Optional[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Thin SVD of a nonempty mat and its rank under the package's cutoff."""
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    return u, s, vt, _rank(s, tols, scale)


def svd_factors(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The factors of one SVD cut at the package's rank tolerance:
    orthonormal bases of col(mat) (rows x rank) and row(mat) (cols x rank) as
    columns, the nonzero singular values between them, and the largest
    singular value."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rows, cols = mat.shape
    if mat.size == 0:
        return np.zeros((rows, 0)), np.zeros(0), np.zeros((cols, 0)), 0.0
    u, s, vt, rank = _svd(mat, tols, scale)
    return u[:, :rank], s[:rank], vt[:rank].T, float(s[0])


def pinv(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the package's rank cutoff."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.zeros(mat.shape[::-1])
    u, s, vt, rank = _svd(mat, tols, scale)
    inv = np.zeros_like(s)
    inv[:rank] = 1.0 / s[:rank]
    return (vt.T * inv) @ u.T


def column_space_split(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of col(mat) and of its orthogonal complement, as
    columns, from one SVD; shapes (rows, rank) and (rows, rows - rank)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0)), np.eye(mat.shape[0])
    u, s, _ = np.linalg.svd(mat, full_matrices=True)
    rank = _rank(s, tols, scale)
    return u[:, :rank], u[:, rank:]


def freeze(arr: np.ndarray) -> np.ndarray:
    """Return a read-only float array (shared values are never mutated).  An
    array that already is one, and owns its data, is returned as it is; any
    other is copied."""
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.float64
        and arr.flags.owndata
        and not arr.flags.writeable
    ):
        return arr
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out
