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

import math
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


def sigma_max(mat: np.ndarray) -> float:
    s = singular_values(mat)
    return float(s[0]) if s.size else 0.0


def sigma_min_nonzero(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> float:
    """Smallest nonzero singular value; raises on the zero matrix."""
    s = singular_values(mat)
    rank = _rank(s, tols, scale)
    if rank == 0:
        raise ValueError("matrix has no nonzero singular value")
    return float(s[rank - 1])


def pinv_factors(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Moore-Penrose pseudo-inverse with the package's rank cutoff and the
    factors of the one SVD it comes from: orthonormal bases of col(mat)
    (rows x rank) and row(mat) (cols x rank) as columns, the nonzero
    singular values between them, and the largest singular value."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rows, cols = mat.shape
    if mat.size == 0:
        return np.zeros((cols, rows)), np.zeros((rows, 0)), np.zeros(0), np.zeros((cols, 0)), 0.0
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    rank = _rank(s, tols, scale)
    inv = np.zeros_like(s)
    inv[:rank] = 1.0 / s[:rank]
    return (vt.T * inv) @ u.T, u[:, :rank], s[:rank], vt[:rank].T, float(s[0])


def pinv(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the package's rank cutoff."""
    return pinv_factors(mat, tols, scale)[0]


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


def kernel_basis(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> np.ndarray:
    """Orthonormal basis of ker(mat) (right null space) as columns."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    ncols = mat.shape[1]
    if ncols == 0:
        return np.zeros((0, 0))
    _, s, vt = np.linalg.svd(mat, full_matrices=True)
    rank = _rank(s, tols, scale)
    return vt[rank:].T if rank else np.eye(ncols)


def is_orthogonal_projector(mat: np.ndarray, tol: float = 1e-10) -> bool:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    return bool(
        np.max(np.abs(mat - mat.T)) <= tol and np.max(np.abs(mat @ mat - mat)) <= tol
    )


def intersection_dims(
    pi_a: np.ndarray, pi_b: np.ndarray, tol: float = math.sin(PHASE_ROUND_TOL / 2.0)
) -> dict:
    """Dimensions of the four intersections of the subspaces behind two projectors.

    dim(P cap Q) = dim P - rank(Pi_{Q^perp} Pi_P): a unit vector of P at
    principal angle phi from Q keeps a component sin(phi) outside Q, and a
    singular value at most tol counts as zero.  The reflection product
    (2 Pi_A - I)(2 Pi_B - I) turns the plane of such a vector by 2 phi, so the
    default cutoff counts a direction exactly when its phase is snapped to 0 or
    pi.
    """
    eye = np.eye(pi_a.shape[0])
    ca, cb = eye - pi_a, eye - pi_b

    def meet(pi_p: np.ndarray, pi_q_perp: np.ndarray) -> int:
        dim_p = int(round(float(np.trace(pi_p))))
        return dim_p - int(np.sum(singular_values(pi_q_perp @ pi_p) > tol))

    return {
        "a_and_b": meet(pi_a, cb),
        "a_and_bperp": meet(pi_a, pi_b),
        "aperp_and_b": meet(ca, cb),
        "aperp_and_bperp": meet(ca, pi_b),
    }


def freeze(arr: np.ndarray) -> np.ndarray:
    """Return a read-only float array (shared values are never mutated)."""
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out
