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
    """

    rank_rtol: float = 1e-10
    membership_rtol: float = 1e-8


DEFAULT_TOLS = Tolerances()

PHASE_ROUND_TOL = 1e-9  # phases this close to 0 or pi are snapped there


def _reference(s: np.ndarray, scale: Optional[float]) -> float:
    top = float(s[0]) if s.size else 0.0
    return max(top, scale) if scale is not None else top


def singular_values(mat: np.ndarray) -> np.ndarray:
    """All singular values of mat, descending."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.zeros(0)
    return np.linalg.svd(mat, compute_uv=False)


def numerical_rank(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> int:
    s = singular_values(mat)
    ref = _reference(s, scale)
    if ref == 0.0:
        return 0
    return int(np.sum(s > tols.rank_rtol * ref))


def nonzero_singular_values(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> np.ndarray:
    s = singular_values(mat)
    return s[: numerical_rank(mat, tols, scale)]


def sigma_max(mat: np.ndarray) -> float:
    s = singular_values(mat)
    return float(s[0]) if s.size else 0.0


def sigma_min_nonzero(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> float:
    """Smallest nonzero singular value; raises on the zero matrix."""
    s = nonzero_singular_values(mat, tols, scale)
    if s.size == 0:
        raise ValueError("matrix has no nonzero singular value")
    return float(s[-1])


def pinv_and_row_basis(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Moore-Penrose pseudo-inverse with the package's rank cutoff, and an
    orthonormal basis of row(mat) as columns (shape (cols, rank)), from one SVD."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.zeros(mat.shape[::-1]), np.zeros((mat.shape[1], 0))
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    ref = _reference(s, scale)
    if ref == 0.0:
        return np.zeros(mat.shape[::-1]), np.zeros((mat.shape[1], 0))
    keep = s > tols.rank_rtol * ref
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T, vt[keep].T


def pinv(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the package's rank cutoff."""
    return pinv_and_row_basis(mat, tols, scale)[0]


def in_column_space(
    mat: np.ndarray, mat_pinv: np.ndarray, vec: np.ndarray, tols: Tolerances = DEFAULT_TOLS
) -> bool:
    """vec lies in col(mat), judged with mat's pseudo-inverse mat_pinv."""
    vec = np.asarray(vec, dtype=float)
    nv = np.linalg.norm(vec)
    if nv == 0.0:
        return True
    resid = mat @ (mat_pinv @ vec) - vec
    return bool(np.linalg.norm(resid) <= tols.membership_rtol * nv)


def column_space_basis(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> np.ndarray:
    """Orthonormal basis of col(mat) as columns; shape (rows, rank)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    ref = _reference(s, scale)
    r = int(np.sum(s > tols.rank_rtol * ref)) if ref > 0 else 0
    return u[:, :r]


def kernel_basis(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> np.ndarray:
    """Orthonormal basis of ker(mat) (right null space) as columns."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    ncols = mat.shape[1]
    if ncols == 0:
        return np.zeros((0, 0))
    u, s, vt = np.linalg.svd(mat, full_matrices=True)
    ref = _reference(s, scale)
    if ref == 0.0:
        return np.eye(ncols)
    r = int(np.sum(s > tols.rank_rtol * ref))
    return vt[r:].T


def projector_onto_columns(
    mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS, scale: Optional[float] = None
) -> np.ndarray:
    """Orthogonal projector onto col(mat)."""
    basis = column_space_basis(mat, tols, scale)
    return basis @ basis.T


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
