"""Dense linear algebra helpers with explicit rank tolerances.

Every rank decision in the package goes through this module, under one of
two cuts.  An SVD's singular value counts as zero iff it is at most
rank_rtol times the largest singular value (_rank).  Callers that know the
structural scale of a product (for example projector times orthonormal
basis, whose genuine singular values are at most 1, or Z^T A against
sigma_max(A)) pass it as `scale`, which floors the reference so an
all-noise matrix is treated as exactly zero instead of having its noise
inverted.  A matrix read through one eigh of its exact Gram (_gram_factors)
keeps an eigenvalue iff it is above max(rank_rtol^2, GRAM_NOISE_RTOL dim_v)
sigma_max^2: the SVD's cut, squared, floored at eigh's noise.  Every
min-norm solve reads such cut factors (min_norm_functional, and
V_r Sigma^-1 U_r^T in the callers); no pseudo-inverse matrix is formed.
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
# the Gram route's floor on the eigenvalues of A A^T or G(x), per row of A
# and relative to sigma_max(A)^2: the kernel eigenvalues of 2 L_G measured at
# most 0.14 dim_v eps relative, over random graphs cut in two, n <= 800
GRAM_NOISE_RTOL = 10.0 * np.finfo(float).eps


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
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    rank = _rank(s, tols, scale)
    return u[:, :rank], s[:rank], vt[:rank].T, float(s[0])


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


def _gram_factors(
    gram: np.ndarray, tols: Tolerances, a_scale: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """The factors of a matrix M read from one eigh of its exact Gram
    G = M M^T = U diag(lam) U^T, lam descending: the whole of U, whose first
    rank columns span col M and the rest its complement, the nonzero
    singular values sigma = sqrt(lam) over the kept lam, and the reference
    sigma_max(A): a_scale when given, as for G(x) = A(x) A(x)^T, and
    sqrt(lam_max) when M is A itself.

    An eigenvalue counts as nonzero iff
    lam > max(rank_rtol^2, GRAM_NOISE_RTOL dim_v) sigma_max(A)^2.  The first
    term is the SVD route's cut at rank_rtol sigma_max, squared, so a
    caller's rank_rtol means the same on both routes.  The second is a floor
    at eigh's noise: eigh gives lam only to within a few eps ||G||, and
    ||G|| <= sigma_max^2, so it resolves sigma only to about
    sqrt(eps) sigma_max, and a squared cut below that would count noise as
    rank.  At the default rank_rtol the floor is the cut."""
    lam, u = np.linalg.eigh(gram)
    lam, u = lam[::-1], u[:, ::-1]
    if a_scale is None:
        a_scale = math.sqrt(float(lam[0]))
    cut = max(tols.rank_rtol**2, GRAM_NOISE_RTOL * gram.shape[0]) * a_scale * a_scale
    return u, np.sqrt(lam[: np.count_nonzero(lam > cut)]), a_scale


def min_norm_functional(
    col_basis: np.ndarray, sigma: np.ndarray, c: np.ndarray, tols: Tolerances
) -> tuple[Optional[np.ndarray], float]:
    """Minimize ||nu^T B||^2 subject to nu . c = 1, for the cut factors of B:
    an orthonormal basis U_r (col_basis) of col B and its nonzero singular
    values sigma.  Returns (nu, value): (None, inf) when c = 0; (the part of
    c off col B, scaled to nu . c = 1, and 0.0) when that part is above
    membership_rtol ||c||, as the objective is then exactly zero; otherwise
    nu = U_r (Sigma^-2 U_r^T c) / d and 1 / d, d = ||Sigma^-1 U_r^T c||^2."""
    if not c.any():
        return None, math.inf
    g = col_basis.T @ c
    kernel_part = c - col_basis @ g
    if np.linalg.norm(kernel_part) > tols.membership_rtol * np.linalg.norm(c):
        return kernel_part / float(kernel_part @ c), 0.0
    coef = g / sigma
    denom = float(coef @ coef)
    return col_basis @ (coef / sigma) / denom, 1.0 / denom


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
