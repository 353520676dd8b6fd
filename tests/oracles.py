"""Independent oracles used to freeze expected values.

These solve the same optimization problems as the library but along different
numerical routes (stacked KKT systems and min-norm least squares instead of
null-space parametrizations, the real Schur form instead of a complex
eigendecomposition), so agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from spanforge._linalg import PHASE_ROUND_TOL
from spanforge.oracle import PHASE_CLUSTER_TOL, subspace_projector
from spanforge.spanprog import SpanProgram


def kkt_equality_ls(c_mat: np.ndarray, d: np.ndarray, e_mat: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Minimize ||C w - d||^2 subject to E w = f via the KKT block system,
    solved as one least-squares problem (consistent by construction)."""
    n = c_mat.shape[1]
    m = e_mat.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = 2.0 * c_mat.T @ c_mat
    kkt[:n, n:] = e_mat.T
    kkt[n:, :n] = e_mat
    rhs = np.concatenate([2.0 * c_mat.T @ d, f])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:n]


def oracle_min_error_positive(program: SpanProgram, x) -> tuple[float, float, np.ndarray]:
    """(e_plus, w_tilde_plus, w_tilde) by KKT stage one plus stacked min-norm
    stage two."""
    proj = subspace_projector(program, x)
    perp = np.eye(program.dim_h) - proj
    a_mat = np.asarray(program.a_mat)
    tau = np.asarray(program.tau)
    w1 = kkt_equality_ls(perp, np.zeros(program.dim_h), a_mat, tau)
    resid = perp @ w1
    e_plus = float(resid @ resid)
    # stage two: the min-norm solution of the stacked equalities
    stacked = np.vstack([a_mat, perp])
    rhs = np.concatenate([tau, resid])
    w2, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    return e_plus, float(w2 @ w2), w2


def oracle_negative_witness(program: SpanProgram, x) -> tuple[float, np.ndarray]:
    """(w_minus, omega A) via KKT over the functional coefficients u
    (omega = u^T): minimize ||A^T u||^2 subject to Pi A^T u = 0 and
    tau . u = 1.  (inf, None) when x is positive."""
    proj = subspace_projector(program, x)
    a_mat = np.asarray(program.a_mat)
    tau = np.asarray(program.tau)
    cons = np.vstack([proj @ a_mat.T, tau[None, :]])
    f = np.zeros(cons.shape[0])
    f[-1] = 1.0
    u = kkt_equality_ls(a_mat.T, np.zeros(program.dim_h), cons, f)
    if np.linalg.norm(cons @ u - f) > 1e-7:
        return float("inf"), None
    row = a_mat.T @ u
    return float(row @ row), row


def oracle_min_error_negative(program: SpanProgram, x) -> tuple[float, float, np.ndarray]:
    """(e_minus, w_tilde_minus, omega_tilde A) by KKT stage one plus a KKT
    stage two."""
    proj = subspace_projector(program, x)
    a_mat = np.asarray(program.a_mat)
    tau = np.asarray(program.tau)
    cons = tau[None, :]
    u1 = kkt_equality_ls(proj @ a_mat.T, np.zeros(program.dim_h), cons, np.array([1.0]))
    on_x = proj @ a_mat.T @ u1
    e_minus = float(on_x @ on_x)
    cons2 = np.vstack([tau[None, :], proj @ a_mat.T])
    f2 = np.concatenate([[1.0], on_x])
    u2 = kkt_equality_ls(a_mat.T, np.zeros(program.dim_h), cons2, f2)
    row = a_mat.T @ u2
    return e_minus, float(row @ row), row


def schur_phase_clusters(u_mat: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(unsigned phase, projector) per phase cluster of a real orthogonal
    matrix, from scipy's real Schur form: a 2 x 2 block of T carries the
    phase of its rotation, a 1 x 1 block +/-1.  Phases are snapped to 0 or pi
    within PHASE_ROUND_TOL and grouped within PHASE_CLUSTER_TOL of a group's
    smallest phase, as oracle.decompose_orthogonal groups them."""
    t_mat, q_mat = scipy.linalg.schur(u_mat, output="real")
    blocks: list[tuple[float, list[int]]] = []
    i = 0
    while i < len(t_mat):
        # LAPACK's standard form has exact zeros between 1 x 1 blocks
        if i + 1 < len(t_mat) and t_mat[i + 1, i] != 0.0:
            cos = 0.5 * (t_mat[i, i] + t_mat[i + 1, i + 1])
            sin = 0.5 * (t_mat[i + 1, i] - t_mat[i, i + 1])
            blocks.append((abs(math.atan2(sin, cos)), [i, i + 1]))
            i += 2
        else:
            blocks.append((0.0 if t_mat[i, i] > 0.0 else math.pi, [i]))
            i += 1
    snapped = sorted(
        (0.0 if theta <= PHASE_ROUND_TOL else math.pi if math.pi - theta <= PHASE_ROUND_TOL
         else theta, cols)
        for theta, cols in blocks
    )
    groups: list[tuple[float, list[int]]] = []
    for theta, cols in snapped:
        if groups and theta - groups[-1][0] <= PHASE_CLUSTER_TOL:
            groups[-1][1].extend(cols)
        else:
            groups.append((theta, list(cols)))
    return [(theta, q_mat[:, cols] @ q_mat[:, cols].T) for theta, cols in groups]
