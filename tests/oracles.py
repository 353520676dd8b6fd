"""Independent oracles used to freeze expected values.

These solve the same optimization problems as the library but along different
numerical routes (stacked KKT systems and min-norm least squares instead of
null-space parametrizations, the real Schur form instead of a complex
eigendecomposition), so agreement is meaningful.

per_call_spectral_trial and per_call_kappa_trial are verify's spectral and
kappa trials as they read an input before each trial read it once: every
quantity from its own public call, which factors A(x) anew, and one
small_phase_projector per theta.  The trials must match them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from spanforge._linalg import PHASE_ROUND_TOL, Tolerances, svd_factors
from spanforge.generators import all_inputs, random_graph, random_projector_pair
from spanforge.generators import random_span_program
from spanforge.oracle import PHASE_CLUSTER_TOL, build_U, build_Uprime, decompose_orthogonal
from spanforge.oracle import flow_resistance_bruteforce, subspace_projector
from spanforge.resistance import build_st_span_program, exact_resistance, graph_input, lambda2
from spanforge.resistance import witness_equals_half_resistance
from spanforge.spanprog import SpanProgram, input_factors, minimal_witness, normalize
from spanforge.spanprog import witness_report
from spanforge.spectral import kappa_bound, measure_U, measure_Uprime, row_space_cross
from spanforge.verify import THETA_GRID, _measure_gap, _rng


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


def per_call_spectral_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """verify._spectral_trial, each quantity from its own public call."""
    worst_p0_neg = worst_p0_pos = 0.0
    worst_measure_u = worst_measure_up = 0.0
    worst_th_neg = worst_th_pos = -math.inf
    worst_raw = -math.inf
    rng = _rng(seed, trial)
    program = normalize(random_span_program(rng), tols)
    w0 = np.asarray(minimal_witness(program, tols).w0)
    for x in all_inputs(program):
        rep = witness_report(input_factors(program, x, tols))
        dec = build_U(program, x, tols)
        decp = build_Uprime(program, x, tols)
        fast_u = measure_U(row_space_cross(input_factors(program, x, tols)))
        worst_measure_u = max(worst_measure_u, _measure_gap(fast_u, dec.measure(w0)))
        if math.isfinite(rep.w_plus):
            fast_up = measure_Uprime(row_space_cross(input_factors(program, x, tols)))
            worst_measure_up = max(worst_measure_up, _measure_gap(fast_up, decp.measure(w0)))
        inv_wm = 0.0 if math.isinf(rep.w_minus) else 1.0 / rep.w_minus
        inv_wp = 0.0 if math.isinf(rep.w_plus) else 1.0 / rep.w_plus
        worst_p0_neg = max(
            worst_p0_neg, abs(float(w0 @ dec.fixed_projector() @ w0) - inv_wm)
        )
        worst_p0_pos = max(
            worst_p0_pos, abs(float(w0 @ decp.fixed_projector() @ w0) - inv_wp)
        )
        for theta in THETA_GRID:
            lhs = float(w0 @ dec.small_phase_projector(theta) @ w0)
            worst_th_neg = max(
                worst_th_neg, lhs - (theta**2 / 4.0 * rep.w_tilde_plus + inv_wm)
            )
            lhs = float(w0 @ decp.small_phase_projector(theta) @ w0)
            worst_th_pos = max(
                worst_th_pos, lhs - (theta**2 / 4.0 * rep.w_tilde_minus + inv_wp)
            )
    dim = int(rng.integers(3, 9))
    pi_a, pi_b = random_projector_pair(rng, dim)
    u_dec = decompose_orthogonal((2.0 * pi_a - np.eye(dim)) @ (2.0 * pi_b - np.eye(dim)))
    vec = rng.standard_normal(dim)
    vec -= pi_a @ vec
    if np.linalg.norm(vec) > 1e-9:
        for theta in THETA_GRID:
            lhs = float(
                np.linalg.norm(u_dec.small_phase_projector(theta) @ (pi_b @ vec))
            )
            worst_raw = max(worst_raw, lhs - theta / 2.0 * float(np.linalg.norm(vec)))
    return (worst_p0_neg, worst_p0_pos, worst_th_neg, worst_th_pos, worst_raw,
            worst_measure_u, worst_measure_up)


def per_call_kappa_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """verify._kappa_trial, each quantity from its own public call."""
    worst_u = worst_up = -math.inf
    worst_sigma = worst_res = 0.0
    rng = _rng(seed, trial)
    program = random_span_program(rng)
    for x in all_inputs(program):
        try:
            bound = kappa_bound(input_factors(program, x, tols))
        except ValueError:
            continue
        dec = build_U(program, x, tols)
        worst_u = max(worst_u, bound - dec.phase_gap())
        rep = witness_report(input_factors(program, x, tols))
        if math.isfinite(rep.w_plus):
            decp = build_Uprime(program, x, tols)
            worst_up = max(worst_up, bound - decp.phase_gap())

    n = int(rng.integers(3, 8))
    g = random_graph(rng, n, edge_prob=0.6)
    program = build_st_span_program(g.n, g.s, g.t)
    factors = input_factors(program, graph_input(g), tols)
    fact = program.factorization(tols)
    col_basis, sigma, _, top = svd_factors(program.a_mat, tols)
    lam = lambda2(g)
    if lam > 1e-9:
        worst_sigma = max(
            worst_sigma, abs(float(factors.sigma[-1]) - math.sqrt(2.0 * lam)) / top
        )
    worst_sigma = max(
        worst_sigma,
        abs(factors.a_scale - top) / top,
        float(np.max(np.abs(fact.sigma - sigma))) / top
        if fact.sigma.shape == sigma.shape else math.inf,
        float(np.max(np.abs(fact.col_basis @ fact.col_basis.T - col_basis @ col_basis.T))),
    )
    res = exact_resistance(g)
    if math.isfinite(res) and len(g.edges) <= 8:
        worst_res = max(worst_res, abs(res - flow_resistance_bruteforce(g)))
    st = build_st_span_program(g.n, g.s, g.t)
    check = witness_equals_half_resistance(input_factors(st, graph_input(g), tols),
                                           exact_resistance(g))
    if not check.ok:
        worst_res = math.inf
    return worst_u, worst_up, worst_sigma, worst_res
