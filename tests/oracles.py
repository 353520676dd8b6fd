"""Independent oracles used to freeze expected values.

These solve the same optimization problems as the library but along different
numerical routes (each constrained problem on the dense A and the dense
projector onto H(x), by the null-space method on its constraints and dense
least squares, in place of the library's cut factors of A(x); the real Schur
form instead of a complex eigendecomposition), so agreement is meaningful.

The helpers after them compute, from the package's objects, what only the
tests read: the signed phases, complex eigenpairs and small-phase
projectors of a UnitaryDecomposition, both sides of H(x) as blocks, dense
A(x), the global N_- on A's cut factors, the amplitude-estimation error
bound and the unordered vertex pairs.

per_call_spectral_trial and per_call_kappa_trial are verify's spectral and
kappa trials as they read an input before each trial read it once: every
quantity from its own public call, which factors A(x) anew and builds U and
U' anew, each overlap with the eigenspaces at or below theta summed
cluster by cluster for that theta alone, and each outcome-zero probability
from its own outcome_zero_probability call.  The trials must match them bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from spanforge import oracle, spanprog
from spanforge._linalg import DEFAULT_TOLS, PHASE_ROUND_TOL, Tolerances, freeze
from spanforge._linalg import min_norm_functional, svd_factors
from spanforge.generators import all_inputs, random_graph, random_projector_pair
from spanforge.generators import random_span_program
from spanforge.oracle import PHASE_CLUSTER_TOL, PhaseCluster, UnitaryDecomposition, build_U
from spanforge.oracle import build_Uprime, decompose_orthogonal, flow_resistance_bruteforce
from spanforge.oracle import subspace_projector
from spanforge.qsim import outcome_zero_probability
from spanforge.resistance import build_st_span_program, exact_resistance, graph_input, lambda2
from spanforge.resistance import witness_equals_half_resistance
from spanforge.spanprog import Blocks, InputFactors, SpanProgram, StructuralError, input_factors
from spanforge.spanprog import minimal_witness, normalize, restrict, witness_report
from spanforge.spectral import kappa_bound, measure_U, measure_Uprime, row_space_cross
from spanforge.verify import PE_GRIDS, THETA_GRID, _rng


def kkt_equality_ls(c_mat: np.ndarray, d: np.ndarray, e_mat: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Minimize ||C w - d||^2 subject to E w = f by the null-space method
    (Bjorck, Numerical Methods for Least Squares Problems, SIAM 1996), with
    no C^T C formed: w = E^+ f + N z, N an orthonormal basis of ker E from
    one SVD of E, and z the min-norm least-squares solution of
    C N z = d - C E^+ f from one SVD of C N.  An inconsistent E w = f is met
    in the least-squares sense.  E's singular values are cut at 1e-12 of its
    largest, and those of C N at 1e-12 of C's: C N is zero where ker C meets
    ker E, and its rounding there, against its own largest, reads as rank."""
    u, s, vt = np.linalg.svd(e_mat)
    rank = int(np.sum(s > 1e-12 * s.max(initial=0.0)))
    w_e = vt[:rank].T @ ((u[:, :rank].T @ f) / s[:rank])
    null = vt[rank:].T
    u, s, vt = np.linalg.svd(c_mat @ null, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * np.linalg.norm(c_mat, 2)))
    z = vt[:rank].T @ ((u[:, :rank].T @ (d - c_mat @ w_e)) / s[:rank])
    return w_e + null @ z


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


def cluster_projector(cl: PhaseCluster) -> np.ndarray:
    """The orthogonal projector onto one cluster's invariant subspace."""
    return cl.basis @ cl.basis.T


def signed_phases(dec: UnitaryDecomposition) -> list[float]:
    """Signed phases in (-pi, pi], one per complexified eigenvector, sorted."""
    out: list[float] = []
    for cl in dec.clusters:
        if cl.theta == 0.0 or cl.theta == math.pi:
            out.extend([cl.theta] * cl.dim)
        else:
            out.extend([cl.theta] * (cl.dim // 2))
            out.extend([-cl.theta] * (cl.dim // 2))
    return sorted(out)


def complex_eigenpairs(dec: UnitaryDecomposition) -> list[tuple[float, np.ndarray]]:
    """(signed phase, complex unit eigenvector) pairs: one real eigenvector
    per column of a cluster at 0 or pi, and from each adjacent pair q1, q2
    of a rotation cluster's columns, which spans one invariant plane, the
    conjugate pair (q1 -/+ i q2)/sqrt(2), oriented by the sign of q2.U q1."""
    pairs: list[tuple[float, np.ndarray]] = []
    for cl in dec.clusters:
        if cl.theta == 0.0 or cl.theta == math.pi:
            for k in range(cl.dim):
                pairs.append((cl.theta, cl.basis[:, k].astype(complex)))
            continue
        for k in range(0, cl.dim, 2):
            q1, q2 = cl.basis[:, k], cl.basis[:, k + 1]
            s = float(q2 @ (dec.matrix @ q1))
            v = (q1 - 1j * q2) / math.sqrt(2.0)
            if s < 0:  # orient the pair so v carries e^{+i theta}
                v = np.conj(v)
            pairs.append((cl.theta, v))
            pairs.append((-cl.theta, np.conj(v)))
    return pairs


def small_phase_projector(dec: UnitaryDecomposition, theta_max: float) -> np.ndarray:
    """Projector onto the eigenspaces with |phase| <= theta_max in [0, pi):
    the clusters' projectors at or below it, added in order from zeros."""
    if not 0.0 <= theta_max < math.pi:
        raise ValueError("theta must lie in [0, pi)")
    dim = dec.matrix.shape[0]
    clusters = (cluster_projector(cl) for cl in dec.clusters if cl.theta <= theta_max)
    return sum(clusters, np.zeros((dim, dim)))


def fixed_projector(dec: UnitaryDecomposition) -> np.ndarray:
    """Projector onto the +1-eigenspace: small_phase_projector at 0."""
    return small_phase_projector(dec, 0.0)


def minus_one_projector(dec: UnitaryDecomposition) -> np.ndarray:
    """Projector onto the -1-eigenspace, zero when there is none."""
    for cl in dec.clusters:
        if cl.theta == math.pi:
            return cluster_projector(cl)
    dim = dec.matrix.shape[0]
    return np.zeros((dim, dim))


def subspace_blocks(
    program: SpanProgram, x, tols: Tolerances = DEFAULT_TOLS
) -> tuple[Blocks, Blocks]:
    """(Q_H, Q_perp) of x as blocks: both sides of spanprog's walk of H(x)."""
    x = program.check_input(x)
    return spanprog._walk(program, x, tols, 0), spanprog._walk(program, x, tols, 1)


def a_x(f: InputFactors) -> np.ndarray:
    """A(x) = A Q_H as a dense matrix, formed anew."""
    return restrict(f.a, f.q_h)


def minimal_negative_value(
    program: SpanProgram, tols: Tolerances = DEFAULT_TOLS
) -> tuple[np.ndarray, float]:
    """Global minimal negative witness (omega0 A, N_-), N_- = min ||omega A||^2
    over omega tau = 1, independent of any input: min_norm_functional on A's
    Factorization.  oracle.minimal_negative_witness is its dense route."""
    fact = program.factorization(tols)
    nu, value = min_norm_functional(fact.col_basis, fact.sigma, program.tau, tols)
    if nu is None:
        raise StructuralError("tau = 0: no functional maps tau to 1")
    return freeze(spanprog._tdot(program.a, nu)), value


def ae_error_bound(p: float, grid_size: int) -> float:
    """The additive estimation-error bound that holds with probability >= 8/pi^2:
    2 pi sqrt(p(1-p))/M + pi^2/M^2."""
    return 2.0 * math.pi * math.sqrt(p * (1.0 - p)) / grid_size + math.pi**2 / grid_size**2


def unordered_pairs(n: int) -> list[tuple[int, int]]:
    """The pairs (u, v), u < v, of n vertices in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def small_phase_weight(phases, weights, theta: float) -> float:
    """The weights at phases at or below theta, summed in phase order."""
    return sum(float(w) for phase, w in zip(phases, weights) if phase <= theta)


def measure_gap(measure, oracle) -> float:
    """Largest outcome-zero probability difference of two measures over
    PE_GRIDS, one outcome_zero_probability call per measure and grid."""
    return max(abs(outcome_zero_probability(measure, m) - outcome_zero_probability(oracle, m))
               for m in PE_GRIDS)


def per_call_spectral_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """verify._spectral_trial, each quantity from its own public call."""
    worst_p0_neg = worst_p0_pos = 0.0
    worst_measure_u = worst_measure_up = 0.0
    worst_th_neg = worst_th_pos = -math.inf
    worst_raw = worst_gap_u = worst_gap_up = -math.inf
    rng = _rng(seed, trial)
    program = normalize(random_span_program(rng), tols)
    w0 = np.asarray(minimal_witness(program, tols).w0)
    for x in all_inputs(program):
        rep = witness_report(input_factors(program, x, tols))
        dec = build_U(program, x, tols)
        decp = build_Uprime(program, x, tols)
        fast_u = measure_U(row_space_cross(input_factors(program, x, tols)))
        worst_measure_u = max(worst_measure_u, measure_gap(fast_u, dec.measure(w0)))
        if math.isfinite(rep.w_plus):
            fast_up = measure_Uprime(row_space_cross(input_factors(program, x, tols)))
            worst_measure_up = max(worst_measure_up, measure_gap(fast_up, decp.measure(w0)))
        inv_wm = 0.0 if math.isinf(rep.w_minus) else 1.0 / rep.w_minus
        inv_wp = 0.0 if math.isinf(rep.w_plus) else 1.0 / rep.w_plus
        on_u, on_up = dec.overlaps(w0), decp.overlaps(w0)
        worst_p0_neg = max(worst_p0_neg, abs(small_phase_weight(*on_u, 0.0) - inv_wm))
        worst_p0_pos = max(worst_p0_pos, abs(small_phase_weight(*on_up, 0.0) - inv_wp))
        for theta in THETA_GRID:
            lhs = small_phase_weight(*on_u, theta)
            worst_th_neg = max(
                worst_th_neg, lhs - (theta**2 / 4.0 * rep.w_tilde_plus + inv_wm)
            )
            lhs = small_phase_weight(*on_up, theta)
            worst_th_pos = max(
                worst_th_pos, lhs - (theta**2 / 4.0 * rep.w_tilde_minus + inv_wp)
            )
        try:
            bound = kappa_bound(input_factors(program, x, tols))
        except ValueError:
            continue
        worst_gap_u = max(worst_gap_u, bound - build_U(program, x, tols).phase_gap())
        if math.isfinite(rep.w_plus):
            worst_gap_up = max(worst_gap_up, bound - build_Uprime(program, x, tols).phase_gap())
    dim = int(rng.integers(3, 9))
    pi_a, pi_b = random_projector_pair(rng, dim)
    u_dec = decompose_orthogonal((2.0 * pi_a - np.eye(dim)) @ (2.0 * pi_b - np.eye(dim)))
    vec = rng.standard_normal(dim)
    vec -= pi_a @ vec
    if np.linalg.norm(vec) > 1e-9:
        for theta in THETA_GRID:
            lhs = math.sqrt(small_phase_weight(*u_dec.overlaps(pi_b @ vec), theta))
            worst_raw = max(worst_raw, lhs - theta / 2.0 * float(np.linalg.norm(vec)))
    return (worst_p0_neg, worst_p0_pos, worst_th_neg, worst_th_pos, worst_raw,
            worst_measure_u, worst_measure_up, worst_gap_u, worst_gap_up)


def per_call_kappa_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """verify._kappa_trial, each quantity from its own public call."""
    worst_sigma = worst_res = 0.0
    rng = _rng(seed, trial)
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
    return worst_sigma, worst_res
