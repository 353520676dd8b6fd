"""The dense reference that verify and the tests compare the estimators against.

It forms the dim_h x dim_h arrays the estimators never form: the projectors
onto ker(A) and H(x), U(P, x) and U'(P, x) with their full phase
decompositions (one complex eigendecomposition each), the discriminant of
two projectors, scale(P, beta) with a dense A_beta, the rank-sized factors
of scale(P, beta) that the threshold rounds are tested against where a
dense A_beta is too large (scaled_factors), a brute-force flow resistance,
and the reflection factorization of the st program; and, from the dense A,
second routes to row(A) (row_basis) and to N_- (minimal_negative_witness).
It holds what verify and the package's API run; what only the tests read
of these objects (signed phases, complex eigenpairs, small-phase
projectors) is computed in tests/oracles.py from a decomposition's
clusters.  No estimator module imports it.  A dim_h above DENSE_DIM_CAP
is refused with OracleSizeError before anything is allocated.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import DEFAULT_TOLS, PHASE_ROUND_TOL, Tolerances, _rank, column_space_split, freeze
from ._linalg import singular_values, svd_factors
from .resistance import Graph, build_st_span_program, ordered_pairs
from .spanprog import Blocks, GloballyInfeasibleError, SpanProgram, SpanProgramError, _walk
from .spanprog import StructuralError, minimal_witness
from .spectral import SpectralMeasure

PHASE_CLUSTER_TOL = 1e-9  # phases this close together share an eigenspace
# largest entry of M - M^T and of M M - M that is_orthogonal_projector accepts
PROJECTOR_TOL = 1e-10
# a singular value of Pi_{Q^perp} Pi_P at most this counts as zero in
# intersection_dims: sin(phi) of the principal angle phi whose reflection
# product phase 2 phi is snapped to 0 or pi
INTERSECTION_TOL = math.sin(PHASE_ROUND_TOL / 2.0)
# dim_h cap of the dense oracle: at the cap one dim_h x dim_h float64 array takes 134 MB
DENSE_DIM_CAP = 4096


class OracleSizeError(SpanProgramError):
    """The dense oracle was asked for dim_h x dim_h arrays above DENSE_DIM_CAP."""


def _check_dense_size(program: SpanProgram) -> None:
    """Refuse, before allocating, a dense dim_h x dim_h array above the cap."""
    if program.dim_h > DENSE_DIM_CAP:
        raise OracleSizeError(
            f"the dense oracle forms dim_h x dim_h arrays: dim_h = {program.dim_h} "
            f"is above the cap of {DENSE_DIM_CAP}"
        )


def blocks_projector(program: SpanProgram, blocks: Blocks) -> np.ndarray:
    """Orthogonal projector onto the span of blocks, as
    spanprog._walk, InputFactors.q_h and q_perp give them: block diagonal,
    with a unit diagonal on identity entries.  Raises OracleSizeError above
    DENSE_DIM_CAP."""
    _check_dense_size(program)
    proj = np.zeros((program.dim_h, program.dim_h))
    for block, basis in blocks:
        if basis is None:
            proj[block, block] = 1.0
        else:
            proj[block[:, None], block] = basis @ basis.T
    return proj


def subspace_projector(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> np.ndarray:
    """Orthogonal projector onto H(x): blocks_projector of Q_H, the only walk."""
    _check_dense_size(program)
    return blocks_projector(program, _walk(program, program.check_input(x), tols, 0))


def row_basis(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """V_r, an orthonormal basis of row(A), from one SVD of the dense A."""
    return svd_factors(program.a_mat, tols)[2]


def kernel_projector(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Orthogonal projector I - V_r V_r^T onto ker(A), V_r = row_basis(A).
    Raises OracleSizeError above DENSE_DIM_CAP."""
    _check_dense_size(program)
    v_r = row_basis(program, tols)
    return np.eye(program.dim_h) - v_r @ v_r.T


def minimal_negative_witness(
    program: SpanProgram, tols: Tolerances = DEFAULT_TOLS
) -> tuple[np.ndarray, float]:
    """(omega0 A, N_-), N_- = min ||omega A||^2 over omega tau = 1, by the
    null-space method (Bjorck, Numerical Methods for Least Squares Problems,
    SIAM 1996) on the dense A, with no Gram: omega = tau / ||tau||^2 - N z,
    N an orthonormal basis of tau's complement, and omega0 A the residual
    of the min-norm z of A^T N z = A^T tau / ||tau||^2.  The SVD of A^T N is
    cut against sigma_max(A), so that its rounding is not read as rank."""
    tau, a_mat = program.tau, program.a_mat
    tau2 = float(tau @ tau)
    if tau2 == 0.0:
        raise StructuralError("tau = 0: no functional maps tau to 1")
    b_mat = a_mat.T @ column_space_split(tau[:, None], tols)[1]
    u, s, v, _ = svd_factors(b_mat, tols, float(singular_values(a_mat).max(initial=0.0)))
    rhs = a_mat.T @ tau / tau2
    row = rhs - b_mat @ (v @ ((u.T @ rhs) / s))
    return freeze(row), float(row @ row)


@dataclass(frozen=True)
class PhaseCluster:
    """One invariant subspace: unsigned phase theta in [0, pi] and an
    orthonormal basis of the real invariant subspace (both signs combined)."""

    theta: float
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class UnitaryDecomposition:
    """A real orthogonal matrix with its full phase decomposition.

    basis holds the clusters' orthonormal columns side by side, in phase
    order, and each cluster's basis is its slice of them.  clusters are
    sorted by unsigned phase; a cluster at theta in (0, pi) represents the
    conjugate pair e^{+/- i theta} and has even dimension.
    """

    matrix: np.ndarray
    basis: np.ndarray
    clusters: tuple[PhaseCluster, ...]

    def overlaps(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phases, weights): each cluster's phase, ascending, and state's weight on it."""
        starts = list(itertools.accumulate([cl.dim for cl in self.clusters[:-1]], initial=0))
        weights = np.add.reduceat(np.square(self.basis.T @ state), starts)
        return np.array([cl.theta for cl in self.clusters]), weights

    def measure(self, state: np.ndarray) -> SpectralMeasure:
        """Spectral measure of a unit state: its overlaps with the clusters."""
        return SpectralMeasure(*self.overlaps(state))

    def phase_gap(self) -> float:
        """Smallest nonzero |phase|; inf when the matrix is the identity."""
        nonzero = [cl.theta for cl in self.clusters if cl.theta > 0.0]
        return min(nonzero) if nonzero else math.inf


def decompose_orthogonal(u_mat: np.ndarray) -> UnitaryDecomposition:
    """Full phase decomposition of one real orthogonal matrix:
    decompose_orthogonals of the stack of it alone."""
    return decompose_orthogonals(np.asarray(u_mat, dtype=float)[None])[0]


def decompose_orthogonals(stack: np.ndarray) -> list[UnitaryDecomposition]:
    """Full phase decompositions of a (K, d, d) stack of real orthogonal
    matrices, from one complex eigendecomposition of each.

    An eigenvalue e^{i theta} with theta in (0, pi) gives its unsigned phase,
    read by atan2 so that it is accurate near 0 and pi, and its eigenvector
    v the invariant plane spanned by Re v and Im v; a real eigenvalue +/-1
    gives its real eigenvector.  Eigenvectors of equal or nearby eigenvalues
    need not be orthogonal, nor Re v and Im v of a phase near 0 or pi, so one
    QR of these columns, in phase order with each plane's two adjacent,
    makes them orthonormal.  Every prefix of that order spans an invariant
    subspace, so each cluster's columns do too, and each adjacent pair of a
    rotation cluster spans one invariant plane, whose complex eigenvector
    is (q_1 -/+ i q_2)/sqrt(2).  Phases are snapped to 0 or pi within
    PHASE_ROUND_TOL and grouped within PHASE_CLUSTER_TOL of a group's
    smallest phase.

    The orthogonality check, eig, the phase order and QR each run once on
    the whole stack; numpy applies LAPACK to each matrix in turn, so each
    decomposition is bit-identical to that of the matrix alone.  Only the
    grouping into clusters runs matrix by matrix.  A member whose
    orthogonality defect is above 1e-8 is refused with ValueError."""
    stack = freeze(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a (K, d, d) stack, got shape {stack.shape}")
    count, dim = stack.shape[:2]
    if count == 0:
        return []
    defects = np.abs(np.swapaxes(stack, 1, 2) @ stack - np.eye(dim)).max(axis=(1, 2))
    if defects.max() > 1e-8:
        worst = int(defects.argmax())
        raise ValueError(f"matrix {worst} of the stack is not orthogonal "
                         f"(defect {defects[worst]:.2e})")

    vals, vecs = np.linalg.eig(stack)
    thetas = np.arctan2(np.abs(np.imag(vals)), np.real(vals))
    thetas[thetas <= PHASE_ROUND_TOL] = 0.0
    thetas[math.pi - thetas <= PHASE_ROUND_TOL] = math.pi
    # LAPACK returns a real eigenvalue with imaginary part exactly 0, and a
    # pair as adjacent exact conjugates, the one with positive imaginary part
    # first: Re v of the first and Im v of the second span the pair's plane.
    # A stable sort on the phase, equal for both, keeps them adjacent.
    order = np.argsort(thetas, axis=1, kind="stable")
    columns = np.where(np.imag(vals)[:, None, :] >= 0.0, np.real(vecs), np.imag(vecs))
    q_mats = np.linalg.qr(np.take_along_axis(columns, order[:, None, :], axis=2))[0]
    q_mats.setflags(write=False)

    out = []
    for u_mat, q_mat, phases in zip(stack, q_mats,
                                    np.take_along_axis(thetas, order, axis=1).tolist()):
        groups: list[tuple[float, int]] = []  # (phase, first column) of each cluster
        for column, theta in enumerate(phases):
            if not groups or theta - groups[-1][0] > PHASE_CLUSTER_TOL:
                groups.append((theta, column))
        ends = [first for _, first in groups[1:]] + [dim]
        clusters = tuple(PhaseCluster(theta=theta, basis=q_mat[:, first:end])
                         for (theta, first), end in zip(groups, ends))
        out.append(UnitaryDecomposition(matrix=u_mat, basis=q_mat, clusters=clusters))
    return out


def _reflection_product(pi_a: np.ndarray, pi_b: np.ndarray) -> np.ndarray:
    """(2 Pi_A - I)(2 Pi_B - I), of one Pi_B or of each of a stack."""
    eye = np.eye(pi_a.shape[-1])
    return (2.0 * pi_a - eye) @ (2.0 * pi_b - eye)


def _u_parts(
    program: SpanProgram, x: Sequence[int], tols: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pi_ker(A), Pi_H(x) and U = (2 Pi_ker(A) - I)(2 Pi_H(x) - I), which
    build_U decomposes and _uprime checks its factorization against."""
    pi_ker = kernel_projector(program, tols)
    pi_hx = subspace_projector(program, x, tols)
    return pi_ker, pi_hx, _reflection_product(pi_ker, pi_hx)


def build_U(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> UnitaryDecomposition:
    """U(P, x) = (2 Pi_ker(A) - I)(2 Pi_H(x) - I); one application costs 2 queries."""
    return decompose_orthogonal(_u_parts(program, x, tols)[2])


def build_Uprime(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> UnitaryDecomposition:
    """U'(P, x) = (2 Pi_H(x) - I)(2 Pi_T - I) with T = ker(A) + span{w0}.

    Also verifies the factorization U' = U^T (I - 2 w0 w0^T / ||w0||^2) against
    a direct matrix product before returning.
    """
    pi_ker, pi_hx, u = _u_parts(program, x, tols)
    return _uprime(program, tols, pi_ker, pi_hx[None], u[None])[0]


def _uprime(
    program: SpanProgram, tols: Tolerances, pi_ker: np.ndarray, pi_hx: np.ndarray, u: np.ndarray
) -> list[UnitaryDecomposition]:
    """build_Uprime's decompositions for a (K, d, d) stack of Pi_H(x) and
    of the U that _u_parts forms from each, all from one
    decompose_orthogonals call."""
    mw = minimal_witness(program, tols)
    w0_hat = np.asarray(mw.w0) / math.sqrt(mw.n_plus)
    outer = np.outer(w0_hat, w0_hat)
    u_prime = _reflection_product(pi_hx, pi_ker + outer)
    defect = np.max(np.abs(u_prime - np.swapaxes(u, 1, 2) @ (np.eye(program.dim_h) - 2.0 * outer)),
                    initial=0.0)
    if defect > 1e-10:
        raise RuntimeError(f"U' factorization identity violated (defect {defect:.2e})")
    return decompose_orthogonals(u_prime)


def is_orthogonal_projector(mat: np.ndarray) -> bool:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    return bool(
        np.max(np.abs(mat - mat.T)) <= PROJECTOR_TOL
        and np.max(np.abs(mat @ mat - mat)) <= PROJECTOR_TOL
    )


def intersection_dims(pi_a: np.ndarray, pi_b: np.ndarray) -> dict:
    """Dimensions of the four intersections of the subspaces behind two projectors.

    dim(P cap Q) = dim P - rank(Pi_{Q^perp} Pi_P): a unit vector of P at
    principal angle phi from Q keeps a component sin(phi) outside Q, and a
    singular value at most INTERSECTION_TOL counts as zero.  The reflection
    product (2 Pi_A - I)(2 Pi_B - I) turns the plane of such a vector by
    2 phi, so this cutoff counts a direction exactly when its phase is
    snapped to 0 or pi.
    """
    eye = np.eye(pi_a.shape[0])
    ca, cb = eye - pi_a, eye - pi_b

    def meet(pi_p: np.ndarray, pi_q_perp: np.ndarray) -> int:
        dim_p = int(round(float(np.trace(pi_p))))
        return dim_p - int(np.sum(singular_values(pi_q_perp @ pi_p) > INTERSECTION_TOL))

    return {
        "a_and_b": meet(pi_a, cb),
        "a_and_bperp": meet(pi_a, pi_b),
        "aperp_and_b": meet(ca, cb),
        "aperp_and_bperp": meet(ca, pi_b),
    }


@dataclass(frozen=True)
class DiscriminantReport:
    """D = Pi_A Pi_B with its singular values (descending) and the smallest
    nonzero one; sigma_min is None when D = 0.  complement_values are the
    singular values of Pi_B^perp Pi_A: the sines of the principal angles
    whose cosines D carries."""

    d_mat: np.ndarray
    singular_values: np.ndarray
    sigma_min: Optional[float]
    complement_values: np.ndarray

    def expected_rotation_phases(self) -> list[float]:
        """Unsigned phases 2 phi predicted for the reflection product, one per
        principal angle phi, each read where it is well conditioned: from
        cos phi = sigma(D) when sigma <= 1/sqrt(2), otherwise from the sine.
        Phases within PHASE_ROUND_TOL of 0 or pi are left out."""
        half = math.sqrt(0.5)
        out = [2.0 * math.acos(float(s)) for s in self.singular_values if s <= half]
        out += [2.0 * math.asin(float(s)) for s in self.complement_values if s < half]
        return sorted(p for p in out if PHASE_ROUND_TOL < p < math.pi - PHASE_ROUND_TOL)


def discriminant(
    pi_a: np.ndarray, pi_b: np.ndarray, tols: Tolerances = DEFAULT_TOLS
) -> DiscriminantReport:
    """Discriminant D = Pi_A Pi_B of the reflection product (2Pi_A - I)(2Pi_B - I)."""
    for name, mat in (("Pi_A", pi_a), ("Pi_B", pi_b)):
        if not is_orthogonal_projector(mat):
            raise ValueError(f"{name} is not an orthogonal projector")
    d_mat = pi_a @ pi_b
    s = singular_values(d_mat)
    rank = _rank(s, tols, scale=1.0)  # projector product: scale 1
    return DiscriminantReport(
        d_mat=freeze(d_mat),
        singular_values=freeze(s),
        sigma_min=float(s[rank - 1]) if rank else None,
        complement_values=freeze(singular_values((np.eye(len(pi_b)) - pi_b) @ pi_a)),
    )


def _scaled_tau(program: SpanProgram, tols: Tolerances) -> np.ndarray:
    """tau as scale reads it: U_r U_r^T tau where the target is projected."""
    fact = program.factorization(tols)
    if fact.target.projected:
        return fact.col_basis @ (fact.col_basis.T @ program.tau)
    return program.tau


def scale(program: SpanProgram, beta: float, tols: Tolerances = DEFAULT_TOLS) -> SpanProgram:
    """Augmented scaling construction: normalized program with witnesses scaled by beta.

    Appends coordinate h0 (false side) then h1 (true side) as the last two H
    coordinates, and h1 as the last V coordinate:

        A_beta = beta * A + tau <h0| + (sqrt(beta^2 + N)/beta) |h1><h1|
        tau_beta = tau + |h1>

    For positive x, w+ becomes w+/beta^2 + beta^2/(N + beta^2); for negative x,
    w- becomes beta^2 w- + 1.  The new minimal witness has unit norm when tau
    lies in col(A).  A tau that lies in col(A) only to within membership_rtol
    (the Factorization's target is projected) is read as its projection
    U_r U_r^T tau onto col(A), in both places, as the threshold rounds read
    it.  A is read densely (a_mat).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    n_val = minimal_witness(program, tols).n_plus
    tau = _scaled_tau(program, tols)

    dim_h, dim_v = program.dim_h + 2, program.dim_v + 1
    h0_idx, h1_idx, v1_idx = program.dim_h, program.dim_h + 1, program.dim_v

    a_new = np.zeros((dim_v, dim_h))
    a_new[: program.dim_v, : program.dim_h] = beta * program.a_mat
    a_new[: program.dim_v, h0_idx] = tau
    a_new[v1_idx, h1_idx] = math.sqrt(beta * beta + n_val) / beta

    tau_new = np.zeros(dim_v)
    tau_new[: program.dim_v] = tau
    tau_new[v1_idx] = 1.0

    return dataclasses.replace(
        program,
        dim_h=dim_h,
        dim_v=dim_v,
        true_block=program.true_block + (h1_idx,),
        false_block=program.false_block + (h0_idx,),
        a=a_new,
        tau=tau_new,
    )


@dataclass(frozen=True)
class ScaledFactors:
    """The factors of scale(program, beta)'s A_beta that w0's spectral
    measure reads, from the parent's A = U_r Sigma V_r^T with no A_beta
    formed: the rounds' reference where a dense A_beta is too large.

    For tau as scale reads it, g = U_r^T tau and rho = tau - U_r g, the rows
    [beta A, tau] of A_beta are [U_r, e] K blockdiag(V_r^T, 1), e a unit
    vector off col(A), K = [[beta Sigma, g], [0, ||rho||]]; its last row is
    c = sqrt(beta^2 + N)/beta on h1.  From K = P S Q^T, A_beta's nonzero
    singular values are the kept values of S and c, cut against max(S, c).
    Its row basis is V_beta = blockdiag(blockdiag(V_r, 1) row_map, 1),
    row_map the kept columns of Q, and witness is y = V_beta^T w0_beta =
    [S^-1 P^T [g; ||rho||]; 1/c] over the kept values; h1's entries come
    last and are absent when c itself is cut."""

    row_map: np.ndarray
    witness: np.ndarray

    def cross(self, parent_cross: np.ndarray) -> np.ndarray:
        """V_beta^T Q_{H_beta}(x) = blockdiag(row_map[:r]^T C(x), 1) from the
        parent's C(x) = V_r^T Q_H(x), or C(x) W (W with orthonormal columns),
        since H_beta(x) is H(x) plus h1 (h0 lies in the false block)."""
        top = self.row_map[:-1].T @ parent_cross
        if self.witness.size == self.row_map.shape[1]:
            return top
        out = np.zeros((top.shape[0] + 1, top.shape[1] + 1))
        out[:-1, :-1] = top
        out[-1, -1] = 1.0
        return out


def scaled_factors(
    program: SpanProgram, beta: float, tols: Tolerances = DEFAULT_TOLS
) -> ScaledFactors:
    """ScaledFactors of scale(program, beta, tols), from one SVD of K;
    GloballyInfeasibleError where minimal_witness of that program raises."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    n_val = minimal_witness(program, tols).n_plus
    fact = program.factorization(tols)
    tau = _scaled_tau(program, tols)
    g = fact.col_basis.T @ tau
    rho = float(np.linalg.norm(tau - fact.col_basis @ g))
    r = g.size
    k_mat = np.zeros((r + 1, r + 1))
    k_mat[:r, :r] = np.diag(beta * fact.sigma)
    k_mat[:r, r] = g
    k_mat[r, r] = rho
    p_mat, s, qt = np.linalg.svd(k_mat)
    c = math.sqrt(beta * beta + n_val) / beta
    kept = _rank(s, tols, c)
    h1_kept = _rank(np.array([c]), tols, float(s[0])) == 1
    on_tau = p_mat.T @ np.append(g, rho)
    missed = math.hypot(float(np.linalg.norm(on_tau[kept:])), 0.0 if h1_kept else 1.0)
    if missed > tols.membership_rtol * math.sqrt(float(tau @ tau) + 1.0):
        raise GloballyInfeasibleError("tau is not in col(A); no positive witness exists")
    y = on_tau[:kept] / s[:kept]
    if h1_kept:
        y = np.append(y, 1.0 / c)
    return ScaledFactors(freeze(qt[:kept].T), freeze(y))


def flow_resistance_bruteforce(g: Graph) -> float:
    """Independent flow-minimization oracle over the cycle space.

    Builds a particular unit st-flow along a tree path, parametrizes all unit
    flows by fundamental cycles of a spanning forest, and minimizes the energy
    by a dense normal-equation solve.  Intended for tiny graphs.
    """
    if not g.connected_st():
        return math.inf
    edges = sorted(g.edges)
    index = {e: i for i, e in enumerate(edges)}

    parent = g.spanning_tree(g.s)

    def tree_path_flow(a: int, b: int) -> np.ndarray:
        """Unit flow from a to b along tree edges (signed on sorted edges)."""
        def path_to_root(v):
            out = []
            while parent[v] is not None:
                out.append(v)
                v = parent[v]
            out.append(v)
            return out
        pa, pb = path_to_root(a), path_to_root(b)
        sa, sb = set(pa), set(pb)
        meet = next(v for v in pa if v in sb)
        flow = np.zeros(len(edges))
        def push(u, v, amount):  # oriented u -> v
            e = (min(u, v), max(u, v))
            sign = 1.0 if (u, v) == e else -1.0
            flow[index[e]] += sign * amount
        v = a
        while v != meet:
            push(v, parent[v], 1.0)
            v = parent[v]
        v = b
        while v != meet:
            push(parent[v], v, 1.0)
            v = parent[v]
        return flow

    theta0 = tree_path_flow(g.s, g.t)

    tree_edges = {(min(u, v), max(u, v)) for v, u in parent.items() if u is not None}
    cycles = []
    for u, v in edges:
        if (u, v) in tree_edges or u not in parent or v not in parent:
            continue
        cyc = tree_path_flow(v, u)  # close the non-tree edge u -> v
        cyc[index[(u, v)]] += 1.0
        cycles.append(cyc)

    if not cycles:
        return float(theta0 @ theta0)
    c_mat = np.column_stack(cycles)
    coeff = np.linalg.solve(c_mat.T @ c_mat, -(c_mat.T @ theta0))
    theta = theta0 + c_mat @ coeff
    return float(theta @ theta)


@dataclass(frozen=True)
class FactorizationCheck:
    """Residuals of the reflection-factorization identities on the 2 n^3
    dimensional four-register space."""

    n: int
    my_isometry_defect: float
    mz_isometry_defect: float
    factorization_defect: float
    minus_one_defect: float
    plus_one_defect: float
    rotation_phase: float  # actual phase on the image of (ker A)^perp
    predicted_rotation_phase: float
    # worst || (W + W^T) y - 2 cos(theta_n) y || over unit y in M_Y (ker A)^perp
    rotation_identity_defect: float


def reflection_factorization_operators(n: int):
    """The isometries M_Z, M_Y of the four-register construction and the
    st-connectivity A on ordered pairs (target-independent)."""
    if not 2 <= n <= 8:
        raise ValueError("construction materialized only for 2 <= n <= 8 (dim = 2 n^3)")
    dim = 2 * n**3

    def flat(b: int, r1: int, r2: int, r3: int) -> int:
        return ((b * n + r1) * n + r2) * n + r3

    mz = np.zeros((dim, n))
    norm = 1.0 / math.sqrt(2.0 * (n - 1))
    for u in range(n):
        for v in range(n):
            if v == u:
                continue
            mz[flat(0, u, u, v), u] += norm
            mz[flat(1, u, v, u), u] += norm

    pairs = ordered_pairs(n)
    my = np.zeros((dim, len(pairs)))
    for col, (u, v) in enumerate(pairs):
        my[flat(0, u, u, v), col] += 1.0 / math.sqrt(2.0)
        my[flat(1, v, u, v), col] -= 1.0 / math.sqrt(2.0)

    return mz, my, build_st_span_program(n, 0, 1).a_mat


def verify_reflection_factorization(n: int, tols: Tolerances = DEFAULT_TOLS) -> FactorizationCheck:
    """Measure every identity of the reflection factorization.

    (a) M_Y (and M_Z) are isometries; (b) M_Z^T M_Y = A / (2 sqrt(n-1));
    (c) M_Y maps ker A into the -1-eigenspace of W = (2 Pi_Z - I)(2 Pi_Y - I)
    and (ker A)^perp into the eigenspaces of W at phases +-theta_n, where
    theta_n = 2 arccos sqrt(n/(2(n-1))): (W + W^T) M_Y v = 2 cos(theta_n) M_Y v
    for every v in (ker A)^perp.

    Both parts of (c) are exact identities.  The image of (ker A)^perp is not
    fixed by W for n >= 3: by (b) it meets Z at principal angle
    arccos sqrt(n / (2(n-1))) > 0, so W rotates it by theta_n <= pi/2 and the
    gap pi - theta_n >= pi/2 separates it from the -1-eigenspace.
    Each defect is the operator norm of a residual on a whole image, so
    none depends on the bases of ker A and row(A) taken: ``minus_one_defect``
    of (W + I) on M_Y ker A; ``rotation_identity_defect`` of the rotation
    identity, and ``plus_one_defect``, the literal +1-containment defect
    2 sin(theta_n / 2) > 0, of (W - I), on M_Y (ker A)^perp.
    ``rotation_phase`` is the phase measured on the first basis vector.
    """
    if not 3 <= n <= 6:
        raise ValueError("verification supported for 3 <= n <= 6")
    mz, my, a_mat = reflection_factorization_operators(n)
    row_span, ker_basis = column_space_split(a_mat.T, tols)

    my_defect = float(np.max(np.abs(my.T @ my - np.eye(my.shape[1]))))
    mz_defect = float(np.max(np.abs(mz.T @ mz - np.eye(n))))
    fact_defect = float(np.max(np.abs(mz.T @ my - a_mat / (2.0 * math.sqrt(n - 1)))))

    eye = np.eye(mz.shape[0])
    walk = (2.0 * (mz @ mz.T) - eye) @ (2.0 * (my @ my.T) - eye)

    img_ker = my @ ker_basis
    img_row = my @ row_span
    minus_defect = float(np.linalg.norm(walk @ img_ker + img_ker, 2)) if img_ker.size else 0.0
    plus_defect = float(np.linalg.norm(walk @ img_row - img_row, 2))

    # actual rotation phase on the rowA image: W acts as a rotation there
    v0 = img_row[:, 0]
    cos_actual = float(v0 @ (walk @ v0))
    rotation_phase = math.acos(max(-1.0, min(1.0, cos_actual)))
    predicted = 2.0 * math.acos(math.sqrt(n / (2.0 * (n - 1.0))))
    # img_row has orthonormal columns, so the spectral norm of the residual is
    # the worst residual over unit vectors of the whole image
    rotation_residual = (walk + walk.T) @ img_row - 2.0 * math.cos(predicted) * img_row
    rotation_defect = float(np.linalg.norm(rotation_residual, 2))

    return FactorizationCheck(
        n=n,
        my_isometry_defect=my_defect,
        mz_isometry_defect=mz_defect,
        factorization_defect=fact_defect,
        minus_one_defect=minus_defect,
        plus_one_defect=plus_defect,
        rotation_phase=rotation_phase,
        predicted_rotation_phase=predicted,
        rotation_identity_defect=rotation_defect,
    )
