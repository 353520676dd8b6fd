"""Reflection-product unitaries for span programs and their exact phase structure.

U(P, x) is the product of the reflection about ker(A) with the reflection
about H(x); U'(P, x) swaps in the reflection about T = ker(A) + span{w0}.
Both are real orthogonal, so their spectra decompose into an invariant
subspace per phase, phases coming in +/- pairs.

The estimators need only w0's spectral measure: its phases and their weights.
measure_U and measure_Uprime read it from the principal angles between H(x)
and row(A) (or row(A) minus w0) by Jordan's lemma: a pair of principal
vectors at angle phi spans a plane that the negated product of the two
reflections turns by pi - 2 phi = 2 arcsin(cos phi).  That is one SVD of a
rank(A) x dim H(x) matrix; no dim_h x dim_h array is formed.

A threshold round needs the same measure for the scaled program
scale(P, beta).  scaled_measure_U and scaled_measure_Uprime read it without
building that program: its row basis and w0 come from
spanprog.scaled_factors, and its cross matrix from C(x) = V_r^T Q_H(x) of P,
which does not depend on beta (RowSpaceCross, formed once per input).  Both
routes share one tail per unitary, which takes (V^T w0, V^T Q_H).  The
direct route on scale(P, beta) is the oracle the rounds are tested against.

The oracle, for verify and the tests, builds U or U' densely (build_U,
build_Uprime) and decomposes it through the real Schur form
(decompose_orthogonal, the only user of scipy): for orthogonal matrices it is
block diagonal, 2x2 rotation blocks carrying the nontrivial phases and 1x1
blocks carrying +/-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import (
    DEFAULT_TOLS,
    PHASE_ROUND_TOL,
    Tolerances,
    _rank,
    freeze,
    is_orthogonal_projector,
    kernel_basis,
    singular_values,
)
from .spanprog import Blocks, SpanProgram, _check_dense_size, input_factors, minimal_witness
from .spanprog import restrict, scaled_factors, subspace_blocks, subspace_projector

PHASE_CLUSTER_TOL = 1e-9  # phases this close together share an eigenspace


@dataclass(frozen=True)
class SpectralMeasure:
    """Spectral measure of a unit state under a real orthogonal matrix: unsigned
    phases in [0, pi], snapped to 0 or pi within PHASE_ROUND_TOL, and the
    state's weight on each (a phase in (0, pi) stands for the pair +/- phase)."""

    phases: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        phases = np.clip(np.asarray(self.phases, dtype=float), 0.0, math.pi)
        phases[phases <= PHASE_ROUND_TOL] = 0.0
        phases[math.pi - phases <= PHASE_ROUND_TOL] = math.pi
        weights = np.asarray(self.weights, dtype=float)
        if np.any(weights < -1e-12):
            raise ValueError(f"negative spectral weight {weights.min():.2e}")
        if abs(float(weights.sum()) - 1.0) > 1e-8:
            raise ValueError("phase estimation expects a unit initial state")
        object.__setattr__(self, "phases", freeze(phases))
        object.__setattr__(self, "weights", freeze(np.maximum(weights, 0.0)))


@dataclass(frozen=True)
class PhaseCluster:
    """One invariant subspace: unsigned phase theta in [0, pi] and an
    orthonormal basis of the real invariant subspace (both signs combined)."""

    theta: float
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


@dataclass(frozen=True)
class UnitaryDecomposition:
    """A real orthogonal matrix with its full phase decomposition.

    clusters are sorted by unsigned phase; a cluster at theta in (0, pi)
    represents the conjugate pair e^{+/- i theta} and has even dimension.
    """

    matrix: np.ndarray
    clusters: tuple[PhaseCluster, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def phases(self) -> list[float]:
        """Signed phases in (-pi, pi], one per complexified eigenvector."""
        out: list[float] = []
        for cl in self.clusters:
            if cl.theta == 0.0 or cl.theta == math.pi:
                out.extend([cl.theta] * cl.dim)
            else:
                out.extend([cl.theta] * (cl.dim // 2))
                out.extend([-cl.theta] * (cl.dim // 2))
        return sorted(out)

    def measure(self, state: np.ndarray) -> SpectralMeasure:
        """Spectral measure of state: its squared overlap with each cluster."""
        weights = [float(np.sum(np.square(cl.basis.T @ state))) for cl in self.clusters]
        return SpectralMeasure(np.array([cl.theta for cl in self.clusters]), np.array(weights))

    def small_phase_projector(self, theta_max: float) -> np.ndarray:
        """Projector onto the span of eigenspaces with |phase| <= theta_max."""
        if not 0.0 <= theta_max < math.pi:
            raise ValueError("theta_max must lie in [0, pi)")
        proj = np.zeros((self.dim, self.dim))
        for cl in self.clusters:
            if cl.theta <= theta_max:
                proj += cl.projector()
        return proj

    def fixed_projector(self) -> np.ndarray:
        return self.small_phase_projector(0.0)

    def phase_gap(self) -> float:
        """Smallest nonzero |phase|; inf when the matrix is the identity."""
        nonzero = [cl.theta for cl in self.clusters if cl.theta > 0.0]
        return min(nonzero) if nonzero else math.inf

    def minus_one_projector(self) -> np.ndarray:
        for cl in self.clusters:
            if cl.theta == math.pi:
                return cl.projector()
        return np.zeros((self.dim, self.dim))

    def complex_eigenpairs(self) -> list[tuple[float, np.ndarray]]:
        """(signed phase, complex unit eigenvector) pairs, for verification."""
        pairs: list[tuple[float, np.ndarray]] = []
        for cl in self.clusters:
            if cl.theta == 0.0 or cl.theta == math.pi:
                for k in range(cl.dim):
                    pairs.append((cl.theta, cl.basis[:, k].astype(complex)))
                continue
            for k in range(0, cl.dim, 2):
                q1, q2 = cl.basis[:, k], cl.basis[:, k + 1]
                s = float(q2 @ (self.matrix @ q1))
                v = (q1 - 1j * q2) / math.sqrt(2.0)
                if s < 0:  # orient the pair so v carries e^{+i theta}
                    v = np.conj(v)
                pairs.append((cl.theta, v))
                pairs.append((-cl.theta, np.conj(v)))
        return pairs


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


def decompose_orthogonal(u_mat: np.ndarray) -> UnitaryDecomposition:
    """Full phase decomposition of a real orthogonal matrix via real Schur form."""
    import scipy.linalg

    u_mat = np.asarray(u_mat, dtype=float)
    dim = u_mat.shape[0]
    ortho_defect = np.max(np.abs(u_mat.T @ u_mat - np.eye(dim)))
    if ortho_defect > 1e-8:
        raise ValueError(f"matrix is not orthogonal (defect {ortho_defect:.2e})")

    t_mat, q_mat = scipy.linalg.schur(u_mat, output="real")

    # LAPACK's standard form has exact zeros between 1x1 blocks: any other entry opens a 2x2 block
    raw: list[tuple[float, list[int]]] = []
    i = 0
    while i < dim:
        if i + 1 < dim and t_mat[i + 1, i] != 0.0:
            c = 0.5 * (t_mat[i, i] + t_mat[i + 1, i + 1])
            s = 0.5 * (t_mat[i + 1, i] - t_mat[i, i + 1])
            theta = abs(math.atan2(s, c))
            raw.append((theta, [i, i + 1]))
            i += 2
        else:
            theta = 0.0 if t_mat[i, i] > 0.0 else math.pi
            raw.append((theta, [i]))
            i += 1

    snapped = []
    for theta, cols in raw:
        if theta <= PHASE_ROUND_TOL:
            theta = 0.0
        elif math.pi - theta <= PHASE_ROUND_TOL:
            theta = math.pi
        snapped.append((theta, cols))
    snapped.sort(key=lambda item: item[0])

    clusters: list[PhaseCluster] = []
    group_theta: Optional[float] = None
    group_cols: list[int] = []
    for theta, cols in snapped:
        if group_theta is None or theta - group_theta > PHASE_CLUSTER_TOL:
            if group_theta is not None:
                clusters.append(
                    PhaseCluster(theta=group_theta, basis=freeze(q_mat[:, group_cols]))
                )
            group_theta, group_cols = theta, list(cols)
        else:
            group_cols.extend(cols)
    if group_theta is not None:
        clusters.append(PhaseCluster(theta=group_theta, basis=freeze(q_mat[:, group_cols])))

    return UnitaryDecomposition(matrix=freeze(u_mat), clusters=tuple(clusters))


def kernel_projector(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Orthogonal projector I - V_r V_r^T onto ker(A), V_r the row basis of A.
    Raises OracleSizeError above DENSE_DIM_CAP."""
    _check_dense_size(program)
    v_r = program.factorization(tols).row_basis
    return np.eye(program.dim_h) - v_r @ v_r.T


def build_U(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> UnitaryDecomposition:
    """U(P, x) = (2 Pi_ker(A) - I)(2 Pi_H(x) - I); one application costs 2 queries."""
    pi_ker = kernel_projector(program, tols)
    pi_hx = subspace_projector(program, x, tols)
    u = (2.0 * pi_ker - np.eye(program.dim_h)) @ (2.0 * pi_hx - np.eye(program.dim_h))
    return decompose_orthogonal(u)


def build_Uprime(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> UnitaryDecomposition:
    """U'(P, x) = (2 Pi_H(x) - I)(2 Pi_T - I) with T = ker(A) + span{w0}.

    Also verifies the factorization U' = U^T (I - 2 w0 w0^T / ||w0||^2) against
    a direct matrix product before returning.
    """
    pi_ker = kernel_projector(program, tols)
    mw = minimal_witness(program, tols)
    w0_hat = np.asarray(mw.w0) / math.sqrt(mw.n_plus)
    pi_t = pi_ker + np.outer(w0_hat, w0_hat)
    pi_hx = subspace_projector(program, x, tols)
    eye = np.eye(program.dim_h)
    u_prime = (2.0 * pi_hx - eye) @ (2.0 * pi_t - eye)

    u = (2.0 * pi_ker - eye) @ (2.0 * pi_hx - eye)
    alt = u.T @ (eye - 2.0 * np.outer(w0_hat, w0_hat))
    defect = np.max(np.abs(u_prime - alt))
    if defect > 1e-10:
        raise RuntimeError(f"U' factorization identity violated (defect {defect:.2e})")

    return decompose_orthogonal(u_prime)


@dataclass(frozen=True)
class RowSpaceCross:
    """H(x) seen from row(A), for the program, input and Tolerances it was
    built from: factor is an r x min(r, dim H(x)) matrix F with
    F F^T = C C^T for C(x) = V_r^T Q_H(x), V_r the row basis of A and Q_H an
    orthonormal basis of H(x).  w0's spectral measures read C(x) only
    through C C^T (the left singular pairs of the cross matrix and the inner
    products of its rows), so F serves for C(x).  C(x) does not depend on
    beta, so every threshold round on x reads its scaled program's cross
    matrix from this one factor."""

    program: SpanProgram
    x: tuple[int, ...]
    tols: Tolerances
    factor: np.ndarray

    def check(self, program: SpanProgram, x: Sequence[int], tols: Tolerances) -> None:
        """Raise ValueError unless this was built for program, x and tols."""
        if self.program is not program or self.x != tuple(x) or self.tols != tols:
            raise ValueError("C(x) was built for another program, input or tolerances")


def row_space_cross(
    program: SpanProgram, x: Sequence[int], q_h: Blocks, tols: Tolerances = DEFAULT_TOLS
) -> RowSpaceCross:
    """RowSpaceCross of x from Q_H(x) as subspace_blocks(program, x, tols)
    or x's InputFactors give it; F = R^T from the QR factorization
    C(x)^T = W R."""
    v_r = program.factorization(tols).row_basis
    r_mat = np.linalg.qr(restrict(v_r.T, q_h).T, mode="r")
    return RowSpaceCross(program, program.check_input(x), tols, freeze(r_mat.T))


def _row_space_and_hx(
    program: SpanProgram, x: Sequence[int], tols: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """(V_r^T w0, V_r^T Q_H) for the row basis V_r of A and an orthonormal
    basis Q_H of H(x), without forming Q_H.  w0 = V_r V_r^T w0."""
    v_r = program.factorization(tols).row_basis
    cross = restrict(v_r.T, subspace_blocks(program, x, tols)[0])
    return v_r.T @ minimal_witness(program, tols).w0, cross


def _measure_u(y: np.ndarray, cross: np.ndarray) -> SpectralMeasure:
    c_mat, sigmas, _ = np.linalg.svd(cross, full_matrices=False)
    coef = c_mat.T @ y
    rest = y - c_mat @ coef
    return SpectralMeasure(
        np.append(2.0 * np.arcsin(np.minimum(sigmas, 1.0)), 0.0),
        np.append(coef * coef, rest @ rest),
    )


def _measure_uprime(y: np.ndarray, cross: np.ndarray, tols: Tolerances) -> SpectralMeasure:
    t_perp = kernel_basis(y[None, :], tols)  # T^perp = V_r t_perp
    a_mat, sigmas, _ = np.linalg.svd(cross.T @ t_perp, full_matrices=False)
    w0_hx = cross.T @ y  # Q_H^T w0
    coef = a_mat.T @ w0_hx
    rest = w0_hx - a_mat @ coef
    # 1 - sigma^2 is known only to within rounding, and dividing a rounding
    # coefficient by it makes a weight out of nothing: a squared sine of at
    # most rank_rtol is read as sigma = 1, a direction of H(x) cap T^perp,
    # which w0 does not meet; its phase pi joins the remainder
    sines2 = (1.0 - sigmas) * (1.0 + sigmas)
    plane = sines2 > tols.rank_rtol
    weights = coef[plane] ** 2 / sines2[plane]
    fixed = float(rest @ rest)
    # the phase-pi weight is a difference, so a zero one can come out at -1e-12
    return SpectralMeasure(
        np.concatenate([2.0 * np.arcsin(sigmas[plane]), [0.0, math.pi]]),
        np.concatenate([weights, [fixed, max(0.0, float(y @ y) - weights.sum() - fixed)]]),
    )


def measure_U(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> SpectralMeasure:
    """Spectral measure of w0 under U(P, x) = -R_row(A) R_H(x); w0 lies in row(A).

    Left singular vector c_k of V_r^T Q_H, at singular value sigma_k, has phase
    2 arcsin(sigma_k) and weight (c_k . V_r^T w0)^2; the rest of V_r^T w0 lies
    in H(x)^perp, fixed by U."""
    return _measure_u(*_row_space_and_hx(program, x, tols))


def measure_Uprime(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> SpectralMeasure:
    """Spectral measure of w0 under U'(P, x) = -R_H(x) R_T^perp, where
    T^perp = row(A) minus w0 is orthogonal to w0.

    Left singular vector a_k of Q_H^T Q_T^perp, at singular value sigma_k < 1,
    spans with its partner in T^perp a plane turned by 2 arcsin(sigma_k), on
    which w0 weighs (a_k . Q_H^T w0)^2 / (1 - sigma_k^2).  The rest of
    Q_H^T w0 lies in H(x) cap T (phase 0); what is left lies in H(x)^perp cap
    T (phase pi)."""
    y, cross = _row_space_and_hx(program, x, tols)
    return _measure_uprime(y, cross, tols)


def scaled_measure_U(cross: RowSpaceCross, beta: float) -> SpectralMeasure:
    """measure_U(scale(P, beta), x) for cross = C(x) of P, from rank-sized
    factors: the scaled program's row basis and w0 come from scaled_factors
    and its cross matrix from C(x), so neither P_beta nor H(x) is built again."""
    scaled = scaled_factors(cross.program, beta, cross.tols)
    return _measure_u(scaled.witness, scaled.cross(cross.factor))


def scaled_measure_Uprime(cross: RowSpaceCross, beta: float) -> SpectralMeasure:
    """measure_Uprime(scale(P, beta), x) for cross = C(x) of P, read as
    scaled_measure_U reads it."""
    scaled = scaled_factors(cross.program, beta, cross.tols)
    return _measure_uprime(scaled.witness, scaled.cross(cross.factor), cross.tols)


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


def kappa_bound(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> tuple[float, float]:
    """Phase-gap lower bound 2 sigma_min(A(x)) / sigma_max(A), valid for both
    U(P, x) and (when x is positive) U'(P, x); returned once per unitary."""
    f = input_factors(program, x, tols)
    if f.sigma.size == 0:
        raise ValueError("A(x) = 0: the phase-gap bound is degenerate")
    bound = 2.0 * float(f.sigma[-1]) / f.a_scale
    return bound, bound
