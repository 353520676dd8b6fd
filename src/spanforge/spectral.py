"""w0's spectral measure under the reflection products of a span program.

U(P, x) is the product of the reflection about ker(A) with the reflection
about H(x); U'(P, x) swaps in the reflection about T = ker(A) + span{w0}.
Both are real orthogonal, so their spectra decompose into an invariant
subspace per phase, phases coming in +/- pairs.  spanforge.oracle forms them.

The estimators need only w0's spectral measure: its phases and their weights.
measure_U and measure_Uprime read it from the principal angles between H(x)
and row(A) (or row(A) minus w0) by Jordan's lemma: a pair of principal
vectors at angle phi spans a plane that the negated product of the two
reflections turns by pi - 2 phi = 2 arcsin(cos phi).  The angles are those
of the cross matrix C(x) = V_r^T Q_H(x), which RowSpaceCross holds as an
r-row factor with the same C C^T, and the measures read w0 as
y = V_r^T w0; no dim_h x dim_h array is formed.  With A factored by an
SVD, which holds V_r, the factor comes from one QR of C(x)^T.  With A read
through its Gram A A^T, as the st program's is, V_r is never formed:
y = Sigma^-1 U_r^T tau, and C(x) = Sigma^-1 U_r^T A(x) is read through the
factors A(x) A(x)^T = U_x S_x^2 U_x^T that spanprog.input_factors holds,
so the factor is rank-sized and no array as wide as A(x) is made.  For the
st program those factors come from one eigh of A(x) A(x)^T = 2 L_G, and
neither A(x) nor its right singular vectors are formed.  An estimator,
which holds x's InputFactors, forms C(x) from them once and hands it to
measure_U or measure_Uprime, so H(x) is walked once per estimate.
row_space_cross and kappa_bound take the InputFactors alone, and C(x)
holds it; the measures take C(x) alone.  So the program, x and Tolerances
that each reads are those its argument was built for, by construction.

A threshold round needs the same measure for the scaled program
scale(P, beta).  scaled_measure_U and scaled_measure_Uprime read it without
building that program, from C(x) = V_r^T Q_H(x) of P, which does not depend
on beta.  When tau lies in col(A) to within rounding and beta cuts no
direction of A_beta, the scaled program's row space is row(A) minus one
direction plus one, so a pair (w_beta, L_beta) with the inner products of
its (V^T w0, V^T Q_H) is a rank-one change of (y, F), built in O(r k) from
what RowSpaceCross holds; otherwise the scaled program's row basis and w0
come from spanprog.scaled_factors, one (r+1) x (r+1) SVD.  Every route
shares one tail per unitary, which takes (V^T w0, V^T Q_H) or such a pair
and makes one SVD: of the cross matrix for U, and of the cross matrix with
w0's direction projected out of its rows for U'.  Each tail writes its
phases and weights into arrays of their final size, which SpectralMeasure
copies once to snap and validate.  The direct route on
oracle.scale(P, beta) is the oracle the rounds are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import PHASE_ROUND_TOL, Tolerances, freeze
from .spanprog import InputFactors, SpanProgram, minimal_witness
from .spanprog import _TargetFactors, restrict, scaled_factors


@dataclass(frozen=True)
class SpectralMeasure:
    """Spectral measure of a unit state under a real orthogonal matrix: unsigned
    phases in [0, pi], snapped to 0 or pi within PHASE_ROUND_TOL, and the
    state's weight on each (a phase in (0, pi) stands for the pair +/- phase).

    Each array is copied once, as float64, and snapped and validated in
    place.  ValueError refuses phases and weights that are not 1-D arrays of
    one length, any phase or weight that is not finite, a weight below
    -1e-12 and weights whose sum is off 1 by more than 1e-8; weights within
    rounding below 0 are read as 0."""

    phases: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        phases = np.array(self.phases, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if phases.ndim != 1 or weights.shape != phases.shape:
            raise ValueError(
                f"phases and weights must be 1-D arrays of one length, "
                f"got shapes {phases.shape} and {weights.shape}"
            )
        if not (np.isfinite(phases).all() and np.isfinite(weights).all()):
            raise ValueError("spectral phases and weights must be finite")
        total = float(weights.sum())
        if weights.min(initial=0.0) < -1e-12:
            raise ValueError(f"negative spectral weight {weights.min():.2e}")
        if abs(total - 1.0) > 1e-8:
            raise ValueError("phase estimation expects a unit initial state")
        # the snaps clip too: a phase below 0 goes to 0, one above pi to pi
        phases[phases <= PHASE_ROUND_TOL] = 0.0
        phases[math.pi - phases <= PHASE_ROUND_TOL] = math.pi
        np.maximum(weights, 0.0, out=weights)
        phases.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class RowSpaceCross:
    """H(x) seen from row(A), for the input whose InputFactors it holds
    (inputs): factor is an r-row matrix F = C(x) W, for
    C(x) = V_r^T Q_H(x), V_r the row basis of A, Q_H an orthonormal basis
    of H(x) and W with orthonormal columns and C C^T = F F^T.  w0's
    spectral measures read C(x) only through C C^T (the left singular pairs
    of the cross matrix and the inner products of its rows), so F serves
    for C(x).  C(x) does not depend on beta, so every threshold round on x
    reads its scaled program's cross matrix from this one factor.

    What the rounds' closed form (_scaled_pair) reads besides F does not
    depend on beta either: target is the Factorization's
    spanprog._TargetFactors (y_hat, n_val, sigma_min and tau2, which depend
    on the program and Tolerances alone; y_hat is None unless tau lies in
    col(A) to within rounding), f_y_hat = F^T y_hat is held per input, and
    A's largest singular value is inputs.a_scale.

    program and tols are read through inputs, so a measure or a round
    given a RowSpaceCross is given no program, input or Tolerances beside
    it, and cannot be given those of another."""

    inputs: InputFactors
    factor: np.ndarray
    target: _TargetFactors
    f_y_hat: Optional[np.ndarray]

    @property
    def program(self) -> SpanProgram:
        return self.inputs.program

    @property
    def tols(self) -> Tolerances:
        return self.inputs.tols


def row_space_cross(f: InputFactors) -> RowSpaceCross:
    """RowSpaceCross of x from its InputFactors f alone, for the program
    and Tolerances f was built for.  With V_r held from an SVD of A,
    F = R^T from the QR factorization C(x)^T = W R of the gather or
    product V_r^T Q_H.  With A read through its Gram no V_r is formed:
    C(x) = Sigma^-1 U_r^T A(x), and A(x) = U_x S_x V_x^T, from f's SVD or
    Gram, gives F = C(x) V_x = Sigma^-1 (U_r^T U_x) S_x, r x rank A(x), with
    neither V_x nor any matrix as wide as A(x) formed; directions of H(x)
    that A(x)'s rank cut drops carry at most that cut's share of C C^T."""
    fact = f.program.factorization(f.tols)
    if fact.rows is None:
        factor = (fact.col_basis.T @ f.col_basis) * f.sigma / fact.sigma[:, None]
    else:
        factor = np.linalg.qr(restrict(fact.row_basis.T, f.q_h).T, mode="r").T
    factor = freeze(factor)
    f_y_hat = None
    if fact.target.y_hat is not None:
        f_y_hat = fact.target.y_hat @ factor
        f_y_hat.setflags(write=False)
    return RowSpaceCross(f, factor, fact.target, f_y_hat)


def _measure_u(y: np.ndarray, cross: np.ndarray) -> SpectralMeasure:
    c_mat, sigmas, _ = np.linalg.svd(cross, full_matrices=False)
    coef = c_mat.T @ y
    rest = y - c_mat @ coef
    k = sigmas.size
    phases, weights = np.empty(k + 1), np.empty(k + 1)
    np.minimum(sigmas, 1.0, out=phases[:k])
    np.arcsin(phases[:k], out=phases[:k])
    phases[:k] *= 2.0
    phases[k] = 0.0
    np.square(coef, out=weights[:k])
    weights[k] = rest @ rest
    return SpectralMeasure(phases, weights)


def _measure_uprime(y: np.ndarray, cross: np.ndarray, tols: Tolerances) -> SpectralMeasure:
    # (I - y_hat y_hat^T) cross = Q_T^perp Q_T^perp^T cross, with T^perp =
    # V_r Q_T^perp, has the singular values and the right singular vectors
    # of cross^T Q_T^perp, and one more at zero when the cross matrix is no
    # taller than wide; that one's weight joins phase 0 either way
    norm2 = float(y @ y)
    y_hat = y / math.sqrt(norm2)
    projected = np.multiply(y_hat[:, None], y_hat @ cross)
    np.subtract(cross, projected, out=projected)
    _, sigmas, vt = np.linalg.svd(projected, full_matrices=False)
    w0_hx = cross.T @ y  # Q_H^T w0
    coef = vt @ w0_hx
    rest = w0_hx - vt.T @ coef
    # 1 - sigma^2 is known only to within rounding, and dividing a rounding
    # coefficient by it makes a weight out of nothing: a squared sine of at
    # most rank_rtol is read as sigma = 1, a direction of H(x) cap T^perp,
    # which w0 does not meet; its phase pi joins the remainder
    sines2 = (1.0 - sigmas) * (1.0 + sigmas)
    plane = sines2 > tols.rank_rtol
    m = int(np.count_nonzero(plane))
    phases, weights = np.empty(m + 2), np.empty(m + 2)
    np.arcsin(sigmas[plane], out=phases[:m])
    phases[:m] *= 2.0
    phases[m] = 0.0
    phases[m + 1] = math.pi
    np.square(coef[plane], out=weights[:m])
    weights[:m] /= sines2[plane]
    fixed = float(rest @ rest)
    weights[m] = fixed
    # the phase-pi weight is a difference, so a zero one can come out at -1e-12
    weights[m + 1] = max(0.0, norm2 - weights[:m].sum() - fixed)
    return SpectralMeasure(phases, weights)


def _row_witness(cross: RowSpaceCross) -> np.ndarray:
    """y = V_r^T w0 of cross's program; w0 = V_r y."""
    minimal_witness(cross.program, cross.tols)  # raises when tau is outside col(A)
    return cross.program.factorization(cross.tols).row_witness(cross.program.tau)


def measure_U(cross: RowSpaceCross) -> SpectralMeasure:
    """Spectral measure of w0 under U(P, x) = -R_row(A) R_H(x), for
    cross = C(x) of P; w0 lies in row(A).

    Left singular vector c_k of V_r^T Q_H, at singular value sigma_k, has phase
    2 arcsin(sigma_k) and weight (c_k . V_r^T w0)^2; the rest of V_r^T w0 lies
    in H(x)^perp, fixed by U.  C(x) = V_r^T Q_H is read as row_space_cross
    gives it."""
    return _measure_u(_row_witness(cross), cross.factor)


def measure_Uprime(cross: RowSpaceCross) -> SpectralMeasure:
    """Spectral measure of w0 under U'(P, x) = -R_H(x) R_T^perp, for
    cross = C(x) of P, where T^perp = row(A) minus w0 is orthogonal to w0.

    Left singular vector a_k of Q_H^T Q_T^perp, at singular value sigma_k < 1,
    spans with its partner in T^perp a plane turned by 2 arcsin(sigma_k), on
    which w0 weighs (a_k . Q_H^T w0)^2 / (1 - sigma_k^2).  The rest of
    Q_H^T w0 lies in H(x) cap T (phase 0); what is left lies in H(x)^perp cap
    T (phase pi).  The pairs (sigma_k, a_k) are read from one thin SVD of
    (I - y_hat y_hat^T) C(x), y_hat = V_r^T w0 / ||w0||, whose right singular
    vectors they are, so no basis of T^perp is formed.  C(x) is read as
    measure_U reads it."""
    return _measure_uprime(_row_witness(cross), cross.factor, cross.tols)


def _scaled_pair(cross: RowSpaceCross, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The pair (w, L) that the measure tails read for scale(P, beta):
    (y_beta, cross_beta) = (V_beta^T w0_beta, V_beta^T Q_H_beta(x)), or a
    pair with the same inner products, L^T L = cross_beta^T cross_beta,
    L^T w = cross_beta^T y_beta and ||w|| = ||y_beta||, which give both
    measures.

    For tau in col(A), the rows [beta A, tau] of A_beta span, in the
    coordinates blockdiag(V_r, 1) of H and h0, the complement of
    n = [-y; beta] / R, R = sqrt(beta^2 + N), N = ||y||^2; the h1 row adds
    h1 to row(A_beta) and to H_beta(x).  So cross_beta^T cross_beta is
    blockdiag(F^T (I - (N / R^2) y_hat y_hat^T) F, 1), and
    L = blockdiag((I - eps y_hat y_hat^T) F, 1) has that Gram, since
    (1 - eps)^2 = 1 - N / R^2 for eps = 1 - beta / R = N / (R (R + beta)),
    the form without cancellation.  w0_beta is the unit vector
    [beta y / R^2 ; N / R^2 ; beta / R] in those coordinates and h1's, and
    w = [(sqrt(N) / R) y_hat ; beta / R] gives L^T w = cross_beta^T y_beta.
    That is O(r k) after row_space_cross; L and w are written in place,
    each into one array of its final shape.

    The closed form holds when A_beta's rank cut drops no direction but
    rho's.  The margins below decide that from bounds on the singular
    values of K = [[beta Sigma, g], [0, rho]] (scaled_factors): its r
    leading ones are at least beta sigma_min, the largest is at most
    sqrt(beta^2 sigma_max^2 + tau2), and the last is at most rho, which a
    target with a y_hat has below rank_rtol ||tau|| <= rank_rtol s_max(K).
    Otherwise, and whenever y_hat is None, the pair is (y_beta, cross_beta)
    from scaled_factors, one (r+1) x (r+1) SVD, which also refuses
    beta <= 0."""
    target = cross.target
    if target.y_hat is not None and beta > 0.0:
        n_val, rtol, sigma_max = target.n_val, cross.tols.rank_rtol, cross.inputs.a_scale
        big_r = math.sqrt(beta * beta + n_val)
        c = big_r / beta  # A_beta's h1 entry
        k_top = math.sqrt(beta * beta * sigma_max * sigma_max + target.tau2)
        if beta * target.sigma_min > rtol * max(k_top, c) and c > rtol * k_top:
            eps = n_val / (big_r * (big_r + beta))
            y_hat, (r, k) = target.y_hat, cross.factor.shape
            l_mat = np.empty((r + 1, k + 1))
            top = np.multiply(y_hat[:, None], cross.f_y_hat, out=l_mat[:r, :k])
            top *= eps
            np.subtract(cross.factor, top, out=top)
            l_mat[:r, k] = 0.0
            l_mat[r, :k] = 0.0
            l_mat[r, k] = 1.0
            w = np.empty(r + 1)
            np.multiply(y_hat, math.sqrt(n_val) / big_r, out=w[:r])
            w[r] = beta / big_r
            return w, l_mat
    scaled = scaled_factors(cross.program, beta, cross.tols)
    return scaled.witness, scaled.cross(cross.factor)


def scaled_measure_U(cross: RowSpaceCross, beta: float) -> SpectralMeasure:
    """measure_U of scale(P, beta) at x, for cross = C(x) of P, from the
    (r+1)-row pair _scaled_pair builds, so that neither P_beta nor H(x) is
    built again; one SVD, of L_beta."""
    return _measure_u(*_scaled_pair(cross, beta))


def scaled_measure_Uprime(cross: RowSpaceCross, beta: float) -> SpectralMeasure:
    """measure_Uprime of scale(P, beta) at x, for cross = C(x) of P, read
    as scaled_measure_U reads it; one SVD, of (I - w_hat w_hat^T) L_beta."""
    return _measure_uprime(*_scaled_pair(cross, beta), cross.tols)


def kappa_bound(f: InputFactors) -> float:
    """Phase-gap lower bound 2 sigma_min(A(x)) / sigma_max(A) of the input
    whose factors f are, valid for both U(P, x) and (when x is positive)
    U'(P, x).  Raises ValueError when A(x) = 0."""
    if f.sigma.size == 0:
        raise ValueError("A(x) = 0: the phase-gap bound is degenerate")
    return 2.0 * float(f.sigma[-1]) / f.a_scale
