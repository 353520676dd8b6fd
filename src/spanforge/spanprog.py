"""Span programs over the reals and exact computation of all witness quantities.

A span program is a tuple (H, V, tau, A): H splits into coordinate blocks
H_1, ..., H_n, H_true, H_false, and each input position j carries subspaces
H_{j,a} of H_j, one per alphabet symbol a.  An input string x selects
H(x) = H_{1,x_1} + ... + H_{n,x_n} + H_true, and x is positive exactly when
some w in H(x) satisfies A w = tau.

Every quantity about an input comes from A(x) = A Q_H, Q_H an orthonormal
basis of H(x) kept block by block, with each block's basis taken from the
program's Subspaces store; only the oracle's subspace_projector forms a
dim_h x dim_h matrix.  input_factors factors A(x) with one SVD and decides
once whether tau lies in col A(x); the six witness quantities (exact and
min-error, both signs) and the kappa bound all read that InputFactors.
Infeasible sizes are math.inf.  scaled_factors reads the factors of
scale(program, beta) from the parent's A = U_r Sigma V_r^T with one SVD of
an (r+1) x (r+1) matrix, for the threshold rounds that would otherwise
factor each scaled program anew.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import (
    DEFAULT_TOLS,
    Tolerances,
    _rank,
    column_space_split,
    freeze,
    numerical_rank,
    pinv,
    pinv_factors,
)


class SpanProgramError(ValueError):
    """Base class for span program errors."""


class StructuralError(SpanProgramError):
    """The object is malformed (dimension/shape inconsistencies)."""


class GloballyInfeasibleError(SpanProgramError):
    """tau is not in the column space of A: no input has a positive witness."""


class OracleSizeError(SpanProgramError):
    """The dense oracle was asked for dim_h x dim_h arrays above DENSE_DIM_CAP."""


# dim_h cap of the dense oracle: at the cap one dim_h x dim_h float64 array takes 134 MB
DENSE_DIM_CAP = 4096


def _check_dense_size(program: SpanProgram) -> None:
    """Refuse, before allocating, a dense dim_h x dim_h array above the cap."""
    if program.dim_h > DENSE_DIM_CAP:
        raise OracleSizeError(
            f"the dense oracle forms dim_h x dim_h arrays: dim_h = {program.dim_h} "
            f"is above the cap of {DENSE_DIM_CAP}"
        )


class Subspaces(Mapping):
    """Read-only store of the H_{j,a} matrices, keyed by (j, a), that the
    programs derived from one another share, with each H_{j,a}'s bases kept
    per Tolerances once decided.  Equal matrices under different keys are
    decided once: the bases are kept by content as well as by key."""

    def __init__(self, mats: Mapping[tuple[int, int], np.ndarray]):
        self._mats = {k: freeze(np.atleast_2d(v)) for k, v in mats.items()}
        self._bases: dict[Tolerances, tuple[dict, dict]] = {}

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        return self._mats[key]

    def __iter__(self):
        return iter(self._mats)

    def __len__(self) -> int:
        return len(self._mats)

    def bases(
        self, key: tuple[int, int], tols: Tolerances
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Read-only orthonormal bases of H_{j,a} and of its complement in
        H_j, from one SVD on first use under tols; None when H_{j,a} is
        empty or absent."""
        by_key, by_content = self._bases.setdefault(tols, ({}, {}))
        if key not in by_key:
            mat = self._mats.get(key)
            if mat is None or not mat.size:
                by_key[key] = None
            else:
                content = (mat.shape, mat.tobytes())
                if content not in by_content:
                    split = by_content[content] = column_space_split(mat, tols)
                    for part in split:
                        part.setflags(write=False)
                by_key[key] = by_content[content]
        return by_key[key]


@dataclass(frozen=True)
class SpanProgram:
    """Immutable span program data.

    blocks are index tuples into the dim_h standard coordinates; they must be
    disjoint and cover everything.  subspaces[(j, a)] is a matrix whose columns
    span H_{j,a}, written in H_j's local coordinates (len(input_blocks[j]) rows).
    Subspaces for different symbols of one position may overlap and need not
    be orthogonal; all that matters is that together they span H_j.  Any
    mapping is copied into a Subspaces store; a Subspaces is kept as given.
    """

    n: int
    q: int
    dim_h: int
    dim_v: int
    input_blocks: tuple[tuple[int, ...], ...]
    true_block: tuple[int, ...]
    false_block: tuple[int, ...]
    subspaces: Mapping[tuple[int, int], np.ndarray]
    a_mat: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_factorizations", {})
        object.__setattr__(self, "a_mat", freeze(np.atleast_2d(self.a_mat)))
        object.__setattr__(self, "tau", freeze(np.asarray(self.tau, dtype=float)))
        if not isinstance(self.subspaces, Subspaces):
            object.__setattr__(self, "subspaces", Subspaces(self.subspaces))
        if self.n < 0 or self.q < 1:
            raise StructuralError("need n >= 0 input positions and q >= 1 symbols")
        if self.a_mat.shape != (self.dim_v, self.dim_h):
            raise StructuralError(
                f"A has shape {self.a_mat.shape}, expected {(self.dim_v, self.dim_h)}"
            )
        if self.tau.shape != (self.dim_v,):
            raise StructuralError(f"tau has shape {self.tau.shape}, expected ({self.dim_v},)")
        if len(self.input_blocks) != self.n:
            raise StructuralError("one coordinate block required per input position")
        for (j, a), mat in self.subspaces.items():
            if not (0 <= j < self.n and 0 <= a < self.q):
                raise StructuralError(f"subspace key {(j, a)} out of range")
            rows = len(self.input_blocks[j])
            if mat.shape[0] != rows and mat.size > 0:
                raise StructuralError(
                    f"subspace ({j},{a}) has {mat.shape[0]} rows, block has {rows} coordinates"
                )

    def factorization(self, tols: Tolerances = DEFAULT_TOLS) -> Factorization:
        """A's factorization under tols: computed on first use, then kept on
        the program, whose A and tau are read-only."""
        fact = self._factorizations.get(tols)
        if fact is None:
            fact = self._factorizations[tols] = _factorize(self.a_mat, self.tau, tols)
        return fact

    def check_input(self, x: Sequence[int]) -> tuple[int, ...]:
        x = tuple(int(s) for s in x)
        if len(x) != self.n:
            raise StructuralError(f"input has length {len(x)}, expected {self.n}")
        if any(not (0 <= s < self.q) for s in x):
            raise StructuralError(f"input symbols must lie in [0, {self.q})")
        return x


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, passed, detail in self.checks if not passed]


@dataclass(frozen=True)
class MinimalWitness:
    """Global minimal positive witness w0 = A^+ tau and the norms N_+/N_-."""

    w0: np.ndarray
    n_plus: float
    n_minus: float


@dataclass(frozen=True)
class Factorization:
    """What every computation on one program needs from A, for one Tolerances.

    A = U_r diag(sigma) V_r^T, cut at the package's rank tolerance:
    col_basis is U_r (dim_v x rank), sigma the nonzero singular values and
    row_basis V_r (dim_h x rank), all from the SVD that gives A^+, whose
    largest singular value is sigma_max.  witness is w0 = A^+ tau with N_+
    and N_-; when no positive witness exists it is None and infeasible says
    why.
    """

    col_basis: np.ndarray
    sigma: np.ndarray
    row_basis: np.ndarray
    sigma_max: float
    witness: Optional[MinimalWitness]
    infeasible: str = ""


def _factorize(a_mat: np.ndarray, tau: np.ndarray, tols: Tolerances) -> Factorization:
    a_pinv, col_basis, sigma, row_basis, top = pinv_factors(a_mat, tols)
    parts = (freeze(col_basis), freeze(sigma), freeze(row_basis), top)
    w0 = a_pinv @ tau
    if np.linalg.norm(a_mat @ w0 - tau) > tols.membership_rtol * np.linalg.norm(tau):
        return Factorization(*parts, None, "tau is not in col(A); no positive witness exists")
    n_plus = float(w0 @ w0)
    if n_plus == 0.0:
        return Factorization(*parts, None, "tau = 0 gives a degenerate program")
    return Factorization(
        *parts, MinimalWitness(w0=freeze(w0), n_plus=n_plus, n_minus=1.0 / n_plus)
    )


@dataclass(frozen=True)
class WitnessReport:
    """All six witness quantities for one (P, x) pair.

    Exactly one of w_plus/w_minus is finite.  witness_vec is the optimal exact
    positive witness when x is positive, otherwise the optimal min-error
    positive witness.  neg_witness_row is omega A in H coordinates (exact when
    x is negative, min-error otherwise).
    """

    w_plus: float
    w_minus: float
    e_plus: float
    e_minus: float
    w_tilde_plus: float
    w_tilde_minus: float
    witness_vec: np.ndarray
    neg_witness_row: np.ndarray


def validate(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> ValidationReport:
    """Check the model invariants: disjoint covering blocks and spanning subspaces."""
    checks: list[tuple[str, bool, str]] = []

    all_blocks = list(program.input_blocks) + [program.true_block, program.false_block]
    seen: list[int] = []
    for blk in all_blocks:
        seen.extend(blk)
    disjoint = len(seen) == len(set(seen))
    covering = sorted(set(seen)) == list(range(program.dim_h))
    checks.append(
        (
            "blocks-disjoint-cover",
            disjoint and covering,
            "H_1..H_n, H_true, H_false must partition the dim_h coordinates",
        )
    )

    for j in range(program.n):
        rows = len(program.input_blocks[j])
        mats = [program.subspaces.get((j, a)) for a in range(program.q)]
        stacked = np.hstack([np.zeros((rows, 0))] + [m for m in mats if m is not None and m.size])
        spanning = numerical_rank(stacked, tols) == rows
        checks.append(
            (
                f"subspaces-span-H_{j}",
                spanning,
                "H_{j,1} + ... + H_{j,q} must equal H_j",
            )
        )

    return ValidationReport(tuple(checks))


Blocks = list[tuple[np.ndarray, np.ndarray]]


def subspace_blocks(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> tuple[Blocks, Blocks]:
    """Orthonormal bases Q_H of H(x) = H_{1,x_1} + ... + H_{n,x_n} + H_true and
    Q_perp of its complement, each as (coordinate indices, basis in those
    coordinates) pairs, block by block.  Block j's two parts are the store's
    bases of H_{j,x_j}; H_true lies wholly in H(x) and H_false wholly outside
    it."""
    x = program.check_input(x)
    inside, outside = [], []
    for j, sym in enumerate(x):
        block = np.array(program.input_blocks[j], dtype=int)
        split = program.subspaces.bases((j, sym), tols)
        if split is None:
            outside.append((block, np.eye(len(block))))
            continue
        inside.append((block, split[0]))
        outside.append((block, split[1]))
    inside.append((np.array(program.true_block, dtype=int), np.eye(len(program.true_block))))
    outside.append((np.array(program.false_block, dtype=int), np.eye(len(program.false_block))))
    return inside, outside


def restrict(mat: np.ndarray, blocks: Blocks) -> np.ndarray:
    """M Q for a matrix M on H's coordinates and a basis Q given block by
    block, as subspace_blocks gives Q_H and Q_perp; A Q_H is A(x)."""
    return np.concatenate([mat[:, block] @ basis for block, basis in blocks], axis=1)


def _lift(dim_h: int, blocks: Blocks, coef: np.ndarray) -> np.ndarray:
    """The vector Q coef of H, for a basis Q given block by block."""
    w = np.zeros(dim_h)
    start = 0
    for block, basis in blocks:
        w[block] = basis @ coef[start : start + basis.shape[1]]
        start += basis.shape[1]
    return w


def subspace_projector(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> np.ndarray:
    """Orthogonal projector onto H(x), block diagonal across the coordinate
    blocks of subspace_blocks; for the dense oracle and the tests only.
    Raises OracleSizeError above DENSE_DIM_CAP."""
    _check_dense_size(program)
    proj = np.zeros((program.dim_h, program.dim_h))
    for block, basis in subspace_blocks(program, x, tols)[0]:
        proj[block[:, None], block] = basis @ basis.T
    return proj


def minimal_witness(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> MinimalWitness:
    """w0 = A^+ tau, N_+ = ||w0||^2, and N_- = 1/N_+ (the reciprocal identity)."""
    fact = program.factorization(tols)
    if fact.witness is None:
        raise GloballyInfeasibleError(fact.infeasible)
    return fact.witness


@dataclass(frozen=True)
class InputFactors:
    """A(x) = A Q_H for one input and its one SVD, which every per-input
    quantity reads: orthonormal bases U_r (col_basis) of col A(x) and Z
    (complement) of its complement, the nonzero singular values sigma, cut
    relative to a_scale = sigma_max(A), and their right singular vectors.
    positive, decided once for both signs, is ||Z^T tau|| <= membership_rtol
    ||tau||: whether tau lies in col A(x)."""

    q_h: Blocks
    q_perp: Blocks
    a_x: np.ndarray
    col_basis: np.ndarray
    complement: np.ndarray
    sigma: np.ndarray
    row_vectors: np.ndarray
    a_scale: float
    positive: bool

    def solve(self, v: np.ndarray) -> np.ndarray:
        """A(x)^+ v."""
        return self.row_vectors @ ((self.col_basis.T @ v) / self.sigma)


def input_factors(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> InputFactors:
    """Q_H, Q_perp and A(x) for x, with A(x) factored by one SVD.  U is full
    only when A(x) is taller than wide; otherwise the thin SVD already holds
    all of it, so no dim H(x) x dim H(x) array is formed."""
    q_h, q_perp = subspace_blocks(program, x, tols)
    a_x = restrict(program.a_mat, q_h)
    u, s, vt = np.linalg.svd(a_x, full_matrices=a_x.shape[1] < a_x.shape[0])
    a_scale = program.factorization(tols).sigma_max
    r = _rank(s, tols, a_scale)
    tau_off = float(np.linalg.norm(u[:, r:].T @ program.tau))
    positive = tau_off <= tols.membership_rtol * float(np.linalg.norm(program.tau))
    return InputFactors(q_h, q_perp, a_x, u[:, :r], u[:, r:], s[:r], vt[:r].T, a_scale, positive)


def _exact_positive(program: SpanProgram, f: InputFactors) -> tuple[np.ndarray, float]:
    w = _lift(program.dim_h, f.q_h, f.solve(program.tau))
    return freeze(w), float(w @ w)


def positive_witness(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> tuple[Optional[np.ndarray], float]:
    """Optimal exact positive witness Q_H A(x)^+ tau, or (None, inf)."""
    f = input_factors(program, x, tols)
    return _exact_positive(program, f) if f.positive else (None, math.inf)


def _min_norm_under_linear_constraint(
    gram: np.ndarray, c: np.ndarray, tols: Tolerances, gram_scale: Optional[float] = None
) -> tuple[Optional[np.ndarray], float]:
    """Minimize nu^T G nu subject to nu . c = 1 for symmetric PSD G.

    Returns (nu, value); (None, inf) when c = 0, and (nu, 0.0) when c has a
    kernel component of G (the objective can be made exactly zero).
    """
    if not c.any():
        return None, math.inf
    y = pinv(gram, tols, scale=gram_scale) @ c
    kernel_part = c - gram @ y
    if np.linalg.norm(kernel_part) > tols.membership_rtol * np.linalg.norm(c):
        return kernel_part / float(kernel_part @ c), 0.0
    denom = float(c @ y)
    return y / denom, 1.0 / denom


def _exact_negative(
    program: SpanProgram, f: InputFactors, tols: Tolerances
) -> tuple[np.ndarray, float]:
    b = f.complement.T @ program.a_mat  # omega = Z nu; Z^T tau != 0 as x is negative
    nu, value = _min_norm_under_linear_constraint(
        b @ b.T, f.complement.T @ program.tau, tols, gram_scale=f.a_scale * f.a_scale
    )
    return freeze(nu @ b), value


def negative_witness(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> tuple[Optional[np.ndarray], float]:
    """Optimal exact negative witness for x.

    Solves min ||omega A||^2 subject to omega A(x) = 0 and omega tau = 1 by
    writing omega = Z nu for an orthonormal basis Z of col(A(x))^perp.
    Returns (omega A as a length-dim_h row, w_minus); (None, inf) when x is
    positive.
    """
    f = input_factors(program, x, tols)
    return (None, math.inf) if f.positive else _exact_negative(program, f, tols)


def _min_error_positive(
    program: SpanProgram, f: InputFactors, tols: Tolerances
) -> tuple[np.ndarray, float, float]:
    minimal_witness(program, tols)  # raises when tau is outside col(A)
    a_perp = restrict(program.a_mat, f.q_perp)
    b = pinv(f.complement.T @ a_perp, tols, scale=f.a_scale) @ (f.complement.T @ program.tau)
    a = f.solve(program.tau - a_perp @ b)
    w = _lift(program.dim_h, f.q_h, a) + _lift(program.dim_h, f.q_perp, b)
    return freeze(w), float(b @ b), float(w @ w)


def min_error_positive(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> tuple[np.ndarray, float, float]:
    """Optimal min-error positive witness: (w_tilde, e_plus, w_tilde_plus).

    Writes w = Q_H a + Q_perp b, so A w = A(x) a + A_perp b with
    A_perp = A Q_perp, and the error is ||b||^2.  Read in the basis Z of
    col A(x)^perp, the constraint on b alone is Z^T A_perp b = Z^T tau, whose
    min-norm solution b = (Z^T A_perp)^+ Z^T tau is the unique minimal error
    coordinate; then a = A(x)^+ (tau - A_perp b) minimizes ||w||^2.
    """
    return _min_error_positive(program, input_factors(program, x, tols), tols)


def _min_error_negative(
    program: SpanProgram, f: InputFactors, tols: Tolerances
) -> tuple[np.ndarray, float, float]:
    if not program.tau.any():
        raise StructuralError("tau = 0: no functional maps tau to 1")
    if not f.positive:
        row, w_minus = _exact_negative(program, f, tols)
        return row, 0.0, w_minus
    # omega = U_r alpha + Z beta, where Z^T tau = 0: stage one fixes alpha
    g = f.col_basis.T @ program.tau
    h = g / (f.sigma * f.sigma)
    on_col = f.col_basis @ (h / float(g @ h))
    off_rows = f.complement.T @ program.a_mat
    beta = -pinv(off_rows.T, tols, scale=f.a_scale) @ (on_col @ program.a_mat)
    omega = on_col + f.complement @ beta
    row = omega @ program.a_mat
    on_x = omega @ f.a_x
    return freeze(row), float(on_x @ on_x), float(row @ row)


def min_error_negative(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> tuple[np.ndarray, float, float]:
    """Optimal min-error negative witness: (omega_tilde A, e_minus, w_tilde_minus).

    Stage one minimizes ||omega A(x)||^2 over {omega : omega tau = 1}, stage
    two minimizes ||omega A||^2 among the stage-one minimizers.  On a negative
    x stage one reaches 0 and the result is the exact negative witness.  On a
    positive x, with omega = U_r alpha + Z beta and g = U_r^T tau, stage one
    fixes alpha = Sigma^-2 g / (g^T Sigma^-2 g) and stage two is a least-squares
    problem in beta.
    """
    return _min_error_negative(program, input_factors(program, x, tols), tols)


def witness_report(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> WitnessReport:
    """Compute all six witness quantities and the optimal witness vectors
    from one InputFactors: the exact witness of x's sign and the min-error
    witness of the other."""
    f = input_factors(program, x, tols)
    if f.positive:
        vec, w_plus = _exact_positive(program, f)
        row, e_minus, wt_minus = _min_error_negative(program, f, tols)
        return WitnessReport(w_plus, math.inf, 0.0, e_minus, w_plus, wt_minus, vec, row)
    row, w_minus = _exact_negative(program, f, tols)
    vec, e_plus, wt_plus = _min_error_positive(program, f, tols)
    return WitnessReport(math.inf, w_minus, e_plus, 0.0, wt_plus, w_minus, vec, row)


def minimal_negative_value(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, float]:
    """Global minimal negative witness: min ||omega A||^2 over omega tau = 1.

    Independent of any input; tested against 1/N_+ and (omega0 A)^dag = w0/N_+.
    """
    gram = program.a_mat @ program.a_mat.T
    a_scale = program.factorization(tols).sigma_max
    nu, value = _min_norm_under_linear_constraint(
        gram, program.tau, tols, gram_scale=a_scale * a_scale
    )
    if nu is None:
        raise StructuralError("tau = 0: no functional maps tau to 1")
    return freeze(nu @ program.a_mat), value


def rescale_target(program: SpanProgram, factor: float) -> SpanProgram:
    """Replace tau by factor * tau (positive witnesses scale by factor)."""
    if factor <= 0:
        raise ValueError("target rescaling factor must be positive")
    return dataclasses.replace(program, tau=factor * program.tau)


def normalize(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> SpanProgram:
    """Rescale the target by 1/sqrt(N_+) so the minimal witness has unit norm.

    Positive witness sizes scale by 1/N_+, negative ones by N_+.
    """
    mw = minimal_witness(program, tols)
    return rescale_target(program, 1.0 / math.sqrt(mw.n_plus))


def scale(program: SpanProgram, beta: float, tols: Tolerances = DEFAULT_TOLS) -> SpanProgram:
    """Augmented scaling construction: normalized program with witnesses scaled by beta.

    Appends coordinate h0 (false side) then h1 (true side) as the last two H
    coordinates, and h1 as the last V coordinate:

        A_beta = beta * A + tau <h0| + (sqrt(beta^2 + N)/beta) |h1><h1|
        tau_beta = tau + |h1>

    For positive x, w+ becomes w+/beta^2 + beta^2/(N + beta^2); for negative x,
    w- becomes beta^2 w- + 1; the new minimal witness has unit norm.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    mw = minimal_witness(program, tols)
    n_val = mw.n_plus

    dim_h = program.dim_h + 2
    dim_v = program.dim_v + 1
    h0_idx, h1_idx = program.dim_h, program.dim_h + 1
    v1_idx = program.dim_v

    a_new = np.zeros((dim_v, dim_h))
    a_new[: program.dim_v, : program.dim_h] = beta * program.a_mat
    a_new[: program.dim_v, h0_idx] = program.tau
    a_new[v1_idx, h1_idx] = math.sqrt(beta * beta + n_val) / beta

    tau_new = np.zeros(dim_v)
    tau_new[: program.dim_v] = program.tau
    tau_new[v1_idx] = 1.0

    return dataclasses.replace(
        program,
        dim_h=dim_h,
        dim_v=dim_v,
        true_block=program.true_block + (h1_idx,),
        false_block=program.false_block + (h0_idx,),
        a_mat=a_new,
        tau=tau_new,
    )


@dataclass(frozen=True)
class ScaledFactors:
    """The factors of scale(program, beta)'s A_beta that w0's spectral
    measure reads, derived from the parent's A = U_r Sigma V_r^T.

    With g = U_r^T tau and rho = tau - U_r g, the rows [beta A, tau] of A_beta
    on V are [U_r, e] K blockdiag(V_r^T, 1) for e = rho/||rho|| (any unit
    vector off col(A) when rho = 0) and the (r+1) x (r+1) matrix
    K = [[beta Sigma, g], [0, ||rho||]].  Keeping rho keeps a tau that lies
    in col(A) only to within membership_rtol as the direct SVD sees it.  The
    last row of A_beta is c = sqrt(beta^2 + N)/beta on h1 alone.  From
    K = P S Q^T, A_beta's nonzero singular values are the kept values of S
    and c, cut against max(S, c) as _factorize cuts them.  Its row basis is
    V_beta = blockdiag(blockdiag(V_r, 1) row_map, 1), row_map the kept
    columns of Q, and witness is
    y = V_beta^T w0_beta = [S^-1 P^T [g; ||rho||]; 1/c] over the kept values;
    h1's entries come last and are absent when c itself is cut.
    """

    row_map: np.ndarray
    witness: np.ndarray

    def cross(self, parent_cross: np.ndarray) -> np.ndarray:
        """V_beta^T Q_{H_beta}(x) from the parent's C(x) = V_r^T Q_H(x):
        h0 lies in the false block and h1 in the true one, so H_beta(x) is
        H(x) plus h1 and the matrix is blockdiag(row_map[:r]^T C(x), 1).
        Given C(x) W for W with orthonormal columns, it returns the same
        matrix times blockdiag(W, 1)."""
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
    """ScaledFactors of scale(program, beta, tols), from one SVD of the
    (r+1) x (r+1) matrix K.  Raises GloballyInfeasibleError when tau_beta
    fails _factorize's membership test, as minimal_witness of the scaled
    program then does."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    n_val = minimal_witness(program, tols).n_plus
    fact = program.factorization(tols)
    g = fact.col_basis.T @ program.tau
    rho = float(np.linalg.norm(program.tau - fact.col_basis @ g))
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
    if missed > tols.membership_rtol * math.sqrt(float(program.tau @ program.tau) + 1.0):
        raise GloballyInfeasibleError("tau is not in col(A); no positive witness exists")
    y = on_tau[:kept] / s[:kept]
    if h1_kept:
        y = np.append(y, 1.0 / c)
    return ScaledFactors(freeze(qt[:kept].T), freeze(y))


def or_span_program(n: int) -> SpanProgram:
    """The canonical OR program: H = R^n, H_{j,1} = span{e_j}, H_{j,0} = {0},
    V = R, A the all-ones row, tau = 1.  w_+(x) = 1/|x| and w_-(0...0) = n.
    """
    if n < 1:
        raise ValueError("OR needs at least one input bit")
    subspaces = {}
    for j in range(n):
        subspaces[(j, 0)] = np.zeros((1, 0))
        subspaces[(j, 1)] = np.ones((1, 1))
    return SpanProgram(
        n=n,
        q=2,
        dim_h=n,
        dim_v=1,
        input_blocks=tuple((j,) for j in range(n)),
        true_block=(),
        false_block=(),
        subspaces=subspaces,
        a_mat=np.ones((1, n)),
        tau=np.array([1.0]),
    )
