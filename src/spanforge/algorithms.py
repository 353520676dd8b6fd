"""Composite decision and estimation algorithms driven by phase estimation.

decide_threshold distinguishes small witness size from large with a
multiplicative gap lambda, by scaling the program, phase-estimating the
appropriate reflection product on the minimal witness, and running the
amplitude-gap decision on the exact outcome-zero probability.

witness_estimate shrinks an interval around 1/w(x) by repeated threshold
decisions; gap_estimate and kappa_estimate trade the interval search for a
known phase-gap lower bound and a single amplitude estimation per precision
level.

Every estimator samples through one function, qsim.amplitude_estimation:
repeated amplitude estimations of the exact outcome-zero probability of
phase estimation, each call of the estimated circuit charged one
phase-estimation run (qsim.pe_queries).  Nothing else here draws from rng.

A round never builds the scaled program.  witness_estimate factors A(x) once
(spanprog.input_factors), reads the witness sizes from it, and forms
C(x) = V_r^T Q_H(x) from it once (spectral.row_space_cross); each round
reads its scaled program's measure from C(x) and w0 by a rank-one change
and one SVD (spectral.scaled_measure_U / scaled_measure_Uprime).  The
round, decision_context(cross, spec), and the witness sizes take C(x) or
the InputFactors alone and read the program, x and Tolerances from the
InputFactors, so none can be handed those of another input.
decide_threshold and decide_threshold_success_probability form C(x) for
their one round; the measures of oracle.scale(program, beta) are the
oracle the rounds are tested against.  gap_estimate likewise reads the
witness size from A(x)'s one factoring and w0's measure from the C(x) of
the same InputFactors (spectral.measure_U / measure_Uprime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import DEFAULT_TOLS, Tolerances
from .qsim import (
    QueryLedger,
    amp_gap_grid_size,
    amp_gap_threshold,
    amplitude_estimation,
    amplitude_gap_success_probability,
    outcome_zero_probability,
    pe_grid_size,
    pe_queries,
)
from .spanprog import GloballyInfeasibleError, InputFactors, SpanProgram, input_factors
from .spanprog import min_error_negative, min_error_positive, minimal_witness
from .spanprog import negative_witness, normalize
from .spectral import RowSpaceCross, measure_U, measure_Uprime, row_space_cross
from .spectral import scaled_measure_U, scaled_measure_Uprime

POSITIVE = "positive"
NEGATIVE = "negative"

# Success floor used when amplifying a single threshold decision by majority
# vote; the amplitude-gap primitive actually succeeds with probability >= 3/4.
DECIDE_SUCCESS_FLOOR = 2.0 / 3.0

# A single amplitude estimation lands within the BHMT error bound with
# probability >= 8/pi^2; used when amplifying by median.
AE_SUCCESS_FLOOR = 8.0 / math.pi**2


@dataclass(frozen=True)
class ThresholdSpec:
    """Parameters of one threshold decision.

    side selects which witness size is thresholded; w_bound is the size bound
    for "small" inputs; inputs are promised either <= w_bound or
    >= w_bound / lam.  w_tilde_bound bounds the opposite-sign min-error
    witness size over the domain.
    """

    side: str
    lam: float
    w_bound: float
    w_tilde_bound: float

    def __post_init__(self):
        if self.side not in (POSITIVE, NEGATIVE):
            raise ValueError("side must be 'positive' or 'negative'")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        if not (math.isfinite(self.w_bound) and self.w_bound > 0):
            raise ValueError("witness bound must be finite and positive")
        if not (math.isfinite(self.w_tilde_bound) and self.w_tilde_bound > 0):
            raise ValueError("min-error witness bound must be finite and positive")


@dataclass(frozen=True)
class EstimateResult:
    value: float
    epsilon: float
    queries: int
    rounds: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class _DecisionContext:
    """Input-independent data for one threshold decision, reusable across
    repetitions: exact outcome-zero probability and gap parameters."""

    p_exact: float
    p0: float
    p1: float
    pe_grid: int
    flags: tuple[str, ...]


def _clamp01(value: float, name: str, flags: list[str]) -> float:
    if 0.0 < value < 1.0:
        return value
    flags.append(f"clamped:{name}={value!r}")
    return min(1.0 - 1e-12, max(1e-12, value))


def _scaled_parameters(
    program: SpanProgram, spec: ThresholdSpec, tols: Tolerances
) -> tuple[float, float, float, float]:
    """(beta, W, W_tilde, lam) for the scaled program.

    Negative side: beta = 1/sqrt(W-) gives W = 2 exactly and
    lam' = 2 lam/(1+lam).  Positive side mirrors it with beta = sqrt(W+),
    where the additive witness shift is c = beta^2/(N + beta^2).
    """
    n_val = minimal_witness(program, tols).n_plus
    if spec.side == NEGATIVE:
        beta = 1.0 / math.sqrt(spec.w_bound)
        w_new = 2.0
        lam_new = 2.0 * spec.lam / (1.0 + spec.lam)
        wt_new = spec.w_bound * spec.w_tilde_bound + 2.0
    else:
        beta = math.sqrt(spec.w_bound)
        shift = beta * beta / (n_val + beta * beta)
        w_new = 1.0 + shift
        lam_new = w_new / (1.0 / spec.lam + shift)
        wt_new = spec.w_bound * spec.w_tilde_bound + 2.0
    return beta, w_new, wt_new, lam_new


def decision_context(cross: RowSpaceCross, spec: ThresholdSpec) -> _DecisionContext:
    """One threshold round on the program and input of cross = C(x): w0's
    spectral measure under the right unitary of the scaled program, read
    from C(x), and the exact outcome-0 probability of phase estimation."""
    flags: list[str] = []
    beta, w_new, wt_new, lam_new = _scaled_parameters(cross.program, spec, cross.tols)

    theta = math.sqrt(4.0 * (1.0 - lam_new) / (3.0 * w_new * wt_new))
    eps_pe = _clamp01((1.0 - lam_new) / (6.0 * w_new), "eps_pe", flags)
    p0 = _clamp01(1.0 / w_new, "p0", flags)
    p1 = _clamp01(
        (1.0 + 2.0 * lam_new) / (3.0 * w_new) + (1.0 - lam_new) / (6.0 * w_new), "p1", flags
    )

    if spec.side == NEGATIVE:
        measure = scaled_measure_U(cross, beta)
    else:
        measure = scaled_measure_Uprime(cross, beta)

    grid = pe_grid_size(theta, eps_pe)
    p_exact = outcome_zero_probability(measure, grid)
    return _DecisionContext(
        p_exact=p_exact, p0=p0, p1=p1, pe_grid=grid, flags=tuple(flags)
    )


def decide_threshold(
    program: SpanProgram,
    x: Sequence[int],
    spec: ThresholdSpec,
    rng: np.random.Generator,
    ledger: QueryLedger,
    tols: Tolerances = DEFAULT_TOLS,
) -> int:
    """Return 1 when the chosen witness size of x is small (<= spec.w_bound),
    0 when it is large (>= spec.w_bound / spec.lam); correct with probability
    >= 2/3 under that promise, arbitrary in the gap.
    """
    cross = row_space_cross(input_factors(program, x, tols))
    return _threshold_votes(cross, spec, 1, rng, ledger)


def decide_threshold_success_probability(
    program: SpanProgram,
    x: Sequence[int],
    spec: ThresholdSpec,
    tols: Tolerances = DEFAULT_TOLS,
) -> Optional[float]:
    """Exact probability that decide_threshold answers correctly on x,
    computed by outcome-distribution summation.  None when x falls in the
    promise gap (any answer is then acceptable)."""
    f = input_factors(program, x, tols)
    ctx = decision_context(row_space_cross(f), spec)
    w_val = _witness_size(f, spec.side, estimate=False)
    if w_val <= spec.w_bound * (1.0 + 1e-12):
        truth_high = True
    elif w_val >= spec.w_bound / spec.lam * (1.0 - 1e-12):
        truth_high = False
    else:
        return None
    return amplitude_gap_success_probability(ctx.p_exact, ctx.p0, ctx.p1, truth_high)


def majority_reps(err_budget: float, base_success: float) -> int:
    """Smallest odd repetition count whose majority vote over runs that each
    succeed with probability >= base_success has error at most err_budget, by
    the Hoeffding bound exp(-2 k (base - 1/2)^2).  A median of estimates
    fails only when a majority of them does, so the count serves medians too."""
    margin = base_success - 0.5
    k = max(1, math.ceil(math.log(1.0 / err_budget) / (2.0 * margin * margin)))
    return k if k % 2 == 1 else k + 1


def _threshold_votes(
    cross: RowSpaceCross,
    spec: ThresholdSpec,
    reps: int,
    rng: np.random.Generator,
    ledger: QueryLedger,
    flags: Optional[list[str]] = None,
) -> int:
    """Number of 1-votes among reps independent threshold decisions on the
    program and input of cross = C(x), each an amplitude estimation of the
    exact outcome-zero probability on the amp_gap_grid_size grid, read as 1
    at or above amp_gap_threshold."""
    ctx = decision_context(cross, spec)
    grid_ae = amp_gap_grid_size(ctx.p0, ctx.p1)
    if flags is not None:
        for flag in ctx.flags:
            if flag not in flags:
                flags.append(flag)
    estimates = amplitude_estimation(
        ctx.p_exact, grid_ae, reps, rng, ledger, pe_queries(ctx.pe_grid)
    )
    return int(np.count_nonzero(estimates >= amp_gap_threshold(ctx.p0, ctx.p1)))


def _witness_size(f: InputFactors, side: str, estimate: bool) -> float:
    """The exact witness size w_side(x), read from x's InputFactors f; inf
    when x has no witness of that sign, where an estimate raises instead.
    w_+ is InputFactors.positive_size, so no witness is formed."""
    if f.positive != (side == POSITIVE):
        size = math.inf
    elif f.positive:
        size = f.positive_size(f.program.tau)
    else:
        size = negative_witness(f)[1]
    if estimate and math.isinf(size):
        sign = "+" if side == POSITIVE else "-"
        raise GloballyInfeasibleError(f"x has no {side} witness; cannot estimate w_{sign}")
    return size


def _assert_normalized(program: SpanProgram, tols: Tolerances) -> None:
    n_plus = minimal_witness(program, tols).n_plus
    if abs(n_plus - 1.0) > 1e-8:
        raise ValueError(f"program must be normalized (N+ = {n_plus!r}); call normalize() first")


def interval_probes(e_max: float, e_min: float) -> tuple[float, float]:
    """Third-point probes (e1, e0) of the current reciprocal interval."""
    return (
        (2.0 / 3.0) * e_max + (1.0 / 3.0) * e_min,
        (1.0 / 3.0) * e_max + (2.0 / 3.0) * e_min,
    )


def interval_update(e_max: float, e_min: float, decided_small: bool) -> tuple[float, float]:
    """Shrink the interval by 2/3: a "small witness" answer raises the floor
    to e0, the opposite answer lowers the ceiling to e1."""
    e1, e0 = interval_probes(e_max, e_min)
    return (e_max, e0) if decided_small else (e1, e_min)


def witness_estimate(
    program: SpanProgram,
    x: Sequence[int],
    eps: float,
    side: str,
    rng: np.random.Generator,
    ledger: QueryLedger,
    tols: Tolerances = DEFAULT_TOLS,
    w_tilde_bound: Optional[float] = None,
    max_rounds: Optional[int] = None,
) -> EstimateResult:
    """Estimate w_side(x) of a normalized program to relative accuracy eps.

    Runs the interval-shrinking loop: the reciprocal 1/w(x) starts inside
    [0, 1]; each round a threshold decision at the upper third probe e1 with
    gap lambda = e0/e1 shrinks the interval by a factor 2/3, and the round-i
    decision is amplified to error at most (1/9)(2/3)^(i-1).  Terminates when
    e_max <= (1+eps) e_min and returns the reciprocal of the midpoint.

    w_tilde_bound may pass a domain-wide bound on the opposite-sign min-error
    witness size; by default the exact value for this x is used.
    """
    if side not in (POSITIVE, NEGATIVE):
        raise ValueError("side must be 'positive' or 'negative'")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")

    _assert_normalized(program, tols)
    f = input_factors(program, x, tols)
    w_true = _witness_size(f, side, estimate=True)
    if w_tilde_bound is None:
        min_error = min_error_negative if side == POSITIVE else min_error_positive
        _, _, w_tilde_bound = min_error(f)
    cross = row_space_cross(f)

    start_queries = ledger.total
    flags: list[str] = []
    e_max, e_min = 1.0, 0.0
    if max_rounds is None:
        max_rounds = math.ceil(math.log(w_true / eps, 1.5) + 1.0) + 60

    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("witness_estimate failed to terminate (simulation anomaly)")
        e1, e0 = interval_probes(e_max, e_min)
        spec = ThresholdSpec(
            side=side, lam=e0 / e1, w_bound=1.0 / e1, w_tilde_bound=w_tilde_bound
        )
        reps = majority_reps((1.0 / 9.0) * (2.0 / 3.0) ** (rounds - 1), DECIDE_SUCCESS_FLOOR)
        votes = _threshold_votes(cross, spec, reps, rng, ledger, flags)
        e_max, e_min = interval_update(e_max, e_min, 2 * votes > reps)
        if e_max <= (1.0 + eps) * e_min:
            break

    e_tilde = 0.5 * (e_max + e_min)
    return EstimateResult(
        value=1.0 / e_tilde,
        epsilon=eps,
        queries=ledger.total - start_queries,
        rounds=rounds,
        flags=tuple(flags),
    )


def _ae_grid_for_stage(eps: float, scale_floor: float) -> int:
    """Grid size guaranteeing |p_tilde - p| <= (eps/4) p for every p >=
    scale_floor (and <= (eps/4) scale_floor below it): M = ceil((pi/sqrt(floor))
    (8/eps + 1)) makes 2 pi sqrt(p)/M + pi^2/M^2 <= (eps/4) max(p, floor)."""
    return math.ceil(math.pi / math.sqrt(scale_floor) * (8.0 / eps + 1.0))


def _median(draws: np.ndarray) -> float:
    """The median of an odd number of draws (majority_reps gives odd
    counts): the middle one in sorted order, as np.median gives it."""
    return float(np.sort(draws)[draws.size // 2])


def gap_estimate(
    program: SpanProgram,
    x: Sequence[int],
    eps: float,
    delta_lb: float,
    side: str,
    rng: np.random.Generator,
    ledger: QueryLedger,
    tols: Tolerances = DEFAULT_TOLS,
) -> EstimateResult:
    """Estimate w_side(x) of a normalized program given a lower bound delta_lb
    on the phase gap of the relevant unitary at x.

    Phase estimation always runs at precision delta_lb; its error parameter
    starts at 1/2 and halves until the amplitude estimate of the outcome-zero
    probability exceeds 2(1 + eps/4) times it, at which point one final run at
    error (eps/8) times the current level yields the returned 1/p_tilde.
    """
    if side not in (POSITIVE, NEGATIVE):
        raise ValueError("side must be 'positive' or 'negative'")
    if delta_lb <= 0.0:
        raise ValueError("phase-gap lower bound must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    _assert_normalized(program, tols)
    f = input_factors(program, x, tols)
    _witness_size(f, side, estimate=True)
    measure = (measure_Uprime if side == POSITIVE else measure_U)(row_space_cross(f))

    start_queries = ledger.total
    flags: list[str] = []
    eps_hat = 0.5
    stage = 0
    while True:
        if stage > 200:
            raise RuntimeError("gap_estimate failed to terminate (simulation anomaly)")
        grid_pe = pe_grid_size(delta_lb, eps_hat)
        grid_ae = _ae_grid_for_stage(eps, eps_hat)
        reps = majority_reps((1.0 / 6.0) * 0.5 ** (stage + 1), AE_SUCCESS_FLOOR)
        p_zero = outcome_zero_probability(measure, grid_pe)
        p_tilde = _median(
            amplitude_estimation(p_zero, grid_ae, reps, rng, ledger, pe_queries(grid_pe))
        )
        if p_tilde > 2.0 * (1.0 + eps / 4.0) * eps_hat:
            grid_pe2 = pe_grid_size(delta_lb, (eps / 8.0) * eps_hat)
            reps_fin = majority_reps(1.0 / 6.0, AE_SUCCESS_FLOOR)
            p_zero = outcome_zero_probability(measure, grid_pe2)
            p_final = _median(
                amplitude_estimation(p_zero, grid_ae, reps_fin, rng, ledger, pe_queries(grid_pe2))
            )
            if p_final <= 0.0:
                flags.append("degenerate:zero-amplitude-estimate")
                value = math.inf
            else:
                value = 1.0 / p_final
            return EstimateResult(
                value=value,
                epsilon=eps,
                queries=ledger.total - start_queries,
                rounds=stage + 1,
                flags=tuple(flags),
            )
        eps_hat *= 0.5
        stage += 1


def kappa_estimate(
    program: SpanProgram,
    x: Sequence[int],
    eps: float,
    kappa: float,
    side: str,
    rng: np.random.Generator,
    ledger: QueryLedger,
    tols: Tolerances = DEFAULT_TOLS,
) -> EstimateResult:
    """Estimate w_side(x) of an arbitrary program given
    kappa >= sigma_max(A)/sigma_min(A(x)).

    Rescales the target to tau/sqrt(N), runs gap_estimate with phase-gap bound
    2/kappa (valid for both unitaries of the rescaled program, whose A is
    unchanged), and converts the result back: positive sizes scaled by N,
    negative by 1/N.  The rescaled program shares program's factorization of
    A, so one estimate factors A once and walks H(x) once.
    """
    if kappa < 1.0:
        raise ValueError("kappa is at least 1 (it bounds sigma_max/sigma_min)")
    n_val = minimal_witness(program, tols).n_plus
    rescaled = normalize(program, tols)
    result = gap_estimate(rescaled, x, eps, 2.0 / kappa, side, rng, ledger, tols)
    value = result.value * n_val if side == POSITIVE else result.value / n_val
    return EstimateResult(
        value=value,
        epsilon=eps,
        queries=result.queries,
        rounds=result.rounds,
        flags=result.flags,
    )
