"""Query-counting classical simulation of phase and amplitude estimation.

The module holds exact outcome distributions and one sampler.  Phase
estimation is never sampled: outcome_zero_probability sums the Fejer kernel
of an M-point grid over a spectral measure, which is the only outcome the
algorithms read.  amplitude_estimation is the one random step.  It draws
repeated amplitude estimations of such a probability from their exact
outcome distribution (Brassard, Hoyer, Mosca and Tapp), and every estimator
samples through it.  It samples by inverse CDF: one uniform per run from
rng.random, searched in the distribution's normalized cumulative sum.  That
is how Generator.choice(M, size=reps, p=dist / dist.sum()) draws, so the
draws are bit-identical to it; the distribution is checked to be finite,
non-negative and of sum 1 first, as choice checks it.  The decision rule
(amp_gap_*) and every success probability are read from the same
distributions by summation.

Query accounting follows the two-queries-per-application rule for the span
program unitaries: one run of M-point phase estimation applies the unitary
M-1 times and is charged 2*(M-1) input queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralMeasure


# a normal number whose products with any grid size stay far below the
# sine's first rounding (fejer_kernel)
_TINY = 1e-300

# how far an outcome distribution's sum may stray from 1: Generator.choice's
# own bound (amplitude_estimation)
_SUM_ATOL = math.sqrt(np.finfo(float).eps)

# the largest amplitude-estimation grid: one float64 array over it takes 134 MB
AE_GRID_CAP = 2**24


class GridSizeError(ValueError):
    """An amplitude-estimation grid above AE_GRID_CAP was asked for."""


def _grid_phases(grid_size: int) -> np.ndarray:
    """pi k / M at each outcome k of an M-point amplitude-estimation grid;
    GridSizeError, before allocating, above AE_GRID_CAP."""
    if grid_size > AE_GRID_CAP:
        raise GridSizeError(f"amplitude estimation on {grid_size} grid points is above the "
                            f"cap of {AE_GRID_CAP}")
    return math.pi * np.arange(grid_size) / grid_size


@dataclass
class QueryLedger:
    """Running count of simulated input-oracle queries (monotone)."""

    total: int = 0

    def charge(self, queries: int) -> None:
        if queries < 0:
            raise ValueError("query charges must be non-negative")
        self.total += int(queries)


def fejer_kernel(delta, grid_size: int):
    """Probability that M-point phase estimation of an eigenphase offset by
    delta from a grid point reports that grid point:
    |1/M sum_l e^{i l delta}|^2 = (sin(M delta/2) / (M sin(delta/2)))^2.

    It is read at h = delta/2 wrapped into [-pi/2, pi/2), which is 0 or at
    least 1e-16 in magnitude; _TINY added to h changes the latter not at
    all and makes the ratio at h = 0 its limit 1, exactly, as sin(_TINY) is
    _TINY and M _TINY rounds alike above and below."""
    half = np.mod(0.5 * np.asarray(delta, dtype=float) + 0.5 * math.pi, math.pi) - 0.5 * math.pi
    half += _TINY
    return np.square(np.sin(grid_size * half) / (grid_size * np.sin(half)))


def pe_grid_size(theta: float, eps: float) -> int:
    """Power-of-two grid size meeting the phase-estimation contract: phases of
    magnitude >= theta leak at most eps onto outcome 0.  Uses the kernel bound
    F_M(delta) <= pi^2/(M delta)^2, so M >= pi/(theta sqrt(eps)) suffices."""
    if not 0.0 < theta < math.pi:
        raise ValueError("precision theta must lie in (0, pi)")
    if not 0.0 < eps < 1.0:
        raise ValueError("error eps must lie in (0, 1)")
    return int(2 ** max(1, math.ceil(math.log2(math.pi / (theta * math.sqrt(eps))))))


def pe_queries(grid_size: int) -> int:
    """Input queries for one phase-estimation run: M-1 applications, 2 queries each."""
    return 2 * (grid_size - 1)


def outcome_zero_probability(measure: SpectralMeasure, grid_size: int) -> float:
    """P(outcome 0) without building the whole distribution (the kernel is even)."""
    total = float(measure.weights @ fejer_kernel(measure.phases, grid_size))
    return min(1.0, max(0.0, total))


def ae_outcome_distribution(p: float, grid_size: int) -> np.ndarray:
    """Exact amplitude-estimation outcome distribution for success probability p.

    The estimation circuit phase-estimates an operator with eigenphases
    +/- 2 theta_p, theta_p = arcsin(sqrt(p)), on an M-point grid, with equal
    weight on each branch.  The Fejer kernel of either branch at outcome k
    has the numerator sin^2(M theta_p - pi k) = sin^2(M theta_p) for every
    k, so the distribution is
    sin^2(M theta_p) / (2 M^2) [csc^2(theta_p - pi k/M) + csc^2(theta_p + pi k/M)],
    the second term the first at -k mod M.  The numerator's argument is
    reduced first, as M r with r = theta_p - pi j/M for the grid point j
    nearest theta_p, and the one term whose sine can vanish, at j, is read
    as the kernel of r itself, which is 1 on the grid.
    """
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError("p must be a probability")
    p = min(1.0, max(0.0, p))
    theta_p = math.asin(math.sqrt(p))
    offsets = theta_p - _grid_phases(grid_size)
    j = round(grid_size * theta_p / math.pi) % grid_size
    r = float(offsets[j])
    top = math.sin(grid_size * r)
    # the squared sines of the offsets, turned in place into one branch
    branch = np.sin(offsets, out=offsets)
    np.square(branch, out=branch)
    branch[j] = 1.0
    np.divide(top * top / (grid_size * grid_size), branch, out=branch)
    branch[j] = (top / (grid_size * math.sin(r))) ** 2 if r else 1.0
    # the other branch is the first at -k mod M
    dist = np.concatenate((branch[:1], branch[:0:-1]))
    dist += branch
    dist *= 0.5
    return dist


def ae_estimates(grid_size: int) -> np.ndarray:
    """Estimate value sin^2(pi k / M) reported for each grid outcome k."""
    return np.square(np.sin(_grid_phases(grid_size)))


def amplitude_estimation(
    p: float,
    grid_size: int,
    reps: int,
    rng: np.random.Generator,
    ledger: QueryLedger,
    cost_per_call: int,
) -> np.ndarray:
    """The estimates of reps independent grid_size-point amplitude
    estimations of p, drawn from the exact outcome distribution, with
    sin^2(pi k / M) taken at the drawn outcomes k only.  Each of the
    grid_size calls of a run to the circuit that prepares p is charged
    cost_per_call queries.  The outcomes are drawn by inverse CDF, as
    Generator.choice draws them (module docstring)."""
    if grid_size < 1:
        raise ValueError("grid size must be at least 1")
    if reps < 1:
        raise ValueError("repetitions must be at least 1")
    dist = ae_outcome_distribution(p, grid_size)
    total = dist.sum()
    # a NaN entry fails both comparisons, an infinite one either of them
    if not (dist.min() >= 0.0 and abs(total - 1.0) <= _SUM_ATOL):
        raise ValueError("the outcome distribution must be finite, non-negative and sum to 1")
    # inverse-CDF draws, as Generator.choice(grid_size, size=reps, p=dist / total) makes them
    cdf = np.divide(dist, total, out=dist)
    cdf.cumsum(out=cdf)
    cdf /= cdf[-1]
    outcomes = cdf.searchsorted(rng.random(reps), side="right")
    ledger.charge(reps * grid_size * cost_per_call)
    return np.square(np.sin(math.pi * outcomes / grid_size))


def amp_gap_grid_size(p0: float, p1: float) -> int:
    """Grid size M = ceil(4 pi sqrt(p0+p1)/(p0-p1)) on which one amplitude
    estimation tells p >= p0 from p <= p1 with probability >= 3/4."""
    if not 0.0 <= p1 < p0 <= 1.0:
        raise ValueError("need 0 <= p1 < p0 <= 1")
    return math.ceil(4.0 * math.pi * math.sqrt(p0 + p1) / (p0 - p1))


def amp_gap_threshold(p0: float, p1: float) -> float:
    """Decision threshold between the exact high-probability envelopes.

    ub(p1) bounds any estimate of a probability <= p1 from above (with
    probability >= 3/4); the symmetric lower envelope for p >= p0 sits at
    least (p0-p1)/6 higher, so the rule compares against ub(p1) + (p0-p1)/12.
    """
    gap = p0 - p1
    ub = (
        p1
        + math.sqrt(p1) * gap / (math.sqrt(2.0) * (math.sqrt(p0) + math.sqrt(p1)))
        + gap * gap / (16.0 * (p0 + p1))
    )
    return ub + gap / 12.0


def amplitude_gap_success_probability(p: float, p0: float, p1: float, high: bool) -> float:
    """Exact probability that one amplitude estimation of p on the
    amp_gap_grid_size grid answers `high`: an estimate at or above
    amp_gap_threshold when high, below it otherwise."""
    grid_size = amp_gap_grid_size(p0, p1)
    dist = ae_outcome_distribution(p, grid_size)
    thr = amp_gap_threshold(p0, p1)
    mask = ae_estimates(grid_size) >= thr
    p_high = float(np.sum(dist[mask]))
    return p_high if high else 1.0 - p_high
