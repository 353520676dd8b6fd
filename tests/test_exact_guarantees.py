"""End-to-end success probabilities computed exactly, with no sampling.

Both estimation algorithms are Markov chains whose per-round branch
probabilities are exactly computable from the outcome distributions
(binomial tails of majority votes and medians).  Summing over the full
decision tree certifies the advertised >= 2/3 guarantees rigorously for
small instances, rather than estimating them empirically.
"""

import math
from math import comb

import numpy as np

from spanforge.algorithms import (
    AE_SUCCESS_FLOOR,
    DECIDE_SUCCESS_FLOOR,
    POSITIVE,
    ThresholdSpec,
    _ae_grid_for_stage,
    decision_context,
    interval_probes,
    interval_update,
    majority_reps,
)
from spanforge.oracle import build_Uprime
from spanforge.qsim import (
    ae_estimates,
    ae_outcome_distribution,
    amp_gap_grid_size,
    amp_gap_threshold,
    outcome_zero_probability,
    pe_grid_size,
)
from spanforge.resistance import build_st_span_program, complete_graph, graph, graph_input
from spanforge.spanprog import input_factors, minimal_witness, normalize, or_span_program
from spanforge.spanprog import positive_witness
from spanforge.spectral import kappa_bound, row_space_cross


def majority_tail(p_one: float, reps: int) -> float:
    """P(more than reps/2 successes) for reps iid Bernoulli(p_one) votes."""
    return sum(
        comb(reps, j) * p_one**j * (1.0 - p_one) ** (reps - j)
        for j in range(reps // 2 + 1, reps + 1)
    )


def order_stat_tail(p_single: float, reps: int) -> float:
    """P(at least (reps+1)/2 of reps iid events occur): the median of reps
    draws exceeds a threshold iff at least that many single draws do."""
    m = (reps + 1) // 2
    return sum(
        comb(reps, j) * p_single**j * (1.0 - p_single) ** (reps - j)
        for j in range(m, reps + 1)
    )


def exact_witness_estimate_success(program, x, eps, w_true, wt_bound) -> float:
    """Exact P(|result - w_true| <= eps w_true) for witness_estimate by
    dynamic programming over the interval states."""
    ctx_cache: dict = {}

    def p_decide_small(e_max, e_min, rnd):
        e1, e0 = interval_probes(e_max, e_min)
        key = (e1, e0)
        if key not in ctx_cache:
            spec = ThresholdSpec(side=POSITIVE, lam=e0 / e1, w_bound=1.0 / e1,
                                 w_tilde_bound=wt_bound)
            ctx = decision_context(row_space_cross(input_factors(program, x)), spec)
            grid = amp_gap_grid_size(ctx.p0, ctx.p1)
            dist = ae_outcome_distribution(ctx.p_exact, grid)
            p_high = float(np.sum(dist[ae_estimates(grid) >= amp_gap_threshold(ctx.p0, ctx.p1)]))
            ctx_cache[key] = p_high
        reps = majority_reps((1.0 / 9.0) * (2.0 / 3.0) ** (rnd - 1), DECIDE_SUCCESS_FLOOR)
        return majority_tail(ctx_cache[key], reps)

    success = 0.0
    stack = [(1.0, 0.0, 1, 1.0)]
    while stack:
        e_max, e_min, rnd, prob = stack.pop()
        if prob <= 1e-15:
            continue
        p_small = p_decide_small(e_max, e_min, rnd)
        for decided_small, p_branch in ((True, p_small), (False, 1.0 - p_small)):
            weight = prob * p_branch
            if weight <= 1e-15:
                continue
            nmax, nmin = interval_update(e_max, e_min, decided_small)
            if nmax <= (1.0 + eps) * nmin:
                midpoint = 0.5 * (nmax + nmin)
                if abs(1.0 / midpoint - w_true) <= eps * w_true:
                    success += weight
            else:
                stack.append((nmax, nmin, rnd + 1, weight))
    return success


def exact_gap_estimate_success(dec, w0, w_true, eps, delta_lb) -> float:
    """Exact P(|1/p_final - w_true| <= eps w_true) for the halving loop."""
    lo, hi = 1.0 / (w_true * (1.0 + eps)), 1.0 / (w_true * (1.0 - eps))
    success = 0.0
    reach = 1.0
    eps_hat = 0.5
    for stage in range(100):
        if reach <= 1e-15:
            break
        grid_pe = pe_grid_size(delta_lb, eps_hat)
        p_exact = outcome_zero_probability(dec.measure(w0), grid_pe)
        grid_ae = _ae_grid_for_stage(eps, eps_hat)
        dist = ae_outcome_distribution(p_exact, grid_ae)
        estimates = ae_estimates(grid_ae)
        reps = majority_reps((1.0 / 6.0) * 0.5 ** (stage + 1), AE_SUCCESS_FLOOR)
        threshold = 2.0 * (1.0 + eps / 4.0) * eps_hat
        p_exit = order_stat_tail(float(np.sum(dist[estimates > threshold])), reps)

        # conditional on exiting here, the final median must land in [lo, hi]
        grid_pe2 = pe_grid_size(delta_lb, (eps / 8.0) * eps_hat)
        p_exact2 = outcome_zero_probability(dec.measure(w0), grid_pe2)
        dist2 = ae_outcome_distribution(p_exact2, grid_ae)
        reps_fin = majority_reps(1.0 / 6.0, AE_SUCCESS_FLOOR)
        p_ge_lo = order_stat_tail(float(np.sum(dist2[estimates >= lo - 1e-15])), reps_fin)
        p_gt_hi = order_stat_tail(float(np.sum(dist2[estimates > hi + 1e-15])), reps_fin)
        p_final_ok = p_ge_lo - p_gt_hi

        success += reach * p_exit * p_final_ok
        reach *= 1.0 - p_exit
        eps_hat *= 0.5
    return success


def test_witness_estimate_success_probability_exact():
    # normalized OR(4), |x| = 2, eps = 0.25: true w_+ = 2
    program = normalize(or_span_program(4))
    success = exact_witness_estimate_success(program, (1, 1, 0, 0), 0.25, 2.0, 1.0)
    assert success >= 2.0 / 3.0, f"exact success probability {success:.4f}"


def test_witness_estimate_success_probability_exact_path_graph():
    # normalized st program of the 3-vertex path: w_+ = n R/2 = 3, eps = 0.2
    g = graph(3, [(0, 1), (1, 2)], 0, 2)
    program = normalize(build_st_span_program(g.n, g.s, g.t))
    x = graph_input(g)
    _, w_true = positive_witness(input_factors(program, x))
    success = exact_witness_estimate_success(program, x, 0.2, w_true, 2.0 * g.n)
    assert success >= 2.0 / 3.0, f"exact success probability {success:.4f}"


def test_gap_estimate_success_probability_exact():
    # normalized st program of K4 with the exact kappa bound
    g = complete_graph(4)
    program = normalize(build_st_span_program(g.n, g.s, g.t))
    x = graph_input(g)
    _, w_true = positive_witness(input_factors(program, x))
    delta_lb = kappa_bound(input_factors(program, x))
    dec = build_Uprime(program, x)
    w0 = np.asarray(minimal_witness(program).w0)
    success = exact_gap_estimate_success(dec, w0, w_true, 0.2, delta_lb)
    assert success >= 2.0 / 3.0, f"exact success probability {success:.4f}"


def test_gap_estimate_success_probability_exact_path_graph():
    g = graph(3, [(0, 1), (1, 2)], 0, 2)
    program = normalize(build_st_span_program(g.n, g.s, g.t))
    x = graph_input(g)
    _, w_true = positive_witness(input_factors(program, x))
    lam2 = 1.0  # exact algebraic connectivity of the 3-path
    delta_lb = 2.0 / math.sqrt(g.n / lam2)
    dec = build_Uprime(program, x)
    w0 = np.asarray(minimal_witness(program).w0)
    success = exact_gap_estimate_success(dec, w0, w_true, 0.2, delta_lb)
    assert success >= 2.0 / 3.0, f"exact success probability {success:.4f}"
