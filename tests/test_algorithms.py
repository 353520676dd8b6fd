"""Threshold decisions and the witness-size estimators, end to end."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanforge import algorithms
from spanforge.algorithms import (
    DECIDE_SUCCESS_FLOOR,
    NEGATIVE,
    POSITIVE,
    EstimateResult,
    ThresholdSpec,
    decide_threshold,
    decide_threshold_success_probability,
    gap_estimate,
    interval_probes,
    interval_update,
    kappa_estimate,
    majority_reps,
    witness_estimate,
)
from spanforge.qsim import QueryLedger, amplitude_estimation
from spanforge.spanprog import (
    GloballyInfeasibleError,
    input_factors,
    minimal_witness,
    normalize,
    or_span_program,
    positive_witness,
)
from spanforge.spectral import kappa_bound, row_space_cross
from spanforge.resistance import build_st_span_program, complete_graph, graph, graph_input, lambda2


def test_threshold_spec_validation():
    with pytest.raises(ValueError):
        ThresholdSpec(side="sideways", lam=0.5, w_bound=1.0, w_tilde_bound=1.0)
    with pytest.raises(ValueError):
        ThresholdSpec(side=POSITIVE, lam=1.0, w_bound=1.0, w_tilde_bound=1.0)
    with pytest.raises(ValueError):
        ThresholdSpec(side=POSITIVE, lam=0.5, w_bound=math.inf, w_tilde_bound=1.0)


def test_decide_threshold_or_positive_side():
    # the threshold function on OR(4): accept |x| >= 2, reject |x| <= 1
    program = or_span_program(4)
    spec = ThresholdSpec(side=POSITIVE, lam=0.5, w_bound=0.5, w_tilde_bound=4.0)
    p_yes = decide_threshold_success_probability(program, (1, 1, 0, 0), spec)
    p_no = decide_threshold_success_probability(program, (0, 0, 0, 0), spec)
    assert p_yes >= 2.0 / 3.0
    assert p_no >= 2.0 / 3.0
    # regression pins: exact values from the distribution summation
    assert p_yes == pytest.approx(0.9999998424953906, abs=1e-9)
    assert p_no == pytest.approx(0.9999999771366623, abs=1e-9)

    rng = np.random.default_rng(0)
    ledger = QueryLedger()
    assert decide_threshold(program, (1, 1, 0, 0), spec, rng, ledger) == 1
    assert decide_threshold(program, (0, 0, 0, 0), spec, rng, ledger) == 0
    assert ledger.total > 0


def test_decide_threshold_or_negative_side():
    # thresholding w_-: the all-zeros input has w_- = n, strings of weight >= 1
    # have w_- infinite, so "small side" means w_- <= 4 here
    program = or_span_program(4)
    spec = ThresholdSpec(side=NEGATIVE, lam=0.5, w_bound=4.0, w_tilde_bound=0.25)
    p_small = decide_threshold_success_probability(program, (0, 0, 0, 0), spec)
    assert p_small >= 2.0 / 3.0


def test_decide_threshold_gap_input_returns_some_bit():
    program = or_span_program(4)
    # w_bound = 1/3: |x| = 2 gives w_+ = 1/2, inside the gap (1/3, 2/3)
    spec = ThresholdSpec(side=POSITIVE, lam=0.5, w_bound=1.0 / 3.0, w_tilde_bound=4.0)
    assert decide_threshold_success_probability(program, (1, 1, 0, 0), spec) is None
    bit = decide_threshold(program, (1, 1, 0, 0), spec, np.random.default_rng(1), QueryLedger())
    assert bit in (0, 1)


def test_decide_threshold_query_accounting_factorizes():
    # total queries = (amplitude grid) x 2 (PE grid - 1): every amplitude call
    # invokes one phase-estimation circuit
    from spanforge.algorithms import decision_context
    from spanforge.qsim import amp_gap_grid_size

    program = or_span_program(4)
    spec = ThresholdSpec(side=POSITIVE, lam=0.5, w_bound=0.5, w_tilde_bound=4.0)
    ctx = decision_context(row_space_cross(input_factors(program, (1, 1, 0, 0))), spec)
    ledger = QueryLedger()
    decide_threshold(program, (1, 1, 0, 0), spec, np.random.default_rng(0), ledger)
    expected = amp_gap_grid_size(ctx.p0, ctx.p1) * 2 * (ctx.pe_grid - 1)
    assert ledger.total == expected


def test_decide_threshold_cache_reuse():
    # repeating a decision on the same program object is reproducible: the
    # program's stored factorization changes neither the answer nor the bill
    program = or_span_program(4)
    spec = ThresholdSpec(side=POSITIVE, lam=0.5, w_bound=0.5, w_tilde_bound=4.0)
    first_ledger, second_ledger = QueryLedger(), QueryLedger()
    first = decide_threshold(program, (1, 1, 0, 0), spec, np.random.default_rng(2), first_ledger)
    second = decide_threshold(program, (1, 1, 0, 0), spec, np.random.default_rng(2), second_ledger)
    assert first in (0, 1)
    assert second == first
    assert second_ledger.total == first_ledger.total


def test_majority_reps_is_odd_and_monotone():
    reps = [majority_reps((1 / 9) * (2 / 3) ** i, DECIDE_SUCCESS_FLOOR) for i in range(8)]
    assert all(k % 2 == 1 for k in reps)
    assert reps == sorted(reps)


@settings(max_examples=40, deadline=None)
@given(bits=st.lists(st.booleans(), min_size=1, max_size=40))
def test_interval_shrinks_by_two_thirds_per_round(bits):
    e_max, e_min = 1.0, 0.0
    for i, bit in enumerate(bits, start=1):
        e_max, e_min = interval_update(e_max, e_min, bit)
        assert 0.0 <= e_min < e_max <= 1.0
        assert e_max - e_min == pytest.approx((2.0 / 3.0) ** i, rel=1e-12)
        e1, e0 = interval_probes(e_max, e_min)
        assert e_min < e0 < e1 < e_max


def test_interval_keeps_true_value_under_correct_answers():
    # with always-correct decisions the invariant e_min <= 1/w <= e_max holds
    for target in (1.0, 0.35, 0.62, 0.08):
        e_max, e_min = 1.0, 0.0
        for _ in range(30):
            e1, e0 = interval_probes(e_max, e_min)
            w_probe = 1.0 / e1
            if 1.0 / target <= w_probe:
                decided_small = True
            elif 1.0 / target >= w_probe / (e0 / e1):
                decided_small = False
            else:
                decided_small = bool(np.random.default_rng(0).integers(2))
            e_max, e_min = interval_update(e_max, e_min, decided_small)
            assert e_min <= target + 1e-12
            assert target <= e_max + 1e-12


def test_witness_estimate_requires_normalized_program():
    program = or_span_program(4)  # N+ = 1/4
    with pytest.raises(ValueError, match="normalized"):
        witness_estimate(program, (1, 1, 0, 0), 0.25, POSITIVE,
                         np.random.default_rng(0), QueryLedger())


def test_witness_estimate_infeasible_side_errors():
    program = normalize(or_span_program(4))
    with pytest.raises(GloballyInfeasibleError):
        witness_estimate(program, (0, 0, 0, 0), 0.25, POSITIVE,
                         np.random.default_rng(0), QueryLedger())
    with pytest.raises(GloballyInfeasibleError):
        witness_estimate(program, (1, 0, 0, 0), 0.25, NEGATIVE,
                         np.random.default_rng(0), QueryLedger())


def test_witness_estimate_or_accuracy():
    # normalized OR(4), |x| = 2: true w_+ = 2; eps = 0.25
    program = normalize(or_span_program(4))
    x = (1, 1, 0, 0)
    hits = 0
    trials = 40
    t_bound = math.ceil(math.log(2.0 / 0.25, 1.5) + 1)
    rounds_ok = 0
    for seed in range(trials):
        rng = np.random.default_rng([seed, 11])
        ledger = QueryLedger()
        result = witness_estimate(program, x, 0.25, POSITIVE, rng, ledger,
                                  w_tilde_bound=1.0)
        assert result.queries == ledger.total > 0
        hits += abs(result.value - 2.0) <= 0.25 * 2.0
        rounds_ok += result.rounds <= t_bound
    assert hits >= math.ceil(2 * trials / 3)
    assert rounds_ok >= math.ceil(2 * trials / 3)


def test_witness_estimate_negative_side():
    # normalized OR(4), x = 0...0: true w_- = 1 after normalization
    program = normalize(or_span_program(4))
    x = (0, 0, 0, 0)
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng([seed, 12])
        result = witness_estimate(program, x, 0.25, NEGATIVE, rng, QueryLedger())
        hits += abs(result.value - 1.0) <= 0.25
    assert hits >= 20


def test_witness_estimate_pinned_seed_reproducible():
    program = normalize(or_span_program(4))
    x = (1, 0, 1, 0)

    def run():
        rng = np.random.default_rng([7, 13])
        return witness_estimate(program, x, 0.2, POSITIVE, rng, QueryLedger(),
                                w_tilde_bound=1.0)

    first, second = run(), run()
    assert first.value == second.value
    assert first.queries == second.queries
    assert first.rounds == second.rounds


def test_gap_estimate_or():
    program = normalize(or_span_program(4))
    x = (1, 1, 0, 0)
    bound = kappa_bound(input_factors(program, x))
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng([seed, 14])
        result = gap_estimate(program, x, 0.2, bound, POSITIVE, rng, QueryLedger())
        hits += abs(result.value - 2.0) <= 0.2 * 2.0
        # the halving loop stops soon after eps_hat <= 1/(4 w)
        assert result.rounds <= math.ceil(math.log2(4 * 2.0)) + 2
    assert hits >= 20


def test_estimates_on_one_program_answer_for_their_own_input():
    # normalized OR(6) asked first about |x| = 1 (w+ = 6), then about |x| = 6
    # (w+ = 1): the second estimate must match one made on a fresh program
    program = normalize(or_span_program(6))
    first, second = (1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)
    bound = min(kappa_bound(input_factors(program, first)),
                kappa_bound(input_factors(program, second)))

    def witness(p, x):
        return witness_estimate(p, x, 0.25, POSITIVE, np.random.default_rng(3), QueryLedger())

    def gap(p, x):
        return gap_estimate(p, x, 0.25, bound, POSITIVE, np.random.default_rng(3),
                            QueryLedger())

    for estimate in (witness, gap):
        estimate(program, first)
        shared = estimate(program, second)
        lone = estimate(normalize(or_span_program(6)), second)
        assert shared.value == lone.value
        assert shared.queries == lone.queries
        assert shared.rounds == lone.rounds
        assert abs(shared.value - 1.0) <= 0.25


def test_gap_estimate_validates_arguments():
    program = normalize(or_span_program(4))
    with pytest.raises(ValueError):
        gap_estimate(program, (1, 1, 0, 0), 0.2, 0.0, POSITIVE,
                     np.random.default_rng(0), QueryLedger())
    with pytest.raises(GloballyInfeasibleError):
        gap_estimate(program, (0, 0, 0, 0), 0.2, 0.5, POSITIVE,
                     np.random.default_rng(0), QueryLedger())


def test_kappa_estimate_k4_resistance():
    # st-connectivity on K4: w_+ = R/2 = 1/4; kappa = sigma_max/sigma_min = 1
    g = complete_graph(4)
    program = build_st_span_program(4, 0, 3)
    x = graph_input(g)
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng([seed, 15])
        result = kappa_estimate(program, x, 0.2, 1.0, POSITIVE, rng, QueryLedger())
        hits += abs(result.value - 0.25) <= 0.2 * 0.25
    assert hits >= 20


def test_kappa_estimate_normalized_witness_relation():
    program = build_st_span_program(4, 0, 3)
    x = graph_input(complete_graph(4))
    n_plus = minimal_witness(program).n_plus
    normalized = normalize(program)
    _, w_raw = positive_witness(input_factors(program, x))
    _, w_norm = positive_witness(input_factors(normalized, x))
    assert w_norm == pytest.approx(w_raw / n_plus, rel=1e-10)


def test_kappa_estimate_rejects_kappa_below_one():
    program = build_st_span_program(4, 0, 3)
    with pytest.raises(ValueError):
        kappa_estimate(program, graph_input(complete_graph(4)), 0.2, 0.5, POSITIVE,
                       np.random.default_rng(0), QueryLedger())


def test_estimate_results_are_frozen_records():
    result = EstimateResult(value=1.0, epsilon=0.1, queries=10, rounds=2)
    with pytest.raises(AttributeError):
        result.value = 2.0


# Regression pins, compared with == so that a change to the sampling stream,
# the grids or the query charges fails.  Each pin ends with the generator's
# next 32-bit draw, so a run that takes more or fewer draws fails even where
# majority votes and medians hide it; the last twelve decisions fall in the
# promise gap, where each vote is 1 with probability about 0.62.
PINNED_DECISIONS = (
    [(1, 14742), (0, 29484), (0, 44226), (1, 58968), (0, 95798), (0, 132628),
     (1, 169458), (0, 206288), (1, 260898), (0, 315508), (0, 370118), (1, 424728),
     (1, 479338), (1, 533948), (1, 588558), (0, 643168), (0, 697778), (0, 752388),
     (1, 806998), (0, 861608), (1, 916218), (1, 970828), (1, 1025438), (0, 1080048)],
    470833256,
)
PINNED_OR8 = {
    POSITIVE: ((1, 1, 0, 1, 0, 0, 0, 0), (2.768354430379747, 258433864, 7, 2995198448)),
    NEGATIVE: ((0,) * 8, (1.1095890410958904, 78683596, 4, 1199573650)),
}
PINNED_ST6 = (0.6958075611560334, 2153364, 4, 2328051963)


def next_draw(rng):
    return int(rng.integers(2**32))


def test_decide_threshold_is_pinned():
    program = or_span_program(4)
    rng = np.random.default_rng(41)
    ledger = QueryLedger()
    seen = []
    for side, lam, w_bound, wt_bound in (
        (POSITIVE, 0.5, 0.5, 4.0), (NEGATIVE, 0.5, 4.0, 1.0), (POSITIVE, 0.7, 0.45, 4.0)
    ):
        spec = ThresholdSpec(side=side, lam=lam, w_bound=w_bound, w_tilde_bound=wt_bound)
        for x in ((1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (1, 1, 1, 1)):
            seen.append((decide_threshold(program, x, spec, rng, ledger), ledger.total))
    for _ in range(12):
        seen.append((decide_threshold(program, (1, 1, 0, 0), spec, rng, ledger), ledger.total))
    assert (seen, next_draw(rng)) == PINNED_DECISIONS


@pytest.mark.parametrize("side", [POSITIVE, NEGATIVE])
def test_witness_estimate_is_pinned(side):
    x, pinned = PINNED_OR8[side]
    rng = np.random.default_rng(42)
    result = witness_estimate(normalize(or_span_program(8)), x, 0.25, side, rng, QueryLedger())
    assert (result.value, result.queries, result.rounds, next_draw(rng)) == pinned
    assert result.flags == ()


def test_kappa_estimate_is_pinned():
    g = graph(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5), (1, 4)], s=0, t=5)
    kappa = math.sqrt(6 / lambda2(g))
    rng = np.random.default_rng(43)
    result = kappa_estimate(build_st_span_program(6, 0, 5), graph_input(g), 0.2, kappa,
                            POSITIVE, rng, QueryLedger())
    assert (result.value, result.queries, result.rounds, next_draw(rng)) == PINNED_ST6
    assert result.flags == ()


def test_every_estimator_samples_through_qsim(monkeypatch):
    # the only random step is qsim.amplitude_estimation; counting its calls
    # leaves every result as it was
    calls = []

    def counting(*args):
        calls.append(args[2])
        return amplitude_estimation(*args)

    monkeypatch.setattr(algorithms, "amplitude_estimation", counting)
    test_decide_threshold_is_pinned()
    assert len(calls) == len(PINNED_DECISIONS[0]) and set(calls) == {1}
    for side in PINNED_OR8:
        calls.clear()
        test_witness_estimate_is_pinned(side)
        assert len(calls) == PINNED_OR8[side][1][2]
    calls.clear()
    test_kappa_estimate_is_pinned()
    assert len(calls) == PINNED_ST6[2] + 1
