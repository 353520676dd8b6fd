"""Exact-distribution simulation of phase and amplitude estimation, and the
one sampler every estimator draws through."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanforge import qsim
from spanforge.oracle import decompose_orthogonal
from spanforge.qsim import (
    AE_GRID_CAP,
    GridSizeError,
    QueryLedger,
    ae_estimates,
    ae_outcome_distribution,
    amp_gap_grid_size,
    amp_gap_threshold,
    amplitude_estimation,
    amplitude_gap_success_probability,
    fejer_kernel,
    outcome_zero_probability,
    pe_grid_size,
    pe_queries,
)

from oracles import ae_error_bound


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def block_diag(*mats):
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim))
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return out


def test_ledger_rejects_negative_charge():
    ledger = QueryLedger()
    ledger.charge(5)
    assert ledger.total == 5
    with pytest.raises(ValueError):
        ledger.charge(-1)


def test_fejer_kernel_peak_and_normalization():
    assert fejer_kernel(0.0, 16) == pytest.approx(1.0, abs=1e-12)
    grid = 2 * math.pi * np.arange(16) / 16
    for theta in (0.0, 0.3, 1.7, math.pi):
        total = float(np.sum(fejer_kernel(theta - grid, 16)))
        assert total == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    log_m=st.integers(min_value=1, max_value=8),
)
def test_fejer_kernel_distribution_property(theta, log_m):
    grid_size = 2**log_m
    grid = 2 * math.pi * np.arange(grid_size) / grid_size
    vals = fejer_kernel(theta - grid, grid_size)
    assert np.all(vals >= -1e-12)
    assert float(np.sum(vals)) == pytest.approx(1.0, abs=1e-9)


def test_pe_grid_size_meets_leak_contract():
    for theta, eps in [(0.3, 0.1), (0.05, 0.01), (1.5, 0.5), (2.0, 0.9)]:
        grid_size = pe_grid_size(theta, eps)
        # every phase of magnitude >= theta leaks at most eps onto outcome 0
        for phase in np.linspace(theta, math.pi, 200):
            assert fejer_kernel(phase, grid_size) <= eps + 1e-12


def test_pe_grid_size_validates_arguments():
    with pytest.raises(ValueError):
        pe_grid_size(0.0, 0.1)
    with pytest.raises(ValueError):
        pe_grid_size(0.3, 1.0)


def test_phase_estimation_zero_phase_is_deterministic():
    # eigenphase 0 puts all mass on outcome 0, so amplitude estimation of
    # that probability on an even grid reads exactly 1 on every run, and each
    # of the grid's circuit calls is charged one phase-estimation run
    dec = decompose_orthogonal(np.eye(3))
    pe_grid = pe_grid_size(0.5, 0.1)
    p_zero = outcome_zero_probability(dec.measure(np.array([1.0, 0.0, 0.0])), pe_grid)
    assert p_zero == pytest.approx(1.0, abs=1e-12)
    ledger = QueryLedger()
    estimates = amplitude_estimation(p_zero, 16, 5, np.random.default_rng(0), ledger,
                                     pe_queries(pe_grid))
    assert estimates.shape == (5,) and np.all(estimates == 1.0)
    assert ledger.total == 5 * 16 * 2 * (pe_grid - 1)


def test_phase_estimation_on_grid_phase_is_deterministic():
    # a rotation by exactly 2 pi k / M, k != 0, puts no mass on outcome 0
    grid_size = pe_grid_size(0.5, 0.1)
    for k in (1, 3, grid_size // 2):
        dec = decompose_orthogonal(rotation(2 * math.pi * k / grid_size))
        p_zero = outcome_zero_probability(dec.measure(np.array([1.0, 0.0])), grid_size)
        assert p_zero == pytest.approx(0.0, abs=1e-12)


def test_phase_estimation_superposition_bounds():
    # equal superposition of a fixed vector and a large-phase vector
    theta = 2.0
    u_mat = block_diag(np.eye(1), rotation(theta))
    dec = decompose_orthogonal(u_mat)
    state = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    eps = 0.05
    grid_size = pe_grid_size(1.9, eps)
    p0 = outcome_zero_probability(dec.measure(state), grid_size)
    assert 0.5 <= p0 <= 0.5 + eps


def test_phase_estimation_rejects_non_unit_state():
    dec = decompose_orthogonal(np.eye(2))
    with pytest.raises(ValueError):
        dec.measure(np.array([1.0, 1.0]))


def test_amplitude_estimation_extremes():
    rng = np.random.default_rng(1)
    ledger = QueryLedger()
    assert ae_outcome_distribution(0.0, 13)[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(amplitude_estimation(0.0, 13, 3, rng, ledger, 1) == 0.0)
    np.testing.assert_allclose(amplitude_estimation(1.0, 16, 3, rng, ledger, 1), 1.0, atol=1e-12)
    assert ledger.total == 3 * 13 + 3 * 16


def test_amplitude_estimation_success_bound_exact():
    # frozen with the summation oracle: p = 1/2 on a 16-point grid is on-grid,
    # so every run lands within the BHMT bound
    dist = ae_outcome_distribution(0.5, 16)
    mask = np.abs(ae_estimates(16) - 0.5) <= ae_error_bound(0.5, 16) + 1e-15
    assert float(np.sum(dist[mask])) == pytest.approx(1.0, abs=1e-12)
    estimates = amplitude_estimation(0.5, 16, 9, np.random.default_rng(2), QueryLedger(), 0)
    np.testing.assert_allclose(estimates, 0.5, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0), grid=st.integers(min_value=1, max_value=64))
def test_amplitude_estimation_distribution_properties(p, grid):
    dist = ae_outcome_distribution(p, grid)
    assert np.all(dist >= -1e-12)
    assert float(np.sum(dist)) == pytest.approx(1.0, abs=1e-9)
    # BHMT guarantee, computed exactly: error bound holds with prob >= 8/pi^2
    bound = ae_error_bound(p, grid)
    mask = np.abs(ae_estimates(grid) - p) <= bound + 1e-15
    assert float(np.sum(dist[mask])) >= 8.0 / math.pi**2 - 1e-9


def test_amplitude_estimation_rejects_bad_grid():
    for grid_size, reps in ((0, 1), (16, 0)):
        with pytest.raises(ValueError):
            amplitude_estimation(0.5, grid_size, reps, np.random.default_rng(0), QueryLedger(), 1)


def test_amplitude_gap_grid_size_formula():
    assert amp_gap_grid_size(0.5, 0.1) == math.ceil(4 * math.pi * math.sqrt(0.6) / 0.4)
    assert amp_gap_grid_size(1.0, 0.0) == math.ceil(4 * math.pi)


def test_amplitude_gap_decide_validates_arguments():
    for p0, p1 in ((0.1, 0.5), (0.5, 0.5), (1.5, 0.1), (0.5, -0.1)):
        with pytest.raises(ValueError):
            amp_gap_grid_size(p0, p1)
        with pytest.raises(ValueError):
            amplitude_gap_success_probability(0.5, p0, p1, True)


def test_amplitude_gap_exact_success_probabilities():
    # frozen with the summation oracle (M = 25)
    assert amplitude_gap_success_probability(0.5, 0.5, 0.1, True) == pytest.approx(
        0.9736544841144807, abs=1e-12
    )
    assert amplitude_gap_success_probability(0.1, 0.5, 0.1, False) == pytest.approx(
        0.941669881540553, abs=1e-12
    )
    for p, high in [(0.5, True), (0.1, False)]:
        assert amplitude_gap_success_probability(p, 0.5, 0.1, high) >= 0.75


def gap_decision(p, p0, p1, rng, ledger, cost_per_call=0):
    """One amplitude-gap decision as the threshold rounds make it: 1 when
    the estimate on the amp_gap_grid_size grid reaches amp_gap_threshold."""
    est = amplitude_estimation(p, amp_gap_grid_size(p0, p1), 1, rng, ledger, cost_per_call)
    return int(est[0] >= amp_gap_threshold(p0, p1))


def test_amplitude_gap_trivial_extremes():
    # p0 = 1, p1 = 0: M = ceil(4 pi) = 13 is odd, so p = 1 sits off-grid and
    # the success probability is below 1, but comfortably above 3/4
    ledger = QueryLedger()
    rng = np.random.default_rng(3)
    assert gap_decision(1.0, 1.0, 0.0, rng, ledger) == 1
    assert gap_decision(0.0, 1.0, 0.0, rng, ledger) == 0
    assert amplitude_gap_success_probability(1.0, 1.0, 0.0, True) >= 0.75
    assert amplitude_gap_success_probability(0.0, 1.0, 0.0, False) == pytest.approx(1.0)


def test_amplitude_gap_charges_per_call():
    ledger = QueryLedger()
    grid = amp_gap_grid_size(0.5, 0.1)
    gap_decision(0.5, 0.5, 0.1, np.random.default_rng(0), ledger, cost_per_call=6)
    assert ledger.total == grid * 6
    amplitude_estimation(0.5, grid, 4, np.random.default_rng(0), ledger, 6)
    assert ledger.total == 5 * grid * 6


def test_determinism_same_seed_same_outcomes():
    def run(seed):
        rng = np.random.default_rng(seed)
        ledger = QueryLedger()
        ests = [amplitude_estimation(0.37, 40, 5, rng, ledger, pe_queries(8)) for _ in range(3)]
        return np.concatenate(ests).tolist(), ledger.total

    assert run(123) == run(123)
    assert run(123)[1] == 3 * 5 * 40 * 14
    assert pe_queries(8) == 14


def test_amplitude_estimation_draws_one_choice_from_the_exact_distribution():
    # the whole stream of reps runs is one rng.choice over the grid
    dist = ae_outcome_distribution(0.37, 40)
    expected = ae_estimates(40)[np.random.default_rng(7).choice(40, size=6, p=dist / dist.sum())]
    estimates = amplitude_estimation(0.37, 40, 6, np.random.default_rng(7), QueryLedger(), 0)
    assert estimates.tobytes() == expected.tobytes()


def test_qsim_has_one_sampler():
    takes_rng = [name for name, fn in vars(qsim).items()
                 if inspect.isfunction(fn) and fn.__module__ == qsim.__name__
                 and "rng" in inspect.signature(fn).parameters]
    assert takes_rng == ["amplitude_estimation"]


def fejer_sum(p, grid_size):
    """The outcome distribution as the sum of the Fejer kernels of the two
    branches +/- 2 theta_p, each wrapped onto the grid: the reference."""
    theta_p = math.asin(math.sqrt(p))
    grid = 2.0 * math.pi * np.arange(grid_size) / grid_size
    return 0.5 * (fejer_kernel(2.0 * theta_p - grid, grid_size)
                  + fejer_kernel(-2.0 * theta_p - grid, grid_size))


def test_closed_form_outcome_distribution_matches_the_fejer_sum():
    # on-grid p, p next to the grid on either side, the ends and random p
    rng = np.random.default_rng(21)
    for grid_size in (1, 2, 3, 4, 7, 16, 17, 100, 255, 433, 1024, 1353, 4096):
        on_grid = [math.sin(math.pi * k / grid_size) ** 2
                   for k in range(0, grid_size // 2 + 1, max(1, grid_size // 16))]
        near = [math.sin(math.pi * k / grid_size + d) ** 2
                for k in range(1, (grid_size + 1) // 2, max(1, grid_size // 8))
                for d in (1e-13, -1e-9)]
        for p in on_grid + near + [0.0, 1.0, 1e-12, 1.0 - 1e-12] + list(rng.random(8)):
            dist = ae_outcome_distribution(p, grid_size)
            assert np.max(np.abs(dist - fejer_sum(p, grid_size))) <= 1e-12, (p, grid_size)


def sinc_fejer(delta, grid_size):
    """The Fejer kernel as two np.sinc calls, its earlier form: the
    reference of the sine ratio."""
    delta = np.mod(np.asarray(delta, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
    half = delta / (2.0 * math.pi)
    return np.square(np.sinc(grid_size * half) / np.sinc(half))


def test_fejer_sine_ratio_matches_the_sinc_form():
    rng = np.random.default_rng(31)
    special = [0.0, math.pi, -math.pi, 1e-300, -1e-300, 5e-324]
    special += [2.0 * math.pi * k for k in range(-6, 7)]
    deltas = np.concatenate([special, rng.uniform(-40.0, 40.0, 4000),
                             rng.uniform(0.0, math.pi, 4000), 10.0 ** rng.uniform(-17, 0, 500)])
    for grid_size in (1, 2, 3, 7, 16, 100, 1024, 4097, 2**16, 2**20):
        got = fejer_kernel(deltas, grid_size)
        assert np.max(np.abs(got - sinc_fejer(deltas, grid_size))) <= 1e-15, grid_size
        for delta in special:  # scalars give scalars, and the limit at 0 is exact
            value = fejer_kernel(delta, grid_size)
            assert np.ndim(value) == 0
            assert abs(value - sinc_fejer(delta, grid_size)) <= 1e-15
        assert fejer_kernel(0.0, grid_size) == 1.0 and fejer_kernel(1e-300, grid_size) == 1.0
        assert np.all(fejer_kernel(2.0 * math.pi * np.arange(-6, 7), grid_size) == 1.0)


@settings(max_examples=200, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    grid_size=st.integers(min_value=1, max_value=4096),
    reps=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inverse_cdf_draws_are_generator_choice_bit_for_bit(p, grid_size, reps, seed):
    dist = ae_outcome_distribution(p, grid_size)
    outcomes = np.random.default_rng(seed).choice(grid_size, size=reps, p=dist / dist.sum())
    ledger = QueryLedger()
    got = amplitude_estimation(p, grid_size, reps, np.random.default_rng(seed), ledger, 3)
    assert got.tobytes() == ae_estimates(grid_size)[outcomes].tobytes()
    assert ledger.total == reps * grid_size * 3


@pytest.mark.parametrize("bad", [
    np.array([0.5, math.nan, 0.5]),
    np.array([0.5, math.inf, 0.5]),
    np.array([1.2, -0.2, 0.0]),
    np.array([0.5, 0.25, 0.0]),
])
def test_the_sampler_refuses_a_distribution_that_is_not_one(monkeypatch, bad):
    monkeypatch.setattr(qsim, "ae_outcome_distribution", lambda p, grid_size: bad.copy())
    with pytest.raises(ValueError, match="outcome distribution"):
        amplitude_estimation(0.3, 3, 4, np.random.default_rng(1), QueryLedger(), 1)


def test_ae_grids_above_the_cap_are_refused_before_allocating():
    # one float64 array over cap + 1 points would take 134 MB
    over = AE_GRID_CAP + 1
    calls = (
        lambda: ae_outcome_distribution(0.3, over),
        lambda: ae_estimates(over),
        lambda: amplitude_estimation(0.3, over, 1, np.random.default_rng(0), QueryLedger(), 1),
        lambda: amplitude_gap_success_probability(0.5, 0.5 + 5e-7, 0.5, True),
    )
    assert amp_gap_grid_size(0.5 + 5e-7, 0.5) > AE_GRID_CAP
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(GridSizeError, match=f"above the cap of {AE_GRID_CAP}"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert issubclass(GridSizeError, ValueError)
