"""Threshold rounds read the scaled program from the parent's factors:
differential tests of scaled_measure_U/scaled_measure_Uprime against
measure_U/measure_Uprime of scale(program, beta), the calls one estimate
makes, and the guard against a C(x) of another program or input."""

import dataclasses
import sys

import numpy as np
import pytest

from spanforge import spanprog
from spanforge._linalg import DEFAULT_TOLS, Tolerances
from spanforge.algorithms import (
    POSITIVE,
    ThresholdSpec,
    _round_context,
    decision_context,
    witness_estimate,
)
from spanforge.generators import all_inputs, random_graph, random_span_program
from spanforge.qsim import QueryLedger, outcome_zero_probability
from spanforge.resistance import build_st_span_program, complete_graph, graph, graph_input
from spanforge.spanprog import (
    minimal_witness,
    normalize,
    or_span_program,
    scale,
    scaled_factors,
    subspace_blocks,
    witness_report,
)
from spanforge.spectral import (
    build_Uprime,
    measure_U,
    measure_Uprime,
    row_space_cross,
    scaled_measure_U,
    scaled_measure_Uprime,
)

from test_input_route import degenerate_programs

BETAS = (1e-3, 0.37, 1.0, 4.0, 1e3)
GRIDS = (2, 16, 256)


def outcome_zero_probabilities(measure, *args):
    """outcome_zero_probability on GRIDS, or None when measure raises ValueError."""
    try:
        got = measure(*args)
    except ValueError:
        return None
    return np.array([outcome_zero_probability(got, grid) for grid in GRIDS])


def refused_rounds(program, x):
    """Compare each round's measures with the direct route's on
    scale(program, beta) to 1e-12; return how many of them both routes
    refused with a ValueError."""
    cross = row_space_cross(program, x, subspace_blocks(program, x)[0])
    refused = 0
    for beta in BETAS:
        scaled = scale(program, beta)
        pairs = ((measure_U, scaled_measure_U), (measure_Uprime, scaled_measure_Uprime))
        for direct, derived in pairs:
            want = outcome_zero_probabilities(direct, scaled, x)
            got = outcome_zero_probabilities(derived, cross, beta)
            assert (want is None) == (got is None)
            if want is None:
                refused += 1
            else:
                assert np.max(np.abs(got - want)) <= 1e-12
    return refused


def assert_rounds_match_scaled_program(program, x):
    assert refused_rounds(program, x) == 0


@pytest.mark.parametrize("n", [4, 8, 16])
def test_rounds_match_scaled_st_programs(n):
    rng = np.random.default_rng([n, 1])
    program = normalize(build_st_span_program(n, 0, n - 1))
    cut = graph(n, [(u, u + 1) for u in range(n - 1) if u != n // 2])
    for g in (random_graph(rng, n, 0.5), random_graph(rng, n, 0.2), cut):
        assert_rounds_match_scaled_program(program, graph_input(g))


@pytest.mark.parametrize("name", sorted(degenerate_programs()))
def test_rounds_match_scaled_degenerate_programs(name):
    program = degenerate_programs()[name]
    for x in all_inputs(program):
        assert_rounds_match_scaled_program(program, x)


@pytest.mark.parametrize("seed", range(30))
def test_rounds_match_scaled_random_programs(seed):
    program = random_span_program(np.random.default_rng([8, seed]))
    for x in all_inputs(program):
        assert_rounds_match_scaled_program(program, x)


def nearly_feasible_program():
    """A random program with one singular value of A set to zero and tau
    leaning 1e-9 relative onto that direction of V: tau lies in col(A) only
    to within membership_rtol."""
    program = random_span_program(np.random.default_rng([8, 3]))
    u, s, vt = np.linalg.svd(program.a_mat, full_matrices=False)
    assert s.size >= 2 and s[-1] > 1e-6 * s[0]
    s = s.copy()
    s[-1] = 0.0
    a_mat = (u * s) @ vt
    tau = u[:, :-1] @ (u[:, :-1].T @ program.tau)
    tau = tau + 1e-9 * np.linalg.norm(tau) * u[:, -1]
    return dataclasses.replace(program, a_mat=a_mat, tau=tau)


def test_rounds_keep_a_tau_that_lies_in_col_a_only_to_within_tolerance():
    program = nearly_feasible_program()
    fact = program.factorization()
    g = fact.col_basis.T @ program.tau
    rho = np.linalg.norm(program.tau - fact.col_basis @ g)
    assert 1e-10 < rho / np.linalg.norm(program.tau) < 1e-8
    ranks = []
    for beta in BETAS:
        # the scaled program's rank counts rho's direction as the direct SVD
        # does: kept next to beta Sigma, cut next to c = sqrt(beta^2 + N)/beta
        ranks.append(scale(program, beta).factorization().row_basis.shape[1])
        assert scaled_factors(program, beta).witness.size == ranks[-1]
    assert min(ranks) == fact.sigma.size + 1 and max(ranks) == fact.sigma.size + 2
    # where rho's direction is kept, w0_beta is no longer a unit vector:
    # the direct route calls tau_beta infeasible (rounding of the explicit
    # pseudo-inverse) and the derived one refuses the non-unit state
    per_input = 2 * sum(rank == fact.sigma.size + 2 for rank in ranks)
    for x in all_inputs(program):
        assert refused_rounds(program, x) == per_input


def test_measure_uprime_reads_cosines_within_rounding_of_one_as_one():
    # three principal-angle cosines lie within 1e-15 of 1 with rounding
    # coefficients near 1e-11; divided by 1 - sigma^2 they once summed past 1
    parent = normalize(random_span_program(np.random.default_rng([7, 3])))
    program, x = scale(parent, 1e-3), (1, 1, 0)
    oracle = build_Uprime(program, x).measure(np.asarray(minimal_witness(program).w0))
    fast = measure_Uprime(program, x)
    for grid in GRIDS:
        assert outcome_zero_probability(fast, grid) == pytest.approx(
            outcome_zero_probability(oracle, grid), abs=1e-10
        )
    # the same input through a threshold round: beta = sqrt(w_bound) = 1e-3
    spec = ThresholdSpec(side=POSITIVE, lam=0.5, w_bound=1e-6, w_tilde_bound=1.0)
    ctx = decision_context(parent, x, spec)
    assert ctx.p_exact == pytest.approx(
        outcome_zero_probability(oracle, ctx.pe_grid), abs=1e-10
    )


def test_round_refuses_c_of_another_program_input_or_tolerances():
    program = normalize(or_span_program(3))
    x = (1, 0, 0)
    cross = row_space_cross(program, x, subspace_blocks(program, x)[0])
    spec = ThresholdSpec(side=POSITIVE, lam=0.5, w_bound=1.0, w_tilde_bound=4.0)
    assert _round_context(program, x, spec, DEFAULT_TOLS, cross) == decision_context(
        program, x, spec
    )
    twin = normalize(or_span_program(3))  # equal data, another program
    looser = Tolerances(rank_rtol=1e-9)
    for other, other_x, tols in ((twin, x, DEFAULT_TOLS), (program, (1, 1, 0), DEFAULT_TOLS),
                                 (program, x, looser)):
        with pytest.raises(ValueError, match="another program, input or tolerances"):
            _round_context(other, other_x, spec, tols, cross)


def patch_everywhere(monkeypatch, name, replacement):
    for modname, module in list(sys.modules.items()):
        if modname.startswith("spanforge") and hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


def test_witness_estimate_reads_h_x_once_and_rounds_are_rank_sized(monkeypatch):
    n = 16
    program = normalize(build_st_span_program(n, 0, 1))
    x = graph_input(complete_graph(n, s=0, t=1))
    minimal_witness(program)  # A's own SVD is per program
    blocks_calls, shapes = [], []
    blocks, svd = spanprog.subspace_blocks, np.linalg.svd

    def counting_blocks(*args, **kwargs):
        blocks_calls.append(args[1])
        return blocks(*args, **kwargs)

    def recording_svd(mat, *args, **kwargs):
        shapes.append(np.shape(mat))
        return svd(mat, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a round built the scaled program")

    patch_everywhere(monkeypatch, "subspace_blocks", counting_blocks)
    patch_everywhere(monkeypatch, "scale", forbidden)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    result = witness_estimate(program, x, 0.25, POSITIVE, np.random.default_rng(1),
                              QueryLedger(), w_tilde_bound=2.0 * n)
    assert result.rounds > 1
    assert len(blocks_calls) == 1
    assert not any(shape[-1] == program.dim_h + 2 for shape in shapes)
    # A(x)'s SVD is the only one wider than rank(A) + 2
    assert sum(max(shape) > program.dim_v + 1 for shape in shapes) == 1


def test_equal_subspaces_are_decided_once_per_store(monkeypatch):
    # every H_{j,1} of the st program is eye(2) and every H_{j,0} is empty
    program = build_st_span_program(8, 0, 7)
    split = spanprog.column_space_split
    calls = []

    def counting(mat, *args, **kwargs):
        calls.append(np.shape(mat))
        return split(mat, *args, **kwargs)

    monkeypatch.setattr(spanprog, "column_space_split", counting)
    rng = np.random.default_rng(8)
    for derived in (program, normalize(program)):  # one store, shared
        for _ in range(5):
            witness_report(derived, graph_input(random_graph(rng, 8, 0.4)))
    assert calls == [(2, 2)]
