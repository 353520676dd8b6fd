"""Threshold rounds read the scaled program from the parent's factors:
differential tests of scaled_measure_U/scaled_measure_Uprime against
measure_U/measure_Uprime of scale(program, beta), on both sides of the
choice between the closed form and the scaled_factors route, the calls one
estimate makes, and the guard against a C(x) of another program or input."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from spanforge import algorithms, spanprog, spectral
from spanforge._linalg import DEFAULT_TOLS, Tolerances
from spanforge.algorithms import (
    POSITIVE,
    ThresholdSpec,
    decision_context,
    kappa_estimate,
    witness_estimate,
)
from spanforge.generators import all_inputs, random_graph, random_span_program
from spanforge.oracle import build_Uprime, scale
from spanforge.qsim import QueryLedger, outcome_zero_probability
from spanforge.resistance import (
    EFFECTIVE_GAP,
    REAL_GAP,
    build_st_span_program,
    complete_graph,
    estimate_resistance,
    graph,
    graph_input,
    lambda2,
    lower_bound_family,
)
from spanforge.spanprog import (
    Subspaces,
    input_factors,
    min_error_positive,
    minimal_witness,
    normalize,
    or_span_program,
    scaled_factors,
    subspace_blocks,
    witness_report,
)
from spanforge.spectral import (
    measure_U,
    measure_Uprime,
    row_space_cross,
    scaled_measure_U,
    scaled_measure_Uprime,
)

from test_input_route import degenerate_programs

BETAS = (1e-3, 0.37, 1.0, 4.0, 1e3)
# rounds are also compared at the ends: at 1e-6 beta Sigma falls under the
# rank cut against c = sqrt(beta^2 + N)/beta on most programs, so the round
# takes the scaled_factors route, and at 1e6 it keeps the closed form.  Kept
# out of BETAS, whose ranks the nearly feasible program's test pins.
ROUND_BETAS = (1e-6,) + BETAS + (1e6,)
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
    cross = row_space_cross(input_factors(program, x))
    refused = 0
    for beta in ROUND_BETAS:
        scaled_cross = row_space_cross(input_factors(scale(program, beta), x))
        pairs = ((measure_U, scaled_measure_U), (measure_Uprime, scaled_measure_Uprime))
        for direct, derived in pairs:
            want = outcome_zero_probabilities(direct, scaled_cross)
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
    return dataclasses.replace(program, a=a_mat, tau=tau)


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
    # where rho's direction is kept, w0_beta is no longer a unit vector
    # (||w0_beta||^2 is 1.11, 1.48 or 1.94 at beta = 0.37, 1 or 4): both
    # routes refuse the round at SpectralMeasure's unit-state check
    per_input = 2 * sum(rank == fact.sigma.size + 2 for rank in ranks)
    for x in all_inputs(program):
        assert refused_rounds(program, x) == per_input


def test_measure_uprime_reads_cosines_within_rounding_of_one_as_one():
    # three principal-angle cosines lie within 1e-15 of 1 with rounding
    # coefficients near 1e-11; divided by 1 - sigma^2 they once summed past 1
    parent = normalize(random_span_program(np.random.default_rng([7, 3])))
    program, x = scale(parent, 1e-3), (1, 1, 0)
    oracle = build_Uprime(program, x).measure(np.asarray(minimal_witness(program).w0))
    fast = measure_Uprime(row_space_cross(input_factors(program, x)))
    for grid in GRIDS:
        assert outcome_zero_probability(fast, grid) == pytest.approx(
            outcome_zero_probability(oracle, grid), abs=1e-10
        )
    # the same input through a threshold round: beta = sqrt(w_bound) = 1e-3
    spec = ThresholdSpec(side=POSITIVE, lam=0.5, w_bound=1e-6, w_tilde_bound=1.0)
    ctx = decision_context(row_space_cross(input_factors(parent, x)), spec)
    assert ctx.p_exact == pytest.approx(
        outcome_zero_probability(oracle, ctx.pe_grid), abs=1e-10
    )


def test_round_on_a_cross_matches_decision_context():
    # a round takes C(x) alone, so it reads the program, x and Tolerances
    # that C(x) was built for
    program = normalize(or_span_program(3))
    x = (1, 0, 0)
    cross = row_space_cross(input_factors(program, x))
    spec = ThresholdSpec(side=POSITIVE, lam=0.5, w_bound=1.0, w_tilde_bound=4.0)
    assert decision_context(cross, spec) == decision_context(
        row_space_cross(input_factors(program, x)), spec
    )


def patch_everywhere(monkeypatch, name, replacement):
    for modname, module in list(sys.modules.items()):
        if modname.startswith("spanforge") and hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


def test_witness_estimate_reads_h_x_once_and_rounds_are_rank_sized(monkeypatch):
    n = 16
    program = normalize(build_st_span_program(n, 0, 1))
    x = graph_input(complete_graph(n, s=0, t=1))
    minimal_witness(program)  # A's own SVD is per program
    walks, shapes = [], []
    walk, svd = spanprog._walk, np.linalg.svd

    def counting_walk(program, x, tols, side):
        walks.append(side)
        return walk(program, x, tols, side)

    def recording_svd(mat, *args, **kwargs):
        shapes.append(np.shape(mat))
        return svd(mat, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a round built the scaled program")

    monkeypatch.setattr(spanprog, "_walk", counting_walk)
    patch_everywhere(monkeypatch, "scale", forbidden)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    result = witness_estimate(program, x, 0.25, POSITIVE, np.random.default_rng(1),
                              QueryLedger(), w_tilde_bound=2.0 * n)
    assert result.rounds > 1
    assert walks == [0]  # Q_H once, and no Q_perp
    assert not any(shape[-1] == program.dim_h + 2 for shape in shapes)
    # A(x) is read through its Gram, so no SVD is wider than rank(A) + 2
    assert not any(max(shape) > program.dim_v + 1 for shape in shapes)


def test_resistance_estimates_factor_a_once_and_walk_h_x_once(monkeypatch):
    # A(x) is narrower than A here, so an SVD shaped like A is an SVD of A;
    # the st program factors A by one eigh of its Gram A A^T and takes none
    n = 16
    g = lower_bound_family(n, 1, i=1, j=n // 2)
    x = graph_input(g)
    walks, shapes, grams = [], [], []
    walk, svd, eigh = spanprog._walk, np.linalg.svd, np.linalg.eigh

    def counting_walk(program, x, tols, side):
        walks.append(side)
        return walk(program, x, tols, side)

    def recording_svd(mat, *args, **kwargs):
        shapes.append(np.shape(mat))
        return svd(mat, *args, **kwargs)

    def recording_eigh(mat, *args, **kwargs):
        grams.append(np.array(mat))
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(spanprog, "_walk", counting_walk)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    program = build_st_span_program(n, g.s, g.t)
    a_shape = (program.dim_v, program.dim_h)
    a_gram = program.a.gram()

    def eighs_of_a():
        return sum(np.array_equal(gram, a_gram) for gram in grams)

    for method, mu in ((EFFECTIVE_GAP, None), (REAL_GAP, lambda2(g))):
        walks.clear()
        shapes.clear()
        grams.clear()
        estimate_resistance(g, 0.25, method, np.random.default_rng(1), QueryLedger(), mu=mu)
        assert walks == [0]
        assert shapes.count(a_shape) == 0 and eighs_of_a() == 1
    # a copy by dataclasses.replace factors its own A, by one eigh
    walks.clear()
    shapes.clear()
    grams.clear()
    kappa_estimate(dataclasses.replace(program), x, 0.25, math.sqrt(n / lambda2(g)),
                   POSITIVE, np.random.default_rng(1), QueryLedger())
    assert walks == [0]
    assert shapes.count(a_shape) == 0 and eighs_of_a() == 1


def test_equal_subspaces_are_decided_once_per_store(monkeypatch):
    # every H_{j,1} of the st program is eye(2) and every H_{j,0} is empty:
    # neither needs an SVD
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
            witness_report(input_factors(derived, graph_input(random_graph(rng, 8, 0.4))))
    assert calls == []
    # a general matrix given at every position, as one object and as equal
    # copies, takes one SVD per distinct content and Tolerances
    general = np.array([[1.0, 1.0], [1.0, -1.0]])
    for mats in ({1: general}, None):
        calls.clear()
        if mats is None:
            subspaces = {(j, 1): general.copy() for j in range(program.n)}
            subspaces[(0, 1)] = 2.0 * general
        else:
            subspaces = Subspaces.per_symbol(program.n, mats)
        twin = dataclasses.replace(program, subspaces=subspaces)
        for _ in range(3):
            for tols in (DEFAULT_TOLS, Tolerances(rank_rtol=1e-9)):
                witness_report(input_factors(twin, graph_input(complete_graph(8)), tols))
        distinct = 1 if mats is not None else 2
        assert calls == [(2, 2)] * (2 * distinct)


def count_scaled_factors(monkeypatch):
    """Count the calls of scaled_factors made by the rounds."""
    calls = []
    real = spanprog.scaled_factors

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    patch_everywhere(monkeypatch, "scaled_factors", counting)
    return calls


def test_closed_form_is_taken_only_within_its_margins(monkeypatch):
    calls = count_scaled_factors(monkeypatch)
    program = normalize(random_span_program(np.random.default_rng([8, 3])))
    fact = program.factorization()
    assert fact.sigma[-1] < 100.0  # so beta = 1e-6 cuts beta sigma_min against c = 1e6
    x = next(x for x in all_inputs(program) if input_factors(program, x).positive)
    cross = row_space_cross(input_factors(program, x))
    for beta in ROUND_BETAS:
        scaled_measure_U(cross, beta)
        scaled_measure_Uprime(cross, beta)
    assert calls == [1e-6, 1e-6]
    # tau off col(A) by 1e-9 relative: every round keeps the scaled_factors route
    calls.clear()
    program = nearly_feasible_program()
    cross = row_space_cross(input_factors(program, x))
    assert cross.target.y_hat is None
    for beta in ROUND_BETAS:
        outcome_zero_probabilities(scaled_measure_Uprime, cross, beta)
    assert calls == list(ROUND_BETAS)
    # sigma_max(A) = sqrt(3) 1e6: at beta = 1e6, c = sqrt(beta^2 + N)/beta is
    # cut against beta sigma_max, so both routes refuse the rounds there
    calls.clear()
    program = normalize(dataclasses.replace(or_span_program(3), a=np.full((1, 3), 1e6)))
    for x in all_inputs(program):
        assert refused_rounds(program, x) == 2
    assert set(calls) == {1e6}


def estimate_betas(monkeypatch, program, x, n):
    """The betas of the rounds of one effective-gap witness_estimate."""
    betas = []
    real = algorithms._scaled_parameters

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        betas.append(out[0])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "_scaled_parameters", recording)
        witness_estimate(program, x, 0.25, POSITIVE, np.random.default_rng(1), QueryLedger(),
                         w_tilde_bound=2.0 * n)
    assert len(betas) > 1
    return betas


def path_graph(n):
    return graph(n, [(u, u + 1) for u in range(n - 1)], s=0, t=n - 1)


ESTIMATE_GRAPHS = {
    "K8": lambda: complete_graph(8, s=0, t=1),
    "K16": lambda: complete_graph(16, s=0, t=1),
    "lower-bound-16": lambda: lower_bound_family(16, 1, i=1, j=8),
    "path-32": lambda: path_graph(32),
    "path-200": lambda: path_graph(200),
}


def forbidden_scaled_factors(*args, **kwargs):
    raise AssertionError("a round took the scaled_factors route")


@pytest.mark.parametrize("name", sorted(ESTIMATE_GRAPHS))
def test_rounds_match_over_the_betas_of_an_estimate(monkeypatch, name):
    g = ESTIMATE_GRAPHS[name]()
    program = normalize(build_st_span_program(g.n, g.s, g.t))
    x = graph_input(g)
    betas = estimate_betas(monkeypatch, program, x, g.n)
    cross = row_space_cross(input_factors(program, x))
    for beta in betas:
        if g.n <= 32:
            scaled_cross = row_space_cross(input_factors(scale(program, beta), x))
            want = [outcome_zero_probabilities(m, scaled_cross)
                    for m in (measure_U, measure_Uprime)]
        else:  # scale() would form a dense 201 x 39,802 A_beta
            factors = scaled_factors(program, beta)
            pair = (factors.witness, factors.cross(cross.factor))
            want = [outcome_zero_probabilities(spectral._measure_u, *pair),
                    outcome_zero_probabilities(spectral._measure_uprime, *pair, DEFAULT_TOLS)]
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "scaled_factors", forbidden_scaled_factors)
            got = [outcome_zero_probabilities(m, cross, beta)
                   for m in (scaled_measure_U, scaled_measure_Uprime)]
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-12


def guarded_estimates():
    """(estimate, queries) of two effective-gap resistance estimates and of
    the or-demo's counting estimate on OR(8)."""
    out = []
    for n in (8, 16):
        g = lower_bound_family(n, 1, i=1, j=n // 2)
        report = estimate_resistance(g, 0.25, EFFECTIVE_GAP, np.random.default_rng(1),
                                     QueryLedger())
        out.append((report.estimate, report.queries))
    program = normalize(or_span_program(8))
    result = witness_estimate(program, (0, 1, 0, 0, 1, 1, 0, 0), 0.1, POSITIVE,
                              np.random.default_rng([1, 2]), QueryLedger(), w_tilde_bound=1.0)
    out.append((result.value, result.queries))
    return out


def test_a_round_takes_one_svd_and_no_scaled_factors(monkeypatch):
    want = guarded_estimates()
    svd, round_context = np.linalg.svd, algorithms.decision_context
    calls, per_round = [], []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    def counting_round(*args, **kwargs):
        before = len(calls)
        out = round_context(*args, **kwargs)
        per_round.append(len(calls) - before)
        return out

    patch_everywhere(monkeypatch, "scaled_factors", forbidden_scaled_factors)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(algorithms, "decision_context", counting_round)
    assert guarded_estimates() == want
    assert len(per_round) > 3 and per_round == [1] * len(per_round)
    # beyond the rounds: the SVDs of OR(8)'s A and A(x); no store takes one,
    # as eye(2), [[1]] and the empty matrices are decided without an SVD
    assert len(calls) - len(per_round) == 2


class CountingGenerator(np.random.Generator):
    """A Generator that counts its choice calls; its stream is
    default_rng's for the same seed."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return super().choice(*args, **kwargs)


@pytest.mark.parametrize("method, n", [(EFFECTIVE_GAP, 8), (EFFECTIVE_GAP, 16),
                                       (REAL_GAP, 8), (REAL_GAP, 16), (REAL_GAP, 32)])
def test_an_estimate_takes_one_svd_per_round_and_no_split_or_choice(monkeypatch, method, n):
    # the fixed cost of a round or an st set-up must not come back unseen:
    # no store split (eye(2) and the empty matrix need none), no
    # Generator.choice (the sampler draws by inverse CDF), and one SVD per
    # threshold round; a real-gap estimate reads its one measure once
    g = random_graph(np.random.default_rng([n, 5]), n, 0.5)
    assert g.connected_st()
    mu = lambda2(g) if method == REAL_GAP else None
    want = estimate_resistance(g, 0.2, method, np.random.default_rng(1), QueryLedger(), mu=mu)
    svd, split = np.linalg.svd, spanprog.column_space_split
    round_context = algorithms.decision_context
    svds, splits, per_round = [], [], []

    def counting_svd(mat, *args, **kwargs):
        svds.append(np.array(mat))
        return svd(mat, *args, **kwargs)

    def counting_split(*args, **kwargs):
        splits.append(1)
        return split(*args, **kwargs)

    def counting_round(*args, **kwargs):
        before = len(svds)
        out = round_context(*args, **kwargs)
        per_round.append(len(svds) - before)
        return out

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    patch_everywhere(monkeypatch, "column_space_split", counting_split)
    monkeypatch.setattr(algorithms, "decision_context", counting_round)
    rng = CountingGenerator(1)
    got = estimate_resistance(g, 0.2, method, rng, QueryLedger(), mu=mu)
    assert (got.estimate, got.queries) == (want.estimate, want.queries)
    assert splits == [] and rng.choices == 0
    assert not any(mat.shape == (2, 2) and np.array_equal(mat, np.eye(2)) for mat in svds)
    if method == EFFECTIVE_GAP:
        assert len(per_round) > 3 and per_round == [1] * len(per_round)
        assert len(svds) == len(per_round)
    else:
        assert per_round == [] and len(svds) == 1


def test_q_perp_is_walked_on_first_read_and_keeps_the_witness_bits(monkeypatch):
    # (that no estimate walks Q_perp, the walk-once tests above check)
    walk = spanprog._walk
    sides = []

    def counting_walk(program, x, tols, side):
        sides.append(side)
        return walk(program, x, tols, side)

    monkeypatch.setattr(spanprog, "_walk", counting_walk)
    # Q_perp is walked on its first read only, and gives the min-error
    # positive witness the bits that an eagerly walked Q_perp gives
    negatives = 0
    for seed in range(10):
        program = random_span_program(np.random.default_rng([21, seed]))
        for x in all_inputs(program):
            sides.clear()
            f = input_factors(program, x)
            assert sides == [0] and "q_perp" not in vars(f)
            perp = f.q_perp
            assert f.q_perp is perp and sides == [0, 1]
            eager = subspace_blocks(program, x)[1]
            assert len(perp) == len(eager)
            for (coords, basis), (coords_e, basis_e) in zip(perp, eager):
                assert coords.tobytes() == coords_e.tobytes()
                assert (basis is None and basis_e is None) or basis.tobytes() == basis_e.tobytes()
            if not f.positive:  # the report's witness_vec is the min-error positive one
                negatives += 1
                report = witness_report(input_factors(program, x))
                vec, e_plus, wt_plus = min_error_positive(f)
                assert vec.tobytes() == report.witness_vec.tobytes()
                assert (e_plus, wt_plus) == (report.e_plus, report.w_tilde_plus)
    assert negatives > 5
