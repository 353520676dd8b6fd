"""Acceptance gate: the twelve package-level criteria, each at its stated
tolerance.  Criterion 11's +1-eigenspace containment is a known honest
failure; its assertion message carries the analysis (see also the repository
notes in the README).
"""

import math
import time

import numpy as np

from spanforge._linalg import DEFAULT_TOLS, singular_values
from spanforge.algorithms import POSITIVE, witness_estimate
from spanforge.generators import (
    all_inputs,
    random_graph,
    random_projector_pair,
    random_span_program,
)
from spanforge.qsim import (
    QueryLedger,
    amp_gap_grid_size,
    amplitude_gap_success_probability,
)
from spanforge.resistance import (
    build_st_span_program,
    complete_graph,
    estimate_resistance,
    exact_resistance,
    graph,
    graph_input,
    lambda2,
    lower_bound_family,
)
from spanforge.oracle import (
    build_U,
    build_Uprime,
    decompose_orthogonal,
    discriminant,
    intersection_dims,
    scale,
    subspace_projector,
    verify_reflection_factorization,
)
from spanforge.spanprog import (
    input_factors,
    minimal_witness,
    normalize,
    or_span_program,
    positive_witness,
    witness_report,
)
from spanforge.spectral import kappa_bound

from graph_atlas import connected_graphs_upto

ENSEMBLE_SEED = 20240
ENSEMBLE_SIZE = 200
THETA_GRID = [0.05 * k for k in range(1, 31)]


def ensemble_program(index):
    return random_span_program(
        np.random.default_rng([ENSEMBLE_SEED, index]),
        max_dim_h=8, max_dim_v=6, max_n=4, max_q=3,
    )


def cluster_overlaps(dec, state):
    """(theta, overlap) per cluster; enables O(1) small-phase sums."""
    out = []
    for cl in dec.clusters:
        comp = cl.basis.T @ state
        out.append((cl.theta, float(comp @ comp)))
    return out


def small_phase_mass(overlaps, theta_max):
    return sum(w for theta, w in overlaps if theta <= theta_max)


def test_criterion_01_duality_products():
    """200 random programs, every input: w- e+ = 1 and w+ e- = 1 (rel 1e-8),
    in under 30 seconds."""
    start = time.perf_counter()
    for index in range(ENSEMBLE_SIZE):
        program = ensemble_program(index)
        for x in all_inputs(program):
            rep = witness_report(input_factors(program, x))
            assert math.isinf(rep.w_plus) != math.isinf(rep.w_minus)
            if math.isfinite(rep.w_minus):
                assert abs(rep.w_minus * rep.e_plus - 1.0) <= 1e-8 * rep.w_minus
            else:
                assert abs(rep.w_plus * rep.e_minus - 1.0) <= 1e-8 * rep.w_plus
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"duality suite took {elapsed:.1f}s (budget 30s)"


def test_criterion_02_and_03_fixed_space_and_effective_gap():
    """Same ensemble, normalized: ||Pi_0 w0||^2 = 1/w- and ||Pibar_0 w0||^2 =
    1/w+ within 1e-8 (criterion 2); the small-phase inequalities hold on the
    Theta grid with slack >= -1e-8 (criterion 3)."""
    for index in range(ENSEMBLE_SIZE):
        program = normalize(ensemble_program(index))
        w0 = np.asarray(minimal_witness(program).w0)
        for x in all_inputs(program):
            rep = witness_report(input_factors(program, x))
            inv_wm = 0.0 if math.isinf(rep.w_minus) else 1.0 / rep.w_minus
            inv_wp = 0.0 if math.isinf(rep.w_plus) else 1.0 / rep.w_plus
            over_u = cluster_overlaps(build_U(program, x), w0)
            over_up = cluster_overlaps(build_Uprime(program, x), w0)
            assert abs(small_phase_mass(over_u, 0.0) - inv_wm) <= 1e-8
            assert abs(small_phase_mass(over_up, 0.0) - inv_wp) <= 1e-8
            for theta in THETA_GRID:
                lhs = small_phase_mass(over_u, theta)
                assert lhs <= theta**2 / 4.0 * rep.w_tilde_plus + inv_wm + 1e-8
                lhs = small_phase_mass(over_up, theta)
                assert lhs <= theta**2 / 4.0 * rep.w_tilde_minus + inv_wp + 1e-8


def test_criterion_04_szegedy_correspondence():
    """Phases of reflection products match {+/- 2 arccos sigma_j(D)} within
    1e-8 and the +/-1-eigenspace dimensions match the four intersections."""
    for trial in range(40):
        rng = np.random.default_rng([ENSEMBLE_SEED + 1, trial])
        dim = int(rng.integers(3, 10))
        forced = trial % 3 == 0
        pi_a, pi_b = random_projector_pair(
            rng, dim,
            shared=int(rng.integers(1, 3)) if forced else 0,
            a_only=int(rng.integers(0, 2)) if forced else 0,
        )
        u_mat = (2 * pi_a - np.eye(dim)) @ (2 * pi_b - np.eye(dim))
        dec = decompose_orthogonal(u_mat)
        report = discriminant(pi_a, pi_b)
        expected = report.expected_rotation_phases()
        actual = sorted(
            cl.theta
            for cl in dec.clusters
            if cl.theta not in (0.0, math.pi)
            for _ in range(cl.dim // 2)
        )
        assert len(expected) == len(actual)
        if expected:
            np.testing.assert_allclose(actual, expected, atol=1e-8)
        dims_map = intersection_dims(pi_a, pi_b)
        plus_dim = sum(cl.dim for cl in dec.clusters if cl.theta == 0.0)
        minus_dim = sum(cl.dim for cl in dec.clusters if cl.theta == math.pi)
        assert plus_dim == dims_map["a_and_b"] + dims_map["aperp_and_bperp"]
        assert minus_dim == dims_map["a_and_bperp"] + dims_map["aperp_and_b"]


def test_criterion_05_phase_gap_bounds():
    """Delta(U), Delta(U') >= 2 sigma_min(A(x)) / sigma_max(A) - 1e-8 on 100
    random instances and on every connected graph with n <= 7."""
    checked = 0
    index = 0
    while checked < 100:
        rng = np.random.default_rng([ENSEMBLE_SEED + 2, index])
        index += 1
        program = random_span_program(rng)
        for x in all_inputs(program):
            if checked >= 100:
                break
            try:
                bound = kappa_bound(input_factors(program, x))
            except ValueError:
                continue
            checked += 1
            assert build_U(program, x).phase_gap() >= bound - 1e-8
            _, w_plus = positive_witness(input_factors(program, x))
            if math.isfinite(w_plus):
                assert build_Uprime(program, x).phase_gap() >= bound - 1e-8

    for g in connected_graphs_upto(7):
        program = build_st_span_program(g.n, g.s, g.t)
        x = graph_input(g)
        bound = kappa_bound(input_factors(program, x))
        assert build_U(program, x).phase_gap() >= bound - 1e-8
        assert build_Uprime(program, x).phase_gap() >= bound - 1e-8


def test_criterion_06_scaling_theorem():
    """Scaling equalities to relative 1e-8 and both min-error inequalities,
    for beta in {1/4, 1, 4} on 50 random programs."""
    for index in range(50):
        program = random_span_program(np.random.default_rng([ENSEMBLE_SEED + 3, index]))
        n_plus = minimal_witness(program).n_plus
        w0 = np.asarray(minimal_witness(program).w0)
        for beta in (0.25, 1.0, 4.0):
            scaled = scale(program, beta)
            mws = minimal_witness(scaled)
            assert abs(mws.n_plus - 1.0) <= 1e-8
            expect_w0 = np.zeros(program.dim_h + 2)
            expect_w0[: program.dim_h] = beta / (beta**2 + n_plus) * w0
            expect_w0[program.dim_h] = n_plus / (beta**2 + n_plus)
            expect_w0[program.dim_h + 1] = beta / math.sqrt(beta**2 + n_plus)
            np.testing.assert_allclose(np.asarray(mws.w0), expect_w0, atol=1e-8)
            for x in all_inputs(program):
                rep = witness_report(input_factors(program, x))
                rep_s = witness_report(input_factors(scaled, x))
                if math.isfinite(rep.w_minus):
                    expect = beta**2 * rep.w_minus + 1.0
                    assert abs(rep_s.w_minus - expect) <= 1e-8 * expect
                    assert rep_s.w_tilde_plus <= rep.w_tilde_plus / beta**2 + 2.0 + 1e-8
                else:
                    expect = rep.w_plus / beta**2 + beta**2 / (n_plus + beta**2)
                    assert abs(rep_s.w_plus - expect) <= 1e-8 * expect
                    assert rep_s.w_tilde_minus <= beta**2 * rep.w_tilde_minus + 2.0 + 1e-8


def test_criterion_07_resistance_identity():
    """w+ = R/2 within 1e-8 on all connected graphs n <= 7 and 100 random
    n <= 8; K_n gives N+ = 1/n within 1e-10; sigma_max(A) = sqrt(2n) and
    sigma_min(A(x)) = sqrt(2 lambda2) within 1e-8."""
    for g in connected_graphs_upto(7):
        program = build_st_span_program(g.n, g.s, g.t)
        x = graph_input(g)
        _, w_plus = positive_witness(input_factors(program, x))
        res = exact_resistance(g)
        assert abs(w_plus - res / 2.0) <= 1e-8 * max(1.0, res)
        ax = np.asarray(program.a_mat) @ subspace_projector(program, x)
        top = singular_values(program.a_mat)[0]
        assert abs(top - math.sqrt(2.0 * g.n)) <= 1e-8
        sigmas = singular_values(ax)
        smallest = sigmas[sigmas > DEFAULT_TOLS.rank_rtol * top][-1]
        assert abs(smallest - math.sqrt(2.0 * lambda2(g))) <= 1e-8

    for trial in range(100):
        rng = np.random.default_rng([ENSEMBLE_SEED + 4, trial])
        g = random_graph(rng, int(rng.integers(3, 9)), edge_prob=0.5,
                         require_connected=False)
        program = build_st_span_program(g.n, g.s, g.t)
        _, w_plus = positive_witness(input_factors(program, graph_input(g)))
        res = exact_resistance(g)
        if math.isinf(res):
            assert math.isinf(w_plus)
        else:
            assert abs(w_plus - res / 2.0) <= 1e-8 * max(1.0, res)

    for n in range(2, 9):
        program = build_st_span_program(n, 0, n - 1)
        assert abs(minimal_witness(program).n_plus - 1.0 / n) <= 1e-10


def test_criterion_08_end_to_end_estimation():
    """K4, the 3-vertex path, and 20 random connected graphs (n <= 7):
    estimate_resistance at eps = 0.2 lands within 20% in at least 66 of 100
    seeded trials per graph, for both methods; under 10 minutes total."""
    start = time.perf_counter()
    graphs = [complete_graph(4), graph(3, [(0, 1), (1, 2)], 0, 2)]
    for trial in range(20):
        rng = np.random.default_rng([ENSEMBLE_SEED + 5, trial])
        graphs.append(random_graph(rng, int(rng.integers(3, 8)), edge_prob=0.55))
    for g_index, g in enumerate(graphs):
        exact = exact_resistance(g)
        mu = lambda2(g)
        for method in ("effective-gap", "real-gap"):
            hits = 0
            for seed in range(100):
                rng = np.random.default_rng([ENSEMBLE_SEED + 6, g_index, seed])
                report = estimate_resistance(
                    g, 0.2, method, rng, QueryLedger(),
                    mu=mu if method == "real-gap" else None,
                )
                hits += abs(report.estimate - exact) <= 0.2 * exact
            assert hits >= 66, f"graph {g_index} ({method}): {hits}/100 within 20%"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"end-to-end suite took {elapsed:.1f}s (budget 600s)"


def test_criterion_09_lower_bound_family():
    """Exact resistances 1 and 3/4 within 1e-10 for n in {6, 8, 10}; eps = 0.1
    estimation separates the two variants with empirical success >= 2/3."""
    for n in (6, 8, 10):
        assert abs(exact_resistance(lower_bound_family(n, 0)) - 1.0) <= 1e-10
        g1 = lower_bound_family(n, 1, 1, n // 2)
        assert abs(exact_resistance(g1) - 0.75) <= 1e-10

    midpoint = (1.0 + 0.75) / 2.0
    trials = 50
    for variant, g in ((0, lower_bound_family(6, 0)), (1, lower_bound_family(6, 1, 2, 4))):
        correct = 0
        for seed in range(trials):
            rng = np.random.default_rng([ENSEMBLE_SEED + 7, variant, seed])
            report = estimate_resistance(g, 0.1, "effective-gap", rng, QueryLedger())
            classified = 0 if report.estimate >= midpoint else 1
            correct += classified == variant
        assert correct >= math.ceil(2 * trials / 3), (
            f"variant {variant}: separated {correct}/{trials}"
        )


def test_criterion_10_amplitude_gap_primitive():
    """(p0, p1) = (0.5, 0.1): the exact decision-success probability (by
    distribution summation, no sampling) is >= 3/4 at the advertised grid."""
    p0, p1 = 0.5, 0.1
    assert amp_gap_grid_size(p0, p1) == math.ceil(4 * math.pi * math.sqrt(p0 + p1) / (p0 - p1))
    assert amplitude_gap_success_probability(p0, p0, p1, high=True) >= 0.75
    assert amplitude_gap_success_probability(p1, p0, p1, high=False) >= 0.75


def test_criterion_11_reflection_factorization():
    """M_Y isometry and M_Z^T M_Y = A/(2 sqrt(n-1)) within 1e-12, and the
    eigenspace structure of the walk W = (2 Pi_Z - I)(2 Pi_Y - I), for n in
    {3, 4, 5}.

    M_Y (ker A) lies in the -1-eigenspace of W.  M_Y (ker A)^perp is not fixed
    by W: a fixed y in Y would lie in Z, so ||M_Z^T y|| = ||y||, but by the
    factorization ||M_Z^T M_Y v|| <= sqrt(n/(2(n-1))) ||v|| < ||v|| for n >= 3.
    W instead rotates that image by theta_n = 2 arccos sqrt(n/(2(n-1))):
    (W + W^T) M_Y v = 2 cos(theta_n) M_Y v on all of (ker A)^perp, so the image
    lies in the eigenspaces at phases +-theta_n.  theta_n <= pi/2 keeps those
    phases at least pi/2 away from the -1-eigenspace.
    """
    for n in (3, 4, 5):
        check = verify_reflection_factorization(n)
        assert check.my_isometry_defect <= 1e-12
        assert check.factorization_defect <= 1e-12
        assert check.minus_one_defect <= 1e-10
        assert check.rotation_identity_defect <= 1e-10, (
            f"n={n}: (W + W^T) y = 2 cos(theta_n) y fails on the (ker A)^perp "
            f"image with residual {check.rotation_identity_defect:.3e}"
        )
        assert check.predicted_rotation_phase <= math.pi / 2


def test_criterion_12_query_count_monotonicity():
    """Halving eps in witness_estimate on a fixed OR instance strictly
    increases the query total across 5 halvings."""
    program = normalize(or_span_program(4))
    x = (1, 1, 0, 0)
    totals = []
    eps = 0.4
    for _ in range(6):
        rng = np.random.default_rng([ENSEMBLE_SEED + 8, 0])
        result = witness_estimate(program, x, eps, POSITIVE, rng, QueryLedger(),
                                  w_tilde_bound=1.0)
        totals.append(result.queries)
        eps /= 2.0
    assert all(a < b for a, b in zip(totals, totals[1:])), totals
