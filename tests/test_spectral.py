"""Phase decompositions, discriminants, and the spectral lemmas.

The library's dense route decomposes through numpy's complex
eigendecomposition.  Its oracles are matrices planted with known phases and
scipy's real Schur form (tests/oracles.py), and its principal-angle measures
are compared against that route.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cluster_projector,
    complex_eigenpairs,
    fixed_projector,
    minus_one_projector,
    schur_phase_clusters,
    signed_phases,
    small_phase_projector,
)
from spanforge.generators import (
    all_inputs,
    random_graph,
    random_projector_pair,
    random_span_program,
)
from spanforge.oracle import (
    build_U,
    build_Uprime,
    decompose_orthogonal,
    decompose_orthogonals,
    discriminant,
    intersection_dims,
    kernel_projector,
    scale,
)
from spanforge.qsim import (
    QueryLedger,
    amplitude_estimation,
    outcome_zero_probability,
    pe_grid_size,
    pe_queries,
)
from spanforge.resistance import build_st_span_program, graph_input
from spanforge.spanprog import (
    input_factors,
    minimal_witness,
    negative_witness,
    normalize,
    or_span_program,
    positive_witness,
    witness_report,
)
from spanforge.spectral import SpectralMeasure, kappa_bound, measure_U, measure_Uprime
from spanforge.spectral import row_space_cross
from spanforge.verify import THETA_GRID, _small_phase_weights


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def eig_phases_oracle(u_mat):
    """Sorted eigenphases from the complex eigendecomposition."""
    vals = np.linalg.eigvals(u_mat)
    return np.sort(np.angle(vals))


def test_decompose_simple_rotation():
    dec = decompose_orthogonal(rotation(0.3))
    assert dec.phase_gap() == pytest.approx(0.3, abs=1e-12)
    assert signed_phases(dec) == pytest.approx([-0.3, 0.3])


def test_decompose_identity_has_no_gap():
    dec = decompose_orthogonal(np.eye(4))
    assert math.isinf(dec.phase_gap())


def test_decompose_matches_eig_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        dim = int(rng.integers(2, 10))
        pi_a, pi_b = random_projector_pair(rng, dim)
        u_mat = (2 * pi_a - np.eye(dim)) @ (2 * pi_b - np.eye(dim))
        dec = decompose_orthogonal(u_mat)
        np.testing.assert_allclose(
            np.array(signed_phases(dec)), eig_phases_oracle(u_mat), atol=1e-8
        )
        # projectors resolve the identity
        total = sum(cluster_projector(cl) for cl in dec.clusters)
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
        # each complexified eigenvector is a true eigenvector
        for theta, vec in complex_eigenpairs(dec):
            assert np.linalg.norm(u_mat @ vec - np.exp(1j * theta) * vec) <= 1e-8
        # eigvals is the LAPACK routine decompose_orthogonal calls, so the
        # clusters are also held to the real Schur form's
        oracle = schur_phase_clusters(u_mat)
        assert [cl.theta for cl in dec.clusters] == pytest.approx(
            [theta for theta, _ in oracle], abs=1e-12
        )
        for cl, (_, proj) in zip(dec.clusters, oracle):
            np.testing.assert_allclose(cluster_projector(cl), proj, atol=1e-12)


def planted_orthogonal(phases, rng):
    """Q B Q^T for a random orthogonal Q and B block diagonal: a 1 x 1 block
    +/-1 for a phase 0 or pi, a 2 x 2 rotation for any other phase."""
    dim = sum(1 if theta in (0.0, math.pi) else 2 for theta in phases)
    block, i = np.zeros((dim, dim)), 0
    for theta in phases:
        k = 1 if theta in (0.0, math.pi) else 2
        block[i : i + k, i : i + k] = math.cos(theta) if k == 1 else rotation(theta)
        i += k
    q_mat, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q_mat @ block @ q_mat.T


# phase patterns with their clusters (unsigned phase, dimension), known by
# construction; each is planted once and twice over, so that dim <= 32
PLANTED = {
    "repeated": ([0.4, 0.4, 0.4, 1.9, 1.9, 0.0, 0.0, math.pi],
                 [(0.0, 2), (0.4, 6), (1.9, 4), (math.pi, 1)]),
    "near-repeated": ([1.1, 1.1 + 1e-13, 1.1 + 1e-11, 2.5, 2.5 + 1e-13, 0.0],
                      [(0.0, 1), (1.1, 6), (2.5, 4)]),
    "near-0-and-pi": ([5e-9, 1e-7, math.pi - 5e-9, math.pi - 1e-7, 0.0, math.pi, 0.6],
                      [(0.0, 1), (5e-9, 2), (1e-7, 2), (0.6, 2), (math.pi - 1e-7, 2),
                       (math.pi - 5e-9, 2), (math.pi, 1)]),
    "plus-minus-one": ([0.0] * 5 + [math.pi] * 4 + [0.8, 1e-10, math.pi - 1e-10],
                       [(0.0, 7), (0.8, 2), (math.pi, 6)]),
}


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("pattern", sorted(PLANTED))
def test_decompose_reads_planted_phases_and_orthonormal_invariant_clusters(pattern, copies):
    phases, clusters = PLANTED[pattern]
    rng = np.random.default_rng([copies, len(phases)])
    for _ in range(10):
        u_mat = planted_orthogonal(phases * copies, rng)
        dec = decompose_orthogonal(u_mat)
        assert [cl.theta for cl in dec.clusters] == pytest.approx(
            [theta for theta, _ in clusters], abs=1e-12
        )
        assert [cl.dim for cl in dec.clusters] == [dim * copies for _, dim in clusters]
        stacked = np.hstack([cl.basis for cl in dec.clusters])
        assert np.max(np.abs(stacked.T @ stacked - np.eye(len(u_mat)))) <= 1e-12
        for cl in dec.clusters:
            image = u_mat @ cl.basis
            assert np.linalg.norm(image - cl.basis @ (cl.basis.T @ image), 2) <= 1e-12


def test_complex_eigenpairs_of_a_repeated_rotation_cluster():
    # each adjacent pair of a rotation cluster's columns spans one invariant
    # plane, so every pair read from them is an eigenpair
    rng = np.random.default_rng(5)
    for _ in range(10):
        u_mat = planted_orthogonal([0.7, 0.7, 0.7, 2.2, 2.2, 0.0, math.pi], rng)
        dec = decompose_orthogonal(u_mat)
        assert [cl.dim for cl in dec.clusters] == [1, 6, 4, 1]
        pairs = complex_eigenpairs(dec)
        assert sorted(theta for theta, _ in pairs) == signed_phases(dec)
        for theta, vec in pairs:
            assert np.linalg.norm(u_mat @ vec - np.exp(1j * theta) * vec) <= 1e-12
        vecs = np.column_stack([vec for _, vec in pairs])
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(u_mat)))) <= 1e-12


def test_decompose_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        decompose_orthogonal(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_build_U_is_orthogonal_and_charges_two_queries():
    program = normalize(or_span_program(4))
    dec = build_U(program, (1, 0, 1, 0))
    u_mat = np.asarray(dec.matrix)
    np.testing.assert_allclose(u_mat.T @ u_mat, np.eye(4), atol=1e-10)
    # each circuit call of amplitude estimation is one phase-estimation run
    # of U, charged two queries per application
    pe_grid = pe_grid_size(0.5, 0.1)
    p_zero = outcome_zero_probability(dec.measure(np.full(4, 0.5)), pe_grid)
    ledger = QueryLedger()
    amplitude_estimation(p_zero, 13, 1, np.random.default_rng(0), ledger, pe_queries(pe_grid))
    assert ledger.total == 13 * 2 * (pe_grid - 1)


def test_build_U_fixes_exact_negative_witness():
    program = normalize(or_span_program(4))
    x = (0, 0, 0, 0)
    row, _ = negative_witness(input_factors(program, x))
    dec = build_U(program, x)
    vec = np.asarray(row)
    np.testing.assert_allclose(dec.matrix @ vec, vec, atol=1e-10)


def test_build_U_all_zero_input_reduces_to_reflection_product():
    # H(x) = 0 so the second reflection is -I; oracle: direct matrix product
    program = or_span_program(3)
    dec = build_U(program, (0, 0, 0))
    pi_ker = kernel_projector(program)
    expected = (2 * pi_ker - np.eye(3)) @ (-np.eye(3))
    np.testing.assert_allclose(dec.matrix, expected, atol=1e-12)


def test_build_Uprime_fixes_optimal_positive_witness():
    program = normalize(or_span_program(4))
    x = (1, 1, 0, 0)
    vec, _ = positive_witness(input_factors(program, x))
    dec = build_Uprime(program, x)
    np.testing.assert_allclose(dec.matrix @ np.asarray(vec), np.asarray(vec), atol=1e-10)
    u_mat = np.asarray(dec.matrix)
    np.testing.assert_allclose(u_mat.T @ u_mat, np.eye(4), atol=1e-10)


def test_uprime_factorization_identity_random():
    # U' = U^T (I - 2 w0 w0^T) for normalized programs, on random instances
    for seed in range(6):
        program = normalize(random_span_program(np.random.default_rng([seed, 201])))
        w0 = np.asarray(minimal_witness(program).w0)
        for x in list(all_inputs(program))[:4]:
            u = np.asarray(build_U(program, x).matrix)
            up = np.asarray(build_Uprime(program, x).matrix)
            alt = u.T @ (np.eye(program.dim_h) - 2.0 * np.outer(w0, w0))
            np.testing.assert_allclose(up, alt, atol=1e-10)
            # the pair decomposed by one stacked call is the two built apart, bit for bit
            pair = decompose_orthogonals(np.stack([u, up]))
            for mine, apart in zip(pair, (build_U(program, x), build_Uprime(program, x))):
                assert mine.matrix.tobytes() == apart.matrix.tobytes()
                assert [cl.theta for cl in mine.clusters] == [cl.theta for cl in apart.clusters]
                assert all(a.basis.shape == b.basis.shape and a.basis.tobytes() == b.basis.tobytes()
                           for a, b in zip(mine.clusters, apart.clusters))


def test_small_phase_projector_bounds():
    dec = decompose_orthogonal(rotation(0.3))
    for theta in (math.pi, -0.1, math.nan):
        with pytest.raises(ValueError):
            small_phase_projector(dec, theta)


@pytest.mark.parametrize("shared, a_only", [(0, 0), (1, 1), (2, 0), (2, 2)])
def test_small_phase_projectors_are_the_per_theta_sums(shared, a_only):
    # clusters at 0 and pi of several dimensions, rotation clusters of two
    # planes at one phase (two copies of the product), and grids that hit
    # each cluster's phase exactly, repeat a theta and start at 0: each
    # projector is the sum in cluster order from zeros, and a unit state's
    # weight under it is the one verify reads from the state's overlaps
    rng = np.random.default_rng([29, shared, a_only])
    for dim in (3, 6, 9):
        pi_a, pi_b = random_projector_pair(rng, dim, dim // 2, dim // 2, shared, a_only)
        u_mat = (2 * pi_a - np.eye(dim)) @ (2 * pi_b - np.eye(dim))
        for dec in (decompose_orthogonal(u_mat), decompose_orthogonal(np.kron(np.eye(2), u_mat))):
            phases = [cl.theta for cl in dec.clusters if cl.theta < math.pi]
            state = rng.standard_normal(len(dec.matrix))
            state /= np.linalg.norm(state)
            measure = dec.measure(state)
            for grid in ([0.0] + THETA_GRID, sorted(phases + phases + [0.0, math.pi - 1e-9]),
                         [0.0, 0.0], [1.0]):
                weights = _small_phase_weights(measure.phases, measure.weights, grid)
                for theta, weight in zip(grid, weights, strict=True):
                    summed = np.zeros((len(dec.matrix), len(dec.matrix)))
                    for cl in dec.clusters:
                        if cl.theta <= theta:
                            summed += cl.basis @ cl.basis.T
                    proj = small_phase_projector(dec, theta)
                    assert proj.tobytes() == summed.tobytes()
                    assert weight == pytest.approx(float(state @ proj @ state), abs=1e-14)


def test_small_phase_projector_near_pi_is_identity_minus_pi_space():
    rng = np.random.default_rng(7)
    pi_a, pi_b = random_projector_pair(rng, 6, shared=1, a_only=1)
    u_mat = (2 * pi_a - np.eye(6)) @ (2 * pi_b - np.eye(6))
    dec = decompose_orthogonal(u_mat)
    just_below = math.pi - 1e-6
    proj = small_phase_projector(dec, just_below)
    np.testing.assert_allclose(
        proj, np.eye(6) - minus_one_projector(dec), atol=1e-10
    )


def test_fixed_space_overlap_identities():
    program = normalize(or_span_program(4))
    w0 = np.asarray(minimal_witness(program).w0)
    # positive input: w0 has no overlap with the fixed space of U
    dec = build_U(program, (1, 1, 0, 0))
    assert float(w0 @ fixed_projector(dec) @ w0) == pytest.approx(0.0, abs=1e-8)
    # negative input: overlap is exactly 1/w-
    dec0 = build_U(program, (0, 0, 0, 0))
    rep = witness_report(input_factors(program, (0, 0, 0, 0)))
    assert float(w0 @ fixed_projector(dec0) @ w0) == pytest.approx(
        1.0 / rep.w_minus, abs=1e-8
    )
    # and for U': overlap is 1/w+
    decp = build_Uprime(program, (1, 1, 0, 0))
    rep1 = witness_report(input_factors(program, (1, 1, 0, 0)))
    assert float(w0 @ fixed_projector(decp) @ w0) == pytest.approx(
        1.0 / rep1.w_plus, abs=1e-8
    )


def test_two_reflection_overlap_lemma_direct():
    # for any u with Pi_A u = 0: ||Pi_Theta Pi_B u|| <= (Theta/2) ||u||
    rng = np.random.default_rng(23)
    for _ in range(10):
        dim = int(rng.integers(3, 9))
        pi_a, pi_b = random_projector_pair(rng, dim)
        u_mat = (2 * pi_a - np.eye(dim)) @ (2 * pi_b - np.eye(dim))
        dec = decompose_orthogonal(u_mat)
        vec = rng.standard_normal(dim)
        vec -= pi_a @ vec
        if np.linalg.norm(vec) < 1e-9:
            continue
        for theta in (0.1, 0.4, 1.0, 1.5):
            lhs = np.linalg.norm(small_phase_projector(dec, theta) @ (pi_b @ vec))
            assert lhs <= theta / 2.0 * np.linalg.norm(vec) + 1e-8


def test_effective_gap_inequalities_random():
    thetas = [0.05 * k for k in range(1, 31)]
    for seed in range(6):
        program = normalize(random_span_program(np.random.default_rng([seed, 202])))
        w0 = np.asarray(minimal_witness(program).w0)
        for x in all_inputs(program):
            rep = witness_report(input_factors(program, x))
            inv_wm = 0.0 if math.isinf(rep.w_minus) else 1.0 / rep.w_minus
            inv_wp = 0.0 if math.isinf(rep.w_plus) else 1.0 / rep.w_plus
            dec = build_U(program, x)
            decp = build_Uprime(program, x)
            for theta in thetas:
                lhs = float(w0 @ small_phase_projector(dec, theta) @ w0)
                assert lhs <= theta**2 / 4 * rep.w_tilde_plus + inv_wm + 1e-8
                lhs = float(w0 @ small_phase_projector(decp, theta) @ w0)
                assert lhs <= theta**2 / 4 * rep.w_tilde_minus + inv_wp + 1e-8


def test_discriminant_orthogonal_subspaces():
    pi_a = np.diag([1.0, 0.0, 0.0, 0.0])
    pi_b = np.diag([0.0, 1.0, 0.0, 0.0])
    report = discriminant(pi_a, pi_b)
    assert report.sigma_min is None
    assert report.expected_rotation_phases() == []


def test_discriminant_identical_subspaces():
    pi = np.diag([1.0, 1.0, 0.0])
    report = discriminant(pi, pi)
    np.testing.assert_allclose(report.singular_values[:2], [1.0, 1.0], atol=1e-12)
    assert report.sigma_min == pytest.approx(1.0, abs=1e-12)


def test_discriminant_rejects_non_projector():
    with pytest.raises(ValueError):
        discriminant(np.eye(3) * 2.0, np.eye(3))


def test_discriminant_singular_values_in_unit_interval():
    rng = np.random.default_rng(17)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        pi_a, pi_b = random_projector_pair(rng, dim)
        report = discriminant(pi_a, pi_b)
        assert np.all(report.singular_values <= 1.0 + 1e-10)
        assert np.all(report.singular_values >= -1e-12)
        if report.sigma_min is not None:
            assert report.sigma_min > 1e-10


def test_discriminant_phase_correspondence_random():
    rng = np.random.default_rng(11)
    for _ in range(15):
        dim = int(rng.integers(3, 9))
        pi_a, pi_b = random_projector_pair(rng, dim)
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


def test_intersection_dims_leave_near_orthogonal_rotation_pair_out():
    # the pair of `verify --suite szegedy --seed 1`, trial 80: sigma(Pi_A Pi_B)
    # = 1.08e-4, so the reflection product turns one plane by pi - 2.2e-4.
    # That plane lies in neither A cap B^perp nor A^perp cap B, although
    # sigma(Pi_A (I - Pi_B)) is within 1e-8 of 1.
    rng = np.random.default_rng([1, 80])
    dim = int(rng.integers(3, 9))
    pi_a, pi_b = random_projector_pair(rng, dim)
    u_mat = (2 * pi_a - np.eye(dim)) @ (2 * pi_b - np.eye(dim))
    dec = decompose_orthogonal(u_mat)
    assert any(0.0 < math.pi - cl.theta < 1e-3 for cl in dec.clusters)
    dims_map = intersection_dims(pi_a, pi_b)
    plus_dim = sum(cl.dim for cl in dec.clusters if cl.theta == 0.0)
    minus_dim = sum(cl.dim for cl in dec.clusters if cl.theta == math.pi)
    assert plus_dim == dims_map["a_and_b"] + dims_map["aperp_and_bperp"]
    assert minus_dim == dims_map["a_and_bperp"] + dims_map["aperp_and_b"]
    assert dims_map["a_and_bperp"] == dims_map["aperp_and_b"] == 0


def test_phase_gap_of_negated_product_vs_discriminant():
    rng = np.random.default_rng(13)
    for _ in range(15):
        dim = int(rng.integers(3, 9))
        pi_a, pi_b = random_projector_pair(rng, dim)
        u_mat = (2 * pi_a - np.eye(dim)) @ (2 * pi_b - np.eye(dim))
        report = discriminant(pi_a, pi_b)
        if report.sigma_min is None:
            continue
        gap = decompose_orthogonal(-u_mat).phase_gap()
        assert gap >= 2.0 * report.sigma_min - 1e-8


def test_kappa_bound_complete_graph_is_two():
    from spanforge.resistance import build_st_span_program, graph_input, complete_graph

    g = complete_graph(4)
    program = build_st_span_program(4, 0, 3)
    # one bound serves both U and U'
    bound = kappa_bound(input_factors(program, graph_input(g)))
    assert bound == pytest.approx(2.0, rel=1e-10)


def test_kappa_bound_degenerate_input():
    program = or_span_program(3)
    with pytest.raises(ValueError):
        kappa_bound(input_factors(program, (0, 0, 0)))


def test_kappa_bound_caps_phase_gap_random():
    for seed in range(8):
        program = random_span_program(np.random.default_rng([seed, 203]))
        for x in all_inputs(program):
            try:
                bound = kappa_bound(input_factors(program, x))
            except ValueError:
                continue
            assert build_U(program, x).phase_gap() >= bound - 1e-8
            _, w_plus = positive_witness(input_factors(program, x))
            if math.isfinite(w_plus):
                assert build_Uprime(program, x).phase_gap() >= bound - 1e-8


def test_decompose_reads_rotation_below_old_subdiagonal_cutoff():
    # two lines at angle 2.5e-9: the product turns their plane by 5e-9, above
    # the phase snap, and fixes only the third axis
    phi = 2.5e-9
    line_b = np.array([math.cos(phi), math.sin(phi), 0.0])
    pi_a, pi_b = np.diag([1.0, 0.0, 0.0]), np.outer(line_b, line_b)
    dec = decompose_orthogonal((2 * pi_a - np.eye(3)) @ (2 * pi_b - np.eye(3)))
    dims_map = intersection_dims(pi_a, pi_b)
    plus_dim = sum(cl.dim for cl in dec.clusters if cl.theta == 0.0)
    assert plus_dim == dims_map["a_and_b"] + dims_map["aperp_and_bperp"] == 1
    rotations = [cl.theta for cl in dec.clusters if 0.0 < cl.theta < math.pi]
    assert rotations == pytest.approx([2.0 * phi], rel=1e-6)


def test_expected_rotation_phases_keep_small_phase_at_sigma_near_one():
    # `verify --suite szegedy --seed 41`, trial 168, drawn as the suite draws
    # it: sigma(Pi_A Pi_B) = 1 - 2.1e-10, a phase of 4.07e-5
    seed, trial, dims = 41, 168, 8
    rng = np.random.default_rng([seed, trial])
    dim = int(rng.integers(3, max(4, dims + 1)))
    forced = trial % 3 == 0
    pi_a, pi_b = random_projector_pair(
        rng,
        dim,
        shared=int(rng.integers(1, 3)) if forced else 0,
        a_only=int(rng.integers(0, 2)) if forced else 0,
    )
    dec = decompose_orthogonal((2 * pi_a - np.eye(dim)) @ (2 * pi_b - np.eye(dim)))
    expected = discriminant(pi_a, pi_b).expected_rotation_phases()
    actual = sorted(
        cl.theta
        for cl in dec.clusters
        if cl.theta not in (0.0, math.pi)
        for _ in range(cl.dim // 2)
    )
    assert any(p < 1e-4 for p in actual)
    assert len(expected) == len(actual)
    np.testing.assert_allclose(actual, expected, atol=1e-8)


OUTCOME_GRIDS = (2, 16, 256, 4096, 65536)


def small_phase_mass(measure, theta):
    return float(measure.weights[measure.phases <= theta].sum())


def assert_measures_match_oracle(program, x):
    """measure_U, and measure_Uprime on positive x, against the dense
    route at 1e-10: outcome-zero probabilities, the phase-0 weight (1/w- for
    U, 1/w+ for U') and the mass at phases <= Theta."""
    w0 = np.asarray(minimal_witness(program).w0)
    f = input_factors(program, x)
    rep, cross = witness_report(f), row_space_cross(f)
    pairs = [(measure_U(cross), build_U(program, x).measure(w0), rep.w_minus)]
    if math.isfinite(rep.w_plus):
        oracle = build_Uprime(program, x).measure(w0)
        pairs.append((measure_Uprime(cross), oracle, rep.w_plus))
    for fast, oracle, w_size in pairs:
        for grid in OUTCOME_GRIDS:
            assert outcome_zero_probability(fast, grid) == pytest.approx(
                outcome_zero_probability(oracle, grid), abs=1e-10
            )
        inv_w = 0.0 if math.isinf(w_size) else 1.0 / w_size
        assert small_phase_mass(fast, 0.0) == pytest.approx(inv_w, abs=1e-10)
        for theta in [0.0] + THETA_GRID:
            assert small_phase_mass(fast, theta) == pytest.approx(
                small_phase_mass(oracle, theta), abs=1e-10
            )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_measures_match_oracle_on_random_programs(seed):
    program = normalize(random_span_program(np.random.default_rng(seed)))
    for x in all_inputs(program):
        assert_measures_match_oracle(program, x)


def test_measures_match_oracle_on_degenerate_programs():
    or4 = normalize(or_span_program(4))
    # empty H(x): U reflects about row(A), which holds w0
    empty = measure_U(row_space_cross(input_factors(or4, (0, 0, 0, 0))))
    assert small_phase_mass(empty, 0.0) == pytest.approx(1.0, abs=1e-12)
    # H(x) = H: sigma = 1 exactly, so U sends w0 to -w0
    full = measure_U(row_space_cross(input_factors(or4, (1, 1, 1, 1))))
    assert small_phase_mass(full, math.pi - 1e-6) == pytest.approx(0.0, abs=1e-12)
    # scaled OR at x = 0: h1 (true block) lies in row(A) cap H(x), sigma = 1,
    # and the rest of row(A), which meets h0 (false block), is orthogonal to
    # H(x), sigma = 0
    scaled = scale(or_span_program(3), 0.5)
    split = measure_U(row_space_cross(input_factors(scaled, (0, 0, 0))))
    assert set(split.phases[split.weights > 1e-12]) == {0.0, math.pi}
    # scaling by 0.1 leaves row(A) conditioned so that U''s zero phase-pi
    # remainder at x = (0,) rounds to -1.1e-12
    rough = scale(random_span_program(np.random.default_rng([131, 99]), 14, 8, 3, 3), 0.1)
    for program in (or4, scaled, scale(or_span_program(3), 2.0), rough):
        for x in all_inputs(program):
            assert_measures_match_oracle(program, x)


@pytest.mark.parametrize("n", [8, 16])
def test_measures_match_oracle_on_scaled_st_programs(n):
    g = random_graph(np.random.default_rng(n), n, 0.5)
    program = build_st_span_program(g.n, g.s, g.t)
    for beta in (0.5, 2.0):
        assert_measures_match_oracle(scale(program, beta), graph_input(g))


@pytest.mark.parametrize("phases, weights", [
    ([0.1, math.nan], [0.5, 0.5]),  # once read as outcome-zero probability 0
    ([0.1, 0.2], [math.nan, 0.5]),
    ([0.1, math.inf], [0.5, 0.5]),  # once clipped to pi
    ([-math.inf, 0.2], [0.5, 0.5]),
    ([0.1, 0.2], [math.inf, 0.5]),
    ([0.1, 0.2], [-math.inf, 0.5]),
    ([0.1, 0.2], [math.inf, -math.inf]),
])
def test_spectral_measure_refuses_values_that_are_not_finite(phases, weights):
    with pytest.raises(ValueError, match="finite"):
        SpectralMeasure(np.array(phases), np.array(weights))


@pytest.mark.parametrize("phases, weights", [
    ([0.1, 0.2, 0.3], [0.5, 0.5]),
    ([0.1], [0.5, 0.5]),
    ([[0.1, 0.2]], [[0.5, 0.5]]),
    (0.1, 1.0),
])
def test_spectral_measure_refuses_arrays_that_are_not_1d_of_one_length(phases, weights):
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        SpectralMeasure(np.array(phases), np.array(weights))


def test_spectral_measure_snaps_a_copy_in_place():
    phases = np.array([-0.5, 1e-10, 1.0, math.pi - 1e-10, 4.0])
    weights = np.array([0.25, 0.25, 0.5 + 1e-13, 0.0, -1e-13])
    measure = SpectralMeasure(phases, weights)
    assert measure.phases.tolist() == [0.0, 0.0, 1.0, math.pi, math.pi]
    assert measure.weights.tolist() == [0.25, 0.25, 0.5 + 1e-13, 0.0, 0.0]
    assert phases[0] == -0.5 and weights[-1] == -1e-13  # the caller's arrays are not written
    for arr in (measure.phases, measure.weights):
        assert arr.dtype == np.float64 and arr.flags.owndata and not arr.flags.writeable
    with pytest.raises(ValueError, match="negative spectral weight"):
        SpectralMeasure(np.array([0.1, 0.2]), np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="unit initial state"):
        SpectralMeasure(np.array([0.1, 0.2]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="unit initial state"):
        SpectralMeasure(np.zeros(0), np.zeros(0))
