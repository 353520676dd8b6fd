"""Graphs, the st-connectivity program, resistance oracles and estimators."""

import dataclasses
import math

import numpy as np
import pytest

from spanforge._linalg import DEFAULT_TOLS, pinv, singular_values
from spanforge.generators import random_graph
from spanforge.oracle import (
    flow_resistance_bruteforce,
    reflection_factorization_operators,
    subspace_projector,
    verify_reflection_factorization,
)
from spanforge.qsim import QueryLedger
from spanforge.resistance import (
    Graph,
    GraphParseError,
    build_st_span_program,
    complete_graph,
    estimate_resistance,
    exact_resistance,
    graph,
    graph_input,
    lambda2,
    laplacian,
    lower_bound_family,
    ordered_pairs,
    parse_graph_file,
    unordered_pairs,
    witness_equals_half_resistance,
)
from spanforge.spanprog import (
    SpanProgram,
    StructuralError,
    input_factors,
    minimal_witness,
    min_error_negative,
    negative_witness,
    positive_witness,
    validate,
)

from graph_atlas import connected_graphs_upto


# -- graphs and parsing ----------------------------------------------------

def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(n=3, edges=frozenset({(0, 0)}), s=0, t=1)
    with pytest.raises(ValueError):
        Graph(n=3, edges=frozenset(), s=1, t=1)
    with pytest.raises(ValueError):
        Graph(n=2, edges=frozenset({(0, 5)}), s=0, t=1)


def test_parse_graph_file_roundtrip():
    text = "# a path\n3 2 1 3\n1 2\n2 3\n"
    g = parse_graph_file(text)
    assert g.n == 3 and g.s == 0 and g.t == 2
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_graph_file_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as info:
        parse_graph_file("3 2 1 3\n1 2\n2 2\n")
    assert info.value.line == 3  # self-loop
    with pytest.raises(GraphParseError) as info:
        parse_graph_file("3 2 1 3\n1 2\n1 2\n")
    assert info.value.line == 3  # duplicate
    with pytest.raises(GraphParseError) as info:
        parse_graph_file("3 2 1\n")
    assert info.value.line == 1  # malformed header
    with pytest.raises(GraphParseError):
        parse_graph_file("3 2 1 3\n1 2\n")  # wrong edge count
    with pytest.raises(GraphParseError):
        parse_graph_file("")


# -- exact resistance oracles ------------------------------------------------

def test_single_edge_resistance():
    assert exact_resistance(graph(2, [(0, 1)], 0, 1)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_complete_graph_resistance(n):
    assert exact_resistance(complete_graph(n)) == pytest.approx(2.0 / n, rel=1e-10)


def test_series_path_resistance():
    assert exact_resistance(graph(3, [(0, 1), (1, 2)], 0, 2)) == pytest.approx(2.0, rel=1e-12)


def test_disconnected_resistance_is_inf():
    assert math.isinf(exact_resistance(graph(4, [(0, 1), (2, 3)], 0, 3)))


def test_laplacian_vs_flow_oracle_random():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 25:
        n = int(rng.integers(3, 7))
        g = random_graph(rng, n, edge_prob=0.5)
        if len(g.edges) > 8:
            continue
        checked += 1
        assert exact_resistance(g) == pytest.approx(
            flow_resistance_bruteforce(g), abs=1e-8
        )


def test_resistance_and_lambda2_ranges():
    rng = np.random.default_rng(32)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n, edge_prob=0.6)
        res = exact_resistance(g)
        lam = lambda2(g)
        assert 2.0 / n - 1e-10 <= res <= n - 1 + 1e-10
        assert 2.0 / n**2 - 1e-10 <= lam <= n + 1e-10
        # R = (e_s - e_t)^T L^+ (e_s - e_t) <= ||e_s - e_t||^2 / lambda2; the
        # factor 2 is tight (leaf-to-leaf in a star: R = 2, lambda2 = 1), so
        # the sanity bound is 2/lambda2, not 1/lambda2.
        assert res <= 2.0 / lam + 1e-8


def test_one_eigh_gives_lambda2_and_resistance_as_eigvalsh_and_pinv_do(monkeypatch):
    # the former oracles: lambda2 from eigvalsh, R_st from pinv(L) with its
    # rank cut; a graph with an isolated vertex keeps a second zero eigenvalue
    rng = np.random.default_rng(33)
    graphs = [random_graph(rng, n, p) for n in (2, 5, 9, 17, 40) for p in (0.2, 0.6)]
    graphs += [graph(6, [(0, 1), (1, 2), (2, 5)], 0, 5), lower_bound_family(12, 1, i=1, j=6),
               complete_graph(7), graph(4, [(0, 1), (2, 3)], 0, 3)]
    for g in graphs:
        lap = laplacian(g)
        assert lambda2(g) == pytest.approx(float(np.linalg.eigvalsh(lap)[1]), abs=1e-12)
        if not g.connected_st():
            assert math.isinf(exact_resistance(g))
            continue
        chi = np.zeros(g.n)
        chi[g.s], chi[g.t] = 1.0, -1.0
        assert exact_resistance(g) == pytest.approx(float(chi @ pinv(lap) @ chi), rel=1e-12)

    # an estimate reads both from a single eigendecomposition of L, A from
    # one of its Gram A A^T = 2 (n I - J), and A(x) from one of its Gram
    # 2 L_G: no other eigh
    eigh, calls = np.linalg.eigh, []

    def counting(mat, *args, **kwargs):
        calls.append(np.array(mat))
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    g = lower_bound_family(12, 1, i=1, j=6)
    mu = lambda2(g)
    calls.clear()
    report = estimate_resistance(g, 0.3, "real-gap", np.random.default_rng(1), QueryLedger(), mu=mu)
    assert len(calls) == 3
    assert np.array_equal(calls[0], laplacian(g))
    assert np.array_equal(calls[1], 2.0 * (g.n * np.eye(g.n) - np.ones((g.n, g.n))))
    assert np.array_equal(calls[2], 2.0 * laplacian(g))
    assert report.lambda2 == mu and report.exact == exact_resistance(g)


# -- the st-connectivity span program ----------------------------------------

def test_st_program_structure():
    program = build_st_span_program(4, 0, 3)
    assert validate(program).ok
    assert program.dim_h == 12 and program.dim_v == 4 and program.n == 6
    a_mat = np.asarray(program.a_mat)
    np.testing.assert_allclose(
        a_mat @ a_mat.T, 2.0 * laplacian(complete_graph(4)), atol=1e-12
    )
    assert singular_values(a_mat)[0] == pytest.approx(math.sqrt(8.0), rel=1e-10)
    # tau in col A since K_n is connected
    minimal_witness(program)


def loop_built_st_program(n, s, t):
    """The st program built pair by pair, as the reference for the
    index-array construction."""
    pairs = ordered_pairs(n)
    a_mat = np.zeros((n, len(pairs)))
    for col, (u, v) in enumerate(pairs):
        a_mat[u, col] += 1.0
        a_mat[v, col] -= 1.0
    tau = np.zeros(n)
    tau[s], tau[t] = 1.0, -1.0
    n_inputs = len(unordered_pairs(n))
    subspaces = {}
    for j in range(n_inputs):
        subspaces[(j, 0)] = np.zeros((2, 0))
        subspaces[(j, 1)] = np.eye(2)
    return SpanProgram(
        n=n_inputs, q=2, dim_h=len(pairs), dim_v=n,
        input_blocks=tuple((2 * j, 2 * j + 1) for j in range(n_inputs)),
        true_block=(), false_block=(), subspaces=subspaces, a=a_mat, tau=tau,
    )


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_st_program_matches_a_loop_built_reference(n):
    s, t = n - 1, n // 3
    fast, slow = build_st_span_program(n, s, t), loop_built_st_program(n, s, t)
    for field in ("n", "q", "dim_h", "dim_v", "true_block", "false_block"):
        assert getattr(fast, field) == getattr(slow, field), field
    # the blocks are held as read-only index arrays, with the same values
    mine, theirs = fast.input_blocks, slow.input_blocks
    assert mine == theirs and len(mine) == len(theirs) == slow.n
    assert [block.tolist() for block in mine] == [[2 * j, 2 * j + 1] for j in range(slow.n)]
    for blocks in (mine, theirs):
        assert blocks.coords.dtype == np.intp and not blocks.coords.flags.writeable
        assert blocks.width == 2 and blocks.sizes is None and blocks.starts is None
    for field in ("a_mat", "tau"):
        mine, theirs = getattr(fast, field), getattr(slow, field)
        assert mine.shape == theirs.shape and mine.dtype == theirs.dtype, field
        assert mine.tobytes() == theirs.tobytes(), field
    assert list(fast.subspaces) == list(slow.subspaces)
    for key, mat in slow.subspaces.items():
        assert fast.subspaces[key].shape == mat.shape, key
        assert fast.subspaces[key].tobytes() == mat.tobytes(), key


def test_subspace_store_owns_a_shared_matrix_and_checks_each_new_layout():
    base = build_st_span_program(3, 0, 2)
    shared, empty = np.eye(2), np.zeros((2, 0))
    program = dataclasses.replace(
        base, subspaces={(j, a): shared if a else empty for j in range(3) for a in range(2)}
    )
    stored = [program.subspaces[(j, 1)] for j in range(3)]
    assert all(mat is stored[0] for mat in stored)  # frozen once, shared by the keys
    shared[0, 1] = 5.0  # the caller's matrix, written after construction
    np.testing.assert_array_equal(stored[0], np.eye(2))
    with pytest.raises(ValueError):
        stored[0][0, 1] = 5.0
    assert positive_witness(input_factors(program, (1, 1, 1)))[1] == pytest.approx(1.0 / 3.0)

    # the store was checked against the old layout; a new one is checked again
    with pytest.raises(StructuralError, match="rows"):
        dataclasses.replace(program, input_blocks=((0,), (1, 2, 3), (4, 5)))
    with pytest.raises(StructuralError, match="out of range"):
        dataclasses.replace(program, q=1)
    assert dataclasses.replace(program).subspaces is program.subspaces


def test_a_disconnected_graph_is_answered_before_the_program_is_built(monkeypatch):
    from spanforge import resistance, spanprog

    n = 12
    monkeypatch.setattr(spanprog, "INCIDENCE_DIM_H_CAP", n * (n - 1) - 1)

    def no_build(*args):
        raise AssertionError("the program was built")

    monkeypatch.setattr(resistance, "build_st_span_program", no_build)
    cut = graph(n, [(v, v + 1) for v in range(n - 1) if v != 5])
    report = estimate_resistance(cut, 0.3, "effective-gap", np.random.default_rng(0),
                                 QueryLedger())
    assert report.exact == report.estimate == math.inf and report.flags == ("disconnected",)

    # an st-connected graph above the cap is refused before the oracle's eigh
    def no_oracle(g):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(resistance, "_spectral_oracle", no_oracle)
    with pytest.raises(spanprog.ProgramSizeError, match="cap"):
        estimate_resistance(complete_graph(n), 0.3, "effective-gap",
                            np.random.default_rng(0), QueryLedger())


def test_graph_input_marks_each_edge_in_pair_order():
    # the reference scans every unordered pair against the edge set
    rng = np.random.default_rng(34)
    graphs = [graph(2, []), graph(2, [(0, 1)]), graph(9, []), complete_graph(12)]
    for n in (3, 5, 16, 33, 64):
        for p in (0.1, 0.5, 0.9):
            graphs.append(graph(n, [e for e in unordered_pairs(n) if rng.random() < p]))
    for g in graphs:
        bits = graph_input(g)
        assert bits.tolist() == [1 if e in g.edges else 0 for e in unordered_pairs(g.n)]
        assert bits.dtype == np.intp and not bits.flags.writeable


def test_st_program_minimal_witness_norm():
    for n in (2, 3, 5, 7):
        program = build_st_span_program(n, 0, n - 1)
        assert minimal_witness(program).n_plus == pytest.approx(1.0 / n, rel=1e-10)


def test_st_program_normalized_target():
    # normalizing multiplies tau = e_s - e_t by sqrt(n)
    from spanforge.spanprog import normalize

    n = 5
    program = build_st_span_program(n, 0, n - 1)
    normalized = normalize(program)
    expect = np.zeros(n)
    expect[0], expect[n - 1] = math.sqrt(n), -math.sqrt(n)
    np.testing.assert_allclose(np.asarray(normalized.tau), expect, atol=1e-10)
    assert minimal_witness(normalized).n_plus == pytest.approx(1.0, abs=1e-10)


def test_st_program_projector_selects_edge_coordinates():
    g = graph(3, [(0, 1)], 0, 2)
    program = build_st_span_program(3, 0, 2)
    proj = subspace_projector(program, graph_input(g))
    # pair (0,1) owns the first two ordered coordinates
    np.testing.assert_allclose(np.diag(proj), [1, 1, 0, 0, 0, 0], atol=1e-12)


def test_st_program_triangle_positive_witness():
    # frozen from the Laplacian oracle: R(K3) = 2/3, so w_+ = 1/3
    program = build_st_span_program(3, 0, 1)
    _, w_plus = positive_witness(input_factors(program, graph_input(complete_graph(3, 0, 1))))
    assert w_plus == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_st_program_empty_graph_negative_witness():
    # frozen from the KKT oracle: the empty graph gives w_- = n = N_-
    program = build_st_span_program(4, 0, 3)
    _, w_minus = negative_witness(input_factors(program, (0,) * 6))
    assert w_minus == pytest.approx(4.0, rel=1e-8)
    assert minimal_witness(program).n_minus == pytest.approx(4.0, rel=1e-10)


def test_st_program_sigma_min_is_sqrt_two_lambda2():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 8)), edge_prob=0.6)
        program = build_st_span_program(g.n, g.s, g.t)
        ax = np.asarray(program.a_mat) @ subspace_projector(program, graph_input(g))
        lam = lambda2(g)
        if lam < 1e-9:
            continue
        sigmas = singular_values(ax)
        observed = sigmas[sigmas > DEFAULT_TOLS.rank_rtol * singular_values(program.a_mat)[0]][-1]
        assert observed == pytest.approx(math.sqrt(2.0 * lam), abs=1e-8)


def half_resistance_check(g):
    """witness_equals_half_resistance on g's st program and input."""
    program = build_st_span_program(g.n, g.s, g.t)
    return witness_equals_half_resistance(input_factors(program, graph_input(g)),
                                          exact_resistance(g))


def test_witness_equals_half_resistance_examples():
    check = half_resistance_check(complete_graph(4))
    assert check.ok
    assert check.w_plus == pytest.approx(0.25, rel=1e-10)
    assert check.resistance == pytest.approx(0.5, rel=1e-10)
    disconnected = half_resistance_check(graph(4, [(0, 1), (2, 3)], 0, 3))
    assert disconnected.ok and math.isinf(disconnected.w_plus)


def test_witness_equals_half_resistance_random():
    rng = np.random.default_rng(34)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(3, 9)), edge_prob=0.5, require_connected=False)
        assert half_resistance_check(g).ok


def test_approximate_negative_witness_bound_connected():
    # the voltage functional gives w_tilde_minus <= 2 n^2 on connected graphs
    rng = np.random.default_rng(35)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 7)), edge_prob=0.6)
        program = build_st_span_program(g.n, g.s, g.t)
        _, _, w_tilde_minus = min_error_negative(input_factors(program, graph_input(g)))
        assert w_tilde_minus <= 2.0 * g.n**2 + 1e-8


# -- estimators ----------------------------------------------------------------

def test_estimate_resistance_k4_both_methods():
    g = complete_graph(4)
    for method in ("effective-gap", "real-gap"):
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng([seed, 41])
            report = estimate_resistance(
                g, 0.2, method, rng, QueryLedger(),
                mu=lambda2(g) if method == "real-gap" else None,
            )
            assert report.exact == pytest.approx(0.5, rel=1e-10)
            assert report.queries > 0
            hits += abs(report.estimate - report.exact) <= 0.2 * report.exact
        assert hits >= 20


def test_estimate_resistance_path():
    g = graph(3, [(0, 1), (1, 2)], 0, 2)
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng([seed, 42])
        report = estimate_resistance(g, 0.2, "effective-gap", rng, QueryLedger())
        assert report.exact == pytest.approx(2.0, rel=1e-10)
        hits += abs(report.estimate - 2.0) <= 0.4
    assert hits >= 20


def test_estimate_resistance_disconnected_reports_inf():
    g = graph(4, [(0, 1), (2, 3)], 0, 3)
    report = estimate_resistance(g, 0.2, "effective-gap", np.random.default_rng(0), QueryLedger())
    assert math.isinf(report.exact) and math.isinf(report.estimate)
    assert report.queries == 0
    assert "disconnected" in report.flags


def test_estimate_resistance_argument_errors():
    g = complete_graph(4)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        estimate_resistance(g, 0.2, "real-gap", rng, QueryLedger())  # missing mu
    with pytest.raises(ValueError):
        estimate_resistance(g, 0.2, "real-gap", rng, QueryLedger(), mu=100.0)  # mu > lambda2
    with pytest.raises(ValueError):
        estimate_resistance(g, 0.2, "real-gap", rng, QueryLedger(), mu=0.0)
    with pytest.raises(ValueError):
        estimate_resistance(g, 0.2, "sideways", rng, QueryLedger())
    with pytest.raises(ValueError):
        estimate_resistance(g, 1.5, "effective-gap", rng, QueryLedger())


# -- lower-bound family ----------------------------------------------------------

@pytest.mark.parametrize("n", [6, 8, 10])
def test_lower_bound_family_resistances(n):
    assert exact_resistance(lower_bound_family(n, 0)) == pytest.approx(1.0, abs=1e-10)
    # frozen from the Laplacian oracle (and the flow 3/4 * 1 series-parallel value)
    g1 = lower_bound_family(n, 1, 1, n // 2)
    assert exact_resistance(g1) == pytest.approx(0.75, abs=1e-10)


def test_lower_bound_family_validation():
    with pytest.raises(ValueError):
        lower_bound_family(5, 0)
    with pytest.raises(ValueError):
        lower_bound_family(6, 1)  # missing leaf indices
    with pytest.raises(ValueError):
        lower_bound_family(6, 1, 3, 3)  # i not an s-side leaf


def test_lower_bound_family_shape():
    g = lower_bound_family(6, 0)
    assert g.s == 0 and g.t == 5
    assert len(g.edges) == 5  # two stars of two leaves each plus the s-t edge
    g1 = lower_bound_family(6, 1, 2, 4)
    assert (2, 4) in g1.edges


# -- reflection factorization -------------------------------------------------

def test_reflection_factorization_identities_n3():
    check = verify_reflection_factorization(3)
    assert check.my_isometry_defect <= 1e-12
    assert check.mz_isometry_defect <= 1e-12  # columns are unit (and orthonormal)
    assert check.factorization_defect <= 1e-12
    assert check.minus_one_defect <= 1e-10


def test_reflection_factorization_rotation_phase():
    # the image of (ker A)^perp is rotated by 2 arccos sqrt(n/(2(n-1))), which
    # is nonzero for n >= 3: the literal +1-eigenspace containment fails
    for n in (3, 4):
        check = verify_reflection_factorization(n)
        assert check.rotation_phase == pytest.approx(
            check.predicted_rotation_phase, abs=1e-10
        )
        assert check.predicted_rotation_phase > 0.1
        assert check.plus_one_defect > 0.1


def test_reflection_factorization_bounds():
    with pytest.raises(ValueError):
        verify_reflection_factorization(2)
    with pytest.raises(ValueError):
        verify_reflection_factorization(7)


def test_reflection_operators_shapes():
    mz, my, a_mat = reflection_factorization_operators(3)
    assert mz.shape == (54, 3)
    assert my.shape == (54, 6)
    assert a_mat.shape == (3, 6)


# -- atlas enumeration -----------------------------------------------------------

def test_connected_graph_atlas_counts():
    graphs = connected_graphs_upto(6)
    by_n = {}
    for g in graphs:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    # known counts of connected graphs up to isomorphism
    assert by_n == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
