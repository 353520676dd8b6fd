"""The Gram route of the st program's A and A(x) against a dense A and the
SVD route, the per-symbol subspace stores of the st and OR programs against
stores keyed by (j, a), the identity-run walk of H(x) against a
block-by-block reference, the guards on incidence columns and per-symbol
stores, the factors derived programs share, the memory one estimate holds,
what an estimate forms and imports, and the refusal of an st program too
large to hold."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spanforge._linalg import DEFAULT_TOLS, Tolerances, column_space_split
from spanforge import resistance, spanprog
from spanforge.cli import main
from spanforge.generators import all_inputs, random_graph, random_span_program
from spanforge.oracle import row_basis, scale, subspace_projector
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
    DENSE_A_ENTRY_CAP,
    INCIDENCE_DIM_H_CAP,
    Incidence,
    ProgramSizeError,
    SpanProgramError,
    StructuralError,
    Subspaces,
    _lift,
    input_factors,
    min_error_negative,
    min_error_positive,
    minimal_witness,
    negative_witness,
    normalize,
    or_span_program,
    positive_witness,
    rescale_target,
    restrict,
    validate,
    witness_report,
)
from spanforge.spectral import measure_U, measure_Uprime, row_space_cross
from spanforge.verify import run_suite

from oracles import a_x, minimal_negative_value, subspace_blocks
from test_input_route import degenerate_programs

RTOL = 1e-12
GRIDS = (2, 16, 256)
ST_SIZES = (2, 3, 4, 8, 16, 32, 64)


def svd_route(program):
    """The same program with a dense A: A and A(x) each by one SVD.  The
    incidence program itself reads A through its Gram, unless A is no wider
    than tall."""
    twin = dataclasses.replace(program, a=program.a_mat)
    assert isinstance(program.a, Incidence) and isinstance(twin.a, np.ndarray)
    assert (program.factorization().rows is None) == (program.dim_h > program.dim_v)
    return twin


def gram_row_basis(program, tols=DEFAULT_TOLS):
    """V_r = A^T U_r Sigma^-1 of a program read through its Gram: the basis
    of row(A) whose coordinates target.y = Sigma^-1 U_r^T tau and C(x) hold."""
    fact = program.factorization(tols)
    return program.a_mat.T @ fact.col_basis / fact.sigma


def assert_same_span(mine, theirs):
    """Equal column spans of two orthonormal bases: equal ranks and
    ||(I - P_theirs) mine||, the sine of the largest principal angle, at
    rounding size; for bases of equal rank that is ||P_mine - P_theirs||."""
    assert mine.shape == theirs.shape
    assert np.max(np.abs(mine - theirs @ (theirs.T @ mine)), initial=0.0) <= RTOL


def close(mine, theirs):
    """Equal to RTOL relative (absolute below 1), or both infinite."""
    if math.isinf(theirs):
        return math.isinf(mine)
    return abs(mine - theirs) <= RTOL * max(1.0, abs(theirs))


def st_inputs(n, s, t, rng):
    """A random graph, a dense one, and one with s cut off, as inputs."""
    cut = graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if s not in (u, v)], s, t)
    graphs = (random_graph(rng, n, 0.4), random_graph(rng, n, 0.8), cut)
    return [graph_input(dataclasses.replace(g, s=s, t=t)) for g in graphs]


@pytest.mark.parametrize("n", ST_SIZES)
def test_closed_form_factors_match_the_svd_route(n):
    rng = np.random.default_rng([11, n])
    for s, t in {(0, n - 1), (n - 1, 0), (n // 2, n // 3 if n // 3 != n // 2 else 0)}:
        program = build_st_span_program(n, s, t)
        oracle = svd_route(program)
        mine, theirs = program.factorization(), oracle.factorization()
        assert mine.sigma.size == theirs.sigma.size == n - 1
        np.testing.assert_allclose(mine.sigma, theirs.sigma, rtol=RTOL)
        assert close(mine.sigma_max, theirs.sigma_max)
        np.testing.assert_allclose(
            mine.col_basis @ mine.col_basis.T, theirs.col_basis @ theirs.col_basis.T, atol=RTOL
        )
        assert_same_span(gram_row_basis(program), theirs.rows)
        assert_same_span(theirs.rows, gram_row_basis(program))
        np.testing.assert_allclose(mine.witness.w0, theirs.witness.w0, atol=RTOL)
        assert close(mine.witness.n_plus, theirs.witness.n_plus)
        assert close(mine.witness.n_minus, theirs.witness.n_minus)
        # w0 = A^T tau / (2n)
        np.testing.assert_allclose(mine.witness.w0, program.a_mat.T @ program.tau / (2 * n),
                                   atol=RTOL)


def test_verify_refuses_gram_route_factors_off_by_one_part_in_1e9(monkeypatch):
    def graph_check():
        (check,) = [c for c in run_suite("kappa", 32, seed=1)
                    if c.name == "kappa/graph-singular-values"]
        return check

    assert graph_check().passed
    gram_factors = spanprog._gram_factors

    def skewed(gram, tols, a_scale=None):
        u, sigma, top = gram_factors(gram, tols, a_scale)
        if a_scale is None:  # A's own factors; A(x)'s read a_scale from them
            sigma, top = sigma * (1.0 + 1e-9), top * (1.0 + 1e-9)
        return u, sigma, top

    monkeypatch.setattr(spanprog, "_gram_factors", skewed)
    check = graph_check()
    assert not check.passed and check.observed == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("n", ST_SIZES)
def test_closed_form_inputs_measures_and_witnesses_match_the_svd_route(n):
    rng = np.random.default_rng([12, n])
    s, t = n - 1, n // 2 if n > 2 else 0
    program = build_st_span_program(n, s, t)
    oracle = svd_route(program)
    unit, unit_oracle = normalize(program), normalize(oracle)
    # the Gram route reads row(A) in its own basis V_r = A^T U_r Sigma^-1;
    # rot takes its coordinates to those of the SVD's V_r
    rot = oracle.factorization().rows.T @ gram_row_basis(program)
    y_mine = unit.factorization().target.y
    y_theirs = unit_oracle.factorization().rows.T @ minimal_witness(unit_oracle).w0
    np.testing.assert_allclose(rot @ y_mine, y_theirs, rtol=0.0, atol=RTOL)
    signs = set()
    for x in st_inputs(n, s, t, rng):
        mine, theirs = input_factors(program, x), input_factors(oracle, x)
        f_mine = row_space_cross(input_factors(unit, x)).factor
        f_theirs = row_space_cross(input_factors(unit_oracle, x)).factor
        np.testing.assert_allclose(rot @ f_mine @ f_mine.T @ rot.T, f_theirs @ f_theirs.T,
                                   rtol=0.0, atol=RTOL)
        assert mine.positive == theirs.positive
        signs.add(mine.positive)
        assert a_x(mine).tobytes() == a_x(theirs).tobytes()
        assert close(mine.a_scale, theirs.a_scale)
        np.testing.assert_allclose(mine.sigma, theirs.sigma, rtol=RTOL)
        for part in ("col_basis", "complement"):
            assert_same_span(getattr(mine, part), getattr(theirs, part))

        crosses = [row_space_cross(input_factors(p, x)) for p in (unit, unit_oracle)]
        pairs = [tuple(measure_U(cross) for cross in crosses)]
        if mine.positive:
            pairs.append(tuple(measure_Uprime(cross) for cross in crosses))
        for fast, slow in pairs:
            for grid in GRIDS:
                assert outcome_zero_probability(fast, grid) == pytest.approx(
                    outcome_zero_probability(slow, grid), abs=RTOL
                )

        rep, ref = witness_report(mine), witness_report(theirs)
        for field in ("w_plus", "w_minus", "e_plus", "e_minus", "w_tilde_plus", "w_tilde_minus"):
            assert close(getattr(rep, field), getattr(ref, field)), field
        for field in ("witness_vec", "neg_witness_row"):
            mine_vec, ref_vec = getattr(rep, field), getattr(ref, field)
            bound = RTOL * max(1.0, float(np.max(np.abs(ref_vec))))
            assert np.max(np.abs(mine_vec - ref_vec)) <= bound, field
    assert signs == {True, False}


def test_incidence_columns_give_a_through_four_exact_operations():
    rng = np.random.default_rng(20)
    plus = rng.integers(0, 7, 30)
    minus = (plus + rng.integers(1, 7, 30)) % 7
    a = Incidence(7, plus, minus)
    dense = a.dense()
    assert a.shape == dense.shape == (7, 30)
    assert set(np.unique(dense)) == {-1.0, 0.0, 1.0}
    v, u = rng.standard_normal(30), rng.standard_normal((7, 3))
    np.testing.assert_allclose(a.dot(v), dense @ v, rtol=0.0, atol=1e-13)
    assert same_bits(a.tdot(u), dense.T @ u) and same_bits(a.tdot(u[:, 0]), dense.T @ u[:, 0])
    assert same_bits(a.gram(), dense @ dense.T)
    cols = np.array([0, 3, 3, 17, 29])
    assert same_bits(a.column_gram(cols), dense[:, cols] @ dense[:, cols].T)
    assert same_bits(a.columns(cols), dense[:, cols])
    malformed = ((7, [0, 1], [1]), (7, [0, 7], [1, 2]), (7, [0, 2], [1, 2]), (7, [-1], [0]),
                 (3, [0.7, 2.9], [1.2, 0.0]))
    for args in malformed:
        with pytest.raises(StructuralError):
            Incidence(*args)


def test_gram_route_reads_general_blocks_of_an_incidence_program():
    # blocks of three coordinates, each H_{j,1} a random plane, so Q_H has
    # no identity entry; the twin holds the same A densely
    rng = np.random.default_rng(22)
    n, dim_v = 6, 4
    dim_h = 3 * n
    plus = rng.integers(0, dim_v, dim_h)
    minus = (plus + rng.integers(1, dim_v, dim_h)) % dim_v
    keyed = {(j, a): rng.standard_normal((3, 2)) if a else np.zeros((3, 0))
             for j in range(n) for a in range(2)}
    program = spanprog.SpanProgram(
        n=n, q=2, dim_h=dim_h, dim_v=dim_v,
        input_blocks=tuple(tuple(range(3 * j, 3 * j + 3)) for j in range(n)),
        true_block=(), false_block=(), subspaces=keyed,
        a=Incidence(dim_v, plus, minus), tau=np.array([1.0, -1.0, 0.0, 0.0]),
    )
    twin = svd_route(program)
    gram_inputs = 0
    for x in all_inputs(program):
        mine, theirs = input_factors(program, x), input_factors(twin, x)
        if sum(x) * 2 <= dim_v:
            continue  # A(x) is tall: both take the SVD route
        assert mine.row_vectors is None
        assert mine.positive == theirs.positive
        np.testing.assert_allclose(mine.sigma, theirs.sigma, rtol=1e-12)
        gram_inputs += 1
        if mine.positive:
            assert close(positive_witness(mine)[1], positive_witness(theirs)[1])
            np.testing.assert_allclose(mine.solve(program.tau), theirs.solve(twin.tau),
                                       rtol=0.0, atol=RTOL)
    assert gram_inputs > 0


def path_graph(n, cut=None):
    """The path 0 - 1 - ... - (n - 1) from s = 0 to t = n - 1, without the
    edge {cut, cut + 1} when cut is given."""
    return graph(n, [(v, v + 1) for v in range(n - 1) if v != cut], 0, n - 1)


# a caller's looser tolerances, as the CLI's --tolerance 1e-3 gives them:
# sigma_min(A(x)) / sigma_max(A) is 1.1e-3 on the path of 200 vertices
LOOSE_TOLS = Tolerances(rank_rtol=1e-5, membership_rtol=1e-3)


def gram_route_cases():
    rng = np.random.default_rng(19)
    cases = {}
    for n in (6, 50, 200):
        cases[f"two-star-{n}"] = lower_bound_family(n, 1, i=1, j=n // 2), DEFAULT_TOLS
        cases[f"path-{n}"] = path_graph(n), DEFAULT_TOLS
        cases[f"cut-path-{n}"] = path_graph(n, cut=n // 2), DEFAULT_TOLS
    for n in (8, 120, 200):
        cases[f"complete-{n}"] = complete_graph(n), DEFAULT_TOLS
        cases[f"random-{n}"] = random_graph(rng, n, 0.2), DEFAULT_TOLS
    cases["path-200-loose"] = path_graph(200), LOOSE_TOLS
    cases["cut-path-200-loose"] = path_graph(200, cut=100), LOOSE_TOLS
    return cases


@pytest.mark.parametrize("name", list(gram_route_cases()))
def test_gram_route_matches_a_dense_a_and_the_svd_route(name):
    # the st program reads A(x) through one eigh of its Gram 2 L_G; its twin
    # holds A densely and factors A and A(x) by SVDs
    g, tols = gram_route_cases()[name]
    program = build_st_span_program(g.n, g.s, g.t)
    twin = svd_route(program)
    x = graph_input(g)
    mine, theirs = input_factors(program, x, tols), input_factors(twin, x, tols)
    assert mine.row_vectors is None and theirs.row_vectors is not None
    assert mine.positive == theirs.positive == g.connected_st()
    np.testing.assert_allclose(mine.sigma, theirs.sigma, rtol=1e-11)
    if mine.positive:
        assert close(positive_witness(mine)[1], positive_witness(theirs)[1])
        if name == "path-200":
            # the witness vector itself, refined once, has R_st / 2 = 99.5 as
            # its squared norm
            w = positive_witness(mine)[0]
            assert abs(w @ w - 99.5) <= 1e-13 * 99.5
    else:
        assert close(negative_witness(mine)[1], negative_witness(theirs)[1])

    unit, unit_twin = normalize(program, tols), normalize(twin, tols)
    rot = unit_twin.factorization(tols).rows.T @ gram_row_basis(unit, tols)
    y_mine = unit.factorization(tols).target.y
    y_theirs = unit_twin.factorization(tols).rows.T @ minimal_witness(unit_twin, tols).w0
    np.testing.assert_allclose(rot @ y_mine, y_theirs, rtol=0.0, atol=RTOL)
    cross = row_space_cross(input_factors(unit, x, tols))
    cross_twin = row_space_cross(input_factors(unit_twin, x, tols))
    np.testing.assert_allclose(rot @ cross.factor @ cross.factor.T @ rot.T,
                               cross_twin.factor @ cross_twin.factor.T, rtol=0.0, atol=RTOL)
    measures = [measure_U] + ([measure_Uprime] if mine.positive else [])
    for measure in measures:
        fast, slow = measure(cross), measure(cross_twin)
        for grid in GRIDS:
            assert outcome_zero_probability(fast, grid) == pytest.approx(
                outcome_zero_probability(slow, grid), abs=RTOL
            )


def forbid_dense_a(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense A was formed")

    monkeypatch.setattr(spanprog.SpanProgram, "a_mat", property(refuse))


def test_witness_code_reads_an_incidence_a_without_forming_it(monkeypatch):
    # exact and min-error witnesses of both signs, on a positive and a
    # negative input, against the dense twin's, with the dense A refused
    cases = [(path_graph(8), DEFAULT_TOLS), (path_graph(8, cut=3), DEFAULT_TOLS),
             (random_graph(np.random.default_rng(41), 12, 0.3), LOOSE_TOLS)]
    expected = []
    for g, tols in cases:
        twin = svd_route(build_st_span_program(g.n, g.s, g.t))
        x = graph_input(g)
        f = input_factors(twin, x, tols)
        expected.append((witness_report(f), min_error_positive(f), min_error_negative(f),
                         minimal_negative_value(twin, tols)))
    forbid_dense_a(monkeypatch)
    for (g, tols), (report, pos, neg, glob) in zip(cases, expected):
        program = build_st_span_program(g.n, g.s, g.t)
        x = graph_input(g)
        f = input_factors(program, x, tols)
        mine = witness_report(f)
        for field in ("w_plus", "w_minus", "e_plus", "e_minus", "w_tilde_plus", "w_tilde_minus"):
            assert close(getattr(mine, field), getattr(report, field)), field
        for got, want in ((min_error_positive(f), pos),
                          (min_error_negative(f), neg),
                          (minimal_negative_value(program, tols), glob)):
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)

    # above the dense A's cap, where a_mat is refused: the path of 700
    # vertices has R_st = 699, and cut after vertex 350 its negative
    # witness is 1 on the 351 vertices of s's side, of size 2 * 351 * 349
    n = 700
    program = build_st_span_program(n, 0, n - 1)
    assert program.dim_v * program.dim_h > DENSE_A_ENTRY_CAP
    positive = witness_report(input_factors(program, graph_input(path_graph(n))))
    assert positive.w_plus == pytest.approx((n - 1) / 2, rel=1e-9)
    assert math.isfinite(positive.e_minus) and math.isfinite(positive.w_tilde_minus)
    negative = witness_report(input_factors(program, graph_input(path_graph(n, cut=350))))
    assert negative.w_minus == pytest.approx(2 * 351 * 349, rel=1e-9)
    assert math.isfinite(negative.e_plus) and math.isfinite(negative.w_tilde_plus)


def loop_walk(program, x):
    """Q_H and Q_perp block by block, every block with an explicit basis, as
    the walk was written before identity runs: the reference."""
    inside, outside = [], []
    for j, sym in enumerate(x):
        block = np.array(program.input_blocks[j], dtype=int)
        mat = program.subspaces.get((j, sym))
        if mat is None or not mat.size:
            inside.append((block, np.zeros((block.size, 0))))
            outside.append((block, np.eye(block.size)))
        else:
            col, comp = column_space_split(mat, DEFAULT_TOLS)
            inside.append((block, col))
            outside.append((block, comp))
    for side, whole in ((inside, program.true_block), (outside, program.false_block)):
        side.append((np.array(whole, dtype=int), np.eye(len(whole))))
    return inside, outside


def loop_restrict(mat, blocks):
    return np.concatenate([mat[:, block] @ basis for block, basis in blocks], axis=1)


def loop_lift(dim_h, blocks, coef):
    w, start = np.zeros(dim_h), 0
    for block, basis in blocks:
        w[block] = basis @ coef[start : start + basis.shape[1]]
        start += basis.shape[1]
    return w


def walked_programs():
    programs = {f"random-{s}": random_span_program(np.random.default_rng([13, s]))
                for s in range(20)}
    programs["or5"] = or_span_program(5)
    programs["st4"] = build_st_span_program(4, 0, 3)
    programs["st6-normalized"] = normalize(build_st_span_program(6, 2, 5))
    programs["st5-scaled"] = scale(build_st_span_program(5, 1, 4), 0.7)
    programs.update(degenerate_programs())
    return programs


def same_bits(mine, theirs):
    return mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("name", sorted(walked_programs()))
def test_identity_runs_match_the_block_by_block_walk(name):
    program = walked_programs()[name]
    rng = np.random.default_rng(14)
    inputs = list(all_inputs(program))
    if len(inputs) > 64:
        inputs = [inputs[k] for k in rng.choice(len(inputs), 64, replace=False)]
    for x in inputs:
        q_h, q_perp = subspace_blocks(program, x)
        ref_h, ref_perp = loop_walk(program, x)
        for mine, theirs in ((q_h, ref_h), (q_perp, ref_perp)):
            a_mine, a_ref = restrict(program.a_mat, mine), loop_restrict(program.a_mat, theirs)
            assert same_bits(a_mine, a_ref)
            coef = rng.standard_normal(a_ref.shape[1])
            assert same_bits(_lift(program.dim_h, mine, coef),
                             loop_lift(program.dim_h, theirs, coef))
            # consecutive identity blocks are merged: no two identity entries in a row
            kinds = [basis is None for _, basis in mine]
            assert not any(a and b for a, b in zip(kinds, kinds[1:]))
        proj = np.zeros((program.dim_h, program.dim_h))
        for block, basis in ref_h:
            proj[block[:, None], block] = basis @ basis.T
        assert same_bits(subspace_projector(program, x), proj)
        # and against the projector assembled from subspace_blocks' Q_H
        proj = np.zeros((program.dim_h, program.dim_h))
        for block, basis in q_h:
            if basis is None:
                proj[block, block] = 1.0
            else:
                proj[block[:, None], block] = basis @ basis.T
        assert same_bits(subspace_projector(program, x), proj)


def test_st_program_reads_h_x_and_c_x_as_one_gather():
    g = random_graph(np.random.default_rng(15), 12, 0.3)
    program = build_st_span_program(g.n, g.s, g.t)
    q_h, q_perp = subspace_blocks(program, graph_input(g))
    assert len(q_h) == 1 and q_h[0][1] is None
    assert len(q_perp) == 1 and q_perp[0][1] is None
    edges = np.flatnonzero(np.repeat(graph_input(g), 2))
    np.testing.assert_array_equal(q_h[0][0], edges)
    v_r = row_basis(program)
    assert same_bits(restrict(program.a_mat, q_h), program.a_mat[:, edges])
    assert same_bits(restrict(v_r.T, q_h), v_r.T[:, edges])


def keyed_store_twin(program):
    """program with its subspaces given as a dict keyed by (j, a), one
    zeros((2, 0)) and one eye(2) shared by every position as the builder
    once gave them, and the same incidence A, which both read through its
    Gram unless it is no wider than tall."""
    empty, whole = np.zeros((2, 0)), np.eye(2)
    keyed = {(j, a): whole if a else empty for j in range(program.n) for a in range(2)}
    twin = dataclasses.replace(program, subspaces=keyed)
    assert twin.a is program.a and isinstance(twin.a, Incidence)
    for p in (program, twin):
        assert (p.factorization().rows is None) == (p.dim_h > p.dim_v)
    return twin


def keyed_or_twin(program):
    """OR with its subspaces given as a dict keyed by (j, a), each position
    with arrays of its own, as or_span_program once gave them."""
    keyed = {(j, a): np.ones((1, 1)) if a else np.zeros((1, 0))
             for j in range(program.n) for a in range(2)}
    return dataclasses.replace(program, subspaces=keyed)


def store_case(family, n, rng):
    """A program with a per-symbol store, its twin with a store keyed by
    position, and the inputs to compare them on."""
    if family == "st":
        program = build_st_span_program(n, 0, n - 1)
        return program, keyed_store_twin(program), st_inputs(n, 0, n - 1, rng)
    program = or_span_program(n)
    inputs = list(all_inputs(program)) if n <= 4 else [
        tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(8)
    ]
    return program, keyed_or_twin(program), inputs


def same_blocks(mine, theirs):
    return len(mine) == len(theirs) and all(
        same_bits(c_mine, c_theirs)
        and (b_mine is None and b_theirs is None or same_bits(b_mine, b_theirs))
        for (c_mine, b_mine), (c_theirs, b_theirs) in zip(mine, theirs)
    )


def same_report(mine, theirs):
    fields = [field.name for field in dataclasses.fields(mine)]
    return all(
        same_bits(getattr(mine, name), getattr(theirs, name))
        if isinstance(getattr(mine, name), np.ndarray)
        else getattr(mine, name) == getattr(theirs, name)
        for name in fields
    )


@pytest.mark.parametrize(
    "family, n",
    [pytest.param("st", n, id=str(n)) for n in (2, 3, 4, 8, 16)]
    + [pytest.param("or", n, id=f"or-{n}") for n in (1, 2, 3, 4, 8)],
)
def test_per_symbol_store_matches_a_store_keyed_by_position(family, n):
    rng = np.random.default_rng([17, n])
    program, twin, inputs = store_case(family, n, rng)
    store, keyed = program.subspaces, twin.subspaces
    assert store is not keyed and len(store) == len(keyed) == 2 * program.n
    mine = store.layout(program.input_blocks, program.q)
    theirs = keyed.layout(twin.input_blocks, twin.q)
    # OR's twin holds n equal copies of each matrix, interned as one
    assert same_bits(mine.which, theirs.which)
    for x in inputs:
        for blocks_mine, blocks_theirs in zip(subspace_blocks(program, x), subspace_blocks(twin, x)):
            assert same_blocks(blocks_mine, blocks_theirs)
        f_mine, f_theirs = input_factors(program, x), input_factors(twin, x)
        assert same_bits(a_x(f_mine), a_x(f_theirs))
        assert same_bits(row_space_cross(f_mine).factor, row_space_cross(f_theirs).factor)
        assert same_report(witness_report(f_mine), witness_report(f_theirs))


def test_malformed_per_symbol_stores_are_refused():
    program = build_st_span_program(4, 0, 3)
    malformed = {
        "rows": {0: np.zeros((2, 0)), 1: np.eye(3)},
        "out of range": {0: np.zeros((2, 0)), 1: np.eye(2), 2: np.eye(2)},
    }
    for match, mats in malformed.items():
        store = Subspaces.per_symbol(program.n, mats)
        with pytest.raises(StructuralError, match=match):
            dataclasses.replace(program, subspaces=store)
    with pytest.raises(StructuralError, match="symbols"):
        Subspaces.per_symbol(program.n, {-1: np.eye(2)})
    with pytest.raises(StructuralError, match="out of range"):
        Subspaces({(0, -1): np.eye(2)})
    # one matrix per symbol, shared by every position, frozen once
    store = program.subspaces
    assert all(store[(j, 1)] is store[(0, 1)] for j in range(program.n))
    assert (program.n, 2) not in store and (0, 2) not in store and "key" not in store


def test_a_walk_of_decided_bases_sorts_no_ids(monkeypatch):
    program = build_st_span_program(6, 0, 5)
    x = graph_input(random_graph(np.random.default_rng(18), 6, 0.5))
    subspace_blocks(program, x)
    unique, calls = np.unique, []

    def counting(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    subspace_blocks(normalize(program), x)
    assert calls == []


def test_estimates_on_supplied_factors_form_no_row_basis(monkeypatch):
    # the st program reads A through its Gram, so no estimate forms V_r
    built, build = [], resistance.build_st_span_program

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(resistance, "build_st_span_program", recording)
    g = graph(8, [(0, 1), (1, 2), (2, 3), (3, 7), (0, 4), (4, 5), (5, 7), (2, 6)], 0, 7)
    for method, mu in ((EFFECTIVE_GAP, None), (REAL_GAP, lambda2(g))):
        report = estimate_resistance(g, 0.3, method, np.random.default_rng(2), QueryLedger(),
                                     mu=mu)
        assert report.queries > 0 and math.isfinite(report.estimate)
    assert len(built) == 2
    for program in built:
        assert DEFAULT_TOLS in program._factorizations
        assert program.factorization().rows is None


def test_the_st_builder_holds_one_a_and_no_copy_of_it():
    # A is two index arrays of dim_h entries; the dense 200 x 39,800 A (64 MB)
    # is formed nowhere
    n = 200
    dense_bytes = 8 * n * n * (n - 1)
    tracemalloc.start()
    try:
        program = build_st_span_program(n, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    a = program.a
    assert isinstance(a, Incidence)
    for arr in (a.plus, a.minus):
        assert not arr.flags.writeable and arr.flags.owndata
    assert peak <= 0.12 * dense_bytes
    small = build_st_span_program(5, 0, 4).a_mat
    assert not small.flags.writeable and small.flags.owndata


def column_gram_reference(a, cols):
    """A_c A_c^T as column_gram formed it with four n x n temporaries."""
    n = a.dim_v
    plus, minus = a.plus[cols], a.minus[cols]
    links = np.bincount(plus * n + minus, minlength=n * n).reshape(n, n)
    degrees = np.bincount(plus, minlength=n) + np.bincount(minus, minlength=n)
    return np.diag(degrees.astype(float)) - (links + links.T)


@pytest.fixture(scope="module")
def st_1000():
    """The st program on random_graph(default_rng(1000), 1000, 0.1), with
    its A's factorization, and the coordinates of its H(x)."""
    g = random_graph(np.random.default_rng(1000), 1000, 0.1)
    program = build_st_span_program(g.n, g.s, g.t)
    minimal_witness(program)
    return program, subspace_blocks(program, graph_input(g))[0][0][0]


def test_column_gram_is_formed_in_place_and_bit_identical(st_1000):
    rng = np.random.default_rng(11)
    for _ in range(50):
        n, m = int(rng.integers(2, 20)), int(rng.integers(0, 40))
        plus = rng.integers(0, n, m)
        a = Incidence(n, plus, (plus + rng.integers(1, n, m)) % n)
        for cols in (slice(None), np.flatnonzero(rng.random(m) < 0.5)):
            assert a.column_gram(cols).tobytes() == column_gram_reference(a, cols).tobytes()
    # G(x) at n = 1000 is 8 MB; the count array beside it is as large
    program, cols = st_1000
    reference = column_gram_reference(program.a, cols)
    tracemalloc.start()
    try:
        gram = program.a.column_gram(cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.tobytes() == reference.tobytes()
    assert peak <= 2.5 * gram.nbytes


def test_factoring_a_holds_about_four_arrays_the_size_of_w0():
    # A of the st program at n = 1000 is read through its Gram: U_r, w0 and
    # the two gathers of A^T u, each about w0's 8 MB, and no index array of
    # length dim_h; the whole of U is released before w0 is solved
    program = build_st_span_program(1000, 0, 999)
    tracemalloc.start()
    try:
        fact = program.factorization()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * fact.witness.w0.nbytes


def test_rescaling_the_target_scales_w0_without_a_second_copy(st_1000):
    program, _ = st_1000
    fact = program.factorization(DEFAULT_TOLS)
    w0 = fact.witness.w0
    tracemalloc.start()
    try:
        child = spanprog._rescaled(fact, 0.3, 0.3 * program.tau, DEFAULT_TOLS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scaled = child.witness.w0
    assert not scaled.flags.writeable and scaled.flags.owndata
    assert scaled.tobytes() == (0.3 * w0).tobytes()
    assert peak < 1.25 * w0.nbytes


def test_a_real_gap_estimate_at_n_200_holds_few_arrays_the_size_of_a():
    # at n = 200 a dense A would be 200 x 39,800 (64 MB); on the complete
    # graph A(x) and its right singular vectors would be as large, and the
    # estimate forms none of them
    g = complete_graph(200)
    mu = lambda2(g)
    a_bytes = 8 * g.n * g.n * (g.n - 1)
    tracemalloc.start()
    try:
        report = estimate_resistance(g, 0.2, REAL_GAP, np.random.default_rng(1), QueryLedger(),
                                     mu=mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.estimate == pytest.approx(report.exact, rel=0.2)
    assert peak <= 3.5 * a_bytes


LEAN_ESTIMATES = """
import sys
import numpy as np
from spanforge import oracle, resistance, spanprog
from spanforge.generators import random_graph
from spanforge.qsim import QueryLedger
from spanforge.resistance import estimate_resistance, lambda2, lower_bound_family

def forbidden(*args, **kwargs):
    raise AssertionError("an estimate formed the dense A")

spanprog.SpanProgram.a_mat = property(forbidden)
built, build = [], resistance.build_st_span_program

def recording(*args):
    built.append(build(*args))
    return built[-1]

resistance.build_st_span_program = recording
svd = np.linalg.svd

def narrow(mat, *args, **kwargs):
    # V_x comes only from an SVD of A(x), which is 2|E| wide
    assert max(np.shape(mat)) <= LIMIT, np.shape(mat)
    return svd(mat, *args, **kwargs)

np.linalg.svd = narrow

def refused(*args, **kwargs):
    raise AssertionError("an estimate reached spanforge.oracle")

# every public callable of spanforge.oracle, in every namespace that holds it
dense = {id(value) for name, value in vars(oracle).items()
         if callable(value) and not name.startswith("_")
         and getattr(value, "__module__", None) == oracle.__name__}
patched = set()
for name, module in list(sys.modules.items()):
    if name.split(".")[0] == "spanforge":
        for attr, value in list(vars(module).items()):
            if id(value) in dense:
                patched.add(id(value))
                setattr(module, attr, refused)
assert patched == dense, len(dense - patched)
for g in (lower_bound_family(16, 1, i=1, j=8), random_graph(np.random.default_rng(3), 24, 0.3)):
    LIMIT = g.n + 1
    for method in ("effective-gap", "real-gap"):
        mu = lambda2(g) if method == "real-gap" else None
        report = estimate_resistance(g, 0.3, method, np.random.default_rng(4), QueryLedger(), mu=mu)
        assert 0.0 < report.estimate < 2.0 * report.exact, report
# A is read through its Gram, so no V_r of A was formed
assert len(built) == 4 and all(program.factorization().rows is None for program in built)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_an_estimate_imports_no_scipy_and_forms_no_dense_a_or_v_x():
    # scipy.linalg alone adds about 20 MB of resident memory; both methods
    # run with every public callable of spanforge.oracle raising
    src = str(Path(spanprog.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", LEAN_ESTIMATES],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def count_svds(monkeypatch, shape):
    """A list that grows by one for every SVD of the given shape."""
    svd, seen = np.linalg.svd, []

    def recording(mat, *args, **kwargs):
        if np.shape(mat) == shape:
            seen.append(shape)
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


def count_eighs(monkeypatch, gram):
    """A list that grows by one for every eigh of a matrix equal to gram."""
    eigh, seen = np.linalg.eigh, []

    def recording(mat, *args, **kwargs):
        if np.shape(mat) == gram.shape and np.array_equal(mat, gram):
            seen.append(gram.shape)
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return seen


def test_scale_of_a_supplied_program_factors_its_own_a(monkeypatch):
    program = build_st_span_program(6, 0, 5)
    scaled = scale(program, 0.5)
    assert isinstance(scaled.a, np.ndarray)
    svds = count_svds(monkeypatch, scaled.a_mat.shape)
    fact = scaled.factorization()
    assert len(svds) == 1
    assert minimal_witness(scaled).n_plus == pytest.approx(1.0, rel=RTOL)
    assert fact.rows.shape == (scaled.dim_h, program.dim_v)


def test_rescale_target_and_normalize_keep_the_supplied_factors(monkeypatch):
    # normalize factors the parent, by one eigh of A A^T, and both children
    # share those factors
    program = build_st_span_program(7, 1, 3)
    svds = count_svds(monkeypatch, program.a_mat.shape)
    eighs = count_eighs(monkeypatch, program.a.gram())
    for child in (normalize(program), rescale_target(program, 3.0)):
        fact, parent = child.factorization(), program.factorization()
        assert fact.rows is None
        assert fact.col_basis is parent.col_basis and fact.sigma is parent.sigma
        assert validate(child).ok
    assert svds == [] and len(eighs) == 1
    # a copy by dataclasses.replace factors A anew: by one more eigh, or by
    # one SVD when A is dense
    dataclasses.replace(program).factorization()
    assert svds == [] and len(eighs) == 2
    dataclasses.replace(program, a=program.a_mat).factorization()
    assert len(svds) == 1 and len(eighs) == 2


def test_st_program_above_the_dense_cap_is_refused_before_allocating():
    assert issubclass(ProgramSizeError, SpanProgramError)
    assert issubclass(ProgramSizeError, ValueError)
    # the builder's cap is on dim_h = n (n - 1), the length of its vectors
    assert 2048 * 2047 <= INCIDENCE_DIM_H_CAP < 2049 * 2048
    for n in (2049, 5000):
        tracemalloc.start()
        try:
            with pytest.raises(ProgramSizeError, match="cap"):
                build_st_span_program(n, 0, 1)
            assert tracemalloc.get_traced_memory()[1] < 1e6
        finally:
            tracemalloc.stop()
    # the dense A of a program that is held keeps its own cap
    assert 500 * 500 * 499 <= DENSE_A_ENTRY_CAP < 646 * 646 * 645
    program = build_st_span_program(646, 0, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ProgramSizeError, match="cap"):
            program.a_mat
        assert tracemalloc.get_traced_memory()[1] < 1e6
    finally:
        tracemalloc.stop()


def test_cli_refuses_a_graph_too_large_for_a_dense_a(tmp_path, capsys):
    n = 2049
    path = tmp_path / "path2049.graph"
    path.write_text(f"{n} {n - 1} 1 {n}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n)))
    assert main(["resistance", "--graph", str(path), "--eps", "0.2",
                 "--method", "effective-gap"]) == 3
    assert "cap" in capsys.readouterr().err
