"""Witness-quantity computations on the OR program, graph programs, and
random ensembles, cross-checked against the independent KKT oracles."""

import dataclasses
import math

import numpy as np
import pytest

from spanforge import spanprog
from spanforge._linalg import DEFAULT_TOLS, Tolerances
from spanforge.generators import all_inputs, random_span_program
from spanforge.oracle import scale, subspace_projector
from spanforge.resistance import build_st_span_program
from spanforge.spanprog import (
    GloballyInfeasibleError,
    SpanProgram,
    StructuralError,
    input_factors,
    minimal_negative_value,
    minimal_witness,
    min_error_negative,
    min_error_positive,
    negative_witness,
    normalize,
    or_span_program,
    positive_witness,
    rescale_target,
    subspace_blocks,
    validate,
    witness_report,
)

from oracles import (
    oracle_min_error_negative,
    oracle_min_error_positive,
    oracle_negative_witness,
)
from test_input_route import degenerate_programs


def test_validate_or_program():
    assert validate(or_span_program(3)).ok


def test_validate_allows_overlapping_symbol_subspaces():
    # H_{j,0} and H_{j,1} share a vector: allowed, only joint spanning matters
    program = SpanProgram(
        n=1, q=2, dim_h=2, dim_v=1,
        input_blocks=((0, 1),), true_block=(), false_block=(),
        subspaces={(0, 0): np.array([[1.0], [0.0]]),
                   (0, 1): np.array([[1.0, 0.0], [0.0, 1.0]])},
        a=np.array([[1.0, 1.0]]), tau=np.array([1.0]),
    )
    assert validate(program).ok


def test_validate_reports_non_spanning_subspaces():
    program = SpanProgram(
        n=1, q=2, dim_h=2, dim_v=1,
        input_blocks=((0, 1),), true_block=(), false_block=(),
        subspaces={(0, 0): np.array([[1.0], [0.0]]),
                   (0, 1): np.array([[1.0], [0.0]])},
        a=np.array([[1.0, 1.0]]), tau=np.array([1.0]),
    )
    report = validate(program)
    assert not report.ok
    assert any("span" in f for f in report.failures())


def test_wrong_a_shape_is_structural_error():
    with pytest.raises(StructuralError):
        SpanProgram(
            n=1, q=2, dim_h=1, dim_v=1,
            input_blocks=((0,),), true_block=(), false_block=(),
            subspaces={(0, 1): np.array([[1.0]])},
            a=np.ones((1, 2)),  # dim_h + 1 columns
            tau=np.array([1.0]),
        )


def test_subspace_projector_or_examples():
    program = or_span_program(3)
    proj = subspace_projector(program, (1, 0, 1))
    np.testing.assert_allclose(proj, np.diag([1.0, 0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(
        subspace_projector(program, (0, 0, 0)), np.zeros((3, 3)), atol=1e-12
    )


def test_subspace_projector_true_false_blocks():
    # H_true coordinates always selected, H_false never, independent of x
    program = SpanProgram(
        n=1, q=2, dim_h=3, dim_v=1,
        input_blocks=((0,),), true_block=(1,), false_block=(2,),
        subspaces={(0, 0): np.zeros((1, 0)), (0, 1): np.array([[1.0]])},
        a=np.array([[1.0, 1.0, 1.0]]), tau=np.array([1.0]),
    )
    for x, want in [((0,), [0.0, 1.0, 0.0]), ((1,), [1.0, 1.0, 0.0])]:
        np.testing.assert_allclose(
            subspace_projector(program, x), np.diag(want), atol=1e-12
        )


def test_input_validation():
    program = or_span_program(3)
    with pytest.raises(StructuralError):
        subspace_projector(program, (1, 0))  # wrong length
    with pytest.raises(StructuralError):
        subspace_projector(program, (1, 0, 2))  # symbol out of range


def test_input_symbols_are_read_without_truncation():
    # Python and numpy ints and bools are symbols; a float is refused, not
    # read as the int it truncates to
    program = or_span_program(3)
    want = witness_report(input_factors(program, (1, 0, 0)))
    for x in ((True, 0, 0), (np.int8(1), np.int64(0), 0), (np.True_, np.False_, False),
              np.array([1, 0, 0])):
        got = program.check_input(x)
        assert got.tolist() == [1, 0, 0] and got.dtype == np.intp and not got.flags.writeable
        assert witness_report(input_factors(program, x)).w_plus == want.w_plus
    for x in ((0.9, 0, 0), (1.0, 0, 0), ("1", 0, 0), np.array([0.9, 0.0, 0.0])):
        with pytest.raises(StructuralError, match="integers"):
            witness_report(input_factors(program, x))


def test_minimal_witness_or():
    program = or_span_program(5)
    mw = minimal_witness(program)
    np.testing.assert_allclose(np.asarray(mw.w0), np.full(5, 0.2), atol=1e-12)
    assert mw.n_plus == pytest.approx(0.2, abs=1e-12)
    assert mw.n_plus * mw.n_minus == pytest.approx(1.0, abs=1e-12)


def test_minimal_witness_globally_infeasible():
    # tau outside col(A): A maps onto the first coordinate only
    program = SpanProgram(
        n=1, q=2, dim_h=1, dim_v=2,
        input_blocks=((0,),), true_block=(), false_block=(),
        subspaces={(0, 0): np.zeros((1, 0)), (0, 1): np.array([[1.0]])},
        a=np.array([[1.0], [0.0]]), tau=np.array([0.0, 1.0]),
    )
    with pytest.raises(GloballyInfeasibleError):
        minimal_witness(program)


def test_positive_witness_or():
    program = or_span_program(3)
    vec, w_plus = positive_witness(input_factors(program, (1, 1, 0)))
    assert w_plus == pytest.approx(0.5, rel=1e-12)
    np.testing.assert_allclose(np.asarray(vec), [0.5, 0.5, 0.0], atol=1e-12)
    # witness lies in H(x) and satisfies A w = tau exactly
    np.testing.assert_allclose(program.a_mat @ vec, program.tau, atol=1e-10)


def test_positive_witness_infeasible_is_inf():
    program = or_span_program(3)
    vec, w_plus = positive_witness(input_factors(program, (0, 0, 0)))
    assert vec is None and math.isinf(w_plus)


def test_negative_witness_or_all_zero():
    # frozen from the KKT oracle: w_- = n, omega A = the all-ones row
    program = or_span_program(4)
    row, w_minus = negative_witness(input_factors(program, (0, 0, 0, 0)))
    assert w_minus == pytest.approx(4.0, rel=1e-10)
    np.testing.assert_allclose(np.asarray(row), np.ones(4), atol=1e-10)


def test_negative_witness_positive_input_is_inf():
    program = or_span_program(4)
    row, w_minus = negative_witness(input_factors(program, (0, 1, 0, 0)))
    assert row is None and math.isinf(w_minus)


def test_min_error_positive_or_zero_string():
    # frozen from the KKT oracle: e_+ = 1/4 and the min-error witness is w0
    program = or_span_program(4)
    vec, e_plus, w_tilde = min_error_positive(input_factors(program, (0, 0, 0, 0)))
    assert e_plus == pytest.approx(0.25, rel=1e-10)
    assert w_tilde == pytest.approx(0.25, rel=1e-10)
    _, w_minus = negative_witness(input_factors(program, (0, 0, 0, 0)))
    assert w_minus * e_plus == pytest.approx(1.0, rel=1e-10)


def test_min_error_positive_on_positive_input_reduces_to_witness():
    program = or_span_program(4)
    vec, e_plus, w_tilde = min_error_positive(input_factors(program, (1, 0, 1, 0)))
    assert e_plus == pytest.approx(0.0, abs=1e-12)
    assert w_tilde == pytest.approx(0.5, rel=1e-10)


def test_min_error_negative_or():
    # frozen from the KKT oracle: e_- = |x| = 2, w_tilde_- = n = 4
    program = or_span_program(4)
    row, e_minus, w_tilde = min_error_negative(input_factors(program, (1, 1, 0, 0)))
    assert e_minus == pytest.approx(2.0, rel=1e-10)
    assert w_tilde == pytest.approx(4.0, rel=1e-10)
    _, w_plus = positive_witness(input_factors(program, (1, 1, 0, 0)))
    assert w_plus * e_minus == pytest.approx(1.0, rel=1e-10)


def test_min_error_negative_on_negative_input_reduces_to_witness():
    program = or_span_program(4)
    row, e_minus, w_tilde = min_error_negative(input_factors(program, (0, 0, 0, 0)))
    assert e_minus == pytest.approx(0.0, abs=1e-12)
    assert w_tilde == pytest.approx(4.0, rel=1e-10)


def test_min_error_negative_rejects_zero_target():
    program = SpanProgram(
        n=1, q=2, dim_h=1, dim_v=1,
        input_blocks=((0,),), true_block=(), false_block=(),
        subspaces={(0, 0): np.zeros((1, 0)), (0, 1): np.array([[1.0]])},
        a=np.array([[1.0]]), tau=np.array([0.0]),
    )
    with pytest.raises(StructuralError):
        min_error_negative(input_factors(program, (1,)))


@pytest.mark.parametrize("seed", range(25))
def test_witness_quantities_match_kkt_oracles(seed):
    rng = np.random.default_rng([seed, 101])
    program = random_span_program(rng)
    for x in all_inputs(program):
        rep = witness_report(input_factors(program, x))
        assert math.isinf(rep.w_plus) != math.isinf(rep.w_minus)
        e_plus, w_tilde_plus, _ = oracle_min_error_positive(program, x)
        assert rep.e_plus == pytest.approx(e_plus, rel=1e-7, abs=1e-9)
        assert rep.w_tilde_plus == pytest.approx(w_tilde_plus, rel=1e-7, abs=1e-9)
        e_minus, w_tilde_minus, _ = oracle_min_error_negative(program, x)
        assert rep.e_minus == pytest.approx(e_minus, rel=1e-7, abs=1e-9)
        assert rep.w_tilde_minus == pytest.approx(w_tilde_minus, rel=1e-7, abs=1e-9)
        w_minus, _ = oracle_negative_witness(program, x)
        if math.isinf(w_minus):
            assert math.isinf(rep.w_minus)
        else:
            assert rep.w_minus == pytest.approx(w_minus, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_duality_products_random(seed):
    rng = np.random.default_rng([seed, 102])
    program = random_span_program(rng)
    for x in all_inputs(program):
        rep = witness_report(input_factors(program, x))
        if math.isfinite(rep.w_minus):
            assert abs(rep.w_minus * rep.e_plus - 1.0) <= 1e-8 * rep.w_minus
        else:
            assert abs(rep.w_plus * rep.e_minus - 1.0) <= 1e-8 * rep.w_plus


@pytest.mark.parametrize("seed", range(8))
def test_positive_witness_feasibility_residuals(seed):
    # the returned witness lies in H(x) and satisfies A w = tau coordinatewise
    rng = np.random.default_rng([seed, 105])
    program = random_span_program(rng)
    for x in all_inputs(program):
        vec, w_plus = positive_witness(input_factors(program, x))
        if math.isinf(w_plus):
            continue
        proj = subspace_projector(program, x)
        assert np.max(np.abs(program.a_mat @ vec - program.tau)) <= 1e-10
        assert np.max(np.abs(vec - proj @ vec)) <= 1e-10


def test_global_minimal_negative_witness_identities():
    for seed in range(10):
        program = random_span_program(np.random.default_rng([seed, 103]))
        mw = minimal_witness(program)
        row, n_minus = minimal_negative_value(program)
        assert mw.n_plus * n_minus == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(
            np.asarray(row), np.asarray(mw.w0) / mw.n_plus, atol=1e-8
        )


def test_normalize_or():
    program = or_span_program(4)
    normalized = normalize(program)
    assert minimal_witness(normalized).n_plus == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(normalized.tau, [2.0], atol=1e-12)  # tau / sqrt(1/4)
    # positive witness sizes scale by 1/N+
    _, w_before = positive_witness(input_factors(program, (1, 0, 0, 0)))
    _, w_after = positive_witness(input_factors(normalized, (1, 0, 0, 0)))
    assert w_after == pytest.approx(w_before / minimal_witness(program).n_plus, rel=1e-10)


def test_normalize_idempotent():
    program = normalize(or_span_program(5))
    again = normalize(program)
    np.testing.assert_allclose(again.tau, program.tau, atol=1e-12)


def test_scale_witness_relations():
    program = or_span_program(4)
    n_plus = minimal_witness(program).n_plus
    for beta in (0.25, 1.0, 4.0):
        scaled = scale(program, beta)
        mw = minimal_witness(scaled)
        assert mw.n_plus == pytest.approx(1.0, abs=1e-10)
        # fresh coordinates sit at the end: h0 then h1
        w0 = np.asarray(mw.w0)
        assert w0[program.dim_h] == pytest.approx(n_plus / (beta**2 + n_plus), rel=1e-10)
        assert w0[program.dim_h + 1] == pytest.approx(
            beta / math.sqrt(beta**2 + n_plus), rel=1e-10
        )
        _, w_minus = negative_witness(input_factors(scaled, (0, 0, 0, 0)))
        assert w_minus == pytest.approx(beta**2 * 4.0 + 1.0, rel=1e-8)
        _, w_plus = positive_witness(input_factors(scaled, (1, 1, 0, 0)))
        expect = 0.5 / beta**2 + beta**2 / (n_plus + beta**2)
        assert w_plus == pytest.approx(expect, rel=1e-8)


def test_scale_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        scale(or_span_program(2), 0.0)


def test_scale_min_error_inequalities_random():
    for seed in range(8):
        program = random_span_program(np.random.default_rng([seed, 104]))
        for beta in (0.25, 1.0, 4.0):
            scaled = scale(program, beta)
            for x in all_inputs(program):
                rep = witness_report(input_factors(program, x))
                rep_s = witness_report(input_factors(scaled, x))
                if math.isfinite(rep.w_minus):
                    assert rep_s.w_tilde_plus <= rep.w_tilde_plus / beta**2 + 2.0 + 1e-8
                else:
                    assert rep_s.w_tilde_minus <= beta**2 * rep.w_tilde_minus + 2.0 + 1e-8


def test_tolerance_override_changes_feasibility_cut():
    # a slightly perturbed target is accepted only under a loose tolerance
    program = or_span_program(3)
    perturbed = SpanProgram(
        n=3, q=2, dim_h=3, dim_v=2,
        input_blocks=program.input_blocks, true_block=(), false_block=(),
        subspaces=dict(program.subspaces),
        a=np.vstack([np.ones(3), np.zeros(3)]),
        tau=np.array([1.0, 1e-6]),
    )
    _, w_strict = positive_witness(input_factors(perturbed, (1, 1, 1)))
    assert math.isinf(w_strict)
    loose = Tolerances(rank_rtol=1e-10, membership_rtol=1e-2)
    _, w_loose = positive_witness(input_factors(perturbed, (1, 1, 1), tols=loose))
    assert math.isfinite(w_loose)


def test_factorization_belongs_to_each_derived_program():
    # scale builds a new A, so its programs factor their own and match a fresh
    # rebuild exactly; normalize and rescale_target keep A and share the
    # parent's factors, with w0 scaled by the factor, which agrees with a
    # rebuild to rounding
    parents = [or_span_program(4)] + [
        random_span_program(np.random.default_rng([seed, 105])) for seed in range(4)
    ]
    for parent in parents:
        mw_parent = minimal_witness(parent)
        n_parent = mw_parent.n_plus
        children = {
            "normalize": (normalize(parent), 1.0 / math.sqrt(n_parent)),
            "scale-0.25": (scale(parent, 0.25), None),
            "scale-4": (scale(parent, 4.0), None),
            "rescale-3": (rescale_target(parent, 3.0), 3.0),
        }
        for name, (child, factor) in children.items():
            assert child.subspaces is parent.subspaces, name
            mw = minimal_witness(child)
            rebuilt = minimal_witness(dataclasses.replace(child))
            if factor is None:
                assert child.factorization() is not parent.factorization(), name
                np.testing.assert_array_equal(mw.w0, rebuilt.w0, err_msg=name)
                assert mw.n_plus == rebuilt.n_plus, name
                continue
            assert child.factorization().row_basis is parent.factorization().row_basis, name
            np.testing.assert_array_equal(mw.w0, factor * mw_parent.w0, err_msg=name)
            np.testing.assert_allclose(mw.w0, rebuilt.w0, rtol=0.0,
                                       atol=1e-12 * np.linalg.norm(rebuilt.w0), err_msg=name)
            assert mw.n_plus == pytest.approx(rebuilt.n_plus, rel=1e-12), name
        assert minimal_witness(children["rescale-3"][0]).n_plus == pytest.approx(9.0 * n_parent)
        for name in ("normalize", "scale-0.25", "scale-4"):
            assert minimal_witness(children[name][0]).n_plus == pytest.approx(1.0)


def _perturbed_or3() -> SpanProgram:
    # tau is off col(A) by 1e-6: infeasible by default, feasible when loose
    program = or_span_program(3)
    return SpanProgram(
        n=3, q=2, dim_h=3, dim_v=2,
        input_blocks=program.input_blocks, true_block=(), false_block=(),
        subspaces=dict(program.subspaces),
        a=np.vstack([np.ones(3), np.zeros(3)]),
        tau=np.array([1.0, 1e-6]),
    )


def test_factorization_is_kept_per_tolerances():
    loose = Tolerances(rank_rtol=1e-10, membership_rtol=1e-2)
    for order in ((DEFAULT_TOLS, loose), (loose, DEFAULT_TOLS)):
        program = _perturbed_or3()
        for tols in order:
            _, w_plus = positive_witness(input_factors(program, (1, 1, 1), tols=tols))
            if tols is loose:
                assert minimal_witness(program, tols).n_plus == pytest.approx(1.0 / 3.0)
                assert math.isfinite(w_plus)
            else:
                with pytest.raises(GloballyInfeasibleError):
                    minimal_witness(program, tols)
                assert math.isinf(w_plus)


LOOSE = Tolerances(rank_rtol=1e-6, membership_rtol=1e-2)

INHERITANCE_PROGRAMS = {
    **{f"random-{seed}": lambda seed=seed: random_span_program(np.random.default_rng([seed, 109]))
       for seed in range(20)},
    **{f"st-{n}": lambda n=n: build_st_span_program(n, 0, n - 1) for n in (4, 8, 9, 16)},
    "or-5": lambda: or_span_program(5),
    **{f"degenerate-{name}": lambda name=name: degenerate_programs()[name]
       for name in degenerate_programs()},
    "perturbed-or3": _perturbed_or3,
}


def assert_factorizations_agree(inherited, fresh, rtol=1e-12):
    assert inherited.infeasible == fresh.infeasible
    # tau's _TargetFactors come from the parent's factors of A (_rescaled)
    # and from the rebuild's own (_factorize), with the same bits
    mine, theirs = inherited.target, fresh.target
    assert (mine.y_hat is None) == (theirs.y_hat is None)
    if theirs.y_hat is not None:
        assert mine.y_hat.tobytes() == theirs.y_hat.tobytes()
    assert (mine.n_val, mine.sigma_min, mine.tau2) == (theirs.n_val, theirs.sigma_min, theirs.tau2)
    np.testing.assert_allclose(inherited.sigma, fresh.sigma, rtol=rtol, atol=0.0)
    assert inherited.sigma_max == pytest.approx(fresh.sigma_max, rel=rtol)
    for name in ("row_basis", "col_basis"):
        mine, theirs = getattr(inherited, name), getattr(fresh, name)
        np.testing.assert_allclose(mine @ mine.T, theirs @ theirs.T, rtol=0.0, atol=rtol)
    assert (inherited.witness is None) == (fresh.witness is None)
    if fresh.witness is not None:
        mine, theirs = inherited.witness, fresh.witness
        np.testing.assert_allclose(mine.w0, theirs.w0, rtol=0.0,
                                   atol=rtol * np.linalg.norm(theirs.w0))
        assert mine.n_plus == pytest.approx(theirs.n_plus, rel=rtol)
        assert mine.n_minus == pytest.approx(theirs.n_minus, rel=rtol)


@pytest.mark.parametrize("name", sorted(INHERITANCE_PROGRAMS))
def test_inherited_factorization_matches_a_fresh_one(name):
    # the parent factors under both Tolerances, in either order; each program
    # derived by rescale_target or normalize shares those factors and must
    # agree with a rebuild that factors its own
    for order in ((DEFAULT_TOLS, LOOSE), (LOOSE, DEFAULT_TOLS)):
        parent = INHERITANCE_PROGRAMS[name]()
        for tols in order:
            parent.factorization(tols)
        children = [rescale_target(parent, 3.0), rescale_target(parent, 0.37)]
        children += [normalize(parent, tols) for tols in order
                     if parent.factorization(tols).witness is not None]
        for child in children:
            fresh = dataclasses.replace(child)
            for tols in order:
                inherited = child.factorization(tols)
                assert inherited.row_basis is parent.factorization(tols).row_basis
                assert_factorizations_agree(inherited, fresh.factorization(tols))


def test_rescaled_program_factors_unseen_tolerances_and_keeps_infeasibility():
    parent = _perturbed_or3()
    parent.factorization(DEFAULT_TOLS)
    child = rescale_target(parent, 3.0)
    # infeasible under the default: the child keeps the parent's reason
    assert child.factorization().infeasible == parent.factorization().infeasible
    assert "not in col(A)" in child.factorization().infeasible
    with pytest.raises(GloballyInfeasibleError, match="not in col"):
        minimal_witness(child)
    # the parent never factored under LOOSE, so the child factors afresh
    fresh = dataclasses.replace(child).factorization(LOOSE)
    own = child.factorization(LOOSE)
    np.testing.assert_array_equal(own.witness.w0, fresh.witness.w0)
    assert own.witness.n_plus == fresh.witness.n_plus
    assert own.row_basis is not parent.factorization(LOOSE).row_basis


def test_subspace_store_is_shared_read_only_and_never_stale(monkeypatch):
    # derived programs share the parent's store, so the bases of H_{j,a} are
    # decided once per Tolerances; only calls on store matrices are counted
    program = normalize(random_span_program(np.random.default_rng([2, 106]), max_q=2))
    child = scale(program, 0.5)
    mats = [m for m in program.subspaces.values() if m.size]
    split = spanprog.column_space_split
    calls = []

    def counting(mat, *args, **kwargs):
        calls.extend(k for k, m in enumerate(mats) if m is mat)
        return split(mat, *args, **kwargs)

    monkeypatch.setattr(spanprog, "column_space_split", counting)
    for target in (program, child):
        for x in all_inputs(target):
            witness_report(input_factors(target, x))
    # an exact identity is decided without an SVD
    general = [k for k, m in enumerate(mats)
               if m.shape[0] != m.shape[1] or not np.array_equal(m, np.eye(m.shape[0]))]
    assert 0 < len(general) < len(mats)
    assert sorted(calls) == general
    calls.clear()
    for target in (program, child, program, child):
        for x in all_inputs(target):
            witness_report(input_factors(target, x))
    assert calls == []

    # neither the matrices nor their bases can be written
    or3 = or_span_program(3)
    with pytest.raises(TypeError):
        or3.subspaces[(0, 1)] = np.zeros((1, 0))
    with pytest.raises(ValueError):
        or3.subspaces[(0, 1)][0, 0] = 2.0
    # OR's bases are identities, which a walk hands out as coordinates
    # alone; every other basis it hands out is a read-only stored one
    assert all(basis is None for side in subspace_blocks(or3, (1, 0, 0)) for _, basis in side)
    handed_out = [
        basis
        for target in (program, child)
        for x in all_inputs(target)
        for side in subspace_blocks(target, x)
        for _, basis in side
        if basis is not None
    ]
    assert handed_out
    for basis in handed_out:
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0

    # a program given other subspaces gets its own store, not the old bases
    assert positive_witness(input_factors(or3, (1, 0, 0)))[1] == pytest.approx(1.0)
    other = dict(or3.subspaces)
    other[(0, 1)] = np.zeros((1, 0))
    changed = dataclasses.replace(or3, subspaces=other)
    assert changed.subspaces is not or3.subspaces
    assert math.isinf(positive_witness(input_factors(changed, (1, 0, 0)))[1])
    assert positive_witness(input_factors(or3, (1, 0, 0)))[1] == pytest.approx(1.0)


@pytest.mark.parametrize("field", ["rank_rtol", "membership_rtol"])
@pytest.mark.parametrize("value", [-1.0, 0.0, 1.0, 2.0, math.nan])
def test_tolerances_outside_the_unit_interval_are_refused(field, value):
    with pytest.raises(ValueError, match="tolerances"):
        Tolerances(**{field: value})
