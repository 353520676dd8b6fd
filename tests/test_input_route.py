"""Every per-input quantity comes from A(x) = A Q_H: differential tests
against the dense projector route, guards that the estimators never reach
the dense oracle (at run time, and in the import graph), and the memory the
per-input route allocates."""

import ast
import inspect
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanforge
from spanforge import algorithms, oracle, spanprog, spectral
from spanforge.algorithms import NEGATIVE, POSITIVE, gap_estimate, witness_estimate
from spanforge.generators import all_inputs, random_span_program
from spanforge.oracle import (
    DENSE_DIM_CAP,
    OracleSizeError,
    build_U,
    build_Uprime,
    kernel_projector,
    scale,
    subspace_projector,
)
from spanforge.qsim import QueryLedger
from spanforge.resistance import (
    build_st_span_program,
    complete_graph,
    estimate_resistance,
    graph,
    graph_input,
    lambda2,
)
from spanforge.spanprog import (
    InputFactors,
    SpanProgram,
    input_factors,
    minimal_witness,
    normalize,
    or_span_program,
    positive_witness,
    restrict,
    subspace_blocks,
    validate,
    witness_report,
)
from spanforge.spectral import RowSpaceCross, kappa_bound

from oracles import (
    oracle_min_error_negative,
    oracle_min_error_positive,
    oracle_negative_witness,
)

RTOL = 1e-10


def assert_close(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert np.linalg.norm(actual - expected) <= RTOL * np.linalg.norm(expected)


def dense_positive_witness(program, x):
    """(A Pi)^+ tau, or None when tau is outside col(A Pi)."""
    ax = program.a_mat @ subspace_projector(program, x)
    w = np.linalg.pinv(ax, rcond=1e-10) @ program.tau
    if np.linalg.norm(ax @ w - program.tau) > 1e-8 * np.linalg.norm(program.tau):
        return None
    return w


def dense_kappa_bound(program, x):
    """2 sigma_min(A Pi) / sigma_max(A), or None when A Pi = 0."""
    a_max = np.linalg.svd(program.a_mat, compute_uv=False)[0]
    s = np.linalg.svd(program.a_mat @ subspace_projector(program, x), compute_uv=False)
    s = s[s > 1e-10 * a_max]
    return 2.0 * s[-1] / a_max if s.size else None


def assert_matches_dense_references(program, x):
    rep = witness_report(input_factors(program, x))
    w_ref = dense_positive_witness(program, x)
    assert (w_ref is None) == math.isinf(rep.w_plus)
    if w_ref is None:
        w_minus, row = oracle_negative_witness(program, x)
        assert rep.w_minus == pytest.approx(w_minus, rel=RTOL)
        e_plus, w_tilde_plus, w_tilde = oracle_min_error_positive(program, x)
        assert rep.e_plus == pytest.approx(e_plus, rel=RTOL)
        assert rep.w_tilde_plus == pytest.approx(w_tilde_plus, rel=RTOL)
        assert_close(rep.witness_vec, w_tilde)
        assert_close(rep.neg_witness_row, row)
    else:
        assert math.isinf(rep.w_minus)
        assert rep.w_plus == pytest.approx(float(w_ref @ w_ref), rel=RTOL)
        assert_close(rep.witness_vec, w_ref)
        e_minus, w_tilde_minus, row = oracle_min_error_negative(program, x)
        assert rep.e_minus == pytest.approx(e_minus, rel=RTOL)
        assert rep.w_tilde_minus == pytest.approx(w_tilde_minus, rel=RTOL)
        assert_close(rep.neg_witness_row, row)

    bound_ref = dense_kappa_bound(program, x)
    if bound_ref is None:
        with pytest.raises(ValueError):
            kappa_bound(input_factors(program, x))
    else:
        assert kappa_bound(input_factors(program, x)) == pytest.approx(bound_ref, rel=RTOL)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_witnesses_match_dense_references_on_random_programs(seed):
    program = random_span_program(np.random.default_rng(seed))
    for x in all_inputs(program):
        assert_matches_dense_references(program, x)


def degenerate_programs():
    # an input position with no coordinates, so every symbol there is empty;
    # at x = (0, 0) every symbol is empty and H(x) = H_true
    empty_symbols = SpanProgram(
        n=2, q=2, dim_h=3, dim_v=2,
        input_blocks=((0,), ()), true_block=(1,), false_block=(2,),
        subspaces={(0, 0): np.zeros((1, 0)), (0, 1): np.ones((1, 1)),
                   (1, 0): np.zeros((0, 0)), (1, 1): np.zeros((0, 0))},
        a=np.array([[1.0, 1.0, 2.0], [0.0, 1.0, -1.0]]),
        tau=np.array([2.0, 1.0]),
    )
    # equal rows: at x = (1, 1, 0) A(x) = [[1, 1], [1, 1]] has rank 1, and x
    # is positive
    rank_deficient = SpanProgram(
        n=3, q=2, dim_h=3, dim_v=2,
        input_blocks=((0,), (1,), (2,)), true_block=(), false_block=(),
        subspaces={(j, a): np.ones((1, a)) for j in range(3) for a in range(2)},
        a=np.ones((2, 3)),
        tau=np.array([1.0, 1.0]),
    )
    # dim H(x) = 1 + |x| < dim_v when |x| <= 1, so A(x) is taller than wide
    # and its SVD returns a full U; x = (0, 0, 1) is positive, (0, 0, 0) is not
    tall = SpanProgram(
        n=3, q=2, dim_h=4, dim_v=3,
        input_blocks=((0,), (1,), (2,)), true_block=(3,), false_block=(),
        subspaces={(j, a): np.ones((1, a)) for j in range(3) for a in range(2)},
        a=np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]]),
        tau=np.array([1.0, 1.0, 2.0]),
    )
    return {
        "or-empty-hx": or_span_program(3),  # x = (0, 0, 0): H(x) is empty
        "empty-symbols": empty_symbols,
        "scaled-true-and-false": scale(or_span_program(3), 0.5),
        "scaled-random": scale(random_span_program(np.random.default_rng(7)), 2.0),
        "rank-deficient": rank_deficient,
        "tall-a-x": tall,
    }


@pytest.mark.parametrize("name", sorted(degenerate_programs()))
def test_witnesses_match_dense_references_on_degenerate_programs(name):
    program = degenerate_programs()[name]
    assert validate(program).ok
    for x in all_inputs(program):
        assert_matches_dense_references(program, x)


def test_degenerate_programs_reach_their_cases():
    programs = degenerate_programs()
    assert np.allclose(subspace_projector(programs["or-empty-hx"], (0, 0, 0)), 0.0)
    only_true = subspace_projector(programs["empty-symbols"], (0, 0))
    assert np.allclose(only_true, np.diag([0.0, 1.0, 0.0]))
    deficient = programs["rank-deficient"]
    _, w_plus = positive_witness(input_factors(deficient, (1, 1, 0)))
    assert w_plus == pytest.approx(0.5, rel=RTOL)
    ax = deficient.a_mat @ subspace_projector(deficient, (1, 1, 0))
    assert np.linalg.matrix_rank(ax) == 1
    tall = programs["tall-a-x"]
    for x, positive in (((0, 0, 1), True), ((0, 0, 0), False)):
        factors = input_factors(tall, x)
        assert factors.a_x.shape[1] < tall.dim_v
        assert factors.positive == positive
        assert factors.col_basis.shape[1] + factors.complement.shape[1] == tall.dim_v


def test_witness_report_takes_one_svd_of_a_x(monkeypatch):
    program = random_span_program(np.random.default_rng([1, 7]))
    minimal_witness(program)  # A's own SVD is per program
    svd = np.linalg.svd
    seen = []

    def recording(mat, *args, **kwargs):
        seen.append(np.array(mat, copy=True))
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    signs = set()
    for x in all_inputs(program):
        ax = restrict(program.a_mat, subspace_blocks(program, x)[0])
        seen.clear()
        rep = witness_report(input_factors(program, x))
        signs.add(math.isfinite(rep.w_plus))
        assert sum(m.shape == ax.shape and np.array_equal(m, ax) for m in seen) == 1
    assert signs == {True, False}


def test_dense_oracle_refuses_programs_above_the_cap_before_allocating():
    program = build_st_span_program(70, 0, 1)
    assert program.dim_h == 4830 > DENSE_DIM_CAP
    assert issubclass(OracleSizeError, ValueError)
    x = graph_input(complete_graph(70, s=0, t=1))
    calls = (
        lambda: subspace_projector(program, x),
        lambda: kernel_projector(program),
        lambda: build_U(program, x),
        lambda: build_Uprime(program, x),
    )
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(OracleSizeError, match="dim_h = 4830 .* 4096"):
                call()
            assert tracemalloc.get_traced_memory()[1] < 20e6
        finally:
            tracemalloc.stop()


# the modules an estimate runs through; none of them may import spanforge.oracle
ESTIMATOR_MODULES = ("_linalg", "spanprog", "spectral", "qsim", "algorithms", "resistance")


def oracle_callables() -> set:
    """The ids of the public functions and classes spanforge.oracle defines."""
    return {
        id(value) for name, value in vars(oracle).items()
        if callable(value) and not name.startswith("_")
        and getattr(value, "__module__", None) == oracle.__name__
    }


@pytest.fixture
def dense_oracle_forbidden(monkeypatch):
    """Replace every public callable of spanforge.oracle in every spanforge
    namespace that holds it, so any call on the estimator path raises."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an estimator reached the dense oracle")

    dense = oracle_callables()
    assert {id(oracle.build_U), id(oracle.scale), id(oracle.OracleSizeError)} <= dense
    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "spanforge" or name.startswith("spanforge."):
            for attr, value in list(vars(module).items()):
                if id(value) in dense:
                    patched.add(id(value))
                    monkeypatch.setattr(module, attr, forbidden)
    assert patched == dense


def oracle_imports(source: str) -> list[str]:
    """The import statements of a spanforge module's source that reach
    spanforge.oracle, relatively or absolutely, and any attribute named
    oracle it reads (spanforge.oracle after a bare import spanforge)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[:2] == ["spanforge", "oracle"]]
        elif isinstance(node, ast.ImportFrom):
            parts = (["spanforge"] if node.level else []) + (node.module or "").split(".")
            parts = [p for p in parts if p]
            names = [a.name for a in node.names]
            if parts[:2] == ["spanforge", "oracle"] or (parts == ["spanforge"] and "oracle" in names):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and node.attr == "oracle":
            found.append(ast.unparse(node))
    return found


def test_the_import_check_sees_every_form_of_importing_the_oracle():
    for line in ("from .oracle import build_U", "from . import oracle",
                 "from . import spectral, oracle", "import spanforge.oracle",
                 "import spanforge.oracle as o", "from spanforge import oracle",
                 "from spanforge.oracle import scale", "def f():\n    from .oracle import scale",
                 "import spanforge\nspanforge.oracle.scale"):
        assert oracle_imports(line), line
    for line in ("from .spectral import measure_U", "from . import spectral",
                 "import spanforge.spectral", "from spanforge.spanprog import oracle_free"):
        assert not oracle_imports(line), line


@pytest.mark.parametrize("module", ESTIMATOR_MODULES)
def test_no_estimator_module_imports_the_oracle(module):
    source = (Path(oracle.__file__).parent / f"{module}.py").read_text()
    assert oracle_imports(source) == []


# each per-input quantity is one function of x's InputFactors, or of the
# RowSpaceCross built from them; these are the private twins it replaced
PER_INPUT = {
    spanprog.positive_witness: InputFactors,
    spanprog.negative_witness: InputFactors,
    spanprog.min_error_positive: InputFactors,
    spanprog.min_error_negative: InputFactors,
    spanprog.witness_report: InputFactors,
    spectral.kappa_bound: InputFactors,
    spectral.measure_U: RowSpaceCross,
    spectral.measure_Uprime: RowSpaceCross,
    algorithms.decision_context: RowSpaceCross,
}
TWINS = {"_exact_positive", "_exact_negative", "_min_error_positive", "_min_error_negative",
         "_witness_report", "_kappa_bound", "_round_context"}


def twin_imports(source: str) -> list[str]:
    """The import statements of a module's source that bring in one of
    TWINS, and any attribute of that name it reads, walked as
    oracle_imports walks them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and TWINS & {
            name for a in node.names for name in (a.name, a.asname)
        }:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and node.attr in TWINS:
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("fn", list(PER_INPUT), ids=lambda fn: fn.__name__)
def test_a_per_input_quantity_takes_the_factors_alone(fn):
    params = inspect.signature(fn, eval_str=True).parameters.values()
    required = [p for p in params if p.default is p.empty and p.name != "spec"]
    assert [p.annotation for p in required] == [PER_INPUT[fn]]


def test_no_module_imports_a_private_twin():
    assert twin_imports("from .spanprog import _exact_negative, input_factors")
    assert twin_imports("from . import algorithms\nalgorithms._round_context(c, s)")
    assert not twin_imports("from .spanprog import negative_witness")
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        assert twin_imports(path.read_text()) == [], path.name
    assert "input_factors" in spanforge.__all__
    assert spanforge.input_factors is spanprog.input_factors


def test_estimators_never_reach_the_dense_oracle(dense_oracle_forbidden):
    rng = np.random.default_rng(3)
    g = graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3), (1, 4)], s=0, t=5)
    for method, mu in (("effective-gap", None), ("real-gap", lambda2(g))):
        report = estimate_resistance(g, 0.25, method, rng, QueryLedger(), mu=mu)
        assert math.isfinite(report.estimate) and report.queries > 0

    or4 = normalize(or_span_program(4))
    for x, side in (((1, 1, 0, 0), POSITIVE), ((0, 0, 0, 0), NEGATIVE)):
        result = witness_estimate(or4, x, 0.25, side, rng, QueryLedger())
        assert result.queries > 0

    # st-connectivity on a path and on the same path cut in two: one input
    # of each sign, with the kappa bound as the phase-gap bound
    program = normalize(build_st_span_program(4, 0, 3))
    for edges, side in (([(0, 1), (1, 2), (2, 3)], POSITIVE), ([(0, 1), (2, 3)], NEGATIVE)):
        x = graph_input(graph(4, edges, s=0, t=3))
        delta = kappa_bound(input_factors(program, x))
        result = gap_estimate(program, x, 0.25, delta, side, rng, QueryLedger())
        assert result.queries > 0


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_per_input_route_allocates_no_dim_h_squared_array():
    # K_48: dim_h = 2256, so one dense dim_h x dim_h array takes 40.7 MB
    program = normalize(build_st_span_program(48, 0, 1))
    x = graph_input(complete_graph(48, s=0, t=1))
    minimal_witness(program)  # A's factorization is per program, not per input
    assert peak_bytes(lambda: positive_witness(input_factors(program, x))) < 10e6
    assert peak_bytes(lambda: kappa_bound(input_factors(program, x))) < 10e6
