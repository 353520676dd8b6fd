"""Inputs and coordinate blocks as read-only index arrays: the check_input
contract, the blocks a program holds, the tuple and array forms of one
input giving the same bits, and the memory the st program holds."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanforge.generators import all_inputs, random_graph, random_span_program
from spanforge.qsim import QueryLedger
from spanforge.resistance import build_st_span_program, estimate_resistance, graph, graph_input
from spanforge.spanprog import (
    InputFactors,
    SpanProgram,
    StructuralError,
    input_factors,
    or_span_program,
    rescale_target,
    validate,
    witness_report,
)
from spanforge.spectral import measure_U, measure_Uprime, row_space_cross

from oracles import subspace_blocks


def same_bits(mine, theirs):
    return mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


def empty_program():
    """A program with no input positions: H(x) is H_true whatever x is."""
    return SpanProgram(
        n=0, q=2, dim_h=1, dim_v=1, input_blocks=(), true_block=(0,), false_block=(),
        subspaces={}, a=np.ones((1, 1)), tau=np.ones(1),
    )


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64, bool])
def test_check_input_takes_integer_and_bool_arrays(dtype):
    program = or_span_program(3)
    got = program.check_input(np.array([1, 0, 1], dtype=dtype))
    assert got.tolist() == [1, 0, 1] and got.dtype == np.intp and not got.flags.writeable


@pytest.mark.parametrize(
    "x",
    [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.9, 0.0, 0.0]),
        np.array(["1", "0", "0"]),
        np.array([1, 0, 0], dtype=object),
        (1, 0, 0.5),
        (2**70, 0, 0),
        (1, 0, None),
        ((1,), 0, 0),
    ],
    ids=["float", "fraction", "str", "object", "tuple-float", "2**70", "none", "ragged"],
)
def test_check_input_refuses_other_symbols(x):
    with pytest.raises(StructuralError, match="integers"):
        or_span_program(3).check_input(x)


@pytest.mark.parametrize(
    "x, match",
    [
        (np.array([[1, 0, 0]]), "one-dimensional"),
        (np.array([[1], [0], [0]]), "one-dimensional"),
        ((1, 0), "length"),
        (np.array([1, 0, 0, 0]), "length"),
        ((1, 0, 2), r"\[0, 2\)"),
        ((1, -1, 0), r"\[0, 2\)"),
        (np.array([1, -1, 0], dtype=np.int8), r"\[0, 2\)"),
        (np.array([1, 2**64 - 1, 0], dtype=np.uint64), r"\[0, 2\)"),
        (np.array([1, 2**63, 0], dtype=np.uint64), r"\[0, 2\)"),
    ],
)
def test_check_input_refuses_shapes_lengths_and_symbols_out_of_range(x, match):
    with pytest.raises(StructuralError, match=match):
        or_span_program(3).check_input(x)


def test_check_input_takes_the_empty_input_of_a_program_without_positions():
    program = empty_program()
    for x in ((), [], np.array([]), np.zeros(0, dtype=np.uint8)):
        got = program.check_input(x)
        assert got.shape == (0,) and got.dtype == np.intp and not got.flags.writeable
    with pytest.raises(StructuralError, match="length"):
        program.check_input((0,))
    assert witness_report(input_factors(program, ())).w_plus == pytest.approx(1.0)


def test_check_input_keeps_a_held_array_and_copies_a_writeable_one():
    program = or_span_program(3)
    caller = np.array([1, 0, 0])
    held = program.check_input(caller)
    assert held is not caller and not held.flags.writeable and caller.flags.writeable
    assert program.check_input(held) is held
    # a read-only view does not own its data, whose owner may still write it
    view = caller[:]
    view.setflags(write=False)
    assert program.check_input(view) is not view

    cross = row_space_cross(input_factors(program, caller))
    caller[:] = (0, 1, 1)  # the caller writes its array after the build
    assert cross.inputs.x.tolist() == [1, 0, 0]


def outcome(fn, *args):
    """fn(*args), or the type of what it raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err)


def assert_same_bits(mine, theirs):
    if isinstance(mine, type) or isinstance(theirs, type):
        assert mine is theirs
        return
    names = [field.name for field in dataclasses.fields(mine)]
    if isinstance(mine, InputFactors):
        names.append("q_perp")  # walked on first read, not a field
    for name in names:
        a, b = getattr(mine, name), getattr(theirs, name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert same_bits(a, b), name
        elif name in ("q_h", "q_perp"):
            assert len(a) == len(b) and all(
                same_bits(ca, cb) and (ba is None and bb is None or same_bits(ba, bb))
                for (ca, ba), (cb, bb) in zip(a, b)
            ), name
        elif not isinstance(a, (SpanProgram,)) and name != "a":
            assert a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b)), name


def assert_forms_agree(program, x):
    """The tuple and array forms of x give the same bits everywhere."""
    forms = (tuple(int(a) for a in x), np.array(x), np.array(x, dtype=np.int8))
    routes = (
        lambda p, x: witness_report(input_factors(p, x)),
        input_factors,
        lambda p, x: measure_U(row_space_cross(input_factors(p, x))),
        lambda p, x: measure_Uprime(row_space_cross(input_factors(p, x))),
    )
    for fn in routes:
        want = outcome(fn, program, forms[0])
        for form in forms[1:]:
            assert_same_bits(outcome(fn, program, form), want)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_tuple_and_array_inputs_agree_on_random_programs(seed):
    program = random_span_program(np.random.default_rng(seed))
    for x in all_inputs(program):
        assert_forms_agree(program, x)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=3, max_value=9))
def test_tuple_and_array_inputs_agree_on_st_programs(seed, n):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, float(rng.uniform(0.2, 0.9)))
    assert_forms_agree(build_st_span_program(n, g.s, g.t), graph_input(g))


def test_blocks_are_held_as_index_arrays_once():
    rows = ((0, 1), (2,), (), (3, 4, 5))
    program = SpanProgram(
        n=4, q=2, dim_h=7, dim_v=1, input_blocks=rows, true_block=(6,), false_block=(),
        subspaces={(j, 1): np.eye(len(rows[j])) for j in range(4)}, a=np.ones((1, 7)),
        tau=np.ones(1),
    )
    blocks = program.input_blocks
    assert [block.tolist() for block in blocks] == [list(row) for row in rows]
    assert blocks.width is None and blocks.sizes.tolist() == [2, 1, 0, 3]
    for arr in (blocks.coords, blocks.sizes, blocks.starts):
        assert arr.dtype == np.intp and not arr.flags.writeable
    assert validate(program).ok
    # a derived program holds the same blocks, and its store's layout is kept
    layout = program.subspaces.layout(blocks, program.q)
    child = rescale_target(program, 2.0)
    assert child.input_blocks is blocks
    assert child.subspaces.layout(child.input_blocks, child.q) is layout

    # one width: no per-block arrays, from tuples or from an (n, width) array
    for given in (((0, 1), (2, 3)), np.array([[0, 1], [2, 3]], dtype=np.int32)):
        twin = dataclasses.replace(
            program, n=2, dim_h=4, input_blocks=given, true_block=(), a=np.ones((1, 4)),
            subspaces={(j, 1): np.eye(2) for j in range(2)},
        )
        assert twin.input_blocks.width == 2 and twin.input_blocks.sizes is None
        assert twin.input_blocks.coords.tolist() == [0, 1, 2, 3]
        assert validate(twin).ok
    with pytest.raises(StructuralError, match="integer array"):
        dataclasses.replace(program, input_blocks=np.zeros((4, 1)))


@pytest.mark.parametrize(
    "blocks, true_block",
    [(((0, 1), (1, 2)), (3,)), (((0, 1), (2,)), (4,)), (((0, 1), (2, 3)), (3,))],
    ids=["overlap", "gap", "overlap-true"],
)
def test_validate_refuses_blocks_that_do_not_partition(blocks, true_block):
    program = SpanProgram(
        n=2, q=2, dim_h=4, dim_v=1, input_blocks=blocks, true_block=true_block,
        false_block=(), subspaces={(j, 1): np.eye(len(blocks[j])) for j in range(2)},
        a=np.ones((1, 4)), tau=np.ones(1),
    )
    checks = {name: passed for name, passed, _ in validate(program).checks}
    assert checks["blocks-disjoint-cover"] is False


def test_st_program_and_input_hold_little_memory():
    # A's two index arrays take 16 MB at n = 1000; the blocks add one
    # arange(dim_h) (8 MB) and x one intp per pair (4 MB).  A tuple of
    # C(n, 2) pairs, and the per-block arrays of a layout, held 104 MB.
    n = 1000
    g = graph(n, [(v, v + 1) for v in range(n - 1)])
    tracemalloc.start()
    try:
        program = build_st_span_program(n, 0, n - 1)
        x = graph_input(g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 32e6, held
    q_h, _ = subspace_blocks(program, x)
    assert len(q_h) == 1 and q_h[0][1] is None and q_h[0][0].size == 2 * (n - 1)


def test_an_estimate_walks_st_connectivity_once(monkeypatch):
    from spanforge import resistance

    calls = []
    walk = resistance.Graph.connected_st

    def counted(g):
        calls.append(g)
        return walk(g)

    monkeypatch.setattr(resistance.Graph, "connected_st", counted)
    g = graph(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 5), (4, 5)])
    mu = resistance.lambda2(g)
    calls.clear()
    for method, kwargs in (("effective-gap", {}), ("real-gap", {"mu": mu})):
        report = estimate_resistance(g, 0.3, method, np.random.default_rng(1), QueryLedger(),
                                     **kwargs)
        assert len(calls) == 1 and math.isfinite(report.estimate)
        calls.clear()
    cut = graph(6, [(0, 1), (2, 5)])
    report = estimate_resistance(cut, 0.3, "effective-gap", np.random.default_rng(1),
                                 QueryLedger())
    assert len(calls) == 1 and report.flags == ("disconnected",)
    assert resistance.exact_resistance(cut) == math.inf


def test_tau_in_factors_is_held_per_program_and_not_handed_to_a_rescaled_one():
    program = or_span_program(4)
    x = (1, 0, 1, 0)
    f = input_factors(program, x)
    first, second = row_space_cross(f).target, row_space_cross(f).target
    assert first is second  # computed once per Factorization
    child = rescale_target(program, 3.0)
    target = row_space_cross(input_factors(child, x)).target
    assert target.n_val == pytest.approx(9.0 * first.n_val, rel=1e-12)
    assert target.tau2 == pytest.approx(9.0 * first.tau2, rel=1e-12)
    np.testing.assert_allclose(target.y_hat, first.y_hat, rtol=1e-12)
