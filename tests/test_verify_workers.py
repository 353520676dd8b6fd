"""verify's trials spread over forked workers: the checks equal the in-process
run's bit for bit, the reduction keeps max()'s order-sensitive cases, a
trial's exception and a worker's death reach the caller, no process outlives
run_suite, workers inherit the caller's monkeypatches, a daemonic caller runs
in-process, a suite gets workers only where each has enough trials, and
the CLI names the workers it used.  The spectral and kappa trials, which
factor each input once and decompose each unitary once, match the per-call
route of tests/oracles.py bit for bit."""

import dataclasses
import functools
import math
import multiprocessing
import os
import signal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import per_call_kappa_trial, per_call_spectral_trial
from spanforge import oracle, spanprog, verify
from spanforge._linalg import DEFAULT_TOLS
from spanforge.cli import main
from spanforge.generators import all_inputs, random_span_program
from spanforge.oracle import decompose_orthogonal


def fields(checks):
    return [(c.name, c.passed, c.observed.hex(), c.tolerance.hex(), c.detail) for c in checks]


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the trial helper reads."""
    return lambda n: monkeypatch.setattr(verify, "_usable_cpus", lambda: n)


@pytest.fixture
def one_trial_floor(monkeypatch):
    """Give a worker as few as one trial of each suite that may run on
    workers, so that short runs take the pool path."""
    for name, suite in verify._TRIAL_SUITES.items():
        if suite.floor is not None:
            monkeypatch.setitem(verify._TRIAL_SUITES, name, dataclasses.replace(suite, floor=1))


@pytest.fixture
def small_pools(cpus, one_trial_floor):
    cpus(2)


@pytest.mark.parametrize("seed", [1, 2])
def test_pool_and_in_process_runs_give_identical_checks(cpus, one_trial_floor, seed):
    cpus(1)
    assert verify.suite_workers("all", 12) == 1
    serial = verify.run_suite("all", trials=12, dims=8, seed=seed)
    cpus(2)
    assert verify.suite_workers("all", 12) == 2
    pooled = verify.run_suite("all", trials=12, dims=8, seed=seed)
    assert len(serial) == 37
    assert fields(pooled) == fields(serial)
    assert multiprocessing.active_children() == []


floats = st.one_of(st.sampled_from([0.0, -0.0, math.nan, -math.inf, math.inf]),
                   st.floats(allow_nan=True, allow_infinity=True))


@given(trials=st.lists(st.lists(floats, max_size=4), min_size=1, max_size=6),
       start=st.sampled_from([0.0, -0.0, -math.inf]))
@example(trials=[[-0.0], [math.nan, 0.0]], start=-math.inf)  # the first of equal maxima stays
@example(trials=[[0.0, -0.0], [-0.0]], start=-0.0)
def test_fold_of_per_trial_maxima_is_the_serial_max(trials, start):
    serial = functools.reduce(max, [v for trial in trials for v in trial], start)
    partials = [(functools.reduce(max, trial, start), len(trial)) for trial in trials]
    folded, count = verify._fold(partials, (start, 0))
    assert (math.isnan(folded) and math.isnan(serial)) or (
        folded == serial and math.copysign(1.0, folded) == math.copysign(1.0, serial))
    assert count == sum(len(trial) for trial in trials)


def test_a_trials_exception_reaches_the_caller_and_no_worker_outlives_it(small_pools, monkeypatch):
    assert verify.run_suite("duality", trials=6, seed=1)
    assert multiprocessing.active_children() == []
    trial_fn = verify._duality_trial

    def refuse_trial_3(seed, trial, tols):
        if trial == 3:
            raise ArithmeticError(f"trial {trial} of seed {seed} refused")
        return trial_fn(seed, trial, tols)

    monkeypatch.setattr(verify, "_duality_trial", refuse_trial_3)
    with pytest.raises(ArithmeticError) as info:
        verify.run_suite("duality", trials=6, seed=1)
    assert type(info.value) is ArithmeticError
    assert str(info.value) == "trial 3 of seed 1 refused"
    assert "refuse_trial_3" in str(info.value.__cause__)  # the worker's traceback
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_raises_and_leaves_no_process(small_pools, monkeypatch):
    trial_fn = verify._duality_trial

    def die_on_trial_2(seed, trial, tols):
        if trial == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return trial_fn(seed, trial, tols)

    monkeypatch.setattr(verify, "_duality_trial", die_on_trial_2)
    with pytest.raises(ChildProcessError, match="died running trial 2"):
        verify.run_suite("duality", trials=6, seed=1)
    assert multiprocessing.active_children() == []


def test_workers_inherit_a_monkeypatched_estimator(small_pools, monkeypatch):
    # as test_verify_refuses_gram_route_factors_off_by_one_part_in_1e9, with
    # the trials on two workers
    assert verify._workers("kappa", 8) == 2
    gram_factors = spanprog._gram_factors

    def skewed(gram, tols, a_scale=None):
        u, sigma, top = gram_factors(gram, tols, a_scale)
        if a_scale is None:
            sigma, top = sigma * (1.0 + 1e-9), top * (1.0 + 1e-9)
        return u, sigma, top

    monkeypatch.setattr(spanprog, "_gram_factors", skewed)
    (check,) = [c for c in verify.run_suite("kappa", 32, seed=1)
                if c.name == "kappa/graph-singular-values"]
    assert not check.passed and check.observed == pytest.approx(1e-9, rel=1e-3)


def test_a_daemonic_caller_runs_in_process(small_pools):
    expected = fields(verify.run_suite("all", trials=8, dims=8, seed=1))
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(verify.suite_workers, ("all", 8)).get(timeout=60) == 1
        checks = pool.apply_async(verify.run_suite, ("all", 8, 8, 1)).get(timeout=120)
    assert fields(checks) == expected


@pytest.mark.parametrize("usable, suite, trials, workers", [
    (2, "all", 50, 1),  # every suite below its floor: duality 32, the rest 8 to 512 of a quarter
    (2, "duality", 63, 1),
    (2, "duality", 64, 2),
    (2, "spectral", 63, 1),  # spectral runs trials // 4, at least 8 to a worker
    (2, "spectral", 64, 2),
    (2, "scaling", 127, 1),
    (2, "scaling", 128, 2),
    (2, "kappa", 4095, 1),  # kappa runs trials // 4, at least 512 to a worker
    (2, "kappa", 4096, 2),
    (2, "szegedy", 10_000, 1),  # szegedy always runs in-process
    (2, "appendixB", 10_000, 1),
    (2, "all", 200, 2),
    (64, "duality", 200, 6),
    (64, "all", 200, 6),  # spectral's 50 trials give 6 too
    (64, "kappa", 10_000, 4),
    (1, "all", 10_000, 1),
])
def test_suite_workers_keeps_each_suites_floor(cpus, usable, suite, trials, workers):
    cpus(usable)
    assert verify.suite_workers(suite, trials) == workers


def test_cli_names_its_workers_and_writes_the_same_report(cpus, tmp_path, capsys):
    args = ["verify", "--suite", "duality", "--trials", "64", "--seed", "4", "--out"]
    lines = {}
    for n in (1, 2):
        cpus(n)
        assert main(args + [str(tmp_path / f"{n}.json")]) == 0
        lines[n] = capsys.readouterr().err.strip()
    assert lines[1].endswith("on 1 worker") and lines[2].endswith("on 2 workers")
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()


# (seed, trial) pairs: (0, 0), (0, 20), (1, 27), (3, 34) and (3, 35) draw
# programs with 81 inputs, and the spectral trials of (0, 1), (0, 9), (0, 20),
# (1, 10), (2, 2) and (3, 34) meet inputs with A(x) = 0
PER_CALL_PAIRS = [(0, 0), (0, 20), (1, 27), (3, 34), (3, 35), (0, 1), (0, 9), (1, 10),
                  (2, 2), (0, 11), (2, 21), (1, 0)]


def test_per_call_pairs_hold_an_81_input_program_and_an_input_with_a_x_zero():
    programs = [random_span_program(verify._rng(seed, trial)) for seed, trial in PER_CALL_PAIRS]
    assert max(len(list(all_inputs(p))) for p in programs) == 81
    assert any(spanprog.input_factors(p, x).sigma.size == 0
               for p in programs for x in all_inputs(p))


@pytest.mark.parametrize("seed, trial", [(0, 0), (0, 1), (1, 10), (3, 35)])
def test_each_unitary_is_decomposed_once(monkeypatch, seed, trial):
    # a spectral trial decomposes U and U' once per input, and the raw
    # lemma's reflection product once; a kappa trial decomposes nothing; a
    # szegedy trial decomposes its reflection product once, and -U not at all
    calls = []

    def counted(u_mat):
        calls.append(u_mat.shape)
        return decompose_orthogonal(u_mat)

    monkeypatch.setattr(verify, "decompose_orthogonal", counted)
    monkeypatch.setattr(oracle, "decompose_orthogonal", counted)
    inputs = len(list(all_inputs(random_span_program(verify._rng(seed, trial)))))
    for trial_fn, expected in ((verify._spectral_trial, 2 * inputs + 1),
                               (verify._kappa_trial, 0)):
        calls.clear()
        trial_fn(seed, trial, DEFAULT_TOLS)
        assert len(calls) == expected
    calls.clear()
    verify._szegedy_trial(seed, trial, 8, DEFAULT_TOLS)
    assert len(calls) == 1


@pytest.mark.parametrize("seed, trial", PER_CALL_PAIRS)
def test_trials_match_the_per_call_route_bit_for_bit(seed, trial):
    for trial_fn, per_call in ((verify._spectral_trial, per_call_spectral_trial),
                               (verify._kappa_trial, per_call_kappa_trial)):
        mine = trial_fn(seed, trial, DEFAULT_TOLS)
        theirs = per_call(seed, trial, DEFAULT_TOLS)
        assert [v.hex() for v in mine] == [v.hex() for v in theirs]
