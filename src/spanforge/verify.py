"""Seeded property suites checking the package's theorem-level identities.

Each suite draws its instances from per-task substreams ((seed, task index)
seeded generators), aggregates worst-case residuals, and returns a flat list
of checks; the CLI turns them into a report and its exit code.

The trial-driven suites (all but appendixB) split into a per-trial function,
which returns that trial's worst values and counts, and a reduction of those
in trial order with the serial loop's max() and += from the same starting
values.  So every check, observed value included, is bit-identical whatever
the number of processes.

The trials of duality, spectral, scaling and kappa run in a pool of forked
processes, handed out one at a time: min(usable CPUs, trials // floor) of
them, the usable CPUs read from os.sched_getaffinity.  The floor
(_MIN_TRIALS_PER_WORKER) is 32 duality, 8 spectral or 16 scaling or kappa
trials, 160 to 270 ms of work against the 30 ms a worker costs to fork and
join.  On 2 cores each of these suites at twice its floor took 0.43 to 0.91
of its in-process time over seeds 0 to 2.  Everything else runs in-process:
a suite with fewer trials, a platform without sched_getaffinity, a caller
that is itself a daemonic process (a multiprocessing.Pool worker may not
start children), and every szegedy trial.  A szegedy trial at small dims
takes about 1 ms, and from about dims=64 numpy's BLAS spreads its calls over
threads of its own, which workers on every CPU would oversubscribe (2
workers on 2 cores took 0.9 to 27 s where the in-process loop took 0.1 to
0.7 s at dims=128).  The other suites' programs are small enough that BLAS
never starts a thread for them, so each worker keeps to one CPU.

The pool starts no thread in the parent, and every worker is forked before
the first trial is sent, so no Python thread is alive at a fork on any
supported Python version.  Fork lets the workers inherit the caller's state
(a monkeypatched function, a blocked import).  Each worker holds its own
copy of what it writes, so memory grows with the worker count.  CPython 3.12
and later issue a DeprecationWarning when a process with live OS threads
forks.  numpy's OpenBLAS starts its threads at import; the bundled
libscipy_openblas64_ registers openblas_fork_handler through pthread_atfork,
which stops them around the fork.  The warning is left as it is.
"""

from __future__ import annotations

import math
import operator
import os
import traceback
from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_TOLS, Tolerances, svd_factors
from .generators import (
    all_inputs,
    random_graph,
    random_projector_pair,
    random_span_program,
)
from .resistance import _spectral_oracle, build_st_span_program, graph_input
from .resistance import witness_equals_half_resistance
from .oracle import build_U, build_U_and_Uprime, decompose_orthogonal, discriminant, scale
from .oracle import flow_resistance_bruteforce, intersection_dims, subspace_projector
from .oracle import verify_reflection_factorization
from .qsim import outcome_zero_probability
from .spanprog import input_factors, minimal_negative_value, minimal_witness, normalize
from .spanprog import witness_report
from .spectral import kappa_bound, measure_U, measure_Uprime, row_space_cross

THETA_GRID = [0.05 * k for k in range(1, 31)]
PE_GRIDS = (2, 16, 256)  # phase-estimation grid sizes the estimator path is compared on


@dataclass(frozen=True)
class Check:
    """One verified claim: observed worst-case quantity against its tolerance."""

    name: str
    passed: bool
    observed: float
    tolerance: float
    detail: str = ""


def _rng(seed: int, task: int) -> np.random.Generator:
    return np.random.default_rng([seed, task])


def _residual_check(name: str, observed: float, tol: float, detail: str = "") -> Check:
    return Check(name=name, passed=bool(observed <= tol), observed=float(observed),
                 tolerance=float(tol), detail=detail)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


# the fewest trials a worker is given, per suite: forking a worker and
# joining it costs about 30 ms, and on one core of a 2-core machine a
# duality trial takes 5 to 6 ms, a spectral trial 23 to 25 ms, a scaling
# trial 16 to 17 ms and a kappa trial 10 ms (the mean of trials 0-63 at
# seeds 0-2).  szegedy, absent here, runs in-process (see the module
# docstring).
_MIN_TRIALS_PER_WORKER = {"duality": 32, "spectral": 8, "scaling": 16, "kappa": 16}


def _workers(suite: str, trials: int) -> int:
    """Processes that the suite's `trials` trials run on; 1 means in-process.
    A daemonic process (a multiprocessing.Pool worker) may not start
    children."""
    floor = _MIN_TRIALS_PER_WORKER.get(suite)
    workers = min(_usable_cpus(), trials // floor) if floor else 1
    if workers < 2:
        return 1
    import multiprocessing  # paid only by a run that may start a pool

    return 1 if multiprocessing.current_process().daemon else workers


def _serve_trials(conn, fn, seed: int, args: tuple) -> None:
    """A pool worker, until it is terminated: run each trial number received
    and send back (True, result) or (False, exception, traceback text)."""
    while True:
        trial = conn.recv()
        try:
            conn.send((True, fn(seed, trial, *args)))
        except Exception as exc:
            conn.send((False, exc, traceback.format_exc()))


def _map_trials(suite: str, fn, trials: int, seed: int, *args) -> list:
    """[fn(seed, trial, *args) for trial in range(trials)], in trial order.

    With more than one worker the trials run on forked processes, handed out
    one at a time because their costs differ.  The workers inherit fn and
    args by the fork, so neither is pickled; only the trial numbers and the
    results are.  A trial's exception is raised here, with the worker's
    traceback as its cause; a worker that dies raises ChildProcessError.
    The workers are terminated and joined before this returns or raises."""
    workers = _workers(suite, trials)
    if workers == 1:
        return [fn(seed, trial, *args) for trial in range(trials)]
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for _ in range(workers):
            conn, child_conn = context.Pipe()
            proc = context.Process(target=_serve_trials, args=(child_conn, fn, seed, args),
                                   daemon=True)
            proc.start()
            child_conn.close()  # the worker's death now reads as EOF on conn
            procs.append(proc)
            conns.append(conn)
        results = [None] * trials
        running = {}  # connection -> the trial its worker runs
        todo = iter(range(trials))
        ready = conns
        while True:
            for conn in ready:
                trial = next(todo, None)
                if trial is None:
                    break
                conn.send(trial)
                running[conn] = trial
            if not running:
                return results
            ready = wait(list(running))
            for conn in ready:
                trial = running.pop(conn)
                try:
                    reply = conn.recv()
                except EOFError:
                    raise ChildProcessError(f"a verify worker died running trial {trial}") from None
                if not reply[0]:
                    raise reply[1] from ChildProcessError(f"trial {trial} raised:\n{reply[2]}")
                results[trial] = reply[1]
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _fold(partials, start: tuple) -> list:
    """Reduce per-trial tuples into start, in trial order: a float slot keeps
    its running max (as the serial loop's max() would), an int slot counts."""
    out = list(start)
    for partial in partials:
        out = [acc + value if isinstance(acc, int) else max(acc, value)
               for acc, value in zip(out, partial)]
    return out


def _duality_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """One duality trial: its worst residuals and its partition violations."""
    worst_neg = worst_pos = worst_vec_neg = worst_vec_pos = 0.0
    worst_nn = worst_mwvec = 0.0
    partition_violations = 0
    program = random_span_program(_rng(seed, trial))
    mw = minimal_witness(program, tols)
    row0, n_minus = minimal_negative_value(program, tols)
    worst_nn = max(worst_nn, abs(mw.n_plus * n_minus - 1.0))
    worst_mwvec = max(
        worst_mwvec,
        float(np.max(np.abs(np.asarray(row0) - np.asarray(mw.w0) / mw.n_plus))),
    )
    for x in all_inputs(program):
        rep = witness_report(input_factors(program, x, tols))
        if math.isinf(rep.w_plus) == math.isinf(rep.w_minus):
            partition_violations += 1
            continue
        proj = subspace_projector(program, x, tols)
        if math.isfinite(rep.w_minus):
            worst_neg = max(worst_neg, abs(rep.w_minus * rep.e_plus - 1.0) / rep.w_minus)
            err = (np.eye(program.dim_h) - proj) @ np.asarray(rep.witness_vec)
            pred = err / float(err @ err)
            worst_vec_neg = max(
                worst_vec_neg,
                float(np.max(np.abs(np.asarray(rep.neg_witness_row) - pred))),
            )
        else:
            worst_pos = max(worst_pos, abs(rep.w_plus * rep.e_minus - 1.0) / rep.w_plus)
            row = np.asarray(rep.neg_witness_row)
            on_x = row @ proj
            pred = (proj @ row) / float(on_x @ on_x)
            worst_vec_pos = max(
                worst_vec_pos,
                float(np.max(np.abs(np.asarray(rep.witness_vec) - pred))),
            )
    return (worst_neg, worst_pos, worst_vec_neg, worst_vec_pos, worst_nn, worst_mwvec,
            partition_violations)


def suite_duality(trials: int, seed: int, tols: Tolerances = DEFAULT_TOLS) -> list[Check]:
    """Witness-size/error reciprocity and the optimal-witness vector identities
    on random programs, every input enumerated."""
    (worst_neg, worst_pos, worst_vec_neg, worst_vec_pos, worst_nn, worst_mwvec,
     partition_violations) = _fold(_map_trials("duality", _duality_trial, trials, seed, tols),
                                   (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0))
    return [
        Check("duality/partition", partition_violations == 0, float(partition_violations), 0.0,
              "exactly one of w+, w- finite per input"),
        _residual_check("duality/neg-size-times-pos-error", worst_neg, 1e-8,
                        "relative deviation of w- * e+ from 1 on negative inputs"),
        _residual_check("duality/pos-size-times-neg-error", worst_pos, 1e-8,
                        "relative deviation of w+ * e- from 1 on positive inputs"),
        _residual_check("duality/neg-witness-vector-identity", worst_vec_neg, 1e-8,
                        "(omega A)^dag vs normalized off-subspace error of the min-error witness"),
        _residual_check("duality/pos-witness-vector-identity", worst_vec_pos, 1e-8,
                        "w_x vs normalized on-subspace part of the min-error negative witness"),
        _residual_check("duality/minimal-witness-reciprocal", worst_nn, 1e-8,
                        "N+ * N- = 1 with N- from the global quadratic program"),
        _residual_check("duality/minimal-witness-vector", worst_mwvec, 1e-8,
                        "(omega0 A)^dag = w0 / N+"),
    ]


def _spectral_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """One spectral trial's worst residuals, in suite_spectral's order."""
    worst_p0_neg = worst_p0_pos = 0.0
    worst_measure_u = worst_measure_up = 0.0
    worst_th_neg = worst_th_pos = -math.inf
    worst_raw = -math.inf
    rng = _rng(seed, trial)
    program = normalize(random_span_program(rng), tols)
    w0 = np.asarray(minimal_witness(program, tols).w0)
    grid = [0.0] + THETA_GRID  # the fixed space, then the Theta grid
    for x in all_inputs(program):
        # one factoring of A(x) serves the witness report and both measures
        f = input_factors(program, x, tols)
        rep = witness_report(f)
        cross = row_space_cross(f)
        dec, decp = build_U_and_Uprime(program, x, tols)
        worst_measure_u = max(
            worst_measure_u, _measure_gap(measure_U(cross), dec.measure(w0))
        )
        if math.isfinite(rep.w_plus):
            worst_measure_up = max(
                worst_measure_up, _measure_gap(measure_Uprime(cross), decp.measure(w0))
            )
        inv_wm = 0.0 if math.isinf(rep.w_minus) else 1.0 / rep.w_minus
        inv_wp = 0.0 if math.isinf(rep.w_plus) else 1.0 / rep.w_plus
        p0, *small = dec.small_phase_projectors(grid)
        p0p, *smallp = decp.small_phase_projectors(grid)
        worst_p0_neg = max(worst_p0_neg, abs(float(w0 @ p0 @ w0) - inv_wm))
        worst_p0_pos = max(worst_p0_pos, abs(float(w0 @ p0p @ w0) - inv_wp))
        for theta, proj, projp in zip(THETA_GRID, small, smallp):
            lhs = float(w0 @ proj @ w0)
            worst_th_neg = max(
                worst_th_neg, lhs - (theta**2 / 4.0 * rep.w_tilde_plus + inv_wm)
            )
            lhs = float(w0 @ projp @ w0)
            worst_th_pos = max(
                worst_th_pos, lhs - (theta**2 / 4.0 * rep.w_tilde_minus + inv_wp)
            )
    # raw overlap lemma on a random reflection pair from the same stream
    dim = int(rng.integers(3, 9))
    pi_a, pi_b = random_projector_pair(rng, dim)
    u_dec = decompose_orthogonal((2.0 * pi_a - np.eye(dim)) @ (2.0 * pi_b - np.eye(dim)))
    vec = rng.standard_normal(dim)
    vec -= pi_a @ vec  # now Pi_A vec = 0
    if np.linalg.norm(vec) > 1e-9:
        on_b = pi_b @ vec
        for theta, proj in zip(THETA_GRID, u_dec.small_phase_projectors(THETA_GRID)):
            lhs = float(np.linalg.norm(proj @ on_b))
            worst_raw = max(worst_raw, lhs - theta / 2.0 * float(np.linalg.norm(vec)))
    return (worst_p0_neg, worst_p0_pos, worst_th_neg, worst_th_pos, worst_raw,
            worst_measure_u, worst_measure_up)


def suite_spectral(trials: int, seed: int, tols: Tolerances = DEFAULT_TOLS) -> list[Check]:
    """Fixed-space overlaps and the effective-spectral-gap inequalities on
    normalized random programs, the estimator path's spectral measures
    against the dense oracle's, plus the raw two-reflection overlap lemma."""
    (worst_p0_neg, worst_p0_pos, worst_th_neg, worst_th_pos, worst_raw,
     worst_measure_u, worst_measure_up) = _fold(
        _map_trials("spectral", _spectral_trial, trials, seed, tols),
        (0.0, 0.0, -math.inf, -math.inf, -math.inf, 0.0, 0.0))
    return [
        _residual_check("spectral/fixed-space-neg", worst_p0_neg, 1e-8,
                        "||Pi_0 w0||^2 = 1/w- for U(P, x)"),
        _residual_check("spectral/fixed-space-pos", worst_p0_pos, 1e-8,
                        "||Pi_0 w0||^2 = 1/w+ for U'(P, x)"),
        _residual_check("spectral/small-phase-neg", worst_th_neg, 1e-8,
                        "||Pi_Theta w0||^2 <= Theta^2/4 wt+ + 1/w- over the Theta grid"),
        _residual_check("spectral/small-phase-pos", worst_th_pos, 1e-8,
                        "||Pi_Theta w0||^2 <= Theta^2/4 wt- + 1/w+ over the Theta grid"),
        _residual_check("spectral/two-reflection-overlap", worst_raw, 1e-8,
                        "||Pi_Theta Pi_B u|| <= Theta/2 ||u|| when Pi_A u = 0"),
        _residual_check("spectral/measure-U-vs-oracle", worst_measure_u, 1e-10,
                        f"outcome-zero probability of measure_U vs the oracle's, M in {PE_GRIDS}"),
        _residual_check("spectral/measure-Uprime-vs-oracle", worst_measure_up, 1e-10,
                        "the same for measure_Uprime on positive inputs"),
    ]


def _measure_gap(measure, oracle) -> float:
    """Largest outcome-zero probability difference of two measures over PE_GRIDS."""
    return max(
        abs(outcome_zero_probability(measure, m) - outcome_zero_probability(oracle, m))
        for m in PE_GRIDS
    )


def _scaling_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """One scaling trial's worst residuals, in suite_scaling's order."""
    betas = (0.25, 1.0, 4.0)
    worst_eq = 0.0
    worst_ineq = -math.inf
    worst_unit = 0.0
    worst_idem = 0.0
    program = random_span_program(_rng(seed, trial))
    n_plus = minimal_witness(program, tols).n_plus
    w0 = np.asarray(minimal_witness(program, tols).w0)
    normalized = normalize(program, tols)
    renormalized = normalize(normalized, tols)
    worst_idem = max(
        worst_idem,
        float(np.max(np.abs(np.asarray(renormalized.tau) - np.asarray(normalized.tau)))),
    )
    reports = {x: witness_report(input_factors(program, x, tols)) for x in all_inputs(program)}
    for beta in betas:
        scaled = scale(program, beta, tols)
        mws = minimal_witness(scaled, tols)
        worst_unit = max(worst_unit, abs(mws.n_plus - 1.0))
        expect_w0 = np.zeros(program.dim_h + 2)
        expect_w0[: program.dim_h] = beta / (beta**2 + n_plus) * w0
        expect_w0[program.dim_h] = n_plus / (beta**2 + n_plus)
        expect_w0[program.dim_h + 1] = beta / math.sqrt(beta**2 + n_plus)
        worst_eq = max(worst_eq, float(np.max(np.abs(np.asarray(mws.w0) - expect_w0))))
        for x, rep in reports.items():
            rep_s = witness_report(input_factors(scaled, x, tols))
            if math.isfinite(rep.w_minus):
                expect = beta**2 * rep.w_minus + 1.0
                worst_eq = max(worst_eq, abs(rep_s.w_minus - expect) / expect)
                worst_ineq = max(
                    worst_ineq,
                    rep_s.w_tilde_plus - (rep.w_tilde_plus / beta**2 + 2.0),
                )
            else:
                expect = rep.w_plus / beta**2 + beta**2 / (n_plus + beta**2)
                worst_eq = max(worst_eq, abs(rep_s.w_plus - expect) / expect)
                worst_ineq = max(
                    worst_ineq,
                    rep_s.w_tilde_minus - (beta**2 * rep.w_tilde_minus + 2.0),
                )
    return worst_eq, worst_ineq, worst_unit, worst_idem


def suite_scaling(trials: int, seed: int, tols: Tolerances = DEFAULT_TOLS) -> list[Check]:
    """Equalities and inequalities of the beta-scaling construction, plus
    normalization idempotence."""
    worst_eq, worst_ineq, worst_unit, worst_idem = _fold(
        _map_trials("scaling", _scaling_trial, trials, seed, tols), (0.0, -math.inf, 0.0, 0.0))
    return [
        _residual_check("scaling/equalities", worst_eq, 1e-8,
                        "scaled witness sizes and minimal witness vector (beta in {1/4, 1, 4})"),
        _residual_check("scaling/min-error-inequalities", worst_ineq, 1e-8,
                        "wt+/wt- growth bounds under scaling"),
        _residual_check("scaling/unit-minimal-witness", worst_unit, 1e-8,
                        "scaled program is normalized"),
        _residual_check("scaling/normalize-idempotent", worst_idem, 1e-8,
                        "normalizing twice changes nothing"),
    ]


def _szegedy_trial(seed: int, trial: int, dims: int, tols: Tolerances) -> tuple:
    """One szegedy trial: its worst phase and gap residuals and its
    eigenspace-dimension mismatches."""
    worst_phase = 0.0
    worst_dims = 0
    worst_gap = -math.inf
    rng = _rng(seed, trial)
    dim = int(rng.integers(3, max(4, dims + 1)))
    forced = trial % 3 == 0
    pi_a, pi_b = random_projector_pair(
        rng,
        dim,
        shared=int(rng.integers(1, 3)) if forced else 0,
        a_only=int(rng.integers(0, 2)) if forced else 0,
    )
    u_mat = (2.0 * pi_a - np.eye(dim)) @ (2.0 * pi_b - np.eye(dim))
    dec = decompose_orthogonal(u_mat)
    report = discriminant(pi_a, pi_b, tols)

    expected = report.expected_rotation_phases()
    actual = sorted(
        cl.theta
        for cl in dec.clusters
        if cl.theta not in (0.0, math.pi)
        for _ in range(cl.dim // 2)
    )
    if len(expected) != len(actual):
        worst_phase = max(worst_phase, math.inf)
    elif expected:
        worst_phase = max(
            worst_phase, float(np.max(np.abs(np.array(expected) - np.array(actual))))
        )

    dims_map = intersection_dims(pi_a, pi_b)
    plus_dim = sum(cl.dim for cl in dec.clusters if cl.theta == 0.0)
    minus_dim = sum(cl.dim for cl in dec.clusters if cl.theta == math.pi)
    if plus_dim != dims_map["a_and_b"] + dims_map["aperp_and_bperp"]:
        worst_dims += 1
    if minus_dim != dims_map["a_and_bperp"] + dims_map["aperp_and_b"]:
        worst_dims += 1

    minus_u = decompose_orthogonal(-u_mat)
    if report.sigma_min is not None:
        worst_gap = max(worst_gap, 2.0 * report.sigma_min - minus_u.phase_gap())
    return worst_phase, worst_gap, worst_dims


def suite_szegedy(trials: int, dims: int, seed: int, tols: Tolerances = DEFAULT_TOLS) -> list[Check]:
    """Spectrum correspondence between a product of reflections and its
    discriminant, and the +/-1-eigenspace dimension count."""
    worst_phase, worst_gap, worst_dims = _fold(
        _map_trials("szegedy", _szegedy_trial, trials, seed, dims, tols), (0.0, -math.inf, 0))
    return [
        _residual_check("szegedy/phase-correspondence", worst_phase, 1e-8,
                        "non-trivial phases equal +/- 2 arccos(singular values of D)"),
        Check("szegedy/eigenspace-dimensions", worst_dims == 0, float(worst_dims), 0.0,
              "+/-1-eigenspace dimensions equal the four intersection dimensions"),
        _residual_check("szegedy/phase-gap-vs-discriminant", worst_gap, 1e-8,
                        "phase gap of -U is at least twice the smallest nonzero singular value of D"),
    ]


def _kappa_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """One kappa trial's worst residuals, in suite_kappa's order."""
    worst_u = worst_up = -math.inf
    worst_sigma = worst_res = 0.0
    rng = _rng(seed, trial)
    program = random_span_program(rng)
    for x in all_inputs(program):
        f = input_factors(program, x, tols)
        try:
            bound = kappa_bound(f)
        except ValueError:
            continue
        if f.positive:
            dec, decp = build_U_and_Uprime(program, x, tols)
            worst_up = max(worst_up, bound - decp.phase_gap())
        else:
            dec = build_U(program, x, tols)
        worst_u = max(worst_u, bound - dec.phase_gap())

    n = int(rng.integers(3, 8))
    g = random_graph(rng, n, edge_prob=0.6)
    program = build_st_span_program(g.n, g.s, g.t)
    factors = input_factors(program, graph_input(g), tols)
    # A's factors come from one eigh of A A^T; a dense SVD of A checks
    # sigma_max = sqrt(2n) and every sigma, relative to its sigma_max,
    # and the projector U_r U_r^T
    fact = program.factorization(tols)
    col_basis, sigma, _, top = svd_factors(program.a_mat, tols)
    # lambda2 and R_st from one eigh of the Laplacian
    lam, res = _spectral_oracle(g, g.connected_st())
    if lam > 1e-9:
        worst_sigma = max(
            worst_sigma, abs(float(factors.sigma[-1]) - math.sqrt(2.0 * lam)) / top
        )
    worst_sigma = max(
        worst_sigma,
        abs(factors.a_scale - top) / top,
        float(np.max(np.abs(fact.sigma - sigma))) / top
        if fact.sigma.shape == sigma.shape else math.inf,
        float(np.max(np.abs(fact.col_basis @ fact.col_basis.T - col_basis @ col_basis.T))),
    )
    if math.isfinite(res) and len(g.edges) <= 8:
        worst_res = max(worst_res, abs(res - flow_resistance_bruteforce(g)))
    check = witness_equals_half_resistance(factors, res)
    if not check.ok:
        worst_res = math.inf
    return worst_u, worst_up, worst_sigma, worst_res


def suite_kappa(trials: int, seed: int, tols: Tolerances = DEFAULT_TOLS) -> list[Check]:
    """Phase-gap lower bounds on random programs and on graph instances,
    including the graph spectral identities the bound rests on."""
    worst_u, worst_up, worst_sigma, worst_res = _fold(
        _map_trials("kappa", _kappa_trial, trials, seed, tols), (-math.inf, -math.inf, 0.0, 0.0))
    return [
        _residual_check("kappa/gap-bound-U", worst_u, 1e-8,
                        "phase gap of U(P, x) is at least 2 sigma_min(A(x))/sigma_max(A)"),
        _residual_check("kappa/gap-bound-Uprime", worst_up, 1e-8,
                        "same bound for U'(P, x) on positive inputs"),
        _residual_check("kappa/graph-singular-values", worst_sigma, 1e-12,
                        "A's Gram-route sigma_max = sqrt(2n) and sigma against a dense SVD, "
                        "and sigma_min(A(x)) = sqrt(2 lambda2), relative to sigma_max; "
                        "U_r U_r^T against the SVD's"),
        _residual_check("kappa/resistance-oracles", worst_res, 1e-8,
                        "Laplacian pseudo-inverse vs cycle-space flow minimization, and w+ = R/2"),
    ]


def suite_appendix_b(tols: Tolerances = DEFAULT_TOLS) -> list[Check]:
    """Reflection-factorization identities on the four-register space.

    The minus-one containment is exact.  A plus-one containment of the
    row-space image would require Y and Z to intersect, which they do not for
    n >= 3: the walk rotates the image of (ker A)^perp by
    theta_n = 2 arccos sqrt(n/(2(n-1))).  This suite checks the rotation
    identity (W + W^T) y = 2 cos(theta_n) y on the whole image and reports the
    raw containment defect in the detail string.
    """
    checks: list[Check] = []
    for n in (3, 4, 5):
        fc = verify_reflection_factorization(n, tols)
        checks.append(_residual_check(
            f"appendixB/n{n}/isometries", max(fc.my_isometry_defect, fc.mz_isometry_defect),
            1e-12, "M_Y and M_Z have orthonormal columns"))
        checks.append(_residual_check(
            f"appendixB/n{n}/factorization", fc.factorization_defect, 1e-12,
            "M_Z^T M_Y = A / (2 sqrt(n-1))"))
        checks.append(_residual_check(
            f"appendixB/n{n}/minus-one-containment", fc.minus_one_defect, 1e-10,
            "M_Y maps ker A into the -1-eigenspace of the walk"))
        checks.append(_residual_check(
            f"appendixB/n{n}/row-image-rotation", fc.rotation_identity_defect, 1e-10,
            f"(W + W^T) y = 2 cos(theta_n) y on the whole (ker A)^perp image: it is rotated by "
            f"theta_n = 2 arccos sqrt(n/(2(n-1))), not fixed; "
            f"literal +1-containment defect is {fc.plus_one_defect:.3e}"))
    return checks


SUITES = ("duality", "spectral", "scaling", "szegedy", "kappa", "appendixB")
# szegedy draws dims x dims projector pairs and takes an eigendecomposition
# of their reflection product: at this cap each dense array is 8 MB
MAX_DIMS = 1024


class SuiteArgumentError(ValueError):
    """run_suite was asked for a suite or a size it does not run."""


def _suite_trials(name: str, trials: int) -> int:
    """Trials run_suite gives one suite: the costlier suites run a quarter."""
    if name == "appendixB":
        return 0
    return max(1, trials // 4) if name in ("spectral", "scaling", "kappa") else trials


def suite_workers(name: str, trials: int = 50) -> int:
    """The most processes run_suite(name, trials) spreads one suite's trials
    over; 1 means every trial runs in-process."""
    return max(_workers(sub, _suite_trials(sub, trials))
               for sub in (SUITES if name == "all" else (name,)))


def _integer(arg: str, value) -> int:
    """value as an int, or SuiteArgumentError for a bool or a non-integer."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise SuiteArgumentError(f"{arg} must be an integer, got {value!r}")


def run_suite(
    name: str,
    trials: int = 50,
    dims: int = 8,
    seed: int = 0,
    tols: Tolerances = DEFAULT_TOLS,
) -> list[Check]:
    """Run one suite, or all of them.  Raises SuiteArgumentError before any
    check runs for an unknown suite, for a trials, dims or seed that is a
    bool or not an integer (numpy integers are integers), for trials < 1
    (which checks nothing) and for dims outside [3, MAX_DIMS] (below 3 the
    suite runs at 3)."""
    trials, dims, seed = _integer("trials", trials), _integer("dims", dims), _integer("seed", seed)
    if trials < 1:
        raise SuiteArgumentError(f"trials must be at least 1, got {trials}")
    if not 3 <= dims <= MAX_DIMS:
        raise SuiteArgumentError(f"dims must lie in [3, {MAX_DIMS}], got {dims}")
    if name == "all":
        return [c for sub in SUITES for c in run_suite(sub, trials, dims, seed, tols)]
    if name not in SUITES:
        raise SuiteArgumentError(f"unknown suite {name!r}")
    share = _suite_trials(name, trials)
    if name == "duality":
        return suite_duality(share, seed, tols)
    if name == "spectral":
        return suite_spectral(share, seed, tols)
    if name == "scaling":
        return suite_scaling(share, seed, tols)
    if name == "szegedy":
        return suite_szegedy(share, dims, seed, tols)
    if name == "kappa":
        return suite_kappa(share, seed, tols)
    return suite_appendix_b(tols)
