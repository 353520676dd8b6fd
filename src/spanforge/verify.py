"""Seeded property suites checking the package's theorem-level identities.

Each suite draws its instances from per-task substreams ((seed, task index)
seeded generators), aggregates worst-case residuals, and returns a flat list
of checks; the CLI turns them into a report and its exit code.

Each trial-driven suite (all but appendixB) is one entry of _TRIAL_SUITES:
a per-trial function, which returns that trial's worst value or count for
each check, and the checks, each declared once as (name, fold start,
tolerance, detail).  One runner reduces the trials' values in trial order
with the serial loop's max() and += from those starts.  So every check,
observed value included, is bit-identical whatever the number of processes.

The trials of duality, spectral, scaling and kappa run in a pool of forked
processes, handed out one at a time: min(usable CPUs, trials // floor) of
them, the usable CPUs read from os.sched_getaffinity.  The floor (each
entry's worker floor) is 32 duality, 8 spectral, 16 scaling or 512 kappa
trials, 160 to 560 ms of work against the 30 ms a worker costs to fork and
join and each trial's handoff, which a 1 ms kappa trial feels.  On 2 cores
each suite at twice its floor took 0.43 to 0.91 of its in-process time over
seeds 0 to 2.  Everything else runs in-process:
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
from typing import Callable, Optional

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
from .oracle import _u_parts, _uprime, blocks_projector, decompose_orthogonal, discriminant
from .oracle import flow_resistance_bruteforce, intersection_dims, kernel_projector, scale
from .oracle import minimal_negative_witness, verify_reflection_factorization
from .qsim import outcome_zero_probability
from .spanprog import input_factors, minimal_witness, normalize
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


def _workers(suite: str, trials: int) -> int:
    """Processes that the suite's `trials` trials run on; 1 means in-process.
    A daemonic process (a multiprocessing.Pool worker) may not start
    children."""
    floor = _TRIAL_SUITES[suite].floor
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
               for acc, value in zip(out, partial, strict=True)]
    return out


def _duality_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """One duality trial: its partition violations and its worst residuals."""
    worst_neg = worst_pos = worst_vec_neg = worst_vec_pos = 0.0
    worst_nn = worst_mwvec = 0.0
    partition_violations = 0
    program = random_span_program(_rng(seed, trial))
    mw = minimal_witness(program, tols)
    row0, n_minus = minimal_negative_witness(program, tols)
    worst_nn = max(worst_nn, abs(mw.n_plus * n_minus - 1.0))
    worst_mwvec = max(
        worst_mwvec,
        float(np.max(np.abs(np.asarray(row0) - np.asarray(mw.w0) / mw.n_plus))),
    )
    for x in all_inputs(program):
        f = input_factors(program, x, tols)
        rep = witness_report(f)
        if math.isinf(rep.w_plus) == math.isinf(rep.w_minus):
            partition_violations += 1
            continue
        proj = blocks_projector(program, f.q_h)  # H(x) walked once per input
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
    return (partition_violations, worst_neg, worst_pos, worst_vec_neg, worst_vec_pos, worst_nn,
            worst_mwvec)


def _spectral_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """One spectral trial's worst residuals, in its checks' order."""
    worst_p0_neg = worst_p0_pos = 0.0
    worst_measure_u = worst_measure_up = 0.0
    worst_th_neg = worst_th_pos = -math.inf
    worst_raw = worst_gap_u = worst_gap_up = -math.inf
    rng = _rng(seed, trial)
    program = normalize(random_span_program(rng), tols)
    w0 = np.asarray(minimal_witness(program, tols).w0)
    pi_ker = kernel_projector(program, tols)  # one per program, not per input
    grid = [0.0] + THETA_GRID  # the fixed space, then the Theta grid
    for x in all_inputs(program):
        # one factoring of A(x) serves the witness report, the measures and the bound
        f = input_factors(program, x, tols)
        rep = witness_report(f)
        cross = row_space_cross(f)
        parts = _u_parts(program, x, tols, pi_ker, blocks_projector(program, f.q_h))
        dec, decp = decompose_orthogonal(parts[2]), _uprime(program, tols, *parts)
        measure, measurep = dec.measure(w0), decp.measure(w0)
        worst_measure_u = max(worst_measure_u, _measure_gap(measure_U(cross), measure))
        if f.positive:
            worst_measure_up = max(worst_measure_up, _measure_gap(measure_Uprime(cross), measurep))
        inv_wm = 0.0 if math.isinf(rep.w_minus) else 1.0 / rep.w_minus
        inv_wp = 0.0 if math.isinf(rep.w_plus) else 1.0 / rep.w_plus
        p0, *small = _small_phase_weights(measure.phases, measure.weights, grid)
        p0p, *smallp = _small_phase_weights(measurep.phases, measurep.weights, grid)
        worst_p0_neg = max(worst_p0_neg, abs(p0 - inv_wm))
        worst_p0_pos = max(worst_p0_pos, abs(p0p - inv_wp))
        for theta, lhs, lhsp in zip(THETA_GRID, small, smallp):
            worst_th_neg = max(worst_th_neg, lhs - (theta**2 / 4.0 * rep.w_tilde_plus + inv_wm))
            worst_th_pos = max(worst_th_pos, lhsp - (theta**2 / 4.0 * rep.w_tilde_minus + inv_wp))
        try:
            bound = kappa_bound(f)
        except ValueError:  # A(x) = 0
            continue
        worst_gap_u = max(worst_gap_u, bound - dec.phase_gap())
        if f.positive:
            worst_gap_up = max(worst_gap_up, bound - decp.phase_gap())
    # raw overlap lemma on a random reflection pair from the same stream
    dim = int(rng.integers(3, 9))
    pi_a, pi_b = random_projector_pair(rng, dim)
    u_dec = decompose_orthogonal((2.0 * pi_a - np.eye(dim)) @ (2.0 * pi_b - np.eye(dim)))
    vec = rng.standard_normal(dim)
    vec -= pi_a @ vec  # now Pi_A vec = 0
    if np.linalg.norm(vec) > 1e-9:
        weights = _small_phase_weights(*u_dec.overlaps(pi_b @ vec), THETA_GRID)
        for theta, weight in zip(THETA_GRID, weights):
            lhs = math.sqrt(weight)  # ||Pi_Theta Pi_B vec||
            worst_raw = max(worst_raw, lhs - theta / 2.0 * float(np.linalg.norm(vec)))
    return (worst_p0_neg, worst_p0_pos, worst_th_neg, worst_th_pos, worst_raw,
            worst_measure_u, worst_measure_up, worst_gap_u, worst_gap_up)


def _small_phase_weights(phases: np.ndarray, weights: np.ndarray, thetas) -> list[float]:
    """||Pi_theta v||^2 at each theta: v's weights on the clusters at the
    ascending phases at or below theta, summed in phase order."""
    summed = np.cumsum(np.concatenate(([0.0], weights)))
    return summed[np.searchsorted(phases, thetas, side="right")].tolist()


def _measure_gap(measure, oracle) -> float:
    """Largest outcome-zero probability difference of two measures over PE_GRIDS."""
    return max(
        abs(outcome_zero_probability(measure, m) - outcome_zero_probability(oracle, m))
        for m in PE_GRIDS
    )


def _scaling_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """One scaling trial's worst residuals, in its checks' order."""
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


def _szegedy_trial(seed: int, trial: int, dims: int, tols: Tolerances) -> tuple:
    """One szegedy trial: its worst phase residual, its eigenspace-dimension
    mismatches and its worst gap residual."""
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

    # -U's phases are pi - theta for U's phases theta, and U's pi is -U's 0
    minus_gap = min([math.pi - cl.theta for cl in dec.clusters if cl.theta < math.pi] or [math.inf])
    if report.sigma_min is not None:
        worst_gap = max(worst_gap, 2.0 * report.sigma_min - minus_gap)
    return worst_phase, worst_dims, worst_gap


def _kappa_trial(seed: int, trial: int, tols: Tolerances) -> tuple:
    """One kappa trial's worst residuals, in its checks' order."""
    worst_sigma = worst_res = 0.0
    rng = _rng(seed, trial)
    g = random_graph(rng, int(rng.integers(3, 8)), edge_prob=0.6)
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
    return worst_sigma, worst_res


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


@dataclass(frozen=True)
class _TrialSuite:
    """One trial-driven suite.  trial(seed, trial number, dims, tols) returns
    one value per check, in the checks' order; a check is (name, fold start,
    tolerance, detail), and an int start makes its slot a count."""

    trial: Callable[[int, int, int, Tolerances], tuple]
    divisor: int  # the suite runs max(1, trials // divisor) of run_suite's trials
    floor: Optional[int]  # the fewest trials a worker is given; None: in-process
    checks: tuple[tuple[str, float, float, str], ...]

    def share(self, trials: int) -> int:
        return max(1, trials // self.divisor)


# Each trial is called through a lambda, so a trial function patched on this
# module is the one that runs.  The floors: forking a worker and joining it
# costs about 30 ms, and on one core of a 2-core machine a duality trial takes
# 5 to 6 ms, a spectral trial 14 to 21 ms, a scaling trial 16 to 17 ms and a
# kappa trial 0.6 to 1.1 ms (the mean of trials 0-63 at seeds 0-2).  szegedy
# runs in-process (see the module docstring).
_TRIAL_SUITES = {
    # witness-size/error reciprocity and the optimal-witness vector identities
    # on random programs, every input enumerated
    "duality": _TrialSuite(lambda seed, trial, dims, tols: _duality_trial(seed, trial, tols),
                           1, 32, (
        ("duality/partition", 0, 0.0, "exactly one of w+, w- finite per input"),
        ("duality/neg-size-times-pos-error", 0.0, 1e-8,
         "relative deviation of w- * e+ from 1 on negative inputs"),
        ("duality/pos-size-times-neg-error", 0.0, 1e-8,
         "relative deviation of w+ * e- from 1 on positive inputs"),
        ("duality/neg-witness-vector-identity", 0.0, 1e-8,
         "(omega A)^dag vs normalized off-subspace error of the min-error witness"),
        ("duality/pos-witness-vector-identity", 0.0, 1e-8,
         "w_x vs normalized on-subspace part of the min-error negative witness"),
        ("duality/minimal-witness-reciprocal", 0.0, 1e-8,
         "N+ * N- = 1 with N- from the oracle's null-space solve on the dense A"),
        ("duality/minimal-witness-vector", 0.0, 1e-8, "(omega0 A)^dag = w0 / N+"),
    )),
    # fixed-space overlaps, the effective-spectral-gap inequalities, the
    # estimator path's spectral measures against the dense oracle's and the
    # phase-gap lower bounds, on normalized random programs and one
    # decomposition of each unitary, plus the raw two-reflection overlap lemma
    "spectral": _TrialSuite(lambda seed, trial, dims, tols: _spectral_trial(seed, trial, tols),
                            4, 8, (
        ("spectral/fixed-space-neg", 0.0, 1e-8, "||Pi_0 w0||^2 = 1/w- for U(P, x)"),
        ("spectral/fixed-space-pos", 0.0, 1e-8, "||Pi_0 w0||^2 = 1/w+ for U'(P, x)"),
        ("spectral/small-phase-neg", -math.inf, 1e-8,
         "||Pi_Theta w0||^2 <= Theta^2/4 wt+ + 1/w- over the Theta grid"),
        ("spectral/small-phase-pos", -math.inf, 1e-8,
         "||Pi_Theta w0||^2 <= Theta^2/4 wt- + 1/w+ over the Theta grid"),
        ("spectral/two-reflection-overlap", -math.inf, 1e-8,
         "||Pi_Theta Pi_B u|| <= Theta/2 ||u|| when Pi_A u = 0"),
        ("spectral/measure-U-vs-oracle", 0.0, 1e-10,
         f"outcome-zero probability of measure_U vs the oracle's, M in {PE_GRIDS}"),
        ("spectral/measure-Uprime-vs-oracle", 0.0, 1e-10,
         "the same for measure_Uprime on positive inputs"),
        ("spectral/gap-bound-U", -math.inf, 1e-8,
         "phase gap of U(P, x) is at least 2 sigma_min(A(x))/sigma_max(A)"),
        ("spectral/gap-bound-Uprime", -math.inf, 1e-8,
         "same bound for U'(P, x) on positive inputs"),
    )),
    # equalities and inequalities of the beta-scaling construction, plus
    # normalization idempotence
    "scaling": _TrialSuite(lambda seed, trial, dims, tols: _scaling_trial(seed, trial, tols),
                           4, 16, (
        ("scaling/equalities", 0.0, 1e-8,
         "scaled witness sizes and minimal witness vector (beta in {1/4, 1, 4})"),
        ("scaling/min-error-inequalities", -math.inf, 1e-8, "wt+/wt- growth bounds under scaling"),
        ("scaling/unit-minimal-witness", 0.0, 1e-8, "scaled program is normalized"),
        ("scaling/normalize-idempotent", 0.0, 1e-8, "normalizing twice changes nothing"),
    )),
    # spectrum correspondence between a product of reflections and its
    # discriminant, and the +/-1-eigenspace dimension count
    "szegedy": _TrialSuite(lambda seed, trial, dims, tols: _szegedy_trial(seed, trial, dims, tols),
                           1, None, (
        ("szegedy/phase-correspondence", 0.0, 1e-8,
         "non-trivial phases equal +/- 2 arccos(singular values of D)"),
        ("szegedy/eigenspace-dimensions", 0, 0.0,
         "+/-1-eigenspace dimensions equal the four intersection dimensions"),
        ("szegedy/phase-gap-vs-discriminant", -math.inf, 1e-8,
         "phase gap of -U is at least twice the smallest nonzero singular value of D"),
    )),
    # the graph spectral identities the phase-gap bound rests on, and the
    # resistance oracles, on random graph instances
    "kappa": _TrialSuite(lambda seed, trial, dims, tols: _kappa_trial(seed, trial, tols),
                         4, 512, (
        ("kappa/graph-singular-values", 0.0, 1e-12,
         "A's Gram-route sigma_max = sqrt(2n) and sigma against a dense SVD, "
         "and sigma_min(A(x)) = sqrt(2 lambda2), relative to sigma_max; "
         "U_r U_r^T against the SVD's"),
        ("kappa/resistance-oracles", 0.0, 1e-8,
         "Laplacian pseudo-inverse vs cycle-space flow minimization, and w+ = R/2"),
    )),
}
SUITES = (*_TRIAL_SUITES, "appendixB")
# szegedy draws dims x dims projector pairs and takes an eigendecomposition
# of their reflection product: at this cap each dense array is 8 MB
MAX_DIMS = 1024


class SuiteArgumentError(ValueError):
    """run_suite was asked for a suite or a size it does not run."""


def _run_trials(name: str, trials: int, dims: int, seed: int, tols: Tolerances) -> list[Check]:
    """The checks of a _TRIAL_SUITES entry: its share of trials, each slot
    folded in trial order from its start and held against its tolerance."""
    suite = _TRIAL_SUITES[name]
    worst = _fold(_map_trials(name, suite.trial, suite.share(trials), seed, dims, tols),
                  [start for _, start, _, _ in suite.checks])
    return [_residual_check(check, value, tol, detail)
            for (check, _, tol, detail), value in zip(suite.checks, worst)]


def suite_workers(name: str, trials: int = 50) -> int:
    """The most processes run_suite(name, trials) spreads one suite's trials
    over; 1 means every trial runs in-process."""
    return max((_workers(sub, suite.share(trials)) for sub, suite in _TRIAL_SUITES.items()
                if name in (sub, "all")), default=1)


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
    (which checks nothing), for dims outside [3, MAX_DIMS] (below 3 the
    suite runs at 3) and for a negative seed (numpy seeds no generator
    from it)."""
    trials, dims, seed = _integer("trials", trials), _integer("dims", dims), _integer("seed", seed)
    if trials < 1:
        raise SuiteArgumentError(f"trials must be at least 1, got {trials}")
    if not 3 <= dims <= MAX_DIMS:
        raise SuiteArgumentError(f"dims must lie in [3, {MAX_DIMS}], got {dims}")
    if seed < 0:
        raise SuiteArgumentError(f"seed must be non-negative, got {seed}")
    if name == "all":
        return [c for sub in SUITES for c in run_suite(sub, trials, dims, seed, tols)]
    if name == "appendixB":
        return suite_appendix_b(tols)
    if name not in _TRIAL_SUITES:
        raise SuiteArgumentError(f"unknown suite {name!r}")
    return _run_trials(name, trials, dims, seed, tols)
