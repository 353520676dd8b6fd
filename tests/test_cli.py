"""Exit codes, report schema, and determinism of the command-line front end."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spanforge
from spanforge import cli, verify
from spanforge.cli import main
from spanforge.verify import MAX_DIMS, SuiteArgumentError, run_suite

K4_FILE = """# complete graph on 4 vertices
4 6 1 4
1 2
1 3
1 4
2 3
2 4
3 4
"""


@pytest.fixture
def k4_path(tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text(K4_FILE)
    return str(path)


def test_resistance_report(k4_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["resistance", "--graph", k4_path, "--eps", "0.2",
                 "--method", "effective-gap", "--seed", "11", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "spanforge-report/1"
    assert report["values"]["exact_resistance"]["value"] == pytest.approx(0.5, rel=1e-9)
    assert report["queries"] > 0
    assert all("tolerance" in c for c in report["checks"])


def test_resistance_real_gap_requires_mu(k4_path):
    assert main(["resistance", "--graph", k4_path, "--method", "real-gap"]) == 3


def test_resistance_real_gap_with_mu(k4_path, tmp_path):
    out = tmp_path / "report.json"
    code = main(["resistance", "--graph", k4_path, "--method", "real-gap",
                 "--mu", "4.0", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["params"]["method"] == "real-gap"


def test_resistance_mu_above_lambda2_is_argument_error(k4_path):
    assert main(["resistance", "--graph", k4_path, "--method", "real-gap",
                 "--mu", "100.0"]) == 3


def test_resistance_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("3 2 1 3\n1 2\n2 2\n")  # self-loop on line 3
    assert main(["resistance", "--graph", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_resistance_missing_file_exit_code(tmp_path):
    assert main(["resistance", "--graph", str(tmp_path / "nope.graph")]) == 2


def test_verify_suite_exit_codes(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--suite", "duality", "--trials", "10",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert all("tolerance" in c for c in report["checks"])


def test_verify_unknown_suite_is_argument_error():
    assert main(["verify", "--suite", "bogus"]) == 3


@pytest.mark.parametrize(
    "extra",
    [
        ["--suite", "duality", "--trials", "0"],
        ["--suite", "all", "--trials", "-3"],
        ["--suite", "szegedy", "--trials", "5", "--dims", "1"],
        ["--suite", "szegedy", "--trials", "5", "--dims", "2"],
        ["--suite", "szegedy", "--trials", "5", "--dims", str(MAX_DIMS + 1)],
    ],
)
def test_verify_refuses_arguments_that_check_nothing(extra, tmp_path, capsys):
    # each used to report its checks as passed: trials < 1 drew no program,
    # and dims below 3 ran at 3; a dims above the cap is refused before any
    # dims x dims array is drawn
    out = tmp_path / "verify.json"
    assert main(["verify", *extra, "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err


@pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "2"])
@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["resistance"], id="effective-gap"),
        pytest.param(["resistance", "--method", "real-gap", "--mu", "0.5"], id="real-gap"),
        pytest.param(["verify", "--suite", "duality", "--trials", "1"], id="verify"),
        pytest.param(["or-demo"], id="or-demo"),
    ],
)
def test_tolerance_outside_the_unit_interval_is_argument_error(command, tolerance, tmp_path,
                                                               capsys):
    # -1 used to end verify in a traceback with the check-failed code, and 2
    # let resistance report an estimate for a four-vertex path
    path4 = tmp_path / "p4.graph"
    path4.write_text("4 3 1 4\n1 2\n2 3\n3 4\n")
    if command[0] == "resistance":
        command = [*command, "--graph", str(path4)]
    out = tmp_path / "report.json"
    assert main([*command, f"--tolerance={tolerance}", "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err


def test_verify_accepts_the_smallest_dims():
    assert main(["verify", "--suite", "szegedy", "--trials", "3", "--dims", "3"]) == 0


def test_run_suite_rejects_arguments_before_running():
    with pytest.raises(ValueError, match="trials"):
        run_suite("duality", trials=0)
    with pytest.raises(ValueError, match="dims"):
        run_suite("szegedy", trials=1, dims=MAX_DIMS + 1)


@pytest.fixture
def no_check_runs(monkeypatch):
    """Make every trial and the appendixB suite fail the test if they run."""
    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_map_trials", no_check)
    monkeypatch.setattr(verify, "suite_appendix_b", no_check)


@pytest.mark.parametrize("arguments", [
    {"trials": 2.5},  # used to raise a bare TypeError from inside the loop
    {"dims": 8.5},  # used to run
    {"trials": True},  # used to run one trial
    {"seed": 1.5},  # used to fail in the first trial
    {"seed": np.float64(2.0)},
    {"dims": np.True_},
    {"trials": "4"},
])
def test_run_suite_refuses_a_bool_or_a_non_integer_before_running(arguments, no_check_runs):
    with pytest.raises(SuiteArgumentError, match=next(iter(arguments))):
        run_suite("all", **{"trials": 4, "dims": 8, "seed": 2, **arguments})


@pytest.mark.parametrize("suite", verify.SUITES + ("all",))
@pytest.mark.parametrize("seed", [-1, np.int64(-2)])
def test_run_suite_refuses_a_negative_seed_before_running(suite, seed, no_check_runs):
    # numpy raised "expected non-negative integer" from the first trial
    with pytest.raises(SuiteArgumentError, match="seed must be non-negative"):
        run_suite(suite, trials=2, dims=8, seed=seed)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "duality", "--trials", "2"],
    ["resistance", "--graph", "K4"],
    ["or-demo"],
])
def test_a_negative_seed_exits_3_with_one_error_line(argv, k4_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a trial or an estimate ran")

    for name in ("run_suite", "estimate_resistance", "decide_threshold", "witness_estimate"):
        monkeypatch.setattr(cli, name, no_work)
    argv = [k4_path if arg == "K4" else arg for arg in argv]
    assert main(argv + ["--seed", "-1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --seed must be non-negative, got -1\n"


# (name, tolerance, detail) of every check of run_suite("all", 4, 8, 2), in report order
REPORTED_CHECKS = [
    ("duality/partition", 0.0, "exactly one of w+, w- finite per input"),
    ("duality/neg-size-times-pos-error", 1e-08,
     "relative deviation of w- * e+ from 1 on negative inputs"),
    ("duality/pos-size-times-neg-error", 1e-08,
     "relative deviation of w+ * e- from 1 on positive inputs"),
    ("duality/neg-witness-vector-identity", 1e-08,
     "(omega A)^dag vs normalized off-subspace error of the min-error witness"),
    ("duality/pos-witness-vector-identity", 1e-08,
     "w_x vs normalized on-subspace part of the min-error negative witness"),
    ("duality/minimal-witness-reciprocal", 1e-08,
     "N+ * N- = 1 with N- from the oracle's null-space solve on the dense A"),
    ("duality/minimal-witness-vector", 1e-08, "(omega0 A)^dag = w0 / N+"),
    ("spectral/fixed-space-neg", 1e-08, "||Pi_0 w0||^2 = 1/w- for U(P, x)"),
    ("spectral/fixed-space-pos", 1e-08, "||Pi_0 w0||^2 = 1/w+ for U'(P, x)"),
    ("spectral/small-phase-neg", 1e-08,
     "||Pi_Theta w0||^2 <= Theta^2/4 wt+ + 1/w- over the Theta grid"),
    ("spectral/small-phase-pos", 1e-08,
     "||Pi_Theta w0||^2 <= Theta^2/4 wt- + 1/w+ over the Theta grid"),
    ("spectral/two-reflection-overlap", 1e-08,
     "||Pi_Theta Pi_B u|| <= Theta/2 ||u|| when Pi_A u = 0"),
    ("spectral/measure-U-vs-oracle", 1e-10,
     "outcome-zero probability of measure_U vs the oracle's, M in (2, 16, 256)"),
    ("spectral/measure-Uprime-vs-oracle", 1e-10, "the same for measure_Uprime on positive inputs"),
    ("spectral/gap-bound-U", 1e-08,
     "phase gap of U(P, x) is at least 2 sigma_min(A(x))/sigma_max(A)"),
    ("spectral/gap-bound-Uprime", 1e-08, "same bound for U'(P, x) on positive inputs"),
    ("scaling/equalities", 1e-08,
     "scaled witness sizes and minimal witness vector (beta in {1/4, 1, 4})"),
    ("scaling/min-error-inequalities", 1e-08, "wt+/wt- growth bounds under scaling"),
    ("scaling/unit-minimal-witness", 1e-08, "scaled program is normalized"),
    ("scaling/normalize-idempotent", 1e-08, "normalizing twice changes nothing"),
    ("szegedy/phase-correspondence", 1e-08,
     "non-trivial phases equal +/- 2 arccos(singular values of D)"),
    ("szegedy/eigenspace-dimensions", 0.0,
     "+/-1-eigenspace dimensions equal the four intersection dimensions"),
    ("szegedy/phase-gap-vs-discriminant", 1e-08,
     "phase gap of -U is at least twice the smallest nonzero singular value of D"),
    ("kappa/graph-singular-values", 1e-12,
     "A's Gram-route sigma_max = sqrt(2n) and sigma against a dense SVD, and sigma_min(A(x)) "
     "= sqrt(2 lambda2), relative to sigma_max; U_r U_r^T against the SVD's"),
    ("kappa/resistance-oracles", 1e-08,
     "Laplacian pseudo-inverse vs cycle-space flow minimization, and w+ = R/2"),
    ("appendixB/n3/isometries", 1e-12, "M_Y and M_Z have orthonormal columns"),
    ("appendixB/n3/factorization", 1e-12, "M_Z^T M_Y = A / (2 sqrt(n-1))"),
    ("appendixB/n3/minus-one-containment", 1e-10,
     "M_Y maps ker A into the -1-eigenspace of the walk"),
    ("appendixB/n3/row-image-rotation", 1e-10,
     "(W + W^T) y = 2 cos(theta_n) y on the whole (ker A)^perp image: it is rotated by "
     "theta_n = 2 arccos sqrt(n/(2(n-1))), not fixed; literal +1-containment defect is "
     "1.000e+00"),
    ("appendixB/n4/isometries", 1e-12, "M_Y and M_Z have orthonormal columns"),
    ("appendixB/n4/factorization", 1e-12, "M_Z^T M_Y = A / (2 sqrt(n-1))"),
    ("appendixB/n4/minus-one-containment", 1e-10,
     "M_Y maps ker A into the -1-eigenspace of the walk"),
    ("appendixB/n4/row-image-rotation", 1e-10,
     "(W + W^T) y = 2 cos(theta_n) y on the whole (ker A)^perp image: it is rotated by "
     "theta_n = 2 arccos sqrt(n/(2(n-1))), not fixed; literal +1-containment defect is "
     "1.155e+00"),
    ("appendixB/n5/isometries", 1e-12, "M_Y and M_Z have orthonormal columns"),
    ("appendixB/n5/factorization", 1e-12, "M_Z^T M_Y = A / (2 sqrt(n-1))"),
    ("appendixB/n5/minus-one-containment", 1e-10,
     "M_Y maps ker A into the -1-eigenspace of the walk"),
    ("appendixB/n5/row-image-rotation", 1e-10,
     "(W + W^T) y = 2 cos(theta_n) y on the whole (ker A)^perp image: it is rotated by "
     "theta_n = 2 arccos sqrt(n/(2(n-1))), not fixed; literal +1-containment defect is "
     "1.225e+00"),
]


def test_run_suite_reports_each_checks_name_tolerance_and_detail_in_order():
    assert [(c.name, c.tolerance, c.detail) for c in run_suite("all", 4, 8, 2)] == REPORTED_CHECKS


def test_run_suite_accepts_numpy_integers():
    checks = run_suite("all", np.int64(4), np.int64(8), np.int64(2))
    assert [(c.name, c.observed) for c in checks] == [
        (c.name, c.observed) for c in run_suite("all", 4, 8, 2)]


def test_verify_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "all", "--trials", "8", "--dims", "6", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_or_demo_report(tmp_path):
    out = tmp_path / "or.json"
    code = main(["or-demo", "--n", "4", "--t", "2", "--lam", "0.5",
                 "--eps", "0.25", "--seed", "5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    # the one approximate negative witness has squared norm n
    assert report["values"]["w_tilde_minus_bound"]["value"] == 4.0
    runs = report["threshold_runs"]
    assert runs[0]["true_w_plus"] == pytest.approx(0.5)
    for run in runs:
        assert run["exact_success_probability"]["value"] >= 2.0 / 3.0
        assert run["queries"] > 0
    counting = report["counting_run"]
    assert counting["true_w_plus_normalized"] == pytest.approx(2.0)


def test_or_demo_threshold_out_of_range():
    assert main(["or-demo", "--n", "4", "--t", "5"]) == 3
    assert main(["or-demo", "--n", "4", "--t", "0"]) == 3
    assert main(["or-demo", "--n", "4", "--t", "2", "--lam", "1.5"]) == 3


def test_or_demo_refuses_an_n_above_the_dense_cap_before_allocating(capsys):
    # a 1 x n dense A at n = 2^28 + 1 would take 2.1 GB
    tracemalloc.start()
    try:
        code = main(["or-demo", "--n", str(2**28 + 1), "--t", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 2**20
    assert "above the cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # the first real-gap stage asks for pi sqrt(2) (8/eps + 1), about 3.6e10 points
    ["resistance", "--graph", "K4", "--method", "real-gap", "--mu", "1", "--eps", "1e-9"],
    ["or-demo", "--lam", "0.999999"],  # 7.6e7 points
])
def test_an_ae_grid_above_the_cap_exits_3_with_one_error_line(argv, k4_path, capsys):
    argv = [k4_path if arg == "K4" else arg for arg in argv]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and peak < 2**20
    assert err.startswith("error: amplitude estimation on ") and err.count("\n") == 1
    assert err.endswith(f"above the cap of {2**24}\n")


def test_a_real_gap_estimate_below_the_ae_cap_runs(k4_path, capsys):
    # eps = 1e-4 asks for about 1.5e6 points at the first stage
    argv = ["resistance", "--graph", k4_path, "--method", "real-gap", "--mu", "1", "--eps", "1e-4"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["queries"] > 0


def test_reports_print_to_stdout_without_out(k4_path, capsys):
    code = main(["resistance", "--graph", k4_path, "--seed", "3"])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["command"] == "resistance"


def test_resistance_disconnected_report(tmp_path):
    path = tmp_path / "disc.graph"
    path.write_text("4 2 1 4\n1 2\n3 4\n")
    out = tmp_path / "report.json"
    code = main(["resistance", "--graph", str(path), "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    # infinities are serialized as strings, keeping the payload strict JSON
    assert report["values"]["exact_resistance"]["value"] == "inf"
    assert report["values"]["estimate"]["value"] == "inf"
    assert "disconnected" in report["flags"]


def test_or_demo_zero_weight_sample(tmp_path):
    # t = 1 makes the low-side sample the all-zeros string (w+ infinite)
    out = tmp_path / "or.json"
    code = main(["or-demo", "--n", "3", "--t", "1", "--lam", "0.5",
                 "--eps", "0.3", "--seed", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    low = report["threshold_runs"][1]
    assert low["true_w_plus"] == "inf"
    assert low["expected_decision"] == 0


def test_cli_import_loads_neither_scipy_nor_networkx():
    # the package runs on numpy alone: scipy serves only the tests' Schur
    # oracle and the benchmark, networkx only the tests' graph atlas; verify
    # imports multiprocessing only when it may start workers
    src = str(Path(spanforge.__file__).resolve().parents[1])
    code = ("import sys, spanforge.cli; "
            "print([m for m in ('scipy', 'networkx', 'multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None  # an import of scipy or of a submodule now raises
import numpy as np
from spanforge.cli import main
from spanforge.generators import random_graph
from spanforge.qsim import QueryLedger
from spanforge.resistance import estimate_resistance, lambda2
from spanforge.verify import run_suite

failed = [c.name for c in run_suite("all", trials=2, dims=8, seed=1) if not c.passed]
assert failed == [], failed
assert main(["verify", "--suite", "all", "--trials", "2", "--seed", "1", "--out", OUT]) == 0
g = random_graph(np.random.default_rng(3), 10, 0.5)
for method in ("effective-gap", "real-gap"):
    mu = lambda2(g) if method == "real-gap" else None
    report = estimate_resistance(g, 0.3, method, np.random.default_rng(4), QueryLedger(), mu=mu)
    assert 0.0 < report.estimate < 2.0 * report.exact, report
print(sorted(name for name, module in sys.modules.items()
             if name.split(".")[0] == "scipy" and module is not None))
"""


def test_verify_and_estimates_run_with_scipy_blocked(tmp_path):
    src = str(Path(spanforge.__file__).resolve().parents[1])
    out_path = tmp_path / "verify.json"
    code = f"OUT = {str(out_path)!r}\n{NUMPY_ONLY}"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    report = json.loads(out_path.read_text())
    assert report["passed"] and len(report["checks"]) == 37


def test_every_exported_name_resolves():
    names = spanforge.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(spanforge, name)] == []
    namespace = {}
    exec("from spanforge import *", namespace)
    assert set(names) <= set(namespace)
