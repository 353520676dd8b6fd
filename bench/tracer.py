"""In-memory span tracer that wraps spanforge's public functions from outside.

A span is (name, start, end, parent, task).  Spans are appended to flat
arrays while the traced code runs and are only summarised or written out
afterwards, so recording one costs two clock reads and a few appends.

Modules bind each other's functions by name (``from .spectral import
build_Uprime``), so installing the tracer replaces a function object in every
``spanforge.*`` namespace that holds it, not only in the defining module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Module suffix -> layer name used in metric names.
LAYERS = {
    "_linalg": "linalg",
    "spanprog": "spanprog",
    "spectral": "spectral",
    "qsim": "qsim",
    "algorithms": "algorithms",
    "resistance": "resistance",
    "generators": "generators",
    "verify": "verify",
}

# The two dense kernels, traced as leaf spans and reported as layers of
# their own, so their time is not part of linalg.self_s or spectral.self_s.
SVD = "linalg.svd"
SCHUR = "spectral.schur"
KERNELS = (SVD, SCHUR)

# Span groups whose inclusive time and call count are reported.  A span
# nested inside another span of its own group is not counted again.
GROUPS = {
    "spectral.build": ("spectral.build_U", "spectral.build_Uprime"),
    "spanprog.minimal_witness": ("spanprog.minimal_witness",),
    "spanprog.subspace_projector": ("spanprog.subspace_projector",),
    "spanprog.witness": (
        "spanprog.positive_witness",
        "spanprog.negative_witness",
        "spanprog.min_error_positive",
        "spanprog.min_error_negative",
        "spanprog.witness_report",
        "spanprog.minimal_negative_value",
    ),
    "algorithms.decision_context": ("algorithms.decision_context",),
    "qsim.outcome_zero": ("qsim.outcome_zero_probability",),
    "resistance.oracle": ("resistance.exact_resistance", "resistance.lambda2"),
    "verify.suite_s.duality": ("verify.suite_duality",),
    "verify.suite_s.spectral": ("verify.suite_spectral",),
    "verify.suite_s.scaling": ("verify.suite_scaling",),
    "verify.suite_s.szegedy": ("verify.suite_szegedy",),
    "verify.suite_s.kappa": ("verify.suite_kappa",),
    "verify.suite_s.appendixB": ("verify.suite_appendix_b",),
    SVD: (SVD,),
    SCHUR: (SCHUR,),
}
GENERATORS = "generators"  # every generators.* span forms one more group


def _group_index(name: str) -> int:
    if name.startswith(GENERATORS + "."):
        return len(GROUPS)
    return next((g for g, members in enumerate(GROUPS.values()) if name in members), -1)


def _array_key(arr) -> tuple:
    arr = np.asarray(arr)
    return (arr.shape, arr.dtype.str, hash(arr.tobytes()))


def svd_flops(m: int, n: int, compute_uv: bool) -> float:
    """Golub-Van Loan operation counts for a dense m x n SVD (m >= n):
    4mn^2 - 4n^3/3 for the values only, 4m^2n + 8mn^2 + 9n^3 with both factors."""
    m, n = max(m, n), min(m, n)
    if compute_uv:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def schur_flops(d: int) -> float:
    """Real Schur form with its orthogonal factor: about 25 d^3 operations."""
    return 25.0 * d**3


class Tracer:
    """Records spans and kernel observations between install and uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.current_task = -1
        self._stack: list[int] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.svd_keys: set = set()
        self.svd_max_dim = 0
        self.svd_flops = 0.0
        self.schur_max_dim = 0
        self.schur_flops = 0.0
        self.mw_keys: set = set()
        self.ae_grid_points = 0
        self.pe_grid_max = 0
        self.rounds = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        idx = len(self.names)
        self.names.append(name)
        layer = name.split(".")[0]
        clock = time.perf_counter
        stack = self._stack
        names, parents, tasks = self.name, self.parent, self.task
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            tasks.append(self.current_task)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_svd(self, args, kwargs, result):
        mat = np.asarray(args[0])
        m, n = mat.shape[-2], mat.shape[-1]
        compute_uv = bool(kwargs.get("compute_uv", args[2] if len(args) > 2 else True))
        self.svd_keys.add(_array_key(mat) + (compute_uv,))
        self.svd_max_dim = max(self.svd_max_dim, m, n)
        self.svd_flops += svd_flops(m, n, compute_uv)

    def _observe_schur(self, args, kwargs, result):
        d = np.asarray(args[0]).shape[0]
        self.schur_max_dim = max(self.schur_max_dim, d)
        self.schur_flops += schur_flops(d)

    def _observe_minimal_witness(self, args, kwargs, result):
        program = args[0]
        self.mw_keys.add(_array_key(program.a_mat) + _array_key(program.tau))

    def _observe_ae(self, args, kwargs, result):
        self.ae_grid_points += int(args[1] if len(args) > 1 else kwargs["grid_size"])

    def _observe_pe_grid(self, args, kwargs, result):
        self.pe_grid_max = max(self.pe_grid_max, int(result))

    def _observe_rounds(self, args, kwargs, result):
        self.rounds += int(result.rounds)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules in every
        spanforge namespace, plus numpy.linalg.svd and scipy.linalg.schur."""
        import numpy.linalg
        import scipy.linalg

        observers = {
            "spanprog.minimal_witness": self._observe_minimal_witness,
            "qsim.ae_outcome_distribution": self._observe_ae,
            "qsim.pe_grid_size": self._observe_pe_grid,
            "algorithms.witness_estimate": self._observe_rounds,
            "algorithms.gap_estimate": self._observe_rounds,
        }
        wrappers: dict[int, object] = {}
        for suffix, layer in LAYERS.items():
            module = sys.modules[f"spanforge.{suffix}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(value)] = self._wrap(name, value, observers.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "spanforge" and not modname.startswith("spanforge."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

        for module, attr, name, observe in (
            (numpy.linalg, "svd", SVD, self._observe_svd),
            (scipy.linalg, "schur", SCHUR, self._observe_schur),
        ):
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "task": np.frombuffer(self.task, dtype=np.int32),
        }

    def save(self, path) -> None:
        """Write the spans as a compressed .npz; the name column indexes names."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summarize(self, wall: float) -> dict[str, float]:
        """Per-layer metrics over every recorded span; wall is the traced
        time of the task list the spans ran in."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child

        layer_names = list(LAYERS.values()) + list(KERNELS)
        span_layer = np.array(
            [layer_names.index(n if n in KERNELS else n.split(".")[0]) for n in self.names]
        )[a["name"]]
        self_by_layer = np.bincount(span_layer, weights=self_time, minlength=len(layer_names))
        out: dict[str, float] = {
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - float(dur[~has_parent].sum()),
            "trace.spans": float(len(dur)),
            # negative only when spans are not properly nested
            "trace.min_self_s": float(self_time.min(initial=0.0)),
        }
        for layer, seconds in zip(layer_names, self_by_layer):
            if layer not in KERNELS:
                out[f"{layer}.self_s"] = float(seconds)
                out[f"{layer}.errors"] = float(self.errors.get(layer, 0))

        # Group of each span, and whether no ancestor belongs to the same group.
        group_names = list(GROUPS) + [GENERATORS]
        group = np.array([_group_index(n) for n in self.names])[a["name"]]
        outer = group >= 0
        ancestor = a["parent"].astype(np.int64)
        while (live := ancestor >= 0).any():
            same = np.zeros_like(outer)
            same[live] = group[ancestor[live]] == group[live]
            outer &= ~same
            ancestor[live] = a["parent"][ancestor[live]]
        for g, gname in enumerate(group_names):
            sel = outer & (group == g)
            seconds = float(dur[sel].sum())
            if gname.startswith("verify.suite_s."):
                out[gname] = seconds
            elif gname == "resistance.oracle":
                out["resistance.oracle_s"] = seconds
            else:
                out[f"{gname}.calls"] = float(int(sel.sum()))
                out[f"{gname}.s"] = seconds

        svd_calls = out[f"{SVD}.calls"]
        mw_calls = out["spanprog.minimal_witness.calls"]
        out.update({
            f"{SVD}.max_dim": float(self.svd_max_dim),
            f"{SVD}.flops": self.svd_flops,
            f"{SVD}.unique_ratio": len(self.svd_keys) / svd_calls if svd_calls else 0.0,
            f"{SCHUR}.max_dim": float(self.schur_max_dim),
            f"{SCHUR}.flops": self.schur_flops,
            "spanprog.minimal_witness.unique_ratio": len(self.mw_keys) / mw_calls if mw_calls else 0.0,
            "qsim.ae_grid_points": float(self.ae_grid_points),
            "qsim.pe_grid.max": float(self.pe_grid_max),
            "algorithms.rounds": float(self.rounds),
        })
        return out
