"""Span programs over the reals and exact computation of all witness quantities.

A span program is a tuple (H, V, tau, A): H splits into coordinate blocks
H_1, ..., H_n, H_true, H_false, and each input position j carries subspaces
H_{j,a} of H_j, one per alphabet symbol a.  An input string x selects
H(x) = H_{1,x_1} + ... + H_{n,x_n} + H_true, and x is positive exactly when
some w in H(x) satisfies A w = tau.

Everything an estimate reads per input position is a read-only index
array, made once.  A program holds its input blocks as _InputBlocks: the
coordinates of H_1, ..., H_n in one array, as a CSR matrix holds its column
indices, and one block width when all blocks share it (the st program's is
2), per-block sizes and starts otherwise; a tuple of index tuples is
converted at construction.  check_input reads an input string, a sequence
or an array, as a read-only intp array, validated in one vectorized pass
over an array; the Subspaces store's table of ids is laid out once per
(input_blocks, q) in a _Layout, one broadcast row for a per-symbol store,
so that H(x)'s walk indexes it with x directly.

A is a dense matrix or signed incidence columns (Incidence), which the
estimators read only through A v, A^T u, A A^T and the Gram of a subset of
columns; SpanProgram.a_mat forms the dense A on demand for spanforge.oracle
and the tests.  Every quantity about an input comes from A(x) = A Q_H, Q_H an
orthonormal basis of H(x) kept block by block, with each block's basis
taken from the program's Subspaces store and each run of identity blocks
kept as one set of coordinates, so that A(x) of the st program is a subset
of A's columns; no dim_h x dim_h matrix is formed.  The store holds the
distinct H_{j,a} matrices and an n x q table of their ids; a program
whose positions share one matrix per symbol gives it per symbol
(Subspaces.per_symbol), which broadcasts one row of ids, so
neither a per-key dict nor a per-key check is made.  A program factors A
once per Tolerances and solves w0 through the factors, by the rule
input_factors follows for A(x): an incidence A wider than tall, such as
the st program's, is read through one eigh of its exact Gram A A^T, which
gives w0 = A^T U_r Sigma^-2 U_r^T tau and forms the row basis
V_r = A^T U_r Sigma^-1 only when a caller reads it; every other A is
factored by one SVD, the Gram route's oracle.  input_factors factors A(x)
once, by one eigh of its exact Gram G(x) = A(x) A(x)^T when A is incidence
columns and A(x) is wider than tall, and by one SVD otherwise, and decides
once whether tau lies in col A(x); one helper, _gram_factors, holds the
Gram route and its rank cut for both.  The witness functions
(positive_witness, negative_witness, min_error_positive,
min_error_negative and witness_report) and spectral.kappa_bound take that
InputFactors alone, which owns the program, x and Tolerances it was built
for, so none can be handed those of another input; a caller factors once
with input_factors(program, x, tols).  Infeasible sizes are math.inf.
scaled_factors reads the factors of oracle.scale(program, beta) from
A = U_r Sigma V_r^T with one SVD of an (r+1) x (r+1) matrix.  The
threshold rounds take it where their closed form in spectral does not
hold, when tau lies in col(A) only to within membership_rtol or beta cuts
a direction of A_beta, and the tests take it as that closed form's oracle;
what that closed form reads of tau in A's factors (_TargetFactors) is a
field of the Factorization, computed where the Factorization is made.
rescale_target and normalize change tau alone, so the program they derive
shares the factors of A of every Factorization its parent holds, with w0
scaled by the factor and _TargetFactors computed from the new tau.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._linalg import (
    DEFAULT_TOLS,
    Tolerances,
    _rank,
    column_space_split,
    freeze,
    numerical_rank,
    pinv,
    svd_factors,
)


class SpanProgramError(ValueError):
    """Base class for span program errors."""


class StructuralError(SpanProgramError):
    """The object is malformed (dimension/shape inconsistencies)."""


class GloballyInfeasibleError(SpanProgramError):
    """tau is not in the column space of A: no input has a positive witness."""


class ProgramSizeError(SpanProgramError):
    """A program's dense A would hold more than DENSE_A_ENTRY_CAP entries, or
    an incidence program more than INCIDENCE_DIM_H_CAP coordinates."""


# entry cap of a dense A: at the cap A takes 2.1 GB as float64; the st
# program at n = 500 holds 1.25e8 entries, at n = 2000 it would hold 8e9
DENSE_A_ENTRY_CAP = 2**28
# dim_h cap of a program whose A is given as incidence columns, which forms
# dim_h-length vectors only: at the cap one float64 vector takes 34 MB and
# the two index arrays of A 67 MB; the st program reaches it at n = 2048
INCIDENCE_DIM_H_CAP = 2**22
# the Gram route's floor on the eigenvalues of A A^T or G(x), per row of A
# and relative to sigma_max(A)^2: the kernel eigenvalues of 2 L_G measured at
# most 0.14 dim_v eps relative, over random graphs cut in two, n <= 800
GRAM_NOISE_RTOL = 10.0 * np.finfo(float).eps


def check_dense_a_size(dim_v: int, dim_h: int, what: str = "a dense A") -> None:
    """Raise ProgramSizeError, before anything is allocated, when a dense
    dim_v x dim_h A, or another dense array of that shape read from A,
    would hold more than DENSE_A_ENTRY_CAP entries."""
    if dim_v * dim_h > DENSE_A_ENTRY_CAP:
        raise ProgramSizeError(
            f"{what} of {dim_v} x {dim_h} = {dim_v * dim_h} entries is above "
            f"the cap of {DENSE_A_ENTRY_CAP}"
        )


def check_incidence_size(dim_h: int) -> None:
    """Raise ProgramSizeError, before anything is allocated, when an
    incidence program would have more than INCIDENCE_DIM_H_CAP coordinates."""
    if dim_h > INCIDENCE_DIM_H_CAP:
        raise ProgramSizeError(
            f"an incidence A with dim_h = {dim_h} columns is above the cap of "
            f"{INCIDENCE_DIM_H_CAP}"
        )


_INTP = np.dtype(np.intp)


def _frozen_index(arr: np.ndarray) -> np.ndarray:
    """An integer array as a read-only intp array: arr itself when it
    already is one that owns its data, as freeze keeps a float array, and a
    read-only copy otherwise."""
    if arr.dtype is _INTP and arr.flags.owndata and not arr.flags.writeable:
        return arr
    out = arr.astype(np.intp)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Incidence:
    """A dim_v x dim_h matrix A given as signed incidence columns: column k
    is e_{plus[k]} - e_{minus[k]}, with plus and minus held as read-only
    intp arrays, kept as given when they already are ones that own their
    data and copied otherwise.  The estimators read it only through four
    operations: dot (A v), tdot (A^T u), gram (A A^T) and column_gram (the
    Gram of a subset of its columns).  Sums of +/-1 are exact, so both Grams
    are exact; tdot is one subtraction per entry, as a dense product would
    give it.  columns forms a subset of the columns densely, and dense the
    whole of A, for SpanProgram.a_mat."""

    dim_v: int
    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        for name in ("plus", "minus"):
            given = np.asarray(getattr(self, name))
            if given.size and given.dtype.kind not in "iu":
                raise StructuralError(f"incidence rows must be integers, got {given.dtype}")
            object.__setattr__(self, name, _frozen_index(given))
        plus, minus = self.plus, self.minus
        if plus.ndim != 1 or plus.shape != minus.shape:
            raise StructuralError("incidence columns need two index arrays of one length")
        if plus.size and not (
            0 <= min(plus.min(), minus.min()) and max(plus.max(), minus.max()) < self.dim_v
        ):
            raise StructuralError(f"incidence rows must lie in [0, {self.dim_v})")
        if np.any(plus == minus):
            raise StructuralError("an incidence column needs two distinct rows")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim_v, self.plus.size)

    def dot(self, v: np.ndarray) -> np.ndarray:
        """A v for a vector v of length dim_h."""
        return (np.bincount(self.plus, v, self.dim_v)
                - np.bincount(self.minus, v, self.dim_v))

    def tdot(self, u: np.ndarray) -> np.ndarray:
        """A^T u for u of dim_v rows, a vector or a matrix."""
        return u[self.plus] - u[self.minus]

    def column_gram(self, cols: np.ndarray) -> np.ndarray:
        """A_c A_c^T for the columns c = cols of A: degrees on the diagonal,
        minus one per column at (plus, minus) and (minus, plus), in place."""
        n = self.dim_v
        plus, minus = self.plus[cols], self.minus[cols]
        links = np.bincount(plus * n + minus, minlength=n * n).reshape(n, n)
        out = np.zeros((n, n))
        out.flat[:: n + 1] = np.bincount(plus, minlength=n) + np.bincount(minus, minlength=n)
        out -= links  # subtracted from +0.0, not negated, so no entry is -0.0
        out -= links.T
        return out

    def gram(self) -> np.ndarray:
        """A A^T."""
        return self.column_gram(slice(None))

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """The columns cols of A as a dense dim_v x len(cols) matrix."""
        plus, minus = self.plus[cols], self.minus[cols]
        out = np.zeros((self.dim_v, plus.size))
        at = np.arange(plus.size)
        out[plus, at] = 1.0
        out[minus, at] = -1.0
        return out

    def dense(self) -> np.ndarray:
        return self.columns(slice(None))


# the operations through which the estimators read A, dense or given as
# incidence columns


def _dot(a: np.ndarray | Incidence, v: np.ndarray) -> np.ndarray:
    """A v."""
    return a.dot(v) if isinstance(a, Incidence) else a @ v


def _tdot(a: np.ndarray | Incidence, u: np.ndarray) -> np.ndarray:
    """A^T u."""
    return a.tdot(u) if isinstance(a, Incidence) else a.T @ u


def _gram(a: np.ndarray | Incidence) -> np.ndarray:
    """A A^T."""
    return a.gram() if isinstance(a, Incidence) else a @ a.T


def _columns(a: np.ndarray | Incidence, cols: np.ndarray) -> np.ndarray:
    """The columns cols of A as a dense matrix."""
    return a.columns(cols) if isinstance(a, Incidence) else a[:, cols]


# how one stored basis enters a walk of H(x): no columns, exactly the
# identity on its block, or a general matrix
_NONE, _IDENTITY, _GENERAL = 0, 1, 2


def _kind(basis: np.ndarray) -> int:
    rows, cols = basis.shape
    if cols == 0:
        return _NONE
    if rows == cols and np.array_equal(basis, np.eye(rows)):
        return _IDENTITY
    return _GENERAL


@dataclass(frozen=True, eq=False)
class _InputBlocks:
    """The coordinates of H_1, ..., H_n as read-only index arrays, laid out
    as the column indices of a CSR matrix (Eisenstat et al., "Yale sparse
    matrix package", 1977): coords holds every block's coordinates in block
    order.  When all n blocks have one size, width holds it and no
    per-block array is kept; otherwise sizes holds each block's size and
    starts its first entry in coords, as CSR row pointers do.  blocks[j] is
    block j's coordinates, a read-only view of coords."""

    n: int
    coords: np.ndarray
    width: Optional[int]
    sizes: Optional[np.ndarray]
    starts: Optional[np.ndarray]

    @classmethod
    def of(cls, given) -> _InputBlocks:
        """given as index arrays, converted once: an (n, width) integer array
        is n blocks of width coordinates each, one row per block; any other
        sequence of index sequences is read block by block.  An
        _InputBlocks is kept as it is."""
        if isinstance(given, _InputBlocks):
            return given
        if isinstance(given, np.ndarray):
            if given.ndim != 2 or (given.size and given.dtype.kind not in "iu"):
                raise StructuralError(
                    f"input blocks as an array must be an (n, width) integer array, "
                    f"got {given.dtype} of shape {given.shape}"
                )
            return cls(given.shape[0], _frozen_index(given).reshape(-1), given.shape[1], None, None)
        n = len(given)
        sizes = np.fromiter(map(len, given), dtype=np.intp, count=n)
        coords = np.fromiter(
            itertools.chain.from_iterable(given), dtype=np.intp, count=int(sizes.sum())
        )
        coords.setflags(write=False)
        if n == 0 or np.all(sizes == sizes[0]):
            return cls(n, coords, int(sizes[0]) if n else 0, None, None)
        starts = np.cumsum(sizes) - sizes
        sizes.setflags(write=False)
        starts.setflags(write=False)
        return cls(n, coords, None, sizes, starts)

    def __len__(self) -> int:
        return self.n

    def span(self, j: int) -> tuple[int, int]:
        """Block j's entries of coords, as coords[low:high]."""
        if self.width is not None:
            return j * self.width, (j + 1) * self.width
        low = int(self.starts[j])
        return low, low + int(self.sizes[j])

    def __getitem__(self, j: int) -> np.ndarray:
        if not 0 <= j < self.n:
            raise IndexError(f"block {j} out of range for {self.n} blocks")
        low, high = self.span(j)
        return self.coords[low:high]

    def __iter__(self):
        return (self[j] for j in range(self.n))

    @property
    def repeats(self) -> int | np.ndarray:
        """The size of every block: width, or sizes when they differ."""
        return self.width if self.width is not None else self.sizes

    def __eq__(self, other) -> bool:
        if not isinstance(other, _InputBlocks):
            return NotImplemented
        return (
            self.n == other.n
            and self.width == other.width
            and np.array_equal(self.coords, other.coords)
            and (self.width is not None or np.array_equal(self.sizes, other.sizes))
        )


@dataclass(frozen=True)
class _Layout:
    """A store laid out for one (input_blocks, q): which[j, a] is the index
    of H_{j,a}'s distinct matrix, -1 when it is absent or empty.  A
    per-symbol store's which is one row broadcast down the n positions,
    with no n x q copy."""

    input_blocks: _InputBlocks
    q: int
    which: np.ndarray

    def ids(self, x: np.ndarray) -> np.ndarray:
        """which[j, x_j] at each position j."""
        if x.size and self.which.strides[0] == 0:
            return self.which[0, x]
        return self.which[np.arange(x.size), x]


def _interned(mats: Iterable[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """The distinct matrix objects among mats, each frozen once, and the
    index of each mat among them."""
    # by id, holding the given object so that no other can take its id
    seen: dict[int, tuple[np.ndarray, int]] = {}
    distinct: list[np.ndarray] = []
    index = []
    for mat in mats:
        if id(mat) not in seen:
            seen[id(mat)] = (mat, len(distinct))
            distinct.append(freeze(np.atleast_2d(mat)))
        index.append(seen[id(mat)][1])
    return distinct, index


class Subspaces(Mapping):
    """Read-only store of the H_{j,a} matrices, keyed by (j, a), that the
    programs derived from one another share.  It holds the distinct
    matrices and a table of their ids, ids[j, a] = -1 where H_{j,a} is not
    given; keys iterate in (j, a) order.  A mapping keyed by (j, a) fills
    the table key by key; per_symbol broadcasts one row, H_{j,a} = H_a at
    every position.  A matrix object given under several keys is frozen
    once and shared by them.  Each distinct matrix's bases are decided once
    per Tolerances, with one SVD per distinct content; an empty matrix and
    one exactly the identity on its block need no SVD.  Each basis is
    classed once as having no columns, being exactly the identity on its
    block, or neither; subspace_blocks reads H(x) from those classes.  The
    table is checked against, and laid out for, each (input_blocks, q) the
    store is used with once; the coordinates stay the program's own index
    arrays."""

    def __init__(self, mats: Mapping[tuple[int, int], np.ndarray]):
        pairs = [(int(j), int(a)) for j, a in mats]
        negative = next((key for key in pairs if min(key) < 0), None)
        if negative is not None:
            raise StructuralError(f"subspace key {negative} out of range")
        keys = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        distinct, index = _interned(mats.values())
        ids = np.full(tuple(keys.max(axis=0) + 1) if keys.size else (0, 0), -1, dtype=np.intp)
        ids[keys[:, 0], keys[:, 1]] = index
        ids.setflags(write=False)
        self._setup(distinct, ids)

    @classmethod
    def per_symbol(cls, n: int, mats: Mapping[int, np.ndarray]) -> Subspaces:
        """The store with H_{j,a} = mats[a] at each of n positions j: one
        row of ids, broadcast down n rows without a copy."""
        symbols = np.fromiter(map(int, mats), dtype=np.intp, count=len(mats))
        if n < 0 or np.any(symbols < 0):
            raise StructuralError("per-symbol subspaces need n >= 0 and symbols >= 0")
        distinct, index = _interned(mats.values())
        row = np.full(int(symbols.max(initial=-1)) + 1, -1, dtype=np.intp)
        row[symbols] = index
        store = cls.__new__(cls)
        store._setup(distinct, np.broadcast_to(row, (n, row.size)))
        return store

    def _setup(self, distinct: list[np.ndarray], ids: np.ndarray) -> None:
        self._distinct = distinct
        self._ids = ids
        self._decided: dict[Tolerances, tuple[np.ndarray, list, dict, set]] = {}
        self._layout: Optional[_Layout] = None

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        try:
            j, a = map(int, key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        rows, cols = self._ids.shape
        d = self._ids[j, a] if 0 <= j < rows and 0 <= a < cols else -1
        if d < 0:
            raise KeyError(key)
        return self._distinct[d]

    def __iter__(self):
        return ((int(j), int(a)) for j, a in zip(*np.nonzero(self._ids >= 0)))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._ids >= 0))

    def layout(self, input_blocks: _InputBlocks, q: int) -> _Layout:
        """The store laid out for input_blocks and q.  Raises StructuralError
        unless every key (j, a) has j < len(input_blocks) and a < q, and every
        nonempty H_{j,a} has len(input_blocks[j]) rows; both are one
        vectorized comparison over the table, over its one row for a
        per-symbol store.  The layout last built is kept, and given again
        for the same input_blocks and q."""
        kept = self._layout
        if kept is not None and kept.q == q and (
            kept.input_blocks is input_blocks or kept.input_blocks == input_blocks
        ):
            return kept
        n = len(input_blocks)
        ids = self._ids
        # the table ends at its largest key (j, a), which is given
        if ids.size and (ids.shape[0] > n or ids.shape[1] > q):
            j = ids.shape[0] - 1 if ids.shape[0] > n else int(np.argmax(ids[:, -1] >= 0))
            a = ids.shape[1] - 1 if ids.shape[0] <= n else int(np.argmax(ids[-1] >= 0))
            raise StructuralError(f"subspace key {(j, a)} out of range")
        # a per-symbol table repeats one row: check and lay out that row alone
        shared = ids.strides[0] == 0 and ids.shape[0] == n > 0
        table = ids[:1] if shared else ids[:n, :q]
        # per distinct matrix, with a last entry for ids of -1: its rows and
        # its id in the layout, -1 when it has no columns
        rows = np.array([mat.shape[0] for mat in self._distinct] + [0], dtype=np.intp)
        live = np.array([d if mat.size else -1 for d, mat in enumerate(self._distinct)] + [-1],
                        dtype=np.intp)
        sizes = input_blocks.repeats
        if input_blocks.width is None:
            sizes = sizes[: ids.shape[0], None]
        wrong = (live[table] >= 0) & (rows[table] != sizes)
        if wrong.any():
            j, a = np.argwhere(wrong)[0]
            raise StructuralError(
                f"subspace ({j},{a}) has {rows[ids[j, a]]} rows, "
                f"block has {len(input_blocks[j])} coordinates"
            )
        which = np.full((table.shape[0] if shared else n, q), -1, dtype=np.intp)
        which[: table.shape[0], : table.shape[1]] = live[table]
        which.setflags(write=False)
        if shared:
            which = np.broadcast_to(which, (n, q))
        self._layout = _Layout(input_blocks, q, which)
        return self._layout

    def decided(
        self, ids: np.ndarray, tols: Tolerances
    ) -> tuple[np.ndarray, list[Optional[tuple[np.ndarray, np.ndarray]]]]:
        """(kinds, splits) under tols, with every distinct matrix in ids
        decided: splits[d] holds read-only orthonormal bases of matrix d's
        column space and of its complement in its block, and kinds[d] their
        two classes.  kinds[-1] classes an absent or empty H_{j,a}, which
        leaves its whole block outside H(x).

        An empty matrix, and one exactly the identity on its block, is
        decided without an SVD when tols is first asked for; every other
        matrix when ids first holds it, by one SVD per distinct content.
        Once every matrix is decided, ids is not read."""
        entry = self._decided.get(tols)
        if entry is None:
            entry = self._decided[tols] = self._free_decisions()
        kinds, splits, by_content, left = entry
        if not left:
            return kinds, splits
        pending = ids[kinds[ids, 0] < 0]
        for d in np.unique(pending) if pending.size else ():
            mat = self._distinct[d]
            content = (mat.shape, mat.tobytes())
            if content not in by_content:
                split = by_content[content] = column_space_split(mat, tols)
                for part in split:
                    part.setflags(write=False)
            splits[d] = by_content[content]
            kinds[d] = [_kind(part) for part in splits[d]]
            left.discard(d)
        return kinds, splits

    def _free_decisions(self) -> tuple[np.ndarray, list, dict, set]:
        """A fresh per-Tolerances entry (kinds, splits, by_content, left),
        with the empty and identity matrices decided and left holding the
        ids of the others."""
        kinds = np.full((len(self._distinct) + 1, 2), -1, dtype=np.int8)
        kinds[-1] = (_NONE, _IDENTITY)
        splits: list = [None] * len(self._distinct)
        left = set()
        for d, mat in enumerate(self._distinct):
            rows, cols = mat.shape
            if mat.size == 0:
                splits[d] = (_frozen_eye(rows, 0), _frozen_eye(rows, rows))
            elif rows == cols and np.array_equal(mat, np.eye(rows)):
                splits[d] = (_frozen_eye(rows, rows), _frozen_eye(rows, 0))
            else:
                left.add(d)
                continue
            kinds[d] = [_kind(part) for part in splits[d]]
        return kinds, splits, {}, left


def _frozen_eye(rows: int, cols: int) -> np.ndarray:
    """The first cols columns of eye(rows), read-only."""
    out = np.eye(rows, cols)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpanProgram:
    """Immutable span program data.

    input_blocks gives each H_j's coordinates among the dim_h standard ones:
    a sequence of index sequences, one per position, or an (n, width)
    integer array whose row j is H_j's, for blocks of one width.  Either is
    converted once, at construction, into read-only index arrays
    (_InputBlocks), which the program holds; with one width no per-block
    array is kept.  true_block and false_block are index tuples.  The
    blocks must be disjoint and cover everything.  subspaces[(j, a)] is a
    matrix whose columns span H_{j,a}, written in H_j's local coordinates
    (len(input_blocks[j]) rows).
    Subspaces for different symbols of one position may overlap and need not
    be orthogonal; all that matters is that together they span H_j.  Any
    mapping is copied into a Subspaces store; a Subspaces, such as one made
    by Subspaces.per_symbol, is kept as given.
    A is a dense matrix or an Incidence, kept as given; a_mat is A as a
    dense matrix in either case.  A dense A and tau are kept as given when
    they already are read-only float arrays that own their data, and copied
    read-only otherwise.
    """

    n: int
    q: int
    dim_h: int
    dim_v: int
    input_blocks: _InputBlocks
    true_block: tuple[int, ...]
    false_block: tuple[int, ...]
    subspaces: Mapping[tuple[int, int], np.ndarray]
    a: np.ndarray | Incidence
    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_factorizations", {})
        if not isinstance(self.a, Incidence):
            object.__setattr__(self, "a", freeze(np.atleast_2d(self.a)))
        object.__setattr__(self, "tau", freeze(np.asarray(self.tau, dtype=float)))
        object.__setattr__(self, "input_blocks", _InputBlocks.of(self.input_blocks))
        if not isinstance(self.subspaces, Subspaces):
            object.__setattr__(self, "subspaces", Subspaces(self.subspaces))
        if self.n < 0 or self.q < 1:
            raise StructuralError("need n >= 0 input positions and q >= 1 symbols")
        if self.a.shape != (self.dim_v, self.dim_h):
            raise StructuralError(
                f"A has shape {self.a.shape}, expected {(self.dim_v, self.dim_h)}"
            )
        if self.tau.shape != (self.dim_v,):
            raise StructuralError(f"tau has shape {self.tau.shape}, expected ({self.dim_v},)")
        if len(self.input_blocks) != self.n:
            raise StructuralError("one coordinate block required per input position")
        self.subspaces.layout(self.input_blocks, self.q)

    @property
    def a_mat(self) -> np.ndarray:
        """A as a dense read-only matrix: the array itself for a dense A, and
        formed anew from incidence columns, for the oracle, the SVD of a
        tall incidence A, scale, verify and the tests.
        The witness code reads A through A v, A^T u and A A^T instead.
        Raises ProgramSizeError, before allocating, above DENSE_A_ENTRY_CAP."""
        if not isinstance(self.a, Incidence):
            return self.a
        check_dense_a_size(self.dim_v, self.dim_h)
        mat = self.a.dense()
        mat.setflags(write=False)
        return mat

    def factorization(self, tols: Tolerances = DEFAULT_TOLS) -> Factorization:
        """A's factorization under tols: computed on first use, through
        A A^T for an incidence A wider than tall and by one SVD of A
        otherwise, then kept on the program, whose A and tau are read-only."""
        fact = self._factorizations.get(tols)
        if fact is None:
            fact = self._factorizations[tols] = _factorize(self, tols)
        return fact

    def check_input(self, x: Sequence[int] | np.ndarray) -> np.ndarray:
        """x as a read-only intp array of n symbols in [0, q).  A symbol is
        a Python or numpy int or bool; StructuralError for a float, string
        or other object (none is truncated), an int that no int64 holds, an
        x that is not one-dimensional, a length other than n or a symbol
        outside [0, q).  An array is checked in one vectorized pass.  A
        read-only intp array that owns its data is returned as it is; any
        other x, a caller's writeable array included, is copied, so that
        writing to it later changes nothing built from it."""
        given = x
        if not isinstance(x, np.ndarray):
            try:
                x = np.array(x)
            except (ValueError, OverflowError):  # ragged, or an int past uint64
                raise StructuralError("input symbols must be integers") from None
        # np.array(()) is float: an empty x has no symbol to refuse
        if x.dtype.kind not in "biu" and x.size:
            raise StructuralError("input symbols must be integers")
        if x.shape != (self.n,):
            if x.ndim != 1:
                raise StructuralError(f"input must be one-dimensional, got shape {x.shape}")
            raise StructuralError(f"input has length {x.size}, expected {self.n}")
        if x is given:
            x = _frozen_index(x)
            # a negative symbol reads as one above 2^63 unsigned, so one
            # reduction checks both ends
            out = self.n and np.maximum.reduce(x.view(np.uintp)) >= self.q
        else:
            # np.array read the sequence element by element; its own min
            # and max cost less than a reduction over a short array
            if x.dtype is not _INTP:
                x = x.astype(np.intp)
            x.setflags(write=False)
            out = self.n and (min(given) < 0 or max(given) >= self.q)
        if out:
            raise StructuralError(f"input symbols must lie in [0, {self.q})")
        return x


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, passed, detail in self.checks if not passed]


@dataclass(frozen=True)
class MinimalWitness:
    """Global minimal positive witness w0 = A^+ tau and the norms N_+/N_-."""

    w0: np.ndarray
    n_plus: float
    n_minus: float


# A tau whose residual rho = ||tau - U_r U_r^T tau|| off col(A) is at most
# this many ulps per row of V times ||tau|| lies in col(A) to within
# rounding: U_r^T tau and U_r (U_r^T tau) are dim_v-term sums, each off by
# at most about dim_v eps ||tau||, and U_r's columns are orthonormal to
# within a few eps dim_v, so an exact member of col(A) reads rho below it.
# Only then do the threshold rounds take their closed form; a tau that lies
# in col(A) only to within membership_rtol (rho = 1e-9 ||tau||, say) keeps
# the scaled_factors route, which sees rho.
_COL_RESIDUAL_RTOL = 10.0 * np.finfo(float).eps


@dataclass(frozen=True)
class _TargetFactors:
    """tau read in A's factors U_r Sigma V_r^T, as the threshold rounds'
    closed form (spectral._scaled_pair) reads it; it depends on the program
    and Tolerances alone.  With g = U_r^T tau and rho = ||tau - U_r g||,
    tau2 = ||g||^2 + rho^2 and sigma_min is A's least kept singular value.
    y_hat = y / ||y|| and n_val = ||y||^2, for y = V_r^T w0 = Sigma^-1 g,
    are held when tau lies in col(A) to within
    min(_COL_RESIDUAL_RTOL dim_v, rank_rtol) relative, and are None and 0.0
    otherwise; every field is None or 0.0 when no positive witness exists
    (_NO_TARGET)."""

    y_hat: Optional[np.ndarray]
    n_val: float
    sigma_min: float
    tau2: float


_NO_TARGET = _TargetFactors(None, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Factorization:
    """What every computation on one program needs from A, for one Tolerances.

    A = U_r diag(sigma) V_r^T, cut at the package's rank tolerance:
    col_basis is U_r (dim_v x rank), sigma the nonzero singular values and
    row_basis V_r (dim_h x rank), with sigma_max the largest singular value.
    rows holds V_r when A was factored by one SVD, and is None when A was
    read through its Gram: there V_r = A^T U_r Sigma^-1 is formed only when
    a caller reads row_basis (the oracle's kernel projector and the tests),
    once, and the copies _rescaled makes share it.  The estimators read A
    through U_r and Sigma alone (row_witness, and C(x) in
    spectral.row_space_cross).  witness is w0 = A^+ tau, solved through
    the factors, with N_+ and N_-; when no positive witness exists it is
    None and infeasible says why.  target is tau read in the factors, as
    the threshold rounds' closed form reads it.
    """

    # the program's A, which V_r is read from when rows is None
    _a: np.ndarray | Incidence = dataclasses.field(repr=False)
    col_basis: np.ndarray
    sigma: np.ndarray
    rows: Optional[np.ndarray]
    sigma_max: float
    witness: Optional[MinimalWitness]
    target: _TargetFactors
    infeasible: str = ""
    # V_r once formed when rows is None; dataclasses.replace hands this
    # same list on, so a copy and its original form it once between them
    _formed: list = dataclasses.field(default_factory=list, repr=False, compare=False)

    @property
    def row_basis(self) -> np.ndarray:
        if self.rows is not None:
            return self.rows
        if not self._formed:
            basis = _tdot(self._a, self.col_basis)
            basis /= self.sigma
            basis.setflags(write=False)
            self._formed.append(basis)
        return self._formed[0]

    def row_witness(self, tau: np.ndarray) -> np.ndarray:
        """y = V_r^T w0 for the witness w0 of tau: V_r^T w0 with V_r held,
        and Sigma^-1 U_r^T tau, with no V_r formed, otherwise."""
        if self.rows is None:
            return (self.col_basis.T @ tau) / self.sigma
        return self.rows.T @ self.witness.w0


def _target_factors(
    col_basis: np.ndarray, sigma: np.ndarray, tau: np.ndarray, tols: Tolerances
) -> _TargetFactors:
    """The _TargetFactors of a tau that has a positive witness, in A's
    factors U_r (col_basis) and Sigma."""
    g = col_basis.T @ tau
    off = tau - col_basis @ g
    rho2 = float(off @ off)
    tau2 = float(g @ g) + rho2
    sigma_min = float(sigma[-1])
    # rank_rtol ||tau|| bounds rho too, so that A_beta's cut drops rho's direction
    cut = min(_COL_RESIDUAL_RTOL * tau.size, tols.rank_rtol)
    if math.sqrt(rho2) > cut * math.sqrt(tau2):
        return _TargetFactors(None, 0.0, sigma_min, tau2)
    y = g / sigma  # V_r^T w0 = Sigma^-1 U_r^T tau
    n_val = float(y @ y)
    y_hat = y / math.sqrt(n_val)
    y_hat.setflags(write=False)
    return _TargetFactors(y_hat, n_val, sigma_min, tau2)


def _gram_factors(
    gram: np.ndarray, tols: Tolerances, a_scale: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """The factors of a matrix M read from one eigh of its exact Gram
    G = M M^T = U diag(lam) U^T, lam descending: the whole of U, whose first
    rank columns span col M and the rest its complement, the nonzero
    singular values sigma = sqrt(lam) over the kept lam, and the reference
    sigma_max(A): a_scale when given, as for G(x) = A(x) A(x)^T, and
    sqrt(lam_max) when M is A itself.

    An eigenvalue counts as nonzero iff
    lam > max(rank_rtol^2, GRAM_NOISE_RTOL dim_v) sigma_max(A)^2.  The first
    term is the SVD route's cut at rank_rtol sigma_max, squared, so a
    caller's rank_rtol means the same on both routes.  The second is a floor
    at eigh's noise: eigh gives lam only to within a few eps ||G||, and
    ||G|| <= sigma_max^2, so it resolves sigma only to about
    sqrt(eps) sigma_max, and a squared cut below that would count noise as
    rank.  At the default rank_rtol the floor is the cut."""
    lam, u = np.linalg.eigh(gram)
    lam, u = lam[::-1], u[:, ::-1]
    if a_scale is None:
        a_scale = math.sqrt(float(lam[0]))
    cut = max(tols.rank_rtol**2, GRAM_NOISE_RTOL * gram.shape[0]) * a_scale * a_scale
    return u, np.sqrt(lam[: np.count_nonzero(lam > cut)]), a_scale


def _factorize(program: SpanProgram, tols: Tolerances) -> Factorization:
    """A's factors, and w0 from them.  An incidence A wider than tall is
    read through _gram_factors of its exact Gram A A^T, and
    w0 = A^T (U_r ((U_r^T tau) / sigma^2)) forms no V_r and reads A only
    through A^T u and A v.  Every other A is factored by one SVD of the
    dense A, and w0 = V_r (Sigma^-1 (U_r^T tau)) with the SVD's V_r.
    Solving through the factors keeps the residual A w0 - tau at rounding
    size however small a kept singular value is; no A^+ is formed.  tau's
    _TargetFactors are read from the same factors."""
    a, tau = program.a, program.tau
    if isinstance(a, Incidence) and a.shape[1] > a.shape[0]:
        u, sigma, top = _gram_factors(a.gram(), tols)
        col_basis, sigma, rows = freeze(u[:, : sigma.size]), freeze(sigma), None
        w0 = a.tdot(col_basis @ ((col_basis.T @ tau) / (sigma * sigma)))
    else:
        col_basis, sigma, rows, top = svd_factors(program.a_mat, tols)
        col_basis, sigma, rows = freeze(col_basis), freeze(sigma), freeze(rows)
        w0 = rows @ ((col_basis.T @ tau) / sigma)
    parts = (a, col_basis, sigma, rows, top)
    image = _dot(a, w0)
    if np.linalg.norm(image - tau) > tols.membership_rtol * np.linalg.norm(tau):
        return Factorization(
            *parts, None, _NO_TARGET, "tau is not in col(A); no positive witness exists"
        )
    n_plus = float(w0 @ w0)
    if n_plus == 0.0:
        return Factorization(*parts, None, _NO_TARGET, "tau = 0 gives a degenerate program")
    return Factorization(
        *parts,
        MinimalWitness(w0=freeze(w0), n_plus=n_plus, n_minus=1.0 / n_plus),
        _target_factors(col_basis, sigma, tau, tols),
    )


@dataclass(frozen=True)
class WitnessReport:
    """All six witness quantities for one (P, x) pair.

    Exactly one of w_plus/w_minus is finite.  witness_vec is the optimal exact
    positive witness when x is positive, otherwise the optimal min-error
    positive witness.  neg_witness_row is omega A in H coordinates (exact when
    x is negative, min-error otherwise).
    """

    w_plus: float
    w_minus: float
    e_plus: float
    e_minus: float
    w_tilde_plus: float
    w_tilde_minus: float
    witness_vec: np.ndarray
    neg_witness_row: np.ndarray


def validate(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> ValidationReport:
    """Check the model invariants: disjoint covering blocks and spanning
    subspaces."""
    checks: list[tuple[str, bool, str]] = []

    # the blocks partition the coordinates iff, sorted together, they are 0..dim_h-1
    seen = np.concatenate([
        program.input_blocks.coords,
        np.array(program.true_block + program.false_block, dtype=np.intp),
    ])
    checks.append(
        (
            "blocks-disjoint-cover",
            np.array_equal(np.sort(seen), np.arange(program.dim_h)),
            "H_1..H_n, H_true, H_false must partition the dim_h coordinates",
        )
    )

    for j in range(program.n):
        rows = len(program.input_blocks[j])
        mats = [program.subspaces.get((j, a)) for a in range(program.q)]
        stacked = np.hstack([np.zeros((rows, 0))] + [m for m in mats if m is not None and m.size])
        spanning = numerical_rank(stacked, tols) == rows
        checks.append(
            (
                f"subspaces-span-H_{j}",
                spanning,
                "H_{j,1} + ... + H_{j,q} must equal H_j",
            )
        )
    return ValidationReport(tuple(checks))


# (coordinates, basis) pairs; a basis of None is the identity on its coordinates
Blocks = list[tuple[np.ndarray, Optional[np.ndarray]]]


def _runs(
    layout: _Layout,
    ids: np.ndarray,
    kinds: np.ndarray,
    splits: list,
    side: int,
    whole: tuple[int, ...],
) -> Blocks:
    """One side of H(x) (0 for Q_H, 1 for Q_perp) in block order, with each
    run of consecutive identity blocks, whole ending included, merged into
    one (coordinates, None) entry and blocks without columns left out."""
    blocks = layout.input_blocks
    coords = blocks.coords
    identity = np.repeat(kinds == _IDENTITY, blocks.repeats)
    out: Blocks = []
    start = 0
    for j in np.flatnonzero(kinds == _GENERAL):
        low, high = blocks.span(j)
        run = coords[start:low][identity[start:low]]
        if run.size:
            out.append((run, None))
        out.append((coords[low:high], splits[ids[j]][side]))
        start = high
    run = np.concatenate([coords[start:][identity[start:]], np.array(whole, dtype=np.intp)])
    if run.size:
        out.append((run, None))
    return out


def _walk(program: SpanProgram, x: np.ndarray, tols: Tolerances, side: int) -> Blocks:
    """One side of H(x), for x as check_input gives it: Q_H for side 0,
    Q_perp for side 1 (subspace_blocks)."""
    store = program.subspaces
    layout = store.layout(program.input_blocks, program.q)
    ids = layout.ids(x)
    kinds, splits = store.decided(ids, tols)
    whole = program.false_block if side else program.true_block
    return _runs(layout, ids, kinds[ids, side], splits, side, whole)


def subspace_blocks(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> tuple[Blocks, Blocks]:
    """Orthonormal bases Q_H of H(x) = H_{1,x_1} + ... + H_{n,x_n} + H_true and
    Q_perp of its complement, each as (coordinate indices, basis in those
    coordinates) pairs.  Block j's two parts are the store's bases of
    H_{j,x_j}; H_true lies wholly in H(x) and H_false wholly outside it, as
    does H_j when H_{j,x_j} is empty.  Those whole blocks, and every stored
    basis that is exactly the identity, are identity blocks: each run of
    consecutive ones is one (coordinates, None) entry, so the columns keep
    their order.  Parts without columns are left out.  The st program's
    H(x) is a single identity entry.  input_factors walks Q_H alone, and
    InputFactors walks Q_perp when it is first read."""
    x = program.check_input(x)
    return _walk(program, x, tols, 0), _walk(program, x, tols, 1)


def restrict(mat: np.ndarray | Incidence, blocks: Blocks) -> np.ndarray:
    """M Q for a matrix M on H's coordinates, dense or incidence columns,
    and a basis Q given block by block, as subspace_blocks gives Q_H and
    Q_perp; A Q_H is A(x).  An identity entry is a gather of M's columns,
    with no product."""
    parts = [
        _columns(mat, block) if basis is None else _columns(mat, block) @ basis
        for block, basis in blocks
    ]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=1) if parts else np.zeros((mat.shape[0], 0))


def _lift(dim_h: int, blocks: Blocks, coef: np.ndarray) -> np.ndarray:
    """The vector Q coef of H, for a basis Q given block by block; an
    identity entry scatters its coefficients."""
    w = np.zeros(dim_h)
    start = 0
    for block, basis in blocks:
        width = block.size if basis is None else basis.shape[1]
        part = coef[start : start + width]
        w[block] = part if basis is None else basis @ part
        start += width
    return w


def minimal_witness(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> MinimalWitness:
    """w0 = A^+ tau, N_+ = ||w0||^2, and N_- = 1/N_+ (the reciprocal identity)."""
    fact = program.factorization(tols)
    if fact.witness is None:
        raise GloballyInfeasibleError(fact.infeasible)
    return fact.witness


@dataclass(frozen=True)
class InputFactors:
    """A(x) = A Q_H for one input, factored once; every per-input quantity
    reads it: orthonormal bases U_x (col_basis) of col A(x) and Z
    (complement) of its complement, and the nonzero singular values sigma,
    cut relative to a_scale = sigma_max(A).  row_vectors holds A(x)'s right
    singular vectors V_x when A(x) was factored by an SVD, and is None when
    it was read through its Gram, where no V_x is formed.  positive, decided
    once for both signs, is ||Z^T tau|| <= membership_rtol ||tau||: whether
    tau lies in col A(x).  program, x (as check_input gives it) and tols are
    what it was built for, and the one place every quantity read from it
    takes them from; A(x) is read from the program's A.  Q_perp, which
    only the min-error positive witness reads, is walked when q_perp is
    first read, and kept."""

    program: SpanProgram
    x: np.ndarray
    tols: Tolerances
    q_h: Blocks
    col_basis: np.ndarray
    complement: np.ndarray
    sigma: np.ndarray
    row_vectors: Optional[np.ndarray]
    a_scale: float
    positive: bool

    @property
    def a(self) -> np.ndarray | Incidence:
        return self.program.a

    @cached_property
    def q_perp(self) -> Blocks:
        """Q_perp of x, as subspace_blocks gives it."""
        return _walk(self.program, self.x, self.tols, 1)

    @property
    def a_x(self) -> np.ndarray:
        """A(x) as a dense matrix, formed anew."""
        return restrict(self.a, self.q_h)

    def _rows(self, u: np.ndarray) -> np.ndarray:
        """A(x)^T u, through A's columns."""
        return restrict(_tdot(self.a, u)[None, :], self.q_h)[0]

    def _gram_solve(self, v: np.ndarray) -> np.ndarray:
        """A(x)^T U_x S_x^-2 U_x^T v, through A's columns."""
        return self._rows(self.col_basis @ ((self.col_basis.T @ v) / self.sigma / self.sigma))

    def solve(self, v: np.ndarray) -> np.ndarray:
        """A(x)^+ v: V_x S_x^-1 U_x^T v when V_x is held.  Through the Gram,
        w = A(x)^T U_x S_x^-2 U_x^T v keeps eigh's error of about
        kappa(G(x)) eps relative (7.6e-12 in ||w||^2 on the path of 200
        vertices), so one step of refinement, w + A(x)^+ (v - A(x) w),
        follows, with A(x) w read through A's columns."""
        if self.row_vectors is not None:
            return self.row_vectors @ ((self.col_basis.T @ v) / self.sigma)
        w = self._gram_solve(v)
        image = _dot(self.a, _lift(self.a.shape[1], self.q_h, w))  # A(x) w
        return w + self._gram_solve(v - image)

    def positive_size(self, tau: np.ndarray) -> float:
        """w_+ = ||A(x)^+ tau||^2 for tau in col A(x): ||S_x^-1 U_x^T tau||^2
        from an SVD.  Through the Gram it is 2 tau^T z - ||A(x)^T z||^2 for
        z = U_x S_x^-2 U_x^T tau, which is off from w_+ by -||A(x)^T e||^2
        for z's error e, second order: eigh's z is off by about
        eps sigma_max^2 / sigma_min^2 relative, and ||S_x^-1 U_x^T tau||^2,
        first order in e, would keep that (3.8e-12 on the path of 200
        vertices, where this form is within 1e-15)."""
        coef = (self.col_basis.T @ tau) / self.sigma
        if self.row_vectors is not None:
            return float(coef @ coef)
        z = self.col_basis @ (coef / self.sigma)
        rows = self._rows(z)
        return float(2.0 * (tau @ z) - rows @ rows)


def _width(blocks: Blocks) -> int:
    return sum(block.size if basis is None else basis.shape[1] for block, basis in blocks)


def _input_gram(a: Incidence, q_h: Blocks) -> np.ndarray:
    """G(x) = A(x) A(x)^T: exact over the identity entries of Q_H, a
    product over the others."""
    runs = [block for block, basis in q_h if basis is None]
    gram = a.column_gram(np.concatenate(runs) if runs else np.zeros(0, dtype=np.intp))
    for block, basis in q_h:
        if basis is not None:
            part = a.columns(block) @ basis
            gram += part @ part.T
    return gram


def input_factors(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> InputFactors:
    """Q_H and the factors of A(x) for x; Q_perp is walked only when read.

    An incidence A(x) wider than tall is read through its exact Gram
    G(x) = A(x) A(x)^T (2 L_G for the st program) by _gram_factors, one
    dim_v x dim_v eigh cut against sigma_max(A) from A's factorization:
    U_x and Z are the eigenvectors, S_x = sqrt(lam), and no V_x is formed.
    For the st program the nonzero lam are 2 lambda_k(L_G) >= 8/n^2 against
    sigma_max(A)^2 = 2n, so lam / sigma_max^2 >= 4/n^3: about 100 times the
    floor at n = 2048, the largest n within INCIDENCE_DIM_H_CAP.  On either
    route a rank_rtol above 2 n^-1.5, the bound on sigma_min / sigma_max,
    may cut into that rank.

    Every other A(x), dense or tall, is factored by one SVD, with the rank
    cut at rank_rtol sigma_max(A); U is full only when A(x) is taller than
    wide, otherwise the thin SVD already holds all of it, so no
    dim H(x) x dim H(x) array is formed.  That route is the oracle of the
    Gram route."""
    x = program.check_input(x)
    q_h = _walk(program, x, tols, 0)
    a_scale = program.factorization(tols).sigma_max
    if isinstance(program.a, Incidence) and _width(q_h) > program.dim_v:
        u, s, _ = _gram_factors(_input_gram(program.a, q_h), tols, a_scale)
        r, vt = s.size, None
    else:
        a_x = restrict(program.a, q_h)
        u, s, vt = np.linalg.svd(a_x, full_matrices=a_x.shape[1] < a_x.shape[0])
        r = _rank(s, tols, a_scale)
        s, vt = s[:r], vt[:r].T
    tau_off = float(np.linalg.norm(u[:, r:].T @ program.tau))
    positive = tau_off <= tols.membership_rtol * float(np.linalg.norm(program.tau))
    return InputFactors(program, x, tols, q_h, u[:, :r], u[:, r:], s, vt, a_scale, positive)


def positive_witness(f: InputFactors) -> tuple[Optional[np.ndarray], float]:
    """Optimal exact positive witness Q_H A(x)^+ tau for the input whose
    factors f are, or (None, inf) when x is negative."""
    if not f.positive:
        return None, math.inf
    w = _lift(f.program.dim_h, f.q_h, f.solve(f.program.tau))
    return freeze(w), f.positive_size(f.program.tau)


def _min_norm_under_linear_constraint(
    gram: np.ndarray, c: np.ndarray, tols: Tolerances, gram_scale: Optional[float] = None
) -> tuple[Optional[np.ndarray], float]:
    """Minimize nu^T G nu subject to nu . c = 1 for symmetric PSD G.

    Returns (nu, value); (None, inf) when c = 0, and (nu, 0.0) when c has a
    kernel component of G (the objective can be made exactly zero).
    """
    if not c.any():
        return None, math.inf
    y = pinv(gram, tols, scale=gram_scale) @ c
    kernel_part = c - gram @ y
    if np.linalg.norm(kernel_part) > tols.membership_rtol * np.linalg.norm(c):
        return kernel_part / float(kernel_part @ c), 0.0
    denom = float(c @ y)
    return y / denom, 1.0 / denom


def _complement_rows(f: InputFactors) -> np.ndarray:
    """Z^T A, read through A^T u; refused with ProgramSizeError, before it
    is allocated, where it would hold more than DENSE_A_ENTRY_CAP entries."""
    check_dense_a_size(f.complement.shape[1], f.program.dim_h, "Z^T A")
    return _tdot(f.a, f.complement).T


def negative_witness(f: InputFactors) -> tuple[Optional[np.ndarray], float]:
    """Optimal exact negative witness for the input whose factors f are.

    Solves min ||omega A||^2 subject to omega A(x) = 0 and omega tau = 1 by
    writing omega = Z nu for an orthonormal basis Z of col(A(x))^perp.
    Returns (omega A as a length-dim_h row, w_minus); (None, inf) when x is
    positive.
    """
    if f.positive:
        return None, math.inf
    b = _complement_rows(f)  # omega = Z nu; Z^T tau != 0 as x is negative
    nu, value = _min_norm_under_linear_constraint(
        b @ b.T, f.complement.T @ f.program.tau, f.tols, gram_scale=f.a_scale * f.a_scale
    )
    return freeze(nu @ b), value


def min_error_positive(f: InputFactors) -> tuple[np.ndarray, float, float]:
    """Optimal min-error positive witness for the input whose factors f are:
    (w_tilde, e_plus, w_tilde_plus).

    Writes w = Q_H a + Q_perp b, so A w = A(x) a + A_perp b with
    A_perp = A Q_perp, and the error is ||b||^2.  Read in the basis Z of
    col A(x)^perp, the constraint on b alone is Z^T A_perp b = Z^T tau, whose
    min-norm solution b = (Z^T A_perp)^+ Z^T tau is the unique minimal error
    coordinate; then a = A(x)^+ (tau - A_perp b) minimizes ||w||^2.
    """
    program, tols = f.program, f.tols
    minimal_witness(program, tols)  # raises when tau is outside col(A)
    off_perp = restrict(_complement_rows(f), f.q_perp)  # Z^T A_perp
    b = pinv(off_perp, tols, scale=f.a_scale) @ (f.complement.T @ program.tau)
    w_perp = _lift(program.dim_h, f.q_perp, b)
    a = f.solve(program.tau - _dot(program.a, w_perp))
    w = _lift(program.dim_h, f.q_h, a) + w_perp
    return freeze(w), float(b @ b), float(w @ w)


def min_error_negative(f: InputFactors) -> tuple[np.ndarray, float, float]:
    """Optimal min-error negative witness for the input whose factors f are:
    (omega_tilde A, e_minus, w_tilde_minus).

    Stage one minimizes ||omega A(x)||^2 over {omega : omega tau = 1}, stage
    two minimizes ||omega A||^2 among the stage-one minimizers.  On a negative
    x stage one reaches 0 and the result is the exact negative witness.  On a
    positive x, with omega = U_r alpha + Z beta and g = U_r^T tau, stage one
    fixes alpha = Sigma^-2 g / (g^T Sigma^-2 g) and stage two is a least-squares
    problem in beta.
    """
    program = f.program
    if not program.tau.any():
        raise StructuralError("tau = 0: no functional maps tau to 1")
    if not f.positive:
        row, w_minus = negative_witness(f)
        return row, 0.0, w_minus
    # omega = U_r alpha + Z beta, where Z^T tau = 0: stage one fixes alpha
    g = f.col_basis.T @ program.tau
    h = g / (f.sigma * f.sigma)
    on_col = f.col_basis @ (h / float(g @ h))
    off_rows = _complement_rows(f)
    beta = -pinv(off_rows.T, f.tols, scale=f.a_scale) @ _tdot(program.a, on_col)
    omega = on_col + f.complement @ beta
    row = _tdot(program.a, omega)
    on_x = restrict(row[None, :], f.q_h)[0]  # omega A(x)
    return freeze(row), float(on_x @ on_x), float(row @ row)


def witness_report(f: InputFactors) -> WitnessReport:
    """All six witness quantities and the optimal witness vectors of the
    input whose factors f are: the exact witness of x's sign and the
    min-error witness of the other."""
    if f.positive:
        vec, w_plus = positive_witness(f)
        row, e_minus, wt_minus = min_error_negative(f)
        return WitnessReport(w_plus, math.inf, 0.0, e_minus, w_plus, wt_minus, vec, row)
    row, w_minus = negative_witness(f)
    vec, e_plus, wt_plus = min_error_positive(f)
    return WitnessReport(math.inf, w_minus, e_plus, 0.0, wt_plus, w_minus, vec, row)


def minimal_negative_value(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, float]:
    """Global minimal negative witness: min ||omega A||^2 over omega tau = 1.

    Independent of any input; tested against 1/N_+ and (omega0 A)^dag = w0/N_+.
    """
    a_scale = program.factorization(tols).sigma_max
    nu, value = _min_norm_under_linear_constraint(
        _gram(program.a), program.tau, tols, gram_scale=a_scale * a_scale
    )
    if nu is None:
        raise StructuralError("tau = 0: no functional maps tau to 1")
    return freeze(_tdot(program.a, nu)), value


def _rescaled(
    fact: Factorization, factor: float, tau: np.ndarray, tols: Tolerances
) -> Factorization:
    """fact, made under tols, for the target tau = factor times its own:
    the same factors of A, with w0 scaled by factor and tau's
    _TargetFactors.  _factorize's membership test is scale-invariant, so
    an infeasible fact stays infeasible for the same reason."""
    mw = fact.witness
    if mw is None:
        return fact
    w0 = factor * mw.w0  # a fresh array, made read-only without a copy
    w0.setflags(write=False)
    witness = MinimalWitness(
        w0=w0,
        n_plus=mw.n_plus * factor * factor,
        n_minus=mw.n_minus / (factor * factor),
    )
    target = _target_factors(fact.col_basis, fact.sigma, tau, tols)
    return dataclasses.replace(fact, witness=witness, target=target)


def rescale_target(program: SpanProgram, factor: float) -> SpanProgram:
    """Replace tau by factor * tau (positive witnesses scale by factor).

    A is unchanged, so the new program shares every Factorization the
    parent already holds: the same read-only U_r, Sigma, V_r and sigma_max,
    with witness factor * w0, N_+ times factor^2, N_- over factor^2 and
    the new tau's _TargetFactors, or the parent's reason for having none.
    A Tolerances the parent has not factored under is factored on the new
    program's first use."""
    if factor <= 0:
        raise ValueError("target rescaling factor must be positive")
    child = dataclasses.replace(program, tau=factor * program.tau)
    for tols, fact in program._factorizations.items():
        child._factorizations[tols] = _rescaled(fact, factor, child.tau, tols)
    return child


def normalize(program: SpanProgram, tols: Tolerances = DEFAULT_TOLS) -> SpanProgram:
    """Rescale the target by 1/sqrt(N_+) so the minimal witness has unit norm.

    Positive witness sizes scale by 1/N_+, negative ones by N_+.  The result
    shares its parent's factors of A, as rescale_target's does; its N_+ is
    1 to within rounding.
    """
    mw = minimal_witness(program, tols)
    return rescale_target(program, 1.0 / math.sqrt(mw.n_plus))


@dataclass(frozen=True)
class ScaledFactors:
    """The factors of oracle.scale(program, beta)'s A_beta that w0's spectral
    measure reads, derived from the parent's A = U_r Sigma V_r^T.

    With g = U_r^T tau and rho = tau - U_r g, the rows [beta A, tau] of A_beta
    on V are [U_r, e] K blockdiag(V_r^T, 1) for e = rho/||rho|| (any unit
    vector off col(A) when rho = 0) and the (r+1) x (r+1) matrix
    K = [[beta Sigma, g], [0, ||rho||]].  Keeping rho keeps a tau that lies
    in col(A) only to within membership_rtol as the direct SVD sees it.  The
    last row of A_beta is c = sqrt(beta^2 + N)/beta on h1 alone.  From
    K = P S Q^T, A_beta's nonzero singular values are the kept values of S
    and c, cut against max(S, c) as _factorize cuts them.  Its row basis is
    V_beta = blockdiag(blockdiag(V_r, 1) row_map, 1), row_map the kept
    columns of Q, and witness is
    y = V_beta^T w0_beta = [S^-1 P^T [g; ||rho||]; 1/c] over the kept values;
    h1's entries come last and are absent when c itself is cut.
    """

    row_map: np.ndarray
    witness: np.ndarray

    def cross(self, parent_cross: np.ndarray) -> np.ndarray:
        """V_beta^T Q_{H_beta}(x) from the parent's C(x) = V_r^T Q_H(x):
        h0 lies in the false block and h1 in the true one, so H_beta(x) is
        H(x) plus h1 and the matrix is blockdiag(row_map[:r]^T C(x), 1).
        Given C(x) W for W with orthonormal columns, it returns the same
        matrix times blockdiag(W, 1)."""
        top = self.row_map[:-1].T @ parent_cross
        if self.witness.size == self.row_map.shape[1]:
            return top
        out = np.zeros((top.shape[0] + 1, top.shape[1] + 1))
        out[:-1, :-1] = top
        out[-1, -1] = 1.0
        return out


def scaled_factors(
    program: SpanProgram, beta: float, tols: Tolerances = DEFAULT_TOLS
) -> ScaledFactors:
    """ScaledFactors of oracle.scale(program, beta, tols), from one SVD of the
    (r+1) x (r+1) matrix K.  Raises GloballyInfeasibleError when tau_beta
    fails _factorize's membership test, as minimal_witness of the scaled
    program then does.  As with scale, w0_beta is a unit vector only when
    tau lies in col(A) exactly, that is rho = 0; otherwise ||witness|| is not
    1 and a round that reads it is refused at SpectralMeasure's unit-state
    check, as the direct route on scale(program, beta) is."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    n_val = minimal_witness(program, tols).n_plus
    fact = program.factorization(tols)
    g = fact.col_basis.T @ program.tau
    rho = float(np.linalg.norm(program.tau - fact.col_basis @ g))
    r = g.size
    k_mat = np.zeros((r + 1, r + 1))
    k_mat[:r, :r] = np.diag(beta * fact.sigma)
    k_mat[:r, r] = g
    k_mat[r, r] = rho
    p_mat, s, qt = np.linalg.svd(k_mat)
    c = math.sqrt(beta * beta + n_val) / beta
    kept = _rank(s, tols, c)
    h1_kept = _rank(np.array([c]), tols, float(s[0])) == 1
    on_tau = p_mat.T @ np.append(g, rho)
    missed = math.hypot(float(np.linalg.norm(on_tau[kept:])), 0.0 if h1_kept else 1.0)
    if missed > tols.membership_rtol * math.sqrt(float(program.tau @ program.tau) + 1.0):
        raise GloballyInfeasibleError("tau is not in col(A); no positive witness exists")
    y = on_tau[:kept] / s[:kept]
    if h1_kept:
        y = np.append(y, 1.0 / c)
    return ScaledFactors(freeze(qt[:kept].T), freeze(y))


def or_span_program(n: int) -> SpanProgram:
    """The canonical OR program: H = R^n, H_{j,1} = span{e_j}, H_{j,0} = {0},
    V = R, A the all-ones row, tau = 1.  w_+(x) = 1/|x| and w_-(0...0) = n.
    An n above DENSE_A_ENTRY_CAP is refused with ProgramSizeError before
    anything is allocated.
    """
    if n < 1:
        raise ValueError("OR needs at least one input bit")
    check_dense_a_size(1, n)
    return SpanProgram(
        n=n,
        q=2,
        dim_h=n,
        dim_v=1,
        input_blocks=tuple((j,) for j in range(n)),
        true_block=(),
        false_block=(),
        subspaces=Subspaces.per_symbol(n, {0: np.zeros((1, 0)), 1: np.ones((1, 1))}),
        a=np.ones((1, n)),
        tau=np.array([1.0]),
    )
