"""Span programs over the reals and exact computation of all witness quantities.

A span program is a tuple (H, V, tau, A): H splits into coordinate blocks
H_1, ..., H_n, H_true, H_false, and each input position j carries subspaces
H_{j,a} of H_j, one per alphabet symbol a.  An input string x selects
H(x) = H_{1,x_1} + ... + H_{n,x_n} + H_true, and x is positive exactly when
some w in H(x) satisfies A w = tau.

Everything an estimate reads per input position is a read-only index array,
made once: _InputBlocks holds the coordinates of H_1, ..., H_n in one array,
as a CSR matrix holds its column indices, with one block width when all
blocks share it (the st program's is 2).  check_input reads an input as a
read-only intp array in one vectorized pass.  The Subspaces store holds
each distinct content among the H_{j,a} matrices once, frozen, and an
n x q table of their ids (one broadcast row for a per-symbol store).  A
program keeps the store laid out for its (input_blocks, q) in a _Layout,
and the store decides every distinct matrix once per Tolerances, into one
_Decisions record, so that H(x)'s walk reads those two and indexes them
with x directly.

A is a dense matrix or signed incidence columns (Incidence), which the
estimators read only through A v, A^T u, A A^T and the Gram of a subset of
columns; SpanProgram.a_mat forms the dense A on demand for spanforge.oracle
and the tests.  Every quantity about an input comes from A(x) = A Q_H, Q_H an
orthonormal basis of H(x) kept block by block, with each run of identity
blocks kept as one set of coordinates, so that A(x) of the st program is a
subset of A's columns; no dim_h x dim_h matrix is formed.  A program
factors A once per Tolerances, and input_factors A(x) once per input, by
one helper for M = A Q that chooses the route (_cut_factors): an incidence
M wider than tall, such as the st program's, through one eigh of its exact
Gram, forming no V_r; every other M by one SVD.
One solve on those factors (_min_norm_solve) gives w0 = A^+ tau and
A(x)^+ v, and one test (_in_col) decides tau in col(A) and in col A(x).
The witness functions and spectral.kappa_bound take that InputFactors
alone, which owns the program, x and Tolerances it was built for;
infeasible sizes are math.inf.  Each witness quantity has this one route,
on cut factors, the negative ones by _linalg.min_norm_functional, with no
pseudo-inverse matrix formed; spanforge.oracle holds the second routes.
What spectral's measures and threshold rounds read of tau in A's factors
(_TargetFactors, y = V_r^T w0 among them) is computed where the
Factorization is made; a round where the rounds' closed form does not hold
raises DegenerateRoundError.
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
    _gram_factors,
    _rank,
    column_space_split,
    freeze,
    min_norm_functional,
    singular_values,
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


class DegenerateRoundError(SpanProgramError):
    """A threshold round at a beta where A_beta's rank cut drops a direction
    of beta A or its h1 row, such as beta = 1e-6 against sigma_min(A) near
    1: the rounds' closed form (spectral._scaled_pair) does not hold there."""


# entry cap of a dense A: at the cap A takes 2.1 GB as float64; the st
# program at n = 500 holds 1.25e8 entries, at n = 2000 it would hold 8e9
DENSE_A_ENTRY_CAP = 2**28
# dim_h cap of a program whose A is given as incidence columns, which forms
# dim_h-length vectors only: at the cap one float64 vector takes 34 MB and
# the two index arrays of A 67 MB; the st program reaches it at n = 2048
INCIDENCE_DIM_H_CAP = 2**22


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
    """The distinct contents among mats, each frozen once, and the index of
    each mat among them; two matrices share a content when their frozen
    forms have one shape and the same bytes."""
    seen: dict[tuple[tuple[int, ...], bytes], int] = {}
    distinct: list[np.ndarray] = []
    index = []
    for mat in mats:
        frozen = freeze(np.atleast_2d(mat))
        d = seen.setdefault((frozen.shape, frozen.tobytes()), len(distinct))
        if d == len(distinct):
            distinct.append(frozen)
        index.append(d)
    return distinct, index


def _frozen_eye(rows: int, cols: int) -> np.ndarray:
    """The first cols columns of eye(rows), read-only."""
    out = np.eye(rows, cols)
    out.setflags(write=False)
    return out


def _split(mat: np.ndarray, tols: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Read-only orthonormal bases of col(mat) and of its complement in its
    block: with no SVD for an empty matrix and one exactly the identity on
    its block, by column_space_split otherwise."""
    rows, cols = mat.shape
    if mat.size == 0:
        return _frozen_eye(rows, 0), _frozen_eye(rows, rows)
    if rows == cols and np.array_equal(mat, np.eye(rows)):
        return _frozen_eye(rows, rows), _frozen_eye(rows, 0)
    split = column_space_split(mat, tols)
    for part in split:
        part.setflags(write=False)
    return split


@dataclass(frozen=True)
class _Decisions:
    """Every distinct matrix of a store decided under one Tolerances:
    splits[d] holds read-only orthonormal bases of matrix d's column space
    and of its complement in its block, and kinds[d] their two classes.
    kinds[-1] classes an absent or empty H_{j,a}, which leaves its whole
    block outside H(x)."""

    kinds: np.ndarray
    splits: tuple[tuple[np.ndarray, np.ndarray], ...]


class Subspaces(Mapping):
    """Read-only store of the H_{j,a} matrices, keyed by (j, a), that the
    programs derived from one another share.  It holds each distinct
    content among the given matrices once, frozen, and a table of their
    ids, ids[j, a] = -1 where H_{j,a} is not given; keys iterate in (j, a)
    order.  A mapping keyed by (j, a) fills the table key by key;
    per_symbol broadcasts one row, H_{j,a} = H_a at every position.  Equal
    matrices given under several keys, as one object or as copies, are
    one frozen matrix that every such key gives.  decisions(tols) decides
    every distinct matrix the first time tols is asked for, into one
    _Decisions record kept per Tolerances: one SVD per distinct content,
    and none for an empty matrix or one exactly the identity on its block,
    with each basis classed as having no columns, being exactly the
    identity on its block, or neither.  The table is checked against, and
    laid out for, the (input_blocks, q) of each program built on the store;
    the coordinates stay the program's own index arrays."""

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
        self._decisions: dict[Tolerances, _Decisions] = {}
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

    def decisions(self, tols: Tolerances) -> _Decisions:
        """Every distinct matrix decided under tols, on the first call for
        tols, and the same record on every later one."""
        found = self._decisions.get(tols)
        if found is None:
            splits = tuple(_split(mat, tols) for mat in self._distinct)
            kinds = np.array([[_kind(part) for part in split] for split in splits]
                             + [[_NONE, _IDENTITY]], dtype=np.int8)
            kinds.setflags(write=False)
            found = self._decisions[tols] = _Decisions(kinds, splits)
        return found


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
    # the store laid out for input_blocks and q, which every walk of H(x) reads
    _layout: _Layout = dataclasses.field(init=False, repr=False, compare=False)
    # A's Factorization per Tolerances, made on first use (factorization)
    _factorizations: dict = dataclasses.field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_layout", self.subspaces.layout(self.input_blocks, self.q))

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
        """A's factorization under tols: computed on first use by
        _cut_factors, then kept on the program, whose A and tau are
        read-only."""
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
# A tau above it lies in col(A) only to within membership_rtol (rho = 1e-9
# ||tau||, say), and is read as its projection (_TargetFactors.projected).
_COL_RESIDUAL_RTOL = 10.0 * np.finfo(float).eps


@dataclass(frozen=True)
class _TargetFactors:
    """tau read in A's factors U_r Sigma V_r^T, as the threshold rounds'
    closed form (spectral._scaled_pair) reads it; it depends on the program
    and Tolerances alone.  With g = U_r^T tau and rho = ||tau - U_r g||,
    tau2 = ||g||^2 + rho^2, sigma_min is A's least kept singular value,
    y = V_r^T w0 = Sigma^-1 g, y_hat = y / ||y|| and n_val = ||y||^2.
    projected is rho > min(_COL_RESIDUAL_RTOL dim_v, rank_rtol) ||tau||:
    tau lies in col(A) only to within membership_rtol, and the rounds,
    oracle.scale and the oracle's rank-sized factors of it read tau as its
    projection U_r g, so the scaled program has a unit minimal witness; a
    round records the flag tau-projected.  Below the cut the closed form
    reads U_r g too, and oracle.scale reads tau itself.  Every field is
    None, 0.0 or False when no positive witness exists (_NO_TARGET)."""

    y: Optional[np.ndarray]
    y_hat: Optional[np.ndarray]
    n_val: float
    sigma_min: float
    tau2: float
    projected: bool


_NO_TARGET = _TargetFactors(None, None, 0.0, 0.0, 0.0, False)


@dataclass(frozen=True)
class Factorization:
    """What every computation on one program needs from A, for one Tolerances.

    A = U_r diag(sigma) V_r^T, cut at the package's rank tolerance:
    col_basis is U_r (dim_v x rank), sigma the nonzero singular values and
    sigma_max the largest.  rows is V_r (dim_h x rank) from an SVD of A, and
    None when A was read through its Gram: the estimators read A through U_r
    and Sigma alone (target.y, and C(x) in spectral.row_space_cross).
    witness is w0 = A^+ tau, solved through the factors, with N_+ and N_-;
    when no positive witness exists it is None and infeasible says why.
    target is tau read in the factors, as w0's spectral measures and the
    threshold rounds' closed form read it.
    """

    col_basis: np.ndarray
    sigma: np.ndarray
    rows: Optional[np.ndarray]
    sigma_max: float
    witness: Optional[MinimalWitness]
    target: _TargetFactors
    infeasible: str = ""


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
    projected = math.sqrt(rho2) > cut * math.sqrt(tau2)
    y = g / sigma  # V_r^T w0 = Sigma^-1 U_r^T tau
    y.setflags(write=False)
    n_val = float(y @ y)
    y_hat = y / math.sqrt(n_val)
    y_hat.setflags(write=False)
    return _TargetFactors(y, y_hat, n_val, sigma_min, tau2, projected)


def _factorize(program: SpanProgram, tols: Tolerances) -> Factorization:
    """A's factors by _cut_factors, and w0 = A^+ tau and tau's
    _TargetFactors from them once _in_col finds tau in col(A); no A^+ is
    formed, so A w0 - tau stays at rounding size."""
    u, sigma, rows, top = _cut_factors(program, None, tols, None)
    col_basis, sigma = freeze(u[:, : sigma.size]), freeze(sigma)
    del u  # the rest of U is not held through the solve
    rows = None if rows is None else freeze(rows)
    parts = (col_basis, sigma, rows, top)
    if not _in_col(col_basis, program.tau, tols):
        return Factorization(
            *parts, None, _NO_TARGET, "tau is not in col(A); no positive witness exists"
        )
    w0 = _min_norm_solve(program.a, None, col_basis, sigma, rows, program.tau)
    n_plus = float(w0 @ w0)
    if n_plus == 0.0:
        return Factorization(*parts, None, _NO_TARGET, "tau = 0 gives a degenerate program")
    return Factorization(
        *parts,
        MinimalWitness(w0=freeze(w0), n_plus=n_plus, n_minus=1.0 / n_plus),
        _target_factors(col_basis, sigma, program.tau, tols),
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
        spanning = _rank(singular_values(stacked), tols, None) == rows
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


def _walk(program: SpanProgram, x: np.ndarray, tols: Tolerances, side: int) -> Blocks:
    """One side of H(x), for x as check_input gives it, as (coordinate
    indices, basis in those coordinates) pairs: for side 0 an orthonormal
    basis Q_H of H(x) = H_{1,x_1} + ... + H_{n,x_n} + H_true, for side 1 a
    basis Q_perp of its complement.  Block j's two parts are the store's
    bases of H_{j,x_j}; H_true lies wholly in H(x) and H_false wholly
    outside it, as does H_j when H_{j,x_j} is empty.  Those whole blocks,
    and every stored basis that is exactly the identity, are identity
    blocks: each run of consecutive ones, the whole block ending it
    included, is one (coordinates, None) entry, so the columns keep their
    order.  Parts without columns are left out.  The st program's H(x) is a
    single identity entry.  input_factors walks Q_H alone, and InputFactors
    walks Q_perp when it is first read."""
    layout = program._layout
    decided = program.subspaces.decisions(tols)
    ids = layout.ids(x)
    kinds = decided.kinds[ids, side]
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
        out.append((coords[low:high], decided.splits[ids[j]][side]))
        start = high
    whole = program.false_block if side else program.true_block
    run = np.concatenate([coords[start:][identity[start:]], np.array(whole, dtype=np.intp)])
    if run.size:
        out.append((run, None))
    return out


def restrict(mat: np.ndarray | Incidence, blocks: Blocks) -> np.ndarray:
    """M Q for a matrix M on H's coordinates, dense or incidence columns,
    and a basis Q given block by block, as _walk gives Q_H and Q_perp;
    A Q_H is A(x).  An identity entry is a gather of M's columns,
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
    it was read through its Gram.  positive, decided once for both signs,
    is whether tau lies in col A(x).  program, x (as check_input gives it)
    and tols are what it was built for, and the one place every quantity
    read from it takes them from; A(x) is read from the program's A.
    Q_perp, which only the min-error positive witness reads, and Z^T A,
    which the negative and min-error witnesses read, are formed when
    q_perp and complement_rows are first read, and kept."""

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
        """Q_perp of x, as _walk gives it."""
        return _walk(self.program, self.x, self.tols, 1)

    @cached_property
    def complement_rows(self) -> np.ndarray:
        """Z^T A, read through A^T u, formed when first read and kept
        read-only; refused with ProgramSizeError, before it is allocated,
        where it would hold more than DENSE_A_ENTRY_CAP entries."""
        check_dense_a_size(self.complement.shape[1], self.program.dim_h, "Z^T A")
        rows = _tdot(self.a, self.complement).T
        rows.setflags(write=False)
        return rows

    def solve(self, v: np.ndarray) -> np.ndarray:
        """A(x)^+ v, by _min_norm_solve."""
        return _min_norm_solve(self.a, self.q_h, self.col_basis, self.sigma, self.row_vectors, v)


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


def _cut_factors(
    program: SpanProgram, q: Optional[Blocks], tols: Tolerances, a_scale: Optional[float]
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], float]:
    """The factors of M = A Q, for Q = Q_H given block by block, or None for
    M = A read as given: U (its first rank columns span col M), the kept
    singular values, V_r or None, and the reference sigma_max(A), a_scale
    or else sigma_max(M).  An incidence
    M wider than tall is read through _gram_factors of its exact Gram, one
    dim_v x dim_v eigh, with no V_r formed: for the st program 2(nI - J) for
    A and 2 L_G for A(x), whose nonzero lam >= 8/n^2 against
    sigma_max(A)^2 = 2n are 100 times the floor at n = 2048, the largest n
    within INCIDENCE_DIM_H_CAP.  Every other M takes one SVD, the Gram
    route's oracle, with U thin for A and square for A(x), whose complement
    in U the negative witnesses read."""
    width = program.dim_h if q is None else _width(q)
    if isinstance(program.a, Incidence) and width > program.dim_v:
        gram = program.a.gram() if q is None else _input_gram(program.a, q)
        u, s, top = _gram_factors(gram, tols, a_scale)
        return u, s, None, top
    m = program.a_mat if q is None else restrict(program.a, q)
    u, s, vt = np.linalg.svd(m, full_matrices=q is not None and m.shape[1] < m.shape[0])
    if a_scale is None:
        a_scale = float(s[0]) if s.size else 0.0
    r = _rank(s, tols, a_scale)
    return u, s[:r], vt[:r].T, a_scale


def _in_col(col_basis: np.ndarray, tau: np.ndarray, tols: Tolerances) -> bool:
    """Whether tau lies in col M, for an orthonormal basis U_r (col_basis) of
    it: ||tau - U_r U_r^T tau|| <= membership_rtol ||tau||, scale-invariant."""
    off = tau - col_basis @ (col_basis.T @ tau)
    return math.sqrt(off @ off) <= tols.membership_rtol * math.sqrt(tau @ tau)


def _min_norm_solve(
    a: np.ndarray | Incidence, q: Optional[Blocks], col_basis: np.ndarray, sigma: np.ndarray,
    rows: Optional[np.ndarray], v: np.ndarray,
) -> np.ndarray:
    """M^+ v for M = A Q, q as _cut_factors takes it, from M's cut factors:
    V_r Sigma^-1 U_r^T v when V_r is held.  Through the Gram, w = M^T U_r
    Sigma^-2 U_r^T v keeps eigh's error of about kappa(M M^T) eps relative
    (7.6e-12 in ||w||^2 on the path of 200 vertices), so one step of
    refinement (Bjorck, BIT 7, 1967), w + M^+ (v - M w), follows."""
    if rows is not None:
        return rows @ ((col_basis.T @ v) / sigma)

    def gram_solve(v: np.ndarray) -> np.ndarray:  # M^T U_r Sigma^-2 U_r^T v
        out = _tdot(a, col_basis @ ((col_basis.T @ v) / sigma / sigma))
        return out if q is None else restrict(out[None, :], q)[0]

    w = gram_solve(v)
    w += gram_solve(v - _dot(a, w if q is None else _lift(a.shape[1], q, w)))
    return w


def input_factors(
    program: SpanProgram, x: Sequence[int], tols: Tolerances = DEFAULT_TOLS
) -> InputFactors:
    """Q_H and the factors of A(x) = A Q_H by _cut_factors, cut against
    sigma_max(A), and whether tau lies in col A(x) by _in_col; Q_perp is
    walked only when read."""
    x = program.check_input(x)
    q_h = _walk(program, x, tols, 0)
    a_scale = program.factorization(tols).sigma_max
    u, s, vt, _ = _cut_factors(program, q_h, tols, a_scale)
    r = s.size
    positive = _in_col(u[:, :r], program.tau, tols)
    return InputFactors(program, x, tols, q_h, u[:, :r], u[:, r:], s, vt, a_scale, positive)


def positive_witness(f: InputFactors) -> tuple[Optional[np.ndarray], float]:
    """Optimal exact positive witness Q_H c, c = A(x)^+ tau, and its size
    w_+ = ||c||^2 (Q_H is orthonormal), for the input whose factors f are,
    or (None, inf) when x is negative."""
    if not f.positive:
        return None, math.inf
    coef = f.solve(f.program.tau)
    return freeze(_lift(f.program.dim_h, f.q_h, coef)), float(coef @ coef)


def negative_witness(f: InputFactors) -> tuple[Optional[np.ndarray], float]:
    """Optimal exact negative witness for the input whose factors f are.

    Solves min ||omega A||^2 subject to omega A(x) = 0 and omega tau = 1 by
    writing omega = Z nu for an orthonormal basis Z of col(A(x))^perp.
    Returns (omega A as a length-dim_h row, w_minus); (None, inf) when x is
    positive.
    """
    if f.positive:
        return None, math.inf
    b = f.complement_rows  # omega = Z nu; Z^T tau != 0 as x is negative
    u, s, _, _ = svd_factors(b, f.tols, f.a_scale)
    nu, value = min_norm_functional(u, s, f.complement.T @ f.program.tau, f.tols)
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
    u, s, v, _ = svd_factors(restrict(f.complement_rows, f.q_perp), tols, f.a_scale)
    b = v @ ((u.T @ (f.complement.T @ program.tau)) / s)  # (Z^T A_perp)^+ Z^T tau
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
    u, s, v, _ = svd_factors(f.complement_rows, f.tols, f.a_scale)  # Z^T A
    beta = -u @ ((v.T @ _tdot(program.a, on_col)) / s)
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


def _rescaled(
    fact: Factorization, factor: float, tau: np.ndarray, tols: Tolerances
) -> Factorization:
    """fact, made under tols, for the target tau = factor times its own:
    the same factors of A, with w0 scaled by factor and tau's
    _TargetFactors.  The membership test, _in_col, is scale-invariant, so
    an infeasible fact stays infeasible for the same reason."""
    mw = fact.witness
    if mw is None:
        return fact
    w0 = factor * mw.w0  # a fresh array, made read-only without a copy
    w0.setflags(write=False)
    witness = MinimalWitness(w0, mw.n_plus * factor * factor, mw.n_minus / (factor * factor))
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
