"""Random and enumerated instances for the property suites.

Random span programs use small integer data so that every test instance is
well conditioned at desk scale; feasibility (tau in col A) is arranged by
construction.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

import numpy as np

from ._linalg import column_space_split
from .resistance import Graph
from .spanprog import SpanProgram, validate

# draws random_graph makes before it gives up on a connected graph
GRAPH_ATTEMPTS = 10_000


def random_span_program(
    rng: np.random.Generator,
    max_dim_h: int = 8,
    max_dim_v: int = 6,
    max_n: int = 4,
    max_q: int = 3,
) -> SpanProgram:
    """A random feasible span program with integer data.

    Block sizes, subspace dimensions, A and the witness generating tau are all
    drawn from small integer ranges; each H_j's subspaces are patched to span
    H_j when the random draw falls short.
    """
    n = int(rng.integers(1, max_n + 1))
    q = int(rng.integers(2, max_q + 1))

    sizes = [1] * n + [0, 0]  # blocks, then true, then false
    budget = int(rng.integers(0, max_dim_h - n + 1))
    for _ in range(budget):
        sizes[int(rng.integers(0, n + 2))] += 1
    block_sizes, true_size, false_size = sizes[:n], sizes[n], sizes[n + 1]

    blocks = []
    cursor = 0
    for size in block_sizes:
        blocks.append(tuple(range(cursor, cursor + size)))
        cursor += size
    true_block = tuple(range(cursor, cursor + true_size))
    cursor += true_size
    false_block = tuple(range(cursor, cursor + false_size))
    cursor += false_size
    dim_h = cursor

    subspaces: dict[tuple[int, int], np.ndarray] = {}
    for j, size in enumerate(block_sizes):
        mats = []
        for a in range(q):
            cols = int(rng.integers(0, size + 1))
            mats.append(rng.integers(-1, 2, size=(size, cols)).astype(float))
        _, comp = column_space_split(np.hstack(mats))
        if comp.shape[1]:
            # append the missing directions to one symbol so the union spans H_j
            target = int(rng.integers(0, q))
            mats[target] = np.hstack([mats[target], comp])
        for a in range(q):
            subspaces[(j, a)] = mats[a]

    dim_v = int(rng.integers(1, max_dim_v + 1))
    while True:
        a_mat = rng.integers(-2, 3, size=(dim_v, dim_h)).astype(float)
        if np.any(a_mat):
            break
    while True:
        tau = a_mat @ rng.integers(-1, 2, size=dim_h).astype(float)
        if np.linalg.norm(tau) > 0:
            break

    program = SpanProgram(
        n=n,
        q=q,
        dim_h=dim_h,
        dim_v=dim_v,
        input_blocks=tuple(blocks),
        true_block=true_block,
        false_block=false_block,
        subspaces=subspaces,
        a=a_mat,
        tau=tau,
    )
    assert validate(program).ok
    return program


def all_inputs(program: SpanProgram) -> Iterator[tuple[int, ...]]:
    yield from itertools.product(range(program.q), repeat=program.n)


def random_projector_pair(
    rng: np.random.Generator,
    dim: int,
    dim_a: Optional[int] = None,
    dim_b: Optional[int] = None,
    shared: int = 0,
    a_only: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto two random subspaces of R^dim.

    shared forces that many common directions (A cap B), a_only forces
    directions of A orthogonal to B; the rest is generic.
    """
    if dim_a is None:
        dim_a = int(rng.integers(1, dim))
    if dim_b is None:
        dim_b = int(rng.integers(1, dim))
    shared = min(shared, dim_a, dim_b)
    a_only = min(a_only, dim_a - shared, dim - dim_b)
    dim_b = min(dim_b, dim - a_only)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]

    b_cols = [basis[:, :shared]]
    if dim_b > shared:
        pool = basis[:, shared + a_only :]
        mix = pool @ np.linalg.qr(rng.standard_normal((pool.shape[1], dim_b - shared)))[0]
        b_cols.append(mix)
    b_basis = np.hstack(b_cols)

    a_cols = [basis[:, :shared]]
    if a_only:
        # directions orthogonal to every vector of B
        b_perp = np.linalg.svd(b_basis.T)[2][dim_b:].T
        a_cols.append(b_perp[:, :a_only])
    rest = dim_a - shared - a_only
    if rest:
        generic = np.linalg.qr(rng.standard_normal((dim, dim_a)))[0]
        a_cols.append(generic[:, :rest])
    a_basis = np.linalg.qr(np.hstack(a_cols))[0][:, :dim_a]

    return a_basis @ a_basis.T, b_basis @ b_basis.T


def random_graph(
    rng: np.random.Generator,
    n: int,
    edge_prob: float = 0.5,
    require_connected: bool = True,
) -> Graph:
    """Erdos-Renyi graph with random distinct s, t; RuntimeError when
    require_connected and none of GRAPH_ATTEMPTS draws is connected."""
    for _ in range(GRAPH_ATTEMPTS):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_prob
        ]
        s = int(rng.integers(0, n))
        t = int(rng.integers(0, n - 1))
        if t >= s:
            t += 1
        g = Graph(n=n, edges=frozenset(edges), s=s, t=t)
        if not require_connected or g.connected():
            return g
    raise RuntimeError("failed to sample a connected graph")
