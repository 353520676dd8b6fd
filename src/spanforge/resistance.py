"""Effective resistance via the st-connectivity span program.

The span program has one H coordinate per ordered vertex pair; one input bit
per unordered pair turns both orientations on or off.  A sends |u,v> to
|u> - |v> and the target is |s> - |t>, so positive witnesses are unit
st-flows halved over the two orientations and w_+(G) = R_st(G)/2.

exact_resistance is the module's independent oracle: (e_s - e_t)^T L^+
(e_s - e_t) on the graph Laplacian, read from one eigendecomposition of L
that lambda2 shares; oracle.flow_resistance_bruteforce, a flow
minimization over the cycle space, is a second, pseudo-inverse-free path
for tiny graphs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ._linalg import DEFAULT_TOLS, Tolerances
from .algorithms import kappa_estimate, witness_estimate, POSITIVE
from .qsim import QueryLedger
from .spanprog import Incidence, SpanProgram, Subspaces, check_incidence_size, normalize
from .spanprog import InputFactors, positive_witness

Edge = tuple[int, int]


class GraphParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with marked s != t.

    edges is normalized at construction to pairs (low, high), low < high.
    The graph also holds them as a read-only (m, 2) index array in sorted
    order, which graph_input and adjacency read with no walk of the edges."""

    n: int
    edges: frozenset[Edge]
    s: int
    t: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("graph needs at least two vertices")
        if not (0 <= self.s < self.n and 0 <= self.t < self.n):
            raise ValueError("s and t must be vertices")
        if self.s == self.t:
            raise ValueError("s and t must differ")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(nbrs)) for nbrs in adj))
        pairs = np.array(sorted(norm), dtype=np.intp).reshape(-1, 2)
        pairs.setflags(write=False)
        object.__setattr__(self, "_pairs", pairs)

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n))
        low, high = self._pairs.T
        adj[low, high] = adj[high, low] = 1.0
        return adj

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbours of u in ascending order."""
        return self._adj[u]

    def spanning_tree(self, root: int) -> dict[int, Optional[int]]:
        """Breadth-first tree of root's component: vertex -> parent (None at
        the root), in visiting order, neighbours taken in ascending order."""
        parent: dict[int, Optional[int]] = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in self.neighbors(u):
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        return parent

    def connected(self) -> bool:
        return len(self.spanning_tree(0)) == self.n

    def connected_st(self) -> bool:
        return self.t in self.spanning_tree(self.s)


def graph(n: int, edges: Iterable[Edge], s: int = 0, t: Optional[int] = None) -> Graph:
    return Graph(n=n, edges=frozenset((u, v) for u, v in edges), s=s, t=n - 1 if t is None else t)


def complete_graph(n: int, s: int = 0, t: Optional[int] = None) -> Graph:
    return graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], s, t)


def parse_graph_file(text: str) -> Graph:
    """Parse the text graph format: a header line "n m s t" followed by m
    edge lines "u v", all 1-based; blank lines and '#' comments are skipped.
    Duplicate edges and self-loops are rejected with their line number.
    """
    header: Optional[tuple[int, int, int, int]] = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    expected = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 4:
                raise GraphParseError("header must be 'n m s t'", lineno)
            try:
                n, m, s, t = (int(p) for p in parts)
            except ValueError:
                raise GraphParseError("header fields must be integers", lineno) from None
            if n < 2:
                raise GraphParseError("need at least two vertices", lineno)
            if not (1 <= s <= n and 1 <= t <= n):
                raise GraphParseError("s and t must lie in 1..n", lineno)
            if s == t:
                raise GraphParseError("s and t must differ", lineno)
            if m < 0:
                raise GraphParseError("edge count must be non-negative", lineno)
            header = (n, m, s, t)
            expected = m
            continue
        if len(parts) != 2:
            raise GraphParseError("edge line must be 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("edge endpoints must be integers", lineno) from None
        n = header[0]
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError(f"edge ({u},{v}) out of range 1..{n}", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        edge = (min(u, v) - 1, max(u, v) - 1)
        if edge in seen:
            raise GraphParseError(f"duplicate edge ({u},{v})", lineno)
        seen.add(edge)
        edges.append(edge)
    if header is None:
        raise GraphParseError("empty graph file")
    n, m, s, t = header
    if len(edges) != m:
        raise GraphParseError(f"header announces {m} edges, found {len(edges)}")
    return Graph(n=n, edges=frozenset(edges), s=s - 1, t=t - 1)


def laplacian(g: Graph) -> np.ndarray:
    adj = g.adjacency()
    return np.diag(adj.sum(axis=1)) - adj


def _spectral_oracle(g: Graph, connected_st: bool) -> tuple[float, float]:
    """(lambda2, R_st) of g from one eigh of its Laplacian L = V diag(lam) V^T:
    lambda2 is lam[1], and R_st = sum_k (V^T chi)_k^2 / lam_k over the
    eigenvalues pinv keeps, |lam_k| > rank_rtol max |lam|, for
    chi = e_s - e_t; inf when s, t are disconnected, which the caller has
    read from g.connected_st(), so that an estimate walks g once."""
    lam, vecs = np.linalg.eigh(laplacian(g))
    if not connected_st:
        return float(lam[1]), math.inf
    chi = vecs[g.s] - vecs[g.t]
    kept = np.abs(lam) > DEFAULT_TOLS.rank_rtol * np.max(np.abs(lam))
    return float(lam[1]), float(np.sum(chi[kept] ** 2 / lam[kept]))


def lambda2(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue (algebraic connectivity)."""
    return _spectral_oracle(g, g.connected_st())[0]


def exact_resistance(g: Graph) -> float:
    """R_st through the Laplacian pseudo-inverse, read from L's
    eigendecomposition; inf when s, t are disconnected."""
    return _spectral_oracle(g, g.connected_st())[1]


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    """Coordinate layout of H: both orientations of each unordered pair,
    grouped so that input position j = {u, v} owns coordinates 2j and 2j+1."""
    out = []
    for u in range(n):
        for v in range(u + 1, n):
            out.append((u, v))
            out.append((v, u))
    return out


def unordered_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def build_st_span_program(n: int, s: int, t: int) -> SpanProgram:
    """The st-connectivity span program on [n]: V = R^n, A|u,v> = |u> - |v>,
    tau = |s> - |t>; the pair-{u,v} input bit selects both ordered coordinates.
    Everything of size C(n, 2) is an index array, and no Python object is
    made per pair: A is given as signed incidence columns
    (spanprog.Incidence) in ordered_pairs' layout, the input blocks as the
    (C(n, 2), 2) array whose row j is (2j, 2j + 1), held as arange(dim_h)
    with block size 2, and the Subspaces store per symbol, H_{j,0} = {0} and
    H_{j,1} = R^2 at every position, one row of ids broadcast.  So H(x) is
    one run of identity blocks and A(x) the columns of the present edges,
    whose Gram is 2 L_G.

    A A^T = 2 (n I - J) is an exact n x n matrix, and the program factors A
    by one eigh of it, as it factors A(x) by one eigh of 2 L_G: col(A) is
    the complement of the all-ones vector and all n - 1 nonzero singular
    values are sqrt(2n).  No SVD of A is taken and no row basis of it is
    formed, except at n = 2, where A is square and is factored by an SVD.
    An n whose dim_h = n (n - 1) exceeds spanprog.INCIDENCE_DIM_H_CAP
    (n above 2048) is refused with ProgramSizeError before anything is
    allocated."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValueError("s and t must be distinct vertices")
    check_incidence_size(n * (n - 1))
    # unordered_pairs(n), in order: vertex i is low in the n - 1 - i pairs
    # from start_i on, whose highs run i + 1, ..., n - 1
    counts = np.arange(n - 1, -1, -1)
    low = np.repeat(np.arange(n), counts)
    n_inputs = low.size
    starts = np.cumsum(counts) - counts
    high = np.arange(n_inputs) - np.repeat(starts, counts) + low + 1
    dim_h = 2 * n_inputs
    # column 2j is the ordered pair (low_j, high_j) and column 2j + 1 its
    # reverse; each index array owns its data and is read-only, so that
    # Incidence and SpanProgram hold it without a copy
    plus, minus = np.empty(dim_h, dtype=np.intp), np.empty(dim_h, dtype=np.intp)
    plus[0::2] = minus[1::2] = low
    plus[1::2] = minus[0::2] = high
    blocks = 2 * np.arange(n_inputs)[:, None] + np.arange(2)  # row j is (2j, 2j + 1)
    for arr in (plus, minus, blocks):
        arr.setflags(write=False)
    a = Incidence(n, plus, minus)
    tau = np.zeros(n)
    tau[s], tau[t] = 1.0, -1.0
    tau.setflags(write=False)
    subspaces = Subspaces.per_symbol(n_inputs, {0: np.zeros((2, 0)), 1: np.eye(2)})
    return SpanProgram(
        n=n_inputs,
        q=2,
        dim_h=dim_h,
        dim_v=n,
        input_blocks=blocks,
        true_block=(),
        false_block=(),
        subspaces=subspaces,
        a=a,
        tau=tau,
    )


def graph_input(g: Graph) -> np.ndarray:
    """The adjacency input string of g for build_st_span_program(g.n, ...),
    as a read-only intp array that SpanProgram.check_input keeps as it is:
    bit j is 1 when the j-th pair of unordered_pairs(g.n) is an edge.  It is
    read from g's edge array, with no walk of the edges."""
    n = g.n
    bits = np.zeros(n * (n - 1) // 2, dtype=np.intp)
    low, high = g._pairs.T  # low < high
    # the low (2n - low - 1) / 2 pairs whose first vertex is below low come first
    bits[low * (2 * n - low - 1) // 2 + high - low - 1] = 1
    bits.setflags(write=False)
    return bits


@dataclass(frozen=True)
class WitnessResistanceCheck:
    w_plus: float
    resistance: float
    residual: float
    ok: bool


def witness_equals_half_resistance(
    f: InputFactors, resistance: float, tol: float = 1e-8
) -> WitnessResistanceCheck:
    """Check w_+(G) = R_st(G)/2 (both infinite together when disconnected),
    for f the InputFactors of G's input to the st program and resistance
    R_st(G), as exact_resistance gives it."""
    _, w_plus = positive_witness(f)
    if math.isinf(w_plus) or math.isinf(resistance):
        ok = math.isinf(w_plus) and math.isinf(resistance)
        return WitnessResistanceCheck(w_plus=w_plus, resistance=resistance,
                                      residual=math.inf if not ok else 0.0, ok=ok)
    residual = abs(w_plus - resistance / 2.0)
    return WitnessResistanceCheck(w_plus=w_plus, resistance=resistance, residual=residual,
                                  ok=residual <= tol * max(1.0, resistance))


@dataclass(frozen=True)
class ResistanceReport:
    exact: float
    estimate: float
    epsilon: float
    method: str
    mu: Optional[float]
    queries: int
    lambda2: float
    flags: tuple[str, ...] = ()


EFFECTIVE_GAP = "effective-gap"
REAL_GAP = "real-gap"


def estimate_resistance(
    g: Graph,
    eps: float,
    method: str,
    rng: np.random.Generator,
    ledger: QueryLedger,
    mu: Optional[float] = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> ResistanceReport:
    """Estimate R_st(g) to relative accuracy eps with probability >= 2/3.

    effective-gap: interval-shrinking witness estimation on the normalized
    program, using the domain bound w_tilde_minus <= 2 n^2 (times the
    normalization factor 1/n) valid for connected graphs.

    real-gap: kappa-based estimation with kappa = sqrt(n/mu) for a caller's
    mu <= lambda2(g); mu is validated against the exact lambda2.

    Disconnected inputs are detected classically and reported as infinite.
    """
    if method not in (EFFECTIVE_GAP, REAL_GAP):
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    connected = g.connected_st()
    if connected:
        check_incidence_size(g.n * (g.n - 1))  # the builder's refusal, before the oracle
    lam2, exact = _spectral_oracle(g, connected)
    if math.isinf(exact):
        return ResistanceReport(
            exact=math.inf, estimate=math.inf, epsilon=eps, method=method,
            mu=mu, queries=0, lambda2=lam2, flags=("disconnected",),
        )

    program = build_st_span_program(g.n, g.s, g.t)
    x = graph_input(g)
    if method == EFFECTIVE_GAP:
        normalized = normalize(program, tols)
        # w_tilde_minus(P) <= 2 n^2 on connected graphs; normalization
        # multiplies negative witness sizes by N = 1/n.
        wt_bound = 2.0 * g.n
        result = witness_estimate(
            normalized, x, eps, POSITIVE, rng, ledger, tols,
            w_tilde_bound=wt_bound,
        )
        w_plus_est = result.value / g.n  # positive sizes were scaled by 1/N = n
    else:
        if mu is None:
            raise ValueError("method 'real-gap' requires a lambda2 lower bound mu")
        if not 0.0 < mu <= lam2 * (1.0 + 1e-9):
            raise ValueError(f"mu must lie in (0, lambda2 = {lam2!r}]")
        kappa = math.sqrt(g.n / mu)
        result = kappa_estimate(program, x, eps, kappa, POSITIVE, rng, ledger, tols)
        w_plus_est = result.value

    return ResistanceReport(
        exact=exact,
        estimate=2.0 * w_plus_est,
        epsilon=eps,
        method=method,
        mu=mu,
        queries=result.queries,
        lambda2=lam2,
        flags=result.flags,
    )


def lower_bound_family(
    n: int, variant: int, i: Optional[int] = None, j: Optional[int] = None
) -> Graph:
    """The two-star family behind the linear query lower bound.

    s = 0 and t = n-1 are star centers over leaves 1..n/2-1 and n/2..n-2
    respectively, joined by the edge {s, t}.  Variant 0 is exactly that
    (resistance 1); variant 1 adds one cross edge {i, j} between an s-side
    and a t-side leaf (resistance 3/4).
    """
    if n < 6 or n % 2 != 0:
        raise ValueError("family needs even n >= 6")
    if variant not in (0, 1):
        raise ValueError("variant must be 0 or 1")
    s, t = 0, n - 1
    s_leaves = range(1, n // 2)
    t_leaves = range(n // 2, n - 1)
    edges = [(s, leaf) for leaf in s_leaves] + [(t, leaf) for leaf in t_leaves] + [(s, t)]
    if variant == 1:
        if i is None or j is None:
            raise ValueError("variant 1 needs leaf indices i (s-side) and j (t-side)")
        if i not in s_leaves or j not in t_leaves:
            raise ValueError(
                f"need i in {list(s_leaves)} and j in {list(t_leaves)}"
            )
        edges.append((i, j))
    return Graph(n=n, edges=frozenset(edges), s=s, t=t)
