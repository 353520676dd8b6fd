"""Exact rational reference values, computed over fractions.Fraction with
no rounding: a second route to R_st whose error is zero, so that a float
route can be held to a bound in ulps of the true value."""

from __future__ import annotations

from fractions import Fraction

from spanforge.resistance import Graph


def rational_solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """The solution of mat z = rhs for a nonsingular square mat, by
    Gauss-Jordan elimination over the rationals; ValueError when mat is
    singular."""
    size = len(mat)
    rows = [list(row) + [b] for row, b in zip(mat, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("the matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [entry / head for entry in rows[col]]
        for r in range(size):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [entry - factor * top for entry, top in zip(rows[r], rows[col])]
    return [row[size] for row in rows]


def rational_resistance(g: Graph) -> Fraction:
    """R_st of g as an exact fraction: the potential at s of a unit current
    from s to t, from the Laplacian grounded at t (row and column t left
    out), L_t phi = e_s.  ValueError when g is not connected, since L_t is
    then singular."""
    keep = [v for v in range(g.n) if v != g.t]
    index = {v: i for i, v in enumerate(keep)}
    lap = [[Fraction(0)] * len(keep) for _ in keep]
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            if a in index:
                lap[index[a]][index[a]] += 1
                if b in index:
                    lap[index[a]][index[b]] -= 1
    rhs = [Fraction(int(v == g.s)) for v in keep]
    return rational_solve(lap, rhs)[index[g.s]]
