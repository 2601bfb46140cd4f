"""Exact linear algebra over Fraction.

Dense matrices are lists of rows.  Elimination runs on sparse rows, one
``{column: value}`` dict per row that stores only nonzero entries, so a
row update costs the pivot row's nonzero count, not the column count.
Pivots are inverted as ``Fraction(1) / p``: int and Fraction input give
Fraction output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Vec = List[Fraction]
Mat = List[List[Fraction]]
SparseRows = List[List[Tuple[int, Fraction]]]
Row = Dict[int, Fraction]


def zeros(rows: int, cols: int) -> Mat:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_vec(m: Mat, v: Vec) -> Vec:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in m]


def sparse_rows(m: Mat) -> SparseRows:
    """The nonzero (column, value) pairs of each row."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def sparse_vec(rows: SparseRows, v: Vec) -> Vec:
    return [sum((x * v[j] for j, x in row), Fraction(0)) for row in rows]


def mat_mul(a: Mat, b: Mat, cols: Optional[int] = None) -> Mat:
    """The product a b.  The column count is read from b unless given;
    give it when b can have no rows (an inner dimension of 0)."""
    if cols is None:
        cols = len(b[0])
    b_rows = sparse_rows(b)
    out = zeros(len(a), cols)
    for ai, oi in zip(a, out):
        for aik, bk in zip(ai, b_rows):
            if aik:
                for j, x in bk:
                    oi[j] += aik * x
    return out


def mat_pow(m: Mat, e: int) -> Mat:
    out = identity(len(m))
    for _ in range(e):
        out = mat_mul(out, m)
    return out


def _row_dicts(m: Mat) -> List[Row]:
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _eliminate(rows: List[Row]) -> Tuple[List[Row], List[int]]:
    """Gauss-Jordan elimination of sparse rows (the dicts are consumed).

    Returns the nonzero rows of the reduced row echelon form, in pivot
    order and scaled to 1 at their pivots, with their pivot columns.
    Columns are taken left to right and each pivot row is the sparsest
    candidate; the reduced form is unique, so that choice changes only
    the cost.
    """
    rest = [r for r in rows if r]
    done: List[Row] = []
    pivots: List[int] = []
    for c in sorted({j for r in rest for j in r}):
        best = None
        for i, r in enumerate(rest):
            if c in r and (best is None or len(r) < len(rest[best])):
                best = i
        if best is None:
            continue
        prow = rest[best]
        rest[best] = rest[-1]
        rest.pop()
        inv = Fraction(1) / prow[c]
        prow = {j: x * inv for j, x in prow.items()}
        items = list(prow.items())
        for r in done + rest:
            f = r.get(c)
            if f is None:
                continue
            for j, x in items:
                y = r.get(j)
                if y is None:
                    r[j] = -f * x
                else:
                    y -= f * x
                    if y:
                        r[j] = y
                    else:
                        del r[j]
        done.append(prow)
        pivots.append(c)
        rest = [r for r in rest if r]
    return done, pivots


def rref(m: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form (exact); returns (R, pivot columns).

    R has the shape of m, with its zero rows at the bottom."""
    out = zeros(len(m), len(m[0]) if m else 0)
    rows, pivots = _eliminate(_row_dicts(m))
    for o, r in zip(out, rows):
        for j, x in r.items():
            o[j] = x
    return out, pivots


def kernel(m: Mat) -> List[Vec]:
    """Exact basis of the right kernel: one vector per free column, 1 at
    that column and 0 at the other free columns."""
    cols = len(m[0]) if m else 0
    rows, pivots = _eliminate(_row_dicts(m))
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    position = {c: i for i, c in enumerate(free)}
    basis = [[Fraction(0)] * cols for _ in free]
    for v, c in zip(basis, free):
        v[c] = Fraction(1)
    for r, pc in zip(rows, pivots):
        for j, x in r.items():
            if j != pc:
                basis[position[j]][pc] = -x
    return basis


def solve_linear(m: Mat, b: Vec) -> Optional[Vec]:
    """One exact solution of m x = b (free variables set to 0), or None."""
    cols = len(m[0]) if m else 0
    aug = _row_dicts(m)
    for r, bi in zip(aug, b):
        if bi:
            r[cols] = bi
    rows, pivots = _eliminate(aug)
    if cols in set(pivots):
        return None
    x = [Fraction(0)] * cols
    for r, pc in zip(rows, pivots):
        x[pc] = r.get(cols, Fraction(0))
    return x
