"""Exact linear algebra over Fraction.

Dense matrices are lists of rows.  Elimination runs on sparse rows, one
``{column: value}`` dict per row that stores only nonzero entries, so a
row update costs the pivot row's nonzero count (plus the updated row's,
when it is rescaled), not the column count.  It is fraction-free: one
pass over each dense row clears it of denominators into a sparse integer
row, which is then updated and reduced in Python ints, and an entry of
the result is built as a Fraction only when it is read off.  Products
are fraction-free too: each factor is scaled by the lcm of its
denominators once, the product runs on sparse integer rows, and every
output entry is one Fraction over the product of those scales; a
matrix-vector product is the product with a one-column matrix.  Int and
Fraction input give Fraction output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

Vec = List[Fraction]
Mat = List[List[Fraction]]
IntRow = Dict[int, int]
IntSparseRows = List[List[Tuple[int, int]]]


def zeros(rows: int, cols: int) -> Mat:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def sparse_rows(m: List[List[int]]) -> IntSparseRows:
    """The nonzero (column, value) pairs of each row of an int matrix."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def _int_rows(m: Mat) -> Tuple[IntSparseRows, int]:
    """(rows, den): den is the lcm of the entries' denominators, and rows
    holds the nonzero (column, value) pairs of each row of den*m, in
    Python ints."""
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in m]
    den = lcm(*(x.denominator for row in rows for _j, x in row))
    return [[(j, x.numerator * (den // x.denominator)) for j, x in row] for row in rows], den


def _int_mul(a: IntSparseRows, b: IntSparseRows, cols: int) -> IntSparseRows:
    """The product a b of sparse integer rows, b with cols columns."""
    out = []
    for ai in a:
        acc = [0] * cols
        for k, x in ai:
            for j, y in b[k]:
                acc[j] += x * y
        out.append([(j, x) for j, x in enumerate(acc) if x])
    return out


def _fractions(rows: IntSparseRows, den: int, cols: int) -> Mat:
    """The dense Fraction matrix of sparse integer rows divided by den."""
    out = zeros(len(rows), cols)
    for o, r in zip(out, rows):
        for j, x in r:
            o[j] = Fraction(x, den) if den != 1 else Fraction(x)
    return out


def mat_mul(a: Mat, b: Mat, cols: Optional[int] = None) -> Mat:
    """The product a b.  The column count is read from b unless given;
    give it when b can have no rows (an inner dimension of 0)."""
    if cols is None:
        cols = len(b[0])
    a_rows, da = _int_rows(a)
    b_rows, db = _int_rows(b)
    return _fractions(_int_mul(a_rows, b_rows, cols), da * db, cols)


def mat_vec(m: Mat, v: Vec) -> Vec:
    """The product m v, through mat_mul on the one-column matrix of v."""
    return [row[0] for row in mat_mul(m, [[x] for x in v], 1)]


def mat_pow(m: Mat, e: int) -> Mat:
    """m^e for a square m.  The power runs on the integer matrix den*m,
    den the lcm of the entries' denominators, and is divided by den^e
    once at the end."""
    n = len(m)
    rows, den = _int_rows(m)
    out = [[(i, 1)] for i in range(n)]
    for _ in range(e):
        out = _int_mul(out, rows, n)
    return _fractions(out, den ** e, n)


def nilpotency_degree(m: Mat) -> Optional[int]:
    """Least e with m^e = 0 for a square m, or None when m is not
    nilpotent.  m^e = 0 exactly when (den*m)^e = 0, den the lcm of the
    entries' denominators, so the powers are taken in integers."""
    n = len(m)
    rows, _den = _int_rows(m)
    power = [[(i, 1)] for i in range(n)]
    for e in range(n + 1):
        if not any(power):
            return e
        power = _int_mul(power, rows, n)
    return None


def _primitive(row: IntRow) -> IntRow:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _int_row(row: Vec) -> IntRow:
    """The nonzero entries of a dense row, as {column: value}, times a
    nonzero rational that makes them coprime integers."""
    items = [(j, x) for j, x in enumerate(row) if x]
    den = lcm(*(x.denominator for _j, x in items))
    return _primitive({j: x.numerator * (den // x.denominator) for j, x in items})


def _eliminate(rows: Mat) -> Tuple[List[IntRow], List[int]]:
    """Fraction-free Gauss-Jordan elimination of dense rows.

    Returns the nonzero rows of the reduced row echelon form, in pivot
    order, with their pivot columns.  Each returned row r is sparse, holds
    integers and is the reduced row times r[pc], pc its pivot column, so
    the reduced row is Fraction(r[j], r[pc]).  Each input row is read into
    a sparse row and cleared of denominators in one pass; a row update is
    (p/g) r - (f/g) prow in integers, with p the pivot, f the row's entry
    in the pivot column and g = gcd(p, f), and every updated row is
    divided by the gcd of its entries.  An integer row is a nonzero
    multiple of the row that Fraction elimination would hold, with the
    same support.  Columns are taken left to right and each pivot row is
    the sparsest candidate; the reduced form is unique, so that choice
    changes only the cost.
    """
    rest = [r for r in map(_int_row, rows) if r]
    done: List[IntRow] = []
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
        p = prow[c]
        items = list(prow.items())
        for group in (done, rest):
            for i, r in enumerate(group):
                f = r.get(c)
                if f is None:
                    continue
                g = gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    for j in r:
                        r[j] *= a
                for j, x in items:
                    y = r.get(j)
                    if y is None:
                        r[j] = -b * x
                    else:
                        y -= b * x
                        if y:
                            r[j] = y
                        else:
                            del r[j]
                if r:
                    group[i] = _primitive(r)
        done.append(prow)
        pivots.append(c)
        rest = [r for r in rest if r]
    return done, pivots


def rref(m: Mat, cols: Optional[int] = None) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form (exact); returns (R, pivot columns).

    R has the shape of m, with its zero rows at the bottom.  The column
    count is read from m unless given; give it when m can have no rows."""
    if cols is None:
        cols = len(m[0]) if m else 0
    out = zeros(len(m), cols)
    rows, pivots = _eliminate(m)
    for o, r, pc in zip(out, rows, pivots):
        p = r[pc]
        for j, x in r.items():
            o[j] = Fraction(x, p)
    return out, pivots


def kernel(m: Mat, cols: Optional[int] = None) -> List[Vec]:
    """Exact basis of the right kernel: one vector per free column, 1 at
    that column and 0 at the other free columns.  The column count is read
    from m unless given; give it when m can have no rows."""
    if cols is None:
        cols = len(m[0]) if m else 0
    rows, pivots = _eliminate(m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    position = {c: i for i, c in enumerate(free)}
    basis = [[Fraction(0)] * cols for _ in free]
    for v, c in zip(basis, free):
        v[c] = Fraction(1)
    for r, pc in zip(rows, pivots):
        p = r[pc]
        for j, x in r.items():
            if j != pc:
                basis[position[j]][pc] = Fraction(-x, p)
    return basis


def solve_linear(m: Mat, b: Vec, cols: Optional[int] = None) -> Optional[Vec]:
    """One exact solution of m x = b (free variables set to 0), or None.
    The unknown count is read from m unless given; give it when m can
    have no rows."""
    if cols is None:
        cols = len(m[0]) if m else 0
    rows, pivots = _eliminate([row + [bi] for row, bi in zip(m, b)])
    if cols in set(pivots):
        return None
    x = [Fraction(0)] * cols
    for r, pc in zip(rows, pivots):
        x[pc] = Fraction(r.get(cols, 0), r[pc])
    return x
