"""Exact linear algebra over Fraction.

The package's own code runs on IntMat, an exact rational matrix held as
sparse integer rows (the nonzero (column, value) pairs of each row) over
one positive denominator, in lowest terms.  A product is one integer
product over the product of the denominators; a power, a nilpotency
check, a rank, a kernel and an inverse run in integers too, so a chain
of them builds no Fraction; ``solve`` takes a rational right-hand side
and returns the solution as Fractions.

Dense matrices are lists of rows.  Five thin wrappers over IntMat take
and return them: kernel, the package's export, and solve_linear, mat_mul,
mat_vec and rref.  No package code calls one; they remain as the kernel
export and as the names the benchmark traces under specsolve.  Each
clears its input of denominators once (its lcm); int and Fraction input
give Fractions.

Elimination runs on sparse rows, one ``{column: value}`` dict per row
that stores only nonzero entries, so a row update costs the pivot row's
nonzero count (plus the updated row's, when it is rescaled), not the
column count.  It is fraction-free: rows are updated and reduced in
Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Tuple

Vec = List[Fraction]
Mat = List[List[Fraction]]
IntRow = Dict[int, int]
IntSparseRows = List[List[Tuple[int, int]]]


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


def _reduced(rows: IntSparseRows, den: int, cols: int) -> "IntMat":
    """The IntMat of rows/den, divided through by the gcd of den and the
    entries."""
    if den != 1:
        g = gcd(den, *(x for row in rows for _j, x in row))
        if g != 1:
            rows = [[(j, x // g) for j, x in row] for row in rows]
            den //= g
    return IntMat(rows, den, cols)


class IntMat:
    """An exact rational matrix as sparse integer rows over one denominator.

    ``rows[i]`` holds the nonzero (column, value) pairs of row i of den*M,
    by increasing column; ``den`` is positive and ``cols`` is the column
    count.  The value is kept in lowest terms (den and the entries share
    no factor, and the zero matrix has den 1), so two values are equal
    exactly when their matrices are and ``==`` compares the fields.  A
    chain of products, inverses, ranks and nilpotency checks runs on it
    without building a Fraction; the package builds one with from_dense
    and reads it back with to_dense.  It is not part of the package API.
    """

    __slots__ = ("rows", "den", "cols")

    def __init__(self, rows: IntSparseRows, den: int, cols: int):
        """Takes rows in lowest terms over den; see _reduced otherwise."""
        self.rows, self.den, self.cols = rows, den, cols

    @staticmethod
    def from_dense(m: Mat, cols: Optional[int] = None) -> "IntMat":
        """The value of a dense matrix of ints and Fractions.  den is the
        lcm of the entries' denominators, which leaves den*m in lowest
        terms.  The column count is read from m unless given."""
        if cols is None:
            cols = len(m[0]) if m else 0
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in m]
        den = lcm(*(x.denominator for row in rows for _j, x in row))
        return IntMat([[(j, x.numerator * (den // x.denominator)) for j, x in row]
                       for row in rows], den, cols)

    @staticmethod
    def identity(n: int) -> "IntMat":
        return IntMat([[(i, 1)] for i in range(n)], 1, n)

    @staticmethod
    def beside(mats: List["IntMat"]) -> "IntMat":
        """The block row [M_1 | M_2 | ...] of matrices with one row count:
        each block is scaled to the lcm of the denominators, which keeps
        the result in lowest terms."""
        den = lcm(*(m.den for m in mats))
        rows: IntSparseRows = [[] for _ in mats[0].rows]
        offset = 0
        for m in mats:
            scale = den // m.den
            for out, row in zip(rows, m.rows):
                out.extend((offset + j, scale * x) for j, x in row)
            offset += m.cols
        return IntMat(rows, den, offset)

    def to_dense(self) -> Mat:
        """The dense Fraction matrix."""
        out = [[Fraction(0)] * self.cols for _ in self.rows]
        den = self.den
        for o, row in zip(out, self.rows):
            for j, x in row:
                o[j] = Fraction(x, den)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMat):
            return NotImplemented
        return self.rows == other.rows and self.den == other.den and self.cols == other.cols

    def __repr__(self) -> str:
        return "IntMat(%r, %r, %r)" % (self.rows, self.den, self.cols)

    def __matmul__(self, other: "IntMat") -> "IntMat":
        """The product: one integer product over den_a * den_b."""
        return _reduced(_int_mul(self.rows, other.rows, other.cols),
                        self.den * other.den, other.cols)

    def power(self, e: int) -> "IntMat":
        """M^e for a square M: the integer powers of den*M over den^e, in
        e - 1 products from M (the identity at e = 0)."""
        out = [row[:] for row in self.rows] if e else IntMat.identity(self.cols).rows
        for _ in range(e - 1):
            out = _int_mul(out, self.rows, self.cols)
        return _reduced(out, self.den ** e, self.cols)

    def affine(self, a, b) -> "IntMat":
        """a*I + b*M for a square M and ints or Fractions a, b."""
        a, b = Fraction(a), Fraction(b)
        den = a.denominator * b.denominator * self.den
        diagonal = a.numerator * b.denominator * self.den
        scale = b.numerator * a.denominator
        rows = []
        for i, row in enumerate(self.rows):
            entries = {j: scale * x for j, x in row} if scale else {}
            entries[i] = entries.get(i, 0) + diagonal
            rows.append(sorted((j, x) for j, x in entries.items() if x))
        return _reduced(rows, den, self.cols)

    def nilpotency_degree(self) -> Optional[int]:
        """Least e with M^e = 0 for a square M, or None when M is not
        nilpotent.  M^e = 0 exactly when (den*M)^e = 0, so the powers are
        taken in integers, from M (0 for the empty matrix)."""
        n, power, e = self.cols, self.rows, 1
        while any(power):
            if e == n:
                return None
            power, e = _int_mul(power, self.rows, n), e + 1
        return e if n else 0

    def rank(self) -> int:
        """The pivot count of the elimination, with no reduced form built."""
        return len(_eliminate(map(dict, self.rows))[1])

    def kernel(self) -> List[Tuple[int, IntRow]]:
        """Basis of the right kernel: for each free column c, the vector
        with 1 at c and 0 at the other free columns, times the least
        positive integer that clears it, as (c, {column: value})."""
        return _kernel(*_eliminate(map(dict, self.rows)), self.cols)

    def inverse(self) -> Optional["IntMat"]:
        """The inverse of a square M, or None when M is singular.  The
        elimination of [den*M | I] has pivots at the columns of M exactly
        when M is invertible, and then row i is p_i times row i of
        [I | (den*M)^-1]; M^-1 is den times that block, over the lcm of the
        p_i."""
        n = self.cols
        rows, pivots = _eliminate(dict(row + [(n + i, 1)]) for i, row in enumerate(self.rows))
        if pivots != list(range(n)):
            return None
        den = lcm(*(row[i] for i, row in enumerate(rows)))
        return _reduced([sorted((j - n, x * (den // row[i]) * self.den)
                                for j, x in row.items() if j >= n)
                         for i, row in enumerate(rows)], den, n)

    def solve(self, rhs: Vec) -> Optional[Vec]:
        """One exact solution x of M x = rhs, with the free variables set
        to 0, or None when there is none; rhs holds ints and Fractions,
        one per row (DomainError otherwise).  The elimination runs on the
        integer rows of [M | rhs]."""
        if len(rhs) != len(self.rows):
            from .scalars import DomainError   # only here: linalg imports no package module
            raise DomainError("right-hand side has %d entries for %d rows"
                              % (len(rhs), len(self.rows)))
        n = self.cols
        augmented = IntMat.beside([self, IntMat.from_dense([[b] for b in rhs], 1)])
        rows, pivots = _eliminate(map(dict, augmented.rows))
        if n in pivots:
            return None
        x = [Fraction(0)] * n
        for r, pc in zip(rows, pivots):
            x[pc] = Fraction(r.get(n, 0), r[pc])
        return x


def mat_mul(a: Mat, b: Mat, cols: Optional[int] = None) -> Mat:
    """The product a b.  The column count is read from b unless given;
    give it when b can have no rows (an inner dimension of 0)."""
    return (IntMat.from_dense(a, len(b)) @ IntMat.from_dense(b, cols)).to_dense()


def mat_vec(m: Mat, v: Vec) -> Vec:
    """The product m v, through mat_mul on the one-column matrix of v."""
    return [row[0] for row in mat_mul(m, [[x] for x in v], 1)]


def _primitive(row: IntRow) -> IntRow:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _kernel(rows: List[IntRow], pivots: List[int], cols: int) -> List[Tuple[int, IntRow]]:
    """IntMat.kernel of M, of cols columns, from _eliminate of M or of any
    [M | N]: rows of the latter with a pivot below cols, cut there, are M's."""
    pivot_set = set(pivots)
    hits: Dict[int, List[Tuple[int, int, int]]] = {
        c: [] for c in range(cols) if c not in pivot_set}
    for row, pc in zip(rows, pivots):
        p = row[pc]
        for j, x in row.items():
            if j in hits:
                hits[j].append((pc, x, p))
    basis = []
    for c, column in hits.items():
        scale = lcm(*(p for _pc, _x, p in column))
        v = {c: scale}
        for pc, x, p in column:
            v[pc] = -x * (scale // p)
        basis.append((c, _primitive(v)))
    return basis


def _eliminate(rows: Iterable[IntRow]) -> Tuple[List[IntRow], List[int]]:
    """Fraction-free Gauss-Jordan elimination of sparse integer rows.

    Takes ownership of the row dicts.  Returns the nonzero rows of the
    reduced row echelon form, in pivot order, with their pivot columns.
    Each returned row r is sparse, holds integers and is the reduced row
    times r[pc], pc its pivot column, so the reduced row is
    Fraction(r[j], r[pc]).  Each input row is first divided by the gcd of
    its entries; a row update is (p/g) r - (f/g) prow in integers, with p
    the pivot, f the row's entry in the pivot column and g = gcd(p, f),
    and every updated row is divided by the gcd of its entries.  An
    integer row is a nonzero multiple of the row that Fraction elimination
    would hold, with the same support.  Columns are taken left to right
    and each pivot row is the sparsest candidate; the reduced form is
    unique, so that choice changes only the cost.
    """
    rest = [_primitive(r) for r in rows if r]
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
    value = IntMat.from_dense(m, cols)
    out = [[Fraction(0)] * value.cols for _ in m]
    rows, pivots = _eliminate(map(dict, value.rows))
    for o, r, pc in zip(out, rows, pivots):
        p = r[pc]
        for j, x in r.items():
            o[j] = Fraction(x, p)
    return out, pivots


def kernel(m: Mat, cols: Optional[int] = None) -> List[Vec]:
    """Exact basis of the right kernel: one vector per free column, 1 at
    that column and 0 at the other free columns.  The column count is read
    from m unless given; give it when m can have no rows."""
    value = IntMat.from_dense(m, cols)
    basis = []
    for c, v in value.kernel():
        vec = [Fraction(0)] * value.cols
        for j, x in v.items():
            vec[j] = Fraction(x, v[c])
        basis.append(vec)
    return basis


def solve_linear(m: Mat, b: Vec, cols: Optional[int] = None) -> Optional[Vec]:
    """One exact solution of m x = b (free variables set to 0), or None.
    The unknown count is read from m unless given; give it when m can
    have no rows."""
    return IntMat.from_dense(m, cols).solve(b)
