from fractions import Fraction
from math import gcd
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymaass
from polymaass.linalg import (IntMat, Mat, identity, kernel, mat_mul, mat_vec, rref,
                              solve_linear, zeros)
from polymaass.scalars import DomainError


# The dense Gauss-Jordan elimination the package used before elimination
# moved to sparse rows, kept verbatim as the reference: a reduced row
# echelon form is unique, so the sparse version must return the same R
# and pivot columns.
def reference_rref(m: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form (exact); returns (R, pivot columns)."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot = None
        for i in range(pr, rows):
            if m[i][pc]:
                pivot = i
                break
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        inv = 1 / m[pr][pc]
        m[pr] = [x * inv for x in m[pr]]
        for i in range(rows):
            if i != pr and m[i][pc]:
                f = m[i][pc]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return m, pivots


ENTRIES = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def matrices(draw, max_rows=8, max_cols=8):
    """0-8 rows, 1-8 columns, a density of nonzero entries in 0.1-1, and
    some rows that are combinations of earlier rows (rank deficiency)."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    density = draw(st.integers(1, 10))
    m = []
    for _ in range(rows):
        if m and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            p, q = draw(ENTRIES), draw(ENTRIES)
            m.append([p * x + q * y for x, y in zip(a, b)])
        else:
            m.append([draw(ENTRIES) if draw(st.integers(1, 10)) <= density else Fraction(0)
                      for _ in range(cols)])
    return m


def width(m: Mat) -> int:
    return len(m[0]) if m else 0


@settings(deadline=None)
@given(matrices())
def test_rref_matches_dense_reference(m):
    assert rref(m) == rref(m, width(m)) == reference_rref(m)


def test_rref_of_empty_matrices():
    assert rref([]) == reference_rref([]) == ([], [])
    assert rref([[]]) == reference_rref([[]]) == ([[]], [])


def test_kernel_of_a_matrix_with_no_rows_takes_the_given_width():
    assert kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel([[0, 0, 0]]) == kernel([], 3)


@settings(deadline=None)
@given(matrices())
def test_kernel_vectors_solve_the_homogeneous_system(m):
    basis = kernel(m)
    rank = len(reference_rref(m)[1])
    assert len(basis) == width(m) - rank
    for v in basis:
        assert mat_vec(m, v) == [0] * len(m)
    if basis:
        assert len(reference_rref(basis)[1]) == len(basis)


@st.composite
def systems(draw):
    """m with a right-hand side that is either m x for some x or arbitrary."""
    m = draw(matrices())
    if draw(st.booleans()):
        b = mat_vec(m, draw(st.lists(ENTRIES, min_size=width(m), max_size=width(m))))
    else:
        b = draw(st.lists(ENTRIES, min_size=len(m), max_size=len(m)))
    return m, b


@settings(deadline=None)
@given(systems())
def test_solve_linear_solves_or_reports_inconsistency(system):
    m, b = system
    x = solve_linear(m, b)
    _r, pivots = reference_rref([row + [bi] for row, bi in zip(m, b)])
    assert (x is None) == (width(m) in pivots)
    if x is not None:
        assert mat_vec(m, x) == b


def test_rref_and_solve_linear_of_a_matrix_with_no_rows_take_the_given_width():
    x = solve_linear([], [], 3)
    assert x == [0, 0, 0] and all_fractions(x)
    assert solve_linear([[0, 0, 0]], [0]) == x
    assert solve_linear([], []) == []
    assert rref([], 3) == rref([]) == ([], [])
    r, pivots = rref([[0, 2, 4]], 3)
    assert (r, pivots) == ([[0, 1, 2]], [1]) and all_fractions(r[0])


@pytest.mark.parametrize("m,b,cols", [([[1, 0]], [1, 2], 2), ([[1, 0], [0, 1]], [1], 2),
                                      ([], [1], 3), ([], [0, 0], 2)],
                         ids=["extra-entry", "missing-entry", "no-rows", "no-rows-zeros"])
def test_solve_refuses_a_right_hand_side_of_the_wrong_length(m, b, cols):
    # pairing rows with entries would drop the inconsistent 0 = 2 of [[1, 0]] x = (1, 2)
    message = "^right-hand side has %d entries for %d rows$" % (len(b), len(m))
    with pytest.raises(DomainError, match=message):
        solve_linear(m, b, cols)
    with pytest.raises(DomainError, match=message):
        IntMat.from_dense(m, cols).solve(b)
    assert IntMat.from_dense(m, cols).solve([0] * len(m)) == [0] * cols


# numerators and denominators up to 2^200, so that one row mixes large
# unrelated denominators and elimination multiplies wide integers
WIDE = st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200))


@st.composite
def wide_matrices(draw):
    """0-6 rows, 1-6 columns of WIDE entries or zeros, and some rows that
    are combinations of earlier rows with WIDE factors."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 6))
    m = []
    for _ in range(rows):
        if m and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            p, q = draw(WIDE), draw(WIDE)
            m.append([p * x + q * y for x, y in zip(a, b)])
        else:
            m.append([draw(st.one_of(st.just(Fraction(0)), WIDE)) for _ in range(cols)])
    return m


@settings(deadline=None)
@given(wide_matrices())
def test_rref_of_wide_entries_matches_dense_reference(m):
    assert rref(m) == reference_rref(m)


@settings(deadline=None)
@given(wide_matrices())
def test_kernel_of_wide_entries_solves_the_homogeneous_system(m):
    basis = kernel(m)
    assert len(basis) == width(m) - len(reference_rref(m)[1])
    for v in basis:
        assert mat_vec(m, v) == [0] * len(m)


@settings(deadline=None)
@given(wide_matrices(), st.booleans(), st.data())
def test_solve_linear_of_wide_entries_solves_or_reports_inconsistency(m, consistent, data):
    if consistent:
        b = mat_vec(m, data.draw(st.lists(WIDE, min_size=width(m), max_size=width(m))))
    else:
        b = data.draw(st.lists(WIDE, min_size=len(m), max_size=len(m)))
    x = solve_linear(m, b)
    _r, pivots = reference_rref([row + [bi] for row, bi in zip(m, b)])
    assert (x is None) == (width(m) in pivots)
    assert solve_linear(m, b, width(m)) == x
    if x is not None:
        assert mat_vec(m, x) == b


def reference_solve(m: Mat, b: List[Fraction], cols: int):
    """The solution of m x = b with the free variables 0, read off the
    reference rref of [m | b], or None when the last column is a pivot."""
    r, pivots = reference_rref([list(row) + [bi] for row, bi in zip(m, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, pc in zip(r, pivots):
        x[pc] = row[cols]
    return x


@settings(deadline=None)
@given(st.one_of(st.tuples(matrices(), st.just(ENTRIES)),
                 st.tuples(wide_matrices(), st.just(WIDE))), st.booleans(), st.data())
def test_intmat_solve_matches_the_fraction_reference(case, consistent, data):
    m, entries = case
    # a matrix with no rows takes its width as given
    cols = width(m) if m else data.draw(st.integers(0, 8))
    if consistent:
        b = mat_vec(m, data.draw(st.lists(entries, min_size=cols, max_size=cols)))
    else:
        b = data.draw(st.lists(entries, min_size=len(m), max_size=len(m)))
    if not consistent and data.draw(st.booleans()):
        b = [x.numerator for x in b]   # an int right-hand side
    x = IntMat.from_dense(m, cols).solve(b)
    assert x == reference_solve(m, b, cols)
    if consistent:
        assert x is not None
    if x is not None:
        assert len(x) == cols and all_fractions(x) and mat_vec(m, x) == b
    assert solve_linear(m, b, cols) == x


@settings(deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_mat_mul_matches_the_entry_formula(rows, inner, cols, data):
    a = [data.draw(st.lists(ENTRIES, min_size=inner, max_size=inner)) for _ in range(rows)]
    b = [data.draw(st.lists(ENTRIES, min_size=cols, max_size=cols)) for _ in range(inner)]
    expected = [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
                 for j in range(cols)] for i in range(rows)]
    assert mat_mul(a, b, cols) == expected
    if inner:
        assert mat_mul(a, b) == expected


def test_mat_mul_with_inner_dimension_zero():
    assert mat_mul([[], []], [], 3) == zeros(2, 3)


def all_fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


def test_integer_input_gives_fractions():
    basis = polymaass.kernel([[2, 1]])
    assert basis == [[Fraction(-1, 2), Fraction(1)]] and all_fractions(basis[0])
    x = solve_linear([[3]], [1])
    assert x == [Fraction(1, 3)] and all_fractions(x)
    r, pivots = rref([[3, 1], [1, 2]])
    assert r == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert all_fractions(x for row in r for x in row)


def repeated_product(m: Mat, e: int) -> Mat:
    out = identity(len(m))
    for _ in range(e):
        out = mat_mul(out, m, len(m))
    return out


# entries with the denominators the Poincare chains meet: Ic at index
# -16384 scales by 4 * 2**15
BIG_DENOMINATORS = st.sampled_from([Fraction(1, 4 * 2 ** 15), Fraction(-3, 4 * 2 ** 15),
                                    Fraction(2 ** 15, 7), Fraction(5, 4 * 2 ** 14 * 3)])


@st.composite
def square_matrices(draw, max_n=5):
    """Square matrices of size 0-5: dense, sparse, zero, strictly upper
    triangular (nilpotent), some with large denominators, some with int
    entries."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "nilpotent", "big", "int"]))
    entry = {"big": st.one_of(ENTRIES, BIG_DENOMINATORS),
             "int": st.integers(-5, 5)}.get(kind, ENTRIES)
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if (kind == "zero" or (kind == "nilpotent" and j <= i)
                    or (kind == "sparse" and draw(st.integers(0, 3)))):
                m[i][j] = Fraction(0)
    return m


@settings(deadline=None)
@given(square_matrices())
def test_int_mat_power_matches_repeated_products(m):
    v = IntMat.from_dense(m, len(m))
    for e in range(10):
        p = v.power(e)
        assert p == IntMat.from_dense(repeated_product(m, e), len(m))
        assert in_lowest_terms(p)


def test_int_mat_power_edge_cases():
    empty = IntMat.from_dense([])
    assert empty.power(0) == empty.power(5) == empty == IntMat([], 1, 0)
    m = IntMat.from_dense([[2, 1], [0, 3]])
    assert m.power(0) == IntMat.identity(2)
    assert m.power(3) == IntMat.from_dense([[8, 19], [0, 27]])
    nil = IntMat.from_dense([[0, 1, 5], [0, 0, 2], [0, 0, 0]])
    assert nil.power(3) == IntMat.from_dense(zeros(3, 3))
    assert nil.power(2) == IntMat.from_dense([[0, 0, 2], [0, 0, 0], [0, 0, 0]])
    d = 4 * 2 ** 15
    assert IntMat.from_dense([[Fraction(1, d)]]).power(9) == IntMat([[(0, 1)]], d ** 9, 1)


def entry_product(a: Mat, b: Mat, cols: int) -> Mat:
    """a b by the entry formula, in Fraction arithmetic."""
    return [[sum((Fraction(a[i][k]) * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


# WIDE entries mixed with wide ints and zeros in one matrix
WIDE_OR_INT = st.one_of(st.just(0), st.integers(-2 ** 200, 2 ** 200), WIDE)


@settings(deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_mat_mul_of_wide_entries_matches_the_entry_formula(rows, inner, cols, data):
    # rows = 0 is an a with no rows; inner = 0 needs the given cols
    a = [data.draw(st.lists(WIDE_OR_INT, min_size=inner, max_size=inner)) for _ in range(rows)]
    b = [data.draw(st.lists(WIDE_OR_INT, min_size=cols, max_size=cols)) for _ in range(inner)]
    out = mat_mul(a, b, cols)
    assert out == entry_product(a, b, cols)
    assert all_fractions(x for row in out for x in row)
    if inner:
        assert mat_mul(a, b) == out


@settings(deadline=None)
@given(st.integers(0, 4), st.integers(0, 4),
       st.sampled_from([st.integers(-5, 5), ENTRIES, WIDE_OR_INT]), st.data())
def test_mat_vec_matches_the_entry_formula(rows, cols, entries, data):
    # rows = 0 is a matrix with no rows, cols = 0 a zero-width v; int
    # entries still give Fractions
    m = [data.draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    v = data.draw(st.lists(entries, min_size=cols, max_size=cols))
    out = mat_vec(m, v)
    assert out == [row[0] for row in entry_product(m, [[x] for x in v], 1)]
    assert len(out) == rows and all_fractions(out)


@settings(deadline=None)
@given(st.integers(0, 4), st.data())
def test_int_mat_power_of_wide_entries_matches_the_entry_formula(n, data):
    m = [data.draw(st.lists(WIDE_OR_INT, min_size=n, max_size=n)) for _ in range(n)]
    v = IntMat.from_dense(m, n)
    expected = identity(n)
    for e in range(5):
        assert v.power(e) == IntMat.from_dense(expected, n)
        expected = entry_product(expected, m, n)


# quiverrep's nilpotency loop as it stood before it moved into linalg, with
# its Fraction products written out by the entry formula
def reference_nilpotency_degree(m: Mat):
    """Least e with m^e = 0, or None when m is not nilpotent."""
    power = identity(len(m))
    for e in range(len(m) + 1):
        if not any(x for row in power for x in row):
            return e
        power = entry_product(power, m, len(m))
    return None


def reference_inverse(m: Mat) -> Mat:
    n = len(m)
    r, pivots = rref([row + unit for row, unit in zip(m, identity(n))])
    assert pivots == list(range(n))
    return [row[n:] for row in r]


@st.composite
def conjugated_triangular(draw, max_n=5):
    """(P T P^-1, T): T upper triangular with rational entries, P an
    invertible rational matrix (a product of unit lower and upper
    triangular factors with a nonzero diagonal between them)."""
    n = draw(st.integers(1, max_n))
    diagonal = draw(st.sampled_from(["zero", "one nonzero", "any"]))
    t = zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            t[i][j] = draw(st.one_of(st.just(Fraction(0)), ENTRIES))
    if diagonal == "one nonzero":
        i = draw(st.integers(0, n - 1))
        t[i][i] = draw(ENTRIES.filter(bool))
    elif diagonal == "any":
        for i in range(n):
            t[i][i] = draw(ENTRIES)
    lower, upper = identity(n), identity(n)
    for i in range(n):
        upper[i][i] = draw(ENTRIES.filter(bool))
        for j in range(i):
            lower[i][j] = draw(ENTRIES)
            upper[j][i] = draw(ENTRIES)
    p = entry_product(lower, upper, n)
    return entry_product(entry_product(p, t, n), reference_inverse(p), n), t


@settings(deadline=None)
@given(conjugated_triangular())
def test_nilpotency_degree_of_a_conjugate_matches_the_reference(pair):
    m, t = pair
    degree = IntMat.from_dense(m).nilpotency_degree()
    assert degree == reference_nilpotency_degree(m) == IntMat.from_dense(t).nilpotency_degree()
    # nilpotent exactly when every eigenvalue, a diagonal entry of t, is 0
    assert (degree is None) == any(t[i][i] for i in range(len(t)))
    if degree is not None:
        assert 1 <= degree <= len(m)


@settings(deadline=None)
@given(st.one_of(square_matrices(), conjugated_triangular().map(lambda pair: pair[0])),
       st.one_of(ENTRIES.filter(bool), WIDE.filter(bool)))
def test_nilpotency_degree_is_unchanged_by_a_nonzero_scale(m, c):
    degree = IntMat.from_dense(m, len(m)).nilpotency_degree()
    assert degree == reference_nilpotency_degree(m)
    scaled = [[c * x for x in row] for row in m]
    assert IntMat.from_dense(scaled, len(m)).nilpotency_degree() == degree


def test_nilpotency_degree_edge_cases():
    assert IntMat.from_dense([]).nilpotency_degree() == reference_nilpotency_degree([]) == 0
    for n in range(1, 5):
        assert IntMat.from_dense(zeros(n, n)).nilpotency_degree() == 1
        assert IntMat.identity(n).nilpotency_degree() is None
    assert IntMat.from_dense([[0, 1], [0, 0]]).nilpotency_degree() == 2
    assert IntMat.from_dense([[Fraction(1, 2 ** 200), 0], [0, 0]]).nilpotency_degree() is None
    shift = [[Fraction(int(j == i + 1), 3) for j in range(5)] for i in range(5)]
    assert IntMat.from_dense(shift).nilpotency_degree() == 5


@settings(deadline=None)
@given(st.one_of(square_matrices(), conjugated_triangular().map(lambda pair: pair[0])))
def test_inverse_matches_the_reference_or_reports_a_singular_matrix(m):
    n = len(m)
    # Fraction entries: the reference would divide int entries to floats
    r, pivots = reference_rref([[Fraction(x) for x in row] + unit
                                for row, unit in zip(m, identity(n))])
    v = IntMat.from_dense(m, n)
    inv = v.inverse()
    if pivots != list(range(n)):
        assert inv is None and v.rank() < n
        return
    dense = inv.to_dense()
    assert dense == [row[n:] for row in r]
    assert entry_product(dense, m, n) == entry_product(m, dense, n) == identity(n)


def test_rank_and_inverse_edge_cases():
    assert [IntMat.from_dense(m).rank() for m in ([], [[]], [[0, 0]])] == [0, 0, 0]
    assert IntMat.from_dense([]).inverse() == IntMat([], 1, 0)
    assert IntMat.from_dense([[0]]).inverse() is None
    assert IntMat.from_dense([[1, 2], [2, 4]]).inverse() is None
    assert IntMat.from_dense([[Fraction(2, 3)]]).inverse() == IntMat([[(0, 3)]], 2, 1)
    assert IntMat.from_dense([[1, 2, 3], [2, 4, 6]]).rank() == 1
    assert IntMat.from_dense([[1, 2], [3, 4], [5, 6]]).rank() == 2


# --- IntMat, the integer matrix value the dense functions wrap ----------------


def in_lowest_terms(v: IntMat) -> bool:
    """Sorted nonzero entries, a positive den sharing no factor with them,
    and den 1 for the zero matrix."""
    entries = [x for row in v.rows for _j, x in row]
    return (v.den > 0 and gcd(v.den, *entries) == 1
            and all(x for x in entries)
            and all([j for j, _x in row] == sorted({j for j, _x in row}) for row in v.rows)
            and all(0 <= j < v.cols for row in v.rows for j, _x in row))


@settings(deadline=None)
@given(st.one_of(matrices(), wide_matrices(), square_matrices()))
def test_int_mat_round_trips_a_dense_matrix(m):
    v = IntMat.from_dense(m)
    assert in_lowest_terms(v) and v.cols == width(m) and len(v.rows) == len(m)
    back = v.to_dense()
    assert back == m and all_fractions(x for row in back for x in row)
    assert IntMat.from_dense(back) == v


@settings(deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_int_mat_product_matches_the_entry_formula(rows, inner, cols, data):
    entries = data.draw(st.sampled_from([ENTRIES, WIDE_OR_INT]))
    a = [data.draw(st.lists(entries, min_size=inner, max_size=inner)) for _ in range(rows)]
    b = [data.draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(inner)]
    product = IntMat.from_dense(a, inner) @ IntMat.from_dense(b, cols)
    # equal to the value of the reference, so in lowest terms as well
    assert product == IntMat.from_dense(entry_product(a, b, cols), cols)
    assert in_lowest_terms(product)


@settings(deadline=None)
@given(st.one_of(square_matrices(), conjugated_triangular().map(lambda pair: pair[0])))
def test_int_mat_inverse_matches_the_reference(m):
    n = len(m)
    inv = IntMat.from_dense(m, n).inverse()
    _r, pivots = reference_rref([[Fraction(x) for x in row] + unit
                                 for row, unit in zip(m, identity(n))])
    if pivots != list(range(n)):
        assert inv is None
    else:
        assert inv == IntMat.from_dense(reference_inverse([[Fraction(x) for x in row]
                                                           for row in m]), n)
        assert in_lowest_terms(inv)


@settings(deadline=None)
@given(st.one_of(matrices(), wide_matrices(), square_matrices()))
def test_int_mat_rank_is_the_pivot_count_of_the_reference(m):
    assert IntMat.from_dense(m).rank() == len(reference_rref([[Fraction(x) for x in row]
                                                              for row in m])[1])


@settings(deadline=None)
@given(st.one_of(square_matrices(), conjugated_triangular().map(lambda pair: pair[0])))
def test_int_mat_nilpotency_and_powers_match_the_reference(m):
    v = IntMat.from_dense(m, len(m))
    assert v.nilpotency_degree() == reference_nilpotency_degree(m)
    for e in range(4):
        assert v.power(e) == IntMat.from_dense(repeated_product(m, e), len(m))


@settings(deadline=None)
@given(square_matrices(), st.one_of(st.integers(-3, 3), ENTRIES, WIDE),
       st.one_of(st.integers(-3, 3), ENTRIES, WIDE))
def test_int_mat_affine_matches_the_entry_formula(m, a, b):
    n = len(m)
    expected = [[(a if i == j else 0) + b * Fraction(m[i][j]) for j in range(n)]
                for i in range(n)]
    assert IntMat.from_dense(m, n).affine(a, b) == IntMat.from_dense(expected, n)


@settings(deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(0, 3), min_size=1, max_size=3), st.data())
def test_int_mat_beside_is_the_block_row(rows, widths, data):
    entries = data.draw(st.sampled_from([ENTRIES, WIDE_OR_INT]))
    blocks = [[data.draw(st.lists(entries, min_size=w, max_size=w)) for _ in range(rows)]
              for w in widths]
    together = IntMat.beside([IntMat.from_dense(b, w) for b, w in zip(blocks, widths)])
    expected = [[x for b in blocks for x in b[i]] for i in range(rows)]
    assert together == IntMat.from_dense(expected, sum(widths))
    assert in_lowest_terms(together)


@settings(deadline=None)
@given(matrices(), st.data())
def test_int_mat_equality_is_equality_of_the_dense_matrices(a, data):
    # b is a, a in another entry type, a with one entry changed, or
    # another matrix
    kind = data.draw(st.sampled_from(["same", "ints", "changed", "other"]))
    b = [list(row) for row in a]
    if kind == "ints":
        b = [[x.numerator if x.denominator == 1 else x for x in row] for row in a]
    elif kind == "changed" and a:
        i, j = data.draw(st.integers(0, len(a) - 1)), data.draw(st.integers(0, width(a) - 1))
        b[i][j] = data.draw(ENTRIES)
    elif kind == "other":
        b = data.draw(matrices())
    assert (IntMat.from_dense(a) == IntMat.from_dense(b)) == (a == b)


def test_int_mat_equality_of_zero_and_empty_shapes():
    assert IntMat.from_dense([]) == IntMat.from_dense([]) == IntMat([], 1, 0)
    assert IntMat.from_dense([[]]) != IntMat.from_dense([[], []])
    assert IntMat.from_dense(zeros(2, 3)) != IntMat.from_dense(zeros(3, 2))
    assert IntMat.from_dense(zeros(2, 3)) != IntMat.from_dense(zeros(2, 2))
    assert IntMat.from_dense(zeros(2, 3)) == IntMat([[], []], 1, 3)
    assert IntMat.from_dense([[Fraction(1, 2)]]).affine(0, 0) == IntMat.from_dense([[0]])
    half = IntMat.from_dense([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert half @ half.inverse() == IntMat.identity(2) == IntMat.from_dense(identity(2))
    assert (IntMat.from_dense([[1, 0]]) == [[1, 0]]) is False


@settings(deadline=None)
@given(st.one_of(matrices(), wide_matrices()))
def test_int_mat_kernel_vectors_are_cleared_public_kernel_vectors(m):
    v = IntMat.from_dense(m)
    pairs = v.kernel()
    assert len(pairs) == len(kernel(m))
    for (c, w), public in zip(pairs, kernel(m)):
        assert w[c] > 0 and all(type(x) is int for x in w.values())
        assert [Fraction(w.get(j, 0), w[c]) for j in range(width(m))] == public
        # the least positive integer multiple: its entries share no factor
        assert gcd(*w.values()) == 1
