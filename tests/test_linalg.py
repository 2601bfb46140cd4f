from fractions import Fraction
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import polymaass
from polymaass.linalg import (Mat, identity, kernel, mat_mul, mat_pow, mat_vec,
                              nilpotency_degree, rref, solve_linear, zeros)


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
def test_mat_pow_matches_repeated_products(m):
    for e in range(10):
        p = mat_pow(m, e)
        assert p == repeated_product(m, e)
        assert all_fractions(x for row in p for x in row)


def test_mat_pow_edge_cases():
    assert mat_pow([], 0) == mat_pow([], 5) == []
    assert mat_pow([[2, 1], [0, 3]], 0) == identity(2)
    p = mat_pow([[2, 1], [0, 3]], 3)
    assert p == [[8, 19], [0, 27]] and all_fractions(x for row in p for x in row)
    nil = [[0, 1, 5], [0, 0, 2], [0, 0, 0]]
    assert mat_pow(nil, 3) == zeros(3, 3) and mat_pow(nil, 2) == [[0, 0, 2], [0, 0, 0], [0, 0, 0]]
    d = 4 * 2 ** 15
    assert mat_pow([[Fraction(1, d)]], 9) == [[Fraction(1, d ** 9)]]


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
def test_mat_pow_of_wide_entries_matches_the_entry_formula(n, data):
    m = [data.draw(st.lists(WIDE_OR_INT, min_size=n, max_size=n)) for _ in range(n)]
    expected = identity(n)
    for e in range(5):
        p = mat_pow(m, e)
        assert p == expected and all_fractions(x for row in p for x in row)
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


def inverse(m: Mat) -> Mat:
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
    return entry_product(entry_product(p, t, n), inverse(p), n), t


@settings(deadline=None)
@given(conjugated_triangular())
def test_nilpotency_degree_of_a_conjugate_matches_the_reference(pair):
    m, t = pair
    degree = nilpotency_degree(m)
    assert degree == reference_nilpotency_degree(m) == nilpotency_degree(t)
    # nilpotent exactly when every eigenvalue, a diagonal entry of t, is 0
    assert (degree is None) == any(t[i][i] for i in range(len(t)))
    if degree is not None:
        assert 1 <= degree <= len(m)


@settings(deadline=None)
@given(st.one_of(square_matrices(), conjugated_triangular().map(lambda pair: pair[0])),
       st.one_of(ENTRIES.filter(bool), WIDE.filter(bool)))
def test_nilpotency_degree_is_unchanged_by_a_nonzero_scale(m, c):
    degree = nilpotency_degree(m)
    assert degree == reference_nilpotency_degree(m)
    assert nilpotency_degree([[c * x for x in row] for row in m]) == degree


def test_nilpotency_degree_edge_cases():
    assert nilpotency_degree([]) == reference_nilpotency_degree([]) == 0
    for n in range(1, 5):
        assert nilpotency_degree(zeros(n, n)) == 1
        assert nilpotency_degree(identity(n)) is None
    assert nilpotency_degree([[0, 1], [0, 0]]) == 2
    assert nilpotency_degree([[Fraction(1, 2 ** 200), 0], [0, 0]]) is None
    shift = [[Fraction(int(j == i + 1), 3) for j in range(5)] for i in range(5)]
    assert nilpotency_degree(shift) == 5
