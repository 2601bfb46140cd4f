from fractions import Fraction
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import polymaass
from polymaass.linalg import Mat, kernel, mat_mul, mat_vec, rref, solve_linear, zeros


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
    assert rref(m) == reference_rref(m)


def test_rref_of_empty_matrices():
    assert rref([]) == reference_rref([]) == ([], [])
    assert rref([[]]) == reference_rref([[]]) == ([[]], [])


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
