import itertools
from fractions import Fraction

import pytest

from polymaass.linalg import kernel, mat_vec
from polymaass.specsolve import (GradedVector, WModel, _check_generalized_eigenvector,
                                 alternating_trace, apply_banded, brute_force_wd,
                                 build_w0, eisenstein_family, emit_form, poincare_family,
                                 solve_wd, solver_admissible)
from polymaass.symcalc import (DomainError, PolyAtom, SpectralAtom, Family,
                               apply_flip, apply_laplace, apply_power, form_of,
                               forms_equal, is_zero, expand_pending)


# --- kernel ----------------------------------------------------------------

def test_kernel_identity_and_zero():
    I2 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert kernel(I2) == []
    Z2 = [[Fraction(0)] * 2 for _ in range(2)]
    assert len(kernel(Z2)) == 2


def test_kernel_of_solver_matrix():
    A, _, _ = WModel(0, 3, "L").matrices()
    basis = kernel(A)
    assert len(basis) == 1
    v = basis[0]
    w0 = build_w0(0, 3, "L").layers[0]
    scale = w0[0] / v[0]
    assert [x * scale for x in v] == w0


# --- w0 formulas -----------------------------------------------------------

def test_w0_examples():
    assert build_w0(0, 3, "L").layers[0] == [Fraction(1, 36), Fraction(1, 4),
                                             Fraction(1), Fraction(1)]
    assert build_w0(2, 2, "R").layers[0] == [Fraction(1, 2), Fraction(1, 2),
                                             Fraction(1, 6)]
    assert build_w0(0, 0, "L").layers[0] == [Fraction(1)]
    A, _, _ = WModel(0, 0, "L").matrices()
    assert A == [[Fraction(0)]]


@pytest.mark.parametrize("branch,krange", [("L", range(-6, 1)), ("R", range(2, 7))])
def test_w0_in_kernel_on_grid(branch, krange):
    for k in krange:
        for m in range(0, 5):
            gv = build_w0(k, m, branch)
            A, _, _ = WModel(k, m, branch).matrices()
            assert all(x == 0 for x in mat_vec(A, gv.layers[0]))


# --- iterative solver ------------------------------------------------------

def test_solver_rejects_bad_parameters():
    assert not solver_admissible(1, 0, "L")
    with pytest.raises(DomainError):
        solve_wd(1, 0, "L", 1)
    with pytest.raises(DomainError):
        solve_wd(1, 2, "R", 1)


def test_solver_case_ia_layers():
    gv = solve_wd(0, 3, "L", 2)
    assert gv.layers[0] == build_w0(0, 3, "L").layers[0]
    assert gv.layers[1] == [Fraction(11, 216), Fraction(3, 8), Fraction(1), Fraction(0)]
    assert gv.layers[2] == [Fraction(85, 1296), Fraction(7, 16), Fraction(1), Fraction(0)]
    assert gv.preimage_scale == 16
    # gauge: zero v_m component on layers t >= 1
    for layer in gv.layers[1:]:
        assert layer[-1] == 0


def test_solver_base_case_is_w0():
    gv = solve_wd(-2, 3, "L", 0)
    assert gv.layers == build_w0(-2, 3, "L").layers
    assert gv.preimage_scale == 1


GRID_L = list(itertools.product(range(-6, 1), range(0, 5), range(0, 4)))
GRID_R = list(itertools.product(range(2, 7), range(0, 5), range(0, 4)))


@pytest.mark.parametrize("k,m,d", [(k, m, d) for k, m, d in GRID_L if d <= 2][::3])
def test_preimage_identity_L_sample(k, m, d):
    fam = eisenstein_family(k, 0)
    f = emit_form(solve_wd(k, m, "L", d), fam)
    g = f
    for _ in range(d):
        g = apply_laplace(g)
    assert forms_equal(g, emit_form(build_w0(k, m, "L"), fam))
    assert is_zero(apply_laplace(g))


@pytest.mark.parametrize("k,m,d", [(k, m, d) for k, m, d in GRID_R if d <= 2][::3])
def test_preimage_identity_R_sample(k, m, d):
    fam = eisenstein_family(k, 0)
    f = emit_form(solve_wd(k, m, "R", d), fam)
    g = f
    for _ in range(d):
        g = apply_laplace(g)
    assert forms_equal(g, emit_form(build_w0(k, m, "R"), fam))
    assert is_zero(apply_laplace(g))


ORACLE_CASES = [(0, 3, "L", 2), (2, 2, "R", 1), (-4, 2, "L", 3), (4, 0, "R", 2),
                (6, 4, "R", 2), (0, 8, "L", 2), (-3, 6, "L", 3), (5, 6, "R", 2),
                (-8, 8, "R", 2)]


# test names keep the k-m-d form; no two cases share k, m and d
@pytest.mark.parametrize("k,m,branch,d", ORACLE_CASES,
                         ids=["%d-%d-%d" % (k, m, d) for k, m, _b, d in ORACLE_CASES])
def test_oracle_equivalence(k, m, branch, d):
    gv, oracle = solve_wd(k, m, branch, d), brute_force_wd(k, m, branch, d)
    assert gv.layers == oracle.layers
    assert gv.preimage_scale == oracle.preimage_scale


def _test_vector(n, d):
    # deterministic entries with some zeros and one all-zero layer
    layers = [[Fraction((7 * (t * n + r)) % 11 - 5, r % 4 + 1) for r in range(n)]
              for t in range(d + 1)]
    if d >= 2:
        layers[1] = [Fraction(0)] * n
    return layers


BANDED_GRID = ([(k, m, "L", d) for k in (-3, 0) for m in range(0, 4) for d in range(0, 4)]
               + [(k, m, "R", d) for k in (-4, 3) for m in range(0, 4) for d in range(0, 4)])


@pytest.mark.parametrize("k,m,branch,d", BANDED_GRID)
def test_banded_delta_matches_block_delta(k, m, branch, d):
    model = WModel(k, m, branch)
    n = m + 1
    layers = _test_vector(n, d)
    flat = [x for layer in layers for x in layer]
    dense = mat_vec(model.block_delta(d), flat)
    banded = apply_banded(model.bands(), layers)
    assert [x for layer in banded for x in layer] == dense


@pytest.mark.parametrize("k,m,branch,d", [(0, 3, "L", 2), (2, 2, "R", 2),
                                          (-2, 4, "L", 3), (5, 3, "R", 3)])
def test_self_check_rejects_corrupted_layer(k, m, branch, d):
    gv = solve_wd(k, m, branch, d)
    model = WModel(k, m, branch)
    _check_generalized_eigenvector(model, gv)
    for t in range(d + 1):
        for r in range(m + 1):
            layers = [layer[:] for layer in gv.layers]
            layers[t][r] += 1
            bad = GradedVector(k, m, branch, d, layers, gv.preimage_scale)
            with pytest.raises(AssertionError, match="Delta"):
                _check_generalized_eigenvector(model, bad)
    bad = GradedVector(k, m, branch, d, gv.layers, gv.preimage_scale + 1)
    with pytest.raises(AssertionError, match="Delta"):
        _check_generalized_eigenvector(model, bad)


def test_exact_depth_of_emissions():
    # Delta^d of the emitted chain stays nonzero down to the base
    gv = solve_wd(-2, 2, "L", 3)
    f = emit_form(gv, eisenstein_family(-2, 0))
    for _ in range(3):
        assert not is_zero(f)
        f = apply_laplace(f)
    assert not is_zero(f)
    assert is_zero(apply_laplace(f))


# --- two Laplacian routes --------------------------------------------------

@pytest.mark.parametrize("k,m,fam_builder", [
    (0, 3, lambda k: eisenstein_family(k, 0)),
    (-2, 2, lambda k: eisenstein_family(k, 0)),
    (2, 2, lambda k: eisenstein_family(k, 0)),
    (0, 2, lambda k: poincare_family(k, -1, Fraction(k, 2))),
])
def test_block_matrix_matches_engine_laplacian(k, m, fam_builder):
    """The Lemma route (A, B, C matrices on pending atoms) agrees with
    expansion followed by the product-rule Laplacian, termwise."""
    fam = fam_builder(k)
    branch = "L" if k <= 0 else "R"
    A, B, C = WModel(k, m, branch).matrices()

    def basis_form(t, r):
        power = (m - r) if branch == "L" else r
        pending = (branch, power) if power else None
        return form_of(PolyAtom(m, r),
                       SpectralAtom(fam.family, fam.weight, fam.point, t, pending))

    for t in range(0, 3):
        for r in range(m + 1):
            engine = apply_laplace(basis_form(t, r))
            lemma = None
            for i in range(m + 1):
                pieces = [(A[i][r], t), (Fraction(t) * B[i][r], t - 1),
                          (Fraction(t * (t - 1)) * C[i][r], t - 2)]
                for coeff, order in pieces:
                    if coeff == 0 or order < 0:
                        continue
                    term = basis_form(order, i) * coeff
                    lemma = term if lemma is None else lemma + term
            assert forms_equal(engine, lemma)


# --- alternating trace -----------------------------------------------------

def test_alternating_trace_nonzero():
    for k in range(2, 9):
        for m in range(0, 7):
            assert alternating_trace(build_w0(k, m, "R").layers[0]) != 0
    for m in range(0, 7):
        for k in range(-8, -m + 1):
            assert alternating_trace(build_w0(k, m, "R").layers[0]) != 0


# --- emission validation ----------------------------------------------------

def test_emit_rejects_nonstandard_anchor():
    gv = solve_wd(0, 1, "L", 0)
    with pytest.raises(DomainError):
        emit_form(gv, eisenstein_family(0, 2))   # wrong spectral point
    with pytest.raises(DomainError):
        emit_form(gv, eisenstein_family(2, 0))   # wrong weight


def test_emitted_flip_involution():
    # F F = id on the harmonic emissions (criterion 7 backing data)
    count = 0
    for k in range(-4, 1):
        for m in range(0, 3):
            f = emit_form(build_w0(k, m, "L"), eisenstein_family(k, 0))
            if f.weight > 0:
                continue
            assert forms_equal(apply_flip(apply_flip(f)), f)
            count += 1
    assert count >= 10


def test_graded_vector_json_round_trip():
    gv = solve_wd(0, 3, "L", 2)
    again = GradedVector.from_json(gv.to_json())
    assert again.layers == gv.layers and again.preimage_scale == gv.preimage_scale
