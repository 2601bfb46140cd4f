import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polymaass import BK_CASES, specsolve
from polymaass.linalg import IntMat, kernel, mat_vec
from polymaass.specsolve import (GradedVector, SpectralFamily, WModel,
                                 _check_generalized_eigenvector, _layer_sweep, alternating_trace,
                                 brute_force_wd, build_w0, construct_case, eisenstein_family,
                                 emit_form, poincare_family, preimage_constant_weight, solve_wd,
                                 solver_admissible)
from polymaass.symcalc import (CONSTANT, EISENSTEIN, INCOHERENT, POINCARE, DomainError,
                               PolyAtom, SpectralAtom, Family,
                               apply_flip, apply_laplace, apply_power, form_of,
                               form_to_json, forms_equal, is_zero, expand_pending, zero_form)


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


def _assert_preimage_identity(k, m, branch, d):
    # Delta^d of the emitted chain is nu times the emitted w0, and one more
    # Laplacian takes it to zero
    fam = eisenstein_family(k, 0)
    gv = solve_wd(k, m, branch, d)
    g = emit_form(gv, fam)
    for _ in range(d):
        g = apply_laplace(g)
    assert forms_equal(g, emit_form(build_w0(k, m, branch), fam) * gv.preimage_scale)
    assert is_zero(apply_laplace(g))


# every depth 0..2 of each grid, 105 points on L and 75 on R
@pytest.mark.parametrize("k,m,d", [(k, m, d) for k, m, d in GRID_L if d <= 2])
def test_preimage_identity_L_sample(k, m, d):
    _assert_preimage_identity(k, m, "L", d)


@pytest.mark.parametrize("k,m,d", [(k, m, d) for k, m, d in GRID_R if d <= 2])
def test_preimage_identity_R_sample(k, m, d):
    _assert_preimage_identity(k, m, "R", d)


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


def test_oracle_refuses_a_chain_with_a_lower_layer_image(monkeypatch):
    # at m = 0, d = 1 the pins fix x = (w0, 0) = (1, 0); this nilpotent D takes
    # it to (1, 1), whose top layer alone would pass as nu T w0 with nu = 1
    D = IntMat([[(0, 1), (1, -1)], [(0, 1), (1, -1)]], 1, 2)
    monkeypatch.setattr(WModel, "_int_block_delta", lambda self, d: D)
    assert (D @ D).rows == [[], []]
    with pytest.raises(AssertionError, match="^oracle element is not a clean preimage chain$"):
        brute_force_wd(0, 0, "L", 1)


def _test_vector(n, d):
    # deterministic entries with some zeros and one all-zero layer
    layers = [[Fraction((7 * (t * n + r)) % 11 - 5, r % 4 + 1) for r in range(n)]
              for t in range(d + 1)]
    if d >= 2:
        layers[1] = [Fraction(0)] * n
    return layers


BANDED_GRID = ([(k, m, "L", d) for k in (-3, 0) for m in range(0, 4) for d in range(0, 4)]
               + [(k, m, "R", d) for k in (-4, 3) for m in range(0, 4) for d in range(0, 4)])


def banded_delta(model, layers):
    """A + T B + T^2 C on W_d layer by layer, in Fractions from matrices():
    output layer t is A u_t + B u_{t-1} + C u_{t-2}, and layers past the
    last input are cut off."""
    mats = model.matrices()
    out = []
    for t in range(len(layers)):
        acc = [Fraction(0)] * (model.m + 1)
        for s, M in enumerate(mats[:t + 1]):
            acc = [a + b for a, b in zip(acc, mat_vec(M, layers[t - s]))]
        out += acc
    return out


@pytest.mark.parametrize("k,m,branch,d", BANDED_GRID)
def test_banded_delta_matches_block_delta(k, m, branch, d):
    model = WModel(k, m, branch)
    layers = _test_vector(m + 1, d)
    flat = IntMat.from_dense([[x] for layer in layers for x in layer], 1)
    block = (model._int_block_delta(d) @ flat).to_dense()
    assert [row[0] for row in block] == banded_delta(model, layers)


@pytest.mark.parametrize("k,m,branch,d", [(0, 3, "L", 2), (2, 2, "R", 2),
                                          (-2, 4, "L", 3), (5, 3, "R", 3)])
def test_self_check_rejects_corrupted_layer(k, m, branch, d):
    gv = solve_wd(k, m, branch, d)
    model = WModel(k, m, branch)
    _check_generalized_eigenvector(model, gv)
    # 1/p with a prime p that divides no layer denominator changes the
    # common denominator the check scales by
    den = math.lcm(*(x.denominator for layer in gv.layers for x in layer))
    p = next(p for p in itertools.count(2) if den % p and all(p % q for q in range(2, p)))
    for t in range(d + 1):
        for r in range(m + 1):
            for delta in (1, Fraction(1, p)):
                layers = [layer[:] for layer in gv.layers]
                layers[t][r] += delta
                bad = GradedVector(k, m, branch, d, layers, gv.preimage_scale)
                with pytest.raises(AssertionError, match="Delta"):
                    _check_generalized_eigenvector(model, bad)
    for scale in (gv.preimage_scale + 1, gv.preimage_scale * (1 + Fraction(1, p))):
        bad = GradedVector(k, m, branch, d, gv.layers, scale)
        with pytest.raises(AssertionError, match="Delta"):
            _check_generalized_eigenvector(model, bad)


@pytest.mark.parametrize("k,m,branch,d", [(0, 3, "L", 2), (-2, 4, "L", 3), (5, 3, "R", 3),
                                          (-3, 6, "L", 4)])
def test_self_check_sees_a_corrupted_layer_zero(k, m, branch, d):
    # after j passes the layers below j of a correct w are zero, but not
    # those of a w with a wrong layer 0; the check reads them and reports
    # the first identity
    gv = solve_wd(k, m, branch, d)
    model = WModel(k, m, branch)
    for r in range(m + 1):
        layers = [layer[:] for layer in gv.layers]
        layers[0][r] += 1
        bad = GradedVector(k, m, branch, d, layers, gv.preimage_scale)
        with pytest.raises(AssertionError,
                           match=r"^iterative solution fails Delta\^d w = nu T\^d w0$"):
            _check_generalized_eigenvector(model, bad)


@pytest.mark.parametrize("k,m,branch,d", BANDED_GRID)
def test_banded_delta_on_int_layers_matches_fraction_layers(k, m, branch, d):
    # the oracle's block operator has integer rows, which act on int layers
    model = WModel(k, m, branch)
    block = model._int_block_delta(d)
    assert block.den == 1 and all(type(x) is int for row in block.rows for _j, x in row)
    layers = [[int(x * 12) for x in layer] for layer in _test_vector(m + 1, d)]
    flat = [x for layer in layers for x in layer]
    as_ints = [sum(x * flat[j] for j, x in row) for row in block.rows]
    assert as_ints == banded_delta(model, layers)
    assert all(type(x) is int for x in as_ints)


@pytest.mark.parametrize("k,m,branch,d", BANDED_GRID)
def test_delta_layers_matches_banded_delta(k, m, branch, d):
    # the self-check applies A, B and C by their diagonals to int layers
    model = WModel(k, m, branch)
    layers = [[int(x * 12) for x in layer] for layer in _test_vector(m + 1, d)]
    out = specsolve._delta_layers(specsolve._band_rows(model._diagonals(), m + 1, d + 1),
                                  [x for layer in layers for x in layer])
    assert out == banded_delta(model, layers)
    assert all(type(x) is int for x in out)


def reference_check(model, gv):
    """The message of the first of Delta^d w = nu T^d w0 and Delta^{d+1} w =
    0 that fails, by d + 1 passes of banded_delta in Fractions; None when
    both hold."""
    n, d = model.m + 1, gv.d
    img = [x for layer in gv.layers for x in layer]
    for _ in range(d):
        img = banded_delta(model, [img[t * n:(t + 1) * n] for t in range(d + 1)])
    if img != [0] * (d * n) + [gv.preimage_scale * x for x in gv.layers[0]]:
        return "iterative solution fails Delta^d w = nu T^d w0"
    if any(banded_delta(model, [img[t * n:(t + 1) * n] for t in range(d + 1)])):
        return "iterative solution fails Delta^{d+1} w = 0"
    return None


SMALL_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), branch=st.sampled_from("LR"), k=st.integers(-5, 7), m=st.integers(0, 5),
       d=st.integers(0, 4), edit=st.sampled_from(["none", "rescale", "nu", "entry"]))
def test_self_check_agrees_with_the_pass_by_pass_reference(data, branch, k, m, d, edit):
    # the one-pass certificate accepts exactly what d + 1 passes accept, and
    # otherwise names the identity they find failing; a zero w0 is refused
    assume(solver_admissible(k, m, branch))
    model, gv = WModel(k, m, branch), solve_wd(k, m, branch, d)
    layers, nu = gv.layers, gv.preimage_scale
    if edit == "rescale":   # q(T) w with q(0) = q[0]: the same chain, accepted
        q = [data.draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(-1, 3)]))]
        q += [data.draw(SMALL_RATIONALS) for _ in range(d)]
        layers = [[sum(q[s] * layers[t - s][i] for s in range(t + 1)) for i in range(m + 1)]
                  for t in range(d + 1)]
    elif edit == "nu":
        nu = data.draw(SMALL_RATIONALS.filter(bool))
    elif edit == "entry":
        t, i = data.draw(st.integers(0, d)), data.draw(st.integers(0, m))
        layers = [layer[:] for layer in layers]
        layers[t][i] += data.draw(SMALL_RATIONALS.filter(bool))
    chain = GradedVector(k, m, branch, d, layers, nu)
    want = reference_check(model, chain)
    if not any(layers[0]):
        want = "iterative solution has w0 = 0"
    elif edit in ("none", "rescale"):
        assert want is None
    if want is None:
        _check_generalized_eigenvector(model, chain)
    else:
        with pytest.raises(AssertionError) as err:
            _check_generalized_eigenvector(model, chain)
        assert str(err.value) == want


@pytest.mark.parametrize("d", [0, 3])
def test_self_check_refuses_a_zero_w0(d):
    model = WModel(0, 3, "L")
    zero = GradedVector(0, 3, "L", d, [[0] * 4] * (d + 1), Fraction(5))
    with pytest.raises(AssertionError, match=r"^iterative solution has w0 = 0$"):
        _check_generalized_eigenvector(model, zero)
    # upper layers of a solved chain over a zero w0, at its own nu
    gv = solve_wd(0, 3, "L", d)
    bad = GradedVector(0, 3, "L", d, [[0] * 4] + gv.layers[1:], gv.preimage_scale)
    with pytest.raises(AssertionError, match=r"^iterative solution has w0 = 0$"):
        _check_generalized_eigenvector(model, bad)


@pytest.mark.parametrize("k,m,branch,d", [(0, 0, "L", 0), (-3, 4, "L", 4), (3, 8, "R", 1),
                                          (-16, 16, "R", 8), (4, 6, "R", 6)])
def test_self_check_of_a_solve_is_one_pass(k, m, branch, d, monkeypatch):
    def block(*args):
        raise AssertionError("the block operator was built")
    passes = []

    def counted(bands, layers):   # flat layers of m + 1 entries
        passes.append(len(layers) // (m + 1))
        return delta_layers(bands, layers)
    delta_layers = specsolve._delta_layers
    monkeypatch.setattr(WModel, "_int_block_delta", block)
    monkeypatch.setattr(specsolve, "_delta_layers", counted)
    solve_wd(k, m, branch, d)
    assert passes == [d + 1]


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


def test_square_layer_system_is_nonsingular_wherever_the_solver_runs():
    # the argument of solve_wd's docstring: rank A = n - 1, w0[m] != 0 and
    # w0 outside the image of A, so [[A, -w0], [e_m^T, 0]] is invertible
    count = 0
    for k in range(-12, 13):
        for m in range(20):
            for branch in "LR":
                if not solver_admissible(k, m, branch):
                    continue
                A, _B, _C = WModel(k, m, branch).matrices()
                w0 = build_w0(k, m, branch).layers[0]
                square = [row + [-w] for row, w in zip(A, w0)] + [[0] * m + [1, 0]]
                assert IntMat.from_dense(A).rank() == m and w0[m] != 0, (k, m, branch)
                assert IntMat.from_dense(square).rank() == m + 2, (k, m, branch)
                count += 1
    assert count == 637


def _bordered_reference(A, w0, rest):
    """(u, mu) from the inverse of [[A, -w0], [e_m^T, 0]] times rest + [0],
    as solve_wd once took them."""
    m = len(A) - 1
    inv = IntMat.from_dense([row + [-w] for row, w in zip(A, w0)] + [[0] * m + [1, 0]]).inverse()
    *u, mu = [row[0] for row in (inv @ IntMat.from_dense([[x] for x in rest + [0]], 1)).to_dense()]
    return u, mu


@settings(deadline=None, max_examples=200)
@given(data=st.data(), branch=st.sampled_from("LR"), m=st.integers(0, 16),
       scale=st.integers(-6, 6).filter(bool))
def test_layer_sweep_matches_the_inverse_of_the_bordered_system(data, branch, m, scale):
    k = data.draw(st.sampled_from([k for k in range(-20, 21) if solver_admissible(k, m, branch)]))
    A, _B, _C = WModel(k, m, branch).matrices()
    w0 = build_w0(k, m, branch).layers[0]
    den = math.lcm(*(x.denominator for x in w0))
    w0 = [int(x * den) * scale for x in w0]   # any int vector spanning ker A
    rest = data.draw(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=m + 1, max_size=m + 1))
    u, mu, den = _layer_sweep(WModel(k, m, branch)._diagonals()[0], w0, branch)(rest)
    assert all(type(x) is int for x in u + [mu, den])
    assert ([Fraction(x, den) for x in u], Fraction(mu, den)) == _bordered_reference(A, w0, rest)
    assert [sum(a * x for a, x in zip(row, u)) - mu * w for row, w in zip(A, w0)] \
        == [den * x for x in rest]
    assert u[m] == 0


def test_layer_sweep_refuses_a_vector_in_the_image_of_A():
    # L: the image of A is v_m = 0; R: the image of A is where
    # alternating_trace vanishes
    A = WModel(0, 3, "L")._diagonals()[0]
    assert _layer_sweep(A, [1, 2, 3, 0], "L") is None
    A = WModel(2, 3, "R")._diagonals()[0]
    assert alternating_trace([Fraction(x) for x in (1, 1, 1, 1)]) == 0
    assert _layer_sweep(A, [1, 1, 1, 1], "R") is None
    assert _layer_sweep(A, [1, 1, 1, 2], "R") is not None


def grid_digest(solver, points):
    """(sha256 prefix, line count, error count) over one line per point: the
    solver's to_json with sorted keys, or "DomainError: " and the message."""
    h, count, errors = hashlib.sha256(), 0, 0
    for point in points:
        try:
            line = json.dumps(solver(*point).to_json(), sort_keys=True)
        except DomainError as e:
            line, errors = "DomainError: " + str(e), errors + 1
        h.update((line + "\n").encode())
        count += 1
    return h.hexdigest()[:16], count, errors


# sha256 prefix over solve_wd on k -8..8 x m 0..12 x {L, R} x d 0..6 (3094
# points), recorded while each layer was still solved through the inverse
# of the bordered system [[A, -w0], [e_m^T, 0]]
def test_solve_wd_grid_is_pinned():
    points = itertools.product(range(-8, 9), range(13), "LR", range(7))
    assert grid_digest(solve_wd, points)[0] == "605c28f85ad0fd46"


# build_w0 on k -12..12 x m 0..16 x {L, R}, recorded while w_0 was built as
# Fractions and cleared of its denominators afterwards
def test_build_w0_grid_is_pinned():
    points = itertools.product(range(-12, 13), range(17), "LR")
    assert grid_digest(build_w0, points) == ("1f4222a11ce845da", 850, 0)


# brute_force_wd on k -5..5 x m 0..5 x {L, R} x d 0..3, recorded while the
# oracle solved its pinned system through the dense kernel, solve_linear
# and mat_mul
def test_brute_force_wd_grid_is_pinned():
    points = itertools.product(range(-5, 6), range(6), "LR", range(4))
    assert grid_digest(brute_force_wd, points) == ("41a2fd6bbc7ccc3b", 528, 75)


def kernel_oracle(k, m, branch, d):
    """brute_force_wd as it once ran: the kernel basis of D D^d, the
    combination with the pinned layer 0 and v_m gauge, then the Fraction
    sum of the kernel vectors."""
    model = WModel(k, m, branch)
    w0 = build_w0(k, m, branch).layers[0]
    n = m + 1
    D = model._int_block_delta(d)
    Dd = D.power(d)
    K = [v for _c, v in (D @ Dd).kernel()]
    pinned = list(range(n)) + [t * n + m for t in range(1, d + 1)]
    coeffs = IntMat([[(j, v[i]) for j, v in enumerate(K) if i in v] for i in pinned], 1,
                    len(K)).solve(w0 + [0] * d)
    if coeffs is None:
        raise DomainError("oracle: no pinned kernel element (k=%d, m=%d, %s, d=%d)"
                          % (k, m, branch, d))
    flat = [sum(q * v.get(i, 0) for q, v in zip(coeffs, K)) for i in range(n * (d + 1))]
    layers = [flat[t * n:(t + 1) * n] for t in range(d + 1)]
    img = [row[0] for row in (Dd @ IntMat.from_dense([[x] for x in flat], 1)).to_dense()]
    top = img[d * n:]
    pivot = next(i for i, x in enumerate(w0) if x)
    nu = top[pivot] / w0[pivot]
    if [nu * x for x in w0] != top or any(x != 0 for x in img[:d * n]):
        raise AssertionError("oracle element is not a clean preimage chain")
    return GradedVector(k, m, branch, d, layers, nu)


def test_brute_force_wd_equals_the_kernel_oracle():
    # one solve of D^{d+1} x = 0 with the pins as rows sets the same free
    # columns to zero as the kernel basis and its pinned combination, also
    # where the pinned system has free columns and where no element exists
    points = list(itertools.product(range(-8, 9), range(8), "LR", range(4)))
    got, want = grid_digest(brute_force_wd, points), grid_digest(kernel_oracle, points)
    assert got == want and got[1:] == (1088, 120)
    # a shape past the solver whose pinned system has a free column
    k, m, branch, d = -2, 4, "R", 2
    n = (m + 1) * (d + 1)
    w0 = build_w0(k, m, branch).layers[0]
    pins = [[(i, 1)] for i in list(range(m + 1)) + [t * (m + 1) + m for t in range(1, d + 1)]]
    D = WModel(k, m, branch)._int_block_delta(d)
    assert not solver_admissible(k, m, branch)
    assert IntMat((D @ D.power(d)).rows + pins, 1, n).rank() < n
    oracle = brute_force_wd(k, m, branch, d)
    assert oracle == kernel_oracle(k, m, branch, d) and oracle.layers[0] == w0


def stacked_oracle(k, m, branch, d):
    """brute_force_wd as it once ran: the pin rows (den_0 at each layer-0
    coordinate and at each v_m coordinate above it) appended to the rows of
    D D^d, and one solve of the whole stacked system."""
    model = WModel(k, m, branch)
    den0, w0 = specsolve._kernel_vector(model, model._diagonals()[0])
    n, D = m + 1, model._int_block_delta(d)
    Dd = D.power(d)
    pins = [[(i, den0)] for i in list(range(n)) + [t * n + m for t in range(1, d + 1)]]
    x = IntMat((D @ Dd).rows + pins, 1, n * (d + 1)).solve([0] * (n * (d + 1)) + w0 + [0] * d)
    if x is None:
        raise DomainError("oracle: no pinned kernel element (k=%d, m=%d, %s, d=%d)"
                          % (k, m, branch, d))
    den = math.lcm(*(q.denominator for q in x))
    X = [q.numerator * (den // q.denominator) for q in x]
    img = [sum(a * X[j] for j, a in row) for row in Dd.rows]
    top, p = img[d * n:], next(i for i, a in enumerate(w0) if a)
    if any(img[:d * n]) or any(a * w0[p] != top[p] * b for a, b in zip(top, w0)):
        raise AssertionError("oracle element is not a clean preimage chain")
    return GradedVector(k, m, branch, d, [x[t * n:(t + 1) * n] for t in range(d + 1)],
                        Fraction(top[p] * den0, den * w0[p]))


@pytest.mark.parametrize("ks,ms,ds,shape", [(range(-8, 9), range(8), range(4), (1088, 120)),
                                            (range(-10, 11), range(10), range(5, 7), (840, 100))],
                         ids=["d0-3", "d5-6"])
def test_brute_force_wd_equals_the_stacked_oracle(ks, ms, ds, shape):
    # substituting the pins before the solve leaves the free columns, and so
    # the element, as solving with the pins as rows does; errors included
    points = list(itertools.product(ks, ms, "LR", ds))
    got, want = grid_digest(brute_force_wd, points), grid_digest(stacked_oracle, points)
    assert got == want and got[1:] == shape


def test_solver_and_cases_call_no_dense_wrapper(monkeypatch):
    def dense(*args):
        raise AssertionError("a dense linalg wrapper ran")
    for name in ("kernel", "mat_mul", "mat_vec", "rref", "solve_linear"):
        monkeypatch.setattr(specsolve, name, dense)
    assert brute_force_wd(0, 2, "L", 2) == solve_wd(0, 2, "L", 2)
    for label in BK_CASES:
        k = {"I": -2, "II": 1, "III": 3}[label.rstrip("abcd")]
        construct_case(label, k, 1)


# --- emission validation ----------------------------------------------------

def test_emit_rejects_nonstandard_anchor():
    gv = solve_wd(0, 1, "L", 0)
    with pytest.raises(DomainError):
        emit_form(gv, eisenstein_family(0, 2))   # wrong spectral point
    with pytest.raises(DomainError):
        emit_form(gv, eisenstein_family(2, 0))   # wrong weight


# check_standard over Eisenstein, Poincare (n = -1), incoherent (D = 3) and
# constant families, weights -4..4, points a/2 for a in -8..8, both
# orientations (1224 anchors, 52 standard): one line per anchor, "ok" or the
# message; recorded while the check compared symcalc's local eigenvalue
# polynomial (a0, orientation a1, a2) with (0, 1 - weight, -1)
def test_standard_anchor_check_is_pinned():
    families = [Family(EISENSTEIN), Family(POINCARE, index=-1), Family(INCOHERENT, disc=3),
                Family(CONSTANT)]
    h, standard = hashlib.sha256(), 0
    for fam, w, a, o in itertools.product(families, range(-4, 5), range(-8, 9), (1, -1)):
        try:
            SpectralFamily(fam, w, Fraction(a, 2), o).check_standard()
            line, standard = "ok", standard + 1
        except DomainError as e:
            line = str(e)
        h.update((line + "\n").encode())
    assert (h.hexdigest()[:16], standard) == ("5f3557a113e6d948", 52)


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


def emit_form_reference(gv, fam):
    """emit_form as it summed one Form per term, with the number of pending
    terms it dropped because they expand to zero."""
    if fam.weight != gv.k:
        raise DomainError("family weight %d does not match solver weight %d"
                          % (fam.weight, gv.k))
    fam.check_standard()
    m, d = gv.m, gv.d
    out = zero_form(gv.k - m if gv.branch == "L" else gv.k + m)
    dropped = 0
    for t, layer in enumerate(gv.layers):
        order = d - t
        for r, coeff in enumerate(layer):
            if coeff == 0:
                continue
            power = (m - r) if gv.branch == "L" else r
            pending = (gv.branch, power) if power > 0 else None
            atom = SpectralAtom(fam.family, fam.weight, fam.point, order, pending)
            q = coeff / math.factorial(order) * (fam.orientation ** order)
            term = form_of(PolyAtom(m, r), atom, Fraction(q))
            if not is_zero(term):
                out = out + term
            else:
                dropped += 1
    return out, dropped


# the standard anchors of weight k: both points where the local eigenvalue
# is (1 - k) u - u^2, each with its orientation
EMIT_ANCHORS = {
    "eisenstein+": lambda k: eisenstein_family(k, 0),
    "eisenstein-": lambda k: eisenstein_family(k, 1 - k, orientation=-1),
    "poincare+": lambda k: poincare_family(k, -1, Fraction(k, 2)),
    "poincare-": lambda k: poincare_family(k, -1, 1 - Fraction(k, 2), orientation=-1),
}


@pytest.mark.parametrize("branch", ["L", "R"])
def test_emit_form_matches_the_per_term_sum(branch):
    dropped = 0
    for k, m in itertools.product(range(-2, 4), range(4)):
        if not solver_admissible(k, m, branch):
            continue
        for d in range(5):
            gv = solve_wd(k, m, branch, d)
            for anchor in EMIT_ANCHORS.values():
                got = emit_form(gv, anchor(k))
                want, n = emit_form_reference(gv, anchor(k))
                assert got == want and got.weight == want.weight, (k, m, d, anchor(k))
                assert list(got.terms) == list(want.terms)
                dropped += n
    # L^p meets a zero prefactor at every standard anchor; on the R branch
    # step j of R^p has prefactor j or k + j - 1, and admissibility gives
    # k > 1 or j <= m < 1 - k, so none is zero
    assert (dropped > 0) == (branch == "L")


@pytest.mark.parametrize("label", ["Ia", "Id", "IIIb"])
def test_solver_cases_are_the_emitted_solver_chain(label):
    # construct_case emits the solver's chain at its anchor as it is, nu kept
    for k, d, family, index in itertools.product(
            {"Ia": (-1, -3), "Id": (-1, -2), "IIIb": (3, 4)}[label], range(4),
            (None, "eisenstein", "poincare") if label != "IIIb" else (None,), (-1, -5)):
        if label == "Ia":
            gv = solve_wd(0, -k, "L", d)
            anchor = (poincare_family(0, index, 0) if family == "poincare"
                      else eisenstein_family(0, 0))
        elif label == "Id":
            gv = solve_wd(k - 2, 2, "R", d)
            anchor = (poincare_family(k - 2, index, 1 - Fraction(k - 2, 2), orientation=-1)
                      if family == "poincare" else eisenstein_family(k - 2, 3 - k, orientation=-1))
        else:
            gv = solve_wd(2, k - 2, "R", d)
            anchor = eisenstein_family(2, 0)
        got = construct_case(label, k, d, index=index, family=family)
        want = emit_form(gv, anchor)
        assert got == want and got.weight == want.weight, (label, k, d, family, index)
        assert list(got.terms) == list(want.terms)


@pytest.mark.parametrize("solver", [solve_wd, brute_force_wd])
def test_negative_m_and_d_are_rejected_before_any_work(solver, monkeypatch):
    def no_work(*args):
        raise AssertionError("linear algebra ran")
    for name in ("kernel", "mat_mul", "mat_vec", "solve_linear"):
        monkeypatch.setattr(specsolve, name, no_work)
    for name in ("from_dense", "inverse", "power", "__matmul__", "solve", "kernel"):
        monkeypatch.setattr(IntMat, name, no_work)
    with pytest.raises(DomainError, match="^m must be nonnegative$"):
        solver(3, -5, "R", 1)
    with pytest.raises(DomainError, match="^m must be nonnegative$"):
        build_w0(3, -5, "R")
    with pytest.raises(DomainError, match="^m and d must be nonnegative$"):
        solver(3, 2, "R", -1)
    with pytest.raises(DomainError, match="^branch must be L or R$"):
        solver(3, 2, "Q", 1)


def test_negative_depth_of_a_constant_weight_preimage_is_rejected():
    with pytest.raises(DomainError, match="^depth must be nonnegative$"):
        preimage_constant_weight(1, -1, poincare_family(1, -1, Fraction(1, 2), orientation=-1))


@pytest.mark.parametrize("layers,scale,message", [
    ([[0.5]], 1, "layers has the entry 0.5"), ([[True]], 1, "layers has the entry True"),
    ([["1"]], 1, "layers has the entry '1'"), ([[1]], 0.5, "preimage_scale has the entry 0.5"),
    ([[1]], True, "preimage_scale has the entry True"),
], ids=["float", "bool", "str", "scale-float", "scale-bool"])
def test_graded_vector_rejects_inexact_entries(layers, scale, message):
    with pytest.raises(DomainError) as ex:
        GradedVector(0, 0, "L", 0, layers, scale)
    assert str(ex.value) == message + "; entries must be ints or Fractions"


@pytest.mark.parametrize("field,value", [
    ("k", 0.0), ("k", True), ("m", 0.0), ("m", False), ("m", "0"), ("d", True), ("d", 0.0)])
def test_graded_vector_rejects_non_int_fields(field, value):
    args = dict(k=0, m=0, branch="L", d=0, layers=[[1]])
    args[field] = value
    with pytest.raises(DomainError) as ex:
        GradedVector(**args)
    assert str(ex.value) == "%s must be an int, not %r" % (field, value)


@pytest.mark.parametrize("layers", [None, 5, [None], [5], [iter([1, 2])]],
                         ids=["none", "int", "none-layer", "int-layer", "iterator-layer"])
def test_graded_vector_refuses_layers_without_a_shape(layers):
    with pytest.raises(DomainError) as ex:
        GradedVector(0, 1, "L", 0, layers)
    assert str(ex.value) == "a graded vector needs d + 1 = 1 layers of m + 1 = 2 entries"


def test_graded_vector_keeps_its_fraction_entries():
    q = Fraction(1, 3)
    assert GradedVector(0, 1, "L", 0, [[q, 1]]).layers[0][0] is q


def test_graded_vector_stores_ints_as_fractions():
    gv = GradedVector(0, 0, "L", 3, [[1], [0], [0], [0]], 2)
    assert all(type(x) is Fraction for layer in gv.layers for x in layer)
    assert type(gv.preimage_scale) is Fraction
    # an int layer once met int / int in emit_form and emitted the float 1/6
    form = emit_form(GradedVector(0, 0, "L", 3, [[1], [0], [0], [0]]), eisenstein_family(0, 0))
    assert [c.terms for _key, c in form.terms] == [((0, Fraction(1, 6)),)]


def test_graded_vector_json_round_trip():
    gv = solve_wd(0, 3, "L", 2)
    again = GradedVector.from_json(gv.to_json())
    assert again.layers == gv.layers and again.preimage_scale == gv.preimage_scale


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(k=0.0), lambda d: d.update(m=3.9), lambda d: d.update(d=2.5),
    lambda d: d["layers"][0].__setitem__(0, 0.1), lambda d: d.update(preimage_scale=0.5),
], ids=["k", "m", "d", "layer", "preimage_scale"])
def test_graded_vector_json_rejects_floats(mutate):
    data = solve_wd(0, 3, "L", 2).to_json()
    mutate(data)
    with pytest.raises(DomainError, match="^malformed graded vector JSON: "):
        GradedVector.from_json(data)


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(k=True), lambda d: d.update(m=True), lambda d: d.update(d=True),
    lambda d: d["layers"][0].__setitem__(0, True), lambda d: d.update(preimage_scale=True),
], ids=["k", "m", "d", "layer", "preimage_scale"])
def test_graded_vector_json_rejects_booleans(mutate):
    data = solve_wd(0, 1, "L", 1).to_json()
    mutate(data)
    with pytest.raises(DomainError, match="^malformed graded vector JSON: "):
        GradedVector.from_json(data)


@pytest.mark.parametrize("mutate,message", [
    # once loaded, and emit_form then raised ZeroDivisionError
    (lambda d: d.update(m=2, d=3, layers=[["1", "0"]], preimage_scale="0"),
     "a graded vector needs d + 1 = 4 layers of m + 1 = 3 entries"),
    (lambda d: d.update(branch="Q"), "branch must be L or R"),
    (lambda d: d.update(m=-1), "m and d must be nonnegative"),
    (lambda d: d.update(d=-1), "m and d must be nonnegative"),
    (lambda d: d["layers"].pop(), "a graded vector needs d + 1 = 3 layers of m + 1 = 4 entries"),
    (lambda d: d["layers"][1].append("0"),
     "a graded vector needs d + 1 = 3 layers of m + 1 = 4 entries"),
    (lambda d: d.update(preimage_scale="0"), "preimage_scale must be nonzero"),
], ids=["issue-example", "branch", "m", "d", "layer-count", "layer-length", "scale"])
def test_graded_vector_is_checked_when_built(mutate, message):
    gv = solve_wd(0, 3, "L", 2)
    data = gv.to_json()
    mutate(data)
    with pytest.raises(DomainError) as ex:
        GradedVector.from_json(data)
    assert str(ex.value) == message
    with pytest.raises(DomainError) as ex:
        GradedVector(data["k"], data["m"], data["branch"], data["d"],
                     [[Fraction(x) for x in v] for v in data["layers"]],
                     Fraction(data["preimage_scale"]))
    assert str(ex.value) == message


def test_solver_matrices_are_ints():
    for branch in "LR":
        model = WModel(-3 if branch == "L" else 3, 4, branch)
        assert all(type(x) is int for M in model.matrices() for row in M for x in row)


def dense_matrices(model):
    """A, B and C as matrices() once built them, entry by entry."""
    k, m = model.k, model.m
    n = m + 1
    A, B, C = ([[0] * n for _ in range(n)] for _ in range(3))
    for r in range(n):
        if model.branch == "L":
            A[r][r] = (m - r) * (m - 2 * r - k)
            if r >= 1:
                A[r - 1][r] = -1
            if r + 1 <= m:
                A[r + 1][r] = (r + 1) * (m - r) * (m - r - 1) * (m - r - k)
            B[r][r] = 1 - k
            if r + 1 <= m:
                B[r + 1][r] = (r + 1) * (m - r) * (1 - k)
            C[r][r] = -1
            if r + 1 <= m:
                C[r + 1][r] = -(r + 1) * (m - r)
        else:
            A[r][r] = -(r * (m - 2 * r - k) + m)
            if r >= 1:
                A[r - 1][r] = r * (r - 1 + k)
            if r + 1 <= m:
                A[r + 1][r] = -(r + 1) * (m - r)
            B[r][r] = 1 - k
            if r >= 1:
                B[r - 1][r] = 1 - k
            C[r][r] = -1
            if r >= 1:
                C[r - 1][r] = -1
    return A, B, C


def test_diagonals_and_matrices_match_the_dense_formulas():
    # the nonzero diagonals by increasing offset, 0 off the matrix
    for k, m, branch in itertools.product(range(-8, 9), range(17), "LR"):
        model = WModel(k, m, branch)
        want = dense_matrices(model)
        bands = [[(o, [M[i][i + o] if 0 <= i + o <= m else 0 for i in range(m + 1)])
                  for o in sorted({j - i for i, row in enumerate(M) for j, x in enumerate(row)
                                   if x})] for M in want]
        assert model._diagonals() == bands, (k, m, branch)
        assert model.matrices() == want, (k, m, branch)
        assert all(type(x) is int for band in model._diagonals() for _o, c in band for x in c)
        assert all(type(x) is int for M in model.matrices() for row in M for x in row)


# --- pinned constructions ---------------------------------------------------

# sha256 prefixes of the canonical form_to_json of construct_case at the
# benchmark's shapes (all ten cases), and at variants whose Poincare
# chains meet large denominators, recorded before the Scalar ring and
# matrix powers moved to normalized tuples and integer powers
PINNED_CONSTRUCTIONS = [
    ("Ia", -2, 2, {}, "e3362873d920d4a6"),
    ("Ia", -3, 6, {}, "8238453a3da5c1fe"),
    ("Ia", -4, 4, {}, "7d04f4f640e98709"),
    ("Ib", -1, 4, {}, "608b664abcf0fb06"),
    ("Ib", -3, 6, {}, "b97f16fe609871bf"),
    ("Ic", -1, 8, {}, "46f982a288bdd009"),
    ("Ic", -3, 4, {}, "c71ed6f21f326564"),
    ("Id", -1, 3, {}, "a6dd781d017bdab2"),
    ("Id", -3, 8, {}, "0baa70d3ba444694"),
    ("IIa", 1, 1, {}, "13fee92ed12c80c6"),
    ("IIa", 1, 7, {}, "982cb94a1f039ad1"),
    ("IIb", 1, 3, {}, "4450796c0f14f150"),
    ("IIb", 1, 8, {}, "6b118c470f4d2a55"),
    ("IIIa", 2, 5, {}, "7b12612c3b4d23a9"),
    ("IIIa", 3, 2, {}, "f97b9c707af050aa"),
    ("IIIb", 3, 9, {}, "e67d9b2bce121fa3"),
    ("IIIb", 4, 8, {}, "0fabd5d17371bd02"),
    ("IIIb", 8, 1, {}, "62a2a042f093797e"),
    ("IIIc", 2, 6, {}, "c64767e1203f34bd"),
    ("IIIc", 3, 3, {}, "b222f4f0b443a1dd"),
    ("IIId", 2, 8, {}, "6c36a60f0582bb86"),
    ("IIId", 4, 4, {}, "fb6ab6d8aed0a23a"),
    ("Ic", -1, 8, {"index": -16384}, "e513916c80a8b557"),
    ("IIIc", 2, 6, {"index": -32768}, "7dd64f73acf73142"),
    ("Ib", -3, 6, {"index": -15}, "9f0000d32591c1ac"),
    ("Ia", -3, 6, {"family": "poincare", "index": -15}, "226244663220615b"),
    ("IIb", 1, 8, {"disc": 47}, "7e63b9d448bb0c5c"),
]


@pytest.mark.parametrize("case,k,d,kwargs,digest", PINNED_CONSTRUCTIONS,
                         ids=["%s/k=%d/d=%d%s" % (c, k, d, "".join("/%s=%s" % kv for kv in kw.items()))
                              for c, k, d, kw, _h in PINNED_CONSTRUCTIONS])
def test_construct_case_output_is_pinned(case, k, d, kwargs, digest):
    data = form_to_json(construct_case(case, k, d, **kwargs))
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# sha256 prefixes of the canonical to_json of solve_wd at m = 16, d = 8
# (a block of n(d+1) = 153, far past the sizes the oracle checks), on both
# branches, recorded while each layer was still solved through an
# [A | I] inverse
PINNED_SOLUTIONS = [
    (-3, "L", "324f48980b5e188b"),
    (0, "L", "25a8175056cadb09"),
    (19, "L", "420c92e7e9e959c5"),
    (2, "R", "97660e4198d7ccee"),
    (5, "R", "e868a37d531a2c60"),
    (-20, "R", "b7af6abf5751eb54"),
]


@pytest.mark.parametrize("k,branch,digest", PINNED_SOLUTIONS,
                         ids=["%s/k=%d" % (b, k) for k, b, _h in PINNED_SOLUTIONS])
def test_solve_wd_output_is_pinned(k, branch, digest):
    text = json.dumps(solve_wd(k, 16, branch, 8).to_json(), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
