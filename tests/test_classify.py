import hashlib
import warnings
from fractions import Fraction
from math import gcd

import pytest

from polymaass.classify import (BK_TO_REPR, CaseLabel, WeightContext, _laplace_tower,
                                _level_form, classify_bk, exact_depth,
                                expected_dimension_vector)
from polymaass.scalars import ZERO, Scalar
from polymaass.specsolve import construct_case, delta_matrix_on_span, delta_preimage_on_span
from polymaass.symcalc import (CONST_ATOM, DEFAULT_POLES, EISENSTEIN, POINCARE, DomainError,
                               Family, Form, PolePointWarning, PolyAtom, SpectralAtom,
                               apply_laplace, apply_lowering, apply_raising, atom_E, atom_P,
                               expand_pending, form_of, forms_equal, laplace_closure,
                               make_e_atom, pole_table, using_poles, zero_form)


def test_weight_context():
    assert WeightContext(-3).l == 4 and WeightContext(-3).gamma == 15
    assert WeightContext(1).l == 0 and WeightContext(1).gamma == -1
    assert WeightContext(4).l == 3 and WeightContext(4).gamma == 8
    for k in range(-5, 6):
        ctx = WeightContext(k)
        assert ctx.gamma == ctx.l ** 2 - 1


def test_translation_table_bijection():
    assert len(BK_TO_REPR) == 10
    assert len(set(BK_TO_REPR.values())) == 10
    assert BK_TO_REPR["Ib"] == "GIc" and BK_TO_REPR["Id"] == "GIb"


def test_repr_labels_match_reference_table():
    # BK_TO_REPR as it was written by hand before it was derived from
    # BK_TO_MODULE, verbatim
    assert BK_TO_REPR == {
        "Ia": "GIa", "Ib": "GIc", "Ic": "GId", "Id": "GIb",
        "IIa": "CIa", "IIb": "CIb",
        "IIIa": "GIIa", "IIIb": "GIIb", "IIIc": "GIIc", "IIId": "GIId",
    }


def test_exact_depth_examples():
    assert exact_depth(make_e_atom(4, 4)) == 0   # e_{m,0} is harmonic
    assert exact_depth(construct_case("Ia", -3, 2)) == 2
    assert exact_depth(zero_form(-2)) == 0


@pytest.mark.parametrize("weight,point", [(4, -1), (0, 2)])
def test_eigenform_off_the_harmonic_points_is_not_polyharmonic(weight, point):
    # a nonzero Laplace eigenvalue: Delta^n f is a nonzero multiple of f
    # for every n, and its Delta-closure is the atom itself
    f = form_of(PolyAtom(0, 0), atom_E(weight, point))
    with pytest.raises(DomainError, match="not polyharmonic$"):
        exact_depth(f)
    with pytest.raises(DomainError, match="not polyharmonic$"):
        classify_bk(f)


@pytest.mark.parametrize("label,k,d", [
    (label, k, d) for label, k in (("Ia", -1), ("Id", -1), ("IIb", 1))
    for d in (17, 20)])
def test_deep_constructions_classify_at_their_depth(label, k, d):
    # depths past any fixed search bound: the Delta-closure bounds the tower
    f = construct_case(label, k, d)
    assert exact_depth(f) == d
    lab = classify_bk(f)
    assert (lab.bk, lab.depth, lab.context.k) == (label, d, k)


def test_classify_reference_examples():
    lab = classify_bk(construct_case("Ia", -3, 2))
    assert (lab.bk, lab.repr_label, lab.depth) == ("Ia", "GIa", 2)
    lab = classify_bk(form_of(PolyAtom(0, 0), atom_E(2, 0)))   # E_2
    assert (lab.bk, lab.repr_label, lab.depth) == ("IIIb", "GIIb", 0)
    lab = classify_bk(construct_case("IIIa", 4, 0))
    assert (lab.bk, lab.repr_label) == ("IIIa", "GIIa")


CASE_GRID = (
    [("Ia", k, d) for k in range(-4, 1) for d in range(3)]
    + [("Ib", k, d) for k in range(-4, 1) for d in range(3)]
    + [("Ic", k, d) for k in range(-4, 1) for d in range(3)]
    + [("Id", k, d) for k in range(-4, 1) for d in range(3)]
    + [("IIa", 1, d) for d in range(3)]
    + [("IIb", 1, d) for d in range(3)]
    + [(lbl, k, d) for lbl in ("IIIa", "IIIb", "IIIc") for k in range(2, 6)
       for d in range(3)]
    + [("IIId", k, d) for k in range(2, 6) for d in (1, 2)]
)


@pytest.mark.parametrize("label,k,d", CASE_GRID[::5])
def test_round_trip_sample(label, k, d):
    lab = classify_bk(construct_case(label, k, d))
    assert lab.bk == label and lab.depth == d and lab.context.k == k


@pytest.mark.parametrize("label,k,d", [
    (label, k, d) for label, k in (("Ia", -2), ("Ib", -2), ("Ic", -2), ("Id", -2),
                                   ("IIa", 1), ("IIb", 1), ("IIIa", 3), ("IIIb", 3),
                                   ("IIIc", 3), ("IIId", 3))
    for d in range(1 if label == "IIId" else 0, 4)])
def test_classification_reads_the_expanded_form(label, k, d):
    # case forms hold pending atoms; classify_bk expands them once, and the
    # Delta-closure of expanded atoms holds no pending atom
    f = construct_case(label, k, d)
    g = expand_pending(f)
    assert classify_bk(f) == classify_bk(g) == CaseLabel(label, d, WeightContext(k))
    images = laplace_closure(key for key, _c in g.terms)
    assert all(a.pending is None for (_e, a) in images)
    assert all(a.pending is None for img in images.values() for (_e, a), _c in img.terms)


@pytest.mark.parametrize("label,k,d,index", [
    (label, k, d, index)
    for label, ks in (("Ic", (-1, -2, -3)), ("IIIc", (2, 3)))
    for k in ks for d in (1, 2) for index in (-3, -5, -6, -7)])
def test_flip_cases_at_non_power_of_two_index(label, k, d, index):
    # the Poincare mirror constant (4|n|)^{-w} must stay exact for every n
    lab = classify_bk(construct_case(label, k, d, index=index))
    assert lab.bk == label and lab.depth == d and lab.context.k == k


def test_iiid_rejected_at_depth_zero():
    with pytest.raises(DomainError):
        construct_case("IIId", 5, 0)
    with pytest.raises(DomainError):
        CaseLabel("IIId", 0, WeightContext(5))


def test_label_weight_compatibility():
    with pytest.raises(DomainError):
        construct_case("Ia", 1, 0)
    with pytest.raises(DomainError):
        construct_case("IIa", 0, 0)
    with pytest.raises(DomainError):
        construct_case("IIIb", 1, 0)


def test_expected_dimension_vectors():
    assert expected_dimension_vector(CaseLabel("Ia", 2, WeightContext(-3))) == (2, 3, 2)
    assert expected_dimension_vector(CaseLabel("IIa", 0, WeightContext(1))) == (0, 1)
    assert expected_dimension_vector(CaseLabel("IIIb", 1, WeightContext(4))) == (1, 2, 2)
    with pytest.raises(DomainError):
        expected_dimension_vector(CaseLabel("IIId", 0, WeightContext(4)))


def _reference_dimension_vector(repr_label, d):
    """The hand-written table expected_dimension_vector used before it read
    the quiver module's interval table, verbatim."""
    table3 = {
        "GIa": (d, d + 1, d),
        "GIb": (d + 1, d + 1, d + 1),
        "GIc": (d, d + 1, d + 1),
        "GId": (d + 1, d + 1, d),
        "GIIa": (d, d, d + 1),
        "GIIb": (d, d + 1, d + 1),
        "GIIc": (d + 1, d + 1, d + 1),
        "GIId": (d - 1, d, d + 1),
    }
    if repr_label == "CIa":
        return (d, d + 1)
    if repr_label == "CIb":
        return (d + 1, d + 1)
    return table3[repr_label]


@pytest.mark.parametrize("bk", sorted(BK_TO_REPR))
def test_expected_dimension_vectors_match_reference_table(bk):
    for d in range(1 if bk == "IIId" else 0, 13):
        label = CaseLabel(bk, d, WeightContext(-2))
        assert expected_dimension_vector(label) == \
            _reference_dimension_vector(BK_TO_REPR[bk], d)


def test_label_json():
    data = classify_bk(construct_case("IIIb", 4, 1)).to_json()
    assert data == {"bk": "IIIb", "repr": "GIIb", "depth": 1, "k": 4, "l": 3,
                    "gamma": 8}


def test_implication_chain_for_large_weights():
    # for k > 1: L^k Delta^{d-1} f = 0  ==>  L Delta^d f = 0  ==>  L^k Delta^d f = 0
    from polymaass.symcalc import apply_laplace, apply_power, is_zero

    def chain_holds(f, k, d):
        def dpow(g, j):
            for _ in range(j):
                g = apply_laplace(g)
            return g
        t1 = is_zero(apply_power(dpow(f, d - 1), "L", k)) if d >= 1 else None
        t2 = is_zero(apply_power(dpow(f, d), "L", 1))
        t3 = is_zero(apply_power(dpow(f, d), "L", k))
        if t1:
            assert t2
        if t2:
            assert t3
    for label in ("IIIa", "IIIb", "IIIc", "IIId"):
        for k in (2, 3, 4):
            for d in (1, 2):
                chain_holds(construct_case(label, k, d), k, d)


@pytest.mark.parametrize("label,k,d", [
    ("Ia", -2, 3), ("Id", -1, 2), ("IIIa", 3, 2), ("IIId", 4, 2), ("IIb", 1, 2)])
def test_tower_matches_iterated_laplace(label, k, d):
    # the tower runs on the expanded form, where zero means no terms
    f = expand_pending(construct_case(label, k, d))
    images = laplace_closure(key for key, _c in f.terms)
    assert list(images)[:len(f.terms)] == [key for key, _c in f.terms]
    for key, img in images.items():
        assert img == -apply_raising(apply_lowering(form_of(*key)))
        assert all(key2 in images for key2, _c in img.terms)
    pool, levels = _laplace_tower(f)
    assert len(levels) == d + 1
    g = f
    for level in levels:
        assert _level_form(pool, k, level) == g
        g = apply_laplace(g)
    assert g.is_empty() and forms_equal(g, zero_form(k))


def _reference_tower(f):
    """The Scalar-arithmetic body of _laplace_tower before the tower ran in
    integers, verbatim: [f, Delta f, ..., Delta^d f]."""
    image = laplace_closure(key for key, _c in f.terms)
    tower = [f]
    steps = max(len(image), 1)
    for _ in range(steps):
        acc = {}
        for key, c in tower[-1].terms:
            for key2, c2 in image[key].terms:
                acc[key2] = acc.get(key2, ZERO) + c * c2
        g = Form._make(f.weight, acc)
        if g.is_empty():
            return tower
        tower.append(g)
    raise DomainError("form is not annihilated by Delta^%d, the size of its "
                      "Delta-closure; not polyharmonic" % steps)


def _assert_tower_matches_reference(f):
    """The integer tower of an expanded f has the reference's level count,
    levels in lowest terms that rebuild to the reference's levels, and the
    reference's error."""
    try:
        want = _reference_tower(f)
    except DomainError as ex:
        with pytest.raises(DomainError) as got:
            _laplace_tower(f)
        assert str(got.value) == str(ex)
        return None
    pool, levels = _laplace_tower(f)
    assert len(levels) == len(want)
    for level, form in zip(levels, want):
        vec, den = level
        assert den > 0 and 0 not in vec.values() and gcd(den, *vec.values()) == 1
        assert _level_form(pool, f.weight, level) == form
    return len(levels) - 1


# (case, k, deepest d) of the benchmark's case forms
BENCH_SHAPES = (("Ia", -2, 2), ("Ia", -3, 6), ("Ia", -4, 4), ("Ib", -1, 4), ("Ib", -3, 6),
                ("Ic", -1, 8), ("Ic", -3, 4), ("Id", -1, 3), ("Id", -3, 8), ("IIa", 1, 7),
                ("IIb", 1, 8), ("IIIa", 2, 5), ("IIIa", 3, 2), ("IIIb", 3, 9), ("IIIb", 4, 8),
                ("IIIb", 5, 5), ("IIIb", 6, 3), ("IIIb", 7, 2), ("IIIb", 8, 1), ("IIIc", 2, 6),
                ("IIIc", 3, 3), ("IIId", 2, 8), ("IIId", 4, 4))


@pytest.mark.parametrize("label,k,depth", BENCH_SHAPES)
def test_integer_tower_matches_reference_on_case_forms(label, k, depth):
    for d in range(1 if label == "IIId" else 0, depth + 1):
        f = expand_pending(construct_case(label, k, d))
        assert _assert_tower_matches_reference(f) == d


@pytest.mark.parametrize("coeff", [Scalar({0: 1, 1: 1}), Scalar({-2: Fraction(1, 3), 1: -7}),
                                   Scalar.pi_power(5, Fraction(-4, 9))],
                         ids=["1+pi", "pi^-2/3-7pi", "pi^5"])
@pytest.mark.parametrize("label,k,d", [("Ia", -2, 3), ("Ib", -1, 2), ("Id", -3, 2),
                                       ("IIb", 1, 3), ("IIIb", 3, 2), ("IIId", 2, 3)])
def test_integer_tower_matches_reference_on_pi_combinations(label, k, d, coeff):
    f = expand_pending(construct_case(label, k, d))
    assert _assert_tower_matches_reference(f * coeff) == d
    # two terms per coefficient, mixed with a lower level at another pi power
    g = f * coeff + apply_laplace(f) * Scalar.pi_power(-1)
    assert _assert_tower_matches_reference(g) == d
    lab = classify_bk(f * coeff)
    assert (lab.bk, lab.depth) == (label, d)


@pytest.mark.parametrize("weight,point", [(4, -1), (0, 2)])
def test_integer_tower_matches_reference_off_the_harmonic_points(weight, point):
    f = form_of(PolyAtom(0, 0), atom_E(weight, point))
    assert _assert_tower_matches_reference(f) is None
    assert _assert_tower_matches_reference(f * Scalar({0: 1, 1: 1})) is None


ONE_PLUS_PI = Scalar({0: 1, 1: 1})


@pytest.mark.parametrize("label,k,d", [("IIIb", 3, 2), ("IIIb", 2, 3), ("IIIa", 2, 2),
                                       ("Ib", 0, 2), ("IIId", 2, 2)])
def test_integer_tower_matches_reference_under_a_one_plus_pi_residue(label, k, d):
    # the default pole (E, 0, 1), and the Ib chain's (P[-1], 0, 1), with the
    # residue (1 + pi) times the constant function
    table = pole_table({(Family(EISENSTEIN), 0, Fraction(1)):
                        form_of(PolyAtom(0, 0), CONST_ATOM, ONE_PLUS_PI),
                        (P1, 0, Fraction(1)): form_of(PolyAtom(0, 0), CONST_ATOM, ONE_PLUS_PI)})
    f = construct_case(label, k, d)
    with warnings.catch_warnings(), using_poles(table):
        warnings.simplefilter("ignore", PolePointWarning)
        g = expand_pending(f)
        # Delta meets the residue on the Poincare chains; on the Eisenstein
        # forms the residue's R image is zero
        seeds = [key for key, _c in g.terms]
        assert _has_two_term_coefficient(seeds) == (label in ("Ib", "IIId"))
        assert _assert_tower_matches_reference(g) == d
        assert _assert_tower_matches_reference(g * ONE_PLUS_PI) == d


def _poincare_chain_seeds(k, d, index):
    # the target and seed atoms of specsolve.poincare_weakly_holomorphic_chain
    m = 2 - k
    fam = Family(POINCARE, index=index)
    target = [(PolyAtom(m, m), SpectralAtom(fam, 2, Fraction(1), 0))]
    return target + [(PolyAtom(m, r), SpectralAtom(fam, 2 - 2 * (m - r), Fraction(1), t))
                     for r in range(m + 1) for t in range(d + 1)]


# sha256 prefixes of repr((pool, M, scales)), recorded while the closure
# loop still lived inside delta_matrix_on_span and the scales were the
# Scalars pi^{p_i}; the exponents p_i are mapped back to those Scalars
SPAN_DIGESTS = {
    (0, 1, -1): "af2af212898f6cb6",
    (0, 1, -3): "2414128702e45752",
    (0, 3, -1): "4d5efda4b343bf50",
    (0, 3, -3): "f35018194f2e2dce",
    (-1, 1, -1): "49f997b60f033732",
    (-1, 1, -3): "59cdd7263a316f79",
    (-1, 3, -1): "a2b8c96cf7abdcc2",
    (-1, 3, -3): "72053b27da369ced",
    (-3, 1, -1): "7041ef9603a115a2",
    (-3, 1, -3): "8eac7d775b7c574b",
    (-3, 3, -1): "043f1e80dd3268a6",
    (-3, 3, -3): "c31c8df551164d93",
}


@pytest.mark.parametrize("k,d,index", sorted(SPAN_DIGESTS))
def test_delta_matrix_on_span_unchanged_for_poincare_chain_seeds(k, d, index):
    pool, M, exps = delta_matrix_on_span(_poincare_chain_seeds(k, d, index))
    assert all(type(e) is int for e in exps)
    out = (pool, M.to_dense(), [Scalar.pi_power(e) for e in exps])
    assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == SPAN_DIGESTS[(k, d, index)]


P1 = Family(POINCARE, index=-1)


def _poles_at_p1(atom, coeff):
    # a residue for (P[-1], 0, 1), which L steps the chain's P_{2,1}^(0) to
    return pole_table({(P1, 0, Fraction(1)): form_of(PolyAtom(0, 0), atom, coeff)})


def _has_two_term_coefficient(seeds):
    return any(len(c.terms) > 1 for img in laplace_closure(seeds).values()
               for _key, c in img.terms)


@pytest.mark.parametrize("atom,coeff,two_term", [
    # 1 + pi on P_{0,1} puts two pi powers into one matrix entry
    (atom_P(0, -1, 1), Scalar({0: 1, 1: 1}), True),
    # every entry of pi P^(2)_{0,1} is a pi monomial, but two paths to that
    # atom ask for different exponents
    (atom_P(0, -1, 1, 2), Scalar.pi_power(1), False),
], ids=["two-term", "conflicting-power"])
def test_span_that_is_not_pi_graded_is_rejected(atom, coeff, two_term):
    seeds = _poincare_chain_seeds(0, 1, -1)
    with warnings.catch_warnings(), using_poles(_poles_at_p1(atom, coeff)):
        warnings.simplefilter("ignore", PolePointWarning)
        assert _has_two_term_coefficient(seeds) == two_term
        with pytest.raises(DomainError, match="^span is not pi-graded$"):
            delta_matrix_on_span(seeds)
        with pytest.raises(DomainError, match="^span is not pi-graded$"):
            construct_case("Ib", 0, 1)
    # a rational residue keeps the span graded
    with warnings.catch_warnings(), using_poles(_poles_at_p1(atom, Scalar.pi_power(0))):
        warnings.simplefilter("ignore", PolePointWarning)
        delta_matrix_on_span(seeds)


@pytest.mark.parametrize("coeff", [Scalar({0: 1, 1: 1}), Scalar.pi_power(1)],
                         ids=["two-term", "other-power"])
def test_target_outside_the_scaled_span_is_rejected(coeff):
    # the chain's target e_{2,0} (x) P_{2,1}^(0) sits at pi^0 in its span
    target, *seeds = _poincare_chain_seeds(0, 1, -1)
    with pytest.raises(DomainError, match="^target does not live in the scaled span$"):
        delta_preimage_on_span(form_of(*target, coeff), seeds, 1)
    assert delta_preimage_on_span(form_of(*target), seeds, 1) == construct_case("Ib", 0, 1)


# every case at d <= 3, the flip cases also at Poincare indices -3 and -5
CLOSURE_CASES = [
    (label, k, d, index)
    for label, k in (("Ia", -2), ("Ib", -2), ("Ic", -2), ("Id", -2), ("IIa", 1), ("IIb", 1),
                     ("IIIa", 3), ("IIIb", 3), ("IIIc", 3), ("IIId", 3))
    for d in range(1 if label == "IIId" else 0, 4)
    for index in ((-1, -3, -5) if label in ("Ic", "IIIc") else (-1,))]
POLE_TABLES = {"default": DEFAULT_POLES, "empty": pole_table({})}


def _assert_oracle_term_order(seeds, poles):
    """Each image of the closure of the seeds holds its terms in the order
    -R(L(.)) adds them; that order fixes the closure's basis order."""
    with warnings.catch_warnings(), using_poles(POLE_TABLES[poles]):
        warnings.simplefilter("ignore", PolePointWarning)
        images = laplace_closure(seeds)
        oracle = {key: -apply_raising(apply_lowering(form_of(*key))) for key in images}
    for key, img in images.items():
        assert list(img.terms) == list(oracle[key].terms), key


@pytest.mark.parametrize("poles", sorted(POLE_TABLES))
@pytest.mark.parametrize("label,k,d,index", CLOSURE_CASES)
def test_closure_of_a_case_keeps_the_oracle_term_order(label, k, d, index, poles):
    f = construct_case(label, k, d, index=index)
    for g in (f, expand_pending(f)):
        _assert_oracle_term_order([key for key, _c in g.terms], poles)


@pytest.mark.parametrize("poles", sorted(POLE_TABLES))
@pytest.mark.parametrize("k,d,index", sorted(SPAN_DIGESTS))
def test_closure_of_poincare_chain_seeds_keeps_the_oracle_term_order(k, d, index, poles):
    _assert_oracle_term_order(_poincare_chain_seeds(k, d, index), poles)


@pytest.mark.parametrize("poles", sorted(POLE_TABLES))
@pytest.mark.parametrize("pending", [("L", 1), ("L", 2), ("R", 1)])
def test_closure_of_a_pending_key_keeps_the_oracle_term_order(pending, poles):
    atom = SpectralAtom(Family(EISENSTEIN), 2, Fraction(0), 1, pending)
    _assert_oracle_term_order([(PolyAtom(2, 1), atom)], poles)


def test_classify_still_warns_at_pole_points():
    # two distinct L steps of the Delta-closure and one step of the
    # lowering test land on the tabled pole (E, 0, 1)
    f = construct_case("IIIb", 3, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert classify_bk(f) == CaseLabel("IIIb", 2, WeightContext(3))
    assert [c.category for c in caught] == [PolePointWarning] * 3


def test_closure_warns_once_per_distinct_spectral_step():
    # three keys share one atom, whose L step lands on the tabled pole
    seeds = [(PolyAtom(2, r), atom_E(2, 0, 1)) for r in range(3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        laplace_closure(seeds)
    assert [c.category for c in caught] == [PolePointWarning]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for key in seeds:
            apply_laplace(form_of(*key))
    assert [c.category for c in caught] == [PolePointWarning] * 3
