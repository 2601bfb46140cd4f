import hashlib
import warnings
from fractions import Fraction
from math import factorial, gcd

import pytest

from polymaass import BK_CASES, classify, specsolve, symcalc
from polymaass.classify import (BK_TO_REPR, CaseLabel, WeightContext, _laplace_tower,
                                classify_bk, exact_depth, expected_dimension_vector)
from polymaass.linalg import IntMat
from polymaass.scalars import ZERO, Scalar
from polymaass.specsolve import _dense, _poincare_blocks, construct_case, delta_matrix_on_span
from polymaass.symcalc import (CONST_ATOM, DEFAULT_POLES, E00, EISENSTEIN, POINCARE,
                               DomainError, Family, Form, PolePointWarning, PolyAtom,
                               SpectralAtom, _apply, _laplace_rows, apply_laplace,
                               apply_lowering, apply_power, apply_raising, atom_E, atom_P,
                               expand_pending, form_from_json, form_of, form_to_json,
                               forms_equal, make_e_atom, pole_table, using_poles, zero_form)


def laplace_closure(seeds):
    """The Form view of _laplace_rows: Delta of each key of the closure of
    the seed keys, keyed in breadth-first order from the seeds."""
    pool, rows, den = _laplace_rows(seeds)
    images = {}
    for (e, a), row in zip(pool, rows):
        terms = {}
        for j, s, x in row:
            terms[pool[j]] = terms.get(pool[j], ZERO) + Scalar.pi_power(s, Fraction(x, den))
        images[e, a] = Form._make(e.weight + a.effective_weight, terms)
    return images


def level_form(pool, weight, level):
    """The Form of a level (vec, den) of the tower over the key pool: the
    level's triples through _apply at power 0."""
    vec, den = level
    return _apply(((pool[i], e, Fraction(x, den)) for (i, e), x in sorted(vec.items())),
                  weight, "L", power=0)


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


def test_case_label_refuses_an_unknown_bk_label():
    with pytest.raises(DomainError) as ex:
        CaseLabel("XX", 0, WeightContext(0))
    assert str(ex.value) == "unknown BK label 'XX'"


def test_label_weight_compatibility():
    with pytest.raises(DomainError):
        construct_case("Ia", 1, 0)
    with pytest.raises(DomainError):
        construct_case("IIa", 0, 0)
    with pytest.raises(DomainError):
        construct_case("IIIb", 1, 0)


ANCHORED = ("Ia", "Id", "IIIa")   # Eisenstein or Poincare anchor
CASE_WEIGHT = {"I": -2, "II": 1, "III": 3}


@pytest.mark.parametrize("label", BK_CASES)
def test_construct_case_refuses_a_family_it_cannot_honour(label):
    k = CASE_WEIGHT[label.rstrip("abcd")]
    default = construct_case(label, k, 1)
    for family in ("eisenstein", "poincare"):
        if label in ANCHORED:
            construct_case(label, k, 1, family=family)
        else:
            with pytest.raises(DomainError) as ex:
                construct_case(label, k, 1, family=family)
            assert str(ex.value) == "case %s has one anchor and takes no family" % label
    for family in ("bogus", "Poincare", "", 0):
        with pytest.raises(DomainError) as ex:
            construct_case(label, k, 1, family=family)
        assert str(ex.value) == "unknown family %r" % (family,)
    assert forms_equal(construct_case(label, k, 1, family=None), default)


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
        assert level_form(pool, k, level) == g
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
        assert level_form(pool, f.weight, level) == form
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
    # the target and seed atoms of the Ib chain's span (specsolve._poincare_case)
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
POLE_TABLES = {"default": DEFAULT_POLES, "empty": pole_table({})}


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
    # a rational residue keeps the span graded, but breaks its W_d shape: the
    # preimage takes the general path, to the general answer
    with warnings.catch_warnings(), using_poles(_poles_at_p1(atom, Scalar.pi_power(0))):
        warnings.simplefilter("ignore", PolePointWarning)
        want = _general_preimage(form_of(*seeds[0]), seeds[1:], 1)
        calls, power = [], IntMat.power
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IntMat, "power", lambda self, e: calls.append(e) or power(self, e))
            assert construct_case("Ib", 0, 1) == want
        assert calls == [1]


def test_target_without_a_preimage_in_the_span_is_rejected():
    # a residue P^(1)_{2,1} at the top's own column (P[-1], 2, 1) leaves the
    # Ib chain's span with no Delta-preimage of its top
    table = pole_table({(P1, 2, Fraction(1)): form_of(E00, atom_P(2, -1, 1, 1))})
    with warnings.catch_warnings(), using_poles(table):
        warnings.simplefilter("ignore", PolePointWarning)
        with pytest.raises(DomainError) as err:
            construct_case("Ib", 0, 1)
    assert str(err.value) == "no Delta^1 preimage in the span"


def _general_preimage(target, seeds, d):
    """Delta^d g = target in the Delta-stable span of the seeds by the
    general path: M^d through IntMat.power, then IntMat.solve with the free
    variables zero; None when there is no preimage.  The target lives in the
    scaled span."""
    pool, M, exps = delta_matrix_on_span([key for key, _c in target.terms] + list(seeds))
    index = {key: i for i, key in enumerate(pool)}
    b = [Fraction(0)] * len(pool)
    for key, c in target.terms:
        b[index[key]] = c.terms[0][1]
    x = M.power(d).solve(b)
    return None if x is None else Form(target.weight, {
        pool[i]: Scalar.pi_power(exps[i], q) for i, q in enumerate(x) if q})


@pytest.fixture
def power_calls(monkeypatch):
    """The exponents of every IntMat.power call, as they are made."""
    calls, power = [], IntMat.power
    monkeypatch.setattr(IntMat, "power", lambda self, e: calls.append(e) or power(self, e))
    return calls


@pytest.mark.parametrize("d", range(9))
@pytest.mark.parametrize("k", [0, -1, -2, -3, -4])
def test_span_solve_in_the_wd_shape_matches_the_general_path(k, d, power_calls):
    # E = m + 1 = 7 (k = -4) and the indices that are not powers of two are
    # shapes no benchmark job reaches; the chain forms no M^d, also at d = 0
    for index in (-1, -2, -3, -5, -6, -12, -16):
        target, *seeds = _poincare_chain_seeds(k, d, index)
        got = construct_case("Ib", k, d, index=index)
        assert power_calls == []
        assert list(got.terms) == list(_general_preimage(form_of(*target), seeds, d).terms)
        power_calls.clear()


@pytest.mark.parametrize("poles", sorted(POLE_TABLES))
@pytest.mark.parametrize("k", range(0, -13, -1))
def test_poincare_blocks_are_delta_on_the_chain_span(k, poles):
    # Lambda from the closed-form blocks, scaled back from the atoms
    # (4 |n|)^{r-m} e_{m,r} (x) F^(t)/t!, is the closure's matrix in pool
    # order: the top atom, then r-major with t <= d; atom (r, t) at pi^{r-m}
    m = 2 - k
    blocks = [_dense(band, m + 1) for band in _poincare_blocks(m)]
    with using_poles(POLE_TABLES[poles]):
        for index in (-1, -2, -3, -5, -12, -16):
            for d in ((2, 3, 5) if k >= -8 else (2,)):
                pool, M, exps = delta_matrix_on_span(_poincare_chain_seeds(k, d, index))
                grid = [(e.r, a.laurent) for e, a in pool]
                assert grid == [(m, 0)] + [(r, t) for r in range(m + 1) for t in range(d + 1)
                                           if (r, t) != (m, 0)]
                assert exps == [r - m for r, _t in grid]
                scale = [Fraction(4 * abs(index)) ** (r - m) / factorial(t) for r, t in grid]
                assert M.to_dense() == [
                    [blocks[ti - tj][rj][ri] * scale[j] / scale[i] if 0 <= ti - tj <= 2 else 0
                     for i, (ri, ti) in enumerate(grid)] for j, (rj, tj) in enumerate(grid)]


def _chain_pole(w, index=-1):
    # a rational residue at (P[index], w, 1), of its own family at order 0
    fam = Family(POINCARE, index=index)
    return pole_table({(fam, w, Fraction(1)): form_of(E00, atom_P(w, index, 1), Fraction(3, 7))})


@pytest.mark.parametrize("w", [-6, 0, 2])
def test_a_pole_on_the_chain_span_takes_the_general_path(w, power_calls):
    # the k = -1 chain (m = 3) visits the columns (P[-1], w, 1), w = -6..2
    target, *seeds = _poincare_chain_seeds(-1, 2, -1)
    with warnings.catch_warnings(), using_poles(_chain_pole(w)):
        warnings.simplefilter("ignore", PolePointWarning)
        want = _general_preimage(form_of(*target), seeds, 2)
        power_calls.clear()
        assert list(construct_case("Ib", -1, 2).terms) == list(want.terms)
    assert power_calls == [2]


@pytest.mark.parametrize("w,index", [(4, -1), (0, -2), (-6, -3)])
def test_a_pole_off_the_chain_span_keeps_the_structured_path(w, index, power_calls):
    want = construct_case("Ib", -1, 2)
    with using_poles(_chain_pole(w, index)):
        assert construct_case("Ib", -1, 2) == want
    assert power_calls == []


@pytest.mark.parametrize("d,message", [(-1, "depth must be nonnegative"),
                                       (True, "d must be an int, not True"),
                                       (1.0, "d must be an int, not 1.0")])
def test_span_solvers_check_the_depth(d, message):
    with pytest.raises(DomainError, match="^%s$" % message):
        construct_case("Ib", 0, d)


@pytest.mark.parametrize("k,d", [(0, 1), (-1, 3), (-3, 4)])
def test_span_in_the_wd_shape_without_a_preimage_is_rejected(k, d, power_calls):
    # with Laurent orders below d the grid holds no preimage of its chain
    # target, which the general path finds by one M^d
    target, *seeds = _poincare_chain_seeds(k, d - 1, -1)
    assert _general_preimage(form_of(*target), seeds, d) is None
    assert power_calls == [d]


def test_span_target_above_layer_zero_takes_the_general_path(power_calls):
    # e_{2,0} (x) P^(1)_{-2,1} sits in layer t = 1 of the k = 0 chain's grid;
    # the operator calculus takes the span's answer back to it
    _target, *seeds = _poincare_chain_seeds(0, 2, -1)
    upper = seeds[1]
    assert upper[1].laurent == 1
    f = form_of(*upper)
    assert apply_laplace(_general_preimage(f, seeds, 1)) == f
    assert power_calls == [1]


def test_span_with_a_partial_top_layer_takes_the_general_path(power_calls):
    # the k = -1 grid up to t = 1 and e_{3,0} (x) P^(2): the closure adds
    # r = 1 at t = 2 and no more, so the top layer is r = 0, 1 of E = 4
    target, *seeds = _poincare_chain_seeds(-1, 1, -1)
    seeds.append((seeds[0][0], SpectralAtom(seeds[0][1].family, -4, Fraction(1), 2)))
    pool, _M, _exps = delta_matrix_on_span([target] + seeds)
    assert sorted((e.r, a.laurent) for e, a in pool if a.laurent == 2) == [(0, 2), (1, 2)]
    f = form_of(*target)
    assert apply_laplace(_general_preimage(f, seeds, 1)) == f
    assert power_calls == [1]


def test_zero_target_has_the_zero_preimage(power_calls):
    # an empty span, and a zero target on a Poincare chain's span
    assert _general_preimage(zero_form(0), [], 1).is_empty()
    assert power_calls == [1]
    target, *seeds = _poincare_chain_seeds(-1, 3, -2)
    zero = zero_form(form_of(*target).weight)
    assert _general_preimage(zero, [target] + seeds, 3).is_empty()
    assert power_calls == [1, 3]


def test_ib_chain_forms_no_matrix_power(monkeypatch):
    def refuse(self, e):
        raise AssertionError("IntMat.power called")
    target, *seeds = _poincare_chain_seeds(-3, 6, -1)
    want = _general_preimage(form_of(*target), seeds, 6)
    monkeypatch.setattr(IntMat, "power", refuse)
    assert list(construct_case("Ib", -3, 6).terms) == list(want.terms)


def test_span_self_check_refuses_a_wrong_answer(monkeypatch):
    # a wrong S^2 block entry of Lambda^d leads the structured solve to a
    # vector that d passes of the blocks do not take to the target
    from polymaass import specsolve
    power_rows = specsolve._power_rows

    def wrong(blocks, d):
        rows = power_rows(blocks, d)
        rows[2][2 * len(rows) + 2] += 1
        return rows
    monkeypatch.setattr(specsolve, "_power_rows", wrong)
    with pytest.raises(AssertionError, match="^span preimage fails Delta\\^d x = target$"):
        construct_case("Ib", -1, 3)


def test_span_self_check_refuses_a_span_with_no_preimage(monkeypatch):
    # with every row of Lambda^d zero, no span vector is taken to the top
    from polymaass import specsolve
    power_rows = specsolve._power_rows
    monkeypatch.setattr(specsolve, "_power_rows",
                        lambda blocks, d: [[0] * len(row) for row in power_rows(blocks, d)])
    with pytest.raises(AssertionError) as ex:
        construct_case("Ib", -1, 3)
    assert str(ex.value) == "span holds no Delta^3 preimage of the chain's top"


# every case at d <= 3, the flip cases also at Poincare indices -3 and -5
CLOSURE_CASES = [
    (label, k, d, index)
    for label, k in (("Ia", -2), ("Ib", -2), ("Ic", -2), ("Id", -2), ("IIa", 1), ("IIb", 1),
                     ("IIIa", 3), ("IIIb", 3), ("IIIc", 3), ("IIId", 3))
    for d in range(1 if label == "IIId" else 0, 4)
    for index in ((-1, -3, -5) if label in ("Ic", "IIIc") else (-1,))]


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


@pytest.mark.parametrize("k, d, power, count", [(3, 2, 2, 2), (4, 3, 3, 3)])
def test_apply_power_warns_once_per_distinct_step_over_all_passes(k, d, power, count):
    # a step that several passes of L^power take onto the pole warns once
    f = construct_case("IIIb", k, d)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        apply_power(f, "L", power)
    assert [c.category for c in caught] == [PolePointWarning] * count


def test_apply_laplace_composes_its_power_in_one_call():
    # one call of Delta^3 warns once per distinct step onto the pole (7),
    # where three calls of Delta warned once per call and step (12)
    f = construct_case("IIIb", 4, 8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cubed = apply_laplace(f, 3)
    assert [c.category for c in caught] == [PolePointWarning] * 7
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert apply_laplace(apply_laplace(apply_laplace(f))) == cubed
    assert len(caught) == 12
    assert apply_laplace(f, 0) == f and apply_laplace(f, 1) == apply_laplace(f)
    for power, message in ((-1, "operator power must be nonnegative"),
                           (True, "operator power must be an int, not True")):
        with pytest.raises(DomainError) as err:
            apply_laplace(f, power)
        assert str(err.value) == message


def test_classify_refuses_the_zero_form():
    with pytest.raises(DomainError) as err:
        classify_bk(zero_form(0))
    assert str(err.value) == "cannot classify the zero form"


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
    # one operator call on a form whose keys share that atom, and one whose
    # keys share a pending atom whose unfolding steps onto the pole
    lowered = sum((form_of(PolyAtom(2 * r, r), atom_E(2, 0, 1)) for r in range(3)), zero_form(2))
    pending = SpectralAtom(Family(EISENSTEIN), 4, Fraction(-1), 1, ("L", 2))
    unfolded = form_of(E00, pending) + form_of(PolyAtom(2, 1), pending)
    for op, f in ((apply_lowering, lowered), (expand_pending, unfolded)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            op(f)
        assert [c.category for c in caught] == [PolePointWarning], op


# ---------------------------------------------------------------------------
# the chain path against the general path


def _general_classify(f):
    """classify_bk as it ran before the chain path, on _laplace_tower and
    _apply called directly, verbatim."""
    f = expand_pending(f)
    if f.is_empty():
        raise DomainError("cannot classify the zero form")
    k = f.weight
    pool, levels = _laplace_tower(f)
    d, top = len(levels) - 1, levels[-1]

    def vanishes(level, op: str, power: int) -> bool:
        vec, den = level
        return _apply(((pool[i], e, Fraction(x, den)) for (i, e), x in vec.items()),
                      k - 2 * power if op == "L" else k + 2 * power, op, power).is_empty()

    if k < 1:
        l_zero = vanishes(top, "L", 1)
        r_zero = vanishes(top, "R", 1 - k)
        bk = {(True, True): "Ia", (True, False): "Ib",
              (False, True): "Ic", (False, False): "Id"}[(l_zero, r_zero)]
    elif k == 1:
        bk = "IIa" if vanishes(top, "L", 1) else "IIb"
    else:
        if d >= 1 and vanishes(levels[d - 1], "L", k):
            return CaseLabel("IIId", d, WeightContext(k))
        if vanishes(top, "L", 1):
            bk = "IIIa"
        elif vanishes(top, "L", k):
            bk = "IIIb"
        else:
            bk = "IIIc"
    return CaseLabel(bk, d, WeightContext(k))


def _general_depth(f):
    return len(_laplace_tower(expand_pending(f))[1]) - 1


def _outcome(fn, f):
    """fn(f) or its DomainError's text, and the texts of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(f)
        except DomainError as ex:
            out = "DomainError: %s" % ex
    return out, [str(c.message) for c in caught]


def _assert_paths_agree(f):
    """classify_bk and exact_depth give the general path's label, depth,
    error text and warnings on f; whether f took the chain path."""
    for fn, reference in ((classify_bk, _general_classify), (exact_depth, _general_depth)):
        assert _outcome(fn, f) == _outcome(reference, f)
    k = f.weight
    return symcalc._chain_layers(f, max(1, k), max(0, 1 - k)) is not None


CASE_VARIANTS = {"Ia": [{"family": "eisenstein"}, {"family": "poincare", "index": -3},
                        {"family": "poincare", "index": -1}],
                 "IIb": [{"disc": 3}, {"disc": 4}, {"disc": 7}], "IIIb": [{}]}
CASE_VARIANTS["Id"] = CASE_VARIANTS["IIIa"] = CASE_VARIANTS["Ia"]


@pytest.mark.parametrize("poles", sorted(POLE_TABLES))
@pytest.mark.parametrize("label", BK_CASES)
def test_chain_path_matches_the_general_path_on_case_forms(label, poles):
    # k -4..5 where the case lives, d <= 4, three families, indices or
    # discriminants, the JSON round trip, times 1 + pi, and the sum with the
    # previous form of the same weight
    ks = range(2, 6) if label.startswith("III") else [1] if label.startswith("II") \
        else range(-4, 1)
    on_chains, previous = 0, {}
    with using_poles(POLE_TABLES[poles]):
        for k in ks:
            for d in range(1 if label == "IIId" else 0, 5):
                for kw in CASE_VARIANTS.get(label, [{"index": n} for n in (-1, -3, -6)]):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", PolePointWarning)
                        f = construct_case(label, k, d, **kw)
                    forms = [f, form_from_json(form_to_json(f)), f * ONE_PLUS_PI]
                    if k in previous:
                        forms.append(f + previous[k])
                    previous[k] = f
                    on_chains += sum(_assert_paths_agree(g) for g in forms)
    # IIb's family vanishes at its base point; IIIb's L column below r = 0
    # is the tabled (E, 0, 1)
    assert (on_chains == 0) == (label == "IIb" or (label, poles) == ("IIIb", "default"))


@pytest.mark.parametrize("w", [-4, -2, 0, 2])
def test_a_pole_on_a_chain_column_takes_the_general_path(w):
    # Ib at k = -2 lies on the chain (4, P[-1], -6, 1, 1), columns -1..4
    # at weights -8..2; a residue there sends it to the general path, which
    # warns as it did
    f = construct_case("Ib", -2, 3)
    assert _assert_paths_agree(f)
    with using_poles(_chain_pole(w)):
        assert not _assert_paths_agree(f)
        assert _outcome(classify_bk, f)[1]
    # a pole that only a pending power's unfolding steps onto: the chain's
    # columns -1..1 are at weights -2..2
    g = form_of(PolyAtom(0, 0), SpectralAtom(P1, 6, Fraction(1), 1, ("L", 3)))
    assert _assert_paths_agree(g)
    with using_poles(_chain_pole(4)):
        assert not _assert_paths_agree(g)
        assert _outcome(classify_bk, g)[1]


def test_chain_path_refuses_a_zero_expansion_and_a_non_polyharmonic_form():
    # L E^(0)_{4,0} unfolds to zero (its step's x is the point 0), and so
    # does a form less itself, on the chain path
    lowered = form_of(PolyAtom(0, 0), SpectralAtom(Family(EISENSTEIN), 4, Fraction(0), 0,
                                                   ("L", 1)))
    f = construct_case("Ia", -2, 2)
    for zero in (lowered, f - f, lowered + zero_form(2)):
        assert _assert_paths_agree(zero)
        assert exact_depth(zero) == 0
        assert _outcome(classify_bk, zero)[0] == "DomainError: cannot classify the zero form"
    # eigenforms: the chain tower does not vanish, and the general path
    # names the size of the Delta-closure (L^2 E_{4,-1} is at the tabled pole)
    for e, atom, poles in ((PolyAtom(2, 1), atom_E(4, -1), "empty"),
                           (E00, atom_E(0, 2), "default"), (PolyAtom(2, 1), atom_P(2, -1, 3, 1),
                                                            "default")):
        with using_poles(POLE_TABLES[poles]):
            g = form_of(e, atom) * ONE_PLUS_PI
            assert _assert_paths_agree(g)
            assert _outcome(exact_depth, g)[0].endswith("not polyharmonic")


def test_chain_path_builds_no_form_atom_or_closure(monkeypatch):
    forms = [construct_case(*shape) for shape in (("Ia", -3, 4), ("Id", -1, 3), ("IIa", 1, 3),
                                                  ("IIIa", 3, 2), ("IIId", 4, 2))]

    def refuse(*args, **kwargs):
        raise AssertionError("the general path ran")
    for name in ("_Atoms", "Form", "SpectralAtom"):
        monkeypatch.setattr(symcalc, name, refuse)
    monkeypatch.setattr(classify, "_laplace_tower", refuse)
    for f, (label, k, d) in zip(forms, (("Ia", -3, 4), ("Id", -1, 3), ("IIa", 1, 3),
                                         ("IIIa", 3, 2), ("IIId", 4, 2))):
        assert classify_bk(f) == CaseLabel(label, d, WeightContext(k))
        assert exact_depth(f) == d


def test_delta_layers_is_shared():
    # the classify verb imports symcalc, not specsolve
    assert specsolve._delta_layers is symcalc._delta_layers is classify._delta_layers
