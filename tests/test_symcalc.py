import copy
import functools
import itertools
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polymaass import symcalc
from polymaass.scalars import Scalar
from polymaass.symcalc import (CONST_ATOM, DEFAULT_POLES, E00, EISENSTEIN, INCOHERENT, POINCARE,
                               DomainError, Family, Form, PolePointWarning, PolyAtom, _Atoms,
                               _step_rule, pole_table, using_poles,
                               apply_flip, apply_laplace, apply_lowering,
                               apply_mirror, apply_power, apply_raising,
                               atom_E, atom_P, atom_incoherent, expand_pending,
                               form_from_json, form_of, form_to_json,
                               forms_equal, is_zero, make_e_atom, pretty,
                               zero_form, SpectralAtom)
from polymaass.specsolve import eisenstein_family, poincare_family


def E(w, p, t=0):
    return form_of(PolyAtom(0, 0), atom_E(w, p, t))


# --- make_e_atom -----------------------------------------------------------

def test_make_e_atom():
    one = make_e_atom(0, 0)
    assert one.weight == 0 and not one.is_empty()
    f = make_e_atom(3, 2)
    assert f.weight == -1
    with pytest.raises(DomainError):
        make_e_atom(3, 4)


# --- lowering --------------------------------------------------------------

def test_lowering_kills_top_e_vector():
    assert is_zero(apply_lowering(make_e_atom(5, 5)))


def test_lowering_of_first_derivative():
    got = apply_lowering(E(0, 0, 1))
    assert forms_equal(got, E(-2, 1, 0))


def test_lowering_of_weight_two_eisenstein_hits_residue():
    got = apply_lowering(E(2, 0, 0))
    want = form_of(PolyAtom(0, 0), CONST_ATOM, Scalar.pi_power(-1, 3))
    assert forms_equal(got, want)
    assert not is_zero(got)


def test_lowering_e_vector_action():
    # L e_{r,m-r} = (r+1)(m-r) e_{r+1,m-r-1}
    got = apply_lowering(make_e_atom(3, 1))
    assert forms_equal(got, make_e_atom(3, 2) * 4)


# --- raising ---------------------------------------------------------------

def test_raising_kills_bottom_e_vector():
    assert is_zero(apply_raising(make_e_atom(4, 0)))


def test_raising_point_shift():
    assert forms_equal(apply_raising(E(0, 1)), E(2, 0))


def test_raising_poincare_zero_prefactor():
    # global point -1 at weight 2: the linear factor s + k/2 vanishes
    f = form_of(PolyAtom(0, 0), atom_P(2, -1, -1))
    assert is_zero(apply_raising(f))


# --- Laplacian -------------------------------------------------------------

def test_laplace_e_vector_eigenvalue():
    for m, r in [(3, 1), (4, 2), (2, 0)]:
        f = make_e_atom(m, r)
        assert forms_equal(apply_laplace(f), f * (-(r + 1) * (m - r)))


def test_laplace_eisenstein_eigenvalue_at_base():
    # weight k at point s0: order-0 coefficient picks s0(1-k-s0)
    k, s0 = 4, Fraction(-1)
    got = apply_laplace(E(k, s0))
    assert forms_equal(got, E(k, s0) * (s0 * (1 - k - s0)))
    assert is_zero(apply_laplace(E(0, 0)))


def test_laplace_constant():
    assert is_zero(apply_laplace(make_e_atom(0, 0)))


# --- mirror ----------------------------------------------------------------

def test_mirror_e_vector():
    # y^{m-2r} conj(e_{r,m-r}) = (-1)^m (m-r)!/r! e_{m-r,r}
    m = 3
    got = apply_mirror(make_e_atom(m, m))
    assert forms_equal(got, make_e_atom(m, 0) * Fraction((-1) ** m, 6))


def test_mirror_eisenstein_point_shift():
    got = apply_mirror(E(4, 2))
    assert forms_equal(got, E(-4, 6))


def test_mirror_involution():
    f = form_of(PolyAtom(2, 1), atom_E(0, 2, 0))
    assert forms_equal(apply_mirror(apply_mirror(f)), f)


def test_mirror_rejects_pending():
    a = SpectralAtom(Family("eisenstein"), 0, Fraction(0), 1, ("L", 2))
    with pytest.raises(DomainError):
        apply_mirror(form_of(PolyAtom(0, 0), a))


def test_mirror_reads_each_column_once(monkeypatch):
    # terms whose mirrored atoms share a column read one _Columns record: two
    # columns, (E, 0, 3) and (P[n=1], 0, 1/2), over six terms
    p = atom_P(0, -1, Fraction(1, 2))
    f = Form(0, {(PolyAtom(2, 1), atom_E(0, 3, t)): Scalar.from_rational(t + 1)
                 for t in range(3)})
    f = f + form_of(E00, atom_E(0, 3, 3)) + form_of(E00, p) \
        + form_of(PolyAtom(2, 1), SpectralAtom(p.family, 0, p.point, 1))
    calls = []

    def counted(fam, w, point):
        calls.append((fam, w, point))
        return vanishing_order(fam, w, point)
    vanishing_order = symcalc.vanishing_order
    monkeypatch.setattr(symcalc, "vanishing_order", counted)
    g = apply_mirror(f)
    assert len(g.terms) == 6 and len(calls) == 2
    assert set(calls) == {(Family(EISENSTEIN), 0, 3),
                          (Family(POINCARE, index=1), 0, Fraction(1, 2))}


def test_mirror_refuses_an_incoherent_atom():
    with pytest.raises(DomainError) as ex:
        apply_mirror(form_of(PolyAtom(0, 0), atom_incoherent(3, 0)))
    assert str(ex.value) == "mirror is not defined for family E-[D=3]"


# --- flip ------------------------------------------------------------------

def test_flip_fixes_holomorphic_e_vector():
    for m in range(0, 5):
        f = make_e_atom(m, m)
        assert forms_equal(apply_flip(f), f * ((-1) ** m))


def test_flip_weight_zero_is_mirror():
    f = E(0, 2)
    assert forms_equal(apply_flip(f), apply_mirror(f))


def test_flip_rejects_positive_weight():
    with pytest.raises(DomainError):
        apply_flip(E(2, 0))


def test_flip_commutes_with_laplace():
    f = form_of(PolyAtom(3, 2), atom_E(-2, 1, 1))
    assert forms_equal(apply_laplace(apply_flip(f)), apply_flip(apply_laplace(f)))


# --- expand ----------------------------------------------------------------

def test_expand_case_ia_fragment():
    # 1/8 e_{1,2} L^2 E^(2) + 3/8 e_{1,2} L^2 E^(1)
    #   == 1/4 e_{1,2} E^(1)_{-4,2} + 5/8 e_{1,2} E^(0)_{-4,2}
    e12 = PolyAtom(3, 1)
    fam = Family("eisenstein")
    f = (form_of(e12, SpectralAtom(fam, 0, Fraction(0), 2, ("L", 2)), Fraction(1, 8))
         + form_of(e12, SpectralAtom(fam, 0, Fraction(0), 1, ("L", 2)), Fraction(3, 8)))
    want = (form_of(e12, atom_E(-4, 2, 1), Fraction(1, 4))
            + form_of(e12, atom_E(-4, 2, 0), Fraction(5, 8)))
    assert expand_pending(f) == want


def test_expand_dead_pending_atom():
    f = form_of(PolyAtom(3, 2), SpectralAtom(Family("eisenstein"), 0, Fraction(0), 0, ("L", 1)))
    assert expand_pending(f).is_empty()


def test_expand_idempotent_on_expanded():
    f = form_of(PolyAtom(3, 0), atom_E(0, 0, 2))
    assert expand_pending(f) == f


# --- is_zero ---------------------------------------------------------------

def test_is_zero_cases():
    assert is_zero(apply_lowering(make_e_atom(2, 2)))
    assert not is_zero(apply_lowering(E(2, 0)))
    f = E(4, 1, 2)
    assert is_zero(f - f)


# --- incoherent family -----------------------------------------------------

def test_incoherent_vanishing_and_recurrence():
    # Delta E^-(j-atom) follows Delta b_j = -j(j-1) b_{j-2}
    disc = 3
    for j in (1, 2, 3, 4, 5):
        f = form_of(PolyAtom(0, 0), SpectralAtom(Family("incoherent", disc=disc), 1,
                                                 Fraction(0), j))
        got = apply_laplace(f)
        if j >= 3:
            want = form_of(PolyAtom(0, 0),
                           SpectralAtom(Family("incoherent", disc=disc), 1, Fraction(0), j - 2),
                           Fraction(-j * (j - 1)))
            assert forms_equal(got, want)
        else:
            # b_0 vanishes identically, b_1 is harmonic
            assert is_zero(got)


# --- weights and serialization --------------------------------------------

def test_weight_grading():
    f = form_of(PolyAtom(2, 1), atom_E(-2, 1, 1))
    k = f.weight
    assert apply_lowering(f).weight == k - 2
    assert apply_raising(f).weight == k + 2
    assert apply_laplace(f).weight == k
    assert apply_mirror(f).weight == -k
    assert apply_flip(f).weight == k


def test_add_rejects_mixed_weights():
    with pytest.raises(DomainError):
        make_e_atom(2, 0) + make_e_atom(2, 1)


def test_json_round_trip():
    f = (form_of(PolyAtom(3, 1), SpectralAtom(Family("poincare", index=-2), 2,
                                              Fraction(1, 2), 1, ("R", 2)),
                 Scalar.pi_power(2, Fraction(3, 7)))
         + form_of(PolyAtom(3, 1), atom_E(6, -3, 3), Fraction(-5, 9)) * Scalar.pi_power(0, 1))
    assert form_from_json(form_to_json(f)) == f


def test_json_reader_shares_one_family_per_value():
    import pickle
    n3, n5 = Family(POINCARE, index=-3), Family(POINCARE, index=-5)
    f = (form_of(PolyAtom(2, 0), SpectralAtom(n3, 0, Fraction(1), 1), Fraction(2, 3))
         + form_of(PolyAtom(2, 1), SpectralAtom(n3, 6, Fraction(1), 0, ("L", 2)))
         + form_of(PolyAtom(2, 2), SpectralAtom(n5, 4, Fraction(1), 0))
         + form_of(PolyAtom(2, 2), SpectralAtom(n3, 4, Fraction(1), 2)))
    data = form_to_json(f)
    g = form_from_json(data)
    families = [a.family for (_e, a), _c in g.terms]
    assert len(families) == 4 and len({id(x) for x in families}) == 2
    assert sum(x is families[0] for x in families) == 3
    # one call's sharing shows in no comparison, hash, pickle or JSON
    h = form_from_json(data)
    assert all(x is not y for x, y in zip(families, (a.family for (_e, a), _c in h.terms)))
    assert g == f == h and hash(g) == hash(f) == hash(h)
    again = pickle.loads(pickle.dumps(g))
    assert again == f and hash(again) == hash(f)
    assert form_to_json(g) == form_to_json(again) == data


def test_json_rejects_identically_zero_atom():
    # the incoherent weight-1 family vanishes at point 0, as atom_incoherent knows
    f = form_of(PolyAtom(0, 0), atom_incoherent(3, 0))
    data = form_to_json(f)
    data["terms"][0]["spectral"]["laurent"] = 0
    with pytest.raises(DomainError, match="identically zero"):
        form_from_json(data)


@pytest.mark.parametrize("build,message", [
    (lambda: atom_P(0, 1.5, 1), "index must be an int, not 1.5"),
    (lambda: atom_P(0, True, 1), "index must be an int, not True"),
    (lambda: atom_E(0.0, 1), "weight must be an int, not 0.0"),
    (lambda: atom_E(False, 1), "weight must be an int, not False"),
    (lambda: atom_E(0, 0.1), "point must be an int or a Fraction, not 0.1"),
    (lambda: atom_E(0, "1/2"), "point must be an int or a Fraction, not '1/2'"),
    (lambda: atom_E(0, True), "point must be an int or a Fraction, not True"),
    (lambda: atom_P(2, -1, 1, 1.0), "laurent must be an int, not 1.0"),
    (lambda: atom_E(2, 0, True), "laurent must be an int, not True"),
    (lambda: atom_incoherent(3.0, 0), "disc must be an int, not 3.0"),
    (lambda: atom_incoherent(3, True), "order must be an int, not True"),
    (lambda: atom_incoherent(3, 0.5), "order must be an int, not 0.5"),
    # a negative Laurent index is refused as such, before any vanishing order
    (lambda: atom_E(2, 0, -1), "laurent index must be nonnegative, got -1"),
    (lambda: atom_P(2, -1, 1, -1), "laurent index must be nonnegative, got -1"),
    (lambda: atom_incoherent(3, -2), "laurent index must be nonnegative, got -1"),
    (lambda: form_from_json({"weight": 2, "terms": [{
        "poly": {"m": 0, "r": 0}, "coeff": [{"pi_exp": 0, "num": "1", "den": "1"}],
        "spectral": {"family": {"kind": "eisenstein"}, "weight": 2, "point": "0",
                     "laurent": -1, "pending": None}}]}),
     "laurent index must be nonnegative, got -1"),
    (lambda: PolyAtom(1.5, 0), "m must be an int, not 1.5"),
    (lambda: PolyAtom(2, True), "r must be an int, not True"),
    (lambda: Family("poincare", index=-1.0), "index must be an int, not -1.0"),
    (lambda: Family("incoherent", disc="3"), "disc must be an int, not '3'"),
    (lambda: SpectralAtom(Family("eisenstein"), 2.0, 0.5, 0), "weight must be an int, not 2.0"),
    (lambda: SpectralAtom(Family("eisenstein"), 0, 0.5, 0),
     "point must be an int or a Fraction, not 0.5"),
    (lambda: SpectralAtom(Family("eisenstein"), 2, 0, "1"), "laurent must be an int, not '1'"),
    (lambda: eisenstein_family(0, 0.3), "point must be an int or a Fraction, not 0.3"),
    (lambda: poincare_family(0, -2.0, 0), "index must be an int, not -2.0"),
    (lambda: eisenstein_family(0, 0, orientation=1.0), "orientation must be +1 or -1"),
])
def test_named_atoms_reject_inexact_values(build, message):
    with pytest.raises(DomainError) as ex:
        build()
    assert str(ex.value) == message


def test_spectral_atom_rejects_negative_laurent_index():
    # an operator step at t = 0 reads the pole table itself, so no atom
    # stands for a residue coefficient
    with pytest.raises(DomainError, match="laurent index must be nonnegative, got -1"):
        SpectralAtom(Family("eisenstein"), 2, Fraction(0), -1)


CONST_MESSAGE = "a constant atom has weight 0, point 0 and laurent index 0, not %d, %s and %d"


@pytest.mark.parametrize("weight, point, laurent", [(0, 0, 2), (2, 0, 0), (0, 1, 0),
                                                    (-2, Fraction(1, 2), 1)])
def test_constant_atoms_are_only_the_constant_function(weight, point, laurent):
    # the calculus treats a constant atom as the constant function, which L
    # and R kill: a derivative of it is 0, and it has weight 0 alone
    const = Family("constant")
    with pytest.raises(DomainError) as err:
        SpectralAtom(const, weight, point, laurent)
    assert str(err.value) == CONST_MESSAGE % (weight, point, laurent)
    data = form_to_json(form_of(PolyAtom(0, 0), CONST_ATOM))
    data["weight"] = weight
    data["terms"][0]["spectral"].update(weight=weight, point=str(point), laurent=laurent)
    with pytest.raises(DomainError) as err:
        form_from_json(data)
    assert str(err.value) == CONST_MESSAGE % (weight, point, laurent)
    # pending powers of the constant function stay, and unfold to zero
    assert is_zero(form_of(PolyAtom(0, 0), SpectralAtom(const, 0, 0, 0, ("R", 2))))


def test_pole_table_json_refuses_a_constant_residue_atom_of_weight_two(tmp_path):
    import json as _json
    from polymaass import symcalc as sc
    residue = sc.form_to_json(form_of(PolyAtom(0, 0), CONST_ATOM))
    residue["weight"] = 2
    residue["terms"][0]["spectral"]["weight"] = 2
    path = tmp_path / "poles.json"
    path.write_text(_json.dumps([{"family": {"kind": "eisenstein"}, "weight": 2, "point": "0",
                                  "residue_form": residue}]))
    with pytest.raises(DomainError) as err:
        sc.load_pole_table(str(path))
    assert str(err.value) == CONST_MESSAGE % (2, 0, 0)


def test_json_atom_at_tabled_pole_warns():
    import warnings as _w
    from polymaass.symcalc import PolePointWarning
    data = form_to_json(form_of(PolyAtom(0, 0), atom_E(0, 1, 1)))
    with _w.catch_warnings(record=True) as caught:
        _w.simplefilter("always")
        form_from_json(data)
    assert any(issubclass(c.category, PolePointWarning) for c in caught)


@pytest.mark.parametrize("mutate", [
    lambda d: d["terms"][0]["spectral"].update(point="1/0"),
    lambda d: d["terms"][0]["spectral"].update(weight="heavy"),
    lambda d: d["terms"][0].pop("poly"),
    lambda d: d["terms"][0].update(coeff=[{"pi_exp": 0, "num": "1", "den": "0"}]),
    lambda d: d["terms"][0]["spectral"].update(point=0.1),
], ids=["point", "weight", "missing", "den", "float point"])
def test_json_parse_errors_are_domain_errors(mutate):
    data = form_to_json(form_of(PolyAtom(0, 0), atom_E(0, 2)))
    mutate(data)
    with pytest.raises(DomainError, match="^malformed (form|scalar) JSON: "):
        form_from_json(data)


def _reference_rational(x):
    """A JSON rational as Fraction reads it, with a float and a bool refused."""
    if not isinstance(x, (int, str)) or isinstance(x, bool):
        raise TypeError("a rational must be an int or a string, not %r" % (x,))
    return Fraction(x)


def _form_from_json_reference(data):
    """form_from_json as it read a form before it built each coefficient
    once: the point by Fraction, each coefficient by the public Scalar
    constructor, and every key added to ZERO."""
    from polymaass.scalars import ZERO, json_int, malformed_json
    from polymaass.symcalc import _Columns, _atom, _family_from_json
    acc = {}
    with malformed_json("form JSON"):
        for term in data["terms"]:
            e = PolyAtom(json_int(term["poly"]["m"]), json_int(term["poly"]["r"]))
            sp = term["spectral"]
            pending = sp.get("pending")
            a = _atom(_Columns(), _family_from_json(sp["family"]), json_int(sp["weight"]),
                      _reference_rational(sp["point"]), json_int(sp["laurent"]),
                      None if pending is None else (pending["dir"], json_int(pending["power"])))
            with malformed_json("scalar JSON"):
                terms = []
                for t in term["coeff"]:
                    num, den = _reference_rational(t["num"]), _reference_rational(t["den"])
                    if num.denominator != 1 or den.denominator != 1:
                        raise ValueError("num and den must be integers")
                    terms.append((json_int(t["pi_exp"]), num / den))
                c = Scalar(terms)
            acc[e, a] = acc.get((e, a), ZERO) + c
        return Form(json_int(data["weight"]), acc)


def _outcome(read, *args):
    """read(*args), or the type and text of what it raises."""
    try:
        return read(*args)
    except Exception as ex:   # compared, not swallowed
        return type(ex), str(ex)


# a digit string past int's default limit is refused by int and Fraction alike
POINT_SPELLINGS = ["0", "-3", "2/4", "+3", " 5 ", "0.5", "1e1", "-0", "007", "1_0", "\u0661",
                   "1/0", "-0/5", "007/3", "6/-4", "1/00", "-1/12", "x", "-", "", "--5",
                   "9" * 5000, 7, -2, 1.5, True, None]


@pytest.mark.parametrize("point", POINT_SPELLINGS, ids=lambda x: repr(x)[:12])
def test_form_json_reads_points_and_coefficients_as_before(point):
    coeff = [{"pi_exp": 1, "num": "2", "den": "-6"}, {"pi_exp": 0, "num": "5", "den": "1"},
             {"pi_exp": 1, "num": "1", "den": "3"}, {"pi_exp": -1, "num": "0", "den": "4"}]
    term = {"poly": {"m": 2, "r": 1},
            "spectral": {"family": {"kind": "eisenstein"}, "weight": 2, "point": point,
                         "laurent": 1, "pending": None}, "coeff": coeff}
    other = dict(term, poly={"m": 0, "r": 0}, coeff=coeff[:1])
    for terms in ([term], [term, other], [term, other, term], [other, dict(term, coeff=[])]):
        data = {"weight": 2, "terms": terms}
        got, want = _outcome(form_from_json, data), _outcome(_form_from_json_reference, data)
        assert got == want and type(got) is type(want)
        if type(got) is Form:
            assert [(key, c.terms) for key, c in got.terms] == \
                [(key, c.terms) for key, c in want.terms]


@pytest.mark.parametrize("case, k, d", [("Ia", -3, 3), ("Ic", -2, 3), ("IIb", 1, 2),
                                        ("IIIb", 4, 2), ("IIId", 3, 2)])
def test_case_forms_read_back_as_before(case, k, d):
    from polymaass.specsolve import construct_case
    data = form_to_json(construct_case(case, k, d))
    got, want = form_from_json(data), _form_from_json_reference(data)
    assert [(key, c.terms) for key, c in got.terms] == [(key, c.terms) for key, c in want.terms]


def _cases_pool():
    """(label, k, d, keywords) of every form of the benchmark's cases pool:
    19 shapes with 16 variants each (an Eisenstein anchor and Poincare
    indices -1..-15 for Ia, Id and IIIa, 16 discriminants for IIb, indices
    -2^0..-2^15 for Ic and IIIc, -1..-16 otherwise), and IIIb at 28 weights
    and depths."""
    shapes = (("Ia", -2, 2), ("Ia", -3, 6), ("Ia", -4, 4), ("Ib", -1, 4), ("Ib", -3, 6),
              ("Ic", -1, 8), ("Ic", -3, 4), ("Id", -1, 3), ("Id", -3, 8), ("IIa", 1, 1),
              ("IIa", 1, 7), ("IIb", 1, 3), ("IIb", 1, 8), ("IIIa", 2, 5), ("IIIa", 3, 2),
              ("IIIc", 2, 6), ("IIIc", 3, 3), ("IIId", 2, 8), ("IIId", 4, 4))
    pool = []
    for label, k, d in shapes:
        if label in ("Ia", "Id", "IIIa"):
            variants = [{"family": "eisenstein"}] + [{"family": "poincare", "index": -n}
                                                     for n in range(1, 16)]
        elif label == "IIb":
            variants = [{"disc": D} for D in (3, 4, 7, 8, 11, 15, 19, 20, 23, 24, 31, 35, 39,
                                              40, 43, 47)]
        else:
            variants = [{"index": -2 ** e if label in ("Ic", "IIIc") else -1 - e}
                        for e in range(16)]
        pool += [(label, k, d, kw) for kw in variants]
    slots = [(3, d) for d in range(1, 10)] + [(4, d) for d in range(1, 9)] + \
        [(5, d) for d in range(1, 6)] + [(6, 1), (6, 2), (6, 3), (7, 1), (7, 2), (8, 1)]
    return pool + [("IIIb", k, d, {}) for k, d in slots]


@functools.lru_cache(maxsize=None)
def _cases_pool_json():
    from polymaass.specsolve import construct_case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PolePointWarning)
        return tuple(form_to_json(construct_case(label, k, d, **kw))
                     for label, k, d, kw in _cases_pool())


def _reading(read, data):
    """read(data) or the type and text of what it raises, and the texts of
    the PolePointWarnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = _outcome(read, data)
    return out, [str(c.message) for c in caught if c.category is PolePointWarning]


def _assert_reads_as_the_reference(data) -> int:
    """form_from_json gives the reference's form, with its terms in order,
    or its exception type and text, and its warnings; their count."""
    (got, got_warned), (want, want_warned) = (_reading(form_from_json, data),
                                              _reading(_form_from_json_reference, data))
    assert type(got) is type(want) and got == want and got_warned == want_warned
    if type(got) is Form:
        assert [(key, c.terms) for key, c in got.terms] == \
            [(key, c.terms) for key, c in want.terms]
    return len(got_warned)


def test_form_reader_matches_the_reference_on_the_cases_pool():
    # each pool form, under the default table and under one with an entry
    # at the column of its first expanded term; and each with a form weight
    # its terms do not have, or that term at laurent index -1
    warned = 0
    for data in _cases_pool_json():
        term = next(t for t in data["terms"] if t["spectral"]["pending"] is None)
        sp = term["spectral"]
        fam, w = symcalc._family_from_json(sp["family"]), sp["weight"]
        entry = pole_table({(fam, w, Fraction(sp["point"])): zero_form(w)})
        heavy = dict(data, weight=data["weight"] + 2)
        negative = copy.deepcopy(data)
        next(t for t in negative["terms"] if t["spectral"]["pending"] is None)[
            "spectral"]["laurent"] = -1
        for table in (DEFAULT_POLES, entry):
            with using_poles(table):
                for variant in (data, heavy, negative):
                    warned += _assert_reads_as_the_reference(variant)
    assert len(_cases_pool_json()) == 332 and warned > 332


# family fields as JSON may spell them: valid ones (with a None value, or
# their fields in another order), and ones the reader refuses
VALID_FAMILIES = [{"kind": "eisenstein"}, {"kind": "poincare", "index": -1},
                  {"index": -1, "kind": "poincare"}, {"kind": "poincare", "index": 1},
                  {"kind": "incoherent", "disc": 3},
                  {"kind": "eisenstein", "index": None, "disc": None}]
FAMILY_SPELLINGS = VALID_FAMILIES + [
    {"kind": "eisenstein", "colour": "red"}, {"kind": "poincare", "index": True},
    {"kind": "poincare", "index": 1.0}, {"kind": "poincare", "index": -1.5},
    {"kind": "incoherent", "disc": False}, {"index": -1}, {"kind": None},
    {"kind": "poincare", "index": None}, {"kind": "poincare", "index": [-1]},
    {"kind": "poincare", "index": "-1"}, "eisenstein", ["kind"], None]


def _term(family, coeff="1"):
    """e_{0,0} (x) the family's member of weight 2 at 0, order 1."""
    return {"poly": {"m": 0, "r": 0},
            "spectral": {"family": family, "weight": 2, "point": "0", "laurent": 1,
                         "pending": None},
            "coeff": [{"pi_exp": 0, "num": coeff, "den": "1"}]}


@pytest.mark.parametrize("family", FAMILY_SPELLINGS, ids=repr)
def test_form_reader_reads_family_spellings_as_the_reference(family):
    # alone, and after and before each valid family (the same value, 1 for
    # True or 1.0, -1 for "-1", read first)
    _assert_reads_as_the_reference({"weight": 2, "terms": [_term(family)]})
    for valid in VALID_FAMILIES:
        terms = [_term(valid), _term(family, "2"), _term(valid, "3")]
        _assert_reads_as_the_reference({"weight": 2, "terms": terms})


def test_form_reader_checks_each_distinct_family_once(monkeypatch):
    calls, check = [], symcalc._family_from_json
    monkeypatch.setattr(symcalc, "_family_from_json", lambda data: calls.append(data) or check(data))
    p, e = {"kind": "poincare", "index": -1}, {"kind": "eisenstein"}
    terms = [_term(p), _term(e), _term({"index": -1, "kind": "poincare"}), _term(p), _term(e)]
    f = form_from_json({"weight": 2, "terms": terms})
    assert calls == [p, e]
    assert len({id(a.family) for (_e, a), _c in f.terms}) == 2
    for data in _cases_pool_json():
        calls.clear()
        form_from_json(data)
        assert len(calls) == len({frozenset(t["spectral"]["family"].items())
                                  for t in data["terms"]})


def _json_with_every_integer_field():
    """Form JSON with a pending power, a Poincare index and an incoherent
    discriminant, so that every integer field of the format is present;
    also returns the Poincare and the incoherent term."""
    f = (form_of(PolyAtom(2, 1), SpectralAtom(Family("poincare", index=-2), -3,
                                              Fraction(1, 2), 1, ("R", 2)))
         + form_of(PolyAtom(2, 1), atom_incoherent(3, 1)) * Scalar.pi_power(-4, 1))
    data = form_to_json(f)
    by_kind = {t["spectral"]["family"]["kind"]: t for t in data["terms"]}
    return data, by_kind["poincare"], by_kind["incoherent"]


@pytest.mark.parametrize("field", [
    lambda d, p, i: (d, "weight"),
    lambda d, p, i: (p["poly"], "m"),
    lambda d, p, i: (p["poly"], "r"),
    lambda d, p, i: (p["spectral"], "weight"),
    lambda d, p, i: (p["spectral"], "laurent"),
    lambda d, p, i: (p["spectral"]["pending"], "power"),
    lambda d, p, i: (p["spectral"]["family"], "index"),
    lambda d, p, i: (i["spectral"]["family"], "disc"),
    lambda d, p, i: (i["coeff"][0], "pi_exp"),
], ids=["weight", "poly.m", "poly.r", "spectral.weight", "laurent", "pending.power",
        "index", "disc", "pi_exp"])
@pytest.mark.parametrize("shift", [0.5, 0.0], ids=["fractional", "integral"])
def test_json_rejects_float_integer_fields(field, shift):
    data, poincare, incoherent = _json_with_every_integer_field()
    form_from_json(data)
    node, key = field(data, poincare, incoherent)
    assert type(node[key]) is int
    node[key] += shift
    with pytest.raises(DomainError, match="^malformed (form|scalar) JSON: "):
        form_from_json(data)


# --- the cached atom hash ------------------------------------------------------

def _equal_atoms(point):
    """The atom E^(1)_{2,point} built every way the package builds atoms."""
    import dataclasses
    fam = Family("eisenstein")
    via_json = next(iter(form_from_json(form_to_json(
        form_of(PolyAtom(0, 0), atom_E(2, point, 1)))).terms))[0][1]
    return [atom_E(2, point, 1), via_json,
            dataclasses.replace(atom_E(2, point + 7, 1), point=Fraction(point)),
            dataclasses.replace(atom_E(2, point, 0), laurent=1),
            SpectralAtom(fam, 2, point, 1), SpectralAtom(fam, 2, Fraction(point), 1),
            SpectralAtom._make(Family("eisenstein"), 2, Fraction(point), 1)]


@pytest.mark.parametrize("point", [3, Fraction(-5, 7)], ids=["int", "fraction"])
def test_equal_atoms_hash_equal_and_share_dict_keys(point):
    atoms = _equal_atoms(point)
    keyed = {(PolyAtom(1, 0), a): i for i, a in enumerate(atoms)}
    for a in atoms:
        assert a == atoms[0] and hash(a) == hash(atoms[0])
        assert ({atoms[0]: 1}[a], {a: 2}[atoms[0]]) == (1, 2)
        assert keyed[(PolyAtom(1, 0), a)] == len(atoms) - 1
    assert len(keyed) == 1 and len(set(atoms)) == 1


@pytest.mark.parametrize("point", [3, Fraction(-5, 7)], ids=["int", "fraction"])
def test_unchecked_atoms_pickle_and_intern_as_checked_ones(point):
    import pickle
    from polymaass.symcalc import _Atoms
    for fam in (Family("eisenstein"), Family("poincare", index=-2), Family("incoherent", disc=3)):
        made, checked = SpectralAtom._make(fam, 2, Fraction(point), 1), SpectralAtom(fam, 2, point, 1)
        again = pickle.loads(pickle.dumps(made))
        assert made == checked == again and hash(made) == hash(checked) == hash(again)
        assert type(again.point) is Fraction and again.pending is None
        # an atom gets one id, whether it comes in from a form or is built
        # from its coordinates by a step
        P, Q = Fraction(point).numerator, Fraction(point).denominator
        atoms = _Atoms()
        assert atoms.id(checked) == atoms.at(fam, 2, P, Q, 1) == 0
        assert atoms.at(fam, 2, P, Q, 0) == atoms.id(SpectralAtom(fam, 2, point, 0)) == 1
        assert atoms.id(SpectralAtom(fam, 2, point, 1, ("L", 1))) == 2
        assert atoms.atoms[1] == SpectralAtom(fam, 2, point, 0) and len(atoms.atoms) == 3


def test_cached_hash_stays_out_of_repr_eq_and_json():
    import dataclasses
    import pickle
    a, b = atom_E(2, Fraction(1, 3), 1), atom_E(2, Fraction(1, 3), 1)
    p, q = PolyAtom(3, 1), PolyAtom(3, 1)
    object.__setattr__(b, "_hash", hash(a) + 1)     # a stale cache changes nothing else
    object.__setattr__(q, "_hash", hash(p) + 1)
    assert a == b and repr(a) == repr(b) == "E^(1)_{2,1/3}"
    assert p == q and repr(p) == repr(q) == "e_{1,2}"
    assert str(hash(a)) not in repr(a)
    # the generated hash of the fields, so dict order and digests are unchanged
    assert hash(p) == hash((3, 1)) == hash(dataclasses.replace(q))
    assert [f.name for f in dataclasses.fields(a)] == ["family", "weight", "point",
                                                       "laurent", "pending"]
    assert [f.name for f in dataclasses.fields(p)] == ["m", "r"]
    assert form_to_json(form_of(p, a)) == form_to_json(form_of(q, b))
    assert form_to_json(form_of(p, a))["terms"][0] == {
        "poly": {"m": 3, "r": 1},
        "spectral": {"family": {"kind": "eisenstein"}, "weight": 2, "point": "1/3",
                     "laurent": 1, "pending": None},
        "coeff": [{"pi_exp": 0, "num": "1", "den": "1"}]}
    # string hashes differ between processes: a pickle carries the fields
    # only, and loading it hashes afresh
    data = pickle.dumps(b)
    assert b"_hash" not in data
    assert hash(pickle.loads(data)) == hash(a)
    # a Family caches the generated hash of its fields too
    f, g = Family(POINCARE, index=-3), Family(POINCARE, index=-3)
    object.__setattr__(g, "_hash", hash(f) + 1)
    assert f == g and repr(f) == repr(g) == "P[n=-3]"
    assert hash(f) == hash((POINCARE, -3, None)) == hash(dataclasses.replace(g))
    assert [x.name for x in dataclasses.fields(f)] == ["kind", "index", "disc"]
    assert form_to_json(form_of(p, SpectralAtom(f, 2, Fraction(1), 0))) \
        == form_to_json(form_of(p, SpectralAtom(g, 2, Fraction(1), 0)))
    data = pickle.dumps(g)
    assert b"_hash" not in data
    assert hash(pickle.loads(data)) == hash(f) and pickle.loads(data) == f


def test_empty_forms_of_any_weight_hash_alike():
    assert zero_form(0) == zero_form(2)
    assert hash(zero_form(0)) == hash(zero_form(2))
    assert len({zero_form(0), zero_form(2)}) == 1
    f = form_of(PolyAtom(0, 0), atom_E(0, 0, 1))
    assert f - f == zero_form(4) and (f - f) in {zero_form(-2)}
    assert f in {form_of(PolyAtom(0, 0), atom_E(0, 0, 1))}
    assert len({f, zero_form(0), 2 * f}) == 3


def test_pretty_is_deterministic():
    f = form_of(PolyAtom(0, 0), atom_E(0, 0, 1)) + form_of(PolyAtom(0, 0), atom_E(0, 0, 0))
    assert pretty(f) == "E^(1)_{0,0}  +  E^(0)_{0,0}"


@pytest.mark.parametrize("coeff, text", [({0: 1, 1: 1}, "(1 + pi) E^(0)_{2,0}"),
                                         ({0: 1, 1: -2}, "(1 - 2*pi) E^(0)_{2,0}")])
def test_pretty_parenthesizes_a_coefficient_of_several_terms(coeff, text):
    assert pretty(form_of(PolyAtom(0, 0), atom_E(2, 0), Scalar(coeff))) == text


def test_form_repr_counts_terms():
    assert repr(zero_form(3)) == "Form<0 @ wt 3>"
    assert repr(make_e_atom(0, 0)) == "Form<1 terms @ wt 0>"


@pytest.mark.parametrize("build, message", [
    (lambda: Family("bogus"), "unknown family kind 'bogus'"),
    (lambda: Family("poincare"), "Poincare family needs a nonzero index"),
    (lambda: Family("incoherent"), "incoherent family needs a discriminant"),
])
def test_family_refuses_an_incomplete_identity(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("direction, weight", [("L", -4), ("R", 8)])
def test_apply_power_is_one_apply_call(monkeypatch, direction, weight):
    # all three passes run inside one call, on one integer image
    from polymaass import symcalc as sc
    f = form_of(PolyAtom(2, 1), atom_E(2, 0, 1))
    step = apply_lowering if direction == "L" else apply_raising
    want = step(step(step(f)))
    calls, apply = [], sc._apply
    monkeypatch.setattr(sc, "_apply", lambda *args: calls.append(args[1:]) or apply(*args))
    assert apply_power(f, direction, 3) == want
    assert calls == [(weight, direction, 3)]


# --- pole table loading ------------------------------------------------------

def test_pole_table_json_round_trip(tmp_path):
    import json as _json
    from polymaass import symcalc as sc
    table_json = [{
        "family": {"kind": "eisenstein"},
        "weight": 0,
        "point": "1",
        "order": 1,
        "residue_form": sc.form_to_json(
            form_of(PolyAtom(0, 0), CONST_ATOM, Scalar.pi_power(-1, 3))),
    }]
    path = tmp_path / "poles.json"
    path.write_text(_json.dumps(table_json))
    with sc.using_poles(sc.load_pole_table(str(path))):
        got = apply_lowering(form_of(PolyAtom(0, 0), atom_E(2, 0)))
        want = form_of(PolyAtom(0, 0), CONST_ATOM, Scalar.pi_power(-1, 3))
        assert forms_equal(got, want)
        # an empty table drops the residue: L E_2 becomes structurally zero
        with sc.using_poles(sc.pole_table({})):
            got = apply_lowering(form_of(PolyAtom(0, 0), atom_E(2, 0)))
            assert got.is_empty()


def _lowered_e2():
    return apply_lowering(form_of(PolyAtom(0, 0), atom_E(2, 0)))


THREE_OVER_PI = form_of(PolyAtom(0, 0), CONST_ATOM, Scalar.pi_power(-1, 3))


def test_default_poles_in_a_new_thread():
    # the default lives in the ContextVar itself, so a thread that starts
    # with an empty context still sees it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as pool:
        got = pool.submit(_lowered_e2).result()   # re-raises the worker's error
    assert forms_equal(got, THREE_OVER_PI)


def test_using_poles_restores_the_table_after_an_exception():
    from polymaass import symcalc as sc
    with pytest.raises(RuntimeError):
        with sc.using_poles(sc.pole_table({})):
            assert _lowered_e2().is_empty()
            raise RuntimeError
    assert forms_equal(_lowered_e2(), THREE_OVER_PI)


def test_pole_table_is_read_only():
    from polymaass import symcalc as sc
    entries = {(Family("eisenstein"), 0, Fraction(1)): THREE_OVER_PI}
    table = sc.pole_table(entries)
    with pytest.raises(TypeError):
        table[(Family("eisenstein"), 2, Fraction(0))] = THREE_OVER_PI
    with pytest.raises(TypeError):
        sc.DEFAULT_POLES[(Family("eisenstein"), 2, Fraction(0))] = THREE_OVER_PI
    # the table is a copy: changing the entries afterwards leaves it alone
    entries.clear()
    assert len(table) == 1


@pytest.mark.parametrize("point, text", [(Fraction(1), "(E, 0, 1)"),
                                         (Fraction(-1, 2), "(E, 0, -1/2)")])
def test_pole_table_messages_write_the_key_as_a_user_would(point, text):
    from polymaass import symcalc as sc
    key = (Family("eisenstein"), 0, point)
    with pytest.raises(DomainError) as err:
        sc.pole_table({key: E(2, 0)})
    assert str(err.value) == "pole residue weight mismatch at " + text
    pending = form_of(PolyAtom(0, 0), SpectralAtom(Family("eisenstein"), 2, Fraction(-1), 0,
                                                   ("L", 1)))
    with pytest.raises(DomainError) as err:
        sc.pole_table({key: pending})
    assert str(err.value) == "pole residues must be expanded (L^1 E^(0)_{2,-1} at %s)" % text


@pytest.mark.parametrize("field, value", [
    ("weight", 0.7), ("order", 1.9), ("order", 1.0), ("weight", "0"),
])
def test_pole_table_json_rejects_non_integers(tmp_path, field, value):
    import json as _json
    from polymaass import symcalc as sc
    entry = {"family": {"kind": "eisenstein"}, "weight": 0, "point": "1", "order": 1,
             "residue_form": sc.form_to_json(THREE_OVER_PI)}
    entry[field] = value
    path = tmp_path / "poles.json"
    path.write_text(_json.dumps([entry]))
    with pytest.raises(DomainError, match="^malformed pole table JSON: "):
        sc.load_pole_table(str(path))


def test_pole_table_json_refuses_a_pole_of_order_two(tmp_path):
    import json as _json
    from polymaass import symcalc as sc
    entry = {"family": {"kind": "eisenstein"}, "weight": 0, "point": "1", "order": 2,
             "residue_form": sc.form_to_json(THREE_OVER_PI)}
    path = tmp_path / "poles.json"
    path.write_text(_json.dumps([entry]))
    with pytest.raises(DomainError) as err:
        sc.load_pole_table(str(path))
    assert str(err.value) == "pole order capped at 1"


@pytest.mark.parametrize("points", [("1", "1"), ("1", "2/2"), (1, "3/3")])
def test_pole_table_json_refuses_a_key_named_twice(tmp_path, points):
    # two entries at (E, 0, 1), however the point is spelled, are refused,
    # not read as the last of them
    import json as _json
    from polymaass import symcalc as sc
    seven = form_of(PolyAtom(0, 0), CONST_ATOM, 7)
    path = tmp_path / "poles.json"
    path.write_text(_json.dumps([{"family": {"kind": "eisenstein"}, "weight": 0, "point": p,
                                  "residue_form": sc.form_to_json(res)}
                                 for p, res in zip(points, (THREE_OVER_PI, seven))]))
    with pytest.raises(DomainError) as err:
        sc.load_pole_table(str(path))
    assert str(err.value) == "pole table names (E, 0, 1) twice"


def test_pole_table_json_refuses_unknown_entry_keys(tmp_path):
    # a misspelled "order" once turned off the order-1 cap: the entry was
    # read as a simple pole
    import json as _json
    from polymaass import symcalc as sc
    entry = {"family": {"kind": "eisenstein"}, "weight": 0, "point": "1", "ordr": 2,
             "residue_form": sc.form_to_json(form_of(PolyAtom(0, 0), CONST_ATOM, 7)), "x": 0}
    path = tmp_path / "poles.json"
    path.write_text(_json.dumps([entry]))
    with pytest.raises(DomainError) as err:
        sc.load_pole_table(str(path))
    assert str(err.value) == "pole table entry has unknown keys ['ordr', 'x']"
    del entry["ordr"], entry["x"]
    path.write_text(_json.dumps([dict(entry, order=1)]))
    assert len(sc.load_pole_table(str(path))) == 1
    # a table written as one entry is malformed, not read key by key as entries
    path.write_text(_json.dumps(entry))
    with pytest.raises(DomainError, match="^malformed pole table JSON: string indices"):
        sc.load_pole_table(str(path))


def test_pole_table_refuses_a_residue_with_a_polynomial_part():
    from polymaass import symcalc as sc
    residue = form_of(PolyAtom(2, 1), CONST_ATOM, Scalar.pi_power(-1, 3))
    with pytest.raises(DomainError) as err:
        sc.pole_table({(Family("eisenstein"), 0, Fraction(1)): residue})
    assert str(err.value) == "pole residues must have trivial polynomial part"


def test_pole_table_json_rejects_float_point(tmp_path):
    import json as _json
    from polymaass import symcalc as sc
    entry = {"family": {"kind": "eisenstein"}, "weight": 0, "point": 0.1, "order": 1,
             "residue_form": sc.form_to_json(THREE_OVER_PI)}
    path = tmp_path / "poles.json"
    path.write_text(_json.dumps([entry]))
    with pytest.raises(DomainError, match="^malformed pole table JSON: .*int or a string"):
        sc.load_pole_table(str(path))


def test_pole_point_warning():
    import warnings as _w
    from polymaass.symcalc import PolePointWarning
    with _w.catch_warnings(record=True) as caught:
        _w.simplefilter("always")
        apply_lowering(form_of(PolyAtom(0, 0), atom_E(2, 0, 1)))
    assert any(issubclass(c.category, PolePointWarning) for c in caught)


def test_expand_pending_through_pole_point():
    # L^2 applied to the weight-2 family value: the residue picked up at the
    # first step is a constant, killed by the second lowering
    fam = Family("eisenstein")
    f = form_of(PolyAtom(0, 0), SpectralAtom(fam, 2, Fraction(0), 0, ("L", 2)))
    assert expand_pending(f).is_empty()
    # pending and iterated lowering agree across the pole
    g_pending = expand_pending(
        form_of(PolyAtom(0, 0), SpectralAtom(fam, 2, Fraction(0), 1, ("L", 2))))
    g_steps = apply_lowering(apply_lowering(form_of(PolyAtom(0, 0), atom_E(2, 0, 1))))
    assert g_pending == g_steps
    assert forms_equal(g_pending, form_of(PolyAtom(0, 0), atom_E(-2, 2, 0)))


# --- the closed-form drop test of a pending atom ----------------------------

@st.composite
def pending_atoms(draw):
    """A pending L^p or R^p, p <= 6, on an Eisenstein, Poincare or incoherent
    atom of weight -6..6 and order t <= 4 at a point of denominator Q <= 3."""
    kind = draw(st.sampled_from([EISENSTEIN, POINCARE, INCOHERENT]))
    fam = Family(kind, index=draw(st.sampled_from([-3, -1, 1, 2])) if kind == POINCARE else None,
                 disc=3 if kind == INCOHERENT else None)
    point = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 3)))
    return SpectralAtom(fam, draw(st.integers(-6, 6)), point, draw(st.integers(0, 4)),
                        (draw(st.sampled_from("LR")), draw(st.integers(1, 6))))


@settings(max_examples=500, deadline=None)
@given(a=pending_atoms(), table=st.sampled_from(["default", "empty", "unfold"]),
       step=st.integers(1, 6))
def test_drop_test_matches_the_unfolding(a, table, step):
    # "unfold" tables a rational residue at the column of step min(step, p)
    # of the unfolding, which image then decides from
    if table == "unfold":
        (op, p), fam, w, P, Q = a.pending, a.family, a.weight, a.point.numerator, \
            a.point.denominator
        for _ in range(min(step, p)):
            w, P, *_ = _step_rule(fam, w, P, Q, op)
        column = SpectralAtom(fam, w, Fraction(P, Q), 0)
        poles = pole_table({(fam, w, column.point): form_of(E00, column, Fraction(3, 7))})
    else:
        poles = {"default": DEFAULT_POLES, "empty": pole_table({})}[table]
    with using_poles(poles), warnings.catch_warnings():
        warnings.simplefilter("ignore", PolePointWarning)
        atoms = _Atoms()
        assert _Atoms().drops(a) == (not atoms.image(0, 0, atoms.id(a), "E")[1])


def test_chain_bands_computes_only_the_rules_of_its_directions(monkeypatch):
    calls, rule = [], symcalc._step_rule
    monkeypatch.setattr(symcalc, "_step_rule", lambda *args: calls.append(args[-1]) or rule(*args))
    for chain in ((3, Family(EISENSTEIN), 0, 1, 2), (3, Family(POINCARE, index=-2), -4, 1, 1)):
        for op, directions in (("L", "L"), ("R", "R"), ("D", "LR")):
            calls.clear()
            symcalc._chain_bands(chain, op)
            assert sorted(calls) == sorted(directions * 5)   # columns -1..3


# --- the band pass on flat layers ----------------------------------------------

def _delta_layers_reference(diags, layers):
    """The band pass as it ran on nested layers, before the flat layers: A
    u_t + B u_{t-1} + C u_{t-2} in each layer t, for bands A, B (and C)
    given by their nonzero diagonals (o, c), c[i] = M[i][i + o]."""
    n, T = len(layers[0]), len(layers)
    flat = [0] * (2 * n + 1) + [x for u in layers for x in u] + [0]
    acc = [0] * (n * T)
    for s, band in enumerate(diags):
        for o, c in band:
            acc = [a + x * y for a, x, y in zip(acc, c * T, flat[(2 - s) * n + 1 + o:])]
    return [acc[t * n:(t + 1) * n] for t in range(T)]


BAND_INTS = st.one_of(st.integers(-9, 9), st.integers(-2 ** 300, 2 ** 300))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), T=st.integers(1, 10), bands=st.integers(1, 3),
       passes=st.integers(1, 3))
def test_flat_band_pass_matches_the_nested_one(data, n, T, bands, passes):
    # diagonals at offsets -1..1 (c is 0 where i + o leaves a layer), under
    # leading zero layers, which stay zero in the image; passes passes in
    # one call are that many nested ones
    def diagonal(o):
        c = data.draw(st.lists(BAND_INTS, min_size=n, max_size=n))
        return o, [x if 0 <= i + o < n else 0 for i, x in enumerate(c)]
    offsets = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=3, unique=True)
    diags = [[diagonal(o) for o in sorted(data.draw(offsets))] for _ in range(bands)]
    lead = data.draw(st.integers(0, T))
    layers = [[0] * n for _ in range(lead)] + [data.draw(st.lists(BAND_INTS, min_size=n,
                                                                  max_size=n))
                                               for _ in range(T - lead)]
    got = symcalc._delta_layers(diags, [x for u in layers for x in u], passes)
    for _ in range(passes):
        layers = _delta_layers_reference(diags, layers)
    assert got == [x for u in layers for x in u]
    assert not any(got[:lead * n])


def _untrimmed_tower(tower):
    """classify._tower as its chain path ran before a pass dropped the
    vanished orders: nested layers, each set through _delta_layers_reference;
    tower (the real one) where f leaves the chains."""
    def untrimmed(f, low=1, high=0):
        sets = symcalc._chain_layers(f, low, high)
        if sets is None:
            return tower(f, low, high)

        def apply(level, op):
            out = {}
            for (chain, e), layers in level.items():
                diags, image = symcalc._chain_bands(chain, op)
                layers = _delta_layers_reference(diags, layers)
                if any(map(any, layers)):
                    out[image, e] = layers
            return out

        def vanishes(level, op, power):
            for _ in range(power):
                level = apply(level, op)
            return not level
        levels = [{key: [v[i:i + key[0][0] + 1] for i in range(0, len(v), key[0][0] + 1)]
                   for key, v in sets.items()}]
        while levels[-1] and len(levels) <= sum(map(len, sets.values())):
            levels.append(apply(levels[-1], "D"))
        return (levels[:-1] or levels, vanishes) if not levels[-1] else tower(f, low, high)
    return untrimmed


# (case, k, deepest d) of the benchmark's case forms
BENCH_DEPTHS = (("Ia", -2, 2), ("Ia", -3, 6), ("Ia", -4, 4), ("Ib", -1, 4), ("Ib", -3, 6),
                ("Ic", -1, 8), ("Ic", -3, 4), ("Id", -1, 3), ("Id", -3, 8), ("IIa", 1, 7),
                ("IIb", 1, 8), ("IIIa", 2, 5), ("IIIa", 3, 2), ("IIIb", 3, 9), ("IIIb", 4, 8),
                ("IIIb", 5, 5), ("IIIb", 6, 3), ("IIIb", 7, 2), ("IIIb", 8, 1), ("IIIc", 2, 6),
                ("IIIc", 3, 3), ("IIId", 2, 8), ("IIId", 4, 4))


@pytest.mark.parametrize("poles", ["default", "empty"])
def test_trimmed_tower_classifies_as_the_untrimmed_one(poles, monkeypatch):
    # every case form up to the benchmark's depths, on both anchors where a
    # case has two: its levels are the untrimmed ones less their leading
    # zero layers, and classify_bk and exact_depth give the same label,
    # depth, error and warnings
    from polymaass import classify
    from polymaass.specsolve import construct_case
    untrimmed, forms = _untrimmed_tower(classify._tower), []
    with using_poles({"default": DEFAULT_POLES, "empty": pole_table({})}[poles]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PolePointWarning)
            for label, k, depth in BENCH_DEPTHS:
                for d in range(1 if label == "IIId" else 0, depth + 1):
                    for kw in ([{}, {"family": "poincare"}] if label in ("Ia", "Id", "IIIa")
                               else [{}]):
                        forms.append(construct_case(label, k, d, **kw))
        trimmed = on_chains = 0
        for f in forms:
            low, high = max(1, f.weight), max(0, 1 - f.weight)
            levels, want = classify._tower(f, low, high)[0], untrimmed(f, low, high)[0]
            assert len(levels) == len(want)
            if isinstance(levels[0], dict):
                on_chains += 1
                for level, full in zip(levels, want):
                    assert level.keys() == full.keys()
                    for key, layers in level.items():
                        kept = list(itertools.dropwhile(lambda u: not any(u), full[key]))
                        assert layers == [x for u in kept for x in u]
                        trimmed += len(kept) < len(full[key])
        results = [(_reading(classify.classify_bk, f), _reading(classify.exact_depth, f))
                   for f in forms]
        monkeypatch.setattr(classify, "_tower", untrimmed)
        assert results == [(_reading(classify.classify_bk, f), _reading(classify.exact_depth, f))
                           for f in forms]
    assert on_chains > len(forms) // 2 and trimmed > on_chains


def test_steps_onto_tabled_or_vanishing_columns_build_no_checked_atom(monkeypatch):
    # L^2 of IIIb forms steps onto the tabled (E, 0, 1), and R of the IIb
    # seed onto the column where its family vanishes; _Atoms._step drops
    # and warns from the column record alone, as _atom does
    from polymaass.specsolve import construct_case
    forms = [(construct_case("IIIb", k, d), "L", 2) for k, d in ((3, 2), (4, 3))]
    forms.append((construct_case("IIb", 1, 0), "R", 1))

    def run():
        out = []
        for f, op, power in forms:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                g = apply_power(f, op, power)
            out.append((pretty(g), form_to_json(g), [str(c.message) for c in caught]))
        return out
    want = run()

    def refuse(*args, **kwargs):
        raise AssertionError("a checked atom was built")
    monkeypatch.setattr(symcalc, "_atom", refuse)
    assert run() == want
    assert [len(w) for *_g, w in want] == [2, 3, 0]
    assert want[2][0] == "E-^(0)_{D=3}"   # the order-0 atom dropped


def test_columns_find_rational_and_integral_pole_points():
    # the table is read by the int P at Q = 1, which an entry keyed by the
    # equal Fraction(1) still answers, and by the Fraction P/Q otherwise
    fam = Family(POINCARE, index=-1)
    res0 = form_of(E00, atom_P(0, -1, 1), Fraction(3, 7))
    res2 = form_of(E00, atom_P(2, -1, Fraction(1, 2)), 5)
    with using_poles(pole_table({(fam, 0, Fraction(1)): res0, (fam, 2, Fraction(1, 2)): res2})):
        columns = symcalc._Columns()
        assert columns[fam, 0, 1, 1] == (1, False, 0, res0)
        assert columns[fam, 2, 1, 2] == (Fraction(1, 2), False, 0, res2)
        assert columns[fam, 2, 1, 1] == (1, True, 0, None)
        assert columns[fam, 0, 1, 2] == (Fraction(1, 2), True, 0, None)
        assert all(type(p) is Fraction for p, *_rest in columns.values())
