from fractions import Fraction

import pytest

from polymaass.scalars import Scalar
from polymaass.symcalc import (CONST_ATOM, DomainError, Family, Form, PolyAtom,
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
            SpectralAtom(fam, 2, point, 1), SpectralAtom(fam, 2, Fraction(point), 1)]


@pytest.mark.parametrize("point", [3, Fraction(-5, 7)], ids=["int", "fraction"])
def test_equal_atoms_hash_equal_and_share_dict_keys(point):
    atoms = _equal_atoms(point)
    keyed = {(PolyAtom(1, 0), a): i for i, a in enumerate(atoms)}
    for a in atoms:
        assert a == atoms[0] and hash(a) == hash(atoms[0])
        assert ({atoms[0]: 1}[a], {a: 2}[atoms[0]]) == (1, 2)
        assert keyed[(PolyAtom(1, 0), a)] == len(atoms) - 1
    assert len(keyed) == 1 and len(set(atoms)) == 1


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
