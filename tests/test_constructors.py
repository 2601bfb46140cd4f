"""Every public constructor, and apply_power and apply_laplace, refuses a
bool, a float or a string where it takes an int or a rational, with
DomainError, as apply_power does for a direction other than L and R; and
every value that a constructor accepts comes back unchanged from its JSON."""

import itertools
import json
import warnings
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from polymaass import linalg, specsolve, symcalc
from polymaass.numcheck import EvalConfig
from polymaass.quiverrep import (CYCLIC, GELFAND, HCFragment, QuiverRep, build_cyclic_module,
                                 cyclic_module_dims, random_fragment)
from polymaass.scalars import DomainError, Scalar
from polymaass.specsolve import (GradedVector, WModel, _layered_preimage, _poincare_blocks,
                                 construct_case, delta_matrix_on_span, eisenstein_family,
                                 poincare_family, preimage_constant_weight, preimage_incoherent,
                                 solve_wd)
from polymaass.symcalc import (CONST_ATOM, DEFAULT_POLES, E00, EISENSTEIN, INCOHERENT, POINCARE,
                               Family, Form, PolyAtom, SpectralAtom, _Columns, apply_flip,
                               apply_laplace, apply_power, atom_E, atom_incoherent, atom_P,
                               form_from_json, form_of, form_to_json, pole_table, pretty,
                               using_poles, vanishing_order)

E = Family(EISENSTEIN)
ONE = [[Fraction(1)]]
FRAGMENT = random_fragment(2, 2, seed=3)
ANCHOR = eisenstein_family(0, 0)

# one entry per int or rational argument: the constructor call with that
# argument replaced by the value drawn
SLOTS = {
    "PolyAtom.m": lambda v: PolyAtom(v, 0),
    "PolyAtom.r": lambda v: PolyAtom(2, v),
    "Family.index": lambda v: Family(POINCARE, index=v),
    "Family.disc": lambda v: Family(INCOHERENT, disc=v),
    "SpectralAtom.weight": lambda v: SpectralAtom(E, v, Fraction(0), 0),
    "SpectralAtom.point": lambda v: SpectralAtom(E, 0, v, 0),
    "SpectralAtom.laurent": lambda v: SpectralAtom(E, 0, Fraction(0), v),
    "SpectralAtom.pending": lambda v: SpectralAtom(E, 0, Fraction(0), 0, ("L", v)),
    "atom_E.weight": lambda v: atom_E(v, 0),
    "atom_E.point": lambda v: atom_E(0, v),
    "atom_E.laurent": lambda v: atom_E(0, 0, v),
    "atom_P.weight": lambda v: atom_P(v, -1, 0),
    "atom_P.index": lambda v: atom_P(0, v, 0),
    "atom_P.point": lambda v: atom_P(0, -1, v),
    "atom_P.laurent": lambda v: atom_P(0, -1, 0, v),
    "atom_incoherent.disc": lambda v: atom_incoherent(v, 0),
    "atom_incoherent.order": lambda v: atom_incoherent(3, v),
    "form_of.coeff": lambda v: form_of(E00, CONST_ATOM, v),
    "Form.weight": lambda v: Form(v),
    "apply_power.power": lambda v: apply_power(form_of(E00, CONST_ATOM), "L", v),
    "apply_laplace.power": lambda v: apply_laplace(form_of(E00, CONST_ATOM), v),
    # an int picks L or R; any other value names a direction by its repr
    "apply_power.direction": lambda v: apply_power(form_of(E00, CONST_ATOM),
                                                   "LR"[v] if type(v) is int else repr(v), 1),
    "Scalar.coefficient": lambda v: Scalar({0: v}),
    "Scalar.exponent": lambda v: Scalar({v: 1}),
    "Scalar.from_rational": lambda v: Scalar.from_rational(v),
    "Scalar.pi_power.exponent": lambda v: Scalar.pi_power(v, 1),
    "Scalar.pi_power.coefficient": lambda v: Scalar.pi_power(0, v),
    "GradedVector.k": lambda v: GradedVector(v, 0, "L", 0, ONE),
    "GradedVector.m": lambda v: GradedVector(0, v, "L", 0, ONE),
    "GradedVector.d": lambda v: GradedVector(0, 0, "L", v, ONE),
    "GradedVector.entry": lambda v: GradedVector(0, 0, "L", 0, [[v]]),
    "GradedVector.preimage_scale": lambda v: GradedVector(0, 0, "L", 0, ONE, v),
    "eisenstein_family.weight": lambda v: eisenstein_family(v, 0),
    "eisenstein_family.point": lambda v: eisenstein_family(0, v),
    "eisenstein_family.orientation": lambda v: eisenstein_family(0, 0, v),
    "poincare_family.weight": lambda v: poincare_family(v, -1, 0),
    "poincare_family.index": lambda v: poincare_family(0, v, 0),
    "poincare_family.point": lambda v: poincare_family(0, -1, v),
    "QuiverRep.dimension": lambda v: QuiverRep(CYCLIC, {"-": v, "+": 1},
                                               {"a": [[0]], "b": [[0]]}),
    "QuiverRep.entry": lambda v: QuiverRep(CYCLIC, {"-": 1, "+": 1},
                                           {"a": [[v]], "b": [[0]]}),
    "WModel.k": lambda v: WModel(v, 0, "L"),
    "WModel.m": lambda v: WModel(0, v, "L"),
    "solve_wd.d": lambda v: solve_wd(0, 2, "L", v),
    "construct_case.k": lambda v: construct_case("Ia", v, 1),
    "construct_case.d": lambda v: construct_case("Ia", 0, v),
    "construct_case.index": lambda v: construct_case("Ia", 0, 1, index=v),
    "construct_case.disc": lambda v: construct_case("IIb", 1, 1, disc=v),
    "preimage_constant_weight.k": lambda v: preimage_constant_weight(v, 1, ANCHOR),
    "preimage_constant_weight.d": lambda v: preimage_constant_weight(0, v, ANCHOR),
    "preimage_incoherent.disc": lambda v: preimage_incoherent(v, 0),
    "preimage_incoherent.d": lambda v: preimage_incoherent(3, v),
    "cyclic_module_dims.d": lambda v: cyclic_module_dims(GELFAND, "*", "a", v),
    "build_cyclic_module.d": lambda v: build_cyclic_module(GELFAND, "*", "a", v),
    "random_fragment.l": lambda v: random_fragment(v, 2),
    "random_fragment.dim": lambda v: random_fragment(2, v),
    "EvalConfig.trunc": lambda v: EvalConfig(trunc=v),
    "HCFragment.l": lambda v: HCFragment(v, z_minus=[[0]], z_plus=[[0]]),
    "HCFragment.entry": lambda v: HCFragment(
        2, x_minus=FRAGMENT.x_minus, xs=FRAGMENT.xs, x_plus=FRAGMENT.x_plus,
        y_plus=FRAGMENT.y_plus, ys=FRAGMENT.ys, y_minus=[[v, 0], [0, 0]]),
}

INEXACT = st.booleans() | st.floats() | st.text(max_size=4)


def test_every_slot_accepts_an_exact_value():
    # the same calls with an int in the slot build a value, so each check
    # below fails on the drawn value and not on the rest of the call
    exact = {"SpectralAtom.pending": 1, "atom_incoherent.disc": 3, "atom_P.index": -1,
             "poincare_family.index": -1, "Family.index": 2, "Family.disc": 3,
             "PolyAtom.m": 2, "QuiverRep.dimension": 1, "eisenstein_family.orientation": 1,
             "GradedVector.preimage_scale": 1, "Scalar.coefficient": 1,
             "Scalar.from_rational": 1, "Scalar.pi_power.coefficient": 1,
             "construct_case.index": -1, "construct_case.disc": 3,
             "preimage_incoherent.disc": 3, "random_fragment.l": 2,
             "random_fragment.dim": 2, "EvalConfig.trunc": 1}
    for slot, build in SLOTS.items():
        build(exact.get(slot, 0))


@pytest.mark.parametrize("slot", sorted(SLOTS))
@settings(deadline=None, max_examples=30)
@given(value=INEXACT)
def test_constructor_refuses_a_bool_float_or_string(slot, value):
    with pytest.raises(DomainError):
        SLOTS[slot](value)


# --- JSON round trips -----------------------------------------------------------

rationals = st.fractions(-20, 20, max_denominator=12)
scalars = st.dictionaries(st.integers(-3, 3), rationals, max_size=3).map(Scalar)


@st.composite
def forms(draw):
    """A form of weight -4..4: each term's atom of any family, expanded or
    pending and at or above its vanishing order, and its polynomial vector
    chosen to match the weight."""
    weight = draw(st.integers(-4, 4))
    acc = {}
    for _ in range(draw(st.integers(0, 4))):
        fam = draw(st.sampled_from([E, Family(POINCARE, index=-3), Family(INCOHERENT, disc=4)]))
        w, p = draw(st.integers(-3, 3)), draw(rationals)
        t = max(draw(st.integers(0, 2)), vanishing_order(fam, w, p))
        pending = draw(st.none() | st.tuples(st.sampled_from("LR"), st.integers(1, 3)))
        a = draw(st.sampled_from([CONST_ATOM, SpectralAtom(fam, w, p, t, pending)]))
        need = weight - a.effective_weight
        m = abs(need) + 2 * draw(st.integers(0, 1))
        acc[PolyAtom(m, (m - need) // 2), a] = draw(scalars)
    return Form(weight, acc)


@st.composite
def graded_vectors(draw):
    m, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    layers = draw(st.lists(st.lists(rationals, min_size=m + 1, max_size=m + 1),
                           min_size=d + 1, max_size=d + 1))
    return GradedVector(draw(st.integers(-5, 5)), m, draw(st.sampled_from("LR")), d, layers,
                        draw(rationals.filter(bool)))


def matrices(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def quiver_reps(draw):
    """A two-cyclic representation, or a Gelfand one whose + arrows repeat
    its - arrows, so that the relation holds."""
    lo, hi = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    a, b = draw(matrices(hi, lo)), draw(matrices(lo, hi))
    if draw(st.booleans()):
        return QuiverRep(CYCLIC, {"-": lo, "+": hi}, {"a": a, "b": b})
    return QuiverRep(GELFAND, {"-": lo, "*": hi, "+": lo},
                     {"A-": a, "B-": b, "A+": a, "B+": b})


@st.composite
def fragments(draw):
    """A seeded random fragment with l >= 1, or an l = 0 fragment whose
    z_plus is zero, so that its end composite is nilpotent."""
    if draw(st.booleans()):
        return random_fragment(draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                               seed=draw(st.integers(0, 1000)))
    lo, hi = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return HCFragment(0, z_minus=draw(matrices(hi, lo)), z_plus=[[0] * hi for _ in range(lo)])


@settings(deadline=None)
@given(f=forms())
def test_form_json_round_trip(f):
    assert form_from_json(form_to_json(f)) == f


@given(s=scalars)
def test_scalar_json_round_trip(s):
    assert Scalar.from_json(s.to_json()) == s


@given(gv=graded_vectors())
def test_graded_vector_json_round_trip(gv):
    assert GradedVector.from_json(gv.to_json()) == gv


@settings(deadline=None)
@given(rep=quiver_reps())
def test_quiver_rep_json_round_trip(rep):
    assert QuiverRep.from_json(rep.to_json()) == rep


@settings(deadline=None)
@given(frag=fragments())
def test_fragment_json_round_trip(frag):
    assert HCFragment.from_json(frag.to_json()) == frag


@st.composite
def spelled(draw, x):
    """A JSON string of the rational x: str(x), or both terms times k, or
    either with a leading + when x >= 0."""
    k = draw(st.integers(1, 3))
    text = str(x) if k == 1 else "%d/%d" % (x.numerator * k, x.denominator * k)
    return ("+" if x >= 0 and draw(st.booleans()) else "") + text


@settings(deadline=None)
@given(data=st.data())
def test_quiver_rep_reads_alike_from_dense_rows_and_from_json(data):
    # JSON entries are read to integers (a plain integer string by int,
    # the rest by Fraction): the value is the one the public constructor
    # builds from the same Fraction matrices
    lo, hi = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    maps = {"a": data.draw(matrices(hi, lo)), "b": data.draw(matrices(lo, hi))}
    dense = QuiverRep(CYCLIC, {"-": lo, "+": hi}, maps)
    read = QuiverRep.from_json({"quiver": CYCLIC, "dims": {"-": lo, "+": hi}, "maps": {
        name: [[data.draw(spelled(x)) for x in row] for row in m] for name, m in maps.items()}})
    assert read.int_maps == dense.int_maps and read == dense
    assert json.dumps(read.to_json()) == json.dumps(dense.to_json())
    assert read.maps == dense.maps == {name: tuple(map(tuple, m)) for name, m in maps.items()}


# ---------------------------------------------------------------------------
# the Poincare cases on the Ib chain's integer layers


def _poincare_case_by_forms(label, k, d, index):
    """construct_case's Ib, Ic, IIIc and IIId composed of Forms: the Ib chain
    written into a Form, apply_flip for Ic, apply_power for the raisings."""
    if label == "IIIc":
        return apply_power(_poincare_case_by_forms("Ic", 2 - k, d + 1, index), "R", k - 1)
    if label == "IIId":
        return apply_power(_poincare_case_by_forms("Ib", 2 - k, d, index), "R", k - 1)
    if label == "Ic":
        return apply_flip(_poincare_case_by_forms("Ib", k, d, index))
    m, fam, one, columns = 2 - k, Family(POINCARE, index=index), Fraction(1), _Columns()
    grid = [(m, 0)] + [(r, t) for r in range(m + 1) for t in range(d + 1) if (r, t) != (m, 0)]
    keys = [(PolyAtom(m, r), SpectralAtom(fam, 2 - 2 * (m - r), one, t)) for r, t in grid]
    if not all(columns[fam, w, 1, 1][1] for w in range(-2 * m, 3, 2)):
        # M^d on the span's matrix, free columns zero
        pool, M, exps = delta_matrix_on_span(keys)
        y = M.power(d).solve([1] + [0] * (len(pool) - 1))
        if y is None:
            raise DomainError("no Delta^%d preimage in the span" % d)
        return Form(k, {pool[i]: Scalar.pi_power(exps[i], q) for i, q in enumerate(y) if q})
    pos = [t * (m + 1) + r for r, t in grid]
    den, x = _layered_preimage(_poincare_blocks(m), d, [0] * m + [1], pos)
    N = 4 * abs(index)
    return Form(k, {key: Scalar.pi_power(r - m, Fraction(x[p], den * factorial(t) * N ** (m - r)))
                    for key, (r, t), p in zip(keys, grid, pos) if x[p]})


def _built(build, *args):
    """build(*args), its JSON, its display and the texts of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = build(*args)
    return f, json.dumps(form_to_json(f)), pretty(f), [str(c.message) for c in caught]


def _p1_pole(index, w):
    # a rational residue at (P[index], w, 1), of its own family at order 0
    fam = Family(POINCARE, index=index)
    return pole_table({(fam, w, Fraction(1)): form_of(E00, atom_P(w, index, 1), Fraction(3, 7))})


POINCARE_CASE_KS = {"Ib": range(0, -6, -1), "Ic": range(0, -6, -1), "IIIc": range(2, 8),
                    "IIId": range(2, 8)}


def test_poincare_cases_on_layers_match_the_form_path():
    for table in (DEFAULT_POLES, pole_table({})):
        with using_poles(table):
            for label, ks in POINCARE_CASE_KS.items():
                for k, d, index in itertools.product(ks, range(label == "IIId", 7),
                                                     (-1, -2, -3, -6)):
                    got = _built(construct_case, label, k, d, index)
                    want = _built(_poincare_case_by_forms, label, k, d, index)
                    assert got == want, (label, k, d, index)
                    if label == "Ib":   # in the order of the span's pool
                        assert list(got[0].terms) == list(want[0].terms)
    # a pole that only the R passes of Ic at k = -2, d = 3 visit (its chain's
    # columns are at weights -8..2 and its R passes reach 6), and one that
    # only its mirror visits (at weights -6..2 of P[1]): the Forms are
    # composed, with the output of no pole and one warning text
    plain = _built(construct_case, "Ic", -2, 3, -1)
    for table in (_p1_pole(-1, 4), _p1_pole(1, -4)):
        with using_poles(table):
            got = _built(construct_case, "Ic", -2, 3, -1)
            assert got == _built(_poincare_case_by_forms, "Ic", -2, 3, -1)
            for label, k, d in (("Ib", -2, 3), ("IIIc", 4, 2), ("IIId", 4, 3)):
                assert _built(construct_case, label, k, d, -1) == \
                    _built(_poincare_case_by_forms, label, k, d, -1)
        assert got[:3] == plain[:3] and len(set(got[3])) == 1 and got[3] and not plain[3]


def test_poincare_cases_build_no_form_operator_or_atom_table(monkeypatch):
    shapes = [("Ic", -3, 4), ("Ic", 0, 2), ("IIIc", 3, 3), ("IIId", 5, 2), ("Ib", -2, 3)]
    want = [construct_case(label, k, d, index=-2) for label, k, d in shapes]

    def refuse(*args, **kwargs):
        raise AssertionError("a Form operator ran")
    for module, name in ((symcalc, "_apply"), (symcalc, "apply_mirror"), (symcalc, "_Atoms"),
                         (specsolve, "_Atoms")):
        monkeypatch.setattr(module, name, refuse)
    assert [construct_case(label, k, d, index=-2) for label, k, d in shapes] == want


def test_layered_preimage_eliminates_p0_once(monkeypatch):
    # one elimination of [P_0 | I] gives P_0's solver, its left conditions
    # and ker P_0, and one more reduces the kernel basis
    calls, eliminate = [], linalg._eliminate

    def counted(rows):
        calls.append(1)
        return eliminate(rows)
    for module in (linalg, specsolve):
        monkeypatch.setattr(module, "_eliminate", counted)
    for m, d in ((2, 0), (2, 3), (3, 1), (6, 4)):
        grid = [(m, 0)] + [(r, t) for r in range(m + 1) for t in range(d + 1) if (r, t) != (m, 0)]
        calls.clear()
        _layered_preimage(_poincare_blocks(m), d, [0] * m + [1], [t * (m + 1) + r for r, t in grid])
        assert len(calls) == 2, (m, d)
