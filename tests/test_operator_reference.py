"""The operator path against the one it replaced.

The package once stepped an atom in Scalars into an (atoms, residues)
pair and applied L and R by the Leibniz rule term by term.  That step and
that rule are kept below as the reference; its unfolding of a pending power
OP^p S is p passes of its own L or R over e_{0,0} (x) S, so that it adds
each pass's terms in the order the package does.  L, R, their powers,
Delta, expansion and the zero test of the package's integer rule must give
forms equal to the reference's, under the default pole table, an empty
one, and one whose residues hold non-constant atoms (so that the remaining
passes act on the residue).  The integer Delta-closure must give the rows,
in the same order, read off the reference's Delta images.
"""

import math
import warnings
from fractions import Fraction
from typing import Dict, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from polymaass.scalars import ONE, ZERO, DomainError, Scalar
from polymaass.symcalc import (CONST_ATOM, CONST_FAMILY, CONSTANT, DEFAULT_POLES, E00,
                               EISENSTEIN, INCOHERENT, POINCARE, _POLES, Family, Form,
                               PolePointWarning, PolyAtom, SpectralAtom, _laplace_rows,
                               apply_laplace, apply_lowering, apply_power, apply_raising,
                               expand_pending, form_of, forms_equal, is_zero, pole_table,
                               using_poles, vanishing_order, zero_form)


# --- the reference ----------------------------------------------------------

def _ref_atom(fam: Family, w: int, p: Fraction, t: int):
    """The expanded atom of order t at (w, p), or None below the family's
    vanishing order there; an atom at a tabled point warns."""
    if t < vanishing_order(fam, w, p):
        return None
    if (fam, w, p) in _POLES.get():
        warnings.warn("atom at tabled pole point (weight %d, point %s); using Laurent "
                      "coefficients of the continued family" % (w, p), PolePointWarning)
    return SpectralAtom(fam, w, p, t)


def _spectral_step(a: SpectralAtom, direction: str):
    """One application of L or R to an expanded atom.

    Returns (atom_terms, residue_forms): a list of (SpectralAtom, Scalar)
    plus a list of (Form, Scalar) for pole-table substitutions.
    """
    assert a.pending is None
    fam, w, p, t = a.family, a.weight, a.point, a.laurent
    if fam.kind == CONSTANT:
        return [], []
    if fam.is_eisenstein_like():
        if direction == "L":
            w2, p2, pref = w - 2, p + 1, Scalar.from_rational(p)
        else:
            w2, p2, pref = w + 2, p - 1, Scalar.from_rational(p + w)
        unit = ONE
    else:  # Poincare
        n = abs(a.family.index)
        if direction == "L":
            w2, p2 = w - 2, p
            pref = Scalar.from_rational(p - Fraction(w, 2))
            unit = Scalar.pi_power(-1, Fraction(1, 4 * n))
        else:
            w2, p2 = w + 2, p
            pref = Scalar.from_rational(p + Fraction(w, 2))
            unit = Scalar.pi_power(1, 4 * n)
    atoms = []
    residues = []
    if not pref.is_zero():
        sub = _ref_atom(fam, w2, p2, t)
        if sub is not None:
            atoms.append((sub, pref * unit))
    if t >= 1:
        sub = _ref_atom(fam, w2, p2, t - 1)
        if sub is not None:
            atoms.append((sub, Scalar.from_rational(t) * unit))
    else:  # t == 0: formal residue coefficient of the shifted family
        res = _POLES.get().get((fam, w2, p2))
        if res is not None:
            residues.append((res, unit))
    return atoms, residues


def _expand_atom(a: SpectralAtom) -> Form:
    """e_{0,0} (x) a with its pending power unfolded: p passes of the
    operator over e_{0,0} (x) the expanded atom, which has no polynomial
    image, so a residue picked up part-way gets the remaining passes."""
    f = form_of(E00, SpectralAtom(a.family, a.weight, a.point, a.laurent))
    for _ in range(a.pending[1] if a.pending else 0):
        f = _apply_op(f, a.pending[0])
    return f


def _tensor(e: PolyAtom, g: Form, coeff: Scalar, acc: dict):
    """Add coeff * e (x) g to acc, for a form g over e_{0,0}."""
    for (_e0, a0), c0 in g.terms:
        key = (e, a0)
        acc[key] = acc.get(key, ZERO) + coeff * c0


def _lower_poly(e: PolyAtom):
    c = (e.r + 1) * (e.m - e.r)
    if c == 0:
        return None, 0
    return PolyAtom(e.m, e.r + 1), c


def _raise_poly(e: PolyAtom):
    if e.r == 0:
        return None, 0
    return PolyAtom(e.m, e.r - 1), 1


def _apply_op(f: Form, direction: str) -> Form:
    """L or R by the Leibniz rule, term by term (homogeneity is enforced
    by the Form constructor)."""
    delta = -2 if direction == "L" else 2
    out_weight = f.weight + delta
    acc: Dict[Tuple[PolyAtom, SpectralAtom], Scalar] = {}

    def add(key, c):
        acc[key] = acc.get(key, ZERO) + c

    for (e, a), coeff in f.terms:
        # polynomial factor
        if direction == "L":
            e2, c2 = _lower_poly(e)
        else:
            e2, c2 = _raise_poly(e)
        if e2 is not None:
            add((e2, a), coeff * c2)
        # spectral factor
        if a.pending is not None and a.pending[0] == direction:
            add((e, SpectralAtom(a.family, a.weight, a.point, a.laurent,
                                 (direction, a.pending[1] + 1))), coeff)
        elif a.pending is not None:
            # opposite-direction pending operator: unfold it first, then let
            # the current operator act on everything (spectral side only)
            _tensor(e, _apply_op(_expand_atom(a), direction), coeff, acc)
        else:
            steps, res = _spectral_step(a, direction)
            for s_atom, s_c in steps:
                add((e, s_atom), coeff * s_c)
            for r_form, r_c in res:
                _tensor(e, r_form, coeff * r_c, acc)
    return Form(out_weight, acc)


def expand_pending_reference(f: Form) -> Form:
    acc: Dict[Tuple[PolyAtom, SpectralAtom], Scalar] = {}
    for (e, a), coeff in f.terms:
        _tensor(e, _expand_atom(a), coeff, acc)
    return Form(f.weight, acc)


def apply_power_reference(f: Form, direction: str, power: int) -> Form:
    for _ in range(power):
        f = _apply_op(f, direction)
    return f


def apply_laplace_reference(f: Form) -> Form:
    return -_apply_op(_apply_op(f, "L"), "R")


# --- strategies ---------------------------------------------------------------

EIS = Family(EISENSTEIN)
POINCARE_1 = Family(POINCARE, index=1)

# (weight, point) spots from which one or two steps land on a point of the
# "rich" table below, (E, 0, 1) or (P[n=1], 0, 0), and those points
NEAR_POLE = {EIS: [(0, 1), (2, 0), (-2, 2), (4, -1), (-4, 3)],
             POINCARE_1: [(0, 0), (-2, 0), (2, 0), (-4, 0), (4, 0)]}
POINTS = [Fraction(p) for p in (0, 1, 2, -1, Fraction(1, 2), Fraction(-3, 2))]

FAMILIES = [CONST_FAMILY, EIS, POINCARE_1, Family(POINCARE, index=-2),
            Family(INCOHERENT, disc=3), Family(INCOHERENT, disc=-4)]


@st.composite
def spectral_atoms(draw):
    pending = draw(st.none() | st.tuples(st.sampled_from("LR"), st.integers(1, 4)))
    fam = draw(st.sampled_from(FAMILIES))
    if fam == CONST_FAMILY:
        return SpectralAtom(CONST_FAMILY, 0, Fraction(0), 0, pending)
    if fam in NEAR_POLE and draw(st.booleans()):
        w, p = draw(st.sampled_from(NEAR_POLE[fam]))
    else:
        w, p = draw(st.integers(-4, 4)), draw(st.sampled_from(POINTS))
    if fam.kind == INCOHERENT and draw(st.booleans()):
        w, p = 1, Fraction(0)       # the base point, where the family vanishes
    t = max(draw(st.integers(0, 3)), vanishing_order(fam, w, Fraction(p)))
    return SpectralAtom(fam, w, Fraction(p), t, pending)


coeffs = st.builds(Scalar.pi_power, st.integers(-2, 2),
                   st.fractions(-5, 5, max_denominator=6).filter(bool))


@st.composite
def forms(draw):
    """A form of weight -4..4 with up to four terms; each term's polynomial
    vector is chosen to make the weights match."""
    weight = draw(st.integers(-4, 4))
    acc = {}
    for a in draw(st.lists(spectral_atoms(), max_size=4)):
        need = weight - a.effective_weight
        m = abs(need) + 2 * draw(st.integers(0, 1))
        key = (PolyAtom(m, (m - need) // 2), a)
        acc[key] = acc.get(key, ZERO) + draw(coeffs)
    return Form(weight, acc)


TABLES = {
    "default": DEFAULT_POLES,
    "empty": pole_table({}),
    # residues with non-constant atoms, for an Eisenstein and a Poincare
    # family (whose steps carry a pi-power unit); the second also holds the
    # atom that R of P_{-2,0} yields beside the residue, so the two merge
    "rich": pole_table({
        (EIS, 0, Fraction(1)): Form(0, {
            (E00, CONST_ATOM): Scalar.pi_power(-1, 3),
            (E00, SpectralAtom(EIS, 0, Fraction(1, 2), 1)): Scalar.from_rational(2),
            (E00, SpectralAtom(EIS, 0, Fraction(0), 0)): Scalar.pi_power(1, -1),
            (E00, SpectralAtom(POINCARE_1, 0, Fraction(1), 0)): ONE}),
        (POINCARE_1, 0, Fraction(0)): Form(0, {
            (E00, SpectralAtom(EIS, 0, Fraction(3, 2), 0)): Scalar.from_rational(-5),
            (E00, SpectralAtom(POINCARE_1, 0, Fraction(1, 2), 2)): Scalar.pi_power(2, 1),
            (E00, SpectralAtom(POINCARE_1, 0, Fraction(0), 0)): Scalar.from_rational(Fraction(-1, 2))}),
    }),
}

OPERATORS = {
    "apply_lowering": (apply_lowering, lambda f: _apply_op(f, "L")),
    "apply_raising": (apply_raising, lambda f: _apply_op(f, "R")),
    "apply_laplace": (apply_laplace, apply_laplace_reference),
    "expand_pending": (expand_pending, expand_pending_reference),
}


# --- the checks ---------------------------------------------------------------

@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("op", sorted(OPERATORS))
@settings(deadline=None)
@given(f=forms())
def test_operator_matches_reference(op, table, f):
    new, ref = OPERATORS[op]
    with using_poles(TABLES[table]):
        assert new(f) == ref(f)


@pytest.mark.parametrize("table", sorted(TABLES))
@settings(deadline=None)
@given(f=forms(), direction=st.sampled_from("LR"), power=st.integers(0, 4))
def test_apply_power_matches_reference(table, f, direction, power):
    with using_poles(TABLES[table]):
        assert apply_power(f, direction, power) == apply_power_reference(f, direction, power)


@pytest.mark.parametrize("table", sorted(TABLES))
@settings(deadline=None)
@given(f=forms())
def test_is_zero_matches_reference(table, f):
    with using_poles(TABLES[table]):
        for h in (f, f - expand_pending_reference(f)):
            assert is_zero(h) == expand_pending_reference(h).is_empty()
        assert is_zero(f - expand_pending_reference(f))


@pytest.mark.parametrize("table", sorted(TABLES))
@settings(deadline=None)
@given(f=forms())
def test_expand_pending_is_idempotent(table, f):
    with using_poles(TABLES[table]):
        g = expand_pending(f)
        assert all(a.pending is None for (_e, a), _c in g.terms)
        assert expand_pending(g) == g
        assert forms_equal(f, g)


@settings(deadline=None)
@given(f=forms())
def test_expand_pending_returns_an_expanded_form_as_it_is(f):
    # E is the identity on expanded atoms, so such a form is not rebuilt
    g = expand_pending(f)
    assert expand_pending(g) is g
    assert (g is f) == all(a.pending is None for (_e, a), _c in f.terms)


def _assert_well_formed(g: Form, weight: int):
    """The checks the public Form constructor runs and Form._make skips: no
    zero coefficient, and every term of the form's weight."""
    assert g.weight == weight
    for (e, a), c in g.terms:
        assert not c.is_zero()
        assert e.weight + a.effective_weight == weight


@pytest.mark.parametrize("table", sorted(TABLES))
@settings(deadline=None)
@given(f=forms(), s=coeffs)
def test_laplace_is_minus_raising_after_lowering(table, f, s):
    with using_poles(TABLES[table]):
        lap = apply_laplace(f)
        assert lap == -apply_raising(apply_lowering(f))
        k = f.weight
        _assert_well_formed(apply_lowering(f), k - 2)
        _assert_well_formed(apply_raising(f), k + 2)
        for g in (lap, expand_pending(f), -f, f * s, f * 0, f + lap, f + f * s, f - f):
            _assert_well_formed(g, k)


INCOHERENT_3 = Family(INCOHERENT, disc=3)


@pytest.mark.parametrize("table", ["default", "empty"])
@settings(deadline=None, max_examples=200)
@given(f=forms())
# the incoherent family vanishes up its R chain, at (3, -1) and (5, -2): R L
# of an order-1 atom there meets the order-0 atom, which is zero
@example(f=form_of(E00, SpectralAtom(INCOHERENT_3, 3, Fraction(-1), 1)))
@example(f=form_of(E00, SpectralAtom(Family(INCOHERENT, disc=4), 3, Fraction(-1), 1)))
@example(f=form_of(PolyAtom(1, 1), SpectralAtom(INCOHERENT_3, 5, Fraction(-2), 1)))
@example(f=form_of(PolyAtom(2, 0), SpectralAtom(INCOHERENT_3, 1, Fraction(0), 1, ("R", 1))))
def test_sl2_relation(table, f):
    """L R f - R L f = -w f and Delta f = -R L f on a form f of weight w."""
    with using_poles(TABLES[table]):
        rl = apply_raising(apply_lowering(f))
        assert forms_equal(apply_lowering(apply_raising(f)) - rl, f * -f.weight)
        assert forms_equal(apply_laplace(f), -rl)


def test_pole_table_rejects_pending_residues():
    """The "rich" table before residues had to be expanded, verbatim: with
    it, expand_pending(L E_{2,0}) kept the pending atom L E_{2,-1}."""
    old = {
        (EIS, 0, Fraction(1)): Form(0, {
            (E00, CONST_ATOM): Scalar.pi_power(-1, 3),
            (E00, SpectralAtom(EIS, 0, Fraction(1, 2), 1)): Scalar.from_rational(2),
            (E00, SpectralAtom(EIS, 2, Fraction(-1), 0, ("L", 1))): Scalar.pi_power(1, -1),
            (E00, SpectralAtom(POINCARE_1, -2, Fraction(0), 0, ("R", 1))): ONE}),
        (POINCARE_1, 0, Fraction(0)): Form(0, {
            (E00, SpectralAtom(EIS, 2, Fraction(1, 2), 0, ("L", 1))): Scalar.from_rational(-5),
            (E00, SpectralAtom(POINCARE_1, 0, Fraction(1, 2), 2)): Scalar.pi_power(2, 1),
            (E00, SpectralAtom(POINCARE_1, 0, Fraction(0), 0)): Scalar.from_rational(Fraction(-1, 2))}),
    }
    with pytest.raises(DomainError, match="pole residues must be expanded"):
        pole_table(old)
    for key in old:
        with pytest.raises(DomainError, match="pole residues must be expanded"):
            pole_table({key: old[key]})


@pytest.mark.parametrize("table", sorted(TABLES))
def test_steps_onto_tabled_points_match_reference(table):
    """Pending powers, in both directions, of atoms at and next to the
    tabled points, on their own."""
    near = [SpectralAtom(fam, w, Fraction(p), 0) for fam in NEAR_POLE for w, p in NEAR_POLE[fam]]
    with using_poles(TABLES[table]):
        for a in near:
            for d, p in (("L", 1), ("L", 3), ("R", 2), ("R", 4)):
                f = form_of(E00, SpectralAtom(a.family, a.weight, a.point, a.laurent, (d, p)))
                assert expand_pending(f) == expand_pending_reference(f)
                for op in "LR":
                    assert apply_power(f, op, 2) == apply_power_reference(f, op, 2)


# --- the integer Delta-closure against the reference ---------------------------

def reference_rows(seeds):
    """(pool, rows, den) of the Delta-closure of the seed keys, each image
    taken from apply_laplace_reference and new keys added breadth-first in
    the order of its terms."""
    pool = list(dict.fromkeys(seeds))
    images = []
    while len(images) < len(pool):
        images.append(apply_laplace_reference(form_of(*pool[len(images)])))
        pool += [key for key, _c in images[-1].terms if key not in pool]
    index = {key: j for j, key in enumerate(pool)}
    terms = [[(index[key], s, q) for key, c in img.terms for s, q in c.terms] for img in images]
    den = math.lcm(*(q.denominator for row in terms for _j, _s, q in row))
    return pool, [[(j, s, q.numerator * (den // q.denominator)) for j, s, q in row]
                  for row in terms], den


POINCARE_ODD = [Family(POINCARE, index=n) for n in (1, -2, 3)]


@st.composite
def closure_keys(draw):
    """A key whose atom is an Eisenstein atom at an integer or a
    non-integer point, a Poincare atom at odd weight (so w/2 is a
    half-integer) for several |n|, an incoherent atom at or above its
    vanishing order or the constant atom, expanded or pending."""
    kind = draw(st.sampled_from(["E", "P", "incoherent", "constant"]))
    t = draw(st.integers(0, 2))
    if kind == "E":
        fam, w = EIS, draw(st.integers(-3, 3))
        p = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2),
                                  Fraction(-5, 3)]))
        if draw(st.booleans()):
            w, p = draw(st.sampled_from(NEAR_POLE[EIS]))
    elif kind == "P":
        fam, w = draw(st.sampled_from(POINCARE_ODD)), 2 * draw(st.integers(-2, 1)) + 1
        p = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(2)]))
        if fam == POINCARE_1 and draw(st.booleans()):
            w, p = draw(st.sampled_from(NEAR_POLE[POINCARE_1]))
    elif kind == "incoherent":
        fam, w, p = Family(INCOHERENT, disc=draw(st.sampled_from([3, 4]))), 1, Fraction(0)
        t += 1
    else:
        fam, w, p, t = CONST_FAMILY, 0, Fraction(0), 0
    pending = draw(st.none() | st.tuples(st.sampled_from("LR"), st.integers(1, 2)))
    m = draw(st.integers(0, 3))
    return PolyAtom(m, draw(st.integers(0, m))), SpectralAtom(fam, w, Fraction(p), t, pending)


CLOSURE_TABLES = {
    "default": DEFAULT_POLES,
    "empty": pole_table({}),
    # two pi powers in the coefficient of a residue atom that R moves on, at
    # the Poincare pole that L of P_{2,0} and R of P_{-2,0} land on: a key
    # of a Delta image then takes two pi shifts, apart in the order of the
    # rule
    "two-power": pole_table({(POINCARE_1, 0, Fraction(0)): Form(0, {
        (E00, SpectralAtom(EIS, 0, Fraction(1, 2), 1)): Scalar({0: Fraction(1, 3), 1: 2}),
        (E00, CONST_ATOM): Scalar.pi_power(-1, 5)})}),
}


@pytest.mark.parametrize("table", sorted(CLOSURE_TABLES))
@settings(deadline=None, max_examples=60)
@given(seeds=st.lists(closure_keys(), min_size=1, max_size=3), coeff=coeffs)
@example(seeds=[(PolyAtom(2, 1), SpectralAtom(POINCARE_1, 2, Fraction(0), 0))],
         coeff=Scalar.pi_power(1, Fraction(-2, 3)))
# a residue picked up by the second pass of an unfolding: its terms come
# after that pass's step terms
@example(seeds=[(E00, SpectralAtom(EIS, 0, Fraction(0), 0)),
                (E00, SpectralAtom(Family(INCOHERENT, disc=3), 1, Fraction(0), 1)),
                (E00, SpectralAtom(POINCARE_1, 4, Fraction(0), 1, ("L", 1)))],
         coeff=ONE)
# Delta = -R L meets a pole-table entry or a vanishing order: L steps onto the
# tabled (E, 0, 1), the key's own column is tabled, and the incoherent family
# vanishes on the key's column and on that of its L step
@example(seeds=[(PolyAtom(2, 1), SpectralAtom(EIS, 2, Fraction(0), 1)),
                (PolyAtom(1, 0), SpectralAtom(EIS, 2, Fraction(0), 2))],
         coeff=ONE)
@example(seeds=[(PolyAtom(2, 1), SpectralAtom(EIS, 0, Fraction(1), 1)),
                (E00, SpectralAtom(EIS, 0, Fraction(1), 0))],
         coeff=ONE)
@example(seeds=[(PolyAtom(2, 1), SpectralAtom(Family(INCOHERENT, disc=3), 3, Fraction(-1), 1)),
                (E00, SpectralAtom(Family(INCOHERENT, disc=4), 3, Fraction(-1), 2))],
         coeff=ONE)
def test_laplace_rows_match_reference(table, seeds, coeff):
    with using_poles(CLOSURE_TABLES[table]):
        assert _laplace_rows(seeds) == reference_rows(seeds)
        for key in seeds:
            f = form_of(*key, coeff)
            assert apply_laplace(f) == apply_laplace_reference(f)
        # a form of several terms, from the seeds of the first one's weight
        weight = form_of(*seeds[0]).weight
        f = sum((form_of(*key, coeff) for key in seeds if form_of(*key).weight == weight),
                zero_form(weight))
        assert apply_laplace(f) == apply_laplace_reference(f)


# (case, k, construct_case keywords): every case, both anchors where a case
# has two, and the Poincare indices -1 and -3
CASE_VARIANTS = ([(case, k, {}) for case, k in (("Ia", -2), ("Id", -1), ("IIb", 1),
                                                ("IIIa", 3), ("IIIb", 3))]
                 + [(case, k, dict(family="poincare", index=n) if case in ("Ia", "Id", "IIIa")
                     else dict(index=n))
                    for case, k in (("Ia", -2), ("Ib", -1), ("Ic", -2), ("Id", -2), ("IIa", 1),
                                    ("IIIa", 2), ("IIIc", 2), ("IIId", 3))
                    for n in (-1, -3)])


@pytest.mark.parametrize("table", ["default", "empty"])
@pytest.mark.parametrize("case, k, kwargs", CASE_VARIANTS,
                         ids=["%s-%d-%s" % (c, k, "-".join(map(str, kw.values())))
                              for c, k, kw in CASE_VARIANTS])
def test_laplace_rows_of_case_forms_match_reference(case, k, kwargs, table):
    """The closures the classifier and the span solver take: of every case
    form up to depth 4, pending keys and all, and of its expansion."""
    from polymaass.specsolve import construct_case
    with using_poles(CLOSURE_TABLES[table]):
        for d in range(1 if case == "IIId" else 0, 5):
            f = construct_case(case, k, d, **kwargs)
            for g in (f, expand_pending(f)):
                seeds = [key for key, _c in g.terms]
                assert _laplace_rows(seeds) == reference_rows(seeds), (case, d)
