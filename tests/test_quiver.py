from fractions import Fraction

import pytest

from polymaass.classify import BK_TO_REPR, CaseLabel, WeightContext, \
    expected_dimension_vector
from polymaass.quiverrep import (CYCLIC, GELFAND, HCFragment, QuiverRep,
                                 build_cyclic_module, classify_cyclic,
                                 direct_sum, endomorphism_basis,
                                 has_only_trivial_idempotents, hc_to_quiver,
                                 invariants_of, is_cyclic,
                                 iso_two_descriptions, random_fragment,
                                 second_description)
from polymaass.linalg import identity
from polymaass.symcalc import DomainError

GELFAND_TUPLES = [(t, c, d) for t in ("*", "+", "-") for c in "abcd"
                  for d in range(6) if not (c == "d" and t in "+-" and d == 0)]
CYCLIC_TUPLES = [(t, c, d) for t in ("+", "-") for c in "ab" for d in range(6)]


@pytest.mark.parametrize("t,c,d", GELFAND_TUPLES[::4])
def test_gelfand_round_trip_sample(t, c, d):
    rep = build_cyclic_module(GELFAND, t, c, d)
    rep.check_relation()
    assert classify_cyclic(rep) == (t, c, d)


@pytest.mark.parametrize("t,c,d", CYCLIC_TUPLES[::3])
def test_cyclic_round_trip_sample(t, c, d):
    rep = build_cyclic_module(CYCLIC, t, c, d)
    assert classify_cyclic(rep) == (t, c, d)


def test_dimension_vectors_and_degrees():
    dims, deg = invariants_of(build_cyclic_module(GELFAND, "*", "a", 2))
    assert dims == (2, 3, 2) and deg["*"] == 3
    dims, deg = invariants_of(build_cyclic_module(GELFAND, "*", "b", 1))
    assert dims == (2, 2, 2) and deg["*"] == 2
    dims, deg = invariants_of(build_cyclic_module(GELFAND, "+", "a", 3))
    assert dims == (3, 3, 4) and deg["+"] == 4
    dims, deg = invariants_of(build_cyclic_module(CYCLIC, "+", "b", 1))
    assert dims == (2, 2) and deg["+"] == 2
    dims, deg = invariants_of(build_cyclic_module(CYCLIC, "+", "a", 0))
    assert dims == (0, 1)


def test_plus_d_requires_positive_depth():
    with pytest.raises(DomainError):
        build_cyclic_module(GELFAND, "+", "d", 0)


def test_zero_module():
    rep = QuiverRep(GELFAND, {"-": 0, "*": 0, "+": 0},
                    {"A-": [], "B-": [], "A+": [], "B+": []})
    dims, deg = invariants_of(rep)
    assert dims == (0, 0, 0) and set(deg.values()) == {0}


def _same_quiver_pairs(quiver, tuples):
    small = [tc for tc in tuples if tc[2] <= 2]
    return [pytest.param(quiver, a, b, id="%s-%s%s%d+%s%s%d" % ((quiver,) + a + b))
            for i, a in enumerate(small) for b in small[i:]]


@pytest.mark.parametrize("quiver,a,b", _same_quiver_pairs(GELFAND, GELFAND_TUPLES)
                         + _same_quiver_pairs(CYCLIC, CYCLIC_TUPLES))
def test_direct_sum_is_not_cyclic(quiver, a, b):
    s = direct_sum(build_cyclic_module(quiver, *a), build_cyclic_module(quiver, *b))
    assert is_cyclic(s) is None
    with pytest.raises(DomainError):
        classify_cyclic(s)
    if a[2] <= 1 and b[2] <= 1:
        assert not has_only_trivial_idempotents(s)


def test_glued_module_with_noncommutative_local_endomorphisms():
    # (*, c, 1) and (+, a, 2) glued along one socle vector at node +:
    # End(V) is local of dimension 6 but not commutative, and the top has
    # dimension 2
    rows = lambda *rs: [[str(x) for x in r] for r in rs]
    rep = QuiverRep.from_json({
        "quiver": "gelfand", "dims": {"-": 3, "*": 4, "+": 4},
        "maps": {"A-": rows([0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 1, 0]),
                 "B-": rows([1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]),
                 "A+": rows([0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]),
                 "B+": rows([1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1])}})
    assert len(endomorphism_basis(rep)) == 6
    assert has_only_trivial_idempotents(rep)
    assert is_cyclic(rep) is None


def test_non_nilpotent_loops_are_rejected():
    one = [[Fraction(1)]]
    rep = QuiverRep(CYCLIC, {"-": 1, "+": 1}, {"a": one, "b": one})
    with pytest.raises(DomainError, match="not nilpotent"):
        is_cyclic(rep)


def test_one_dimensional_plus_node():
    # A+ maps the line at + into V_* = 0 (no rows); B+ comes back (one
    # empty row); the lone basis vector generates
    rep = QuiverRep(GELFAND, {"-": 0, "*": 0, "+": 1},
                    {"A-": [], "B-": [], "A+": [], "B+": [[]]})
    assert is_cyclic(rep) == "+"


def test_cyclic_modules_have_local_endomorphisms():
    # every built module up to the largest depths the benchmark runs
    modules = [(GELFAND, t, c, d) for t, top in (("*", 9), ("+", 4), ("-", 4))
               for c in "abcd" for d in range(top + 1)
               if not (c == "d" and t in "+-" and d == 0)]
    modules += [(CYCLIC, t, c, d) for t in "+-" for c in "ab" for d in range(10)]
    for quiver, t, c, d in modules:
        rep = build_cyclic_module(quiver, t, c, d)
        assert classify_cyclic(rep) == (t, c, d)
        assert has_only_trivial_idempotents(rep)
    assert not has_only_trivial_idempotents(
        direct_sum(build_cyclic_module(GELFAND, "*", "b", 1),
                   build_cyclic_module(GELFAND, "*", "a", 1)))


def test_expected_dimension_link():
    # the translation table pairs each BK label with the matching module
    repr_to_build = {
        "GIa": (GELFAND, "*", "a"), "GIb": (GELFAND, "*", "b"),
        "GIc": (GELFAND, "*", "c"), "GId": (GELFAND, "*", "d"),
        "GIIa": (GELFAND, "+", "a"), "GIIb": (GELFAND, "+", "b"),
        "GIIc": (GELFAND, "+", "c"), "GIId": (GELFAND, "+", "d"),
        "CIa": (CYCLIC, "+", "a"), "CIb": (CYCLIC, "+", "b"),
    }
    for bk, rp in BK_TO_REPR.items():
        for d in range(1, 4):
            k = {"I": -2, "II": 1, "III": 3}[bk.rstrip("abcd")]
            label = CaseLabel(bk, d, WeightContext(k))
            quiver, t, c = repr_to_build[rp]
            dims, _ = invariants_of(build_cyclic_module(quiver, t, c, d))
            assert expected_dimension_vector(label) == dims


# --- Harish-Chandra fragments ----------------------------------------------


def test_fragment_l1_scalar_example():
    frag = HCFragment(1, x_minus=[[Fraction(0)]], xs=(), x_plus=[[Fraction(1)]],
                      y_plus=[[Fraction(0)]], ys=(), y_minus=[[Fraction(1)]])
    rep = hc_to_quiver(frag)
    assert rep.dim_vector() == (1, 1, 1)
    assert rep.loops()["*"] == [[Fraction(0)]]
    t, x_star, one = iso_two_descriptions(frag)
    assert t == [[Fraction(1)]] and x_star == [[Fraction(1)]]


def test_fragment_l0():
    frag = HCFragment(0, z_minus=[[Fraction(0)]], z_plus=[[Fraction(1)]])
    rep = hc_to_quiver(frag)
    assert rep.quiver == CYCLIC
    assert rep.loops()["-"] == [[Fraction(0)]]


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("seed", range(10))
def test_seeded_fragments(l, seed):
    frag = random_fragment(l, 2, seed=seed)
    r1 = hc_to_quiver(frag)
    r2 = second_description(frag)
    r1.check_relation()
    r2.check_relation()
    assert r1.dim_vector() == r2.dim_vector()
    assert invariants_of(r1)[1] == invariants_of(r2)[1]
    t, x_star, one = iso_two_descriptions(frag)
    assert one == identity(2)


def test_perturbed_fragment_fails_iso():
    frag = random_fragment(2, 2, seed=11)
    bad = HCFragment(2, x_minus=frag.x_minus, xs=frag.xs, x_plus=frag.x_plus,
                     y_plus=frag.y_plus,
                     ys=([[frag.ys[0][i][j] + (1 if i == j == 0 else 0)
                           for j in range(2)] for i in range(2)],),
                     y_minus=frag.y_minus)
    with pytest.raises(DomainError):
        iso_two_descriptions(bad)


def test_fragment_rejects_singular_interior():
    frag = random_fragment(2, 2, seed=3)
    bad = HCFragment(2, x_minus=frag.x_minus,
                     xs=([[Fraction(0)] * 2] * 2,), x_plus=frag.x_plus,
                     y_plus=frag.y_plus, ys=frag.ys, y_minus=frag.y_minus)
    with pytest.raises(DomainError):
        hc_to_quiver(bad)


def test_endomorphism_basis_dimension():
    rep = build_cyclic_module(GELFAND, "*", "b", 1)
    basis = endomorphism_basis(rep)
    # local algebra Q[t]/t^2 expected for P_*-truncations
    assert len(basis) == 2


def test_quiver_json_round_trip():
    rep = build_cyclic_module(GELFAND, "+", "b", 2)
    again = QuiverRep.from_json(rep.to_json())
    assert again.dims == rep.dims and again.maps == rep.maps
    frag = random_fragment(2, 2, seed=1)
    again = HCFragment.from_json(frag.to_json())
    assert again.x_minus == frag.x_minus and again.ys == frag.ys
