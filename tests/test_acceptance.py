"""Acceptance suite: the package's exit criteria, one per test, each at its
stated tolerance (exact rational equality unless noted), with a printed
pass/fail line and the elapsed time.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from polymaass.classify import BK_TO_REPR, CaseLabel, \
    WeightContext, classify_bk, expected_dimension_vector
from polymaass.numcheck import DEFAULT_POINTS, EvalConfig, run_suite, \
    verify_identity
from polymaass.quiverrep import (CYCLIC, GELFAND, build_cyclic_module,
                                 classify_cyclic, has_only_trivial_idempotents,
                                 hc_to_quiver, invariants_of,
                                 iso_two_descriptions, random_fragment,
                                 second_description)
from polymaass.scalars import Scalar
from polymaass.specsolve import (alternating_trace, brute_force_wd, build_w0,
                                 construct_case, eisenstein_family, emit_form,
                                 poincare_family, preimage_constant_weight,
                                 preimage_incoherent, solve_wd)
from polymaass.symcalc import (Family, PolyAtom, SpectralAtom, apply_flip,
                               apply_laplace, apply_lowering, apply_mirror,
                               apply_power, apply_raising, atom_E, atom_P,
                               expand_pending, form_of, forms_equal, is_zero,
                               make_e_atom)


@contextmanager
def criterion(num, budget, text):
    t0 = time.time()
    try:
        yield
    except Exception:
        print("[criterion %2d] FAIL (%.1fs): %s" % (num, time.time() - t0, text))
        raise
    elapsed = time.time() - t0
    print("[criterion %2d] PASS (%.1fs): %s" % (num, elapsed, text))
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (num, budget)


def _delta_power(f, d):
    for _ in range(d):
        f = apply_laplace(f)
    return f


# --- criterion 1: golden reproduction ---------------------------------------

def test_criterion_01_golden_case_ia():
    with criterion(1, 1.0, "Case Ia at k=-3, d=2 reproduces the reference example "
                           "exactly (BK basis and expanded display)"):
        f = construct_case("Ia", -3, 2)
        fam = Family("eisenstein")

        def bk(r, t, power):
            return (PolyAtom(3, r), SpectralAtom(fam, 0, Fraction(0), t,
                                                 ("L", power) if power else None))

        expected_bk = {
            bk(0, 2, 3): Fraction(1, 72), bk(1, 2, 2): Fraction(1, 8),
            bk(2, 2, 1): Fraction(1, 2), bk(3, 2, 0): Fraction(1, 2),
            bk(0, 1, 3): Fraction(11, 216), bk(1, 1, 2): Fraction(3, 8),
            bk(2, 1, 1): Fraction(1),
        }
        assert dict(f.terms) == {key: Scalar.from_rational(c)
                                 for key, c in expected_bk.items()}

        def sp(r, w, p, t):
            return (PolyAtom(3, r), SpectralAtom(fam, w, Fraction(p), t))

        expected_exp = {
            sp(3, 0, 0, 2): Fraction(1, 2),
            sp(0, -6, 3, 1): Fraction(1, 18), sp(1, -4, 2, 1): Fraction(1, 4),
            sp(2, -2, 1, 1): Fraction(1),
            sp(0, -6, 3, 0): Fraction(5, 27), sp(1, -4, 2, 0): Fraction(5, 8),
            sp(2, -2, 1, 0): Fraction(1),
        }
        assert dict(expand_pending(f).terms) == {key: Scalar.from_rational(c)
                                                 for key, c in expected_exp.items()}


# --- criteria 2-4: preimage identities and the solver oracle ----------------

GRID_L = list(itertools.product(range(-6, 1), range(0, 5), range(0, 4)))
GRID_R = list(itertools.product(range(2, 7), range(0, 5), range(0, 4)))


def _preimage_grid(grid, branch):
    for k, m, d in grid:
        fam = eisenstein_family(k, 0)
        base = emit_form(build_w0(k, m, branch), fam)
        assert is_zero(apply_laplace(base)), (k, m, branch)
        gv = solve_wd(k, m, branch, d)
        top = _delta_power(emit_form(gv, fam), d)
        assert forms_equal(top, base * gv.preimage_scale), (k, m, branch, d)
        assert not is_zero(top), (k, m, branch, d)


def test_criterion_02_preimage_identity_L():
    with criterion(2, 60, "L-branch preimage identity, k in -6..0, m in 0..4, "
                          "d in 0..3, exact"):
        _preimage_grid(GRID_L, "L")


def test_criterion_03_preimage_identity_R():
    with criterion(3, 60, "R-branch preimage identity, k in 2..6, m in 0..4, "
                          "d in 0..3, exact"):
        _preimage_grid(GRID_R, "R")


def test_criterion_04_oracle_equivalence():
    with criterion(4, 120, "iterative solver equals the pinned brute-force "
                           "kernel element on both grids, exact"):
        for grid, branch in ((GRID_L, "L"), (GRID_R, "R")):
            for k, m, d in grid:
                it = solve_wd(k, m, branch, d)
                bf = brute_force_wd(k, m, branch, d)
                assert it.layers == bf.layers, (k, m, branch, d)
                assert it.preimage_scale == bf.preimage_scale, (k, m, branch, d)


# --- criterion 5: constant-weight preimages ---------------------------------

def test_criterion_05_constant_weight_preimages():
    with criterion(5, 60, "constant-weight preimage coefficients, k in -3..4, "
                          "d <= 3, and the incoherent chain, exact"):
        from math import factorial
        for k in range(-3, 5):
            if k == 1:
                continue
            fam = eisenstein_family(k, 0)
            for d in range(4):
                f = preimage_constant_weight(k, d, fam)
                ((_, atom), coeff) = next(iter(f.terms))
                assert atom.laurent == d
                assert coeff.rational_value() == \
                    Fraction(1, factorial(d)) / Fraction(1 - k) ** d
                base = form_of(PolyAtom(0, 0), SpectralAtom(fam.family, k, Fraction(0), 0))
                assert forms_equal(_delta_power(f, d), base)
        famP = poincare_family(1, -1, Fraction(1, 2), orientation=-1)
        for d in range(4):
            f = preimage_constant_weight(1, d, famP)
            ((_, atom), coeff) = next(iter(f.terms))
            assert atom.laurent == 2 * d
            assert coeff.rational_value() == Fraction((-1) ** d, factorial(2 * d))
            base = form_of(PolyAtom(0, 0), SpectralAtom(famP.family, 1, Fraction(1, 2), 0))
            assert forms_equal(_delta_power(f, d), base)
        f = preimage_incoherent(3, 2)
        ((_, atom), coeff) = next(iter(f.terms))
        assert coeff.rational_value() == Fraction(1, 120)
        assert atom.laurent == 5
        for d in range(4):
            f = preimage_incoherent(3, d)
            base = form_of(PolyAtom(0, 0),
                           SpectralAtom(Family("incoherent", disc=3), 1, Fraction(0), 1))
            assert forms_equal(_delta_power(f, d), base)
            assert is_zero(_delta_power(f, d + 1))


# --- criterion 6: classification round trip ---------------------------------

def test_criterion_06_classification_round_trip():
    with criterion(6, 120, "classify(construct) round trip over all ten cases, "
                           "IIId rejected at d=0, translation bijection"):
        grid = ([(lbl, k, d) for lbl in ("Ia", "Ib", "Ic", "Id")
                 for k in range(-4, 1) for d in range(3)]
                + [(lbl, 1, d) for lbl in ("IIa", "IIb") for d in range(3)]
                + [(lbl, k, d) for lbl in ("IIIa", "IIIb", "IIIc")
                   for k in range(2, 6) for d in range(3)]
                + [("IIId", k, d) for k in range(2, 6) for d in (1, 2)])
        for label, k, d in grid:
            lab = classify_bk(construct_case(label, k, d))
            assert (lab.bk, lab.depth, lab.context.k) == (label, d, k)
        with pytest.raises(Exception):
            construct_case("IIId", 4, 0)
        assert len(BK_TO_REPR) == 10 and len(set(BK_TO_REPR.values())) == 10


# --- criterion 7: operator identity suite -----------------------------------

def _atom_grid():
    grid = []
    spectral = []
    for w, p in [(0, 0), (-2, 1), (2, 0), (0, 2), (-4, 2)]:
        for t in (0, 1):
            spectral.append(atom_E(w, p, t))
    spectral += [atom_P(0, -1, 1), atom_P(2, -1, 1, 1),
                 atom_P(-2, -2, Fraction(1, 2))]
    for m, r in [(0, 0), (2, 0), (2, 1), (3, 1), (3, 3)]:
        for a in spectral:
            grid.append(form_of(PolyAtom(m, r), a))
    return grid


def _tensor(poly_form, spec_form):
    out = None
    for (e1, a1), c1 in poly_form.terms:
        for (e2, a2), c2 in spec_form.terms:
            term = form_of(e1, a2, c1 * c2)
            out = term if out is None else out + term
    return out if out is not None else \
        form_of(PolyAtom(0, 0), SpectralAtom(Family("constant"), 0, Fraction(0), 0)) * 0


def test_criterion_07_operator_identity_suite():
    with criterion(7, 120, "commutators, iterated relations, product rule, "
                           "flip relations and mirror involution on a grid of "
                           ">= 50 atoms, exact"):
        grid = _atom_grid()
        assert len(grid) >= 50
        for f in grid:
            # two Laplacian routes: -RL against the four-term product formula
            ((e, a),) = [key for key, _ in f.terms]
            ef = form_of(PolyAtom(e.m, e.r), SpectralAtom(Family("constant"), 0, Fraction(0), 0))
            af = form_of(PolyAtom(0, 0), a)
            four = (_tensor(apply_laplace(ef), af) + _tensor(ef, apply_laplace(af))
                    - _tensor(apply_raising(ef), apply_lowering(af))
                    - _tensor(apply_lowering(ef), apply_raising(af)))
            assert forms_equal(apply_laplace(f), four)
        for f in grid:
            k = f.weight
            for r in (1, 2):
                lhs = apply_laplace(apply_power(f, "L", r))
                rhs = apply_power(apply_laplace(f) - f * (r * (k - r - 1)), "L", r)
                assert forms_equal(lhs, rhs)
                lhs = apply_laplace(apply_power(f, "R", r))
                rhs = apply_power(apply_laplace(f) + f * (r * (k + r - 1)), "R", r)
                assert forms_equal(lhs, rhs)
                lhs = apply_raising(apply_power(f, "L", r))
                rhs = -apply_power(apply_laplace(f) - f * ((r - 1) * (k - r)), "L", r - 1)
                assert forms_equal(lhs, rhs)
                lhs = apply_lowering(apply_power(f, "R", r))
                rhs = -apply_power(apply_laplace(f) + f * (r * (k + r - 1)), "R", r - 1)
                assert forms_equal(lhs, rhs)
            assert forms_equal(apply_mirror(apply_mirror(f)), f)
            if k <= 0:
                assert forms_equal(apply_laplace(apply_flip(f)),
                                   apply_flip(apply_laplace(f)))
                lhs = apply_lowering(apply_flip(apply_laplace(f)))
                rhs = apply_flip(apply_lowering(f)) * (-(k - 2) * (k - 1))
                assert forms_equal(lhs, rhs)
                if k <= -2:
                    lhs = apply_raising(apply_flip(f)) * (-k * (k + 1))
                    rhs = apply_flip(apply_raising(apply_laplace(f) + f * k))
                    assert forms_equal(lhs, rhs)
        for m in range(0, 6):
            f = make_e_atom(m, m)
            assert forms_equal(apply_flip(f), f * ((-1) ** m))
        flip_count = 0
        for k in range(-4, 1):
            for m in range(0, 3):
                f = emit_form(build_w0(k, m, "L"), eisenstein_family(k, 0))
                if f.weight <= 0 and is_zero(apply_laplace(f)):
                    assert forms_equal(apply_flip(apply_flip(f)), f)
                    flip_count += 1
        assert flip_count >= 10


# --- criterion 8: quiver suite -----------------------------------------------

def test_criterion_08_quiver_suite():
    with criterion(8, 60, "cyclic-module round trips with verbatim dimension "
                          "vectors, relations, nilpotency, fragment isos and "
                          "indecomposability, exact"):
        expected_star = {"a": lambda d: (d, d + 1, d), "b": lambda d: (d + 1, d + 1, d + 1),
                         "c": lambda d: (d, d + 1, d + 1), "d": lambda d: (d + 1, d + 1, d)}
        expected_plus = {"a": lambda d: (d, d, d + 1), "b": lambda d: (d, d + 1, d + 1),
                         "c": lambda d: (d + 1, d + 1, d + 1), "d": lambda d: (d - 1, d, d + 1)}
        for case in "abcd":
            for d in range(6):
                rep = build_cyclic_module(GELFAND, "*", case, d)
                dims, deg = invariants_of(rep)
                assert dims == expected_star[case](d) and deg["*"] == d + 1
                assert classify_cyclic(rep) == ("*", case, d)
                assert has_only_trivial_idempotents(rep)
        for case in "abcd":
            for d in range(6):
                if case == "d" and d == 0:
                    continue
                rep = build_cyclic_module(GELFAND, "+", case, d)
                dims, deg = invariants_of(rep)
                assert dims == expected_plus[case](d) and deg["+"] == d + 1
                assert classify_cyclic(rep) == ("+", case, d)
                rep = build_cyclic_module(GELFAND, "-", case, d)
                dims, deg = invariants_of(rep)
                e = expected_plus[case](d)
                assert dims == (e[2], e[1], e[0]) and deg["-"] == d + 1
                assert classify_cyclic(rep) == ("-", case, d)
        for case, dims_fn in (("a", lambda d: (d, d + 1)), ("b", lambda d: (d + 1, d + 1))):
            for d in range(6):
                rep = build_cyclic_module(CYCLIC, "+", case, d)
                dims, deg = invariants_of(rep)
                assert dims == dims_fn(d) and deg["+"] == d + 1
                assert classify_cyclic(rep) == ("+", case, d)
        for l in (1, 2, 3):
            for seed in range(10):
                frag = random_fragment(l, 2, seed=seed)
                r1, r2 = hc_to_quiver(frag), second_description(frag)
                r1.check_relation()
                assert r1.dim_vector() == r2.dim_vector()
                assert invariants_of(r1)[1] == invariants_of(r2)[1]
                iso_two_descriptions(frag)


# --- criterion 9: numeric suite ----------------------------------------------

def test_criterion_09_numeric_suite():
    with criterion(9, 60, "Eisenstein identities (i)-(iv) at N=400 with "
                          "Richardson FD, residuals < 1e-5; e-basis exact to "
                          "1e-12"):
        cfg = EvalConfig(trunc=400, tol=1e-5)
        report = run_suite(cfg, ("laplace_eigen", "lowering", "raising", "mirror"))
        assert len(report) >= 12
        assert all(r["pass"] for r in report), \
            [r for r in report if not r["pass"]]
        ebasis = verify_identity("ebasis", DEFAULT_POINTS["ebasis"], cfg)
        assert all(r["residual"] < 1e-12 for r in ebasis)


# --- criterion 10: alternating trace ------------------------------------------

def test_criterion_10_alternating_trace():
    with criterion(10, 30, "nonvanishing alternating trace of R-branch kernel "
                           "vectors, exact"):
        for k in range(2, 9):
            for m in range(0, 7):
                assert alternating_trace(build_w0(k, m, "R").layers[0]) != 0
        for m in range(0, 7):
            for k in range(-8, -m + 1):
                assert alternating_trace(build_w0(k, m, "R").layers[0]) != 0
