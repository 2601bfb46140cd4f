"""Constant-weight and incoherent preimages against derived oracles."""

from fractions import Fraction
from math import isqrt

import pytest

from polymaass.specsolve import (construct_case, eisenstein_family, poincare_family,
                                 preimage_constant_weight, preimage_incoherent)
from polymaass.symcalc import (DomainError, Family, PolyAtom, SpectralAtom, apply_laplace,
                               atom_incoherent, form_of, forms_equal, is_zero)


def _delta_power(f, d):
    for _ in range(d):
        f = apply_laplace(f)
    return f


@pytest.mark.parametrize("k", [-3, -2, -1, 0, 2, 3, 4])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_constant_weight_generic(k, d):
    fam = eisenstein_family(k, 0)
    f = preimage_constant_weight(k, d, fam)
    # stated coefficient
    ((_, atom), coeff) = next(iter(f.terms))
    assert atom.laurent == d
    assert coeff.rational_value() == Fraction(1, 1) / (Fraction(1 - k) ** d) / _fact(d)
    # oracle: d Laplacians reach the family value, d+1 kill it
    base = form_of(PolyAtom(0, 0), SpectralAtom(fam.family, k, Fraction(0), 0))
    assert forms_equal(_delta_power(f, d), base)
    assert is_zero(_delta_power(f, d + 1))


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_constant_weight_k1(d):
    fam = poincare_family(1, -1, Fraction(1, 2), orientation=-1)
    f = preimage_constant_weight(1, d, fam)
    ((_, atom), coeff) = next(iter(f.terms))
    assert atom.laurent == 2 * d
    assert coeff.rational_value() == Fraction((-1) ** d, _fact(2 * d))
    base = form_of(PolyAtom(0, 0), SpectralAtom(fam.family, 1, Fraction(1, 2), 0))
    assert forms_equal(_delta_power(f, d), base)
    assert is_zero(_delta_power(f, d + 1))


def test_constant_weight_k1_example():
    f = preimage_constant_weight(1, 2, poincare_family(1, -1, Fraction(1, 2), orientation=-1))
    ((_, atom), coeff) = next(iter(f.terms))
    assert atom.laurent == 4 and coeff.rational_value() == Fraction(1, 24)


def test_constant_weight_reparametrized_family():
    # the backward-oriented Eisenstein family at its other harmonic point
    k, d = -3, 2
    fam = eisenstein_family(k, 1 - k, orientation=-1)
    f = preimage_constant_weight(k, d, fam)
    base = form_of(PolyAtom(0, 0), SpectralAtom(fam.family, k, Fraction(1 - k), 0))
    assert forms_equal(_delta_power(f, d), base)
    assert is_zero(_delta_power(f, d + 1))


@pytest.mark.parametrize("d,coeff", [(0, Fraction(1)), (1, Fraction(-1, 6)),
                                     (2, Fraction(1, 120))])
def test_incoherent_coefficients(d, coeff):
    f = preimage_incoherent(3, d)
    ((_, atom), c) = next(iter(f.terms))
    assert atom.laurent == 2 * d + 1
    assert c.rational_value() == coeff


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_incoherent_preimage_oracle(d):
    # oracle: the Taylor recurrence Delta b_j = -j(j-1) b_{j-2} of a family
    # vanishing at the base point, iterated d times
    f = preimage_incoherent(3, d)
    base = form_of(PolyAtom(0, 0), atom_incoherent(3, 0))
    assert forms_equal(_delta_power(f, d), base)
    assert is_zero(_delta_power(f, d + 1))


def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, isqrt(n) + 1))


# -D for D > 0 is a fundamental discriminant exactly when it is the
# discriminant of an imaginary quadratic field Q(sqrt(-s)), s squarefree:
# -s when s = 3 mod 4, -4s otherwise
FIELD_DISCS = {s if s % 4 == 3 else 4 * s for s in range(1, 400) if squarefree(s)}
# the discriminants the benchmark's cases workload feeds case IIb
BENCH_DISCS = (3, 4, 7, 8, 11, 15, 19, 20, 23, 24, 31, 35, 39, 40, 43, 47)


@pytest.mark.parametrize("build, message", [
    (lambda: preimage_constant_weight(0, 1, eisenstein_family(2, 0)),
     "family weight 2 does not match k=0"),
    (lambda: preimage_incoherent(3, -1), "depth must be nonnegative"),
    (lambda: construct_case("IV", 0, 1), "unknown case label 'IV'"),
])
def test_preimage_entry_points_refuse_bad_input(build, message):
    with pytest.raises(DomainError) as ex:
        build()
    assert str(ex.value) == message


@pytest.mark.parametrize("disc", [-3, 0, 1, 2, 5, 12, 16, 27])
def test_incoherent_case_rejects_a_disc_that_is_not_fundamental(disc):
    with pytest.raises(DomainError, match="fundamental discriminant; got D = %d$" % disc):
        construct_case("IIb", 1, 1, disc=disc)


def test_incoherent_preimage_accepts_exactly_the_fundamental_discs():
    assert set(BENCH_DISCS) <= FIELD_DISCS
    for disc in range(-8, 400):
        try:
            preimage_incoherent(disc, 1)
            accepted = True
        except DomainError:
            accepted = False
        assert accepted == (disc in FIELD_DISCS), disc
