from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

import pytest
from hypothesis import given, strategies as st

from polymaass.scalars import ONE, DomainError, RationalLike, Scalar, ZERO
from polymaass.symcalc import CONST_ATOM, E00, form_of


def test_zero_is_empty():
    assert Scalar({0: 0, 2: 0}).is_zero()
    assert not Scalar({0: 1}).is_zero()
    assert Scalar() == ZERO


def test_arithmetic():
    a = Scalar({0: Fraction(1, 2), -1: 3})     # 1/2 + 3/pi
    b = Scalar({1: Fraction(2)})               # 2 pi
    assert a + (-a) == ZERO
    assert a * b == Scalar({1: 1, 0: 6})
    assert (a - a).is_zero()
    assert ONE * a == a


def test_rational_value():
    assert Scalar.from_rational(Fraction(7, 3)).rational_value() == Fraction(7, 3)
    with pytest.raises(ValueError):
        Scalar.pi_power(1).rational_value()


rationals = st.fractions(max_denominator=10 ** 4)
scalars = st.dictionaries(st.integers(-3, 3), rationals, max_size=4).map(Scalar)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(scalars)
def test_json_round_trip(a):
    assert Scalar.from_json(a.to_json()) == a


@given(scalars)
def test_hash_agrees_with_eq(a):
    # a rational scalar equals its int or Fraction, so it hashes as one
    b = Scalar(a.terms)
    assert a == b and hash(a) == hash(b)
    if a.is_rational():
        q = a.rational_value()
        assert a == q and hash(a) == hash(q)
        if q.denominator == 1:
            assert a == q.numerator and hash(a) == hash(q.numerator)


def test_rational_scalars_are_found_by_their_value():
    assert 5 in {Scalar.from_rational(5)}
    assert Scalar.from_rational(5) in {5}
    assert Fraction(1, 2) in {Scalar.from_rational(Fraction(1, 2))}
    assert 0 in {ZERO} and hash(ZERO) == hash(0)
    assert len({Scalar.from_rational(5), 5, Fraction(5)}) == 1
    assert Scalar.pi_power(1, 5) not in {5}


def test_to_str():
    assert Scalar({-1: 3}).to_str() == "3*pi^-1"
    assert Scalar({0: Fraction(-1, 2)}).to_str() == "-1/2"


# The Scalar the package used before its arithmetic moved to normalized
# term tuples, kept verbatim (renamed, and without the methods that did not
# change) as the reference: every operation of the new ring must give the
# same terms, hash and JSON.  Its __hash__ alone was changed: a rational
# scalar now hashes as its Fraction, as Scalar's does, so that the hash
# agrees with == against ints and Fractions.
class ReferenceScalar:
    """A finite sum q_0*pi^e_0 + q_1*pi^e_1 + ... with distinct integer e_i.

    Instances are immutable; zero terms are never stored, so the zero
    scalar has an empty term tuple and equality is structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | Iterable[Tuple[int, RationalLike]] = ()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        acc: dict[int, Fraction] = {}
        for e, q in items:
            q = Fraction(q)
            if q:
                acc[e] = acc.get(e, Fraction(0)) + q
        self._terms = tuple(sorted((e, q) for e, q in acc.items() if q))

    @staticmethod
    def from_rational(q: RationalLike) -> "ReferenceScalar":
        return ReferenceScalar({0: Fraction(q)})

    @staticmethod
    def pi_power(e: int, q: RationalLike = 1) -> "ReferenceScalar":
        return ReferenceScalar({e: Fraction(q)})

    @property
    def terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        return self._terms

    def __add__(self, other: "ReferenceScalar") -> "ReferenceScalar":
        if not isinstance(other, ReferenceScalar):
            return NotImplemented
        acc = dict(self._terms)
        for e, q in other._terms:
            acc[e] = acc.get(e, Fraction(0)) + q
        return ReferenceScalar(acc)

    def __neg__(self) -> "ReferenceScalar":
        return ReferenceScalar({e: -q for e, q in self._terms})

    def __sub__(self, other: "ReferenceScalar") -> "ReferenceScalar":
        return self + (-other)

    def __mul__(self, other: Union["ReferenceScalar", int, Fraction]) -> "ReferenceScalar":
        if isinstance(other, (int, Fraction)):
            other = ReferenceScalar.from_rational(other)
        if not isinstance(other, ReferenceScalar):
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for e1, q1 in self._terms:
            for e2, q2 in other._terms:
                e = e1 + e2
                acc[e] = acc.get(e, Fraction(0)) + q1 * q2
        return ReferenceScalar(acc)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ReferenceScalar.from_rational(other)
        if not isinstance(other, ReferenceScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if all(e == 0 for e, _q in self._terms):
            return hash(sum((q for _e, q in self._terms), Fraction(0)))
        return hash(self._terms)

    def to_json(self) -> list:
        return [{"pi_exp": e, "num": str(q.numerator), "den": str(q.denominator)}
                for e, q in self._terms]


def assert_normalized(s: Scalar) -> None:
    """Sorted, distinct exponents, nonzero coefficients of type Fraction
    (an int would compare equal to its Fraction, so the type is checked)."""
    exps = [e for e, _q in s.terms]
    assert exps == sorted(set(exps))
    assert all(type(e) is int for e in exps)
    assert all(type(q) is Fraction and q for _e, q in s.terms)


def assert_agrees(s: Scalar, ref: ReferenceScalar) -> None:
    assert_normalized(s)
    assert s.terms == ref.terms
    assert hash(s) == hash(ref)
    assert s.to_json() == ref.to_json()


# terms that often share exponents and often cancel, and ints among the
# coefficients as callers pass them
coefficients = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                          max_denominator=4))
term_lists = st.lists(st.tuples(st.integers(-2, 2), coefficients), max_size=5)
factors = st.one_of(st.integers(-4, 4), st.fractions(max_denominator=6))


def both(terms):
    return Scalar(terms), ReferenceScalar(terms)


@given(term_lists, term_lists)
def test_arithmetic_agrees_with_reference(ta, tb):
    (a, ra), (b, rb) = both(ta), both(tb)
    assert_agrees(a, ra)
    assert_agrees(Scalar(dict(ra.terms)), ra)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a - b, ra - rb)
    assert_agrees(a - a, ra - ra)
    assert_agrees(a + (-a), ra + (-ra))
    assert_agrees(-a, -ra)
    assert_agrees(a * b, ra * rb)
    assert_agrees(a * ZERO, ra * ReferenceScalar())
    assert_agrees(ZERO * a, ReferenceScalar() * ra)
    assert (a == b) == (ra == rb)
    assert (a == a + ZERO) and (a + b == b + a)


@given(term_lists, factors)
def test_scaling_agrees_with_reference(ta, q):
    a, ra = both(ta)
    assert_agrees(a * q, ra * q)
    assert_agrees(q * a, q * ra)
    assert_agrees(a * 0, ra * 0)
    assert_agrees(a * Fraction(0), ra * Fraction(0))
    assert (a == q) == (ra == q)
    assert_agrees(Scalar.from_rational(q), ReferenceScalar.from_rational(q))
    assert_agrees(Scalar.pi_power(2, q), ReferenceScalar.pi_power(2, q))


@given(term_lists)
def test_from_json_is_normalized(ta):
    a, ra = both(ta)
    assert_agrees(Scalar.from_json(ra.to_json()), ra)


def test_public_constructor_normalizes_every_input():
    assert_agrees(Scalar([(1, 2), (0, 1), (1, -2), (0, Fraction(1, 2))]),
                  ReferenceScalar({0: Fraction(3, 2)}))
    assert_agrees(Scalar(iter([(3, 1), (-1, 2)])), ReferenceScalar({-1: 2, 3: 1}))
    assert_agrees(Scalar.pi_power(1, 0), ReferenceScalar())
    with pytest.raises(DomainError, match="^a scalar coefficient must be an int or a "
                                          "Fraction, not True$"):
        Scalar.from_rational(True)


@pytest.mark.parametrize("value", [True, False, 0.1, 1.0, "1", "1/2", None])
def test_constructors_reject_inexact_coefficients(value):
    builds = [lambda: Scalar({0: value}), lambda: Scalar([(1, value)]),
              lambda: Scalar.from_rational(value), lambda: Scalar.pi_power(2, value),
              lambda: form_of(E00, CONST_ATOM, value)]
    for build in builds:
        with pytest.raises(DomainError) as ex:
            build()
        assert str(ex.value) == "a scalar coefficient must be an int or a Fraction, not %r" \
            % (value,)
    # a comparison never raises; a bool compares as its int
    assert (Scalar.from_rational(1) == True) and not (Scalar.from_rational(2) == True)  # noqa: E712


def test_from_json_sums_repeated_exponents():
    data = [{"pi_exp": 0, "num": "1", "den": "1"}, {"pi_exp": -1, "num": "3", "den": "1"},
            {"pi_exp": 0, "num": "2", "den": "1"}, {"pi_exp": -1, "num": "-3", "den": "1"}]
    assert Scalar.from_json(data) == Scalar.from_rational(3)
    assert Scalar.from_json(data).terms == ((0, Fraction(3)),)


@pytest.mark.parametrize("num, den", [(1.9, "1"), ("1", 2.7), (1.0, "1"), ("1/2", "1"),
                                      ("1", "0.5")])
def test_from_json_rejects_non_integer_num_den(num, den):
    from polymaass.scalars import DomainError
    assert Scalar.from_json([{"pi_exp": 0, "num": 3, "den": "-6"}]) == \
        Scalar.from_rational(Fraction(-1, 2))
    with pytest.raises(DomainError, match="^malformed scalar JSON: "):
        Scalar.from_json([{"pi_exp": 0, "num": num, "den": den}])


def _reference_rational(x):
    """A JSON rational as Fraction reads it, with a float and a bool refused."""
    if not isinstance(x, (int, str)) or isinstance(x, bool):
        raise TypeError("a rational must be an int or a string, not %r" % (x,))
    return Fraction(x)


def _reference_from_json(data):
    """Scalar.from_json as it read num and den before they were read by
    int where they could be: through Fraction alone."""
    from polymaass.scalars import json_int, malformed_json
    with malformed_json("scalar JSON"):
        terms = []
        for t in data:
            num, den = _reference_rational(t["num"]), _reference_rational(t["den"])
            if num.denominator != 1 or den.denominator != 1:
                raise ValueError("num and den must be integers")
            terms.append((json_int(t["pi_exp"]), num / den))
        return Scalar(terms)


def _outcome(read, *args):
    """read(*args), or the type and text of what it raises."""
    try:
        return read(*args)
    except Exception as ex:   # compared, not swallowed
        return type(ex), str(ex)


# spellings of num and den: plain ASCII integers, which json_number reads by
# int, and every other string, which goes through Fraction(str)
SPELLINGS = ["3", "-3", "0", "-0", "007", "+3", " 3", "3 ", "3_0", "1/0", "2/4", "0.5", "1e1",
             "\u0663", "-", "", "--3", 7, True, 1.5]


@pytest.mark.parametrize("den", ["1", "-6", "0", "+2", " 2", "2_0", "\u0662", "1/0"])
@pytest.mark.parametrize("num", SPELLINGS, ids=repr)
def test_from_json_reads_num_and_den_as_fraction_does(num, den):
    for data in ([{"pi_exp": 1, "num": num, "den": den}],
                 [{"pi_exp": True, "num": num, "den": den}]):
        got, want = _outcome(Scalar.from_json, data), _outcome(_reference_from_json, data)
        assert got == want and type(got) is type(want)


def test_json_number_reads_only_plain_ascii_integers_as_ints(monkeypatch):
    from polymaass import scalars
    from polymaass.scalars import json_number
    plain = ("0", "-3", "007", "-0", "9" * 300)
    for x in plain:
        assert json_number(x) == int(x) and type(json_number(x)) is int
    for x in SPELLINGS[5:]:
        assert type(_outcome(json_number, x)) is not int

    def no_strings(*args):
        assert not any(isinstance(a, str) for a in args), args
        return Fraction(*args)

    # plain integer strings, and the two sides of an ASCII p/q, never reach
    # Fraction(str)
    monkeypatch.setattr(scalars, "Fraction", no_strings)
    for x in plain:
        assert type(json_number(x)) is int
    assert json_number("-1/12") == Fraction(-1, 12)
    assert Scalar.from_json([{"pi_exp": 2, "num": "-3", "den": "6"}]).terms == \
        ((2, Fraction(-1, 2)),)


@pytest.mark.parametrize("pi_exp", [1.5, 1.0, "1"])
def test_from_json_rejects_non_integer_exponent(pi_exp):
    from polymaass.scalars import DomainError
    with pytest.raises(DomainError, match="^malformed scalar JSON: "):
        Scalar.from_json([{"pi_exp": pi_exp, "num": "1", "den": "1"}])


# every JSON input path reads a number as the reference does: the value it
# gives, or its error text under the path's "malformed ..." prefix
PATH_SPELLINGS = SPELLINGS + ["-1/12", "6/-4", "1/00", "-0/5", "007/3", "1/", "1/2/3", None]


def _read_point(x, tmp_path):
    from polymaass.symcalc import PolyAtom, form_from_json, form_to_json, atom_E
    data = form_to_json(form_of(PolyAtom(0, 0), atom_E(0, 2)))
    data["terms"][0]["spectral"]["point"] = x
    (_e, atom), = dict(form_from_json(data).terms)
    return atom.point


def _read_pole_point(x, tmp_path):
    import json
    from polymaass.symcalc import load_pole_table
    path = tmp_path / "poles.json"
    path.write_text(json.dumps([{"family": {"kind": "eisenstein"}, "weight": 0, "point": x,
                                 "residue_form": {"weight": 0, "terms": []}}]))
    (_fam, _w, p), = load_pole_table(str(path))
    return p


def _read_layer_entry(x, tmp_path):
    from polymaass.specsolve import GradedVector
    data = {"k": 0, "m": 0, "branch": "L", "d": 0, "layers": [[x]]}
    return GradedVector.from_json(data).layers[0][0]


def _read_preimage_scale(x, tmp_path):
    from polymaass.specsolve import GradedVector
    data = {"k": 0, "m": 0, "branch": "L", "d": 0, "layers": [["1"]], "preimage_scale": x}
    return GradedVector.from_json(data).preimage_scale


def _read_quiver_entry(x, tmp_path):
    from polymaass.quiverrep import QuiverRep
    data = {"quiver": "cyclic", "dims": {"-": 1, "+": 1}, "maps": {"a": [[x]], "b": [["0"]]}}
    return QuiverRep.from_json(data).maps["a"][0][0]


def _read_fragment_entry(x, tmp_path):
    from polymaass.quiverrep import HCFragment
    return HCFragment.from_json({"l": 0, "z_minus": [["0"]], "z_plus": [[x]]}).z_plus[0][0]


JSON_PATHS = [(_read_point, "malformed form JSON: "),
              (_read_pole_point, "malformed pole table JSON: "),
              (_read_layer_entry, "malformed graded vector JSON: "),
              (_read_preimage_scale, "malformed graded vector JSON: "),
              (_read_quiver_entry, "malformed quiver representation: "),
              (_read_fragment_entry, "malformed fragment JSON: ")]


@pytest.mark.parametrize("x", PATH_SPELLINGS, ids=repr)
def test_every_json_input_path_reads_a_number_as_the_reference_does(x, tmp_path):
    want = _outcome(_reference_rational, x)
    for read, prefix in JSON_PATHS:
        got = _outcome(read, x, tmp_path)
        if type(want) is not Fraction:
            assert got == (DomainError, prefix + want[1]), read.__name__
        elif read is _read_preimage_scale and not want:
            assert got == (DomainError, "preimage_scale must be nonzero")
        else:
            assert got == want and type(got) is Fraction, read.__name__
    # a scalar's num and den, which must also be integers
    for data in ([{"pi_exp": 0, "num": x, "den": "-2"}], [{"pi_exp": 0, "num": "3", "den": x}]):
        got, want = _outcome(Scalar.from_json, data), _outcome(_reference_from_json, data)
        assert got == want and type(got) is type(want)
