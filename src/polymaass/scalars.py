"""Exact scalars of the form sum_e q_e * pi^e with rational q_e.

All coefficient arithmetic in the symbolic engine runs over this ring:
rationals are arbitrary precision (fractions.Fraction), pi is carried as a
formal unit so that Poincare normalizations (4*pi*|n|)^j and residue
constants like 3/pi stay exact.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from fractions import Fraction
from typing import Iterable, List, Mapping, Sequence, Tuple, Union

RationalLike = Union[int, Fraction]


class DomainError(ValueError):
    """Raised when an operation's precondition is violated."""


class malformed_json(AbstractContextManager):
    """A block whose parsing errors are raised as DomainError("malformed
    <what>: ..."); a DomainError passes through unchanged."""

    def __init__(self, what: str):
        self.what = what

    def __exit__(self, kind, ex, _tb):
        if kind and issubclass(kind, (ArithmeticError, AttributeError, LookupError, TypeError,
                                      ValueError)) and not issubclass(kind, DomainError):
            raise DomainError("malformed %s: %s" % (self.what, ex)) from None


def json_int(x) -> int:
    """The integer a JSON field holds; true and false raise TypeError."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError("an integer field must be a JSON integer, not %r" % (x,))
    return x


def json_number(x) -> Union[int, Fraction]:
    """The exact rational a JSON int or string ("-3", "5/7", "0.1") holds,
    with the value or error that Fraction(x) gives: a plain ASCII integer
    string (digits after an optional "-") as an int, an ASCII "p/q" as
    Fraction(int p, int q).  A float or a bool raises TypeError, so that 0.1
    is never read as the nearest binary fraction, nor true as 1."""
    if type(x) is str and x.isascii():
        if (x[1:] if x[:1] == "-" else x).isdigit():
            return int(x)
        num, slash, den = x.partition("/")
        if slash and (num[1:] if num[:1] == "-" else num).isdigit() and den.isdigit():
            return Fraction(int(num), int(den))
    if not isinstance(x, (int, str)) or isinstance(x, bool):
        raise TypeError("a rational must be an int or a string, not %r" % (x,))
    return Fraction(x)


def json_matrix(m) -> List[List[Union[int, Fraction]]]:
    """A matrix read from JSON, a list of row lists, by json_number."""
    if not isinstance(m, list) or not all(isinstance(row, list) for row in m):
        raise TypeError("a matrix must be a list of row lists, not %r" % (m,))
    return [[json_number(x) for x in row] for row in m]


def check_exact(what: str, rows: Sequence[Sequence]) -> None:
    """Raise DomainError, naming what, unless every entry of the rows is an
    int or a Fraction; a bool, a float or a string is refused."""
    if not {type(x) for row in rows for x in row} <= {int, Fraction}:
        for row in rows:
            for x in row:
                if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                    raise DomainError("%s has the entry %r; entries must be ints or Fractions"
                                      % (what, x))


def exact_int(what: str, x) -> int:
    """x when it is an int; DomainError, naming what, for a bool or any
    other type."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError("%s must be an int, not %r" % (what, x))
    return x


def exact_rational(what: str, q) -> Fraction:
    """q as a Fraction when it is an int or a Fraction; DomainError, naming
    what, for a bool, a float, a string or any other type."""
    if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
        raise DomainError("%s must be an int or a Fraction, not %r" % (what, q))
    return Fraction(q)


class Scalar:
    """A finite sum q_0*pi^e_0 + q_1*pi^e_1 + ... with distinct integer e_i.

    Instances are immutable.  The term tuple is kept normalized: sorted by
    exponent, exponents distinct, every coefficient a nonzero Fraction.  So
    the zero scalar has an empty tuple and equality is structural.  The
    public constructor, the sum, the product and from_json all end in
    ``_sum``, the one place that normalizes summed terms; ``_make`` wraps a
    tuple that is already normalized.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | Iterable[Tuple[int, RationalLike]] = ()):
        items = terms.items() if hasattr(terms, "items") else terms
        pairs = []
        for e, q in items:
            exact_int("a pi exponent", e)
            if type(q) is not Fraction:
                q = exact_rational("a scalar coefficient", q)
            pairs.append((e, q))
        self._terms = Scalar._sum(pairs)._terms

    @staticmethod
    def _make(terms: Tuple[Tuple[int, Fraction], ...]) -> "Scalar":
        """Wrap a term tuple that is already normalized."""
        s = object.__new__(Scalar)
        s._terms = terms
        return s

    @staticmethod
    def _sum(pairs: Iterable[Tuple[int, Fraction]]) -> "Scalar":
        """The sum of the terms q*pi^e of the (e, q) pairs, normalized."""
        acc: dict[int, Fraction] = {}
        for e, q in pairs:
            acc[e] = acc[e] + q if e in acc else q
        return Scalar._make(tuple(sorted((e, q) for e, q in acc.items() if q)))

    @staticmethod
    def from_rational(q: RationalLike) -> "Scalar":
        return Scalar.pi_power(0, q)

    @staticmethod
    def pi_power(e: int, q: RationalLike = 1) -> "Scalar":
        if type(q) is not Fraction or type(e) is not int:
            q = exact_rational("a scalar coefficient", q)
            exact_int("a pi exponent", e)
        return Scalar._make(((e, q),)) if q else ZERO

    @property
    def terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(e == 0 for e, _ in self._terms)

    def rational_value(self) -> Fraction:
        """The value when no pi powers are present; raises otherwise."""
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("scalar has nonzero pi exponent: %r" % (self,))
        return self._terms[0][1]

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar._sum(self._terms + other._terms)

    def __neg__(self) -> "Scalar":
        return Scalar._make(tuple((e, -q) for e, q in self._terms))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: Union["Scalar", int, Fraction]) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar._sum((e1 + e2, q1 * q2) for e1, q1 in self._terms for e2, q2 in other._terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            # a comparison never raises: a bool compares as its int
            other = Scalar.pi_power(0, Fraction(other))
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a rational scalar equals its Fraction, so it hashes as one
        if self.is_rational():
            return hash(self.rational_value())
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return "Scalar(%s)" % (self.to_str() or "0")

    def to_str(self) -> str:
        parts = []
        for e, q in self._terms:
            if e == 0:
                parts.append(str(q))
            else:
                head = "" if q == 1 else ("-" if q == -1 else str(q) + "*")
                exp = "pi" if e == 1 else "pi^%d" % e
                parts.append(head + exp)
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> list:
        return [{"pi_exp": e, "num": str(q.numerator), "den": str(q.denominator)}
                for e, q in self._terms]

    @staticmethod
    def from_json(data: list) -> "Scalar":
        with malformed_json("scalar JSON"):
            pairs = []
            for t in data:
                num, den = json_number(t["num"]), json_number(t["den"])
                if num.denominator != 1 or den.denominator != 1:
                    raise ValueError("num and den must be integers")
                # a zero den is divided as a Fraction, for that division's error
                pairs.append((json_int(t["pi_exp"]),
                              Fraction(num, den) if den else num / Fraction(den)))
            return Scalar._sum(pairs)


ZERO = Scalar()
ONE = Scalar.from_rational(1)
