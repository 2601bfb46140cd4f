"""Exact scalars of the form sum_e q_e * pi^e with rational q_e.

All coefficient arithmetic in the symbolic engine runs over this ring:
rationals are arbitrary precision (fractions.Fraction), pi is carried as a
formal unit so that Poincare normalizations (4*pi*|n|)^j and residue
constants like 3/pi stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

RationalLike = Union[int, Fraction]


class Scalar:
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
    def from_rational(q: RationalLike) -> "Scalar":
        return Scalar({0: Fraction(q)})

    @staticmethod
    def pi_power(e: int, q: RationalLike = 1) -> "Scalar":
        return Scalar({e: Fraction(q)})

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
        acc = dict(self._terms)
        for e, q in other._terms:
            acc[e] = acc.get(e, Fraction(0)) + q
        return Scalar(acc)

    def __neg__(self) -> "Scalar":
        return Scalar({e: -q for e, q in self._terms})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: Union["Scalar", int, Fraction]) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for e1, q1 in self._terms:
            for e2, q2 in other._terms:
                e = e1 + e2
                acc[e] = acc.get(e, Fraction(0)) + q1 * q2
        return Scalar(acc)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
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
        return Scalar({int(t["pi_exp"]): Fraction(int(t["num"]), int(t["den"])) for t in data})


ZERO = Scalar()
ONE = Scalar.from_rational(1)
