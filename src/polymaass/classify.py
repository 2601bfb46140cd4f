"""Exact depth and Harish-Chandra case label of a symbolic form.

The form is expanded once; L, R and Delta keep it expanded, so each
vanishing test asks whether a form has no terms, relative to the formal
independence model documented in symcalc.  The Laplace tower runs in
integers: Delta of each key of the form's Delta-closure is read once into
sparse integer rows, and each level Delta^j f is an integer vector over
(key, pi exponent) with one denominator, which the L and R tests pass to
symcalc._apply as it is: no Form is built after the one expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple

from . import CYCLIC, GELFAND
from .symcalc import DomainError, Form, _apply, _laplace_rows, expand_pending

# the cyclic quiver module (quiver, generator type, case) of each label
BK_TO_MODULE = {
    "Ia": (GELFAND, "*", "a"), "Ib": (GELFAND, "*", "c"),
    "Ic": (GELFAND, "*", "d"), "Id": (GELFAND, "*", "b"),
    "IIa": (CYCLIC, "+", "a"), "IIb": (CYCLIC, "+", "b"),
    "IIIa": (GELFAND, "+", "a"), "IIIb": (GELFAND, "+", "b"),
    "IIIc": (GELFAND, "+", "c"), "IIId": (GELFAND, "+", "d"),
}
# G(elfand) or C(yclic), II for a Gelfand + generator or I otherwise, the case
BK_TO_REPR = {bk: ("G" + ("II" if gen == "+" else "I") if quiver == GELFAND else "CI") + case
              for bk, (quiver, gen, case) in BK_TO_MODULE.items()}


@dataclass(frozen=True)
class WeightContext:
    k: int

    @property
    def l(self) -> int:
        if self.k < 1:
            return 1 - self.k
        if self.k == 1:
            return 0
        return self.k - 1

    @property
    def gamma(self) -> int:
        return self.k * self.k - 2 * self.k


@dataclass(frozen=True)
class CaseLabel:
    bk: str
    depth: int
    context: WeightContext

    def __post_init__(self):
        if self.bk not in BK_TO_REPR:
            raise DomainError("unknown BK label %r" % (self.bk,))
        if self.bk == "IIId" and self.depth < 1:
            raise DomainError("case IIId occurs only in positive depth")

    @property
    def repr_label(self) -> str:
        return BK_TO_REPR[self.bk]

    def to_json(self) -> dict:
        ctx = self.context
        return {"bk": self.bk, "repr": self.repr_label, "depth": self.depth,
                "k": ctx.k, "l": ctx.l, "gamma": ctx.gamma}


def _laplace_tower(f: Form) -> Tuple[list, list]:
    """The Delta-closure's key pool of an expanded f, and the levels f,
    Delta f, ..., Delta^d f with Delta^{d+1} f = 0.

    A level (vec, den) is the integer vector vec over (key index, pi
    exponent), without zeros, over the positive den, in lowest terms; it
    vanishes when vec is empty.  Delta maps the span of the N keys of the
    closure into itself, so its nilpotent part there has index at most N:
    when Delta^N f is not zero, f is not polyharmonic.
    """
    pool, rows, delta_den = _laplace_rows(key for key, _c in f.terms)
    den = lcm(*(q.denominator for _key, c in f.terms for _e, q in c.terms))
    # f's keys open the pool, in order
    levels = [({(i, e): q.numerator * (den // q.denominator)
                for i, (_key, c) in enumerate(f.terms) for e, q in c.terms}, den)]
    steps = max(len(pool), 1)
    for _ in range(steps):
        vec, den = levels[-1]
        acc = {}
        for (i, e), x in vec.items():
            for j, s, y in rows[i]:
                key = (j, e + s)
                acc[key] = acc.get(key, 0) + x * y
        acc = {key: x for key, x in acc.items() if x}
        if not acc:
            return pool, levels
        den *= delta_den
        g = gcd(den, *acc.values())
        levels.append(({key: x // g for key, x in acc.items()}, den // g))
    raise DomainError("form is not annihilated by Delta^%d, the size of its "
                      "Delta-closure; not polyharmonic" % steps)


def exact_depth(f: Form) -> int:
    """Smallest d with Delta^{d+1} f = 0; DomainError when there is none."""
    return len(_laplace_tower(expand_pending(f))[1]) - 1


def classify_bk(f: Form) -> CaseLabel:
    """The ten-case classification by iterated vanishing tests."""
    f = expand_pending(f)
    if f.is_empty():
        raise DomainError("cannot classify the zero form")
    k = f.weight
    pool, levels = _laplace_tower(f)
    d, top = len(levels) - 1, levels[-1]

    def vanishes(level, op: str, power: int) -> bool:
        vec, den = level
        return _apply(((pool[i], e, Fraction(x, den)) for (i, e), x in vec.items()),
                      k - 2 * power if op == "L" else k + 2 * power, op, power).is_empty()

    if k < 1:
        l_zero = vanishes(top, "L", 1)
        r_zero = vanishes(top, "R", 1 - k)
        bk = {(True, True): "Ia", (True, False): "Ib",
              (False, True): "Ic", (False, False): "Id"}[(l_zero, r_zero)]
    elif k == 1:
        bk = "IIa" if vanishes(top, "L", 1) else "IIb"
    else:
        if d >= 1 and vanishes(levels[d - 1], "L", k):
            return CaseLabel("IIId", d, WeightContext(k))
        if vanishes(top, "L", 1):
            bk = "IIIa"
        elif vanishes(top, "L", k):
            bk = "IIIb"
        else:
            bk = "IIIc"
    return CaseLabel(bk, d, WeightContext(k))


def expected_dimension_vector(label: CaseLabel):
    """Dimension vector of the cyclic quiver module matching the label."""
    from .quiverrep import cyclic_module_dims   # classify_bk alone needs no quiver code
    return cyclic_module_dims(*BK_TO_MODULE[label.bk], label.depth)
