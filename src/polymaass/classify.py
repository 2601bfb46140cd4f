"""Exact depth and Harish-Chandra case label of a symbolic form.

Each vanishing test asks whether the expanded form has no terms, relative
to the formal independence model documented in symcalc.  The form is read
once into flat integer layers on its spectral chains (symcalc._chain_layers):
Delta^j f is j passes of the chains' Delta bands, and L^a or R^a a passes of
the bands that map a chain onto the next, less the top orders that vanished.
When an atom is constant, a step meets a pole-table entry or a vanishing
order, or the tower does not vanish, the general path runs: Delta of each key
of the expanded form's Delta-closure is read into sparse integer rows, and the
L and R tests pass each level, an int vector over (key, pi exponent), to _apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple

from . import CYCLIC, GELFAND
from .symcalc import (DomainError, Form, _apply, _band_rows, _chain_bands, _chain_layers,
                      _delta_layers, _laplace_rows, expand_pending)

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


def _tower(f: Form, low: int = 1, high: int = 0):
    """(levels, vanishes): the levels f, ..., Delta^d f with Delta^{d+1} f = 0,
    and the test whether op^power of a level is zero, for L up to low and R up
    to high.  Delta^N f != 0 on chains, N the sum of the sets' sizes, leaves f
    to the general path: Delta is nilpotent on their span or f is not
    polyharmonic."""
    sets, bands = _chain_layers(f, low, high), {}

    def apply(level: dict, op: str) -> dict:
        """op on each set, less its image's leading zero layers."""
        out = {}
        for (chain, e), layers in level.items():
            if (chain, op) not in bands:
                bands[chain, op] = _chain_bands(chain, op)
            (diags, image), n = bands[chain, op], chain[0] + 1
            layers = _delta_layers(_band_rows(diags, n, len(layers) // n), layers)
            if x := next(filter(None, layers), 0):
                i = layers.index(x)
                out[image, e] = layers[i - i % n:]
        return out

    def on_chains(level: dict, op: str, power: int) -> bool:
        for _ in range(power):
            level = apply(level, op)
        return not level

    if sets is not None:
        levels, size = [sets], sum(map(len, sets.values()))
        while levels[-1] and len(levels) <= size:
            levels.append(apply(levels[-1], "D"))
        if not levels[-1]:
            return levels[:-1] or levels, on_chains
    f = expand_pending(f)
    pool, levels = _laplace_tower(f)

    def on_keys(level, op: str, power: int) -> bool:
        vec, den = level
        return _apply(((pool[i], e, Fraction(x, den)) for (i, e), x in vec.items()),
                      f.weight + (-2 if op == "L" else 2) * power, op, power).is_empty()
    return levels, on_keys


def exact_depth(f: Form) -> int:
    """Smallest d with Delta^{d+1} f = 0; DomainError when there is none."""
    return len(_tower(f)[0]) - 1


def classify_bk(f: Form) -> CaseLabel:
    """The ten-case classification by iterated vanishing tests of L and R
    powers on the top levels of the Laplace tower."""
    k = f.weight
    levels, vanishes = _tower(f, max(1, k), max(0, 1 - k))
    if vanishes(levels[0], "L", 0):
        raise DomainError("cannot classify the zero form")
    d, top = len(levels) - 1, levels[-1]
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
