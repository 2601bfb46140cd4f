"""Exact depth and Harish-Chandra case label of a symbolic form.

The form is expanded once; L, R and Delta keep it expanded, so each
vanishing test asks whether a form has no terms, relative to the formal
independence model documented in symcalc.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import CYCLIC, GELFAND
from .scalars import ZERO
from .symcalc import DomainError, Form, apply_power, expand_pending, laplace_closure

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
REPR_TO_BK = {v: k for k, v in BK_TO_REPR.items()}


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


def _laplace_tower(f: Form) -> list[Form]:
    """[f, Delta f, ..., Delta^d f] with Delta^{d+1} f = 0, for an expanded f.

    Delta maps the span of the N atoms in the Delta-closure of f's atoms
    into itself, so its nilpotent part there has index at most N: when
    Delta^N f is not zero, f is not polyharmonic.  Each step reuses the
    closure's images of single atoms.
    """
    image = laplace_closure(key for key, _c in f.terms)
    tower = [f]
    steps = max(len(image), 1)
    for _ in range(steps):
        acc = {}
        for key, c in tower[-1].terms:
            for key2, c2 in image[key].terms:
                acc[key2] = acc.get(key2, ZERO) + c * c2
        g = Form._make(f.weight, acc)
        if g.is_empty():
            return tower
        tower.append(g)
    raise DomainError("form is not annihilated by Delta^%d, the size of its "
                      "Delta-closure; not polyharmonic" % steps)


def exact_depth(f: Form) -> int:
    """Smallest d with Delta^{d+1} f = 0; DomainError when there is none."""
    return len(_laplace_tower(expand_pending(f))) - 1


def classify_bk(f: Form) -> CaseLabel:
    """The ten-case classification by iterated vanishing tests."""
    f = expand_pending(f)
    if f.is_empty():
        raise DomainError("cannot classify the zero form")
    k = f.weight
    tower = _laplace_tower(f)
    d, top = len(tower) - 1, tower[-1]

    def lowering_test(power: int, g: Form) -> bool:
        return apply_power(g, "L", power).is_empty()

    if k < 1:
        l_zero = lowering_test(1, top)
        r_zero = apply_power(top, "R", 1 - k).is_empty()
        bk = {(True, True): "Ia", (True, False): "Ib",
              (False, True): "Ic", (False, False): "Id"}[(l_zero, r_zero)]
    elif k == 1:
        bk = "IIa" if lowering_test(1, top) else "IIb"
    else:
        if d >= 1 and lowering_test(k, tower[d - 1]):
            return CaseLabel("IIId", d, WeightContext(k))
        if lowering_test(1, top):
            bk = "IIIa"
        elif lowering_test(k, top):
            bk = "IIIb"
        else:
            bk = "IIIc"
    return CaseLabel(bk, d, WeightContext(k))


def expected_dimension_vector(label: CaseLabel):
    """Dimension vector of the cyclic quiver module matching the label."""
    from .quiverrep import cyclic_module_dims   # classify_bk alone needs no quiver code
    return cyclic_module_dims(*BK_TO_MODULE[label.bk], label.depth)
