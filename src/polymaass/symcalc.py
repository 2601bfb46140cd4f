"""Exact formal calculus of weight-graded forms.

A Form is a finite linear combination of tensor atoms

    e_{r,m-r} (x) S

where e_{r,m-r} is a polynomial-valued vector of weight m-2r and S is a
spectral atom: a derivative coefficient of a named spectral family
(Eisenstein, Poincare, incoherent Eisenstein, or the constant function)
at a rational spectral point, optionally with a pending power of the
lowering or raising operator still to be unfolded.

Spectral atom semantics. An expanded atom with family weight w, point P
and derivative index t >= 0 denotes the function

    (d/du)^t [ Phi_w(. , P + u) ] at u = 0,

with Phi the family member of weight w in the global spectral parameter.
Reparametrized families (running the parameter backwards) are expressed
through the same atoms; the sign (-1)^t is folded into coefficients when
such a family is sampled.  An operator step on a t = 0 atom that lands
on a tabled pole of the shifted family adds the tabled residue as
ordinary terms (default table: the weight-0 Eisenstein family has a
simple pole at the point 1 with residue 3/pi times the constant
function).

Distinct expanded atoms are treated as linearly independent; zero tests
are structural after normalization and pole substitution.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .scalars import (DomainError, Scalar, ZERO, ONE, exact_int, exact_rational, json_int,
                      json_number, malformed_json)


class PolePointWarning(UserWarning):
    """A shifted atom landed on a tabled pole point (Laurent coefficients
    of the continued family are used formally).  One operator call (an
    apply_power call of any power is one), Laplace closure or emit_form
    warns once per distinct spectral step that lands there, however many
    keys or passes share the step."""


# ---------------------------------------------------------------------------
# atoms


@dataclass(frozen=True)
class PolyAtom:
    """The vector e_{r,m-r} spanning Pol_m, of weight m-2r."""

    m: int
    r: int

    def __post_init__(self):
        if type(self.m) is not int or type(self.r) is not int:
            exact_int("m", self.m)
            exact_int("r", self.r)
        if self.m < 0 or not (0 <= self.r <= self.m):
            raise DomainError("e-atom index out of range: m=%d, r=%d" % (self.m, self.r))
        # atoms key every form's terms; hash once, not on every dict lookup
        object.__setattr__(self, "_hash", hash((self.m, self.r)))

    def __hash__(self):
        return self._hash

    @property
    def weight(self) -> int:
        return self.m - 2 * self.r

    def __repr__(self):
        return "e_{%d,%d}" % (self.r, self.m - self.r)


E00 = PolyAtom(0, 0)

EISENSTEIN = "eisenstein"
POINCARE = "poincare"
INCOHERENT = "incoherent"
CONSTANT = "constant"


@dataclass(frozen=True)
class Family:
    """Identity of a spectral family (without weight or point)."""

    kind: str
    index: Optional[int] = None       # Poincare index n != 0
    disc: Optional[int] = None        # incoherent discriminant D

    def __post_init__(self):
        if self.kind not in (EISENSTEIN, POINCARE, INCOHERENT, CONSTANT):
            raise DomainError("unknown family kind %r" % (self.kind,))
        for name in ("index", "disc"):
            if getattr(self, name) is not None:
                exact_int(name, getattr(self, name))
        if self.kind == POINCARE and (self.index is None or self.index == 0):
            raise DomainError("Poincare family needs a nonzero index")
        if self.kind == INCOHERENT and self.disc is None:
            raise DomainError("incoherent family needs a discriminant")
        # every spectral atom's hash hashes its family: hash it once
        object.__setattr__(self, "_hash", hash((self.kind, self.index, self.disc)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):   # string hashes differ between processes: pickle no _hash
        return (Family, (self.kind, self.index, self.disc))

    def is_eisenstein_like(self) -> bool:
        return self.kind in (EISENSTEIN, INCOHERENT)

    def __repr__(self):
        if self.kind == POINCARE:
            return "P[n=%d]" % self.index
        if self.kind == INCOHERENT:
            return "E-[D=%d]" % self.disc
        if self.kind == CONSTANT:
            return "const"
        return "E"


CONST_FAMILY = Family(CONSTANT)


@dataclass(frozen=True)
class SpectralAtom:
    family: Family
    weight: int
    point: Fraction
    laurent: int
    pending: Optional[Tuple[str, int]] = None   # ("L", a) or ("R", a), a >= 1

    def __post_init__(self):
        if type(self.weight) is not int or type(self.laurent) is not int:
            exact_int("weight", self.weight)
            exact_int("laurent", self.laurent)
        if type(self.point) is not Fraction:
            object.__setattr__(self, "point", exact_rational("point", self.point))
        if self.laurent < 0:
            raise DomainError("laurent index must be nonnegative, got %d" % self.laurent)
        if self.family == CONST_FAMILY and (self.weight, self.point, self.laurent) != (0, 0, 0):
            # the constant function has no other weight, point or derivative
            raise DomainError("a constant atom has weight 0, point 0 and laurent index 0, "
                              "not %d, %s and %d" % (self.weight, self.point, self.laurent))
        if self.pending is not None:
            d, a = self.pending
            if d not in ("L", "R") or type(a) is not int or a < 1:
                raise DomainError("malformed pending operator %r" % (self.pending,))
        # atoms key every form's terms; hash the Fraction point once, not
        # on every dict lookup
        object.__setattr__(self, "_hash", hash(
            (self.family, self.weight, self.point, self.laurent, self.pending)))

    @staticmethod
    def _make(family: Family, weight: int, point: Fraction, laurent: int) -> "SpectralAtom":
        """An expanded atom from parts known to be valid, such as a step
        result of a checked atom, with the hash __post_init__ caches."""
        a = object.__new__(SpectralAtom)
        a.__dict__.update(family=family, weight=weight, point=point, laurent=laurent,
                          pending=None, _hash=hash((family, weight, point, laurent, None)))
        return a

    def __hash__(self):
        return self._hash

    def __reduce__(self):   # string hashes differ between processes: pickle no _hash
        return (SpectralAtom, (self.family, self.weight, self.point, self.laurent,
                               self.pending))

    @property
    def effective_weight(self) -> int:
        w = self.weight
        if self.pending is not None:
            d, a = self.pending
            w += -2 * a if d == "L" else 2 * a
        return w

    def __repr__(self):
        core = "%r^(%d)_{%d,%s}" % (self.family, self.laurent, self.weight, self.point)
        if self.pending is not None:
            core = "%s^%d %s" % (self.pending[0], self.pending[1], core)
        return core


CONST_ATOM = SpectralAtom(CONST_FAMILY, 0, Fraction(0), 0)


# ---------------------------------------------------------------------------
# vanishing orders


def vanishing_order(family: Family, weight: int, point: Fraction) -> int:
    """Known order of vanishing of the family member at the point.  The
    incoherent family vanishes at its base point (1, 0), and so at
    (1 + 2j, -j) for every j >= 0: R Phi_1(s) = (s + 1) Phi_3(s - 1) vanishes
    at s = 0 with Phi_1, and s + 1 does not, so Phi_3 vanishes at -1; in
    general R Phi_{1+2j}(s) = (s + 1 + 2j) Phi_{3+2j}(s - 1), whose factor
    is j + 1 != 0 at s = -j."""
    if family.kind == INCOHERENT and weight % 2 and weight >= 1 and 2 * point == 1 - weight:
        return 1
    return 0


def _pole_warning(weight: int, point: Fraction, stacklevel: int) -> None:
    """Warn of an atom at a tabled pole point, stacklevel frames up (1: the caller)."""
    warnings.warn("atom at tabled pole point (weight %d, point %s); using Laurent coefficients "
                  "of the continued family" % (weight, point), PolePointWarning,
                  stacklevel=stacklevel + 1)


# ---------------------------------------------------------------------------
# forms


class Form:
    """Weight-homogeneous exact linear combination of tensor atoms."""

    __slots__ = ("weight", "_terms")

    def __init__(self, weight: int, terms: Dict[Tuple[PolyAtom, SpectralAtom], Scalar] | None = None):
        self.weight = exact_int("weight", weight)
        clean: Dict[Tuple[PolyAtom, SpectralAtom], Scalar] = {}
        for key, coeff in (terms or {}).items():
            if coeff.is_zero():
                continue
            e, a = key
            if e.weight + a.effective_weight != self.weight:
                raise DomainError(
                    "term weight %d+%d does not match form weight %d"
                    % (e.weight, a.effective_weight, self.weight))
            clean[key] = coeff
        self._terms = clean

    @staticmethod
    def _make(weight: int, terms: Dict[Tuple[PolyAtom, SpectralAtom], Scalar]) -> "Form":
        """Wrap terms whose weights are known to match; only zero
        coefficients are dropped."""
        f = object.__new__(Form)
        f.weight = weight
        f._terms = {key: c for key, c in terms.items() if c}
        return f

    @property
    def terms(self):
        return self._terms.items()

    def is_empty(self) -> bool:
        return not self._terms

    def __add__(self, other: "Form") -> "Form":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        if self.weight != other.weight:
            raise DomainError("cannot add forms of weights %d and %d" % (self.weight, other.weight))
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = acc.get(key, ZERO) + c
        return Form._make(self.weight, acc)

    def __neg__(self) -> "Form":
        return Form._make(self.weight, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, s) -> "Form":
        if isinstance(s, (int, Fraction)):
            s = Scalar.from_rational(s)
        if not isinstance(s, Scalar):
            return NotImplemented
        return Form._make(self.weight, {k: c * s for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.is_empty() and other.is_empty():
            return True
        return self.weight == other.weight and self._terms == other._terms

    def __hash__(self):
        # the terms fix the weight, and empty forms of any weight are equal
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if self.is_empty():
            return "Form<0 @ wt %d>" % self.weight
        return "Form<%d terms @ wt %d>" % (len(self._terms), self.weight)


def zero_form(weight: int) -> Form:
    return Form(weight)


def form_of(e: PolyAtom, a: SpectralAtom, coeff=ONE) -> Form:
    if not isinstance(coeff, Scalar):
        coeff = Scalar.from_rational(coeff)
    return Form(e.weight + a.effective_weight, {(e, a): coeff})


def make_e_atom(m: int, r: int) -> Form:
    """The form e_{r,m-r} tensored with the constant function."""
    return form_of(PolyAtom(m, r), CONST_ATOM)


def _atom(columns, family: Family, weight: int, point, laurent: int, pending=None) -> SpectralAtom:
    """The checked atom: SpectralAtom's DomainErrors (weight, point, then
    Laurent index), then "atom is identically zero" below the vanishing order
    in the caller's _Columns; an expanded atom at a tabled point warns."""
    a = SpectralAtom(family, exact_int("weight", weight), exact_rational("point", point),
                     exact_int("laurent", laurent), pending)
    order, res = columns[family, a.weight, a.point.numerator, a.point.denominator][2:]
    if a.laurent < order:
        raise DomainError("atom is identically zero")
    if res is not None and pending is None:
        _pole_warning(a.weight, a.point, 2)
    return a


def atom_E(weight: int, point, laurent: int = 0) -> SpectralAtom:
    return _atom(_Columns(), Family(EISENSTEIN), weight, point, laurent)


def atom_P(weight: int, index: int, point, laurent: int = 0) -> SpectralAtom:
    return _atom(_Columns(), Family(POINCARE, index=index), weight, point, laurent)


def atom_incoherent(disc: int, order: int) -> SpectralAtom:
    """The atom printed E^-(order): derivative order+1 of the incoherent
    family at the base point (the family vanishes there)."""
    return _atom(_Columns(), Family(INCOHERENT, disc=disc), 1, 0, exact_int("order", order) + 1)


# ---------------------------------------------------------------------------
# pole table

PoleTable = Mapping[Tuple[Family, int, Fraction], Form]


def pole_table(entries) -> PoleTable:
    """A read-only pole table from a mapping (family, weight, point) ->
    residue Form.  The residue's weight must match, its polynomial parts
    must be e_{0,0}, so that residues tensor into any term, and its atoms
    must be expanded.  So L and R keep a form expanded, expand_pending is
    idempotent, and an expanded form is zero exactly when it has no terms."""
    for (fam, w, p), form in entries.items():
        if form.weight != w:
            raise DomainError("pole residue weight mismatch at %s" % _pole_key_text(fam, w, p))
        for (e, a), _c in form.terms:
            if e != E00:
                raise DomainError("pole residues must have trivial polynomial part")
            if a.pending is not None:
                raise DomainError("pole residues must be expanded (%r at %s)"
                                  % (a, _pole_key_text(fam, w, p)))
    return MappingProxyType(dict(entries))


def _pole_key_text(fam: Family, w: int, p: Fraction) -> str:
    """A pole-table key as a user writes it, e.g. (E, 0, 1)."""
    return "(%r, %d, %s)" % (fam, w, p)


DEFAULT_POLES = pole_table({
    (Family(EISENSTEIN), 0, Fraction(1)): Form(0, {(E00, CONST_ATOM): Scalar.pi_power(-1, 3)}),
})

# the table in force; a new thread starts with the default
_POLES: ContextVar[PoleTable] = ContextVar("poles", default=DEFAULT_POLES)


@contextmanager
def using_poles(table: PoleTable):
    """Run the block with `table` (from pole_table or load_pole_table) in
    force, and restore the previous table on exit."""
    token = _POLES.set(table)
    try:
        yield
    finally:
        _POLES.reset(token)


def load_pole_table(path: str) -> PoleTable:
    with open(path) as fh:
        data = json.load(fh)
    table = {}
    with malformed_json("pole table JSON"):
        for entry in data:
            fam = _family_from_json(entry["family"])   # refuses an entry that is not a dict
            unknown = sorted(set(entry) - {"family", "weight", "point", "order", "residue_form"})
            if unknown:
                raise DomainError("pole table entry has unknown keys %s" % (unknown,))
            key = (fam, json_int(entry["weight"]), Fraction(json_number(entry["point"])))
            if key in table:
                raise DomainError("pole table names %s twice" % _pole_key_text(*key))
            if json_int(entry.get("order", 1)) != 1:
                raise DomainError("pole order capped at 1")
            table[key] = form_from_json(entry["residue_form"])
    return pole_table(table)


# ---------------------------------------------------------------------------
# operator action on spectral atoms

# Step rules in the global spectral parameter:
#   L Phi_w(., s) = s Phi_{w-2}(., s+1),  R Phi_w(., s) = (s+w) Phi_{w+2}(., s-1)
# for Eisenstein-like families, and
#   L F_w(., s) = (s - w/2)/(4 pi |n|) F_{w-2}(., s),
#   R F_w(., s) = 4 pi |n| (s + w/2) F_{w+2}(., s)
# for Poincare families.  On a derivative-t atom a linear prefactor
# (a0 + u) acts as a0 * (t) + t * (t-1), with the t = 0 tail picking up
# the pole-table residue of the shifted family.


def _step_rule(fam: Family, w: int, P: int, Q: int, direction: str) -> tuple:
    """The rule above for a non-constant family at weight w and the point
    P/Q, in integers: (w2, P2, s, den, u, x) for the step onto weight w2 at
    the point P2/Q, which gives the order-t and order-(t-1) atoms x and t u,
    with the unit u/den pi^s."""
    if fam.is_eisenstein_like():
        if direction == "L":
            return w - 2, P + Q, 0, Q, Q, P
        return w + 2, P - Q, 0, Q, Q, P + w * Q
    n = abs(fam.index)
    if direction == "L":
        return w - 2, P, -1, 8 * n * Q, 2 * Q, 2 * P - w * Q
    return w + 2, P, 1, Q, 4 * n * Q, 2 * n * (2 * P + w * Q)


class _Columns(dict):
    """The columns of one call, (family, w, P, Q) -> (P/Q, plain, order,
    residue), for the member of weight w at P/Q in lowest terms: its
    vanishing order, its pole-table residue (read by the int P at Q = 1, a
    cheaper hash) or None, and plain with neither, so a step onto it warns of
    nothing, adds no residue and drops no atom.  No other code tests one;
    _atom reads its caller's."""

    def __missing__(self, key):
        fam, w, P, Q = key
        p = Fraction(P, Q)
        order, res = vanishing_order(fam, w, p), _POLES.get().get((fam, w, P if Q == 1 else p))
        self[key] = out = p, res is None and not order, order, res
        return out


# ---------------------------------------------------------------------------
# spectral chains


def _delta_layers(diags, flat: List[int], passes: int = 1) -> List[int]:
    """The layers u_0, u_1, ... end to end after the given number of passes
    of A u_t + B u_{t-1} + C u_{t-2} in each layer t, for bands A, B (and C)
    given by their nonzero diagonals (o, c), c[i] = M[i][i + o] (at least
    one), whose length n is the layers' width.  The rows are laid out once:
    after 2n + 1 zeros, diagonal (o, c) of the S^s band adds c, once per
    layer, times the entries from (2 - s) n + 1 + o on, s n - o back (c is 0
    where i + o leaves a layer); a pass is one sum over those rows."""
    n = len(next(c for band in diags for _o, c in band))
    pad, rows = [0] * (2 * n + 1), [((2 - s) * n + 1 + o, c * (len(flat) // n))
                                    for s, band in enumerate(diags) for o, c in band]
    for _ in range(passes):
        p = pad + flat + [0]
        flat = list(map(sum, zip(*[map(mul, row, p[start:]) for start, row in rows])))
    return flat


def _chain_bands(chain: tuple, op: str) -> Tuple[list, tuple]:
    """op (L, R or D for Delta) on the chain (m, family, w0, P0, Q), whose
    column r is the member of weight w0 + 2r at (P0 - rQ)/Q (Eisenstein-like)
    or P0/Q (Poincare): the diagonals of its bands A + S B (+ S^2 C for D),
    times the product of the steps' den, in the basis Psi_{r,t} = e_{r,m-r}
    (x) Phi^(t)/t! of the columns, where a step is x + u S over den, S
    lowering t; and the chain it maps onto.  Delta = -R L at column r takes
    the L rule at r and the R rules at r and at the L column r - 1."""
    m, fam, w0, P0, Q = chain
    E = fam.is_eisenstein_like()
    rules = {op2: list(zip(*(_step_rule(fam, w0 + 2 * r, P0 - r * Q if E else P0, Q, op2)[3:]
                             for r in range(-1, m + 1)))) for op2 in op.replace("D", "LR")}
    I, c = range(m + 1), [(r + 1) * (m - r) for r in range(m)] + [0]
    (dL, *_), (_, *uL), (_, *xL) = rules.get("L", [[0]] * 3)   # from column 0
    (dR, *_), uR, xR = rules.get("R", [[0]] * 3)   # column r at r + 1
    if op == "L":
        bands = [[(-1, [0] + [x * dL for x in c[:m]]), (0, xL)], [(0, uL)]]
    elif op == "R":
        bands = [[(0, xR[1:]), (1, [dR] * m + [0])], [(0, uR[1:])]]
    else:   # the entries of Delta Psi_r at r + 1, r and r - 1, as diagonals -1, 0 and 1
        bands = [[(-1, [0] + [-c[r] * xR[r + 1] * dL for r in range(m)]),
                  (0, [-(c[r] * dL * dR + xL[r] * xR[r]) for r in I]),
                  (1, [-x * dR for x in xL[1:]] + [0])],
                 [(-1, [0] + [-c[r] * uR[r + 1] * dL for r in range(m)]),
                  (0, [-(xL[r] * uR[r] + uL[r] * xR[r]) for r in I]),
                  (1, [-u * dR for u in uL[1:]] + [0])],
                 [(0, [-uL[r] * uR[r] for r in I])]]
    dw, dP = {"L": (-2, Q), "R": (2, -Q), "D": (0, 0)}[op]
    return ([[(o, list(v)) for o, v in band if any(v)] for band in bands],
            (m, fam, w0 + dw, P0 + dP if E else P0, Q))


def _chain_layers(f: Form, low: int, high: int) -> Optional[dict]:
    """f as {(chain, pi class): layers}: the flat layers of a set hold, from
    j (m + 1) on, its coefficients of Psi_{r,T-j}, r = 0..m, over one positive
    den for f, and no set is all zero; the pi class is the pi exponent, less r
    on a Poincare chain.  A pending OP^p unfolds as prod (x_i + u_i S)/den_i of
    its steps, cut at degree t.  None when an atom is constant, or a step of
    an unfolding or a chain's column -low..m+high is not plain in the call's
    _Columns.  _chain_form writes such sets back."""
    chains, groups, columns = set(), {}, _Columns()
    for (e, a), c in f.terms:
        fam, w, P, Q, t = a.family, a.weight, a.point.numerator, a.point.denominator, a.laurent
        if fam.kind == CONSTANT:
            return None
        E, r, poly, den, s = fam.is_eisenstein_like(), e.r, [factorial(t)], 1, 0
        for _ in range(a.pending[1] if a.pending else 0):
            w, P, s2, d, u, x = _step_rule(fam, w, P, Q, a.pending[0])
            if not columns[fam, w, P, Q][1]:
                return None
            poly = [x * y + u * z for y, z in zip(poly + [0], [0] + poly)][:t + 1]
            den, s = den * d, s + s2
        m, w0, P0 = e.m, w - 2 * r, P + r * Q if E else P
        chain = (m, fam, w0, P0, Q)
        if chain not in chains and not all(
                columns[fam, w0 + 2 * i, P0 - i * Q if E else P0, Q][1]
                for i in range(-low, m + high + 1)):
            return None
        chains.add(chain)
        for exp, q in c.terms:
            groups.setdefault((chain, exp + s - (0 if E else r)), []).append(
                (r, t, poly, q.numerator, q.denominator * den))
    den, sets = lcm(*(d for g in groups.values() for *_, poly, _x, d in g if any(poly))), {}
    for key, g in groups.items():
        n, T = key[0][0] + 1, max(t for _r, t, *_ in g)
        sets[key] = v = [0] * (n * (T + 1))
        for r, t, poly, x, d in g:
            for i, y in zip(range((T - t) * n + r, len(v), n), poly):
                v[i] += x * (den // d) * y
    return {key: v for key, v in sets.items() if any(v)}


def _chain_form(sets: dict, den: int, weight: int, grid) -> Form:
    """The inverse of _chain_layers: the Form of the given weight whose
    chain sets are sets, over the positive den, with the terms of each set
    in the order of the (r, t) of grid.  A key's pi exponent is its class,
    plus r on a Poincare chain.  The chains' columns must be plain."""
    acc = {}
    for ((m, fam, w0, P0, Q), cls), layers in sets.items():
        E, top = fam.is_eisenstein_like(), len(layers) - m - 1
        for r, t in grid:
            if x := layers[top - t * (m + 1) + r]:
                a = SpectralAtom._make(fam, w0 + 2 * r, Fraction(P0 - r * Q if E else P0, Q), t)
                acc.setdefault((PolyAtom(m, r), a), []).append(
                    (cls + (0 if E else r), Fraction(x, den * factorial(t))))
    return Form._make(weight, {key: Scalar._make(tuple(sorted(c))) for key, c in acc.items()})


# ---------------------------------------------------------------------------
# form-level operators


class _Atoms:
    """The atoms of one operator call or Laplace closure, each under a small
    int id, and the one integer rule for L, R, Delta and the unfolding of
    pending powers on keys (m, r, atom id).  An expanded atom is interned
    under its integer coordinates (family, weight, P, Q, t) at the point
    P/Q, and a step builds its atoms from them without the checked
    constructor; its columns are the call's _Columns.  Spectral steps are
    cached by (atom id, direction) for the call: it warns once per distinct
    step onto a pole."""

    def __init__(self):
        self.ids, self.atoms, self.steps, self.columns = {}, [], {}, _Columns()

    def id(self, a: SpectralAtom) -> int:
        key = a if a.pending is not None else \
            (a.family, a.weight, a.point.numerator, a.point.denominator, a.laurent)
        i = self.ids.setdefault(key, len(self.atoms))
        if i == len(self.atoms):
            self.atoms.append(a)
        return i

    def at(self, fam: Family, w: int, P: int, Q: int, t: int) -> int:
        """The id of the expanded atom of weight w at the point P/Q (in
        lowest terms) and order t, built unchecked when it is new: its
        coordinates come from a step of a checked atom."""
        i = self.ids.setdefault((fam, w, P, Q, t), len(self.atoms))
        if i == len(self.atoms):
            self.atoms.append(SpectralAtom._make(fam, w, self.columns[fam, w, P, Q][0], t))
        return i

    def drops(self, a: SpectralAtom) -> bool:
        """Whether the pending atom a, of a family that is not constant,
        unfolds to zero.  On plain columns OP^p Phi^(t) is prod (x_i + u_i S)
        over its steps' den, cut at degree t, with no u_i = 0: zero exactly
        when more than t steps have x_i = 0.  From the first column that is
        not plain, image decides."""
        fam, w, P, Q = a.family, a.weight, a.point.numerator, a.point.denominator
        zeros = 0
        for _ in range(a.pending[1]):
            w, P, _s, _den, _u, x = _step_rule(fam, w, P, Q, a.pending[0])
            if not self.columns[fam, w, P, Q][1]:
                return not self.image(0, 0, self.id(a), "E")[1]
            zeros += not x
        return zeros > a.laurent

    def _step(self, a: SpectralAtom, op: str) -> Tuple[int, list]:
        """(L or R) a for an expanded atom a by the rules above, in integers:
        (den, [((0, atom id, pi shift), x)]) for the terms x/den pi^shift, by
        atom in the order the step names them, with no zero x.  A residue, at
        t = 0, joins the terms over den D, D the lcm of its denominators: its
        term q pi^e at atom b adds u q D at (0, b, s + e)."""
        fam, t = a.family, a.laurent
        if fam.kind == CONSTANT:
            return 1, []
        P, Q = a.point.numerator, a.point.denominator
        w2, P2, s, den, u, x = _step_rule(fam, a.weight, P, Q, op)
        p2, _plain, order, res = self.columns[fam, w2, P2, Q]
        # an atom below the vanishing order drops, and each other atom at a
        # tabled point warns, as _atom refuses and warns
        terms = [((0, self.at(fam, w2, P2, Q, o), s), c)
                 for c, o in ((x, t), (t * u, t - 1)) if c and o >= order]
        for _ in terms if res is not None else ():
            _pole_warning(w2, p2, 1)
        if res is None or t:
            return den, terms
        D = lcm(*(q.denominator for _key, c in res.terms for _e, q in c.terms))
        acc = {key: x * D for key, x in terms}
        for (_e0, b), c in res.terms:
            for e, q in c.terms:
                key = (0, self.id(b), s + e)
                acc[key] = acc.get(key, 0) + u * q.numerator * (D // q.denominator)
        return den * D, [(key, x) for key, x in acc.items() if x]

    def image(self, m: int, r: int, i: int, op: str) -> Tuple[int, list]:
        """op (e_{r,m-r} (x) atom i), for op one of L, R, D (Delta) and E
        (unfold a pending power), as (den, [((r', atom id, pi shift), x)])
        for its terms x/den pi^shift.  L and R give the polynomial factor's
        term, then the spectral factor's: an expanded atom takes its step,
        a pending atom in the same direction one more power, and one in the
        other direction is unfolded first.  OP^p S unfolds as p passes of OP
        over e_{0,0} (x) S, which has no L or R image, so a residue picked
        up part-way gets the remaining passes.  D is -R of the image of L,
        composed by _then."""
        if op == "D":
            return self._then(self.image(m, r, i, "L"), m, "R", -1)
        a = self.atoms[i]
        if a.pending is not None and a.pending[0] != op:
            d, p = a.pending
            img = (1, [((0, self.id(SpectralAtom(a.family, a.weight, a.point, a.laurent)), 0), 1)])
            for _ in range(p):
                img = self._then(img, 0, d)
            den, terms = img if op == "E" else self._then(img, 0, op)
        elif op == "E":
            den, terms = 1, [((0, i, 0), 1)]
        elif a.pending is not None:
            den, terms = 1, [((0, self.id(SpectralAtom(a.family, a.weight, a.point, a.laurent,
                                                       (op, a.pending[1] + 1))), 0), 1)]
        else:
            if (i, op) not in self.steps:
                self.steps[i, op] = self._step(a, op)
            den, terms = self.steps[i, op]
        if r:
            terms = [((r, b, s), x) for (_r, b, s), x in terms]
        if op == "L" and (c := (r + 1) * (m - r)):
            terms = [((r + 1, i, 0), c * den)] + terms
        elif op == "R" and r:
            terms = [((r - 1, i, 0), den)] + terms
        return den, terms

    def _then(self, img: Tuple[int, list], m: int, op: str, sign: int = 1) -> Tuple[int, list]:
        """sign * op on each term of the image img at polynomial degree m,
        over img's den times the lcm of the denominators of op's images, in
        the order op adds the terms; a key with several pi shifts keeps them
        together at its first place, shifts rising."""
        den, parts = img[0], [(s, x, self.image(m, r, b, op)) for (r, b, s), x in img[1]]
        d_op = lcm(*(d for _s, _x, (d, _t) in parts))
        acc = {}
        for s, x, (d, terms) in parts:
            x *= sign * (d_op // d)
            for (r2, b, s2), y in terms:
                acc[r2, b, s + s2] = acc.get((r2, b, s + s2), 0) + x * y
        terms, rank = list(acc.items()), dict.fromkeys(key[:2] for key in acc)
        if len(rank) < len(terms):
            rank = {key: n for n, key in enumerate(rank)}
            terms.sort(key=lambda kx: (rank[kx[0][:2]], kx[0][2]))
        return den * d_op, [(key, x) for key, x in terms if x]


def _apply(triples, weight: int, op: str, power: int = 1) -> Form:
    """The Form of the given weight of op^power (op one of L, R, D, E as in
    _Atoms.image) on the sum of q pi^e key over (key, e, q) triples (at
    power 0, each (key, e) once, e rising): read into one integer image per
    degree m, composed by _Atoms._then, made Scalars only for the result."""
    atoms, groups, acc = _Atoms(), {}, {}
    for (e, a), s, q in triples:
        groups.setdefault(e.m, []).append(((e.r, atoms.id(a), s), q))
    for m, terms in groups.items():
        den = lcm(*(q.denominator for _key, q in terms))
        img = (den, [(key, q.numerator * (den // q.denominator)) for key, q in terms])
        for _ in range(power):
            img = atoms._then(img, m, op)
        for (r, b, s), x in img[1]:
            acc.setdefault((m, r, b), []).append((s, Fraction(x, img[0])))
    return Form._make(weight, {(PolyAtom(m, r), atoms.atoms[b]): Scalar._make(tuple(t))
                               for (m, r, b), t in acc.items()})


def _triples(f: Form):
    """f's terms as the (key, pi exponent, Fraction) triples _apply reads."""
    return ((key, e, q) for key, c in f.terms for e, q in c.terms)


def apply_lowering(f: Form) -> Form:
    return _apply(_triples(f), f.weight - 2, "L")


def apply_raising(f: Form) -> Form:
    return _apply(_triples(f), f.weight + 2, "R")


def apply_power(f: Form, direction: str, power: int) -> Form:
    if direction not in ("L", "R"):
        raise DomainError("operator direction must be L or R, not %r" % (direction,))
    if exact_int("operator power", power) < 0:
        raise DomainError("operator power must be nonnegative")
    return _apply(_triples(f), f.weight + (2 if direction == "R" else -2) * power,
                  direction, power)


def apply_laplace(f: Form, power: int = 1) -> Form:
    """Delta_k^power, Delta_k = -R_{k-2} L_k, key by key, in one call."""
    if exact_int("operator power", power) < 0:
        raise DomainError("operator power must be nonnegative")
    return _apply(_triples(f), f.weight, "D", power)


def expand_pending(f: Form) -> Form:
    """f with every pending operator power unfolded; f itself when no
    term holds one (E is the identity on expanded atoms)."""
    if all(a.pending is None for (_e, a), _c in f.terms):
        return f
    return _apply(_triples(f), f.weight, "E")


def _laplace_rows(seeds) -> Tuple[list, List[List[Tuple[int, int, int]]], int]:
    """Delta on the Delta-closure of the seed keys, in integers, as (pool,
    rows, den).  pool holds the closure's (PolyAtom, SpectralAtom) keys in
    breadth-first order from the seeds; rows[i] holds Delta of pool[i] as
    one (j, s, x) per term q pi^s of the coefficient of pool[j], in the
    order of _Atoms.image, which fixes the basis order of
    delta_matrix_on_span, with x = q * den; den > 0 is the lcm of every q's
    denominator.  The work runs on keys (m, r, atom id), each taking Delta
    as -R of its L image.  The closure is finite: Delta keeps the
    polynomial degree, hence the spectral weight bounded; the point moves
    with it, Laurent indices never rise, and residues add only tabled atoms."""
    atoms = _Atoms()
    pool = list(dict.fromkeys((e.m, e.r, atoms.id(a)) for e, a in seeds))
    index = {key: j for j, key in enumerate(pool)}
    rows, dens = [], []
    while len(rows) < len(pool):
        m, r, i = pool[len(rows)]
        den, img = atoms.image(m, r, i, "D")
        rows.append([])
        dens.append(den)
        for (r2, b, s), x in img:
            j = index.setdefault((m, r2, b), len(pool))
            if j == len(pool):
                pool.append((m, r2, b))
            rows[-1].append((j, s, x))
    den = lcm(*dens)
    g = gcd(den, *(x * (den // d) for row, d in zip(rows, dens) for _j, _s, x in row))
    rows = [[(j, s, x * (den // d) // g) for j, s, x in row] for row, d in zip(rows, dens)]
    return [(PolyAtom(m, r), atoms.atoms[i]) for m, r, i in pool], rows, den // g


def is_zero(f: Form) -> bool:
    return expand_pending(f).is_empty()


def forms_equal(f: Form, g: Form) -> bool:
    return expand_pending(f) == expand_pending(g)


def apply_mirror(f: Form) -> Form:
    """y^k conj(.) termwise; requires expanded atoms and rational points."""
    acc, columns = {}, _Columns()
    for (e, a), coeff in f.terms:
        if a.pending is not None:
            raise DomainError("mirror needs expanded atoms; call expand_pending first")
        e2 = PolyAtom(e.m, e.m - e.r)
        poly_c = Scalar.from_rational(
            Fraction((-1) ** e.m * factorial(e.m - e.r), factorial(e.r)))
        fam, w, p, t = a.family, a.weight, a.point, a.laurent
        if fam.kind == CONSTANT:
            a2, spec_c = a, ONE
        elif fam.kind == EISENSTEIN:
            a2, spec_c = _atom(columns, fam, -w, p + w, t), ONE
        elif fam.kind == POINCARE:
            n = abs(fam.index)
            a2 = _atom(columns, Family(POINCARE, index=-fam.index), -w, p, t)
            spec_c = Scalar.pi_power(-w, (-1) ** ((1 - w) % 2) * Fraction(4 * n) ** (-w))
        else:
            raise DomainError("mirror is not defined for family %r" % (fam,))
        acc[e2, a2] = acc.get((e2, a2), ZERO) + coeff * poly_c * spec_c
    return Form(-f.weight, acc)


def apply_flip(f: Form) -> Form:
    """F_k f = (1/(-k)!) * mirror(R^{-k} f) for weight k <= 0."""
    k = f.weight
    if k > 0:
        raise DomainError("flip requires weight <= 0 (got %d)" % k)
    g = expand_pending(apply_power(f, "R", -k))
    g = apply_mirror(g)
    return g * Fraction(1, factorial(-k))


# ---------------------------------------------------------------------------
# serialization


def _family_to_json(fam: Family) -> dict:
    out = {"kind": fam.kind}
    if fam.index is not None:
        out["index"] = fam.index
    if fam.disc is not None:
        out["disc"] = fam.disc
    return out


def _family_from_json(data: dict) -> Family:
    unknown = sorted(set(data) - {"kind", "index", "disc"})
    if unknown:
        raise DomainError("unknown family field(s): %s" % ", ".join(unknown))
    index, disc = data.get("index"), data.get("disc")
    return Family(data["kind"], index=None if index is None else json_int(index),
                  disc=None if disc is None else json_int(disc))


def form_to_json(f: Form) -> dict:
    terms = []
    for (e, a), c in sorted(f.terms, key=lambda kv: _term_sort_key(kv[0])):
        terms.append({
            "poly": {"m": e.m, "r": e.r},
            "spectral": {
                "family": _family_to_json(a.family),
                "weight": a.weight,
                "point": str(a.point),
                "laurent": a.laurent,
                "pending": None if a.pending is None else
                           {"dir": a.pending[0], "power": a.pending[1]},
            },
            "coeff": c.to_json(),
        })
    return {"weight": f.weight, "terms": terms}


def form_from_json(data: dict) -> Form:
    """The form of the JSON, with one Family object per distinct family; an
    expanded atom of a non-constant family on a plain column is built
    unchecked, any other atom on a plain column by SpectralAtom, and an atom
    on a column that is not plain by _atom."""
    acc, families, polys, columns = {}, {}, {}, _Columns()
    with malformed_json("form JSON"):
        for term in data["terms"]:
            m, r = json_int(term["poly"]["m"]), json_int(term["poly"]["r"])
            e = polys.get((m, r)) or polys.setdefault((m, r), PolyAtom(m, r))
            sp = term["spectral"]
            pending = sp.get("pending")
            try:   # a family's fields, with their types, are checked once a call
                key = frozenset((name, type(v), v) for name, v in sp["family"].items())
            except (AttributeError, TypeError):   # not a dict of hashable values
                key = None
            if key is None or key not in families:
                fam = _family_from_json(sp["family"])
                families[key] = families.setdefault(fam, fam)
            fam = families[key]
            w = json_int(sp["weight"])
            q = json_number(sp["point"])
            col = columns[fam, w, q.numerator, q.denominator]
            t = json_int(sp["laurent"])
            if pending is not None:
                pending = pending["dir"], json_int(pending["power"])
            if not col[1]:
                a = _atom(columns, fam, w, col[0], t, pending)
            elif pending is None and t >= 0 and fam.kind != CONSTANT:
                a = SpectralAtom._make(fam, w, col[0], t)
            else:   # on a plain column _atom would check only the atom's parts
                a = SpectralAtom(fam, w, col[0], t, pending)
            c = Scalar.from_json(term["coeff"])
            # a key repeats only in JSON written by hand
            acc[e, a] = acc[e, a] + c if (e, a) in acc else c
        return Form(json_int(data["weight"]), acc)


# ---------------------------------------------------------------------------
# pretty printing


def _term_sort_key(key):
    e, a = key
    return (-a.laurent, e.r, a.weight, a.point, str(a.family),
            a.pending or ("", 0))


def _pretty_spectral(a: SpectralAtom):
    """Human-readable atom plus a display sign (Poincare atoms print in the
    backward local parametrization, which flips odd derivative orders)."""
    fam, t = a.family, a.laurent
    sign = 1
    if fam.kind == CONSTANT:
        body = "1"
    elif fam.kind == POINCARE:
        local = 1 - Fraction(a.weight, 2) - a.point
        body = "P^(%d)_{%d,%d,%s}" % (t, a.weight, fam.index, local)
        sign = (-1) ** t
    elif fam.kind == INCOHERENT:
        body = "E-^(%d)_{D=%d}" % (t - 1, fam.disc)
    else:
        body = "E^(%d)_{%d,%s}" % (t, a.weight, a.point)
    if a.pending is not None:
        d, p = a.pending
        body = "%s%s %s" % (d, "^%d" % p if p > 1 else "", body)
    return body, sign


def pretty(f: Form) -> str:
    if f.is_empty():
        return "0  (weight %d)" % f.weight
    parts = []
    for (e, a), c in sorted(f.terms, key=lambda kv: _term_sort_key(kv[0])):
        body, sign = _pretty_spectral(a)
        c = c * sign
        cs = c.to_str()
        if "+" in cs or "- " in cs:
            cs = "(%s)" % cs
        piece = cs + " " if cs != "1" else ""
        epart = "" if e == E00 else "%r " % e
        parts.append("%s%s%s" % (piece, epart, body))
    return "  +  ".join(parts)

