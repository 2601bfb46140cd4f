"""Cyclic modules over the Gelfand and two-cyclic quivers, and the
equivalence from finite Harish-Chandra diagram fragments.

Representations carry exact rational matrices.  The Gelfand quiver has
nodes (-, *, +) with arrows A_pm: V_pm -> V_* and B_pm: V_* -> V_pm
subject to A_- B_- = A_+ B_+; the two-cyclic quiver has nodes (-, +)
with one arrow in each direction.  Cyclic modules are realized on
monomial bases t^a with the arrows acting by multiplication by t and by
truncation, which makes the loop at the generating node a single
nilpotent Jordan block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .linalg import (Mat, Vec, identity, kernel, mat_mul, rref, solve_linear,
                     zeros)
from .symcalc import DomainError

GELFAND = "gelfand"
CYCLIC = "cyclic"

NODES = {GELFAND: ("-", "*", "+"), CYCLIC: ("-", "+")}
# (name, source node, target node) of every arrow
ARROWS = {GELFAND: (("A-", "-", "*"), ("B-", "*", "-"), ("A+", "+", "*"), ("B+", "*", "+")),
          CYCLIC: (("a", "-", "+"), ("b", "+", "-"))}


@dataclass
class QuiverRep:
    quiver: str
    dims: Dict[str, int]
    maps: Dict[str, Mat]   # gelfand: A-, B-, A+, B+; cyclic: a (-:->+), b (+:->-)

    def dim_vector(self) -> Tuple[int, ...]:
        return tuple(self.dims[n] for n in NODES[self.quiver])

    def arrows(self) -> List[Tuple[str, str, str, Mat]]:
        """(name, source node, target node, matrix) for every arrow."""
        return [(name, src, dst, self.maps[name]) for name, src, dst in ARROWS[self.quiver]]

    def check_relation(self) -> None:
        if self.quiver != GELFAND:
            return
        ns = self.dims["*"]
        lhs = mat_mul(self.maps["A-"], self.maps["B-"], ns)
        rhs = mat_mul(self.maps["A+"], self.maps["B+"], ns)
        if lhs != rhs:
            raise DomainError("Gelfand relation A-B- = A+B+ violated")

    def loops(self) -> Dict[str, Mat]:
        d = self.dims
        if self.quiver == GELFAND:
            return {"*": mat_mul(self.maps["A-"], self.maps["B-"], d["*"]),
                    "-": mat_mul(self.maps["B-"], self.maps["A-"], d["-"]),
                    "+": mat_mul(self.maps["B+"], self.maps["A+"], d["+"])}
        return {"-": mat_mul(self.maps["b"], self.maps["a"], d["-"]),
                "+": mat_mul(self.maps["a"], self.maps["b"], d["+"])}

    def to_json(self) -> dict:
        return {"quiver": self.quiver,
                "dims": dict(self.dims),
                "maps": {k: [[str(x) for x in row] for row in m]
                         for k, m in self.maps.items()}}

    @staticmethod
    def from_json(data: dict) -> "QuiverRep":
        """Parse and validate: the quiver's node set with nonnegative
        dimensions, its arrow names, every matrix shape and, for the
        Gelfand quiver, the relation."""
        quiver = data["quiver"]
        if quiver not in NODES:
            raise DomainError("unknown quiver %r" % (quiver,))
        try:
            dims = {k: int(v) for k, v in data["dims"].items()}
            maps = {k: [[Fraction(x) for x in row] for row in m]
                    for k, m in data["maps"].items()}
        except (AttributeError, TypeError) as ex:
            raise DomainError("malformed quiver representation: %s" % (ex,))
        if set(dims) != set(NODES[quiver]) or min(dims.values()) < 0:
            raise DomainError("dims must give a nonnegative dimension for exactly "
                              "the nodes %s" % (NODES[quiver],))
        names = [name for name, _src, _dst in ARROWS[quiver]]
        if set(maps) != set(names):
            raise DomainError("maps must give exactly the arrows %s" % (names,))
        rep = QuiverRep(quiver, dims, maps)
        for name, src, dst, m in rep.arrows():
            _check_shape("arrow " + name, m, dims[dst], dims[src])
        rep.check_relation()
        return rep


def _check_shape(what: str, m: Mat, rows: int, cols: int) -> None:
    if m is None or len(m) != rows or any(len(row) != cols for row in m):
        raise DomainError("%s must be a %d x %d matrix" % (what, rows, cols))


# ---------------------------------------------------------------------------
# interval models of the cyclic modules


def _interval_map(src: Tuple[int, int], dst: Tuple[int, int], shift: int) -> Mat:
    """Monomial map t^a -> t^{a+shift}, truncated to the target interval."""
    s_lo, s_hi = src
    d_lo, d_hi = dst
    rows = max(0, d_hi - d_lo + 1)
    cols = max(0, s_hi - s_lo + 1)
    m = zeros(rows, cols) if rows and cols else [[] for _ in range(rows)]
    for j in range(cols):
        a = s_lo + j + shift
        if d_lo <= a <= d_hi:
            m[a - d_lo][j] = Fraction(1)
    return m


_GELFAND_INTERVALS = {
    ("*", "a"): lambda d: {"-": (0, d - 1), "*": (0, d), "+": (0, d - 1)},
    ("*", "b"): lambda d: {"-": (0, d), "*": (0, d), "+": (0, d)},
    ("*", "c"): lambda d: {"-": (0, d - 1), "*": (0, d), "+": (0, d)},
    ("*", "d"): lambda d: {"-": (0, d), "*": (0, d), "+": (0, d - 1)},
    ("+", "a"): lambda d: {"-": (1, d), "*": (1, d), "+": (0, d)},
    ("+", "b"): lambda d: {"-": (1, d), "*": (1, d + 1), "+": (0, d)},
    ("+", "c"): lambda d: {"-": (1, d + 1), "*": (1, d + 1), "+": (0, d)},
    ("+", "d"): lambda d: {"-": (1, d - 1), "*": (1, d), "+": (0, d)},
    ("-", "a"): lambda d: {"-": (0, d), "*": (1, d), "+": (1, d)},
    ("-", "b"): lambda d: {"-": (0, d), "*": (1, d + 1), "+": (1, d)},
    ("-", "c"): lambda d: {"-": (0, d), "*": (1, d + 1), "+": (1, d + 1)},
    ("-", "d"): lambda d: {"-": (0, d), "*": (1, d), "+": (1, d - 1)},
}

_CYCLIC_INTERVALS = {
    ("+", "a"): lambda d: {"-": (1, d), "+": (0, d)},
    ("+", "b"): lambda d: {"-": (1, d + 1), "+": (0, d)},
    ("-", "a"): lambda d: {"-": (0, d), "+": (1, d)},
    ("-", "b"): lambda d: {"-": (0, d), "+": (1, d + 1)},
}


def build_cyclic_module(quiver: str, type_tag: str, case: str, d: int) -> QuiverRep:
    """Explicit matrices for the cokernel presentations of the cyclic
    modules, keyed by generator type, case letter and depth parameter."""
    if d < 0:
        raise DomainError("depth parameter must be nonnegative")
    if quiver == GELFAND:
        if (type_tag, case) not in _GELFAND_INTERVALS:
            raise DomainError("no Gelfand cyclic module (%s, %s)" % (type_tag, case))
        if type_tag in ("+", "-") and case == "d" and d < 1:
            raise DomainError("case (%s, d) exists only for d >= 1" % type_tag)
        iv = _GELFAND_INTERVALS[(type_tag, case)](d)
        dims = {n: max(0, iv[n][1] - iv[n][0] + 1) for n in NODES[GELFAND]}
        maps = {"A-": _interval_map(iv["-"], iv["*"], 1),
                "B-": _interval_map(iv["*"], iv["-"], 0),
                "A+": _interval_map(iv["+"], iv["*"], 1),
                "B+": _interval_map(iv["*"], iv["+"], 0)}
        rep = QuiverRep(GELFAND, dims, maps)
        rep.check_relation()
        return rep
    if quiver == CYCLIC:
        if (type_tag, case) not in _CYCLIC_INTERVALS:
            raise DomainError("no cyclic-quiver module (%s, %s)" % (type_tag, case))
        iv = _CYCLIC_INTERVALS[(type_tag, case)](d)
        dims = {n: max(0, iv[n][1] - iv[n][0] + 1) for n in NODES[CYCLIC]}
        if type_tag == "+":
            maps = {"a": _interval_map(iv["-"], iv["+"], 0),
                    "b": _interval_map(iv["+"], iv["-"], 1)}
        else:
            maps = {"a": _interval_map(iv["-"], iv["+"], 1),
                    "b": _interval_map(iv["+"], iv["-"], 0)}
        return QuiverRep(CYCLIC, dims, maps)
    raise DomainError("unknown quiver %r" % (quiver,))


# ---------------------------------------------------------------------------
# invariants and classification


def _nilpotency_degree(m: Mat) -> Optional[int]:
    """Least e with m^e = 0, or None when m is not nilpotent."""
    power = identity(len(m))
    for e in range(len(m) + 1):
        if not any(x for row in power for x in row):
            return e
        power = mat_mul(power, m)
    return None


def invariants_of(rep: QuiverRep):
    """(dimension vector, nilpotency degrees per node)."""
    rep.check_relation()
    degrees = {node: _nilpotency_degree(loop) for node, loop in rep.loops().items()}
    if None in degrees.values():
        raise DomainError("loop endomorphism is not nilpotent")
    return rep.dim_vector(), degrees


def is_cyclic(rep: QuiverRep) -> Optional[str]:
    """The node of a single vector generating the representation, or None.

    The loops must be nilpotent (DomainError otherwise).  Then rad V is
    the sum of the arrow images, and V is generated by one vector at one
    node exactly when the top V/rad V has dimension 1; the generator sits
    at the node carrying the top.  The zero module counts as generated at
    the first node of (*, +, -), or (+, -) for the two-cyclic quiver.
    """
    invariants_of(rep)
    if not any(rep.dims.values()):
        return "*" if rep.quiver == GELFAND else "+"
    top = {}
    for node, n in rep.dims.items():
        images = [[m[i][j] for i in range(n)]
                  for _name, src, dst, m in rep.arrows() if dst == node
                  for j in range(rep.dims[src])]
        top[node] = n - len(rref(images)[1])
    if sum(top.values()) != 1:
        return None
    return next(node for node, t in top.items() if t)


def classify_cyclic(rep: QuiverRep):
    """(type, case, d) per the cyclic-module tables; errors if not cyclic."""
    type_tag = is_cyclic(rep)
    if type_tag is None:
        raise DomainError("representation is not cyclic")
    dims = rep.dim_vector()
    if rep.quiver == CYCLIC:
        n_minus, n_plus = dims
        if type_tag == "+":
            d = n_plus - 1
            pairs = {(d, d + 1): "a", (d + 1, d + 1): "b"}
        else:
            d = n_minus - 1
            pairs = {(d + 1, d): "a", (d + 1, d + 1): "b"}
        case = pairs.get((n_minus, n_plus))
        if case is None or d < 0:
            raise DomainError("cyclic module with impossible dimension vector %r" % (dims,))
        return (type_tag, case, d)
    n_minus, n_star, n_plus = dims
    if type_tag == "*":
        d = n_star - 1
        table = {(d, d): "a", (d + 1, d + 1): "b", (d, d + 1): "c", (d + 1, d): "d"}
        case = table.get((n_minus, n_plus))
    elif type_tag == "+":
        d = n_plus - 1
        table = {(d, d): "a", (d, d + 1): "b", (d + 1, d + 1): "c", (d - 1, d): "d"}
        case = table.get((n_minus, n_star))
    else:
        d = n_minus - 1
        table = {(d, d): "a", (d + 1, d): "b", (d + 1, d + 1): "c", (d, d - 1): "d"}
        case = table.get((n_star, n_plus))
    if case is None or d < 0:
        raise DomainError("cyclic module with impossible dimension vector %r" % (dims,))
    return (type_tag, case, d)


def direct_sum(a: QuiverRep, b: QuiverRep) -> QuiverRep:
    if a.quiver != b.quiver:
        raise DomainError("cannot sum representations of different quivers")
    dims = {n: a.dims[n] + b.dims[n] for n in NODES[a.quiver]}
    maps = {}
    for name, src, dst, _m in a.arrows():
        ma, mb = a.maps[name], b.maps[name]
        rows = dims[dst]
        cols = dims[src]
        m = zeros(rows, cols)
        for i in range(a.dims[dst]):
            for j in range(a.dims[src]):
                m[i][j] = ma[i][j]
        for i in range(b.dims[dst]):
            for j in range(b.dims[src]):
                m[a.dims[dst] + i][a.dims[src] + j] = mb[i][j]
        maps[name] = m
    return QuiverRep(a.quiver, dims, maps)


# ---------------------------------------------------------------------------
# endomorphism algebra and indecomposability


def endomorphism_basis(rep: QuiverRep) -> List[Dict[str, Mat]]:
    """Exact basis of tuples (E_node) commuting with all arrows."""
    nodes = NODES[rep.quiver]
    offsets = {}
    pos = 0
    for n in nodes:
        offsets[n] = pos
        pos += rep.dims[n] ** 2
    total = pos
    rows: List[Vec] = []

    def entry_index(node, i, j):
        return offsets[node] + i * rep.dims[node] + j

    for _name, src, dst, m in rep.arrows():
        ns, nd = rep.dims[src], rep.dims[dst]
        # E_dst M - M E_src = 0, entrywise
        for i in range(nd):
            for j in range(ns):
                row = [Fraction(0)] * total
                for t in range(nd):
                    if m[t][j]:
                        row[entry_index(dst, i, t)] += m[t][j]
                for t in range(ns):
                    if m[i][t]:
                        row[entry_index(src, t, j)] -= m[i][t]
                rows.append(row)
    basis = kernel(rows) if rows else kernel([[Fraction(0)] * total])
    out = []
    for v in basis:
        mats = {}
        for n in nodes:
            dim = rep.dims[n]
            mats[n] = [[v[offsets[n] + i * dim + j] for j in range(dim)]
                       for i in range(dim)]
        out.append(mats)
    return out


def has_only_trivial_idempotents(rep: QuiverRep) -> bool:
    """Indecomposability certificate: is End(V) local with residue field Q?

    Dickson's criterion (characteristic 0): rad End(V) is the kernel of the
    trace form tr(a b), the trace taken on V, i.e. summed node by node.  So
    dim End(V)/rad is the rank of the Gram matrix tr(a_i a_j) over a basis,
    and the answer is True exactly when that rank is 1; then 0 and 1 are
    the only idempotents.  False means End(V)/rad is larger than Q: V is
    decomposable unless End(V)/rad is a division algebra larger than Q,
    which no constructor in this module builds.  The zero module counts as
    certified.
    """
    if not any(rep.dims.values()):
        return True
    nodes = NODES[rep.quiver]
    basis = endomorphism_basis(rep)
    flat = [[x for n in nodes for row in e[n] for x in row] for e in basis]
    flat_t = [[x for n in nodes for col in zip(*e[n]) for x in col] for e in basis]
    gram = [[sum(x * y for x, y in zip(a, b) if x and y) for b in flat_t] for a in flat]
    return len(rref(gram)[1]) == 1


# ---------------------------------------------------------------------------
# Harish-Chandra diagram fragments


@dataclass
class HCFragment:
    """The finite fragment M_{-l-1}, M_{-l+1}, ..., M_{l-1}, M_{l+1} with
    raising steps X and lowering steps Y; for l = 0 just the pair
    (M_{-1}, M_{+1}) with the two restrictions."""

    l: int
    x_minus: Mat = None   # M_{-l-1} -> M_{-l+1}
    xs: Tuple[Mat, ...] = ()   # X_1 .. X_{l-1}, interior raising
    x_plus: Mat = None    # M_{l-1} -> M_{l+1}
    y_plus: Mat = None    # M_{l+1} -> M_{l-1}
    ys: Tuple[Mat, ...] = ()   # Y_1 .. Y_{l-1}, interior lowering
    y_minus: Mat = None   # M_{-l+1} -> M_{-l-1}
    z_minus: Mat = None   # l = 0: X restricted to M_{-1}
    z_plus: Mat = None    # l = 0: Y restricted to M_{+1}

    def x_star(self) -> Mat:
        out = None
        for x in self.xs:   # X_* = X_{l-1} ... X_1
            out = x if out is None else mat_mul(x, out)
        if out is None:
            out = identity(len(self.x_minus))
        return out

    def y_star(self) -> Mat:
        out = None
        for y in self.ys:   # Y_* = Y_1 ... Y_{l-1}: Y_{l-1} acts first
            out = y if out is None else mat_mul(out, y)
        if out is None:
            out = identity(len(self.x_minus))
        return out

    def to_json(self) -> dict:
        enc = lambda m: None if m is None else [[str(x) for x in row] for row in m]
        return {"l": self.l, "x_minus": enc(self.x_minus),
                "xs": [enc(m) for m in self.xs], "x_plus": enc(self.x_plus),
                "y_plus": enc(self.y_plus), "ys": [enc(m) for m in self.ys],
                "y_minus": enc(self.y_minus), "z_minus": enc(self.z_minus),
                "z_plus": enc(self.z_plus)}

    @staticmethod
    def from_json(data: dict) -> "HCFragment":
        dec = lambda m: None if m is None else [[Fraction(x) for x in row] for row in m]
        return HCFragment(int(data["l"]), dec(data.get("x_minus")),
                          tuple(dec(m) for m in data.get("xs", ())),
                          dec(data.get("x_plus")), dec(data.get("y_plus")),
                          tuple(dec(m) for m in data.get("ys", ())),
                          dec(data.get("y_minus")), dec(data.get("z_minus")),
                          dec(data.get("z_plus")))


def _invert(m: Mat) -> Mat:
    n = len(m)
    aug = [m[i][:] + identity(n)[i] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise DomainError("interior map is not invertible")
    return [row[n:] for row in r[:n]]


def _validate_fragment(frag: HCFragment) -> None:
    """Shapes that chain together, invertible interior maps and nilpotent
    end composites."""
    if frag.l == 0:
        if frag.z_minus is None or frag.z_plus is None:
            raise DomainError("l = 0 fragment needs z_minus and z_plus")
        n_plus, n_minus = len(frag.z_minus), len(frag.z_plus)
        _check_shape("z_minus", frag.z_minus, n_plus, n_minus)
        _check_shape("z_plus", frag.z_plus, n_minus, n_plus)
        if _nilpotency_degree(mat_mul(frag.z_plus, frag.z_minus, n_minus)) is None:
            raise DomainError("end composite is not nilpotent")
        return
    if len(frag.xs) != frag.l - 1 or len(frag.ys) != frag.l - 1:
        raise DomainError("fragment needs %d interior maps per direction" % (frag.l - 1,))
    if None in (frag.x_minus, frag.y_minus, frag.x_plus, frag.y_plus):
        raise DomainError("fragment needs x_minus, y_minus, x_plus and y_plus")
    n0, n1, n2 = len(frag.y_minus), len(frag.x_minus), len(frag.x_plus)
    if not n0 or not n1:
        raise DomainError("fragment needs nonzero M_{-l-1} and M_{-l+1}")
    _check_shape("x_minus", frag.x_minus, n1, n0)
    _check_shape("y_minus", frag.y_minus, n0, n1)
    _check_shape("x_plus", frag.x_plus, n2, n1)
    _check_shape("y_plus", frag.y_plus, n1, n2)
    for m in list(frag.xs) + list(frag.ys):
        _check_shape("interior map", m, n1, n1)
        _invert(m)   # raises when an interior map is singular
    if _nilpotency_degree(mat_mul(frag.x_minus, frag.y_minus)) is None:
        raise DomainError("lower end composite is not nilpotent")
    if _nilpotency_degree(mat_mul(frag.x_plus, frag.y_plus)) is None:
        raise DomainError("upper end composite is not nilpotent")


def hc_to_quiver(frag: HCFragment) -> QuiverRep:
    """The equivalence functor on a diagram fragment: l = 0 gives a
    two-cyclic representation, l >= 1 a Gelfand representation with
    arrows (X_-, X_+ X_*, X_*^{-1} Y_+, Y_-)."""
    _validate_fragment(frag)
    if frag.l == 0:
        dims = {"-": len(frag.z_plus), "+": len(frag.z_minus)}
        return QuiverRep(CYCLIC, dims, {"a": frag.z_minus, "b": frag.z_plus})
    x_star = frag.x_star()
    a_minus = frag.x_minus
    b_minus = frag.y_minus
    b_plus = mat_mul(frag.x_plus, x_star)
    a_plus = mat_mul(_invert(x_star), frag.y_plus)
    dims = {"-": len(a_minus[0]), "*": len(a_minus), "+": len(b_plus)}
    rep = QuiverRep(GELFAND, dims, {"A-": a_minus, "B-": b_minus,
                                    "A+": a_plus, "B+": b_plus})
    rep.check_relation()
    return rep


def second_description(frag: HCFragment) -> QuiverRep:
    """Alternative realization on (M_{-l-1}, M_{l-1}, M_{l+1}) with arrows
    (Y_*^{-1} X_-, X_+, Y_+, Y_- Y_*)."""
    _validate_fragment(frag)
    if frag.l == 0:
        raise DomainError("second description needs l >= 1")
    y_star = frag.y_star()
    a_minus = mat_mul(_invert(y_star), frag.x_minus)
    b_minus = mat_mul(frag.y_minus, y_star)
    a_plus = frag.y_plus
    b_plus = frag.x_plus
    dims = {"-": len(a_minus[0]), "*": len(a_minus), "+": len(b_plus)}
    rep = QuiverRep(GELFAND, dims, {"A-": a_minus, "B-": b_minus,
                                    "A+": a_plus, "B+": b_plus})
    rep.check_relation()
    return rep


def _casimir_ends(frag: HCFragment) -> Tuple[Mat, Mat]:
    """Casimir actions C_0 on M_{-l-1} and C_1 on M_{-l+1}, reconstructed
    from the H-eigenvalues and the back-and-forth composites."""
    l = frag.l
    gamma = l * l - 1
    n0 = len(frag.x_minus[0])
    n1 = len(frag.x_minus)
    c0 = [[(Fraction(gamma) if i == j else Fraction(0)) +
           4 * mat_mul(frag.y_minus, frag.x_minus)[i][j]
           for j in range(n0)] for i in range(n0)]
    c1 = [[(Fraction(gamma) if i == j else Fraction(0)) +
           4 * mat_mul(frag.x_minus, frag.y_minus)[i][j]
           for j in range(n1)] for i in range(n1)]
    return c0, c1


def _poly_in_matrix(target: Mat, base: Mat) -> List[Fraction]:
    """Least-degree coefficients p with sum p_j base^j = target."""
    n = len(base)
    powers = [identity(n)]
    for deg in range(n * n + 1):
        cols = []
        for p in powers:
            cols.append([p[i][j] for i in range(n) for j in range(n)])
        rows = [[cols[c][r] for c in range(len(cols))] for r in range(n * n)]
        b = [target[i][j] for i in range(n) for j in range(n)]
        sol = solve_linear(rows, b)
        if sol is not None:
            return sol
        powers.append(mat_mul(powers[-1], base))
    raise DomainError("matrix is not polynomial in the Casimir action "
                      "(fragment not Casimir-consistent)")


def iso_two_descriptions(frag: HCFragment):
    """Isomorphism witness (T, X_*, I) between the two descriptions.

    T = p(C_0) where p expresses Y_* X_* as a polynomial in C_1; the
    commuting squares and invertibility are verified exactly.
    """
    _validate_fragment(frag)
    if frag.l == 0:
        raise DomainError("two descriptions exist only for l >= 1")
    x_star = frag.x_star()
    y_star = frag.y_star()
    c0, c1 = _casimir_ends(frag)
    p = _poly_in_matrix(mat_mul(y_star, x_star), c1)
    n0 = len(c0)
    t = zeros(n0, n0)
    power = identity(n0)
    for coeff in p:
        if coeff:
            for i in range(n0):
                for j in range(n0):
                    t[i][j] += coeff * power[i][j]
        power = mat_mul(power, c0)
    _invert(t)   # raises when T is singular
    # commuting squares of the morphism (T, X_*, I)
    lhs = mat_mul(mat_mul(y_star, x_star), frag.x_minus)
    rhs = mat_mul(frag.x_minus, t)
    if lhs != rhs:
        raise DomainError("morphism square (A-) does not commute")
    lhs = mat_mul(t, frag.y_minus)
    rhs = mat_mul(mat_mul(frag.y_minus, y_star), x_star)
    if lhs != rhs:
        raise DomainError("morphism square (B-) does not commute")
    return t, x_star, identity(len(frag.y_plus))


def random_fragment(l: int, dim: int, seed: int = 0) -> HCFragment:
    """Seeded Casimir-consistent random fragment with equal dimensions.

    The Casimir eigen-data is chosen first (gamma plus a random nilpotent
    at the lower end); interior lowering maps and the upper end are then
    solved from the key identities, so the Lemma hypotheses hold by
    construction.
    """
    if l < 1 or dim < 1:
        raise DomainError("need l >= 1 and dim >= 1")
    rng = random.Random(seed)

    def rand_invertible() -> Mat:
        while True:
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
            try:
                _invert(m)
                return m
            except DomainError:
                continue

    def rand_nilpotent() -> Mat:
        m = zeros(dim, dim)
        for i in range(dim):
            for j in range(i + 1, dim):
                m[i][j] = Fraction(rng.randint(-2, 2))
        return m

    gamma = l * l - 1
    x_minus = rand_invertible()
    nil = rand_nilpotent()
    y_minus = mat_mul(nil, _invert(x_minus))   # Y_- X_- = nil
    c_cur = [[(Fraction(gamma) if i == j else Fraction(0)) +
              4 * mat_mul(x_minus, y_minus)[i][j] for j in range(dim)]
             for i in range(dim)]              # C on M_{-l+1}
    xs, ys = [], []
    for i in range(1, l):
        n_i = -l - 1 + 2 * i                    # weight below X_i
        const = Fraction(n_i * n_i + 2 * n_i)
        x_i = rand_invertible()
        y_i = mat_mul([[Fraction(c_cur[a][b] - (const if a == b else 0), 4)
                        for b in range(dim)] for a in range(dim)],
                      _invert(x_i))
        xs.append(x_i)
        ys.append(y_i)
        c_cur = mat_mul(mat_mul(x_i, c_cur), _invert(x_i))
    x_plus = rand_invertible()
    y_plus = mat_mul([[Fraction(c_cur[a][b] - (gamma if a == b else 0), 4)
                       for b in range(dim)] for a in range(dim)],
                     _invert(x_plus))
    return HCFragment(l, x_minus=x_minus, xs=tuple(xs), x_plus=x_plus,
                      y_plus=y_plus, ys=tuple(ys), y_minus=y_minus)
