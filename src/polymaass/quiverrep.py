"""Cyclic modules over the Gelfand and two-cyclic quivers, and the
equivalence from finite Harish-Chandra diagram fragments.

Representations carry exact rational matrices.  The Gelfand quiver has
nodes (-, *, +) with arrows A_pm: V_pm -> V_* and B_pm: V_* -> V_pm
subject to A_- B_- = A_+ B_+; the two-cyclic quiver has nodes (-, +)
with one arrow in each direction.  Cyclic modules are realized on
monomial bases t^a with the arrows acting by multiplication by t and by
truncation, which makes the loop at the generating node a single
nilpotent Jordan block.

A QuiverRep or HCFragment checks its invariants once, when it is built;
the functions that take one do not check again.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .linalg import (Mat, Vec, identity, kernel, mat_mul, nilpotency_degree, rref,
                     solve_linear, zeros)
from .scalars import DomainError, json_rational, malformed_json

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

    def __post_init__(self):
        """A known quiver, a nonnegative dimension for exactly its nodes, a
        matrix of the right shape for exactly its arrows and, for the
        Gelfand quiver, the relation."""
        if self.quiver not in NODES:
            raise DomainError("unknown quiver %r" % (self.quiver,))
        if set(self.dims) != set(NODES[self.quiver]) or min(self.dims.values()) < 0:
            raise DomainError("dims must give a nonnegative dimension for exactly "
                              "the nodes %s" % (NODES[self.quiver],))
        names = [name for name, _src, _dst in ARROWS[self.quiver]]
        if set(self.maps) != set(names):
            raise DomainError("maps must give exactly the arrows %s" % (names,))
        for name, src, dst, m in self.arrows():
            _check_shape("arrow " + name, m, self.dims[dst], self.dims[src])
        self.check_relation()

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
        with malformed_json("quiver representation"):
            quiver = data["quiver"]
            dims = {k: operator.index(v) for k, v in data["dims"].items()}
            maps = {k: _matrix_from_json(m) for k, m in data["maps"].items()}
            return QuiverRep(quiver, dims, maps)


def _matrix_from_json(m) -> Mat:
    """A matrix read from JSON: a list of rows, each a list of rationals."""
    if not isinstance(m, list) or not all(isinstance(row, list) for row in m):
        raise TypeError("a matrix must be a list of row lists, not %r" % (m,))
    return [[json_rational(x) for x in row] for row in m]


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


# closed exponent interval of t^a at each node, per quiver and (type, case),
# as a function of the depth parameter d; an empty interval is a zero node
_INTERVALS = {
    GELFAND: {
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
    },
    CYCLIC: {
        ("+", "a"): lambda d: {"-": (1, d), "+": (0, d)},
        ("+", "b"): lambda d: {"-": (1, d + 1), "+": (0, d)},
        ("-", "a"): lambda d: {"-": (0, d), "+": (1, d)},
        ("-", "b"): lambda d: {"-": (0, d), "+": (1, d + 1)},
    },
}


def cyclic_module_dims(quiver: str, type_tag: str, case: str, d: int) -> Tuple[int, ...]:
    """Dimension vector, in NODES order, of the cyclic module (type, case,
    d); DomainError when no such module exists."""
    if d < 0:
        raise DomainError("depth parameter must be nonnegative")
    if quiver not in _INTERVALS:
        raise DomainError("unknown quiver %r" % (quiver,))
    if (type_tag, case) not in _INTERVALS[quiver]:
        raise DomainError("no %s module (%s, %s)" % (
            "Gelfand cyclic" if quiver == GELFAND else "cyclic-quiver", type_tag, case))
    if quiver == GELFAND and type_tag in ("+", "-") and case == "d" and d < 1:
        raise DomainError("case (%s, d) exists only for d >= 1" % type_tag)
    iv = _INTERVALS[quiver][(type_tag, case)](d)
    return tuple(max(0, iv[n][1] - iv[n][0] + 1) for n in NODES[quiver])


def build_cyclic_module(quiver: str, type_tag: str, case: str, d: int) -> QuiverRep:
    """Explicit matrices for the cokernel presentations of the cyclic
    modules, keyed by generator type, case letter and depth parameter.
    Every arrow maps t^a to t^a, truncated, except the arrows into * on the
    Gelfand quiver and out of the generating node on the two-cyclic
    quiver, which multiply by t."""
    dims = cyclic_module_dims(quiver, type_tag, case, d)
    iv = _INTERVALS[quiver][(type_tag, case)](d)
    maps = {name: _interval_map(iv[src], iv[dst],
                                int(dst == "*" if quiver == GELFAND else src == type_tag))
            for name, src, dst in ARROWS[quiver]}
    return QuiverRep(quiver, dict(zip(NODES[quiver], dims)), maps)


# ---------------------------------------------------------------------------
# invariants and classification


def invariants_of(rep: QuiverRep):
    """(dimension vector, nilpotency degrees per node)."""
    degrees = {node: nilpotency_degree(loop) for node, loop in rep.loops().items()}
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
    """(type, case, d) of a cyclic module: the case whose interval table
    gives rep's dimension vector at d = (dim at the generating node) - 1;
    errors if rep is not cyclic or no case fits."""
    type_tag = is_cyclic(rep)
    if type_tag is None:
        raise DomainError("representation is not cyclic")
    dims = rep.dim_vector()
    d = rep.dims[type_tag] - 1
    for t, case in _INTERVALS[rep.quiver]:
        try:
            if t == type_tag and cyclic_module_dims(rep.quiver, t, case, d) == dims:
                return (type_tag, case, d)
        except DomainError:   # no module (t, case) at this d
            continue
    raise DomainError("cyclic module with impossible dimension vector %r" % (dims,))


def direct_sum(a: QuiverRep, b: QuiverRep) -> QuiverRep:
    if a.quiver != b.quiver:
        raise DomainError("cannot sum representations of different quivers")
    dims = {n: a.dims[n] + b.dims[n] for n in NODES[a.quiver]}
    maps = {}
    for name, src, dst, ma in a.arrows():
        pad_a, pad_b = [Fraction(0)] * b.dims[src], [Fraction(0)] * a.dims[src]
        maps[name] = [row + pad_a for row in ma] + [pad_b + row for row in b.maps[name]]
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
                row = [0] * total   # int zeros, which _int_row's scan skips fast
                for t in range(nd):
                    if m[t][j]:
                        row[entry_index(dst, i, t)] += m[t][j]
                for t in range(ns):
                    if m[i][t]:
                        row[entry_index(src, t, j)] -= m[i][t]
                rows.append(row)
    basis = kernel(rows, total)
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
    gram = mat_mul(flat, [list(col) for col in zip(*flat_t)], len(basis))
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

    def __post_init__(self):
        """Exactly the maps of l, shapes that chain together, invertible
        interior maps and nilpotent end composites."""
        if self.l < 0:
            raise DomainError("l must be nonnegative")
        own = ("z_minus", "z_plus") if self.l == 0 else \
            ("x_minus", "xs", "x_plus", "y_plus", "ys", "y_minus")
        stray = [f.name for f in fields(self)[1:]   # None and [] are absent
                 if f.name not in own and getattr(self, f.name) not in (None, [], ())]
        if stray:
            raise DomainError("an l = %d fragment takes no %s" % (self.l, ", ".join(stray)))
        if self.l == 0:
            if self.z_minus is None or self.z_plus is None:
                raise DomainError("l = 0 fragment needs z_minus and z_plus")
            n_plus, n_minus = len(self.z_minus), len(self.z_plus)
            _check_shape("z_minus", self.z_minus, n_plus, n_minus)
            _check_shape("z_plus", self.z_plus, n_minus, n_plus)
            if nilpotency_degree(mat_mul(self.z_plus, self.z_minus, n_minus)) is None:
                raise DomainError("end composite is not nilpotent")
            return
        if len(self.xs) != self.l - 1 or len(self.ys) != self.l - 1:
            raise DomainError("fragment needs %d interior maps per direction" % (self.l - 1,))
        if None in (self.x_minus, self.y_minus, self.x_plus, self.y_plus):
            raise DomainError("fragment needs x_minus, y_minus, x_plus and y_plus")
        n0, n1, n2 = len(self.y_minus), len(self.x_minus), len(self.x_plus)
        _check_shape("x_minus", self.x_minus, n1, n0)
        _check_shape("y_minus", self.y_minus, n0, n1)
        _check_shape("x_plus", self.x_plus, n2, n1)
        _check_shape("y_plus", self.y_plus, n1, n2)
        for m in list(self.xs) + list(self.ys):
            _check_shape("interior map", m, n1, n1)
            if len(rref(m)[1]) != n1:
                raise DomainError("interior map is not invertible")
        if nilpotency_degree(mat_mul(self.x_minus, self.y_minus, n1)) is None:
            raise DomainError("lower end composite is not nilpotent")
        if nilpotency_degree(mat_mul(self.x_plus, self.y_plus, n2)) is None:
            raise DomainError("upper end composite is not nilpotent")

    def x_star(self) -> Mat:
        out = None
        for x in self.xs:   # X_* = X_{l-1} ... X_1
            out = x if out is None else mat_mul(x, out, len(x))
        if out is None:
            out = identity(len(self.x_minus))
        return out

    def y_star(self) -> Mat:
        out = None
        for y in self.ys:   # Y_* = Y_1 ... Y_{l-1}: Y_{l-1} acts first
            out = y if out is None else mat_mul(out, y, len(y))
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
        dec = lambda m: None if m is None else _matrix_from_json(m)
        with malformed_json("fragment JSON"):
            unknown = sorted(set(data) - {f.name for f in fields(HCFragment)})
            if unknown:
                raise DomainError("fragment JSON has unknown keys %s" % (unknown,))
            return HCFragment(operator.index(data["l"]), dec(data.get("x_minus")),
                              tuple(dec(m) for m in data.get("xs", ())),
                              dec(data.get("x_plus")), dec(data.get("y_plus")),
                              tuple(dec(m) for m in data.get("ys", ())),
                              dec(data.get("y_minus")), dec(data.get("z_minus")),
                              dec(data.get("z_plus")))


def _invert(m: Mat) -> Mat:
    n = len(m)
    aug = [row + unit for row, unit in zip(m, identity(n))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise DomainError("interior map is not invertible")
    return [row[n:] for row in r[:n]]


def _fragment_dims(frag: HCFragment) -> Dict[str, int]:
    """Gelfand node dimensions (dim M_{-l-1}, dim M_{-l+1}, dim M_{l+1}),
    read from row counts so that a zero end block has a dimension too."""
    return {"-": len(frag.y_minus), "*": len(frag.x_minus), "+": len(frag.x_plus)}


def hc_to_quiver(frag: HCFragment) -> QuiverRep:
    """The equivalence functor on a diagram fragment: l = 0 gives a
    two-cyclic representation, l >= 1 a Gelfand representation with
    arrows (X_-, X_+ X_*, X_*^{-1} Y_+, Y_-)."""
    if frag.l == 0:
        dims = {"-": len(frag.z_plus), "+": len(frag.z_minus)}
        return QuiverRep(CYCLIC, dims, {"a": frag.z_minus, "b": frag.z_plus})
    dims = _fragment_dims(frag)
    x_star = frag.x_star()
    return QuiverRep(GELFAND, dims, {"A-": frag.x_minus, "B-": frag.y_minus,
                                     "A+": mat_mul(_invert(x_star), frag.y_plus, dims["+"]),
                                     "B+": mat_mul(frag.x_plus, x_star, dims["*"])})


def second_description(frag: HCFragment) -> QuiverRep:
    """Alternative realization on (M_{-l-1}, M_{l-1}, M_{l+1}) with arrows
    (Y_*^{-1} X_-, X_+, Y_+, Y_- Y_*)."""
    if frag.l == 0:
        raise DomainError("second description needs l >= 1")
    dims = _fragment_dims(frag)
    y_star = frag.y_star()
    return QuiverRep(GELFAND, dims, {"A-": mat_mul(_invert(y_star), frag.x_minus, dims["-"]),
                                     "B-": mat_mul(frag.y_minus, y_star, dims["*"]),
                                     "A+": frag.y_plus, "B+": frag.x_plus})


def _casimir(gamma: int, composite: Mat) -> Mat:
    """The Casimir action gamma * I + 4 * (back-and-forth composite)."""
    n = len(composite)
    return [[(Fraction(gamma) if i == j else Fraction(0)) + 4 * composite[i][j]
             for j in range(n)] for i in range(n)]


def _casimir_ends(frag: HCFragment) -> Tuple[Mat, Mat]:
    """Casimir actions C_0 on M_{-l-1} and C_1 on M_{-l+1}, reconstructed
    from the H-eigenvalues and the back-and-forth composites."""
    gamma = frag.l * frag.l - 1
    n0, n1 = len(frag.y_minus), len(frag.x_minus)
    return (_casimir(gamma, mat_mul(frag.y_minus, frag.x_minus, n0)),
            _casimir(gamma, mat_mul(frag.x_minus, frag.y_minus, n1)))


def _poly_in_matrix(target: Mat, base: Mat) -> List[Fraction]:
    """Least-degree coefficients p with sum p_j base^j = target.  On the
    zero space every p matches; p = 1 is returned.  By Cayley-Hamilton the
    powers below base^n span every polynomial in base, so n solves decide."""
    n = len(base)
    if not n:
        return [Fraction(1)]
    powers = [identity(n)]
    for deg in range(n):
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
    commuting squares and the invertibility of T are verified exactly.
    Once p is found, the singularity check cannot fail on a fragment
    that passed construction: X_- Y_- is nilpotent, so C_0 and C_1 have
    the single eigenvalue gamma, and T = p(C_0) has the single eigenvalue
    p(gamma), which is the one eigenvalue of Y_* X_* = p(C_1), a product
    of invertible interior maps.  It stays as a self-check.
    """
    if frag.l == 0:
        raise DomainError("two descriptions exist only for l >= 1")
    x_star = frag.x_star()
    y_star = frag.y_star()
    c0, c1 = _casimir_ends(frag)
    n0, n1 = len(c0), len(c1)
    yx_star = mat_mul(y_star, x_star, n1)
    p = _poly_in_matrix(yx_star, c1)
    t = zeros(n0, n0)
    power = identity(n0)
    for coeff in p:
        if coeff:
            for i in range(n0):
                for j in range(n0):
                    t[i][j] += coeff * power[i][j]
        power = mat_mul(power, c0, n0)
    if len(rref(t, n0)[1]) != n0:
        raise DomainError("isomorphism witness T is singular")
    # commuting squares of the morphism (T, X_*, I)
    lhs = mat_mul(yx_star, frag.x_minus, n0)
    rhs = mat_mul(frag.x_minus, t, n0)
    if lhs != rhs:
        raise DomainError("morphism square (A-) does not commute")
    lhs = mat_mul(t, frag.y_minus, n1)
    rhs = mat_mul(mat_mul(frag.y_minus, y_star, n1), x_star, n1)
    if lhs != rhs:
        raise DomainError("morphism square (B-) does not commute")
    return t, x_star, identity(len(frag.x_plus))


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

    def rand_invertible() -> Tuple[Mat, Mat]:
        """A random invertible matrix and its inverse."""
        while True:
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
            try:
                return m, _invert(m)
            except DomainError:
                continue

    def rand_nilpotent() -> Mat:
        m = zeros(dim, dim)
        for i in range(dim):
            for j in range(i + 1, dim):
                m[i][j] = Fraction(rng.randint(-2, 2))
        return m

    gamma = l * l - 1
    x_minus, x_minus_inv = rand_invertible()
    nil = rand_nilpotent()
    y_minus = mat_mul(nil, x_minus_inv)   # Y_- X_- = nil
    c_cur = _casimir(gamma, mat_mul(x_minus, y_minus))   # C on M_{-l+1}
    xs, ys = [], []
    for i in range(1, l):
        n_i = -l - 1 + 2 * i                    # weight below X_i
        const = Fraction(n_i * n_i + 2 * n_i)
        x_i, x_i_inv = rand_invertible()
        y_i = mat_mul([[Fraction(c_cur[a][b] - (const if a == b else 0), 4)
                        for b in range(dim)] for a in range(dim)],
                      x_i_inv)
        xs.append(x_i)
        ys.append(y_i)
        c_cur = mat_mul(mat_mul(x_i, c_cur), x_i_inv)
    x_plus, x_plus_inv = rand_invertible()
    y_plus = mat_mul([[Fraction(c_cur[a][b] - (gamma if a == b else 0), 4)
                       for b in range(dim)] for a in range(dim)],
                     x_plus_inv)
    return HCFragment(l, x_minus=x_minus, xs=tuple(xs), x_plus=x_plus,
                      y_plus=y_plus, ys=tuple(ys), y_minus=y_minus)
