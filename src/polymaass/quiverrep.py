"""Cyclic modules over the Gelfand and two-cyclic quivers, and the
equivalence from finite Harish-Chandra diagram fragments.

Representations carry exact rational matrices.  The Gelfand quiver has
nodes (-, *, +) with arrows A_pm: V_pm -> V_* and B_pm: V_* -> V_pm
subject to A_- B_- = A_+ B_+; the two-cyclic quiver has nodes (-, +)
with one arrow in each direction.  Cyclic modules are realized on
monomial bases t^a with the arrows acting by multiplication by t and by
truncation, which makes the loop at the generating node a single
nilpotent Jordan block.

A QuiverRep or HCFragment is frozen and checks its invariants once, when
it is built; the functions that take one do not check again.  A QuiverRep
holds its dims and maps as read-only mappings, and both hold every matrix
as a tuple of row tuples, so that no entry changes in place.  Building one
also reads each map once into an integer matrix (linalg.IntMat), kept in
the plain attribute ``int_maps``; every product, inverse, rank and
nilpotency check below runs on those, and Fractions are built only for the
public fields and return values.  A QuiverRep computes its loops, their
nilpotency degrees and its top once, when first asked, and keeps them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from . import CYCLIC, GELFAND
from .linalg import IntMat, Mat, identity, solve_linear, zeros
from .scalars import DomainError, check_exact, exact_int, json_int, json_rational, malformed_json

NODES = {GELFAND: ("-", "*", "+"), CYCLIC: ("-", "+")}
# (name, source node, target node) of every arrow
ARROWS = {GELFAND: (("A-", "-", "*"), ("B-", "*", "-"), ("A+", "+", "*"), ("B+", "*", "+")),
          CYCLIC: (("a", "-", "+"), ("b", "+", "-"))}


@dataclass(frozen=True)
class QuiverRep:
    quiver: str
    dims: Mapping[str, int]
    maps: Mapping[str, Mat]   # gelfand: A-, B-, A+, B+; cyclic: a (-:->+), b (+:->-)

    def __post_init__(self):
        """A known quiver, a nonnegative dimension for exactly its nodes, a
        matrix of the right shape with exact entries for exactly its arrows
        and, for the Gelfand quiver, the relation."""
        if self.quiver not in NODES:
            raise DomainError("unknown quiver %r" % (self.quiver,))
        if set(self.dims) != set(NODES[self.quiver]) \
                or min(exact_int("a dimension", n) for n in self.dims.values()) < 0:
            raise DomainError("dims must give a nonnegative dimension for exactly "
                              "the nodes %s" % (NODES[self.quiver],))
        names = [name for name, _src, _dst in ARROWS[self.quiver]]
        if set(self.maps) != set(names):
            raise DomainError("maps must give exactly the arrows %s" % (names,))
        object.__setattr__(self, "int_maps", {
            name: _int_matrix("arrow " + name, m, self.dims[dst], self.dims[src])
            for name, src, dst, m in self.arrows()})
        object.__setattr__(self, "dims", MappingProxyType(dict(self.dims)))
        object.__setattr__(self, "maps", MappingProxyType(
            {name: _frozen(m) for name, m in self.maps.items()}))
        self.check_relation()

    def dim_vector(self) -> Tuple[int, ...]:
        return tuple(self.dims[n] for n in NODES[self.quiver])

    def arrows(self) -> List[Tuple[str, str, str, Mat]]:
        """(name, source node, target node, matrix) for every arrow."""
        return [(name, src, dst, self.maps[name]) for name, src, dst in ARROWS[self.quiver]]

    def check_relation(self) -> None:
        if self.quiver != GELFAND:
            return
        m = self.int_maps
        if m["A-"] @ m["B-"] != m["A+"] @ m["B+"]:
            raise DomainError("Gelfand relation A-B- = A+B+ violated")

    @cached_property
    def _int_loops(self) -> Dict[str, IntMat]:
        """The loop endomorphism at every node, as integer matrices."""
        m = self.int_maps
        if self.quiver == GELFAND:
            return {"*": m["A-"] @ m["B-"], "-": m["B-"] @ m["A-"], "+": m["B+"] @ m["A+"]}
        return {"-": m["b"] @ m["a"], "+": m["a"] @ m["b"]}

    @cached_property
    def _degrees(self) -> Dict[str, Optional[int]]:
        """Each loop's nilpotency degree, None where it is not nilpotent."""
        return {node: loop.nilpotency_degree() for node, loop in self._int_loops.items()}

    @cached_property
    def _top(self) -> Optional[str]:
        """The node of V / (sum of the arrow images) when that has dimension 1, or None."""
        top = {node: n - IntMat.beside([self.int_maps[name] for name, _src, dst
                                        in ARROWS[self.quiver] if dst == node]).rank()
               for node, n in self.dims.items()}
        if sum(top.values()) != 1:
            return None
        return next(node for node, t in top.items() if t)

    def loops(self) -> Dict[str, Mat]:
        return {node: loop.to_dense() for node, loop in self._int_loops.items()}

    def to_json(self) -> dict:
        return {"quiver": self.quiver,
                "dims": dict(self.dims),
                "maps": {k: [[str(x) for x in row] for row in m]
                         for k, m in self.maps.items()}}

    @staticmethod
    def from_json(data: dict) -> "QuiverRep":
        with malformed_json("quiver representation"):
            quiver = data["quiver"]
            dims = {k: json_int(v) for k, v in data["dims"].items()}
            maps = {k: _matrix_from_json(m) for k, m in data["maps"].items()}
            return QuiverRep(quiver, dims, maps)


def _matrix_from_json(m) -> Mat:
    """A matrix read from JSON: a list of rows, each a list of rationals."""
    if not isinstance(m, list) or not all(isinstance(row, list) for row in m):
        raise TypeError("a matrix must be a list of row lists, not %r" % (m,))
    return [[json_rational(x) for x in row] for row in m]


def _frozen(m: Mat) -> Mat:
    """m as a tuple of row tuples, so that no entry can be changed in place."""
    return tuple(map(tuple, m))


def _int_matrix(what: str, m: Mat, rows: int, cols: int, name: Optional[str] = None) -> IntMat:
    """The integer matrix of m, which must be a rows x cols matrix whose
    entries are ints or Fractions (not bools); an entry error names the
    map as name, or as what when no name is given."""
    if m is None or len(m) != rows or any(len(row) != cols for row in m):
        raise DomainError("%s must be a %d x %d matrix" % (what, rows, cols))
    check_exact(name or what, m)
    return IntMat.from_dense(m, cols)


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
    if exact_int("d", d) < 0:
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
    if None in rep._degrees.values():
        raise DomainError("loop endomorphism is not nilpotent")
    return rep.dim_vector(), dict(rep._degrees)


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
    return rep._top


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
        pad_a, pad_b = (Fraction(0),) * b.dims[src], (Fraction(0),) * a.dims[src]
        maps[name] = [row + pad_a for row in ma] + [pad_b + row for row in b.maps[name]]
    return QuiverRep(a.quiver, dims, maps)


# ---------------------------------------------------------------------------
# endomorphism algebra and indecomposability


def _endomorphism_kernel(rep: QuiverRep) -> Tuple[Dict[str, int], List[Tuple[int, Dict[int, int]]]]:
    """The endomorphism algebra as integer vectors: (offset of each node's
    block, kernel vectors of the commutation equations as IntMat.kernel
    returns them).  An endomorphism (E_node) is flattened node by node,
    each E row-major.  The equation E_dst M - M E_src = 0 of an arrow
    M = R/den is read as E_dst R - R E_src = 0, one sparse integer row per
    entry."""
    offsets = {}
    total = 0
    for n in NODES[rep.quiver]:
        offsets[n] = total
        total += rep.dims[n] ** 2
    rows = []
    for name, src, dst in ARROWS[rep.quiver]:
        m = rep.int_maps[name]
        ns, nd = rep.dims[src], rep.dims[dst]
        columns = [[] for _ in range(ns)]   # column j of R: its (row, value) pairs
        for t, row in enumerate(m.rows):
            for j, x in row:
                columns[j].append((t, x))
        for i, row_i in enumerate(m.rows):
            for j, column in enumerate(columns):
                # the arrows join distinct nodes, so the two sums share no index
                eq = {offsets[dst] + i * nd + t: x for t, x in column}
                eq.update((offsets[src] + t * ns + j, -x) for t, x in row_i)
                if eq:
                    rows.append(sorted(eq.items()))
    return offsets, IntMat(rows, 1, total).kernel()


def endomorphism_basis(rep: QuiverRep) -> List[Dict[str, Mat]]:
    """Exact basis of tuples (E_node) commuting with all arrows."""
    offsets, kernel = _endomorphism_kernel(rep)
    out = []
    for c, v in kernel:
        mats = {}
        for n, offset in offsets.items():
            dim = rep.dims[n]
            mats[n] = [[Fraction(v.get(offset + i * dim + j, 0), v[c]) for j in range(dim)]
                       for i in range(dim)]
        out.append(mats)
    return out


def _dickson_certificate(rep: QuiverRep) -> bool:
    """Dickson's criterion (characteristic 0): rad End(V) is the kernel of
    the trace form tr(a b), the trace taken on V, i.e. summed node by node.
    So dim End(V)/rad is the rank of the Gram matrix tr(a_i a_j) over a
    basis, and End(V) is local with residue field Q exactly when that rank
    is 1.  The Gram matrix is taken over the integer kernel vectors, which
    are positive multiples of a basis, so its rank is unchanged."""
    offsets, kernel = _endomorphism_kernel(rep)
    swap = {}   # flat index of E[i][j] -> flat index of E[j][i]
    for n, offset in offsets.items():
        dim = rep.dims[n]
        for i in range(dim):
            for j in range(dim):
                swap[offset + i * dim + j] = offset + j * dim + i
    transposed = [{swap[k]: x for k, x in v.items()} for _c, v in kernel]
    gram = [[sum(x * u.get(k, 0) for k, x in v.items()) for u in transposed]
            for _c, v in kernel]
    return IntMat.from_dense(gram, len(gram)).rank() == 1


def has_only_trivial_idempotents(rep: QuiverRep) -> bool:
    """Indecomposability certificate: is End(V) local with residue field Q?

    When every loop is nilpotent and the top V/rad V has dimension 1 (what
    is_cyclic tests), the answer is True without building End(V): rad V is
    the sum of the arrow images, so V is generated by any vector outside
    it (Nakayama) and is local, an endomorphism is invertible or maps V
    into rad V and is then nilpotent, and End(V)/rad embeds in End of the
    one-dimensional top, which is Q.

    Otherwise Dickson's criterion decides (see _dickson_certificate): True
    exactly when the trace-form Gram matrix over a basis of End(V) has rank
    1; then 0 and 1 are the only idempotents.  False means End(V)/rad is
    larger than Q: V is decomposable unless End(V)/rad is a division
    algebra larger than Q, which no constructor in this module builds.
    The zero module counts as certified.
    """
    if not any(rep.dims.values()):
        return True
    if rep._top is not None and None not in rep._degrees.values():
        return True
    return _dickson_certificate(rep)


# ---------------------------------------------------------------------------
# Harish-Chandra diagram fragments


@dataclass(frozen=True)
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
        """Exactly the maps of l, shapes that chain together, exact entries,
        invertible interior maps and nilpotent end composites."""
        if exact_int("l", self.l) < 0:
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
            m = {"z_minus": _int_matrix("z_minus", self.z_minus, n_plus, n_minus),
                 "z_plus": _int_matrix("z_plus", self.z_plus, n_minus, n_plus)}
            object.__setattr__(self, "int_maps", m)
            self._freeze(own)
            if (m["z_plus"] @ m["z_minus"]).nilpotency_degree() is None:
                raise DomainError("end composite is not nilpotent")
            return
        if len(self.xs) != self.l - 1 or len(self.ys) != self.l - 1:
            raise DomainError("fragment needs %d interior maps per direction" % (self.l - 1,))
        if None in (self.x_minus, self.y_minus, self.x_plus, self.y_plus):
            raise DomainError("fragment needs x_minus, y_minus, x_plus and y_plus")
        n0, n1, n2 = len(self.y_minus), len(self.x_minus), len(self.x_plus)
        m = {"x_minus": _int_matrix("x_minus", self.x_minus, n1, n0),
             "y_minus": _int_matrix("y_minus", self.y_minus, n0, n1),
             "x_plus": _int_matrix("x_plus", self.x_plus, n2, n1),
             "y_plus": _int_matrix("y_plus", self.y_plus, n1, n2)}
        object.__setattr__(self, "int_maps", m)
        for key in ("xs", "ys"):
            interior = []
            for i, x in enumerate(getattr(self, key)):
                x = _int_matrix("interior map", x, n1, n1, "%s[%d]" % (key, i))
                if x.rank() != n1:
                    raise DomainError("interior map is not invertible")
                interior.append(x)
            m[key] = tuple(interior)
        self._freeze(own)
        if (m["x_minus"] @ m["y_minus"]).nilpotency_degree() is None:
            raise DomainError("lower end composite is not nilpotent")
        if (m["x_plus"] @ m["y_plus"]).nilpotency_degree() is None:
            raise DomainError("upper end composite is not nilpotent")

    def _freeze(self, names) -> None:
        """Hold the named maps, once checked, as tuples of row tuples."""
        for name in names:
            m = getattr(self, name)
            object.__setattr__(self, name, tuple(map(_frozen, m)) if name in ("xs", "ys")
                               else _frozen(m))

    def _int_x_star(self) -> IntMat:
        """X_* = X_{l-1} ... X_1, the identity for l = 1."""
        out = IntMat.identity(len(self.x_minus))
        for x in self.int_maps["xs"]:
            out = x @ out
        return out

    def _int_y_star(self) -> IntMat:
        """Y_* = Y_1 ... Y_{l-1} (Y_{l-1} acts first), the identity for
        l = 1."""
        out = IntMat.identity(len(self.x_minus))
        for y in self.int_maps["ys"]:
            out = out @ y
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
            return HCFragment(json_int(data["l"]), dec(data.get("x_minus")),
                              tuple(dec(m) for m in data.get("xs", ())),
                              dec(data.get("x_plus")), dec(data.get("y_plus")),
                              tuple(dec(m) for m in data.get("ys", ())),
                              dec(data.get("y_minus")), dec(data.get("z_minus")),
                              dec(data.get("z_plus")))


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
    m = frag.int_maps
    x_star = frag._int_x_star()
    return QuiverRep(GELFAND, _fragment_dims(frag),
                     {"A-": frag.x_minus, "B-": frag.y_minus,
                      "A+": (x_star.inverse() @ m["y_plus"]).to_dense(),
                      "B+": (m["x_plus"] @ x_star).to_dense()})


def second_description(frag: HCFragment) -> QuiverRep:
    """Alternative realization on (M_{-l-1}, M_{l-1}, M_{l+1}) with arrows
    (Y_*^{-1} X_-, X_+, Y_+, Y_- Y_*)."""
    if frag.l == 0:
        raise DomainError("second description needs l >= 1")
    m = frag.int_maps
    y_star = frag._int_y_star()
    return QuiverRep(GELFAND, _fragment_dims(frag),
                     {"A-": (y_star.inverse() @ m["x_minus"]).to_dense(),
                      "B-": (m["y_minus"] @ y_star).to_dense(),
                      "A+": frag.y_plus, "B+": frag.x_plus})


def _casimir(gamma: int, composite: IntMat) -> IntMat:
    """The Casimir action gamma * I + 4 * (back-and-forth composite)."""
    return composite.affine(gamma, 4)


def _casimir_ends(frag: HCFragment) -> Tuple[IntMat, IntMat]:
    """Casimir actions C_0 on M_{-l-1} and C_1 on M_{-l+1}, reconstructed
    from the H-eigenvalues and the back-and-forth composites."""
    gamma = frag.l * frag.l - 1
    m = frag.int_maps
    return (_casimir(gamma, m["y_minus"] @ m["x_minus"]),
            _casimir(gamma, m["x_minus"] @ m["y_minus"]))


def _poly_in_matrix(target: IntMat, base: IntMat) -> List[Fraction]:
    """Least-degree coefficients p with sum p_j base^j = target.  On the
    zero space every p matches; p = 1 is returned.  By Cayley-Hamilton the
    powers below base^n span every polynomial in base, so one solve over
    them decides: its pivots run left to right, so its solution is the
    unique one on the first independent powers, cut of trailing zeros."""
    n = base.cols
    if not n:
        return [Fraction(1)]
    powers = [IntMat.identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ base)
    flat = [[x for row in power.to_dense() for x in row] for power in powers]
    p = solve_linear([list(entry) for entry in zip(*flat)],
                     [x for row in target.to_dense() for x in row])
    if p is None:
        raise DomainError("matrix is not polynomial in the Casimir action "
                          "(fragment not Casimir-consistent)")
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


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
    m = frag.int_maps
    x_star = frag._int_x_star()
    y_star = frag._int_y_star()
    c0, c1 = _casimir_ends(frag)
    yx_star = y_star @ x_star
    p = _poly_in_matrix(yx_star, c1)
    t = IntMat([[] for _ in c0.rows], 1, c0.cols)
    for coeff in reversed(p):   # T = p(C_0) by Horner's rule
        t = (c0 @ t).affine(coeff, 1)
    if t.rank() != c0.cols:
        raise DomainError("isomorphism witness T is singular")
    # commuting squares of the morphism (T, X_*, I)
    if yx_star @ m["x_minus"] != m["x_minus"] @ t:
        raise DomainError("morphism square (A-) does not commute")
    if t @ m["y_minus"] != m["y_minus"] @ y_star @ x_star:
        raise DomainError("morphism square (B-) does not commute")
    return t.to_dense(), x_star.to_dense(), identity(len(frag.x_plus))


def random_fragment(l: int, dim: int, seed: int = 0) -> HCFragment:
    """Seeded Casimir-consistent random fragment with equal dimensions.

    The Casimir eigen-data is chosen first (gamma plus a random nilpotent
    at the lower end); interior lowering maps and the upper end are then
    solved from the key identities, so the Lemma hypotheses hold by
    construction.
    """
    if exact_int("l", l) < 1 or exact_int("dim", dim) < 1:
        raise DomainError("need l >= 1 and dim >= 1")
    rng = random.Random(seed)

    def rand_invertible() -> Tuple[IntMat, IntMat]:
        """A random invertible integer matrix and its inverse."""
        while True:
            m = IntMat.from_dense([[rng.randint(-3, 3) for _ in range(dim)]
                                   for _ in range(dim)], dim)
            if (m_inv := m.inverse()) is not None:
                return m, m_inv

    def rand_nilpotent() -> IntMat:
        """A random strictly upper triangular integer matrix."""
        return IntMat.from_dense([[rng.randint(-2, 2) if j > i else 0 for j in range(dim)]
                                  for i in range(dim)], dim)

    gamma = l * l - 1
    x_minus, x_minus_inv = rand_invertible()
    y_minus = rand_nilpotent() @ x_minus_inv   # Y_- X_- = nil
    c_cur = _casimir(gamma, x_minus @ y_minus)   # C on M_{-l+1}
    xs, ys = [], []
    for i in range(1, l):
        n_i = -l - 1 + 2 * i                    # weight below X_i
        const = n_i * n_i + 2 * n_i
        x_i, x_i_inv = rand_invertible()
        xs.append(x_i)
        ys.append(c_cur.affine(Fraction(-const, 4), Fraction(1, 4)) @ x_i_inv)
        c_cur = x_i @ c_cur @ x_i_inv
    x_plus, x_plus_inv = rand_invertible()
    y_plus = c_cur.affine(Fraction(-gamma, 4), Fraction(1, 4)) @ x_plus_inv
    return HCFragment(l, x_minus=x_minus.to_dense(), xs=tuple(x.to_dense() for x in xs),
                      x_plus=x_plus.to_dense(), y_plus=y_plus.to_dense(),
                      ys=tuple(y.to_dense() for y in ys), y_minus=y_minus.to_dense())
