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
it is built; the functions that take one do not check again.  It holds
every map once, as a linalg.IntMat in the read-only mapping ``int_maps``:
every product, inverse, rank and nilpotency check runs on those, and
to_json writes their integers.  Its dense fields are read-only views
(tuples of Fraction row tuples), built on first access and kept.  The
public constructors read dense matrices, and from_json hands them what
scalars.json_matrix reads, a plain integer string as an int; the
functions below that build one pass IntMats to the private ``_make``,
which skips only the shape and entry checks.  A QuiverRep computes its
loops, their nilpotency degrees and its top once, when first asked; an
HCFragment forms X_*, Y_* and their inverses once, when built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import CYCLIC, GELFAND
from .linalg import IntMat, Mat
from .scalars import DomainError, check_exact, exact_int, json_int, json_matrix, malformed_json

NODES = {GELFAND: ("-", "*", "+"), CYCLIC: ("-", "+")}
# (name, source node, target node) of every arrow
ARROWS = {GELFAND: (("A-", "-", "*"), ("B-", "*", "-"), ("A+", "+", "*"), ("B+", "*", "+")),
          CYCLIC: (("a", "-", "+"), ("b", "+", "-"))}


@dataclass(frozen=True, init=False)
class QuiverRep:
    quiver: str
    dims: Mapping[str, int]
    int_maps: Mapping[str, IntMat]   # gelfand: A-, B-, A+, B+; cyclic: a (-:->+), b (+:->-)

    def __init__(self, quiver: str, dims: Mapping[str, int], maps: Mapping[str, Mat]):
        """A known quiver, a nonnegative dimension for exactly its nodes, a
        matrix of the right shape with exact entries for exactly its arrows
        and, for the Gelfand quiver, the relation."""
        if quiver not in NODES:
            raise DomainError("unknown quiver %r" % (quiver,))
        if set(dims) != set(NODES[quiver]) \
                or min(exact_int("a dimension", n) for n in dims.values()) < 0:
            raise DomainError("dims must give a nonnegative dimension for exactly "
                              "the nodes %s" % (NODES[quiver],))
        names = [name for name, _src, _dst in ARROWS[quiver]]
        if set(maps) != set(names):
            raise DomainError("maps must give exactly the arrows %s" % (names,))
        checked = {name: _int_matrix("arrow " + name, maps[name], dims[dst], dims[src])
                   for name, src, dst in ARROWS[quiver]}
        vars(self).update(vars(QuiverRep._make(quiver, dims,
                                               {name: checked[name] for name in maps})))

    @classmethod
    def _make(cls, quiver: str, dims: Mapping[str, int], int_maps: dict) -> "QuiverRep":
        """The rep of IntMats of the shapes dims gives; only the relation is checked."""
        rep = object.__new__(cls)
        vars(rep).update(quiver=quiver, dims=MappingProxyType(dict(dims)),
                         int_maps=MappingProxyType(int_maps))
        rep.check_relation()
        return rep

    @cached_property
    def maps(self) -> Mapping[str, Mat]:
        """Each arrow's matrix as a tuple of Fraction row tuples."""
        return MappingProxyType({name: _view(m) for name, m in self.int_maps.items()})

    def dim_vector(self) -> Tuple[int, ...]:
        return tuple(self.dims[n] for n in NODES[self.quiver])

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
                "maps": {k: _json_rows(m) for k, m in self.int_maps.items()}}

    @staticmethod
    def from_json(data: dict) -> "QuiverRep":
        with malformed_json("quiver representation"):
            quiver = data["quiver"]
            dims = {k: json_int(v) for k, v in data["dims"].items()}
            maps = {k: json_matrix(m) for k, m in data["maps"].items()}
            return QuiverRep(quiver, dims, maps)


def _json_rows(m: IntMat) -> List[List[str]]:
    """m's entries as str(Fraction) writes them, read off its integers."""
    out = [["0"] * m.cols for _ in m.rows]
    for text, row in zip(out, m.rows):
        for j, x in row:
            g = gcd(x, m.den)
            text[j] = str(x // g) if g == m.den else "%d/%d" % (x // g, m.den // g)
    return out


def _view(m: IntMat) -> Mat:
    """m as a tuple of Fraction row tuples, which no one can edit in place."""
    return tuple(map(tuple, m.to_dense()))


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


def _interval_map(src: Tuple[int, int], dst: Tuple[int, int], shift: int) -> IntMat:
    """Monomial map t^a -> t^{a+shift}, truncated to the target interval:
    the row of t^a holds a 1 in the column of t^{a-shift}, if the source
    has one."""
    s_lo, s_hi = src
    d_lo, d_hi = dst
    cols = max(0, s_hi - s_lo + 1)
    return IntMat([[(j, 1)] if 0 <= (j := a - shift - s_lo) < cols else []
                   for a in range(d_lo, d_hi + 1)], 1, cols)


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
    return QuiverRep._make(quiver, dict(zip(NODES[quiver], dims)), maps)


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
    for name, _src, _dst in ARROWS[a.quiver]:
        ma, mb = a.int_maps[name], b.int_maps[name]
        den = lcm(ma.den, mb.den)   # each block scaled to it stays in lowest terms
        maps[name] = IntMat([[(j, den // ma.den * x) for j, x in row] for row in ma.rows]
                            + [[(ma.cols + j, den // mb.den * x) for j, x in row]
                               for row in mb.rows], den, ma.cols + mb.cols)
    return QuiverRep._make(a.quiver, dims, maps)


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


# the maps of a fragment, in field order: l >= 1 uses the first six, l = 0 the last two
_FRAGMENT_MAPS = ("x_minus", "xs", "x_plus", "y_plus", "ys", "y_minus", "z_minus", "z_plus")


@dataclass(frozen=True, init=False)
class HCFragment:
    """The finite fragment M_{-l-1}, M_{-l+1}, ..., M_{l-1}, M_{l+1} with
    raising steps X and lowering steps Y; for l = 0 just the pair
    (M_{-1}, M_{+1}) with the two restrictions:
    x_minus: M_{-l-1} -> M_{-l+1}    y_minus: M_{-l+1} -> M_{-l-1}
    xs: X_1 .. X_{l-1}, interior     ys: Y_1 .. Y_{l-1}, interior
    x_plus: M_{l-1} -> M_{l+1}       y_plus: M_{l+1} -> M_{l-1}
    z_minus: l = 0, X on M_{-1}      z_plus: l = 0, Y on M_{+1}
    int_maps holds each map of l as an IntMat (xs and ys as tuples of
    them) and, for l >= 1, X_* = X_{l-1} ... X_1, Y_* = Y_1 ... Y_{l-1}
    (the identity for l = 1) and their inverses, as x_star, y_star,
    x_star_inv, y_star_inv.  Each map reads back as a dense view, and one
    that l does not use as None, or () for xs and ys."""

    l: int
    int_maps: Mapping[str, object]

    def __init__(self, l: int, x_minus: Mat = None, xs: Sequence[Mat] = (),
                 x_plus: Mat = None, y_plus: Mat = None, ys: Sequence[Mat] = (),
                 y_minus: Mat = None, z_minus: Mat = None, z_plus: Mat = None):
        """Exactly the maps of l, shapes that chain together, exact entries,
        invertible interior maps and nilpotent end composites."""
        if exact_int("l", l) < 0:
            raise DomainError("l must be nonnegative")
        given = zip(_FRAGMENT_MAPS, (x_minus, xs, x_plus, y_plus, ys, y_minus, z_minus, z_plus))
        own = _FRAGMENT_MAPS[6:] if l == 0 else _FRAGMENT_MAPS[:6]
        stray = [name for name, m in given   # None and [] are absent
                 if name not in own and m not in (None, [], ())]
        if stray:
            raise DomainError("an l = %d fragment takes no %s" % (l, ", ".join(stray)))
        if l == 0:
            if z_minus is None or z_plus is None:
                raise DomainError("l = 0 fragment needs z_minus and z_plus")
            n_plus, n_minus = len(z_minus), len(z_plus)
            m = {"z_minus": _int_matrix("z_minus", z_minus, n_plus, n_minus),
                 "z_plus": _int_matrix("z_plus", z_plus, n_minus, n_plus)}
        else:
            if len(xs) != l - 1 or len(ys) != l - 1:
                raise DomainError("fragment needs %d interior maps per direction" % (l - 1,))
            if None in (x_minus, y_minus, x_plus, y_plus):
                raise DomainError("fragment needs x_minus, y_minus, x_plus and y_plus")
            n0, n1, n2 = len(y_minus), len(x_minus), len(x_plus)
            m = {"x_minus": _int_matrix("x_minus", x_minus, n1, n0),
                 "y_minus": _int_matrix("y_minus", y_minus, n0, n1),
                 "x_plus": _int_matrix("x_plus", x_plus, n2, n1),
                 "y_plus": _int_matrix("y_plus", y_plus, n1, n2)}
            for key, interior in (("xs", xs), ("ys", ys)):
                m[key] = tuple(_int_matrix("interior map", x, n1, n1, "%s[%d]" % (key, i))
                               for i, x in enumerate(interior))
        vars(self).update(vars(HCFragment._make(l, m)))

    @classmethod
    def _make(cls, l: int, m: dict, x_star_inv: Optional[IntMat] = None) -> "HCFragment":
        """The fragment of IntMats m of chaining shapes, with the stars and
        their inverses added for l >= 1 (X_*^-1 inverted here unless given);
        only the stars' invertibility and the end composites are checked."""
        frag = object.__new__(cls)
        vars(frag).update(l=l, int_maps=MappingProxyType(m))
        ends = {"end": ("z_plus", "z_minus")}
        if l:
            x_star = y_star = IntMat.identity(len(m["x_minus"].rows))
            for x, y in zip(m["xs"], m["ys"]):
                x_star, y_star = x @ x_star, y_star @ y
            m.update(x_star=x_star, y_star=y_star, y_star_inv=y_star.inverse(),
                     x_star_inv=x_star.inverse() if x_star_inv is None else x_star_inv)
            # the factors are square, so a star is invertible exactly when each is
            if m["x_star_inv"] is None or m["y_star_inv"] is None:
                raise DomainError("interior map is not invertible")
            ends = {"lower end": ("x_minus", "y_minus"), "upper end": ("x_plus", "y_plus")}
        for end, (a, b) in ends.items():
            if (m[a] @ m[b]).nilpotency_degree() is None:
                raise DomainError(end + " composite is not nilpotent")
        return frag

    def __getattr__(self, name: str):
        """The dense views of the maps, built on first access and kept."""
        if name not in _FRAGMENT_MAPS:
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        vars(self).update(self._each_map(_view, tuple))
        return vars(self)[name]

    def _each_map(self, f, seq) -> dict:
        """f of each map by name (seq of them for xs and ys; None if unused)."""
        m = self.int_maps
        return {name: seq(map(f, m.get(name, ()))) if name in ("xs", "ys")
                else f(m[name]) if name in m else None for name in _FRAGMENT_MAPS}

    def to_json(self) -> dict:
        return {"l": self.l, **self._each_map(_json_rows, list)}

    @staticmethod
    def from_json(data: dict) -> "HCFragment":
        dec = lambda m: None if m is None else json_matrix(m)
        with malformed_json("fragment JSON"):
            unknown = sorted(set(data) - {"l", *_FRAGMENT_MAPS})
            if unknown:
                raise DomainError("fragment JSON has unknown keys %s" % (unknown,))
            return HCFragment(json_int(data["l"]), **{
                name: tuple(map(dec, data.get(name, ()))) if name in ("xs", "ys")
                else dec(data.get(name)) for name in _FRAGMENT_MAPS})


def _fragment_dims(m: Mapping[str, object]) -> Dict[str, int]:
    """Gelfand node dimensions (dim M_{-l-1}, dim M_{-l+1}, dim M_{l+1}) of
    a fragment's int_maps, read from row counts so that a zero end block
    has a dimension too."""
    return {"-": len(m["y_minus"].rows), "*": len(m["x_minus"].rows), "+": len(m["x_plus"].rows)}


def hc_to_quiver(frag: HCFragment) -> QuiverRep:
    """The equivalence functor on a diagram fragment: l = 0 gives a
    two-cyclic representation, l >= 1 a Gelfand representation with
    arrows (X_-, X_+ X_*, X_*^{-1} Y_+, Y_-)."""
    m = frag.int_maps
    if frag.l == 0:
        dims = {"-": len(m["z_plus"].rows), "+": len(m["z_minus"].rows)}
        return QuiverRep._make(CYCLIC, dims, {"a": m["z_minus"], "b": m["z_plus"]})
    return QuiverRep._make(GELFAND, _fragment_dims(m),
                           {"A-": m["x_minus"], "B-": m["y_minus"],
                            "A+": m["x_star_inv"] @ m["y_plus"], "B+": m["x_plus"] @ m["x_star"]})


def second_description(frag: HCFragment) -> QuiverRep:
    """Alternative realization on (M_{-l-1}, M_{l-1}, M_{l+1}) with arrows
    (Y_*^{-1} X_-, X_+, Y_+, Y_- Y_*)."""
    if frag.l == 0:
        raise DomainError("second description needs l >= 1")
    m = frag.int_maps
    return QuiverRep._make(GELFAND, _fragment_dims(m),
                           {"A-": m["y_star_inv"] @ m["x_minus"], "B-": m["y_minus"] @ m["y_star"],
                            "A+": m["y_plus"], "B+": m["x_plus"]})


def _casimir(gamma: int, composite: IntMat) -> IntMat:
    """The Casimir action gamma * I + 4 * (back-and-forth composite)."""
    return composite.affine(gamma, 4)


def _column(m: IntMat) -> IntMat:
    """m flattened row-major into one column."""
    rows = [[] for _ in range(len(m.rows) * m.cols)]
    for i, row in enumerate(m.rows):
        for j, x in row:
            rows[i * m.cols + j] = [(0, x)]
    return IntMat(rows, m.den, 1)


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
    flat = _column(target)
    p = IntMat.beside([_column(power) for power in powers]).solve(
        [Fraction(row[0][1], flat.den) if row else 0 for row in flat.rows])
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
    # the Casimir actions C_0 on M_{-l-1} and C_1 on M_{-l+1}
    gamma = frag.l * frag.l - 1
    c0 = _casimir(gamma, m["y_minus"] @ m["x_minus"])
    yx_star = m["y_star"] @ m["x_star"]
    p = _poly_in_matrix(yx_star, _casimir(gamma, m["x_minus"] @ m["y_minus"]))
    t = IntMat([[] for _ in c0.rows], 1, c0.cols)
    for coeff in reversed(p):   # T = p(C_0) by Horner's rule
        t = (c0 @ t).affine(coeff, 1)
    if t.rank() != c0.cols:
        raise DomainError("isomorphism witness T is singular")
    # commuting squares of the morphism (T, X_*, I)
    if yx_star @ m["x_minus"] != m["x_minus"] @ t:
        raise DomainError("morphism square (A-) does not commute")
    if t @ m["y_minus"] != m["y_minus"] @ yx_star:
        raise DomainError("morphism square (B-) does not commute")
    return t.to_dense(), m["x_star"].to_dense(), IntMat.identity(len(m["x_plus"].rows)).to_dense()


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

    def draw(k: int, upper: bool) -> IntMat:
        """Random entries in [-k, k], row by row; strictly upper triangular when upper."""
        return IntMat([[(j, x) for j in range(i + 1 if upper else 0, dim)
                        if (x := rng.randint(-k, k))] for i in range(dim)], 1, dim)

    def rand_invertible() -> Tuple[IntMat, IntMat]:
        """A random invertible integer matrix and its inverse."""
        while True:
            m = draw(3, False)
            if (m_inv := m.inverse()) is not None:
                return m, m_inv

    gamma = l * l - 1
    x_minus, x_minus_inv = rand_invertible()
    y_minus = draw(2, True) @ x_minus_inv   # Y_- X_- = nil
    c_cur = _casimir(gamma, x_minus @ y_minus)   # C on M_{-l+1}
    xs, ys = [], []
    x_star_inv = IntMat.identity(dim)   # X_1^-1 ... X_i^-1
    for i in range(1, l):
        n_i = -l - 1 + 2 * i                    # weight below X_i
        const = n_i * n_i + 2 * n_i
        x_i, x_i_inv = rand_invertible()
        xs.append(x_i)
        ys.append(c_cur.affine(Fraction(-const, 4), Fraction(1, 4)) @ x_i_inv)
        c_cur = x_i @ c_cur @ x_i_inv
        x_star_inv = x_star_inv @ x_i_inv
    x_plus, x_plus_inv = rand_invertible()
    y_plus = c_cur.affine(Fraction(-gamma, 4), Fraction(1, 4)) @ x_plus_inv
    return HCFragment._make(l, {"x_minus": x_minus, "y_minus": y_minus, "x_plus": x_plus,
                                "y_plus": y_plus, "xs": tuple(xs), "ys": tuple(ys)}, x_star_inv)
