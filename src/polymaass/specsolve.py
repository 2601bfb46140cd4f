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

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm, prod
from typing import Dict, List, Optional, Tuple

from . import BK_CASES

# none of kernel, mat_mul, mat_vec, rref and solve_linear is called here: the
# names are kept for the benchmark's tracer alone, which finds them here
from .linalg import IntMat, Vec, kernel, mat_mul, mat_vec, rref, solve_linear
from .scalars import (Scalar, check_exact, exact_int, exact_rational, json_int, json_rational,
                      malformed_json)
from .symcalc import (CONSTANT, EISENSTEIN, POINCARE, DomainError, Family, Form, PolyAtom,
                      SpectralAtom, _Atoms, _laplace_rows, apply_flip, apply_power,
                      atom_incoherent, form_of)


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
        exact_int("k", self.k)
        if exact_int("m", self.m) < 0:
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

    def _int_block_delta(self, d: int) -> IntMat:
        """The operator A + T B + T^2 C on W_d, layer-major: row t n + i is
        row i of C, B, A at source layers t - 2, t - 1, t."""
        bands = [[[(j, x) for j, x in enumerate(row) if x] for row in M] for M in self.matrices()]
        n = self.m + 1
        rows = [[((t - s) * n + j, x) for s in range(min(t, 2), -1, -1) for j, x in bands[s][i]]
                for t in range(d + 1) for i in range(n)]
        return IntMat(rows, 1, n * (d + 1))


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
    preimage_scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.branch not in ("L", "R"):
            raise DomainError("branch must be L or R")
        for name in ("k", "m", "d"):
            exact_int(name, getattr(self, name))
        if self.m < 0 or self.d < 0:
            raise DomainError("m and d must be nonnegative")
        if len(self.layers) != self.d + 1 or any(len(v) != self.m + 1 for v in self.layers):
            raise DomainError("a graded vector needs d + 1 = %d layers of m + 1 = %d entries"
                              % (self.d + 1, self.m + 1))
        check_exact("layers", self.layers)
        check_exact("preimage_scale", [[self.preimage_scale]])
        self.layers = [[x if type(x) is Fraction else Fraction(x) for x in layer]
                       for layer in self.layers]
        self.preimage_scale = Fraction(self.preimage_scale)
        if self.preimage_scale == 0:
            raise DomainError("preimage_scale must be nonzero")

    def to_json(self) -> dict:
        return {"k": self.k, "m": self.m, "branch": self.branch, "d": self.d,
                "layers": [[str(x) for x in layer] for layer in self.layers],
                "preimage_scale": str(self.preimage_scale)}

    @staticmethod
    def from_json(data: dict) -> "GradedVector":
        with malformed_json("graded vector JSON"):
            return GradedVector(json_int(data["k"]), json_int(data["m"]),
                                data["branch"], json_int(data["d"]),
                                [[json_rational(x) for x in layer] for layer in data["layers"]],
                                json_rational(data.get("preimage_scale", 1)))


def _kernel_vector(model: WModel) -> Tuple[int, List[int]]:
    """The depth-0 kernel vector w_0 of A, with the closed coefficient
    formulas, as (den, ints) with w_0 = ints / den in lowest terms: each
    nonzero entry is 1/D_r for an int D_r, so den is the lcm of the |D_r|.
    With the rising factorial (a)_j, D_r is (m-r)! (m-r-k)! (L, m >= k),
    (m-r)! (1-k)_{m-r} (L, m < k), (m-r)! (r+k-1)! (R, m > -k) or
    (m-r)! (k)_r (R, m <= -k); no rising factorial there has a zero factor,
    and no index range is empty."""
    k, m = model.k, model.m
    if model.branch == "L" and m >= k:
        D = {r: factorial(m - r) * factorial(m - r - k) for r in range(min(m, m - k) + 1)}
    elif model.branch == "L":
        D = {r: factorial(m - r) * prod(range(1 - k, m - r + 1 - k)) for r in range(m + 1)}
    elif m > -k:
        D = {r: factorial(m - r) * factorial(r + k - 1) for r in range(max(0, 1 - k), m + 1)}
    else:
        D = {r: factorial(m - r) * prod(range(k, k + r)) for r in range(m + 1)}
    den = lcm(*D.values())
    ints = [den // D[r] if r in D else 0 for r in range(m + 1)]
    A, _, _ = model.matrices()
    if any(sum(a * x for a, x in zip(row, ints) if a) for row in A):
        raise AssertionError("w0 formula does not lie in ker A (k=%d, m=%d, %s)"
                             % (k, m, model.branch))
    return den, ints


def build_w0(k: int, m: int, branch: str) -> GradedVector:
    """The depth-0 kernel vector, with the closed coefficient formulas."""
    den, ints = _kernel_vector(WModel(k, m, branch))
    return GradedVector(k, m, branch, 0, [[Fraction(x, den) for x in ints]])


def alternating_trace(v: Vec) -> Fraction:
    return sum(((-1) ** i * x for i, x in enumerate(v)), Fraction(0))


def solver_admissible(k: int, m: int, branch: str) -> bool:
    if branch == "L":
        return k <= 0 or k - m > 1
    return k > 1 or k + m < 1


def solve_wd(k: int, m: int, branch: str, d: int) -> GradedVector:
    """Iterative construction of the generalized eigenvector w_d.

    Step t solves A u - mu w_0 = rest, u_m = 0 for the new top layer u and
    the scalar mu, where rest = sum_s mu_s u_{t-s} - B u_{t-1} - C u_{t-2},
    by one O(n) integer sweep.  The system is nonsingular exactly when w_0
    is not in the image of A (the kernel of v -> v[m] on L, of
    alternating_trace on R): every superdiagonal entry of A is -1 on L and
    every subdiagonal entry -(r+1)(m-r) != 0 on R, so ker A = span(w_0).
    Layers are int vectors over one positive denominator, in lowest terms,
    and rest is summed over the lcm of the denominators it involves;
    Fractions are built once, for the result.
    """
    model = WModel(k, m, branch)
    if exact_int("d", d) < 0:
        raise DomainError("m and d must be nonnegative")
    if not solver_admissible(k, m, branch):
        raise DomainError(
            "solver requires k<=0 or k-m>1 (L) / k>1 or k+m<1 (R); got k=%d, m=%d, %s"
            % (k, m, branch))
    den0, w0 = _kernel_vector(model)
    A, B, C = model.matrices()
    sweep = _layer_sweep(A, w0, branch)
    if sweep is None:
        raise DomainError("w0 lies in the image of A, so no layer is solvable "
                          "(k=%d, m=%d, %s)" % (k, m, branch))
    minus_bc = [[(j, -x) for j, x in enumerate(b + c) if x] for b, c in zip(B, C)]
    layers = [(den0, w0)]   # (den, ints) of u_0, u_1, ...
    mus = []                # (den, [num]) of mu_1, mu_2, ...
    for step in range(1, d + 1):
        (e1, v1), (e2, v2) = layers[-1], layers[-2] if step >= 2 else (1, [0] * (m + 1))
        sums = list(zip(mus, layers[:0:-1]))   # mu_s with u_{step-s}
        den = lcm(e1, e2, *(e * f for (e, _), (f, _) in sums))
        both = [x * (den // e1) for x in v1] + [x * (den // e2) for x in v2]
        rest = [sum(x * both[j] for j, x in row) for row in minus_bc]
        for (e, (mu,)), (f, v) in sums:
            scale = mu * (den // (e * f))
            rest = [r + scale * x for r, x in zip(rest, v)]
        u, mu, e = sweep(rest)
        layers.append(_lowest(e * den, u))
        mus.append(_lowest(e * den, [mu * den0]))
    nu = Fraction(mus[0][1][0], mus[0][0]) ** d if d > 0 else Fraction(1)
    gv = GradedVector(k, m, branch, d, [[Fraction(x, e) for x in v] for e, v in layers], nu)
    _check_generalized_eigenvector(model, gv)
    return gv


def _lowest(den: int, v: List[int]) -> Tuple[int, List[int]]:
    """(den, ints) of v / den, with den > 0 and no common factor."""
    g = gcd(den, *v) if den > 0 else -gcd(den, *v)
    return den // g, [x // g for x in v]


def _layer_sweep(A: List[List[int]], w0: List[int], branch: str):
    """The solver of A u - mu w0 = rest, u_m = 0 for the branch's int A and
    an int w0 spanning ker A: a function of int rest giving ints (u, mu,
    den), the solution over den; None when w0 is in the image of A.  A's
    off-diagonal A[r][r+o] (o = 1 on L, -1 on R) has no zero, so from u_s = 0
    at its start s each row r gives u_{r+o}, held as S_{r+o} u_{r+o} with S
    the running pivot product so that no step divides; the last row e = m - s
    leaves S_e times its residual.  The sweep is linear in g = rest + mu w0:
    the response to w0, taken once, fixes mu, and a multiple of w0 sets
    u_m = 0 (0 already on R)."""
    m = len(A) - 1
    o, s = (1, 0) if branch == "L" else (-1, m)
    e, S, back = m - s, [1] * (m + 1), [0] * (m + 1)   # back[j] = A[j][j-o] A[j-o][j]
    for r in range(s, e, o):
        S[r + o], back[r + o] = S[r] * A[r][r + o], A[r + o][r] * A[r][r + o]

    def sweep(g):
        U = [0] * (m + 2)   # U[m + 1] = U[s - o] is 0, then S_e times the residual
        for r in range(s, e + o, o):
            U[r + o] = g[r] * S[r] - A[r][r] * U[r] - back[r] * U[r - o]
        return [x * (S[e] // y) for x, y in zip(U, S)], U[m + 1]   # both over S_e

    H, h = sweep(w0)
    if h == 0:
        return None
    last = w0[m]

    def solve(rest):
        X, x = sweep(rest)
        u = [a * h - x * b for a, b in zip(X, H)]   # h (X + mu H) for mu = -x / h
        return [a * last - u[m] * w for a, w in zip(u, w0)], -x * S[e] * last, h * S[e] * last
    return solve


def _check_generalized_eigenvector(model: WModel, gv: GradedVector) -> None:
    """Check Delta^d w = nu T^d w0 and Delta^{d+1} w = 0 exactly, in ints:
    w is scaled by den, the lcm of its layers' denominators, and the
    integer rows of the block operator A + T B + T^2 C are applied to
    den * w, d times and then once more, each output layer only when one of
    its source layers t, t-1, t-2 is seen to be nonzero."""
    # the block operator's denominator is 1: A, B and C have int entries
    rows = model._int_block_delta(gv.d).rows
    n = model.m + 1

    def apply(v):
        live = [any(v[t * n:(t + 1) * n]) for t in range(gv.d + 1)]
        on = [f for t in range(gv.d + 1) for f in [any(live[max(t - 2, 0):t + 1])] * n]
        return [sum(x * v[j] for j, x in row) if f else 0 for f, row in zip(on, rows)]

    den = lcm(*(x.denominator for layer in gv.layers for x in layer))
    img = [x.numerator * (den // x.denominator) for layer in gv.layers for x in layer]
    for _ in range(gv.d):
        img = apply(img)
    scale = den * gv.preimage_scale
    if img != [0] * (gv.d * n) + [scale * x for x in gv.layers[0]]:
        raise AssertionError("iterative solution fails Delta^d w = nu T^d w0")
    if any(apply(img)):
        raise AssertionError("iterative solution fails Delta^{d+1} w = 0")


def brute_force_wd(k: int, m: int, branch: str, d: int) -> GradedVector:
    """Independent oracle: exact kernel of the stacked Delta^{d+1} matrix
    on W_d, pinned to layer 0 = w_0 and the zero-v_m gauge."""
    model = WModel(k, m, branch)
    if exact_int("d", d) < 0:
        raise DomainError("m and d must be nonnegative")
    w0 = build_w0(k, m, branch).layers[0]
    n = m + 1
    D = model._int_block_delta(d)
    Dd = D.power(d)
    K = [v for _c, v in (D @ Dd).kernel()]
    # solve for the combination with layer 0 = w0 and zero v_m on layers >= 1
    pinned = list(range(n)) + [t * n + m for t in range(1, d + 1)]
    coeffs = IntMat([[(j, v[i]) for j, v in enumerate(K) if i in v] for i in pinned], 1,
                    len(K)).solve(w0 + [0] * d)
    if coeffs is None:
        raise DomainError("oracle: no pinned kernel element (k=%d, m=%d, %s, d=%d)"
                          % (k, m, branch, d))
    flat = [sum(q * v.get(i, 0) for q, v in zip(coeffs, K)) for i in range(n * (d + 1))]
    layers = [flat[t * n:(t + 1) * n] for t in range(d + 1)]
    img = [row[0] for row in (Dd @ IntMat.from_dense([[x] for x in flat], 1)).to_dense()]
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
        exact_int("weight", self.weight)
        object.__setattr__(self, "point", exact_rational("point", self.point))
        if type(self.orientation) is not int or self.orientation not in (1, -1):
            raise DomainError("orientation must be +1 or -1")

    def check_standard(self):
        """The local Laplace eigenvalue a0 + a1 u - u^2 of the member at
        s = point + u must be (1 - weight) u in the oriented variable:
        a0 = 0 and orientation a1 = 1 - weight.  A constant family has
        eigenvalue 0, with no u^2 term, so it never is."""
        w, p = self.weight, self.point
        if self.family.is_eisenstein_like():   # s (1 - w - s)
            a0, a1 = p * (1 - w - p), 1 - w - 2 * p
        else:   # Poincare: -(s - w/2)(s - 1 + w/2)
            a0, a1 = (p - Fraction(w, 2)) * (1 - p - Fraction(w, 2)), 1 - 2 * p
        if self.family.kind == CONSTANT or a0 != 0 or self.orientation * a1 != 1 - w:
            raise DomainError(
                "family at point %s is not in the standard eigenvalue "
                "normalization for weight %d" % (self.point, self.weight))


def eisenstein_family(weight: int, point, orientation: int = 1) -> SpectralFamily:
    return SpectralFamily(Family(EISENSTEIN), weight, point, orientation)


def poincare_family(weight: int, index: int, point, orientation: int = 1) -> SpectralFamily:
    return SpectralFamily(Family(POINCARE, index=index), weight, point, orientation)


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
    terms, atoms = {}, _Atoms()
    for t, layer in enumerate(gv.layers):
        order = d - t
        for r, coeff in enumerate(layer):
            if coeff == 0:
                continue
            power = (m - r) if gv.branch == "L" else r
            pending = (gv.branch, power) if power > 0 else None
            atom = SpectralAtom(fam.family, fam.weight, fam.point, order, pending)
            if pending is not None and not atoms.image(0, 0, atoms.id(atom), "E")[1]:
                continue
            q = coeff / factorial(order) / gv.preimage_scale * (fam.orientation ** order)
            terms[(PolyAtom(m, r), atom)] = Scalar.from_rational(q)
    return Form(gv.k - m if gv.branch == "L" else gv.k + m, terms)


def preimage_constant_weight(k: int, d: int, fam: SpectralFamily) -> Form:
    """Minimal constant-weight preimage of the family value under Delta^d:
    f^(d)/(d! (1-k)^d) for k != 1 and (-1)^d f^(2d)/(2d)! for k = 1."""
    if exact_int("d", d) < 0:
        raise DomainError("depth must be nonnegative")
    if fam.weight != exact_int("k", k):
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
    """((-1)^d/(2d+1)!) E^-(2d), a Delta^d preimage of E^-(0).  -disc must be
    fundamental: disc is 3 mod 4, or 4 D' with D' 1 or 2 mod 4, and
    disc or D' is squarefree."""
    if d < 0:
        raise DomainError("depth must be nonnegative")
    core, classes = (disc // 4, (1, 2)) if disc % 4 == 0 else (disc, (3,))
    if disc <= 0 or core % 4 not in classes \
            or any(core % (p * p) == 0 for p in range(2, isqrt(core) + 1)):
        raise DomainError("-D must be a fundamental discriminant; got D = %d" % disc)
    atom = atom_incoherent(disc, 2 * d)
    return form_of(PolyAtom(0, 0), atom, Fraction((-1) ** d, factorial(2 * d + 1)))


# ---------------------------------------------------------------------------
# direct preimage chains over a Delta-stable atom span


def delta_matrix_on_span(seed_atoms) -> Tuple[List[Tuple[PolyAtom, SpectralAtom]], IntMat,
                                               List[int]]:
    """Close the seed atoms under the Laplacian and return the exact matrix,
    as an IntMat.

    Basis member i is pi^{p_i} times the raw atom, and the returned list
    holds the exponents p_i.  They form a potential on the Delta coupling
    graph: a coefficient q pi^e of atom j in Delta of atom i asks for
    p_j = p_i + e, so that the entry M[j][i] is the rational q.  Each
    component of the graph is searched once, from its first atom, at
    p = 0.
    """
    pool, rows, den = _laplace_rows(seed_atoms)
    n = len(pool)
    M: List[Dict[int, int]] = [{} for _ in range(n)]   # filled by increasing column i
    edges: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, e, x in row:
            if i in M[j]:   # a coefficient with two pi powers
                raise DomainError("span is not pi-graded")
            M[j][i] = x
            edges[i].append((j, e))
            edges[j].append((i, -e))
    exps: List[Optional[int]] = [None] * n
    for root in range(n):
        if exps[root] is not None:
            continue
        exps[root] = 0
        stack = [root]
        while stack:
            i = stack.pop()
            for j, e in edges[i]:
                if exps[j] is None:
                    exps[j] = exps[i] + e
                    stack.append(j)
                elif exps[j] != exps[i] + e:
                    raise DomainError("span is not pi-graded")
    return pool, IntMat([list(r.items()) for r in M], den, n), exps


def delta_preimage_on_span(target: Form, seed_atoms, d: int) -> Form:
    """Solve Delta^d g = target inside the Delta-stable span of the seeds.

    The particular solution takes free variables zero under a fixed
    deterministic basis order, so output is reproducible.
    """
    pool, M, exps = delta_matrix_on_span([key for key, _c in target.terms] + list(seed_atoms))
    index = {key: i for i, key in enumerate(pool)}
    b = [Fraction(0)] * len(pool)
    for (key, c) in target.terms:
        i = index[key]
        if [e for e, _q in c.terms] != [exps[i]]:
            raise DomainError("target does not live in the scaled span")
        b[i] = c.terms[0][1]
    x = M.power(d).solve(b)
    if x is None:
        raise DomainError("no Delta^%d preimage in the span" % d)
    return Form(target.weight, {pool[i]: Scalar.pi_power(exps[i], q)
                                for i, q in enumerate(x) if q})


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
    for name, x in (("k", k), ("index", index), ("disc", disc)):
        exact_int(name, x)
    if exact_int("d", d) < 0:
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
