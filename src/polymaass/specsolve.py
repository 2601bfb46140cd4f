"""The spectral-derivative solver and the ten case constructions.

The solver state lives in W_d = (Q[T]/T^{d+1}) (x) V with V = Q^{m+1};
the Laplace operator pulls back to the block operator A + T B + T^2 C,
whose matrices depend on the branch (products with lowering powers of
the spectral family, or with raising powers).  The iterative algorithm
extends a kernel vector w_0 of A layer by layer to a generalized
eigenvector w_d with Delta^d w_d = nu T^d w_0, emitted as it is.  The
span of a Poincare chain has the same shape in the Laurent order, Lambda =
A + S B + S^2 C with S lowering it, on bands fixed by k (_poincare_blocks):
with the layers reversed S is T, so the chain is certified as W_d is; off
those bands M^d on the span's matrix (delta_matrix_on_span) solves it.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm, perm, prod
from operator import mul
from typing import Dict, List, Optional, Tuple

from . import BK_CASES

# none of kernel, mat_mul, mat_vec, rref and solve_linear is called here: the
# names are kept for the benchmark's tracer alone, which finds them here
from .linalg import IntMat, Vec, _eliminate, _kernel, kernel, mat_mul, mat_vec, rref, solve_linear
from .scalars import (Scalar, check_exact, exact_int, exact_rational, json_int, json_matrix,
                      json_number, malformed_json)
from .symcalc import (CONSTANT, EISENSTEIN, POINCARE, DomainError, Family, Form, PolyAtom,
                      SpectralAtom, _Atoms, _Columns, _chain_bands, _chain_form, _delta_layers,
                      _laplace_rows, _step_rule, apply_flip, apply_power, atom_incoherent, form_of)


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
        """A, B and C with int entries, dense, from _diagonals()."""
        return tuple(_dense(band, self.m + 1) for band in self._diagonals())

    def _diagonals(self) -> List[List[Tuple[int, List[int]]]]:
        """The nonzero diagonals (o, c), c[i] = M[i][i + o] (0 off the matrix),
        of A, B and C by increasing o, from the closed formulas of the branch."""
        k, m, I = self.k, self.m, range(self.m + 1)
        up = [int(i < m) for i in I]   # 1 where M[i][i + 1] is on the matrix
        if self.branch == "L":
            bands = ([(-1, [i * (m + 1 - i) * (m - i) * (m + 1 - i - k) for i in I]),
                      (0, [(m - i) * (m - 2 * i - k) for i in I]), (1, [-u for u in up])],
                     [(-1, [i * (m + 1 - i) * (1 - k) for i in I]), (0, [1 - k] * (m + 1))],
                     [(-1, [-i * (m + 1 - i) for i in I]), (0, [-1] * (m + 1))])
        else:
            bands = ([(-1, [-i * (m + 1 - i) for i in I]),
                      (0, [-(i * (m - 2 * i - k) + m) for i in I]),
                      (1, [u * (i + 1) * (i + k) for i, u in zip(I, up)])],
                     [(0, [1 - k] * (m + 1)), (1, [(1 - k) * u for u in up])],
                     [(0, [-1] * (m + 1)), (1, [-u for u in up])])
        return [[(o, c) for o, c in band if any(c)] for band in bands]

    def _int_block_delta(self, d: int) -> IntMat:
        """The operator A + T B + T^2 C on W_d, layer-major: row t n + i is
        row i of C, B, A at source layers t - 2, t - 1, t."""
        diags, n = self._diagonals(), self.m + 1
        rows = [[((t - s) * n + i + o, c[i]) for s in range(min(t, 2), -1, -1)
                 for o, c in diags[s] if c[i]] for t in range(d + 1) for i in range(n)]
        return IntMat(rows, 1, n * (d + 1))


def _dense(band, n: int) -> List[List[int]]:
    """The n x n matrix M of the diagonals (o, c), c[i] = M[i][i + o]."""
    M, zero = dict(band), [0] * n
    return [[M.get(j - i, zero)[i] for j in range(n)] for i in range(n)]


@dataclass
class GradedVector:
    """Layer t holds the T^t coefficient vector of w_d; layer 0 is w_0.

    preimage_scale is the factor nu with Delta^d w_d = nu * T^d w_0; d
    Laplacians of the emitted form give nu times the emitted w_0.
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
        if not isinstance(self.layers, Sized) or len(self.layers) != self.d + 1 \
                or any(not isinstance(v, Sized) or len(v) != self.m + 1 for v in self.layers):
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
            return GradedVector(json_int(data["k"]), json_int(data["m"]), data["branch"],
                                json_int(data["d"]), json_matrix(data["layers"]),
                                json_number(data.get("preimage_scale", 1)))


def _kernel_vector(model: WModel, A) -> Tuple[int, List[int]]:
    """The depth-0 kernel vector w_0 of A, given by its diagonals, with the
    closed formulas, as (den, ints) with w_0 = ints / den in lowest terms: each
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
    # A w_0 = 0; c[i] is 0 where i + o leaves the matrix
    if any(sum(c[i] * ints[i + o] for o, c in A if c[i]) for i in range(m + 1)):
        raise AssertionError("w0 formula does not lie in ker A (k=%d, m=%d, %s)"
                             % (k, m, model.branch))
    return den, ints


def build_w0(k: int, m: int, branch: str) -> GradedVector:
    """The depth-0 kernel vector, with the closed coefficient formulas."""
    model = WModel(k, m, branch)
    den, ints = _kernel_vector(model, model._diagonals()[0])
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
    Fractions are built once, for the result; one Delta pass on the int layers
    and nu alone certifies it: Delta w = p(T) w with p(0) = 0 and nu = mu_1^d,
    mu_1 p's T coefficient; Delta commutes with T, so Delta^d w = mu_1^d T^d w0
    and Delta^{d+1} w = 0 mod T^{d+1} (_certify)."""
    model = WModel(k, m, branch)
    if exact_int("d", d) < 0:
        raise DomainError("m and d must be nonnegative")
    if not solver_admissible(k, m, branch):
        raise DomainError(
            "solver requires k<=0 or k-m>1 (L) / k>1 or k+m<1 (R); got k=%d, m=%d, %s"
            % (k, m, branch))
    diags = model._diagonals()
    den0, w0 = _kernel_vector(model, diags[0])
    sweep = _layer_sweep(diags[0], w0, branch)
    if sweep is None:
        raise DomainError("w0 lies in the image of A, so no layer is solvable "
                          "(k=%d, m=%d, %s)" % (k, m, branch))
    # diagonals (j, c) of -[B | C], read on 0, u_{t-1}, u_{t-2}, 0 from index j
    minus_bc = [(s * (m + 1) + o + 1, [-x for x in c]) for s in (0, 1) for o, c in diags[s + 1]]
    layers = [(den0, w0)]   # (den, ints) of u_0, u_1, ...
    mus = []                # (den, [num]) of mu_1, mu_2, ...
    for step in range(1, d + 1):
        (e1, v1), (e2, v2) = layers[-1], layers[-2] if step >= 2 else (1, [0] * (m + 1))
        sums = list(zip(mus, layers[:0:-1]))   # mu_s with u_{step-s}
        den = lcm(e1, e2, *(e * f for (e, _), (f, _) in sums))
        both = [0] + [x * (den // e1) for x in v1] + [x * (den // e2) for x in v2] + [0]
        rest = [0] * (m + 1)
        for j, c in minus_bc:
            rest = [r + x * y for r, x, y in zip(rest, c, both[j:])]
        for (e, (mu,)), (f, v) in sums:
            scale = mu * (den // (e * f))
            rest = [r + scale * x for r, x in zip(rest, v)]
        u, mu, e = sweep(rest)
        layers.append(_lowest(e * den, u))
        mus.append(_lowest(e * den, [mu * den0]))
    nu = Fraction(mus[0][1][0], mus[0][0]) ** d if d > 0 else Fraction(1)
    gv = GradedVector(k, m, branch, d, [[Fraction(x, e) for x in v] for e, v in layers], nu)
    den = lcm(*(e for e, _v in layers))
    _certify(diags, [[x * (den // e) for x in v] for e, v in layers], nu)
    return gv


def _lowest(den: int, v: List[int]) -> Tuple[int, List[int]]:
    """(den, ints) of v / den, with den > 0 and no common factor."""
    g = gcd(den, *v) if den > 0 else -gcd(den, *v)
    return den // g, [x // g for x in v]


def _layer_sweep(band: List[Tuple[int, List[int]]], w0: List[int], branch: str):
    """The solver of A u - mu w0 = rest, u_m = 0 for the diagonals band of
    the branch's int A and an int w0 spanning ker A: a function of int rest
    giving ints (u, mu, den), the solution over den; None when w0 is in the
    image of A.  A's off-diagonal A[r][r+o] (o = 1 on L, -1 on R) has no
    zero, so from u_s = 0 at its start s each row r gives u_{r+o}, held as
    S_{r+o} u_{r+o} with S the running pivot product so that no step divides;
    the last row e = m - s leaves S_e times its residual.  The sweep is linear
    in g = rest + mu w0: the response to w0, taken once, fixes mu, and a
    multiple of w0 sets u_m = 0 (0 already on R)."""
    m = len(w0) - 1
    o, s = (1, 0) if branch == "L" else (-1, m)
    diag, up, down = (dict(band).get(j, [0] * (m + 1)) for j in (0, o, -o))  # A[r][r + j]
    e, S, back = m - s, [1] * (m + 1), [0] * (m + 1)   # back[j] = A[j][j-o] A[j-o][j]
    for r in range(s, e, o):
        S[r + o], back[r + o] = S[r] * up[r], down[r + o] * up[r]

    def sweep(g):
        U = [0] * (m + 2)   # U[m + 1] = U[s - o] is 0, then S_e times the residual
        for r in range(s, e + o, o):
            U[r + o] = g[r] * S[r] - diag[r] * U[r] - back[r] * U[r - o]
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
    """_certify on the layers of gv times the lcm of their denominators."""
    den = lcm(*(x.denominator for layer in gv.layers for x in layer))
    _certify(model._diagonals(), [[x.numerator * (den // x.denominator) for x in layer]
                                  for layer in gv.layers], gv.preimage_scale)


def _certify(diags, w: List[List[int]], nu: Fraction) -> None:
    """Check w0 != 0, Delta^d w = nu T^d w0 and Delta^{d+1} w = 0 exactly on
    the int layers w of an int multiple of the chain (both are homogeneous in
    w), Delta from WModel._diagonals().  One pass gives v = Delta w, which
    must be p(T) w with p(0) = 0: v_0 = 0, and for t = 1..d v_t -
    sum_{s<t} mu_s w_{t-s} = mu_t w0, mu_t read at w0's first nonzero entry;
    and nu = mu_1^d.  As Delta commutes with T, Delta^j w = p(T)^j w, and mod
    T^{d+1} p(T)^d = mu_1^d T^d and p(T)^{d+1} = 0.  Where the solver runs,
    ker A = span(w0) and w0 is not in the image of A, so every w with both
    identities has such a p; else d + 1 passes name the one that fails."""
    w0, d, n, flat = w[0], len(w) - 1, len(w[0]), [x for u in w for x in u]
    if not any(w0):
        raise AssertionError("iterative solution has w0 = 0")
    v = _delta_layers(diags, flat)
    r = next(i for i, x in enumerate(w0) if x)
    D, mus = 1, []   # mu_s = mus[s - 1] / D
    for t in range(1, d + 1):
        rest = [D * y for y in v[t * n:(t + 1) * n]]
        for mu, u in zip(mus, w[t - 1:0:-1]):
            rest = [a - mu * z for a, z in zip(rest, u)]
        if any(a * w0[r] != b * rest[r] for a, b in zip(rest, w0)):
            break
        q = w0[r] // gcd(rest[r], w0[r])
        D, mus = D * q, [mu * q for mu in mus] + [rest[r] * q // w0[r]]
    else:
        if not any(v[:n]) and nu == (Fraction(mus[0], D) ** d if mus else 1):
            return
    flat = _delta_layers(diags, flat, d)
    if flat != [0] * (d * n) + [nu * x for x in w0]:
        raise AssertionError("iterative solution fails Delta^d w = nu T^d w0")
    if any(_delta_layers(diags, flat)):
        raise AssertionError("iterative solution fails Delta^{d+1} w = 0")


def brute_force_wd(k: int, m: int, branch: str, d: int) -> GradedVector:
    """Independent oracle: the x in ker Delta^{d+1} = D D^d on W_d with layer
    0 = w_0 and v_m = 0 above it, by one exact solve of D D^d on its unpinned
    columns against -(its layer-0 columns) w_0, free columns set to zero.
    Each pin row's one nonzero is at its pinned column, so the system with
    the pins appended as rows has the same free columns and gives the same x.
    D^d x must then be nu T^d w_0 for a scalar nu."""
    model = WModel(k, m, branch)
    if exact_int("d", d) < 0:
        raise DomainError("m and d must be nonnegative")
    den0, w0 = _kernel_vector(model, model._diagonals()[0])
    n, D = m + 1, model._int_block_delta(d)
    Dd = D.power(d)
    col = {t * n + i: (t - 1) * m + i for t in range(1, d + 1) for i in range(m)}
    K = (D @ Dd).rows
    y = IntMat([[(col[j], a) for j, a in row if j in col] for row in K], 1, d * m).solve(
        [Fraction(-sum(a * w0[j] for j, a in row if j < n), den0) for row in K])
    if y is None:
        raise DomainError("oracle: no pinned kernel element (k=%d, m=%d, %s, d=%d)"
                          % (k, m, branch, d))
    x = [Fraction(a, den0) for a in w0] + [0] * (d * n)
    for j, q in zip(col, y):
        x[j] = q
    den = lcm(*(q.denominator for q in x))
    X = [q.numerator * (den // q.denominator) for q in x]
    img = [sum(a * X[j] for j, a in row) for row in Dd.rows]   # den D^d x, as Dd.den = 1
    top, p = img[d * n:], next(i for i, a in enumerate(w0) if a)
    if any(img[:d * n]) or any(a * w0[p] != top[p] * b for a, b in zip(top, w0)):
        raise AssertionError("oracle element is not a clean preimage chain")
    return GradedVector(k, m, branch, d, [x[t * n:(t + 1) * n] for t in range(d + 1)],
                        Fraction(top[p] * den0, den * w0[p]))


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
        """The local Laplace eigenvalue a0 + a1 u - u^2 at s = point + u must be
        (1 - weight) u in the oriented variable.  Delta = -R L, and the L step
        and the R step back (_step_rule) have prefactors (x_i + u_i u)/d_i with
        u1 u2 = d1 d2: so x1 x2 = 0 and orientation (x1 u2 + u1 x2) = (weight -
        1) d1 d2.  A constant family (eigenvalue 0) never is."""
        fam, w, P, Q = self.family, self.weight, self.point.numerator, self.point.denominator
        if fam.kind != CONSTANT:
            w2, P2, _s, d1, u1, x1 = _step_rule(fam, w, P, Q, "L")
            d2, u2, x2 = _step_rule(fam, w2, P2, Q, "R")[3:]
            if not x1 * x2 and self.orientation * (x1 * u2 + u1 * x2) == (w - 1) * d1 * d2:
                return
        raise DomainError("family at point %s is not in the standard eigenvalue "
                          "normalization for weight %d" % (self.point, self.weight))


def eisenstein_family(weight: int, point, orientation: int = 1) -> SpectralFamily:
    return SpectralFamily(Family(EISENSTEIN), weight, point, orientation)


def poincare_family(weight: int, index: int, point, orientation: int = 1) -> SpectralFamily:
    return SpectralFamily(Family(POINCARE, index=index), weight, point, orientation)


def emit_form(gv: GradedVector, fam: SpectralFamily) -> Form:
    """Realize a graded vector as a form with pending operator powers.

    Term (layer t, coordinate r) contributes
        layers[t][r] / (d-t)! * e_{r,m-r} (x) OP^{m-r or r} Phi^{(d-t)},
    with the orientation sign folded into coefficients of odd derivative
    orders and no factor of nu.  Pending atoms that expand to zero are dropped.
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
            if pending is not None and atoms.drops(atom):
                continue
            q = coeff / factorial(order) * (fam.orientation ** order)
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
    if exact_int("d", d) < 0:
        raise DomainError("depth must be nonnegative")
    exact_int("disc", disc)
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


def _poincare_blocks(m: int) -> List[List[Tuple[int, List[int]]]]:
    """A, B and C of Lambda = A + S B + S^2 C, Delta on the span of the
    Poincare chain of weight k = 2 - m, as WModel._diagonals() gives them:
    M[r][c] is the coefficient of atom r in Delta of atom c.  Atom (r, t) is
    (4 pi |n|)^{r-m} e_{m,r} (x) F^(t)/t!, F the family of weight
    2 - 2(m - r) at s = 1, and S lowers t; so the blocks are the chain's Delta
    bands (symcalc._chain_bands) at n = -1, over their den 8, scaled by 4^o at
    offset o."""
    bands, _chain = _chain_bands((m, Family(POINCARE, index=-1), 2 - 2 * m, 1, 1), "D")
    return [[(o, [x * 4 ** (o + 1) // 32 for x in c]) for o, c in band] for band in bands]


def _power_rows(blocks, d: int) -> List[List[int]]:
    """The E rows of [P_0 | P_1 | ... | P_d], P_j the S^j block of Lambda^d,
    Lambda = A + S B + S^2 C for the diagonals of the E x E int blocks
    (_poincare_blocks), P_j[i][k] at j E + k.

    Each row is held as one int with a w-bit slot per entry (Kronecker
    substitution): sums of rows times ints act slot by slot, and S^s is a
    shift by s E slots, while no slot reaches 2^(w-1) in size; none does,
    as an entry of Lambda^a is at most N^a, N the largest row sum of
    |A| + |B| + |C|.  So each row of Lambda^(a+1) = Lambda Lambda^a is one
    int sum, cut back to its (d + 1) E slots.  The rows are read out once,
    2^(w-1) added to each slot so that it reads as an unsigned field."""
    E = max(len(c) for band in blocks for _o, c in band)
    terms = [[(c[i], s, i + o) for s, band in enumerate(blocks) for o, c in band if c[i]]
             for i in range(E)]
    N = max(sum(abs(x) for x, _s, _r in t) for t in terms)
    w = 8 * ((d * max(N, 1).bit_length() + 9) // 8)   # whole bytes, two spare bits
    slots = (d + 1) * E
    top, half = 1 << (w * slots), 1 << (w * slots - 1)
    rows = [1 << (w * i) for i in range(E)]   # the identity block, j = 0
    for _ in range(d):
        moved = [rows] + [[v << (s * w * E) for v in rows] for s in (1, 2)]
        rows = [(sum(x * moved[s][r] for x, s, r in t) + half) % top - half for t in terms]
    bias, size = sum(1 << (w * k + w - 1) for k in range(slots)), w // 8
    out = []
    for v in rows:
        raw = (v + bias).to_bytes(size * slots, "little")
        out.append([int.from_bytes(raw[k:k + size], "little") - (1 << (w - 1))
                    for k in range(0, size * slots, size)])
    return out


def _layered_preimage(blocks, d: int, b0: List[int], pos: List[int]) -> Tuple[int, List[int]]:
    """The solution x of K x = b, K = Lambda^d on layers t <= d and b = b0
    in layer 0, whose entries at the free columns of K in pool order are
    zero (atom i is at layer-major position pos[i]), as (den, ints) with
    x = ints / den.

    With P_j the blocks of Lambda^d (_power_rows), (K x)_0 = P_0 x_0 + r(S x)
    for r(g) = sum_{j>=1} P_j g_{j-1}, S moving layer t + 1 to t.  S commutes
    with K, so x is in ker K exactly when S x is, below layer d, and
    P_0 x_0 = -r(S x): ker K is ker P_0 in layer 0 and one lift (w, g) of
    each g in ker K below layer d whose r(g) meets the left kernel
    conditions of P_0 (at most its corank), its own less those of the
    kernel vectors before it that did not lift.  Likewise x = (w, g) solves
    K x = b when P_0 w = b0 - r(g).  Each solution of P_0 is an int vector
    over one D0; it and ker P_0 are read off one elimination of [P_0 | I].
    The kernel basis reduced with columns from the last pool entry to the
    first has the free columns as its pivots, which turns x into the
    answer.  With the layers reversed, S is T and Lambda is Delta on W_d,
    so d passes of _delta_layers certify it."""
    rows = _power_rows(blocks, d)
    E, n = len(rows), (d + 1) * len(rows)
    tail = [row[E:] for row in rows]   # r(g) = tail g
    elim, pivots = _eliminate({k: x for k, x in enumerate(row[:E] + [0] * i + [1]) if x}
                              for i, row in enumerate(rows))   # [P_0 | I]
    D0 = lcm(*(row[pc] for row, pc in zip(elim, pivots) if pc < E))
    solver = [(pc, [(j - E, x * (D0 // row[pc])) for j, x in row.items() if j >= E])
              for row, pc in zip(elim, pivots) if pc < E]
    left = [[(j - E, x) for j, x in row.items()] for row, pc in zip(elim, pivots) if pc >= E]

    def solve(v):   # D0 times a solution of P_0 w = v, for v that meets the conditions
        w = [0] * E
        for pc, row in solver:
            w[pc] = sum(x * v[j] for j, x in row)
        return w

    def reduce(g, r, s=1):
        """(g, r) less multiples of the stored ones, so that the conditions
        of r vanish at their pivots; the factor s it was scaled by, and the
        conditions."""
        c = [sum(x * r[j] for j, x in row) for row in left]
        for k, (gk, rk, ck) in stored:
            if c[k]:
                q = gcd(ck[k], c[k])
                p, f = ck[k] // q, c[k] // q
                g = [p * a - f * z for a, z in zip(g, gk)]
                r = [p * a - f * z for a, z in zip(r, rk)]
                c = [p * a - f * z for a, z in zip(c, ck)]
                s *= p
        return g, r, c, s

    basis = [[v.get(i, 0) for i in range(E)] + [0] * (n - E) for _k, v in _kernel(elim, pivots, E)]
    stored = []   # (pivot, (g, r(g), conditions)) of the kernel vectors that do not lift
    for y in basis:   # which grows by the lifts as it is walked
        if not any(y[n - E:]):   # room above layer d to lift y into
            g = y[:n - E]
            g, r, c, _s = reduce(g, [sum(map(mul, row, g)) for row in tail])
            if any(c):
                stored.append((next(k for k, x in enumerate(c) if x), (g, r, c)))
            else:
                basis.append(solve([-x for x in r]) + [D0 * x for x in g])
    g, r, c, s = reduce([0] * (n - E), b0)   # r = s b0 - r(-g)
    if any(c):
        raise AssertionError("span holds no Delta^%d preimage of the chain's top" % d)
    X = solve(r) + [-D0 * x for x in g]
    # X / (D0 s) solves K x = b0; less X[f] times the reduced basis vector
    # of each pivot f it is the answer
    col = [0] * n
    for i, p in enumerate(pos):
        col[p] = n - 1 - i
    at = sorted(range(n), key=col.__getitem__)
    reduced, free = _eliminate({col[p]: x for p, x in enumerate(y) if x} for y in basis)
    L = lcm(*(row[pc] for row, pc in zip(reduced, free)))
    x = [L * v for v in X]
    for row, pc in zip(reduced, free):
        f = X[at[pc]] * (L // row[pc])
        for j, v in row.items():
            x[at[j]] -= f * v
    den, y = D0 * s * L, [v for t in range(n - E, -1, -E) for v in x[t:t + E]]   # layer d first
    if _delta_layers(blocks, y, d) != [0] * (d * E) + [den * v for v in b0]:
        raise AssertionError("span preimage fails Delta^d x = target")
    return den, x


def _poincare_case(label: str, k: int, d: int, index: int) -> Form:
    """Ib, the depth-d chain over the weakly holomorphic seed e_{m,0} (x)
    P^(0) of weight 2 at s = 1, m = 2 - k; its flip Ic = mirror(R^{-k} Ib) /
    (-k)!, and the raisings IIIc = R^{k-1} Ic and IIId = R^{k-1} Ib of
    weight 2 - k, depth d + 1 or d.  The Ib span holds the top atom, then
    (r, t) = e_{m,r} (x) F^(t), r <= m, t <= d, r-major (grid), at pi^{r-m},
    layer-major at pos = t (m + 1) + r.  Where Delta there is Lambda
    (_poincare_blocks) all four are read off its integer layers: on (m, P[n],
    2 - 2m, 1, 1), pi class -m, layer d - t holds x[pos] N^r over den N^m,
    N = 4 |n|.  R is a band pass (den Q = 1, class + 1); the mirror takes
    column r of (m, P[n], -2, 1, 1) to m - r of (m, P[-n], 2 - 2m, 1, 1),
    class -m, times (-1)^(m+1) (m-r)!/r! N^-w, w = 2r - 2.  When a column that
    the chain (w = -2m, ..., 2), an R pass or the mirror visits is not plain,
    Ib solves M^d x = top on the span's matrix M, free columns zero, and the
    others are composed of Forms (apply_flip, apply_power), warnings included."""
    if index >= 0:
        raise DomainError("Poincare index must be negative (principal part)")
    k0, d0 = (k, d) if label in ("Ib", "Ic") else (2 - k, d + (label == "IIIc"))
    m, flip, fam = 2 - k0, label in ("Ic", "IIIc"), Family(POINCARE, index=index)
    p = m - 2 if flip else k - 1 if label == "IIId" else 0   # R passes before the mirror
    q = k - 1 if label == "IIIc" else 0                       # and after it
    grid = [(m, 0)] + [(r, t) for r in range(m + 1) for t in range(d0 + 1) if (r, t) != (m, 0)]
    columns, mirrored = _Columns(), Family(POINCARE, index=-index)
    spans = [(fam, -2 * m, 2 + 2 * p)] + [(mirrored, 2 - 2 * m, 2 + 2 * q)] * flip
    if not all(columns[f, w, 1, 1][1] for f, lo, hi in spans for w in range(lo, hi + 1, 2)):
        if label == "Ib":
            pool, M, exps = delta_matrix_on_span(
                [(PolyAtom(m, r), SpectralAtom(fam, 2 + 2 * r - 2 * m, 1, t)) for r, t in grid])
            x = M.power(d).solve([1] + [0] * (len(pool) - 1))   # the top: pool[0], at pi^0
            if x is None:
                raise DomainError("no Delta^%d preimage in the span" % d)
            return Form(k, {pool[i]: Scalar.pi_power(exps[i], q) for i, q in enumerate(x) if q})
        if label == "Ic":
            return apply_flip(_poincare_case("Ib", k, d, index))
        return apply_power(_poincare_case("Ic" if flip else "Ib", k0, d0, index), "R", k - 1)
    den, x = _layered_preimage(_poincare_blocks(m), d0, [0] * m + [1],
                               [t * (m + 1) + r for r, t in grid])
    N, I = 4 * abs(index), range(m + 1)
    chain, cls, den = (m, fam, 2 - 2 * m, 1, 1), -m, den * N ** m
    layers = [x[t * (m + 1) + r] * N ** r for t in range(d0, -1, -1) for r in I]
    for passes, mirror in ((p, flip), (q, False)):
        for _ in range(passes):
            diags, chain = _chain_bands(chain, "R")
            layers, cls = _delta_layers(diags, layers), cls + 1
        if mirror:
            f = [(-1) ** (m + 1) * factorial(r) * perm(m, r) * N ** (2 * r) for r in I]
            layers = [layers[j + m - r] * f[r] for j in range(0, len(layers), m + 1) for r in I]
            chain, cls = (m, mirrored, 2 - 2 * m, 1, 1), -m
            den *= factorial(m) * N ** (2 * m - 2) * factorial(m - 2)
    return _chain_form({(chain, cls): layers}, den, k, grid)


# ---------------------------------------------------------------------------
# the ten case constructions


def construct_case(label: str, k: int, d: int, index: int = -1, disc: int = 3,
                   family: Optional[str] = None) -> Form:
    """Modular realization of a classification case in weight k, depth d.

    index: Poincare index (cases Ib/Ic/IIa and their raisings);
    disc: positive D with -D a fundamental discriminant (case IIb);
    family: optional override 'eisenstein' or 'poincare' for the cases
    that both anchor (Ia, Id, IIIa); DomainError otherwise.
    """
    if label not in BK_CASES:
        raise DomainError("unknown case label %r" % (label,))
    if family not in (None, "eisenstein", "poincare"):
        raise DomainError("unknown family %r" % (family,))
    if family is not None and label not in ("Ia", "Id", "IIIa"):
        raise DomainError("case %s has one anchor and takes no family" % label)
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
        anchor = (poincare_family(0, index, Fraction(0)) if family == "poincare"
                  else eisenstein_family(0, Fraction(0)))
        return emit_form(solve_wd(0, -k, "L", d), anchor)
    if label in ("Ib", "Ic", "IIIc"):
        return _poincare_case(label, k, d, index)
    if label == "Id":
        anchor = (poincare_family(k - 2, index, 1 - Fraction(k - 2, 2), orientation=-1)
                  if family == "poincare" else
                  eisenstein_family(k - 2, Fraction(3 - k), orientation=-1))
        return emit_form(solve_wd(k - 2, 2, "R", d), anchor)
    if label == "IIa":
        anchor = poincare_family(1, index, Fraction(1, 2), orientation=-1)
        return preimage_constant_weight(1, d, anchor)
    if label == "IIb":
        return preimage_incoherent(disc, d)
    if label == "IIIa":
        return apply_power(construct_case("Id", 2 - k, d, index=index, family=family),
                           "R", k - 1)
    if label == "IIIb":
        return emit_form(solve_wd(2, k - 2, "R", d), eisenstein_family(2, Fraction(0)))
    # IIId
    if d < 1:
        raise DomainError("case IIId requires depth d >= 1")
    return _poincare_case("IIId", k, d, index)
