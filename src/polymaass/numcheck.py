"""Floating-point validation of the analytic operator identities.

Eisenstein series are evaluated by truncated coset sums inside their
region of convergence, differential operators by Richardson-extrapolated
central finite differences, and the identities are reported as per-point
relative residuals.  No analytic continuation is attempted: spectral
derivatives at s = 0 are validated symbolically, not here.

The Eisenstein identities (Delta-eigen, L, R, mirror) hold coset term by
coset term: each term y^s |_k gamma satisfies them on its own.  A truncated
sum therefore satisfies them exactly, at every trunc, and their residual
measures finite-difference (and rounding) error only, not truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, isfinite
from typing import Dict, List

import numpy as np

from .scalars import DomainError, exact_int


@dataclass(frozen=True)
class EvalConfig:
    trunc: int = 400          # max |c|, |d| in the coset sum
    tol: float = 1e-5

    def __post_init__(self):
        if exact_int("trunc", self.trunc) < 1:
            raise DomainError("invalid evaluation configuration")
        if not isfinite(self.tol) or self.tol <= 0:
            raise DomainError("tolerance must be a positive finite number")

    @cached_property
    def cosets(self):
        """The (c, d) arrays of `_coset_pairs(trunc)`, built on first use
        and read-only, since every evaluation under this config shares them."""
        c, d = _coset_pairs(self.trunc)
        c.flags.writeable = False
        d.flags.writeable = False
        return c, d


DEFAULT_CONFIG = EvalConfig()


def _check_region(k: int, s: complex):
    if s.real <= 1 - k / 2:
        raise DomainError("s = %s violates the convergence constraint Re(s) > 1 - k/2 "
                          "for weight %d" % (s, k))


def _coset_pairs(n: int):
    """Deterministic coprime (c, d) representatives: (0,1), then c = 1..N
    with d ordered by |d| (positive before negative)."""
    cs = [0]
    ds = [1]
    d_order = [0]
    for a in range(1, n + 1):
        d_order.extend([a, -a])
    d_arr = np.array(d_order, dtype=np.int64)
    for c in range(1, n + 1):
        mask = np.gcd(np.int64(c), np.abs(d_arr)) == 1
        sel = d_arr[mask]
        cs.append(np.full(len(sel), c, dtype=np.int64))
        ds.append(sel)
    c_all = np.concatenate([np.atleast_1d(np.int64(x)) for x in cs])
    d_all = np.concatenate([np.atleast_1d(np.int64(x)) for x in ds])
    return c_all, d_all


def eval_eisenstein(k: int, s: complex, tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Truncated E_k(tau, s) = sum over Gamma_infty \\ SL2(Z) of y^s |_k gamma."""
    _check_region(k, s)
    if tau.imag <= 0:
        raise DomainError("tau must lie in the upper half plane")
    c, d = cfg.cosets
    w = c * tau + d
    y = tau.imag
    terms = w ** (-k) * np.power(y / np.abs(w) ** 2, s)
    return complex(np.add.reduce(terms))


# ---------------------------------------------------------------------------
# finite differences

FD_STEP = 0.02   # the coarse Richardson level; the fine level is FD_STEP / 2


def _dx(fn, tau, h):
    return (fn(tau + h) - fn(tau - h)) / (2 * h)


def _dy(fn, tau, h):
    return (fn(tau + 1j * h) - fn(tau - 1j * h)) / (2 * h)


def _dxx(fn, tau, h):
    return (fn(tau + h) - 2 * fn(tau) + fn(tau - h)) / h ** 2


def _dyy(fn, tau, h):
    return (fn(tau + 1j * h) - 2 * fn(tau) + fn(tau - 1j * h)) / h ** 2


def fd_operator(op: str, k: int, fn, tau: complex) -> complex:
    """L_k, R_k, or Delta_k by Richardson-extrapolated central differences
    in x and y.

    The stencils share points (tau itself, and tau +- h, tau +- ih at both
    Richardson levels), so fn is evaluated once per distinct point.
    """
    values: Dict[complex, complex] = {}

    def at(t):
        if t not in values:
            values[t] = fn(t)
        return values[t]

    def deriv(d):
        return (4 * d(at, tau, FD_STEP / 2) - d(at, tau, FD_STEP)) / 3

    y = tau.imag
    if op == "L":
        # -2i y^2 d/dtaubar = -i y^2 (d_x + i d_y)
        return -1j * y ** 2 * (deriv(_dx) + 1j * deriv(_dy))
    if op == "R":
        # 2i d/dtau + k/y = i (d_x - i d_y) + k/y
        return 1j * (deriv(_dx) - 1j * deriv(_dy)) + k / y * at(tau)
    if op == "Delta":
        return (-y ** 2 * (deriv(_dxx) + deriv(_dyy))
                + 1j * k * y * (deriv(_dx) + 1j * deriv(_dy)))
    raise DomainError("unknown operator %r" % (op,))


# ---------------------------------------------------------------------------
# polynomial-basis vectors, with closed-form derivatives


def e_basis_value(m: int, r: int, tau: complex, x: complex) -> complex:
    y = tau.imag
    return ((-1) ** (m - r) / factorial(r)) * y ** (r - m) * (x - tau) ** r \
        * (x - np.conj(tau)) ** (m - r)


def _e_basis_dtau(m: int, r: int, tau: complex, x: complex, bar: bool) -> complex:
    """Analytic d/dtau (bar=False) or d/dtaubar (bar=True) of e_{r,m-r}."""
    y = tau.imag
    taub = np.conj(tau)
    c = (-1) ** (m - r) / factorial(r)
    base = (x - tau) ** r * (x - taub) ** (m - r)
    dy = 1 / (2j) if not bar else -1 / (2j)   # y = (tau - taubar)/(2i)
    out = c * (r - m) * y ** (r - m - 1) * dy * base
    if not bar:
        if r:
            out += c * y ** (r - m) * (-r) * (x - tau) ** (r - 1) * (x - taub) ** (m - r)
    else:
        if m - r:
            out += c * y ** (r - m) * (x - tau) ** r * (-(m - r)) * (x - taub) ** (m - r - 1)
    return out


def e_basis_lowering(m: int, r: int, tau: complex, x: complex) -> complex:
    y = tau.imag
    return -2j * y ** 2 * _e_basis_dtau(m, r, tau, x, bar=True)


def e_basis_raising(m: int, r: int, tau: complex, x: complex) -> complex:
    k = m - 2 * r
    y = tau.imag
    return 2j * _e_basis_dtau(m, r, tau, x, bar=False) + k / y * e_basis_value(m, r, tau, x)


# ---------------------------------------------------------------------------
# identity reports


def _residual(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return abs(lhs - rhs) / scale


def verify_identity(name: str, points: List[Dict], cfg: EvalConfig = DEFAULT_CONFIG) -> List[Dict]:
    """Per-point relative residuals for a named identity.

    Names: laplace_eigen, lowering, raising, mirror (Eisenstein series),
    ebasis (polynomial identities for the e-vectors).
    """
    report = []
    for pt in points:
        if name == "ebasis":
            m, r, tau, x = pt["m"], pt["r"], pt["tau"], pt["X"]
            res = 0.0
            lhs = e_basis_lowering(m, r, tau, x)
            rhs = (r + 1) * (m - r) * (e_basis_value(m, r + 1, tau, x) if r + 1 <= m else 0.0)
            res = max(res, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
            lhs = e_basis_raising(m, r, tau, x)
            rhs = e_basis_value(m, r - 1, tau, x) if r >= 1 else 0.0
            res = max(res, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
            # conjugation: y^{m-2r} conj(e_{r,m-r}) = (-1)^m (m-r)!/r! e_{m-r,r}
            y = tau.imag
            lhs = y ** (m - 2 * r) * np.conj(e_basis_value(m, r, tau, x))
            rhs = (-1) ** m * factorial(m - r) / factorial(r) * e_basis_value(m, m - r, tau, np.conj(x))
            res = max(res, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
            report.append({"identity": name, "point": repr(pt), "residual": res,
                           "tolerance": 1e-12, "pass": res < 1e-12})
            continue
        k, s, tau = pt["k"], pt["s"], pt["tau"]
        if name == "laplace_eigen":
            fn = lru_cache(maxsize=None)(lambda t: eval_eisenstein(k, s, t, cfg))
            lhs = fd_operator("Delta", k, fn, tau)
            rhs = s * (1 - k - s) * fn(tau)   # the stencil has evaluated tau
        elif name == "lowering":
            fn = lambda t: eval_eisenstein(k, s, t, cfg)
            lhs = fd_operator("L", k, fn, tau)
            rhs = s * eval_eisenstein(k - 2, s + 1, tau, cfg)
        elif name == "raising":
            fn = lambda t: eval_eisenstein(k, s, t, cfg)
            lhs = fd_operator("R", k, fn, tau)
            rhs = (s + k) * eval_eisenstein(k + 2, s - 1, tau, cfg)
        elif name == "mirror":
            if abs(complex(s).imag) > 0:
                raise DomainError("mirror check needs a real spectral point")
            y = tau.imag
            lhs = y ** k * np.conj(eval_eisenstein(k, s, tau, cfg))
            rhs = eval_eisenstein(-k, s + k, tau, cfg)
        else:
            raise DomainError("unknown identity %r" % (name,))
        res = _residual(lhs, rhs)
        report.append({"identity": name,
                       "point": {"k": k, "s": repr(s), "tau": repr(tau)},
                       "residual": res, "tolerance": cfg.tol, "pass": res < cfg.tol})
    return report


# generic base points; tau = i is avoided since the S-fixed point kills
# every weight = 2 mod 4 Eisenstein value
_T1 = 0.13 + 0.82j
_T2 = -0.37 + 0.91j
_T3 = 0.21 + 1.13j

DEFAULT_POINTS = {
    "laplace_eigen": [
        {"k": 0, "s": 2.5, "tau": _T1},
        {"k": 0, "s": 3.0, "tau": _T2},
        {"k": 2, "s": 1.5, "tau": _T3},
        {"k": 2, "s": 2.0, "tau": _T2},
        {"k": 4, "s": 1.0, "tau": _T1},
        {"k": 4, "s": 1.5, "tau": _T3},
    ],
    "lowering": [
        {"k": 0, "s": 2.5, "tau": _T1},
        {"k": 2, "s": 2.0, "tau": _T2},
        {"k": 4, "s": 1.5, "tau": _T3},
    ],
    "raising": [
        {"k": 0, "s": 2.5, "tau": _T2},
        {"k": 2, "s": 2.0, "tau": _T1},
        {"k": 4, "s": 1.5, "tau": _T3},
    ],
    "mirror": [
        {"k": 0, "s": 2.5, "tau": _T1},
        {"k": 2, "s": 2.0, "tau": _T3},
        {"k": 4, "s": 1.5, "tau": _T2},
    ],
    "ebasis": [
        {"m": 3, "r": 1, "tau": 1 / 3 + 1j, "X": 2.0},
        {"m": 3, "r": 0, "tau": 0.2 + 0.7j, "X": -1.5},
        {"m": 4, "r": 2, "tau": -0.4 + 1.3j, "X": 0.5 + 0.25j},
        {"m": 2, "r": 2, "tau": 1j, "X": 1.0},
        {"m": 5, "r": 3, "tau": 0.1 + 0.9j, "X": -0.75},
    ],
}


def run_suite(cfg: EvalConfig = DEFAULT_CONFIG, names=None) -> List[Dict]:
    report = []
    for name in (names or DEFAULT_POINTS):
        report.extend(verify_identity(name, DEFAULT_POINTS[name], cfg))
    return report
