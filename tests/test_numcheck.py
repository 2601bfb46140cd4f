import dataclasses
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from polymaass.numcheck import (DEFAULT_POINTS, FD_STEP, EvalConfig, _dxx, _dyy,
                                e_basis_value, eval_eisenstein, fd_operator,
                                run_suite, verify_identity)
from polymaass.symcalc import DomainError

FAST = EvalConfig(trunc=120, tol=2e-5)
EISENSTEIN = ("laplace_eigen", "lowering", "raising", "mirror")


def reference_coset_pairs(n):
    """The coset loop as it stood before EvalConfig cached its result."""
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


def reference_eisenstein(k, s, tau, trunc):
    """Coset sum that rebuilds its representatives on every call."""
    c, d = reference_coset_pairs(trunc)
    w = c * tau + d
    terms = w ** (-k) * np.power(tau.imag / np.abs(w) ** 2, s)
    return complex(np.add.reduce(terms))


def lattice_sum(k, tau, n):
    """Absolutely convergent sum over nonzero (m, n) of (m tau + n)^-k,
    an independent oracle for holomorphic Eisenstein values (k >= 4 even)."""
    if k < 3:
        raise DomainError("lattice sum needs k >= 3 for absolute convergence")
    total = 0j
    for m in range(-n, n + 1):
        for nn in range(-n, n + 1):
            if m == 0 and nn == 0:
                continue
            total += (m * tau + nn) ** (-k)
    return total


def reference_fd_operator(op, k, fn, tau):
    """Finite differences that call fn at every stencil entry, shared or not."""
    h = FD_STEP

    def deriv(d):
        return (4 * d(fn, tau, h / 2) - d(fn, tau, h)) / 3

    dx = lambda f, t, h: (f(t + h) - f(t - h)) / (2 * h)
    dy = lambda f, t, h: (f(t + 1j * h) - f(t - 1j * h)) / (2 * h)
    dxx = lambda f, t, h: (f(t + h) - 2 * f(t) + f(t - h)) / h ** 2
    dyy = lambda f, t, h: (f(t + 1j * h) - 2 * f(t) + f(t - 1j * h)) / h ** 2
    y = tau.imag
    if op == "L":
        return -1j * y ** 2 * (deriv(dx) + 1j * deriv(dy))
    if op == "R":
        return 1j * (deriv(dx) - 1j * deriv(dy)) + k / y * fn(tau)
    return (-y ** 2 * (deriv(dxx) + deriv(dyy))
            + 1j * k * y * (deriv(dx) + 1j * deriv(dy)))


def reference_residual(name, pt, cfg):
    k, s, tau = pt["k"], pt["s"], pt["tau"]
    ev = lambda k, s, t: reference_eisenstein(k, s, t, cfg.trunc)
    fn = lambda t: ev(k, s, t)
    if name == "laplace_eigen":
        lhs = reference_fd_operator("Delta", k, fn, tau)
        rhs = s * (1 - k - s) * ev(k, s, tau)
    elif name == "lowering":
        lhs = reference_fd_operator("L", k, fn, tau)
        rhs = s * ev(k - 2, s + 1, tau)
    elif name == "raising":
        lhs = reference_fd_operator("R", k, fn, tau)
        rhs = (s + k) * ev(k + 2, s - 1, tau)
    else:
        lhs = tau.imag ** k * np.conj(ev(k, s, tau))
        rhs = ev(-k, s + k, tau)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def test_region_guard():
    with pytest.raises(DomainError):
        eval_eisenstein(0, 0.5, 1j)


@pytest.mark.parametrize("k, s", [(2.5, 0), (np.int64(4), 1.0), (4, True), (4, np.True_),
                                  (0, "3")])
def test_weight_must_be_an_int_and_s_a_number(k, s):
    with pytest.raises(DomainError):
        eval_eisenstein(k, s, 0.1 + 1j, FAST)


@pytest.mark.parametrize("tau", ["1j", True, np.True_, None, [1j]], ids=repr)
def test_tau_must_be_a_number(tau):
    with pytest.raises(DomainError, match="^tau must be a number, not "):
        eval_eisenstein(0, 2.5, tau, FAST)


# every type a spectral point may have, with weights on both sides of 0
SPECTRAL_POINTS = [(0, 3), (-4, 4), (2, 2.0), (4, 1.5 + 0.25j), (-2, np.float64(2.75)),
                   (2, np.complex128(2 - 0.5j)), (-2, Fraction(5, 2)), (0, Fraction(3))]


@pytest.mark.parametrize("k, s", SPECTRAL_POINTS)
def test_spectral_point_types_match_reference_bit_for_bit(k, s):
    tau = 0.13 + 0.82j
    assert eval_eisenstein(k, s, tau, FAST) == reference_eisenstein(k, s, tau, FAST.trunc)
    pt = {"k": k, "s": s, "tau": tau}
    names = EISENSTEIN if complex(s).imag == 0 else EISENSTEIN[:3]
    for name in names:
        (row,) = verify_identity(name, [pt], FAST)
        assert row["residual"] == reference_residual(name, pt, FAST)


def test_identity_coset_term():
    # representatives at N = 1: (0,1) gives y^s, plus (1,0), (1,1), (1,-1)
    v = eval_eisenstein(0, 3.0, 2j, EvalConfig(trunc=1))
    want = 2.0 ** 3 + (2 / 4) ** 3 + 2 * (2 / 5) ** 3
    assert abs(v - want) < 1e-12


def test_self_convergence():
    v1 = eval_eisenstein(0, 2.0, 0.1 + 0.8j, EvalConfig(trunc=60))
    v2 = eval_eisenstein(0, 2.0, 0.1 + 0.8j, EvalConfig(trunc=120))
    v3 = eval_eisenstein(0, 2.0, 0.1 + 0.8j, EvalConfig(trunc=240))
    assert abs(v2 - v3) < abs(v1 - v2)
    assert abs(v2 - v3) < 2e-4


def test_lattice_sum_oracle():
    # coset sum at s = 0, weight 4 against the absolutely convergent
    # full-lattice sum divided by 2 zeta(4)
    tau = 0.13 + 0.82j
    zeta4 = np.pi ** 4 / 90
    coset = eval_eisenstein(4, 0.0, tau, EvalConfig(trunc=250))
    oracle = lattice_sum(4, tau, 250) / (2 * zeta4)
    assert abs(coset - oracle) / abs(oracle) < 1e-4


def test_fd_closed_form():
    # Delta_0 y^s = s(1-s) y^s
    s = 2.5
    fn = lambda t: t.imag ** s
    tau = 0.3 + 1.1j
    got = fd_operator("Delta", 0, fn, tau)
    want = s * (1 - s) * tau.imag ** s
    assert abs(got - want) / abs(want) < 1e-8
    # R_k y^s = (s + k) y^{s-1} * ... reduced scalar check at k = 0:
    # R_0 y^s = 2i * (s/(2i)) y^{s-1} = s y^{s-1}
    got = fd_operator("R", 0, fn, tau)
    assert abs(got - s * tau.imag ** (s - 1)) < 1e-8
    # L kills holomorphic polynomials
    got = fd_operator("L", 0, lambda t: t ** 3 - 2 * t, tau)
    assert abs(got) < 1e-9


def test_fd_convergence_order():
    s = 2.5
    fn = lambda t: t.imag ** s
    tau = 0.2 + 0.9j
    want = s * (1 - s) * tau.imag ** s
    errs = []
    for h in (0.08, 0.04):
        delta = -tau.imag ** 2 * (_dxx(fn, tau, h) + _dyy(fn, tau, h))
        errs.append(abs(delta - want))
    # plain central differences: error shrinks like h^2
    assert errs[1] < errs[0] / 3


def test_suite_fast():
    report = run_suite(FAST)
    assert len(report) >= 12 + len(DEFAULT_POINTS["ebasis"])
    assert all(r["pass"] for r in report)


def test_ebasis_identities_machine_precision():
    report = verify_identity("ebasis", DEFAULT_POINTS["ebasis"], FAST)
    assert all(r["residual"] < 1e-12 for r in report)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 97, 100, 250, 400])
def test_cached_cosets_match_reference_loop(n):
    c, d = EvalConfig(trunc=n).cosets
    c_ref, d_ref = reference_coset_pairs(n)
    assert c.dtype == c_ref.dtype and d.dtype == d_ref.dtype
    assert np.array_equal(c, c_ref) and np.array_equal(d, d_ref)


def test_cached_cosets_are_shared_and_read_only():
    cfg = EvalConfig(trunc=7)
    c, d = cfg.cosets
    assert cfg.cosets[0] is c and cfg.cosets[1] is d
    for arr in (c, d):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trunc = 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tol = 1e-3


@pytest.mark.parametrize("field, value", [
    ("tol", 0.0), ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf")),
    ("tol", True), ("tol", "1e-3"), ("tol", 1e-3 + 0j), ("trunc", 0),
])
def test_config_rejects_invalid_values(field, value):
    with pytest.raises(DomainError):
        EvalConfig(**{field: value})


@pytest.mark.parametrize("build, message", [
    (lambda: eval_eisenstein(0, 2, 0.2 - 1j), "tau must lie in the upper half plane"),
    (lambda: fd_operator("X", 0, lambda t: 0j, 0.1 + 1.2j), "unknown operator 'X'"),
    (lambda: verify_identity("mirror", [{"k": 0, "s": 2 + 1j, "tau": 0.1 + 1.2j}]),
     "mirror check needs a real spectral point"),
    (lambda: verify_identity("nope", [{"k": 0, "s": 2, "tau": 0.1 + 1.2j}]),
     "unknown identity 'nope'"),
])
def test_numeric_entry_points_refuse_bad_input(build, message):
    with pytest.raises(DomainError) as ex:
        build()
    assert str(ex.value) == message


@pytest.mark.parametrize("op, calls", [("Delta", 9), ("L", 8), ("R", 9)])
def test_fd_operator_evaluates_each_stencil_point_once(op, calls):
    seen = []

    def fn(t):
        seen.append(t)
        return t.imag ** 2.5 + t ** 2

    tau = 0.2 + 0.9j
    got = fd_operator(op, 2, fn, tau)
    assert len(seen) == calls and len(set(seen)) == calls
    assert got == reference_fd_operator(op, 2, fn, tau)


def test_laplace_eigen_row_evaluates_each_point_once(monkeypatch):
    # the right-hand side reuses the stencil's value at tau
    import polymaass.numcheck as numcheck
    seen = []

    def counting(k, s, tau, cfg):
        seen.append((k, s, tau))
        return eval_eisenstein(k, s, tau, cfg)

    monkeypatch.setattr(numcheck, "eval_eisenstein", counting)
    pt = DEFAULT_POINTS["laplace_eigen"][0]
    (row,) = verify_identity("laplace_eigen", [pt], FAST)
    assert len(seen) == 9 and len(set(seen)) == 9
    assert (pt["k"], pt["s"], pt["tau"]) in seen
    assert row["residual"] == reference_residual("laplace_eigen", pt, FAST)


def test_suite_matches_uncached_reference():
    rows = [(name, pt) for name in EISENSTEIN for pt in DEFAULT_POINTS[name]]
    report = run_suite(FAST, EISENSTEIN)
    assert len(report) == len(rows)
    for r, (name, pt) in zip(report, rows):
        assert r["identity"] == name
        assert r["residual"] == reference_residual(name, pt, FAST)


def test_eisenstein_identities_hold_term_by_term():
    # each coset term satisfies the identities on its own, so a sum of
    # four terms passes: the residual is finite-difference error only
    report = run_suite(EvalConfig(trunc=1), EISENSTEIN)
    assert len(report) == 15
    assert all(r["pass"] for r in report)


def test_one_call_over_complex_and_real_points_matches_a_call_per_point():
    # a complex s adds a power buffer to its row; the next row must not see it
    points = [{"k": k, "s": s, "tau": 0.21 + 1.13j} for k, s in SPECTRAL_POINTS]
    for name in EISENSTEIN[:3]:
        one_call = verify_identity(name, points, FAST)
        assert one_call == [verify_identity(name, [pt], FAST)[0] for pt in points]


def test_rows_in_four_threads_match_a_sequential_run():
    rows = [(name, pt) for name in EISENSTEIN for pt in DEFAULT_POINTS[name]]
    rows += [("lowering", {"k": k, "s": s, "tau": 0.13 + 0.82j}) for k, s in SPECTRAL_POINTS]
    want = [verify_identity(name, [pt], FAST) for name, pt in rows]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(verify_identity, name, [pt], FAST) for name, pt in rows * 3]
            got = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 3


def test_real_row_peaks_below_two_complex_arrays():
    # the row's buffers are one complex and one float array, 1.5 complex
    # arrays; a fresh array per ufunc, as a plain expression makes, is 3.0
    cfg = EvalConfig(trunc=400)
    c, _ = cfg.cosets
    tracemalloc.start()
    try:
        verify_identity("laplace_eigen", [DEFAULT_POINTS["laplace_eigen"][0]], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * len(c)
