import dataclasses
import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest

from polymaass import quiverrep
from polymaass.classify import BK_TO_MODULE, BK_TO_REPR, CaseLabel, WeightContext, \
    expected_dimension_vector
from polymaass.quiverrep import (ARROWS, CYCLIC, GELFAND, NODES, HCFragment, QuiverRep,
                                 build_cyclic_module, classify_cyclic,
                                 cyclic_module_dims, direct_sum, endomorphism_basis,
                                 has_only_trivial_idempotents, hc_to_quiver,
                                 invariants_of, is_cyclic,
                                 iso_two_descriptions, random_fragment,
                                 second_description)
from polymaass.linalg import IntMat, Mat, mat_mul, rref, solve_linear
from polymaass.scalars import json_number
from polymaass.symcalc import DomainError


def zeros(rows: int, cols: int) -> Mat:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

GELFAND_TUPLES = [(t, c, d) for t in ("*", "+", "-") for c in "abcd"
                  for d in range(6) if not (c == "d" and t in "+-" and d == 0)]
CYCLIC_TUPLES = [(t, c, d) for t in ("+", "-") for c in "ab" for d in range(6)]


@pytest.mark.parametrize("t,c,d", GELFAND_TUPLES[::4])
def test_gelfand_round_trip_sample(t, c, d):
    rep = build_cyclic_module(GELFAND, t, c, d)
    rep.check_relation()
    assert classify_cyclic(rep) == (t, c, d)


@pytest.mark.parametrize("t,c,d", CYCLIC_TUPLES[::3])
def test_cyclic_round_trip_sample(t, c, d):
    rep = build_cyclic_module(CYCLIC, t, c, d)
    assert classify_cyclic(rep) == (t, c, d)


def test_dimension_vectors_and_degrees():
    dims, deg = invariants_of(build_cyclic_module(GELFAND, "*", "a", 2))
    assert dims == (2, 3, 2) and deg["*"] == 3
    dims, deg = invariants_of(build_cyclic_module(GELFAND, "*", "b", 1))
    assert dims == (2, 2, 2) and deg["*"] == 2
    dims, deg = invariants_of(build_cyclic_module(GELFAND, "+", "a", 3))
    assert dims == (3, 3, 4) and deg["+"] == 4
    dims, deg = invariants_of(build_cyclic_module(CYCLIC, "+", "b", 1))
    assert dims == (2, 2) and deg["+"] == 2
    dims, deg = invariants_of(build_cyclic_module(CYCLIC, "+", "a", 0))
    assert dims == (0, 1)


def test_plus_d_requires_positive_depth():
    with pytest.raises(DomainError):
        build_cyclic_module(GELFAND, "+", "d", 0)


def test_zero_module():
    rep = QuiverRep(GELFAND, {"-": 0, "*": 0, "+": 0},
                    {"A-": [], "B-": [], "A+": [], "B+": []})
    dims, deg = invariants_of(rep)
    assert dims == (0, 0, 0) and set(deg.values()) == {0}


def _same_quiver_pairs(quiver, tuples):
    small = [tc for tc in tuples if tc[2] <= 2]
    return [pytest.param(quiver, a, b, id="%s-%s%s%d+%s%s%d" % ((quiver,) + a + b))
            for i, a in enumerate(small) for b in small[i:]]


@pytest.mark.parametrize("quiver,a,b", _same_quiver_pairs(GELFAND, GELFAND_TUPLES)
                         + _same_quiver_pairs(CYCLIC, CYCLIC_TUPLES))
def test_direct_sum_is_not_cyclic(quiver, a, b):
    s = direct_sum(build_cyclic_module(quiver, *a), build_cyclic_module(quiver, *b))
    assert is_cyclic(s) is None
    with pytest.raises(DomainError):
        classify_cyclic(s)
    if a[2] <= 1 and b[2] <= 1:
        assert not has_only_trivial_idempotents(s)


def test_glued_module_with_noncommutative_local_endomorphisms():
    # (*, c, 1) and (+, a, 2) glued along one socle vector at node +:
    # End(V) is local of dimension 6 but not commutative, and the top has
    # dimension 2
    rows = lambda *rs: [[str(x) for x in r] for r in rs]
    rep = QuiverRep.from_json({
        "quiver": "gelfand", "dims": {"-": 3, "*": 4, "+": 4},
        "maps": {"A-": rows([0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 1, 0]),
                 "B-": rows([1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]),
                 "A+": rows([0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]),
                 "B+": rows([1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1])}})
    assert len(endomorphism_basis(rep)) == 6
    assert has_only_trivial_idempotents(rep)
    assert is_cyclic(rep) is None


def test_non_nilpotent_loops_are_rejected():
    one = [[Fraction(1)]]
    rep = QuiverRep(CYCLIC, {"-": 1, "+": 1}, {"a": one, "b": one})
    with pytest.raises(DomainError, match="not nilpotent"):
        is_cyclic(rep)


def test_one_dimensional_plus_node():
    # A+ maps the line at + into V_* = 0 (no rows); B+ comes back (one
    # empty row); the lone basis vector generates
    rep = QuiverRep(GELFAND, {"-": 0, "*": 0, "+": 1},
                    {"A-": [], "B-": [], "A+": [], "B+": [[]]})
    assert is_cyclic(rep) == "+"


# every built module up to the largest depths the benchmark runs
BENCH_MODULES = [(GELFAND, t, c, d) for t, top in (("*", 9), ("+", 4), ("-", 4))
                 for c in "abcd" for d in range(top + 1)
                 if not (c == "d" and t in "+-" and d == 0)] \
    + [(CYCLIC, t, c, d) for t in "+-" for c in "ab" for d in range(10)]


def test_direct_sum_refuses_modules_of_different_quivers():
    with pytest.raises(DomainError) as err:
        direct_sum(build_cyclic_module(GELFAND, "*", "a", 1),
                   build_cyclic_module(CYCLIC, "+", "a", 1))
    assert str(err.value) == "cannot sum representations of different quivers"


def test_cyclic_modules_have_local_endomorphisms():
    # the certificate answers from the top; Dickson's criterion agrees
    for quiver, t, c, d in BENCH_MODULES:
        rep = build_cyclic_module(quiver, t, c, d)
        assert classify_cyclic(rep) == (t, c, d)
        assert has_only_trivial_idempotents(rep)
        assert quiverrep._dickson_certificate(rep)
    assert not has_only_trivial_idempotents(
        direct_sum(build_cyclic_module(GELFAND, "*", "b", 1),
                   build_cyclic_module(GELFAND, "*", "a", 1)))


def test_expected_dimension_link():
    # BK_TO_MODULE pairs each BK label with the module its repr label names:
    # G/C the quiver, I the generator * (+ on the two-cyclic quiver), II +
    for bk, rp in BK_TO_REPR.items():
        quiver, t, c = BK_TO_MODULE[bk]
        assert rp == ("G" if quiver == GELFAND else "C") \
            + ("II" if t == "+" and quiver == GELFAND else "I") + c
        for d in range(1, 4):
            k = {"I": -2, "II": 1, "III": 3}[bk.rstrip("abcd")]
            label = CaseLabel(bk, d, WeightContext(k))
            dims, _ = invariants_of(build_cyclic_module(quiver, t, c, d))
            assert expected_dimension_vector(label) == dims


# --- the interval table against the hand-inverted tables it replaced ---------


def _reference_classify(quiver, type_tag, dims):
    """The per-type dimension-vector tables classify_cyclic used before it
    read the interval table, verbatim: (case, d), or None."""
    if quiver == CYCLIC:
        n_minus, n_plus = dims
        if type_tag == "+":
            d = n_plus - 1
            pairs = {(d, d + 1): "a", (d + 1, d + 1): "b"}
        else:
            d = n_minus - 1
            pairs = {(d + 1, d): "a", (d + 1, d + 1): "b"}
        case = pairs.get((n_minus, n_plus))
        return None if case is None or d < 0 else (case, d)
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
    return None if case is None or d < 0 else (case, d)


@pytest.mark.parametrize("quiver,type_tag", [(GELFAND, t) for t in NODES[GELFAND]]
                         + [(CYCLIC, t) for t in NODES[CYCLIC]])
def test_classify_cyclic_matches_reference_tables(monkeypatch, quiver, type_tag):
    # only the dimension vector and the generating node decide the case
    monkeypatch.setattr(quiverrep, "is_cyclic", lambda rep: type_tag)
    for dims in itertools.product(range(9), repeat=len(NODES[quiver])):
        node_dims = dict(zip(NODES[quiver], dims))
        rep = QuiverRep(quiver, node_dims, {name: zeros(node_dims[dst], node_dims[src])
                                            for name, src, dst in quiverrep.ARROWS[quiver]})
        want = _reference_classify(quiver, type_tag, dims)
        if want is None:
            with pytest.raises(DomainError, match=re.escape(
                    "cyclic module with impossible dimension vector %r" % (dims,))):
                classify_cyclic(rep)
        else:
            assert classify_cyclic(rep) == (type_tag,) + want
            assert cyclic_module_dims(quiver, type_tag, want[0], want[1]) == dims


# sha256 of json.dumps(to_json()) over d = 0..9 (1..9 for the (+/-, d) cases)
BUILD_DIGESTS = {
    (GELFAND, "*", "a"): "d869809e5db2db6e",
    (GELFAND, "*", "b"): "d3e5e189f2b0512c",
    (GELFAND, "*", "c"): "c35fa145cec706f3",
    (GELFAND, "*", "d"): "9b5f071318499f4f",
    (GELFAND, "+", "a"): "5dac10f85070a891",
    (GELFAND, "+", "b"): "90a22ae8c0582c5a",
    (GELFAND, "+", "c"): "145f97651404ee2d",
    (GELFAND, "+", "d"): "c1d0d1a772e57e72",
    (GELFAND, "-", "a"): "88d3ded2f131192d",
    (GELFAND, "-", "b"): "b6b9f1293ebae626",
    (GELFAND, "-", "c"): "d7a5321c481ff098",
    (GELFAND, "-", "d"): "b54051baf9682866",
    (CYCLIC, "+", "a"): "92cf779a7f2872d1",
    (CYCLIC, "+", "b"): "b4c2bb298b0a5d30",
    (CYCLIC, "-", "a"): "da486b4c9b31661d",
    (CYCLIC, "-", "b"): "d338cd0556a6b6c8",
}


@pytest.mark.parametrize("quiver,t,c", sorted(BUILD_DIGESTS))
def test_build_cyclic_module_output_is_pinned(quiver, t, c):
    h = hashlib.sha256()
    for d in range(1 if (quiver, c) == (GELFAND, "d") and t != "*" else 0, 10):
        rep = build_cyclic_module(quiver, t, c, d)
        assert rep.dim_vector() == cyclic_module_dims(quiver, t, c, d)
        h.update(json.dumps(rep.to_json()).encode())
    assert h.hexdigest()[:16] == BUILD_DIGESTS[(quiver, t, c)]


# sha256 of json.dumps(random_fragment(l, dim, seed).to_json())
FRAGMENT_DIGESTS = {
    (1, 1, 0): "9c5803c443e46668",
    (1, 3, 5): "9c13777a96cba94e",
    (2, 2, 11): "7bd5c1eb23948ac5",
    (3, 4, 5): "a28c6657f5bb04e9",
    (4, 3, 2): "c73cf588063a8125",
    (6, 4, 9): "7ce38ad3c9d528a2",
}


@pytest.mark.parametrize("l,dim,seed", sorted(FRAGMENT_DIGESTS))
def test_random_fragment_output_is_pinned(l, dim, seed):
    data = json.dumps(random_fragment(l, dim, seed).to_json()).encode()
    assert hashlib.sha256(data).hexdigest()[:16] == FRAGMENT_DIGESTS[(l, dim, seed)]


# sha256 over json.dumps of hc_to_quiver(f).to_json() and
# second_description(f).to_json(), then str(iso_two_descriptions(f)), for
# f = random_fragment(l, dim, seed), seeds 0..3 in turn
DESCRIPTION_DIGESTS = {
    (1, 1): "2d44377d8d954a92",
    (1, 2): "ee9d9248e87aa176",
    (1, 3): "dad395694758b91a",
    (1, 4): "1be36fa212c52252",
    (2, 1): "5cc7579f38a53ab7",
    (2, 2): "eb586a48317bb436",
    (2, 3): "d9e6895b60522651",
    (2, 4): "9b90a103928450bd",
    (3, 1): "7f2c5d7bca5a2d52",
    (3, 2): "9fae3152adbdc30f",
    (3, 3): "20c5690d971fb8a7",
    (3, 4): "15e54006f640bee4",
    (4, 1): "c1ae3db0f4d52685",
    (4, 2): "1f1737c4e1f0d327",
    (4, 3): "0cf66fbdec7ef8ff",
    (4, 4): "7af9b570a4ce6b21",
    (5, 1): "11b666cc613be6cf",
    (5, 2): "75edc7288dbe2f9c",
    (5, 3): "2538f3fd42bd08c4",
    (5, 4): "58d457dd0ede1837",
    (6, 1): "7bf1e380f8c00ff4",
    (6, 2): "9dc59a25847e05fa",
    (6, 3): "b9e8c005b569dc34",
    (6, 4): "c9e0280154520bdd",
}


@pytest.mark.parametrize("l,dim", sorted(DESCRIPTION_DIGESTS))
def test_descriptions_and_witness_are_pinned(l, dim):
    h = hashlib.sha256()
    for seed in range(4):
        frag = random_fragment(l, dim, seed)
        h.update(json.dumps(hc_to_quiver(frag).to_json()).encode())
        h.update(json.dumps(second_description(frag).to_json()).encode())
        h.update(str(iso_two_descriptions(frag)).encode())
    assert h.hexdigest()[:16] == DESCRIPTION_DIGESTS[(l, dim)]


@pytest.mark.parametrize("args,message", [
    ((GELFAND, "*", "a", -1), "depth parameter must be nonnegative"),
    (("kronecker", "*", "a", -1), "depth parameter must be nonnegative"),
    (("kronecker", "*", "a", 0), "unknown quiver 'kronecker'"),
    ((GELFAND, "*", "e", 0), "no Gelfand cyclic module (*, e)"),
    ((CYCLIC, "*", "a", 0), "no cyclic-quiver module (*, a)"),
    ((CYCLIC, "+", "c", 3), "no cyclic-quiver module (+, c)"),
    ((GELFAND, "+", "d", 0), "case (+, d) exists only for d >= 1"),
    ((GELFAND, "-", "d", 0), "case (-, d) exists only for d >= 1"),
])
def test_build_cyclic_module_errors(args, message):
    for f in (build_cyclic_module, cyclic_module_dims):
        with pytest.raises(DomainError) as ex:
            f(*args)
        assert str(ex.value) == message


# --- Harish-Chandra fragments ----------------------------------------------


def test_fragment_l1_scalar_example():
    frag = HCFragment(1, x_minus=[[Fraction(0)]], xs=(), x_plus=[[Fraction(1)]],
                      y_plus=[[Fraction(0)]], ys=(), y_minus=[[Fraction(1)]])
    rep = hc_to_quiver(frag)
    assert rep.dim_vector() == (1, 1, 1)
    assert rep.loops()["*"] == [[Fraction(0)]]
    t, x_star, one = iso_two_descriptions(frag)
    assert t == [[Fraction(1)]] and x_star == [[Fraction(1)]]


def test_fragment_l0():
    frag = HCFragment(0, z_minus=[[Fraction(0)]], z_plus=[[Fraction(1)]])
    rep = hc_to_quiver(frag)
    assert rep.quiver == CYCLIC
    assert rep.loops()["-"] == [[Fraction(0)]]


L0_FRAGMENT = dict(z_minus=[[0]], z_plus=[[1]])


@pytest.mark.parametrize("build,message", [
    (lambda: HCFragment(0, z_minus=[[0]]), "l = 0 fragment needs z_minus and z_plus"),
    (lambda: HCFragment(2, x_minus=[[0]], x_plus=[[1]], y_plus=[[0]], y_minus=[[1]]),
     "fragment needs 1 interior maps per direction"),
    (lambda: HCFragment(1, x_minus=[[0]], x_plus=[[1]], y_plus=[[0]]),
     "fragment needs x_minus, y_minus, x_plus and y_plus"),
    (lambda: HCFragment(1, x_minus=[[1]], x_plus=[[0]], y_plus=[[0]], y_minus=[[1]]),
     "lower end composite is not nilpotent"),
    (lambda: HCFragment(0, z_minus=[[1]], z_plus=[[1]]), "end composite is not nilpotent"),
    (lambda: second_description(HCFragment(0, **L0_FRAGMENT)), "second description needs l >= 1"),
    (lambda: iso_two_descriptions(HCFragment(0, **L0_FRAGMENT)),
     "two descriptions exist only for l >= 1"),
    (lambda: random_fragment(0, 2), "need l >= 1 and dim >= 1"),
])
def test_fragment_inputs_are_refused_by_name(build, message):
    with pytest.raises(DomainError) as ex:
        build()
    assert str(ex.value) == message


@pytest.mark.parametrize("quiver, node", [(GELFAND, "*"), (CYCLIC, "+")])
def test_zero_module_is_cyclic_at_the_first_node_and_certified(quiver, node):
    rep = QuiverRep(quiver, dict.fromkeys(NODES[quiver], 0),
                    {name: [] for name, _src, _dst in ARROWS[quiver]})
    assert is_cyclic(rep) == node
    assert has_only_trivial_idempotents(rep) is True


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("seed", range(10))
def test_seeded_fragments(l, seed):
    frag = random_fragment(l, 2, seed=seed)
    r1 = hc_to_quiver(frag)
    r2 = second_description(frag)
    r1.check_relation()
    r2.check_relation()
    assert r1.dim_vector() == r2.dim_vector()
    assert invariants_of(r1)[1] == invariants_of(r2)[1]
    t, x_star, one = iso_two_descriptions(frag)
    assert one == identity(2)


def test_perturbed_fragment_fails_iso():
    frag = random_fragment(2, 2, seed=11)
    bad = HCFragment(2, x_minus=frag.x_minus, xs=frag.xs, x_plus=frag.x_plus,
                     y_plus=frag.y_plus,
                     ys=([[frag.ys[0][i][j] + (1 if i == j == 0 else 0)
                           for j in range(2)] for i in range(2)],),
                     y_minus=frag.y_minus)
    with pytest.raises(DomainError):
        iso_two_descriptions(bad)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_singular_iso_witness_is_reported(monkeypatch, l):
    # cannot happen on a valid fragment (T shares the one eigenvalue of the
    # invertible Y_* X_*), so force p = 0 to reach the self-check
    frag = random_fragment(l, 2, seed=3)
    monkeypatch.setattr(quiverrep, "_poly_in_matrix", lambda target, base: [Fraction(0)])
    with pytest.raises(DomainError) as ex:
        iso_two_descriptions(frag)
    assert str(ex.value) == "isomorphism witness T is singular"


def test_non_commuting_square_is_reported(monkeypatch):
    # cannot happen on a valid fragment (T = p(C_0) for the p of Y_* X_* in
    # C_1), so force a wrong p to reach the self-check; no such p was found
    # that passes the (A-) square and fails the (B-) one
    frag = random_fragment(2, 2, seed=1)
    monkeypatch.setattr(quiverrep, "_poly_in_matrix", lambda target, base: [2, 1])
    with pytest.raises(DomainError) as ex:
        iso_two_descriptions(frag)
    assert str(ex.value) == "morphism square (A-) does not commute"


def reference_poly_in_matrix(target, base):
    """_poly_in_matrix as it stood with an n^2 + 1 degree bound."""
    n = len(base)
    if not n:
        return [Fraction(1)]
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


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_poly_in_matrix_matches_reference_loop(l, dim):
    # the (Y_* X_*, C_1) pair that iso_two_descriptions solves
    degrees = set()
    for seed in range(40):
        frag = random_fragment(l, dim, seed=seed)
        m = frag.int_maps
        target = m["y_star"] @ m["x_star"]
        base = quiverrep._casimir(l * l - 1, m["x_minus"] @ m["y_minus"])
        p = quiverrep._poly_in_matrix(target, base)
        assert p == reference_poly_in_matrix(target.to_dense(), base.to_dense())
        degrees.add(len(p))
    # at l = 1 or dim = 1 every target is a scalar; otherwise some seed
    # needs a power of the base
    assert (max(degrees) > 1) == (l > 1 and dim > 1)


@pytest.mark.parametrize("target,base,p", [
    ([[0, 0], [0, 0]], [[1, 1], [0, 1]], [0]),
    ([[5, 0], [0, 5]], [[1, 1], [0, 1]], [5]),
    ([[2, 3], [0, 2]], [[1, 1], [0, 1]], [-1, 3]),
    ([[0, 0, 1], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [0, 0, 1]),
    ([[7, 0, 0], [0, 7, 0], [0, 0, 7]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]], [Fraction(7)]),
    ([], [], [1]),
], ids=["zero", "scalar", "linear", "square", "scalar-base", "zero-space"])
def test_poly_in_matrix_hand_made(target, base, p):
    got = quiverrep._poly_in_matrix(IntMat.from_dense(target, len(target)),
                                    IntMat.from_dense(base, len(base)))
    assert got == p == reference_poly_in_matrix(target, base)
    assert all(type(x) is Fraction for x in got)


def test_poly_in_matrix_gives_up_after_n_solves(monkeypatch):
    # diagonal entries 1 and 2 are no polynomial in a scalar base; one
    # solve over the n = 2 powers base^0, base^1 decides
    solves = []
    solve = IntMat.solve

    def counting(m, b):
        solves.append(m.cols)
        return solve(m, b)

    monkeypatch.setattr(IntMat, "solve", counting)
    base = [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(3)]]
    target = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    with pytest.raises(DomainError, match="not Casimir-consistent"):
        quiverrep._poly_in_matrix(IntMat.from_dense(target), IntMat.from_dense(base))
    assert solves == [2]
    with pytest.raises(DomainError, match="not Casimir-consistent"):
        reference_poly_in_matrix(target, base)


def test_fragment_rejects_singular_interior():
    frag = random_fragment(2, 2, seed=3)
    with pytest.raises(DomainError, match="interior map is not invertible"):
        HCFragment(2, x_minus=frag.x_minus,
                   xs=([[Fraction(0)] * 2] * 2,), x_plus=frag.x_plus,
                   y_plus=frag.y_plus, ys=frag.ys, y_minus=frag.y_minus)


@pytest.mark.parametrize("key", ["xs", "ys"])
@pytest.mark.parametrize("i", range(3))
def test_fragment_rejects_a_singular_interior_map_at_each_position(key, i):
    # a singular map anywhere in X_* or Y_* leaves that star without an
    # inverse; rank 1 of 2, so the map is neither zero nor invertible
    data = random_fragment(4, 2, seed=5).to_json()
    data[key][i] = [["1", "2"], ["2", "4"]]
    with pytest.raises(DomainError) as ex:
        HCFragment.from_json(data)
    assert str(ex.value) == "interior map is not invertible"


def test_a_malformed_interior_map_is_reported_before_a_singular_one():
    # every interior map is read before the stars are inverted
    data = random_fragment(3, 2, seed=5).to_json()
    data["xs"] = [[["0", "0"], ["0", "0"]], [["1"]]]
    with pytest.raises(DomainError) as ex:
        HCFragment.from_json(data)
    assert str(ex.value) == "interior map must be a 2 x 2 matrix"


def test_descriptions_and_witness_invert_nothing(monkeypatch):
    # a fragment inverts X_* and Y_* once, when built; the two descriptions
    # and the witness read the stored inverses
    frag = random_fragment(3, 3, seed=2)
    calls = []
    inverse = IntMat.inverse
    monkeypatch.setattr(IntMat, "inverse", lambda m: calls.append(m) or inverse(m))
    hc_to_quiver(frag)
    second_description(frag)
    iso_two_descriptions(frag)
    assert calls == []
    HCFragment.from_json(frag.to_json())
    assert len(calls) == 2


def reference_gram(rep: QuiverRep):
    """has_only_trivial_idempotents' trace-form Gram matrix tr(a b) as it
    stood, summed in Fraction arithmetic."""
    nodes = NODES[rep.quiver]
    basis = endomorphism_basis(rep)
    flat = [[x for n in nodes for row in e[n] for x in row] for e in basis]
    flat_t = [[x for n in nodes for col in zip(*e[n]) for x in col] for e in basis]
    return [[sum(x * y for x, y in zip(a, b) if x and y) for b in flat_t] for a in flat]


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_certificate_on_fragment_modules_matches_the_fraction_gram(l, dim):
    # the interval-built modules have 0/1 entries only; the fragment
    # modules' endomorphism bases carry denominators once dim > 1
    answers, fractional = set(), False
    for seed in range(8):
        rep = hc_to_quiver(random_fragment(l, dim, seed))
        cert = has_only_trivial_idempotents(rep)
        assert cert == (len(rref(reference_gram(rep))[1]) == 1)
        answers.add(cert)
        fractional |= any(x.denominator > 1 for e in endomorphism_basis(rep)
                          for m in e.values() for row in m for x in row)
    assert answers == ({True} if dim == 1 else {True, False})
    assert fractional == (dim > 1)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_top_certificate_matches_dickson_on_fragment_modules(l, dim):
    cyclic = 0
    for seed in range(8):
        frag = random_fragment(l, dim, seed)
        for rep in (hc_to_quiver(frag), second_description(frag)):
            assert has_only_trivial_idempotents(rep) == quiverrep._dickson_certificate(rep)
            cyclic += is_cyclic(rep) is not None
    assert cyclic > 0


def test_cyclic_modules_are_certified_without_end(monkeypatch):
    def no_end(rep):
        raise AssertionError("End(V) built")

    monkeypatch.setattr(quiverrep, "_endomorphism_kernel", no_end)
    for spec in BENCH_MODULES[::7]:
        assert has_only_trivial_idempotents(build_cyclic_module(*spec))
    with pytest.raises(AssertionError, match="End"):
        has_only_trivial_idempotents(direct_sum(build_cyclic_module(GELFAND, "*", "a", 1),
                                                build_cyclic_module(GELFAND, "*", "b", 1)))


def test_certificate_on_non_nilpotent_loops_falls_back_to_dickson():
    # is_cyclic raises on this rep; the certificate does not, as before
    one = [[Fraction(1)]]
    rep = QuiverRep(CYCLIC, {"-": 1, "+": 1}, {"a": one, "b": one})
    with pytest.raises(DomainError, match="not nilpotent"):
        is_cyclic(rep)
    assert has_only_trivial_idempotents(rep) is quiverrep._dickson_certificate(rep) is True
    rep = QuiverRep(CYCLIC, {"-": 2, "+": 2}, {"a": identity(2), "b": identity(2)})
    assert has_only_trivial_idempotents(rep) is quiverrep._dickson_certificate(rep) is False


def test_endomorphism_basis_dimension():
    rep = build_cyclic_module(GELFAND, "*", "b", 1)
    basis = endomorphism_basis(rep)
    # local algebra Q[t]/t^2 expected for P_*-truncations
    assert len(basis) == 2


def test_quiver_values_are_frozen():
    rep = build_cyclic_module(CYCLIC, "+", "a", 1)
    with pytest.raises(TypeError):
        rep.maps["a"] = [[Fraction(0)], [Fraction(0)]]
    with pytest.raises(TypeError):
        rep.dims["-"] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.maps = {}
    assert classify_cyclic(rep) == ("+", "a", 1)
    # the rep keeps its own copy of the dicts it was built from
    dims, maps = dict(rep.dims), dict(rep.maps)
    copy = QuiverRep(CYCLIC, dims, maps)
    maps["a"], dims["-"] = [[Fraction(0)], [Fraction(0)]], 5
    assert copy == rep and copy.to_json() == rep.to_json()
    assert rep.to_json()["dims"] == {"-": 1, "+": 2}
    frag = random_fragment(2, 2, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        frag.x_minus = frag.x_plus
    assert frag == HCFragment.from_json(frag.to_json())


def test_quiver_matrices_cannot_be_edited_in_place():
    rep = build_cyclic_module(CYCLIC, "+", "a", 1)
    with pytest.raises(TypeError):
        rep.maps["a"][1][0] = Fraction(0)
    with pytest.raises(AttributeError):
        rep.maps["a"].append([Fraction(0)])
    assert classify_cyclic(rep) == ("+", "a", 1)
    # a rep built from lists holds tuples, and equals one built from them
    lists = {name: [list(row) for row in m] for name, m in rep.maps.items()}
    again = QuiverRep(CYCLIC, dict(rep.dims), lists)
    assert again == rep and again.to_json() == rep.to_json()
    assert all(type(m) is tuple and all(type(row) is tuple for row in m)
               for m in again.maps.values())
    lists["a"][1][0] = Fraction(0)
    assert again == rep
    for frag in (random_fragment(3, 2, seed=1),
                 HCFragment(0, z_minus=[[Fraction(0)]], z_plus=[[Fraction(1)]])):
        for name in ("x_minus", "x_plus", "y_plus", "y_minus", "z_minus", "z_plus"):
            m = getattr(frag, name)
            if m is not None:
                with pytest.raises(TypeError):
                    m[0][0] = Fraction(5)
        for m in frag.xs + frag.ys:
            with pytest.raises(TypeError):
                m[0][0] = Fraction(5)
        assert frag == HCFragment.from_json(frag.to_json())
        assert HCFragment.from_json(frag.to_json()).to_json() == frag.to_json()


def test_quiver_json_round_trip():
    rep = build_cyclic_module(GELFAND, "+", "b", 2)
    again = QuiverRep.from_json(rep.to_json())
    assert again.dims == rep.dims and again.maps == rep.maps
    frag = random_fragment(2, 2, seed=1)
    again = HCFragment.from_json(frag.to_json())
    assert again.x_minus == frag.x_minus and again.ys == frag.ys


@pytest.mark.parametrize("value", [1.9, 1.0, "1"])
def test_quiver_json_rejects_non_integer_dims(value):
    data = build_cyclic_module(CYCLIC, "+", "a", 0).to_json()
    assert data["dims"]["+"] == 1
    data["dims"]["+"] = value
    with pytest.raises(DomainError, match="^malformed quiver representation: "):
        QuiverRep.from_json(data)


@pytest.mark.parametrize("value", [2.5, 2.0, "2"])
def test_fragment_json_rejects_non_integer_l(value):
    data = random_fragment(2, 2, seed=1).to_json()
    data["l"] = value
    with pytest.raises(DomainError, match="^malformed fragment JSON: "):
        HCFragment.from_json(data)


@pytest.mark.parametrize("value", [0.1, 1.0])
def test_quiver_json_rejects_float_entries(value):
    data = build_cyclic_module(CYCLIC, "+", "a", 1).to_json()
    data["maps"]["a"][0][0] = value
    with pytest.raises(DomainError, match="^malformed quiver representation: .*int or a string"):
        QuiverRep.from_json(data)


@pytest.mark.parametrize("value", [0.1, 1.0])
def test_fragment_json_rejects_float_entries(value):
    data = random_fragment(2, 2, seed=1).to_json()
    data["x_minus"][0][0] = value
    with pytest.raises(DomainError, match="^malformed fragment JSON: .*int or a string"):
        HCFragment.from_json(data)


def _ends_only_fragment(l, n0, n1, n2):
    """A fragment with dims (n0, n1, n2) at (M_{-l-1}, M_{-l+1}, M_{l+1}),
    zero end maps and identity interior maps."""
    return HCFragment(l, x_minus=zeros(n1, n0), xs=(identity(n1),) * (l - 1),
                      x_plus=zeros(n2, n1), y_plus=zeros(n1, n2),
                      ys=(identity(n1),) * (l - 1), y_minus=zeros(n0, n1))


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("dims,label", [((0, 1, 0), ("*", "a", 0)),
                                        ((1, 0, 0), ("-", "a", 0)),
                                        ((0, 0, 1), ("+", "a", 0))])
def test_fragments_with_zero_end_blocks(l, dims, label):
    frag = HCFragment.from_json(_ends_only_fragment(l, *dims).to_json())
    r1, r2 = hc_to_quiver(frag), second_description(frag)
    assert r1.dim_vector() == r2.dim_vector() == dims
    assert classify_cyclic(r1) == classify_cyclic(r2) == label
    assert classify_cyclic(r1) == classify_cyclic(build_cyclic_module(GELFAND, *label))
    t, x_star, one = iso_two_descriptions(frag)
    assert t == identity(dims[0]) and x_star == identity(dims[1])
    assert one == identity(dims[2])


def test_zero_end_blocks_must_still_chain():
    frag = _ends_only_fragment(2, 0, 1, 0)
    with pytest.raises(DomainError, match="x_minus must be a 1 x 1"):
        HCFragment(2, x_minus=frag.x_minus, xs=frag.xs, x_plus=frag.x_plus,
                   y_plus=frag.y_plus, ys=frag.ys, y_minus=[[]])
    with pytest.raises(DomainError, match="y_plus must be a 1 x 2"):
        HCFragment(2, x_minus=frag.x_minus, xs=frag.xs, x_plus=[[Fraction(0)]] * 2,
                   y_plus=frag.y_plus, ys=frag.ys, y_minus=frag.y_minus)


# --- representations and fragments are checked when built ---------------------


ZERO = [[Fraction(0)]]
ONE = [[Fraction(1)]]


@pytest.mark.parametrize("quiver,dims,maps,message", [
    # invariants_of once read (1, 2, 1) with degree 1 at * from this rep,
    # and is_cyclic raised IndexError
    (GELFAND, {"-": 1, "*": 2, "+": 1}, {"A-": ZERO, "B-": ZERO, "A+": ZERO, "B+": ZERO},
     "arrow A- must be a 2 x 1 matrix"),
    (GELFAND, {"-": 1, "*": 1, "+": 1}, {"A-": ONE, "B-": ONE, "A+": ZERO, "B+": ZERO},
     "Gelfand relation A-B- = A+B+ violated"),
    ("kronecker", {"-": 1, "+": 1}, {"a": ZERO, "b": ZERO}, "unknown quiver 'kronecker'"),
    (CYCLIC, {"-": 1, "*": 1, "+": 1}, {"a": ZERO, "b": ZERO},
     "dims must give a nonnegative dimension for exactly the nodes ('-', '+')"),
    (CYCLIC, {"-": -1, "+": 1}, {"a": [], "b": [[]]},
     "dims must give a nonnegative dimension for exactly the nodes ('-', '+')"),
    (CYCLIC, {"-": 1, "+": 1}, {"a": ZERO}, "maps must give exactly the arrows ['a', 'b']"),
    (CYCLIC, {"-": 1, "+": 1}, {"a": None, "b": ZERO}, "arrow a must be a 1 x 1 matrix"),
], ids=["shape", "relation", "quiver", "nodes", "negative", "arrows", "null"])
def test_quiver_rep_is_checked_when_built(quiver, dims, maps, message):
    with pytest.raises(DomainError) as ex:
        QuiverRep(quiver, dims, maps)
    assert str(ex.value) == message
    if None in maps.values():   # JSON null is a malformed matrix
        return
    data = {"quiver": quiver, "dims": dims,
            "maps": {k: [[str(x) for x in row] for row in m] for k, m in maps.items()}}
    with pytest.raises(DomainError) as ex:
        QuiverRep.from_json(data)
    assert str(ex.value) == message


def test_relation_is_checked_once_per_rep(monkeypatch):
    calls = []
    check = QuiverRep.check_relation
    monkeypatch.setattr(QuiverRep, "check_relation", lambda rep: calls.append(check(rep)))
    rep = build_cyclic_module(GELFAND, "*", "b", 2)
    invariants_of(rep)
    assert classify_cyclic(rep) == ("*", "b", 2)
    assert has_only_trivial_idempotents(rep)
    assert len(calls) == 1
    frag = random_fragment(2, 2, seed=4)
    del calls[:]
    hc_to_quiver(frag)
    second_description(frag)
    iso_two_descriptions(frag)
    assert len(calls) == 2   # one per description, none in the iso witness


@pytest.mark.parametrize("quiver,spec", [(GELFAND, ("+", "c", 3)), (CYCLIC, ("-", "b", 2))])
def test_rep_invariants_are_computed_once(monkeypatch, quiver, spec):
    calls, ranks = [], []
    degree, rank = IntMat.nilpotency_degree, IntMat.rank
    monkeypatch.setattr(IntMat, "nilpotency_degree", lambda m: calls.append(m) or degree(m))
    rep = build_cyclic_module(quiver, *spec)
    monkeypatch.setattr(IntMat, "rank", lambda m: ranks.append(m) or rank(m))
    assert classify_cyclic(rep) == spec
    dims, degrees = invariants_of(rep)
    degrees.clear()   # the caller's copy, not the rep's
    assert invariants_of(rep)[1] and has_only_trivial_idempotents(rep)
    assert len(calls) == len(NODES[quiver]) and len(ranks) == len(NODES[quiver])


def test_fragment_rejects_negative_l():
    for build in (lambda: HCFragment(-1), lambda: HCFragment.from_json({"l": -1})):
        with pytest.raises(DomainError) as ex:
            build()
        assert str(ex.value) == "l must be nonnegative"


def _stray(data, **extra):
    data = dict(data)
    data.update(extra)
    return data


L1 = {"l": 1, "x_minus": [["0"]], "xs": [], "x_plus": [["1"]],
      "y_plus": [["0"]], "ys": [], "y_minus": [["1"]]}
L0 = {"l": 0, "z_minus": [["0"]], "z_plus": [["1"]]}


@pytest.mark.parametrize("data,message", [
    (_stray(L1, z_minus=[["0"]], z_plus=[["1"]]), "an l = 1 fragment takes no z_minus, z_plus"),
    (_stray(L1, z_plus=[["1"]]), "an l = 1 fragment takes no z_plus"),
    (_stray(L0, x_minus=[["0"]]), "an l = 0 fragment takes no x_minus"),
    (_stray(L0, xs=[[["1"]]], ys=[[["1"]]]), "an l = 0 fragment takes no xs, ys"),
    (_stray(L1, w_minus=None), "fragment JSON has unknown keys ['w_minus']"),
], ids=["l1-z", "l1-z-plus", "l0-x-minus", "l0-interior", "unknown-key"])
def test_fragment_takes_only_the_maps_of_l(data, message):
    HCFragment.from_json(L1 if data["l"] == 1 else L0)
    with pytest.raises(DomainError) as ex:
        HCFragment.from_json(data)
    assert str(ex.value) == message


@pytest.mark.parametrize("frag", [HCFragment(0, z_minus=ZERO, z_plus=ONE),
                                  random_fragment(1, 2, seed=3)], ids=["l0", "l1"])
def test_fragment_json_absent_maps_round_trip(frag):
    # to_json writes None and [] for the maps an l does not use
    data = frag.to_json()
    assert None in data.values() and [] in data.values()
    assert HCFragment.from_json(data) == frag


# --- matrix entries must be exact ---------------------------------------------


NON_EXACT = [0.5, 1.0, True, False, "1", None]


@pytest.mark.parametrize("value", NON_EXACT)
def test_quiver_rep_rejects_non_exact_entries(value):
    with pytest.raises(DomainError) as ex:
        QuiverRep(CYCLIC, {"-": 1, "+": 1}, {"a": [[value]], "b": [[0]]})
    assert str(ex.value) == ("arrow a has the entry %r; entries must be ints or Fractions"
                             % (value,))


@pytest.mark.parametrize("value", NON_EXACT)
def test_fragment_rejects_non_exact_entries(value):
    with pytest.raises(DomainError, match=r"^z_minus has the entry "):
        HCFragment(0, z_minus=[[value]], z_plus=[[1]])
    frag = random_fragment(3, 2, seed=1)
    for name in ("x_minus", "y_minus", "x_plus", "y_plus"):
        bad = [list(row) for row in getattr(frag, name)]
        bad[1][0] = value
        with pytest.raises(DomainError, match="^%s has the entry " % name):
            HCFragment(3, **{**{k: getattr(frag, k) for k in ("x_minus", "xs", "x_plus",
                                                             "y_plus", "ys", "y_minus")},
                             name: bad})
    bad = [list(row) for row in frag.ys[1]]
    bad[0][1] = value
    with pytest.raises(DomainError, match=r"^ys\[1\] has the entry "):
        HCFragment(3, x_minus=frag.x_minus, xs=frag.xs, x_plus=frag.x_plus,
                   y_plus=frag.y_plus, ys=(frag.ys[0], bad), y_minus=frag.y_minus)


def test_int_and_fraction_entries_are_accepted_alike():
    fractions = build_cyclic_module(GELFAND, "+", "c", 2)
    ints = QuiverRep(GELFAND, fractions.dims, {k: [[int(x) for x in row] for row in m]
                                               for k, m in fractions.maps.items()})
    assert ints.to_json() == fractions.to_json() and ints.int_maps == fractions.int_maps
    assert classify_cyclic(ints) == classify_cyclic(fractions) == ("+", "c", 2)


# --- one IntMat per map: values are built from integers, the dense fields are views


# a digit string past int's default limit is refused by int and Fraction alike
JSON_ENTRIES = ["0", "-3", "2/4", "+3", " 5 ", "0.5", "1e1", "-0", "007", "1_0", "١٢",
                "1/0", "-0/5", "007/3", "6/-4", "1/00", "x", "-", "", "--5", "9" * 5000, 7, 1.5,
                True]


def _outcome(read, x):
    """read(x), or the type and text of what it raises."""
    try:
        return read(x)
    except Exception as ex:   # compared, not swallowed
        return type(ex), str(ex)


def _reference_rational(x):
    """A JSON rational as Fraction reads it, with a float and a bool refused."""
    if not isinstance(x, (int, str)) or isinstance(x, bool):
        raise TypeError("a rational must be an int or a string, not %r" % (x,))
    return Fraction(x)


@pytest.mark.parametrize("entry", JSON_ENTRIES, ids=lambda x: repr(x)[:12])
def test_json_entries_read_as_fraction_does(entry):
    # json_number reads a string or an int as Fraction does, a plain ASCII
    # integer string as an int and any other value as a Fraction, and
    # refuses every other entry with the reference's message; the quiver
    # matrix reader reads each entry by it
    want = _outcome(_reference_rational, entry)
    got = _outcome(json_number, entry)
    plain = type(entry) is str and re.fullmatch("-?[0-9]+", entry)
    assert got == want and type(got) is (int if plain and type(want) is Fraction else type(want))
    data = {"quiver": CYCLIC, "dims": {"-": 1, "+": 1}, "maps": {"a": [[entry]], "b": [["0"]]}}
    rep = _outcome(QuiverRep.from_json, data)
    if type(want) is Fraction:
        assert rep == QuiverRep(CYCLIC, {"-": 1, "+": 1}, {"a": [[want]], "b": [[0]]})
        assert rep.to_json()["maps"]["a"] == [[str(want)]]
    else:
        assert rep == (DomainError, "malformed quiver representation: %s" % (want[1],))


def test_cli_reads_spelled_out_entries_and_refuses_a_zero_denominator(capsys, tmp_path):
    from polymaass.cli import main
    path = tmp_path / "rep.json"
    maps = {"a": [["2/4"], ["+3"]], "b": [["0.5", "-1/12"]]}
    path.write_text(json.dumps({"quiver": "cyclic", "dims": {"-": 1, "+": 2}, "maps": maps}))
    assert main(["quiver", "classify", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "type +, case a, d = 1\n"
    maps["b"][0][0] = "1/0"
    path.write_text(json.dumps({"quiver": "cyclic", "dims": {"-": 1, "+": 2}, "maps": maps}))
    assert main(["quiver", "classify", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed quiver representation: Fraction(1, 0)\n"


def _counting(monkeypatch, name):
    """Count the calls of IntMat.<name>, each with its result."""
    calls = []
    method = getattr(IntMat, name)
    monkeypatch.setattr(IntMat, name, lambda *a: calls.append(method(*a)) or calls[-1])
    return calls


@pytest.mark.parametrize("l,dim,seed", [(1, 1, 0), (2, 1, 10), (3, 2, 5), (4, 3, 2), (6, 4, 7)])
def test_random_fragment_passes_its_draws_straight_through(monkeypatch, l, dim, seed):
    # each draw of an invertible map is inverted once and Y_* once more;
    # X_*^-1 is the product of the drawn inverses, and nothing is read
    # from or written to dense matrices
    from_dense, to_dense = _counting(monkeypatch, "from_dense"), _counting(monkeypatch, "to_dense")
    inverses = _counting(monkeypatch, "inverse")
    frag = random_fragment(l, dim, seed)
    monkeypatch.undo()
    singular = inverses.count(None)
    assert from_dense == to_dense == [] and len(inverses) == (l + 1 + singular) + 1
    assert singular == 2 or (dim, seed) != (1, 10)   # singular draws count too
    m = frag.int_maps
    assert m["x_star_inv"] == m["x_star"].inverse() and m["y_star_inv"] == m["y_star"].inverse()
    assert frag == HCFragment.from_json(frag.to_json())


def test_descriptions_build_no_dense_matrix(monkeypatch):
    frags = [random_fragment(3, 3, seed=2), HCFragment(0, z_minus=ZERO, z_plus=ONE)]
    to_dense, from_dense = _counting(monkeypatch, "to_dense"), _counting(monkeypatch, "from_dense")
    for frag in frags:
        hc_to_quiver(frag).to_json()
        if frag.l:
            second_description(frag).to_json()
    assert to_dense == from_dense == []


def _dense_round_trip(value):
    """value rebuilt by its public constructor from its dense views."""
    if isinstance(value, QuiverRep):
        return QuiverRep(value.quiver, value.dims, value.maps)
    return HCFragment(value.l, **{name: getattr(value, name) for name in
                                  ("x_minus", "xs", "x_plus", "y_plus", "ys", "y_minus",
                                   "z_minus", "z_plus")})


def test_integer_built_values_equal_their_public_construction():
    # build_cyclic_module, direct_sum, hc_to_quiver, second_description and
    # random_fragment hand _make integer matrices in lowest terms, so each
    # value equals the one the public constructor reads from its views
    frags = [random_fragment(l, dim, seed) for l, dim, seed in
             ((1, 2, 0), (2, 3, 4), (4, 2, 9))] + [HCFragment(0, z_minus=ZERO, z_plus=ONE)]
    reps = [build_cyclic_module(*spec) for spec in BENCH_MODULES[::5]]
    reps += [hc_to_quiver(f) for f in frags] + [second_description(f) for f in frags[:3]]
    reps += [direct_sum(hc_to_quiver(frags[1]), hc_to_quiver(frags[2])),
             direct_sum(build_cyclic_module(GELFAND, "+", "c", 2), hc_to_quiver(frags[0]))]
    for value in reps + frags:
        again = _dense_round_trip(value)
        assert again == value and again.to_json() == value.to_json()


def test_dense_views_are_built_on_first_access_and_kept():
    rep = build_cyclic_module(GELFAND, "-", "b", 2)
    frag = random_fragment(3, 2, seed=1)
    rep.to_json()
    frag.to_json()
    classify_cyclic(rep)
    iso_two_descriptions(frag)
    assert "maps" not in vars(rep) and "x_minus" not in vars(frag)
    assert rep.maps is rep.maps and frag.xs is frag.xs and frag.z_minus is None
    assert frag.x_minus == tuple(map(tuple, frag.int_maps["x_minus"].to_dense()))
    with pytest.raises(AttributeError):
        getattr(frag, "w_minus")
    l0 = HCFragment(0, z_minus=ZERO, z_plus=ONE)
    assert (l0.x_minus, l0.xs, l0.ys, l0.z_plus) == (None, (), (), ((Fraction(1),),))
