import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest

from polymaass import quiverrep
from polymaass.classify import BK_TO_MODULE, BK_TO_REPR, CaseLabel, WeightContext, \
    expected_dimension_vector
from polymaass.quiverrep import (CYCLIC, GELFAND, NODES, HCFragment, QuiverRep,
                                 build_cyclic_module, classify_cyclic,
                                 cyclic_module_dims, direct_sum, endomorphism_basis,
                                 has_only_trivial_idempotents, hc_to_quiver,
                                 invariants_of, is_cyclic,
                                 iso_two_descriptions, random_fragment,
                                 second_description)
from polymaass.linalg import identity, mat_mul, rref, solve_linear, zeros
from polymaass.symcalc import DomainError

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


def test_cyclic_modules_have_local_endomorphisms():
    # every built module up to the largest depths the benchmark runs
    modules = [(GELFAND, t, c, d) for t, top in (("*", 9), ("+", 4), ("-", 4))
               for c in "abcd" for d in range(top + 1)
               if not (c == "d" and t in "+-" and d == 0)]
    modules += [(CYCLIC, t, c, d) for t in "+-" for c in "ab" for d in range(10)]
    for quiver, t, c, d in modules:
        rep = build_cyclic_module(quiver, t, c, d)
        assert classify_cyclic(rep) == (t, c, d)
        assert has_only_trivial_idempotents(rep)
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


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_poly_in_matrix_matches_reference_loop(l, dim):
    # the (Y_* X_*, C_1) pair that iso_two_descriptions solves
    degrees = set()
    for seed in range(40):
        frag = random_fragment(l, dim, seed=seed)
        target = mat_mul(frag.y_star(), frag.x_star(), dim)
        base = quiverrep._casimir_ends(frag)[1]
        p = quiverrep._poly_in_matrix(target, base)
        assert p == reference_poly_in_matrix(target, base)
        degrees.add(len(p))
    # at l = 1 or dim = 1 every target is a scalar; otherwise some seed
    # needs a power of the base
    assert (max(degrees) > 1) == (l > 1 and dim > 1)


def test_poly_in_matrix_gives_up_after_n_solves(monkeypatch):
    # diagonal entries 1 and 2 are no polynomial in a scalar base
    solves = []

    def counting(rows, b):
        solves.append(len(rows[0]))
        return solve_linear(rows, b)

    monkeypatch.setattr(quiverrep, "solve_linear", counting)
    base = [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(3)]]
    target = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    with pytest.raises(DomainError, match="not Casimir-consistent"):
        quiverrep._poly_in_matrix(target, base)
    assert solves == [1, 2]
    with pytest.raises(DomainError, match="not Casimir-consistent"):
        reference_poly_in_matrix(target, base)


def test_fragment_rejects_singular_interior():
    frag = random_fragment(2, 2, seed=3)
    with pytest.raises(DomainError, match="interior map is not invertible"):
        HCFragment(2, x_minus=frag.x_minus,
                   xs=([[Fraction(0)] * 2] * 2,), x_plus=frag.x_plus,
                   y_plus=frag.y_plus, ys=frag.ys, y_minus=frag.y_minus)


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


def test_endomorphism_basis_dimension():
    rep = build_cyclic_module(GELFAND, "*", "b", 1)
    basis = endomorphism_basis(rep)
    # local algebra Q[t]/t^2 expected for P_*-truncations
    assert len(basis) == 2


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
