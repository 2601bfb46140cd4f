import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import polymaass
from polymaass.cli import main
from polymaass.specsolve import construct_case
from polymaass.symcalc import (EISENSTEIN, DomainError, Family, PolyAtom, SpectralAtom,
                               apply_mirror, apply_power, atom_E, expand_pending, form_from_json,
                               form_of, form_to_json, forms_equal)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_golden_text(capsys):
    code, out, _ = run(capsys, "construct", "--case", "Ia", "--k", "-3", "--d", "2")
    assert code == 0
    assert out.strip() == (
        "1/72 e_{0,3} L^3 E^(2)_{0,0}  +  1/8 e_{1,2} L^2 E^(2)_{0,0}  +  "
        "1/2 e_{2,1} L E^(2)_{0,0}  +  1/2 e_{3,0} E^(2)_{0,0}  +  "
        "11/216 e_{0,3} L^3 E^(1)_{0,0}  +  3/8 e_{1,2} L^2 E^(1)_{0,0}  +  "
        "e_{2,1} L E^(1)_{0,0}")


def test_construct_json_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--case", "IIIb", "--k", "4",
                       "--d", "1", "--json")
    assert code == 0
    form = form_from_json(json.loads(out))
    assert forms_equal(form, construct_case("IIIb", 4, 1))


def test_apply_and_classify_pipeline(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(form_to_json(construct_case("Ia", -2, 1))))
    code, out, _ = run(capsys, "classify", "--in", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bk"] == "Ia" and data["depth"] == 1

    code, out, _ = run(capsys, "apply", "--op", "laplace", "--in", str(path),
                       "--json")
    assert code == 0
    lowered = form_from_json(json.loads(out))
    assert lowered.weight == -2

    code, out, _ = run(capsys, "expand", "--in", str(path), "--json")
    assert code == 0
    assert all(t["spectral"]["pending"] is None
               for t in json.loads(out)["terms"])


@pytest.mark.parametrize("argv,op", [
    (("--op", "raising", "--power", "2"), lambda f: apply_power(f, "R", 2)),
    (("--op", "mirror"), lambda f: apply_mirror(expand_pending(f))),
], ids=["raising", "mirror"])
def test_apply_matches_the_library(capsys, tmp_path, argv, op):
    form = construct_case("Ia", -2, 1)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(form_to_json(form)))
    code, out, _ = run(capsys, "apply", *argv, "--in", str(path), "--json")
    assert code == 0
    assert forms_equal(form_from_json(json.loads(out)), op(form))


@pytest.mark.parametrize("label,k,d", [
    (label, k, d) for label, k in (("Ia", "-1"), ("Id", "-1"), ("IIb", "1"))
    for d in ("17", "20")])
def test_construct_classify_pipe_at_large_depth(capsys, monkeypatch, label, k, d):
    code, out, _ = run(capsys, "construct", "--case", label, "--k=" + k, "--d=" + d,
                       "--json")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = run(capsys, "classify", "--json", "--in", "-")
    assert code == 0
    data = json.loads(out)
    assert (data["bk"], data["depth"], data["k"]) == (label, int(d), int(k))


def test_classify_rejects_non_polyharmonic_form(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(form_to_json(form_of(PolyAtom(0, 0), atom_E(0, 2)))))
    code, out, err = run(capsys, "classify", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.strip().endswith("not polyharmonic")


def test_raising_the_incoherent_seed_drops_the_atom_where_the_family_vanishes(
        capsys, monkeypatch):
    # R E-^(0) at the base point is 1 * E-^(0) at (3, -1) plus 1 * the order-0
    # atom there, which is zero: the family vanishes up its R chain
    code, out, _ = run(capsys, "construct", "--case", "IIb", "--k=1", "--d=0", "--json")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = run(capsys, "apply", "--op", "raising", "--in", "-")
    assert (code, out.strip()) == (0, "E-^(0)_{D=3}")


def test_classify_refuses_an_incoherent_atom_below_its_vanishing_order(capsys, tmp_path):
    path = tmp_path / "f.json"
    data = {"weight": 3, "terms": [{"poly": {"m": 0, "r": 0}, "spectral": {
        "family": {"kind": "incoherent", "disc": 3}, "weight": 3, "point": "-1",
        "laurent": 0, "pending": None}, "coeff": [{"pi_exp": 0, "num": "1", "den": "1"}]}]}
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "classify", "--in", str(path))
    assert (code, out, err.strip()) == (2, "", "error: atom is identically zero")


def test_apply_refuses_a_negative_laurent_index(capsys, monkeypatch):
    data = {"weight": 2, "terms": [{"poly": {"m": 0, "r": 0}, "spectral": {
        "family": {"kind": "eisenstein"}, "weight": 2, "point": "0", "laurent": -1,
        "pending": None}, "coeff": [{"pi_exp": 0, "num": "1", "den": "1"}]}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
    code, out, err = run(capsys, "apply", "--op", "lowering", "--in", "-")
    assert (code, out, err.strip()) == (2, "", "error: laurent index must be nonnegative, got -1")


def test_classify_has_no_depth_bound_option(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(form_to_json(construct_case("Ia", -2, 1))))
    code, _, _ = run(capsys, "classify", "--in", str(path), "--depth-bound", "5")
    assert code == 1


def test_form_json_with_character_field_is_rejected(capsys, tmp_path):
    data = form_to_json(construct_case("Ia", -2, 1))
    data["terms"][0]["spectral"]["family"]["character"] = "chi_-4"
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    for verb in (("classify",), ("expand",), ("apply", "--op", "laplace")):
        code, out, err = run(capsys, *verb, "--in", str(path))
        assert code == 2
        assert out == ""
        assert "character" in err


def test_flip_weight_error_exit_code(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(form_to_json(construct_case("IIa", 1, 0))))
    code, _, err = run(capsys, "apply", "--op", "flip", "--in", str(path))
    assert code == 2
    assert "weight" in err


@pytest.mark.parametrize("case", ["IIIb --k=3", "Ib --k=-1", "IIb --k=1"])
def test_construct_with_a_family_for_a_one_anchor_case_exits_2(capsys, case):
    label, k = case.split()
    code, out, err = run(capsys, "construct", "--case", label, k, "--d=1", "--family=poincare")
    assert code == 2 and out == ""
    assert err.strip() == "error: case %s has one anchor and takes no family" % label
    assert run(capsys, "construct", "--case", label, k, "--d=1")[0] == 0


def test_construct_refuses_a_positive_poincare_index(capsys):
    with pytest.raises(DomainError) as err:
        construct_case("Ib", -1, 1, index=2)
    assert str(err.value) == "Poincare index must be negative (principal part)"
    code, out, err = run(capsys, "construct", "--case", "Ib", "--k=-1", "--d=1", "--index=2")
    assert code == 2 and out == ""
    assert err.strip() == "error: Poincare index must be negative (principal part)"


def test_quiver_build_error_exit_code(capsys):
    code, _, err = run(capsys, "quiver", "build", "--quiver", "gelfand",
                       "--type", "plus", "--case", "d", "--depth", "0")
    assert code == 2


def test_quiver_build_and_classify(capsys, tmp_path):
    code, out, _ = run(capsys, "quiver", "build", "--quiver", "gelfand",
                       "--type", "star", "--case", "a", "--depth", "2", "--json")
    assert code == 0
    path = tmp_path / "rep.json"
    path.write_text(out)
    code, out, _ = run(capsys, "quiver", "classify", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"type": "*", "case": "a", "d": 2}


@pytest.mark.parametrize("data", [
    {"quiver": "cyclic", "dims": {"-": 2, "+": 1},
     "maps": {"a": [["1"]], "b": [["0"], ["1"]]}},
    {"quiver": "kronecker", "dims": {"-": 1, "+": 1},
     "maps": {"a": [["0"]], "b": [["0"]]}},
    {"quiver": "cyclic", "dims": {"-": 1, "*": 1, "+": 1},
     "maps": {"a": [["0"]], "b": [["0"]]}},
    {"quiver": "cyclic", "dims": {"-": -1, "+": 1},
     "maps": {"a": [], "b": [[]]}},
    {"quiver": "cyclic", "dims": {"-": 1, "+": 1},
     "maps": {"a": [["0"]], "c": [["0"]]}},
    {"quiver": "gelfand", "dims": {"-": 1, "*": 1, "+": 1},
     "maps": {"A-": [["1"]], "B-": [["1"]], "A+": [["0"]], "B+": [["0"]]}},
    {"quiver": "cyclic", "dims": {"-": 1, "+": 1},
     "maps": {"a": None, "b": [["0"]]}},
], ids=["shape", "quiver", "nodes", "negative", "arrows", "relation", "null"])
def test_quiver_classify_rejects_malformed_json(capsys, tmp_path, data):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "quiver", "classify", "--in", str(path))
    assert code == 2
    assert err.startswith("error: ")


def _form_json(mutate):
    data = form_to_json(construct_case("Ia", -2, 1))
    mutate(data)
    return data


@pytest.mark.parametrize("argv,data", [
    (("classify",), _form_json(lambda d: d["terms"][0]["spectral"].update(point="1/0"))),
    (("classify",), _form_json(lambda d: d["terms"][0]["coeff"][0].update(den="0"))),
    (("classify",), [_form_json(lambda d: None)]),
    (("quiver", "classify"), {"quiver": "cyclic", "dims": {"-": 1, "+": 1},
                              "maps": {"a": [["1/0"]], "b": [["0"]]}}),
    (("quiver", "classify"), {"quiver": "cyclic", "dims": {"-": 2, "+": 1},
                              "maps": {"a": ["00"], "b": ["0", "1"]}}),
    (("quiver", "from-hc"), {"l": 1, "x_minus": [["1/0"]], "xs": [], "x_plus": [["1"]],
                             "y_plus": [["0"]], "ys": [], "y_minus": [["1"]]}),
], ids=["form-point", "form-den", "form-list", "quiver-rep", "quiver-rep-string-row",
        "fragment"])
def test_malformed_json_exits_2(capsys, tmp_path, argv, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed ")


@pytest.mark.parametrize("weight, laurent", [(0, 2), (2, 0)])
def test_constant_atom_off_the_constant_function_exits_2(capsys, tmp_path, weight, laurent):
    # once read as the depth-0 case Ia (the second derivative of a
    # constant) and as IIIa (a weight-2 constant)
    const = {"poly": {"m": 0, "r": 0},
             "spectral": {"family": {"kind": "constant"}, "weight": weight, "point": "0",
                          "laurent": laurent, "pending": None},
             "coeff": [{"pi_exp": 0, "num": "1", "den": "1"}]}
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"weight": weight, "terms": [const]}))
    code, out, err = run(capsys, "classify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == "error: a constant atom has weight 0, point 0 and laurent index 0, " \
                  "not %d, 0 and %d\n" % (weight, laurent)


def test_malformed_pole_table_exits_2(capsys, tmp_path, monkeypatch):
    form = tmp_path / "f.json"
    form.write_text(json.dumps(form_to_json(construct_case("Ia", -2, 1))))
    table = tmp_path / "poles.json"
    table.write_text(json.dumps([{"family": {"kind": "eisenstein"}, "weight": 0,
                                  "point": "1/0", "residue_form": {"weight": 0,
                                                                   "terms": []}}]))
    monkeypatch.setenv("POLYMAASS_POLE_TABLE", str(table))
    code, out, err = run(capsys, "classify", "--in", str(form))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed pole table JSON")
    # the table is loaded for every verb, also those that never read it
    for argv in (("construct", "--case", "Ia", "--k", "-2", "--d", "1"),
                 ("solve", "--k", "0", "--m", "3", "--branch", "L", "--d", "2"),
                 ("apply", "--op", "raising", "--in", str(form)), ("expand", "--in", str(form)),
                 ("quiver", "fragment", "--l", "1"), ("verify", "--suite", "ebasis", "--n", "1")):
        assert run(capsys, *argv) == (2, "", err)


def test_pole_table_with_pending_residue_exits_2(capsys, tmp_path, monkeypatch):
    form = tmp_path / "e2.json"
    form.write_text(json.dumps(form_to_json(form_of(PolyAtom(0, 0), atom_E(2, 0)))))
    # the residue L E_{2,-1} at (E, 0, 1) holds a pending atom
    residue = form_to_json(form_of(PolyAtom(0, 0), SpectralAtom(
        Family(EISENSTEIN), 2, Fraction(-1), 0, ("L", 1))))
    table = tmp_path / "poles.json"
    table.write_text(json.dumps([{"family": {"kind": "eisenstein"}, "weight": 0,
                                  "point": "1", "residue_form": residue}]))
    monkeypatch.setenv("POLYMAASS_POLE_TABLE", str(table))
    code, out, err = run(capsys, "apply", "--op", "lowering", "--in", str(form))
    assert (code, out) == (2, "")
    assert err.startswith("error: pole residues must be expanded")


def test_pole_table_applies_to_one_call(capsys, tmp_path, monkeypatch):
    form = tmp_path / "e2.json"
    form.write_text(json.dumps(form_to_json(form_of(PolyAtom(0, 0), atom_E(2, 0)))))
    table = tmp_path / "poles.json"
    table.write_text("[]")
    monkeypatch.setenv("POLYMAASS_POLE_TABLE", str(table))
    assert run(capsys, "apply", "--op", "lowering", "--in", str(form)) == \
        (0, "0  (weight 0)\n", "")
    # the empty table was in force for that call only
    monkeypatch.delenv("POLYMAASS_POLE_TABLE")
    assert run(capsys, "apply", "--op", "lowering", "--in", str(form)) == \
        (0, "3*pi^-1 1\n", "")


def test_float_laurent_exits_2(capsys, tmp_path):
    data = form_to_json(form_of(PolyAtom(0, 0), atom_E(2, 0, 1)))
    data["terms"][0]["spectral"]["laurent"] = 1.5
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "apply", "--op", "lowering", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed form JSON")


def test_float_point_exits_2(capsys, tmp_path):
    data = form_to_json(form_of(PolyAtom(0, 0), atom_E(2, 0, 1)))
    data["terms"][0]["spectral"]["point"] = 0.1
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "apply", "--op", "lowering", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed form JSON")


def _with_true(data, path):
    """A copy of data with the field at path set to JSON true."""
    data = json.loads(json.dumps(data))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = True
    return data


FORM_TERM = ("terms", 0)
SPECTRAL = FORM_TERM + ("spectral",)
POLE_ENTRY = {"family": {"kind": "eisenstein"}, "weight": 0, "point": "1", "order": 1,
              "residue_form": {"weight": 0, "terms": []}}


# JSON true and false load as Python bools, which are ints too; every
# integer and rational field must refuse them
@pytest.mark.parametrize("case,path", [
    (("Ia", -2, 1), ("weight",)),
    (("Ia", -2, 1), FORM_TERM + ("poly", "m")),
    (("Ia", -2, 1), FORM_TERM + ("poly", "r")),
    (("Ia", -2, 1), SPECTRAL + ("weight",)),
    (("Ia", -2, 1), SPECTRAL + ("point",)),
    (("Ia", -2, 1), SPECTRAL + ("laurent",)),
    (("Ia", -2, 1), SPECTRAL + ("pending", "power")),
    (("Ib", -2, 1), SPECTRAL + ("family", "index")),
    (("IIb", 1, 1), SPECTRAL + ("family", "disc")),
    (("Ia", -2, 1), FORM_TERM + ("coeff", 0, "pi_exp")),
    (("Ia", -2, 1), FORM_TERM + ("coeff", 0, "num")),
    (("Ia", -2, 1), FORM_TERM + ("coeff", 0, "den")),
], ids=lambda x: "-".join(map(str, x)))
def test_form_json_with_true_for_a_number_exits_2(capsys, tmp_path, case, path):
    data = form_to_json(construct_case(*case))
    f = tmp_path / "f.json"
    f.write_text(json.dumps(data))
    assert run(capsys, "expand", "--in", str(f))[0] == 0
    f.write_text(json.dumps(_with_true(data, path)))
    code, out, err = run(capsys, "expand", "--in", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed ")   # form JSON, or scalar JSON for a coeff


@pytest.mark.parametrize("field", ["weight", "point", "order"])
def test_pole_table_with_true_for_a_number_exits_2(capsys, tmp_path, monkeypatch, field):
    form = tmp_path / "f.json"
    form.write_text(json.dumps(form_to_json(construct_case("Ia", -2, 1))))
    table = tmp_path / "poles.json"
    monkeypatch.setenv("POLYMAASS_POLE_TABLE", str(table))
    table.write_text(json.dumps([POLE_ENTRY]))
    assert run(capsys, "expand", "--in", str(form))[0] == 0
    table.write_text(json.dumps([_with_true(POLE_ENTRY, (field,))]))
    code, out, err = run(capsys, "expand", "--in", str(form))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed pole table JSON: ")


def test_apply_rejects_a_negative_power_for_every_power_operator(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(form_to_json(construct_case("Ia", -2, 1))))
    for op in ("raising", "lowering", "laplace"):
        assert run(capsys, "apply", "--op", op, "--power", "-1", "--in", str(path)) == \
            (2, "", "error: operator power must be nonnegative\n")


def test_apply_laplace_power_is_one_call(capsys, tmp_path, monkeypatch):
    from polymaass import symcalc
    path = tmp_path / "f.json"
    path.write_text(json.dumps(form_to_json(construct_case("IIIb", 3, 2))))
    calls = []
    laplace = symcalc.apply_laplace
    monkeypatch.setattr(symcalc, "apply_laplace", lambda f, p: calls.append(p) or laplace(f, p))
    code, out, _ = run(capsys, "apply", "--op", "laplace", "--power", "3", "--json",
                       "--in", str(path))
    assert (code, calls) == (0, [3])
    monkeypatch.undo()
    form = construct_case("IIIb", 3, 2)
    for _ in range(3):
        form = symcalc.apply_laplace(form)
    assert form_from_json(json.loads(out)) == form


def test_quiver_from_hc_rejects_mismatched_shapes(capsys, tmp_path):
    path = tmp_path / "frag.json"
    path.write_text(json.dumps({
        "l": 1, "x_minus": [["0", "0"], ["0", "0"]], "xs": [], "x_plus": [["1"]],
        "y_plus": [["0"]], "ys": [], "y_minus": [["1", "0"], ["0", "1"]]}))
    code, _, err = run(capsys, "quiver", "from-hc", "--in", str(path))
    assert code == 2
    assert err.startswith("error: ")


L1_FRAGMENT = {"l": 1, "x_minus": [["0"]], "xs": [], "x_plus": [["1"]],
               "y_plus": [["0"]], "ys": [], "y_minus": [["1"]]}


@pytest.mark.parametrize("data,message", [
    (dict(L1_FRAGMENT, z_minus=[["0"]]), "an l = 1 fragment takes no z_minus"),
    (dict(L1_FRAGMENT, extra=1), "fragment JSON has unknown keys ['extra']"),
    ({"l": 0, "z_minus": [["0"]], "z_plus": [["1"]], "x_minus": [["0"]]},
     "an l = 0 fragment takes no x_minus"),
    (dict(L1_FRAGMENT, l=-1), "l must be nonnegative"),
    (dict(L1_FRAGMENT, l=2, xs=[[["0"]]], ys=[[["1"]]]), "interior map is not invertible"),
    (dict(L1_FRAGMENT, l=2, xs=[["1"]], ys=[["1"]]),
     "malformed fragment JSON: a matrix must be a list of row lists, not ['1']"),
    (dict(L1_FRAGMENT, x_minus=["0"]),
     "malformed fragment JSON: a matrix must be a list of row lists, not ['0']"),
], ids=["stray-z", "unknown-key", "stray-x", "negative-l", "singular", "string-interior-row",
        "string-end-row"])
def test_quiver_from_hc_rejects_invalid_fragments(capsys, tmp_path, data, message):
    path = tmp_path / "frag.json"
    path.write_text(json.dumps(L1_FRAGMENT))
    assert run(capsys, "quiver", "from-hc", "--in", str(path))[0] == 0
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "quiver", "from-hc", "--in", str(path))
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv,data,path,what", [
    (("quiver", "classify"), {"quiver": "cyclic", "dims": {"-": 1, "+": 0},
                              "maps": {"a": [], "b": [[]]}}, ("dims", "-"),
     "quiver representation"),
    (("quiver", "from-hc"), L1_FRAGMENT, ("l",), "fragment JSON"),
], ids=["quiver-dims", "fragment-l"])
def test_quiver_json_with_true_for_a_number_exits_2(capsys, tmp_path, argv, data, path, what):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(data))
    assert run(capsys, *argv, "--in", str(f))[0] == 0
    f.write_text(json.dumps(_with_true(data, path)))
    code, out, err = run(capsys, *argv, "--in", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed %s: " % what)


def test_quiver_classify_has_no_seed_option(capsys, tmp_path):
    code, _, _ = run(capsys, "quiver", "classify", "--in", str(tmp_path / "r.json"),
                     "--seed", "1")
    assert code == 1


def test_quiver_fragment_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "quiver", "fragment", "--l", "2", "--dim", "2",
                       "--seed", "9")
    assert code == 0
    path = tmp_path / "frag.json"
    path.write_text(out)
    code, out, _ = run(capsys, "quiver", "from-hc", "--in", str(path), "--iso")
    assert code == 0
    assert "iso witness verified" in out
    code, out, _ = run(capsys, "quiver", "from-hc", "--in", str(path),
                       "--second", "--json")
    assert code == 0
    assert json.loads(out)["quiver"] == "gelfand"


def test_quiver_from_hc_with_zero_lower_end(capsys, tmp_path):
    # the Gelfand (*, a, 0) shape: M_{-l-1} = M_{l+1} = 0, M_{-l+1} a line
    path = tmp_path / "frag.json"
    path.write_text(json.dumps({"l": 2, "x_minus": [[]], "xs": [[["1"]]], "x_plus": [],
                                "y_plus": [[]], "ys": [[["1"]]], "y_minus": []}))
    code, out, _ = run(capsys, "quiver", "from-hc", "--in", str(path), "--iso", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["iso"] == {"T": [], "X*": [["1"]]}
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(data["rep"]))
    code, out, _ = run(capsys, "quiver", "classify", "--in", str(rep_path), "--json")
    assert code == 0
    assert json.loads(out) == {"type": "*", "case": "a", "d": 0}


def test_solve_verb(capsys):
    code, out, _ = run(capsys, "solve", "--k", "0", "--m", "3", "--branch", "L",
                       "--d", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["layers"][1] == ["11/216", "3/8", "1", "0"]
    assert data["preimage_scale"] == "16"


@pytest.mark.parametrize("m,d,message", [
    ("-5", "1", "m must be nonnegative"), ("2", "-1", "m and d must be nonnegative")])
def test_solve_rejects_negative_m_and_d(capsys, m, d, message):
    code, out, err = run(capsys, "solve", "--k", "3", "--m", m, "--branch", "R", "--d", d)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_usage_error_exit_code(capsys):
    assert main(["construct", "--case", "bogus"]) == 1
    assert main(["--definitely-not-a-flag"]) == 1


def test_verify_fast(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ebasis", "--n", "40")
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_rejects_invalid_tolerance(capsys, tol):
    code, out, err = run(capsys, "verify", "--suite", "ebasis", "--n", "10", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


ENGINE = {"symcalc", "specsolve", "linalg", "classify", "quiverrep", "numcheck", "numpy"}
HELP_ARGV = [(), ("construct",), ("solve",), ("apply",), ("expand",), ("classify",),
             ("quiver",), ("quiver", "build"), ("quiver", "classify"), ("quiver", "from-hc"),
             ("quiver", "fragment"), ("verify",)]
# runs main(argv) and prints the package modules it loaded, and numpy if it did
LOADED = """import contextlib, io, json, sys
from polymaass.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = {m.partition(".")[2] for m in sys.modules if m.startswith("polymaass.")}
if "numpy" in sys.modules:
    loaded.add("numpy")
print(json.dumps([code, sorted(loaded)]))
"""
FORM_FILE = "<form file>"   # replaced by the path of a case form's JSON


@pytest.mark.parametrize("argv,unloaded", [
    pytest.param(argv + ("--help",), ENGINE, id="-".join(argv + ("help",)))
    for argv in HELP_ARGV] + [
    pytest.param(("quiver", "build", "--quiver", "gelfand", "--type", "star", "--case", "a",
                  "--depth", "2"), {"symcalc", "specsolve", "classify", "numcheck", "numpy"},
                 id="quiver-build"),
    pytest.param(("solve", "--k", "0", "--m", "3", "--branch", "L", "--d", "2"),
                 {"classify", "quiverrep", "numcheck", "numpy"}, id="solve"),
    pytest.param(("classify", "--in", FORM_FILE),
                 {"quiverrep", "linalg", "specsolve", "numcheck", "numpy"}, id="classify"),
])
def test_cli_imports_only_what_the_verb_runs(argv, unloaded, tmp_path):
    if FORM_FILE in argv:
        form_file = tmp_path / "f.json"
        form_file.write_text(json.dumps(form_to_json(construct_case("IIIb", 4, 2))))
        argv = [str(form_file) if arg == FORM_FILE else arg for arg in argv]
    src = os.path.dirname(os.path.dirname(polymaass.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    code, loaded = json.loads(out)
    assert code == 0
    assert "cli" in loaded and "scalars" in loaded
    assert not unloaded & set(loaded), loaded
