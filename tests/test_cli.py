import json
import os
import subprocess
import sys

import pytest

import polymaass
from polymaass.cli import main
from polymaass.specsolve import construct_case
from polymaass.symcalc import form_from_json, form_to_json, forms_equal


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


def test_flip_weight_error_exit_code(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(form_to_json(construct_case("IIa", 1, 0))))
    code, _, err = run(capsys, "apply", "--op", "flip", "--in", str(path))
    assert code == 2
    assert "weight" in err


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


def test_quiver_from_hc_rejects_mismatched_shapes(capsys, tmp_path):
    path = tmp_path / "frag.json"
    path.write_text(json.dumps({
        "l": 1, "x_minus": [["0", "0"], ["0", "0"]], "xs": [], "x_plus": [["1"]],
        "y_plus": [["0"]], "ys": [], "y_minus": [["1", "0"], ["0", "1"]]}))
    code, _, err = run(capsys, "quiver", "from-hc", "--in", str(path))
    assert code == 2
    assert err.startswith("error: ")


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


def test_solve_verb(capsys):
    code, out, _ = run(capsys, "solve", "--k", "0", "--m", "3", "--branch", "L",
                       "--d", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["layers"][1] == ["11/216", "3/8", "1", "0"]
    assert data["preimage_scale"] == "16"


def test_usage_error_exit_code(capsys):
    assert main(["construct", "--case", "bogus"]) == 1
    assert main(["--definitely-not-a-flag"]) == 1


def test_verify_fast(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ebasis", "--n", "40")
    assert code == 0
    assert "pass" in out


def test_cli_import_leaves_numpy_unloaded():
    # only the verify verb needs numcheck, and with it numpy
    src = os.path.dirname(os.path.dirname(polymaass.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, polymaass.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"
