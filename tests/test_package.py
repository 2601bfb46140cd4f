import importlib
import os
import subprocess
import sys

import pytest

import polymaass
from polymaass import specsolve, symcalc

EXPORTS = {
    "scalars": ("Scalar", "DomainError"),
    "symcalc": ("Form", "PolyAtom", "SpectralAtom", "Family", "make_e_atom",
                "apply_lowering", "apply_raising", "apply_laplace", "apply_mirror",
                "apply_flip", "apply_power", "expand_pending", "is_zero", "forms_equal",
                "pretty", "form_to_json", "form_from_json", "atom_E", "atom_P",
                "atom_incoherent", "form_of"),
    "specsolve": ("GradedVector", "WModel", "build_w0", "solve_wd", "brute_force_wd",
                  "emit_form", "preimage_constant_weight", "preimage_incoherent",
                  "construct_case", "eisenstein_family", "poincare_family"),
    "linalg": ("kernel",),
    "classify": ("CaseLabel", "WeightContext", "classify_bk", "exact_depth",
                 "expected_dimension_vector"),
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_exports_are_pinned():
    assert len(NAMES) == len(set(NAMES)) == 40
    assert sorted(polymaass.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_export_is_its_module_binding(module):
    mod = importlib.import_module("polymaass." + module)
    for name in EXPORTS[module]:
        assert getattr(polymaass, name) is getattr(mod, name)


def test_export_reads_the_current_binding(monkeypatch):
    # wrapping a function in its module wraps the package name too, and
    # undoing the wrap undoes both
    original = symcalc.pretty
    monkeypatch.setattr(symcalc, "pretty", lambda f: "wrapped")
    assert polymaass.pretty(None) == "wrapped"
    monkeypatch.undo()
    assert polymaass.pretty is original


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'polymaass' has no attribute 'solve'"):
        polymaass.solve
    assert not hasattr(polymaass, "BK_TO_MODULE")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from polymaass import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert all(namespace[name] is getattr(polymaass, name) for name in NAMES)


def test_case_labels_have_one_definition():
    assert specsolve.BK_CASES is polymaass.BK_CASES
    assert len(set(polymaass.BK_CASES)) == 10


def test_import_loads_a_module_on_first_use():
    src = os.path.dirname(os.path.dirname(polymaass.__file__))
    code = ("import sys, polymaass\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('polymaass.'))\n"
            "print(loaded()); polymaass.kernel; print(loaded())")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines() == ["[]", "['polymaass.linalg']"]
