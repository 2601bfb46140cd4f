"""Exact symbolic engine for polyharmonic weak Maass forms: operator
calculus on spectral-family atoms, graded Laplace-preimage solving,
Harish-Chandra case classification, cyclic quiver modules, and a
floating-point harness for the analytic operator identities.

Importing the package loads none of its modules: each name of
``__all__`` is looked up in its module on first use (PEP 562), so a
caller, the CLI among them, pays only for the modules it runs.  The
lookup is not cached here, so a name always reads its module's current
binding.
"""

from importlib import import_module

__version__ = "0.1.0"

# the ten Harish-Chandra case labels, here so that the CLI parser can
# offer them without loading the solver
BK_CASES = ("Ia", "Ib", "Ic", "Id", "IIa", "IIb", "IIIa", "IIIb", "IIIc", "IIId")

_EXPORTS = {   # module: the names it exports here
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    return getattr(import_module("." + module, __name__), name)
