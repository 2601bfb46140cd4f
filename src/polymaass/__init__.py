"""Exact symbolic engine for polyharmonic weak Maass forms: operator
calculus on spectral-family atoms, graded Laplace-preimage solving,
Harish-Chandra case classification, cyclic quiver modules, and a
floating-point harness for the analytic operator identities."""

from .scalars import Scalar
from .symcalc import (Form, PolyAtom, SpectralAtom, Family, DomainError,
                      make_e_atom, apply_lowering, apply_raising, apply_laplace,
                      apply_mirror, apply_flip, apply_power, expand_pending,
                      is_zero, forms_equal, pretty, form_to_json, form_from_json,
                      atom_E, atom_P, atom_incoherent, form_of)
from .specsolve import (GradedVector, WModel, build_w0, solve_wd, brute_force_wd,
                        emit_form, preimage_constant_weight, preimage_incoherent,
                        construct_case, eisenstein_family, poincare_family)
from .linalg import kernel
from .classify import CaseLabel, WeightContext, classify_bk, exact_depth, \
    expected_dimension_vector

__version__ = "0.1.0"
