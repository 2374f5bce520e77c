"""Exact-arithmetic toolkit for graded quiver algebras and higher Koszulity.

Everything runs over the rationals with no floating point; verdicts are
exact yes/no answers over explicitly recorded windows and bounds.

Importing the package loads none of its modules: each public name below is
looked up in its home module on first use (PEP 562), so a command pays only
for the modules it runs. The lookup is not cached here, so a name always
reads whatever its home module currently binds.
"""

import importlib

# Each public name's home module; a module name maps to itself.
_PUBLIC = {
    "linalg": ("linalg",),
    "algebra": ("algebra", "GradedAlgebra", "InputError", "InternalCheckError",
                "trivial_extension"),
    "frobenius": ("frobenius", "GradedAlgebraMorphism", "frobenius_analysis"),
    "presentation": ("presentation", "Arrow", "Quiver", "Relation",
                     "build_algebra", "parse_algebra_file",
                     "parse_algebra_source", "path_count"),
    "modules": ("modules", "DirectSum", "GradedModule", "GradedModuleHom",
                "dual_of_left_projective", "graded_dual_module",
                "hom_space", "inflate_module", "injective_envelope",
                "is_indecomposable", "is_isomorphic", "parse_module_file",
                "parse_module_source", "projective_cover", "projective_module",
                "regular_module", "shift_module", "simple_module",
                "stable_hom", "twist_module"),
    "resolution": ("resolution", "ExtTable", "MinimalResolution", "ext_table",
                   "gldim_upto", "tilting_module_check", "ungraded_ext_dim"),
    "truncated": ("truncated", "TruncatedGradedAlgebra", "find_graded_iso",
                  "koszul_dual", "quasi_veronese", "truncate_algebra",
                  "twist_algebra"),
    "koszul": ("koszul", "KoszulReport", "build_mu_bar", "build_t_tilde",
               "check_almost_self_orthogonal", "check_classic_almost_koszul",
               "check_n_T_koszul", "check_n_m_sigma_koszul",
               "check_self_orthogonal", "mu_permutation", "rigidity_check",
               "serre_dimension_identity", "stable_endomorphism_algebra"),
    "hereditary": ("hereditary", "NRepReport", "derived_nu_inverse_power",
                   "injective_module", "is_n_rep_finite",
                   "is_n_rep_infinite_upto", "preprojective_algebra"),
    "verify": ("verify",),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
