"""Exact-arithmetic toolkit for graded quiver algebras and higher Koszulity.

Everything runs over the rationals with no floating point; verdicts are
exact yes/no answers over explicitly recorded windows and bounds.
"""

from .algebra import (
    GradedAlgebra,
    InputError,
    InternalCheckError,
    trivial_extension,
)
from .frobenius import GradedAlgebraMorphism, frobenius_analysis
from .presentation import (
    Arrow,
    Quiver,
    Relation,
    build_algebra,
    parse_algebra_file,
    parse_algebra_source,
    path_count,
)
from .modules import (
    DirectSum,
    GradedModule,
    GradedModuleHom,
    cosyzygy,
    dual_of_left_projective,
    graded_dual_module,
    hom_space,
    inflate_module,
    injective_envelope,
    is_indecomposable,
    is_isomorphic,
    parse_module_file,
    parse_module_source,
    projective_cover,
    projective_module,
    regular_module,
    shift_module,
    simple_module,
    stable_hom,
    syzygy,
    twist_module,
)
from .resolution import (
    ExtTable,
    MinimalResolution,
    ext_table,
    gldim_upto,
    tilting_module_check,
    ungraded_ext_dim,
)
from .truncated import (
    TruncatedGradedAlgebra,
    find_graded_iso,
    koszul_dual,
    quasi_veronese,
    truncate_algebra,
    twist_algebra,
)
from .koszul import (
    KoszulReport,
    build_mu_bar,
    build_t_tilde,
    check_almost_self_orthogonal,
    check_classic_almost_koszul,
    check_n_T_koszul,
    check_n_m_sigma_koszul,
    check_self_orthogonal,
    mu_permutation,
    rigidity_check,
    serre_dimension_identity,
    stable_endomorphism_algebra,
)
from .hereditary import (
    NRepReport,
    derived_nu_inverse_power,
    injective_module,
    is_n_rep_finite,
    is_n_rep_infinite_upto,
    preprojective_algebra,
)
from . import verify

__all__ = [name for name in dir() if not name.startswith("_")]
