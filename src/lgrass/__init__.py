"""Exact fixed-point restrictions of Schubert classes on the Lagrangian Grassmannian.

Equivariant K-theory and cohomology restrictions as explicit integer Laurent
polynomials, computed from semistandard set-valued shifted tableaux, with
equivalent diagram-subset and path-family models and a self-contained suite
of independent verification oracles.

The namespace is lazy (PEP 562): ``import lgrass`` loads no submodule, and
the first ``lgrass.X`` or ``from lgrass import X`` imports the submodule that
defines X, with what that submodule imports.  ``import lgrass.cli`` thus
loads only the modules of the restriction path, and each command imports
the rest it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names this package re-exports from it
_EXPORTS = {
    "indexing": ("IsotropicIndex", "bar", "enumerate_isotropic", "eta_of", "is_strict",
                 "is_symmetric", "length", "normalize_partition", "pi", "rho", "sigma",
                 "sigma_inverse", "symmetric_double", "transpose"),
    "tableaux": ("EntryContext", "SetValuedShiftedTableau", "ShiftedDiagram", "entry_context",
                 "enumerate_ssvt", "enumerate_ssyt", "is_on", "is_semistandard"),
    "laurent": ("LaurentPolynomial", "bar_var_h", "bar_var_k", "divisible_by_k_root",
                "divisible_by_root_h", "lowest_degree_form"),
    "chart": ("ChartIndexSet", "SubspaceSpec", "chart_matrix_pattern", "coordinate_weight_h",
              "coordinate_weight_k", "subspace_of_tableau"),
    "restriction": ("CertificateError", "PositiveRoot", "RestrictionResult", "positive_roots",
                    "positivity_certificate", "restrict", "restrict_h", "restrict_k",
                    "root_for_entry"),
    "models": ("DiagramSubset", "PathFamily", "SymmetricDiagramSubset", "SymmetricTableau",
               "double_subset", "enumerate_model", "family_to_subset", "fold_subset",
               "fold_symmetric", "subset_to_family", "subset_to_tableau", "tableau_to_subset",
               "unfold_symmetric"),
    "oracles": ("GkmEdge", "SuiteReport", "billey_restrict_h", "chern_consistency",
                "gkm_check", "gkm_check_table", "gkm_edges", "kclass_union_oracle",
                "reduced_word", "reflect", "run_verification"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
