"""Exact fixed-point restrictions of Schubert classes on the Lagrangian Grassmannian.

Equivariant K-theory and cohomology restrictions as explicit integer Laurent
polynomials, computed from semistandard set-valued shifted tableaux, with
equivalent diagram-subset and path-family models and a self-contained suite
of independent verification oracles.
"""

from .indexing import (IsotropicIndex, bar, enumerate_isotropic, eta_of,
                       is_strict, is_symmetric, length, normalize_partition,
                       pi, rho, sigma, sigma_inverse, symmetric_double, transpose)
from .tableaux import (EntryContext, SetValuedShiftedTableau, ShiftedDiagram,
                       entry_context, enumerate_ssvt, enumerate_ssyt, is_on,
                       is_semistandard, shifted_diagram, z_value)
from .laurent import (LaurentPolynomial, bar_var_h, bar_var_k, divisible_by_k_root,
                      divisible_by_root_h, lowest_degree_form)
from .chart import (ChartIndexSet, SubspaceSpec, chart_index_set,
                    chart_matrix_pattern, coordinate_weight_h,
                    coordinate_weight_k, subspace_of_tableau)
from .restriction import (CertificateError, PositiveRoot, RestrictionResult,
                          positive_roots, positivity_certificate, restrict,
                          restrict_h, restrict_k, restriction_table,
                          root_for_entry)
from .models import (DiagramSubset, PathFamily, SymmetricDiagramSubset,
                     SymmetricTableau, double_subset, enumerate_model,
                     family_to_subset, fold_subset, fold_symmetric,
                     subset_to_family, subset_to_tableau, tableau_to_subset,
                     unfold_symmetric)
from .oracles import (GkmEdge, SignedPermutation, SuiteReport, billey_restrict_h,
                      chern_consistency, coset_representative, gkm_check,
                      gkm_check_table, gkm_edges, kclass_union_oracle,
                      reduced_word, reflect, run_verification)

__version__ = "0.1.0"
