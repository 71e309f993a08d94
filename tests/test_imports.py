"""The lazy ``lgrass`` namespace and what each CLI command imports."""

import os
import subprocess
import sys

import pytest

import lgrass

SRC = os.path.dirname(os.path.dirname(lgrass.__file__))

# every name that ``from lgrass import X`` has offered, by defining submodule
EXPORTS = {
    "indexing": "IsotropicIndex bar enumerate_isotropic eta_of is_strict is_symmetric length "
                "normalize_partition pi rho sigma sigma_inverse symmetric_double transpose",
    "tableaux": "EntryContext SetValuedShiftedTableau ShiftedDiagram entry_context "
                "enumerate_ssvt enumerate_ssyt is_on is_semistandard",
    "laurent": "LaurentPolynomial bar_var_h bar_var_k divisible_by_k_root divisible_by_root_h "
               "lowest_degree_form",
    "chart": "ChartIndexSet SubspaceSpec chart_matrix_pattern coordinate_weight_h "
             "coordinate_weight_k subspace_of_tableau",
    "restriction": "CertificateError PositiveRoot RestrictionResult positive_roots "
                   "positivity_certificate restrict restrict_h restrict_k root_for_entry",
    "models": "DiagramSubset PathFamily SymmetricDiagramSubset SymmetricTableau double_subset "
              "enumerate_model family_to_subset fold_subset fold_symmetric subset_to_family "
              "subset_to_tableau tableau_to_subset unfold_symmetric",
    "oracles": "GkmEdge SuiteReport billey_restrict_h chern_consistency gkm_check "
               "gkm_check_table gkm_edges kclass_union_oracle reduced_word reflect "
               "run_verification",
}


def loaded_after(code):
    """The sys.modules names left by code in a fresh interpreter without cached bytecode.

    -S keeps site's own imports out of the list.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-S", "-c", f"{code}\nimport sys\n"
                           "print(' '.join(sys.modules))"],
                          env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def parsed(*argv):
    return f"import lgrass.cli\nlgrass.cli.build_parser().parse_args({list(argv)!r})"


class TestImportBoundary:
    def test_bare_import_loads_no_submodule(self):
        loaded = loaded_after("import lgrass")
        assert "lgrass" in loaded
        assert not {name for name in loaded if name.startswith("lgrass.")}

    def test_table_loads_neither_oracles_nor_models_nor_render(self):
        loaded = loaded_after(parsed("table", "--n", "5", "--theory", "K", "--out", "json"))
        assert "lgrass.restriction" in loaded
        assert not loaded & {"lgrass.oracles", "lgrass.models", "lgrass.render",
                             "dataclasses", "inspect", "csv", "typing"}

    def test_verify_loads_neither_models_nor_render(self):
        loaded = loaded_after(parsed("verify", "--n", "4", "--suite", "all", "--json"))
        assert not loaded & {"lgrass.models", "lgrass.render"}


class TestLazyNamespace:
    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_every_export_is_its_submodule_attribute(self, module):
        owner = getattr(lgrass, module)
        assert owner.__name__ == f"lgrass.{module}"
        listed = dir(lgrass)
        for name in EXPORTS[module].split():
            assert getattr(lgrass, name) is getattr(owner, name), name
            assert name in listed

    def test_from_import(self):
        from lgrass import oracles, restrict, run_verification
        assert oracles.run_verification is run_verification
        assert lgrass.restriction.restrict is restrict

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lgrass.no_such_name
        with pytest.raises(ImportError):
            from lgrass import no_such_name  # noqa: F401
