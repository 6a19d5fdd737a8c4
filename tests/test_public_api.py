"""The package's public names, pinned, so that any addition to or removal
from the API shows up in a diff of this file."""

import grouplab

PUBLIC_NAMES = [
    "CapExceededError",
    "CheckRecord",
    "ConjugacyClass",
    "ConjugacyClassTable",
    "CoreCheckReport",
    "DEFAULT_CAP",
    "DegreeMismatchError",
    "ElementSet",
    "EllReport",
    "FactoredInteger",
    "GroupSpec",
    "ParseError",
    "PermGroup",
    "Permutation",
    "ProductCheckReport",
    "QuotientCheckReport",
    "RadicalCertificate",
    "SeriesReport",
    "SolResult",
    "StructureTag",
    "TABLE1_NAMES",
    "build_named_group",
    "center",
    "centralizer",
    "closure_test",
    "core",
    "derived_subgroup",
    "direct_product",
    "direct_product_sol_check",
    "ell_invariant",
    "fitting_subgroup",
    "group_spec",
    "identify_small_group",
    "is_nilpotent",
    "is_simple",
    "is_soluble",
    "lower_central_series",
    "normal_closure",
    "normalizer",
    "parse_permutation",
    "quotient_group",
    "quotient_sol_check",
    "sol_core_check",
    "solubilizer",
    "soluble_radical",
    "sylow_subgroup",
]


def test_public_names_are_pinned():
    assert grouplab.__all__ == PUBLIC_NAMES


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from grouplab import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES
