"""Permutation-group toolkit centred on solubilizer computations."""

from .analysis import (
    RadicalCertificate,
    SeriesReport,
    center,
    centralizer,
    core,
    derived_series,
    derived_subgroup,
    exponent_of_group,
    fitting_subgroup,
    is_nilpotent,
    is_radical_element,
    is_simple,
    is_soluble,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    normalizer,
    p_core,
    quotient_group,
    soluble_radical,
    sylow_subgroup,
)
from .catalog import (
    TABLE1_NAMES,
    GroupSpec,
    build_named_group,
    direct_product,
    group_spec,
    validate_catalog,
)
from .perm import (
    DEFAULT_CAP,
    CapExceededError,
    ConjugacyClass,
    ConjugacyClassTable,
    DegreeMismatchError,
    ElementSet,
    FactoredInteger,
    ParseError,
    PermGroup,
    Permutation,
    closure_test,
    group_from_element_set,
    parse_permutation,
    subgroup_generated,
)
from .sol import (
    CheckRecord,
    CoreCheckReport,
    EllReport,
    ProductCheckReport,
    QuotientCheckReport,
    SolResult,
    StructureTag,
    direct_product_sol_check,
    ell_invariant,
    identify_small_group,
    quotient_sol_check,
    sol_core_check,
    solubilizer,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
