"""Permutation-group toolkit centred on solubilizer computations."""

from types import ModuleType as _ModuleType

from .analysis import (
    RadicalCertificate,
    center,
    core,
    derived_subgroup,
    fitting_subgroup,
    is_nilpotent,
    is_simple,
    is_soluble,
    normal_closure,
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
    parse_permutation,
)
from .sol import (
    SolResult,
    direct_product_sol_check,
    ell_invariant,
    identify_small_group,
    quotient_sol_check,
    sol_core_check,
    solubilizer,
)

__version__ = "0.1.0"

# the imported names only: importing them also binds the submodules here
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
