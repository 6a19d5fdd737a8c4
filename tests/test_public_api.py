"""The package's public names, pinned, so that any addition to or removal
from the API shows up in a diff of this file."""

import importlib
import importlib.util
from pathlib import Path

import grouplab
from grouplab import perm

PUBLIC_NAMES = [
    "CapExceededError",
    "ConjugacyClass",
    "ConjugacyClassTable",
    "DEFAULT_CAP",
    "DegreeMismatchError",
    "ElementSet",
    "FactoredInteger",
    "GroupSpec",
    "ParseError",
    "PermGroup",
    "Permutation",
    "RadicalCertificate",
    "SolResult",
    "TABLE1_NAMES",
    "build_named_group",
    "center",
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
    "normal_closure",
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


def test_benchmark_tracer_installs_and_uninstalls():
    """perfbench/tracer.py wraps grouplab functions by name (analysis.sylow_subgroup,
    analysis._soluble_raw, perm._Chain.extend, ...); a deleted or renamed one
    fails here, not only in a traced benchmark pass."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    names = ("perm", "analysis", "catalog", "sol", "suite", "cli")
    modules = {name: importlib.import_module(f"grouplab.{name}") for name in names}
    owners = [*modules.values(), perm.PermGroup, perm._Chain]
    before = [dict(vars(owner)) for owner in owners]
    sylow, extend = modules["analysis"].sylow_subgroup, perm._Chain.extend
    tracer = tracer_mod.Tracer()
    try:
        tracer.install(modules)
        assert modules["analysis"].sylow_subgroup.__wrapped__ is sylow
        assert perm._Chain.extend.__wrapped__ is extend
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
