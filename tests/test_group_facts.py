"""R(G), Fit(G) and simplicity against oracles that share no code with the
class-closure pass computing all three:

* R(G) is the union of the classes x^G with |Sol_G(x)| = |G|
  (Guralnick-Kunyavskii-Plotkin-Shalev, J. Algebra 2006);
* Fit(G) is the product of the p-cores core(G, P), P a Sylow p-subgroup;
* G is simple when the unstopped normal closure of every non-identity class
  representative is G, and the catalog's flag agrees wherever it records one.

The groups: the fourteen catalog groups, a few more insoluble and soluble
ones, the soluble products of the benchmark and the suite's two quotients.
"""

import functools

import pytest

from grouplab import (
    TABLE1_NAMES,
    build_named_group,
    center,
    core,
    derived_subgroup,
    fitting_subgroup,
    group_spec,
    is_simple,
    normal_closure,
    quotient_group,
    solubilizer,
    soluble_radical,
    sylow_subgroup,
)
from grouplab.suite import _QUOTIENT_SECTIONS

EXTRA = (
    "SL2:7", "SL2:5", "C:2 x A:5", "S:4", "C:12", "D:16",
    "S:4 x S:4", "C7:C3 x S:4", "D:20 x S:4",
)
KERNELS = {"center": center, "derived": derived_subgroup}
QUOTIENTS = tuple(f"{name} / {mode}" for name, mode in _QUOTIENT_SECTIONS)
LABELS = TABLE1_NAMES + EXTRA + QUOTIENTS

# frozen p-core orders, worked by hand: S4 has O_2 = V4 and no normal 3-subgroup
P_CORE_ORDERS = {"S:4": {2: 4, 3: 1}, "A:5": {2: 1}}


@functools.lru_cache(maxsize=None)
def group(label):
    if " / " in label:
        name, mode = label.split(" / ")
        G = build_named_group(name)
        return quotient_group(G, KERNELS[mode](G))[0]
    return build_named_group(label)


def union_of_classes(G, keep):
    table = G.conjugacy_classes()
    out = set()
    for cls in table.classes:
        if keep(cls.representative):
            out |= set(table.class_members(cls.representative))
    return out


def p_core(G, p):
    return core(G, sylow_subgroup(G, p))


@pytest.mark.parametrize("label", LABELS)
def test_radical_is_union_of_classes_with_full_solubilizer(label):
    G = group(label)
    oracle = union_of_classes(G, lambda x: solubilizer(G, x).order.value == G.order)
    assert set(soluble_radical(G).radical.elements()) == oracle


@pytest.mark.parametrize("label", LABELS)
def test_fitting_is_product_of_p_cores(label):
    G = group(label)
    for p, order in P_CORE_ORDERS.get(label, {}).items():
        assert p_core(G, p).order == order
    gens = [c for p, _ in G.order_factored.factor_pairs for c in p_core(G, p).generators]
    assert set(fitting_subgroup(G).elements()) == set(G.subgroup(gens).elements())


@pytest.mark.parametrize("label", LABELS)
def test_simplicity_matches_normal_closures_and_catalog(label):
    G = group(label)
    oracle = G.order > 1 and all(
        normal_closure(G, [cls.representative]).order == G.order
        for cls in G.conjugacy_classes().classes
        if cls.element_order > 1
    )
    assert is_simple(G) == oracle
    if " / " not in label and "simple" in group_spec(label).flags:
        assert oracle == group_spec(label).flags["simple"]
