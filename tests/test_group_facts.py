"""R(G), Fit(G) and simplicity against oracles that share no code with the
class-closure pass computing all three:

* R(G) is the union of the classes x^G with |Sol_G(x)| = |G|
  (Guralnick-Kunyavskii-Plotkin-Shalev, J. Algebra 2006);
* Fit(G) is the product of the p-cores core(G, P), P a Sylow p-subgroup;
* G is simple when the unstopped normal closure of every non-identity class
  representative is G, and the catalog's flag agrees wherever it records one.

Z(G), Core_G(H) and the exponent of a Sylow p-subgroup are read off the class
table; they are checked against the element scan and the orbit walk that
computed them before, and against sylow_subgroup.

The soluble residual G^(oo) behind is_soluble and pair_soluble is checked to be
perfect and against the last term of sympy's derived series.

Nilpotency, counted from element orders, is checked against the lower central
series on every group and on every subgroup Sol_G(x) at a class representative
of the catalog, the groups the nilpotent-Sol check asks about.

The groups: the fourteen catalog groups, a few more insoluble and soluble
ones, the soluble products of the benchmark and the suite's two quotients.
"""

import functools

import pytest
from sympy.combinatorics import Permutation as SPerm, PermutationGroup

from grouplab import analysis
from grouplab import sol as sol_mod
from grouplab import (
    TABLE1_NAMES,
    build_named_group,
    center,
    core,
    derived_subgroup,
    fitting_subgroup,
    group_spec,
    is_nilpotent,
    is_simple,
    normal_closure,
    quotient_group,
    solubilizer,
    soluble_radical,
    sylow_subgroup,
)
from grouplab.perm import _group_from_raws, _raw_inv, _raw_mult
from grouplab.suite import _QUOTIENT_SECTIONS
from oracles import centralizer, lower_central_series

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


def scanned_center(G):
    """Oracle: the elements that commute with every generator."""
    gens = G._gen_raws()
    return {
        g for g in G._elements_raw() if all(_raw_mult(g, s) == _raw_mult(s, g) for s in gens)
    }


def orbit_walk_core(G, H):
    """Oracle: the elements of H whose conjugation orbit under G stays in H,
    walked from each element and abandoned at the first escape."""
    h_set = frozenset(H._elements_raw())
    gen_pairs = [(g, _raw_inv(g, G.degree)) for g in G._gen_raws()]
    status = {}
    for x in sorted(h_set):
        if x in status:
            continue
        orbit, queue, escaped = {x}, [x], False
        while queue and not escaped:
            a = queue.pop()
            for g, g_inv in gen_pairs:
                b = _raw_mult(_raw_mult(g_inv, a), g)
                if b not in h_set:
                    escaped = True
                    break
                if b not in orbit:
                    orbit.add(b)
                    queue.append(b)
        for m in orbit:
            status[m] = not escaped
    return {x for x, ok in status.items() if ok}


@pytest.mark.parametrize("label", LABELS)
def test_center_is_the_size_one_classes(label):
    G = group(label)
    assert set(center(G)._elements_raw()) == scanned_center(G)


@pytest.mark.parametrize("label", LABELS)
def test_core_matches_orbit_walk(label):
    G = group(label)
    subgroups = [sylow_subgroup(G, p) for p, _ in G.order_factored.factor_pairs]
    subgroups += [centralizer(G, x) for x in G.conjugacy_classes().representatives()]
    for H in subgroups:
        assert set(core(G, H)._elements_raw()) == orbit_walk_core(G, H)


@pytest.mark.parametrize("label", LABELS)
def test_sylow_exponent_is_largest_p_power_class_order(label):
    # the map that exponent_dichotomy reads, built once per group from the
    # class table, against the element orders of each Sylow subgroup
    G = group(label)
    assert sol_mod._sylow_exponents(G) == {
        p: max(x.order() for x in sylow_subgroup(G, p).elements())
        for p, _ in G.order_factored.factor_pairs
    }


@pytest.mark.parametrize("label", LABELS)
def test_nilpotency_count_matches_lower_central_series(label):
    G = group(label)
    subgroups = [G]
    if label in TABLE1_NAMES:
        sols = (solubilizer(G, x) for x in G.conjugacy_classes().representatives())
        subgroups += [sol.subgroup for sol in sols if sol.is_subgroup]
    for H in subgroups:
        assert is_nilpotent(H) == lower_central_series(H).reaches_trivial


@pytest.mark.parametrize("label", LABELS)
def test_soluble_residual_is_perfect_and_matches_sympy(label):
    G = group(label)
    order, gens = analysis._soluble_residual(G)
    if gens:
        D = _group_from_raws(G, gens)
        assert D.order == order
        assert derived_subgroup(D).order == order  # perfect
    else:
        assert order == 1
    oracle = PermutationGroup([SPerm([i - 1 for i in p.images]) for p in G.generators])
    assert order == oracle.derived_series()[-1].order()
    assert (order == 1) == oracle.is_solvable
