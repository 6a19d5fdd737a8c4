"""Solubilizer canaries and the lemma/theorem check battery.

The A5 table is cross-checked at runtime against an independent sympy
oracle (brute-force solvability of every 2-generated subgroup). The other
frozen values were produced the same way or by exhaustive runs of two
independent implementations before being pinned here.
"""

import functools
import json
import os
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation as SPerm, PermutationGroup

from grouplab import analysis
from grouplab import perm as perm_mod
from grouplab import sol as sol_mod
from grouplab import suite as suite_mod
from grouplab import (
    TABLE1_NAMES,
    CapExceededError,
    FactoredInteger,
    build_named_group,
    closure_test,
    direct_product_sol_check,
    derived_subgroup,
    ell_invariant,
    identify_small_group,
    is_simple,
    is_soluble,
    parse_permutation,
    quotient_sol_check,
    sol_core_check,
    soluble_radical,
    solubilizer,
    sylow_subgroup,
    center,
    PermGroup,
    Permutation,
)
from grouplab.perm import (
    DEFAULT_CAP,
    _chain_from_raws,
    _chain_growers,
    _group_from_raws,
    _order_histogram,
    _raw_inv,
    _raw_mult,
    is_prime,
    prime_power_base,
)
from grouplab.suite import RunConfig, run_full_suite
from oracles import centralizer, normalizer, unbalanced_class_pairs
from test_group_facts import LABELS, group


def g(name):
    return build_named_group(name)


def rep_of_order(G, k):
    for c in G.conjugacy_classes().classes:
        if c.element_order == k:
            return c.representative
    raise AssertionError(f"no class of element order {k}")


def suite_group(name, seed=0):
    """The suite report's section for one group: the lemma and theorem
    records checked at every class representative."""
    return run_full_suite(RunConfig(groups=(name,), workers=1, seed=seed))["groups"][0]


def sol_orders_by_class(G):
    out = {}
    for c in G.conjugacy_classes().classes:
        out.setdefault(c.element_order, []).append(
            solubilizer(G, c.representative).order.value
        )
    return {k: sorted(v) for k, v in out.items()}


# ------------------------------------------------------------- A5 oracle


def test_a5_table_matches_independent_sympy_oracle():
    a5 = g("A:5")
    sp_elements = [SPerm([i - 1 for i in e.images]) for e in a5.elements()]
    for c in a5.conjugacy_classes().classes:
        x = SPerm([i - 1 for i in c.representative.images])
        oracle = sum(1 for y in sp_elements if PermutationGroup([x, y]).is_solvable)
        mine = solubilizer(a5, c.representative).order.value
        assert mine == oracle


def test_a5_frozen_values():
    assert sol_orders_by_class(g("A:5")) == {1: [60], 2: [36], 3: [24], 5: [10, 10]}


def test_a5_five_cycle_is_dihedral_and_equals_normalizer():
    a5 = g("A:5")
    x = rep_of_order(a5, 5)
    r = solubilizer(a5, x)
    assert r.order.value == 10
    assert r.is_subgroup
    assert r.structure["label"] == "dihedral 10"
    assert r.normalizer_order.value == 10
    # N_G(<x>) = Sol as literal sets
    H = a5.subgroup([x])
    N = normalizer(a5, H)
    assert set(N.elements()) == set(r.members)


def test_a5_involution_is_not_a_subgroup():
    a5 = g("A:5")
    r = solubilizer(a5, rep_of_order(a5, 2))
    assert r.order.value == 36
    assert not r.is_subgroup
    assert r.subgroup is None
    assert not closure_test(r.members)


# --------------------------------------------------------- frozen canaries


def test_s5_mixed_element():
    s5 = g("S:5")
    r = solubilizer(s5, parse_permutation("(1,2,3)(4,5)", 5))
    assert r.order.value == 12
    assert r.is_subgroup
    assert r.structure["label"] == "dihedral 12"


def test_psl27_reaches_21_with_realized_order_reported():
    psl7 = g("PSL2:7")
    hits = []
    for c in psl7.conjugacy_classes().classes:
        r = solubilizer(psl7, c.representative)
        if r.order.value == 21:
            hits.append((c.element_order, r))
    assert hits, "no representative realizes order 21"
    realized_orders = {k for k, _ in hits}
    assert realized_orders == {7}
    for _, r in hits:
        assert r.is_subgroup
        assert r.structure["label"] == "C7:C3"


def test_pgl27_order8_is_a_full_sylow_2():
    pgl7 = g("PGL2:7")
    r = solubilizer(pgl7, rep_of_order(pgl7, 8))
    assert r.order.value == 16
    assert r.is_subgroup
    assert r.structure["label"] == "dihedral 16"
    # full 2-part, hence a Sylow 2-subgroup
    assert r.order.value == 2 ** pgl7.order_factored.factors[2]
    assert sylow_subgroup(pgl7, 2).order == 16


def test_m10_order8_is_semidihedral():
    m10 = g("M10")
    r = solubilizer(m10, rep_of_order(m10, 8))
    assert r.order.value == 16
    assert r.structure["label"] == "semidihedral 16"


def test_psl211_frozen_values():
    assert sol_orders_by_class(g("PSL2:11")) == {
        1: [660],
        2: [132],
        3: [48],
        5: [110, 110],
        6: [12],
        11: [55, 55],
    }


def test_soluble_ambient_gives_whole_group():
    for name in ("C:6", "S:4", "D:16", "Q:8"):
        G = g(name)
        for c in G.conjugacy_classes().classes:
            r = solubilizer(G, c.representative)
            assert r.order.value == G.order
            assert r.is_subgroup


@pytest.mark.parametrize("name", ["S:4", "C7:C3 x S:4", "S:4 x S:4"])
def test_soluble_ambient_is_one_block(monkeypatch, name):
    # Sol(x) = G in a soluble G: one pair test per cold solubilizer call,
    # still run, and no closure test, the subgroup being G itself
    G = PermGroup(list(g(name).generators))
    tests, closures = [], []
    real_pair, real_closure = analysis.pair_soluble, sol_mod.closure_test

    def counting_pair(G, x, y):
        tests.append(y)
        return real_pair(G, x, y)

    def counting_closure(S):
        closures.append(S)
        return real_closure(S)

    monkeypatch.setattr(analysis, "pair_soluble", counting_pair)
    monkeypatch.setattr(sol_mod, "closure_test", counting_closure)
    for x in G.conjugacy_classes().representatives():
        tests.clear()
        r = solubilizer(G, x)
        assert len(tests) == 1 and not closures, (name, x)
        assert r.order.value == G.order and r.is_subgroup and r.subgroup is G


@pytest.mark.parametrize("name,in_radical", [("A:5", 1), ("PGL2:7", 1), ("C:2 x A:5", 2)])
def test_radical_element_is_one_block(monkeypatch, name, in_radical):
    # for x in R(G), <x, y> <= R(G)<y> is soluble, so Sol(x) = G with one pair
    # test: the identity of an insoluble group, and the central involution of
    # C2 x A5; every other representative runs the blocks
    G = PermGroup(list(g(name).generators))
    radical = analysis.soluble_radical(G).radical
    tests = []
    real_pair = analysis.pair_soluble

    def counting_pair(G, x, y):
        tests.append(y)
        return real_pair(G, x, y)

    monkeypatch.setattr(analysis, "pair_soluble", counting_pair)
    one_block = 0
    for x in G.conjugacy_classes().representatives():
        tests.clear()
        r = solubilizer(G, x)
        if radical.contains(x):
            one_block += 1
            assert len(tests) == 1, (name, x)
            assert r.order.value == G.order and r.is_subgroup and r.subgroup is G
        else:
            assert len(tests) > 1, (name, x)
    assert one_block == in_radical


@pytest.mark.parametrize("name", ["S:4", "C7:C3 x S:4", "C:2 x A:5"])
def test_failed_one_block_pair_test_breaks_the_containment_invariant(monkeypatch, name):
    # the one pair test of a one-block Sol still decides it: answered False,
    # Sol is empty and solubilizer raises, at every representative of a
    # soluble G and at the identity and central involution of C2 x A5
    G = PermGroup(list(g(name).generators))
    radical = analysis.soluble_radical(G).radical
    classes = G.conjugacy_classes()
    reps = [x for x in classes.representatives() if radical.contains(x)]
    assert len(reps) == {"C:2 x A:5": 2}.get(name, len(classes))
    monkeypatch.setattr(analysis, "pair_soluble", lambda G, x, y: False)
    for x in reps:
        with pytest.raises(RuntimeError, match="does not contain"):
            solubilizer(G, x)


@pytest.mark.parametrize("name", ["S:4", "C7:C3 x S:4", "D:20 x S:4"])
def test_one_block_sol_is_the_groups_one_element_set(name):
    # every representative of a soluble G shares one frozenset of |G|
    # elements, memoized on G, in place of a set of its own
    G = PermGroup(list(g(name).generators))
    assert "element_set" not in G._cache
    members = [solubilizer(G, x).members._raws for x in G.conjugacy_classes().representatives()]
    whole = G._element_set()
    assert all(m is whole for m in members)
    assert whole == frozenset(G._elements_raw()) and len(whole) == G.order


def test_element_set_checks_its_size():
    # the memo is checked once, when built: a listing with a repeat is not G
    G = PermGroup(list(g("S:4").generators))
    listing = G._elements_raw()
    G._cache["elements"] = listing[:-1] + listing[:1]
    with pytest.raises(RuntimeError, match="23 of 24"):
        G._element_set()


def test_solubilizer_above_byte_degree():
    # tuple tables past degree 256: the same Sol as on the small degree, for
    # an insoluble G (blocks) and a soluble one (one block)
    for name in ("A:5", "S:4"):
        small = g(name)
        fixed = list(range(small.degree + 1, 301))
        G = PermGroup([Permutation(list(p.images) + fixed) for p in small.generators])
        assert G.degree == 300 and type(G.generators[0]._raw) is tuple
        for c in small.conjugacy_classes().classes:
            x = c.representative
            big = solubilizer(G, Permutation(list(x.images) + fixed))
            want = solubilizer(small, x)
            assert sorted(y.images[: small.degree] for y in big.members) == sorted(
                y.images for y in want.members
            )
            assert big.is_subgroup == want.is_subgroup
            assert big.normalizer_order == want.normalizer_order


@functools.lru_cache(maxsize=None)
def above_byte_degree(name):
    """The catalog group with its generators extended by fixed points to
    degree 300, where raw tables are tuples."""
    small = g(name)
    fixed = list(range(small.degree + 1, 301))
    return PermGroup([Permutation(list(p.images) + fixed) for p in small.generators])


NORMALIZER_LABELS = list(TABLE1_NAMES) + [
    "SL2:7", "S:4 x S:4", "C7:C3 x S:4", "D:20 x S:4", "A:5 @ 300", "S:4 @ 300",
]


@pytest.mark.parametrize("label", NORMALIZER_LABELS)
def test_normalizer_from_its_order_matches_the_full_scan(label):
    # N_G(<x>), found by a scan that stops at |C_G(x)| * |x^G meet <x>|,
    # against the oracle's test of every element of G, at every class
    # representative; the elements the scan kept, with x, generate N
    name, _, degree = label.partition(" @ ")
    G = above_byte_degree(name) if degree else g(name)
    classes = G.conjugacy_classes()
    for cls in classes:
        x = cls.representative
        norm, kept = sol_mod._normalizer_scan(G, x._raw)
        assert norm == frozenset(normalizer(G, G.subgroup([x]))._elements_raw()), (label, x)
        assert set(kept) <= norm
        assert _group_from_raws(G, kept + [x._raw]).order == len(norm), (label, x)
        powers = frozenset((x**k)._raw for k in range(x.order()))
        conjugate_powers = len(powers & classes.class_members(x)._raws)
        assert len(norm) == centralizer(G, x).order * conjugate_powers, (label, x)


@pytest.mark.parametrize("factor", [2, 0.5, 6])
def test_normalizer_scan_raises_when_its_order_is_out_of_reach(monkeypatch, factor):
    # a wrong class size gives a wrong |N_G(<x>)|: 20, 4 or 60 = |G| in place
    # of 10 at a 5-cycle of A5. The scan must run out of G and raise, not
    # return the closure it reached; at |G| it scans nothing, and must find
    # the generator of A5 that does not normalize <x>
    G = PermGroup(list(g("A:5").generators))
    classes = G.conjugacy_classes()
    x = rep_of_order(G, 5)
    k = classes.class_index(x)
    wrong = list(classes.classes)
    wrong[k] = wrong[k]._replace(size=int(wrong[k].size / factor))
    monkeypatch.setattr(classes, "classes", tuple(wrong))
    # 20 passes the class table's own checks, so the scan runs out of G; 4 is
    # no multiple of |x| = 5, and at 60 a generator does not normalize <x>
    found = "normalizer scan" if factor == 2 else "the class table's"
    with pytest.raises(RuntimeError, match=found):
        sol_mod._normalizer_scan(G, x._raw)
    with pytest.raises(RuntimeError, match=found):
        solubilizer(G, x)


@pytest.mark.parametrize("label", NORMALIZER_LABELS)
def test_solubilizer_normalizer_order_matches_the_oracle(label):
    # |N_G(<x>)| as the solubilizer reports it, from the class table where
    # Sol = G and from the scan elsewhere, against the oracle's test of every
    # element of G, at every class representative
    name, _, degree = label.partition(" @ ")
    G = above_byte_degree(name) if degree else g(name)
    for x in G.conjugacy_classes().representatives():
        want = normalizer(G, G.subgroup([x])).order
        assert solubilizer(G, x).normalizer_order.value == want, (label, x)


def _no_scan(G, xraw):
    raise AssertionError("normalizer scan on the one-block path")


@pytest.mark.parametrize("name", ["S:4 x S:4", "C7:C3 x S:4", "D:20 x S:4", "SL2:7", "C:2 x PGL2:7"])
def test_one_block_representatives_list_no_normalizer(monkeypatch, name):
    # where G is soluble or x lies in R(G), Sol = G, N <= Sol holds by
    # construction and N = Sol is |N| = |G|: solubilizer, ell_invariant and
    # lemma_checks_for_rep read |N| from the class table and never scan.
    # Every class of a soluble product, and the identity and central
    # involution of SL(2,7) and of C2 x PGL(2,7)
    G = PermGroup(list(g(name).generators))
    radical = analysis.soluble_radical(G).radical
    classes = G.conjugacy_classes().classes
    reps = [i for i, c in enumerate(classes) if radical.contains(c.representative)]
    assert len(reps) == {"SL2:7": 2, "C:2 x PGL2:7": 2}.get(name, len(classes))
    monkeypatch.setattr(sol_mod, "_normalizer_scan", _no_scan)
    for i in reps:
        x = classes[i].representative
        r = solubilizer(G, x)
        assert r.order.value == G.order
        assert ell_invariant(G, x, r)["normalizer_order"] == r.normalizer_order.value
        lemmas, theorems = sol_mod.lemma_checks_for_rep(G, i, name)
        assert all(c["passed"] for c in lemmas + theorems), (name, x)


@pytest.mark.parametrize(
    "name, x_order, size, wrong, message",
    [("S:4", 4, 6, 2, "but not every generator"),  # |N| = 8 read as 24 = |G|
     ("D:20 x S:4", 2, 1, 2, "but every generator"),  # |N| = 480 = |G| read as 240
     ("S:4", 4, 6, 7, "not both a multiple")],  # |N| = 8 read as 24 // 7 * 2 = 6
)
def test_one_block_normalizer_order_raises_on_a_wrong_class_size(
    monkeypatch, name, x_order, size, wrong, message
):
    # at a one-block representative the class table's |N_G(<x>)| is all
    # there is of N: a wrong class size must make solubilizer raise without a
    # scan, whichever way it turns the decision N = G. At a 4-cycle of S4 it
    # reads N = G although a generator moves <x>; at the central involution
    # of D20 x S4 it reads N < G although every generator fixes <x>. An order
    # that |x| does not divide fails the divisibility part
    G = PermGroup(list(g(name).generators))
    classes = G.conjugacy_classes()
    k = next(i for i, c in enumerate(classes.classes)
             if c.element_order == x_order and c.size == size)
    x = classes.classes[k].representative
    assert sol_mod._normalizer_order(G, x._raw) == normalizer(G, G.subgroup([x])).order
    wrong_classes = list(classes.classes)
    wrong_classes[k] = wrong_classes[k]._replace(size=wrong)
    monkeypatch.setattr(classes, "classes", tuple(wrong_classes))
    monkeypatch.setattr(sol_mod, "_normalizer_scan", _no_scan)
    with pytest.raises(RuntimeError, match=message):
        solubilizer(G, x)


@pytest.mark.parametrize("name", list(TABLE1_NAMES) + ["S:4 x S:4", "C7:C3 x S:4", "D:20 x S:4"])
def test_solubilizers_count_the_soluble_pairs_of_two_classes_alike(name):
    # |C_i| * |Sol(x_i) meet C_j| = |C_j| * |Sol(x_j) meet C_i| for every
    # class pair: the soluble pairs of C_i x C_j counted from either side
    assert unbalanced_class_pairs(g(name)) == []


@pytest.mark.parametrize("label", LABELS)
def test_stopped_chain_keeps_the_generators_of_the_full_build(label):
    # N_G(<x>) is closed, so the chain over its sorted elements stops at its
    # size; the flood's conjugators must be the generators the full build keeps
    G = group(label)
    for x in G.conjugacy_classes().representatives():
        norm = sorted(sol_mod._normalizer_scan(G, x._raw)[0])
        assert _chain_growers(G.degree, norm, len(norm)) == _chain_growers(G.degree, norm), x


@pytest.mark.parametrize("label", LABELS)
def test_stopped_closure_test_matches_the_full_build(label):
    # closure_test stops its chain at |S| + 1; building the whole chain of <S>
    # must give the same answer on every Sol_G(x) at a class representative
    G = group(label)
    for x in G.conjugacy_classes().representatives():
        members = solubilizer(G, x).members
        raws = sorted(members._raws)
        assert closure_test(members) == (_chain_from_raws(G.degree, raws).order() == len(raws)), x


@pytest.mark.parametrize("name", list(TABLE1_NAMES) + ["SL2:7", "S:7"])
def test_subgroup_flag_matches_a_direct_closure_test(name):
    # the solubilizer runs no closure test when |Sol| does not divide |G|
    # (Lagrange) or Sol = G; the flag must still be closure_test's answer
    G = g(name)
    for x in G.conjugacy_classes().representatives():
        r = solubilizer(G, x)
        assert r.is_subgroup == closure_test(r.members), x


def test_sol_of_an_order_not_dividing_g_runs_no_closure_test(monkeypatch):
    # |Sol| = 1296 does not divide |S_7| = 5040
    def refuse(S):
        raise AssertionError("closure test run")

    monkeypatch.setattr(sol_mod, "closure_test", refuse)
    G = PermGroup(list(g("S:7").generators))
    r = solubilizer(G, parse_permutation("(1,2)(3,4)", 7))
    assert r.order.value == 1296 and G.order % 1296
    assert not r.is_subgroup and r.subgroup is None


def test_catalog_solubilizers_run_67_closure_tests(monkeypatch):
    # one cold solubilizer per class representative of the fourteen catalog
    # groups: 113 closure tests before the Lagrange skip, 67 with it
    runs = []
    real = sol_mod.closure_test

    def counting(S):
        runs.append(len(S))
        return real(S)

    monkeypatch.setattr(sol_mod, "closure_test", counting)
    for name in TABLE1_NAMES:
        G = PermGroup(list(g(name).generators))
        for x in G.conjugacy_classes().representatives():
            solubilizer(G, x)
    assert len(runs) == 67


ORDER_HISTOGRAM_GROUPS = list(TABLE1_NAMES) + [
    "SL2:7", "S:4 x S:4", "C7:C3 x S:4", "D:20 x S:4", "A:5 @ 300", "S:4 @ 300",
]


@pytest.mark.parametrize("label", ORDER_HISTOGRAM_GROUPS)
def test_order_histogram_from_the_class_table_matches_the_element_count(label):
    name, _, degree = label.partition(" @ ")
    G = PermGroup(list((above_byte_degree(name) if degree else g(name)).generators))
    counted = _order_histogram(G)  # no class table yet: each element is ordered
    assert "classes" not in G._cache
    G.conjugacy_classes()
    assert _order_histogram(G) == counted
    orders = [x.order() for x in G.elements()]
    assert counted == tuple(sorted((o, orders.count(o)) for o in set(orders)))


def test_whole_group_nilpotency_orders_no_element(monkeypatch):
    # at the identity of an insoluble G, Sol = G is a subgroup, so the
    # nilpotent-Sol check asks is_nilpotent(G), which reads G's class table
    G = PermGroup(list(g("PGammaL2:8").generators))
    G.conjugacy_classes()

    def refuse(a, n):
        raise AssertionError("an element was ordered")

    monkeypatch.setattr(perm_mod, "_raw_order", refuse)
    lemmas, theorems = sol_mod.lemma_checks_for_rep(G, 0, "PGammaL2:8")
    assert all(r["passed"] for r in lemmas + theorems)
    assert solubilizer(G, G.identity()).subgroup is G


def test_solubilizer_rejects_outside_element():
    with pytest.raises(ValueError):
        solubilizer(g("A:5"), parse_permutation("(1,2)", 5))


def test_centralizer_order_matches_full_scan():
    # |G| / |x^G| from the class table against the element-by-element oracle,
    # at every class representative and at one other member of each class
    for name in ("A:5", "PGL2:7", "S:4 x S:4"):
        G = g(name)
        for cls in G.conjugacy_classes().classes:
            x = cls.representative
            other = next((x.conjugate(h) for h in G.elements() if x.conjugate(h) != x), None)
            for y in [x] if other is None else [x, other]:
                assert solubilizer(G, y).centralizer_order.value == centralizer(G, y).order
    table = g("A:5").conjugacy_classes()
    # outside A5: a transposition, and (1,2,3) of degree 6, whose raw table is
    # one entry longer than that of A5's (1,2,3)
    for outside in (parse_permutation("(1,2)", 5), parse_permutation("(1,2,3)", 6)):
        with pytest.raises(ValueError):
            table.class_index(outside)
        with pytest.raises(ValueError):
            table.class_members(outside)


# ------------------------------------------------ orbit walk vs exhaustive


def sol_by_exhaustive_scan(G, x):
    """The oracle: one pair test per element of G."""
    n = G.degree
    return [y for y in G._elements_raw() if analysis._soluble_raw(n, (x._raw, y))]


@pytest.mark.parametrize(
    "name", list(TABLE1_NAMES) + ["SL2:7", "S:4 x S:4", "C7:C3 x S:4", "D:20 x S:4"]
)
def test_orbit_walk_matches_exhaustive_scan(name):
    G = g(name)
    for c in G.conjugacy_classes().classes:
        x = c.representative
        oracle = frozenset(sol_by_exhaustive_scan(G, x))
        assert solubilizer(G, x).members._raws == oracle, (name, x)


def flood_orbit_count(G, x):
    """The oracle for the listing: the number of orbits of y -> x*y,
    y -> y^-1 and y -> y^g for g in N_G(<x>), found by a plain graph flood
    over every element of G."""
    n = G.degree
    N = normalizer(G, G.subgroup([x]))
    conj = [(h._raw, h.inverse()._raw) for h in N.generators]
    seen = set()
    orbits = 0
    for y in G._elements_raw():
        if y in seen:
            continue
        orbits += 1
        seen.add(y)
        stack = [y]
        while stack:
            a = stack.pop()
            images = [_raw_mult(x._raw, a), _raw_inv(a, n)]
            images += [_raw_mult(_raw_mult(h_inv, a), h) for h, h_inv in conj]
            for b in images:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
    return orbits


def test_orbit_walk_tests_one_element_per_orbit(monkeypatch):
    # every block is a union of flood orbits, so no representative tests more
    # elements than there are orbits; counted at pair_soluble, since most of
    # its calls are settled without a walk
    tests = []
    real = analysis.pair_soluble

    def counting(G, x, y):
        tests.append(y)
        return real(G, x, y)

    monkeypatch.setattr(analysis, "pair_soluble", counting)
    for name in ("PGammaL2:8", "M10"):
        # a fresh group, with R(G) and solubility computed before counting, so
        # that only the solubilizer's own pair tests are counted
        G = PermGroup(list(g(name).generators))
        analysis.soluble_radical(G)
        analysis.is_soluble(G)
        total_tests = total_orbits = 0
        for x in G.conjugacy_classes().representatives():
            tests.clear()
            solubilizer(G, x)
            orbits = flood_orbit_count(G, x)
            assert 0 < len(tests) <= orbits, (name, x)
            total_tests += len(tests)
            total_orbits += orbits
        # merging the coprime powers of y saves tests beyond the orbits
        assert total_tests < total_orbits, name


@functools.lru_cache(maxsize=None)
def s6_elements():
    return tuple(sorted(g("S:6").elements()))


@pytest.mark.parametrize("seed", range(6))
def test_sol_order_matches_sympy_on_random_s6_subgroups(seed):
    # H = <a, b> for seeded random a, b in S6, and x in H; the oracle counts
    # the y in H with <x, y> soluble, by sympy's own solubility test
    rng = random.Random(seed)
    H = PermGroup([rng.choice(s6_elements()), rng.choice(s6_elements())])
    x = rng.choice(sorted(H.elements()))
    sx = SPerm([i - 1 for i in x.images])
    oracle = sum(
        1
        for y in H.elements()
        if PermutationGroup([sx, SPerm([i - 1 for i in y.images])]).is_solvable
    )
    assert solubilizer(H, x).order.value == oracle


@functools.lru_cache(maxsize=None)
def normalizer_of_rep(name, idx):
    G = g(name)
    x = G.conjugacy_classes().classes[idx].representative
    return tuple(normalizer(G, G.subgroup([x])).elements())


@functools.lru_cache(maxsize=None)
def radical_of(name):
    """R(G) without the identity, or just the identity when R(G) = 1."""
    radical = analysis.soluble_radical(g(name)).radical.elements()
    return tuple(r for r in radical if not r.is_identity()) or tuple(radical)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pair_verdict_is_constant_on_orbits(data):
    # the maps the solubilizer's blocks are made of, checked on the pair test
    # itself: x*y, y^-1, y^h with h in N_G(<x>) from analysis.normalizer,
    # y^m with m prime to |y|, and y*r with r in R(G) (of order 2 in SL2:7)
    name = data.draw(st.sampled_from(["A:5", "PSL2:7", "PGL2:7", "S:6", "SL2:7"]))
    G = g(name)
    classes = G.conjugacy_classes().classes
    idx = data.draw(st.integers(0, len(classes) - 1))
    x = classes[idx].representative
    y = data.draw(st.sampled_from(G.elements()))
    h = data.draw(st.sampled_from(normalizer_of_rep(name, idx)))
    m = data.draw(st.sampled_from([m for m in range(1, y.order() + 1) if gcd(m, y.order()) == 1]))
    r = data.draw(st.sampled_from(radical_of(name)))

    def verdict(z):
        return analysis._soluble_raw(G.degree, (x._raw, z._raw))

    expected = verdict(y)
    for image in (x * y, y * x, y.inverse(), y.conjugate(h), y**m, y * r):
        assert verdict(image) == expected, (name, x, y, h, m, r)


def test_conjugation_outside_the_normalizer_changes_membership():
    # why the walk conjugates by N_G(<x>) only: x is in Sol(x), but a
    # conjugate of x by an element outside N_G(<x>) is not
    a5 = g("A:5")
    x = rep_of_order(a5, 5)
    N = normalizer(a5, a5.subgroup([x]))
    h = next(h for h in a5.elements() if h not in N)
    assert x in solubilizer(a5, x).members
    assert not analysis._soluble_raw(5, (x._raw, x.conjugate(h)._raw))
    assert x.conjugate(h) not in solubilizer(a5, x).members


def test_pool_map_keeps_order_and_sizes_the_pool(monkeypatch):
    forked = []
    real = os.fork

    def counted():
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(suite_mod, "_START_METHOD", "fork")
    monkeypatch.setattr(os, "fork", counted)
    assert suite_mod.pool_map(abs, [-3, 1, -2], 8) == [3, 1, 2]
    assert suite_mod.pool_map(abs, list(range(-9, 0)), 2) == list(range(9, 0, -1))
    assert len(forked) == 3 + 2
    # one item, or one worker, stays in this process
    assert suite_mod.pool_map(abs, [-1], 8) == [1]
    assert suite_mod.pool_map(abs, [-3, 1, -2], 1) == [3, 1, 2]
    assert len(forked) == 3 + 2


# ----------------------------------------------------------- identification


def test_identify_soundness_set():
    cases = [
        ("D:16", "dihedral 16"),
        ("SD:16", "semidihedral 16"),
        ("Q:16", "generalized_quaternion 16"),
        ("Q:8", "generalized_quaternion 8"),
        ("C:16", "cyclic 16"),
        ("C:10", "cyclic 10"),
        ("D:10", "dihedral 10"),
        ("C7:C3", "C7:C3"),
        ("A:4", "A4"),
        ("S:4", "S4"),
        ("D:12", "dihedral 12"),
        ("SD:32", "semidihedral 32"),
    ]
    for name, label in cases:
        assert identify_small_group(g(name))["label"] == label


def test_fingerprint_is_taken_once_per_group(monkeypatch):
    # identify_small_group compares with the same cached reference groups on
    # every call; a fingerprint is memoized on its group, so a second group of
    # the same type takes its own histogram only, and a repeat takes none
    taken = []
    real = sol_mod._order_histogram

    def counting(H):
        taken.append(H)
        return real(H)

    monkeypatch.setattr(sol_mod, "_order_histogram", counting)
    first, second = (PermGroup(list(g("SD:16").generators)) for _ in range(2))
    assert identify_small_group(first)["label"] == "semidihedral 16"
    before = len(taken)
    assert identify_small_group(second)["label"] == "semidihedral 16"
    assert identify_small_group(first)["label"] == "semidihedral 16"
    assert taken[before:] == [second]


def test_memoized_answers_do_not_depend_on_call_history():
    # the cap belongs to the group, so a group that may not list its elements
    # answers nothing, whatever another group of the same generators has
    # already answered and memoized
    warm = g("S:5")
    x = rep_of_order(warm, 5)
    solubilizer(warm, x)
    soluble_radical(warm)
    is_simple(warm)
    capped = build_named_group("S:5", 100)
    assert capped is not warm
    assert build_named_group("S:5") is build_named_group("S:5", DEFAULT_CAP) is warm
    assert build_named_group("S:5", 100) is capped
    for ask in (lambda G: solubilizer(G, x), soluble_radical, is_simple):
        with pytest.raises(CapExceededError):
            ask(capped)
    # a group of S:5's generators at cap 10, asked cold and again after a
    # fresh group of the same generators at the default cap has answered
    gens = list(warm.generators)
    H = PermGroup(gens, cap=10)
    with pytest.raises(CapExceededError):
        solubilizer(H, x)
    assert solubilizer(PermGroup(gens), x).order == solubilizer(warm, x).order
    with pytest.raises(CapExceededError):
        solubilizer(H, x)


def test_identify_abelian_labels():
    assert identify_small_group(g("C:2 x C:2"))["label"] == "elementary_abelian 4"
    assert identify_small_group(g("C:3 x C:3"))["label"] == "elementary_abelian 9"
    assert identify_small_group(g("C:2 x C:4"))["label"] == "abelian 2x4"
    assert identify_small_group(g("C:2 x C:2 x C:4"))["label"] == "abelian 2x2x4"
    assert identify_small_group(g("C:3 x C:7"))["label"] == "cyclic 21"
    assert identify_small_group(g("C:6 x C:2"))["label"] == "abelian 2x6"


def test_identify_falls_back_to_other():
    assert identify_small_group(g("C:2 x Q:8"))["label"] == "other"
    assert identify_small_group(g("C:2 x A:4"))["label"] == "other"


def test_identify_rejects_large_input():
    with pytest.raises(ValueError):
        identify_small_group(g("S:5"))


FINGERPRINT_KEYS = ["order", "abelian", "exponent", "order_histogram", "center_order",
                    "derived_order"]


def test_structure_is_its_own_json_record_and_never_shared():
    # at every catalog representative whose Sol is a subgroup of at most 64
    # elements, the structure record is plain JSON in report order; a caller
    # that edits the returned record leaves the next call's record as it was
    labelled = 0
    for name in TABLE1_NAMES:
        G = g(name)
        for x in G.conjugacy_classes().representatives():
            r = solubilizer(G, x)
            if not r.is_subgroup or r.order.value > 64:
                assert r.structure is None
                continue
            labelled += 1
            record = r.structure
            assert list(record) == ["label", "fingerprint"]
            assert list(record["fingerprint"]) == FINGERPRINT_KEYS
            back = json.loads(json.dumps(record))
            assert back == record
            assert list(back) == list(record) and list(back["fingerprint"]) == FINGERPRINT_KEYS
            record["label"] = "edited"
            record["fingerprint"]["order_histogram"][0][1] = -1
            assert r.structure == back
    assert labelled > 0


# ------------------------------------------------------------- ell report


def test_ell_a5_five_cycle():
    a5 = g("A:5")
    rep = ell_invariant(a5, rep_of_order(a5, 5))
    assert rep["ell"] == 5
    assert rep["dichotomy"] == "normalizer_equals_sol"


def test_ell_s7_double_transposition():
    s7 = g("S:7")
    rep = ell_invariant(s7, parse_permutation("(1,2)(3,4)", 7))
    assert rep["ell"] == 2
    assert rep["dichotomy"] == "strict_bound"
    assert rep["sol_order"] > rep["ell"] * rep["x_order"]


def ell_by_full_scan(G, x):
    """ell as defined: the least index |<x> : <x> meet <x^y>| over every y in
    G outside N_G(<x>); None when N_G(<x>) = G."""
    N = normalizer(G, G.subgroup([x]))
    powers = {x**k for k in range(x.order())}
    indices = []
    for y in G.elements():
        if y in N:
            continue
        xy = x.conjugate(y)
        shared = powers & {xy**k for k in range(x.order())}
        indices.append(x.order() // len(shared))
    return min(indices) if indices else None


@pytest.mark.parametrize("name", ["A:5", "PGL2:7", "S:6", "PGammaL2:8", "S:4 x S:4"])
def test_ell_over_class_matches_full_group_scan(name):
    G = g(name)
    for c in G.conjugacy_classes().classes:
        x = c.representative
        expected = ell_by_full_scan(G, x)
        rep = ell_invariant(G, x)
        assert rep["ell"] == expected, (name, x)
        assert (rep["dichotomy"] == "undefined") == (expected is None)


def power_raws(z):
    """The raw tables of every power of z."""
    out, p = set(), z
    while p._raw not in out:
        out.add(p._raw)
        p = p * z
    return out


ELL_GROUPS = list(TABLE1_NAMES) + [
    "SL2:7", "S:4 x S:4", "C7:C3 x S:4", "D:20 x S:4", "S:7", "A:7", "PSL2:31",
]


def least_index_cases(G):
    """(x, least |<x> : <x> meet <z>| over the conjugates z outside <x>) at
    each class representative x of G that has such a z: the index is
    |x| / |<x> meet <z>|, from both power lists in full."""
    classes = G.conjugacy_classes()
    for c in classes:
        x = c.representative
        powers = power_raws(x)
        outside = [z for z in classes.class_members(x) if z._raw not in powers]
        if outside:
            yield x, min(x.order() // len(powers & power_raws(z)) for z in outside)


def assert_ell_divisor(G, cases):
    for x, expected in cases:
        norm = sol_mod._normalizer_order(G, x._raw)
        assert sol_mod._ell_divisor(G, x._raw, norm) == expected, x


def test_least_class_index_matches_the_intersection_formula():
    # ell as the least divisor d > 1 of |x| with |N_G(<x^d>)| > |N_G(<x>)|,
    # against the least index over the conjugates outside <x>, at each of the
    # 121 representatives of composite order that have such a conjugate
    cases = 0
    for name in ELL_GROUPS:
        G = g(name)
        composite = [(x, k) for x, k in least_index_cases(G) if not is_prime(x.order())]
        assert_ell_divisor(G, composite)
        cases += len(composite)
    assert cases == 121
    # and at every such representative, prime orders too, above degree 256,
    # where _normalizer_order powers and conjugates tuples
    wide = [(G, list(least_index_cases(G))) for G in map(above_byte_degree, ("A:5", "S:4"))]
    for G, found in wide:
        assert type(G.generators[0]._raw) is tuple
        assert_ell_divisor(G, found)
    assert sum(len(found) for _, found in wide) == 8


@pytest.mark.parametrize("name", ["S:6", "SL2:7", "S:4 x S:4"])
def test_ell_divisor_check_fails_on_a_flat_normalizer_order(monkeypatch, name):
    # with _normalizer_order giving |N_G(<x>)| at every power x^d other than
    # 1, only d = |x| qualifies, so ell reads |x|; the intersection check must
    # fail at each representative whose ell is smaller, and S:6, SL2:7 and
    # S:4 x S:4 have 2, 6 and 11 of them
    G = g(name)
    real = sol_mod._normalizer_order
    ident = G.identity()._raw
    caught = 0
    for x, expected in least_index_cases(G):
        norm = real(G, x._raw)
        monkeypatch.setattr(
            sol_mod, "_normalizer_order", lambda G, raw: G.order if raw == ident else norm
        )
        if expected < x.order():
            with pytest.raises(AssertionError):
                assert_ell_divisor(G, [(x, expected)])
            caught += 1
        else:
            assert_ell_divisor(G, [(x, expected)])
    assert caught == {"S:6": 2, "SL2:7": 6, "S:4 x S:4": 11}[name]


def test_ell_undefined_when_normalizer_is_everything():
    c6 = g("C:6")
    rep = ell_invariant(c6, parse_permutation("(1,2,3,4,5,6)", 6))
    assert rep["ell"] is None
    assert rep["dichotomy"] == "undefined"


# -------------------------------------------------------------- core check


def test_core_check_inapplicable_for_non_subgroup_sol():
    a5 = g("A:5")
    rep = sol_core_check(a5, rep_of_order(a5, 2))
    assert not rep["applicable"]
    assert rep["passed"]
    assert rep["companion_checked"] > 0


def test_core_check_applicable_in_soluble_ambient():
    s4 = g("S:4")
    rep = sol_core_check(s4, rep_of_order(s4, 2))
    assert rep["applicable"]
    assert rep["passed"]
    assert rep["core_order"] == 24


def test_core_check_requires_involution():
    a5 = g("A:5")
    with pytest.raises(ValueError):
        sol_core_check(a5, rep_of_order(a5, 3))


# ------------------------------------------------------------- lemma suite


@pytest.mark.parametrize("name", ["A:5", "PSL2:7", "PGL2:7", "C:6", "S:4"])
def test_lemma_suite_passes(name):
    doc = run_full_suite(RunConfig(groups=(name,), workers=1, seed=11))
    group = doc["groups"][0]
    failures = [c for c in group["lemma_checks"] if not c["passed"]]
    assert not failures, failures
    assert group["group"] == name
    assert doc["seed"] == 11


def test_lemma_suite_soluble_group_degenerates():
    checks = suite_group("C:6")["lemma_checks"]
    insoluble_only = {
        "cyclic_proper",
        "order_not_prime",
        "order_not_prime_square",
        "sylow2_of_sol_nonabelian_ge16",
        "no_self_normalizing_prime_cyclic",
    }
    for c in checks:
        if c["item"] in insoluble_only:
            assert not c["triggered"]


def test_lemma_suite_r1_fires_on_pgl27():
    checks = suite_group("PGL2:7")["lemma_checks"]
    fired = [
        c for c in checks
        if c["item"] == "sylow2_of_sol_nonabelian_ge16" and c["triggered"]
    ]
    assert fired and all(c["passed"] for c in fired)


@pytest.mark.parametrize("name", ["S:5", "PGL2:7", "M10"])
def test_exponent_dichotomy_fires_where_the_sylow_exponent_is_reached(name):
    """The battery reads the Sylow exponent off the class table; the oracle
    takes it over the elements of sylow_subgroup(G, p)."""
    G = g(name)
    expected = set()
    for cls in G.conjugacy_classes().classes:
        p = prime_power_base(cls.element_order)
        if p and cls.element_order == max(x.order() for x in sylow_subgroup(G, p).elements()):
            expected.add(cls.representative.cycle_string())
    checks = suite_group(name)["lemma_checks"]
    fired = {c["rep"] for c in checks if c["item"] == "exponent_dichotomy" and c["triggered"]}
    assert fired == expected
    assert all(c["passed"] for c in checks if c["item"] == "exponent_dichotomy")


# --------------------------------------------------------- theorem checks


def test_theorem_checks_a5():
    checks = suite_group("A:5")["theorem_checks"]
    fired = {(c["item"], c["rep"]) for c in checks if c["triggered"]}
    assert all(c["passed"] for c in checks)
    # |Sol| = 10 = 2*5 at the 5-cycles triggers both hypotheses
    assert {"sol_2p", "sol_pq"} == {item for item, _ in fired}


def test_theorem_checks_psl27_pq():
    checks = suite_group("PSL2:7")["theorem_checks"]
    assert all(c["passed"] for c in checks)
    pq = [c for c in checks if c["item"] == "sol_pq" and c["triggered"]]
    assert pq, "21 = 3*7 with |x| = 7 should trigger the pq remark"


def test_theorem_checks_pgl27_16_and_2group():
    checks = suite_group("PGL2:7")["theorem_checks"]
    assert all(c["passed"] for c in checks)
    fired = {c["item"] for c in checks if c["triggered"]}
    assert "sol_16" in fired
    assert "sol_2group" in fired


def test_theorem_checks_empty_for_soluble():
    assert suite_group("S:4")["theorem_checks"] == []


# ------------------------------------------------------- quotient, product


def test_quotient_check_sl27_center():
    G = g("SL2:7")
    Z = center(G)
    x = rep_of_order(G, 7)
    rep = quotient_sol_check(G, Z, x)
    assert rep["passed"]
    assert rep["n_soluble"]
    assert rep["sol_order"] == rep["quotient_sol_order"] * 2


def test_quotient_check_insoluble_kernel_containment():
    s5 = g("S:5")
    a5 = derived_subgroup(s5)
    rep = quotient_sol_check(s5, a5, parse_permutation("(1,2)", 5))
    assert rep["passed"]
    assert not rep["n_soluble"]


def test_quotient_check_rejects_non_normal():
    s5 = g("S:5")
    H = s5.subgroup([parse_permutation("(1,2)", 5)])
    with pytest.raises(ValueError):
        quotient_sol_check(s5, H, parse_permutation("(1,2,3)", 5))


def test_product_check_c2_a5():
    A = g("C:2")
    H = g("A:5")
    x = rep_of_order(H, 5)
    rep = direct_product_sol_check(A, H, x)
    assert rep["passed"]
    assert rep["sol_in_factor"] == 10
    assert rep["sol_in_product"] == 20


# ------------------------------------------------------------- invariants


def test_sol_result_divisibility_invariants():
    # |x|, |C_G(x)| and |R(G)| all divide |Sol|; spot-check on PSL(2,7)
    G = g("PSL2:7")
    for c in G.conjugacy_classes().classes:
        r = solubilizer(G, c.representative)
        assert r.order.value % c.element_order == 0
        assert r.order.value % r.centralizer_order.value == 0


def test_sol_members_serialize():
    a5 = g("A:5")
    r = solubilizer(a5, rep_of_order(a5, 5))
    doc = r.to_json()
    assert doc["order"]["value"] == 10
    assert doc["structure"]["label"] == "dihedral 10"
    assert doc["element_order"] == 5
    assert FactoredInteger.from_int(10).to_json() == doc["order"]
