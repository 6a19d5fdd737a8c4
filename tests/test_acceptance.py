"""End-to-end acceptance battery.

One test per recorded claim. Each records a single PASS/FAIL verdict via the
announce fixture; conftest prints them as an "acceptance criteria" section in
the terminal summary, so a plain pytest run shows every verdict.
Two claims disagree with what this implementation computes; those tests record
the computed value and are marked xfail(strict=True) so the disagreement is
loud, permanent, and cannot silently rot into a skipped test.
"""

import collections
import random
import time

import pytest

from grouplab import (
    build_named_group,
    center,
    closure_test,
    direct_product_sol_check,
    is_soluble,
    normal_closure,
    parse_permutation,
    quotient_sol_check,
    solubilizer,
    soluble_radical,
)
from grouplab.suite import RunConfig, run_conjecture_scan, run_full_suite, run_table1
from oracles import normalizer


def rep_of_order(G, k):
    for c in G.conjugacy_classes().classes:
        if c.element_order == k:
            return c.representative
    raise AssertionError(f"no class of order {k}")


@pytest.mark.xfail(
    strict=True,
    reason="computed |Sol| is 1296 = 2^4*3^4, not the stated 42; "
    "the 7-cycle is the element that realizes 42 in S7",
)
def test_criterion_01_s7_double_transposition(announce):
    t0 = time.perf_counter()
    s7 = build_named_group("S:7")
    r = solubilizer(s7, parse_permutation("(1,2)(3,4)", 7))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s single-threaded"
    announce(1, r.order.value == 42,
             f"computed |Sol| = {r.order.value} = {r.order}, stated 42, {elapsed:.1f}s")
    assert r.order.value == 42, f"computed {r.order.value} = {r.order}"


def test_criterion_02_s5_mixed_element(announce):
    t0 = time.perf_counter()
    s5 = build_named_group("S:5")
    r = solubilizer(s5, parse_permutation("(1,2,3)(4,5)", 5))
    elapsed = time.perf_counter() - t0
    ok = r.order.value == 12 and elapsed < 1.0
    announce(2, ok, f"|Sol| = {r.order.value}, {elapsed * 1000:.0f}ms")
    assert r.order.value == 12
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@pytest.mark.xfail(
    strict=True,
    reason="computed |Sol| is 48 = 2^4*3 at the order-3 class, not the stated 42",
)
def test_criterion_03_psl211_order_three(announce):
    t0 = time.perf_counter()
    psl11 = build_named_group("PSL2:11")
    r = solubilizer(psl11, rep_of_order(psl11, 3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce(3, r.order.value == 42,
             f"computed |Sol| = {r.order.value} = {r.order}, stated 42, {elapsed:.1f}s")
    assert r.order.value == 42, f"computed {r.order.value} = {r.order}"


def test_criterion_04_a5_five_cycle(announce):
    a5 = build_named_group("A:5")
    x = rep_of_order(a5, 5)
    r = solubilizer(a5, x)
    N = normalizer(a5, a5.subgroup([x]))
    ok = (
        r.order.value == 10
        and r.is_subgroup
        and r.structure["label"] == "dihedral 10"
        and set(N.elements()) == set(r.members)
    )
    announce(4, ok, f"|Sol| = {r.order.value}, {r.structure['label']}, N = Sol")
    assert r.order.value == 10
    assert r.is_subgroup
    assert r.structure["label"] == "dihedral 10"
    assert set(N.elements()) == set(r.members)


def test_criterion_05_psl27_reaches_21(announce):
    psl7 = build_named_group("PSL2:7")
    hits = []
    for c in psl7.conjugacy_classes().classes:
        r = solubilizer(psl7, c.representative)
        if r.order.value == 21:
            hits.append((c.element_order, r))
    realized = sorted({k for k, _ in hits})
    ok = bool(hits) and all(
        r.is_subgroup and r.structure["label"] == "C7:C3" for _, r in hits
    )
    announce(5, ok, f"|Sol| = 21 realized at element order(s) {realized}")
    assert hits, "no class representative realizes 21"
    for _, r in hits:
        assert r.is_subgroup
        assert r.structure["label"] == "C7:C3"


def test_criterion_06_pgl27_order_eight(announce):
    pgl7 = build_named_group("PGL2:7")
    r = solubilizer(pgl7, rep_of_order(pgl7, 8))
    two_part = 2 ** pgl7.order_factored.factors[2]
    # a subgroup whose order is the full 2-part is itself a Sylow 2-subgroup
    ok = (
        r.order.value == 16
        and r.is_subgroup
        and r.structure["label"] == "dihedral 16"
        and r.order.value == two_part
        and set(r.subgroup.elements()) == set(r.members)
    )
    announce(6, ok, f"|Sol| = {r.order.value} = 2-part, {r.structure['label']}")
    assert r.order.value == 16
    assert r.is_subgroup
    assert r.structure["label"] == "dihedral 16"
    assert r.order.value == two_part
    assert set(r.subgroup.elements()) == set(r.members)


def test_criterion_07_a5_involutions(announce):
    a5 = build_named_group("A:5")
    involutions = [g for g in a5.elements() if g.order() == 2]
    assert len(involutions) == 15
    results = [solubilizer(a5, x) for x in involutions]
    ok = all(r.order.value == 36 and not closure_test(r.members) for r in results)
    announce(7, ok, "all 15 involutions: |Sol| = 36, not closed")
    for r in results:
        assert r.order.value == 36
        assert not r.is_subgroup
        assert not closure_test(r.members)


def test_criterion_08_table1(announce):
    t0 = time.perf_counter()
    doc = run_table1(RunConfig(workers=0))
    elapsed = time.perf_counter() - t0
    ok = doc["all_ok"] and len(doc["rows"]) == 14 and elapsed < 180.0
    announce(8, ok, f"14 rows, {elapsed:.1f}s")
    assert len(doc["rows"]) == 14
    assert doc["all_ok"]
    for row in doc["rows"]:
        assert row["insoluble"]
        assert row["fitting_order"] == 1
    assert elapsed < 180.0, f"took {elapsed:.1f}s"


def test_criterion_09_products_with_pgl27(announce):
    pgl7 = build_named_group("PGL2:7")
    x = rep_of_order(pgl7, 8)
    expected = {"C:2": 32, "C:4": 64}
    reports = {}
    for name, want in expected.items():
        rep = direct_product_sol_check(build_named_group(name), pgl7, x)
        reports[name] = rep
        assert rep["passed"]
        assert rep["sol_in_factor"] == 16
        assert rep["sol_in_product"] == want
    announce(9, True, "C2 x PGL(2,7): 32, C4 x PGL(2,7): 64, factor-by-factor sets match")


# triggered records per check item on the default suite, whatever the worker
# count: a check that silently stops firing, say one fed by N_G(<x>) or ell,
# changes them
ALWAYS_TRIGGERED = (
    "order_divides", "centralizer_divides", "containment", "radical_divides",
    "cyclic_proper", "order_not_prime", "conjugation_equivariance",
    "normalizer_dichotomy", "order_not_prime_square",
)
TRIGGER_COUNTS = {
    **dict.fromkeys(ALWAYS_TRIGGERED, 127),
    "no_self_normalizing_prime_cyclic": 69,
    "exponent_dichotomy": 68,
    "sol_pq": 11,
    "sol_2p": 7,
    "sylow2_of_sol_nonabelian_ge16": 5,
    "sol_2group": 5,
    "sol_16": 4,
    "involution_class_in_core": 0,
}


def test_criterion_10_default_suite_gate(announce):
    gate = {
        "order_divides",
        "centralizer_divides",
        "containment",
        "radical_divides",
        "cyclic_proper",
        "order_not_prime",
        "conjugation_equivariance",
        "normalizer_dichotomy",
        "exponent_dichotomy",
        "order_not_prime_square",
    }
    t0 = time.perf_counter()
    config = RunConfig()  # all available cores
    doc = run_full_suite(config)
    elapsed = time.perf_counter() - t0
    gate_failures = [
        c
        for g in doc["groups"]
        for c in g["lemma_checks"]
        if c["item"] in gate and not c["passed"]
    ]
    ok = not gate_failures and elapsed < 300.0
    announce(
        10, ok, f"{len(doc['groups'])} groups, {elapsed:.1f}s, {config.resolved_workers()} workers"
    )
    assert not gate_failures, gate_failures
    assert doc["all_passed"]
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    triggered = collections.Counter()
    for g in doc["groups"]:
        for c in g["lemma_checks"] + g["theorem_checks"]:
            triggered[c["item"]] += c["triggered"]
    assert dict(triggered) == TRIGGER_COUNTS


def test_criterion_11_sl27_center_quotient(announce):
    G = build_named_group("SL2:7")
    Z = center(G)
    classes = G.conjugacy_classes().classes
    results = [quotient_sol_check(G, Z, c.representative) for c in classes]
    ok = all(r["passed"] for r in results)
    announce(11, ok, f"all {len(results)} class representatives")
    assert len(results) == 11
    for r in results:
        assert r["passed"]
        assert r["n_soluble"]


def test_criterion_12_conjecture_scan_clean(announce):
    doc = run_conjecture_scan(RunConfig())
    exit_code = 2 if doc["counterexamples"] else 0
    announce(12, exit_code == 0,
             f"{len(doc['records'])} records, {doc['counterexamples']} counterexamples")
    assert not doc["counterexamples"]
    assert exit_code == 0


def test_criterion_13_radical_against_brute_force(announce):
    pool = [
        "C:24", "C:100", "C:17", "D:16", "D:20", "D:34", "SD:16", "SD:32",
        "Q:8", "Q:16", "Q:32", "S:3", "S:4", "A:4", "A:5", "SL2:5",
        "PSL2:7", "C7:C3", "C:2 x A:5", "C:3 x D:10", "C:2 x C:2 x C:4",
        "C:5 x S:3", "C:2 x Q:8", "C:6 x S:3",
    ]
    rng = random.Random(20260816)
    corpus = rng.sample(pool, 12)
    for name in corpus:
        G = build_named_group(name)
        assert G.order <= 200, name
        R = soluble_radical(G).radical
        radical_set = set(R.elements())
        # R(G) = {g : Sol_G(g) = G} (Guralnick-Kunyavskii-Plotkin-Shalev)
        flagged = {g for g in G.elements() if solubilizer(G, g).order.value == G.order}
        brute = {
            g for g in G.elements() if is_soluble(normal_closure(G, [g]))
        }
        assert radical_set == flagged == brute, name
        assert G.subgroup(list(brute)).order == R.order
    announce(13, True, f"12 groups, seed 20260816: {', '.join(corpus)}")
