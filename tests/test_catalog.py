"""Named-group construction: orders, flags, spectra, and the name grammar."""

import pytest

from grouplab import (
    TABLE1_NAMES,
    build_named_group,
    center,
    derived_subgroup,
    direct_product,
    group_spec,
    is_soluble,
    quotient_group,
)
from grouplab.catalog import PSL31_SPEC, catalog_row

EXPECTED_ORDERS = {
    "A:5": 60,
    "S:5": 120,
    "PSL2:7": 168,
    "PGL2:7": 336,
    "A:6": 360,
    "PSL2:8": 504,
    "PSL2:11": 660,
    "S:6": 720,
    "PGL2:9": 720,
    "M10": 720,
    "PSL2:13": 1092,
    "PGL2:11": 1320,
    "PGammaL2:9": 1440,
    "PGammaL2:8": 1512,
}


def spectrum(G):
    return sorted({c.element_order for c in G.conjugacy_classes().classes})


def test_table1_names_and_orders():
    assert tuple(EXPECTED_ORDERS) == TABLE1_NAMES
    for name, order in EXPECTED_ORDERS.items():
        spec = group_spec(name)
        assert spec.expected_order.value == order
        G = build_named_group(name)
        assert G.order == order
        assert not is_soluble(G)


def test_table1_flags():
    simple = {"A:5", "PSL2:7", "A:6", "PSL2:8", "PSL2:11", "PSL2:13"}
    for name in TABLE1_NAMES:
        flags = group_spec(name).flags
        assert flags["soluble"] is False
        assert flags["trivial_fitting"] is True
        assert flags["simple"] is (name in simple)


def test_order_720_trio_is_distinguished_by_spectrum():
    # S6, PGL(2,9) and M10 share the order; their element orders differ
    s6 = spectrum(build_named_group("S:6"))
    pgl29 = spectrum(build_named_group("PGL2:9"))
    m10 = spectrum(build_named_group("M10"))
    assert m10 == [1, 2, 3, 4, 5, 8]
    assert s6 != pgl29 != m10 != s6


def test_m10_has_no_order_6_elements():
    assert 6 not in spectrum(build_named_group("M10"))


def test_psl_pgl_relation_odd_q():
    # PSL has index 2 in PGL for odd q
    for q in (7, 9, 11):
        psl = build_named_group(f"PSL2:{q}")
        pgl = build_named_group(f"PGL2:{q}")
        assert pgl.order == 2 * psl.order
        assert pgl.degree == psl.degree == q + 1


def test_pgl_equals_psl_for_even_q():
    assert group_spec("PGL2:8").expected_order.value == 504
    assert build_named_group("PGL2:8").order == build_named_group("PSL2:8").order


def test_projective_groups_are_2_transitive():
    # orbit of (point1, point2) under the action has size n(n-1)
    G = build_named_group("PSL2:7")
    n = G.degree
    pairs = set()
    frontier = [(1, 2)]
    seen = {(1, 2)}
    while frontier:
        nxt = []
        for a, b in frontier:
            for gen in G.generators:
                img = (gen(a), gen(b))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    assert len(seen) == n * (n - 1)


def test_family_constructions():
    assert build_named_group("C:7").order == 7
    assert build_named_group("C:1").order == 1
    assert build_named_group("D:10").order == 10
    assert build_named_group("D:10").degree == 5
    assert build_named_group("SD:16").order == 16
    assert build_named_group("Q:8").order == 8
    assert build_named_group("S:3").order == 6
    assert build_named_group("A:4").order == 12
    assert build_named_group("A:7").order == 2520


def test_quaternion_has_unique_involution():
    for m in (8, 16, 32):
        G = build_named_group(f"Q:{m}")
        assert G.order == m
        involutions = [x for x in G.elements() if x.order() == 2]
        assert len(involutions) == 1


def test_semidihedral_involution_count():
    # SD16 has 5 involutions; D16 has 9; Q16 has 1
    counts = {}
    for name in ("SD:16", "D:16", "Q:16"):
        G = build_named_group(name)
        counts[name] = sum(1 for x in G.elements() if x.order() == 2)
    assert counts == {"SD:16": 5, "D:16": 9, "Q:16": 1}


def test_c7_c3_is_nonabelian_of_order_21():
    G = build_named_group("C7:C3")
    assert G.order == 21
    assert derived_subgroup(G).order == 7


def test_sl2_values():
    sl25 = build_named_group("SL2:5")
    assert sl25.order == 120
    assert not is_soluble(sl25)
    sl27 = build_named_group("SL2:7")
    assert sl27.order == 336
    z = center(sl27)
    assert z.order == 2
    Q, _ = quotient_group(sl27, z)
    assert Q.order == 168


def test_psl2_31_spec():
    # order only; the degree-32 build itself is exercised in the suite tests
    assert PSL31_SPEC.expected_order.value == 14880
    assert group_spec("PSL2:31").expected_order.value == 14880


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "X:5",
        "A:2",
        "D:7",
        "D:4",
        "SD:12",
        "SD:8",
        "Q:6",
        "Q:4",
        "C:0",
        "PSL2:6",
        "PSL2:1",
        "PGammaL2:7",
        "SL2:4",
        "SL2:9",
        "M11",
        "C7:C5",
        "S:",
        "A5",
    ],
)
def test_name_grammar_rejects(bad):
    with pytest.raises(ValueError):
        group_spec(bad)


def test_products():
    spec = group_spec("C:2 x A:5")
    assert spec.expected_order.value == 120
    G = build_named_group("C:2 x A:5")
    assert G.order == 120
    assert G.degree == 7
    assert not is_soluble(G)
    soluble_product = build_named_group("C:3 x D:10")
    assert soluble_product.order == 30
    assert is_soluble(soluble_product)


def test_triple_product():
    G = build_named_group("C:2 x C:3 x C:5")
    assert G.order == 30
    assert is_soluble(G)


def test_direct_product_embeddings():
    A = build_named_group("C:4")
    H = build_named_group("S:3")
    G, embed_left, embed_right = direct_product(A, H)
    assert G.order == 24
    for a in A.elements():
        for h in H.elements():
            left, right = embed_left(a), embed_right(h)
            assert left * right == right * left
            assert G.contains(left * right)


def test_validate_catalog_rows():
    rows = [catalog_row(name) for name in TABLE1_NAMES]
    assert len(rows) == 14
    for row in rows:
        assert row["insoluble"] is True
        assert row["fitting_order"] == 1
