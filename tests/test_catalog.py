"""Named-group construction: orders, flags, spectra, the name grammar, and
the generator tables of the projective-line groups, pinned bit for bit."""

import hashlib

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
from grouplab.catalog import _parse, catalog_row

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


def test_small_projective_groups_are_soluble():
    # PSL(2,2) = PGL(2,2) = S3, PSL(2,3) = A4 and PGL(2,3) = S4, whose Fitting
    # subgroups are C3, V4, C3 and V4
    for name, order, fitting in [("PSL2:2", 6, 3), ("PSL2:3", 12, 4), ("PGL2:2", 6, 3),
                                 ("PGL2:3", 24, 4)]:
        row = catalog_row(name)
        assert (row["order"]["value"], row["insoluble"], row["fitting_order"]) == (
            order, False, fitting), name


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
    # the spec only; the degree-32 build itself is exercised in the suite tests
    spec = group_spec("PSL2:31")
    assert (spec.degree, spec.expected_order.value) == (32, 14880)
    assert spec.flags == {"soluble": False, "simple": True, "trivial_fitting": True}


# sha256 of the generator image tables, as built by the SmallField arithmetic
# and the M10 order-spectrum search that the power-table construction replaced:
# every PSL2/PGL2/PGammaL2 name with q = p^k, p <= 31, k <= 3, q <= 1024, and M10
GENERATOR_DIGESTS = {
    "PSL2:2": "25dd81baaef34db7",
    "PGL2:2": "25dd81baaef34db7",
    "PSL2:3": "c3370637654d096a",
    "PGL2:3": "2d8e473e32525a80",
    "PSL2:4": "47a482fc10b74e47",
    "PGL2:4": "47a482fc10b74e47",
    "PGammaL2:4": "308438f727c51466",
    "PSL2:5": "c53a9043d60628ce",
    "PGL2:5": "0455e86bf79a01ad",
    "PSL2:7": "7f4eb7edfa4756e0",
    "PGL2:7": "38fd75021ba46e4c",
    "PSL2:8": "ced5cb7287f0632e",
    "PGL2:8": "ced5cb7287f0632e",
    "PGammaL2:8": "9a6a388fe2650e6d",
    "PSL2:9": "a95a0d880662dc05",
    "PGL2:9": "c7f06bca569e4644",
    "PGammaL2:9": "aacbd1032e47c14f",
    "PSL2:11": "f8f7c565d33f2a43",
    "PGL2:11": "d0425567e1402f1d",
    "PSL2:13": "999200d985eb4f53",
    "PGL2:13": "7b7e2e582609f1fe",
    "PSL2:17": "a63856e69e3a3b59",
    "PGL2:17": "f79b09cc0218948d",
    "PSL2:19": "2dfbbed7d4b20461",
    "PGL2:19": "90cee9235dd4bb61",
    "PSL2:23": "96ba8a3429d5c4cd",
    "PGL2:23": "626f63ac88864b87",
    "PSL2:25": "9eef04d414b679de",
    "PGL2:25": "1c1b9db639482e3f",
    "PGammaL2:25": "2659032d1e14894c",
    "PSL2:27": "98fe47912233feeb",
    "PGL2:27": "7ec9b906298fad5b",
    "PGammaL2:27": "323bf7afebdd27c1",
    "PSL2:29": "73ffd6184adf003b",
    "PGL2:29": "b3d070f2f10b0eaa",
    "PSL2:31": "ecbcc0769441a49d",
    "PGL2:31": "7da0dce0a1a7241d",
    "PSL2:49": "9560d5d0998508dc",
    "PGL2:49": "68d5c0b892aa34b1",
    "PGammaL2:49": "b6741a7a921aa4ff",
    "PSL2:121": "59ff63db2bf1850c",
    "PGL2:121": "015ffd3880750504",
    "PGammaL2:121": "541a9eae86674348",
    "PSL2:125": "402eaf16f5e22130",
    "PGL2:125": "d5582dc1debfd487",
    "PGammaL2:125": "263de94eb23ba0da",
    "PSL2:169": "ece4f9ee58610cca",
    "PGL2:169": "633fe6b4becb9cf9",
    "PGammaL2:169": "dc036c72d8e0466b",
    "PSL2:289": "0aa25218dd141433",
    "PGL2:289": "ad17e455296a161c",
    "PGammaL2:289": "644c96dc665ff338",
    "PSL2:343": "38d338a2b7903895",
    "PGL2:343": "a89da8268937940d",
    "PGammaL2:343": "0d2d587c4d4d721d",
    "PSL2:361": "fd7016bcb3a8907a",
    "PGL2:361": "395727e4fe52cf9f",
    "PGammaL2:361": "db7cd84a19e6df82",
    "PSL2:529": "13d1ac1d80e7071e",
    "PGL2:529": "03e0ff5ba7df2fcb",
    "PGammaL2:529": "f6d190ec934a23d4",
    "PSL2:841": "81c928eb689f4d3c",
    "PGL2:841": "086d850da3576473",
    "PGammaL2:841": "0c5a03eeef4006fd",
    "PSL2:961": "ae591e5983338fdf",
    "PGL2:961": "fbe1d5b2192321fa",
    "PGammaL2:961": "b1d41902953fb139",
    "M10": "d811f571676ef287",
}


def generator_digest(gens):
    text = ";".join(",".join(map(str, g.images)) for g in gens)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", GENERATOR_DIGESTS)
def test_projective_line_generators_are_bit_for_bit(name):
    spec, gens = _parse(name)
    assert spec == group_spec(name)
    assert generator_digest(gens()) == GENERATOR_DIGESTS[name]


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
