"""Core permutation engine: parsing, arithmetic laws, chain enumeration."""

import functools
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SPerm, PermutationGroup

from grouplab import (
    CapExceededError,
    FactoredInteger,
    ParseError,
    PermGroup,
    Permutation,
    build_named_group,
    closure_test,
    parse_permutation,
)
from grouplab.catalog import TABLE1_NAMES
from grouplab.perm import (
    OrderReached,
    _Chain,
    _chain_from_raws,
    _inv_table,
    _raw_conj,
    _raw_inv,
    _raw_mult,
)
from oracles import conjugacy_classes_by_brute_force
from test_group_facts import LABELS, group

perms = st.integers(3, 8).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(lambda im: Permutation(list(im)))
)


def same_degree_pair(n):
    one = st.permutations(range(1, n + 1)).map(lambda im: Permutation(list(im)))
    return st.tuples(one, one)


pairs = st.integers(3, 8).flatmap(same_degree_pair)
triples = st.integers(3, 7).flatmap(
    lambda n: st.tuples(*([st.permutations(range(1, n + 1)).map(lambda im: Permutation(list(im)))] * 3))
)


# ------------------------------------------------------------------ parsing


def test_parse_basic():
    p = parse_permutation("(1,2,3)(4,5)", 5)
    assert p.images == (2, 3, 1, 5, 4)
    assert p.order() == 6


def test_parse_identity_and_whitespace():
    assert parse_permutation("()", 4).is_identity()
    assert parse_permutation(" (1, 2) ", 4) == parse_permutation("(1,2)", 4)


def test_parse_cycle_string_round_trip():
    for text in ["()", "(1,2)", "(1,2,3)(4,5)", "(2,4,6)(1,3)"]:
        p = parse_permutation(text, 6)
        assert parse_permutation(p.cycle_string(), 6) == p


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "(1,2",
        "1,2",
        "(1,1)",
        "(0,1)",
        "(1,9)",
        "(1)",
        "(1,2)x(3,4)",
        "(1,2)(2,3)",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_permutation(bad, 5)


def test_constructor_validates_images():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([2, 3])


# --------------------------------------------------------- arithmetic laws


@given(triples)
def test_associativity(t):
    a, b, c = t
    assert (a * b) * c == a * (b * c)


@given(pairs)
def test_left_to_right_application(pair):
    a, b = pair
    prod = a * b
    for point in range(1, a.degree + 1):
        assert prod(point) == b(a(point))


@given(perms)
def test_inverse(p):
    ident = Permutation.identity(p.degree)
    assert p * p.inverse() == ident
    assert p.inverse() * p == ident
    assert p.inverse().inverse() == p


@given(perms)
def test_order_matches_naive_power(p):
    k = p.order()
    ident = Permutation.identity(p.degree)
    assert p**k == ident
    # no smaller positive power is the identity
    cur = p
    for _ in range(1, k):
        assert cur != ident
        cur = cur * p


@given(perms, st.integers(-6, 6))
def test_power_consistency(p, k):
    ident = Permutation.identity(p.degree)
    expected = ident
    step = p if k >= 0 else p.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert p**k == expected


@given(pairs)
def test_conjugation_preserves_order_and_cycle_type(pair):
    x, g = pair
    y = x.conjugate(g)
    assert y.order() == x.order()
    assert sorted(len(c) for c in y.cycles()) == sorted(len(c) for c in x.cycles())
    assert y == g.inverse() * x * g


@given(pairs)
def test_commutator_definition(pair):
    x, y = pair
    assert x.commutator(y) == (y * x).inverse() * (x * y)


# ---------------------------------------------------------- groups, chains


def brute_closure(gens):
    ident = Permutation.identity(gens[0].degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


@pytest.mark.parametrize(
    "cycle_texts,degree",
    [
        (["(1,2)", "(1,2,3,4)"], 4),  # S4
        (["(1,2,3)", "(2,3,4)"], 4),  # A4
        (["(1,2,3,4)", "(1,3)"], 4),  # D8
        (["(1,2)(3,4)", "(1,3)(2,4)"], 4),  # V4
        (["(1,2,3,4,5)", "(2,5)(3,4)"], 5),  # D10
        (["(1,2,3,4,5,6)"], 6),  # C6
    ],
)
def test_chain_order_matches_brute_closure(cycle_texts, degree):
    gens = [parse_permutation(t, degree) for t in cycle_texts]
    G = PermGroup(gens)
    brute = brute_closure(gens)
    assert G.order == len(brute)
    assert set(G.elements()) == brute
    for e in brute:
        assert G.contains(e)


def test_contains_rejects_outside():
    a4 = PermGroup([parse_permutation("(1,2,3)", 4), parse_permutation("(2,3,4)", 4)])
    assert not a4.contains(parse_permutation("(1,2)", 4))


def test_order_factored():
    s4 = PermGroup([parse_permutation("(1,2)", 4), parse_permutation("(1,2,3,4)", 4)])
    f = s4.order_factored
    assert f.value == 24
    assert f.factors == {2: 3, 3: 1}
    assert str(f) == "2^3*3"


@given(st.integers(2, 5000))
def test_factored_integer_round_trip(n):
    f = FactoredInteger.from_int(n)
    assert math.prod(p**e for p, e in f.factor_pairs) == n
    assert f.value == n


def test_elements_cap():
    gens = [parse_permutation("(1,2)", 4), parse_permutation("(1,2,3,4)", 4)]
    with pytest.raises(CapExceededError):
        PermGroup(gens, cap=23).elements()


def test_closure_detection():
    s4 = PermGroup([parse_permutation("(1,2)", 4), parse_permutation("(1,2,3,4)", 4)])
    table = s4.conjugacy_classes()
    # a full subgroup passes, a ragged subset fails
    v4 = s4.subgroup([parse_permutation("(1,2)(3,4)", 4), parse_permutation("(1,3)(2,4)", 4)])
    assert closure_test(v4.elements())
    members = table.class_members(parse_permutation("(1,2)", 4))
    assert not closure_test(members)


@given(st.data())
def test_lagrange_for_generated_subgroups(data):
    s4 = PermGroup([parse_permutation("(1,2)", 4), parse_permutation("(1,2,3,4)", 4)])
    elements = list(s4.elements())
    k = data.draw(st.integers(1, 3))
    gens = data.draw(st.lists(st.sampled_from(elements), min_size=k, max_size=k))
    H = s4.subgroup(gens)
    assert s4.order % H.order == 0
    for h in H.elements():
        assert s4.contains(h)


def test_conjugacy_classes_partition():
    a5 = PermGroup([parse_permutation("(1,2,3)", 5), parse_permutation("(1,2,3,4,5)", 5)])
    table = a5.conjugacy_classes()
    assert sum(c.size for c in table.classes) == a5.order == 60
    sizes = sorted(c.size for c in table.classes)
    assert sizes == [1, 12, 12, 15, 20]
    for c in table.classes:
        assert a5.order % c.size == 0
        members = table.class_members(c.representative)
        assert len(members) == c.size
        # representative is the canonical minimum of its class
        assert min(m._raw for m in members) == c.representative._raw


@pytest.mark.parametrize(
    "name",
    TABLE1_NAMES + ("SL2:7", "S:4 x S:4", "C7:C3 x S:4", "D:20 x S:4", "dihedral_300"),
)
def test_class_table_matches_conjugation_by_every_element(name):
    # the table conjugates by the generators on element positions, in bytes
    # up to 256 points and by tuples above (dihedral_300); the oracle
    # conjugates by every element of G in plain tuple arithmetic
    G = dihedral_300() if name == "dihedral_300" else build_named_group(name)
    table = G.conjugacy_classes()
    rows, index = conjugacy_classes_by_brute_force(G)
    assert [(tuple(c.representative._raw), c.size, c.element_order) for c in table] == rows
    assert list(table._index) == G._elements_raw()
    assert {tuple(e): i for e, i in table._index.items()} == index


@pytest.mark.parametrize("name", ["S:4", "PGL2:7", "D:20 x S:4", "dihedral_300"])
def test_class_members_match_a_filter_of_the_index(name):
    # every class equals a brute-force filter of the index by its position,
    # from its representative and from any of its members
    G = dihedral_300() if name == "dihedral_300" else PermGroup(list(build_named_group(name).generators))
    table = G.conjugacy_classes()
    for i, c in enumerate(table.classes):
        members = table.class_members(c.representative)
        assert members._raws == {e for e, j in table._index.items() if j == i}, (name, c)
        assert len(members) == c.size
        assert table.class_members(next(iter(members)))._raws == members._raws


def test_element_set_conjugation():
    a4 = PermGroup([parse_permutation("(1,2,3)", 4), parse_permutation("(2,3,4)", 4)])
    table = a4.conjugacy_classes()
    cls = table.class_members(parse_permutation("(1,2,3)", 4))
    g = parse_permutation("(1,2)(3,4)", 4)
    moved = cls.conjugated(g)
    assert len(moved) == len(cls)
    assert {m.order() for m in moved} == {3}


# ------------------------------------------- stabilizer chain vs an oracle


@functools.lru_cache(maxsize=None)
def catalog_elements(name):
    """(degree, sorted elements) of a catalog group, independent of the
    chain's enumeration order."""
    G = build_named_group(name)
    return G.degree, tuple(sorted(G.elements()))


def to_sympy(p):
    return SPerm([i - 1 for i in p.images])


def draw_generators(data):
    """(degree, 1 to 3 random elements) of a random catalog group."""
    name = data.draw(st.sampled_from(["S:7", "PGammaL2:8", "M10", "PSL2:11"]))
    n, elements = catalog_elements(name)
    k = data.draw(st.integers(1, 3))
    return n, data.draw(st.lists(st.sampled_from(elements), min_size=k, max_size=k))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_chain_matches_sympy_order_and_membership(data):
    n, gens = draw_generators(data)
    H = PermGroup(gens)
    oracle = PermutationGroup([to_sympy(p) for p in gens])
    assert H.order == oracle.order()
    inside = data.draw(st.lists(st.sampled_from(H.elements()), min_size=1, max_size=4))
    anywhere = data.draw(
        st.lists(
            st.permutations(range(1, n + 1)).map(lambda im: Permutation(list(im))),
            min_size=1,
            max_size=4,
        )
    )
    for p in inside:
        assert H.contains(p)
    for p in anywhere:
        assert H.contains(p) == oracle.contains(to_sympy(p))


def reaches_stop(n, raws, stop) -> bool:
    ch = _Chain(n, stop)
    try:
        for r in raws:
            ch.extend(r)
    except OrderReached:
        return True
    assert ch.order() < stop
    return False


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_chain_stop_order_fires_exactly_at_the_sympy_order(data):
    n, gens = draw_generators(data)
    order = PermutationGroup([to_sympy(p) for p in gens]).order()
    raws = [p._raw for p in gens]
    stops = {data.draw(st.integers(2, 2 * order + 2)), order + 1}
    if order > 1:
        stops |= {order, order - 1} - {1}
    for stop in stops:
        assert reaches_stop(n, raws, stop) == (order >= stop), (order, stop)


def test_chain_above_byte_degree_uses_tuples():
    n = 300
    D = dihedral_300()
    rotation, reflection = D.generators
    assert type(rotation._raw) is tuple
    assert D.order == 2 * n
    assert set(D.elements()) == brute_closure([rotation, reflection])
    assert D.contains(rotation**7 * reflection)
    assert not D.contains(parse_permutation("(1,2)", n))


def chain_digest(ch) -> str:
    # raw tables padded to 256 bytes, as they were stored when the digests
    # were pinned
    def pad(r):
        return r + bytes(range(len(r), 256))

    trans = [[(p, (pad(t), pad(t_inv))) for p, (t, t_inv) in tr.items()] for tr in ch.trans]
    blob = repr((ch.base, [[pad(s) for s in level] for level in ch.sgens], trans))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# base, sgens and trans (in insertion order) of each chain as it was before
# the stop order was introduced
CHAIN_DIGESTS = {"S:7": "307bb3a731b1df7e", "PGammaL2:8": "13f408032587d3d4", "M10": "80ef7a8c3c9f9ff9"}


@pytest.mark.parametrize("name", ["S:7", "PGammaL2:8", "M10"])
def test_chain_rebuild_is_bit_for_bit(name):
    # a chain without a stop is the chain of before; a stop that never fires
    # changes nothing
    G = build_named_group(name)
    gens = G.generators
    one, two = PermGroup(gens)._chain, PermGroup(gens)._chain
    unreached = _Chain(G.degree, G.order + 1)
    for p in gens:
        unreached.extend(p._raw)
    for ch in (two, unreached):
        assert one.base == ch.base
        assert one.sgens == ch.sgens
        assert one.trans == ch.trans
    assert chain_digest(one) == CHAIN_DIGESTS[name]


def counted_chain_build(monkeypatch, n, raws):
    """The chain of raws and the number of _strip calls made below level 0,
    which are the Schreier generators sifted by _close."""
    calls = []
    real = _Chain._strip

    def counting(self, g, start):
        if start > 0:
            calls.append(start)
        return real(self, g, start)

    monkeypatch.setattr(_Chain, "_strip", counting)
    ch = _chain_from_raws(n, raws)
    monkeypatch.undo()
    return ch, len(calls)


@pytest.mark.parametrize(
    "name,source",
    [("PGammaL2:8", "gens"), ("M10", "gens"), ("S:7", "sorted300"), ("PGammaL2:8", "sorted300")],
)
def test_each_schreier_generator_is_sifted_at_most_once(monkeypatch, name, source):
    n, elements = catalog_elements(name)
    gens = build_named_group(name).generators if source == "gens" else elements[:300]
    ch, sifted = counted_chain_build(monkeypatch, n, [p._raw for p in gens])
    assert ch.order() == PermutationGroup([to_sympy(p) for p in gens]).order()
    assert 0 < sifted <= sum(len(t) * len(s) for t, s in zip(ch.trans, ch.sgens))


@pytest.mark.parametrize(
    "table",
    [
        # the n-cycle with its last image moved past the points: the orbit of
        # 0 runs through n + 1 points, which no permutation of 0..n-1 gives
        bytes([1, 2]),
        bytes([1, 2, 3, 4, 5]),
        bytes(range(1, 256)),
        # a 10-cycle squared, restricted to the points 0, 2, 4, 6, 8 without
        # relabelling them 0..4: every orbit is short, and the levels pile up
        bytes([2, 4, 6, 8, 0]),
    ],
    ids=["2", "5", "255", "unrelabelled"],
)
def test_table_outside_the_points_raises(table):
    with pytest.raises(RuntimeError, match="does not permute"):
        _Chain(len(table)).extend(table)


def test_chain_copy_is_independent():
    # a copy extends as a new chain does, and leaves the original as it was
    G = build_named_group("PGammaL2:8")
    x, *rest = (p._raw for p in G.generators)
    prefix = _Chain(G.degree)
    prefix.extend(x)
    before = chain_digest(prefix)
    copy = prefix.copy()
    for y in rest:
        copy.extend(y)
    assert chain_digest(copy) == chain_digest(G._chain) and copy.order() == G.order
    assert chain_digest(prefix) == before and prefix.order() == G.generators[0].order()


# ------------------------------------------------------------ representation


def image_product(a, b):
    """The images of a*b, left factor first, from image lists."""
    return tuple(b[p - 1] for p in a)


def image_inverse(a):
    out = [0] * len(a)
    for i, p in enumerate(a, 1):
        out[p - 1] = i
    return tuple(out)


def image_power(a, k):
    base = a if k >= 0 else image_inverse(a)
    out = tuple(range(1, len(a) + 1))
    for _ in range(abs(k)):
        out = image_product(out, base)
    return out


def dihedral_300():
    n = 300
    rotation = Permutation([i % n + 1 for i in range(1, n + 1)])
    reflection = Permutation([(-i) % n + 1 for i in range(n)])
    return PermGroup([rotation, reflection])


@pytest.mark.parametrize("degree", [1, 2, 5, 48, 255, 256, 257, 300])
def test_raw_table_has_one_entry_per_point(degree):
    perms = [Permutation.identity(degree), Permutation(list(range(degree, 0, -1)))]
    if degree > 1:
        perms.append(parse_permutation(f"(1,{degree})", degree))
    for p in perms + [q * q.inverse() for q in perms]:
        assert type(p._raw) is (bytes if degree <= 256 else tuple)
        assert len(p._raw) == p.degree == degree


@pytest.mark.parametrize("label", LABELS + ("D:300",))
def test_arithmetic_matches_image_lists(label):
    # the generators and four seeded words in them, multiplied out as image
    # lists, against every operator of Permutation
    G = dihedral_300() if label == "D:300" else group(label)
    n = G.degree
    rng = random.Random(label)
    images = [p.images for p in G.generators]
    for _ in range(4):
        word = images[rng.randrange(len(G.generators))]
        for _ in range(5):
            word = image_product(word, images[rng.randrange(len(G.generators))])
        images.append(word)
    elems = [Permutation(im) for im in images]
    assert {len(r) for r in G._elements_raw()} == {n}
    for x, xi in zip(elems, images):
        assert len(x._raw) == n
        assert x.inverse().images == image_inverse(xi)
        for k in (-2, 0, 1, 3):
            assert (x**k).images == image_power(xi, k)
        for g, gi in zip(elems, images):
            prod, conj, comm = x * g, x.conjugate(g), x.commutator(g)
            assert prod.images == image_product(xi, gi)
            assert conj == g.inverse() * x * g
            assert conj.images == image_product(image_product(image_inverse(gi), xi), gi)
            xg, gx = image_product(xi, gi), image_product(gi, xi)
            assert comm.images == image_product(image_inverse(gx), xg)
            assert {len(r._raw) for r in (prod, conj, comm)} == {n}


@pytest.mark.parametrize("degree", [257, 300])
def test_tuple_gathers_match_their_per_point_definitions(degree):
    # above 256 points a raw table is a tuple and the product is a gather;
    # the product, the inverse and the conjugate are each compared with
    # their definition, point by point, on the identity and seeded random
    # permutations
    rng = random.Random(degree)
    raws = [tuple(range(degree))] + [tuple(rng.sample(range(degree), degree)) for _ in range(5)]
    for a in raws:
        inverse = [0] * degree
        for i in range(degree):
            inverse[a[i]] = i
        assert _inv_table(a, degree) == _raw_inv(a, degree) == tuple(inverse)
        for g in raws:
            assert _raw_mult(a, g) == tuple(g[a[i]] for i in range(degree))
            conj = [0] * degree
            for i in range(degree):
                conj[g[i]] = g[a[i]]
            assert _raw_conj(a, g) == tuple(conj)
