"""Structural computations against frozen oracles and a sympy cross-check.

Frozen values were derived independently before implementation: by hand
(Lagrange/centralizer counts on small groups), by sympy, or by brute-force
set computations spelled out in the test bodies themselves.
"""

import collections
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation as SPerm, PermutationGroup

from grouplab import analysis as analysis_mod
from grouplab import catalog as catalog_mod
from grouplab import (
    PermGroup,
    build_named_group,
    center,
    CapExceededError,
    core,
    derived_subgroup,
    direct_product,
    fitting_subgroup,
    identify_small_group,
    is_nilpotent,
    is_simple,
    is_soluble,
    normal_closure,
    parse_permutation,
    quotient_group,
    soluble_radical,
    solubilizer,
    sylow_subgroup,
)
from grouplab.perm import (
    OrderReached,
    Permutation,
    _Chain,
    _group_from_raws,
    _raw_commutator,
    _raw_identity,
    _raw_inv,
    _raw_mult,
)
from grouplab.suite import _QUOTIENT_SECTIONS, RunConfig, run_full_suite
from oracles import centralizer, lower_central_series, normalizer
from test_group_facts import LABELS, group
from test_perm import dihedral_300


def g(name):
    return build_named_group(name)


def perm(text, degree):
    return parse_permutation(text, degree)


# ------------------------------------------------------------- solubility


def test_solubility_basics():
    assert is_soluble(g("S:4"))
    assert is_soluble(g("C:6"))
    assert is_soluble(g("D:16"))
    assert not is_soluble(g("A:5"))
    assert not is_soluble(g("S:5"))
    assert not is_soluble(g("SL2:7"))


def test_solubility_matches_sympy_on_random_subgroups():
    """Independent oracle: sympy's is_solvable on 2-generated subgroups of S6."""
    s6 = g("S:6")
    elements = list(s6.elements())
    rng = random.Random(20260816)
    for _ in range(40):
        a, b = rng.choice(elements), rng.choice(elements)
        H = s6.subgroup([a, b])
        sp = PermutationGroup(
            [SPerm([i - 1 for i in a.images]), SPerm([i - 1 for i in b.images])]
        )
        assert is_soluble(H) == sp.is_solvable


def test_derived_series_s4():
    # S4 > A4 > V4 > 1
    series = [g("S:4")]
    while series[-1].order > 1:
        series.append(derived_subgroup(series[-1]))
    assert [H.order for H in series] == [24, 12, 4, 1]


def test_derived_series_perfect_group_stalls():
    # A5 is perfect: its derived series never leaves A5
    assert derived_subgroup(g("A:5")).order == 60


def test_derived_series_trivial_group():
    assert derived_subgroup(g("C:1")).order == 1


def test_derived_subgroup_values():
    assert derived_subgroup(g("S:4")).order == 12
    assert derived_subgroup(g("D:16")).order == 4
    assert derived_subgroup(g("Q:8")).order == 2
    assert derived_subgroup(g("C:12")).order == 1


# ------------------------------------------------ ambient-screened pair test


def frozen_walk(n, gens):
    """The derived-series walk as it stood before the ambient screen, kept as
    the oracle: each closure is built in full or until an extend brings its
    order to the previous term's, and that order is tested afterwards."""
    ident = _raw_identity(n)
    cur = [g for g in gens if g != ident]
    prev = None
    while True:
        comms = []
        for i, a in enumerate(cur):
            for b in cur[i + 1 :]:
                c = _raw_commutator(a, b, n)
                if c != ident:
                    comms.append(c)
        if not comms:
            return True
        ch = _Chain(n)
        found = [c for c in comms if ch.extend(c)]
        pairs = [(g, _raw_inv(g, n)) for g in cur]
        qi = 0
        while qi < len(found):
            a = found[qi]
            qi += 1
            for g, g_inv in pairs:
                b = _raw_mult(_raw_mult(g_inv, a), g)
                if ch.extend(b):
                    found.append(b)
                    if prev is not None and ch.order() >= prev:
                        return False
        o = ch.order()
        if o == 1:
            return True
        if prev is not None and o >= prev:
            return False
        prev = o
        cur = found


SCREENED = ["A:5", "PSL2:7", "PGL2:7", "S:6", "PGammaL2:8", "M10", "SL2:7", "S:4 x S:4"]


@functools.lru_cache(maxsize=None)
def sorted_elements(name):
    return tuple(sorted(g(name).elements()))


def sympy_pair(x, y):
    return PermutationGroup([SPerm([i - 1 for i in p.images]) for p in (x, y)])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pair_soluble_matches_frozen_walk_and_sympy(data):
    name = data.draw(st.sampled_from(SCREENED))
    G = g(name)
    x = data.draw(st.sampled_from(sorted_elements(name)))
    y = data.draw(st.sampled_from(sorted_elements(name)))
    verdict = analysis_mod.pair_soluble(G, x._raw, y._raw)
    assert verdict == frozen_walk(G.degree, (x._raw, y._raw)), (name, x, y)
    assert verdict == sympy_pair(x, y).is_solvable, (name, x, y)


@functools.lru_cache(maxsize=None)
def sympy_residual(name):
    """The last term of the derived series of the group, by sympy."""
    gens = [SPerm([i - 1 for i in p.images]) for p in g(name).generators]
    return PermutationGroup(gens).derived_series()[-1]


def expected_branch(name, H):
    """Which way pair_soluble must settle a pair generating the sympy group H
    in the group called name, from |G|, |H|, whether G is soluble and whether
    H contains G's soluble residual D."""
    G = g(name)
    if is_soluble(G):
        return "soluble G"
    h_order = H.order()
    if 5 * h_order > G.order:
        return "index below 5"
    primes = [p for p, _ in G.order_factored.factor_pairs if h_order % p == 0]
    if h_order < 60 or h_order % 4 or len(primes) <= 2:
        return "order"
    if all(H.contains(d) for d in sympy_residual(name).generators):
        return "contains residual"
    return "walk"


def residual_elements(name):
    G = g(name)
    return tuple(sorted(_group_from_raws(G, analysis_mod._soluble_residual(G)[1]).elements()))


def wide_points(G):
    """The 0-based points of G's orbits of more than 4 points, by sympy."""
    ambient = PermutationGroup([SPerm([i - 1 for i in p.images]) for p in G.generators])
    return sorted(p for orbit in ambient.orbits() if len(orbit) > 4 for p in orbit)


def wide_restriction(G, x, y):
    """The images of x and y on the points of G's orbits of more than 4
    points: equal for two pairs exactly when their restrictions are."""
    points = wide_points(G)
    return tuple(tuple(q.images[p] for p in points) for q in (x, y))


def wide_part_order(G, x, y):
    """sympy's order of <x, y> restricted to the points of G's orbits of more
    than 4 points, 1 when there are none."""
    points = wide_points(G)
    if not points:
        return 1
    label = {p: i for i, p in enumerate(points)}
    restricted = [SPerm([label[q.images[p] - 1] for p in points]) for q in (x, y)]
    return PermutationGroup(restricted).order()


def counted_verdict(monkeypatch, G, x, y, orders=None):
    """_pair_verdict(G, x, y), the degrees of the pair tests it ran (calls of
    _soluble_raw) and the degrees of the derived-series walks it ran; the
    order each walk started from is appended to orders when it is given."""
    tests, walks = [], []
    real_test, real_walk = analysis_mod._soluble_raw, analysis_mod._residual_raw

    def test(n, gens):
        tests.append(n)
        return real_test(n, gens)

    def walk(n, gens, order=None):
        walks.append(n)
        if orders is not None:
            orders.append(order)
        return real_walk(n, gens, order)

    monkeypatch.setattr(analysis_mod, "_soluble_raw", test)
    monkeypatch.setattr(analysis_mod, "_residual_raw", walk)
    try:
        out = analysis_mod._pair_verdict(G, x, y)
    finally:
        monkeypatch.setattr(analysis_mod, "_soluble_raw", real_test)
        monkeypatch.setattr(analysis_mod, "_residual_raw", real_walk)
    return out, tests, walks


def test_pair_soluble_takes_every_branch(monkeypatch):
    # in every insoluble group of SCREENED a subgroup containing D has index
    # at most 4, so only C4 x PGL(2,7), where |G : D| = 8, can show the
    # residual branch: its pairs are drawn from G and from D
    for name in SCREENED:
        G = g(name)
        assert is_soluble(G) or G.order <= 4 * analysis_mod._soluble_residual(G)[0], name
    wide = "C:4 x PGL2:7"
    assert g(wide).order == 8 * analysis_mod._soluble_residual(g(wide))[0]
    pools = [(name, sorted_elements(name)) for name in SCREENED]
    pools += [(wide, sorted_elements(wide)), (wide, residual_elements(wide))]
    # a soluble G runs one pair test on the restriction of x and y to its
    # orbits of more than 4 points the first time the group sees that
    # restriction, and none after; that test walks once, on all of those
    # points, only when the restriction has at least 60 elements: never in
    # S:4 x S:4, whose restrictions are all one, and in D:120 x S:4 on the 60
    # points of D:120 about half of the time
    pools.append(("D:120 x S:4", sorted_elements("D:120 x S:4")))
    rng = random.Random(20261018)
    seen = set()
    soluble_walks = set()
    for name, elements in pools:
        # a fresh group, whose pair verdicts no earlier test has memoized
        G = PermGroup(list(g(name).generators))
        is_soluble(G)
        tested = set()
        for _ in range(25):
            x, y = rng.choice(elements), rng.choice(elements)
            oracle = sympy_pair(x, y)
            orders = []
            (verdict, branch), tests, walks = counted_verdict(monkeypatch, G, x._raw, y._raw, orders)
            assert verdict == oracle.is_solvable, (name, x, y)
            assert branch == expected_branch(name, oracle), (name, x, y)
            if branch == "soluble G":
                key = wide_restriction(G, x, y)
                first = key not in tested
                tested.add(key)
                assert len(tests) == first, (name, x, y)
                reaches_60 = wide_part_order(G, x, y) >= 60
                w = analysis_mod._wide_part(G)[0]
                assert walks == ([w] if first and reaches_60 else []), (name, x, y)
                if first:
                    soluble_walks.add((name, reaches_60))
            else:
                # a walk pair runs no pair test: one walk of the whole of H,
                # from the order its chain already holds
                assert tests == [], (name, x, y, branch)
                if branch == "walk":
                    assert (walks, orders) == ([G.degree], [oracle.order()]), (name, x, y)
                else:
                    assert walks == [], (name, x, y, branch)
            seen.add(branch)
    assert seen == {"index below 5", "order", "contains residual", "walk", "soluble G"}
    assert soluble_walks == {("S:4 x S:4", False), ("D:120 x S:4", False), ("D:120 x S:4", True)}


@pytest.mark.parametrize(
    "name, x, y, order",
    [
        ("A:6", "(1,2,3,4,5)", "(1,2,3)", 60),
        ("A:6", "(1,2,3,4,5)", "(1,6)(2,5)", 60),
        ("S:6", "(1,2,3,4,5)", "(1,2,3)", 60),
        ("S:7", "(1,2,3,4,5,6,7)", "(2,3)(4,7)", 168),
    ],
)
def test_perfect_pair_walks_one_closure_stopped_at_its_order(monkeypatch, name, x, y, order):
    # A5 and PSL(2,7) are perfect and lie below a fifth of G and below its
    # residual, so they walk; the walk starts from |H|, which the pair's chain
    # holds, and the first derived subgroup reaches it: one chain, stopped
    G = PermGroup(list(g(name).generators))
    x, y = perm(x, G.degree), perm(y, G.degree)
    H = sympy_pair(x, y)
    assert H.order() == order and H.is_perfect
    # the residual and the chain of <x>, which the pair's run already holds
    analysis_mod._soluble_residual(G)
    analysis_mod._prefix_chain(G, x._raw)
    chains = []

    class Recorded(_Chain):
        __slots__ = ()

        def __init__(self, n, stop=None):
            super().__init__(n, stop)
            chains.append(self)

    monkeypatch.setattr(analysis_mod, "_Chain", Recorded)
    orders = []
    (verdict, branch), tests, walks = counted_verdict(monkeypatch, G, x._raw, y._raw, orders)
    assert (verdict, branch) == (False, "walk")
    assert (tests, walks, orders) == ([], [G.degree], [order])
    assert [ch.stop for ch in chains] == [order]
    assert chains[0].order() >= order  # it reached its stop


@pytest.mark.parametrize(
    "name, gens",
    [("A:5", ["(1,2,3)", "(1,2)(3,4)"]), ("S:5", ["(1,2,3,4)", "(1,2)"])],
)
def test_pairs_at_index_five_are_soluble(name, gens):
    # A4 < A5 and S4 < S5 have index exactly 5 and are soluble, so the stop at
    # |G|/5 must not be reached by any pair inside them
    G = g(name)
    point_stabilizer = G.subgroup([perm(t, G.degree) for t in gens])
    assert 5 * point_stabilizer.order == G.order
    elements = sorted(point_stabilizer.elements())
    generating = 0
    for x in elements:
        for y in elements:
            assert analysis_mod.pair_soluble(G, x._raw, y._raw), (x, y)
            generating += G.subgroup([x, y]).order == point_stabilizer.order
    assert generating


def test_chain_past_a_fifth_of_g_means_insoluble():
    # the stop is a certificate: a pair whose chain reaches |G|/5 + 1 is
    # insoluble, by sympy, in every insoluble group of the fact tables
    rng = random.Random(20261018)
    for label in LABELS:
        G = group(label)
        if is_soluble(G):
            continue
        elements = sorted(G.elements())
        reached = 0
        for _ in range(30):
            x, y = rng.choice(elements), rng.choice(elements)
            ch = _Chain(G.degree, G.order // 5 + 1)
            try:
                ch.extend(x._raw)
                ch.extend(y._raw)
            except OrderReached:
                reached += 1
                assert not sympy_pair(x, y).is_solvable, (label, x, y)
                assert not analysis_mod.pair_soluble(G, x._raw, y._raw), (label, x, y)
        assert reached, label


def test_residual_screen_sifts_every_generator():
    # C4 x AGL(1,7) in C4 x PGL(2,7) is soluble, yet its order is a multiple
    # of |D| = |PSL(2,7)|: only the sift of D's generators keeps the screen
    # from calling it insoluble, so pairs in or around it must be decided right
    name = "C:4 x PGL2:7"
    G = g(name)
    order, gens = analysis_mod._soluble_residual(G)
    elements = sorted_elements(name)
    rng = random.Random(20261018)
    seen = set()
    for _ in range(1500):
        x, y = rng.choice(elements), rng.choice(elements)
        ch = _Chain(G.degree)
        ch.extend(x._raw)
        ch.extend(y._raw)
        if ch.order() == G.order or ch.order() % order:
            continue
        inside = sum(ch.contains(d) for d in gens)
        verdict = analysis_mod.pair_soluble(G, x._raw, y._raw)
        assert verdict == frozen_walk(G.degree, (x._raw, y._raw)), (x, y)
        if inside < len(gens):
            assert verdict == sympy_pair(x, y).is_solvable, (x, y)
        seen.add(inside)
    assert seen == set(range(len(gens) + 1))


def test_residual_walk_ends_when_a_chain_misses_its_stop(monkeypatch):
    # a chain that ignores its stop order never raises OrderReached, so the
    # walk must see the perfect term from its order instead of looping on it
    stops = []

    def unstopped(n, stop=None):
        stops.append(stop)
        assert len(stops) < 20, "the derived-series walk does not end"
        return _Chain(n)

    G = g("S:7")
    monkeypatch.setattr(analysis_mod, "_Chain", unstopped)
    order, gens = analysis_mod._residual_raw(G.degree, G._gen_raws(), G.order)
    monkeypatch.undo()
    assert order == 2520
    assert _group_from_raws(G, gens).order == 2520
    assert 2520 in stops  # the stop that was missed


# pairs that the suite below settles by a derived-series walk ("walk"
# verdicts of _pair_verdict) with every screen in place; without the order
# rules |H| < 60 and 4 not dividing |H| the suite makes 306
SUITE_WALKS = 219


def run_screened_suite(monkeypatch):
    """The suite on three insoluble groups with cold groups and one worker,
    so that every count of work done in it repeats exactly."""
    monkeypatch.setattr(catalog_mod, "_BUILD_CACHE", {})
    doc = run_full_suite(RunConfig(groups=("S:6", "PGL2:11", "PGammaL2:8"), workers=1))
    assert doc["all_passed"]


def test_suite_walk_count_stays_screened(monkeypatch):
    # a gate on work done: a lost or weakened screen in pair_soluble raises it
    walks = []
    real = analysis_mod._pair_verdict

    def counting(G, x, y):
        out = real(G, x, y)
        if out[1] == "walk":
            walks.append(G.degree)
        return out

    monkeypatch.setattr(analysis_mod, "_pair_verdict", counting)
    run_screened_suite(monkeypatch)
    assert len(walks) <= SUITE_WALKS


# ------------------------------------------------- the shared chain of <x>


def fresh_verdict(G, x, y):
    """pair_soluble's verdict and branch from a new chain of <x, y> for every
    pair: the oracle for the chain of <x> that G keeps across pairs."""
    n = G.degree
    residual_order, residual = analysis_mod._soluble_residual(G)
    if residual_order == 1:
        return analysis_mod._soluble_raw(n, (x, y)), "soluble G"
    ch = _Chain(n, G.order // 5 + 1)
    try:
        ch.extend(x)
        ch.extend(y)
    except OrderReached:
        return False, "index below 5"
    h = ch.order()
    primes = [p for p, _ in G.order_factored.factor_pairs if h % p == 0]
    if h < 60 or h % 4 or len(primes) <= 2:
        return True, "order"
    if h % residual_order == 0 and all(ch.contains(d) for d in residual):
        return False, "contains residual"
    return analysis_mod._soluble_raw(n, (x, y)), "walk"


def test_shared_prefix_matches_fresh_chains_in_the_suite(monkeypatch):
    # every pair test of the suite, replayed with a new chain per pair, and
    # one in 40 against sympy
    calls = []
    real = analysis_mod._pair_verdict

    def recording(G, x, y):
        out = real(G, x, y)
        calls.append((G, x, y, out))
        return out

    monkeypatch.setattr(analysis_mod, "_pair_verdict", recording)
    run_screened_suite(monkeypatch)
    monkeypatch.undo()
    assert len(calls) > 2000
    assert {branch for *_, (_, branch) in calls} == {"index below 5", "order", "walk"}
    for G, x, y, out in calls:
        assert out == fresh_verdict(G, x, y), (G, x, y)
    for G, x, y, (verdict, _) in calls[::40]:
        n = G.degree
        pair = (Permutation._from_raw(x, n), Permutation._from_raw(y, n))
        assert verdict == sympy_pair(*pair).is_solvable, pair


def test_shared_prefix_is_kept_per_group():
    # A:6 and S:6 act on the same 6 points and share x = (1,2,3,4,5), but stop
    # at 73 and 145: <x, (1,2)> = S5 of order 120 passes only A:6's stop, so a
    # chain kept for x alone would settle it in S:6 at "index below 5". Pairs
    # on the two groups and on rebuilt copies of them are interleaved.
    A6, S6 = g("A:6"), g("S:6")
    groups = [A6, S6, PermGroup(list(A6.generators)), PermGroup(list(S6.generators))]
    x = perm("(1,2,3,4,5)", 6)._raw
    pairs = [(A6, perm("(1,2,3)", 6)._raw), (S6, perm("(1,2)", 6)._raw)]
    rng = random.Random(20261019)
    for k in range(200):
        G = groups[k % len(groups)]
        pairs.append((G, rng.choice(G._elements_raw())))
    for G, y in pairs:
        assert analysis_mod._pair_verdict(G, x, y) == fresh_verdict(G, x, y), (G, y)
    assert analysis_mod._pair_verdict(S6, x, pairs[1][1]) == (False, "walk")
    for G in groups:
        kept, ch = G._prefix
        assert kept == x and ch.stop == G.order // 5 + 1
        # the kept chain is the chain of <x> alone: no partner grew it
        assert ch.order() == 5
        assert analysis_mod._prefix_chain(G, x) is ch


def test_prefix_that_reaches_the_stop_is_not_kept():
    # only a soluble G can have |G : <x>| <= 4; the chain is then not kept
    G = PermGroup(list(g("C:6").generators))
    x = G.generators[0]._raw
    assert G.order // 5 + 1 <= 6
    assert analysis_mod._prefix_chain(G, x) is None
    assert G._prefix is None


# extends and sifts below level 0 in the suite above. Building a new chain of
# <x, y> for every pair test makes 12,121 extends, and sifting the strong
# generators that fix a level's base point at that point makes 32,011 sifts.
# A chain over N_G(<x>) for the solubilizer's conjugators, in place of the
# elements its normalizer scan keeps, adds 339 extends and 111 sifts
SUITE_EXTENDS = 8526
SUITE_SIFTS = 25089


def test_suite_chain_work_stays_shared(monkeypatch):
    # a gate on work done, like SUITE_WALKS: a lost reuse of the chain of <x>
    # raises the extends, and a lost skip of a sift that gives 1 the sifts
    extends, sifts = [], []
    real_extend, real_strip = _Chain.extend, _Chain._strip

    def extend(self, g):
        extends.append(g)
        return real_extend(self, g)

    def strip(self, g, start):
        if start > 0:
            sifts.append(start)
        return real_strip(self, g, start)

    monkeypatch.setattr(_Chain, "extend", extend)
    monkeypatch.setattr(_Chain, "_strip", strip)
    run_screened_suite(monkeypatch)
    assert len(extends) <= SUITE_EXTENDS
    assert len(sifts) <= SUITE_SIFTS


# ------------------------------------------------- one orbit at a time

INTRANSITIVE = [
    # the soluble products of the benchmark
    "S:4 x S:4",
    "C7:C3 x S:4",
    "D:20 x S:4",
    # an insoluble factor beside an orbit of at most 4 points
    "C:2 x A:5",
    "C:4 x PGL2:7",
    # two wide orbits of opposite solubility, in both orders, so a test that
    # reads only the first wide orbit gives a wrong verdict in one of them
    "A:5 x C7:C3",
    "C7:C3 x A:5",
]


@pytest.mark.parametrize("name", INTRANSITIVE)
def test_constituent_walk_matches_frozen_walk_and_sympy(name):
    # _soluble_raw lists the pair and walks it at the full degree; the frozen
    # walk and sympy are the oracles
    G = g(name)
    elements = sorted_elements(name)
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(40):
        x, y = rng.choice(elements), rng.choice(elements)
        verdict = analysis_mod._soluble_raw(G.degree, (x._raw, y._raw))
        assert verdict == frozen_walk(G.degree, (x._raw, y._raw)), (name, x, y)
        assert verdict == sympy_pair(x, y).is_solvable, (name, x, y)
        verdicts.add(verdict)
    assert verdicts == ({True} if is_soluble(G) else {True, False}), name


# D_295 on the first 295 points of 300, beside a group on the last 5
ROTATION_295 = [(i + 1) % 295 for i in range(295)]
REFLECTION_295 = [(-i) % 295 for i in range(295)]


def on_300(head, tail):
    """The permutation of degree 300 that acts as head, 0-based images, on
    the first 295 points and as tail on the last 5."""
    return Permutation([p + 1 for p in head + [295 + t for t in tail]])


def test_constituents_of_degree_300_pairs():
    # tuple tables at degree 300: D_295 beside an insoluble and a soluble
    # group on the last five points, a pair moving only those five, a pair
    # moving only four of them, and a transitive pair; sympy and the frozen
    # walk are the oracles
    n, m = 300, 295
    rotation, reflection, fixed = ROTATION_295, REFLECTION_295, list(range(m))
    five_cycle, three_cycle, reflection_5 = [1, 2, 3, 4, 0], [1, 2, 0, 3, 4], [0, 4, 3, 2, 1]
    pairs = [
        (on_300(rotation, five_cycle), on_300(reflection, three_cycle)),
        (on_300(rotation, five_cycle), on_300(reflection, reflection_5)),
        (on_300(fixed, five_cycle), on_300(fixed, three_cycle)),
        (on_300(fixed, [1, 2, 3, 0, 4]), on_300(fixed, [1, 0, 2, 3, 4])),
        tuple(dihedral_300().generators),
    ]
    verdicts = []
    for x, y in pairs:
        assert type(x._raw) is tuple
        verdict = analysis_mod._soluble_raw(n, (x._raw, y._raw))
        assert verdict == sympy_pair(x, y).is_solvable, (x, y)
        assert verdict == frozen_walk(n, (x._raw, y._raw)), (x, y)
        verdicts.append(verdict)
    assert verdicts == [False, True, False, True, True]


# derived-series walks by degree in a single-group suite, with cold groups:
# one residual for the product and one for each factor, and no pair test. A
# pair is tested on its restriction to G's orbits of more than 4 points, and
# walks, once on all of those points, only when that restriction has at least
# 60 elements; every such restriction here is smaller
SOLUBLE_SUITE_WALKS = {
    "S:4 x S:4": {8: 1, 4: 1},
    "C7:C3 x S:4": {11: 1, 7: 1, 4: 1},
    "D:20 x S:4": {14: 1, 10: 1, 4: 1},
}


@pytest.mark.parametrize("name", sorted(SOLUBLE_SUITE_WALKS))
def test_soluble_suite_walks_only_wide_orbits(monkeypatch, name):
    # a gate on work done, like SUITE_WALKS: a lost listing below 60 walks
    # pairs at G's wide degree, and a lost restriction to G's wide orbits
    # walks them at the full degree
    degrees = collections.Counter()
    real = analysis_mod._residual_raw

    def counting(n, gens, order=None):
        degrees[n] += 1
        return real(n, gens, order)

    monkeypatch.setattr(catalog_mod, "_BUILD_CACHE", {})
    monkeypatch.setattr(analysis_mod, "_residual_raw", counting)
    doc = run_full_suite(RunConfig(groups=(name,), workers=1))
    assert doc["all_passed"]
    bounds = SOLUBLE_SUITE_WALKS[name]
    assert all(degrees[d] <= bounds.get(d, 0) for d in degrees), dict(degrees)


# pair tests (calls of _soluble_raw) in a single-group suite at seed 11, with
# cold groups: one per distinct restriction of a pair to G's orbits of more
# than 4 points. The suites make 2,221, 2,149 and 3,532 pair verdicts, and
# testing every pair made one pair test per verdict
SOLUBLE_SUITE_PAIR_TESTS = {
    "S:4 x S:4": 1,
    "C7:C3 x S:4": 302,
    "D:20 x S:4": 344,
}


@pytest.mark.parametrize("name", sorted(SOLUBLE_SUITE_PAIR_TESTS))
def test_soluble_suite_tests_each_restricted_pair_once(monkeypatch, name):
    # every pair verdict of the suite, memoized or not, equals a fresh pair
    # test on the restricted pair; the pair tests are one per distinct
    # restricted pair, and a gate on work done pins their number
    real_test, real_verdict = analysis_mod._soluble_raw, analysis_mod._pair_verdict
    tests, keys = [], set()

    def test(n, gens):
        tests.append(n)
        return real_test(n, gens)

    def verdict(G, x, y):
        out = real_verdict(G, x, y)
        w, restrict = analysis_mod._wide_part(G)
        key = restrict(x), restrict(y)
        keys.add(key)
        assert out == (real_test(w, key), "soluble G"), (name, x, y)
        return out

    monkeypatch.setattr(catalog_mod, "_BUILD_CACHE", {})
    monkeypatch.setattr(analysis_mod, "_soluble_raw", test)
    monkeypatch.setattr(analysis_mod, "_pair_verdict", verdict)
    doc = run_full_suite(RunConfig(groups=(name,), workers=1, seed=11))
    assert doc["all_passed"]
    assert len(tests) == len(keys) == SOLUBLE_SUITE_PAIR_TESTS[name], (len(tests), len(keys))


# ------------------------------------------ a soluble G, on G's own orbits


def dihedral_295(a, flip):
    """0-based images of the element i -> (+-i + a) mod 295 of D_295."""
    return [((-i if flip else i) + a) % 295 for i in range(295)]


# soluble groups of degree 300: (head generators on the first 295 points,
# tail generators on the last 5, the elements of the tail group, and the
# number of points of G's orbits of more than 4 points with the raw type of
# their restriction)
S4_ON_4 = [[1, 0, 2, 3, 4], [1, 2, 3, 0, 4]]
D10_ON_5 = [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]]
SOLUBLE_300 = {
    # all 300 points: the pair test restricts nothing, and walks as tuples
    "D:295 x D:10": ([ROTATION_295, REFLECTION_295], D10_ON_5, 300, tuple),
    # the 295-point orbit only, restricted to tuples
    "D:295 x S:4": ([ROTATION_295, REFLECTION_295], S4_ON_4, 295, tuple),
    # S_4 on the first 4 points, 291 fixed points and D_10 on the last 5:
    # the 5-point orbit only, restricted to bytes
    "S:4 x D:10": ([p + list(range(5, 295)) for p in S4_ON_4], D10_ON_5, 5, bytes),
}


def soluble_300(name):
    """The group called name in SOLUBLE_300, and a function drawing its
    random elements as raw tables."""
    head, tail, _, _ = SOLUBLE_300[name]
    fixed, fixed_5 = list(range(295)), list(range(5))
    G = PermGroup([on_300(h, fixed_5) for h in head] + [on_300(fixed, t) for t in tail])
    tails = sorted(PermGroup([Permutation([i + 1 for i in t]) for t in tail]).elements())
    heads = (
        [dihedral_295(a, f) for a in range(295) for f in (False, True)]
        if head[0] == ROTATION_295
        else [[p - 1 for p in e.images] + list(range(4, 295)) for e in sorted(g("S:4").elements())]
    )

    def draw(rng):
        return on_300(rng.choice(heads), [p - 1 for p in rng.choice(tails).images])._raw

    return G, draw


@pytest.mark.parametrize(
    "name, pairs",
    [("S:4 x S:4", 40), ("C7:C3 x S:4", 40), ("D:20 x S:4", 40)]
    + [(name, 12) for name in SOLUBLE_300],
)
def test_soluble_g_pairs_match_whole_walk_frozen_walk_and_sympy(monkeypatch, name, pairs):
    # in a soluble G a pair runs one pair test, on x and y restricted to G's
    # orbits of more than 4 points, the first time the group sees that
    # restriction and none after, and walks only a restriction of at least
    # 60 elements, by sympy's order, once on all w points; the whole-degree
    # walk without listing, the frozen walk and sympy are the oracles
    rng = random.Random(20261020)
    if name in SOLUBLE_300:
        G, draw = soluble_300(name)
        drawn = [(draw(rng), draw(rng)) for _ in range(pairs)]
        _, _, w, raw = SOLUBLE_300[name]
    else:
        # a fresh group, whose pair verdicts no earlier test has memoized
        G = PermGroup(list(g(name).generators))
        elements = G._elements_raw()
        drawn = [(rng.choice(elements), rng.choice(elements)) for _ in range(pairs)]
        w, raw = {"S:4 x S:4": 0, "C7:C3 x S:4": 7, "D:20 x S:4": 10}[name], bytes
    n = G.degree
    assert is_soluble(G), name
    if name in ("D:295 x D:10", "D:295 x S:4"):
        # random pairs of D_295 nearly always reach 60 on its orbit; r^59 has
        # order 5, and with a reflection it generates D_10, which is listed
        tail = SOLUBLE_300[name][1]
        x = on_300(dihedral_295(59, False), tail[0])._raw
        drawn += [(x, on_300(REFLECTION_295, tail[1])._raw), (x, x)]
    walked = set()
    tested = set()
    for x, y in drawn:
        (verdict, branch), tests, walks = counted_verdict(monkeypatch, G, x, y)
        pair = (Permutation._from_raw(x, n), Permutation._from_raw(y, n))
        assert G.contains(pair[0]) and G.contains(pair[1]), (name, pair)
        reaches_60 = wide_part_order(G, *pair) >= 60
        key = wide_restriction(G, *pair)
        first = key not in tested
        tested.add(key)
        assert branch == "soluble G", (name, pair)
        assert tests == ([w] if first else []), (name, pair)
        assert walks == ([w] if first and reaches_60 else []), (name, pair)
        whole = analysis_mod._residual_raw(n, (x, y))[0] == 1
        assert verdict == whole == frozen_walk(n, (x, y)), (name, pair)
        assert verdict == sympy_pair(*pair).is_solvable, (name, pair)
        walked.add(reaches_60)
    assert walked == ({False, True} if name.startswith("D:295") else {False}), name
    # the restriction keeps the points of G's wide orbits, in the raw type of
    # their number
    x = drawn[0][0]
    restricted = analysis_mod._wide_part(G)[1](x)
    assert (len(restricted), type(restricted)) == (w, raw), name
    if 0 < w < n:
        points = sorted(p for o in analysis_mod._orbits(n, G._gen_raws()) if len(o) > 4 for p in o)
        assert list(restricted) == [points.index(x[p]) for p in points], name


@pytest.mark.parametrize(
    "name, soluble",
    [("C:59", True), ("C:60", True), ("D:60", True), ("A:5", False)],
)
def test_listing_stops_at_the_60th_element(monkeypatch, name, soluble):
    # 60 = |A_5| is the order of the smallest insoluble group: C:59 is listed
    # in full and not walked; C:60, D:60 and A:5 reach the 60th element and
    # walk, to soluble, soluble and insoluble. A:5 takes the soluble-G branch
    # through a residual forced to order 1
    G = PermGroup(list(g(name).generators))
    x, y = G._gen_raws()[0], G._gen_raws()[-1]
    assert G.order == _group_from_raws(G, [x, y]).order
    assert analysis_mod._fewer_than_60(G.degree, x, y) == (G.order < 60)
    monkeypatch.setattr(analysis_mod, "_soluble_residual", lambda H: (1, ()))
    (verdict, branch), tests, walks = counted_verdict(monkeypatch, G, x, y)
    assert (verdict, branch) == (soluble, "soluble G")
    assert tests == [G.degree]
    assert walks == ([] if G.order < 60 else [G.degree])


@pytest.mark.parametrize("name", ["C:2 x A:5", "A:5 x C7:C3"])
def test_soluble_g_branch_decides_from_x_and_y(monkeypatch, name):
    # forced onto an insoluble G by a residual of order 1, the branch must
    # still give sympy's verdict on every pair: it reads x and y, not G
    G = PermGroup(list(g(name).generators))
    n = G.degree
    elements = G._elements_raw()
    rng = random.Random(20261020)
    verdicts = set()
    for _ in range(40):
        x, y = rng.choice(elements), rng.choice(elements)
        monkeypatch.setattr(analysis_mod, "_soluble_residual", lambda H: (1, ()))
        verdict, branch = analysis_mod._pair_verdict(G, x, y)
        monkeypatch.undo()
        pair = (Permutation._from_raw(x, n), Permutation._from_raw(y, n))
        assert branch == "soluble G"
        assert verdict == sympy_pair(*pair).is_solvable, (name, pair)
        verdicts.add(verdict)
    assert verdicts == {True, False}, name


@pytest.mark.parametrize("name", ["C:2 x A:5", "A:5 x C7:C3"])
def test_soluble_g_memo_tells_apart_pairs_that_share_x_or_y(monkeypatch, name):
    # forced onto an insoluble G by a residual of order 1, the branch keeps
    # its verdicts by the restriction of both x and y: <x, y> soluble, while
    # <x, z> (same x) and <z, y> (same y) are not, each by sympy
    G = PermGroup(list(g(name).generators))
    n = G.degree
    elements = G._elements_raw()
    rng = random.Random(20261021)

    def soluble(x, y):
        return sympy_pair(Permutation._from_raw(x, n), Permutation._from_raw(y, n)).is_solvable

    draws = ([rng.choice(elements) for _ in range(3)] for _ in range(1000))
    x, y, z = next(d for d in draws if soluble(d[0], d[1]) and not soluble(d[0], d[2]) and not soluble(d[2], d[1]))
    monkeypatch.setattr(analysis_mod, "_soluble_residual", lambda H: (1, ()))
    for a, b, want in ((x, y, True), (x, z, False), (z, y, False), (x, y, True)):
        assert analysis_mod._pair_verdict(G, a, b) == (want, "soluble G"), (name, a, b)


@pytest.mark.parametrize("name, forced", [("D:20 x S:4", False), ("C:2 x A:5", True)])
def test_soluble_g_restricts_x_once_per_run(monkeypatch, name, forced):
    # the branch keeps x's restriction for a run of pairs that share x; the
    # pairs (x, y), (z, y), (x, y), with x and z restricted apart, must each be
    # keyed on their own x: two pair tests, on the restrictions read through
    # sympy's orbits, and sympy's verdicts. C:2 x A:5 is forced onto the branch
    # by a residual of order 1, and <x, y> and <z, y> differ in solubility there
    G = PermGroup(list(g(name).generators))
    n = G.degree
    points = wide_points(G)
    elements = G._elements_raw()
    rng = random.Random(20261022)

    def restricted(q):
        return tuple(points.index(q[p]) for p in points)

    def soluble(a, b):
        return sympy_pair(Permutation._from_raw(a, n), Permutation._from_raw(b, n)).is_solvable

    draws = ([rng.choice(elements) for _ in range(3)] for _ in range(1000))
    x, z, y = next(
        d for d in draws
        if restricted(d[0]) != restricted(d[1]) and (not forced or soluble(d[0], d[2]) != soluble(d[1], d[2]))
    )
    if forced:
        monkeypatch.setattr(analysis_mod, "_soluble_residual", lambda H: (1, ()))
    else:
        assert is_soluble(G)
    calls = []
    real = analysis_mod._soluble_raw

    def test(w, gens):
        calls.append((w, tuple(map(tuple, gens))))
        return real(w, gens)

    monkeypatch.setattr(analysis_mod, "_soluble_raw", test)
    for a, b in ((x, y), (z, y), (x, y)):
        assert analysis_mod._pair_verdict(G, a, b) == (soluble(a, b), "soluble G"), (name, a, b)
    w = len(points)
    assert calls == [(w, (restricted(x), restricted(y))), (w, (restricted(z), restricted(y)))]
    assert G._prefix == (x, analysis_mod._wide_part(G)[1](x))


# ------------------------------------------------------------- nilpotency


def test_lower_central_series_d16():
    rep = lower_central_series(g("D:16"))
    assert [t.value for t in rep.terms] == [16, 4, 2, 1]
    assert is_nilpotent(g("D:16"))


def test_nilpotency_class_abelian():
    # class 1 and class 0: one step to the trivial group, or none
    assert [t.value for t in lower_central_series(g("C:6")).terms] == [6, 1]
    assert [t.value for t in lower_central_series(g("C:1")).terms] == [1]
    assert is_nilpotent(g("C:6"))
    assert is_nilpotent(g("C:1"))


def test_s3_is_not_nilpotent():
    s3 = g("D:6")
    rep = lower_central_series(s3)
    # gamma_2 = gamma_3 = the rotation subgroup of order 3
    assert [t.value for t in rep.terms] == [6, 3, 3]
    assert not is_nilpotent(s3)


# ----------------------------------------------- centralizer / normalizer


def test_centralizer_of_5_cycle_in_a5():
    a5 = g("A:5")
    x = perm("(1,2,3,4,5)", 5)
    assert centralizer(a5, x).order == 5


def test_centralizer_of_transposition_in_s5():
    # <(1,2)> x S3 on {3,4,5}: order 2 * 6
    s5 = g("S:5")
    assert centralizer(s5, perm("(1,2)", 5)).order == 12


def test_centralizer_requires_membership():
    with pytest.raises(ValueError):
        centralizer(g("A:5"), perm("(1,2)", 5))


def test_normalizer_of_cyclic_in_a5():
    a5 = g("A:5")
    H = a5.subgroup([perm("(1,2,3,4,5)", 5)])
    assert normalizer(a5, H).order == 10


def test_normalizer_of_3_cycle_in_s4():
    s4 = g("S:4")
    H = s4.subgroup([perm("(1,2,3)", 4)])
    # normalizer preserves the moved-point set {1,2,3}; it is S3
    assert normalizer(s4, H).order == 6


def test_center_values():
    assert center(g("D:6")).order == 1
    assert center(g("D:8")).order == 2
    assert center(g("Q:8")).order == 2
    assert center(g("SL2:7")).order == 2
    assert center(g("C:12")).order == 12


# ------------------------------------------------------------ core, sylow


def test_core_of_sylow2_in_s4():
    # the three conjugate dihedral Sylow-2s intersect in V4
    s4 = g("S:4")
    syl = sylow_subgroup(s4, 2)
    assert syl.order == 8
    assert core(s4, syl).order == 4


def test_core_is_normal_and_contained():
    s4 = g("S:4")
    H = s4.subgroup([perm("(1,2)", 4)])
    C = core(s4, H)
    assert C.order == 1


@pytest.mark.parametrize("name", ["S:4 x S:4", "PGL2:7"])
def test_core_of_the_whole_group_is_the_group(name):
    G = g(name)
    assert core(G, G) is G


def test_core_rejects_non_subgroup_input():
    with pytest.raises(ValueError):
        core(g("A:5"), g("S:4"))


@pytest.mark.parametrize(
    "name,p,expected",
    [
        ("PGL2:7", 2, 16),
        ("A:5", 5, 5),
        ("A:5", 2, 4),
        ("S:4", 3, 3),
        ("SL2:7", 2, 16),
        ("C:12", 2, 4),
    ],
)
def test_sylow_orders(name, p, expected):
    assert sylow_subgroup(g(name), p).order == expected


def is_p_element(x, p):
    o = x.order()
    while o % p == 0:
        o //= p
    return o == 1


def test_sylow_is_full_p_part_and_p_group():
    # on a nilpotent group the Sylow p-subgroup is the set of its p-elements
    for label in LABELS:
        G = group(label)
        nilpotent = lower_central_series(G).reaches_trivial
        for p, e in G.order_factored.factor_pairs:
            P = sylow_subgroup(G, p)
            assert P.order == p**e
            assert all(is_p_element(x, p) for x in P.elements())
            if nilpotent:
                assert set(P.elements()) == {x for x in G.elements() if is_p_element(x, p)}


def test_sylow_for_prime_not_dividing():
    assert sylow_subgroup(g("A:5"), 7).order == 1


def test_fitting_values():
    assert fitting_subgroup(g("S:4")).order == 4
    assert fitting_subgroup(g("A:5")).order == 1
    assert fitting_subgroup(g("C:12")).order == 12
    assert fitting_subgroup(g("D:16")).order == 16
    fit = fitting_subgroup(g("C:2 x A:5"))
    assert fit.order == 2


# ---------------------------------------------------------------- radical


def test_radical_values():
    assert soluble_radical(g("S:5")).radical.order == 1
    assert soluble_radical(g("S:4")).radical.order == 24
    cert = soluble_radical(g("C:2 x A:5"))
    assert cert.radical.order == 2
    # the proper closures: C:2 and A:5, the latter from four classes
    assert cert.witness_checks == 5


def test_radical_of_soluble_group_is_the_group(monkeypatch):
    # a fresh group, whose solubility is settled before counting
    G = PermGroup(list(g("S:4 x S:4").generators))
    assert is_soluble(G)
    tests = []
    real = analysis_mod._soluble_raw

    def counting(n, gens):
        tests.append(n)
        return real(n, gens)

    monkeypatch.setattr(analysis_mod, "_soluble_raw", counting)
    cert = soluble_radical(G)
    assert cert.radical.order == 576
    assert cert.witness_checks == 0
    assert tests == []


def test_radical_matches_brute_force_normal_closure_oracle():
    """R(G) = join of all soluble normal closures of class representatives."""
    # the last two are intransitive, with wide orbits of opposite solubility:
    # the scan walks their class closures at the full degree
    for name in ["C:2 x A:5", "S:4", "SL2:5", "D:10", "A:5", "C7:C3 x A:5", "A:5 x C7:C3"]:
        G = g(name)
        gens = []
        for cls in G.conjugacy_classes().classes:
            N = normal_closure(G, [cls.representative])
            if is_soluble(N):
                gens.extend(N.generators)
        oracle = G.subgroup(gens) if gens else None
        R = soluble_radical(G).radical
        assert oracle is not None
        assert R.order == oracle.order
        assert set(R.elements()) == set(oracle.elements())


# --------------------------------------------------------------- closures


def test_normal_closure_in_s4():
    s4 = g("S:4")
    assert normal_closure(s4, [perm("(1,2,3)", 4)]).order == 12
    assert normal_closure(s4, [perm("(1,2)", 4)]).order == 24
    assert normal_closure(s4, [perm("(1,2)(3,4)", 4)]).order == 4


# --------------------------------------------------------------- quotient


def test_quotient_sl27_by_center():
    G = g("SL2:7")
    Z = center(G)
    Q, project = quotient_group(G, Z)
    assert Q.order == 168
    assert project(G.identity()).is_identity()


def test_quotient_s4_by_v4():
    s4 = g("S:4")
    v4 = normal_closure(s4, [perm("(1,2)(3,4)", 4)])
    Q, project = quotient_group(s4, v4)
    assert Q.order == 6


def test_quotient_projection_is_homomorphism():
    G = g("SL2:7")
    Z = center(G)
    _, project = quotient_group(G, Z)
    rng = random.Random(7)
    elements = list(G.elements())
    for _ in range(25):
        a, b = rng.choice(elements), rng.choice(elements)
        assert project(a * b) == project(a) * project(b)


def test_quotient_rejects_non_normal():
    s4 = g("S:4")
    H = s4.subgroup([perm("(1,2)", 4)])
    with pytest.raises(ValueError):
        quotient_group(s4, H)


def coset_key_quotient(G, N):
    """Oracle: the coset action as built before the memoized coset index. Each
    coset N*t is keyed by its least element, a minimum over |N| products, and
    every projection recomputes |G : N| keys."""
    n_raws = N._elements_raw()

    def coset_key(graw):
        return min(_raw_mult(nr, graw) for nr in n_raws)

    ident = _raw_identity(G.degree)
    index_of = {coset_key(ident): 0}
    reps = [ident]
    for r in reps:  # grows while it is walked
        for s in G._gen_raws():
            t = _raw_mult(r, s)
            if coset_key(t) not in index_of:
                index_of[coset_key(t)] = len(reps)
                reps.append(t)

    def project(g):
        return Permutation([index_of[coset_key(_raw_mult(r, g._raw))] + 1 for r in reps])

    return PermGroup([project(x) for x in G.generators]), project


QUOTIENT_KERNELS = {
    "center": center,
    "derived": derived_subgroup,
    "V4": lambda G: normal_closure(G, [perm("(1,2)(3,4)", 4)]),
}
QUOTIENT_CASES = _QUOTIENT_SECTIONS + (
    ("S:4", "V4"),
    ("SL2:5", "center"),
    ("D:16", "center"),
    ("C:2 x A:5", "center"),  # the factor C:2
    ("C:2 x A:5", "derived"),  # the factor A:5
)


@pytest.mark.parametrize("name,kernel", QUOTIENT_CASES)
def test_quotient_matches_coset_key_oracle(name, kernel):
    G = g(name)
    N = QUOTIENT_KERNELS[kernel](G)
    Q, project = quotient_group(G, N)
    oracle_Q, oracle_project = coset_key_quotient(G, N)
    assert Q.generators == oracle_Q.generators
    for x in G.elements():
        assert project(x) == oracle_project(x)
    # an equal kernel built separately, from other generators, hits the memo
    again = G.subgroup(list(reversed(N.elements())))
    assert again.generators != N.generators
    assert quotient_group(G, again)[0] is Q


def test_quotient_projection_rejects_foreign_elements():
    G = g("SL2:7")
    _, project = quotient_group(G, center(G))
    with pytest.raises(ValueError):
        project(perm("(1,2)", 5))  # another degree
    outside = perm("(1,2)", G.degree)
    assert not G.contains(outside)
    with pytest.raises(ValueError):
        project(outside)


# ------------------------------------------------------------------ misc


def test_exponent_values():
    def exponent(name):
        return identify_small_group(g(name))["fingerprint"]["exponent"]

    assert exponent("D:16") == 8
    assert exponent("SD:16") == 8
    assert exponent("Q:8") == 4
    assert exponent("S:4") == 12
    assert exponent("C:1") == 1


def test_is_simple():
    assert is_simple(g("A:5"))
    assert is_simple(g("A:6"))
    assert is_simple(g("PSL2:7"))
    assert is_simple(g("C:7"))
    assert not is_simple(g("S:5"))
    assert not is_simple(g("C:6"))
    assert not is_simple(g("SL2:7"))
    assert not is_simple(g("C:1"))


def test_fitting_below_radical_everywhere():
    for name in ["S:4", "C:2 x A:5", "SL2:5", "D:16", "A:5", "PGL2:7"]:
        G = g(name)
        fit = fitting_subgroup(G)
        rad = soluble_radical(G).radical
        assert rad.order % fit.order == 0
        for x in fit.elements():
            assert rad.contains(x)


def test_group_facts_are_memoized(monkeypatch):
    # a fresh group: the catalog build of A:6 has already asked is_soluble.
    # is_soluble reads the memoized soluble residual, so the derived series is
    # walked, one normal closure per term, on the first call only
    G = PermGroup(list(g("A:6").generators))
    closures = []
    real = analysis_mod._normal_closure_raws

    def counting(n, *args, **kwargs):
        closures.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(analysis_mod, "_normal_closure_raws", counting)
    assert not is_soluble(G)
    walked = len(closures)
    assert not is_soluble(G)
    assert walked == len(closures) == 1
    assert soluble_radical(G) is soluble_radical(G)
    assert sylow_subgroup(G, 2) is sylow_subgroup(G, 2)


# ------------------------------------------------------------------ the cap


# each constructor of a group from a group, applied to S:5 at cap 150
_CAP_HEIRS = {
    "subgroup": lambda G: G.subgroup([perm("(1,2,3)", 5)]),
    "_group_from_raws": lambda G: _group_from_raws(G, [perm("(1,2)(3,4)", 5)._raw]),
    "normal_closure": lambda G: normal_closure(G, [perm("(1,2,3)", 5)]),
    "derived_subgroup": derived_subgroup,
    "center": center,
    "core": lambda G: core(G, G.subgroup(list(g("A:5").generators))),
    "sylow_subgroup": lambda G: sylow_subgroup(G, 2),
    "soluble_radical": lambda G: soluble_radical(G).radical,
    "fitting_subgroup": fitting_subgroup,
    "fitting_subgroup of S4": lambda G: fitting_subgroup(
        G.subgroup([perm("(1,2)", 5), perm("(1,2,3,4)", 5)])),
    "solubilizer": lambda G: solubilizer(G, perm("(1,2,3,4,5)", 5)).subgroup,
    "quotient_group": lambda G: quotient_group(G, derived_subgroup(G))[0],
}


@pytest.mark.parametrize("make", list(_CAP_HEIRS.values()), ids=list(_CAP_HEIRS))
def test_a_group_built_from_a_group_keeps_its_cap(make):
    G = PermGroup(list(g("S:5").generators), cap=150)
    H = make(G)
    assert H is not G and H.order < G.order
    assert H._cap == 150


def test_direct_product_takes_the_smaller_cap():
    A = PermGroup(list(g("C:2").generators), cap=50)
    B = PermGroup(list(g("A:5").generators), cap=70)
    assert direct_product(A, B)[0]._cap == direct_product(B, A)[0]._cap == 50


def test_a_subgroup_within_the_cap_lists_its_elements():
    # S:5 at cap 100 may not list its 120 elements; its derived subgroup A5,
    # of order 60, may
    G = PermGroup(list(g("S:5").generators), cap=100)
    assert len(derived_subgroup(G).elements()) == 60
    with pytest.raises(CapExceededError):
        G.elements()
