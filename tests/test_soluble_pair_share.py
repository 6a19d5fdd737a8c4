"""Guralnick and Wilson's 11/30 bound as a one-sided oracle on every Sol.

P(G) = sum over the class representatives x_i of |C_i| |Sol_G(x_i)| / |G|^2 is
the share of ordered pairs of G that generate a soluble subgroup. An insoluble
G has P(G) <= 11/30 (Guralnick and Wilson, "The probability of generating a
finite soluble group", Proc. London Math. Soc. (3) 81, 2000), with equality at
A5. So at A5 one element wrongly added to a single Sol breaks the bound. The
exact values are pinned, and two identities cross-check them:
P(G) = P(G/N) for a soluble normal N, and P(A x B) = P(A) P(B).

The same pairs, counted class by class, give a two-sided oracle: the soluble
pairs in C_i x C_j number |C_i| |Sol(x_i) meet C_j| from C_i's side and
|C_j| |Sol(x_j) meet C_i| from C_j's, since Sol(x^g) = Sol(x)^g and <u, v> =
<v, u>. One member dropped from or added to a single Sol, outside the class of
its x, breaks one of these equations.
"""

from fractions import Fraction

import pytest

from grouplab import TABLE1_NAMES, build_named_group, solubilizer
from oracles import unbalanced_class_pairs

SHARES = {
    "A:5": Fraction(11, 30),
    "S:5": Fraction(11, 30),
    "PSL2:7": Fraction(9, 28),
    "SL2:7": Fraction(9, 28),
    "PGL2:7": Fraction(3, 14),
    "C:2 x PGL2:7": Fraction(3, 14),
    "A:6": Fraction(1, 5),
    "S:6": Fraction(1, 5),
    "PSL2:8": Fraction(13, 84),
    "PGammaL2:8": Fraction(13, 84),
    "PSL2:11": Fraction(19, 165),
    "PGL2:11": Fraction(19, 165),
    "PGL2:9": Fraction(3, 20),
    "M10": Fraction(3, 20),
    "PGammaL2:9": Fraction(3, 20),
    "PSL2:13": Fraction(17, 182),
}


def soluble_pair_share(G, sol_order=lambda G, x: solubilizer(G, x).order.value):
    classes = G.conjugacy_classes().classes
    pairs = sum(c.size * sol_order(G, c.representative) for c in classes)
    return Fraction(pairs, G.order**2)


def test_the_pinned_groups_are_the_catalog_and_two_more():
    assert set(SHARES) == set(TABLE1_NAMES) | {"SL2:7", "C:2 x PGL2:7"}


@pytest.mark.parametrize("name", SHARES)
def test_insoluble_groups_meet_the_eleven_thirtieths_bound(name):
    share = soluble_pair_share(build_named_group(name))
    assert share <= Fraction(11, 30)
    assert share == SHARES[name]


def test_quotient_and_product_identities():
    # SL(2,7)/Z = PSL(2,7) with Z of order 2, and P(C2) = 1
    assert SHARES["SL2:7"] == SHARES["PSL2:7"]
    assert SHARES["C:2 x PGL2:7"] == SHARES["PGL2:7"] * soluble_pair_share(build_named_group("C:2"))


def test_one_element_added_to_a_sol_at_a5_breaks_the_bound():
    G = build_named_group("A:5")
    five_cycle = next(c.representative for c in G.conjugacy_classes().classes
                      if c.element_order == 5)

    def one_too_many(G, x):
        return solubilizer(G, x).order.value + (x == five_cycle)

    assert soluble_pair_share(G) == Fraction(11, 30)
    assert soluble_pair_share(G, one_too_many) > Fraction(11, 30)


SOLUBLE_PRODUCTS = ("S:4 x S:4", "C7:C3 x S:4", "D:20 x S:4")


@pytest.mark.parametrize("name", [*SHARES, *SOLUBLE_PRODUCTS])
def test_soluble_pairs_of_two_classes_count_alike_from_either_side(name):
    assert unbalanced_class_pairs(build_named_group(name)) == []


@pytest.mark.parametrize("change", ["drop", "add"])
def test_one_member_dropped_or_added_unbalances_a_class_pair(change):
    # at a 5-cycle x of A5, Sol is dihedral of order 10: drop one of its
    # involutions, or add a 3-cycle, which lies outside it; neither is in x's class
    G = build_named_group("A:5")
    table = G.conjugacy_classes()
    x = next(c.representative for c in table.classes if c.element_order == 5)
    sol = solubilizer(G, x).members._raws
    order = 2 if change == "drop" else 3
    y = next(r for r in G._elements_raw() if (r in sol) == (change == "drop")
             and table.classes[table._index[r]].element_order == order)

    def changed(G, z):
        members = solubilizer(G, z).members._raws
        return members ^ {y} if z == x else members

    assert unbalanced_class_pairs(G) == []
    assert unbalanced_class_pairs(G, changed) != []
