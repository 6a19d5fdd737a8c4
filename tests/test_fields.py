"""The power tables of GF(p^k) against sympy's polynomial arithmetic over GF(p),
modulo the pinned modulus, at the sizes we use and at the largest k = 2 field."""

import pytest
from sympy import ZZ
from sympy.polys.galoistools import gf_add, gf_from_int_poly, gf_mul, gf_rem

from grouplab.fields import power_table, prime_power

FIELDS = [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (3, 2), (31, 2)]
# c_0..c_{k-1} of the modulus t^k + c_{k-1} t^{k-1} + ... + c_0: the two
# conventional ones, and elsewhere the smallest-encoded irreducible
MODULI = {(3, 2): (1, 0), (2, 3): (1, 1, 0), (2, 2): (1, 1), (31, 2): (1, 0)}


class Oracle:
    """GF(p^k) as sympy's dense polynomials over GF(p) modulo t^k + c_{k-1} t^{k-1} + ... + c_0."""

    def __init__(self, p, k):
        self.p, self.k = p, k
        self.modulus = [1] + list(reversed(MODULI.get((p, k), (0,))))

    def poly(self, a):
        return gf_from_int_poly([a // self.p**i % self.p for i in reversed(range(self.k))], self.p)

    def code(self, poly):
        return sum(int(c) * self.p**i for i, c in enumerate(reversed(poly)))

    def mul(self, a, b):
        product = gf_mul(self.poly(a), self.poly(b), self.p, ZZ)
        return self.code(gf_rem(product, self.modulus, self.p, ZZ))

    def add(self, a, b):
        return self.code(gf_add(self.poly(a), self.poly(b), self.p, ZZ))

    def is_primitive(self, a):
        x, order = a, 1
        while x != 1:
            x, order = self.mul(x, a), order + 1
        return order == self.p**self.k - 1


@pytest.mark.parametrize("p,k", FIELDS[:6])
def test_field_axioms_exhaustive(p, k):
    # the table's law exp[i] exp[j] = exp[i + j] holds for every pair, and the
    # table's Frobenius exp[p i] is additive
    f, exp = Oracle(p, k), power_table(p, k)
    m = p**k - 1
    for i in range(m):
        for j in range(m):
            assert f.mul(exp[i], exp[j]) == exp[(i + j) % m]
    frob = {0: 0, **{exp[i]: exp[p * i % m] for i in range(m)}}
    for a in range(p**k):
        for b in range(p**k):
            assert frob[f.add(a, b)] == f.add(frob[a], frob[b])


@pytest.mark.parametrize("p,k", FIELDS)
def test_power_table_steps_by_its_generator(p, k):
    f, exp = Oracle(p, k), power_table(p, k)
    g = exp[1] if len(exp) > 1 else 1
    assert exp[0] == 1
    for previous, entry in zip(exp, exp[1:]):
        assert entry == f.mul(previous, g)
    assert f.mul(exp[-1], g) == 1


def test_generator_has_full_order():
    for p, k in FIELDS:
        exp = power_table(p, k)
        assert sorted(exp) == list(range(1, p**k))


@pytest.mark.parametrize("p,k", FIELDS)
def test_generator_is_the_smallest_primitive_element(p, k):
    f, exp = Oracle(p, k), power_table(p, k)
    g = exp[1] if len(exp) > 1 else 1
    assert f.is_primitive(g)
    assert not any(f.is_primitive(a) for a in range(1, g))


def test_frobenius_is_an_automorphism_of_gf9():
    f, exp = Oracle(3, 2), power_table(3, 2)
    frob = {0: 0, **{exp[i]: exp[3 * i % 8] for i in range(8)}}
    for a in range(9):
        for b in range(9):
            assert frob[f.mul(a, b)] == f.mul(frob[a], frob[b])
    # order 2, fixing exactly the prime field
    assert all(frob[frob[a]] == a for a in range(9))
    assert sorted(a for a in range(9) if frob[a] == a) == [0, 1, 2]


def test_squares_partition():
    for p, k in [(7, 1), (3, 2), (2, 3), (31, 2)]:
        f, exp = Oracle(p, k), power_table(p, k)
        squares = {f.mul(a, a) for a in range(1, p**k)}
        # odd q: the squares are the even powers of g; even q: every element
        assert squares == set(exp[:: 2 if p > 2 else 1])
        assert len(squares) == ((p**k - 1) // 2 if p > 2 else p**k - 1)


def test_rejected_parameters():
    for p, k in [(4, 1), (3, 0), (2, 4), (101, 2)]:
        with pytest.raises(ValueError, match="p prime, k <= 3 and p"):
            power_table(p, k)
    for q in (0, 1, 16, 64, 1031, 1331):
        with pytest.raises(ValueError, match=f"{q} is not p\\^k with p prime, k <= 3"):
            prime_power(q)
    assert [prime_power(q) for q in (2, 4, 8, 9, 37, 961, 1021)] == [
        (2, 1), (2, 2), (2, 3), (3, 2), (37, 1), (31, 2), (1021, 1)
    ]
