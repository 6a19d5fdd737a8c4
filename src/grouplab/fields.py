"""Small finite fields GF(p^k), k <= 3, with fixed moduli.

Elements are encoded as integers 0..p^k-1: the base-p digits of the code are
the polynomial coefficients, least significant first. Fixing the modulus per
(p, k) makes every downstream permutation bit-reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .perm import is_prime

# conventional choices; anything irreducible would do, these are pinned
_FIXED_MODULI = {
    (3, 2): (1, 0),  # t^2 + 1 over GF(3)
    (2, 3): (1, 1, 0),  # t^3 + t + 1 over GF(2)
}

_SIZE_LIMIT = 1024


class SmallField(NamedTuple):
    p: int
    k: int
    modulus: tuple[int, ...]  # c_0..c_{k-1} of t^k + c_{k-1} t^{k-1} + ... + c_0

    @property
    def q(self) -> int:
        return self.p**self.k

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds) -> int:
        out = 0
        for c in reversed(ds):
            out = out * self.p + c
        return out

    def add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        conv = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % self.p
        # fold t^d down using t^k = -modulus
        for d in range(2 * self.k - 2, self.k - 1, -1):
            c = conv[d]
            if c:
                conv[d] = 0
                for i, m in enumerate(self.modulus):
                    conv[d - self.k + i] = (conv[d - self.k + i] - c * m) % self.p
        return self._undigits(conv[: self.k])

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return self.pow(a, self.q - 2)

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def mult_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        o = 1
        x = a
        while x != 1:
            x = self.mul(x, a)
            o += 1
        return o

    def generator(self) -> int:
        """Smallest-encoded generator of the multiplicative group."""
        for a in range(1, self.q):
            if self.mult_order(a) == self.q - 1:
                return a
        raise RuntimeError("multiplicative group is not cyclic; field is broken")

    def is_square(self, a: int) -> bool:
        if a == 0 or self.p == 2:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def elements(self) -> range:
        return range(self.q)


def _is_irreducible(p: int, k: int, modulus: tuple[int, ...]) -> bool:
    # degree 2 or 3: reducible iff it has a root
    for a in range(p):
        acc = pow(a, k, p)
        for i, m in enumerate(modulus):
            acc = (acc + m * pow(a, i, p)) % p
        if acc == 0:
            return False
    return True


@lru_cache(maxsize=None)
def field_arithmetic(p: int, k: int = 1) -> SmallField:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= k <= 3:
        raise ValueError("extension degree must be 1, 2, or 3")
    if p**k > _SIZE_LIMIT:
        raise ValueError(f"field size {p**k} exceeds limit {_SIZE_LIMIT}")
    if k == 1:
        return SmallField(p, 1, ())
    fixed = _FIXED_MODULI.get((p, k))
    if fixed is not None:
        return SmallField(p, k, fixed)
    for code in range(1, p**k):
        modulus = _digits_of(code, p, k)
        if _is_irreducible(p, k, modulus):
            return SmallField(p, k, modulus)
    raise RuntimeError(f"no irreducible polynomial found for GF({p}^{k})")


def _digits_of(code: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return tuple(out)
