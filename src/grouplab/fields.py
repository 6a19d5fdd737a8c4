"""The power tables of the small finite fields GF(q), q = p^k.

One rule bounds the fields here: p prime, k <= 3 and q <= 1024.

An element is encoded as an integer 0..q-1 whose base-p digits are its
polynomial coefficients, least significant first, modulo a pinned modulus:
the one in _FIXED_MODULI, otherwise the smallest-encoded irreducible. The
field's whole multiplicative structure is the table [g^0, ..., g^(q-2)] of
the smallest-encoded primitive element g: products, inverses and Frobenius
are sums, negations and multiples of logarithms modulo q - 1. Fixing the
modulus and g makes every downstream permutation bit-reproducible.
"""

from __future__ import annotations

from functools import lru_cache

from .perm import is_prime

# conventional choices; anything irreducible would do, these are pinned
_FIXED_MODULI = {
    (3, 2): (1, 0),  # t^2 + 1 over GF(3)
    (2, 3): (1, 1, 0),  # t^3 + t + 1 over GF(2)
}

_SIZE_LIMIT = 1024
_RULE = f"p^k with p prime, k <= 3 and p^k <= {_SIZE_LIMIT}"


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, if q is a field size allowed here."""
    if 2 <= q <= _SIZE_LIMIT:
        for k in (1, 2, 3):
            p = round(q ** (1 / k))
            if p**k == q and is_prime(p):
                return p, k
    raise ValueError(f"{q} is not {_RULE}")


@lru_cache(maxsize=None)
def power_table(p: int, k: int = 1) -> tuple[int, ...]:
    """[g^0, ..., g^(q-2)] for the smallest-encoded primitive element g of GF(p^k)."""
    if not is_prime(p) or k not in (1, 2, 3) or p**k > _SIZE_LIMIT:
        raise ValueError(f"GF({p}^{k}) is not a field of size {_RULE}")
    modulus = () if k == 1 else _FIXED_MODULI.get((p, k)) or next(
        m for m in (_digits(code, p, k) for code in range(1, p**k)) if _is_irreducible(p, m)
    )
    for g in range(1, p**k):
        table = [1]
        x = g
        while x != 1:
            table.append(x)
            x = _mul(x, g, p, modulus)
        if len(table) == p**k - 1:
            return tuple(table)
    raise RuntimeError(f"GF({p}^{k}) has no primitive element; its modulus is reducible")


def _digits(code: int, p: int, k: int) -> tuple[int, ...]:
    return tuple(code // p**i % p for i in range(k))


def _is_irreducible(p: int, modulus: tuple[int, ...]) -> bool:
    # degree 2 or 3: reducible iff it has a root
    k = len(modulus)
    return all((a**k + sum(m * a**i for i, m in enumerate(modulus))) % p for a in range(p))


def _mul(a: int, b: int, p: int, modulus: tuple[int, ...]) -> int:
    """The product of two encoded elements modulo t^k + c_{k-1} t^{k-1} + ... + c_0."""
    if not modulus:
        return a * b % p
    k = len(modulus)
    da, db = _digits(a, p, k), _digits(b, p, k)
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] += x * y
    # fold t^d down using t^k = -(c_0 + ... + c_{k-1} t^{k-1})
    for d in range(2 * k - 2, k - 1, -1):
        c = conv[d]
        for i, m in enumerate(modulus):
            conv[d - k + i] -= c * m
    return sum(c % p * p**i for i, c in enumerate(conv[:k]))
