"""Permutations and the deterministic base/strong-generating-set engine.

A degree-n permutation acts on the points 1..n. Internally it is a 0-based
image table of length n: a ``bytes`` object for degrees up to 256, a plain
tuple above, where a product is one ``operator.itemgetter`` gather.
``bytes.translate`` composes two bytes tables in a single C
call, but its table argument must have all 256 entries, so the right factor
of a product is padded with the identity past the degree (``_table``). Hot
loops build that padded form once per right operand and keep the left
operands, and every product, at n bytes. Products apply the left factor
first: ``(a*b)(p) == b(a(p))``, and ``x.conjugate(g)`` is ``g^-1 * x * g``.

All group machinery (order, membership, element enumeration, conjugacy
classes) sits on a Schreier-Sims stabilizer chain built without any
randomization; base points are always the smallest moved points, so two
builds from the same generator list agree bit for bit. The chain is
incremental (Seress, *Permutation Group Algorithms*, ch. 4): adding a strong
generator grows each level's orbit in place, a transversal entry never
changes once set, and each Schreier generator is sifted at most once. Sifts
that provably give 1 are skipped (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, ch. 4): the Schreier generator u * t_b^-1 is 1
exactly when u == t_b; and at the base point itself, a strong generator of
level i that fixes base[i] lies in <sgens[i+1]>, whose levels are closed
while level i is being closed, so it sifts to 1. Each chain picks its
composer once, ``bytes.translate`` up to degree 256, and a chain can be
copied to extend one prefix in several ways. Element enumeration follows the
transversals, so its order is deterministic but not fixed across versions of
this module.

Each group has an enumeration cap, given when it is built: listing a larger
group raises CapExceededError, and a group built from a group (subgroup(),
_group_from_raws) takes its cap. The chain itself never lists the group.
"""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

DEFAULT_CAP = 20000

_BYTES_DEGREE = 256
_IDENT = bytes(range(_BYTES_DEGREE))
_PADS = tuple(_IDENT[k:] for k in range(_BYTES_DEGREE + 1))  # _PADS[k]: the identity past k


class ParseError(ValueError):
    """Malformed cycle notation."""


class DegreeMismatchError(ValueError):
    """Operands act on different point sets."""


class CapExceededError(RuntimeError):
    """A group was larger than the enumeration cap allows."""


class OrderReached(Exception):
    """A chain built with a stop order reached it; the chain is left unfinished."""


def _raw_identity(n: int):
    return _IDENT[:n] if n <= _BYTES_DEGREE else tuple(range(n))


def _table(a):
    """a as the right operand of bytes.translate: a bytes table padded with
    the identity to 256 entries; a tuple is returned as it is."""
    return a + _PADS[len(a)] if type(a) is bytes else a


def _raw_mult(a, b):
    # apply a, then b
    if type(a) is bytes:
        return a.translate(_table(b))
    # a tuple has more than 256 entries, so itemgetter returns a tuple
    return itemgetter(*a)(b)


def _composer(n: int):
    """The product with a padded right operand (_table) at degree n, for a
    loop to pick once: bytes.translate up to 256 points, _raw_mult above."""
    return bytes.translate if n <= _BYTES_DEGREE else _raw_mult


def _raw_from(images: Iterable[int], n: int):
    """The raw table of n 0-based images: bytes up to 256 points, a tuple above."""
    return bytes(images) if n <= _BYTES_DEGREE else tuple(images)


def _inv_table(a, n: int):
    """The inverse of a, padded as _table pads."""
    if type(a) is bytes:
        return bytes.maketrans(a, _IDENT[:n])  # maps a[i] -> i
    out = [0] * n
    for i in range(n):
        out[a[i]] = i
    return tuple(out)


def _raw_inv(a, n: int):
    return _inv_table(a, n)[:n]


def _raw_conj(x, g):
    # g^-1 x g, which sends g[i] to g[x[i]]
    if type(x) is bytes:
        return bytes.maketrans(g, x.translate(_table(g)))[: len(x)]
    out = [0] * len(x)
    for i, v in enumerate(x):
        out[g[i]] = g[v]
    return tuple(out)


def _raw_commutator(x, y, n: int):
    # x^-1 y^-1 x y; note inv(y*x) == x^-1 y^-1 under left-first products
    return _raw_mult(_raw_inv(_raw_mult(y, x), n), _raw_mult(x, y))


def _raw_order(a, n: int) -> int:
    out = 1
    seen = bytearray(n)
    for s in range(n):
        if seen[s] or a[s] == s:
            continue
        length = 0
        j = s
        while not seen[j]:
            seen[j] = 1
            j = a[j]
            length += 1
        out = lcm(out, length)
    return out


def _raw_cycles(a, n: int) -> list[list[int]]:
    seen = bytearray(n)
    cycles = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = 1
        if a[s] == s:
            continue
        cyc = [s]
        j = a[s]
        while j != s:
            seen[j] = 1
            cyc.append(j)
            j = a[j]
        cycles.append(cyc)
    return cycles


class FactoredInteger(NamedTuple):
    """A positive integer together with its prime factorization."""

    value: int
    factor_pairs: tuple

    @classmethod
    def from_int(cls, value: int) -> "FactoredInteger":
        if value < 1:
            raise ValueError("factorization requires a positive integer")
        pairs = []
        m = value
        d = 2
        while d * d <= m:
            if m % d == 0:
                e = 0
                while m % d == 0:
                    m //= d
                    e += 1
                pairs.append((d, e))
            d += 1 if d == 2 else 2
        if m > 1:
            pairs.append((m, 1))
        return cls(value, tuple(pairs))

    @property
    def factors(self) -> dict[int, int]:
        return dict(self.factor_pairs)

    def __str__(self) -> str:
        if self.value == 1:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factor_pairs)

    def to_json(self) -> dict:
        return {"value": self.value, "factors": {str(p): e for p, e in self.factor_pairs}}


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def prime_power_base(m: int) -> int | None:
    """The prime p with m == p^k (k >= 1), or None if m is not a prime power."""
    if m < 2:
        return None
    pairs = FactoredInteger.from_int(m).factor_pairs
    return pairs[0][0] if len(pairs) == 1 else None


class Permutation:
    """An element of Sym({1..n}); immutable, hashable, degree-aware."""

    __slots__ = ("_raw", "_degree")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("a permutation needs at least one point")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("images must be a rearrangement of 1..n")
        zero = [v - 1 for v in images]
        self._raw = _raw_from(zero, n)
        self._degree = n

    @classmethod
    def _from_raw(cls, raw, degree: int) -> "Permutation":
        obj = object.__new__(cls)
        obj._raw = raw
        obj._degree = degree
        return obj

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return cls._from_raw(_raw_identity(degree), degree)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self._raw[i] + 1 for i in range(self._degree))

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self._degree:
            raise ValueError(f"point {point} outside 1..{self._degree}")
        return self._raw[point - 1] + 1

    def _require_same_degree(self, other: "Permutation"):
        if self._degree != other._degree:
            raise DegreeMismatchError(
                f"degree {self._degree} vs {other._degree}"
            )

    def __mul__(self, other: "Permutation") -> "Permutation":
        self._require_same_degree(other)
        return Permutation._from_raw(_raw_mult(self._raw, other._raw), self._degree)

    def inverse(self) -> "Permutation":
        return Permutation._from_raw(_raw_inv(self._raw, self._degree), self._degree)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = _raw_identity(self._degree)
        sq = self._raw
        while k:
            if k & 1:
                result = _raw_mult(result, sq)
            sq = _raw_mult(sq, sq)
            k >>= 1
        return Permutation._from_raw(result, self._degree)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """self^g = g^-1 * self * g."""
        self._require_same_degree(g)
        return Permutation._from_raw(_raw_conj(self._raw, g._raw), self._degree)

    def commutator(self, other: "Permutation") -> "Permutation":
        self._require_same_degree(other)
        return Permutation._from_raw(
            _raw_commutator(self._raw, other._raw, self._degree), self._degree
        )

    def order(self) -> int:
        return _raw_order(self._raw, self._degree)

    def is_identity(self) -> bool:
        return self._raw == _raw_identity(self._degree)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(p + 1 for p in c) for c in _raw_cycles(self._raw, self._degree))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Permutation)
            and self._degree == other._degree
            and self._raw == other._raw
        )

    def __hash__(self) -> int:
        return hash((self._degree, self._raw))

    def __lt__(self, other: "Permutation") -> bool:
        # stable, representation-level order; used only for deterministic listings
        self._require_same_degree(other)
        return self._raw < other._raw

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self._degree})"


_TOKEN_RE = re.compile(r"\(([0-9,\s]*)\)")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint cycle notation, e.g. "(1,2)(3,4)"; "()" is the identity."""
    if degree < 1:
        raise ParseError("degree must be positive")
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty permutation string")
    rest = _TOKEN_RE.sub("", stripped)
    if rest.strip():
        raise ParseError(f"unparseable cycle notation: {text!r}")
    mapping = list(range(degree))
    seen: set[int] = set()
    for body in _TOKEN_RE.findall(stripped):
        body = body.strip()
        if not body:
            continue
        try:
            points = [int(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad cycle {body!r}") from exc
        if len(points) < 2:
            raise ParseError(f"cycle {body!r} needs at least two points")
        for p in points:
            if not 1 <= p <= degree:
                raise ParseError(f"point {p} outside 1..{degree}")
            if p - 1 in seen:
                raise ParseError(f"point {p} repeated")
            seen.add(p - 1)
        for a, b in zip(points, points[1:]):
            mapping[a - 1] = b - 1
        mapping[points[-1] - 1] = points[0] - 1
    return Permutation._from_raw(_raw_from(mapping, degree), degree)


class _Chain:
    """Stabilizer chain; all mutation goes through extend().

    Each level keeps its orbit in discovery order and, per orbit point, how
    many of the level's strong generators have been applied to it, so the
    orbit grows in place and each Schreier generator is sifted at most once.

    With a stop order, extend() raises OrderReached as soon as the order
    reaches it, possibly in the middle of a fixup. That is sound because each
    level's partial orbit lies inside the true basic orbit and the base only
    grows, so a partial chain never overstates |<gens>|. A stopped chain is
    unfinished and must not be queried again.
    """

    __slots__ = ("n", "stop", "ident", "mult", "base", "sgens", "trans", "orbit", "done")

    def __init__(self, n: int, stop: int | None = None):
        self.n = n
        self.stop = stop
        self.ident = _raw_identity(n)
        # the composer, picked once: one C call on bytes tables. Its right
        # operands, the strong generators and the transversal inverses, are
        # stored padded (_table); everything else is n entries long.
        self.mult = _composer(n)
        self.base: list[int] = []
        self.sgens: list[list] = []  # sgens[i]: strong generators fixing base[:i], padded
        self.trans: list[dict] = []  # trans[i]: {point: (t, padded t_inv)}, base[i]^t = point
        self.orbit: list[list] = []  # orbit[i]: the points of trans[i] in discovery order
        self.done: list[list] = []  # done[i][j]: sgens[i][:done[i][j]] applied to orbit[i][j]

    def order(self) -> int:
        o = 1
        for tr in self.trans:
            o *= len(tr)
        return o

    def _strip(self, g, start: int):
        mult = self.mult
        base = self.base
        trans = self.trans
        for i in range(start, len(base)):
            entry = trans[i].get(g[base[i]])
            if entry is None:
                return g, i
            g = mult(g, entry[1])
        return g, len(base)

    def sift(self, g):
        return self._strip(g, 0)[0]

    def contains(self, g) -> bool:
        return self.sift(g) == self.ident

    def copy(self) -> "_Chain":
        """An independent chain equal to this one; extending either leaves the
        other as it was. The tables themselves are immutable and shared."""
        ch = object.__new__(_Chain)
        ch.n, ch.stop, ch.ident, ch.mult = self.n, self.stop, self.ident, self.mult
        ch.base = self.base[:]
        ch.sgens = [level[:] for level in self.sgens]
        ch.trans = [tr.copy() for tr in self.trans]
        ch.orbit = [level[:] for level in self.orbit]
        ch.done = [level[:] for level in self.done]
        return ch

    def extend(self, g) -> bool:
        """Adjoin g; True iff the generated group grew. Raises OrderReached
        once the order reaches the chain's stop order."""
        h, lvl = self._strip(g, 0)
        if h == self.ident:
            return False
        self._insert(h, lvl)
        self._fixup(lvl)
        return True

    def _insert(self, h, depth: int):
        if depth == len(self.base):
            if depth >= self.n:
                # a residue fixes every base point and moves another, so a
                # chain on n points has fewer than n levels
                raise RuntimeError(f"a chain of more than {self.n} levels: "
                                   f"a generator does not permute 0..{self.n - 1}")
            if type(h) is bytes:
                # the lowest set bit of h XOR the identity is in h's first moved point
                diff = int.from_bytes(h, "little") ^ int.from_bytes(self.ident, "little")
                pt = ((diff & -diff).bit_length() - 1) // 8
            else:
                pt = min(i for i in range(self.n) if h[i] != i)
            self.base.append(pt)
            self.sgens.append([])
            self.trans.append({pt: (self.ident, _table(self.ident))})
            self.orbit.append([pt])
            self.done.append([0])
        h = _table(h)
        for i in range(depth + 1):
            self.sgens[i].append(h)

    def _close(self, i: int):
        """Apply every generator of level i not yet applied to each orbit point:
        an image outside the orbit joins it, any other image gives a Schreier
        generator to sift. Returns the residue and depth of the first that
        fails to sift, or None when level i is closed. A Schreier generator
        that sifted, or whose residue was inserted, lies in <sgens[i+1]>, which
        only grows, so it is never sifted again.

        Two kinds of Schreier generator are known to be 1 without a sift. With
        u = t * g for the transversal t of an orbit point and b = u(base[i]),
        u * t_b^-1 is 1 exactly when u == t_b. At the base point itself (j = 0,
        t = 1) a generator g that fixes base[i] was inserted below level i, so
        it lies in <sgens[i+1]>; every level below i is closed whenever this
        runs (_fixup closes the deepest changed level first, and this returns
        at the first residue), so g sifts to 1 there.

        An orbit of more than n points means a generator does not permute
        0..n-1; that raises RuntimeError instead of growing without end, as
        does a chain of more than n levels (_insert)."""
        mult = self.mult
        ident = self.ident
        n = self.n
        stop = self.stop
        bp = self.base[i]
        tr = self.trans[i]
        if stop is not None:
            # only level i grows during this call
            others = self.order() // len(tr)
        orbit = self.orbit[i]
        done = self.done[i]
        gens = self.sgens[i]
        ng = len(gens)
        j = 0
        while j < len(orbit):
            k = done[j]
            if k < ng:
                t = tr[orbit[j]][0]
                while k < ng:
                    u = mult(t, gens[k])
                    k += 1
                    b = u[bp]
                    entry = tr.get(b)
                    if entry is None:
                        tr[b] = (u, _inv_table(u, n))
                        orbit.append(b)
                        done.append(0)
                        if len(orbit) > n:
                            raise RuntimeError(f"an orbit of more than {n} points: "
                                               f"a generator does not permute 0..{n - 1}")
                        if stop is not None and len(tr) * others >= stop:
                            raise OrderReached
                        continue
                    if u == entry[0] or (not j and b == bp):
                        continue
                    res, d = self._strip(mult(u, entry[1]), i + 1)
                    if res != ident:
                        done[j] = k
                        return res, d
                done[j] = k
            j += 1
        return None

    def _fixup(self, start: int):
        i = start
        while i >= 0:
            hit = self._close(i)
            if hit is None:
                i -= 1
            else:
                res, d = hit
                self._insert(res, d)
                i = d

    def elements_raw(self) -> list:
        mult = self.mult
        cur = [self.ident]
        for i in reversed(range(len(self.base))):
            tr = self.trans[i]
            cur = [mult(h, t) for t in [_table(tr[p][0]) for p in sorted(tr)] for h in cur]
        return cur


def _chain_from_raws(n: int, raws: Iterable) -> _Chain:
    ch = _Chain(n)
    for r in raws:
        ch.extend(r)
    return ch


def _conjugation_positions(elems: list, gens: list, n: int) -> list:
    """For each generator g, the sequence whose entry i is the position in
    elems of g^-1 * elems[i] * g; KeyError if a conjugate is not listed.

    Up to 256 points each g conjugates the whole list at once. The conjugate
    of x sends g[p] to g[x[p]], so one translate of the joined list puts
    g[x[p]] at offset p of x's n bytes, and n strided copies move it to
    offset g[p]. One gather then cuts the result into n-byte conjugates, and
    one more reads their positions."""
    pos = dict(zip(elems, range(len(elems))))
    if n > _BYTES_DEGREE:
        return [[pos[_raw_conj(x, g)] for x in elems] for g in gens]
    if len(elems) == 1:
        return [(0,)] * len(gens)  # a one-item gather would not return a tuple
    joined = b"".join(elems)
    cut = itemgetter(*(slice(k, k + n) for k in range(0, len(joined), n)))
    out = []
    for g in gens:
        step = joined.translate(_table(g))
        conj = bytearray(len(joined))
        for p in range(n):
            conj[g[p]::n] = step[p::n]
        out.append(itemgetter(*cut(bytes(conj)))(pos))
    return out


class PermGroup:
    """A finite permutation group generated by explicit permutations; it
    lists its elements only if its order is at most cap (see the module)."""

    __slots__ = (
        "_degree",
        "_generators",
        "_cap",
        "_chain",
        "_order_f",
        "_cache",
        "_prefix",
    )

    def __init__(self, generators: Sequence[Permutation], cap: int = DEFAULT_CAP):
        gens = list(generators)
        if not gens:
            raise ValueError("at least one generator is required")
        degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatchError("generators act on different point sets")
        self._degree = degree
        self._generators = tuple(gens)
        self._cap = cap
        self._chain = _chain_from_raws(degree, (g._raw for g in gens))
        self._order_f = FactoredInteger.from_int(self._chain.order())
        self._cache = {}  # group facts, filled through _memo only
        # (x, chain of <x>) of the last pair test, or (x, x restricted to G's
        # wide orbits) in a soluble G; see analysis._pair_verdict
        self._prefix = None

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._generators

    @property
    def order(self) -> int:
        return self._order_f.value

    @property
    def order_factored(self) -> FactoredInteger:
        return self._order_f

    def identity(self) -> Permutation:
        return Permutation.identity(self._degree)

    def contains(self, g: Permutation) -> bool:
        if g.degree != self._degree:
            return False
        return self._chain.contains(g._raw)

    def __contains__(self, g: Permutation) -> bool:
        return self.contains(g)

    def _memo(self, key, compute):
        """The value cached under key, running compute() on the first request;
        every cached fact about this group (its element listing and class
        table, Sol(x), R(G), Sylow subgroups, ...) goes through here."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _gen_raws(self) -> list:
        return [g._raw for g in self._generators]

    def _elements_raw(self) -> list:
        def compute() -> list:
            if self.order > self._cap:
                raise CapExceededError(f"group order {self.order} exceeds cap {self._cap}")
            return self._chain.elements_raw()

        return self._memo("elements", compute)

    def _element_set(self) -> frozenset:
        """The elements as one frozenset of raw tables, built on the first
        request; RuntimeError if it does not hold |G| elements."""

        def compute() -> frozenset:
            raws = frozenset(self._elements_raw())
            if len(raws) != self.order:
                raise RuntimeError(f"element listing holds {len(raws)} of {self.order} elements")
            return raws

        return self._memo("element_set", compute)

    def elements(self) -> list[Permutation]:
        """All elements, in deterministic transversal-product order."""
        return [Permutation._from_raw(r, self._degree) for r in self._elements_raw()]

    def subgroup(self, generators: Sequence[Permutation], check: bool = True) -> "PermGroup":
        if check:
            for g in generators:
                if not self.contains(g):
                    raise ValueError(f"{g!r} is not in the ambient group")
        return PermGroup(list(generators) or [self.identity()], self._cap)

    def conjugacy_classes(self) -> "ConjugacyClassTable":
        """The classes are the orbits of conjugation by the generators on the
        positions of the element list (Holt, Eick and O'Brien, *Handbook of
        Computational Group Theory*, ch. 4), each found in one pass in
        position order; see _conjugation_positions."""

        def compute() -> "ConjugacyClassTable":
            elems = self._elements_raw()
            n = self._degree
            try:
                moves = _conjugation_positions(elems, self._gen_raws(), n)
            except KeyError:
                raise RuntimeError("a conjugate of an element lies outside the group") from None
            label = [-1] * len(elems)  # position -> the number of its class
            rows = []  # (element order, size, representative, number), one per class
            for start in range(len(elems)):
                if label[start] >= 0:
                    continue
                k = len(rows)
                label[start] = k
                orbit = [start]
                for a in orbit:
                    for move in moves:
                        b = move[a]
                        if label[b] < 0:
                            label[b] = k
                            orbit.append(b)
                rows.append((_raw_order(elems[start], n), len(orbit), min(elems[i] for i in orbit), k))
            if sum(r[1] for r in rows) != self.order:
                raise RuntimeError("class sizes do not sum to the group order")
            rows.sort()  # representatives differ, so numbers are never compared
            rank = [0] * len(rows)  # class number -> position in the sorted table
            for i, row in enumerate(rows):
                rank[row[3]] = i
            return ConjugacyClassTable(
                self,
                tuple(
                    ConjugacyClass(Permutation._from_raw(rep, n), size, ordr)
                    for ordr, size, rep, _ in rows
                ),
                dict(zip(elems, map(rank.__getitem__, label))),
            )

        return self._memo("classes", compute)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self._degree}, order={self.order})"


class ConjugacyClass(NamedTuple):
    representative: Permutation
    size: int
    element_order: int


class ConjugacyClassTable:
    """Conjugacy classes with canonical (minimal) representatives, sorted by
    (element order, class size, representative), and the class of every
    element."""

    __slots__ = ("ambient", "classes", "_index")

    def __init__(
        self, ambient: PermGroup, classes: tuple[ConjugacyClass, ...], index: dict
    ):
        self.ambient = ambient
        self.classes = classes
        self._index = index  # raw element -> position of its class in `classes`

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[ConjugacyClass]:
        return iter(self.classes)

    def representatives(self) -> list[Permutation]:
        return [c.representative for c in self.classes]

    def class_index(self, g: Permutation) -> int:
        """Position in `classes` of the class of g; ValueError if g is not
        in the ambient group."""
        # a raw table has one entry per point, so equal raws have equal degrees
        index = self._index.get(g._raw)
        if index is None:
            raise ValueError(f"{g!r} is not in the group")
        return index

    def class_members(self, representative: Permutation) -> "ElementSet":
        """The full conjugacy class of the given element."""
        index = self.class_index(representative)
        members = frozenset(e for e, i in self._index.items() if i == index)
        return ElementSet._from_raws(self.ambient, members)


class ElementSet:
    """A set of elements inside a fixed ambient group, as returned by
    class_members and the solubilizer."""

    __slots__ = ("ambient", "_raws")

    @classmethod
    def _from_raws(cls, ambient: PermGroup, raws: frozenset) -> "ElementSet":
        obj = object.__new__(cls)
        obj.ambient = ambient
        obj._raws = raws
        return obj

    def __len__(self) -> int:
        return len(self._raws)

    def __contains__(self, g: Permutation) -> bool:
        return g._raw in self._raws

    def __iter__(self) -> Iterator[Permutation]:
        n = self.ambient.degree
        return (Permutation._from_raw(r, n) for r in sorted(self._raws))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.ambient.degree == other.ambient.degree
            and self._raws == other._raws
        )

    def __hash__(self) -> int:
        return hash(self._raws)

    def conjugated(self, g: Permutation) -> "ElementSet":
        return ElementSet._from_raws(
            self.ambient, frozenset(_raw_conj(r, g._raw) for r in self._raws)
        )

    def __repr__(self) -> str:
        return f"ElementSet(size={len(self._raws)}, degree={self.ambient.degree})"


def _set_raws(S) -> tuple[int, frozenset]:
    """(degree, raw tables) from an ElementSet or any iterable of Permutation."""
    if isinstance(S, ElementSet):
        return S.ambient.degree, S._raws
    members = list(S)
    if not members:
        return 0, frozenset()
    degree = members[0].degree
    if any(p.degree != degree for p in members):
        raise DegreeMismatchError("mixed degrees in element collection")
    return degree, frozenset(p._raw for p in members)


def closure_test(S) -> bool:
    """True iff S is literally a subgroup: nonempty and |<S>| == |S|. The chain
    of <S> stops at |S| + 1: reaching it means <S> is larger than S."""
    n, raws = _set_raws(S)
    if not raws:
        return False
    ch = _Chain(n, len(raws) + 1)
    try:
        for r in sorted(raws):
            ch.extend(r)
    except OrderReached:
        return False
    return ch.order() == len(raws)


def _order_histogram(H: PermGroup) -> tuple:
    """((element order, number of elements of that order), ...), ascending.

    Read from H's class table when H already holds one, since conjugates share
    their order: a group that is some Sol(x) = G, for one, orders no element.
    Otherwise each element is ordered; no class table is built for this."""
    counts: dict[int, int] = {}
    table = H._cache.get("classes")
    if table is not None:
        for c in table.classes:
            counts[c.element_order] = counts.get(c.element_order, 0) + c.size
    else:
        for g in H._elements_raw():
            o = _raw_order(g, H.degree)
            counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def _chain_growers(n: int, raws: Iterable, order: int | None = None) -> list:
    """The raw tables that grow a chain extended over raws in turn.

    order: the order of <raws>, when raws list a set already known to be a
    group. The chain then stops on reaching it; the element that reaches it is
    the last one kept, and no later element would have grown the chain, so
    the kept list is the same as without a stop.
    """
    ch = _Chain(n, order)
    kept = []
    try:
        for r in raws:
            if ch.extend(r):
                kept.append(r)
    except OrderReached:
        kept.append(r)
    return kept


def _group_from_raws(G: PermGroup, raws: Iterable, order: int | None = None) -> PermGroup:
    """Build a group from raw tables of elements of G, with G's degree and
    cap, keeping only chain-growing generators (see _chain_growers for order).

    The input order must be deterministic; pass sorted() output when the
    source is an unordered set.
    """
    n = G.degree
    kept = _chain_growers(n, raws, order) or [_raw_identity(n)]
    return PermGroup([Permutation._from_raw(r, n) for r in kept], G._cap)
