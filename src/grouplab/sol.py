"""Solubilizer computation and the lemma/theorem property batteries.

Sol_G(x) = { y in G : <x, y> is soluble }. It contains <x>, the normalizer
of <x>, and the soluble radical, and its size is divisible by |x|, |C_G(x)|,
and |R(G)|; but it is a subgroup only in special situations, which is what
most of the checks in this module probe.

The per-element layer conjugates x by no more of G than it must:

* |N| for N = N_G(<x>) comes from the class table. N acts on the
  generators of <x> by conjugation with kernel C_G(x), and an element x^m of
  <x> is an image x^g exactly when it lies in x's class, so
  |N| = |C_G(x)| * |x^G meet <x>|, with |C_G(x)| = |G| / |x^G|
  (_normalizer_order). N itself is listed only where Sol(x) is walked: a
  scan of G in enumeration order keeps each g outside the closure found so
  far with x^g in <x>, and stops once the closure holds |N| elements
  (_normalizer_scan).
* Sol(x) is listed in blocks of double cosets <x> b <x>, one pair test per
  block: <x, p b q> = <x, b> for p, q in <x>. A double coset is the union of
  the cosets <x> b x^j, and each coset is one product: the elements of
  <x> b, laid end to end, times x^j (_sol_verdicts). When G is soluble or
  x lies in R(G), G is one block: Sol(x) is G's element set, built once
  per group, after one pair test, and N is not listed: N <= G = Sol, and
  the readers need only |N| (_solubilizer_search).
* ell walks no class. For |x| prime, ell = |x| whenever it is defined:
  <x> meet <z> is 1 or <x>. For composite |x|, ell is the least divisor
  d > 1 of |x| with |N_G(<x^d>)| > |N_G(<x>)|, each order read from the
  class table (ell_invariant, _ell_divisor).

The checks (ell_invariant, lemma_checks_for_rep, sol_core_check,
quotient_sol_check, direct_product_sol_check) return their report records:
dicts of plain JSON values, keys in report order, that the runners put into
their documents as they are. A record's witness is there only when it failed.
"""

from __future__ import annotations

import random
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

from . import analysis, catalog
from .perm import (
    ElementSet,
    FactoredInteger,
    PermGroup,
    Permutation,
    _composer,
    _group_from_raws,
    _order_histogram,
    _raw_conj,
    _raw_identity,
    _raw_inv,
    _raw_mult,
    _table,
    closure_test,
    is_prime,
    prime_power_base,
)


class SolResult(NamedTuple):
    x: Permutation
    members: ElementSet
    order: FactoredInteger
    is_subgroup: bool
    subgroup: PermGroup | None
    normalizer_order: FactoredInteger
    centralizer_order: FactoredInteger

    @property
    def structure(self) -> dict | None:
        """Sol's identify_small_group record if it is a subgroup of at most 64
        elements, computed on read."""
        if self.subgroup is None or self.subgroup.order > 64:
            return None
        return identify_small_group(self.subgroup)

    def to_json(self) -> dict:
        return {
            "element": self.x.cycle_string(),
            "element_order": self.x.order(),
            "order": self.order.to_json(),
            "is_subgroup": self.is_subgroup,
            "structure": self.structure,
            "normalizer_order": self.normalizer_order.to_json(),
            "centralizer_order": self.centralizer_order.to_json(),
        }


def _power_list(xraw, n: int) -> list:
    """[1, x, x^2, ..., x^(|x| - 1)] as raw tables."""
    ident = _raw_identity(n)
    mult = _composer(n)
    out = [ident]
    cur = xraw
    table = _table(xraw)
    while cur != ident:
        out.append(cur)
        cur = mult(cur, table)
    return out


def _cyclic_raws(xraw, n: int) -> frozenset:
    return frozenset(_power_list(xraw, n))


def _joined(raws: list):
    """The tables of raws end to end, as one table of their type. One product
    joined * r, by bytes.translate or _raw_mult alike, gives every p * r, and
    _cut splits it again."""
    return type(raws[0])(chain.from_iterable(raws))


def _cut(joined, n: int) -> list:
    return [joined[i : i + n] for i in range(0, len(joined), n)]


def _normalizer_order(G: PermGroup, xraw) -> int:
    """|N_G(<x>)| = |C_G(x)| * |x^G meet <x>|, read from the class table.

    For g in N, x^g generates <x^g> = <x>, so g -> x^g maps N onto the
    generators of <x> that are conjugates of x, that is onto x^G meet <x> (a
    conjugate of x in <x> has the order of x, so it generates <x>).
    Conversely x^g in <x> with the order of x gives <x>^g = <x>, so
    N = {g : x^g in <x>}. Two elements have the same image exactly when they
    lie in one coset of C_G(x), and |C_G(x)| = |G| / |x^G|.

    Checked against G's generators, which raises RuntimeError on a mismatch:
    every generator normalizes <x> exactly when the order is |G|, and |x|
    divides the order, which divides |G|.
    """
    powers = _power_list(xraw, G.degree)
    classes = G.conjugacy_classes()
    index = classes._index
    k = index[xraw]
    order = G.order // classes.classes[k].size * sum(index[p] == k for p in powers)
    cyclic = frozenset(powers)
    normal = all(_raw_conj(xraw, s) in cyclic for s in G._gen_raws())
    if normal != (order == G.order):
        raise RuntimeError(
            f"the class table's |N_G(<x>)| = {order} for |G| = {G.order}, "
            f"but {'every' if normal else 'not every'} generator of G normalizes <x>"
        )
    if order % len(powers) or G.order % order:
        raise RuntimeError(
            f"the class table's |N_G(<x>)| = {order} is not both a multiple "
            f"of |x| = {len(powers)} and a divisor of |G| = {G.order}"
        )
    return order


def _normalizer_scan(G: PermGroup, xraw) -> tuple[frozenset, list]:
    """(N_G(<x>) as G's own raw tables, the elements g the scan kept);
    memoized per (group, element). The kept elements and x generate N, whose
    order _normalizer_order gives first.

    The scan walks G in enumeration order and skips the elements already in
    the closure K = <x, kept>. Each other g with x^g in <x> lies in N and
    outside K, so it is kept, and K grows to <K, g> by Dimino's method
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, ch. 4):
    <K, g> is the union of the cosets K*r over the r reached from 1 by right
    multiplication with the generators, and each new coset K*r is one product
    of K's elements, laid end to end, with r. K stays inside N, and it is N
    once it holds |N| elements, where the scan stops. Running out of G first
    means the order or the scan is wrong, which raises RuntimeError.

    The solubilizer scans only where it walks Sol(x), that is for x outside
    R(G). There <x> is not normal, since a normal cyclic subgroup lies in
    R(G), so the scan stops short of G.
    """

    def compute() -> tuple[frozenset, list]:
        order = _normalizer_order(G, xraw)
        n = G.degree
        mult = _composer(n)
        ident = _raw_identity(n)
        powers = _power_list(xraw, n)
        cyclic = frozenset(powers)
        closure = set(powers)
        members = powers[:]  # the closure K, coset by coset
        gens = [_table(xraw)]  # K's generators, padded as right operands
        kept = []
        for g in G._elements_raw():
            if len(closure) == order:
                break
            if g in closure or _raw_conj(xraw, g) not in cyclic:
                continue
            kept.append(g)
            gens.append(_table(g))
            joined = _joined(members)  # the old K, one coset K*r per product
            reps = [ident]
            for r in reps:
                for s in gens:
                    e = mult(r, s)
                    if e not in closure:
                        coset = _cut(mult(joined, _table(e)), n)
                        closure.update(coset)
                        members += coset
                        reps.append(e)
        if len(closure) != order:
            raise RuntimeError(
                f"normalizer scan closed {len(closure)} elements, not |N_G(<x>)| = {order}"
            )
        # G's own tables, so that the closure's copies are not kept
        return frozenset(filter(closure.__contains__, G._elements_raw())), kept

    return G._memo(("ncyc", xraw), compute)


def _within(part: frozenset, whole: frozenset) -> bool:
    """part <= whole; a group's memoized element set is not walked against
    itself."""
    return part is whole or part <= whole


def _coprime_powers(y, n: int) -> list:
    """The y^m with gcd(m, |y|) = 1, that is the generators of <y>."""
    powers = _power_list(y, n)  # powers[k % |y|] = y^k
    order = len(powers)
    return [powers[k % order] for k in range(1, order + 1) if gcd(k, order) == 1]


def _sol_verdicts(G: PermGroup, xraw) -> dict:
    """{y: <x, y> is soluble} for every element y, one pair test per block.

    With N = N_G(<x>), the verdict of y holds on the block made of the double
    cosets <x> b <x>, b in Y, where Y is the closure under N-conjugation of
    the powers y^m with gcd(m, |y|) = 1: <x, p*b*q> = <x, b> for p, q in <x>,
    <x, b^g> = <x, b>^g because x^g generates <x>, and <x, y^m> = <x, y>. So
    no two elements of one orbit of y -> x*y, y -> y^-1 and y -> y^g (g in N)
    are tested.

    Elements are visited in enumeration order, and each one without a verdict
    is tested. Its block is listed one double coset at a time. The double
    coset <x> b <x> is the union of the cosets <x> b x^j. The elements of
    <x>, laid end to end, times b give <x> b in one product, one more product
    per j gives <x> b x^j, and each is cut into n-entry tables. Cosets that
    coincide, as when b normalizes <x>, are listed again with the same
    verdict, which is cheaper than testing for them. N permutes the double
    cosets, (<x> b <x>)^g = <x> b^g <x>, so a flood over the conjugators that
    _normalizer_scan kept lists each one once and stops at any b that already
    has a verdict, as its whole double coset does. x, the remaining generator
    of N, maps every double coset to itself and is not needed.
    """
    elements = G._elements_raw()
    n = G.degree
    mult = _composer(n)
    powers = _power_list(xraw, n)
    joined = _joined(powers)
    cuts = range(0, len(joined), n)
    rights = [_table(p) for p in powers]  # b -> b x^j
    # b^g = g^-1 * b * g, with g padded as a right operand
    conj = [(_raw_inv(g, n), _table(g)) for g in _normalizer_scan(G, xraw)[1]]
    verdict: dict = {}
    for y in elements:
        if y in verdict:
            continue
        answer = analysis.pair_soluble(G, xraw, y)
        stack = _coprime_powers(y, n)
        while stack:
            b = stack.pop()
            if b in verdict:
                continue
            table = _table(b)
            left = mult(joined, table)  # <x> b, end to end
            cosets = [mult(left, t) for t in rights]  # the <x> b x^j, which may repeat
            verdict.update(dict.fromkeys([c[i : i + n] for c in cosets for i in cuts], answer))
            stack += [mult(mult(g_inv, table), g) for g_inv, g in conj]
    return verdict


def solubilizer(G: PermGroup, x: Permutation) -> SolResult:
    """Sol_G(x) with its structural trimmings.

    The full invariant battery from the underlying theory is asserted on
    every call; a violation is an implementation bug, not a finding.
    """
    if not G.contains(x):
        raise ValueError("element is not in the group")
    return G._memo(("sol", x._raw), lambda: _solubilizer_search(G, x))


def _solubilizer_search(G: PermGroup, x: Permutation) -> SolResult:
    """Sol(x) from its pair tests, then the invariants.

    When G is soluble or x lies in R(G), every <x, y> is soluble, since
    <x, y> <= R(G)<y>, and Sol(x) = G (Guralnick, Kunyavskii, Plotkin and
    Shalev, *J. Algebra*, 2006). The pair test of the first element is still
    run: if it passes, Sol is G's memoized element set, shared by every such
    x; if it fails, Sol is empty and the containment invariants raise. N is
    not listed there: N <= G = Sol, and its order comes from the class table.
    Otherwise the blocks of _sol_verdicts give every verdict, and the
    normalizer scan that gave their flood its conjugators gives N.
    """
    n = G.degree
    xraw = x._raw
    soluble = analysis.is_soluble(G)
    radical = analysis.soluble_radical(G).radical
    if soluble or radical.contains(x):
        one_block = analysis.pair_soluble(G, xraw, G._elements_raw()[0])
        member_set = G._element_set() if one_block else frozenset()
        norm_set = None
    else:
        verdict = _sol_verdicts(G, xraw)
        if len(verdict) != G.order:
            raise RuntimeError(f"orbit walk gave {len(verdict)} verdicts for {G.order} elements")
        member_set = frozenset(filter(verdict.__getitem__, G._elements_raw()))
        norm_set = _normalizer_scan(G, xraw)[0]

    # containment invariants, before anything reads Sol's size
    if not _cyclic_raws(xraw, n) <= member_set:
        raise RuntimeError("solubilizer does not contain the cyclic subgroup")
    if norm_set is not None and not _within(norm_set, member_set):
        raise RuntimeError("solubilizer does not contain the normalizer")
    if not _within(radical._element_set(), member_set):
        raise RuntimeError("solubilizer does not contain the soluble radical")

    members = ElementSet._from_raws(G, member_set)
    order = FactoredInteger.from_int(len(member_set))
    if len(member_set) == G.order:
        is_sub, subgroup = True, G  # Sol = G: no closure test, no second chain
    elif G.order % len(member_set):
        is_sub, subgroup = False, None  # Lagrange: no subgroup of G has that order
    else:
        is_sub = closure_test(members)
        # closed, so its order is its size and the chain can stop there
        subgroup = _group_from_raws(G, sorted(member_set), len(member_set)) if is_sub else None

    norm_order = _normalizer_order(G, xraw) if norm_set is None else len(norm_set)

    # divisibility invariants
    classes = G.conjugacy_classes()
    cls = classes.classes[classes.class_index(x)]
    cent_order = G.order // cls.size  # |G| / |x^G|
    for d in (cls.element_order, cent_order, radical.order):
        if order.value % d:
            raise RuntimeError(f"divisor invariant broken: {d} does not divide {order.value}")
    if not soluble:
        if is_prime(order.value):
            raise RuntimeError("solubilizer of prime size in an insoluble group")
        p = prime_power_base(order.value)
        if p is not None and order.value == p * p:
            raise RuntimeError("solubilizer of prime-square size in an insoluble group")

    return SolResult(
        x=x,
        members=members,
        order=order,
        is_subgroup=is_sub,
        subgroup=subgroup,
        normalizer_order=FactoredInteger.from_int(norm_order),
        centralizer_order=FactoredInteger.from_int(cent_order),
    )


def _non_closure_pair(members: ElementSet) -> tuple[Permutation, Permutation] | None:
    """The first pair of members (a, b) with a*b outside them, taking a in
    sorted order and, for each a, b in sorted order; None when the members
    are closed under products, which for a finite set holding 1, as Sol
    does, makes them a subgroup."""
    n = members.ambient.degree
    raws = members._raws
    ordered = sorted(raws)
    mult = _composer(n)
    tables = [_table(b) for b in ordered]
    for a in ordered:
        for b, table in zip(ordered, tables):
            if mult(a, table) not in raws:
                return Permutation._from_raw(a, n), Permutation._from_raw(b, n)
    return None


# ---------------------------------------------------------------- structure


def _fingerprint(H: PermGroup) -> tuple:
    """(order, abelian, exponent, element-order histogram, |center|,
    |derived subgroup|), the histogram a sorted tuple of (element order,
    count) pairs. Memoized per group: identify_small_group compares against
    the same cached reference groups on every call."""

    def compute() -> tuple:
        hist = _order_histogram(H)
        exponent = lcm(*(o for o, _ in hist))
        center_order = analysis.center(H).order
        derived_order = analysis.derived_subgroup(H).order
        abelian = derived_order == 1
        return (H.order, abelian, exponent, hist, center_order, derived_order)

    return H._memo("fingerprint", compute)


def _abelian_invariants(order: int, hist: tuple) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an abelian group, recovered from
    its element-order histogram.

    For each prime p, the partition (a_1 >= a_2 >= ...) of the p-part obeys
    #{x : x^(p^k) = 1} = p^(sum_i min(a_i, k)); the partial sums determine
    the partition by double differencing.
    """
    per_prime: dict[int, list[int]] = {}
    for p, _ in FactoredInteger.from_int(order).factor_pairs:
        sums = [0]
        k = 1
        while True:
            total = sum(c for o, c in hist if p ** k % o == 0)
            e = 0
            t = total
            while t > 1:
                t //= p
                e += 1
            if p**e != total:
                raise RuntimeError("histogram is not that of an abelian group")
            sums.append(e)
            if e == sums[-2]:
                sums.pop()
                break
            k += 1
        steps = [sums[i + 1] - sums[i] for i in range(len(sums) - 1)]
        # steps[k] = number of parts >= k+1; recover multiplicities
        parts = []
        for i in range(len(steps)):
            parts += [i + 1] * (steps[i] - (steps[i + 1] if i + 1 < len(steps) else 0))
        per_prime[p] = sorted(parts, reverse=True)
    width = max(len(v) for v in per_prime.values())
    factors = []
    for i in range(width):
        d = 1
        for p, parts in per_prime.items():
            if i < len(parts):
                d *= p ** parts[i]
        factors.append(d)
    return sorted(factors)


_REFERENCE_LABELS = (
    ("D:{0}", "dihedral {0}", lambda m: m >= 6 and m % 2 == 0),
    ("SD:{0}", "semidihedral {0}", lambda m: m in (16, 32, 64)),
    ("Q:{0}", "generalized_quaternion {0}", lambda m: m in (8, 16, 32, 64)),
    ("C7:C3", "C7:C3", lambda m: m == 21),
    ("A:4", "A4", lambda m: m == 12),
    ("S:4", "S4", lambda m: m == 24),
)


def identify_small_group(H: PermGroup) -> dict:
    """Fingerprint-table identification for |H| <= 64, as the report record
    {label, fingerprint{order, abelian, exponent, order_histogram,
    center_order, derived_order}}, built anew on every call."""
    if H.order > 64:
        raise ValueError(f"identification supports orders <= 64, got {H.order}")
    fp = _fingerprint(H)
    order, abelian, exponent, hist, center_order, derived_order = fp
    return {
        "label": _label(fp),
        "fingerprint": {
            "order": order,
            "abelian": abelian,
            "exponent": exponent,
            "order_histogram": [list(pair) for pair in hist],
            "center_order": center_order,
            "derived_order": derived_order,
        },
    }


def _label(fp: tuple) -> str:
    order, abelian, exponent, hist, _, _ = fp
    if abelian:
        if any(o == order for o, _ in hist):
            return f"cyclic {order}"
        if is_prime(exponent):
            return f"elementary_abelian {order}"
        return "abelian " + "x".join(str(d) for d in _abelian_invariants(order, hist))
    for name_pat, label_pat, applies in _REFERENCE_LABELS:
        if applies(order) and _fingerprint(catalog.build_named_group(name_pat.format(order))) == fp:
            return label_pat.format(order)
    return "other"


# ------------------------------------------------------------ ell invariant


def _ell_divisor(G: PermGroup, xraw, norm_order: int) -> int:
    """The least divisor d > 1 of |x| with |N_G(<x^d>)| > norm_order =
    |N_G(<x>)|, for N_G(<x>) != G; that d is ell (see ell_invariant)."""
    powers = _power_list(xraw, G.degree)  # powers[d % |x|] = x^d
    m = len(powers)
    return next(
        d for d in range(2, m + 1)
        if m % d == 0 and _normalizer_order(G, powers[d % m]) > norm_order
    )


def ell_invariant(G: PermGroup, x: Permutation, sol: SolResult | None = None) -> dict:
    """ell = min over y outside N_G(<x>) of the index |<x> : <x> meet <x^y>|,
    and which arm of the dichotomy (N = Sol, or |Sol| > ell*|x|) holds, as
    the report record {x_order, ell, dichotomy, sol_order, normalizer_order}.
    dichotomy is normalizer_equals_sol, strict_bound or violated; it is
    undefined, with ell None, when N_G(<x>) = G.

    <x> meet <x^y> depends only on z = x^y, and y lies outside N = N_G(<x>)
    exactly when z is not in <x>, so the class x^G holds every index needed;
    no member of it is listed. With N != G some such z exists. For |x| prime,
    ell = |x|: <x> meet <z> is a subgroup of the group <x> of prime order, so
    1 or <x>, and it is not <x>, since <x> <= <z> with |z| = |x| would give
    <z> = <x> and z in <x>.

    For composite m = |x|, ell is the least divisor d > 1 of m with
    |N_G(<x^d>)| > |N| (_ell_divisor). The k with z^k in <x> are the
    multiples of a least k0, which divides m, and <x> meet <z> = <z^k0> has
    index k0 in <x>; so ell is the least divisor d of m such that z^d lies in
    <x> for some z = x^g outside <x>. Now z^d = (x^d)^g has the order of x^d,
    so it lies in <x> exactly when it lies in <x^d>, the one subgroup of <x>
    of that order, that is when g normalizes <x^d>. And <x^d>, characteristic
    in <x>, is normalized by N. So such a g exists exactly when
    N < N_G(<x^d>), that is when |N_G(<x^d>)| > |N|; d = 1 never qualifies,
    and d = m always does, as N_G(<1>) = G. Each |N_G(<x^d>)| is read from
    the class table (_normalizer_order).

    |N| is sol's normalizer_order. N is listed only when Sol != G, that is on
    the orbit-walk path; with Sol = G, N = Sol exactly when |N| = |G|.
    """
    if sol is None:
        sol = solubilizer(G, x)
    norm_order = sol.normalizer_order.value
    classes = G.conjugacy_classes()
    x_order = classes.classes[classes.class_index(x)].element_order
    if norm_order == G.order:
        ell, status = None, "undefined"
    else:
        ell = x_order if is_prime(x_order) else _ell_divisor(G, x._raw, norm_order)
        if sol.order.value < G.order and sol.members._raws == _normalizer_scan(G, x._raw)[0]:
            status = "normalizer_equals_sol"
        elif sol.order.value > ell * x_order:
            status = "strict_bound"
        else:
            status = "violated"
    return {
        "x_order": x_order,
        "ell": ell,
        "dichotomy": status,
        "sol_order": sol.order.value,
        "normalizer_order": norm_order,
    }


# ----------------------------------------------------------- check reports


def _sylow_exponents(G: PermGroup) -> dict[int, int]:
    """{p: the exponent of a Sylow p-subgroup of G} for each prime p dividing
    |G|; memoized per group. Every p-element lies in a conjugate of one Sylow
    p-subgroup, so that exponent is the largest p-power element order among
    the classes of G."""

    def compute() -> dict[int, int]:
        exponents: dict[int, int] = {}
        for c in G.conjugacy_classes().classes:
            p = prime_power_base(c.element_order)
            if p is not None:
                exponents[p] = max(exponents.get(p, 1), c.element_order)
        return exponents

    return G._memo("sylow exponents", compute)


def _sampled_elements(G: PermGroup, label: str, seed: int, count: int = 8) -> list:
    """Deterministic sample: every generator plus `count` seeded picks."""
    elements = G._elements_raw()
    rng = random.Random(f"{seed}:{label}")
    picks = [elements[rng.randrange(len(elements))] for _ in range(count)]
    return G._gen_raws() + picks


def lemma_checks_for_rep(
    G: PermGroup, rep_idx: int, name: str = "", seed: int = 0
) -> tuple[list[dict], list[dict]]:
    """Every lemma-level check at one conjugacy-class representative, and
    the theorem-instance checks there (none for a soluble G), as report
    records {item, rep, passed, triggered}. All of them are proved facts: a
    failure means the implementation is wrong, and its record carries a
    witness. At rep_idx 1 the equivariance check also recomputes one
    Sol(x^g) in full."""
    n = G.degree
    ident = _raw_identity(n)
    insoluble = not analysis.is_soluble(G)
    radical = analysis.soluble_radical(G).radical
    cls = G.conjugacy_classes().classes[rep_idx]

    x = cls.representative
    rep = x.cycle_string()
    xraw = x._raw
    x_order = cls.element_order
    sol = solubilizer(G, x)
    sol_set = sol.members._raws
    sol_order = sol.order.value
    norm_order = sol.normalizer_order.value
    # with Sol = G (the one-block path) N <= Sol holds by construction and
    # N = Sol is |N| = |G|, so N is listed only on the orbit-walk path
    if sol_order == G.order:
        norm_set, norm_is_sol = None, norm_order == G.order
    else:
        norm_set = _normalizer_scan(G, xraw)[0]
        norm_is_sol = norm_set == sol_set
    sample = _sampled_elements(G, f"{name}:{rep_idx}", seed)
    checks: list[dict] = []

    def record(item: str, passed: bool, witness: dict | None = None, triggered: bool = True):
        checks.append({"item": item, "rep": rep, "passed": passed, "triggered": triggered})
        if not passed:
            checks[-1]["witness"] = witness

    # (2) |x| divides |Sol|
    record("order_divides", sol_order % x_order == 0, {"x_order": x_order, "sol": sol_order})

    # (10) |C_G(x)| divides |Sol|
    c_order = sol.centralizer_order.value
    record(
        "centralizer_divides",
        sol_order % c_order == 0,
        {"centralizer": c_order, "sol": sol_order},
    )

    # (1) <x> + N_G(<x>) + R(G) inside Sol; membership spot-check of the
    # union-of-soluble-subgroups description. The witness names the first
    # part outside Sol and the first sampled y whose pair verdict disagrees
    # with its membership
    cyc = _cyclic_raws(xraw, n)
    parts = (("<x>", cyc), ("N_G(<x>)", norm_set), ("R(G)", radical._element_set()))
    outside = next((label for label, part in parts
                    if part is not None and not _within(part, sol_set)), None)
    witness = {} if outside is None else {"not_in_sol": outside}
    for y in sample:
        verdict = analysis.pair_soluble(G, xraw, y)
        if verdict != (y in sol_set):
            y_text = Permutation._from_raw(y, n).cycle_string()
            witness.update(y=y_text, pair_soluble=verdict, in_sol=not verdict)
            break
    record("containment", not witness, witness)

    # (5) |R(G)| divides |Sol|
    record(
        "radical_divides",
        sol_order % radical.order == 0,
        {"radical": radical.order, "sol": sol_order},
    )

    # (6) insoluble G: <x> is proper in Sol
    if insoluble:
        record("cyclic_proper", len(cyc) < sol_order, {"x_order": x_order, "sol": sol_order})
    else:
        record("cyclic_proper", True, triggered=False)

    # (7) |Sol| is not prime (insoluble ambient; soluble gives Sol = G)
    if insoluble:
        record("order_not_prime", not is_prime(sol_order), {"sol": sol_order})
    else:
        record("order_not_prime", True, triggered=False)

    # (9) Sol(x^g) = Sol(x)^g: membership equivariance at sampled pairs,
    # plus one full recomputation at rep_idx 1
    equi_ok = True
    equi_witness = None
    for g in sample[: len(G.generators) + 2]:
        xg = _raw_conj(xraw, g)
        for y in sample:
            lhs = y in sol_set
            rhs = analysis.pair_soluble(G, xg, _raw_conj(y, g))
            if lhs != rhs:
                equi_ok = False
                equi_witness = {"g": Permutation._from_raw(g, n).cycle_string()}
                break
        if not equi_ok:
            break
    if equi_ok and rep_idx == 1 and x_order > 1:
        g = next((s for s in sample if s != ident and s not in cyc), None)
        if g is not None:
            xg = Permutation._from_raw(_raw_conj(xraw, g), n)
            direct = solubilizer(G, xg).members._raws
            conjugated = frozenset(_raw_conj(y, g) for y in sol_set)
            if direct != conjugated:
                equi_ok = False
                equi_witness = {"g": Permutation._from_raw(g, n).cycle_string(), "full": True}
    record("conjugation_equivariance", equi_ok, equi_witness)

    # either N_G(<x>) = Sol as sets or |Sol| strictly exceeds ell * |x|
    ell = ell_invariant(G, x, sol)
    record(
        "normalizer_dichotomy",
        ell["dichotomy"] != "violated",
        {"ell": ell["ell"], "sol": sol_order, "normalizer": ell["normalizer_order"]},
    )

    # when |x| equals the exponent of its Sylow p-subgroup the same
    # dichotomy holds with the sharper bound p * |x|
    p = prime_power_base(x_order)
    if p is not None and x_order == _sylow_exponents(G)[p]:
        holds = sol_order > p * x_order or norm_is_sol
        record(
            "exponent_dichotomy",
            holds,
            {"p": p, "exp": x_order, "sol": sol_order, "normalizer": norm_order},
        )
    else:
        record("exponent_dichotomy", True, triggered=False)

    # |Sol| is never the square of a prime in an insoluble group
    if insoluble:
        base = prime_power_base(sol_order)
        record(
            "order_not_prime_square",
            base is None or sol_order != base * base,
            {"sol": sol_order},
        )
    else:
        record("order_not_prime_square", True, triggered=False)

    # A nilpotent subgroup-Sol in an insoluble group has a non-abelian
    # Sylow 2-subgroup of order >= 16. Nilpotency is what lets the
    # underlying maximal-subgroup solubility criterion bite; without it
    # the statement is false (Sol of a 5-cycle in A5 is dihedral of
    # order 10 with a Sylow 2-subgroup of order 2).
    if insoluble and sol.is_subgroup and analysis.is_nilpotent(sol.subgroup):
        syl2 = analysis.sylow_subgroup(sol.subgroup, 2)
        ok = syl2.order >= 16 and analysis.derived_subgroup(syl2).order > 1
        record("sylow2_of_sol_nonabelian_ge16", ok, {"sylow2_order": syl2.order})
    else:
        record("sylow2_of_sol_nonabelian_ge16", True, triggered=False)

    # no self-normalizing prime-order cyclic subgroup in an insoluble group
    if insoluble and is_prime(x_order):
        record(
            "no_self_normalizing_prime_cyclic",
            norm_order > x_order,
            {"x_order": x_order, "normalizer": norm_order},
        )
    else:
        record("no_self_normalizing_prime_cyclic", True, triggered=False)

    # involution class sits inside the normal core of a subgroup-Sol
    if x_order == 2:
        core_rep = sol_core_check(G, x, seed=seed)
        record(
            "involution_class_in_core",
            core_rep["passed"],
            core_rep.get("witness"),
            triggered=core_rep["applicable"],
        )
    else:
        record("involution_class_in_core", True, triggered=False)

    lemma_count = len(checks)
    if insoluble:  # every theorem hypothesis presupposes an insoluble G
        factors = sol.order.factor_pairs

        # |Sol| = 2p, p odd prime -> G simple and N_G(<x>) = Sol
        if len(factors) == 2 and factors[0] == (2, 1) and factors[1][1] == 1:
            passed = analysis.is_simple(G) and norm_is_sol
            record("sol_2p", passed, {"sol": sol_order})
        else:
            record("sol_2p", True, triggered=False)

        # |Sol| = pq with |x| = q > p -> G simple and N_G(<x>) = Sol
        if (
            len(factors) == 2
            and factors[0][1] == 1
            and factors[1][1] == 1
            and x_order == factors[1][0]
        ):
            passed = analysis.is_simple(G) and norm_is_sol
            record("sol_pq", passed, {"sol": sol_order})
        else:
            record("sol_pq", True, triggered=False)

        # |Sol| = 16 -> Sol is a subgroup
        if sol_order == 16:
            record("sol_16", sol.is_subgroup, {"sol": sol_order})
        else:
            record("sol_16", True, triggered=False)

        # Sol a 2-group -> it is a full Sylow 2-subgroup, and |x| >= 8
        if sol.is_subgroup and prime_power_base(sol_order) == 2:
            two_part = 2 ** G.order_factored.factors.get(2, 0)
            record(
                "sol_2group",
                sol_order == two_part and x_order >= 8,
                {"sol": sol_order, "two_part": two_part, "x_order": x_order},
            )
        else:
            record("sol_2group", True, triggered=False)
    return checks[:lemma_count], checks[lemma_count:]


def sol_core_check(G: PermGroup, x: Permutation, seed: int = 0) -> dict:
    """For an involution with Sol a subgroup: x^G sits inside Core_G(Sol).
    The companion fact x in Sol_G(x^g) (as <x, x^g> is cyclic or dihedral)
    is verified for sampled g regardless of subgroup-ness. Returns the record
    {rep, applicable, passed, core_order, class_size, companion_checked},
    where applicable says that Sol is a subgroup, so that the lemma's
    hypothesis holds, and core_order and class_size are None when it is not."""
    if x.order() != 2:
        raise ValueError("the core check applies to involutions only")
    n = G.degree
    xraw = x._raw
    sol = solubilizer(G, x)

    companion = 0
    witness = None
    for g in _sampled_elements(G, f"core:{x.cycle_string()}", seed):
        companion += 1
        if not analysis.pair_soluble(G, xraw, _raw_conj(xraw, g)):
            witness = {"g": Permutation._from_raw(g, n).cycle_string(), "companion": True}
            break

    core_order = class_size = None
    if sol.is_subgroup:
        core = analysis.core(G, sol.subgroup)
        class_raws = G.conjugacy_classes().class_members(x)._raws
        core_order, class_size = core.order, len(class_raws)
        if witness is None and not class_raws <= core._element_set():
            witness = {"core_order": core_order, "class_size": class_size}
    report = {
        "rep": x.cycle_string(),
        "applicable": sol.is_subgroup,
        "passed": witness is None,
        "core_order": core_order,
        "class_size": class_size,
        "companion_checked": companion,
    }
    if witness is not None:
        report["witness"] = witness
    return report


def quotient_sol_check(G: PermGroup, N: PermGroup, x: Permutation) -> dict:
    """Sol in the quotient versus the projected Sol, as the record {rep,
    n_order, n_soluble, sol_order, quotient_sol_order, passed}.

    For soluble N the two agree exactly and |Sol| is divisible by |N|; for an
    insoluble N only the containment (projected Sol inside quotient Sol) is
    claimed, and that is what gets verified.
    """
    Q, project = analysis.quotient_group(G, N)
    sol_g = solubilizer(G, x)
    sol_q = solubilizer(Q, project(x))
    projected = frozenset(project(y)._raw for y in sol_g.members)
    n_soluble = analysis.is_soluble(N)
    if n_soluble:
        passed = (
            projected == sol_q.members._raws
            and sol_g.order.value % N.order == 0
            and sol_q.order.value == sol_g.order.value // N.order
        )
        witness = {
            "projected": len(projected),
            "quotient_sol": sol_q.order.value,
            "sol": sol_g.order.value,
            "n": N.order,
        }
    else:
        passed = projected <= sol_q.members._raws
        witness = {"projected": len(projected), "quotient_sol": sol_q.order.value}
    report = {
        "rep": x.cycle_string(),
        "n_order": N.order,
        "n_soluble": n_soluble,
        "sol_order": sol_g.order.value,
        "quotient_sol_order": sol_q.order.value,
        "passed": passed,
    }
    if not passed:
        report["witness"] = witness
    return report


def direct_product_sol_check(A: PermGroup, H: PermGroup, x: Permutation) -> dict:
    """Sol_{A x H}(x) = A x Sol_H(x), checked as literal sets; the record
    {rep, factor_order, sol_in_factor, sol_in_product, passed}."""
    G, embed_left, embed_right = catalog.direct_product(A, H)
    x_in_g = embed_right(x)
    sol_h = solubilizer(H, x)
    sol_g = solubilizer(G, x_in_g)
    expected = frozenset(
        _raw_mult(embed_left(a)._raw, embed_right(s)._raw)
        for a in A.elements()
        for s in sol_h.members
    )
    passed = (
        expected == sol_g.members._raws
        and sol_g.order.value == A.order * sol_h.order.value
    )
    return {
        "rep": x.cycle_string(),
        "factor_order": A.order,
        "sol_in_factor": sol_h.order.value,
        "sol_in_product": sol_g.order.value,
        "passed": passed,
    }
