"""Subgroup computations that the package no longer needs, kept here as
oracles for the tests: the lower central series, and the centralizer and
normalizer found by scanning every element of the ambient group; the
conjugacy classes found by conjugating with every element of the group; and
the class pairs whose soluble pairs count differently from either side.

The series shares no code with analysis.is_nilpotent, which counts elements
of prime-power order instead of walking normal closures of commutators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

from grouplab.analysis import _normal_closure_raws, _require_subgroup
from grouplab.perm import (
    FactoredInteger,
    PermGroup,
    Permutation,
    _group_from_raws,
    _raw_commutator,
    _raw_inv,
    _raw_mult,
)
from grouplab.sol import solubilizer


@dataclass(frozen=True)
class SeriesReport:
    """A normal series run to stabilization.

    terms holds the orders G = T_0 >= T_1 >= ...; when the series stalls above
    the trivial group the repeated order is kept as the last entry, so the
    stall is visible in the report itself.
    """

    terms: tuple[FactoredInteger, ...]

    def __post_init__(self):
        values = [t.value for t in self.terms]
        if any(a < b for a, b in zip(values, values[1:])):
            raise RuntimeError(f"series orders increased: {values}")

    @property
    def reaches_trivial(self) -> bool:
        return self.terms[-1].value == 1


def lower_central_series(G: PermGroup) -> SeriesReport:
    """G = gamma_1 >= gamma_2 >= ..., where gamma_(i+1) = [gamma_i, G] is the
    normal closure of the commutators of generator pairs."""
    n = G.degree
    g_gens = G._gen_raws()
    terms = [G.order_factored]
    cur = G
    while cur.order > 1:
        seeds = [_raw_commutator(a, b, n) for a in cur._gen_raws() for b in g_gens]
        nxt = _group_from_raws(G, _normal_closure_raws(n, g_gens, seeds)[1])
        terms.append(nxt.order_factored)
        if nxt.order == cur.order:
            break  # stalled above 1: the repeated order shows it
        cur = nxt
    return SeriesReport(tuple(terms))


def centralizer(G: PermGroup, x: Permutation) -> PermGroup:
    if not G.contains(x):
        raise ValueError("element is not in the group")
    xr = x._raw
    keep = [g for g in G._elements_raw() if _raw_mult(g, xr) == _raw_mult(xr, g)]
    return _group_from_raws(G, keep)


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    _require_subgroup(G, H)
    n = G.degree
    h_gens = [h._raw for h in H.generators]
    keep = []
    for g in G._elements_raw():
        g_inv = _raw_inv(g, n)
        if all(H._chain.contains(_raw_mult(_raw_mult(g_inv, h), g)) for h in h_gens):
            keep.append(g)
    return _group_from_raws(G, keep)


def conjugacy_classes_by_brute_force(G: PermGroup) -> tuple[list, dict]:
    """(classes, index) from the image lists of G's elements alone, in plain
    tuple arithmetic on 0-based images: each element not yet placed is
    conjugated by every element of G, which gives its whole class.

    classes lists (minimal member, size, element order), sorted by element
    order, then size, then minimal member; index maps every element to the
    position of its class in that list."""
    elems = [tuple(v - 1 for v in p.images) for p in G.elements()]
    n = G.degree
    identity = tuple(range(n))
    before_inverse = []  # for each g, the gather that reads an image list at g^-1
    for g in elems:
        inv = [0] * n
        for i in range(n):
            inv[g[i]] = i
        before_inverse.append(itemgetter(*inv))
    placed: dict = {}  # element -> its minimal class member
    rows = []
    for x in elems:
        if x in placed:
            continue
        # g^-1 x g sends g[i] to g[x[i]], so it sends j to g[x[g^-1[j]]]
        after_x = itemgetter(*x)  # g -> the image list of j -> g[x[j]]
        members = {read(after_x(g)) for g, read in zip(elems, before_inverse)}
        order, power = 1, x
        while power != identity:
            power = itemgetter(*power)(x)  # x^k, then x: p -> x[power[p]]
            order += 1
        rep = min(members)
        placed.update(dict.fromkeys(members, rep))
        rows.append((rep, len(members), order))
    rows.sort(key=lambda r: (r[2], r[1], r[0]))
    position = {r[0]: i for i, r in enumerate(rows)}
    return rows, {e: position[rep] for e, rep in placed.items()}


def unbalanced_class_pairs(G, members=lambda G, x: solubilizer(G, x).members._raws):
    """The class pairs (i, j) with |C_i| |Sol(x_i) meet C_j| != |C_j| |Sol(x_j) meet C_i|.

    <x, y> is soluble exactly when <y, x> is, and Sol(x^g) = Sol(x)^g, so the
    soluble pairs in C_i x C_j number |C_i| |Sol(x_i) meet C_j| counted from
    C_i's side and |C_j| |Sol(x_j) meet C_i| from C_j's. Each Sol is listed by
    its own search, so the two sides share no block."""
    table = G.conjugacy_classes()
    sizes = [c.size for c in table.classes]
    meets = [Counter(table._index[y] for y in members(G, c.representative))
             for c in table.classes]
    return [(i, j) for i, j in combinations(range(len(sizes)), 2)
            if sizes[i] * meets[i][j] != sizes[j] * meets[j][i]]
