"""Structural computations: solubility, nilpotency, normal closures, the
centre, cores, Sylow subgroups, the Fitting subgroup, the soluble radical,
and quotient groups.

Everything here is a pure function of immutable inputs. The solubility test
walks the derived series of the generated subgroup H directly, one normal
closure at a time, and stops each closure as soon as it fills the previous
term. The same walk on G, memoized, gives the soluble residual D = G^(oo), the
last term of the series; is_soluble(G) asks whether D is trivial.

Callers that know the ambient group G use pair_soluble. In a soluble G it tests
x and y restricted to G's own orbits of more than 4 points, found once per
group. H = <x, y> embeds in the product of its restrictions to those points
and to the rest, and on the rest it lies in a product of copies of the soluble
S_4, so H is soluble iff its restriction to the wide orbits is (A_5 on 5 points
shows 4 is tight). That pair test, _soluble_raw, also serves the radical scan.
It lists H breadth-first, stopping at the 60th element, and fewer than 60
elements make it soluble, since A_5, of order 60, is the smallest insoluble
group. A larger H walks the derived series once, at the degree it is given.
The group keeps the verdict of each restricted pair it has tested, and the
restriction of x for the current run of pairs that share x, so a pair whose
restriction was seen before costs one restriction and a dict read; the verdict
still comes from the restricted x and y alone, never from G's solubility.

In an insoluble G pair_soluble first builds one stabilizer chain for H,
stopped at |G|/5, and settles most pairs from its order, or from D sifting into
it, before any walk. The stop rests on an index lemma: a non-trivial perfect
group has no proper subgroup of index k <= 4, since its action on the cosets
maps it onto a perfect subgroup of the soluble S_k, which is trivial. So
|G : H| <= 4 forces |D : H n D| <= |G : H| <= 4, hence H >= D and H is
insoluble. The pair tests come in runs that share x, so the chain of <x> alone
is built once and each partner y extends a copy of it. In an insoluble G, <x>
alone never reaches the stop: an index of at most 4 would put the non-trivial
perfect D inside the cyclic <x>. A chain that did not stop holds |H| exactly,
so the pairs left walk the derived series of H from |H|, with no listing (they
have |H| >= 60): every term's closure has a stop, and a perfect H is settled
by its first closure.

R(G), Fit(G) and simplicity come from one memoized pass that builds the normal
closure <x^G> of each class representative, stopped at |G|: x lies in R(G)
when <x^G> is soluble, and G is simple when every non-identity closure is G.
Fit(G) = Fit(R(G)), and in a soluble G, x lies in Fit(G) when <x^G> is
nilpotent. Nilpotency is counted from element orders, and a Sylow subgroup is
grown in one pass over the p-elements: see is_nilpotent and sylow_subgroup.

Z(G) and Core_G(H) are read off the conjugacy class table of G, and G/N is
memoized on G with a coset index over every element of G, so projecting is a
dict read.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .perm import (
    _BYTES_DEGREE,
    CapExceededError,
    FactoredInteger,
    OrderReached,
    PermGroup,
    Permutation,
    _Chain,
    _composer,
    _group_from_raws,
    _order_histogram,
    _raw_commutator,
    _raw_conj,
    _raw_from,
    _raw_identity,
    _raw_mult,
    _raw_order,
    _table,
    is_prime,
    prime_power_base,
)


class RadicalCertificate(NamedTuple):
    """R(G) together with the number of class normal closures walked for
    solubility."""

    radical: PermGroup
    witness_checks: int


def _pair_commutators(n: int, gens: Sequence) -> list:
    ident = _raw_identity(n)
    out = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c = _raw_commutator(gens[i], gens[j], n)
            if c != ident:
                out.append(c)
    return out


def _normal_closure_raws(n: int, ambient_gens: Sequence, seeds: Sequence, stop_at: int | None = None):
    """Chain for <seeds^<ambient_gens>>, plus the generators that grew it.

    stop_at: the stop order of the chain, so OrderReached propagates as soon
    as the closure order reaches it; the solubility walk uses it, since
    reaching the previous term's order already decides the answer.
    """
    ch = _Chain(n, stop_at)
    found = []
    for s in seeds:
        if ch.extend(s):
            found.append(s)
    qi = 0
    while qi < len(found):
        a = found[qi]
        qi += 1
        for g in ambient_gens:
            b = _raw_conj(a, g)
            if ch.extend(b):
                found.append(b)
    return ch, found


def _residual_raw(n: int, gens: Sequence, order: int | None = None) -> tuple[int, tuple]:
    """(|D|, generators of D) for D the last term of the derived series of
    <gens>, whose order is passed when known. Each term's closure stops at
    the previous term's order, since reaching it means that term is perfect."""
    ident = _raw_identity(n)
    cur = [g for g in gens if g != ident]
    while True:
        comms = _pair_commutators(n, cur)
        if not comms:
            return 1, ()
        try:
            ch, found = _normal_closure_raws(n, cur, comms, stop_at=order)
        except OrderReached:
            # the derived subgroup filled the whole term: a perfect group
            return order, tuple(cur)
        if ch.order() == order:
            # the same, from a chain that missed its stop: never loop on it
            return order, tuple(cur)
        order = ch.order()
        if order == 1:
            return 1, ()
        cur = found


def _orbits(n: int, gens: Sequence) -> list:
    """The orbits of <gens>, found in one pass in point order."""
    seen = bytearray(n)
    out = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = 1
        orbit = [s]
        for p in orbit:
            for g in gens:
                q = g[p]
                if not seen[q]:
                    seen[q] = 1
                    orbit.append(q)
        out.append(orbit)
    return out


def _relabel(n: int, points: list) -> Callable:
    """The map from a raw table of degree n that permutes the sorted points,
    at least 2 of them, to its restriction there, relabelled 0..m-1 in point
    order: bytes up to 256 points and a tuple above."""
    m = len(points)
    pick = itemgetter(*points)
    if n <= _BYTES_DEGREE:
        label = bytearray(_BYTES_DEGREE)
        for i, p in enumerate(points):
            label[p] = i
        return lambda g: bytes(pick(g)).translate(label)
    label = dict(zip(points, range(m)))
    return lambda g: _raw_from(map(label.__getitem__, pick(g)), m)


def _fewer_than_60(n: int, x, y) -> bool:
    """Has <x, y>, on n points, fewer than 60 elements? The powers of x are
    listed first, then the rest breadth-first under right multiplication by y
    and x; the listing stops at the 60th element."""
    mult = _composer(n)
    tx, ty = _table(x), _table(y)
    ident = _raw_identity(n)
    listed = [ident]
    power = x
    while power != ident:
        if len(listed) == 59:
            return False
        listed.append(power)
        power = mult(power, tx)
    seen = set(listed)
    for a in listed:
        b, c = mult(a, ty), mult(a, tx)
        if b not in seen:
            seen.add(b)
            listed.append(b)
        if c not in seen:
            seen.add(c)
            listed.append(c)
        if len(listed) >= 60:
            return False
    return True


def _soluble_raw(n: int, gens: Sequence) -> bool:
    """Is <gens> soluble? The pair test of a soluble G in pair_soluble, and the
    radical scan's test of each class closure. A pair is listed first: fewer
    than 60 elements make it soluble, since A_5, of order 60, is the smallest
    insoluble group. Otherwise <gens> walks the derived series at degree n."""
    if len(gens) == 2 and _fewer_than_60(n, *gens):
        return True
    return _residual_raw(n, gens)[0] == 1


def _wide_part(G: PermGroup) -> tuple[int, Callable]:
    """(w, restrict): the number w of points in G's orbits of more than 4
    points, and the map from an element of G to its restriction to them,
    relabelled 0..w-1 in point order. An element keeps its form when every
    orbit is wide, and becomes the empty permutation when none is."""
    n = G.degree
    points = sorted(p for orbit in _orbits(n, G._gen_raws()) if len(orbit) > 4 for p in orbit)
    if len(points) == n:
        return n, lambda g: g
    if not points:
        return 0, lambda g: b""
    return len(points), _relabel(n, points)


def _soluble_residual(G: PermGroup) -> tuple[int, tuple]:
    """(|D|, generators of D) for the soluble residual D = G^(oo), the last
    term of the derived series: perfect, and trivial exactly when G is
    soluble. Memoized per group."""
    return G._memo("residual", lambda: _residual_raw(G.degree, G._gen_raws(), G.order))


def pair_soluble(G: PermGroup, x, y) -> bool:
    """Is <x, y> soluble, for raw tables x and y of elements of G?

    For an insoluble G, with soluble residual D = G^(oo), one chain of
    H = <x, y> stopped at |G|/5 settles most pairs:

    - Reaching the stop means H is insoluble. The chain never overstates |H|,
      so |H| > |G|/5 and |G : H| <= 4. Since |H n D| >= |H||D|/|G|,
      |D : H n D| <= |G : H| <= 4. D is perfect and non-trivial, and its action
      on the cosets of H n D maps it onto a perfect subgroup of the soluble
      S_4, so that image is trivial: H n D = D, and H >= D is insoluble.
    - Otherwise |H| is known, and H is soluble when |H| < 60 (the order of the
      smallest insoluble group), when 4 does not divide |H| (a cyclic Sylow
      2-subgroup gives a normal 2-complement by Burnside, of odd order, so
      soluble by Feit-Thompson), or when |H| has at most two prime divisors
      (Burnside's p^a q^b theorem).
    - Then H is insoluble when it contains D: |D| divides |H| and every
      generator of D sifts into H's chain.

    The chain of <x> is built once for a run of pairs that share x and G (see
    _prefix_chain), and each y extends a copy of it: the same chain as a new
    one extended by x and then by y.

    Only the remaining pairs walk the derived series of H, at degree n. The
    chain did not stop, so it holds |H| exactly, and the walk starts from it:
    each term's normal closure stops at the previous term's order, so a
    perfect H, such as A_5, is settled by its first closure. These pairs have
    |H| >= 60, so they run no listing.

    In a soluble G every pair is soluble, but the answer still comes from x
    and y alone, so that checks on soluble groups keep a test that can fail.
    The pair test runs on x and y restricted to G's orbits of more than 4
    points (see _wide_part), where the listing settles every pair of fewer
    than 60 elements without a walk, and a larger pair walks the derived
    series once, on all of those points. In a product such as S_4 x S_4, whose
    orbits have 4 points, the restriction is the trivial group on no points.
    Each distinct restricted pair is tested once per group and process: G
    keeps its verdict, keyed on both restrictions, and a later pair with the
    same restrictions reads it back. G also keeps (x, restriction of x) for
    the current run of pairs that share x, where an insoluble G keeps the
    chain of <x>, so a pair seen before costs one restriction, of y, and a
    dict read.
    """
    return _pair_verdict(G, x, y)[0]


def _pair_verdict(G: PermGroup, x, y) -> tuple[bool, str]:
    """pair_soluble's answer and the branch that settled it: "soluble G",
    "index below 5", "order", "contains residual" or "walk"."""
    # (w, restrict, verdicts), memoized once G is known to be soluble; verdicts
    # holds each restricted pair tested so far in G, and its answer
    wide = G._cache.get("wide part")
    if wide is None:
        residual_order, residual = _soluble_residual(G)
        if residual_order == 1:
            wide = G._memo("wide part", lambda: (*_wide_part(G), {}))
    if wide is not None:
        w, restrict, verdicts = wide
        # (x, restrict(x)) for the current run of pairs that share x
        slot = G._prefix
        if slot is None or slot[0] != x:
            slot = G._prefix = (x, restrict(x))
        key = slot[1], restrict(y)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = _soluble_raw(w, key)
        return verdict, "soluble G"
    prefix = _prefix_chain(G, x)
    if prefix is None:
        return False, "index below 5"
    ch = prefix.copy()
    try:
        ch.extend(y)
    except OrderReached:
        return False, "index below 5"
    h = ch.order()
    if h < 60 or h % 4 or sum(1 for p, _ in G.order_factored.factor_pairs if h % p == 0) <= 2:
        return True, "order"
    if h % residual_order == 0 and all(ch.contains(d) for d in residual):
        return False, "contains residual"
    # the chain did not stop, so h = |H|, where the first closure stops
    return _residual_raw(G.degree, (x, y), h)[0] == 1, "walk"


def _prefix_chain(G: PermGroup, x) -> _Chain | None:
    """The chain of <x> stopped at |G| // 5 + 1, kept on G for the last x it
    was asked for and replaced by the next. Pair tests come in runs that share
    (G, x): a solubilizer's blocks, the containment spot check, each
    conjugator of the equivariance check. None when <x> alone reaches the
    stop, which cannot happen in an insoluble G (see the module docstring)
    but is still read as index below 5; nothing is kept then."""
    slot = G._prefix
    if slot is not None and slot[0] == x:
        return slot[1]
    ch = _Chain(G.degree, G.order // 5 + 1)
    try:
        ch.extend(x)
    except OrderReached:
        return None
    G._prefix = (x, ch)
    return ch


def is_soluble(G: PermGroup) -> bool:
    return _soluble_residual(G)[0] == 1


def normal_closure(G: PermGroup, seeds: Sequence[Permutation]) -> PermGroup:
    """<seeds^G>, the smallest normal subgroup of G containing the seeds."""
    ch, found = _normal_closure_raws(G.degree, G._gen_raws(), [s._raw for s in seeds])
    return _group_from_raws(G, found)


def derived_subgroup(G: PermGroup) -> PermGroup:
    gens = G._gen_raws()
    _, found = _normal_closure_raws(G.degree, gens, _pair_commutators(G.degree, gens))
    return _group_from_raws(G, found)


def is_nilpotent(G: PermGroup) -> bool:
    """G is nilpotent when each Sylow subgroup is normal, that is the only one:
    when exactly |G|_p elements have p-power order, for every prime p. The
    element-order histogram is read from G's class table when G holds one, as
    G does where it is some Sol(x), and is counted element by element
    otherwise (_order_histogram)."""
    hist = _order_histogram(G)
    return all(
        sum(c for o, c in hist if o == 1 or prime_power_base(o) == p) == p**e
        for p, e in G.order_factored.factor_pairs
    )


def center(G: PermGroup) -> PermGroup:
    """Z(G): the elements whose conjugacy class has size 1."""
    table = G.conjugacy_classes()
    keep = [g for g in G._elements_raw() if table.classes[table._index[g]].size == 1]
    return _group_from_raws(G, keep)


def _require_subgroup(G: PermGroup, H: PermGroup):
    if H.degree != G.degree or not all(G.contains(h) for h in H.generators):
        raise ValueError("not a subgroup of the ambient group")


def core(G: PermGroup, H: PermGroup) -> PermGroup:
    """Largest normal subgroup of G inside H, i.e. the intersection of all
    conjugates of H: the union of the classes of G that lie wholly in H,
    found by counting H's members per class against the class size."""
    _require_subgroup(G, H)
    if H.order == G.order:
        return G
    table = G.conjugacy_classes()
    members: dict = {}  # class position -> H's members in that class
    for h in H._elements_raw():
        members.setdefault(table._index[h], []).append(h)
    kept = sorted(h for i, hs in members.items() if len(hs) == table.classes[i].size for h in hs)
    out = _group_from_raws(G, kept)
    if out.order != len(kept):
        raise RuntimeError("core set is not closed; intersection logic is wrong")
    return out


def sylow_subgroup(G: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup P of G, grown in one pass over the p-elements g of
    G by adjoining each g that keeps <P, g> a p-group. A rejected g stays
    rejected as P grows, so no p-element enlarges the final P. So P is Sylow:
    inside a larger Sylow subgroup Q, any g in Q but not in P would enlarge it."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")

    def grow() -> PermGroup:
        n = G.degree
        target = p ** G.order_factored.factors.get(p, 0)
        kept: list = []
        chain = _Chain(n)
        for g in G._elements_raw():
            if chain.order() == target:
                break
            if chain.contains(g) or prime_power_base(_raw_order(g, n)) != p:
                continue
            trial = _Chain(n, target + 1)  # no p-subgroup is larger than target
            try:
                for h in kept + [g]:
                    trial.extend(h)
            except OrderReached:
                continue
            if prime_power_base(trial.order()) == p:
                chain = trial
                kept.append(g)
        if chain.order() != target:
            raise RuntimeError("Sylow pass ended below the full p-part")
        return G.subgroup([Permutation._from_raw(g, n) for g in kept], check=False)

    return G._memo(("sylow", p), grow)


def _class_closures(G: PermGroup) -> list:
    """(representative, closure) for every non-identity class of G, in class
    table order. closure lists the generators that grew the chain of <x^G>,
    or is None when <x^G> = G: each chain stops at |G|. The soluble radical,
    the Fitting subgroup and simplicity are all read from this one list.

    <x^G> contains the powers x^(|x|/p) of prime order p and x^s * x for each
    generator s of G, so when the class of one of those already closed to G,
    so does x, and no chain is built. The powers have lower element order, so
    their classes come first in the table. Until some class closes to G, as
    in a soluble G, those elements are not formed."""

    def build():
        n, gens = G.degree, G._gen_raws()
        table = G.conjugacy_classes()
        index = table._index
        whole = [False] * len(table.classes)  # class position -> its closure is G

        def meets_a_whole_class(x: Permutation, o: int) -> bool:
            xr = x._raw
            powers = ((x ** (o // p))._raw for p, _ in FactoredInteger.from_int(o).factor_pairs)
            products = (_raw_mult(_raw_conj(xr, s), xr) for s in gens)
            return any(whole[index[y]] for ys in (powers, products) for y in ys)

        out = []
        for i, cls in enumerate(table.classes):
            if cls.element_order == 1:
                continue
            x = cls.representative
            found = None
            if not (True in whole and meets_a_whole_class(x, cls.element_order)):
                try:
                    _, found = _normal_closure_raws(n, gens, [x._raw], G.order)
                except OrderReached:
                    pass
            whole[i] = found is None
            out.append((x, found))
        return out

    return G._memo("class closures", build)


def _closure_union(G: PermGroup, keep: Callable) -> tuple[PermGroup, int]:
    """The identity and every class x^G with <x^G> != G whose closure passes
    keep, checked to form a group; and the number of closures tested."""
    table = G.conjugacy_classes()
    raws = {_raw_identity(G.degree)}
    tested = 0
    for rep, found in _class_closures(G):
        if found is not None:
            tested += 1
            if keep(found):
                raws |= table.class_members(rep)._raws
    out = _group_from_raws(G, sorted(raws))
    if set(out._elements_raw()) != raws:
        raise RuntimeError("the selected classes do not form the group they generate")
    return out, tested


def fitting_subgroup(G: PermGroup) -> PermGroup:
    """Fit(G). It is a soluble normal subgroup, so Fit(G) = Fit(R(G)); in a
    soluble G, x lies in it exactly when <x^G> is nilpotent."""

    def search() -> PermGroup:
        radical = soluble_radical(G).radical
        if radical.order != G.order:
            return fitting_subgroup(radical)
        if is_nilpotent(G):
            return G
        fit, _ = _closure_union(G, lambda found: is_nilpotent(_group_from_raws(G, found)))
        if not is_nilpotent(fit):
            raise RuntimeError("Fitting subgroup computed non-nilpotent")
        return fit

    return G._memo("fitting", search)


def soluble_radical(G: PermGroup) -> RadicalCertificate:
    """R(G): x lies in it exactly when <x^G> is soluble. A soluble group is its
    own radical; in an insoluble one a closure equal to G is insoluble."""

    def search() -> RadicalCertificate:
        if is_soluble(G):
            return RadicalCertificate(G, 0)
        n = G.degree
        return RadicalCertificate(*_closure_union(G, lambda found: _soluble_raw(n, found)))

    return G._memo("radical", search)


def quotient_group(
    G: PermGroup, N: PermGroup
) -> tuple[PermGroup, Callable[[Permutation], Permutation]]:
    """The coset action of G on N's right cosets, plus the projection map.

    N must be normal; the action has kernel exactly N, so the result is G/N,
    with G's cap, as a permutation group of degree |G : N| <= cap. It is
    memoized on G, keyed by N's element set; the coset walk files every
    element of G under its coset.

    The walk is breadth-first from N over right multiplication by G's
    generators, so it reads off each generator's action on the cosets as it
    goes, and it keeps the coset tree: each new coset N*r*s with its parent
    N*r and generator s (the Schreier tree of Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, ch. 4). Since N is normal, r*s
    acts on the cosets as r, then s, so each coset's image is one product of
    permutations of degree |G : N|, its parent's image times s's.
    """
    _require_subgroup(G, N)
    n = G.degree
    gen_raws = G._gen_raws()
    for s in gen_raws:
        for t in N._gen_raws():
            if not N._chain.contains(_raw_conj(t, s)):
                raise ValueError("subgroup is not normal")
    if G.order % N.order:
        raise RuntimeError("subgroup order does not divide the group order")
    index = G.order // N.order
    if index > G._cap:
        raise CapExceededError(f"index {index} exceeds cap {G._cap}")
    n_raws = N._elements_raw()

    def build():
        reps = [_raw_identity(n)]
        coset_of = dict.fromkeys(n_raws, 0)  # element of G -> index of its coset N*t
        moves = [[] for _ in gen_raws]  # moves[i][k]: the coset of reps[k] * s_i
        tree = [None]  # (parent coset, generator) whose product first reached each coset
        for k, r in enumerate(reps):
            for i, s in enumerate(gen_raws):
                t = _raw_mult(r, s)
                if t not in coset_of:
                    coset_of.update(dict.fromkeys((_raw_mult(nr, t) for nr in n_raws), len(reps)))
                    reps.append(t)
                    tree.append((k, i))
                moves[i].append(coset_of[t])
        if len(reps) != index:
            raise RuntimeError("coset walk did not reach every coset")
        # reps[k] = reps[parent] * s_i acts on the cosets as reps[parent], then s_i
        gen_images = [Permutation([c + 1 for c in move]) for move in moves]
        images = [Permutation.identity(index)]
        for parent, i in tree[1:]:
            images.append(images[parent] * gen_images[i])

        def project(g: Permutation) -> Permutation:
            if g.degree != n or not G.contains(g):
                raise ValueError("element is not in the group being projected")
            return images[coset_of[g._raw]]

        Q = PermGroup([project(g) for g in G.generators], G._cap)
        if Q.order * N.order != G.order:
            raise RuntimeError("coset action kernel differs from the given subgroup")
        return Q, project

    return G._memo(("quotient", frozenset(n_raws)), build)


def is_simple(G: PermGroup) -> bool:
    """Exact test: the normal closure of every non-identity class is G."""
    return G.order > 1 and all(found is None for _, found in _class_closures(G))
