"""Constructors for named groups, the Table-1 roster, and self-validation.

Name grammar (the CLI's group-selection language):

    S:7  A:5  C:12  D:16  SD:16  Q:16  C7:C3  M10
    PSL2:11  PGL2:7  PGammaL2:9  SL2:7
    products joined with " x ", e.g. "C:2 x PGL2:7"

Every constructor validates its result (order, plus any declared flags)
before returning; a validation failure is a construction bug and raises.
"""

from __future__ import annotations

import re
from math import factorial
from typing import Callable, NamedTuple

from . import analysis
from .fields import SmallField, field_arithmetic
from .perm import DEFAULT_CAP, FactoredInteger, PermGroup, Permutation, _order_histogram, is_prime


class GroupSpec(NamedTuple):
    name: str
    degree: int
    expected_order: FactoredInteger
    # known truths to verify after construction; absent keys are not checked
    expected_flags: tuple  # sorted (key, value) pairs from {soluble, simple, trivial_fitting}

    @property
    def flags(self) -> dict:
        return dict(self.expected_flags)


def _spec(name: str, degree: int, order: int, **flags) -> GroupSpec:
    return GroupSpec(
        name, degree, FactoredInteger.from_int(order), tuple(sorted(flags.items()))
    )


def _psl_order(q: int) -> int:
    d = 2 if q % 2 else 1
    return q * (q * q - 1) // d


# The fourteen insoluble groups of order <= 2000 (excluding order 1920) with
# trivial Fitting subgroup, in ascending-order listing.
TABLE1: tuple[GroupSpec, ...] = (
    _spec("A:5", 5, 60, soluble=False, simple=True, trivial_fitting=True),
    _spec("S:5", 5, 120, soluble=False, simple=False, trivial_fitting=True),
    _spec("PSL2:7", 8, 168, soluble=False, simple=True, trivial_fitting=True),
    _spec("PGL2:7", 8, 336, soluble=False, simple=False, trivial_fitting=True),
    _spec("A:6", 6, 360, soluble=False, simple=True, trivial_fitting=True),
    _spec("PSL2:8", 9, 504, soluble=False, simple=True, trivial_fitting=True),
    _spec("PSL2:11", 12, 660, soluble=False, simple=True, trivial_fitting=True),
    _spec("S:6", 6, 720, soluble=False, simple=False, trivial_fitting=True),
    _spec("PGL2:9", 10, 720, soluble=False, simple=False, trivial_fitting=True),
    _spec("M10", 10, 720, soluble=False, simple=False, trivial_fitting=True),
    _spec("PSL2:13", 14, 1092, soluble=False, simple=True, trivial_fitting=True),
    _spec("PGL2:11", 12, 1320, soluble=False, simple=False, trivial_fitting=True),
    _spec("PGammaL2:9", 10, 1440, soluble=False, simple=False, trivial_fitting=True),
    _spec("PGammaL2:8", 9, 1512, soluble=False, simple=False, trivial_fitting=True),
)

TABLE1_NAMES: tuple[str, ...] = tuple(s.name for s in TABLE1)

# degree 32, order 14880; opt-in for the 2-subgroup exploration, not a Table-1 row
PSL31_SPEC: GroupSpec = _spec(
    "PSL2:31", 32, 14880, soluble=False, simple=True, trivial_fitting=True
)

_FAMILY_RE = re.compile(r"^(S|A|C|D|SD|Q|PSL2|PGL2|PGammaL2|SL2):(\d+)$")


def group_spec(name: str) -> GroupSpec:
    """Resolve a canonical name to its GroupSpec (degree, order, flags)."""
    name = name.strip()
    if " x " in name:
        parts = [group_spec(p) for p in name.split(" x ")]
        degree = sum(p.degree for p in parts)
        order = 1
        for p in parts:
            order *= p.expected_order.value
        soluble = all(p.flags.get("soluble", False) for p in parts)
        canonical = " x ".join(p.name for p in parts)
        return _spec(canonical, degree, order, soluble=soluble)
    if name == "M10":
        return next(s for s in TABLE1 if s.name == "M10")
    if name == "C7:C3":
        return _spec("C7:C3", 7, 21, soluble=True)
    m = _FAMILY_RE.match(name)
    if not m:
        raise ValueError(f"unknown group name: {name!r}")
    family, param = m.group(1), int(m.group(2))
    for s in TABLE1:
        if s.name == name:
            return s
    if name == "PSL2:31":
        return PSL31_SPEC
    if family == "S":
        if param < 1:
            raise ValueError("S:n needs n >= 1")
        flags = {"soluble": True} if param <= 4 else {"soluble": False, "simple": False}
        return _spec(name, param, factorial(param), **flags)
    if family == "A":
        if param < 3:
            raise ValueError("A:n needs n >= 3")
        flags = {"soluble": True} if param <= 4 else {"soluble": False, "simple": True}
        return _spec(name, param, factorial(param) // 2, **flags)
    if family == "C":
        if param < 1:
            raise ValueError("C:n needs n >= 1")
        return _spec(name, max(param, 1), param, soluble=True)
    if family == "D":
        if param < 6 or param % 2:
            raise ValueError("D:m needs an even order m >= 6")
        return _spec(name, param // 2, param, soluble=True)
    if family == "SD":
        if param < 16 or param & (param - 1):
            raise ValueError("SD:m needs a 2-power order m >= 16")
        return _spec(name, param // 2, param, soluble=True)
    if family == "Q":
        if param < 8 or param & (param - 1):
            raise ValueError("Q:m needs a 2-power order m >= 8")
        return _spec(name, param, param, soluble=True)
    if family in ("PSL2", "PGL2", "PGammaL2"):
        q = param
        f = _field_for(q)
        base = _psl_order(q)
        if family == "PSL2":
            order = base
            flags = {"soluble": False, "simple": q >= 4, "trivial_fitting": True}
        elif family == "PGL2":
            order = q * (q * q - 1)
            # even q: every scalar is a square, so PGL coincides with PSL
            flags = {"soluble": False, "simple": f.p == 2, "trivial_fitting": True}
        else:
            order = q * (q * q - 1) * f.k
            if f.k == 1:
                raise ValueError("PGammaL2:q needs a proper prime power q")
            flags = {"soluble": False, "simple": False, "trivial_fitting": True}
        return _spec(name, q + 1, order, **flags)
    if family == "SL2":
        p = param
        if not is_prime(p) or p < 5:
            raise ValueError("SL2:p needs a prime p >= 5")
        return _spec(name, p * p - 1, p * (p * p - 1), soluble=False, simple=False)
    raise ValueError(f"unknown group name: {name!r}")


def _field_for(q: int) -> SmallField:
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for k in (1, 2, 3):
            if p**k == q:
                return field_arithmetic(p, k)
    raise ValueError(f"{q} is not a prime power with exponent <= 3")


def _one_based(images0: list[int]) -> Permutation:
    return Permutation([i + 1 for i in images0])


def _compose0(a: list[int], b: list[int]) -> list[int]:
    # apply a, then b
    return [b[v] for v in a]


def _sym_gens(n: int) -> list[Permutation]:
    if n == 1:
        return [Permutation.identity(1)]
    cycle = list(range(1, n)) + [0]
    if n == 2:
        return [_one_based(cycle)]
    swap = [1, 0] + list(range(2, n))
    return [_one_based(swap), _one_based(cycle)]


def _alt_gens(n: int) -> list[Permutation]:
    three = [1, 2, 0] + list(range(3, n))
    if n == 3:
        return [_one_based(three)]
    if n % 2:
        cycle = list(range(1, n)) + [0]
    else:
        cycle = [0] + list(range(2, n)) + [1]
    return [_one_based(three), _one_based(cycle)]


def _cyclic_gens(n: int) -> list[Permutation]:
    if n == 1:
        return [Permutation.identity(1)]
    return [_one_based(list(range(1, n)) + [0])]


def _dihedral_gens(order: int) -> list[Permutation]:
    n = order // 2
    rot = [(i + 1) % n for i in range(n)]
    refl = [(n - i) % n for i in range(n)]
    return [_one_based(rot), _one_based(refl)]


def _semidihedral_gens(order: int) -> list[Permutation]:
    n = order // 2  # rotation order 2^(a-1); twist r -> r^(n/2 - 1)
    rot = [(i + 1) % n for i in range(n)]
    twist = [((n // 2 - 1) * i) % n for i in range(n)]
    return [_one_based(rot), _one_based(twist)]


def _quaternion_gens(order: int) -> list[Permutation]:
    # generalized quaternion on its own 2^a elements (right regular action);
    # element (e, j) = a^e b^j with b^2 = a^(order/4), b^-1 a b = a^-1
    half = order // 2

    def idx(e: int, j: int) -> int:
        return e + j * half

    def mul(e1: int, j1: int, e2: int, j2: int) -> tuple[int, int]:
        if j1 == 0:
            return (e1 + e2) % half, j2
        if j2 == 0:
            return (e1 - e2) % half, 1
        return (e1 - e2 + order // 4) % half, 0

    gens = []
    for ge, gj in ((1, 0), (0, 1)):
        images = [0] * order
        for e in range(half):
            for j in (0, 1):
                fe, fj = mul(e, j, ge, gj)
                images[idx(e, j)] = idx(fe, fj)
        gens.append(_one_based(images))
    return gens


def _c7c3_gens() -> list[Permutation]:
    rot = [(i + 1) % 7 for i in range(7)]
    aut = [(2 * i) % 7 for i in range(7)]
    return [_one_based(rot), _one_based(aut)]


def _projective_line_maps(f: SmallField):
    """0-based image tables on 1 + q points: index 0 is the point at infinity,
    index 1+e is the field element e."""
    q = f.q

    def on_line(inf_to: int | None, elem_map: Callable[[int], int | None]) -> list[int]:
        # encode infinity as None inside the callbacks
        images = [0] * (q + 1)
        images[0] = 0 if inf_to is None else 1 + inf_to
        for e in range(q):
            img = elem_map(e)
            images[1 + e] = 0 if img is None else 1 + img
        return images

    shift = on_line(None, lambda e: f.add(e, 1))

    def scale(c: int) -> list[int]:
        return on_line(None, lambda e: f.mul(c, e))

    neg_recip = on_line(0, lambda e: None if e == 0 else f.neg(f.inv(e)))
    frob = on_line(None, f.frobenius)
    return shift, scale, neg_recip, frob


def _psl_family_gens(q: int, kind: str) -> list[Permutation]:
    f = _field_for(q)
    shift, scale, neg_recip, frob = _projective_line_maps(f)
    g = f.generator()
    sq_scale = scale(g if f.p == 2 else f.mul(g, g))
    psl = [shift, sq_scale, neg_recip]
    if kind == "PSL2":
        tables = psl
    elif kind == "PGL2":
        tables = [shift, scale(g), neg_recip]
    elif kind == "PGammaL2":
        tables = [shift, scale(g), neg_recip, frob]
    else:
        raise ValueError(kind)
    return [_one_based(t) for t in tables]


def _m10_gens() -> list[Permutation]:
    """M10 = the index-2 overgroup of PSL(2,9) in PGammaL(2,9) generated by
    (Frobenius) * (non-square scalar); selected by order and order spectrum
    rather than pinned generator words."""
    f = field_arithmetic(3, 2)
    shift, scale, neg_recip, frob = _projective_line_maps(f)
    g = f.generator()
    psl = [shift, scale(f.mul(g, g)), neg_recip]
    want = frozenset({1, 2, 3, 4, 5, 8})
    for nonsq in [a for a in range(1, 9) if not f.is_square(a)]:
        for cand in (_compose0(frob, scale(nonsq)), _compose0(scale(nonsq), frob)):
            gens = [_one_based(t) for t in psl + [cand]]
            H = PermGroup(gens)
            if H.order == 720 and {o for o, _ in _order_histogram(H)} == want:
                return gens
    raise RuntimeError("no candidate produced the M10 order spectrum")


def _sl2_gens(p: int) -> list[Permutation]:
    """SL(2,p) on the p^2-1 nonzero column vectors (the projective action is
    unfaithful: the center acts trivially)."""
    degree = p * p - 1

    def vec_index(a: int, b: int) -> int:
        return a * p + b - 1  # (0,0) excluded, encodings shift down by one

    gens = []
    for alpha, beta, gamma, delta in ((1, 1, 0, 1), (0, -1 % p, 1, 0)):
        images = [0] * degree
        for a in range(p):
            for b in range(p):
                if a == 0 and b == 0:
                    continue
                a2 = (alpha * a + beta * b) % p
                b2 = (gamma * a + delta * b) % p
                images[vec_index(a, b)] = vec_index(a2, b2)
        gens.append(_one_based(images))
    return gens


def direct_product(
    A: PermGroup, B: PermGroup
) -> tuple[PermGroup, Callable[[Permutation], Permutation], Callable[[Permutation], Permutation]]:
    """A x B on the disjoint union of point sets, with both embeddings and the smaller cap."""
    m, n = A.degree, B.degree

    def embed_left(g: Permutation) -> Permutation:
        return Permutation(list(g.images) + list(range(m + 1, m + n + 1)))

    def embed_right(g: Permutation) -> Permutation:
        return Permutation(list(range(1, m + 1)) + [m + g(i) for i in range(1, n + 1)])

    gens = [embed_left(g) for g in A.generators] + [embed_right(g) for g in B.generators]
    return PermGroup(gens, min(A._cap, B._cap)), embed_left, embed_right


_BUILD_CACHE: dict[tuple[str, int], PermGroup] = {}  # (canonical name, cap) -> group


def build_named_group(name: str, cap: int = DEFAULT_CAP) -> PermGroup:
    """The named group with this cap, built once per (name, cap). Validation
    lists the elements, so below the order and the default cap the group takes
    the generators of the validated build at the default cap."""
    spec = group_spec(name)
    key = spec.name, cap
    cached = _BUILD_CACHE.get(key)
    if cached is not None:
        return cached
    if cap < min(spec.expected_order.value, DEFAULT_CAP):
        G = PermGroup(build_named_group(spec.name).generators, cap)
    else:
        if " x " in spec.name:
            parts = spec.name.split(" x ")
            G = build_named_group(parts[0], cap)
            for part in parts[1:]:
                G, _, _ = direct_product(G, build_named_group(part, cap))
        else:
            G = PermGroup(_gens_for(spec.name), cap)
        _validate_build(spec, G)
    _BUILD_CACHE[key] = G
    return G


def _gens_for(name: str) -> list[Permutation]:
    if name == "M10":
        return _m10_gens()
    if name == "C7:C3":
        return _c7c3_gens()
    family, param = name.split(":")
    n = int(param)
    if family == "S":
        return _sym_gens(n)
    if family == "A":
        return _alt_gens(n)
    if family == "C":
        return _cyclic_gens(n)
    if family == "D":
        return _dihedral_gens(n)
    if family == "SD":
        return _semidihedral_gens(n)
    if family == "Q":
        return _quaternion_gens(n)
    if family in ("PSL2", "PGL2", "PGammaL2"):
        return _psl_family_gens(n, family)
    if family == "SL2":
        return _sl2_gens(n)
    raise ValueError(f"unknown group name: {name!r}")


def _validate_build(spec: GroupSpec, G: PermGroup):
    problems = []
    if G.order != spec.expected_order.value:
        problems.append(f"order {G.order} != expected {spec.expected_order.value}")
    flags = spec.flags
    if "soluble" in flags and analysis.is_soluble(G) != flags["soluble"]:
        problems.append(f"solubility != expected {flags['soluble']}")
    if "simple" in flags and analysis.is_simple(G) != flags["simple"]:
        problems.append(f"simplicity != expected {flags['simple']}")
    if "trivial_fitting" in flags:
        fit = analysis.fitting_subgroup(G)
        if (fit.order == 1) != flags["trivial_fitting"]:
            problems.append(f"|Fit| = {fit.order}, trivial expected {flags['trivial_fitting']}")
    if problems:
        raise RuntimeError(f"construction of {spec.name} failed validation: " + "; ".join(problems))


def catalog_row(name: str, cap: int = DEFAULT_CAP) -> dict:
    """Degree, order, insolubility and |Fit(G)| of one named group; the
    build itself validates the group's recorded order and flags."""
    G = build_named_group(name, cap)
    return {
        "group": name,
        "degree": G.degree,
        "order": G.order_factored.to_json(),
        "insoluble": not analysis.is_soluble(G),
        "fitting_order": analysis.fitting_subgroup(G).order,
    }
