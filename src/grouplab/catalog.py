"""Constructors for named groups, the Table-1 roster, and self-validation.

Name grammar (the CLI's group-selection language):

    S:7  A:5  C:12  D:16  SD:16  Q:16  C7:C3  M10
    PSL2:11  PGL2:7  PGammaL2:9  SL2:7
    products joined with " x ", e.g. "C:2 x PGL2:7"

PSL2:q, PGL2:q and PGammaL2:q take q = p^k under the one rule of fields.
They and M10 act on the projective line over GF(q) (Huppert, Endliche
Gruppen I, II.8), and their generators are read off the power table of
GF(q). M10 is PSL(2,9) and one more generator, Frobenius followed by scaling
by a non-square: PGammaL(2,9)/PSL(2,9) is C2 x C2, and M10 is the overgroup
of index 2 in the coset of the diagonal and field automorphisms.

Every constructor validates its result (order, plus any declared flags)
before returning; a validation failure is a construction bug and raises.
"""

from __future__ import annotations

import re
from functools import partial
from math import factorial
from typing import Callable, NamedTuple

from . import analysis
from .fields import power_table, prime_power
from .perm import DEFAULT_CAP, FactoredInteger, PermGroup, Permutation, is_prime


class GroupSpec(NamedTuple):
    name: str
    degree: int
    expected_order: FactoredInteger
    # known truths to verify after construction, from {soluble, simple,
    # trivial_fitting}; absent keys are not checked
    flags: dict


def _spec(name: str, degree: int, order: int, **flags) -> GroupSpec:
    return GroupSpec(name, degree, FactoredInteger.from_int(order), flags)


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
_TABLE1_SPECS = dict(zip(TABLE1_NAMES, TABLE1))

_FAMILY_RE = re.compile(r"^(S|A|C|D|SD|Q|PSL2|PGL2|PGammaL2|SL2):(\d+)$")


def group_spec(name: str) -> GroupSpec:
    """Resolve a canonical name to its GroupSpec (degree, order, flags)."""
    name = name.strip()
    if " x " not in name:
        return _parse(name)[0]
    parts = [group_spec(p) for p in name.split(" x ")]
    degree = sum(p.degree for p in parts)
    order = 1
    for p in parts:
        order *= p.expected_order.value
    soluble = all(p.flags.get("soluble", False) for p in parts)
    canonical = " x ".join(p.name for p in parts)
    return _spec(canonical, degree, order, soluble=soluble)


def _parse(name: str) -> tuple[GroupSpec, Callable[[], list[Permutation]]]:
    """The spec of a name without " x ", and the constructor of its generators.
    A Table-1 row keeps its recorded flags."""
    if name == "M10":
        return _TABLE1_SPECS[name], partial(_projective_line_gens, 3, 2, "M10")
    if name == "C7:C3":
        return _spec(name, 7, 21, soluble=True), _c7c3_gens
    m = _FAMILY_RE.match(name)
    if not m:
        raise ValueError(f"unknown group name: {name!r}")
    family, n = m.group(1), int(m.group(2))
    if family == "S":
        if n < 1:
            raise ValueError("S:n needs n >= 1")
        flags = {"soluble": True} if n <= 4 else {"soluble": False, "simple": False}
        spec, gens = _spec(name, n, factorial(n), **flags), partial(_sym_gens, n)
    elif family == "A":
        if n < 3:
            raise ValueError("A:n needs n >= 3")
        flags = {"soluble": True} if n <= 4 else {"soluble": False, "simple": True}
        spec, gens = _spec(name, n, factorial(n) // 2, **flags), partial(_alt_gens, n)
    elif family == "C":
        if n < 1:
            raise ValueError("C:n needs n >= 1")
        spec, gens = _spec(name, n, n, soluble=True), partial(_cyclic_gens, n)
    elif family == "D":
        if n < 6 or n % 2:
            raise ValueError("D:m needs an even order m >= 6")
        spec, gens = _spec(name, n // 2, n, soluble=True), partial(_dihedral_gens, n)
    elif family == "SD":
        if n < 16 or n & (n - 1):
            raise ValueError("SD:m needs a 2-power order m >= 16")
        spec, gens = _spec(name, n // 2, n, soluble=True), partial(_semidihedral_gens, n)
    elif family == "Q":
        if n < 8 or n & (n - 1):
            raise ValueError("Q:m needs a 2-power order m >= 8")
        spec, gens = _spec(name, n, n, soluble=True), partial(_quaternion_gens, n)
    elif family == "SL2":
        if not is_prime(n) or n < 5:
            raise ValueError("SL2:p needs a prime p >= 5")
        spec = _spec(name, n * n - 1, n * (n * n - 1), soluble=False, simple=False)
        gens = partial(_sl2_gens, n)
    else:
        q = n
        p, k = prime_power(q)
        if family == "PSL2":
            order = q * (q * q - 1) // (2 if p > 2 else 1)
            flags = {"soluble": False, "simple": True, "trivial_fitting": True}
        elif family == "PGL2":
            order = q * (q * q - 1)
            # even q: every scalar is a square, so PGL coincides with PSL
            flags = {"soluble": False, "simple": p == 2, "trivial_fitting": True}
        else:
            if k == 1:
                raise ValueError("PGammaL2:q needs a proper prime power q")
            order = q * (q * q - 1) * k
            flags = {"soluble": False, "simple": False, "trivial_fitting": True}
        if q <= 3:  # PSL2:2 = PGL2:2 = S3, PSL2:3 = A4 and PGL2:3 = S4
            flags = {"soluble": True, "simple": False, "trivial_fitting": False}
        spec = _spec(name, q + 1, order, **flags)
        gens = partial(_projective_line_gens, p, k, family)
    return _TABLE1_SPECS.get(name, spec), gens


def _one_based(images0: list[int]) -> Permutation:
    return Permutation([i + 1 for i in images0])


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


def _projective_line_gens(p: int, k: int, family: str) -> list[Permutation]:
    """Generators of PSL2, PGL2, PGammaL2 or M10 on the 1 + q points of the
    projective line over GF(q): point 1 is infinity, point 2 + z the field
    element z. With exp = [g^0, ..., g^(q-2)] and log its inverse, all mod
    m = q - 1: scaling by g^j sends z to exp[log z + j], -1/z is
    exp[h - log z] with h = log(-1), Frobenius is exp[p log z], and z + 1
    adds one to the lowest base-p digit of z."""
    exp = power_table(p, k)
    q = p**k
    m = q - 1
    log = [0] * q
    for i, z in enumerate(exp):
        log[z] = i

    def on_logs(f: Callable[[int], int]) -> Permutation:
        # infinity and 0 fixed, z != 0 sent to exp[f(log z)]
        return _one_based([0, 1] + [1 + exp[f(log[z]) % m] for z in range(1, q)])

    shift = _one_based([0] + [1 + z - z % p + (z + 1) % p for z in range(q)])
    h = m // 2 if p > 2 else 0
    neg_recip = _one_based([1, 0] + [1 + exp[(h - log[z]) % m] for z in range(1, q)])
    psl = [shift, on_logs(lambda i: i + (2 if p > 2 else 1)), neg_recip]
    if family == "PSL2":
        return psl
    if family == "M10":
        # PGammaL(2,9)/PSL(2,9) is C2 x C2, and M10 is the overgroup of index 2
        # in the diagonal-times-field coset: Frobenius, then scaling by g
        return psl + [on_logs(lambda i: p * i + 1)]
    pgl = [shift, on_logs(lambda i: i + 1), neg_recip]
    return pgl if family == "PGL2" else pgl + [on_logs(lambda i: p * i)]


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
            G = PermGroup(_parse(spec.name)[1](), cap)
        _validate_build(spec, G)
    _BUILD_CACHE[key] = G
    return G


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
