"""Validated inverse systems (towers) of finite groups.

A tower is a list of levels G_1, ..., G_D with verified surjective
connecting homomorphisms G_{k+1} -> G_k.  Constructors for the built-in
families record the metadata the levels cannot give: the family, its flags
and its dimension estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import order_cap
from .errors import (
    CapExceeded,
    DepthMismatch,
    OutOfRange,
    PrimeOverlap,
    RelationCheckFailed,
    SpecError,
    WrongShape,
)
from .groups import (
    FiniteGroup,
    Homomorphism,
    _is_int,
    _is_int_list,
    box_map,
    cyclic,
    dihedral,
    direct_product,
    generate_from,
    load_group_json,
    table_from_rows,
)


@dataclass(frozen=True)
class TowerFlags:
    abelian: bool = False
    nilpotent: bool = False
    virtually_zp: bool = False
    finitely_generated: bool = False
    center_trivial_expected: bool = False

    def as_dict(self) -> dict:
        return {
            "abelian": self.abelian,
            "nilpotent": self.nilpotent,
            "virtuallyZp": self.virtually_zp,
            "finitelyGenerated": self.finitely_generated,
            "centerTrivialExpected": self.center_trivial_expected,
        }


@dataclass(frozen=True)
class TowerMeta:
    """What a tower's levels cannot give; `truncate` shares it, so it is frozen."""

    family_name: str
    flags: TowerFlags
    dim_estimate: Optional[int] = None


@dataclass
class Tower:
    """Levels plus connecting maps; maps[k] sends levels[k+1] onto levels[k].

    An explicit tower refuses, at construction, maps that are too few or too
    many, that do not run between adjacent levels or that are not onto, an
    abelian flag over a level that is not abelian (exact: the limit is
    abelian exactly when every level is), and, on one prime p, a
    dim_estimate d unless each level is p^d times the order of the level
    below.
    """

    levels: list[FiniteGroup]
    maps: list[Homomorphism]
    meta: TowerMeta
    factors: Optional[list["Tower"]] = None  # set for coprime product towers

    def __post_init__(self):
        if self.factors is not None:
            return
        if len(self.maps) != len(self.levels) - 1:
            raise WrongShape("need exactly depth-1 connecting maps")
        for k, hom in enumerate(self.maps, 1):
            if hom.source is not self.levels[k] or hom.target is not self.levels[k - 1]:
                raise WrongShape(f"connecting map {k} does not send level {k + 1} to level {k}")
            if not hom.surjective:
                raise WrongShape(f"connecting map {k} is not surjective")
        if self.meta.flags.abelian:
            for k, G in enumerate(self.levels, 1):
                if not G.is_abelian():
                    raise WrongShape(f"level {k} is not abelian, but the tower is flagged abelian")
        if self.meta.dim_estimate is not None and len(self.primes) == 1:
            step = next(iter(self.primes)) ** self.meta.dim_estimate
            for k in range(1, len(self.levels)):
                if self.levels[k].order != self.levels[k - 1].order * step:
                    raise WrongShape(f"level {k + 1} is not {step} times the order of level {k}"
                                     f" (dim_estimate {self.meta.dim_estimate})")

    @property
    def depth(self) -> int:
        return self.factors[0].depth if self.factors is not None else len(self.levels)

    @property
    def primes(self) -> frozenset[int]:
        parts = self.factors if self.factors is not None else self.levels
        return frozenset().union(*(part.primes for part in parts))

    def level(self, k: int) -> FiniteGroup:
        """1-based level access; coprime product towers have no level groups."""
        if not self.levels:
            raise CapExceeded(
                "tower is structural; explicit level groups were not materialized"
            )
        if not 1 <= k <= len(self.levels):
            raise OutOfRange(f"level {k} outside 1..{len(self.levels)}")
        return self.levels[k - 1]

    def map_down(self, k: int) -> Homomorphism:
        """The connecting map level k+1 -> level k (1-based)."""
        if not 1 <= k <= len(self.maps):
            raise OutOfRange(f"connecting map {k} outside 1..{len(self.maps)}")
        return self.maps[k - 1]


def truncate(t: Tower, depth: int) -> Tower:
    """Tower restricted to its first `depth` levels (shares level objects)."""
    if not (1 <= depth <= t.depth):
        raise WrongShape(f"cannot truncate depth-{t.depth} tower to {depth}")
    factors = None if t.factors is None else [truncate(f, depth) for f in t.factors]
    return Tower(t.levels[:depth], t.maps[: depth - 1], t.meta, factors=factors)


# -- families ------------------------------------------------------------------

def _reduction_maps(levels: list[FiniteGroup], boxes: list[tuple[int, ...]]) -> list[Homomorphism]:
    """Connecting maps of a coordinate family: level k's elements are the
    row-major indices of the box boxes[k-1], and the map down reduces each
    coordinate a < h mod the lower bound b: np.resize repeats 0..b-1 to h."""
    return [Homomorphism(levels[k], levels[k - 1],
                         box_map([np.resize(np.arange(b), h) for h, b in zip(hi, lo)], lo))
            for k, (lo, hi) in enumerate(zip(boxes, boxes[1:]), 1)]


def make_zp(p: int, depth: int) -> Tower:
    """Levels Z/p^k with reduction maps; the p-adic procyclic family."""
    _check_order({"family": "zp", "p": p, "depth": depth})
    levels = [cyclic(p**k) for k in range(1, depth + 1)]
    maps = _reduction_maps(levels, [(p**k,) for k in range(1, depth + 1)])
    flags = TowerFlags(abelian=True, nilpotent=True, virtually_zp=True, finitely_generated=True)
    return Tower(levels, maps, TowerMeta(family_name="zp", flags=flags, dim_estimate=1))


def _abelian_power_group(p: int, k: int, n: int) -> FiniteGroup:
    """(Z/p^k)^n via iterated direct products (row-major index layout)."""
    G = cyclic(p**k)
    for _ in range(n - 1):
        G = direct_product(G, cyclic(p**k))
    G.name = f"(Z{p**k})^{n}"
    return G


def make_zpn(p: int, n: int, depth: int) -> Tower:
    """Levels (Z/p^k)^n with componentwise reduction maps."""
    _check_order({"family": "zpn", "p": p, "n": n, "depth": depth})
    levels = [_abelian_power_group(p, k, n) for k in range(1, depth + 1)]
    maps = _reduction_maps(levels, [(p**k,) * n for k in range(1, depth + 1)])
    flags = TowerFlags(
        abelian=True, nilpotent=True, virtually_zp=(n == 1), finitely_generated=True
    )
    return Tower(levels, maps, TowerMeta(family_name="zpn", flags=flags, dim_estimate=n))


def _heisenberg_group(p: int, k: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over Z/p^k; entries (a, b, c) with
    c the corner, multiplied by (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')."""
    m = p**k
    A, B, C = np.ogrid[:m, :m, :m]

    def row(a: int, b: int) -> np.ndarray:  # left multiplication by (a, b, 0)
        return (((a + A) % m) * m * m + ((b + B) % m) * m + (C + a * B) % m).ravel()

    gens = [m * m, m]  # (1, 0, 0) and (0, 1, 0)
    return FiniteGroup(
        table_from_rows(np.array([row(1, 0), row(0, 1)]), gens, 0), generators=gens,
        labels=lambda i: f"({i // (m * m)},{(i // m) % m},{i % m})", name=f"Heis(Z{m})",
    )


def make_heisenberg(p: int, depth: int) -> Tower:
    """Levels of upper unitriangular 3x3 matrices over Z/p^k."""
    _check_order({"family": "heisenberg", "p": p, "depth": depth})
    levels = [_heisenberg_group(p, k) for k in range(1, depth + 1)]
    maps = _reduction_maps(levels, [(p**k,) * 3 for k in range(1, depth + 1)])
    flags = TowerFlags(nilpotent=True, finitely_generated=True)
    return Tower(levels, maps, TowerMeta(family_name="heisenberg", flags=flags, dim_estimate=3))


def make_dihedral2(depth: int) -> Tower:
    """Pro-2 dihedral levels Z/2^k x| inversion; maps kill the top rotation."""
    _check_order({"family": "dihedral2", "depth": depth})
    levels = [dihedral(2**k) for k in range(1, depth + 1)]
    # element f * 2^k + r of D(2^k) is s^f r^r
    maps = _reduction_maps(levels, [(2, 2**k) for k in range(1, depth + 1)])
    flags = TowerFlags(virtually_zp=True, finitely_generated=True, center_trivial_expected=True)
    return Tower(levels, maps, TowerMeta(family_name="dihedral2", flags=flags, dim_estimate=1))


# -- the poly-procyclic family driven by the matrix A = [[0,1],[4,2]] ---------

PIRIM_A = ((0, 1), (4, 2))


def _mat_mul(x, y, mod: int | None = None):
    out = [[0, 0], [0, 0]]
    for i in range(2):
        for j in range(2):
            v = x[i][0] * y[0][j] + x[i][1] * y[1][j]
            out[i][j] = v % mod if mod else v
    return tuple(tuple(r) for r in out)


def _mat_pow(x, e: int, mod: int | None = None):
    result = ((1, 0), (0, 1))
    base = tuple(tuple(r) for r in x)
    while e:
        if e & 1:
            result = _mat_mul(result, base, mod)
        base = _mat_mul(base, base, mod)
        e >>= 1
    return result


def pirim_base_power() -> tuple[int, tuple[tuple[int, int], tuple[int, int]]]:
    """Least m >= 1 with A^m = I mod 3, and the exact integer matrix A^m."""
    m = 1
    acc = PIRIM_A
    while _mat_pow(PIRIM_A, m, 3) != ((1, 0), (0, 1)):
        m += 1
        if m > 1000:
            raise RelationCheckFailed("no power of A lands in the congruence subgroup")
    return m, _mat_pow(PIRIM_A, m)


def _pirim_group(k: int, A1) -> FiniteGroup:
    """(Z/3^k)^2 x| <t> with t acting by A1 mod 3^k."""
    m = 3**k
    powers = [((1, 0), (0, 1))]  # A1^j mod m up to the order of A1
    while (nxt := _mat_mul(powers[-1], A1, m)) != powers[0]:
        powers.append(nxt)
        if len(powers) > 4 * m * m:
            raise RelationCheckFailed("matrix order runaway")
    t_order = len(powers)
    W0, W1, L = np.ogrid[:m, :m, :t_order]

    def row(v0: int, v1: int, j: int) -> np.ndarray:
        # (v, t^j)(w, t^l) = (v + B^j w, t^(j+l)), element (v0*m + v1)*|t| + j
        B = powers[j]
        u0 = (v0 + B[0][0] * W0 + B[0][1] * W1) % m
        u1 = (v1 + B[1][0] * W0 + B[1][1] * W1) % m
        return ((u0 * m + u1) * t_order + (j + L) % t_order).ravel()

    coords = [(1, 0, 0), (0, 1, 0)] + ([(0, 0, 1)] if t_order > 1 else [])
    gens = [(v0 * m + v1) * t_order + j for v0, v1, j in coords]
    table = table_from_rows(np.array([row(*c) for c in coords]), gens, 0)

    def label(i: int) -> str:
        vj, j = divmod(i, t_order)
        return f"({vj // m},{vj % m};t{j})"

    return FiniteGroup(table, generators=gens, labels=label, name=f"Pirim(3^{k})")


def make_pirim(depth: int) -> Tower:
    """Poly-procyclic pro-3 tower (Z/3^k)^2 x| <t>, t acting by a fixed power
    of the matrix A = [[0,1],[4,2]] chosen inside the first congruence subgroup."""
    _check_order({"family": "pirim", "depth": depth})
    _, A1 = pirim_base_power()
    if _mat_pow(A1, 1, 3) != ((1, 0), (0, 1)):
        raise RelationCheckFailed("A1 is not in the first congruence subgroup")
    det = PIRIM_A[0][0] * PIRIM_A[1][1] - PIRIM_A[0][1] * PIRIM_A[1][0]
    if det != -4:
        raise RelationCheckFailed(f"det(A) = {det}, expected -4")
    levels = [_pirim_group(k, A1) for k in range(1, depth + 1)]
    # level k is (Z/3^k)^2 x| <t>, so |t| = |G_k| / 9^k
    maps = _reduction_maps(
        levels, [(3**k, 3**k, G.order // 9**k) for k, G in enumerate(levels, start=1)]
    )
    flags = TowerFlags(finitely_generated=True)
    return Tower(levels, maps, TowerMeta(family_name="pirim", flags=flags, dim_estimate=3))


# -- the Wilson pro-2 example ---------------------------------------------------

# V = {1, s1, s2, s3} is the Klein four group, element i of it written as i
# with XOR as the product; s_i negates every coordinate but the i-th
_WILSON_V_NAMES = ("1", "s1", "s2", "s3")
_WILSON_SIGMAS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def _wilson_level(k: int) -> tuple[FiniteGroup, list]:
    """Level k of the Wilson tower, generated inside (Z/2^k)^3 x| V with
    generators [x1, x2]; also returns the element list, in generate_from's
    BFS order."""
    mod = 2**k

    def mul(x, y):
        (v, s), (w, t) = x, y
        sv = _WILSON_SIGMAS[s]
        moved = tuple((v[i] + sv[i] * w[i]) % mod for i in range(3))
        return (moved, s ^ t)

    ident = ((0, 0, 0), 0)
    x1 = ((1, 0, 1), 1)
    x2 = ((0, 1, 0), 2)
    G, elements = generate_from(
        [x1, x2], mul, ident,
        label=lambda e: f"({e[0][0]},{e[0][1]},{e[0][2]};{_WILSON_V_NAMES[e[1]]})",
        name=f"W(2^{k})",
    )
    if len(elements) != 2 ** (3 * k - 1):
        raise RelationCheckFailed(
            f"wilson level {k} has order {len(elements)}, expected {2**(3*k-1)}"
        )

    def inv(e):
        v, s = e
        sv = _WILSON_SIGMAS[s]
        return (tuple((-sv[i] * v[i]) % mod for i in range(3)), s)

    def conj(a, b):  # a^b = b^-1 a b
        return mul(mul(inv(b), a), b)

    a1 = mul(x1, x1)
    a2 = mul(x2, x2)
    x1x2 = mul(x1, x2)
    a3 = mul(x1x2, x1x2)
    # presentation relations, checked at every level
    for name, (sq, other) in {
        "(x1^2)^x2 = x1^-2": (a1, x2),
        "(x2^2)^x1 = x2^-2": (a2, x1),
        "((x1 x2)^2)^x1 = (x1 x2)^-2": (a3, x1),
    }.items():
        if conj(sq, other) != inv(sq):
            raise RelationCheckFailed(f"wilson relation failed at level {k}: {name}")
    for i, a in enumerate((a1, a2, a3)):
        expected = tuple(2 % mod if j == i else 0 for j in range(3))
        if a != (expected, 0):
            raise RelationCheckFailed(f"a{i+1} != 2e{i+1} at level {k}")
    return G, elements


def wilson_elements(G: FiniteGroup) -> tuple[list[int], list[int]]:
    """The elements [x1, x2, x1 x2] of a Wilson level, whose generators are
    [x1, x2] in generate_from's seed order, and their squares [a1, a2, a3]."""
    x1, x2 = G.generators
    xs = [x1, x2, int(G.mul(x1, x2))]
    return xs, [int(G.mul(x, x)) for x in xs]


def make_wilson(depth: int) -> Tower:
    """Pro-2 tower of the two-generator group with abelianized squares;
    levels are built by explicit embedding into (Z/2^k)^3 x| V and the
    defining relations are re-verified at every level."""
    _check_order({"family": "wilson", "depth": depth})
    levels = []
    elements_per_level = []
    for k in range(1, depth + 1):
        G, elements = _wilson_level(k)
        levels.append(G)
        elements_per_level.append(elements)
    maps = []
    for k in range(1, depth):
        lo = 2**k
        lo_index = {e: i for i, e in enumerate(elements_per_level[k - 1])}
        mapping = [
            lo_index[(tuple(c % lo for c in v), s)] for (v, s) in elements_per_level[k]
        ]
        maps.append(Homomorphism(levels[k], levels[k - 1], mapping))
    flags = TowerFlags(finitely_generated=True)
    return Tower(levels, maps, TowerMeta(family_name="wilson", flags=flags, dim_estimate=3))


# -- products -------------------------------------------------------------------

def make_product(towers: Sequence[Tower]) -> Tower:
    """Levelwise direct product of towers over pairwise disjoint prime sets.

    The product is structural at every cap: it keeps its factors and has no
    level groups or maps (`Tower.level` raises CapExceeded), because every
    subgroup of a coprime product splits and its lattice is built from the
    factor lattices.
    """
    towers = list(towers)
    if len(towers) < 2:
        raise WrongShape("product needs at least two factors")
    depth = towers[0].depth
    for t in towers[1:]:
        if t.depth != depth:
            raise DepthMismatch(
                f"factor depths differ: {[t.depth for t in towers]}"
            )
    seen: set[int] = set()
    for t in towers:
        if seen & t.primes:
            raise PrimeOverlap(f"shared primes {sorted(seen & t.primes)}")
        seen |= t.primes

    flags = TowerFlags(
        abelian=all(t.meta.flags.abelian for t in towers),
        nilpotent=all(t.meta.flags.nilpotent for t in towers),
        virtually_zp=False,
        finitely_generated=all(t.meta.flags.finitely_generated for t in towers),
    )
    return Tower([], [], TowerMeta(family_name="product", flags=flags), factors=towers)


def direct_product_tower(t1: Tower, t2: Tower) -> Tower:
    """Levelwise direct product without the disjoint-prime requirement.

    Same-prime products do not satisfy the coprime lattice factorization, so
    the result carries no `factors` shortcut and is analyzed explicitly.
    """
    if t1.depth != t2.depth:
        raise DepthMismatch("factor depths differ")
    levels = [direct_product(t1.level(k), t2.level(k)) for k in range(1, t1.depth + 1)]
    maps = [Homomorphism(levels[k], levels[k - 1],
                         box_map([f.map, g.map], (f.target.order, g.target.order)))
            for k, (f, g) in enumerate(zip(t1.maps, t2.maps), 1)]
    flags = TowerFlags(
        abelian=t1.meta.flags.abelian and t2.meta.flags.abelian,
        nilpotent=t1.meta.flags.nilpotent and t2.meta.flags.nilpotent,
        finitely_generated=t1.meta.flags.finitely_generated
        and t2.meta.flags.finitely_generated,
    )
    return Tower(levels, maps, TowerMeta(family_name="directprod", flags=flags))


def custom_tower(levels: list[FiniteGroup], mappings: list[Sequence[int]]) -> Tower:
    """Build a tower from explicit groups and connecting maps (verified)."""
    if len(mappings) != len(levels) - 1:
        raise WrongShape("need exactly depth-1 connecting maps")
    homs = [Homomorphism(levels[k + 1], levels[k], m) for k, m in enumerate(mappings)]
    return Tower(levels, homs, TowerMeta(family_name="custom", flags=TowerFlags()))


# -- the built-in families -------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """A built-in family: its integer parameters besides depth, in the
    constructor's order; its default depth; the (prime, exponent) of its top
    order, from the parameters and the depth; and its constructor."""

    params: tuple[str, ...]
    default_depth: int
    order: Callable[..., tuple[int, int]]
    make: Callable[..., Tower]

    def args(self, spec: dict) -> list[int]:
        """The parameters of a spec, then its depth, in the constructor's order."""
        return [spec[key] for key in self.params] + [spec["depth"]]


FAMILIES = {
    "zp": Family(("p",), 4, lambda p, d: (p, d), make_zp),
    "zpn": Family(("p", "n"), 4, lambda p, n, d: (p, n * d), make_zpn),
    "heisenberg": Family(("p",), 2, lambda p, d: (p, 3 * d), make_heisenberg),
    "dihedral2": Family((), 4, lambda d: (2, d + 1), make_dihedral2),
    "pirim": Family((), 2, lambda d: (3, 3 * d - 1), make_pirim),
    "wilson": Family((), 3, lambda d: (2, 3 * d - 1), make_wilson),
}


# -- tower spec JSON -------------------------------------------------------------

def parse_tower_spec(doc: dict | str) -> dict:
    """Validate a tower spec document; returns the normalized spec dict.

    Raises SpecError listing JSON-pointer paths of offending fields, or
    CapExceeded when the parse-time order estimate is already above cap.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise SpecError("tower spec must be a JSON object", ["/"])
    family = doc.get("family")
    if family not in (*FAMILIES, "product", "custom"):
        raise SpecError(f"unknown family {family!r}", ["/family"])

    if family == "product":
        factors = doc.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise SpecError("product needs a list of >= 2 factors", ["/factors"])
        parsed = [_nested(f"/factors/{i}", parse_tower_spec, f) for i, f in enumerate(factors)]
        depths = {f["depth"] for f in parsed}
        if len(depths) > 1:
            raise SpecError("product factors must share a depth", ["/factors"])
        primes: set[int] = set()
        for i, f in enumerate(parsed):
            fam_primes = _spec_primes(f)
            if primes & fam_primes:
                raise PrimeOverlap(
                    f"factors share primes {sorted(primes & fam_primes)} "
                    f"(at /factors/{i})"
                )
            primes |= fam_primes
        return {"family": "product", "factors": parsed, "depth": parsed[0]["depth"]}

    if family == "custom":
        if not isinstance(doc.get("levels"), list) or not doc["levels"]:
            raise SpecError("custom tower needs levels", ["/levels"])
        if not isinstance(doc.get("maps"), list):
            raise SpecError("custom tower needs maps", ["/maps"])
        for k, m in enumerate(doc["maps"]):
            if not _is_int_list(m):
                raise SpecError("a connecting map must be a list of integers", [f"/maps/{k}"])
        return {"family": "custom", "levels": doc["levels"], "maps": doc["maps"],
                "depth": len(doc["levels"])}

    params = FAMILIES[family].params
    depth = doc.get("depth", FAMILIES[family].default_depth)
    _check_depth(depth)
    spec = {"family": family, "depth": depth}
    cap = order_cap()
    if "p" in params:
        p = doc.get("p")
        if not _is_int(p) or p < 2:
            raise SpecError("p must be a prime", ["/p"])
        if p > cap:  # the order is at least p; checked before the primality test
            raise CapExceeded(f"{family} needs order at least p, above cap {cap}")
        if p >= PRIME_TEST_BOUND:
            raise SpecError(f"p must be below {PRIME_TEST_BOUND}", ["/p"])
        if _not_prime(p):
            raise SpecError("p must be a prime", ["/p"])
        spec["p"] = p
    if "n" in params:
        n = doc.get("n")
        if not _is_int(n) or n < 1:
            raise SpecError("n must be a positive integer", ["/n"])
        spec["n"] = n

    _check_order(spec)
    return spec


# Miller-Rabin with the 13 prime bases 2..41 decides primality exactly below
# PRIME_TEST_BOUND (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)).  A group of order p that large could
# not be tabulated anyway.
PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _not_prime(p: int) -> bool:
    """Whether 2 <= p < PRIME_TEST_BOUND is composite."""
    if p in PRIME_TEST_BASES:
        return False
    if any(p % a == 0 for a in PRIME_TEST_BASES):
        return True
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in PRIME_TEST_BASES:  # a witnesses p composite unless a^d = 1 or some a^(d 2^r) = -1
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return True
    return False


def _nested(at: str, read: Callable, doc):
    """read(doc) for the document at JSON pointer `at`, its errors' paths prefixed."""
    try:
        return read(doc)
    except SpecError as exc:
        raise SpecError(str(exc), [at if p == "/" else at + p for p in exc.paths]) from None


def _spec_primes(spec: dict) -> set[int]:
    """The primes of a parsed spec: a family's is the base of its order."""
    fam = spec["family"]
    if fam == "product":
        return set().union(*(_spec_primes(f) for f in spec["factors"]))
    if fam == "custom":
        return set()
    family = FAMILIES[fam]
    return {family.order(*family.args(spec))[0]}


def _check_depth(depth) -> None:
    if not _is_int(depth) or depth < 1:
        raise SpecError("depth must be a positive integer", ["/depth"])


def _check_order(spec: dict) -> None:
    """Raise SpecError when the depth of a family spec is not a positive
    integer and CapExceeded when its top level is above the order cap."""
    cap = order_cap()
    _check_depth(spec["depth"])
    family = FAMILIES[spec["family"]]
    base, exponent = family.order(*family.args(spec))
    # the order is at least 2^exponent and at least base: an exponent of
    # cap.bit_length() or more, or a base above the cap, is found over the cap
    # without computing the power or printing the base, which can be too
    # large to print; the power itself is printed as base^exponent
    if exponent >= cap.bit_length():
        raise CapExceeded(
            f"{spec['family']} needs order at least 2^{cap.bit_length()}, above cap {cap}"
        )
    if base > cap:  # only p: a base of 2 or 3 above the cap fails the exponent test
        raise CapExceeded(f"{spec['family']} needs order at least p, above cap {cap}")
    if base**exponent > cap:
        raise CapExceeded(
            f"{spec['family']} at depth {spec['depth']} needs order {base}^{exponent}, "
            f"above cap {cap}"
        )


def build_tower(spec: dict) -> Tower:
    """Construct the tower described by a parsed spec."""
    fam = spec["family"]
    if fam == "product":
        return make_product([_nested(f"/factors/{i}", build_tower, f)
                             for i, f in enumerate(spec["factors"])])
    if fam == "custom":
        levels = [_nested(f"/levels/{i}", load_group_json, g)
                  for i, g in enumerate(spec["levels"])]
        return custom_tower(levels, spec["maps"])
    if fam not in FAMILIES:
        raise SpecError(f"unknown family {fam!r}", ["/family"])
    family = FAMILIES[fam]
    return family.make(*family.args(spec))
