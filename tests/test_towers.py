"""Tower constructor tests: every fact a tower declares is checked when it is built."""

import dataclasses
import math
import time

import pytest

from conftest import BUILTIN_NAMES, TOWER_FACTORIES, cached_tower, valid_products
from subgroup_atlas.errors import (
    CapExceeded,
    DepthMismatch,
    OutOfRange,
    PrimeOverlap,
    SpecError,
    WrongShape,
)
from subgroup_atlas.groups import Homomorphism, all_subgroups, closure, cyclic, frattini, quotient
from subgroup_atlas.classify import analyze_tower
from subgroup_atlas.lattice import build_lattice_tower
from subgroup_atlas.report import analysis_report
from subgroup_atlas.towers import (
    FAMILIES,
    PRIME_TEST_BOUND,
    Tower,
    TowerFlags,
    TowerMeta,
    build_tower,
    custom_tower,
    direct_product_tower,
    make_dihedral2,
    make_heisenberg,
    make_pirim,
    make_product,
    make_wilson,
    make_zp,
    make_zpn,
    parse_tower_spec,
    pirim_base_power,
    truncate,
    wilson_elements,
    _mat_pow,
    _not_prime,
    PIRIM_A,
)


def test_zp_basics():
    t = make_zp(2, 3)
    assert [g.order for g in t.levels] == [2, 4, 8]
    t = make_zp(3, 4)
    assert [len(all_subgroups(g)) for g in t.levels] == [2, 3, 4, 5]
    t = make_zp(5, 2)
    assert t.map_down(1).apply(1) == 1  # 1 mod 25 -> 1 mod 5


def test_zp_cap(monkeypatch):
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", "4")
    with pytest.raises(CapExceeded):
        make_zp(2, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_zp(2, 20000),
        lambda: make_zpn(2, 3, 20000),
        lambda: make_heisenberg(2, 20000),
        lambda: make_dihedral2(20000),
        lambda: make_pirim(20000),
        lambda: make_wilson(5000),
    ],
    ids=["zp", "zpn", "heisenberg", "dihedral2", "pirim", "wilson"],
)
def test_constructor_far_above_cap_raises_quickly(build):
    # the top order has thousands of digits, too many to print
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        build()
    assert time.perf_counter() - start < 1.0


HUGE_P = 10**4400 + 1  # more digits than an int may print


@pytest.mark.parametrize(
    "cap,build",
    [
        (None, lambda: make_zp(HUGE_P, 1)),
        (None, lambda: make_zpn(HUGE_P, 1, 1)),
        (None, lambda: make_heisenberg(10**1500, 1)),  # order p^3 would have 4,500 digits
        ("1", lambda: make_dihedral2(1)),
        ("2", lambda: make_pirim(1)),
        ("1", lambda: make_wilson(1)),
    ],
    ids=["zp", "zpn", "heisenberg", "dihedral2", "pirim", "wilson"],
)
def test_constructor_with_base_above_cap_raises_cap_exceeded(cap, build, monkeypatch):
    # neither the base nor the order is printed in the message
    if cap is not None:
        monkeypatch.setenv("SUBGROUP_ATLAS_CAP", cap)
    with pytest.raises(CapExceeded, match=r"needs order at least .*, above cap \d+$"):
        build()


def test_order_just_below_the_digit_limit_is_not_printed(monkeypatch):
    # 3^9500 has 4,533 digits, too many to print; it passes the exponent
    # and base tests of a cap with 3,001 digits
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", str(10**3000))
    with pytest.raises(CapExceeded, match=r"needs order 3\^9500, above cap"):
        make_zp(3, 9500)


@pytest.mark.parametrize(
    "build",
    [
        lambda depth: make_zp(2, depth),
        lambda depth: make_zpn(2, 2, depth),
        lambda depth: make_heisenberg(3, depth),
        make_dihedral2,
        make_pirim,
        make_wilson,
    ],
    ids=["zp", "zpn", "heisenberg", "dihedral2", "pirim", "wilson"],
)
@pytest.mark.parametrize("depth", [0, -1])
def test_constructor_rejects_depth_below_one(build, depth):
    with pytest.raises(SpecError, match="depth must be a positive integer") as err:
        build(depth)
    assert err.value.paths == ["/depth"]


FAMILY_DOCS = {"zp": {"p": 3}, "zpn": {"p": 2, "n": 2}, "heisenberg": {"p": 2}}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_table_matches_constructors(family):
    # every level's order is base^exponent of the table at that depth, and
    # the family's prime is the base
    row = FAMILIES[family]
    for depth in range(1, row.default_depth + 1):
        spec = parse_tower_spec({"family": family, "depth": depth, **FAMILY_DOCS.get(family, {})})
        base, _ = row.order(*row.args(spec))
        t = build_tower(spec)
        assert t.primes == {base}
        for k in range(1, depth + 1):
            assert t.level(k).order == base ** row.order(*row.args({**spec, "depth": k}))[1]


def test_zpn_basics():
    t = make_zpn(3, 2, 2)
    assert [g.order for g in t.levels] == [9, 81]
    assert len(all_subgroups(t.level(1))) == 6
    t2 = make_zpn(2, 2, 3)
    assert len(all_subgroups(t2.level(1))) == 5  # Klein four


def test_heisenberg_basics():
    t = make_heisenberg(3, 2)
    assert [g.order for g in t.levels] == [27, 729]
    assert len(all_subgroups(t.level(1))) == 19
    # connecting map is entrywise reduction
    hom = t.map_down(1)
    G2 = t.level(2)
    # element (a,b,c) = (4,7,2) mod 9 reduces to (1,1,2) mod 3
    i = 4 * 81 + 7 * 9 + 2
    assert hom.apply(i) == 1 * 9 + 1 * 3 + 2
    assert make_heisenberg(2, 1).level(1).order == 8


def test_dihedral2_basics():
    t = make_dihedral2(4)
    assert [g.order for g in t.levels] == [4, 8, 16, 32]
    assert len(all_subgroups(t.level(3))) == 19
    # rotation thread has constant index 2
    for k in range(1, 5):
        assert t.level(k).generators[0] == 1  # the rotation comes first
        Z = closure(t.level(k), t.level(k).generators[:1])
        assert t.level(k).order // Z.order == 2


def test_wilson_orders_and_relations():
    t = cached_tower("wilson(3)")
    assert [g.order for g in t.levels] == [4, 32, 256]
    # a3 = (x1 x2)^2 = (0, 0, 2) at every level with nontrivial coordinates
    for k in (2, 3):
        G = t.level(k)
        (x1, x2, _), (_, _, a3) = wilson_elements(G)
        assert (G.element_label(x1), G.element_label(x2)) == ("(1,0,1;s1)", "(0,1,0;s2)")
        assert G.element_label(a3) == "(0,0,2;1)"


def test_wilson_frattini_equals_a_image():
    t = cached_tower("wilson(3)")
    for k in (2, 3):
        G = t.level(k)
        A = closure(G, wilson_elements(G)[1])
        assert frattini(G).bits == A.bits
        Q, _ = quotient(G, A)
        assert Q.order == 4
        assert all(Q.mul(g, g) == Q.identity for g in range(4))  # Klein


def test_pirim_power_choice():
    m, A1 = pirim_base_power()
    assert m == 8
    ident = ((1, 0), (0, 1))
    assert _mat_pow(PIRIM_A, m, 3) == ident
    for j in range(1, m):
        assert _mat_pow(PIRIM_A, j, 3) != ident
    det = PIRIM_A[0][0] * PIRIM_A[1][1] - PIRIM_A[0][1] * PIRIM_A[1][0]
    assert det == -4


def test_pirim_tower():
    t = cached_tower("pirim(2)")
    assert [g.order for g in t.levels] == [9, 243]
    assert pirim_base_power()[0] == 8
    assert [G.order // 9**k for k, G in enumerate(t.levels, start=1)] == [1, 3]  # |t|
    assert t.level(1).is_abelian()


def test_product_basics():
    t = make_product([make_zp(2, 3), make_zp(3, 3)])
    lt = build_lattice_tower(t)
    assert lt.level_orders == [6, 36, 216]
    assert t.primes == frozenset({2, 3})
    assert lt.node_count(1) == 4  # coprime splitting 2*2
    with pytest.raises(CapExceeded):
        t.level(1)


def test_product_builds_no_product_group(monkeypatch):
    import subgroup_atlas.towers as towers_mod
    from subgroup_atlas.groups import Homomorphism

    factors = [make_zp(2, 4), make_zp(3, 4)]
    calls = {"direct_product": 0, "Homomorphism": 0}
    real_product, real_init = towers_mod.direct_product, Homomorphism.__init__

    def counted_product(*args, **kwargs):
        calls["direct_product"] += 1
        return real_product(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["Homomorphism"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(towers_mod, "direct_product", counted_product)
    monkeypatch.setattr(Homomorphism, "__init__", counted_init)
    t = make_product(factors)
    assert calls == {"direct_product": 0, "Homomorphism": 0}
    assert t.levels == [] and t.maps == []


def test_product_errors():
    with pytest.raises(PrimeOverlap):
        make_product([make_zp(2, 2), make_zp(2, 2)])
    with pytest.raises(DepthMismatch):
        make_product([make_zp(2, 2), make_zp(3, 3)])


def test_product_structural_above_cap():
    t = make_product([make_zp(2, 5), make_zp(3, 5), make_zp(5, 5)])
    assert t.levels == []  # not materialized
    assert t.depth == 5
    assert t.factors is not None
    with pytest.raises(CapExceeded):
        t.level(5)


def test_direct_product_tower_same_prime():
    t = direct_product_tower(make_zp(2, 2), make_dihedral2(2))
    assert [g.order for g in t.levels] == [8, 32]
    assert t.map_down(1).surjective


@pytest.mark.parametrize("name", ["zp(2,3)", "zpn(2,2,4)", "dihedral2(4)"])
def test_a_map_with_one_wrong_image_is_refused_at_construction(name):
    # a built map is read-only, so a tower cannot be changed after it is
    # checked; the same fault in a new map is refused when the map is built
    t = TOWER_FACTORIES[name]()
    hom = t.map_down(2)
    with pytest.raises(ValueError):
        hom.map[3] = 0
    faulty = hom.map.copy()
    faulty[3] = (faulty[3] + 1) % t.level(2).order
    with pytest.raises(WrongShape, match="not a homomorphism"):
        custom_tower(t.levels[:3], [t.map_down(1).map, faulty])


def test_truncate_valid():
    t = make_dihedral2(4)
    t3 = truncate(t, 3)
    assert t3.depth == 3
    assert t3.level(3) is t.level(3)  # shares level objects
    assert t3.maps == t.maps[:2]


@pytest.mark.parametrize("name", list(TOWER_FACTORIES))
def test_dim_estimate_is_checked_when_a_tower_is_built(name):
    # each level is p^dim_estimate times the level below, in the tower and
    # in every truncation of it; one more or one less is refused
    t = TOWER_FACTORIES[name]()
    (p,), d = t.primes, t.meta.dim_estimate
    assert [G.order for G in t.levels] == [t.level(1).order * p ** (d * k) for k in range(t.depth)]
    assert [truncate(t, depth).depth for depth in range(1, t.depth + 1)] == list(
        range(1, t.depth + 1))
    # each build above passed the abelian flag check, which holds on the levels
    assert not t.meta.flags.abelian or all(G.is_abelian() for G in t.levels)
    for wrong in (d - 1, d + 1):
        meta = dataclasses.replace(t.meta, dim_estimate=wrong)
        with pytest.raises(WrongShape, match=rf"^level 2 is not {p ** wrong} times the order "
                                             rf"of level 1 \(dim_estimate {wrong}\)$"):
            Tower(t.levels, t.maps, meta)
        assert Tower(t.levels[:1], [], meta).depth == 1  # no step to check


def test_abelian_flag_over_a_non_abelian_level_is_refused():
    t = make_dihedral2(3)  # D(2) is the Klein four group, D(4) is not abelian
    meta = dataclasses.replace(t.meta, flags=TowerFlags(abelian=True))
    with pytest.raises(WrongShape, match=r"^level 2 is not abelian, but the tower is flagged "
                                         r"abelian$"):
        Tower(t.levels, t.maps, meta)
    assert Tower(t.levels[:1], [], meta).depth == 1


def _fresh(name: str, depth: int):
    """The tower a BUILTIN_NAMES name, or a product of them joined by "x",
    names, built anew at `depth`."""
    if "x" in name:
        return make_product([_fresh(part, depth) for part in name.split("x")])
    family, params = name.rstrip(")").split("(")
    return FAMILIES[family].make(*map(int, params.split(",")[:-1]), depth)


TRUNCATED = [(n, cached_tower(n)) for n in BUILTIN_NAMES] + valid_products()


@pytest.mark.parametrize("name,t", TRUNCATED, ids=[n for n, _ in TRUNCATED])
def test_truncation_reports_as_a_fresh_build(name, t):
    for d in range(2, t.depth):
        truncated = analysis_report(analyze_tower(truncate(t, d)))
        assert truncated == analysis_report(analyze_tower(_fresh(name, d)))


def test_tower_metadata_is_frozen():
    t = make_zp(2, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.meta.dim_estimate = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.meta.flags.abelian = False
    assert truncate(t, 1).meta is t.meta


def test_single_prime_exponent_growth():
    for name in ("zp(2,4)", "zpn(3,2,3)", "heisenberg(3,2)", "wilson(3)", "pirim(2)"):
        t = cached_tower(name)
        orders = [g.order for g in t.levels]
        assert all(orders[i] < orders[i + 1] for i in range(len(orders) - 1))
        assert all(orders[i + 1] % orders[i] == 0 for i in range(len(orders) - 1))


def test_parse_tower_spec():
    spec = parse_tower_spec({"family": "zp", "p": 2, "depth": 3})
    assert spec == {"family": "zp", "p": 2, "depth": 3}
    t = build_tower(spec)
    assert t.depth == 3

    with pytest.raises(PrimeOverlap):
        parse_tower_spec(
            {
                "family": "product",
                "factors": [
                    {"family": "zp", "p": 2, "depth": 2},
                    {"family": "zp", "p": 2, "depth": 2},
                ],
            }
        )
    with pytest.raises(CapExceeded):
        parse_tower_spec({"family": "wilson", "depth": 10})
    with pytest.raises(SpecError) as err:
        parse_tower_spec({"family": "zp", "p": 4, "depth": 2})
    assert "/p" in err.value.paths


def test_prime_test_matches_trial_division_below_1e5():
    limit = 10**5
    composite = [False, False] + [
        any(n % d == 0 for d in range(2, int(n**0.5) + 1)) for n in range(2, limit)
    ]
    assert [n for n in range(2, limit) if _not_prime(n) != composite[n]] == []


@pytest.mark.parametrize("n,factors", [
    (3825123056546413051, (149491, 747451, 34233211)),  # strong pseudoprime to bases 2..23
    (318665857834031151167461, (399165290221, 798330580441)),  # ... to bases 2..37
])
def test_strong_pseudoprimes_are_composite(n, factors):
    assert math.prod(factors) == n
    assert _not_prime(n)


def test_p_past_the_float_range_is_a_spec_error(monkeypatch):
    # int(p**0.5) raised OverflowError for p above 2^1024
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", str(10**400))
    with pytest.raises(SpecError, match=f"p must be below {PRIME_TEST_BOUND}") as err:
        parse_tower_spec({"family": "zp", "p": 10**350 + 1, "depth": 1})
    assert err.value.paths == ["/p"]
    with pytest.raises(SpecError) as err:
        parse_tower_spec({"family": "zpn", "p": PRIME_TEST_BOUND, "n": 1, "depth": 1})
    assert err.value.paths == ["/p"]


def test_large_prime_parses_quickly(monkeypatch):
    # trial division up to sqrt(2^61 - 1) took about 1.5e9 divisions
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", str(10**20))
    start = time.perf_counter()
    spec = parse_tower_spec({"family": "zp", "p": 2**61 - 1, "depth": 1})
    assert time.perf_counter() - start < 1.0
    assert spec == {"family": "zp", "depth": 1, "p": 2**61 - 1}
    with pytest.raises(SpecError) as err:
        parse_tower_spec({"family": "zp", "p": 2**61 + 1, "depth": 1})
    assert err.value.paths == ["/p"]


def test_parse_tower_spec_defaults():
    assert parse_tower_spec({"family": "wilson"})["depth"] == 3
    assert parse_tower_spec({"family": "zp", "p": 2})["depth"] == 4


def test_custom_tower():
    z4, z2 = cyclic(4), cyclic(2)
    t = custom_tower([z2, z4], [[0, 1, 0, 1]])
    assert t.depth == 2
    with pytest.raises(WrongShape):
        custom_tower([z2, z4], [[0, 0, 0, 0]])  # not surjective


def test_tower_refuses_a_map_that_is_not_onto():
    c4 = cyclic(4)
    doubling = Homomorphism(c4, c4, [0, 2, 0, 2])
    with pytest.raises(WrongShape, match="connecting map 1 is not surjective"):
        Tower([c4, c4], [doubling], TowerMeta("custom", TowerFlags()))


def test_tower_refuses_maps_of_the_wrong_count_or_between_other_levels():
    c2, c4, meta = cyclic(2), cyclic(4), TowerMeta("custom", TowerFlags())
    down = Homomorphism(c4, c2, [0, 1, 0, 1])
    with pytest.raises(WrongShape, match="need exactly depth-1 connecting maps"):
        Tower([c2, c4, cyclic(8)], [down], meta)
    with pytest.raises(WrongShape, match="need exactly depth-1 connecting maps"):
        Tower([c2, c4], [down, down], meta)
    with pytest.raises(WrongShape, match="connecting map 1 does not send level 2 to level 1"):
        Tower([c2, cyclic(4)], [down], meta)  # an equal group that is not the level
    with pytest.raises(WrongShape, match="connecting map 1 does not send level 2 to level 1"):
        Tower([c4, c2], [down], meta)


@pytest.mark.parametrize("k", [0, -1, 4])
def test_level_refuses_a_level_outside_the_tower(k):
    with pytest.raises(OutOfRange):
        make_zp(2, 3).level(k)


@pytest.mark.parametrize("k", [0, -1, 3])
def test_map_down_refuses_a_map_outside_the_tower(k):
    with pytest.raises(OutOfRange):
        make_zp(2, 3).map_down(k)


def test_build_tower_product_spec():
    spec = parse_tower_spec(
        {
            "family": "product",
            "factors": [
                {"family": "zp", "p": 2, "depth": 2},
                {"family": "zp", "p": 3, "depth": 2},
            ],
        }
    )
    t = build_tower(spec)
    assert t.meta.family_name == "product"
    assert build_lattice_tower(t).level_orders == [6, 36]
    with pytest.raises(CapExceeded):
        t.level(1)
