"""Group-core tests against the independent subset-closure oracle."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BUILTIN_NAMES,
    cached_tower,
    cyclic_with_table,
    oracle_bits_set,
    oracle_center,
    oracle_centralizer,
    oracle_closure,
    oracle_core,
    oracle_goursat,
    oracle_homomorphisms,
    oracle_is_abelian,
    oracle_is_associative,
    oracle_is_hom,
    oracle_normalizes,
    oracle_quotient,
    oracle_subgroups,
    products,
    subgroup_bits_set,
    tabled,
)
from subgroup_atlas import groups
from subgroup_atlas.errors import CapExceeded, NotNormal, OutOfRange, SpecError, WrongShape
from subgroup_atlas.groups import (
    FiniteGroup,
    Homomorphism,
    all_subgroups,
    center,
    centralizer,
    closure,
    commutator_subgroup,
    conjugate,
    core,
    cyclic,
    dihedral,
    direct_product,
    frattini,
    full_subgroup,
    goursat,
    goursat_reconstruct,
    is_normal,
    load_group_json,
    maximal_subgroups,
    normalizer,
    product_set,
    quaternion8,
    quotient,
    target_subgroups,
    trivial_subgroup,
)
from subgroup_atlas.lattice import build_lattice_tower
from subgroup_atlas.towers import (custom_tower, direct_product_tower, make_dihedral2,
                                   make_heisenberg, make_pirim, make_wilson, make_zp, make_zpn,
                                   wilson_elements)


def heis3():
    return make_heisenberg(3, 1).level(1)


COUNT_CASES = [
    ("Z8", lambda: cyclic(8), 4),
    ("Z3xZ3", lambda: direct_product(cyclic(3), cyclic(3)), 6),
    ("Q8", quaternion8, 6),
    ("D4", lambda: dihedral(4), 10),
    ("Z4xZ2", lambda: direct_product(cyclic(4), cyclic(2)), 8),
    ("Heis3", heis3, 19),
    ("D16", lambda: dihedral(8), 19),
]


@pytest.mark.parametrize("name,factory,expected", COUNT_CASES)
def test_all_subgroups_counts(name, factory, expected):
    G = factory()
    subs = all_subgroups(G)
    assert len(subs) == expected
    oracle = oracle_subgroups(G)
    assert len(oracle) == expected
    assert subgroup_bits_set(subs) == oracle_bits_set(G, oracle)


def test_all_subgroups_sorted_and_stable():
    G = dihedral(8)
    subs = all_subgroups(G)
    keys = [(s.order, s.bits) for s in subs]
    assert keys == sorted(keys)
    again = all_subgroups(dihedral(8))
    assert [s.bits for s in again] == [s.bits for s in subs]


def test_lagrange():
    for _, factory, _ in COUNT_CASES:
        G = factory()
        for H in all_subgroups(G):
            assert G.order % H.order == 0


def test_closure_empty_and_cyclic():
    Z8 = cyclic(8)
    assert closure(Z8, []).order == 1
    H = closure(Z8, [2])
    assert sorted(H.indices()) == [0, 2, 4, 6]


def test_closure_d4_klein():
    D4 = dihedral(4)
    H = closure(D4, [2, 4])  # half rotation and a reflection
    assert H.order == 4
    table = [[int(x) for x in row] for row in D4.table]
    inv = [int(x) for x in D4.inv]
    assert frozenset(int(i) for i in H.indices()) == oracle_closure(
        table, D4.identity, inv, [2, 4]
    )


def test_frattini_values():
    Z8 = cyclic(8)
    assert sorted(frattini(Z8).indices()) == [0, 2, 4, 6]
    K = direct_product(cyclic(3), cyclic(3))
    assert frattini(K).order == 1
    assert frattini(cyclic(1)).order == 1


@pytest.mark.parametrize(
    "factory,p",
    [
        (lambda: dihedral(4), 2),
        (quaternion8, 2),
        (heis3, 3),
        (lambda: dihedral(8), 2),
        (lambda: cyclic(9), 3),
    ],
)
def test_frattini_p_group_identity(factory, p):
    # For p-groups the Frattini subgroup is generated by commutators and p-th powers
    G = factory()
    comm = commutator_subgroup(G)
    powers = [int(G.power_map(p)[g]) for g in range(G.order)]
    generated = closure(G, list(comm.indices()) + powers)
    assert generated.bits == frattini(G).bits


def _all_pairs_commutator(G, members) -> frozenset[int]:
    """The subgroup generated by [a, b] = ab(ba)^-1 over all |H|^2 pairs of
    members of H, closed by the pure-Python fixed point."""
    t, inv = products(G), [int(x) for x in G.inv]
    a, b = np.repeat(members, len(members)), np.tile(members, len(members))
    comms = set(t[t[a, b], np.asarray(inv)[t[b, a]]].tolist())
    return oracle_closure(t.tolist(), G.identity, inv, comms)


def _some_generators(G, H) -> list[int]:
    """An irredundant generating set of H, its members taken in index order."""
    gens, span = [], trivial_subgroup(G)
    for h in H.indices().tolist():
        if not span.contains(h):
            gens.append(h)
            span = closure(G, gens)
    return gens


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_commutator_subgroup_of_every_tower_level_matches_all_pairs(name):
    for G in cached_tower(name).levels:
        expected = _all_pairs_commutator(G, np.arange(G.order))
        assert oracle_bits_set(G, [expected]) == {commutator_subgroup(G).bits}


@pytest.mark.parametrize("build", [
    lambda: dihedral(4), lambda: dihedral(6), quaternion8, heis3,
    lambda: direct_product(dihedral(3), cyclic(4)), lambda: s4(), lambda: a4(), lambda: a5(),
    lambda: s5(), lambda: load_group_json({"version": 1, "kind": "matrix", "modulus": 3,
                                           "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}),
], ids=["D4", "D6", "Q8", "Heis3", "S3xC4", "S4", "A4", "A5", "S5", "SL(2,3)"])
def test_commutator_of_every_subgroup_matches_all_pairs(build):
    # the normal closure is taken in H, not in G: H's generators conjugate
    G = build()
    for H in all_subgroups(G):
        derived, gens = groups._commutator_of(G, _some_generators(G, H))
        expected = _all_pairs_commutator(G, H.indices())
        assert oracle_bits_set(G, [expected]) == {derived.bits}
        assert closure(G, gens).bits == derived.bits
        assert len(gens) <= max(0, derived.order.bit_length() - 1)


@pytest.mark.parametrize("build,soluble", [
    (lambda: s4(), True), (lambda: a4(), True), (lambda: direct_product(dihedral(3), cyclic(4)),
                                                True),
    (lambda: a5(), False), (lambda: s5(), False), (lambda: direct_product(a5(), cyclic(2)), False),
], ids=["S4", "A4", "S3xC4", "A5", "S5", "A5xC2"])
def test_derived_series_matches_all_pairs_series(build, soluble):
    G = build()
    members = np.arange(G.order)
    while True:
        nxt = np.array(sorted(_all_pairs_commutator(G, members)))
        if len(nxt) == len(members):
            break
        members = nxt
    assert (len(members) == 1) == soluble == groups._derived_series_reaches_trivial(G)


def test_center_q8():
    Q8 = quaternion8()
    Z = center(Q8)
    assert Z.order == 2
    assert Z.contains(Q8.identity)
    assert Z.contains(1)  # the element labeled -1


def test_centralizer_normalizer():
    Q8 = quaternion8()
    assert centralizer(Q8, center(Q8).indices()).order == 8
    for outside in (-1, 8):
        with pytest.raises(OutOfRange):
            centralizer(Q8, [outside])
    i_sub = closure(Q8, [2])
    assert normalizer(Q8, i_sub).order == 8  # index-2 subgroups are normal
    D4 = dihedral(4)
    s_sub = closure(D4, [4])
    assert normalizer(D4, s_sub).order == 4


def test_core_of_reflection_is_trivial():
    D4 = dihedral(4)
    s_sub = closure(D4, [4])
    assert core(D4, s_sub).order == 1
    # core of a normal subgroup is itself
    rot = closure(D4, [1])
    assert core(D4, rot).bits == rot.bits


@pytest.mark.parametrize(
    "build",
    [
        lambda: dihedral(4),
        lambda: dihedral(6),
        quaternion8,
        lambda: cyclic(12),
        lambda: direct_product(dihedral(3), cyclic(4)),
        lambda: s4(),
        lambda: a5(),
    ],
    ids=["D4", "D6", "Q8", "C12", "S3xC4", "S4", "A5"],
)
def test_center_and_core_match_oracles(build):
    # center reads one column per basis element and core conjugates by the
    # basis only; the oracles compare every pair and conjugate by every g
    G = build()
    table = products(G).tolist()
    inv = [int(x) for x in G.inv]
    assert oracle_bits_set(G, [oracle_center(table)]) == {center(G).bits}
    for H in all_subgroups(G):
        expected = oracle_core(table, inv, [int(h) for h in H.indices()])
        got = core(G, H)
        assert oracle_bits_set(G, [expected]) == {got.bits}
        assert got.order == len(expected)


def test_conjugate():
    D4 = dihedral(4)
    s_sub = closure(D4, [4])
    conj = conjugate(D4, s_sub, 1)
    assert conj.order == 2
    assert conj.bits != s_sub.bits


def test_product_set():
    Z8 = cyclic(8)
    H = closure(Z8, [4])
    N = closure(Z8, [2])
    assert product_set(Z8, H, N).bits == N.bits
    D4 = dihedral(4)
    s_sub = closure(D4, [4])
    with pytest.raises(NotNormal):
        product_set(D4, s_sub, s_sub)


def test_quotient_z8():
    Z8 = cyclic(8)
    N = closure(Z8, [4])
    Q, proj = quotient(Z8, N)
    assert Q.order == 4
    assert proj.surjective
    orders = {len(closure(Q, [g]).indices()) for g in range(Q.order)}
    assert 4 in orders  # cyclic of order 4


def test_quotient_d4_center_is_klein():
    D4 = dihedral(4)
    Q, _ = quotient(D4, center(D4))
    assert Q.order == 4
    assert all(Q.mul(g, g) == Q.identity for g in range(4))


def test_quotient_by_whole_group():
    D4 = dihedral(4)
    Q, proj = quotient(D4, full_subgroup(D4))
    assert Q.order == 1
    assert proj.surjective


def test_quotient_requires_normal():
    D4 = dihedral(4)
    with pytest.raises(NotNormal):
        quotient(D4, closure(D4, [4]))


QUOTIENT_CASES = {  # a group, and its normal subgroup
    "Z8/<4>": (lambda: cyclic(8), lambda G: closure(G, [4])),
    "D4/Z(D4)": (lambda: dihedral(4), center),
    "D4/D4": (lambda: dihedral(4), full_subgroup),
    "S4/V4": (lambda: s4(),
              lambda G: next(H for H in all_subgroups(G) if H.order == 4 and is_normal(G, H))),
    "wilson(3)/A": (lambda: cached_tower("wilson(3)").level(3),
                    lambda G: closure(G, wilson_elements(G)[1])),
}


@pytest.mark.parametrize("name", list(QUOTIENT_CASES))
def test_quotient_matches_coset_walk(name):
    group, normal = QUOTIENT_CASES[name]
    G = group()
    N = normal(G)
    Q, proj = quotient(G, N)
    proj_map, table = oracle_quotient(G, N)
    assert proj.map.tolist() == proj_map
    assert Q.table.tolist() == table


def test_coset_minima_reads_the_table_in_blocks():
    G = cyclic(2048)
    K = closure(G, [2])  # |K| = 1024: an n x |K| gather would be 2^21 cells
    tracemalloc.start()
    try:
        minima = groups._coset_minima(G, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert minima.tolist() == [g % 2 for g in range(G.order)]
    assert peak <= minima.nbytes + 4 * groups.BLOCK_CELLS


def test_direct_product_layout_and_counts():
    P = direct_product(cyclic(2), cyclic(3))
    # index = i1 * |G2| + i2
    assert P.mul(1 * 3 + 0, 0 * 3 + 1) == 1 * 3 + 1
    orders = {len(closure(P, [g]).indices()) for g in range(6)}
    assert 6 in orders  # coprime cyclic product is cyclic

    klein = direct_product(cyclic(2), cyclic(2))
    assert len(all_subgroups(klein)) == 5
    assert len(all_subgroups(direct_product(cyclic(4), cyclic(3)))) == 6


@pytest.mark.parametrize(
    "f1,f2",
    [
        (lambda: cyclic(4), lambda: cyclic(3)),
        (lambda: dihedral(4), lambda: cyclic(3)),
        (quaternion8, lambda: cyclic(3)),
    ],
)
def test_coprime_splitting(f1, f2):
    G1, G2 = f1(), f2()
    P = direct_product(G1, G2)
    subs = all_subgroups(P)
    assert len(subs) == len(all_subgroups(G1)) * len(all_subgroups(G2))
    n2 = G2.order
    for H in subs:
        members = set(int(m) for m in H.indices())
        h1 = sorted({m // n2 for m in members if m % n2 == 0})
        h2 = sorted({m % n2 for m in members if m // n2 == 0})
        rebuilt = {a * n2 + b for a in h1 for b in h2}
        assert rebuilt == members


def test_goursat_diagonal():
    G1, G2 = cyclic(2), cyclic(2)
    P = direct_product(G1, G2)
    diag = closure(P, [3])
    q = goursat(G1, G2, diag)
    assert q.proj_left.order == 2 and q.proj_right.order == 2
    assert q.ker_left.order == 1 and q.ker_right.order == 1
    assert q.iso_witness == {0: 0, 1: 1}


def test_goursat_factor_subgroup():
    G1, G2 = cyclic(2), cyclic(2)
    P = direct_product(G1, G2)
    H = closure(P, [2])  # G1 x 1
    q = goursat(G1, G2, H)
    assert q.proj_left.order == 2 and q.ker_left.order == 2
    assert q.proj_right.order == 1 and q.ker_right.order == 1


def test_goursat_roundtrip_z4xz2():
    G1, G2 = cyclic(4), cyclic(2)
    P = direct_product(G1, G2)
    subs = all_subgroups(P)
    assert len(subs) == 8
    for H in subs:
        q = goursat(G1, G2, H)  # verifier raises on any failure
        assert goursat_reconstruct(G1, G2, P, q).bits == H.bits


def test_goursat_roundtrip_order_64():
    G1, G2 = cyclic(8), cyclic(8)
    P = direct_product(G1, G2)
    for H in all_subgroups(P):
        q = goursat(G1, G2, H)
        assert q.proj_left.order * q.ker_right.order == q.proj_right.order * q.ker_left.order


GOURSAT_PAIRS = {  # the pairs of acceptance criterion 2, and S3 x C4
    "C2xC2": (lambda: cyclic(2), lambda: cyclic(2)),
    "C4xC2": (lambda: cyclic(4), lambda: cyclic(2)),
    "C8xC8": (lambda: cyclic(8), lambda: cyclic(8)),
    "D4xC3": (lambda: dihedral(4), lambda: cyclic(3)),
    "Q8xC2": (quaternion8, lambda: cyclic(2)),
    "D4xD4": (lambda: dihedral(4), lambda: dihedral(4)),
    "S3xC4": (lambda: _perm_group([1, 2, 0], [1, 0, 2]), lambda: cyclic(4)),
}


@pytest.mark.parametrize("name", list(GOURSAT_PAIRS))
def test_goursat_matches_per_element_oracle(name):
    G1, G2 = (factory() for factory in GOURSAT_PAIRS[name])
    for H in all_subgroups(direct_product(G1, G2)):
        q, expected = goursat(G1, G2, H), oracle_goursat(G1, G2, H)
        for part in ("proj_left", "ker_left", "proj_right", "ker_right"):
            got, want = getattr(q, part), getattr(expected, part)
            assert (got.bits, got.order) == (want.bits, want.order), part
        assert list(q.iso_witness.items()) == list(expected.iso_witness.items())


def _tampered(G1, G2, gens, **changes):
    """G1, G2, the subgroup H of G1 x G2 generated by the given product
    elements, and H's quintuple with the given parts replaced."""
    H = closure(direct_product(G1, G2), gens)
    return G1, G2, H, replace(goursat(G1, G2, H), **changes)


def _kernel_not_normal():
    G1 = dihedral(4)  # D4 x 1, with <s>, not normal in D4, as its left kernel
    return _tampered(G1, cyclic(2), [g * 2 for g in G1.generators], ker_left=closure(G1, [4]))


def _orders_differ():
    G2 = cyclic(2)  # C2 x C2, with a trivial right kernel
    return _tampered(cyclic(2), G2, [2, 1], ker_right=trivial_subgroup(G2))


GOURSAT_FAULTS = {
    "kernel not normal": (_kernel_not_normal, "goursat kernel not normal in projection"),
    "orders differ": (_orders_differ, "goursat quotients have different orders"),
    # the diagonal of C2 x C2 has the witness {0: 0, 1: 1}
    "domain size": (lambda: _tampered(cyclic(2), cyclic(2), [3], iso_witness={0: 0}),
                    "goursat witness has wrong domain size"),
    "not injective": (lambda: _tampered(cyclic(2), cyclic(2), [3], iso_witness={0: 0, 1: 0}),
                      "goursat witness not injective"),
    # a bijection of the diagonal's C4 that is not an automorphism
    "not a homomorphism": (
        lambda: _tampered(cyclic(4), cyclic(4), [5], iso_witness={0: 0, 1: 2, 2: 1, 3: 3}),
        "goursat witness not a homomorphism"),
    # <(1, 1)> in C4 x C2 has ker_left {0, 2} and the witness {0: 0, 1: 1}; 2 is
    # not the least element of its coset
    "non-representative key": (
        lambda: _tampered(cyclic(4), cyclic(2), [3], iso_witness={2: 0, 1: 1}),
        "goursat witness not a homomorphism"),
    # inversion is an automorphism of C3, so only the round trip tells
    "round trip": (
        lambda: _tampered(cyclic(3), cyclic(3), [4], iso_witness={0: 0, 1: 2, 2: 1}),
        "goursat round-trip failed"),
}


@pytest.mark.parametrize("name", list(GOURSAT_FAULTS))
def test_verify_goursat_rejects_tampered_quintuple(name):
    build, message = GOURSAT_FAULTS[name]
    G1, G2, H, q = build()
    with pytest.raises(WrongShape) as excinfo:
        groups._verify_goursat(G1, G2, H, q)
    assert str(excinfo.value) == message


def test_goursat_rejects_a_witness_that_is_not_well_defined():
    G1, G2 = cyclic(2), cyclic(2)
    # {(0, 0), (1, 0), (1, 1)} is no subgroup: 1 has both 0 and 1 as images
    H = groups.Subgroup(direct_product(G1, G2), 0b1101, 3)
    for decompose in (goursat, oracle_goursat):
        with pytest.raises(WrongShape) as excinfo:
            decompose(G1, G2, H)
        assert str(excinfo.value) == "goursat witness is not well defined"


@pytest.mark.parametrize("witness", [{0: 0}, {2: 0, 1: 1}], ids=["missing", "non-representative"])
def test_goursat_reconstruct_rejects_a_coset_without_witness(witness):
    # <(1, 1)> in C4 x C2: the coset {0, 2} of ker_left has no witness entry
    G1, G2, H, q = _tampered(cyclic(4), cyclic(2), [3], iso_witness=witness)
    with pytest.raises(WrongShape):
        goursat_reconstruct(G1, G2, H.parent, q)


def test_cap_exceeded(monkeypatch):
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", "4")
    with pytest.raises(CapExceeded):
        all_subgroups(cyclic(8))
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", "32")
    with pytest.raises(CapExceeded):
        direct_product(cyclic(8), cyclic(8))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: load_group_json({"version": 1, "kind": "permutation", "degree": 3,
                                  "generators": [[1, 2, 0], [1, 0, 2]]}),
         "generated group exceeds cap 4"),
        (lambda: load_group_json({"version": 1, "kind": "cyclic", "n": 5}),
         "cyclic order 5 above cap 4"),
        (lambda: load_group_json({"version": 1, "kind": "table",
                                  "mult": [[(a + b) % 5 for b in range(5)] for a in range(5)]}),
         "table order above cap"),
        (lambda: direct_product_tower(make_zp(2, 2), make_zp(2, 2)),
         "product order 16 above cap 4"),
    ],
    ids=["permutation", "cyclic", "table", "direct_product_tower"],
)
def test_every_construction_reads_the_cap_from_the_environment(build, message, monkeypatch):
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", "4")
    with pytest.raises(CapExceeded, match=f"^{message}$"):
        build()


def test_insoluble_fallback_a5():
    # A5 = <(0 1 2 3 4), (0 1 2)>; every subgroup of the alternating group
    # on 5 points is 2-generated, so pair closures are a complete oracle
    doc = {
        "version": 1,
        "kind": "permutation",
        "degree": 5,
        "generators": [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]],
    }
    G = load_group_json(doc)
    assert G.order == 60
    subs = all_subgroups(G)
    oracle = oracle_subgroups(G, gen_bound=2)
    assert len(subs) == len(oracle) == 59
    assert subgroup_bits_set(subs) == oracle_bits_set(G, oracle)


def test_generic_matches_fast_path():
    # soluble groups forced through the insoluble path agree with cyclic extension
    for factory in (lambda: dihedral(4), heis3, quaternion8, lambda: dihedral(8), s4, a4):
        G = factory()
        fast = {s.bits for s in all_subgroups(G)}
        slow = set(groups._subgroups_generic(G))
        assert fast == slow


def test_insoluble_fallback_s5():
    G = s5()
    assert G.order == 120
    subs = all_subgroups(G)
    assert len(subs) == 156
    assert {_labels(G, H.indices()) for H in subs} == _perm_oracle(G)


def test_generic_path_closes_once_per_class_of_equivalent_elements(monkeypatch):
    # <H, g> = <H, h g^k h'>: A5 runs one closure per H and element outside H,
    # 3,189 in all, without that rule
    G = a5()
    real, calls = groups.closure, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groups, "closure", counting)
    assert len(groups._subgroups_generic(G)) == 59
    assert len(calls) == 264


@st.composite
def small_permutation_groups(draw):
    degree = draw(st.integers(1, 5))
    gens = [draw(st.permutations(range(degree))) for _ in range(2)]
    return _perm_group(*gens)


@given(small_permutation_groups())
@settings(max_examples=40, deadline=None)
def test_generic_matches_oracle_on_two_generator_permutation_groups(G):
    found = groups._subgroups_generic(G)
    assert {_labels(G, H.indices()) for H in found.values()} == _perm_oracle(G)


def test_load_group_json_kinds():
    assert load_group_json({"version": 1, "kind": "cyclic", "n": 6}).order == 6
    Z3 = cyclic(3)
    doc = {"version": 1, "kind": "table", "mult": products(Z3).tolist()}
    assert load_group_json(doc).order == 3
    s3 = load_group_json(
        {"version": 1, "kind": "permutation", "degree": 3,
         "generators": [[1, 0, 2], [1, 2, 0]]}
    )
    assert s3.order == 6
    assert len(all_subgroups(s3)) == 6
    m = load_group_json(
        {"version": 1, "kind": "matrix", "modulus": 3,
         "generators": [[[0, 1], [1, 2]]]}
    )
    assert m.order == 8  # that matrix has order 8 in GL2(F3)


def test_load_group_json_requires_version():
    with pytest.raises(SpecError):
        load_group_json({"kind": "cyclic", "n": 4})
    with pytest.raises(SpecError):
        load_group_json({"version": 1, "kind": "nonsense"})


def test_bad_table_rejected():
    with pytest.raises(WrongShape):
        FiniteGroup([[0, 1], [1, 1]])  # not a group


def reduced_latin_squares(n: int) -> list[list[list[int]]]:
    """Every Latin square on 0..n-1 whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    out = []

    def fill(cell: int) -> None:
        if cell == n * n:
            out.append([row[:] for row in rows])
            return
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            fill(cell + 1)
            return
        for v in range(n):
            if v not in rows[i][:j] and all(rows[r][j] != v for r in range(i)):
                rows[i][j] = v
                fill(cell + 1)
        rows[i][j] = -1

    fill(0)
    return out


@pytest.mark.parametrize("n,count,groups", [(5, 56, 6), (6, 9408, 80)])
def test_group_check_matches_associativity_oracle_on_latin_squares(n, count, groups):
    # every reduced Latin square has a two-sided identity and inverses, so
    # only the associativity check separates the labelled copies of Z5, or
    # of Z6 and S3, from the rest; at order 6 some squares need a basis of
    # two elements
    squares = reduced_latin_squares(n)
    assert len(squares) == count
    accepted = []
    for square in squares:
        try:
            FiniteGroup(square)
            accepted.append(True)
        except WrongShape:
            accepted.append(False)
    assert accepted == [oracle_is_associative(square) for square in squares]
    assert sum(accepted) == groups


@pytest.mark.parametrize("n", [1024, 2048, 4096])
def test_loop_with_one_swapped_intercalate_rejected(n):
    # Z/n with the 2x2 block at rows and columns {2, n/2 + 2} swapped is
    # still a Latin square with the same identity and inverses
    a = np.arange(n)
    table = (a[:, None] + a[None, :]) % n
    rc = [2, n // 2 + 2]
    table[np.ix_(rc, rc)] = table[np.ix_(rc, rc[::-1])]
    with pytest.raises(WrongShape, match="not associative"):
        FiniteGroup(table)


def _relabelled_intercalate(n: int, witness_rows: list[int]) -> tuple[np.ndarray, int]:
    """Z/n with the intercalate at rows and columns {2, n/2 + 2} swapped,
    relabelled so that the four rows a where Light's test for s = 1 fails
    (a = 1, 2, n/2 + 1 and n/2 + 2) become `witness_rows`, and 0 stays 0.
    Returns the table and the new label of 1."""
    a = np.arange(n)
    table = (a[:, None] + a[None, :]) % n
    rc = [2, n // 2 + 2]
    table[np.ix_(rc, rc)] = table[np.ix_(rc, rc[::-1])]
    witnesses = [1, 2, n // 2 + 1, n // 2 + 2]
    pi = np.empty(n, dtype=np.int64)
    pi[witnesses] = witness_rows
    pi[np.setdiff1d(a, witnesses)] = np.setdiff1d(a, witness_rows)
    out = np.empty_like(table)
    out[np.ix_(pi, pi)] = pi[table]
    return out, int(pi[1])


@pytest.mark.parametrize("n", [300, 1000, 2046])
def test_intercalate_only_in_the_last_partial_block_rejected(n):
    step = max(1, groups.BLOCK_CELLS // n)
    last = n - n % step
    assert n - last >= 4  # the last block is partial and holds every witness row
    table, s = _relabelled_intercalate(n, [last, last + 1, n - 2, n - 1])
    with pytest.raises(WrongShape, match=rf"not associative \(s={s}\)"):
        FiniteGroup(table, generators=[s])


@pytest.mark.parametrize("n", [300, 1000, 2046])
def test_intercalate_straddling_a_block_boundary_rejected(n):
    step = max(1, groups.BLOCK_CELLS // n)
    assert n % step and step + 2 <= n
    table, s = _relabelled_intercalate(n, [step - 2, step - 1, step, step + 1])
    with pytest.raises(WrongShape, match=rf"not associative \(s={s}\)"):
        FiniteGroup(table, generators=[s])


@lru_cache(maxsize=None)
def _commutativity_pool() -> tuple[FiniteGroup, ...]:
    D6 = dihedral(6)
    Z2xS3 = direct_product(cyclic(2), dihedral(3))
    return (
        dihedral(4), quaternion8(), direct_product(cyclic(4), dihedral(3)), s4(), heis3(),
        *(quotient(D6, N)[0] for N in all_subgroups(D6) if is_normal(D6, N)),
        direct_product(cyclic(3), cyclic(5)), direct_product(cyclic(2), cyclic(2)),
        # a table literal: no generators, so its basis is picked from all elements
        load_group_json({"version": 1, "kind": "table", "mult": Z2xS3.table.tolist()}),
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_is_abelian_matches_transpose_oracle(data):
    pool = _commutativity_pool()
    G = data.draw(st.sampled_from(pool))
    if data.draw(st.booleans()):
        G = direct_product(G, data.draw(st.sampled_from(pool)))
    if data.draw(st.booleans()):  # relabelled, as a table without generators
        pi = np.array(data.draw(st.permutations(range(G.order))))
        table = np.empty_like(G.table)
        table[np.ix_(pi, pi)] = pi[G.table]
        G = FiniteGroup(table)
    assert G.is_abelian() == oracle_is_abelian(G.table)


def test_stored_generators_must_generate():
    with pytest.raises(WrongShape, match="do not generate"):
        FiniteGroup(cyclic_with_table(4).table, generators=[2])


HOM_GROUPS = [cyclic(4), direct_product(cyclic(2), cyclic(2)), dihedral(3), quaternion8()]


@lru_cache(maxsize=None)
def _homs(i: int, j: int) -> list[list[int]]:
    return oracle_homomorphisms(HOM_GROUPS[i], HOM_GROUPS[j])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_hom_check_matches_all_pairs_law(data):
    i = data.draw(st.integers(0, len(HOM_GROUPS) - 1))
    j = data.draw(st.integers(0, len(HOM_GROUPS) - 1))
    source, target = HOM_GROUPS[i], HOM_GROUPS[j]
    if data.draw(st.booleans()):
        mapping = data.draw(
            st.lists(st.integers(0, target.order - 1),
                     min_size=source.order, max_size=source.order)
        )
    else:  # one entry of a true homomorphism moved
        mapping = list(data.draw(st.sampled_from(_homs(i, j))))
        mapping[data.draw(st.integers(0, source.order - 1))] = data.draw(
            st.integers(0, target.order - 1)
        )
    if oracle_is_hom(source, target, mapping):
        assert Homomorphism(source, target, mapping).map.tolist() == mapping
    else:
        with pytest.raises(WrongShape):
            Homomorphism(source, target, mapping)


def test_map_from_trivial_group_must_hit_identity():
    with pytest.raises(WrongShape):
        Homomorphism(cyclic(1), cyclic(2), [1])
    assert Homomorphism(cyclic(1), cyclic(2), [0]).kernel().order == 1


@given(st.lists(st.integers(min_value=0, max_value=7), max_size=4))
@settings(max_examples=50, deadline=None)
def test_closure_idempotent_monotone(seed):
    G = dihedral(4)
    H = closure(G, seed)
    assert closure(G, list(H.indices())).bits == H.bits
    bigger = closure(G, list(seed) + [1])
    assert (H.bits & bigger.bits) == H.bits or not set(seed) <= set(
        int(i) for i in bigger.indices()
    )
    assert G.order % H.order == 0


def _perm_group(*gens):
    return load_group_json({"version": 1, "kind": "permutation", "degree": len(gens[0]),
                            "generators": [list(g) for g in gens]})


def s4():
    return _perm_group([1, 2, 3, 0], [1, 0, 2, 3])


def a5():
    return _perm_group([1, 2, 3, 4, 0], [1, 2, 0, 3, 4])


def a4():
    return _perm_group([1, 2, 0, 3], [0, 2, 3, 1])


def s5():
    return _perm_group([1, 2, 3, 4, 0], [1, 0, 2, 3, 4])


def _assert_mul_is_the_table(G):
    every = np.arange(G.order)
    got = G.mul(every[:, None], every)
    assert got.dtype == np.intp
    assert got.tolist() == tabled(G).table.tolist()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_mul_is_the_table_on_every_tower_level(name):
    for G in cached_tower(name).levels:
        _assert_mul_is_the_table(G)


MUL_LITERALS = {
    "S3": lambda: _perm_group([1, 2, 0], [1, 0, 2]),
    "S4": s4,
    "A5": a5,
    "Q8": quaternion8,
    "Heis(Z/3)": heis3,
}


@pytest.mark.parametrize("name", list(MUL_LITERALS))
def test_mul_is_the_table_on_literals(name):
    _assert_mul_is_the_table(MUL_LITERALS[name]())


@pytest.mark.parametrize("n", range(1, 65))
def test_cyclic_group_matches_its_table_twin(n):
    # cyclic(n) holds no table; its twin runs the fill and Light's test on
    # the table of the same row, a + 1 mod n
    G, T = cyclic(n), cyclic_with_table(n)
    assert isinstance(G, groups.CyclicGroup) and not hasattr(G, "table")
    assert products(G).tolist() == T.table.tolist()
    assert G.mul(n - 1, 1 % n) == T.mul(n - 1, 1 % n) and isinstance(G.mul(0, 0), np.integer)
    assert G.inv.dtype == T.inv.dtype and G.inv.tolist() == T.inv.tolist()
    assert not G.inv.flags.writeable
    for e in range(n + 2):
        got, expected = G.power_map(e), T.power_map(e)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist(), e
        assert not got.flags.writeable
    assert G.is_abelian() and T.is_abelian()
    assert (G.identity, G.generators, G.basis, G.primes, G.name) == (
        T.identity, T.generators, T.basis, T.primes, T.name)
    assert G.basis == ([1] if n > 1 else [])
    assert [G.element_label(a) for a in range(n)] == [T.element_label(a) for a in range(n)]
    subs = all_subgroups(G)
    assert [(H.order, H.bits) for H in subs] == [(H.order, H.bits) for H in all_subgroups(T)]
    assert len(subs) == sum(n % d == 0 for d in range(1, n + 1))


def test_cyclic_levels_refuse_a_map_that_is_not_a_homomorphism():
    assert Homomorphism(cyclic(4), cyclic(2), [0, 1, 0, 1]).surjective
    with pytest.raises(WrongShape, match="not a homomorphism"):
        Homomorphism(cyclic(4), cyclic(2), [0, 1, 1, 0])


def test_mul_broadcasts_scalars_and_index_arrays():
    G = s4()
    t = G.table
    product = G.mul(5, 17)
    assert isinstance(product, np.integer) and product == t[5, 17]
    rows, cols = np.array([0, 3, 23]), [1, 2, 22, 7]
    assert G.mul(4, cols).tolist() == [int(t[4, c]) for c in cols]
    assert G.mul(rows, 9).tolist() == [int(t[r, 9]) for r in rows]
    assert G.mul(rows, rows[::-1]).tolist() == [int(t[r, c]) for r, c in zip(rows, rows[::-1])]
    assert G.mul(rows[:, None], cols).tolist() == [[int(t[r, c]) for c in cols] for r in rows]


EMPTY = np.empty(0, dtype=np.intp)


@pytest.mark.parametrize("a,b", [
    ([], []), ([], 3), (3, []), (np.arange(4)[:, None], []),
    (EMPTY, EMPTY), (EMPTY, 3), (EMPTY[:, None], np.arange(4)), (np.arange(4)[:, None], EMPTY),
], ids=["lists", "list-int", "int-list", "column-list",
        "arrays", "array-int", "empty-column-array", "column-empty-array"])
def test_mul_of_empty_indices_is_an_empty_index(a, b):
    G = s4()
    products = G.mul(a, b)
    assert products.size == 0 and products.dtype == np.intp
    assert np.arange(G.order)[products].size == 0


def _labels(G, members) -> frozenset[str]:
    return frozenset(G.element_label(int(i)) for i in members)


_PERM_ORACLE: dict[frozenset[str], set[frozenset[str]]] = {}


def _perm_oracle(G) -> set[frozenset[str]]:
    """The subgroups of a permutation group of degree <= 5 as sets of element
    labels, by closing every pair of elements: each subgroup of S5 is
    2-generated.  Kept per element set, so each group pays for it once."""
    key = _labels(G, range(G.order))
    if key not in _PERM_ORACLE:
        _PERM_ORACLE[key] = {_labels(G, s) for s in oracle_subgroups(G, gen_bound=2)}
    return _PERM_ORACLE[key]


NORMALIZER_GROUPS = [dihedral(4), quaternion8(), s4(), heis3()]


def _lists(G):
    return [[int(x) for x in row] for row in G.table], [int(x) for x in G.inv]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_normalizing_matches_conjugation_oracle(data):
    G = data.draw(st.sampled_from(NORMALIZER_GROUPS))
    H = data.draw(st.sampled_from(all_subgroups(G)))
    table, inv = _lists(G)
    members = [int(h) for h in H.indices()]
    if data.draw(st.booleans()):
        gens = members
    else:  # an irredundant generating set, members taken in a drawn order
        gens, span = [], {G.identity}
        for h in data.draw(st.permutations(members)):
            if h not in span:
                gens.append(h)
                span = oracle_closure(table, G.identity, inv, gens)
        assert span == set(members)
    cands = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2 * G.order))
    mask = groups._normalizing(G, H.mask(), gens, cands)
    assert mask.tolist() == [oracle_normalizes(table, inv, members, g) for g in cands]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_centralizer_of_generators_matches_all_pairs_oracle(data):
    G = data.draw(st.sampled_from(NORMALIZER_GROUPS))
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    table, inv = _lists(G)
    members = oracle_closure(table, G.identity, inv, gens)
    C = centralizer(G, gens)
    assert set(C.indices().tolist()) == oracle_centralizer(table, members)
    assert C.order == len(C.indices())


@pytest.mark.parametrize("G", NORMALIZER_GROUPS, ids=lambda G: G.name)
def test_normalizer_and_is_normal_on_every_subgroup(G):
    table, inv = _lists(G)
    for H in all_subgroups(G):
        members = [int(h) for h in H.indices()]
        expected = [oracle_normalizes(table, inv, members, g) for g in range(G.order)]
        assert groups._normalizing(G, H.mask(), members, range(G.order)).tolist() == expected
        assert is_normal(G, H) == all(expected)
        assert normalizer(G, H).mask().tolist() == expected


@pytest.mark.parametrize("k", range(10))
def test_dihedral_2_power_subgroup_count(k):
    # D_n of order 2n has tau(n) + sigma(n) subgroups; n = 2^k gives 2^(k+1) + k
    assert len(all_subgroups(dihedral(2**k))) == 2 ** (k + 1) + k


def test_dihedral_table_matches_formula():
    for n in range(1, 65):
        expected = [
            [((a // n + b // n) % 2) * n + (b % n + (a % n if b < n else -(a % n))) % n
             for b in range(2 * n)]
            for a in range(2 * n)
        ]
        assert dihedral(n).table.tolist() == expected


@pytest.mark.parametrize(
    "factory",
    [f for _, f, _ in COUNT_CASES] + [s4, a5, lambda: cyclic(1), lambda: dihedral(32)],
)
def test_maximal_subgroups_match_pairwise_definition(factory):
    G = factory()
    proper = [H for H in all_subgroups(G) if H.order < G.order]
    expected = [
        H for H in proper
        if not any(K.bits != H.bits and K.bits & H.bits == H.bits for K in proper)
    ]
    assert [H.bits for H in maximal_subgroups(G)] == [H.bits for H in expected]


def test_solubility_test_skipped_for_abelian_and_prime_power_groups(monkeypatch):
    calls = {"derived": 0, "generic": 0}

    def counting(name, key):
        real = getattr(groups, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(groups, name, wrapper)

    counting("_derived_series_reaches_trivial", "derived")
    counting("_subgroups_generic", "generic")
    for G in (cyclic(12), direct_product(cyclic(2), cyclic(3)), dihedral(8), heis3()):
        all_subgroups(G)
    assert calls == {"derived": 0, "generic": 0}
    all_subgroups(_perm_group([1, 2, 0], [1, 0, 2]))  # S3: tested, soluble
    assert calls == {"derived": 1, "generic": 0}
    assert len(all_subgroups(a5())) == 59  # A5 still takes the generic path
    assert calls == {"derived": 2, "generic": 1}


@pytest.mark.parametrize("bad", [7, 2, -1])
def test_hom_image_out_of_range(bad):
    with pytest.raises(OutOfRange):
        Homomorphism(cyclic(4), cyclic(2), [0, 1, 0, bad])


def test_target_subgroups_refuses_a_map_that_is_not_onto():
    C4 = cyclic(4)
    hom = Homomorphism(C4, C4, [0, 2, 0, 2])
    with pytest.raises(WrongShape, match="surjective"):
        target_subgroups(hom)
    all_subgroups(C4)  # refused with the target's list cached too
    with pytest.raises(WrongShape, match="surjective"):
        target_subgroups(hom)


def test_target_subgroups_reads_the_image_of_each_subgroup_over_the_kernel():
    # D4 -> D4/<r^2> = V4: the five subgroups of V4 are the images of the
    # five subgroups of D4 that hold r^2, with orders |K| / 2
    G = dihedral(4)
    V, proj = quotient(G, closure(G, [2]))
    derived = target_subgroups(proj)
    assert V._subgroups is not None
    assert [s.order for s in derived] == [1, 2, 2, 2, 4]
    assert {s.bits for s in derived} == {
        proj.image_subgroup(K).bits for K in all_subgroups(G) if K.contains(2)}
    assert [(s.order, s.bits) for s in all_subgroups(V)] == [(s.order, s.bits) for s in derived]


def test_target_subgroups_keeps_a_cached_list():
    # a constant tower's levels are one group: its own list is returned, also
    # along a map that is an automorphism, not the identity
    G = dihedral(4)
    all_subgroups(G)
    own = G._subgroups
    conj = G.mul(G.mul(G.inv[4], np.arange(G.order)), 4).tolist()
    for mapping in (list(range(G.order)), conj):
        assert target_subgroups(Homomorphism(G, G, mapping)) == own
        assert G._subgroups is own
    assert conj != list(range(G.order))


def test_constant_tower_keeps_its_group_list():
    G = dihedral(4)
    t = custom_tower([G, G, G], [list(range(G.order))] * 2)
    lt = build_lattice_tower(t)
    own = G._subgroups
    assert lt.node_bits == [[s.bits for s in own]] * 3
    build_lattice_tower(t)
    assert G._subgroups is own


# -- oracles that scale: Frobenius's congruence, and relabeled literals ------------

@pytest.mark.parametrize("build", [lambda: make_dihedral2(10), lambda: make_zpn(2, 2, 6),
                                   lambda: make_wilson(4), lambda: make_pirim(2)],
                         ids=["dihedral2(10)", "zpn(2,2,6)", "wilson(4)", "pirim(2)"])
def test_prime_power_subgroup_counts_are_one_mod_p(build):
    # Frobenius: for p^a dividing |G| the subgroups of order p^a number 1 mod p;
    # at the full p-part (Sylow) their number also divides |G| / p^a
    for G in build().levels:
        counts = Counter(H.order for H in all_subgroups(G))
        for p in G.primes:
            a = 0
            while G.order % p ** (a + 1) == 0:
                a += 1
            for b in range(a + 1):
                assert counts[p**b] % p == 1
            assert (G.order // p**a) % counts[p**a] == 0


LITERALS = {"D4": lambda: dihedral(4), "Q8": quaternion8, "S4": s4, "A4": a4, "Heis3": heis3}
# products whose insoluble-path enumeration takes well under a second
LITERAL_PRODUCTS = [("D4", "D4"), ("D4", "Q8"), ("D4", "A4"), ("Q8", "Q8"), ("Q8", "A4"),
                    ("Q8", "Heis3"), ("A4", "A4"), ("A4", "D4")]


@lru_cache(maxsize=None)
def _literal(names: tuple[str, ...]) -> FiniteGroup:
    G = LITERALS[names[0]]()
    for name in names[1:]:
        G = direct_product(G, LITERALS[name]())
    return G


@lru_cache(maxsize=None)
def _generic_subgroups(names: tuple[str, ...]) -> list[list[int]]:
    G = _literal(names)
    return [H.indices().tolist() for H in groups._subgroups_generic(G).values()]


@pytest.mark.parametrize("name", LITERALS)
def test_cyclic_extension_matches_oracles_on_literals(name):
    # every subgroup of these five groups is generated by two elements
    G = _literal((name,))
    found = {H.bits for H in groups._subgroups_cyclic_extension(G)}
    assert found == oracle_bits_set(G, oracle_subgroups(G, gen_bound=2))
    assert found == set(groups._subgroups_generic(G))


@given(names=st.sampled_from([(n,) for n in LITERALS] + LITERAL_PRODUCTS), rnd=st.randoms())
@settings(max_examples=30, deadline=None)
def test_cyclic_extension_matches_generic_on_relabeled_literals(names, rnd):
    # the group with element a renamed image[a]: its subgroups are the renamed ones
    G = _literal(names)
    image = list(range(G.order))
    rnd.shuffle(image)
    image = np.array(image)
    table = np.empty_like(G.table)
    table[np.ix_(image, image)] = image[G.table]
    R = FiniteGroup(table)
    found = groups._subgroups_cyclic_extension(R)
    expected = {sum(1 << int(x) for x in image[members]) for members in _generic_subgroups(names)}
    assert {H.bits for H in found} == expected
    assert [(H.order, H.bits) for H in found] == sorted((H.order, H.bits) for H in found)
