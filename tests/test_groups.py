"""Group-core tests against the independent subset-closure oracle."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache, partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BUILTIN_NAMES,
    TOWER_FACTORIES,
    cached_tower,
    oracle_bits_set,
    oracle_center,
    oracle_centralizer,
    oracle_closure,
    oracle_goursat,
    oracle_homomorphisms,
    oracle_is_abelian,
    oracle_is_associative,
    oracle_is_hom,
    oracle_links,
    oracle_normalizes,
    oracle_quotient,
    oracle_subgroups,
    products,
    subgroup_bits_set,
    table_twin,
    tau_plus_sigma,
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
    quaternion8,
    quotient,
    target_subgroups,
    trivial_subgroup,
)
from subgroup_atlas.lattice import build_lattice_tower
from subgroup_atlas.towers import (custom_tower, direct_product_tower, make_dihedral2,
                                   make_heisenberg, make_wilson, make_zp, make_zpn,
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
    table = products(D4).tolist()
    inv = D4.inverse(np.arange(D4.order)).tolist()
    assert frozenset(int(i) for i in H.indices()) == oracle_closure(
        table, D4.identity, inv, [2, 4]
    )


CLOSURE_LITERALS = {
    "S3": lambda: _perm_group([1, 2, 0], [1, 0, 2]),
    "A4": lambda: a4(),
    "S4": lambda: s4(),
    "A5": lambda: a5(),
    "C8 in GL(2,3)": lambda: load_group_json(
        {"version": 1, "kind": "matrix", "modulus": 3, "generators": [[[0, 1], [1, 2]]]}),
    "SL(2,3)": lambda: load_group_json(
        {"version": 1, "kind": "matrix", "modulus": 3,
         "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}),
    "Heis(Z/3) matrices": lambda: load_group_json(
        {"version": 1, "kind": "matrix", "modulus": 3,
         "generators": [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]]}),
}
# The pair-by-pair fixed point of oracle_closure reads |K|^2 products a pass
# from an n x n table of Python ints; above this order the levels are
# checked against the frontier closure below instead.
ORACLE_CLOSURE_ORDER = 729


@lru_cache(maxsize=None)
def _closure_groups() -> tuple:
    levels = [G for name in TOWER_FACTORIES for G in cached_tower(name).levels]
    return tuple(levels + [build() for build in CLOSURE_LITERALS.values()])


@lru_cache(maxsize=None)
def _oracle_table(G) -> tuple[list[list[int]], list[int]]:
    return products(G).tolist(), G.inverse(np.arange(G.order)).tolist()


def _frontier_closure(G, seed) -> frozenset[int]:
    """<seed> by rounds that multiply the new elements by every member found
    so far on both sides and add their inverses, until a round adds nothing;
    256 new elements at a time."""
    mask = np.zeros(G.order, dtype=bool)
    mask[G.identity] = True
    mask[list(seed)] = True
    frontier = np.flatnonzero(mask)
    while len(frontier):
        members = np.flatnonzero(mask)
        new = np.zeros(G.order, dtype=bool)
        for lo in range(0, len(frontier), 256):
            f = frontier[lo:lo + 256]
            new[G.mul(f[:, None], members)] = True
            new[G.mul(members[:, None], f)] = True
        new[G.inverse(frontier)] = True
        new &= ~mask
        frontier = np.flatnonzero(new)
        mask |= new
    return frozenset(np.flatnonzero(mask).tolist())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_closure_matches_oracle_on_tower_levels_and_literals(data):
    G = data.draw(st.sampled_from(_closure_groups()), label="group")
    # 0-3 seeds that may repeat, or be the identity
    seed = data.draw(st.lists(st.one_of(st.integers(0, G.order - 1), st.just(G.identity)),
                              max_size=3), label="seed")
    H = closure(G, seed)
    if G.order <= ORACLE_CLOSURE_ORDER:
        table, inv = _oracle_table(G)
        expected = oracle_closure(table, G.identity, inv, seed)
    else:
        expected = _frontier_closure(G, seed)
    assert frozenset(H.indices().tolist()) == expected
    assert H.order == len(expected)


@pytest.mark.parametrize("name", ["zp(2,4)", "dihedral2(4)", "A5"])
@pytest.mark.parametrize("bad", [-1, "order"])
def test_closure_refuses_a_seed_outside_the_group(name, bad):
    G = CLOSURE_LITERALS[name]() if name in CLOSURE_LITERALS else cached_tower(name).levels[-1]
    with pytest.raises(OutOfRange, match="seed element"):
        closure(G, [1, G.order if bad == "order" else bad])


@pytest.mark.parametrize("build,seed,columns", [
    (lambda: cyclic(64), [], 0),
    (lambda: cyclic(64), [0, 0], 0),
    (lambda: cyclic(64), [8, 0, 8, 8], 1),
    (lambda: cyclic(64), [8, 12, 8], 2),
    (lambda: dihedral(16), [1, 16, 1, 0, 16], 2),
    (lambda: dihedral(16), [2, 17, 18], 3),
    (lambda: s4(), [1, 2, 3], 3),
], ids=["Z64-empty", "Z64-identity", "Z64-repeats", "Z64-two", "D16-repeats", "D16-three",
        "S4-three"])
def test_closure_reads_one_column_per_distinct_non_identity_seed(build, seed, columns):
    G = build()
    real, products_read = G.mul, []

    def counting(a, b):
        out = real(a, b)
        products_read.append(out.size)
        return out

    G.mul = counting
    H = closure(G, seed)
    assert sum(products_read) == columns * G.order
    del G.mul
    table, inv = _oracle_table(G)
    assert frozenset(H.indices().tolist()) == oracle_closure(table, G.identity, inv, seed)


@pytest.mark.parametrize("tower,seed", [
    ("zpn(2,2,6)", "basis"), ("zpn(2,2,6)", [65, 2]), ("zp(5,5)", [5]),
    ("heisenberg(3,2)", "basis"),
])
def test_closure_allocates_no_order_squared_temporary(tower, seed):
    G = cached_tower(tower).levels[-1]
    seed = G.basis if seed == "basis" else seed
    closure(G, seed)  # warm up the caches numpy keeps on a first call
    tracemalloc.start()
    try:
        H = closure(G, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the walk holds n-element columns and masks; an n x n mask takes n^2
    # bytes and the |K| x |K| products of K = G take 8n^2
    assert peak <= 64 * G.order * (len(seed) + 1) < G.order ** 2


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


def _frattini_by_scan(G) -> int:
    """The intersection of the maximal subgroups in G's lattice, as a bitset."""
    bits = (1 << G.order) - 1
    for M in maximal_subgroups(G):
        bits &= M.bits
    return bits


@pytest.mark.parametrize("name", list(TOWER_FACTORIES))
def test_frattini_of_a_p_group_level_is_the_maximal_subgroup_scan(name):
    # a fresh tower: its levels have no lattice, so frattini walks (or, on a
    # cyclic or dihedral level, reads <r^rad(n)>)
    for G in TOWER_FACTORIES[name]().levels:
        assert len(G.primes) == 1
        walked = frattini(G)
        assert G._subgroups is None  # the walk enumerated nothing
        expected = _frattini_by_scan(G)
        assert walked.bits == expected
        assert walked.order == bin(expected).count("1")
        assert frattini(G).bits == expected  # read off the lattice now cached


@pytest.mark.parametrize("n", range(1, 65))
def test_closed_form_frattini_is_the_maximal_subgroup_scan_of_the_table_twin(n):
    # Phi(Z/n) = Phi(D_n) = <r^rad(n)>, read with no lattice; D_1 and D_2 (the
    # Klein four group) have trivial Phi, and an odd n's D_n leaves out the 2
    for G in (cyclic(n), dihedral(n)):
        phi = frattini(G)
        assert G._subgroups is None
        expected = _frattini_by_scan(table_twin(G))
        assert (phi.bits, phi.order) == (expected, bin(expected).count("1")), G.name
    if n <= 2:
        assert frattini(dihedral(n)).order == 1


@pytest.mark.parametrize("name", list(TOWER_FACTORIES))
def test_power_map_matches_the_e_fold_product_on_table_levels(name):
    # the table twin of every level up to order 1024: above it the n + 2
    # cached maps of a level would hold 8n(n + 2) bytes
    for G in [G for G in cached_tower(name).levels if G.order <= 1024]:
        # a copy, so the level's own cache keeps only the maps the library asks for
        H = table_twin(G)
        table, every = products(H), np.arange(H.order)
        fold = np.full(H.order, H.identity)
        for e in range(H.order + 2):
            got = H.power_map(e)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == fold.tolist()
            assert H.power_map(e) is got
            fold = table[fold, every]
        # g^|G| is the identity, so a negative exponent acts as e mod |G|
        for e in range(-H.order - 1, 0):
            got = H.power_map(e)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == H.power_map(e % H.order).tolist(), e


def test_power_map_squares_and_multiplies():
    G = direct_product(cyclic(2039), cyclic(2))
    real, passes = G.mul, []

    def counting(a, b):
        passes.append(np.broadcast(a, b).size)
        return real(a, b)

    G.mul = counting
    first, second = np.divmod(np.arange(G.order), 2)
    for e in [0, 1, 2, 3, 5, 8, 255, 2039, 4096]:
        passes.clear()
        got = G.power_map(e)
        r = e % G.order  # g^order = 1, so e is read mod the order
        assert len(passes) == (r.bit_length() + bin(r).count("1") - 2 if r else 0)
        assert set(passes) <= {G.order}
        assert got.tolist() == ((first * e % 2039) * 2 + second * e % 2).tolist()


def _all_pairs_commutator(G, members) -> frozenset[int]:
    """The subgroup generated by [a, b] = ab(ba)^-1 over all |H|^2 pairs of
    members of H, closed by the pure-Python fixed point."""
    t, inv = products(G), G.inverse(np.arange(G.order)).tolist()
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
    # center reads one column per basis element; the oracle compares every pair
    G = build()
    table = products(G).tolist()
    assert oracle_bits_set(G, [oracle_center(table)]) == {center(G).bits}


def test_conjugate():
    D4 = dihedral(4)
    s_sub = closure(D4, [4])
    conj = conjugate(D4, s_sub, 1)
    assert conj.order == 2
    assert conj.bits != s_sub.bits
    for outside in (-1, 8):  # refused, as closure and centralizer refuse them
        with pytest.raises(OutOfRange, match="outside group of order 8"):
            conjugate(D4, s_sub, outside)


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


def _gathered_coset_unions(G, H, r, c, q):
    """Row j: the union of the cosets c_j^i H_{r_j}, i < max q, gathered for
    every g of G: g lies in c^i H when c^-i g lies in H."""
    K = H.take(r, axis=0)
    y = step = G.inverse(c)
    for _ in range(1, int(q.max())):
        K |= H[r[:, None], G.mul(y[:, None], np.arange(G.order))]
        y = G.mul(y, step)
    return K


COSET_GROUPS = {
    "D8": lambda: dihedral(8), "Heis3": heis3, "S4": lambda: s4(),
    "S3xC4": lambda: direct_product(dihedral(3), cyclic(4)),
    "wilson(3) top": lambda: cached_tower("wilson(3)").levels[-1],
}


@lru_cache(maxsize=None)
def _coset_block(name):
    return _rows_and_members(COSET_GROUPS[name]())


def _rows_and_members(G):
    """A group, the membership rows of its subgroups, and their elements, each
    row padded with the identity."""
    subs = all_subgroups(G)
    members = np.full((len(subs), max(S.order for S in subs)), G.identity)
    for i, S in enumerate(subs):
        members[i, :S.order] = S.indices()
    return G, groups._bits_to_rows([S.bits for S in subs], G.order), members


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_coset_unions_written_from_members_match_the_gather(data):
    G, H, members = _coset_block(data.draw(st.sampled_from(list(COSET_GROUPS)), label="group"))
    size = data.draw(st.integers(1, 6), label="rows")
    r = np.array(data.draw(st.lists(st.integers(0, len(H) - 1), min_size=size, max_size=size)))
    c = np.array(data.draw(st.lists(st.integers(0, G.order - 1), min_size=size, max_size=size)))
    q = np.array(data.draw(st.lists(st.sampled_from([2, 3, 5]), min_size=size, max_size=size)))
    got = groups._coset_unions(G, H, members, r, c, q)
    assert got.dtype == bool
    assert np.array_equal(got, _gathered_coset_unions(G, H, r, c, q))


def _counting_mul(G) -> list:
    """The number of elements of each G.mul call from then on."""
    real, calls = G.mul, []

    def counting(a, b):
        out = real(a, b)
        calls.append(out.size)
        return out

    G.mul = counting
    return calls


@pytest.mark.parametrize("qs,calls", [([2, 2, 2], 1), ([2, 3, 2], 2)])
def test_cosets_of_q_up_to_three_take_one_call_per_power_doubling(qs, calls):
    # one power at a time made 2(q - 1) calls: 2 and 4
    G, H, members = _rows_and_members(s4())
    r, c, q = np.array([0, 3, 5]), np.array([1, 7, 20]), np.array(qs)
    made = _counting_mul(G)
    unions = groups._coset_unions(G, H, members, r, c, q)
    assert len(made) == calls
    del G.mul
    assert np.array_equal(unions, _gathered_coset_unions(G, H, r, c, q))


def test_coset_powers_of_a_large_prime_are_built_by_doubling():
    # Z/2039 x Z/2 has one subgroup of each order 1, 2, 2039 and 4078; one
    # power at a time its cosets made 8,175 mul calls
    G = direct_product(cyclic(2039), cyclic(2))
    made = _counting_mul(G)
    subs = all_subgroups(G)
    assert len(made) < 300
    del G.mul
    assert subs == [closure(G, [g]) for g in (0, 1, 2, 3)]
    assert [s.order for s in subs] == [1, 2, 2039, 4078]


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


def _generic_closures(G, monkeypatch) -> tuple[int, int]:
    """The subgroups the generic path finds in G, and the closures it runs."""
    real, calls = groups.closure, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groups, "closure", counting)
    return len(groups._subgroups_generic(G)), len(calls)


def test_generic_path_closes_once_per_class_of_equivalent_elements(monkeypatch):
    # <H, g> = <H, h g^k h'>: A5 runs one closure per H and element outside H,
    # 3,189 in all, without that rule
    assert _generic_closures(a5(), monkeypatch) == (59, 264)


def test_generic_path_closure_count_on_s5(monkeypatch):
    assert _generic_closures(s5(), monkeypatch) == (156, 1153)


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


@pytest.mark.parametrize("modulus", [10**10 + 19, 2**62 + 135])
def test_matrix_literal_with_a_large_modulus_loads(modulus):
    # diag(-1, 1) has order 2; its entries squared overflowed int64 products
    m = load_group_json({"version": 1, "kind": "matrix", "modulus": modulus,
                         "generators": [[[modulus - 1, 0], [0, 1]]]})
    assert m.order == 2


def test_load_group_json_requires_version():
    with pytest.raises(SpecError):
        load_group_json({"kind": "cyclic", "n": 4})
    with pytest.raises(SpecError):
        load_group_json({"version": 1, "kind": "nonsense"})


def test_bad_table_rejected():
    with pytest.raises(WrongShape):
        FiniteGroup([[0, 1], [1, 1]])  # not a group


def _oracle_is_group(table) -> bool:
    """A two-sided identity, associativity on every triple, and a two-sided
    inverse of every element."""
    n = len(table)
    ids = [e for e in range(n) if all(table[e][a] == a == table[a][e] for a in range(n))]
    return bool(ids) and oracle_is_associative(table) and all(
        any(table[a][b] == ids[0] == table[b][a] for b in range(n)) for a in range(n))


def test_group_check_matches_group_oracle_on_every_3x3_table_with_identity_0():
    # the four cells off row and column 0 take every value; some tables are
    # associative and generated by one element but have no inverses, as the
    # monoid {1, a, a^2 = a^3}
    tables = [[[0, 1, 2], [1, a, b], [2, c, d]] for a, b, c, d in product(range(3), repeat=4)]
    accepted = []
    for table in tables:
        try:
            FiniteGroup(table)
            accepted.append(True)
        except WrongShape:
            accepted.append(False)
    assert accepted == [_oracle_is_group(table) for table in tables]
    assert sum(accepted) == 1  # Z3
    with pytest.raises(WrongShape, match="inverse"):
        FiniteGroup([[0, 1, 2], [1, 2, 2], [2, 2, 2]])


def test_monoid_whose_second_basis_element_has_no_inverse_rejected():
    # Z2 x ({0, 1}, or), element 2a + b for (a, b): the basis is [2, 1], and
    # 2 = (1, 0) is invertible but 1 = (0, 1) is not
    table = [[2 * ((a + c) % 2) + (b | d) for c in range(2) for d in range(2)]
             for a in range(2) for b in range(2)]
    assert oracle_is_associative(table) and not _oracle_is_group(table)
    with pytest.raises(WrongShape, match="without a two-sided inverse"):
        FiniteGroup(table, generators=[2, 1])


def test_map_check_allocates_a_few_bytes_a_source_element():
    # the reduction Z/11^6 -> Z/11^5 is checked on every element times the
    # identity and the basis in blocks; whole-map temporaries took 56 bytes
    # a source element
    source, target = cyclic(11**6), cyclic(11**5)
    mapping = np.arange(source.order) % target.order
    Homomorphism(cyclic(4), cyclic(2), [0, 1, 0, 1])  # warm up numpy's caches
    tracemalloc.start()
    try:
        hom = Homomorphism(source, target, mapping)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hom.surjective and hom.map is mapping
    assert peak <= 4 * source.order


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_box_map_matches_ravel_of_mapped_coordinates(data):
    shape = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    box = data.draw(st.lists(st.integers(1, 5), min_size=len(shape), max_size=len(shape)))
    maps = [np.array(data.draw(st.lists(st.integers(0, b - 1), min_size=h, max_size=h)),
                     dtype=np.int64) for h, b in zip(shape, box)]
    coords = np.unravel_index(np.arange(np.prod(shape)), shape)
    expected = np.ravel_multi_index([f[c] for f, c in zip(maps, coords)], box)
    assert groups.box_map(maps, box).tolist() == expected.tolist()


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
        t = products(G)
        table = np.empty_like(t)
        table[np.ix_(pi, pi)] = pi[t]
        G = FiniteGroup(table)
    assert G.is_abelian() == oracle_is_abelian(products(G))


def test_stored_generators_must_generate():
    with pytest.raises(WrongShape, match="do not generate"):
        FiniteGroup(table_twin(cyclic(4)).table, generators=[2])


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
    assert got.tolist() == table_twin(G).table.tolist()


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
    G = cyclic(n)
    T = table_twin(G)
    assert isinstance(G, groups.CyclicGroup) and not hasattr(G, "table")
    assert products(G).tolist() == T.table.tolist()
    assert G.mul(n - 1, 1 % n) == T.mul(n - 1, 1 % n) and isinstance(G.mul(0, 0), np.integer)
    # the inverse is a closed form, not an array kept per element
    every = np.arange(n)
    assert not hasattr(G, "inv") and not hasattr(T, "inv")
    assert G.inverse(every).tolist() == T.inverse(every).tolist()
    assert (G.mul(every, G.inverse(every)) == 0).all()
    for e in range(-n - 1, n + 2):
        got, expected = G.power_map(e), T.power_map(e)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist(), e
        assert expected.tolist() == T.power_map(e % n).tolist(), e
        assert not got.flags.writeable and not expected.flags.writeable
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
    return products(G).tolist(), G.inverse(np.arange(G.order)).tolist()


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
        assert products(dihedral(n)).tolist() == expected


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
    derived, parents, full_preimage = target_subgroups(proj)
    assert V._subgroups is not None
    assert [s.order for s in derived] == [1, 2, 2, 2, 4]
    over = [K for K in all_subgroups(G) if K.contains(2)]
    assert {s.bits for s in derived} == {proj.image_subgroup(K).bits for K in over}
    assert [(s.order, s.bits) for s in all_subgroups(V)] == [(s.order, s.bits) for s in derived]
    # the parent of each subgroup of D4 is its image, and each full preimage
    # is the one subgroup over r^2 with that image
    index = {s.bits: i for i, s in enumerate(derived)}
    assert parents.tolist() == [index[proj.image_subgroup(K).bits] for K in all_subgroups(G)]
    assert [all_subgroups(G)[j] for j in full_preimage] == [
        proj.preimage_subgroup(s) for s in derived]
    assert set(full_preimage.tolist()) == {all_subgroups(G).index(K) for K in over}


def test_target_subgroups_keeps_a_cached_list():
    # a constant tower's levels are one group: its own list is returned, also
    # along a map that is an automorphism, not the identity
    G = dihedral(4)
    all_subgroups(G)
    own = G._subgroups
    conj = G.mul(G.mul(G.inverse(4), np.arange(G.order)), 4).tolist()
    for mapping in (list(range(G.order)), conj):
        hom = Homomorphism(G, G, mapping)
        subs, parents, full_preimage = target_subgroups(hom)
        assert subs == own
        assert G._subgroups is own
        # an automorphism links each subgroup to its image both ways
        images = [own.index(hom.image_subgroup(s)) for s in own]
        assert parents.tolist() == images
        assert full_preimage[parents].tolist() == list(range(len(own)))
    assert conj != list(range(G.order))
    assert images != list(range(len(own)))


@pytest.mark.parametrize("m", range(1, 129))
def test_cyclic_target_subgroups_match_the_table_twins_on_every_onto_map(m):
    # every surjective Z/m -> Z/n is a -> a*u mod n for n | m and a unit u
    # mod n, the reduction twisted by an automorphism of Z/n; the closed
    # form's nodes and links equal the image pass on the table twins and the
    # per-node link oracle
    maps, upper = 0, table_twin(cyclic(m))
    for n in (n for n in range(1, m + 1) if m % n == 0):
        lower = table_twin(cyclic(n))
        for u in (u for u in range(n) if np.gcd(u, n) == 1):
            mapping = (np.arange(m) * u % n).tolist()
            t = custom_tower([cyclic(n), cyclic(m)], [mapping])
            subs, parents, full_preimage = target_subgroups(t.map_down(1))
            twin = target_subgroups(Homomorphism(upper, lower, mapping))
            assert [(s.order, s.bits) for s in subs] == [(s.order, s.bits) for s in twin[0]]
            assert parents.tolist() == twin[1].tolist()
            assert full_preimage.tolist() == twin[2].tolist()
            assert ([parents.tolist()], [full_preimage.tolist()]) == oracle_links(t)
            maps += 1
    assert maps == m  # the units mod n, summed over n | m, are m in all


@pytest.mark.parametrize("n", range(1, 65))
def test_dihedral_closed_form_matches_its_table_twin(n):
    # dihedral(n) holds no table; its twin runs the fill, the identity and
    # inverse checks and Light's test on the table of the rows of r and s.
    # The closed form equals cyclic extension on that table, and on the
    # small levels the brute-force closure oracle
    D = dihedral(n)
    twin = table_twin(D)
    assert isinstance(D, groups.DihedralGroup) and D.n == n and not hasattr(D, "table")
    assert (D.basis, D.generators, D.name) == (twin.basis, twin.generators, f"D{n}")
    assert products(D).tolist() == twin.table.tolist()
    every = np.arange(2 * n)
    assert not hasattr(D, "inv") and not hasattr(twin, "inv")
    assert D.inverse(every).tolist() == twin.inverse(every).tolist()
    assert (D.mul(every, D.inverse(every)) == 0).all() and D.identity == twin.identity == 0
    assert D.primes == twin.primes and D.is_abelian() == twin.is_abelian() == (n <= 2)
    for e in range(-2 * n - 1, 2 * n + 2):
        got, expected = D.power_map(e), twin.power_map(e)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist(), e
    assert [D.element_label(a) for a in range(2 * n)] == (
        [f"r{j}" for j in range(n)] + [f"sr{j}" for j in range(n)])
    subs = all_subgroups(D)
    assert [(H.order, H.bits) for H in subs] == [
        (H.order, H.bits) for H in groups._subgroups_cyclic_extension(twin)]
    assert len(subs) == tau_plus_sigma(n)
    if n <= 8:
        assert {H.bits for H in subs} == oracle_bits_set(D, oracle_subgroups(D))


# the number of onto maps D_m -> D_n: for n >= 3, phi(n)·n (r to a rotation of
# order n, s to any reflection); for the Klein four group D_2, its 6
# automorphisms; for D_1 = Z/2, the 3 non-trivial characters of D_m / <r^2>
# for even m, and 1 for odd m
DIHEDRAL_ONTO_MAPS = {(2, 1): 3, (4, 1): 3, (4, 2): 6, (4, 4): 8, (6, 2): 6, (6, 3): 6,
                      (8, 2): 6, (8, 4): 8, (9, 3): 6, (12, 4): 8, (16, 8): 32}


def _maps_by_images(source_n: int, target: FiniteGroup, x: int, y: int) -> list[int]:
    """The map of a D_m with m = source_n that sends r^j to x^j and s r^j to y x^j."""
    powers = [target.identity]
    for _ in range(1, source_n):
        powers.append(int(target.mul(powers[-1], x)))
    return powers + [int(target.mul(y, p)) for p in powers]


@pytest.mark.parametrize("m,n", list(DIHEDRAL_ONTO_MAPS))
def test_dihedral_links_match_the_image_pass_on_every_onto_map(m, n):
    # each onto map is given by the images x of r and y of s; twisted maps and
    # Klein four targets included, the generator-image links equal the image
    # pass on the table twins and the per-node link oracle
    Dm, Dn = dihedral(m), dihedral(n)
    upper, lower, maps = table_twin(Dm), table_twin(Dn), 0
    for x in range(2 * n):
        for y in range(2 * n):
            mapping = _maps_by_images(m, Dn, x, y)
            try:
                hom = Homomorphism(Dm, Dn, mapping)
            except WrongShape:
                continue
            if not hom.surjective:
                continue
            subs, parents, full_preimage = target_subgroups(hom)
            twin = target_subgroups(Homomorphism(upper, lower, mapping))
            assert [(s.order, s.bits) for s in subs] == [(s.order, s.bits) for s in twin[0]]
            assert parents.tolist() == twin[1].tolist(), (x, y)
            assert full_preimage.tolist() == twin[2].tolist(), (x, y)
            t = custom_tower([Dn, Dm], [mapping])
            assert ([parents.tolist()], [full_preimage.tolist()]) == oracle_links(t)
            maps += 1
    assert maps == DIHEDRAL_ONTO_MAPS[m, n]


@pytest.mark.parametrize("source,target,mapping", [
    (lambda: dihedral(4), lambda: cyclic(2), [0, 0, 0, 0, 1, 1, 1, 1]),
    (lambda: dihedral(4), lambda: cyclic(2), [0, 1, 0, 1, 0, 1, 0, 1]),
    (lambda: dihedral(4), lambda: cyclic(2), [0, 1, 0, 1, 1, 0, 1, 0]),
    (lambda: dihedral(5), lambda: cyclic(2), [0] * 5 + [1] * 5),
    (lambda: dihedral(6), lambda: cyclic(1), [0] * 12),
    (lambda: cyclic(2), lambda: dihedral(1), [0, 1]),
    (lambda: cyclic(6), lambda: dihedral(1), [0, 1, 0, 1, 0, 1]),
    (lambda: dihedral(1), lambda: cyclic(2), [0, 1]),
], ids=["D4-by-s", "D4-by-r", "D4-by-rs", "D5-sign", "D6-trivial", "C2-D1", "C6-D1", "D1-C2"])
def test_links_between_cyclic_and_dihedral_levels_match_the_image_pass(source, target, mapping):
    # a cyclic and a dihedral level share the closed-form rule both ways
    S, T = source(), target()
    got = target_subgroups(Homomorphism(S, T, mapping))
    twin = target_subgroups(Homomorphism(FiniteGroup(products(S)), FiniteGroup(products(T)),
                                         mapping))
    assert [(s.order, s.bits) for s in got[0]] == [(s.order, s.bits) for s in twin[0]]
    assert got[1].tolist() == twin[1].tolist()
    assert got[2].tolist() == twin[2].tolist()


def test_constant_tower_keeps_its_group_list():
    G = dihedral(4)
    t = custom_tower([G, G, G], [list(range(G.order))] * 2)
    lt = build_lattice_tower(t)
    own = G._subgroups
    assert lt.node_bits == [[s.bits for s in own]] * 3
    build_lattice_tower(t)
    assert G._subgroups is own


# -- oracles that scale: Frobenius's congruence, and relabeled literals ------------

# three larger towers, then every built-in tower
FROBENIUS_TOWERS = {
    "dihedral2(10)": lambda: make_dihedral2(10), "zpn(2,2,6)": lambda: make_zpn(2, 2, 6),
    "wilson(4)": lambda: make_wilson(4), **{name: partial(cached_tower, name) for name in BUILTIN_NAMES},
}


@pytest.mark.parametrize("name", FROBENIUS_TOWERS)
def test_prime_power_subgroup_counts_are_one_mod_p(name):
    # Frobenius: for p^a dividing |G| the subgroups of order p^a number 1 mod p;
    # at the full p-part (Sylow) their number also divides |G| / p^a
    for G in FROBENIUS_TOWERS[name]().levels:
        counts = Counter(H.order for H in all_subgroups(G))
        for p in G.primes:
            a = 0
            while G.order % p ** (a + 1) == 0:
                a += 1
            for b in range(a + 1):
                assert counts[p**b] % p == 1
            assert (G.order // p**a) % counts[p**a] == 0


LITERALS = {"D4": lambda: dihedral(4), "Q8": quaternion8, "S4": s4, "A4": a4, "Heis3": heis3,
            "E8": lambda: direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))}
# products whose insoluble-path enumeration takes well under a second; those
# of E8 = (Z/2)^3 run many rounds of cyclic extension a block
LITERAL_PRODUCTS = [("D4", "D4"), ("D4", "Q8"), ("D4", "A4"), ("Q8", "Q8"), ("Q8", "A4"),
                    ("Q8", "Heis3"), ("A4", "A4"), ("A4", "D4"), ("E8", "Q8"), ("E8", "D4")]


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
    # every subgroup of these groups is generated by two elements, and of E8 by three
    G = _literal((name,))
    found = {H.bits for H in groups._subgroups_cyclic_extension(G)}
    assert found == oracle_bits_set(G, oracle_subgroups(G, gen_bound=3 if name == "E8" else 2))
    assert found == set(groups._subgroups_generic(G))


@given(names=st.sampled_from([(n,) for n in LITERALS] + LITERAL_PRODUCTS), rnd=st.randoms())
@settings(max_examples=30, deadline=None)
def test_cyclic_extension_matches_generic_on_relabeled_literals(names, rnd):
    # the group with element a renamed image[a]: its subgroups are the renamed ones
    G = _literal(names)
    image = list(range(G.order))
    rnd.shuffle(image)
    image = np.array(image)
    t = products(G)
    table = np.empty_like(t)
    table[np.ix_(image, image)] = image[t]
    R = FiniteGroup(table)
    found = groups._subgroups_cyclic_extension(R)
    expected = {sum(1 << int(x) for x in image[members]) for members in _generic_subgroups(names)}
    assert {H.bits for H in found} == expected
    assert [(H.order, H.bits) for H in found] == sorted((H.order, H.bits) for H in found)


def _gathered_image(hom: Homomorphism, H):
    """The image of H gathered from the images of its elements."""
    return groups._subgroup_of(hom.target, hom.map[H.indices()])


def _assert_images_read_from_keys(homs, monkeypatch):
    """image_subgroup of every subgroup of each hom's source equals the
    gathered image, and reads no element array of the subgroup."""
    cases = [(hom, H) for hom in homs for H in all_subgroups(hom.source)]
    gathered = [_gathered_image(hom, H) for hom, H in cases]
    with monkeypatch.context() as m:
        m.setattr(groups.Subgroup, "indices", None)  # the gather reads H.indices()
        images = [hom.image_subgroup(H) for hom, H in cases]
    assert [(s.parent, s.bits, s.order) for s in images] == [
        (s.parent, s.bits, s.order) for s in gathered]
    return len(cases)


@pytest.mark.parametrize("factory", [lambda: make_zp(2, 6), lambda: make_zp(3, 4),
                                     lambda: make_dihedral2(6)],
                         ids=["zp(2,6)", "zp(3,4)", "dihedral2(6)"])
def test_image_subgroup_between_tower_levels_reads_the_key(factory, monkeypatch):
    t = factory()
    homs = [t.map_down(k) for k in range(1, t.depth)]
    cases = _assert_images_read_from_keys(homs, monkeypatch)
    assert cases == sum(len(all_subgroups(G)) for G in t.levels[1:])


@pytest.mark.parametrize("m,n", list(DIHEDRAL_ONTO_MAPS))
def test_image_subgroup_reads_the_key_on_every_dihedral_map(m, n, monkeypatch):
    # every homomorphism D_m -> D_n, twisted and not onto ones included
    Dm, Dn = dihedral(m), dihedral(n)
    homs = []
    for x in range(2 * n):
        for y in range(2 * n):
            try:
                homs.append(Homomorphism(Dm, Dn, _maps_by_images(m, Dn, x, y)))
            except WrongShape:
                continue
    assert sum(hom.surjective for hom in homs) == DIHEDRAL_ONTO_MAPS[m, n]
    _assert_images_read_from_keys(homs, monkeypatch)


def test_image_subgroup_reads_the_key_between_cyclic_and_dihedral_levels(monkeypatch):
    # every homomorphism between Z/m or D_m and Z/n or D_n, m, n <= 6, given
    # by the images of r (and s)
    homs = []
    for S, T in product([f(m) for f in (cyclic, dihedral) for m in range(1, 7)], repeat=2):
        for x in range(T.order):
            powers = [0]
            for _ in range(1, S.n):
                powers.append(int(T.mul(powers[-1], x)))
            for y in range(T.order) if S.order > S.n else [None]:
                mapping = powers if y is None else powers + [int(T.mul(y, p)) for p in powers]
                try:
                    homs.append(Homomorphism(S, T, mapping))
                except WrongShape:
                    continue
    assert _assert_images_read_from_keys(homs, monkeypatch) > 1000
