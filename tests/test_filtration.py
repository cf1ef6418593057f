"""Filtration semantics and structural property tests."""

import math

import pytest

from conftest import BUILTIN_NAMES, cached_tower, valid_products
from subgroup_atlas.filtration import (
    cb_filtration,
    conjugation_audit,
    conjugation_orbits,
    default_max_rank,
    height_bound_audit,
    solitary_candidates,
)
from subgroup_atlas.lattice import build_lattice_tower, isolated_nodes
from subgroup_atlas.towers import make_product, make_zp, truncate


def _analysis(t):
    lt = build_lattice_tower(t)
    rep = cb_filtration(lt, default_max_rank(t.depth, len(t.primes)))
    return lt, rep


def test_zp23_rank1_is_trivial_thread():
    lt, rep = _analysis(make_zp(2, 3))
    assert [len(s) for s in rep.survivors[1]] == [1, 1]
    for k in (1, 2):
        (node,) = rep.survivors[1][k - 1]
        assert lt.node_orders[k - 1][node] == 1
    assert rep.apparent_height.bounded and rep.apparent_height.value == 2


def test_zp24_solitary_is_trivial_thread():
    lt, rep = _analysis(cached_tower("zp(2,4)"))
    assert [sorted(s) for s in rep.solitary] == [[0], [0]]
    assert rep.apparent_height.value == 2


def test_zpn_pelczynski_pattern():
    lt, rep = _analysis(cached_tower("zpn(2,2,4)"))
    assert rep.apparent_height.value == 1
    assert all(not s for s in rep.solitary)
    lt3, rep3 = _analysis(cached_tower("zpn(3,2,3)"))
    assert rep3.apparent_height.value == 1
    assert all(not s for s in rep3.solitary)


def test_dihedral_solitary_and_height():
    lt, rep = _analysis(cached_tower("dihedral2(4)"))
    assert rep.apparent_height.value == 2
    assert [sorted(s) for s in rep.solitary] == [[0], [0]]
    # reflection nodes are rank-1 survivors but never candidates
    for k in (1, 2):
        refl = {
            i
            for i in rep.survivors[1][k - 1]
            if lt.node_orders[k - 1][i] == 2 and i != 0
        }
        assert refl
        assert not refl & rep.solitary[k - 1]


def test_two_prime_product_height_three():
    t = make_product([cached_tower("zp(2,4)"), cached_tower("zp(3,4)")])
    lt, rep = _analysis(t)
    assert rep.apparent_height.value == 3
    assert height_bound_audit(t, rep)


def test_three_prime_product_depth3_exhausts_horizon():
    t = make_product([make_zp(2, 3), make_zp(3, 3), make_zp(5, 3)])
    lt, rep = _analysis(t)
    assert not rep.apparent_height.bounded
    assert rep.apparent_height.unbounded_at == 3
    assert height_bound_audit(t, rep)


def test_three_prime_product_depth5_attains_four():
    t = make_product(
        [cached_tower("zp(2,5)"), cached_tower("zp(3,5)"), cached_tower("zp(5,5)")]
    )
    lt, rep = _analysis(t)
    assert rep.apparent_height.bounded
    assert rep.apparent_height.value == 4 == len(t.primes) + 1
    assert height_bound_audit(t, rep)


def test_four_prime_product_depth6_attains_five(monkeypatch):
    # four primes need depth 6, and zp(7, 6) has order 7^6 = 117,649: above
    # the default cap, and a table-free cyclic level
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", "117649")
    t = make_product([make_zp(p, 6) for p in (2, 3, 5, 7)])
    lt, rep = _analysis(t)
    assert rep.apparent_height.bounded
    assert rep.apparent_height.value == 5 == len(t.primes) + 1
    assert height_bound_audit(t, rep)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_truncation_stability(name):
    t = cached_tower(name)
    if t.depth < 3:
        pytest.skip("needs two comparable depths")
    lt_full, rep_full = _analysis(t)
    t_short = truncate(t, t.depth - 1)
    lt_short, rep_short = _analysis(t_short)
    shared = min(rep_full.max_rank, rep_short.max_rank)
    for r in range(shared + 1):
        for k in range(1, t_short.depth - r + 1):
            assert rep_full.survivors[r][k - 1] == rep_short.survivors[r][k - 1]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_apparent_isolated_antitone_in_depth(name):
    t = cached_tower(name)
    if t.depth < 3:
        pytest.skip("needs two comparable depths")
    lt_full = build_lattice_tower(t)
    lt_short = build_lattice_tower(truncate(t, t.depth - 1))
    for k in range(1, t.depth - 1):
        assert isolated_nodes(lt_full, k) <= isolated_nodes(lt_short, k)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_index_monotone_along_edges(name):
    lt = build_lattice_tower(cached_tower(name))
    for k in range(2, lt.depth + 1):
        for i in range(lt.node_count(k)):
            p = lt.parent_of(k, i)
            assert lt.node_index_in_group(k, i) >= lt.node_index_in_group(k - 1, p)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_downward_closure_of_survivors(name):
    t = cached_tower(name)
    lt, rep = _analysis(t)
    for r in range(1, rep.max_rank + 1):
        for k in range(2, t.depth - r + 1):
            for i in rep.survivors[r][k - 1]:
                assert lt.parent_of(k, i) in rep.survivors[r][k - 2]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_conjugation_rank_invariance(name):
    t = cached_tower(name)
    lt, rep = _analysis(t)
    assert conjugation_audit(lt, rep)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_height_bound_builtins(name):
    t = cached_tower(name)
    lt, rep = _analysis(t)
    assert height_bound_audit(t, rep)
    if rep.apparent_height.bounded:
        assert rep.apparent_height.value <= len(t.primes) + 1


def test_height_bound_products():
    for label, t in valid_products():
        lt, rep = _analysis(t)
        assert height_bound_audit(t, rep), label


def test_product_orbits_are_products_of_factor_orbits():
    # grouped by the factors' orbit tuples, one node at a time
    for label, t in valid_products(2):
        lt = build_lattice_tower(t)
        parts = lt.factor_lattices
        for k in range(1, lt.depth + 1):
            rows = lt.node_factor_idx[k - 1].tolist()
            for i, row in enumerate(rows):
                orders = [p.node_orders[k - 1][c] for p, c in zip(parts, row)]
                assert lt.node_orders[k - 1][i] == math.prod(orders), label
            orbit_of = [
                {i: n for n, orbit in enumerate(conjugation_orbits(p, k)) for i in orbit}
                for p in parts
            ]
            groups: dict[tuple, list[int]] = {}
            for i, row in enumerate(rows):
                key = tuple(o[c] for o, c in zip(orbit_of, row))
                groups.setdefault(key, []).append(i)
            assert conjugation_orbits(lt, k) == [groups[key] for key in sorted(groups)], label


def test_threads_index_monotone():
    for name in BUILTIN_NAMES:
        lt = build_lattice_tower(cached_tower(name))
        for k in range(1, lt.depth + 1):
            for i in range(lt.node_count(k)):
                th = lt.thread_from(k, i)
                assert th.index_seq == sorted(th.index_seq), name
                # full-preimage threads have constant index
                assert len(set(th.index_seq)) == 1, name


def test_solitary_candidates_merging():
    t = cached_tower("zp(2,4)")
    lt, rep = _analysis(t)
    plain = solitary_candidates(rep)
    assert [(c.level, c.index, c.status) for c in plain] == [
        (1, 0, "Empirical"),
        (2, 0, "Empirical"),
    ]
    merged = solitary_candidates(rep, {(1, 0): ["x"], (3, 0): ["y"]})
    by_key = {(c.level, c.index): c for c in merged}
    assert by_key[(1, 0)].status == "Certified"
    assert by_key[(3, 0)].status == "Certified"
    assert by_key[(2, 0)].status == "Empirical"


def test_apparent_rank_censoring():
    t = cached_tower("zp(2,4)")
    lt, rep = _analysis(t)
    assert rep.apparent_rank(1, 0) == 1  # trivial node: rank exactly 1
    full = lt.node_count(1) - 1
    assert rep.apparent_rank(1, full) == 0
