"""Lattice tower structure tests."""

import copy
import hashlib
import json
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    BUILTIN_NAMES,
    TOWER_FACTORIES,
    cached_tower,
    oracle_chain_nodes,
    oracle_children,
    oracle_density_counterexamples,
    oracle_fiber,
    oracle_links,
    oracle_subgroups,
    oracle_survivors,
    products,
    table_twin,
    tau_plus_sigma,
    valid_products,
)
from subgroup_atlas import groups
from subgroup_atlas import lattice as lattice_mod
from subgroup_atlas.classify import analyze_tower
from subgroup_atlas.errors import OutOfRange, WrongShape
from subgroup_atlas.filtration import cb_filtration
from subgroup_atlas.groups import (BLOCK_CELLS, all_subgroups, closure, cyclic,
                                   dihedral, target_subgroups)
from subgroup_atlas.lattice import (
    basic_open_fiber,
    build_lattice_tower,
    chain_apparent_nodes,
    density_check,
    isolated_nodes,
    to_dot,
)
from subgroup_atlas.towers import (
    build_tower,
    custom_tower,
    direct_product_tower,
    make_dihedral2,
    make_product,
    make_zp,
    make_zpn,
    parse_tower_spec,
    truncate,
)


# sha256 prefixes of node_bits and parents as computed with the per-candidate
# normalizer test; the batched test must reproduce them exactly
LATTICE_DIGESTS = {
    "zp(2,4)": "1d0d46e4c9387a2f",
    "zp(3,4)": "457449a0240eb184",
    "zp(5,4)": "f20cea7bfd2da516",
    "zpn(2,2,4)": "2ea5a6cc249eb877",
    "zpn(3,2,3)": "8ed5777edfa7aa11",
    "heisenberg(3,2)": "855150b040df187a",
    "dihedral2(4)": "16d3062c134e2391",
    "wilson(3)": "44e8cddf278bd260",
    "pirim(2)": "6b8fddb194d08fc5",
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_lattice_unchanged(name):
    lt = build_lattice_tower(cached_tower(name))
    doc = {
        "node_bits": [None if b is None else [format(x, "x") for x in b] for b in lt.node_bits],
        "parents": [[int(x) for x in p] for p in lt.parents],
    }
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    assert digest[:16] == LATTICE_DIGESTS[name]


# sha256 prefixes of full_preimage as computed when the tree was stored as
# child lists beside the parent arrays
FULL_PREIMAGE_DIGESTS = {
    "zp(2,4)": "69aad986fa40ca06",
    "zp(3,4)": "69aad986fa40ca06",
    "zp(5,4)": "69aad986fa40ca06",
    "zpn(2,2,4)": "b3524803b5054af0",
    "zpn(3,2,3)": "2ffed5ba0ff10843",
    "heisenberg(3,2)": "97f593019801f55d",
    "dihedral2(4)": "5ba12297fafbc806",
    "wilson(3)": "00a01a7cd4d2880f",
    "pirim(2)": "9a10da7053708f43",
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_full_preimage_unchanged(name):
    lt = build_lattice_tower(cached_tower(name))
    doc = [[int(x) for x in fp] for fp in lt.full_preimage]
    digest = hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()
    assert digest[:16] == FULL_PREIMAGE_DIGESTS[name]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_links_match_per_node_oracle(name):
    t = cached_tower(name)
    lt = build_lattice_tower(t)
    parents, full_preimage = oracle_links(t)
    assert [p.tolist() for p in lt.parents] == parents
    assert [fp.tolist() for fp in lt.full_preimage] == full_preimage


def test_closed_form_node_counts():
    # D_n of order 2n has tau(n) + sigma(n) subgroups, and Z/p^k has k + 1
    lt = build_lattice_tower(make_dihedral2(10))
    assert lt.counts_per_level() == [tau_plus_sigma(lt.level_orders[k] // 2) for k in range(10)]
    for p, depth in ((2, 11), (3, 6), (5, 4)):
        lt = build_lattice_tower(make_zp(p, depth))
        assert lt.counts_per_level() == list(range(2, depth + 2))


def test_top_level_enumeration_and_links_stay_within_blocks():
    # the membership matrices are read in blocks, so the peak is a few blocks'
    # worth of bytes; a (rows x n x generators) index array would be megabytes
    t = make_dihedral2(8)
    for G in t.levels[:-1]:
        all_subgroups(G)
    tracemalloc.start()
    try:
        all_subgroups(t.levels[-1])
        build_lattice_tower(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * BLOCK_CELLS


def test_node_counts():
    lt = build_lattice_tower(make_zp(2, 3))
    assert lt.counts_per_level() == [2, 3, 4]
    lt2 = build_lattice_tower(cached_tower("zpn(3,2,2)"))
    assert lt2.node_count(1) == 6
    ltp = build_lattice_tower(make_product([make_zp(2, 2), make_zp(3, 2)]))
    assert ltp.node_count(1) == 4


def test_parent_child_invariants():
    for name in ("zp(2,4)", "zpn(3,2,2)", "dihedral2(4)", "pirim(2)"):
        lt = build_lattice_tower(cached_tower(name))
        for k in range(1, lt.depth):
            par, fp = lt.parents[k - 1], lt.full_preimage[k - 1]
            n_lo, n_hi = lt.node_count(k), lt.node_count(k + 1)
            assert par.dtype == fp.dtype == np.int64
            assert par.shape == (n_hi,) and fp.shape == (n_lo,)
            # the induced map is onto: every node has a child
            assert np.array_equal(np.unique(par), np.arange(n_lo))
            # each full preimage is a child of its node
            assert np.array_equal(par[fp], np.arange(n_lo))
            assert fp.max() < n_hi
            for i in range(n_lo):
                # group index of the full preimage equals the node's index
                assert lt.node_index_in_group(k + 1, int(fp[i])) == lt.node_index_in_group(k, i)


def test_fiber_trivial_cases():
    lt = build_lattice_tower(make_zp(2, 3))
    for k in range(1, 4):
        for i in range(lt.node_count(k)):
            assert basic_open_fiber(lt, k, i, 0) == [i]


def test_fiber_zp_triv_two_up():
    lt = build_lattice_tower(make_zp(2, 3))
    fiber = basic_open_fiber(lt, 1, 0, 2)
    # all level-3 subgroups contained in the kernel of Z/8 -> Z/2
    ker_bits = 0
    for x in (0, 2, 4, 6):
        ker_bits |= 1 << x
    expected = [
        i for i, b in enumerate(lt.node_bits[2]) if (b & ~ker_bits) == 0
    ]
    assert fiber == expected
    assert [lt.node_orders[2][i] for i in fiber] == [1, 2, 4]


def test_fiber_matches_kn_criterion():
    # every fiber is cross-checked against the K*ker = preimage test
    for name in ("zp(2,3)", "zpn(3,2,2)"):
        t = cached_tower(name) if name != "zp(2,3)" else make_zp(2, 3)
        lt = build_lattice_tower(t)
        for k in range(1, lt.depth):
            for i in range(lt.node_count(k)):
                for j in range(1, min(2, lt.depth - k) + 1):
                    basic_open_fiber(lt, k, i, j)


def test_fiber_checks_the_kernel_once(monkeypatch):
    calls = []
    real = lattice_mod.is_normal

    def counting(G, H):
        calls.append(H.order)
        return real(G, H)

    monkeypatch.setattr(lattice_mod, "is_normal", counting)
    lt = build_lattice_tower(cached_tower("wilson(3)"))
    made = 0
    for k, j in ((1, 1), (1, 2), (2, 1)):
        for i in range(lt.node_count(k)):
            basic_open_fiber(lt, k, i, j)
            made += 1
            assert len(calls) == made
    basic_open_fiber(lt, 2, 0, 0)  # no kernel to check
    assert len(calls) == made


def test_fiber_criterion_sees_a_wrong_parent():
    lt = build_lattice_tower(cached_tower("zpn(3,2,3)"))
    broken = copy.deepcopy(lt)
    par = broken.parents[1]
    moved = int(np.flatnonzero(par != par[0])[0])
    par[0], par[moved] = par[moved], par[0]
    with pytest.raises(WrongShape, match="K\\*ker"):
        basic_open_fiber(broken, 2, int(par[0]), 1)


def test_fiber_out_of_range():
    lt = build_lattice_tower(make_zp(2, 3))
    with pytest.raises(OutOfRange):
        basic_open_fiber(lt, 2, 0, 5)


# zp(2,3) has 2, 3 and 4 nodes at levels 1, 2 and 3: each (level, node) lies outside them
ZP23_NODES_OUTSIDE = [(0, 0), (1, 2), (2, -1), (4, 0)]


@pytest.mark.parametrize("k", [0, 4, -1])
def test_node_count_refuses_a_level_outside_the_lattice(k):
    with pytest.raises(OutOfRange):
        build_lattice_tower(make_zp(2, 3)).node_count(k)


@pytest.mark.parametrize("k,i", ZP23_NODES_OUTSIDE)
def test_node_index_in_group_refuses_a_node_outside_the_lattice(k, i):
    with pytest.raises(OutOfRange):
        build_lattice_tower(make_zp(2, 3)).node_index_in_group(k, i)


@pytest.mark.parametrize("k,i", ZP23_NODES_OUTSIDE)
def test_subgroup_refuses_a_node_outside_the_lattice(k, i):
    with pytest.raises(OutOfRange):
        build_lattice_tower(make_zp(2, 3)).subgroup(k, i)


@pytest.mark.parametrize("k,i", [(1, 2), (1, 0), (2, 3), (3, -1), (4, 0)])
def test_parent_of_refuses_a_node_without_a_parent_in_the_lattice(k, i):
    with pytest.raises(OutOfRange):
        build_lattice_tower(make_zp(2, 3)).parent_of(k, i)


@pytest.mark.parametrize("k,i", ZP23_NODES_OUTSIDE)
def test_thread_from_refuses_a_node_outside_the_lattice(k, i):
    with pytest.raises(OutOfRange):
        build_lattice_tower(make_zp(2, 3)).thread_from(k, i)


def test_isolated_nodes_examples():
    lt = build_lattice_tower(cached_tower("zp(2,4)"))
    for k in range(1, 4):
        full = lt.node_count(k) - 1  # canonical order puts the full group last
        assert full in isolated_nodes(lt, k)

    ltd = build_lattice_tower(cached_tower("dihedral2(4)"))
    for k in range(1, 4):
        G = ltd.tower.level(k)
        rot = closure(G, [1])  # the rotations
        rot_idx = ltd.node_bits[k - 1].index(rot.bits)
        assert rot_idx in isolated_nodes(ltd, k)

    ltn = build_lattice_tower(cached_tower("zpn(3,2,2)"))
    assert 0 not in isolated_nodes(ltn, 1)  # trivial node branches


def test_chain_apparent_vs_isolated():
    lt = build_lattice_tower(cached_tower("zp(2,4)"))
    for k in range(1, 4):
        assert isolated_nodes(lt, k) <= chain_apparent_nodes(lt, k)


def test_density_all_builtins():
    for name in ("zp(2,4)", "zpn(3,2,3)", "dihedral2(4)", "wilson(3)", "pirim(2)"):
        lt = build_lattice_tower(cached_tower(name))
        assert density_check(lt).ok


def test_density_fault_injection():
    lt = build_lattice_tower(make_zp(2, 3))
    broken = copy.deepcopy(lt)
    not_child = int(np.flatnonzero(broken.parents[0] != 0)[0])
    broken.full_preimage[0][0] = not_child
    res = density_check(broken)
    assert not res.ok
    assert (1, 0) in res.counterexamples
    assert res.counterexamples == oracle_density_counterexamples(broken)


def _assert_readers_match_child_lists(lt):
    max_rank = lt.depth - 1
    survivors = oracle_survivors(lt, max_rank)
    rep = cb_filtration(lt, max_rank)
    assert rep.survivors == survivors
    assert rep.apparent_isolated == [
        [s - t for s, t in zip(survivors[r], survivors[r + 1])] for r in range(max_rank)
    ]
    # wrong full preimages that density and isolation must see: the next
    # node's, and the lowest-numbered child, which may have another index
    children = oracle_children(lt)
    shifted, lowest = copy.copy(lt), copy.copy(lt)
    shifted.full_preimage = [np.roll(fp, 1) for fp in lt.full_preimage]
    lowest.full_preimage = [np.array([min(ch) for ch in level]) for level in children]
    for tree in (lt, shifted, lowest):
        for k in range(1, lt.depth):
            assert isolated_nodes(tree, k) == oracle_chain_nodes(tree, k, True)
            assert chain_apparent_nodes(tree, k) == oracle_chain_nodes(tree, k, False)
        assert density_check(tree).counterexamples == oracle_density_counterexamples(tree)
    for k in range(1, lt.depth):  # j = 0 is test_fiber_trivial_cases
        for j in range(1, lt.depth - k + 1):
            for i in range(lt.node_count(k)):
                assert basic_open_fiber(lt, k, i, j) == oracle_fiber(children, k, i, j)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_readers_match_child_lists(name):
    _assert_readers_match_child_lists(build_lattice_tower(cached_tower(name)))


def test_readers_match_child_lists_on_products():
    for _, t in valid_products():
        _assert_readers_match_child_lists(build_lattice_tower(t))


def test_product_lattice_matches_explicit():
    cases = [
        ([make_zp(2, 2), make_zp(3, 2)], None),
        ([make_zp(2, 3), make_zp(3, 3)], None),
        ([make_zp(2, 2), make_zpn(3, 2, 2)], None),
    ]
    for factors, _ in cases:
        structural = build_lattice_tower(make_product(factors))
        explicit_t = direct_product_tower(factors[0], factors[1])
        explicit = build_lattice_tower(explicit_t)
        assert structural.counts_per_level() == explicit.counts_per_level()
        for k in range(1, structural.depth + 1):
            assert structural.node_bits[k - 1] == explicit.node_bits[k - 1]
            assert structural.node_orders[k - 1] == explicit.node_orders[k - 1]
        for k in range(2, structural.depth + 1):
            assert list(structural.parents[k - 2]) == list(explicit.parents[k - 2])
            assert list(structural.full_preimage[k - 2]) == list(explicit.full_preimage[k - 2])


def test_dot_export():
    lt = build_lattice_tower(make_zp(2, 3))
    iso = {k: isolated_nodes(lt, k) for k in range(1, 3)}
    dot = to_dot(lt, isolated=iso, solitary={1: {0}})
    assert dot.count("subgraph cluster_level") == 3
    assert "doublecircle" in dot
    assert "style=filled" in dot
    assert dot.count("->") == sum(lt.counts_per_level()[1:])


# -- lower levels read off the top by the correspondence theorem -----------------

CLI_MIX_SPECS = json.loads((Path(__file__).parent / "data" / "cli_mix_specs.json").read_text())


def _oracle_generator_bound(G) -> int:
    """Generators that any subgroup of G, a p-group of order p^m, needs at
    most, read off the table.  An abelian G of rank r (p^r elements x with
    x^p = 1) has subgroups of rank r at most.  Otherwise only an elementary
    abelian subgroup of order p^m would need m, and G is not one, so m - 1."""
    if G.order == 1:
        return 0
    p = min(q for q in range(2, G.order + 1) if G.order % q == 0)
    m = round(np.log(G.order) / np.log(p))
    rows = products(G).tolist()
    if any(rows[a][b] != rows[b][a] for a in range(G.order) for b in range(a)):
        return m - 1
    killed = 0
    for x in range(G.order):
        y = x
        for _ in range(p - 1):
            y = rows[y][x]
        killed += y == G.identity
    return round(np.log(killed) / np.log(p))


_ORACLE_BITS: dict[bytes, set[int]] = {}


def _oracle_bits(G) -> set[int]:
    key = products(G).tobytes()
    if key not in _ORACLE_BITS:
        sets = oracle_subgroups(G, gen_bound=_oracle_generator_bound(G))
        _ORACLE_BITS[key] = {sum(1 << a for a in s) for s in sets}
    return _ORACLE_BITS[key]


def _assert_levels_derive_as_enumerated(t):
    """Every level below the top of a fresh tower, read off the level above,
    equals the direct enumeration of a fresh copy of the level, and on levels
    of order 64 at most the brute-force closure oracle; the links read off
    with it equal the per-node link oracle."""
    derived = {k: target_subgroups(t.map_down(k)) for k in range(t.depth - 1, 0, -1)}
    parents, full_preimage = oracle_links(t)
    for k, (subs, up, down) in derived.items():
        assert up.tolist() == parents[k - 1], k
        assert down.tolist() == full_preimage[k - 1], k
        G = t.level(k)
        assert [(s.order, s.bits) for s in subs] == [
            (s.order, s.bits) for s in all_subgroups(table_twin(G))], k
        if G.order <= 64:
            assert {s.bits for s in subs} == _oracle_bits(G), k


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_derived_levels_match_enumeration_on_builtins(name):
    _assert_levels_derive_as_enumerated(TOWER_FACTORIES[name]())


def test_derived_levels_match_enumeration_on_product_factors():
    # the factors are truncated built-ins, so their top may be a lower level
    cases = {(part, t.depth) for label, t in valid_products() for part in label.split("x")}
    assert cases
    for name, depth in sorted(cases):
        _assert_levels_derive_as_enumerated(truncate(TOWER_FACTORIES[name](), depth))


@pytest.mark.parametrize("name", ["dihedral2(4)", "heisenberg(3,2)", "wilson(3)", "zpn(2,2,4)"])
def test_lattice_build_unpacks_each_upper_node_once_per_map(name, monkeypatch):
    # the levels hold their lists already, so the build only reads links:
    # one pass over the node rows of level k + 1 for each map k, and none
    # between dihedral levels, whose links are read in closed form
    t = TOWER_FACTORIES[name]()
    build_lattice_tower(t)
    unpacked = {}
    real = groups._bits_to_rows

    def counting(bits, n):
        unpacked[n] = unpacked.get(n, 0) + len(bits)
        return real(bits, n)

    monkeypatch.setattr(groups, "_bits_to_rows", counting)
    lt = build_lattice_tower(t)
    if name.startswith("dihedral2("):
        assert unpacked == {}
    else:
        assert unpacked == {G.order: lt.node_count(k) for k, G in enumerate(t.levels, 1) if k > 1}


def _constant_d4():
    D4 = dihedral(4)
    return custom_tower([D4, D4, D4], [list(range(8))] * 2)


LITERAL_TOWERS = {
    "C2<-C4<-C8": lambda: custom_tower([cyclic(2), cyclic(4), cyclic(8)],
                                       [[0, 1, 0, 1], [0, 1, 2, 3, 0, 1, 2, 3]]),
    "constant-D4": _constant_d4,
    **{label: (lambda spec=spec: build_tower(parse_tower_spec(spec)))
       for label, spec in CLI_MIX_SPECS.items() if spec["family"] == "custom"},
}


@pytest.mark.parametrize("label", LITERAL_TOWERS)
def test_derived_levels_match_enumeration_on_literal_towers(label):
    _assert_levels_derive_as_enumerated(LITERAL_TOWERS[label]())


def _count_enumerations(monkeypatch) -> list:
    """The groups that either enumeration path runs on, from then on."""
    seen = []
    for path in ("_subgroups_cyclic_extension", "_subgroups_generic"):
        def counting(G, real=getattr(groups, path)):
            seen.append(G)
            return real(G)

        monkeypatch.setattr(groups, path, counting)
    return seen


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_analysis_enumerates_only_the_top_level(name, monkeypatch):
    # the pirim certificate also enumerates its own module Z/9 x Z/9, which
    # is not a level; the cyclic levels of a zp tower and the dihedral levels
    # of a dihedral2 tower are read in closed form, so those towers run
    # neither enumeration path at all
    seen = _count_enumerations(monkeypatch)
    t = TOWER_FACTORIES[name]()
    closed_form = all(isinstance(G, groups.CyclicGroup) for G in t.levels)
    assert closed_form == name.startswith(("zp(", "dihedral2("))

    def levels_enumerated():
        return [k for G in seen for k, level in enumerate(t.levels, 1) if G is level]

    analyze_tower(t)
    assert levels_enumerated() == ([] if closed_form else [t.depth])
    # a truncated tower's top was read off the level above it
    analyze_tower(truncate(t, max(2, t.depth - 1)))
    assert levels_enumerated() == ([] if closed_form else [t.depth])
    if closed_form:
        assert seen == []


# every TOWER_FACTORIES tower, every product factor below its full depth,
# every literal tower and every product tower
STRUCTURE_TOWERS = {
    **{name: partial(cached_tower, name) for name in TOWER_FACTORIES},
    **{f"{name} to depth {depth}": partial(truncate, cached_tower(name), depth)
       for name, depth in sorted({(part, t.depth) for label, t in valid_products()
                                  for part in label.split("x")})
       if depth < cached_tower(name).depth},
    **LITERAL_TOWERS,
    **{label: (lambda t=t: t) for label, t in valid_products()},
}


@pytest.mark.parametrize("label", STRUCTURE_TOWERS)
def test_first_node_is_trivial_and_last_is_the_level(label):
    # and a cyclic level of order n has tau(n) nodes, one for each divisor,
    # and a dihedral level D_m has tau(m) + sigma(m)
    t = STRUCTURE_TOWERS[label]()
    lt = build_lattice_tower(t)
    for k in range(1, lt.depth + 1):
        n, orders = lt.level_orders[k - 1], lt.node_orders[k - 1]
        assert (orders[0], orders[-1]) == (1, n), k
        assert orders.count(1) == orders.count(n) == 1, k
        if t.levels:
            G = t.level(k)
            assert lt.node_bits[k - 1][0] == 1 << G.identity, k
            assert lt.node_bits[k - 1][-1] == (1 << n) - 1, k
            if isinstance(G, groups.CyclicGroup) and G.order == G.n:
                assert lt.node_count(k) == sum(n % d == 0 for d in range(1, n + 1)), k
            elif isinstance(G, groups.CyclicGroup):
                assert lt.node_count(k) == tau_plus_sigma(G.n), k
