"""Casebook audit tests."""

import numpy as np
import pytest

from conftest import cached_tower
from subgroup_atlas.audits import (
    bn_recurrence_audit,
    certify_solitary,
    commutator_index_per_level,
    frattini_stability_audit,
    goursat_full_audit,
    pirim_irreducibility_audit,
    solitary_criterion_hxz_audit,
    stabilized_count,
    virtually_zp_audit,
    wilson_commutator_audit,
)
from subgroup_atlas.errors import CapExceeded, OutOfRange, WrongFamily, WrongShape
from subgroup_atlas.filtration import cb_filtration, default_max_rank, solitary_candidates
from subgroup_atlas.groups import centralizer, closure, cyclic, dihedral, quaternion8
from subgroup_atlas.lattice import build_lattice_tower
from subgroup_atlas.towers import make_dihedral2, make_zp, make_zpn


def test_frattini_stability_values():
    a = frattini_stability_audit(cached_tower("zp(2,4)"))
    assert a.passed and a.details["indices"] == [2, 2, 2, 2]
    a = frattini_stability_audit(cached_tower("zpn(3,2,3)"))
    assert a.passed and a.details["indices"] == [9, 9, 9]
    a = frattini_stability_audit(cached_tower("wilson(3)"))
    assert a.passed and a.details["indices"] == [4, 4, 4]
    a = frattini_stability_audit(cached_tower("dihedral2(4)"))
    assert a.passed and a.details["stable_index"] == 4


def test_frattini_stability_needs_depth():
    with pytest.raises(OutOfRange):
        frattini_stability_audit(cached_tower("pirim(2)"))


def test_frattini_stability_heisenberg():
    from subgroup_atlas.towers import make_heisenberg

    a = frattini_stability_audit(make_heisenberg(2, 3))
    assert a.passed
    assert a.details["stable_index"] == 4


def test_frattini_stability_on_product():
    from subgroup_atlas.towers import make_product

    t = make_product([cached_tower("zp(2,4)"), cached_tower("zp(3,4)")])
    a = frattini_stability_audit(t)
    assert a.passed and a.details["indices"] == [6, 6, 6, 6]


def test_wilson_commutator_audit():
    a = wilson_commutator_audit(cached_tower("wilson(3)"))
    assert a.passed
    assert a.details["full_indices"] == [4, 16, 16]
    for seq in a.details["maximal_indices"].values():
        assert seq == [2, 16, 32]
        assert seq[-1] == 2 * seq[-2]  # doubles per level
    assert all(a.details["m1_prime_matches"])


def test_wilson_commutator_wrong_family():
    with pytest.raises(WrongFamily):
        wilson_commutator_audit(cached_tower("zp(2,4)"))


def test_pirim_irreducibility():
    a = pirim_irreducibility_audit(cached_tower("pirim(2)"))
    assert a.passed
    assert a.details["primitive_classes"] == 12
    assert a.details["invariant_lines"][0] == []
    orders = a.details["invariant_submodule_orders"]
    assert 1 in orders and 9 in orders and 81 in orders
    assert "incomparable" not in a.details


@pytest.mark.parametrize("pk", [3, 9, 27])
def test_line_of_a_primitive_vector_is_where_the_determinant_vanishes(pk):
    """The pirim audit's closed form: w lies on the line of a primitive v mod
    3^k exactly when det(v, w) = 0, checked against the multiples a*v, a < 3^k,
    for every primitive v and every w."""
    mismatches = 0
    for x in range(pk):
        for y in range(pk):
            if x % 3 == 0 and y % 3 == 0:
                continue
            line = {((a * x) % pk, (a * y) % pk) for a in range(pk)}
            for bx in range(pk):
                for by in range(pk):
                    mismatches += ((x * by - y * bx) % pk == 0) != ((bx, by) in line)
    assert mismatches == 0


def test_bn_recurrence():
    a = bn_recurrence_audit(40)
    assert a.passed
    assert a.details["b"][:3] == [1, 2, 8]
    short = bn_recurrence_audit(10)
    assert short.details["b"] == a.details["b"][:10]


def test_bn_recurrence_needs_three():
    with pytest.raises(OutOfRange):
        bn_recurrence_audit(2)


def test_hxz_audit_wilson():
    a = solitary_criterion_hxz_audit(cached_tower("wilson(3)"))
    assert a.passed
    assert a.details["witness_commutator_open"]
    assert a.details["certified_nodes"]
    first = a.details["left_node_per_level"][0]
    assert first["rank1_survivor"]


def test_hxz_audit_abelian_factors():
    a = solitary_criterion_hxz_audit(cached_tower("zpn(3,2,3)"))
    assert a.passed
    assert not a.details["witness_commutator_open"]
    assert a.details["certified_nodes"] == []
    a2 = solitary_criterion_hxz_audit(cached_tower("zp(3,4)"))
    assert a2.passed
    assert not a2.details["witness_commutator_open"]


def test_hxz_audit_needs_depth():
    with pytest.raises(OutOfRange, match=r"^hxz audit needs depth >= 2$"):
        solitary_criterion_hxz_audit(make_zp(2, 1))


def test_hxz_audit_rejects_multiprime():
    from subgroup_atlas.towers import make_product

    t = make_product([make_zp(2, 2), make_zp(3, 2)])
    with pytest.raises(WrongShape):
        solitary_criterion_hxz_audit(t)


def test_virtually_zp_audits():
    for name in ("zp(2,4)", "dihedral2(4)"):
        t = cached_tower(name)
        a = virtually_zp_audit(t)
        assert a.passed
        assert a.details["stabilized_n"] == 1
    with pytest.raises(WrongFamily):
        virtually_zp_audit(cached_tower("zpn(3,2,3)"))


def test_virtually_zp_dihedral_candidates_in_centralizer():
    t = cached_tower("dihedral2(4)")
    a = virtually_zp_audit(t)
    for entry in a.details["per_level"]:
        assert entry["candidates"] == [0]  # the trivial node only
        assert entry["centralizer_order"] == 2 ** entry["level"]


@pytest.mark.parametrize(
    "make",
    [lambda: make_zp(2, 6), lambda: make_zpn(5, 1, 4), lambda: make_dihedral2(6)],
    ids=["zp(2,6)", "zpn(5,1,4)", "dihedral2(6)"],
)
def test_virtually_zp_audit_matches_composite_formula(make):
    t = make()
    lt = build_lattice_tower(t)
    rep = cb_filtration(lt, default_max_rank(t.depth, 1))
    a = virtually_zp_audit(t, lt, rep)
    # the former formula: centralize every member of the top witness, then
    # take its image under the composite map to each level
    top = t.depth
    assert t.level(top).generators[0] == 1  # the procyclic generator comes first
    witness = closure(t.level(top), [1])
    C_top = centralizer(t.level(top), witness.indices())
    per_level, certified = [], []
    for k in range(1, top):
        composite = np.arange(t.level(top).order)
        for j in range(top - 1, k - 1, -1):
            composite = t.map_down(j).map[composite]
        C = closure(t.level(k), np.unique(composite[C_top.indices()]).tolist())
        inside = sorted(
            i for i in rep.survivors[1][k - 1] if lt.node_bits[k - 1][i] & ~C.bits == 0
        )
        per_level.append({"level": k, "centralizer_order": C.order, "candidates": inside})
        certified += [(k, i) for i in inside]
    assert a.details["per_level"] == per_level
    assert a.details["certified_nodes"] == certified


@pytest.mark.parametrize(
    "f1,f2,expected_count",
    [
        (lambda: cyclic(2), lambda: cyclic(2), 5),
        (lambda: cyclic(4), lambda: cyclic(2), 8),
        (lambda: dihedral(4), lambda: cyclic(3), 20),
        (quaternion8, lambda: cyclic(2), None),
        (lambda: cyclic(8), lambda: cyclic(4), None),
    ],
)
def test_goursat_full_audit(f1, f2, expected_count):
    a = goursat_full_audit(f1(), f2())
    assert a.passed
    if expected_count is not None:
        assert a.details["subgroup_count"] == expected_count


def test_goursat_coprime_factorizes():
    a = goursat_full_audit(dihedral(4), cyclic(3))
    assert a.details["factorizing"] == a.details["subgroup_count"] == 20


def test_goursat_audit_cap():
    with pytest.raises(CapExceeded):
        goursat_full_audit(cyclic(16), cyclic(16))


def test_certify_solitary_pirim_contains_module_node():
    t = cached_tower("pirim(2)")
    lt = build_lattice_tower(t)
    rep = cb_filtration(lt, default_max_rank(2, 1))
    certs = certify_solitary(t, lt, None)
    assert certs
    (level, idx), names = sorted(certs.items())[0]
    assert level == 2
    assert lt.node_orders[1][idx] == 81  # the full (Z/9)^2 x 1 subgroup
    cands = solitary_candidates(rep, certs)
    assert any(c.level == 2 and c.status == "Certified" for c in cands)


def test_audit_idempotence():
    a1 = wilson_commutator_audit(cached_tower("wilson(3)"))
    a2 = wilson_commutator_audit(cached_tower("wilson(3)"))
    assert a1 == a2
    b1 = bn_recurrence_audit(12)
    b2 = bn_recurrence_audit(12)
    assert b1 == b2


def test_stabilized_count_helper():
    assert stabilized_count([1, 1, 1]) == 1
    assert stabilized_count([2, 1, 1, 1]) == 1
    assert stabilized_count([1, 2, 1]) is None
    assert stabilized_count([1, 1]) is None


def test_commutator_index_per_level_wilson():
    assert commutator_index_per_level(cached_tower("wilson(3)")) == [4, 16, 16]
