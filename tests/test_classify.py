"""Verdict tests for built-in families, products, and edge cases."""

import numpy as np
import pytest

from conftest import cached_tower
from subgroup_atlas import audits as audits_mod
from subgroup_atlas import classify as classify_mod
from subgroup_atlas.audits import virtually_zp_audit
from subgroup_atlas.classify import Analysis, analyze_tower, classify
from subgroup_atlas.filtration import (
    ApparentHeight,
    cb_filtration,
    default_max_rank,
    height_bound_audit,
)
from subgroup_atlas.groups import cyclic, dihedral, direct_product, trivial_subgroup
from subgroup_atlas.lattice import build_lattice_tower
from subgroup_atlas.towers import custom_tower, make_product, make_zp


@pytest.mark.parametrize("p", [2, 3, 5])
def test_zp_verdict(p):
    t = cached_tower(f"zp({p},4)")
    a = analyze_tower(t)
    rep, v = a.report, a.verdict
    assert v.tag == "OmegaAlphaN"
    assert v.params == {"alpha": 1, "n": 1}
    assert v.confidence == "Certified"
    assert not v.conflict


@pytest.mark.parametrize("name", ["zpn(2,2,4)", "zpn(2,2,6)", "zpn(3,2,3)"])
def test_zpn_verdict(name):
    t = cached_tower(name)
    a = analyze_tower(t)
    rep, v = a.report, a.verdict
    assert v.tag == "Pelczynski"
    assert v.confidence == "Certified"
    assert all(not s for s in rep.solitary)


def test_dihedral_verdict():
    t = cached_tower("dihedral2(4)")
    a = analyze_tower(t)
    rep, v = a.report, a.verdict
    assert v.tag == "PelczynskiPlusOmegaN"
    assert v.params == {"n": 1}
    assert v.confidence == "Certified"


def test_heisenberg_verdict():
    t = cached_tower("heisenberg(3,2)")
    a = analyze_tower(t)
    rep, v = a.report, a.verdict
    assert v.tag == "Pelczynski"
    assert v.confidence == "Certified"
    assert not rep.apparent_height.bounded  # horizon too shallow, not a conflict


def test_wilson_undetermined():
    t = cached_tower("wilson(3)")
    v = analyze_tower(t).verdict
    assert v.tag == "Undetermined"
    assert v.confidence == "EmpiricalOnly"
    assert not v.conflict


def test_pirim_undetermined_with_certified_evidence():
    t = cached_tower("pirim(2)")
    v = analyze_tower(t).verdict
    assert v.tag == "Undetermined"
    assert any("certified_solitary_nodes" in e.get("observation", "") for e in v.evidence)


def test_two_prime_product_verdict():
    t = make_product([cached_tower("zp(2,4)"), cached_tower("zp(3,4)")])
    a = analyze_tower(t)
    rep, v = a.report, a.verdict
    assert v.tag == "OmegaAlphaN"
    assert v.params == {"alpha": 2, "n": 1}
    assert v.confidence == "Certified"


def test_three_prime_product_verdict_depth5():
    t = make_product(
        [cached_tower("zp(2,5)"), cached_tower("zp(3,5)"), cached_tower("zp(5,5)")]
    )
    a = analyze_tower(t)
    rep, v = a.report, a.verdict
    assert v.tag == "OmegaAlphaN"
    assert v.params == {"alpha": 3, "n": 1}
    assert rep.apparent_height.value == 4


def test_four_prime_product_verdict_depth6(monkeypatch):
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", "117649")  # the order of zp(7, 6)'s top level
    t = make_product([make_zp(p, 6) for p in (2, 3, 5, 7)])
    a = analyze_tower(t)
    rep, v = a.report, a.verdict
    assert v.tag == "OmegaAlphaN"
    assert v.params == {"alpha": 4, "n": 1}
    assert v.confidence == "Certified"
    assert rep.apparent_height.value == 5 == len(t.primes) + 1
    assert height_bound_audit(t, rep)


def test_product_of_pelczynski_factors():
    from subgroup_atlas.towers import make_zpn

    t = make_product([make_zpn(2, 2, 3), cached_tower("zpn(3,2,3)")])
    v = analyze_tower(t).verdict
    assert v.tag == "Pelczynski"
    assert v.confidence == "Certified"


def test_mixed_product_undetermined():
    from subgroup_atlas.towers import make_zpn

    t = make_product([make_zp(2, 3), make_zpn(3, 2, 3)])
    v = analyze_tower(t).verdict
    assert v.tag == "Undetermined"


def test_constant_tower_finite_discrete():
    D4 = dihedral(4)
    ident = list(range(8))
    t = custom_tower([D4, D4, D4], [ident, ident])
    v = analyze_tower(t).verdict
    assert v.tag == "FiniteDiscrete"
    assert v.params == {"n": 10}
    assert v.confidence == "Certified"


def test_growing_elementary_abelian_is_cantor():
    # levels (Z/2)^k with coordinate-dropping maps: Frattini index grows
    levels = [cyclic(2)]
    for _ in range(3):
        levels.append(direct_product(levels[-1], cyclic(2)))
    maps = [list(np.arange(levels[k + 1].order) // 2) for k in range(3)]
    t = custom_tower(levels, maps)
    v = analyze_tower(t).verdict
    assert v.tag == "Cantor"
    assert v.confidence == "Certified"


def test_conflict_on_contradicting_height():
    t = cached_tower("zp(2,4)")
    lt = build_lattice_tower(t)
    rep = cb_filtration(lt, default_max_rank(4, 1))
    rep.apparent_height = ApparentHeight(5)
    v = classify(Analysis(t, lt, rep, virtually_zp_audit(t, lt, rep)))
    assert v.tag == "Undetermined"
    assert v.conflict


def test_height_two_infinite_solitary_branch(monkeypatch):
    t = cached_tower("wilson(3)")
    lt = build_lattice_tower(t)
    rep = cb_filtration(lt, default_max_rank(3, 1))
    rep.apparent_height = ApparentHeight(None, unbounded_at=3)

    def fake_certs(_t, _lt, _zp_audit):
        return {
            (1, 0): ["synthetic"],
            (2, 0): ["synthetic"],
            (2, 1): ["synthetic"],
            (3, 0): ["synthetic"],
            (3, 1): ["synthetic"],
            (3, 2): ["synthetic"],
        }

    monkeypatch.setattr(classify_mod, "certify_solitary", fake_certs)
    v = classify(Analysis(t, lt, rep, None))
    assert v.tag == "HeightTwoInfiniteSolitary"
    assert v.confidence == "Certified"


def test_strictly_growing_helper():
    assert classify_mod._strictly_growing([1, 2, 3])
    assert not classify_mod._strictly_growing([1, 2, 2])
    assert not classify_mod._strictly_growing([2, 1])


def _conflict_name(v) -> str:
    assert v.conflict and v.tag == "Undetermined" and v.confidence == "EmpiricalOnly"
    return v.evidence[-1]["conflict"]


def _analysis(name: str) -> Analysis:
    """The unclassified analysis of a cached tower at its default horizon."""
    t = cached_tower(name)
    lt = build_lattice_tower(t)
    rep = cb_filtration(lt, default_max_rank(t.depth, len(t.primes)))
    return Analysis(t, lt, rep, virtually_zp_audit(t, lt, rep))


def test_conflict_on_isolated_nodes_under_a_growing_frattini_index(monkeypatch):
    # branch (b): Frattini subgroups read as trivial make the index |G_k|
    # grow, which certifies Cantor, yet the links leave isolated nodes
    monkeypatch.setattr(audits_mod, "frattini", trivial_subgroup)
    a = _analysis("zp(2,4)")
    v = classify(a)
    assert v.evidence[0] == {"audit": "frattini_stability", "passed": False,
                             "indices": [2, 4, 8, 16]}
    assert _conflict_name(v) == "isolated_nodes_despite_growing_frattini"
    assert v.evidence[-1]["isolated_counts"] == [len(a.isolated[k]) for k in (1, 2, 3)]
    assert any(v.evidence[-1]["isolated_counts"])


def test_conflict_on_a_centralizer_count_that_disagrees_with_the_survivors():
    # branch (c): the audit's stabilized count, doctored, disagrees with the
    # stabilized rank-1 survivor count n = 1 of zp(3,4)
    a = _analysis("zp(3,4)")
    a.zp_audit.details["stabilized_n"] = 2
    v = classify(a)
    assert _conflict_name(v) == "survivor_count_mismatch"
    assert v.evidence[-1] == {"conflict": "survivor_count_mismatch", "rank1": 1, "centralizer": 2}


def test_conflict_on_a_density_failure_in_a_virtually_zp_tower():
    # branch (f): dihedral2 is certified PelczynskiPlusOmegaN(1), until its
    # level-1 full preimages are permuted, so each no longer lies over its node
    a = _analysis("dihedral2(4)")
    assert classify(a).tag == "PelczynskiPlusOmegaN"
    fp = a.lattice.full_preimage[0]
    a.lattice.full_preimage[0] = np.roll(fp, 1)
    v = classify(a)
    assert _conflict_name(v) == "density_failure"
    assert v.evidence[-1]["nodes"] == [(1, i) for i in range(len(fp))]


def test_conflict_on_a_height_that_contradicts_pelczynski_plus_omega_n():
    # branch (f): a bounded apparent height other than 2
    a = _analysis("dihedral2(4)")
    a.report.apparent_height = ApparentHeight(3)
    v = classify(a)
    assert _conflict_name(v) == "apparent_height_mismatch"
    assert v.evidence[-1] == {"conflict": "apparent_height_mismatch", "expected": 2, "observed": 3}
