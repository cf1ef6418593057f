"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines even on success.
"""

import json
import time

import pytest

from conftest import (
    builtin_towers,
    cached_tower,
    oracle_bits_set,
    oracle_subgroups,
    subgroup_bits_set,
    valid_products,
)
from subgroup_atlas.audits import (
    bn_recurrence_audit,
    certify_solitary,
    frattini_stability_audit,
    goursat_full_audit,
    pirim_irreducibility_audit,
    virtually_zp_audit,
    wilson_commutator_audit,
)
from subgroup_atlas.classify import analyze_tower
from subgroup_atlas.cli import main as cli_main
from subgroup_atlas.filtration import (
    cb_filtration,
    conjugation_audit,
    default_max_rank,
    height_bound_audit,
    solitary_candidates,
)
from subgroup_atlas.groups import (
    all_subgroups,
    closure,
    cyclic,
    dihedral,
    direct_product,
    frattini,
    goursat,
    goursat_reconstruct,
    quaternion8,
    quotient,
)
from subgroup_atlas.lattice import build_lattice_tower, density_check, isolated_nodes
from subgroup_atlas.towers import make_heisenberg, make_product, make_zp, truncate, wilson_elements


def _report(num: int, text: str) -> None:
    print(f"[acceptance {num}] PASS - {text}")


def test_criterion_1_lattice_oracles():
    cases = [
        ("Z/8", cyclic(8), 4),
        ("(Z/3)^2", direct_product(cyclic(3), cyclic(3)), 6),
        ("Q8", quaternion8(), 6),
        ("D4", dihedral(4), 10),
        ("Z/4 x Z/2", direct_product(cyclic(4), cyclic(2)), 8),
        ("Heisenberg mod 3", make_heisenberg(3, 1).level(1), 19),
        ("dihedral order 16", dihedral(8), 19),
    ]
    for name, G, expected in cases:
        subs = all_subgroups(G)
        oracle = oracle_subgroups(G)
        assert len(subs) == expected, name
        assert len(oracle) == expected, name
        assert subgroup_bits_set(subs) == oracle_bits_set(G, oracle), name
    _report(1, "all seven subgroup counts equal the independent oracle exactly")


def test_criterion_2_goursat_audit():
    pairs = [
        (cyclic(2), cyclic(2)),
        (cyclic(4), cyclic(2)),
        (cyclic(8), cyclic(8)),
        (dihedral(4), cyclic(3)),
        (quaternion8(), cyclic(2)),
        (dihedral(4), dihedral(4)),
    ]
    total = 0
    for G1, G2 in pairs:
        assert G1.order * G2.order <= 128
        audit = goursat_full_audit(G1, G2)
        assert audit.passed
        total += audit.details["subgroup_count"]
    _report(2, f"{len(pairs)} product pairs, {total} subgroups, 100% quintuple round-trip")


def test_criterion_3_coprime_factorization():
    pairs = [
        (cyclic(4), cyclic(3)),
        (dihedral(4), cyclic(3)),
        (quaternion8(), cyclic(3)),
        (cyclic(8), cyclic(9)),
    ]
    for G1, G2 in pairs:
        P = direct_product(G1, G2)
        subs = all_subgroups(P)
        assert len(subs) == len(all_subgroups(G1)) * len(all_subgroups(G2))
        n2 = G2.order
        for H in subs:
            members = set(int(m) for m in H.indices())
            h1 = {m // n2 for m in members if m % n2 == 0}
            h2 = {m % n2 for m in members if m // n2 == 0}
            assert {a * n2 + b for a in h1 for b in h2} == members
    _report(3, f"{len(pairs)} coprime pairs: counts multiply and every subgroup factorizes")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_criterion_4_zp_verdict(p):
    t = cached_tower(f"zp({p},4)")
    a = analyze_tower(t)
    lt, rep, v = a.lattice, a.report, a.verdict
    assert v.tag == "OmegaAlphaN"
    assert v.params == {"alpha": 1, "n": 1}
    assert v.confidence == "Certified"
    certs = certify_solitary(t, lt, a.zp_audit)
    cands = solitary_candidates(rep, certs)
    per_level: dict[int, list] = {}
    for c in cands:
        per_level.setdefault(c.level, []).append(c)
    for level, items in per_level.items():
        assert len(items) == 1
        assert lt.node_orders[level - 1][items[0].index] == 1  # trivial thread
    _report(4, f"zp({p},4) is OmegaAlphaN(1,1) Certified; lone candidate is the trivial thread")


@pytest.mark.parametrize("name,p,depth", [("zpn(2,2,6)", 2, 6), ("zpn(3,2,3)", 3, 3)])
def test_criterion_5_zpn_verdict(name, p, depth):
    # largest depth with p^(2*depth) under the default cap of 4096
    assert p ** (2 * depth) <= 4096 < p ** (2 * (depth + 1))
    t = cached_tower(name)
    a = analyze_tower(t)
    lt, rep, v = a.lattice, a.report, a.verdict
    assert v.tag == "Pelczynski"
    assert v.confidence == "Certified"
    assert all(not s for s in rep.solitary)
    certs = certify_solitary(t, lt, a.zp_audit)
    assert not certs
    _report(5, f"{name} is Pelczynski Certified with zero solitary candidates")


def test_criterion_6_dihedral_verdict():
    t = cached_tower("dihedral2(4)")
    a = analyze_tower(t)
    lt, rep, v = a.lattice, a.report, a.verdict
    assert v.tag == "PelczynskiPlusOmegaN"
    assert v.params == {"n": 1}
    assert v.confidence == "Certified"
    audit = virtually_zp_audit(t, lt, rep)
    assert audit.passed
    assert audit.details["stabilized_n"] == 1
    _report(6, "dihedral2(4) is PelczynskiPlusOmegaN(1) Certified; virtually-Zp audit passes")


def test_criterion_7_height_bound():
    checked = 0
    for name, t in builtin_towers():
        lt = build_lattice_tower(t)
        rep = cb_filtration(lt, default_max_rank(t.depth, len(t.primes)))
        assert height_bound_audit(t, rep), name
        checked += 1
    for label, t in valid_products(3):
        lt = build_lattice_tower(t)
        rep = cb_filtration(lt, default_max_rank(t.depth, len(t.primes)))
        assert height_bound_audit(t, rep), label
        checked += 1

    start = time.monotonic()
    t3 = make_product([make_zp(2, 3), make_zp(3, 3), make_zp(5, 3)])
    lt3 = build_lattice_tower(t3)
    rep3 = cb_filtration(lt3, default_max_rank(3, 3))
    assert height_bound_audit(t3, rep3)
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0

    deep = make_product(
        [cached_tower("zp(2,5)"), cached_tower("zp(3,5)"), cached_tower("zp(5,5)")]
    )
    ltd = build_lattice_tower(deep)
    repd = cb_filtration(ltd, default_max_rank(5, 3))
    assert repd.apparent_height.bounded
    assert repd.apparent_height.value == 4 == len(deep.primes) + 1
    _report(
        7,
        f"{checked} towers/products satisfy the height bound; "
        f"three-prime tower attains height 4; depth-3 run took {elapsed:.2f}s",
    )


def test_criterion_8_wilson_audit():
    t = cached_tower("wilson(3)")
    assert t.level(3).order == 256
    audit = wilson_commutator_audit(t)
    assert audit.passed
    full = audit.details["full_indices"]
    assert full[1] == full[2]  # [G_k : G_k'] constant for k = 2..3
    for seq in audit.details["maximal_indices"].values():
        assert seq[0] < seq[1] < seq[2]
    for k in (2, 3):
        G = t.level(k)
        A = closure(G, wilson_elements(G)[1])
        assert frattini(G).bits == A.bits
        Q, _ = quotient(G, A)
        assert Q.order == 4 and all(Q.mul(g, g) == Q.identity for g in range(4))
    _report(8, "wilson(3): commutator indices behave and Frattini = A-image with Klein quotient")


def test_criterion_9_pirim_audits():
    bn = bn_recurrence_audit(40)
    assert bn.passed
    assert bn.details["b"][:3] == [1, 2, 8]

    t = cached_tower("pirim(2)")
    irr = pirim_irreducibility_audit(t)
    assert irr.passed
    assert irr.details["invariant_lines"][0] == []

    lt = build_lattice_tower(t)
    rep = cb_filtration(lt, default_max_rank(2, 1))
    certs = certify_solitary(t, lt, None)
    cands = solitary_candidates(rep, certs)
    assert any(
        lt.node_orders[c.level - 1][c.index] == 81 and c.status == "Certified"
        for c in cands
    )
    _report(9, "recurrence holds to N=40, no invariant line mod 9, module node is a candidate")


def test_criterion_10_structural_suite():
    towers = builtin_towers()
    for name, t in towers:
        lt = build_lattice_tower(t)
        rep = cb_filtration(lt, default_max_rank(t.depth, len(t.primes)))

        # density witness for every node
        assert density_check(lt).ok, name

        # index-sequence monotonicity along every edge
        for k in range(2, lt.depth + 1):
            for i in range(lt.node_count(k)):
                p = lt.parent_of(k, i)
                assert lt.node_index_in_group(k, i) >= lt.node_index_in_group(k - 1, p)

        # downward closure of survivor sets
        for r in range(1, rep.max_rank + 1):
            for k in range(2, t.depth - r + 1):
                for i in rep.survivors[r][k - 1]:
                    assert lt.parent_of(k, i) in rep.survivors[r][k - 2], name

        # conjugation-rank invariance
        assert conjugation_audit(lt, rep), name

        if t.depth >= 3:
            short = truncate(t, t.depth - 1)
            lt_s = build_lattice_tower(short)
            rep_s = cb_filtration(
                lt_s, default_max_rank(short.depth, len(short.primes))
            )
            # filtration truncation stability
            shared = min(rep.max_rank, rep_s.max_rank)
            for r in range(shared + 1):
                for k in range(1, short.depth - r + 1):
                    assert rep.survivors[r][k - 1] == rep_s.survivors[r][k - 1], name
            # apparent-isolated antitonicity across depths
            for k in range(1, short.depth):
                assert isolated_nodes(lt, k) <= isolated_nodes(lt_s, k), name
    _report(10, f"structural properties hold on all {len(towers)} built-in towers")


def test_criterion_11_determinism(tmp_path):
    paths = [tmp_path / f"d{i}.json" for i in range(3)]
    base = ["analyze", "--family", "dihedral2", "--depth", "4", "--output", "json"]
    assert cli_main(base + ["--out", str(paths[0])]) == 0
    assert cli_main(base + ["--out", str(paths[1])]) == 0
    assert cli_main(base + ["--parallel", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    doc = json.loads(blobs[0])
    assert doc["verdict"]["tag"] == "PelczynskiPlusOmegaN"
    _report(11, "byte-identical reports across reruns and parallelism settings")
