"""Classification verdicts for the limit subgroup space of a tower.

The policy is conservative: a named verdict always requires an algebraic
certificate, and empirical filtration data can only corroborate or veto it.
Finite data contradicting a certificate yields Undetermined with the conflict
recorded, never a silently adjusted verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .audits import (
    AuditResult,
    certify_solitary,
    frattini_stability_audit,
    stabilized_count,
    virtually_zp_audit,
)
from .errors import OutOfRange
from .filtration import (
    CBReport,
    SolitaryCandidate,
    cb_filtration,
    default_max_rank,
    solitary_candidates,
)
from .lattice import LatticeTower, build_lattice_tower, density_check, isolated_nodes
from .towers import Tower


@dataclass
class Verdict:
    tag: str
    params: dict = field(default_factory=dict)
    confidence: str = "EmpiricalOnly"  # Certified | EmpiricalOnly
    evidence: list[dict] = field(default_factory=list)
    conflict: bool = False

    def as_json(self) -> dict:
        return {
            "tag": self.tag,
            "params": self.params,
            "confidence": self.confidence,
            "evidence": self.evidence,
            "conflict": self.conflict,
        }


@dataclass
class Analysis:
    """One analysis pass over a tower; every report is a projection of it."""

    tower: Tower
    lattice: LatticeTower
    report: CBReport
    zp_audit: Optional[AuditResult]  # virtually_zp_audit; None unless virtually Z_p
    verdict: Verdict = field(init=False)

    @cached_property
    def certificates(self) -> dict[tuple[int, int], list[str]]:
        """Casebook solitary certificates, computed on first use: factors of a
        product whose verdict never consults them skip the work."""
        t = self.tower
        if t.factors is not None:
            return {}
        return certify_solitary(t, self.lattice, self.zp_audit)

    @cached_property
    def isolated(self) -> dict[int, set[int]]:
        """Isolated nodes of each level below the top, keyed by level."""
        return {k: isolated_nodes(self.lattice, k) for k in range(1, self.lattice.depth)}

    @cached_property
    def solitary(self) -> list[SolitaryCandidate]:
        """Solitary candidates of the filtration, with their certificates."""
        return solitary_candidates(self.report, self.certificates)


def _ev(kind: str, name: str, **data) -> dict:
    out = {kind: name}
    out.update(data)
    return out


def _conflict(evidence: list[dict], name: str, **data) -> Verdict:
    evidence = evidence + [_ev("conflict", name, **data)]
    return Verdict("Undetermined", {}, "EmpiricalOnly", evidence, conflict=True)


def classify(a: Analysis) -> Verdict:
    """Decision procedure over tower flags, casebook certificates and the
    filtration report."""
    t, lt, report = a.tower, a.lattice, a.report
    evidence: list[dict] = []

    # (a) constant tower: the limit is the top level itself
    if len(set(lt.level_orders)) == 1:
        n_points = lt.node_count(1)
        evidence.append(_ev("certificate", "constant_tower", points=n_points))
        if any(any(s) for s in report.survivors[1]):
            return _conflict(evidence, "rank1_survivors_in_constant_tower")
        return Verdict("FiniteDiscrete", {"n": n_points}, "Certified", evidence)

    # Frattini stability is the gate between Cantor and everything below
    frattini_audit = None
    if t.depth >= 3:
        frattini_audit = frattini_stability_audit(t)
        evidence.append(
            _ev(
                "audit",
                "frattini_stability",
                passed=frattini_audit.passed,
                indices=frattini_audit.details["indices"],
            )
        )

    # (b) growing Frattini index: no isolated subgroups at all
    if frattini_audit is not None and not frattini_audit.passed:
        idx = frattini_audit.details["indices"]
        growing = idx[-3] < idx[-2] < idx[-1]
        if growing:
            evidence.append(_ev("certificate", "frattini_index_growing", indices=idx))
            iso = [len(nodes) for nodes in a.isolated.values()]
            if any(iso):
                return _conflict(evidence, "isolated_nodes_despite_growing_frattini",
                                 isolated_counts=iso)
            return Verdict("Cantor", {}, "Certified", evidence)
        return Verdict("Undetermined", {}, "EmpiricalOnly", evidence)

    # (c) nilpotent virtually-Z_p: countable space, one limit level
    flags = t.meta.flags
    if flags.virtually_zp and flags.nilpotent and frattini_audit and frattini_audit.passed:
        audit = a.zp_audit
        evidence.append(_ev("audit", "virtually_zp", passed=audit.passed,
                            counts=audit.details["counts"]))
        surv1_counts = [len(s) for s in report.survivors[1]]
        n = stabilized_count(surv1_counts)
        if audit.passed and n is not None:
            h = report.apparent_height
            if h.bounded and h.value != 2:
                return _conflict(evidence, "apparent_height_mismatch",
                                 expected=2, observed=h.value)
            audit_n = audit.details["stabilized_n"]
            if audit_n is not None and audit_n != n:
                return _conflict(evidence, "survivor_count_mismatch",
                                 rank1=n, centralizer=audit_n)
            evidence.append(_ev("observation", "rank1_survivors_stabilized", n=n))
            return Verdict("OmegaAlphaN", {"alpha": 1, "n": n}, "Certified", evidence)
        return Verdict("Undetermined", {}, "EmpiricalOnly", evidence)

    # (d) coprime products classify from their factors
    if t.factors is not None:
        return _classify_product(t, lt, report, evidence)

    certs = a.certificates
    cand = a.solitary

    # (e) Pelczynski: certified no-solitary family, dense isolated points
    pel_cert = _pelczynski_certificate(t)
    if pel_cert is not None:
        evidence.append(_ev("certificate", pel_cert))
        dens = density_check(lt)
        if not dens.ok:
            return _conflict(evidence, "density_failure", nodes=dens.counterexamples)
        if cand:
            return _conflict(
                evidence,
                "solitary_candidates_in_no_solitary_family",
                candidates=[(c.level, c.index) for c in cand],
            )
        h = report.apparent_height
        if h.bounded and h.value != 1:
            return _conflict(evidence, "apparent_height_mismatch",
                             expected=1, observed=h.value)
        evidence.append(_ev("observation", "apparent_height", value=str(h)))
        return Verdict("Pelczynski", {}, "Certified", evidence)

    # (f) virtually-Z_p with trivial expected center: Pelczynski plus a tail
    if flags.virtually_zp and flags.center_trivial_expected:
        audit = a.zp_audit
        evidence.append(_ev("audit", "virtually_zp", passed=audit.passed,
                            counts=audit.details["counts"]))
        n = audit.details["stabilized_n"]
        if audit.passed and n is not None and n >= 1:
            dens = density_check(lt)
            if not dens.ok:
                return _conflict(evidence, "density_failure", nodes=dens.counterexamples)
            h = report.apparent_height
            if h.bounded and h.value != 2:
                return _conflict(evidence, "apparent_height_mismatch",
                                 expected=2, observed=h.value)
            evidence.append(_ev("observation", "solitary_count_stabilized", n=n))
            return Verdict("PelczynskiPlusOmegaN", {"n": n}, "Certified", evidence)
        return Verdict("Undetermined", {}, "EmpiricalOnly", evidence)

    # (g) certified solitary count growing with the level
    cert_counts = _certified_counts_per_level(certs, t.depth)
    if _strictly_growing(cert_counts):
        evidence.append(
            _ev("certificate", "certified_solitary_count_growing", counts=cert_counts)
        )
        h = report.apparent_height
        if h.bounded and h.value != 2:
            return _conflict(evidence, "apparent_height_mismatch",
                             expected=2, observed=h.value)
        return Verdict("HeightTwoInfiniteSolitary", {}, "Certified", evidence)

    if certs:
        evidence.append(
            _ev("observation", "certified_solitary_nodes", nodes=sorted(certs))
        )
    evidence.append(
        _ev("observation", "apparent_height", value=str(report.apparent_height))
    )
    return Verdict("Undetermined", {}, "EmpiricalOnly", evidence)


def _pelczynski_certificate(t: Tower) -> Optional[str]:
    flags = t.meta.flags
    dim = t.meta.dim_estimate
    if flags.nilpotent and flags.finitely_generated and dim is not None and dim > 1:
        return "nilpotent_hirsch_length_gt_1"
    return None


def _certified_counts_per_level(
    certs: dict[tuple[int, int], list[str]], depth: int
) -> list[int]:
    counts = [0] * depth
    for (k, _i) in certs:
        counts[k - 1] += 1
    return counts


def _strictly_growing(counts: list[int]) -> bool:
    """Whether the last three counts strictly increase."""
    return len(counts) >= 3 and counts[-3] < counts[-2] < counts[-1]


def _classify_product(
    t: Tower, lt: LatticeTower, report: CBReport, evidence: list[dict]
) -> Verdict:
    shapes: list[tuple[int, int] | str] = []
    all_certified = True
    for f, flt in zip(t.factors, lt.factor_lattices):
        v = analyze_tower(f, lattice=flt).verdict
        evidence.append(
            _ev("factor", f.meta.family_name, tag=v.tag, params=v.params,
                confidence=v.confidence)
        )
        if v.confidence != "Certified":
            all_certified = False
            shapes.append("unknown")
        elif v.tag == "FiniteDiscrete":
            shapes.append((0, v.params["n"]))
        elif v.tag == "OmegaAlphaN":
            shapes.append((v.params["alpha"], v.params["n"]))
        elif v.tag == "Pelczynski":
            shapes.append("pelczynski")
        else:
            shapes.append("unknown")

    if not all_certified or "unknown" in shapes:
        return Verdict("Undetermined", {}, "EmpiricalOnly", evidence)

    ordinal = [s for s in shapes if isinstance(s, tuple)]
    pel = [s for s in shapes if s == "pelczynski"]
    if not pel:
        alpha = sum(a for a, _n in ordinal)
        n = 1
        for _a, m in ordinal:
            n *= m
        evidence.append(
            _ev("certificate", "coprime_product_of_countable_factors",
                alpha=alpha, n=n)
        )
        h = report.apparent_height
        if h.bounded and h.value != alpha + 1:
            return _conflict(evidence, "apparent_height_mismatch",
                             expected=alpha + 1, observed=h.value)
        if alpha == 0:
            return Verdict("FiniteDiscrete", {"n": n}, "Certified", evidence)
        return Verdict("OmegaAlphaN", {"alpha": alpha, "n": n}, "Certified", evidence)

    if all(a == 0 for a, _n in ordinal):
        # finitely many disjoint copies of Pelczynski space collapse to one
        evidence.append(_ev("certificate", "coprime_product_all_pelczynski"))
        h = report.apparent_height
        if h.bounded and h.value != 1:
            return _conflict(evidence, "apparent_height_mismatch",
                             expected=1, observed=h.value)
        return Verdict("Pelczynski", {}, "Certified", evidence)

    # Pelczynski times an infinite countable factor is outside the named classes
    evidence.append(
        _ev("observation", "mixed_pelczynski_ordinal_product", shapes=str(shapes))
    )
    return Verdict("Undetermined", {}, "EmpiricalOnly", evidence)


def analyze_tower(
    t: Tower,
    max_rank: int | None = None,
    lattice: LatticeTower | None = None,
) -> Analysis:
    """Build the lattice (unless given, as for the factors of a product), run
    the filtration at the default horizon discipline, and classify."""
    if t.depth < 2:
        raise OutOfRange("analysis needs depth >= 2")
    lt = build_lattice_tower(t) if lattice is None else lattice
    if max_rank is None:
        max_rank = default_max_rank(t.depth, len(t.primes))
    else:
        max_rank = min(max_rank, t.depth - 1)
    report = cb_filtration(lt, max_rank)
    zp_audit = virtually_zp_audit(t, lt, report) if t.meta.flags.virtually_zp else None
    a = Analysis(t, lt, report, zp_audit)
    a.verdict = classify(a)
    return a
