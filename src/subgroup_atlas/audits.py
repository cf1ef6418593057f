"""Executable audits of the algebraic criteria behind the classifier.

Each audit is a deterministic, idempotent pure function returning an
AuditResult whose details are enough to recompute the verdict by hand.
Audits re-derive subgroup data through the group-core operations rather than
trusting lattice caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, OutOfRange, WrongFamily, WrongShape
from .filtration import CBReport, cb_filtration, default_max_rank
from .groups import (
    FiniteGroup,
    _commutator_of,
    all_subgroups,
    centralizer,
    closure,
    commutator_subgroup,
    cyclic,
    direct_product,
    frattini,
    goursat,
)
from .lattice import LatticeTower, build_lattice_tower
from .towers import (
    PIRIM_A,
    Tower,
    _mat_mul,
    _mat_pow,
    direct_product_tower,
    make_zp,
    pirim_base_power,
    truncate,
    wilson_elements,
)


@dataclass
class AuditResult:
    name: str
    passed: bool
    levels: tuple[int, int]  # inclusive range audited (0,0 when level-free)
    details: dict = field(default_factory=dict)


def stabilized_count(counts: list[int]) -> int | None:
    """The common value of the last three entries, if they agree."""
    if len(counts) < 3:
        return None
    tail = counts[-3:]
    return tail[0] if all(c == tail[0] for c in tail) else None


# -- Frattini stability ----------------------------------------------------------

def frattini_index_per_level(t: Tower) -> list[int]:
    if t.factors is not None:
        per_factor = [frattini_index_per_level(f) for f in t.factors]
        return [int(np.prod([pf[k] for pf in per_factor])) for k in range(t.depth)]
    out = []
    for k in range(1, t.depth + 1):
        G = t.level(k)
        out.append(G.order // frattini(G).order)
    return out


def frattini_stability_audit(t: Tower) -> AuditResult:
    """Pass iff the Frattini index is constant over the last three levels.

    A stable index is the finite witness that the limit's Frattini subgroup
    is open, hence that isolated subgroups exist at all.
    """
    if t.depth < 3:
        raise OutOfRange("frattini stability audit needs depth >= 3")
    indices = frattini_index_per_level(t)
    tail = indices[-3:]
    passed = tail[0] == tail[1] == tail[2]
    return AuditResult(
        "frattini_stability",
        passed,
        (1, t.depth),
        {"indices": indices, "stable_index": tail[0] if passed else None},
    )


# -- Wilson commutator audit -----------------------------------------------------

def wilson_commutator_audit(t: Tower) -> AuditResult:
    """Finite witness that the full group has open commutator subgroup while
    every maximal open subgroup does not: the full-group commutator index is
    constant from level 2 on, and each maximal's commutator index strictly
    increases with the level."""
    if t.meta.family_name != "wilson":
        raise WrongFamily("wilson_commutator_audit needs a wilson tower")
    if t.depth < 3:
        raise OutOfRange("wilson audit needs depth >= 3")
    details: dict = {"full_indices": [], "maximal_indices": {}, "m1_prime_matches": []}
    full_idx = commutator_index_per_level(t)
    details["full_indices"] = full_idx
    passed = all(v == full_idx[1] for v in full_idx[1:])

    max_names = ("x1", "x2", "x1x2")
    per_max: dict[str, list[int]] = {nm: [] for nm in max_names}
    for k in range(1, t.depth + 1):
        G = t.level(k)
        xs, a_gens = wilson_elements(G)
        for nm, x in zip(max_names, xs):
            M_gens = [x] + a_gens
            M = closure(G, M_gens)
            Mp = _commutator_of(G, M_gens)[0]
            per_max[nm].append(M.order // Mp.order)
            if nm == "x1":
                expect = closure(G, G.power_map(2)[a_gens[1:]].tolist())
                details["m1_prime_matches"].append(Mp.bits == expect.bits)
    details["maximal_indices"] = per_max
    for nm in max_names:
        seq = per_max[nm]
        if not all(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
            passed = False
    if not all(details["m1_prime_matches"]):
        passed = False
    return AuditResult("wilson_commutator", passed, (1, t.depth), details)


# -- pirim audits -----------------------------------------------------------------

def _primitive_classes_mod(pk: int) -> list[tuple[int, int]]:
    """Primitive vectors of (Z/3^k)^2 up to unit scaling."""
    units = [u for u in range(pk) if u % 3 != 0]
    seen: set[tuple[int, int]] = set()
    out = []
    for x in range(pk):
        for y in range(pk):
            if x % 3 == 0 and y % 3 == 0:
                continue
            v = (x, y)
            if v in seen:
                continue
            out.append(v)
            for u in units:
                seen.add(((u * x) % pk, (u * y) % pk))
    return out


def pirim_irreducibility_audit(t: Tower) -> AuditResult:
    """At the top level, no meaningful power-of-3 exponent of the acting matrix
    fixes a rank-one direct summand, and every invariant submodule is
    comparable with the chain of scaled full modules (no invariant line in
    disguise).

    Exponents are capped at 3^min(3, k-2): beyond 3^(k-2) the matrix is the
    identity mod 3^k, so the check carries no information at this level.
    """
    if t.meta.family_name != "pirim":
        raise WrongFamily("pirim_irreducibility_audit needs a pirim tower")
    k = t.depth
    pk = 3**k
    A1 = pirim_base_power()[1]
    effective_r_max = min(3, max(0, k - 2))
    details: dict = {
        "modulus": pk,
        "effective_r_max": effective_r_max,
        "invariant_lines": {},
        "invariant_submodule_orders": [],
    }
    passed = True

    classes = _primitive_classes_mod(pk)
    details["primitive_classes"] = len(classes)
    for r in range(effective_r_max + 1):
        B = _mat_pow(A1, 3**r, pk)
        bad = []
        for (x, y) in classes:
            bx = (B[0][0] * x + B[0][1] * y) % pk
            by = (B[1][0] * x + B[1][1] * y) % pk
            # (x, y) is primitive, so it extends to a basis, and B(x, y) lies
            # on its line exactly when their determinant vanishes
            if (x * by - y * bx) % pk == 0:
                bad.append((x, y))
        details["invariant_lines"][r] = bad
        if bad:
            passed = False

    # invariant submodules under the base action: every one must be comparable
    # with each scaled module 3^j * M, which rules out lines
    M = direct_product(cyclic(pk), cyclic(pk))
    B = _mat_pow(A1, 1, pk)
    perm = np.array(
        [((B[0][0] * (i // pk) + B[0][1] * (i % pk)) % pk) * pk
         + ((B[1][0] * (i // pk) + B[1][1] * (i % pk)) % pk)
         for i in range(pk * pk)]
    )
    invariant = []
    for H in all_subgroups(M):
        mask = H.mask()
        if np.all(mask[perm[H.indices()]]):
            invariant.append(H)
    details["invariant_submodule_orders"] = sorted(h.order for h in invariant)
    scaled = [_scaled_module_bits(pk, j) for j in range(k + 1)]
    for H in invariant:
        for sb in scaled:
            below = (H.bits & ~sb) == 0
            above = (sb & ~H.bits) == 0
            if not (below or above):
                passed = False
                details.setdefault("incomparable", []).append(H.order)
    return AuditResult("pirim_irreducibility", passed, (k, k), details)


def _scaled_module_bits(pk: int, j: int) -> int:
    bits = 0
    step = 3**j
    for x in range(0, pk, step) if step <= pk else [0]:
        for y in range(0, pk, step) if step <= pk else [0]:
            bits |= 1 << (x * pk + y)
    return bits


# Largest N the b_n audit takes: the entries of A^n grow by log2(1 + sqrt 5),
# about 1.7 bits, a step, so the b list of N entries holds about 0.85 N^2
# bits, 10 MB at this N.
BN_RECURRENCE_MAX = 10_000


def bn_recurrence_audit(n_max: int) -> AuditResult:
    """Exact integer powers of the base matrix: the alpha-coefficient sequence
    obeys b_n = 2 b_{n-1} + 4 b_{n-2} and stays positive, so no power
    acquires a rational eigenvalue collapse.  Each power is the one before
    times A, one 2 x 2 product a step."""
    if n_max < 3:
        raise OutOfRange("bn recurrence audit needs N >= 3")
    if n_max > BN_RECURRENCE_MAX:
        raise OutOfRange(f"bn recurrence audit needs N <= {BN_RECURRENCE_MAX}")
    b, An = [], PIRIM_A
    for _ in range(n_max):
        b.append(An[0][1])
        An = _mat_mul(An, PIRIM_A)
    recur_ok = all(b[n] == 2 * b[n - 1] + 4 * b[n - 2] for n in range(2, n_max))
    positive = all(v > 0 for v in b)
    passed = recur_ok and positive and b[0] == 1 and b[1] == 2
    return AuditResult(
        "bn_recurrence",
        passed,
        (1, n_max),
        {"b": b[: min(10, len(b))], "recurrence_holds": recur_ok, "all_positive": positive},
    )


# -- solitary criterion for H x Z_p products -------------------------------------

def commutator_index_per_level(t: Tower) -> list[int]:
    out = []
    for k in range(1, t.depth + 1):
        G = t.level(k)
        Gp = commutator_subgroup(G)
        out.append(G.order // Gp.order)
    return out


def left_factor_node_index(lt: LatticeTower, prod: Tower, k: int) -> int:
    """Index of the node H_k x 1 in the level-k lattice of a two-factor product."""
    G = prod.level(k)
    G1, G2 = G._product_of
    n2 = G2.order
    target = closure(G, [g * n2 + G2.identity for g in G1.basis])
    bits = lt.node_bits[k - 1]
    if bits is None:
        raise CapExceeded("left-factor node lookup needs explicit bitsets")
    return bits.index(target.bits)


def solitary_criterion_hxz_audit(h_tower: Tower) -> AuditResult:
    """Solitary criterion for the left factor of an H x Z_p product at the
    matching prime, read from the depth-2 product: the left-factor node is a
    solitary candidate exactly when the commutator index of the H-family
    stabilizes (the finite witness that the commutator subgroup is open)."""
    depth = 2
    if h_tower.depth < depth:
        raise OutOfRange(f"hxz audit needs depth >= {depth}")
    if len(h_tower.primes) != 1:
        raise WrongShape("hxz audit needs a single-prime left factor")
    p = next(iter(h_tower.primes))
    product = direct_product_tower(truncate(h_tower, depth), make_zp(p, depth))

    h_indices = commutator_index_per_level(h_tower)
    witness = len(h_indices) >= 2 and h_indices[-1] == h_indices[-2]

    lt = build_lattice_tower(product)
    rep = cb_filtration(lt, default_max_rank(depth, 1))
    details: dict = {
        "h_commutator_indices": h_indices,
        "witness_commutator_open": witness,
        "left_node_per_level": [],
    }
    passed = True
    certified: dict[tuple[int, int], list[str]] = {}
    for k in range(1, depth + 1):
        idx = left_factor_node_index(lt, product, k)
        in_surv1 = k <= depth - 1 and idx in rep.survivors[1][k - 1]
        assessable = k <= depth - 2
        empirical = assessable and idx in rep.solitary[k - 1]
        details["left_node_per_level"].append(
            {"level": k, "node": idx, "rank1_survivor": in_surv1, "empirical_candidate": empirical}
        )
        if witness:
            certified[(k, idx)] = ["commutator_index_stable"]
            if k <= depth - 1 and not in_surv1:
                passed = False
            if assessable and not empirical:
                passed = False
        else:
            if empirical:
                passed = False
    details["certified_nodes"] = sorted(certified)
    return AuditResult("solitary_criterion_hxz", passed, (1, depth), details)


# -- virtually-Z_p audit -----------------------------------------------------------

def virtually_zp_audit(
    t: Tower, lt: LatticeTower | None = None, report: CBReport | None = None
) -> AuditResult:
    """Solitary candidates of a virtually-Z_p tower are exactly the rank-1
    survivors lying inside the centralizer of the distinguished procyclic
    witness, and their per-level count is the verdict parameter n.

    Every virtually-Z_p family lists its procyclic generator first, so the
    witness at a level is the subgroup its first generator spans.
    """
    if not t.meta.flags.virtually_zp:
        raise WrongFamily("virtually_zp_audit needs the virtuallyZp flag")
    lt = lt or build_lattice_tower(t)
    report = report or cb_filtration(lt, default_max_rank(t.depth, len(t.primes)))
    if t.depth >= 3 and report.max_rank < 2:  # the solitary sets need rank 2
        raise OutOfRange(
            f"virtually_zp audit needs maxRank >= 2 at depth {t.depth}, got {report.max_rank}"
        )
    # Finite-level centralizers only shrink with depth; the image of the
    # deepest one is the tightest available shadow of the limit centralizer
    # (shallow levels can be degenerately abelian).  It is stepped down one
    # connecting map at a time: the image of an image is the composite image.
    top = t.depth
    images = [centralizer(t.level(top), t.level(top).generators[:1])]
    for k in range(top - 1, 0, -1):
        images.append(t.map_down(k).image_subgroup(images[-1]))
    details: dict = {"per_level": [], "counts": []}
    passed = True
    certified: dict[tuple[int, int], list[str]] = {}
    for k in range(1, t.depth):
        C = images[top - k]
        surv1 = report.survivors[1][k - 1]
        inside = {
            i for i in surv1 if (lt.node_bits[k - 1][i] & ~C.bits) == 0
        }
        for i in sorted(inside):
            certified[(k, i)] = ["centralizer_of_procyclic_witness"]
        if k <= t.depth - 2:
            empirical = report.solitary[k - 1]
            if not empirical <= inside or inside != empirical:
                passed = False
        details["per_level"].append(
            {"level": k, "centralizer_order": C.order, "candidates": sorted(inside)}
        )
        details["counts"].append(len(inside))
    details["stabilized_n"] = stabilized_count(details["counts"])
    details["certified_nodes"] = sorted(certified)
    return AuditResult("virtually_zp", passed, (1, t.depth - 1), details)


# -- Goursat full audit --------------------------------------------------------------

def goursat_full_audit(G1: FiniteGroup, G2: FiniteGroup) -> AuditResult:
    """Every subgroup of G1 x G2 round-trips through its quintuple and the three
    quotient isomorphisms hold (the quintuple verifier checks the section
    isomorphism; the middle quotient is checked here by orders and kernel)."""
    if G1.order * G2.order > 128:
        raise CapExceeded("goursat_full_audit caps at product order 128")
    P = direct_product(G1, G2)
    subs = all_subgroups(P)
    details: dict = {"subgroup_count": len(subs), "factorizing": 0}
    passed = True
    n2 = G2.order
    for H in subs:
        q = goursat(G1, G2, H)  # verifies witness + round trip internally
        section = q.proj_left.order // q.ker_left.order
        if H.order != q.ker_left.order * q.ker_right.order * section:
            passed = False
        # kernel of H -> projL/kerL is exactly kerL x kerR
        left, right = np.divmod(H.indices(), n2)
        count = np.count_nonzero(q.ker_left.mask()[left] & q.ker_right.mask()[right])
        if count != q.ker_left.order * q.ker_right.order:
            passed = False
        if section == 1:
            details["factorizing"] += 1
    return AuditResult(
        "goursat_full", passed, (0, 0), details
    )


# -- certified solitary nodes for the classifier ---------------------------------------

def pirim_h_node_certificates(t: Tower, lt: LatticeTower) -> dict[tuple[int, int], list[str]]:
    """Certify the distinguished normal module thread of a pirim tower.

    The full (Z/3^k)^2 x 1 node at each level from 2 on is solitary by the
    rational-irreducibility criterion.
    """
    out: dict[tuple[int, int], list[str]] = {}
    for k in range(2, t.depth + 1):
        t_order = t.level(k).order // 9**k
        # element (v0*3^k + v1)*|t| + j is (v0, v1; t^j): the translations
        # (1, 0) and (0, 1) generate the module
        H = closure(t.level(k), [3**k * t_order, t_order])
        idx = lt.node_bits[k - 1].index(H.bits)
        out[(k, idx)] = ["rational_irreducibility"]
    return out


def certify_solitary(
    t: Tower, lt: LatticeTower, zp_audit: AuditResult | None
) -> dict[tuple[int, int], list[str]]:
    """Casebook certificates usable by solitary_candidates, keyed by node.

    `zp_audit` is the tower's virtually_zp_audit over the same lattice, or
    None for a tower that is not virtually Z_p.
    """
    out: dict[tuple[int, int], list[str]] = {}
    if zp_audit is not None and zp_audit.passed:
        for key in zp_audit.details["certified_nodes"]:
            out[tuple(key)] = ["centralizer_of_procyclic_witness"]
    if t.meta.family_name == "pirim":
        audit = pirim_irreducibility_audit(t)
        if audit.passed:
            out.update(pirim_h_node_certificates(t, lt))
    return out
