"""Seeded workload inputs: CLI argument lists, spec documents and references.

Nothing here imports the package under test.  The connecting maps of the
literal towers are computed by this module's own copy of the element order
the package documents for group literals: breadth-first from the identity,
and for each element x and each seed generator g (in the given order), first
x*g and then g*x, each appended when new.  Labels printed by the package are
never parsed.
"""

from __future__ import annotations

import json
import random

from oracle import (
    Expect,
    dihedral2_counts,
    s3_x_c4_subgroup_count,
    verdict_ref,
    zp_counts,
    zpn_counts,
)

WORKLOADS = ("dihedral2-d8", "zp2-d11", "cli-mix")


# -- element orders and maps of the literal towers ---------------------------------

def bfs_elements(seeds: list, mul, identity) -> list:
    """Elements of <seeds> in the documented literal order."""
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in seeds:
                for y in (mul(x, g), mul(g, x)):
                    if y not in seen:
                        seen.add(y)
                        elements.append(y)
                        nxt.append(y)
        frontier = nxt
    return elements


def perm_mul(a: tuple, b: tuple) -> tuple:
    """Apply a, then b (the package's convention for permutation literals)."""
    return tuple(b[i] for i in a)


def mat_mul_mod(a: tuple, b: tuple, mod: int) -> tuple:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % mod for j in range(n))
        for i in range(n)
    )


def induced_map(upper: list, lower: list, reduce) -> list[int]:
    """Index map level k+1 -> level k sending x to reduce(x)."""
    index = {e: i for i, e in enumerate(lower)}
    return [index[reduce(x)] for x in upper]


def _identity_matrix(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


HEIS_GENS = (
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
)
C3_GEN = ((1, 1), (0, 1))

# One-line image notation: S4 = <(0 1 2 3), (0 1)>, A5 = <(0 1 2 3 4), (0 1 2)>.
S4_GENS = ((1, 2, 3, 0), (1, 0, 2, 3))
A5_GENS = ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4))


def _matrix_literal(gens, mod: int) -> dict:
    return {"version": 1, "kind": "matrix", "modulus": mod,
            "generators": [[list(r) for r in g] for g in gens]}


def _perm_literal(gens) -> dict:
    return {"version": 1, "kind": "permutation", "degree": len(gens[0]),
            "generators": [list(g) for g in gens]}


def heisenberg_literal_spec() -> dict:
    """Custom tower C3 <- Heis(Z/3) as matrix literals; the map keeps the
    (0, 1) entry, a homomorphism onto the upper unitriangular 2x2 group."""
    mul3 = lambda a, b: mat_mul_mod(a, b, 3)  # noqa: E731
    heis = bfs_elements(list(HEIS_GENS), mul3, _identity_matrix(3))
    c3 = bfs_elements([C3_GEN], mul3, _identity_matrix(2))
    to_c3 = lambda m: ((1, m[0][1]), (0, 1))  # noqa: E731
    return {"family": "custom",
            "levels": [_matrix_literal([C3_GEN], 3), _matrix_literal(HEIS_GENS, 3)],
            "maps": [induced_map(heis, c3, to_c3)]}


def conjugated(gens, rng: random.Random) -> list[tuple]:
    """Permutation generators conjugated by a seeded point permutation s."""
    s = list(range(len(gens[0])))
    rng.shuffle(s)
    s_inv = [0] * len(s)
    for i, v in enumerate(s):
        s_inv[v] = i
    return [perm_mul(perm_mul(tuple(s_inv), g), tuple(s)) for g in gens]


def sign(p: tuple) -> int:
    seen, parity = set(), 0
    for i in range(len(p)):
        if i in seen:
            continue
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def sign_literal_spec(rng: random.Random) -> dict:
    """Custom tower C2 <- S4 with the sign map; C2 as the literal <(0 1)>."""
    gens = conjugated(S4_GENS, rng)
    s4 = bfs_elements(gens, perm_mul, tuple(range(4)))
    c2_gen = (1, 0)
    c2 = bfs_elements([c2_gen], perm_mul, (0, 1))
    to_c2 = lambda p: c2_gen if sign(p) else (0, 1)  # noqa: E731
    return {"family": "custom", "levels": [_perm_literal([c2_gen]), _perm_literal(gens)],
            "maps": [induced_map(s4, c2, to_c2)]}


def simple_literal_spec(rng: random.Random) -> dict:
    """Custom tower 1 <- A5: the insoluble group takes the generic enumeration."""
    gens = conjugated(A5_GENS, rng)
    a5 = bfs_elements(gens, perm_mul, tuple(range(5)))
    return {"family": "custom",
            "levels": [{"version": 1, "kind": "cyclic", "n": 1}, _perm_literal(gens)],
            "maps": [[0] * len(a5)]}


def cyclic_literal_spec() -> dict:
    """Custom tower C2 <- C4 <- C8 as cyclic literals with reduction maps."""
    return {
        "family": "custom",
        "levels": [{"version": 1, "kind": "cyclic", "n": n} for n in (2, 4, 8)],
        "maps": [[i % 2 for i in range(4)], [i % 4 for i in range(8)]],
    }


PRODUCT_SPEC = {"family": "product", "factors": [
    {"family": "zp", "p": 2, "depth": 4}, {"family": "zp", "p": 3, "depth": 4}]}

S3_LITERAL = {"version": 1, "kind": "permutation", "degree": 3,
              "generators": [[1, 2, 0], [1, 0, 2]]}
C4_LITERAL = {"version": 1, "kind": "cyclic", "n": 4}


# -- workloads ------------------------------------------------------------------------

def build(name: str, seed: int) -> tuple[list[Expect], dict[str, dict]]:
    """The invocations of one workload pass, and the files they read.

    Returns the expectations (each holding its CLI argv) and a map from file
    name to JSON document; argv entries name files as "@<file name>".
    """
    rng = random.Random(seed)
    if name == "dihedral2-d8":
        return [Expect(["analyze", "--family", "dihedral2", "--depth", "8"],
                       counts=dihedral2_counts(8), verdict=verdict_ref("dihedral2"))], {}
    if name == "zp2-d11":
        return [Expect(["analyze", "--family", "zp", "--p", "2", "--depth", "11"],
                       counts=zp_counts(2, 11), verdict=verdict_ref("zp"))], {}
    if name == "cli-mix":
        return _cli_mix(rng)
    raise ValueError(f"unknown workload {name!r}")


def _cli_mix(rng: random.Random) -> tuple[list[Expect], dict[str, dict]]:
    files = {"product-2x3.json": PRODUCT_SPEC, "cyclic-literals.json": cyclic_literal_spec(),
             "heis3.json": heisenberg_literal_spec(), "sign-s4.json": sign_literal_spec(rng),
             "a5.json": simple_literal_spec(rng), "s3.json": S3_LITERAL, "c4.json": C4_LITERAL}
    custom = verdict_ref("custom")
    mix = [
        Expect(["analyze", "--family", "zp", "--p", "3", "--depth", "4"],
               counts=zp_counts(3, 4), verdict=verdict_ref("zp")),
        Expect(["analyze", "--family", "dihedral2", "--depth", "4", "--output", "table"],
               counts=dihedral2_counts(4), verdict=verdict_ref("dihedral2"), fmt="table"),
        Expect(["analyze", "--family", "zpn", "--p", "2", "--n", "2", "--depth", "3",
                   "--output", "dot"], counts=zpn_counts(2, 2, 3), fmt="dot"),
        Expect(["analyze", "--spec-file", "@product-2x3.json"],
               counts=[(k + 1) ** 2 for k in range(1, 5)], verdict=verdict_ref("product-zp-zp")),
        Expect(["analyze", "--spec-file", "@cyclic-literals.json"],
               counts=zp_counts(2, 3), verdict=custom),
        Expect(["analyze", "--spec-file", "@heis3.json"], counts=[2, 19], verdict=custom),
        Expect(["analyze", "--spec-file", "@sign-s4.json", "--output", "table"],
               counts=[2, 30], verdict=custom, fmt="table"),
        Expect(["lattice", "--spec-file", "@a5.json"], counts=[1, 59]),
        Expect(["classify", "--family", "pirim", "--depth", "2"],
               verdict=verdict_ref("pirim"), fmt="verdict"),
        Expect(["classify", "--family", "zpn", "--p", "3", "--n", "2", "--depth", "2"],
               verdict=verdict_ref("zpn"), fmt="verdict"),
        Expect(["classify", "--family", "zp", "--p", "5", "--depth", "4", "--output", "table"],
               verdict=verdict_ref("zp"), fmt="verdict-table"),
        Expect(["lattice", "--family", "zp", "--p", "2", "--depth", "5"],
               counts=zp_counts(2, 5)),
        Expect(["lattice", "--family", "dihedral2", "--depth", "3", "--output", "dot"],
               counts=dihedral2_counts(3), fmt="dot"),
        Expect(["lattice", "--family", "zpn", "--p", "3", "--n", "2", "--depth", "2",
                   "--output", "table"], counts=zpn_counts(3, 2, 2), fmt="lattice-table"),
        Expect(["audit", "--name", "bn_recurrence", "--n", "40"], fmt="audit"),
        Expect(["audit", "--name", "frattini_stability", "--family", "zp", "--p", "2",
                   "--depth", "4"], fmt="audit"),
        Expect(["audit", "--name", "virtually_zp", "--family", "dihedral2", "--depth", "4",
                   "--output", "table"], fmt="audit-table"),
        Expect(["audit", "--name", "pirim_irreducibility", "--depth", "2"], fmt="audit"),
        Expect(["audit", "--name", "solitary_criterion_hxz", "--family", "zpn", "--p", "3",
                   "--n", "2", "--depth", "3"], fmt="audit"),
        Expect(["goursat", "--g1", "@s3.json", "--g2", "@c4.json"],
               fmt="audit", audit_subgroups=s3_x_c4_subgroup_count()),
    ]
    rng.shuffle(mix)
    return mix, files


def render(expects: list[Expect], files: dict[str, dict]) -> bytes:
    """Canonical bytes of one workload's inputs (for the determinism self-test)."""
    doc = {"argv": [e.argv for e in expects], "files": files}
    return json.dumps(doc, sort_keys=True).encode()
