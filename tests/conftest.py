"""Shared fixtures and independent oracles.

The oracles here are deliberately naive reimplementations (pure-python
fixed-point closure, subset enumeration) kept independent of the library's
algorithms so they can serve as ground truth.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from subgroup_atlas.errors import WrongShape
from subgroup_atlas.groups import (
    FiniteGroup,
    GoursatQuintuple,
    Subgroup,
    all_subgroups,
    table_from_rows,
)
from subgroup_atlas.towers import (
    Tower,
    make_dihedral2,
    make_heisenberg,
    make_pirim,
    make_product,
    make_wilson,
    make_zp,
    make_zpn,
    truncate,
)


# -- independent oracles ---------------------------------------------------------

def products(G) -> np.ndarray:
    """Every product a*b of G as an (order x order) array, read through G.mul,
    which is how a group without a table (Z/n or D_n) gives its products."""
    idx = np.arange(G.order)
    return G.mul(*np.ix_(idx, idx))


def table_twin(G) -> FiniteGroup:
    """G as a plain FiniteGroup on the Cayley table that its generators' rows,
    read through G.mul, fill: its construction runs the identity, inverse and
    Light's checks that a group without a table (Z/n or D_n) does not run."""
    rows = G.mul(np.asarray(G.generators)[:, None], np.arange(G.order))
    return FiniteGroup(table_from_rows(rows, G.generators, G.identity),
                       generators=G.generators, labels=G.element_label, name=G.name)


def oracle_closure(table, identity, inv, seed) -> frozenset[int]:
    """Naive fixed-point closure: repeatedly add products and inverses."""
    members = {identity} | set(seed)
    changed = True
    while changed:
        changed = False
        current = list(members)
        for a in current:
            for b in current:
                p = table[a][b]
                if p not in members:
                    members.add(p)
                    changed = True
        for a in list(members):
            if inv[a] not in members:
                members.add(inv[a])
                changed = True
    return frozenset(members)


def _omega(n: int) -> int:
    count, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count + (1 if n > 1 else 0)


def oracle_subgroups(G, gen_bound: int | None = None) -> list[frozenset[int]]:
    """All subgroups by brute-force closure of every small generating set.

    Any subgroup of a group of order n is generated by at most Omega(n)
    elements, since each extra generator at least doubles the order.
    """
    n = G.order
    bound = gen_bound if gen_bound is not None else _omega(n)
    table = products(G).tolist()
    inv = G.inverse(np.arange(n)).tolist()
    found: set[frozenset[int]] = set()
    for size in range(bound + 1):
        for seed in combinations(range(n), size):
            found.add(oracle_closure(table, G.identity, inv, seed))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def oracle_normalizes(table, inv, members, g) -> bool:
    """g normalizes H when conjugating every member of H by g stays in H."""
    H = set(members)
    return {table[table[inv[g]][h]][g] for h in H} == H


def oracle_centralizer(table, members) -> frozenset[int]:
    """Every g that commutes with every member of H, checked pair by pair."""
    return frozenset(
        g for g in range(len(table)) if all(table[g][h] == table[h][g] for h in members)
    )


def oracle_center(table) -> frozenset[int]:
    """Every g that commutes with every element, checked pair by pair."""
    return oracle_centralizer(table, range(len(table)))


def tau_plus_sigma(n: int) -> int:
    """The number of subgroups of D_n: its divisors' count plus their sum."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return len(divisors) + sum(divisors)


def oracle_is_associative(table) -> bool:
    """Naive n^3 check of (a*b)*c == a*(b*c) over every triple."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def oracle_is_abelian(table) -> bool:
    """Every pair commutes: the whole table equals its transpose."""
    t = np.asarray(table)
    return bool(np.array_equal(t, t.T))


def oracle_is_hom(source, target, mapping) -> bool:
    """The homomorphism law m(a*b) == m(a)*m(b) over every pair (a, b)."""
    m = np.asarray(mapping)
    return bool(np.array_equal(m[products(source)], products(target)[m[:, None], m[None, :]]))


def oracle_homomorphisms(source, target) -> list[list[int]]:
    """Every homomorphism source -> target: each assignment of images to the
    source's generators, extended along words and kept if the law holds."""
    out, source_table, target_table = [], products(source), products(target)
    for images in product(range(target.order), repeat=len(source.generators)):
        m = {source.identity: target.identity}
        frontier = [source.identity]
        consistent = True
        while frontier and consistent:
            nxt = []
            for x in frontier:
                for g, h in zip(source.generators, images):
                    y, my = int(source_table[x, g]), int(target_table[m[x], h])
                    if y not in m:
                        m[y] = my
                        nxt.append(y)
                    elif m[y] != my:
                        consistent = False
            frontier = nxt
        if consistent:
            mapping = [m[a] for a in range(source.order)]
            if oracle_is_hom(source, target, mapping):
                out.append(mapping)
    return out


def oracle_table_from_rows(rows, gens, identity) -> list[list[int]] | None:
    """The Cayley table whose row gens[i] is rows[i], or None when the rows
    are not a group's left multiplications with that identity.

    Element a is the permutation of the group the rows generate under
    composition that sends the identity to a: a walk multiplies each found
    permutation by every generator row, one pure-Python composition each.
    The rows are a group's left multiplications exactly when every element
    is reached by one permutation only and each generator's row is its own.
    """
    rows = [tuple(int(v) for v in row) for row in rows]
    n = len(rows[0]) if rows else 1
    perms = {identity: tuple(range(n))}
    order = [identity]
    for x in order:  # grows while it is walked
        for row in rows:
            q = tuple(perms[x][b] for b in row)  # (x*g)*b = x*(g*b)
            y = q[identity]
            if y not in perms:
                perms[y] = q
                order.append(y)
            elif perms[y] != q:
                return None
    if len(perms) != n or any(perms[g] != row for g, row in zip(gens, rows)):
        return None
    return [list(perms[a]) for a in range(n)]


def oracle_quotient(G, N) -> tuple[list[int], list[list[int]]]:
    """The projection map and the table of G/N, each coset labelled by the
    rank of its least element: the cosets gN are walked one g at a time."""
    members, table = [int(k) for k in N.indices()], products(G)
    rep = [-1] * G.order
    for g in range(G.order):
        if rep[g] == -1:
            coset = [int(table[g, k]) for k in members]
            for c in coset:
                rep[c] = min(coset)
    reps = sorted(set(rep))
    label = {r: i for i, r in enumerate(reps)}
    proj = [label[r] for r in rep]
    return proj, [[proj[int(table[a, b])] for b in reps] for a in reps]


def _oracle_subgroup(G, members) -> Subgroup:
    return Subgroup(G, sum(1 << a for a in set(members)), len(set(members)))


def oracle_goursat(G1, G2, H) -> GoursatQuintuple:
    """The Goursat quintuple of a subgroup H of direct_product(G1, G2), one
    member at a time: each coset representative is the least element of aK,
    read from all products one product at a time."""
    n2 = G2.order
    members = [(int(m) // n2, int(m) % n2) for m in H.indices()]
    ker_left = [a for a, b in members if b == G2.identity]
    ker_right = [b for a, b in members if a == G1.identity]

    def rep(table, K, a):
        return min(int(table[a, k]) for k in K)

    iso: dict[int, int] = {}
    t1, t2 = products(G1), products(G2)
    for a, b in members:
        ra, rb = rep(t1, ker_left, a), rep(t2, ker_right, b)
        if iso.setdefault(ra, rb) != rb:
            raise WrongShape("goursat witness is not well defined")
    return GoursatQuintuple(
        _oracle_subgroup(G1, [a for a, _ in members]), _oracle_subgroup(G1, ker_left),
        _oracle_subgroup(G2, [b for _, b in members]), _oracle_subgroup(G2, ker_right), iso)


def subgroup_bits_set(subs) -> set[int]:
    return {s.bits for s in subs}


def oracle_bits_set(G, oracle_sets) -> set[int]:
    out = set()
    for s in oracle_sets:
        bits = 0
        for i in s:
            bits |= 1 << i
        out.add(bits)
    return out


# -- child-list oracles for the lattice tree -------------------------------------
# The lattice stores each level's parents and full preimages as arrays; these
# walk explicit child lists, one node at a time, as the tree was once stored.

def oracle_children(lt) -> list[list[list[int]]]:
    """children[k-1][i]: the nodes at level k+1 whose parent is node i at level k."""
    out = []
    for k in range(1, lt.depth):
        ch: list[list[int]] = [[] for _ in range(lt.node_count(k))]
        for i, p in enumerate(lt.parents[k - 1]):
            ch[int(p)].append(i)
        out.append(ch)
    return out


def oracle_survivors(lt, max_rank: int) -> list[list[set[int]]]:
    """survivors[r][k-1]: rank-r survivors at level k, for levels 1..D-r; a
    survivor stays when at least two of its children survive."""
    children = oracle_children(lt)
    survivors = [[set(range(lt.node_count(k))) for k in range(1, lt.depth + 1)]]
    for r in range(max_rank):
        prev = survivors[r]
        survivors.append([
            {i for i in prev[k - 1] if sum(c in prev[k] for c in children[k - 1][i]) >= 2}
            for k in range(1, lt.depth - r)
        ])
    return survivors


def oracle_chain_nodes(lt, k: int, through_full_preimage: bool) -> set[int]:
    """Nodes at level k whose subtree to depth D is a chain, each step (when
    `through_full_preimage`) the full preimage."""
    children = oracle_children(lt)
    out = set()
    for i in range(lt.node_count(k)):
        cur, ok = i, True
        for lvl in range(k, lt.depth):
            ch = children[lvl - 1][cur]
            if len(ch) != 1 or (
                through_full_preimage and ch[0] != lt.full_preimage[lvl - 1][cur]
            ):
                ok = False
                break
            cur = ch[0]
        if ok:
            out.add(i)
    return out


def oracle_density_counterexamples(lt) -> list[tuple[int, int]]:
    """(k, i) whose full preimage is not a child of node i, or is one with a
    different group index."""
    children = oracle_children(lt)
    bad = []
    for k in range(1, lt.depth):
        for i in range(lt.node_count(k)):
            fp = int(lt.full_preimage[k - 1][i])
            if fp not in children[k - 1][i] or (
                lt.node_index_in_group(k + 1, fp) != lt.node_index_in_group(k, i)
            ):
                bad.append((k, i))
    return bad


def oracle_fiber(children, k: int, i: int, j: int) -> list[int]:
    """Nodes at level k+j below node i, gathered down `oracle_children`."""
    fiber = [i]
    for lvl in range(k, k + j):
        fiber = [c for node in fiber for c in children[lvl - 1][node]]
    return sorted(fiber)


def oracle_links(t) -> tuple[list[list[int]], list[list[int]]]:
    """Parents and full preimages of an explicit tower, one image_subgroup or
    preimage_subgroup call per node and a bits-to-index dict per level, as the
    lattice once found them."""
    subs = [all_subgroups(g) for g in t.levels]
    parents, full_preimage = [], []
    for k in range(1, t.depth):
        hom = t.map_down(k)
        lo_index = {s.bits: i for i, s in enumerate(subs[k - 1])}
        hi_index = {s.bits: i for i, s in enumerate(subs[k])}
        parents.append([lo_index[hom.image_subgroup(s).bits] for s in subs[k]])
        full_preimage.append([hi_index[hom.preimage_subgroup(s).bits] for s in subs[k - 1]])
    return parents, full_preimage


# -- cached towers (groups memoize their own subgroup lists) ----------------------

TOWER_FACTORIES = {
    "zp(2,4)": lambda: make_zp(2, 4),
    "zp(2,5)": lambda: make_zp(2, 5),
    "zp(3,4)": lambda: make_zp(3, 4),
    "zp(3,5)": lambda: make_zp(3, 5),
    "zp(5,4)": lambda: make_zp(5, 4),
    "zp(5,5)": lambda: make_zp(5, 5),
    "zp(2,3)": lambda: make_zp(2, 3),
    "zpn(2,2,4)": lambda: make_zpn(2, 2, 4),
    "zpn(2,2,6)": lambda: make_zpn(2, 2, 6),
    "zpn(3,2,2)": lambda: make_zpn(3, 2, 2),
    "zpn(3,2,3)": lambda: make_zpn(3, 2, 3),
    "heisenberg(3,2)": lambda: make_heisenberg(3, 2),
    "dihedral2(4)": lambda: make_dihedral2(4),
    "wilson(3)": lambda: make_wilson(3),
    "pirim(2)": lambda: make_pirim(2),
}


@lru_cache(maxsize=None)
def cached_tower(name: str) -> Tower:
    return TOWER_FACTORIES[name]()


BUILTIN_NAMES = [
    "zp(2,4)",
    "zp(3,4)",
    "zp(5,4)",
    "zpn(2,2,4)",
    "zpn(3,2,3)",
    "heisenberg(3,2)",
    "dihedral2(4)",
    "wilson(3)",
    "pirim(2)",
]


def builtin_towers() -> list[tuple[str, Tower]]:
    return [(name, cached_tower(name)) for name in BUILTIN_NAMES]


def valid_products(max_factors: int = 3) -> list[tuple[str, Tower]]:
    """Every product of <= max_factors distinct-prime built-ins, truncated to
    the common depth."""
    out = []
    names = BUILTIN_NAMES
    for r in (2, 3):
        if r > max_factors:
            break
        for combo in combinations(names, r):
            towers = [cached_tower(n) for n in combo]
            primes: set[int] = set()
            ok = True
            for t in towers:
                if primes & t.primes:
                    ok = False
                    break
                primes |= t.primes
            if not ok:
                continue
            depth = min(t.depth for t in towers)
            if depth < 2:
                continue
            truncated = [truncate(t, depth) if t.depth > depth else t for t in towers]
            out.append(("x".join(combo), make_product(truncated)))
    return out


@pytest.fixture(scope="session")
def tower_cache():
    return cached_tower
