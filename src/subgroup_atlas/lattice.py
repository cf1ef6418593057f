"""Levelwise subgroup lattices with the induced maps.

The lattice tower is the finitely branching tree whose branch space
approximates the subgroup space of the tower's limit: nodes at level k are
the subgroups of the level-k group in canonical (order, bitset) order, and a
node's parent is its image under the connecting map.

Coprime product towers have no level groups at any cap: the product lattice
is the levelwise product of the factor lattices (every subgroup of a coprime
product factorizes), so no product Cayley table is ever built.  Up to
PRODUCT_BITSET_LIMIT the factor bitsets are folded into the row-major product
indexing, because they fix the canonical node order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import PRODUCT_BITSET_LIMIT
from .errors import CapExceeded, OutOfRange, WrongShape
from .groups import Subgroup, all_subgroups, product_set
from .towers import Tower


@dataclass
class Thread:
    """A compatible path through the tree from startLevel to the top depth."""

    start_level: int
    path: list[int]       # node index per level start_level..D
    index_seq: list[int]  # group index [G_k : H_k] per level


@dataclass
class LatticeTower:
    tower: Tower
    level_orders: list[int]               # |G_k| per level
    node_orders: list[list[int]]          # per level, per node: |H|
    node_bits: list[Optional[list[int]]]  # per level: bitsets, or None if not materialized
    parents: list[np.ndarray]             # parents[k-1][i] = parent at level k of node i at level k+1
    children: list[list[list[int]]]       # children[k-1][i] = child node indices of node i at level k
    full_preimage: list[list[int]]        # per level k=1..D-1: node index at k+1
    factor_lattices: Optional[list["LatticeTower"]] = None
    node_factor_idx: Optional[list[list[tuple]]] = None  # product route only

    @property
    def depth(self) -> int:
        return len(self.node_orders)

    def node_count(self, k: int) -> int:
        return len(self.node_orders[k - 1])

    def counts_per_level(self) -> list[int]:
        return [self.node_count(k) for k in range(1, self.depth + 1)]

    def node_index_in_group(self, k: int, i: int) -> int:
        """Group-theoretic index [G_k : H] of node i at level k."""
        return self.level_orders[k - 1] // self.node_orders[k - 1][i]

    def subgroup(self, k: int, i: int) -> Subgroup:
        if not self.tower.levels:
            raise CapExceeded(
                f"level {k} nodes are structural; explicit subgroups unavailable"
            )
        order = self.node_orders[k - 1][i]
        return Subgroup(self.tower.level(k), self.node_bits[k - 1][i], order)

    def parent_of(self, k: int, i: int) -> int:
        """Parent node index (at level k-1) of node i at level k >= 2."""
        return int(self.parents[k - 2][i])

    def thread_from(self, k: int, i: int) -> Thread:
        """The full-preimage thread starting at node i of level k."""
        path = [i]
        idxs = [self.node_index_in_group(k, i)]
        cur = i
        for j in range(k, self.depth):
            cur = self.full_preimage[j - 1][cur]
            path.append(cur)
            idxs.append(self.node_index_in_group(j + 1, cur))
        return Thread(k, path, idxs)


def build_lattice_tower(t: Tower) -> LatticeTower:
    """Compute nodes, parent/child maps and full preimages for a tower."""
    if t.factors is not None:
        parts = [build_lattice_tower(f) for f in t.factors]
        return _product_lattice(t, parts)
    return _explicit_lattice(t)


def _explicit_lattice(t: Tower) -> LatticeTower:
    subs_per_level = [all_subgroups(g) for g in t.levels]

    node_orders = [[s.order for s in subs] for subs in subs_per_level]
    node_bits = [[s.bits for s in subs] for subs in subs_per_level]
    level_orders = [g.order for g in t.levels]

    parents: list[np.ndarray] = []
    children: list[list[list[int]]] = []
    full_preimage: list[list[int]] = []
    for k in range(1, t.depth):
        lo_index = {b: i for i, b in enumerate(node_bits[k - 1])}
        hom = t.map_down(k)
        par = np.zeros(len(node_bits[k]), dtype=np.int64)
        for i, s in enumerate(subs_per_level[k]):
            image = hom.image_subgroup(s)
            par[i] = lo_index[image.bits]
        parents.append(par)
        ch: list[list[int]] = [[] for _ in node_bits[k - 1]]
        for i, p in enumerate(par):
            ch[int(p)].append(i)
        children.append(ch)
        hi_index = {b: i for i, b in enumerate(node_bits[k])}
        fp = []
        for s in subs_per_level[k - 1]:
            pre = hom.preimage_subgroup(s)
            fp.append(hi_index[pre.bits])
        full_preimage.append(fp)

    return LatticeTower(
        tower=t,
        level_orders=level_orders,
        node_orders=node_orders,
        node_bits=node_bits,
        parents=parents,
        children=children,
        full_preimage=full_preimage,
    )


def _fold_bits(bits_left: int, bits_right: int, n_right: int) -> int:
    """Bitset of H_left x H_right inside the row-major product indexing."""
    out = 0
    b = bits_left
    while b:
        low = b & -b
        i = low.bit_length() - 1
        out |= bits_right << (i * n_right)
        b ^= low
    return out


def _product_lattice(t: Tower, parts: list[LatticeTower]) -> LatticeTower:
    depth = parts[0].depth
    level_orders = [
        int(np.prod([p.level_orders[k] for p in parts], dtype=object))
        for k in range(depth)
    ]

    node_orders: list[list[int]] = []
    node_bits: list[Optional[list[int]]] = []
    node_tuples: list[list[tuple]] = []
    index_of: list[dict] = []
    for k in range(depth):
        tuples = [()]
        for p in parts:
            tuples = [tp + (i,) for tp in tuples for i in range(len(p.node_orders[k]))]
        orders = []
        for tp in tuples:
            o = 1
            for p, i in zip(parts, tp):
                o *= p.node_orders[k][i]
            orders.append(o)
        bits: Optional[list[int]] = None
        if level_orders[k] <= PRODUCT_BITSET_LIMIT and all(
            p.node_bits[k] is not None for p in parts
        ):
            bits = []
            for tp in tuples:
                acc_bits = parts[0].node_bits[k][tp[0]]
                for p, i in zip(parts[1:], tp[1:]):
                    acc_bits = _fold_bits(acc_bits, p.node_bits[k][i], p.level_orders[k])
                bits.append(acc_bits)
        if bits is not None:
            perm = sorted(range(len(tuples)), key=lambda j: (orders[j], bits[j]))
        else:
            perm = sorted(range(len(tuples)), key=lambda j: (orders[j], tuples[j]))
        node_tuples.append([tuples[j] for j in perm])
        node_orders.append([orders[j] for j in perm])
        node_bits.append([bits[j] for j in perm] if bits is not None else None)
        index_of.append({tp: i for i, tp in enumerate(node_tuples[-1])})

    parents: list[np.ndarray] = []
    children: list[list[list[int]]] = []
    full_preimage: list[list[int]] = []
    for k in range(1, depth):
        par = np.zeros(len(node_tuples[k]), dtype=np.int64)
        for i, tp in enumerate(node_tuples[k]):
            ptp = tuple(
                int(p.parents[k - 1][ci]) for p, ci in zip(parts, tp)
            )
            par[i] = index_of[k - 1][ptp]
        parents.append(par)
        ch: list[list[int]] = [[] for _ in node_tuples[k - 1]]
        for i, p_idx in enumerate(par):
            ch[int(p_idx)].append(i)
        children.append(ch)
        fp = []
        for tp in node_tuples[k - 1]:
            pre_tp = tuple(p.full_preimage[k - 1][ci] for p, ci in zip(parts, tp))
            fp.append(index_of[k][pre_tp])
        full_preimage.append(fp)

    return LatticeTower(
        tower=t,
        level_orders=level_orders,
        node_orders=node_orders,
        node_bits=node_bits,
        parents=parents,
        children=children,
        full_preimage=full_preimage,
        factor_lattices=parts,
        node_factor_idx=node_tuples,
    )


def basic_open_fiber(lt: LatticeTower, k: int, i: int, j: int) -> list[int]:
    """Node indices at level k+j whose image at level k is node i.

    For explicit lattices the result is cross-checked against the subgroup
    criterion: K belongs to the fiber iff K*ker equals the full preimage of
    the node, with ker the kernel of the composite connecting map.
    """
    if j < 0 or k < 1 or k + j > lt.depth:
        raise OutOfRange(f"fiber endpoint {k}+{j} outside levels 1..{lt.depth}")
    fiber = [i]
    for lvl in range(k, k + j):
        nxt: list[int] = []
        for node in fiber:
            nxt.extend(lt.children[lvl - 1][node])
        fiber = nxt
    fiber = sorted(fiber)

    if j > 0 and lt.tower.levels:
        G = lt.tower.level(k + j)
        hom = lt.tower.composite_map(k + j, k)
        ker = hom.kernel()
        target = hom.preimage_subgroup(lt.subgroup(k, i))
        by_criterion = []
        for idx in range(lt.node_count(k + j)):
            K = lt.subgroup(k + j, idx)
            if product_set(G, K, ker).bits == target.bits:
                by_criterion.append(idx)
        if by_criterion != fiber:
            raise WrongShape("fiber disagrees with the K*ker criterion")
    return fiber


def isolated_nodes(lt: LatticeTower, k: int) -> set[int]:
    """Nodes at level k whose whole subtree is a chain of full preimages.

    The chain condition alone is only 'chain-apparent'; requiring every step
    to be the full preimage pins the index sequence constant, which is the
    finite witness of openness.
    """
    if not (1 <= k < lt.depth):
        raise OutOfRange(f"level {k} must satisfy 1 <= k < depth {lt.depth}")
    out = set()
    for i in range(lt.node_count(k)):
        cur = i
        ok = True
        for lvl in range(k, lt.depth):
            ch = lt.children[lvl - 1][cur]
            if len(ch) != 1 or ch[0] != lt.full_preimage[lvl - 1][cur]:
                ok = False
                break
            cur = ch[0]
        if ok:
            out.add(i)
    return out


def chain_apparent_nodes(lt: LatticeTower, k: int) -> set[int]:
    """Nodes at level k whose subtree to depth D is a chain (index may drift)."""
    if not (1 <= k < lt.depth):
        raise OutOfRange(f"level {k} must satisfy 1 <= k < depth {lt.depth}")
    out = set()
    for i in range(lt.node_count(k)):
        cur = i
        ok = True
        for lvl in range(k, lt.depth):
            ch = lt.children[lvl - 1][cur]
            if len(ch) != 1:
                ok = False
                break
            cur = ch[0]
        if ok:
            out.add(i)
    return out


@dataclass
class DensityResult:
    ok: bool
    counterexamples: list[tuple[int, int]]  # (level, node index)


def density_check(lt: LatticeTower) -> DensityResult:
    """Every basic open set must contain an open-subgroup witness: each node's
    fiber one level up contains the full-preimage node, whose continuation has
    constant group index."""
    bad: list[tuple[int, int]] = []
    for k in range(1, lt.depth):
        for i in range(lt.node_count(k)):
            fp = lt.full_preimage[k - 1][i]
            if fp not in lt.children[k - 1][i]:
                bad.append((k, i))
                continue
            if lt.node_index_in_group(k + 1, fp) != lt.node_index_in_group(k, i):
                bad.append((k, i))
    return DensityResult(not bad, bad)


def to_dot(
    lt: LatticeTower,
    isolated: dict[int, set[int]] | None = None,
    solitary: dict[int, set[int]] | None = None,
) -> str:
    """DOT rendering: one cluster per level, edges along the parent map,
    isolated nodes double-circled, solitary candidates filled."""
    isolated = isolated or {}
    solitary = solitary or {}
    lines = ["digraph lattice {", "  rankdir=TB;", "  node [shape=circle];"]
    for k in range(1, lt.depth + 1):
        lines.append(f"  subgraph cluster_level{k} {{")
        lines.append(f'    label="level {k}";')
        for i in range(lt.node_count(k)):
            attrs = [f'label="{lt.node_orders[k - 1][i]}"']
            if i in isolated.get(k, ()):
                attrs.append("shape=doublecircle")
            if i in solitary.get(k, ()):
                attrs.append("style=filled")
            lines.append(f"    L{k}N{i} [{', '.join(attrs)}];")
        lines.append("  }")
    for k in range(2, lt.depth + 1):
        for i in range(lt.node_count(k)):
            p = lt.parent_of(k, i)
            lines.append(f"  L{k - 1}N{p} -> L{k}N{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
