"""Levelwise subgroup lattices with the induced maps.

The lattice tower is the finitely branching tree whose branch space
approximates the subgroup space of the tower's limit: nodes at level k are
the subgroups of the level-k group in canonical (order, bitset) order, and a
node's parent is its image under the connecting map.  The tree is stored
once, as one int64 array of parents and one of full preimages per level;
child counts and ancestors are read from the parent arrays.

Coprime product towers have no level groups at any cap: the product lattice
is the levelwise product of the factor lattices (every subgroup of a coprime
product factorizes), so no product Cayley table is ever built.  Up to
PRODUCT_BITSET_LIMIT the factor bitsets are folded into the row-major product
indexing, because they fix the canonical node order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import PRODUCT_BITSET_LIMIT
from .errors import CapExceeded, NotNormal, OutOfRange, WrongShape
from .groups import Subgroup, _bits_to_rows, all_subgroups, is_normal, target_subgroups
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
    full_preimage: list[np.ndarray]       # full_preimage[k-1][i] = node at level k+1 over node i at k
    factor_lattices: Optional[list["LatticeTower"]] = None
    # product route only: node_factor_idx[k-1][i] = node i's factor node indices
    node_factor_idx: Optional[list[np.ndarray]] = None

    @property
    def depth(self) -> int:
        return len(self.node_orders)

    def node_count(self, k: int) -> int:
        if not 1 <= k <= self.depth:
            raise OutOfRange(f"level {k} outside 1..{self.depth}")
        return len(self.node_orders[k - 1])

    def _check_node(self, k: int, i: int) -> None:
        """Raise OutOfRange unless level k has a node i."""
        if not 0 <= i < self.node_count(k):
            raise OutOfRange(f"node {i} outside 0..{self.node_count(k) - 1} at level {k}")

    def counts_per_level(self) -> list[int]:
        return [self.node_count(k) for k in range(1, self.depth + 1)]

    def node_index_in_group(self, k: int, i: int) -> int:
        """Group-theoretic index [G_k : H] of node i at level k."""
        self._check_node(k, i)
        return self.level_orders[k - 1] // self.node_orders[k - 1][i]

    def subgroup(self, k: int, i: int) -> Subgroup:
        if not self.tower.levels:
            raise CapExceeded(
                f"level {k} nodes are structural; explicit subgroups unavailable"
            )
        self._check_node(k, i)
        order = self.node_orders[k - 1][i]
        return Subgroup(self.tower.level(k), self.node_bits[k - 1][i], order)

    def parent_of(self, k: int, i: int) -> int:
        """Parent node index (at level k-1) of node i at level k >= 2."""
        if k < 2:
            raise OutOfRange(f"level {k} has no parent level")
        self._check_node(k, i)
        return int(self.parents[k - 2][i])

    def thread_from(self, k: int, i: int) -> Thread:
        """The full-preimage thread starting at node i of level k."""
        path = [i]
        idxs = [self.node_index_in_group(k, i)]
        cur = i
        for j in range(k, self.depth):
            cur = int(self.full_preimage[j - 1][cur])
            path.append(cur)
            idxs.append(self.node_index_in_group(j + 1, cur))
        return Thread(k, path, idxs)


def build_lattice_tower(t: Tower) -> LatticeTower:
    """Compute nodes, parents and full preimages for a tower."""
    if t.factors is not None:
        parts = [build_lattice_tower(f) for f in t.factors]
        return _product_lattice(t, parts)
    return _explicit_lattice(t)


def _explicit_lattice(t: Tower) -> LatticeTower:
    # only the top level is enumerated; each level below, and its links to the
    # level above, are read off that level through the connecting map
    subs_per_level = [all_subgroups(t.levels[-1])]
    parents: list[np.ndarray] = []
    full_preimage: list[np.ndarray] = []
    for k in range(t.depth - 1, 0, -1):
        subs, up, down = target_subgroups(t.map_down(k))
        subs_per_level.insert(0, subs)
        parents.insert(0, up)
        full_preimage.insert(0, down)

    return LatticeTower(
        tower=t,
        level_orders=[g.order for g in t.levels],
        node_orders=[[s.order for s in subs] for subs in subs_per_level],
        node_bits=[[s.bits for s in subs] for subs in subs_per_level],
        parents=parents,
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
    """Nodes are tuples of factor nodes, canonically sorted; a link maps each
    factor node through its factor's link array, and the row-major index of
    the linked tuple gives its node through the level's inverse sort."""
    depth = parts[0].depth
    level_orders = [math.prod(p.level_orders[k] for p in parts) for k in range(depth)]

    node_orders: list[list[int]] = []
    node_bits: list[Optional[list[int]]] = []
    node_factor_idx: list[np.ndarray] = []
    shapes: list[tuple[int, ...]] = []
    rank: list[np.ndarray] = []  # per level: node index of each row-major index
    for k in range(depth):
        shape = tuple(p.node_count(k + 1) for p in parts)
        coords = np.unravel_index(np.arange(math.prod(shape)), shape)
        orders = np.ones(len(coords[0]), dtype=object)
        for p, c in zip(parts, coords):
            orders *= np.array(p.node_orders[k], dtype=object)[c]
        orders = orders.tolist()
        bits: Optional[list[int]] = None
        if level_orders[k] <= PRODUCT_BITSET_LIMIT and all(
            p.node_bits[k] is not None for p in parts
        ):
            bits = []
            for tp in zip(*(c.tolist() for c in coords)):
                acc_bits = parts[0].node_bits[k][tp[0]]
                for p, i in zip(parts[1:], tp[1:]):
                    acc_bits = _fold_bits(acc_bits, p.node_bits[k][i], p.level_orders[k])
                bits.append(acc_bits)
            perm = np.array(sorted(range(len(orders)), key=lambda j: (orders[j], bits[j])),
                            dtype=np.int64)
        else:
            # row-major order is the factor tuples' order, so a stable sort
            # on the order alone breaks ties by tuple
            perm = np.array(sorted(range(len(orders)), key=orders.__getitem__), dtype=np.int64)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        node_factor_idx.append(np.stack(coords, axis=1)[perm])
        shapes.append(shape)
        rank.append(inverse)
        node_orders.append([orders[j] for j in perm])
        node_bits.append([bits[j] for j in perm] if bits is not None else None)

    def link(k: int, arrays: list[np.ndarray], to: int) -> np.ndarray:
        linked = [a[c] for a, c in zip(arrays, node_factor_idx[k].T)]
        return rank[to][np.ravel_multi_index(linked, shapes[to])]

    parents = [link(k, [p.parents[k - 1] for p in parts], k - 1) for k in range(1, depth)]
    full_preimage = [
        link(k - 1, [p.full_preimage[k - 1] for p in parts], k) for k in range(1, depth)
    ]
    return LatticeTower(
        tower=t,
        level_orders=level_orders,
        node_orders=node_orders,
        node_bits=node_bits,
        parents=parents,
        full_preimage=full_preimage,
        factor_lattices=parts,
        node_factor_idx=node_factor_idx,
    )


def basic_open_fiber(lt: LatticeTower, k: int, i: int, j: int) -> list[int]:
    """Node indices at level k+j whose image at level k is node i.

    For explicit lattices the result is cross-checked against the subgroup
    criterion: K belongs to the fiber iff K*ker equals the full preimage of
    the node, with ker the kernel of the composite connecting map.
    """
    if j < 0 or k < 1 or k + j > lt.depth:
        raise OutOfRange(f"fiber endpoint {k}+{j} outside levels 1..{lt.depth}")
    ancestor = np.arange(lt.node_count(k + j))
    for lvl in range(k + j - 1, k - 1, -1):
        ancestor = lt.parents[lvl - 1][ancestor]
    fiber = np.flatnonzero(ancestor == i).tolist()

    if j > 0 and lt.tower.levels:
        # the preimage of the node, and the kernel as the preimage of the
        # trivial node 0, stepped down one connecting map at a time
        target, ker = lt.subgroup(k, i), lt.subgroup(k, 0)
        for lvl in range(k, k + j):
            hom = lt.tower.map_down(lvl)
            target, ker = hom.preimage_subgroup(target), hom.preimage_subgroup(ker)
        G = lt.tower.level(k + j)
        if not is_normal(G, ker):
            raise NotNormal("the kernel of the connecting maps is not normal")
        # K*ker is a subgroup of order |K||ker|/|K & ker|, so it equals the
        # preimage exactly when K and ker lie in it and the orders agree
        rows = _bits_to_rows(lt.node_bits[k + j - 1], G.order)
        meets = rows[:, ker.mask()].sum(axis=1)
        inside = ~rows[:, ~target.mask()].any(axis=1) & (ker.bits & ~target.bits == 0)
        orders = np.array(lt.node_orders[k + j - 1], dtype=np.int64)
        by_criterion = np.flatnonzero(inside & (orders * ker.order == meets * target.order))
        if by_criterion.tolist() != fiber:
            raise WrongShape("fiber disagrees with the K*ker criterion")
    return fiber


def _chain_nodes(lt: LatticeTower, k: int, through_full_preimage: bool) -> set[int]:
    """Nodes at level k whose subtree to depth D is a chain, found bottom-up:
    a node qualifies when it has exactly one child and that child qualifies
    (and, through full preimages, is the node's full preimage)."""
    if not (1 <= k < lt.depth):
        raise OutOfRange(f"level {k} must satisfy 1 <= k < depth {lt.depth}")
    ok = np.ones(lt.node_count(lt.depth), dtype=bool)
    for lvl in range(lt.depth - 1, k - 1, -1):
        par = lt.parents[lvl - 1]
        if through_full_preimage:
            ok &= lt.full_preimage[lvl - 1][par] == np.arange(len(par))
        n = lt.node_count(lvl)
        ok = (np.bincount(par, minlength=n) == 1) & (np.bincount(par[ok], minlength=n) == 1)
    return set(np.flatnonzero(ok).tolist())


def isolated_nodes(lt: LatticeTower, k: int) -> set[int]:
    """Nodes at level k whose whole subtree is a chain of full preimages.

    The chain condition alone is only 'chain-apparent'; requiring every step
    to be the full preimage pins the index sequence constant, which is the
    finite witness of openness.
    """
    return _chain_nodes(lt, k, through_full_preimage=True)


def chain_apparent_nodes(lt: LatticeTower, k: int) -> set[int]:
    """Nodes at level k whose subtree to depth D is a chain (index may drift)."""
    return _chain_nodes(lt, k, through_full_preimage=False)


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
        fp = lt.full_preimage[k - 1]
        index_lo = lt.level_orders[k - 1] // np.array(lt.node_orders[k - 1], dtype=object)
        index_hi = lt.level_orders[k] // np.array(lt.node_orders[k], dtype=object)[fp]
        wrong = (lt.parents[k - 1][fp] != np.arange(len(fp))) | (index_hi != index_lo)
        bad += [(k, i) for i in np.flatnonzero(wrong).tolist()]
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
