"""Depth-bounded derived-set filtration of the lattice tree.

The derivative is one-step: a surviving node is pruned when it has at most
one surviving child, and each derivative consumes one level of reliable
horizon (rank-r sets are recorded for levels 1..D-r).  With this rule the
rank-r set computed at depth D, restricted to the depth-D' horizon, equals
the set computed at depth D' -- truncation never rewrites history.

A node pruned at rank r+1 is "apparently isolated at rank r"; the depth-D
data cannot rule out branching below the horizon, which is why verdicts
never cite ranks past maxRank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import OutOfRange
from .groups import conjugate
from .lattice import LatticeTower
from .towers import Tower


@dataclass(frozen=True)
class ApparentHeight:
    """Either a resolved height or 'horizon exhausted at depth D'."""

    value: Optional[int]
    unbounded_at: Optional[int] = None

    @property
    def bounded(self) -> bool:
        return self.value is not None

    def as_json(self):
        if self.bounded:
            return {"kind": "bounded", "value": self.value}
        return {"kind": "unbounded", "depth": self.unbounded_at}

    def __str__(self) -> str:
        return str(self.value) if self.bounded else f"Unbounded({self.unbounded_at})"


@dataclass
class CBReport:
    horizon: int                       # D
    max_rank: int
    survivors: list[list[set[int]]]    # survivors[r][k-1] for levels 1..D-r
    apparent_isolated: list[list[set[int]]]  # rank r, levels 1..D-r-1
    apparent_height: ApparentHeight
    solitary: list[set[int]]           # per level 1..D-2: empirical candidates

    def survivor_counts(self) -> list[list[int]]:
        return [[len(s) for s in rank] for rank in self.survivors]

    def apparent_rank(self, k: int, i: int) -> int:
        """Largest r with node i at level k surviving rank r (censored at D-k)."""
        r = 0
        for rank in range(1, len(self.survivors)):
            levels = self.survivors[rank]
            if k - 1 >= len(levels):
                break
            if i in levels[k - 1]:
                r = rank
        return r


def default_max_rank(depth: int, prime_count: int) -> int:
    """Verdicts never cite ranks above min(D-1, #primes + 2)."""
    return max(1, min(depth - 1, prime_count + 2))


def cb_filtration(lt: LatticeTower, max_rank: int) -> CBReport:
    """Run the depth-bounded derived-set filtration.

    Rank 0 keeps every node.  A rank-r survivor at level k <= D-r-1 survives
    rank r+1 iff it has at least two rank-r surviving children.
    """
    D = lt.depth
    if not (1 <= max_rank < D):
        raise OutOfRange(f"maxRank must satisfy 1 <= maxRank < depth {D}")

    # alive[k-1]: the current rank's survivors at level k, as a mask
    alive = [np.ones(lt.node_count(k), dtype=bool) for k in range(1, D + 1)]
    survivors: list[list[set[int]]] = [[_members(m) for m in alive]]
    apparent_isolated: list[list[set[int]]] = []
    for r in range(max_rank):
        nxt = []
        for k in range(1, D - r):
            living = np.bincount(lt.parents[k - 1][alive[k]], minlength=lt.node_count(k))
            nxt.append(alive[k - 1] & (living >= 2))
        survivors.append([_members(m) for m in nxt])
        apparent_isolated.append([_members(a & ~m) for a, m in zip(alive, nxt)])
        alive = nxt

    apparent_height = _apparent_height(survivors, max_rank, D)
    solitary = (
        [set(s) for s in apparent_isolated[1]] if max_rank >= 2 else []
    )
    return CBReport(
        horizon=D,
        max_rank=max_rank,
        survivors=survivors,
        apparent_isolated=apparent_isolated,
        apparent_height=apparent_height,
        solitary=solitary,
    )


def _members(mask: np.ndarray) -> set[int]:
    return set(np.flatnonzero(mask).tolist())


def _apparent_height(
    survivors: list[list[set[int]]], max_rank: int, D: int
) -> ApparentHeight:
    for r in range(max_rank + 1):
        if all(not s for s in survivors[r]):
            return ApparentHeight(r)
        if r < max_rank:
            # chain-free: the next derivative prunes nothing within its horizon
            stable = all(
                survivors[r + 1][k] == survivors[r][k] for k in range(D - r - 1)
            )
            if stable:
                return ApparentHeight(r)
    return ApparentHeight(None, unbounded_at=D)


@dataclass
class SolitaryCandidate:
    level: int
    index: int
    status: str  # "Certified" or "Empirical"
    certificates: list[str] = field(default_factory=list)


def solitary_candidates(
    report: CBReport,
    certified: dict[tuple[int, int], list[str]] | None = None,
) -> list[SolitaryCandidate]:
    """Rank-1 survivors whose rank-1 subtree is a chain, i.e. the nodes pruned
    at rank 2 inside the reliable horizon.  Entries named in `certified`
    (from the casebook audits) are included with Certified status even when
    the horizon is too shallow to show the chain empirically."""
    certified = certified or {}
    out: dict[tuple[int, int], SolitaryCandidate] = {}
    for k, nodes in enumerate(report.solitary, start=1):
        for i in sorted(nodes):
            out[(k, i)] = SolitaryCandidate(k, i, "Empirical")
    for (k, i), certs in sorted(certified.items()):
        if (k, i) in out:
            out[(k, i)].status = "Certified"
            out[(k, i)].certificates = list(certs)
        else:
            out[(k, i)] = SolitaryCandidate(k, i, "Certified", list(certs))
    return [out[key] for key in sorted(out)]


def conjugation_orbits(lt: LatticeTower, k: int) -> list[list[int]]:
    """Partition of level-k nodes into conjugacy orbits (generator action)."""
    if lt.factor_lattices is not None:
        return _product_orbits(lt, k)
    G = lt.tower.level(k)
    bits_index = {b: i for i, b in enumerate(lt.node_bits[k - 1])}
    seen: set[int] = set()
    orbits: list[list[int]] = []
    for i in range(lt.node_count(k)):
        if i in seen:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            nxt = []
            for j in frontier:
                H = lt.subgroup(k, j)
                for g in G.generators:
                    cj = bits_index[conjugate(G, H, g).bits]
                    if cj not in orbit:
                        orbit.add(cj)
                        nxt.append(cj)
            frontier = nxt
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def _product_orbits(lt: LatticeTower, k: int) -> list[list[int]]:
    """Conjugacy classes of a direct product are products of classes: a node's
    orbit is read off its factor nodes' orbits."""
    factor_idx = lt.node_factor_idx[k - 1]
    orbit_ids, orbit_counts = [], []
    for p in lt.factor_lattices:
        orbits = conjugation_orbits(p, k)
        oid = np.empty(p.node_count(k), dtype=np.int64)
        for onum, orb in enumerate(orbits):
            oid[orb] = onum
        orbit_ids.append(oid)
        orbit_counts.append(len(orbits))
    key = np.ravel_multi_index(
        [oid[c] for oid, c in zip(orbit_ids, factor_idx.T)], orbit_counts
    )
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    return [part.tolist() for part in np.split(order, cuts)]


def conjugation_audit(lt: LatticeTower, report: CBReport) -> bool:
    """True iff apparent rank is constant on every conjugacy orbit at every level."""
    for k in range(1, lt.depth + 1):
        for orbit in conjugation_orbits(lt, k):
            ranks = {report.apparent_rank(k, i) for i in orbit}
            if len(ranks) > 1:
                return False
    return True


def height_bound_audit(t: Tower, report: CBReport) -> bool:
    """Scattered-height bound: apparent height <= #primes + 1, or the horizon
    was exhausted before the bound could be contradicted."""
    bound = len(t.primes) + 1
    h = report.apparent_height
    if h.bounded:
        return h.value <= bound
    return report.max_rank <= bound
