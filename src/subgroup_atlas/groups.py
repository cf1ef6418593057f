"""Exact finite-group arithmetic on explicit multiplication tables.

Groups are immutable once constructed; elements are integers 0..order-1 and
subgroups are membership bitsets (python ints).  Every group holds a Cayley
table except the cyclic groups, whose product a + b mod n is computed and
whose lattice is read in closed form: one subgroup for each divisor of n,
and links between cyclic levels from the nodes' orders.  Every other group
is enumerated by cyclic extension (or, if insoluble, the generic path).  The
canonical order of any subgroup collection is (order, bitset value), which
is the determinism contract for everything downstream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .config import order_cap
from .errors import CapExceeded, NotNormal, OutOfRange, SpecError, WrongShape


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _table_dtype(order: int):
    return np.uint16 if order <= 0xFFFF else np.uint32


# Cells of the table that one step of a construction-time check reads at
# once, so a check allocates a fixed block, never an n x n temporary.
BLOCK_CELLS = 1 << 16
# Measured time of one table cell gathered by index arithmetic, in cells of
# a boolean pass over a membership block: the enumeration picks its rule by it.
GATHER_CELL_COST = 8


def _block_cells(n: int) -> int:
    """Cells of a block of membership rows of a group of order n: max(BLOCK_CELLS
    // 8, n^2 / 64), but BLOCK_CELLS at most.  Each pass is shared by as many
    rows as fit, while the index temporaries, up to 16 bytes a cell, stay
    within BLOCK_CELLS bytes on small groups and within an eighth of the
    2n^2-byte table on large ones."""
    return min(BLOCK_CELLS, max(BLOCK_CELLS // 8, n * n // 64))


def _row_blocks(n: int) -> range:
    """Start rows of the row blocks that cover an n x n table: each block is
    the range's step rows long, BLOCK_CELLS cells or one row at most."""
    return range(0, n, max(1, BLOCK_CELLS // n))


# Cells of one gather block of table_from_rows: the block and its gathered
# copy are what the fill holds beside the table.
FILL_CELLS = BLOCK_CELLS // 8


class FiniteGroup:
    """A finite group as an explicit Cayley table (a CyclicGroup holds none).

    Invariants verified exactly at construction: identity and inverse laws,
    that the stored generators generate the whole group, and associativity.
    `basis` is an irredundant generating subset of the stored generators,
    on which associativity and homomorphisms are checked.  `labels` is a
    list of element names or a function computing one on demand.
    """

    def __init__(
        self,
        table: np.ndarray | Sequence[Sequence[int]],
        generators: Sequence[int] | None = None,
        labels: Sequence[str] | Callable[[int], str] | None = None,
        name: str = "",
    ):
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise WrongShape("multiplication table must be square")
        n = table.shape[0]
        self.order = n
        # a read-only table in the level's dtype, as table_from_rows returns,
        # is kept without a copy
        if table.dtype != _table_dtype(n) or table.flags.writeable:
            table = table.astype(_table_dtype(n))
            table.setflags(write=False)
        self.table = table
        self.name = name or f"group{n}"
        if labels is None or callable(labels):
            self._label = labels
        else:
            names = list(labels)
            if len(names) != n:
                raise WrongShape("labels length must equal group order")
            self._label = names.__getitem__

        self.identity = self._find_identity()
        self.inv = self._build_inverses()
        self.primes = frozenset(_prime_factors(n)) if n > 1 else frozenset()

        if generators is None:
            generators = list(range(n))
        self.generators = [int(g) for g in generators]

        self._abelian: Optional[bool] = None
        self._subgroups: Optional[list[Subgroup]] = None
        self._power_maps: dict[int, np.ndarray] = {}
        self._product_of: Optional[tuple[FiniteGroup, FiniteGroup]] = None

        self.basis = self._check_group()

    # -- construction-time checks ------------------------------------------

    def _find_identity(self) -> int:
        n = self.order
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx):
                return e
        raise WrongShape("table has no two-sided identity")

    def _build_inverses(self) -> np.ndarray:
        t, e, idx = self.table, self.identity, np.arange(self.order)
        inv = np.empty(self.order, dtype=np.intp)
        blocks = _row_blocks(self.order)
        for lo in blocks:  # the first b with a*b == e, else 0
            inv[lo:lo + blocks.step] = np.argmax(t[lo:lo + blocks.step] == e, axis=1)
        if not (np.all(t[idx, inv] == e) and np.all(t[inv, idx] == e)):
            raise WrongShape("table has an element without a two-sided inverse")
        inv.setflags(write=False)
        return inv

    def _check_group(self) -> list[int]:
        """Verify associativity exactly on an irredundant basis; return it.

        The basis is the stored generators, in order, that the generation
        walk of closure, run on the table's own columns, does not yet reach
        from the identity, and it must reach every element.  In a group each
        kept generator at least doubles the subgroup reached, so a longer
        basis than log2 of the order proves the table is not a group.  Light's
        test then runs on the basis: the elements s with (a*s)*c == a*(s*c)
        for all a, c are closed under the product, so passing on a basis
        proves the whole table associative.
        """
        n, t = self.order, self.table
        reached, members = _walk_start(n, self.identity)
        basis: list[int] = []
        columns: list[list[int]] = []  # column s maps a to a*s
        for g in self.generators:
            if g < 0 or g >= n:
                raise OutOfRange(f"generator {g} outside group of order {n}")
            if reached[g]:
                continue
            basis.append(g)
            if 1 << len(basis) > n:
                raise WrongShape("table is not a group: basis longer than log2 of the order")
            columns.append(t[:, g].tolist())
            _walk(columns, reached, members)
        if len(members) != n:
            raise WrongShape("stored generators do not generate the group")
        blocks = _row_blocks(n)
        for s in basis:
            s_row = t[s].astype(np.intp)  # c -> s*c
            for lo in blocks:
                rows = t[lo:lo + blocks.step]
                if not np.array_equal(t.take(rows[:, s], axis=0), rows.take(s_row, axis=1)):
                    raise WrongShape(f"table is not associative (s={s})")
        return basis

    # -- basic queries ------------------------------------------------------

    def mul(self, a, b) -> np.ndarray:
        """a*b for element indices or integer index arrays, broadcast together, as
        intp: how every product outside the construction checks is read."""
        a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
        return _cells(self.table, a, b).astype(np.intp)

    def is_abelian(self) -> bool:
        """Whether the basis elements commute pairwise: exact, since the
        basis generates the group, which is verified associative."""
        if self._abelian is None:
            on_basis = self.mul(*np.ix_(self.basis, self.basis))
            self._abelian = bool(np.array_equal(on_basis, on_basis.T))
        return self._abelian

    def power_map(self, e: int) -> np.ndarray:
        """Vector of g^e for every element g, by square and multiply: the bits
        of e from the top, each after the first squaring the powers so far and
        a set bit multiplying them by g, in floor(log2 e) + popcount(e) - 1
        passes of n products.  For e < 0 it is the inverse of g^-e."""
        if e not in self._power_maps:
            if e < 0:
                out = self.inv.take(self.power_map(-e))
            else:
                base = np.arange(self.order)
                out = base if e else np.full(self.order, self.identity, dtype=np.int64)
                for bit in bin(e)[3:]:
                    out = self.mul(out, out)
                    if bit == "1":
                        out = self.mul(out, base)
            out = out.astype(np.int64, copy=False)
            out.setflags(write=False)
            self._power_maps[e] = out
        return self._power_maps[e]

    def element_label(self, a: int) -> str:
        return str(a) if self._label is None else self._label(a)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


class CyclicGroup(FiniteGroup):
    """Z/n with elements 0..n-1 and product a + b mod n, holding no table.

    Addition mod n is a group law by construction, so nothing is checked:
    the identity is 0, the inverse of a is -a and the basis is [1], or []
    when n = 1.  It is abelian, and its subgroups and the links of a map
    between cyclic groups are written in closed form (_cyclic_subgroups,
    _cyclic_links), with no enumeration.
    """

    def __init__(self, n: int):
        self.order = n
        self.name = f"Z{n}"
        self._label = None
        self.identity = 0
        self.inv = -np.arange(n, dtype=np.intp) % n
        self.inv.setflags(write=False)
        self.primes = frozenset(_prime_factors(n)) if n > 1 else frozenset()
        self.generators = [1 % n]
        self.basis = [1] if n > 1 else []
        self._abelian: Optional[bool] = True
        self._subgroups: Optional[list[Subgroup]] = None
        self._power_maps: dict[int, np.ndarray] = {}
        self._product_of: Optional[tuple[FiniteGroup, FiniteGroup]] = None

    def mul(self, a, b) -> np.ndarray:
        """(a + b) mod n, broadcast and typed as FiniteGroup.mul."""
        return (np.asarray(a, dtype=np.intp) + np.asarray(b, dtype=np.intp)) % self.order

    def power_map(self, e: int) -> np.ndarray:
        """Vector of e*a mod n for every element a."""
        if e not in self._power_maps:
            out = np.arange(self.order, dtype=np.int64) * (e % self.order) % self.order
            out.setflags(write=False)
            self._power_maps[e] = out
        return self._power_maps[e]


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a FiniteGroup, identified by its membership bitset."""

    parent: FiniteGroup
    bits: int
    order: int

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.bits))

    def contains(self, a: int) -> bool:
        return bool((self.bits >> a) & 1)

    def indices(self) -> np.ndarray:
        return np.nonzero(self.mask())[0]

    def mask(self) -> np.ndarray:
        return _bits_to_rows([self.bits], self.parent.order)[0]

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def _rows_to_bits(rows: np.ndarray) -> list[int]:
    """The bitset of each row of an (m x n) membership matrix."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def _bits_to_rows(bits: Sequence[int], n: int) -> np.ndarray:
    """The (len(bits) x n) membership matrix whose row i is bitset bits[i]."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bits), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(bits), width), axis=1, count=n,
                         bitorder="little").view(bool)


def _subgroup_from_mask(G: FiniteGroup, mask: np.ndarray) -> Subgroup:
    return Subgroup(G, _rows_to_bits(mask[None])[0], int(mask.sum()))


def _subgroup_of(G: FiniteGroup, elements) -> Subgroup:
    """The subgroup whose members are the given element indices."""
    mask = np.zeros(G.order, dtype=bool)
    mask[elements] = True
    return _subgroup_from_mask(G, mask)


def _coset_minima(G: FiniteGroup, K: Subgroup) -> np.ndarray:
    """For every g, the least element of the coset gK, from blocks of at most
    BLOCK_CELLS // 8 products, as mul allocates up to 20 bytes a product."""
    k = K.indices()
    out = np.empty(G.order, dtype=np.intp)
    step = max(1, BLOCK_CELLS // 8 // len(k))
    for lo in range(0, G.order, step):
        rows = np.arange(lo, min(lo + step, G.order))
        np.min(G.mul(rows[:, None], k), axis=1, out=out[lo:lo + step])
    return out


def _cells(M: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """M[r, c] for index arrays (broadcast together), read from the flat M."""
    return M.ravel().take(np.multiply(r, M.shape[1], dtype=np.intp) + c)


# -- elementary operations ---------------------------------------------------

def _walk_start(n: int, identity: int) -> tuple[bytearray, list[int]]:
    """The state of a generation walk that has reached only the identity: a
    byte per element, 1 where reached, and the members in the order found."""
    reached = bytearray(n)
    reached[identity] = 1
    return reached, [identity]


def _walk(columns: list[list[int]], reached: bytearray, members: list[int]) -> None:
    """Walk members breadth-first from the start, appending each x*s not yet
    reached for every column s (column s lists a*s for each a), until the
    members are closed under right multiplication by every column's s."""
    for x in members:  # grows while it is walked
        for col in columns:
            y = col[x]
            if not reached[y]:
                reached[y] = 1
                members.append(y)


def closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the seed elements.

    A breadth-first walk from the identity along right multiplication by
    each distinct non-identity seed s, whose column a -> a*s is read once
    through G.mul: n*|S| products and |K|*|S| lookups for |K| = <S>.  In a
    finite group the set the walk reaches is closed under the product, as
    s^-1 is a power of s, so it is <S>.  An empty seed yields the trivial
    subgroup.  The same walk finds a table's basis in FiniteGroup._check_group.
    """
    n = G.order
    seeds: dict[int, None] = {}  # the distinct non-identity seeds, in order
    for s in seed:
        s = int(s)
        if s < 0 or s >= n:
            raise OutOfRange(f"seed element {s} outside group of order {n}")
        if s != G.identity:
            seeds[s] = None
    reached, members = _walk_start(n, G.identity)
    every = np.arange(n)
    _walk([G.mul(every, s).tolist() for s in seeds], reached, members)
    return Subgroup(G, _rows_to_bits(np.frombuffer(reached, dtype=bool)[None])[0], len(members))


def _derived_series_reaches_trivial(G: FiniteGroup) -> bool:
    order, gens = G.order, G.basis
    while order > 1:  # each step shrinks the order, so the loop ends
        derived, gens = _commutator_of(G, gens)
        if derived.order == order:
            return False
        order = derived.order
    return True


def _commutator_of(G: FiniteGroup, gens: Sequence[int]) -> tuple[Subgroup, list[int]]:
    """[H, H] for H = <gens>, with the elements of it that generate it.

    [H, H] is the normal closure in H of the commutators of the generators:
    that closure lies in [H, H], and modulo it the generators commute, so H
    over it is abelian.
    """
    gens = np.asarray(gens, dtype=np.intp)
    return _normal_closure(G, _commutators(G, gens), gens)


def _commutators(G: FiniteGroup, gens: np.ndarray) -> list[int]:
    """[a, b] = ab(ba)^-1 for each pair a before b of the generators."""
    a, b = gens.take(np.triu_indices(len(gens), 1))  # each pair once, in order
    return G.mul(G.mul(a, b), G.inv.take(G.mul(b, a))).tolist()


def _normal_closure(G: FiniteGroup, todo: list[int],
                    gens: np.ndarray) -> tuple[Subgroup, list[int]]:
    """The normal closure in H = <gens> of the elements `todo`, with the
    elements of it that generate it.

    The elements are walked in order; one outside the subgroup built so far
    joins its generators, and its conjugates by the generators are walked
    after them.  A finite subgroup that conjugation by each generator maps
    into itself is normal in H.  Each join at least doubles the subgroup, so
    at most log2 of its order closures run.
    """
    closed, joined = trivial_subgroup(G), []
    for c in todo:  # grows while it is walked
        if not closed.contains(c):
            joined.append(c)
            closed = closure(G, joined)
            todo += G.mul(G.mul(G.inv.take(gens), c), gens).tolist()
    return closed, joined


def full_subgroup(G: FiniteGroup) -> Subgroup:
    mask = np.ones(G.order, dtype=bool)
    return _subgroup_from_mask(G, mask)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return _subgroup_of(G, G.identity)


def _normalizing(G: FiniteGroup, in_H: np.ndarray, gens, candidates) -> np.ndarray:
    """Mask over the candidate elements g: True where g normalizes H.

    `in_H` is H's membership mask and `gens` any generating set of H (all of
    H will do).  g^-1 H g is a subgroup of order |H|, so it equals H as soon
    as it contains g^-1 h g for every generator h.
    """
    hs = np.asarray(gens, dtype=np.int64)
    cs = np.asarray(candidates, dtype=np.int64)[:, None]
    return in_H[G.mul(G.mul(G.inv[cs], hs), cs)].all(axis=1)


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, sorted by (order, bitset).

    A cyclic G is read in closed form (_cyclic_subgroups).  Any other G runs
    a bottom-up cyclic-extension BFS: each known subgroup H is extended by the
    normalizing elements g with g^q in H for a prime q dividing |G|.  That
    finds every subgroup of a soluble group (composition series argument);
    insoluble groups fall back to extension by arbitrary outside elements.
    Abelian groups and groups of prime-power order (nilpotent) are taken as
    soluble without running the derived-series test.
    """
    if G.order > order_cap():
        raise CapExceeded(f"group order {G.order} above cap {order_cap()}")
    if G._subgroups is not None:
        return list(G._subgroups)

    if isinstance(G, CyclicGroup):
        result = _cyclic_subgroups(G)
    elif len(G.primes) <= 1 or G.is_abelian() or _derived_series_reaches_trivial(G):
        result = _subgroups_cyclic_extension(G)
    else:
        result = sorted(_subgroups_generic(G).values(), key=lambda s: (s.order, s.bits))
    G._subgroups = result
    return list(result)


def _divisors(n: int, primes: Iterable[int]) -> list[int]:
    """The divisors of n in ascending order, from its prime factors."""
    out = [1]
    for p in primes:
        powers, m = [], n
        while m % p == 0:
            m //= p
            powers.append(n // m)
        out += [d * q for d in out for q in powers]
    return sorted(out)


def _cyclic_subgroups(G: CyclicGroup) -> list[Subgroup]:
    """Every subgroup of Z/n in closed form: for each divisor d of n, the
    multiples of n/d, of order d.  One subgroup of each order, so ascending
    d is the (order, bitset) order.  A bitset is one strided row of n bools,
    τ(n) rows in all."""
    n = G.order
    row = np.zeros(n, dtype=bool)
    out = []
    for d in _divisors(n, G.primes):
        row[:] = False
        row[::n // d] = True
        out.append(Subgroup(G, _rows_to_bits(row[None])[0], d))
    return out


def _cyclic_links(hom: Homomorphism) -> tuple[np.ndarray, np.ndarray]:
    """The links of target_subgroups for a surjective Z/m -> Z/n, read off the
    orders of the nodes, one node of each order on both sides.  The kernel
    is the subgroup of order k = m/n, and the node K of order d meets it in
    the one of order gcd(d, k), so K's image has order d / gcd(d, k); the
    full preimage of the node of order e has order e*k.  Every onto map is
    a -> a*u mod n for a unit u, and no u enters, since an automorphism of a
    cyclic group fixes each of its subgroups."""
    k = hom.source.order // hom.target.order
    upper, lower = all_subgroups(hom.source), hom.target._subgroups
    at = {s.order: i for i, s in enumerate(upper)}
    below = {s.order: i for i, s in enumerate(lower)}
    parents = [below[K.order // math.gcd(K.order, k)] for K in upper]
    full_preimage = [at[s.order * k] for s in lower]
    return np.array(parents, dtype=np.int64), np.array(full_preimage, dtype=np.int64)


def target_subgroups(hom: Homomorphism) -> tuple[list[Subgroup], np.ndarray, np.ndarray]:
    """Every subgroup of the target of a surjective hom, sorted by (order,
    bitset), with the links of the source's lattice to it: the node index of
    each source subgroup's image, and the source node that is the full
    preimage of each target subgroup.  The target's list is read off the
    source's and kept as the target's own, which all_subgroups returns from
    then on; a target that holds a list already keeps it.

    All three come from one image pass over the source's subgroups, in row
    blocks.  An image holds x when K holds any element over x, so K's row is
    gathered into |ker| slabs, slab j holding x'k_j for each target element
    x, with x' one element over x and k_j the j-th element of the kernel, and
    the image row is their `any`.  The image has order |K| / |K & ker|, so the
    K whose image has order |K| / |ker| are exactly those that contain the
    kernel.  By the correspondence theorem their images are the target's
    subgroups, each once, and each such K is the full preimage of its image.
    """
    if not hom.surjective:
        raise WrongShape("target_subgroups needs a surjective homomorphism")
    G, n = hom.target, hom.source.order
    if isinstance(G, CyclicGroup) and isinstance(hom.source, CyclicGroup):
        if G._subgroups is None:
            G._subgroups = _cyclic_subgroups(G)
        return (list(G._subgroups), *_cyclic_links(hom))
    upper = all_subgroups(hom.source)
    lift = np.empty(G.order, dtype=np.intp)
    lift[hom.map] = np.arange(n)
    kernel = (hom.map == G.identity).nonzero()[0]
    by_image = hom.source.mul(lift[None, :], kernel[:, None]).ravel()
    step = max(1, _block_cells(n) // n)
    bits: list[int] = []
    orders: list[int] = []
    for lo in range(0, len(upper), step):
        rows = _bits_to_rows([K.bits for K in upper[lo:lo + step]], n).take(by_image, axis=1)
        image = rows.reshape(len(rows), len(kernel), G.order).any(axis=1)
        bits += _rows_to_bits(image)
        orders += image.sum(axis=1).tolist()
    over = [j for j, K in enumerate(upper) if orders[j] * len(kernel) == K.order]
    if G._subgroups is None:
        G._subgroups = [Subgroup(G, bits[j], orders[j]) for j in over]
        G._subgroups.sort(key=lambda s: (s.order, s.bits))
    index = {s.bits: i for i, s in enumerate(G._subgroups)}
    parents = np.array([index[b] for b in bits], dtype=np.int64)
    full_preimage = np.empty(len(G._subgroups), dtype=np.int64)
    full_preimage[parents[over]] = over
    return list(G._subgroups), parents, full_preimage


def _subgroups_cyclic_extension(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of a soluble G, sorted, one breadth-first layer at a time.

    K = <H, c> for c normalizing H with c^q in H, q prime, has |K : H| = q,
    so layer L holds the subgroups whose order is a product of L primes, and
    the last layer is G itself.  A layer is its subgroups' bitsets, orders
    and, for a non-abelian G, the L extension elements that built each one,
    which generate it.  It is extended in blocks of at most BLOCK_CELLS cells
    of its membership matrix, and the subgroups built, each once, are the
    next layer.
    """
    n = G.order
    step = max(1, _block_cells(n) // n)
    layer, orders = [1 << G.identity], np.ones(1, dtype=np.int64)
    gens = None if G.is_abelian() else np.empty((1, 0), dtype=np.int64)
    found = [(1, layer[0])]
    length, m = 0, n  # the number of prime factors of n, with multiplicity
    for p in G.primes:
        while m % p == 0:
            m, length = m // p, length + 1
    for _ in range(length):
        built, gens_parts, order_parts, seen = [], [], [], set()
        for lo in range(0, len(layer), step):
            K, K_gens, K_orders = _extend_block(
                G, _bits_to_rows(layer[lo:lo + step], n),
                None if gens is None else gens[lo:lo + step], orders[lo:lo + step])
            # a subgroup built from several rows is kept once
            index = dict(zip(K, range(len(K))))
            new = index.keys() - seen
            seen |= new
            rows = np.fromiter(map(index.get, new), dtype=np.intp, count=len(new))
            built += new
            order_parts.append(K_orders.take(rows))
            if gens is not None:
                gens_parts.append(K_gens.take(rows, axis=0))
        layer, orders = built, np.concatenate(order_parts)
        gens = None if gens is None else np.concatenate(gens_parts)
        found += zip(orders.tolist(), layer)
    return [Subgroup(G, b, o) for o, b in sorted(found)]


def _extend_block(G: FiniteGroup, H: np.ndarray, gens: Optional[np.ndarray],
                  orders: np.ndarray):
    """The subgroups K = <H, c> over the rows H of a block, each once per row:
    their bitsets, extension elements (None for an abelian G) and orders.

    The candidates of a row are the c outside H with c^q in H, q the least
    such prime, that normalize H (tested on H's extension elements).  K is
    the union of the cosets c^i H, i < q, and K/H has order q, so the
    candidates that give K are exactly K minus H, (q - 1)|H| of them.  The
    least of them is kept, by whichever exact rule costs less:
    - c is kept when no coset c^i H, 0 < i < q, has a smaller element:
      (q - 1)|H| table cells gathered a candidate;
    - rounds take each row's first candidate, write its K from H's elements
      and drop the candidates K covers: two passes over the block a round.
      A row has at most (its candidates) / ((p - 1)|H|) K, p the least
      prime, and that many rounds leave each row one K in the last, whose
      K minus H is what remains of its candidates, so that round builds no
      cosets.
    A gathered cell costs about GATHER_CELL_COST cells of a pass.
    """
    primes = sorted(G.primes)
    cand = H.take(G.power_map(primes[0]), axis=1)
    for p in primes[1:]:
        cand |= H.take(G.power_map(p), axis=1)
    cand &= ~H  # outside H, with a prime power inside
    if gens is not None:
        # c normalizes H when c^-1 h c lies in H for each extension element h
        r, c = cand.nonzero()
        for j in range(gens.shape[1]):
            ok = _cells(H, r, G.mul(G.mul(G.inv.take(c), gens[:, j].take(r)), c))
            r, c = r[ok], c[ok]
        cand[:] = False
        cand[r, c] = True
    counts = cand.sum(axis=1)
    rounds = int(counts.max()) // ((primes[0] - 1) * int(orders.min()))
    if not rounds:
        none = None if gens is None else np.empty((0, gens.shape[1] + 1), dtype=np.int64)
        return [], none, orders[:0]
    if rounds > 1:
        # each row's elements, padded with the identity, which every row holds
        at, elements = H.nonzero()
        members = np.full((len(H), int(orders.max())), G.identity)
        starts = np.fromiter(accumulate(orders.tolist(), initial=0), np.intp, len(orders) + 1)
        members[at, np.arange(len(at)) - starts[at]] = elements
    if rounds > 1 and (GATHER_CELL_COST * int(cand.sum()) * (primes[-1] - 1) * int(orders.max())
                       <= (rounds - 1) * 2 * H.size):
        r, c = cand.nonzero()
        q = _least_prime(G, H, r, c, primes)
        keep = _least_in_class(G, members, r, c, q)
        r, c, q = r[keep], c[keep], q[keep]
        step = max(1, _block_cells(G.order) // G.order)
        K = [b for lo in range(0, len(r), step)
             for b in _rows_to_bits(_coset_unions(G, H, members, r[lo:lo + step],
                                                  c[lo:lo + step], q[lo:lo + step]))]
    else:
        picks, K = [], []
        for i in range(rounds):
            r = counts.nonzero()[0]
            if not len(r):
                break
            c = cand.argmax(axis=1).take(r)
            q = _least_prime(G, H, r, c, primes)
            if i + 1 < rounds:
                built = _coset_unions(G, H, members, r, c, q)
                cand[r] &= ~built
                counts = cand.sum(axis=1)
            else:  # a row has one K left, and its candidates are K minus H
                built = H.take(r, axis=0) | cand.take(r, axis=0)
            picks.append((r, c, q))
            K += _rows_to_bits(built)
        r, c, q = picks[0] if len(picks) == 1 else map(np.concatenate, zip(*picks))
    new_gens = None if gens is None else np.concatenate([gens.take(r, axis=0), c[:, None]], axis=1)
    return K, new_gens, orders.take(r) * q


def _least_prime(G: FiniteGroup, H: np.ndarray, r: np.ndarray, c: np.ndarray,
                 primes: list[int]) -> np.ndarray:
    """For each candidate c of row r, the least prime q with c^q in H_r."""
    q = np.full(len(r), primes[-1])
    for p in reversed(primes[:-1]):
        q[_cells(H, r, G.power_map(p).take(c))] = p
    return q


def _least_in_class(G: FiniteGroup, members: np.ndarray, r: np.ndarray, c: np.ndarray,
                    q: np.ndarray) -> np.ndarray:
    """Whether each candidate c of row r is the least element of the union of
    the cosets c^i H_r, 0 < i < q, with H_r's elements (padded with repeats)
    row r of `members`, a block of candidates at a time."""
    keep = np.empty(len(c), dtype=bool)
    step = max(1, _block_cells(G.order) // members.shape[1])
    for lo in range(0, len(c), step):
        cs, qs = c[lo:lo + step], q[lo:lo + step]
        elements = members.take(r[lo:lo + step], axis=0)
        least, i = np.full(len(cs), G.order), 1
        for x in _power_blocks(G, cs, int(qs.max()) - 1, elements.size):
            coset_min = G.mul(x[:, :, None], elements[:, None, :]).min(axis=2)
            # c^i H for i >= q repeats a coset, H itself among them
            coset_min[np.arange(i, i + x.shape[1]) >= qs[:, None]] = G.order
            least = np.minimum(least, coset_min.min(axis=1))
            i += x.shape[1]
        keep[lo:lo + step] = least == cs
    return keep


def _coset_unions(G: FiniteGroup, H: np.ndarray, members: np.ndarray, r: np.ndarray,
                  c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row j: the membership row of the union of the cosets c_j^i H_{r_j},
    i < q_j, each coset written from H's elements, row r_j of `members`:
    |H|(q - 1) cells a row.  Powers up to the largest q repeat cosets of the
    rows with a smaller one, since c_j^q_j lies in H_{r_j}."""
    K, rows = H.take(r, axis=0), np.arange(len(r))[:, None, None]
    elements = members.take(r, axis=0)
    for x in _power_blocks(G, c, int(q.max()) - 1, elements.size):
        K[rows, G.mul(x[:, :, None], elements[:, None, :])] = True
    return K


def _power_blocks(G: FiniteGroup, c: np.ndarray, count: int, cells: int):
    """c^1, ..., c^count for each element of c, as the columns of successive
    (len(c) x w) blocks, w chosen so that w * cells stays within
    _block_cells.  The first block is built by doubling: its powers c^1..c^k
    times c^k are c^(k+1)..c^2k, so it takes ceil(log2 w) mul calls; each
    later block is the one before times c^w, one call."""
    w = min(count, max(1, _block_cells(G.order) // cells))
    block = np.empty((len(c), w), dtype=np.intp)
    block[:, 0] = c
    k = 1
    while k < w:
        more = min(k, w - k)
        block[:, k:k + more] = G.mul(block[:, :more], block[:, k - 1:k])
        k += more
    yield block
    step = block[:, -1:]  # c^w
    for lo in range(w, count, w):
        block = G.mul(block[:, :count - lo], step)
        yield block


def _subgroups_generic(G: FiniteGroup) -> dict[int, Subgroup]:
    """Every subgroup of any G: each found H is extended to <H, g> by the
    elements g outside it, once per class of elements giving the same
    subgroup.  <H, g> = <H, h g^k h'> for h, h' in H and k prime to the
    order of g, so those elements are marked covered and skipped.  The
    powers and orders of all elements come from one walk g, g^2, ... over
    every g at once, which stops once each element has reached the identity;
    each element's coprime powers are read off it once."""
    n = G.order
    walk, order, x = [], np.zeros(n, dtype=np.intp), np.arange(n)
    while not order.all():
        walk.append(x.astype(_table_dtype(n)))
        order[(x == G.identity) & (order == 0)] = len(walk)
        x = G.mul(x, np.arange(n))
    powers = np.stack(walk, axis=1)  # row g: g, g^2, ..., g^(largest order)
    prime_to = {k: np.gcd(np.arange(1, k), k) == 1 for k in set(order.tolist())}
    coprime = [powers[g, :k - 1][prime_to[k]] for g, k in enumerate(order.tolist())]
    triv = trivial_subgroup(G)
    found: dict[int, Subgroup] = {triv.bits: triv}
    # each queued subgroup travels with the elements that generated it
    queue: list[tuple[Subgroup, list[int]]] = [(triv, [])]
    while queue:
        H, gens = queue.pop()
        covered = H.mask()
        idx = H.indices()[:, None]
        for g in np.nonzero(~covered)[0].tolist():
            if covered[g]:
                continue
            K = closure(G, gens + [g])
            if K.bits not in found:
                found[K.bits] = K
                queue.append((K, gens + [g]))
            covered[G.mul(G.mul(idx, coprime[g]).reshape(-1, 1), idx.T)] = True
    return found


def maximal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Maximal proper subgroups, sorted by (order, bitset).  Walks them from the
    largest down: a non-maximal H lies in a maximal one of larger order, seen first."""
    maximal: list[Subgroup] = []
    for H in reversed(all_subgroups(G)[:-1]):
        if not any(H.bits & M.bits == H.bits for M in maximal):
            maximal.append(H)
    return maximal[::-1]


def frattini(G: FiniteGroup) -> Subgroup:
    """Intersection of all maximal proper subgroups (trivial group maps to itself).

    A G of prime-power order p^k whose lattice has not been enumerated needs
    none: G/Phi(G) is the largest elementary abelian quotient of G, so
    Phi(G) is the normal closure of {s^p, [s, t]} over the basis, which the
    walk _commutator_of runs finds.  Otherwise the maximal subgroups of the
    lattice are intersected."""
    if len(G.primes) == 1 and G._subgroups is None:
        (p,) = G.primes
        basis = np.asarray(G.basis, dtype=np.intp)
        todo = G.power_map(p).take(basis).tolist() + _commutators(G, basis)
        return _normal_closure(G, todo, basis)[0]
    if G.order == 1:
        return trivial_subgroup(G)
    bits = (1 << G.order) - 1
    for M in maximal_subgroups(G):
        bits &= M.bits
    return Subgroup(G, bits, bin(bits).count("1"))


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    return _commutator_of(G, G.basis)[0]


def center(G: FiniteGroup) -> Subgroup:
    return centralizer(G, G.basis)


def centralizer(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """The centralizer of the subgroup generated by `gens`: the intersection
    of the centralizers of the generators, one column compare each."""
    mask = np.ones(G.order, dtype=bool)
    for s in gens:
        if not 0 <= s < G.order:
            raise OutOfRange(f"generator {s} outside group of order {G.order}")
        mask &= G.mul(np.arange(G.order), s) == G.mul(s, np.arange(G.order))
    return _subgroup_from_mask(G, mask)


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    return _subgroup_from_mask(G, _normalizing(G, H.mask(), H.indices(), np.arange(G.order)))


def conjugate(G: FiniteGroup, H: Subgroup, g: int) -> Subgroup:
    """The conjugate subgroup H^g = g^-1 H g."""
    return _subgroup_of(G, G.mul(G.mul(G.inv[g], H.indices()), g))


def core(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """Largest normal subgroup of G contained in H.

    K starts at H and is intersected with K^s for each basis element s until
    a whole pass leaves it unchanged.  Each step keeps the core, and the
    fixed point is normalized by the basis, so it is normal: it is the core.
    """
    K, previous = H, None
    while K.bits != previous:
        previous = K.bits
        for s in G.basis:
            bits = K.bits & conjugate(G, K, s).bits
            K = Subgroup(G, bits, bin(bits).count("1"))
    return K


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    # the normalizer is a subgroup, so containing the basis makes it all of G
    return bool(_normalizing(G, H.mask(), H.indices(), G.basis).all())


def product_set(G: FiniteGroup, H: Subgroup, N: Subgroup) -> Subgroup:
    """The subgroup HN for N normal in G."""
    if not is_normal(G, N):
        raise NotNormal("product_set requires a normal second factor")
    return _subgroup_of(G, G.mul(H.indices()[:, None], N.indices()))


class Homomorphism:
    """A verified group homomorphism given by a per-element image array."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int]):
        self.source = source
        self.target = target
        arr = np.asarray(mapping, dtype=np.int64)
        if arr.shape != (source.order,):
            raise WrongShape("homomorphism map has wrong length")
        if arr.size and not (0 <= arr.min() and arr.max() < target.order):
            raise OutOfRange(f"homomorphism image outside target group of order {target.order}")
        self.map = arr
        self.map.setflags(write=False)
        self._verify()
        self.surjective = bool(np.bincount(arr, minlength=target.order).all())

    def _verify(self) -> None:
        """Check m(a*s) == m(a)*m(s) for every a and every s in the identity
        and the source's basis.  The s that pass for every a are closed under
        the product and the basis generates the source, so this is exact."""
        src, m = self.source, self.map
        s = np.array([src.identity, *src.basis])
        every = np.arange(src.order)[:, None]
        if not np.array_equal(m[src.mul(every, s)], self.target.mul(m[:, None], m[s])):
            raise WrongShape("map is not a homomorphism")

    def apply(self, a: int) -> int:
        return int(self.map[a])

    def image_subgroup(self, H: Subgroup) -> Subgroup:
        return _subgroup_of(self.target, self.map[H.indices()])

    def preimage_subgroup(self, H: Subgroup) -> Subgroup:
        in_H = H.mask()
        mask = in_H[self.map]
        return _subgroup_from_mask(self.source, mask)

    def kernel(self) -> Subgroup:
        mask = self.map == self.target.identity
        return _subgroup_from_mask(self.source, mask)


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """Quotient group G/N with canonical coset labeling, plus the projection.

    Cosets are labeled by their minimal element, sorted ascending.
    """
    if not is_normal(G, N):
        raise NotNormal("quotient requires a normal subgroup")
    rep = _coset_minima(G, N)
    reps = np.flatnonzero(rep == np.arange(G.order))  # each coset's minimum is its own rep
    proj_map = np.searchsorted(reps, rep)
    # the coset of a sends the coset of r to the coset of a*r
    row_gens = sorted(set(proj_map[G.basis].tolist()))
    rows = proj_map[G.mul(reps[row_gens][:, None], reps)]
    gens = sorted(set(proj_map[G.generators].tolist()))
    Q = FiniteGroup(
        table_from_rows(rows, row_gens, int(proj_map[G.identity])), generators=gens,
        labels=lambda i: f"{G.element_label(int(reps[i]))}N", name=f"{G.name}/N{N.order}",
    )
    proj = Homomorphism(G, Q, proj_map)
    return Q, proj


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    """Direct product with element index i1*|G2| + i2 (row-major by left factor)."""
    n1, n2 = G1.order, G2.order
    if n1 * n2 > order_cap():
        raise CapExceeded(f"product order {n1 * n2} above cap {order_cap()}")
    a1, a2 = np.unravel_index(np.arange(n1 * n2), (n1, n2))
    # (g, 1)(b1, b2) = (g*b1, b2) and (1, h)(b1, b2) = (b1, h*b2)
    rows = [G1.mul(g, a1) * n2 + a2 for g in G1.basis]
    rows += [a1 * n2 + G2.mul(h, a2) for h in G2.basis]
    row_gens = [g * n2 + G2.identity for g in G1.basis]
    row_gens += [G1.identity * n2 + h for h in G2.basis]
    table = table_from_rows(np.array(rows).reshape(len(rows), n1 * n2), row_gens,
                            G1.identity * n2 + G2.identity)
    gens = [g * n2 + G2.identity for g in G1.generators]
    gens += [G1.identity * n2 + g for g in G2.generators]
    P = FiniteGroup(
        table, generators=gens, name=f"{G1.name}x{G2.name}",
        labels=lambda i: f"({G1.element_label(i // n2)},{G2.element_label(i % n2)})",
    )
    P._product_of = (G1, G2)
    return P


# -- Goursat ------------------------------------------------------------------

@dataclass
class GoursatQuintuple:
    """Subgroup of a direct product encoded by projections, kernels and the
    induced isomorphism of section quotients."""

    proj_left: Subgroup
    ker_left: Subgroup
    proj_right: Subgroup
    ker_right: Subgroup
    iso_witness: dict[int, int]  # coset rep in G1 -> coset rep in G2


def goursat(G1: FiniteGroup, G2: FiniteGroup, H: Subgroup) -> GoursatQuintuple:
    """Decompose a subgroup of G1 x G2 into its Goursat quintuple.

    The witness is the set of pairs of coset representatives (least
    elements) of H's members, one pair per left representative.  It is
    verified: it is a well-defined bijective homomorphism of the two section
    quotients, and reconstructing H from the quintuple gives back exactly H.
    """
    P = H.parent
    if P._product_of is None or P._product_of[0] is not G1 or P._product_of[1] is not G2:
        raise WrongShape("goursat needs a subgroup of direct_product(G1, G2)")
    n2 = G2.order
    left, right = np.divmod(H.indices(), n2)
    ker_left = _subgroup_of(G1, left[right == G2.identity])
    ker_right = _subgroup_of(G2, right[left == G1.identity])
    pairs = np.zeros(P.order, dtype=bool)  # (rep a, rep b) for each member (a, b)
    pairs[_coset_minima(G1, ker_left)[left] * n2 + _coset_minima(G2, ker_right)[right]] = True
    reps, images = np.divmod(pairs.nonzero()[0], n2)
    if (reps[1:] == reps[:-1]).any():  # pairs are sorted, so one rep's pairs are adjacent
        raise WrongShape("goursat witness is not well defined")
    quint = GoursatQuintuple(_subgroup_of(G1, left), ker_left, _subgroup_of(G2, right), ker_right,
                             dict(zip(reps.tolist(), images.tolist())))
    _verify_goursat(G1, G2, H, quint)
    return quint


def _witness_map(G1: FiniteGroup, q: GoursatQuintuple) -> np.ndarray:
    """The witness as an array over G1, -1 where it has no entry."""
    w = np.full(G1.order, -1, dtype=np.intp)
    w[list(q.iso_witness)] = list(q.iso_witness.values())
    return w


def _verify_goursat(
    G1: FiniteGroup, G2: FiniteGroup, H: Subgroup, q: GoursatQuintuple
) -> None:
    # kernels normal in projections, equal quotient orders
    for proj, ker, G in ((q.proj_left, q.ker_left, G1), (q.proj_right, q.ker_right, G2)):
        if not _normalizing(G, ker.mask(), ker.indices(), proj.indices()).all():
            raise WrongShape("goursat kernel not normal in projection")
    if q.proj_left.order * q.ker_right.order != q.proj_right.order * q.ker_left.order:
        raise WrongShape("goursat quotients have different orders")
    if len(q.iso_witness) != q.proj_left.order // q.ker_left.order:
        raise WrongShape("goursat witness has wrong domain size")
    # witness is a bijection
    if len(set(q.iso_witness.values())) != len(q.iso_witness):
        raise WrongShape("goursat witness not injective")
    # witness is a homomorphism on coset reps: w(rep(ab)) == rep(w(a) w(b)); w
    # reads -1 at a rep without an entry, as when a key is not a rep
    w = _witness_map(G1, q)
    a = np.fromiter(q.iso_witness, dtype=np.intp)
    b = w.take(a)
    if not np.array_equal(w.take(_coset_minima(G1, q.ker_left).take(G1.mul(a[:, None], a))),
                          _coset_minima(G2, q.ker_right).take(G2.mul(b[:, None], b))):
        raise WrongShape("goursat witness not a homomorphism")
    # round trip
    if goursat_reconstruct(G1, G2, H.parent, q).bits != H.bits:
        raise WrongShape("goursat round-trip failed")


def goursat_reconstruct(
    G1: FiniteGroup, G2: FiniteGroup, P: FiniteGroup, q: GoursatQuintuple
) -> Subgroup:
    """Rebuild the subgroup of G1 x G2 described by a quintuple: each a in
    proj_left pairs with the coset w(rep(a)) ker_right."""
    a = q.proj_left.indices()
    images = _witness_map(G1, q).take(_coset_minima(G1, q.ker_left).take(a))
    if (images < 0).any():
        raise WrongShape("goursat witness has no entry for a coset of the left projection")
    b = G2.mul(images[:, None], q.ker_right.indices())
    return _subgroup_of(P, a[:, None] * G2.order + b)


# -- building tables -----------------------------------------------------------

def table_from_rows(rows: np.ndarray, gens: Sequence[int], identity: int) -> np.ndarray:
    """The Cayley table with row rows[i] for element gens[i], read-only.

    Row a of a table is left multiplication by a, and (x*y)*b = x*(y*b), so
    row x*y is row x gathered at row y: once the rows of a set F and of y
    are filled, one gather fills the rows of F*y.  F starts as the identity
    and the generators.  Each generator g is applied as y = g, g^2, g^4, ...,
    each power read from the row of the one before while that row is
    filled, so along a cyclic subgroup F doubles at each step.  Passes over
    the generators repeat until one fills nothing, when F is closed under
    right multiplication by the generators, or every row is filled.  Each
    gather runs over blocks of FILL_CELLS cells in the table's dtype.
    Raises OutOfRange for a row entry outside the group, and WrongShape when
    the rows do not reach every element, or when a row given for the
    identity, or twice for one element, differs from the other.
    """
    rows = np.asarray(rows)
    n = rows.shape[1]
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise OutOfRange(f"generator row entry outside group of order {n}")
    gens = np.asarray(gens, dtype=np.intp)
    t = np.empty((n, n), dtype=_table_dtype(n))
    t[gens] = rows
    t[identity] = np.arange(n)
    if not (t[gens] == rows).all():
        raise WrongShape("two rows are given for one element")
    filled = np.zeros(n, dtype=bool)
    filled[gens] = filled[identity] = True
    step = max(1, FILL_CELLS // n)
    reached = int(np.count_nonzero(filled))
    while True:
        before = reached
        for y in gens.tolist():
            while reached < n:  # fill the empty rows of F*y from F
                z = t[:, y][filled].astype(np.intp)  # x*y for each x in F, in index order
                new = ~filled[z]
                z = z[new]
                x, row_y = filled.nonzero()[0][new], t[y].astype(np.intp)
                for lo in range(0, len(z), step):
                    t[z[lo:lo + step]] = t.take(x[lo:lo + step], axis=0).take(row_y, axis=1)
                filled[z] = True
                previous, reached = reached, int(np.count_nonzero(filled))
                y = int(t[y, y])
                if reached == previous or not filled[y]:
                    break
        if reached in (before, n):
            break
    if reached != n:
        raise WrongShape(f"generator rows reach {reached} of {n} elements")
    t.setflags(write=False)
    return t


def cyclic(n: int) -> FiniteGroup:
    return CyclicGroup(n)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^j at 0..n-1, reflections s r^j at n..2n-1."""
    a = np.arange(2 * n)
    ra, fa = a % n, a // n

    def row(x: int) -> np.ndarray:
        # (s^fx r^rx)(s^fa r^ra) = s^(fx+fa) r^(((-1)^fa) rx + ra)
        rx, fx = x % n, x // n
        return ((1 - 2 * fa) * rx + ra) % n + (fx ^ fa) * n

    gens = [1 % n, n]
    return FiniteGroup(
        table_from_rows(np.array([row(g) for g in gens]), gens, 0), generators=gens,
        labels=lambda j: f"r{j}" if j < n else f"sr{j - n}", name=f"D{n}",
    )


def quaternion8() -> FiniteGroup:
    """The quaternion group of order 8 on {1,-1,i,-i,j,-j,k,-k}: element
    2u + s is (-1)^s times the unit u of (1, i, j, k)."""

    def mul(x: int, y: int) -> int:
        # units multiply like the Klein four group under XOR; the sign flips
        # for u*u with u != 1 and for the anticyclic pairs ji, kj, ik
        u, v = x >> 1, y >> 1
        neg = (x ^ y) & 1
        if u and v and (u == v or (v - u) % 3 == 2):
            neg ^= 1
        return 2 * (u ^ v) + neg

    gens = [2, 4]
    rows = np.array([[mul(g, y) for y in range(8)] for g in gens])
    return FiniteGroup(table_from_rows(rows, gens, 0), generators=gens,
                       labels=["1", "-1", "i", "-i", "j", "-j", "k", "-k"], name="Q8")


def from_elements(
    elements: list, mul: Callable, generators_idx: Sequence[int],
    labels: Sequence[str] | Callable[[int], str] | None = None, name: str = "",
) -> FiniteGroup:
    """Build a FiniteGroup from hashable element values, the identity first, a
    multiplication callable and the indices of generating elements.  Only the
    generators' rows are multiplied out; table_from_rows fills the rest."""
    index = {e: i for i, e in enumerate(elements)}
    rows = np.array(
        [[index[mul(elements[g], e)] for e in elements] for g in generators_idx],
        dtype=np.int64,
    ).reshape(len(generators_idx), len(elements))
    return FiniteGroup(table_from_rows(rows, generators_idx, 0),
                       generators=generators_idx, labels=labels, name=name)


def generate_from(
    seed_elements: list, mul: Callable, identity,
    label: Callable | None = None, name: str = "",
) -> tuple[FiniteGroup, list]:
    """Generate the group spanned by seed elements under mul, deterministically;
    returns it with its element values in index order.

    Elements are discovered by BFS from the identity with generators applied
    in the given order, which fixes the element indexing.  `label` names an
    element value; labels are computed when asked for.
    """
    cap = order_cap()
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in seed_elements:
                for y in (mul(x, g), mul(g, x)):
                    if y not in seen:
                        seen.add(y)
                        elements.append(y)
                        nxt.append(y)
                        if len(elements) > cap:
                            raise CapExceeded(
                                f"generated group exceeds cap {cap}"
                            )
        frontier = nxt
    labels = (lambda i: label(elements[i])) if label else None
    gens_idx = [elements.index(g) for g in seed_elements]
    G = from_elements(elements, mul, generators_idx=gens_idx, labels=labels, name=name)
    return G, elements


# -- JSON group literals -------------------------------------------------------

GROUP_SCHEMA_VERSION = 1


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


def load_group_json(doc: dict | str) -> FiniteGroup:
    """Load a group literal: {"version":1, "kind":"cyclic"|"table"|"permutation"|"matrix", ...}.

    permutation generators use one-line image notation; matrix generators are
    integer matrices taken modulo the given modulus.  Malformed fields raise
    SpecError with their JSON pointers.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    errors = []
    if not isinstance(doc, dict):
        raise SpecError("group literal must be a JSON object", ["/"])
    if doc.get("version") != GROUP_SCHEMA_VERSION:
        errors.append("/version")
    kind = doc.get("kind")
    if kind not in ("cyclic", "table", "permutation", "matrix"):
        errors.append("/kind")
    if errors:
        raise SpecError("invalid group literal", errors)

    if kind == "cyclic":
        n = doc.get("n")
        if not _is_int(n) or n < 1:
            raise SpecError("cyclic group needs a positive integer n", ["/n"])
        if n > order_cap():
            raise CapExceeded(f"cyclic order {n} above cap {order_cap()}")
        return cyclic(n)

    if kind == "table":
        table = doc.get("mult")
        if not isinstance(table, list) or not table:
            raise SpecError("table group needs a mult table", ["/mult"])
        n = len(table)
        if n > order_cap():
            raise CapExceeded("table order above cap")
        for i, row in enumerate(table):
            if not (_is_int_list(row) and len(row) == n and all(0 <= x < n for x in row)):
                raise SpecError(f"mult rows must be lists of {n} integers in 0..{n - 1}",
                                [f"/mult/{i}"])
        labels = doc.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and len(labels) == n
            and all(isinstance(x, str) for x in labels)
        ):
            raise SpecError(f"labels must be a list of {n} strings", ["/labels"])
        return FiniteGroup(table, labels=labels, name=doc.get("name", "table"))

    if kind == "permutation":
        gens = doc.get("generators")
        degree = doc.get("degree")
        if not isinstance(gens, list) or not gens:
            raise SpecError("permutation group needs generators", ["/generators"])
        if not _is_int(degree) or degree < 1:
            raise SpecError("permutation group needs a degree", ["/degree"])
        for i, g in enumerate(gens):
            if not (_is_int_list(g) and sorted(g) == list(range(degree))):
                raise SpecError("generator is not a permutation", [f"/generators/{i}"])
        id_perm = tuple(range(degree))
        seeds = [tuple(g) for g in gens]

        def pmul(a, b):  # apply a then b
            return tuple(b[a[i]] for i in range(degree))

        G, _ = generate_from(seeds, pmul, id_perm, label=lambda p: str(list(p)),
                             name=doc.get("name", f"perm{degree}"))
        return G

    # matrix kind
    gens = doc.get("generators")
    modulus = doc.get("modulus")
    if not isinstance(gens, list) or not gens:
        raise SpecError("matrix group needs generators", ["/generators"])
    if not _is_int(modulus) or modulus < 2:
        raise SpecError("matrix group needs a modulus >= 2", ["/modulus"])
    dim = len(gens[0]) if isinstance(gens[0], list) else 0
    mats = []
    for i, g in enumerate(gens):
        if not (dim and isinstance(g, list) and len(g) == dim
                and all(_is_int_list(r) and len(r) == dim for r in g)):
            raise SpecError("matrix generators must be integer matrices of one square shape",
                            [f"/generators/{i}"])
        mats.append(tuple(tuple(v % modulus for v in r) for r in g))
    ident = tuple(map(tuple, np.eye(dim, dtype=np.int64)))

    def mmul(a, b):
        prod = (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % modulus
        return tuple(map(tuple, prod))

    G, _ = generate_from(mats, mmul, ident, label=lambda m: str([list(r) for r in m]),
                         name=doc.get("name", f"mat{dim}mod{modulus}"))
    return G
