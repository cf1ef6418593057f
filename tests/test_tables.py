"""Cayley tables built from generator rows: pinned digests, pure-Python
renderings of each family's formula, the fill against a pure-Python walk
and all-pairs products, rejections and memory bounds."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BUILTIN_NAMES,
    cached_tower,
    oracle_table_from_rows,
    products,
    table_twin,
)
from subgroup_atlas import groups
from subgroup_atlas.errors import OutOfRange, WrongShape
from subgroup_atlas.groups import (
    FiniteGroup,
    all_subgroups,
    cyclic,
    dihedral,
    direct_product,
    generate_from,
    is_normal,
    load_group_json,
    quaternion8,
    quotient,
)
from subgroup_atlas.towers import (
    _heisenberg_group,
    make_dihedral2,
    make_pirim,
    make_wilson,
    make_zp,
    pirim_base_power,
)

S3_DOC = {"version": 1, "kind": "permutation", "degree": 3,
          "generators": [[1, 2, 0], [1, 0, 2]]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tower_digest(t) -> str:
    """sha256 prefix over every level's products and its table twin's dtype,
    inverses and basis and every connecting map."""
    doc = {
        "tables": [[str(table_twin(G).table.dtype), _sha(products(G).astype("<u4").tobytes())]
                   for G in t.levels],
        "inv": [_sha(G.inverse(np.arange(G.order)).astype("<i8").tobytes())
                for G in t.levels],
        "basis": [[int(s) for s in G.basis] for G in t.levels],
        "maps": [_sha(np.asarray(h.map).astype("<i8").tobytes()) for h in t.maps],
    }
    return _sha(json.dumps(doc, separators=(",", ":")).encode())[:16]


PINNED = {name: (lambda name=name: cached_tower(name)) for name in BUILTIN_NAMES}
PINNED.update({
    "zp(2,11)": lambda: make_zp(2, 11),
    "dihedral2(8)": lambda: make_dihedral2(8),
    "wilson(4)": lambda: make_wilson(4),
})

# recorded with the per-family table loops and broadcasts this constructor
# replaced; element order feeds the maps and reports, so they must not move
TOWER_DIGESTS = {
    "zp(2,4)": "8f0752e9fe6a07cb",
    "zp(3,4)": "67332dea7cf6e568",
    "zp(5,4)": "8968d5752e30c185",
    "zpn(2,2,4)": "04a65dfdc37a605b",
    "zpn(3,2,3)": "e14ab6dda637e7c9",
    "heisenberg(3,2)": "e3551b136c3a1877",
    "dihedral2(4)": "56bf60fa95a91a94",
    "wilson(3)": "77d484e3627b6b4c",
    "pirim(2)": "79a6dc88755c2ddc",
    "zp(2,11)": "abea36fb8d642f45",
    "dihedral2(8)": "fedc6666548c598b",
    "wilson(4)": "3a714a99ff8b3011",
}


@pytest.mark.parametrize("name", list(PINNED))
def test_tower_tables_unchanged(name):
    assert tower_digest(PINNED[name]()) == TOWER_DIGESTS[name]


# -- pure-Python renderings of each family's formula --------------------------------

def _table(G) -> list[list[int]]:
    return products(G).tolist()


@pytest.mark.parametrize("n", range(1, 65))
def test_cyclic_matches_formula(n):
    assert _table(cyclic(n)) == [[(a + b) % n for b in range(n)] for a in range(n)]


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2)], ids=["Heis(Z3)", "Heis(Z4)"])
def test_heisenberg_matches_formula(p, k):
    m = p**k

    def mul(x, y):
        (a, b, c), (a2, b2, c2) = x, y
        return ((a + a2) % m, (b + b2) % m, (c + c2 + a * b2) % m)

    elems = [(i // (m * m), (i // m) % m, i % m) for i in range(m**3)]
    index = {e: i for i, e in enumerate(elems)}
    assert _table(_heisenberg_group(p, k)) == [[index[mul(x, y)] for y in elems] for x in elems]


def _mat_mod(x, y, m):
    return tuple(
        tuple(sum(x[i][l] * y[l][j] for l in range(2)) % m for j in range(2)) for i in range(2)
    )


@pytest.mark.parametrize("k", [1, 2])
def test_pirim_levels_match_formula(k):
    G = make_pirim(2).level(k)
    m = 3**k
    _, A1 = pirim_base_power()
    ident = ((1, 0), (0, 1))
    powers = [ident]
    while _mat_mod(powers[-1], A1, m) != ident:
        powers.append(_mat_mod(powers[-1], A1, m))
    r = len(powers)
    assert G.order == m * m * r

    def mul(x, y):
        (v0, v1, j), (w0, w1, l) = x, y
        B = powers[j]
        return ((v0 + B[0][0] * w0 + B[0][1] * w1) % m,
                (v1 + B[1][0] * w0 + B[1][1] * w1) % m, (j + l) % r)

    elems = [(i // r // m, i // r % m, i % r) for i in range(G.order)]
    index = {e: i for i, e in enumerate(elems)}
    assert _table(G) == [[index[mul(x, y)] for y in elems] for x in elems]


def test_quaternion8_matches_hamilton_product():
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]  # 1, i, j, k
    elems = [tuple(s * c for c in u) for u in units for s in (1, -1)]

    def mul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    Q = quaternion8()
    assert _table(Q) == [[elems.index(mul(x, y)) for y in elems] for x in elems]
    assert [Q.element_label(a) for a in range(8)] == ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def test_direct_product_matches_formula():
    G1, G2 = cyclic(4), load_group_json(S3_DOC)
    t1, t2, n2 = _table(G1), _table(G2), G2.order
    P = direct_product(G1, G2)
    assert _table(P) == [
        [t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(P.order)]
        for a in range(P.order)
    ]
    assert P.element_label(7) == f"(1,{G2.element_label(1)})"


def test_quotients_of_d6_match_coset_arithmetic():
    G = dihedral(6)
    t = _table(G)
    normal = [N for N in all_subgroups(G) if is_normal(G, N)]
    assert len(normal) > 2
    for N in normal:
        members = [int(x) for x in N.indices()]
        cosets = sorted({min(t[g][h] for h in members) for g in range(G.order)})
        coset_of = {t[g][h]: i for i, g in enumerate(cosets) for h in members}
        Q, proj = quotient(G, N)
        assert _table(Q) == [[coset_of[t[a][b]] for b in cosets] for a in cosets]
        assert proj.map.tolist() == [coset_of[g] for g in range(G.order)]
        assert [Q.element_label(i) for i in range(Q.order)] == [
            f"{G.element_label(r)}N" for r in cosets
        ]


def test_generated_group_matches_all_pairs_products():
    def pmul(a, b):
        return tuple(b[i] for i in a)

    G, elements = generate_from([(1, 2, 3, 0), (1, 0, 2, 3)], pmul, (0, 1, 2, 3),
                                label=lambda p: "".join(map(str, p)))
    index = {e: i for i, e in enumerate(elements)}
    assert G.order == 24
    assert _table(G) == [[index[pmul(x, y)] for y in elements] for x in elements]
    assert G.element_label(0) == "0123"


def test_table_literal_keeps_its_labels():
    G = load_group_json({"version": 1, "kind": "table", "mult": [[0, 1], [1, 0]],
                         "labels": ["e", "s"]})
    assert [G.element_label(a) for a in range(2)] == ["e", "s"]


# -- the fill against a pure-Python walk and all-pairs products ------------------------

def _fill_oracle(G) -> list[list[int]] | None:
    return oracle_table_from_rows(G.table[G.generators], G.generators, G.identity)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_tower_level_is_the_table_its_generator_rows_generate(name):
    for level in cached_tower(name).levels:
        G = table_twin(level)
        assert _table(level) == _table(G) == _fill_oracle(G)
        rows = G.table[G.generators]
        assert np.array_equal(groups.table_from_rows(rows, G.generators, G.identity), G.table)


@pytest.mark.parametrize("build", [
    lambda: direct_product(cyclic(4), load_group_json(S3_DOC)),
    lambda: direct_product(quaternion8(), cyclic(3)),
    quaternion8,
], ids=["C4xS3", "Q8xC3", "Q8"])
def test_products_and_q8_are_the_tables_their_rows_generate(build):
    G = build()
    assert _table(G) == _fill_oracle(G)


@pytest.mark.parametrize("build", [
    lambda: dihedral(6),
    lambda: direct_product(cyclic(4), load_group_json(S3_DOC)),
], ids=["D6", "C4xS3"])
def test_every_quotient_is_the_table_its_rows_generate(build):
    G = build()
    for N in all_subgroups(G):
        if is_normal(G, N):
            Q = quotient(G, N)[0]
            assert _table(Q) == _fill_oracle(Q)


def _pmul(a, b):  # apply a then b, as permutation literals compose
    return tuple(b[i] for i in a)


def _mat_mul(modulus):
    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % modulus
                           for j in range(len(b))) for i in range(len(a)))
    return mul


def _perm_literal(*gens):
    return {"version": 1, "kind": "permutation", "degree": len(gens[0]),
            "generators": [list(g) for g in gens]}


def _mat_literal(modulus, *gens):
    return {"version": 1, "kind": "matrix", "modulus": modulus, "generators": list(gens)}


LITERALS = {
    "S3": S3_DOC,
    "S4": _perm_literal([1, 2, 3, 0], [1, 0, 2, 3]),
    "A4": _perm_literal([1, 2, 0, 3], [0, 2, 3, 1]),
    "A5": _perm_literal([1, 2, 3, 4, 0], [1, 2, 0, 3, 4]),
    "D5": _perm_literal([1, 2, 3, 4, 0], [0, 4, 3, 2, 1]),
    "Heis(Z3)": _mat_literal(3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                             [[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    "SL(2,3)": _mat_literal(3, [[1, 1], [0, 1]], [[1, 0], [1, 1]]),
    "C8 in GL(2,3)": _mat_literal(3, [[0, 1], [1, 2]]),
    "GL(2,2)": _mat_literal(2, [[1, 1], [0, 1]], [[0, 1], [1, 0]]),
}


def _literal_elements(doc):
    """The literal's group and its element values in index order, through
    generate_from with the literal's own product."""
    if doc["kind"] == "permutation":
        seeds = [tuple(g) for g in doc["generators"]]
        return generate_from(seeds, _pmul, tuple(range(doc["degree"])))
    seeds = [tuple(tuple(v % doc["modulus"] for v in r) for r in g) for g in doc["generators"]]
    dim = len(seeds[0])
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return generate_from(seeds, _mat_mul(doc["modulus"]), ident)


@pytest.mark.parametrize("name", list(LITERALS))
def test_literals_match_all_pairs_products(name):
    doc = LITERALS[name]
    G, elements = _literal_elements(doc)
    mul = _pmul if doc["kind"] == "permutation" else _mat_mul(doc["modulus"])
    index = {e: i for i, e in enumerate(elements)}
    expected = [[index[mul(x, y)] for y in elements] for x in elements]
    assert _table(G) == expected == _fill_oracle(G)
    assert _table(load_group_json(doc)) == expected


FILL_POOL = [*map(load_group_json, LITERALS.values()), table_twin(cyclic(12)),
             table_twin(dihedral(6)), quaternion8(), direct_product(cyclic(2), cyclic(4))]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_relabelled_generator_rows_fill_the_relabelled_table(data):
    G = data.draw(st.sampled_from(FILL_POOL))
    pi = np.array(data.draw(st.permutations(range(G.order))))
    # the stored generators, and now and then extra elements besides them
    extra = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    gens = np.array(data.draw(st.permutations([*G.generators, *extra])))
    relabelled = np.empty_like(G.table)  # element a renamed pi[a]
    relabelled[np.ix_(pi, pi)] = pi[G.table]
    rows = relabelled[pi[gens]]
    table = groups.table_from_rows(rows, pi[gens], int(pi[G.identity]))
    assert np.array_equal(table, relabelled)
    assert table.tolist() == oracle_table_from_rows(rows, pi[gens].tolist(), int(pi[G.identity]))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rows_that_are_not_left_multiplications_are_rejected(data):
    # changed rows may still be a group's left multiplications (another
    # group's); then the fill gives that group's table, else it or the
    # group checks refuse them
    G = data.draw(st.sampled_from(FILL_POOL))
    gens = list(G.generators)
    rows = G.table[gens].astype(np.int64)
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, len(gens) - 1))
        if data.draw(st.booleans()):  # swap two entries of a row
            a, b = data.draw(st.lists(st.integers(0, G.order - 1), min_size=2, max_size=2,
                                      unique=True))
            rows[i, [a, b]] = rows[i, [b, a]]
        else:  # or give a generator another group element's row
            rows[i] = G.table[data.draw(st.integers(0, G.order - 1))]
    if data.draw(st.booleans()):  # a generator named twice, with two rows
        gens.append(gens[0])
        rows = np.vstack([rows, G.table[data.draw(st.integers(0, G.order - 1))]])
    expected = oracle_table_from_rows(rows, gens, G.identity)
    if expected is not None:
        table = groups.table_from_rows(rows, gens, G.identity)
        assert table.tolist() == expected
        FiniteGroup(table, generators=gens)
        return
    with pytest.raises(WrongShape):
        FiniteGroup(groups.table_from_rows(rows, gens, G.identity), generators=gens)


@pytest.mark.parametrize("rows,gens", [
    ([[1, 2, 3, 0], [3, 0, 1, 2]], [1, 1]),
    ([[1, 0, 3, 2]], [0]),
], ids=["one-element-two-rows", "identity-row"])
def test_two_rows_for_one_element_are_rejected(rows, gens):
    with pytest.raises(WrongShape, match="two rows are given for one element"):
        groups.table_from_rows(np.array(rows), gens, 0)


# -- rejections ----------------------------------------------------------------------

def test_rows_that_do_not_generate_are_rejected():
    rows = np.array([[2, 3, 0, 1]])  # left multiplication by 2 in Z/4
    with pytest.raises(WrongShape, match="reach 2 of 4"):
        groups.table_from_rows(rows, [2], 0)


def test_row_entries_outside_the_group_are_rejected():
    with pytest.raises(OutOfRange):
        groups.table_from_rows(np.array([[1, 2, 3, 4]]), [1], 0)


def test_table_is_read_only_and_not_copied():
    table = groups.table_from_rows(np.array([[1, 2, 0]]), [1], 0)
    assert not table.flags.writeable
    assert table.dtype == np.uint16
    G = groups.FiniteGroup(table, generators=[1])
    assert G.table is table


# -- memory ------------------------------------------------------------------------------

TABLE_BUILDS = pytest.mark.parametrize(
    "build",
    [lambda: table_twin(cyclic(2048)), lambda: table_twin(dihedral(1024)),
     lambda: direct_product(cyclic(16), cyclic(81))],
    ids=["cyclic(2048)", "dihedral(1024)", "C16xC81"],
)


def _traced_build(build):
    """The built group and the tracemalloc peak while building it."""
    tracemalloc.start()
    try:
        G = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return G, peak


@TABLE_BUILDS
def test_table_build_peak_memory(build):
    G, peak = _traced_build(build)
    # the table itself is one itemsize a cell; no n^2 int64 temporary fits
    assert peak <= 4 * G.table.itemsize * G.order**2


@TABLE_BUILDS
def test_table_checks_allocate_no_n_by_n_temporary(build):
    G, peak = _traced_build(build)
    # Light's test and the inverse search read fixed row blocks of
    # groups.BLOCK_CELLS cells, so beyond the table only a fraction of it fits
    assert G.order**2 >= 16 * groups.BLOCK_CELLS
    assert peak <= 1.25 * G.table.itemsize * G.order**2


@pytest.mark.parametrize("group", [lambda: table_twin(cyclic(2048)),
                                   lambda: table_twin(dihedral(1024))],
                         ids=["cyclic(2048)", "dihedral(1024)"])
def test_fill_memory_beyond_the_table(group):
    G = group()
    rows, gens = G.table[G.generators], G.generators
    tracemalloc.start()
    try:
        table = groups.table_from_rows(rows, gens, G.identity)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # gather blocks of FILL_CELLS cells and a few index vectors of the order:
    # about 70 KB at order 2048, where blocks of BLOCK_CELLS cells hold 300 KB
    assert groups.FILL_CELLS * 8 <= groups.BLOCK_CELLS
    assert peak - table.nbytes <= 2 * groups.BLOCK_CELLS


def test_dihedral_group_holds_no_table():
    # D_n's product is computed, so building it keeps a few vectors of the
    # order and no order^2 table: a table would take 2 * 8192 bytes an element
    D, peak = _traced_build(lambda: dihedral(4096))
    assert D.order == 8192 and not hasattr(D, "table")
    assert peak <= 64 * D.order
