"""Self-tests of the benchmark's oracle, input generator and tracer.

Run: python3 perfbench/selftest.py   (needs neither the package nor pytest)
"""

from __future__ import annotations

import json
import os
import random
import sys
import types
import unittest
from itertools import permutations, product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402


def _cyclic(n):
    return list(range(n)), lambda a, b: (a + b) % n


def _dihedral(order):
    """Dihedral group of the given order as pairs (rotation, flip)."""
    m = order // 2

    def mul(x, y):
        r1, f1 = x
        r2, f2 = y
        return ((r1 + (-r2 if f1 else r2)) % m, f1 ^ f2)

    return [(r, f) for f in (0, 1) for r in range(m)], mul


def _square(m):
    return list(product(range(m), repeat=2)), lambda a, b: ((a[0] + b[0]) % m, (a[1] + b[1]) % m)


class OracleFormulas(unittest.TestCase):
    def test_cyclic_counts(self):
        for p, depth in ((2, 4), (3, 3), (5, 2)):
            want = oracle.zp_counts(p, depth)
            got = [oracle.brute_force_subgroup_count(*_cyclic(p ** k))
                   for k in range(1, depth + 1)]
            self.assertEqual(got, want)

    def test_dihedral_counts(self):
        got = [oracle.brute_force_subgroup_count(*_dihedral(2 ** (k + 1))) for k in range(1, 5)]
        self.assertEqual(got, oracle.dihedral2_counts(4))

    def test_rank_two_counts(self):
        for p, depth in ((2, 2), (3, 1)):
            got = [oracle.brute_force_subgroup_count(*_square(p ** k))
                   for k in range(1, depth + 1)]
            self.assertEqual(got, oracle.zpn_counts(p, 2, depth))

    def test_heisenberg_mod3_count(self):
        gens = [tuple(tuple(v % 3 for v in r) for r in g) for g in inputs.HEIS_GENS]
        mul = lambda a, b: inputs.mat_mul_mod(a, b, 3)  # noqa: E731
        elems = inputs.bfs_elements(gens, mul, inputs._identity_matrix(3))
        self.assertEqual(len(elems), 27)
        self.assertEqual(oracle.brute_force_subgroup_count(elems, mul), 19)

    def test_s4_count(self):
        s4 = list(permutations(range(4)))
        self.assertEqual(oracle.brute_force_subgroup_count(s4, inputs.perm_mul), 30)

    def test_s3_x_c4(self):
        self.assertEqual(oracle.s3_x_c4_subgroup_count(), 26)


class GeneratedInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in inputs.WORKLOADS:
            for seed in (0, 7):
                a = inputs.render(*inputs.build(name, seed))
                b = inputs.render(*inputs.build(name, seed))
                self.assertEqual(a, b, name)

    def test_seed_changes_the_mix(self):
        renders = {inputs.render(*inputs.build("cli-mix", s)) for s in range(6)}
        self.assertEqual(len(renders), 6)

    def _maps(self):
        for seed in (0, 1, 2):
            yield "sign", inputs.sign_literal_spec(random.Random(seed))
            yield "a5", inputs.simple_literal_spec(random.Random(seed))
        yield "heis", inputs.heisenberg_literal_spec()
        yield "cyclic", inputs.cyclic_literal_spec()

    def test_every_map_is_a_surjection(self):
        for label, spec in self._maps():
            orders = [self._order(level) for level in spec["levels"]]
            for k, m in enumerate(spec["maps"]):
                self.assertEqual(len(m), orders[k + 1], label)
                self.assertEqual(sorted(set(m)), list(range(orders[k])), label)

    def test_maps_respect_multiplication(self):
        rng = random.Random(5)
        for label, spec in self._maps():
            elems = [self._elements(level) for level in spec["levels"]]
            for k, m in enumerate(spec["maps"]):
                (up, up_mul), (lo, lo_mul) = elems[k + 1], elems[k]
                up_index = {e: i for i, e in enumerate(up)}
                lo_index = {e: i for i, e in enumerate(lo)}
                for _ in range(400):
                    x, y = rng.randrange(len(up)), rng.randrange(len(up))
                    xy = up_index[up_mul(up[x], up[y])]
                    self.assertEqual(m[xy], lo_index[lo_mul(lo[m[x]], lo[m[y]])], label)

    def test_permutation_literal_orders(self):
        for spec, order in ((inputs.sign_literal_spec(random.Random(3)), 24),
                            (inputs.simple_literal_spec(random.Random(3)), 60)):
            self.assertEqual(self._order(spec["levels"][1]), order)

    @staticmethod
    def _elements(level):
        if level["kind"] == "cyclic":
            return _cyclic(level["n"])
        if level["kind"] == "permutation":
            gens = [tuple(g) for g in level["generators"]]
            ident = tuple(range(level["degree"]))
            return inputs.bfs_elements(gens, inputs.perm_mul, ident), inputs.perm_mul
        mod = level["modulus"]
        gens = [tuple(map(tuple, g)) for g in level["generators"]]
        mul = lambda a, b: inputs.mat_mul_mod(a, b, mod)  # noqa: E731
        return inputs.bfs_elements(gens, mul, inputs._identity_matrix(len(gens[0]))), mul

    def _order(self, level):
        return len(self._elements(level)[0])


class OutputChecks(unittest.TestCase):
    def test_report_json(self):
        exp = oracle.Expect(["analyze"], counts=[2, 3], verdict=oracle.verdict_ref("zp"))
        doc = {"lattice": {"countsPerLevel": [2, 3]},
               "verdict": {"tag": "OmegaAlphaN", "params": {"alpha": 1, "n": 1}}}
        self.assertEqual(oracle.check(exp, 0, json.dumps(doc)), [])
        doc["lattice"]["countsPerLevel"] = [2, 4]
        self.assertEqual(len(oracle.check(exp, 0, json.dumps(doc))), 1)
        self.assertEqual(len(oracle.check(exp, 1, json.dumps(doc))), 2)
        self.assertEqual(len(oracle.check(exp, 0, "not json")), 1)

    def test_tables_and_dot(self):
        table = ("family       : zp\nlattice sizes: [2, 3]\n  rank 0 survivors per level: [2]\n"
                 "verdict      : OmegaAlphaN {'alpha': 1, 'n': 1}  [Certified]\n")
        exp = oracle.Expect([], counts=[2, 3], verdict=oracle.verdict_ref("zp"), fmt="table")
        self.assertEqual(oracle.check(exp, 0, table), [])
        exp = oracle.Expect([], verdict=oracle.verdict_ref("zpn"), fmt="verdict-table")
        self.assertEqual(oracle.check(exp, 0, "Pelczynski  [Certified]\n"), [])
        dot = "digraph {\n    L1N0 [label=\"1\"];\n    L2N0 [label=\"1\"];\n    L2N1 [x];\n}\n"
        exp = oracle.Expect([], counts=[1, 2], fmt="dot")
        self.assertEqual(oracle.check(exp, 0, dot), [])


class TracerHygiene(unittest.TestCase):
    def test_missing_names_drop_metrics(self):
        saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "subgroup_atlas"}
        pkg = types.ModuleType("subgroup_atlas")
        groups = types.ModuleType("subgroup_atlas.groups")

        class G:
            _subgroups = None

        def all_subgroups(g):
            return [1, 2, 3]

        groups.all_subgroups = all_subgroups
        pkg.all_subgroups = all_subgroups
        sys.modules.update({"subgroup_atlas": pkg, "subgroup_atlas.groups": groups})
        try:
            tr = Tracer()
            tr.install()
            self.assertIsNot(pkg.all_subgroups, all_subgroups)
            self.assertEqual(tr.call("cli", pkg.all_subgroups, G()), [1, 2, 3])
            metrics = tr.layer_metrics()
        finally:
            for k in ("subgroup_atlas", "subgroup_atlas.groups"):
                sys.modules.pop(k, None)
            sys.modules.update(saved)
        self.assertEqual(metrics["groups.enumerate_calls"], 1)
        self.assertEqual(metrics["groups.subgroups"], 3)
        self.assertNotIn("groups.hom_checks", metrics)
        self.assertNotIn("towers.self_s", metrics)
        self.assertIn("groups.FiniteGroup.__init__", tr.missing)
        self.assertAlmostEqual(metrics["cli.self_s"] + metrics["groups.enumerate_s"],
                               tr.spans[0][2] - tr.spans[0][1], places=9)


class ForkedInvocations(unittest.TestCase):
    @staticmethod
    def _main(argv):
        if argv[0] == "raise":
            raise ValueError("bad spec")
        if argv[0] == "big":
            blob = bytearray(64 << 20)
            blob[::4096] = b"x" * len(blob[::4096])
        print(" ".join(argv))
        return 0

    def test_output_and_failures_come_back(self):
        inv = child._invoke(self._main, ["small", "call"], None)
        self.assertEqual((inv["rc"], inv["out"], inv["exc"]), (0, "small call\n", None))
        inv = child._invoke(self._main, ["raise"], None)
        self.assertEqual(inv["rc"], None)
        self.assertIn("bad spec", inv["exc"])

    def test_peak_does_not_depend_on_earlier_invocations(self):
        before = child._invoke(self._main, ["small"], None)["peak_rss_mb"]
        big = child._invoke(self._main, ["big"], None)["peak_rss_mb"]
        after = child._invoke(self._main, ["small"], None)["peak_rss_mb"]
        self.assertGreater(big, before + 60)
        self.assertLess(abs(after - before), 1.0)


if __name__ == "__main__":
    unittest.main()
