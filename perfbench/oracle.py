"""Output oracle that does not import or call the package under test.

Subgroup counts come from closed forms (checked against a brute-force count
in the self-tests); verdict tags come from the documented classification of
each family.  `check` parses one CLI output and returns a list of problems.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import gcd
from typing import Optional


# -- closed-form subgroup counts ------------------------------------------------------

def zp_counts(p: int, depth: int) -> list[int]:
    """Z/p^k is cyclic: one subgroup per divisor, k+1 of them."""
    return [k + 1 for k in range(1, depth + 1)]


def dihedral2_counts(depth: int) -> list[int]:
    """D_{2^(k+1)} (order 2^(k+1)) has 2^(k+1) + k subgroups."""
    return [2 ** (k + 1) + k for k in range(1, depth + 1)]


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def zpn_counts(p: int, n: int, depth: int) -> list[int]:
    """Subgroups of Z/m x Z/m number sum_{a|m, b|m} gcd(a, b)."""
    if n != 2:
        raise ValueError("closed form covers rank 2 only")
    out = []
    for k in range(1, depth + 1):
        divs = _divisors(p ** k)
        out.append(sum(gcd(a, b) for a in divs for b in divs))
    return out


def brute_force_subgroup_count(elements: list, mul) -> int:
    """Every subgroup of a small group, by closing each known subgroup under one
    more element until nothing new appears."""
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]

    def close(members: frozenset) -> frozenset:
        out = set(members)
        todo = list(out)
        while todo:
            a = todo.pop()
            for b in list(out):
                for c in (table[a][b], table[b][a]):
                    if c not in out:
                        out.add(c)
                        todo.append(c)
        return frozenset(out)

    ident = next(i for i in range(len(elements))
                 if all(table[i][j] == j for j in range(len(elements))))
    found = {frozenset([ident])}
    frontier = list(found)
    while frontier:
        nxt = []
        for H in frontier:
            for g in range(len(elements)):
                if g not in H:
                    K = close(H | {g})
                    if K not in found:
                        found.add(K)
                        nxt.append(K)
        frontier = nxt
    return len(found)


def s3_x_c4_subgroup_count() -> int:
    from itertools import permutations

    s3 = list(permutations(range(3)))
    elems = [(s, c) for s in s3 for c in range(4)]
    return brute_force_subgroup_count(
        elems, lambda x, y: (tuple(y[0][i] for i in x[0]), (x[1] + y[1]) % 4))


# -- verdict references -----------------------------------------------------------------

# (tag, params) by family: zp is the countable omega+1 space, dihedral2 is
# Pelczynski space plus one isolated tail, and zpn / heisenberg of rank >= 2
# are Pelczynski.  A coprime product of two Z_p factors is omega^2 + 1.
# Towers without a certificate (custom literals, pirim) stay Undetermined:
# a verdict is only named when a certificate backs it.  The named verdicts
# need depth >= 4: the rank-1 survivor count must hold over three levels.
_VERDICTS = {
    "zp": ("OmegaAlphaN", {"alpha": 1, "n": 1}),
    "dihedral2": ("PelczynskiPlusOmegaN", {"n": 1}),
    "zpn": ("Pelczynski", {}),
    "heisenberg": ("Pelczynski", {}),
    "product-zp-zp": ("OmegaAlphaN", {"alpha": 2, "n": 1}),
    "pirim": ("Undetermined", {}),
    "custom": ("Undetermined", {}),
}


def verdict_ref(key: str) -> tuple[str, dict]:
    return _VERDICTS[key]


# -- checking one output ---------------------------------------------------------------------

@dataclass
class Expect:
    """One CLI invocation and what its output must show; every invocation
    of the benchmark is expected to exit 0.

    fmt names the output shape: json (analysis report), table (analysis
    table), dot, verdict (verdict JSON), verdict-table, lattice-table,
    audit (audit JSON) or audit-table.
    """

    argv: list[str]
    counts: Optional[list[int]] = None
    verdict: Optional[tuple[str, dict]] = None
    fmt: str = "json"
    audit_subgroups: Optional[int] = None


def _dot_counts(text: str) -> list[int]:
    counts: dict[int, int] = {}
    for m in re.finditer(r"^\s+L(\d+)N\d+ \[", text, re.M):
        k = int(m.group(1))
        counts[k] = counts.get(k, 0) + 1
    return [counts[k] for k in sorted(counts)]


def _verdict_problems(exp: Expect, tag: str, params: dict) -> list[str]:
    want_tag, want_params = exp.verdict
    if tag != want_tag or params != want_params:
        return [f"verdict {tag} {params}, expected {want_tag} {want_params}"]
    return []


def check(exp: Expect, rc: int, out: str) -> list[str]:
    """Problems found in one invocation's exit code and output (empty when fine)."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    try:
        problems += _check_output(exp, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unparseable {exp.fmt} output: {exc!r}")
    return problems


def _check_output(exp: Expect, out: str) -> list[str]:
    problems = []
    counts = None
    if exp.fmt == "json":
        doc = json.loads(out)
        counts = doc["lattice"]["countsPerLevel"]
        if exp.verdict is not None:
            problems += _verdict_problems(exp, doc["verdict"]["tag"], doc["verdict"]["params"])
    elif exp.fmt == "table":
        fields = dict(line.split(":", 1) for line in out.splitlines() if ":" in line
                      and not line.startswith(" "))
        counts = json.loads(fields["lattice sizes"])
        m = re.match(r"\s*(\w+)(?: (\{.*\}))?\s+\[", fields["verdict      "])
        params = eval_params(m.group(2)) if m.group(2) else {}
        problems += _verdict_problems(exp, m.group(1), params)
    elif exp.fmt == "dot":
        counts = _dot_counts(out)
    elif exp.fmt == "verdict":
        doc = json.loads(out)
        problems += _verdict_problems(exp, doc["tag"], doc["params"])
    elif exp.fmt == "verdict-table":
        m = re.match(r"(\w+)(?: (\{.*\}))?\s+\[", out)
        params = eval_params(m.group(2)) if m.group(2) else {}
        problems += _verdict_problems(exp, m.group(1), params)
    elif exp.fmt == "lattice-table":
        counts = [int(line.split(":")[1]) for line in out.splitlines()[1:]]
    elif exp.fmt == "audit":
        docs = json.loads(out)
        if not docs or not all(d["passed"] for d in docs):
            problems.append("audit did not pass")
        if exp.audit_subgroups is not None:
            got = docs[0]["details"]["subgroup_count"]
            if got != exp.audit_subgroups:
                problems.append(f"{got} subgroups, expected {exp.audit_subgroups}")
    elif exp.fmt == "audit-table":
        rows = out.splitlines()[1:]
        if not rows or not all(r.split()[-1] == "PASS" for r in rows):
            problems.append("audit did not pass")
    else:
        raise ValueError(f"unknown output shape {exp.fmt!r}")
    if exp.counts is not None and counts != exp.counts:
        problems.append(f"countsPerLevel {counts}, expected {exp.counts}")
    return problems


def eval_params(text: str) -> dict:
    """Parse a printed params dict such as {'alpha': 1, 'n': 1}."""
    return json.loads(text.replace("'", '"'))
