"""Analysis report assembly and serialization.

Every output is a projection of one `Analysis` record: the JSON report, its
table, and the DOT graph of the lattice.  Identical configurations must
produce byte-identical JSON, so everything here is sorted and timestamp-free.
"""

from __future__ import annotations

import json

from .classify import Analysis, Verdict
from .lattice import to_dot

REPORT_SCHEMA_VERSION = 1


def analysis_report(a: Analysis) -> dict:
    """Assemble the versioned report document from one analysis pass."""
    t, lt, report = a.tower, a.lattice, a.report
    doc = {
        "version": REPORT_SCHEMA_VERSION,
        "tower": {
            "family": t.meta.family_name,
            "primes": sorted(t.primes),
            "depth": t.depth,
            "orders": [int(o) for o in lt.level_orders],
            "flags": t.meta.flags.as_dict(),
            "dimEstimate": t.meta.dim_estimate,
        },
        "lattice": {"countsPerLevel": lt.counts_per_level()},
        "cb": {
            "horizon": report.horizon,
            "maxRank": report.max_rank,
            "survivorsPerRank": report.survivor_counts(),
            "apparentHeight": report.apparent_height.as_json(),
            "isolatedCounts": [len(nodes) for nodes in a.isolated.values()],
            "solitary": [
                {
                    "level": c.level,
                    "index": c.index,
                    "certified": c.status == "Certified",
                    "certificates": c.certificates,
                }
                for c in a.solitary
            ],
        },
        "verdict": a.verdict.as_json(),
    }
    return doc


def report_to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def verdict_to_json(v: Verdict) -> str:
    return json.dumps(v.as_json(), sort_keys=True, indent=2) + "\n"


def report_to_table(doc: dict) -> str:
    t = doc["tower"]
    cb = doc["cb"]
    v = doc["verdict"]
    lines = []
    lines.append(f"family       : {t['family']}")
    lines.append(f"primes       : {t['primes']}")
    lines.append(f"depth        : {t['depth']}")
    lines.append(f"level orders : {t['orders']}")
    lines.append(f"lattice sizes: {doc['lattice']['countsPerLevel']}")
    ah = cb["apparentHeight"]
    ah_str = str(ah["value"]) if ah["kind"] == "bounded" else f"unbounded@{ah['depth']}"
    lines.append(f"apparent ht  : {ah_str}  (maxRank {cb['maxRank']})")
    for r, counts in enumerate(cb["survivorsPerRank"]):
        lines.append(f"  rank {r} survivors per level: {counts}")
    lines.append(f"isolated     : {cb['isolatedCounts']}")
    sol = cb["solitary"]
    lines.append(f"solitary     : {[(c['level'], c['index'], 'C' if c['certified'] else 'E') for c in sol]}")
    params = f" {v['params']}" if v["params"] else ""
    lines.append(f"verdict      : {v['tag']}{params}  [{v['confidence']}]")
    if v["conflict"]:
        lines.append("CONFLICT: empirical data contradicts a certificate")
    return "\n".join(lines) + "\n"


def report_to_dot(a: Analysis) -> str:
    sol: dict[int, set[int]] = {}
    for c in a.solitary:
        sol.setdefault(c.level, set()).add(c.index)
    return to_dot(a.lattice, isolated=a.isolated, solitary=sol)


def audit_results_to_json(results: list) -> str:
    docs = [
        {
            "name": r.name,
            "passed": r.passed,
            "levels": list(r.levels),
            "details": _jsonable(r.details),
        }
        for r in results
    ]
    return json.dumps(docs, sort_keys=True, indent=2) + "\n"


def audit_results_to_table(results: list) -> str:
    width = max((len(r.name) for r in results), default=4)
    lines = [f"{'audit'.ljust(width)}  result"]
    for r in results:
        lines.append(f"{r.name.ljust(width)}  {'PASS' if r.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _jsonable(value):
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, frozenset):
        return sorted(value)
    return value
