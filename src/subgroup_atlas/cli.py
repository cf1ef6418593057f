"""Batch command-line front end.

Commands: analyze, classify, lattice, audit, goursat.  JSON reports are
byte-stable across runs; exit code 2 flags a verdict where the finite data
contradicts an algebraic certificate, exit 1 any operational error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import audits as audits_mod
from .classify import Analysis, analyze_tower
from .errors import AtlasError, SpecError
from .groups import load_group_json
from .lattice import build_lattice_tower, to_dot
from .report import (
    analysis_report,
    audit_results_to_json,
    audit_results_to_table,
    report_to_dot,
    report_to_json,
    report_to_table,
    verdict_to_json,
)
from .towers import (
    build_tower,
    make_dihedral2,
    make_pirim,
    make_wilson,
    make_zp,
    make_zpn,
    parse_tower_spec,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SpecError(f"usage error: {message}")


class _MalformedJSON(Exception):
    """A spec or group literal that is not a JSON document."""


def _json_document(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise _MalformedJSON(exc) from exc


def _family_spec_from_args(args, family: str | None = None) -> dict:
    """The parsed spec of --spec-file or of --family and its parameters; a
    given `family` replaces both."""
    if args.spec_file and family is None:
        text = Path(args.spec_file).read_text(encoding="utf-8")
        return parse_tower_spec(_json_document(text))
    family = family or args.family
    if not family:
        raise SpecError("either --family or --spec-file is required", ["/family"])
    doc: dict = {"family": family}
    if args.p is not None:
        doc["p"] = args.p
    if args.n is not None:
        doc["n"] = args.n
    if args.depth is not None:
        doc["depth"] = args.depth
    return parse_tower_spec(doc)


def _add_tower_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="built-in family name")
    p.add_argument("--spec-file", help="path to a tower spec JSON document")
    p.add_argument("--p", type=int, help="prime for zp/zpn/heisenberg")
    p.add_argument("--n", type=int, help="rank for zpn")
    p.add_argument("--depth", type=int, help="tower depth override")
    p.add_argument("--max-rank", type=int, help="filtration rank override")
    p.add_argument("--output", choices=("json", "table", "dot"), default="json")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--parallel", action="store_true",
                   help="accepted and ignored; lattices are built serially")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_group_arg(raw: str):
    text = raw
    if not raw.lstrip().startswith("{"):
        text = Path(raw).read_text(encoding="utf-8")
    return load_group_json(_json_document(text))


def _analyze(args) -> Analysis:
    spec = _family_spec_from_args(args)
    return analyze_tower(build_tower(spec), max_rank=args.max_rank)


def _cmd_analyze(args) -> int:
    a = _analyze(args)
    if args.output == "json":
        _emit(report_to_json(analysis_report(a)), args.out)
    elif args.output == "table":
        _emit(report_to_table(analysis_report(a)), args.out)
    else:
        _emit(report_to_dot(a), args.out)
    return 2 if a.verdict.conflict else 0


def _cmd_classify(args) -> int:
    v = _analyze(args).verdict
    if args.output == "table":
        params = f" {v.params}" if v.params else ""
        _emit(f"{v.tag}{params}  [{v.confidence}]\n", args.out)
    else:
        _emit(verdict_to_json(v), args.out)
    return 2 if v.conflict else 0


def _cmd_lattice(args) -> int:
    spec = _family_spec_from_args(args)
    t = build_tower(spec)
    if args.output == "dot" and t.depth >= 2:
        _emit(report_to_dot(analyze_tower(t, max_rank=args.max_rank)), args.out)
        return 0
    lt = build_lattice_tower(t)
    if args.output == "dot":
        _emit(to_dot(lt), args.out)
        return 0
    doc = {
        "version": 1,
        "tower": {
            "family": t.meta.family_name,
            "primes": sorted(t.meta.primes),
            "depth": t.depth,
            "orders": [int(o) for o in lt.level_orders],
        },
        "lattice": {"countsPerLevel": lt.counts_per_level()},
    }
    if args.output == "table":
        lines = [f"{k}: {c}" for k, c in enumerate(lt.counts_per_level(), start=1)]
        _emit("level: node count\n" + "\n".join(lines) + "\n", args.out)
    else:
        _emit(report_to_json(doc), args.out)
    return 0


AUDIT_NAMES = (
    "frattini_stability",
    "wilson_commutator",
    "pirim_irreducibility",
    "bn_recurrence",
    "solitary_criterion_hxz",
    "virtually_zp",
    "goursat_full",
)


def _run_named_audit(name: str, args) -> list:
    if name == "bn_recurrence":
        return [audits_mod.bn_recurrence_audit(args.n or 40)]
    if name == "goursat_full":
        if not (args.g1 and args.g2):
            raise SpecError("goursat_full needs --g1 and --g2")
        return [audits_mod.goursat_full_audit(_load_group_arg(args.g1),
                                              _load_group_arg(args.g2))]
    if name == "frattini_stability":
        spec = _family_spec_from_args(args)
        return [audits_mod.frattini_stability_audit(build_tower(spec))]
    if name == "wilson_commutator":
        spec = _family_spec_from_args(args, "wilson")
        return [audits_mod.wilson_commutator_audit(build_tower(spec))]
    if name == "pirim_irreducibility":
        spec = _family_spec_from_args(args, "pirim")
        return [audits_mod.pirim_irreducibility_audit(build_tower(spec))]
    if name == "solitary_criterion_hxz":
        spec = _family_spec_from_args(args)
        left = build_tower(spec)
        return [audits_mod.solitary_criterion_hxz_audit(left, max_depth=2)]
    if name == "virtually_zp":
        spec = _family_spec_from_args(args)
        return [audits_mod.virtually_zp_audit(build_tower(spec))]
    raise SpecError(f"unknown audit {name!r}; known: {', '.join(AUDIT_NAMES)}")


def _default_audit_suite() -> list:
    from .groups import cyclic, dihedral, quaternion8

    results = []
    results.append(audits_mod.frattini_stability_audit(make_zp(2, 4)))
    results.append(audits_mod.frattini_stability_audit(make_zpn(2, 2, 4)))
    results.append(audits_mod.frattini_stability_audit(make_dihedral2(4)))
    results.append(audits_mod.frattini_stability_audit(make_wilson(3)))
    results.append(audits_mod.wilson_commutator_audit(make_wilson(3)))
    results.append(audits_mod.pirim_irreducibility_audit(make_pirim(2)))
    results.append(audits_mod.bn_recurrence_audit(40))
    results.append(audits_mod.solitary_criterion_hxz_audit(make_wilson(3), max_depth=2))
    results.append(audits_mod.solitary_criterion_hxz_audit(make_zpn(3, 2, 3), max_depth=2))
    results.append(audits_mod.virtually_zp_audit(make_zp(2, 4)))
    results.append(audits_mod.virtually_zp_audit(make_dihedral2(4)))
    results.append(audits_mod.goursat_full_audit(cyclic(2), cyclic(2)))
    results.append(audits_mod.goursat_full_audit(cyclic(4), cyclic(2)))
    results.append(audits_mod.goursat_full_audit(dihedral(4), cyclic(3)))
    results.append(audits_mod.goursat_full_audit(quaternion8(), cyclic(2)))
    return results


def _cmd_audit(args) -> int:
    if args.all:
        results = _default_audit_suite()
    else:
        name = args.audit_name or args.name
        if not name:
            raise SpecError("audit needs --name/--audit-name or --all")
        results = _run_named_audit(name, args)
    if args.output == "table":
        _emit(audit_results_to_table(results), args.out)
    else:
        _emit(audit_results_to_json(results), args.out)
    return 0 if all(r.passed for r in results) else 1


def _cmd_goursat(args) -> int:
    result = audits_mod.goursat_full_audit(
        _load_group_arg(args.g1), _load_group_arg(args.g2)
    )
    if args.output == "table":
        _emit(audit_results_to_table([result]), args.out)
    else:
        _emit(audit_results_to_json([result]), args.out)
    return 0 if result.passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="subgroup-atlas",
                     description="tower analysis of subgroup spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd, fn in (
        ("analyze", _cmd_analyze),
        ("classify", _cmd_classify),
        ("lattice", _cmd_lattice),
    ):
        p = sub.add_parser(cmd)
        _add_tower_args(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("audit")
    _add_tower_args(p)
    p.add_argument("--name", help="audit name")
    p.add_argument("--audit-name", help="audit name (alias)")
    p.add_argument("--all", action="store_true", help="run the default audit suite")
    p.add_argument("--g1", help="group literal (JSON or path) for goursat_full")
    p.add_argument("--g2", help="group literal (JSON or path) for goursat_full")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("goursat")
    p.add_argument("--g1", required=True, help="group literal (JSON or path)")
    p.add_argument("--g2", required=True, help="group literal (JSON or path)")
    p.add_argument("--output", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_goursat)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.paths:
            sys.stderr.write(f"  at: {', '.join(exc.paths)}\n")
        sys.stderr.write(parser.format_usage())
        return 1
    except AtlasError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _MalformedJSON as exc:
        sys.stderr.write(f"error: malformed JSON: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
