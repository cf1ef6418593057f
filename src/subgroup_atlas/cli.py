"""Batch command-line front end.

Commands: analyze, classify, lattice, audit, goursat.  JSON reports are
byte-stable across runs; exit code 2 flags a verdict where the finite data
contradicts an algebraic certificate, exit 1 any operational error.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import audits as audits_mod
from .classify import Analysis, analyze_tower
from .errors import AtlasError, SpecError
from .groups import load_group_json
from .lattice import build_lattice_tower, to_dot
from .report import (analysis_report, audit_results_to_json, audit_results_to_table,
                     report_to_dot, report_to_json, report_to_table, verdict_to_json)
from .towers import (FAMILIES, build_tower, make_dihedral2, make_pirim, make_wilson, make_zp,
                     make_zpn, parse_tower_spec)


class _MalformedJSON(AtlasError):
    """A spec or group literal that is not a JSON document."""


def _json_document(text: str | bytes):
    """The document of a JSON text, or of a file's bytes read as UTF-8."""
    try:
        return json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past the digit limit
        raise _MalformedJSON(f"malformed JSON: {exc}") from exc


def _family_spec_from_args(args, family: str | None = None) -> dict:
    """The parsed spec of --spec-file or of --family and its parameters; a
    given `family` replaces --family.  Options that a run would ignore are
    usage errors: the tower options beside --spec-file, --spec-file where
    `family` is given, and --p or --n for a family without that parameter."""
    if args.spec_file:
        if family is not None:
            raise _usage_error(f"--spec-file does not apply: this audit builds a {family} tower")
        ignored = [f"--{k}" for k in ("family", "p", "n", "depth") if getattr(args, k) is not None]
        if ignored:
            raise _usage_error(f"--spec-file cannot be combined with {', '.join(ignored)}")
        return parse_tower_spec(_json_document(Path(args.spec_file).read_bytes()))
    family = family or args.family
    if not family:
        raise SpecError("either --family or --spec-file is required", ["/family"])
    given = {k: getattr(args, k) for k in ("p", "n", "depth") if getattr(args, k) is not None}
    if family in FAMILIES:
        unread = [f"--{k}" for k in ("p", "n") if k in given and k not in FAMILIES[family].params]
        if unread:
            raise _usage_error(f"family {family} does not read {', '.join(unread)}")
    return parse_tower_spec({"family": family, **given})


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_group_arg(raw: str):
    text = raw if raw.lstrip().startswith("{") else Path(raw).read_bytes()
    return load_group_json(_json_document(text))


def _analyze(args) -> Analysis:
    return analyze_tower(build_tower(_family_spec_from_args(args)), max_rank=args.max_rank)


def _cmd_analyze(args) -> int:
    a = _analyze(args)
    to_text = {"json": report_to_json, "table": report_to_table}.get(args.output)
    _emit(to_text(analysis_report(a)) if to_text else report_to_dot(a), args.out)
    return 2 if a.verdict.conflict else 0


def _cmd_classify(args) -> int:
    v = _analyze(args).verdict
    params = f" {v.params}" if v.params else ""
    table = f"{v.tag}{params}  [{v.confidence}]\n"
    _emit(table if args.output == "table" else verdict_to_json(v), args.out)
    return 2 if v.conflict else 0


def _cmd_lattice(args) -> int:
    if args.output != "dot":  # only the DOT graph of the analysis reads --max-rank
        _reject_unread(args, f"lattice --output {args.output}",
                       tuple(name for name in TOWER_OPTIONS if name != "--max-rank"))
    t = build_tower(_family_spec_from_args(args))
    if args.output == "dot" and t.depth >= 2:
        _emit(report_to_dot(analyze_tower(t, max_rank=args.max_rank)), args.out)
        return 0
    lt = build_lattice_tower(t)
    if args.output == "dot":
        _emit(to_dot(lt), args.out)
        return 0
    counts = lt.counts_per_level()
    if args.output == "table":
        lines = [f"{k}: {c}" for k, c in enumerate(counts, start=1)]
        _emit("level: node count\n" + "\n".join(lines) + "\n", args.out)
        return 0
    tower = {"family": t.meta.family_name, "primes": sorted(t.primes), "depth": t.depth,
             "orders": [int(o) for o in lt.level_orders]}
    _emit(report_to_json({"version": 1, "tower": tower, "lattice": {"countsPerLevel": counts}}),
          args.out)
    return 0


# the options each audit reads besides --name or --audit-name, --output, --out
# and --parallel; the family audits build their own family, and
# _family_spec_from_args refuses --spec-file for them
TOWER_SPEC = ("--family", "--p", "--n", "--depth", "--spec-file")
FAMILY_SPEC = ("--p", "--n", "--depth", "--spec-file")
AUDIT_OPTIONS = {
    "frattini_stability": TOWER_SPEC,
    "wilson_commutator": FAMILY_SPEC,
    "pirim_irreducibility": FAMILY_SPEC,
    "bn_recurrence": ("--n",),
    "solitary_criterion_hxz": TOWER_SPEC,
    "virtually_zp": TOWER_SPEC,
    "goursat_full": ("--g1", "--g2"),
}
AUDIT_COMMON = ("--output", "--out", "--parallel")


def _reject_unread(args, what: str, read: tuple[str, ...]) -> None:
    """A usage error naming each option of the command, in `COMMANDS` order,
    that is given but not in `read`: the options `what` reads."""
    _, _, options, _ = COMMANDS[args.command]
    unread = [name for name, (kind, _) in options.items()
              if name not in read and getattr(args, _dest(name)) != _default(kind)]
    if unread:
        raise _usage_error(f"{what} does not read {', '.join(unread)}")


def _run_named_audit(name: str, args) -> list:
    if name == "bn_recurrence":
        return [audits_mod.bn_recurrence_audit(40 if args.n is None else args.n)]
    if name == "goursat_full":
        if not (args.g1 and args.g2):
            raise SpecError("goursat_full needs --g1 and --g2")
        return [audits_mod.goursat_full_audit(_load_group_arg(args.g1), _load_group_arg(args.g2))]
    # the two family audits build their family's tower; the rest read the spec
    family = {"wilson_commutator": "wilson", "pirim_irreducibility": "pirim"}.get(name)
    tower = build_tower(_family_spec_from_args(args, family))
    return [getattr(audits_mod, f"{name}_audit")(tower)]


def _default_audit_suite() -> list:
    from .groups import cyclic, dihedral, quaternion8

    a = audits_mod
    return [
        a.frattini_stability_audit(make_zp(2, 4)), a.frattini_stability_audit(make_zpn(2, 2, 4)),
        a.frattini_stability_audit(make_dihedral2(4)), a.frattini_stability_audit(make_wilson(3)),
        a.wilson_commutator_audit(make_wilson(3)), a.pirim_irreducibility_audit(make_pirim(2)),
        a.bn_recurrence_audit(40),
        a.solitary_criterion_hxz_audit(make_wilson(3)),
        a.solitary_criterion_hxz_audit(make_zpn(3, 2, 3)),
        a.virtually_zp_audit(make_zp(2, 4)), a.virtually_zp_audit(make_dihedral2(4)),
        a.goursat_full_audit(cyclic(2), cyclic(2)), a.goursat_full_audit(cyclic(4), cyclic(2)),
        a.goursat_full_audit(dihedral(4), cyclic(3)),
        a.goursat_full_audit(quaternion8(), cyclic(2)),
    ]


def _emit_audits(results: list, args) -> int:
    to_text = audit_results_to_table if args.output == "table" else audit_results_to_json
    _emit(to_text(results), args.out)
    return 0 if all(r.passed for r in results) else 1


def _cmd_audit(args) -> int:
    name = args.audit_name or args.name
    if not (args.all or name):
        raise SpecError("audit needs --name/--audit-name or --all")
    if args.all:
        _reject_unread(args, "audit --all", ("--all", *AUDIT_COMMON))
        return _emit_audits(_default_audit_suite(), args)
    if name not in AUDIT_OPTIONS:
        raise SpecError(f"unknown audit {name!r}; known: {', '.join(AUDIT_OPTIONS)}")
    alias = "--audit-name" if args.audit_name else "--name"
    _reject_unread(args, f"audit {alias} {name}", (alias, *AUDIT_OPTIONS[name], *AUDIT_COMMON))
    return _emit_audits(_run_named_audit(name, args), args)


def _cmd_goursat(args) -> int:
    g1, g2 = _load_group_arg(args.g1), _load_group_arg(args.g2)
    return _emit_audits([audits_mod.goursat_full_audit(g1, g2)], args)


# -- the command line --------------------------------------------------------------

# An option maps to (kind, help).  The kind is int or str, the type of its
# value; a tuple of choices, the first the default; or bool, a flag that takes
# no value.  Option --max-rank is read as args.max_rank, None if not given.
TOWER_OPTIONS = {
    "--family": (str, "built-in family name"),
    "--p": (int, "prime for zp/zpn/heisenberg"),
    "--n": (int, "rank for zpn"),
    "--depth": (int, "tower depth override"),
    "--spec-file": (str, "path to a tower spec JSON document"),
    "--max-rank": (int, "filtration rank override"),
    "--output": (("json", "table", "dot"), "output format"),
    "--out": (str, "output path (stdout when omitted)"),
    "--parallel": (bool, "accepted and ignored; lattices are built serially"),
}
# command: (handler, summary, options, required options)
COMMANDS = {
    "analyze": (_cmd_analyze, "the full report of a tower", TOWER_OPTIONS, ()),
    "classify": (_cmd_classify, "the verdict of a tower", {
        **TOWER_OPTIONS, "--output": (("json", "table"), "output format")}, ()),
    "lattice": (_cmd_lattice, "the subgroup lattice of each level", TOWER_OPTIONS, ()),
    "audit": (_cmd_audit, "one named audit, or the default suite", {
        **TOWER_OPTIONS,
        "--output": (("json", "table"), "output format"),
        "--name": (str, "audit name"),
        "--audit-name": (str, "audit name (alias)"),
        "--all": (bool, "run the default audit suite"),
        "--g1": (str, "group literal (JSON or path) for goursat_full"),
        "--g2": (str, "group literal (JSON or path) for goursat_full"),
    }, ()),
    "goursat": (_cmd_goursat, "Goursat's count of the subgroups of G1 x G2", {
        "--g1": (str, "group literal (JSON or path)"),
        "--g2": (str, "group literal (JSON or path)"),
        "--output": (("json", "table"), "output format"),
        "--out": (str, "output path (stdout when omitted)"),
    }, ("--g1", "--g2")),
}
PROG = "subgroup-atlas"
USAGE = f"usage: {PROG} [-h] {{{','.join(COMMANDS)}}} ...\n"
HELP = ("-h", "--help")
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage_error(message: str) -> SpecError:
    return SpecError(f"usage error: {message}")


def _default(kind):
    """The value of an option of this kind that is not given."""
    return False if kind is bool else kind[0] if isinstance(kind, tuple) else None


def _dest(name: str) -> str:
    """The attribute an option is read as: --max-rank as max_rank."""
    return name[2:].replace("-", "_")


def _option(token: str, names: tuple[str, ...]):
    """None for a value: a token that does not start with "-", "-" or a
    negative number.  Else (the option it names or None, the value attached
    by "=" or None).  A long name's unique prefix stands for it."""
    if token[:1] != "-" or token == "-" or NEGATIVE_NUMBER.match(token):
        return None
    head, eq, raw = token.partition("=")
    long_prefix = head.startswith("--") and head != "--"
    matches = [head] if head in names else [n for n in names if long_prefix and n.startswith(head)]
    if len(matches) > 1:
        raise _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
    return (matches or [None])[0], raw if eq else None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, its handler as `fn` and its options, the last given winning;
    -h or --help, first or among the options, parses to the help handler.
    Raises SpecError("usage error: ...") at the first token `COMMANDS` rejects."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        if _option(command, HELP) in [(name, None) for name in HELP]:
            return SimpleNamespace(command=None, fn=_print_help)
        raise _usage_error(f"expected a command ({', '.join(COMMANDS)}) or -h, got {command!r}")
    fn, _, options, required = COMMANDS[command]
    names = (*HELP, *options)
    values = {name: _default(kind) for name, (kind, _) in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        name, raw = _option(token, names) or (None, None)
        if name is None:
            raise _usage_error(f"unrecognized argument: {token}")
        kind = options[name][0] if name in options else bool  # -h and --help are flags
        if kind is bool and raw is not None:
            raise _usage_error(f"argument {name}: ignored explicit argument {raw!r}")
        if name in HELP:
            return SimpleNamespace(command=command, fn=_print_help)
        if kind is not bool and raw is None:
            raw = next(tokens, None)
            if raw is None or _option(raw, names) is not None:
                raise _usage_error(f"argument {name}: expected one argument")
        if kind is int:
            try:
                raw = int(raw)
            except ValueError:
                raise _usage_error(f"argument {name}: invalid int value: {raw!r}") from None
        elif isinstance(kind, tuple) and raw not in kind:
            raise _usage_error(f"argument {name}: invalid choice: {raw!r} "
                               f"(choose from {', '.join(kind)})")
        values[name] = True if kind is bool else raw
    missing = [name for name in required if values[name] is None]
    if missing:
        raise _usage_error(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, fn=fn,
                           **{_dest(name): v for name, v in values.items()})


def _print_help(args) -> int:
    """Write the help of the command, or of the program, to stdout."""
    if args.command is None:
        head, tail = USAGE + "\ncommands:\n", f"\nRun '{PROG} COMMAND -h' for its options.\n"
        rows = {command: row[1] for command, row in COMMANDS.items()}
    else:
        _, summary, options, required = COMMANDS[args.command]
        head, tail = f"usage: {PROG} {args.command} [options]\n\n{summary}\n\noptions:\n", ""
        rows = {"-h, --help": "show this help and exit"}
        for name, (kind, text) in options.items():
            arg = ("" if kind is bool else f" {{{','.join(kind)}}}" if isinstance(kind, tuple)
                   else f" {_dest(name).upper()}")
            rows[name + arg] = text + " (required)" * (name in required)
    width = max(map(len, rows))
    sys.stdout.write(head + "".join(f"  {k:<{width}}  {v}\n" for k, v in rows.items()) + tail)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.fn(args)
    except SpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.paths:
            sys.stderr.write(f"  at: {', '.join(exc.paths)}\n")
        sys.stderr.write(USAGE)
        return 1
    except (AtlasError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
