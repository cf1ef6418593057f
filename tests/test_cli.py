"""CLI behavior: outputs, determinism, error handling, exit codes."""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subgroup_atlas.cli as cli_mod
from subgroup_atlas.cli import COMMANDS, main, parse_args
from subgroup_atlas.errors import SpecError
from subgroup_atlas.towers import FAMILIES


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("spec", [
    ["--family", "zp", "--p", "2", "--depth", "4"],
    ["--family", "zpn", "--p", "2", "--n", "2", "--depth", "4"],
    ["--family", "dihedral2", "--depth", "6"],
    ["--family", "heisenberg", "--p", "2", "--depth", "3"],
    ["--family", "wilson", "--depth", "4"],
], ids=["zp", "zpn", "dihedral2", "heisenberg", "wilson"])
def test_frattini_stability_audit_enumerates_no_level(spec, monkeypatch, capsys):
    # every level is a p-group, whose Frattini subgroup needs no lattice
    from subgroup_atlas import groups

    def refuse(G):
        raise AssertionError(f"enumerated {G.name}")

    monkeypatch.setattr(groups, "_subgroups_cyclic_extension", refuse)
    monkeypatch.setattr(groups, "_subgroups_generic", refuse)
    code, out, err = run_cli(["audit", "--name", "frattini_stability", *spec], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["passed"]


def test_analyze_zp3_verdict(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["analyze", "--family", "zp", "--p", "3", "--depth", "4",
         "--output", "json", "--out", str(out)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"]["tag"] == "OmegaAlphaN"
    assert doc["verdict"]["params"] == {"alpha": 1, "n": 1}
    assert doc["verdict"]["confidence"] == "Certified"
    assert doc["tower"]["orders"] == [3, 9, 27, 81]
    assert doc["version"] == 1


def test_report_embeds_required_fields(tmp_path, capsys):
    out = tmp_path / "r.json"
    run_cli(
        ["analyze", "--family", "dihedral2", "--depth", "3", "--out", str(out)],
        capsys,
    )
    doc = json.loads(out.read_text())
    for key in ("version", "tower", "lattice", "cb", "verdict"):
        assert key in doc
    assert "horizon" in doc["cb"]
    assert "survivorsPerRank" in doc["cb"]
    assert "evidence" in doc["verdict"]


def test_determinism_across_runs_and_parallelism(tmp_path, capsys):
    paths = [tmp_path / f"r{i}.json" for i in range(3)]
    base = ["analyze", "--family", "zpn", "--p", "3", "--n", "2", "--depth", "3"]
    run_cli(base + ["--out", str(paths[0])], capsys)
    run_cli(base + ["--out", str(paths[1])], capsys)
    run_cli(base + ["--parallel", "--out", str(paths[2])], capsys)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_audit_by_name(capsys):
    code, out, _ = run_cli(
        ["audit", "--name", "bn_recurrence", "--n", "40"], capsys
    )
    assert code == 0
    docs = json.loads(out)
    assert docs[0]["name"] == "bn_recurrence"
    assert docs[0]["passed"] is True


def test_audit_bn_recurrence_reads_n_zero_as_given(capsys):
    code, out, err = run_cli(["audit", "--name", "bn_recurrence", "--n", "0"], capsys)
    assert code == 1 and out == ""
    assert err == "error: bn recurrence audit needs N >= 3\n"


def test_audit_bn_recurrence_defaults_to_n_40(capsys):
    default = run_cli(["audit", "--name", "bn_recurrence"], capsys)
    assert default == run_cli(["audit", "--name", "bn_recurrence", "--n", "40"], capsys)
    assert default[0] == 0 and json.loads(default[1])[0]["levels"] == [1, 40]


def test_audit_name_alias(capsys):
    code, out, _ = run_cli(
        ["audit", "--audit-name", "bn_recurrence", "--n", "10"], capsys
    )
    assert code == 0


def test_audit_all(capsys):
    code, out, _ = run_cli(["audit", "--all", "--output", "table"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "goursat_full" in out


def test_lattice_dot_heisenberg(capsys):
    code, out, _ = run_cli(
        ["lattice", "--family", "heisenberg", "--p", "3", "--depth", "1",
         "--output", "dot"],
        capsys,
    )
    assert code == 0
    assert out.count("L1N") == 19


def test_lattice_json(capsys):
    code, out, _ = run_cli(
        ["lattice", "--family", "zp", "--p", "2", "--depth", "3"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"]["countsPerLevel"] == [2, 3, 4]


def test_classify_table(capsys):
    code, out, _ = run_cli(
        ["classify", "--family", "zp", "--p", "2", "--depth", "4",
         "--output", "table"],
        capsys,
    )
    assert code == 0
    assert "OmegaAlphaN" in out


def test_malformed_spec_exits_one(capsys):
    code, _, err = run_cli(["analyze", "--family", "nonsense"], capsys)
    assert code == 1
    assert "error" in err
    assert "usage" in err


def test_missing_family_exits_one(capsys):
    code, _, err = run_cli(["analyze"], capsys)
    assert code == 1


def test_prime_overlap_spec_exits_one(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "family": "product",
        "factors": [
            {"family": "zp", "p": 2, "depth": 2},
            {"family": "zp", "p": 2, "depth": 2},
        ],
    }))
    code, _, err = run_cli(["analyze", "--spec-file", str(spec)], capsys)
    assert code == 1
    assert "share primes" in err


def test_cap_exceeded_exits_one(capsys):
    code, _, err = run_cli(
        ["analyze", "--family", "wilson", "--depth", "10"], capsys
    )
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "zp", "--p", "2", "--depth", "20000"],
        ["--family", "zp", "--p", "2", "--depth", "10000000"],
        ["--family", "zp", "--p", "2305843009213693951"],
    ],
    ids=["depth-20000", "depth-10000000", "p-2^61-1"],
)
def test_order_far_above_cap_exits_one_quickly(argv, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["analyze", *argv], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "cap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec,pointer",
    [
        ({"family": "zp", "p": 2, "depth": True}, "/depth"),
        ({"family": "zpn", "p": 3, "n": True, "depth": 2}, "/n"),
    ],
    ids=["depth", "n"],
)
def test_boolean_spec_field_exits_one(spec, pointer, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["lattice", "--spec-file", str(path)], capsys)
    assert code == 1 and out == ""
    assert f"at: {pointer}" in err


C2_DOC, C4_DOC = ({"version": 1, "kind": "cyclic", "n": n} for n in (2, 4))


@pytest.mark.parametrize(
    "spec,pointer",
    [
        ({"family": "product", "factors": [{"family": "zp", "p": 2, "depth": 2},
                                           {"family": "zp", "p": 4, "depth": 2}]},
         "/factors/1/p"),
        ({"family": "product", "factors": [
            {"family": "zp", "p": 5, "depth": 2},
            {"family": "product", "factors": [{"family": "zp", "p": 2, "depth": 2},
                                              {"family": "zp", "p": 3, "depth": 0}]}]},
         "/factors/1/factors/1/depth"),
        ({"family": "custom", "levels": [C2_DOC, {"version": 1, "kind": "cyclic", "n": 0}],
          "maps": [[0, 1]]}, "/levels/1/n"),
        ({"family": "custom", "levels": [C2_DOC, [2]], "maps": [[0, 1]]}, "/levels/1"),
    ],
    ids=["factor-p", "nested-factor-depth", "level-n", "level-not-an-object"],
)
def test_nested_spec_error_points_into_the_whole_document(spec, pointer, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["analyze", "--spec-file", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"\n  at: {pointer}\n" in err


@pytest.mark.parametrize(
    "bad", [[0, 1.9, 0.2, 1], [False, True, False, True], ["0", "1", "0", "1"], None, {}],
    ids=["floats", "bools", "strings", "null", "object"])
def test_custom_map_that_is_not_a_list_of_integers_exits_one(bad, tmp_path, capsys):
    spec = tmp_path / "custom.json"
    spec.write_text(json.dumps({"family": "custom", "levels": [C2_DOC, C2_DOC, C4_DOC],
                                "maps": [[0, 1], bad]}))
    code, out, err = run_cli(["analyze", "--spec-file", str(spec)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: a connecting map must be a list of integers\n  at: /maps/1\n")
    assert "Traceback" not in err


def test_env_cap_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", "8")
    code, _, err = run_cli(
        ["analyze", "--family", "zp", "--p", "2", "--depth", "4"], capsys
    )
    assert code == 1
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", "100")
    code, out, _ = run_cli(
        ["classify", "--family", "zp", "--p", "2", "--depth", "4",
         "--output", "table"],
        capsys,
    )
    assert code == 0


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_bad_env_cap_exits_one(raw, monkeypatch, capsys):
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", raw)
    code, out, err = run_cli(
        ["analyze", "--family", "zp", "--p", "2", "--depth", "3"], capsys
    )
    assert code == 1 and out == ""
    assert err == f"error: SUBGROUP_ATLAS_CAP must be a positive integer, got {raw!r}\n"


FAMILY_AUDITS = {"wilson_commutator": "wilson", "pirim_irreducibility": "pirim"}


@pytest.mark.parametrize("name", list(FAMILY_AUDITS))
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_named_family_audit_rejects_bad_depth(name, depth, capsys):
    code, out, err = run_cli(["audit", "--name", name, "--depth", depth], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: depth must be a positive integer\n  at: /depth\n")


@pytest.mark.parametrize("name", list(FAMILY_AUDITS))
def test_named_family_audit_defaults_to_the_family_depth(name, capsys):
    depth = FAMILIES[FAMILY_AUDITS[name]].default_depth
    code, out, _ = run_cli(["audit", "--name", name], capsys)
    assert code == 0
    assert run_cli(["audit", "--name", name, "--depth", str(depth)], capsys) == (0, out, "")


@pytest.mark.parametrize("name", list(FAMILY_AUDITS))
def test_named_family_audit_rejects_a_spec_file(name, tmp_path, capsys):
    spec = tmp_path / "t.json"
    spec.write_text(json.dumps({"family": "zp", "p": 5, "depth": 3}))
    code, out, err = run_cli(["audit", "--name", name, "--spec-file", str(spec)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: usage error: --spec-file does not apply: "
                          f"this audit builds a {FAMILY_AUDITS[name]} tower\n")


@pytest.mark.parametrize("command", ["analyze", "classify", "lattice", "audit"])
@pytest.mark.parametrize("extra", [["--depth", "0"], ["--depth", "2"], ["--p", "7"],
                                   ["--n", "2"], ["--family", "zp"]])
def test_spec_file_rejects_tower_options(command, extra, tmp_path, capsys):
    spec = tmp_path / "t.json"
    spec.write_text(json.dumps({"family": "zp", "p": 5, "depth": 3}))
    argv = [command, "--spec-file", str(spec), *extra]
    if command == "audit":
        argv += ["--name", "frattini_stability"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: usage error: --spec-file cannot be combined with {extra[0]}\n")


def test_spec_file_rejection_names_every_ignored_option(tmp_path, capsys):
    spec = tmp_path / "t.json"
    spec.write_text(json.dumps({"family": "zp", "p": 5, "depth": 3}))
    code, _, err = run_cli(["analyze", "--depth", "9", "--spec-file", str(spec), "--p", "7",
                            "--family", "zp"], capsys)
    assert code == 1
    assert err.startswith("error: usage error: --spec-file cannot be combined with "
                          "--family, --p, --depth\n")


def test_audit_output_dot_is_a_usage_error(capsys):
    code, out, err = run_cli(["audit", "--all", "--output", "dot"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: usage error: argument --output: invalid choice: 'dot' "
                          "(choose from json, table)\n")


def test_classify_output_dot_is_a_usage_error(capsys):
    code, out, err = run_cli(["classify", "--family", "zp", "--p", "2", "--output", "dot"],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: usage error: argument --output: invalid choice: 'dot' "
                          "(choose from json, table)\n")


@pytest.mark.parametrize("tower", [["--family", "zp", "--p", "2", "--depth", "3"],
                                   ["--family", "dihedral2", "--depth", "4"]])
def test_virtually_zp_analysis_below_rank_two_is_out_of_range(tower, capsys):
    # the virtually-Z_p audit compares the solitary sets, which rank 2 finds
    code, out, err = run_cli(["analyze", *tower, "--max-rank", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: virtually_zp audit needs maxRank >= 2 at depth ")
    assert err.count("\n") == 1


def test_rank_one_analysis_without_the_virtually_zp_audit(capsys):
    # recorded before rank-one virtually-Z_p analyses were refused
    code, out, err = run_cli(["analyze", "--family", "zpn", "--p", "2", "--n", "2",
                              "--depth", "3", "--max-rank", "1"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "26e047f847b41718"


C2_LITERAL = json.dumps({"version": 1, "kind": "cyclic", "n": 2})
# audits that build no tower from the tower options, with the options each reads
TOWERLESS_AUDITS = {
    "audit --all": (["audit", "--all"], ()),
    "audit --name bn_recurrence": (["audit", "--name", "bn_recurrence"], ("--n",)),
    "audit --name goursat_full": (
        ["audit", "--name", "goursat_full", "--g1", C2_LITERAL, "--g2", C2_LITERAL], ()),
}
TOWER_OPTION_ARGS = [["--family", "zp"], ["--p", "3"], ["--n", "2"], ["--depth", "0"],
                 ["--spec-file", "tower.json"]]


@pytest.mark.parametrize("what,extra", [
    (what, extra) for what, (_, read) in TOWERLESS_AUDITS.items()
    for extra in TOWER_OPTION_ARGS if extra[0] not in read
])
def test_towerless_audit_rejects_tower_options(what, extra, capsys):
    code, out, err = run_cli([*TOWERLESS_AUDITS[what][0], *extra], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: usage error: {what} does not read {extra[0]}\n")


def test_towerless_audit_rejection_names_every_ignored_option(capsys):
    code, out, err = run_cli(["audit", "--all", "--depth", "0", "--p", "3", "--family", "zp"],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: usage error: audit --all does not read --family, --p, --depth\n")
    code, _, err = run_cli(["audit", "--name", "bn_recurrence", "--n", "10", "--depth", "0",
                            "--spec-file", "tower.json"], capsys)
    assert code == 1
    assert err.startswith("error: usage error: audit --name bn_recurrence does not read "
                          "--depth, --spec-file\n")


def _audit_option_args(name: str) -> list[str]:
    """The tokens that give audit option `name` a value other than its default."""
    kind = COMMANDS["audit"][2][name][0]
    return [name] if kind is bool else [name, "table" if isinstance(kind, tuple) else "3"]


AUDIT_ROUTES = {"audit --all": ["audit", "--all"],
                **{f"audit --name {name}": ["audit", "--name", name]
                   for name in cli_mod.AUDIT_OPTIONS}}
READ = {"audit --all": ("--all",),
        **{f"audit --name {name}": ("--name", *read) for name, read in cli_mod.AUDIT_OPTIONS.items()}}


@pytest.mark.parametrize("what,option", [
    (what, option) for what in AUDIT_ROUTES for option in COMMANDS["audit"][2]
    # --all selects its own route, and --name or --audit-name another audit
    if option not in (*READ[what], *cli_mod.AUDIT_COMMON, "--all", "--name", "--audit-name")
])
def test_every_audit_rejects_each_option_it_does_not_read(what, option, capsys):
    code, out, err = run_cli([*AUDIT_ROUTES[what], *_audit_option_args(option)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: usage error: {what} does not read {option}\n")


@pytest.mark.parametrize("argv,message", [
    (["audit", "--all", "--max-rank", "3"], "audit --all does not read --max-rank"),
    (["audit", "--all", "--name", "bn_recurrence"], "audit --all does not read --name"),
    (["audit", "--name", "frattini_stability", "--family", "zp", "--p", "2", "--depth", "3",
      "--g1", C2_LITERAL], "audit --name frattini_stability does not read --g1"),
    (["audit", "--audit-name", "bn_recurrence", "--name", "bn_recurrence"],
     "audit --audit-name bn_recurrence does not read --name"),
    (["audit", "--name", "wilson_commutator", "--family", "zp"],
     "audit --name wilson_commutator does not read --family"),
    (["audit", "--name", "pirim_irreducibility", "--p", "3"], "family pirim does not read --p"),
    (["analyze", "--family", "zp", "--p", "2", "--n", "2"], "family zp does not read --n"),
    (["classify", "--family", "dihedral2", "--p", "2", "--n", "2"],
     "family dihedral2 does not read --p, --n"),
    (["lattice", "--family", "zp", "--p", "2", "--max-rank", "2"],
     "lattice --output json does not read --max-rank"),
    (["lattice", "--family", "zp", "--p", "2", "--max-rank", "2", "--output", "table"],
     "lattice --output table does not read --max-rank"),
], ids=["all-max-rank", "all-name", "g1", "both-aliases", "family-audit-family",
        "family-audit-p", "zp-n", "dihedral2-p-n", "lattice-json", "lattice-table"])
def test_options_a_run_does_not_read_are_usage_errors(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: usage error: {message}\n")


def test_lattice_dot_reads_max_rank(capsys):
    argv = ["lattice", "--family", "zp", "--p", "2", "--depth", "3", "--output", "dot"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert run_cli([*argv, "--max-rank", "2"], capsys)[0] == 0


def test_goursat_command_inline_json(capsys):
    g = json.dumps({"version": 1, "kind": "cyclic", "n": 4})
    h = json.dumps({"version": 1, "kind": "cyclic", "n": 2})
    code, out, _ = run_cli(["goursat", "--g1", g, "--g2", h], capsys)
    assert code == 0
    docs = json.loads(out)
    assert docs[0]["details"]["subgroup_count"] == 8


def test_goursat_command_spec_files(tmp_path, capsys):
    p1 = tmp_path / "g1.json"
    p2 = tmp_path / "g2.json"
    p1.write_text(json.dumps({"version": 1, "kind": "permutation", "degree": 3,
                              "generators": [[1, 0, 2], [1, 2, 0]]}))
    p2.write_text(json.dumps({"version": 1, "kind": "cyclic", "n": 2}))
    code, out, _ = run_cli(["goursat", "--g1", str(p1), "--g2", str(p2)], capsys)
    assert code == 0


def test_spec_file_analyze(tmp_path, capsys):
    spec = tmp_path / "t.json"
    spec.write_text(json.dumps({"family": "zp", "p": 5, "depth": 3}))
    code, out, _ = run_cli(["analyze", "--spec-file", str(spec)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["tower"]["primes"] == [5]


def test_custom_tower_spec(tmp_path, capsys):
    spec = tmp_path / "custom.json"
    spec.write_text(json.dumps({
        "family": "custom",
        "levels": [
            {"version": 1, "kind": "cyclic", "n": 2},
            {"version": 1, "kind": "cyclic", "n": 4},
            {"version": 1, "kind": "cyclic", "n": 8},
        ],
        "maps": [[0, 1, 0, 1], [0, 1, 2, 3, 0, 1, 2, 3]],
    }))
    code, out, _ = run_cli(["analyze", "--spec-file", str(spec)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"]["countsPerLevel"] == [2, 3, 4]
    assert doc["tower"]["family"] == "custom"


@pytest.mark.parametrize("bad", [7, -1, 10**26, -10**26])
def test_custom_map_image_out_of_range_exits_one(bad, tmp_path, capsys):
    spec = tmp_path / "custom.json"
    spec.write_text(json.dumps({
        "family": "custom",
        "levels": [{"version": 1, "kind": "cyclic", "n": n} for n in (2, 4)],
        "maps": [[0, 1, 0, bad]],
    }))
    code, _, err = run_cli(["analyze", "--spec-file", str(spec)], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert "outside target group" in err
    assert "Traceback" not in err


def test_golden_report(tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden_zp_2_3.json"
    out = tmp_path / "fresh.json"
    code, _, _ = run_cli(
        ["analyze", "--family", "zp", "--p", "2", "--depth", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()


def test_analyze_dot_output(capsys):
    code, out, _ = run_cli(
        ["analyze", "--family", "zp", "--p", "2", "--depth", "3", "--output", "dot"],
        capsys,
    )
    assert code == 0
    assert "digraph lattice" in out
    assert "doublecircle" in out


def test_hxz_audit_via_cli(capsys):
    code, out, _ = run_cli(
        ["audit", "--name", "solitary_criterion_hxz", "--family", "wilson"], capsys
    )
    assert code == 0
    docs = json.loads(out)
    assert docs[0]["passed"] is True


def test_hxz_audit_below_depth_two_via_cli(capsys):
    code, out, err = run_cli(["audit", "--name", "solitary_criterion_hxz", "--family", "zp",
                              "--p", "2", "--depth", "1"], capsys)
    assert (code, out, err) == (1, "", "error: hxz audit needs depth >= 2\n")


def test_product_analyze_via_cli(tmp_path, capsys):
    spec = tmp_path / "prod.json"
    spec.write_text(json.dumps({
        "family": "product",
        "factors": [
            {"family": "zp", "p": 2, "depth": 4},
            {"family": "zp", "p": 3, "depth": 4},
        ],
    }))
    code, out, _ = run_cli(["analyze", "--spec-file", str(spec)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["tag"] == "OmegaAlphaN"
    assert doc["verdict"]["params"] == {"alpha": 2, "n": 1}


def _constant_custom(n: int) -> dict:
    return {
        "family": "custom",
        "levels": [{"version": 1, "kind": "cyclic", "n": n}] * 3,
        "maps": [list(range(n))] * 2,
    }


@pytest.mark.parametrize(
    "factors,caps,evidence",
    [
        ([_constant_custom(2), _constant_custom(3)], ["4096", "5"],
         [{"certificate": "constant_tower", "points": 4}]),
        ([{"family": "zp", "p": 2, "depth": 4}, {"family": "zp", "p": 3, "depth": 4}],
         ["4096", "100"], None),
    ],
    ids=["constant-custom", "zp2-zp3"],
)
def test_product_verdict_does_not_depend_on_the_cap(factors, caps, evidence, tmp_path,
                                                    capsys, monkeypatch):
    spec = tmp_path / "prod.json"
    spec.write_text(json.dumps({"family": "product", "factors": factors}))
    outputs = []
    for cap in caps:
        monkeypatch.setenv("SUBGROUP_ATLAS_CAP", cap)
        code, out, _ = run_cli(["classify", "--spec-file", str(spec)], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    if evidence is not None:
        assert json.loads(outputs[0])["evidence"] == evidence


def test_large_cap_product_stays_structural(tmp_path, capsys, monkeypatch):
    # the top product level has order 810,000: no table of it may be built
    spec = tmp_path / "prod.json"
    spec.write_text(json.dumps({"family": "product", "factors": [
        {"family": "zp", "p": p, "depth": 4} for p in (2, 3, 5)
    ]}))
    monkeypatch.setenv("SUBGROUP_ATLAS_CAP", "1000000000")
    start = time.perf_counter()
    code, out, _ = run_cli(["classify", "--spec-file", str(spec)], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert json.loads(out)["tag"] == "OmegaAlphaN"


def test_conflict_exit_code_two(monkeypatch, capsys):
    import subgroup_atlas.cli as cli_mod
    from subgroup_atlas.classify import Verdict, analyze_tower

    real = analyze_tower

    def doctored(t, max_rank=None):
        a = real(t, max_rank=max_rank)
        v = a.verdict
        a.verdict = Verdict("Undetermined", {}, "EmpiricalOnly", v.evidence, conflict=True)
        return a

    monkeypatch.setattr(cli_mod, "analyze_tower", doctored)
    code, _, _ = run_cli(
        ["analyze", "--family", "zp", "--p", "2", "--depth", "3"], capsys
    )
    assert code == 2


def _count_calls(monkeypatch, module: str, name: str) -> list:
    """Record each call of subgroup_atlas.<module>.<name>, wrapped at every
    package attribute that binds it."""
    import importlib
    import sys

    original = getattr(importlib.import_module(f"subgroup_atlas.{module}"), name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "subgroup_atlas" or modname.startswith("subgroup_atlas."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.mark.parametrize("output", ["json", "dot"])
@pytest.mark.parametrize(
    "tower",
    [["--family", "dihedral2", "--depth", "4"], ["--family", "zp", "--p", "2", "--depth", "4"]],
    ids=["dihedral2(4)", "zp(2,4)"],
)
def test_analyze_is_one_pass(tower, output, monkeypatch, capsys):
    calls = {
        name: _count_calls(monkeypatch, module, name)
        for module, name in (
            ("audits", "virtually_zp_audit"),
            ("audits", "certify_solitary"),
            ("lattice", "build_lattice_tower"),
        )
    }
    code, _, _ = run_cli(["analyze", *tower, "--output", output], capsys)
    assert code == 0
    assert {name: len(c) for name, c in calls.items()} == {
        "virtually_zp_audit": 1,
        "certify_solitary": 1,
        "build_lattice_tower": 1,
    }


def test_analyze_verifies_each_connecting_map_once(monkeypatch, capsys):
    from subgroup_atlas.groups import Homomorphism

    calls = []
    original = Homomorphism._verify

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Homomorphism, "_verify", counted)
    code, _, _ = run_cli(["analyze", "--family", "zp", "--p", "2", "--depth", "11"], capsys)
    assert code == 0
    assert len(calls) == 10  # the ten connecting maps of zp(2, 11)


def test_depth_one_analysis_fails_before_building_the_lattice(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "lattice", "build_lattice_tower")
    code, _, err = run_cli(["analyze", "--family", "zp", "--p", "2", "--depth", "1"], capsys)
    assert code == 1
    assert "depth >= 2" in err
    assert calls == []


def test_classify_pirim_audits_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "audits", "pirim_irreducibility_audit")
    code, _, _ = run_cli(["classify", "--family", "pirim", "--depth", "2"], capsys)
    assert code == 0
    assert len(calls) == 1


C2_LITERAL = {"version": 1, "kind": "cyclic", "n": 2}


@pytest.mark.parametrize(
    "literal,pointer",
    [
        ({"kind": "table", "mult": [[0, 1], [1, 0.5]]}, "/mult/1"),
        ({"kind": "table", "mult": [[0, 1], [1, "0"]]}, "/mult/1"),
        ({"kind": "table", "mult": [[0, True], [True, 0]]}, "/mult/0"),
        ({"kind": "table", "mult": [[0, 1], [1]]}, "/mult/1"),
        ({"kind": "table", "mult": [[0, 1], [1, 2]]}, "/mult/1"),
        ({"kind": "table", "mult": [[0, 1], [1, 0]], "labels": ["e"]}, "/labels"),
        ({"kind": "matrix", "modulus": 3, "generators": [[[1, 1], [0]]]}, "/generators/0"),
        ({"kind": "matrix", "modulus": 3, "generators": [[[1, 1], [0, 1]], 5]},
         "/generators/1"),
        ({"kind": "permutation", "degree": 2, "generators": [5]}, "/generators/0"),
        ({"kind": "permutation", "degree": 2, "generators": [[True, False]]},
         "/generators/0"),
    ],
    ids=["float-entry", "string-entry", "bool-entry", "ragged-mult", "entry-out-of-range",
         "short-labels", "ragged-matrix", "matrix-not-a-list", "permutation-not-a-list",
         "bool-permutation"],
)
def test_malformed_group_literal_exits_one(literal, pointer, capsys):
    bad = json.dumps({"version": 1, **literal})
    code, _, err = run_cli(["goursat", "--g1", bad, "--g2", json.dumps(C2_LITERAL)], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert f"at: {pointer}\n" in err
    assert "Traceback" not in err


def test_singular_matrix_literal_exits_one(capsys):
    singular = {"version": 1, "kind": "matrix", "modulus": 4, "generators": [[[2, 0], [0, 1]]]}
    code, _, err = run_cli(
        ["goursat", "--g1", json.dumps(singular), "--g2", json.dumps(C2_LITERAL)], capsys
    )
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


# past the interpreter's 4,300-digit limit, so json.loads raises a plain ValueError
HUGE_INT = "9" * 5000


@pytest.mark.parametrize("where", ["spec-file", "g1-literal"])
def test_json_integer_past_digit_limit_is_malformed_json(where, tmp_path, capsys):
    if where == "spec-file":
        spec = tmp_path / "spec.json"
        spec.write_text(f'{{"family": "zp", "p": 2, "depth": {HUGE_INT}}}')
        argv = ["lattice", "--spec-file", str(spec)]
    else:
        literal = f'{{"version": 1, "kind": "cyclic", "n": {HUGE_INT}}}'
        argv = ["goursat", "--g1", literal, "--g2", json.dumps(C2_LITERAL)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: malformed JSON: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


def _path_argv(case: str, tmp_path: Path) -> list[str]:
    """The argv of a path case of test_unusable_path_exits_one; each file it
    names holds bytes that are not UTF-8."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"family": "zp\xff", "p": 2}')
    c2 = json.dumps(C2_LITERAL)
    return {
        "out-is-a-directory": ["lattice", "--family", "zp", "--p", "2", "--depth", "3",
                               "--out", str(tmp_path)],
        "spec-file-is-a-directory": ["lattice", "--spec-file", str(tmp_path)],
        "g1-is-a-directory": ["goursat", "--g1", str(tmp_path), "--g2", c2],
        "spec-file-not-utf8": ["lattice", "--spec-file", str(bad)],
        "g1-file-not-utf8": ["goursat", "--g1", str(bad), "--g2", c2],
    }[case]


@pytest.mark.parametrize("case", [
    "out-is-a-directory", "spec-file-is-a-directory", "g1-is-a-directory",
    "spec-file-not-utf8", "g1-file-not-utf8",
])
def test_unusable_path_exits_one(case, tmp_path, capsys):
    code, out, err = run_cli(_path_argv(case, tmp_path), capsys)
    assert code == 1 and out == ""
    if case.endswith("not-utf8"):
        assert err.startswith("error: malformed JSON: 'utf-8' codec can't decode byte 0xff")
    else:
        assert err.startswith("error: [Errno 21] Is a directory: ")
    assert err.count("\n") == 1 and "Traceback" not in err


ONE_ARGV_PER_COMMAND = [
    ["analyze", "--family", "zp", "--p", "3", "--depth", "4"],
    ["classify", "--family", "dihedral2", "--depth", "3", "--output", "table"],
    ["lattice", "--family", "zpn", "--p", "2", "--n", "2", "--depth", "2"],
    ["audit", "--name", "bn_recurrence", "--n", "40"],
    ["goursat", "--g1", json.dumps(C2_LITERAL), "--g2", json.dumps(C2_LITERAL)],
]


def test_no_command_imports_numpy_ma_argparse_or_locale():
    # np.unique imports numpy.ma on its first call: about 15 ms a process;
    # argparse and the locale module gettext pulls in cost about 8 ms a call
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        f"import contextlib, io, sys; sys.path.insert(0, {src!r})\n"
        "from subgroup_atlas.cli import main\n"
        f"for argv in {ONE_ARGV_PER_COMMAND!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code, *(m in sys.modules for m in ('numpy.ma', 'argparse', 'locale')))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.splitlines() == [
        f"{argv[0]} 0 False False False" for argv in ONE_ARGV_PER_COMMAND
    ]


def test_package_source_does_not_import_argparse():
    package = Path(cli_mod.__file__).parent
    imported = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    assert "argparse" not in imported


# -- the command-line grammar --------------------------------------------------------

def _reference_parser():
    """The argparse grammar the option table replaced, kept as the oracle, and
    its parser of each command."""

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise SpecError(f"usage error: {message}")

    def add_tower_args(p, outputs):
        p.add_argument("--family")
        p.add_argument("--spec-file")
        p.add_argument("--p", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--depth", type=int)
        p.add_argument("--max-rank", type=int)
        p.add_argument("--output", choices=outputs, default="json")
        p.add_argument("--out")
        p.add_argument("--parallel", action="store_true")
        return p

    parser = _Parser(prog="subgroup-atlas")
    sub = parser.add_subparsers(dest="command", required=True)
    # classify and audit render results as JSON or a table only, like goursat
    commands = {cmd: add_tower_args(sub.add_parser(cmd), outputs) for cmd, outputs in (
        ("analyze", ("json", "table", "dot")), ("classify", ("json", "table")),
        ("lattice", ("json", "table", "dot")))}
    p = commands["audit"] = add_tower_args(sub.add_parser("audit"), ("json", "table"))
    p.add_argument("--name")
    p.add_argument("--audit-name")
    p.add_argument("--all", action="store_true")
    p.add_argument("--g1")
    p.add_argument("--g2")
    p = commands["goursat"] = sub.add_parser("goursat")
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--output", choices=("json", "table"), default="json")
    p.add_argument("--out")
    return parser, commands


REFERENCE, REFERENCE_COMMANDS = _reference_parser()
# each long option of a command with its argparse action
REFERENCE_OPTIONS = {
    cmd: {name: action for name, action in p._option_string_actions.items()
          if name.startswith("--") and name != "--help"}
    for cmd, p in REFERENCE_COMMANDS.items()
}
EVERY_OPTION = sorted({name for options in REFERENCE_OPTIONS.values() for name in options})
VALUES = ["zp", "dihedral2", "3", "0", "-1", "-7", "+5", " 7 ", "1_000", "\u0663", "-\u0663",
          "-1\n", str(2**70), str(-2**70), "9" * 5000, "x", "1.5", "-1.5", "-.5", "", "json",
          "table", "dot", "xml", "JSON", "-", "g.json", "a b", "a=b"]
UNKNOWN = ["--bogus", "-x", "--", "---", "-hh", "-hx", "-1x", "--=x", "-=1", "-h=", "--help=x",
           "--no-such=1", "foo", "-h", "--help", "--he", "--h"]
FIRST = [*COMMANDS, "", "foo", "ana", "-1", "-h", "--help", "--he", "--h", "--x", "--",
         "--help=x", "-hh"]
ANY_VALUE = (st.sampled_from(VALUES) | st.integers(-10**30, 10**30).map(str)
             | st.text(alphabet="ab-=.01 ", max_size=5))


def _option_tokens(name: str, action, noise: bool):
    """An option spelled in full or by a prefix, with a value of its kind as
    the next token or attached by "=".  With noise, now and then a value
    option has any value or none, and a flag has one."""
    spelled = st.one_of(st.just(name), st.just(name),
                        st.integers(3, len(name)).map(lambda k: name[:k]))
    if action.nargs == 0:
        attached = st.sampled_from(["", "", "", "", "", "=1"] if noise else [""])
        return st.tuples(spelled, attached).map(lambda t: ["".join(t)])
    if action.type is int:
        value = st.integers(-10**20, 10**20).map(str)
    elif action.choices:
        value = st.sampled_from(action.choices)
    else:
        value = st.sampled_from(["zp", "wilson", "-1", "-.5", "", "x.json", "{}", "a=b"])
    forms = ["next", "="]
    if noise:  # now and then any value, or none
        value = st.one_of(*[value] * 5, ANY_VALUE)
        forms = forms * 3 + ["none"]
    return st.tuples(spelled, value, st.sampled_from(forms)).map(
        lambda t: {"next": [t[0], t[1]], "=": [f"{t[0]}={t[1]}"], "none": [t[0]]}[t[2]])


def _argv_of(first: str, noise: bool):
    """argvs starting with `first` and options of the command it names; with
    noise, now and then options of other commands and one stray token."""
    own = REFERENCE_OPTIONS.get(first, {})
    every = {name: action for options in REFERENCE_OPTIONS.values()
             for name, action in options.items()}
    names = sorted(own) * 6 + EVERY_OPTION if noise else sorted(own)
    option = st.one_of(*(_option_tokens(name, own.get(name, every[name]), noise)
                         for name in names))
    stray = st.tuples(st.integers(0, 12), st.sampled_from(UNKNOWN + VALUES))
    strays = st.one_of(*[st.just([])] * 3, st.lists(stray, min_size=1, max_size=1))
    return st.builds(_argv, st.just(first), st.lists(option, max_size=5),
                     strays if noise else st.just([]))


def _argv(first, options, strays):
    argv = [first, *(token for option in options for token in option)]
    for position, token in strays:
        argv.insert(min(position, len(argv)), token)
    return argv


def _no_spaced_dash(argv):
    # A token that starts with "-" and holds a space is a value to argparse,
    # which reads only a dash without a space as an option; the table parser
    # rejects every such value, so these tokens are left out of the comparison.
    return not any(token.startswith("-") and " " in token for token in argv)


ARGV = st.one_of(
    st.just([]), *(_argv_of(first, noise=True) for first in [*COMMANDS] * 6 + FIRST),
).filter(_no_spaced_dash)
WELL_FORMED_ARGV = st.one_of(*(_argv_of(command, noise=False) for command in COMMANDS))


def _accepted(parse, argv):
    """The options `parse` reads from argv, or None for a usage error or a
    help request (argparse prints help and exits).  argparse reads a value
    "--" attached by "=" as an empty list, which is no value of an int or
    choice option: that counts as a rejection, and for a str option as the
    value "--"."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ns = parse(argv)
    except (SpecError, SystemExit):
        return None
    if getattr(ns, "fn", None) is cli_mod._print_help:
        return None
    values = {key: value for key, value in vars(ns).items() if key != "fn"}
    for key, value in values.items():
        if isinstance(value, list):
            action = REFERENCE_OPTIONS[ns.command]["--" + key.replace("_", "-")]
            if action.type is int or action.choices:
                return None
            values[key] = "--"
    return values


@settings(max_examples=800, deadline=None)
@given(ARGV)
@example(["analyze", "--depth", "0", "--depth", "3", "--depth=--"])
@example(["analyze", "--family=--"])
@example(["audit", "--output=--"])
def test_parser_agrees_with_the_argparse_grammar(argv):
    assert _accepted(parse_args, argv) == _accepted(REFERENCE.parse_args, argv)


@settings(max_examples=300, deadline=None)
@given(WELL_FORMED_ARGV)
def test_parser_reads_well_formed_argvs_as_argparse_does(argv):
    assert _accepted(parse_args, argv) == _accepted(REFERENCE.parse_args, argv)


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "zp", "--p", "3", "--depth", "4"],
    ["analyze", "--family=zp", "--p=3", "--depth=4"],
    ["analyze", "--fam", "zp", "--p", "3", "--dep=4"],
    ["analyze", "--p", "2", "--family", "zp", "--p", "3", "--depth", "4"],
], ids=["separate", "equals", "abbreviated", "last-wins"])
def test_option_forms_read_the_same(argv):
    args = parse_args(argv)
    assert (args.command, args.family, args.p, args.depth) == ("analyze", "zp", 3, 4)
    assert (args.n, args.output, args.parallel) == (None, "json", False)


def test_exact_name_wins_over_a_prefix():
    assert parse_args(["analyze", "--p", "5"]).p == 5
    args = parse_args(["analyze", "--pa"])
    assert args.parallel is True and args.p is None


def test_negative_int_value():
    assert parse_args(["audit", "--name", "x", "--depth", "-1"]).depth == -1


@pytest.mark.parametrize("argv,message", [
    ([], "expected a command"),
    (["nonsense"], "expected a command"),
    (["analyze", "--bogus"], "unrecognized argument: --bogus"),
    (["analyze", "--family"], "argument --family: expected one argument"),
    (["analyze", "--family", "-x"], "argument --family: expected one argument"),
    (["analyze", "--depth", "x"], "argument --depth: invalid int value: 'x'"),
    (["analyze", "--output", "xml"], "argument --output: invalid choice: 'xml'"),
    (["goursat", "--g1", "{}"], "the following arguments are required: --g2"),
    (["analyze", "--parallel=1"], "argument --parallel: ignored explicit argument '1'"),
    (["analyze", "--o", "json"], "ambiguous option: --o could match --output, --out"),
], ids=["empty", "unknown-command", "unknown-option", "missing-value", "dash-value",
        "bad-int", "bad-choice", "missing-required", "flag-value", "ambiguous"])
def test_usage_errors_exit_one_with_the_usage_line(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    first, usage = err.splitlines()
    assert first.startswith(f"error: usage error: {message}")
    assert usage == "usage: subgroup-atlas [-h] {analyze,classify,lattice,audit,goursat} ..."


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"]])
def test_top_level_help_lists_every_command(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert out.startswith("usage: subgroup-atlas [-h]")
    for command in COMMANDS:
        assert f"\n  {command} " in out


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_command_help_lists_every_option(command, flag, capsys):
    code, out, err = run_cli([command, "--out", "x.json", flag], capsys)
    assert code == 0 and err == ""
    assert out.startswith(f"usage: subgroup-atlas {command} ")
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  --")}
    assert listed == set(COMMANDS[command][2])


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["subgroup-atlas", "audit", "--name", "bn_recurrence"])
    code, out, _ = run_cli(None, capsys)
    assert code == 0
    assert json.loads(out)[0]["name"] == "bn_recurrence"
