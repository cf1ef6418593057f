"""CLI behavior: outputs, determinism, error handling, exit codes."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from subgroup_atlas.cli import main
from subgroup_atlas.towers import FAMILIES


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("bad", [7, -1])
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


def test_analyze_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call: about 15 ms a process
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        f"import contextlib, io, sys; sys.path.insert(0, {src!r})\n"
        "from subgroup_atlas.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['analyze', '--family', 'zp', '--p', '3', '--depth', '4'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout == "0 False\n"
