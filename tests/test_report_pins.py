"""Byte pins of the reports: sha256 prefixes of the stdout of `analyze` for
every built-in tower and for the product and custom-literal specs in
data/cli_mix_specs.json, of `audit --all`, and of `goursat` on S3 x C4 (the
cli-mix literals) and on D4 x D4.  A change that only moves
code must leave every report byte where it was."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from subgroup_atlas.cli import main

SPECS = json.loads((Path(__file__).parent / "data" / "cli_mix_specs.json").read_text())

BUILTIN_ARGVS = {
    "zp(2,4)": ["--family", "zp", "--p", "2", "--depth", "4"],
    "zp(3,4)": ["--family", "zp", "--p", "3", "--depth", "4"],
    "zp(5,4)": ["--family", "zp", "--p", "5", "--depth", "4"],
    "zpn(2,2,4)": ["--family", "zpn", "--p", "2", "--n", "2", "--depth", "4"],
    "zpn(3,2,3)": ["--family", "zpn", "--p", "3", "--n", "2", "--depth", "3"],
    "heisenberg(3,2)": ["--family", "heisenberg", "--p", "3", "--depth", "2"],
    "dihedral2(4)": ["--family", "dihedral2", "--depth", "4"],
    "wilson(3)": ["--family", "wilson", "--depth", "3"],
    "pirim(2)": ["--family", "pirim", "--depth", "2"],
}

# recorded before tower facts were derived from the levels
REPORT_DIGESTS = {
    "zp(2,4)": "5f1fe9171beecbf5",
    "zp(3,4)": "e8eb38f2a7d9a140",
    "zp(5,4)": "1b403daa6758fcc1",
    "zpn(2,2,4)": "fb5c777f9235b1e5",
    "zpn(3,2,3)": "38abd6378d65e616",
    "heisenberg(3,2)": "2b8015f29de0bcd9",
    "dihedral2(4)": "5f36c6b2293041e7",
    "wilson(3)": "9dabed673c726236",
    "pirim(2)": "d146e91be429e7a6",
    "product-2x3": "3f1b4bedb3d49942",
    "cyclic-literals": "11297b6fa4691ee7",
    "heis3": "60265cadd23b3380",
    "sign-s4": "15f5b96922784e96",
    "a5": "eed15f900ae4df65",
    "audit --all": "8c057e399c819899",
    # recorded before Goursat quintuples were found on index arrays
    "goursat S3xC4": "054d0fc0bc4e7844",
    "goursat D4xD4": "c158b48c2b7dffda",
}

S3_LITERAL = {"version": 1, "kind": "permutation", "degree": 3,
              "generators": [[1, 2, 0], [1, 0, 2]]}
C4_LITERAL = {"version": 1, "kind": "cyclic", "n": 4}
D4_LITERAL = {"version": 1, "kind": "permutation", "degree": 4,
              "generators": [[1, 2, 3, 0], [3, 2, 1, 0]]}
GOURSAT_PAIRS = {"goursat S3xC4": (S3_LITERAL, C4_LITERAL),
                 "goursat D4xD4": (D4_LITERAL, D4_LITERAL)}


def _stdout_digest(argv, capsys) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", list(BUILTIN_ARGVS))
def test_builtin_report_bytes(name, capsys):
    argv = ["analyze", *BUILTIN_ARGVS[name], "--output", "json"]
    assert _stdout_digest(argv, capsys) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", list(SPECS))
def test_spec_file_report_bytes(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SPECS[name]))
    argv = ["analyze", "--spec-file", str(path), "--output", "json"]
    assert _stdout_digest(argv, capsys) == REPORT_DIGESTS[name]


def test_audit_all_bytes(capsys):
    assert _stdout_digest(["audit", "--all"], capsys) == REPORT_DIGESTS["audit --all"]


@pytest.mark.parametrize("name", list(GOURSAT_PAIRS))
def test_goursat_bytes(name, capsys):
    g1, g2 = GOURSAT_PAIRS[name]
    argv = ["goursat", "--g1", json.dumps(g1), "--g2", json.dumps(g2)]
    assert _stdout_digest(argv, capsys) == REPORT_DIGESTS[name]
