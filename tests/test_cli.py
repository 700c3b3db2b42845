from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import hypertoric

from hypertoric.cli import run
from hypertoric.examples_data import example_document, example_names


@pytest.fixture()
def write_examples(tmp_path):
    paths = {}
    for name in example_names():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(example_document(name)), encoding="utf-8")
        paths[name] = str(p)
    return paths


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_examples_list(capsys):
    code, out = invoke(capsys, ["examples", "--list"])
    assert code == 0
    env = json.loads(out)
    assert env["payload"]["examples"] == [
        "cotangent-p1",
        "cotangent-p12",
        "hirzebruch",
        "hirzebruch-weighted",
    ]


def test_gale_weighted_line(capsys, write_examples):
    code, out = invoke(capsys, ["gale", "--input", write_examples["cotangent-p12"]])
    assert code == 0
    env = json.loads(out)
    assert env["payload"]["matrix"] == [[1, 2]]
    assert env["payload"]["dual_group"] == {"rank": 1, "torsion": []}


def test_circuits_hirzebruch_cli(capsys, write_examples):
    code, out = invoke(capsys, ["circuits", "--input", write_examples["hirzebruch"]])
    assert code == 0
    env = json.loads(out)
    supports = [tuple(c["support"]) for c in env["payload"]["circuits"]]
    assert sorted(supports) == [(1, 2, 4), (1, 3, 4), (2, 3)]


def test_output_is_deterministic(capsys, write_examples):
    argv = ["quantum-divisor", "--input", write_examples["cotangent-p12"],
            "--divisor", "1", "--with", "2", "--max-q-order", "3"]
    code1, out1 = invoke(capsys, argv)
    code2, out2 = invoke(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "wall_time" not in out1


def test_round_trip_canonical(capsys, write_examples, tmp_path):
    # parse -> serialize -> parse gives the same canonical form
    from hypertoric.cli import canonical_document, load_document

    for name, path in write_examples.items():
        doc = load_document(path)
        p2 = tmp_path / "again.json"
        p2.write_text(json.dumps(doc), encoding="utf-8")
        doc2 = load_document(str(p2))
        assert doc == doc2


def test_unknown_field_rejected(capsys, tmp_path):
    p = tmp_path / "bad.json"
    doc = example_document("cotangent-p1")
    doc["extra"] = 1
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = invoke(capsys, ["gale", "--input", str(p)])
    assert code == 2
    err = json.loads(out)
    assert "extra" in err["error"]["message"]


def test_nongeneric_theta_exit_code(capsys, tmp_path):
    p = tmp_path / "ng.json"
    doc = example_document("cotangent-p1")
    doc["theta"] = [0]
    del doc["psi"]
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = invoke(capsys, ["gale", "--input", str(p)])
    assert code == 2
    err = json.loads(out)
    assert err["error"]["path"] == "theta"


def test_missing_file(capsys):
    code, out = invoke(capsys, ["gale", "--input", "/nonexistent.json"])
    assert code == 2


def test_repository_schema_matches_code():
    from hypertoric.cli import ARRANGEMENT_SCHEMA
    from pathlib import Path

    published = json.loads(
        (Path(__file__).resolve().parent.parent / "schema" / "arrangement.schema.json")
        .read_text(encoding="utf-8")
    )
    assert published == ARRANGEMENT_SCHEMA


def test_repository_example_files_match_catalog():
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "arrangements"
    for name in example_names():
        doc = json.loads((root / f"{name}.json").read_text(encoding="utf-8"))
        assert doc == example_document(name)


def test_torsion_column_exit_code(capsys, tmp_path):
    p = tmp_path / "tor.json"
    doc = {
        "schema_version": "hypertoric-arrangement/1",
        "rank": 1,
        "torsion": [2],
        "beta": [[0, 1], [1, 0]],  # first column is pure torsion
        "theta": [1],
    }
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = invoke(capsys, ["gale", "--input", str(p)])
    assert code == 2
    assert "torsion" in json.loads(out)["error"]["message"]


def test_svg_planar(capsys, write_examples, tmp_path):
    target = tmp_path / "arr.svg"
    code, out = invoke(
        capsys,
        ["core", "--input", write_examples["hirzebruch"], "--svg", str(target)],
    )
    assert code == 0
    svg = target.read_text(encoding="utf-8")
    assert svg.count("<line") == 4
    assert svg.count("<polygon") == 2
    # determinism of the rendering
    code2, _ = invoke(
        capsys,
        ["core", "--input", write_examples["hirzebruch"], "--svg", str(target)],
    )
    assert target.read_text(encoding="utf-8") == svg


def test_svg_lines_only_when_nothing_bounded(capsys, tmp_path):
    doc = {
        "schema_version": "hypertoric-arrangement/1",
        "rank": 2,
        "torsion": [],
        "beta": [[1, 0], [0, 1]],
        "theta": [],
        "psi": [0, 0],
    }
    p = tmp_path / "free.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    target = tmp_path / "free.svg"
    code, _ = invoke(capsys, ["core", "--input", str(p), "--svg", str(target)])
    assert code == 0
    svg = target.read_text(encoding="utf-8")
    assert svg.count("<line") == 2
    assert svg.count("<polygon") == 0


def test_qsr_without_circuits(capsys, tmp_path):
    doc = {
        "schema_version": "hypertoric-arrangement/1",
        "rank": 2,
        "torsion": [],
        "beta": [[1, 0], [0, 1]],
        "theta": [],
    }
    p = tmp_path / "free.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = invoke(capsys, ["qsr", "--input", str(p)])
    assert code == 0
    env = json.loads(out)
    assert env["payload"]["relation_count"] == 2
    assert env["payload"]["minimal_curve_degree"] is None


def test_svg_rejects_other_dimensions(capsys, write_examples, tmp_path):
    code, out = invoke(
        capsys,
        [
            "core",
            "--input",
            write_examples["cotangent-p1"],
            "--svg",
            str(tmp_path / "x.svg"),
        ],
    )
    assert code == 2


def test_text_format(capsys, write_examples):
    code, out = invoke(
        capsys, ["box", "--input", write_examples["cotangent-p12"], "--format", "text"]
    )
    assert code == 0
    assert out.startswith("# box")
    assert "age" in out


def test_steinberg_paper_flag(capsys, write_examples):
    code, out = invoke(
        capsys,
        [
            "steinberg",
            "--input",
            write_examples["cotangent-p12"],
            "--convention",
            "paper",
        ],
    )
    assert code == 0
    env = json.loads(out)
    assert env["payload"]["forward_injective"] is True
    assert env["payload"]["inverse_of_forward_is_identity"] is False
    # the paper convention is pinned to weights (1, 2)
    code2, out2 = invoke(
        capsys,
        [
            "steinberg",
            "--input",
            write_examples["cotangent-p1"],
            "--convention",
            "paper",
        ],
    )
    assert code2 == 2


def test_qsr_cli(capsys, write_examples):
    code, out = invoke(
        capsys,
        ["qsr", "--input", write_examples["cotangent-p1"], "--max-q-order", "4"],
    )
    assert code == 0
    env = json.loads(out)
    assert env["payload"]["relation_count"] == 2
    assert all(
        c["eliminated_relation_vanishes"]
        for c in env["payload"]["circuit_relation_checks"]
    )


def test_quantum_all_conventions(capsys, write_examples):
    code, out = invoke(
        capsys,
        [
            "quantum-divisor",
            "--input",
            write_examples["cotangent-p12"],
            "--divisor",
            "1",
            "--with",
            "2",
            "--max-q-order",
            "4",
            "--sign-convention",
            "all",
        ],
    )
    assert code == 0
    env = json.loads(out)
    report = env["payload"]["differential_sign_report"]
    zero_residue = [e for e in report if e["residue"] == 0][0]
    assert zero_residue["first_divergence_from_calibrated"]["eq-5.2-literal"] == 4


SYMPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import hypertoric.cli
loaded = {"import": "sympy" in sys.modules}
doc = sys.argv[1]
commands = (
    ["gale"], ["circuits"], ["box"], ["core"], ["fan"], ["cohomology"],
    ["quantum-divisor", "--divisor", "1", "--with", "2"], ["qsr"],
)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = hypertoric.cli.run([argv[0], "--input", doc, *argv[1:]])
    loaded[argv[0]] = (code, "sympy" in sys.modules)
print(json.dumps(loaded))
"""


def test_commands_do_not_import_sympy():
    """sympy is loaded only to print localization tables and for the paper
    convention: the CLI import and the other commands never load it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypertoric.__file__)))
    doc = os.path.join(os.path.dirname(__file__), "..", "arrangements", "hirzebruch.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", SYMPY_FREE_SCRIPT, doc],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    loaded = json.loads(out)
    assert loaded.pop("import") is False
    assert loaded == {
        cmd: [0, False]
        for cmd in ("gale", "circuits", "box", "core", "fan", "cohomology", "quantum-divisor", "qsr")
    }
