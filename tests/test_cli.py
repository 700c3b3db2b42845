from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import hypertoric

from hypertoric.arrangement import StackyArrangement
from hypertoric.cli import build_arrangement, run
from hypertoric.crring import CohomologyContext
from hypertoric.multifan import circuits
from hypertoric.examples_data import example_document, example_names
from hypertoric.quantum import QuantumContext


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


def test_examples_show_unknown_prints_the_message_unquoted(capsys):
    code, out = invoke(capsys, ["examples", "--show", "nope"])
    assert code == 2
    known = ", ".join(example_names())
    assert json.loads(out)["error"] == {"message": f"unknown example 'nope'; known: {known}", "path": "--show"}


@pytest.mark.parametrize(
    "argv, path",
    [
        (["--show", "hirzebruch", "--write-dir", "DIR"], "--write-dir"),
        (["--write-dir", "DIR", "--show", "hirzebruch"], "--show"),
        (["--list", "--show", "hirzebruch"], "--show"),
        (["--show", "hirzebruch", "--list"], "--list"),
        (["--write-dir", "DIR", "--list"], "--list"),
        (["--list", "--write-dir", "DIR"], "--write-dir"),
    ],
)
def test_examples_options_exclude_each_other(capsys, tmp_path, argv, path):
    """``examples`` acts on one of --list, --show and --write-dir: a second
    is an input fault at the later flag, and nothing is written."""
    target = tmp_path / "out"
    argv = [str(target) if a == "DIR" else a for a in argv]
    code, out = invoke(capsys, ["examples", *argv])
    assert code == 2
    first = next(a for a in argv if a.startswith("--") and a != path)
    assert json.loads(out)["error"] == {
        "message": f"argument {path}: not allowed with argument {first}",
        "path": path,
    }
    assert not target.exists()
    assert invoke(capsys, ["examples", "--list", "--list"])[0] == 0


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


def test_theta_without_integral_lift_names_theta_and_dual_group(capsys, tmp_path):
    """Over Z x Z/2 the free part of beta_dual(psi) is even, so theta = (1, 1)
    has no integral lift: bad input at path theta, not a bare solver error."""
    p = tmp_path / "nolift.json"
    doc = {
        "schema_version": example_document("cotangent-p1")["schema_version"],
        "rank": 1,
        "torsion": [2],
        "beta": [[-2, 2], [-2, 1]],
        "theta": [1, 1],
    }
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = invoke(capsys, ["gale", "--input", str(p)])
    assert code == 2
    assert json.loads(out)["error"] == {
        "message": "theta=(1, 1) has no integral lift: -theta is not in the image "
        "of beta_dual in the dual group Z^1 x Z/2",
        "path": "theta",
    }


def test_psi_errors_come_before_genericity(capsys, tmp_path):
    """A psi of the wrong length is reported before a theta on a wall."""
    p = tmp_path / "ng.json"
    doc = example_document("cotangent-p1")
    doc["theta"] = [0]
    doc["psi"] = [0, 0, 0]
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = invoke(capsys, ["gale", "--input", str(p)])
    assert code == 2
    err = json.loads(out)
    assert "psi length" in err["error"]["message"]


def test_missing_file(capsys):
    code, out = invoke(capsys, ["gale", "--input", "/nonexistent.json"])
    assert code == 2


def test_repository_schema_matches_code(capsys, tmp_path):
    """The package ships one schema file, which the CLI loads as written:
    the keywords keep jsonschema's order (not sorted), so with both a
    missing and an unknown property the missing one is reported first."""
    from hypertoric.cli import ARRANGEMENT_SCHEMA
    from hypertoric.examples_data import SCHEMA_VERSION
    from pathlib import Path

    text = (Path(hypertoric.__file__).parent / "arrangement.schema.json").read_text(encoding="utf-8")
    assert text == json.dumps(ARRANGEMENT_SCHEMA, indent=2) + "\n"
    assert list(ARRANGEMENT_SCHEMA) == ["type", "properties", "required", "additionalProperties"]
    assert ARRANGEMENT_SCHEMA["properties"]["schema_version"]["const"] == SCHEMA_VERSION
    p = tmp_path / "extra.json"
    p.write_text(json.dumps({"rank": 1, "beta": [[1]], "theta": [], "x": 1}), encoding="utf-8")
    code, out = invoke(capsys, ["gale", "--input", str(p)])
    assert code == 2
    assert json.loads(out)["error"] == {"message": "'schema_version' is a required property", "path": "(document)"}


def test_repository_example_files_match_catalog():
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "arrangements"
    for name in example_names():
        doc = json.loads((root / f"{name}.json").read_text(encoding="utf-8"))
        assert doc == example_document(name)


def test_unreadable_input_files_are_input_errors(capsys, tmp_path):
    """A directory or a file that is not UTF-8 is reported at --input with
    exit 2; the missing-file and invalid-JSON messages are unchanged."""
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    cases = {
        str(tmp_path): "cannot read input file: [Errno 21] Is a directory",
        str(utf16): "cannot read input file: 'utf-8' codec can't decode byte 0xff",
        str(tmp_path / "missing.json"): "input file not found: ",
        str(broken): "invalid JSON: ",
    }
    for path, message in cases.items():
        code, out = invoke(capsys, ["gale", "--input", path])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["path"] == "--input"
        assert error["message"].startswith(message)


@pytest.mark.parametrize(
    "rank, torsion, beta, column",
    [(1, [], [[1, 5], [-1]], 1), (1, [], [[1], [-1, 7]], 2), (1, [2], [[1, 1], [-1]], 2)],
)
def test_ragged_beta_is_an_input_error(capsys, tmp_path, rank, torsion, beta, column):
    """A beta column whose length is not rank plus the torsion count is bad
    input; zip would have dropped its extra entries, or a short column's
    missing ones, without a word."""
    p = tmp_path / "ragged.json"
    doc = {"schema_version": "hypertoric-arrangement/1", "rank": rank, "torsion": torsion, "beta": beta, "theta": [1]}
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = invoke(capsys, ["gale", "--input", str(p)])
    assert code == 2
    assert json.loads(out)["error"]["message"].startswith(f"beta column {column} has length")


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
    assert json.loads(out)["error"]["message"] == "column 1 is torsion"


def test_rank_zero_column_is_torsion(capsys, tmp_path):
    """In rank 0 the one defining vector is zero: the torsion-column error,
    counting from 1, and not a matrix shape error."""
    p = tmp_path / "rank0.json"
    doc = {"schema_version": "hypertoric-arrangement/1", "rank": 0, "beta": [[]], "theta": [0]}
    p.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("gale", "qsr", "fan", "cohomology"):
        code, out = invoke(capsys, [command, "--input", str(p)])
        assert code == 2
        assert json.loads(out)["error"]["message"] == "column 1 is torsion"


@pytest.mark.parametrize("rank, m", [(7, 8), (1, 17)])
def test_core_past_the_guard_exits_before_the_build(capsys, tmp_path, monkeypatch, rank, m):
    """core checks the rank and the number of beta columns against the
    chamber guard before the arrangement (and its basis table) is built."""

    def unbuilt(*args):
        raise AssertionError("core built the arrangement past the guard")

    monkeypatch.setattr(StackyArrangement, "build", unbuilt)
    beta = [[int(i == j) for i in range(rank)] for j in range(m - 1)] + [[-1] * rank]
    doc = {
        "schema_version": "hypertoric-arrangement/1",
        "rank": rank,
        "beta": beta,
        "theta": [1] * (m - rank),
    }
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = invoke(capsys, ["core", "--input", str(p)])
    assert code == 2
    message = "chamber enumeration is guarded to d <= 6, m <= 16"
    assert json.loads(out) == {"error": {"message": message, "path": "(input data)"}}


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


# sha256 of the qsr stdout, unchanged since qsr read the Chen-Ruan context
QSR_DIGESTS = {
    "cotangent-p12": "f2b12496380b01dae74d2ea29296b561f1997b0fe31b51082ffcf56ef712ed04",
    "hirzebruch": "748f3ffc6c4ab05831edf6894dbdc915f40a44b1a10a7e70e2b86ec1666eaf55",
}


def test_qsr_reads_only_the_arrangement(capsys, write_examples, monkeypatch):
    """qsr builds no CohomologyContext and no QuantumContext, and prints the
    same bytes; a negative order is refused before the fan is built."""

    def unbuilt(*args):
        raise AssertionError("qsr built a Chen-Ruan context")

    monkeypatch.setattr(CohomologyContext, "__init__", unbuilt)
    monkeypatch.setattr(QuantumContext, "__init__", unbuilt)
    for name, digest in QSR_DIGESTS.items():
        code, out = invoke(capsys, ["qsr", "--input", write_examples[name]])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    monkeypatch.setattr("hypertoric.quantum.build_lawrence_fan", unbuilt)
    code, out = invoke(capsys, ["qsr", "--input", write_examples["cotangent-p1"], "--max-q-order", "-1"])
    assert code == 2


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


def test_unwritable_output_paths_are_input_errors(capsys, write_examples, tmp_path):
    """An --svg file or a --write-dir directory under a regular file cannot
    be written: the path is at fault, reported at its flag.  An empty
    --svg, --write-dir or --show is a value like any other, not an absent
    option: it names no file, directory or example."""
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    hirz = write_examples["hirzebruch"]
    no_file = "[Errno 2] No such file or directory: ''"
    for argv, flag, message in (
        (["core", "--input", hirz, "--svg", str(blocker / "x.svg")], "--svg", None),
        (["examples", "--write-dir", str(blocker / "out")], "--write-dir", None),
        (["core", "--input", hirz, "--svg", ""], "--svg", no_file),
        (["examples", "--write-dir", ""], "--write-dir", no_file),
        (["examples", "--show", ""], "--show", "unknown example ''; known: "),
    ):
        code, out = invoke(capsys, argv)
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert error["path"] == flag, argv
        assert message is None or error["message"].startswith(message), argv


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


@pytest.mark.parametrize(
    "divisor, with_, path",
    [("9", "2", "--divisor"), ("0", "2", "--divisor"), ("1", "9", "--with"), ("1", "0", "--with")],
)
def test_quantum_divisor_index_out_of_range_names_its_flag(
    capsys, monkeypatch, write_examples, divisor, with_, path
):
    """Each divisor index is checked against m before the quantum context is
    built, and a bad one is reported at its own flag."""

    def unbuilt(arr):
        raise AssertionError("QuantumContext built before the indices were checked")

    monkeypatch.setattr("hypertoric.quantum.QuantumContext", unbuilt)
    argv = ["quantum-divisor", "--input", write_examples["cotangent-p1"], "--divisor", divisor, "--with", with_]
    code, out = invoke(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"] == {"message": "divisor indices must be in 1..m", "path": path}


QUANTUM = ["quantum-divisor", "--divisor", "1", "--with", "2"]


@pytest.mark.parametrize(
    "beta, psi, theta, argv, message",
    [
        # T*P^2: the Lawrence fan has no nonfacial ray pair of positive degree
        ([[1, 0], [0, 1], [-1, -1]], [0, 0, 1], [-1], ["qsr"],
         "fan has no positive curve degrees"),
        # two slot pairs of one circuit give the sector pair two residues
        ([[-2, -1, 0], [-2, 1, 1], [-1, -2, -1], [0, 1, 0], [2, -1, 2], [2, -1, 0], [0, -2, -1]],
         [-2, 1, 0, 2, 3, 4, -4], [-6, -5, -14, 1], QUANTUM,
         "sector pair (1/5,4/5) has several residues [12, 48]"),
        ([[-1, 2], [1, 2], [0, -1], [-1, 2], [-1, 2], [-2, 2]],
         [-3, 0, -1, -1, -2, 4], [1, -14, 10, -1], QUANTUM,
         "divisor u2 cannot be eliminated into circuit (0, 3)"),
    ],
)
def test_quantum_program_faults_exit_1(capsys, tmp_path, beta, psi, theta, argv, message):
    """A valid generic input that the quantum layer cannot handle is a fault
    of the program: exit 1 with the message on stderr, not 2 (input data)."""
    doc = {
        "schema_version": "hypertoric-arrangement/1",
        "rank": len(beta[0]),
        "torsion": [],
        "beta": beta,
        "psi": psi,
        "theta": theta,
    }
    p = tmp_path / "fault.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code = run([argv[0], "--input", str(p), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"internal error: {message}\n"


def test_exact_algebra_error_after_the_build_is_internal(capsys, write_examples, monkeypatch):
    """Input-side exact-algebra errors are raised while the arrangement is
    built; one raised later is a program fault, exit 1."""
    import hypertoric.cli as cli
    from hypertoric.exactalg import ExactAlgError

    def broken(arr):
        raise ExactAlgError("dimension mismatch in matrix product")

    monkeypatch.setattr(cli, "payload_circuits", broken)
    code = run(["circuits", "--input", write_examples["hirzebruch"]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "internal error: dimension mismatch in matrix product\n"


def test_failed_location_in_qsr_is_internal(capsys, write_examples, monkeypatch):
    """The Lawrence fan has convex support and qsr pairs only its lattice
    points, so a point located outside it is a program fault: exit 1."""
    from hypertoric.lawrence import LawrenceFan, OutsideSupport

    def outside(fan, point):
        raise OutsideSupport("forced")

    monkeypatch.setattr(LawrenceFan, "locate", outside)
    code = run(["qsr", "--input", write_examples["cotangent-p12"]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "internal error: forced\n"


def test_localize_fault_in_quantum_divisor_is_internal(capsys, write_examples, monkeypatch):
    """The circuit models are the program's own, so a
    localization failure inside a command is a program fault: exit 1."""
    from hypertoric import quantum
    from hypertoric.localize import ZeroEuler

    def fail(*args):
        raise ZeroEuler("forced")

    monkeypatch.setattr(quantum, "integrate_base", fail)
    code = run(
        ["quantum-divisor", "--input", write_examples["cotangent-p12"], "--divisor", "1", "--with", "2"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "internal error: forced\n"


def test_integral_commands_build_no_fixed_point_table(monkeypatch):
    """steinberg under both conventions, quantum-divisor and qsr integrate
    without a fixed-point table, so they print the golden bytes while
    building the standard table raises.  Each exits 0 but the paper
    steinberg on hirzebruch-weighted, whose first circuit's weights are
    not (1, 2): it exits 2 at ``--convention``."""
    from test_golden_outputs import GOLDEN, QUANTUM, documents, outcome

    def built(model):
        raise AssertionError("a command built the standard table")

    monkeypatch.setattr("hypertoric.localize.standard_table", built)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    docs = documents()
    commands = (("steinberg", "--convention", "standard"), ("steinberg", "--convention", "paper"), QUANTUM, ("qsr",))
    for name in ("cotangent-p12", "hirzebruch-weighted"):
        for args in commands:
            expected = golden[f"{' '.join(args)} @ {name}"]
            assert expected["exit"] == (2 if (args[-1], name) == ("paper", "hirzebruch-weighted") else 0)
            assert outcome([args[0], "--input", str(docs[name]), *args[1:]]) == expected, (args, name)


def test_unreduced_class_in_a_product_is_internal(capsys, write_examples, monkeypatch):
    """The commands pass ``cr_multiply`` normal forms only, so an unreduced
    class reaching it is a program fault: exit 1, not a bad input."""
    import hypertoric.cli as cli
    from hypertoric.crring import CRClass, cr_multiply

    def broken(arr, sign):
        ctx = CohomologyContext(arr)
        bad = CRClass(ctx, ((ctx.trivial_box(), ctx.u(0) * ctx.u(1)),))
        return cr_multiply(bad, CRClass.untwisted(ctx, ctx.u(0)))

    monkeypatch.setattr(cli, "payload_cohomology", broken)
    code = run(["cohomology", "--input", write_examples["cotangent-p12"]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "internal error: sector polynomial contains a vanishing monomial\n"


def _call(capsys, argv):
    """Exit code, stdout and stderr of one ``run``; argparse exits itself."""
    try:
        code = run(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_debug_prints_the_traceback_of_an_internal_error(capsys, write_examples, monkeypatch):
    """--debug adds the traceback after the one-line report of an internal
    error; without it stderr is that line alone, and on success the flag
    changes nothing."""
    import hypertoric.cli as cli
    from hypertoric.exactalg import ExactAlgError

    argv = ["circuits", "--input", write_examples["hirzebruch"]]
    assert _call(capsys, [*argv, "--debug"]) == _call(capsys, argv)

    def broken(arr):
        raise ExactAlgError("dimension mismatch in matrix product")

    monkeypatch.setattr(cli, "payload_circuits", broken)
    line = "internal error: dimension mismatch in matrix product\n"
    assert _call(capsys, argv) == (1, "", line)
    code, out, err = _call(capsys, [*argv, "--debug"])
    assert (code, out) == (1, "")
    assert err.startswith(line + "Traceback (most recent call last):\n")
    assert "in broken" in err
    assert err.endswith("ExactAlgError: dimension mismatch in matrix product\n")


def test_one_parser_serves_every_run(capsys, write_examples, monkeypatch):
    """The parser is built on first use and then reused: twenty runs build
    one parser tree, the top parser and one per subcommand."""
    import argparse

    from hypertoric.cli import build_parser

    assert build_parser() is build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    for k in range(20):
        argv = ["gale", "--input", write_examples["cotangent-p12"]] if k % 2 else ["examples", "--list"]
        assert _call(capsys, argv)[0] == 0
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert built[0] is parser
    assert len(built) == 1 + len(sub.choices) == 12


def test_reused_parser_leaks_no_state(capsys, write_examples, tmp_path):
    """Each call in one process prints what the same call prints on a
    fresh parser: no option of an earlier call carries over."""
    from hypertoric.cli import build_parser

    p12, hirz = write_examples["cotangent-p12"], write_examples["hirzebruch-weighted"]
    svg = str(tmp_path / "core.svg")
    calls = [
        ["qsr", "--input", p12, "--max-q-order", "3"],
        ["qsr", "--input", p12],
        ["core", "--input", hirz, "--svg", svg],
        ["core", "--input", hirz],
        ["localize", "--input", p12, "--convention", "paper"],
        ["localize", "--input", p12],
        ["cohomology", "--input", p12, "--convention", "literal"],
        ["cohomology", "--input", p12],
        ["gale", "--input", p12, "--format", "text"],
        ["gale", "--input", p12],
        ["core"],
        ["gale", "--input", p12],
    ]
    reused = [_call(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_call(capsys, argv))
    assert [r[:2] for r in reused] == [f[:2] for f in fresh]
    assert [r[0] for r in reused] == [0] * 10 + [2, 0]
    assert json.loads(reused[1][1])["flags"]["max_q_order"] == 6
    assert "svg" not in json.loads(reused[3][1])["payload"]
    assert json.loads(reused[5][1])["flags"]["convention"] == "standard"
    assert json.loads(reused[7][1])["flags"]["convention"] == "paper"
    assert json.loads(reused[9][1])["flags"]["format"] == "json"
    assert "the following arguments are required: --input" in reused[10][2]


def test_flags_echo_the_options_that_are_set(capsys, write_examples, tmp_path):
    """Each command's envelope echoes its format and every option that is
    not required and is set: not --divisor or --with, not an absent --svg,
    and a --max-q-order of 0."""
    p12, hirz = write_examples["cotangent-p12"], write_examples["hirzebruch"]
    svg = str(tmp_path / "core.svg")
    runs = [
        (["gale", "--input", p12], {"format": "json"}),
        (["core", "--input", hirz], {"format": "json"}),
        (["core", "--input", hirz, "--svg", svg], {"format": "json", "svg": svg}),
        (["cohomology", "--input", p12], {"format": "json", "convention": "paper"}),
        (["localize", "--input", p12], {"format": "json", "circuit": 1, "convention": "standard"}),
        (
            ["steinberg", "--input", p12, "--circuit", "1", "--convention", "paper"],
            {"format": "json", "circuit": 1, "convention": "paper"},
        ),
        (
            ["quantum-divisor", "--input", p12, "--divisor", "2", "--with", "1", "--max-q-order", "3"],
            {"format": "json", "max_q_order": 3, "sign_convention": "example-calibrated"},
        ),
        (["qsr", "--input", p12, "--max-q-order", "0"], {"format": "json", "max_q_order": 0}),
    ]
    for argv, flags in runs:
        code, out = invoke(capsys, argv)
        assert code == 0, argv
        assert json.loads(out)["flags"] == flags, argv


def test_truncation_too_small_is_input_error(capsys, write_examples):
    code, out = invoke(
        capsys, [*QUANTUM, "--input", write_examples["cotangent-p1"], "--max-q-order", "0"]
    )
    assert code == 2
    assert json.loads(out)["error"]["path"] == "--max-q-order"


def test_negative_qsr_order_is_input_error(capsys, write_examples):
    """qsr refuses a truncation order below 0 at its flag, and order 0 is
    still valid."""
    doc = write_examples["cotangent-p1"]
    code, out = invoke(capsys, ["qsr", "--input", doc, "--max-q-order", "-1"])
    assert code == 2
    assert json.loads(out)["error"] == {
        "message": "truncation order must be at least 0",
        "path": "--max-q-order",
    }
    code, out = invoke(capsys, ["qsr", "--input", doc, "--max-q-order", "0"])
    assert code == 0
    assert json.loads(out)["payload"]["max_q_order"] == 0


SYMPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import hypertoric.cli
heavy = ("sympy", "jsonschema", "dataclasses", "inspect")
loaded = {"import": [m for m in heavy if m in sys.modules]}
doc, p12 = sys.argv[1], sys.argv[2]
commands = (
    ["gale"], ["circuits"], ["box"], ["core"], ["fan"], ["cohomology"],
    ["quantum-divisor", "--divisor", "1", "--with", "2"], ["qsr"],
    ["localize"], ["steinberg"],
)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = hypertoric.cli.run([argv[0], "--input", doc, *argv[1:]])
    loaded[argv[0]] = (code, [m for m in heavy if m in sys.modules])
for cmd in ("localize", "steinberg"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = hypertoric.cli.run([cmd, "--input", p12, "--convention", "paper"])
    loaded[cmd + " --convention paper"] = (code, [m for m in heavy if m in sys.modules])
print(json.dumps(loaded))
"""


def _fresh_process(script, *args):
    """What ``script`` prints as JSON, run in a fresh interpreter that
    imports this package from its source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypertoric.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    return json.loads(out)


def test_commands_do_not_import_sympy():
    """Neither sympy nor jsonschema is ever loaded: not by the CLI import,
    and not by any command, the paper convention's localize and steinberg
    included.  Nor is ``dataclasses`` (and with it ``inspect``), whose class
    creation was the largest import cost of the package itself.  It runs in
    a fresh process, as pytest loads all four."""
    root = os.path.join(os.path.dirname(__file__), "..", "arrangements")
    docs = [os.path.join(root, f"{name}.json") for name in ("hirzebruch", "cotangent-p12")]
    loaded = _fresh_process(SYMPY_FREE_SCRIPT, *docs)
    assert loaded.pop("import") == []
    assert loaded == {
        cmd: [0, []]
        for cmd in (
            "gale", "circuits", "box", "core", "fan", "cohomology", "quantum-divisor", "qsr",
            "localize", "steinberg", "localize --convention paper",
            "steinberg --convention paper",
        )
    }


DEFERRED = ("crring", "lawrence", "localize", "multifan", "polynomials", "quantum", "svg")
LAZY_SCRIPT = """
import contextlib, io, json, sys, types
import hypertoric.cli

def executed():
    deferred = %r
    return [m for m in deferred if type(sys.modules["hypertoric." + m]) is types.ModuleType]

imported = executed()
with contextlib.redirect_stdout(io.StringIO()):
    code = hypertoric.cli.run(sys.argv[1:])
print(json.dumps({"import": imported, "exit": code, "executed": executed()}))
""" % (DEFERRED,)


@pytest.mark.parametrize(
    "argv, code, executed",
    [
        (["gale"], 0, []),
        (["core"], 0, []),
        (["circuits"], 0, ["multifan"]),
        (["box"], 0, ["multifan"]),
        (["fan"], 0, ["lawrence"]),
        (["cohomology"], 0, ["crring", "multifan", "polynomials"]),
        (["localize"], 0, ["localize", "multifan", "polynomials"]),
        (["steinberg"], 0, ["localize", "multifan", "polynomials"]),
        (["gale", "schema"], 2, []),
    ],
)
def test_each_command_runs_only_the_modules_it_reads(tmp_path, argv, code, executed):
    """``import hypertoric.cli`` puts every module in ``sys.modules`` but runs
    none of the seven deferred ones, and a cold command runs only those it
    reads: ``gale`` and ``core`` none, ``circuits`` and ``box`` only
    ``multifan``, ``fan`` only ``lawrence``, and the Chen-Ruan and
    localization commands neither ``quantum``, ``lawrence`` nor ``svg``.  A
    document that fails the schema runs none."""
    doc = os.path.join(os.path.dirname(__file__), "..", "arrangements", "hirzebruch.json")
    if argv[1:] == ["schema"]:
        doc = tmp_path / "bad.json"
        doc.write_text('{"rank": 1}', encoding="utf-8")
    out = _fresh_process(LAZY_SCRIPT, argv[0], "--input", str(doc))
    assert out["import"] == []
    assert (out["exit"], out["executed"]) == (code, executed)


def test_parser_spells_the_sign_conventions_of_quantum():
    """The parser's choices are ``cli``'s copy of the sign conventions, so
    that building it does not load ``quantum``; the copy is the original."""
    from hypertoric import cli, quantum

    assert cli.SIGN_CONVENTIONS == quantum.SIGN_CONVENTIONS


def _mutated_documents(rng, count):
    """Seeded mutations of the shipped examples, plus non-object documents."""
    odd = [True, False, None, 1.0, 1.5, -1, -2.0, 0, 1, 2, 3.0, "x", "", [], {}, [1],
           {"a": 1}, 10**30, "hypertoric-arrangement/0"]
    keys = ["schema_version", "name", "rank", "torsion", "beta", "theta", "psi"]
    bases = [example_document(name) for name in example_names()]

    def pick():
        return copy.deepcopy(rng.choice(odd))

    for _ in range(count):
        if rng.random() < 0.05:
            yield pick()
            continue
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(5)
            if kind == 0:
                doc.pop(rng.choice(keys), None)
            elif kind == 1:
                doc[rng.choice(["a", "x", "extra", "Rank"])] = pick()
            elif kind == 2:
                doc[rng.choice(keys)] = pick()
            else:  # inside an array, or in a column of beta
                seq = doc.get(rng.choice(["torsion", "beta", "beta", "theta", "psi"]))
                if isinstance(seq, list) and seq and isinstance(seq[0], list) and rng.random() < 0.6:
                    seq = seq[0]
                if not isinstance(seq, list):
                    continue
                r = rng.random()
                if r < 0.15:
                    seq.clear()
                elif seq and r < 0.4:
                    del seq[rng.randrange(len(seq))]
                elif seq:
                    seq[rng.randrange(len(seq))] = pick()
                else:
                    seq.append(pick())
        yield doc


def test_validator_matches_jsonschema():
    """The in-house check finds jsonschema's errors, messages and paths, in
    jsonschema's order, on seeded mutated documents; so it reports the same
    first error and accepts what jsonschema accepts."""
    import jsonschema

    from hypertoric.cli import ARRANGEMENT_SCHEMA, InputError, _schema_errors, validate_document

    oracle = jsonschema.Draft202012Validator(ARRANGEMENT_SCHEMA)
    seen = {"valid": 0}
    for doc in _mutated_documents(random.Random(2015), 2500):
        errors = sorted(oracle.iter_errors(doc), key=lambda e: str(e.path))
        expected = [(e.message, "/".join(map(str, e.path)) or "(document)") for e in errors]
        ours = sorted(_schema_errors(ARRANGEMENT_SCHEMA, doc), key=lambda e: repr(list(e[1])))
        assert [(m, "/".join(map(str, p)) or "(document)") for m, p in ours] == expected, doc
        try:
            validate_document(doc)
            assert not expected, doc
            seen["valid"] += 1
        except InputError as e:
            assert (str(e), e.path) == expected[0], doc
        for e in errors:  # each kind of violation occurs
            seen[e.validator] = seen.get(e.validator, 0) + 1
    kinds = ("valid", "type", "const", "minimum", "minItems", "required", "additionalProperties")
    assert all(seen.get(k, 0) >= 20 for k in kinds), seen


def test_validator_rejects_unknown_schema_keywords():
    from hypertoric.cli import _schema_errors

    for schema in ({"type": "number"}, {"maxItems": 3}, {"const": 1}, {"additionalProperties": {}}):
        with pytest.raises(ValueError, match="not supported"):
            list(_schema_errors(schema, 1))


def test_integral_floats_hash_as_integers(capsys, tmp_path):
    """JSON Schema counts 1.0 as an integer; such a document is the same
    input as the one spelled with ints, envelope and hash alike."""
    doc = example_document("cotangent-p12")
    floats = {k: v if k in ("schema_version", "name") else json.loads(json.dumps(v), parse_int=float)
              for k, v in doc.items()}
    assert floats["rank"] == 1.0 and isinstance(floats["beta"][0][0], float)
    paths = []
    for name, d in (("ints", doc), ("floats", floats)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(d), encoding="utf-8")
        paths.append(str(p))
    for cmd in ("gale", "core", "circuits", "box", "qsr"):
        outs = [invoke(capsys, [cmd, "--input", p]) for p in paths]
        assert outs[0][0] == 0 and outs[0] == outs[1], cmd


def test_localize_prints_as_sympy(monkeypatch):
    """Every localize payload of the shipped examples, in both conventions,
    is the one printed through sympy."""
    from hypertoric import cli, polynomials
    from sympy_bridge import poly_to_sympy

    cases = []
    for name in example_names():
        arr = build_arrangement(example_document(name))
        for index in range(1, len(circuits(arr)) + 1):
            for convention in ("standard", "paper"):
                try:
                    cases.append((arr, index, convention, cli.payload_localize(arr, index, convention)))
                except cli.InputError:
                    assert convention == "paper"
    monkeypatch.setattr(polynomials, "sympy_str", lambda p: str(poly_to_sympy(p)))
    for arr, index, convention, payload in cases:
        assert payload == cli.payload_localize(arr, index, convention)
    assert sum(c[2] == "paper" for c in cases) >= 1 and len(cases) >= 8


def _random_json(rng, depth):
    """A nested value of the kinds an envelope holds: str-keyed dicts, lists,
    tuples, str, int, bool and None, with the strings json must escape."""
    alphabet = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                "é", "ß", "∂", " ", "😀", "\ud800"]

    def text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))

    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return text()
    if kind == 1:
        return rng.choice([0, 1, -1, 10**30, -(10**40) - 7, rng.randint(-10**6, 10**6)])
    if kind == 2:
        return rng.choice([True, False, 1, 0])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([[], {}, ()])
    if kind in (5, 6):
        items = [_random_json(rng, depth - 1) for _ in range(rng.randint(0, 5))]
        return items if kind == 5 else tuple(items)
    if kind == 7:
        return [rng.choice([True, 1, 0, False, None, text(), -(2**70)]) for _ in range(rng.randint(1, 6))]
    return {text(): _random_json(rng, depth - 1) for _ in range(rng.randint(0, 5))}


def test_to_json_is_indented_sorted_json_dumps():
    """The envelope writer gives json.dumps(x, indent=2, sort_keys=True) byte
    for byte: escapes, non-ASCII and surrogates, empty containers, tuples,
    True/1/0/False side by side, large negative ints, nesting."""
    from hypertoric.cli import _to_json

    rng = random.Random(14)
    values = [_random_json(rng, rng.randint(0, 5)) for _ in range(600)]
    values += [[True, 1, 0, False], {"b": [1, True], "a": (0, False)}, [[], {}, ()], {"": {"": []}}]
    for x in values:
        assert _to_json(x) == json.dumps(x, indent=2, sort_keys=True), x
    assert sum(isinstance(x, dict) and len(x) > 1 for x in values) > 20


def test_to_json_refuses_other_values():
    """A float, a Fraction, a set or a non-str key is a program fault, not
    something to print."""
    from fractions import Fraction

    from hypertoric.cli import _to_json

    for x in (0.5, 1.0, Fraction(1, 2), {1, 2}, {1: "a"}, {"a": [1, 2.0]}, [(0, Fraction(1))],
              {"a": 1, 2: "b"}, {None: 0}, {True: 0}):
        with pytest.raises(TypeError):
            _to_json(x)


LAYOUT_COMMANDS = (
    ["gale"], ["circuits"], ["box"], ["core"], ["fan"], ["cohomology"],
    ["cohomology", "--convention", "literal"], ["localize"], ["steinberg"],
    ["quantum-divisor", "--divisor", "1", "--with", "2"],
    ["quantum-divisor", "--divisor", "1", "--with", "2", "--sign-convention", "all"],
    ["qsr"], ["qsr", "--max-q-order", "3"],
)


@pytest.mark.parametrize("name", ["cotangent-p12", "hirzebruch"])
def test_envelopes_are_indented_sorted_json(capsys, write_examples, name):
    """Every subcommand prints its envelope as json.dumps(..., indent=2,
    sort_keys=True) would."""
    argvs = [[*argv, "--input", write_examples[name]] for argv in LAYOUT_COMMANDS]
    argvs += [["examples", "--list"], ["examples", "--show", name]]
    for argv in argvs:
        code, out = invoke(capsys, argv)
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


def test_examples_write_dir_writes_indented_sorted_json(capsys, tmp_path):
    """The written examples are the repository's files, byte for byte."""
    from pathlib import Path

    code, out = invoke(capsys, ["examples", "--write-dir", str(tmp_path)])
    assert code == 0
    written = json.loads(out)["payload"]["written"]
    assert [Path(p).name for p in written] == [f"{name}.json" for name in example_names()]
    root = Path(__file__).resolve().parent.parent / "arrangements"
    for name in example_names():
        text = (tmp_path / f"{name}.json").read_text(encoding="utf-8")
        assert text == json.dumps(example_document(name), indent=2, sort_keys=True) + "\n"
        assert text == (root / f"{name}.json").read_text(encoding="utf-8")


def test_structure_outputs_match_bench_digests(capsys):
    """The stdout of gale, circuits, box, fan and cohomology on the shipped
    examples and the non-probe ladder rungs hashes to the benchmark's
    recorded digest (key "<command> @ <document>"), byte for byte."""
    import hashlib
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    digests = json.loads((root / "bench" / "digests.json").read_text(encoding="utf-8"))
    docs = {name: root / "arrangements" / f"{name}.json" for name in example_names()}
    for path in sorted((root / "bench" / "ladder").glob("*.json")):
        if not path.stem.startswith("probe-"):
            docs[path.stem] = path
    checked = 0
    for name, path in docs.items():
        for command in ("gale", "circuits", "box", "fan", "cohomology"):
            run([command, "--input", str(path)])
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digests[f"{command} @ {name}"], (command, name)
            checked += 1
    assert checked == 75
