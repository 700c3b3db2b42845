"""Golden CLI outputs for the commands whose stdout no benchmark digest pins.

``tests/golden_outputs.json`` maps ``"<argv> @ <document>"`` to the exit
code, the sha256 of stdout and the stderr of one in-process ``run``, over
the shipped examples and the non-probe ladder rungs.  ``gale``,
``circuits``, ``box``, ``fan`` and ``cohomology`` are left to
``test_cli.py::test_structure_outputs_match_bench_digests``.  The key
``"core --svg @ <document>"`` holds the sha256 of the SVG file instead of
stdout, whose envelope names the file's path.

Regenerate the file, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from hypertoric.cli import run
from hypertoric.examples_data import example_names

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_outputs.json"

QUANTUM = ("quantum-divisor", "--divisor", "1", "--with", "2")
QUANTUM_ALL = (*QUANTUM, "--max-q-order", "4", "--sign-convention", "all")
ARGUMENT_SETS = (
    ("core",),
    ("cohomology", "--convention", "literal"),
    ("localize", "--convention", "standard"),
    ("localize", "--convention", "paper"),
    ("steinberg", "--convention", "standard"),
    ("steinberg", "--convention", "paper"),
    ("qsr",),
    ("qsr", "--max-q-order", "2"),
    QUANTUM,
    QUANTUM_ALL,
    ("quantum-divisor", "--divisor", "2", "--with", "1", "--max-q-order", "5"),
    ("circuits", "--format", "text"),
    ("fan", "--format", "text"),
)


def documents() -> dict:
    """The shipped examples and the non-probe ladder rungs, by name."""
    docs = {name: ROOT / "arrangements" / f"{name}.json" for name in example_names()}
    for path in sorted((ROOT / "bench" / "ladder").glob("*.json")):
        if not path.stem.startswith("probe-"):
            docs[path.stem] = path
    return docs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(argv) -> dict:
    """Exit code, stdout sha256 and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"exit": code, "stdout_sha256": _sha256(out.getvalue().encode()), "stderr": err.getvalue()}


def svg_outcome(path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "core.svg"
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(["core", "--input", str(path), "--svg", str(target)])
        return {"exit": code, "svg_sha256": _sha256(target.read_bytes())}


def compute() -> dict:
    out = {}
    for name, path in documents().items():
        for args in ARGUMENT_SETS:
            out[f"{' '.join(args)} @ {name}"] = outcome([args[0], "--input", str(path), *args[1:]])
        if json.loads(path.read_text(encoding="utf-8"))["rank"] == 2:
            out[f"core --svg @ {name}"] = svg_outcome(path)
    return out


def test_quantum_divisor_enumerates_no_box_table(monkeypatch):
    """quantum-divisor names each sector's box by its coordinates, so it
    prints the golden bytes while enumerating the box table raises."""

    def enumerated(arr):
        raise AssertionError("quantum-divisor enumerated the box table")

    # crring first: while it is still an unloaded lazy module, patching
    # multifan first would let crring's own import copy the patched function,
    # and undo would then "restore" crring.box_elements to that copy
    for module in ("crring", "multifan"):
        monkeypatch.setattr(f"hypertoric.{module}.box_elements", enumerated)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    docs = documents()
    for name in ("cotangent-p12", "hirzebruch-weighted", "tp1123"):
        for args in (QUANTUM, QUANTUM_ALL):
            expected = golden[f"{' '.join(args)} @ {name}"]
            assert expected["exit"] == 0
            assert outcome([args[0], "--input", str(docs[name]), *args[1:]]) == expected, (args, name)


def test_outputs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    computed = compute()
    assert sorted(computed) == sorted(golden)
    changed = [key for key in golden if computed[key] != golden[key]]
    assert not changed, changed
    assert len(golden) == 15 * len(ARGUMENT_SETS) + 6


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
