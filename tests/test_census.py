"""The census: every function in ``src/hypertoric`` is one that a command runs.

The CLI runs in process under a ``sys.setprofile`` hook over every command
and flag variant, on the shipped examples, three ladder rungs, a document
with torsion in N and one with no psi.  The functions that never ran must be
exactly ``NEVER_RUN``, each with its reason; test-only helpers and
references live in ``tests/`` (``tests/helpers.py`` and the test files).

A function here is one in a package module's ``vars()`` or in the
``__dict__`` of a class the module defines: plain functions, static and
class methods, the getters of properties and ``cached_property``, and the
function under ``functools.cache``.  A patch that another test leaves in
place would hide a function from the census, so CI also runs this file
alone.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import importlib
import io
import json
import pkgutil
import sys
import types
from pathlib import Path

import hypertoric
from hypertoric import cli
from hypertoric.examples_data import example_document, example_names

REPO = Path(__file__).resolve().parent.parent

NEVER_RUN = {
    "arrangement.check_generic": "bench/ladder.py draws its generic theta with it",
    "polynomials.Poly.__rsub__": "the tests write c - poly",
    "polynomials.Poly.__repr__": "for a reader at a prompt or in a failed assertion",
    "polynomials.PolyRing.__repr__": "for a reader at a prompt or in a failed assertion",
    "cli.main": "the console entry point, which calls run",
    "cli._lazy": "runs when cli is imported, before any command",
    "exactalg.Record.__init_subclass__": "runs when each record class is defined",
}


def _functions(module: types.ModuleType):
    """(qualified name, code object) for each function the module defines."""

    def code_of(obj):
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        elif isinstance(obj, property):
            obj = obj.fget
        elif isinstance(obj, functools.cached_property):
            obj = obj.func
        obj = getattr(obj, "__wrapped__", obj)  # functools.cache
        return obj.__code__ if isinstance(obj, types.FunctionType) else None

    short = module.__name__.rpartition(".")[2]
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        code = code_of(obj)
        if code is not None:
            yield f"{short}.{name}", code
        elif isinstance(obj, type):
            for attr, member in vars(obj).items():
                code = code_of(member)
                if code is not None:
                    yield f"{short}.{name}.{attr}", code


def _documents(tmp_path: Path) -> dict:
    """Name -> path of each input the census runs every command on."""
    docs = {name: example_document(name) for name in example_names()}
    for rung in ("tp2", "tp1123", "d2m6"):
        docs[rung] = json.loads((REPO / "bench" / "ladder" / f"{rung}.json").read_text())
    docs["z3-torsion"] = {
        "schema_version": "hypertoric-arrangement/1",
        "rank": 1,
        "torsion": [3],
        "beta": [[2, 0], [1, 1]],
        "theta": [3],
    }
    no_psi = copy.deepcopy(docs["cotangent-p12"])
    del no_psi["psi"]
    docs["cotangent-p12-no-psi"] = no_psi
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def _argvs(tmp_path: Path):
    """Every command and flag variant on every document, then the three
    ``examples`` forms."""
    variants = (
        ["gale"],
        ["circuits"],
        ["box"],
        ["core"],
        ["fan"],
        ["cohomology"],
        ["cohomology", "--convention", "literal"],
        ["localize"],
        ["localize", "--convention", "paper"],
        ["steinberg"],
        ["steinberg", "--convention", "paper"],
        ["quantum-divisor", "--divisor", "1", "--with", "2"],
        ["quantum-divisor", "--divisor", "1", "--with", "2", "--sign-convention", "all"],
        ["qsr"],
    )
    for path in _documents(tmp_path).values():
        for variant in variants:
            yield [*variant, "--input", str(path)]
    hirzebruch = str(tmp_path / "hirzebruch.json")  # d = 2, which the svg needs
    yield ["gale", "--input", hirzebruch, "--format", "text"]
    yield ["core", "--input", hirzebruch, "--svg", str(tmp_path / "core.svg")]
    yield ["examples", "--list"]
    yield ["examples", "--show", "cotangent-p1"]
    yield ["examples", "--write-dir", str(tmp_path / "examples")]


def test_every_package_function_runs_under_some_command(tmp_path):
    modules = {
        info.name: importlib.import_module(f"hypertoric.{info.name}")
        for info in pkgutil.iter_modules(hypertoric.__path__)
    }
    functions = dict(pair for module in modules.values() for pair in _functions(module))
    # every module was read, a lazily imported one included
    assert {name.partition(".")[0] for name in functions} == set(modules)
    argvs = list(_argvs(tmp_path))
    cli.build_parser.cache_clear()  # so that building the parser is counted
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    out, err = io.StringIO(), io.StringIO()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = [cli.run(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    succeeded = {argv[0] for argv, code in zip(argvs, codes) if code == 0}
    assert succeeded == {*cli.COMMANDS, "examples"}, err.getvalue()
    never_run = {name for name, code in functions.items() if code not in seen}
    assert never_run == set(NEVER_RUN)
