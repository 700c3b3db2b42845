"""Tests of the benchmark itself: oracles, tracer, ladder and op lists.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import ladder  # noqa: E402
import oracles  # noqa: E402
import run as bench_run  # noqa: E402
from tracer import METHODS, MODULES, PACKAGE, Tracer  # noqa: E402
from workloads import KNOWN_FAILURES, LADDER, SHIPPED, WORKLOADS, Op, doc_path  # noqa: E402

from hypertoric import cli  # noqa: E402


def invoke(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.run(argv)
    return rc, out.getvalue()


def payload(command, doc):
    rc, out = invoke([command, "--input", os.path.join(bench_run.ROOT, doc_path(doc))])
    assert rc == 0, out
    return json.loads(out)["payload"]


def load(doc):
    with open(os.path.join(bench_run.ROOT, doc_path(doc)), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("doc", SHIPPED + ("tp2", "tp3", "tp1123", "d2m6"))
def test_oracles_agree_with_library(doc):
    for command in ("core", "box"):
        assert oracles.check(command, load(doc), payload(command, doc)) == []


def test_oracles_detect_a_wrong_count():
    doc = load("hirzebruch")
    core = payload("core", "hirzebruch")
    core["chambers"] = core["chambers"][1:]
    assert oracles.check("core", doc, core)
    box = payload("box", "hirzebruch")
    box["box_elements"] = box["box_elements"][:-1]
    assert oracles.check("box", doc, box)


def test_zaslavsky_counts_by_hand():
    # T*P^n has the standard simplex as its only bounded chamber.
    for n in (2, 3, 4):
        assert oracles.bounded_chamber_count(load(f"tp{n}")) == 1
    # Two parallel lines and a transversal one bound nothing in the plane.
    doc = {"rank": 2, "beta": [[1, 0], [1, 0], [0, 1]], "psi": [0, 1, 0]}
    assert oracles.bounded_chamber_count(doc) == 0


def test_box_counts_by_hand():
    # weights (1, 2): the cone of the vector -2 carries one twisted sector.
    assert oracles.box_counts(load("cotangent-p12")) == {(): 1, (1,): 1}
    doc = {"rank": 1, "torsion": [3], "beta": [[2, 0], [1, 1]], "psi": [0, 0]}
    assert oracles.box_counts(doc) == {(): 3, (1,): 3}


def test_self_checks_are_read_from_payloads():
    qsr = {"circuit_relation_checks": [{"circuit": [1, 2], "eliminated_relation_vanishes": False}]}
    assert oracles.check("qsr", {}, qsr)
    st = {"forward_injective": True, "inverse_of_forward_is_identity": False}
    assert oracles.check("steinberg", {}, st) == []


def _library_state():
    state = {}
    modules = [sys.modules[f"{PACKAGE}.{m}"] for m in MODULES] + [sys.modules[PACKAGE]]
    for mod in modules:
        for attr, obj in vars(mod).items():
            state[(mod.__name__, attr)] = id(obj)
    for mod_name, classes in METHODS.items():
        for cls_name in classes:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            for attr, obj in vars(cls).items():
                state[(cls_name, attr)] = id(obj)
    return state


def _source_hashes():
    src = os.path.join(bench_run.ROOT, "src", PACKAGE)
    return {
        name: hashlib.sha256(open(os.path.join(src, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(src))
        if name.endswith(".py")
    }


def _traced_pass(ops):
    run = bench_run.Measurement(ops, bench_run.run_in_process)
    tracer = Tracer()
    with tracer:
        run.run_once(random.Random(0))
    return run, tracer


SMALL_OPS = [
    Op(doc, args)
    for doc in ("hirzebruch", "cotangent-p12")
    for args in (("core",), ("cohomology",), ("qsr",), ("steinberg",),
                 ("quantum-divisor", "--divisor", "1", "--with", "2"))
]


def test_tracer_leaves_library_unchanged(monkeypatch):
    monkeypatch.chdir(bench_run.ROOT)
    before_state, before_src = _library_state(), _source_hashes()
    plain = bench_run.Measurement(SMALL_OPS, bench_run.run_in_process)
    plain.run_once(random.Random(0))
    run, tracer = _traced_pass(SMALL_OPS)
    assert tracer.spans
    assert _library_state() == before_state
    assert _source_hashes() == before_src
    assert run.digests == plain.digests


def test_traced_counts_repeat_exactly(monkeypatch):
    monkeypatch.chdir(bench_run.ROOT)
    counts = []
    for _ in range(2):
        _, tracer = _traced_pass(SMALL_OPS)
        metrics = bench_run.layer_metrics(tracer)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["arrangement.fm_calls"] > 0
    assert counts[0]["multifan.split_fm_calls"] > 0


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, -1, "x", False],
        ["b", 1.0, 4.0, 0, "x", False],
        ["b", 5.0, 6.0, 0, "x", False],
        ["a", 5.2, 5.5, 2, "x", False],
    ]
    assert tracer.self_times() == pytest.approx([6.0, 3.0, 0.7, 0.3])
    assert tracer.group(["a", "b"]) == (4, pytest.approx(10.0))


def test_ladder_is_deterministic_and_checked_in():
    generated = ladder.ladder(ladder.DEFAULT_SEED)
    assert generated == ladder.ladder(ladder.DEFAULT_SEED)
    for name, doc in generated.items():
        assert load(name) == doc
    other = ladder.ladder(ladder.DEFAULT_SEED + 1)
    assert other["d3m8"] != generated["d3m8"]
    assert other["tp3"] == generated["tp3"]


def test_ladder_documents_are_schema_valid():
    for name in LADDER:
        cli.validate_document(load(name))


def test_tail_has_ten_values_beyond_it():
    for n in (11, 12, 14, 42, 75):
        values = list(range(n))
        pct, value = bench_run.tail(values)
        assert sum(1 for v in values if v > value) == 10


def test_known_failures_name_ops_of_the_workloads():
    ids = {op.id for ops in WORKLOADS.values() for op in ops}
    assert set(KNOWN_FAILURES) <= ids
