"""Benchmark of the hypertoric CLI, driven from outside the library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-digests

Each op is one user command.  ``cli-cold`` starts one process per op; the
other workloads call ``hypertoric.cli.run(argv)`` in this process with
stdout captured, after clearing sympy's cache, so an op costs what the
command costs in a fresh process minus the import.  The
seed only shuffles the op order of each pass; the documents are the
checked-in ladder.  In-process ops first run once untimed; then passes
repeat within ``--seconds`` (at least two), and each op's latency is the
median of its runs pooled over the passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced pass (see README.md).  The
line before it is a report with the failing ops and oracle findings.
``--write-digests`` records the reference output digest of every op.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    IN_PROCESS,
    KNOWN_FAILURES,
    ROOT,
    SHIPPED,
    WORKLOADS,
)

SRC = os.path.join(ROOT, "src")
OUT_DIR = ".bench_out"
DIGESTS = os.path.join(ROOT, "bench", "digests.json")
SETUP_REPEATS = 3
MIN_PASSES = 2
PROBE_REPEATS = 3
COLD_REF_CODE = (
    "import argparse, csv, decimal, email.parser, fractions, http.client, json, "
    "logging, tarfile, unittest, xml.dom.minidom"
)
COLD_REF_SECONDS = 0.2
SETUP_CODE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import hypertoric.cli; "
    "[json.load(open(p)) for p in sys.argv[2:]]"
)


class Execution:
    def __init__(self, seconds, rc, stdout, maxrss_kb=0):
        self.seconds = seconds
        self.rc = rc
        self.stdout = stdout
        self.maxrss_kb = maxrss_kb


# ---------------------------------------------------------------------------
# Running ops


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv):
    """Run a child to completion; return (seconds, rc, stdout, stderr, maxrss_kb)."""
    scratch = os.path.join(ROOT, OUT_DIR)
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return seconds, proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss


def run_cold(op):
    seconds, rc, stdout, _, maxrss = run_child([sys.executable, "-m", "hypertoric.cli", *op.argv])
    return Execution(seconds, rc, stdout, maxrss)


def run_in_process(op):
    from hypertoric import cli

    cache = sys.modules.get("sympy.core.cache")
    if cache is not None:
        cache.clear_cache()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = cli.run(op.argv)
        seconds = time.perf_counter() - start
    return Execution(seconds, rc, out.getvalue())


def digest(op, stdout):
    h = hashlib.sha256(stdout.encode())
    if "--svg" in op.argv:
        with open(os.path.join(ROOT, op.argv[op.argv.index("--svg") + 1]), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Measurement:
    """Executions of a workload's ops by ``runner``, with their outcomes, and
    the runner's reference task timed before the first op and after the runs
    of every op."""

    def __init__(self, ops, runner, min_op_seconds=0.0):
        self.ops = ops
        self.runner = runner
        self.reference, self.nominal = REFERENCES[runner]
        self.min_op_seconds = min_op_seconds
        self.latencies = {op.id: [] for op in ops}
        self.first = {}
        self.digests = {op.id: set() for op in ops}
        self.rcs = {op.id: set() for op in ops}
        self.maxrss_kb = 0
        self.passes = 0
        self.refs = []
        self.timeline = []  # (op id, pass, seconds, index of the reference before it)

    def run_once(self, rng):
        """One pass over the ops in a seeded order.  An op shorter than
        ``min_op_seconds`` runs again, up to MAX_REPEATS times, so that its
        latency in the pass is not a single short sample."""
        order = list(self.ops)
        rng.shuffle(order)
        gc.collect()
        if not self.refs:
            self.refs.append(self.reference())
        for op in order:
            spent = 0.0
            for _ in range(MAX_REPEATS):
                ex = self.runner(op)
                self.timeline.append((op.id, self.passes, ex.seconds, len(self.refs) - 1))
                self.latencies[op.id].append(ex.seconds)
                self.first.setdefault(op.id, ex.stdout)
                self.digests[op.id].add(digest(op, ex.stdout))
                self.rcs[op.id].add(ex.rc)
                self.maxrss_kb = max(self.maxrss_kb, ex.maxrss_kb)
                spent += ex.seconds
                if spent >= self.min_op_seconds:
                    break
            self.refs.append(self.reference())
        self.passes += 1

    def scaled_runs(self):
        """Per op and pass, its runs in that pass, each scaled to the
        reference speed measured around it."""
        runs = {}
        for op_id, pass_no, seconds, i in self.timeline:
            factor = host_factor(self.refs, i, self.nominal)
            runs.setdefault((op_id, pass_no), []).append(seconds * factor)
        return runs

    def per_pass(self):
        """Per op, its latency in each pass: the median of its scaled runs in
        that pass."""
        out = {op.id: [] for op in self.ops}
        for (op_id, _), values in sorted(self.scaled_runs().items(), key=lambda kv: kv[0][1]):
            out[op_id].append(statistics.median(values))
        return out

    def per_op(self):
        """Per op, its latency: the median of all its scaled runs, pooled over
        the passes, so that one slow pass moves it less than a median of
        per-pass figures would."""
        out = {op.id: [] for op in self.ops}
        for (op_id, _), values in self.scaled_runs().items():
            out[op_id].extend(values)
        return {k: statistics.median(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# Checking outputs


def load_doc(op):
    with open(os.path.join(ROOT, op.argv[op.argv.index("--input") + 1]), encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(run):
    """Failure reason per failing op, and whether every failure is known."""
    failures = {}
    for op in run.ops:
        if run.rcs[op.id] != {0}:
            text = run.first[op.id].strip() or "no output"
            failures[op.id] = f"exit {sorted(run.rcs[op.id])}: {text[:160]}"
            continue
        payload = json.loads(run.first[op.id])["payload"]
        problems = oracles.check(op.command, load_doc(op), payload)
        if problems:
            failures[op.id] = "; ".join(problems)
    unexpected = sorted(set(failures) - set(KNOWN_FAILURES))
    return failures, unexpected


def outputs_changed(run):
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    return sum(1 for op in run.ops if run.digests[op.id] != {reference.get(op.id)})


# ---------------------------------------------------------------------------
# Timing helpers


# Host speed drifts by up to 2x over seconds to minutes on a shared 2-core
# machine, and ops slow down with it.  So every latency is scaled by the
# speed of a fixed reference task timed between ops: the reported times are
# seconds on a host where the reference task takes REF_SECONDS (in-process
# ops) or COLD_REF_SECONDS (cold processes, whose time follows a cold
# process far better than in-process work).  The in-process task is the
# geometric mean of two parts.  Ops slow down more than a Fraction loop
# does (latency ~ loop^1.2) and less than row reduction over many small
# matrices (~ reduction^0.85); the mean of the two tracks them at about
# exponent 1.  The task must never change, or scaled times from before and
# after the change are not comparable.
REF_SECONDS = 0.005
REF_ROWS = ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 2), (1, 1, 0, 3), (0, 1, 1, 1), (1, 0, 1, 2))
MIN_OP_SECONDS = 0.04
MAX_REPEATS = 4


def _reference_reduction():
    """Rank of every subset of REF_ROWS by Fraction row reduction."""
    for size in range(len(REF_ROWS) + 1):
        for subset in itertools.combinations(REF_ROWS, size):
            rows = [[Fraction(x) for x in r] for r in subset]
            for col in range(4):
                pivot = next((r for r in rows if r[col] != 0), None)
                if pivot is None:
                    continue
                rows.remove(pivot)
                rows = [[a - r[col] / pivot[col] * b for a, b in zip(r, pivot)] for r in rows]


def reference():
    """Seconds taken by the reference task, with garbage collection off."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 600):
            total += Fraction(1, k * k + 1)
        middle = time.perf_counter()
        _reference_reduction()
        end = time.perf_counter()
        return math.sqrt((middle - start) * (end - middle))
    finally:
        gc.enable()


def cold_reference():
    """Seconds taken by a fresh process that imports a fixed set of standard
    library modules: the reference for cold processes."""
    return run_child([sys.executable, "-c", COLD_REF_CODE])[0]


REFERENCES = {run_in_process: (reference, REF_SECONDS), run_cold: (cold_reference, COLD_REF_SECONDS)}


def host_factor(refs, i, nominal):
    """``nominal`` over the mean of the references just before and just
    after the runs of the op that followed reference ``i``."""
    return 2 * nominal / (refs[i] + refs[i + 1])


def setup_seconds(docs):
    """Median wall time of fresh processes that import the CLI and read
    ``docs``, scaled like op latencies."""
    refs = [cold_reference()]
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(run_child([sys.executable, "-c", SETUP_CODE, SRC, *docs])[0])
        refs.append(cold_reference())
    return statistics.median(
        t * host_factor(refs, i, COLD_REF_SECONDS) for i, t in enumerate(times)
    )


def tail(values):
    """(percentile, value): the highest percentile of ``values`` with at
    least 10 values beyond it, by nearest rank."""
    n = len(values)
    pct = max(0, math.floor(100 * (n - 10) / n))
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1]


def measure(ops, runner, seconds, rng):
    """In-process ops first run once untimed, so that one-time costs (lazy
    imports, first-call caches) fall outside the passes.  Then at least
    MIN_PASSES passes, and another only while it is expected to end within
    ``seconds`` of the start, warm-up included."""
    start = time.perf_counter()
    if runner is run_in_process:
        for op in ops:
            runner(op)
    run = Measurement(ops, runner, MIN_OP_SECONDS)
    begin = time.perf_counter()
    while True:
        run.run_once(rng)
        now = time.perf_counter()
        if run.passes >= MIN_PASSES and now + (now - begin) / run.passes > start + seconds:
            return run


def workload_docs(workload):
    if workload == "cli-cold":
        return []
    return sorted({op.argv[op.argv.index("--input") + 1] for op in WORKLOADS[workload]})


# ---------------------------------------------------------------------------
# End-to-end run


def end_to_end(workload, seed, seconds):
    setup = setup_seconds(workload_docs(workload))
    cold = workload not in IN_PROCESS
    if not cold:
        import hypertoric.cli  # noqa: F401  (the passes below call it)
    rng = random.Random(seed)
    run = measure(WORKLOADS[workload], run_cold if cold else run_in_process, seconds, rng)
    if cold:
        peak_kb = run.maxrss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    per_op = run.per_op()
    values = list(per_op.values())
    pct, tail_s = tail(values)
    failures, unexpected = check_outputs(run)
    fail_frac = len(failures) / len(values)
    report = {
        "workload": workload,
        "seed": seed,
        "passes": run.passes,
        "ops": len(values),
        "op_tail_percentile": pct,
        "fail_frac": fail_frac,
        "failures": failures,
        "unexpected_failures": unexpected,
        "outputs_changed": outputs_changed(run),
        "reference_ms": 1000 * statistics.median(run.refs),
        "op_ms": {k: round(v * 1000, 3) for k, v in sorted(per_op.items())},
        "op_raw_ms": {
            k: round(statistics.median(v) * 1000, 3) for k, v in sorted(run.latencies.items())
        },
    }
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (sum(values), "s"),
        "op_p50_ms": (statistics.median(values) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_frac": (1 - fail_frac, "ratio"),
    }
    return report, not unexpected, len(values), len(failures), metrics


# ---------------------------------------------------------------------------
# Traced run


# metric prefix: (figures reported, span names from tracer.Tracer)
LAYERS = {
    "cli.validate": ("ms", ("cli.load_document",)),
    "svg.emit": ("ms", ("svg.emit_svg",)),
    "arrangement.build": ("ms", ("arrangement.StackyArrangement.build",)),
    "arrangement.check_generic": ("ms", ("arrangement.check_generic",)),
    "arrangement.chambers": ("ms", ("arrangement.StackyArrangement.bounded_chambers",)),
    "arrangement.vertices": ("ms", ("arrangement.enumerate_vertices",)),
    "arrangement.recession": ("ms", ("arrangement.recession_cone_is_trivial",)),
    "arrangement.fm": ("calls ms", ("arrangement.fourier_motzkin_feasible",)),
    "exactalg.gale": ("ms", ("exactalg.gale_dual",)),
    "exactalg.rank": ("calls ms", ("exactalg.rational_rank",)),
    "exactalg.snf": ("calls ms", ("exactalg.smith_normal_form",)),
    "exactalg.kernel": ("calls", ("exactalg.kernel_basis",)),
    "exactalg.solve": (
        "calls ms",
        ("exactalg.solve_rational", "exactalg.solve_rational_system", "exactalg.solve_integer"),
    ),
    "multifan.circuits": ("calls ms", ("multifan.circuits",)),
    "multifan.box": ("calls ms", ("multifan.box_elements",)),
    "lawrence.fan": ("calls ms", ("lawrence.build_lawrence_fan",)),
    "lawrence.l_pairing": ("calls ms", ("lawrence.LawrenceFan.l_pairing",)),
    "lawrence.locate": ("calls", ("lawrence.LawrenceFan.locate",)),
    "crring.context": ("calls ms", ("crring.CohomologyContext",)),
    "crring.presentation": ("calls ms", ("crring.cr_presentation",)),
    "crring.cr_multiply": ("calls ms", ("crring.cr_multiply",)),
    "localize.standard_table": ("calls ms", ("localize.standard_table",)),
    "localize.integrate_base": ("calls ms", ("localize.integrate_base",)),
    "localize.steinberg": ("ms", ("localize.steinberg_operator",)),
    "polynomials.to_sympy": ("calls", ("polynomials.poly_to_sympy",)),
    "quantum.context": ("ms", ("quantum.QuantumContext",)),
    "quantum.divisor": ("calls ms", ("quantum.quantum_divisor_product",)),
    "quantum.gamma_apply": ("calls ms", ("quantum.CircuitModel.gamma_apply",)),
    "quantum.qsr": (
        "ms",
        (
            "quantum.qsr_presentation",
            "quantum.qsr_circuit_relation_defect",
            "quantum.minimal_curve_unit",
        ),
    ),
    "quantum.qsr_multiply": ("calls ms", ("quantum.qsr_multiply",)),
}
SIZE_METRICS = (
    "arrangement.chambers",
    "multifan.circuits",
    "multifan.boxes",
    "lawrence.max_cones",
    "quantum.series_terms",
)
IMPORTS = {"cli.import_ms": "hypertoric.cli", "cli.import_sympy_ms": "sympy",
           "cli.import_jsonschema_ms": "jsonschema"}


def import_times():
    """Cumulative import time (ms) of the CLI, sympy and jsonschema, from
    ``-X importtime``; the median over a few fresh processes."""
    samples = {k: [] for k in IMPORTS}
    for _ in range(PROBE_REPEATS):
        _, _, _, err, _ = run_child([sys.executable, "-X", "importtime", "-c", "import hypertoric.cli"])
        found = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found.setdefault(parts[2].strip(), int(parts[1]) / 1000)
        for key, module in IMPORTS.items():
            samples[key].append(found.get(module, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def startup_ms():
    """Cold process wall time minus the envelope's own ``--timing`` figure."""
    doc = os.path.join("arrangements", f"{SHIPPED[1]}.json")
    argv = [sys.executable, "-m", "hypertoric.cli", "gale", "--input", doc, "--timing"]
    samples = []
    for _ in range(PROBE_REPEATS):
        seconds, rc, out, _, _ = run_child(argv)
        if rc != 0:
            raise RuntimeError(f"startup probe failed with exit {rc}")
        samples.append(seconds * 1000 - json.loads(out)["wall_time_ms"])
    return statistics.median(samples)


def layer_metrics(tracer):
    metrics = {}
    for prefix, (figures, names) in LAYERS.items():
        calls, seconds = tracer.group(names)
        if "calls" in figures:
            metrics[f"{prefix}_calls"] = (calls, "count")
        if "ms" in figures:
            metrics[f"{prefix}_ms"] = (seconds * 1000, "ms")
    fm = "arrangement.fourier_motzkin_feasible"
    chamber_span = {"arrangement.StackyArrangement.bounded_chambers"}
    fm_in_chambers = sum(
        1 for i, s in enumerate(tracer.spans) if s[0] == fm and tracer.has_ancestor(i, chamber_span)
    )
    metrics["multifan.split_fm_calls"] = (
        sum(1 for s in tracer.spans if s[0] == fm and s[4] == "multifan"),
        "count",
    )
    chambers = tracer.sizes.get("arrangement.chambers", 0)
    metrics["arrangement.chambers_per_fm_call"] = (
        chambers / fm_in_chambers if fm_in_chambers else 0.0,
        "ratio",
    )
    for name in SIZE_METRICS:
        metrics[name] = (tracer.sizes.get(name, 0), "count")
    self_times = tracer.self_times()
    for module in MODULES:
        mine = [i for i, s in enumerate(tracer.spans) if s[0].split(".")[0] == module]
        metrics[f"{module}.self_ms"] = (sum(self_times[i] for i in mine) * 1000, "ms")
        metrics[f"{module}.errors"] = (sum(1 for i in mine if tracer.spans[i][5]), "count")
    return metrics


def traced(workload, seed):
    imports = import_times()
    startup = startup_ms()
    import hypertoric.cli  # noqa: F401

    ops = WORKLOADS[workload]
    warm = Measurement(ops, run_in_process)  # pays one-time costs; not compared
    warm.run_once(random.Random(seed))
    plain = Measurement(ops, run_in_process)
    plain.run_once(random.Random(seed))
    tracer = Tracer()
    run = Measurement(ops, run_in_process)
    with tracer:
        run.run_once(random.Random(seed))
    traced_wall = sum(v[0] for v in run.per_pass().values())
    plain_wall = sum(v[0] for v in plain.per_pass().values())

    failures, unexpected = check_outputs(run)
    metrics = {k: (v, "ms") for k, v in imports.items()}
    metrics["cli.startup_ms"] = (startup, "ms")
    metrics.update(layer_metrics(tracer))
    metrics["host.calib_ms"] = (1000 * statistics.median(plain.refs + run.refs), "ms")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    metrics["check.outputs_changed"] = (outputs_changed(run), "count")

    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
    with open(os.path.join(ROOT, spans_path), "w", encoding="utf-8") as fh:
        json.dump(
            {"fields": ["name", "start", "end", "parent", "site", "raised"], "spans": tracer.spans},
            fh,
        )
    report = {
        "workload": workload,
        "seed": seed,
        "spans": len(tracer.spans),
        "spans_file": spans_path,
        "failures": failures,
        "unexpected_failures": unexpected,
    }
    return report, not unexpected, len(ops), len(failures), metrics


# ---------------------------------------------------------------------------
# Entry points


def write_digests():
    import hypertoric.cli  # noqa: F401

    reference = {}
    for ops in WORKLOADS.values():
        run = Measurement(ops, run_in_process)
        run.run_once(random.Random(0))
        for op in ops:
            (reference[op.id],) = run.digests[op.id]
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")


def check_checkout():
    """Refuse to run anywhere but in a hypertoric checkout; put its ``src``
    first on the import path."""
    needed = [os.path.join(SRC, "hypertoric", "cli.py")]
    needed += [os.path.join(ROOT, "arrangements", f"{name}.json") for name in SHIPPED]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        sys.exit(f"not a hypertoric checkout, missing: {', '.join(missing)}")
    sys.path.insert(0, SRC)


def main(argv=None):
    p = argparse.ArgumentParser(description="hypertoric CLI benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-digests", action="store_true")
    args = p.parse_args(argv)
    check_checkout()
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.write_digests:
        write_digests()
        return
    if args.workload is None:
        p.error("--workload is required")
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    report, correct, attempted, failed, metrics = result
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
