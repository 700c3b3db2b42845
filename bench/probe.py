"""One-off guard probe: traced ``core`` at d=4 with m=7 and m=8.

Not a gated workload (m=8 alone takes about two minutes); it puts on record
how chamber enumeration scales toward the declared guard d <= 6, m <= 16.

    python3 bench/probe.py
"""

from __future__ import annotations

import json
import random

import oracles
from run import Measurement, check_checkout, layer_metrics, load_doc, run_in_process
from tracer import Tracer
from workloads import PROBES, Op

KEYS = (
    "arrangement.chambers",
    "arrangement.chambers_ms",
    "arrangement.fm_calls",
    "arrangement.fm_ms",
    "arrangement.recession_ms",
    "arrangement.vertices_ms",
    "arrangement.chambers_per_fm_call",
)


def main():
    check_checkout()
    import hypertoric.cli  # noqa: F401

    for name in PROBES:
        op = Op(name, ("core",))
        run = Measurement([op], run_in_process)
        tracer = Tracer()
        with tracer:
            run.run_once(random.Random(0))
        (rc,) = run.rcs[op.id]
        problems = []
        if rc == 0:
            payload = json.loads(run.first[op.id])["payload"]
            problems = oracles.check("core", load_doc(op), payload)
        metrics = layer_metrics(tracer)
        print(
            json.dumps(
                {
                    "op": op.id,
                    "exit": rc,
                    "traced_wall_s": run.latencies[op.id][0],
                    "oracle_problems": problems,
                    **{k: metrics[k][0] for k in KEYS},
                }
            ),
            flush=True,
        )


if __name__ == "__main__":
    main()
