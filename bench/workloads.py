"""The benchmark's workloads: fixed op lists over the arrangement ladder.

An op is one user command, ``hypertoric <argv>``.  Workloads differ in which
layer does the work; bench/README.md says why each one exists.
"""

from __future__ import annotations

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SHIPPED = ("cotangent-p1", "cotangent-p12", "hirzebruch", "hirzebruch-weighted")
COTANGENT = ("tp2", "tp3", "tp4", "tp1123")
RANDOM = ("d2m6", "d2m8", "d2m10", "d3m7", "d3m8", "d3m9", "d4m6")
LADDER = SHIPPED + COTANGENT + RANDOM
PROBES = ("probe-d4m7", "probe-d4m8")

SUBCOMMANDS = {
    "gale": (),
    "circuits": (),
    "box": (),
    "core": (),
    "fan": (),
    "cohomology": (),
    "localize": (),
    "steinberg": (),
    "quantum-divisor": ("--divisor", "1", "--with", "2"),
    "qsr": (),
}
QUANTUM_OPS = (
    ("quantum-divisor", "--divisor", "1", "--with", "2", "--max-q-order", "6"),
    ("quantum-divisor", "--divisor", "1", "--with", "2", "--max-q-order", "12"),
    (
        "quantum-divisor", "--divisor", "1", "--with", "2", "--max-q-order", "12",
        "--sign-convention", "all",
    ),
    ("qsr",),
    ("localize",),
    ("steinberg",),
)
# The pass of each workload is kept under about 10 s on a 2-core host, so that
# a run of two or three passes stays near half a minute.  Dropped for that:
# the cold processes of the other three shipped examples (about 0.85 s each),
# core on d3m9 (7 s) and the quantum ops on tp4 (11 s) and tp1123 (5 s).
COLD_EXAMPLE = "cotangent-p12"
CHAMBER_RUNGS = tuple(r for r in LADDER if r != "d3m9")
QUANTUM_RUNGS = SHIPPED + ("tp2", "tp3", "d2m6")

SVG_PATH = os.path.join(".bench_out", "core.svg")


def doc_path(name):
    """Path of a ladder document, relative to the repository root."""
    if name in SHIPPED:
        return os.path.join("arrangements", f"{name}.json")
    return os.path.join("bench", "ladder", f"{name}.json")


class Op:
    """One command on one document."""

    def __init__(self, doc, args):
        self.doc = doc
        self.command = args[0]
        self.argv = [args[0], "--input", doc_path(doc), *args[1:]]
        self.id = " ".join(args) + " @ " + doc


def _ops():
    cold = [Op(COLD_EXAMPLE, (cmd, *extra)) for cmd, extra in SUBCOMMANDS.items()]
    cold.append(Op(COLD_EXAMPLE, ("localize", "--convention", "paper")))
    cold.append(Op("hirzebruch-weighted", ("core", "--svg", SVG_PATH)))
    structure = [
        Op(doc, (cmd,))
        for doc in LADDER
        for cmd in ("gale", "circuits", "box", "fan", "cohomology")
    ]
    return {
        "cli-cold": cold,
        "chambers": [Op(doc, ("core",)) for doc in CHAMBER_RUNGS],
        "structure": structure,
        "quantum": [Op(doc, args) for doc in QUANTUM_RUNGS for args in QUANTUM_OPS],
    }


WORKLOADS = _ops()
IN_PROCESS = ("chambers", "structure", "quantum")

# Ops that fail at the seed commit, with the reason; bench/README.md lists them.
_QD = "quantum-divisor --divisor 1 --with 2"
KNOWN_FAILURES = {
    **{
        f"cohomology @ {doc}": "no closing box (ROADMAP 4a)"
        for doc in RANDOM
    },
    **{
        f"{_QD} {rest} @ d2m6": "UnsupportedClass: divisor u2 cannot be eliminated (ROADMAP 4d)"
        for rest in (
            "--max-q-order 6",
            "--max-q-order 12",
            "--max-q-order 12 --sign-convention all",
        )
    },
    **{
        f"qsr @ {doc}": "fan has no positive curve degrees"
        for doc in ("tp2", "tp3")
    },
    **{
        f"qsr @ {doc}": "self-check eliminated_relation_vanishes is false (ROADMAP 4b)"
        for doc in ("hirzebruch", "hirzebruch-weighted", "d2m6")
    },
    "steinberg @ cotangent-p12": (
        "self-check forward_injective is false: the standard-convention forward "
        "matrix [[-3/2, -1/2], [3/2, 1/2]] is singular"
    ),
}
