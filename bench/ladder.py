"""Generate the benchmark's arrangement ladder.

The ladder holds the cotangent bundles T*P^n (n = 2, 3, 4), the weighted
T*P(1,1,2,3), and seeded random rungs: rank 2 with m = 6, 8, 10, rank 3
with m = 7, 8, 9 and rank 4 with m = 6.  Random columns have entries in
[-2, 2] and lifts psi in [-4, 4], the distribution of
tests/test_pipeline.py.  Each random rung is drawn once from one seeded
stream; a draw is rejected only when it is not a valid generic input, never
because of what the library later does with it.  The rank-4 rungs with
m = 7 and m = 8 are drawn last, for the one-off guard probe.

Every document carries an explicit psi, so its hyperplanes do not depend on
the library's lift.  theta is written in the library's canonical Gale dual
basis, which only the library defines, so the generator imports it.

    python3 bench/ladder.py [--seed N] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 20151
DEFAULT_OUT = os.path.join(HERE, "ladder")
SCHEMA_VERSION = "hypertoric-arrangement/1"

RANDOM_RUNGS = ((2, 6), (2, 8), (2, 10), (3, 7), (3, 8), (3, 9), (4, 6))
PROBE_RUNGS = ((4, 7), (4, 8))
MAX_DRAWS = 1000


def _library():
    src = os.path.join(os.path.dirname(HERE), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from hypertoric import arrangement, exactalg

    return arrangement, exactalg


def _document(name, rank, cols, psi):
    """A schema-valid document, or None when (cols, psi) is not a valid input."""
    arrangement, exactalg = _library()
    beta = exactalg.GroupHom(
        exactalg.FgAbelianGroup(len(cols)),
        exactalg.FgAbelianGroup(rank),
        exactalg.IntMatrix.from_rows(tuple(zip(*cols))),
    )
    try:
        dual = exactalg.gale_dual(beta)
    except exactalg.ExactAlgError:
        return None
    theta = dual.target.reduce_vector(tuple(-x for x in dual.matrix.apply(psi)))
    try:
        if not arrangement.check_generic(dual, theta):
            return None
        arrangement.StackyArrangement.build(
            exactalg.FgAbelianGroup(rank), cols, theta, psi
        )
    except (arrangement.ArrangementError, exactalg.ExactAlgError):
        return None
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "rank": rank,
        "torsion": [],
        "beta": [list(c) for c in cols],
        "theta": list(theta),
        "psi": list(psi),
    }


def cotangent_projective(n):
    """T*P^n: columns e_1..e_n and -(e_1+..+e_n); the last hyperplane is
    shifted so that the bounded chamber is the standard simplex."""
    cols = [tuple(1 if r == i else 0 for r in range(n)) for i in range(n)]
    cols.append(tuple(-1 for _ in range(n)))
    return _document(f"tp{n}", n, cols, [0] * n + [1])


def weighted_cotangent():
    """T*P(1,1,2,3): columns with 1*b1 + 1*b2 + 2*b3 + 3*b4 = 0."""
    cols = [(-1, -2, -3), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return _document("tp1123", 3, cols, [1, 0, 0, 0])


def random_rung(rng, d, m, name):
    for _ in range(MAX_DRAWS):
        cols = []
        for _ in range(m):
            v = tuple(rng.randint(-2, 2) for _ in range(d))
            if not any(v):
                v = (1,) + (0,) * (d - 1)
            cols.append(v)
        psi = [rng.randint(-4, 4) for _ in range(m)]
        doc = _document(name, d, cols, psi)
        if doc is not None:
            return doc
    raise RuntimeError(f"no valid {name} in {MAX_DRAWS} draws")


def ladder(seed):
    """All generated documents, keyed by rung name, in a fixed order."""
    docs = [cotangent_projective(n) for n in (2, 3, 4)] + [weighted_cotangent()]
    rng = random.Random(seed)
    for d, m in RANDOM_RUNGS:
        docs.append(random_rung(rng, d, m, f"d{d}m{m}"))
    for d, m in PROBE_RUNGS:
        docs.append(random_rung(rng, d, m, f"probe-d{d}m{m}"))
    return {doc["name"]: doc for doc in docs}


def write_ladder(seed, out):
    os.makedirs(out, exist_ok=True)
    for name, doc in ladder(seed).items():
        with open(os.path.join(out, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=DEFAULT_OUT)
    args = p.parse_args(argv)
    write_ladder(args.seed, args.out)


if __name__ == "__main__":
    main()
