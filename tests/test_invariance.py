"""Answers do not depend on how the input is written.

Two rewritings of each shipped example and non-probe ladder rung describe
the same stacky arrangement: a relabelling of the hyperplanes (beta
columns and psi permuted, theta recomputed from psi) and, at rank >= 2, a
change of lattice basis (row 1 of beta plus 3 times row 0).  The bases,
the circuits with their weights and sides, the boxes of each cone and
the number of bounded chambers must map exactly.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from hypertoric.arrangement import StackyArrangement
from hypertoric.exactalg import FgAbelianGroup, GroupHom, IntMatrix, gale_dual
from hypertoric.multifan import box_elements, circuits

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted(ROOT.glob("arrangements/*.json")) + [
    path for path in sorted(ROOT.glob("bench/ladder/*.json")) if not path.stem.startswith("probe-")
]


def rewritten(doc: dict, columns, psi) -> StackyArrangement:
    """``doc`` with new beta columns and psi, and theta = -beta_dual(psi)
    reduced in the new dual group."""
    group = FgAbelianGroup(doc["rank"], tuple(doc["torsion"]))
    beta = GroupHom(FgAbelianGroup(len(columns)), group, IntMatrix.from_rows(tuple(zip(*columns))))
    dual = gale_dual(beta)
    theta = dual.target.reduce_vector(tuple(-x for x in dual.matrix.apply(psi)))
    return StackyArrangement.from_data({**doc, "beta": columns, "psi": psi, "theta": theta})


def invariants(arr: StackyArrangement, label) -> tuple:
    """Bases, signed circuit weights, the box profiles of each cone and the
    bounded chamber count, with hyperplane i written as ``label[i]``."""
    bases = {frozenset(label[i] for i in basis) for basis in arr.bases}
    sides = {
        frozenset((label[i], w, c.sign_of(i)) for i, w in zip(c.support, c.weights)) for c in circuits(arr)
    }
    boxes = Counter(frozenset((label[i], a) for i, a in b.alphas) for b in box_elements(arr))
    return bases, sides, boxes, len(arr.bounded_chambers())


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_relabelling_the_hyperplanes(path):
    doc = json.loads(path.read_text())
    m = len(doc["beta"])
    perm = list(range(m))
    random.Random(path.stem).shuffle(perm)  # new hyperplane j is old perm[j]
    arr = StackyArrangement.from_data(doc)
    relabelled = rewritten(doc, [doc["beta"][p] for p in perm], [arr.psi[p] for p in perm])
    assert perm != list(range(m)) or m < 3
    assert invariants(relabelled, perm) == invariants(arr, range(m))


@pytest.mark.parametrize(
    "path", [p for p in DOCUMENTS if json.loads(p.read_text())["rank"] >= 2], ids=lambda p: p.stem
)
def test_changing_the_lattice_basis(path):
    doc = json.loads(path.read_text())
    arr = StackyArrangement.from_data(doc)
    columns = [[c[0], c[1] + 3 * c[0], *c[2:]] for c in doc["beta"]]
    assert invariants(rewritten(doc, columns, arr.psi), range(arr.m)) == invariants(arr, range(arr.m))
