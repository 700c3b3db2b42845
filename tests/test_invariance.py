"""Answers do not depend on how the input is written.

Two rewritings of each shipped example, non-probe ladder rung and
``rank3_family`` arrangement describe the same stacky arrangement: a
relabelling of the hyperplanes (beta columns and psi permuted, theta
recomputed from psi) and, at rank >= 2, a change of lattice basis (row 1
of beta plus 3 times row 0).  The bases, the circuits with their weights
and sides, the boxes of each cone and the number of bounded chambers
must map exactly.  The Gale dual arrangement has the complementary bases,
and its circuits are the cocircuits: the minimal sets meeting every basis.
Each shipped example with a torsion factor Z/q added keeps the
relabelling check, and multiplying its torsion row by a unit u mod q
maps the invariants exactly and each box's torsion coordinates by u.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from hypertoric.arrangement import ArrangementError, NonGenericTheta, StackyArrangement
from hypertoric.examples_data import example_document, example_names
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


def assert_relabelling_holds(doc: dict, seed):
    m = len(doc["beta"])
    perm = list(range(m))
    random.Random(seed).shuffle(perm)  # new hyperplane j is old perm[j]
    arr = StackyArrangement.from_data(doc)
    relabelled = rewritten(doc, [doc["beta"][p] for p in perm], [arr.psi[p] for p in perm])
    assert perm != list(range(m)) or m < 3
    assert invariants(relabelled, perm) == invariants(arr, range(m))


def assert_basis_change_holds(doc: dict):
    arr = StackyArrangement.from_data(doc)
    columns = [[c[0], c[1] + 3 * c[0], *c[2:]] for c in doc["beta"]]
    assert invariants(rewritten(doc, columns, arr.psi), range(arr.m)) == invariants(arr, range(arr.m))


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_relabelling_the_hyperplanes(path):
    assert_relabelling_holds(json.loads(path.read_text()), path.stem)


@pytest.mark.parametrize(
    "path", [p for p in DOCUMENTS if json.loads(p.read_text())["rank"] >= 2], ids=lambda p: p.stem
)
def test_changing_the_lattice_basis(path):
    assert_basis_change_holds(json.loads(path.read_text()))


def test_rewritings_of_the_rank3_family(rank3_family):
    for n, arr in enumerate(rank3_family):
        doc = {
            "rank": 3,
            "torsion": [],
            "beta": [arr.beta.column(j) for j in range(arr.m)],
            "theta": arr.theta,
            "psi": arr.psi,
        }
        assert_relabelling_holds(doc, n)
        assert_basis_change_holds(doc)


def with_torsion(name: str):
    """Shipped example ``name`` with a torsion factor Z/q added, q drawn from
    {3, 4, 5} so that a unit u != 1 exists, and the torsion row drawn until
    ``rewritten`` accepts it, psi kept: its document and arrangement."""
    doc = example_document(name)
    rng = random.Random(name)
    q = rng.choice((3, 4, 5))
    psi = StackyArrangement.from_data(doc).psi
    for _ in range(20):
        columns = [[*column, rng.randrange(q)] for column in doc["beta"]]
        torsion_doc = {**doc, "torsion": [q], "beta": columns}
        try:
            arr = rewritten(torsion_doc, columns, psi)
        except ArrangementError:
            continue
        return {**torsion_doc, "theta": arr.theta, "psi": psi}, arr
    raise AssertionError("no torsion row accepted in 20 draws")


@pytest.mark.parametrize("name", example_names())
def test_a_torsion_factor(name):
    """A unit u mod q is an automorphism of Z^d + Z/q, so multiplying the
    torsion row by it changes no invariant and multiplies the torsion
    coordinates of each box by u.  Each face's boxes carry every torsion
    value mod q, so the box sets compared are left alone by any
    permutation of those values: that part checks their shape."""
    doc, arr = with_torsion(name)
    assert_relabelling_holds(doc, name)
    (q,) = doc["torsion"]
    boxes = {(b.sigma, b.alphas, b.v_torsion) for b in box_elements(arr)}
    assert any(any(v) for _, _, v in boxes)
    for u in (u for u in range(1, q) if math.gcd(u, q) == 1):
        columns = [[*column[:-1], column[-1] * u % q] for column in doc["beta"]]
        scaled = rewritten(doc, columns, arr.psi)
        assert invariants(scaled, range(arr.m)) == invariants(arr, range(arr.m))
        mapped = {(sigma, alphas, tuple(t * u % q for t in v)) for sigma, alphas, v in boxes}
        assert {(b.sigma, b.alphas, b.v_torsion) for b in box_elements(scaled)} == mapped, u


def gale_dual_arrangement(arr: StackyArrangement, rng: random.Random) -> StackyArrangement:
    """The arrangement of ``arr.beta_dual``, with psi drawn from ``rng`` in
    [-50, 50] until it is generic."""
    group = arr.beta_dual.target
    doc = {"rank": group.rank, "torsion": group.torsion_invariants}
    columns = [arr.beta_dual.column(j) for j in range(arr.m)]
    for _ in range(20):
        try:
            return rewritten(doc, columns, [rng.randint(-50, 50) for _ in range(arr.m)])
        except NonGenericTheta:
            continue
    raise AssertionError("no generic psi in 20 draws")


def dual_rank(path) -> int:
    doc = json.loads(path.read_text())
    return len(doc["beta"]) - doc["rank"]


@pytest.mark.parametrize("path", [p for p in DOCUMENTS if dual_rank(p) <= 6], ids=lambda p: p.stem)
def test_the_gale_dual(path):
    """The dual's bases are the complements of the bases, and its circuits
    are the cocircuits: each meets every basis and is minimal with that
    property (Proudfoot's survey; Braden-Licata-Proudfoot-Webster 2010).
    The cocircuits are found by trying every subset of the hyperplanes."""
    arr = StackyArrangement.from_data(json.loads(path.read_text()))
    dual = gale_dual_arrangement(arr, random.Random(path.stem))
    bases = [frozenset(basis) for basis in arr.bases]
    assert {frozenset(range(arr.m)) - frozenset(basis) for basis in dual.bases} == set(bases)

    def meets_every_basis(subset):
        return all(subset & basis for basis in bases)

    subsets = (frozenset(s) for k in range(1, arr.m + 1) for s in itertools.combinations(range(arr.m), k))
    cocircuits = {
        s for s in subsets if meets_every_basis(s) and not any(meets_every_basis(s - {i}) for i in s)
    }
    assert {frozenset(circuit.support) for circuit in circuits(dual)} == cocircuits
