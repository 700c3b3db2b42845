from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from hypertoric.arrangement import StackyArrangement, check_generic
from hypertoric.examples_data import example_document, example_names
from hypertoric.exactalg import FgAbelianGroup, GroupHom, IntMatrix, gale_dual

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder"


@pytest.fixture(scope="session")
def shipped():
    """All shipped example arrangements, keyed by catalog name."""
    return {
        name: StackyArrangement.from_data(example_document(name))
        for name in example_names()
    }


@pytest.fixture(scope="session")
def tp1(shipped):
    return shipped["cotangent-p1"]


@pytest.fixture(scope="session")
def tp12(shipped):
    return shipped["cotangent-p12"]


@pytest.fixture(scope="session")
def hirzebruch(shipped):
    return shipped["hirzebruch"]


@pytest.fixture(scope="session")
def hirzebruch_weighted(shipped):
    return shipped["hirzebruch-weighted"]


@pytest.fixture(scope="session")
def ladder():
    """Every rung of the benchmark ladder, probes included, keyed by name."""
    return {
        path.stem: StackyArrangement.from_data(json.loads(path.read_text()))
        for path in sorted(LADDER.glob("*.json"))
    }


@pytest.fixture(scope="session")
def rank3_family():
    """Seeded generic rank-3 arrangements with m <= 7, entries in [-3, 3]."""
    rng = random.Random(7)
    out = []
    while len(out) < 8:
        m = rng.randint(4, 7)
        cols = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(m)]
        beta = GroupHom(
            FgAbelianGroup(m), FgAbelianGroup(3), IntMatrix.from_rows(tuple(zip(*cols)))
        )
        psi = tuple(rng.randint(-4, 4) for _ in range(m))
        try:
            dual = gale_dual(beta)
            theta = tuple(-x for x in dual.matrix.apply(psi))
            if check_generic(dual, theta):
                out.append(StackyArrangement.build(FgAbelianGroup(3), cols, theta, psi))
        except ValueError:  # not a valid generic input
            continue
    return out


@pytest.fixture(scope="session")
def a_n():
    """The A_{m-1} surfaces for m = 2..16, keyed by m: d = 1, m points on a
    line, beta = [[1]] x m, psi = (0, 1, ..., m - 1), theta = -beta_dual(psi)."""
    out = {}
    for m in range(2, 17):
        cols = [(1,)] * m
        psi = tuple(range(m))
        dual = gale_dual(GroupHom(FgAbelianGroup(m), FgAbelianGroup(1), IntMatrix.from_rows([(1,) * m])))
        theta = tuple(-x for x in dual.matrix.apply(psi))
        out[m] = StackyArrangement.build(FgAbelianGroup(1), cols, theta, psi)
    return out
