"""The arrangement's basis table and the layers that read it, against
oracles that decide independence on their own: a Laplace determinant per
d-subset, a rank per subset, and the Smith form of each Lawrence cone."""

from __future__ import annotations

import itertools
from math import prod

import pytest

from hypertoric.exactalg import IntMatrix, rational_rank, smith_normal_form
from hypertoric.lawrence import build_lawrence_fan
from hypertoric.multifan import circuits


@pytest.fixture(scope="module")
def wide(shipped, ladder, rank3_family):
    """The shipped examples, every ladder rung and the seeded rank-3 family."""
    return [*shipped.values(), *ladder.values(), *rank3_family]


def laplace_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def independent(arr, subset):
    return rational_rank([arr.b_bar(i) for i in subset]) == len(subset)


def rank_enumeration(arr):
    """Reference cone table: one rank per subset of size at most d."""
    out = [()]
    for size in range(1, arr.d + 1):
        out.extend(s for s in itertools.combinations(range(arr.m), size) if independent(arr, s))
    return tuple(out)


def test_bases_are_the_nonsingular_d_subsets(wide):
    for arr in wide:
        subsets = itertools.combinations(range(arr.m), arr.d)
        want = [s for s in subsets if laplace_det([list(arr.b_bar(i)) for i in s])]
        assert list(arr.bases) == want
        for basis, (inverse, s) in arr.bases.items():
            assert s > 0
            rows = [arr.b_bar(i) for i in basis]
            product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in rows]
            assert product == [[s * (i == j) for j in range(arr.d)] for i in range(arr.d)]


def test_cones_match_the_rank_enumeration(wide):
    for arr in wide:
        assert arr.cones == rank_enumeration(arr)
        for size in range(arr.d + 2):
            for subset in itertools.combinations(range(arr.m), size):
                assert arr.is_cone(reversed(subset)) == (size <= arr.d and independent(arr, subset))


def test_circuits_are_the_minimal_dependent_sets(wide):
    for arr in wide:
        want = [
            s
            for size in range(2, arr.d + 2)
            for s in itertools.combinations(range(arr.m), size)
            if not independent(arr, s)
            and all(independent(arr, f) for f in itertools.combinations(s, size - 1))
        ]
        assert [c.support for c in circuits(arr)] == want


def test_lawrence_cones_read_the_bases(wide):
    """Each maximal cone's two-sided set is a basis; its lattice index is
    the product of the Smith diagonal of its full ray matrix; and a point
    with distinct positive weights on its rays is located in it with
    those weights."""
    for arr in wide:
        fan = build_lawrence_fan(arr)
        m = arr.m
        for cone in fan.max_cones:
            assert tuple(i for i in range(m) if i in cone and m + i in cone) in arr.bases
            _, D, _ = smith_normal_form(IntMatrix.from_rows(tuple(zip(*(fan.rays[r] for r in cone)))))
            assert fan.cone_index(cone) == prod(D[i, i] for i in range(len(cone)))
            weights = {r: k + 1 for k, r in enumerate(cone)}
            point = [sum(w * fan.rays[r][t] for r, w in weights.items()) for t in range(len(fan.rays[0]))]
            located = fan.locate(point)
            assert located.max_cone == cone
            assert located.coefficients == weights
