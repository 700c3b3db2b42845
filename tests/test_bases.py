"""The arrangement's basis table and the layers that read it, against
oracles that decide independence on their own: a Laplace determinant per
d-subset, a rank per subset, an inverse per d-subset (the reference for
the exchange walk) and the Smith form of each Lawrence cone."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from hypertoric.arrangement import NonGenericTheta, StackyArrangement
from hypertoric.exactalg import (
    ExactAlgError,
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    gale_dual,
    kernel_basis,
    rational_rank,
    row_reduce,
    smith_normal_form,
)
from hypertoric.lawrence import build_lawrence_fan
from hypertoric.multifan import circuits
from test_arrangement import raw_arrangement
from test_multifan import scan_circuits, z_plus_z2


@pytest.fixture(scope="module")
def wide(shipped, ladder, rank3_family):
    """The shipped examples, every ladder rung and the seeded rank-3 family."""
    return [*shipped.values(), *ladder.values(), *rank3_family]


def seeded_draws(rank, count, seed, max_m=12):
    """Seeded generic arrangements of the given rank with m <= max_m,
    entries in [-2, 2] (so many d-subsets are singular) and psi in
    [-1000, 1000]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(rank + 1, max_m)
        cols = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(m)]
        psi = tuple(rng.randint(-1000, 1000) for _ in range(m))
        group = FgAbelianGroup(rank)
        try:
            dual = gale_dual(GroupHom(FgAbelianGroup(m), group, IntMatrix.from_rows(tuple(zip(*cols)))))
            theta = tuple(-x for x in dual.matrix.apply(psi))
            out.append(StackyArrangement.build(group, cols, theta, psi))
        except (ExactAlgError, NonGenericTheta):  # a zero column, an infinite cokernel or a wall
            continue
    return out


@pytest.fixture(scope="module")
def walked(wide, a_n):
    """Every arrangement the exchange walk is checked on: ``wide``, the
    A_n family and seeded rank-4 and rank-5 draws with m <= 12."""
    return [*wide, *a_n.values(), *seeded_draws(4, 4, seed=29), *seeded_draws(5, 3, seed=31)]


def square_arrangements():
    """Arrangements with m = d: one basis, a finite dual group (trivial for
    the unimodular one) and no relations among the normals."""
    out = []
    for cols, psi in (([(1, 0), (0, 1)], (3, -2)), ([(2, 1), (1, 3)], (5, -7)), ([(2,)], (1,)),
                      ([(1, 1, 0), (0, 2, 1), (1, 0, 3)], (1, 2, -4))):
        group = FgAbelianGroup(len(cols))
        dual = gale_dual(GroupHom(group, group, IntMatrix.from_rows(tuple(zip(*cols)))))
        theta = tuple(-x for x in dual.matrix.apply(psi))
        out.append(StackyArrangement.build(group, cols, theta, psi))
    return out


def tableau_vertex_values(arr):
    """Reference vertex values, one pass per tableau row: per basis B the
    vertex -A psi_B and the values s psi_j - sum_k X[k][j] psi_{B_k}."""
    psi, table = arr.psi, {}
    for tight, (inverse, scale) in arr.bases.items():
        weights = [psi[i] for i in tight]
        point = tuple(-sum(a * w for a, w in zip(row, weights)) for row in inverse)
        values = [scale * p for p in psi]
        for w, row in zip(weights, arr.tableau[tight]):
            if w:
                values = [v - w * x for v, x in zip(values, row)]
        table[tight] = point, values
    return table


def integer_inverse(rows):
    """``(A, s)`` with integer rows A, s > 0 and A / s the inverse of a square
    rational matrix (s = |det| for integers); None if singular."""
    n = len(rows)
    pivots, m, d = row_reduce(rows, [[int(i == j) for j in range(n)] for i in range(n)])
    if len(pivots) < n:
        return None
    sign = 1 if d > 0 else -1
    return tuple(tuple(sign * x for x in row[n:]) for row in m), sign * d


def subset_bases(arr):
    """Reference basis table: ``integer_inverse`` of every d-subset of the
    normals, in ``combinations`` order, the singular ones left out."""
    subsets = itertools.combinations(range(arr.m), arr.d)
    inverses = ((s, integer_inverse([arr.b_bar(i) for i in s])) for s in subsets)
    return {s: inverse for s, inverse in inverses if inverse is not None}


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


def test_circuits_match_the_scan_of_every_pair(walked):
    """``circuits`` builds a support's vector only the first time its
    bitmask is met; the reference scan builds one per (basis, j) pair.
    Both keep the first vector of each support, so the circuits are the
    scan's supports in (size, support) order, each with its vector signed
    to pair positively with psi."""
    repeated = 0
    for arr in walked:
        kernels, pairs = scan_circuits(arr)
        got = circuits(arr)
        assert [c.support for c in got] == sorted(kernels, key=lambda s: (len(s), s))
        for c in got:
            w = kernels[c.support]
            sign = 1 if sum(x * arr.psi[i] for i, x in zip(c.support, w)) > 0 else -1
            assert tuple(c.beta_S[i] for i in c.support) == tuple(sign * x for x in w)
        repeated += pairs - len(kernels)
    assert repeated > 1000


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


def test_integer_inverse_matches_sympy():
    """The reference inverse against sympy's, on seeded square int/Fraction
    matrices with entries in [-3, 3], a third of them made singular."""
    import sympy

    rng = random.Random(20151)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else rng.randint(-3, 3)

    counts = {"singular": 0, "regular": 0}
    for _ in range(300):
        k = rng.randint(1, 6)
        rows = [[entry() for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.33:
            coeffs = [rng.randint(-2, 2) for _ in rows[:-1]]
            rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), 0) for j in range(k)]
        entries = [Fraction(x) for row in rows for x in row]
        S = sympy.Matrix(k, k, [sympy.Rational(x.numerator, x.denominator) for x in entries])
        if S.det() == 0:
            counts["singular"] += 1
            assert integer_inverse(rows) is None
            continue
        counts["regular"] += 1
        inv = S.inv()
        got, s = integer_inverse(rows)
        assert s > 0 and all(type(x) is int for row in got for x in row)
        assert tuple(tuple(Fraction(x, s) for x in row) for row in got) == tuple(
            tuple(Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(k)) for i in range(k)
        )
    assert all(n >= 50 for n in counts.values()), counts


def test_exchange_walk_matches_the_subset_table(walked):
    """The walk over the basis-exchange graph finds every basis, with the
    inverse of one reduction per d-subset, in the same key order."""
    for arr in walked:
        want = subset_bases(arr)
        assert list(arr.bases.items()) == list(want.items())
        assert list(arr.tableau) == list(want)


def test_tableau_identities(walked):
    """Two identities that hold whatever the pivots: each column of the
    tableau combines the basis's normals into s times that normal, and a
    nonzero entry off the basis is the s of the exchanged basis, a zero one
    says the exchanged set is singular (both read against the subset table)."""
    checked = 0
    for arr in walked:
        want = subset_bases(arr)
        normals = [arr.b_bar(j) for j in range(arr.m)]
        for basis, rows in arr.tableau.items():
            scale = arr.bases[basis][1]
            assert len(rows) == arr.d and all(len(row) == arr.m for row in rows)
            for j, normal in enumerate(normals):
                combined = [sum(row[j] * normals[i][r] for i, row in zip(basis, rows)) for r in range(arr.d)]
                assert combined == [scale * x for x in normal]
                if j in basis:
                    continue
                for k, row in enumerate(rows):
                    exchanged = tuple(sorted(basis[:k] + basis[k + 1 :] + (j,)))
                    if row[j]:
                        assert want[exchanged][1] == abs(row[j])
                    else:
                        assert exchanged not in want
                    checked += 1
    assert checked > 10_000


def test_walk_vertex_values_match_the_tableau_formula(walked):
    """The objective row that the exchange walk pivots gives each basis's
    vertex and hyperplane values, in the order of ``bases``, as the
    tableau formula does."""
    count = 0
    for arr in [*walked, *square_arrangements()]:
        assert list(arr.vertex_values.items()) == list(tableau_vertex_values(arr).items())
        count += len(arr.bases)
    assert count > 1_500


def test_normal_kernel_is_the_kernel_of_the_normals(walked):
    """The normal kernel is the Hermite kernel basis of the normals: read off
    the free rows of ``beta_dual`` when N has no torsion (the dual group
    has torsion in some of ``walked``; ``raw_arrangement`` takes its
    ``beta_dual`` from ``gale_dual``), taken by ``kernel_basis`` when it
    has, and empty when m = d."""
    rank1_z3 = {"schema_version": "hypertoric-arrangement/1", "rank": 1, "torsion": [3],
                "beta": [[2, 0], [1, 1]], "theta": [3]}
    torsion = [z_plus_z2(), StackyArrangement.from_data(rank1_z3)]
    square = square_arrangements()
    for arr in [*walked, *square, *torsion]:
        assert arr.normal_kernel == kernel_basis(arr.beta.free_part())
    assert any(arr.beta_dual.target.torsion_invariants for arr in walked)
    assert all(arr.normal_kernel == () for arr in square)
    assert all(len(arr.normal_kernel) == arr.m - arr.d for arr in torsion)
    arr = raw_arrangement([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 1, 0, 1])
    assert arr.normal_kernel == ((1, 1, 0, 0), (0, 0, 1, 1))
    graph = arr._vertex_graph
    assert list(graph) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert [vertex.point for vertex in graph.values()] == [(0, 0), (0, 1), (1, 0), (1, 1)]
