"""Randomized end-to-end consistency checks on small planar arrangements.

Columns and lifts are drawn from a fixed seed; every arrangement that
passes the genericity gate is pushed through circuits, boxes, chambers,
the Lawrence fan and the orbifold ring, checking the structural
identities that must hold for any input.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypertoric.arrangement import StackyArrangement, check_generic
from hypertoric.crring import CohomologyContext, CRClass, cr_multiply
from hypertoric.exactalg import FgAbelianGroup, GroupHom, IntMatrix, gale_dual
from hypertoric.lawrence import build_lawrence_fan
from hypertoric.multifan import box_elements, box_inverse, circuits
from test_lawrence import l_vector


def random_arrangements(count=14, seed=99):
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 600:
        attempts += 1
        m = rng.randint(2, 5)
        cols = []
        for _ in range(m):
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
            if v == (0, 0):
                v = (1, 0)
            cols.append(v)
        beta = GroupHom(
            FgAbelianGroup(m), FgAbelianGroup(2), IntMatrix.from_rows(tuple(zip(*cols)))
        )
        try:
            dual = gale_dual(beta)
        except Exception:
            continue
        psi = tuple(rng.randint(-4, 4) for _ in range(m))
        theta = tuple(-x for x in dual.matrix.apply(psi))
        if not check_generic(dual, theta):
            continue
        try:
            out.append(StackyArrangement.build(FgAbelianGroup(2), cols, theta, psi))
        except Exception:
            continue
    assert len(out) == count
    return out


ARRANGEMENTS = random_arrangements()


def test_circuit_identities_random():
    for arr in ARRANGEMENTS:
        for c in circuits(arr):
            total = [0] * arr.d
            for i in c.support:
                s = c.sign_of(i) * c.weights[c.support.index(i)]
                for r in range(arr.d):
                    total[r] += s * arr.b_bar(i)[r]
            assert all(x == 0 for x in total)
            for drop in c.support:
                assert arr.is_cone(tuple(i for i in c.support if i != drop))
            assert all(x == 0 for x in arr.beta.free_part().apply(c.beta_S))


def test_box_identities_random():
    for arr in ARRANGEMENTS:
        for b in box_elements(arr):
            assert box_inverse(box_inverse(b, arr), arr) == b
            for i, a in b.alphas:
                assert 0 < a < 1
            for r in range(arr.d):
                total = sum(Fraction(arr.b_bar(i)[r]) * a for i, a in b.alphas)
                assert total == b.v_free[r]


def test_chamber_identities_random():
    for arr in ARRANGEMENTS:
        for chamber, fan in arr.core():
            verts = chamber.vertices()
            assert verts, "a bounded chamber must have vertices"
            assert len(fan.max_cones) == len(verts) or arr.d == 1


def test_lawrence_identities_random():
    for arr in ARRANGEMENTS:
        fan = build_lawrence_fan(arr)
        assert len(fan.rays) == 2 * arr.m
        for cone in fan.max_cones:
            assert len(cone) == arr.m + arr.d
        zero = tuple(0 for _ in fan.rays[0])
        for r in range(0, 2 * arr.m, max(1, arr.m // 2)):
            assert all(x == 0 for x in l_vector(fan, fan.ray_vector(r), zero))
        for cone in fan.max_cones[:2]:
            for a, b in itertools.combinations(cone[:3], 2):
                assert all(x == 0 for x in l_vector(fan, fan.ray_vector(a), fan.ray_vector(b)))


def test_orbifold_ring_commutes_random():
    for arr in ARRANGEMENTS[:6]:
        ctx = CohomologyContext(arr)
        gens = [CRClass.untwisted(ctx, ctx.u(i)) for i in range(arr.m)]
        gens += [
            CRClass.sector_unit(ctx, b) for b in ctx.boxes if not b.is_trivial()
        ][:3]
        for a, b in itertools.combinations(gens, 2):
            assert cr_multiply(a, b) == cr_multiply(b, a)
