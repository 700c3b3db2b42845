from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hypertoric.polynomials import PolyRing, divide_linear


def _random_poly(rng, ring, terms, degree):
    out = ring.zero()
    for _ in range(terms):
        exps = [0] * len(ring.names)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(ring.names))] += 1
        out = out + ring.monomial(exps, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return out


def test_divide_linear_identity_and_exactness():
    ring = PolyRing(["x", "y", "z"])
    x, y, z = (ring.var(n) for n in ring.names)
    rng = random.Random(7)
    forms = (y - 2 * x, Fraction(1, 3) * z + y, x + 1, 3 * z)
    for form in forms:
        pivot = min(form.support())
        for _ in range(20):
            p = _random_poly(rng, ring, rng.randint(0, 5), 4)
            q, r = divide_linear(p, form)
            assert q * form + r == p
            assert pivot not in r.support()
            # a multiple of the form divides exactly, with the cofactor back
            q2, r2 = divide_linear(p * form, form)
            assert r2.is_zero() and q2 == p


def test_divide_linear_rejects_nonlinear_divisor():
    ring = PolyRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    with pytest.raises(ValueError):
        divide_linear(x * y, x * y)
    with pytest.raises(ValueError):
        divide_linear(x, ring.const(2))
