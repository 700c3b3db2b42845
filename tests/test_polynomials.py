from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hypertoric.polynomials import Poly, PolyRing, divide_linear, poly_to_sympy, sympy_str


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


def test_sympy_str_matches_sympy():
    """The printer agrees with sympy's str on seeded polynomials in the
    localization rings: 1-12 slots (so names such as lam10 sort before
    lam2), mixed degrees, rational coefficients, constants and the
    two-term constant-first case."""
    rng = random.Random(20151)
    seen = {"zero": 0, "constant": 0, "fraction": 0, "constant first": 0, "lam10": 0}
    for _ in range(5000):
        k = rng.randint(1, 12)
        names = [f"u{i + 1}" for i in range(k)] + ["hbar"] + [f"lam{i + 1}" for i in range(k)]
        ring = PolyRing(names)
        if rng.random() < 0.2:  # a positive constant and a negative power of one variable
            i = rng.randrange(len(names))
            mono = tuple(rng.randint(1, 3) if j == i else 0 for j in range(len(names)))
            c = Fraction(rng.randint(-5, -1), rng.choice((1, 2, 3)))
            p = ring.monomial(mono, c) + Fraction(rng.randint(1, 5), rng.choice((1, 2)))
        else:
            p = _random_poly(rng, ring, rng.randint(0, 5), rng.randint(0, 4))
            p = p + rng.choice((0, 0, 1, -1, Fraction(rng.randint(-4, 4), rng.randint(1, 4))))
        text = sympy_str(p)
        assert text == str(poly_to_sympy(p)), p.terms
        seen["zero"] += text == "0"
        seen["constant"] += p.is_constant() and not p.is_zero()
        seen["fraction"] += "/" in text
        seen["constant first"] += len(p.terms) == 2 and text[0].isdigit() and " - " in text
        seen["lam10"] += "lam10" in text
    assert min(seen.values()) >= 20, seen


def test_sympy_str_examples():
    ring = PolyRing(["u1", "hbar", "lam1", "lam2", "lam10"])
    u1, hbar, lam2, lam10 = (ring.var(n) for n in ("u1", "hbar", "lam2", "lam10"))
    assert sympy_str(Poly(ring, {})) == "0"
    assert sympy_str(1 - hbar) == "1 - hbar"
    assert sympy_str(Fraction(1, 2) - hbar ** 2) == "1/2 - hbar**2"
    assert sympy_str(1 - hbar * u1) == "-hbar*u1 + 1"
    assert sympy_str(lam2 + lam10) == "lam10 + lam2"
    assert sympy_str(Fraction(-3, 2) * u1 * hbar ** 2 + Fraction(1, 3)) == "-3*hbar**2*u1/2 + 1/3"
