from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hypertoric.polynomials import Poly, PolyRing, RationalFunction, divide_linear, sympy_str
from sympy_bridge import poly_to_sympy


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


# The Fraction-accumulating kernel that int coefficients replaced, on bare
# term dicts: the reference the kernel is checked against below.


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c != 0}


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _ref_scale(a, c):
    c = Fraction(c)
    return {m: v * c for m, v in a.items()} if c else {}


def _ref_pow(a, n, zero_mono):
    out = {zero_mono: Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a, subs, zero_mono):
    """``subs`` maps a variable index to a term dict."""
    out = {}
    for m, c in a.items():
        term = {zero_mono: Fraction(c)}
        for i, e in enumerate(m):
            if i in subs:
                factor = _ref_pow(subs[i], e, zero_mono)
            else:
                factor = {tuple(e if j == i else 0 for j in range(len(m))): Fraction(1)}
            term = _ref_mul(term, factor)
        out = _ref_add(out, term)
    return out


def _mixed_coeff(rng):
    """An int, a proper Fraction or an integral Fraction such as 4/2."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-6, 6)
    if kind == 1:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Fraction(2 * rng.randint(-3, 3), 2)


def _mixed_poly(rng, ring, terms, degree):
    out = {}
    for _ in range(terms):
        exps = [0] * len(ring.names)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(ring.names))] += 1
        out[tuple(exps)] = _mixed_coeff(rng)
    return Poly(ring, out)


def _assert_exact(p):
    kinds = {type(c) for c in p.terms.values()}
    assert kinds <= {int, Fraction}, p.terms


def test_kernel_matches_sympy_and_fraction_reference():
    """Ring operations on mixed int/Fraction coefficients agree with sympy's
    expansion and with the Fraction-accumulating reference kernel, and no
    result holds a float (int / int would make one)."""
    import sympy

    rng = random.Random(1212)
    ring = PolyRing(["x", "y", "z"])
    zero = ring._zero_mono
    syms = [sympy.Symbol(n) for n in ring.names]
    S = poly_to_sympy

    def check(result, expected_expr, expected_terms):
        _assert_exact(result)
        assert sympy.expand(S(result) - expected_expr) == 0, result
        assert result.terms == expected_terms, result

    seen = {"integral fraction": 0, "fraction result": 0, "nonzero remainder": 0}
    for _ in range(60):
        a = _mixed_poly(rng, ring, rng.randint(0, 4), 3)
        b = _mixed_poly(rng, ring, rng.randint(0, 4), 3)
        c = _mixed_coeff(rng)
        n = rng.randint(0, 3)
        seen["integral fraction"] += any(
            type(v) is Fraction and v.denominator == 1 for v in (*a.terms.values(), c)
        )
        check(a + b, S(a) + S(b), _ref_add(a.terms, b.terms))
        check(a - b, S(a) - S(b), _ref_add(a.terms, _ref_scale(b.terms, -1)))
        check(a * b, S(a) * S(b), _ref_mul(a.terms, b.terms))
        check(a**n, S(a) ** n, _ref_pow(a.terms, n, zero))
        check(a * c, S(a) * sympy.Rational(c), _ref_scale(a.terms, c))
        check(c * a, S(a) * sympy.Rational(c), _ref_scale(a.terms, c))
        check(a + c, S(a) + sympy.Rational(c), _ref_add(a.terms, _ref_scale({zero: 1}, c)))

        i = rng.randrange(3)
        value = b if rng.random() < 0.7 else c
        sub = a.substitute({ring.names[i]: value})
        sub_terms = value.terms if isinstance(value, Poly) else _ref_scale({zero: 1}, value)
        check(
            sub,
            S(a).xreplace({syms[i]: S(value) if isinstance(value, Poly) else sympy.Rational(value)}),
            _ref_substitute(a.terms, {i: sub_terms}, zero),
        )

        def halve_odd(mono, coeff):
            return None if mono[i] == 1 else (coeff * Fraction(1, 2) if mono[i] % 2 else coeff)

        mapped = a.map_terms(halve_odd)
        kept = {m: v for m, v in a.terms.items() if m[i] != 1}
        check(
            mapped,
            sum((S(Poly(ring, {m: halve_odd(m, v)})) for m, v in kept.items()), sympy.Integer(0)),
            {m: halve_odd(m, v) for m, v in kept.items()},
        )
        seen["fraction result"] += any(type(v) is Fraction for v in (a * b).terms.values())

        # a linear form whose pivot coefficient is an int, an integral
        # Fraction or a proper one; p = q * form + r with r free of the pivot
        pivot = rng.randrange(3)
        lead = rng.choice((rng.choice((-3, -2, 2, 3)), Fraction(-4, 2), Fraction(2, 3)))
        form = ring.monomial(tuple(int(j == pivot) for j in range(3)), lead)
        for j in range(pivot + 1, 3):
            form = form + ring.monomial(tuple(int(k == j) for k in range(3)), _mixed_coeff(rng))
        form = form + rng.choice((0, 1, Fraction(-1, 3)))
        q, r = divide_linear(a, form)
        _assert_exact(q)
        _assert_exact(r)
        assert pivot not in r.support()
        assert _ref_add(_ref_mul(q.terms, form.terms), r.terms) == a.terms
        gens = [syms[pivot]] + [s for j, s in enumerate(syms) if j != pivot]
        sq, sr = sympy.div(S(a), S(form), *gens)
        assert sympy.expand(S(q) - sq) == 0 and sympy.expand(S(r) - sr) == 0
        seen["nonzero remainder"] += not r.is_zero()
    assert min(seen.values()) >= 10, seen


def test_float_coefficients_are_refused():
    """A float's exact binary value is rarely the number meant, so every
    way a scalar enters a polynomial refuses one."""
    ring = PolyRing(["x", "y"])
    p = ring.var("x") + 1
    for make in (
        lambda: ring.const(0.5),
        lambda: p * 0.5,
        lambda: 0.5 * p,
        lambda: p + 0.5,
        lambda: p - 1 / 3,
        lambda: ring.monomial((1, 0), 0.5),
    ):
        with pytest.raises(TypeError):
            make()
    assert ring.const(Fraction(1, 2)).constant_value() == Fraction(1, 2)


def test_monomial_refuses_negative_and_non_integral_exponents():
    """An exponent is a nonnegative integer: a float is refused as a float
    coefficient is, and a negative or fractional one is refused rather than
    truncated or stored for the printers to misread."""
    ring = PolyRing(["x", "y"])
    with pytest.raises(TypeError):
        ring.monomial((1.5, 0))
    with pytest.raises(TypeError):
        ring.monomial((1.0, 0))
    for exps in ((-1, 2), (0, Fraction(1, 2)), (Fraction(-2), 0)):
        with pytest.raises(ValueError):
            ring.monomial(exps)
    assert ring.monomial((Fraction(2), True)) == ring.var("x") ** 2 * ring.var("y")
    assert str(ring.monomial((0, 2), 3)) == "3*y^2"


def test_rational_function_prints_and_compares_as_sympy():
    """Values in lowest terms print as sympy's str of their cancelled
    quotient: integer sides without common content, the leading
    denominator coefficient positive in sympy's generator order (x before
    hbar, lam2 before lam10), a constant denominator divided in.  Equality
    is cross-multiplication."""
    import sympy

    from sympy_bridge import rational_to_sympy

    ring = PolyRing(["x", "y", "hbar", "lam10", "lam2"])
    x, y, hbar, lam10, lam2 = (ring.var(n) for n in ring.names)
    one = ring.one()
    half = Fraction(1, 2)
    cases = [
        (x * Fraction(3, 2) + Fraction(3, 2), x),
        (3 * x, 2 * y),
        (x + 1, x - 2 * y),
        (x + 1, 2 * y - x),
        (-one, x * y),
        (2 * one, 3 * x),
        (x + 1, x**2),
        (-one, x**2),
        (one, x),
        (one, x + 1),
        (-x - 1, 2 * y),
        (half * (hbar - x), x * y),
        (Fraction(1, 3) * x + Fraction(1, 2) * hbar, Fraction(-2, 5) * lam10 + lam2),
        (1 - hbar, x),
        (x**2 * y, 2 * hbar),
        (6 * x + 6, 4 * x + 8 * y),
        (x + y, 3 * one),
        (Fraction(-3, 2) * x, 2 * one),
        (ring.zero(), one),
    ]
    for num, den in cases:
        value = RationalFunction(num, den)
        expected = sympy.cancel(sympy.together(rational_to_sympy(value)))
        assert str(value) == str(expected), (num, den)
    a = RationalFunction(x + 1, 2 * y)
    b = RationalFunction(3 * x + 3, 6 * y)
    assert a == b and a != RationalFunction(x, 2 * y)
    assert a * 2 == RationalFunction(x + 1, y) == 2 * a
    assert a + a == 2 * a and Fraction(0) + a == a and a + a * -1 == 0
    assert a * a == RationalFunction((x + 1) ** 2, 4 * y**2)
    assert RationalFunction(2 * y, 2 * y) == 1 and RationalFunction(x, x) + half == 3 * half
