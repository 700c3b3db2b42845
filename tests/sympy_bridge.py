"""The tests' bridge from the library's exact values to sympy, the oracle
they are checked against.  The library itself never imports sympy."""

from __future__ import annotations

import sympy
from sympy.polys.matrices import DomainMatrix


def poly_to_sympy(p):
    """A ``Poly`` as a sympy expression in the plain symbols of its ring's names."""
    symbols = [sympy.Symbol(name) for name in p.ring.names]
    terms = []
    for m, c in p.terms.items():
        powers = [x**e for x, e in zip(symbols, m) if e]
        terms.append(sympy.Mul(sympy.Rational(c.numerator, c.denominator), *powers))
    return sympy.Add(*terms)


def det(matrix):
    """The determinant of an ``IntMatrix``, by sympy's elimination over ZZ."""
    rows = [[sympy.ZZ(x) for x in row] for row in matrix.entries]
    return int(DomainMatrix(rows, matrix.shape, sympy.ZZ).det())


def rational_to_sympy(value):
    """A ``RationalFunction`` as a sympy quotient."""
    return poly_to_sympy(value.numerator) / poly_to_sympy(value.denominator)
