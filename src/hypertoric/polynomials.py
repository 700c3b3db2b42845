"""Sparse multivariate polynomials with exact rational coefficients.

A tiny dedicated implementation rather than a CAS dependency: the
cohomology rings only ever need ring arithmetic plus reduction by
monomial ideals, and golden tests require a bit-stable canonical form
(graded lexicographic term order, exact coefficients).  The one rational
function the library prints, a localized integral, is a
``RationalFunction`` of two polynomials.

A coefficient is an int when integral, else a Fraction: nearly all
coefficients are integers, and int arithmetic runs in C.  Printing reads
only ``numerator``, ``denominator`` and comparisons, which both types
have, and ``1 == Fraction(1)`` with equal hashes, so term dicts compare
alike either way.  A product of Fractions may be an integral Fraction;
it prints and compares as the int would.  Division by a coefficient
starts from ``Fraction(1)``, since int / int is a float.  A float is
refused: its exact binary value is rarely the number meant.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add


def _exact(c):
    """``Fraction(c)``, returned as an int when it is integral; an int is
    returned as it is."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _exponent(e) -> int:
    """``e`` as an int; a float, a negative or a non-integral exponent raises."""
    if isinstance(e, float):
        raise TypeError(f"inexact exponent {e!r}")
    n = int(e)
    if n != e or n < 0:
        raise ValueError(f"exponent {e!r} is not a nonnegative integer")
    return n


class PolyRing:
    """A fixed, ordered tuple of variable names."""

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.index = {n: i for i, n in enumerate(self.names)}
        self._zero_mono = tuple(0 for _ in self.names)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"PolyRing{self.names}"

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = _exact(c)
        if c == 0:
            return self.zero()
        return Poly(self, {self._zero_mono: c})

    def var(self, name: str) -> "Poly":
        mono = list(self._zero_mono)
        mono[self.index[name]] = 1
        return Poly(self, {tuple(mono): 1})

    def monomial(self, exps, coeff=1) -> "Poly":
        exps = tuple(map(_exponent, exps))
        if len(exps) != len(self.names):
            raise ValueError("exponent tuple has wrong length")
        c = _exact(coeff)
        return Poly(self, {exps: c} if c else {})


def _mono_key(mono):
    # graded lex, largest first when sorted with reverse=True
    return (sum(mono), mono)


class Poly:
    """A polynomial of ``ring``: exponent tuple -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict | None = None):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get(self.ring._zero_mono, 0)

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _exact(other)
            return Poly(self.ring, {m: v * c for m, v in self.terms.items()})
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        return (self - self.ring.const(other)).is_zero()

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- structure ----------------------------------------------------------

    def support(self, indices=None):
        """Variable indices occurring in some term (optionally filtered)."""
        out = {i for m in self.terms for i, e in enumerate(m) if e}
        return out if indices is None else out & set(indices)

    def substitute(self, assignment: dict) -> "Poly":
        """Substitute polynomials or scalars for named variables."""
        ring = self.ring
        subs = {ring.index[n]: v if isinstance(v, Poly) else ring.const(v) for n, v in assignment.items()}
        out = {}
        for m, c in self.terms.items():
            term = Poly(ring, {tuple(0 if i in subs else e for i, e in enumerate(m)): c})
            for i, e in enumerate(m):
                if e and i in subs:
                    term = term * subs[i] ** e
            for k, v in term.terms.items():
                out[k] = out[k] + v if k in out else v
        return Poly(ring, out)

    def map_terms(self, fn) -> "Poly":
        """Rebuild from ``fn(mono, coeff) -> coeff or None`` (None drops)."""
        out = {}
        for m, c in self.terms.items():
            v = fn(m, c)
            if v:
                out[m] = v
        return Poly(self.ring, out)

    # -- printing -----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: _mono_key(mc[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(_fmt_coeff(coeff, lead=not parts))
                continue
            if coeff == 1:
                prefix = "" if not parts else "+ "
            elif coeff == -1:
                prefix = "-" if not parts else "- "
            else:
                prefix = _fmt_coeff(coeff, lead=not parts) + "*"
            parts.append(prefix + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def _fmt_coeff(c: int | Fraction, lead: bool) -> str:
    s = str(c) if c.denominator != 1 else str(c.numerator)
    if lead:
        return s
    if s.startswith("-"):
        return "- " + s[1:]
    return "+ " + s


def divide_linear(p: Poly, form: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of ``p`` by a linear form: p = q*form + r.

    The division runs in the form's first variable x, whose coefficient c
    is a nonzero constant: writing form = c*x + rest and p = sum a_k x^k,
    the quotient coefficients are b_(d-1) = a_d / c and
    b_(k-1) = (a_k - rest*b_k) / c.  The remainder is free of x, and it
    is zero exactly when the form divides ``p``.
    """
    if form.total_degree() != 1:
        raise ValueError("not a linear form")
    ring = p.ring
    v = min(form.support())
    unit = tuple(1 if i == v else 0 for i in range(len(ring.names)))
    inv = Fraction(1) / form.terms[unit]
    rest = form - ring.monomial(unit, form.terms[unit])
    slices: dict = {}
    for m, c in p.terms.items():
        slices.setdefault(m[v], {})[m[:v] + (0,) + m[v + 1:]] = c
    top = max(slices, default=0)
    if top == 0:
        return ring.zero(), p
    a = [Poly(ring, slices.get(k, {})) for k in range(top + 1)]
    b = [ring.zero()] * top
    b[top - 1] = a[top] * inv
    for k in range(top - 1, 0, -1):
        b[k - 1] = (a[k] - rest * b[k]) * inv
    quotient = {}
    for k, bk in enumerate(b):
        for m, c in bk.terms.items():
            quotient[m[:v] + (k,) + m[v + 1:]] = c
    return Poly(ring, quotient), a[0] - rest * b[0]


def sympy_str(p: Poly) -> str:
    """``str(poly_to_sympy(p))``, without sympy.

    Terms come in lex order over the names sorted as strings, largest
    first; a coefficient c = num/den prints as ``num*mono/den``.  sympy's
    one exception (``Expr.as_ordered_terms``): a positive constant plus a
    negative multiple of one variable's power prints the constant first,
    as in ``1 - hbar``.
    """
    names = p.ring.names
    order = sorted(range(len(names)), key=names.__getitem__)
    terms = sorted(p.terms.items(), key=lambda mc: [mc[0][i] for i in order], reverse=True)
    if len(terms) == 2:
        (mono, c), (last, const) = terms
        if not any(last) and const > 0 and c < 0 and sum(map(bool, mono)) == 1:
            terms.reverse()
    parts = []
    for mono, c in terms:
        factors = [names[i] + (f"**{mono[i]}" if mono[i] > 1 else "") for i in order if mono[i]]
        if abs(c.numerator) != 1 or not factors:
            factors.insert(0, str(abs(c.numerator)))
        text = "*".join(factors) + (f"/{c.denominator}" if c.denominator != 1 else "")
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + text)
    return " ".join(parts) or "0"


def _gen_rank(name: str):
    """sympy's order of polynomial generators (``polyutils._sort_gens``):
    single-letter stems x..z, p..w, a..o first, each stem by integer suffix."""
    stem, index = re.fullmatch(r"(.*?)(\d*)", name).groups()
    letters = "xyzpqrstuvwabcdefghijklmno"
    return (letters.index(stem) if len(stem) == 1 and stem in letters else 26, stem, int(index or 0))


class RationalFunction:
    """A quotient of two polynomials of one ring, compared by
    cross-multiplication.  Arithmetic does not cancel; a value in lowest
    terms prints as sympy's ``str(cancel(...))`` of it, save 1/x**k for
    k > 1, which sympy writes x**(-k) and no localized integral is."""

    def __init__(self, numerator: Poly, denominator: Poly):
        self.numerator, self.denominator = numerator, denominator

    @staticmethod
    def _parts(x):
        return (x.numerator, x.denominator) if isinstance(x, RationalFunction) else (x, 1)

    def __add__(self, other):
        n, d = self._parts(other)
        return RationalFunction(self.numerator * d + self.denominator * n, self.denominator * d)

    __radd__ = __add__

    def __mul__(self, other):
        n, d = self._parts(other)
        return RationalFunction(self.numerator * n, self.denominator * d)

    __rmul__ = __mul__

    def __eq__(self, other):
        n, d = self._parts(other)
        return self.numerator * d == self.denominator * n

    def __str__(self):
        # sympy's cancel keeps integer sides without common content, the
        # denominator's leading coefficient in generator order positive,
        # and divides the numerator by a constant denominator
        num, den = self.numerator, self.denominator
        if den.is_constant():
            return sympy_str(num * (Fraction(1) / den.constant_value()))
        coeffs = [*num.terms.values(), *den.terms.values()]
        scale = lcm(*(c.denominator for c in coeffs))
        scale = Fraction(scale, gcd(*(c.numerator * scale // c.denominator for c in coeffs)))
        order = sorted(range(len(den.ring.names)), key=lambda i: _gen_rank(den.ring.names[i]))
        if max(den.terms.items(), key=lambda mc: [mc[0][i] for i in order])[1] < 0:
            scale = -scale
        top, bottom = sympy_str(num * scale), sympy_str(den * scale)
        if len(den.terms) > 1 or "*" in bottom.replace("**", ""):
            bottom = f"({bottom})"
        return (f"({top})" if len(num.terms) > 1 else top) + "/" + bottom
