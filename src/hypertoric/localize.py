"""Fixed-point localization for cotangent bundles of weighted projective stacks.

Two table conventions ship.  The "standard" table is derived from the
quotient construction and is defined for every weight vector.  The
"paper" table is a hard-coded convention island for weights (1, 2) that
reproduces a specific set of quoted identities verbatim; those
identities overdetermine any single self-consistent table, so it stores
exactly the stated values and nothing more.

Every integral is exact polynomial arithmetic.  A model integrates over
the compact zero section of a sector by one divided difference of the
class along the line u_i = lam_i - w_i t, at the nodes lam_k / w_k (see
``integrate_base``): it reads only the model's weights, torus parameters
and sector support, needs no common denominator and no exact division,
and the divided difference of a polynomial is a polynomial.  A table
integrates over a whole cotangent sector (``integrate``) by
``_localize``, the common-denominator sum with exact division by each
Euler form, to a ``RationalFunction``; ``_localize`` is also the tests'
reference for the divided difference.  The quantum computations and
both Steinberg conventions build no table: one is built only to be
printed by ``localize``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod

from hypertoric.exactalg import Record, rational_rank
from hypertoric.polynomials import Poly, PolyRing, RationalFunction, divide_linear


class LocalizeError(ValueError):
    pass


class ZeroEuler(LocalizeError):
    """An Euler factor vanished identically: the table or model is degenerate."""


class WeightedModel:
    """Weights of a cotangent bundle of a weighted projective stack.

    Its classes live in ``ring``, by default the variables u1..u(n+1),
    hbar, lam1..lam(n+1).  ``lam_forms`` and ``u_names`` allow a model to
    be embedded in a larger geometry: torus parameters may be arbitrary
    linear forms in the ring, and the divisor of each slot may be any
    ring variable.
    """

    __slots__ = ("weights", "ring", "lam_forms", "u_names")

    def __init__(
        self,
        weights: tuple[int, ...],
        ring: PolyRing | None = None,
        lam_forms: tuple | None = None,
        u_names: tuple | None = None,
    ):
        if len(weights) < 2:
            raise LocalizeError("need at least two weights")
        if any(w < 1 for w in weights):
            raise LocalizeError("weights must be positive")
        slots = range(len(weights))
        if ring is None:
            names = [f"u{k + 1}" for k in slots] + ["hbar"] + [f"lam{k + 1}" for k in slots]
            ring = PolyRing(names)
        if lam_forms is None:
            lam_forms = tuple(ring.var(f"lam{k + 1}") for k in slots)
        if u_names is None:
            u_names = tuple(f"u{k + 1}" for k in slots)
        self.weights = weights
        self.ring = ring
        self.lam_forms = lam_forms
        self.u_names = u_names

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    def hbar_form(self) -> Poly:
        return self.ring.var("hbar")

    def u_form(self, i: int) -> Poly:
        return self.ring.var(self.u_names[i])


class Sector:
    """A twisted sector: reduced fraction class and support slots.

    The age counts the slots whose weight the order of f does not divide.
    """

    __slots__ = ("f", "support", "total_slots")

    def __init__(self, f: Fraction, support: tuple[int, ...], total_slots: int):
        if not support:
            raise LocalizeError("sector support is empty")
        self.f = f
        self.support = support  # weight slots whose weight the order divides
        self.total_slots = total_slots

    @property
    def age(self) -> int:
        return self.total_slots - len(self.support)


def sectors(model: WeightedModel) -> tuple[Sector, ...]:
    """All twisted sector classes a/w_k, in increasing order of the fraction."""
    fracs = sorted(
        {Fraction(a, w) for w in model.weights for a in range(w)}
    )
    out = []
    for f in fracs:
        d = f.denominator
        support = tuple(k for k, w in enumerate(model.weights) if w % d == 0)
        out.append(Sector(f, support, len(model.weights)))
    return tuple(out)


class FixedPoint(Record):
    """Localization data of one torus-fixed point inside one sector.

    Weights and restrictions are linear forms in the model's ring:
    ``tangent_weights`` along the base directions, ``fiber_weights`` along
    the cotangent fiber directions, and ``restrictions`` maps a divisor
    variable name to its Poly.  The full normal Euler factor in the
    cotangent bundle is the product of the base and fiber weights; it is
    built only when read.
    """

    __slots__ = ("slot", "multiplicity", "tangent_weights", "fiber_weights", "restrictions")

    @property
    def euler(self) -> Poly:
        one = next(iter(self.restrictions.values())).ring.one()
        return prod(self.tangent_weights + self.fiber_weights, start=one)


class FixedPointTable(Record):
    """``points`` maps a sector class (a Fraction) to its FixedPoints, a tuple."""

    __slots__ = ("convention", "model", "points")

    def sector_points(self, f: Fraction) -> tuple[FixedPoint, ...]:
        try:
            return self.points[f]
        except KeyError:
            raise LocalizeError(f"no table data for sector {f}") from None


def standard_table(model: WeightedModel) -> FixedPointTable:
    """The derived, globally self-consistent table.

    At the point of slot k the base tangent weights are
    lam_j - (w_j / w_k) lam_k, fiber weights are hbar minus those, the
    point multiplicity is 1/w_k, and the divisor class u_i restricts to
    the tangent weight in its own direction (zero for i = k).
    """
    w, lam = model.weights, model.lam_forms
    slots = range(len(w))
    hbar = model.hbar_form()
    toward = {
        k: [model.ring.zero() if i == k else lam[i] - lam[k] * Fraction(w[i], w[k]) for i in slots]
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


def _localize(poly: Poly, points, euler_forms) -> tuple[Poly, Counter]:
    """The localization sum of ``poly`` over ``points``, each point's Euler
    factor the product of its linear forms in ``euler_forms``: put over the
    product of the distinct monic forms (proportional ones counted once),
    the numerator is divided exactly by each form that divides it.  Returns
    the numerator and a Counter of the forms left in the denominator."""
    denominators = []  # per point: (scalar, Counter of monic forms)
    common: Counter = Counter()
    for forms in euler_forms:
        scalar, monic = Fraction(1), Counter()
        for t in forms:
            if t.is_zero():
                raise ZeroEuler("vanishing Euler factor")
            lead = t.terms[max(t.terms)]
            scalar *= lead
            monic[t * (Fraction(1) / lead)] += 1
        denominators.append((scalar, monic))
        common |= monic
    numerator = poly.ring.zero()
    for pt, (scalar, monic) in zip(points, denominators):
        term = poly.substitute(pt.restrictions) * (pt.multiplicity / scalar)
        for form, power in (common - monic).items():
            term = term * form**power
        numerator = numerator + term
    left: Counter = Counter()
    for form, power in common.items():
        for k in range(power):
            quotient, remainder = divide_linear(numerator, form)
            if not remainder.is_zero():
                left[form] = power - k
                break
            numerator = quotient
    return numerator, left


def integrate(
    poly: Poly, table: FixedPointTable, sector_class: Fraction = Fraction(0)
) -> RationalFunction:
    """Integral over the cotangent sector: Euler factors are the tangent and
    fiber weights, and the value is a rational function in lowest terms."""
    points = table.sector_points(sector_class)
    forms = [pt.tangent_weights + pt.fiber_weights for pt in points]
    numerator, left = _localize(poly, points, forms)
    return RationalFunction(numerator, prod((f**k for f, k in left.items()), start=poly.ring.one()))


def integrate_base(poly: Poly, model: WeightedModel, sector: Sector) -> Poly:
    """Integral over the compact zero section of a sector of the model:
    Euler factors are the base tangent weights only, and the sum is a
    divided difference.  With x_k = lam_k / w_k the tangent weight at
    slot k toward j is w_j (x_j - x_k) and u_i restricts to
    lam_i - w_i x_k, so with G(t) = poly(u_i -> lam_i - w_i t) over the
    sector's support S of n + 1 slots

        integral = (-1)^n / prod_S w_k * sum_(a >= n) G_a h_(a-n)(x_S),

    G_a the coefficient of t^a and h_r the complete homogeneous symmetric
    polynomial.  Two equal nodes, w_k lam_j = w_j lam_k on S, are a zero
    tangent weight and raise ZeroEuler.  A class whose degree in the u's
    is below n integrates to 0."""
    ring, w, lam, support = model.ring, model.weights, model.lam_forms, sector.support
    nodes = [lam[k] * Fraction(1, w[k]) for k in support]
    if len(set(nodes)) < len(nodes):
        raise ZeroEuler("vanishing Euler factor")
    n = len(support) - 1
    slot_of = {ring.index[name]: i for i, name in enumerate(model.u_names)}
    zero = ring.zero()
    G: dict = {}  # a -> G_a, for a >= n
    for mono, c in poly.terms.items():
        if sum(mono[v] for v in slot_of) < n:
            continue  # this term feeds only G_a with a < n
        series = [Poly(ring, {tuple(0 if v in slot_of else e for v, e in enumerate(mono)): c})]
        for v, i in slot_of.items():
            for _ in range(mono[v]):  # times lam_i - w_i t
                shifted = [zero] + [s * -w[i] for s in series]
                series = [s * lam[i] + r for s, r in zip(series + [zero], shifted)]
        for a in range(n, len(series)):
            G[a] = G[a] + series[a] if a in G else series[a]
    h = [ring.one()] + [zero] * (max(G, default=n) - n)  # h_r of the nodes taken so far
    for x in nodes:
        for r in range(1, len(h)):
            h[r] = h[r] + x * h[r - 1]
    total = sum((g * h[a - n] for a, g in G.items()), zero)
    return total * Fraction((-1) ** n, prod(w[k] for k in support))


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


class SteinbergOperator(Record):
    """A correspondence operator on the sector basis.

    ``matrix`` has its rows indexed by output sector: ``matrix[f2][f1]`` is
    the Fraction coefficient with which the basis class of sector f1 feeds
    the basis class of sector f2.  ``generator_images`` maps a name to a
    dict, output sector -> coefficient: the action on specific named
    classes when the convention pins them directly (used by the hard-coded
    table).
    """

    __slots__ = ("sector_order", "matrix", "generator_images")

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
    """The hard-coded convention: the 2x2 matrix holds rational functions."""

    def is_injective(self) -> bool:
        (a, b), (c, d) = self.matrix
        return a * d != b * c


def sector_inverse(f: Fraction) -> Fraction:
    return Fraction(0) if f == 0 else 1 - f


def steinberg_operator(
    model: WeightedModel, convention: str = "standard"
) -> tuple[SteinbergOperator, SteinbergOperator]:
    """Assemble the correspondence operator and its inverse, by convention.

    With the standard convention every entry is computed from the model,
    without a table, and the operator is its own inverse, so the one
    matrix is returned twice: the component for a sector pair integrates
    against the zero-section class of the input factor and emits the
    zero-section class of the output factor, with the parity sign of the
    two ages and the output read through the sector inversion.  With the
    paper convention the quoted generator images of both directions are
    returned verbatim, and the sector-basis matrix entry that the quoted
    set leaves unstated is completed by the compact base integral (which
    is exactly zero there).
    """
    secs = sectors(model)
    order = tuple(s.f for s in secs)
    if convention == "paper":
        return _paper_steinberg(model, order)
    idx = {f: i for i, f in enumerate(order)}
    rows = [[Fraction(0)] * len(order) for _ in order]
    for s_in in secs:
        # pairing of the sector basis class against the correspondence:
        # integrate it over the compact zero section of the input factor
        phi_in = fiber_class_expr(model, s_in.support)
        weight = integrate_base(phi_in, model, s_in).constant_value()
        for s_out in secs:
            sign = (-1) ** (s_in.age + s_out.age)
            target = idx[sector_inverse(s_out.f)]
            rows[target][idx[s_in.f]] += sign * weight
    operator = SteinbergOperator(order, tuple(tuple(r) for r in rows), {})
    return operator, operator


def _paper_steinberg(model, order):
    """The quoted values, forward and inverse, on the basis of the fiber
    class hbar - u1 - u2 and the unit of the half sector ("box")."""
    lam1, lam2 = model.lam_forms
    half = Fraction(1, 2)
    halves = {"fiber": half, "box": half}
    I = integrate((model.hbar_form() - lam1 - lam2) ** 2, paper_table_p12(), Fraction(0))
    # the one matrix entry the quoted values leave unstated is completed by
    # the compact base integral of the fiber class over the untwisted sector
    mixed = integrate_base(fiber_class_expr(model), model, sectors(model)[0]).constant_value()
    images = {"u1": halves, "u2": {"fiber": 1, "box": half}, "box": halves}
    forward = PaperSteinbergOperator(order, ((I, half), (mixed, half)), images)
    images = {"fiber": {"fiber": I, "box": I}, "box": halves}
    return forward, PaperSteinbergOperator(order, ((I, half), (I, half)), images)


def orbifold_degrees(model: WeightedModel):
    """Orbifold degrees of the correspondence components; every one is 2n.

    Components are indexed by ordered sector pairs, plus one diagonal
    component per sector order.
    """
    secs = sectors(model)
    half = {s.f: len(s.support) - 1 + s.age for s in secs}  # each factor's share
    pairs = [(("pair", s1.f, s2.f), half[s1.f] + half[s2.f]) for s1 in secs for s2 in secs]
    return tuple(pairs + [(("diagonal", s.f), 2 * half[s.f]) for s in secs])


def box_square_sign_oracle(model: WeightedModel) -> str:
    """Whether the standard table gives some self-inverse sector a
    non-positive total multiplicity, the sum of 1 / w_k over its support:
    "literal" if so, else "paper".

    It does not decide the sign of a self-inverse sector square.  Every
    multiplicity 1 / w_k is positive, so this returns "paper" for every
    model.  No oracle in the package decides that sign.
    """
    for sec in sectors(model):
        if sec.f == 0 or sector_inverse(sec.f) != sec.f:
            continue
        if sum(Fraction(1, model.weights[k]) for k in sec.support) <= 0:
            return "literal"
    return "paper"
