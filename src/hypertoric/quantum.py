"""Quantum product by divisor classes and the quantum Stanley-Reisner ring.

The divisor product is assembled circuit by circuit: each circuit
contributes correction terms supported on the compatible sector pairs of
its weighted projective model, with geometric series in the circuit's
Novikov variable expanded exactly to the truncation order.  The degree
residues of each slot pair are the multiples of the other weights' lcm,
walked once per distinct weight vector, for every circuit before the
first correction.  A circuit's model is built only
when a product by a divisor it pairs with reads it; the model rewrites
the divisors outside the circuit through the context's linear relations,
read off one integer reduction.  Series keys are exponent tuples over
the circuit list, taken as given.
The sign bookkeeping ships in three conventions; the default is
calibrated so that the worked example series are reproduced at low
order, and the other two literal readings are available for
differential testing.  The quantum Stanley-Reisner ring reads only the
arrangement's Lawrence fan, with coefficients in hbar alone; a word of
its generators is one monomial, carried without ring products.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import lcm

from hypertoric.arrangement import ArrangementError, InvariantError, StackyArrangement
from hypertoric.crring import CohomologyContext, CRClass, cr_multiply
from hypertoric.exactalg import row_reduce
from hypertoric.lawrence import LawrenceFan, build_lawrence_fan
from hypertoric.localize import (
    WeightedModel,
    fiber_class_expr,
    integrate_base,
    sector_inverse,
    sectors,
    standard_table,
)
from hypertoric.multifan import BoxElement, Circuit, box_of
from hypertoric.polynomials import Poly, PolyRing

SIGN_CONVENTIONS = ("example-calibrated", "theorem-1.2-literal", "eq-5.2-literal")


# The coefficient ring of the quantum Stanley-Reisner ring
HBAR = PolyRing(("hbar",))


class QuantumError(ArrangementError):
    pass


class TruncationTooSmall(QuantumError):
    pass


def sector_pairs(weights) -> tuple:
    """The compatible sector pairs (f1, f2, r) of a circuit, in sector order.

    The degree residue r mod lcm(w) carries maps with sector ends (f1, f2)
    when some ordered pair of distinct weight slots (i, j) has
    <r/w_i> = f1, <r/w_j> = f2 and every remaining slot weight dividing r.
    So for each unordered slot pair {i, j} the residues are the multiples
    of the other weights' lcm below lcm(w), and each gives the sector pair
    (<r/w_i>, <r/w_j>) and its mirror.  Sectors are keyed by their
    numerators over lcm(w), which sort as the fractions do, so the pairs come
    sorted.  When two slot pairs give one sector pair different residues,
    the product has no single series for it, and the pair raises.
    """
    lcm_w = lcm(*weights)
    found: dict = {}  # (f1, f2) as numerators over lcm_w -> residues
    for i, j in itertools.combinations(range(len(weights)), 2):
        rest = lcm(*(w for k, w in enumerate(weights) if k not in (i, j)))
        for r in range(0, lcm_w, rest):
            ni, nj = r % weights[i] * (lcm_w // weights[i]), r % weights[j] * (lcm_w // weights[j])
            found.setdefault((ni, nj), set()).add(r)
            found.setdefault((nj, ni), set()).add(r)
    pairs = []
    for n1, n2 in sorted(found):
        f1, f2, residues = Fraction(n1, lcm_w), Fraction(n2, lcm_w), sorted(found[n1, n2])
        if len(residues) > 1:
            raise InvariantError(f"sector pair ({f1},{f2}) has several residues {residues}")
        pairs.append((f1, f2, residues[0]))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Circuit models embedded in the arrangement


class CircuitModel:
    """The weighted projective geometry of one circuit, spliced into the
    arrangement's variables.

    The model works in the arrangement ring.  Positive-side slots keep
    their divisor and torus parameter, negative side slots enter through
    the fiber-dual dictionary u -> hbar - u, lam -> hbar - lam.  Divisors
    outside the circuit support are eliminated through the context's
    ``linear_relations`` when possible; the replacements of all of them
    come from one reduction of their normals, when the model is built.
    ``pairs`` are the circuit's sector pairs, solved by the caller.
    """

    def __init__(self, context: CohomologyContext, circuit: Circuit, pairs: tuple):
        self.context = context
        self.circuit = circuit
        self.slots = circuit.support
        hbar = context.hbar()
        negative = [i for i in self.slots if circuit.sign_of(i) < 0]
        # the dictionary on divisors is an involution, so it translates
        # classes both into and out of the model
        self._fiber_dual = {f"u{i + 1}": hbar - context.u(i) for i in negative}
        lam_forms = tuple(
            hbar - context.lam(i) if i in negative else context.lam(i) for i in self.slots
        )
        u_names = tuple(f"u{i + 1}" for i in self.slots)
        self.model = WeightedModel(circuit.weights, context.ring, lam_forms, u_names)
        self.table = standard_table(self.model)
        self._sectors = {sec.f: sec for sec in sectors(self.model)}
        self._elimination = self._build_elimination()
        self._sector_boxes = {f: self._box_of_fraction(f) for f in self._sectors}
        self.sector_pairs = pairs
        self._integrals = {}  # (f1, component) -> integral over the f1 factor
        self._outputs = {}  # f2 -> (out box, zero-section class of the f2 factor)

    # -- translation ---------------------------------------------------------

    def _build_elimination(self):
        """For each outside divisor u_t that the linear relations L_r express
        in support divisors and torus parameters, u_t - sum_r y_r L_r, where
        y pairs 1 with b_t and 0 with the other outside normals (free
        coordinates 0).  One reduction of the outside normals against the
        identity serves every t: t at position k is eliminable exactly when
        column k of the right block is zero past the rank, and y is that
        column over the last pivot, at the pivot coordinates."""
        context = self.context
        d = context.arr.d
        outside = [t for t in range(context.arr.m) if t not in self.slots]
        identity = [[int(j == k) for j in range(len(outside))] for k in range(len(outside))]
        pivots, reduced, den = row_reduce([context.arr.b_bar(t) for t in outside], identity)
        elim = {}
        for k, t in enumerate(outside):
            if any(row[d + k] for row in reduced[len(pivots):]):
                continue
            replacement = context.u(t)
            for col, row in zip(pivots, reduced):
                replacement = replacement + context.linear_relations[col] * Fraction(-row[d + k], den)
            elim[t] = replacement
        return elim

    def eliminate_outside(self, poly: Poly) -> Poly:
        arr = self.context.arr
        outside = set(range(arr.m)) - set(self.slots)
        used = poly.support(outside)
        if not used:
            return poly
        subs = {}
        for t in sorted(used):
            if t not in self._elimination:
                raise InvariantError(
                    f"divisor u{t + 1} cannot be eliminated into circuit {self.circuit.support}"
                )
            subs[f"u{t + 1}"] = self._elimination[t]
        out = poly.substitute(subs)
        if out.support(outside):
            raise InvariantError(
                f"elimination left divisors {sorted(out.support(outside))} in the class"
            )
        return out

    def fiber_dual(self, poly: Poly) -> Poly:
        """Apply the fiber-dual dictionary on the negative-side divisors."""
        return poly.substitute(self._fiber_dual) if self._fiber_dual else poly

    # -- sector/box dictionary ------------------------------------------------

    def _box_of_fraction(self, f: Fraction) -> BoxElement:
        """Sector f's box: <f w_i> on the positive side, 1 - <f w_i> on the negative
        side, no torsion; integral, as the signed w_i b̄_i sum to 0."""
        alphas = []
        for i, w in zip(self.slots, self.circuit.weights):
            a = (f * w) % 1
            if a:
                alphas.append((i, a if self.circuit.sign_of(i) > 0 else 1 - a))
        return box_of(self.context.arr, alphas, self.context.trivial_box().v_torsion)

    def box_of_sector(self, f: Fraction) -> BoxElement:
        return self._sector_boxes[f]

    # -- the correspondence ----------------------------------------------------

    def gamma_apply(self, f1: Fraction, f2: Fraction, x: CRClass) -> CRClass:
        """One Lagrangian component applied to a class: integrate the f1
        component over the compact factor, emit the zero-section class of
        the f2 factor in the inverse sector.  The integral does not depend
        on f2, so the model computes it once per (f1, component); the
        output box and class depend on f2 alone, and are built on its
        first use."""
        context = self.context
        comp = x.component(self.box_of_sector(f1))
        if comp.is_zero():
            return CRClass.zero(context)
        key = (f1, comp)
        if key not in self._integrals:
            integrand = self.fiber_dual(self.eliminate_outside(comp))
            self._integrals[key] = integrate_base(integrand, self.table, f1)
        scalar = self._integrals[key]
        sign = (-1) ** (self._sectors[f1].age + self._sectors[f2].age)
        if f2 not in self._outputs:
            self._outputs[f2] = (
                self.box_of_sector(sector_inverse(f2)),
                self.fiber_dual(fiber_class_expr(self.model, self._sectors[f2].support)),
            )
        out_box, out_class = self._outputs[f2]
        return CRClass.build(context, {out_box: out_class * scalar * sign})


# ---------------------------------------------------------------------------
# Novikov series


class NovikovSeries:
    """Truncated series: multi-exponents over the circuit list -> classes."""

    __slots__ = ("context", "order", "terms")

    def __init__(self, context: CohomologyContext, order: int, terms: tuple):
        self.context = context
        self.order = order
        self.terms = terms  # ((exponent tuple, CRClass), ...) sorted

    @staticmethod
    def build(context, order, parts: dict) -> "NovikovSeries":
        """The series of ``parts``, exponent tuple -> normal-form class, with
        its zero classes and the keys past ``order`` dropped."""
        items = sorted(
            ((k, v) for k, v in parts.items() if sum(k) <= order and not v.is_zero()),
            key=lambda kv: (sum(kv[0]), kv[0]),
        )
        return NovikovSeries(context, order, tuple(items))

    @staticmethod
    def from_class(context, order, cls: CRClass) -> "NovikovSeries":
        zero_key = tuple(0 for _ in context.circuits)
        return NovikovSeries.build(context, order, {zero_key: cls})

    def coefficient(self, key) -> CRClass:
        for k, v in self.terms:
            if k == key:
                return v
        return CRClass.zero(self.context)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        order = min(self.order, other.order)
        parts: dict = {}
        for k, v in self.terms + other.terms:
            parts[k] = parts.get(k, CRClass.zero(self.context)) + v
        return NovikovSeries.build(self.context, order, parts)

    def __sub__(self, other: "NovikovSeries") -> "NovikovSeries":
        return self + other.scale(-1)

    def scale(self, c) -> "NovikovSeries":
        return NovikovSeries.build(
            self.context, self.order, {k: v.scale(c) for k, v in self.terms}
        )

    def scale_poly(self, poly: Poly) -> "NovikovSeries":
        return NovikovSeries.build(
            self.context, self.order, {k: v.scale_poly(poly) for k, v in self.terms}
        )

    def shift(self, circuit_index: int, amount: int) -> "NovikovSeries":
        """Multiply by a power of one circuit's Novikov variable."""
        parts = {}
        for k, v in self.terms:
            key = list(k)
            key[circuit_index] += amount
            parts[tuple(key)] = v
        return NovikovSeries.build(self.context, self.order, parts)


class QuantumContext:
    """The cohomology context of one arrangement, the sector pairs of its
    circuits and the circuit models a product has read, each built on
    first use."""

    def __init__(self, arr: StackyArrangement):
        self.arr = arr
        self.context = CohomologyContext(arr)
        self._models = {}  # circuit index -> CircuitModel

    @cached_property
    def pairs(self) -> tuple:
        """The sector pairs of each circuit, in circuit order, solved once
        per distinct weight vector; the first circuit whose weights give a
        pair several residues raises."""
        weights = [c.weights for c in self.context.circuits]
        solved = {w: sector_pairs(w) for w in dict.fromkeys(weights)}
        return tuple(solved[w] for w in weights)

    def model(self, ci: int) -> CircuitModel:
        """The model of circuit ``ci``, built on first use."""
        if ci not in self._models:
            self._models[ci] = CircuitModel(self.context, self.context.circuits[ci], self.pairs[ci])
        return self._models[ci]


def _convention_sign(convention: str, circuit: Circuit, degree: int) -> int:
    """The sign of a degree under a convention ``quantum_divisor_product`` has checked."""
    if convention == "theorem-1.2-literal":
        return (-1) ** degree
    if convention == "eq-5.2-literal":
        n = len(circuit.support) - 1
        return (-1) ** (n + sum(Fraction(degree, w) for w in circuit.weights) // 1)
    return 1  # example-calibrated


def quantum_divisor_product(
    qctx: QuantumContext,
    i: int,
    x,
    order: int,
    convention: str = "example-calibrated",
) -> NovikovSeries:
    """The small quantum product of the i-th divisor with a class or series.

    The degree-zero coefficient is the orbifold cup product; every
    circuit containing the divisor contributes its compatible sector
    pairs with exact geometric series in the circuit Novikov variable.
    Only those circuits' models are built.
    """
    if order < 1:
        raise TruncationTooSmall("truncation order must be at least 1")
    if convention not in SIGN_CONVENTIONS:
        raise QuantumError(f"unknown sign convention {convention!r}")
    context = qctx.context
    if isinstance(x, CRClass):
        x = NovikovSeries.from_class(context, order, x)
    parts: dict = {}
    u_class = CRClass.untwisted(context, context.u(i))
    hbar = context.hbar()
    for base_key, base_cls in x.terms:
        classical = cr_multiply(u_class, base_cls)
        parts[base_key] = parts.get(base_key, CRClass.zero(context)) + classical
        for ci, (circuit, pairs) in enumerate(zip(context.circuits, qctx.pairs)):
            pairing = circuit.beta_S[i]
            if pairing == 0:
                continue
            model = qctx.model(ci)
            for f1, f2, r in pairs:
                gamma = model.gamma_apply(f1, f2, base_cls)
                if gamma.is_zero():
                    continue
                for d in range(r or circuit.lcm_w, order - sum(base_key) + 1, circuit.lcm_w):
                    sign = _convention_sign(convention, circuit, d)
                    key = base_key[:ci] + (base_key[ci] + d,) + base_key[ci + 1:]
                    add = gamma.scale_poly(hbar * (pairing * sign))
                    parts[key] = parts.get(key, CRClass.zero(context)) + add
    return NovikovSeries.build(context, order, parts)


def star_word(qctx: QuantumContext, word, order: int, convention="example-calibrated"):
    """Iterated quantum product of affine divisor factors.

    ``word`` is a sequence of ("u", i) or ("hu", i) tokens, the latter
    meaning the complementary divisor hbar - u_i; the product is taken
    left to right starting from the unit.
    """
    context = qctx.context
    result = NovikovSeries.from_class(
        context, order, CRClass.untwisted(context, context.ring.one())
    )
    for kind, i in word:
        if kind == "u":
            result = quantum_divisor_product(qctx, i, result, order, convention)
        elif kind == "hu":
            ustar = quantum_divisor_product(qctx, i, result, order, convention)
            result = result.scale_poly(context.hbar()) - ustar
        else:
            raise QuantumError(f"unknown word token {kind!r}")
    return result


def differential_sign_report(qctx: QuantumContext, order: int):
    """Per circuit and residue class, the first order where each literal
    reading departs from the calibrated one, or None up to ``order``.  The
    circuit's hyperplanes are numbered from 1, as printed."""
    calibrated, *literal = SIGN_CONVENTIONS
    report = []
    for circuit, pairs in zip(qctx.context.circuits, qctx.pairs):
        for r in sorted({r for _, _, r in pairs}):
            degrees = range(r or circuit.lcm_w, order + 1, circuit.lcm_w)
            divergence = {}
            for conv in literal:
                differs = (
                    d for d in degrees
                    if _convention_sign(conv, circuit, d) != _convention_sign(calibrated, circuit, d)
                )
                divergence[conv] = next(differs, None)
            support = [t + 1 for t in circuit.support]
            report.append(
                {"circuit": support, "residue": r, "first_divergence_from_calibrated": divergence}
            )
    return report


# ---------------------------------------------------------------------------
# Quantum Stanley-Reisner ring


class QSRElement:
    """Formal sum of lattice-point symbols with Novikov-weighted coefficients.

    Terms are keyed by (lattice point, curve-degree exponent); the
    degree exponent is a rational vector in the curve lattice basis of
    the fan, graded by its coordinate sum.  Coefficients are polynomials
    in hbar alone, in the one ring ``HBAR``.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: tuple):
        self.order = order
        self.terms = terms  # ((point tuple, exp tuple), Poly)

    @staticmethod
    def build(order, parts: dict) -> "QSRElement":
        """The element of ``parts``, (point, exponent) -> coefficient, with
        its zero coefficients and the keys past ``order`` dropped."""
        items = sorted(
            ((k, v) for k, v in parts.items() if sum(k[1]) <= order and not v.is_zero()),
            key=lambda kv: (sum(kv[0][1]), kv[0][1], kv[0][0]),
        )
        return QSRElement(order, tuple(items))

    @staticmethod
    def generator(fan: LawrenceFan, order, ray_id: int) -> "QSRElement":
        pt = fan.ray_vector(ray_id)
        return QSRElement.build(order, {(pt, (0,) * len(fan.signs)): HBAR.one()})

    @staticmethod
    def unit(fan: LawrenceFan, order) -> "QSRElement":
        return QSRElement.build(order, {((0,) * len(fan.rays[0]), (0,) * len(fan.signs)): HBAR.one()})

    def scale_poly(self, poly) -> "QSRElement":
        return QSRElement.build(self.order, {k: v * poly for k, v in self.terms})

    def __add__(self, other: "QSRElement") -> "QSRElement":
        parts: dict = {}
        for k, v in self.terms + other.terms:
            parts[k] = parts.get(k, HBAR.zero()) + v
        return QSRElement.build(min(self.order, other.order), parts)

    def __sub__(self, other: "QSRElement") -> "QSRElement":
        return self + other.scale_poly(HBAR.const(-1))

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for (pt, exp), coeff in self.terms:
            q = ",".join(str(e) for e in exp)
            chunks.append(f"({coeff})*y{list(pt)}*Q^({q})")
        return " + ".join(chunks)


def qsr_multiply(a: QSRElement, b: QSRElement, fan: LawrenceFan, order) -> QSRElement:
    """Bilinear semigroup product twisted by the l-pairing Novikov weight."""
    parts: dict = {}
    for (pt1, exp1), c1 in a.terms:
        for (pt2, exp2), c2 in b.terms:
            degree = fan.l_pairing(pt1, pt2)
            pt = tuple(x + y for x, y in zip(pt1, pt2))
            exp = tuple(e1 + e2 + d for e1, e2, d in zip(exp1, exp2, degree))
            key = (pt, exp)
            parts[key] = parts.get(key, HBAR.zero()) + c1 * c2
    return QSRElement.build(order, parts)


def qsr_presentation(arr: StackyArrangement, order=6):
    """The Lawrence fan of ``arr`` and the defining relations: one per
    hyperplane, y(z-ray) + y(w-ray) = hbar.  The order is checked before
    the fan is built."""
    if order < 0:
        raise TruncationTooSmall("truncation order must be at least 0")
    fan = build_lawrence_fan(arr)
    hbar = HBAR.var("hbar")
    rels = []
    for i in range(arr.m):
        z = QSRElement.generator(fan, order, fan.z_ray(i))
        w = QSRElement.generator(fan, order, fan.w_ray(i))
        one = QSRElement.unit(fan, order)
        rels.append(z + w - one.scale_poly(hbar))
    return fan, tuple(rels)


def divisor_ray_side(fan: LawrenceFan) -> dict:
    """Which ray realizes the i-th divisor class: the side whose variable
    appears in the irrelevant monomials (the side with empty common zero)."""
    varset = set()
    for mono in fan.irrelevant_monomials:
        varset.update(mono)
    side = {}
    for i in range(fan.m):
        z_used = f"z{i + 1}" in varset
        w_used = f"w{i + 1}" in varset
        if z_used and not w_used:
            side[i] = fan.z_ray(i)
        elif w_used and not z_used:
            side[i] = fan.w_ray(i)
        else:
            side[i] = fan.z_ray(i)  # mixed: pick the z side deterministically
    return side


def qsr_word(fan: LawrenceFan, word, order) -> QSRElement:
    """Product over ("u", i) / ("hu", i) tokens inside the semigroup ring,
    using the divisor-to-ray dictionary and the hyperplane relations.
    The product of generators is one monomial: its point is the sum of
    the rays, and its exponent adds the l-pairing of the point so far
    with each next ray.  It is zero once the exponent passes ``order``."""
    side = divisor_ray_side(fan)
    point, exp = (0,) * len(fan.rays[0]), (0,) * len(fan.signs)
    for kind, i in word:
        if sum(exp) > order:
            break
        ray = side[i]
        if kind == "hu":
            ray = fan.w_ray(i) if ray == fan.z_ray(i) else fan.z_ray(i)
        vector = fan.ray_vector(ray)
        exp = tuple(e + x for e, x in zip(exp, fan.l_pairing(point, vector)))
        point = tuple(x + y for x, y in zip(point, vector))
    return QSRElement(order, (((point, exp), HBAR.one()),) if sum(exp) <= order else ())


def qsr_circuit_relation_defect(fan: LawrenceFan, circuit: Circuit, order) -> QSRElement:
    """The eliminated circuit relation, as a series that must vanish:
    prod u_i^(w_i) minus Q^(lcm * unit) prod (hbar - u_i)^(w_i)."""
    word_u = []
    word_hu = []
    for i, w in zip(circuit.support, circuit.weights):
        word_u.extend([("u", i)] * w)
        word_hu.extend([("hu", i)] * w)
    lhs = qsr_word(fan, word_u, order)
    rhs = qsr_word(fan, word_hu, order)
    unit = minimal_curve_unit(fan)
    shift = tuple(circuit.lcm_w * u for u in unit)
    shifted = QSRElement.build(
        order,
        {(pt, tuple(e + s for e, s in zip(exp, shift))): coeff for (pt, exp), coeff in rhs.terms},
    )
    return lhs - shifted


def minimal_curve_unit(fan: LawrenceFan):
    """The smallest positive curve degree realized by a nonfacial ray pair,
    as a vector in the curve lattice basis; ``build_lawrence_fan`` finds it."""
    if fan.minimal_curve_degree is None:
        raise InvariantError("fan has no positive curve degrees")
    return fan.minimal_curve_degree
