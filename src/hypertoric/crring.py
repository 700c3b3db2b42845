"""Presentations of the equivariant cohomology rings and the orbifold product.

Classes are kept in a normal form reduced by the monomial (matroid)
relations only; that rewriting is confluent, so equality of normal forms
is decidable without a Groebner engine.  Relations involving mixed
(h - u) factors are emitted in presentations but deliberately not used
for reduction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import prod

from hypertoric.arrangement import ArrangementError, InvariantError, StackyArrangement
from hypertoric.exactalg import Record
from hypertoric.multifan import BoxElement, box_elements, box_of, circuits
from hypertoric.polynomials import Poly, PolyRing


class UnreducedInput(InvariantError):
    """A sector polynomial contains a monomial that the sector annihilates."""


class CohomologyContext:
    """Shared environment: variables, circuits, boxes and linear relations
    (both built on first use) of one arrangement; cones are the
    arrangement's own (``arr.is_cone``)."""

    def __init__(self, arr: StackyArrangement):
        self.arr = arr
        m = arr.m
        names = [f"u{i + 1}" for i in range(m)] + ["hbar"] + [f"lam{i + 1}" for i in range(m)]
        self.ring = PolyRing(names)
        self._u = [self.ring.var(f"u{i + 1}") for i in range(m)]
        self.circuits = circuits(arr)
        self._trivial_box = box_of(arr, (), (0,) * len(arr.group_N.torsion_invariants))

    @cached_property
    def boxes(self) -> tuple[BoxElement, ...]:
        return box_elements(self.arr)

    @cached_property
    def linear_relations(self) -> tuple[Poly, ...]:
        """The d forms L_r = sum_i <e_r, b_i> (u_i - lam_i), which vanish in
        the equivariant ring (Hausel-Sturmfels)."""
        arr = self.arr
        return tuple(
            sum(((self.u(i) - self.lam(i)) * arr.b_bar(i)[r] for i in range(arr.m)), self.ring.zero())
            for r in range(arr.d)
        )

    # -- variables -----------------------------------------------------------

    def u(self, i: int) -> Poly:
        return self._u[i]

    def hbar(self) -> Poly:
        return self.ring.var("hbar")

    def lam(self, i: int) -> Poly:
        return self.ring.var(f"lam{i + 1}")

    def u_support(self, mono) -> tuple[int, ...]:
        return tuple(i for i in range(self.arr.m) if mono[i] > 0)

    def trivial_box(self) -> BoxElement:
        return self._trivial_box

    def find_box(self, v_free, v_torsion) -> BoxElement | None:
        for b in self.boxes:
            if b.v_free == tuple(v_free) and b.v_torsion == tuple(v_torsion):
                return b
        return None

    # -- normal form ---------------------------------------------------------

    def reduce_in_sector(self, poly: Poly, box: BoxElement) -> Poly:
        """Kill monomials annihilated by the sector: any u-support meeting
        the box cone, or making the cone union dependent."""
        sigma = set(box.sigma)

        def keep(mono, coeff):
            supp = self.u_support(mono)
            if sigma & set(supp):
                return None
            if not self.arr.is_cone(sigma | set(supp)):
                return None
            return coeff

        return poly.map_terms(keep)


class CRClass(Record):
    """A Chen-Ruan class: one polynomial per sector, trivial box untwisted.
    ``components`` holds (BoxElement, Poly) pairs, sorted and reduced."""

    __slots__ = ("context", "components")

    @staticmethod
    def build(context: CohomologyContext, parts: dict) -> "CRClass":
        comps = []
        for box, poly in parts.items():
            reduced = context.reduce_in_sector(poly, box)
            if not reduced.is_zero():
                comps.append((box, reduced))
        comps.sort(key=lambda bp: bp[0].sort_key())
        return CRClass(context, tuple(comps))

    @staticmethod
    def zero(context: CohomologyContext) -> "CRClass":
        return CRClass(context, ())

    @staticmethod
    def untwisted(context: CohomologyContext, poly: Poly) -> "CRClass":
        return CRClass.build(context, {context.trivial_box(): poly})

    @staticmethod
    def sector_unit(context: CohomologyContext, box: BoxElement) -> "CRClass":
        return CRClass.build(context, {box: context.ring.one()})

    def component(self, box: BoxElement) -> Poly:
        for b, p in self.components:
            if b == box:
                return p
        return self.context.ring.zero()

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "CRClass") -> "CRClass":
        parts: dict = {b: p for b, p in self.components}
        for b, p in other.components:
            parts[b] = parts.get(b, self.context.ring.zero()) + p
        return CRClass.build(self.context, parts)

    def __sub__(self, other: "CRClass") -> "CRClass":
        return self + other.scale(-1)

    def scale(self, c) -> "CRClass":
        return CRClass.build(self.context, {b: p * c for b, p in self.components})

    def scale_poly(self, poly: Poly) -> "CRClass":
        return CRClass.build(self.context, {b: p * poly for b, p in self.components})

    def __str__(self):
        if not self.components:
            return "0"
        parts = []
        for box, poly in self.components:
            if box.is_trivial():
                parts.append(str(poly))
            else:
                parts.append(f"({poly})*{box.label()}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Presentations


class Relation(Record):
    """One defining relation of ``kind`` "monomial", "circuit", "box-u" or
    "box-box", printed as ``text``: the sector units ``lhs_boxes`` times
    ``lhs_poly`` (None for 1) equal ``rhs`` (a class with at most one box
    symbol; None for 0)."""

    __slots__ = ("kind", "text", "lhs_boxes", "lhs_poly", "rhs")


class RingPresentation(Record):
    __slots__ = ("generators", "relations")

    def texts(self) -> tuple[str, ...]:
        return tuple(r.text for r in self.relations)


def ht_presentation(context: CohomologyContext) -> RingPresentation:
    """Divisor generators with the squarefree circuit monomial relations."""
    gens = tuple(f"u{i + 1}" for i in range(context.arr.m))
    rels = []
    for c in context.circuits:
        poly = context.ring.one()
        for i in c.support:
            poly = poly * context.u(i)
        rels.append(Relation("monomial", f"{poly} = 0", (), poly, None))
    return RingPresentation(gens, tuple(rels))


def circuit_relation_poly(context: CohomologyContext, circuit) -> Poly:
    poly = context.ring.one()
    for i in circuit.positive:
        poly = poly * context.u(i)
    for j in circuit.negative:
        poly = poly * (context.hbar() - context.u(j))
    return poly


def htt_presentation(context: CohomologyContext) -> RingPresentation:
    """Adds the fiber parameter; one split relation per circuit."""
    gens = tuple(f"u{i + 1}" for i in range(context.arr.m)) + ("hbar",)
    rels = []
    for c in context.circuits:
        poly = circuit_relation_poly(context, c)
        rels.append(Relation("circuit", f"{poly} = 0", (), poly, None))
    return RingPresentation(gens, tuple(rels))


def _box_pair_product(context, box1, box2, box_square_sign: str):
    """The orbifold product of two nontrivial sector units, as a CRClass."""
    union = sorted(set(box1.sigma) | set(box2.sigma))
    if not context.arr.is_cone(union):
        return CRClass.zero(context)
    # The closing box is determined coordinatewise on the union cone: its
    # fractional coordinates complete each pair sum to the next integer, so
    # the triple sums a_i land in {1, 2}.
    alpha3 = []
    for i in union:
        s = box1.alpha_of(i) + box2.alpha_of(i)
        a = (-s) % 1
        if a != 0:
            alpha3.append((i, a))
    orders = context.arr.group_N.torsion_invariants
    t3 = tuple(
        (-(box1.v_torsion[t] + box2.v_torsion[t])) % q for t, q in enumerate(orders)
    )
    box3 = box_of(context.arr, alpha3, t3)
    # find_box matches the point alone, so a box of another cone at that
    # point ends the product here (ROADMAP 2(a))
    if context.find_box(box3.v_free, box3.v_torsion) != box3:
        raise ArrangementError(
            f"no closing box for {box1.label()} * {box2.label()}"
        )
    sums: dict[int, Fraction] = {}
    for b in (box1, box2, box3):
        for i, a in b.alphas:
            sums[i] = sums.get(i, Fraction(0)) + a
    sigma123 = tuple(sorted(sums))
    set1, set2, set3 = set(box1.sigma), set(box2.sigma), set(box3.sigma)
    I = tuple(i for i in sigma123 if sums[i] == 1 and i in set1 & set2 & set3)
    J = tuple(j for j in sigma123 if j not in set3)
    poly = prod([context.u(i) for i in I] + [context.u(j) ** 2 for j in J], start=context.ring.one())
    if box3.is_trivial():
        sign = 1 if box_square_sign == "paper" else (-1) ** len(J)
        return CRClass.untwisted(context, poly * sign)
    sign = (-1) ** (len(I) + len(J))
    return CRClass.build(context, {box3: poly * sign})


def cr_presentation(
    context: CohomologyContext, box_square_sign: str = "paper"
) -> RingPresentation:
    """Sector generators and the four orbifold relation families.

    The self-inverse sector squares carry a documented sign flag:
    "paper" ships the positively-signed square, "literal" the
    (-1)^|J|-signed variant.
    """
    nontrivial = [b for b in context.boxes if not b.is_trivial()]
    labels = [b.label() for b in nontrivial]
    gens = tuple(f"u{i + 1}" for i in range(context.arr.m)) + ("hbar",) + tuple(labels)
    rels = list(htt_presentation(context).relations)
    zero = CRClass.zero(context)
    for box, label in zip(nontrivial, labels):
        sigma = set(box.sigma)
        for i in range(context.arr.m):
            if i in sigma or not context.arr.is_cone(sigma | {i}):
                rels.append(
                    Relation("box-u", f"{label}*u{i + 1} = 0", (box,), context.u(i), zero)
                )
    pairs = itertools.combinations_with_replacement(zip(nontrivial, labels), 2)
    for (b1, label1), (b2, label2) in pairs:
        rhs = _box_pair_product(context, b1, b2, box_square_sign)
        rels.append(Relation("box-box", f"{label1}*{label2} = {rhs}", (b1, b2), None, rhs))
    return RingPresentation(gens, tuple(rels))


def cr_multiply(
    x: CRClass, y: CRClass, box_square_sign: str = "paper"
) -> CRClass:
    """Bilinear orbifold product of normal-form classes.

    Raises UnreducedInput if a sector polynomial is not already in the
    sector normal form.
    """
    context = x.context
    for cls in (x, y):
        for box, poly in cls.components:
            if context.reduce_in_sector(poly, box) != poly:
                raise UnreducedInput("sector polynomial contains a vanishing monomial")
    out = CRClass.zero(context)
    for b1, p1 in x.components:
        for b2, p2 in y.components:
            if b1.is_trivial() or b2.is_trivial():  # the other box's sector
                out = out + CRClass.build(context, {b2 if b1.is_trivial() else b1: p1 * p2})
            else:
                prod = _box_pair_product(context, b1, b2, box_square_sign)
                out = out + prod.scale_poly(p1 * p2)
    return out

