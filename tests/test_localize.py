from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from hypertoric.localize import (
    WeightedModel,
    ZeroEuler,
    _localize,
    fiber_class_expr,
    integrate,
    integrate_base,
    paper_table_p12,
    sectors,
    standard_table,
    steinberg_operator,
)
from hypertoric.crring import CohomologyContext
from hypertoric.polynomials import Poly, PolyRing, divide_linear
from hypertoric.quantum import CircuitModel
from helpers import box_square_sign_oracle, model_n, orbifold_degrees
from sympy_bridge import poly_to_sympy, rational_to_sympy

# sympy symbols, for the oracle values of ``integrate``
LAM1, LAM2, HBAR = sympy.Symbol("lam1"), sympy.Symbol("lam2"), sympy.Symbol("hbar")

# the table polynomials, in the ring of every two-slot model
RING2 = WeightedModel((1, 2)).ring
P_U1, P_U2, P_HBAR, P_LAM1, P_LAM2 = (RING2.var(n) for n in ("u1", "u2", "hbar", "lam1", "lam2"))


def test_sectors_of_12():
    m = WeightedModel((1, 2))
    secs = sectors(m)
    assert [(s.f, s.support, s.age) for s in secs] == [
        (Fraction(0), (0, 1), 0),
        (Fraction(1, 2), (1,), 1),
    ]


def test_standard_tangents_plain_line():
    table = standard_table(WeightedModel((1, 1)))
    p0 = table.sector_points(Fraction(0))[0]
    assert p0.tangent_weights == (P_LAM2 - P_LAM1,)


def test_standard_tangent_weighted():
    table = standard_table(WeightedModel((1, 2)))
    p0 = table.sector_points(Fraction(0))[0]
    assert p0.tangent_weights == (P_LAM2 - 2 * P_LAM1,)
    p1 = table.sector_points(Fraction(0))[1]
    assert p1.multiplicity == Fraction(1, 2)


def test_fiber_plus_tangent_is_hbar():
    for weights in ((1, 1), (1, 2), (2, 3), (1, 1, 2)):
        model = WeightedModel(weights)
        table = standard_table(model)
        for f, points in table.points.items():
            for p in points:
                assert len(p.fiber_weights) == len(p.tangent_weights)
                for fiber, t in zip(p.fiber_weights, p.tangent_weights):
                    assert fiber + t == model.hbar_form()


def test_paper_table_identities():
    table = paper_table_p12()
    pts = table.sector_points(Fraction(0))
    assert pts[0].euler == P_LAM1 * (P_HBAR - P_LAM1 - P_LAM2)
    assert pts[1].euler == P_LAM2 * (P_HBAR - P_LAM1 - P_LAM2)
    for p in pts:
        assert p.multiplicity == Fraction(1, 2)
        assert (P_U1 + P_U2).substitute(p.restrictions) == P_LAM1 + P_LAM2
    val = integrate((P_HBAR - P_U1 - P_U2) ** 2, table, Fraction(0))
    expected = sympy.Rational(1, 2) * (
        (HBAR - LAM2) / LAM1 + (HBAR - LAM1) / LAM2 - 2
    )
    assert sympy.simplify(rational_to_sympy(val) - expected) == 0


def test_integrate_is_linear():
    table = standard_table(WeightedModel((1, 2)))
    a = integrate(P_U1, table)
    b = integrate(P_U2, table)
    ab = integrate(P_U1 + P_U2, table)
    S = rational_to_sympy
    assert sympy.simplify(S(ab) - S(a) - S(b)) == 0
    assert sympy.simplify(S(integrate(3 * P_U1, table)) - 3 * S(a)) == 0
    assert ab == a + b and integrate(3 * P_U1, table) == 3 * a


def test_point_class_delta_property():
    # the class supported at one fixed point integrates to its multiplicity
    table = standard_table(WeightedModel((1, 1)))
    point_class = P_U1 * (P_HBAR - P_U1)  # restriction is the Euler factor at P2
    val = integrate(point_class, table)
    assert sympy.simplify(rational_to_sympy(val) - 1) == 0
    table12 = standard_table(WeightedModel((1, 2)))
    val12 = integrate(P_U1 * (P_HBAR - P_U1), table12)
    assert sympy.simplify(rational_to_sympy(val12) - sympy.Rational(1, 2)) == 0
    assert val == 1 and val12 == Fraction(1, 2)


def test_euler_characteristic_count():
    # integrating the top Chern class of the base counts fixed points with
    # their multiplicities
    for weights in ((1, 1), (1, 2), (2, 3), (1, 2, 2)):
        model = WeightedModel(weights)
        us = [model.u_form(i) for i in range(len(weights))]
        top = model.ring.zero()
        for c in itertools.combinations(us, len(weights) - 1):
            top = top + math.prod(c, start=model.ring.one())
        val = integrate_base(top, model, sectors(model)[0])
        expected = sum(Fraction(1, w) for w in weights)
        assert val == model.ring.const(expected)


def test_base_degrees():
    model = WeightedModel((1, 2))
    untwisted = sectors(model)[0]
    assert integrate_base(P_U1, model, untwisted) == RING2.const(Fraction(1, 2))
    assert integrate_base(P_U2, model, untwisted) == RING2.one()
    phi = fiber_class_expr(model)
    assert phi == P_HBAR - P_U1 - P_U2
    assert integrate_base(phi, model, untwisted) == RING2.const(Fraction(-3, 2))


def test_gkm_edge_divisibility():
    """Divisor restrictions at the two ends of an edge differ by a constant
    multiple of the edge weight."""
    for weights in ((1, 1), (1, 2), (2, 3), (1, 2, 3)):
        model = WeightedModel(weights)
        table = standard_table(model)
        pts = {p.slot: p for p in table.sector_points(Fraction(0))}
        for k, j in itertools.permutations(pts, 2):
            edge = pts[k].restrictions[f"u{j + 1}"]  # tangent weight toward j
            for i in range(len(weights)):
                diff = pts[k].restrictions[f"u{i + 1}"] - pts[j].restrictions[f"u{i + 1}"]
                ratio, remainder = divide_linear(diff, edge)
                assert remainder.is_zero() and ratio.is_constant(), (weights, k, j, i, ratio)


def test_fiber_class_restrictions():
    for weights in ((1, 1), (1, 2), (1, 1, 2)):
        model = WeightedModel(weights)
        table = standard_table(model)
        phi = fiber_class_expr(model)
        for p in table.sector_points(Fraction(0)):
            expected = model.ring.one()
            for t in p.tangent_weights:
                expected = expected * (model.hbar_form() - t)
            assert phi.substitute(p.restrictions) == expected


def test_steinberg_paper_values():
    model = WeightedModel((1, 2))
    table = paper_table_p12()
    L, Linv = steinberg_operator(model, "paper")
    half = Fraction(1, 2)
    assert L.generator_images["u1"] == {"fiber": half, "box": half}
    assert L.generator_images["u2"] == {"fiber": 1, "box": half}
    assert L.generator_images["box"] == {"fiber": half, "box": half}
    assert Linv.generator_images["box"] == {"fiber": half, "box": half}
    I = integrate((P_HBAR - P_U1 - P_U2) ** 2, table, Fraction(0))
    img = Linv.generator_images["fiber"]
    assert sympy.simplify(rational_to_sympy(img["fiber"]) - rational_to_sympy(I)) == 0
    assert sympy.simplify(rational_to_sympy(img["box"]) - rational_to_sympy(I)) == 0
    assert L.is_injective()
    assert not Linv.is_injective()  # two equal rows: its determinant vanishes
    assert not L.is_identity_matrix(Linv.compose(L))


def test_steinberg_standard_matrix_shape():
    model = WeightedModel((1, 2))
    L, Linv = steinberg_operator(model)
    assert len(L.matrix) == 2
    assert L.sector_order == (Fraction(0), Fraction(1, 2))
    half = Fraction(1, 2)
    assert L.matrix == ((-3 * half, -half), (3 * half, half))
    assert not L.is_injective()
    assert Linv.matrix == L.matrix
    assert not L.is_identity_matrix(Linv.compose(L))
    line = WeightedModel((1, 1))
    L1, _ = steinberg_operator(line)
    assert L1.matrix == ((Fraction(-2),),)
    assert L1.is_injective()
    assert L1.is_identity_matrix(((Fraction(1),),))


def test_orbifold_degrees_are_twice_n():
    for weights in ((1, 1), (1, 2), (2, 2), (1, 2, 3), (2, 4, 6), (1, 1, 1, 2)):
        model = WeightedModel(weights)
        for comp, deg in orbifold_degrees(model):
            assert deg == 2 * model_n(model), (weights, comp)


def test_box_square_sign_oracle_positive():
    assert box_square_sign_oracle(WeightedModel((1, 2))) == "paper"


def test_conventions_agree_on_shared_quantities():
    """The standard and hard-coded tables agree on the quantities that are
    pinned in both: the sector decomposition and the twisted-sector unit
    integral, on the hard-coded table by the localization kernel, which
    leaves no form over.  Untwisted multiplicities and restrictions are
    convention islands and deliberately not compared."""
    model = WeightedModel((1, 2))
    std = standard_table(model)
    paper = paper_table_p12()
    assert set(std.points) == set(paper.points)
    std_half = integrate_base(RING2.one(), model, sectors(model)[1])
    points = paper.sector_points(Fraction(1, 2))
    paper_half, left = _localize(RING2.one(), points, [pt.tangent_weights for pt in points])
    assert not left
    assert std_half == paper_half == RING2.const(Fraction(1, 2))
    for table in (std, paper):
        pts = table.sector_points(Fraction(1, 2))
        assert len(pts) == 1 and pts[0].multiplicity == Fraction(1, 2)


def _sympy_localization_sum(weights, f, cls):
    """The compact sector integral of ``cls`` (a sympy expression in u_i,
    lam_i), summed over the fixed points straight from the weights."""
    slots = range(len(weights))
    lam = [sympy.Symbol(f"lam{k + 1}") for k in slots]
    support = [k for k in slots if (f * weights[k]).denominator == 1]
    total = sympy.Integer(0)
    for k in support:
        def toward(j):
            return lam[j] - sympy.Rational(weights[j], weights[k]) * lam[k]

        subs = {sympy.Symbol(f"u{i + 1}"): 0 if i == k else toward(i) for i in slots}
        euler = sympy.prod([toward(j) for j in support if j != k])
        total += sympy.Rational(1, weights[k]) * cls.subs(subs) / euler
    return sympy.cancel(sympy.together(total))


def test_integrate_base_matches_sympy_localization():
    """Differential check of the divided-difference integral against a sympy
    localization sum, on seeded weight vectors, every sector and random
    polynomial classes."""
    rng = random.Random(20151)
    checked = 0
    for _ in range(15):
        weights = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
        model = WeightedModel(weights)
        ring = model.ring
        for sec in sectors(model):
            for _ in range(2):
                cls = ring.zero()
                for _ in range(rng.randint(1, 4)):
                    exps = [0] * len(ring.names)
                    for _ in range(rng.randint(0, 4)):
                        exps[rng.randrange(len(ring.names))] += 1
                    cls = cls + ring.monomial(exps, rng.randint(-3, 3))
                value = integrate_base(cls, model, sec)
                expected = _sympy_localization_sum(weights, sec.f, poly_to_sympy(cls))
                assert sympy.expand(poly_to_sympy(value) - expected) == 0, (weights, sec.f, cls)
                checked += 1
    assert checked > 50


def _sympy_integrate(cls, table, f):
    """The cotangent sector integral of ``cls`` as sympy computes it from the
    table: multiplicity times restriction over the full Euler factor, summed
    over the sector's points, then ``cancel(together(...))``."""
    total = sympy.Integer(0)
    for pt in table.sector_points(f):
        subs = {sympy.Symbol(k): poly_to_sympy(v) for k, v in pt.restrictions.items()}
        restricted = sympy.expand(poly_to_sympy(cls).subs(subs))
        total += sympy.Rational(pt.multiplicity) * restricted / poly_to_sympy(pt.euler)
    return sympy.cancel(sympy.together(total))


def test_integrate_matches_sympy_value_and_string():
    """Differential check of the rational-function integral against sympy,
    on standard tables over seeded weights, every sector and random classes
    with rational coefficients, and on the hard-coded table: the values
    agree, and the value prints as sympy's string."""
    rng = random.Random(20152)
    cases = [(paper_table_p12(), Fraction(0), (P_HBAR - P_LAM1 - P_LAM2) ** 2)]
    for _ in range(40):  # three slots cost sympy about 1 s each, so fewer of them
        slots = 3 if rng.random() < 0.15 else 2
        model = WeightedModel(tuple(rng.randint(1, 3) for _ in range(slots)))
        for sec in sectors(model):
            cases.append((standard_table(model), sec.f, None))
    for _ in range(30):
        cases.append((paper_table_p12(), rng.choice((Fraction(0), Fraction(1, 2))), None))
    seen = {"polynomial": 0, "fraction": 0, "paper": 0, "three slots": 0}
    for table, f, cls in cases:
        ring = table.model.ring
        if cls is None:
            cls = ring.zero()
            for _ in range(rng.randint(1, 3)):
                exps = [0] * len(ring.names)
                for _ in range(rng.randint(0, 3)):
                    exps[rng.randrange(len(ring.names))] += 1
                cls = cls + ring.monomial(exps, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        value = integrate(cls, table, f)
        expected = _sympy_integrate(cls, table, f)
        assert sympy.cancel(rational_to_sympy(value) - expected) == 0, (table.model.weights, f, cls)
        assert str(value) == str(expected), (table.model.weights, f, cls)
        seen["polynomial" if value.denominator.is_constant() else "fraction"] += 1
        seen["paper"] += table.convention == "paper"
        seen["three slots"] += len(table.model.weights) == 3
    assert len(cases) > 100 and min(seen.values()) >= 5, seen


def test_localize_leaves_a_form_over_on_the_paper_untwisted_points():
    # the hard-coded table's untwisted points have tangent weights lam1 and
    # lam2, so the unit integrates to (1/lam1 + 1/lam2) / 2: no polynomial
    points = paper_table_p12().sector_points(Fraction(0))
    tangents = [pt.tangent_weights for pt in points]
    for cls in (RING2.one(), P_U1 * P_HBAR):
        _, left = _localize(cls, points, tangents)
        assert left, cls


def _embedded_model(rng):
    """A model built as ``quantum.CircuitModel`` builds one: the ring of a
    six-hyperplane arrangement, torus parameters lam_i or hbar - lam_i,
    and the divisors of a subset of the slots."""
    ring = PolyRing([f"u{i + 1}" for i in range(6)] + ["hbar"] + [f"lam{i + 1}" for i in range(6)])
    slots = sorted(rng.sample(range(6), rng.randint(2, 5)))
    hbar = ring.var("hbar")
    lams = [ring.var(f"lam{i + 1}") for i in slots]
    lam_forms = tuple(hbar - lam if rng.random() < 0.5 else lam for lam in lams)
    weights = tuple(rng.randint(1, 4) for _ in slots)
    return WeightedModel(weights, ring, lam_forms, tuple(f"u{i + 1}" for i in slots))


def _random_class(rng, ring, degree):
    """A sum of up to three monomials of total degree ``degree`` in every
    variable of the ring, with Fraction coefficients."""
    cls = ring.zero()
    for _ in range(rng.randint(1, 3)):
        exps = [0] * len(ring.names)
        for _ in range(degree):
            exps[rng.randrange(len(ring.names))] += 1
        cls = cls + ring.monomial(exps, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return cls


def test_integrate_base_matches_the_localization_kernel():
    """A model's divided difference equals, term for term, the numerator of
    the common-denominator sum on its standard table, which leaves no form
    in the denominator: seeded weights with 2 to 5 slots, every sector, classes
    of every degree up to n + 2, on default and embedded models.  A class
    of degree below n in the model's divisors integrates to 0."""
    rng = random.Random(20153)
    seen = {"default": 0, "embedded": 0, "zero": 0, "nonzero": 0}
    for draw in range(24):
        if draw % 2:
            model, kind = _embedded_model(rng), "embedded"
        else:
            weights = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 5)))
            model, kind = WeightedModel(weights), "default"
        table = standard_table(model)
        for sec in sectors(model):
            points = table.sector_points(sec.f)
            n = len(sec.support) - 1
            for degree in range(n + 3):
                cls = _random_class(rng, model.ring, degree)
                numerator, left = _localize(cls, points, [pt.tangent_weights for pt in points])
                value = integrate_base(cls, model, sec)
                assert not left and value.terms == numerator.terms, (model.weights, sec.f, cls)
                if degree < n:
                    assert value.is_zero()
                seen[kind] += 1
                seen["zero" if value.is_zero() else "nonzero"] += 1
    assert min(seen.values()) >= 50, seen


def test_circuit_model_integral_matches_its_standard_table(shipped, ladder, rank3_family):
    """The table-free integral, a circuit model with one of its sectors,
    equals term for term the numerator of the common-denominator sum on
    the model's standard table, which leaves no form in the denominator:
    every sector of every circuit model of the shipped examples, the
    non-probe ladder and the rank-3 family, with the models' own
    ``lam_forms`` (lam_i on the positive side, hbar - lam_i on the
    negative), on seeded classes of degree n and n + 1 in the model's
    divisors, hbar and its torus parameters."""
    rng = random.Random(20154)
    arrs = [arr for name, arr in [*shipped.items(), *ladder.items()] if not name.startswith("probe-")]
    seen = {"zero": 0, "nonzero": 0, "mixed lam_forms": 0}
    for arr in [*arrs, *rank3_family]:
        context = CohomologyContext(arr)
        for circuit in context.circuits:
            model = CircuitModel(context, circuit, ()).model
            table = standard_table(model)
            names = [*model.u_names, "hbar", *(f"lam{i + 1}" for i in circuit.support)]
            seen["mixed lam_forms"] += len({circuit.sign_of(i) for i in circuit.support}) == 2
            for sec in sectors(model):
                points = table.sector_points(sec.f)
                n = len(sec.support) - 1
                for degree in (n, n + 1):
                    cls = model.ring.zero()
                    for _ in range(2):
                        exps = [0] * len(model.ring.names)
                        for _ in range(degree):
                            exps[model.ring.index[rng.choice(names)]] += 1
                        cls = cls + model.ring.monomial(exps, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
                    numerator, left = _localize(cls, points, [pt.tangent_weights for pt in points])
                    value = integrate_base(cls, model, sec)
                    assert not left and value.terms == numerator.terms, (model.weights, sec.f, cls)
                    seen["zero" if value.is_zero() else "nonzero"] += 1
    assert min(seen.values()) >= 50, seen


def test_integrate_base_raises_on_coinciding_nodes():
    """Two slots whose torus parameters over their weights agree give a zero
    tangent weight: the localization kernel on the standard table raises,
    and so does the table-free integral of the model."""
    ring = WeightedModel((1, 2)).ring
    lam1 = ring.var("lam1")
    model = WeightedModel((1, 2), ring, (lam1, 2 * lam1))
    points = standard_table(model).sector_points(Fraction(0))
    with pytest.raises(ZeroEuler):
        _localize(ring.var("u1"), points, [pt.tangent_weights for pt in points])
    with pytest.raises(ZeroEuler):
        integrate_base(ring.var("u1"), model, sectors(model)[0])
