from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hypertoric.arrangement import InvariantError
from hypertoric.cli import run
from hypertoric.crring import CohomologyContext, CRClass, cr_multiply
from hypertoric.lawrence import LawrenceFan, build_lawrence_fan
from hypertoric.exactalg import solve_rational_system
from hypertoric.localize import (
    _localize,
    fiber_class_expr,
    integrate,
    integrate_base,
    sectors,
    standard_table,
)
from hypertoric.multifan import circuits
from hypertoric.quantum import (
    HBAR,
    SIGN_CONVENTIONS,
    CircuitModel,
    NovikovSeries,
    QSRElement,
    QuantumContext,
    TruncationTooSmall,
    differential_sign_report,
    minimal_curve_unit,
    qsr_circuit_relation_defect,
    qsr_multiply,
    qsr_presentation,
    qsr_word,
    quantum_divisor_product,
    sector_pairs,
    star_word,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def q1(tp1):
    return QuantumContext(tp1)


@pytest.fixture(scope="module")
def q12(tp12):
    return QuantumContext(tp12)


def residue_of(weights):
    """The (f1, f2) -> r map of a circuit's sector pairs."""
    return {(f1, f2): r for f1, f2, r in sector_pairs(weights)}.get


def scan_residues(weights) -> dict:
    """Reference: scan every r below lcm(w), and every ordered pair of
    distinct slots (i, j), for <r/w_i> = f1, <r/w_j> = f2 and every other
    weight dividing r.  Maps each (f1, f2) to its sorted residues."""
    found: dict = {}
    for r in range(math.lcm(*weights)):
        for i, j in itertools.permutations(range(len(weights)), 2):
            if all(r % weights[k] == 0 for k in range(len(weights)) if k not in (i, j)):
                pair = (Fraction(r, weights[i]) % 1, Fraction(r, weights[j]) % 1)
                found.setdefault(pair, set()).add(r)
    return {pair: sorted(found[pair]) for pair in sorted(found)}


def test_r_examples():
    r = residue_of((1, 2))
    assert r((Fraction(0), Fraction(0))) == 0
    assert r((Fraction(0), Fraction(1, 2))) == 1
    assert r((Fraction(1, 2), Fraction(0))) == 1
    assert r((Fraction(1, 2), Fraction(1, 2))) is None
    assert residue_of((2, 2))((Fraction(1, 2), Fraction(0))) is None
    assert residue_of((2, 2))((Fraction(1, 2), Fraction(1, 2))) == 1
    assert residue_of((1, 1))((Fraction(0), Fraction(0))) == 0


def test_r_inverse_symmetry():
    from hypertoric.localize import WeightedModel, sectors

    for weights in ((1, 2), (2, 2), (1, 2, 3), (2, 4)):
        model = WeightedModel(weights)
        fracs = [s.f for s in sectors(model)]
        l = math.lcm(*weights)
        residue = residue_of(weights)

        def inv(f):
            return Fraction(0) if f == 0 else 1 - f

        for f1, f2 in itertools.product(fracs, repeat=2):
            r = residue((f1, f2))
            r_rev = residue((inv(f2), inv(f1)))
            assert (r is None) == (r_rev is None)
            if r is not None:
                assert (r + r_rev) % l == 0


def test_sector_pairs_match_the_scan():
    """On seeded weights the congruence solution gives the scan's residue
    for every pair, and where the scan finds several residues for a pair
    it raises at the scan's first such pair with the same list."""
    rng = random.Random(20261018)
    several = 0
    for _ in range(400):
        weights = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 5)))
        scanned = scan_residues(weights)
        clashes = [pair for pair, rs in scanned.items() if len(rs) > 1]
        if clashes:
            several += 1
            f1, f2 = clashes[0]
            message = f"sector pair ({f1},{f2}) has several residues {scanned[f1, f2]}"
            with pytest.raises(InvariantError) as err:
                sector_pairs(weights)
            assert str(err.value) == message
        else:
            assert sector_pairs(weights) == tuple(
                (f1, f2, rs[0]) for (f1, f2), rs in scanned.items()
            )
    assert several > 10


@pytest.mark.parametrize("weights", [(10, 13, 23, 2, 16), (15, 28, 3, 13, 24)])
def test_sector_pairs_solve_their_congruences(weights):
    """Circuit weights of the d4m6 ladder rung: every returned residue
    meets its congruences, and the pairs are exactly the scan's."""
    l = math.lcm(*weights)
    pairs = sector_pairs(weights)
    scanned = scan_residues(weights)
    assert all(len(rs) == 1 for rs in scanned.values())
    assert pairs == tuple((f1, f2, rs[0]) for (f1, f2), rs in scanned.items())
    assert len({(f1, f2) for f1, f2, _ in pairs}) == len(pairs)
    for f1, f2, r in pairs:
        assert 0 <= r < l
        assert any(
            Fraction(r, weights[i]) % 1 == f1
            and Fraction(r, weights[j]) % 1 == f2
            and all(r % w == 0 for k, w in enumerate(weights) if k not in (i, j))
            for i, j in itertools.permutations(range(len(weights)), 2)
        )


def test_tp1_series_through_order_six(q1):
    ctx = q1.context
    u2 = CRClass.untwisted(ctx, ctx.u(1))
    series = quantum_divisor_product(q1, 0, u2, order=6)
    target = CRClass.untwisted(ctx, (ctx.hbar() - ctx.u(0)) * (ctx.hbar() - ctx.u(1)))
    assert series.coefficient((0,)).is_zero()
    for k in range(1, 7):
        assert series.coefficient((k,)) == target


def test_tp12_series_low_orders(q12):
    ctx = q12.context
    u2 = CRClass.untwisted(ctx, ctx.u(1))
    series = quantum_divisor_product(q12, 0, u2, order=2)
    box = [b for b in ctx.boxes if not b.is_trivial()][0]
    assert series.coefficient((1,)) == CRClass.build(ctx, {box: -ctx.hbar()})
    assert series.coefficient((2,)) == CRClass.untwisted(
        ctx, (ctx.hbar() - ctx.u(0)) * (ctx.hbar() - ctx.u(1))
    )


def test_classical_limit_is_cup_product(q12):
    ctx = q12.context
    for i, j in itertools.product(range(2), repeat=2):
        x = CRClass.untwisted(ctx, ctx.u(j))
        series = quantum_divisor_product(q12, i, x, order=1)
        cup = cr_multiply(CRClass.untwisted(ctx, ctx.u(i)), x)
        assert series.coefficient((0,)) == cup


def test_product_is_commutative(q12, q1):
    for q in (q1, q12):
        ctx = q.context
        a = quantum_divisor_product(
            q, 0, CRClass.untwisted(ctx, ctx.u(1)), order=4
        )
        b = quantum_divisor_product(
            q, 1, CRClass.untwisted(ctx, ctx.u(0)), order=4
        )
        assert (a - b).is_zero()


def test_linearity_in_argument(q12):
    ctx = q12.context
    x = CRClass.untwisted(ctx, ctx.u(1))
    y = CRClass.untwisted(ctx, ctx.hbar())
    lhs = quantum_divisor_product(q12, 0, x + y.scale(3), order=3)
    rhs = quantum_divisor_product(q12, 0, x, order=3) + quantum_divisor_product(
        q12, 0, y, order=3
    ).scale(3)
    assert (lhs - rhs).is_zero()


def test_sector_age_matches_box_age(q12):
    """The sector grading of a circuit model agrees with the arrangement's
    box ages (the hypertoric age convention)."""
    from hypertoric.localize import sectors

    for ci in range(len(q12.context.circuits)):
        model = q12.model(ci)
        for sec in sectors(model.model):
            box = model.box_of_sector(sec.f)
            assert box.age == sec.age


def scanned_box(model, f):
    """Reference: sector f's box found by scanning the box table for its
    fractional profile (<f w_i>, or 1 - <f w_i> on the negative side) with
    zero torsion, the trivial box for f = 0."""
    boxes = model.context.boxes
    if f == 0:
        return next(b for b in boxes if b.is_trivial())
    profile = {}
    for i, w in zip(model.slots, model.circuit.weights):
        a = (f * w) % 1
        if a:
            profile[i] = 1 - a if model.circuit.sign_of(i) < 0 else a
    return next(b for b in boxes if dict(b.alphas) == profile and not any(b.v_torsion))


@pytest.mark.parametrize(
    "name",
    [
        *("cotangent-p1", "cotangent-p12", "hirzebruch", "hirzebruch-weighted"),
        *("d2m6", "d2m8", "d2m10", "d4m6", "tp1123", "tp2", "tp3", "tp4"),
    ],
)
def test_sector_boxes_match_the_box_table_scan(name, shipped, ladder):
    """Each circuit model names its sector boxes by their coordinates; they
    are the boxes a scan of the whole table finds."""
    arr = shipped[name] if name in shipped else ladder[name]
    q = QuantumContext(arr)
    for ci in range(len(q.context.circuits)):
        model = q.model(ci)
        for sec in sectors(model.model):
            assert model.box_of_sector(sec.f) == scanned_box(model, sec.f), (model.circuit.support, sec.f)


def per_divisor_elimination(model):
    """Reference: for each divisor t outside the circuit, solve for a
    covector y pairing 1 with b_t and 0 with the other outside normals
    (free coordinates 0), and write u_t as
    lam_t + sum_{i != t} <y, b_i> (lam_i - u_i)."""
    ctx = model.context
    arr = ctx.arr
    outside = [t for t in range(arr.m) if t not in model.slots]
    elim = {}
    for t in outside:
        others = [s for s in outside if s != t]
        rows = [arr.b_bar(s) for s in others] + [arr.b_bar(t)]
        y = solve_rational_system(rows, [0] * len(others) + [1])
        if y is None:
            continue
        replacement = ctx.lam(t)
        for i in range(arr.m):
            if i != t:
                coef = sum(a * b for a, b in zip(y, arr.b_bar(i)))
                replacement = replacement + (ctx.lam(i) - ctx.u(i)) * coef
        elim[t] = replacement
    return elim


def every_circuit_model(arr):
    """The model of each circuit of ``arr``, in circuit order; a circuit
    whose sector pair has several residues has no model and is skipped."""
    context = CohomologyContext(arr)
    for circuit in context.circuits:
        try:
            yield CircuitModel(context, circuit, sector_pairs(circuit.weights))
        except InvariantError as e:
            assert "several residues" in str(e)


def assert_eliminations_match(arr):
    """Every circuit model of ``arr`` eliminates the divisors the per-divisor
    solve eliminates, into the same polynomials."""
    for model in every_circuit_model(arr):
        assert model._elimination == per_divisor_elimination(model), model.circuit.support


def test_elimination_matches_the_per_divisor_solve(shipped, ladder):
    for name, arr in [*shipped.items(), *ladder.items()]:
        if not name.startswith("probe-"):
            assert_eliminations_match(arr)


def test_elimination_matches_the_per_divisor_solve_rank3(rank3_family):
    for arr in rank3_family:
        assert_eliminations_match(arr)


def test_elimination_leaves_no_outside_divisor(shipped, ladder, rank3_family):
    """Each replacement u_t - sum_r y_r L_r pairs y with every outside normal
    to 0 except b_t, where u_t cancels, so no outside divisor is left: the
    invariant the last check of ``eliminate_outside`` guards."""
    arrs = [arr for name, arr in [*shipped.items(), *ladder.items()] if not name.startswith("probe-")]
    replacements = 0
    for arr in [*arrs, *rank3_family]:
        for model in every_circuit_model(arr):
            names = model.context.ring.names
            outside = {f"u{t + 1}" for t in range(arr.m) if t not in model.slots}
            for t, replacement in model._elimination.items():
                assert not {names[v] for v in replacement.support()} & outside, (model.circuit.support, t)
                replacements += 1
    assert replacements


def test_additive_in_divisor(q12):
    """The product by the sum of two divisors is the sum of the products:
    the classical part by bilinearity, the corrections by linearity of the
    curve pairing."""
    ctx = q12.context
    x = CRClass.untwisted(ctx, ctx.u(1))
    s1 = quantum_divisor_product(q12, 0, x, order=3)
    s2 = quantum_divisor_product(q12, 1, x, order=3)
    total = s1 + s2
    # classical part: cup with u1 + u2
    combined = cr_multiply(
        CRClass.untwisted(ctx, ctx.u(0) + ctx.u(1)), x
    )
    assert total.coefficient((0,)) == combined
    # corrections carry the summed pairing (beta^S)_1 + (beta^S)_2 = 3
    (circuit,) = ctx.circuits
    assert circuit.beta_S[0] + circuit.beta_S[1] == 3
    single = quantum_divisor_product(q12, 0, x, order=3)
    box_term = total.coefficient((1,))
    assert box_term == single.coefficient((1,)).scale(3)


def test_gamma_apply_integrates_once_per_component(tp12, hirzebruch_weighted, monkeypatch):
    """gamma_apply remembers the integral of each (f1, component), and on
    seeded classes its output equals the correspondence computed afresh,
    integrated by the localization kernel on the model's standard table,
    which leaves no form over."""
    calls = []

    def counting(poly, model, sector):
        calls.append(1)
        return integrate_base(poly, model, sector)

    monkeypatch.setattr("hypertoric.quantum.integrate_base", counting)
    rng = random.Random(11)
    for arr in (tp12, hirzebruch_weighted):
        q = QuantumContext(arr)
        ctx = q.context
        keys = set()
        for _ in range(3):
            x = CRClass.build(ctx, {
                box: sum((ctx.u(i) * rng.randint(-2, 2) for i in range(arr.m)), ctx.hbar() * rng.randint(-2, 2))
                for box in ctx.boxes
            })
            for ci in range(len(ctx.circuits)):
                model = q.model(ci)
                table = standard_table(model.model)
                secs = {sec.f: sec for sec in sectors(model.model)}
                for f1, f2, _ in model.sector_pairs:
                    comp = x.component(model.box_of_sector(f1))
                    if comp.is_zero():
                        expected = CRClass.zero(ctx)
                    else:
                        keys.add((id(model), f1, comp))
                        integrand = model.fiber_dual(model.eliminate_outside(comp))
                        points = table.sector_points(f1)
                        scalar, left = _localize(integrand, points, [pt.tangent_weights for pt in points])
                        assert not left
                        sign = (-1) ** (secs[f1].age + secs[f2].age)
                        out_box = model.box_of_sector(Fraction(0) if f2 == 0 else 1 - f2)
                        out = model.fiber_dual(fiber_class_expr(model.model, secs[f2].support))
                        expected = CRClass.build(ctx, {out_box: out * scalar * sign})
                    assert model.gamma_apply(f1, f2, x) == expected
        assert calls and len(calls) == len(keys)
        calls.clear()


def every_model_first(qctx):
    """Reference: build every circuit's model in circuit order before the
    product reads one, as the context did before models were on demand."""
    for ci in range(len(qctx.context.circuits)):
        qctx.model(ci)


def printed_products(arr, i, eager):
    """The terms of u_i times u_(i+1 mod m) at order 4 under each convention
    in turn, the default first, with boxes and classes as printed, read off
    one fresh context; or the type and message of what the products raise.
    The first product is the one the default convention prints alone."""
    qctx = QuantumContext(arr)
    ctx = qctx.context
    x = CRClass.untwisted(ctx, ctx.u((i + 1) % arr.m))
    try:
        if eager:
            every_model_first(qctx)
        return [
            [
                (key, [(box.label(), str(poly)) for box, poly in cls.components])
                for key, cls in quantum_divisor_product(qctx, i, x, 4, conv).terms
            ]
            for conv in SIGN_CONVENTIONS
        ]
    except InvariantError as e:
        return type(e), str(e)


def assert_on_demand_matches_every_model_first(arr, monkeypatch):
    # every product reads a fresh context; the pure sector_pairs is solved
    # once per weight vector across them, as it dominates on rank3_family
    monkeypatch.setattr("hypertoric.quantum.sector_pairs", functools.cache(sector_pairs))
    for i in range(arr.m):
        assert printed_products(arr, i, eager=False) == printed_products(arr, i, eager=True), i


def test_on_demand_models_match_every_model_first(shipped, ladder, monkeypatch):
    """Building only the models of the circuits that meet the divisor gives
    the series, or the error, that building every model first gives."""
    for name, arr in [*shipped.items(), *ladder.items()]:
        if not name.startswith("probe-"):
            assert_on_demand_matches_every_model_first(arr, monkeypatch)


def test_on_demand_models_match_every_model_first_rank3(rank3_family, monkeypatch):
    for arr in rank3_family:
        assert_on_demand_matches_every_model_first(arr, monkeypatch)


@pytest.mark.parametrize(
    "doc, extra, built, code, message",
    [
        ("arrangements/hirzebruch.json", [], 2, 0, ""),
        ("arrangements/hirzebruch-weighted.json", ["--sign-convention", "all"], 2, 0, ""),
        ("bench/ladder/d2m6.json", [], 1, 1, "divisor u2 cannot be eliminated into circuit (0, 3)"),
        ("bench/ladder/d3m7.json", [], 0, 1, "sector pair (1/5,4/5) has several residues [12, 48]"),
    ],
    ids=("hirzebruch", "hirzebruch-weighted-all", "d2m6", "d3m7"),
)
def test_quantum_divisor_builds_only_the_models_it_reads(doc, extra, built, code, message, monkeypatch, capsys):
    """``quantum-divisor --divisor 1 --with 2`` builds the model of a circuit
    only when divisor 1 pairs with it; on d3m7 the sector pairs raise
    before any model is built.  Building every model made 3, 3, 13 and 6."""
    calls = []
    init = CircuitModel.__init__

    def counting(self, *args):
        calls.append(1)
        init(self, *args)

    monkeypatch.setattr(CircuitModel, "__init__", counting)
    argv = ["quantum-divisor", "--input", str(ROOT / doc), "--divisor", "1", "--with", "2", *extra]
    assert run(argv) == code
    assert len(calls) == built
    assert message in capsys.readouterr().err


def test_truncation_guard(q1):
    with pytest.raises(TruncationTooSmall):
        quantum_divisor_product(
            q1, 0, CRClass.untwisted(q1.context, q1.context.u(0)), order=0
        )


def test_disjoint_divisor_product_stays_classical(hirzebruch_weighted):
    """Divisors whose rays share a Lawrence cone get no quantum correction:
    every circuit contribution integrates a degree-one class over a
    two-dimensional model and vanishes for dimension reasons."""
    q = QuantumContext(hirzebruch_weighted)
    ctx = q.context
    series = quantum_divisor_product(q, 0, CRClass.untwisted(ctx, ctx.u(2)), 3)
    assert series.terms == ((tuple([0, 0, 0]), cr_multiply(
        CRClass.untwisted(ctx, ctx.u(0)), CRClass.untwisted(ctx, ctx.u(2))
    )),)


def test_divisor_outside_circuit_contributes_zero(hirzebruch):
    # a divisor pairs by its own circuit coordinate, which vanishes off the
    # support; products of complementary divisors get corrections only from
    # shared circuits
    q = QuantumContext(hirzebruch)
    ctx = q.context
    series = quantum_divisor_product(q, 1, CRClass.untwisted(ctx, ctx.u(2)), 2)
    # circuit {2,3} (indices 1,2) is the only one containing divisor 2 with
    # an argument it can see; the correction exists
    assert any(sum(k) > 0 for k, _ in series.terms)


def test_differential_report_tp12(q12):
    report = differential_sign_report(q12, 6)
    by_residue = {entry["residue"]: entry for entry in report}
    assert by_residue[0]["first_divergence_from_calibrated"]["eq-5.2-literal"] == 4
    assert by_residue[0]["first_divergence_from_calibrated"]["theorem-1.2-literal"] is None
    assert by_residue[1]["first_divergence_from_calibrated"]["theorem-1.2-literal"] == 1


def test_tp1_qsr_relation_via_divisor_engine(q1):
    lhs = star_word(q1, [("u", 0), ("u", 1)], 6)
    rhs = star_word(q1, [("hu", 0), ("hu", 1)], 6).shift(0, 1)
    assert (lhs - rhs).is_zero()


def test_tp12_derived_relation_divisor_engine_residual(q12):
    """The literal three-fold divisor product does not close the eliminated
    relation: the correspondence terms the shortcut derivation drops are
    exactly quadratic, and the engine keeps them.  The semigroup ring
    check (test_qsr_* below) is the one that closes exactly."""
    lhs = star_word(q12, [("u", 0), ("u", 1), ("u", 1)], 3)
    rhs = star_word(q12, [("hu", 0), ("hu", 1), ("hu", 1)], 3).shift(0, 2)
    defect = lhs - rhs
    assert not defect.is_zero()
    ctx = q12.context
    residual = defect.coefficient((2,))
    expected = CRClass.untwisted(
        ctx,
        2 * ctx.u(1) * (ctx.hbar() - ctx.u(1)) * ctx.hbar() * 0
        + 2 * ctx.u(1) * ctx.hbar() ** 2 - 2 * ctx.u(1) ** 2 * ctx.hbar(),
    )
    assert residual == expected


def test_zero_series_verifies(q1):
    zero = NovikovSeries.from_class(q1.context, 6, CRClass.zero(q1.context))
    assert zero.is_zero()


def test_qsr_presentation_counts(tp1, tp12):
    fan1, rels1 = qsr_presentation(tp1, order=4)
    assert len(rels1) == 2
    fan12, rels12 = qsr_presentation(tp12, order=4)
    assert len(rels12) == 2
    for rels in (rels1, rels12):
        for r in rels:
            assert len(r.terms) == 3  # y(z) + y(w) - hbar


def test_qsr_unit_and_generator_products(tp1):
    fan, _ = qsr_presentation(tp1, order=6)
    one = QSRElement.unit(fan, 6)
    for ray in range(4):
        g = QSRElement.generator(fan, 6, ray)
        assert (qsr_multiply(one, g, fan, 6) - g).is_zero()


def test_qsr_nonfacial_product_carries_degree(tp1):
    fan, _ = qsr_presentation(tp1, order=6)
    a, b = fan.nonfacial_ray_pairs()[0]
    ya = QSRElement.generator(fan, 6, a)
    yb = QSRElement.generator(fan, 6, b)
    prod = qsr_multiply(ya, yb, fan, 6)
    ((_, exp), _coeff), = prod.terms
    assert sum(exp) == 1


def test_qsr_associative_sampled(tp1):
    fan, _ = qsr_presentation(tp1, order=5)
    gens = [QSRElement.generator(fan, 5, r) for r in range(4)]
    for a, b, c in itertools.combinations(gens, 3):
        lhs = qsr_multiply(qsr_multiply(a, b, fan, 5), c, fan, 5)
        rhs = qsr_multiply(a, qsr_multiply(b, c, fan, 5), fan, 5)
        assert (lhs - rhs).is_zero()


def product_prefixes(fan, word, order):
    """Reference: the products of a word's prefixes, taken letter by letter
    with ``qsr_multiply`` from the unit, each truncated at ``order``, up to
    the first that is zero (every longer prefix is zero too)."""
    side = fan.divisor_rays
    result, prefixes = QSRElement.unit(fan, order), []
    for kind, i in word:
        ray = side[i]
        if kind == "hu":
            ray = fan.w_ray(i) if ray == fan.z_ray(i) else fan.z_ray(i)
        result = qsr_multiply(result, QSRElement.generator(fan, order, ray), fan, order)
        prefixes.append(result)
        if result.is_zero():
            break
    return prefixes


def test_qsr_word_matches_the_product_of_its_letters(shipped, ladder, rank3_family, monkeypatch):
    """A word of generators is one monomial: the u-word and the
    (hbar - u)-word of every circuit give the terms of the letter-by-letter
    product at orders 0 to 6, on the shipped examples, the non-probe ladder
    and the rank-3 family.  On words of at most 24 letters so does every
    prefix, so truncation is decided as that product decides it after each
    letter; each prefix is a call of its own, so longer words, up to 133
    letters, are checked whole.  The l-pairing is pure, so the reference
    computes each fan's degrees once."""
    degrees = {}
    l_pairing = LawrenceFan.l_pairing

    def remembered(fan, c1, c2):
        if (c1, c2) not in degrees:
            degrees[c1, c2] = l_pairing(fan, c1, c2)
        return degrees[c1, c2]

    monkeypatch.setattr(LawrenceFan, "l_pairing", remembered)
    arrs = [arr for name, arr in [*shipped.items(), *ladder.items()] if not name.startswith("probe-")]
    seen = {"zero": 0, "nonzero": 0, "whole word": 0}
    for arr in [*arrs, *rank3_family]:
        fan = build_lawrence_fan(arr)
        degrees.clear()
        for circuit in circuits(arr):
            for kind in ("u", "hu"):
                word = [(kind, i) for i, w in zip(circuit.support, circuit.weights) for _ in range(w)]
                lengths = range(1, len(word) + 1) if len(word) <= 24 else [len(word)]
                seen["whole word"] += len(word) > 24
                for order in range(7):
                    wants = product_prefixes(fan, word, order)
                    for k in lengths:
                        want = wants[k - 1] if k <= len(wants) else QSRElement(order, ())
                        got = qsr_word(fan, word[:k], order)
                        assert (got.order, got.terms) == (want.order, want.terms), (
                            circuit.support, kind, order, k,
                        )
                        seen["zero" if got.is_zero() else "nonzero"] += 1
    assert min(seen.values()) > 100, seen


def test_qsr_eliminated_relations(tp1, tp12):
    fan1, _ = qsr_presentation(tp1, order=6)
    (c1,) = circuits(tp1)
    assert qsr_circuit_relation_defect(fan1, c1, 6).is_zero()
    fan12, _ = qsr_presentation(tp12, order=3)
    (c12,) = circuits(tp12)
    assert qsr_circuit_relation_defect(fan12, c12, 3).is_zero()


def test_qsr_elements_carry_no_fan_and_no_ring(tp12):
    """Coefficients are polynomials in hbar alone, in one module-level ring;
    the fan is passed to the operations that read it."""
    assert QSRElement.__slots__ == ("order", "terms")
    fan, rels = qsr_presentation(tp12, order=2)
    for rel in rels:
        assert all(coeff.ring is HBAR for _, coeff in rel.terms)


def test_minimal_unit_matches_circuit_lcm(tp1, tp12):
    fan1, _ = qsr_presentation(tp1, order=2)
    assert minimal_curve_unit(fan1) == (Fraction(1),)
    fan12, _ = qsr_presentation(tp12, order=2)
    assert minimal_curve_unit(fan12) == (Fraction(1, 2),)


def _a_n_product(arr):
    """u1 * u2 on an A_{m-1} surface at the default order 6, with its cup product."""
    q = QuantumContext(arr)
    ctx = q.context
    u1, u2 = (CRClass.untwisted(ctx, ctx.u(i)) for i in (0, 1))
    return quantum_divisor_product(q, 0, u2, 6), cr_multiply(u1, u2)


@pytest.mark.parametrize("m", [2, 3])
def test_a_n_classical_limit(m, a_n):
    """The q^0 coefficient of u1 * u2 is the Chen-Ruan cup product (ROADMAP 14)."""
    series, cup = _a_n_product(a_n[m])
    assert series.coefficient((0,) * len(circuits(a_n[m]))) == cup


@pytest.mark.xfail(
    strict=True,
    raises=InvariantError,
    reason="divisor u2 cannot be eliminated into circuit (0, 2): the circuit models "
    "eliminate one outside divisor at a time (ROADMAP 7)",
)
@pytest.mark.parametrize("m", range(4, 17))
def test_a_n_quantum_divisor_product(m, a_n):
    _a_n_product(a_n[m])


# ---------------------------------------------------------------------------
# Pairing oracles: the Frobenius axioms of the divisor operators

PAIRING_ORDER = 3


def _pairing(qctx: QuantumContext):
    """The context, the untwisted basis classes 1, u_1, ..., u_m, and the
    pairing of two series with two classes key by key, on an input with one
    circuit (m = d + 1).  There the circuit's model is the whole space, so
    localization on its standard table after the fiber-dual dictionary is
    the equivariant integral.  The untwisted sector pairs with itself
    alone, so only untwisted components are paired."""
    ctx = qctx.context
    assert len(ctx.circuits) == 1
    model, box, zero = qctx.model(0), ctx.trivial_box(), ctx.ring.zero()
    table = standard_table(model.model)

    def integral(p):
        return integrate(model.fiber_dual(p), table, Fraction(0))

    def paired(x, y, a: CRClass, b: CRClass) -> list:
        """(int x_k a, int y_k b) for each Novikov key k of the series x or y."""
        xs, ys = ({key: cls.component(box) for key, cls in s.terms} for s in (x, y))
        return [
            (integral(xs.get(k, zero) * a.component(box)), integral(ys.get(k, zero) * b.component(box)))
            for k in sorted(xs.keys() | ys.keys())
        ]

    basis = [CRClass.untwisted(ctx, p) for p in (ctx.ring.one(), *map(ctx.u, range(ctx.arr.m)))]
    return ctx, basis, paired


def self_adjointness_pairs(qctx: QuantumContext) -> list:
    """(int (D * a) b, int a (D * b)) for every divisor D and every two of
    a, b in {1, u_1, ..., u_m, u_1 u_2}, per Novikov key up to order 3.
    Quantum multiplication by a divisor is self-adjoint for the Poincare
    pairing (Kontsevich-Manin; Cox-Katz), so each pair agrees."""
    ctx, basis, paired = _pairing(qctx)
    basis.append(CRClass.untwisted(ctx, ctx.u(0) * ctx.u(1)))
    out = []
    for i in range(ctx.arr.m):
        products = [quantum_divisor_product(qctx, i, a, PAIRING_ORDER) for a in basis]
        for (a, da), (b, db) in itertools.combinations(zip(basis, products), 2):
            out += paired(da, db, b, a)
    return out


def commutativity_pairs(qctx: QuantumContext) -> list:
    """(int (D_i * D_j * a) b, int (D_j * D_i * a) b) for i < j and a, b in
    {1, u_1, ..., u_m}, per Novikov key up to order 3: the operators of two
    divisors commute."""
    ctx, basis, paired = _pairing(qctx)

    def twice(i, j, a):
        inner = quantum_divisor_product(qctx, j, a, PAIRING_ORDER)
        return quantum_divisor_product(qctx, i, inner, PAIRING_ORDER)

    out = []
    for i, j in itertools.combinations(range(ctx.arr.m), 2):
        for a in basis:
            ij, ji = twice(i, j, a), twice(j, i, a)
            for b in basis:
                out += paired(ij, ji, b, b)
    return out


SINGLE_CIRCUIT = ("cotangent-p1", "cotangent-p12", "tp2")


@pytest.mark.parametrize("name", SINGLE_CIRCUIT)
def test_divisor_operators_are_self_adjoint_and_commute(name, shipped, ladder):
    """Both Frobenius axioms hold exactly on the inputs with one circuit
    (ROADMAP 20); some paired values are nonzero, so neither is vacuous."""
    qctx = QuantumContext(shipped[name] if name in shipped else ladder[name])
    for pairs in (self_adjointness_pairs(qctx), commutativity_pairs(qctx)):
        assert [lhs == rhs for lhs, rhs in pairs] == [True] * len(pairs)
        assert any(not lhs.numerator.is_zero() for lhs, _ in pairs)


@pytest.mark.parametrize("name", ["cotangent-p1", "tp2"])
def test_a_corrupted_zero_section_class_breaks_self_adjointness(name, shipped, ladder, monkeypatch):
    """Negative control: adding u_1 hbar^(n-1) to every zero-section class
    the circuit models emit makes the self-adjointness check fail (18 of 40
    pairs on cotangent-p1, 36 of 66 on tp2)."""
    from hypertoric import quantum

    def corrupted(model, support):
        n = len(support) - 1
        return fiber_class_expr(model, support) + model.ring.var("u1") * model.hbar_form() ** (n - 1)

    monkeypatch.setattr(quantum, "fiber_class_expr", corrupted)
    qctx = QuantumContext(shipped[name] if name in shipped else ladder[name])
    pairs = self_adjointness_pairs(qctx)
    assert sum(lhs != rhs for lhs, rhs in pairs) > 0
