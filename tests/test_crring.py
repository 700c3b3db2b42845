from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm

import pytest

from hypertoric.arrangement import ArrangementError, InvariantError, StackyArrangement
from hypertoric.cli import payload_cohomology
from hypertoric.crring import (
    CohomologyContext,
    CRClass,
    UnreducedInput,
    _box_pair_product,
    cr_multiply,
    cr_presentation,
    ht_presentation,
    htt_presentation,
)
from hypertoric.exactalg import FgAbelianGroup, rational_rank, solve_rational_system
from hypertoric.multifan import BoxElement, box_inverse


@pytest.fixture(scope="module")
def ctx12(tp12):
    return CohomologyContext(tp12)


def generators(ctx):
    gens = [CRClass.untwisted(ctx, ctx.u(i)) for i in range(ctx.arr.m)]
    gens.append(CRClass.untwisted(ctx, ctx.hbar()))
    for b in ctx.boxes:
        if not b.is_trivial():
            gens.append(CRClass.sector_unit(ctx, b))
    return gens


def test_ht_presentation_tp12(ctx12):
    assert ht_presentation(ctx12).texts() == ("u1*u2 = 0",)


def test_ht_presentation_hirzebruch(hirzebruch):
    ctx = CohomologyContext(hirzebruch)
    texts = ht_presentation(ctx).texts()
    assert texts == ("u2*u3 = 0", "u1*u2*u4 = 0", "u1*u3*u4 = 0")


def test_htt_presentation_uses_splits(hirzebruch):
    ctx = CohomologyContext(hirzebruch)
    texts = htt_presentation(ctx).texts()
    # circuit {1,2,4} has its middle index on the negative side
    assert "u2*u3 = 0" in texts
    assert any("u1*u4*hbar" in t and "u1*u2*u4" in t for t in texts)
    assert "u1*u3*u4 = 0" in texts


def test_htt_no_circuits_free():
    arr = StackyArrangement.build(
        FgAbelianGroup(2), [(1, 0), (0, 1)], theta=(), psi=(0, 0)
    )
    ctx = CohomologyContext(arr)
    assert htt_presentation(ctx).texts() == ()
    assert cr_presentation(ctx).texts() == ()


def test_cr_equals_htt_without_boxes(tp1):
    ctx = CohomologyContext(tp1)
    assert [b for b in ctx.boxes if not b.is_trivial()] == []
    assert cr_presentation(ctx).texts() == htt_presentation(ctx).texts()


def test_cr_presentation_tp12(ctx12):
    texts = cr_presentation(ctx12).texts()
    assert texts[0] == "u1*u2 = 0"
    box_label = [b for b in ctx12.boxes if not b.is_trivial()][0].label()
    assert f"{box_label}*u1 = 0" in texts
    assert f"{box_label}*u2 = 0" in texts
    assert f"{box_label}*{box_label} = u1^2" in texts
    literal = cr_presentation(ctx12, box_square_sign="literal").texts()
    assert f"{box_label}*{box_label} = -u1^2" in literal


def test_cr_relations_reduce_to_zero(shipped):
    """The presentation is self-consistent on every shipped example: each
    relation evaluates to its right-hand side under the product."""
    for arr in shipped.values():
        ctx = CohomologyContext(arr)
        pres = cr_presentation(ctx)
        for rel in pres.relations:
            if rel.kind == "box-u":
                box_cls = CRClass.sector_unit(ctx, rel.lhs_boxes[0])
                u_cls = CRClass.untwisted(ctx, rel.lhs_poly)
                assert cr_multiply(box_cls, u_cls).is_zero()
            if rel.kind == "box-box":
                b1, b2 = rel.lhs_boxes
                prod = cr_multiply(
                    CRClass.sector_unit(ctx, b1), CRClass.sector_unit(ctx, b2)
                )
                assert prod == rel.rhs


def test_normal_form_kills_circuit_monomials(ctx12):
    p = ctx12.u(0) * ctx12.u(1) * ctx12.hbar() + ctx12.u(0) ** 3
    assert CRClass.untwisted(ctx12, p).component(ctx12.trivial_box()) == ctx12.u(0) ** 3


def test_trivial_box_is_unit(shipped):
    for arr in shipped.values():
        ctx = CohomologyContext(arr)
        one = CRClass.untwisted(ctx, ctx.ring.one())
        for g in generators(ctx):
            assert cr_multiply(one, g) == g
            assert cr_multiply(g, one) == g


def test_commutative_and_associative_on_generators(shipped):
    for arr in shipped.values():
        ctx = CohomologyContext(arr)
        gens = generators(ctx)
        for a, b in itertools.combinations(gens, 2):
            assert cr_multiply(a, b) == cr_multiply(b, a)
        for a, b, c in itertools.combinations(gens, 3):
            assert cr_multiply(cr_multiply(a, b), c) == cr_multiply(
                a, cr_multiply(b, c)
            )


PARTIAL_NORMAL_FORM = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="CRClass equality is a partial normal form: it reduces by the monomial "
    "relations only, so a class such as u1^3 may vanish modulo the linear relations "
    "yet compare nonzero (ROADMAP 5)",
)
NO_CLOSING_BOX = pytest.mark.xfail(
    strict=True,
    raises=ArrangementError,
    reason="find_box ignores the cone of a box, so a twisted product finds no "
    "closing box (ROADMAP 2(a))",
)


@pytest.mark.parametrize(
    "name",
    [
        *("cotangent-p1", "hirzebruch", "tp2", "tp3", "tp4"),
        *(
            pytest.param(n, marks=PARTIAL_NORMAL_FORM)
            for n in ("cotangent-p12", "hirzebruch-weighted", "tp1123")
        ),
        *(
            pytest.param(n, marks=NO_CLOSING_BOX)
            for n in ("d2m6", "d2m8", "d2m10", "d3m7", "d3m8", "d3m9", "d4m6")
        ),
        *(pytest.param(f"rank3-{k}", marks=NO_CLOSING_BOX) for k in range(8)),
    ],
)
def test_cr_multiply_is_associative(name, shipped, ladder, rank3_family):
    """(x y) z == x (y z) for every ordered triple, repeats included, of
    sector units and divisor classes."""
    if name.startswith("rank3-"):
        arr = rank3_family[int(name.removeprefix("rank3-"))]
    else:
        arr = shipped[name] if name in shipped else ladder[name]
    ctx = CohomologyContext(arr)
    classes = [CRClass.sector_unit(ctx, box) for box in ctx.boxes]
    classes += [CRClass.untwisted(ctx, ctx.u(i)) for i in range(arr.m)]
    failing = [
        (x, y, z)
        for x, y, z in itertools.product(classes, repeat=3)
        if cr_multiply(cr_multiply(x, y), z) != cr_multiply(x, cr_multiply(y, z))
    ]
    assert not failing, [" * ".join(map(str, triple)) for triple in failing[:3]]


def test_tp12_products(ctx12):
    box = [b for b in ctx12.boxes if not b.is_trivial()][0]
    one_h = CRClass.sector_unit(ctx12, box)
    u1 = CRClass.untwisted(ctx12, ctx12.u(0))
    u2 = CRClass.untwisted(ctx12, ctx12.u(1))
    assert cr_multiply(one_h, u1).is_zero()
    assert cr_multiply(one_h, u2).is_zero()
    assert cr_multiply(u1, u2).is_zero()
    sq = cr_multiply(one_h, one_h)
    assert sq == CRClass.untwisted(ctx12, ctx12.u(0) ** 2)
    sq_lit = cr_multiply(one_h, one_h, box_square_sign="literal")
    assert sq_lit == CRClass.untwisted(ctx12, -(ctx12.u(0) ** 2))


def test_degree_additivity(shipped):
    """Twice the ages add up to twice the output age plus the real degree of
    the correction monomial, for every nontrivial sector product."""
    for arr in shipped.values():
        ctx = CohomologyContext(arr)
        boxes = [b for b in ctx.boxes if not b.is_trivial()]
        for b1, b2 in itertools.combinations_with_replacement(boxes, 2):
            prod = cr_multiply(
                CRClass.sector_unit(ctx, b1), CRClass.sector_unit(ctx, b2)
            )
            if prod.is_zero():
                continue
            for box_out, poly in prod.components:
                degrees = {sum(mono) for mono in poly.terms}
                assert len(degrees) == 1
                (deg,) = degrees
                assert 2 * b1.age + 2 * b2.age == 2 * box_out.age + 2 * deg


def test_weighted_hirzebruch_box_square(hirzebruch_weighted):
    ctx = CohomologyContext(hirzebruch_weighted)
    box = [b for b in ctx.boxes if not b.is_trivial()][0]
    one_b = CRClass.sector_unit(ctx, box)
    sq = cr_multiply(one_b, one_b)
    expected = CRClass.untwisted(ctx, ctx.u(0) ** 2 * ctx.u(3) ** 2)
    assert sq == expected
    # the sign flag does not matter here: the correction set has even size
    assert cr_multiply(one_b, one_b, box_square_sign="literal") == expected


def test_unreduced_input_rejected(ctx12):
    bad = CRClass(
        ctx12,
        ((ctx12.trivial_box(), ctx12.u(0) * ctx12.u(1)),),
    )
    u1 = CRClass.untwisted(ctx12, ctx12.u(0))
    with pytest.raises(UnreducedInput):
        cr_multiply(bad, u1)


def test_sector_component_reduction(ctx12):
    box = [b for b in ctx12.boxes if not b.is_trivial()][0]
    cls = CRClass.build(ctx12, {box: ctx12.u(0) + ctx12.hbar()})
    # u1 is annihilated on the half sector, hbar survives
    assert cls.component(box) == ctx12.hbar()


def test_is_cone_is_independence(shipped, rank3_family):
    """The cone table holds exactly the independent subsets."""
    for arr in [*shipped.values(), *rank3_family]:
        ctx = CohomologyContext(arr)
        for size in range(arr.d + 2):
            for s in itertools.combinations(range(arr.m), size):
                independent = rational_rank([arr.b_bar(i) for i in s]) == size
                assert ctx.arr.is_cone(s) == independent
                assert ctx.arr.is_cone(set(reversed(s))) == independent


def test_extended_presentation_reads_the_circuit_relations(shipped):
    for arr in shipped.values():
        ctx = CohomologyContext(arr)
        payload = payload_cohomology(arr, "paper")
        assert payload["extended_presentation"] == list(htt_presentation(ctx).texts())


def _forged(box):
    """The box with each alpha shifted by 1/(2n), n their common
    denominator: its vector is no longer a lattice point."""
    n = lcm(*(a.denominator for _, a in box.alphas))
    alphas = tuple((i, a + Fraction(1, 2 * n)) for i, a in box.alphas)
    return BoxElement(box.v_free, box.v_torsion, box.sigma, alphas)


@pytest.mark.parametrize("name", ["cotangent-p12", "hirzebruch-weighted"])
def test_non_integral_box_vector_is_internal(shipped, name):
    """Inverse and closing boxes are integral by construction, so a
    non-integral vector is a program fault (exit 1), not bad input."""
    arr = shipped[name]
    ctx = CohomologyContext(arr)
    (box,) = [b for b in ctx.boxes if not b.is_trivial()]
    with pytest.raises(InvariantError, match="non-integral"):
        box_inverse(_forged(box), arr)
    with pytest.raises(InvariantError, match="non-integral"):
        _box_pair_product(ctx, _forged(box), box, "paper")


# -- Hausel-Sturmfels: the untwisted ring counts the bases --------------------


def _product_of_forms(forms, n):
    """The product of linear forms (dicts variable -> coefficient) in n
    variables, as a dict exponent tuple -> coefficient."""
    poly = {(0,) * n: Fraction(1)}
    for form in forms:
        out = {}
        for mono, c in poly.items():
            for v, a in form.items():
                key = mono[:v] + (mono[v] + 1,) + mono[v + 1 :]
                out[key] = out.get(key, 0) + c * a
        poly = {k: c for k, c in out.items() if c}
    return poly


def _monomials(k, n):
    """Exponent tuples of the monomials of degree k in n variables."""
    return [tuple(combo.count(v) for v in range(n)) for combo in itertools.combinations_with_replacement(range(n), k)]


def hilbert_function(arr, supports, top):
    """Dimensions over Q of degrees 0..top of Q[u_1..u_m] modulo the
    squarefree monomials on ``supports`` and the d forms sum_i b_i[r] u_i.
    The forms eliminate the variables of one basis B: u_{B_k} is
    -sum_j y_j[k] u_j over j outside B, where b_B y_j = b_j.  What is left
    is Q[u_j : j outside B] modulo the images of the monomials, whose
    degree-k part is spanned by their multiples of degree k."""
    basis = next(iter(arr.bases))
    free = [j for j in range(arr.m) if j not in basis]
    n = len(free)
    rows = [list(r) for r in zip(*(arr.b_bar(i) for i in basis))]
    solved = [solve_rational_system(rows, arr.b_bar(j)) for j in free]
    forms = {j: {t: Fraction(1)} for t, j in enumerate(free)}
    for k, i in enumerate(basis):
        forms[i] = {t: -y[k] for t, y in enumerate(solved) if y[k]}
    images = [(len(s), _product_of_forms([forms[i] for i in s], n)) for s in supports]
    out = []
    for k in range(top + 1):
        index = {mono: c for c, mono in enumerate(_monomials(k, n))}
        spans = []
        for size, image in images:
            for mult in _monomials(k - size, n) if size <= k else ():
                row = [0] * len(index)
                for mono, c in image.items():
                    row[index[tuple(a + b for a, b in zip(mono, mult))]] += c
                spans.append(row)
        out.append(len(index) - (rational_rank(spans) if spans else 0))
    return out


def h_vector(arr):
    """h_k = sum_i (-1)^(k-i) C(d-i, k-i) f_i, with f_i the cones of size i."""
    f = [sum(len(c) == i for c in arr.cones) for i in range(arr.d + 1)]
    return [sum((-1) ** (k - i) * comb(arr.d - i, k - i) * f[i] for i in range(k + 1)) for k in range(arr.d + 1)]


def test_untwisted_ring_has_the_h_vector_of_the_cones(shipped, ladder, rank3_family):
    """Hausel-Sturmfels: the ring of ht_presentation at lam = hbar = 0,
    divided by the d linear forms, is the Stanley-Reisner ring of the
    independence complex modulo a linear system of parameters.  Its
    Hilbert function is the h-vector of arr.cones, zero above degree d,
    and that h-vector sums to the number of bases.  On the shipped
    examples, every ladder rung and the rank-3 family."""
    for arr in [*shipped.values(), *ladder.values(), *rank3_family]:
        ctx = CohomologyContext(arr)
        supports = []
        for relation in ht_presentation(ctx).relations:
            ((mono, coeff),) = relation.lhs_poly.terms.items()
            assert coeff == 1 and max(mono) == 1
            supports.append(ctx.u_support(mono))
        h = h_vector(arr)
        assert hilbert_function(arr, supports, arr.d + 1) == h + [0]
        assert sum(h) == len(arr.bases)
