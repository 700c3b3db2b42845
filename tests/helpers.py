"""Helpers and references that several test files share and no command runs.

Each was a function or method of the package; ``tests/test_census.py``
checks that the package keeps only what some command runs.  A method is
a function here that takes its object first, with its body as it was.
"""

from __future__ import annotations

from fractions import Fraction

from hypertoric.crring import CRClass
from hypertoric.exactalg import ExactAlgError, IntMatrix, row_reduce
from hypertoric.localize import sector_inverse, sectors
from hypertoric.multifan import box_of
from hypertoric.quantum import NovikovSeries

# ---------------------------------------------------------------------------
# Exact algebra


def solve_rational_system(rows, rhs):
    """One rational solution of rows.x = rhs, of any shape, with its free
    variables set to zero; None when the system is inconsistent."""
    if not rows:
        return ()
    ncols = len(rows[0])
    pivots, m, d = row_reduce(rows, [[b] for b in rhs])
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for c, row in zip(pivots, m):
        x[c] = Fraction(row[ncols], d)
    return tuple(x)


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(0 for _ in range(cols)) for _ in range(rows)), (rows, cols))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.ncols != b.nrows:
        raise ExactAlgError("dimension mismatch in matrix product")
    ot = b.transpose().entries
    return IntMatrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in ot)
            for row in a.entries
        ),
        (a.nrows, b.ncols),
    )


# ---------------------------------------------------------------------------
# Boxes and Chen-Ruan classes


def box_inverse(box, arr):
    """The inverse box: same cone, fractional coordinates 1 - alpha."""
    tor = tuple(
        (-t) % q for t, q in zip(box.v_torsion, arr.group_N.torsion_invariants)
    )
    return box_of(arr, ((i, 1 - a) for i, a in box.alphas), tor)


def sector_unit(context, box) -> CRClass:
    return CRClass.build(context, {box: context.ring.one()})


def class_scale(cls: CRClass, c) -> CRClass:
    return CRClass.build(cls.context, {b: p * c for b, p in cls.components})


# ---------------------------------------------------------------------------
# Weighted models


def model_n(model) -> int:
    """The dimension n of the weighted projective space P(w), w of length n + 1."""
    return len(model.weights) - 1


def orbifold_degrees(model):
    """Orbifold degrees of the correspondence components; every one is 2n.

    Components are indexed by ordered sector pairs, plus one diagonal
    component per sector order.
    """
    secs = sectors(model)
    half = {s.f: len(s.support) - 1 + s.age for s in secs}  # each factor's share
    pairs = [(("pair", s1.f, s2.f), half[s1.f] + half[s2.f]) for s1 in secs for s2 in secs]
    return tuple(pairs + [(("diagonal", s.f), 2 * half[s.f]) for s in secs])


def box_square_sign_oracle(model) -> str:
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


# ---------------------------------------------------------------------------
# Novikov series


def coefficient(series: NovikovSeries, key) -> CRClass:
    for k, v in series.terms:
        if k == key:
            return v
    return CRClass.zero(series.context)


def series_is_zero(series: NovikovSeries) -> bool:
    return not series.terms


def series_add(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    order = min(a.order, b.order)
    parts: dict = {}
    for k, v in a.terms + b.terms:
        parts[k] = parts.get(k, CRClass.zero(a.context)) + v
    return NovikovSeries.build(a.context, order, parts)


def series_sub(a: NovikovSeries, b: NovikovSeries) -> NovikovSeries:
    return series_add(a, series_scale(b, -1))


def series_scale(series: NovikovSeries, c) -> NovikovSeries:
    return NovikovSeries.build(
        series.context, series.order, {k: class_scale(v, c) for k, v in series.terms}
    )


def series_scale_poly(series: NovikovSeries, poly) -> NovikovSeries:
    return NovikovSeries.build(
        series.context, series.order, {k: v.scale_poly(poly) for k, v in series.terms}
    )
