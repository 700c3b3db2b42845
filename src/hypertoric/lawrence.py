"""The Lawrence fan of an arrangement, point location, and the l-pairing.

Rays come in mirror pairs (z-side and w-side); each basis of the
arrangement gives one maximal cone, read off the signs of the other
hyperplanes at its vertex (by Gale duality, those of the stability vector
in the complementary dual basis).  Its chart reads that basis's integer
inverse from ``StackyArrangement.bases``: points are located in closed
form and the lattice index is the inverse's denominator.  The l-pairing
measures the failure of two lattice points to share a cone and projects
to a curve degree on the kernel basis of the lifted map, which is the
canonical kernel basis of the normals, each vector k written as (k, -k).
One pass over the nonfacial ray pairs orients that basis and finds the
minimal curve degree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import lcm

from hypertoric.arrangement import ArrangementError, InvariantError, StackyArrangement
from hypertoric.exactalg import basis_projection


class OutsideSupport(ArrangementError):
    """The queried lattice point is not in the support of the fan."""


class ConeCoordinates:
    """Simplicial coordinates of a point in the minimal cone containing it."""

    __slots__ = ("max_cone", "coefficients")

    def __init__(self, max_cone: tuple[int, ...], coefficients: dict):
        self.max_cone = max_cone
        self.coefficients = coefficients  # ray id -> Fraction, zero entries omitted

    def __eq__(self, other):
        if type(other) is not ConeCoordinates:
            return NotImplemented
        return (self.max_cone, self.coefficients) == (other.max_cone, other.coefficients)

    def coefficient(self, ray_id: int) -> Fraction:
        return self.coefficients.get(ray_id, Fraction(0))


class LawrenceFan:
    """Rays, maximal cones and irrelevant monomials of the Lawrence lift.

    Ray ids: 0..m-1 are the z-side rays (b_i, e_i), m..2m-1 the w-side
    rays (0, e_i).  ``h2_basis`` is a kernel basis of the lifted map:
    (k, -k) for each k of the canonical kernel basis of the normals,
    sign-fixed so that pairs of rays sharing no cone pair nonnegatively
    (the effective orientation).  ``minimal_curve_degree`` is the first
    smallest positive curve degree of such a pair, or None; both are set
    by ``build_lawrence_fan``.

    Each maximal cone's integer location data is built once per fan, and
    the fan remembers the cone coordinates of each point the l-pairing has
    located; the curve-degree projection is set up once per basis.
    """

    def __init__(
        self,
        arrangement: StackyArrangement,
        rays: tuple[tuple[int, ...], ...],
        max_cones: tuple[tuple[int, ...], ...],
        irrelevant_monomials: tuple[tuple[str, ...], ...],
        h2_basis: tuple[tuple[int, ...], ...],
    ):
        self.arrangement = arrangement
        self.rays = rays
        self.max_cones = max_cones
        self.irrelevant_monomials = irrelevant_monomials
        self.h2_basis = h2_basis
        self.minimal_curve_degree = None
        self._located = {}

    @property
    def m(self) -> int:
        return self.arrangement.m

    def ray_label(self, ray_id: int) -> str:
        m = self.m
        return f"z{ray_id + 1}" if ray_id < m else f"w{ray_id - m + 1}"

    def z_ray(self, i: int) -> int:
        return i

    def w_ray(self, i: int) -> int:
        return self.m + i

    def ray_vector(self, ray_id: int) -> tuple[int, ...]:
        return self.rays[ray_id]

    # -- queries -------------------------------------------------------------

    def locate(self, point) -> ConeCoordinates:
        """Minimal cone containing ``point`` and its simplicial coordinates:
        the first maximal cone that holds it.  For the point scaled to
        integers (a, c), the one ray of a one-sided i has coordinate c_i,
        the two-sided I have z_I = b_I^-1 (a - sum of c_i b_i over the
        one-sided z-rays) and w_i = c_i - z_i; so the point is in the cone
        exactly when c >= 0 and 0 <= z_i <= c_i on I."""
        if len(point) != len(self.rays[0]):
            raise ArrangementError("point has wrong dimension")
        m = self.m
        d = len(point) - m
        scale = lcm(*(x.denominator for x in point))
        a = [x.numerator * (scale // x.denominator) for x in point[:d]]
        c = [x.numerator * (scale // x.denominator) for x in point[d:]]
        if all(x >= 0 for x in c):
            for cone, (inner, z_side, adjugate, det) in self._charts.items():
                rhs = list(a)
                for i in z_side:
                    for t in range(d):
                        rhs[t] -= c[i] * self.rays[i][t]
                z = [sum(x * y for x, y in zip(row, rhs)) for row in adjugate]
                if all(0 <= zi <= det * c[i] for zi, i in zip(z, inner)):
                    num = {r: det * c[r % m] for r in cone}  # one-sided rays
                    for zi, i in zip(z, inner):
                        num[i], num[m + i] = zi, det * c[i] - zi
                    den = det * scale
                    return ConeCoordinates(cone, {r: Fraction(n, den) for r, n in num.items() if n})
        point = tuple(Fraction(x) for x in point)
        raise OutsideSupport(f"point {point} is outside the fan support")

    @cached_property
    def _charts(self):
        """Per maximal cone, in order: its two-sided indices I (a basis), its
        one-sided z indices, and the adjugate of the column matrix b_I with
        |det b_I|.  The basis table holds (A, s) with A / s the inverse of
        b_I^T, so A^T is that adjugate and s that determinant."""
        m, bases = self.m, self.arrangement.bases
        charts = {}
        for cone in self.max_cones:
            inner = tuple(i for i in range(m) if i in cone and m + i in cone)
            z_side = [i for i in range(m) if i in cone and m + i not in cone]
            if inner not in bases:
                raise InvariantError(f"maximal cone {cone} has dependent two-sided rays {inner}")
            inverse, det = bases[inner]
            charts[cone] = (inner, z_side, tuple(zip(*inverse)), det)
        return charts

    def _locate_once(self, point) -> ConeCoordinates:
        key = tuple(point)
        if key not in self._located:
            self._located[key] = self.locate(key)
        return self._located[key]

    def l_pairing(self, c1, c2):
        """The correction vector in Q^m + Q^m and its curve-degree projection.

        The three locations are put over one common denominator, and the
        projection and the check that the vector lies in the curve lattice
        run in integers; only the returned numbers are Fractions."""
        total = tuple(a + b for a, b in zip(c1, c2))
        located = [self._locate_once(p).coefficients for p in (c1, c2, total)]
        den = lcm(*(x.denominator for coeffs in located for x in coeffs.values()))
        vec = [0] * (2 * self.m)
        for coeffs, sign in zip(located, (1, 1, -1)):
            for r, x in coeffs.items():
                vec[r] += sign * x.numerator * (den // x.denominator)
        projected = self._h2_coordinates(vec)
        if projected is None:
            raise InvariantError("l-pairing vector is outside the curve lattice")
        coords, last = projected
        return tuple(Fraction(x, den) for x in vec), tuple(Fraction(x, last * den) for x in coords)

    @cached_property
    def _h2_coordinates(self):
        return basis_projection(self.h2_basis)

    def nonfacial_ray_pairs(self):
        """Ray pairs contained in no common maximal cone."""
        pairs = itertools.combinations(range(2 * self.m), 2)
        return tuple((a, b) for a, b in pairs if not any(a in c and b in c for c in self.max_cones))

    def _nonfacial_degrees(self):
        """Curve degrees of the nonfacial ray pairs whose sum is in the fan."""
        out = []
        for a, b in self.nonfacial_ray_pairs():
            try:
                out.append(self.l_pairing(self.rays[a], self.rays[b])[1])
            except OutsideSupport:
                pass
        return out

    def cone_index(self, cone) -> int:
        """Lattice index of the sublattice spanned by a maximal cone's rays
        (1 means unimodular): |det b_I|, held in its chart."""
        chart = self._charts.get(tuple(cone))
        if chart is None:
            raise InvariantError(f"{tuple(cone)} is not a maximal cone of the fan")
        return chart[3]


def lawrence_rays(arr: StackyArrangement):
    """The z-rays (b_i, e_i), then the w-rays (0, e_i)."""
    units = [tuple(int(t == i) for t in range(arr.m)) for i in range(arr.m)]
    z_rays = tuple(tuple(arr.b_bar(i)) + e for i, e in enumerate(units))
    return z_rays + tuple((0,) * arr.d + e for e in units)


def build_lawrence_fan(arr: StackyArrangement) -> LawrenceFan:
    """The fan of ``arr.vertex_values``: the cone of a basis B omits z_j for
    each j outside B with a negative value and w_j for each with a positive
    one (``build`` rejects a zero), and the omitted rays make its irrelevant
    monomial.  The lifted map sends (a, c) to (sum a_i b_i, a + c), so its
    kernel is {(x, -x) : x in ker b}, and the curve basis is (k, -k) for
    each k of ``arr.normal_kernel``.

    The curve degrees of the nonfacial ray pairs are found once, in that
    basis.  A basis vector is flipped when its coordinate is never positive
    and sometimes negative.  Flipping a vector negates that coordinate of
    every degree, and the located cone coordinates do not depend on the
    basis, so the same degrees, negated where flipped, give
    ``minimal_curve_degree``."""
    m = arr.m
    max_cones, monomials = [], []
    for tight, (_, values) in arr.vertex_values.items():
        omitted = {j if values[j] < 0 else m + j for j in range(m) if j not in tight}
        max_cones.append(tuple(r for r in range(2 * m) if r not in omitted))
        monomials.append(tuple(sorted(f"z{r + 1}" if r < m else f"w{r - m + 1}" for r in omitted)))
    basis = tuple((*k, *(-x for x in k)) for k in arr.normal_kernel)
    fan = LawrenceFan(arr, lawrence_rays(arr), tuple(sorted(max_cones)), tuple(sorted(monomials)), basis)
    degrees = fan._nonfacial_degrees()
    signs = []
    for t in range(len(basis)):
        values = [x[t] for x in degrees]
        signs.append(-1 if min(values, default=0) < 0 and max(values) <= 0 else 1)
    if -1 in signs:
        fan.h2_basis = tuple(tuple(s * x for x in vec) for s, vec in zip(signs, basis))
        del fan._h2_coordinates  # the projection onto the unflipped basis
    oriented = (tuple(s * x for s, x in zip(signs, degree)) for degree in degrees)
    fan.minimal_curve_degree = min((x for x in oriented if sum(x) > 0), key=sum, default=None)
    return fan
