"""The Lawrence fan of an arrangement, point location, and the l-pairing.

The fan is a view of the basis table.  Rays come in mirror pairs (z-side
and w-side); one pass over ``StackyArrangement.vertex_values`` gives each
basis its maximal cone, read off the signs of the other hyperplanes at its
vertex (by Gale duality, those of the stability vector in the complementary
dual basis), its irrelevant monomial, and its chart: that basis's integer
inverse from ``StackyArrangement.bases``.  Lattice points are located in
closed form and the lattice index is the inverse's denominator.  The
l-pairing measures the failure of two lattice points to share a cone and
returns its curve degree on the kernel basis of the lifted map, which is
the canonical kernel basis of the normals, each vector k written as
(k, -k), times one sign per basis vector.  One pass over the nonfacial ray
pairs sets those signs and finds the minimal curve degree.  The l-pairing
and a word of generators read their degrees off one integer projection.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import lcm

from hypertoric.arrangement import InvariantError, StackyArrangement
from hypertoric.exactalg import Record, basis_projection


class OutsideSupport(InvariantError):
    """The queried lattice point is not in the support of the fan.  The
    Lawrence fan has convex support and the program pairs only points of
    it, so this is a fault of the program."""


class ConeCoordinates(Record):
    """Simplicial coordinates of a point in the minimal cone containing it:
    ``coefficients`` maps a ray id to its Fraction, zero entries omitted."""

    __slots__ = ("max_cone", "coefficients")


class LawrenceFan:
    """Rays, maximal cones and irrelevant monomials of the Lawrence lift.

    Ray ids: 0..m-1 are the z-side rays (b_i, e_i), m..2m-1 the w-side
    rays (0, e_i); their labels z1..zm, w1..wm are made once, here, as is
    ``m``.  The cone of a basis B omits z_j for each j outside B
    with a negative vertex value and w_j for each with a positive one
    (``build`` rejects a zero); the omitted rays make its irrelevant
    monomial.  Its chart holds B, the one-sided z indices (the j outside B
    with a positive value), the adjugate of the column matrix b_B, which
    is the transpose of the inverse in the basis table, and |det b_B|.

    The lifted map sends (a, c) to (sum a_i b_i, a + c), so its kernel is
    {(x, -x) : x in ker b}.  ``h2_basis`` is (k, -k) for each k of
    ``arr.normal_kernel`` times its entry of ``signs``, all +1 here;
    ``build_lawrence_fan`` sets the signs so that pairs of rays sharing no
    cone pair nonnegatively (the effective orientation), and
    ``minimal_curve_degree``, the first smallest positive curve degree of
    such a pair, or None.  The projection onto the unflipped basis is set
    up once, and the fan remembers the cone coordinates of each point it
    has located for a degree.
    """

    def __init__(self, arrangement: StackyArrangement):
        self.arrangement = arr = arrangement
        self.m = m = arr.m
        self._labels = tuple(f"z{i + 1}" for i in range(m)) + tuple(f"w{i + 1}" for i in range(m))
        self.rays = lawrence_rays(arr)
        charts, monomials = {}, []
        for tight, (_, values) in arr.vertex_values.items():
            omitted = {j if values[j] < 0 else m + j for j in range(m) if j not in tight}
            cone = tuple(r for r in range(2 * m) if r not in omitted)
            inverse, det = arr.bases[tight]
            z_side = tuple(j for j in range(m) if j not in tight and values[j] > 0)
            charts[cone] = (tight, z_side, tuple(zip(*inverse)), det)
            monomials.append(tuple(sorted(self._labels[r] for r in omitted)))
        self._charts = dict(sorted(charts.items()))
        self.max_cones = tuple(self._charts)
        self.irrelevant_monomials = tuple(sorted(monomials))
        self._kernel = tuple((*k, *(-x for x in k)) for k in arr.normal_kernel)
        self._h2_coordinates = basis_projection(self._kernel)
        self.signs = (1,) * len(self._kernel)
        self.minimal_curve_degree = None
        self._located = {}

    @property
    def h2_basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(s * x for x in vec) for s, vec in zip(self.signs, self._kernel))

    def ray_label(self, ray_id: int) -> str:
        return self._labels[ray_id]

    def z_ray(self, i: int) -> int:
        return i

    def w_ray(self, i: int) -> int:
        return self.m + i

    def ray_vector(self, ray_id: int) -> tuple[int, ...]:
        return self.rays[ray_id]

    @cached_property
    def divisor_rays(self) -> dict:
        """Which ray realizes the i-th divisor class: the side whose variable
        alone appears in the irrelevant monomials, else the z side."""
        labels = {label for mono in self.irrelevant_monomials for label in mono}
        w_only = [f"w{i + 1}" in labels and f"z{i + 1}" not in labels for i in range(self.m)]
        return {i: self.w_ray(i) if w else self.z_ray(i) for i, w in enumerate(w_only)}

    # -- queries -------------------------------------------------------------

    def locate(self, point) -> ConeCoordinates:
        """Minimal cone containing the lattice point ``point`` and its
        simplicial coordinates: the first maximal cone that holds it.  For
        the point (a, c), the one ray of a one-sided i has coordinate c_i,
        the two-sided I have z_I = b_I^-1 (a - sum of c_i b_i over the
        one-sided z-rays) and w_i = c_i - z_i; so the point is in the cone
        exactly when c >= 0 and 0 <= z_i <= c_i on I."""
        if len(point) != len(self.rays[0]):
            raise InvariantError("point has wrong dimension")
        m = self.m
        d = len(point) - m
        a, c = point[:d], point[d:]
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
                    return ConeCoordinates(cone, {r: Fraction(n, det) for r, n in num.items() if n})
        raise OutsideSupport(f"point {tuple(point)} is outside the fan support")

    def _locate_once(self, point) -> ConeCoordinates:
        key = tuple(point)
        if key not in self._located:
            self._located[key] = self.locate(key)
        return self._located[key]

    def l_pairing(self, c1, c2) -> tuple[Fraction, ...]:
        """The coordinates in ``h2_basis`` (the curve degree) of the
        correction vector in Q^m + Q^m, the located coordinates of c1 and c2
        less those of c1 + c2; only the returned numbers are Fractions."""
        located = (self._locate_once(c1).coefficients, self._locate_once(c2).coefficients)
        numerators, den = self.degree_numerators(located, tuple(a + b for a, b in zip(c1, c2)))
        return tuple(Fraction(x, den) for x in numerators)

    def degree_numerators(self, vectors, point) -> tuple[list[int], int]:
        """The curve degree of the sum of ``vectors`` (ray id -> int or
        Fraction) less the located coordinates of ``point``: integer
        numerators over one positive denominator.  The vectors are put over
        one common denominator, and the projection and the check that the
        vector lies in the curve lattice run in integers."""
        signed = [(coeffs, 1) for coeffs in vectors]
        signed.append((self._locate_once(point).coefficients, -1))
        den = lcm(*(x.denominator for coeffs, _ in signed for x in coeffs.values()))
        vec = [0] * (2 * self.m)
        for coeffs, sign in signed:
            for r, x in coeffs.items():
                vec[r] += sign * x.numerator * (den // x.denominator)
        projected = self._h2_coordinates(vec)
        if projected is None:
            raise InvariantError("l-pairing vector is outside the curve lattice")
        coords, last = projected
        sign = 1 if last > 0 else -1
        return [sign * s * x for s, x in zip(self.signs, coords)], abs(last) * den

    def nonfacial_ray_pairs(self):
        """Ray pairs contained in no common maximal cone."""
        pairs = itertools.combinations(range(2 * self.m), 2)
        return tuple((a, b) for a, b in pairs if not any(a in c and b in c for c in self.max_cones))

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
    """``LawrenceFan(arr)``, oriented.  The curve degrees of the nonfacial
    ray pairs are found once, on the unflipped basis.  A basis vector is
    flipped, its sign set to -1, when its coordinate is never positive and
    sometimes negative.  Flipping a vector negates that coordinate of every
    degree, and the located cone coordinates do not depend on the basis, so
    the same degrees, negated where flipped, give ``minimal_curve_degree``."""
    fan = LawrenceFan(arr)
    degrees = [fan.l_pairing(fan.rays[a], fan.rays[b]) for a, b in fan.nonfacial_ray_pairs()]
    signs = []
    for t in range(len(fan.signs)):
        values = [x[t] for x in degrees]
        signs.append(-1 if min(values, default=0) < 0 and max(values) <= 0 else 1)
    fan.signs = tuple(signs)
    oriented = (tuple(s * x for s, x in zip(signs, degree)) for degree in degrees)
    fan.minimal_curve_degree = min((x for x in oriented if sum(x) > 0), key=sum, default=None)
    return fan
