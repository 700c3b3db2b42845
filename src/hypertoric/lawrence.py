"""The Lawrence fan of an arrangement, point location, and the l-pairing.

Rays come in mirror pairs (z-side and w-side); maximal cones are the
complements of the sign patterns of the stability vector over all bases
of the dual configuration.  The l-pairing measures the failure of two
lattice points to share a cone and projects to a curve degree on the
canonical kernel basis of the lifted map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from hypertoric.arrangement import ArrangementError, InvariantError, StackyArrangement
from hypertoric.exactalg import (
    IntMatrix,
    kernel_basis,
    rational_inverse,
    row_reduce,
    solve_rational,
)


class NonGeneric(ArrangementError):
    """The stability vector lies on a wall: some basis coefficient is zero."""


class OutsideSupport(ArrangementError):
    """The queried lattice point is not in the support of the fan."""


@dataclass(frozen=True)
class ConeCoordinates:
    """Simplicial coordinates of a point in the minimal cone containing it."""

    max_cone: tuple[int, ...]
    coefficients: dict  # ray id -> Fraction, zero entries omitted

    def coefficient(self, ray_id: int) -> Fraction:
        return self.coefficients.get(ray_id, Fraction(0))


@dataclass(frozen=True)
class LawrenceFan:
    """Rays, maximal cones and irrelevant monomials of the Lawrence lift.

    Ray ids: 0..m-1 are the z-side rays (b_i, e_i), m..2m-1 the w-side
    rays (0, e_i).  ``h2_basis`` is the canonical kernel basis of the
    lifted map, sign-fixed so that pairs of rays sharing no cone pair
    nonnegatively (the effective orientation).

    Point location caches, per fan, the inverse ray matrix of each maximal
    cone scanned more than once and the cone coordinates of each point the
    l-pairing has located; the curve-degree projection is set up once per
    fan.
    """

    arrangement: StackyArrangement
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    irrelevant_monomials: tuple[tuple[str, ...], ...]
    h2_basis: tuple[tuple[int, ...], ...]
    _scanned: set = field(default_factory=set, init=False, repr=False, compare=False)
    _inverses: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _located: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Minimal cone containing ``point`` and its simplicial coordinates."""
        point = tuple(Fraction(x) for x in point)
        if len(point) != len(self.rays[0]):
            raise ArrangementError("point has wrong dimension")
        for cone in self.max_cones:
            sol = self._cone_coordinates(cone, point)
            if sol is not None and all(c >= 0 for c in sol):
                coeffs = {r: c for r, c in zip(cone, sol) if c != 0}
                return ConeCoordinates(cone, coeffs)
        raise OutsideSupport(f"point {point} is outside the fan support")

    def _cone_coordinates(self, cone, point):
        """Coordinates of ``point`` in the cone's rays; None if they are
        dependent.  The first scan of a cone solves its system directly;
        the second inverts the ray matrix once for every later scan, so a
        fan that locates only a few points inverts nothing."""
        if cone in self._inverses:
            inverse = self._inverses[cone]
            if inverse is None:
                return None
            return [sum(a * x for a, x in zip(row, point)) for row in inverse]
        rows = list(zip(*[self.rays[r] for r in cone]))
        if cone in self._scanned:
            self._inverses[cone] = rational_inverse(rows)
            return self._cone_coordinates(cone, point)
        self._scanned.add(cone)
        return solve_rational(rows, point)

    def _locate_once(self, point) -> ConeCoordinates:
        key = tuple(point)
        if key not in self._located:
            self._located[key] = self.locate(key)
        return self._located[key]

    def l_pairing(self, c1, c2):
        """The correction vector in Q^m + Q^m and its curve-degree projection."""
        loc1 = self._locate_once(c1)
        loc2 = self._locate_once(c2)
        total = tuple(Fraction(a) + Fraction(b) for a, b in zip(c1, c2))
        loc12 = self._locate_once(total)
        vec = []
        for r in range(2 * self.m):
            vec.append(
                loc1.coefficient(r) + loc2.coefficient(r) - loc12.coefficient(r)
            )
        pivots, inverse = self._h2_projection
        degree = tuple(sum(a * vec[p] for a, p in zip(row, pivots)) for row in inverse)
        if any(sum(c * b[i] for c, b in zip(degree, self.h2_basis)) != x for i, x in enumerate(vec)):
            raise InvariantError("l-pairing vector is outside the curve lattice")
        return tuple(vec), degree

    @cached_property
    def _h2_projection(self):
        """Coordinates on which ``h2_basis`` is independent, and the inverse
        of the basis restricted to them: it maps those coordinates of a
        vector in the span to the vector's coefficients in the basis.

        Both come from one reduction of [B | I], B the basis rows: the
        pivot columns P are the coordinates, and the right block over the
        last pivot is E with E B_P = I.  The coefficients c of a vector
        v = c B are c = v_P E, so the projection's rows are E's columns."""
        n = len(self.h2_basis)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        pivots, reduced, d = row_reduce(self.h2_basis, identity)
        inverse = zip(*(row[-n:] for row in reduced))
        return tuple(pivots), tuple(tuple(Fraction(x, d) for x in col) for col in inverse)

    def nonfacial_ray_pairs(self):
        """Ray pairs contained in no common maximal cone."""
        out = []
        for a, b in itertools.combinations(range(2 * self.m), 2):
            if not any(a in cone and b in cone for cone in self.max_cones):
                out.append((a, b))
        return tuple(out)

    def cone_index(self, cone) -> int:
        """Lattice index of the sublattice spanned by the cone's rays
        (1 means unimodular), read off the Smith form of the ray matrix."""
        from hypertoric.exactalg import smith_diagonal

        mat = IntMatrix.from_rows(tuple(zip(*[self.rays[r] for r in cone])))
        idx = 1
        for d in smith_diagonal(mat):
            if d == 0:
                raise ArrangementError("cone rays are dependent")
            idx *= d
        return idx


def lawrence_rays(arr: StackyArrangement):
    m, d = arr.m, arr.d
    rays = []
    for i in range(m):
        rays.append(tuple(arr.b_bar(i)) + tuple(1 if t == i else 0 for t in range(m)))
    for i in range(m):
        rays.append(tuple(0 for _ in range(d)) + tuple(1 if t == i else 0 for t in range(m)))
    return tuple(rays)


def lifted_map(arr: StackyArrangement) -> IntMatrix:
    """The doubled map on the free quotient, with the 2m rays as columns."""
    return IntMatrix.from_rows(tuple(zip(*lawrence_rays(arr))))


def build_lawrence_fan(arr: StackyArrangement, theta=None) -> LawrenceFan:
    """Construct the fan by enumerating all bases of the dual configuration.

    Raises NonGeneric when some basis solves the stability vector with a
    zero coefficient (a wall-crossing position).
    """
    beta_dual = arr.beta_dual
    if theta is None:
        theta = arr.theta
    theta = tuple(int(x) for x in theta)
    f = beta_dual.target.rank
    theta_free = theta[:f]
    m = arr.m
    cols = [beta_dual.free_part().col(j) for j in range(m)]
    sigma_sets = []
    monomials = []
    for subset in itertools.combinations(range(m), f):
        lam = solve_rational(list(zip(*(cols[i] for i in subset))), theta_free)
        if lam is None:
            continue
        if any(x == 0 for x in lam):
            raise NonGeneric(f"basis {subset} solves theta with a zero coefficient")
        sigma = []
        mono = []
        for i, coeff in zip(subset, lam):
            if coeff > 0:
                sigma.append(i)  # z-ray
                mono.append(f"z{i + 1}")
            else:
                sigma.append(m + i)  # w-ray
                mono.append(f"w{i + 1}")
        sigma_sets.append(frozenset(sigma))
        monomials.append(tuple(sorted(mono)))
    max_cones = sorted(
        set(tuple(sorted(set(range(2 * m)) - s)) for s in sigma_sets)
    )
    irrelevant = tuple(sorted(set(monomials)))
    rays = lawrence_rays(arr)
    basis = kernel_basis(lifted_map(arr))
    fan = LawrenceFan(arr, rays, tuple(max_cones), irrelevant, basis)
    return _orient_h2_basis(fan)


def _orient_h2_basis(fan: LawrenceFan) -> LawrenceFan:
    """Flip kernel basis vectors so nonfacial ray pairs pair nonnegatively."""
    if not fan.h2_basis:
        return fan
    coords = []
    for a, b in fan.nonfacial_ray_pairs():
        try:
            _, degree = fan.l_pairing(fan.ray_vector(a), fan.ray_vector(b))
        except OutsideSupport:
            continue
        coords.append(degree)
    flipped = []
    for t, vec in enumerate(fan.h2_basis):
        vals = [c[t] for c in coords]
        if vals and all(v <= 0 for v in vals) and any(v < 0 for v in vals):
            flipped.append(tuple(-x for x in vec))
        else:
            flipped.append(tuple(vec))
    return LawrenceFan(
        fan.arrangement, fan.rays, fan.max_cones, fan.irrelevant_monomials, tuple(flipped)
    )


def lawrence_fan(arr: StackyArrangement) -> LawrenceFan:
    """``build_lawrence_fan`` at the arrangement's own theta; only the
    acceptance tests still import this name."""
    return build_lawrence_fan(arr)
