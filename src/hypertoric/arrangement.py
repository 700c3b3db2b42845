"""Stacky hyperplane arrangements: genericity, lifting, bases, chambers, core.

The arrangement owns its matroid: ``bases`` holds one integer inverse per
basis of the normals, ``tableau`` the coordinates of every normal in that
basis, and the independent sets (cones) are their faces; circuits, boxes,
vertices and the Lawrence charts all read these tables.  Both come from
one walk over the basis-exchange graph, as the simplex method pivots: one
reduction gives the first basis, and each further basis is one exact
pivot of a neighbour's tableau, so no singular d-subset is reduced.  The
walk pivots the objective row too, which holds each basis's vertex and
the hyperplane values there (``vertex_values``); ``build`` decides
genericity from them and the Lawrence fan its cones.  The geometry is
exact.  A generic stability vector makes the arrangement simple: every
vertex lies on exactly d hyperplanes, with independent normals.
The bounded chambers come from a walk over the vertex graph, solved once
per arrangement: the 2d edges at a vertex run along the columns of the
inverse of its tight normals, each hyperplane changes along them at the
rate its tableau entry gives, and an edge ends at the nearest hyperplane
it crosses; a chamber is bounded exactly when the walk around it meets
no unbounded edge.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property

from hypertoric.exactalg import (
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    NotInImage,
    Record,
    gale_dual,
    kernel_basis,
    presentation_matrix,
    primitive_vector,
    rational_rank,
    row_reduce,
    solve_integer,
)


class ArrangementError(ValueError):
    pass


class NonGenericTheta(ArrangementError):
    """The stability vector lies on a wall of the secondary arrangement."""


class NoIntegralLift(ArrangementError):
    """Theta is not -beta_dual(psi) for any integral psi."""


class DimensionTooLarge(ArrangementError):
    """Guard for the chamber enumeration: d <= 6 and m <= 16 only."""

    @staticmethod
    def check(d: int, m: int) -> None:
        if d > MAX_DIM or m > MAX_HYPERPLANES:
            raise DimensionTooLarge(
                f"chamber enumeration is guarded to d <= {MAX_DIM}, m <= {MAX_HYPERPLANES}"
            )


class InvariantError(RuntimeError):
    """An internal invariant failed: a fault of the program, never of the
    input (for example a non-simple arrangement behind a generic theta)."""


MAX_DIM = 6
MAX_HYPERPLANES = 16


# ---------------------------------------------------------------------------
# Arrangement data


class Chamber(Record):
    """A bounded chamber P_U: the hyperplanes in ``flips`` keep their
    coorientation (side 'F', <b_i, v> + psi_i >= 0), the others are
    reversed (side 'G').  ``corners`` pairs each vertex, in sorted order,
    with the indices of the hyperplanes through it."""

    __slots__ = ("flips", "corners")

    def vertices(self):
        return [point for point, _ in self.corners]


class _Vertex(Record):
    """A vertex of a simple arrangement, stored under its tight set T.
    ``above`` has bit i set when <b_i, v> + psi_i > 0; ``ends[k]`` holds the
    far ends (tight sets, None for an unbounded edge) of the edges along
    -e_k and +e_k, where e_k is the direction on which T[k] grows and the
    rest of T stays 0."""

    __slots__ = ("point", "above", "ends")


class NormalFan(Record):
    """Rays (primitive integer vectors) plus maximal cones as ray index sets."""

    __slots__ = ("rays", "max_cones")

    @staticmethod
    def of(cones) -> "NormalFan":
        """The fan of cones given as lists of integer ray tuples."""
        rays = sorted({r for cone in cones for r in cone})
        ray_index = {r: i for i, r in enumerate(rays)}
        max_cones = sorted(set(tuple(sorted(ray_index[r] for r in cone)) for cone in cones))
        return NormalFan(tuple(rays), tuple(max_cones))


def check_generic(beta_dual: GroupHom, theta) -> bool:
    """Whether theta avoids every hyperplane spanned by the dual configuration.

    The test happens in the free quotient of the dual group; the zero
    vector is never generic.
    """
    theta = tuple(int(x) for x in theta)
    if len(theta) != beta_dual.target.generator_count:
        raise ArrangementError("theta length does not match the dual group")
    if beta_dual.target.generator_count == 0:
        return True  # trivial dual group has no walls
    if all(x == 0 for x in theta):
        return False
    f = beta_dual.target.rank
    theta_free = theta[:f]
    if f == 0:
        return True
    cols = [beta_dual.free_part().col(j) for j in range(beta_dual.matrix.ncols)]
    if all(x == 0 for x in theta_free):
        return False
    for subset in itertools.combinations(cols, f - 1):
        # a wall: f - 1 independent columns whose span holds theta
        if rational_rank(subset) == f - 1 == rational_rank(subset + (theta_free,)):
            return False
    return True


def lift_theta(beta_dual: GroupHom, theta) -> tuple[int, ...]:
    """A deterministic integral lift psi with theta = -beta_dual(psi): the first
    m coordinates of one integer solution of [beta_dual | orders] x = -theta."""
    theta = tuple(int(x) for x in theta)
    group = beta_dual.target
    m = beta_dual.matrix.ncols
    if not group.generator_count:
        return (0,) * m
    try:
        sol = solve_integer(presentation_matrix(group, beta_dual.matrix), [-t for t in theta])
    except NotInImage:
        names = ([f"Z^{group.rank}"] if group.rank else []) + [f"Z/{q}" for q in group.torsion_invariants]
        raise NoIntegralLift(
            f"theta={theta} has no integral lift: -theta is not in the image of "
            f"beta_dual in the dual group {' x '.join(names)}"
        ) from None
    return tuple(sol[:m])


class StackyArrangement:
    """The full input datum: group, defining vectors, stability, lifting.

    Invariants are enforced at construction: every defining vector is
    nontorsion, the cokernel is finite, theta is generic and equals
    -beta_dual(psi) exactly.
    """

    def __init__(self, group_N: FgAbelianGroup, beta: GroupHom, theta: tuple[int, ...],
                 psi: tuple[int, ...], beta_dual: GroupHom):
        self.group_N = group_N
        self.beta = beta
        self.theta = theta
        self.psi = psi
        self.beta_dual = beta_dual

    @staticmethod
    def build(group_N: FgAbelianGroup, beta_columns, theta, psi=None) -> "StackyArrangement":
        cols = [tuple(int(x) for x in c) for c in beta_columns]
        m = len(cols)
        if m == 0:
            raise ArrangementError("need at least one defining vector")
        n = group_N.generator_count
        for j, col in enumerate(cols):
            if len(col) != n:
                raise ArrangementError(
                    f"beta column {j + 1} has length {len(col)}, not the rank plus torsion count {n}"
                )
        matrix = IntMatrix.from_rows(tuple(zip(*cols)), ncols=m)
        beta = GroupHom(FgAbelianGroup(m), group_N, matrix)
        beta_dual = gale_dual(beta)
        theta = tuple(int(x) for x in theta)
        if len(theta) != beta_dual.target.generator_count:
            raise ArrangementError("theta length does not match the dual group")
        if psi is None:
            psi = lift_theta(beta_dual, theta)
        psi = tuple(int(x) for x in psi)
        if len(psi) != m:
            raise ArrangementError("psi length must equal the number of hyperplanes")
        image = beta_dual.target.reduce_vector(beta_dual.matrix.apply(psi))
        expect = beta_dual.target.reduce_vector(tuple(-t for t in theta))
        if image != expect:
            raise ArrangementError("psi is not a lifting: theta != -beta_dual(psi)")
        arr = StackyArrangement(group_N, beta, theta, psi, beta_dual)
        if not arr.is_generic():
            raise NonGenericTheta(f"theta={theta} is not generic")
        return arr

    # -- basic views ---------------------------------------------------------

    @property
    def m(self) -> int:
        return self.beta.matrix.ncols

    @property
    def d(self) -> int:
        return self.group_N.rank

    @cached_property
    def _normals(self) -> tuple[tuple[int, ...], ...]:
        free = self.beta.free_part()
        return tuple(free.col(i) for i in range(self.m))

    def b_bar(self, i: int) -> tuple[int, ...]:
        return self._normals[i]

    @cached_property
    def normal_kernel(self) -> tuple[tuple[int, ...], ...]:
        """The canonical (Hermite) kernel basis of the normals, the integer
        relations sum x_i b_i = 0: the basis of the circuits' curve classes
        and, as (k, -k), of the Lawrence curve lattice.  Without torsion in
        N, ``gale_dual`` wrote this basis as the free rows of ``beta_dual``."""
        if self.group_N.torsion_invariants:
            return kernel_basis(self.beta.free_part())
        return self.beta_dual.free_part().entries

    # -- the matroid ---------------------------------------------------------

    @cached_property
    def _exchange_walk(self) -> tuple[dict, dict, dict]:
        """``(bases, tableau, vertex_values)`` from one walk over the
        basis-exchange graph, as the simplex method pivots.

        One reduction of [normals as columns | I] gives the first basis in
        lexicographic order (its pivot columns) and, times the sign of its
        last pivot, its rows [X | A^T]: s times its coordinate functionals
        on the normals and on the unit vectors.  Below them is the objective
        row o = s (psi, 0) - sum_k psi_{B_k} row_k.  A nonzero p = X[k][j]
        with j outside B names the neighbour B - B_k + j, with s' = |p| and
        rows sign(p) row_k (for j) and sign(p) (p row_i - X[i][j] row_k) / s,
        o among them, the division exact.  The exchange graph of a matroid's
        bases is connected, so the walk meets every basis and reduces no
        singular subset; the tables are empty when the normals do not span.
        """
        d, m, psi = self.d, self.m, self.psi
        identity = [[int(i == j) for j in range(d)] for i in range(d)]
        pivots, reduced, det = row_reduce(list(zip(*self._normals)), identity)
        if len(pivots) < d:
            return {}, {}, {}
        sign = 1 if det > 0 else -1
        start = tuple(pivots)
        rows = [[sign * x for x in row] for row in reduced]
        objective = [sign * det * p for p in psi] + [0] * d
        for i, row in zip(start, rows):
            objective = [o - psi[i] * x for o, x in zip(objective, row)]
        found = {start: (sign * det, rows + [objective])}
        seen = {sum(1 << i for i in start)}
        todo = [start]
        while todo:
            basis = todo.pop()
            scale, rows = found[basis]
            bits = sum(1 << i for i in basis)
            for k, row in enumerate(rows[:d]):
                drop = bits ^ 1 << basis[k]
                for j in range(m):
                    p = row[j]
                    if not p or bits >> j & 1 or drop | 1 << j in seen:
                        continue
                    seen.add(drop | 1 << j)
                    size = abs(p)
                    flip = 1 if p > 0 else -1
                    pivoted = []
                    for i, other in enumerate(rows):
                        if i == k:
                            pivoted.append(row if flip > 0 else [-x for x in row])
                        else:
                            c = flip * other[j]
                            pivoted.append([(size * a - c * b) // scale for a, b in zip(other, row)])
                    members = list(basis)
                    members[k] = j
                    pairs = sorted(zip(members, pivoted))
                    neighbour = tuple(i for i, _ in pairs)
                    found[neighbour] = size, [r for _, r in pairs] + [pivoted[d]]
                    todo.append(neighbour)
        bases, tableau, values = {}, {}, {}
        for basis in sorted(found):
            scale, rows = found[basis]
            bases[basis] = tuple(zip(*(row[m:] for row in rows[:d]))), scale
            tableau[basis] = tuple(tuple(row[:m]) for row in rows[:d])
            values[basis] = tuple(rows[d][m:]), rows[d][:m]
        return bases, tableau, values

    @cached_property
    def bases(self) -> dict:
        """Each basis, in lexicographic order, with ``(A, s)``: s = |det B|
        and A / s the inverse of the matrix whose rows are B's normals."""
        return self._exchange_walk[0]

    @cached_property
    def tableau(self) -> dict:
        """Each basis B, in the order of ``bases``, with its d rows of
        length m: X[k][j] = s times the coordinate of b_j on b_{B_k}, so
        sum_k X[k][j] b_{B_k} = s b_j, and for j outside B a nonzero
        X[k][j] is, up to sign, the s of the basis B - B_k + j (the
        exchange identity), a zero one says that set is no basis."""
        return self._exchange_walk[1]

    @cached_property
    def cones(self) -> tuple[tuple[int, ...], ...]:
        """The faces of the bases by (size, subset): as the normals span Q^d
        (the Gale dual checks it), exactly the independent sets."""
        level, out = set(self.bases), []
        for _ in range(self.d + 1):
            out[:0] = sorted(level)
            level = {c[:k] + c[k + 1 :] for c in level for k in range(len(c))}
        return tuple(out)

    @cached_property
    def _cone_sets(self) -> frozenset:
        return frozenset(map(frozenset, self.cones))

    def is_cone(self, indices) -> bool:
        """Whether the normals at ``indices`` are independent."""
        return frozenset(indices) in self._cone_sets

    @cached_property
    def vertex_values(self) -> dict:
        """Per basis B: its vertex v = -A psi_B and the value <b_j, v> + psi_j
        of every hyperplane j (0 on B), scaled by B's s, as the exchange
        walk's objective row holds them (s psi_j - sum_k X[k][j] psi_{B_k}).
        As beta_dual takes the values to -s theta, those off B are -s times
        the coefficients of theta in the complementary dual basis."""
        return self._exchange_walk[2]

    def is_generic(self) -> bool:
        """Whether theta is on no wall (by Gale duality, no vertex lies on a
        further hyperplane) and, as in ``check_generic``, is not zero."""
        if self.theta and not any(self.theta):
            return False
        return all(values.count(0) == len(tight) for tight, (_, values) in self.vertex_values.items())

    # -- chambers ------------------------------------------------------------

    @cached_property
    def _vertex_graph(self) -> dict:
        """Every vertex, keyed by its tight set and in the order of the
        points, with the far ends of its edges.  Along column k of the
        inverse, hyperplane j changes at the rate X[k][j] of the tableau,
        and the ratio test runs on the scaled integer values.  A further
        hyperplane through a vertex (which ``build`` rejects) or a tie in
        the ratio test means the arrangement is not simple, which a generic
        theta rules out."""
        m, tableau = self.m, self.tableau
        graph = {}
        for tight, (point, values) in self.vertex_values.items():
            scale = self.bases[tight][1]
            others = [j for j in range(m) if j not in tight]
            if any(values[j] == 0 for j in others):
                raise InvariantError(
                    f"vertex {tight} lies on a further hyperplane: the arrangement is not simple"
                )
            ends = []
            for k, rates in enumerate(tableau[tight]):
                nearest = [None, None]  # (|value|, |rate|, j) along -e_k, +e_k
                for j in others:
                    rate = rates[j]
                    if rate == 0:
                        continue
                    side = (values[j] > 0) != (rate > 0)  # 1: crossed along +e_k
                    cand = (abs(values[j]), abs(rate), j)
                    best = nearest[side]
                    if best is None or cand[0] * best[1] < best[0] * cand[1]:
                        nearest[side] = cand
                    elif cand[0] * best[1] == best[0] * cand[1]:
                        raise InvariantError(
                            f"hyperplanes {best[2]} and {j} tie in the ratio test at vertex {tight}: "
                            "the arrangement is not simple"
                        )
                rest = tight[:k] + tight[k + 1 :]
                ends.append(tuple(near and tuple(sorted(rest + (near[2],))) for near in nearest))
            point = tuple(Fraction(x, scale) for x in point)
            above = sum(1 << j for j in others if values[j] > 0)
            graph[tight] = _Vertex(point, above, tuple(ends))
        return dict(sorted(graph.items(), key=lambda item: item[1].point))

    def _walk(self, start, mask):
        """Tight sets of the vertices of the chamber whose 'F' sides are the
        bits of ``mask``, reached from ``start``; None once an edge of the
        chamber turns out unbounded."""
        graph = self._vertex_graph
        seen = {start}
        todo = [start]
        while todo:
            tight = todo.pop()
            for i, ends in zip(tight, graph[tight].ends):
                end = ends[mask >> i & 1]
                if end is None:
                    return None
                if end not in seen:
                    seen.add(end)
                    todo.append(end)
        return seen

    def bounded_chambers(self) -> tuple[Chamber, ...]:
        """All nonempty bounded chambers, ordered by their flip sets.

        A vertex touches 2^d chambers: any signs on its tight set, the
        signs it takes on the other hyperplanes.  Each chamber not yet
        seen is walked once.
        """
        DimensionTooLarge.check(self.d, self.m)
        graph = self._vertex_graph
        order = {tight: k for k, tight in enumerate(graph)}
        found = []
        walked = set()
        for tight, vertex in graph.items():
            masks = [vertex.above]
            for i in tight:
                masks += [mask | 1 << i for mask in masks]
            for mask in masks:
                if mask in walked:
                    continue
                walked.add(mask)
                corners = self._walk(tight, mask)
                if corners is not None:
                    flips = frozenset(i for i in range(self.m) if mask >> i & 1)
                    corners = sorted(corners, key=order.__getitem__)
                    found.append(Chamber(flips, tuple((graph[t].point, t) for t in corners)))
        found.sort(key=lambda ch: tuple(sorted(ch.flips)))
        return tuple(found)

    def core(self):
        """Pairs (chamber, normal fan) over all bounded chambers.  The cone
        at a vertex is spanned by the inward normals of its tight set."""
        sides = [(primitive_vector(tuple(-x for x in b)), primitive_vector(b)) for b in self._normals]
        out = []
        for chamber in self.bounded_chambers():
            cones = [[sides[i][i in chamber.flips] for i in tight] for _, tight in chamber.corners]
            out.append((chamber, NormalFan.of(cones)))
        return tuple(out)

    # -- serialization -------------------------------------------------------

    @staticmethod
    def from_data(data: dict) -> "StackyArrangement":
        group = FgAbelianGroup(int(data["rank"]), tuple(data.get("torsion", ())))
        return StackyArrangement.build(
            group, data["beta"], data["theta"], data.get("psi")
        )
