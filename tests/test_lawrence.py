from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from hypertoric.arrangement import ArrangementError, InvariantError, NonGenericTheta, StackyArrangement
from hypertoric.cli import payload_qsr
from hypertoric.examples_data import example_document
from hypertoric.exactalg import (
    IntMatrix,
    kernel_basis,
    rational_rank,
    row_reduce,
    solve_rational_system,
)
from hypertoric.lawrence import (
    ConeCoordinates,
    LawrenceFan,
    OutsideSupport,
    build_lawrence_fan,
)
from hypertoric.multifan import circuits
from hypertoric.quantum import qsr_word


def test_tp1_fan_shape(tp1):
    fan = build_lawrence_fan(tp1)
    assert len(fan.rays) == 4
    assert len(fan.rays[0]) == 3  # rank d + m
    assert len(fan.max_cones) == 2
    for cone in fan.max_cones:
        assert len(cone) == tp1.m + tp1.d
    assert fan.irrelevant_monomials == (("w1",), ("w2",))


def test_tp12_fan_shape(tp12):
    fan = build_lawrence_fan(tp12)
    assert len(fan.rays) == 4
    assert len(fan.max_cones) == 2


def test_hirzebruch_fan_counts(hirzebruch):
    fan = build_lawrence_fan(hirzebruch)
    assert len(fan.rays) == 2 * hirzebruch.m
    for cone in fan.max_cones:
        assert len(cone) == hirzebruch.m + hirzebruch.d
    # every max cone is simplicial of full rank with a finite index
    for cone in fan.max_cones:
        rows = tuple(zip(*[fan.ray_vector(r) for r in cone]))
        assert rational_rank(rows) == hirzebruch.m + hirzebruch.d


def test_nongeneric_on_wall():
    doc = example_document("cotangent-p1")
    doc["theta"] = [0]
    del doc["psi"]
    with pytest.raises(NonGenericTheta):
        StackyArrangement.from_data(doc)


def test_locate_rays_and_sums(tp1):
    fan = build_lawrence_fan(tp1)
    loc = fan.locate(fan.ray_vector(0))
    assert loc.coefficients == {0: Fraction(1)}
    cone = fan.max_cones[0]
    pt = tuple(
        a + b for a, b in zip(fan.ray_vector(cone[0]), fan.ray_vector(cone[1]))
    )
    loc2 = fan.locate(pt)
    assert loc2.coefficient(cone[0]) == 1 and loc2.coefficient(cone[1]) == 1


def test_locate_expand_identity(shipped):
    for arr in shipped.values():
        fan = build_lawrence_fan(arr)
        for cone in fan.max_cones:
            for coeffs in itertools.product(range(2), repeat=min(3, len(cone))):
                chosen = cone[: len(coeffs)]
                pt = tuple(
                    sum(c * fan.ray_vector(r)[t] for c, r in zip(coeffs, chosen))
                    for t in range(len(fan.rays[0]))
                )
                loc = fan.locate(pt)
                rebuilt = tuple(
                    sum(
                        loc.coefficient(r) * fan.ray_vector(r)[t]
                        for r in loc.coefficients
                    )
                    for t in range(len(fan.rays[0]))
                )
                assert tuple(Fraction(x) for x in pt) == rebuilt


def _locate_or_none(fan, pt):
    try:
        return fan.locate(pt)
    except OutsideSupport:
        return None


def scan_locate(fan, point):
    """Reference: solve the full (d+m) x (d+m) ray system of each maximal
    cone in turn, and return the first cone with nonnegative coordinates;
    None when no cone holds the point."""
    for cone in fan.max_cones:
        sol = solve_rational_system([list(row) for row in zip(*(fan.rays[r] for r in cone))], point)
        if sol is not None and all(c >= 0 for c in sol):
            return ConeCoordinates(cone, {r: c for r, c in zip(cone, sol) if c != 0})
    return None


def l_vector(fan, p, q):
    """Reference: the l-vector of two lattice points in Q^m + Q^m, their
    located cone coordinates less those of their sum."""
    total = tuple(a + b for a, b in zip(p, q))
    loc1, loc2, loc12 = (fan.locate(pt) for pt in (p, q, total))
    return tuple(loc1.coefficient(r) + loc2.coefficient(r) - loc12.coefficient(r) for r in range(2 * fan.m))


@pytest.fixture(scope="module")
def wide_fans(shipped, ladder, rank3_family):
    """Fans of the shipped examples, every ladder rung and a seeded rank-3 family."""
    return [build_lawrence_fan(arr) for arr in [*shipped.values(), *ladder.values(), *rank3_family]]


def solve_cones(arr):
    """Reference: the maximal cones and irrelevant monomials from the sign
    patterns of theta in each basis of the dual configuration, one rational
    solve per (m - d)-subset of the dual columns; None on a wall."""
    f = arr.beta_dual.target.rank
    m = arr.m
    cols = [arr.beta_dual.free_part().col(j) for j in range(m)]
    cones, monomials = set(), set()
    for subset in itertools.combinations(range(m), f):
        rows = list(zip(*(cols[i] for i in subset)))
        if rational_rank(rows) < f:
            continue
        lam = solve_rational_system(rows, arr.theta[:f])
        if any(x == 0 for x in lam):
            return None
        sigma = {i if coeff > 0 else m + i for i, coeff in zip(subset, lam)}  # z- or w-ray
        cones.add(tuple(r for r in range(2 * m) if r not in sigma))
        monomials.add(tuple(sorted(f"z{r + 1}" if r < m else f"w{r - m + 1}" for r in sigma)))
    return tuple(sorted(cones)), tuple(sorted(monomials))


def test_cones_match_the_dual_basis_solves(wide_fans):
    """The cones read off the vertex values equal those of the rational
    solves of theta in every dual basis, on the shipped examples, every
    ladder rung and the rank-3 family."""
    for fan in wide_fans:
        assert (fan.max_cones, fan.irrelevant_monomials) == solve_cones(fan.arrangement)


def nonfacial_degrees(fan):
    """Reference: the curve degrees of the nonfacial ray pairs, paired on
    ``fan`` itself."""
    return [fan.l_pairing(fan.ray_vector(a), fan.ray_vector(b)) for a, b in fan.nonfacial_ray_pairs()]


def oriented_basis(fan):
    """Reference: the curve basis of ``fan`` with each vector flipped whose
    coordinate is never positive and sometimes negative on the nonfacial
    degrees of ``fan``, as a second fan would be built on it."""
    degrees = nonfacial_degrees(fan)
    out = []
    for t, vec in enumerate(fan.h2_basis):
        values = [x[t] for x in degrees]
        flip = min(values, default=0) < 0 and max(values) <= 0
        out.append(tuple(-x for x in vec) if flip else tuple(vec))
    return tuple(out)


def test_build_makes_one_fan_and_pairs_each_nonfacial_pair_once(shipped, ladder, rank3_family, monkeypatch):
    """One LawrenceFan per build, and one l-pairing per nonfacial ray pair:
    the orientation and the minimal curve degree share that pass."""
    made, paired = [], []
    init, l_pairing = LawrenceFan.__init__, LawrenceFan.l_pairing

    def counting_init(fan, *args):
        made.append(fan)
        init(fan, *args)

    def counting_l_pairing(fan, c1, c2):
        paired.append((c1, c2))
        return l_pairing(fan, c1, c2)

    monkeypatch.setattr(LawrenceFan, "__init__", counting_init)
    monkeypatch.setattr(LawrenceFan, "l_pairing", counting_l_pairing)
    flipped = 0
    for arr in [*shipped.values(), *ladder.values(), *rank3_family]:
        made.clear()
        paired.clear()
        fan = build_lawrence_fan(arr)
        assert made == [fan]
        pairs = fan.nonfacial_ray_pairs()
        assert paired == [(fan.ray_vector(a), fan.ray_vector(b)) for a, b in pairs]
        kernel = tuple((*k, *(-x for x in k)) for k in arr.normal_kernel)
        flipped += fan.h2_basis != kernel
    assert flipped >= 3


def test_minimal_curve_degree_matches_a_recomputation(wide_fans):
    """The minimal curve degree read off the unflipped degrees equals the
    first smallest positive degree of a nonfacial pair paired again on the
    built fan, and the built basis is oriented on its own degrees."""
    found = 0
    for fan in wide_fans:
        degrees = nonfacial_degrees(fan)
        expected = min((x for x in degrees if sum(x) > 0), key=sum, default=None)
        assert fan.minimal_curve_degree == expected
        assert oriented_basis(fan) == fan.h2_basis
        found += expected is not None
    assert found >= 5


def test_curve_basis_matches_the_lifted_kernel(wide_fans):
    """The unflipped curve basis, (k, -k) over the kernel basis of the
    normals, equals the canonical kernel basis of the (d+m) x 2m lifted ray
    matrix, and the built basis is it oriented, on the shipped examples,
    every ladder rung and the rank-3 family."""
    for fan in wide_fans:
        lifted = kernel_basis(IntMatrix.from_rows(tuple(zip(*fan.rays))))
        unoriented = LawrenceFan(fan.arrangement)
        assert unoriented.h2_basis == lifted
        assert fan.h2_basis == oriented_basis(unoriented)
        assert len(lifted) == fan.m - fan.arrangement.d


def test_locate_matches_full_cone_scan(wide_fans):
    """Closed-form location equals the full rational solve of each cone's
    ray system, in max_cones order: same first cone, same coordinates.
    Points are integer combinations of three rays with coefficients in
    [-2, 3]."""
    rng = random.Random(20151)
    inside = outside = 0
    for fan in wide_fans:
        for _ in range(24):
            rays = rng.sample(fan.rays, 3)
            coeffs = [rng.randint(-2, 3) for _ in rays]
            pt = tuple(sum(k * r[t] for k, r in zip(coeffs, rays)) for t in range(len(rays[0])))
            expected = scan_locate(fan, pt)
            assert _locate_or_none(fan, pt) == expected
            if expected is None:
                outside += 1
            else:
                inside += 1
    assert inside >= 50 and outside >= 50


def test_l_pairing_locates_each_point_once(shipped):
    """The fan remembers every point the l-pairing located; a pairing
    answered from that memo equals one computed on a fresh fan."""
    for arr in shipped.values():
        fan = build_lawrence_fan(arr)
        pairs = [
            (fan.ray_vector(r), fan.ray_vector(s))
            for r, s in itertools.combinations_with_replacement(range(len(fan.rays)), 2)
        ]
        located = set()
        for p, q in pairs:
            memo = fan.l_pairing(p, q)
            # a copy of the fan starts with an empty memo
            copy = LawrenceFan(arr)
            copy.signs = fan.signs
            assert memo == copy.l_pairing(p, q)
            located |= {p, q, tuple(a + b for a, b in zip(p, q))}
        assert located and set(fan._located) == located


def combination(coords, basis):
    """The vector sum_k coords[k] basis[k]; the curve basis is independent,
    so only its coordinates give the vector back."""
    return tuple(sum((c * b[i] for c, b in zip(coords, basis)), Fraction(0)) for i in range(len(basis[0])))


def test_l_pairing_projection_matches_basis_coordinates(hirzebruch, monkeypatch):
    """The curve-degree projection set up once per fan gives the basis
    coordinates of the l-vector of every pair the qsr command pairs on
    hirzebruch."""
    pairs = []
    l_pairing = LawrenceFan.l_pairing

    def recording(fan, c1, c2):
        degree = l_pairing(fan, c1, c2)
        pairs.append((fan, c1, c2, fan.h2_basis, degree))
        return degree

    monkeypatch.setattr(LawrenceFan, "l_pairing", recording)
    payload_qsr(hirzebruch, 6)
    assert pairs
    for fan, p, q, basis, degree in pairs:
        assert combination(degree, basis) == l_vector(fan, p, q)


def test_l_pairing_matches_rational_coordinates(wide_fans):
    """On every ray pair, the integer l-pairing returns the rational
    coordinates in the curve basis of the l-vector of the located
    coefficients."""
    paired = 0
    for fan in wide_fans:
        for a, b in itertools.combinations_with_replacement(range(2 * fan.m), 2):
            p, q = fan.ray_vector(a), fan.ray_vector(b)
            assert combination(fan.l_pairing(p, q), fan.h2_basis) == l_vector(fan, p, q)
            paired += 1
    assert paired > 1000


def test_degrees_do_not_depend_on_the_sign_of_the_last_pivot(hirzebruch_weighted):
    """The projection's last pivot may be negative: negating it with the
    coordinates leaves every l-pairing and every circuit word as it was,
    truncation included, since a word compares its degree with the order
    over a positive denominator."""
    fan = build_lawrence_fan(hirzebruch_weighted)
    pairs = [(fan.ray_vector(a), fan.ray_vector(b)) for a, b in itertools.combinations(range(2 * fan.m), 2)]
    words = [
        [(kind, i) for i, w in zip(c.support, c.weights) for _ in range(w)]
        for c in circuits(hirzebruch_weighted)
        for kind in ("u", "hu")
    ]
    expected = [fan.l_pairing(p, q) for p, q in pairs], [qsr_word(fan, w, 6).terms for w in words]
    project = fan._h2_coordinates

    def negated(vec):
        coords, last = project(vec)
        return [-x for x in coords], -last

    fan._h2_coordinates = negated
    assert ([fan.l_pairing(p, q) for p, q in pairs], [qsr_word(fan, w, 6).terms for w in words]) == expected


def test_l_pairing_outside_curve_lattice_is_internal(tp1, monkeypatch):
    fan = build_lawrence_fan(tp1)
    (pair,) = fan.nonfacial_ray_pairs()
    (circuit,) = circuits(tp1)
    real = row_reduce

    def wrong_last_pivot(rows, right=()):
        pivots, reduced, d = real(rows, right)
        return pivots, reduced, 2 * d

    monkeypatch.setattr("hypertoric.exactalg.row_reduce", wrong_last_pivot)
    # the fresh fan sets its projection up under the patch
    fresh = LawrenceFan(tp1)
    with pytest.raises(InvariantError, match="curve lattice"):
        fresh.l_pairing(fan.ray_vector(pair[0]), fan.ray_vector(pair[1]))
    # a word of generators reads its degree through the same projection
    with pytest.raises(InvariantError, match="curve lattice"):
        qsr_word(fresh, [("u", i) for i in circuit.support], 6)


def test_outside_support(tp1):
    fan = build_lawrence_fan(tp1)
    with pytest.raises(OutsideSupport):
        fan.locate((0, -1, -1))


def test_wrong_dimension_is_internal(tp12):
    """Only the program builds the points it locates, so a point of the
    wrong dimension is a fault of the program, not of the input."""
    fan = build_lawrence_fan(tp12)
    for query in (lambda: fan.locate((0,)), lambda: fan.l_pairing((0,), (0,))):
        with pytest.raises(InvariantError, match="wrong dimension") as err:
            query()
        assert not isinstance(err.value, ArrangementError)


def test_l_pairing_symmetry_and_zero(tp1, tp12):
    for arr in (tp1, tp12):
        fan = build_lawrence_fan(arr)
        pts = [fan.ray_vector(r) for r in range(4)]
        zero = tuple(0 for _ in pts[0])
        for p in pts:
            assert all(x == 0 for x in l_vector(fan, p, zero))
            assert all(x == 0 for x in fan.l_pairing(p, zero))
        for p, q in itertools.combinations(pts, 2):
            assert l_vector(fan, p, q) == l_vector(fan, q, p)
            assert fan.l_pairing(p, q) == fan.l_pairing(q, p)


def test_same_cone_pairs_vanish(shipped):
    for arr in shipped.values():
        fan = build_lawrence_fan(arr)
        for cone in fan.max_cones:
            for a, b in itertools.combinations(cone[:4], 2):
                p, q = fan.ray_vector(a), fan.ray_vector(b)
                assert all(x == 0 for x in l_vector(fan, p, q))
                assert all(x == 0 for x in fan.l_pairing(p, q))


def test_nonfacial_pair_positive_degree(tp1, tp12):
    fan1 = build_lawrence_fan(tp1)
    (pair,) = fan1.nonfacial_ray_pairs()
    deg = fan1.l_pairing(fan1.ray_vector(pair[0]), fan1.ray_vector(pair[1]))
    assert deg == (Fraction(1),)
    fan12 = build_lawrence_fan(tp12)
    (pair12,) = fan12.nonfacial_ray_pairs()
    deg12 = fan12.l_pairing(
        fan12.ray_vector(pair12[0]), fan12.ray_vector(pair12[1])
    )
    assert deg12 == (Fraction(1, 2),)


def test_cone_lattice_index(tp1, tp12):
    fan1 = build_lawrence_fan(tp1)
    assert [fan1.cone_index(c) for c in fan1.max_cones] == [1, 1]
    fan12 = build_lawrence_fan(tp12)
    # one chart is unimodular, the other carries the order-two stabilizer
    assert sorted(fan12.cone_index(c) for c in fan12.max_cones) == [1, 2]


def test_l_vector_is_ray_relation(tp12):
    # the l vector contracts the rays to zero: it is a genuine curve relation
    fan = build_lawrence_fan(tp12)
    (pair,) = fan.nonfacial_ray_pairs()
    vec = l_vector(fan, fan.ray_vector(pair[0]), fan.ray_vector(pair[1]))
    dim = len(fan.rays[0])
    total = [Fraction(0)] * dim
    for r in range(2 * fan.m):
        for t in range(dim):
            total[t] += vec[r] * fan.ray_vector(r)[t]
    assert all(x == 0 for x in total)


def test_maximal_cone_off_the_bases_is_internal(hirzebruch):
    """The two-sided set of a maximal cone is a basis by Gale duality; the
    index of a cone on the parallel pair (1, 2) is a fault of the program."""
    fan = build_lawrence_fan(hirzebruch)
    m = hirzebruch.m
    forged = (0, 1, 2, 3, m + 1, m + 2)  # every z-ray, the w-rays of 1 and 2
    with pytest.raises(InvariantError, match="not a maximal cone"):
        fan.cone_index(forged)
