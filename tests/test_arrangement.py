from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from hypertoric.arrangement import (
    ArrangementError,
    DimensionTooLarge,
    InvariantError,
    NonGenericTheta,
    StackyArrangement,
    check_generic,
    lift_theta,
)
from hypertoric.cli import run
from hypertoric.exactalg import (
    ExactAlgError,
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    gale_dual,
    kernel_basis,
    rational_rank,
    solve_integer,
)
from hypertoric.multifan import circuits
from helpers import matmul, zero_matrix


def dual_of(columns, rank):
    beta = GroupHom(
        FgAbelianGroup(len(columns)),
        FgAbelianGroup(rank),
        IntMatrix.from_rows(tuple(zip(*columns))),
    )
    return gale_dual(beta)


def test_generic_examples():
    dual = dual_of([(-2,), (1,)], 1)
    assert dual.matrix.entries == ((1, 2),)
    assert check_generic(dual, (1,))
    assert not check_generic(dual, (0,))


def test_generic_rejects_wall():
    dual = dual_of([(1, 0), (0, -1), (0, 1), (-1, -1)], 2)
    # the configuration spans three distinct lines; a vector on one of them
    # is rejected, one off all of them is accepted
    cols = [dual.free_part().col(j) for j in range(4)]
    on_wall = cols[0]
    assert not check_generic(dual, tuple(on_wall))
    assert check_generic(dual, (-2, -1))


def test_generic_invariant_under_unimodular_change():
    """``check_generic`` is unchanged by a unimodular change of the dual
    basis, and ``build`` rejects theta exactly where it does: on seeded
    inputs with d <= 3, m <= d + 4 and torsion Z/2 or Z/3, with thetas
    drawn at random or on a wall (an integer combination of f - 1 dual
    columns), and on the zero theta of a torsion-only dual group."""
    dual = dual_of([(1, 0), (0, -1), (0, 1), (-1, -1)], 2)
    rng = random.Random(3)
    thetas = [(-2, -1), (1, 3), (5, 2), (1, 1), (0, 1)]
    for _ in range(20):
        # random unimodular 2x2
        a = rng.randint(-3, 3)
        m = [[1, a], [0, 1]] if rng.random() < 0.5 else [[1, 0], [a, 1]]
        if rng.random() < 0.5:
            m = [[0, 1], [1, 0]] if rng.random() < 0.5 else m
        M = IntMatrix.from_rows(m)
        changed = GroupHom(
            FgAbelianGroup(4), FgAbelianGroup(2), matmul(M, dual.matrix)
        )
        for theta in thetas:
            assert check_generic(dual, theta) == check_generic(
                changed, M.apply(theta)
            )

    def decided(group, cols, theta):
        try:
            StackyArrangement.build(group, cols, theta)
        except NonGenericTheta:
            return False
        return True

    # Z/3 dual group, no hyperplane off the one basis
    assert not decided(FgAbelianGroup(2), [(-2, -1), (1, -1)], (0,))
    assert not check_generic(dual_of([(-2, -1), (1, -1)], 2), (0,))
    counts = {True: 0, False: 0}
    torsion_walls = 0
    for _ in range(600):
        d = rng.randint(1, 3)
        group = FgAbelianGroup(d, rng.choice(((), (2,), (3,))))
        cols = [
            tuple(rng.randint(-2, 2) for _ in range(group.generator_count))
            for _ in range(rng.randint(d, d + 4))
        ]
        beta = GroupHom(FgAbelianGroup(len(cols)), group, IntMatrix.from_rows(tuple(zip(*cols))))
        try:
            dual = gale_dual(beta)
        except ExactAlgError:
            continue  # a torsion column or an infinite cokernel
        # theta = -beta_dual(psi) is in the image; psi on f - 1 indices puts it on a wall
        m, f = len(cols), dual.target.rank
        support = rng.sample(range(m), f - 1) if f and rng.random() < 0.5 else range(m)
        psi = [rng.randint(-3, 3) if j in support else 0 for j in range(m)]
        theta = dual.target.reduce_vector(tuple(-x for x in dual.matrix.apply(psi)))
        generic = check_generic(dual, theta)
        assert decided(group, cols, theta) == generic, (group, cols, theta)
        counts[generic] += 1
        torsion_walls += not generic and bool(group.torsion_invariants)
    assert min(counts.values()) >= 150 and torsion_walls >= 50, (counts, torsion_walls)


def test_lift_theta_examples():
    dual11 = dual_of([(-1,), (1,)], 1)
    assert dual11.matrix.entries == ((1, 1),)
    assert lift_theta(dual11, (1,)) == (-1, 0)
    assert lift_theta(dual11, (0,)) == (0, 0)
    dual12 = dual_of([(-2,), (1,)], 1)
    assert lift_theta(dual12, (1,)) == (-1, 0)


# The lift of every shipped and ladder document, pinned before lift_theta
# solved the dual group's presentation matrix instead of its own rows.
PINNED_LIFTS = {
    "cotangent-p1": (1, 0),
    "cotangent-p12": (1, 0),
    "hirzebruch": (2, 1, 0, 0),
    "hirzebruch-weighted": (3, 1, 0, 0),
    "d2m10": (-5, -17, -13, -10, -3, 12, 0, -9, 0, 15),
    "d2m6": (-1, -6, 0, 1, 0, 10),
    "d2m8": (7, 1, 1, -4, -8, -5, 0, 0),
    "d3m7": (-22, -23, 0, 14, -57, 0, 0),
    "d3m8": (275094, 166268, 152756, -433929, -204124, 383238, 13518, 1359),
    "d3m9": (162, 89, 0, 155, -36, 133, -116, 0, -116),
    "d4m6": (0, 48, 147, -1323, 0, 0),
    "probe-d4m7": (0, 0, 318, 32, -947, -128, 193),
    "probe-d4m8": (-217, 0, -108, 0, -83, 0, 95, 0),
    "tp1123": (1, 0, 0, 0),
    "tp2": (1, 0, 0),
    "tp3": (1, 0, 0, 0),
    "tp4": (1, 0, 0, 0, 0),
}


def hand_built_lift(beta_dual, theta):
    """The reference: lift_theta's former own rows, [free rows of beta_dual |
    0] then [torsion row j of beta_dual | order_j in column m + j]."""
    f = beta_dual.target.rank
    orders = beta_dual.target.torsion_invariants
    m = beta_dual.matrix.ncols
    rows = []
    for i in range(f + len(orders)):
        row = list(beta_dual.matrix.row(i)) + [0] * len(orders)
        if i >= f:
            row[m + i - f] = orders[i - f]
        rows.append(row)
    if not rows:
        return (0,) * m
    return tuple(solve_integer(IntMatrix.from_rows(rows), [-t for t in theta])[:m])


def test_lift_theta_is_pinned_and_matches_the_hand_built_rows(shipped, ladder, rank3_family):
    docs = {**shipped, **ladder}
    assert sorted(docs) == sorted(PINNED_LIFTS)
    for name, arr in docs.items():
        psi = lift_theta(arr.beta_dual, arr.theta)
        assert psi == PINNED_LIFTS[name] == hand_built_lift(arr.beta_dual, arr.theta), name
    assert docs["probe-d4m7"].beta_dual.target.torsion_invariants == (2,)
    for arr in rank3_family:
        assert lift_theta(arr.beta_dual, arr.theta) == hand_built_lift(arr.beta_dual, arr.theta)
    torsion = dual_of([(2,)], 1)
    for theta in ((0,), (1,), (3,)):
        assert lift_theta(torsion, theta) == hand_built_lift(torsion, theta)
    trivial = GroupHom(FgAbelianGroup(2), FgAbelianGroup(0), zero_matrix(0, 2))
    assert lift_theta(trivial, ()) == hand_built_lift(trivial, ()) == (0, 0)


def test_lift_validated_against_substitution(shipped):
    for arr in shipped.values():
        image = arr.beta_dual.target.reduce_vector(arr.beta_dual.matrix.apply(arr.psi))
        expect = arr.beta_dual.target.reduce_vector(tuple(-t for t in arr.theta))
        assert image == expect


def test_user_supplied_psi_is_validated():
    with pytest.raises(Exception):
        StackyArrangement.build(
            FgAbelianGroup(1), [(-1,), (1,)], theta=(-1,), psi=(0, 0)
        )


def test_nongeneric_rejected_at_construction():
    with pytest.raises(NonGenericTheta):
        StackyArrangement.build(FgAbelianGroup(1), [(-1,), (1,)], theta=(0,))
    with pytest.raises(NonGenericTheta):
        StackyArrangement.build(
            FgAbelianGroup(2),
            [(1, 0), (0, -1), (0, 1), (-1, -1)],
            theta=(1, 0),  # on the wall spanned by a dual column
        )


def test_bounded_chambers_hirzebruch(hirzebruch):
    chambers = hirzebruch.bounded_chambers()
    assert len(chambers) == 2
    flips = sorted(tuple(sorted(c.flips)) for c in chambers)
    assert flips == [(0, 1, 2, 3), (0, 2, 3)]


def test_bounded_chambers_weighted(hirzebruch_weighted):
    chambers = hirzebruch_weighted.bounded_chambers()
    assert len(chambers) == 2
    quad = [c for c in chambers if len(c.flips) == 4][0]
    verts = quad.vertices()
    assert len(verts) == 4


def test_single_hyperplane_has_no_bounded_chamber():
    arr = StackyArrangement.build(FgAbelianGroup(1), [(1,)], theta=(), psi=(0,))
    assert arr.bounded_chambers() == ()


def test_dimension_guard():
    arr = StackyArrangement.build(FgAbelianGroup(1), [(1,)], theta=(), psi=(0,))
    object.__setattr__(arr.group_N, "rank", 7)
    with pytest.raises(DimensionTooLarge):
        arr.bounded_chambers()


def test_core_tp1(tp1):
    core = tp1.core()
    assert len(core) == 1
    chamber, fan = core[0]
    assert fan.rays == ((-1,), (1,))
    assert fan.max_cones == ((0,), (1,))
    assert [tuple(v) for v in chamber.vertices()] == [(0,), (1,)]


def test_core_hirzebruch_fans(hirzebruch):
    fans = [fan for _, fan in hirzebruch.core()]
    rays = sorted(f.rays for f in fans)
    assert rays == [
        ((-1, -1), (0, -1), (0, 1), (1, 0)),
        ((-1, -1), (0, 1), (1, 0)),
    ]
    by_len = {len(f.rays): f for f in fans}
    assert len(by_len[4].max_cones) == 4  # quadrilateral
    assert len(by_len[3].max_cones) == 3  # triangle


def brute_force_recession_nontrivial(rows, dim):
    """Independent oracle: candidate extreme rays from (dim-1)-subsets of
    rows plus the lineality kernel, checked against the homogeneous system."""

    def ok(vec):
        return any(x != 0 for x in vec) and all(
            sum(a * x for a, x in zip(row, vec)) >= 0 for row in rows
        )

    mat = IntMatrix.from_rows(
        [[int(x * 840) for x in row] for row in rows], ncols=dim  # clear denominators
    )
    for k in kernel_basis(mat):
        if ok(k) or ok(tuple(-x for x in k)):
            return True
    for subset in itertools.combinations(range(len(rows)), dim - 1):
        sub = IntMatrix.from_rows(
            [[int(x * 840) for x in rows[i]] for i in subset], ncols=dim
        )
        if rational_rank(sub.entries) != len(subset):
            continue
        for k in kernel_basis(sub):
            if ok(k) or ok(tuple(-x for x in k)):
                return True
    return False


# ---------------------------------------------------------------------------
# Brute-force oracles with their own exact elimination: systems
# { <a_i, x> + c_i >= 0 } are given as parallel lists of normals and offsets.


def echelon(rows, ncols):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((i for i in range(top, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
    return rows, pivots


def rank_of(rows, ncols):
    return len(echelon(rows, ncols)[1])


def point_on(normals, offsets, dim):
    """A point of { <a_i, x> + c_i = 0 } with free coordinates 0, or None."""
    rows, pivots = echelon([list(a) + [-c] for a, c in zip(normals, offsets)], dim + 1)
    if dim in pivots:
        return None
    x = [Fraction(0)] * dim
    for row, col in zip(rows, pivots):
        x[col] = row[dim]
    return tuple(x)


def satisfies(normals, offsets, x):
    return all(sum(a * v for a, v in zip(n, x)) + c >= 0 for n, c in zip(normals, offsets))


def brute_feasible(normals, offsets, dim):
    """A nonempty system has a minimal face, cut out by setting rank-many
    independent rows to equality; so try every such subsystem."""
    r = rank_of(normals, dim)
    for subset in itertools.combinations(range(len(normals)), r):
        chosen = [normals[i] for i in subset]
        if rank_of(chosen, dim) < r:
            continue
        x = point_on(chosen, [offsets[i] for i in subset], dim)
        if satisfies(normals, offsets, x):
            return True
    return False


def brute_vertices(normals, offsets, dim):
    """Feasible points where dim independent rows are tight, sorted."""
    out = set()
    for subset in itertools.combinations(range(len(normals)), dim):
        chosen = [normals[i] for i in subset]
        if rank_of(chosen, dim) == dim:
            x = point_on(chosen, [offsets[i] for i in subset], dim)
            if satisfies(normals, offsets, x):
                out.add(x)
    return sorted(out)


def brute_simple(normals, offsets, dim):
    """Whether every k hyperplanes that meet do so in codimension k."""
    m = len(normals)
    for size in range(2, m + 1):
        for subset in itertools.combinations(range(m), size):
            chosen = [normals[i] for i in subset]
            if rank_of(chosen, dim) < size and point_on(chosen, [offsets[i] for i in subset], dim):
                return False
    return True


def zaslavsky_count(normals, offsets, dim):
    """Bounded regions of an essential arrangement: |chi(1)|, with chi(1) the
    sum of (-1)^|S| over the subsets S of hyperplanes that meet."""
    m = len(normals)
    total = 0
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            if point_on([normals[i] for i in subset], [offsets[i] for i in subset], dim):
                total += (-1) ** size
    return abs(total)


def chamber_system(normals, offsets, flips):
    """Side 'F' of the hyperplanes in ``flips``, side 'G' of the others."""
    signs = [1 if i in flips else -1 for i in range(len(normals))]
    return (
        [tuple(s * a for a in n) for s, n in zip(signs, normals)],
        [s * c for s, c in zip(signs, offsets)],
    )


def raw_arrangement(normals, psi):
    """An arrangement straight from normals and lifts, bypassing the
    genericity and lifting checks of ``build``.  Its ``beta_dual`` is
    None when the normals have no Gale dual (they do not span)."""
    dim = len(normals[0])
    beta = GroupHom(
        FgAbelianGroup(len(normals)), FgAbelianGroup(dim), IntMatrix.from_rows(tuple(zip(*normals)))
    )
    try:
        beta_dual = gale_dual(beta)
    except ExactAlgError:
        beta_dual = None
    return StackyArrangement(FgAbelianGroup(dim), beta, (), tuple(psi), beta_dual)


def random_family(rank, count, seed, max_m):
    """Seeded generic arrangements as (columns, psi, arrangement)."""
    rng = random.Random(seed)
    out = []
    for _ in range(2000):
        m = rng.randint(rank + 1, max_m)
        cols = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(m)]
        psi = tuple(rng.randint(-3, 3) for _ in range(m))
        try:
            dual = dual_of(cols, rank)
        except ExactAlgError:
            continue  # a zero column or an infinite cokernel
        theta = tuple(-x for x in dual.matrix.apply(psi))
        if check_generic(dual, theta):
            out.append((cols, psi, StackyArrangement.build(FgAbelianGroup(rank), cols, theta, psi)))
            if len(out) == count:
                return out
    raise AssertionError("too few generic draws")


FAMILIES = {
    "rank2": random_family(2, count=12, seed=5, max_m=6),
    "rank3": random_family(3, count=10, seed=7, max_m=7),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bounded_chamber_count_matches_zaslavsky(family):
    for cols, psi, arr in FAMILIES[family]:
        assert len(arr.bounded_chambers()) == zaslavsky_count(cols, psi, arr.d), (cols, psi)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chamber_vertices_match_brute_force(family):
    for cols, psi, arr in FAMILIES[family]:
        for chamber, fan in arr.core():
            normals, offsets = chamber_system(cols, psi, chamber.flips)
            assert chamber.vertices() == brute_vertices(normals, offsets, arr.d), (cols, psi)
            assert not brute_force_recession_nontrivial(normals, arr.d)
            assert len(fan.max_cones) == len(chamber.vertices())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_circuit_orientation_matches_brute_feasibility(family):
    for cols, psi, arr in FAMILIES[family]:
        for c in circuits(arr):
            # side 'G' of the positive hyperplanes with side 'F' of the negative ones
            support = c.positive + c.negative
            normals = [tuple(-c.sign_of(i) * x for x in cols[i]) for i in support]
            offsets = [-c.sign_of(i) * psi[i] for i in support]
            assert not brute_feasible(normals, offsets, arr.d), (cols, psi, c.support)
            flipped = [tuple(-x for x in n) for n in normals]
            assert brute_feasible(flipped, [-x for x in offsets], arr.d)


def test_recession_oracle_agreement():
    """On seeded random systems, read as arrangements: a chamber is bounded
    by the vertex walk exactly when its system is feasible and has a trivial
    recession cone by the brute-force oracle; an arrangement that is not
    simple is an internal error once its normals span."""
    rng = random.Random(11)
    for _ in range(60):
        dim = rng.randint(1, 3)
        rows = [
            ([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-2, 2))
            for _ in range(rng.randint(1, 5))
        ]
        rows = [(a, c) for a, c in rows if any(a)]
        if not rows:
            continue
        normals, offsets = [a for a, _ in rows], [c for _, c in rows]
        arr = raw_arrangement(normals, offsets)
        if not brute_simple(normals, offsets, dim) and rank_of(normals, dim) == dim:
            with pytest.raises(InvariantError):
                arr.bounded_chambers()
            continue
        walked = {ch.flips for ch in arr.bounded_chambers()}
        brute = set()
        for size in range(len(rows) + 1):
            for flips in itertools.combinations(range(len(rows)), size):
                system = chamber_system(normals, offsets, flips)
                if brute_feasible(*system, dim) and not brute_force_recession_nontrivial(
                    system[0], dim
                ):
                    brute.add(frozenset(flips))
        assert walked == brute, (rows,)


def test_fm_feasibility_basic():
    # x >= 0 with x <= -1 is empty, x >= 0 with x <= 1 is not: read as the
    # hyperplanes x = 0 and -x + c = 0, whose circuit {0, 1} has weights
    # (1, 1) and is split so that side 'F' of both (negative = (0, 1)) is empty
    for c, empty in ((-1, True), (1, False)):
        normals, offsets = [(1,), (-1,)], [0, c]
        assert brute_feasible(normals, offsets, 1) == (not empty)
        (circuit,) = circuits(raw_arrangement(normals, offsets))
        assert (circuit.negative == (0, 1)) == empty


def test_vertices_of_square():
    normals, offsets = [(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 1, 0, 1]
    (chamber,) = raw_arrangement(normals, offsets).bounded_chambers()
    assert chamber.flips == frozenset(range(4))
    verts = chamber.vertices()
    assert verts == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    ]
    assert verts == brute_vertices(normals, offsets, 2)


def test_internal_invariants_are_not_input_errors():
    assert not issubclass(InvariantError, (ArrangementError, ExactAlgError))


def test_concurrent_lines_are_a_non_simple_vertex():
    arr = raw_arrangement([(1, 0), (0, 1), (1, 1)], [0, 0, 0])
    with pytest.raises(InvariantError, match="further hyperplane"):
        arr.bounded_chambers()


def test_ratio_test_tie_is_an_internal_error():
    # from the vertex x = 0, the edge toward +x meets x = 1 twice
    arr = raw_arrangement([(1,), (1,), (-1,)], [0, -1, 1])
    with pytest.raises(InvariantError, match="tie"):
        arr.bounded_chambers()


def test_zero_circuit_pairing_is_an_internal_error():
    with pytest.raises(InvariantError, match="wall"):
        circuits(raw_arrangement([(1,), (-1,)], [0, 0]))


def test_cli_reports_zero_circuit_pairing_as_internal(tmp_path, monkeypatch, capsys):
    # theta = 0 is on a wall; with the genericity gate off it reaches circuits
    monkeypatch.setattr(StackyArrangement, "is_generic", lambda self: True)
    path = tmp_path / "wall.json"
    path.write_text(
        '{"schema_version": "hypertoric-arrangement/1", "rank": 1, "torsion": [],'
        ' "beta": [[1], [-1]], "theta": [0]}'
    )
    assert run(["circuits", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert "internal error" in captured.err
    assert "(input data)" not in captured.out


def test_lift_theta_with_torsion_dual():
    # the dual group of the doubling map is Z/2; lifting solves a congruence
    dual = dual_of([(2,)], 1)
    assert dual.target == FgAbelianGroup(0, (2,))
    psi = lift_theta(dual, (1,))
    image = dual.target.reduce_vector(dual.matrix.apply(psi))
    assert image == (1,)  # theta = -image = 1 mod 2


def test_chamber_enumeration_scales_to_eight_lines():
    cols = [(1, 0), (0, 1), (-1, -1), (1, -1), (2, 1), (-1, 2), (1, 1), (-2, -1)]
    psi = (0, -7, 5, -3, 2, -4, -7, 1)
    dual = dual_of(cols, 2)
    theta = tuple(-x for x in dual.matrix.apply(psi))
    if not check_generic(dual, theta):
        psi = (-4, -1, 1, -6, 2, -4, -7, 4)
        theta = tuple(-x for x in dual.matrix.apply(psi))
    arr = StackyArrangement.build(FgAbelianGroup(2), cols, theta=theta, psi=psi)
    chambers = arr.bounded_chambers()
    assert len(chambers) > 5
    for ch in chambers:
        assert len(ch.vertices()) >= 3
