from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from hypertoric.arrangement import InvariantError, StackyArrangement
from hypertoric.exactalg import (
    FgAbelianGroup,
    IntMatrix,
    basis_projection,
    kernel_basis,
    primitive_vector,
    row_reduce,
    smith_normal_form,
)
from hypertoric.multifan import (
    BoxElement,
    Circuit,
    box_elements,
    box_inverse,
    box_of,
    circuits,
)


def by_support(arr):
    return {c.support: c for c in circuits(arr)}


def test_circuits_hirzebruch(hirzebruch):
    cs = by_support(hirzebruch)
    assert set(cs) == {(1, 2), (0, 1, 3), (0, 2, 3)}
    c = cs[(0, 1, 3)]
    assert c.positive == (0, 3) and c.negative == (1,)
    assert c.weights == (1, 1, 1)
    assert c.beta_S == (1, -1, 0, 1)
    assert cs[(1, 2)].positive == (1, 2) and cs[(1, 2)].negative == ()
    assert cs[(1, 2)].beta_S == (0, 1, 1, 0)
    assert cs[(0, 2, 3)].positive == (0, 2, 3)
    assert cs[(0, 2, 3)].beta_S == (1, 0, 1, 1)
    assert cs[(0, 1, 3)].root_hyperplane == (2,)


def test_circuits_hirzebruch_weighted(hirzebruch_weighted):
    cs = by_support(hirzebruch_weighted)
    assert set(cs) == {(1, 2), (0, 1, 3), (0, 2, 3)}
    c124 = cs[(0, 1, 3)]
    assert c124.positive == (0, 3) and c124.negative == (1,)
    assert c124.weights == (1, 2, 1)
    assert c124.beta_S == (1, -2, 0, 1)
    assert c124.lcm_w == 2
    c134 = cs[(0, 2, 3)]
    assert c134.weights == (1, 2, 1)
    # the defining combination with coefficient 2 on the middle slot, not a
    # squarefree transcription of it
    assert c134.beta_S == (1, 0, 2, 1)
    assert cs[(1, 2)].beta_S == (0, 1, 1, 0)


def test_curve_classes_in_canonical_basis(hirzebruch, hirzebruch_weighted):
    cs = by_support(hirzebruch)
    assert cs[(1, 2)].h2_class == (0, 1)
    assert cs[(0, 1, 3)].h2_class == (1, -1)
    assert cs[(0, 2, 3)].h2_class == (1, 0)
    cw = by_support(hirzebruch_weighted)
    assert cw[(1, 2)].h2_class == (0, 1)
    assert cw[(0, 1, 3)].h2_class == (1, -2)
    assert cw[(0, 2, 3)].h2_class == (1, 0)
    for arr, table in ((hirzebruch, cs), (hirzebruch_weighted, cw)):
        kb = kernel_basis(arr.beta.free_part())
        for c in table.values():
            total = [sum(x * b[i] for x, b in zip(c.h2_class, kb)) for i in range(arr.m)]
            assert tuple(total) == c.beta_S


def fresh(arr):
    """A new arrangement with the data of ``arr`` and nothing cached."""
    return StackyArrangement(arr.group_N, arr.beta, arr.theta, arr.psi, arr.beta_dual)


def with_corrupted_inverse(arr, corrupt):
    """A copy of ``arr`` whose basis table holds ``corrupt(A)`` in place of
    the inverse A of its first basis, which is first for the supports of its
    fundamental circuits."""
    copy = fresh(arr)
    table = dict(arr.bases)
    first = next(iter(table))
    inverse, scale = table[first]
    table[first] = tuple(map(tuple, corrupt([list(row) for row in inverse]))), scale
    copy.__dict__["bases"] = table
    return copy


def test_circuit_kernel_of_wrong_dimension_is_internal(hirzebruch):
    """An inverse scaled without its denominator gives kernel vectors that
    miss the kernel: a program fault, caught by the check that each
    circuit's weights are a dependency of its normals."""
    broken = with_corrupted_inverse(hirzebruch, lambda rows: [[2 * x for x in row] for row in rows])
    with pytest.raises(InvariantError, match="not a dependency"):
        circuits(broken)
    assert circuits(hirzebruch) == circuits(fresh(hirzebruch))


def test_circuit_reduction_that_disagrees_with_the_cones_is_internal(hirzebruch):
    """An inverse with swapped rows or a zeroed entry disagrees with the
    normals of its basis; the circuits read off it are a program fault."""

    def swapped(rows):
        return rows[::-1]

    def zero_entry(rows):
        rows[0][0] = 0
        return rows

    for corrupt in (swapped, zero_entry):
        with pytest.raises(InvariantError, match="not a dependency"):
            circuits(with_corrupted_inverse(hirzebruch, corrupt))


def test_curve_class_outside_kernel_lattice_is_internal(hirzebruch, monkeypatch):
    """A curve class outside the span of the kernel basis, or with
    non-integral coordinates in it (read against the basis doubled), is a
    fault of the program."""
    outside = lambda basis: lambda vec: None  # noqa: E731
    doubled = lambda basis: basis_projection([[2 * x for x in b] for b in basis])  # noqa: E731
    for fake in (outside, doubled):
        monkeypatch.setattr("hypertoric.multifan.basis_projection", fake)
        with pytest.raises(InvariantError, match="kernel lattice"):
            circuits(hirzebruch)


def test_curve_classes_match_coordinates_in_basis(shipped, ladder, rank3_family):
    """The one projection gives each circuit the integer coordinates of its
    signed vector in the kernel basis: they combine the basis, which is
    independent, into that vector."""
    checked = 0
    for arr in [*shipped.values(), *ladder.values(), *rank3_family]:
        kb = kernel_basis(arr.beta.free_part())
        for c in circuits(arr):
            assert all(type(x) is int for x in c.h2_class)
            assert tuple(sum(x * b[i] for x, b in zip(c.h2_class, kb)) for i in range(arr.m)) == c.beta_S
            checked += 1
    assert checked > 500


def test_circuit_weight_relation(shipped):
    for arr in shipped.values():
        for c in circuits(arr):
            total = [0] * arr.d
            for i in c.positive:
                w = c.weights[c.support.index(i)]
                for r in range(arr.d):
                    total[r] += w * arr.b_bar(i)[r]
            for j in c.negative:
                w = c.weights[c.support.index(j)]
                for r in range(arr.d):
                    total[r] -= w * arr.b_bar(j)[r]
            assert all(x == 0 for x in total)
            # kernel membership of the curve class
            assert all(x == 0 for x in arr.beta.free_part().apply(c.beta_S))
            # minimality: removing any index leaves an independent family
            for drop in c.support:
                assert arr.is_cone(tuple(i for i in c.support if i != drop))


def test_no_circuits_for_independent_columns():
    arr = StackyArrangement.build(
        FgAbelianGroup(2), [(1, 0), (0, 1)], theta=(), psi=(0, 0)
    )
    assert circuits(arr) == ()
    assert [b for b in box_elements(arr) if not b.is_trivial()] == []


def test_tp_circuits(tp1, tp12):
    (c1,) = circuits(tp1)
    assert (c1.positive, c1.negative, c1.weights) == ((0, 1), (), (1, 1))
    (c2,) = circuits(tp12)
    assert (c2.positive, c2.negative, c2.weights) == ((0, 1), (), (1, 2))
    assert c2.beta_S == (1, 2)
    assert c2.h2_class == (1,)


def test_boxes_tp12(tp12):
    boxes = box_elements(tp12)
    nontrivial = [b for b in boxes if not b.is_trivial()]
    assert len(nontrivial) == 1
    b = nontrivial[0]
    assert b.v_free == (-1,)
    assert b.sigma == (0,)
    assert b.alphas == ((0, Fraction(1, 2)),)
    assert b.age == 1


def test_boxes_tp1(tp1):
    assert [b for b in box_elements(tp1) if not b.is_trivial()] == []


def test_boxes_weighted_hirzebruch(hirzebruch_weighted):
    nontrivial = [b for b in box_elements(hirzebruch_weighted) if not b.is_trivial()]
    assert len(nontrivial) == 1
    b = nontrivial[0]
    assert b.sigma == (0, 3)
    assert b.v_free == (0, -1)
    assert dict(b.alphas) == {0: Fraction(1, 2), 3: Fraction(1, 2)}
    assert b.age == 2


def test_trivial_box_always_present(shipped):
    for arr in shipped.values():
        boxes = box_elements(arr)
        assert any(b.is_trivial() for b in boxes)
        for b in boxes:
            if b.is_trivial():
                assert b.age == 0


def test_box_inverse_involution(shipped, ladder, rank3_family):
    for arr in [*shipped.values(), *ladder.values(), *rank3_family]:
        for b in box_elements(arr):
            inv = box_inverse(b, arr)
            assert box_inverse(inv, arr) == b
            assert inv.age == b.age
            for (i, a), (j, ai) in zip(b.alphas, inv.alphas):
                assert i == j and a + ai == 1


def test_box_of_names_every_enumerated_box(shipped, ladder, rank3_family):
    """A box is named by its coordinates: its cone is the indices of its
    alphas and its point their sum."""
    for arr in [*shipped.values(), *ladder.values(), *rank3_family]:
        for b in box_elements(arr):
            assert box_of(arr, b.alphas, b.v_torsion) == b


def test_box_inverse_self_inverse_half(tp12):
    b = [x for x in box_elements(tp12) if not x.is_trivial()][0]
    assert box_inverse(b, tp12) == b


def test_box_fractional_reconstruction(shipped):
    for arr in shipped.values():
        for b in box_elements(arr):
            for r in range(arr.d):
                total = sum(Fraction(arr.b_bar(i)[r]) * a for i, a in b.alphas)
                assert total == b.v_free[r]


def z_plus_z2():
    """Rank 1 with torsion Z/2: one torsion-only box besides the trivial one."""
    return StackyArrangement.build(FgAbelianGroup(1, (2,)), [(-1, 0), (1, 1)], theta=(-2,), psi=(1, 0))


def test_torsion_boxes():
    arr = z_plus_z2()
    boxes = box_elements(arr)
    torsion_only = [b for b in boxes if not b.sigma and any(b.v_torsion)]
    assert len(torsion_only) == 1
    assert torsion_only[0].age == 0
    inv = box_inverse(torsion_only[0], arr)
    assert inv.v_torsion == (1,)  # order two, self inverse


def test_top_cone_counts(tp1, tp12, hirzebruch, hirzebruch_weighted):
    assert len(tp1.bases) == 2
    assert len(tp12.bases) == 2
    assert len(hirzebruch.bases) == 5
    assert len(hirzebruch_weighted.bases) == 5


def test_multifan_closed_under_faces(hirzebruch):
    cones = set(hirzebruch.cones)
    for cone in cones:
        for drop in cone:
            face = tuple(i for i in cone if i != drop)
            assert face in cones
    assert () in cones


# -- the box table against three oracles --------------------------------------


def smith_cone_boxes(arr, sigma):
    """Reference: the boxes supported exactly on the cone sigma, in integers.

    With U·B·V = D for the column matrix B of sigma and invariants
    d_1 | ... | d_k, the box points are V·(r_j / d_j) mod 1 for r_j < d_j.
    Over n = d_k, alpha_i = a_i / n with a_i = sum_j V[i, j] r_j (n / d_j)
    mod n, and a zero a_i means a proper face.
    """
    k = len(sigma)
    _, D, V = smith_normal_form(IntMatrix.from_rows(tuple(zip(*(arr.b_bar(i) for i in sigma)))))
    diag = [D[j, j] for j in range(k)]
    n = diag[-1]
    steps = [[V[i, j] * (n // diag[j]) for i in range(k)] for j in range(k)]
    torsion = list(itertools.product(*[range(q) for q in arr.group_N.torsion_invariants]))
    out = []
    for residues in itertools.product(*map(range, diag)):
        nums = [sum(r * step[i] for r, step in zip(residues, steps)) % n for i in range(k)]
        if 0 in nums:
            continue  # belongs to a proper face
        point = [sum(a * arr.b_bar(i)[r] for a, i in zip(nums, sigma)) for r in range(arr.d)]
        assert all(x % n == 0 for x in point)
        v_free = tuple(x // n for x in point)
        alphas = tuple(zip(sigma, (Fraction(a, n) for a in nums)))
        out.extend(BoxElement(v_free, tor, sigma, alphas) for tor in torsion)
    return out


def fraction_cone_boxes(arr, sigma):
    """Reference: the boxes of sigma enumerated in Fractions.  Each residue
    vector (r_j / d_j) of the Smith form U*B*V = D is pushed through V and
    reduced mod 1; a zero coordinate means a proper face."""
    cols = [arr.b_bar(i) for i in sigma]
    k = len(sigma)
    _, D, V = smith_normal_form(IntMatrix.from_rows(tuple(zip(*cols))))
    diag = [D[i, i] for i in range(k)]
    torsion = list(itertools.product(*[range(q) for q in arr.group_N.torsion_invariants]))
    out = []
    for residues in itertools.product(*[range(x) for x in diag]):
        y = [Fraction(r, d) for r, d in zip(residues, diag)]
        alpha = [sum(Fraction(V[i, j]) * y[j] for j in range(k)) % 1 for i in range(k)]
        if any(a == 0 for a in alpha):
            continue
        v_free = tuple(sum(cols[t][r] * alpha[t] for t in range(k)) for r in range(arr.d))
        assert all(x.denominator == 1 for x in v_free)
        for tor in torsion:
            out.append(BoxElement(tuple(int(x) for x in v_free), tor, tuple(sigma), tuple(zip(sigma, alpha))))
    return out


def reference_box_elements(arr, cone_boxes):
    """The box table with the boxes of each nonempty cone from ``cone_boxes``."""
    torsion = itertools.product(*[range(q) for q in arr.group_N.torsion_invariants])
    out = [BoxElement((0,) * arr.d, tor, (), ()) for tor in torsion]
    for sigma in arr.cones:
        if sigma:
            out.extend(cone_boxes(arr, sigma))
    out.sort(key=lambda b: b.sort_key())
    return tuple(out)


def _det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def lattice_index(cols, d):
    """gcd of the maximal minors of the d x k matrix with these columns:
    the index of their span in its saturation, 0 when they are dependent."""
    g = 0
    for rows in itertools.combinations(range(d), len(cols)):
        g = gcd(g, _det([[col[r] for col in cols] for r in rows]))
    return g


def inclusion_exclusion_counts(arr):
    """Boxes per cone: |torsion| times the lattice points interior to the
    half-open parallelotope of sigma, sum over faces tau of
    (-1)^(|sigma| - |tau|) * index(tau)."""
    torsion = prod(arr.group_N.torsion_invariants)
    index = {}
    out = {}
    for size in range(arr.d + 1):
        for sigma in itertools.combinations(range(arr.m), size):
            g = lattice_index([arr.b_bar(i) for i in sigma], arr.d)
            if g == 0:
                continue  # dependent: not a cone
            index[sigma] = g
            interior = sum(
                (-1) ** (size - k) * index[tau]
                for k in range(size + 1)
                for tau in itertools.combinations(sigma, k)
            )
            if interior:
                out[sigma] = interior * torsion
    return out


@pytest.fixture(scope="module")
def wide(shipped, ladder, rank3_family):
    """The shipped examples, every ladder rung and the seeded rank-3 family."""
    return [*shipped.values(), *ladder.values(), *rank3_family]


@pytest.fixture(scope="module")
def wide_and_torsion(wide):
    """``wide``, in which no arrangement has torsion, with the Z + Z/2 of
    ``test_torsion_boxes`` and a rank-1 document with torsion Z/3."""
    rank1_z3 = {"schema_version": "hypertoric-arrangement/1", "rank": 1, "torsion": [3],
                "beta": [[2, 0], [1, 1]], "theta": [3]}
    return [*wide, z_plus_z2(), StackyArrangement.from_data(rank1_z3)]


def test_box_elements_match_smith_enumeration(wide_and_torsion):
    """One subgroup walk per basis gives the table of one Smith form per
    cone, and reads each face from one basis only."""
    for arr in wide_and_torsion:
        got = box_elements(arr)
        assert len(set(got)) == len(got)
        assert got == reference_box_elements(arr, smith_cone_boxes)


def test_box_elements_match_fraction_enumeration(wide_and_torsion):
    for arr in wide_and_torsion:
        got = box_elements(arr)
        assert got == reference_box_elements(arr, fraction_cone_boxes)
        assert all(type(a) is Fraction for b in got for _, a in b.alphas)


def test_box_counts_by_inclusion_exclusion(wide_and_torsion):
    for arr in wide_and_torsion:
        assert Counter(b.sigma for b in box_elements(arr)) == inclusion_exclusion_counts(arr)


def test_box_elements_take_no_smith_form(shipped, ladder, monkeypatch):
    """The box table is read off the basis table: with the basis table
    built, enumerating it needs no Smith normal form."""

    def refuse(A):
        raise AssertionError("box_elements took a Smith normal form")

    for arr in (ladder["d3m9"], ladder["d4m6"], shipped["hirzebruch-weighted"]):
        expected = reference_box_elements(arr, smith_cone_boxes)
        arr.bases
        with monkeypatch.context() as patch:
            patch.setattr("hypertoric.exactalg.smith_normal_form", refuse)
            patch.setattr("hypertoric.multifan.smith_normal_form", refuse, raising=False)
            assert box_elements(arr) == expected


def test_box_elements_read_the_cached_cone_table(hirzebruch_weighted):
    """The basis table and its cones are built once per arrangement, and
    reading them from the cache leaves the boxes as a fresh arrangement
    enumerates them."""
    arr = hirzebruch_weighted
    assert arr.cones is arr.cones
    assert arr.bases is arr.bases
    assert box_elements(arr) == box_elements(fresh(arr))


# -- circuits against the minimal non-faces of the cones ----------------------


def minimal_non_face_circuits(arr):
    """Reference: every subset of size 2..d+1 that is not a cone while each
    of its facets is, with the kernel line of one fraction-free reduction
    of its columns, oriented by psi and projected onto the kernel basis."""
    curve_class = basis_projection(kernel_basis(arr.beta.free_part()))
    out = []
    for size in range(2, arr.d + 2):
        for subset in itertools.combinations(range(arr.m), size):
            facets = (subset[:k] + subset[k + 1 :] for k in range(size))
            if arr.is_cone(subset) or not all(map(arr.is_cone, facets)):
                continue
            cols = [arr.b_bar(i) for i in subset]
            pivots, reduced, last = row_reduce(list(zip(*cols)))
            assert len(pivots) == size - 1
            (free,) = set(range(size)) - set(pivots)
            w = [last] * size
            for k, row in zip(pivots, reduced):
                w[k] = -row[free]
            assert 0 not in w
            w = primitive_vector(w)
            pairing = sum(x * arr.psi[i] for i, x in zip(subset, w))
            assert pairing != 0
            signed = [x if pairing > 0 else -x for x in w]
            beta_s = [0] * arr.m
            for i, x in zip(subset, signed):
                beta_s[i] = x
            coords, scale = curve_class(beta_s)
            assert not any(x % scale for x in coords)
            out.append(
                Circuit(
                    support=subset,
                    positive=tuple(i for i, x in zip(subset, signed) if x > 0),
                    negative=tuple(i for i, x in zip(subset, signed) if x < 0),
                    weights=tuple(abs(x) for x in signed),
                    beta_S=tuple(beta_s),
                    h2_class=tuple(x // scale for x in coords),
                    lcm_w=lcm(*[abs(x) for x in signed]),
                    root_hyperplane=tuple(i for i in range(arr.m) if i not in subset),
                )
            )
    return tuple(out)


def test_circuits_match_minimal_non_face_enumeration(wide):
    """The fundamental circuits of the basis table are the minimal non-faces
    of the cones, with the same kernel vectors, signs, classes and order,
    on the shipped examples, every ladder rung and the rank-3 family."""
    total = 0
    for arr in wide:
        got = circuits(arr)
        assert got == minimal_non_face_circuits(arr)
        total += len(got)
    assert total > 500


def test_a_n_circuits_boxes_and_normal_kernel(a_n):
    """Every pair of the m points on a line is a circuit of weights (1, 1),
    the only box is the trivial one and the normals have an (m - 1)-row
    kernel (ROADMAP 14)."""
    for m, arr in a_n.items():
        found = circuits(arr)
        assert len(found) == m * (m - 1) // 2
        assert {c.weights for c in found} == {(1, 1)}
        (box,) = box_elements(arr)
        assert box.sigma == () and box.alphas == ()
        assert len(arr.normal_kernel) == m - 1
