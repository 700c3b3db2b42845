from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertoric.exactalg import (
    ExactAlgError,
    presentation_matrix,
    FgAbelianGroup,
    GroupHom,
    InfiniteCokernel,
    IntMatrix,
    NotInImage,
    TorsionColumn,
    basis_projection,
    gale_dual,
    hermite_row_basis,
    kernel_basis,
    rational_rank,
    smith_normal_form,
    solve_integer,
    solve_rational_system,
)
from sympy_bridge import det


def snf_contract(A: IntMatrix):
    U, D, V = smith_normal_form(A)
    assert U * A * V == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    diag = [D[i, i] for i in range(min(A.nrows, A.ncols))]
    for i in range(A.nrows):
        for j in range(A.ncols):
            if i != j:
                assert D[i, j] == 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert a >= 0 and b % a == 0
    return U, D, V


def test_snf_one_by_one():
    U, D, V = snf_contract(IntMatrix.from_rows([[2]]))
    assert D.entries == ((2,),)
    assert U.entries == ((1,),) and V.entries == ((1,),)


def test_snf_gcd_row():
    _, D, _ = snf_contract(IntMatrix.from_rows([[-2, 1]]))
    assert D.entries == ((1, 0),)


def test_snf_identity():
    _, D, _ = snf_contract(IntMatrix.identity(3))
    assert D.entries == IntMatrix.identity(3).entries


matrix_strategy = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(matrix_strategy)
@settings(max_examples=150, deadline=None)
def test_snf_property(rows):
    snf_contract(IntMatrix.from_rows(rows))


def test_kernel_examples():
    assert kernel_basis(IntMatrix.from_rows([[-1, 1]])) == ((1, 1),)
    assert kernel_basis(IntMatrix.from_rows([[-2, 1]])) == ((1, 2),)
    assert kernel_basis(IntMatrix.identity(2)) == ()


def test_kernel_is_canonical_under_row_order():
    a = kernel_basis(IntMatrix.from_rows([[1, 0, 0, -1], [0, -1, 1, -1]]))
    b = kernel_basis(IntMatrix.from_rows([[0, -1, 1, -1], [1, 0, 0, -1]]))
    assert a == b == ((1, 0, 1, 1), (0, 1, 1, 0))


@given(matrix_strategy)
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_annihilate(rows):
    A = IntMatrix.from_rows(rows)
    for k in kernel_basis(A):
        assert all(x == 0 for x in A.apply(k))


def test_hermite_reduces_above_pivot():
    basis = hermite_row_basis([(2, 4, 1), (0, 3, 0)])
    # pivots positive, entries above later pivots reduced into [0, pivot)
    assert basis == ((2, 1, 1), (0, 3, 0))


def test_gale_dual_weighted_line():
    beta = GroupHom(FgAbelianGroup(2), FgAbelianGroup(1), IntMatrix.from_rows([[-2, 1]]))
    dual = gale_dual(beta)
    assert dual.target == FgAbelianGroup(1)
    assert dual.matrix.entries == ((1, 2),)


def test_gale_dual_identity_is_zero_group():
    beta = GroupHom(FgAbelianGroup(2), FgAbelianGroup(2), IntMatrix.identity(2))
    dual = gale_dual(beta)
    assert dual.target == FgAbelianGroup(0)
    assert dual.matrix.shape == (0, 2)


def test_gale_dual_exactness():
    cols = [(1, 0), (0, -1), (0, 1), (-1, -1)]
    beta = GroupHom(
        FgAbelianGroup(4), FgAbelianGroup(2), IntMatrix.from_rows(tuple(zip(*cols)))
    )
    dual = gale_dual(beta)
    assert dual.target.rank == 4 - 2
    # the dual map annihilates the image of the dual of the original map
    for row in beta.free_part().entries:
        assert all(x == 0 for x in dual.matrix.apply(row))
    # the composite with the kernel inclusion recovers the free coordinates,
    # so the kernel maps onto the dual free part (sequence exactness)
    ker = kernel_basis(beta.free_part())
    for t, k in enumerate(ker):
        img = dual.matrix.apply(k)[: dual.target.rank]
        assert any(x != 0 for x in img)


def test_double_gale_rank():
    cols = [(1, 0), (0, -1), (0, 1), (-1, -1)]
    beta = GroupHom(
        FgAbelianGroup(4), FgAbelianGroup(2), IntMatrix.from_rows(tuple(zip(*cols)))
    )
    double = gale_dual(gale_dual(beta))
    assert double.source.rank == beta.source.rank
    assert double.target.rank == beta.target.rank


def test_gale_dual_torsion_cokernel():
    beta = GroupHom(FgAbelianGroup(1), FgAbelianGroup(1), IntMatrix.from_rows([[2]]))
    dual = gale_dual(beta)
    assert dual.target == FgAbelianGroup(0, (2,))
    assert dual.matrix.entries == ((1,),)


def test_gale_dual_kernel_from_one_smith_form():
    """With U pres^T V = D of rank r, the Hermite form of rows r.. of U is
    kernel_basis(pres), which takes a second Smith form; and gale_dual,
    which reads the first, presents its free part on that basis.  Seeded
    presentations of ranks 1-4, m <= d + 5, with and without torsion."""
    rng = random.Random(2956)
    dualized = 0
    for _ in range(400):
        d = rng.randint(1, 4)
        m = rng.randint(d, d + 5)
        group = FgAbelianGroup(d, rng.choice([(), (2,), (3,), (2, 4), (6,)]))
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(group.generator_count)]
        beta = GroupHom(FgAbelianGroup(m), group, IntMatrix.from_rows(rows))
        pres = presentation_matrix(group, beta.matrix)
        u, diagonal, _ = smith_normal_form(pres.transpose())
        r = sum(1 for i in range(min(diagonal.shape)) if diagonal[i, i])
        kernel = kernel_basis(pres)
        assert hermite_row_basis([u.row(i) for i in range(r, u.nrows)]) == kernel
        try:
            dual = gale_dual(beta)
        except ExactAlgError:
            continue
        assert dual.matrix.entries[: dual.target.rank] == tuple(row[:m] for row in kernel)
        dualized += 1
    assert dualized >= 100


def test_gale_dual_errors():
    """An infinite cokernel is read off the Smith form, with or without
    torsion in the target; a torsion column is reported first."""
    infinite = "rank of the map is smaller than the rank of the target"
    with pytest.raises(InfiniteCokernel, match=infinite):
        gale_dual(
            GroupHom(FgAbelianGroup(1), FgAbelianGroup(2), IntMatrix.from_rows([[1], [0]]))
        )
    with pytest.raises(InfiniteCokernel, match=infinite):
        gale_dual(
            GroupHom(
                FgAbelianGroup(3),
                FgAbelianGroup(2, (2,)),
                IntMatrix.from_rows([[1, 2, 3], [0, 0, 0], [0, 1, 0]]),
            )
        )
    with pytest.raises(TorsionColumn):
        gale_dual(
            GroupHom(
                FgAbelianGroup(1),
                FgAbelianGroup(1, (2,)),
                IntMatrix.from_rows([[0], [1]]),
            )
        )
    with pytest.raises(TorsionColumn, match="column 2 is torsion"):
        gale_dual(
            GroupHom(
                FgAbelianGroup(2),
                FgAbelianGroup(2, (2,)),
                IntMatrix.from_rows([[1, 0], [0, 0], [0, 1]]),
            )
        )


def test_solve_integer():
    assert solve_integer(IntMatrix.from_rows([[1, 1]]), [-1]) == (-1, 0)
    assert solve_integer(IntMatrix.from_rows([[1, 2]]), [-1]) == (-1, 0)
    with pytest.raises(NotInImage):
        solve_integer(IntMatrix.from_rows([[2]]), [1])


def test_solve_rational_system_shapes():
    assert solve_rational_system([[1, 1], [2, 2]], [3, 6]) == (3, 0)
    assert solve_rational_system([[1, 1], [2, 2]], [3, 5]) is None
    assert solve_rational_system([[1, 2, 3]], [6]) == (6, 0, 0)


def test_snf_random_batch_deterministic():
    rng = random.Random(7)
    seen = []
    for _ in range(50):
        rows = [
            [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 4))
        ]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        A = IntMatrix.from_rows(rows)
        U, D, V = smith_normal_form(A)
        U2, D2, V2 = smith_normal_form(A)
        assert (U.entries, D.entries, V.entries) == (U2.entries, D2.entries, V2.entries)
        seen.append(D.entries)
    assert seen  # exercised


def _sympy_fraction(x):
    return Fraction(int(x.p), int(x.q))


def _draw_matrix(rng, nrows, ncols):
    def entry():
        if rng.random() < 0.4:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.randint(-3, 3)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.4:
        # rank-deficient: the last row is a combination of the others
        # (the zero row when there are none)
        coeffs = [rng.randint(-2, 2) for _ in rows[:-1]]
        rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), 0) for j in range(ncols)]
    return rows


def test_rational_kernel_matches_sympy():
    """rank and solve against sympy's own elimination, on seeded
    int/Fraction matrices with entries in [-3, 3].  The inverse of the
    basis tests' reference table is checked in ``test_bases.py``."""
    import sympy

    rng = random.Random(20151)
    counts = {"deficient": 0, "inconsistent": 0, "singular": 0}
    for _ in range(500):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        rows = _draw_matrix(rng, nrows, ncols)
        A = sympy.Matrix(nrows, ncols, [x for row in rows for x in row])
        rank = A.rank()
        assert rational_rank(rows) == rank
        counts["deficient"] += rank < min(nrows, ncols)

        # general systems, consistent (b = A x) or drawn at random
        if rng.random() < 0.5:
            x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            rhs = [sum((a * c for a, c in zip(row, x)), Fraction(0)) for row in rows]
        else:
            rhs = [rng.randint(-3, 3) for _ in range(nrows)]
        got = solve_rational_system(rows, rhs)
        if nrows == 0:
            assert got == ()
        else:
            b = sympy.Matrix(nrows, 1, rhs)
            inconsistent = A.row_join(b).rank() > rank
            counts["inconsistent"] += inconsistent
            if inconsistent:
                assert got is None
            else:
                sol, params = A.gauss_jordan_solve(b)
                sol = sol.subs({p: 0 for p in params})
                assert got == tuple(_sympy_fraction(v) for v in sol)

        # the leading square block
        k = min(nrows, ncols)
        square = [row[:k] for row in rows[:k]]
        rhs_k = rhs[:k]
        if k:
            S = A[:k, :k]
            if S.det() == 0:
                counts["singular"] += 1
            else:
                want = S.LUsolve(sympy.Matrix(k, 1, rhs_k))
                assert solve_rational_system(square, rhs_k) == tuple(_sympy_fraction(v) for v in want)
    assert all(n >= 20 for n in counts.values()), counts


def test_basis_projection_matches_rational_coordinates():
    """The coordinate map set up once per basis agrees with sympy's solve
    per vector: None outside the span, else d c and d with c the rational
    coordinates; a dependent basis is refused.  A span vector with one
    entry off sympy's pivot columns changed is outside the span, and is
    refused although only those columns are checked."""
    import sympy

    rng = random.Random(11)
    counts = {"dependent": 0, "outside": 0, "integral": 0, "non_integral": 0, "off_pivot": 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        ncols = rng.randint(n, 6)
        basis = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(n)]
        if rng.random() < 0.2:
            coeffs = [rng.randint(-2, 2) for _ in basis[:-1]]
            basis[-1] = [sum(c * r[j] for c, r in zip(coeffs, basis)) for j in range(ncols)]
        B = sympy.Matrix(basis)
        if B.rank() < n:
            with pytest.raises(ExactAlgError):
                basis_projection(basis)
            counts["dependent"] += 1
            continue
        project = basis_projection(basis)
        off_pivot = [j for j in range(ncols) if j not in B.rref()[1]]
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in basis]
            vec = [sum((c * r[j] for c, r in zip(coeffs, basis)), Fraction(0)) for j in range(ncols)]
            if any(x.denominator != 1 for x in vec):
                vec = [2 * x for x in vec] if rng.random() < 0.5 else vec
            if any(x.denominator != 1 for x in vec):
                continue
            vec = [int(x) for x in vec]
            for j in off_pivot:
                assert project([x + (i == j) for i, x in enumerate(vec)]) is None
                counts["off_pivot"] += 1
            if rng.random() < 0.3:
                vec[rng.randrange(ncols)] += 1
            got = project(vec)
            if B.col_join(sympy.Matrix([vec])).rank() > n:
                assert got is None
                counts["outside"] += 1
                continue
            want = B.T.gauss_jordan_solve(sympy.Matrix(vec))[0]
            coords, d = got
            assert all(type(x) is int for x in coords) and d != 0
            assert tuple(Fraction(x, d) for x in coords) == tuple(_sympy_fraction(v) for v in want)
            integral = all(x % d == 0 for x in coords)
            counts["integral" if integral else "non_integral"] += 1
    assert all(k >= 20 for k in counts.values()), counts
