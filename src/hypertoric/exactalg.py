"""Exact linear algebra: Smith/Hermite forms, kernels, Gale duality, and
one rational elimination kernel.

All matrices carry Python ints, so there is no overflow anywhere.  The
algorithms are deterministic: pivot selection is by smallest absolute
value with row-major tie-breaking, and kernel bases are canonicalized by
row Hermite normal form, so every downstream basis choice is stable
across runs and platforms.

Lattice problems (Smith and Hermite forms, integer kernels and
solutions) work on integer matrices.  Over the rationals each question
a command asks has one routine, and each is a thin wrapper around
``row_reduce``, the one fraction-free Gauss-Jordan kernel:
``rational_rank`` for a rank and ``basis_projection`` for coordinates in
a basis.  The arrangement's basis table reads its first inverse and
tableau off one ``row_reduce`` of [normals | I].

``Record`` is the base of the package's value records, these matrices and
groups among them.  Each record is checked once, where it is made:
``IntMatrix(entries, shape)`` checks its shape, ``IntMatrix.from_rows``
makes each entry an int and checks each row's width, and the Smith factors
U, D and V of a checked matrix take their shapes by construction, unchecked
again.  ``GroupHom`` checks its matrix against the generators of source
and target and reduces its torsion rows, one row at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter


class ExactAlgError(ValueError):
    pass


class InfiniteCokernel(ExactAlgError):
    """The map has rank smaller than the rank of its target."""


class TorsionColumn(ExactAlgError):
    """A defining vector is torsion, which the Gale dual construction forbids."""


class NotInImage(ExactAlgError):
    """No integral solution exists."""


class Record:
    """A value record whose fields are its ``__slots__``.

    A subclass that defines no ``__init__`` gets one taking the fields in
    slot order, by position or by name, compiled once per class.  A record
    equals another record of exactly its class with equal fields, and
    hashes as the tuple of its fields, so a record holding a dict is
    unhashable.  A subclass that declares no ``__slots__`` keeps its
    parent's fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "__slots__" not in cls.__dict__:
            return
        fields = cls.__slots__
        cls._values = attrgetter(*fields)
        if "__init__" not in cls.__dict__:
            namespace = {}
            body = "".join(f"\n    self.{f} = {f}" for f in fields)
            exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))


class IntMatrix(Record):
    """Immutable integer matrix; dimensions are explicit so that zero-row
    and zero-column matrices keep their shape."""

    __slots__ = ("entries", "shape")

    def __init__(self, entries: tuple[tuple[int, ...], ...], shape: tuple[int, int] | None = None):
        if shape is None:
            shape = (len(entries), len(entries[0]) if entries else 0)
        nrows, ncols = shape
        if len(entries) != nrows or any(len(r) != ncols for r in entries):
            raise ExactAlgError("entries do not match declared shape")
        self.entries = entries
        self.shape = shape

    @staticmethod
    def _of(entries, shape) -> "IntMatrix":
        """The matrix of int rows whose shape its caller has already
        checked (``from_rows``) or built from a checked matrix (its Smith
        factors, its torsion rows reduced), so it is not checked again."""
        matrix = object.__new__(IntMatrix)
        matrix.entries = entries
        matrix.shape = shape
        return matrix

    @staticmethod
    def from_rows(rows, ncols: int | None = None) -> "IntMatrix":
        """The matrix of ``rows``, each entry made an int and each row's
        width checked once; ``ncols`` sets the width of a matrix with no
        rows."""
        rows = tuple([tuple([int(x) for x in row]) for row in rows])
        width = len(rows[0]) if rows else ncols or 0
        for row in rows:
            if len(row) != width:
                raise ExactAlgError("ragged matrix")
        return IntMatrix._of(rows, (len(rows), width))

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        """The transpose; a matrix with no rows gives ``ncols`` empty rows."""
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ((),) * self.ncols,
                         (self.ncols, self.nrows))

    def apply(self, vec) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.ncols:
            raise ExactAlgError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)


class FgAbelianGroup(Record):
    """Z^rank plus cyclic factors Z/d_1 x ... with d_1 | d_2 | ... and d_i >= 2."""

    __slots__ = ("rank", "torsion_invariants")

    def __init__(self, rank: int, torsion_invariants: tuple[int, ...] = ()):
        if rank < 0:
            raise ExactAlgError("negative rank")
        invs = tuple(int(d) for d in torsion_invariants)
        for d in invs:
            if d < 2:
                raise ExactAlgError("torsion invariants must be >= 2")
        for a, b in zip(invs, invs[1:]):
            if b % a != 0:
                raise ExactAlgError("torsion invariants must form a divisibility chain")
        self.rank = rank
        self.torsion_invariants = invs

    @property
    def generator_count(self) -> int:
        return self.rank + len(self.torsion_invariants)

    def reduce_vector(self, vec) -> tuple[int, ...]:
        """Reduce the torsion coordinates of ``vec`` modulo the invariant orders."""
        vec = tuple(int(x) for x in vec)
        if len(vec) != self.generator_count:
            raise ExactAlgError("vector length does not match generator count")
        free = vec[: self.rank]
        tor = tuple(x % d for x, d in zip(vec[self.rank:], self.torsion_invariants))
        return free + tor


class GroupHom:
    """Homomorphism between presented groups, as a matrix in generator bases.

    Columns are images of the source generators.  The matrix, already
    checked as an ``IntMatrix``, is checked against the generators of
    source and target, and each torsion row of the target is stored
    reduced modulo its invariant order, into [0, q).
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbelianGroup, target: FgAbelianGroup, matrix: IntMatrix):
        if matrix.nrows != target.generator_count:
            raise ExactAlgError("matrix rows must match target generators")
        if source.torsion_invariants:
            raise ExactAlgError("only free sources are supported")
        if matrix.ncols != source.rank:
            raise ExactAlgError("matrix cols must match source generators")
        if target.torsion_invariants:
            rows = matrix.entries
            rank = target.rank
            reduced = [tuple([x % q for x in row]) for row, q in zip(rows[rank:], target.torsion_invariants)]
            matrix = IntMatrix._of(rows[:rank] + tuple(reduced), matrix.shape)
        self.source = source
        self.target = target
        self.matrix = matrix

    def column(self, j: int) -> tuple[int, ...]:
        return self.matrix.col(j)

    def free_part(self) -> IntMatrix:
        """The induced matrix between the free parts of source and target."""
        return IntMatrix(self.matrix.entries[: self.target.rank])


# ---------------------------------------------------------------------------
# Smith and Hermite normal forms


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal.

    The diagonal is nonnegative and forms a divisibility chain
    d_1 | d_2 | ... .  Clearing is done with extended-gcd block
    transforms (one unimodular 2x2 step per entry) and smallest-pivot
    selection, which keeps intermediate entries manageable; the
    procedure is deterministic for a given input.  U and V start as
    plain identity lists, every step is integer, and the three results
    take the shapes n x n, n x m and m x m of the checked input A
    without being checked again.
    """
    n, m = A.nrows, A.ncols
    a = [list(row) for row in A.entries]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def pivot(k):
        best = None
        for i in range(k, n):
            for j in range(k, m):
                if a[i][j] != 0 and (
                    best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])
                ):
                    best = (i, j)
        return best

    def block(p, q):
        """Unimodular (x, y; s, t) sending (p, q) to (gcd, 0).

        When p already divides q the block is a plain shear, so settled
        entries are never remixed (this is what makes the sweep
        terminate)."""
        if p != 0 and q % p == 0:
            return 1, 0, -(q // p), 1
        g, x, y = _xgcd(p, q)
        return x, y, -(q // g), p // g

    def row_gcd_step(k, i):
        """Combine rows k and i so that a[i][k] becomes 0."""
        x, y, s, t = block(a[k][k], a[i][k])
        for col in range(m):
            rk, ri = a[k][col], a[i][col]
            a[k][col] = x * rk + y * ri
            a[i][col] = s * rk + t * ri
        for col in range(n):
            rk, ri = u[k][col], u[i][col]
            u[k][col] = x * rk + y * ri
            u[i][col] = s * rk + t * ri

    def col_gcd_step(k, j):
        """Combine columns k and j so that a[k][j] becomes 0."""
        x, y, s, t = block(a[k][k], a[k][j])
        for row in range(n):
            ck, cj = a[row][k], a[row][j]
            a[row][k] = x * ck + y * cj
            a[row][j] = s * ck + t * cj
        for row in range(m):
            ck, cj = v[row][k], v[row][j]
            v[row][k] = x * ck + y * cj
            v[row][j] = s * ck + t * cj

    k = 0
    while k < min(n, m):
        p = pivot(k)
        if p is None:
            break
        i, j = p
        if i != k:
            _swap_rows(a, i, k)
            _swap_rows(u, i, k)
        if j != k:
            _swap_cols(a, j, k)
            _swap_cols(v, j, k)
        while True:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    row_gcd_step(k, i)
            for j in range(k + 1, m):
                if a[k][j] != 0:
                    col_gcd_step(k, j)
            if all(a[i][k] == 0 for i in range(k + 1, n)) and all(
                a[k][j] == 0 for j in range(k + 1, m)
            ):
                break
        # Enforce divisibility: fold in a row holding a non-divisible entry
        # and redo this step (the pivot strictly shrinks on each redo).
        bad = None
        for i in range(k + 1, n):
            for j in range(k + 1, m):
                if a[i][j] % a[k][k] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for t in range(m):
                a[k][t] += a[bad][t]
            for t in range(n):
                u[k][t] += u[bad][t]
            continue
        if a[k][k] < 0:
            for t in range(m):
                a[k][t] = -a[k][t]
            for t in range(n):
                u[k][t] = -u[k][t]
        k += 1

    return (
        IntMatrix._of(tuple(map(tuple, u)), (n, n)),
        IntMatrix._of(tuple(map(tuple, a)), (n, m)),
        IntMatrix._of(tuple(map(tuple, v)), (m, m)),
    )


def hermite_row_basis(rows) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of the lattice spanned by ``rows``.

    Returns a basis with positive pivots, entries above each pivot
    reduced into [0, pivot), and zero rows dropped.  This canonical form
    is what makes kernel bases reproducible.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    ncols = len(work[0])
    basis = []
    col = 0
    while work and col < ncols:
        pivots = [r for r in work if r[col] != 0]
        if not pivots:
            col += 1
            continue
        # Euclidean reduction within this column.
        while True:
            pivots.sort(key=lambda r: abs(r[col]))
            p = pivots[0]
            done = True
            for r in pivots[1:]:
                q = r[col] // p[col]
                for t in range(ncols):
                    r[t] -= q * p[t]
                if r[col] != 0:
                    done = False
            pivots = [r for r in pivots if r[col] != 0]
            if done or len(pivots) <= 1:
                break
        p = pivots[0]
        if p[col] < 0:
            for t in range(ncols):
                p[t] = -p[t]
        basis.append(p)
        work = [r for r in work if r is not p and any(r)]
        for r in work:
            if r[col] != 0:
                q = r[col] // p[col]
                for t in range(ncols):
                    r[t] -= q * p[t]
        work = [r for r in work if any(r)]
        col += 1
    # Reduce entries above pivots.
    pivot_cols = []
    for r in basis:
        for j, x in enumerate(r):
            if x != 0:
                pivot_cols.append(j)
                break
    for i in range(len(basis)):
        for k in range(i + 1, len(basis)):
            j = pivot_cols[k]
            q = basis[i][j] // basis[k][j]
            if q:
                for t in range(len(basis[i])):
                    basis[i][t] -= q * basis[k][t]
    return tuple(tuple(r) for r in basis)


def kernel_basis(A: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """A canonical free basis of the integer kernel {x : A.x = 0}.

    Computed from the Smith normal form and then put in row Hermite
    normal form, so the result does not depend on pivoting internals.
    """
    _, d, v = smith_normal_form(A)
    r = sum(1 for i in range(min(d.nrows, d.ncols)) if d[i, i] != 0)
    cols = [v.col(j) for j in range(r, A.ncols)]
    return hermite_row_basis(cols)


def solve_integer(A: IntMatrix, b) -> tuple[int, ...]:
    """One deterministic integer solution of A.x = b, else NotInImage.

    The particular solution is the Smith normal form back-substitution
    with all free coordinates set to zero.
    """
    u, d, v = smith_normal_form(A)
    c = u.apply(tuple(int(x) for x in b))
    y = [0] * A.ncols
    for i in range(A.nrows):
        di = d[i, i] if i < min(d.nrows, d.ncols) else 0
        if i < A.ncols and di != 0:
            if c[i] % di != 0:
                raise NotInImage("no integral solution")
            y[i] = c[i] // di
        elif c[i] != 0:
            raise NotInImage("no integral solution")
    return v.apply(y)


def row_reduce(rows, right=()):
    """Fraction-free (Bareiss) Gauss-Jordan reduction of [rows | right].

    Entries may be ints or Fractions; ``right`` holds one sequence per row
    (none by default).  Pivots are searched left to right, only in the
    columns of ``rows``, and a column with no pivot is skipped.  Each row is
    first scaled to integers, and every update divides exactly by the
    previous pivot.  Returns ``(pivots, reduced, d)``: the pivot columns,
    the reduced integer rows and the last pivot ``d``.  Row i < len(pivots)
    holds ``d`` in column pivots[i] and 0 in the other pivot columns; the
    later rows are zero in the columns of ``rows``.  So the rank is
    len(pivots), and a reduced entry divided by ``d`` is the entry of the
    reduced row echelon form.
    """
    ncols = len(rows[0]) if rows else 0
    m = [_integer_row([*row, *extra]) for row, extra in zip(rows, right or [()] * len(rows))]
    pivots = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        for i in range(len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], m[r])]
        prev = p
        pivots.append(col)
    return pivots, m, prev


def _integer_row(row):
    """The row times a positive integer that clears its denominators."""
    if all(isinstance(x, int) for x in row):
        return row
    scale = lcm(*(Fraction(x).denominator for x in row))
    return [int(x * scale) for x in row]


def rational_rank(rows) -> int:
    """Rank of a matrix with int/Fraction entries."""
    return len(row_reduce(rows)[0])


def primitive_vector(vec) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    if g == 0:
        return tuple(int(x) for x in vec)
    return tuple(int(x) // g for x in vec)


# ---------------------------------------------------------------------------
# Gale duality


def presentation_matrix(group: FgAbelianGroup, hom_matrix: IntMatrix) -> IntMatrix:
    """Stack [B | Q]: a free presentation of the hom composed with the
    relations of a target with torsion."""
    d, invs = group.rank, group.torsion_invariants
    r = len(invs)
    rows = []
    for i in range(d + r):
        row = list(hom_matrix.row(i))
        for j in range(r):
            row.append(invs[j] if i == d + j else 0)
        rows.append(row)
    return IntMatrix.from_rows(rows)


def gale_dual(beta: GroupHom) -> GroupHom:
    """The Gale dual map from the source of ``beta`` onto its dual group.

    Requires nontorsion columns (checked first) and a finite cokernel,
    read off the one Smith form that gives the dual.  The free part of
    the dual group is presented on the canonical Hermite kernel basis of
    the presentation matrix, so dual coordinates are reproducible.
    """
    m = beta.source.rank
    free = beta.matrix.entries[: beta.target.rank]
    for j, col in enumerate(zip(*free) if free else [()] * m):
        if not any(col):
            raise TorsionColumn(f"column {j + 1} is torsion")
    pres = presentation_matrix(beta.target, beta.matrix)
    # The cokernel of the presentation, from one Smith form U pres^T V = D
    # of rank r: rows r.. of U span ker(pres), and their Hermite form is
    # the canonical kernel basis that projects the free part; the torsion
    # is read off the invariants of D that are at least 2.  The torsion block
    # of pres is diagonal and nonzero, so r counts every target generator
    # exactly when the cokernel is finite.
    u, d, _ = smith_normal_form(pres.transpose())
    diagonal = [d[i, i] for i in range(min(d.nrows, d.ncols))]
    r = sum(1 for x in diagonal if x)
    if r < beta.target.generator_count:
        raise InfiniteCokernel("rank of the map is smaller than the rank of the target")
    free_rows = hermite_row_basis(u.row(i) for i in range(r, u.nrows))
    torsion = [(u.row(i), x) for i, x in enumerate(diagonal) if x >= 2]
    dg = FgAbelianGroup(len(free_rows), tuple(o for _, o in torsion))
    # one row per dual generator, its first m coordinates; GroupHom
    # reduces the torsion rows modulo their orders
    rows = [row[:m] for row in free_rows] + [row[:m] for row, _ in torsion]
    return GroupHom(FgAbelianGroup(m), dg, IntMatrix.from_rows(rows, ncols=m))


def basis_projection(basis_rows):
    """The coordinate map of a basis B of independent integer rows, set up
    once by one reduction of [B | I].  With P the pivot columns and d the
    last pivot, the right block M has M B_P = d I, so an integer vector
    v = c B has d c = v_P M.  Returns ``project(vec)``: the integer vector
    d c and d, or None when ``vec`` is outside the span of B.  As
    (v_P M) B_P = d v_P for every v, only the columns outside P can show
    that v is outside the span, and only they are checked."""
    if not basis_rows:
        return lambda vec: None if any(vec) else ([], 1)
    n = len(basis_rows)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    pivots, reduced, d = row_reduce(basis_rows, identity)
    if len(pivots) != n:
        raise ExactAlgError("basis rows are dependent")
    columns = tuple(zip(*(row[-n:] for row in reduced)))
    rest = [j for j in range(len(basis_rows[0])) if j not in pivots]

    def project(vec):
        coords = [sum(a * vec[p] for a, p in zip(col, pivots)) for col in columns]
        if any(sum(c * b[j] for c, b in zip(coords, basis_rows)) != d * vec[j] for j in rest):
            return None
        return coords, d

    return project
