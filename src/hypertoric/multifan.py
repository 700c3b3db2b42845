"""Matroid circuits and box elements of an arrangement.

Both read the arrangement's basis table.  Circuits (the minimal non-faces
of its cones) are read off it as fundamental circuits, one per basis and
element outside it, with their canonical two-sided splitting, positive
weights and curve class.  Box elements index the twisted sectors; they
are read off it as one subgroup walk per basis, in integers over the
basis's denominator, with no Smith form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from hypertoric.arrangement import InvariantError, StackyArrangement
from hypertoric.exactalg import Record, basis_projection, primitive_vector


class Circuit(Record):
    """A minimal dependent subset with its canonical oriented data.

    ``weights`` is parallel to ``support``, all > 0; ``beta_S`` lies in
    Z^m; ``h2_class`` is in the canonical kernel basis; ``root_hyperplane``
    is the complementary index set.
    """

    __slots__ = (
        "support", "positive", "negative", "weights", "beta_S", "h2_class", "lcm_w",
        "root_hyperplane",
    )

    def sign_of(self, i: int) -> int:
        if i in self.positive:
            return 1
        if i in self.negative:
            return -1
        return 0


def circuits(arr: StackyArrangement) -> tuple[Circuit, ...]:
    """All circuits, oriented by the halfspace emptiness test.

    Every circuit C is the fundamental circuit of some basis: C minus one
    of its elements c is independent and extends to a basis B that
    excludes c.  So each basis B, with (A, s) from the basis table, and
    each j outside B give one: with x_k = sum_r b_j[r] A[r][k],
    s b_j = sum_k x_k b_{B_k}, and the support is j with the B_k where
    x_k is not zero.  The weight vector w is the primitive vector with x
    on B and -s at j; a support met again from another basis spans the
    same kernel line, so the first vector found is kept.  Of its two
    signings exactly one makes the mixed halfspace intersection empty
    (side 'G' of the positive hyperplanes, side 'F' of the negative
    ones), and that signing is the canonical split.  Since
    sum w_i b_i = 0, sum w_i (<b_i, v> + psi_i) = sum w_i psi_i at every
    v, while each term is <= 0 on the mixed intersection; so the empty
    signing is the one that pairs positively with psi.  A zero pairing
    puts theta on a wall, which genericity rules out.  The curve class is
    the signed vector's integer coordinates in ``arr.normal_kernel``, read
    through one projection of that basis.
    """
    curve_class = basis_projection(arr.normal_kernel)
    normals = [arr.b_bar(i) for i in range(arr.m)]
    kernels = {}
    for basis, (inverse, scale) in arr.bases.items():
        columns = tuple(zip(*inverse))
        for j in range(arr.m):
            if j in basis:
                continue
            coeffs = dict(zip(basis, (sum(a * b for a, b in zip(normals[j], col)) for col in columns)))
            coeffs[j] = -scale
            support = tuple(sorted(i for i, x in coeffs.items() if x))
            if support not in kernels:
                kernels[support] = primitive_vector([coeffs[i] for i in support])
    out = []
    for support in sorted(kernels, key=lambda s: (len(s), s)):
        w = kernels[support]
        if any(sum(x * normals[i][r] for i, x in zip(support, w)) for r in range(arr.d)):
            raise InvariantError(f"circuit {support} is not a dependency of its normals")
        pairing = sum(x * arr.psi[i] for i, x in zip(support, w))
        if pairing == 0:
            raise InvariantError(f"circuit {support} pairs to zero with psi: theta is on a wall")
        signed = [x if pairing > 0 else -x for x in w]
        pos = tuple(i for i, x in zip(support, signed) if x > 0)
        neg = tuple(i for i, x in zip(support, signed) if x < 0)
        beta_s = [0] * arr.m
        for i, x in zip(support, signed):
            beta_s[i] = x
        projected = curve_class(beta_s)
        if projected is None or any(x % projected[1] for x in projected[0]):
            raise InvariantError("curve class is not in the kernel lattice")
        h2 = tuple(x // projected[1] for x in projected[0])
        out.append(
            Circuit(
                support=support,
                positive=pos,
                negative=neg,
                weights=tuple(abs(x) for x in signed),
                beta_S=tuple(beta_s),
                h2_class=h2,
                lcm_w=lcm(*[abs(x) for x in signed]),
                root_hyperplane=tuple(i for i in range(arr.m) if i not in support),
            )
        )
    return tuple(out)


class BoxElement(Record):
    """A pair (v, sigma): sigma a cone, v with fractional coordinates in (0,1).

    ``v_free`` is the image of v in the free quotient, ``v_torsion`` the
    torsion coordinates, and ``alphas`` holds (hyperplane index, alpha)
    pairs.  The age equals the number of rays of sigma.  A Chen-Ruan class
    keys its components by box.
    """

    __slots__ = ("v_free", "v_torsion", "sigma", "alphas")

    @property
    def age(self) -> int:
        return len(self.sigma)

    def is_trivial(self) -> bool:
        return not self.sigma and all(x == 0 for x in self.v_torsion)

    def alpha_of(self, i: int) -> Fraction:
        return dict(self.alphas).get(i, Fraction(0))

    def sort_key(self):
        return (len(self.sigma), self.sigma, self.v_free, self.v_torsion)

    def label(self) -> str:
        if self.is_trivial():
            return "1"
        alphas = ",".join(f"{a}" for _, a in self.alphas)
        if not self.sigma:
            tor = ",".join(str(t) for t in self.v_torsion)
            return f"1_[tors {tor}]"
        return f"1_[{alphas}; cone {list(self.sigma)}]"


def _torsion_elements(group):
    return list(itertools.product(*map(range, group.torsion_invariants)))


def _box_vector(arr: StackyArrangement, indices, numerators, n: int) -> tuple[int, ...]:
    """The point sum_t (numerators[t] / n) * b̄_{indices[t]}, which is integral
    for every box (basis walk, inverse or closing box): else a program fault."""
    cols = [arr.b_bar(i) for i in indices]
    out = [divmod(sum(a * col[r] for a, col in zip(numerators, cols)), n) for r in range(arr.d)]
    if any(rem for _, rem in out):
        raise InvariantError("non-integral box candidate")
    return tuple(q for q, _ in out)


def _subgroup(rows, s: int) -> list[tuple[int, ...]]:
    """The subgroup of (Z/s)^d spanned by ``rows`` mod s, one coset of the
    span so far per multiple of each new row until a coset repeats."""
    members = [(0,) * len(rows)]
    seen = set(members)
    for row in rows:
        coset = members
        while True:
            coset = [tuple((x + y) % s for x, y in zip(e, row)) for e in coset]
            if coset[0] in seen:
                break
            members.extend(coset)
            seen.update(coset)
    return members


def box_elements(arr: StackyArrangement) -> tuple[BoxElement, ...]:
    """All box elements, the trivial one included, deterministically sorted.

    They are read off the basis table.  For a basis B with (A, s), s times
    the coordinates in B of the lattice points, mod s, form the subgroup of
    (Z/s)^d spanned by the rows of A, of order s = |det B|.  Its element
    with support sigma is the box point of the face sigma with
    alpha_i = a_i / s.  Every basis that contains a face meets the same box
    points of it, so they are kept from the first basis in the table whose
    walk meets the face, and each box comes once.  The boxes of a face share
    one cone tuple, and its torsion copies share its point and Fractions.
    """
    torsion = _torsion_elements(arr.group_N)
    out = [BoxElement((0,) * arr.d, tor, (), ()) for tor in torsion]
    owners = {}  # face -> (first basis that meets it, the face's one tuple)
    for basis, (inverse, scale) in arr.bases.items():
        if scale == 1:
            continue
        for nums in _subgroup(inverse, scale):
            support = tuple(i for i, a in zip(basis, nums) if a)
            if not support:
                continue
            owner, sigma = owners.setdefault(support, (basis, support))
            if owner != basis:
                continue
            nums = [a for a in nums if a]
            v_free = _box_vector(arr, sigma, nums, scale)
            alphas = tuple(zip(sigma, (Fraction(a, scale) for a in nums)))
            out.extend(BoxElement(v_free, tor, sigma, alphas) for tor in torsion)
    out.sort(key=lambda b: b.sort_key())
    return tuple(out)


def box_of(arr: StackyArrangement, alphas, v_torsion) -> BoxElement:
    """The box with fractional coordinates ``alphas``, (index, alpha) pairs
    with alpha in (0, 1) in index order, and torsion coordinates
    ``v_torsion``: its cone is their indices, its point sum alpha_i b̄_i."""
    alphas = tuple(alphas)
    n = lcm(*(a.denominator for _, a in alphas))
    cone = tuple(i for i, _ in alphas)
    v_free = _box_vector(arr, cone, [a.numerator * (n // a.denominator) for _, a in alphas], n)
    return BoxElement(v_free, tuple(v_torsion), cone, alphas)


def box_inverse(box: BoxElement, arr: StackyArrangement) -> BoxElement:
    """The inverse box: same cone, fractional coordinates 1 - alpha."""
    tor = tuple(
        (-t) % q for t, q in zip(box.v_torsion, arr.group_N.torsion_invariants)
    )
    return box_of(arr, ((i, 1 - a) for i, a in box.alphas), tor)
