"""Matroid circuits and box elements of an arrangement.

Both read the arrangement's basis table: circuits are the minimal
non-faces of its cones, with their canonical two-sided splitting,
positive weights and curve class.  Box elements index the twisted
sectors; they are enumerated over its cones, in integers from the Smith
normal form of each cone matrix, over one denominator per cone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from hypertoric.arrangement import InvariantError, StackyArrangement
from hypertoric.exactalg import (
    IntMatrix,
    basis_projection,
    kernel_basis,
    primitive_vector,
    row_reduce,
    smith_normal_form,
)


@dataclass(frozen=True)
class Circuit:
    """A minimal dependent subset with its canonical oriented data."""

    support: tuple[int, ...]
    positive: tuple[int, ...]
    negative: tuple[int, ...]
    weights: tuple[int, ...]  # parallel to support, all > 0
    beta_S: tuple[int, ...]  # in Z^m
    h2_class: tuple[int, ...]  # in the canonical kernel basis
    lcm_w: int
    root_hyperplane: tuple[int, ...]  # complementary index set

    def weight_of(self, i: int) -> int:
        return self.weights[self.support.index(i)]

    def sign_of(self, i: int) -> int:
        if i in self.positive:
            return 1
        if i in self.negative:
            return -1
        return 0


def circuits(arr: StackyArrangement) -> tuple[Circuit, ...]:
    """All circuits, oriented by the halfspace emptiness test.

    A circuit is a minimal non-face of the arrangement's cones: a subset
    that is not a cone while each of its facets is.  One fraction-free
    reduction of its columns then gives its kernel, a line whose vector
    has no zero entry by minimality.  The weight vector w is the
    primitive kernel vector; of its two signings exactly one makes the
    mixed halfspace intersection empty (side 'G' of the positive
    hyperplanes, side 'F' of the negative ones), and that signing is the
    canonical split.  Since sum w_i b_i = 0,
    sum w_i (<b_i, v> + psi_i) = sum w_i psi_i at every v, while each
    term is <= 0 on the mixed intersection; so the empty signing is the
    one that pairs positively with psi.  A zero pairing puts theta on a
    wall, which genericity rules out.  The curve class is the signed
    vector's integer coordinates in the kernel basis, read through one
    projection of that basis set up before the enumeration.
    """
    curve_class = basis_projection(kernel_basis(arr.beta.free_part()))
    out = []
    for size in range(2, arr.d + 2):
        for subset in itertools.combinations(range(arr.m), size):
            facets = (subset[:k] + subset[k + 1 :] for k in range(size))
            if arr.is_cone(subset) or not all(map(arr.is_cone, facets)):
                continue
            cols = [arr.b_bar(i) for i in subset]
            pivots, reduced, last = row_reduce(list(zip(*cols)))
            if len(pivots) != size - 1:
                raise InvariantError(f"circuit kernel of {subset} is not one-dimensional")
            # the kernel is spanned by the vector with `last` at the free
            # column and minus that column of the reduced rows at the pivots
            (free,) = set(range(size)) - set(pivots)
            w = [last] * size
            for k, row in zip(pivots, reduced):
                w[k] = -row[free]
            if 0 in w or any(sum(x * col[r] for x, col in zip(w, cols)) for r in range(arr.d)):
                # a minimal dependent set has a kernel line with full support
                raise InvariantError(f"circuit kernel of {subset} is not one-dimensional with full support")
            w = primitive_vector(w)
            pairing = sum(x * arr.psi[i] for i, x in zip(subset, w))
            if pairing == 0:
                raise InvariantError(f"circuit {subset} pairs to zero with psi: theta is on a wall")
            signed = [x if pairing > 0 else -x for x in w]
            pos = tuple(i for i, x in zip(subset, signed) if x > 0)
            neg = tuple(i for i, x in zip(subset, signed) if x < 0)
            beta_s = [0] * arr.m
            for i, x in zip(subset, signed):
                beta_s[i] = x
            projected = curve_class(beta_s)
            if projected is None or any(x % projected[1] for x in projected[0]):
                raise InvariantError("curve class is not in the kernel lattice")
            h2 = tuple(x // projected[1] for x in projected[0])
            out.append(
                Circuit(
                    support=tuple(subset),
                    positive=pos,
                    negative=neg,
                    weights=tuple(abs(x) for x in signed),
                    beta_S=tuple(beta_s),
                    h2_class=h2,
                    lcm_w=lcm(*[abs(x) for x in signed]),
                    root_hyperplane=tuple(i for i in range(arr.m) if i not in subset),
                )
            )
    return tuple(out)


@dataclass(frozen=True)
class BoxElement:
    """A pair (v, sigma): sigma a cone, v with fractional coordinates in (0,1).

    ``v_free`` is the image of v in the free quotient, ``v_torsion`` the
    torsion coordinates.  The age equals the number of rays of sigma.
    """

    v_free: tuple[int, ...]
    v_torsion: tuple[int, ...]
    sigma: tuple[int, ...]
    alphas: tuple[tuple[int, Fraction], ...]  # (hyperplane index, alpha)

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
    for every box (Smith form, inverse or closing box): else a program fault."""
    cols = [arr.b_bar(i) for i in indices]
    out = [divmod(sum(a * col[r] for a, col in zip(numerators, cols)), n) for r in range(arr.d)]
    if any(rem for _, rem in out):
        raise InvariantError("non-integral box candidate")
    return tuple(q for q, _ in out)


def _alpha_vector(arr: StackyArrangement, alphas) -> tuple[int, ...]:
    """``_box_vector`` of (index, Fraction) pairs, over their common denominator."""
    n = lcm(*(a.denominator for _, a in alphas))
    return _box_vector(arr, [i for i, _ in alphas], [a.numerator * (n // a.denominator) for _, a in alphas], n)


def _cone_boxes(arr: StackyArrangement, sigma, torsion) -> list[BoxElement]:
    """Boxes supported exactly on the cone sigma, in integers.

    With U·B·V = D for the column matrix B of sigma and invariants
    d_1 | ... | d_k, the box points are V·(r_j / d_j) mod 1 for r_j < d_j.
    Over n = d_k, alpha_i = a_i / n with a_i = sum_j V[i, j] r_j (n / d_j)
    mod n, and a zero a_i means a proper face.  Each point's Fractions are
    built once and shared by its torsion copies.
    """
    k = len(sigma)
    _, D, V = smith_normal_form(IntMatrix.from_rows(tuple(zip(*(arr.b_bar(i) for i in sigma)))))
    diag = [D[j, j] for j in range(k)]
    n = diag[-1]
    steps = [[V[i, j] * (n // diag[j]) for i in range(k)] for j in range(k)]
    out = []
    for residues in itertools.product(*map(range, diag)):
        nums = [sum(r * step[i] for r, step in zip(residues, steps)) % n for i in range(k)]
        if 0 in nums:
            continue  # belongs to a proper face
        v_free = _box_vector(arr, sigma, nums, n)
        alphas = tuple(zip(sigma, (Fraction(a, n) for a in nums)))
        out.extend(BoxElement(v_free, tor, sigma, alphas) for tor in torsion)
    return out


def box_elements(arr: StackyArrangement) -> tuple[BoxElement, ...]:
    """All box elements, the trivial one included, deterministically sorted."""
    torsion = _torsion_elements(arr.group_N)
    out = [BoxElement((0,) * arr.d, tor, (), ()) for tor in torsion]
    for sigma in arr.cones[1:]:  # the empty cone's boxes are the trivial ones
        out.extend(_cone_boxes(arr, sigma, torsion))
    out.sort(key=lambda b: b.sort_key())
    return tuple(out)


def box_inverse(box: BoxElement, arr: StackyArrangement) -> BoxElement:
    """The inverse box: same cone, fractional coordinates 1 - alpha."""
    alphas = tuple((i, 1 - a) for i, a in box.alphas)
    tor = tuple(
        (-t) % q for t, q in zip(box.v_torsion, arr.group_N.torsion_invariants)
    )
    return BoxElement(_alpha_vector(arr, alphas), tor, box.sigma, alphas)
