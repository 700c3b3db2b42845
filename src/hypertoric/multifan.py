"""The multi-fan of an arrangement: cones, matroid circuits, box elements.

Circuits carry their canonical two-sided splitting, positive weights and
curve class; box elements index the twisted sectors and are enumerated
exactly from Smith normal forms of cone matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from hypertoric.arrangement import InvariantError, StackyArrangement
from hypertoric.exactalg import (
    IntMatrix,
    coordinates_in_basis,
    kernel_basis,
    primitive_vector,
    rational_rank,
    row_reduce,
    smith_normal_form,
)


@dataclass(frozen=True)
class MultiFan:
    """All cones spanned by linearly independent subsets of the b-vectors."""

    arrangement: StackyArrangement

    def is_cone(self, indices) -> bool:
        indices = sorted(set(indices))
        if not indices:
            return True
        cols = [self.arrangement.b_bar(i) for i in indices]
        return rational_rank(cols) == len(indices)

    def cones(self):
        arr = self.arrangement
        out = [()]
        for size in range(1, arr.d + 1):
            for subset in itertools.combinations(range(arr.m), size):
                if self.is_cone(subset):
                    out.append(subset)
        return tuple(out)

    def top_cones(self):
        arr = self.arrangement
        top_rank = rational_rank([arr.b_bar(i) for i in range(arr.m)])
        return tuple(c for c in self.cones() if len(c) == top_rank)


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

    One fraction-free reduction of a subset's columns gives its rank, its
    kernel vector and so its minimality (no zero entry).  The weight vector
    w is the primitive kernel vector of a circuit; of its two signings
    exactly one makes the mixed halfspace intersection empty (side 'G' of
    the positive hyperplanes, side 'F' of the negative ones), and that
    signing is the canonical split.  Since
    sum w_i b_i = 0, sum w_i (<b_i, v> + psi_i) = sum w_i psi_i at every v,
    while each term is <= 0 on the mixed intersection; so the empty
    signing is the one that pairs positively with psi.  A zero pairing
    puts theta on a wall, which genericity rules out.
    """
    kb = kernel_basis(arr.beta.free_part())
    out = []
    for size in range(2, arr.d + 2):
        for subset in itertools.combinations(range(arr.m), size):
            cols = [arr.b_bar(i) for i in subset]
            pivots, reduced, last = row_reduce(list(zip(*cols)))
            if len(pivots) != size - 1:
                continue  # independent, or its kernel holds a smaller circuit
            # the kernel is spanned by the vector with `last` at the free
            # column and minus that column of the reduced rows at the pivots
            (free,) = set(range(size)) - set(pivots)
            w = [last] * size
            for k, row in zip(pivots, reduced):
                w[k] = -row[free]
            if 0 in w:
                continue  # not minimal: the kernel vector lives on a subset
            if any(sum(x * col[r] for x, col in zip(w, cols)) for r in range(arr.d)):
                # the reduction reported rank size - 1 for a vector it does not annihilate
                raise InvariantError("circuit kernel is not one-dimensional")
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
            h2 = coordinates_in_basis(kb, tuple(beta_s))
            if h2 is None:
                raise InvariantError("curve class is not in the kernel lattice")
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
    out.sort(key=lambda c: (len(c.support), c.support))
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
        for j, a in self.alphas:
            if j == i:
                return a
        return Fraction(0)

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
    ranges = [range(q) for q in group.torsion_invariants]
    return [tuple(t) for t in itertools.product(*ranges)] if ranges else [()]


def _cone_boxes(arr: StackyArrangement, sigma) -> list[BoxElement]:
    """Boxes supported exactly on the cone sigma, via the Smith form of
    its column matrix."""
    cols = [arr.b_bar(i) for i in sigma]
    B = IntMatrix.from_rows(tuple(zip(*cols)))
    k = len(sigma)
    _, D, V = smith_normal_form(B)
    diag = [D[i, i] for i in range(k)]
    out = []
    for residues in itertools.product(*[range(x) for x in diag]):
        y = [Fraction(r, d) for r, d in zip(residues, diag)]
        alpha = [
            sum(Fraction(V[i, j]) * y[j] for j in range(k)) % 1 for i in range(k)
        ]
        if any(a == 0 for a in alpha):
            continue  # belongs to a proper face
        v_free = tuple(sum(cols[t][r] * alpha[t] for t in range(k)) for r in range(arr.d))
        if any(x.denominator != 1 for x in v_free):
            # the Smith form guarantees an integral combination
            raise InvariantError("non-integral box candidate")
        v_free = tuple(int(x) for x in v_free)
        for tor in _torsion_elements(arr.group_N):
            out.append(
                BoxElement(
                    v_free=v_free,
                    v_torsion=tor,
                    sigma=tuple(sigma),
                    alphas=tuple(zip(sigma, alpha)),
                )
            )
    return out


def box_elements(arr: StackyArrangement) -> tuple[BoxElement, ...]:
    """All box elements, the trivial one included, deterministically sorted."""
    fan = MultiFan(arr)
    out = []
    for tor in _torsion_elements(arr.group_N):
        out.append(BoxElement(tuple(0 for _ in range(arr.d)), tor, (), ()))
    for sigma in fan.cones():
        if sigma:
            out.extend(_cone_boxes(arr, sigma))
    out.sort(key=lambda b: b.sort_key())
    return tuple(out)


def box_inverse(box: BoxElement, arr: StackyArrangement) -> BoxElement:
    """The inverse box: same cone, fractional coordinates 1 - alpha."""
    alphas = tuple((i, 1 - a) for i, a in box.alphas)
    v_free = tuple(
        int(sum(Fraction(arr.b_bar(i)[r]) * a for i, a in alphas))
        for r in range(arr.d)
    )
    tor = tuple(
        (-t) % q for t, q in zip(box.v_torsion, arr.group_N.torsion_invariants)
    )
    return BoxElement(v_free, tor, box.sigma, alphas)
