"""Independent checks of command payloads.

Nothing here imports the library: the oracles work from the arrangement
document alone, with their own exact Fraction elimination.

* Bounded chambers: by Zaslavsky's theorem the number of bounded regions of
  an essential affine arrangement is |chi(1)|, and by Whitney's formula
  chi(1) = sum of (-1)^|S| over the subsets S of hyperplanes that meet
  (Zaslavsky 1975, Facing up to arrangements, Mem. AMS 154).
* Boxes per cone: the points of the half-open parallelepiped of a cone tau
  number index(tau), the gcd of the maximal minors of its column matrix;
  inclusion-exclusion over the faces of sigma leaves the points with every
  coordinate in (0, 1), and each comes once per torsion element.
* Self-checks the payload reports about itself: ``forward_injective`` of
  ``steinberg`` and ``eliminated_relation_vanishes`` of ``qsr``.
  ``inverse_of_forward_is_identity`` is a result, not a self-check: the
  acceptance suite (criterion 5) requires it to be false.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod


def _rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _det(square):
    n = len(square)
    if n == 0:
        return 1
    m = [[Fraction(x) for x in r] for r in square]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return int(det)


def _normals(doc):
    """Free parts of the defining vectors (the first ``rank`` coordinates)."""
    return [tuple(col[: doc["rank"]]) for col in doc["beta"]]


def bounded_chamber_count(doc) -> int:
    normals = _normals(doc)
    d = doc["rank"]
    if d == 0 or _rank(normals) < d:
        return 0  # not essential: every region contains a line
    psi = doc["psi"]
    total = 0
    m = len(normals)
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            a = [normals[i] for i in subset]
            ab = [normals[i] + (-psi[i],) for i in subset]
            if _rank(a) == _rank(ab):
                total += (-1) ** size
    return abs(total)


def _index(cols, d):
    """gcd of the maximal minors of the d x len(cols) matrix."""
    if not cols:
        return 1
    rows = list(zip(*cols))
    g = 0
    for chosen in itertools.combinations(range(d), len(cols)):
        g = gcd(g, _det([rows[r] for r in chosen]))
    return g


def box_counts(doc) -> dict:
    """Box elements per cone, as {1-based cone tuple: count}, zeros omitted."""
    normals = _normals(doc)
    d = doc["rank"]
    torsion = prod(doc.get("torsion", []))
    index = {}
    out = {}
    for size in range(d + 1):
        for sigma in itertools.combinations(range(len(normals)), size):
            if size and _rank([normals[i] for i in sigma]) < size:
                continue
            index[sigma] = _index([normals[i] for i in sigma], d)
            interior = sum(
                (-1) ** (size - k) * index[tau]
                for k in range(size + 1)
                for tau in itertools.combinations(sigma, k)
            )
            if interior:
                out[tuple(i + 1 for i in sigma)] = interior * torsion
    return out


def check(command, doc, payload):
    """The list of disagreements between ``payload`` and the oracles."""
    problems = []
    if command == "core":
        want = bounded_chamber_count(doc)
        got = len(payload["chambers"])
        if got != want:
            problems.append(f"core: {got} chambers, Zaslavsky count {want}")
    elif command == "box":
        got = {}
        for b in payload["box_elements"]:
            key = tuple(b["cone"])
            got[key] = got.get(key, 0) + 1
        want = box_counts(doc)
        if got != want:
            problems.append(f"box: per-cone counts {got}, inclusion-exclusion {want}")
    elif command == "steinberg":
        if payload["forward_injective"] is not True:
            problems.append("steinberg: self-check forward_injective failed")
    elif command == "qsr":
        for entry in payload["circuit_relation_checks"]:
            if entry["eliminated_relation_vanishes"] is not True:
                problems.append(
                    f"qsr: self-check eliminated_relation_vanishes failed on circuit {entry['circuit']}"
                )
    return problems
