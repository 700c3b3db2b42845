"""Value semantics of the records that are compared or hashed.

Boxes key the components of a Chen-Ruan class, and circuits, boxes, cone
coordinates, groups and matrices are compared by value in the tests (the
Smith form contract is U*A*V == D).  Each such record equals another of
its class with equal fields, with an equal hash, and nothing else.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest

from hypertoric.exactalg import FgAbelianGroup, IntMatrix
from hypertoric.lawrence import ConeCoordinates
from hypertoric.multifan import BoxElement, Circuit

# (class, fields, a changed value per field); IntMatrix needs two cases, as
# its shape must match its entries.
RECORDS = [
    (IntMatrix, {"entries": ((1, 2),), "shape": (1, 2)}, {"entries": ((1, 3),)}),
    (IntMatrix, {"entries": (), "shape": (0, 2)}, {"shape": (0, 3)}),
    (
        FgAbelianGroup,
        {"rank": 1, "torsion_invariants": (2,)},
        {"rank": 2, "torsion_invariants": (4,)},
    ),
    (
        Circuit,
        {
            "support": (0, 1, 2),
            "positive": (0, 1),
            "negative": (2,),
            "weights": (1, 1, 2),
            "beta_S": (1, 1, -2),
            "h2_class": (1,),
            "lcm_w": 2,
            "root_hyperplane": (3,),
        },
        {
            "support": (0, 1, 3),
            "positive": (0,),
            "negative": (1, 2),
            "weights": (1, 2, 1),
            "beta_S": (-1, -1, 2),
            "h2_class": (-1,),
            "lcm_w": 1,
            "root_hyperplane": (),
        },
    ),
    (
        BoxElement,
        {
            "v_free": (0, 1),
            "v_torsion": (1,),
            "sigma": (0, 2),
            "alphas": ((0, Fraction(1, 2)), (2, Fraction(1, 2))),
        },
        {
            "v_free": (1, 1),
            "v_torsion": (0,),
            "sigma": (0, 3),
            "alphas": ((0, Fraction(1, 2)), (2, Fraction(1, 3))),
        },
    ),
    (
        ConeCoordinates,
        {"max_cone": (0, 1, 4), "coefficients": {0: Fraction(1, 2), 4: Fraction(1)}},
        {"max_cone": (0, 1, 5), "coefficients": {0: Fraction(1, 2)}},
    ),
]


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_compare_by_class_and_fields(cls, fields, changes):
    assert set(fields) == set(cls.__slots__)
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    if cls is ConeCoordinates:  # its coefficients are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name, value in changes.items():
        assert a != cls(**{**fields, name: value}), name
    assert a != SimpleNamespace(**fields) and SimpleNamespace(**fields) != a


def test_every_field_of_a_record_is_changed():
    changed = {}
    for cls, _, changes in RECORDS:
        changed.setdefault(cls, set()).update(changes)
    assert all(names == set(cls.__slots__) for cls, names in changed.items())
