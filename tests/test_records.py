"""Value semantics of the records: every ``exactalg.Record`` subclass.

A record's fields are its ``__slots__``.  It equals another record of
exactly its class with equal fields, with an equal hash, and nothing else;
a record holding a dict is unhashable.  Boxes key the components of a
Chen-Ruan class, and circuits, boxes, cone coordinates, groups and matrices
are compared by value in the tests (the Smith form contract is U*A*V == D).
"""

from __future__ import annotations

import importlib
import pkgutil
from fractions import Fraction
from types import SimpleNamespace

import pytest

import hypertoric
from hypertoric.arrangement import Chamber, NormalFan, _Vertex
from hypertoric.crring import CRClass, Relation, RingPresentation
from hypertoric.exactalg import ExactAlgError, FgAbelianGroup, IntMatrix, Record
from hypertoric.lawrence import ConeCoordinates
from hypertoric.localize import (
    FixedPoint,
    FixedPointTable,
    PaperSteinbergOperator,
    SteinbergOperator,
)
from hypertoric.multifan import BoxElement, Circuit
from hypertoric.quantum import NovikovSeries, QSRElement

# Contexts and models compare by identity.
CONTEXT, OTHER_CONTEXT = object(), object()
STEINBERG = (
    {"sector_order": (0, Fraction(1, 2)), "matrix": ((1, 0), (0, 1)), "generator_images": {}},
    {
        "sector_order": (Fraction(1, 2), 0),
        "matrix": ((1, 1), (0, 1)),
        "generator_images": {"u1": {0: 1}},
    },
)

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
        Chamber,
        {"flips": frozenset({0, 2}), "corners": (((0, 1), (0, 1)),)},
        {"flips": frozenset({0}), "corners": (((0, Fraction(1, 2)), (0, 1)),)},
    ),
    (
        _Vertex,
        {"point": (0, 1), "above": 5, "ends": ((None, (0, 2)),)},
        {"point": (1, 1), "above": 4, "ends": (((0, 3), (0, 2)),)},
    ),
    (
        NormalFan,
        {"rays": ((1, 0), (0, 1)), "max_cones": ((0, 1),)},
        {"rays": ((1, 0), (0, -1)), "max_cones": ((0,), (1,))},
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
    (
        CRClass,
        {"context": CONTEXT, "components": (("box", "u1"),)},
        {"context": OTHER_CONTEXT, "components": (("box", "u2"),)},
    ),
    (
        Relation,
        {"kind": "box-u", "text": "e1*u1 = 0", "lhs_boxes": ("box",), "lhs_poly": "u1", "rhs": 0},
        {"kind": "box-box", "text": "e1*u2 = 0", "lhs_boxes": (), "lhs_poly": None, "rhs": None},
    ),
    (
        RingPresentation,
        {"generators": ("u1", "u2"), "relations": ("u1*u2 = 0",)},
        {"generators": ("u1",), "relations": ()},
    ),
    (
        FixedPoint,
        {
            "slot": 0,
            "multiplicity": Fraction(1, 2),
            "tangent_weights": ("l1",),
            "fiber_weights": ("hbar - l1",),
            "restrictions": {"u1": "l1"},
        },
        {
            "slot": 1,
            "multiplicity": Fraction(1),
            "tangent_weights": ("-l1",),
            "fiber_weights": ("hbar + l1",),
            "restrictions": {"u1": "0"},
        },
    ),
    (
        FixedPointTable,
        {"convention": "standard", "model": CONTEXT, "points": {Fraction(0): ()}},
        {"convention": "paper", "model": OTHER_CONTEXT, "points": {}},
    ),
    (SteinbergOperator, *STEINBERG),
    (PaperSteinbergOperator, *STEINBERG),
    (
        NovikovSeries,
        {"context": CONTEXT, "order": 2, "terms": (((0, 1), "u1"),)},
        {"context": OTHER_CONTEXT, "order": 3, "terms": ()},
    ),
    (
        QSRElement,
        {"order": 1, "terms": ((((0, 1), (0,)), "1"),)},
        {"order": 2, "terms": ((((0, 1), (1,)), "hbar"),)},
    ),
]
IDS = [r[0].__name__ for r in RECORDS]
# The records that validate their arguments in their own __init__.
VALIDATING = (IntMatrix, FgAbelianGroup)


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=IDS)
def test_records_compare_by_class_and_fields(cls, fields, changes):
    assert set(fields) == set(cls.__slots__)
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    if any(isinstance(value, dict) for value in fields.values()):
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


def test_every_record_is_checked():
    """``RECORDS`` names exactly the Record subclasses of the package, so a
    new record cannot skip the checks here."""
    for info in pkgutil.iter_modules(hypertoric.__path__):
        importlib.import_module(f"hypertoric.{info.name}")
    found, stack = set(), [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("hypertoric."):
                found.add(sub)
    assert found == {cls for cls, _, _ in RECORDS}


def test_a_record_equals_only_its_own_class():
    plain, paper = SteinbergOperator(**STEINBERG[0]), PaperSteinbergOperator(**STEINBERG[0])
    assert plain != paper and paper != plain
    assert paper.matrix == STEINBERG[0]["matrix"]


@pytest.mark.parametrize("cls, fields, changes", RECORDS, ids=IDS)
def test_records_are_built_by_position_or_by_name(cls, fields, changes):
    values = [fields[name] for name in cls.__slots__]
    record = cls(*values)
    assert record == cls(**fields)
    assert [getattr(record, name) for name in cls.__slots__] == values
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)
    if cls not in VALIDATING:
        for name in cls.__slots__:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in fields.items() if k != name})


def test_validating_records_still_validate():
    with pytest.raises(ExactAlgError):
        IntMatrix(((1, 2),), (1, 3))
    with pytest.raises(ExactAlgError):
        IntMatrix(((1, 2), (3,)), (2, 2))
    with pytest.raises(ExactAlgError):
        FgAbelianGroup(0, (1,))
