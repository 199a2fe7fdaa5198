"""The public records are immutable named tuples: they build from keyword
arguments under their field names, compare by value and refuse any
attribute assignment."""

from __future__ import annotations

import pytest

from pn2sc.flat import (
    AndFiring,
    OrFiring,
    ReductionResult,
    ReductionStatus,
    Side,
)
from pn2sc.generate import GenSpec
from pn2sc.io import (
    ElementKind,
    PetriNetDocument,
    PlaceSpec,
    StatechartDocument,
    TransitionSpec,
)
from pn2sc.rank import RankedTrees
from pn2sc.validate import Discrepancy, ValidationLevel, ValidationReport

RECORDS = [
    (PlaceSpec, {"id": "p0", "name": "start"}),
    (TransitionSpec, {"id": "t0", "name": "go", "pre": ("p0",),
                      "post": ("p1",)}),
    (PetriNetDocument, {"places": (PlaceSpec("p0", "p0"),),
                        "transitions": ()}),
    (StatechartDocument, {"uids": [0], "kinds": ["Statechart"],
                          "names": [""], "children": [()], "links": [()]}),
    (RankedTrees, {"roots": [0], "kinds": ["Statechart"], "names": [""],
                   "parents": [-1], "children": [[()]], "paths": [0],
                   "ranks": [0]}),
    (ReductionResult, {"status": ReductionStatus.SUCCESS,
                       "statechart_root": 7, "remaining_places": 0,
                       "remaining_transitions": 0, "top_or_count": 1}),
    (AndFiring, {"transition": 3, "side": Side.PRE, "merged_places": 2}),
    (OrFiring, {"transition": 4, "identity": True}),
    (Discrepancy, {"kind": "missing-node", "detail": "OR(a)"}),
    (ValidationReport, {"level": ValidationLevel.FULL,
                        "discrepancies": ()}),
    (GenSpec, {"target_places": 10, "seed": 2, "branch_factor_max": 3,
               "parallel_prob": 0.25}),
]


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_builds_compares_and_refuses_assignment(cls, fields):
    record = cls(**fields)
    assert record._fields == tuple(fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
    assert record == cls(**fields)
    assert record == cls(*fields.values())
    last = list(fields)[-1]
    assert record != record._replace(**{last: 0})
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_record_properties_and_defaults():
    assert GenSpec(target_places=5, seed=1) == GenSpec(5, 1, 4, 0.5)
    assert GenSpec(5, 1).file_name() == "sp5_1.json"
    assert GenSpec(5, 1)._replace(seed=2) == GenSpec(5, 2)
    result = ReductionResult(ReductionStatus.IRREDUCIBLE, None, 2, 0, 2)
    assert not result.ok
    assert result._replace(status=ReductionStatus.SUCCESS).ok
    assert ValidationReport(ValidationLevel.COUNTS, ()).passed
    assert not ValidationReport(ValidationLevel.COUNTS,
                                (Discrepancy("count-mismatch", "OR"),)).passed
    doc = StatechartDocument([0], ["Statechart"], [""], [()], [()])
    assert doc.count_of_kind(ElementKind.STATECHART) == 1
    assert doc.count_of_kind(ElementKind.OR) == 0


@pytest.mark.parametrize("fields, message", [
    ({"target_places": 0}, "target_places must be at least 1"),
    ({"branch_factor_max": 1}, "branch_factor_max must be at least 2"),
    ({"parallel_prob": 1.5}, "parallel_prob must lie in [0, 1]"),
])
def test_genspec_rejects_bad_parameters(fields, message):
    with pytest.raises(ValueError) as built:
        GenSpec(**{"target_places": 10, "seed": 0, **fields})
    with pytest.raises(ValueError) as replaced:
        GenSpec(10, 0)._replace(**fields)
    assert str(built.value) == str(replaced.value) == message
