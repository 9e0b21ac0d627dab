"""Records, verdicts and the hypergraph and coloring types are immutable
value types with fixed defaults."""

from fractions import Fraction

import pytest

from rainbowlab import antiramsey as anti
from rainbowlab import turan as tu
from rainbowlab.cache import Records
from rainbowlab.core import Embedding, HyperGraph

EMPTY = HyperGraph(2, 3, [])
K3 = HyperGraph(2, 3, [(0, 1), (0, 2), (1, 2)])
HALF = Fraction(1, 2)

#: one instance of each record, verdict and value type, with only its required fields
RECORDS = [
    Embedding((0, 1)),
    EMPTY,
    anti.EdgeColoring(2, 2, 1, (1,)),
    tu.TuranRecord(3, "key", 0, EMPTY, "exact"),
    tu.DerivedQuantities(5, 1, HALF, HALF),
    tu.CheckResult(5, HALF, HALF, True),
    tu.GapResult(5, 0, 1, 0),
    anti.ArRecord(3, 1, "key", 1, None, "exact"),
    anti.SandwichVerdict(5, 1, 2, 2, 3, True),
    anti.ReductionVerdict(6, 1, 9, 5, 4, True),
    anti.IdentityVerdict(6, 1, 5, 3, 0, False, True, True, "out-of-range"),
    anti.CensusResult(HALF, HALF, (0,)),
]


@pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: type(rec).__name__)
def test_fields_are_read_only(rec):
    name = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        rec.extra = 0  # no instance dict either


def test_defaults():
    ex = tu.TuranRecord(3, "key", 0, EMPTY, "exact")
    assert (ex.nodes, ex.solver, ex.closed_by) == (0, tu.SOLVER_VERSION, "")
    ar = anti.ArRecord(3, 1, "key", 1, None, "exact")
    assert (ar.hi, ar.nodes, ar.solver, ar.closed_by) == (0, 0, tu.SOLVER_VERSION, "")
    assert tu.CheckResult(5, HALF, HALF, True).note == ""


@pytest.mark.parametrize(
    "check",
    [
        lambda table: tu.boundedness_falsifier(K3, 0, HALF, 5, 1, table),
        lambda table: tu.boundedness_falsifier(K3, HALF, -1, 5, 1, table),
        lambda table: tu.smoothness_check(K3, Fraction(-1, 3), table, range(5, 7)),
        lambda table: tu.smoothness_check(K3, Fraction(4, 3), table, range(5, 7)),
    ],
    ids=["c1<=0", "c2<=0", "pi<0", "pi>1"],
)
def test_check_params_reject_constants_out_of_range(check):
    with pytest.raises(ValueError):
        check(Records())  # empty: the constants are checked before any record is read
