"""Golden values and witnesses of the two exact solvers.

``golden_records.txt`` holds, for each case below, the value and the witness
that ``ex_exact`` and ``ar_exact`` returned when the fixture was written.  The
solvers must reproduce it byte for byte: a change of search strategy may
change node counts and times, never a value or a witness.  To rewrite the
fixture after a deliberate change of witnesses:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_records.txt
"""

from pathlib import Path

from rainbowlab import antiramsey as anti
from rainbowlab import constructions as cons
from rainbowlab import turan as tu
from rainbowlab.core import HyperGraph, HyperGraphFamily, complete, disjoint_union, to_text

FIXTURE = Path(__file__).with_name("golden_records.txt")

K2 = HyperGraph(2, 2, [(0, 1)])
K3 = cons.complete_graph(3)
C4 = cons.cycle(4)
P3 = HyperGraph(2, 3, [(0, 1), (1, 2)])
E3 = HyperGraph(3, 3, [(0, 1, 2)])
K43_MINUS = HyperGraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])

EX_CASES = [
    (7, tu.singleton(K3)),
    (8, HyperGraphFamily(2, [K3, C4])),
    (8, tu.singleton(disjoint_union(K3, 2))),
    (7, tu.singleton(cons.complete_graph(4))),
    (7, tu.singleton(cons.cycle(5))),
    (6, tu.singleton(complete(4, 3))),
    (6, tu.singleton(K43_MINUS)),
    (6, tu.singleton(cons.f32())),
    (6, tu.singleton(disjoint_union(E3, 2))),
]

AR_CASES = [
    (6, 3, K2),
    (6, 2, K3),
    (6, 1, K3),
    (6, 1, C4),
    (6, 1, cons.complete_graph(4)),
    (4, 2, K2),
    (5, 2, K2),
    (5, 1, P3),
    (5, 1, complete(4, 3)),
    (4, 1, K43_MINUS),
    (6, 2, P3),
    (6, 1, K43_MINUS),
    (6, 2, E3),
]


def golden_text():
    """Every case as a header line and its witness in the record file format."""
    parts = []
    for n, fam in EX_CASES:
        rec = tu.ex_exact(n, fam)
        parts.append(f"ex n={n} fam={rec.family_key} value={rec.value}\n")
        parts.append(to_text(rec.witness))
    for n, t, F in AR_CASES:
        rec = anti.ar_exact(n, t, F)
        parts.append(f"ar n={n} t={t} F={rec.F_key} value={rec.value}\n")
        parts.append("nowitness\n" if rec.witness is None else anti.coloring_to_text(rec.witness))
    return "".join(parts)


def test_values_and_witnesses_match_fixture():
    assert golden_text() == FIXTURE.read_text(encoding="ascii")


if __name__ == "__main__":
    print(golden_text(), end="")
