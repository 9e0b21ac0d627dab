"""Direct `ar_exact` calls on the hard anti-Ramsey cases, one JSON line each.

    python tools/frontier.py [CASE ...]

A case is named n:tF, for example 10:2K3 for ar(10, 2K3); with no argument
every case of ``CASES`` runs, in that order.  Each call gets a budget of
``BUDGET`` nodes, so a case the solver cannot close ends with bounds.  Each
line gives the case, value, status, lo, hi, nodes, closed_by and seconds; an
exact value has lo = hi = value.  It runs the code under ``src/`` of the
checkout it sits in, and writes no cache.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rainbowlab.antiramsey import ar_exact
from rainbowlab.constructions import complete_graph, cycle
from rainbowlab.core import HyperGraph

#: nodes per call
BUDGET = 5_000_000

SHAPES = {"K2": HyperGraph(2, 2, [(0, 1)]), "K3": complete_graph(3), "C4": cycle(4)}

#: the cases, as (n, t, shape)
CASES = [
    (8, 1, "C4"),
    (10, 2, "K3"),
    (9, 2, "K3"),
    (7, 1, "C4"),
    (11, 2, "K3"),
    (8, 4, "K2"),
    (9, 3, "K3"),
    (9, 1, "K3"),
]


def name(n, t, shape):
    return f"{n}:{t if t > 1 else ''}{shape}"


def run(n, t, shape):
    start = time.perf_counter()
    rec = ar_exact(n, t, SHAPES[shape], budget=BUDGET)
    seconds = time.perf_counter() - start
    return {
        "case": name(n, t, shape),
        "value": rec.value,
        "status": rec.status,
        "lo": rec.value,
        "hi": rec.hi if rec.status == "bounds" else rec.value,
        "nodes": rec.nodes,
        "closed_by": rec.closed_by,
        "seconds": round(seconds, 3),
    }


def main(argv):
    known = {name(*case): case for case in CASES}
    unknown = [arg for arg in argv if arg not in known]
    if unknown:
        print(f"unknown case {unknown[0]!r}; known: {' '.join(known)}", file=sys.stderr)
        return 2
    for arg in argv or known:
        print(json.dumps(run(*known[arg])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
