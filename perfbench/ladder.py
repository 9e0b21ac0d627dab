"""Run the anti-Ramsey ladder: direct `ar_exact` calls, no cache, no CLI.

    python ladder.py RESULT_JSON [SPANS_JSON]

Writes, per call, the value, the node count, the time and the witness
coloring to RESULT_JSON.  With SPANS_JSON the calls run under spans.
"""

import json
import sys
import time
import traceback

import checks
import rainbowlab.antiramsey as anti
import spans
from rainbowlab.core import HyperGraph

out_path = sys.argv[1]
recorder = None
if len(sys.argv) > 2:
    recorder = spans.Recorder()
    spans.instrument(recorder)
targets = {shape: HyperGraph(*checks.SHAPES[shape]) for shape, _ in checks.LADDER}
calls = []
for shape, t in checks.LADDER:
    t0 = time.perf_counter()
    try:
        rec = anti.ar_exact(checks.LADDER_N, t, targets[shape])
    except Exception:
        calls.append({"shape": shape, "t": t, "error": traceback.format_exc()})
        continue
    secs = time.perf_counter() - t0
    w = rec.witness
    calls.append(
        {
            "shape": shape,
            "t": t,
            "secs": secs,
            "value": rec.value,
            "status": rec.status,
            "nodes": rec.nodes,
            "witness": None if w is None else [w.r, w.n, w.ncolors, list(w.colors)],
        }
    )
with open(out_path, "w", encoding="ascii") as fh:
    json.dump({"calls": calls}, fh)
if recorder is not None:
    with open(sys.argv[2], "w", encoding="ascii") as fh:
        json.dump({"spans": recorder.spans}, fh)
