"""Run one `lab` command as `python -m rainbowlab.cli` does, with spans.

    python labproc.py SPANS_JSON SPAWN_TIME -- <lab arguments>

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; the difference to the end of ``import rainbowlab.cli`` is the
command's start-up time.  The spans and that time go to SPANS_JSON when the
command returns, and the exit code is the command's.
"""

import json
import sys
import time

out_path, spawned, sep, *lab_args = sys.argv[1:]
if sep != "--":
    sys.exit("usage: labproc.py SPANS_JSON SPAWN_TIME -- <lab arguments>")

import rainbowlab.cli  # noqa: E402  (timed: start-up ends here)

startup_s = time.monotonic() - float(spawned)
import spans  # noqa: E402

recorder = spans.Recorder()
spans.instrument(recorder)
try:
    code = rainbowlab.cli.main(lab_args)
finally:
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump({"startup_s": startup_s, "spans": recorder.spans}, fh)
sys.exit(code)
