"""tools/frontier.py: one JSON line per named case, exit 2 on an unknown one."""

import json
import subprocess
import sys
from pathlib import Path

FRONTIER = Path(__file__).resolve().parents[1] / "tools" / "frontier.py"


def frontier(tmp_path, *cases):
    return subprocess.run(
        [sys.executable, str(FRONTIER), *cases], cwd=tmp_path, capture_output=True, text=True
    )


def test_one_case_prints_one_json_line(tmp_path):
    # ar(7, C4) = floor(4 * 7 / 3) = 9 (Alon 1983), exact, so lo = hi = value
    done = frontier(tmp_path, "7:C4")
    assert done.returncode == 0 and done.stderr == ""
    (line,) = done.stdout.splitlines()
    row = json.loads(line)
    assert set(row) == {"case", "value", "status", "lo", "hi", "nodes", "closed_by", "seconds"}
    del row["seconds"]
    assert row == {
        "case": "7:C4",
        "value": 9,
        "status": "exact",
        "lo": 9,
        "hi": 9,
        "nodes": 12_818,
        "closed_by": "search",
    }
    assert not list(tmp_path.iterdir())  # no cache written


def test_unknown_case_exits_two(tmp_path):
    done = frontier(tmp_path, "7:C4", "7:C5")
    assert done.returncode == 2 and done.stdout == ""
    assert "unknown case '7:C5'" in done.stderr
