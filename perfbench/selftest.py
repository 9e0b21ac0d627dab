"""Self-test of the benchmark's checks: each must reject a wrong answer.

    python3 perfbench/selftest.py

Runs one README session and one ``ar_exact`` call on the checkout's code,
shows that the checks accept their answers, then feeds every check a
deliberately wrong value and shows that it is rejected.  Last, it runs the
``session-warm`` workload with an understated record planted in its filled
cache (``ex(6,K3) = 8``, true value 9), which the program itself accepts, and
shows that the workload reports ``correct: false``.  Takes about a minute
and a half; exits 1 on the first check that lets a wrong answer through.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run

FAILED = []


def expect(name, fails, reject):
    ok = bool(fails) == reject
    verdict = "ok  " if ok else "FAIL"
    print(f"{verdict} {name}: {'rejected' if fails else 'accepted'}" + (f" ({fails[0]})" if fails else ""))
    if not ok:
        FAILED.append(name)


def replace(text, old, new):
    assert old in text, (old, text)
    return text.replace(old, new, 1)


def session_checks(b):
    d = b.fresh_dir()
    children, _, _ = b.run_session(d, traced=False)
    outs = [c.out for c in children]
    files = {name: (d / name).read_text() for name in checks.SESSION_FILES}
    records = b.records(d)
    ex = b.oracle.ex
    expect("README session as computed", checks.check_session(outs, files, ex), reject=False)
    expect("cached records as computed", checks.check_records(records, ex), reject=False)

    wrong_outs = {
        "ex(5,K3) = 5 (Mantel)": (4, "value=6", "value=5"),
        "ar(5,K3) = 6 (Erdos-Simonovits-Sos)": (5, "value=5", "value=6"),
        "sandwich verdict VIOLATION": (6, "holds", "VIOLATION"),
        "fact21 coloring with 11 colors": (7, "ncolors=10", "ncolors=11"),
        "ar(6,2K3) = 9, below the sandwich": (9, "value=12", "value=9"),
        "gap column at n=6 off by one": (10, " 3 ", " 2 "),
        "identity verdict holds at t_max = 0": (11, "out-of-range", "holds"),
        "ar(6,3K2) = 20, above the sandwich": (12, "value=7", "value=20"),
        "reduction verdict VIOLATION": (14, "holds", "VIOLATION"),
        "derived delta = 2": (15, "delta=3", "delta=2"),
        "girth-5 row n=9: ex = 13 makes gap 7": (16, "   8        144", "   7        144"),
        "smoothness row n=6 holds": (17, "1/8  False", "1/8   True"),
        "fact51 grid with a failing row": (18, "fact51 grid complete (all hold)", "20 20 1 False\nfact51 grid complete"),
    }
    for name, (i, old, new) in wrong_outs.items():
        bad = list(outs)
        bad[i] = replace(bad[i], old, new)
        expect(name, checks.check_session(bad, files, ex), reject=True)

    bad_files = dict(files)
    bad_files["fano.hg"] = replace(files["fano.hg"], "2 5 6", "1 5 6")
    expect("fano.hg with a repeated pair", checks.check_session(outs, bad_files, ex), reject=True)
    colors = checks.parse_col(files["inner.col"])[3]
    two_triangles = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    rainbow, k = [], 0
    for i, e in enumerate(checks.colex_edges(6, 2)):
        k += e in two_triangles
        rainbow.append(k if e in two_triangles else 7 + i % 4)
    bad_files = dict(files)
    bad_files["inner.col"] = "2 6 10\n" + " ".join(map(str, rainbow)) + "\n"
    expect("inner.col on 10 colors with a rainbow 2K3", checks.check_session(outs, bad_files, ex), reject=True)
    expect(
        "rainbow K6 passed off as a 15-color no-rainbow-2K3 coloring",
        checks.check_coloring("K6", 2, 6, 15, list(range(1, 16)), checks.tile("K3", 2), 15),
        reject=True,
    )
    expect(
        "coloring on 10 colors where value - 1 = 11",
        checks.check_coloring("ar", 2, 6, 10, colors, checks.tile("K3", 2), 11),
        reject=True,
    )

    for family, text in records:
        fields, body = checks.parse_record(text)
        if fields["kind"] == "TURAN" and family == ("K3", "C4") and fields["n"] == "9":
            bad = replace(text, "value=12", "value=11")
            expect("record ex(9,{K3,C4}) = 11", checks.check_records([(family, bad)], ex), reject=True)
        if fields["kind"] == "AR" and fields["n"] == "6" and fields["t"] == "3":
            head, meta, col = text.split("\n", 2)
            r, n, nc, cols = checks.parse_col(col)
            # fresh colors on 01 and 23, which with 45 (color 6) make a rainbow 3K2
            cols = [{0: nc + 1, 5: nc + 2}.get(i, c) for i, c in enumerate(cols)]
            bad = "\n".join([replace(head, "value=7", "value=9"), meta, f"{r} {n} {nc + 2}\n" + " ".join(map(str, cols)) + "\n"])
            expect("record ar(6,3K2) = 9 with a rainbow witness", checks.check_records([(family, bad)], ex), reject=True)
    expect("record with an unknown family", checks.check_records([(None, records[0][1])], ex), reject=True)

    failing = run.Child(code=1, out="", err="", secs=0.1, maxrss_kb=1)
    with contextlib.redirect_stderr(io.StringIO()):
        rnd = run.session_round([failing] * len(checks.SESSION), 1.0, [], [])
    expect("a command that exits 1 counts as failed", [1] if rnd.failed == len(checks.SESSION) else [], reject=True)


def ladder_checks(b):
    sys.path.insert(0, str(run.SRC))
    from rainbowlab.antiramsey import ar_exact
    from rainbowlab.core import HyperGraph

    ex = b.oracle.ex
    for shape, t in (("K3", 1), ("C4", 1), ("K3", 2)):
        rec = ar_exact(6, t, HyperGraph(*checks.SHAPES[shape]))
        w = rec.witness
        witness = [w.r, w.n, w.ncolors, list(w.colors)]
        label = f"ar(6,{t}{shape})"
        expect(label + " as computed", checks.check_ar(6, shape, t, rec.value, witness, ex), reject=False)
        expect(label + " + 1", checks.check_ar(6, shape, t, rec.value + 1, witness, ex), reject=True)
        rainbow = [w.r, w.n, w.ncolors, [1 + i % w.ncolors for i in range(len(w.colors))]]
        expect(label + " with a cyclic recoloring", checks.check_ar(6, shape, t, rec.value, rainbow, ex), reject=True)
    expect(
        "ar(6,K4) = 12 (Montellano-Ballesteros-Neumann-Lara)",
        checks.check_ar(6, "K4", 1, 12, None, ex),
        reject=True,
    )
    expect("ar(6,2K3) = 30, above the sandwich", checks.check_ar(6, "K3", 2, 30, None, ex), reject=True)


def plant_understated(d):
    """Overwrite the cached ex(6,K3) record with value 8 and an 8-edge
    triangle-free witness, K_{3,3} minus an edge."""
    (path,) = [
        p
        for p in (d / "cache" / "turan").glob("n6_*.rec")
        if checks.parse_record(p.read_text())[0]["value"] == "9"
    ]
    head, meta, _ = path.read_text().split("\n", 2)
    edges = [e for e in checks.colex_edges(6, 2) if e[0] < 3 <= e[1]][:8]
    body = "2 6 8\n" + "".join(f"{a} {b}\n" for a, b in edges)
    path.write_text(replace(head, "value=9", "value=8") + "\n" + meta + "\n" + body)


def main():
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        b = run.Bench(tmp, seconds=0, trace=0)
        b.import_setup()
        session_checks(b)
        ladder_checks(b)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failures, result = run.run("session-warm", 0, 0, after_fill=plant_understated)
    expect("session-warm with ex(6,K3) = 8 planted", failures, reject=True)
    differs = [f for f in failures if "differs from the cold pass" in f]
    expect("  ... and its stdout differs from the cold pass", differs, reject=True)
    mantel = [f for f in failures if f.startswith("TURAN n=6 ") and "expected 9" in f]
    expect("  ... and the cached record fails Mantel", mantel, reject=True)
    accepted = result["failed"] == 0
    print(f"{'ok  ' if accepted else 'FAIL'} the program accepts the planted record (failed = {result['failed']})")
    if not accepted:
        FAILED.append("planted record accepted")
    print(f"{len(FAILED)} self-test failures")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
