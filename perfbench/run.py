"""Benchmark of rainbowlab: the README `lab` session on a cold and on a warm
cache, and a ladder of exact anti-Ramsey computations.

    python3 perfbench/run.py --workload session-cold --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it runs the code under ``src/`` of that
checkout, in child processes, inside ``.perfbench_work/``.  Every answer is
checked against values computed apart from the solvers (``checks.py``).  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics (from spans, ``spans.py``) with ``--trace 1``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable
#: interpreter start-ups per run that set-up times; set-up time is their median
IMPORT_CHECKS = 5


class SetupError(Exception):
    """The code under test cannot be run at all."""


@dataclass
class Child:
    code: int
    out: str
    err: str
    secs: float
    maxrss_kb: int


@dataclass
class Round:
    wall: float
    latencies: list
    maxrss_kb: int
    attempted: int
    failed: int
    failures: list
    procs: list = field(default_factory=list)


class Oracle:
    """The independent values of ``oracle.py``: ex(n, tF) by ``ex_enumerate``
    and the family keys of the session's records."""

    def __init__(self, bench):
        child = bench.spawn([PY, str(HERE / "oracle.py")], bench.run_dir)
        if child.code != 0:
            raise SetupError(f"oracle.py failed:\n{child.err}")
        data = json.loads(child.out)
        self._ex = {(n, s, t): v for n, s, t, v in data["ex"]}
        self.families = {key: tuple(f) for key, f in data["families"].items()}

    def ex(self, n, shape, t):
        return self._ex[n, shape, t]


class Bench:
    def __init__(self, run_dir, seconds, trace):
        self.run_dir = run_dir
        self.seconds = seconds
        self.trace = trace
        self.env = dict(os.environ)
        self.env.pop("LAB_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self._oracle = None
        self._dirs = 0

    @property
    def oracle(self):
        if self._oracle is None:
            self._oracle = Oracle(self)
        return self._oracle

    def fresh_dir(self):
        self._dirs += 1
        d = self.run_dir / f"d{self._dirs}"
        d.mkdir()
        return d

    def spawn(self, argv, cwd):
        """Run one child process to its end; its peak RSS comes from wait4."""
        err_path = self.run_dir / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                try:
                    out = proc.stdout.read()
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
            secs = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        errtext = err_path.read_text(errors="replace")
        return Child(proc.returncode, out.decode(errors="replace"), errtext, secs, usage.ru_maxrss)

    def import_setup(self):
        """Start the interpreter and import the package IMPORT_CHECKS times
        (the first also writes its bytecode); median seconds."""
        times = []
        for _ in range(IMPORT_CHECKS):
            child = self.spawn(
                [PY, "-c", "import rainbowlab.cli as m; print(m.__file__)"], self.run_dir
            )
            if child.code != 0:
                raise SetupError(f"cannot import rainbowlab from {SRC}:\n{child.err}")
            if Path(child.out.strip()).resolve() != SRC / "rainbowlab" / "cli.py":
                raise SetupError(f"rainbowlab was imported from {child.out.strip()}, not {SRC}")
            times.append(child.secs)
        return statistics.median(times)

    # -- the README session -----------------------------------------------------------

    def run_session(self, d, traced):
        """The README commands in order, one process each, in directory d."""
        children = []
        t0 = time.perf_counter()
        for i, line in enumerate(checks.SESSION):
            lab = ["--cache-dir", "cache", *line.split()]
            if traced:
                argv = [PY, str(HERE / "labproc.py"), f"spans{i}.json", repr(time.monotonic()), "--", *lab]
            else:
                argv = [PY, "-m", "rainbowlab.cli", *lab]
            children.append(self.spawn(argv, d))
        wall = time.perf_counter() - t0
        procs = []
        if traced:
            for i in range(len(checks.SESSION)):
                path = d / f"spans{i}.json"
                if path.exists():
                    procs.append(json.loads(path.read_text()))
                    path.unlink()
        return children, wall, procs

    def records(self, d):
        out = []
        for kind, key_field in (("turan", "fam"), ("ar", "F")):
            for path in sorted((d / "cache" / kind).glob("*.rec")):
                text = path.read_text()
                fields, _ = checks.parse_record(text)
                out.append((self.oracle.families.get(fields[key_field]), text))
        return out

    def check_session_dir(self, d, children):
        outs = [c.out if c.code == 0 else None for c in children]
        files = {name: (d / name).read_text() for name in checks.SESSION_FILES if (d / name).exists()}
        return checks.check_session(outs, files, self.oracle.ex) + checks.check_records(
            self.records(d), self.oracle.ex
        )


def session_round(children, wall, procs, failures):
    failed = sum(c.code != 0 for c in children)
    for line, c in zip(checks.SESSION, children):
        if c.code != 0:
            print(f"lab {line}: exit {c.code}\n{c.err}", file=sys.stderr)
    return Round(
        wall=wall,
        latencies=[c.secs for c in children],
        maxrss_kb=max(c.maxrss_kb for c in children),
        attempted=len(children),
        failed=failed,
        failures=failures,
        procs=procs,
    )


# -- workloads ---------------------------------------------------------------------------


def session_cold(b):
    setup_s = b.import_setup()

    def one_round(traced):
        d = b.fresh_dir()
        children, wall, procs = b.run_session(d, traced)
        failures = b.check_session_dir(d, children)
        shutil.rmtree(d)
        return session_round(children, wall, procs, failures)

    return setup_s, [], one_round


def session_warm(b, after_fill=None):
    """``after_fill(d)``, when given, edits the filled cache before any
    measured round (the self-test plants a wrong record with it)."""
    imports_s = b.import_setup()
    d = b.fresh_dir()
    cold, fill_s, _ = b.run_session(d, traced=False)
    bad = [f"lab {line}: exit {c.code}\n{c.err}" for line, c in zip(checks.SESSION, cold) if c.code]
    if bad:
        raise SetupError("the cold pass that fills the cache failed:\n" + "\n".join(bad))
    setup_failures = b.check_session_dir(d, cold)
    if after_fill is not None:
        after_fill(d)
    written = {name: (d / name).read_bytes() for name in checks.SESSION_FILES}
    records = {p: p.read_bytes() for p in (d / "cache").glob("*/*.rec")}

    def one_round(traced):
        children, wall, procs = b.run_session(d, traced)
        failures = b.check_session_dir(d, children)
        for line, c, ref in zip(checks.SESSION, children, cold):
            if c.code == 0 and c.out != ref.out:
                failures.append(f"lab {line}: stdout {c.out!r} differs from the cold pass {ref.out!r}")
        for name, data in written.items():
            if (d / name).read_bytes() != data:
                failures.append(f"{name}: differs from the cold pass")
        now = {p: p.read_bytes() for p in (d / "cache").glob("*/*.rec")}
        if now != records:
            failures.append("cached records changed during a warm round")
        return session_round(children, wall, procs, failures)

    return imports_s + fill_s, setup_failures, one_round


def ar_ladder(b):
    setup_s = b.import_setup()

    def one_round(traced):
        d = b.fresh_dir()
        argv = [PY, str(HERE / "ladder.py"), str(d / "calls.json")]
        if traced:
            argv.append(str(d / "spans.json"))
        child = b.spawn(argv, d)
        if child.code != 0:
            raise SetupError(f"the ladder process failed:\n{child.err}")
        calls = json.loads((d / "calls.json").read_text())["calls"]
        procs = [json.loads((d / "spans.json").read_text())] if traced else []
        shutil.rmtree(d)
        failures, secs = [], []
        for call in calls:
            if "error" in call:
                print(f"ar({checks.LADDER_N},{call['t']}{call['shape']}): {call['error']}", file=sys.stderr)
                continue
            secs.append(call["secs"])
            if call["status"] != "exact":
                failures.append(f"ar({checks.LADDER_N},{call['t']}{call['shape']}): status {call['status']}")
            failures += checks.check_ar(
                checks.LADDER_N, call["shape"], call["t"], call["value"], call["witness"], b.oracle.ex
            )
        return Round(
            wall=sum(secs),
            latencies=[child.secs],
            maxrss_kb=child.maxrss_kb,
            attempted=len(calls),
            failed=len(calls) - len(secs),
            failures=failures,
            procs=procs,
        )

    return setup_s, [], one_round


WORKLOADS = {"session-cold": session_cold, "session-warm": session_warm, "ar-ladder": ar_ladder}


def measure(b, setup_s, setup_failures, one_round):
    """The rounds of one run and its result object.

    Untraced, whole rounds until their measured time reaches ``b.seconds``
    (at least one).  Traced, one untraced round, the reference for the
    tracing overhead, then one traced round.
    """
    if b.trace:
        untraced, traced = one_round(False), one_round(True)
        done = [untraced, traced]
        layers = spans.layer_metrics(traced.procs, traced.wall, untraced.wall)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()}
    else:
        done = []
        while not done or sum(r.wall for r in done) < b.seconds:
            done.append(one_round(False))
        metrics = {
            "wall_s": {"value": statistics.median(r.wall for r in done), "unit": "s"},
            "cmd_p50_ms": {
                "value": 1000 * statistics.median(x for r in done for x in r.latencies),
                "unit": "ms",
            },
            "peak_rss_mb": {"value": max(r.maxrss_kb for r in done) / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    failures = setup_failures + [f for r in done for f in r.failures]
    return failures, {
        "correct": not failures,
        "attempted": sum(r.attempted for r in done),
        "failed": sum(r.failed for r in done),
        "metrics": metrics,
    }


def run(workload, seconds, trace, after_fill=None):
    """Run one workload in a fresh directory under .perfbench_work/; returns
    (check failures, result object)."""
    if not (SRC / "rainbowlab" / "cli.py").is_file():
        raise SetupError(f"no rainbowlab sources at {SRC}")
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        b = Bench(run_dir, seconds, trace)
        extra = {} if after_fill is None else {"after_fill": after_fill}
        return measure(b, *WORKLOADS[workload](b, **extra))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument(
        "--seed", type=int, default=0, help="accepted and unused: the inputs are fixed (see README)"
    )
    p.add_argument("--seconds", type=float, default=10.0, help="measured time per run (whole rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run still stops its child and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        failures, result = run(args.workload, args.seconds, args.trace)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
