import argparse
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowlab
from rainbowlab.antiramsey import ArRecord, EdgeColoring, ar_exact
from rainbowlab.cache import (
    Cache,
    CacheError,
    Records,
    ar_record_from_text,
    ar_record_to_text,
    turan_record_from_text,
    turan_record_to_text,
)
from rainbowlab import constructions as cons
from rainbowlab import cli
from rainbowlab.cli import _hash_file, main
from rainbowlab.constructions import complete_graph
from rainbowlab.core import HyperGraph, HyperGraphFamily, disjoint_union, family_key, from_text, to_text
from rainbowlab.turan import MissingRecordError, ex_exact, singleton

K2 = HyperGraph(2, 2, [(0, 1)])
K3 = complete_graph(3)


class TestRecordFormats:
    def test_turan_round_trip(self):
        rec = ex_exact(5, singleton(K3))
        text = turan_record_to_text(rec, manifest="abc123")
        back = turan_record_from_text(text)
        assert (back.n, back.value, back.status, back.family_key) == (
            rec.n,
            rec.value,
            rec.status,
            rec.family_key,
        )
        assert back.witness == rec.witness

    def test_ar_round_trip(self):
        rec = ar_exact(5, 1, K3)
        back = ar_record_from_text(ar_record_to_text(rec, manifest="m"))
        assert (back.n, back.t, back.value, back.status) == (5, 1, 5, "exact")
        assert back.witness == rec.witness

    def test_ar_no_witness(self):
        rec = ar_exact(4, 1, K2)
        back = ar_record_from_text(ar_record_to_text(rec))
        assert back.value == 1 and back.witness is None

    def test_bounds_status(self):
        rec = ar_exact(5, 1, K3, budget=20)
        back = ar_record_from_text(ar_record_to_text(rec))
        assert back.status == "bounds" and (back.value, back.hi) == (rec.value, rec.hi)


#: (record kind, text to replace, replacement): header faults the parsers reject
HEADER_FAULTS = [
    ("turan", "value=6 ", ""),  # missing field
    ("turan", "status=exact", "status=exact extra=1"),  # extra field
    ("turan", "value=6", "value=six"),  # non-integer value
    ("turan", "value=6", "value=06"),  # not the writer's serialization
    ("turan", "n=5 fam=", "fam=5 n="),  # fields out of order
    ("turan", "meta solver=", "meta version="),  # unknown meta field
    ("ar", "value=5 ", ""),  # missing field
    ("ar", "status=exact", "status=bounds:5"),  # malformed bounds status
    ("ar", "status=exact", "status=bounds:x:7"),  # non-integer bound
    ("ar", "status=exact", "status=done"),  # unknown status
]


@pytest.mark.parametrize("kind,old,new", HEADER_FAULTS)
def test_header_fault_rejected(tmp_path, kind, old, new):
    k3 = tmp_path / "k3.hg"
    run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
    argv = ["turan", "-n", "5", "--forbid", str(k3)] if kind == "turan" else ["ar", "-n", "5", "-t", "1", "-F", str(k3)]
    assert run(tmp_path, *argv) == 0
    (path,) = (tmp_path / "cache" / kind).iterdir()
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    parse = turan_record_from_text if kind == "turan" else ar_record_from_text
    with pytest.raises(CacheError):
        parse(path.read_text())
    assert run(tmp_path, *argv) == 2


def _planted(tmp_path, kind, *argv):
    """Run ``lab *argv K3-file --budget 20`` on a fresh cache; return that
    argv and the path of the one record it writes."""
    k3 = tmp_path / "k3.hg"
    run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
    argv = [*argv, str(k3), "--budget", "20"]
    assert run(tmp_path, *argv) == 0
    (path,) = (tmp_path / "cache" / kind).iterdir()
    return argv, path


class TestInconsistentRecords:
    """Records whose header contradicts itself or its witness fail to load,
    whatever their status, and a command that reads one exits 2."""

    def test_lower_bound_turan_record_must_match_its_witness(self, tmp_path):
        argv, path = _planted(tmp_path, "turan", "turan", "-n", "7", "--forbid")
        text = path.read_text()
        rec = turan_record_from_text(text)
        assert rec.status == "lower_bound_only" and len(rec.witness.edges) == rec.value < 40
        path.write_text(text.replace(f"value={rec.value} ", "value=40 ", 1))
        with pytest.raises(CacheError):
            Cache(tmp_path / "cache").load_turan(7, singleton(K3))
        assert run(tmp_path, *argv) == 2

    def test_turan_record_with_a_fitting_edgeless_member_must_be_empty(self, tmp_path):
        # an edgeless member on at most n vertices forces ex = 0, so a
        # triangle-free witness with edges overstates the value
        e3, k3 = tmp_path / "e3.hg", tmp_path / "k3.hg"
        e3.write_text(to_text(HyperGraph(2, 3, [])))
        k3.write_text(to_text(K3))
        argv = ["turan", "-n", "5", "--forbid", str(e3), "--forbid", str(k3)]
        assert run(tmp_path, *argv) == 0
        (path,) = (tmp_path / "cache" / "turan").iterdir()
        head, meta, body = path.read_text().split("\n", 2)
        assert "value=0 status=exact" in head and body == "2 5 0\n"
        path4 = HyperGraph(2, 5, [(0, 1), (1, 2), (2, 3)])
        path.write_text(f"{head.replace('value=0', 'value=3')}\n{meta}\n{to_text(path4)}")
        fam = HyperGraphFamily(2, [HyperGraph(2, 3, []), K3])
        with pytest.raises(CacheError):
            Cache(tmp_path / "cache").load_turan(5, fam)
        assert run(tmp_path, *argv) == 2

    @pytest.mark.parametrize(
        "bounds",
        [lambda lo, hi: (lo - 1, hi), lambda lo, hi: (lo, lo - 1)],
        ids=["lo-below-value", "hi-below-lo"],
    )
    def test_ar_bounds_must_hold_the_value(self, tmp_path, bounds):
        argv, path = _planted(tmp_path, "ar", "ar", "-n", "6", "-t", "1", "-F")
        text = path.read_text()
        rec = ar_record_from_text(text)
        assert rec.status == "bounds" and rec.value <= rec.hi
        lo, hi = bounds(rec.value, rec.hi)
        path.write_text(text.replace(f"bounds:{rec.value}:{rec.hi}", f"bounds:{lo}:{hi}", 1))
        with pytest.raises(CacheError):
            Cache(tmp_path / "cache").load_ar(6, 1, K3)
        assert run(tmp_path, *argv) == 2

    def test_ar_bounds_record_needs_a_witness(self, tmp_path):
        argv, path = _planted(tmp_path, "ar", "ar", "-n", "6", "-t", "1", "-F")
        head, meta, _ = path.read_text().split("\n", 2)
        assert ar_record_from_text(path.read_text()).value > 1
        # as planted, and with value 1, which no searched target has
        for head in (head, re.sub(r"value=\d+ status=bounds:\d+:", "value=1 status=bounds:1:", head)):
            path.write_text(f"{head}\n{meta}\nnowitness\n")
            assert ar_record_from_text(path.read_text()).witness is None
            with pytest.raises(CacheError):
                Cache(tmp_path / "cache").load_ar(6, 1, K3)
            assert run(tmp_path, *argv) == 2

    def test_ar_exact_record_of_value_one_needs_a_one_edge_target(self, tmp_path):
        # ar(5, K3) = 5; only a one-edge target has ar = 1 with no witness
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        argv = ["ar", "-n", "5", "-t", "1", "-F", str(k3)]
        assert run(tmp_path, *argv) == 0
        (path,) = (tmp_path / "cache" / "ar").iterdir()
        head, meta, _ = path.read_text().split("\n", 2)
        assert "value=5 status=exact" in head
        path.write_text(f"{head.replace('value=5', 'value=1')}\n{meta}\nnowitness\n")
        with pytest.raises(CacheError):
            Cache(tmp_path / "cache").load_ar(5, 1, K3)
        assert run(tmp_path, *argv) == 2

    def test_turan_witness_of_another_uniformity_fails_verification(self, tmp_path, capsys):
        # ex(5, K3) = 6, with a 3-graph of six edges as witness
        k3 = tmp_path / "k3.hg"
        k3.write_text(to_text(K3))
        argv = ["turan", "-n", "5", "--forbid", str(k3)]
        assert run(tmp_path, *argv) == 0
        (path,) = (tmp_path / "cache" / "turan").iterdir()
        head, meta, _ = path.read_text().split("\n", 2)
        assert "value=6 status=exact" in head
        triples = HyperGraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4)])
        path.write_text(f"{head}\n{meta}\n{to_text(triples)}")
        with pytest.raises(CacheError):
            Cache(tmp_path / "cache").load_turan(5, singleton(K3))
        capsys.readouterr()
        assert run(tmp_path, *argv) == 2
        assert capsys.readouterr().err.startswith("error: witness verification failed")


class TestCache:
    def test_store_load_verify(self, tmp_path):
        cache = Cache(tmp_path)
        fam = singleton(K3)
        rec = Records(cache, "").turan(fam, 5)
        again = cache.load_turan(5, fam)
        assert again.value == rec.value
        arec = Records(cache, "").ar(K3, 5, 1)
        assert cache.load_ar(5, 1, K3).value == arec.value

    def test_files_take_the_umask(self, tmp_path):
        # a cache shared between users must be readable by them: its files get
        # the mode open() gives, not the owner-only mode of a temp file
        k3 = tmp_path / "k3.hg"
        old = os.umask(0o022)
        try:
            assert run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3)) == 0
            assert run(tmp_path, "construct", "fact21", "-n", "6", "-t", "1", "-F", str(k3)) == 0
        finally:
            os.umask(old)
        files = [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
        assert {p.parent.name for p in files} == {"turan", "manifests", "colorings"}
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in files} == {p.name: 0o644 for p in files}

    def test_tampered_witness_rejected(self, tmp_path):
        cache = Cache(tmp_path)
        fam = singleton(K3)
        rec = Records(cache, "").turan(fam, 5)
        path = cache._turan_path(5, rec.family_key)
        text = path.read_text()
        # claim one more edge than the witness carries
        bad = text.replace("value=6", "value=7")
        path.write_text(bad)
        with pytest.raises(CacheError):
            cache.load_turan(5, fam)

    def test_tampered_ar_witness_rejected(self, tmp_path):
        cache = Cache(tmp_path)
        rec = Records(cache, "").ar(K2, 4, 2)
        path = cache._ar_path(4, 2, rec.F_key)
        text = path.read_text()
        lines = text.split("\n")
        # replace the witness with an all-distinct coloring (has a rainbow 2K2)
        lines[2] = "2 4 6"
        lines[3] = "1 2 3 4 5 6"
        bad = "\n".join(lines)
        path.write_text(bad.replace("value=4", "value=7"))
        with pytest.raises(CacheError):
            cache.load_ar(4, 2, K2)

    def test_ar_record_with_wrong_F_key_rejected(self, tmp_path):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        assert run(tmp_path, "ar", "-n", "5", "-t", "1", "-F", str(k3)) == 0
        cache = Cache(tmp_path / "cache")
        path = cache._ar_path(5, 1, ar_exact(5, 1, K3).F_key)
        text = path.read_text()
        path.write_text(re.sub(r"F=[0-9a-f]{16}", "F=0000000000000000", text))
        with pytest.raises(CacheError):
            cache.load_ar(5, 1, K3)
        assert run(tmp_path, "ar", "-n", "5", "-t", "1", "-F", str(k3)) == 2

    def test_only_a_one_edge_target_record_has_no_witness(self, tmp_path):
        cache = Cache(tmp_path)
        edge3 = HyperGraph(3, 3, [(0, 1, 2)])
        rec = Records(cache, "").ar(edge3, 4, 1)
        assert rec.witness is None and rec.value == 1
        assert cache.load_ar(4, 1, edge3) == rec._replace(closed_by="cache")
        # out of budget before any search, ar(6, 3K2) keeps the one-class seed
        rec = ar_exact(6, 3, K2, budget=0)
        assert rec.witness == EdgeColoring(2, 6, 1, [1] * 15)
        cache.store_ar(rec)
        back = cache.load_ar(6, 3, K2)
        assert (back.status, back.value, back.hi) == ("bounds", 2, 16)
        assert back.witness == rec.witness

    def test_recompute_byte_identical(self, tmp_path):
        cache = Cache(tmp_path)
        fam = singleton(K3)
        Records(cache, cache.manifest_id(["x"], {})).turan(fam, 5)
        path = cache._turan_path(5, Records(cache, "").turan(fam, 5).family_key)
        first = path.read_bytes()
        path.unlink()
        Records(cache, cache.manifest_id(["x"], {})).turan(fam, 5)
        assert path.read_bytes() == first

    def test_records_compute_only_with_a_manifest(self, tmp_path):
        cache = Cache(tmp_path)
        fam = singleton(K3)
        with pytest.raises(MissingRecordError, match="no exact turan record for n=5"):
            Records(cache).turan(fam, 5)
        assert not (tmp_path / "turan").exists()
        rec = Records(cache, "").turan(fam, 5)
        assert Records(cache).turan(fam, 5) == rec._replace(nodes=0, closed_by="cache")
        # a record computed under a budget comes back inexact; only a store
        # with a manifest replaces it
        assert not Records(cache, "").turan(fam, 7, budget=20).is_exact()
        with pytest.raises(MissingRecordError):
            Records(cache).turan(fam, 7)
        assert Records(cache, "").turan(fam, 7).value == 12
        assert Records(cache).ex(fam, 7) == 12

    def test_manifest_id_ignores_wall_time(self, tmp_path):
        cache = Cache(tmp_path)
        a = cache.write_manifest(["lab", "x"], {"f": "1"}, 1.0, ["v"])
        b = cache.write_manifest(["lab", "x"], {"f": "1"}, 99.0, ["v"])
        assert a == b

    def test_env_var_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LAB_CACHE_DIR", str(tmp_path / "envcache"))
        cache = Cache()
        Records(cache, "").turan(singleton(K3), 4)
        assert (tmp_path / "envcache" / "turan").exists()


def _loaded_by(code, cwd=None):
    """The names in sys.modules after running code in a fresh interpreter
    in directory ``cwd``; the code may print, as a `lab` command does."""
    src = str(Path(rainbowlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += "; import sys; print(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.splitlines()[-1].split())


def run(tmp_path, *argv):
    return main(["--cache-dir", str(tmp_path / "cache"), *argv])


class TestCli:
    @pytest.mark.parametrize(
        "argv,message",
        [
            ("report facts --r-range 2:2 --n-range 1:3", "need n >= r, got n=1, r=2"),
            (
                "construct fact31 -n 6 -t 7 -F {k3} --inner {inner}",
                "fact31 needs 0 <= t <= n - r, got t=7, n=6, r=2",
            ),
        ],
        ids=["facts", "fact31"],
    )
    def test_error_names_the_fault(self, tmp_path, capsys, argv, message):
        k3, inner = tmp_path / "k3.hg", tmp_path / "inner.col"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        run(tmp_path, "construct", "fact21", "-n", "6", "-t", "1", "-F", str(k3), "-o", str(inner))
        capsys.readouterr()
        assert run(tmp_path, *argv.format(k3=k3, inner=inner).split()) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_zoo_emit_golden(self, tmp_path, capsys):
        out = tmp_path / "f.hg"
        assert run(tmp_path, "zoo", "emit", "fano", "-o", str(out)) == 0
        H = from_text(out.read_text())
        assert H.n == 7 and len(H.edges) == 7

    def test_zoo_list(self, tmp_path, capsys):
        assert run(tmp_path, "zoo", "list") == 0
        assert "fano" in capsys.readouterr().out

    def test_turan_and_cache_reuse(self, tmp_path, capsys):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        assert run(tmp_path, "turan", "-n", "5", "--forbid", str(k3)) == 0
        out1 = capsys.readouterr().out
        assert "value=6" in out1
        assert run(tmp_path, "turan", "-n", "5", "--forbid", str(k3)) == 0

    def test_verify_sandwich_flow(self, tmp_path, capsys):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        # missing records -> 2
        assert run(tmp_path, "verify", "sandwich", "-n", "5", "-t", "1", "-F", str(k3)) == 2
        run(tmp_path, "ar", "-n", "5", "-t", "1", "-F", str(k3))
        run(tmp_path, "turan", "-n", "5", "--forbid", str(k3))
        assert run(tmp_path, "verify", "sandwich", "-n", "5", "-t", "1", "-F", str(k3)) == 0
        assert "holds" in capsys.readouterr().out

    def test_verify_reduction_flow(self, tmp_path, capsys):
        k2 = tmp_path / "k2.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "2", "-o", str(k2))
        assert run(tmp_path, "verify", "reduction", "-n", "6", "-t", "1", "-F", str(k2)) == 2
        run(tmp_path, "ar", "-n", "6", "-t", "3", "-F", str(k2))
        run(tmp_path, "ar", "-n", "5", "-t", "2", "-F", str(k2))
        assert run(tmp_path, "verify", "reduction", "-n", "6", "-t", "1", "-F", str(k2)) == 0
        assert "holds" in capsys.readouterr().out

    def test_verify_sandwich_violation_exit_one(self, tmp_path):
        k2 = tmp_path / "k2.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "2", "-o", str(k2))
        cache = Cache(tmp_path / "cache")
        # ex(6, 2K2) and ex(6, 3K2)
        Records(cache, "").turan(singleton(disjoint_union(K2, 2)), 6)
        Records(cache, "").turan(singleton(disjoint_union(K2, 3)), 6)
        # fabricate an impossible value below the lower bound ex(6, 2K2) + 2 = 7;
        # its one-color witness has no rainbow 3K2, so the record loads
        fake = ArRecord(6, 3, family_key(singleton(K2)), 2, EdgeColoring(2, 6, 1, [1] * 15), "exact")
        cache.store_ar(fake)
        assert run(tmp_path, "verify", "sandwich", "-n", "6", "-t", "3", "-F", str(k2)) == 1

    def test_construct_pipeline(self, tmp_path, capsys):
        k3 = tmp_path / "k3.hg"
        inner = tmp_path / "inner.col"
        outer = tmp_path / "outer.col"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        assert (
            run(tmp_path, "construct", "fact21", "-n", "6", "-t", "1", "-F", str(k3), "-o", str(inner))
            == 0
        )
        assert (
            run(
                tmp_path,
                "construct",
                "fact31",
                "-n",
                "7",
                "-t",
                "1",
                "-F",
                str(k3),
                "--inner",
                str(inner),
                "-o",
                str(outer),
            )
            == 0
        )
        text = outer.read_text()
        assert text.startswith("2 7 16\n")

    def test_report_gap(self, tmp_path, capsys):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        assert run(tmp_path, "report", "gap", "-F", str(k3), "--n-range", "5:6") == 0
        out = capsys.readouterr().out
        assert "t_max" in out and " 5 " in out

    def test_derived(self, tmp_path, capsys):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        assert run(tmp_path, "derived", "-F", str(k3), "-n", "6") == 0
        assert "delta=3" in capsys.readouterr().out

    def test_report_smoothness(self, tmp_path, capsys):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        assert run(tmp_path, "report", "smoothness", "-F", str(k3), "--n-range", "5:6", "--pi", "1/2") == 0
        out = capsys.readouterr().out
        assert "pi = 1/2" in out and "holds" in out

    def test_report_facts(self, tmp_path, capsys):
        assert run(tmp_path, "report", "facts", "--r-range", "2:2", "--n-range", "20:25") == 0
        assert "all hold" in capsys.readouterr().out

    def test_report_manifest_records_wall_time(self, tmp_path):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        argv = ["--cache-dir", str(tmp_path / "cache"), "report", "gap", "-F", str(k3), "--n-range", "5:6"]
        assert main(argv) == 0
        mid = Cache(tmp_path / "cache").manifest_id(argv, {str(k3): _hash_file(k3)})
        doc = json.loads((tmp_path / "cache" / "manifests" / f"{mid}.json").read_text())
        assert doc["wall_time"] > 0

    def test_report_gap_builds_the_edge_sum_family_once(self, tmp_path, monkeypatch):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        calls = []
        real = cons.edge_sum_family
        monkeypatch.setattr(cons, "edge_sum_family", lambda F, F2: calls.append(F) or real(F, F2))
        assert run(tmp_path, "report", "gap", "-F", str(k3), "--n-range", "5:9") == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv,count",
        [
            # ex(n, K3) for n = 4..9, though it asks twice for each ex(n-1)
            (["report", "smoothness", "--n-range", "5:9", "--pi", "1/2"], 6),
            # ex(n, K3) and ex(n, {K3, C4}) for n = 5..9
            (["report", "gap", "--n-range", "5:9"], 10),
            # ar(6, 2K3), ex(6, K3) and ex(6, {K3, C4}); ex(6, K3) is asked twice
            (["verify", "identity", "-n", "6", "-t", "1"], 3),
        ],
        ids=["smoothness", "gap", "identity"],
    )
    def test_a_command_loads_each_record_once(self, tmp_path, monkeypatch, argv, count):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        for warm in (["ar", "-n", "6", "-t", "2"], ["report", "smoothness", "--n-range", "5:9"]):
            assert run(tmp_path, *warm, "-F", str(k3)) == 0
        assert run(tmp_path, "report", "gap", "--n-range", "5:9", "-F", str(k3)) == 0
        loaded = []

        def counted(load):
            def wrapper(self, *key):
                loaded.append(load(self, *key))
                return loaded[-1]

            return wrapper

        for name in ("load_turan", "load_ar"):
            monkeypatch.setattr(Cache, name, counted(getattr(Cache, name)))
        assert run(tmp_path, *argv, "-F", str(k3)) == 0
        assert len(loaded) == count and None not in loaded

    def test_turan_manifest_says_what_closed_the_search(self, tmp_path):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        argv = ["--cache-dir", str(tmp_path / "cache"), "turan", "-n", "5", "--forbid", str(k3)]
        mid = Cache(tmp_path / "cache").manifest_id(argv, {str(k3): _hash_file(k3)})
        manifest = tmp_path / "cache" / "manifests" / f"{mid}.json"
        verdicts, records = [], []
        for _ in range(2):  # computed, then a cache hit
            assert main(argv) == 0
            verdicts.append(json.loads(manifest.read_text())["verdicts"])
            records.append([p.read_bytes() for p in (tmp_path / "cache" / "turan").iterdir()])
        assert verdicts == [
            ["value=6", "exact", "closed_by=kns"],
            ["value=6", "exact", "closed_by=cache"],
        ]
        assert records[0] == records[1] and b"closed_by" not in records[0][0]

    def test_ar_manifest_says_what_closed_the_search(self, tmp_path):
        c4 = tmp_path / "c4.hg"
        run(tmp_path, "zoo", "emit", "cycle", "-k", "4", "-o", str(c4))
        argv = ["--cache-dir", str(tmp_path / "cache"), "ar", "-n", "6", "-t", "1", "-F", str(c4)]
        mid = Cache(tmp_path / "cache").manifest_id(argv, {str(c4): _hash_file(c4)})
        manifest = tmp_path / "cache" / "manifests" / f"{mid}.json"
        verdicts, records = [], []
        for _ in range(2):  # computed, then a cache hit
            assert main(argv) == 0
            verdicts.append(json.loads(manifest.read_text())["verdicts"])
            records.append([p.read_bytes() for p in (tmp_path / "cache" / "ar").iterdir()])
        assert verdicts == [
            ["value=8", "exact", "closed_by=sandwich"],
            ["value=8", "exact", "closed_by=cache"],
        ]
        assert records[0] == records[1] and b"closed_by" not in records[0][0]

    def test_cli_import_leaves_numpy_unloaded(self):
        # numpy serves only the enumeration oracle; `lab` start-up must not pay for it
        assert "numpy" not in _loaded_by("import rainbowlab.cli")

    def test_cli_import_leaves_heavy_modules_unloaded(self):
        # records are namedtuples, so no `dataclasses` (which pulls in `inspect`),
        # only `zoo` needs the constructions, and SHA-256 comes from the builtin
        # module, not from `hashlib` (OpenSSL)
        new = _loaded_by("import rainbowlab.cli") - _loaded_by("pass")
        assert not new & {"dataclasses", "inspect", "rainbowlab.constructions", "hashlib", "_hashlib"}

    def test_cli_import_loads_no_command_modules(self):
        # each command imports what it runs; the import itself loads none of it
        new = _loaded_by("import rainbowlab.cli") - _loaded_by("pass")
        solvers = {"rainbowlab.cache", "rainbowlab.turan", "rainbowlab.antiramsey"}
        assert not new & (solvers | {"fractions", "json"})

    @pytest.mark.parametrize(
        "line,unloaded",
        [
            ("zoo list", {"rainbowlab.cache", "rainbowlab.turan", "rainbowlab.antiramsey"}),
            ("turan -n 5 --forbid k3.hg", {"rainbowlab.antiramsey"}),
            ("ar -n 5 -t 1 -F k3.hg", {"fractions"}),
        ],
        ids=["zoo", "turan", "ar"],
    )
    def test_command_loads_only_what_it_runs(self, tmp_path, line, unloaded):
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(tmp_path / "k3.hg"))
        argv = ["--cache-dir", "cache", *line.split()]
        loaded = _loaded_by(f"from rainbowlab.cli import main; assert main({argv!r}) == 0", tmp_path)
        assert not (loaded - _loaded_by("pass")) & unloaded

    def test_malformed_input_exit_two(self, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("bogus\n")
        assert run(tmp_path, "turan", "-n", "5", "--forbid", str(bad)) == 2

    def test_zero_denominator_pi_exit_two(self, tmp_path):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        for pi in ("1/0", "half"):
            with pytest.raises(SystemExit) as exc:
                run(tmp_path, "report", "smoothness", "-F", str(k3), "--n-range", "5:6", "--pi", pi)
            assert exc.value.code == 2

    @pytest.mark.parametrize("pi", ["3/2", "-1/3"])
    def test_out_of_range_pi_exit_two(self, tmp_path, capsys, pi):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        capsys.readouterr()
        for form in ([f"--pi={pi}"], ["--pi", pi]):
            assert run(tmp_path, "report", "smoothness", "-F", str(k3), "--n-range", "5:6", *form) == 2
            out, err = capsys.readouterr()
            assert out == "" and "pi must lie in [0, 1]" in err

    @pytest.mark.parametrize("budget", ["-5", "-1", "ten", "1.5"])
    @pytest.mark.parametrize("cmd", ["turan -n 6 --forbid", "ar -n 5 -t 1 -F"], ids=["turan", "ar"])
    def test_bad_budget_exit_two(self, tmp_path, cmd, budget):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *cmd.split(), str(k3), "--budget", budget)
        assert exc.value.code == 2
        assert not list((tmp_path / "cache").rglob("*"))
        assert run(tmp_path, *cmd.split(), str(k3), "--budget", "0") == 0

    @pytest.mark.parametrize(
        "argv",
        [
            "gap --n-range 5",
            "gap --n-range 9:5",
            "smoothness --n-range a:b --pi 1/2",
            "facts --r-range 4:2",
            "facts --n-range 20",
        ],
    )
    def test_bad_range_exit_two(self, tmp_path, capsys, argv):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        capsys.readouterr()
        F = [] if argv.startswith("facts") else ["-F", str(k3)]
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "report", *argv.split(), *F)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not list((tmp_path / "cache").rglob("*"))

    @pytest.mark.parametrize(
        "argv",
        [
            "gap -F {k3} --n-range 0:2",
            "smoothness -F {k3} --n-range 0:2 --pi 1/2",
            "facts --r-range 2:2 --n-range 1:3",
        ],
        ids=["gap", "smoothness", "facts"],
    )
    def test_failed_report_prints_nothing(self, tmp_path, capsys, argv):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        capsys.readouterr()
        assert run(tmp_path, "report", *argv.format(k3=k3).split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_report_facts_takes_no_pattern(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "report", "facts", "-F", str(tmp_path / "missing.hg"))
        assert exc.value.code == 2

    def test_contradicting_records_exit_two(self, tmp_path, capsys):
        # a planted understated ex(5, K3) = 4 (a 4-cycle) against the computed
        # ex(5, {K3, C4}) = 5
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        assert run(tmp_path, "turan", "-n", "5", "--forbid", str(k3)) == 0
        (path,) = (tmp_path / "cache" / "turan").iterdir()
        head, meta, _ = path.read_text().split("\n", 2)
        c4 = HyperGraph(2, 5, [(0, 1), (1, 2), (0, 3), (2, 3)])
        path.write_text(f"{head.replace('value=6', 'value=4')}\n{meta}\n{to_text(c4)}")
        capsys.readouterr()
        assert run(tmp_path, "report", "gap", "-F", str(k3), "--n-range", "5:5") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
        assert "n=5" in err and "= 4 <" in err and "= 5" in err

    def test_negative_t_exit_two(self, tmp_path, capsys):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        capsys.readouterr()
        assert run(tmp_path, "ar", "-n", "5", "-t", "-1", "-F", str(k3)) == 2
        out, err = capsys.readouterr()
        assert out == "" and "t=-1" in err

    @pytest.mark.parametrize(
        "argv",
        [["derived", "-n", "2"], ["report", "smoothness", "--n-range", "2:4", "--pi", "1/2"]],
        ids=["derived", "smoothness"],
    )
    def test_delta_below_r_plus_one_names_the_n_asked_for(self, tmp_path, capsys, argv):
        # delta(2, K3) needs ex(1, K3), which does not exist; the error names n=2, not n=1
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        capsys.readouterr()
        assert run(tmp_path, *argv, "-F", str(k3)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "n=2," in err and "n=1" not in err

    @pytest.mark.parametrize("cmd", ["turan -n 12 --forbid", "ar -n 12 -t 1 -F"], ids=["turan", "ar"])
    def test_over_capacity_exit_two(self, tmp_path, capsys, cmd):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        capsys.readouterr()
        assert run(tmp_path, *cmd.split(), str(k3)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        for kind in ("turan", "ar"):
            assert not list((tmp_path / "cache" / kind).glob("*"))

    def test_missing_input_file_exit_two(self, tmp_path):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        missing = str(tmp_path / "missing.col")
        argv = ["construct", "fact31", "-n", "7", "-t", "1", "-F", str(k3), "--inner", missing]
        assert run(tmp_path, *argv) == 2
        assert run(tmp_path, "ar", "-n", "5", "-t", "1", "-F", str(tmp_path / "missing.hg")) == 2

    @pytest.mark.parametrize("check", ["sandwich", "identity", "reduction"])
    def test_verify_on_empty_cache_computes_nothing(self, tmp_path, capsys, check):
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        # n = 9: the reduction at t = 1 reads ar(n, 3K3), which needs 9 vertices
        assert run(tmp_path, "verify", check, "-n", "9", "-t", "1", "-F", str(k3)) == 2
        assert "insufficient records: no exact" in capsys.readouterr().err
        for kind in ("turan", "ar", "manifests"):
            assert not list((tmp_path / "cache" / kind).glob("*"))

    @pytest.mark.parametrize(
        "check,n,t,size",
        # the ar record each needs is of 2K3, 3K3 and 2K3: on 6, 9 and 6 vertices
        [("sandwich", "5", "2", 6), ("reduction", "4", "1", 9), ("identity", "5", "1", 6)],
    )
    def test_verify_target_too_large_exit_two(self, tmp_path, capsys, check, n, t, size):
        # no search can make the record, so the error names the size, not the cache
        k3 = tmp_path / "k3.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "3", "-o", str(k3))
        capsys.readouterr()
        assert run(tmp_path, "verify", check, "-n", n, "-t", t, "-F", str(k3)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: target cannot embed: t*v(F) = {size} > n = {n}\n"

    @pytest.mark.parametrize("check,t", [("reduction", "-1"), ("sandwich", "0"), ("identity", "-1")])
    def test_verify_t_outside_the_statement_exit_two(self, tmp_path, capsys, monkeypatch, check, t):
        k2 = tmp_path / "k2.hg"
        run(tmp_path, "zoo", "emit", "complete-graph", "-l", "2", "-o", str(k2))
        # the records that t = -1 would otherwise read: ar(6, 1K2) and ar(7, 2K2)
        run(tmp_path, "ar", "-n", "6", "-t", "1", "-F", str(k2))
        run(tmp_path, "ar", "-n", "7", "-t", "2", "-F", str(k2))
        capsys.readouterr()
        loads = []
        for name in ("load_ar", "load_turan"):
            monkeypatch.setattr(Cache, name, lambda self, *key: loads.append(key))
        assert run(tmp_path, "verify", check, "-n", "6", "-t", t, "-F", str(k2)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.rstrip().endswith(f"={t}")
        assert loads == []

    def test_unknown_zoo_exit_two(self, tmp_path):
        assert run(tmp_path, "zoo", "emit", "nonesuch", "-o", str(tmp_path / "x.hg")) == 2

    def test_readme_session(self, tmp_path, monkeypatch):
        # the command walkthrough in README.md must run verbatim
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("LAB_CACHE_DIR", str(tmp_path / "cache"))
        session = [
            "zoo list",
            "zoo emit fano -o fano.hg",
            "zoo emit complete-graph -l 2 -o k2.hg",
            "zoo emit complete-graph -l 3 -o k3.hg",
            "turan -n 5 --forbid k3.hg",
            "ar -n 5 -t 1 -F k3.hg",
            "verify sandwich -n 5 -t 1 -F k3.hg",
            "construct fact21 -n 6 -t 1 -F k3.hg -o inner.col",
            "construct fact31 -n 7 -t 1 -F k3.hg --inner inner.col -o outer.col",
            "ar -n 6 -t 2 -F k3.hg",
            "report gap -F k3.hg --n-range 6:6",
            "verify identity -n 6 -t 1 -F k3.hg",
            "ar -n 6 -t 3 -F k2.hg",
            "ar -n 5 -t 2 -F k2.hg",
            "verify reduction -n 6 -t 1 -F k2.hg",
            "derived -F k3.hg -n 6",
            "report gap -F k3.hg --n-range 5:9",
            "report smoothness -F k3.hg --n-range 5:9 --pi 1/2",
            "report facts --r-range 2:4 --n-range 20:60",
        ]
        for line in session:
            assert main(line.split()) == 0, line
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
        documented = [ln.split("#")[0].strip()[len("lab "):] for ln in block.splitlines() if ln.startswith("lab ")]
        assert documented == session


def _subcommands(parser, prefix=()):
    """The argument prefix of every command and sub-command of ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield (*prefix, name)
                yield from _subcommands(sub, (*prefix, name))


def _parsed(parser, argv, capsys):
    """What ``parser`` makes of ``argv``: exit code (None when it returns),
    stdout, stderr and the parsed arguments."""
    try:
        args, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    return (code, *capsys.readouterr(), args)


class TestParser:
    """``build_parser(cmd)`` builds one command's subparser; for every argv
    that ``_command`` reads as that command, it must parse and print exactly
    what the full parser does."""

    def _same(self, argv, capsys):
        cmd = cli._command(argv)
        full = _parsed(cli.build_parser(), argv, capsys)
        assert _parsed(cli.build_parser(cmd), argv, capsys) == full
        return cmd, full

    @pytest.mark.parametrize("path", list(_subcommands(cli.build_parser())), ids=" ".join)
    def test_help_of_every_command(self, capsys, path):
        cmd, (code, out, err, _) = self._same([*path, "-h"], capsys)
        assert (cmd, code, err) == (path[0], 0, "")
        assert out.startswith(f"usage: lab {' '.join(path)} ")

    @pytest.mark.parametrize(
        "line,cmd",
        [
            ("turan", "turan"),
            ("turan -n 5 --forbid k3.hg extra", "turan"),
            ("ar -n x -t 1 -F k3.hg", "ar"),
            ("ar -n 5 -t 1 -F k3.hg --budget -1", "ar"),
            ("zoo", "zoo"),
            ("zoo bogus", "zoo"),
            ("construct fact31 -n 6 -t 1 -F k3.hg", "construct"),
            ("verify", "verify"),
            ("report facts --r-range 4:2", "report"),
            ("report smoothness -F k3.hg --n-range 5:6 --pi half", "report"),
        ],
    )
    def test_usage_errors(self, capsys, line, cmd):
        read, (code, *_) = self._same(line.split(), capsys)
        assert (read, code) == (cmd, 2)

    @pytest.mark.parametrize(
        "line,cmd",
        [
            ("--cache-dir=X turan -n 5 --forbid k3.hg", "turan"),
            ("--cache-dir zoo ar -n 5 -t 1 -F k3.hg", "ar"),
            ("--cache X report gap -F k3.hg --n-range 5:9", "report"),
            ("--c=X verify sandwich -n 5 -t 1 -F k3.hg", "verify"),
            ("--cache-dir=X derived -h", "derived"),
            ("--cache-dir zoo ar -h", "ar"),
            ("--cache X zoo list -h", "zoo"),
            ("--cache-dir zoo zoo emit fano", "zoo"),
        ],
    )
    def test_cache_dir_before_the_command(self, capsys, line, cmd):
        assert self._same(line.split(), capsys)[0] == cmd

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "-h",
            "--help turan",
            "bogus -h",
            "-- turan -h",
            "--cache-dir",
            "--cache-dir -h turan",
            "--cache-dir -- ar -h",
            "-x turan",
            "---cache-dir X turan",
            "--pi=1/2 report",
            "--cache-dir X",
        ],
    )
    def test_no_command_builds_the_full_parser(self, capsys, line):
        cmd, (code, _, _, _) = self._same(line.split(), capsys)
        assert cmd is None and code in (0, 2)
