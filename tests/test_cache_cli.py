import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowlab
from rainbowlab.antiramsey import ArRecord, ar_exact
from rainbowlab.cache import (
    Cache,
    CacheError,
    ar_record,
    ar_record_from_text,
    ar_record_to_text,
    turan_record,
    turan_record_from_text,
    turan_record_to_text,
)
from rainbowlab import constructions as cons
from rainbowlab.cli import _hash_file, main
from rainbowlab.constructions import complete_graph
from rainbowlab.core import HyperGraph, HyperGraphFamily, disjoint_union, from_text, to_text
from rainbowlab.turan import ex_exact, singleton

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
        assert back.status == "bounds" and (back.lo, back.hi) == (rec.lo, rec.hi)


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
        assert rec.status == "bounds" and rec.lo == rec.value <= rec.hi
        lo, hi = bounds(rec.lo, rec.hi)
        path.write_text(text.replace(f"bounds:{rec.lo}:{rec.hi}", f"bounds:{lo}:{hi}", 1))
        with pytest.raises(CacheError):
            Cache(tmp_path / "cache").load_ar(6, 1, K3)
        assert run(tmp_path, *argv) == 2

    def test_ar_bounds_record_needs_a_witness(self, tmp_path):
        argv, path = _planted(tmp_path, "ar", "ar", "-n", "6", "-t", "1", "-F")
        head = path.read_text().split("\n")[:2]
        assert ar_record_from_text(path.read_text()).value > 1
        path.write_text("\n".join(head) + "\nnowitness\n")
        with pytest.raises(CacheError):
            Cache(tmp_path / "cache").load_ar(6, 1, K3)
        assert run(tmp_path, *argv) == 2


class TestCache:
    def test_store_load_verify(self, tmp_path):
        cache = Cache(tmp_path)
        fam = singleton(K3)
        rec = turan_record(cache, 5, fam)
        again = cache.load_turan(5, fam)
        assert again.value == rec.value
        arec = ar_record(cache, 5, 1, K3)
        assert cache.load_ar(5, 1, K3).value == arec.value

    def test_tampered_witness_rejected(self, tmp_path):
        cache = Cache(tmp_path)
        fam = singleton(K3)
        rec = turan_record(cache, 5, fam)
        path = cache._turan_path(5, rec.family_key)
        text = path.read_text()
        # claim one more edge than the witness carries
        bad = text.replace("value=6", "value=7")
        path.write_text(bad)
        with pytest.raises(CacheError):
            cache.load_turan(5, fam)

    def test_tampered_ar_witness_rejected(self, tmp_path):
        cache = Cache(tmp_path)
        rec = ar_record(cache, 4, 2, K2)
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

    def test_ar_record_without_witness_gets_r_from_F(self, tmp_path):
        cache = Cache(tmp_path)
        edge3 = HyperGraph(3, 3, [(0, 1, 2)])
        rec = ar_record(cache, 4, 1, edge3)
        assert rec.witness is None and rec.value == 1
        assert cache.load_ar(4, 1, edge3).r == 3

    def test_recompute_byte_identical(self, tmp_path):
        cache = Cache(tmp_path)
        fam = singleton(K3)
        turan_record(cache, 5, fam, manifest=cache.manifest_id(["x"], {}))
        path = cache._turan_path(5, turan_record(cache, 5, fam).family_key)
        first = path.read_bytes()
        path.unlink()
        turan_record(cache, 5, fam, manifest=cache.manifest_id(["x"], {}))
        assert path.read_bytes() == first

    def test_manifest_id_ignores_wall_time(self, tmp_path):
        cache = Cache(tmp_path)
        a = cache.write_manifest(["lab", "x"], {"f": "1"}, 1.0, ["v"])
        b = cache.write_manifest(["lab", "x"], {"f": "1"}, 99.0, ["v"])
        assert a == b

    def test_env_var_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LAB_CACHE_DIR", str(tmp_path / "envcache"))
        cache = Cache()
        turan_record(cache, 4, singleton(K3))
        assert (tmp_path / "envcache" / "turan").exists()


def run(tmp_path, *argv):
    return main(["--cache-dir", str(tmp_path / "cache"), *argv])


class TestCli:
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
        # ex(4, K2) and ex(4, 2K2)
        turan_record(cache, 4, singleton(disjoint_union(K2, 1)))
        turan_record(cache, 4, singleton(disjoint_union(K2, 2)))
        good = ar_exact(4, 2, K2)
        # fabricate an impossible value below the unconditional lower bound
        fake = ArRecord(4, 2, 2, good.F_key, 1, None, "exact")
        cache.store_ar(fake)
        assert run(tmp_path, "verify", "sandwich", "-n", "4", "-t", "2", "-F", str(k2)) == 1

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
        code = "import sys, rainbowlab.cli; print('numpy' in sys.modules)"
        src = str(Path(rainbowlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

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
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "report", *argv.split(), "-F", str(k3))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not list((tmp_path / "cache").rglob("*"))

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
        assert run(tmp_path, "verify", check, "-n", "6", "-t", "1", "-F", str(k3)) == 2
        assert "insufficient records: no exact" in capsys.readouterr().err
        for kind in ("turan", "ar", "manifests"):
            assert not list((tmp_path / "cache" / kind).glob("*"))

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
