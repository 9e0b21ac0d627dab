"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are exact (integer equality / inequality); each criterion
also enforces its wall-clock budget.
"""

import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import rainbowlab
from rainbowlab import antiramsey as anti
from rainbowlab import constructions as cons
from rainbowlab import turan as tu
from rainbowlab.cache import Records
from rainbowlab.core import (
    HyperGraph,
    HyperGraphFamily,
    canonical_form,
    complete,
    contains_member,
    disjoint_union,
    is_isomorphic,
    to_text,
)

K2 = HyperGraph(2, 2, [(0, 1)])
K3 = cons.complete_graph(3)
E3 = HyperGraph(3, 3, [(0, 1, 2)])


class _Criterion:
    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit = limit_s
        self.t0 = None

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.name}): {status} [{dt:.2f}s]")
        if exc_type is None:
            assert dt < self.limit, f"criterion {self.number} exceeded {self.limit}s ({dt:.2f}s)"
        return False


def test_criterion_1_edge_sum_identity():
    with _Criterion(1, "edge-sum identity", 1.0):
        for k in (3, 4, 5):
            for l in (3, 4, 5):
                fam = cons.edge_sum_family(cons.cycle(k), cons.cycle(l))
                assert len(fam.members) == 1
                assert is_isomorphic(fam.members[0], cons.cycle(k + l - 2))


def test_criterion_2_zoo_conformance():
    with _Criterion(2, "zoo conformance", 1.0):
        fano = cons.fano()
        assert to_text(fano) == "3 7 7\n0 1 2\n2 3 4\n1 3 5\n0 4 5\n0 3 6\n1 4 6\n2 5 6\n"
        seen_forms = set()
        for r in range(3, 8):
            T = cons.generalized_triangle(r)
            assert (T.n, len(T.edges)) == (2 * r - 1, 3)
            seen_forms.add(canonical_form(T))
        for r in (2, 3):
            C = cons.expanded_triangle(r)
            assert (C.r, C.n, len(C.edges)) == (2 * r, 3 * r, 3)
        assert (cons.f7().n, len(cons.f7().edges)) == (7, 4)
        assert (cons.f32().n, len(cons.f32().edges)) == (5, 4)
        assert (cons.f43().n, len(cons.f43().edges)) == (7, 5)
        assert (cons.k43_sqcup_k33().n, len(cons.k43_sqcup_k33().edges)) == (7, 4)
        for k, r in ((2, 3), (3, 3), (2, 4)):
            M = cons.matching(k, r)
            assert (M.n, len(M.edges), M.max_degree()) == (k * r, k, 1)
            L = cons.sunflower(k, r)
            assert (L.n, len(L.edges)) == (1 + k * (r - 1), k)
            assert L.degree(0) == k
        for l, r in ((4, 3), (5, 4)):
            Km = cons.complete_uniform(l, r, minus=True)
            assert (Km.n, len(Km.edges)) == (l, comb(l, r) - 1)
        for k in (4, 5, 6):
            C = cons.tight_cycle(k)
            assert (C.n, len(C.edges)) == (k, k)
            Cm = cons.tight_cycle_minus(k)
            assert (Cm.n, len(Cm.edges)) == (k, k - 1)
        assert len(seen_forms) == 5  # distinct objects get distinct forms


def _dual_oracle_matrix():
    matrix = []
    for n in range(3, 7):
        matrix.append((n, tu.singleton(K3)))
        matrix.append((n, HyperGraphFamily(2, [K3, cons.cycle(4)])))
        matrix.append((n, tu.singleton(K2)))
        matrix.append((n, tu.singleton(E3)))
        matrix.append((n, tu.singleton(complete(4, 3))))
        matrix.append((n, tu.singleton(disjoint_union(K3, 2))))
    return [(n, fam) for n, fam in matrix if n >= fam.r and comb(n, fam.r) <= 20]


def test_criterion_3_turan_dual_oracle():
    with _Criterion(3, "turan dual oracle", 300.0):
        matrix = _dual_oracle_matrix()
        for n, fam in matrix:
            value, _ = tu.ex_enumerate(n, fam)
            rec = tu.ex_exact(n, fam)
            assert rec.is_exact() and rec.value == value, (n, fam)
            assert tu.verify_witness(rec, fam)
        assert len(matrix) >= 20
        # value recorded by the enumeration oracle: girth-5 maximum on 6 vertices
        assert tu.ex_enumerate(6, HyperGraphFamily(2, [K3, cons.cycle(4)]))[0] == 6


def test_criterion_4_fact21_certification():
    with _Criterion(4, "fact 2.1 certification", 120.0):
        cases = (
            [(K2, t, n) for t in (1, 2) for n in (4, 5, 6)]
            + [(K3, 1, n) for n in (5, 6)]
            + [(E3, 1, n) for n in (4, 5)]
        )
        for F, t, n in cases:
            rec = tu.ex_exact(n, tu.singleton(disjoint_union(F, t)))
            chi = anti.build_coloring_fact21(n, t, F, rec)  # certifies internally
            assert chi.ncolors == rec.value + 1
            assert anti.find_rainbow_copy(chi, disjoint_union(F, t + 1)) is None
            # a no-rainbow-(t+1)F coloring on ex(n,tF)+1 colors: ar >= ex + 2


def test_criterion_5_fact31_certification():
    with _Criterion(5, "fact 3.1 certification", 300.0):
        inner_rec = anti.ar_exact(6, 2, K3)
        inner = inner_rec.witness
        assert anti.verify_no_rainbow(inner, K3, 2)
        chi = anti.build_coloring_fact31(7, 1, K3, inner)
        assert anti.find_rainbow_copy(chi, disjoint_union(K3, 3)) is None
        crossing = comb(7, 2) - comb(6, 2)
        assert chi.ncolors == crossing + inner.ncolors
        # a no-rainbow-3K3 coloring on crossing + (ar(6,2K3)-1) colors


def test_criterion_6_sandwich():
    with _Criterion(6, "sandwich invariant", 1800.0):
        records = Records()
        for n, s, F in ((4, 2, K2), (5, 2, K2), (5, 1, K3)):
            rec = anti.ar_exact(n, s, F)
            assert rec.is_exact()
            records.put(rec)
            records.put(tu.ex_exact(n, tu.singleton(disjoint_union(F, s))))
            if s >= 2:
                records.put(tu.ex_exact(n, tu.singleton(disjoint_union(F, s - 1))))
            v = anti.sandwich_check(n, s, F, records)
            assert v.holds, v


def test_criterion_7_containment_transfer():
    with _Criterion(7, "containment transfer", 120.0):
        for F in (K3, cons.fano(), cons.generalized_triangle(3)):
            esf = cons.edge_sum_family(F, F)
            for member in cons.minus_family(F).members:
                blowup = cons.blow_up(member, 2)
                assert contains_member(blowup, esf), F


def test_criterion_8_numeric_facts():
    with _Criterion(8, "numeric facts", 60.0):
        for r in (2, 3, 4):
            for n in range(20, 61):
                t_cap = 0
                while (t_cap + 1) * (5 * r + 1) <= n - r:
                    t_cap += 1
                for t in range(t_cap + 1):
                    assert tu.fact51_check(n, t, r).holds, (n, t, r)
        table = Records()
        for n in range(4, 10):
            table.put(tu.ex_exact(n, tu.singleton(K3)))
        for n in range(6, 10):
            t = 1
            while 2 * t <= n - 2:
                assert tu.fact52_check(K3, n, t, table).holds, (n, t)
                t += 1
        reports = [
            tu.lemma53_report(K3, n, 2, table, tu.derived_quantities(K3, table, 9).pi_hat)
            for n in range(7, 10)
        ]
        assert all(row.note.startswith("advisory") for row in reports)


AR_DETERMINISM_MATRIX = [(4, 2, K2), (5, 2, K2), (5, 1, K3)]


def _determinism_summary():
    """Value, witness and node count of every criterion-9 case, as plain data."""
    out = []
    for n, fam in _dual_oracle_matrix():
        rec = tu.ex_exact(n, fam)
        out.append(["ex", n, rec.family_key, rec.value, to_text(rec.witness), rec.nodes])
    for n, t, F in AR_DETERMINISM_MATRIX:
        rec = anti.ar_exact(n, t, F)
        colors = None if rec.witness is None else list(rec.witness.colors)
        out.append(["ar", n, t, rec.value, colors, rec.nodes])
    return out


def _summary_in_fresh_interpreter(hash_seed):
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "import test_acceptance as ta; print(json.dumps(ta._determinism_summary()))"
    )
    src = str(Path(rainbowlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    tests_dir = str(Path(__file__).resolve().parent)
    done = subprocess.run(
        [sys.executable, "-c", code, tests_dir], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_criterion_9_determinism():
    with _Criterion(9, "determinism", 1800.0):
        first = _determinism_summary()
        assert len(first) == len(_dual_oracle_matrix()) + len(AR_DETERMINISM_MATRIX)
        assert _determinism_summary() == first
        # round-trip through JSON so both sides compare as the same plain types
        first = json.loads(json.dumps(first))
        assert _summary_in_fresh_interpreter(1) == first
        assert _summary_in_fresh_interpreter(2) == first
