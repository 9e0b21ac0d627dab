import functools
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowlab.constructions import (
    complete_graph,
    complete_uniform,
    cycle,
    edge_sum_family,
    f32,
    fano,
    matching,
)
from rainbowlab import core
from rainbowlab.core import (
    HyperGraph,
    HyperGraphFamily,
    all_edges_colex,
    complete,
    contains_member,
    disjoint_union,
    is_isomorphic,
)
from rainbowlab import turan as tu
from rainbowlab.turan import (
    CheckParams,
    MissingRecordError,
    TuranTable,
    derived_quantities,
    edge_sensitivity_gap,
    ex_enumerate,
    ex_exact,
    fact51_check,
    fact52_check,
    lemma53_report,
    singleton,
    smoothness_check,
    subgraph_copies,
    verify_witness,
)
from helpers import copies_brute
from test_acceptance import _dual_oracle_matrix
from test_antiramsey import CAP_SHAPES, first_leaf


K3 = complete_graph(3)
K2 = HyperGraph(2, 2, [(0, 1)])
E3 = HyperGraph(3, 3, [(0, 1, 2)])
GIRTH5 = HyperGraphFamily(2, [K3, cycle(4)])


@functools.cache
def _ex_brute(F, n):
    masks = [sum(1 << i for i in cp) for cp in copies_brute(F, n)]
    return max(
        x.bit_count() for x in range(1 << comb(n, F.r)) if all(x & c != c for c in masks)
    )


def ex_brute(F, n):
    """ex(n, F) by checking every edge subset of K_n^r against every copy
    from every injective vertex map (``copies_brute``)."""
    return comb(n, F.r) if F.n > n else _ex_brute(F, n)


@st.composite
def free_graphs(draw):
    """(F, m, G): an r-graph F on at most 4 vertices with an edge, a host size
    m with C(m-1, r) <= 10, and an F-free r-graph G on m vertices (a random
    greedy F-free subgraph of K_m^r, thinned at random)."""
    r = draw(st.sampled_from([2, 3]))
    v = draw(st.integers(r, 4))
    pool = list(itertools.combinations(range(v), r))
    F = HyperGraph(r, v, draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)))
    m = draw(st.integers(r + 1, 6))
    E = comb(m, r)
    masks = [sum(1 << i for i in cp) for cp in copies_brute(F, m)] if F.n <= m else []
    order = draw(st.permutations(range(E)))
    keep = draw(st.lists(st.booleans(), min_size=E, max_size=E))
    chosen = 0
    for j in order:
        x = chosen | 1 << j
        if keep[j] and all(x & c != c for c in masks):
            chosen = x
    edges = all_edges_colex(m, r)
    return F, m, HyperGraph(r, m, [edges[j] for j in range(E) if chosen >> j & 1])


def ladder(fam, lo, hi, **kw):
    table = TuranTable()
    for n in range(lo, hi + 1):
        table.put(ex_exact(n, fam, **kw))
    return table


class TestCopies:
    def test_triangles_in_k5(self):
        assert len(subgraph_copies(K3, 5)) == comb(5, 3)

    def test_tilings(self):
        assert len(subgraph_copies(disjoint_union(K3, 2), 6)) == 10
        assert len(subgraph_copies(disjoint_union(K2, 3), 6)) == 15  # perfect matchings

    def test_isolated_vertices_constrain_host_size(self):
        F = HyperGraph(2, 3, [(0, 1)])  # one edge plus an isolated vertex
        assert subgraph_copies(F, 2) == []
        assert len(subgraph_copies(F, 3)) == 3

    def test_fano_in_k7(self):
        # 30 distinct Fano planes on 7 points
        assert len(subgraph_copies(fano(), 7)) == 30

    @pytest.mark.parametrize(
        "F",
        [
            *(disjoint_union(F, t) for F in CAP_SHAPES.values() for t in (1, 2, 3)),
            fano(),
            HyperGraph(2, 6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)]),
            HyperGraph(2, 5, [(0, 2), (2, 3)]),
            HyperGraph(3, 5, [(0, 1, 3), (1, 3, 4)]),
            HyperGraph(3, 6, [(0, 1, 2), (2, 3, 4), (0, 1, 5)]),
        ],
        ids=[
            *(f"{t}{name}" for name in CAP_SHAPES for t in (1, 2, 3)),
            "Fano",
            "K3+P3",  # components that are not isomorphic
            "P3+2K1",  # isolated vertices
            "tight-pair+K1",
            "three-triples",
        ],
    )
    def test_against_injective_maps(self, F):
        for n in range(F.r, 8):
            copies = subgraph_copies(F, n)
            assert len(set(copies)) == len(copies)
            assert set(copies) == copies_brute(F, n), n

    def test_copy_masks_drop_exactly_the_dominated_masks(self):
        # {K3, K4} on 6 vertices: 35 masks, of which the 20 triangles contain
        # no other; kept in order of size
        fam = (K3, complete_graph(4))
        masks = {sum(1 << i for i in cp) for F in fam for cp in copies_brute(F, 6)}
        brute = {x for x in masks if not any(y != x and y & x == y for y in masks)}
        kept, edgeless = tu._copy_masks(fam, 6)
        assert (len(masks), len(kept), set(kept), edgeless) == (35, 20, brute, False)
        assert [x.bit_count() for x in kept] == sorted(x.bit_count() for x in kept)


class TestDualOracle:
    CASES = [
        (singleton(K3), range(4, 7)),
        (HyperGraphFamily(2, [K3, cycle(4)]), range(5, 7)),
        (singleton(K2), range(2, 7)),
        (singleton(E3), range(3, 7)),
        (singleton(disjoint_union(K3, 2)), range(6, 7)),
        (singleton(complete(4, 3)), range(4, 7)),
    ]

    def test_branch_and_bound_equals_enumeration(self):
        for fam, ns in self.CASES:
            for n in ns:
                if comb(n, fam.r) > 20:
                    continue
                value, _ = ex_enumerate(n, fam)
                rec = ex_exact(n, fam)
                assert rec.value == value, (fam, n)
                assert rec.is_exact()
                assert verify_witness(rec, fam)

    def test_enumeration_capacity(self):
        with pytest.raises(Exception):
            ex_enumerate(7, singleton(K3))  # 21 edges


class TestExExact:
    def test_single_edge_zero(self):
        for n in (3, 5):
            assert ex_exact(n, singleton(E3)).value == 0

    def test_k5_triangle_witness_is_bipartite_extremal(self):
        rec = ex_exact(5, singleton(K3))
        assert rec.value == 6
        K23 = HyperGraph(2, 5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        assert is_isomorphic(rec.witness, K23)

    def test_triangle_ladder(self):
        table = ladder(singleton(K3), 3, 9)
        expected = {3: 2, 4: 4, 5: 6, 6: 9, 7: 12, 8: 16, 9: 20}
        for n, v in expected.items():
            assert table.ex(singleton(K3), n) == v

    def test_girth_five_ladder(self):
        # extremal sizes of {triangle, quadrilateral}-free graphs
        girth5 = HyperGraphFamily(2, [K3, cycle(4)])
        for n, v in ((5, 5), (6, 6), (7, 8)):
            assert ex_exact(n, girth5).value == v

    def test_tetrahedron_ladder(self):
        # complements of minimum (n,4,3) covering designs: 4-1, 10-3, 20-6
        fam = singleton(complete(4, 3))
        for n, v in ((4, 3), (5, 7), (6, 14)):
            assert ex_exact(n, fam).value == v

    def test_nothing_embeds_gives_complete(self):
        rec = ex_exact(4, singleton(fano()))
        assert rec.value == comb(4, 3)
        assert rec.witness == complete(4, 3)

    def test_edgeless_member_convention(self):
        fam = singleton(K2).union(edge_sum_family(K2, K2))
        rec = ex_exact(5, fam)
        assert rec.value == 0 and len(rec.witness.edges) == 0

    def test_monotonicity_invariants(self):
        fam = singleton(K3)
        table = ladder(fam, 4, 8)
        for n in range(4, 8):
            lo, hi = table.ex(fam, n), table.ex(fam, n + 1)
            assert lo <= hi <= lo + comb(n, 1)
        # density sequence non-increasing
        dens = [Fraction(table.ex(fam, n), comb(n, 2)) for n in range(4, 9)]
        assert all(a >= b for a, b in zip(dens, dens[1:]))

    def test_superfamily_monotonicity(self):
        small = singleton(K3)
        big = HyperGraphFamily(2, [K3, cycle(4)])
        for n in (5, 6):
            assert ex_exact(n, big).value <= ex_exact(n, small).value

    def test_budget_truncation(self):
        rec = ex_exact(7, singleton(K3), budget=30)
        assert rec.status == "lower_bound_only"
        assert rec.value <= 12
        assert len(rec.witness.edges) == rec.value
        assert not contains_member(rec.witness, singleton(K3))


class TestLadder:
    def test_averaging_bound_against_enumeration(self):
        # ex(n) <= floor(n ex(n-1) / (n-r)) on brute-force values, before the
        # solver relies on it; members with isolated vertices included
        K3_plus_vertex = HyperGraph(2, 4, [(0, 1), (0, 2), (1, 2)])
        K43_minus_plus_vertex = HyperGraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        cases = [(n, fam) for n, fam in _dual_oracle_matrix() if n > fam.r]
        cases += [(n, singleton(K3_plus_vertex)) for n in (3, 4, 5, 6)]
        cases += [(n, singleton(K43_minus_plus_vertex)) for n in (4, 5, 6)]
        for n, fam in cases:
            value, _ = ex_enumerate(n, fam)
            assert value <= n * ex_enumerate(n - 1, fam)[0] // (n - fam.r), (n, fam)
            assert ex_exact(n, fam).value == value, (n, fam)

    @staticmethod
    def uncapped(n, fam):
        """Value and witness from searches run without the averaging cap."""
        edges = all_edges_colex(n, fam.r)
        value, mask = first_leaf(tu._ex_ladder(fam.r, fam.members)[0](n))
        return value, HyperGraph(fam.r, n, [e for i, e in enumerate(edges) if mask >> i & 1])

    @pytest.mark.parametrize(
        "fam, most",
        [(GIRTH5, 100_000), (singleton(K3), 5_000)],  # 2,065,657 and 302,407 without the ladder
        ids=["girth5", "triangle"],
    )
    def test_nine_vertex_node_counts(self, fam, most):
        rec = ex_exact(9, fam)
        assert rec.nodes < most
        assert rec.closed_by == "kns"
        assert (rec.value, rec.witness) == self.uncapped(9, fam)

    def test_degree_floor_on_the_nine_vertex_four_cycle(self):
        # 17,291,234 nodes without the degree floor, same value and witness;
        # the averaging bound (14) is loose by one
        rec = ex_exact(9, singleton(cycle(4)))
        assert (rec.value, rec.closed_by) == (13, "search")
        assert rec.nodes < 2_000_000
        star = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
        rest = [(1, 2), (1, 6), (3, 4), (3, 7), (5, 8), (6, 7), (6, 8), (7, 8)]
        assert rec.witness == HyperGraph(2, 9, star + rest)

    def test_degree_floor_changes_neither_value_nor_witness(self, monkeypatch):
        fam = singleton(cycle(4))
        rec = ex_exact(8, fam)
        run = tu._Ctx.run
        monkeypatch.setattr(tu._Ctx, "run", lambda self, search, below=None: run(self, search))
        plain = ex_exact(8, fam)
        assert (plain.value, plain.witness) == (rec.value, rec.witness)
        assert plain.closed_by == rec.closed_by
        assert rec.nodes < plain.nodes  # 47,219 against 490,505

    @pytest.mark.parametrize(
        "n, F, value, nodes, closed_by",
        [
            (8, cycle(4), 11, 47_219, "search"),
            (7, complete_uniform(4, 3), 23, 231_178, "search"),
            (7, f32(), 20, 78_583, "search"),
            (7, fano(), 30, 111_959, "search"),
            (9, disjoint_union(K3, 2), 24, 50_521, "kns"),
            (8, cycle(5), 16, 246_292, "kns"),
            (8, matching(3, 2), 13, 14_279, "search"),
        ],
        ids=["C4", "K4^3", "F3,2", "Fano", "2K3", "C5", "3K2"],
    )
    def test_exact_node_counts(self, n, F, value, nodes, closed_by):
        # the packing bound and the degree floor prune exactly these nodes;
        # a change to either shows here before it shows in a value
        rec = ex_exact(n, singleton(F))
        assert (rec.value, rec.nodes, rec.closed_by) == (value, nodes, closed_by)

    @settings(max_examples=150, deadline=None)
    @given(free_graphs())
    def test_degree_floor_lemma(self, case):
        # every F-free G on m vertices has deg(v) >= e(G) - ex(m-1, F)
        F, m, G = case
        floor = len(G.edges) - ex_brute(F, m - 1)
        assert min(G.degrees()) >= floor

    def test_vertex_floor_tables_on_thirty_vertices(self):
        # 1-uniform families reach many vertices: the packed tables of the
        # floors grow with the edges, not with the vertex subsets
        rec = ex_exact(30, singleton(HyperGraph(1, 2, [(0,), (1,)])))
        assert (rec.status, rec.value) == ("exact", 1)
        vec, ones, high = tu._vertex_fields(64, 1)
        assert vec == [1 << 8 * x for x in range(64)] and high == ones << 7

    def test_budget_runs_out_in_a_lower_rung(self):
        rungs = {}
        nodes = tu._climb(range(2, 9), *tu._ex_ladder(2, GIRTH5.members), 100, values=rungs)[3]
        assert 8 not in rungs and nodes == 101
        rec = ex_exact(9, GIRTH5, budget=100)
        assert (rec.status, rec.closed_by, rec.nodes) == ("lower_bound_only", "budget", 101)
        assert len(rec.witness.edges) == rec.value > 0
        assert not contains_member(rec.witness, GIRTH5)

    @pytest.mark.parametrize(
        "n, fam",
        [
            (7, singleton(K3)),
            (8, GIRTH5),
            (6, singleton(HyperGraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]))),
            (6, singleton(cycle(4))),
        ],
        ids=["K3", "girth5", "K4^3-", "C4"],
    )
    def test_budget_sweep(self, n, fam):
        # one budget over the rungs: it runs out below the top and in the top pass
        full = ex_exact(n, fam)
        rung, caps = tu._ex_ladder(fam.r, fam.members)
        # the nodes spent by the end of the lower rungs
        lower = tu._climb(range(fam.r, n), rung, caps, None, values={})[3]
        start = rung(n).start()[0]
        assert 0 < lower < full.nodes
        for budget in (0, 1, lower - 1, lower, (lower + full.nodes) // 2, full.nodes - 1):
            if budget >= full.nodes:
                continue
            rec = ex_exact(n, fam, budget=budget)
            assert (rec.status, rec.closed_by) == ("lower_bound_only", "budget")
            assert rec.nodes == budget + 1
            assert verify_witness(rec, fam)
            assert start <= len(rec.witness.edges) == rec.value <= full.value
            if budget < lower:  # the greedy start of the top rung
                assert rec.value == start
        assert ex_exact(n, fam, budget=full.nodes) == full

    def test_closed_by(self):
        assert ex_exact(5, singleton(E3)).closed_by == "trivial"
        assert ex_exact(6, GIRTH5).closed_by == "search"  # cap 6*5//4 = 7 > 6
        assert ex_exact(7, GIRTH5).closed_by == "kns"  # cap 7*6//5 = 8

    def test_verify_witness_reuses_a_family_without_edgeless_members(self, monkeypatch):
        rec = ex_exact(6, GIRTH5)
        calls = []
        real = core.canonical_form
        monkeypatch.setattr(core, "canonical_form", lambda H: calls.append(H) or real(H))
        assert verify_witness(rec, GIRTH5)
        assert calls == []


class TestDerived:
    def test_triangle_values(self):
        table = ladder(singleton(K3), 4, 6)
        dq6 = derived_quantities(K3, table, 6)
        assert dq6.delta_n == 3
        assert dq6.d_n == Fraction(2 * 9, 6) == 3
        dq5 = derived_quantities(K3, table, 5)
        assert dq5.d_n == Fraction(12, 5)
        assert dq5.pi_hat == Fraction(6, 10)

    def test_zero_for_single_edge(self):
        table = ladder(singleton(E3), 3, 5)
        dq = derived_quantities(E3, table, 5)
        assert dq.delta_n == 0 and dq.d_n == 0 and dq.pi_hat == 0

    def test_missing_record(self):
        with pytest.raises(MissingRecordError):
            derived_quantities(K3, TuranTable(), 6)


class TestSmoothness:
    def test_triangle_rows_frozen(self):
        table = ladder(singleton(K3), 4, 9)
        params = CheckParams(c1=Fraction(1, 100), c2=Fraction(1), pi=Fraction(1, 2), m=3)
        rows = smoothness_check(K3, params, table, range(5, 10))
        assert [(row.n, row.holds) for row in rows] == [
            (5, True),
            (6, False),
            (7, True),
            (8, False),
            (9, True),
        ]
        assert rows[1].lhs == Fraction(3, 5) and rows[1].rhs == Fraction(1, 8)

    def test_degenerate_flag(self):
        C4 = cycle(4)  # bipartite, hence degenerate
        table = ladder(singleton(C4), 3, 6)
        params = CheckParams(c1=Fraction(1), c2=Fraction(1), pi=Fraction(0), m=4)
        rows = smoothness_check(C4, params, table, range(4, 7))
        assert all(row.note == "degenerate: vacuous" and row.holds for row in rows)

    def test_pi_one_collapses_threshold(self):
        table = ladder(singleton(K3), 4, 6)
        params = CheckParams(c1=Fraction(1), c2=Fraction(1), pi=Fraction(1), m=3)
        rows = smoothness_check(K3, params, table, range(5, 7))
        for row in rows:
            assert row.rhs == 0
            assert row.holds == (row.lhs == 0)


class TestBoundednessFalsifier:
    def test_huge_c1_unsatisfiable(self):
        table = ladder(singleton(K3), 5, 5)
        params = CheckParams(c1=Fraction(10), c2=Fraction(1, 2), pi=Fraction(1, 2), m=3)
        assert tu.boundedness_falsifier(K3, params, 5, 5, table) == []

    def test_single_edge_never(self):
        table = ladder(singleton(K2), 2, 5)
        params = CheckParams(c1=Fraction(1, 1000), c2=Fraction(1), pi=Fraction(0), m=2)
        assert tu.boundedness_falsifier(K2, params, 5, 10, table) == []

    def test_extremal_bipartite_witness_found(self):
        table = ladder(singleton(K3), 5, 5)
        params = CheckParams(c1=Fraction(1, 1000), c2=Fraction(1), pi=Fraction(1, 2), m=3)
        hits = tu.boundedness_falsifier(K3, params, 5, 20, table, seed=1)
        assert hits
        for H in hits:
            assert not contains_member(H, singleton(K3))
            assert Fraction(H.max_degree()) >= Fraction(12, 5) + Fraction(1, 1000) * comb(4, 1)
        # direct computation: K_{2,3} itself meets both premises and is found
        K23 = HyperGraph(2, 5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        assert K23.max_degree() == 3 and Fraction(3) >= Fraction(12, 5) + Fraction(4, 1000)
        assert any(is_isomorphic(H, K23) for H in hits)


class TestGap:
    def test_union_family_is_triangle_and_c4(self):
        fam = singleton(K3).union(edge_sum_family(K3, K3))
        shapes = sorted((m.n, len(m.edges)) for m in fam)
        assert shapes == [(3, 3), (4, 4)]

    def test_frozen_values(self):
        fam_F = singleton(K3)
        fam_u = fam_F.union(edge_sum_family(K3, K3))
        table = TuranTable()
        for n in (5, 6, 7):
            table.put(ex_exact(n, fam_F))
            table.put(ex_exact(n, fam_u))
        g7 = edge_sensitivity_gap(K3, 7, table)
        assert (g7.gap, g7.threshold, g7.t_max) == (4, 108, 0)
        g5 = edge_sensitivity_gap(K3, 5, table)
        assert (g5.gap, g5.t_max) == (1, 0)

    def test_gap_nonnegative(self):
        fam_F = singleton(K3)
        fam_u = fam_F.union(edge_sum_family(K3, K3))
        table = TuranTable()
        for n in (5, 6):
            table.put(ex_exact(n, fam_F))
            table.put(ex_exact(n, fam_u))
        for n in (5, 6):
            assert edge_sensitivity_gap(K3, n, table).gap >= 0

    def test_single_edge_gap_zero(self):
        fam_F = singleton(K2)
        fam_u = fam_F.union(edge_sum_family(K2, K2))
        table = TuranTable()
        table.put(ex_exact(4, fam_F))
        table.put(ex_exact(4, fam_u))
        g = edge_sensitivity_gap(K2, 4, table)
        assert g.gap == 0 and g.t_max == 0


class TestFacts:
    def test_fact51_t_zero(self):
        res = fact51_check(10, 0, 2)
        assert res.holds and res.lhs == comb(10, 2)

    def test_fact51_known_case(self):
        assert fact51_check(100, 3, 2).holds

    def test_fact51_precondition(self):
        with pytest.raises(ValueError):
            fact51_check(20, 10, 2)

    def test_fact51_full_grid(self):
        for r in (2, 3, 4):
            for n in range(20, 61):
                t = 0
                while (t + 1) * (5 * r + 1) <= n - r:
                    t += 1
                for tt in range(t + 1):
                    assert fact51_check(n, tt, r).holds, (n, tt, r)

    def test_fact52_eight_vertex_case(self):
        table = ladder(singleton(K3), 4, 8)
        res = fact52_check(K3, 8, 2, table)
        assert res.rhs == 8
        assert res.lhs == abs(Fraction(2 * 16, 8) - Fraction(2 * 9, 6)) == 1
        assert res.holds

    def test_fact52_grid(self):
        table = ladder(singleton(K3), 4, 9)
        for n in range(6, 10):
            t = 1
            while 2 * t <= n - 2:
                assert fact52_check(K3, n, t, table).holds
                t += 1

    def test_lemma53_reports(self):
        table = ladder(singleton(K3), 4, 9)
        row = lemma53_report(K3, 9, 2, table, Fraction(1, 2))
        assert row.note.startswith("advisory")
        assert row.lhs == Fraction(8, 9)
