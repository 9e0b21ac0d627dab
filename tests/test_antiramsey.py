import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rainbowlab import turan
from rainbowlab.antiramsey import (
    ArTable,
    CertificationError,
    EdgeColoring,
    _ArRung,
    _ar_ladder,
    _leader,
    ar_exact,
    build_coloring_fact21,
    build_coloring_fact31,
    coloring_from_text,
    coloring_to_text,
    find_rainbow_copy,
    max_rainbow_subgraph,
    reduction_check,
    sandwich_check,
    stability_degree_census,
    verify_identity_thm15,
    verify_no_rainbow,
)
from rainbowlab.constructions import complete_graph, cycle, edge_sum_family
from rainbowlab.core import (
    FormatError,
    HyperGraph,
    all_edges_colex,
    colex_rank,
    complete,
    contains_member,
    disjoint_union,
)
from rainbowlab.turan import (
    TuranTable,
    _climb,
    _ex_ladder,
    _Search,
    ex_exact,
    singleton,
    subgraph_copies,
)

from helpers import ar_brute, ar_brute_witness, copies_brute, rainbow_brute

K2 = HyperGraph(2, 2, [(0, 1)])
K3 = complete_graph(3)
E3 = HyperGraph(3, 3, [(0, 1, 2)])
C4 = cycle(4)
K4 = complete_graph(4)

CAP_SHAPES = {
    "K2": K2,
    "K3": K3,
    "P3": HyperGraph(2, 3, [(0, 1), (1, 2)]),
    "C4": C4,
    "K4": K4,
    "E3": E3,
    "K4^3-": HyperGraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
}
#: every (n, t, shape) with C(n, r) <= 10 where tF fits
SMALL_CASES = [
    (n, t, name)
    for name, F in CAP_SHAPES.items()
    for n in range(F.n, 11)
    if comb(n, F.r) <= 10
    for t in range(1, n // F.n + 1)
]


def ar_matching(n, k):
    """ar(n, kK2) for n >= 2k + 1 (Chen, Li and Tu 2009)."""
    return comb(k - 2, 2) + (k - 2) * (n - k + 2) + 2


def ladder_caps(n, target):
    """The proven caps on A(n) = ar(n, target) - 1 by name, and the nodes of
    the values-only climbs that give them: the ``ex`` ladder up to n and the
    ``ar`` rungs below n.  On K_r^r, one edge, only the sandwich applies."""
    r = target.r
    ex = {}
    nodes = _climb(range(r, n + 1), *_ex_ladder(r, (target,)), None, values=ex)[3]
    if n == r:
        return {"sandwich": ex[n]}, nodes
    rung, caps = _ar_ladder(target, ex)
    A = {}
    nodes = _climb(range(r, n), rung, caps, None, nodes, values=A)[3]
    return caps(n, A[n - 1]), nodes


def first_leaf(ctx):
    """The value and witness of one rung of either solver, from two searches
    with no cap from the ladder: a value pass from the start, then a search
    from value-1 that stops at its first leaf."""
    value = ctx.run(_Search(*ctx.start())).best
    return value, ctx.run(_Search(value - 1, cap=value)).incumbent


def assert_rainbow_copy(chi, target, emb):
    """emb is an injective map of the target into K_n^r whose edge images
    carry pairwise distinct colors under chi."""
    m = emb.mapping
    assert len(m) == target.n == len(set(m)) and all(0 <= w < chi.n for w in m)
    cols = {chi.color_of([m[v] for v in e]) for e in target.edges}
    assert len(cols) == len(target.edges)


def random_coloring(rng, r, n):
    E = comb(n, r)
    ncolors = rng.randint(1, E)
    colors = [rng.randint(1, ncolors) for _ in range(E)]
    for c in range(1, ncolors + 1):  # force surjectivity
        colors[rng.randrange(E)] = c
    return EdgeColoring(r, n, len(set(colors)), _renumber(colors))


def _renumber(colors):
    seen = {}
    out = []
    for c in colors:
        if c not in seen:
            seen[c] = len(seen) + 1
        out.append(seen[c])
    return out


def _rgs(colors):
    """The restricted growth string of a partition: classes 0, 1, ... in
    order of first appearance."""
    return tuple(c - 1 for c in _renumber(colors))


def _relabeled(rgs, sigma):
    """The restricted growth string of the partition rgs of the edges of K_n
    composed with the vertex map sigma: edge e gets the class of sigma(e)."""
    edges = all_edges_colex(len(sigma), 2)
    return _rgs([rgs[colex_rank(tuple(sorted(sigma[v] for v in e)))] for e in edges])


def _survives(rgs, n):
    """Whether the lex-leader check of a rung of K_n keeps every prefix of rgs."""
    live = _ar_ladder(K3, {})[0](n).live()
    for i in range(len(rgs) + 1):
        live = _leader(list(rgs[:i]) + [-1] * (len(rgs) - i), live, i)
        if live is None:
            return False
    return True


#: partitions of the 10 edges of K_5, as restricted growth strings
PARTITIONS_K5 = st.lists(st.integers(0, 9), min_size=10, max_size=10).map(_rgs)


@st.composite
def small_tilings(draw):
    """(F, t, n): an r-graph F on at most 4 vertices with an edge, and a host
    K_n^r that tF fits in, n <= 7 for graphs and n <= 6 for 3-graphs."""
    r = draw(st.sampled_from([2, 3]))
    v = draw(st.integers(r, 4))
    pool = list(itertools.combinations(range(v), r))
    F = HyperGraph(r, v, draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)))
    most = 7 if r == 2 else 6
    t = draw(st.integers(1, most // v))
    return F, t, draw(st.integers(t * v, most))


#: the ``ar-ladder`` calls of the benchmark, as (n, t, shape)
LADDER = [
    (6, 3, "K2"),
    (6, 2, "K3"),
    (6, 1, "K3"),
    (6, 1, "C4"),
    (6, 2, "P3"),
    (6, 1, "K4"),
    (6, 1, "K4^3-"),
    (6, 2, "E3"),
]


@st.composite
def rainbow_free_partitions(draw):
    """(F, t, m, rgs): an r-graph F on at most 3 vertices, a host K_m^r with
    m <= 5 that tF fits in, tF with at least two edges, and a partition of
    K_m^r with no rainbow tF as a restricted growth string: a random one,
    with two classes of a rainbow copy merged while one is left (copies from
    every injective vertex map)."""
    r = draw(st.sampled_from([2, 3]))
    v = draw(st.integers(r, 3))
    pool = list(itertools.combinations(range(v), r))
    F = HyperGraph(r, v, draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)))
    t = draw(st.integers(1, 5 // v))
    m = draw(st.integers(max(t * v, r + 1), 5))
    assume(t * len(F.edges) >= 2)
    E = comb(m, r)
    colors = draw(st.lists(st.integers(0, E - 1), min_size=E, max_size=E))
    copies = [sorted(cp) for cp in copies_brute(disjoint_union(F, t), m)]
    while True:
        hit = next((cp for cp in copies if len({colors[e] for e in cp}) == len(cp)), None)
        if hit is None:
            return F, t, m, _rgs(colors)
        a, b = colors[hit[0]], colors[hit[1]]
        colors = [a if c == b else c for c in colors]


class TestEdgeColoring:
    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeColoring(2, 3, 2, [1, 1, 1])  # color 2 unused
        with pytest.raises(ValueError):
            EdgeColoring(2, 3, 1, [1, 1])  # wrong length
        with pytest.raises(ValueError):
            EdgeColoring(2, 3, 1, [1, 0, 1])  # out of range

    def test_color_of(self):
        chi = EdgeColoring(2, 3, 3, [1, 2, 3])
        assert chi.color_of((1, 2)) == 3

    def test_color_of_rejects_a_non_edge(self):
        # a repeated vertex, a wrong size or a vertex outside 0..n-1 is no
        # edge of K_6, and would otherwise read another edge's color
        chi = EdgeColoring(2, 6, 2, [1] * 14 + [2])
        assert chi.color_of((4, 5)) == chi.color_of([5, 4]) == 2
        for edge in ((2, 2), (0, 1, 2), (0, 6), (-1, 3), (0,)):
            with pytest.raises(ValueError):
                chi.color_of(edge)

    def test_text_round_trip(self):
        chi = EdgeColoring(2, 4, 3, [1, 2, 3, 1, 2, 3])
        assert coloring_from_text(coloring_to_text(chi)) == chi

    def test_text_rejections(self):
        good = coloring_to_text(EdgeColoring(2, 3, 2, [1, 2, 1]))
        for bad in (good[:-1], good.replace(" ", "  ", 1), "2 3\n1 1 1\n"):
            with pytest.raises(FormatError):
                coloring_from_text(bad)


class TestFindRainbowCopy:
    def test_single_edge_always(self):
        chi = EdgeColoring(2, 3, 1, [1, 1, 1])
        emb = find_rainbow_copy(chi, K2)
        assert emb is not None

    def test_constant_coloring_never(self):
        chi = EdgeColoring(2, 4, 1, [1] * 6)
        assert find_rainbow_copy(chi, K3) is None
        assert find_rainbow_copy(chi, disjoint_union(K2, 2)) is None

    def test_target_too_large_is_none(self):
        chi = EdgeColoring(2, 4, 6, [1, 2, 3, 4, 5, 6])
        assert find_rainbow_copy(chi, disjoint_union(K3, 2)) is None

    def test_all_distinct_coloring_finds_embedding(self):
        E = comb(6, 2)
        chi = EdgeColoring(2, 6, E, range(1, E + 1))
        target = disjoint_union(K3, 2)
        emb = find_rainbow_copy(chi, target)
        assert emb is not None
        assert_rainbow_copy(chi, target, emb)

    def test_edgeless_target(self):
        chi = EdgeColoring(2, 4, 1, [1] * 6)
        assert find_rainbow_copy(chi, HyperGraph(2, 2, [])) is not None
        assert find_rainbow_copy(chi, HyperGraph(2, 5, [])) is None
        # 2 E0 fits in K4 and has no edge to repeat a color: no certificate
        E0 = HyperGraph(2, 2, [])
        with pytest.raises(CertificationError):
            build_coloring_fact21(4, 1, E0, ex_exact(4, singleton(E0)))

    def check_against_oracle(self, rng, r, n, targets, rounds):
        verdicts = set()
        for _ in range(rounds):
            chi = random_coloring(rng, r, n)
            for target in targets:
                found = find_rainbow_copy(chi, target)
                assert (found is not None) == rainbow_brute(chi, target)
                # the lazy search stops at the first rainbow copy of the full list
                copies = subgraph_copies(target, n)
                rainbow = [cp for cp in copies if len({chi.colors[i] for i in cp}) == len(cp)]
                assert (found is not None) == bool(rainbow)
                if found is not None:
                    assert_rainbow_copy(chi, target, found)
                    assert {colex_rank(e) for e in found.image_edges(target)} == rainbow[0]
                verdicts.add(found is not None)
        assert verdicts == {True, False}

    def test_against_copy_oracle(self):
        P3 = HyperGraph(2, 3, [(0, 1), (1, 2)])
        targets = [
            K3,
            disjoint_union(K2, 2),
            disjoint_union(K3, 2),
            disjoint_union(K2, 3),
            disjoint_union(P3, 2),
            HyperGraph(2, 5, [(0, 2), (2, 3)]),  # P3 and two isolated vertices
        ]
        self.check_against_oracle(random.Random(31), 2, 6, targets, 40)

    def test_against_copy_oracle_3uniform(self):
        targets = [
            E3,
            disjoint_union(E3, 2),
            CAP_SHAPES["K4^3-"],
            HyperGraph(3, 5, [(0, 1, 3), (1, 3, 4)]),  # two triples and an isolated vertex
        ]
        self.check_against_oracle(random.Random(37), 3, 6, targets, 20)


class TestMaxRainbowSubgraph:
    def test_all_distinct(self):
        E = comb(4, 2)
        chi = EdgeColoring(2, 4, E, range(1, E + 1))
        assert max_rainbow_subgraph(chi) == complete(4, 2)

    def test_single_color(self):
        chi = EdgeColoring(2, 4, 1, [1] * 6)
        sub = max_rainbow_subgraph(chi)
        assert sub.edges == ((0, 1),)  # colex-least representative

    def test_one_edge_per_class(self):
        rng = random.Random(41)
        for _ in range(10):
            chi = random_coloring(rng, 2, 5)
            sub = max_rainbow_subgraph(chi)
            assert len(sub.edges) == chi.ncolors
            cols = [chi.color_of(e) for e in sub.edges]
            assert sorted(cols) == list(range(1, chi.ncolors + 1))


class TestFact21:
    def test_single_edge_constant_coloring(self):
        rec = ex_exact(4, singleton(disjoint_union(K2, 1)))
        chi = build_coloring_fact21(4, 1, K2, rec)
        assert chi.ncolors == 1

    def test_k3_small(self):
        for n in (5, 6):
            rec = ex_exact(n, singleton(disjoint_union(K3, 1)))
            chi = build_coloring_fact21(n, 1, K3, rec)
            assert chi.ncolors == rec.value + 1
            assert verify_no_rainbow(chi, K3, 2)

    def test_witness_is_rainbow_inside(self):
        rec = ex_exact(6, singleton(disjoint_union(K3, 1)))
        chi = build_coloring_fact21(6, 1, K3, rec)
        cols = [chi.color_of(e) for e in rec.witness.edges]
        assert sorted(cols) == list(range(1, rec.value + 1))

    def test_pivotal_observation_on_max_rainbow_subgraph(self):
        rec = ex_exact(6, singleton(disjoint_union(K3, 1)))
        chi = build_coloring_fact21(6, 1, K3, rec)
        sub = max_rainbow_subgraph(chi)
        assert len(sub.edges) == chi.ncolors == rec.value + 1
        assert not contains_member(sub, singleton(disjoint_union(K3, 2)))

    def test_nine_vertex_double_triangle(self):
        rec = ex_exact(9, singleton(disjoint_union(K3, 2)))
        chi = build_coloring_fact21(9, 2, K3, rec)
        assert chi.ncolors == rec.value + 1
        assert verify_no_rainbow(chi, K3, 3)

    def test_record_mismatch_rejected(self):
        rec = ex_exact(5, singleton(disjoint_union(K3, 1)))
        with pytest.raises(ValueError):
            build_coloring_fact21(6, 1, K3, rec)
        with pytest.raises(ValueError):
            build_coloring_fact21(5, 2, K3, rec)


class TestFact31:
    def test_t_zero_returns_inner(self):
        rec = ex_exact(6, singleton(disjoint_union(K3, 1)))
        inner = build_coloring_fact21(6, 1, K3, rec)
        assert build_coloring_fact31(6, 0, K3, inner) is inner

    def test_k7_from_k6(self):
        rec = ex_exact(6, singleton(disjoint_union(K3, 1)))
        inner = build_coloring_fact21(6, 1, K3, rec)
        chi = build_coloring_fact31(7, 1, K3, inner)
        assert chi.ncolors == inner.ncolors + comb(7, 2) - comb(6, 2)
        # crossing edges (those meeting vertex 6) are fresh and pairwise distinct
        crossing = [chi.color_of((v, 6)) for v in range(6)]
        assert len(set(crossing)) == 6
        assert min(crossing) > inner.ncolors
        # inner part is untouched
        for e in all_edges_colex(6, 2):
            assert chi.color_of(e) == inner.color_of(e)

    def test_bad_inner_rejected(self):
        E = comb(6, 2)
        rainbow_inner = EdgeColoring(2, 6, E, range(1, E + 1))
        with pytest.raises(CertificationError):
            build_coloring_fact31(7, 1, K3, rainbow_inner)


class TestArExact:
    def test_single_edge_trivial(self):
        rec = ar_exact(4, 1, K2)
        assert rec.value == 1 and rec.witness is None and rec.is_exact()

    @pytest.mark.parametrize("budget", [0, None])
    @pytest.mark.parametrize("F", [K2, E3], ids=["K2", "E3"])
    def test_single_edge_exact_under_any_budget(self, F, budget):
        # a one-edge target makes the top rung trivial: no pass runs
        for n in range(F.n, 7):
            rec = ar_exact(n, 1, F, budget=budget)
            assert (rec.value, rec.status, rec.witness) == (1, "exact", None)
            assert (rec.nodes, rec.closed_by) == (0, "sandwich")

    def test_brute_agreement(self):
        for n, t, F in ((4, 2, K2), (5, 2, K2), (4, 1, K3), (5, 1, K3)):
            assert ar_exact(n, t, F).value == ar_brute(n, t, F), (n, t)

    def test_witnesses_verified(self):
        for n, t, F in ((4, 2, K2), (5, 2, K2), (5, 1, K3)):
            rec = ar_exact(n, t, F)
            assert rec.witness.ncolors == rec.value - 1
            assert verify_no_rainbow(rec.witness, F, t)

    def test_witness_is_lex_least_rgs(self):
        rec = ar_exact(5, 1, K3)
        rgs = [c - 1 for c in rec.witness.colors]
        assert rgs[0] == 0
        for i in range(1, len(rgs)):
            assert rgs[i] <= max(rgs[:i]) + 1
        # frozen: lexicographically least 4-class Gallai partition of K_5
        assert rec.value == 5
        assert rgs == [0, 0, 1, 0, 1, 2, 0, 1, 2, 3]

    def test_max_rainbow_subgraph_of_witness_is_tiling_free(self):
        # the pivotal observation: a transversal of the classes of a
        # no-rainbow-tF coloring cannot contain tF
        for n, t, F in ((4, 2, K2), (5, 2, K2), (5, 1, K3), (6, 2, E3)):
            rec = ar_exact(n, t, F)
            sub = max_rainbow_subgraph(rec.witness)
            assert not contains_member(sub, singleton(disjoint_union(F, t)))

    def test_merging_classes_preserves_no_rainbow(self):
        rec = ar_exact(5, 1, K3)
        chi = rec.witness
        merged = [1 if c == chi.ncolors else c for c in chi.colors]
        chi2 = EdgeColoring(chi.r, chi.n, chi.ncolors - 1, merged)
        assert verify_no_rainbow(chi2, K3, 1)

    def test_rejections(self):
        with pytest.raises(ValueError):
            ar_exact(6, 0, K3)
        with pytest.raises(ValueError):
            ar_exact(5, 2, K3)  # 2*3 > 5
        with pytest.raises(ValueError):
            ar_exact(4, 1, HyperGraph(2, 2, []))

    def test_three_uniform_pair_value(self):
        # in K_6^3 each triple is disjoint from exactly its complement, so a
        # no-rainbow-2E3 coloring must merge the 10 complementary pairs:
        # max classes = 10, hence ar = 11
        rec = ar_exact(6, 2, E3)
        assert rec.value == 11
        assert rec.witness.ncolors == 10
        assert verify_no_rainbow(rec.witness, E3, 2)

    def test_budget_gives_bounds(self):
        rec = ar_exact(5, 1, K3, budget=20)
        assert rec.status == "bounds"
        assert rec.lo <= 5 <= rec.hi
        if rec.witness is not None:
            assert verify_no_rainbow(rec.witness, K3, 1)
        # one budget over the ladder and both passes: it runs out in each phase
        for n, t, F in ((5, 1, K3), (6, 1, C4), (5, 2, K2)):
            full = ar_exact(n, t, F)
            caps, ladder_nodes = ladder_caps(n, disjoint_union(F, t))
            for budget in (0, 1, 10, 100, 1_000, 10_000, full.nodes - 1):
                if budget >= full.nodes:
                    continue
                rec = ar_exact(n, t, F, budget=budget)
                assert (rec.status, rec.closed_by) == ("bounds", "budget")
                assert rec.lo <= full.value <= rec.hi
                assert rec.nodes <= budget + 1
                cap = min(caps.values()) if budget >= ladder_nodes else comb(n, F.r)
                assert rec.hi <= cap + 1
                if rec.witness is not None:
                    assert rec.witness.ncolors == rec.lo - 1
                    assert verify_no_rainbow(rec.witness, F, t)
            assert ar_exact(n, t, F, budget=full.nodes) == full

    def test_budget_out_below_the_top_returns_the_top_seed(self):
        # as ex_exact returns its greedy start: lo is one above the classes
        # of the top rung's seed, and the seed is the witness
        for n, t, F in ((6, 1, C4), (5, 1, K3), (6, 2, K3)):
            rec = ar_exact(n, t, F, budget=0)
            classes, rgs = _ar_ladder(disjoint_union(F, t), {})[0](n).start()
            assert (rec.status, rec.closed_by) == ("bounds", "budget")
            assert (rec.lo, rec.hi) == (classes + 1, comb(n, F.r) + 1)
            assert rec.witness.colors == tuple(c + 1 for c in rgs)
            assert verify_no_rainbow(rec.witness, F, t)

    @settings(max_examples=200, deadline=None)
    @given(small_tilings())
    def test_greedy_seed_has_no_rainbow_copy(self, case):
        F, t, n = case
        rung = _ar_ladder(disjoint_union(F, t), {})[0](n)
        classes, rgs = (rung, None) if isinstance(rung, int) else rung.start()
        if rgs is not None:
            assert _rgs([c + 1 for c in rgs]) == rgs and classes == max(rgs) + 1
            chi = EdgeColoring(F.r, n, max(rgs) + 1, [c + 1 for c in rgs])
            assert verify_no_rainbow(chi, F, t)

    def test_one_search_per_searched_rung(self, monkeypatch):
        # in each call the top rung's start is optimal already, and its one
        # pass still yields the first leaf with the value
        calls = [(6, 2, K3), (6, 1, K3), (6, 2, E3), (6, None, C4)]
        rungs = [
            _ar_ladder(disjoint_union(F, t), {})[0](n) if t else turan._ex_ladder(2, (F,))[0](n)
            for n, t, F in calls
        ]
        expected = [first_leaf(rung) for rung in rungs]
        assert [rung.start()[0] for rung in rungs] == [value for value, _ in expected]
        searches, starts, runs = [], [], []

        class Recorded(_Search):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                searches.append(self)

        monkeypatch.setattr(turan, "_Search", Recorded)
        for ctx in (_ArRung, turan._Ctx):
            start, run = ctx.start, ctx.run
            monkeypatch.setattr(
                ctx, "start", lambda self, start=start: starts.append(self) or start(self)
            )
            monkeypatch.setattr(
                ctx, "run", lambda self, *args, run=run: runs.append(self) or run(self, *args)
            )
        for (n, t, F), (value, incumbent) in zip(calls, expected):
            for seen in (searches, starts, runs):
                seen.clear()
            if t:
                rec = ar_exact(n, t, F)
                assert rec.value == value + 1
                assert rec.witness.colors == tuple(c + 1 for c in incumbent)
            else:
                rec = ex_exact(n, singleton(F))
                edges = all_edges_colex(n, 2)
                witness = [e for i, e in enumerate(edges) if incumbent >> i & 1]
                assert (rec.value, rec.witness.edges) == (value, tuple(witness))
            # one search built per searched rung; each run once, the top included
            assert len(searches) == len(starts) == len(set(starts))
            assert len(runs) == len(set(runs)) and runs[-1] is starts[-1]

    @settings(max_examples=300, deadline=None)
    @given(PARTITIONS_K5)
    def test_lex_leader_of_every_orbit_survives(self, rgs):
        # soundness: the lex-least string of the orbit under all 120 vertex
        # permutations of K_5 is kept at every prefix
        leader = min(_relabeled(rgs, s) for s in itertools.permutations(range(5)))
        assert _survives(leader, 5)

    @settings(max_examples=300, deadline=None)
    @given(PARTITIONS_K5)
    def test_lex_leader_check_is_the_adjacent_transposition_rule(self, rgs):
        # a full string survives iff it is <= each image under (v v+1)
        swaps = [[*range(v), v + 1, v, *range(v + 2, 5)] for v in range(4)]
        assert _survives(rgs, 5) == all(rgs <= _relabeled(rgs, s) for s in swaps)

    @pytest.mark.parametrize("n, t, name", SMALL_CASES)
    def test_caps_against_brute(self, n, t, name):
        F = CAP_SHAPES[name]
        A = ar_brute(n, t, F) - 1
        # the averaging lemma on its own, from the brute-force value below
        if n > F.r:
            below = ar_brute(n - 1, t, F) - 1 if t * F.n < n else comb(n - 1, F.r)
            assert A <= n * below // (n - F.r)
        caps, _ = ladder_caps(n, disjoint_union(F, t))
        assert all(A <= cap for cap in caps.values()), caps
        rec = ar_exact(n, t, F)
        assert rec.value == A + 1
        assert rec.closed_by == next((k for k, c in caps.items() if c == A), "search")

    @pytest.mark.parametrize("n, t, name", SMALL_CASES)
    def test_witness_against_brute(self, n, t, name):
        # the first maximizer of an unpruned lexicographic enumeration
        F = CAP_SHAPES[name]
        rec = ar_exact(n, t, F)
        colors = None if rec.witness is None else rec.witness.colors
        assert colors == ar_brute_witness(n, t, F)

    @pytest.mark.parametrize(
        "n, t, F, most, capped",
        # measured 1,759, 236, 686, 3,547, 1,886 and 1,130 nodes; with the
        # value pass trying the fresh class first, no greedy seed and a
        # witness pass on every call 7,040, 17,274, 707, 6,571, 3,544 and
        # 3,559; without the lex-leader rule as well 22,017, 74,704, 6,360,
        # 59,558, 13,482 and 29,072; without forward checking as well
        # 108,776, 204,091, 821,009, 289,266, 296,016 and 420,921
        [
            (6, 1, C4, 4_500, True),
            (6, 1, K4, 5_500, True),
            (6, 2, E3, 750, True),
            (6, 3, K2, 4_000, False),
            (6, 2, CAP_SHAPES["P3"], 2_000, False),
            (6, 1, CAP_SHAPES["K4^3-"], 2_750, False),
        ],
        ids=["C4", "K4", "2E3", "3K2", "2P3", "K4^3-"],
    )
    def test_node_counts(self, n, t, F, most, capped):
        rec = ar_exact(n, t, F)
        assert rec.nodes < most
        if capped:
            assert rec.closed_by in ("sandwich", "averaging")
        # the same value and witness from passes run without a cap
        A, rgs = first_leaf(_ar_ladder(disjoint_union(F, t), {})[0](n))
        assert rec.value == A + 1
        assert rec.witness.colors == tuple(c + 1 for c in rgs)

    @pytest.mark.parametrize(
        "n, t, name, value, nodes, closed_by",
        [
            (6, 3, "K2", 7, 3_547, "search"),
            (6, 2, "K3", 12, 5_667, "search"),
            (6, 1, "K3", 6, 603, "search"),
            (6, 1, "C4", 8, 1_759, "sandwich"),
            (6, 2, "P3", 8, 1_886, "search"),
            (6, 1, "K4", 11, 236, "averaging"),
            (6, 1, "K4^3-", 6, 1_130, "search"),
            (6, 2, "E3", 11, 686, "sandwich"),
        ],
        ids=[f"{t}{name}" for _, t, name in LADDER],
    )
    def test_exact_node_counts(self, n, t, name, value, nodes, closed_by):
        # the ``LADDER`` calls: the bound prune, forward checking, the
        # lex-leader rule and the star floor prune exactly these nodes; a
        # change to any of them shows here before it shows in a value
        rec = ar_exact(n, t, CAP_SHAPES[name])
        assert (rec.value, rec.nodes, rec.closed_by) == (value, nodes, closed_by)

    @pytest.mark.parametrize(
        "t, F, value",
        # ar(n, K3) = n (Erdos-Simonovits-Sos), ar(n, C4) = floor(4n/3)
        # (Alon 1983), ar(n, K4) = floor(n^2/4) + 2 (Montellano-Ballesteros
        # and Neumann-Lara 2002; 5,615 nodes, 7,519,261 without the star
        # floor); ar(7, 2P3) = 8 as the search found it without the
        # lex-leader rule, in 162,742 nodes
        [
            (3, K2, ar_matching(7, 3)),
            (1, K3, 7),
            (1, C4, 4 * 7 // 3),
            (1, K4, 7 * 7 // 4 + 2),
            (2, CAP_SHAPES["P3"], 8),
        ],
        ids=["3K2", "K3", "C4", "K4", "2P3"],
    )
    def test_seven_vertex_closed_forms(self, t, F, value):
        rec = ar_exact(7, t, F)
        assert rec.is_exact() and rec.value == value
        assert rec.witness.ncolors == value - 1
        assert verify_no_rainbow(rec.witness, F, t)

    @pytest.mark.parametrize(
        "F, value",
        # ar(n, K3) = n, ar(n, K4) = floor(n^2/4) + 2; measured 88,929 and
        # 27,140 nodes
        [(K3, 8), (K4, 8 * 8 // 4 + 2)],
        ids=["K3", "K4"],
    )
    def test_eight_vertex_closed_forms(self, F, value):
        rec = ar_exact(8, 1, F)
        assert rec.is_exact() and rec.value == value
        assert rec.nodes < 150_000
        assert rec.witness.ncolors == value - 1
        assert verify_no_rainbow(rec.witness, F, 1)

    def test_seven_vertex_double_triangle(self):
        # ar(7, 2K3): 49,710 nodes; 8,009,288 without the star floor, same
        # witness
        rec = ar_exact(7, 2, K3)
        assert (rec.value, rec.status, rec.closed_by) == (14, "exact", "search")
        assert rec.nodes < 60_000
        assert verify_no_rainbow(rec.witness, K3, 2)
        colors = (1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 10, 11, 12, 13, 1, 1)
        assert rec.witness.colors == colors

    @pytest.mark.parametrize("n, t, name", LADDER, ids=[f"{t}{name}" for _, t, name in LADDER])
    def test_star_floor_changes_neither_value_nor_witness(self, n, t, name, monkeypatch):
        # both ladders run again with every floor off
        F = CAP_SHAPES[name]
        rec = ar_exact(n, t, F)
        for ctx in (_ArRung, turan._Ctx):
            run = ctx.run
            monkeypatch.setattr(ctx, "run", lambda self, s, below=None, run=run: run(self, s))
        plain = ar_exact(n, t, F)
        assert (plain.value, plain.witness) == (rec.value, rec.witness)
        assert plain.closed_by == rec.closed_by
        assert rec.nodes <= plain.nodes

    @settings(max_examples=150, deadline=None)
    @given(rainbow_free_partitions())
    def test_star_floor_lemma(self, case):
        # a partition of K_m^r with no rainbow tF and A* classes has at least
        # A* - A(m-1) classes wholly inside the star of each vertex
        F, t, m, rgs = case
        r = F.r
        below = ar_brute(m - 1, t, F) - 1 if t * F.n < m else comb(m - 1, r)
        edges = all_edges_colex(m, r)
        classes = max(rgs) + 1
        for v in range(m):
            outside = {c for c, e in zip(rgs, edges) if v not in e}
            assert classes - len(outside) >= classes - below

    def test_star_floor_on_thirty_vertices(self):
        # a 1-uniform tF spreads over 30 vertices; the floor's tables grow
        # with the edges, not with the vertex subsets
        rec = ar_exact(30, 2, HyperGraph(1, 1, [(0,)]))
        assert (rec.status, rec.value) == ("exact", 2)

    def test_one_uniform_tiling_on_thirty_two_vertices(self):
        # 4,960 copies of 3K_1^1 on the top rung, all of one size: the copy
        # masks need no dominance scan (5 s when every pair was compared)
        start = time.perf_counter()
        rec = ar_exact(32, 1, HyperGraph(1, 3, [(0,), (1,), (2,)]))
        assert time.perf_counter() - start < 1
        assert (rec.status, rec.value) == ("exact", 3)

    def test_tetrahedron(self):
        # ar(6, K4^3), the paper's headline case: 16,649 nodes; 1,655,259
        # without the star floor, 2,243,451 with the value pass trying the
        # fresh class first and no greedy seed as well, 52,518,436 without
        # the lex-leader rule as well; the witness is the one found then
        rec = ar_exact(6, 1, complete(4, 3))
        assert (rec.value, rec.status, rec.closed_by) == (12, "exact", "search")
        assert rec.nodes < 20_000
        assert verify_no_rainbow(rec.witness, complete(4, 3), 1)
        assert rec.witness.colors == (1, 1, 2, 2, 1, 3, 4, 5, 6, 2, 1, 7, 8, 9, 10, 2, 11, 11, 11, 11)


class TestVerdicts:
    def setup_method(self):
        self.turan = TuranTable()
        self.ar = ArTable()

    def test_sandwich_matrix(self):
        cases = [(4, 2, K2), (5, 2, K2), (5, 1, K3)]
        for n, s, F in cases:
            self.ar.put(ar_exact(n, s, F))
            self.turan.put(ex_exact(n, singleton(disjoint_union(F, s))))
            if s >= 2:
                self.turan.put(ex_exact(n, singleton(disjoint_union(F, s - 1))))
        for n, s, F in cases:
            v = sandwich_check(n, s, F, self.turan, self.ar)
            assert v.holds, v

    def test_reduction(self):
        # ar(6, 3K2) >= C(6,2) - C(5,2) + ar(5, 2K2)
        self.ar.put(ar_exact(6, 3, K2))
        self.ar.put(ar_exact(5, 2, K2))
        v = reduction_check(6, 1, K2, self.ar)
        assert v.holds, v

    def test_identity_out_of_range_is_informative(self):
        F = K3
        self.ar.put(ar_exact(6, 2, F))
        fam_F = singleton(F)
        fam_u = fam_F.union(edge_sum_family(F, F))
        for fam in (singleton(disjoint_union(F, 1)), fam_F, fam_u):
            self.turan.put(ex_exact(6, fam))
        v = verify_identity_thm15(6, 1, F, self.turan, self.ar)
        assert v.lower_holds  # the extremal+dump lower bound is unconditional
        assert v.t_max == 0 and not v.in_range
        assert v.status == "out-of-range"

    def test_identity_classifier_branches(self):
        # synthetic records drive the in-range branches, which real desk-scale
        # gaps cannot reach (the threshold constant dominates at small n)
        from rainbowlab.antiramsey import ArRecord
        from rainbowlab.core import family_key
        from rainbowlab.turan import TuranRecord, edge_sensitivity_gap
        from rainbowlab.constructions import edge_sum_family
        from rainbowlab.core import HyperGraph as HG

        F = K2
        n = 50
        fam_F = singleton(F)
        fam_u = fam_F.union(edge_sum_family(F, F))
        fam_2F = singleton(disjoint_union(F, 2))
        empty = HG(2, n, [])
        table = TuranTable()
        # gap = 800 >= threshold 2*2*1*C(49,1) = 196 -> t_max = 2
        table.put(TuranRecord(n, 2, family_key(fam_F), 800, empty, "exact"))
        table.put(TuranRecord(n, 2, family_key(fam_u), 0, empty, "exact"))
        table.put(TuranRecord(n, 2, family_key(fam_2F), 10, empty, "exact"))
        g = edge_sensitivity_gap(F, n, table)
        assert g.t_max == 2
        ar_table = ArTable()
        key = family_key(fam_F)
        ar_table.put(ArRecord(n, 3, 2, key, 12, None, "exact", lo=12, hi=12))
        v = verify_identity_thm15(n, 2, F, table, ar_table)
        assert v.in_range and v.status == "holds"
        ar_table.put(ArRecord(n, 3, 2, key, 13, None, "exact", lo=13, hi=13))
        v = verify_identity_thm15(n, 2, F, table, ar_table)
        assert v.in_range and v.status == "violation"
        ar_table.put(ArRecord(n, 3, 2, key, 11, None, "exact", lo=11, hi=11))
        v = verify_identity_thm15(n, 2, F, table, ar_table)
        assert not v.lower_holds and v.status == "violation"

    def test_identity_holds_for_matching_edge(self):
        # F = K_2 at n=4, t=1: ar(4, 2K_2) = 4 = ex(4, K_2) + 2 + ... compare
        F = K2
        self.ar.put(ar_exact(4, 2, F))
        fam_F = singleton(F)
        fam_u = fam_F.union(edge_sum_family(F, F))
        for fam in (singleton(disjoint_union(F, 1)), fam_F, fam_u):
            self.turan.put(ex_exact(4, fam))
        v = verify_identity_thm15(4, 1, F, self.turan, self.ar)
        # gap is 0 for a single edge, so the range is empty; the identity
        # itself fails informatively (ar = 4 vs ex + 2 = 2)
        assert v.status == "out-of-range"
        assert v.lower_holds


class TestCensus:
    def test_edgeless_host(self):
        table = TuranTable()
        table.put(ex_exact(5, singleton(K3)))
        res = stability_degree_census(HyperGraph(2, 5, []), K3, Fraction(1, 2), table)
        assert res.vertices == ()

    def test_complete_host(self):
        table = TuranTable()
        table.put(ex_exact(5, singleton(K3)))
        res = stability_degree_census(complete(5, 2), K3, Fraction(1, 2), table)
        # every K_5 vertex has degree 4; threshold = 12/5 + (1/14)*4
        assert res.threshold == Fraction(12, 5) + Fraction(1, 2) / 7 / 3 * 4
        assert res.vertices == (0, 1, 2, 3, 4)

    def test_pi_one_threshold_is_average_degree(self):
        table = TuranTable()
        table.put(ex_exact(5, singleton(K3)))
        res = stability_degree_census(complete(5, 2), K3, Fraction(1), table)
        assert res.threshold == Fraction(12, 5)
        assert res.alpha == 0

    def test_params_meet_target(self):
        table = TuranTable()
        table.put(ex_exact(5, singleton(K3)))
        res = stability_degree_census(complete(5, 2), K3, Fraction(1, 2), table)
        assert len(res.vertices) >= 3
        assert res.alpha == Fraction(1, 42)
