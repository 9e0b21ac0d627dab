import itertools
import random
from math import comb

import pytest

from rainbowlab import constructions as cons
from rainbowlab.constructions import (
    blow_up,
    complete_graph,
    complete_uniform,
    cycle,
    edge_sum,
    edge_sum_family,
    even_cycle,
    expansion_clique,
    expansion_graph,
    ext_tree,
    fano,
    generalized_triangle,
    matching,
    minus_family,
    sunflower,
    tight_cycle,
    tight_cycle_minus,
    uncovered_pairs,
    zoo,
)
from rainbowlab.core import (
    HyperGraph,
    HyperGraphFamily,
    canonical_form,
    complete,
    contains_member,
    find_embedding,
    is_isomorphic,
    to_text,
)

from helpers import random_relabel


GOLDEN = {
    "fano": "3 7 7\n0 1 2\n2 3 4\n1 3 5\n0 4 5\n0 3 6\n1 4 6\n2 5 6\n",
    "gt3": "3 5 3\n0 1 2\n0 1 3\n2 3 4\n",
    "et2": "4 6 3\n0 1 2 3\n0 1 4 5\n2 3 4 5\n",
    "f7": "4 7 4\n0 1 2 3\n0 1 2 4\n0 1 2 5\n3 4 5 6\n",
    "f32": "3 5 4\n0 1 2\n0 1 3\n0 1 4\n2 3 4\n",
    "f43": "4 7 5\n0 1 2 3\n0 1 2 4\n0 1 2 5\n0 1 2 6\n3 4 5 6\n",
    "k43k33": "3 7 4\n0 1 2\n0 1 3\n1 2 3\n4 5 6\n",
}


class TestZoo:
    def test_golden_files(self):
        assert to_text(fano()) == GOLDEN["fano"]
        assert to_text(generalized_triangle(3)) == GOLDEN["gt3"]
        assert to_text(cons.expanded_triangle(2)) == GOLDEN["et2"]
        assert to_text(cons.f7()) == GOLDEN["f7"]
        assert to_text(cons.f32()) == GOLDEN["f32"]
        assert to_text(cons.f43()) == GOLDEN["f43"]
        assert to_text(cons.k43_sqcup_k33()) == GOLDEN["k43k33"]

    def test_parameterized_counts(self):
        for r in range(3, 8):
            T = generalized_triangle(r)
            assert (T.n, len(T.edges)) == (2 * r - 1, 3)
        for r in (2, 3):
            C = cons.expanded_triangle(r)
            assert (C.r, C.n, len(C.edges)) == (2 * r, 3 * r, 3)
        for k, r in ((1, 2), (2, 3), (3, 4)):
            M = matching(k, r)
            assert (M.n, len(M.edges)) == (k * r, k)
            assert M.max_degree() <= 1
            L = sunflower(k, r)
            assert (L.n, len(L.edges)) == (1 + k * (r - 1), k)
        for k in (4, 5, 6, 7):
            C = tight_cycle(k)
            assert (C.n, len(C.edges)) == (k, k)
            assert len(tight_cycle_minus(k).edges) == k - 1
        Km = complete_uniform(4, 3, minus=True)
        assert len(Km.edges) == comb(4, 3) - 1
        assert len(complete_uniform(5, 3).edges) == comb(5, 3)
        assert even_cycle(2).edges == cycle(4).edges
        assert len(complete_graph(5).edges) == 10

    def test_sunflower_intersections(self):
        L = sunflower(3, 4)
        for a, b in itertools.combinations(L.edges, 2):
            assert set(a) & set(b) == {0}

    def test_tight_cycle_four_is_k43(self):
        assert is_isomorphic(tight_cycle(4), complete(4, 3))

    def test_zoo_dispatch(self):
        H = zoo("matching", k=2, r=3)
        assert is_isomorphic(H, matching(2, 3))
        assert is_isomorphic(zoo("complete", l=4, r=3, minus=True), complete_uniform(4, 3, True))
        with pytest.raises(ValueError):
            zoo("nonesuch")
        with pytest.raises(ValueError):
            zoo("fano", k=2)
        with pytest.raises(ValueError):
            zoo("matching", k=2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generalized_triangle(2)
        with pytest.raises(ValueError):
            tight_cycle(3)
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            complete_uniform(3, 3, minus=True)
        with pytest.raises(ValueError):
            matching(0, 3)


class TestMinusFamily:
    def test_triangle(self):
        fam = minus_family(complete_graph(3))
        assert len(fam.members) == 1
        m = fam.members[0]
        assert m.n == 3 and len(m.edges) == 2

    def test_fano_single_class(self):
        fam = minus_family(fano())
        assert len(fam.members) == 1
        assert fam.members[0].n == 7 and len(fam.members[0].edges) == 6

    def test_matching_keeps_isolated_vertices(self):
        fam = minus_family(matching(2, 3))
        assert len(fam.members) == 1
        m = fam.members[0]
        assert m.n == 6 and len(m.edges) == 1
        assert len(m.isolated_vertices()) == 3

    def test_members_embed_into_parent(self):
        for F in (fano(), generalized_triangle(3), complete(4, 3)):
            for m in minus_family(F).members:
                assert find_embedding(m, F) is not None

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            minus_family(HyperGraph(2, 3, []))


class TestEdgeSum:
    def test_cycle_identity(self):
        for k in (3, 4, 5):
            for l in (3, 4, 5):
                fam = edge_sum_family(cycle(k), cycle(l))
                assert len(fam.members) == 1
                assert is_isomorphic(fam.members[0], cycle(k + l - 2))

    def test_k3_plus_k3_is_c4(self):
        fam = edge_sum_family(complete_graph(3), complete_graph(3))
        assert len(fam.members) == 1
        assert is_isomorphic(fam.members[0], cycle(4))

    def test_fano_figure(self):
        fam = edge_sum_family(fano(), fano())
        for m in fam.members:
            assert m.n == 11 and len(m.edges) == 12
        e = fano().edges[0]
        figure = edge_sum(fano(), e, fano(), e, {v: v for v in e})
        assert any(is_isomorphic(figure, m) for m in fam.members)

    def test_counts_invariant(self):
        rng = random.Random(2)
        pairs = [
            (complete_graph(3), cycle(4)),
            (generalized_triangle(3), generalized_triangle(3)),
            (matching(2, 3), sunflower(2, 3)),
        ]
        for F, G in pairs:
            fam = edge_sum_family(F, G)
            for m in fam.members:
                assert m.n == F.n + G.n - F.r
                assert len(m.edges) == len(F.edges) + len(G.edges) - 2
            # symmetry up to isomorphism
            fam2 = edge_sum_family(G, F)
            assert sorted(canonical_form(m) for m in fam.members) == sorted(
                canonical_form(m) for m in fam2.members
            )
            # relabeling either side changes nothing
            fam3 = edge_sum_family(random_relabel(F, rng), G)
            assert sorted(canonical_form(m) for m in fam.members) == sorted(
                canonical_form(m) for m in fam3.members
            )

    def test_single_edge_sum_is_edgeless(self):
        e = HyperGraph(2, 2, [(0, 1)])
        fam = edge_sum_family(e, e)
        assert len(fam.members) == 1
        m = fam.members[0]
        assert m.n == 2 and len(m.edges) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            edge_sum_family(complete_graph(3), complete(4, 3))
        with pytest.raises(ValueError):
            edge_sum_family(complete_graph(3), HyperGraph(2, 3, []))


class TestBlowUp:
    def test_identity(self):
        for F in (fano(), complete_graph(3)):
            assert is_isomorphic(blow_up(F, 1), F)

    def test_triangle_two(self):
        b = blow_up(complete_graph(3), 2)
        assert (b.n, len(b.edges)) == (6, 12)
        # K_{2,2,2}: 3-partite complement of a perfect matching
        octa = HyperGraph(
            2, 6, [e for e in complete(6, 2).edges if e not in ((0, 1), (2, 3), (4, 5))]
        )
        assert is_isomorphic(b, octa)

    def test_edge_counts(self):
        for F, k in ((generalized_triangle(3), 2), (complete_graph(3), 3)):
            b = blow_up(F, k)
            assert b.n == k * F.n and len(b.edges) == len(F.edges) * k**F.r

    def test_composition(self):
        for F in (complete_graph(3), HyperGraph(2, 3, [(0, 1), (1, 2)])):
            assert is_isomorphic(blow_up(blow_up(F, 2), 2), blow_up(F, 4))

    def test_minus_blowup_contains_c4(self):
        m = minus_family(complete_graph(3)).members[0]
        assert contains_member(blow_up(m, 2), HyperGraphFamily(2, [cycle(4)]))

    def test_containment_transfer_small_zoo(self):
        # contrapositive of the blow-up observation, across small zoo graphs
        for F in (complete_graph(3), generalized_triangle(3), f32_local()):
            esf = edge_sum_family(F, F)
            for m in minus_family(F).members:
                assert contains_member(blow_up(m, 2), esf)


def f32_local():
    return cons.f32()


class TestExpansions:
    def test_graph_expansion_counts(self):
        g = expansion_graph(complete_graph(3), 3)
        assert (g.n, len(g.edges)) == (6, 3)
        p3 = HyperGraph(2, 3, [(0, 1), (1, 2)])
        e = expansion_graph(p3, 3)
        assert (e.n, len(e.edges)) == (5, 2)

    def test_matching_expansion(self):
        for k, r in ((2, 3), (3, 4)):
            assert is_isomorphic(expansion_graph(matching(k, 2), r), matching(k, r))

    def test_pads_disjoint(self):
        g = expansion_graph(complete_graph(4), 4)
        pads = [set(e) - set(range(4)) for e in g.edges]
        for a, b in itertools.combinations(pads, 2):
            assert not a & b

    def test_clique_expansion(self):
        covered = complete(4, 3)  # every pair covered
        assert expansion_clique(covered) == covered
        single = HyperGraph(3, 4, [(0, 1, 2)])
        assert len(uncovered_pairs(single)) == 3
        assert len(expansion_clique(single).edges) == 4
        m = matching(2, 3)
        assert len(expansion_clique(m).edges) == 2 + len(uncovered_pairs(m))

    def test_r_validation(self):
        with pytest.raises(ValueError):
            expansion_graph(complete_graph(3), 2)
        with pytest.raises(ValueError):
            expansion_clique(complete_graph(3))


class TestExtTree:
    def test_single_edge(self):
        single = HyperGraph(2, 2, [(0, 1)])
        ext = ext_tree(single, 4)
        assert (ext.n, len(ext.edges)) == (4, 1)

    def test_one_vertex_tree(self):
        ext = ext_tree(HyperGraph(2, 1, []), 4)
        assert (ext.r, ext.n, len(ext.edges)) == (4, 3, 0)

    def test_path(self):
        p3 = HyperGraph(2, 3, [(0, 1), (1, 2)])
        ext = ext_tree(p3, 3)
        assert (ext.n, len(ext.edges)) == (4, 2)
        a, b = ext.edges
        assert len(set(a) & set(b)) == 2  # shared pad vertex and path center

    def test_star_is_not_the_sunflower(self):
        # recorded outcome: edges of Ext(K_{1,3}) pairwise share two vertices,
        # sunflower edges share exactly one
        star = HyperGraph(2, 4, [(0, 1), (0, 2), (0, 3)])
        assert not is_isomorphic(ext_tree(star, 3), sunflower(3, 3))

    def test_rejects_non_trees(self):
        with pytest.raises(ValueError):
            ext_tree(complete_graph(3), 3)
        with pytest.raises(ValueError):
            ext_tree(matching(2, 2), 3)
        with pytest.raises(ValueError):
            ext_tree(HyperGraph(2, 2, [(0, 1)]), 2)
