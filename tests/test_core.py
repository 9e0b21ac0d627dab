import itertools
import random
from math import comb

import pytest

from rainbowlab import core
from rainbowlab.core import (
    CapacityError,
    FormatError,
    HyperGraph,
    HyperGraphFamily,
    canonical_form,
    complete,
    contains_member,
    disjoint_union,
    find_embedding,
    from_text,
    is_isomorphic,
    is_r_partite,
    iter_embeddings,
    to_text,
)
from rainbowlab.constructions import blow_up, fano, matching, sunflower

from helpers import (
    brute_isomorphic,
    brute_r_partite,
    embeddings_brute,
    max_disjoint_copies,
    random_hypergraph,
    random_relabel,
)


def path(k):
    return HyperGraph(2, k, [(i, i + 1) for i in range(k - 1)])


class TestHyperGraph:
    def test_normalization_and_invariants(self):
        H = HyperGraph(2, 4, [(3, 1), (0, 1)])
        assert H.edges == ((0, 1), (1, 3))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            HyperGraph(2, 3, [(0, 0)])
        with pytest.raises(ValueError):
            HyperGraph(2, 3, [(0, 3)])
        with pytest.raises(ValueError):
            HyperGraph(2, 3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            HyperGraph(3, 4, [(0, 1)])

    def test_colex_order(self):
        H = complete(4, 2)
        assert H.edges == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
        for e, i in zip(H.edges, range(6)):
            assert core.colex_rank(e) == i


class TestTextFormat:
    def test_round_trip(self):
        for H in (fano(), complete(5, 2), HyperGraph(3, 4, [])):
            assert from_text(to_text(H)) == H

    def test_strict_rejections(self):
        good = to_text(complete(4, 2))
        for bad in (
            good[:-1],                        # no trailing newline
            good.replace(" ", "  ", 1),       # double space
            good.replace("0 1\n0 2", "0 2\n0 1"),  # colex violation
            "2 3\n0 1\n",                     # malformed header
            "2 3 1\n1 0\n",                   # edge not ascending
            "2 3 2\n0 1\n0 1\n",              # duplicate edge
        ):
            with pytest.raises(FormatError):
                from_text(bad)


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        rng = random.Random(7)
        for H in (fano(), complete(4, 3), matching(2, 3), path(5)):
            ref = canonical_form(H)
            for _ in range(10):
                assert canonical_form(random_relabel(H, rng)) == ref

    def test_k43_vs_k43_minus(self):
        K = complete(4, 3)
        Km = HyperGraph(3, 4, K.edges[:-1])
        assert canonical_form(K) != canonical_form(Km)

    def test_exhaustive_three_edge_graphs_on_four_vertices(self):
        # oracle: enumerate all 3-edge subsets of K_4 and bucket by brute force
        graphs = [
            HyperGraph(2, 4, es)
            for es in itertools.combinations(complete(4, 2).edges, 3)
        ]
        by_form = {}
        for g in graphs:
            by_form.setdefault(canonical_form(g), []).append(g)
        assert len(by_form) == 3  # triangle+isolated, P_4, K_{1,3}
        reps = [gs[0] for gs in by_form.values()]
        for a, b in itertools.combinations(reps, 2):
            assert not brute_isomorphic(a, b)
        for gs in by_form.values():
            for g in gs[1:]:
                assert brute_isomorphic(gs[0], g)
        p4 = path(4)
        star = HyperGraph(2, 4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(p4) != canonical_form(star)

    def test_complete_invariant_on_random_corpus(self):
        rng = random.Random(3)
        corpus = [random_hypergraph(rng, 2, 5, rng.randint(0, 6)) for _ in range(12)]
        corpus += [random_hypergraph(rng, 3, 5, rng.randint(0, 5)) for _ in range(8)]
        for a, b in itertools.combinations(corpus, 2):
            if a.r != b.r:
                continue
            assert (canonical_form(a) == canonical_form(b)) == brute_isomorphic(a, b)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            canonical_form(HyperGraph(2, 21, []))
        # 16 vertices are within the documented bound
        canonical_form(matching(8, 2))

    def test_strongly_regular_pair(self):
        # two SRG(16,6,2,2) graphs that plain color refinement cannot split:
        # the 4x4 rook's graph and the Shrikhande graph
        rook_edges = [
            (4 * i + j, 4 * i + k) for i in range(4) for j in range(4) for k in range(j + 1, 4)
        ] + [
            (4 * j + i, 4 * k + i) for i in range(4) for j in range(4) for k in range(j + 1, 4)
        ]
        rook = HyperGraph(2, 16, rook_edges)
        conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
        edges = set()
        for a in range(4):
            for b in range(4):
                for da, db in conn:
                    u = 4 * a + b
                    v = 4 * ((a + da) % 4) + ((b + db) % 4)
                    edges.add(tuple(sorted((u, v))))
        shrikhande = HyperGraph(2, 16, edges)
        assert set(rook.degrees()) == set(shrikhande.degrees()) == {6}
        assert canonical_form(rook) != canonical_form(shrikhande)
        rng = random.Random(19)
        assert canonical_form(random_relabel(rook, rng)) == canonical_form(rook)
        assert canonical_form(random_relabel(shrikhande, rng)) == canonical_form(shrikhande)


class TestIsIsomorphic:
    def test_relabeling(self):
        rng = random.Random(11)
        H = fano()
        assert is_isomorphic(H, random_relabel(H, rng))

    def test_vertex_count_mismatch(self):
        assert not is_isomorphic(matching(2, 3), sunflower(2, 3))

    def test_r_mismatch_raises(self):
        with pytest.raises(ValueError):
            is_isomorphic(complete(3, 2), complete(4, 3))

    def test_fano_vs_arbitrary_seven_edges(self):
        # seven arbitrary triples of K_7^3 generally do not form a Fano copy
        K = complete(7, 3)
        junk = HyperGraph(3, 7, K.edges[:7])
        assert is_isomorphic(junk, fano()) == brute_isomorphic(junk, fano())
        assert not is_isomorphic(junk, fano())


class TestFamily:
    def test_each_canonical_form_computed_once(self):
        core._canonical_search.cache_clear()
        members = [path(k) for k in range(2, 6)] + [complete(3, 2)]
        fam = HyperGraphFamily(2, members + members)
        assert len(fam.members) == len(members)
        assert core._canonical_search.cache_info().misses == len(members)
        key = core.family_key(fam)
        both = fam.union(HyperGraphFamily(2, []))
        assert core.family_key(both) == key
        assert core._canonical_search.cache_info().misses == len(members)

    def test_union_matches_fresh_family(self):
        a = HyperGraphFamily(2, [path(4), complete(3, 2)])
        b = HyperGraphFamily(2, [path(3), random_relabel(path(4), random.Random(1))])
        fresh = HyperGraphFamily(2, a.members + b.members)
        assert a.union(b) == fresh

    def test_fields_are_read_only(self):
        fam = HyperGraphFamily(2, [complete(3, 2)])
        with pytest.raises(AttributeError):
            fam.members = (complete(4, 2),)
        with pytest.raises(AttributeError):
            fam.r = 3
        assert fam.members == (complete(3, 2),) and fam.r == 2

    def test_relabeled_copies_give_equal_families(self):
        rng = random.Random(3)
        k3, c4 = complete(3, 2), HyperGraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        a = HyperGraphFamily(2, [c4, k3, random_relabel(c4, rng)])
        b = HyperGraphFamily(2, [k3, random_relabel(k3, rng), c4, random_relabel(c4, rng)])
        assert a == b and hash(a) == hash(b)
        assert a != HyperGraphFamily(2, [k3])
        # a family of relabeled copies alone keeps other graphs, but files the same records
        relabeled = HyperGraphFamily(2, [random_relabel(c4, rng), random_relabel(k3, rng)])
        assert core.family_key(relabeled) == core.family_key(a)


@pytest.mark.parametrize("data", [b"", b"abc", b"r=2;|", bytes(range(256)) * 9])
def test_digest16_is_sha256(data):
    import hashlib

    assert core.digest16(data) == hashlib.sha256(data).hexdigest()[:16]


class TestEmbedding:
    def test_single_edge(self):
        F = HyperGraph(2, 2, [(0, 1)])
        emb = find_embedding(F, path(4))
        assert emb is not None and emb.check(F, path(4))
        assert path(4).has_edge(emb.image_edges(F)[0])

    def test_check_rejects_bad_maps(self):
        F, H = complete(3, 2), complete(4, 2)
        assert core.Embedding((1, 2, 3)).check(F, H)
        assert not core.Embedding((1, 2)).check(F, H)  # too short
        assert not core.Embedding((1, 1, 3)).check(F, H)  # not injective
        assert not core.Embedding((1, 2, 4)).check(F, H)  # off the host
        assert not core.Embedding((0, 1, 2)).check(F, path(4))  # a non-edge

    def test_fano_identity_embedding(self):
        F = fano()
        emb = find_embedding(F, F)
        assert emb is not None and emb.check(F, F)
        identity = core.Embedding(tuple(range(7)))
        assert identity.check(F, F)

    def test_none_when_impossible(self):
        assert find_embedding(complete(3, 2), path(4)) is None
        assert find_embedding(complete(3, 2), complete(2, 2)) is None

    def test_isolated_vertices_need_room(self):
        # one edge plus an isolated vertex needs three host vertices
        F = HyperGraph(2, 3, [(0, 1)])
        assert find_embedding(F, complete(2, 2)) is None
        assert find_embedding(F, complete(3, 2)) is not None

    def test_iter_embeddings_counts_triangles(self):
        # 4 triangles x 6 automorphisms in K_4
        assert sum(1 for _ in iter_embeddings(complete(3, 2), complete(4, 2))) == 24

    @pytest.mark.parametrize(
        "r,fn,fm,iso,hn,hm",
        [
            (2, 4, 3, 0, 6, 9),  # connected or not, as drawn
            (2, 5, 2, 0, 6, 10),  # two components, or a path and an isolated vertex
            (2, 4, 2, 2, 6, 8),  # isolated pattern vertices
            (2, 5, 4, 0, 4, 5),  # F.n > H.n
            (3, 5, 3, 0, 6, 12),
            (3, 6, 2, 0, 7, 14),  # disjoint or overlapping triples
            (3, 4, 1, 2, 6, 8),
            (1, 3, 2, 0, 5, 3),  # r = 1
            (1, 3, 1, 1, 4, 2),
        ],
    )
    def test_iter_embeddings_matches_brute_force(self, r, fn, fm, iso, hn, hm):
        rng = random.Random(f"{r}-{fn}-{fm}-{iso}-{hn}-{hm}")
        for _ in range(6):
            core_F = random_hypergraph(rng, r, fn, fm)
            F = HyperGraph(r, fn + iso, core_F.edges)
            H = random_hypergraph(rng, r, hn, hm)
            got = [emb.mapping for emb in iter_embeddings(F, H)]
            assert len(got) == len(set(got))
            assert set(got) == set(embeddings_brute(F, H))


class TestContainment:
    def test_basics(self):
        fam = HyperGraphFamily(2, [complete(3, 2)])
        assert contains_member(complete(5, 2), fam)
        C5 = HyperGraph(2, 5, [(i, (i + 1) % 5) for i in range(5)])
        fam2 = HyperGraphFamily(2, [complete(3, 2), HyperGraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])])
        assert not contains_member(C5, fam2)

    def test_blowup_of_path_contains_c4(self):
        from rainbowlab.constructions import cycle

        b = blow_up(path(3), 2)
        assert contains_member(b, HyperGraphFamily(2, [cycle(4)]))

    def test_r_mismatch(self):
        with pytest.raises(ValueError):
            contains_member(complete(4, 3), HyperGraphFamily(2, [complete(3, 2)]))


class TestLocalStructure:
    def test_fano_degrees(self):
        assert fano().degrees() == [3] * 7

    def test_complete_degree(self):
        for n, r in ((5, 2), (6, 3)):
            H = complete(n, r)
            assert H.degree(0) == comb(n - 1, r - 1)

    def test_matching_max_degree(self):
        assert matching(3, 3).max_degree() == 1

    def test_link(self):
        H = fano()
        L = H.link(0)
        assert L.r == 2 and len(L.edges) == 3
        assert all(0 not in e for e in L.edges)

    def test_link_out_of_range(self):
        with pytest.raises(ValueError):
            fano().link(7)

    def test_degree_sum_identity(self):
        rng = random.Random(13)
        for _ in range(20):
            r = rng.choice([2, 3])
            H = random_hypergraph(rng, r, 6, rng.randint(0, 8))
            assert sum(H.degrees()) == r * len(H.edges)


class TestSurgery:
    def test_remove_vertex_from_k5(self):
        assert is_isomorphic(complete(5, 2).remove({4}), complete(4, 2))

    def test_induced_nesting(self):
        rng = random.Random(17)
        for _ in range(15):
            H = random_hypergraph(rng, 2, 7, rng.randint(0, 12))
            S = sorted(rng.sample(range(7), 5))
            T = sorted(rng.sample(S, 3))
            inner_T = [S.index(v) for v in T]
            assert H.induced(S).induced(inner_T) == H.induced(T)

    def test_disjoint_union(self):
        two = disjoint_union(complete(3, 2), 2)
        assert two.n == 6 and len(two.edges) == 6
        ff = disjoint_union(fano(), 2)
        assert ff.n == 14 and len(ff.edges) == 14

    def test_tiling_rejects_t_zero(self):
        with pytest.raises(ValueError):
            disjoint_union(complete(3, 2), 0)

    def test_tiling_has_exactly_t_disjoint_copies(self):
        for F, t in ((complete(3, 2), 2), (HyperGraph(3, 3, [(0, 1, 2)]), 3)):
            tiling = disjoint_union(F, t)
            assert max_disjoint_copies(F, tiling) == t


class TestRPartite:
    def test_known_cases(self):
        C4 = HyperGraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert is_r_partite(C4)
        assert not is_r_partite(complete(3, 2))
        assert not is_r_partite(complete(4, 3))
        assert is_r_partite(matching(3, 3))

    def test_against_product_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            r = rng.choice([2, 3])
            H = random_hypergraph(rng, r, 5, rng.randint(0, 6))
            assert is_r_partite(H) == brute_r_partite(H)
