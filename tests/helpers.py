"""Shared independent oracles for the test suite.

These deliberately avoid the library's own search strategies: isomorphism by
trying all vertex bijections, embeddings, copies and rainbow copies by
trying all injective vertex maps, containment counting by brute force over copies, and
anti-Ramsey values by unpruned enumeration of all set partitions.
"""

from __future__ import annotations

import itertools
from math import comb

from rainbowlab.core import HyperGraph, colex_rank, disjoint_union
from rainbowlab.turan import subgraph_copies


def brute_isomorphic(a, b):
    """Isomorphism by exhaustive bijection check (test oracle)."""
    if a.r != b.r or a.n != b.n or len(a.edges) != len(b.edges):
        return False
    eb = set(b.edges)
    for p in itertools.permutations(range(a.n)):
        if all(tuple(sorted(p[v] for v in e)) in eb for e in a.edges):
            return True
    return False


def rainbow_brute(chi, target):
    """True iff some injective map of the target's vertices into the host's
    gives its edges pairwise distinct colors under chi (every map tried)."""
    for p in itertools.permutations(range(chi.n), target.n):
        cols = {chi.color_of([p[v] for v in e]) for e in target.edges}
        if len(cols) == len(target.edges):
            return True
    return False


def copies_brute(F, n):
    """The copies of F in K_n^r as a set of bitmasks of colex edge ranks,
    one per injective map of its vertices into the host's (every map tried)."""
    return {
        sum(1 << colex_rank(tuple(sorted(p[v] for v in e))) for e in F.edges)
        for p in itertools.permutations(range(n), F.n)
    }


def embeddings_brute(F, H):
    """The embeddings of F into H as a list of vertex maps (tuples), one per
    injective map of F's vertices into H's that sends edges to edges (every
    map tried)."""
    return [
        p
        for p in itertools.permutations(range(H.n), F.n)
        if all(H.has_edge([p[v] for v in e]) for e in F.edges)
    ]


def random_relabel(H, rng):
    p = list(range(H.n))
    rng.shuffle(p)
    return HyperGraph(H.r, H.n, [tuple(p[v] for v in e) for e in H.edges])


def random_hypergraph(rng, r, n, m):
    pool = list(itertools.combinations(range(n), r))
    rng.shuffle(pool)
    return HyperGraph(r, n, pool[:m])


def max_disjoint_copies(F, H):
    """Maximum number of pairwise vertex-disjoint copies of F in H (brute force)."""
    copies = []
    seen = set()
    from rainbowlab.core import iter_embeddings

    for emb in iter_embeddings(F, H):
        vs = frozenset(emb.mapping)
        key = (vs, frozenset(emb.image_edges(F)))
        if key not in seen:
            seen.add(key)
            copies.append(vs)

    best = 0

    def rec(i, used, k):
        nonlocal best
        best = max(best, k)
        for j in range(i, len(copies)):
            if not copies[j] & used:
                rec(j + 1, used | copies[j], k + 1)

    rec(0, frozenset(), 0)
    return best


def _ar_brute_search(n, t, F):
    """The most classes A of a partition of the edges of K_n^r with no rainbow
    tF, and the first restricted growth string with A classes (None when
    A = 0), by enumerating every set partition in lexicographic order of its
    restricted growth string (no pruning)."""
    E = comb(n, F.r)
    copies = [
        [e for e in range(E) if cp >> e & 1] for cp in subgraph_copies(disjoint_union(F, t), n)
    ]
    best, first = 0, None
    a = [0] * E

    def rec(i, k):
        nonlocal best, first
        if i == E:
            for cp in copies:
                cols = [a[e] for e in cp]
                if len(set(cols)) == len(cols):
                    return
            if k > best:
                best, first = k, tuple(a)
            return
        for c in range(k + 1):
            a[i] = c
            rec(i + 1, k + (1 if c == k else 0))

    rec(0, 0)
    return best, first


def ar_brute(n, t, F):
    """ar(n, tF) by enumerating every set partition of the edges (no pruning)."""
    return _ar_brute_search(n, t, F)[0] + 1


def ar_brute_witness(n, t, F):
    """The colors (1..ar-1, by colex edge) of the lexicographically least
    restricted growth string among the partitions ``ar_brute`` maximizes, or
    None when ar = 1."""
    rgs = _ar_brute_search(n, t, F)[1]
    return None if rgs is None else tuple(c + 1 for c in rgs)


def brute_r_partite(H):
    """r-partiteness by unpruned product enumeration (test oracle)."""
    if not H.edges:
        return True
    for coloring in itertools.product(range(H.r), repeat=H.n):
        if all(len({coloring[v] for v in e}) == H.r for e in H.edges):
            return True
    return False
