"""Named hypergraphs and hypergraph operators.

The zoo covers every named object used in the accompanying computations:
the Fano plane, generalized/expanded triangles, books, matchings, sunflowers,
complete r-graphs with an optional missing edge, tight cycles, and ordinary
graphs (cycles, cliques).  Operators: one-edge-removal families, edge-sums,
blow-ups, expansions of graphs and r-graphs, and tree extensions.

Vertices are 0-based everywhere; the literature's 1-based edge lists are
shifted down by one.
"""

import itertools

from .core import HyperGraph, HyperGraphFamily, colex_key


# -- zoo ----------------------------------------------------------------------


def fano():
    """The Fano plane: 7 points, 7 triples, every pair in exactly one triple."""
    edges_1based = [
        (1, 2, 3),
        (3, 4, 5),
        (5, 6, 1),
        (1, 7, 4),
        (2, 7, 5),
        (3, 7, 6),
        (2, 4, 6),
    ]
    return HyperGraph(3, 7, [tuple(v - 1 for v in e) for e in edges_1based])


def generalized_triangle(r):
    """Three r-edges on 2r-1 vertices: two sharing r-1 vertices, the third
    covering both of their tips plus the remaining vertices."""
    if r < 3:
        raise ValueError(f"generalized triangle needs r >= 3, got {r}")
    base = tuple(range(r - 1))
    e1 = base + (r - 1,)
    e2 = base + (r,)
    e3 = tuple(range(r - 1, 2 * r - 1))
    return HyperGraph(r, 2 * r - 1, [e1, e2, e3])


def expanded_triangle(r):
    """The 2r-graph on 3r vertices whose three edges pairwise share r vertices."""
    if r < 2:
        raise ValueError(f"expanded triangle needs r >= 2, got {r}")
    a = tuple(range(r))
    b = tuple(range(r, 2 * r))
    c = tuple(range(2 * r, 3 * r))
    return HyperGraph(2 * r, 3 * r, [a + b, b + c, a + c])


def f7():
    """4-book with 3 pages: three 4-edges on a common triple, plus a cover edge."""
    edges_1based = [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (4, 5, 6, 7)]
    return HyperGraph(4, 7, [tuple(v - 1 for v in e) for e in edges_1based])


def f43():
    """4-book with 4 pages on 7 vertices."""
    edges_1based = [
        (1, 2, 3, 4),
        (1, 2, 3, 5),
        (1, 2, 3, 6),
        (1, 2, 3, 7),
        (4, 5, 6, 7),
    ]
    return HyperGraph(4, 7, [tuple(v - 1 for v in e) for e in edges_1based])


def f32():
    """3-book with 3 pages: triples 12x for x in {3,4,5} plus the cover 345."""
    edges_1based = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (3, 4, 5)]
    return HyperGraph(3, 5, [tuple(v - 1 for v in e) for e in edges_1based])


def k43_sqcup_k33():
    """The 7-vertex 3-graph {123,124,234,567} (1-based)."""
    edges_1based = [(1, 2, 3), (1, 2, 4), (2, 3, 4), (5, 6, 7)]
    return HyperGraph(3, 7, [tuple(v - 1 for v in e) for e in edges_1based])


def matching(k, r):
    """M_k^r: k pairwise disjoint r-edges."""
    if k < 1:
        raise ValueError(f"matching needs k >= 1, got {k}")
    if r < 2:
        raise ValueError(f"matching needs r >= 2, got {r}")
    edges = [tuple(range(i * r, (i + 1) * r)) for i in range(k)]
    return HyperGraph(r, k * r, edges)


def sunflower(k, r):
    """L_k^r: k r-edges pairwise meeting in exactly one common core vertex."""
    if k < 1:
        raise ValueError(f"sunflower needs k >= 1, got {k}")
    if r < 2:
        raise ValueError(f"sunflower needs r >= 2, got {r}")
    edges = [
        (0,) + tuple(range(1 + i * (r - 1), 1 + (i + 1) * (r - 1)))
        for i in range(k)
    ]
    return HyperGraph(r, 1 + k * (r - 1), edges)


def complete_uniform(l, r, minus=False):
    """K_l^r, or K_l^{r-} (one edge removed) when minus is set."""
    if r < 2 or l < r:
        raise ValueError(f"need l >= r >= 2, got l={l}, r={r}")
    edges = sorted(itertools.combinations(range(l), r), key=colex_key)
    if minus:
        if l == r:
            raise ValueError("K_r^r minus an edge is edgeless")
        edges = edges[:-1]
    return HyperGraph(r, l, edges)


def tight_cycle(k):
    """C_k^3: triples of cyclically consecutive vertices of a k-cycle (k >= 4)."""
    if k < 4:
        raise ValueError(f"tight cycle needs k >= 4 for distinct edges, got {k}")
    edges = [(i % k, (i + 1) % k, (i + 2) % k) for i in range(k)]
    return HyperGraph(3, k, edges)


def tight_cycle_minus(k):
    """C_k^{3-}: a tight cycle with one edge removed (rotation makes the
    choice irrelevant up to isomorphism)."""
    H = tight_cycle(k)
    return HyperGraph(3, k, H.edges[:-1])


def cycle(k):
    """The graph cycle C_k, k >= 3."""
    if k < 3:
        raise ValueError(f"cycle needs k >= 3, got {k}")
    return HyperGraph(2, k, [(i, (i + 1) % k) for i in range(k)])


def even_cycle(k):
    """C_{2k} for k >= 2."""
    if k < 2:
        raise ValueError(f"even cycle parameter needs k >= 2, got {k}")
    return cycle(2 * k)


def complete_graph(l):
    """The graph clique K_l."""
    if l < 2:
        raise ValueError(f"complete graph needs l >= 2, got {l}")
    return HyperGraph(2, l, itertools.combinations(range(l), 2))


#: zoo registry: name -> (builder, parameter names)
ZOO = {
    "fano": (fano, ()),
    "generalized-triangle": (generalized_triangle, ("r",)),
    "expanded-triangle": (expanded_triangle, ("r",)),
    "f7": (f7, ()),
    "f32": (f32, ()),
    "f43": (f43, ()),
    "k43-sqcup-k33": (k43_sqcup_k33, ()),
    "matching": (matching, ("k", "r")),
    "sunflower": (sunflower, ("k", "r")),
    "complete": (complete_uniform, ("l", "r", "minus")),
    "tight-cycle": (tight_cycle, ("k",)),
    "tight-cycle-minus": (tight_cycle_minus, ("k",)),
    "cycle": (cycle, ("k",)),
    "even-cycle": (even_cycle, ("k",)),
    "complete-graph": (complete_graph, ("l",)),
}


def zoo(name, **params):
    """Build a named hypergraph; raises ValueError on unknown names or bad params."""
    if name not in ZOO:
        raise ValueError(f"unknown zoo object {name!r}; known: {sorted(ZOO)}")
    builder, wanted = ZOO[name]
    extra = set(params) - set(wanted)
    if extra:
        raise ValueError(f"{name} does not take parameters {sorted(extra)}")
    missing = [p for p in wanted if p != "minus" and p not in params]
    if missing:
        raise ValueError(f"{name} requires parameters {missing}")
    return builder(**params)


# -- operators ------------------------------------------------------------------


def minus_family(F):
    """F_-: all one-edge-removals of F, deduped up to isomorphism.

    Isolated vertices are kept, so every member lives on v(F) vertices.
    """
    if not F.edges:
        raise ValueError("minus family of an edgeless hypergraph is undefined")
    members = [
        HyperGraph(F.r, F.n, [f for f in F.edges if f != e]) for e in F.edges
    ]
    return HyperGraphFamily(F.r, members)


def edge_sum(F, e, F2, e2, phi):
    """Glue F minus e to F2 minus e2, identifying v in e with phi[v] in e2.

    phi maps each vertex of e to a distinct vertex of e2.  The result has
    v(F) + v(F2) - r vertices: V(F) keeps its labels, the non-identified
    vertices of F2 follow in ascending order.
    """
    if F.r != F2.r:
        raise ValueError(f"uniformity mismatch: {F.r} vs {F2.r}")
    e = tuple(sorted(e))
    e2 = tuple(sorted(e2))
    if e not in F.edges or e2 not in F2.edges:
        raise ValueError("glue edges must belong to the respective hypergraphs")
    if sorted(phi) != list(e) or sorted(phi.values()) != list(e2):
        raise ValueError("phi must biject the removed edge of F onto that of F2")
    inv = {w: v for v, w in phi.items()}
    relabel = {}
    nxt = F.n
    for w in range(F2.n):
        if w in inv:
            relabel[w] = inv[w]
        else:
            relabel[w] = nxt
            nxt += 1
    edges = [f for f in F.edges if f != e]
    edges.extend(
        tuple(relabel[w] for w in f) for f in F2.edges if f != e2
    )
    return HyperGraph(F.r, F.n + F2.n - F.r, edges)


def edge_sum_family(F, F2):
    """The family of all edge-sums of F and F2: every pair of edges, every
    bijection between them, deduped up to isomorphism."""
    if F.r != F2.r:
        raise ValueError(f"uniformity mismatch: {F.r} vs {F2.r}")
    if not F.edges or not F2.edges:
        raise ValueError("edge-sum needs at least one edge on each side")
    members = []
    for e in F.edges:
        for e2 in F2.edges:
            for perm in itertools.permutations(e2):
                phi = dict(zip(sorted(e), perm))
                members.append(edge_sum(F, e, F2, e2, phi))
    return HyperGraphFamily(F.r, members)


def blow_up(F, k):
    """F[k]: each vertex becomes k clones, each edge the complete r-partite
    r-graph on its clone blocks (k^r edges per original edge)."""
    if k < 1:
        raise ValueError(f"blow-up factor must be >= 1, got {k}")
    edges = []
    for e in F.edges:
        blocks = [range(k * v, k * v + k) for v in e]
        edges.extend(tuple(sorted(choice)) for choice in itertools.product(*blocks))
    return HyperGraph(F.r, k * F.n, edges)


def expansion_graph(G, r):
    """H_G^r: pad every edge of the graph G with its own fresh (r-2)-set."""
    if G.r != 2:
        raise ValueError("expansion_graph expects a 2-graph")
    if r < 3:
        raise ValueError(f"graph expansion needs r >= 3, got {r}")
    edges = []
    nxt = G.n
    for e in G.edges:
        pad = tuple(range(nxt, nxt + r - 2))
        nxt += r - 2
        edges.append(e + pad)
    return HyperGraph(r, G.n + (r - 2) * len(G.edges), edges)


def uncovered_pairs(F):
    """Pairs of vertices of F not contained together in any edge."""
    covered = set()
    for e in F.edges:
        covered.update(itertools.combinations(e, 2))
    return [
        p for p in itertools.combinations(range(F.n), 2) if p not in covered
    ]


def expansion_clique(F):
    """H^F: add, for every pair of vertices not covered by an edge of F, a new
    edge through a fresh disjoint (r-2)-set."""
    if F.r < 3:
        raise ValueError(f"clique expansion needs r >= 3, got {F.r}")
    edges = list(F.edges)
    nxt = F.n
    for p in uncovered_pairs(F):
        pad = tuple(range(nxt, nxt + F.r - 2))
        nxt += F.r - 2
        edges.append(p + pad)
    return HyperGraph(F.r, nxt, edges)


def _is_tree(G):
    """A 2-graph with n - 1 edges is a tree iff it is connected: one component
    of the edge support, or the one isolated vertex when n = 1."""
    if G.r != 2 or len(G.edges) != G.n - 1:
        return False
    return len(G.components()) + len(G.isolated_vertices()) == 1


def ext_tree(T, r):
    """Ext(T): every edge of the tree T gains one shared fresh (r-2)-set."""
    if r < 3:
        raise ValueError(f"tree extension needs r >= 3, got {r}")
    if not _is_tree(T):
        raise ValueError("ext_tree input must be a tree (connected, acyclic 2-graph)")
    pad = tuple(range(T.n, T.n + r - 2))
    return HyperGraph(r, T.n + r - 2, [e + pad for e in T.edges])
