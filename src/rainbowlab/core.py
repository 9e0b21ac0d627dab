"""r-uniform hypergraphs on dense integer vertices.

Representation, canonical labeling, isomorphism, and embedding search.
All objects are immutable after construction and every operation here is
pure, so objects are safe to share.

Conventions
-----------
- vertices are 0..n-1; edges are sorted tuples of r distinct vertices;
- the edge list is kept in colexicographic order (compare reversed tuples);
- text format: line 1 ``r n m``, then m lines of r ascending vertex indices,
  lines sorted colex, single spaces, trailing newline.  The parser rejects
  anything that does not round-trip bit-exactly.
"""

import functools
import itertools
from collections import namedtuple
from math import comb

try:  # the builtin module: hashlib is pretty heavy to load
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

#: canonical labeling refuses larger inputs (capacity, not correctness)
MAX_CANON_VERTICES = 20


class CapacityError(Exception):
    """Input exceeds a documented size bound of the implementation."""


class FormatError(ValueError):
    """Text-format violation (parser is bit-exact)."""


# The errors below belong to ``cache``, ``turan`` and ``antiramsey``, which
# re-export them; they live here so that ``cli`` can catch them without
# importing those modules.


class CacheError(Exception):
    """Corrupt or failed-verification cache content."""


class MissingRecordError(LookupError):
    """A required exact Turan/ar record is not available."""


class CertificationError(Exception):
    """A coloring failed the rainbow-freeness check it is supposed to satisfy."""


def colex_key(edge):
    """Sort key realizing colexicographic order on sorted tuples."""
    return tuple(reversed(edge))


def colex_rank(edge):
    """Rank of a sorted r-subset in the colex enumeration of all r-subsets.

    Uses the combinatorial number system: rank = sum_i C(edge[i], i+1).
    """
    return sum(comb(v, i + 1) for i, v in enumerate(edge))


def all_edges_colex(n, r):
    """All r-subsets of {0..n-1} as sorted tuples, in colex order."""
    return sorted(itertools.combinations(range(n), r), key=colex_key)


class HyperGraph(namedtuple("HyperGraph", "r n edges")):
    """An r-uniform hypergraph on vertices 0..n-1 with a colex-sorted edge list.

    Invariants: every edge has exactly r distinct vertices < n, no duplicate
    edges, edge list strictly increasing in colex order.  Its fields are
    read-only.
    """

    __slots__ = ()

    def __new__(cls, r, n, edges):
        if r < 1:
            raise ValueError(f"uniformity must be >= 1, got {r}")
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        norm = []
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != r or len(set(t)) != r:
                raise ValueError(f"edge {e!r} is not an r-set for r={r}")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {e!r} has a vertex outside 0..{n - 1}")
            norm.append(t)
        norm.sort(key=colex_key)
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a!r}")
        return super().__new__(cls, r, n, tuple(norm))

    def has_edge(self, e):
        return tuple(sorted(e)) in self.edges

    # -- local structure --------------------------------------------------

    def link(self, v):
        """Link of v: the (r-1)-graph {e \\ {v} : v in e in H} on the same vertices."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        rem = [tuple(u for u in e if u != v) for e in self.edges if v in e]
        return HyperGraph(self.r - 1, self.n, rem)

    def degree(self, v):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return sum(1 for e in self.edges if v in e)

    def degrees(self):
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return d

    def max_degree(self):
        return max(self.degrees(), default=0) if self.n else 0

    def components(self):
        """Vertex lists (ascending) of the connected components of the edge
        support, in order of their smallest vertex; isolated vertices are left out."""
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            a = find(e[0])
            for v in e[1:]:
                parent[find(v)] = a
        groups = {}
        degs = self.degrees()
        for v in range(self.n):
            if degs[v] > 0:
                groups.setdefault(find(v), []).append(v)
        return list(groups.values())

    def isolated_vertices(self):
        d = self.degrees()
        return [v for v in range(self.n) if d[v] == 0]

    # -- subgraph surgery ---------------------------------------------------

    def induced(self, S):
        """Induced subgraph on S, relabeled to dense vertices 0..|S|-1
        (ascending original order)."""
        S = sorted(set(S))
        if S and (S[0] < 0 or S[-1] >= self.n):
            raise ValueError("S is not a subset of the vertex set")
        pos = {v: i for i, v in enumerate(S)}
        keep = set(S)
        edges = [tuple(pos[u] for u in e) for e in self.edges if keep.issuperset(e)]
        return HyperGraph(self.r, len(S), edges)

    def remove(self, S):
        """Induced subgraph on the complement of S."""
        drop = set(S)
        return self.induced([v for v in range(self.n) if v not in drop])


def complete(n, r):
    """The complete r-graph K_n^r."""
    return HyperGraph(r, n, itertools.combinations(range(n), r))


def disjoint_union(F, t):
    """The tiling tF: t vertex-disjoint copies of F (t >= 1)."""
    if t < 1:
        raise ValueError(f"tiling multiplicity must be >= 1, got {t}")
    edges = []
    for c in range(t):
        off = c * F.n
        edges.extend(tuple(v + off for v in e) for e in F.edges)
    return HyperGraph(F.r, t * F.n, edges)


# -- text format ------------------------------------------------------------


def to_text(H):
    lines = [f"{H.r} {H.n} {len(H.edges)}"]
    lines.extend(" ".join(str(v) for v in e) for e in H.edges)
    return "\n".join(lines) + "\n"


def from_text(text):
    """Parse the hypergraph text format; rejects any deviation bit-exactly."""
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        raise FormatError("missing trailing newline")
    lines = lines[:-1]
    if not lines:
        raise FormatError("empty input")
    head = lines[0].split(" ")
    if len(head) != 3:
        raise FormatError(f"header must be 'r n m', got {lines[0]!r}")
    try:
        r, n, m = (int(x) for x in head)
    except ValueError as exc:
        raise FormatError(f"non-integer header field in {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split(" ")
        try:
            e = tuple(int(x) for x in parts)
        except ValueError as exc:
            raise FormatError(f"non-integer vertex in line {ln!r}") from exc
        if len(e) != r:
            raise FormatError(f"edge line {ln!r} does not have {r} vertices")
        if list(e) != sorted(set(e)):
            raise FormatError(f"edge line {ln!r} is not strictly ascending")
        edges.append(e)
    try:
        H = HyperGraph(r, n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if to_text(H) != text:
        raise FormatError("input is not in canonical serialization (colex order, exact spacing)")
    return H


def write_file(H, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_text(H))


def read_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return from_text(fh.read())


# -- canonical labeling -------------------------------------------------------


def _incidence(H):
    inc = [[] for _ in range(H.n)]
    for i, e in enumerate(H.edges):
        for v in e:
            inc[v].append(i)
    return inc


def _refine(H, colors, inc):
    """Stable vertex coloring by iterated (color, incident edge signature) splitting.

    Renumbering follows sorted signature order, so the result is invariant
    under relabeling: isomorphic inputs get corresponding colorings.
    """
    ncells = len(set(colors))
    while True:
        esigs = [tuple(sorted(colors[v] for v in e)) for e in H.edges]
        vsigs = [
            (colors[v], tuple(sorted(esigs[i] for i in inc[v]))) for v in range(H.n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(vsigs)))}
        new = [order[s] for s in vsigs]
        k = len(order)
        if k == ncells:
            return new
        colors, ncells = new, k


def _cert_bytes(H, pos):
    """Certificate of H relabeled by pos (vertex -> new label)."""
    redges = sorted(
        (tuple(sorted(pos[v] for v in e)) for e in H.edges), key=colex_key
    )
    head = bytes([H.r, H.n]) + len(redges).to_bytes(2, "big")
    return head + b"".join(bytes(e) for e in redges)


@functools.cache
def _canonical_search(H):
    """Individualization-refinement search; returns the minimum certificate.

    Memoized, so each graph is labeled once per process.

    Discovered automorphisms (pairs of leaves with equal certificates) prune
    sibling branches whose target vertices lie in an already-explored orbit of
    the subgroup fixing the individualized prefix.
    """
    n = H.n
    inc = _incidence(H)
    best = None
    seen = {}  # cert -> pos of first leaf producing it
    auts = []  # known automorphisms as tuples (vertex -> vertex)

    def orbit_reached(explored, fixed):
        gens = [g for g in auts if all(g[x] == x for x in fixed)]
        if not gens:
            return set(explored)
        reach = set(explored)
        frontier = list(explored)
        while frontier:
            u = frontier.pop()
            for g in gens:
                w = g[u]
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        return reach

    def search(colors, fixed):
        nonlocal best
        colors = _refine(H, colors, inc)
        cells = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            pos = colors  # discrete: color is the new label
            cert = _cert_bytes(H, pos)
            if cert in seen:
                p0 = seen[cert]
                inv0 = [0] * n
                for v in range(n):
                    inv0[p0[v]] = v
                g = tuple(inv0[pos[v]] for v in range(n))
                if g != tuple(range(n)) and g not in auts:
                    auts.append(g)
            elif len(seen) < 4096:
                seen[cert] = list(pos)
            if best is None or cert < best:
                best = cert
            return
        explored = []
        for v in sorted(target):
            if explored and v in orbit_reached(explored, fixed):
                continue
            child = [2 * c for c in colors]
            child[v] -= 1
            search(child, fixed + (v,))
            explored.append(v)

    search([0] * n, ())
    return best


def canonical_form(H):
    """Complete isomorphism invariant: equal bytes iff isomorphic.

    Supports v(H) <= MAX_CANON_VERTICES; larger inputs raise CapacityError.
    """
    if H.n > MAX_CANON_VERTICES:
        raise CapacityError(
            f"canonical labeling supports at most {MAX_CANON_VERTICES} vertices, got {H.n}"
        )
    return _canonical_search(H)


def is_isomorphic(H1, H2):
    if H1.r != H2.r:
        raise ValueError(f"uniformity mismatch: {H1.r} vs {H2.r}")
    if H1.n != H2.n or len(H1.edges) != len(H2.edges):
        return False
    return canonical_form(H1) == canonical_form(H2)


# -- families -----------------------------------------------------------------


class HyperGraphFamily(namedtuple("HyperGraphFamily", "r members")):
    """A finite set of r-graphs, pairwise non-isomorphic (deduped on construction).

    Construction keeps the first member of each canonical form and sorts the
    kept members by (n, edge count, form), so two families are equal iff
    their kept members are.  Its fields are read-only.
    """

    __slots__ = ()

    def __new__(cls, r, members):
        first = {}
        for m in members:
            if m.r != r:
                raise ValueError(f"family uniformity {r} but member has r={m.r}")
            first.setdefault(canonical_form(m), m)
        kept = sorted(first.items(), key=lambda p: (p[1].n, len(p[1].edges), p[0]))
        return super().__new__(cls, r, tuple(m for _, m in kept))

    def union(self, other):
        if self.r != other.r:
            raise ValueError("uniformity mismatch in family union")
        return HyperGraphFamily(self.r, self.members + other.members)


def digest16(data):
    """The first 16 hex digits of the SHA-256 of the bytes ``data``."""
    return sha256(data).hexdigest()[:16]


def family_key(fam):
    """Canonical hash of a family: stable across member order and relabeling."""
    forms = sorted(canonical_form(m) for m in fam.members)
    return digest16(f"r={fam.r};".encode() + b"".join(f + b"|" for f in forms))


# -- embedding search -----------------------------------------------------------


class Embedding(namedtuple("Embedding", "mapping")):
    """An injective vertex map realizing F as a subgraph of H.

    mapping[i] is the host image of pattern vertex i.
    """

    __slots__ = ()

    def image_edges(self, F):
        return [tuple(sorted(self.mapping[v] for v in e)) for e in F.edges]

    def check(self, F, H):
        m = self.mapping
        if len(m) != F.n or len(set(m)) != F.n or not all(0 <= w < H.n for w in m):
            return False
        return all(H.has_edge(e) for e in self.image_edges(F))


def iter_embeddings(F, H):
    """Yield every embedding of F into H, each once (exhaustive).

    Backtracking places next the unplaced pattern vertex with the most
    neighbors already placed (ties: larger degree, then smaller label), so
    each component is placed connected and isolated vertices come last.  An
    edge of F is checked at its last-placed vertex, whose candidates are one
    bitset of unused host vertices ANDed with the completion bitset of the
    edge's placed (r-1)-subset, looked up by the sum of its vertices' bits.
    """
    if F.r != H.r:
        raise ValueError(f"uniformity mismatch: {F.r} vs {H.r}")
    if F.n > H.n:
        return
    nbrs = [set() for _ in range(F.n)]
    for e in F.edges:
        for v in e:
            nbrs[v].update(e)
    degs = F.degrees()
    order = []
    rest = set(range(F.n))
    while rest:
        u = max(rest, key=lambda v: (len(nbrs[v] - rest), degs[v], -v))
        order.append(u)
        rest.remove(u)
    # closes[k]: for each edge whose last-placed vertex is order[k], its other vertices
    closes = [[] for _ in range(F.n)]
    for e in F.edges:
        k = max(map(order.index, e))
        closes[k].append([x for x in e if x != order[k]])
    # completions[S]: host vertices v with S | {v} a host edge, for S an (r-1)-subset bitset
    completions = {}
    for e in H.edges:
        key = sum(1 << v for v in e)
        for v in e:
            completions[key ^ (1 << v)] = completions.get(key ^ (1 << v), 0) | (1 << v)
    bits = [0] * F.n  # bits[u]: the host vertex of placed pattern vertex u, as a bit

    def rec(k, free):
        if k == F.n:
            yield Embedding(tuple(b.bit_length() - 1 for b in bits))
            return
        mask = free
        for others in closes[k]:
            mask &= completions.get(sum(map(bits.__getitem__, others)), 0)
        u = order[k]
        while mask:
            low = mask & -mask
            mask ^= low
            bits[u] = low
            yield from rec(k + 1, free ^ low)

    yield from rec(0, (1 << H.n) - 1)


def find_embedding(F, H):
    """First embedding of F into H, or None (exhaustive)."""
    return next(iter_embeddings(F, H), None)


def contains_member(H, fam):
    """True iff some member of fam embeds in H (subgraph containment)."""
    if H.r != fam.r:
        raise ValueError(f"uniformity mismatch: {H.r} vs {fam.r}")
    return any(
        m.n <= H.n and find_embedding(m, H) is not None for m in fam.members
    )


# -- r-partiteness --------------------------------------------------------------


def is_r_partite(H):
    """True iff V(H) splits into r classes with every edge hitting each class once.

    Exhaustive search over colorings; symmetry pruned by never opening color
    c+1 before color c has been used.
    """
    r, n = H.r, H.n
    if n == 0 or not H.edges:
        return True
    inc = _incidence(H)
    color = [-1] * n

    def ok(v):
        for i in inc[v]:
            e = H.edges[i]
            seen = set()
            for u in e:
                c = color[u]
                if c in seen:
                    return False
                if c != -1:
                    seen.add(c)
        return True

    def rec(v, maxc):
        if v == n:
            return True
        top = min(maxc + 1, r - 1)
        for c in range(top + 1):
            color[v] = c
            if ok(v) and rec(v + 1, max(maxc, c)):
                return True
        color[v] = -1
        return False

    return rec(0, -1)
