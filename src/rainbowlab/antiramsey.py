"""Edge colorings of K_n^r, rainbow-copy search, lower-bound constructions,
and exact anti-Ramsey numbers for tilings.

ar(n, tF) is the least N such that every surjective N-coloring of K_n^r has a
rainbow tF.  The solver computes A = the maximum number of classes of an edge
partition with no rainbow tF (restricted-growth-string search over the colex
edge order) and returns A + 1; surjectivity is automatic since every class of
a partition is nonempty.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import (
    CapacityError,
    FormatError,
    HyperGraph,
    all_edges_colex,
    colex_rank,
    disjoint_union,
    family_key,
    find_embedding,
)
from .turan import (
    MissingRecordError,
    SOLVER_VERSION,
    _climb,
    _ex_ladder,
    _iter_copies,
    _rungs,
    _vertex_fields,
    singleton,
)


class CertificationError(Exception):
    """A coloring failed the rainbow-freeness check it is supposed to satisfy."""


class EdgeColoring:
    """A surjective coloring of all edges of K_n^r.

    colors[i] is the color (1..ncolors) of the edge with colex rank i.
    """

    __slots__ = ("r", "n", "ncolors", "colors")

    def __init__(self, r, n, ncolors, colors):
        E = comb(n, r)
        colors = tuple(colors)
        if len(colors) != E:
            raise ValueError(f"expected {E} colors, got {len(colors)}")
        if ncolors < 1 or any(not 1 <= c <= ncolors for c in colors):
            raise ValueError("colors must lie in 1..ncolors")
        if len(set(colors)) != ncolors:
            raise ValueError("coloring must be surjective onto 1..ncolors")
        self.r = r
        self.n = n
        self.ncolors = ncolors
        self.colors = colors

    def color_of(self, edge):
        """The color of ``edge``, r distinct vertices of 0..n-1 in any order."""
        e = tuple(sorted(edge))
        if not len(set(e)) == len(e) == self.r or e[0] < 0 or e[-1] >= self.n:
            raise ValueError(f"not an edge of K_{self.n}^{self.r}: {edge!r}")
        return self.colors[colex_rank(e)]

    def __eq__(self, other):
        return (
            isinstance(other, EdgeColoring)
            and (self.r, self.n, self.ncolors, self.colors)
            == (other.r, other.n, other.ncolors, other.colors)
        )

    def __repr__(self):
        return f"EdgeColoring(r={self.r}, n={self.n}, ncolors={self.ncolors})"


def coloring_to_text(chi):
    head = f"{chi.r} {chi.n} {chi.ncolors}"
    return head + "\n" + " ".join(str(c) for c in chi.colors) + "\n"


def coloring_from_text(text):
    lines = text.split("\n")
    if len(lines) != 3 or lines[-1] != "":
        raise FormatError("coloring file must be exactly two lines")
    head = lines[0].split(" ")
    if len(head) != 3:
        raise FormatError(f"header must be 'r n N', got {lines[0]!r}")
    try:
        r, n, N = (int(x) for x in head)
        colors = [int(x) for x in lines[1].split(" ")]
    except ValueError as exc:
        raise FormatError("non-integer field in coloring file") from exc
    try:
        chi = EdgeColoring(r, n, N, colors)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if coloring_to_text(chi) != text:
        raise FormatError("coloring file is not in canonical serialization")
    return chi


# -- rainbow copy search ----------------------------------------------------------


def find_rainbow_copy(chi, target):
    """An embedding of ``target`` into K_n^r whose edge images carry pairwise
    distinct colors under chi, or None.  Exhaustive: the first rainbow copy
    that ``subgraph_copies`` lists, as an embedding, built lazily so that
    the copies after it are never built.  An edgeless target has
    no color to repeat, so it has one when it fits; if the target has more
    vertices than the host no copy exists and None is returned.
    """
    r, n = chi.r, chi.n
    if target.r != r:
        raise ValueError(f"uniformity mismatch: {target.r} vs {r}")
    if not target.edges:
        return find_embedding(target, HyperGraph(r, n, []))
    if len(target.edges) > chi.ncolors:
        return None
    for cp in _iter_copies(target, n):
        if len({chi.colors[i] for i in cp}) == len(cp):
            edges = all_edges_colex(n, r)
            return find_embedding(target, HyperGraph(r, n, [edges[i] for i in cp]))
    return None


def max_rainbow_subgraph(chi):
    """A rainbow subgraph with the maximum number of edges: one edge per color
    class, deterministically the colex-least edge of each class."""
    edges = all_edges_colex(chi.n, chi.r)
    first = {}
    for i, c in enumerate(chi.colors):
        if c not in first:
            first[c] = edges[i]
    return HyperGraph(chi.r, chi.n, list(first.values()))


# -- lower-bound constructions -----------------------------------------------------


def build_coloring_fact21(n, t, F, record):
    """Rainbow extremal tF-free graph plus one dump color.

    Uses ex(n, tF) + 1 colors total and contains no rainbow (t+1)F: at most
    one copy of F in a (t+1)F can touch the dump color, and the rainbow part
    lives inside the tF-free witness.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t * F.n > n:
        raise ValueError(f"target cannot embed: t*v(F) = {t * F.n} > n = {n}")
    fam = singleton(disjoint_union(F, t))
    if record.family_key != family_key(fam) or record.n != n:
        raise ValueError("record does not match ex(n, tF)")
    if not record.is_exact():
        raise MissingRecordError("the fact21 construction needs an exact record")
    H = record.witness
    E = comb(n, F.r)
    colors = [len(H.edges) + 1] * E
    for i, e in enumerate(H.edges):
        colors[colex_rank(e)] = i + 1
    chi = EdgeColoring(F.r, n, len(H.edges) + 1, colors)
    hit = find_rainbow_copy(chi, disjoint_union(F, t + 1))
    if hit is not None:
        raise CertificationError(f"fact21 coloring admits a rainbow {t + 1}x copy: {hit.mapping}")
    return chi


def build_coloring_fact31(n, t, F, inner):
    """Keep an inner coloring on the first n-t vertices, make every edge
    meeting the last t vertices a fresh color.

    The inner coloring must itself have no rainbow 2F; the result then has no
    rainbow (t+2)F.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if inner.r != F.r or inner.n != n - t:
        raise ValueError(f"inner coloring must live on K_{n - t}^{F.r}")
    if find_rainbow_copy(inner, disjoint_union(F, 2)) is not None:
        raise CertificationError("inner coloring fails its own certification (rainbow 2F)")
    if t == 0:
        return inner
    M = inner.ncolors
    edges = all_edges_colex(n, F.r)
    colors = []
    nxt = M
    for e in edges:
        if e[-1] < n - t:
            colors.append(inner.colors[colex_rank(e)])
        else:
            nxt += 1
            colors.append(nxt)
    chi = EdgeColoring(F.r, n, nxt, colors)
    assert nxt == M + comb(n, F.r) - comb(n - t, F.r)
    hit = find_rainbow_copy(chi, disjoint_union(F, t + 2))
    if hit is not None:
        raise CertificationError(f"fact31 coloring admits a rainbow {t + 2}x copy: {hit.mapping}")
    return chi


# -- exact ar ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArRecord:
    """ar(n, tF) with a witness coloring on value-1 colors (none when value=1)."""

    n: int
    t: int
    r: int
    F_key: str
    value: int
    witness: EdgeColoring | None
    status: str  # "exact" or "bounds"
    lo: int = 0
    hi: int = 0
    nodes: int = 0
    solver: str = SOLVER_VERSION
    #: what proved the value: "sandwich" or "averaging" (the value pass
    #: reached that cap), "search" (the value pass ran to the end), "budget"
    #: (not proved: the node budget ran out) or "cache" (loaded).  Like
    #: ``nodes``, never written.
    closed_by: str = ""

    def is_exact(self):
        return self.status == "exact"


def _ar_dfs(search, after, allowed, assign, i, k, free, live, floor, star, common):
    """Assign a color to each edge i.. of the colex order; k classes so far.

    ``allowed[j]`` is the bitmask of colors edge j may take, -1 while no copy
    constrains it, and ``free`` counts the undecided edges still at -1.
    Forward checking settles each copy at its second-largest edge i: when the
    copy's edges below i carry distinct colors (a threat), a color c of i
    that is not among them narrows the copy's largest edge to those colors
    and c.  The prune is k + free <= best.  ``live`` holds the lex-leader
    comparisons still undecided (``_leader``), and a prefix greater than one
    of its images is pruned.  With ``floor`` = (below, vec, ones, high),
    below = A(m-1) and the tables of ``turan._vertex_fields``, the star floor
    prunes a node where some vertex v has fewer than best + 1 - below classes
    wholly inside star(v) and free undecided edges at v; ``star`` packs those
    counts per vertex, and ``common[c]`` packs a 1 for each vertex that every
    edge of class c contains.  ``ar_exact`` proves all four sound.

    Colors are tried in ascending order, so leaves come in lexicographic
    order of their restricted growth strings.
    """
    search.tick()
    if k + free <= search.best:
        return
    if floor is not None:
        below, vec, ones, high = floor
        need = search.best + 1 - below
        if need > 0 and (star + (128 - need) * ones) & high != high:
            return
    live = _leader(assign, live, i)
    if live is None:
        return
    if i == len(assign):
        search.offer(k, tuple(assign))
        return
    here = allowed[i]
    colors = here & ((2 << k) - 1)
    if here == -1:
        free -= 1
        if floor is not None:
            star -= vec[i]
    threats = []
    for last, others in after[i]:
        mask = 0
        for e in others:
            mask |= 1 << assign[e]
        if mask.bit_count() == len(others):
            threats.append((last, mask))
    while colors:
        bit = colors & -colors
        c = bit.bit_length() - 1
        colors ^= bit
        assign[i] = c
        narrowed = []
        rest = free
        for last, mask in threats:
            if not mask & bit:
                old = allowed[last]
                if old == -1:
                    rest -= 1
                allowed[last] = old & (mask | bit)
                narrowed.append((last, old))
        s = star
        if floor is not None:
            for last, old in narrowed:
                if old == -1:
                    s -= vec[last]
            if c == k:  # a new class, wholly inside the star of each vertex of edge i
                common.append(vec[i])
                s += vec[i]
            else:  # class c stays inside the stars of the vertices edge i shares with it
                was = common[c]
                common[c] = was & vec[i]
                s -= was & ~vec[i]
        _ar_dfs(search, after, allowed, assign, i + 1, k + (c == k), rest, live, floor, s, common)
        if floor is not None:
            if c == k:
                common.pop()
            else:
                common[c] = was
        while narrowed:
            last, old = narrowed.pop()
            allowed[last] = old
    assign[i] = -1


def _leader(assign, live, i):
    """Extend each comparison of ``live`` to the image prefix that edges
    0..i-1 determine; the comparisons still tied, or None when the prefix
    of ``assign`` is greater than one of its images.

    A comparison (p, ends, ln, rel) has found ``assign[:ln]`` equal to the
    restricted growth string of the image b[j] = assign[p[j]] on its first
    ln positions; ``rel`` renames the colors of b in order of first
    appearance.  One that finds ``assign`` smaller is dropped for good.
    """
    kept = []
    for cmp in live:
        p, ends, ln, rel = cmp
        end = ends[i]
        if ln == end:
            kept.append(cmp)
            continue
        while ln < end:
            x = assign[p[ln]]
            y = rel.get(x)
            if y is None:
                y = len(rel)
                rel = {**rel, x: y}
            a = assign[ln]
            if a != y:
                if a > y:
                    return None
                break
            ln += 1
        else:
            kept.append((p, ends, ln, rel))
    return kept


@functools.cache
def _transpositions(m, r):
    """The adjacent transpositions (v v+1) of the vertices of K_m^r as
    (p, ends): p[j] is the colex rank of the image of edge j, and ends[i]
    the length of the longest image prefix that edges 0..i-1 determine
    (every j < ends[i] has p[j] < i)."""
    edges = all_edges_colex(m, r)
    E = len(edges)
    out = []
    for v in range(m - 1):
        swap = {v: v + 1, v + 1: v}
        p = [colex_rank(tuple(sorted(swap.get(x, x) for x in e))) for e in edges]
        ends, ln = [], 0
        for i in range(E + 1):
            while ln < E and p[ln] < i:
                ln += 1
            ends.append(ln)
        out.append((p, ends))
    return tuple(out)


class _ArRung:
    """The ``ar`` search context of K_m^r for ``_climb``, from the masks of
    the copies of tF in K_m^r as ``_Ctx``, and the lex-leader transpositions.

    ``after[i]`` lists (last, others) for each copy whose second-largest
    colex edge is i: its largest edge and its edges below i.  The copies of
    one target have one size, so no mask is dominated and the masks are the
    copies, each of two edges or more (``_ar_ladder``).  Their order does not
    matter: forward checking only ANDs masks and counts each edge's first
    narrowing once, so the tree, its nodes and its leaves are the same.
    """

    def __init__(self, m, r, masks):
        self.m, self.r, self.E = m, r, comb(m, r)
        self.after = [[] for _ in range(self.E)]
        for mask in masks:
            *others, second, last = (i for i in range(mask.bit_length()) if mask >> i & 1)
            self.after[second].append((last, tuple(others)))

    def live(self):
        """The lex-leader comparisons at the root: none decided yet."""
        return [(p, ends, 0, {}) for p, ends in _transpositions(self.m, self.r)]

    def start(self):
        """A greedy partition with no rainbow copy, as (classes, restricted
        growth string), or (0, None).  In colex order each edge takes the
        highest color its forward-checked mask allows, a fresh class when no
        copy constrains it, and narrows masks as ``_ar_dfs`` does; at an edge
        with no allowed color the greedy gives up."""
        allowed = [-1] * self.E
        assign, k = [], 0
        for i in range(self.E):
            colors = allowed[i] & ((2 << k) - 1)
            if not colors:
                return 0, None
            c = colors.bit_length() - 1
            assign.append(c)
            k += c == k
            bit = 1 << c
            for last, others in self.after[i]:
                mask = 0
                for e in others:
                    mask |= 1 << assign[e]
                if mask.bit_count() == len(others) and not mask & bit:
                    allowed[last] &= mask | bit
        return k, tuple(assign)

    def run(self, search, below=None):
        """Run ``search`` over every edge of the host, each free at the root.
        ``below`` = A(m-1) turns on the star floor (``ar_exact``)."""
        floor, star = None, 0
        if below is not None:
            vec, ones, high = _vertex_fields(self.m, self.r)
            floor, star = (below, vec, ones, high), sum(vec)
        allowed, assign = [-1] * self.E, [-1] * self.E
        return search.run(
            _ar_dfs, self.after, allowed, assign, 0, 0, self.E, self.live(), floor, star, []
        )


def _ar_ladder(target, ex):
    """The ``rung`` and ``caps`` of the ladder of A(m) = ar(m, target) - 1,
    for ``_climb``, given ex(m, target) by m in ``ex``.  ``rung(m)`` builds
    ``_ArRung`` rungs (``_rungs``); A(m) is trivial below v(tF), C(m, r), and
    for a one-edge target, 0, so every searched rung has m > r.

    ``caps(m, below)`` names two proven caps on A(m), the most classes of a
    partition of K_m^r with no rainbow tF, with below = A(m-1):

    - sandwich, A(m) <= ex(m, tF) (<= C(m, r)): one edge from each class is a
      rainbow subgraph, so it contains no tF;
    - averaging, A(m) <= floor(m A(m-1) / (m-r)).  Deleting a vertex v from
      such a partition chi leaves a partition chi-v of K_{m-1}^r with no
      rainbow tF, and chi-v loses exactly the classes whose edges all contain
      v.  The edges of a class share at most r vertices, so
      sum_v A(chi-v) >= (m-r) A(chi), and each term is at most A(m-1).
    """
    r = target.r

    def caps(m, below):
        return {"sandwich": ex[m], "averaging": m * below // (m - r)}

    return _rungs(_ArRung, r, (target,)), caps


def ar_exact(n, t, F, budget=None):
    """Exact ar(n, tF): max color classes of a no-rainbow-tF partition, plus one.

    Enumerates restricted growth strings over the colex edge order, least
    first, in one sequential value pass per rung.  A pass starts from a
    greedy seed (``_ArRung.start``), whose forward checking is the search's
    own, so its classes are a lower bound on A, and finds the maximum A.  The
    witness is the lexicographically least maximizer, the last incumbent of
    the top pass, which starts one below its seed (``_climb`` proves this).

    Edge j may take color c unless c completes a rainbow copy whose largest
    edge is j.  The search settles each copy by forward checking at its
    second-largest edge p: once p has color c, every edge of the copy below j
    is colored.  If those colors are pairwise distinct, j must repeat one of
    them, so the colors allowed at j are narrowed to that set; otherwise no
    color of j makes the copy rainbow and it never constrains j.  So the
    colors allowed at j are exactly those that complete no rainbow copy
    ending at j (a one-edge target leaves none, and A = 0), as a check at j
    itself would find: the branching, its order and the leaves are those of
    the plain search.

    The search prunes a node with k classes when k + free <= best, where free
    counts the undecided edges that no copy has narrowed.  A narrowed edge may
    only repeat colors in use when it was narrowed, so it cannot open a class,
    and each free edge opens at most one: every leaf below has at most
    k + free classes.  The prune drops only subtrees with no leaf above
    ``best``, so it changes neither the value nor the first leaf above
    ``best``, the witness.

    Every pass skips partitions that are not lex-leaders (Crawford, Ginsberg,
    Luks and Roy 1996).  A vertex permutation s of K_n^r maps a partition a
    to a.s, edge j taking the class of edge s(j); write R(a.s) for its
    restricted growth string.  For each adjacent transposition s = (v v+1)
    the search compares a with R(a.s) on the longest prefix that the edges
    colored so far determine, and prunes the node when a is greater there.
    The restricted growth string of a prefix is the prefix of the string, so
    a prefix greater than its image makes every string below it greater than
    its image, and a leaf survives iff a <= R(a.s) for every such s; a
    string that passes at its leaf passes at every prefix.  s permutes the
    copies of tF, so a.s has the classes of a and no rainbow tF when a has
    none.  Value: every partition's orbit under S_n holds a
    lexicographically least string w, and w <= R(w.s) for every s, so w
    survives; the forward-checking and bound prunes keep it as they keep
    every leaf above ``best``, so every orbit that beats ``best`` keeps a
    leaf and the value is unchanged.  Witness: the least string w with A
    classes and no rainbow tF satisfies w <= R(w.s) for every s, as R(w.s)
    is such a string too.  So w survives, and the first leaf with A is still
    w: the witness is unchanged.

    The pass on rung m also prunes by a star floor from below = A(m-1).
    Lemma: a partition chi of K_m^r with A* classes and no rainbow tF has,
    for every vertex v, at least A* - A(m-1) classes whose edges all contain
    v (wholly inside star(v)).  Deleting v leaves a partition chi-v of
    K_{m-1}^r with no rainbow tF, so with at most A(m-1) classes, and chi-v
    loses exactly the classes wholly inside star(v).  At a node, such a
    class of a leaf below is either a class already open and so far wholly
    inside star(v), or one that an undecided free edge at v opens later: a
    narrowed edge cannot open a class.  Their sum bounds the count at every
    leaf below, and a leaf above ``best`` has A* >= best + 1, so a node where
    that sum falls below best + 1 - below at some vertex holds no leaf above
    ``best``.  Like the bound prune, the star floor keeps every leaf above
    ``best``, so it changes neither the value nor the witness, and the
    lex-leader argument above holds with it.  ``_climb`` gives below to the
    pass on rung m unless rung m-1 is trivial.

    The value pass stops at a proven cap on A(n) (``_ar_ladder``), the
    sandwich ex(n, tF) or the averaging cap from A(n-1): a values-only
    ``_climb`` of the ``ex_exact`` ladder gives ex(m, tF) for m <= n, then
    ``_climb`` runs the rungs m = r..n and takes the witness on the top.
    Both ladders build their rungs with ``_rungs`` from the cached masks of
    ``_copy_masks``, so each rung's copies of tF are enumerated once.
    ``closed_by`` names the cap reached (the sandwich first on a tie), or
    ``search`` when the value pass ran to the end.

    ``nodes`` counts both ladders and is the same on every run; ``budget``
    caps them together.  When it runs out the record degrades to bounds(lo,
    hi), one above the bounds on A that ``_climb`` returns, with its
    incumbent as witness: the top rung's seed when it runs out below the top.
    """
    if t < 1:
        raise ValueError("t = 0 tilings are rejected (rainbow copy would be vacuous)")
    if t * F.n > n:
        raise ValueError(f"target cannot embed: t*v(F) = {t * F.n} > n = {n}")
    if not F.edges:
        raise ValueError("F must have at least one edge")
    r = F.r
    E = comb(n, r)
    if E > 32:
        raise CapacityError(f"partition search supports C(n,r) <= 32 edges, got {E}")
    target = disjoint_union(F, t)
    key = family_key(singleton(F))
    ms, ex = range(r, n + 1), {}
    rung, caps = _ar_ladder(target, ex)
    if isinstance(rung(n), int):  # a one-edge target: A = 0, no search, no witness
        return ArRecord(n, t, r, key, 1, None, "exact", closed_by="sandwich")
    nodes = _climb(ms, *_ex_ladder(r, (target,)), budget, values=ex)[3]
    A, rgs, hi, nodes, closed_by = _climb(ms, rung, caps, budget, nodes)
    witness = EdgeColoring(r, n, max(rgs) + 1, [c + 1 for c in rgs]) if rgs else None
    status, lo, hi = ("bounds", A + 1, hi + 1) if closed_by == "budget" else ("exact", 0, 0)
    return ArRecord(n, t, r, key, A + 1, witness, status, lo, hi, nodes, closed_by=closed_by)


def verify_no_rainbow(chi, F, t):
    """True iff chi has no rainbow tF (exhaustive)."""
    return find_rainbow_copy(chi, disjoint_union(F, t)) is None


class ArTable:
    """Map (F key, n, t) -> ArRecord.

    On a miss the table asks ``loader(n, t, F)`` for the record (None when
    there is none) and keeps what it returns, so each record is loaded once.
    """

    def __init__(self, loader=None):
        self._records = {}
        self._loader = loader

    def put(self, record):
        self._records[record.F_key, record.n, record.t] = record

    def get(self, F, n, t):
        key = family_key(singleton(F))
        rec = self._records.get((key, n, t))
        if rec is None and self._loader is not None:
            rec = self._loader(n, t, F)
            if rec is not None:
                self.put(rec)
        if rec is None or not rec.is_exact():
            raise MissingRecordError(f"no exact ar record for n={n}, t={t}, F={key}")
        return rec

    def ar(self, F, n, t):
        return self.get(F, n, t).value


# -- verification of the finite statements ---------------------------------------


@dataclass(frozen=True)
class SandwichVerdict:
    n: int
    s: int
    ar_value: int
    lower: int
    upper: int
    holds: bool


def sandwich_check(n, s, F, turan_table, ar_table):
    """ex(n,(s-1)F)+2 <= ar(n,sF) <= ex(n,sF)+1 from exact records.

    For s = 1 the lower bound degenerates (a single color admits no rainbow F
    with two or more edges): 2 when |F| >= 2, else 1.
    """
    ar_rec = ar_table.get(F, n, s)
    upper = turan_table.ex(singleton(disjoint_union(F, s)), n) + 1
    if s >= 2:
        lower = turan_table.ex(singleton(disjoint_union(F, s - 1)), n) + 2
    else:
        lower = 2 if len(F.edges) >= 2 else 1
    holds = lower <= ar_rec.value <= upper
    return SandwichVerdict(n, s, ar_rec.value, lower, upper, holds)


@dataclass(frozen=True)
class ReductionVerdict:
    n: int
    t: int
    ar_big: int
    crossing: int
    ar_inner: int
    holds: bool


def reduction_check(n, t, F, ar_table):
    """ar(n,(t+2)F) >= C(n,r) - C(n-t,r) + ar(n-t, 2F) from exact records."""
    big = ar_table.get(F, n, t + 2)
    inner = ar_table.get(F, n - t, 2)
    crossing = comb(n, F.r) - comb(n - t, F.r)
    holds = big.value >= crossing + inner.value
    return ReductionVerdict(n, t, big.value, crossing, inner.value, holds)


@dataclass(frozen=True)
class IdentityVerdict:
    n: int
    t: int
    ar_value: int
    ex_value: int
    t_max: int
    in_range: bool
    identity_holds: bool
    lower_holds: bool
    status: str  # holds | out-of-range | violation


def verify_identity_thm15(n, t, F, turan_table, ar_table):
    """Check ar(n,(t+1)F) = ex(n,tF) + 2 and whether t lies in the certified
    range derived from the Turan gap.  Out-of-range failures are informative;
    an in-range failure (or any failure of the unconditional lower bound)
    is a violation."""
    from .turan import edge_sensitivity_gap

    ar_value = ar_table.ar(F, n, t + 1)
    ex_value = turan_table.ex(singleton(disjoint_union(F, t)), n)
    gap = edge_sensitivity_gap(F, n, turan_table)
    in_range = 1 <= t <= gap.t_max
    identity = ar_value == ex_value + 2
    lower = ar_value >= ex_value + 2
    if not lower:
        status = "violation"
    elif identity:
        status = "holds" if in_range else "out-of-range"
    else:
        status = "violation" if in_range else "out-of-range"
    return IdentityVerdict(n, t, ar_value, ex_value, gap.t_max, in_range, identity, lower, status)


# -- stability census ---------------------------------------------------------------


@dataclass(frozen=True)
class CensusResult:
    threshold: Fraction
    alpha: Fraction
    vertices: tuple


def stability_degree_census(H, F, pi, table):
    """Vertices of H with degree >= d(n,F) + (1-pi)/(7 v(F)) * C(n-1, r-1).

    Exact rational comparison; n is the vertex count of H and ex(n,F) must be
    an exact record.
    """
    n = H.n
    ex_n = table.ex(singleton(F), n)
    alpha = Fraction(1 - pi, 7 * F.n)
    threshold = Fraction(F.r * ex_n, n) + alpha * comb(n - 1, F.r - 1)
    degs = H.degrees()
    vertices = tuple(v for v in range(n) if Fraction(degs[v]) >= threshold)
    return CensusResult(threshold=threshold, alpha=alpha, vertices=vertices)
