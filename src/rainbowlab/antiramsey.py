"""Edge colorings of K_n^r, rainbow-copy search, lower-bound constructions,
and exact anti-Ramsey numbers for tilings.

ar(n, tF) is the least N such that every surjective N-coloring of K_n^r has a
rainbow tF.  The solver computes A = the maximum number of classes of an edge
partition with no rainbow tF (restricted-growth-string search over the colex
edge order) and returns A + 1; surjectivity is automatic since every class of
a partition is nonempty.
"""

import functools
from collections import namedtuple
from math import comb

from .core import (
    CapacityError,
    CertificationError,
    FormatError,
    HyperGraph,
    MissingRecordError,
    all_edges_colex,
    colex_rank,
    disjoint_union,
    family_key,
    find_embedding,
)
from .turan import (
    MAX_EDGES,
    SOLVER_VERSION,
    _bits,
    _climb,
    _ex_ladder,
    _iter_copies,
    _leader,
    _rungs,
    _transpositions,
    _vertex_fields,
    singleton,
)


class EdgeColoring(namedtuple("EdgeColoring", "r n ncolors colors")):
    """A surjective coloring of all edges of K_n^r.

    colors[i] is the color (1..ncolors) of the edge with colex rank i.
    """

    __slots__ = ()

    def __new__(cls, r, n, ncolors, colors):
        E = comb(n, r)
        colors = tuple(colors)
        if len(colors) != E:
            raise ValueError(f"expected {E} colors, got {len(colors)}")
        if ncolors < 1 or any(not 1 <= c <= ncolors for c in colors):
            raise ValueError("colors must lie in 1..ncolors")
        if len(set(colors)) != ncolors:
            raise ValueError("coloring must be surjective onto 1..ncolors")
        return super().__new__(cls, r, n, ncolors, colors)

    def color_of(self, edge):
        """The color of ``edge``, r distinct vertices of 0..n-1 in any order."""
        e = tuple(sorted(edge))
        if not len(set(e)) == len(e) == self.r or e[0] < 0 or e[-1] >= self.n:
            raise ValueError(f"not an edge of K_{self.n}^{self.r}: {edge!r}")
        return self.colors[colex_rank(e)]


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
    that ``subgraph_copies`` lists, built lazily so that the copies after it
    are never built.  An edgeless target that fits has one, the empty copy.
    """
    r, n, colors = chi.r, chi.n, chi.colors
    if target.r != r:
        raise ValueError(f"uniformity mismatch: {target.r} vs {r}")
    if len(target.edges) > chi.ncolors:
        return None
    for cp in _iter_copies(target, n):
        seen, rest = 0, cp  # the colors of the edges read so far, and the edges left
        while rest:
            low = rest & -rest
            bit = 1 << colors[low.bit_length() - 1]
            if seen & bit:
                break
            seen |= bit
            rest ^= low
        else:
            image = [e for i, e in enumerate(all_edges_colex(n, r)) if cp >> i & 1]
            return find_embedding(target, HyperGraph(r, n, image))
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
    _check_embeds(n, t, F)
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
    if not 0 <= t <= n - F.r:
        raise ValueError(f"fact31 needs 0 <= t <= n - r, got t={t}, n={n}, r={F.r}")
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


class ArRecord(
    namedtuple(
        "ArRecord",
        "n t F_key value witness status hi nodes solver closed_by",
        defaults=(0, 0, SOLVER_VERSION, ""),
    )
):
    """ar(n, tF) with a witness EdgeColoring on value-1 colors (None: a one-edge tF).

    status is "exact" or "bounds"; a bounds record proves
    value <= ar(n, tF) <= hi, and hi is 0 in an exact one.  closed_by says
    what proved the value: "sandwich" or "averaging" (the value pass reached
    that cap), "search" (the value pass ran to the end), "budget" (not
    proved: the node budget ran out) or "cache" (loaded).  Like ``nodes``,
    it is never written.
    """

    __slots__ = ()

    def is_exact(self):
        return self.status == "exact"


def _ar_dfs(search, rung, allowed, assign, i, fm, live, below, star, common):
    """Assign a color to each edge i.. of the colex order.

    ``allowed[j]`` is the bitmask of colors edge j may take, -1 while no copy
    constrains it; ``fm`` is the bitmask of the undecided edges still at -1,
    and free counts them.  Forward checking settles each copy at its
    second-largest edge i: when the copy's edges below i carry distinct
    colors (a threat), a color c of i that is not among them narrows the
    copy's largest edge to those colors and c.  ``common[c]`` packs a 1 for
    each vertex that every edge of class c contains, one entry per class, so
    the prefix has k = len(common) classes.  The prunes are the bound
    k + free <= best and the threat packing, k + free - p <= best for p live
    copies with disjoint parts >= i (``_packs``).  ``live`` holds the
    lex-leader comparisons still undecided after the prefix of edges 0..i-1
    (``_leader``); a prefix greater than one of its images is pruned.  With
    below = A(m-1) and the tables ``vec``, ``ones`` and ``high`` of the rung
    (``turan._vertex_fields``), the star floor prunes a node where some vertex
    v has fewer than best + 1 - below classes wholly inside star(v) and free
    undecided edges at v; ``star`` packs those counts per vertex.
    ``ar_exact`` and ``_leader`` prove all five sound.

    A node checks each child before it calls it: a child whose narrowing
    leaves an edge no color (a wipe-out), or that the bound, the star floor
    or the lex-leader rule prunes, is counted as one node and not called
    (``ar_exact``).  So no node but the root meets the bound or the star
    floor on entry, and the root passes both, so none checks them there.
    The rung is not trivial, so some copy has two edges or more and best,
    the classes of a partition with no rainbow copy, is below E = k + free.
    At the root the star floor needs best + 1 - below <= 0 with the inert
    below = E (``_ArRung.run``).  Otherwise below = A(m-1) <= C(m-1, r), and
    ``_climb`` runs the pass only when best is below the averaging cap
    m below / (m-r), so best + 1 - below <= r below / (m-r) <= C(m-1, r-1),
    the star count of each vertex at the root.

    Colors are tried in ascending order, so leaves come in lexicographic
    order of their restricted growth strings.
    """
    search.tick()
    k = len(common)
    if i == len(assign):
        search.offer(k, tuple(assign))
        return
    free = fm.bit_count()
    gap = k + free - search.best  # each live copy holds two free edges or more
    if 2 * gap <= free and _packs(rung.pack, assign, i, fm, gap):
        return
    vec, ones, high = rung.vec, rung.ones, rung.high
    here = allowed[i]
    colors = here & ((2 << k) - 1)
    if here == -1:
        free -= 1
        fm ^= 1 << i
        star -= vec[i]
        need = search.best + 1 - below
        if k + free <= search.best or (need > 0 and (star + (128 - need) * ones) & high != high):
            # every child that repeats a class is pruned on entry: count, not call
            pruned = colors if k + 1 + free <= search.best else colors & ~(1 << k)
            search.tick(pruned.bit_count())
            colors ^= pruned
            if not colors:
                return
    threats = []
    for last, others in rung.after[i]:
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
        s, rest_fm = star, fm
        for last, mask in threats:
            if not mask & bit:
                old = allowed[last]
                if old == -1:
                    rest_fm ^= 1 << last
                    s -= vec[last]
                allowed[last] = old & (mask | bit)
                narrowed.append((last, old))
                if not allowed[last]:  # a wipe-out: the child has no leaf
                    search.tick()
                    break
        else:
            # a new class lies wholly inside the star of each vertex of edge
            # i; class c stays inside the stars of the vertices that edge i
            # shares with it
            s += vec[i] if c == k else -(common[c] & ~vec[i])
            need = search.best + 1 - below
            if k + (c == k) + rest_fm.bit_count() <= search.best or (
                need > 0 and (s + (128 - need) * ones) & high != high
            ):  # the bound or the star floor prunes the child on entry
                search.tick()
            else:
                child = _leader(assign, live, i + 1)
                if child is None:  # the child's prefix is not a lex-leader
                    search.tick()
                else:  # class c now holds edge i
                    if c == k:
                        common.append(vec[i])
                    else:
                        was = common[c]
                        common[c] = was & vec[i]
                    _ar_dfs(search, rung, allowed, assign, i + 1, rest_fm, child, below, s, common)
                    if c == k:
                        common.pop()
                    else:
                        common[c] = was
        while narrowed:
            last, old = narrowed.pop()
            allowed[last] = old
    assign[i] = -1


def _packs(pack, assign, i, fm, gap):
    """Whether ``gap`` live copies at edge i have pairwise disjoint parts
    >= i (the threat packing of ``ar_exact``).  A copy is live when its
    second-largest edge is >= i, its edges >= i are all in ``fm`` and its
    edges below i have distinct colors in ``assign``.  Copies are taken
    greedily in index order (``_ArRung``), and each pick drops every copy
    that meets its edges >= i."""
    later, through, cmask, down = pack
    cand = later[i]
    high = fm | ((1 << i) - 1)
    p = 0
    while cand:
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        if cmask[x] | high != high:  # an edge >= i is decided or narrowed
            continue
        edges = down[x]
        seen = 0
        for e in edges:
            if e < i:
                bit = 1 << assign[e]
                if seen & bit:
                    break
                seen |= bit
        else:
            p += 1
            if p == gap:
                return True
            for e in edges:
                if e < i:
                    break
                cand &= ~through[e]
    return False


class _ArRung:
    """The ``ar`` search context of K_m^r for ``_climb``, from the masks of
    the copies of tF in K_m^r as ``_Ctx``, and the lex-leader transpositions.

    ``after[i]`` lists (last, others) for each copy whose second-largest
    colex edge is i: its largest edge and its edges below i.  The copies of
    one target have one size, so no mask is dominated and the masks are the
    copies, each of two edges or more (``_ar_ladder``).  Their order in
    ``after`` does not matter: forward checking only ANDs masks and counts
    each edge's first narrowing once.

    The copies are indexed in ascending order of their second-largest edge,
    then in the order of ``_copy_masks``, and ``pack`` = (later, through,
    cmask, down) holds the tables of the threat packing: ``later[i]`` marks
    the copies whose second-largest edge is >= i, ``through[j]`` the copies
    that hold edge j, and ``cmask[x]`` and ``down[x]`` are copy x's mask and
    its edges in descending order.  That fixed order is the greedy's
    (``_packs``): it fixes the node counts, but not the leaves, the value or
    the witness.  ``pack`` is built on the first scan, so a rung that its
    start or its cap closes, or whose pass never scans, never builds it.
    """

    def __init__(self, m, r, masks):
        self.m, self.r, self.E = m, r, comb(m, r)
        self.after = [[] for _ in range(self.E)]
        for mask in masks:
            last = mask.bit_length() - 1
            rest = mask ^ (1 << last)
            second = rest.bit_length() - 1
            self.after[second].append((last, tuple(_bits(rest ^ (1 << second)))))
        # the star floor: per-edge vertex vectors, and every vertex's star
        self.vec, self.ones, self.high = _vertex_fields(m, r)
        self.full = comb(m - 1, r - 1) * self.ones

    @functools.cached_property
    def pack(self):
        first, through, cmask, down = [], [0] * self.E, [], []
        for second, entries in enumerate(self.after):
            first.append(len(cmask))
            for last, others in entries:
                bit = 1 << len(cmask)
                mask = 1 << last | 1 << second
                through[last] |= bit
                through[second] |= bit
                for j in others:
                    mask |= 1 << j
                    through[j] |= bit
                cmask.append(mask)
                down.append((last, second, *others[::-1]))
        everything = (1 << len(cmask)) - 1
        later = [everything >> x << x for x in first] + [0]
        return later, through, cmask, down

    def live(self):
        """The lex-leader comparisons at the root: none decided yet."""
        return [(p, ends, 0, {}) for p, ends in _transpositions(self.m, self.r)]

    def start(self):
        """A partition with no rainbow copy, as (classes, restricted growth
        string), of at least one class.  In colex order each edge takes the
        highest color its forward-checked mask allows, a fresh class when no
        copy constrains it, and narrows masks as ``_ar_dfs`` does.  At an
        edge with no allowed color it falls back to one class: every copy
        has two or more edges (``_ar_ladder``), so none is rainbow."""
        allowed = [-1] * self.E
        assign, k = [], 0
        for i in range(self.E):
            colors = allowed[i] & ((2 << k) - 1)
            if not colors:
                return 1, (0,) * self.E
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
        """Run ``search`` over every edge of the host, each free at the root,
        with the star floor from ``below`` = A(m-1) (``ar_exact``).  None
        stands for the inert E, which no searched rung's best reaches."""
        E = self.E
        below = E if below is None else below
        return search.run(
            _ar_dfs, self, [-1] * E, [-1] * E, 0, (1 << E) - 1, self.live(), below, self.full, []
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


def _check_embeds(n, t, F):
    """Raise ValueError when tF has more vertices than K_n^r."""
    if t * F.n > n:
        raise ValueError(f"target cannot embed: t*v(F) = {t * F.n} > n = {n}")


def ar_exact(n, t, F, budget=None):
    """Exact ar(n, tF): max color classes of a no-rainbow-tF partition, plus one.

    Enumerates restricted growth strings over the colex edge order, least
    first, in one sequential value pass per rung.  A pass starts from a
    seed of at least one class with no rainbow copy (``_ArRung.start``), so
    its classes are a lower bound on A, and finds the maximum A.  The
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

    It also prunes by a packing of live threats.  At a node on edge i, a
    copy is live when its second-largest edge is >= i, its edges below i
    carry pairwise distinct colors and its edges >= i are all free.  Lemma:
    in every leaf below, some edge >= i of a live copy opens no class.  If
    each opened one, those edges would carry new colors, pairwise distinct
    and unlike every color below i, and the copy would be rainbow.  So p
    live copies whose parts >= i are pairwise disjoint hold p distinct free
    edges that open no class, and every leaf below has at most
    k + free - p classes; a node where that is at most ``best`` holds no
    leaf above ``best``, and like the bound prune this changes neither the
    value nor the witness.  A part >= i holds two free edges or more, so
    p <= free / 2, and ``_packs`` looks for p = gap = k + free - best live
    copies only when 2 gap <= free.  It takes them greedily in the fixed
    order of ``_ArRung``, which fixes the node counts.

    A color of edge i that narrows some edge j to no color at all (a
    wipe-out) has no leaf below: edge j has no color to try, and the edges
    between offer no leaf.  Such a child is counted as one node and not
    called.  No leaf is lost, so values and witnesses stay; nodes are those
    of a child pruned on entry.  A child that the bound, the star floor or
    the lex-leader rule prunes once its narrowing is done is counted the
    same way: the node runs those checks for the child, with the child's
    state and the same ``best``, where a call would tick once and return.

    Every pass skips partitions that are not lex-leaders (``_leader``, as
    leaves come in ascending order).  Its comparisons name no color at the
    start, so an image is compared as its restricted growth string.

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
    ``best``, so it changes neither the value nor the witness.  ``_climb``
    gives below to the pass on rung m unless rung m-1 is trivial; then below
    is the inert E.

    A node counts the children that the bound or the star floor would drop
    on entry instead of calling them.  Once edge i leaves the free set, a
    child that repeats a class c < k has k classes, at most the free edges
    left (narrowing only removes free edges) and at each vertex at most the
    star count left (narrowing removes free edges from stars, and class c
    can only lose vertices that all its edges contain).  So when the bound or
    the star floor prunes the node with free and star updated, it prunes
    each such child; the fresh-class child has k + 1 classes and so is pruned
    by the bound when k + 1 + free <= best.  Each counted child is one node,
    ``best`` does not move between siblings that offer no leaf, and a count
    that passes the budget stops at budget + 1 (``_Search.tick``), so nodes,
    values, witnesses and budget records are those of calling every child.

    The value pass stops at a proven cap on A(n) (``_ar_ladder``), the
    sandwich ex(n, tF) or the averaging cap from A(n-1): a values-only
    ``_climb`` of the ``ex_exact`` ladder gives ex(m, tF) for m <= n, then
    ``_climb`` runs the rungs m = r..n and takes the witness on the top.
    Both ladders build their rungs with ``_rungs`` from the cached masks of
    ``_copy_masks``, so each rung's copies of tF are enumerated once.
    ``closed_by`` names the cap reached (the sandwich first on a tie), or
    ``search`` when the value pass ran to the end.

    ``nodes`` counts both ladders and is the same on every run; ``budget``
    caps them together.  When it runs out the record degrades to bounds from
    value to hi, one above the bounds on A that ``_climb`` returns, with its
    incumbent as witness: the top rung's seed when it runs out below the top.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got t={t}")
    _check_embeds(n, t, F)
    if not F.edges:
        raise ValueError("F must have at least one edge")
    r = F.r
    E = comb(n, r)
    if E > MAX_EDGES:
        raise CapacityError(f"partition search supports C(n,r) <= {MAX_EDGES} edges, got {E}")
    target = disjoint_union(F, t)
    key = family_key(singleton(F))
    ms, ex = range(r, n + 1), {}
    rung, caps = _ar_ladder(target, ex)
    if isinstance(rung(n), int):  # a one-edge target: A = 0, no search, no witness
        return ArRecord(n, t, key, 1, None, "exact", closed_by="sandwich")
    nodes = _climb(ms, *_ex_ladder(r, (target,)), budget, values=ex)[3]
    A, rgs, hi, nodes, closed_by = _climb(ms, rung, caps, budget, nodes)
    witness = EdgeColoring(r, n, max(rgs) + 1, [c + 1 for c in rgs])
    status, hi = ("bounds", hi + 1) if closed_by == "budget" else ("exact", 0)
    return ArRecord(n, t, key, A + 1, witness, status, hi, nodes, closed_by=closed_by)


def verify_no_rainbow(chi, F, t):
    """True iff chi has no rainbow tF (exhaustive)."""
    return find_rainbow_copy(chi, disjoint_union(F, t)) is None


# -- verification of the finite statements ---------------------------------------


SandwichVerdict = namedtuple("SandwichVerdict", "n s ar_value lower upper holds")


def sandwich_check(n, s, F, records):
    """ex(n,(s-1)F)+2 <= ar(n,sF) <= ex(n,sF)+1 from the exact records of
    ``records``, a ``cache.Records`` store.

    For s = 1 the lower bound degenerates (a single color admits no rainbow F
    with two or more edges): 2 when |F| >= 2, else 1.
    """
    if s < 1:
        raise ValueError(f"the sandwich needs s >= 1, got s={s}")
    ar_rec = records.ar(F, n, s)
    upper = records.ex(singleton(disjoint_union(F, s)), n) + 1
    if s >= 2:
        lower = records.ex(singleton(disjoint_union(F, s - 1)), n) + 2
    else:
        lower = 2 if len(F.edges) >= 2 else 1
    holds = lower <= ar_rec.value <= upper
    return SandwichVerdict(n, s, ar_rec.value, lower, upper, holds)


ReductionVerdict = namedtuple("ReductionVerdict", "n t ar_big crossing ar_inner holds")


def reduction_check(n, t, F, records):
    """ar(n,(t+2)F) >= C(n,r) - C(n-t,r) + ar(n-t, 2F) from exact records."""
    if t < 0:
        raise ValueError(f"the reduction needs t >= 0, got t={t}")
    big = records.ar(F, n, t + 2)
    inner = records.ar(F, n - t, 2)
    crossing = comb(n, F.r) - comb(n - t, F.r)
    holds = big.value >= crossing + inner.value
    return ReductionVerdict(n, t, big.value, crossing, inner.value, holds)


class IdentityVerdict(
    namedtuple(
        "IdentityVerdict",
        "n t ar_value ex_value t_max in_range identity_holds lower_holds status",
    )
):
    """status is "holds", "out-of-range" or "violation"."""

    __slots__ = ()


def verify_identity_thm15(n, t, F, records):
    """Check ar(n,(t+1)F) = ex(n,tF) + 2 and whether t lies in the certified
    range derived from the Turan gap.  Out-of-range failures are informative;
    an in-range failure (or any failure of the unconditional lower bound)
    is a violation."""
    from .turan import edge_sensitivity_gap

    if t < 1:
        raise ValueError(f"the identity needs t >= 1, got t={t}")
    ar_value = records.ar(F, n, t + 1).value
    ex_value = records.ex(singleton(disjoint_union(F, t)), n)
    gap = edge_sensitivity_gap(F, n, records)
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


CensusResult = namedtuple("CensusResult", "threshold alpha vertices")


def stability_degree_census(H, F, pi, records):
    """Vertices of H with degree >= d(n,F) + (1-pi)/(7 v(F)) * C(n-1, r-1).

    Exact rational comparison; n is the vertex count of H and ex(n,F) must be
    an exact record.
    """
    from fractions import Fraction  # imported here: no search needs rationals

    n = H.n
    ex_n = records.ex(singleton(F), n)
    alpha = Fraction(1 - pi, 7 * F.n)
    threshold = Fraction(F.r * ex_n, n) + alpha * comb(n - 1, F.r - 1)
    degs = H.degrees()
    vertices = tuple(v for v in range(n) if Fraction(degs[v]) >= threshold)
    return CensusResult(threshold=threshold, alpha=alpha, vertices=vertices)
