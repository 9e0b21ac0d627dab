"""Exact Turan numbers with witnesses, and the derived numeric checks.

Two independent routes to ex(n, family):

- ``ex_exact``: branch and bound over edges in colex order (include-first),
  pruned by an edge-disjoint copy packing bound, copy-completion tests, and
  symmetry fixing of the first two included edges (the host K_n^r is r-set
  transitive).
- ``ex_enumerate``: vectorized sweep over all 2^C(n,r) edge subsets,
  usable up to 20 edges.  This is the dual oracle; it shares only the copy
  enumeration with the branch and bound.

All threshold comparisons (smoothness, boundedness, gaps, Facts about
binomials and degree averages) use exact rationals; e^{1/5} is handled by a
certified interval.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .core import (
    CapacityError,
    HyperGraph,
    HyperGraphFamily,
    all_edges_colex,
    colex_rank,
    contains_member,
    family_key,
    is_r_partite,
)
from .core import complete as complete_host

SOLVER_VERSION = "rainbowlab-0.1.0"

#: certified enclosure of e^{1/5}
E15_LO = Fraction(12214027, 10**7)
E15_HI = Fraction(12214028, 10**7)


class MissingRecordError(LookupError):
    """A required exact Turan/ar record is not available."""


# -- copies of a pattern inside the complete host -------------------------------


@functools.cache
def _shapes(c):
    """The distinct edge sets of the connected r-graph c on its own vertices
    0..v-1 under all v! relabelings, each as the ascending tuple of the colex
    ranks of its edges among the r-subsets of v vertices; sorted."""
    local = {e: i for i, e in enumerate(all_edges_colex(c.n, c.r))}
    shapes = {
        tuple(sorted(local[tuple(sorted(p[x] for x in e))] for e in c.edges))
        for p in itertools.permutations(range(c.n))
    }
    return tuple(sorted(shapes))


def subgraph_copies(F, n):
    """Every copy of F in K_n^r as a frozenset of colex edge ranks, in the
    order of ``_iter_copies``."""
    return list(_iter_copies(F, n))


def _iter_copies(F, n):
    """Yield every copy of F in K_n^r as a frozenset of colex edge ranks.

    Built, not searched.  A copy of a connected component c with v vertices
    covers exactly v host vertices S, and its edge set is one of the shapes
    of c (``_shapes``) carried over by the increasing map i -> S[i]: a local
    r-subset (a_0 < ... < a_{r-1}) goes to colex rank sum_i C(S[a_i], i+1).
    The map keeps colex order, so each component's copies come ordered by
    vertex set (colex) and then by sorted edge ranks.  Two components are
    isomorphic iff they have the same shapes, so the shapes also group
    identical components, which are placed in order of their minimum vertex:
    each copy of F appears exactly once.  Isolated vertices of F only require
    v(F) <= n.  Lazy, so a caller that stops early builds only the copies it
    reads (the placements of each component are listed first).
    """
    if F.n > n or not F.edges:
        return
    comps = sorted((_shapes(c), c.n) for c in map(F.induced, F.components()))
    placements = []  # per component: (shapes, list of (vertex_mask, frozenset of ranks))
    cache = {}
    for shapes, v in comps:
        if shapes not in cache:
            local = all_edges_colex(v, F.r)
            options = []
            for S in all_edges_colex(n, v):
                ranks = [colex_rank([S[a] for a in e]) for e in local]
                vm = sum(1 << w for w in S)
                options.extend((vm, frozenset(ranks[j] for j in s)) for s in shapes)
            cache[shapes] = options
        placements.append((shapes, cache[shapes]))
    k = len(comps)

    def rec(i, used_mask, prev_key, prev_min, acc):
        if i == k:
            yield frozenset().union(*acc)
            return
        key, options = placements[i]
        for vm, ranks in options:
            if vm & used_mask:
                continue
            lo = (vm & -vm).bit_length() - 1
            if key == prev_key and lo <= prev_min:
                continue
            acc.append(ranks)
            yield from rec(i + 1, used_mask | vm, key, lo, acc)
            acc.pop()

    yield from rec(0, 0, None, -1, [])


@functools.cache
def _copy_masks(members, n):
    """Forbidden-copy bitmasks over the colex edge ranks of K_n^r, for the
    tuple of r-graphs ``members`` of a family.

    Returns (masks, edgeless) where edgeless flags a member with no edges
    fitting on n vertices (which forces ex = 0 by convention).  Cached, so
    the ``ex`` and ``ar`` ladders of ``ar_exact`` share one enumeration.
    """
    masks = set()
    edgeless = False
    for m in members:
        if m.n <= n and not m.edges:
            edgeless = True
        for cp in subgraph_copies(m, n):
            masks.add(sum(1 << i for i in cp))
    # drop masks that contain another mask (dominated constraints); two
    # distinct masks of one size contain neither, so each mask is compared
    # only with the kept masks of fewer edges
    kept, size, fewer = [], 0, 0
    for x in sorted(masks, key=int.bit_count):
        if x.bit_count() > size:
            size, fewer = x.bit_count(), len(kept)
        if not any(y & x == y for y in kept[:fewer]):
            kept.append(x)
    return tuple(kept), edgeless


# -- full enumeration oracle ------------------------------------------------------


def ex_enumerate(n, fam):
    """ex(n, fam) by sweeping all 2^C(n,r) edge subsets (requires <= 20 edges).

    Returns (value, witness).  Witness is the smallest colex bitmask optimum.
    """
    import numpy as np  # only this oracle needs it; keeps `lab` start-up light

    r = fam.r
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    E = comb(n, r)
    if E > 20:
        raise CapacityError(f"enumeration oracle supports C(n,r) <= 20, got {E}")
    masks, edgeless = _copy_masks(fam.members, n)
    if edgeless:
        return 0, HyperGraph(r, n, [])
    universe = np.arange(1 << E, dtype=np.uint32)
    good = np.ones(1 << E, dtype=bool)
    for c in masks:
        cc = np.uint32(c)
        good &= (universe & cc) != cc
    counts = np.bitwise_count(universe).astype(np.int16)
    counts[~good] = -1
    best = int(counts.max())
    idx = int(np.argmax(counts))
    edges = all_edges_colex(n, r)
    witness = HyperGraph(r, n, [edges[i] for i in range(E) if idx >> i & 1])
    return best, witness


# -- branch and bound ----------------------------------------------------------


@dataclass(frozen=True)
class TuranRecord:
    """A certified ex(n, family) value with its extremal witness."""

    n: int
    r: int
    family_key: str
    value: int
    witness: HyperGraph
    status: str  # "exact" or "lower_bound_only"
    nodes: int = 0
    solver: str = SOLVER_VERSION
    #: what proved the value: "kns" (the averaging bound), "search" (the
    #: value pass ran to the end), "trivial", "budget" (not proved: the node
    #: budget ran out) or "cache" (loaded).  Like ``nodes``, never written.
    closed_by: str = ""

    def is_exact(self):
        return self.status == "exact"


class _Stop(Exception):
    """Ends a search: the node budget is spent, or the incumbent reaches the cap."""


class _Search:
    """Incumbent and node count of one sequential depth-first search.

    ``best`` starts at a known lower bound and the search runs to the end, or
    until the incumbent reaches ``cap``, a proven upper bound.  Searches call
    ``offer`` only with k > best, at a leaf.  ``nodes`` starts at the nodes
    already spent, so that ``budget`` caps the total of a sequence of
    searches.
    """

    def __init__(self, best, incumbent=None, budget=None, cap=None, nodes=0):
        self.best = best
        self.incumbent = incumbent
        self.budget = budget
        self.cap = cap
        self.nodes = nodes
        self.truncated = False

    def offer(self, k, incumbent):
        self.best = k
        self.incumbent = incumbent
        if self.cap is not None and k >= self.cap:
            raise _Stop

    def tick(self):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            self.truncated = True
            raise _Stop

    def run(self, dfs, *args):
        """Call dfs(self, *args) until it returns or stops; return self."""
        try:
            dfs(self, *args)
        except _Stop:
            pass
        return self


@functools.cache
def _vertex_fields(m, r):
    """Tables of the vertex floors on K_m^r, which pack one counter per
    vertex into an int, 8 bits each (vertex v at bits 8v..8v+7).

    Returns (vec, ones, high): ``vec[j]`` has a 1 in the field of each
    vertex of the edge with colex rank j, ``ones`` a 1 in every field and
    ``high`` = ones << 7.  The floors keep every counter in 0..127 and test
    all of them against one need in 1..128 at once: some counter of x is
    below need iff (x + (128 - need) * ones) & high != high, and no sum
    carries into the next field.
    """
    vec = [sum(1 << 8 * x for x in e) for e in all_edges_colex(m, r)]
    ones = sum(1 << 8 * x for x in range(m))
    return vec, ones, ones << 7


class _Ctx:
    """Immutable search data of one ex(n, fam) problem, from the masks of the
    copies in K_n^r.

    ``cmax[i]`` lists, with bit i cleared, the copies whose largest edge is i.
    ``pack[i]`` is the mask of the packed copy holding edge i, or 0 when edge
    i is in none, for a greedy packing of ``packs`` edge-disjoint copies (the
    packing bound of ``ex_exact``).  ``ok_second[i]`` says whether edge i may
    be the second included edge.
    """

    def __init__(self, n, r, masks):
        edges = all_edges_colex(n, r)
        E = len(edges)
        self.E = E
        self.cmax = [[] for _ in range(E)]
        for m in masks:
            top = m.bit_length() - 1
            self.cmax[top].append(m ^ (1 << top))
        self.pack = [0] * E
        self.packs = 0
        used = 0
        for m in sorted(masks, key=lambda x: (x.bit_count(), x)):
            if not m & used:
                used |= m
                self.packs += 1
                for i in range(m.bit_length()):
                    if m >> i & 1:
                        self.pack[i] = m
        # orbit-minimal candidates for the second included edge (the
        # stabilizer of edge 0 classifies edges by their intersection size with it)
        e0 = set(edges[0])
        classmin = {}
        for i in range(1, E):
            classmin.setdefault(len(e0.intersection(edges[i])), i)
        self.ok_second = [False] * E
        for i in classmin.values():
            self.ok_second[i] = True
        # the degree floor: per-edge vertex vectors, and every vertex's degree
        self.vec, self.ones, self.high = _vertex_fields(n, r)
        self.full = comb(n - 1, r - 1) * self.ones

    def start(self):
        """The greedy incumbent a value pass starts from, as (edges, mask)."""
        greedy = _greedy(range(self.E), self.cmax)
        return greedy.bit_count(), greedy

    def run(self, search, below=None):
        """Run the include-first search from the root, where edge 0 is fixed
        in and every pack is intact, so the packing bound is E - packs.
        ``below`` = ex(n-1) turns on the degree floor (``ex_exact``)."""
        return search.run(_dfs, self, 1, 1, self.E - self.packs, self.full, below)


def _dfs(search, ctx, i, chosen, bound, deg, below):
    """Include-first DFS over the edges i.. of the colex order.

    ``chosen`` is the mask of the k included edges; edge 0 is always in, so
    the second-edge rule applies while chosen == 1.  ``bound`` is the packing
    bound of ``ex_exact``, k + undecided edges - intact packs, which is k at
    a leaf (no node includes a whole copy, so no pack stays intact); the
    node is pruned when it is at most best.  ``deg`` packs, per vertex, its
    included and undecided edges (``_vertex_fields``); with ``below`` =
    ex(n-1) the node is pruned when one of them is under best + 1 - below.
    """
    search.tick()
    if bound <= search.best:
        return
    if i == ctx.E:
        search.offer(bound, chosen)
        return
    if below is not None:  # the degree floor (``_vertex_fields``)
        need = search.best + 1 - below
        if need > 0 and (deg + (128 - need) * ctx.ones) & ctx.high != ctx.high:
            return
    # include branch: no copy completed, and the second edge orbit-minimal
    if chosen != 1 or ctx.ok_second[i]:
        for mw in ctx.cmax[i]:
            if mw & ~chosen == 0:
                break
        else:
            _dfs(search, ctx, i + 1, chosen | (1 << i), bound, deg, below)
    # exclude branch: the bound drops by one, unless edge i is the first
    # excluded edge of its pack, which then stops being intact
    p = ctx.pack[i]
    if not p or p & ~chosen & ((1 << i) - 1):
        bound -= 1
    _dfs(search, ctx, i + 1, chosen, bound, deg - ctx.vec[i], below)


def _greedy(order, copies_at):
    """A maximal fam-free edge set: take the edges of ``order`` in turn, each
    unless it completes a copy.  ``copies_at[i]`` lists, with bit i cleared,
    the copy masks that edge i can complete.  In ascending colex order only
    the copies whose largest edge is i can be complete at step i, so there
    ``_Ctx.cmax`` serves.
    """
    chosen = 0
    for i in order:
        if all(mw & ~chosen for mw in copies_at[i]):
            chosen |= 1 << i
    return chosen


def _trivial_value(m, r, masks, edgeless):
    """Rung m's value, ex(m) or A(m), when no search is needed, else None:
    0 when some member is edgeless or a single edge on m vertices, C(m,r)
    when no member fits."""
    if edgeless or 1 in [x.bit_count() for x in masks]:
        return 0
    if not masks:
        return comb(m, r)
    return None


def _rungs(context, r, members):
    """The cached ``rung(m)`` of a ladder over the copies of the r-graphs
    ``members`` in K_m^r, for ``_climb``: rung m's value when
    ``_trivial_value`` knows it, else ``context(m, r, masks)`` on the masks
    of ``_copy_masks``.  Each rung is built once."""

    @functools.cache
    def rung(m):
        masks, edgeless = _copy_masks(members, m)
        value = _trivial_value(m, r, masks, edgeless)
        return context(m, r, masks) if value is None else value

    return rung


def _ex_ladder(r, members):
    """The ``rung`` and ``caps`` of the ex(m, fam) ladder, for ``_climb``,
    where fam is the family of the tuple of r-graphs ``members``.

    ``rung(m)`` builds ``_Ctx`` rungs (``_rungs``).  The first rung, K_r^r,
    has one edge, so its value is trivial and every later rung has a cap.

    ``caps(m, below)`` is the averaging bound of Katona, Nemetz and Simonovits
    (1964), ex(m) <= floor(m ex(m-1) / (m-r)), with below = ex(m-1).  Proof:
    every fam-free G on m vertices has (m-r) e(G) = sum_v e(G-v) <= m ex(m-1),
    since each edge misses m-r vertices and each G-v is fam-free on m-1
    vertices (a copy in G-v, isolated vertices included, is a copy in G).
    """
    return _rungs(_Ctx, r, members), lambda m, below: {"kns": m * below // (m - r)}


def _climb(ms, rung, caps, budget, nodes=0, values=None):
    """One value pass per rung m of ``ms`` (ascending, top last); the top
    pass also yields the witness.  Returns (value, incumbent, hi, nodes,
    closed_by).

    ``rung(m)`` is rung m's value when no search is needed, else a context
    with ``E`` (its edge count), ``start()`` (the solver's greedy, a feasible
    (best, incumbent)) and ``run(search, below)``.  ``caps(m, below)`` names
    proven caps on rung m from the value of the rung below; the first rung is
    trivial, or its caps need none.  A pass below the top starts from
    ``start()`` and stops once its incumbent reaches the least cap; it is
    skipped when the start does.  By induction every rung is exact, as it
    reaches its cap or runs to the end, and stopping at a cap drops only
    subtrees with no leaf above ``best``.  The rungs read and write no cache
    (a cached record proves only a lower bound, so it cannot cap anything),
    and the witness is taken on the top rung only, so the ladder changes
    neither value nor witness.  ``closed_by`` names the first cap the value
    meets, or ``search``.

    Each pass on rung m also gets the value of rung m-1 as ``below``, for the
    vertex floors of the solvers, which prune only subtrees with no leaf
    above ``best``.  It gets None when rung m-1 is trivial: a trivial value
    of C(m-1, r) gives a floor that only restates that at most C(m-1, r)
    edges, or classes, avoid a vertex, which costs more time than it prunes
    (and a value of 0 caps rung m at 0).

    The witness is the first leaf with the value V in the search's decision
    order.  The top pass starts at s-1 for a start s > 0, with the start as
    its incumbent, so it also offers a leaf equal to s, and its last
    incumbent is that first leaf.  Proof: the rules that do not read
    ``best`` (symmetry breaking, forward checking) fix the tree and the order
    of its leaves; those that do drop only subtrees with no leaf above
    ``best``.
    Let w be the first leaf with V.  Every leaf before w has fewer than V,
    and the pass starts below V (s <= V), so ``best`` < V on the whole path
    to w, no prune drops w (its subtree holds a leaf with V) and no cap stops
    the pass before it (a cap is at least V, and only a leaf that reaches it
    stops the pass).  So w is offered, and no later leaf beats V.  When V = 0
    there is no leaf to offer and the incumbent stays the start's.

    ``nodes`` counts every pass on top of the nodes given; ``budget`` caps the
    total.  When it runs out, closed_by is ``budget``, (value, incumbent) a
    lower bound and hi an upper bound:

    - out below the top rung (or before the climb): the top rung's start, E;
    - out in the top pass: the larger of its ``best`` and the start, its
      incumbent (the start's until it offers a leaf), and its cap.

    A dict ``values`` makes the climb values-only: it records m -> value for
    every rung it proves and starts the top pass from ``start()`` as well.
    Out below the top rung it returns only ``nodes`` and ``budget``, and
    never builds the top rung.
    """
    top, below, searched = ms[-1], None, False
    for m in ms:
        if budget is not None and nodes > budget:  # spent below rung m
            if values is not None:
                return None, None, None, nodes, "budget"
            ctx = rung(top)
            return (*ctx.start(), ctx.E, nodes, "budget")
        ctx = rung(m)
        if isinstance(ctx, int):
            below, searched = ctx, False
        else:
            named, floor = caps(m, below), below if searched else None
            start, incumbent = ctx.start()
            best = start - 1 if start and m == top and values is None else start
            search = _Search(best, incumbent, budget, cap=min(named.values()), nodes=nodes)
            if search.best < search.cap:
                ctx.run(search, floor)
            nodes = search.nodes
            if search.truncated:
                if m < top:
                    continue  # the budget check above ends the climb
                return max(search.best, start), search.incumbent, search.cap, nodes, "budget"
            below, searched = search.best, True
        if values is not None:
            values[m] = below
    if values is not None:
        return below, None, below, nodes, None
    closed_by = next((name for name, cap in named.items() if cap == below), "search")
    return below, search.incumbent, below, nodes, closed_by


def ex_exact(n, fam, budget=None):
    """Exact ex(n, fam) with an extremal witness.

    One sequential branch and bound, one value pass per rung.  A pass starts
    from a greedy incumbent and proves the optimum.  The witness is the first
    optimum in include-first colex order: among the optima that contain edge
    0, the one whose indicator vector, read by ascending colex rank, is
    lexicographically greatest.  It is the last incumbent of the top pass,
    which starts one below its greedy start (``_climb`` proves this).

    Every pass fixes edge 0 in (K_n^r is edge-transitive) and admits as second
    included edge only the least edge of each orbit of the stabilizer of edge
    0 (orderly generation, McKay 1998).  That witness passes the rule: an
    optimum whose second edge lay above its orbit minimum would map to one
    with a smaller second edge, which would come first.  So the rule changes
    neither the value nor the witness.

    The value pass stops at the averaging bound (``_ex_ladder``), which needs
    the exact ex(n-1), so ``_climb`` runs capped value passes up the rungs
    m = r..n in memory, the witness coming from the top one.  ``closed_by``
    says whether the bound (``kns``) or the end of the search (``search``)
    proved the value.  ``nodes`` counts every rung's pass and is the same on
    every run; ``budget`` caps their total, and when it runs out the status
    is ``lower_bound_only`` with the incumbent ``_climb`` returns as witness.

    Every pass prunes a node when its packing bound is at most ``best``.  A
    greedy packing of edge-disjoint copies is fixed per rung; a fam-free leaf
    includes at most size - 1 edges of each packed copy.  At a node with k
    included edges, a pack p with inc included, und undecided and exc
    excluded edges (inc + und + exc = size) can still gain at most
    min(und, size - 1 - inc) = min(und, und + exc - 1) edges: und when
    exc > 0, and und - 1 when the pack is intact (exc = 0; then und >= 1,
    as no node includes a whole copy).  Summed with the undecided edges
    outside every pack, every leaf below has at most
    k + undecided - intact packs edges, and that is the bound ``_dfs``
    carries.  It is E - packs at the root (edge 0 in, every pack intact).
    Including an edge keeps it.  Excluding one lowers it by one, unless the
    edge is the first excluded edge of its pack: that pack stops being
    intact too, and the two changes cancel.  The prune drops only nodes
    with no leaf above ``best``, so it changes neither the value nor the
    witness (``_climb``).

    The pass on rung m also prunes by a degree floor from below = ex(m-1)
    (Garnick, Kwong and Lazebnik 1993 use it to compute ex(n, {C3, C4})).
    Lemma: every fam-free G on m vertices has deg(v) >= e(G) - ex(m-1) at
    every vertex v, because G-v has e(G) - deg(v) edges and is fam-free on
    m-1 vertices, as in the averaging bound.  At a node, every leaf below
    has deg(v) at most the included plus undecided edges at v, and a leaf
    above ``best`` has e(G) >= best + 1.  So a node where some vertex has
    fewer than best + 1 - below included and undecided edges holds no leaf
    above ``best``, and pruning it changes neither the value nor the first
    leaf above ``best``, the witness (``_climb``).  ``_climb`` gives below to
    the pass on rung m unless rung m-1 is trivial.
    """
    r = fam.r
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    E = comb(n, r)
    if E > 64:
        raise CapacityError(f"branch and bound supports C(n,r) <= 64, got {E}")
    key = family_key(fam)
    rung, caps = _ex_ladder(r, fam.members)
    value = rung(n)
    if isinstance(value, int):
        witness = complete_host(n, r) if value else HyperGraph(r, n, [])
        return TuranRecord(n, r, key, value, witness, "exact", nodes=1, closed_by="trivial")
    value, mask, _, nodes, closed_by = _climb(range(r, n + 1), rung, caps, budget)
    status = "lower_bound_only" if closed_by == "budget" else "exact"
    witness = HyperGraph(r, n, [e for i, e in enumerate(all_edges_colex(n, r)) if mask >> i & 1])
    return TuranRecord(n, r, key, value, witness, status, nodes=nodes, closed_by=closed_by)


def verify_witness(record, fam):
    """Re-check a record's witness: right host size, fam-free, and as many
    edges as the value, whatever the status (a lower bound is the witness's
    edge count too).

    An edgeless member on at most n vertices forces value 0 by convention,
    so with one the value and the witness must be empty.
    """
    w = record.witness
    if w is None or w.n != record.n or w.r != record.r:
        return False
    if any(m.n <= w.n and not m.edges for m in fam.members):
        return record.value == len(w.edges) == 0
    return not contains_member(w, fam) and len(w.edges) == record.value


# -- tables and derived quantities ------------------------------------------------


class TuranTable:
    """Map (family key, n) -> TuranRecord.

    On a miss the table asks ``loader(n, fam)`` for the record (None when
    there is none) and keeps what it returns, so each record is loaded once.
    """

    def __init__(self, loader=None):
        self._records = {}
        self._loader = loader

    def put(self, record):
        self._records[record.family_key, record.n] = record

    def get(self, fam, n):
        key = family_key(fam)
        rec = self._records.get((key, n))
        if rec is None and self._loader is not None:
            rec = self._loader(n, fam)
            if rec is not None:
                self.put(rec)
        if rec is None or not rec.is_exact():
            raise MissingRecordError(f"no exact turan record for n={n}, fam={key}")
        return rec

    def ex(self, fam, n):
        return self.get(fam, n).value


def singleton(F):
    return HyperGraphFamily(F.r, [F])


@dataclass(frozen=True)
class DerivedQuantities:
    n: int
    delta_n: int
    d_n: Fraction
    pi_hat: Fraction


def derived_quantities(F, table, n):
    """delta(n,F), d(n,F), and the finite density ex(n,F)/C(n,r); exact rationals."""
    fam = singleton(F)
    ex_n = table.ex(fam, n)
    ex_prev = table.ex(fam, n - 1)
    return DerivedQuantities(
        n=n,
        delta_n=ex_n - ex_prev,
        d_n=Fraction(F.r * ex_n, n),
        pi_hat=Fraction(ex_n, comb(n, F.r)),
    )


@dataclass(frozen=True)
class CheckParams:
    """Constants for the boundedness/smoothness style checks."""

    c1: Fraction
    c2: Fraction
    pi: Fraction
    m: int

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("c1 and c2 must be positive")
        if not 0 <= self.pi <= 1:
            raise ValueError("pi must lie in [0, 1]")


@dataclass(frozen=True)
class CheckResult:
    n: int
    lhs: Fraction
    rhs: Fraction
    holds: bool
    note: str = ""


def smoothness_check(F, params, table, n_range):
    """Per-n comparison of |delta(n,F) - d(n-1,F)| against the smoothness
    threshold (1-pi)/(8 v(F)) * C(n, r-1).  Reports only; finite n proves
    nothing asymptotic.  Degenerate (r-partite) F is smooth by definition."""
    rows = []
    degenerate = is_r_partite(F)
    fam = singleton(F)
    for n in n_range:
        dq = derived_quantities(F, table, n)
        d_prev = Fraction(F.r * table.ex(fam, n - 1), n - 1)
        lhs = abs(Fraction(dq.delta_n) - d_prev)
        rhs = (1 - params.pi) / (8 * params.m) * comb(n, F.r - 1)
        if degenerate:
            rows.append(CheckResult(n, lhs, rhs, True, "degenerate: vacuous"))
        else:
            rows.append(CheckResult(n, lhs, rhs, lhs <= rhs))
    return rows


def boundedness_falsifier(F, params, n, samples, table, seed=0):
    """Search for an F-free n-vertex r-graph meeting both boundedness premises.

    Any returned graph certifies that (c1,c2)-boundedness fails at this n for
    these constants.  An empty list is not a proof of boundedness.
    """
    fam = singleton(F)
    ex_n = table.ex(fam, n)
    r = F.r
    deg_needed = Fraction(r * ex_n, n) + params.c1 * comb(n - 1, r - 1)
    size_needed = (1 - params.c2) * ex_n
    if deg_needed > comb(n - 1, r - 1):
        return []  # premise unsatisfiable: max degree is capped
    masks, edgeless = _copy_masks(fam.members, n)
    if _trivial_value(n, r, masks, edgeless) == 0:
        return []  # no F-free graph has any edge
    E = comb(n, r)
    edges = all_edges_colex(n, r)
    # in a random order an edge can complete any copy it lies in
    copies_at = [[] for _ in range(E)]
    for m in masks:
        mm = m
        while mm:
            low = mm & -mm
            copies_at[low.bit_length() - 1].append(m ^ low)
            mm ^= low

    rng = random.Random(seed)
    candidates = [sum(1 << colex_rank(e) for e in table.get(fam, n).witness.edges)]
    through0 = [i for i in range(E) if 0 in edges[i]]
    others = [i for i in range(E) if 0 not in edges[i]]
    for _ in range(samples):
        a, b = through0[:], others[:]
        rng.shuffle(a)
        rng.shuffle(b)
        candidates.append(_greedy(a + b, copies_at))

    hits = []
    seen = set()
    for mask in candidates:
        if mask in seen:
            continue
        seen.add(mask)
        H = HyperGraph(r, n, [edges[i] for i in range(E) if mask >> i & 1])
        if Fraction(H.max_degree()) < deg_needed:
            continue
        if Fraction(len(H.edges)) < size_needed:
            continue
        if contains_member(H, fam):
            continue  # independent re-check; greedy should never let this pass
        hits.append(H)
    return hits


@dataclass(frozen=True)
class GapResult:
    n: int
    gap: int
    threshold: int
    t_max: int


def edge_sensitivity_gaps(F, ns, table):
    """For each n of ns: gap = ex(n,F) - ex(n,{F} u F+F), the edge-sensitivity
    threshold 2 v(F) |F| C(n-1,r-1), and t_max = floor(sqrt(gap/threshold)).
    The family {F} u F+F is built once, before the first n."""
    from .constructions import edge_sum_family

    fam_F = singleton(F)
    fam_union = fam_F.union(edge_sum_family(F, F))
    for n in ns:
        gap = table.ex(fam_F, n) - table.ex(fam_union, n)
        if gap < 0:
            raise AssertionError("superfamily monotonicity violated in the table")
        threshold = 2 * F.n * len(F.edges) * comb(n - 1, F.r - 1)
        t_max = isqrt(gap // threshold) if threshold > 0 else 0
        yield GapResult(n=n, gap=gap, threshold=threshold, t_max=t_max)


def edge_sensitivity_gap(F, n, table):
    """The gap, threshold and t_max of ``edge_sensitivity_gaps`` at one n."""
    return next(edge_sensitivity_gaps(F, [n], table))


def fact51_check(n, t, r):
    """Certified check of C(n-t, r) >= e^{-1/5} C(n, r) for t <= (n-r)/(5r+1).

    rhs is the conservative rational upper bound C(n,r)/E15_LO; holds means
    the inequality is certified through the interval enclosure of e^{1/5}.
    """
    if n < 1 or r < 1 or t < 0:
        raise ValueError("need n, r >= 1 and t >= 0")
    if t * (5 * r + 1) > n - r:
        raise ValueError(f"precondition t <= (n-r)/(5r+1) violated: t={t}, n={n}, r={r}")
    lhs = Fraction(comb(n - t, r))
    rhs = Fraction(comb(n, r)) / E15_LO
    holds = lhs >= rhs
    note = ""
    if not holds and Fraction(comb(n, r)) / E15_HI <= lhs:
        note = "indeterminate at interval precision"
    return CheckResult(n, lhs, rhs, holds, note)


def fact52_check(F, n, t, table):
    """|d(n,F) - d(n-t,F)| <= 4t C(n-t, r-2), from exact records."""
    if t < 1 or t * F.r > n - F.r:
        raise ValueError(f"precondition 1 <= t <= n/r - 1 violated: t={t}, n={n}, r={F.r}")
    fam = singleton(F)
    d_n = Fraction(F.r * table.ex(fam, n), n)
    d_nt = Fraction(F.r * table.ex(fam, n - t), n - t)
    lhs = abs(d_n - d_nt)
    rhs = Fraction(4 * t * comb(n - t, F.r - 2))
    return CheckResult(n, lhs, rhs, lhs <= rhs)


def lemma53_report(F, n, t, table, pi):
    """Advisory comparison of |ex(n,F) - ex(n-t,F) - t d(n,F)| against the
    smooth-growth envelope; the hypothesis is asymptotic, so this never
    asserts, it only reports."""
    if t < 1 or t > n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    fam = singleton(F)
    ex_n = table.ex(fam, n)
    ex_nt = table.ex(fam, n - t)
    d_n = Fraction(F.r * ex_n, n)
    lhs = abs(Fraction(ex_n - ex_nt) - t * d_n)
    m = F.n
    rhs = (
        (1 - pi) / (8 * m) * t + Fraction(4 * (F.r - 1) * t * t, n)
    ) * comb(n, F.r - 1)
    return CheckResult(n, lhs, rhs, lhs <= rhs, "advisory: hypothesis is asymptotic")
