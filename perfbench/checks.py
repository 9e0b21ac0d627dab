"""Independent checks of rainbowlab's answers.

Nothing here calls the solvers (``ex_exact``, ``ar_exact``,
``find_rainbow_copy``) or the program's record parsers.  Expected values come
from closed formulas in the literature, a table of girth-5 maxima, a
brute-force rainbow search written here, and an ``ex(n, shape, t)`` oracle
the caller passes in (the benchmark passes the values ``oracle.py`` gets from
``rainbowlab.turan.ex_enumerate``, the exhaustive subset sweep, which shares
only copy enumeration with ``ex_exact``).  Every ``check_*`` function
returns a list of failure messages; an empty list means the answer passed.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from math import comb, isqrt

# -- target shapes: (r, vertices, edges) --------------------------------------------

SHAPES = {
    "K2": (2, 2, [(0, 1)]),
    "K3": (2, 3, [(0, 1), (0, 2), (1, 2)]),
    "C4": (2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "P3": (2, 3, [(0, 1), (1, 2)]),
    "K4": (2, 4, list(itertools.combinations(range(4), 2))),
    "K4^3-": (3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
    "K3^3": (3, 3, [(0, 1, 2)]),
}


def tile(shape, t):
    """tF: t vertex-disjoint copies of a shape, as (r, vertices, edges)."""
    r, v, edges = SHAPES[shape]
    return r, v * t, [tuple(x + i * v for x in e) for i in range(t) for e in edges]


# -- values from the literature -----------------------------------------------------


def mantel(n):
    """ex(n, K3) = floor(n^2/4) (Mantel 1907)."""
    return n * n // 4


#: ex(n, {K3, C4}), the most edges of an n-vertex graph of girth >= 5 (OEIS A006855)
GIRTH5 = {4: 3, 5: 5, 6: 6, 7: 8, 8: 10, 9: 12}

#: ar(n, F) for every n the benchmark uses (value formulas for t = 1)
KNOWN_AR = {
    "K3": lambda n: n,  # Erdos-Simonovits-Sos 1975
    "C4": lambda n: 4 * n // 3,  # Alon 1983
    "K4": lambda n: n * n // 4 + 2,  # Montellano-Ballesteros, Neumann-Lara 2002
}


def gap_row(n):
    """The `report gap -F K3` row for n: (n, gap, threshold, t_max).

    gap = ex(n,K3) - ex(n,{K3,C4}) (the edge-sums of two triangles are C4),
    threshold = 2 v(F) |F| C(n-1, r-1), t_max = floor(sqrt(gap / threshold)).
    """
    gap = mantel(n) - GIRTH5[n]
    threshold = 2 * 3 * 3 * comb(n - 1, 1)
    return n, gap, threshold, isqrt(gap // threshold)


# -- brute force ------------------------------------------------------------------


def colex_edges(n, r):
    return sorted(itertools.combinations(range(n), r), key=lambda e: e[::-1])


def find_copy(n, edge_set, target):
    """An injective map of the target's vertices into range(n) carrying every
    target edge into edge_set, or None."""
    _, v, edges = target
    for img in itertools.permutations(range(n), v):
        if all(tuple(sorted(img[x] for x in e)) in edge_set for e in edges):
            return img
    return None


def find_rainbow(r, n, colors, target):
    """An injective map of the target into K_n^r whose edge images carry
    pairwise distinct colors, or None."""
    color = dict(zip(colex_edges(n, r), colors))
    _, v, edges = target
    for img in itertools.permutations(range(n), v):
        seen = {color[tuple(sorted(img[x] for x in e))] for e in edges}
        if len(seen) == len(edges):
            return img
    return None


# -- file formats (parsed here, not with the program's parsers) ---------------------


def parse_hg(text):
    """(r, n, edges) from `.hg` text."""
    lines = text.split("\n")
    r, n, m = (int(x) for x in lines[0].split())
    edges = [tuple(int(x) for x in line.split()) for line in lines[1 : 1 + m]]
    return r, n, edges


def parse_col(text):
    """(r, n, ncolors, colors) from `.col` text."""
    head, body = text.split("\n")[:2]
    r, n, ncolors = (int(x) for x in head.split())
    return r, n, ncolors, [int(x) for x in body.split()]


def parse_record(text):
    """(header fields, body text) of a cached TURAN or AR record."""
    head, _meta, body = text.split("\n", 2)
    kind, *pairs = head.split(" ")
    fields = dict(p.split("=", 1) for p in pairs)
    fields["kind"] = kind
    return fields, body


# -- single-answer checks -------------------------------------------------------------


def check_equal(label, got, want):
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def check_sandwich(label, value, t, ex_prev, ex_t):
    """ex(n,(t-1)F) + 2 <= ar(n,tF) <= ex(n,tF) + 1; the lower side only for t >= 2."""
    if t >= 2 and value < ex_prev + 2:
        return [f"{label}: ar={value} below ex(n,(t-1)F)+2={ex_prev + 2}"]
    if value > ex_t + 1:
        return [f"{label}: ar={value} above ex(n,tF)+1={ex_t + 1}"]
    return []


def check_coloring(label, r, n, ncolors, colors, target, want_colors):
    """A coloring of K_n^r on exactly want_colors colors (all used) with no
    rainbow copy of target."""
    if len(colors) != comb(n, r):
        return [f"{label}: {len(colors)} colors listed for {comb(n, r)} edges"]
    if ncolors != want_colors or set(colors) != set(range(1, want_colors + 1)):
        return [f"{label}: uses {len(set(colors))} colors, expected {want_colors}"]
    hit = find_rainbow(r, n, colors, target)
    return [] if hit is None else [f"{label}: rainbow copy on vertices {hit}"]


def check_extremal(label, r, n, value, witness, targets):
    """A witness of ex(n, family): value edges on n vertices, no member inside."""
    wr, wn, edges = witness
    if (wr, wn, len(edges)) != (r, n, value):
        return [f"{label}: witness is r={wr} n={wn} m={len(edges)}, expected r={r} n={n} m={value}"]
    edge_set = set(edges)
    for name in targets:
        hit = find_copy(n, edge_set, SHAPES[name])
        if hit is not None:
            return [f"{label}: witness contains {name} on vertices {hit}"]
    return []


def facts_failures():
    """The (r, n, t) of the `report facts` grid where C(n-t,r) >= e^{-1/5} C(n,r)
    fails, evaluated in floating point (no grid point lies within 1e-9 of equality)."""
    bad = []
    for r in range(2, 5):
        for n in range(20, 61):
            t = 0
            while (t + 1) * (5 * r + 1) <= n - r:
                t += 1
            for tt in range(t + 1):
                ratio = comb(n - tt, r) * math.exp(0.2) / comb(n, r)
                if abs(ratio - 1) < 1e-9:
                    raise ValueError(f"grid point r={r} n={n} t={tt} is too close to call")
                if ratio < 1:
                    bad.append((r, n, tt))
    return bad


# -- the README session ----------------------------------------------------------------

#: the README `lab` walkthrough, in order
SESSION = [
    "zoo list",
    "zoo emit fano -o fano.hg",
    "zoo emit complete-graph -l 2 -o k2.hg",
    "zoo emit complete-graph -l 3 -o k3.hg",
    "turan -n 5 --forbid k3.hg",
    "ar -n 5 -t 1 -F k3.hg",
    "verify sandwich -n 5 -t 1 -F k3.hg",
    "construct fact21 -n 6 -t 1 -F k3.hg -o inner.col",
    "construct fact31 -n 7 -t 1 -F k3.hg --inner inner.col -o outer.col",
    "ar -n 6 -t 2 -F k3.hg",
    "report gap -F k3.hg --n-range 6:6",
    "verify identity -n 6 -t 1 -F k3.hg",
    "ar -n 6 -t 3 -F k2.hg",
    "ar -n 5 -t 2 -F k2.hg",
    "verify reduction -n 6 -t 1 -F k2.hg",
    "derived -F k3.hg -n 6",
    "report gap -F k3.hg --n-range 5:9",
    "report smoothness -F k3.hg --n-range 5:9 --pi 1/2",
    "report facts --r-range 2:4 --n-range 20:60",
]

#: files the session writes, with the index of the command that writes each
SESSION_FILES = {"fano.hg": 1, "k2.hg": 2, "k3.hg": 3, "inner.col": 7, "outer.col": 8}

_AR_LINE = re.compile(r"AR n=(\d+) t=(\d+) F=\w+ value=(\d+) status=exact$")


def _table(out, skip):
    """Whitespace-split rows of a printed table, after `skip` header lines."""
    return [line.split() for line in out.strip("\n").split("\n")[skip:]]


def _ar_value(label, out, n, t, fails):
    m = _AR_LINE.match(out.strip("\n"))
    if m is None or (int(m[1]), int(m[2])) != (n, t):
        fails.append(f"{label}: unexpected output {out!r}")
        return None
    return int(m[3])


def check_session(outs, files, ex):
    """Check the stdout of every README command that exited 0 (None marks one
    that did not) and the files the session wrote.

    ``files`` maps each name in SESSION_FILES that exists to its text; ``ex(n,
    shape, t)`` is the independent Turan oracle.
    """
    fails = []

    def expect(i, want):
        if outs[i] is not None:
            fails.extend(check_equal(SESSION[i], outs[i], want))

    if outs[0] is not None and not {"fano", "complete-graph -l <int>"} <= set(outs[0].split("\n")):
        fails.append(f"{SESSION[0]}: zoo list misses fano or complete-graph")
    expect(1, "fano: r=3 n=7 m=7 -> fano.hg\n")
    expect(2, "complete-graph: r=2 n=2 m=1 -> k2.hg\n")
    expect(3, "complete-graph: r=2 n=3 m=3 -> k3.hg\n")
    for name, i in SESSION_FILES.items():
        if outs[i] is not None and name not in files:
            fails.append(f"{SESSION[i]}: {name} was not written")
    if "fano.hg" in files:
        r, n, edges = parse_hg(files["fano.hg"])
        pairs = sorted(p for e in edges for p in itertools.combinations(e, 2))
        if (r, n, len(edges)) != (3, 7, 7) or pairs != sorted(itertools.combinations(range(7), 2)):
            fails.append("fano.hg: not a Steiner triple system on 7 points")
    for name, shape in (("k2.hg", "K2"), ("k3.hg", "K3")):
        if name in files:
            fails.extend(check_equal(name, parse_hg(files[name]), SHAPES[shape]))

    if outs[4] is not None:
        m = re.match(r"TURAN n=5 fam=\w+ value=(\d+) status=exact$", outs[4].strip("\n"))
        if m is None:
            fails.append(f"{SESSION[4]}: unexpected output {outs[4]!r}")
        else:
            fails.extend(check_equal(SESSION[4] + " (Mantel)", int(m[1]), mantel(5)))
    if outs[5] is not None:
        v = _ar_value(SESSION[5], outs[5], 5, 1, fails)
        if v is not None:
            fails.extend(check_equal(SESSION[5] + " (Erdos-Simonovits-Sos)", v, KNOWN_AR["K3"](5)))
    expect(6, f"sandwich n=5 s=1: 2 <= ar={KNOWN_AR['K3'](5)} <= {mantel(5) + 1}: holds\n")

    inner_colors = mantel(6) + 1  # Fact 2.1: an extremal K3-free graph rainbow, plus one color
    outer_colors = inner_colors + comb(7, 2) - comb(6, 2)  # Fact 3.1: every new edge fresh
    expect(7, f"coloring r=2 n=6 ncolors={inner_colors} certified rainbow-2F-free -> inner.col\n")
    expect(8, f"coloring r=2 n=7 ncolors={outer_colors} certified rainbow-3F-free -> outer.col\n")
    if "inner.col" in files:
        r, n, nc, colors = parse_col(files["inner.col"])
        fails.extend(
            check_coloring("inner.col", r, n, nc, colors, tile("K3", 2), inner_colors)
        )
        if "outer.col" in files:
            r7, n7, nc7, colors7 = parse_col(files["outer.col"])
            fails.extend(
                check_coloring("outer.col", r7, n7, nc7, colors7, tile("K3", 3), outer_colors)
            )
            if colors7[: comb(6, 2)] != colors or colors7[comb(6, 2) :] != list(
                range(inner_colors + 1, outer_colors + 1)
            ):
                fails.append("outer.col: does not extend inner.col by fresh colors")

    ar_6_2k3 = None
    if outs[9] is not None:
        ar_6_2k3 = _ar_value(SESSION[9], outs[9], 6, 2, fails)
        if ar_6_2k3 is not None:
            fails.extend(check_sandwich(SESSION[9], ar_6_2k3, 2, ex(6, "K3", 1), ex(6, "K3", 2)))
    if outs[10] is not None:
        fails.extend(check_equal(SESSION[10], _table(outs[10], 1), [list(map(str, gap_row(6)))]))
    if outs[11] is not None and ar_6_2k3 is not None:
        ex_k3 = mantel(6)
        t_max = gap_row(6)[3]
        if ar_6_2k3 < ex_k3 + 2:
            status = "violation"
        elif ar_6_2k3 == ex_k3 + 2:
            status = "holds" if t_max >= 1 else "out-of-range"
        else:
            status = "violation" if t_max >= 1 else "out-of-range"
        expect(
            11, f"identity n=6 t=1: ar={ar_6_2k3} vs ex+2={ex_k3 + 2} t_max={t_max}: {status}\n"
        )
    big = inner = None
    if outs[12] is not None:
        big = _ar_value(SESSION[12], outs[12], 6, 3, fails)
        if big is not None:
            fails.extend(check_sandwich(SESSION[12], big, 3, ex(6, "K2", 2), ex(6, "K2", 3)))
    if outs[13] is not None:
        inner = _ar_value(SESSION[13], outs[13], 5, 2, fails)
        if inner is not None:
            fails.extend(check_sandwich(SESSION[13], inner, 2, ex(5, "K2", 1), ex(5, "K2", 2)))
    if big is not None and inner is not None:
        crossing = comb(6, 2) - comb(5, 2)
        verdict = "holds" if big >= crossing + inner else "VIOLATION"
        expect(14, f"reduction n=6 t=1: ar={big} >= {crossing}+{inner}: {verdict}\n")
        if verdict != "holds":
            fails.append(f"{SESSION[14]}: the reduction inequality fails on these values")
    expect(
        15,
        f"n=6 delta={mantel(6) - mantel(5)} d={Fraction(2 * mantel(6), 6)} "
        f"pi_hat={Fraction(mantel(6), comb(6, 2))}\n",
    )
    if outs[16] is not None:
        want = [list(map(str, gap_row(n))) for n in range(5, 10)]
        fails.extend(check_equal(SESSION[16], _table(outs[16], 1), want))
    if outs[17] is not None:
        want = []
        for n in range(5, 10):
            lhs = abs(Fraction(mantel(n) - mantel(n - 1)) - Fraction(2 * mantel(n - 1), n - 1))
            rhs = Fraction(1, 2) / (8 * 3) * n
            want.append([str(n), str(lhs), str(rhs), str(lhs <= rhs)])
        fails.extend(check_equal(SESSION[17], _table(outs[17], 2), want))
        fails.extend(check_equal(SESSION[17] + " (pi line)", outs[17].split("\n")[0], "pi = 1/2"))
    if outs[18] is not None:
        rows = [[str(r), str(n), str(t), "False"] for r, n, t in facts_failures()]
        table = _table(outs[18], 1)
        fails.extend(check_equal(SESSION[18], table[:-1], rows))
        tail = "fact51 grid complete" + (" (all hold)" if not rows else "")
        fails.extend(check_equal(SESSION[18] + " (last line)", " ".join(table[-1]), tail))
    return fails


def check_records(records, ex):
    """Check every cached record against independent values.

    ``records`` is a list of (family, text) where family names the shape
    list of a TURAN record (e.g. ("K3", "C4")) or the F of an AR record
    (e.g. ("K3",)), or is None when the key matched no family of the session.
    """
    fails = []
    for family, text in records:
        fields, body = parse_record(text)
        label = text.split("\n", 1)[0]
        if family is None:
            fails.append(f"{label}: unknown family key")
            continue
        n = int(fields["n"])
        value = int(fields["value"])
        if fields["status"] != "exact":
            fails.append(f"{label}: status is not exact")
            continue
        if fields["kind"] == "TURAN":
            want = {("K3",): mantel, ("K3", "C4"): GIRTH5.get}[family](n)
            fails.extend(check_equal(label, value, want))
            r = SHAPES[family[0]][0]
            fails.extend(check_extremal(label, r, n, value, parse_hg(body), family))
        else:
            witness = None if body == "nowitness\n" else parse_col(body)
            fails.extend(check_ar(n, family[0], int(fields["t"]), value, witness, ex))
    return fails


# -- the anti-Ramsey ladder ------------------------------------------------------------

#: (shape, t) on n = 6: graphs and 3-graphs, t = 1..3; the last is a rainbow matching
LADDER_N = 6
LADDER = [
    ("K2", 3),
    ("K3", 2),
    ("K3", 1),
    ("C4", 1),
    ("P3", 2),
    ("K4", 1),
    ("K4^3-", 1),
    ("K3^3", 2),
]


#: every ex(n, tF) the checks ask for (session, cached records and ladder)
ORACLE_EX = sorted(
    {(5, "K3", 1), (6, "K3", 1), (6, "K3", 2), (6, "K2", 2), (6, "K2", 3), (5, "K2", 1), (5, "K2", 2)}
    | {(LADDER_N, s, k) for s, t in LADDER for k in range(max(t - 1, 1), t + 1)}
)

#: the families of the session's cached records, by their shapes
FAMILIES = [["K2"], ["K3"], ["K3", "C4"]]


def check_ar(n, shape, t, value, witness, ex):
    """One ar(n, tF) answer with its witness (r, n, ncolors, colors), or None:
    the literature value where known, the sandwich bounds, and a brute-force
    check of the witness coloring."""
    label = f"ar({n},{t}{shape})"
    fails = []
    if t == 1 and shape in KNOWN_AR:
        fails.extend(check_equal(label, value, KNOWN_AR[shape](n)))
    fails.extend(check_sandwich(label, value, t, ex(n, shape, t - 1) if t > 1 else 0, ex(n, shape, t)))
    if value > 1:
        if witness is None:
            return fails + [f"{label}: no witness coloring"]
        r, wn, nc, colors = witness
        if (r, wn) != (SHAPES[shape][0], n):
            return fails + [f"{label}: witness is r={r} n={wn}"]
        fails.extend(check_coloring(label, r, n, nc, colors, tile(shape, t), value - 1))
    return fails
