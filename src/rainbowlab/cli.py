"""The ``lab`` command line: zoo emission, exact solvers, constructions,
verification, and plain-text reports.

Exit codes: 0 success / all verdicts hold, 1 verification failure,
2 malformed input or insufficient exact records.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import antiramsey as anti
from . import constructions as cons
from . import turan as tur
from .cache import Cache, CacheError, ar_record, turan_record
from .core import (
    CapacityError,
    FormatError,
    HyperGraphFamily,
    disjoint_union,
    family_key,
    read_file,
    write_file,
)
from .turan import MissingRecordError, TuranTable, singleton


def _hash_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _parse_range(text):
    a, _, b = text.partition(":")
    lo, hi = int(a), int(b)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _load_graph(path):
    try:
        return read_file(path)
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}")


def _turan_table_from_cache(cache, fams_ns):
    """Build an in-memory table from cached records; raise when any is missing."""
    table = TuranTable()
    for fam, n in fams_ns:
        rec = cache.load_turan(n, fam)
        if rec is None or not rec.is_exact():
            raise MissingRecordError(
                f"missing exact turan record n={n} fam={family_key(fam)}"
            )
        table.put(rec)
    return table


# -- subcommands ------------------------------------------------------------------


def cmd_zoo(args, cache):
    if args.zoo_cmd == "list":
        for name, (_, params) in sorted(cons.ZOO.items()):
            sig = " ".join(f"--{p}" if p == "minus" else f"-{p} <int>" for p in params)
            print(f"{name} {sig}".rstrip())
        return 0
    params = {}
    for p in ("k", "r", "l"):
        v = getattr(args, p)
        if v is not None:
            params[p] = v
    if args.minus:
        params["minus"] = True
    H = cons.zoo(args.name, **params)
    write_file(H, args.output)
    print(f"{args.name}: r={H.r} n={H.n} m={len(H.edges)} -> {args.output}")
    return 0


def cmd_turan(args, cache, argv):
    members = [_load_graph(p) for p in args.forbid]
    fam = HyperGraphFamily(members[0].r, members)
    hashes = {p: _hash_file(p) for p in args.forbid}
    mid = cache.manifest_id(argv, hashes)
    t0 = time.time()
    rec = turan_record(cache, args.n, fam, budget=args.budget, manifest=mid)
    cache.write_manifest(argv, hashes, time.time() - t0, [f"value={rec.value}", rec.status])
    print(f"TURAN n={rec.n} fam={rec.family_key} value={rec.value} status={rec.status}")
    return 0


def cmd_ar(args, cache, argv):
    F = _load_graph(args.F)
    hashes = {args.F: _hash_file(args.F)}
    mid = cache.manifest_id(argv, hashes)
    t0 = time.time()
    rec = ar_record(cache, args.n, args.t, F, budget=args.budget, manifest=mid)
    cache.write_manifest(argv, hashes, time.time() - t0, [f"value={rec.value}", rec.status])
    status = rec.status if rec.is_exact() else f"bounds:{rec.lo}:{rec.hi}"
    print(f"AR n={rec.n} t={rec.t} F={rec.F_key} value={rec.value} status={status}")
    return 0


def cmd_construct(args, cache, argv):
    F = _load_graph(args.F)
    hashes = {args.F: _hash_file(args.F)}
    if args.construct_cmd == "fact21":
        mid = cache.manifest_id(argv, hashes)
        t0 = time.time()
        rec = turan_record(cache, args.n, singleton(disjoint_union(F, args.t)), manifest=mid)
        chi = anti.build_coloring_fact21(args.n, args.t, F, rec)
        target = f"rainbow-{args.t + 1}F-free"
    else:
        inner = cache.load_coloring(args.inner)
        hashes[args.inner] = _hash_file(args.inner)
        mid = cache.manifest_id(argv, hashes)
        t0 = time.time()
        chi = anti.build_coloring_fact31(args.n, args.t, F, inner)
        target = f"rainbow-{args.t + 2}F-free"
    path = cache.store_coloring(chi) if args.output is None else Path(args.output)
    if args.output is not None:
        path.write_text(anti.coloring_to_text(chi), encoding="ascii")
    cache.write_manifest(argv, hashes, time.time() - t0, [f"ncolors={chi.ncolors}", "certified"])
    print(f"coloring r={chi.r} n={chi.n} ncolors={chi.ncolors} certified {target} -> {path}")
    return 0


def cmd_verify(args, cache, argv):
    F = _load_graph(args.F)
    hashes = {args.F: _hash_file(args.F)}
    t0 = time.time()
    verdicts = []
    code = 0
    ar_table = anti.ArTable()
    if args.verify_cmd == "sandwich":
        s = args.t
        rec = cache.load_ar(args.n, s, F)
        if rec is None or not rec.is_exact():
            print(f"insufficient records: need exact ar(n={args.n}, t={s})", file=sys.stderr)
            return 2
        ar_table.put(rec)
        fams = [(singleton(disjoint_union(F, s)), args.n)]
        if s >= 2:
            fams.append((singleton(disjoint_union(F, s - 1)), args.n))
        table = _turan_table_from_cache(cache, fams)
        v = anti.sandwich_check(args.n, s, F, table, ar_table)
        verdicts.append(
            f"sandwich n={v.n} s={v.s}: {v.lower} <= ar={v.ar_value} <= {v.upper}: "
            + ("holds" if v.holds else "VIOLATION")
        )
        code = 0 if v.holds else 1
    elif args.verify_cmd == "identity":
        rec = cache.load_ar(args.n, args.t + 1, F)
        if rec is None or not rec.is_exact():
            print(
                f"insufficient records: need exact ar(n={args.n}, t={args.t + 1})",
                file=sys.stderr,
            )
            return 2
        ar_table.put(rec)
        fam_F = singleton(F)
        fam_union = fam_F.union(cons.edge_sum_family(F, F))
        table = _turan_table_from_cache(
            cache,
            [
                (singleton(disjoint_union(F, args.t)), args.n),
                (fam_F, args.n),
                (fam_union, args.n),
            ],
        )
        v = anti.verify_identity_thm15(args.n, args.t, F, table, ar_table)
        verdicts.append(
            f"identity n={v.n} t={v.t}: ar={v.ar_value} vs ex+2={v.ex_value + 2} "
            f"t_max={v.t_max}: {v.status}"
        )
        code = 1 if v.status == "violation" else 0
    else:  # reduction
        big = cache.load_ar(args.n, args.t + 2, F)
        inner = cache.load_ar(args.n - args.t, 2, F)
        if any(r is None or not r.is_exact() for r in (big, inner)):
            print("insufficient records: need exact ar at (n,t+2) and (n-t,2)", file=sys.stderr)
            return 2
        ar_table.put(big)
        ar_table.put(inner)
        v = anti.reduction_check(args.n, args.t, F, ar_table)
        verdicts.append(
            f"reduction n={v.n} t={v.t}: ar={v.ar_big} >= {v.crossing}+{v.ar_inner}: "
            + ("holds" if v.holds else "VIOLATION")
        )
        code = 0 if v.holds else 1
    for line in verdicts:
        print(line)
    cache.write_manifest(argv, hashes, time.time() - t0, verdicts)
    return code


def cmd_derived(args, cache, argv):
    F = _load_graph(args.F)
    hashes = {args.F: _hash_file(args.F)}
    mid = cache.manifest_id(argv, hashes)
    t0 = time.time()
    table = TuranTable()
    for n in (args.n - 1, args.n):
        table.put(turan_record(cache, n, singleton(F), manifest=mid))
    dq = tur.derived_quantities(F, table, args.n)
    cache.write_manifest(argv, hashes, time.time() - t0, [f"delta={dq.delta_n}", f"d={dq.d_n}", f"pi_hat={dq.pi_hat}"])
    print(f"n={dq.n} delta={dq.delta_n} d={dq.d_n} pi_hat={dq.pi_hat}")
    return 0


def cmd_report(args, cache, argv):
    F = _load_graph(args.F) if args.F else None
    hashes = {args.F: _hash_file(args.F)} if args.F else {}
    mid = cache.manifest_id(argv, hashes)
    t0 = time.time()
    rows = []
    if args.report_cmd == "gap":
        fam_F = singleton(F)
        fam_union = fam_F.union(cons.edge_sum_family(F, F))
        table = TuranTable()
        print(f"{'n':>4} {'gap':>6} {'threshold':>10} {'t_max':>6}")
        for n in _parse_range(args.n_range):
            table.put(turan_record(cache, n, fam_F, manifest=mid))
            table.put(turan_record(cache, n, fam_union, manifest=mid))
            g = tur.edge_sensitivity_gap(F, n, table)
            rows.append(f"gap n={n} gap={g.gap} t_max={g.t_max}")
            print(f"{n:>4} {g.gap:>6} {g.threshold:>10} {g.t_max:>6}")
    elif args.report_cmd == "smoothness":
        ns = _parse_range(args.n_range)
        table = TuranTable()
        for n in range(min(ns) - 1, max(ns) + 1):
            table.put(turan_record(cache, n, singleton(F), manifest=mid))
        if args.pi is not None:
            pi = Fraction(args.pi)
        else:
            pi = tur.derived_quantities(F, table, max(ns)).pi_hat
        params = tur.CheckParams(c1=Fraction(1), c2=Fraction(1), pi=pi, m=F.n)
        print(f"pi = {pi}")
        print(f"{'n':>4} {'lhs':>12} {'rhs':>14} {'holds':>6}")
        for row in tur.smoothness_check(F, params, table, ns):
            note = f" ({row.note})" if row.note else ""
            print(f"{row.n:>4} {str(row.lhs):>12} {str(row.rhs):>14} {str(row.holds):>6}{note}")
            rows.append(f"smoothness n={row.n} holds={row.holds}")
    else:  # facts
        print(f"{'r':>3} {'n':>4} {'t':>4} {'holds':>6}")
        for r in _parse_range(args.r_range):
            for n in _parse_range(args.n_range):
                t = 0
                while (t + 1) * (5 * r + 1) <= n - r:
                    t += 1
                for tt in range(0, t + 1):
                    res = tur.fact51_check(n, tt, r)
                    if not res.holds:
                        rows.append(f"fact51 r={r} n={n} t={tt} FAILS")
                        print(f"{r:>3} {n:>4} {tt:>4} {'False':>6}")
        print("fact51 grid complete" + (" (all hold)" if not rows else ""))
        rows.append("fact51 grid done")
    cache.write_manifest(argv, hashes, time.time() - t0, rows)
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="lab", description=__doc__)
    p.add_argument("--cache-dir", default=None, help="cache root (default $LAB_CACHE_DIR or ./cache)")
    sub = p.add_subparsers(dest="cmd", required=True)

    zoo = sub.add_parser("zoo", help="emit named hypergraphs")
    zsub = zoo.add_subparsers(dest="zoo_cmd", required=True)
    zsub.add_parser("list")
    zemit = zsub.add_parser("emit")
    zemit.add_argument("name")
    zemit.add_argument("-k", type=int, default=None)
    zemit.add_argument("-r", type=int, default=None)
    zemit.add_argument("-l", type=int, default=None)
    zemit.add_argument("--minus", action="store_true")
    zemit.add_argument("-o", "--output", required=True)

    t = sub.add_parser("turan", help="exact ex(n, family) with witness")
    t.add_argument("-n", type=int, required=True)
    t.add_argument("--forbid", action="append", required=True, help="hypergraph file (repeatable)")
    t.add_argument("--budget", type=int, default=None)

    a = sub.add_parser("ar", help="exact ar(n, tF) with witness coloring")
    a.add_argument("-n", type=int, required=True)
    a.add_argument("-t", type=int, required=True)
    a.add_argument("-F", required=True)
    a.add_argument("--budget", type=int, default=None)

    c = sub.add_parser("construct", help="lower-bound colorings")
    csub = c.add_subparsers(dest="construct_cmd", required=True)
    for name in ("fact21", "fact31"):
        cp = csub.add_parser(name)
        cp.add_argument("-n", type=int, required=True)
        cp.add_argument("-t", type=int, required=True)
        cp.add_argument("-F", required=True)
        cp.add_argument("-o", "--output", default=None)
        if name == "fact31":
            cp.add_argument("--inner", required=True)

    v = sub.add_parser("verify", help="check finite inequalities against cached records")
    vsub = v.add_subparsers(dest="verify_cmd", required=True)
    for name in ("identity", "sandwich", "reduction"):
        vp = vsub.add_parser(name)
        vp.add_argument("-n", type=int, required=True)
        vp.add_argument("-t", type=int, required=True)
        vp.add_argument("-F", required=True)

    d = sub.add_parser("derived", help="delta(n,F), d(n,F), pi_hat")
    d.add_argument("-F", required=True)
    d.add_argument("-n", type=int, required=True)

    rep = sub.add_parser("report", help="per-n tables")
    rsub = rep.add_subparsers(dest="report_cmd", required=True)
    rg = rsub.add_parser("gap")
    rg.add_argument("-F", required=True)
    rg.add_argument("--n-range", required=True)
    rs = rsub.add_parser("smoothness")
    rs.add_argument("-F", required=True)
    rs.add_argument("--n-range", required=True)
    rs.add_argument("--pi", default=None, help="rational like 1/2 (default: pi_hat)")
    rf = rsub.add_parser("facts")
    rf.add_argument("--r-range", default="2:4")
    rf.add_argument("--n-range", default="20:60")
    rf.add_argument("-F", default=None)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = Cache(args.cache_dir)
    try:
        if args.cmd == "zoo":
            return cmd_zoo(args, cache)
        if args.cmd == "turan":
            return cmd_turan(args, cache, argv)
        if args.cmd == "ar":
            return cmd_ar(args, cache, argv)
        if args.cmd == "construct":
            return cmd_construct(args, cache, argv)
        if args.cmd == "verify":
            return cmd_verify(args, cache, argv)
        if args.cmd == "derived":
            return cmd_derived(args, cache, argv)
        if args.cmd == "report":
            return cmd_report(args, cache, argv)
        raise AssertionError(f"unhandled command {args.cmd}")
    except (FormatError, ValueError, CapacityError, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MissingRecordError as exc:
        print(f"insufficient records: {exc}", file=sys.stderr)
        return 2
    except anti.CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
