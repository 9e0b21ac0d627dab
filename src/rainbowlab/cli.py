"""The ``lab`` command line: zoo emission, exact solvers, constructions,
verification, and plain-text reports.

Exit codes: 0 success / all verdicts hold, 1 verification failure,
2 malformed input or insufficient exact records.
"""

import argparse
import sys
import time
from pathlib import Path

from .core import (
    CacheError,
    CapacityError,
    CertificationError,
    FormatError,
    HyperGraphFamily,
    MissingRecordError,
    digest16,
    disjoint_union,
    read_file,
    write_file,
)

# Each command imports the modules it runs, so that a command compiles and
# builds no more than it needs: ``zoo`` loads no solver, and only ``ar``,
# ``construct`` and ``verify`` load ``antiramsey``.


def _hash_file(path):
    return digest16(Path(path).read_bytes())


def _parse_range(text):
    """argparse type for ranges lo:hi, ends included; an empty range is a usage error."""
    lo, _, hi = text.partition(":")
    if not (lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(f"not a range lo:hi with lo <= hi: {text!r}")
    return range(int(lo), int(hi) + 1)


def _budget(text):
    """argparse type for node budgets: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _fraction(text):
    """argparse type for rationals like 1/2; a zero denominator is a usage error."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _join_rationals(argv):
    """``argv`` with the rational option ``--pi`` joined to its next argument
    when that parses as a fraction, so ``--pi -1/3`` reaches ``_fraction`` as
    ``--pi=-1/3``: argparse would read "-1/3" as an option.  The manifest id
    still hashes ``argv`` as given."""
    out = []
    for arg in argv:
        if out[-1:] == ["--pi"]:
            try:
                _fraction(arg)
            except argparse.ArgumentTypeError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def _inputs(args):
    """The input files of a command, in manifest order: --forbid, -F, --inner."""
    paths = list(getattr(args, "forbid", None) or [])
    paths += [p for p in (getattr(args, "F", None), getattr(args, "inner", None)) if p]
    return paths


# -- subcommands ------------------------------------------------------------------
#
# Each command but ``zoo`` takes the command's ``Records`` store and returns
# (exit code, verdicts); ``main`` times it and writes the manifest.


def cmd_zoo(args):
    from . import constructions as cons  # only `zoo` needs it; keeps `lab` start-up light

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


def cmd_turan(args, records):
    from .cache import turan_record_to_text

    members = [read_file(p) for p in args.forbid]
    fam = HyperGraphFamily(members[0].r, members)
    rec = records.turan(fam, args.n, budget=args.budget)
    print(turan_record_to_text(rec).partition("\n")[0])
    return 0, [f"value={rec.value}", rec.status, f"closed_by={rec.closed_by}"]


def cmd_ar(args, records):
    from .cache import ar_record_to_text

    rec = records.ar(read_file(args.F), args.n, args.t, budget=args.budget)
    print(ar_record_to_text(rec).partition("\n")[0])
    return 0, [f"value={rec.value}", rec.status, f"closed_by={rec.closed_by}"]


def cmd_construct(args, records):
    from . import antiramsey as anti
    from .turan import singleton

    F = read_file(args.F)
    if args.construct_cmd == "fact21":
        rec = records.turan(singleton(disjoint_union(F, args.t)), args.n)
        chi = anti.build_coloring_fact21(args.n, args.t, F, rec)
        target = f"rainbow-{args.t + 1}F-free"
    else:
        inner = anti.coloring_from_text(Path(args.inner).read_text(encoding="ascii"))
        chi = anti.build_coloring_fact31(args.n, args.t, F, inner)
        target = f"rainbow-{args.t + 2}F-free"
    path = records.cache.store_coloring(chi) if args.output is None else Path(args.output)
    if args.output is not None:
        path.write_text(anti.coloring_to_text(chi), encoding="ascii")
    print(f"coloring r={chi.r} n={chi.n} ncolors={chi.ncolors} certified {target} -> {path}")
    return 0, [f"ncolors={chi.ncolors}", "certified"]


def cmd_verify(args, records):
    """Check one statement against cached records; its store has no manifest,
    so a missing record raises MissingRecordError and nothing is computed."""
    from . import antiramsey as anti

    F = read_file(args.F)
    if args.verify_cmd == "sandwich":
        v = anti.sandwich_check(args.n, args.t, F, records)
        line = (
            f"sandwich n={v.n} s={v.s}: {v.lower} <= ar={v.ar_value} <= {v.upper}: "
            + ("holds" if v.holds else "VIOLATION")
        )
        ok = v.holds
    elif args.verify_cmd == "identity":
        v = anti.verify_identity_thm15(args.n, args.t, F, records)
        line = (
            f"identity n={v.n} t={v.t}: ar={v.ar_value} vs ex+2={v.ex_value + 2} "
            f"t_max={v.t_max}: {v.status}"
        )
        ok = v.status != "violation"
    else:  # reduction
        v = anti.reduction_check(args.n, args.t, F, records)
        line = (
            f"reduction n={v.n} t={v.t}: ar={v.ar_big} >= {v.crossing}+{v.ar_inner}: "
            + ("holds" if v.holds else "VIOLATION")
        )
        ok = v.holds
    print(line)
    return (0 if ok else 1), [line]


def cmd_derived(args, records):
    from . import turan as tur

    F = read_file(args.F)
    dq = tur.derived_quantities(F, records, args.n)
    print(f"n={dq.n} delta={dq.delta_n} d={dq.d_n} pi_hat={dq.pi_hat}")
    return 0, [f"delta={dq.delta_n}", f"d={dq.d_n}", f"pi_hat={dq.pi_hat}"]


def cmd_report(args, records):
    """Print one table; its rows are computed before the first line is
    printed, so a command that fails leaves stdout empty."""
    from . import turan as tur

    if args.report_cmd == "facts":
        fails = [
            (r, n, t)
            for r in args.r_range
            for n in args.n_range
            for t in range(max(0, (n - r) // (5 * r + 1)) + 1)
            if not tur.fact51_check(n, t, r).holds
        ]
        print(f"{'r':>3} {'n':>4} {'t':>4} {'holds':>6}")
        for r, n, t in fails:
            print(f"{r:>3} {n:>4} {t:>4} {'False':>6}")
        print("fact51 grid complete" + (" (all hold)" if not fails else ""))
        return 0, [f"fact51 r={r} n={n} t={t} FAILS" for r, n, t in fails] + ["fact51 grid done"]
    F = read_file(args.F)
    if args.report_cmd == "gap":
        gaps = list(tur.edge_sensitivity_gaps(F, args.n_range, records))
        print(f"{'n':>4} {'gap':>6} {'threshold':>10} {'t_max':>6}")
        for g in gaps:
            print(f"{g.n:>4} {g.gap:>6} {g.threshold:>10} {g.t_max:>6}")
        return 0, [f"gap n={g.n} gap={g.gap} t_max={g.t_max}" for g in gaps]
    ns = args.n_range
    pi = args.pi if args.pi is not None else tur.derived_quantities(F, records, max(ns)).pi_hat
    rows = tur.smoothness_check(F, pi, records, ns)
    print(f"pi = {pi}")
    print(f"{'n':>4} {'lhs':>12} {'rhs':>14} {'holds':>6}")
    for row in rows:
        note = f" ({row.note})" if row.note else ""
        print(f"{row.n:>4} {str(row.lhs):>12} {str(row.rhs):>14} {str(row.holds):>6}{note}")
    return 0, [f"smoothness n={row.n} holds={row.holds}" for row in rows]


COMMANDS = {
    "turan": cmd_turan,
    "ar": cmd_ar,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "derived": cmd_derived,
    "report": cmd_report,
}


# -- parser -----------------------------------------------------------------------
#
# Each command's arguments are added by one function, so that ``build_parser``
# can build the subparser of one command alone.


def _zoo_args(zoo):
    zsub = zoo.add_subparsers(dest="zoo_cmd", required=True)
    zsub.add_parser("list")
    zemit = zsub.add_parser("emit")
    zemit.add_argument("name")
    zemit.add_argument("-k", type=int, default=None)
    zemit.add_argument("-r", type=int, default=None)
    zemit.add_argument("-l", type=int, default=None)
    zemit.add_argument("--minus", action="store_true")
    zemit.add_argument("-o", "--output", required=True)


def _turan_args(t):
    t.add_argument("-n", type=int, required=True)
    t.add_argument("--forbid", action="append", required=True, help="hypergraph file (repeatable)")
    t.add_argument("--budget", type=_budget, default=None)


def _ar_args(a):
    a.add_argument("-n", type=int, required=True)
    a.add_argument("-t", type=int, required=True)
    a.add_argument("-F", required=True)
    a.add_argument("--budget", type=_budget, default=None)


def _construct_args(c):
    csub = c.add_subparsers(dest="construct_cmd", required=True)
    for name in ("fact21", "fact31"):
        cp = csub.add_parser(name)
        cp.add_argument("-n", type=int, required=True)
        cp.add_argument("-t", type=int, required=True)
        cp.add_argument("-F", required=True)
        cp.add_argument("-o", "--output", default=None)
        if name == "fact31":
            cp.add_argument("--inner", required=True)


def _verify_args(v):
    vsub = v.add_subparsers(dest="verify_cmd", required=True)
    for name in ("identity", "sandwich", "reduction"):
        vp = vsub.add_parser(name)
        vp.add_argument("-n", type=int, required=True)
        vp.add_argument("-t", type=int, required=True)
        vp.add_argument("-F", required=True)


def _derived_args(d):
    d.add_argument("-F", required=True)
    d.add_argument("-n", type=int, required=True)


def _report_args(rep):
    rsub = rep.add_subparsers(dest="report_cmd", required=True)
    rg = rsub.add_parser("gap")
    rg.add_argument("-F", required=True)
    rg.add_argument("--n-range", type=_parse_range, required=True)
    rs = rsub.add_parser("smoothness")
    rs.add_argument("-F", required=True)
    rs.add_argument("--n-range", type=_parse_range, required=True)
    rs.add_argument("--pi", type=_fraction, default=None, help="rational like 1/2 (default: pi_hat)")
    rf = rsub.add_parser("facts")
    rf.add_argument("--r-range", type=_parse_range, default="2:4")
    rf.add_argument("--n-range", type=_parse_range, default="20:60")


#: each command's help line and the function that adds its arguments, in help order
SUBPARSERS = {
    "zoo": ("emit named hypergraphs", _zoo_args),
    "turan": ("exact ex(n, family) with witness", _turan_args),
    "ar": ("exact ar(n, tF) with witness coloring", _ar_args),
    "construct": ("lower-bound colorings", _construct_args),
    "verify": ("check finite inequalities against cached records", _verify_args),
    "derived": ("delta(n,F), d(n,F), pi_hat", _derived_args),
    "report": ("per-n tables", _report_args),
}


def _command(argv):
    """The command that argparse reads from ``argv``: the first argument
    that is neither ``--cache-dir`` (or an abbreviation such as ``--cache``,
    with its value after "=" or next) nor that value.  None when that
    argument names no command, or when it or the value starts with "-"
    (help, an unknown option, a missing value): only the full parser reads
    those as argparse does."""
    args = iter(argv)
    for arg in args:
        name, eq, _ = arg.partition("=")
        if len(name) > 2 and "--cache-dir".startswith(name):
            if not eq and next(args, "-").startswith("-"):
                return None
            continue
        return arg if arg in SUBPARSERS else None
    return None


def build_parser(cmd=None):
    """The parser of `lab`: the full one, or, for the ``cmd`` that argparse
    will read (``_command``), one with that command's subparser alone.  Its
    usage still lists every command, so it prints the full parser's texts."""
    p = argparse.ArgumentParser(prog="lab", description=__doc__)
    p.add_argument("--cache-dir", default=None, help="cache root (default $LAB_CACHE_DIR or ./cache)")
    every = None if cmd is None else "{" + ",".join(SUBPARSERS) + "}"
    sub = p.add_subparsers(dest="cmd", required=True, metavar=every)
    for name in SUBPARSERS if cmd is None else [cmd]:
        help_text, add_args = SUBPARSERS[name]
        add_args(sub.add_parser(name, help=help_text))
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    joined = _join_rationals(argv)
    args = build_parser(_command(joined)).parse_args(joined)
    try:
        if args.cmd == "zoo":
            return cmd_zoo(args)
        from .cache import Cache, Records

        cache = Cache(args.cache_dir)
        hashes = {p: _hash_file(p) for p in _inputs(args)}
        mid = cache.manifest_id(argv, hashes)
        records = Records(cache, None if args.cmd == "verify" else mid)  # verify computes nothing
        t0 = time.time()
        code, verdicts = COMMANDS[args.cmd](args, records)
        cache.write_manifest(argv, hashes, time.time() - t0, verdicts)
        return code
    except (OSError, FormatError, ValueError, CapacityError, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MissingRecordError as exc:
        print(f"insufficient records: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
