"""Command line interface.

Subcommands build groups from the expression language, compute invariant
reports, run the individual structure checks, and process whole corpus
directories.  Run ``groupgen <command> --help`` for the knobs of each.

Exit codes:

* 0 everything succeeded
* 1 a group-theoretic error (bad subgroup words, invalid action, ...)
* 2 an expression or input file could not be parsed
* 3 an order cap or the time budget stopped a computation
* 4 a structure check was applicable and failed, or a report field it
  needed was left uncomputed
"""

import argparse
import json
import os
import sys

import numpy as np

from . import builder
from . import crowns
from . import genset
from . import report
from . import structure
from . import verify
from .perm import (DEFAULT_LATTICE_CAP, CapExceeded, GroupError, Limits,
                   TimeBudgetExceeded)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_RED_FLAG = 4


def _worst(codes):
    for code in (EXIT_RED_FLAG, EXIT_PARSE, EXIT_CAP, EXIT_ERROR):
        if code in codes:
            return code
    return EXIT_OK


def _limits(args):
    return Limits(args.lattice_cap, args.time_budget)


def _knobs(args):
    out = {"max_order": args.max_order, "lattice_cap": args.lattice_cap,
           "time_budget": args.time_budget, "seed": args.seed}
    if getattr(args, "cache", None) is not None:
        out["cache"] = args.cache
    return out


def _build(args, text):
    return builder.build(text, order_cap=args.max_order)


def _report_code(rep):
    """The exit code one report implies."""
    kind = rep.get("error_kind")
    if kind == "parse":
        return EXIT_PARSE
    if kind in ("cap", "time"):
        return EXIT_CAP
    if kind is not None:
        return EXIT_ERROR
    for v in rep.get("verdicts") or ():
        if v["applicable"] and not v["ok"]:
            return EXIT_RED_FLAG
    if rep.get("skipped"):
        return EXIT_CAP
    return EXIT_OK


def _print_report(rep):
    if "error" in rep:
        print(f"{rep['id']}: {rep['error_kind']} error: {rep['error']}")
        return
    soluble = "soluble" if rep["soluble"] else "not soluble"
    print(f"{rep['id']}: order {rep['order']}, degree {rep['degree']}, "
          f"{soluble}")
    print(f"  d = {rep['d']}  m = {rep['m']}  a = {rep['a']}  b = {rep['b']}"
          f"  spectrum = {rep['spectrum']}")
    if rep["chief_factors"] is not None:
        parts = []
        for f in rep["chief_factors"]:
            tag = f"{f['order']}"
            if f["frattini"]:
                tag += "F"
            if not f["abelian"]:
                tag += "*"
            parts.append(tag)
        print(f"  chief factor orders: {' '.join(parts)}"
              " (F = Frattini, * = non-abelian)")
    for v in rep.get("verdicts") or ():
        state = "ok" if v["ok"] else "RED FLAG"
        case = f" case {v['case']}" if v["case"] is not None else ""
        applies = "applicable" if v["applicable"] else "not applicable"
        print(f"  {v['theorem']}: {applies}{case}, {state}")
    for name, reason in (rep.get("skipped") or {}).items():
        print(f"  skipped {name}: {reason}")


def cmd_build(args):
    codes = []
    for text in report.read_expressions(args.file):
        try:
            G = _build(args, text)
        except builder.ParseError as exc:
            print(f"{text}: parse error: {exc}", file=sys.stderr)
            codes.append(EXIT_PARSE)
        except (CapExceeded, TimeBudgetExceeded) as exc:
            print(f"{text}: {exc}", file=sys.stderr)
            codes.append(EXIT_CAP)
        except GroupError as exc:
            print(f"{text}: {exc}", file=sys.stderr)
            codes.append(EXIT_ERROR)
        else:
            print(f"{text}: order {G.order()}, degree {G.degree}, "
                  f"{len(G.gens)} generators")
            codes.append(EXIT_OK)
    return _worst(codes)


def cmd_invariants(args):
    if os.path.isfile(args.expr):
        texts = report.read_expressions(args.expr)
    else:
        texts = [args.expr]
    reps = [report.compute_report(t, **_knobs(args)) for t in texts]
    for rep in reps:
        _print_report(rep)
    if args.json is not None:
        payload = reps[0] if len(reps) == 1 else reps
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return _worst([_report_code(r) for r in reps])


def cmd_verify(args):
    fn = {"md-equal": verify.verify_md_equal,
          "nonsoluble": verify.verify_nonsoluble,
          "soluble": verify.verify_soluble_cases}[args.check]
    an = genset.Analysis(_build(args, args.expr), _limits(args), args.seed)
    d, m = an.d, an.m
    v = fn(an)
    applies = "applicable" if v.applicable else "not applicable"
    case = f" case {v.case}" if v.case is not None else ""
    state = "ok" if v.ok else "RED FLAG"
    print(f"{v.theorem}: {applies}{case}, {state} (d = {d}, m = {m})")
    for key in sorted(v.evidence):
        print(f"  {key} = {v.evidence[key]}")
    return EXIT_RED_FLAG if v.applicable and not v.ok else EXIT_OK


def cmd_spectrum(args):
    an = genset.Analysis(_build(args, args.expr), _limits(args), args.seed)
    wits = an.spectrum
    for k in sorted(wits):
        shown = " ".join(p.cycle_string() for p in wits[k]) or "()"
        print(f"{k}: {shown}")
    return EXIT_OK


def cmd_phi(args):
    G = _build(args, args.expr)
    count = crowns.eulerian(G, args.m, limits=_limits(args))
    print(count)
    return EXIT_OK


def cmd_crown(args):
    G = _build(args, args.expr)
    A = structure.unique_minimal_normal(G)
    if A is None:
        raise GroupError(
            "crown powers need a unique minimal normal subgroup")
    C = crowns.crown_power(G, A, args.k)
    print(f"crown power: order {C.order()}, degree {C.degree} "
          f"(base order {G.order()}, socle order {A.order()})")
    return EXIT_OK


def _json_int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{x!r} is not an integer")
    return x


def cmd_h1(args):
    G = _build(args, args.expr)
    try:
        with open(args.modulefile, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        prime = _json_int(data["prime"])
        # a ragged matrix raises ValueError, an entry beyond int64
        # OverflowError
        matrices = [np.array([[_json_int(c) for c in row] for row in m],
                             dtype=np.int64) for m in data["matrices"]]
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"{args.modulefile}: expected JSON with an integer \"prime\" "
              f"and \"matrices\" (one square integer matrix per "
              f"generator): {exc}", file=sys.stderr)
        return EXIT_PARSE
    M = crowns.GfpModule(G, prime, matrices, limits=_limits(args))
    print(crowns.h1_dimension(G, M))
    return EXIT_OK


def cmd_corpus(args):
    reps = report.run_corpus(args.dir, slow=args.slow, threads=args.threads,
                             **_knobs(args))
    codes = []
    for rep in reps:
        codes.append(_report_code(rep))
        if "error" in rep:
            print(f"{rep['id']}: {rep['error_kind']} error: {rep['error']}")
            continue
        flags = []
        for v in rep.get("verdicts") or ():
            if v["applicable"]:
                case = f" case {v['case']}" if v["case"] is not None else ""
                flags.append(f"{v['theorem']}{case} "
                             f"{'ok' if v['ok'] else 'RED FLAG'}")
        if rep.get("skipped"):
            flags.append("skipped: " + ", ".join(sorted(rep["skipped"])))
        tail = f" [{'; '.join(flags)}]" if flags else ""
        print(f"{rep['id']}: order {rep['order']}, d = {rep['d']}, "
              f"m = {rep['m']}{tail}")
    bad = sum(1 for c in codes if c != EXIT_OK)
    print(f"{len(reps)} groups, {bad} with errors, skips or red flags")
    return _worst(codes)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="groupgen",
        description="generation invariants of finite permutation groups")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-order", type=int, metavar="N",
                        default=builder.DEFAULT_ORDER_CAP,
                        help="refuse to build groups larger than this")
    common.add_argument("--lattice-cap", type=int, metavar="N",
                        default=DEFAULT_LATTICE_CAP,
                        help="abort subgroup lattice walks beyond this many "
                             "subgroups")
    common.add_argument("--time-budget", type=float, metavar="SECONDS",
                        default=None,
                        help="wall clock budget for long searches")
    common.add_argument("--seed", type=int, metavar="N", default=0,
                        help="seed for randomized generation probes")
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--cache", metavar="PATH", default=None,
                      help="JSONL report cache keyed by group fingerprint")
    pool.add_argument("--threads", type=int, metavar="N", default=1,
                      help="worker processes for corpus runs")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common],
                       help="build each expression in a file, print sizes")
    p.add_argument("file")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("invariants", parents=[common, pool],
                       help="full invariant report for an expression or "
                            "every expression in a file")
    p.add_argument("expr", metavar="EXPR|FILE")
    p.add_argument("--json", metavar="OUT", default=None,
                   help="also write the report(s) as JSON to this path")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("verify", parents=[common],
                       help="run one structure check against an expression")
    p.add_argument("check", choices=("md-equal", "nonsoluble", "soluble"))
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spectrum", parents=[common],
                       help="independent generating sets of every possible "
                            "size")
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("phi", parents=[common],
                       help="number of generating m-tuples")
    p.add_argument("expr", metavar="EXPR")
    p.add_argument("m", type=int)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("crown", parents=[common],
                       help="crown-based power of a monolithic group")
    p.add_argument("expr", metavar="EXPR")
    p.add_argument("k", type=int)
    p.set_defaults(fn=cmd_crown)

    p = sub.add_parser("h1", parents=[common],
                       help="dimension of the first cohomology group for a "
                            "module given as a JSON matrix file")
    p.add_argument("expr", metavar="EXPR")
    p.add_argument("modulefile", metavar="MODULEFILE")
    p.set_defaults(fn=cmd_h1)

    p = sub.add_parser("corpus", parents=[common, pool],
                       help="report on every *.expr file in a directory")
    p.add_argument("dir", metavar="DIR")
    p.add_argument("--slow", action="store_true",
                   help="include files marked .slow")
    p.set_defaults(fn=cmd_corpus)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except builder.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CapExceeded, TimeBudgetExceeded) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    except GroupError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
