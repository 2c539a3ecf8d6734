"""Command-line front end.

Subcommands: cn, dyck, families, xvar, grtable, strata, example13, ffcount,
ffstrata, verify; each is registered once with a handler that returns
``(text, obj)``.  ``--format json`` prints ``obj`` in the documented schemas,
text prints polynomials descending.  Module errors map to distinct exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cluster, families, fforacle, strata
from .dyck import build_dyck, render_ascii
from .errors import InvalidParameter, QkronError
from .qlaurent import c_sequence


def _r_and_n(args):
    for name in ("r", "n"):
        if getattr(args, name) is None:
            raise InvalidParameter(f"--{name} is required for {args.command}")
    return args.r, args.n


def _cn(args):
    r, n = _r_and_n(args)
    val = c_sequence(r, n)
    return str(val), {"r": r, "n": n, "c": val}


def _dyck(args):
    path = build_dyck(*_r_and_n(args))
    obj = {"word": path.word, "v_index": list(path.v_edge[1:])}
    return path.word + "\n" + render_ascii(path), obj


def _families(args):
    r, n = _r_and_n(args)
    families.check_budget(0, args.budget)  # refuse a negative budget without --list too
    count = families.count_families(r, n)
    obj = {"r": r, "n": n, "count": count}
    lines = [f"families: {count}"]
    if args.list:
        families.check_budget(count, args.budget)
        records = [fam.to_obj() for fam in families.enumerate_families(build_dyck(r, n))]
        obj["families"] = records
        lines += [json.dumps(rec, separators=(",", ":")) for rec in records]
    return "\n".join(lines), obj


def _xvar(args):
    r, n = _r_and_n(args)
    families.check_budget(0, args.budget)  # refuse a negative budget on either method
    if args.method == "enum":
        el = families.xvar_enum(r, n, args.budget)
    else:
        el = cluster.xvar_recursive(r, n)
    # render only the form that is printed
    return (str(el), None) if args.fmt != "json" else ("", el.to_obj())


def _grtable(args):
    table = cluster.gr_table(*_r_and_n(args))
    lines = [f"d1 = {table.d1}, d2 = {table.d2}"]
    for (e1, e2), poly in table.sorted_items():
        lines.append(f"e=({e1},{e2}): {poly.format_descending()}")
    return "\n".join(lines), table.to_obj()


def _strata(args):
    r, n = _r_and_n(args)
    if not args.closed:
        table = strata.strata_from_gr(cluster.gr_table(r, n), args.e2)
    elif n != 6 or args.e2 != 1:
        raise InvalidParameter("--closed requires --n 6 and --e2 1")
    else:
        table = strata.closed_strata_m6(r)
    if args.p is not None:  # the table is a fresh value: keep only the asked stratum
        if not 0 <= args.p <= table.d1:
            raise InvalidParameter(f"p must lie in 0..{table.d1}, got {args.p}")
        table.zprime = {args.p: table.zp(args.p)}
        table.zbarprime = {args.p: table.zbar(args.p)}
    lines = [f"e2 = {table.e2}, d1 = {table.d1}, d2 = {table.d2}"]
    for p in sorted(table.zprime):
        lines.append(f"Z'({p})    = {table.zp(p).format_descending()}")
        lines.append(f"Zbar'({p}) = {table.zbar(p).format_descending()}")
    return "\n".join(lines), table.to_obj()


def _example13(args):
    poly = strata.closed_zbar_m6(args.r, args.p)
    chi = strata.euler_char(poly)
    obj = {"r": args.r, "p": args.p, "poly": poly.to_obj(), "chi": chi}
    return poly.format_descending() + f"\nchi = {chi}", obj


def _ffcount(args):
    r, n = _r_and_n(args)
    mod = fforacle.build_module(args.prime, r, n, seed=args.seed)
    val = fforacle.count_gr(mod, args.e1, args.e2)
    obj = {"p": args.prime, "r": r, "n": n, "e1": args.e1, "e2": args.e2, "count": val}
    return str(val), obj


def _ffstrata(args):
    r, n = _r_and_n(args)
    mod = fforacle.build_module(args.prime, r, n, seed=args.seed)
    val = fforacle.count_strata(mod, args.side, args.param, args.s)
    obj = {
        "p": args.prime,
        "r": r,
        "n": n,
        "side": args.side,
        "param": args.param,
        "s": args.s,
        "count": val,
    }
    return str(val), obj


def _verify(args):
    from . import verify  # the only user: other commands skip compiling it

    if args.list or not args.suite:
        suites = sorted(verify.SUITES.items())
        lines = [f"{name}: {desc}" for name, (_, desc) in suites]
        return "\n".join(lines), {name: desc for name, (_, desc) in suites}
    kwargs = {k: v for k, v in (("r", args.r), ("n", args.n)) if v is not None}
    checks = verify.run_suite(args.suite, **kwargs)
    lines = []
    for c in checks:
        status = "ok" if c.ok else "FAIL"
        extra = f" ({c.detail})" if c.detail else ""
        lines.append(f"{status} {c.suite}: {c.label}{extra}")
    obj = {
        "suite": args.suite,
        "checks": [{"label": c.label, "ok": c.ok, "detail": c.detail} for c in checks],
        "passed": all(c.ok for c in checks),
    }
    return "\n".join(lines), obj


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="qkron",
        description="Exact rank-2 quantum cluster computations for r-arrow Kronecker quivers",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--r", type=int, default=None, help="number of arrows (>= 2)")
        sp.add_argument("--n", type=int, default=None, help="index in the cluster sequence")
        sp.add_argument("--format", dest="fmt", choices=("text", "json"), default=None)
        sp.add_argument("--output", default=None, help="write the document to this path")
        return sp

    command("cn", _cn, "dimension sequence value c_n")

    command("dyck", _dyck, "maximal lattice path, word and drawing")

    sp = command("families", _families, "compatible families of a path")
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--budget", type=int, default=families.DEFAULT_FAMILY_BUDGET)

    sp = command("xvar", _xvar, "cluster variable as a torus element")
    sp.add_argument("--method", choices=("recursion", "enum"), default="recursion")
    sp.add_argument("--budget", type=int, default=families.DEFAULT_FAMILY_BUDGET)

    command("grtable", _grtable, "per-dimension-vector polynomials")

    sp = command("strata", _strata, "stratum polynomials at fixed e2")
    sp.add_argument("--e2", type=int, default=None, required=True)
    sp.add_argument("--p", type=int, default=None, help="restrict to one stratum parameter")
    sp.add_argument("--closed", action="store_true", help="use the closed forms (n=6, e2=1)")

    sp = sub.add_parser("example13", help="closed-stratum polynomial with negative Euler characteristic")
    sp.set_defaults(run=_example13)
    sp.add_argument("--r", type=int, default=10)
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--format", dest="fmt", choices=("text", "json"), default=None)
    sp.add_argument("--output", default=None)

    sp = command("ffcount", _ffcount, "finite-field subrepresentation count")
    sp.add_argument("--p", type=int, required=True, dest="prime")
    sp.add_argument("--e1", type=int, required=True)
    sp.add_argument("--e2", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = command("ffstrata", _ffstrata, "finite-field stratum count")
    sp.add_argument("--p", type=int, required=True, dest="prime")
    sp.add_argument("--side", choices=fforacle.SIDES, required=True)
    sp.add_argument("--param", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = command("verify", _verify, "run a named invariant suite")
    sp.add_argument("--suite", default=None)
    sp.add_argument("--list", action="store_true")
    return ap


def _report_error(exc) -> int:
    sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
    err_doc = json.dumps({"error": type(exc).__name__, "message": str(exc)}, indent=2)
    sys.stdout.write(err_doc + "\n")
    return getattr(exc, "exit_code", 1)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, obj = args.run(args)
    except QkronError as exc:
        return _report_error(exc)
    if args.fmt == "json":
        doc = json.dumps(obj, indent=2) + "\n"
    else:
        doc = text if text.endswith("\n") else text + "\n"
    if not args.output:
        sys.stdout.write(doc)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as exc:
            return _report_error(exc)
    # a verify report is written in full before its failure shows in the exit code
    return 0 if obj is None or obj.get("passed", True) else 1
