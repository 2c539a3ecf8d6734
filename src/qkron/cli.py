"""Command-line front end.

Subcommands: cn, dyck, families, xvar, grtable, strata, example13, ffcount,
ffstrata, verify.  Output is deterministic; ``--format json`` emits the
documented JSON schemas, the default text form prints polynomials in
descending-exponent style.  Module errors map to distinct exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import cluster, families, fforacle, strata, verify
from .dyck import build_dyck, render_ascii
from .errors import BudgetExceeded, InvalidParameter, QkronError
from .qlaurent import QLaurent, c_sequence
from .strata import closed_gr_m6, closed_zbar_m6, euler_char


@dataclass
class RunConfig:
    command: str
    r: int = 2
    n: int = 4
    e1: int = 0
    e2: int = 0
    p: int = 2
    s: int = 0
    param: int = 0
    side: str = "zp"
    method: str = "recursion"
    budget: int = families.DEFAULT_FAMILY_BUDGET
    max_terms: int = cluster.DEFAULT_MAX_TERMS
    seed: int = 0
    fmt: str = "text"
    output: str | None = None
    list_items: bool = False
    closed: bool = False
    suite: str | None = None
    has_r: bool = False
    has_n: bool = False
    has_p: bool = False


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="qkron",
        description="Exact rank-2 quantum cluster computations for r-arrow Kronecker quivers",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, r=True, n=True):
        if r:
            sp.add_argument("--r", type=int, default=None, help="number of arrows (>= 2)")
        if n:
            sp.add_argument("--n", type=int, default=None, help="index in the cluster sequence")
        sp.add_argument("--format", dest="fmt", choices=("text", "json"), default=None)
        sp.add_argument("--output", default=None, help="write the document to this path")

    common(sub.add_parser("cn", help="dimension sequence value c_n"))

    common(sub.add_parser("dyck", help="maximal lattice path, word and drawing"))

    sp = sub.add_parser("families", help="compatible families of a path")
    common(sp)
    sp.add_argument("--list", dest="list_items", action="store_true")
    sp.add_argument("--budget", type=int, default=families.DEFAULT_FAMILY_BUDGET)

    sp = sub.add_parser("xvar", help="cluster variable as a torus element")
    common(sp)
    sp.add_argument("--method", choices=("recursion", "enum"), default="recursion")
    sp.add_argument("--budget", type=int, default=families.DEFAULT_FAMILY_BUDGET)
    sp.add_argument("--max-terms", dest="max_terms", type=int, default=cluster.DEFAULT_MAX_TERMS)

    common(sub.add_parser("grtable", help="per-dimension-vector polynomials"))

    sp = sub.add_parser("strata", help="stratum polynomials at fixed e2")
    common(sp)
    sp.add_argument("--e2", type=int, default=None, required=True)
    sp.add_argument("--p", type=int, default=None, help="restrict to one stratum parameter")
    sp.add_argument("--closed", action="store_true", help="use the closed forms (n=6, e2=1)")

    sp = sub.add_parser("example13", help="closed-stratum polynomial with negative Euler characteristic")
    sp.add_argument("--r", type=int, default=10)
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--format", dest="fmt", choices=("text", "json"), default=None)
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("ffcount", help="finite-field subrepresentation count")
    common(sp)
    sp.add_argument("--p", type=int, required=True, dest="prime")
    sp.add_argument("--e1", type=int, required=True)
    sp.add_argument("--e2", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("ffstrata", help="finite-field stratum count")
    common(sp)
    sp.add_argument("--p", type=int, required=True, dest="prime")
    sp.add_argument("--side", choices=fforacle.SIDES, required=True)
    sp.add_argument("--param", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify", help="run a named invariant suite")
    common(sp)
    sp.add_argument("--suite", default=None)
    sp.add_argument("--list", dest="list_items", action="store_true")
    return ap


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.fmt = getattr(args, "fmt", None) or "text"
    cfg.output = getattr(args, "output", None)
    if getattr(args, "r", None) is not None:
        cfg.r, cfg.has_r = args.r, True
    if getattr(args, "n", None) is not None:
        cfg.n, cfg.has_n = args.n, True
    if getattr(args, "prime", None) is not None:
        cfg.p, cfg.has_p = args.prime, True
    for name in ("e1", "e2", "s", "param", "side", "method", "budget", "max_terms", "seed", "suite"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "p", None) is not None and args.command in ("strata", "example13"):
        cfg.param, cfg.has_p = args.p, True
    cfg.list_items = bool(getattr(args, "list_items", False))
    cfg.closed = bool(getattr(args, "closed", False))
    return cfg


def _require(cfg: RunConfig, *names):
    for name in names:
        if not getattr(cfg, f"has_{name}"):
            raise InvalidParameter(f"--{name} is required for {cfg.command}")


def _emit(cfg: RunConfig, text_doc: str, json_obj) -> str:
    if cfg.fmt == "json":
        return json.dumps(json_obj, indent=2) + "\n"
    return text_doc if text_doc.endswith("\n") else text_doc + "\n"


def _strata_doc(cfg: RunConfig, table: strata.StrataTable):
    ps = [cfg.param] if cfg.has_p else sorted(table.zprime)
    lines = [f"e2 = {table.e2}, d1 = {table.d1}, d2 = {table.d2}"]
    for p in ps:
        lines.append(f"Z'({p})    = {table.zp(p).format_descending()}")
        lines.append(f"Zbar'({p}) = {table.zbar(p).format_descending()}")
    obj = table.to_obj()
    if cfg.has_p:
        obj["zprime"] = [e for e in obj["zprime"] if e["p"] == cfg.param]
        obj["zbarprime"] = [e for e in obj["zbarprime"] if e["p"] == cfg.param]
    return "\n".join(lines), obj


def _dispatch(cfg: RunConfig) -> str:
    if cfg.command == "cn":
        _require(cfg, "r", "n")
        val = c_sequence(cfg.r, cfg.n)
        return _emit(cfg, str(val), {"r": cfg.r, "n": cfg.n, "c": val})

    if cfg.command == "dyck":
        _require(cfg, "r", "n")
        path = build_dyck(cfg.r, cfg.n)
        obj = {"word": path.word, "v_index": list(path.v_edge[1:])}
        return _emit(cfg, path.word + "\n" + render_ascii(path), obj)

    if cfg.command == "families":
        _require(cfg, "r", "n")
        count = families.count_families(cfg.r, cfg.n)
        obj = {"r": cfg.r, "n": cfg.n, "count": count}
        lines = [f"families: {count}"]
        if cfg.list_items:
            if count > cfg.budget:
                raise BudgetExceeded(
                    f"{count} families exceed the configured budget of {cfg.budget}"
                )
            records = [
                fam.to_obj()
                for fam in families.enumerate_families(build_dyck(cfg.r, cfg.n))
            ]
            obj["families"] = records
            lines += [json.dumps(rec, separators=(",", ":")) for rec in records]
        return _emit(cfg, "\n".join(lines), obj)

    if cfg.command == "xvar":
        _require(cfg, "r", "n")
        if cfg.method == "enum":
            el = families.xvar_enum(cfg.r, cfg.n, cfg.budget)
        else:
            el = cluster.xvar_recursive(cfg.r, cfg.n, cfg.max_terms)
        if cfg.fmt == "text":
            return _emit(cfg, str(el), None)
        return _emit(cfg, "", el.to_obj())

    if cfg.command == "grtable":
        _require(cfg, "r", "n")
        table = cluster.gr_table(cfg.r, cfg.n)
        lines = [f"d1 = {table.d1}, d2 = {table.d2}"]
        for (e1, e2), poly in table.sorted_items():
            lines.append(f"e=({e1},{e2}): {poly.format_descending()}")
        return _emit(cfg, "\n".join(lines), table.to_obj())

    if cfg.command == "strata":
        _require(cfg, "r", "n")
        if cfg.closed:
            if cfg.n != 6 or cfg.e2 != 1:
                raise InvalidParameter("--closed requires --n 6 and --e2 1")
            d1 = cfg.r**3 - 2 * cfg.r
            d2 = cfg.r**2 - 1
            zbar = {p: closed_zbar_m6(cfg.r, p) for p in range(d1 + 1)}
            zp = {
                p: zbar[p] - (zbar[p + 1] if p + 1 <= d1 else QLaurent.zero())
                for p in range(d1 + 1)
            }
            table = strata.StrataTable(1, d1, d2, zp, zbar)
        else:
            table = strata.strata_from_gr(cluster.gr_table(cfg.r, cfg.n), cfg.e2)
        text_doc, obj = _strata_doc(cfg, table)
        return _emit(cfg, text_doc, obj)

    if cfg.command == "example13":
        poly = closed_zbar_m6(cfg.r, cfg.param)
        chi = euler_char(poly)
        text_doc = poly.format_descending() + f"\nchi = {chi}"
        obj = {"r": cfg.r, "p": cfg.param, "poly": poly.to_obj(), "chi": chi}
        return _emit(cfg, text_doc, obj)

    if cfg.command == "ffcount":
        _require(cfg, "r", "n", "p")
        mod = fforacle.build_module(cfg.p, cfg.r, cfg.n, seed=cfg.seed)
        val = fforacle.count_gr(mod, cfg.e1, cfg.e2)
        obj = {"p": cfg.p, "r": cfg.r, "n": cfg.n, "e1": cfg.e1, "e2": cfg.e2, "count": val}
        return _emit(cfg, str(val), obj)

    if cfg.command == "ffstrata":
        _require(cfg, "r", "n", "p")
        mod = fforacle.build_module(cfg.p, cfg.r, cfg.n, seed=cfg.seed)
        val = fforacle.count_strata(mod, cfg.side, cfg.param, cfg.s)
        obj = {
            "p": cfg.p,
            "r": cfg.r,
            "n": cfg.n,
            "side": cfg.side,
            "param": cfg.param,
            "s": cfg.s,
            "count": val,
        }
        return _emit(cfg, str(val), obj)

    if cfg.command == "verify":
        if cfg.list_items or not cfg.suite:
            lines = [f"{name}: {desc}" for name, (_, desc) in sorted(verify.SUITES.items())]
            obj = {name: desc for name, (_, desc) in sorted(verify.SUITES.items())}
            return _emit(cfg, "\n".join(lines), obj)
        kwargs = {}
        if cfg.has_r:
            kwargs["r"] = cfg.r
        if cfg.has_n:
            kwargs["n"] = cfg.n
        try:
            checks = verify.run_suite(cfg.suite, **kwargs)
        except KeyError as exc:
            raise InvalidParameter(str(exc)) from exc
        lines = []
        for c in checks:
            status = "ok" if c.ok else "FAIL"
            extra = f" ({c.detail})" if c.detail else ""
            lines.append(f"{status} {c.suite}: {c.label}{extra}")
        obj = {
            "suite": cfg.suite,
            "checks": [
                {"label": c.label, "ok": c.ok, "detail": c.detail} for c in checks
            ],
            "passed": all(c.ok for c in checks),
        }
        doc = _emit(cfg, "\n".join(lines), obj)
        if not all(c.ok for c in checks):
            # report then signal failure
            _write(cfg, doc)
            raise SystemExit(1)
        return doc

    raise InvalidParameter(f"unknown command {cfg.command!r}")


def _write(cfg: RunConfig, doc: str):
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        doc = _dispatch(cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except QkronError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        err_doc = json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, indent=2
        )
        sys.stdout.write(err_doc + "\n")
        return exc.exit_code
    _write(cfg, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
