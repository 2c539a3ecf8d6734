"""One repetition of a compute workload, in a fresh interpreter.

Usage: python3 bench/worker.py SPEC_JSON

SPEC_JSON holds {"jobs": [[kind, *args], ...], "run": int, "spans": path or
null}.  Each job is timed alone with ``time.perf_counter``; its output is
reduced to a digest after the clock stops.  With "spans" set, the tracing
wrappers are installed first and the spans are written to that path at the
end.  The last line of stdout is one JSON object with the per-job results.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_checked():
    """Import qkron from the checkout's src/ and refuse any other copy."""
    sys.path.insert(0, SRC)
    import qkron

    where = os.path.realpath(qkron.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"qkron imported from {where}, outside {SRC}")
    return qkron


# -- output digests -----------------------------------------------------------


def _update_laurent(h, ql):
    for k2, c in ql.items2():
        h.update(k2.to_bytes(8, "little", signed=True))
        h.update(c.to_bytes((c.bit_length() + 8) // 8, "little", signed=True))
        h.update(b";")


def digest_torus(el) -> str:
    h = hashlib.sha256()
    for (a, b), c in el.items():
        h.update(f"{a},{b}:".encode())
        _update_laurent(h, c)
        h.update(b"|")
    return h.hexdigest()


def digest_table(table) -> str:
    h = hashlib.sha256(f"{table.r},{table.n},{table.d1},{table.d2}|".encode())
    for (e1, e2), poly in table.sorted_items():
        h.update(f"{e1},{e2}:".encode())
        _update_laurent(h, poly)
        h.update(b"|")
    return h.hexdigest()


def digest_counts(gr: list, strata: list) -> str:
    return hashlib.sha256(json.dumps({"gr": gr, "strata": strata}).encode()).hexdigest()


# -- jobs -----------------------------------------------------------------------


def oracle_counts(fforacle, mod):
    """Criterion-5 counts of one module: count_gr for every e, then
    count_strata for every parameter pair on all four sides."""
    gr = [
        fforacle.count_gr(mod, e1, e2)
        for e1 in range(mod.d1 + 1)
        for e2 in range(mod.d2 + 1)
    ]
    strata = []
    for side in fforacle.SIDES:
        image_side = side in ("z", "zbar")
        params = mod.d2 if image_side else mod.d1
        dims = mod.d1 if image_side else mod.d2
        strata += [
            fforacle.count_strata(mod, side, pp, s)
            for pp in range(params + 1)
            for s in range(dims + 1)
        ]
    return gr, strata


def run_job(qkron, job):
    """Compute one job; returns (seconds, digest)."""
    kind, *args = job
    if kind == "gr_table":
        t0 = time.perf_counter()
        out = qkron.cluster.gr_table(*args)
        secs = time.perf_counter() - t0
        return secs, digest_table(out)
    if kind == "xvar_enum":
        t0 = time.perf_counter()
        out = qkron.families.xvar_enum(*args, budget=None)
        secs = time.perf_counter() - t0
        return secs, digest_torus(out)
    if kind == "oracle":
        r, n, p, module_seed = args
        t0 = time.perf_counter()
        mod = qkron.fforacle.build_module(p, r, n, seed=module_seed)
        gr, strata = oracle_counts(qkron.fforacle, mod)
        secs = time.perf_counter() - t0
        return secs, digest_counts(gr, strata)
    raise ValueError(f"unknown job kind {kind!r}")


def main(argv) -> int:
    spec = json.loads(argv[1])
    qkron = import_checked()
    rec = None
    if spec.get("spans"):
        import spans

        rec = spans.Recorder(spec["run"])
        spans.install(rec)
    results = []
    for job in spec["jobs"]:
        try:
            secs, digest = run_job(qkron, job)
            results.append({"job": job, "seconds": secs, "digest": digest})
        except Exception as exc:  # a failed operation is reported, not fatal
            results.append({"job": job, "error": f"{type(exc).__name__}: {exc}"})
    if rec is not None:
        rec.dump(spec["spans"])
    print(json.dumps({"results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
