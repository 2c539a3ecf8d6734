"""Write bench/references.json: the exact outputs every workload is checked
against, each cross-validated by an independent route before it is stored.

Usage: python3 bench/make_references.py   (about 3 minutes on 2 cores)

- gr_table digests: the table must rebuild X_n (assemble_xvar) and the
  family scan must agree with the recursion (the bridge identity).
- xvar_enum digests: must equal the digest of q^(1/2) * xvar_recursive,
  including (4, 6) and (3, 7).
- oracle digests: the count_gr part is built from P_e(p) of gr_table, and
  the F_p oracle must reproduce it for several module seeds, with the same
  stratum counts for every seed and the stratification identities holding.
- CLI outputs: stdout digest, length and exit code of ``python -m qkron``
  for every session command in both formats; the text and JSON forms of
  each command must exit alike.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import workloads
from worker import SRC, digest_counts, digest_table, digest_torus, import_checked, oracle_counts

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
MODULE_SEEDS = (0, 1, 2, 12345)


def _stratification_holds(mod, gr, strata) -> bool:
    """Criterion 5's identities: every count_gr is rebuilt from the zp
    strata and from the z strata, and the closed strata are tail sums."""
    from qkron.qlaurent import q_binomial

    d1, d2, p = mod.d1, mod.d2, mod.p
    size = (d1 + 1) * (d2 + 1)  # strata come in SIDES order: z, zbar, zp, zpbar
    z = lambda pp, s: strata[pp * (d1 + 1) + s]
    zbar = lambda pp, s: strata[size + pp * (d1 + 1) + s]
    zp = lambda pp, s: strata[2 * size + pp * (d2 + 1) + s]
    zpbar = lambda pp, s: strata[3 * size + pp * (d2 + 1) + s]
    binom = lambda m, k: int(q_binomial(m, k).evaluate(p))
    for e1 in range(d1 + 1):
        for e2 in range(d2 + 1):
            target = gr[e1 * (d2 + 1) + e2]
            if sum(binom(pp, e1) * zp(pp, d2 - e2) for pp in range(d1 + 1)) != target:
                return False
            if sum(binom(pp, e2 - d2 + pp) * z(pp, e1) for pp in range(d2 + 1)) != target:
                return False
    tails_p = all(
        zpbar(p0, s) == sum(zp(pp, s) for pp in range(p0, d1 + 1))
        for s in range(d2 + 1)
        for p0 in range(d1 + 1)
    )
    tails_z = all(
        zbar(p0, s) == sum(z(pp, s) for pp in range(p0, d2 + 1))
        for s in range(d1 + 1)
        for p0 in range(d2 + 1)
    )
    return tails_p and tails_z


def _require(ok: bool, what):
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def main() -> int:
    import_checked()
    from qkron import cluster, families, fforacle

    refs = {}
    rec_pairs = set(workloads.RECURSION) | set(workloads.TINY["recursion"])
    for r, n in sorted(rec_pairs):
        table = cluster.gr_table(r, n)
        xn = cluster.xvar_recursive(r, n)
        _require(cluster.assemble_xvar(table) == xn, ("assemble", r, n))
        _require(families.xvar_enum(r, n, budget=None) == xn.scale2(1), ("bridge", r, n))
        refs[f"gr_table {r} {n}"] = digest_table(table)
        print("gr_table", r, n, flush=True)

    enum_pairs = set(workloads.EXPANSION) | set(workloads.TINY["expansion"])
    for r, n in sorted(enum_pairs):
        got = digest_torus(families.xvar_enum(r, n, budget=None))
        _require(got == digest_torus(cluster.xvar_recursive(r, n).scale2(1)), ("bridge", r, n))
        refs[f"xvar_enum {r} {n}"] = got
        print("xvar_enum", r, n, flush=True)

    for r, n, p in workloads.FF_CONFIGS:
        table = cluster.gr_table(r, n)
        expected = [
            int(table.entry(e1, e2).evaluate(p))
            for e1 in range(table.d1 + 1)
            for e2 in range(table.d2 + 1)
        ]
        digests = set()
        for seed in MODULE_SEEDS:
            mod = fforacle.build_module(p, r, n, seed=seed)
            gr, strata = oracle_counts(fforacle, mod)
            _require(gr == expected, ("P_e(p)", r, n, p, seed))
            _require(_stratification_holds(mod, gr, strata), ("strata", r, n, p, seed))
            digests.add(digest_counts(gr, strata))
            fforacle._image_dim_hist.cache_clear()
            fforacle._preimage_dim_hist.cache_clear()
        _require(len(digests) == 1, ("module seeds", r, n, p))
        refs[f"oracle {r} {n} {p}"] = digests.pop()
        print("oracle", r, n, p, flush=True)

    env = dict(os.environ, PYTHONPATH=SRC)
    for cmd in sorted(set(workloads.MENU) | set(workloads.TINY["menu"])):
        codes = set()
        for fmt in workloads.FORMATS:
            argv = [*cmd.split(), "--format", fmt]
            res = subprocess.run([sys.executable, "-m", "qkron", *argv], env=env,
                                 capture_output=True, check=False)
            codes.add(res.returncode)
            refs[" ".join(argv)] = {"rc": res.returncode,
                                    "sha256": hashlib.sha256(res.stdout).hexdigest(),
                                    "bytes": len(res.stdout)}
        _require(len(codes) == 1, ("exit codes", cmd))
        print("cli", cmd, flush=True)

    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
