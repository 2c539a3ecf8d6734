#!/usr/bin/env python3
"""Finite-field sanity run: counts vs polynomial values at q = p.

Builds a certified rigid module for each configuration of the ``verify``
oracle suites (``verify.FF_CONFIGS``) and compares every subrepresentation
count against the corresponding polynomial evaluated at the field size.
"""

import time

from qkron import build_module, count_gr, gr_table
from qkron.verify import FF_CONFIGS


def main():
    for r, n, p in FF_CONFIGS:
        t0 = time.perf_counter()
        mod = build_module(p, r, n)
        table = gr_table(r, n)
        bad = sum(
            count_gr(mod, e1, e2) != int(table.entry(e1, e2).evaluate(p))
            for e1 in range(table.d1 + 1)
            for e2 in range(table.d2 + 1)
        )
        total = (table.d1 + 1) * (table.d2 + 1)
        print(
            f"(r={r}, n={n}, p={p}): {total - bad}/{total} dimension vectors agree "
            f"({time.perf_counter() - t0:.2f}s)"
        )
        if bad:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
