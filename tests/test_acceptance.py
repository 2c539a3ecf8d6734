"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  All comparisons are exact; each criterion also carries
a wall-clock limit that is asserted.
"""

import os
import time

import pytest

from qkron import verify
from qkron.cluster import gr_table, xvar_recursive
from qkron.families import xvar_enum
from qkron.fforacle import build_module, count_gr, count_strata
from qkron.qlaurent import QLaurent, q_binomial
from qkron.strata import closed_gr_m6, closed_zbar_m6, euler_char, strata_from_gr
from qkron.verify import BRIDGE_PAIRS, FF_CONFIGS

# Pinned closed-stratum polynomial for r = 10, p = 5, keyed by q-exponent;
# cross-validated at small r where the generic pipeline reproduces the
# closed form, and by the finite-field oracle.
ZBAR_10_5 = {
    73: 1, 72: 2, 71: 4, 70: 7, 69: 12, 68: 19, 67: 27, 66: 36, 65: 46,
    64: 55, 63: 61, 62: 63, 61: 58, 60: 46, 59: 24, 58: -5, 57: -42,
    56: -81, 55: -123, 54: -158, 53: -184, 52: -195, 51: -190, 50: -164,
    49: -121, 48: -62, 47: 6, 46: 77, 45: 144, 44: 198, 43: 235, 42: 249,
    41: 241, 40: 209, 39: 162, 38: 101, 37: 38, 36: -25, 35: -76, 34: -116,
    33: -138, 32: -146, 31: -137, 30: -119, 29: -93, 28: -65, 27: -37,
    26: -14, 25: 4, 24: 15, 23: 21, 22: 22, 21: 20, 20: 16, 19: 12, 18: 8,
    17: 5, 16: 3, 15: 2, 14: 1, 13: 1, 12: 1, 11: 1, 10: 1, 9: 1, 8: 1,
    7: 1, 6: 1, 5: 1, 4: 1, 3: 1, 2: 1, 1: 1, 0: 1,
}

# Same for r = 5, p = 1: note the absent q^17/q^15 and the negative q^16.
ZBAR_5_1 = {
    22: 1, 21: 2, 20: 2, 19: 2, 18: 1, 16: -1, 14: 1, 13: 2, 12: 2, 11: 2,
    10: 1, 9: 1, 8: 1, 7: 1, 6: 1, 5: 1, 4: 1, 3: 1, 2: 1, 1: 1, 0: 1,
}

def _poly(table):
    return QLaurent({2 * e: c for e, c in table.items()})


def _report(num, label, ok, secs, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {label}: {status} ({secs:.2f}s, limit {limit}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert secs < limit, f"criterion {num} exceeded {limit}s ({secs:.2f}s)"


def test_criterion_1_negative_euler_reproduction():
    t0 = time.perf_counter()
    poly = closed_zbar_m6(10, 5)
    ok = poly == _poly(ZBAR_10_5) and euler_char(poly) == -27
    _report(1, "74-term stratum polynomial at r=10, p=5 with chi=-27", ok,
            time.perf_counter() - t0, 5)


def test_criterion_2_r5_reproduction():
    t0 = time.perf_counter()
    poly = closed_zbar_m6(5, 1)
    ok = poly == _poly(ZBAR_5_1) and poly.coeff2(32) == -1
    _report(2, "r=5, p=1 stratum polynomial including -q^16", ok,
            time.perf_counter() - t0, 5)


def test_criterion_3_bridge_identity():
    t0 = time.perf_counter()
    ok = True
    for r, n in BRIDGE_PAIRS:
        if xvar_enum(r, n) != xvar_recursive(r, n).scale2(1):
            ok = False
    _report(3, f"family expansion = q^(1/2) * recursion on {len(BRIDGE_PAIRS)} pairs",
            ok, time.perf_counter() - t0, 120)


def test_criterion_3_extended_bridge():
    t0 = time.perf_counter()
    ok = xvar_enum(3, 6) == xvar_recursive(3, 6).scale2(1)
    # (4, 6) has 1.8e17 families, beyond the default family budget
    ok = ok and xvar_enum(4, 6, budget=None) == xvar_recursive(4, 6).scale2(1)
    _report(3, "extended gate (r=3, n=6, 5403014 families; r=4, n=6)", ok,
            time.perf_counter() - t0, 1800)


def test_criterion_4_closed_forms_vs_pipeline():
    t0 = time.perf_counter()
    ok = True
    for r in (2, 3):
        table = gr_table(r, 6)
        st = strata_from_gr(table, 1)
        for e1 in range(table.d1 + 1):
            if closed_gr_m6(r, e1) != table.entry(e1, 1):
                ok = False
        for p in range(table.d1 + 1):
            if closed_zbar_m6(r, p) != st.zbar(p):
                ok = False
    _report(4, "closed forms match the generic pipeline for r in {2, 3}", ok,
            time.perf_counter() - t0, 120)


def test_criterion_5_finite_field_oracle():
    t0 = time.perf_counter()
    ok = True
    for r, n, p in FF_CONFIGS:
        mod = build_module(p, r, n)
        table = gr_table(r, n)
        d1, d2 = table.d1, table.d2
        for e1 in range(d1 + 1):
            for e2 in range(d2 + 1):
                target = count_gr(mod, e1, e2)
                if target != int(table.entry(e1, e2).evaluate(p)):
                    ok = False
                via_zp = sum(
                    int(q_binomial(pp, e1).evaluate(p))
                    * count_strata(mod, "zp", pp, d2 - e2)
                    for pp in range(d1 + 1)
                )
                via_z = sum(
                    int(q_binomial(pp, e2 - d2 + pp).evaluate(p))
                    * count_strata(mod, "z", pp, e1)
                    for pp in range(d2 + 1)
                )
                if via_zp != target or via_z != target:
                    ok = False
        for s in range(d2 + 1):
            for p0 in range(d1 + 1):
                tail = sum(count_strata(mod, "zp", pp, s) for pp in range(p0, d1 + 1))
                if count_strata(mod, "zpbar", p0, s) != tail:
                    ok = False
    _report(5, f"point counts vs polynomials and stratified sums on {len(FF_CONFIGS)} configs",
            ok, time.perf_counter() - t0, 300)


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    ok = True
    for name in ("qpascal", "alternating", "matrix", "torus",
                 "commutation", "positivity", "colors", "shadow"):
        checks = verify.run_suite(name)
        if not all(c.ok for c in checks):
            ok = False
            for c in checks:
                if not c.ok:
                    print(f"    FAIL {c.suite}: {c.label}")
    _report(6, "property suites (exhaustive or >= 200 randomized cases each)",
            ok, time.perf_counter() - t0, 180)


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("QKRON_SLOW") != "1", reason="set QKRON_SLOW=1 to enable"
)
def test_slow_desk_envelope():
    # largest documented desk-scale computations stay feasible
    t0 = time.perf_counter()
    x7 = xvar_recursive(3, 7)
    ok = x7.num_terms() == len(
        {k for k, _ in gr_table(3, 7).sorted_items()}
    )
    _report("slow", "desk envelope r=3, n=7", ok, time.perf_counter() - t0, 1800)


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("QKRON_SLOW") != "1", reason="set QKRON_SLOW=1 to enable"
)
@pytest.mark.parametrize("r, n", [(4, 6), (3, 7), (5, 6)])
def test_slow_bridge_beyond_the_family_budget(r, n):
    # the default family budget keeps these pairs out of the bridge suite
    t0 = time.perf_counter()
    ok = xvar_enum(r, n, budget=None) == xvar_recursive(r, n).scale2(1)
    _report("slow", f"bridge identity at (r={r}, n={n})", ok, time.perf_counter() - t0, 1800)
