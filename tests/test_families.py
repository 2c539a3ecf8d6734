import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qkron import families
from qkron.cluster import gr_table, xvar_recursive
from qkron.dyck import build_dyck
from qkron.errors import (
    BudgetExceeded,
    ExhaustivenessViolation,
    IndexOutOfRange,
    InvalidParameter,
)
from qkron.families import (
    Family,
    SingleEdge,
    Subpath,
    count_families,
    edge_weight,
    enumerate_families,
    family_degrees,
    family_term,
    path_elements,
    xvar_enum,
)
from qkron.qlaurent import QLaurent, _OffStride, c_sequence
from qkron.torus import TorusElement


def _families(r, n):
    return list(enumerate_families(build_dyck(r, n)))


def test_counts_small():
    assert count_families(2, 4) == 5
    assert count_families(3, 4) == 9
    assert count_families(2, 5) == 13


def test_enumeration_matches_dp_counts():
    for r, n in [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (4, 5), (5, 4)]:
        fams = _families(r, n)
        assert len(fams) == count_families(r, n)
        assert len(set(fams)) == len(fams)  # duplicate-free stream


def test_family_set_for_2_4():
    path = build_dyck(2, 4)
    fams = _families(2, 4)
    supports = sorted(tuple(sorted(f.support)) for f in fams)
    assert supports == [(), (1,), (1, 2), (1, 2), (2,)]
    blue = [f for f in fams if any(isinstance(e, Subpath) for e in f.elements)]
    assert len(blue) == 1 and blue[0].support == frozenset({1, 2})


def test_n4_family_count_is_2_pow_r_plus_1():
    for r in range(2, 6):
        assert count_families(r, 4) == 2**r + 1


def test_edge_weight_examples():
    path = build_dyck(2, 4)
    fams = {tuple(sorted(f.support)): f for f in _families(2, 4)}
    blue_fam = [
        f for f in _families(2, 4) if any(isinstance(e, Subpath) for e in f.elements)
    ][0]
    assert edge_weight(path, blue_fam, 1) == (0, 0)
    assert edge_weight(path, blue_fam, 2) == (0, -1)
    empty = fams[()]
    assert edge_weight(path, empty, 1) == (-1, 2)
    assert edge_weight(path, empty, 2) == (-1, 1)
    with pytest.raises(IndexOutOfRange):
        edge_weight(path, empty, 3)


def test_single_edge_weights():
    path = build_dyck(2, 4)
    both = [
        f
        for f in _families(2, 4)
        if f.support == frozenset({1, 2})
        and all(isinstance(e, SingleEdge) for e in f.elements)
    ][0]
    assert edge_weight(path, both, 1) == (-1, 0)
    assert edge_weight(path, both, 2) == (-1, -1)


def test_family_degrees():
    path = build_dyck(2, 4)
    for fam in _families(2, 4):
        d1, d2 = family_degrees(fam)
        if not fam.elements:
            assert (d1, d2) == (0, 0)
        elif any(isinstance(e, Subpath) for e in fam.elements):
            assert (d1, d2) == (1, 2)
    two_edges = [f for f in _families(2, 4) if len(f.elements) == 2]
    assert family_degrees(two_edges[0]) == (0, 2)


def test_enum_xvar_frozen_2_4():
    expected = TorusElement(
        [
            ((-2, 3), QLaurent.q_power(7)),
            ((-2, 1), QLaurent({5: 1, 1: 1})),
            ((-2, -1), QLaurent.q_power(-1)),
            ((0, -1), QLaurent.q_power(1)),
        ]
    )
    assert xvar_enum(2, 4) == expected


def test_enum_equals_literal_sum():
    for r, n in [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4)]:
        path = build_dyck(r, n)
        total = TorusElement.zero()
        for fam in enumerate_families(path):
            total = total + family_term(path, fam)
        assert total == xvar_enum(r, n)


def test_family_count_equals_commutative_value():
    # setting q = 1, X1 = X2 = 1 in the expansion counts the families
    for r, n in [(2, 4), (2, 5), (3, 4), (3, 5)]:
        val = sum(c.evaluate(1) for _, c in xvar_enum(r, n).items())
        assert val == count_families(r, n)


def test_bridge_small():
    for r, n in [(2, 4), (2, 5), (3, 4)]:
        assert xvar_enum(r, n) == xvar_recursive(r, n).scale2(1)


def test_budget():
    with pytest.raises(BudgetExceeded):
        xvar_enum(2, 6, budget=3)
    with pytest.raises(InvalidParameter):
        xvar_enum(2, 6, budget=-1)


@pytest.mark.parametrize("budget", [True, False, 2.5, 1e9, "10"])
def test_budget_that_is_not_an_integer_is_refused(budget):
    # True was read as the budget 1, 2.5 as a number and "10" failed with a
    # bare TypeError on the comparison
    with pytest.raises(InvalidParameter, match="integer"):
        xvar_enum(3, 5, budget=budget)
    with pytest.raises(InvalidParameter, match="integer"):
        families.check_budget(0, budget)


def test_budget_is_checked_outside_the_cache():
    # one cached element per (r, n), whatever the budget; a cached element
    # is still refused when the family count exceeds the budget
    assert xvar_enum(2, 6) is xvar_enum(2, 6, budget=None)
    with pytest.raises(BudgetExceeded):
        xvar_enum(2, 6, budget=3)


def test_push_refuses_a_gap_off_the_stride():
    # the expansion proves its stride 2r, so a gap off it fails as an
    # assertion; on the stride the entries are shifted by whole digits
    total = {(0, 1): (1, 0)}
    families._push(total, (0, 0, 4), {(0, 1): (2, 0)}, 2, 8)
    assert total == {(0, 1): (1 + (2 << 16), 0)}
    families._push(total, (0, 0, -2), {(0, 1): (3, 0)}, 2, 8)
    assert total == {(0, 1): (3 + (1 << 8) + (2 << 24), -2)}
    with pytest.raises(_OffStride) as off:
        families._push(total, (0, 0, 3), {(0, 1): (1, 0)}, 2, 8)
    assert isinstance(off.value, AssertionError) and off.value.args == (5,)


def test_a_cold_xvar_enum_lists_the_states_once(monkeypatch):
    # the budget check and the value pass share one listing of the states,
    # and an uncached value pass after them reuses it; _dp_tables is read by
    # the listing only
    tables, listed = families._dp_tables, []
    monkeypatch.setattr(families, "_dp_tables", lambda path: listed.append(path) or tables(path))
    for fn in (families._list_states, families._expand):
        fn.cache_clear()
    assert xvar_enum(3, 6) == families._expand.__wrapped__(3, 6)
    assert listed == [build_dyck(3, 6)]


@pytest.mark.parametrize("r, n, g", [(2, 6, 5), (3, 5, 9)])
def test_off_stride_sum_reruns_the_scan(monkeypatch, r, n, g):
    # rerun every push of the scan on a copy of its total at a stride g that
    # the scan sums do not respect: _push refuses some of them, while the one
    # pass at the proven stride 2r refuses none and gives the literal family sum
    raised = []
    push = families._push

    def spy(total, blk, value, stride, bits):
        assert stride == 2 * r
        try:
            push(dict(total), blk, value, g, bits)
        except _OffStride as off:
            raised.append(off)
        return push(total, blk, value, stride, bits)

    monkeypatch.setattr(families, "_push", spy)
    got = families._expand.__wrapped__(r, n)  # uncached
    assert raised
    total = TorusElement.zero()
    path = build_dyck(r, n)
    for fam in enumerate_families(path):
        total = total + family_term(path, fam)
    assert got == total


_SLOW = [pytest.mark.slow, pytest.mark.skipif(
    os.environ.get("QKRON_SLOW") != "1", reason="set QKRON_SLOW=1 to enable")]


@pytest.mark.parametrize("r, n, digits", [(33, 5, 328), (11, 6, 395)])
def test_scan_past_a_thousand_edges_counts(r, n, digits):
    # 1,088 and 1,309 edges: more than Python's recursion limit, which the
    # self-recursive scan this replaced converted into BudgetExceeded
    assert build_dyck(r, n).n_edges > 1000
    assert len(str(count_families(r, n))) == digits


@pytest.mark.parametrize("r, n", [pytest.param(6, 7, marks=_SLOW)])
def test_scan_state_cap_refuses_before_any_value(monkeypatch, r, n):
    # the forward pass of (6, 7) passes MAX_SCAN_STATES states about a sixth
    # of the way along its 1,189 edges, before any value is pushed
    pushed = []
    monkeypatch.setattr(families, "_push", lambda *args: pushed.append(args))
    with pytest.raises(BudgetExceeded, match="states"):
        families._expand.__wrapped__(r, n)  # uncached
    assert pushed == []
    with pytest.raises(BudgetExceeded):
        count_families(r, n)


def _bench_worker():
    path = Path(__file__).parents[1] / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


@pytest.mark.parametrize("r, n", [(2, 6), (3, 5), (4, 6), (3, 7)])
def test_xvar_enum_matches_bench_digests(r, n):
    # the expansion benchmark checks these digests of xvar_enum(r, n)
    refs = json.loads((Path(__file__).parents[1] / "bench" / "references.json").read_text())
    got = _bench_worker().digest_torus(xvar_enum(r, n, budget=None))
    assert got == refs[f"xvar_enum {r} {n}"]


def _cold_traced_peak(r, n):
    """Traced peak bytes of xvar_enum(r, n) with the scan's caches cleared."""
    families._expand.cache_clear()
    families._list_states.cache_clear()
    families._dp_tables.cache_clear()
    tracemalloc.start()
    try:
        xvar_enum(r, n, budget=None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memo_stays_small():
    # the packed memo holds one integer per torus key; the dict-of-dicts
    # memo it replaced peaked at 13.8 MB at (6, 5)
    xvar_enum(6, 5, budget=None)  # warm the path and table caches
    families._expand.cache_clear()
    families._list_states.cache_clear()  # the listing is measured too
    tracemalloc.start()
    try:
        got = xvar_enum(6, 5, budget=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.8e6 / 2
    # its coefficients reach 26 bits, so a digit width narrower than the one
    # proven by the family count (3.8e10) carries between digits here
    assert got == xvar_recursive(6, 5).scale2(1)
    # a cold (3, 7): a scan that kept every state until the root peaked at
    # 53.0 MB here
    assert _cold_traced_peak(3, 7) < 27e6


def test_decoded_elements_share_their_exponent_keys():
    # every decoded element keys its coefficients from one pool: equal
    # exponents are one int object, not a new one per coefficient
    x = xvar_recursive(3, 5)
    for polys in (xvar_enum(3, 6, budget=None)._t.values(), xvar_recursive(3, 6)._t.values(),
                  gr_table(7, 5).entries.values(), (x * x)._t.values()):
        keys = [k for p in polys for k in p._t]
        assert len(set(keys)) < len([k for k in keys if k > 256])  # exponents repeat
        assert len({id(k) for k in keys}) == len(set(keys))


def test_cold_scan_peak_with_shared_keys():
    # 182,337 coefficients on 3,025 exponents: with a new int key for each
    # coefficient the cold (3, 7) peaked at 18.6 MB here
    assert _cold_traced_peak(3, 7) < 16e6


def _child_vmhwm_kb(code):
    """The peak RSS (VmHWM, kB) of a fresh interpreter that runs code.  The
    child's ru_maxrss would include the peak of this process, which it
    inherits across fork and exec, so the child reads its own VmHWM."""
    code += ("; print(next(line.split()[1] for line in open('/proc/self/status') "
             "if line.startswith('VmHWM:')))")
    env = {**os.environ, "PYTHONPATH": str(Path(families.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=600)
    return int(out.stdout)


@pytest.mark.parametrize("r, n", [pytest.param(5, 6, marks=_SLOW)])
def test_scan_peak_rss(r, n):
    # a scan that kept every state until the root peaked at 1.27 GB at (5, 6),
    # the suffix-order scan at 357 MB and this prefix-order one at 234 MB.
    # The child's ru_maxrss would include the peak of this process, which it
    # inherits across fork and exec, so the child reads its own VmHWM.
    code = (
        "from qkron.families import xvar_enum; "
        f"xvar_enum({r}, {n}, budget=None); "
        "print(next(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('VmHWM:')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(families.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=600)
    assert int(out.stdout) <= 292 * 1024  # kilobytes


@pytest.mark.parametrize("r, n", [pytest.param(5, 6, marks=_SLOW)])
def test_scan_peak_rss_with_shared_keys(r, n):
    # 1,718,976 coefficients: a new int key for each of them took the
    # peak to 233 MB
    code = f"from qkron.families import xvar_enum; xvar_enum({r}, {n}, budget=None)"
    assert _child_vmhwm_kb(code) <= 200 * 1024


@pytest.mark.parametrize("r, n", [pytest.param(4, 6, marks=_SLOW)])
def test_recursion_peak_rss_with_shared_keys(r, n):
    # route 1's X_6 at r = 4: 30.5 MB with a new int key per coefficient
    code = f"from qkron.cluster import xvar_recursive; xvar_recursive({r}, {n})"
    assert _child_vmhwm_kb(code) <= 29 * 1024


def _walked_blk(path, lo, is_red, hi):
    A = B = S = T = 0
    for t in range(lo, hi + 1):
        a, b = families._in_subpath_weight(path, lo, is_red, t)
        T += B * a
        A += a
        B += b
        S += a - b
    return (A, B, S - 2 * T)


@pytest.mark.parametrize("r, n", [(3, 6), (4, 6), (5, 6)])
def test_block_sums_match_a_per_edge_walk(r, n):
    path = build_dyck(r, n)
    tb = families._DpTables(path)
    subpaths = [el for els in tb.by_lo.values() for el in els if el.subpath]
    assert len(subpaths) == path.height * (path.height + 1) // 2
    for el in subpaths:
        assert el.blk == _walked_blk(path, el.lo, not el.bluegreen, el.hi), el


def test_first_gap_in_the_weight_table_is_reported(monkeypatch):
    # the shared walks must raise on the same subpath and edge as one walk
    # per subpath in element order: the first subpath covering a bad edge,
    # at its first bad edge
    path = build_dyck(4, 6)
    real = families._in_subpath_weight
    subs = [el for el in path_elements(path) if isinstance(el, Subpath)]
    late = next(el for el in reversed(subs) if el.color.kind == "red")
    early = next(el for el in subs if el.color.kind != "red" and el.hi > late.lo + 1)
    # the earlier element's bad edge lies further along than the later one's
    bad = {(early.lo, False, early.hi), (late.lo, True, late.lo + 1)}

    def gappy(path, lo, is_red, t):
        if (lo, is_red, t) in bad:
            raise ExhaustivenessViolation(f"{lo} {is_red} {t}")
        return real(path, lo, is_red, t)

    first = next(  # one walk per subpath, in element order
        f"{el.lo} {red} {t}"
        for el in path_elements(path) if isinstance(el, Subpath)
        for red in [el.color.kind == "red"]
        for t in range(el.lo, el.hi + 1) if (el.lo, red, t) in bad
    )
    monkeypatch.setattr(families, "_in_subpath_weight", gappy)
    with pytest.raises(ExhaustivenessViolation) as exc:
        families._DpTables(path)
    assert str(exc.value) == first


@pytest.mark.parametrize("r, n", [(3, 6), (4, 6), (5, 6)])
def test_relevant_masks_match_the_windows(r, n):
    # bit pos-1-e is relevant at pos when edge e < pos lies in the mask's
    # reach and in the window of a green subpath starting at pos or later
    path = build_dyck(r, n)
    windows = [
        (el.lo, families._green_window(path, el))
        for el in path_elements(path)
        if isinstance(el, Subpath) and el.color.kind == "green"
    ]
    width = max(whi - wlo + 1 for _, (wlo, whi) in windows)
    tb = families._DpTables(path)
    for pos in range(1, path.n_edges + 2):
        bits = 0
        for g_lo, (wlo, whi) in windows:
            if g_lo >= pos:
                for e in range(max(wlo, pos - width), min(whi, pos - 1) + 1):
                    bits |= 1 << (pos - 1 - e)
        assert tb.relevant[pos] == bits, pos


def test_green_needs_companion():
    # every green subpath in a family has a covered admissibility window
    path = build_dyck(3, 5)
    greens_alone = [
        f
        for f in _families(3, 5)
        if len(f.elements) == 1
        and any(
            isinstance(e, Subpath) and e.color.kind == "green" for e in f.elements
        )
    ]
    assert greens_alone == []


def test_element_pool_order():
    els = path_elements(build_dyck(2, 5))
    subs = [e for e in els if isinstance(e, Subpath)]
    singles = [e for e in els if isinstance(e, SingleEdge)]
    assert els[: len(subs)] == tuple(subs)
    assert [e.index for e in singles] == list(range(1, 4))
    assert [(s.i, s.k) for s in subs] == sorted((s.i, s.k) for s in subs)


def test_family_json_record():
    fams = _families(2, 4)
    blue = [f for f in fams if any(isinstance(e, Subpath) for e in f.elements)][0]
    assert blue.to_obj() == {
        "edges": [],
        "subpaths": [{"i": 0, "k": 1, "color": "blue"}],
    }
