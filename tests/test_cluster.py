import hashlib
import json
import os
import time

import pytest

from qkron import cluster
from qkron.cluster import (
    GrTable,
    assemble_xvar,
    dim_vector,
    gr_table,
    xvar_recursive,
)
from qkron.errors import BudgetExceeded, ExtractionFailed, InvalidParameter
from qkron.qlaurent import ONE, QLaurent, c_sequence, q
from qkron.strata import closed_gr_m6
from qkron.torus import TorusElement, left_divide
from qkron.verify import BRIDGE_PAIRS


def test_generators():
    assert xvar_recursive(2, 1) == TorusElement.monomial(1, 0)
    assert xvar_recursive(5, 2) == TorusElement.monomial(0, 1)


def test_first_steps_frozen():
    assert xvar_recursive(2, 3) == TorusElement(
        [((-1, 2), QLaurent.q_power(2)), ((-1, 0), ONE)]
    )
    assert xvar_recursive(2, 4) == TorusElement(
        [
            ((-2, 3), QLaurent.q_power(6)),
            ((-2, 1), QLaurent({4: 1, 0: 1})),
            ((-2, -1), QLaurent.q_power(-2)),
            ((0, -1), ONE),
        ]
    )


def test_recursion_relation_holds():
    for r in (2, 3, 4):
        for n in range(3, 7):
            lhs = xvar_recursive(r, n - 2) * xvar_recursive(r, n)
            rhs = (xvar_recursive(r, n - 1) ** r).scale2(r) + TorusElement.one()
            assert lhs == rhs


def test_commutation():
    for r in (2, 3):
        for n in range(1, 6):
            a = xvar_recursive(r, n)
            b = xvar_recursive(r, n + 1)
            assert a * b == (b * a).scale2(2)


def _spy_divisions(monkeypatch):
    calls = []

    def spy(d, n):
        calls.append(n)
        return left_divide(d, n)

    monkeypatch.setattr(cluster, "left_divide", spy)
    return calls


TRIO = [(7, 5), (6, 5), (3, 6)]


@pytest.mark.parametrize("r, n", [*TRIO, (2, 8), (4, 5)])
def test_step_equals_the_division_of_the_power_plus_one(r, n):
    # r = 2 and r = 4 split the power into two equal halves, r = 3, 6, 7 not
    x = xvar_recursive(r, n - 1).scale2(1)
    want = left_divide(xvar_recursive(r, n - 2), x**r + TorusElement.one())
    assert xvar_recursive(r, n) == want


def test_the_numerator_reaches_the_division_packed_and_undecoded(monkeypatch):
    import qkron.qlaurent as qlmod

    events, unpack = [], qlmod._unpack
    pack, times = cluster._pack_element, cluster._mul_large

    def product(a, b):
        events.append("product")
        out = times(a, b)
        events.append(type(out).__name__)
        return out

    monkeypatch.setattr(qlmod, "_unpack", lambda *a: events.append("decode") or unpack(*a))
    monkeypatch.setattr(cluster, "_pack_element", lambda t: events.append("pack") or pack(t))
    monkeypatch.setattr(cluster, "_mul_large", product)
    calls = _spy_divisions(monkeypatch)
    spy = cluster.left_divide
    monkeypatch.setattr(cluster, "left_divide", lambda d, n: events.append("divide") or spy(d, n))
    xvar_recursive.cache_clear()
    for r, n in TRIO:
        gr_table(r, n)
    # every step's numerator is a packed product, and reaches the division as it is
    assert len(calls) == 10 and all(isinstance(c, qlmod._Packed) for c in calls)
    divides = [i for i, e in enumerate(events) if e == "divide"]
    assert len(divides) == len(calls) == events.count("pack")
    for i in divides:
        # X_{n-1} is packed once, and from that pack to the division there
        # are only packed products: nothing is decoded
        start = max(j for j in range(i) if events[j] == "pack")
        chain = events[start + 1 : i]
        assert chain and chain == ["product", "_Packed"] * (len(chain) // 2)


def test_the_power_is_freed_before_the_division(monkeypatch):
    import sys

    names = []

    def spy(d, n):
        names.append(set(sys._getframe(1).f_locals))
        return left_divide(d, n)

    monkeypatch.setattr(cluster, "left_divide", spy)
    xvar_recursive.cache_clear()
    for r, n in [*TRIO, (2, 8)]:
        gr_table(r, n)
    assert names and all("numerator" in seen and not seen & {"x", "y", "z"} for seen in names)


def test_dict_loop_products_reach_the_division_packed(monkeypatch):
    import qkron.qlaurent as qlmod

    # with every decoded product on the dict loop, the step is untouched:
    # its power is the packed chain's from X_{n-1} to the division, which
    # no limit on small work reaches, and X_n is unchanged
    pairs = TRIO[1:]
    xvar_recursive.cache_clear()
    want = [xvar_recursive(r, n) for r, n in pairs]
    monkeypatch.setattr(qlmod, "_SCHOOLBOOK_LIMIT", 10**9)
    calls = _spy_divisions(monkeypatch)
    xvar_recursive.cache_clear()
    try:
        assert [xvar_recursive(r, n) for r, n in pairs] == want
    finally:
        xvar_recursive.cache_clear()
    assert calls and all(isinstance(n, qlmod._Packed) for n in calls)


def _extracted(r, n):
    """The table read off the whole X_n term by term, with the checks of
    gr_table's fallback."""
    d1, d2 = dim_vector(r, n)
    entries = {}
    for (a, b), coeff in xvar_recursive(r, n).items():
        assert (a + d1) % r == 0 and (b + d2) % r == 0
        e2, e1 = d2 - (a + d1) // r, (b + d2) // r
        assert 0 <= e1 <= d1 and 0 <= e2 <= d2
        prefactor2 = r * (e1 * e1 + (d2 - e2) ** 2) - d1 * d2
        terms = {}
        for k2, c in coeff.items2():
            k2 -= prefactor2
            assert k2 % 2 == 0 and k2 >= 0 and (k2 // 2) % r == 0
            terms[k2 // r] = c
        entries[(e1, e2)] = QLaurent(terms)
    return GrTable(r, n, d1, d2, entries)


def _spy_fallbacks(monkeypatch):
    """Record the (e1, e2) of every entry the table target checks term by term."""
    seen, compress = [], cluster._compress

    def spy(coeff, prefactor2, r, e1, e2):
        seen.append((e1, e2))
        return compress(coeff, prefactor2, r, e1, e2)

    monkeypatch.setattr(cluster, "_compress", spy)
    return seen


@pytest.mark.parametrize("r, n", sorted({*BRIDGE_PAIRS, *TRIO, (2, 8)}))
def test_gr_table_equals_the_extraction_of_x_n(monkeypatch, r, n):
    fallbacks = _spy_fallbacks(monkeypatch)
    assert gr_table(r, n).to_obj() == _extracted(r, n).to_obj()
    assert fallbacks == []  # every stride proves its lattice


def _digest(table):
    return hashlib.sha256(json.dumps(table.to_obj(), sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("QKRON_SLOW") != "1", reason="set QKRON_SLOW=1 to enable")
@pytest.mark.parametrize("r, n, want", [(4, 6, "c04a63c08fd9bb91"), (3, 7, "10c1f6be5554db44")])
def test_gr_table_digests_past_the_trio(r, n, want):
    assert _digest(gr_table(r, n)) == want


def test_a_stride_that_proves_nothing_falls_back_to_the_term_checks(monkeypatch):
    import qkron.qlaurent as qlmod

    # the products repacked at stride 1 make the last run's stride 1 too;
    # the next product in the chain packs its finer-stride operands again
    times = cluster._mul_large

    def fine(a, b):
        prod = times(a, b)
        terms = qlmod._pack_terms(qlmod._decode_terms(prod), prod.width, 1)
        return prod._replace(terms=terms, g=1)

    want = _extracted(3, 6).to_obj()
    monkeypatch.setattr(cluster, "_mul_large", fine)
    fallbacks = _spy_fallbacks(monkeypatch)
    table = gr_table(3, 6)
    assert table.to_obj() == want
    # every entry of more than one digit is checked term by term
    wide = {e for e, p in table.entries.items() if p.num_terms() > 1}
    assert wide and wide <= set(fallbacks)


@pytest.mark.parametrize("r", [2, 3, 7])
def test_one_digit_entries_take_the_lattice_at_any_stride(monkeypatch, r):
    import qkron.torus as tmod

    # X_3 = q^(r/2) X1^-1 X2^r + X1^-1: one-term entries on a run of stride 1
    strides, run = [], tmod._divide_packed

    def spy(d, n, box, bound, g):
        strides.append(g)
        return run(d, n, box, bound, g)

    monkeypatch.setattr(tmod, "_divide_packed", spy)
    fallbacks = _spy_fallbacks(monkeypatch)
    assert gr_table(r, 3).entries == {(0, 0): ONE, (1, 0): ONE}
    assert strides == [1] and fallbacks == []


def test_gr_table_holds_no_copy_of_x_n(monkeypatch):
    import tracemalloc

    # warm: X_4 is cached, and the last step's peak is its numerator and
    # the table; a copy of X_5 beside the table (6.9 MB) exceeds the bound
    xvar_recursive(7, 4)
    tracemalloc.start()
    try:
        gr_table(7, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_500_000, peak


# the instances whose tables the slope and constant-term tests read
SLOPE_PAIRS = sorted({*BRIDGE_PAIRS, *TRIO, (2, 8), (4, 5)})


@pytest.mark.parametrize("r, n", SLOPE_PAIRS)
def test_subrepresentations_satisfy_the_slope_inequality(r, n):
    # e1 d2 <= e2 d1 for every nonzero P_e: the slope stability of M_n
    # that the module docstring's no-constant-term argument rests on
    table = gr_table(r, n)
    assert table.entries
    for e1, e2 in table.entries:
        assert e1 * table.d2 <= e2 * table.d1, (e1, e2)


@pytest.mark.parametrize("r", sorted({r for r, _ in SLOPE_PAIRS}))
def test_the_power_in_each_step_has_no_constant_term(r):
    top = max(n for r_, n in SLOPE_PAIRS if r_ == r)
    for n in range(3, top + 1):
        power = xvar_recursive(r, n - 1) ** r
        assert power and (0, 0) not in power._t, (r, n)


def test_a_constant_term_in_the_power_is_refused_and_not_cached(monkeypatch):
    import qkron.qlaurent as qlmod

    r, n = 3, 5
    want = xvar_recursive(r, n)
    power = cluster._power

    def with_one(*args):
        # the whole numerator, 1 included: a step that overwrote the (0, 0)
        # entry would still divide to X_n, so only the guard refuses it
        prod = power(*args)
        assert isinstance(prod, qlmod._Packed) and (0, 0) not in prod.terms
        prod.terms[(0, 0)] = [1, 0, 0]
        return prod

    xvar_recursive.cache_clear()
    xvar_recursive(r, n - 1)
    with monkeypatch.context() as m:
        m.setattr(cluster, "_power", with_one)
        calls = _spy_divisions(m)
        with pytest.raises(AssertionError, match="constant term"):
            xvar_recursive(r, n)
        assert calls == []
    calls = _spy_divisions(monkeypatch)
    assert xvar_recursive(r, n) == want and len(calls) == 1


def test_invalid_parameters(monkeypatch):
    with pytest.raises(InvalidParameter):
        xvar_recursive(1, 4)
    with pytest.raises(InvalidParameter):
        xvar_recursive(2, 0)
    xvar_recursive.cache_clear()
    monkeypatch.setattr(cluster, "MAX_TERMS", 10)
    with pytest.raises(BudgetExceeded):
        xvar_recursive(3, 6)
    # X_5 (19 terms) was refused and not cached: asking again divides again
    calls = _spy_divisions(monkeypatch)
    with pytest.raises(BudgetExceeded):
        xvar_recursive(3, 5)
    assert len(calls) == 1


def test_chain_extends_the_cache(monkeypatch):
    xvar_recursive.cache_clear()
    x5 = xvar_recursive(3, 5)
    calls = _spy_divisions(monkeypatch)
    # either cap below X_6 (100 terms, 14-bit coefficients) refuses the one step
    for name, cap in (("MAX_TERMS", x5.num_terms()), ("MAX_COEFF_BITS", 4)):
        with monkeypatch.context() as m:
            m.setattr(cluster, name, cap)
            with pytest.raises(BudgetExceeded):
                xvar_recursive(3, 6)
    assert len(calls) == 2
    x6 = xvar_recursive(3, 6)
    assert x6.num_terms() == 100 and len(calls) == 3
    assert xvar_recursive(3, 6) is x6 and len(calls) == 3


def test_chain_deeper_than_the_recursion_limit_is_refused():
    refs = {r: xvar_recursive(r, 5) for r in (2, 3)}
    # the cold descent to X_1 hits Python's limit before any division runs
    with pytest.raises(BudgetExceeded):
        xvar_recursive(2, 3000)
    for r, x5 in refs.items():
        assert xvar_recursive(r, 5) is x5


def test_deep_chain_is_refused_before_the_dimension_sequence():
    # c_n at n = 10**5 takes O(n) big-integer steps; the checks are O(1), so
    # both calls refuse at the recursion limit in a few milliseconds
    for fn in (xvar_recursive, gr_table):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            fn(10, 10**5)
        assert time.perf_counter() - start < 0.5, fn.__name__


def _check_euler_form(r, d, e, poly):
    """P_e != 0 exactly when <e, d - e> >= 0 (checked here, not cited), and
    then P_e is palindromic of degree <e, d - e> with every coefficient up
    to it positive."""
    (d1, d2), (e1, e2) = d, e
    k = e1 * (d1 - e1) + e2 * (d2 - e2) - r * e1 * (d2 - e2)
    if k < 0:
        assert not poly, (r, d, e)
        return
    coeffs = [poly.coeff2(2 * i) for i in range(k + 1)]
    assert poly.num_terms() == k + 1 and min(coeffs) > 0 and coeffs == coeffs[::-1], (r, d, e)


@pytest.mark.parametrize("r, n", [(2, 6), (2, 9), (3, 5), (3, 6), (4, 5), (5, 5), (6, 5)])
def test_gr_table_follows_the_euler_form(r, n):
    table = gr_table(r, n)
    for e1 in range(table.d1 + 1):
        for e2 in range(table.d2 + 1):
            _check_euler_form(r, (table.d1, table.d2), (e1, e2), table.entry(e1, e2))


def test_closed_column_follows_the_euler_form():
    # at e = (e1, 1) on M_6 the degree is r^2 - 2 - e1^2: negative past e1 = r - 1
    for r in range(2, 21):
        for e1 in range(r + 2):
            _check_euler_form(r, dim_vector(r, 6), (e1, 1), closed_gr_m6(r, e1))


def test_dim_vector():
    assert dim_vector(2, 4) == (2, 1)
    assert dim_vector(10, 6) == (980, 99)
    with pytest.raises(InvalidParameter):
        dim_vector(2, 2)


def test_gr_table_examples():
    t = gr_table(2, 4)
    assert (t.d1, t.d2) == (2, 1)
    assert t.entries == {
        (0, 0): ONE,
        (0, 1): ONE,
        (1, 1): 1 + q,
        (2, 1): ONE,
    }
    t3 = gr_table(2, 3)
    assert t3.entries == {(0, 0): ONE, (1, 0): ONE}
    assert gr_table(2, 6).entry(0, 1) == 1 + q + q**2


def test_gr_table_corners_and_support():
    for r, n in [(2, 5), (2, 6), (3, 4), (3, 5), (4, 5)]:
        t = gr_table(r, n)
        assert t.entry(0, 0) == ONE
        assert t.entry(t.d1, t.d2) == ONE
        seen = set()
        for (e1, e2), poly in t.entries.items():
            assert 0 <= e1 <= t.d1 and 0 <= e2 <= t.d2
            assert not poly.has_negative_coeff()
            key = (-t.d1 + r * (t.d2 - e2), r * e1 - t.d2)
            assert key not in seen
            seen.add(key)
            # dimension bound of the ambient product of Grassmannians
            if poly:
                assert poly.max2() // 2 <= e1 * (t.d1 - e1) + e2 * (t.d2 - e2)


def test_assemble_roundtrip():
    for r, n in [(2, 3), (2, 4), (2, 6), (3, 5)]:
        t = gr_table(r, n)
        assert assemble_xvar(t) == xvar_recursive(r, n)
        again = gr_table(r, n)
        assert again.entries == t.entries


def test_table_json_shape():
    obj = gr_table(2, 4).to_obj()
    assert obj["d1"] == 2 and obj["d2"] == 1
    assert [tuple((e["e1"], e["e2"])) for e in obj["entries"]] == [
        (0, 0),
        (0, 1),
        (1, 1),
        (2, 1),
    ]


# At (2, 4), d = (2, 1): X1^a X2^b has e2 = 1 - (a + 2) / 2 and e1 = (b + 1) / 2,
# and the entry (0, 1) sits at X1^-2 X2^-1 with prefactor q^-1.
@pytest.mark.parametrize("terms, match", [
    ({(1, 1): ONE}, "non-integral indices"),
    ({(-4, -1): ONE}, "outside the box"),
    ({(-2, -1): ONE}, "not a polynomial in q\\^2"),
    ({(-2, -1): QLaurent.q_power(-2, -1)}, "negative coefficient"),
    ({(-2, -1): QLaurent.q_power(-2)}, "corner entries"),
])
def test_gr_table_refuses_what_it_cannot_extract(monkeypatch, terms, match):
    from qkron.qlaurent import _digit_width, _max_coeff, _pack_terms
    from qkron.torus import _terms

    # the last step divides the terms, packed at stride 1, by 1 with the
    # table's decode target; the steps before it run as they are
    t = _terms(TorusElement(terms)._t)
    bound = _max_coeff(t)
    width = _digit_width(bound)

    def inject(d, n):
        if n.target is not None:
            d = TorusElement.one()
            n = n._replace(terms=_pack_terms(t, width, 1), width=width, g=1, bound=bound)
        return left_divide(d, n)

    monkeypatch.setattr(cluster, "left_divide", inject)
    with pytest.raises(ExtractionFailed, match=match):
        gr_table(2, 4)
