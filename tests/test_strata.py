import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkron import strata, verify
from qkron.cluster import gr_table
from qkron.errors import InvalidParameter
from qkron.fforacle import build_module, count_strata
from qkron.qlaurent import ONE, QLaurent, mat_mul, q, q_binomial
from qkron.strata import (
    StrataTable,
    _closed_weight,
    _open_weight,
    _strata,
    closed_gr_m6,
    closed_strata_m6,
    closed_zbar_m6,
    euler_char,
    gr_from_strata,
    image_strata_from_gr,
    q_binomial_matrix,
    strata_from_gr,
    transform_matrix,
)


def _matmul(a, b):
    """Schoolbook product of an m x n and an n x p matrix, the independent
    oracle for ``mat_mul``."""
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(len(b))), QLaurent.zero())
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


@st.composite
def _matrix_pairs(draw):
    """(a, b), an m x n and an n x p matrix.  Each entry is q^(lo/2) P(q^(s/2))
    with one s per matrix and a low of its own, so entry lows fall on
    different residues mod s and odd lows give half-integer exponents;
    entries may be zero, coefficients negative and, in some draws, wider than
    8 bytes a packed digit.  Up to 12 terms an entry send some draws to the
    packed loop."""
    m, n, p = (draw(st.integers(1, 4)) for _ in range(3))
    big = draw(st.sampled_from((9, 2**70)))

    def matrix(rows, cols):
        s = draw(st.integers(1, 4))
        entry = st.builds(
            lambda lo, cs: QLaurent({lo + s * i: c for i, c in enumerate(cs)}),
            st.integers(-7, 7),
            st.lists(st.integers(-big, big), max_size=12),
        )
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    return matrix(m, n), matrix(n, p)


@given(_matrix_pairs())
def test_mat_mul_matches_schoolbook(pair):
    a, b = pair
    assert mat_mul(a, b) == _matmul(a, b)


def test_mat_mul_packs_wide_digits(monkeypatch):
    import qkron.qlaurent as qlmod

    widths = []
    decode = qlmod._decode
    monkeypatch.setattr(qlmod, "_decode", lambda e, w, g, *a: widths.append(w) or decode(e, w, g, *a))
    # four terms an entry, so the 8 pairs are enough work to pack
    wide = QLaurent({0: 2**70, 2: -(2**69), 4: 3, 6: 1})
    a = [[wide, q_binomial(3, 1)], [wide.shift2(1), q * q_binomial(3, 1)]]
    b = [[q_binomial(4, 2).shift2(-1), QLaurent({-1: 5, 3: -(2**70), 5: 1, 9: 2})], [ONE + wide, wide]]
    assert mat_mul(a, b) == _matmul(a, b)
    assert widths and min(widths) > 8  # the byte-wise codec, not the lanes


def test_mat_mul_packs_entries_that_no_pair_uses():
    # a's largest entry sits in column 1, and row 1 of b is empty: no pair
    # uses it, but it is packed beside the others at the products' width
    dense = q_binomial(12, 6)
    a = [[dense, dense.scale(2**70)], [dense.shift2(1), ONE]]
    b = [[dense, dense.shift2(-2)], [QLaurent.zero(), QLaurent.zero()]]
    assert mat_mul(a, b) == _matmul(a, b)


def test_mat_mul_shapes():
    with pytest.raises(InvalidParameter):
        mat_mul([[ONE, ONE]], [[ONE]])
    with pytest.raises(InvalidParameter):
        mat_mul([[ONE]], [[ONE], [ONE, q]])
    assert mat_mul([[ONE], [q]], [[QLaurent.zero(), QLaurent.zero()]]) == [
        [QLaurent.zero()] * 2
    ] * 2


def test_mat_mul_packs_only_enough_work(monkeypatch):
    import qkron.qlaurent as qlmod

    adds = []
    add = qlmod._add_aligned
    monkeypatch.setattr(qlmod, "_add_aligned", lambda acc, *rest: adds.append(1) or add(acc, *rest))
    assert [ok for _, ok, *_ in verify.suite_matrix()] == [True]
    # the packed loop: one aligned add per nonzero pair, i <= k <= j < 30
    assert len(adds) == 4960
    adds.clear()
    a = [[ONE, q], [ONE + q, QLaurent.zero()]]
    assert mat_mul(a, a) == _matmul(a, a)
    assert adds == []  # one- and two-term entries take the dict loop


def test_suite_matrix_sees_a_perturbed_entry(monkeypatch):
    assert [ok for _, ok, *_ in verify.suite_matrix()] == [True]
    transform = strata.transform_matrix

    def perturbed(size):
        m = transform(size)
        m[3][17] = m[3][17] + q**5
        return m

    monkeypatch.setattr(strata, "transform_matrix", perturbed)
    assert [ok for _, ok, *_ in verify.suite_matrix()] == [False]


def test_suite_alternating_reads_the_strata_weights(monkeypatch):
    assert [check.ok for check in verify.run_suite("alternating")] == [True, True]
    closed = strata._closed_weight

    def flipped(e1, p):
        w = closed(e1, p)
        return -w if e1 > p else w

    monkeypatch.setattr(strata, "_closed_weight", flipped)
    assert [check.ok for check in verify.run_suite("alternating")] == [False, True]


def test_transform_is_inverse_small():
    for size in (1, 2, 5, 8):
        prod = _matmul(transform_matrix(size), q_binomial_matrix(size))
        for i in range(size):
            for j in range(size):
                assert prod[i][j] == (ONE if i == j else QLaurent.zero())


def test_strata_from_gr_m4():
    table = gr_table(2, 4)
    st = strata_from_gr(table, 1)
    assert st.zp(2) == ONE
    assert st.zp(1) == QLaurent.zero()
    assert st.zp(0) == QLaurent.zero()
    assert st.zbar(0) == ONE
    assert st.zbar(2) == ONE


def test_zbar0_is_full_grassmannian():
    for r, n, e2 in [(2, 4, 1), (2, 5, 1), (2, 5, 2), (3, 5, 2), (2, 6, 1)]:
        table = gr_table(r, n)
        st = strata_from_gr(table, e2)
        assert st.zbar(0) == q_binomial(table.d2, e2)


def test_zbar_vanishes_high_p_on_m6_r2():
    st = strata_from_gr(gr_table(2, 6), 1)
    assert st.zbar(2) == QLaurent.zero()


def test_gr_from_strata_roundtrip():
    for r, n in [(2, 4), (2, 5), (2, 6), (3, 5)]:
        table = gr_table(r, n)
        for e2 in range(table.d2 + 1):
            st = strata_from_gr(table, e2)
            for e1 in range(table.d1 + 1):
                assert gr_from_strata(st, e1) == table.entry(e1, e2)
            # total over the stratification is the plain Grassmannian
            assert gr_from_strata(st, 0) == q_binomial(table.d2, e2)
    assert gr_from_strata(StrataTable(0, 2, 2, {0: QLaurent.zero()}), 1) == QLaurent.zero()


def test_zbar_tail_sums():
    table = gr_table(2, 6)
    st = strata_from_gr(table, 1)
    for p in range(table.d1):
        assert st.zbar(p) - st.zbar(p + 1) == st.zp(p)


def test_strata_invalid_e2():
    table = gr_table(2, 4)
    with pytest.raises(InvalidParameter, match=r"^e2 must lie in 0\.\.1, got 2$"):
        strata_from_gr(table, 2)
    # a non-integer e2 is refused, as closed_gr_m6 refuses a non-integer e1,
    # not read as an empty column or failed on as a comparison
    for e2 in (0.5, 1.0, "1", None):
        with pytest.raises(InvalidParameter, match="e2 must be an integer"):
            strata_from_gr(table, e2)


@pytest.mark.parametrize("flag", [True, False])
def test_bools_are_refused_where_integers_are_asked_for(flag):
    from qkron.qlaurent import _check_rn, c_sequence, dim_vector

    # True and False are ints to isinstance; each check refuses them, where
    # True had read as 1 (the e1 = 1 column, "e2": true in JSON) and False as 0
    table = gr_table(2, 5)
    calls = [lambda: _check_rn(2, flag), lambda: c_sequence(2, flag),
             lambda: dim_vector(2, flag), lambda: q_binomial(3, flag),
             lambda: q_binomial(flag, 0), lambda: strata_from_gr(table, flag),
             lambda: closed_gr_m6(3, flag), lambda: closed_zbar_m6(3, flag)]
    for call in calls:
        with pytest.raises(InvalidParameter):
            call()
    # the integers they stand for are still taken
    assert strata_from_gr(table, int(flag)).to_obj()["e2"] == int(flag)
    assert closed_gr_m6(3, int(flag))
    assert q_binomial(3, int(flag)) == (1 + q + q**2 if flag else ONE)


def test_closed_gr_examples():
    assert closed_gr_m6(2, 0) == 1 + q + q**2
    assert closed_gr_m6(2, 1) == 1 + q
    assert closed_gr_m6(2, 2) == QLaurent.zero()
    assert closed_gr_m6(5, 9) == QLaurent.zero()
    with pytest.raises(InvalidParameter):
        closed_gr_m6(1, 0)
    with pytest.raises(InvalidParameter):
        closed_gr_m6(3, -1)


def test_closed_zbar_euler_values():
    assert euler_char(closed_zbar_m6(10, 5)) == -27
    assert euler_char(closed_zbar_m6(5, 1)) == 25
    assert euler_char(1 + q + q**2) == 3
    assert euler_char(QLaurent.zero()) == 0


def test_closed_zbar_r5_negative_coefficient():
    poly = closed_zbar_m6(5, 1)
    assert poly.coeff2(32) == -1  # the q^16 term
    assert poly.coeff2(34) == 0 and poly.coeff2(30) == 0


def test_closed_matches_pipeline_r2():
    table = gr_table(2, 6)
    st = strata_from_gr(table, 1)
    for e1 in range(table.d1 + 1):
        assert closed_gr_m6(2, e1) == table.entry(e1, 1)
    for p in range(table.d1 + 1):
        assert closed_zbar_m6(2, p) == st.zbar(p)


@pytest.mark.parametrize("r", [2, 3])
def test_closed_strata_table_matches_pipeline(r):
    closed = closed_strata_m6(r)
    generic = strata_from_gr(gr_table(r, 6), 1)
    assert closed.zprime == generic.zprime
    assert closed.zbarprime == generic.zbarprime
    assert closed.to_obj() == generic.to_obj()


@pytest.mark.parametrize("r", [2, 3, 10])
def test_closed_zbar_stops_where_closed_gr_vanishes(r, monkeypatch):
    import qkron.strata as strata_mod

    calls = []
    closed_gr = strata_mod.closed_gr_m6
    monkeypatch.setattr(
        strata_mod, "closed_gr_m6", lambda r_, e1: calls.append(e1) or closed_gr(r_, e1)
    )
    for p in (0, 1, r - 1, r, r**3 - 2 * r):
        calls.clear()
        closed_zbar_m6(r, p)
        assert len(calls) <= r


def test_alternating_identity_spot():
    # the signed tail sum collapses: at e1=2, p=1 both sides are -q
    lhs = q_binomial(2, 0) - q_binomial(2, 1)
    assert lhs == QLaurent.q_power(2, -1)


def _weighted_strata(table, e2):
    """Z'(p) and Zbar'(p) as the signed weighted sums over e1 >= p, the
    explicit inverse that the q-Pascal sweep replaces."""
    col = [table.entry(e1, e2) for e1 in range(table.d1 + 1)]
    zp, zb = {}, {}
    for p in range(table.d1 + 1):
        zp[p] = zb[p] = QLaurent.zero()
        for e1 in range(p, table.d1 + 1):
            if col[e1]:
                zp[p] = zp[p] + col[e1] * _open_weight(e1, p)
                zb[p] = zb[p] + col[e1] * _closed_weight(e1, p)
    return zp, zb


@pytest.mark.parametrize("r, n, e2s", [(3, 6, None), (5, 5, None), (4, 6, (7,))])
def test_sweep_matches_weighted_sums(r, n, e2s):
    table = gr_table(r, n)
    for e2 in e2s or range(table.d2 + 1):
        got = strata_from_gr(table, e2)
        assert (got.zprime, got.zbarprime) == _weighted_strata(table, e2)


small_qlaurents = st.builds(
    QLaurent,
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-5, 5)), max_size=3),
)


@given(st.lists(small_qlaurents, max_size=8), st.integers(0, 3))
def test_strata_inverts_the_forward_transform(z, pad):
    d1 = len(z) - 1 + pad
    col = [
        sum((q_binomial(p, e) * zp for p, zp in enumerate(z)), QLaurent.zero())
        for e in range(len(z))
    ]
    zprime, zbarprime = _strata(col, d1)
    full = z + [QLaurent.zero()] * pad
    assert zprime == dict(enumerate(full))
    assert zbarprime == {
        p: sum(full[p:], QLaurent.zero()) for p in range(d1 + 1)
    }


def test_binomial_columns_sweep_to_unit_vectors():
    size = 12
    mat = q_binomial_matrix(size)
    for j in range(size):
        zprime, _ = _strata([mat[i][j] for i in range(size)], size - 1)
        assert zprime == {p: ONE if p == j else QLaurent.zero() for p in range(size)}


@pytest.mark.parametrize("r, n", [(2, 6), (3, 5), (4, 5), (3, 6)])
def test_image_strata_rebuild_the_rows(r, n):
    # P_{s,u} = sum_w Zimg(s, w) [d2-w choose u-w]_q, w = d2 - k the image dimension
    table = gr_table(r, n)
    d2 = table.d2
    for s in range(table.d1 + 1):
        img = image_strata_from_gr(table, s)
        assert img.zbar(0) == sum((img.z(k) for k in range(d2 + 1)), QLaurent.zero())
        for u in range(d2 + 1):
            rebuilt = sum((q_binomial(k, d2 - u) * img.z(k) for k in range(d2 + 1)),
                          QLaurent.zero())
            assert rebuilt == table.entry(s, u), (s, u)


def test_image_strata_match_the_point_counts():
    for r, n, p in [(2, 6, 3), (3, 5, 2), (4, 5, 2), (2, 8, 2)]:
        mod = build_module(p, r, n)
        table = gr_table(r, n)
        for s in range(table.d1 + 1):
            img = image_strata_from_gr(table, s)
            for k in range(table.d2 + 1):
                assert count_strata(mod, "z", k, s) == img.z(k).evaluate(p), (r, n, p, s, k)
                assert count_strata(mod, "zbar", k, s) == img.zbar(k).evaluate(p)


def test_the_strata_suites_hold():
    # closedform carries the reflection identity on BRIDGE_PAIRS, (3, 6) and
    # (4, 6); ffstrata the image strata against every FF_CONFIGS entry
    for name in ("closedform", "ffstrata"):
        checks = verify.run_suite(name)
        assert all(c.ok for c in checks), [c.label for c in checks if not c.ok]
    labels = [c.label for c in verify.run_suite("closedform")]
    assert sum("image strata at n-1" in label for label in labels) == len(verify.BRIDGE_PAIRS) + 2


def test_each_sweep_decodes_one_line_of_the_table(monkeypatch):
    from qkron import cluster

    table, decoded = gr_table(4, 5), []
    unpack = cluster._unpack

    def spy(val, lo, *rest):
        decoded.append(val)
        return unpack(val, lo, *rest)

    monkeypatch.setattr(cluster, "_unpack", spy)
    strata_from_gr(table, 2)
    assert 0 < len(decoded) <= table.d1 + 1
    decoded.clear()
    image_strata_from_gr(table, 3)
    assert 0 < len(decoded) <= table.d2 + 1


def test_image_strata_invalid_s():
    table = gr_table(2, 5)
    with pytest.raises(InvalidParameter, match=r"^s must lie in 0\.\.3, got 4$"):
        image_strata_from_gr(table, 4)
    for s in (True, 0.5, "1", None):
        with pytest.raises(InvalidParameter, match="s must be an integer"):
            image_strata_from_gr(table, s)
