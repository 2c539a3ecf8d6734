import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkron.cluster import gr_table
from qkron.errors import InvalidParameter
from qkron.qlaurent import ONE, QLaurent, q, q_binomial
from qkron.strata import (
    _closed_weight,
    _open_weight,
    _strata,
    closed_gr_m6,
    closed_strata_m6,
    closed_zbar_m6,
    euler_char,
    gr_from_strata,
    q_binomial_matrix,
    strata_from_gr,
    transform_matrix,
)


def _matmul(a, b):
    n = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(n)), QLaurent.zero())
            for j in range(n)
        ]
        for i in range(n)
    ]


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


def test_zbar_tail_sums():
    table = gr_table(2, 6)
    st = strata_from_gr(table, 1)
    for p in range(table.d1):
        assert st.zbar(p) - st.zbar(p + 1) == st.zp(p)


def test_strata_invalid_e2():
    with pytest.raises(InvalidParameter):
        strata_from_gr(gr_table(2, 4), 2)


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
