import os
import random

import pytest

from qkron import fforacle
from qkron.cluster import gr_table
from qkron.errors import BudgetExceeded, ConstructionFailed, InvalidParameter
from qkron.fforacle import (
    _BYTE_MOD,
    ALLOWED_PRIMES,
    FFModule,
    _image_dim_hist,
    _iter_bases,
    _preimage_dim_hist,
    _rank,
    _row_table,
    build_module,
    count_gr,
    count_strata,
    end_dim,
)
from qkron.qlaurent import q_binomial
from qkron.strata import strata_from_gr
from qkron.verify import FF_CONFIGS


def test_build_m4_r2():
    mod = build_module(2, 2, 4)
    assert mod.phis == (((1, 0),), ((0, 1),))
    assert end_dim(mod) == 1


def test_build_m4_r3_p3():
    mod = build_module(3, 3, 4)
    assert mod.phis == (
        ((1, 0, 0),),
        ((0, 1, 0),),
        ((0, 0, 1),),
    )
    assert end_dim(mod) == 1


def test_build_m6_r2():
    mod = build_module(2, 2, 6)
    assert (mod.d1, mod.d2) == (4, 3)
    assert end_dim(mod) == 1


def test_build_validation():
    with pytest.raises(InvalidParameter):
        build_module(7, 2, 4)
    with pytest.raises(InvalidParameter):
        build_module(2, 1, 4)
    with pytest.raises(InvalidParameter):
        build_module(2, 3, 7)
    with pytest.raises(InvalidParameter):
        build_module(2, 2, 3)


@pytest.mark.parametrize("p, r, n", [(2, 2, 4), (3, 2, 6), (2, 3, 5)])
def test_build_module_refuses_when_no_candidate_certifies(monkeypatch, p, r, n):
    # the one explicit candidate, and every seeded draw, fail certification
    monkeypatch.setattr(fforacle, "end_dim", lambda mod: 2)
    with pytest.raises(ConstructionFailed, match="passed certification"):
        build_module(p, r, n)


def test_end_dim_detects_non_rigid():
    # two equal maps commute with far more pairs than the rigid module does
    mod = FFModule(2, 2, 4, 2, 1, (((1, 0),), ((1, 0),)))
    assert end_dim(mod) > 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_end_dim_reduces_entries_mod_p(p):
    # from_obj keeps entries outside 0..p-1; these are the coordinate functionals
    mod = FFModule(p, 2, 4, 2, 1, (((1 + p, p),), ((-p, 1 - p),)))
    assert end_dim(mod) == 1


def test_count_gr_examples():
    mod = build_module(2, 2, 6)
    assert count_gr(mod, 0, 1) == 7
    assert count_gr(mod, 1, 1) == 3
    assert count_gr(mod, 2, 1) == 0
    with pytest.raises(InvalidParameter):
        count_gr(mod, 5, 0)


def test_count_gr_budget(monkeypatch):
    # d = (8, 3): the cap bounds the enumerated Gr_2(F_2^3), 7 subspaces
    mod = build_module(2, 3, 5)
    monkeypatch.setattr(fforacle, "MAX_SUBSPACES", 6)
    with pytest.raises(BudgetExceeded):
        count_gr(mod, 4, 2)
    # the image side needs every Gr_u(F_2^3) and refuses before enumerating any
    before = _preimage_dim_hist.cache_info()
    for side in ("z", "zbar"):
        with pytest.raises(BudgetExceeded):
            count_strata(mod, side, 0, 4)
    assert _preimage_dim_hist.cache_info() == before


def test_histograms_are_shared_across_caps(monkeypatch):
    mod = build_module(2, 3, 5)

    def at_cap(cap, count, *args):
        monkeypatch.setattr(fforacle, "MAX_SUBSPACES", cap)
        return count(mod, *args)

    counts = [at_cap(cap, count_gr, 4, 2) for cap in (7, 8)]
    zbars = [at_cap(cap, count_strata, "zbar", 1, 4) for cap in (7, 8)]
    before = (_preimage_dim_hist.cache_info(), _image_dim_hist.cache_info())
    assert at_cap(10**6, count_gr, 4, 2) == counts[0] == counts[1]
    assert at_cap(10**6, count_strata, "zbar", 1, 4) == zbars[0] == zbars[1]
    after = (_preimage_dim_hist.cache_info(), _image_dim_hist.cache_info())
    assert [a.hits - b.hits for a, b in zip(after, before)] == [1, 1]
    assert [a.misses for a in after] == [b.misses for b in before]


def test_count_gr_wide_second_vertex():
    # d2 = 40: the one-point Grassmannians u = 0 and u = d2 need no 2^d2 table
    phis = tuple(
        tuple(tuple(int(i == k and j == k) for j in range(2)) for i in range(40))
        for k in range(2)
    )
    mod = FFModule(2, 2, 0, 2, 40, phis)
    assert count_gr(mod, 0, 0) == 1
    assert count_gr(mod, 1, 0) == 0
    assert count_gr(mod, 2, 40) == 1
    with pytest.raises(BudgetExceeded):
        count_gr(mod, 0, 1)


def _digits(v, p, width):
    """The digits v_0, ..., v_{width-1} of v = sum_j v_j p^j."""
    out = []
    for _ in range(width):
        v, d = divmod(v, p)
        out.append(d)
    return out


def _byte_code(vector, p):
    """The row code of fforacle: sum_j (v_j mod p) 256^j."""
    return sum(x % p << 8 * j for j, x in enumerate(vector))


def _rank_by_elimination(mat, p):
    """Rank over F_p of a list of digit lists, by Gauss-Jordan elimination."""
    mat = [[x % p for x in row] for row in mat]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_byte_tables_cover_the_allowed_primes():
    assert sorted(_BYTE_MOD) == sorted(ALLOWED_PRIMES)
    for p, table in _BYTE_MOD.items():
        assert p * (p - 1) < 256  # a row plus p - 1 times a row never carries
        assert table == bytes(b % p for b in range(256))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_matches_elimination(p):
    rng = random.Random(f"rank-{p}")
    for case in range(300):
        width = rng.randint(1, 40)
        nrows = rng.randint(0, 12)
        if case % 3 == 0:  # rank-deficient: rows in the span of a few random ones
            gens = [[rng.randrange(p) for _ in range(width)] for _ in range(rng.randint(1, 4))]
            mat = [
                [sum(rng.randrange(p) * g[j] for g in gens) % p for j in range(width)]
                for _ in range(nrows)
            ]
        else:  # sparse or dense random rows
            density = rng.random()
            mat = [
                [rng.randrange(p) if rng.random() < density else 0 for _ in range(width)]
                for _ in range(nrows)
            ]
        want = _rank_by_elimination(mat, p)
        assert _rank([_byte_code(row, p) for row in mat], p) == want, (case, width, mat)
    # 30 to 60 rows: unreduced bytes pass 127 at odd p, so the leading
    # byte's index must come from its top set bit
    for case in range(20):
        width, nrows = rng.randint(30, 60), rng.randint(30, 60)
        mat = [[rng.randrange(p) for _ in range(width)] for _ in range(nrows)]
        if case % 2:  # rank-deficient: the later rows repeat combinations of the first
            mat[nrows // 2:] = [[sum(rng.randrange(p) * row[j] for row in mat[:4]) % p
                                 for j in range(width)] for _ in range(nrows - nrows // 2)]
        want = _rank_by_elimination(mat, p)
        assert _rank([_byte_code(row, p) for row in mat], p) == want, (case, width, nrows)
    if p > 2:  # the worst case: each clearing step adds (p - 1)^2 to every lower byte
        n = 256 // (p - 1) ** 2 + 6
        mat = [[p - 1] * i + [1] + [0] * (n - 1 - i) for i in range(1, n)]
        # every lead is 1 mod p, and the last digit cancels: a byte that
        # carried would leave it nonzero
        mat.append([(1 - n) % p] + [(2 - n + j) % p for j in range(1, n)])
        assert _rank([_byte_code(row, p) for row in mat], p) == _rank_by_elimination(mat, p) == n - 1
    # a repeated row: one clearing step leaves each of its bytes at p times
    # its digit, a nonzero multiple of p whenever the digit is nonzero
    row = _byte_code(range(1, 2 * p), p)
    assert _rank([row, row, row << 8, row], p) == 2
    assert _rank([], p) == 0
    assert _rank([0, 0], p) == 0


def _row_table_by_digits(phi, p):
    """The table by one digit loop per entry: tbl[w] = the code of w . phi,
    with w = sum_i w_i p^i."""
    d1, d2 = len(phi[0]), len(phi)
    tbl = []
    for w in range(p**d2):
        wd = _digits(w, p, d2)
        tbl.append(_byte_code([sum(wd[i] * phi[i][j] for i in range(d2)) for j in range(d1)], p))
    return tbl


@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_table_matches_the_digit_loop(p):
    rng = random.Random(f"row-table-{p}")
    for d1, d2 in [(1, 1), (4, 3), (9, 2), (3, 5)]:
        # entries outside 0..p-1 too: the table reduces them mod p
        phi = tuple(tuple(rng.randrange(-p, 2 * p) for _ in range(d1)) for _ in range(d2))
        assert _row_table(phi, p) == _row_table_by_digits(phi, p), (d1, d2)
    for r, n, q in FF_CONFIGS:
        mod = build_module(q, r, n)
        if mod.d2 <= 6:
            for phi in mod.phis:
                assert _row_table(phi, p) == _row_table_by_digits(phi, p)


def test_count_strata_examples():
    m4 = build_module(2, 2, 4)
    assert count_strata(m4, "zp", 2, 0) == 1
    # p = 0 on the closed preimage side puts no condition at all
    for s in range(m4.d2 + 1):
        want = int(q_binomial(m4.d2, m4.d2 - s).evaluate(2))
        assert count_strata(m4, "zpbar", 0, s) == want
    with pytest.raises(InvalidParameter):
        count_strata(m4, "sideways", 0, 0)


def test_strata_oracle_matches_polynomials():
    mod = build_module(2, 2, 6)
    table = gr_table(2, 6)
    st = strata_from_gr(table, 1)
    s = table.d2 - 1  # e2 = 1
    for p0 in range(table.d1 + 1):
        assert count_strata(mod, "zpbar", p0, s) == int(st.zbar(p0).evaluate(2))
        assert count_strata(mod, "zp", p0, s) == int(st.zp(p0).evaluate(2))


def test_counts_match_polynomials_small():
    for r, n, p in [(2, 4, 2), (2, 4, 3), (2, 5, 2), (3, 4, 2)]:
        mod = build_module(p, r, n)
        table = gr_table(r, n)
        for e1 in range(table.d1 + 1):
            for e2 in range(table.d2 + 1):
                assert count_gr(mod, e1, e2) == int(table.entry(e1, e2).evaluate(p))


def test_image_strata_match_brute_force():
    """The image-side histograms are solved from counts on the second vertex;
    here they are rebuilt by enumerating Gr_s(F_p^{d1}) directly."""
    for r, n, p in FF_CONFIGS:
        mod = build_module(p, r, n)
        if mod.d1 > 4:
            continue
        for s in range(mod.d1 + 1):
            hist = {}
            for basis in _iter_bases(p, mod.d1, s):
                image = [
                    [sum(phi[i][j] * b[j] for j in range(mod.d1)) for i in range(mod.d2)]
                    for b in (_digits(w, p, mod.d1) for w in basis)
                    for phi in mod.phis
                ]
                dim = _rank_by_elimination(image, p)
                hist[dim] = hist.get(dim, 0) + 1
            for pp in range(mod.d2 + 1):
                assert count_strata(mod, "z", pp, s) == hist.get(mod.d2 - pp, 0), (r, n, p, pp, s)


def test_counts_match_polynomials_r3_n6():
    # d = (21, 8): 417,199 subspaces of F_2^8, against about 1e34 of F_2^21
    mod = build_module(2, 3, 6)
    table = gr_table(3, 6)
    assert (mod.d1, mod.d2) == (table.d1, table.d2) == (21, 8)
    for e1 in range(table.d1 + 1):
        for e2 in range(table.d2 + 1):
            assert count_gr(mod, e1, e2) == int(table.entry(e1, e2).evaluate(2)), (e1, e2)
    e2 = 3
    st = strata_from_gr(table, e2)
    for p0 in range(table.d1 + 1):
        assert count_strata(mod, "zp", p0, table.d2 - e2) == int(st.zp(p0).evaluate(2))


def test_certificate_stability():
    a = build_module(2, 3, 5, seed=0)
    b = build_module(2, 3, 5, seed=1)
    assert a.phis != b.phis  # independently found modules
    for e1 in (0, 1, 2, 7, 8):
        for e2 in range(4):
            assert count_gr(a, e1, e2) == count_gr(b, e1, e2)


def test_forward_identities_at_prime():
    r, n, p = 2, 5, 2
    mod = build_module(p, r, n)
    table = gr_table(r, n)
    d1, d2 = table.d1, table.d2
    for e1 in range(d1 + 1):
        for e2 in range(d2 + 1):
            target = count_gr(mod, e1, e2)
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
            assert via_zp == target
            assert via_z == target


def test_module_json():
    mod = build_module(2, 2, 4)
    obj = mod.to_obj()
    assert obj == {"p": 2, "r": 2, "phis": [[[1, 0]], [[0, 1]]]}
    back = FFModule.from_obj(obj, n=4)
    assert back.phis == mod.phis and (back.d1, back.d2) == (2, 1)
    assert end_dim(back) == 1


def test_module_json_validation():
    phis = [[[1, 0]], [[0, 1]]]
    with pytest.raises(InvalidParameter, match="p must be one of"):
        FFModule.from_obj({"p": 4, "r": 2, "phis": phis})
    with pytest.raises(InvalidParameter, match="not r = 3"):
        FFModule.from_obj({"p": 2, "r": 3, "phis": phis})
    with pytest.raises(InvalidParameter, match="1 x 2"):
        FFModule.from_obj({"p": 2, "r": 2, "phis": [[[1, 0]], [[0, 1, 1]]]})
    with pytest.raises(InvalidParameter, match="1 x 2"):
        FFModule.from_obj({"p": 2, "r": 2, "phis": [[[1, 0]], [[0, 1], [1, 1]]]})
    with pytest.raises(InvalidParameter, match="nonempty"):
        FFModule.from_obj({"p": 2, "r": 2, "phis": [[], []]})
    with pytest.raises(InvalidParameter, match="nonempty"):
        FFModule.from_obj({"p": 2, "r": 0, "phis": []})


@pytest.mark.parametrize("obj", [
    {"p": 2, "r": 1, "phis": [[[1, 0]]]},  # r outside c_sequence's domain
    {"p": 2, "r": 2.0, "phis": [[[1, 0]], [[0, 1]]]},
    {"p": 2, "r": "2", "phis": [[[1, 0]], [[0, 1]]]},
    {"p": 2.0, "r": 2, "phis": [[[1, 0]], [[0, 1]]]},
    {"p": 2, "r": 2, "phis": [[[1.5, 0]], [[0, 1]]]},  # int() would cut the entry to 1
    {"p": 2, "r": 2, "phis": [[[1, 0]], [[0, "1"]]]},
    {"p": 2, "r": 2, "phis": [[[1, 0]], [[0, None]]]},
    {"p": 2, "r": 2, "phis": [[5], [6]]},
    {"p": 2, "r": 2, "phis": [5, 6]},
    {"p": 2, "r": 2, "phis": {"a": 1}},
    {"r": 2, "phis": [[[1, 0]], [[0, 1]]]},
    {"p": 2, "phis": [[[1, 0]], [[0, 1]]]},
    {"p": 2, "r": 2},
])
def test_module_json_refuses_all_but_integers(obj):
    with pytest.raises(InvalidParameter):
        FFModule.from_obj(obj)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("p", [2, 3])
def test_r2_oracle_beyond_n6_matches_gr_table(p, n):
    # at r = 2 the shifted identities are certified rigid for every n
    table = gr_table(2, n)
    mod = build_module(p, 2, n)
    assert (mod.d1, mod.d2) == (table.d1, table.d2) == (n - 2, n - 3)
    for e1 in range(table.d1 + 1):
        for e2 in range(table.d2 + 1):
            assert count_gr(mod, e1, e2) == table.entry(e1, e2).evaluate(p)


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("QKRON_SLOW") != "1", reason="set QKRON_SLOW=1 to enable")
def test_counts_match_polynomials_r3_n6_p5():
    # d = (21, 8) at p = 5: Gr_1(F_5^8) has 97,656 points
    mod = build_module(5, 3, 6)
    table = gr_table(3, 6)
    for e1 in range(table.d1 + 1):
        assert count_gr(mod, e1, 1) == table.entry(e1, 1).evaluate(5), e1
