"""Named verification suites, each implementing one documented invariant.

Used both by the command-line ``verify`` subcommand and by the acceptance
tests.  Suites are deterministic: randomized ones draw from a fixed seed.
Each suite yields ``(label, ok)`` or ``(label, ok, detail)`` per check;
``run_suite`` names the checks after the suite and builds the ``Check`` records.
"""

from __future__ import annotations

import math
import random

from . import cluster, families, fforacle, strata
from .dyck import Color, build_dyck, classify
from .errors import InvalidParameter
from .qlaurent import ONE, QLaurent, c_sequence, q_binomial
from .records import Record
from .torus import TorusElement, left_divide, word_to_torus

BRIDGE_PAIRS = ((2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (4, 5), (5, 5))
FF_CONFIGS = (
    (2, 4, 2), (2, 4, 3), (2, 5, 2), (2, 6, 2), (2, 6, 3), (3, 4, 2), (3, 5, 2), (3, 5, 3),
    (4, 5, 2), (5, 5, 2), (2, 7, 2), (2, 7, 3), (2, 8, 2), (2, 8, 3),
)
XVAR_GRID = ((2, 8), (3, 6), (4, 6), (5, 5))  # (r, largest n) computed per suite


class Check(Record):
    __slots__ = ("suite", "label", "ok", "detail")

    def __init__(self, suite: str, label: str, ok: bool, detail: str = ""):
        self.suite = suite
        self.label = label
        self.ok = ok
        self.detail = detail


# -- exact ring suites -------------------------------------------------------


def suite_cn():
    ok = True
    for r in range(2, 11):
        for n in range(1, 13):
            closed = sum(
                (-1) ** i * math.comb(n - 2 - i, i) * r ** (n - 2 - 2 * i)
                for i in range(0, (n - 2) // 2 + 1)
                if n - 2 - i >= i
            )
            if c_sequence(r, n) != closed:
                ok = False
    yield "closed form, r in 2..10, n in 1..12 (108 cases)", ok
    yield "c_5(2) = 4", c_sequence(2, 5) == 4
    yield "c_4(3) = 8", c_sequence(3, 4) == 8
    yield "c_5(10) = 980", c_sequence(10, 5) == 980


def suite_qpascal():
    ok_pascal = all(
        q_binomial(m, n)
        == q_binomial(m - 1, n - 1) + q_binomial(m - 1, n).shift2(2 * n)
        for m in range(1, 31)
        for n in range(1, m + 1)
    )
    ok_sym = all(
        q_binomial(m, n) == q_binomial(m, m - n)
        for m in range(0, 31)
        for n in range(0, m + 1)
    )
    ok_pos = all(
        not q_binomial(m, n).has_negative_coeff()
        for m in range(0, 31)
        for n in range(0, m + 1)
    )
    yield "q-Pascal recurrence, 1 <= n <= m <= 30 (465 cases)", ok_pascal
    yield "symmetry, 0 <= n <= m <= 30 (496 cases)", ok_sym
    yield "nonnegative coefficients (496 cases)", ok_pos


def suite_alternating():
    ok = True
    for e1 in range(0, 21):
        for p in range(0, e1 + 1):
            lhs = QLaurent.zero()
            for i in range(0, e1 - p + 1):
                term = q_binomial(e1, i).shift2(2 * math.comb(i, 2))
                lhs = lhs + (term.scale(-1) if i % 2 else term)
            rhs = q_binomial(e1 - 1, e1 - p).shift2(2 * math.comb(e1 - p + 1, 2))
            if (e1 - p) % 2:
                rhs = -rhs
            if lhs != rhs:
                ok = False
    spot = QLaurent.zero()
    for i in range(0, 2):
        t = q_binomial(2, i).shift2(2 * math.comb(i, 2))
        spot = spot + (t.scale(-1) if i % 2 else t)
    yield "signed binomial tail sum, 0 <= p <= e1 <= 20 (231 cases)", ok
    yield "spot value e1=2, p=1 equals -q", spot == QLaurent.q_power(2, -1)


def suite_matrix():
    # Principal submatrices of the size-30 pair are exactly the smaller
    # sizes, so the single product covers every size up to 30.
    size = 30
    inv = strata.transform_matrix(size)
    fwd = strata.q_binomial_matrix(size)
    ok = True
    for i in range(size):
        for j in range(size):
            acc = QLaurent.zero()
            for k in range(i, j + 1):
                if inv[i][k] and fwd[k][j]:
                    acc = acc + inv[i][k] * fwd[k][j]
            if acc != (ONE if i == j else QLaurent.zero()):
                ok = False
    yield (
        f"triangular transform times binomial matrix is identity ({size * (size + 1) // 2} entries)",
        ok,
    )


# -- torus suites ---------------------------------------------------------------


def _random_qlaurent(rng):
    return QLaurent(
        (rng.randrange(-6, 7), rng.randrange(-9, 10))
        for _ in range(rng.randrange(0, 4))
    )


def _random_torus(rng):
    return TorusElement(
        (
            (rng.randrange(-3, 4), rng.randrange(-3, 4)),
            _random_qlaurent(rng),
        )
        for _ in range(rng.randrange(0, 4))
    )


def _random_unit_leading(rng):
    while True:
        d = _random_torus(rng)
        if not d:
            continue
        key, _ = d.lex_leading()
        unit = QLaurent.q_power(rng.randrange(-4, 5), rng.choice((1, -1)))
        terms = dict(d.items())
        terms[key] = unit
        return TorusElement(terms.items())


def suite_torus():
    cases, rng = 200, random.Random(20240)
    ok_assoc = True
    for _ in range(cases):
        e1, e2, e3 = (_random_torus(rng) for _ in range(3))
        if (e1 * e2) * e3 != e1 * (e2 * e3):
            ok_assoc = False
    ok_round = True
    for _ in range(cases):
        d = _random_unit_leading(rng)
        z = _random_torus(rng)
        if left_divide(d, d * z) != z:
            ok_round = False
    ok_words = all(
        word_to_torus(a, 0) * word_to_torus(0, b)
        == (word_to_torus(0, b) * word_to_torus(a, 0)).scale2(2 * a * b)
        for a in range(-5, 6)
        for b in range(-5, 6)
    )
    ok_pow = all(
        word_to_torus(a, b) ** i
        == word_to_torus(a * i, b * i).scale2(-2 * a * b * math.comb(i, 2))
        for a in range(-2, 3)
        for b in range(-2, 3)
        for i in range(0, 5)
    )
    yield f"associativity on random triples ({cases} cases)", ok_assoc
    yield f"left-division roundtrip ({cases} cases)", ok_round
    yield "two-letter commutation under specialization (121 cases)", ok_words
    yield "power closed form under specialization (125 cases)", ok_pow


# -- expansion vs recursion -------------------------------------------------------


def suite_bridge(r: int | None = None, n: int | None = None):
    if (r is None) != (n is None):
        raise InvalidParameter("--r and --n go together: give both or neither")
    pairs = BRIDGE_PAIRS if r is None else ((r, n),)
    for rr, nn in pairs:
        lhs = families.xvar_enum(rr, nn)
        rhs = cluster.xvar_recursive(rr, nn).scale2(1)
        yield (
            f"family expansion equals q^(1/2) * recursion at (r={rr}, n={nn})",
            lhs == rhs,
            f"{lhs.num_terms()} torus terms",
        )


def suite_commutation():
    for r, nmax in XVAR_GRID:
        ok = True
        for n in range(1, nmax):
            a = cluster.xvar_recursive(r, n)
            b = cluster.xvar_recursive(r, n + 1)
            if a * b != (b * a).scale2(2):
                ok = False
        yield f"X_n X_(n+1) = q X_(n+1) X_n for r={r}, n < {nmax}", ok


def suite_positivity():
    for r, nmax in XVAR_GRID:
        ok = True
        for n in range(1, nmax + 1):
            xn = cluster.xvar_recursive(r, n)
            if any(c.has_negative_coeff() for _, c in xn.items()):
                ok = False
        yield f"nonnegative coefficients of X_1..X_{nmax} for r={r}", ok


# -- combinatorial suites ------------------------------------------------------------


def _expected_end_color(r: int, l: int):
    """Color of the subpath from v_l to the last marked vertex of the
    (r, 6) path, for r > 2, by the closed case table."""
    rr = r * r
    if l == rr - 1:
        return None
    if l == rr - 2:
        return Color.red()
    if l >= rr - r:
        k = l - (rr - r) + 1
        return Color.green(3, k)
    j, k = divmod(l, r)
    if k == r - 1:
        return Color.red()
    if k == 0:
        return Color.green(4, j)
    return Color.green(3, k)


def suite_colors():
    for r in (3, 4, 5):
        path = build_dyck(r, 6)
        top = r * r - 1
        ok = True
        for l in range(1, top):
            expect = _expected_end_color(r, l)
            got, _rng = classify(path, l, top)
            if got != expect:
                ok = False
        yield f"end-vertex color table for r={r} ({top - 1} cases)", ok


def suite_shadow():
    for r, n in ((2, 5), (3, 5)):
        path = build_dyck(r, n)
        big = c_sequence(r, n - 1)
        small = c_sequence(r, n - 2)
        ok = True
        count = 0
        for fam in families.enumerate_families(path):
            count += 1
            term = families.family_term(path, fam)
            ((a, b), _coeff), = term.items()
            deg1, deg2 = families.family_degrees(fam)
            if a != r * deg1 - big or b != r * (big - deg2) - small:
                ok = False
        yield f"per-family commutative exponents at (r={r}, n={n}) ({count} families)", ok


# -- closed forms and oracle ------------------------------------------------------------


def suite_closedform():
    for r in (2, 3):
        table = cluster.gr_table(r, 6)
        ok_gr = all(
            strata.closed_gr_m6(r, e1) == table.entry(e1, 1)
            for e1 in range(0, table.d1 + 1)
        )
        st = strata.strata_from_gr(table, 1)
        ok_zbar = all(
            strata.closed_zbar_m6(r, p) == st.zbar(p) for p in range(0, table.d1 + 1)
        )
        yield f"closed Grassmannian column vs extraction, r={r}", ok_gr
        yield f"closed strata vs triangular transform, r={r}", ok_zbar


def suite_ffcount():
    for r, n, p in FF_CONFIGS:
        mod = fforacle.build_module(p, r, n)
        table = cluster.gr_table(r, n)
        ok = True
        cases = 0
        for e1 in range(0, table.d1 + 1):
            for e2 in range(0, table.d2 + 1):
                cases += 1
                expected = int(table.entry(e1, e2).evaluate(p))
                if fforacle.count_gr(mod, e1, e2) != expected:
                    ok = False
        yield f"point counts vs polynomials, (r={r}, n={n}, p={p}), {cases} cases", ok


def suite_ffstrata():
    for r, n, p in FF_CONFIGS:
        mod = fforacle.build_module(p, r, n)
        table = cluster.gr_table(r, n)
        d1, d2 = table.d1, table.d2
        ok_fwd = True
        for e1 in range(0, d1 + 1):
            for e2 in range(0, d2 + 1):
                target = fforacle.count_gr(mod, e1, e2)
                via_zp = sum(
                    int(q_binomial(pp, e1).evaluate(p))
                    * fforacle.count_strata(mod, "zp", pp, d2 - e2)
                    for pp in range(0, d1 + 1)
                )
                via_z = sum(
                    int(q_binomial(pp, e2 - d2 + pp).evaluate(p))
                    * fforacle.count_strata(mod, "z", pp, e1)
                    for pp in range(0, d2 + 1)
                )
                if via_zp != target or via_z != target:
                    ok_fwd = False
        ok_cum = True
        for s in range(0, d2 + 1):
            for p0 in range(0, d1 + 1):
                tail = sum(
                    fforacle.count_strata(mod, "zp", pp, s) for pp in range(p0, d1 + 1)
                )
                if fforacle.count_strata(mod, "zpbar", p0, s) != tail:
                    ok_cum = False
        for s in range(0, d1 + 1):
            for p0 in range(0, d2 + 1):
                tail = sum(
                    fforacle.count_strata(mod, "z", pp, s) for pp in range(p0, d2 + 1)
                )
                if fforacle.count_strata(mod, "zbar", p0, s) != tail:
                    ok_cum = False
        yield f"stratified sums rebuild counts, (r={r}, n={n}, p={p})", ok_fwd
        yield f"closed strata are tail sums, (r={r}, n={n}, p={p})", ok_cum


SUITES = {
    "cn": (suite_cn, "closed form and pinned values of the dimension sequence"),
    "qpascal": (suite_qpascal, "q-Pascal recurrence, symmetry and positivity of q-binomials"),
    "alternating": (suite_alternating, "signed q-binomial tail-sum identity"),
    "matrix": (suite_matrix, "triangular strata transform inverts the binomial matrix"),
    "torus": (suite_torus, "torus associativity, division roundtrips, word identities"),
    "bridge": (suite_bridge, "family expansion equals the torus recursion"),
    "commutation": (suite_commutation, "quasi-commutation of consecutive cluster variables"),
    "positivity": (suite_positivity, "nonnegative coefficients of computed cluster variables"),
    "colors": (suite_colors, "subpath color table at the last marked vertex"),
    "shadow": (suite_shadow, "per-family exponents match the family degree counts"),
    "closedform": (suite_closedform, "closed forms agree with the generic pipeline"),
    "ffcount": (suite_ffcount, "finite-field point counts equal polynomial values"),
    "ffstrata": (suite_ffstrata, "stratum counts satisfy the stratification identities"),
}


def run_suite(name: str, **kwargs):
    if name not in SUITES:
        raise InvalidParameter(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    fn, _ = SUITES[name]
    code = fn.__code__  # every suite takes keyword arguments with defaults only
    params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    for key in kwargs:
        if key not in params:
            raise InvalidParameter(f"suite {name!r} got an unexpected keyword argument {key!r}")
    return [Check(name, label, bool(ok), *detail) for label, ok, *detail in fn(**kwargs)]
