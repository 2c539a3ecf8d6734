import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qkron.errors import (
    InvalidParameter,
    NonIntegralEvaluation,
    NotAPowerSeriesInQr,
    NotSupported,
)
from qkron.qlaurent import ONE, QLaurent, c_sequence, q_binomial, q_int, q

qlaurents = st.builds(
    QLaurent,
    st.lists(
        st.tuples(st.integers(-8, 8), st.integers(-9, 9)), min_size=0, max_size=4
    ),
)


# -- independent oracle: product formula with exact polynomial division ------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divexact(num, den):
    num = list(num)
    while den and den[-1] == 0:
        den.pop()
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c, rem = divmod(num[k + len(den) - 1], den[-1])
        assert rem == 0
        out[k] = c
        for j, y in enumerate(den):
            num[k + j] -= c * y
    assert all(x == 0 for x in num)
    return out


def _qbinom_oracle(m, n):
    """[m choose n]_q via the product formula, as a coefficient list."""
    num, den = [1], [1]
    for i in range(1, n + 1):
        num = _poly_mul(num, [1] + [0] * (m - n + i - 1) + [-1])
        den = _poly_mul(den, [1] + [0] * (i - 1) + [-1])
    return _poly_divexact(num, den)


def _coeff_list(p):
    if not p:
        return [0]
    out = [0] * (p.max2() // 2 + 1)
    for k2, c in p.items2():
        assert k2 % 2 == 0 and k2 >= 0
        out[k2 // 2] = c
    return out


def test_q_binomial_matches_product_formula():
    for m in range(0, 13):
        for n in range(0, m + 1):
            want = _qbinom_oracle(m, n)
            while len(want) > 1 and want[-1] == 0:
                want.pop()
            assert _coeff_list(q_binomial(m, n)) == want


def test_cold_q_binomial_is_not_limited_by_the_stack():
    # a cold call fills the Pascal rows below it in steps, so the recursion
    # depth does not grow with m
    q_binomial.cache_clear()
    assert q_binomial(600, 599) == q_binomial(600, 1) == q_int(600)
    q_binomial.cache_clear()
    for m in (127, 128, 129, 257, 300):
        want = _qbinom_oracle(m, 2)
        while want[-1] == 0:
            want.pop()
        assert _coeff_list(q_binomial(m, 2)) == want


def test_q_binomial_pinned_example():
    # [4 choose 2]_q = q^4 + q^3 + 2q^2 + q + 1, expanded by the oracle
    assert q_binomial(4, 2) == QLaurent({0: 1, 2: 1, 4: 2, 6: 1, 8: 1})


def test_q_binomial_conventions():
    assert q_binomial(-1, 0) == ONE
    assert q_binomial(-7, 0) == ONE
    assert q_binomial(3, 5) == QLaurent.zero()
    assert q_binomial(5, -1) == QLaurent.zero()
    with pytest.raises(NotSupported):
        q_binomial(-2, 1)


def test_q_int():
    assert q_int(3) == 1 + q + q**2
    assert q_int(0) == QLaurent.zero()


def test_c_sequence_examples():
    assert c_sequence(2, 5) == 4
    assert c_sequence(3, 4) == 8
    assert c_sequence(10, 5) == 980
    assert c_sequence(2, 1) == 0
    assert c_sequence(7, 2) == 1


def test_c_sequence_recurrence():
    for r in range(2, 8):
        for n in range(3, 12):
            assert c_sequence(r, n) == r * c_sequence(r, n - 1) - c_sequence(r, n - 2)


def test_c_sequence_closed_form():
    import math

    for r in range(2, 11):
        for n in range(1, 13):
            closed = sum(
                (-1) ** i * math.comb(n - 2 - i, i) * r ** (n - 2 - 2 * i)
                for i in range(0, max(0, (n - 2) // 2 + 1))
                if n - 2 - i >= i
            )
            assert c_sequence(r, n) == closed


def test_c_sequence_errors():
    with pytest.raises(InvalidParameter):
        c_sequence(1, 4)
    with pytest.raises(InvalidParameter):
        c_sequence(2, 0)


def test_evaluate_examples():
    assert (1 + q + q**2).evaluate(2) == 7
    assert QLaurent.q_power(1).evaluate(4) == 2
    assert QLaurent.q_power(-2).evaluate(2) == Fraction(1, 2)
    assert QLaurent.q_power(1).evaluate(Fraction(9, 4)) == Fraction(3, 2)
    with pytest.raises(NonIntegralEvaluation):
        QLaurent.q_power(1).evaluate(2)
    with pytest.raises(NonIntegralEvaluation):
        QLaurent.q_power(3).evaluate(-4)
    # mixed signs, negative and half exponents, against a per-term Fraction sum
    half = QLaurent({-5: 3, -2: -7, 0: 2, 3: -1, 8: 11})
    whole = QLaurent({-6: -4, -2: 9, 2: -2, 10: 5})
    for v, root in ((4, 2), (Fraction(9, 4), Fraction(3, 2))):
        want = sum((c * Fraction(root) ** k2 for k2, c in half.items2()), Fraction(0))
        assert half.evaluate(v) == want
    for v in (3, Fraction(-2, 5)):
        want = sum((c * Fraction(v) ** (k2 // 2) for k2, c in whole.items2()), Fraction(0))
        assert whole.evaluate(v) == want


def test_compress_power():
    p = 1 + q**3 + q**6
    assert p.compress_power(3) == 1 + q + q**2
    assert ONE.compress_power(5) == ONE
    with pytest.raises(NotAPowerSeriesInQr):
        (q + 1).compress_power(2)
    with pytest.raises(NotAPowerSeriesInQr):
        QLaurent.q_power(-4).compress_power(2)
    assert (1 + q**2).substitute_power(3).compress_power(3) == 1 + q**2
    # odd, negative and non-multiple exponents: the first offender is named
    for terms, bad in (({0: 1, 4: 2, 3: 1}, 3), ({0: 1, -4: 1}, -4), ({8: 1, 6: 2, 1: 1}, 6)):
        with pytest.raises(NotAPowerSeriesInQr) as err:
            QLaurent(terms).compress_power(2)
        assert str(err.value) == f"exponent q^({bad}/2) is not a nonnegative multiple of 2"


def test_coefficient_scans():
    from qkron.qlaurent import _max_coeff, _offset_gcd

    zero = QLaurent.zero()
    assert zero.max_coeff_bits() == 0 and not zero.has_negative_coeff()
    assert QLaurent({0: 3, 2: -1024}).max_coeff_bits() == 11
    assert QLaurent({0: 3, 2: -1}).has_negative_coeff()
    assert not QLaurent({0: 3, 2: 1}).has_negative_coeff()
    # the largest magnitude is a negative coefficient
    assert _max_coeff({(0, 0): {0: 3, 2: -7}, (1, 0): {4: 5}}) == 7
    assert _offset_gcd({(0, 0): {5: 1}, (1, 0): {-3: 2}}, {(2, 1): {0: 4}}) == 0
    assert _offset_gcd({(0, 0): {5: 1}, (1, 0): {-3: 2, 9: 1, 3: 1}}) == 6


@given(st.lists(st.dictionaries(st.integers(-60, 60), st.integers(-3, 3), min_size=1), max_size=5))
def test_offset_gcd_folds_each_coefficient(coeffs):
    from qkron.qlaurent import _max_coeff, _offset_gcd

    t = dict(enumerate(coeffs))
    assert _offset_gcd(t) == math.gcd(*(k - min(d) for d in coeffs for k in d))
    assert _offset_gcd(t, t) == _offset_gcd(t)
    assert _max_coeff(t, {0: {0: 1}}) == max([1, *(abs(c) for d in coeffs for c in d.values())])


def test_power_squares_and_multiplies_by_x():
    from qkron.qlaurent import _power

    # every product is a square or x times a square, and the last one is
    # x^(e/2) squared or x times x^(e-1), itself a square
    x = 1 + q + 2 * q**3
    for e in range(2, 17):
        products = []

        def times(a, b):
            products.append((a, b))
            return a * b

        assert _power(x, e, ONE, times) == x**e == _power(x, e, ONE)
        assert all(a is b or a is x for a, b in products)
        y, z = products[-1]
        assert y * z == x**e
        if e % 2:
            assert y is x and z == x ** (e - 1)
        else:
            assert y is z and y == x ** (e // 2)


def test_mat_mul_leaves_sparse_spans_unpadded(monkeypatch):
    import qkron.qlaurent as qlmod

    lengths = []
    pack = qlmod._pack
    monkeypatch.setattr(
        qlmod, "_pack", lambda t, lo, length, *rest: lengths.append(length) or pack(t, lo, length, *rest)
    )
    # three terms an entry and 12 pairs of 9 terms each: enough work to pack
    sparse, dense = 1 + q**250000 + q**500000, 1 + q + q**2
    start = time.perf_counter()
    # alone, the sparse entries pack at the stride of their gaps: three digits
    a, b = [[sparse] * 3] * 2, [[sparse, ONE + sparse]] * 3
    assert qlmod.mat_mul(a, b) == [[3 * sparse * sparse, 3 * sparse * (ONE + sparse)]] * 2
    # beside 1 + q + q^2 the stride is one power of q: a span would take 500,001 digits
    a, b = [[sparse, dense, sparse]] * 2, [[dense] * 2, [sparse] * 2, [dense] * 2]
    assert qlmod.mat_mul(a, b) == [[3 * sparse * dense] * 2] * 2
    assert time.perf_counter() - start < 1
    assert max(lengths) <= 3


@given(qlaurents, qlaurents, qlaurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QLaurent.zero() == a
    assert a * ONE == a


@given(qlaurents, qlaurents)
def test_mul_against_schoolbook(a, b):
    expected = {}
    for ka, ca in a.items2():
        for kb, cb in b.items2():
            expected[ka + kb] = expected.get(ka + kb, 0) + ca * cb
    assert a * b == QLaurent(expected)


def test_packed_mul_large_signed(monkeypatch):
    import qkron.qlaurent as qlmod

    # force the packed path with mixed-sign dense operands
    a = QLaurent({2 * i: (i % 5) - 2 for i in range(60)})
    b = QLaurent({2 * i: (i % 7) - 3 for i in range(45)})
    # too sparse to pack: wide gaps send the product to the dict fallback
    c = QLaurent({1000 * i - 3: (-1) ** i * (i + 1) ** 9 for i in range(13)})
    d = QLaurent({700 * i + 1: (i % 4) - 2 for i in range(10) if i % 4 != 2})
    assert c.num_terms() * d.num_terms() > qlmod._SCHOOLBOOK_LIMIT
    dict_products = []
    mul_dicts = qlmod._mul_dicts
    monkeypatch.setattr(
        qlmod, "_mul_dicts", lambda *args: dict_products.append(1) or mul_dicts(*args)
    )
    for x, y, packed in ((a, b, True), (c, d, False)):
        expected = {}
        for kx, cx in x.items2():
            for ky, cy in y.items2():
                k = kx + ky
                expected[k] = expected.get(k, 0) + cx * cy
        dict_products.clear()
        assert x * y == QLaurent(expected)
        assert dict_products == ([] if packed else [1])


def test_packed_decode_digit_bound():
    from qkron.qlaurent import _pack, _unpack

    # one-byte digits decode exactly while -128 <= digit < 128
    t = {3: 127, 4: -127, 6: 5}
    assert _unpack(_pack(t, 3, 4, 1), 3, 4, 1) == t
    # the digits 1, 0, 0, top as 1 + top * 256^3, which _pack would refuse
    for top in (128, 200, -129, -200):
        with pytest.raises(AssertionError, match="digit bound"):
            _unpack(1 + top * 256**3, 3, 4, 1)


@pytest.mark.parametrize("sign", [1, -1])
def test_decode_reads_only_live_digits(monkeypatch, sign):
    import qkron.qlaurent as qlmod

    # (1 + 2q + 3q^2) + (-3q^2): the top digit cancels but hi stays at q^2
    width, g, acc = 1, 2, {}
    for t in ({0: 1, 2: 2, 4: 3}, {4: -3}):
        val, lo, hi = qlmod._packed({k: sign * c for k, c in t.items()}, width, g)
        qlmod._add_aligned(acc, 0, val, lo, hi, g, 8 * width)
    val, lo, hi = acc[0]
    assert (lo, hi) == (0, 4)
    lengths, unpack = [], qlmod._unpack
    monkeypatch.setattr(qlmod, "_unpack", lambda *a: lengths.append(a[2]) or unpack(*a))
    decoded = qlmod._decode(acc[0], width, g)
    assert lengths == [2]
    assert decoded == unpack(val, lo, 3, width, g) == {0: sign, 2: 2 * sign}


def test_strided_pack_roundtrip_and_digit_bound():
    from qkron.qlaurent import _pack, _unpack

    # digit i holds the exponent 3 + 4*i; the lattice gaps take no digits
    t = {3: 127, 7: -127, 15: 5}
    assert _pack(t, 3, 4, 1, 4) == _pack({0: 127, 1: -127, 3: 5}, 0, 4, 1)
    assert _unpack(_pack(t, 3, 4, 1, 4), 3, 4, 1, 4) == t
    for top in (128, -129):
        with pytest.raises(AssertionError, match="digit bound"):
            _unpack(1 + top * 256**3, 3, 4, 1, 4)


@st.composite
def _codec_cases(draw):
    """(width, step, lo, digits, signed): every digit in its alphabet,
    [-half, half) of the base 2^(8*width) when signed and [0, base) when
    not, with the alphabet's edges, the edges of the widest (8-byte) array
    item, runs of zeros and one-digit spans."""
    width, signed = draw(st.integers(1, 24)), draw(st.booleans())
    floor = -(1 << (8 * width - 1)) if signed else 0
    ceil = floor + (1 << (8 * width)) - 1
    edges = [e for e in (floor, ceil, 1, -1, 2**64 - 1, 2**64, -(2**63) - 1) if floor <= e <= ceil]
    digit = st.one_of(st.just(0), st.sampled_from(edges), st.integers(floor, ceil))
    digits = draw(st.lists(digit, min_size=1, max_size=40))
    return width, draw(st.sampled_from((1, 2, 4))), draw(st.integers(-60, 60)), digits, signed


@given(_codec_cases(), st.booleans())
@example((1, 1, 0, [-128], True), False)
@example((8, 2, -3, [2**63 - 1, 0, 0, -(2**63)], True), True)
@example((8, 1, 0, [2**64 - 1, 1, 0, 2**63], False), False)
@example((9, 4, 5, [-(2**71), 0, 2**71 - 1], True), False)
@example((9, 2, 1, [2**72 - 1, 2**64, 0, 2**64 - 1], False), True)
@example((16, 2, -1, [-(2**127), 2**127 - 1, -(2**64), 2**64 - 1, -1], True), False)
@example((16, 1, 0, [2**128 - 1, 0, 2**64, 1], False), False)
@example((17, 4, 2, [-(2**135), 0, 2**135 - 1, -(2**128) - 1], True), True)
@example((17, 2, 0, [2**136 - 1, 2**128, 2**64 - 1, 1], False), False)
def test_codec_roundtrip(case, stub):
    import qkron.qlaurent as qlmod

    width, step, lo, digits, signed = case
    t = {lo + step * i: c for i, c in enumerate(digits) if c}
    want = sum(c << (8 * width * i) for i, c in enumerate(digits))
    with pytest.MonkeyPatch.context() as mp:
        if stub:  # an int subclass in place of the module's _mpz
            mp.setattr(qlmod, "_mpz", type("Z", (int,), {}))
        # only signed digits are packed; the family scan builds its unsigned
        # values by shifts, as want is built here
        val = qlmod._pack(t, lo, len(digits), width, step) if signed else qlmod._mpz(want)
        assert val == want
        assert qlmod._unpack(val, lo, len(digits), width, step, signed) == t


@st.composite
def _pooled_cases(draw):
    """(width, signed, cap, spans): one digit alphabet at one width, a pool
    of at most cap ints, and the (lo, step, digits) of the values it keys,
    at strides 1-4, overlapping, apart or beyond the cap."""
    width, signed = draw(st.integers(1, 24)), draw(st.booleans())
    floor = -(1 << (8 * width - 1)) if signed else 0
    digit = st.one_of(st.just(0), st.integers(floor, floor + (1 << (8 * width)) - 1))
    span = st.tuples(st.integers(-300, 600), st.integers(1, 4),
                     st.lists(digit, min_size=1, max_size=20))
    return width, signed, draw(st.integers(0, 1000)), draw(st.lists(span, min_size=1, max_size=6))


@given(_pooled_cases())
@example((1, True, 0, [(5, 1, [1, 2])]))
@example((9, False, 10, [(300, 2, [1, 0, 3]), (296, 3, [0, 7]), (290, 1, [2] * 8)]))
def test_codec_pooled_keys_match_new_keys(case):
    import qkron.qlaurent as qlmod

    width, signed, cap, spans = case
    keys, decoded = qlmod._Keys(cap), []
    for lo, step, digits in spans:
        val = sum(c << (8 * width * i) for i, c in enumerate(digits))
        t = qlmod._unpack(val, lo, len(digits), width, step, signed, keys)
        # equal dicts, in the same order
        assert list(t.items()) == list(qlmod._unpack(val, lo, len(digits), width, step, signed).items())
        assert keys.ints == list(range(keys.lo, keys.lo + len(keys.ints))) and len(keys.ints) <= cap
        decoded.append(t)
    # within the cap every exponent is one object
    stops = [lo + step * (len(digits) - 1) + 1 for lo, step, digits in spans]
    if max(stops) - min(lo for lo, _, _ in spans) <= cap:
        ks = [k for t in decoded for k in t]
        assert len({id(k) for k in ks}) == len(set(ks))


def test_sparse_elements_decode_without_a_pool_longer_than_their_digits(monkeypatch):
    import qkron.qlaurent as qlmod
    from qkron.torus import TorusElement, left_divide

    pools = []

    class Spy(qlmod._Keys):
        __slots__ = ()

        def span(self, lo, length, step):
            pools.append(self)
            return super().span(lo, length, step)

    monkeypatch.setattr(qlmod, "_Keys", Spy)
    # two coefficients of 3 and 2 digits about 10^6 exponents apart
    t = {(0, 0): {0: 5, 1: -2, 2: 7}, (1, 0): {10**6: 3, 10**6 + 1: 1}}
    width = qlmod._digit_width(qlmod._max_coeff(t))
    packed = qlmod._Packed(qlmod._pack_terms(t, width, 1), width, 1, 7)
    assert qlmod._decode_terms(packed) == t
    n = TorusElement({key: QLaurent(c) for key, c in t.items()})
    assert left_divide(TorusElement.one(), packed) == n
    assert pools and max(len(p.ints) for p in pools) <= 5


@st.composite
def _respace_cases(draw):
    """(old width, new width, digits): signed digits that fit the narrower
    width, with its edges, the edges of the widest array item and zeros."""
    old, new = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    half = 1 << (8 * min(old, new) - 1)
    edges = [e for e in (-half, half - 1, 1, -1, 2**63 - 1, -(2**63), 2**64) if -half <= e < half]
    digit = st.one_of(st.just(0), st.sampled_from(edges), st.integers(-half, half - 1))
    return old, new, draw(st.lists(digit, min_size=1, max_size=40))


@given(_respace_cases(), st.booleans())
@example((1, 9, [-128, 127, 0, -1]), False)
@example((9, 1, [-128, 0, 127, 1]), True)
@example((8, 17, [2**63 - 1, -(2**63), 0, 2**62]), False)
@example((12, 3, [-(2**23), 2**23 - 1, -1]), False)
def test_codec_respace_matches_a_fresh_pack(case, stub):
    import qkron.qlaurent as qlmod

    old, new, digits = case
    t = {i: c for i, c in enumerate(digits) if c}
    with pytest.MonkeyPatch.context() as mp:
        if stub:  # an int subclass in place of the module's _mpz
            mp.setattr(qlmod, "_mpz", type("Z", (int,), {}))
        val = qlmod._respace(qlmod._pack(t, 0, len(digits), old), len(digits), old, new)
        assert val == qlmod._pack(t, 0, len(digits), new)
        assert qlmod._unpack(val, 0, len(digits), new) == t


@given(st.integers(1, 24), st.integers(1, 24), st.data())
def test_codec_respace_moves_unsigned_digits(old, new, data):
    from qkron.qlaurent import _respace, _unpack

    # digits that fill the narrower width, its edges and zeros among them
    top = 256 ** min(old, new) - 1
    digit = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    digits = data.draw(st.lists(digit, min_size=1, max_size=40))

    def packed(width):
        return sum(d << (8 * width * i) for i, d in enumerate(digits))

    val = _respace(packed(old), len(digits), old, new, False)
    assert val == packed(new)
    assert _unpack(val, 0, len(digits), new, 1, False) == {i: d for i, d in enumerate(digits) if d}


def test_unsigned_digit_width_is_the_bytes_of_its_bound():
    from qkron.qlaurent import _digit_width

    for bound in (0, 1, 255, 256, 2**64 - 1, 2**64, 2**71):
        width = _digit_width(bound, False)
        assert bound < 256**width and (width == 1 or bound >= 256 ** (width - 1))


def test_unsigned_codec_refuses_a_negative_value_or_one_past_its_span():
    from qkron.qlaurent import _unpack

    for width in (1, 8, 9, 16, 17):
        base = 1 << (8 * width)
        val = (base - 1) + base  # the digits base - 1, then 1
        assert _unpack(val, 0, 2, width, 2, False) == {0: base - 1, 2: 1}
        # a negative value, and a third digit past the two of the span
        for bad in (-1, -val, val + base**2, base**2):
            with pytest.raises(AssertionError, match="digit bound"):
                _unpack(bad, 0, 2, width, 2, False)


def test_pack_refuses_what_it_cannot_place():
    from qkron.qlaurent import _pack

    for t, width in (({0: 128}, 1), ({2: -129}, 1), ({0: 2**71}, 9), ({0: -(2**71) - 1}, 9)):
        with pytest.raises(AssertionError, match="digit bound"):
            _pack(t, 0, 2, width, 2)
    # the span is the exponents 0, 2, 4, 6
    for t in ({0: 1, 3: 1}, {0: 1, 8: 1}, {-2: 1, 4: 1}):
        with pytest.raises(AssertionError, match="off the lattice or outside the span"):
            _pack(t, 0, 4, 1, 2)


def test_text_forms():
    p = QLaurent({0: 1, 2: -3, 5: 1})
    assert str(p) == "1 - 3*q + q^(5/2)"
    assert p.format_descending() == "q^(5/2)-3q+1"
    assert str(QLaurent.zero()) == "0"
    assert (1 + q).format_descending() == "q+1"


def test_json_roundtrip():
    p = QLaurent({-3: 12345678901234567890, 0: -1, 7: 4})
    obj = p.to_obj()
    assert obj["coeffs"][0] == {"q2": -3, "c": "12345678901234567890"}
    assert QLaurent.from_obj(obj) == p


@pytest.mark.parametrize("obj", [
    {"coeffs": [{"q2": 1.5, "c": "2"}]},  # int() would cut the exponent to 1
    {"coeffs": [{"q2": True, "c": "2"}]},
    {"coeffs": [{"q2": "1", "c": "2"}]},  # exponents are JSON integers only
    {"coeffs": [{"q2": 1, "c": 2.0}]},
    {"coeffs": [{"q2": 1, "c": "2.5"}]},
    {"coeffs": [{"q2": 1, "c": "1_000"}]},
    {"coeffs": [{"q2": 1, "c": " 7"}]},
    {"coeffs": [{"q2": 1, "c": "-"}]},
    {"coeffs": [{"q2": 1, "c": "x"}]},
    {"coeffs": [{"c": "2"}]},
    {"coeffs": {"q2": 1, "c": "2"}},
    {"coeffs": [5]},
    {},
    [],
    None,
])
def test_from_obj_refuses_all_but_integers(obj):
    with pytest.raises(InvalidParameter):
        QLaurent.from_obj(obj)


def test_from_obj_reads_int_and_decimal_coefficients():
    obj = {"coeffs": [{"q2": -1, "c": -7}, {"q2": 4, "c": "-12345678901234567890"}]}
    assert QLaurent.from_obj(obj) == QLaurent({-1: -7, 4: -12345678901234567890})


def test_constants_hash_as_their_ints():
    assert len({ONE, 1}) == 1 and len({QLaurent.zero(), 0}) == 1
    assert {QLaurent.const(5): "p", 5: "int"} == {5: "int"}


@given(qlaurents)
def test_shift_scale(p):
    assert p.shift2(4).shift2(-4) == p
    assert p.scale(3) == p + p + p


def test_packed_mul_refuses_an_off_stride_sum(monkeypatch):
    import qkron.qlaurent as qlmod

    a = QLaurent({2 * i: i + 1 for i in range(20)})

    def off_stride(*args):
        raise qlmod._OffStride(2)

    monkeypatch.setattr(qlmod, "_add_aligned", off_stride)
    with pytest.raises(AssertionError):
        a * a
