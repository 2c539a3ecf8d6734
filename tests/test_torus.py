import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkron.errors import DivisionFailed, InvalidParameter
from qkron.qlaurent import ONE, QLaurent
from qkron.torus import X1, X2, TorusElement, left_divide, word_to_torus

qlaurents = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-9, 9)), min_size=0, max_size=3
).map(QLaurent)

torus_elements = st.lists(
    st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), qlaurents),
    min_size=0,
    max_size=3,
).map(TorusElement)


def q_scalar(k2=2):
    return TorusElement.scalar(QLaurent.q_power(k2))


def test_product_examples():
    x1x2 = X1 * X2
    assert x1x2 * x1x2 == TorusElement.monomial(2, 2, QLaurent.q_power(-2))
    assert TorusElement.one() * x1x2 == x1x2
    # conjugation by X1 scales by q^b
    for a in (-2, 0, 3):
        for b in (-1, 0, 2):
            e = TorusElement.monomial(a, b)
            assert X1 * e * TorusElement.monomial(-1, 0) == e.scale2(2 * b)


def test_pow_examples():
    x1x2 = X1 * X2
    assert x1x2**2 == x1x2 * x1x2
    assert x1x2**0 == TorusElement.one()
    # specialized word powers: (x^1 y^2)^3 = q^(-2*C(3,2)) x^3 y^6
    assert word_to_torus(1, 2) ** 3 == word_to_torus(3, 6).scale2(-12)


def test_word_specialization():
    assert word_to_torus(1, 0) == TorusElement.monomial(1, 0, QLaurent.q_power(1))
    assert word_to_torus(0, 0) == TorusElement.one()
    assert word_to_torus(-1, 2) == TorusElement.monomial(-1, 2, QLaurent.q_power(-3))


def test_word_commutation_identity():
    # x^a y^b = q^(ab) y^b x^a under the torus specialization
    for a in range(-5, 6):
        for b in range(-5, 6):
            lhs = word_to_torus(a, 0) * word_to_torus(0, b)
            rhs = (word_to_torus(0, b) * word_to_torus(a, 0)).scale2(2 * a * b)
            assert lhs == rhs


def test_word_power_closed_form():
    for a in range(-2, 3):
        for b in range(-2, 3):
            for i in range(0, 5):
                lhs = word_to_torus(a, b) ** i
                rhs = word_to_torus(a * i, b * i).scale2(-2 * a * b * math.comb(i, 2))
                assert lhs == rhs


def test_left_divide_examples():
    n = TorusElement.monomial(0, 2, QLaurent.q_power(2)) + TorusElement.one()
    z = left_divide(X1, n)
    assert X1 * z == n
    assert z == TorusElement.monomial(-1, 2, QLaurent.q_power(2)) + TorusElement.monomial(-1, 0)

    e = TorusElement.monomial(2, -3, QLaurent({0: 5, 1: -2}))
    assert left_divide(TorusElement.one(), e) == e

    with pytest.raises(DivisionFailed):
        left_divide(X1 + X2, X1)


def test_left_divide_guards():
    with pytest.raises(InvalidParameter):
        left_divide(TorusElement.zero(), X1)
    assert left_divide(X1, TorusElement.zero()) == TorusElement.zero()
    # non-unit leading coefficient
    bad = TorusElement.monomial(1, 0, QLaurent({0: 2}))
    with pytest.raises(DivisionFailed):
        left_divide(bad, X1 * X1)


@given(torus_elements, torus_elements, torus_elements)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(torus_elements, torus_elements, torus_elements)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@st.composite
def unit_leading(draw):
    e = draw(torus_elements.filter(bool))
    key, _ = e.lex_leading()
    terms = dict(e.items())
    terms[key] = QLaurent.q_power(draw(st.integers(-4, 4)), draw(st.sampled_from((1, -1))))
    return TorusElement(terms.items())


@given(unit_leading(), torus_elements)
def test_division_roundtrip(d, z):
    assert left_divide(d, d * z) == z


def test_construction_rejects_non_integer_terms():
    for terms in ({(0, 0): 1.5}, {(0.5, 1): 1}, {(1, 2.0): ONE}, {(0, 0): "q"}):
        with pytest.raises(InvalidParameter):
            TorusElement(terms)
    assert TorusElement({(1, -2): 3}) == TorusElement.monomial(1, -2, QLaurent.const(3))
    assert TorusElement([((0, 0), 0), ((1, 0), 2), ((1, 0), -2)]) == TorusElement.zero()


def test_json_roundtrip():
    e = TorusElement.monomial(-2, 3, QLaurent({1: 7})) + TorusElement.monomial(
        0, -1, QLaurent({-4: -2})
    )
    obj = e.to_obj()
    assert obj["terms"][0]["x1"] == -2
    assert TorusElement.from_obj(obj) == e


@pytest.mark.parametrize("obj", [
    {"terms": [{"x1": 1.5, "x2": 0, "coeff": ONE.to_obj()}]},
    {"terms": [{"x1": 1, "x2": "0", "coeff": ONE.to_obj()}]},
    {"terms": [{"x1": False, "x2": 0, "coeff": ONE.to_obj()}]},
    {"terms": [{"x1": 1, "x2": 0, "coeff": {"coeffs": [{"q2": 0.5, "c": "1"}]}}]},
    {"terms": [{"x1": 1, "x2": 0, "coeff": []}]},
    {"terms": [{"x1": 1, "x2": 0}]},
    {"terms": [{"x2": 0, "coeff": ONE.to_obj()}]},
    {"terms": 5},
    {},
])
def test_from_obj_refuses_all_but_integers(obj):
    with pytest.raises(InvalidParameter):
        TorusElement.from_obj(obj)


def _bilinear(a, b):
    acc = TorusElement.zero()
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            acc = acc + TorusElement.monomial(
                a1 + a2, b1 + b2, (c1 * c2).shift2(-2 * b1 * a2)
            )
    return acc


def test_large_product_path_with_and_without_gmp(monkeypatch):
    import random

    import qkron.qlaurent as qlmod
    from qkron.torus import _mul_large

    rng = random.Random(11)

    def rnd(nt, nc):
        return TorusElement(
            (
                (rng.randrange(-5, 6), rng.randrange(-5, 6)),
                QLaurent(
                    (rng.randrange(-30, 31), rng.randrange(-99, 100))
                    for _ in range(nc)
                ),
            )
            for _ in range(nt)
        )

    pairs = [(rnd(40, 8), rnd(40, 8)) for _ in range(3)]
    fast = [_mul_large(a._t, b._t) for a, b in pairs if a and b]
    monkeypatch.setattr(qlmod, "_mpz", lambda x: x)
    slow = [_mul_large(a._t, b._t) for a, b in pairs if a and b]
    assert fast == slow
    # and against the plain bilinear accumulation
    for (a, b), want in zip([(a, b) for a, b in pairs if a and b], slow):
        assert _bilinear(a, b) == want


def test_large_product_stride_covers_accumulation_gaps():
    from qkron.torus import _mul_large

    # every coefficient has stride 4 in doubled exponents, but the two pair
    # products landing on X1 X2 have bases 2 apart: the stride must be 2
    c = QLaurent({4 * i: i + 1 for i in range(5)})
    a = TorusElement({(0, 1): c, (1, 0): c})
    b = TorusElement({(1, 0): c, (0, 1): c})
    assert _mul_large(a._t, b._t) == _bilinear(a, b)


def test_product_kernel_accumulates_in_place():
    from qkron.qlaurent import _mul_pairs, _twisted
    from qkron.torus import _terms

    # the dense pair takes the packed loop, and its two sums at X1 X2 cancel
    # and drop their key; the one-term pair takes the dict loop
    c = QLaurent({4 * i: i + 1 for i in range(5)})
    dense = (TorusElement({(0, 1): c, (1, 0): c}), TorusElement({(1, 0): c, (0, 1): -c.shift2(-2)}))
    one_term = (TorusElement.monomial(1, 0), TorusElement.monomial(0, 1, c))
    for a, b in (one_term, dense):
        t1, t2 = _terms(a._t), _terms(b._t)
        got = _mul_pairs(t1, t2, _twisted(t1, t2))
        assert TorusElement(((k, QLaurent(d)) for k, d in got.items())) == _bilinear(a, b)
        assert all(got.values())
    assert (1, 1) not in got  # the dense product's


def test_a_square_lists_each_pair_once_with_its_mirror_after_it():
    from qkron.qlaurent import _twisted

    t = {(a, b): {0: 1} for a in range(-2, 3) for b in range(3)}
    pairs = _twisted(t, t)
    # the pairs of a product by an equal but distinct operand, reordered
    assert sorted(pairs) == sorted(_twisted(t, dict(t)))
    seen, i = set(), 0
    while i < len(pairs):
        k1, k2 = pairs[i][2:]
        assert frozenset((k1, k2)) not in seen
        seen.add(frozenset((k1, k2)))
        if k1 != k2:
            assert pairs[i + 1][2:] == (k2, k1)
        i += 1 if k1 == k2 else 2
    assert len(seen) == len(t) * (len(t) + 1) // 2


class _Counted(int):
    """An int whose products are counted, to see which products run."""

    products: list = []

    def __mul__(self, other):
        _Counted.products.append(1)
        return int(self) * int(other)

    __rmul__ = __mul__


def _square_and_copy(monkeypatch, t):
    """The packed square of the term map t, and the same product taken with
    an equal but distinct right operand, each with its count of products."""
    import qkron.qlaurent as qlmod

    monkeypatch.setattr(qlmod, "_mpz", _Counted)
    out = []
    for t2 in (t, {key: dict(d) for key, d in t.items()}):
        _Counted.products = []
        prod = qlmod._mul_packed(t, t2, qlmod._twisted(t, t2))
        assert isinstance(prod, qlmod._Packed)
        out.append((qlmod._decode_terms(prod), len(_Counted.products)))
    return out


def test_a_packed_square_multiplies_each_coefficient_pair_once(monkeypatch):
    import random

    from qkron.cluster import xvar_recursive
    from qkron.torus import _terms

    # the square of x^3 in the last step of (7, 5): 46 keys of many terms
    x = xvar_recursive(7, 4).scale2(1)
    cases = [_terms((x**3)._t)]
    rng = random.Random(24)
    grid = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    for _ in range(20):
        # enough work to pack; some coefficients of one term, which pack as plain ints
        cases.append({key: QLaurent((2 * rng.randrange(-9, 10), rng.randrange(1, 51))
                                    for _ in range(rng.choice([1, 5, 9])))._t
                      for key in rng.sample(grid, rng.randint(4, 9))})
    for t in cases:
        (square, reused), (want, every) = _square_and_copy(monkeypatch, t)
        assert square == want
        # each mirror reuses its pair's product; one-term coefficients stay
        # plain ints, so only products with a packed side are counted
        n, few = len(t), sum(len(d) == 1 for d in t.values())
        assert every - reused == n * (n - 1) // 2 - few * (few - 1) // 2 > 0


def test_a_product_of_distinct_operands_reuses_no_product():
    from qkron.qlaurent import _mul_dicts, _mul_packed, _mul_pairs, _twisted

    # (b, a) follows (a, b) on the same key objects, but t1[b] t2[a] differs from t1[a] t2[b]
    a, b = (0, 1), (1, 0)
    c = {2 * i: i + 1 for i in range(12)}
    t1 = {a: c, b: {k: 2 * v for k, v in c.items()}}
    t2 = {a: {k: 3 * v for k, v in c.items()}, b: {k: 5 * v for k, v in c.items()}}
    pairs = _twisted(t1, t2)
    assert [pair[2:] for pair in pairs] == [(a, a), (a, b), (b, a), (b, b)]
    assert _mul_packed(t1, t2, pairs) is not None
    assert _mul_pairs(t1, t2, pairs) == _mul_dicts(t1, t2, pairs)


def test_only_the_packed_loop_packs_a_product(monkeypatch):
    import qkron.qlaurent as qlmod
    from qkron.torus import _pack_element, _terms

    # small work, which a decoded product takes to the dict loop
    small = (X1 + TorusElement.monomial(0, 1, QLaurent({4: -3, 10: 7})), X2 - X1)
    cases = [(*(_terms(x._t) for x in small), None),
             # 3 q - 3 q on one key: a product that cancels to nothing
             ({0: {0: 1}, 1: {0: -1}}, {0: {2: 3}}, [(0, 0, 0, 0), (0, 0, 1, 0)])]
    mul_dicts, dict_products = qlmod._mul_dicts, []
    monkeypatch.setattr(qlmod, "_mul_dicts", lambda *args: dict_products.append(1) or mul_dicts(*args))
    for t1, t2, pairs in cases:
        pairs = pairs or qlmod._twisted(t1, t2)
        prod = qlmod._mul_packed(t1, t2, pairs)
        assert isinstance(prod, qlmod._Packed) and dict_products == []
        assert qlmod._decode_terms(prod) == mul_dicts(t1, t2, pairs)
    assert prod.terms == {}
    # a span too sparse for the packed loop is refused before anything is
    # packed or re-spaced, from term maps and from a packed operand alike,
    # and no dict-loop product is packed in its place
    c = QLaurent({0: 1, 2: 1, 4: 1, 2000: 1})
    x1 = TorusElement(((i % 8, i // 8), c.shift2(i)) for i in range(32))
    t1, t2 = _terms(x1._t), _terms(TorusElement(((i // 4 - 3, i % 4), c) for i in range(32))._t)
    p1 = _pack_element(x1)
    packs = []
    _spy_pack(monkeypatch, lambda t, length, step: packs.append(length))
    respace = qlmod._respace
    monkeypatch.setattr(qlmod, "_respace", lambda *a: packs.append(a) or respace(*a))
    for left in (t1, p1):
        with pytest.raises(AssertionError, match="padding bound"):
            qlmod._mul_packed(left, t2, qlmod._twisted(t1, t2))
    assert packs == [] and dict_products == []


def _chain(t, e, extra=0, finer=False):
    """X^e of the term map t by the packed chain of the exchange step, each
    product checked against the plan of its decoded operands; returns the
    (left width, right width, product width, left stride, right stride,
    product stride) of every product.  X is packed once, extra bytes a
    digit wider than its own rule, and at stride 1 when finer."""
    import qkron.qlaurent as qlmod
    from qkron.torus import _mul_large, _pack_element, _terms

    x = TorusElement((key, QLaurent(d)) for key, d in t.items())
    p = _pack_element(x)
    width, g = p.width + extra, 1 if finer else p.g
    p = p._replace(terms=qlmod._pack_terms(t, width, g), width=width, g=g)
    seen = []

    def times(a, b):
        prod = _mul_large(a, b)
        da = qlmod._decode_terms(a)
        db = da if b is a else qlmod._decode_terms(b)
        want = qlmod._mul_packed(da, db, qlmod._twisted(da, db))
        # the width, stride and bound of the one rule, and the same product
        assert prod[1:] == want[1:]
        assert qlmod._decode_terms(prod) == qlmod._decode_terms(want)
        seen.append((a.width, b.width, prod.width, a.g, b.g, prod.g))
        return prod

    power = qlmod._power(p, e, None, times)
    assert qlmod._decode_terms(power) == _terms((x**e)._t)
    return seen


@st.composite
def _chain_cases(draw):
    """(t, e, extra, finer): a signed torus element with dense coefficients
    on a lattice, some of one term and some past 8 bytes a digit."""
    lattice, scale = draw(st.sampled_from((1, 2, 4))), draw(st.sampled_from((1, 1, 2**40, 2**70)))
    keys = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                         min_size=1, max_size=5, unique=True))
    t = {}
    for key in keys:
        lo = draw(st.integers(-8, 8))
        digits = draw(st.lists(st.integers(-9, 9), min_size=0, max_size=3))
        digits.insert(0, draw(st.integers(-9, 9).filter(bool)))
        t[key] = {lo + lattice * i: c * scale for i, c in enumerate(digits) if c}
    return t, draw(st.integers(2, 7)), draw(st.integers(0, 3)), draw(st.booleans())


@given(_chain_cases())
def test_packed_chain_equals_the_decoded_power(case):
    assert _chain(*case)


def test_packed_chain_meets_every_conversion():
    # the cases of the property test that each conversion needs
    c = {2 * i: (-1) ** i * (i + 1) for i in range(6)}
    seen = [*_chain({(1, 0): c, (0, 1): {3: 2**70}}, 7),
            *_chain({(1, 0): c, (-1, 2): {4: -5}}, 6, extra=3),
            *_chain({(1, 0): c, (2, 1): c}, 5, finer=True)]
    assert any(w > 8 for _, _, w, _, _, _ in seen)  # digits past 8 bytes
    assert any(p < max(a, b) for a, b, p, _, _, _ in seen)  # a product narrower than an operand
    assert any(p > min(a, b) for a, b, p, _, _, _ in seen)  # and one wider
    assert any(p > min(a, b) for _, _, _, a, b, p in seen)  # an operand at a finer stride


def _old_width(t1, t2, pairs):
    """The digit width of the former rule, max|t1| max|t2| min(max nnz)
    fanin, read off the decoded operands."""
    from collections import Counter

    from qkron.qlaurent import _decode_terms, _digit_width, _max_coeff, _Packed

    t1, t2 = (_decode_terms(t) if isinstance(t, _Packed) else t for t in (t1, t2))
    fanin = max(Counter(key for key, _, _, _ in pairs).values())
    nnz = min(max(map(len, t1.values())), max(map(len, t2.values())))
    return _digit_width(_max_coeff(t1) * _max_coeff(t2) * nnz * fanin)


def _spy_widths(monkeypatch):
    """Record (width, former rule's width) of every packed pair product,
    decoded ones and the recursion's packed powers alike."""
    import qkron.qlaurent as qlmod
    import qkron.torus as tmod

    widths, mul = [], qlmod._mul_packed

    def spy(t1, t2, pairs, *args, **kwargs):
        out = mul(t1, t2, pairs, *args, **kwargs)
        if out is not None:
            widths.append((out.width, _old_width(t1, t2, pairs)))
        return out

    for mod in (qlmod, tmod):
        monkeypatch.setattr(mod, "_mul_packed", spy)
    return widths


def test_per_key_bound_narrows_digits_where_large_coefficients_never_meet(monkeypatch):
    # the 2^60 coefficient meets only the 40-term +-1 coefficients, whose
    # sum of |c| is 40, so every output digit is at most 2^60; the former
    # rule took 2^60 * 1 * 40 terms * 2 pairs on X1 X2, a ninth byte
    widths = _spy_widths(monkeypatch)
    p = QLaurent({2 * i: (-1) ** (i // 3) for i in range(40)})
    a = TorusElement({(0, 0): QLaurent.const(-(2**60)), (1, 0): p})
    b = TorusElement({(0, 0): p, (0, 1): p.shift2(2), (1, 1): -p})
    got = a * b
    assert widths == [(8, 9)]
    assert got == _bilinear(a, b)


def test_recursion_widths_never_exceed_the_former_rule(monkeypatch):
    from qkron.cluster import gr_table, xvar_recursive

    widths = _spy_widths(monkeypatch)
    xvar_recursive.cache_clear()
    for r, n in ((7, 5), (6, 5), (3, 6)):
        gr_table(r, n)
    assert widths and all(new <= old for new, old in widths)
    assert any(new < old for new, old in widths)  # (6, 5): 5 -> 4 bytes


def _spy_adds(monkeypatch):
    """Record, per ``_add_aligned`` call, whether the added value has a
    nonzero lowest digit and whether the sum left on its key has a zero one."""
    import qkron.qlaurent as qlmod

    adds, add = [], qlmod._add_aligned

    def spy(acc, key, val, lo, hi, step, bits):
        add(acc, key, val, lo, hi, step, bits)
        adds.append((val % (1 << bits) != 0, key in acc and acc[key][0] % (1 << bits) == 0))

    monkeypatch.setattr(qlmod, "_add_aligned", spy)
    return adds


def test_packed_sums_that_cancel_their_lowest_digits_decode_exactly(monkeypatch):
    from qkron.torus import _mul_large

    # at X1 X2 the pairs c * c and q^-1 c * (-q c') share a base, and the sum
    # -c * (c' - c) keeps only high digits: lo stays below the live digits
    c = QLaurent({4 * i: i + 1 for i in range(5)})
    c_ = c + QLaurent({40: 1, 44: 2})
    a = TorusElement({(1, 0): c, (0, 1): c})
    b = TorusElement({(0, 1): c, (1, 0): -c_.shift2(2)})
    adds = _spy_adds(monkeypatch)
    assert _mul_large(a._t, b._t) == _bilinear(a, b)
    assert any(low_zero for _, low_zero in adds)


@pytest.mark.parametrize("sign", [1, -1])
def test_left_divide_trims_the_entry_it_pops(monkeypatch, sign):
    # n = d z has 1 + q + sign (q^4 + q^5) at X1; subtracting the top
    # quotient term's product leaves sign (q^4 + q^5) there over two zero
    # low digits, which the pop trims before multiplying
    z = TorusElement({(1, 0): QLaurent({0: 1, 2: 1}), (0, 0): QLaurent({8: 1, 10: 1})})
    d = TorusElement({(1, 0): sign, (0, 0): 1})
    n = d * z
    adds = _spy_adds(monkeypatch)
    assert left_divide(d, n) == z
    assert any(low_zero for _, low_zero in adds)
    assert all(low_nonzero for low_nonzero, _ in adds)


def test_one_term_coefficients_with_enough_work_take_the_packed_loop(monkeypatch):
    from qkron.torus import _mul_large

    # 10 x 10 pairs of one-term coefficients: work 100, over the dict loop's 96
    a = TorusElement(((i, i % 3), QLaurent.q_power(i, (-1) ** i * 2**70)) for i in range(10))
    b = TorusElement(((i % 4, i), QLaurent.q_power(3 * i, i + 1)) for i in range(10))
    adds = _spy_adds(monkeypatch)
    assert _mul_large(a._t, b._t) == _bilinear(a, b)
    assert len(adds) == 100


def _spy_pack(monkeypatch, check):
    """Call check(t, length, step) before every packing, in each module that
    binds ``_pack``."""
    import qkron.qlaurent as qlmod
    import qkron.torus as tmod

    pack = qlmod._pack

    def spy(t, lo, length, width, step=1):
        check(t, length, step)
        return pack(t, lo, length, width, step)

    for mod in (qlmod, tmod):
        if "_pack" in vars(mod):
            monkeypatch.setattr(mod, "_pack", spy)


def test_recursion_packs_on_the_2r_lattice(monkeypatch):
    from qkron.cluster import gr_table, xvar_recursive

    steps = []
    _spy_pack(monkeypatch, lambda t, length, step: steps.append(step))
    xvar_recursive.cache_clear()
    gr_table(3, 6)
    assert steps and set(steps) == {6}


def _sparse_operands():
    # 1 + q + q^2 + q^50000 spans 50001 digits with 4 terms: packing the
    # 1024 pairs densely takes seconds, the dict loop milliseconds
    c = QLaurent({0: 1, 2: 1, 4: 1, 100000: 1})
    a = TorusElement(((i % 8, i // 8), c.shift2(i)) for i in range(32))
    b = TorusElement(((i // 4 - 3, i % 4), c) for i in range(32))
    return a, b


def test_sparse_spans_multiply_pair_by_pair(monkeypatch):
    def check(t, length, step):
        assert length <= 64 * len(t), f"packed {len(t)} terms into {length} digits"

    _spy_pack(monkeypatch, check)
    a, b = _sparse_operands()
    assert a * b == _bilinear(a, b)


def test_a_sparse_product_is_refused_before_it_is_packed(monkeypatch):
    import time

    import qkron.qlaurent as qlmod
    from qkron.torus import _terms

    # packed anyway, the product would pad every span densely
    packs = []
    _spy_pack(monkeypatch, lambda t, length, step: packs.append(length))
    a, b = (_terms(x._t) for x in _sparse_operands())
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="padding bound"):
        qlmod._mul_packed(a, b, qlmod._twisted(a, b))
    assert time.perf_counter() - start < 0.5 and packs == []


def _spy_runs(monkeypatch):
    """Record (bound, stride) of every packed run that left_divide starts."""
    import qkron.torus as tmod

    runs = []
    run = tmod._divide_packed

    def spy(d, n, box, bound, g):
        runs.append((bound, g))
        assert len(runs) <= 40, "left_divide keeps restarting"
        return run(d, n, box, bound, g)

    monkeypatch.setattr(tmod, "_divide_packed", spy)
    return runs


def _peaked(m):
    """z = sum (-1)^k c_k P X1^k with c_k = 1, 2, ..., m, ..., 2, 1 and P of
    100 terms, so n = (X1 + 1) z has coefficients +-P only: the quotient's
    digits reach m, past the half base of the width n's bound alone gives."""
    p = QLaurent({2 * i: 1 for i in range(100)})
    z = TorusElement(
        ((k, 0), p.scale((-1) ** k * min(k + 1, 2 * m - 1 - k))) for k in range(2 * m - 1)
    )
    n = (X1 + TorusElement.one()) * z
    assert {abs(c) for _, q_ in n.items() for _, c in q_.items2()} == {1}
    return z, n


def test_left_divide_restarts_when_the_quotient_outgrows_n(monkeypatch):
    runs = _spy_runs(monkeypatch)
    z, n = _peaked(200)
    assert left_divide(X1 + TorusElement.one(), n) == z
    bounds = [b for b, _ in runs]
    assert len(runs) >= 2 and bounds == sorted(bounds) and bounds[-1] >= 200


def _off_lattice():
    """(d, z): d and n = d z have every coefficient on a q^2 lattice (doubled
    stride 4), but the quotient coefficient q - 1 at X1 does not: an
    accumulation at X1 X2 lands 2 off the remainder's lattice."""
    big = QLaurent({4 * i: i + 1 for i in range(40)})
    d = X1 + TorusElement.one() + TorusElement.monomial(0, 1, big)
    z = X1 * X1 + X1 * QLaurent({2: 1, 0: -1}) + TorusElement.one()
    return d, z - TorusElement.monomial(1, 1, big)


def test_left_divide_refines_the_stride_off_the_lattice(monkeypatch):
    # the off-lattice accumulation restarts the run at stride 2
    runs = _spy_runs(monkeypatch)
    d, z = _off_lattice()
    assert left_divide(d, d * z) == z
    assert [g for _, g in runs] == [4, 2]


def _width_cases():
    """(d, n, B, rest): d = X1^25 + sum_S P X1^i and z = sum_S B*P X1^-i.
    The products P * B*P all meet at X1^0 and nowhere else (S has distinct
    differences), so n = d z, with its X1^0 coefficient replaced by 1 (rest
    added), keeps |coefficients| <= B."""
    p7 = QLaurent({2 * i: 1 for i in range(7)})
    for big, support, p in ((8191, (0, 1, 3, 7, 12), ONE), (5461, (0,), p7)):
        d = TorusElement.monomial(25, 0) + TorusElement(((i, 0), p) for i in support)
        n = d * TorusElement(((-i, 0), p.scale(big)) for i in support)
        rest = ONE - n.coeff(0, 0)
        yield d, n + TorusElement.scalar(rest), big, rest


def test_left_divide_width_covers_every_divisor_term_and_coefficient_term(monkeypatch):
    # The remainder at X1^0 reaches the half base of a width without the
    # |d| factor (5 one-term products) or without the max-terms factor (one
    # product of 7-term coefficients) before it is decoded.  Decoded
    # exactly, it restarts the division with its true top coefficient as
    # the bound, and the next quotient term escapes the box.
    runs = _spy_runs(monkeypatch)
    for d, n, big, rest in _width_cases():
        assert max(abs(c) for _, q_ in n.items() for _, c in q_.items2()) == big
        runs.clear()
        with pytest.raises(DivisionFailed):
            left_divide(d, n)
        assert [b for b, _ in runs] == [big, max(abs(c) for _, c in rest.items2())]


def _packed_numerator(n, extra):
    """n as a packed term map, the form a product hands to the division: at
    its own stride with its largest |coefficient| as the bound, extra bytes
    a digit wider than that bound needs."""
    from qkron.qlaurent import _digit_width, _max_coeff, _offset_gcd, _pack_terms, _Packed
    from qkron.torus import _terms

    nt = _terms(n._t)
    bound, g = _max_coeff(nt), _offset_gcd(nt) or 1
    width = _digit_width(bound) + extra
    return _Packed(_pack_terms(nt, width, g), width, g, bound)


# extra = 0: a run that needs wider digits than n carries repacks it;
# extra = 6: only a finer stride does
@pytest.mark.parametrize("extra", [0, 6])
def test_left_divide_restarts_alike_from_a_packed_numerator(monkeypatch, extra):
    runs = _spy_runs(monkeypatch)
    z, n = _peaked(200)
    d, z2 = _off_lattice()
    cases = [(X1 + TorusElement.one(), n, z), (d, d * z2, z2)]
    cases += [(d, n, None) for d, n, _, _ in _width_cases()]
    for d, n, z in cases:
        seqs = []
        for m in (n, _packed_numerator(n, extra)):
            runs.clear()
            if z is None:
                with pytest.raises(DivisionFailed):
                    left_divide(d, m)
            else:
                assert left_divide(d, m) == z
            seqs.append(list(runs))
        assert seqs[1] == seqs[0] and len(seqs[0]) >= 2
    empty = _packed_numerator(n, extra)._replace(terms={})
    assert left_divide(X1, empty) == TorusElement.zero()


def test_left_divide_rejects_an_inexact_packed_division(monkeypatch):
    import random

    rng = random.Random(5)
    runs = _spy_runs(monkeypatch)

    def coeff():
        return QLaurent({2 * i: rng.randrange(-50, 51) for i in range(30)})

    d = TorusElement(((a, b), coeff()) for a in (0, 1) for b in (-1, 0, 1))
    d = d + TorusElement.monomial(2, 0)
    z = TorusElement(((a, b), coeff()) for a in range(4) for b in range(3))
    _, peaked = _peaked(200)
    # the stray terms sit inside n's support, on its leading key and outside
    # it, on and off the coefficients' lattice; the peaked quotient restarts
    # several times before the stray term is reached
    cases = [(d, d * z, (1, 1), 6), (d, d * z, (5, 2), 1), (d, d * z, (-3, 0), 6),
             (d, d * z, (0, 9), 3), (X1 + TorusElement.one(), peaked, (1, 0), 2)]
    for dd, n, (a, b), k2 in cases:
        runs.clear()
        with pytest.raises(DivisionFailed):
            left_divide(dd, n + TorusElement.monomial(a, b, QLaurent({k2: 1})))
        assert 1 <= len(runs) <= 10, runs
