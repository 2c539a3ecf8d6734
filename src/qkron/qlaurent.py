"""Exact Laurent polynomials in q^(1/2) and q-combinatorial quantities.

Exponents are stored doubled: the integer key k stands for q^(k/2), so all
bookkeeping stays in plain (arbitrary-precision) integers.  Instances are
immutable; arithmetic returns new objects.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from operator import mul, sub

from .errors import (
    DivisionFailed,
    InvalidParameter,
    NonIntegralEvaluation,
    NotAPowerSeriesInQr,
    NotSupported,
)

try:  # GMP-backed integers multiply far faster at the sizes packing produces
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - exercised via an explicit test stub
    def _mpz(x):
        return x

# Decoded products of at most this many pairs of nonzero coefficient terms go
# through the plain dict loop; larger dense operands, and every product asked
# for in packed form, are multiplied via big-integer (Kronecker) packing,
# which is much faster for the polynomials that appear in cluster-variable
# recursions.
_SCHOOLBOOK_LIMIT = 96

# Spans so sparse that packed digits would outnumber the nonzero terms by
# more than this, multiplied out, stay off the packed path.
_MAX_PADDING = 64

# -- the coefficient kernel ------------------------------------------------
#
# Coefficients are {doubled exponent: int} dicts with no zero values.  These
# helpers are the only places that add such dicts, multiply them, or pack
# them into big integers; the torus and the family scan call them too.


def _shift_add(tgt: dict, src: dict, shift: int = 0, scale: int = 1) -> dict:
    """Add scale * q^(shift/2) * src into tgt in place, dropping the
    coefficients that cancel; returns tgt."""
    get = tgt.get
    if scale == 1:
        for k, c in src.items():
            k += shift
            c += get(k, 0)
            if c:
                tgt[k] = c
            else:
                del tgt[k]
        return tgt
    for k, c in src.items():
        k += shift
        c = c * scale + get(k, 0)
        if c:
            tgt[k] = c
        else:
            del tgt[k]
    return tgt


def _digit_width(bound: int, signed: bool = True) -> int:
    """Bytes per packed digit for digits of size at most bound.  A signed
    (balanced) digit keeps 2 bits of headroom, so every |digit| stays below
    a quarter of the digit base and the balanced decode is exact; an
    unsigned digit in [0, bound] needs only the bytes of bound."""
    if signed:
        return (bound.bit_length() + 2 + 7) // 8
    return (bound.bit_length() + 7) // 8 or 1


# Digits come in one of two alphabets: signed (balanced) digits in
# [-half, half) of the digit base, for coefficients of either sign, and
# unsigned digits in [0, base), for the family scan's prefix counts, which
# only ``_unpack`` reads.  A digit of at most 8 bytes is held in a lane, the
# narrowest array item of 1, 2, 4 or 8 bytes that fits it, zero-extended
# when unsigned.  _FLIP toggles the top bit, so the two's complement of a
# signed digit d reads as d + half and back; _SIGN maps the top byte of
# d + half to the byte that sign-extends d.
_LANES = {array(code).itemsize: code for code in "bhilq"}
_UNSIGNED_LANES = {array(code).itemsize: code for code in "BHILQ"}
_FLIP = bytes(range(128, 256)) + bytes(range(128))
_SIGN = b"\xff" * 128 + b"\x00" * 128
_BIG_ENDIAN = sys.byteorder == "big"


def _offset(length: int, width: int) -> int:
    """Half the digit base in each of length digits of width bytes."""
    return int.from_bytes((b"\x00" * (width - 1) + b"\x80") * length, "little")


def _pack(t: dict, lo: int, length: int, width: int, step: int = 1):
    """The signed digits t[lo + step*i], i < length, evaluated at
    2^(8*width): one big integer (an mpz when gmpy2 is present).  Refuses,
    as an AssertionError, a digit outside [-half, half) of the base and a
    term off that lattice or outside the span.

    Up to 8 bytes a digit, its balanced value d + half is the two's
    complement of d with the top bit flipped, so the digits are written as
    lanes, cut to width bytes and flipped by C builtins."""
    digits = list(map(t.get, range(lo, lo + step * length, step), repeat(0)))
    half = 1 << (8 * width - 1)
    if max(digits) >= half or min(digits) < -half:
        raise AssertionError("packed digit outside its digit bound")
    if len(t) != length - digits.count(0):
        raise AssertionError("packed term off the lattice or outside the span")
    if width <= 8:
        lane = 1 << (width - 1).bit_length()
        lanes = array(_LANES[lane], digits)
        if _BIG_ENDIAN:
            lanes.byteswap()
        lanes = lanes.tobytes()
        raw = bytearray(length * width)
        for j in range(width - 1):
            raw[j::width] = lanes[j::lane]
        raw[width - 1 :: width] = lanes[width - 1 :: lane].translate(_FLIP)
    else:
        raw = b"".join([(c + half).to_bytes(width, "little") for c in digits])
    return _mpz(int.from_bytes(raw, "little") - _offset(length, width))


def _digits(val, length: int, width: int, signed: bool = True) -> list:
    """The length digits of a packed value, lowest first.

    Signed (balanced) digits: adding half the base to every digit makes all
    digits nonnegative without carries (|digit| < half), so the byte string
    of the shifted value can be read windowwise.  Unsigned digits are read
    as they are.  A value outside [0, base^length), after the shift, is
    refused: a digit outside its alphabet leaves it there when it is the top
    digit.  Up to 8 bytes a digit, each digit is read as a lane by one array
    conversion: a signed one with its top bit flipped back and sign-extended,
    an unsigned one zero-extended.
    """
    val = int(val + _offset(length, width)) if signed else int(val)
    if val < 0 or val.bit_length() > 8 * width * length:
        raise AssertionError("packed multiplication exceeded its digit bound")
    raw = val.to_bytes(length * width, "little")
    if width > 8:
        half = 1 << (8 * width - 1) if signed else 0
        frm = int.from_bytes
        return [frm(raw[i : i + width], "little") - half for i in range(0, length * width, width)]
    lane = 1 << (width - 1).bit_length()
    if signed:
        lanes = bytearray(lane * length)
        for j in range(width - 1):
            lanes[j::lane] = raw[j::width]
        top = raw[width - 1 :: width]
        lanes[width - 1 :: lane] = top.translate(_FLIP)
        top = top.translate(_SIGN)
        for j in range(width, lane):
            lanes[j::lane] = top
    elif width == lane:  # the digits are the lanes
        lanes = raw
    else:
        lanes = bytearray(lane * length)
        for j in range(width):
            lanes[j::lane] = raw[j::width]
    digits = array((_LANES if signed else _UNSIGNED_LANES)[lane], lanes)
    if _BIG_ENDIAN:
        digits.byteswap()
    return digits.tolist()


class _Keys:
    """The exponent keys of one decoded element: a pool of consecutive int
    objects, so that every occurrence of an exponent is one object.  It
    grows to cover each span it serves while it holds at most cap ints; a
    span past that takes new ints."""

    __slots__ = ("ints", "lo", "cap")

    def __init__(self, cap: int):
        self.ints, self.lo, self.cap = [], 0, cap

    def span(self, lo: int, length: int, step: int):
        """The keys lo, lo + step, ..., one per digit of length digits."""
        ints, stop = self.ints, lo + step * (length - 1) + 1
        base = self.lo if ints else lo
        top = base + len(ints)
        if max(top, stop) - min(base, lo) > self.cap:
            return range(lo, stop, step)
        ints[:0] = range(lo, base)
        ints += range(top, stop)
        self.lo = base = min(base, lo)
        return ints[lo - base : stop - base : step]


def _unpack(val, lo: int, length: int, width: int, step: int = 1, signed: bool = True,
            keys: _Keys | None = None) -> dict:
    """Decode of a packed value into {lo + step*i: digit}, dropping zeros
    (see ``_digits``), keyed from the pool keys when one is given."""
    digits = _digits(val, length, width, signed)
    span = range(lo, lo + step * length, step) if keys is None else keys.span(lo, length, step)
    return dict(compress(zip(span, digits), digits))


def _respace(val, length: int, old: int, new: int, signed: bool = True):
    """A value of length digits of old bytes each, with every digit moved to
    new bytes, for digits that fit both widths.  Column by column in C: an
    unsigned digit is its bytes; of a signed one, the bytes of its two's
    complement below the narrower top byte are kept, a wider digit takes
    sign bytes (see ``_SIGN``), and the new top byte is flipped back to the
    balanced digit."""
    if not signed:
        raw = int(val).to_bytes(length * old, "little")
        out = bytearray(length * new)
        for j in range(min(old, new)):
            out[j::new] = raw[j::old]
        return _mpz(int.from_bytes(out, "little"))
    raw = int(val + _offset(length, old)).to_bytes(length * old, "little")
    top = raw[old - 1 :: old]
    sign = top.translate(_SIGN)
    out = bytearray(length * new)
    for j in range(new):
        col = raw[j::old] if j < old - 1 else top.translate(_FLIP) if j == old - 1 else sign
        out[j::new] = col.translate(_FLIP) if j == new - 1 else col
    return _mpz(int.from_bytes(out, "little") - _offset(length, new))


class _OffStride(AssertionError):
    """A packed sum landed off its stride; args[0] is the gap.  ``left_divide``
    guesses its stride and reruns at gcd(stride, gap); ``_mul_packed`` and
    the family scan prove theirs, so there the exception fails as the
    assertion it is."""


def _add_aligned(acc: dict, key, val, lo: int, hi: int, step: int, bits: int) -> None:
    """acc[key] += val for entries [packed value, lo, hi] on the digits lo,
    lo + step, ..., hi at base 2^bits, shifted into place by whole digits.
    A sum of 0 drops the key.  [lo, hi] bounds the live digits from outside:
    digits that cancel at either end stay inside the span.  Raises
    ``_OffStride``, changing nothing, when lo is off the entry's lattice."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = [val, lo, hi]
        return
    gap = lo - cur[1]
    if gap % step:
        raise _OffStride(gap)
    if gap < 0:
        cur[0] = (cur[0] << (-gap // step * bits)) + val
        cur[1] = lo
    else:
        cur[0] += val << (gap // step * bits)
    cur[2] = max(cur[2], hi)
    if not cur[0]:
        del acc[key]


def _decode(entry, width: int, g: int, shift: int = 0, r: int = 1, keys: _Keys | None = None) -> dict:
    """The coefficient of a packed entry [value, lo, hi] at stride g, each
    exponent k keyed as (k - shift) / r: the caller proves that integral
    on every digit, by r | lo - shift and, past one digit, r | g.

    [lo, hi] bounds the live digits from outside, so only the live top
    digits are read and ``_unpack`` drops the zero low ones.  Every |digit|
    is below a quarter of the base B (see ``_digit_width``), so a top
    nonzero digit at index k gives |value| > B^k / 2 and the bit length
    keeps it; an overflowed top digit keeps the full length, and
    ``_unpack`` refuses it as before.  keys is the element's key pool."""
    val, lo, _ = entry
    return _unpack(val, (lo - shift) // r, _live(entry, width, g), width, g // r or 1, True, keys)


def _live(entry, width: int, g: int) -> int:
    """The digits of a packed entry [value, lo, hi] at stride g that
    ``_decode`` reads: the span, cut to the top nonzero digit."""
    val, lo, hi = entry
    return min((hi - lo) // g + 1, val.bit_length() // (8 * width) + 1)


# -- the pair product -----------------------------------------------------------
#
# A term map {key: {doubled exponent: int}} holds nonzero coefficients.  A
# pair product sums q^(shift/2) t1[k1] t2[k2] into out_key over a list of
# (out_key, doubled shift, k1, k2) pairs.  Keyed by (a, b), a term map stands
# for the quantum-torus element sum c_{a,b}(q) X1^a X2^b and _twisted lists
# the pairs of its normal-form product; mat_mul lists the pairs of a matrix
# product, and a QLaurent product is the one pair (0, 0, 0, 0).  Every
# product is planned by _mul_packed: a decoded one, in QLaurent, the torus
# and mat_mul, through _mul_pairs, and the recursion's packed powers
# directly; the two writers of monomial products, the division step (the
# divisor times a quotient monomial) and the family scan, write that case
# out.


def _twisted(t1: dict, t2: dict) -> list:
    """(key, doubled shift, k1, k2) for every pair of keys: the normal form
    (X1^a1 X2^b1)(X1^a2 X2^b2) = q^(-b1*a2) X1^(a1+a2) X2^(b1+b2).  For a
    square (t2 is t1) each pair (k1, k2) is followed by its mirror (k2, k1),
    which needs the same coefficient product (see ``_mul_packed_pairs``)."""
    if t2 is t1:
        keys = list(t1)
        return [((k1[0] + k2[0], k1[1] + k2[1]), -2 * k1[1] * k2[0], k1, k2)
                for i, a in enumerate(keys) for b in keys[i:]
                for k1, k2 in (((a, b), (b, a)) if a is not b else ((a, a),))]
    return [((k1[0] + k2[0], k1[1] + k2[1]), -2 * k1[1] * k2[0], k1, k2)
            for k1 in t1 for k2 in t2]


def _mul_dicts(t1: dict, t2: dict, pairs: list) -> dict:
    """The pair product pair by pair: one shifted, scaled copy of the longer
    coefficient per term of the shorter.  Keys that cancel are dropped."""
    acc: dict = {}
    for key, sh, k1, k2 in pairs:
        c1, c2 = t1[k1], t2[k2]
        tgt = acc.setdefault(key, {})
        if len(c1) > len(c2):
            c1, c2 = c2, c1
        for k, c in c1.items():
            _shift_add(tgt, c2, k + sh, c)
        if not tgt:
            del acc[key]
    return acc


def _mul_packed_pairs(acc: dict, p1: dict, p2: dict, pairs: list, g: int, bits: int) -> None:
    """acc += the pair product of packed entries [value, lo, hi] at stride g
    (see ``_add_aligned``); a sum off the stride leaves acc partly updated.
    In a square (p2 is p1) a pair that mirrors the one before it reuses
    that pair's product: the coefficients commute, only the twist differs."""
    a = b = None
    for key, sh, k1, k2 in pairs:
        v1, lo1, hi1 = p1[k1]
        v2, lo2, hi2 = p2[k2]
        if k1 is not b or k2 is not a or p2 is not p1:
            prod = v1 * v2
        a, b = k1, k2
        _add_aligned(acc, key, prod, lo1 + lo2 + sh, hi1 + hi2 + sh, g, bits)


def _max_coeff(*ts: dict) -> int:
    """The largest |coefficient| in the term maps, which hold at least one term."""
    values = [d.values() for t in ts for d in t.values()]
    return max(max(map(max, values)), -min(map(min, values)))


def _offset_gcd(*ts: dict) -> int:
    """gcd of the exponent offsets inside the coefficients; 0 if all are one-term.
    Folds one coefficient at a time, so no tuple of every offset is built."""
    g = 0
    for t in ts:
        for d in t.values():
            g = math.gcd(g, *map(sub, d, repeat(min(d))))
    return g


def _packed(t: dict, width: int, g: int) -> list:
    """[value, lo, hi] at stride g; a one-term coefficient packs alike at any g."""
    lo, hi = min(t), max(t)
    if lo == hi:
        return [t[lo], lo, hi]
    return [_pack(t, lo, (hi - lo) // g + 1, width, g), lo, hi]


def _pack_terms(t: dict, width: int, g: int) -> dict:
    """A term map's coefficients as packed entries at one width and stride g."""
    return {key: _packed(d, width, g) for key, d in t.items()}


# A packed term map: the entries {key: [value, lo, hi]} at stride g, each
# digit of width bytes and of size at most bound, and bound at most a
# quarter of the digit base, so ``_decode`` is exact.  A numerator may carry
# the target that reads its division's quotient (see ``_divide_packed``).
_Packed = namedtuple("_Packed", "terms width g bound target", defaults=(None,))


def _spans(terms: dict, g: int) -> int:
    """The digits of the packed entries [value, lo, hi] at stride g."""
    return sum((hi - lo) // g + 1 for _, lo, hi in terms.values())


def _decode_terms(p: _Packed) -> dict:
    """The term map of a packed one, each entry decoded once, all keyed
    from one pool when there are two or more."""
    keys = _Keys(_spans(p.terms, p.g)) if len(p.terms) > 1 else None
    return {key: _decode(entry, p.width, p.g, 0, 1, keys) for key, entry in p.terms.items()}


def _summaries(t):
    """A term map, or a ``_Packed`` one, as the planner reads it: (t, {key:
    (terms, sum of |coefficients|, largest |coefficient|, lo, hi)}, the gcd
    of the exponent offsets inside the coefficients, 0 if all are
    one-term), lo and hi a coefficient's lowest and highest exponents.

    A packed map is read off its digits (see ``_digits``), with no dict
    built, and comes back with every entry trimmed to its live digits.
    Every |digit| is below a quarter of the base B, so the lowest nonzero
    digit holds the lowest set bit, and a top nonzero digit at index k
    gives a bit length in [8 width k, 8 width (k + 1))."""
    out = {}
    if not isinstance(t, _Packed):
        for key, d in t.items():
            v = d.values()
            out[key] = (len(d), sum(map(abs, v)), max(max(v), -min(v)), min(d), max(d))
        return t, out, _offset_gcd(t)
    bits, g, terms, og = 8 * t.width, t.g, {}, 0
    for key, (val, lo, _) in t.terms.items():
        low = ((val & -val).bit_length() - 1) // bits
        val >>= low * bits
        lo += low * g
        length = val.bit_length() // bits + 1
        hi = lo + (length - 1) * g
        digits = _digits(val, length, t.width) if length > 1 else [val]
        terms[key] = [val, lo, hi]
        out[key] = (length - digits.count(0), sum(map(abs, digits)),
                    max(max(digits), -min(digits)), lo, hi)
        og = math.gcd(og, *compress(range(length), digits))
    return t._replace(terms=terms), out, og * g


def _entries(t, width: int, g: int) -> dict:
    """The entries of a term map, or of a ``_Packed`` one, at width bytes a
    digit and stride g, as new lists.  Packed entries keep their [lo, hi]:
    one digit is alike at any width and stride, more are re-spaced at their
    own stride (see ``_respace``) and decoded and packed again at another."""
    if not isinstance(t, _Packed):
        return _pack_terms(t, width, g)
    out = {}
    for key, (val, lo, hi) in t.terms.items():
        if hi != lo and g != t.g:
            out[key] = _packed(_decode((val, lo, hi), t.width, t.g), width, g)
        elif hi != lo and width != t.width:
            out[key] = [_respace(val, (hi - lo) // g + 1, t.width, width), lo, hi]
        else:
            out[key] = [val, lo, hi]
    return out


def _mul_packed(t1, t2, pairs: list, fallback: bool = False) -> _Packed | None:
    """The pair product of term maps, or of ``_Packed`` ones, on packed
    coefficients, as a ``_Packed`` term map.  The plan reads per-key
    summaries (see ``_summaries``); the work is the sum of terms1[k1] *
    terms2[k2] over the pairs.  Spans so sparse that the packed digits
    would outnumber the work 64 to 1 are refused as an AssertionError, or,
    with fallback, answered None for the dict loop, before anything is
    packed.

    Every coefficient is packed, or re-spaced, to one digit width and one
    stride g, and each pair is one integer multiplication and one
    ``_add_aligned``.  g divides every exponent offset inside a coefficient
    and every gap between the bases of the pairs that land on one key, so
    q^r coefficients take r times fewer digits and no sum lands off the
    stride (an ``_OffStride`` here fails as an assertion).  A digit of
    c1 * c2 is at most min(|c1|_1 |c2|_inf, |c1|_inf |c2|_1), so an output
    digit is at most the sum of that over the pairs on its key; the bound is
    that sum on the worst key, raised to every operand's largest
    |coefficient|, since ``mat_mul`` packs entries that no pair uses (0
    with no operand).
    """
    same = t2 is t1
    t1, s1, g = _summaries(t1)
    t2, s2, g2 = (t1, s1, g) if same else _summaries(t2)
    g, work, first, per_key = math.gcd(g, g2), 0, {}, {}
    for key, sh, k1, k2 in pairs:
        n1, a1, m1, lo1, _ = s1[k1]
        n2, a2, m2, lo2, _ = s2[k2]
        work += n1 * n2
        base = lo1 + lo2 + sh
        g = math.gcd(g, base - first.setdefault(key, base))
        per_key[key] = per_key.get(key, 0) + min(a1 * m2, m1 * a2)
    g = g or 1
    dig1, dig2 = ({key: (hi - lo) // g + 1 for key, (_, _, _, lo, hi) in s.items()}
                  for s in (s1, s2))
    if sum(dig1[k1] * dig2[k2] for _, _, k1, k2 in pairs) > _MAX_PADDING * work:
        if fallback:
            return None
        raise AssertionError("a sparse product would pack past its padding bound")
    bound = max([*per_key.values(), *(s[2] for s in s1.values()),
                 *(s[2] for s in s2.values())], default=0)
    width = _digit_width(bound)
    p1 = _entries(t1, width, g)
    p2 = p1 if same else _entries(t2, width, g)
    acc: dict = {}
    _mul_packed_pairs(acc, p1, p2, pairs, g, 8 * width)
    return _Packed(acc, width, g, bound)


def _mul_pairs(t1: dict, t2: dict, pairs: list) -> dict:
    """The pair product {out_key: sum of q^(shift/2) t1[k1] t2[k2]} over the
    (out_key, doubled shift, k1, k2) pairs; keys that cancel are dropped.
    The packed loop runs (see ``_mul_packed``) and its product is decoded,
    except that a product of at most ``_SCHOOLBOOK_LIMIT`` term pairs of
    work, or one whose spans the packed loop declines as too sparse, runs
    the dict loop."""
    if sum(len(t1[k1]) * len(t2[k2]) for _, _, k1, k2 in pairs) > _SCHOOLBOOK_LIMIT:
        prod = _mul_packed(t1, t2, pairs, fallback=True)
        if prod is not None:
            return _decode_terms(prod)
    return _mul_dicts(t1, t2, pairs)


def _division_width(d: dict, nbound: int, bound: int) -> int:
    """The digit width of a division run of n by d whose digits of n are at
    most nbound and whose quotient coefficients are at most bound."""
    return _digit_width(nbound + len(d) * _max_coeff(d) * bound * max(map(len, d.values())))


def _divide_packed(d: dict, n: _Packed, box, bound: int, g: int):
    """One run of ``left_divide`` of the packed term map n by the term map d,
    with a packed remainder: an entry [value, lo, hi] per key, all at stride
    g and one digit width.  The run copies n's entries, re-spaced when it
    needs a wider digit and repacked (decode, then pack) for a finer stride
    than n carries (see ``_entries``).  Each step pops the leading entry,
    trims its cancelled low digits so that the products it enters stay
    short, decodes it (the quotient term cz X1^az X2^bz up to a unit) and
    subtracts the other divisor terms times that monomial in place: per
    divisor term c X1^a X2^b, one big-integer product and one
    ``_add_aligned`` at the key
    (a + az, b + bz) with the twist q^(-b*az).  While every quotient
    coefficient is at most ``bound``, a remainder digit is a digit of n (at
    most n.bound) minus at most |d| digits of size maxc(d) * bound *
    maxnnz(d), so by induction every decode is exact.  Returns (quotient,
    bound, g); the quotient is None when a quotient coefficient exceeds the
    bound (which is then at least doubled) or a sum lands off the stride
    (g shrinks).

    The quotient maps (az, bz) to the coefficient decoded at the run's
    lattice, each decode keying its exponents from one pool of at most as
    many ints as n has digits (see ``_Keys``).  When n carries a target,
    target(az, bz, entry, width, g) -> (key, value, largest |coefficient|)
    reads each popped entry [value, lo, hi] instead, and the quotient maps
    each key to its value.
    """
    target = n.target
    (ad, bd), cd = max(d.items())
    ((kd2, sign),) = cd.items()
    width = max(n.width, _division_width(d, n.bound, bound))
    bits = 8 * width
    rem = _entries(n, width, g)
    keys = _Keys(_spans(rem, g)) if target is None else None
    # -d / sign without its leading term, whose product just cancels the popped entry
    terms = _pack_terms({key: {k: -sign * v for k, v in c.items()}
                         for key, c in d.items() if key != (ad, bd)}, width, g)
    amin, amax, bmin, bmax = box
    quot: dict = {}
    for _ in range((amax - amin + 1) * (bmax - bmin + 1) + 1):
        if not rem:
            return quot, bound, g
        an, bn = max(rem)
        az, bz = an - ad, bn - bd
        if not (amin <= az <= amax and bmin <= bz <= bmax):
            raise DivisionFailed(f"quotient term X1^{az} X2^{bz} escapes the support box")
        # cd * q^(-bd*az) * cz = cn  =>  cz = cn * q^(bd*az) / cd
        val, lo, hi = rem.pop((an, bn))
        zeros = ((val & -val).bit_length() - 1) // bits
        val, lo = val >> zeros * bits, lo + zeros * g
        sh = 2 * bd * az - kd2
        lo, hi = lo + sh, hi + sh
        entry = (val if sign > 0 else -val, lo, hi)
        if target is None:
            cz = _decode(entry, width, g, 0, 1, keys)
            key, cz, top = (az, bz), QLaurent._raw(cz), max(map(abs, cz.values()))
        else:
            key, cz, top = target(az, bz, entry, width, g)
        if top > bound:
            return None, max(2 * bound, top), g
        if key in quot:
            raise AssertionError("duplicate quotient exponent in left_divide")
        quot[key] = cz
        try:
            for (a, b), (v, vlo, vhi) in terms.items():
                sh = -2 * b * az
                _add_aligned(rem, (a + az, b + bz), v * val, vlo + lo + sh, vhi + hi + sh, g, bits)
        except _OffStride as off:
            return None, bound, math.gcd(g, off.args[0])
    raise DivisionFailed("division did not terminate within the support box")


def mat_mul(a: list, b: list) -> list:
    """The matrix product a * b of QLaurent matrices given as lists of rows:
    the pair product of the nonzero entries, with one pair per nonzero
    summand a[i][k] b[k][j] of entry (i, j)."""
    n, p = len(b), len(b[0]) if b else 0
    if any(len(row) != n for row in a) or any(len(row) != p for row in b):
        raise InvalidParameter("mat_mul needs an m x n and an n x p matrix")
    ta, tb = ({(i, k): x._t for i, row in enumerate(m) for k, x in enumerate(row) if x}
              for m in (a, b))
    rows = [[] for _ in b]  # the keys of b by row; pairs share the key tuples
    for kj in tb:
        rows[kj[0]].append(kj)
    prod = _mul_pairs(ta, tb, [((ik[0], kj[1]), 0, ik, kj) for ik in ta for kj in rows[ik[1]]])
    return [[QLaurent._raw(prod[i, j]) if (i, j) in prod else ZERO for j in range(p)]
            for i in range(len(a))]


def _power(x, e: int, one, times=mul):
    """x**e by left-to-right square-and-multiply, for e >= 0 (checked by the
    caller), so that every product is a square or a product by x; one is
    the unit, returned for e = 0.  times is the product, ``*`` unless the
    caller multiplies another form of x (see ``cluster._step``)."""
    if e < 2:
        return x if e else one
    h = _power(x, e >> 1, one, times)
    h = times(h, h)
    return times(x, h) if e & 1 else h


class QLaurent:
    """Sparse Laurent polynomial in q^(1/2) with integer coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for k2, c in items:
                if not isinstance(k2, int) or not isinstance(c, int):
                    raise InvalidParameter("exponents and coefficients must be int")
                if c:
                    nc = t.get(k2, 0) + c
                    if nc:
                        t[k2] = nc
                    else:
                        del t[k2]
        self._t = t

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, t: dict) -> "QLaurent":
        """Wrap an already-normalized dict without copying (internal)."""
        p = cls.__new__(cls)
        p._t = t
        return p

    @classmethod
    def zero(cls) -> "QLaurent":
        return cls._raw({})

    @classmethod
    def one(cls) -> "QLaurent":
        return cls._raw({0: 1})

    @classmethod
    def const(cls, c: int) -> "QLaurent":
        return cls._raw({0: c} if c else {})

    @classmethod
    def q_power(cls, k2: int, c: int = 1) -> "QLaurent":
        """c * q^(k2/2); k2 is the doubled exponent."""
        return cls._raw({k2: c} if c else {})

    # -- inspection --------------------------------------------------------

    def items2(self):
        """Sorted (doubled exponent, coefficient) pairs."""
        return sorted(self._t.items())

    def coeff2(self, k2: int) -> int:
        return self._t.get(k2, 0)

    def max2(self) -> int:
        return max(self._t)

    def num_terms(self) -> int:
        return len(self._t)

    def max_coeff_bits(self) -> int:
        # the largest |c| is the largest or the smallest c
        v = self._t.values()
        return max(max(v).bit_length(), min(v).bit_length()) if v else 0

    def __bool__(self) -> bool:
        return bool(self._t)

    def is_integral(self) -> bool:
        """True when no genuine half-exponent q^(odd/2) occurs."""
        return all(k2 % 2 == 0 for k2 in self._t)

    def has_negative_coeff(self) -> bool:
        return min(self._t.values(), default=0) < 0

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, QLaurent):
            return other
        if isinstance(other, int):
            return QLaurent.const(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        if self._t.keys() <= {0}:
            return hash(self._t.get(0, 0))
        return hash(tuple(sorted(self._t.items())))

    def __neg__(self) -> "QLaurent":
        return QLaurent._raw({k: -c for k, c in self._t.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._t, other._t
        if len(a) < len(b):
            a, b = b, a
        return QLaurent._raw(_shift_add(dict(a), b))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return QLaurent.zero()
        return QLaurent._raw(_mul_pairs({0: a}, {0: b}, [(0, 0, 0, 0)]).get(0, {}))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QLaurent":
        if not isinstance(e, int) or e < 0:
            raise InvalidParameter("exponent must be a nonnegative integer")
        return _power(self, e, QLaurent.one())

    def shift2(self, k2: int) -> "QLaurent":
        """Multiply by q^(k2/2)."""
        if k2 == 0:
            return self
        return QLaurent._raw({k + k2: c for k, c in self._t.items()})

    def scale(self, c: int) -> "QLaurent":
        if c == 0:
            return QLaurent.zero()
        if c == 1:
            return self
        return QLaurent._raw({k: cc * c for k, cc in self._t.items()})

    # -- evaluation and substitutions ---------------------------------------

    def evaluate(self, v) -> Fraction:
        """Exact value at q = v (v rational).

        When half-integer exponents are present, v must be the square of a
        rational (so that q^(1/2) is itself rational).
        """
        v = Fraction(v)
        if not self._t:
            return Fraction(0)
        if self.is_integral():
            # the terms are c * v^e with e = k2 / 2
            a, b, step = v.numerator, v.denominator, 2
        else:
            if v <= 0:
                raise NonIntegralEvaluation(
                    "half-integer exponents require a positive perfect square"
                )
            a = math.isqrt(v.numerator)
            b = math.isqrt(v.denominator)
            if a * a != v.numerator or b * b != v.denominator:
                raise NonIntegralEvaluation(
                    f"{v} is not the square of a rational"
                )
            # the terms are c * (a/b)^e with e = k2
            step = 1
        terms = [(k2 // step, c) for k2, c in self._t.items()]
        lo = min(e for e, _ in terms)
        hi = max(e for e, _ in terms)
        if a == 0 and lo < 0:
            raise InvalidParameter("negative exponent at q = 0")
        # sum c * (a/b)^e = (a^lo / b^hi) * sum c * a^(e-lo) * b^(hi-e),
        # so the sum stays in integers and one Fraction is built at the end
        total = sum(c * a ** (e - lo) * b ** (hi - e) for e, c in terms)
        return Fraction(
            total * a ** max(lo, 0) * b ** max(-hi, 0),
            b ** max(hi, 0) * a ** max(-lo, 0),
        )

    def compress_power(self, r: int) -> "QLaurent":
        """Return P with P(q^r) equal to this polynomial.

        Every exponent must be a nonnegative integral multiple of r.
        """
        if not isinstance(r, int) or r < 1:
            raise InvalidParameter("power must be a positive integer")
        t = {}
        for k2, c in self._t.items():
            if k2 % 2 or k2 < 0 or (k2 // 2) % r:
                raise NotAPowerSeriesInQr(
                    f"exponent q^({k2}/2) is not a nonnegative multiple of {r}"
                )
            t[k2 // r] = c
        return QLaurent._raw(t)

    def substitute_power(self, r: int) -> "QLaurent":
        """Return the polynomial with q replaced by q^r (inverse of
        compress_power on its image)."""
        if not isinstance(r, int) or r < 1:
            raise InvalidParameter("power must be a positive integer")
        return QLaurent._raw({k2 * r: c for k2, c in self._t.items()})

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _exp_str(k2: int) -> str:
        if k2 == 0:
            return ""
        if k2 % 2 == 0:
            e = k2 // 2
            return "q" if e == 1 else f"q^{e}"
        return f"q^({k2}/2)"

    def _render(self, items, times: str, sep: str) -> str:
        """Terms in the given order: sign, magnitude unless 1, q-power."""
        if not self._t:
            return "0"
        out = []
        for k2, c in items:
            base = self._exp_str(k2)
            mag = abs(c)
            if not base:
                body = str(mag)
            elif mag == 1:
                body = base
            else:
                body = f"{mag}{times}{base}"
            sign = "-" if c < 0 else "+" if out else ""
            out.append(f"{sep}{sign}{sep}{body}" if out else sign + body)
        return "".join(out)

    def __str__(self) -> str:
        """Canonical text form: terms by ascending exponent."""
        return self._render(self.items2(), "*", " ")

    def format_descending(self) -> str:
        """Compact descending form, e.g. ``q^73+2q^72-5q^58+...+q+1``."""
        return self._render(sorted(self._t.items(), reverse=True), "", "")

    def __repr__(self) -> str:
        return f"QLaurent({self})"

    def to_obj(self):
        return {"coeffs": [{"q2": k2, "c": str(c)} for k2, c in self.items2()]}

    @classmethod
    def from_obj(cls, obj) -> "QLaurent":
        return cls((_json_field(e, "q2"), _json_field(e, "c", str))
                   for e in _json_field(obj, "coeffs", list))


def _json_field(obj, key=None, kind=int):
    """obj[key], or obj itself when key is None, as the JSON loaders accept
    it: kind=list takes an array (a list or tuple), kind=dict an object,
    kind=int a JSON integer, and kind=str a coefficient, which is a JSON
    integer or a string of decimal digits as ``to_obj`` writes it, returned
    as an int.  Anything else, a missing key included, raises
    InvalidParameter."""
    if key is not None:
        try:
            obj = obj[key]
        except (LookupError, TypeError):
            raise InvalidParameter(f"JSON field {key!r} is missing") from None
    if kind in (list, dict):
        if isinstance(obj, (list, tuple) if kind is list else dict):
            return obj
    elif type(obj) is int:
        return obj
    elif kind is str and isinstance(obj, str):
        digits = obj[1:] if obj[:1] == "-" else obj
        if digits.isascii() and digits.isdigit():
            return int(obj)
    what = {list: "an array", dict: "an object"}.get(kind, "an integer")
    name = "a JSON value" if key is None else f"JSON field {key!r}"
    raise InvalidParameter(f"{name} must be {what}, got {obj!r}")


ZERO = QLaurent.zero()
ONE = QLaurent.one()
q = QLaurent.q_power(2)
qh = QLaurent.q_power(1)  # q^(1/2)


def _is_int(x) -> bool:
    """True for an int that is not a bool: True and False are ints to
    isinstance, but never a size, an index or an exponent here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_rn(r: int, n: int) -> None:
    """Refuse (r, n) outside the domain of ``c_sequence`` in constant time,
    so that callers can check before any work."""
    if not _is_int(r) or r < 2:
        raise InvalidParameter(f"r must be an integer >= 2, got {r}")
    if not _is_int(n) or n < 1:
        raise InvalidParameter(f"n must be an integer >= 1, got {n}")


def c_sequence(r: int, n: int) -> int:
    """n-th term of the dimension sequence c_1 = 0, c_2 = 1,
    c_k = r*c_{k-1} - c_{k-2}."""
    _check_rn(r, n)
    a, b = 0, 1  # c_1, c_2
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, r * b - a
    return b


def dim_vector(r: int, n: int):
    """(d1, d2) = (c_{n-1}, c_{n-2}), the dimension vector of the n-th rigid
    module M_n; M_3 = (1, 0) is the first."""
    if not _is_int(n) or n < 3:
        raise InvalidParameter(f"dimension vectors start at n = 3, got {n}")
    return c_sequence(r, n - 1), c_sequence(r, n - 2)


# A cold q_binomial(m, n) first fills the row of the Pascal table at the
# multiple of _PASCAL_ROWS below m, so its recursion stops there: the stack
# holds about m / _PASCAL_ROWS + _PASCAL_ROWS calls, not m.
_PASCAL_ROWS = 128


# Above the Pascal tables in use (1,710 entries, trivial ones included, for
# the strata at every e2 of (4, 6), 6,901 for [115 choose k], k <= 115), so
# no entry is recomputed within one call.
@lru_cache(maxsize=8192, typed=True)
def q_binomial(m: int, n: int) -> QLaurent:
    """Gaussian binomial coefficient as a polynomial in q.

    Conventions: n = 0 gives 1 for every m (including negative m, which is
    forced by the closed-strata formula at its lowest corner); n < 0 gives 0;
    n > m >= 0 gives 0.  Negative m with positive n is not supported.
    """
    if not _is_int(m) or not _is_int(n):
        raise InvalidParameter("q_binomial arguments must be integers")
    if n == 0:
        return ONE
    if n < 0:
        return ZERO
    if m < 0:
        raise NotSupported(f"q_binomial({m}, {n}) with m < 0 and n > 0")
    if n > m:
        return ZERO
    base = (m - 1) // _PASCAL_ROWS * _PASCAL_ROWS
    for j in range(max(1, n - (m - base)), min(n, base) + 1):
        q_binomial(base, j)
    # q-Pascal: binom(m, n) = binom(m-1, n-1) + q^n * binom(m-1, n)
    return q_binomial(m - 1, n - 1) + q_binomial(m - 1, n).shift2(2 * n)


def q_int(n: int) -> QLaurent:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise InvalidParameter("q_int needs n >= 0")
    return QLaurent._raw({2 * i: 1 for i in range(n)})
