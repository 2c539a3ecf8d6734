"""Exact Laurent polynomials in q^(1/2) and q-combinatorial quantities.

Exponents are stored doubled: the integer key k stands for q^(k/2), so all
bookkeeping stays in plain (arbitrary-precision) integers.  Instances are
immutable; arithmetic returns new objects.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from operator import sub

from .errors import (
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

# Products of at most this many pairs of nonzero coefficient terms go through
# the plain dict loop; larger dense operands are multiplied via big-integer
# (Kronecker) packing, which is much faster for the polynomials that appear
# in cluster-variable recursions.
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


def _digit_width(bound: int) -> int:
    """Bytes per packed digit so that every |digit| <= bound stays below
    half the digit base, which makes the balanced decode exact."""
    return (bound.bit_length() + 2 + 7) // 8


# A digit of at most 8 bytes is held in a lane, the narrowest signed array
# item of 1, 2, 4 or 8 bytes that fits it.  _FLIP toggles the top bit, so
# the two's complement of a digit d reads as d + half and back; _SIGN maps
# the top byte of d + half to the byte that sign-extends d.
_LANES = {array(code).itemsize: code for code in "bhilq"}
_FLIP = bytes(range(128, 256)) + bytes(range(128))
_SIGN = b"\xff" * 128 + b"\x00" * 128
_BIG_ENDIAN = sys.byteorder == "big"


def _offset(length: int, width: int) -> int:
    """Half the digit base in each of length digits of width bytes."""
    return int.from_bytes((b"\x00" * (width - 1) + b"\x80") * length, "little")


def _pack(t: dict, lo: int, length: int, width: int, step: int = 1):
    """The digits t[lo + step*i], i < length, evaluated at 2^(8*width): one
    big integer (an mpz when gmpy2 is present).  Refuses, as an
    AssertionError, a digit outside [-half, half) of the base and a term
    off that lattice or outside the span.

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


def _unpack(val, lo: int, length: int, width: int, step: int = 1) -> dict:
    """Balanced-digit decode of a packed value into {lo + step*i: digit}.

    Adding half the base to every digit makes all digits nonnegative
    without carries (|digit| < half), so the byte string of the shifted
    value can be read windowwise.  A digit outside that bound leaves the
    shifted value outside [0, base^length) when it is the top digit.
    Up to 8 bytes a digit, flipping the top bit back and sign-extending
    gives each digit as a lane, read by one array conversion.
    """
    shifted = int(val + _offset(length, width))
    if shifted < 0 or shifted.bit_length() > 8 * width * length:
        raise AssertionError("packed multiplication exceeded its digit bound")
    raw = shifted.to_bytes(length * width, "little")
    if width <= 8:
        lane = 1 << (width - 1).bit_length()
        lanes = bytearray(lane * length)
        for j in range(width - 1):
            lanes[j::lane] = raw[j::width]
        top = raw[width - 1 :: width]
        lanes[width - 1 :: lane] = top.translate(_FLIP)
        top = top.translate(_SIGN)
        for j in range(width, lane):
            lanes[j::lane] = top
        digits = array(_LANES[lane], lanes)
        if _BIG_ENDIAN:
            digits.byteswap()
        digits = digits.tolist()
    else:
        half, frm = 1 << (8 * width - 1), int.from_bytes
        digits = [frm(raw[i : i + width], "little") - half for i in range(0, length * width, width)]
    return dict(compress(zip(range(lo, lo + step * length, step), digits), digits))


class _OffStride(AssertionError):
    """A packed sum landed off its stride; args[0] is the gap.  ``left_divide``
    guesses its stride and reruns at gcd(stride, gap); ``_mul_pairs`` and the
    family scan prove theirs, so there the exception fails as the assertion
    it is."""


def _add_aligned(acc: dict, key, val, lo: int, hi: int, step: int, bits: int) -> None:
    """acc[key] += val for entries [packed value, lo, hi] on the digits lo,
    lo + step, ..., hi at base 2^bits, shifted into place by whole digits.
    A sum of 0 drops the key; cancelled low digits are stripped so lo stays
    the true minimum.  Raises ``_OffStride``, changing nothing, when lo is
    off the entry's lattice."""
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
    s = cur[0]
    if not s:
        del acc[key]
    elif gap == 0 and (zeros := ((s & -s).bit_length() - 1) // bits):
        cur[0] = s >> (zeros * bits)  # the lowest digits cancelled
        cur[1] += zeros * step


def _decode(entry, width: int, g: int) -> dict:
    """The coefficient of a packed entry [value, lo, hi] at stride g."""
    val, lo, hi = entry
    return _unpack(val, lo, (hi - lo) // g + 1, width, g)


# -- the pair product -----------------------------------------------------------
#
# A term map {key: {doubled exponent: int}} holds nonzero coefficients.  A
# pair product sums q^(shift/2) t1[k1] t2[k2] into out_key over a list of
# (out_key, doubled shift, k1, k2) pairs.  Keyed by (a, b), a term map stands
# for the quantum-torus element sum c_{a,b}(q) X1^a X2^b and _twisted lists
# the pairs of its normal-form product; mat_mul lists the pairs of a matrix
# product, and a QLaurent product is the one pair (0, 0, 0, 0).  Every
# product, in QLaurent, the torus, its division and mat_mul, goes through
# _mul_pairs or its packed loop; the family scan only multiplies by monomials
# and writes that case out.


def _twisted(t1: dict, t2: dict) -> list:
    """(key, doubled shift, k1, k2) for every pair of keys: the normal form
    (X1^a1 X2^b1)(X1^a2 X2^b2) = q^(-b1*a2) X1^(a1+a2) X2^(b1+b2)."""
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
    (see ``_add_aligned``); a sum off the stride leaves acc partly updated."""
    for key, sh, k1, k2 in pairs:
        v1, lo1, hi1 = p1[k1]
        v2, lo2, hi2 = p2[k2]
        _add_aligned(acc, key, v1 * v2, lo1 + lo2 + sh, hi1 + hi2 + sh, g, bits)


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


def _mul_pairs(t1: dict, t2: dict, pairs: list) -> dict:
    """The pair product {out_key: sum of q^(shift/2) t1[k1] t2[k2]} over the
    (out_key, doubled shift, k1, k2) pairs; keys that cancel are dropped.

    The dict loop runs for operands averaging under 3 terms per
    coefficient, for small work (the sum of len(t1[k1]) * len(t2[k2]) over
    the pairs) and for spans so sparse that the packed digits would
    outnumber the work 64 to 1.  Otherwise every coefficient is packed once
    at one digit width and one stride g, each pair is one integer
    multiplication and one ``_add_aligned``, and each output key is decoded
    once.  g divides every exponent offset inside a coefficient and every
    gap between the bases of the pairs that land on one key, so q^r
    coefficients take r times fewer digits and no sum lands off the stride
    (an ``_OffStride`` here fails as an assertion).  An output digit sums at
    most fanin pair products, fanin being the most pairs on one key, whose
    digits are at most max|t1| * max|t2| * min(max nnz), so the balanced
    decode is exact.
    """
    if sum(map(len, t1.values())) < 3 * len(t1) or sum(map(len, t2.values())) < 3 * len(t2):
        return _mul_dicts(t1, t2, pairs)
    work = sum(len(t1[k1]) * len(t2[k2]) for _, _, k1, k2 in pairs)
    if work <= _SCHOOLBOOK_LIMIT:
        return _mul_dicts(t1, t2, pairs)
    lo1, lo2 = ({key: min(d) for key, d in t.items()} for t in (t1, t2))
    g, first = _offset_gcd(t1, t2), {}
    for key, sh, k1, k2 in pairs:
        base = lo1[k1] + lo2[k2] + sh
        g = math.gcd(g, base - first.setdefault(key, base))
    g = g or 1
    dig1, dig2 = ({key: (max(d) - lo[key]) // g + 1 for key, d in t.items()}
                  for t, lo in ((t1, lo1), (t2, lo2)))
    if sum(dig1[k1] * dig2[k2] for _, _, k1, k2 in pairs) > _MAX_PADDING * work:
        return _mul_dicts(t1, t2, pairs)
    fanin = max(Counter(key for key, _, _, _ in pairs).values())
    nnz = min(max(map(len, t1.values())), max(map(len, t2.values())))
    width = _digit_width(_max_coeff(t1) * _max_coeff(t2) * nnz * fanin)
    p1, p2 = ({key: _packed(d, width, g) for key, d in t.items()} for t in (t1, t2))
    acc: dict = {}
    _mul_packed_pairs(acc, p1, p2, pairs, g, 8 * width)
    return {key: _decode(entry, width, g) for key, entry in acc.items()}


def _mul_terms(t1: dict, t2: dict) -> dict:
    """t1 * t2 for term maps keyed (a, b) under the normal-form product."""
    return _mul_pairs(t1, t2, _twisted(t1, t2))


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


def _power(x, e: int, out):
    """out * x**e by repeated squaring, for e >= 0 (checked by the caller)."""
    while e:
        if e & 1:
            out = out * x
        if e > 1:
            x = x * x
        e >>= 1
    return out


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
        return cls((int(e["q2"]), int(e["c"])) for e in obj["coeffs"])


ZERO = QLaurent.zero()
ONE = QLaurent.one()
q = QLaurent.q_power(2)
qh = QLaurent.q_power(1)  # q^(1/2)


def c_sequence(r: int, n: int) -> int:
    """n-th term of the dimension sequence c_1 = 0, c_2 = 1,
    c_k = r*c_{k-1} - c_{k-2}."""
    if not isinstance(r, int) or r < 2:
        raise InvalidParameter(f"r must be an integer >= 2, got {r}")
    if not isinstance(n, int) or n < 1:
        raise InvalidParameter(f"n must be an integer >= 1, got {n}")
    a, b = 0, 1  # c_1, c_2
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, r * b - a
    return b


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
    if not isinstance(m, int) or not isinstance(n, int):
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
