"""Normal-form arithmetic in the quantum torus X1*X2 = q*X2*X1.

Elements are finite sums sum c_{a,b}(q) * X1^a * X2^b with coefficients in
Z[q^(+-1/2)] written on the left and X1 before X2.  Moving X2^b past X1^c
costs q^(-b*c), which is the whole content of the normal-form product.

``word_to_torus`` realizes the specialization of noncommutative words in two
letters x, y: x maps to q^(1/2)*X1 and y to q^(-1/2)*X2, so the ordered word
x^a y^b lands on q^((a-b)/2) * X1^a * X2^b.
"""

from __future__ import annotations

import math

from .errors import DivisionFailed, InvalidParameter
from .qlaurent import (ONE, QLaurent, _decode, _digit_width, _max_coeff, _mul_packed_pairs,
                       _mul_terms, _offset_gcd, _OffStride, _packed, _power, _twisted)


class TorusElement:
    """Normal-form element of the quantum torus."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        checked = []
        for (a, b), c in (terms.items() if hasattr(terms, "items") else terms or ()):
            if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, (int, QLaurent))):
                raise InvalidParameter("exponents must be int and coefficients int or QLaurent")
            checked.append(((a, b), QLaurent.const(c) if isinstance(c, int) else c))
        self._t = _add_terms({}, checked)

    @classmethod
    def _raw(cls, t: dict) -> "TorusElement":
        e = cls.__new__(cls)
        e._t = t
        return e

    @classmethod
    def zero(cls) -> "TorusElement":
        return cls._raw({})

    @classmethod
    def one(cls) -> "TorusElement":
        return cls._raw({(0, 0): ONE})

    @classmethod
    def monomial(cls, a: int, b: int, coeff: QLaurent = ONE) -> "TorusElement":
        if isinstance(coeff, int):
            coeff = QLaurent.const(coeff)
        return cls._raw({(a, b): coeff} if coeff else {})

    @classmethod
    def scalar(cls, coeff) -> "TorusElement":
        return cls.monomial(0, 0, coeff)

    # -- inspection ----------------------------------------------------------

    def items(self):
        """Sorted ((a, b), coefficient) pairs, lex ascending."""
        return sorted(self._t.items())

    def coeff(self, a: int, b: int) -> QLaurent:
        return self._t.get((a, b), QLaurent.zero())

    def num_terms(self) -> int:
        return len(self._t)

    def max_coeff_bits(self) -> int:
        return max((c.max_coeff_bits() for c in self._t.values()), default=0)

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, int):
            other = TorusElement.scalar(other)
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self._t == other._t

    __hash__ = None

    def lex_leading(self):
        """((a, b), coeff) with (a, b) maximal lexicographically (a first)."""
        key = max(self._t)
        return key, self._t[key]

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return TorusElement._raw(_add_terms(dict(self._t), other._t.items()))

    def __neg__(self):
        return TorusElement._raw({k: -c for k, c in self._t.items()})

    def __sub__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Normal-form product: (X1^a X2^b)(X1^c X2^d) =
        q^(-bc) X1^(a+c) X2^(b+d), extended bilinearly."""
        if isinstance(other, QLaurent):
            other = TorusElement.scalar(other)
        if not isinstance(other, TorusElement):
            return NotImplemented
        return _mul_large(self._t, other._t)

    def __rmul__(self, other):
        if isinstance(other, QLaurent):
            return TorusElement.scalar(other) * self
        return NotImplemented

    def __pow__(self, e: int) -> "TorusElement":
        if not isinstance(e, int) or e < 0:
            raise InvalidParameter("torus powers need a nonnegative integer")
        return _power(self, e, TorusElement.one())

    def scale2(self, k2: int) -> "TorusElement":
        """Multiply every coefficient by q^(k2/2)."""
        if k2 == 0:
            return self
        return TorusElement._raw({k: c.shift2(k2) for k, c in self._t.items()})

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for (a, b), c in self.items():
            factors = []
            cs = str(c)
            if c.num_terms() > 1:
                cs = f"({cs})"
            if (a, b) == (0, 0):
                factors.append(cs)
            else:
                if cs != "1":
                    factors.append(cs)
                if a:
                    factors.append(f"X1^{a}" if a != 1 else "X1")
                if b:
                    factors.append(f"X2^{b}" if b != 1 else "X2")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"TorusElement({self})"

    def to_obj(self):
        return {
            "terms": [
                {"x1": a, "x2": b, "coeff": c.to_obj()} for (a, b), c in self.items()
            ]
        }

    @classmethod
    def from_obj(cls, obj) -> "TorusElement":
        return cls(
            ((int(e["x1"]), int(e["x2"])), QLaurent.from_obj(e["coeff"]))
            for e in obj["terms"]
        )


def _add_terms(t: dict, items) -> dict:
    """Add (key, QLaurent) pairs into t in place, dropping keys that cancel."""
    for key, c in items:
        nc = t.get(key)
        nc = c if nc is None else nc + c
        if nc:
            t[key] = nc
        else:
            t.pop(key, None)
    return t


def _terms(t: dict) -> dict:
    """The term map of a {(a, b): QLaurent} dict, for the qlaurent kernel."""
    return {key: c._t for key, c in t.items()}


def _mul_large(t1: dict, t2: dict) -> TorusElement:
    """Normal-form product of two {(a, b): QLaurent} dicts: every torus
    product runs here, through ``qlaurent._mul_terms``, which picks the pair
    loop on dicts or the packed one from the operands."""
    prod = _mul_terms(_terms(t1), _terms(t2))
    return TorusElement._raw({key: QLaurent._raw(d) for key, d in prod.items()})


X1 = TorusElement.monomial(1, 0)
X2 = TorusElement.monomial(0, 1)


def word_to_torus(a: int, b: int) -> TorusElement:
    """Image of the ordered word x^a y^b: q^((a-b)/2) * X1^a * X2^b."""
    return TorusElement.monomial(a, b, QLaurent.q_power(a - b))


def left_divide(d: TorusElement, n: TorusElement) -> TorusElement:
    """Solve d * Z = n exactly in the torus algebra.

    Greedy division in lexicographic order on exponent pairs (X1 first).  The
    leading term of a product is the product of leading terms because
    exponents add and the q-twist is a unit, so each step is forced.  The
    divisor's lex-leading coefficient must be a unit (+-q^(k/2)); quotient
    exponents must stay inside the box [min(n)-max(d), max(n)-min(d)]
    componentwise, which bounds the loop and certifies failure otherwise.
    The remainder stays packed (see ``_divide_packed``); a run that cannot
    prove its decodes exact is repeated with a larger bound or finer stride.
    """
    if not isinstance(d, TorusElement) or not isinstance(n, TorusElement):
        raise InvalidParameter("left_divide expects torus elements")
    if not d:
        raise InvalidParameter("left division by zero")
    if not n:
        return TorusElement.zero()
    _, cd = d.lex_leading()
    if cd.num_terms() != 1 or cd.items2()[0][1] not in (1, -1):
        raise DivisionFailed("divisor lex-leading coefficient is not a unit")

    (na, nb), (da, db) = zip(*n._t), zip(*d._t)
    box = (min(na) - max(da), max(na) - min(da), min(nb) - max(db), max(nb) - min(db))
    dt, nt = _terms(d._t), _terms(n._t)
    quot, bound, g = None, _max_coeff(nt), _offset_gcd(dt, nt) or 1
    while quot is None:
        quot, bound, g = _divide_packed(dt, nt, box, bound, g)
    return TorusElement._raw(quot)


def _divide_packed(d: dict, n: dict, box, bound: int, g: int):
    """One run of ``left_divide`` on term maps with a packed remainder: an
    entry [value, lo, hi] per key, all at stride g and one digit width.  Each
    step decodes the leading entry (the quotient term up to a unit) and
    subtracts the other divisor terms times it with the kernel's packed pair
    loop, one big-integer product per divisor term.  While every
    quotient coefficient is at most ``bound``, a remainder digit is a digit
    of n minus at most |d| digits of size maxc(d) * bound * maxnnz(d), so by
    induction every decode is exact.  Returns (quotient, bound, g); the
    quotient is None when a quotient coefficient exceeds the bound (which
    is then at least doubled) or a sum lands off the stride (g shrinks).
    """
    (ad, bd), cd = max(d.items())
    ((kd2, sign),) = cd.items()
    nnz = max(map(len, d.values()))
    width = _digit_width(_max_coeff(n) + len(d) * _max_coeff(d) * bound * nnz)
    rem = {key: _packed(c, width, g) for key, c in n.items()}
    # -d / sign without its leading term, whose product just cancels the popped entry
    terms = {key: _packed({k: -sign * v for k, v in c.items()}, width, g)
             for key, c in d.items() if key != (ad, bd)}
    amin, amax, bmin, bmax = box
    quot: dict = {}
    for _ in range((amax - amin + 1) * (bmax - bmin + 1) + 1):
        if not rem:
            return quot, bound, g
        an, bn = max(rem)
        az, bz = an - ad, bn - bd
        if not (amin <= az <= amax and bmin <= bz <= bmax):
            raise DivisionFailed(f"quotient term X1^{az} X2^{bz} escapes the support box")
        if (az, bz) in quot:
            raise AssertionError("duplicate quotient exponent in left_divide")
        # cd * q^(-bd*az) * cz = cn  =>  cz = cn * q^(bd*az) / cd
        val, lo, hi = rem.pop((an, bn))
        sh = 2 * bd * az - kd2
        lo, hi = lo + sh, hi + sh
        cz = _decode((val if sign > 0 else -val, lo, hi), width, g)
        top = max(map(abs, cz.values()))
        if top > bound:
            return None, max(2 * bound, top), g
        quot[(az, bz)] = QLaurent._raw(cz)
        z = {(az, bz): (val, lo, hi)}
        try:
            _mul_packed_pairs(rem, terms, z, _twisted(terms, z), g, 8 * width)
        except _OffStride as off:
            return None, bound, math.gcd(g, off.args[0])
    raise DivisionFailed("division did not terminate within the support box")
