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
from .qlaurent import ONE, QLaurent, _digit_width, _pack, _shift_add, _unpack

WordMonomial = tuple  # (a, b): the ordered word x^a y^b


class TorusElement:
    """Normal-form element of the quantum torus."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for key, c in items:
                a, b = key
                if not isinstance(c, QLaurent):
                    c = QLaurent.const(c) if isinstance(c, int) else c
                if c:
                    nc = t.get((a, b))
                    nc = c if nc is None else nc + c
                    if nc:
                        t[(a, b)] = nc
                    else:
                        del t[(a, b)]
        self._t = t

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
        t = dict(self._t)
        for key, c in other._t.items():
            nc = t.get(key)
            nc = c if nc is None else nc + c
            if nc:
                t[key] = nc
            else:
                del t[key]
        return TorusElement._raw(t)

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
        if self._t and other._t and len(self._t) * len(other._t) >= 1024:
            nnz1 = sum(len(c._t) for c in self._t.values())
            nnz2 = sum(len(c._t) for c in other._t.values())
            if nnz1 >= 3 * len(self._t) and nnz2 >= 3 * len(other._t):
                return _mul_large(self._t, other._t)
        acc: dict = {}
        for (a1, b1), c1 in self._t.items():
            for (a2, b2), c2 in other._t.items():
                tgt = acc.setdefault((a1 + a2, b1 + b2), {})
                _shift_add(tgt, (c1 * c2)._t, -2 * b1 * a2)
        return TorusElement._raw(
            {k: QLaurent._raw(d) for k, d in acc.items() if d}
        )

    def __rmul__(self, other):
        if isinstance(other, QLaurent):
            return TorusElement.scalar(other) * self
        return NotImplemented

    def __pow__(self, e: int) -> "TorusElement":
        if not isinstance(e, int) or e < 0:
            raise InvalidParameter("torus powers need a nonnegative integer")
        out = TorusElement.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            if e > 1:
                base = base * base
            e >>= 1
        return out

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


def _mul_large(t1: dict, t2: dict) -> TorusElement:
    """Product of two term dicts with all coefficients kept in packed
    big-integer form until the very end.

    Every coefficient is packed once at a common digit width and stride g;
    each pair product is then a single integer multiplication and each
    collision a single aligned integer addition, so the expensive digit
    decode happens once per output term instead of once per pair.  The
    digit width is chosen so that no accumulated digit can reach half the
    base, which makes the balanced decode exact for signed coefficients.
    The stride g divides every exponent offset inside a coefficient and
    every gap between the bases of pairs that land on the same key, so
    coefficients in q^r take r times fewer digits and the shifts stay exact.
    """
    maxc1 = max(max(abs(c) for c in q_._t.values()) for q_ in t1.values())
    maxc2 = max(max(abs(c) for c in q_._t.values()) for q_ in t2.values())
    maxnnz1 = max(len(q_._t) for q_ in t1.values())
    maxnnz2 = max(len(q_._t) for q_ in t2.values())
    bound = maxc1 * maxc2 * min(maxnnz1, maxnnz2) * min(len(t1), len(t2))
    width = _digit_width(bound)
    bits = 8 * width

    terms1 = [(a, b, min(c._t), max(c._t), c._t) for (a, b), c in t1.items()]
    terms2 = [(a, b, min(c._t), max(c._t), c._t) for (a, b), c in t2.items()]
    g = 0
    for _, _, lo, _, t in terms1 + terms2:
        g = math.gcd(g, *(k - lo for k in t))
    first: dict = {}
    for a1, b1, lo1, _, _ in terms1:
        for a2, b2, lo2, _, _ in terms2:
            base = lo1 + lo2 - 2 * b1 * a2
            g = math.gcd(g, base - first.setdefault((a1 + a2, b1 + b2), base))
    g = g or 1

    def packed(terms):
        return [(a, b, _pack(t, lo, (hi - lo) // g + 1, width, g), lo, hi)
                for a, b, lo, hi, t in terms]

    packed2 = packed(terms2)
    acc: dict = {}
    for a1, b1, v1, lo1, hi1 in packed(terms1):
        for a2, b2, v2, lo2, hi2 in packed2:
            sh = -2 * b1 * a2
            base = lo1 + lo2 + sh
            top = hi1 + hi2 + sh
            key = (a1 + a2, b1 + b2)
            v = v1 * v2
            cur = acc.get(key)
            if cur is None:
                acc[key] = [v, base, top]
                continue
            if base < cur[1]:
                cur[0] = (cur[0] << ((cur[1] - base) // g * bits)) + v
                cur[1] = base
            else:
                cur[0] += v << ((base - cur[1]) // g * bits)
            if top > cur[2]:
                cur[2] = top
    out = {}
    for key, (val, base, top) in acc.items():
        d = _unpack(val, base, (top - base) // g + 1, width, g)
        if d:
            out[key] = QLaurent._raw(d)
    return TorusElement._raw(out)


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
    """
    if not isinstance(d, TorusElement) or not isinstance(n, TorusElement):
        raise InvalidParameter("left_divide expects torus elements")
    if not d:
        raise InvalidParameter("left division by zero")
    if not n:
        return TorusElement.zero()
    (ad, bd), cd = d.lex_leading()
    if cd.num_terms() != 1:
        raise DivisionFailed("divisor lex-leading coefficient is not a unit")
    ((kd2, cd0),) = cd.items2()
    if cd0 not in (1, -1):
        raise DivisionFailed("divisor lex-leading coefficient is not a unit")

    na = [a for a, _ in n._t]
    nb = [b for _, b in n._t]
    da = [a for a, _ in d._t]
    db = [b for _, b in d._t]
    box_a = (min(na) - max(da), max(na) - min(da))
    box_b = (min(nb) - max(db), max(nb) - min(db))
    max_steps = (box_a[1] - box_a[0] + 1) * (box_b[1] - box_b[0] + 1)

    # Mutable remainder: (a, b) -> {doubled exponent -> coefficient}.
    rem = {key: dict(c._t) for key, c in n._t.items()}
    dterms = list(d._t.items())
    quot: dict = {}
    for _ in range(max_steps + 1):
        if not rem:
            return TorusElement._raw(quot)
        an, bn = max(rem)
        az, bz = an - ad, bn - bd
        if not (box_a[0] <= az <= box_a[1] and box_b[0] <= bz <= box_b[1]):
            raise DivisionFailed(
                f"quotient term X1^{az} X2^{bz} escapes the support box"
            )
        # cd * q^(-bd*az) * cz = cn  =>  cz = cn * q^(bd*az) / cd
        sh = 2 * bd * az - kd2
        sign = cd0
        cz = QLaurent._raw(
            {k2 + sh: (c if sign == 1 else -c) for k2, c in rem[(an, bn)].items()}
        )
        if (az, bz) in quot:
            raise AssertionError("duplicate quotient exponent in left_divide")
        quot[(az, bz)] = cz
        # subtract d * cz X1^az X2^bz from the remainder
        neg_cz = -cz
        for (a1, b1), c1 in dterms:
            key = (a1 + az, b1 + bz)
            if not _shift_add(rem.setdefault(key, {}), (c1 * neg_cz)._t, -2 * b1 * az):
                del rem[key]
    raise DivisionFailed("division did not terminate within the support box")
