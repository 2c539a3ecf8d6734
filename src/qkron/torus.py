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
from .qlaurent import (ONE, QLaurent, _digit_width, _divide_packed, _division_width, _json_field,
                       _max_coeff, _mul_packed, _mul_pairs, _offset_gcd, _pack_terms, _Packed,
                       _power, _twisted)


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
            ((_json_field(e, "x1"), _json_field(e, "x2")),
             QLaurent.from_obj(_json_field(e, "coeff", dict)))
            for e in _json_field(obj, "terms", list)
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


def _mul_large(t1, t2):
    """Normal-form product of two torus term maps: every torus product runs
    here.  {(a, b): QLaurent} dicts multiply to a TorusElement through
    ``qlaurent._mul_pairs`` over the ``_twisted`` pairs, which picks the
    loop on dicts or the packed one from the operands; packed term maps
    (``_Packed``) multiply to a packed one through ``qlaurent._mul_packed``,
    the form ``left_divide`` takes as it is."""
    if isinstance(t1, _Packed):
        return _mul_packed(t1, t2, _twisted(t1.terms, t2.terms))
    same = t1 is t2
    t1 = _terms(t1)
    t2 = t1 if same else _terms(t2)
    prod = _mul_pairs(t1, t2, _twisted(t1, t2))
    return TorusElement._raw({key: QLaurent._raw(d) for key, d in prod.items()})


def _pack_element(x: TorusElement) -> _Packed:
    """x as a packed term map at its own stride, its offset gcd, and at the
    digit width of its largest |coefficient|."""
    t = _terms(x._t)
    bound, g = _max_coeff(t), _offset_gcd(t) or 1
    width = _digit_width(bound)
    return _Packed(_pack_terms(t, width, g), width, g, bound)


X1 = TorusElement.monomial(1, 0)
X2 = TorusElement.monomial(0, 1)


def word_to_torus(a: int, b: int) -> TorusElement:
    """Image of the ordered word x^a y^b: q^((a-b)/2) * X1^a * X2^b."""
    return TorusElement.monomial(a, b, QLaurent.q_power(a - b))


def left_divide(d: TorusElement, n) -> TorusElement:
    """Solve d * Z = n exactly in the torus algebra.

    Greedy division in lexicographic order on exponent pairs (X1 first).  The
    leading term of a product is the product of leading terms because
    exponents add and the q-twist is a unit, so each step is forced.  The
    divisor's lex-leading coefficient must be a unit (+-q^(k/2)); quotient
    exponents must stay inside the box [min(n)-max(d), max(n)-min(d)]
    componentwise, which bounds the loop and certifies failure otherwise.
    n is a TorusElement, packed here once with its largest |coefficient| as
    the first bound, or a packed term map (``_Packed``, as ``_mul_large``
    returns it from packed operands, the form every recursion step hands
    over), taken as it is with its digit bound, and with the decode target
    it may carry: the quotient is then the target's term map (see
    ``_divide_packed``; ``cluster.gr_table`` reads its table so).
    The remainder stays packed (see ``_divide_packed``); a run that cannot
    prove its decodes exact is repeated with a larger bound or finer stride.
    """
    packed = isinstance(n, _Packed)
    if not isinstance(d, TorusElement) or not (packed or isinstance(n, TorusElement)):
        raise InvalidParameter("left_divide expects torus elements")
    if not d:
        raise InvalidParameter("left division by zero")
    nkeys = n.terms if packed else n._t
    if not nkeys:
        return TorusElement.zero()
    _, cd = d.lex_leading()
    if cd.num_terms() != 1 or cd.items2()[0][1] not in (1, -1):
        raise DivisionFailed("divisor lex-leading coefficient is not a unit")

    (na, nb), (da, db) = zip(*nkeys), zip(*d._t)
    box = (min(na) - max(da), max(na) - min(da), min(nb) - max(db), max(nb) - min(db))
    dt = _terms(d._t)
    if packed:
        bound, g = n.bound, math.gcd(_offset_gcd(dt), n.g)
    else:
        nt = _terms(n._t)
        bound, g = _max_coeff(nt), _offset_gcd(dt, nt) or 1
        width = _division_width(dt, bound, bound)
        n = _Packed(_pack_terms(nt, width, g), width, g, bound)
    quot = None
    while quot is None:
        quot, bound, g = _divide_packed(dt, n, box, bound, g)
    return TorusElement._raw(quot)
