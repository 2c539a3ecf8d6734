"""Cluster variables by torus recursion and their Grassmannian tables.

The sequence starts at the torus generators and obeys
X_{n-1} X_{n+1} = q^(r/2) X_n^r + 1; each step is an exact left division.
Every computed X_n decomposes as

    sum over e = (e1, e2) of
    q^((r(e1^2+(d2-e2)^2) - d1 d2)/2) * P_e(q^r) * X1^(-d1+r(d2-e2)) * X2^(r e1-d2)

with (d1, d2) = ``dim_vector(r, n)``; the P_e are polynomials in q with
nonnegative coefficients, one per dimension vector of subrepresentations.
``gr_table`` reads them off the last division of X_n and ``assemble_xvar``
is the exact inverse.

With the Euler form <e, d-e> = e1(d1-e1) + e2(d2-e2) - r e1(d2-e2): for the
rigid M_n a nonempty quiver Grassmannian Gr_e(M_n) is smooth projective of
dimension <e, d-e> (Caldero and Reineke, "On the quiver Grassmannian in the
acyclic case", JPAA 212, 2008), so a nonzero P_e is palindromic of that
degree with every coefficient from q^0 to it positive.  The converse, that
P_e is nonzero whenever <e, d-e> >= 0, is not taken from that paper; it is
checked only at the (r, n) of the Euler-form tests.  Where both hold, X_n
has one key per such e and sum (<e, d-e> + 1) coefficients; (5, 6) has
1,451 keys and 1,718,976 coefficients.

The power X_{n-1}^r in the step to X_n has no constant term, so the step
adds the 1 as a key of its own.  With (d1, d2) = ``dim_vector(r, n-1)`` and
d3 = r d2 - d1, the keys of X_{n-1} are (d3 - r e2, r e1 - d2) over the e
with P_e != 0, and a sum of r of them is (0, 0) only if r such e add up to
(d2, d3).  Every subrepresentation of the exceptional M_{n-1} has
e1 d2 <= e2 d1 (slope stability; checked by the tests, not cited), so
summing over the r of them would give d2^2 <= d1 d3.  But consecutive terms
of c_n keep d2^2 - r d2 d3 + d3^2 = 1, that is d2^2 - d1 d3 = 1.  For
n <= 4 it is direct: X_2^r is the monomial X2^r, and at n = 4, d3 = c_0 = -1.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from functools import lru_cache

from .errors import BudgetExceeded, ExtractionFailed, InvalidParameter, NotAPowerSeriesInQr
from .qlaurent import (ONE, QLaurent, _check_rn, _decode, _digit_width, _digits, _Keys, _live,
                       _offset_gcd, _pack, _power, _respace, _unpack, dim_vector)
from .records import Record
from .torus import TorusElement, _mul_large, _pack_element, left_divide

# Each recursion step is refused, and so never cached, past these sizes.
MAX_TERMS = 500_000
MAX_COEFF_BITS = 1 << 22


@lru_cache(maxsize=128, typed=True)
def xvar_recursive(r: int, n: int) -> TorusElement:
    """n-th cluster variable: X1, X2, then one exchange step per n."""
    _check_rn(r, n)
    if n <= 2:
        return TorusElement.monomial(1, 0) if n == 1 else TorusElement.monomial(0, 1)
    return _step(r, n)


def _step(r: int, n: int, target=None) -> TorusElement:
    """X_n by one exact left division, from the cached X_{n-2} and X_{n-1},
    or, given a division target, the quotient as the target keys and reads
    it (see ``qlaurent._divide_packed``); the table target's values are
    packed records, whose widths bound their coefficients for the cap
    (see ``_table_target``).  X_{n-1} is packed once, and the
    power is left packed from there to the division: every square and
    every product by X_{n-1} is one ``_mul_large`` of packed term maps.  The
    1 goes in as the entry [1, 0, 0] at the new key (0, 0) (see the module
    docstring); its one digit is 1, within the product's digit bound.  A
    step past the caps is refused, and so never cached."""
    try:
        prev2 = xvar_recursive(r, n - 2)
        # q^(1/2) is central: scaling X_{n-1} once gives q^(r/2) X_{n-1}^r
        x = _pack_element(xvar_recursive(r, n - 1).scale2(1))
    except RecursionError:  # raised while descending the cold chain, before any work
        raise BudgetExceeded("the uncached chain is deeper than Python's recursion limit") from None
    numerator = _power(x, r, None, _mul_large)
    del x  # freed before the division, where the step peaks in memory
    if (0, 0) in numerator.terms:
        raise AssertionError(f"X_{n - 1}^{r} has a constant term")
    numerator.terms[(0, 0)] = [1, 0, 0]
    cur = left_divide(prev2, numerator._replace(target=target))
    if cur.num_terms() > MAX_TERMS:
        raise BudgetExceeded(f"{cur.num_terms()} torus terms exceed the cap of {MAX_TERMS}")
    if target is None:
        bits = cur.max_coeff_bits()
    else:  # a record's digits have at most 8 bits a byte
        bits = max((8 * rec[3] for rec in cur._t.values()), default=0)
    if bits > MAX_COEFF_BITS:
        raise BudgetExceeded("coefficient size exceeds the configured cap")
    return cur


def _record(t: dict) -> tuple:
    """A coefficient dict with no negative value as a packed record (value,
    lo, length, width, step): its digits t[lo + step*i], i < length, as
    unsigned digits of width bytes.  Packed as signed digits, with their
    headroom, the nonnegative digits give the same value."""
    if not t:
        return 0, 0, 0, 1, 1
    if min(t.values()) < 0:
        raise InvalidParameter("a Grassmannian polynomial has no negative coefficient")
    lo, step = min(t), _offset_gcd({0: t}) or 1
    length = (max(t) - lo) // step + 1
    width = _digit_width(max(t.values()))
    return _pack(t, lo, length, width, step), lo, length, width, step


class _Entries(MutableMapping):
    """(e1, e2) -> P_e as a QLaurent, each held as a packed record of
    unsigned digits (see ``_record``) and decoded on read.  Every decode
    keys its exponents from one pool of at most as many ints as the records
    have digits (see ``qlaurent._Keys``)."""

    __slots__ = ("_recs", "_keys")

    def __init__(self, recs: dict):
        self._recs = recs
        self._keys = _Keys(sum(rec[2] for rec in recs.values()))

    def __getitem__(self, key) -> QLaurent:
        val, lo, length, width, step = self._recs[key]
        return QLaurent._raw(_unpack(val, lo, length, width, step, False, self._keys))

    def __setitem__(self, key, poly: QLaurent):
        if key in self._recs:
            del self[key]
        self._recs[key] = rec = _record(poly._t)
        self._keys.cap += rec[2]

    def __delitem__(self, key):
        self._keys.cap -= self._recs.pop(key)[2]

    def __iter__(self):
        return iter(self._recs)

    def __len__(self) -> int:
        return len(self._recs)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class GrTable(Record):
    """Per-dimension-vector polynomials attached to one cluster variable:
    entries maps (e1, e2) to P_e, which has no negative coefficient, held
    packed and decoded on read."""

    __slots__ = ("r", "n", "d1", "d2", "entries")

    def __init__(self, r: int, n: int, d1: int, d2: int, entries=None):
        self.r = r
        self.n = n
        self.d1 = d1
        self.d2 = d2
        if not isinstance(entries, _Entries):  # a dict (e1, e2) -> QLaurent, packed here
            entries = _Entries({key: _record(p._t) for key, p in (entries or {}).items()})
        self.entries = entries

    def entry(self, e1: int, e2: int) -> QLaurent:
        return self.entries.get((e1, e2), QLaurent.zero())

    def sorted_items(self):
        """(e, P_e) by ascending e, each decoded as it is reached."""
        entries = self.entries
        for key in sorted(entries):
            yield key, entries[key]

    def entry_objs(self):
        """The JSON object of each entry, by ascending e, one decode at a time."""
        for (e1, e2), p in self.sorted_items():
            yield {"e1": e1, "e2": e2, "poly": p.to_obj()}

    def to_obj(self):
        return {"d1": self.d1, "d2": self.d2, "entries": list(self.entry_objs())}


def gr_table(r: int, n: int) -> GrTable:
    """Extract the Grassmannian polynomials of X_n from the recursion: the
    last exchange step keeps each quotient term packed as its P_e (see
    ``_table_target``), so X_n itself is never built."""
    _check_rn(r, n)
    if n > 2:
        xvar_recursive(r, n - 1)  # refuses a too-deep chain before dim_vector's O(n) steps
    d1, d2 = dim_vector(r, n)
    table = GrTable(r, n, d1, d2, _Entries(_step(r, n, _table_target(r, d1, d2))._t))
    if table.entry(0, 0) != ONE or table.entry(d1, d2) != ONE:
        raise ExtractionFailed("corner entries of the table are not 1")
    return table


def _table_target(r: int, d1: int, d2: int):
    """The division target that reads the term of X_n at X1^a X2^b as
    (e1, e2) -> P_e, k -> (k - prefactor2) / r on its doubled exponents,
    kept as a packed record (see ``_record``).

    Every coefficient lies on prefactor2 + 2rZ, so when the popped entry's
    lo does and the run's stride g is a multiple of 2r (or the entry has one
    digit) the packed lattice proves every exponent, and the entry's live
    digits are P_e's, re-spaced as unsigned digits to the bytes of the
    largest.  Otherwise it is decoded at the run's lattice, checked term by
    term (``_compress``) and packed again.  Either way one transient list
    of the digits gives the sign check and the largest coefficient."""
    r2 = 2 * r

    def read(a, b, entry, width, g):
        if (a + d1) % r or (b + d2) % r:
            raise ExtractionFailed(f"term X1^{a} X2^{b} has non-integral indices")
        e2 = d2 - (a + d1) // r
        e1 = (b + d2) // r
        if not (0 <= e1 <= d1 and 0 <= e2 <= d2):
            raise ExtractionFailed(f"recovered ({e1}, {e2}) outside the box")
        prefactor2 = _prefactor2(r, d1, d2, e1, e2)
        val, lo, hi = entry
        proved = lo >= prefactor2 and not (lo - prefactor2) % r2 and (hi == lo or not g % r2)
        if proved:
            length = _live(entry, width, g)
            digits = _digits(val, length, width)
        else:
            terms = _compress(_decode(entry, width, g), prefactor2, r, e1, e2)
            digits = terms.values()
        if min(digits) < 0:
            raise ExtractionFailed(f"negative coefficient at ({e1}, {e2})")
        top = max(digits)
        if not proved:
            return (e1, e2), _record(terms), top
        # the digits are nonnegative, so the value is their unsigned packing
        new = _digit_width(top, False)
        if new < width and length > 1:
            val = _respace(val, length, width, new, False)
        return (e1, e2), (val, (lo - prefactor2) // r, length, new, g // r or 1), top

    return read


def _prefactor2(r: int, d1: int, d2: int, e1: int, e2: int) -> int:
    """c_e = r(e1^2 + (d2-e2)^2) - d1 d2, the doubled exponent of the
    prefactor q^(c_e/2) of P_e(q^r) in X_n (see the module docstring)."""
    return r * (e1 * e1 + (d2 - e2) ** 2) - d1 * d2


def _compress(coeff: dict, prefactor2: int, r: int, e1: int, e2: int) -> dict:
    """coeff.shift2(-prefactor2).compress_power(r), refused as
    ``ExtractionFailed``."""
    try:
        return QLaurent._raw(coeff).shift2(-prefactor2).compress_power(r)._t
    except NotAPowerSeriesInQr as err:
        raise ExtractionFailed(
            f"coefficient at ({e1}, {e2}) is not a polynomial in q^{r}: {err}"
        ) from None


def assemble_xvar(table: GrTable) -> TorusElement:
    """Rebuild the cluster variable from its table (inverse of gr_table)."""
    r, d1, d2 = table.r, table.d1, table.d2
    return TorusElement({(-d1 + r * (d2 - e2), r * e1 - d2):
                         poly.substitute_power(r).shift2(_prefactor2(r, d1, d2, e1, e2))
                         for (e1, e2), poly in table.entries.items()})
