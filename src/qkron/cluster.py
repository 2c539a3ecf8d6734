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

from functools import lru_cache

from .errors import BudgetExceeded, ExtractionFailed, NotAPowerSeriesInQr
from .qlaurent import ONE, QLaurent, _check_rn, _decode, _power, dim_vector
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
    or, given a decode target, the quotient as the target keys and decodes
    it (see ``qlaurent._divide_packed``).  X_{n-1} is packed once, and the
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
    if cur.max_coeff_bits() > MAX_COEFF_BITS:
        raise BudgetExceeded("coefficient size exceeds the configured cap")
    return cur


class GrTable(Record):
    """Per-dimension-vector polynomials attached to one cluster variable."""

    __slots__ = ("r", "n", "d1", "d2", "entries")

    def __init__(self, r: int, n: int, d1: int, d2: int, entries: dict | None = None):
        self.r = r
        self.n = n
        self.d1 = d1
        self.d2 = d2
        self.entries = {} if entries is None else entries  # (e1, e2) -> QLaurent

    def entry(self, e1: int, e2: int) -> QLaurent:
        return self.entries.get((e1, e2), QLaurent.zero())

    def sorted_items(self):
        return sorted(self.entries.items())

    def to_obj(self):
        return {
            "d1": self.d1,
            "d2": self.d2,
            "entries": [
                {"e1": e1, "e2": e2, "poly": p.to_obj()}
                for (e1, e2), p in self.sorted_items()
            ],
        }


def gr_table(r: int, n: int) -> GrTable:
    """Extract the Grassmannian polynomials of X_n from the recursion: the
    last exchange step decodes each quotient term straight into its P_e
    (see ``_table_target``), so X_n itself is never built."""
    _check_rn(r, n)
    if n > 2:
        xvar_recursive(r, n - 1)  # refuses a too-deep chain before dim_vector's O(n) steps
    d1, d2 = dim_vector(r, n)
    table = GrTable(r, n, d1, d2, _step(r, n, _table_target(r, d1, d2))._t)
    if table.entry(0, 0) != ONE or table.entry(d1, d2) != ONE:
        raise ExtractionFailed("corner entries of the table are not 1")
    return table


def _table_target(r: int, d1: int, d2: int):
    """The division target that reads the term of X_n at X1^a X2^b as
    (e1, e2) -> P_e, k -> (k - prefactor2) / r on its doubled exponents.

    Every coefficient lies on prefactor2 + 2rZ, so when the popped entry's
    lo does and the run's stride g is a multiple of 2r (or the entry has one
    digit) the packed lattice proves every exponent, and the entry is
    decoded straight to P_e.  Otherwise it is decoded at the run's lattice
    and checked term by term (``_compress``)."""
    r2 = 2 * r

    def decode(a, b, entry, width, g, keys):
        if (a + d1) % r or (b + d2) % r:
            raise ExtractionFailed(f"term X1^{a} X2^{b} has non-integral indices")
        e2 = d2 - (a + d1) // r
        e1 = (b + d2) // r
        if not (0 <= e1 <= d1 and 0 <= e2 <= d2):
            raise ExtractionFailed(f"recovered ({e1}, {e2}) outside the box")
        prefactor2 = _prefactor2(r, d1, d2, e1, e2)
        _, lo, hi = entry
        if lo >= prefactor2 and not (lo - prefactor2) % r2 and (hi == lo or not g % r2):
            terms = _decode(entry, width, g, prefactor2, r, keys)
        else:
            terms = _compress(_decode(entry, width, g), prefactor2, r, e1, e2)
        if min(terms.values()) < 0:
            raise ExtractionFailed(f"negative coefficient at ({e1}, {e2})")
        return (e1, e2), terms

    return decode


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
