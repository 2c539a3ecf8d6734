"""Stratification transforms and closed forms for the sixth module.

Fixing the second subspace dimension e2, the Grassmannian polynomials of a
module are an invertible triangular transform of the polynomials of the
preimage-dimension strata inside the ordinary Grassmannian Gr_{e2}(M_2):

    open stratum   Z'(p)    = sum_{e1>=p} (-1)^(e1-p) q^C(e1-p,2) [e1 choose p]_q P_{e1,e2}
    closed stratum Zbar'(p) = sum_{e1>=p} (-1)^(e1-p) q^C(e1-p+1,2) [e1-1 choose e1-p]_q P_{e1,e2}

and conversely P_{e1,e2} = sum_p [p choose e1]_q Z'(p).  Each signed weight
is written once, ``_open_weight`` and ``_closed_weight``; since Zbar'(p) is
the tail sum of the Z'(k) over k >= p, the closed weight at (e1, p) is the
sum of the open weights at (e1, k) over k >= p, the signed q-binomial
identity that ``verify --suite alternating`` checks on these two functions.
The closed weights use the convention [−1 choose 0]_q = 1 at the (0, 0)
corner.  The stratum tables come from one q-Pascal sweep per column, with no
polynomial product.  One upper-triangular builder gives both
``q_binomial_matrix`` and its inverse ``transform_matrix`` (the open
weights); ``transform_matrix`` and ``closed_zbar_m6`` keep the signed
weights as checks independent of the sweep, and the weighted sums are matrix
products (``qlaurent.mat_mul``), which run on the same pair product as the
torus recursion.

For M_6, of dimension vector ``dim_vector(r, 6)``, and e2 = 1 both sides
have closed forms valid for every r; ``closed_zbar_m6`` produces, among
other things, a stratum polynomial with negative coefficients and negative
value at q = 1 (r = 10, p = 5), which the generic pipeline reproduces for
small r.
"""

from __future__ import annotations

import math

from .cluster import GrTable
from .errors import InvalidParameter
from .qlaurent import QLaurent, _check_rn, _is_int, _shift_add, dim_vector, mat_mul, q_binomial
from .records import Record


def _upper_triangular(size: int, entry):
    """The size x size matrix with (i, j) entry entry(j, i) for i <= j, zero below."""
    if size < 1:
        raise InvalidParameter("matrix size must be positive")
    return [[entry(j, i) if i <= j else QLaurent.zero() for j in range(size)]
            for i in range(size)]


def q_binomial_matrix(size: int):
    """Upper-triangular matrix with (i, j) entry [j choose i]_q (0-indexed)."""
    return _upper_triangular(size, q_binomial)


def _open_weight(e1: int, p: int) -> QLaurent:
    """(-1)^(e1-p) q^C(e1-p,2) [e1 choose p]_q, the weight of P_{e1,e2} in Z'(p)."""
    w = q_binomial(e1, p).shift2(2 * math.comb(e1 - p, 2))
    return -w if (e1 - p) % 2 else w


def _closed_weight(e1: int, p: int) -> QLaurent:
    """(-1)^(e1-p) q^C(e1-p+1,2) [e1-1 choose e1-p]_q, its weight in Zbar'(p)."""
    w = q_binomial(e1 - 1, e1 - p).shift2(2 * math.comb(e1 - p + 1, 2))
    return -w if (e1 - p) % 2 else w


def transform_matrix(size: int):
    """Inverse of ``q_binomial_matrix``: (i, j) entry ``_open_weight(j, i)``
    for i <= j, zero below."""
    return _upper_triangular(size, _open_weight)


class StrataTable(Record):
    """Open and closed stratum polynomials for one fixed e2."""

    __slots__ = ("e2", "d1", "d2", "zprime", "zbarprime")

    def __init__(self, e2: int, d1: int, d2: int, zprime: dict | None = None,
                 zbarprime: dict | None = None):
        self.e2 = e2
        self.d1 = d1
        self.d2 = d2
        self.zprime = {} if zprime is None else zprime  # p -> QLaurent
        self.zbarprime = {} if zbarprime is None else zbarprime

    def zp(self, p: int) -> QLaurent:
        return self.zprime.get(p, QLaurent.zero())

    def zbar(self, p: int) -> QLaurent:
        return self.zbarprime.get(p, QLaurent.zero())

    def to_obj(self):
        def rows(strata):
            return [{"p": p, "poly": strata[p].to_obj()} for p in sorted(strata)]

        return {
            "e2": self.e2,
            "d1": self.d1,
            "d2": self.d2,
            "zprime": rows(self.zprime),
            "zbarprime": rows(self.zbarprime),
        }


def _pascal_sweep(col) -> list:
    """Tail sums Zbar(k) = sum_{p>=k} Z(p) of the Z with col[e] = sum_p [p choose e]_q Z(p).

    f[e] runs in place through F(e, k) = sum_p [p choose e]_q Z(p+k), zero past the last
    index, by q-Pascal: F(e-1, k+1) = F(e, k) - q^e F(e, k+1); Zbar(k) = F(0, k)."""
    f = list(col)
    tails = []
    while f:
        tails.append(f[0])
        f = f[1:]
        for i in range(len(f) - 2, -1, -1):
            f[i] = f[i] - f[i + 1].shift2(2 * i + 2)
    return tails


def _strata(col, d1: int):
    """(Z', Zbar') as p -> QLaurent for p = 0..d1, zero past the column's end."""
    zbar = _pascal_sweep(col)
    zbar += [QLaurent.zero()] * (d1 + 2 - len(zbar))
    zprime = {p: zbar[p] - zbar[p + 1] for p in range(d1 + 1)}
    return zprime, dict(enumerate(zbar[: d1 + 1]))


def strata_from_gr(table: GrTable, e2: int) -> StrataTable:
    """Invert the Grassmannian column at e2 into stratum polynomials."""
    if not _is_int(e2):
        raise InvalidParameter(f"e2 must be an integer, got {e2!r}")
    if not 0 <= e2 <= table.d2:
        raise InvalidParameter(f"e2 must lie in 0..{table.d2}, got {e2}")
    column = [table.entry(e1, e2) for e1 in range(table.d1 + 1)]
    return StrataTable(e2, table.d1, table.d2, *_strata(column, table.d1))


def _dot(row: list, col: list) -> QLaurent:
    """sum_k row[k] * col[k], as a 1 x m by m x 1 matrix product."""
    if not row:
        return QLaurent.zero()
    return mat_mul([row], [[x] for x in col])[0][0]


def gr_from_strata(strata: StrataTable, e1: int) -> QLaurent:
    """Forward reconstruction of a Grassmannian polynomial from the open
    strata: sum_p [p choose e1]_q Z'(p)."""
    ps = [p for p, poly in strata.zprime.items() if poly]
    return _dot([q_binomial(p, e1) for p in ps], [strata.zprime[p] for p in ps])


def closed_gr_m6(r: int, e1: int) -> QLaurent:
    """Grassmannian polynomial at (e1, 1) for M_6, of dimension vector
    ``dim_vector(r, 6)``, in closed form; zero once e1 exceeds r-1."""
    _check_rn(r, 6)
    if not _is_int(e1) or e1 < 0:
        raise InvalidParameter(f"e1 must be a nonnegative integer, got {e1}")
    if e1 > r - 1:
        return QLaurent.zero()
    col = q_binomial(r - 1, e1)
    head = (q_binomial(r, 1) * col)._t
    total = dict((q_binomial(r - 1, 1) * col)._t)
    for j in range(1, r):  # total += (head - [r-j-1 choose e1-j]_q) q^((r-e1)j-1)
        shift = 2 * ((r - e1) * j - 1)
        _shift_add(total, head, shift)
        _shift_add(total, q_binomial(r - j - 1, e1 - j)._t, shift, -1)
    return QLaurent._raw(total)


def closed_zbar_m6(r: int, p: int) -> QLaurent:
    """Closed-stratum polynomial at parameter p (second index d2 - 1) for the
    same module, in closed form valid for every r."""
    _check_rn(r, 6)
    if not _is_int(p) or p < 0:
        raise InvalidParameter(f"p must be a nonnegative integer, got {p}")
    # e1 runs up to d1, but closed_gr_m6 vanishes past r - 1 <= d1
    e1s = range(p, r)
    return _dot([closed_gr_m6(r, e1) for e1 in e1s], [_closed_weight(e1, p) for e1 in e1s])


def closed_strata_m6(r: int) -> StrataTable:
    """Stratum table at e2 = 1 for the same module, swept from the closed
    column ``closed_gr_m6``, which vanishes past e1 = r - 1."""
    d1, d2 = dim_vector(r, 6)
    column = [closed_gr_m6(r, e1) for e1 in range(r)]
    return StrataTable(1, d1, d2, *_strata(column, d1))


def euler_char(poly: QLaurent) -> int:
    """Value at q = 1 (always an integer for our polynomials)."""
    val = poly.evaluate(1)
    if val.denominator != 1:
        raise AssertionError("evaluation at 1 must be integral")
    return int(val)
