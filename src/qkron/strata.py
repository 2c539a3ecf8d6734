"""Stratification transforms and closed forms for the sixth module.

Fixing the second subspace dimension e2, the Grassmannian polynomials of a
module are an invertible triangular transform of the polynomials of the
preimage-dimension strata inside the ordinary Grassmannian Gr_{e2}(M_2):

    open stratum   Z'(p)    = sum_{e1>=p} (-1)^(e1-p) q^C(e1-p,2) [e1 choose p]_q P_{e1,e2}
    closed stratum Zbar'(p) = sum_{e1>=p} (-1)^(e1-p) q^C(e1-p+1,2) [e1-1 choose e1-p]_q P_{e1,e2}

and conversely P_{e1,e2} = sum_p [p choose e1]_q Z'(p).  The closed-stratum
weights use the convention [−1 choose 0]_q = 1 at the (0, 0) corner.

For the module with dimension vector (r^3-2r, r^2-1) and e2 = 1 both sides
have closed forms valid for every r; ``closed_zbar_m6`` produces, among
other things, a stratum polynomial with negative coefficients and negative
value at q = 1 (r = 10, p = 5), which the generic pipeline reproduces for
small r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cluster import GrTable
from .errors import InvalidParameter
from .qlaurent import QLaurent, q_binomial


def q_binomial_matrix(size: int):
    """Upper-triangular matrix with (i, j) entry [j choose i]_q (0-indexed)."""
    if size < 1:
        raise InvalidParameter("matrix size must be positive")
    return [
        [q_binomial(j, i) if i <= j else QLaurent.zero() for j in range(size)]
        for i in range(size)
    ]


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
    if size < 1:
        raise InvalidParameter("matrix size must be positive")
    return [
        [_open_weight(j, i) if i <= j else QLaurent.zero() for j in range(size)]
        for i in range(size)
    ]


@dataclass
class StrataTable:
    """Open and closed stratum polynomials for one fixed e2."""

    e2: int
    d1: int
    d2: int
    zprime: dict = field(default_factory=dict)  # p -> QLaurent
    zbarprime: dict = field(default_factory=dict)

    def zp(self, p: int) -> QLaurent:
        return self.zprime.get(p, QLaurent.zero())

    def zbar(self, p: int) -> QLaurent:
        return self.zbarprime.get(p, QLaurent.zero())

    def to_obj(self):
        return {
            "e2": self.e2,
            "d1": self.d1,
            "d2": self.d2,
            "zprime": [
                {"p": p, "poly": self.zprime[p].to_obj()} for p in sorted(self.zprime)
            ],
            "zbarprime": [
                {"p": p, "poly": self.zbarprime[p].to_obj()}
                for p in sorted(self.zbarprime)
            ],
        }


def strata_from_gr(table: GrTable, e2: int) -> StrataTable:
    """Invert the Grassmannian column at e2 into stratum polynomials."""
    if not 0 <= e2 <= table.d2:
        raise InvalidParameter(f"e2 must lie in 0..{table.d2}, got {e2}")
    col = {e1: table.entry(e1, e2) for e1 in range(table.d1 + 1)}
    zprime = {}
    zbarprime = {}
    for p in range(table.d1 + 1):
        zp = QLaurent.zero()
        zb = QLaurent.zero()
        for e1 in range(p, table.d1 + 1):
            poly = col[e1]
            if not poly:
                continue
            zp = zp + poly * _open_weight(e1, p)
            zb = zb + poly * _closed_weight(e1, p)
        zprime[p] = zp
        zbarprime[p] = zb
    # The closed strata must be the tails of the open ones.
    tail = QLaurent.zero()
    for p in range(table.d1, -1, -1):
        tail = tail + zprime[p]
        if tail != zbarprime[p]:
            raise AssertionError(f"closed stratum at p={p} is not the tail sum")
    return StrataTable(e2, table.d1, table.d2, zprime, zbarprime)


def gr_from_strata(strata: StrataTable, e1: int) -> QLaurent:
    """Forward reconstruction of a Grassmannian polynomial from the open
    strata: sum_p [p choose e1]_q Z'(p)."""
    out = QLaurent.zero()
    for p, poly in strata.zprime.items():
        if poly:
            out = out + q_binomial(p, e1) * poly
    return out


def _check_r(r) -> None:
    if not isinstance(r, int) or r < 2:
        raise InvalidParameter(f"r must be an integer >= 2, got {r}")


def closed_gr_m6(r: int, e1: int) -> QLaurent:
    """Grassmannian polynomial at (e1, 1) for the module with dimension
    vector (r^3-2r, r^2-1), in closed form; zero once e1 exceeds r-1."""
    _check_r(r)
    if not isinstance(e1, int) or e1 < 0:
        raise InvalidParameter(f"e1 must be a nonnegative integer, got {e1}")
    if e1 > r - 1:
        return QLaurent.zero()
    total = q_binomial(r - 1, 1) * q_binomial(r - 1, e1)
    for j in range(1, r):
        bracket = q_binomial(r, 1) * q_binomial(r - 1, e1) - q_binomial(
            r - j - 1, e1 - j
        )
        total = total + bracket.shift2(2 * ((r - e1) * j - 1))
    return total


def closed_zbar_m6(r: int, p: int) -> QLaurent:
    """Closed-stratum polynomial at parameter p (second index r^2-2) for the
    same module, in closed form valid for every r."""
    _check_r(r)
    if not isinstance(p, int) or p < 0:
        raise InvalidParameter(f"p must be a nonnegative integer, got {p}")
    total = QLaurent.zero()
    # e1 runs up to d1 = r^3 - 2r, but closed_gr_m6 vanishes past r - 1 <= d1
    for e1 in range(p, r):
        poly = closed_gr_m6(r, e1)
        if not poly:
            continue
        total = total + poly * _closed_weight(e1, p)
    return total


def closed_strata_m6(r: int) -> StrataTable:
    """Stratum table at e2 = 1 for the same module from the closed forms:
    Zbar'(p) by ``closed_zbar_m6`` and Z'(p) = Zbar'(p) - Zbar'(p+1)."""
    _check_r(r)
    d1 = r**3 - 2 * r
    zbar = {p: closed_zbar_m6(r, p) for p in range(d1 + 1)}
    zp = {p: zbar[p] - zbar.get(p + 1, QLaurent.zero()) for p in zbar}
    return StrataTable(1, d1, r**2 - 1, zp, zbar)


def euler_char(poly: QLaurent) -> int:
    """Value at q = 1 (always an integer for our polynomials)."""
    val = poly.evaluate(1)
    if val.denominator != 1:
        raise AssertionError("evaluation at 1 must be integral")
    return int(val)
