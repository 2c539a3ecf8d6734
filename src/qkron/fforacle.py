"""Brute-force validation over small prime fields.

Builds rigid modules of the r-arrow two-vertex quiver over F_p, certified by
the endomorphism algebra being one-dimensional (which, at Euler form 1,
forces vanishing self-extensions), then counts points of subrepresentation
varieties and of image/preimage strata.  The counts are compared elsewhere
against polynomial evaluations at q = p.

Only the second vertex, the smaller one (d2 = c_{n-2} < d1 = c_{n-1}), is
ever enumerated.  For each U in Gr_u(F_p^{d2}) the preimage dimension
dim(intersection of phi_k^{-1}(U)) is d1 minus the rank of the rows
w . phi_k, w running over a basis of the annihilator of U; so the
annihilator is enumerated directly.  The subrepresentation counts then
follow by Gaussian binomials, and the image-dimension histograms on the
first vertex are solved from those counts by a unitriangular system.

Subspaces are enumerated by reduced-echelon pivot patterns and never
materialized into lists.  A vector over F_p is coded, for every p, as the
integer sum_j v_j 256^j, one byte per coordinate; the echelon rows are
base-p integers sum_i w_i p^i only because they index the row tables.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations, product

from .errors import BudgetExceeded, ConstructionFailed, InvalidParameter
from .qlaurent import _check_rn, _json_field, dim_vector, q_binomial

ALLOWED_PRIMES = (2, 3, 5)
MAX_SUBSPACES = 2_000_000  # the largest Grassmannian a count enumerates
SEARCH_ATTEMPTS = 1000  # random candidates tried per module before giving up


class FFModule(namedtuple("FFModule", "p r n d1 d2 phis")):
    """A representation over F_p: r matrices of shape d2 x d1."""

    # phis: r matrices, each a tuple of d2 rows (tuples of d1 ints)
    __slots__ = ()

    def to_obj(self):
        return {
            "p": self.p,
            "r": self.r,
            "phis": [[list(row) for row in phi] for phi in self.phis],
        }

    @classmethod
    def from_obj(cls, obj, n: int = 0) -> "FFModule":
        phis = tuple(
            tuple(tuple(map(_json_field, _json_field(row, kind=list)))
                  for row in _json_field(phi, kind=list))
            for phi in _json_field(obj, "phis", list)
        )
        p, r = _json_field(obj, "p"), _json_field(obj, "r")
        if p not in ALLOWED_PRIMES:
            raise InvalidParameter(f"p must be one of {ALLOWED_PRIMES}, got {p}")
        if not phis or not phis[0] or not phis[0][0]:
            raise InvalidParameter("module JSON must carry nonempty matrices")
        _check_rn(r, 1)
        if len(phis) != r:
            raise InvalidParameter(f"module JSON carries {len(phis)} matrices, not r = {r}")
        d2 = len(phis[0])
        d1 = len(phis[0][0])
        if any(len(phi) != d2 or any(len(row) != d1 for row in phi) for phi in phis):
            raise InvalidParameter(f"every matrix must be {d2} x {d1}")
        return cls(p, r, n, d1, d2, phis)


# -- exact linear algebra mod p ------------------------------------------------

# b -> b mod p for every byte b, one table per prime.
_BYTE_MOD = {p: bytes(b % p for b in range(256)) for p in ALLOWED_PRIMES}


def _reduce(v: int, p: int) -> int:
    """The code v with every byte taken mod p."""
    return int.from_bytes(
        v.to_bytes((v.bit_length() + 7) >> 3, "little").translate(_BYTE_MOD[p]), "little"
    )


def _code(vector, p: int) -> int:
    """The integer sum_j (v_j mod p) 256^j."""
    return int.from_bytes(bytes(x % p for x in vector), "little")


def _rank(rows, p: int) -> int:
    """Rank over F_p of rows given as codes sum_j v_j 256^j, 0 <= v_j < p."""
    return len(_eliminate(rows, p, {}))


def _eliminate(rows, p: int, basis: dict) -> dict:
    """Add the rows (codes as for ``_rank``) to an echelon basis in place and
    return it; its size is the rank.

    The basis is keyed by the leading byte.  At p = 2 a clearing step is
    one XOR.  At odd p each basis row is reduced and scaled so that its
    leading digit is 1, and kept as its lower bytes (its tail) with their
    mask.  A clearing step drops the leading byte of the row and adds
    (p - lead) times the tail without reducing: it adds at most (p - 1)^2 to
    each byte, so the row is reduced only when the next step could carry
    past a byte, or when it joins the basis.  The leading byte is read mod
    p, and masked away while it is a nonzero multiple of p."""
    if p == 2:
        for v in rows:
            while v:
                h = v.bit_length() >> 3  # a digit 1 fills 1 bit of its byte
                w = basis.get(h)
                if w is None:
                    basis[h] = v
                    break
                v ^= w
        return basis
    step = (p - 1) ** 2
    for v in rows:
        top = p - 1  # every byte of v is at most top
        while v:
            h = (v.bit_length() - 1) >> 3
            lead = (v >> 8 * h) % p
            if not lead:
                v &= (1 << 8 * h) - 1
                continue
            w = basis.get(h)
            if w is None:
                if top >= p:
                    v = _reduce(v, p)
                if lead != 1:
                    v = _reduce(v * pow(lead, -1, p), p)
                low = (1 << 8 * h) - 1
                basis[h] = v & low, low
                break
            if top + step > 255:
                v, top = _reduce(v, p), p - 1
            tail, low = w
            v = (v & low) + (p - lead) * tail
            top += step
    return basis


# -- subspace enumeration ------------------------------------------------------


@lru_cache(maxsize=1024)
def _num_subspaces(p: int, dim: int, k: int) -> int:
    """|Gr_k(F_p^dim)|, the Gaussian binomial [dim choose k] at q = p."""
    return int(q_binomial(dim, k).evaluate(p))


def _row_choices(p: int, dim: int, k: int):
    """For each reduced-echelon pivot pattern of k-subspaces of F_p^dim,
    the choices of each row, as integers sum_j v_j p^j (indices into the
    ``_row_table`` tables): row i is p^(pivot i) plus any combination of the
    non-pivot columns after it, independently of the other rows."""
    for pivots in combinations(range(dim), k):
        choices = []
        for pi in pivots:
            row = [p**pi]
            for j in range(pi + 1, dim):
                if j not in pivots:
                    row = [v + a * p**j for a in range(p) for v in row]
            choices.append(row)
        yield choices


def _iter_bases(p: int, dim: int, k: int):
    """Reduced-echelon bases of k-subspaces of F_p^dim (see ``_row_choices``)."""
    for choices in _row_choices(p, dim, k):
        yield from product(*choices)


# -- module construction -------------------------------------------------------


def end_dim(mod: FFModule) -> int:
    """Dimension of {(A, B) : B phi_k = phi_k A for all k} over F_p.

    The unknowns are B (d2 x d2, entry (i, l) at byte i d2 + l) and then A
    (d1 x d1, entry (l, j) at byte d2^2 + l d1 + j), so the equation for
    entry (i, j) of B phi_k - phi_k A leads with an entry of A."""
    d1, d2, p = mod.d1, mod.d2, mod.p
    rows = []
    for phi in mod.phis:
        cols = [_code([row[j] for row in phi], p) for j in range(d1)]
        for i, row in enumerate(phi):
            neg_row = sum(-x % p << 8 * (d2 * d2 + l * d1) for l, x in enumerate(row))
            rows += [col << 8 * i * d2 | neg_row << 8 * j for j, col in enumerate(cols)]
    return d1 * d1 + d2 * d2 - _rank(rows, p)


def build_module(p: int, r: int, n: int, seed: int = 0) -> FFModule:
    """A certified rigid module with dimension vector ``dim_vector(r, n)``:
    the first candidate whose endomorphism algebra is one-dimensional.

    For n = 4 or r = 2 the one candidate has phi_k[i][j] = 1 exactly when
    j = i + k: the coordinate functionals at n = 4 (d2 = 1) and two shifted
    identities at r = 2 (d1 = d2 + 1), which reach every n >= 4.  Otherwise,
    for n <= 6, the candidates are ``SEARCH_ATTEMPTS`` seeded random draws.
    """
    if p not in ALLOWED_PRIMES:
        raise InvalidParameter(f"p must be one of {ALLOWED_PRIMES}, got {p}")
    if not isinstance(n, int) or n < 4 or (n > 6 and r != 2):
        raise InvalidParameter(f"module index must be in 4..6 (any n >= 4 at r = 2), got {n}")
    d1, d2 = dim_vector(r, n)
    assert d1 * d1 + d2 * d2 - r * d1 * d2 == 1

    if n == 4 or r == 2:
        candidates = [tuple(tuple(tuple(int(j == i + k) for j in range(d1)) for i in range(d2))
                            for k in range(r))]
    else:
        rng = random.Random(f"qkron-ff-{p}-{r}-{n}-{seed}")
        candidates = (tuple(tuple(tuple(rng.randrange(p) for _ in range(d1)) for _ in range(d2))
                            for _ in range(r))
                      for _ in range(SEARCH_ATTEMPTS))
    for phis in candidates:
        mod = FFModule(p, r, n, d1, d2, phis)
        if end_dim(mod) == 1:
            return mod
    raise ConstructionFailed(f"no candidate module for (p={p}, r={r}, n={n}) passed certification")


# -- counting -------------------------------------------------------------------


def _check_cap(mod: FFModule, u: int) -> None:
    if _num_subspaces(mod.p, mod.d2, u) > MAX_SUBSPACES:
        raise BudgetExceeded(f"Gr_{u}(F_{mod.p}^{mod.d2}) exceeds the cap {MAX_SUBSPACES}")


# The histograms are keyed on (module, dimension) only: callers check the cap
# before asking, so a refused call caches nothing and a raised cap reuses them.
# A criterion-5 pass over the fourteen FF_CONFIGS holds about 170 of them.
@lru_cache(maxsize=1024)
def _preimage_dim_hist(mod: FFModule, u: int):
    """Histogram {dim(intersection of phi_k^{-1}(U)) : U in Gr_u(F_p^{d2})}.

    U is enumerated through its annihilator W in Gr_{d2-u}(F_p^{d2}), and
    the preimage has dimension d1 - rank{w . phi_k : w in a basis of W}.
    """
    d1, d2, p = mod.d1, mod.d2, mod.p
    if u == d2:  # W = 0
        return {d1: 1}
    if u == 0:  # W = F_p^{d2}: every row of every phi_k
        return {d1 - _rank([_code(row, p) for phi in mod.phis for row in phi], p): 1}
    # 0 < u < d2: at least p^(d2-1) subspaces, which bounds the tables by p * MAX_SUBSPACES
    tables = [_row_table(phi, p) for phi in mod.phis]
    hist: Counter = Counter()

    def walk(choices, basis):
        # each choice of the first row extends a copy of the basis by its r
        # images once, for every choice of the rows after it
        rows, rest = choices[0], choices[1:]
        for w in rows:
            ext = _eliminate([tbl[w] for tbl in tables], p, basis.copy())
            if rest:
                walk(rest, ext)
            else:
                hist[d1 - len(ext)] += 1

    for choices in _row_choices(p, d2, d2 - u):
        walk(choices, {})
    return dict(hist)


def _row_table(phi, p: int) -> list:
    """tbl[w] = the code of w . phi for every w = sum_i w_i p^i in F_p^{d2}.

    Row by row: with rows 0..i-1 done, the next block of entries is the
    previous block plus row i, p - 1 times over.  A block is one bytes
    object, d1 bytes per entry, so adding the row to every entry is one
    integer sum and one translate, and each entry is read back from its
    d1-byte slice."""
    d1 = len(phi[0])
    tbl = [0]
    done = bytearray(d1)  # the entries so far, as the next row's block
    for i, row in enumerate(phi, 1):
        step = int.from_bytes(bytes(x % p for x in row) * len(tbl), "little")
        blk = bytes(done)
        for _ in range(p - 1):
            blk = (int.from_bytes(blk, "little") + step).to_bytes(len(blk), "little")
            blk = blk.translate(_BYTE_MOD[p])
            if i < len(phi):  # no later row reads the last row's block
                done += blk
            tbl += [int.from_bytes(blk[k:k + d1], "little") for k in range(0, len(blk), d1)]
    return tbl


@lru_cache(maxsize=1024)
def _image_dim_hist(mod: FFModule, s: int):
    """Histogram {dim(sum_k phi_k(U)) : U in Gr_s(F_p^{d1})} -> count.

    Nothing is enumerated on the first vertex.  Counting the pairs (U, U2)
    with sum_k phi_k(U) inside U2 in Gr_u(F_p^{d2}) once by U and once by U2
    gives, for u = 0..d2,

        sum_{w <= u} h[w] [d2 - w choose u - w]_p = count_gr(s, u),

    a unitriangular system in the histogram h, solved by forward
    substitution in exact integers.  Every [d2 choose u]_p is at most
    [d2 choose d2 // 2]_p, which ``count_strata`` checks against the cap.
    """
    d2, p = mod.d2, mod.p
    h: list = []
    for u in range(d2 + 1):
        pairs = count_gr(mod, s, u)
        h.append(pairs - sum(h[w] * _num_subspaces(p, d2 - w, u - w) for w in range(u)))
    return {w: c for w, c in enumerate(h) if c}


def count_gr(mod: FFModule, e1: int, e2: int) -> int:
    """Number of subrepresentations with dimension vector (e1, e2).

    Only the second-vertex side is enumerated: for each U2 in
    Gr_{e2}(F_p^{d2}) the subspaces at the first vertex inside the preimage
    intersection, of dimension w, number [w choose e1]_p.  Refuses when
    |Gr_{e2}(F_p^{d2})| exceeds ``MAX_SUBSPACES``.
    """
    if not 0 <= e1 <= mod.d1 or not 0 <= e2 <= mod.d2:
        raise InvalidParameter(f"({e1}, {e2}) outside the dimension box")
    _check_cap(mod, e2)
    hist = _preimage_dim_hist(mod, e2)
    return sum(cnt * _num_subspaces(mod.p, w, e1) for w, cnt in hist.items())


SIDES = ("z", "zbar", "zp", "zpbar")


def count_strata(mod: FFModule, side: str, p_param: int, s: int) -> int:
    """Point count of one stratum.

    ``z``:     U in Gr_s(M_1) with dim(sum phi_k(U)) = d2 - p_param
    ``zbar``:  same with <= d2 - p_param
    ``zp``:    U in Gr_{d2-s}(M_2) with dim(intersection phi_k^{-1}(U)) = p_param
    ``zpbar``: same with >= p_param

    The preimage sides enumerate Gr_{d2-s}(M_2).  The image sides are solved
    from the counts ``count_gr(s, u)``, u = 0..d2 (see ``_image_dim_hist``),
    which enumerate every Gr_u(M_2); each enumerated Grassmannian is refused
    past ``MAX_SUBSPACES``.
    """
    if side not in SIDES:
        raise InvalidParameter(f"side must be one of {SIDES}, got {side!r}")
    if p_param < 0 or s < 0:
        raise InvalidParameter("stratum parameters must be nonnegative")
    if side in ("z", "zbar"):
        if s > mod.d1:
            raise InvalidParameter(f"s must lie in 0..{mod.d1} on this side")
        _check_cap(mod, mod.d2 // 2)  # the largest Gr_u(F_p^{d2}) it enumerates
        hist = _image_dim_hist(mod, s)
        if side == "z":
            return hist.get(mod.d2 - p_param, 0)
        return sum(c for w, c in hist.items() if w <= mod.d2 - p_param)
    if s > mod.d2:
        raise InvalidParameter(f"s must lie in 0..{mod.d2} on this side")
    _check_cap(mod, mod.d2 - s)
    hist = _preimage_dim_hist(mod, mod.d2 - s)
    if side == "zp":
        return hist.get(p_param, 0)
    return sum(c for w, c in hist.items() if w >= p_param)
