"""Compatible families of path elements and the expansion they generate.

The element pool of a path consists of every colored subpath between marked
vertices plus every single edge.  A compatible family is a set of elements
that are pairwise edge-disjoint, whose subpaths never share a marked
endpoint, and in which every green subpath has at least one edge of its
admissibility window (the ``c_{m-1} - w*c_{m-2}`` edges just before its
start vertex) covered by the support of the family.

Every family contributes one torus monomial: each edge gets a two-letter
word weight from an eight-case table, the word is specialized into the
quantum torus, and the ordered product is conjugated by X1 and scaled by q.
Summed over all families this reproduces the cluster variable (up to a
global q^(1/2)), which is the central cross-check of the package.

Enumeration comes in two forms: a literal backtracker that yields each
family once (``enumerate_families``), and a prefix aggregation over the
states of a left-to-right scan (``xvar_enum``) that computes the full sum by
distributing the edge products; the two are compared term-for-term in the
test-suite on every desk-size instance.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .dyck import Color, DyckPath, build_dyck, classify
from .errors import (
    BudgetExceeded,
    ExhaustivenessViolation,
    IndexOutOfRange,
    InvalidParameter,
)
from .qlaurent import QLaurent, _digit_width, _OffStride, _unpack, c_sequence
from .torus import TorusElement, word_to_torus

DEFAULT_FAMILY_BUDGET = 30_000_000
# The scan is refused, before it computes any value, past this many states.
MAX_SCAN_STATES = 100_000


class SingleEdge(namedtuple("SingleEdge", "index")):
    __slots__ = ()

    @property
    def lo(self) -> int:
        return self.index

    @property
    def hi(self) -> int:
        return self.index


class Subpath(namedtuple("Subpath", "i k color lo hi")):
    __slots__ = ()


class Family(namedtuple("Family", "elements support")):
    # both frozensets: the chosen elements and the edges they cover
    __slots__ = ()

    def subpaths(self):
        return sorted(
            (el for el in self.elements if isinstance(el, Subpath)),
            key=lambda s: (s.i, s.k),
        )

    def single_edges(self):
        return sorted(
            (el.index for el in self.elements if isinstance(el, SingleEdge))
        )

    def to_obj(self):
        return {
            "edges": self.single_edges(),
            "subpaths": [
                {"i": s.i, "k": s.k, "color": str(s.color)} for s in self.subpaths()
            ],
        }


@lru_cache(maxsize=64)
def path_elements(path: DyckPath):
    """Element pool: subpaths sorted by (i, k), then single edges by index."""
    els = []
    for i in range(0, path.height):
        for k in range(i + 1, path.height + 1):
            color, (lo, hi) = classify(path, i, k)
            els.append(Subpath(i, k, color, lo, hi))
    for t in range(1, path.n_edges + 1):
        els.append(SingleEdge(t))
    return tuple(els)


def _green_window(path: DyckPath, sp: Subpath):
    """Inclusive edge interval a green subpath needs covered (truncated at
    the start of the path)."""
    r = path.r
    length = c_sequence(r, sp.color.m - 1) - sp.color.w * c_sequence(r, sp.color.m - 2)
    anchor = path.v_edge[sp.i]  # vertical edge entering the start vertex
    return max(1, anchor - length + 1), anchor


def _in_subpath_weight(path: DyckPath, lo: int, is_red: bool, t: int):
    """Word weight of edge t covered by a subpath whose range starts at lo."""
    if is_red and t == lo:
        return (-1, -1)
    if path.word[t - 1] == "h":
        return (0, 0)
    u = t - path.r + 1
    if u < 1 or u < lo:
        raise ExhaustivenessViolation(
            f"vertical edge {t} inside a subpath has no in-range edge {u}"
        )
    return (0, -1) if path.word[u - 1] == "h" else (1, -1)


def edge_weight(path: DyckPath, family: Family, i: int):
    """Word monomial (a, b) attached to edge i relative to the family."""
    if not 1 <= i <= path.n_edges:
        raise IndexOutOfRange(f"edge index {i} outside 1..{path.n_edges}")
    horizontal = path.word[i - 1] == "h"
    if i not in family.support:
        return (-1, path.r) if horizontal else (-1, path.r - 1)
    owner = None
    for el in family.elements:
        if el.lo <= i <= el.hi:
            owner = el
            break
    if owner is None:
        raise AssertionError("support contains an edge no element covers")
    if isinstance(owner, SingleEdge):
        return (-1, 0) if horizontal else (-1, -1)
    return _in_subpath_weight(path, owner.lo, owner.color.kind == "red", i)


def family_degrees(family: Family):
    """(sum of k - i over subpaths, total number of supported edges)."""
    d1 = sum(el.k - el.i for el in family.elements if isinstance(el, Subpath))
    return d1, len(family.support)


def family_term(path: DyckPath, family: Family) -> TorusElement:
    """Torus monomial of one family: q * X1 * (product of edge weights) * X1^-1,
    computed literally with torus multiplications."""
    acc = TorusElement.one()
    for t in range(1, path.n_edges + 1):
        a, b = edge_weight(path, family, t)
        acc = acc * word_to_torus(a, b)
    out = TorusElement.monomial(1, 0) * acc * TorusElement.monomial(-1, 0)
    return out.scale2(2)


def enumerate_families(path: DyckPath):
    """Yield every compatible family exactly once, deterministically.

    Backtracks over the ordered element pool; edge-disjointness and the
    endpoint condition are enforced when an element is taken, the green
    admissibility windows once the subset is complete (elements taken later
    can still cover a window, so the check cannot be done earlier).
    """
    els = path_elements(path)
    n_els = len(els)
    used: set = set()
    chosen: list = []
    starts: set = set()
    ends: set = set()
    windows: list = []

    def rec(idx):
        if idx == n_els:
            for wlo, whi in windows:
                if not any(e in used for e in range(wlo, whi + 1)):
                    return
            yield Family(frozenset(chosen), frozenset(used))
            return
        yield from rec(idx + 1)
        el = els[idx]
        rng = range(el.lo, el.hi + 1)
        if any(e in used for e in rng):
            return
        is_sub = isinstance(el, Subpath)
        if is_sub and (el.i in ends or el.k in starts):
            return
        used.update(rng)
        chosen.append(el)
        if is_sub:
            starts.add(el.i)
            ends.add(el.k)
            if el.color.kind == "green":
                windows.append(_green_window(path, el))
        yield from rec(idx + 1)
        if is_sub:
            if el.color.kind == "green":
                windows.pop()
            starts.discard(el.i)
            ends.discard(el.k)
        chosen.pop()
        used.difference_update(rng)

    yield from rec(0)


# -- prefix aggregation ------------------------------------------------------
#
# Scanning edges left to right, a family is a choice, at each position, of
# either "this edge stays free" or "an element starts here".  The product of
# word weights composes like torus monomials: a block covering consecutive
# edges is summarized by (A, B, e) with X-degree A, Y-degree B and doubled
# q-exponent e, and appending a block to a prefix only needs the B of the
# prefix and the A of the block.  What may follow a prefix depends only on
# the scan position, on which of the last few edges are covered (for the
# admissibility windows of greens that start soon), and on whether a subpath
# ends flush at the previous edge (for the shared-endpoint rule).  Folding
# the prefixes over those states is exactly the family sum: ``_list_states``
# lists the reachable states first, then ``_expand`` runs one value pass
# that pushes each state's value forward into its successors, in the same
# order, and drops it.
#
# A state's value maps each torus key (A, B) to one packed entry (value, lo):
# the coefficient's digits on the doubled exponents lo, lo + 2r, ..., as one
# big integer (``_expand`` proves that stride).  Every digit counts prefixes
# that reach the state, and the free edges always extend a prefix to a
# family, distinct prefixes to distinct families, so every digit lies in
# [0, count_families]: a digit width taken from that count makes the decode
# exact, and as no digit cancels, lo stays the lowest exponent and the value
# ends at its top digit.


class _DpEl(namedtuple("_DpEl", "lo hi subpath bluegreen window blk")):
    # window: admissibility window length, 0 for non-greens
    # blk: (A, B, doubled exponent)
    __slots__ = ()


class _DpTables:
    def __init__(self, path: DyckPath):
        r = path.r
        self.N = path.n_edges
        self.default_blk = [None] + [(-1, r, -1 - r) if ch == "h" else (-1, r - 1, -r)
                                     for ch in path.word]
        by_lo: dict = {}
        greens = []
        # the weights of a subpath's edges depend only on its start lo and on
        # whether it is red, so each (lo, red) keeps one running sum
        # [last edge, A, B, S, T], read at each subpath's hi as k grows
        walks: dict = {}
        for el in path_elements(path):
            if isinstance(el, Subpath):
                is_red = el.color.kind == "red"
                walk = walks.setdefault((el.lo, is_red), [el.lo - 1, 0, 0, 0, 0])
                t, A, B, S, T = walk
                for t in range(t + 1, el.hi + 1):
                    a, b = _in_subpath_weight(path, el.lo, is_red, t)
                    T += B * a
                    A += a
                    B += b
                    S += a - b
                walk[:] = t, A, B, S, T
                window = 0
                if el.color.kind == "green":
                    wlo, whi = _green_window(path, el)
                    window = whi - wlo + 1
                    greens.append((el.lo, window))
                rec = _DpEl(el.lo, el.hi, True, not is_red, window, (A, B, S - 2 * T))
            else:
                t = el.index
                blk = (-1, 0, -1) if path.word[t - 1] == "h" else (-1, -1, 0)
                rec = _DpEl(t, t, False, False, 0, blk)
            by_lo.setdefault(rec.lo, []).append(rec)
        self.by_lo = by_lo
        maxL = max((L for _, L in greens), default=0)
        # Which recent-coverage bits a state can still be asked about, and
        # whether any blue/green subpath starts at the position: anything
        # else cannot change what may follow and is normalized away.  The
        # windows of the greens starting at pos or later all reach pos - 1, so
        # the bits are one run, from a suffix minimum of the window starts.
        first = [self.N + 2] * (self.N + 3)
        for g_lo, L in greens:
            first[g_lo] = min(first[g_lo], g_lo - L)
        self.relevant = [0] * (self.N + 2)
        self.flag_rel = [False] * (self.N + 2)
        for pos in range(self.N + 1, 0, -1):
            first[pos] = min(first[pos], first[pos + 1])
            lo = max(1, pos - maxL, first[pos])
            self.relevant[pos] = (1 << max(pos - lo, 0)) - 1
            self.flag_rel[pos] = any(
                el.subpath and el.bluegreen for el in by_lo.get(pos, ())
            )


@lru_cache(maxsize=64)
def _dp_tables(path: DyckPath) -> _DpTables:
    return _DpTables(path)


def _successors(tb: _DpTables, pos: int, mask: int, flag: bool):
    """(block, next state) for the edge at pos kept free, then for each
    element starting at pos, with the next state normalized."""
    rel = tb.relevant
    yield tb.default_blk[pos], (pos + 1, (mask << 1) & rel[pos + 1], False)
    for el in tb.by_lo.get(pos, ()):
        if el.subpath and el.bluegreen and flag:
            continue
        if el.window and not (mask & ((1 << min(el.window, pos - 1)) - 1)):
            continue
        nxt, span = el.hi + 1, el.hi - el.lo + 1
        yield el.blk, (nxt, ((mask << span) | ((1 << span) - 1)) & rel[nxt],
                       el.subpath and tb.flag_rel[nxt])


def _list_states(path: DyckPath):
    """(tables, the reachable states by position, the family count) from
    the prefix counts of the states not yet reached.  Past the last edge
    the normalization leaves one state, (N + 1, 0, False)."""
    tb = _dp_tables(path)
    layers = [[] for _ in range(tb.N + 2)]
    layers[1].append((1, 0, False))
    counts, listed = {(1, 0, False): 1}, 1
    for pos in range(1, tb.N + 1):
        for key in layers[pos]:
            c = counts.pop(key)
            for _, nxt in _successors(tb, *key):
                if nxt in counts:
                    counts[nxt] += c
                    continue
                if listed == MAX_SCAN_STATES:
                    raise BudgetExceeded(f"the family scan over {tb.N} edges reaches more than "
                                         f"{MAX_SCAN_STATES} states by edge {nxt[0]}")
                listed += 1
                counts[nxt] = c
                layers[nxt[0]].append(nxt)
    return tb, layers, counts.popitem()[1]


def count_families(r: int, n: int) -> int:
    """Number of compatible families of the (r, n) path."""
    return _list_states(build_dyck(r, n))[2]


def _push(total: dict, blk, value: dict, g: int, bits: int) -> None:
    """total += value * q^(e/2) X1^A X2^B, blk = (A, B, e), on entries (value,
    lo) at stride g and base 2^bits: a key (a, b) moves to (a + A, b + B) and
    its lo by e - 2*A*b.  A gap off the stride raises ``_OffStride``, an
    assertion, as ``_expand`` proves its stride."""
    A, B, e = blk
    for (a, b), (v, lo) in value.items():
        key = (a + A, b + B)
        lo += e - 2 * A * b
        cur = total.get(key)
        if cur is None:
            total[key] = (v, lo)
            continue
        w, low = cur
        gap = lo - low
        if gap % g:
            raise _OffStride(gap)
        if gap < 0:
            total[key] = ((w << (-gap // g * bits)) + v, lo)
        else:
            total[key] = (w + (v << (gap // g * bits)), low)


@lru_cache(maxsize=16)
def _expand(r: int, n: int) -> TorusElement:
    """xvar_enum(r, n) without the budget: q X1 P X1^-1 for the prefix sum P
    (see above), in one value pass at stride g = 2r and the digit width the
    family count proves.

    The stride is proven, so ``_push`` never meets a gap off it:
    - Take two prefixes that reach one normalized state at one key (a, b).
    - The state fixes the possible completions, and the free edges always
      give one.  So both prefixes complete by the same suffix to families at
      one key of q^(1/2) X_n.
    - Their doubled exponents differ by exactly what the two prefix
      exponents differ by.
    - Each family adds one monomial +q^(k/2) X1^A X2^B, so nothing cancels,
      and every coefficient of X_n is q^(c/2) P_e(q^r): the family exponents
      at one key all lie in c + 1 + 2r Z.
    - So every ``_push`` gap is a multiple of 2r.  Within a key, lo is always
      the exponent of a real prefix, because no digit is ever negative."""
    tb, layers, count = _list_states(build_dyck(r, n))
    g, width = 2 * r, _digit_width(count)
    bits = 8 * width
    values = {layers[1][0]: {(0, 0): (1, 0)}}
    for pos in range(1, tb.N + 1):
        for key in layers[pos]:
            value = values.pop(key)
            for blk, nxt in _successors(tb, *key):
                _push(values.setdefault(nxt, {}), blk, value, g, bits)
    del value  # the last prefix value is nearly as large as the sum: free it before the decode
    # q X1 (X1^a X2^b) X1^-1 = q^(b+1) X1^a X2^b adds 2b + 2 to every doubled
    # exponent; no digit is negative, so the top one ends the value
    return TorusElement._raw({
        (a, b): QLaurent._raw(_unpack(v, lo + 2 * b + 2, -(-v.bit_length() // bits), width, g))
        for (a, b), (v, lo) in values.popitem()[1].items()
    })


def check_budget(count: int, budget: int | None) -> None:
    """Refuse ``count`` families over ``budget``; None means no budget."""
    if budget is None:
        return
    if budget < 0:
        raise InvalidParameter(f"a family budget must be >= 0, got {budget}")
    if count > budget:
        raise BudgetExceeded(f"{count} families exceed the configured budget of {budget}")


def xvar_enum(r: int, n: int, budget: int | None = DEFAULT_FAMILY_BUDGET) -> TorusElement:
    """Cluster variable by family expansion: the sum over all compatible
    families of q * X1 * (ordered product of specialized edge weights) * X1^-1.

    Equals q^(1/2) times the recursion route for the same (r, n).  The
    family count is checked against ``budget`` before the scan runs.
    """
    if not isinstance(n, int) or n < 4:
        raise InvalidParameter(f"family expansion needs n >= 4, got {n}")
    count = count_families(r, n)
    check_budget(count, budget)
    return _expand(r, n)
