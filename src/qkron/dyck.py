"""Maximal Dyck paths, their marked vertices, and colored subpaths.

For parameters (r, n) the path lives in the (c_{n-1}-c_{n-2}) x c_{n-2}
rectangle and is the highest lattice path from corner to corner that stays
weakly below the diagonal.  Reading h for horizontal and v for vertical
steps gives the Christoffel word of slope c_{n-2}/(c_{n-1}-c_{n-2}).

Vertices v_1, ..., v_{c_{n-2}} mark the upper endpoints of the vertical
edges (v_0 is the origin).  A subpath between two marked vertices is
classified blue, green or red by comparing chord slopes against the
diagonal; red subpaths are extended one edge backwards to include the
vertical edge entering their start vertex.  All slope logic is exact
integer cross-multiplication.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import AmbiguousGreenLabel, IndexOutOfRange, InvalidParameter
from .qlaurent import c_sequence, dim_vector


class Color(namedtuple("Color", "kind m w", defaults=(None, None))):
    # kind is "blue" | "green" | "red"; m and w are set for green only
    __slots__ = ()

    @classmethod
    def blue(cls):
        return cls("blue")

    @classmethod
    def red(cls):
        return cls("red")

    @classmethod
    def green(cls, m: int, w: int):
        return cls("green", m, w)

    def __str__(self):
        if self.kind == "green":
            return f"green({self.m},{self.w})"
        return self.kind


class DyckPath(namedtuple("DyckPath", "r n width height word v_edge coords")):
    # width = c_{n-1} - c_{n-2}, height = c_{n-2}
    # word: 'h'/'v' per edge, edges are 1-indexed
    # v_edge[j] = edge index of the j-th vertical edge; v_edge[0] = 0
    # coords[t] = lattice point after t edges
    __slots__ = ()

    @property
    def n_edges(self) -> int:
        return len(self.word)

    def v_coord(self, j: int):
        """Coordinates of the marked vertex v_j (v_0 is the origin)."""
        if not 0 <= j <= self.height:
            raise IndexOutOfRange(f"vertex index {j} outside 0..{self.height}")
        return self.coords[self.v_edge[j]]


@lru_cache(maxsize=256, typed=True)
def build_dyck(r: int, n: int) -> DyckPath:
    """Construct the maximal Dyck path for (r, n) and validate it.

    Edge t is vertical exactly when floor(t*b/N) increases at t, where
    N = c_{n-1} and b = c_{n-2}: after t edges the path sits at height
    floor(t*b/N), the largest height weakly below the diagonal.  The result
    is cross-checked against the greedy construction and the no-upward-swap
    maximality property.
    """
    if not isinstance(n, int) or n < 4:
        raise InvalidParameter(f"n must be an integer >= 4, got {n}")
    big, b = dim_vector(r, n)
    a = big - b
    word = []
    for t in range(1, big + 1):
        word.append("v" if (t * b) // big > ((t - 1) * b) // big else "h")
    word = "".join(word)

    coords = [(0, 0)]
    v_edge = [0]
    x = y = 0
    for t, ch in enumerate(word, start=1):
        if ch == "v":
            y += 1
            v_edge.append(t)
        else:
            x += 1
        coords.append((x, y))

    # Validation: edge counts, weakly below the diagonal, maximality.
    if word.count("v") != b or word.count("h") != a:
        raise AssertionError("edge counts disagree with the dimension sequence")
    for (px, py) in coords:
        if a * py > b * px:
            raise AssertionError("path crosses above the diagonal")
    for t in range(1, big):
        if word[t - 1] == "h" and word[t] == "v":
            px, py = coords[t - 1]
            # Swapping to v,h would lift the corner to (px, py+1); maximality
            # demands that the lifted corner is strictly above the diagonal.
            if a * (py + 1) <= b * px:
                raise AssertionError("path is not maximal: an upward swap fits")
    return DyckPath(r, n, a, b, word, tuple(v_edge), tuple(coords))


def slope_exceeds(path: DyckPath, i: int, t: int) -> bool:
    """True when the chord v_i -> v_t is steeper than the diagonal.

    A vertical chord (same x) counts as slope +infinity and always exceeds.
    """
    if not (0 <= i < t <= path.height):
        raise IndexOutOfRange(f"need 0 <= i < t <= {path.height}, got ({i}, {t})")
    xi, yi = path.v_coord(i)
    xt, yt = path.v_coord(t)
    dx = xt - xi
    if dx == 0:
        return True
    return (yt - yi) * path.width > path.height * dx


@lru_cache(maxsize=256, typed=True)
def green_labels(r: int, n: int):
    """All admissible green labels (m, w) with their vertex offset
    c_m - w*c_{m-1} and admissibility window length c_{m-1} - w*c_{m-2}:
    a tuple, built once per (r, n) for every subpath ``classify`` colors."""
    out = []
    for m in range(3, n):
        for w in range(1, r - 1):
            delta = c_sequence(r, m) - w * c_sequence(r, m - 1)
            window = c_sequence(r, m - 1) - w * c_sequence(r, m - 2)
            out.append((m, w, delta, window))
    return tuple(out)


def classify(path: DyckPath, i: int, k: int):
    """Color the subpath between marked vertices v_i and v_k.

    Returns (color, (lo, hi)) where lo..hi is the inclusive edge range: the
    edges strictly after v_i through v_k for blue and green, extended one
    edge earlier (the vertical edge entering v_i) for red.
    """
    if not (0 <= i < k <= path.height):
        raise IndexOutOfRange(f"need 0 <= i < k <= {path.height}, got ({i}, {k})")
    t0 = None
    for t in range(i + 1, k + 1):
        if slope_exceeds(path, i, t):
            t0 = t
            break
    hi = path.v_edge[k]
    if t0 is None:
        return Color.blue(), (path.v_edge[i] + 1, hi)
    delta = t0 - i
    matches = [(m, w, win) for (m, w, d, win) in green_labels(path.r, path.n) if d == delta]
    if matches:
        windows = {win for (_, _, win) in matches}
        if len(windows) > 1:
            raise AmbiguousGreenLabel(
                f"offset {delta} admits green labels with distinct windows: {matches}"
            )
        m, w, _ = matches[0]
        return Color.green(m, w), (path.v_edge[i] + 1, hi)
    # Red: start one edge earlier.  i >= 1 always holds here because every
    # chord from the origin stays weakly below the diagonal.
    if i == 0:
        raise AssertionError("red subpath starting at the origin")
    return Color.red(), (path.v_edge[i], hi)


def render_ascii(path: DyckPath) -> str:
    """Staircase drawing plus a legend of the marked vertices."""
    a, b = path.width, path.height
    canvas = [[" "] * (a + 1) for _ in range(b + 1)]
    x = y = 0
    for ch in path.word:
        if ch == "h":
            canvas[b - y][x + 1] = "_"
            x += 1
        else:
            y += 1
            canvas[b - y][x] = "|"
    lines = ["".join(row).rstrip() for row in canvas]
    lines = [ln for ln in lines if ln]
    legend = ", ".join(
        f"v{j}={path.v_coord(j)}" for j in range(0, b + 1)
    )
    return "\n".join(lines) + "\n" + legend
