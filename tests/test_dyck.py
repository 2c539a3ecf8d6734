import pytest

from qkron import dyck
from qkron.dyck import Color, build_dyck, classify, render_ascii, slope_exceeds
from qkron.errors import AmbiguousGreenLabel, IndexOutOfRange, InvalidParameter
from qkron.qlaurent import c_sequence


def test_build_examples():
    assert build_dyck(3, 5).word == "hhvhhvhv"
    assert build_dyck(2, 4).word == "hv"
    # block structure (A^(r-1) B)^(r-1) A^(r-2) B with A = hhv, B = hv at r=3
    a_blk, b_blk = "hhv", "hv"
    assert build_dyck(3, 6).word == (a_blk * 2 + b_blk) * 2 + a_blk + b_blk


def test_edge_counts():
    for r in range(2, 7):
        for n in range(4, 9):
            path = build_dyck(r, n)
            assert path.word.count("v") == c_sequence(r, n - 2)
            assert path.word.count("h") == c_sequence(r, n - 1) - c_sequence(r, n - 2)
            assert path.coords[-1] == (path.width, path.height)


def test_greedy_construction_agrees():
    # Independent construction: step up whenever the vertical move stays
    # weakly below the diagonal.
    for r in range(2, 6):
        for n in range(4, 8):
            path = build_dyck(r, n)
            a, b = path.width, path.height
            x = y = 0
            word = []
            for _ in range(a + b):
                if a * (y + 1) <= b * x:
                    word.append("v")
                    y += 1
                else:
                    word.append("h")
                    x += 1
            assert "".join(word) == path.word


def test_build_errors():
    with pytest.raises(InvalidParameter):
        build_dyck(1, 5)
    with pytest.raises(InvalidParameter):
        build_dyck(2, 3)


def test_vertex_coords():
    path = build_dyck(3, 5)
    assert [path.v_coord(j) for j in range(4)] == [(0, 0), (2, 1), (4, 2), (5, 3)]


def test_slope_examples():
    assert slope_exceeds(build_dyck(2, 4), 0, 1) is False
    assert slope_exceeds(build_dyck(3, 5), 1, 2) is False
    # for r=2 the n=6 path is 1x3: marked vertices stack vertically
    assert slope_exceeds(build_dyck(2, 6), 1, 2) is True
    with pytest.raises(IndexOutOfRange):
        slope_exceeds(build_dyck(2, 4), 1, 1)


def test_classify_examples():
    p36 = build_dyck(3, 6)
    assert classify(p36, 1, 8)[0] == Color.green(3, 1)
    assert classify(p36, 2, 8)[0] == Color.red()
    assert classify(p36, 3, 8)[0] == Color.green(4, 1)
    assert classify(build_dyck(2, 4), 0, 1)[0] == Color.blue()


def test_classify_ranges():
    path = build_dyck(3, 5)
    # blue/green ranges run from just after the start vertex; red ranges
    # include the vertical edge entering it
    color, rng = classify(path, 0, 3)
    assert color == Color.blue() and rng == (1, 8)
    color, rng = classify(path, 2, 3)
    assert color == Color.red() and rng == (6, 8)
    color, rng = classify(path, 1, 3)
    assert color == Color.green(3, 1) and rng == (4, 8)


def test_classify_total_and_origin_blue():
    for r in range(2, 6):
        for n in range(4, 7):
            path = build_dyck(r, n)
            for i in range(0, path.height):
                for k in range(i + 1, path.height + 1):
                    color, (lo, hi) = classify(path, i, k)
                    assert color.kind in ("blue", "green", "red")
                    assert 1 <= lo <= hi == path.v_edge[k]
                    if i == 0:
                        assert color.kind == "blue"


def test_r2_never_green():
    for n in range(4, 9):
        path = build_dyck(2, n)
        for i in range(0, path.height):
            for k in range(i + 1, path.height + 1):
                assert classify(path, i, k)[0].kind != "green"


def test_render_smoke():
    path = build_dyck(3, 5)
    art = render_ascii(path)
    assert art.count("|") == 3
    assert art.count("_") == 5
    assert "v1=(2, 1)" in art


@pytest.mark.parametrize("r, n, i, k", [(3, 5, 1, 3), (3, 5, 2, 3), (4, 5, 2, 4)])
def test_classify_refuses_an_offset_with_two_windows(monkeypatch, r, n, i, k):
    # two labels at the offset t0 - i of the first chord past the slope
    path = build_dyck(r, n)
    delta = next(t for t in range(i + 1, k + 1) if slope_exceeds(path, i, t)) - i
    monkeypatch.setattr(dyck, "green_labels", lambda r, n: [(3, 1, delta, 1), (4, 1, delta, 2)])
    with pytest.raises(AmbiguousGreenLabel, match="distinct windows"):
        classify(path, i, k)
