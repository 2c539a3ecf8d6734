"""Semantics of the ten result records: repr text, hashing, immutability,
equality, and cache hits on equal keys."""

import pytest

from qkron import fforacle
from qkron.cluster import GrTable
from qkron.dyck import Color, DyckPath, build_dyck
from qkron.families import Family, SingleEdge, Subpath, _dp_tables, _DpEl
from qkron.fforacle import FFModule
from qkron.qlaurent import QLaurent
from qkron.strata import StrataTable
from qkron.verify import Check

PHIS = (((1, 0),), ((0, 1),))

# (record, same fields in a fresh instance, one field changed, repr text)
FROZEN = [
    (Color.green(1, 2), Color("green", 1, 2), Color.green(1, 3),
     "Color(kind='green', m=1, w=2)"),
    (Color.blue(), Color("blue"), Color.red(), "Color(kind='blue', m=None, w=None)"),
    (build_dyck(2, 4), DyckPath(2, 4, 1, 1, "hv", (0, 2), ((0, 0), (1, 0), (1, 1))),
     DyckPath(2, 4, 1, 1, "vh", (0, 1), ((0, 0), (0, 1), (1, 1))),
     "DyckPath(r=2, n=4, width=1, height=1, word='hv', v_edge=(0, 2), "
     "coords=((0, 0), (1, 0), (1, 1)))"),
    (SingleEdge(3), SingleEdge(3), SingleEdge(4), "SingleEdge(index=3)"),
    (Subpath(0, 1, Color.red(), 1, 2), Subpath(0, 1, Color("red"), 1, 2),
     Subpath(0, 1, Color.blue(), 1, 2),
     "Subpath(i=0, k=1, color=Color(kind='red', m=None, w=None), lo=1, hi=2)"),
    (Family(frozenset({SingleEdge(1)}), frozenset({1})),
     Family(frozenset({SingleEdge(1)}), frozenset({1})),
     Family(frozenset({SingleEdge(2)}), frozenset({2})),
     "Family(elements=frozenset({SingleEdge(index=1)}), support=frozenset({1}))"),
    (_DpEl(1, 2, True, False, 0, (1, 2, 3)), _DpEl(1, 2, True, False, 0, (1, 2, 3)),
     _DpEl(1, 2, True, True, 0, (1, 2, 3)),
     "_DpEl(lo=1, hi=2, subpath=True, bluegreen=False, window=0, blk=(1, 2, 3))"),
    (FFModule(2, 2, 4, 2, 1, PHIS), FFModule.from_obj({"p": 2, "r": 2, "phis": PHIS}, 4),
     FFModule(3, 2, 4, 2, 1, PHIS),
     "FFModule(p=2, r=2, n=4, d1=2, d2=1, phis=(((1, 0),), ((0, 1),)))"),
]

MUTABLE = [
    (GrTable(2, 4, 3, 2, {(0, 0): QLaurent({0: 1, 2: 3})}),
     GrTable(2, 4, 3, 2, {(0, 0): QLaurent({0: 1, 2: 3})}),
     GrTable(2, 4, 3, 2, {(0, 0): QLaurent({0: 1})}),
     "GrTable(r=2, n=4, d1=3, d2=2, entries={(0, 0): QLaurent(1 + 3*q)})"),
    (StrataTable(1, 2, 3, {0: QLaurent({1: -1})}), StrataTable(1, 2, 3, {0: QLaurent({1: -1})}),
     StrataTable(1, 2, 3, {0: QLaurent({1: -1})}, {0: QLaurent({1: -1})}),
     "StrataTable(e2=1, d1=2, d2=3, zprime={0: QLaurent(-q^(1/2))}, zbarprime={})"),
    (Check("cn", "y", False, "d"), Check("cn", "y", False, "d"), Check("cn", "y", True, "d"),
     "Check(suite='cn', label='y', ok=False, detail='d')"),
]


def _ids(cases):
    return [f"{type(rec).__name__}-{i}" for i, (rec, *_) in enumerate(cases)]


@pytest.mark.parametrize("rec, same, other, text", FROZEN + MUTABLE, ids=_ids(FROZEN + MUTABLE))
def test_repr_and_equality(rec, same, other, text):
    assert repr(rec) == text
    assert rec == same and not rec != same
    assert rec != other and not rec == other


@pytest.mark.parametrize("rec, same, other, text", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_hash_as_their_field_tuple_and_refuse_assignment(rec, same, other, text):
    assert hash(rec) == hash(tuple(rec)) == hash(same)
    assert rec == tuple(rec)  # a namedtuple equals the tuple of its fields
    name = type(rec)._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec, same, other, text", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_are_unhashable_and_take_no_new_attributes(rec, same, other, text):
    with pytest.raises(TypeError):
        hash(rec)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec != tuple(getattr(rec, name) for name in type(rec).__slots__)


def test_mutable_defaults_are_not_shared():
    a, b = GrTable(2, 4, 3, 2), GrTable(2, 4, 3, 2)
    a.entries[(0, 0)] = QLaurent.one()
    assert b.entries == {} and a != b
    s, t = StrataTable(1, 2, 3), StrataTable(1, 2, 3)
    s.zprime[0] = QLaurent.one()
    assert t.zprime == {} and t.zbarprime == {} and s.zbarprime is not t.zbarprime
    assert Check("cn", "x", True) == Check("cn", "x", True, "")


def test_equal_keys_hit_the_caches():
    build_dyck.cache_clear()
    path = build_dyck(3, 5)
    assert build_dyck(3, 5) is path and build_dyck.cache_info().hits == 1
    twin = DyckPath(*path)
    assert twin is not path and twin == path
    tables = _dp_tables(path)
    assert _dp_tables(twin) is tables

    a = fforacle.build_module(2, 3, 5, seed=0)
    b = fforacle.build_module(2, 3, 5, seed=0)
    assert a is not b and a == b and hash(a) == hash(b)
    hists = (fforacle._preimage_dim_hist, fforacle._image_dim_hist)
    for fn in hists:
        fn.cache_clear()
    fforacle.count_strata(a, "zp", 1, 1)
    fforacle.count_strata(a, "z", 1, 1)
    misses = [fn.cache_info().misses for fn in hists]
    fforacle.count_strata(b, "zp", 1, 1)
    fforacle.count_strata(b, "z", 1, 1)
    assert [fn.cache_info().misses for fn in hists] == misses
    assert all(fn.cache_info().hits > 0 for fn in hists)
