"""Spans recorded around qkron's public entry points, from outside the package.

``install`` replaces each entry point on every name a caller looks up: the
module globals that bound the function at import time (``from .x import f``
makes a second binding), and the class attributes of the two product
operators.  Every call then records one span (name, start, end, parent span,
run id) in flat in-memory arrays, which ``Recorder.dump`` writes out once the
process has finished its work.  ``aggregate`` turns span files into the
per-layer metrics, where a span's self time is its duration minus the
durations of its direct children (spans of one process nest strictly).

Counts that need to look at operands or results (product pairs, operand
bytes, quotient terms) are taken inside a ``trace.stats`` span, so that
their cost is charged to tracing and not to the layer being measured.
"""

from __future__ import annotations

import array
import importlib
import pickle
import time

STATS = "trace.stats"

# (module, attribute, span name); the wrapper replaces every binding of the
# function in a qkron module.  q_binomial is wrapped only where other modules
# imported it: its own recursion inside qkron.qlaurent stays one span.
# torus._mul_large is the packed kernel behind large TorusElement products;
# it is private, so a tree without it records no such span.
FUNCTIONS = (
    ("qkron.qlaurent", "q_binomial", "qlaurent.q_binomial"),
    ("qkron.torus", "_mul_large", "torus.mul_large"),
    ("qkron.torus", "left_divide", "torus.left_divide"),
    ("qkron.cluster", "xvar_recursive", "cluster.xvar_recursive"),
    ("qkron.cluster", "gr_table", "cluster.gr_table"),
    ("qkron.dyck", "build_dyck", "dyck.build_dyck"),
    ("qkron.dyck", "classify", "dyck.classify"),
    ("qkron.families", "xvar_enum", "families.xvar_enum"),
    ("qkron.families", "count_families", "families.count_families"),
    ("qkron.fforacle", "build_module", "fforacle.build_module"),
    ("qkron.fforacle", "end_dim", "fforacle.end_dim"),
    ("qkron.fforacle", "count_gr", "fforacle.count_gr"),
    ("qkron.fforacle", "count_strata", "fforacle.count_strata"),
    ("qkron.strata", "strata_from_gr", "strata.strata_from_gr"),
    ("qkron.strata", "closed_gr_m6", "strata.closed_gr_m6"),
    ("qkron.strata", "closed_zbar_m6", "strata.closed_zbar_m6"),
    ("qkron.verify", "run_suite", "verify.run_suite"),
    ("qkron.cli", "main", "cli.main"),
)
CALLERS_ONLY = {"qlaurent.q_binomial"}
OPTIONAL = {"torus.mul_large"}

# (module, class, attribute, span name): every attribute of the class bound to the
# function (QLaurent.__rmul__ is QLaurent.__mul__) gets the wrapper.
METHODS = (
    ("qkron.qlaurent", "QLaurent", "__mul__", "qlaurent.mul"),
    ("qkron.torus", "TorusElement", "__mul__", "torus.mul"),
    ("qkron.torus", "TorusElement", "__pow__", "torus.pow"),
)

MODULES = (
    "qkron", "qkron.qlaurent", "qkron.torus", "qkron.dyck", "qkron.families",
    "qkron.cluster", "qkron.strata", "qkron.fforacle", "qkron.verify", "qkron.cli",
)


class Recorder:
    """Spans of one process, kept in flat arrays until ``dump``."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, stats_nid: int, fn, *args):
        """Run ``fn(*args)`` -> {counter: amount} inside a stats span."""
        idx = self.begin(stats_nid)
        try:
            for key, amount in fn(*args).items():
                self.counters[key] = self.counters.get(key, 0) + amount
        finally:
            self.finish(idx)

    def dump(self, path: str):
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "run": self.run_id,
                    "names": self.names,
                    "name": self.name.tobytes(),
                    "parent": self.parent.tobytes(),
                    "start": self.start.tobytes(),
                    "end": self.end.tobytes(),
                    "counters": self.counters,
                },
                fh,
            )


# -- counters taken at the boundaries -----------------------------------------


def _coeff_bytes(ql) -> int:
    return sum((c.bit_length() + 7) >> 3 for c in ql._t.values())


def _qlaurent_mul(a, b):
    if isinstance(b, type(a)):
        return {"qlaurent.mul.pairs": len(a._t) * len(b._t),
                "qlaurent.mul.in_bytes": _coeff_bytes(a) + _coeff_bytes(b)}
    if isinstance(b, int):
        return {"qlaurent.mul.pairs": len(a._t),
                "qlaurent.mul.in_bytes": _coeff_bytes(a) + ((b.bit_length() + 7) >> 3)}
    return {}


def _torus_mul(a, b):
    # b is a torus element or a QLaurent scalar (one term)
    ta, ba = len(a._t), sum(_coeff_bytes(c) for c in a._t.values())
    if isinstance(b, type(a)):
        tb, bb = len(b._t), sum(_coeff_bytes(c) for c in b._t.values())
    elif hasattr(b, "_t"):
        tb, bb = 1, _coeff_bytes(b)
    else:
        tb, bb = 0, 0
    return {"torus.mul.pairs": ta * tb, "torus.mul.in_bytes": ba + bb}


AFTER = {
    "torus.left_divide": lambda out: {"torus.left_divide.quotient_terms": out.num_terms()},
    "families.xvar_enum": lambda out: {"families.xvar_enum.out_terms": out.num_terms()},
    "fforacle.end_dim": lambda out: {"fforacle.certified": int(out == 1)},
}
BEFORE = {"qlaurent.mul": _qlaurent_mul, "torus.mul": _torus_mul}


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    sid = rec.name_id(STATS)
    before = BEFORE.get(name)
    after = AFTER.get(name)
    begin, finish, count = rec.begin, rec.finish, rec.count

    def wrapper(*args, **kwargs):
        if before is not None:
            count(sid, before, *args)
        idx = begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            finish(idx)
        if after is not None:
            count(sid, after, out)
        return out

    return wrapper


def install(rec: Recorder):
    """Wrap every entry point of FUNCTIONS and METHODS."""
    mods = [importlib.import_module(m) for m in MODULES]
    for home, attr, name in FUNCTIONS:
        orig = getattr(importlib.import_module(home), attr, None)
        if orig is None and name in OPTIONAL:
            continue
        wrapped = _wrap(rec, name, orig)
        for mod in mods:
            if name in CALLERS_ONLY and mod.__name__ == home:
                continue
            if mod.__dict__.get(attr) is orig:
                setattr(mod, attr, wrapped)
    for home, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(home), cls_name)
        orig = cls.__dict__[attr]
        wrapped = _wrap(rec, name, orig)
        for key, val in list(cls.__dict__.items()):
            if val is orig:
                setattr(cls, key, wrapped)


# -- aggregation ------------------------------------------------------------------


def _load(path: str):
    with open(path, "rb") as fh:
        raw = pickle.load(fh)
    arrays = {}
    for key, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
        arr = array.array(code)
        arr.frombytes(raw[key])
        arrays[key] = arr
    return raw["names"], arrays, raw["counters"]


def aggregate(paths) -> dict:
    """{span name: [calls, total_s, self_s]} and summed counters over files."""
    spans: dict[str, list] = {}
    counters: dict[str, int] = {}
    for path in paths:
        names, arr, ctr = _load(path)
        for key, val in ctr.items():
            counters[key] = counters.get(key, 0) + val
        name, parent, start, end = arr["name"], arr["parent"], arr["start"], arr["end"]
        n = len(name)
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        per = [[0, 0.0, 0.0] for _ in names]
        for i in range(n):
            acc = per[name[i]]
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - child[i]
        for nm, acc in zip(names, per):
            tot = spans.setdefault(nm, [0, 0.0, 0.0])
            for k in range(3):
                tot[k] += acc[k]
    return {"spans": spans, "counters": counters}
