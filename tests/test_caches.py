import importlib
import pkgutil

import pytest

import qkron
from qkron.cluster import xvar_recursive
from qkron.dyck import build_dyck
from qkron.errors import InvalidParameter
from qkron.qlaurent import q_binomial


def _lru_caches():
    """(name, function) for every lru_cache defined in a qkron module or
    one of its classes (``functools.cache`` included)."""
    for info in pkgutil.iter_modules(qkron.__path__):
        mod = importlib.import_module(f"qkron.{info.name}")
        scopes = [(mod.__name__, vars(mod))]
        scopes += [(f"{mod.__name__}.{name}", vars(cls)) for name, cls in vars(mod).items()
                   if isinstance(cls, type) and cls.__module__ == mod.__name__]
        for prefix, names in scopes:
            for name, obj in names.items():
                obj = getattr(obj, "__func__", obj)  # static and class methods
                if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                    yield f"{prefix}.{name}", obj


def test_every_lru_cache_is_bounded():
    caches = dict(_lru_caches())
    assert "qkron.cluster.xvar_recursive" in caches
    assert "qkron.qlaurent.q_binomial" in caches
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


@pytest.mark.parametrize("warm", [False, True])
def test_float_arguments_are_refused_cold_and_warm(warm):
    # a warm (3, 5) entry must not answer for (3.0, 5): lru_cache treats 3.0 as 3
    for fn in (xvar_recursive, build_dyck, q_binomial):
        fn.cache_clear()
        if warm:
            fn(3, 5)
    for call in (lambda: xvar_recursive(3.0, 5), lambda: build_dyck(3, 5.0),
                 lambda: q_binomial(3, 5.0)):
        with pytest.raises(InvalidParameter):
            call()
