import importlib
import pkgutil

import qkron


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
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
