"""`clear_caches`: empty every `functools.lru_cache` that a heckeforge
module defines, so a test that patches a route recomputes each cached
result through it, whatever caches the library adds."""

import importlib
import pkgutil

import heckeforge


def clear_caches():
    for info in pkgutil.iter_modules(heckeforge.__path__):
        module = importlib.import_module(f"heckeforge.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == module.__name__:
                value.cache_clear()
