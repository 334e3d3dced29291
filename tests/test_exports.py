import importlib
import pkgutil

import pytest

import quongram

MODULES = sorted(m.name for m in pkgutil.iter_modules(quongram.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"quongram.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_lru_cache_is_bounded(name):
    module = importlib.import_module(f"quongram.{name}")
    found = [v for v in vars(module).values()
             if getattr(v, "__module__", None) == module.__name__]
    found += [v for cls in found if isinstance(cls, type)
              for v in vars(cls).values()]
    unbounded = [f.__qualname__ for f in found
                 if hasattr(f, "cache_parameters")
                 and f.cache_parameters()["maxsize"] is None]
    assert unbounded == []
