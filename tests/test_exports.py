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
