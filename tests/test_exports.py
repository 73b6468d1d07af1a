import importlib
import pkgutil

import pytest

import measureboost

MODULES = ["measureboost"] + [m.name for m in pkgutil.walk_packages(measureboost.__path__, "measureboost.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is gone fails only on `import *`
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
