"""The package resolves its public names on first access."""

import importlib
import pkgutil

import pytest

import simthresh

SUBMODULE_NAMES = [(f"simthresh.{info.name}", name) for info in pkgutil.iter_modules(simthresh.__path__)
                   for name in importlib.import_module(f"simthresh.{info.name}").__all__]


@pytest.mark.parametrize("name", simthresh.__all__)
def test_public_name_resolves(name):
    value = getattr(simthresh, name)
    if name != "__version__":
        assert value is getattr(importlib.import_module(f"simthresh.{simthresh._MODULES[name]}"), name)
    assert name in dir(simthresh)


@pytest.mark.parametrize("module, name", SUBMODULE_NAMES, ids=[f"{m}.{n}" for m, n in SUBMODULE_NAMES])
def test_submodule_public_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_star_import():
    namespace = {}
    exec("from simthresh import *", namespace)
    assert set(simthresh.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        simthresh.no_such_name
    assert not hasattr(simthresh, "no_such_name")


def test_submodules_import_under_their_own_names():
    from simthresh import csvio, retrieval

    assert retrieval.__name__ == "simthresh.retrieval" and csvio.__name__ == "simthresh.csvio"
