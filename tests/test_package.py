"""The package resolves its public names on first access, every Python file parses as 3.10, and the
never-run list names statements the package has."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import simthresh
import uncovered

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


ROOT = Path(__file__).parent.parent
PYTHON_FILES = sorted(p for d in ("src", "tests", "perfbench", "demos") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", PYTHON_FILES, ids=[str(p.relative_to(ROOT)) for p in PYTHON_FILES])
def test_parses_as_python_3_10(path):
    """``requires-python`` says 3.10. This checks syntax only, such as ``except*`` or a generic class
    (3.11 and 3.12); a 3.11-only API, say ``datetime.UTC`` or ``tomllib``, still parses."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_every_never_run_entry_names_a_statement():
    """Each entry of the never-run list has a reason and names a statement of the package, at most as many
    times as the package has it. Whether the listed statements run is ``tests/uncovered.py --check``'s job."""
    listed = Counter(uncovered.read_list(str(ROOT / "tests" / "data" / "uncovered.txt")))
    assert listed and not listed - Counter(name for *_, name in uncovered.statements())
