"""The benchmark scripts reach into ``simthresh`` by name.

``perfbench/traced_cli.py`` replaces module functions and methods by
wrappers before the CLI runs, and every script under ``perfbench/`` imports
names from the package (``setup_probe.py`` times the loaders, ``checks.py``
reads the index, ``make_lexicon.py`` takes the stopword list). A rename in
``src/`` would make the benchmark fail, or silently stop timing a layer, so
every name they reach for is checked here by reading the scripts' syntax
trees (the scripts themselves are never imported or run). The index file
contract the benchmark's checks rely on is pinned here too.
"""

import ast
import importlib
from pathlib import Path

import pytest

from simthresh.retrieval import build_index, load_index, save_index
from simthresh.textproc import Pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED_CLI = PERFBENCH / "traced_cli.py"


def _modules(tree: ast.Module) -> dict[str, str]:
    """Local name -> simthresh module path, from the script's imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("simthresh"):
                    names[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "simthresh":
            for alias in node.names:
                names[alias.asname or alias.name] = f"simthresh.{alias.name}"
    return names


def _dotted(node: ast.expr) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _hooks(tree: ast.Module, modules: dict[str, str]) -> list[tuple[str, ...]]:
    """Dotted names handed to ``t.patch``/``t.wrap`` or assigned over."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "patch":
                owner = _dotted(node.args[0])
                found.append([*owner, node.args[1].value])
            elif node.func.attr == "wrap":
                found.append(_dotted(node.args[1]))
        elif isinstance(node, ast.Assign):
            found.extend(_dotted(target) for target in node.targets if isinstance(target, ast.Attribute))
    return list(dict.fromkeys(tuple(path) for path in found if path and path[0] in modules))


TREE = ast.parse(TRACED_CLI.read_text(encoding="utf-8"))
MODULES = _modules(TREE)
HOOKS = _hooks(TREE, MODULES)


def test_hooks_found():
    names = {".".join(path) for path in HOOKS}
    assert {"neighbors.pair_statistics", "uncertainty.uncertainty_curve", "cli.main"} <= names


@pytest.mark.parametrize("path", HOOKS, ids=[".".join(p) for p in HOOKS])
def test_hook_resolves(path):
    obj = importlib.import_module(MODULES[path[0]])
    for attr in path[1:]:
        assert hasattr(obj, attr), f"{TRACED_CLI.name} patches {'.'.join(path)}, which no longer exists"
        obj = getattr(obj, attr)


def _imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from simthresh... import name`` in a script,
    and (module, None) for each ``import simthresh...``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "simthresh")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "simthresh":
            found.extend((node.module, alias.name) for alias in node.names)
    return found


IMPORTS = [(script.name, *imported) for script in sorted(PERFBENCH.glob("*.py")) for imported in _imports(script)]


def test_imports_found():
    assert {"traced_cli.py", "setup_probe.py", "checks.py", "make_lexicon.py"} <= {script for script, *_ in IMPORTS}


@pytest.mark.parametrize("script, module, name", IMPORTS,
                         ids=[f"{script}:{module}{'' if name is None else '.' + name}" for script, module, name in IMPORTS])
def test_import_resolves(script, module, name):
    obj = importlib.import_module(module)
    if name is not None and not hasattr(obj, name):
        importlib.import_module(f"{module}.{name}")  # a submodule the package does not import itself


def test_index_contract(tmp_path):
    # The benchmark saves the index to "index.json.gz", stats that exact path
    # and compares the reloaded counts with integers.
    path = tmp_path / "index.json.gz"
    save_index(build_index([("d1", "cat cat dog"), ("d2", "")], Pipeline()), str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["index.json.gz"]
    index = load_index(str(path))
    assert (index.doc_count, index.total_tokens) == (2, 3)
    assert type(index.doc_count) is int and type(index.total_tokens) is int
