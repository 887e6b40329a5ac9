"""Every module of the package uses each name it imports.  No linter is a
dependency, so this walks the syntax trees itself; a line marked `# noqa`
keeps an import for a reader outside the package and is skipped."""
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "layerflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression of `source` reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa" not in lines[node.lineno - 1]
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found_and_a_marked_one_is_not():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from .state import H_DRY, velocities\n"
              "from .timeloop import run  # noqa: F401\n"
              "def f(x) -> np.ndarray:\n"
              "    return os.sep, velocities  # H_DRY\n")
    assert unused_imports(source) == ["line 3: H_DRY"]


def test_scenario_is_the_only_dataclass_of_the_package():
    # the import makes each class, and a dataclass costs several NamedTuples
    found = []
    for path in MODULES:
        mod = importlib.import_module(f"layerflow.{path.stem}")
        found += [f"{path.stem}.{name}" for name, obj in vars(mod).items()
                  if inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and dataclasses.is_dataclass(obj)]
    assert found == ["scenario.Scenario"]
