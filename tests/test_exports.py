"""Every name the package exports resolves.

A name deleted from a module but left in its ``__all__``, or in the
package's own imports, breaks ``from sddlab import *`` and every caller
that imports it; these tests catch that at once.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sddlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(sddlab.__path__, "sddlab."))


def star_import(name: str) -> dict:
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    return namespace


def test_every_module_is_covered():
    assert {"sddlab.cli", "sddlab.config", "sddlab.lyapunov", "sddlab.solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__ and [n for n in module.__all__ if not hasattr(module, n)] == []
    assert set(module.__all__) <= set(star_import(name))


def test_the_package_star_import_has_every_name_it_imports():
    tree = ast.parse(Path(sddlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    imported = [alias.asname or alias.name for node in imports for alias in node.names]
    assert "run" in imported and "RunStream" in imported
    assert [n for n in imported if n not in star_import("sddlab")] == []
