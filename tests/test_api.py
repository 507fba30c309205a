"""The public surface: every name an __all__ lists resolves, and README's
entry-point import block runs, so a removed name cannot stay documented."""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import kwlab

# __main__ runs the CLI on import
MODULES = ["kwlab"] + [
    f"kwlab.{info.name}" for info in pkgutil.iter_modules(kwlab.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_entry_point_block_imports_public_names():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library entry points\n+```python\n(.*?)```", text, re.S).group(1)
    exec(block, {})
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported and imported <= set(kwlab.__all__)
