"""Every name the demos and the README's python blocks import from crbm exists.

The sources are parsed, not run, so this costs no training and no
subprocess.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(ROOT.glob("demos/*.py")) + [ROOT / "README.md"]


def python_sources(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    return [text]


def crbm_imports(source):
    """(module, name) for each ``from crbm... import name``; name is None for
    ``import crbm...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "crbm":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "crbm")


def resolves(module, name) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_crbm_imports_resolve(path):
    found = [imp for source in python_sources(path) for imp in crbm_imports(source)]
    assert found, f"{path.name} imports nothing from crbm"
    missing = [f"{module}.{name}" if name else module
               for module, name in found if not resolves(module, name)]
    assert missing == []
