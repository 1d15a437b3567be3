"""Every module-level import in the package is used by its module.

A stdlib-only stand-in for a linter's unused-import rule: each
``src/entrokit/*.py`` except ``__init__.py`` (whose imports are the package's
re-exports) is parsed with ``ast``, and every name a top-level ``import`` binds
must be read somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "entrokit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = (
        "import os\nimport numpy as np\nfrom typing import Optional, Sequence\n"
        "np.zeros(Sequence)\n"
    )
    assert unused_imports(source) == ["os", "Optional"]


def test_future_imports_and_attribute_roots_count():
    source = "from __future__ import annotations\nimport os.path\nos.path.join('a')\n"
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, "\n".join(f"{path.stem}: {name}" for name in unused)
