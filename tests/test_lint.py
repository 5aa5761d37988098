"""Source checks that need no linter: every import in the package is used.

`__init__.py` is left out: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "indexkernels"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement and never loaded, in the order
    of their imports."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound.append(alias.asname or alias.name.partition(".")[0])
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    return [name for name in bound if name not in loaded]


def test_detects_unused_import():
    src = ("import math\nimport os.path\nfrom a import b as c, d\n"
           "def f():\n    import json\n    return os.path.sep + d\n")
    assert unused_imports(src) == ["math", "c", "json"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
