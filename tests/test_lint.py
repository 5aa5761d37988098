"""Source checks that need no linter: every import in the package and
in the tests is used, every local a function binds is read, every
top-level name is used somewhere in the package or re-exported, every
`Config` field is read by the package outside `config.py`, and no
library module imports `config`: only the CLI reads the configuration,
so the library's values and reports are functions of their arguments
and mpmath's working precision alone.  Every `quad` call in the package
names its rule, which keeps its nodes off mpmath's global rules, and
`quadrature.py` calls `quad` only inside `_quad`, which counts the nodes
and refuses a saturated estimate.

`__init__.py` is left out: its imports are the public re-exports, and it
defines no function.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "indexkernels"
INIT = PACKAGE / "__init__.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != INIT)
SOURCES = MODULES + sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def _functions(body, prefix=""):
    # (qualified name, node) for each function defined in a module or
    # class body, methods of nested classes included
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, prefix + node.name + ".")


def unused_locals(source):
    """(function, name) for each name that a top-level function or a
    method stores in its body, nested functions included, and loads
    nowhere in it; `_` is exempt.  A method is named `Class.method`.  In
    order of the functions, then of the names' first store."""
    found = []
    for qualname, fn in _functions(ast.parse(source).body):
        stored, loaded = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    loaded.add(node.id)
        found += [(qualname, name)
                  for name, _ in sorted(stored.items(), key=lambda kv: kv[1])
                  if name != "_" and name not in loaded]
    return found


def test_detects_unused_local():
    src = ("x = 1\n"
           "def f(a):\n    b, _ = a\n    c = 2\n    for i in a:\n"
           "        pass\n    def g():\n        d = c\n        e = 3\n"
           "        return d\n    return g\n"
           "def h():\n    n = 0\n    n += 1\n    return x\n"
           "class C:\n    y = 2\n    def m(self):\n        u, v = self\n"
           "        return v\n    class D:\n        def k(self):\n"
           "            w = 1\n")
    assert unused_locals(src) == [("f", "b"), ("f", "i"), ("f", "e"),
                                  ("h", "n"), ("C.m", "u"), ("C.D.k", "w")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_local(path):
    assert unused_locals(path.read_text()) == []


def _top_level_names(tree):
    # (name, line) for each def, class and assigned name of the module body
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node.lineno


def unused_top_level(sources, init_source):
    """(module, name) for each top-level def, class or assigned name of
    `sources` (module name to source) that no module loads, as a name or
    as an attribute, and that `init_source` does not import; in order of
    the modules, then of the lines."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and \
                    not isinstance(node.ctx, ast.Store):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    exported = {alias.name for node in ast.walk(ast.parse(init_source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return [(mod, name) for mod, tree in trees.items()
            for name, _ in sorted(_top_level_names(tree), key=lambda nl: nl[1])
            if name not in loaded and name not in exported]


def test_detects_unused_top_level():
    sources = {
        "a": ("X, (Y, Z) = 1, (2, 3)\nW: int = 4\n"
              "def f():\n    return b.g() + Y\n"
              "def h():\n    return h()\nclass C:\n    pass\n"),
        "b": "from .a import f\ndef g():\n    return f\ndef k():\n    pass\n",
    }
    init = "from .a import C as Public\n"
    assert unused_top_level(sources, init) == [("a", "X"), ("a", "Z"),
                                               ("a", "W"), ("b", "k")]


def test_no_unused_top_level():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unused_top_level(sources, INIT.read_text()) == []


def unread_config_fields(config_source, sources):
    """The fields of the `Config` class of `config_source` that no source
    of `sources` loads as an attribute, in order of declaration."""
    cls = next(node for node in ast.parse(config_source).body
               if isinstance(node, ast.ClassDef) and node.name == "Config")
    declared = [node.target.id for node in cls.body
                if isinstance(node, ast.AnnAssign)]
    read = {node.attr for src in sources for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [name for name in declared if name not in read]


def test_detects_unread_config_field():
    config_source = ("class Other:\n    d: int = 0\n"
                     "class Config:\n    a: int = 1\n    b: float = 2.0\n"
                     "    c: int = 3\n    def f(self):\n"
                     "        return self.b\n")
    sources = ["def g(cfg):\n    cfg.b = 1\n    return cfg.a\n",
               "import dataclasses\n"
               "def h(cfg):\n    return dataclasses.replace(cfg, c=0)\n"]
    assert unread_config_fields(config_source, sources) == ["b", "c"]


def test_every_config_field_read():
    # config.py itself reads every field when it checks the ranges
    config_path = PACKAGE / "config.py"
    sources = [p.read_text() for p in MODULES if p != config_path]
    assert unread_config_fields(config_path.read_text(), sources) == []



LIBRARY = [p for p in MODULES if p.name not in ("cli.py", "config.py")]


def config_imports(source):
    """The lines of the import statements that bind the package's config
    module or a name from it: `from . import config`, `from .config import
    get`, `import indexkernels.config` and the absolute `from` forms."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # in the package, `from . import x` names indexkernels.x
            base = ".".join(filter(None, ["indexkernels" if node.level
                                          else "", node.module]))
            modules = [base] + [base + "." + alias.name
                                for alias in node.names]
        else:
            continue
        if "indexkernels.config" in modules:
            lines.append(node.lineno)
    return lines


def test_detects_config_import():
    src = ("import math\nfrom . import config\nfrom .config import get\n"
           "from . import errors, special\nimport indexkernels.config\n"
           "from indexkernels import bessel, config as c\n"
           "from .errors import DomainError\nimport configparser\n"
           "def f():\n    from indexkernels.config import Config\n")
    assert config_imports(src) == [2, 3, 5, 6, 10]


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_leaf_imports_no_config(path):
    # the leaves read mp.prec alone, the series' term cap and the loss
    # threshold being constants; the bound and remainder verdicts under
    # a slack are the CLI's
    assert config_imports(path.read_text()) == []


def _quad_calls(tree):
    # the calls to a function named `quad`: `quad(...)`, `mpmath.quad(...)`,
    # `mp.quad(...)`
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "quad"]


def quad_calls_without_method(source):
    """The lines of the `quad` calls that pass no `method=`."""
    return [node.lineno for node in _quad_calls(ast.parse(source))
            if "method" not in [kw.arg for kw in node.keywords]]


def quad_calls_outside(source, name):
    """The lines of the `quad` calls that no top-level function `name`
    holds, in order."""
    tree = ast.parse(source)
    inside = {id(call) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == name
              for call in _quad_calls(fn)}
    return sorted(call.lineno for call in _quad_calls(tree)
                  if id(call) not in inside)


def test_detects_quad_without_method():
    src = ("from mpmath import mp, quad\nquad(f, [0, 1])\n"
           "quad(f, [0, 1], method=R)\nmp.quad(f, [0, 1], error=True)\n"
           "_quad(f, [0, 1])\nmp.quad(f, [0, 1], method='gauss-legendre')\n")
    assert quad_calls_without_method(src) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_quad_names_its_rule(path):
    assert quad_calls_without_method(path.read_text()) == []


def test_detects_quad_outside_its_wrapper():
    src = ("from mpmath import mp, quad\n"
           "def _quad(f, pts):\n    def g(t):\n        return quad(f, t)\n"
           "    return quad(g, pts, method=R)\n"
           "def route(f):\n    return mp.quad(f, [0, 1], method=R)\n"
           "class C:\n    def _quad(self, f):\n        return quad(f, [0])\n"
           "quad(f, [0, 1], method=R)\n_quad(f, [0, 1])\n")
    assert quad_calls_outside(src, "_quad") == [7, 10, 11]


def test_quadrature_calls_quad_in_its_wrapper_alone():
    # every panel of the four routes is refused where its estimate
    # saturates, and its nodes are counted
    source = (PACKAGE / "quadrature.py").read_text()
    assert quad_calls_outside(source, "_quad") == []
