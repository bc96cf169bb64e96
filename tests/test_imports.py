"""Every name a radgrip module imports at module level is used in it,
every function, class and constant it defines at module level is read by
the package or the benchmark, and every function parameter is read in its
function's body.  The estimate path never loads scipy.sparse.

No linter ships with the package, so this reads each module with the
stdlib ``ast``.  The package ``__init__.py`` re-exports its imports and
``from __future__`` imports bind no name; both are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "radgrip"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py")
               if not p.name.startswith("test_"))


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert not _unused_imports(path)


def _reads(path: Path, strings: bool) -> set:
    """Names a file reads: loaded names, attributes and imported names,
    plus its string constants if ``strings``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out.add(node.value)
    return out


def _defined(path: Path) -> dict:
    """Module-level functions, classes and constants of a module, by
    line."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    out[t.id] = node.lineno
    return out


def test_every_module_level_name_is_read():
    # perfbench names the functions it traces by string (LAYERS)
    read = set().union(*(_reads(p, False) for p in SRC.glob("*.py")),
                       *(_reads(p, True) for p in BENCH))
    unread = [f"{path.name}:{line}: {name}" for path in MODULES
              for name, line in _defined(path).items() if name not in read]
    assert not unread, unread


def _unread_parameters(path: Path) -> list:
    """Parameters of each function (lambdas aside) that its body, nested
    functions included, never loads; self, cls and names starting with _
    are exempt."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  *filter(None, (a.vararg, a.kwarg)))]
        loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        out += [f"{path.name}:{fn.lineno}: {fn.name}({p})" for p in params
                if p not in loaded and p not in ("self", "cls")
                and not p.startswith("_")]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_function_parameter_is_read(path):
    assert not _unread_parameters(path)


def test_the_estimate_path_never_loads_scipy_sparse():
    # scipy.sparse and scipy.sparse.linalg cost 3.5 MB of resident memory,
    # which the benchmark's peak_rss_mb bound counts: a module that needs
    # them imports them inside the function that uses them
    code = ("import sys, radgrip.cli, radgrip.simgen; "
            "print('scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "False"
