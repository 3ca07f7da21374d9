"""Start-up guard: `import nlsw.cli` and parsing a configuration load none
of the heavy packages the solver does not need, and a run imports nothing
further.  nlsw takes its LAPACK wrappers from scipy's `_flapack` extension
without the scipy.linalg package, whose imports would otherwise be most of
a short run's wall time, and without the scipy package itself, whose
__init__ costs about 5 ms; meta.json still records scipy's version, read
from scipy's version.py.  argparse loads only when main parses a command
line.  Two more guards read the source: no module of the package or of
its tests imports a name it never uses, and every annotation of the
package resolves."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
import typing
from pathlib import Path

import nlsw

from test_readme import block

HEAVY = ("scipy", "scipy.linalg", "argparse", "numpy.random", "numpy.f2py",
         "numpy.testing")

SCRIPT = """
import dataclasses, json, sys
import nlsw.cli
config = nlsw.cli.parse_config(sys.stdin.read())
loaded = [name for name in json.loads(sys.argv[1]) if name in sys.modules]
before = set(sys.modules)
nlsw.cli.run_experiment(dataclasses.replace(
    config, T=0.2, J=20, snapshot_stride=10, output_dir=sys.argv[2]))
print(json.dumps({"loaded": loaded, "new": sorted(set(sys.modules) - before)}))
"""


def fresh_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this nlsw, capturing its output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(nlsw.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, **kwargs)


def test_fresh_process_loads_no_heavy_module(tmp_path):
    import scipy
    done = fresh_python("-c", SCRIPT, json.dumps(HEAVY), str(tmp_path / "out"),
                        input=block("json", "## CLI"))
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report == {"loaded": [], "new": []}
    # The version comes from a process where scipy was never imported.
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["versions"]["scipy"] == scipy.__version__


def test_missing_scipy_is_an_import_error_naming_it():
    done = fresh_python("-c", """
import sys
sys.modules["scipy"] = None
try:
    import nlsw
except ImportError as exc:
    print(type(exc).__name__, exc)
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(("ImportError", "ModuleNotFoundError"))
    assert "scipy" in done.stdout


def test_no_module_keeps_an_unused_import():
    # No linter runs on the package or its tests, so a name left imported
    # after its last use would go unnoticed.  The package's __init__ imports
    # to re-export, and __future__ imports are directives, not names.
    package = [path for path in sorted(Path(nlsw.__file__).parent.glob("*.py"))
               if path.name != "__init__.py"]
    stale = []
    for path in package + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        stale += [f"{path.parent.name}/{path.name}:{line} {name}"
                  for name, line in imported.items()
                  if name not in used]
    assert stale == []


def test_every_annotation_resolves():
    # Under `from __future__ import annotations` an annotation is a string
    # that nothing evaluates until typing.get_type_hints does, so one naming
    # something the module imports only inside a function, or no longer
    # imports, would go unnoticed.  This checks every function and class a
    # module of the package defines, and each class's methods.
    def defined(module):
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                yield obj
            elif isinstance(obj, type):
                yield obj
                for member in vars(obj).values():
                    member = getattr(member, "__func__", member)
                    member = getattr(member, "fget", member)
                    if isinstance(member, types.FunctionType):
                        yield member

    modules = [nlsw] + [importlib.import_module(f"nlsw.{info.name}")
                        for info in pkgutil.iter_modules(nlsw.__path__)]
    unresolved = []
    for module in modules:
        for obj in defined(module):
            try:
                typing.get_type_hints(obj)
            except Exception as exc:
                unresolved.append(f"{module.__name__}.{obj.__qualname__}: {exc!r}")
    assert unresolved == []


def test_no_module_keeps_an_unused_private_name():
    # A private top-level name that nothing in the package reads, by name
    # or as an attribute of its module, is dead code that a refactor left
    # behind.  Dunder names are the interpreter's.
    defined, used = [], set()
    for path in sorted(Path(nlsw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [name.id for target in assigned
                           for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                targets = []
            defined += [(f"{path.name}:{node.lineno} {name}", name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [where for where, name in defined if name not in used] == []
