"""Start-up guard: `import nlsw.cli` and parsing a configuration load none
of the heavy packages the solver does not need, and a run imports nothing
further.  nlsw takes its LAPACK wrappers from scipy's `_flapack` extension
without the scipy.linalg package, whose imports would otherwise be most of
a short run's wall time.  A second guard reads the package's source: no
module imports a name it never uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import nlsw

from test_readme import block

HEAVY = ("scipy.linalg", "numpy.random", "numpy.f2py", "numpy.testing")

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


def test_fresh_process_loads_no_heavy_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(nlsw.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(HEAVY), str(tmp_path / "out")],
        input=block("json", "## CLI"), capture_output=True, text=True, env=env,
        timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report == {"loaded": [], "new": []}
    assert (tmp_path / "out" / "meta.json").is_file()


def test_no_module_keeps_an_unused_import():
    # No linter runs on the package, so a name left imported after its last
    # use would go unnoticed.  __init__ imports to re-export, and __future__
    # imports are directives, not names.
    stale = []
    for path in sorted(Path(nlsw.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
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
        stale += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert stale == []
