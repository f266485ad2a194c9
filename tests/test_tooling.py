"""Guards on the package's sources: a light CLI import and no unused imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "m3lab").glob("*.py"))


def test_cli_import_does_not_load_numpy():
    """M3LAB_THREADS caps the thread pools only if it is applied before numpy
    loads, so importing the CLI must not import numpy."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, m3lab.cli; print('numpy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def unused_imports(path: Path) -> list:
    """Names that an import statement of the module binds and no name in the
    module reads; statements marked `# noqa: F401` (re-exports) are exempt."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((name, node.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_check_sees_a_leftover(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom .errors import ParameterError, FieldError\n"
                   "from .frames import bracket  # noqa: F401 - re-exported\n"
                   "raise FieldError(os.sep)\n")
    assert unused_imports(mod) == ["mod.py:2: ParameterError"]
