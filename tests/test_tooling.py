"""Guards on the package's sources: a light CLI import that no other module
makes, no unused imports, no dead private names, no default that no call
overrides, no boolean option that only unit tests set, no identity probe
in the frame layer, one vector layout, one MFLD1 reader and one CLI
function that calls it and unit-checks S, two CLI functions that open a
file to write (JSON and CSV), no private frames name used outside frames
but the workspace and the densities, one writer of run directories, no
parameter check called for its side effect alone, no step formed from the
cell area, no command that calls the general NLS pair, a README layout
that names every module and no run file a simulate command would not
clean up."""

import ast
import fnmatch
import inspect
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


def cli_imports(paths) -> list:
    """Every import of the CLI in the modules, at any depth: `from .cli
    import ...`, `from . import cli`, `import m3lab.cli` and their
    absolute forms, as `module:line: statement`."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                package = "m3lab" if node.level else ""
                module = ".".join(filter(None, (package, node.module)))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "m3lab.cli" or name.startswith("m3lab.cli.") for name in names):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_library_module_imports_the_cli():
    """The CLI is the front door and nothing behind it reads from it: the
    bounds it checks live in fields, beside what they bound."""
    assert cli_imports([p for p in MODULES if p.name != "cli.py"]) == []


def test_cli_import_check_sees_a_leftover(tmp_path):
    (tmp_path / "a.py").write_text(
        "import m3lab.cli\nimport m3lab.client, m3lab.clip as clip\n"
        "from . import cli as front, fields\nfrom m3lab import cli\nfrom .cli import main\n\n"
        "def spacing(n):\n    from .cli import MAX_STEPS\n    return n < MAX_STEPS\n\n"
        "def other():\n    from m3lab.cli import RunConfig\n    from .fields import MAX_STEPS\n"
        "    from . import clip\n    return RunConfig, MAX_STEPS, clip\n")
    assert cli_imports([tmp_path / "a.py"]) == [
        "a.py:1: import m3lab.cli", "a.py:3: from . import cli as front, fields",
        "a.py:4: from m3lab import cli", "a.py:5: from .cli import main",
        "a.py:8: from .cli import MAX_STEPS", "a.py:12: from m3lab.cli import RunConfig"]


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


def dead_private_names(paths) -> list:
    """Module-level `_name`s (functions, classes, constants) of the modules
    that no module reads, as a name, an attribute or an imported name."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.name}:{node.lineno}: {name}" for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return dead


def test_no_dead_private_names():
    assert dead_private_names(MODULES) == []


def test_dead_private_name_check_sees_a_leftover(tmp_path):
    (tmp_path / "a.py").write_text(
        "_TOL = 1e-12\n_DEAD = 2\n__all__ = []\n\n"
        "def _read(x):\n    return x < _TOL\n\n"
        "def _dead():\n    pass\n\n"
        "class _Imported:\n    pass\n\n"
        "class _Gone:\n    pass\n\n"
        "def _attr():\n    pass\n\n"
        "def public():\n    return _read(0.0)\n")
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import _Imported\n"
                                   "_Imported, a._attr\n")
    assert dead_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == [
        "a.py:2: _DEAD", "a.py:8: _dead", "a.py:14: _Gone"]


CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (SRC.parent / d).rglob("*.py"))


def unset_defaults(defining, calling, exempt, checked=lambda default: True) -> list:
    """Defaulted parameters of the functions and methods (not __init__) of
    the modules `defining` that no call in the modules `calling` passes, by
    name or by position; what a call passes through *args or **kwargs
    counts for neither.  Calls are matched to definitions by name; a
    method takes its first parameter from the object it is called on.
    Only parameters whose default expression passes `checked` are listed."""
    calls = {}
    for path in calling:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                n_pos = sum(not isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append((n_pos, {k.arg for k in node.keywords}))
    unset = []
    for path in defining:
        tree = ast.parse(path.read_text())
        methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            pos = fn.args.posonlyargs + fn.args.args
            first = len(pos) - len(fn.args.defaults)
            defaulted = [(i, a.arg, d) for i, (a, d) in
                         enumerate(zip(pos[first:], fn.args.defaults), first)]
            defaulted += [(None, a.arg, d) for a, d in zip(fn.args.kwonlyargs,
                                                           fn.args.kw_defaults) if d is not None]
            shift = fn in methods and not any(getattr(d, "id", "") == "staticmethod"
                                               for d in fn.decorator_list)
            for i, arg, default in defaulted:
                if arg in exempt or (fn.name, arg) in exempt or not checked(default):
                    continue
                if not any(arg in kws or (i is not None and n_pos + shift > i)
                           for n_pos, kws in calls.get(fn.name, [])):
                    unset.append(f"{path.name}:{fn.lineno}: {fn.name}({arg})")
    return unset


def test_every_default_is_passed_by_some_call():
    """A defaulted parameter that no caller sets is an option nobody uses:
    `scheme` (the package-wide convention) and the parameters of the
    initial-condition generators, which config keys set through **args,
    are exempt."""
    from m3lab import nls, spin
    generated = {(gen.__name__, name) for table in (spin.INITIAL_CONDITIONS,
                                                    nls.INITIAL_CONDITIONS)
                 for gen in table.values() for name in inspect.signature(gen).parameters}
    assert unset_defaults(MODULES, CALLERS, {"scheme"} | generated) == []


def test_unset_default_check_sees_a_leftover(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, tol=1.0, *, step=2.0, scheme=None):\n    pass\n\n"
        "def g(x, y=0):\n    pass\n\n"
        "class C:\n    def __init__(self, n=0):\n        pass\n\n"
        "    def m(self, a=1, b=2):\n        pass\n\n"
        "    @staticmethod\n    def s(a=1):\n        pass\n")
    (tmp_path / "b.py").write_text("f(1, step=3.0)\ng(1, 2)\nC().m(5)\nC.s(*[1])\n"
                                   "g(**{'y': 1})\n")
    assert unset_defaults([tmp_path / "a.py"], [tmp_path / "b.py"], {"scheme"}) == [
        "a.py:1: f(tol)", "a.py:11: m(b)", "a.py:15: s(a)"]


def bool_default(default) -> bool:
    return isinstance(default, ast.Constant) and isinstance(default.value, bool)


def test_no_boolean_option_is_set_by_tests_alone():
    """A bool default that only unit tests set is a branch no program path
    takes: the calls that count are those of the package and of the
    acceptance criteria."""
    callers = MODULES + [SRC.parent / "tests" / "test_acceptance.py"]
    assert unset_defaults(MODULES, callers, set(), bool_default) == []


def test_boolean_option_check_sees_one_set_by_tests_alone(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, fast=False, tol=1.0, *, strict=True, name=None):\n    pass\n\n"
        "def g(x, verbose=False, flag=0):\n    pass\n")
    (tmp_path / "b.py").write_text("g(1, verbose=True)\n")
    assert unset_defaults([tmp_path / "a.py"], [tmp_path / "b.py"], set(), bool_default) == [
        "a.py:1: f(fast)", "a.py:1: f(strict)"]


def str_default(default) -> bool:
    return isinstance(default, ast.Constant) and isinstance(default.value, str)


def test_no_string_option_is_set_by_tests_alone():
    """A str default that only unit tests set names a reading no program
    path takes, as a bool one does."""
    callers = MODULES + [SRC.parent / "tests" / "test_acceptance.py"]
    assert unset_defaults(MODULES, callers, set(), str_default) == []


def test_string_option_check_sees_one_set_by_tests_alone(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, mode='fast', tol=1.0, *, kind='a', name=None):\n    pass\n\n"
        "def g(x, reading='factored', flag=False):\n    pass\n")
    (tmp_path / "b.py").write_text("g(1, 'split')\n")
    assert unset_defaults([tmp_path / "a.py"], [tmp_path / "b.py"], set(), str_default) == [
        "a.py:1: f(mode)", "a.py:1: f(kind)"]


def identity_probes(paths) -> list:
    """`is` and `is not` comparisons in the modules of which neither operand
    is None: each tells an object by its identity, not by what it holds."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + node.comparators
            found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                      for op, x, y in zip(node.ops, operands, operands[1:])
                      if isinstance(op, (ast.Is, ast.IsNot))
                      and not any(isinstance(o, ast.Constant) and o.value is None for o in (x, y))]
    return found


def test_frame_layer_makes_no_identity_probe():
    """frames, equivalence and invariants decide nothing by an array's
    identity: a workspace's arrays are what a caller hands in, and a copy of
    an array onto itself costs nothing."""
    assert identity_probes([SRC / "m3lab" / name for name in
                            ("frames.py", "equivalence.py", "invariants.py")]) == []


def test_package_makes_no_identity_probe():
    """No module decides anything by an object's identity: a workspace's
    arrays are what a caller hands in or a march loaded, and a copy of an
    array onto itself costs nothing."""
    assert identity_probes(MODULES) == []


def test_identity_probe_check_sees_a_probe(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(S, ws, w, x=None):\n"
        "    if S is not ws.S and x is None:\n        pass\n"
        "    return x is not None, None is x, w is ws.D, S is x is None\n")
    assert identity_probes([tmp_path / "a.py"]) == [
        "a.py:2: S is not ws.S", "a.py:4: w is ws.D", "a.py:4: S is x is None"]


LAYOUT_CALLS = ("moveaxis", "swapaxes", "transpose", "einsum")
MFLD1_IO = ("read_mfld1", "write_mfld1")


def layout_conversions(paths) -> list:
    """Calls that convert or sum by array layout (moveaxis, swapaxes,
    transpose, einsum), and subscripts that open with `...` and then index or
    slice a trailing axis ([..., k], [..., 0:3]; not one that only adds axes
    with None), in the modules.  The MFLD1 reader and writer, which
    interleave the planes of a stack point by point, are exempt."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        exempt = [(f.lineno, f.end_lineno) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name in MFLD1_IO]
        hits = []
        for node in ast.walk(tree):
            if any(a <= getattr(node, "lineno", 0) <= b for a, b in exempt):
                continue
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in LAYOUT_CALLS:
                    hits.append((node.lineno, name))
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
                first, *rest = node.slice.elts
                if (isinstance(first, ast.Constant) and first.value is Ellipsis
                        and not all(isinstance(e, ast.Constant) and e.value is None
                                    for e in rest)):
                    hits.append((node.lineno, ast.unparse(node)))
        found += [f"{path.name}:{line}: {what}" for line, what in sorted(hits, key=lambda h: h[0])]
    return found


def test_package_keeps_one_vector_layout():
    """A vector field is a (3, ny, nx) stack from its generator to its MFLD1
    file: no module converts layouts, sums by memory layout or picks
    components off a trailing axis, except the MFLD1 reader and writer."""
    assert layout_conversions(MODULES) == []


def test_layout_check_sees_a_leftover(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n\n"
        "def f(S, M, v):\n"
        "    P = np.moveaxis(S, -1, 0)\n"
        "    d = np.einsum('...k,...k->...', S, S) + S[..., 2] + S[..., 0:3].sum()\n"
        "    return P.swapaxes(0, 1), M.transpose(), v[..., None, None] * M, S[0], M.T\n\n"
        "def write_mfld1(path, grid, data):\n"
        "    return np.moveaxis(data[..., :3], -1, 0)\n")
    assert layout_conversions([tmp_path / "a.py"]) == [
        "a.py:4: moveaxis", "a.py:5: einsum", "a.py:5: S[..., 2]", "a.py:5: S[..., 0:3]",
        "a.py:6: swapaxes", "a.py:6: transpose"]


BINARY_READS = ("fromfile", "memmap", "readinto", "read_bytes")


def binary_reads(paths) -> list:
    """Calls in the modules that read a file's bytes: open() (or a path's
    open()) with a literal binary read mode, numpy's fromfile and memmap, a
    file's readinto and a path's read_bytes.  MFLD1 is the one binary
    format the package reads, so outside fields each is a second reader."""
    found = []
    for path in paths:
        calls = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
        for node in sorted(calls, key=lambda n: (n.lineno, n.col_offset)):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "open":
                modes = node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:2]
                modes += [k.value for k in node.keywords if k.arg == "mode"]
                if not any(isinstance(m, ast.Constant) and isinstance(m.value, str)
                           and set(m.value) <= set("rwxabt+") and {"r", "b"} <= set(m.value)
                           for m in modes):
                    continue
            elif name not in BINARY_READS:
                continue
            found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_only_fields_reads_mfld1():
    """read_mfld1 is the one MFLD1 reader: no other module reads a file's
    bytes, and the check sees the reader itself."""
    fields = SRC / "m3lab" / "fields.py"
    assert binary_reads([p for p in MODULES if p != fields]) == []
    assert [f.split(": ")[1] for f in binary_reads([fields])] == ["open", "readinto"]


def test_binary_read_check_sees_a_second_reader(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\nfrom pathlib import Path\n\n"
        "def second(path):\n"
        "    with open(path, 'rb') as fh:\n        fh.readline()\n"
        "    with open(path, mode='r+b'):\n        pass\n"
        "    Path(path).open('rb')\n    Path(path).read_bytes()\n"
        "    return np.fromfile(path, dtype='<f8')\n\n"
        "def text_and_writes(path):\n"
        "    with open(path) as fh:\n        fh.read()\n"
        "    with open(path, 'wb'):\n        pass\n"
        "    open(path, 'r'), open('bar.txt'), Path(path).open()\n")
    assert binary_reads([tmp_path / "a.py"]) == [
        "a.py:5: open", "a.py:7: open", "a.py:9: open", "a.py:10: read_bytes",
        "a.py:11: fromfile"]


def users(path, name) -> list:
    """Top-level functions of the module that read `name`, as a name or an
    attribute (a call or a reference), nested functions counted in theirs."""
    return sorted({fn.name for fn in ast.parse(path.read_text()).body
                   if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)
                   if getattr(node, "id", getattr(node, "attr", None)) == name})


def test_cli_reads_mfld1_in_one_function():
    """An initial-condition file and a run's slice are read through one
    checked reader, which checks a file's grid and components before
    read_mfld1 reads its payload."""
    assert users(SRC / "m3lab" / "cli.py", "read_mfld1") == ["_read_checked"]


def test_cli_unit_checks_spin_in_one_function():
    """The checked reader alone unit-checks an S: every S a command reads
    comes from a file through it, and a generator's is unit by
    construction."""
    assert users(SRC / "m3lab" / "cli.py", "check_unit") == ["_read_checked"]


def test_unit_check_guard_sees_a_leftover(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def _read_checked(path):\n    from . import spin\n"
        "    return spin.check_unit(path)\n\n"
        "def cmd_simulate_spin(args):\n    from .spin import check_unit, make_state\n"
        "    return lambda S: make_state(check_unit(S))\n\n"
        "def _load_slice(path):\n    return _read_checked(path)\n")
    assert users(tmp_path / "cli.py", "check_unit") == ["_read_checked", "cmd_simulate_spin"]


def test_mfld1_reader_check_sees_a_second_reader(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import fields\n\n"
        "def _read_checked(path):\n    from .fields import read_mfld1\n"
        "    return read_mfld1(path)[1]\n\n"
        "def _load_slice(path):\n    return _read_checked(path)\n\n"
        "def _spin_from_file(path):\n"
        "    def check(grid, ncomp):\n        pass\n"
        "    def read():\n        return fields.read_mfld1(path, None, check)\n"
        "    return read()\n")
    assert users(tmp_path / "cli.py", "read_mfld1") == ["_read_checked", "_spin_from_file"]


# the private frames names a module may import: the workspace, which a
# command makes once for every slice, and the densities that charges reads
PRIVATE_FRAMES_NAMES = {("cli.py", "_Workspace"), ("equivalence.py", "_Workspace"),
                        ("invariants.py", "_Workspace"), ("invariants.py", "_densities")}


def private_frames_names(paths) -> list:
    """(module file, name) of each private name of frames that the modules
    import from it or read as an attribute of it."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "frames":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "frames":
                names = [node.attr]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return sorted(found)


def test_frame_layer_internals_stay_in_frames():
    """Outside frames, a module imports no private frames name but the
    workspace and the densities: the projection of a frame, its checks
    and its derivatives are reached through coeffs_from_frame."""
    used = private_frames_names([p for p in MODULES if p.name != "frames.py"])
    assert set(used) - PRIVATE_FRAMES_NAMES == set()


def test_private_frames_name_check_sees_a_leftover(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import frames\n"
        "from .frames import _Workspace, _project, coeffs_from_frame\n\n"
        "def f(grid, F):\n"
        "    from m3lab.frames import _vectors\n"
        "    return frames._triple, frames.__name__, _vectors(F), _Workspace, _project\n")
    assert private_frames_names([tmp_path / "a.py"]) == [
        ("a.py", "_Workspace"), ("a.py", "_project"), ("a.py", "_triple"), ("a.py", "_vectors")]


def opens_to_write(call) -> bool:
    """Whether the call is open() with a mode that writes, or one that is
    no literal."""
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return getattr(call.func, "id", getattr(call.func, "attr", None)) == "open" and any(
        not isinstance(m, ast.Constant) or set("wxa+") & set(str(m.value)) for m in modes)


def run_dir_writers(path) -> tuple:
    """(functions that call _run_dir, functions that write meta.json) of the
    module, by top-level function name, nested functions counted in theirs.
    A function writes meta.json when it calls _write_json, or open() with a
    mode that writes, on arguments holding the literal "meta.json"."""
    callers, writers = set(), set()
    for fn in ast.parse(path.read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "_run_dir":
                callers.add(fn.name)
            writes = name == "_write_json" or opens_to_write(node)
            if writes and any(isinstance(n, ast.Constant) and n.value == "meta.json"
                              for arg in node.args for n in ast.walk(arg)):
                writers.add(fn.name)
    return sorted(callers), sorted(writers)


def test_one_function_writes_every_run_directory():
    """Both simulate commands write their run directory through one body:
    exactly one function of the CLI clears a run directory (_run_dir) and
    writes a meta.json, and it is the same one."""
    callers, writers = run_dir_writers(SRC / "m3lab" / "cli.py")
    assert len(callers) == 1 and writers == callers


def test_run_dir_check_sees_a_second_writer(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import json, os\n\n"
        "def _run_dir(args):\n    return args\n\n"
        "def _write_json(path, payload):\n    pass\n\n"
        "def _simulate(args):\n"
        "    out = _run_dir(args)\n    _write_json(os.path.join(out, 'meta.json'), {})\n\n"
        "def cmd_second(args):\n    out = _run_dir(args)\n\n"
        "    def finish():\n"
        "        with open(os.path.join(out, 'meta.json'), mode='w') as fh:\n"
        "            json.dump({}, fh)\n    finish()\n\n"
        "def _open_run(args):\n"
        "    with open(os.path.join(args, 'meta.json'), 'r') as fh:\n"
        "        return json.load(fh)\n")
    assert run_dir_writers(tmp_path / "cli.py") == (["_simulate", "cmd_second"],
                                                    ["_simulate", "cmd_second"])


def file_writers(path) -> list:
    """Top-level functions of the module that open a file to write it
    (opens_to_write), nested functions counted in theirs."""
    return sorted({fn.name for fn in ast.parse(path.read_text()).body
                   if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
                   if isinstance(node, ast.Call) and opens_to_write(node)})


def test_cli_writes_text_files_through_two_writers():
    """Every JSON report and meta.json goes through _write_json, and every
    CSV table (invariants.csv, charges.csv, norms.csv, lax_scan.csv)
    through _write_csv: no other function of the CLI opens a file to write."""
    assert file_writers(SRC / "m3lab" / "cli.py") == ["_write_csv", "_write_json"]


def test_file_writer_guard_sees_a_leftover(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def _write_json(path, payload):\n    with open(path, 'w') as fh:\n        pass\n\n"
        "def _write_csv(path, header, rows):\n    with open(path, mode='w') as fh:\n"
        "        pass\n\n"
        "def cmd_simulate_nls(args):\n    def norms(out):\n"
        "        with open(out, 'a') as fh:\n            fh.write('t,max_abs_q')\n"
        "    return norms\n\n"
        "def cmd_lax_check(args, mode):\n    open(args.run_dir, mode).close()\n\n"
        "def _open_run(args):\n    with open(args.meta) as fh:\n        return fh.read()\n")
    assert file_writers(tmp_path / "cli.py") == ["_write_csv", "_write_json", "cmd_lax_check",
                                                 "cmd_simulate_nls"]


PARAMS_CALLS = ("spin_params", "nls_params", "params")


def discarded_params(paths) -> list:
    """Statements of the modules that call RunConfig's spin_params,
    nls_params or params and drop the result: a check made for its side
    effect, which _open_run and _simulate make once for every run."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "attr", None) in PARAMS_CALLS):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.value)}")
    return found


def test_no_parameter_check_is_called_for_its_side_effect():
    assert discarded_params(MODULES) == []


def test_discarded_params_check_sees_a_dropped_result(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(cfg, kind):\n"
        "    cfg.spin_params()  # rejects a params.beta other than 1\n"
        "    par = cfg.nls_params()\n    cfg.params(kind)\n"
        "    return par, cfg.params(kind), [cfg.spin_params()]\n")
    assert discarded_params([tmp_path / "a.py"]) == [
        "a.py:2: cfg.spin_params()", "a.py:4: cfg.params(kind)"]


STEP_CONSTANTS = ("DT_FACTOR", "CFL_SAFETY")
QUADRATURE = ("integrate2",)


def step_leftovers(paths) -> list:
    """In the modules: every product that multiplies an hx by an hy (a step
    formed from the cell area) outside the quadrature integrate2, and every
    name DT_FACTOR or CFL_SAFETY.  The step has one owner: fields.max_dt,
    which reads the wavenumbers, and what reads it (checked_dt, default_dt,
    spin.stable_dt)."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        exempt = [(f.lineno, f.end_lineno) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name in QUADRATURE]
        inner = {id(side) for node in ast.walk(tree)
                 if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                 for side in (node.left, node.right)}

        def factors(node):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                return factors(node.left) + factors(node.right)
            return [getattr(node, "attr", getattr(node, "id", None))]

        hits = []
        for node in ast.walk(tree):
            name = getattr(node, "attr", getattr(node, "id", None))
            if isinstance(node, (ast.Name, ast.Attribute)) and name in STEP_CONSTANTS:
                hits.append((node.lineno, name))
            elif isinstance(node, ast.alias) and node.name in STEP_CONSTANTS:
                hits.append((node.lineno, node.name))
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                  and id(node) not in inner and {"hx", "hy"} <= set(factors(node))
                  and not any(a <= node.lineno <= b for a, b in exempt)):
                hits.append((node.lineno, ast.unparse(node)))
        found += [f"{path.name}:{line}: {what}" for line, what in sorted(hits)]
    return found


def test_no_module_forms_a_step_from_the_cell_area():
    assert step_leftovers(MODULES) == []


def test_step_leftover_check_sees_a_leftover(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .fields import CFL_SAFETY\n"
        "DT_FACTOR = 0.2\n\n"
        "def default_dt(grid, hx, hy):\n"
        "    return DT_FACTOR * grid.hx * grid.hy, 0.3 * hx * (2.0 * hy), grid.hx + grid.hy\n\n"
        "def integrate2(grid, f):\n"
        "    return grid.hx * grid.hy * f.sum(), 2.0 * grid.hx, fields.CFL_SAFETY\n")
    assert step_leftovers([tmp_path / "a.py"]) == [
        "a.py:1: CFL_SAFETY", "a.py:2: DT_FACTOR", "a.py:5: 0.3 * hx * (2.0 * hy)",
        "a.py:5: DT_FACTOR", "a.py:5: DT_FACTOR * grid.hx * grid.hy", "a.py:8: CFL_SAFETY"]


BAND_DEFINER = ("fields.py", "_band_top")   # the one cut n // 3 of the 2/3 band
BAND_APPLIER = ("spin.py", "_rhs")          # the one kernel that runs in it


def band_leftovers(paths) -> list:
    """In the modules: every floor division by 3 (a 2/3 band cut) outside
    fields._band_top, which the projection, spectral_tail and max_dt read,
    and every use of band_limit, the band's projection, outside spin._rhs
    (importing it is no use)."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]

        def within(node, owner):
            return path.name == owner[0] and any(
                f.name == owner[1] and f.lineno <= node.lineno <= f.end_lineno for f in funcs)

        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                    and isinstance(node.right, ast.Constant) and node.right.value == 3
                    and not within(node, BAND_DEFINER)):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif (isinstance(node, (ast.Name, ast.Attribute))
                  and getattr(node, "id", getattr(node, "attr", None)) == "band_limit"
                  and not within(node, BAND_APPLIER)):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_the_band_has_one_definition_and_one_applier():
    assert band_leftovers(MODULES) == []


def test_band_leftover_check_sees_a_leftover(tmp_path):
    (tmp_path / "fields.py").write_text(
        "def _band_top(n):\n    return n // 3\n\n"
        "def spectral_tail(f):\n    return f.shape[-1] // 3, f.shape[-1] // 2\n")
    (tmp_path / "spin.py").write_text(
        "from .fields import band_limit\n\n"
        "def _rhs(r, band):\n    return band_limit(r, band)\n\n"
        "def step(r, band):\n    return fields.band_limit(r, band)\n")
    (tmp_path / "nls.py").write_text("def _rhs(q, band):\n    return band_limit(q, band)\n")
    assert band_leftovers([tmp_path / n for n in ("fields.py", "spin.py", "nls.py")]) == [
        "fields.py:5: f.shape[-1] // 3", "spin.py:7: fields.band_limit", "nls.py:2: band_limit"]


GENERAL_PAIR = ("nls_rhs", "solve_v_nls")
GENERAL_PAIR_READERS = {("cli.py", "cmd_selftest")}


def general_pair_callers(paths) -> list:
    """Each call of nls_rhs or solve_v_nls, by name or as an attribute, in
    the modules, as `module:line: top-level function or class` (nested
    functions and methods counted in theirs), but in GENERAL_PAIR_READERS."""
    found = []
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            if (not isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    or (path.name, top.name) in GENERAL_PAIR_READERS):
                continue
            found += [f"{path.name}:{node.lineno}: {top.name}" for node in ast.walk(top)
                      if isinstance(node, ast.Call) and getattr(
                          node.func, "id", getattr(node.func, "attr", None)) in GENERAL_PAIR]
    return sorted(found)


def test_general_pair_is_a_reference_only():
    """nls_rhs and solve_v_nls, the general pair (an explicit p), are a
    reference for the tests and selftest: no command reads its rate from
    them, since simulate-nls integrates the reduced kernel (nls.q_rate)."""
    assert general_pair_callers(MODULES) == []


def test_general_pair_check_sees_a_caller(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import nls\nfrom .nls import nls_rhs, solve_v_nls\n\n"
        "def cmd_selftest(args):\n    return nls_rhs(args), solve_v_nls(args)\n\n"
        "def equiv_residual(grid, q):\n    v = nls.solve_v_nls(grid, q, q)[0]\n"
        "    return nls_rhs(grid, q, q, v)\n\n"
        "class Checker:\n    def rate(self, q):\n        def inner():\n"
        "            return solve_v_nls(q, q)\n        return inner\n\n"
        "def nls_rhs_twin(q):\n    return q\n")
    assert general_pair_callers([tmp_path / "cli.py"]) == [
        "cli.py:14: Checker", "cli.py:8: equiv_residual", "cli.py:9: equiv_residual"]


def test_readme_layout_names_every_module():
    """The README's Layout block has one line for each module of the package."""
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    named = [line.split()[0] for line in block.splitlines() if line.startswith("src/")]
    assert sorted(named) == [f"src/m3lab/{path.name}" for path in MODULES
                             if path.name != "__init__.py"]


SPIN_RUN = ("grid.nx = 16\ngrid.ny = 16\nmodel = M3\nparams.c = 0.3\n"
            "spin.init = modulated-helix\nt_end = 0.1\nsave_every = 1\noutput_dir = spin\n")
NLS_RUN = ("grid.nx = 16\ngrid.ny = 16\nmodel = Zakharov\nnls.init = plane-wave\n"
           "t_end = 0.1\nsave_every = 1\noutput_dir = nls\n")


def test_every_file_the_commands_write_is_a_run_file(tmp_path):
    """Every file that simulate-spin, frame, charges, equiv-check, lax-check
    on the spin side, simulate-nls and a lax-check scan write into a run
    directory matches a pattern of cli.RUN_FILES, which a simulate command
    clears from its directory first, and every pattern matches one."""
    from m3lab.cli import RUN_FILES, main
    (tmp_path / "spin.cfg").write_text(SPIN_RUN)
    (tmp_path / "nls.cfg").write_text(NLS_RUN)
    for argv in (["simulate-spin", "spin.cfg"], ["frame", "spin"], ["charges", "spin"],
                 ["equiv-check", "spin", "--ladder", "16,32"],
                 ["lax-check", "spin", "--spin-side", "--lambda", "0.3,0.1"],
                 ["simulate-nls", "nls.cfg"],
                 ["lax-check", "nls", "--lambda", "0.3,0.1", "--lambda", "-0.2,0.4"]):
        argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
        assert main(["--output-dir", str(tmp_path)] + argv) == 0, argv
    written = [f.name for run in ("spin", "nls") for f in (tmp_path / run).iterdir()]
    matched = {p: [n for n in written if fnmatch.fnmatchcase(n, p)] for p in RUN_FILES}
    assert sorted(written) == sorted(n for names in matched.values() for n in names)
    assert [p for p, names in matched.items() if not names] == []
