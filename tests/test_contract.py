"""The CLI contract under edge inputs: every config key and every parameter
of a built-in initial-condition generator, one at a time, set to 0, +-1,
+-1e-300, +-1e300, 0.5 or a word, on 16 x 16 spin and NLS runs; and every
MFLD1 header field, one at a time, set to 0, +-1, 1e300, nan, inf, a word
or 2**31, in an initial-condition file and in a run's slice as `frame`,
`charges` and `lax-check` read it.

Each case runs `cli.main` in process and must exit 0, 2 or 3; a run that
fails prints exactly one stderr line and no numpy RuntimeWarning; a refused
run (exit 2) writes nothing and any other writes only into its run
directory; and a value that is no integer is refused for a key or a
generator parameter that takes one.  A header case must exit 0, 2 or 3 too,
a failure as one stderr line that names the file.  The cases are every
(key, value) pair, so no case is drawn at random.

A case whose run would take more than RUN_BUDGET steps is never started:
its config goes to `_run_length` alone, which must refuse it.
"""

import inspect
import json
import math
import warnings

import pytest

from m3lab import nls, spin
from m3lab.cli import _SCHEMA, MAX_STEPS, RunConfig, _run_length, main
from m3lab.errors import M3LabError

BASES = {
    "spin": ("simulate-spin", "grid.nx = 16\ngrid.ny = 16\nparams.c = 0.3\n"
             "spin.init = modulated-helix\nt_end = 0.1\nsave_every = 1\noutput_dir = run\n"),
    "lump": ("simulate-spin", "grid.nx = 16\ngrid.ny = 16\nparams.c = 0.3\n"
             "spin.init = stereographic-lump\nt_end = 0.1\nsave_every = 1\noutput_dir = run\n"),
    "nls": ("simulate-nls", "grid.nx = 16\ngrid.ny = 16\nparams.c = 0.3\n"
            "nls.init = plane-wave\nt_end = 0.1\nsave_every = 1\noutput_dir = run\n"),
}
VALUES = ("0", "1", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "0.5", "abc")
RUN_BUDGET = 200  # steps; the edge values give runs of at most 33 steps or beyond MAX_STEPS


def _generator_keys(prefix, gen):
    """{config key: annotation} of the parameters of generator gen."""
    return {prefix + name: p.annotation
            for name, p in list(inspect.signature(gen).parameters.items())[1:]}


# base -> {key: the type the key or generator parameter takes}
KEYS = {
    "spin": {**{k: t for k, (t, _) in _SCHEMA.items() if not k.startswith("nls.")},
             **_generator_keys("spin.init.", spin.init_modulated_helix)},
    "lump": _generator_keys("spin.init.", spin.init_stereographic_lump),
    "nls": {**{k: t for k, (t, _) in _SCHEMA.items() if not k.startswith("spin.")},
            **_generator_keys("nls.init.", nls.init_plane_wave)},
}
CASES = [(base, key, value) for base, keys in KEYS.items() for key in keys for value in VALUES]


def _text(base, key, value):
    lines = [ln for ln in BASES[base][1].splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def _steps(cfg) -> float:
    """The steps of the run of cfg, estimated apart from the CLI: t_end over
    dt, or over 0.2 hx hy when dt = 0 (the default step of these fields is
    0.14-0.34 hx hy); inf where no step forms."""
    try:
        dt = cfg["dt"] or 0.2 * (cfg["grid.lx"] / cfg["grid.nx"]) * (cfg["grid.ly"] / cfg["grid.ny"])
        return abs(cfg["t_end"] / dt)
    except (ZeroDivisionError, OverflowError):
        return math.inf


def _files(root):
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _not_integral(value: str) -> bool:
    try:
        return float(value) != int(float(value))
    except ValueError:
        return True


@pytest.mark.parametrize("base, key, value", CASES,
                         ids=[f"{b}-{k}-{v}" for b, k, v in CASES])
def test_edge_value_keeps_the_cli_contract(tmp_path, monkeypatch, capsys, base, key, value):
    command, _ = BASES[base]
    text = _text(base, key, value)
    try:
        cfg = RunConfig.from_text(text)
    except M3LabError:
        cfg = None  # refused as it is parsed; main refuses it the same way
    if cfg is not None and not _steps(cfg) <= RUN_BUDGET:
        # never started: only the run-length check sees it, and must refuse it
        assert _steps(cfg) > MAX_STEPS, "an edge value reaches a run too long to test"
        with pytest.raises(M3LabError):
            _run_length(cfg, cfg.grid())
        return

    (tmp_path / "in").mkdir()
    (tmp_path / "cwd").mkdir()
    (tmp_path / "in" / "run.cfg").write_text(text)
    monkeypatch.chdir(tmp_path / "cwd")
    before = _files(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--output-dir", str(tmp_path / "out"), command,
                     str(tmp_path / "in" / "run.cfg")])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: " if code == 2 else "numerical abort: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
    written = _files(tmp_path) - before
    run_dir = (tmp_path / "out" / (value if key == "output_dir" else "run")).relative_to(tmp_path)
    assert [p for p in written if run_dir not in p.parents] == []
    if code == 2:
        assert written == set()
    if KEYS[base][key] == int and _not_integral(value):
        assert code == 2 and key in err


# ---------------------------------------------------------------------------
# MFLD1 header fields: an initial-condition file, and a run's slice as
# `frame`, `charges` and `lax-check` read it
# ---------------------------------------------------------------------------

HEADER_FIELDS = ("nx", "ny", "ncomp", "lx", "ly")
# 2**31 points (or components) claim a payload far past the file's: refused
# as truncated before anything is allocated, so no payload is ever written
# to match it
HEADER_VALUES = ("0", "1", "-1", "1e300", "nan", "inf", "abc", str(2**31))
READERS = {  # the command line of each reader, on the directory of `runs`
    "init-spin": lambda root: ["simulate-spin", str(root / "init-spin.cfg")],
    "init-nls": lambda root: ["simulate-nls", str(root / "init-nls.cfg")],
    "frame": lambda root: ["frame", "spin"],
    "charges": lambda root: ["charges", "spin"],
    "lax-check-spin": lambda root: ["lax-check", "spin", "--spin-side", "--lambda", "0.3,0.1"],
    "lax-check-nls": lambda root: ["lax-check", "nls", "--lambda", "0.3,0.1"],
}
HEADER_CASES = [(reader, name, value) for reader in READERS
                for name in HEADER_FIELDS for value in HEADER_VALUES]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """16 x 16 spin and NLS runs, in the directories spin and nls, of the
    three or more slices lax-check needs, and a config of each side that
    starts from its run's first slice, copied to init-<side>.mfld1."""
    root = tmp_path_factory.mktemp("runs")
    for side in ("spin", "nls"):
        command, _ = BASES[side]
        (root / f"{side}.cfg").write_text(_text(side, "output_dir", side))
        assert main(["--output-dir", str(root), command, str(root / f"{side}.cfg")]) == 0
        init = root / f"init-{side}.mfld1"
        init.write_bytes((root / side / f"{side}_000000.mfld1").read_bytes())
        (root / f"init-{side}.cfg").write_text(_text(side, f"{side}.init", init))
    return root


def _with_header(path, name, value):
    """Rewrite the header field `name` of the MFLD1 file at path to value,
    the payload left as it is."""
    head, _, payload = path.read_bytes().partition(b"\n")
    fields = head.split()
    fields[1 + HEADER_FIELDS.index(name)] = value.encode()
    path.write_bytes(b" ".join(fields) + b"\n" + payload)


@pytest.mark.parametrize("reader, name, value", HEADER_CASES,
                         ids=[f"{r}-{n}-{v}" for r, n, v in HEADER_CASES])
def test_mfld1_header_edge_value_keeps_the_cli_contract(runs, capsys, reader, name, value):
    """One header field of the file the command reads set to an edge value:
    the command exits 0, 2 or 3, and a failure is one line that names the
    file, with no traceback and no RuntimeWarning."""
    if reader.startswith("init"):
        path = runs / f"{reader}.mfld1"
    else:
        side = "nls" if reader.endswith("nls") else "spin"
        meta = json.loads((runs / side / "meta.json").read_text())
        path = runs / side / meta["slices"][len(meta["slices"]) // 2]
    original = path.read_bytes()
    _with_header(path, name, value)
    try:
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--output-dir", str(runs), *READERS[reader](runs)])
    finally:
        path.write_bytes(original)
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 2, 3)
    if code != 0:
        assert err.startswith("error: " if code == 2 else "numerical abort: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert str(path) in err
