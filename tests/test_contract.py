"""The CLI contract under edge inputs: every config key and every parameter
of a built-in initial-condition generator, one at a time, set to 0, +-1,
+-1e-300, +-1e300, 0.5 or a word, on 16 x 16 spin and NLS runs; and every
MFLD1 header field, one at a time, set to 0, +-1, 1e300, nan, inf, a word
or 2**31, in an initial-condition file (as `simulate-spin`, `simulate-nls`
and `equiv-check` read it) and in a run's slice (as `frame`, `charges` and
`lax-check` read it); the same files with a damaged payload (a huge block,
S off unit length, a NaN, another grid, a component too few or too many);
and every value a run's meta.json records, set to each edge value (2**31
too, for an integer config key), a wrong type, a non-finite number or
missing, as `frame`, `charges`, `equiv-check` and `lax-check` read the run.

Each case runs `cli.main` in process and must exit 0, 2 or 3; a run that
fails prints exactly one stderr line and no numpy RuntimeWarning; a refused
run (exit 2) writes nothing and any other writes only into its run
directory; and a value that is no integer is refused for a key or a
generator parameter that takes one.  A header case must exit 0, 2 or 3 too,
a failure as one stderr line that names the file; a damaged payload is
refused so.  The cases are every (key, value) pair, so no case is drawn at
random.

A case whose run would take more than RUN_BUDGET steps is never started:
its config goes to `_run_length` alone, which must refuse it.
"""

import inspect
import json
import math
import warnings

import numpy as np
import pytest

from m3lab import nls, spin
from m3lab.cli import _SCHEMA, SLICE_COMPS, RunConfig, _run_length, main
from m3lab.errors import M3LabError
from m3lab.fields import MAX_STEPS, Grid2, read_mfld1, write_mfld1

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


def _run(capsys, argv) -> tuple:
    """(exit code, stderr) of main(argv), held to the contract: exit 0, 2 or
    3, no numpy RuntimeWarning, an empty stderr on success and one
    `error: ` (exit 2) or `numerical abort: ` (exit 3) line on failure."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: " if code == 2 else "numerical abort: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
    return code, err


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
    code, err = _run(capsys, ["--output-dir", str(tmp_path / "out"), command,
                              str(tmp_path / "in" / "run.cfg")])
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
    "equiv-check": lambda root: ["equiv-check", "from-file", "--ladder", "16"],
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
    three or more slices lax-check needs; a config of each side that
    starts from its run's first slice, copied to init-<side>.mfld1; and a
    spin run from that config, in from-file, whose initial file
    equiv-check reads."""
    root = tmp_path_factory.mktemp("runs")
    for side in ("spin", "nls"):
        command, _ = BASES[side]
        (root / f"{side}.cfg").write_text(_text(side, "output_dir", side))
        assert main(["--output-dir", str(root), command, str(root / f"{side}.cfg")]) == 0
        init = root / f"init-{side}.mfld1"
        init.write_bytes((root / side / f"{side}_000000.mfld1").read_bytes())
        (root / f"init-{side}.cfg").write_text(_text(side, f"{side}.init", init))
    (root / "from-file.cfg").write_text(
        (root / "init-spin.cfg").read_text().replace("output_dir = run", "output_dir = from-file"))
    assert main(["--output-dir", str(root), "simulate-spin", str(root / "from-file.cfg")]) == 0
    return root


def _side(reader) -> str:
    return "nls" if reader.endswith("nls") else "spin"


def _initial(reader) -> bool:
    """Whether reader reads an initial-condition file, not a run's slice."""
    return reader.startswith("init") or reader == "equiv-check"


def _file_of(root, reader, offset=0):
    """The MFLD1 file that reader's command reads: its side's initial file,
    or the slice offset from the middle one of its side's run."""
    side = _side(reader)
    if _initial(reader):
        return root / f"init-{side}.mfld1"
    meta = json.loads((root / side / "meta.json").read_text())
    return root / side / meta["slices"][len(meta["slices"]) // 2 + offset]


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
    path = _file_of(runs, reader)
    original = path.read_bytes()
    _with_header(path, name, value)
    try:
        code, err = _run(capsys, ["--output-dir", str(runs), *READERS[reader](runs)])
    finally:
        path.write_bytes(original)
    if code != 0:
        assert str(path) in err


# ---------------------------------------------------------------------------
# MFLD1 payloads: the file each reader reads, rewritten with damaged values
# or layout
# ---------------------------------------------------------------------------

# 1e200 in a block of the field's components, S scaled by 1.5 (spin only),
# one NaN, the field on another grid, a component too few and, in a slice,
# one too many (an initial file may hold more than its field's)
DAMAGE = ("huge", "scaled", "nan", "grid", "too-few", "too-many")
# the slice damaged, from the middle one: the q side of lax-check also
# reads the slices either side of it, for q alone
OFFSETS = {"lax-check-nls": (0, -1, 1)}
PAYLOAD_CASES = [(reader, damage, offset) for reader in READERS for damage in DAMAGE
                 for offset in OFFSETS.get(reader, (0,))
                 if not (damage == "scaled" and _side(reader) == "nls")
                 and not (damage == "too-many" and _initial(reader))]


def _damage(path, damage, need):
    """Rewrite the MFLD1 file at path with one damage of DAMAGE; need, the
    number of components its reader needs."""
    grid, data = read_mfld1(path)
    if damage == "huge":
        data[:2, 2:4, 5:9] = 1e200
    elif damage == "scaled":
        data[:3] *= 1.5
    elif damage == "nan":
        data[0, 3, 5] = np.nan
    elif damage == "grid":
        grid, data = Grid2(grid.nx // 2, grid.ny, grid.lx, grid.ly), data[..., ::2]
    else:
        data = data[:need - 1] if damage == "too-few" else np.concatenate([data, data[:1]])
    write_mfld1(path, grid, data)


@pytest.mark.parametrize("reader, damage, offset", PAYLOAD_CASES,
                         ids=[f"{r}-{d}" + (f"-mid{o:+d}" if o else "")
                              for r, d, o in PAYLOAD_CASES])
def test_damaged_mfld1_payload_is_one_line_naming_the_file(runs, capsys, reader, damage, offset):
    """The file a command reads, damaged: exit 2 with one line that names
    the file, and no RuntimeWarning.  A spin file's S off unit length and
    an NLS file whose |q|^2 overflows are refused as they are read, by
    every reader, equiv-check's initial file and the slices the q side of
    lax-check reads for q alone included."""
    path = _file_of(runs, reader, offset)
    field, rest = SLICE_COMPS[_side(reader)]
    original = path.read_bytes()
    _damage(path, damage, len(field) if _initial(reader) else len(field + rest))
    try:
        code, err = _run(capsys, ["--output-dir", str(runs), *READERS[reader](runs)])
    finally:
        path.write_bytes(original)
    assert code == 2, err
    assert str(path) in err
    if damage in ("huge", "scaled"):
        assert ("|S| deviates from 1" if _side(reader) == "spin" else "|q|^2 overflows") in err


# ---------------------------------------------------------------------------
# meta.json values: each value a run's meta.json records, set one at a time,
# as frame, charges, equiv-check and lax-check read it
# ---------------------------------------------------------------------------

MISSING = object()  # the entry removed
# a recorded value of another type than its entry's, non-finite, or missing
OTHER = (True, [], math.nan, math.inf, MISSING)
# entries no reader checks past their presence: every number takes one path
UNCHECKED = ("config_hash", "dt", "tail")
META_READERS = {
    "spin": (["frame", "spin"], ["charges", "spin"], ["equiv-check", "spin", "--ladder", "16"],
             ["lax-check", "spin", "--spin-side", "--lambda", "0.3,0.1"]),
    "nls": (["lax-check", "nls", "--lambda", "0.3,0.1"],),
}


def _recorded(key) -> list:
    """The values of VALUES as a run records config key `key` (or, key
    None, a top-level number): those its type parses, 2**31 for an integer
    key (a grid.nx of 2**31 points a grid past MAX_CELLS), and one text,
    since every text takes the same path."""
    kind = _SCHEMA.get(key, (float,))[0]
    parsed = [2**31] if kind is int else []
    for value in VALUES:
        try:
            parsed.append(kind(value))
        except ValueError:
            pass
    return [v for v in parsed if not isinstance(v, str)] + ["abc"]


def _meta_cases():
    """(side, entry, label, change) of every recorded value: a top-level
    entry, or a config key as config.<key>, set to each value _recorded
    gives it (one number and one text for an entry of UNCHECKED) and each
    of OTHER; change maps the recorded value to the new one.  A list the
    readers read, `times` or `slices`, also has its middle value set so,
    loses its last, repeats it or is reversed, and `times` is scaled to
    spacings of 1e-300 and 1e300."""
    cases = []
    for side in ("spin", "nls"):
        entries = ["kind", "config_hash", "dt", "times", "slices", "tail"]
        for entry in entries + [f"config.{key}" for key in KEYS[side]]:
            key = entry[7:] if entry.startswith("config.") else None
            new = ([0.5, "abc"] if entry in UNCHECKED else _recorded(key)) + list(OTHER)
            changes = [("missing" if v is MISSING else repr(v), lambda old, v=v: v) for v in new]
            if entry in ("times", "slices"):
                changes += [(f"mid={v!r}", lambda old, v=v: old[:len(old) // 2] + [v]
                             + old[len(old) // 2 + 1:]) for v in new if v is not MISSING]
                changes += [("short", lambda old: old[:-1]), ("long", lambda old: old + old[-1:]),
                            ("reversed", lambda old: old[::-1])]
            if entry == "times":
                changes += [(f"x{s!r}", lambda old, s=s: [s * t for t in old])
                            for s in (1e-300, 1e300)]
            cases += [(side, entry, label, change) for label, change in changes]
    return cases


META_CASES = _meta_cases()


@pytest.mark.parametrize("side, entry, label, change", META_CASES,
                         ids=[f"{s}-{e}-{lb}" for s, e, lb, _ in META_CASES])
def test_recorded_meta_value_keeps_the_cli_contract(runs, capsys, side, entry, label, change):
    """One value of the run's meta.json changed: every command that reads
    the run exits 0, 2 or 3, a failure as one line, with no traceback and
    no RuntimeWarning."""
    path = runs / side / "meta.json"
    original = path.read_text()
    meta = json.loads(original)
    owner, key = (meta["config"], entry[7:]) if entry.startswith("config.") else (meta, entry)
    value = change(owner.get(key))
    if value is MISSING:
        owner.pop(key, None)  # a generator parameter the config left out is recorded by none
    else:
        owner[key] = value
    path.write_text(json.dumps(meta))
    try:
        for argv in META_READERS[side]:
            _run(capsys, ["--output-dir", str(runs), *argv])
    finally:
        path.write_text(original)
