"""Batch front door: flat-text configs, run orchestration, reports.

Config format: one `key = value` per line, `#` comments, dotted keys.
Unknown keys are fatal.  Every subcommand is deterministic given the config,
and MFLD1 outputs are byte-identical across reruns.

Exit codes: 0 success, 2 validation error or a path that cannot be read or
written (OSError), 3 numerical-instability abort.

simulate-spin and simulate-nls write a run directory through one body,
_simulate, which owns the write protocol; the other commands open a run
through _open_run, which checks its meta.json and its parameters, and
frame lands its files through _staged_outputs, all or none.  Every
MFLD1 file a command reads, an initial-condition file or a run's slice,
goes through one reader, _read_checked, which checks its grid and its
components (SLICE_COMPS) before its payload is read, and its field
after; one writer, _write_csv, writes every CSV table.

The environment variable M3LAB_THREADS caps the BLAS/OpenMP thread pools;
it must be applied before numpy loads, so this module keeps its imports
light and pulls the numerical modules in lazily.
"""

import argparse
import contextlib
import fnmatch
import functools
import hashlib
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .errors import ConfigError, M3LabError, NumericalError, ParameterError

# the components of a run's slices, per kind: its field's, which an
# initial-condition file holds first, then the rest
SLICE_COMPS = {"spin": (("S1", "S2", "S3"), ("u", "v")),
               "nls": (("Re q", "Im q"), ("Re p", "Im p", "v"))}
# every file the subcommands write into a run directory, as fnmatch patterns,
# staging names (_staged_outputs) included; a simulate command removes their
# matches from its directory first
RUN_FILES = ("spin_[0-9]*.mfld1", "nls_[0-9]*.mfld1", "frame_[0-9]*.mfld1",
             "coeffs_[0-9]*.mfld1", "meta.json", "invariants.csv", "norms.csv", "charges.csv",
             "frame_report*.json", "equiv_report.json", "lax_report.json", "lax_scan.csv")
# lambda-check's float options, whose value main attaches (`--k=-1e3`)
NUMBER_OPTIONS = ("--k", "--a", "--c")


def _apply_thread_cap():
    cap = os.environ.get("M3LAB_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# key: (type, default) of every scalar key
_SCHEMA = {
    "grid.nx": (int, 64),
    "grid.ny": (int, 64),
    "grid.lx": (float, math.tau),
    "grid.ly": (float, math.tau),
    "scheme": (str, "spectral"),
    "model": (str, ""),
    "spin.model": (str, ""),
    "nls.model": (str, ""),
    "params.c": (float, 0.0),
    "params.d": (float, 1.0),
    "params.l": (float, 0.0),
    "params.beta": (int, 1),
    "spin.init": (str, "modulated-helix"),
    "nls.init": (str, "plane-wave"),
    "dt": (float, 0.0),
    "t_end": (float, 0.1),
    "save_every": (int, 10),
    "output_dir": (str, "run"),
}
_PREFIX_KEYS = ("spin.init.", "nls.init.")
# bound on the slices of a simulate run, over 100x the largest run of the
# configs, tests and benchmark (31 slices); fields bounds its steps and points
MAX_SLICES = 10_000
MAX_SAMPLES = 1000  # lambda-check's bound on --samples, 100x its default (samples^2 rows)


def _checked(key: str, value, where: str):
    """value of config key `key`, parsed from a config line or recorded in
    a meta.json, checked: a known key, a value of its type (a bool is no
    number; an init parameter is an int or a float) and finite.  An
    integral init parameter becomes an int."""
    init = key not in _SCHEMA
    if init and not key.startswith(_PREFIX_KEYS):
        raise ConfigError(f"{where}unknown config key {key!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float) if init else _SCHEMA[key][0]):
        raise ConfigError(f"{where}bad value for {key}: {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{where}{key} must be finite, got {value!r}")
        if init and value == int(value):
            value = int(value)  # numeric init parameter: integers survive
    return value


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines to a typed dict; unknown keys are fatal."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}: "
        if "=" not in line:
            raise ConfigError(f"{where}expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        kind = _SCHEMA.get(key, (float,))[0]  # an init parameter is a number
        try:
            val = kind(val)
        except ValueError:
            pass  # left as text, which _checked rejects, naming the key or the value
        parsed = _checked(key, val, where)
        if key in values:
            raise ConfigError(f"{where}duplicate key {key!r}")
        values[key] = parsed
    return values


@dataclass(frozen=True)
class RunConfig:
    values: dict = field(repr=False)
    sha: str = ""

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # a NUL in the path is a ValueError
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        parsed = parse_config_text(text)
        values = {key: default for key, (_, default) in _SCHEMA.items()}
        values.update(parsed)
        canon = "\n".join(f"{k} = {values[k]!r}" for k in sorted(values))
        return cls(values=values, sha=hashlib.sha256(canon.encode()).hexdigest())

    @classmethod
    def from_meta(cls, meta: dict) -> "RunConfig":
        """The configuration a run directory's meta.json records."""
        values = meta.get("config")
        if not isinstance(values, dict) or "config_hash" not in meta:
            raise ConfigError("meta.json records no run configuration")
        missing = sorted(set(_SCHEMA) - set(values))
        if missing:
            raise ConfigError(f"meta.json configuration lacks {missing}")
        values = {key: _checked(key, value, "meta.json configuration: ")
                  for key, value in values.items()}
        return cls(values=values, sha=meta["config_hash"])

    def __getitem__(self, key):
        return self.values[key]

    def init_args(self, prefix: str) -> dict:
        plen = len(prefix)
        return {k[plen:]: v for k, v in self.values.items() if k.startswith(prefix)}

    def grid(self):
        from .fields import Grid2
        return Grid2(self["grid.nx"], self["grid.ny"], self["grid.lx"], self["grid.ly"])

    def spin_params(self):
        from .spin import SpinParams
        if self["params.beta"] != 1:
            raise ConfigError(f"params.beta = {self['params.beta']} on a spin run: the spin "
                              f"flow has no beta, and a unit S has frames of beta = 1 only")
        model = self["spin.model"] or self["model"] or "M3"
        return SpinParams(c=self["params.c"], d=self["params.d"], l=self["params.l"], model=model)

    def nls_params(self):
        from .nls import NlsParams
        model = self["nls.model"] or self["model"] or "M3q"
        return NlsParams(c=self["params.c"], d=self["params.d"],
                         beta=self["params.beta"], model=model)

    def params(self, kind: str):
        """The SpinParams of a "spin" run or the NlsParams of an "nls" run."""
        return self.spin_params() if kind == "spin" else self.nls_params()


def _read_checked(path: str, grid, kind: str, initial: bool = False, out=None):
    """The data of the MFLD1 file at path, a `kind` run's slice or, initial,
    an initial-condition file, read only after its layout is checked: the
    file must exist and be sampled on grid, with exactly a slice's
    components (SLICE_COMPS) or at least its field's (ConfigError).  Given
    out, a (k, ny, nx) stack, its first k components are read into out
    (read_mfld1).  A field no state is made of (an S off unit length by
    more than spin.STATE_TOL, a q whose |q|^2 overflows) is refused too."""
    from .fields import read_mfld1
    from .spin import check_unit
    field_comps, rest = SLICE_COMPS[kind]
    comps = field_comps if initial else field_comps + rest
    if not os.path.exists(path):
        raise ConfigError(f"{path}: no such file")

    def check(fgrid, ncomp):
        if fgrid != grid or ncomp < len(comps) or ncomp > len(comps) and not initial:
            raise ConfigError(f"{path}: sampled on {fgrid} with {ncomp} components, need "
                              f"{'at least ' if initial else ''}{len(comps)} components on "
                              f"{grid}: {', '.join(comps)}")

    data = read_mfld1(path, out, check)[1]
    try:
        if kind == "spin":
            check_unit(data[:3])
        elif abs(data[0] + 1j * data[1]).max() > math.sqrt(sys.float_info.max):
            raise ParameterError("the density |q|^2 overflows")
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return data


def _make_initial(cfg: RunConfig, side: str):
    """grid -> initial field of `side` ("spin" or "nls").

    `<side>.init` names a built-in generator, called with the `<side>.init.*`
    keys, or an MFLD1 file.  Every such key must name a parameter of the
    generator, and one the generator annotates `int` must hold an integer;
    a file takes none.
    """
    from . import nls, spin
    table = {"spin": spin.INITIAL_CONDITIONS, "nls": nls.INITIAL_CONDITIONS}[side]
    name = cfg[f"{side}.init"]
    args = cfg.init_args(f"{side}.init.")
    if name.endswith(".mfld1"):
        def gen(grid):
            data = _read_checked(name, grid, side, initial=True)
            return data[:3] if side == "spin" else data[0] + 1j * data[1]
        params = {}
    elif name in table:
        gen = table[name]
        params = dict(list(inspect.signature(gen).parameters.items())[1:])
    else:
        raise ConfigError(f"unknown {side}.init {name!r}; have {sorted(table)}")
    unknown = sorted(set(args) - set(params))
    if unknown:
        raise ConfigError(f"{side}.init {name!r} has no parameter {', '.join(unknown)}; "
                          f"it takes {list(params) or 'none'}")
    for key, value in args.items():
        if params[key].annotation == int and not isinstance(value, int):
            raise ConfigError(f"{side}.init.{key} must be an integer, got {value!r}")
    return lambda grid: gen(grid, **args)


def _run_length(cfg: RunConfig, grid, default=None):
    """(dt, n_steps) of a simulate run; dt = 0 picks the default step:
    default(), a function of no argument that a simulate command passes
    (it makes the initial state, and a spin run gives that state's step),
    or fields.default_dt(grid) where there is none or it gives None.  A dt
    beyond the step bound, a t_end that rounds to no step, or a run beyond
    fields.MAX_STEPS or MAX_SLICES, is refused before the run writes
    anything, and every refusal that needs no step before default() is
    called (grid, a Grid2, is within fields.MAX_CELLS)."""
    from .fields import MAX_STEPS, checked_dt, default_dt, max_dt
    dt, t_end, save_every = cfg["dt"], cfg["t_end"], cfg["save_every"]
    if dt < 0.0:
        raise ConfigError(f"dt must be non-negative, got {dt!r}")
    if t_end <= 0.0:
        raise ConfigError(f"t_end must be positive, got {t_end!r}")
    if save_every < 1:
        raise ConfigError(f"save_every must be at least 1, got {save_every}")
    if not t_end <= MAX_STEPS * max_dt(grid):  # no step is longer than the bound
        raise ConfigError(f"t_end = {t_end!r} takes over {MAX_STEPS} steps of {max_dt(grid):.3e}")
    dt = checked_dt(dt or (default and default()) or default_dt(grid), max_dt(grid))
    if not t_end / dt <= MAX_STEPS:
        raise ConfigError(f"t_end / dt = {t_end / dt:.3e} steps exceeds {MAX_STEPS}")
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ConfigError(f"t_end = {t_end!r} rounds to no step of dt = {dt!r}")
    if n_steps // save_every + 1 > MAX_SLICES:
        raise ConfigError(f"{n_steps // save_every + 1} saved slices exceed {MAX_SLICES}")
    return dt, n_steps


def _env() -> dict:
    """Versions and thread cap a run was made with, recorded in its meta.json."""
    import platform

    import numpy as np

    from . import __version__
    return {"m3lab": __version__, "numpy": np.__version__,
            "python": platform.python_version(),
            "M3LAB_THREADS": os.environ.get("M3LAB_THREADS") or None}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: str, rows) -> None:
    """A CSV table: the header line, then the repr of each value of each row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(x) for x in row) + "\n")


def _write_charges(path: str, run_dir: str, meta: dict, cfg: RunConfig) -> list:
    """Charge table of a spin run, one row per slice; returns their
    density_dev triples.  Each slice's S is read into the e3 stack of the
    one workspace in which every slice's frame and coefficients are built."""
    from .frames import _Workspace, coeffs_from_frame, frame_from_spin
    from .invariants import charges
    grid, scheme = cfg.grid(), cfg["scheme"]
    reports, work = [], _Workspace((grid.ny, grid.nx))
    for idx, t in enumerate(meta["times"]):
        _load_slice(run_dir, meta, cfg, idx, work.e3)
        F = frame_from_spin(grid, work.e3, scheme, work=work)
        reports.append((t, charges(grid, coeffs_from_frame(grid, F, scheme, work=work),
                                   work=work)))
    _write_csv(path, "t,K1,K2,K3,Kc1,Kc2,Kc3,Q1,Q2,Q3",
               ([t] + rep.as_row() for t, rep in reports))
    return [list(rep.density_dev) for _, rep in reports]


def _run_dir(out: str) -> str:
    """out, the directory a simulate command writes its run to, made if
    missing, with every file of an earlier run there (RUN_FILES) removed;
    files m3lab did not write stay."""
    os.makedirs(out, exist_ok=True)
    for name in os.listdir(out):
        path = os.path.join(out, name)
        if any(fnmatch.fnmatchcase(name, p) for p in RUN_FILES) and os.path.isfile(path):
            os.remove(path)
    return out


def _simulate(args, kind: str, load, step, march, payload, finish) -> int:
    """Run the config args.config names and write its `kind` run directory.

    Every refusal comes first: the config (a run directory that is not
    inside --output-dir included), the parameters, the run length
    (_run_length) and the initial field, which load(grid, initial, par,
    scheme=scheme) makes a state of.  A run at dt = 0 makes that state
    inside _run_length and steps at step(grid, par, state) (a spin run's
    own; None keeps the grid's default).  Then _run_dir clears the
    directory, and each state that march(grid, state, par, dt, n_steps,
    save_every, scheme) yields is written as <kind>_NNNNNN.mfld1 and let go
    before the march makes the next: payload(par, st) gives its planes and
    stacks and its scalars, each a per-slice list of meta.json.
    finish(out, cfg, meta) writes the run's own table and completes meta,
    and meta.json comes last, so a run that aborts leaves slices that no
    command reads as a run.
    """
    from .fields import write_mfld1

    cfg = RunConfig.load(args.config)
    out = os.path.join(args.output_dir, cfg["output_dir"])
    if "\0" in out:  # no path holds one; refused before the run starts
        raise ConfigError(f"run directory {out!r} holds a NUL character")
    base, run = os.path.realpath(args.output_dir), os.path.realpath(out)
    if run == base or os.path.commonpath([base, run]) != base:  # _run_dir would clear it
        raise ConfigError(f"output_dir = {cfg['output_dir']!r} is no directory inside "
                          f"{args.output_dir!r}; a run needs a directory of its own there")
    grid, par, scheme = cfg.grid(), cfg.params(kind), cfg["scheme"]
    make_initial = _make_initial(cfg, kind)
    initial = functools.cache(lambda: load(grid, make_initial(grid), par, scheme=scheme))
    dt, n_steps = _run_length(cfg, grid, lambda: step(grid, par, initial()))
    states = march(grid, initial(), par, dt, n_steps, cfg["save_every"], scheme)
    del initial  # the march lets go of the initial state once it is written
    _run_dir(out)
    meta = {"kind": kind, "config_hash": cfg.sha, "config": cfg.values, "env": _env(),
            "dt": dt, "times": [], "slices": []}
    for st in states:
        name = f"{kind}_{len(meta['slices']):06d}.mfld1"
        data, scalars = payload(par, st)
        write_mfld1(os.path.join(out, name), grid, data)
        meta["slices"].append(name)
        meta["times"].append(st.t)
        for key, value in scalars.items():
            meta.setdefault(key, []).append(value)
        del st, data  # let go of the state before the march makes the next
    finish(out, cfg, meta)
    _write_json(os.path.join(out, "meta.json"), meta)
    print(f"saved {len(meta['slices'])} slices to {out}")
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate_spin(args) -> int:
    from .spin import make_state, march_spin, stable_dt

    def invariants(out, cfg, meta):
        meta["max_renorm"] = max(meta["renorm"])
        meta["density_dev"] = _write_charges(os.path.join(out, "invariants.csv"), out, meta, cfg)

    # a file's S is unit-checked as it is read; a generator's is unit by construction
    return _simulate(args, "spin", make_state, stable_dt, march_spin,
                     lambda par, st: ((st.S, st.u, st.v), {
                         "renorm": st.renorm, "u_row_mean": st.u_row_mean,
                         "v_row_mean": st.v_row_mean, "tail": st.tail}),
                     invariants)


def cmd_simulate_nls(args) -> int:
    import numpy as np
    from .nls import _paired, make_state, march_nls

    def payload(par, st):
        p = _paired(st.q, par.beta)
        return (st.q.real, st.q.imag, p.real, p.imag, st.v), {
            "max_abs_q": float(np.max(np.abs(st.q))), "v_row_mean": st.v_row_mean,
            "tail": st.tail}

    def norms(out, cfg, meta):
        """norms.csv, which takes max |q| of each slice out of meta."""
        _write_csv(os.path.join(out, "norms.csv"), "t,max_abs_q",
                   zip(meta["times"], meta.pop("max_abs_q")))

    return _simulate(args, "nls", make_state, lambda grid, par, state: None, march_nls,
                     payload, norms)


def _open_run(args, kind: str):
    """(run dir, meta, RunConfig, parameters) of the `kind` run named by
    args.run_dir; RunConfig.params checks the parameters (a spin run's
    params.beta must be 1)."""
    run_dir = os.path.join(args.output_dir, args.run_dir)
    meta_path = os.path.join(run_dir, "meta.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {meta_path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("kind") != kind:
        raise ConfigError(f"{args.command} needs a {kind} run directory")
    cfg = RunConfig.from_meta(meta)
    times, slices = meta.get("times"), meta.get("slices")
    if not (isinstance(times, list) and isinstance(slices, list)
            and len(times) == len(slices)
            and all(isinstance(t, (int, float)) and not isinstance(t, bool) and math.isfinite(t)
                    for t in times)
            and all(a < b for a, b in zip(times, times[1:]))
            and all(isinstance(name, str) for name in slices)):
        raise ConfigError(f"{meta_path} needs `times` (finite numbers, strictly increasing) "
                          "and `slices` (names) lists of equal length")
    return run_dir, meta, cfg, cfg.params(kind)


def _load_slice(run_dir: str, meta: dict, cfg: RunConfig, idx: int, out=None):
    """The data of slice idx of the run, read by _read_checked on the run's
    grid: the stack of its components or, given out, out."""
    return _read_checked(os.path.join(run_dir, meta["slices"][idx]), cfg.grid(),
                         meta["kind"], out=out)


@contextlib.contextmanager
def _staged_outputs(run_dir: str):
    """Yields stage(name), the path a command writes the file run_dir/name
    to: its staging name, `.staging` before the extension, which RUN_FILES
    matches, so a simulate clears one a killed command left.  When the
    body ends, each staged file is renamed into place in the order staged;
    when it fails, each is removed, so the directory is as it was."""
    staged = []  # (staging path, path), in the order staged

    def stage(name: str) -> str:
        root, ext = os.path.splitext(name)
        staged.append((os.path.join(run_dir, f"{root}.staging{ext}"), os.path.join(run_dir, name)))
        return staged[-1][0]

    try:
        yield stage
    except BaseException:
        for path, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    for path, final in staged:
        os.replace(path, final)


def cmd_frame(args) -> int:
    from .fields import write_mfld1
    from .frames import transport_window

    run_dir, meta, cfg, _ = _open_run(args, "spin")
    times = meta["times"]
    report = {"config_hash": cfg.sha, "residuals": []}
    grid = cfg.grid()

    # every dump and the report are staged, and land only once the last slice is done
    with _staged_outputs(run_dir) as stage:
        for idx, co, res in transport_window(
                grid, times, functools.partial(_load_slice, run_dir, meta, cfg),
                lambda idx, F: write_mfld1(stage(f"frame_{idx:06d}.mfld1"), grid, F.E),
                cfg["scheme"]):
            write_mfld1(stage(f"coeffs_{idx:06d}.mfld1"), grid,
                        (*co.a[::-1], *co.b, *co.w))  # k, sigma, tau, m1 .. m3, w1 .. w3
            report["residuals"].append({"t": times[idx], **res})
        _write_json(stage("frame_report.json"), report)
    print(f"wrote {len(times)} frame dumps and {max(0, len(times) - 2)} coefficient dumps to {run_dir}")
    return 0


def cmd_equiv_check(args) -> int:
    from .equivalence import l_equiv_check

    run_dir, meta, cfg, par = _open_run(args, "spin")
    try:
        sizes = tuple(int(s) for s in args.ladder.split(","))
    except ValueError as exc:
        raise ConfigError(f"--ladder expects comma-separated grid sizes, got {args.ladder!r}") from exc
    if len(set(sizes)) < len(sizes):
        raise ConfigError(f"--ladder repeats a grid size: {args.ladder!r}")
    report = l_equiv_check(par, _make_initial(cfg, "spin"), sizes=sizes,
                           lx=cfg["grid.lx"], ly=cfg["grid.ly"], scheme=cfg["scheme"])
    payload = {"config_hash": cfg.sha, **report.as_dict()}
    out_path = os.path.join(run_dir, "equiv_report.json")
    _write_json(out_path, payload)
    print(f"order estimate: {report.order:.3f}")
    print(f"ladder: {[(round(h, 4), r) for h, r in report.ladder]}")
    print(f"report written to {out_path}")
    return 0


def _parse_lambda(text: str, par) -> complex:
    """lam of `--lambda re,im`: finite, and c lam^2 + d lam and (2 c lam + d)^2
    finite at the run's c, d."""
    import numpy as np

    try:
        re_s, im_s = text.split(",")
        lam = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise ConfigError(f"--lambda expects `re,im`, got {text!r}") from exc
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ConfigError(f"--lambda must be finite, got {text!r}")
    z = np.complex128(lam)
    with np.errstate(all="ignore"):
        mu = 2.0 * par.c * z + par.d
        finite = np.isfinite(par.c * (z * z) + par.d * z) and np.isfinite(mu * mu)
    if not finite:
        raise ConfigError(f"--lambda {lam.real!r},{lam.imag!r} overflows c lam^2 + d lam "
                          f"or (2 c lam + d)^2 at c = {par.c!r}, d = {par.d!r}")
    return lam


def cmd_lax_check(args) -> int:
    import numpy as np
    from .lax import central_differences, flatness_at, flatness_pass_q, split_trace
    from .nls import _paired
    from .spin import DENOM_TOL

    run_dir, meta, cfg, par = _open_run(args, "spin" if args.spin_side else "nls")
    lams = [_parse_lambda(text, par) for text in args.lam]
    for lam in lams:
        if args.spin_side and abs(2.0 * par.c * lam + par.d) < DENOM_TOL:
            raise ConfigError(f"--lambda {lam.real!r},{lam.imag!r} gives |2 c lam + d| below "
                              f"{DENOM_TOL} at c = {par.c!r}, d = {par.d!r}")
    grid, scheme = cfg.grid(), cfg["scheme"]
    times = meta["times"]
    need = 1 if args.spin_side else 3  # the middle slice, or the three q_t is formed from
    if len(times) < need:
        raise ConfigError(f"lax-check needs {need} or more saved slices")
    mid = len(times) // 2
    payload = {"config_hash": cfg.sha, "t": times[mid], "results": []}

    if args.spin_side:
        S = _load_slice(run_dir, meta, cfg, mid, out=np.empty((3, grid.ny, grid.nx)))
        # the split V alone has an identity part, so a non-zero trace
        payload["results"] = [{"lam": [lam.real, lam.imag], "trace_V_split": tr}
                              for lam, tr in zip(lams, split_trace(grid, S, par, lams, scheme))]
    else:
        def pair(data):  # (q, p) of a slice's Re q, Im q
            q = data[0] + 1j * data[1]
            return q, _paired(q, par.beta)

        # the slices either side are read for q alone, into two planes, and let
        # go once differenced; the middle one's v is kept as a plane of its own
        before, after = (pair(_load_slice(run_dir, meta, cfg, idx,
                                          out=np.empty((2, grid.ny, grid.nx))))
                         for idx in (mid - 1, mid + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            qp_t = central_differences(before, after, times[mid + 1] - times[mid - 1])
        del before, after
        data = _load_slice(run_dir, meta, cfg, mid)
        qpv = (*pair(data), data[4].copy())
        del data
        with np.errstate(over="ignore", invalid="ignore"):
            flat = flatness_pass_q(grid, qpv, qp_t, par, scheme)
            for lam in lams:
                rep = flatness_at(flat, lam)
                if not math.isfinite(rep["residual"]):
                    raise ConfigError(f"--lambda {lam.real!r},{lam.imag!r} overflows the q-side "
                                      f"flatness residual at c = {par.c!r}, d = {par.d!r}")
                payload["results"].append({**rep, "lam": [lam.real, lam.imag]})

    out_path = os.path.join(run_dir, "lax_report.json")
    _write_json(out_path, payload)
    scan_path = os.path.join(run_dir, "lax_scan.csv")
    if len(lams) > 1 and not args.spin_side:
        _write_csv(scan_path, "lam_re,lam_im,residual",
                   (entry["lam"] + [entry["residual"]] for entry in payload["results"]))
        print(f"lambda scan written to {scan_path}")
    elif os.path.exists(scan_path):  # an earlier scan does not describe this report
        os.remove(scan_path)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_charges(args) -> int:
    run_dir, meta, cfg, _ = _open_run(args, "spin")
    out_path = os.path.join(run_dir, "charges.csv")
    _write_charges(out_path, run_dir, meta, cfg)
    print(f"charge series written to {out_path}")
    return 0


def cmd_lambda_check(args) -> int:
    import numpy as np
    from .lax import lambda_residual

    if args.n == 0:
        raise ConfigError("--n must be a nonzero integer")
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ConfigError(f"--samples must be from 1 to {MAX_SAMPLES}, got {args.samples}")
    for name in ("k", "a", "c"):
        if not math.isfinite(getattr(args, name)):
            raise ConfigError(f"--{name} must be finite, got {getattr(args, name)!r}")
    ys = np.linspace(0.1, 2.0, args.samples)
    ts = np.linspace(0.0, 0.3, args.samples)
    print("y,t,residual_analytic,residual_fd")
    worst_analytic = worst_fd = 0.0
    for y in ys:
        for t in ts:
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                rep = lambda_residual(float(y), float(t), args.n, args.k, args.a, args.c)
            if not (math.isfinite(rep["analytic"]) and math.isfinite(rep["fd"])):
                raise ConfigError(f"the residual overflows at y = {float(y)!r}, t = {float(t)!r}")
            worst_analytic = max(worst_analytic, rep["analytic"])
            worst_fd = max(worst_fd, rep["fd"])
            print(f"{float(y)!r},{float(t)!r},{rep['analytic']!r},{rep['fd']!r}")
    print(f"# max analytic residual: {worst_analytic:.3e}")
    print(f"# max finite-difference residual: {worst_fd:.3e}")
    return 0


def cmd_selftest(args) -> int:
    import numpy as np
    from .fields import Grid2, ddx, ddy, dot3, inv_dx, meanx
    from .lax import pauli_identities, zero_curvature_q
    from .nls import NlsParams, init_plane_wave, nls_rhs, plane_wave_omega, solve_v_nls
    from .spin import SpinParams, init_modulated_helix, spin_rhs

    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    rep = pauli_identities()
    check("pauli product table exact", rep["pass"])

    grid = Grid2(64, 64)
    rng = np.random.default_rng(0)
    modes = np.zeros((grid.ny, grid.nx), dtype=complex)
    modes[1:4, 1:4] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    f = np.fft.ifft2(modes).real
    f = f / np.max(np.abs(f))
    g_field, _ = inv_dx(grid, f)
    rt = np.max(np.abs(ddx(grid, g_field) - (f - meanx(f))))
    check(f"inv_dx round-trip ({rt:.2e} < 1e-10)", rt < 1e-10)

    X, Y = grid.meshgrid()
    par = NlsParams(c=0.0, d=1.0, model="Zakharov")
    q = 0.4 * np.exp(1j * X) + 0.1 * np.exp(1j * (Y - 2 * X))
    p = np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p)
    qt_a, _ = nls_rhs(grid, q, p, v, par)
    qt_zak = -1j * (ddy(grid, ddx(grid, q)) + 2.0 * v * q)
    check("M3q rhs at (c,d)=(0,1) equals Zakharov rhs exactly",
          bool(np.array_equal(qt_a, qt_zak)))

    spar3 = SpinParams(c=0.4, d=0.0, l=0.3, model="M3")
    spar2 = SpinParams(c=0.4, d=0.0, l=0.3, model="M2")
    S = init_modulated_helix(grid, kappa=1, eps=0.1)
    r3 = spin_rhs(grid, S, spar3)
    r2 = spin_rhs(grid, S, spar2)
    check("spin M3 rhs at d=0 equals M2 rhs exactly", bool(np.array_equal(r3, r2)))

    tang = float(np.max(np.abs(dot3(S, r3))))
    check(f"spin rhs tangency ({tang:.2e} < 1e-9)", tang < 1e-9)

    def plane_wave(t):
        qw = init_plane_wave(grid, 0.5, 1, 2) * np.exp(-1j * plane_wave_omega(grid, par, 1, 2) * t)
        return qw, np.conj(qw), solve_v_nls(grid, qw, np.conj(qw))[0]

    delta = 1e-3
    flat = zero_curvature_q(grid, plane_wave(-delta), plane_wave(0.0), plane_wave(delta),
                            par, 0.3 + 0.1j, 2 * delta)["residual"]
    check(f"q-side Lax pair flat on the plane wave ({flat:.2e} < 1e-5)", flat < 1e-5)

    print("selftest:", "all passed" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 2 through main, as every other refusal
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache  # built once per process, however often main runs in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="m3lab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--output-dir", default=".",
                        help="base directory for runs and reports (default: .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-spin", help="run the spin model from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_simulate_spin)

    p = sub.add_parser("simulate-nls", help="run the NLS-type model from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_simulate_nls)

    p = sub.add_parser("frame", help="emit frames and transport coefficients for a spin run")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("equiv-check", help="grid-ladder equivalence residual report")
    p.add_argument("run_dir")
    p.add_argument("--ladder", default="32,64,128")
    p.set_defaults(func=cmd_equiv_check)

    p = sub.add_parser("lax-check", help="zero-curvature residual at spectral parameters")
    p.add_argument("run_dir")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE,IM",
                   action="append", help="repeatable; several values produce a scan CSV")
    p.add_argument("--spin-side", action="store_true")
    p.set_defaults(func=cmd_lax_check)

    p = sub.add_parser("charges", help="topological charge time series for a spin run")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_charges)

    p = sub.add_parser("lambda-check", help="spectral-parameter flow residual table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(func=cmd_lambda_check)

    p = sub.add_parser("selftest", help="fast structural checks; exit 0 iff all pass")
    p.set_defaults(func=cmd_selftest)
    return parser


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _attach_values(argv: list) -> list:
    """`--lambda RE,IM` as `--lambda=RE,IM`, and a number V after one of
    NUMBER_OPTIONS as `--k=V`, so a negative value that argparse does not
    read as a number (-0.2,0.4, -1e3, -inf) is not read as an option."""
    out = []
    for tok in argv:
        if out and (out[-1] == "--lambda" and "," in tok
                    or out[-1] in NUMBER_OPTIONS and _is_number(tok)):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    _apply_thread_cap()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_values(argv))
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (M3LabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
