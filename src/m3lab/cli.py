"""Batch front door: flat-text configs, run orchestration, reports.

Config format: one `key = value` per line, `#` comments, dotted keys.
Unknown keys are fatal.  Every subcommand is deterministic given the config,
and MFLD1 outputs are byte-identical across reruns.

Exit codes: 0 success, 2 validation error, 3 numerical-instability abort.

The environment variable M3LAB_THREADS caps the BLAS/OpenMP thread pools;
it must be applied before numpy loads, so this module keeps its imports
light and pulls the numerical modules in lazily.
"""

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .errors import ConfigError, M3LabError, NumericalError

SPIN_SLICE_COMPS = ("S1", "S2", "S3", "u", "v")
NLS_SLICE_COMPS = ("Re q", "Im q", "Re p", "Im p", "v")


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


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines to a typed dict; unknown keys are fatal."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _SCHEMA:
            caster = _SCHEMA[key][0]
        elif any(key.startswith(p) for p in _PREFIX_KEYS):
            caster = None  # numeric init parameter
        else:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            parsed = val if caster is str else (caster or float)(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
        if isinstance(parsed, float):
            if not math.isfinite(parsed):
                raise ConfigError(f"line {lineno}: {key} must be finite, got {val!r}")
            if caster is None and parsed == int(parsed):
                parsed = int(parsed)  # numeric init parameter: integers survive
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
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
        except OSError as exc:
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
        model = self["spin.model"] or self["model"] or "M3"
        return SpinParams(c=self["params.c"], d=self["params.d"], l=self["params.l"],
                          beta=self["params.beta"], model=model)

    def nls_params(self):
        from .nls import NlsParams
        model = self["nls.model"] or self["model"] or "M3q"
        return NlsParams(c=self["params.c"], d=self["params.d"],
                         beta=self["params.beta"], model=model)


def _initial_from_file(path: str, grid, comps: int):
    from .fields import read_mfld1
    if not os.path.exists(path):
        raise ConfigError(f"initial-condition file {path!r} does not exist")
    fgrid, data = read_mfld1(path)
    if fgrid != grid:
        raise ConfigError(f"{path}: sampled on {fgrid}, the config sets {grid}")
    if data.shape[2] < comps:
        raise ConfigError(f"{path}: {data.shape[2]} components, need at least {comps}")
    return data


def _spin_from_file(grid, path):
    return _initial_from_file(path, grid, 3)[..., 0:3]


def _q_from_file(grid, path):
    data = _initial_from_file(path, grid, 2)
    return data[..., 0] + 1j * data[..., 1]


def _make_initial(cfg: RunConfig, side: str):
    """grid -> initial field of `side` ("spin" or "nls").

    `<side>.init` names a built-in generator, called with the `<side>.init.*`
    keys, or an MFLD1 file.  Every such key must name a parameter of the
    generator; a file takes none.
    """
    from . import nls, spin
    table, read = {"spin": (spin.INITIAL_CONDITIONS, _spin_from_file),
                   "nls": (nls.INITIAL_CONDITIONS, _q_from_file)}[side]
    name = cfg[f"{side}.init"]
    args = cfg.init_args(f"{side}.init.")
    if name.endswith(".mfld1"):
        gen, params = (lambda grid: read(grid, name)), []
    elif name in table:
        gen = table[name]
        params = list(inspect.signature(gen).parameters)[1:]
    else:
        raise ConfigError(f"unknown {side}.init {name!r}; have {sorted(table)}")
    unknown = sorted(set(args) - set(params))
    if unknown:
        raise ConfigError(f"{side}.init {name!r} has no parameter {', '.join(unknown)}; "
                          f"it takes {params or 'none'}")
    return lambda grid: gen(grid, **args)


def _run_length(cfg: RunConfig, grid):
    """(dt, n_steps) of a simulate run; dt = 0 picks the default step."""
    from .spin import default_dt
    dt, t_end, save_every = cfg["dt"], cfg["t_end"], cfg["save_every"]
    if dt < 0.0:
        raise ConfigError(f"dt must be non-negative, got {dt!r}")
    if t_end <= 0.0:
        raise ConfigError(f"t_end must be positive, got {t_end!r}")
    if save_every < 1:
        raise ConfigError(f"save_every must be at least 1, got {save_every}")
    dt = dt if dt > 0.0 else default_dt(grid)
    return dt, max(1, int(round(t_end / dt)))


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


def _write_charges(path: str, samples, scheme, beta: int) -> list:
    """Charge table, one row per (t, grid, S) sample; returns their density_dev triples."""
    from .frames import coeffs_from_frame, frame_from_spin
    from .invariants import charges
    reports = []
    for t, grid, S in samples:
        F = frame_from_spin(grid, S, scheme)
        reports.append((t, charges(grid, coeffs_from_frame(grid, F, scheme), beta)))
    with open(path, "w") as fh:
        fh.write("t,K1,K2,K3,Kc1,Kc2,Kc3,Q1,Q2,Q3\n")
        for t, rep in reports:
            fh.write(",".join(repr(x) for x in [t] + rep.as_row()) + "\n")
    return [list(rep.density_dev) for _, rep in reports]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate_spin(args) -> int:
    import numpy as np
    from .fields import write_mfld1
    from .spin import make_state, run_spin

    cfg = RunConfig.load(args.config)
    grid = cfg.grid()
    par = cfg.spin_params()
    scheme = cfg["scheme"]
    make_initial = _make_initial(cfg, "spin")
    dt, n_steps = _run_length(cfg, grid)
    state = make_state(grid, make_initial(grid), par, scheme=scheme)
    state.validate()
    saved = run_spin(grid, state, par, dt, n_steps, cfg["save_every"], scheme)

    out = os.path.join(args.output_dir, cfg["output_dir"])
    os.makedirs(out, exist_ok=True)
    slices = []
    for idx, st in enumerate(saved):
        name = f"spin_{idx:06d}.mfld1"
        data = np.concatenate([st.S, st.u[..., None], st.v[..., None]], axis=-1)
        write_mfld1(os.path.join(out, name), grid, data)
        slices.append(name)
    density_dev = _write_charges(os.path.join(out, "invariants.csv"),
                                 ((st.t, grid, st.S) for st in saved), scheme, par.beta)
    _write_json(os.path.join(out, "meta.json"), {
        "kind": "spin",
        "config_hash": cfg.sha,
        "config": cfg.values,
        "env": _env(),
        "dt": dt,
        "times": [st.t for st in saved],
        "slices": slices,
        "max_renorm": max(st.renorm for st in saved),
        "renorm": [st.renorm for st in saved],
        "u_row_mean": [st.u_row_mean for st in saved],
        "v_row_mean": [st.v_row_mean for st in saved],
        "density_dev": density_dev,
    })
    print(f"saved {len(saved)} slices to {out}")
    return 0


def cmd_simulate_nls(args) -> int:
    import numpy as np
    from .fields import write_mfld1
    from .nls import make_state, run_nls

    cfg = RunConfig.load(args.config)
    grid = cfg.grid()
    par = cfg.nls_params()
    scheme = cfg["scheme"]
    make_initial = _make_initial(cfg, "nls")
    dt, n_steps = _run_length(cfg, grid)
    state = make_state(grid, make_initial(grid), par, scheme=scheme)
    saved = run_nls(grid, state, par, dt, n_steps, cfg["save_every"], scheme)

    out = os.path.join(args.output_dir, cfg["output_dir"])
    os.makedirs(out, exist_ok=True)
    slices = []
    for idx, st in enumerate(saved):
        name = f"nls_{idx:06d}.mfld1"
        data = np.stack([st.q.real, st.q.imag, st.p.real, st.p.imag, st.v], axis=-1)
        write_mfld1(os.path.join(out, name), grid, data)
        slices.append(name)
    with open(os.path.join(out, "norms.csv"), "w") as fh:
        fh.write("t,max_abs_q,conj_dev\n")
        for st in saved:
            fh.write(f"{st.t!r},{float(np.max(np.abs(st.q)))!r},{st.conj_dev!r}\n")
    _write_json(os.path.join(out, "meta.json"), {
        "kind": "nls",
        "config_hash": cfg.sha,
        "config": cfg.values,
        "env": _env(),
        "dt": dt,
        "times": [st.t for st in saved],
        "slices": slices,
        "conj_dev": [st.conj_dev for st in saved],
        "v_row_mean": [st.v_row_mean for st in saved],
    })
    print(f"saved {len(saved)} slices to {out}")
    return 0


def _open_run(args, kind: str):
    """(run dir, meta, RunConfig) of the `kind` run named by args.run_dir."""
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
            and all(isinstance(t, (int, float)) for t in times)
            and all(isinstance(name, str) for name in slices)):
        raise ConfigError(f"{meta_path} needs `times` and `slices` lists of equal length")
    return run_dir, meta, cfg


def _load_slice(run_dir: str, meta: dict, cfg: RunConfig, idx: int):
    """(grid, data) of slice idx, checked against the run's grid and slice layout."""
    from .fields import read_mfld1
    path = os.path.join(run_dir, meta["slices"][idx])
    if not os.path.exists(path):
        raise ConfigError(f"slice {path} does not exist")
    grid, data = read_mfld1(path)
    comps = SPIN_SLICE_COMPS if meta["kind"] == "spin" else NLS_SLICE_COMPS
    if grid != cfg.grid() or data.shape[2] != len(comps):
        raise ConfigError(f"{path}: {data.shape[2]} components on {grid}; the run's slices "
                          f"have {len(comps)} ({', '.join(comps)}) on {cfg.grid()}")
    return grid, data


def cmd_frame(args) -> int:
    import numpy as np
    from .fields import write_mfld1
    from .frames import (coeffs_from_frame, frame_dt, frame_from_spin, mlxii_residual,
                         with_time_entries)

    run_dir, meta, cfg = _open_run(args, "spin")
    scheme, beta = cfg["scheme"], cfg["params.beta"]
    times = meta["times"]
    report = {"config_hash": cfg.sha, "residuals": []}
    window = []  # (frame, coefficients) of the last three slices
    for idx in range(len(times)):
        grid, data = _load_slice(run_dir, meta, cfg, idx)
        F = frame_from_spin(grid, data[..., 0:3], scheme)
        write_mfld1(os.path.join(run_dir, f"frame_{idx:06d}.mfld1"), grid,
                    np.concatenate([F.e1, F.e2, F.e3], axis=-1))
        window = window[-2:] + [(F, coeffs_from_frame(grid, F, scheme))]
        if len(window) < 3:
            continue
        (F0, before), (F1, mid), (F2, after) = window
        dt2 = times[idx] - times[idx - 2]
        co = with_time_entries(mid, F1, frame_dt(F0, F2, dt2))
        write_mfld1(os.path.join(run_dir, f"coeffs_{idx - 1:06d}.mfld1"), grid,
                    np.stack([co.k, co.sigma, co.tau, co.m1, co.m2, co.m3,
                              co.w1, co.w2, co.w3], axis=-1))
        res = mlxii_residual(grid, co, scheme, beta, coeffs_before=before,
                             coeffs_after=after, dt2=dt2, frame=F1)
        report["residuals"].append({"t": times[idx - 1], **res})
        del window[0], F0, before, co  # freed before the next slice is projected
    _write_json(os.path.join(run_dir, "frame_report.json"), report)
    print(f"wrote {len(times)} frame dumps and {max(0, len(times) - 2)} coefficient dumps to {run_dir}")
    return 0


def cmd_equiv_check(args) -> int:
    from .equivalence import l_equiv_check

    run_dir, meta, cfg = _open_run(args, "spin")
    try:
        sizes = tuple(int(s) for s in args.ladder.split(","))
    except ValueError as exc:
        raise ConfigError(f"--ladder expects comma-separated grid sizes, got {args.ladder!r}") from exc
    report = l_equiv_check(cfg.spin_params(), _make_initial(cfg, "spin"), sizes=sizes,
                           lx=cfg["grid.lx"], ly=cfg["grid.ly"], scheme=cfg["scheme"])
    payload = {"config_hash": cfg.sha, **report.as_dict()}
    out_path = os.path.join(run_dir, "equiv_report.json")
    _write_json(out_path, payload)
    print(f"order estimate: {report.order:.3f}")
    print(f"ladder: {[(round(h, 4), r) for h, r in report.ladder]}")
    print(f"report written to {out_path}")
    return 0


def _parse_lambda(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        lam = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise ConfigError(f"--lambda expects `re,im`, got {text!r}") from exc
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ConfigError(f"--lambda must be finite, got {text!r}")
    return lam


def _check_lambda(lam: complex, par) -> None:
    """Reject a lam whose c lam^2 + d lam or (2 c lam + d)^2 overflows."""
    import numpy as np

    z = np.complex128(lam)
    with np.errstate(all="ignore"):
        mu = 2.0 * par.c * z + par.d
        finite = np.isfinite(par.c * (z * z) + par.d * z) and np.isfinite(mu * mu)
    if not finite:
        raise ConfigError(f"--lambda {lam.real!r},{lam.imag!r} overflows c lam^2 + d lam "
                          f"or (2 c lam + d)^2 at c = {par.c!r}, d = {par.d!r}")


def cmd_lax_check(args) -> int:
    import numpy as np
    from .lax import build_lax_spin, trace_deviation, zero_curvature_q

    run_dir, meta, cfg = _open_run(args, "spin" if args.spin_side else "nls")
    par = cfg.spin_params() if args.spin_side else cfg.nls_params()
    lams = [_parse_lambda(text) for text in args.lam]
    for lam in lams:
        _check_lambda(lam, par)
    scheme = cfg["scheme"]
    times = meta["times"]
    if len(times) < 3:
        raise ConfigError("lax-check needs at least three saved slices")
    mid = len(times) // 2 if len(times) // 2 + 1 < len(times) else len(times) - 2
    payload = {"config_hash": cfg.sha, "t": times[mid], "results": []}

    if args.spin_side:
        grid, data = _load_slice(run_dir, meta, cfg, mid)
        S, u, v = data[..., 0:3], data[..., 3], data[..., 4]
        for lam in lams:
            entry = {"lam": [lam.real, lam.imag]}
            for grouping in ("factored", "split"):
                U, V = build_lax_spin(grid, S, u, v, par, lam, scheme, grouping=grouping)
                entry[f"trace_U_{grouping}"] = trace_deviation(U)
                entry[f"trace_V_{grouping}"] = trace_deviation(V)
            payload["results"].append(entry)
    else:
        triple = []
        for idx in (mid - 1, mid, mid + 1):
            grid, data = _load_slice(run_dir, meta, cfg, idx)
            q = data[..., 0] + 1j * data[..., 1]
            p = data[..., 2] + 1j * data[..., 3]
            triple.append((q, p, data[..., 4]))
        dt2 = times[mid + 1] - times[mid - 1]
        for lam in lams:
            with np.errstate(over="ignore", invalid="ignore"):
                rep = zero_curvature_q(grid, *triple, par, lam, dt2, scheme)
            if not math.isfinite(rep["residual"]):
                raise ConfigError(f"--lambda {lam.real!r},{lam.imag!r} overflows the q-side "
                                  f"flatness residual at c = {par.c!r}, d = {par.d!r}")
            payload["results"].append({**rep, "lam": [lam.real, lam.imag]})

    out_path = os.path.join(run_dir, "lax_report.json")
    _write_json(out_path, payload)
    if len(lams) > 1 and not args.spin_side:
        scan_path = os.path.join(run_dir, "lax_scan.csv")
        with open(scan_path, "w") as fh:
            fh.write("lam_re,lam_im,residual\n")
            for entry in payload["results"]:
                fh.write(f"{entry['lam'][0]!r},{entry['lam'][1]!r},{entry['residual']!r}\n")
        print(f"lambda scan written to {scan_path}")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_charges(args) -> int:
    run_dir, meta, cfg = _open_run(args, "spin")
    out_path = os.path.join(run_dir, "charges.csv")

    def samples():
        for idx, t in enumerate(meta["times"]):
            grid, data = _load_slice(run_dir, meta, cfg, idx)
            yield t, grid, data[..., 0:3]

    _write_charges(out_path, samples(), cfg["scheme"], cfg["params.beta"])
    print(f"charge series written to {out_path}")
    return 0


def cmd_lambda_check(args) -> int:
    import numpy as np
    from .lax import lambda_residual

    if args.n == 0:
        raise ConfigError("--n must be a nonzero integer")
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    for name in ("k", "a", "c"):
        if not math.isfinite(getattr(args, name)):
            raise ConfigError(f"--{name} must be finite, got {getattr(args, name)!r}")
    ys = np.linspace(0.1, 2.0, args.samples)
    ts = np.linspace(0.0, 0.3, args.samples)
    print("y,t,residual_analytic,residual_fd")
    worst_analytic = worst_fd = 0.0
    for y in ys:
        for t in ts:
            rep = lambda_residual(float(y), float(t), args.n, args.k, args.a, args.c)
            worst_analytic = max(worst_analytic, rep["analytic"])
            worst_fd = max(worst_fd, rep["fd"])
            print(f"{float(y)!r},{float(t)!r},{rep['analytic']!r},{rep['fd']!r}")
    print(f"# max analytic residual: {worst_analytic:.3e}")
    print(f"# max finite-difference residual: {worst_fd:.3e}")
    return 0


def cmd_selftest(args) -> int:
    import numpy as np
    from .fields import Grid2, ddx, inv_dx, meanx
    from .lax import pauli_identities, zero_curvature_q
    from .nls import NlsParams, init_plane_wave, nls_rhs, plane_wave_omega, solve_v_nls
    from .spin import SpinParams, init_modulated_helix, spin_rhs
    from .fields import dot3

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

    from .fields import ddy
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="m3lab", description=__doc__,
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


def _attach_lambda(argv: list) -> list:
    """`--lambda RE,IM` as `--lambda=RE,IM`, so a negative RE is not read as an option."""
    out = []
    for tok in argv:
        if out and out[-1] == "--lambda" and "," in tok:
            out[-1] = f"--lambda={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(_attach_lambda(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except M3LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
