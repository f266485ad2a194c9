import fnmatch
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import m3lab
from m3lab.cli import (MAX_SAMPLES, MAX_SLICES, RUN_FILES, RunConfig, _run_length,
                       _staged_outputs, build_parser, main,
                       parse_config_text)
from m3lab.errors import ConfigError
from m3lab.fields import (DENSE_MAX_N, MAX_CELLS, MAX_STEPS, Grid2, default_dt, read_mfld1,
                          spectral_tail, write_mfld1)
from m3lab.nls import NlsParams, init_plane_wave, march_nls
from m3lab.nls import make_state as make_nls_state
from m3lab.spin import SpinParams, init_modulated_helix, march_spin, stable_dt
from m3lab.spin import make_state as make_spin_state

from conftest import smooth_complex

SPIN_CFG = """
# spin run at desk scale
grid.nx = 32
grid.ny = 32
model = M3
params.c = 0.3
params.d = 1.0
params.l = 0.0
spin.init = modulated-helix
spin.init.eps = 0.05
spin.init.kappa = 1
t_end = 0.05
save_every = 2
output_dir = spinrun
"""

NLS_CFG = """
grid.nx = 32
grid.ny = 32
model = Zakharov
params.c = 0.0
params.d = 1.0
nls.init = plane-wave
nls.init.amplitude = 0.5
nls.init.k1 = 1
nls.init.k2 = 1
t_end = 0.05
save_every = 2
output_dir = nlsrun
"""


def _with(cfg_text, **changes):
    """cfg_text with `key = value` lines replaced or appended; a None value drops the key."""
    lines = [ln for ln in cfg_text.splitlines()
             if ln.partition("=")[0].strip() not in changes]
    return "\n".join(lines + [f"{k} = {v}" for k, v in changes.items() if v is not None]) + "\n"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_roundtrip():
    values = parse_config_text(SPIN_CFG)
    assert values["grid.nx"] == 32
    assert values["params.c"] == 0.3
    assert values["spin.init.eps"] == 0.05
    assert values["spin.init.kappa"] == 1      # integers survive


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("grid.nx = 32\nspn.init = uniform\n")


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("dt = 0.1\ndt = 0.2\n")
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("grid.nx = many\n")


@pytest.mark.parametrize("line", ["params.c = nan", "params.d = inf", "spin.init.eps = -inf",
                                  "nls.init.amplitude = nan", "grid.lx = inf"])
def test_parse_config_rejects_non_finite(line):
    key = line.partition("=")[0].strip()
    with pytest.raises(ConfigError, match=key):
        parse_config_text(line + "\n")


def test_config_hash_stable():
    a = RunConfig.from_text(SPIN_CFG)
    b = RunConfig.from_text(SPIN_CFG)
    c = RunConfig.from_text(SPIN_CFG.replace("0.05", "0.06"))
    assert a.sha == b.sha
    assert a.sha != c.sha


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


@pytest.mark.parametrize("name, sha", [
    ("spin-reference.cfg", "34b82279ff8fec42fca7ae2e0664ddc5930dba9ef1a3b65ab1bf016995a56d16"),
    ("lump.cfg", "98654baee9533014985ce02bf484a395509259fe164d5bd2daa85b9a6d14e77e"),
    ("nls-reference.cfg", "1bbaef6ce48dfc7349c876b8f85073949cb15f19901591e645586a985cbd16b8"),
])
def test_config_hash_pinned(name, sha):
    """The hash covers every key with its default filled in: a change to
    the key set, a type or a default shows here."""
    assert RunConfig.load(os.path.join(CONFIGS, name)).sha == sha


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@pytest.fixture
def spin_run(tmp_path):
    cfg = tmp_path / "spin.cfg"
    cfg.write_text(SPIN_CFG)
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 0
    return tmp_path / "spinrun"


@pytest.fixture
def nls_run(tmp_path):
    cfg = tmp_path / "nls.cfg"
    cfg.write_text(NLS_CFG)
    assert main(["--output-dir", str(tmp_path), "simulate-nls", str(cfg)]) == 0
    return tmp_path / "nlsrun"


def test_simulate_spin_outputs(spin_run):
    meta = json.loads((spin_run / "meta.json").read_text())
    assert meta["kind"] == "spin"
    assert len(meta["slices"]) == len(meta["times"]) >= 3
    for name in meta["slices"]:
        assert (spin_run / name).exists()
    header = (spin_run / "invariants.csv").read_text().splitlines()[0]
    assert header == "t,K1,K2,K3,Kc1,Kc2,Kc3,Q1,Q2,Q3"


def _rerun_files(tmp_path, cfg_text, command, run_name):
    """MFLD1 bytes of two independent runs of the same config."""
    out = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        cfg = d / "run.cfg"
        cfg.write_text(cfg_text)
        assert main(["--output-dir", str(d), command, str(cfg)]) == 0
        out.append({f.name: f.read_bytes() for f in sorted((d / run_name).glob("*.mfld1"))})
    return out


def test_simulate_spin_deterministic(tmp_path):
    a, b = _rerun_files(tmp_path, SPIN_CFG, "simulate-spin", "spinrun")
    assert "spin_000001.mfld1" in a
    assert a == b


LUMP_CFG = """
grid.nx = 32
grid.ny = 32
model = M3
params.c = 0.25
params.d = 1.0
params.l = 0.0
spin.init = stereographic-lump
spin.init.radius_frac = 0.45
dt = 0.002
t_end = 0.012
save_every = 2
output_dir = spinrun
"""


def test_simulate_spin_meta_diagnostics(tmp_path):
    """Per-slice renorm, solvability row means and charge density gaps; MFLD1,
    meta.json and invariants.csv reruns stay identical."""
    a, b = _rerun_files(tmp_path, LUMP_CFG, "simulate-spin", "spinrun")
    assert a == b
    meta = json.loads((tmp_path / "a" / "spinrun" / "meta.json").read_text())
    n = len(meta["slices"])
    assert n == 4
    for key in ("renorm", "u_row_mean", "v_row_mean"):
        assert len(meta[key]) == n
    assert meta["renorm"][0] == 0.0 < min(meta["renorm"][1:])
    assert meta["max_renorm"] == max(meta["renorm"])
    assert min(meta["u_row_mean"]) > 1e-3
    assert min(meta["v_row_mean"]) > 1e-3
    assert len(meta["density_dev"]) == n
    assert all(len(dev) == 3 and min(dev) >= 0.0 for dev in meta["density_dev"])
    for name in ("meta.json", "invariants.csv"):
        assert ((tmp_path / "a" / "spinrun" / name).read_bytes()
                == (tmp_path / "b" / "spinrun" / name).read_bytes())


@pytest.mark.parametrize("command, cfg_text, run", [
    ("simulate-spin", SPIN_CFG, "spinrun"), ("simulate-nls", NLS_CFG, "nlsrun")],
    ids=["spin", "nls"])
def test_simulate_records_the_tail_of_every_slice(tmp_path, command, cfg_text, run):
    """meta.json lists the spectral tail of each kept slice's field (S, or
    q), as it lists renorm: a resolved run reads rounding."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 0
    meta = json.loads((tmp_path / run / "meta.json").read_text())
    assert len(meta["tail"]) == len(meta["slices"])
    for name, tail in zip(meta["slices"], meta["tail"]):
        data = read_mfld1(tmp_path / run / name)[1]
        field = data[:3] if command == "simulate-spin" else data[0] + 1j * data[1]
        assert tail == spectral_tail(field) < 1e-10


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_every_config_runs_at_the_step_it_is_given_or_the_rule_gives(tmp_path, name):
    """Each configs/*.cfg runs to exit 0 as it stands, and again at dt = 0:
    a spin run then steps at stable_dt of its initial state, an NLS run at
    the grid's default step, and neither aborts."""
    cfg = RunConfig.load(os.path.join(CONFIGS, name))
    with open(os.path.join(CONFIGS, name)) as fh:
        text = fh.read()
    kind = "nls" if "nls.init" in text else "spin"
    for dt in sorted({cfg["dt"], 0.0}, reverse=True):
        path = tmp_path / name
        path.write_text(_with(text, dt=repr(dt)))
        assert main(["--output-dir", str(tmp_path), f"simulate-{kind}", str(path)]) == 0
        meta = json.loads((tmp_path / cfg["output_dir"] / "meta.json").read_text())
        grid = cfg.grid()
        if dt:
            assert meta["dt"] == dt
        elif kind == "spin":
            par = cfg.spin_params()
            S0 = read_mfld1(tmp_path / cfg["output_dir"] / meta["slices"][0])[1][:3]
            assert meta["dt"] == stable_dt(grid, par, make_spin_state(grid, S0, par))
        else:
            assert meta["dt"] == default_dt(grid)


def test_unresolved_field_aborts_naming_its_tail(tmp_path, capsys):
    """A 16^2 lump of radius_frac 0.5, whose tail is 3.875e-2, aborts its
    first step at the rule's step too: the one abort line names the tail."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(SPIN_CFG, **{"grid.nx": 16, "grid.ny": 16, "params.c": 0.25,
                                      "spin.init": "stereographic-lump", "spin.init.eps": None,
                                      "spin.init.kappa": None, "spin.init.radius_frac": 0.5}))
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 3
    err = _one_error_line(capsys, "numerical abort: step from t = 0: ")
    assert "(spectral tail of S 3.875e-02)" in err


def test_simulate_nls_deterministic(tmp_path):
    a, b = _rerun_files(tmp_path, NLS_CFG, "simulate-nls", "nlsrun")
    assert len(a) >= 3
    assert a == b


def test_simulate_nls_meta_diagnostics(tmp_path):
    """Per-slice v row means in meta.json, and no conj_dev (a constant 0); two reruns
    write the same meta.json."""
    cfg_text = _with(NLS_CFG, model="M3q", **{"params.c": 0.3})
    metas = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        (d / "run.cfg").write_text(cfg_text)
        assert main(["--output-dir", str(d), "simulate-nls", str(d / "run.cfg")]) == 0
        metas.append((d / "nlsrun" / "meta.json").read_bytes())
    assert metas[0] == metas[1]
    meta = json.loads(metas[0])
    n = len(meta["slices"])
    assert n == 3
    assert "conj_dev" not in meta
    assert len(meta["v_row_mean"]) == n
    assert all(m >= 0.0 for m in meta["v_row_mean"])
    norms = (tmp_path / "a" / "nlsrun" / "norms.csv").read_text().splitlines()
    assert norms[0] == "t,max_abs_q" and len(norms) == n + 1


def test_frame_and_charges(spin_run, tmp_path):
    assert main(["--output-dir", str(tmp_path), "frame", "spinrun"]) == 0
    assert (spin_run / "frame_000000.mfld1").exists()
    assert (spin_run / "coeffs_000001.mfld1").exists()
    report = json.loads((spin_run / "frame_report.json").read_text())
    assert report["residuals"] and "xy" in report["residuals"][0]
    assert report["residuals"][0]["xy"] < 1e-6
    assert main(["--output-dir", str(tmp_path), "charges", "spinrun"]) == 0
    rows = (spin_run / "charges.csv").read_text().splitlines()
    assert len(rows) >= 4
    q1 = float(rows[1].split(",")[7])
    assert abs(q1) < 1e-6        # helix is topologically trivial


def test_charges_reproduce_invariants_and_frame_reruns_agree(spin_run, tmp_path):
    """`charges` rewrites the table `simulate-spin` wrote, byte for byte, and two
    `frame` runs write the same report."""
    assert main(["--output-dir", str(tmp_path), "charges", "spinrun"]) == 0
    assert (spin_run / "charges.csv").read_bytes() == (spin_run / "invariants.csv").read_bytes()
    reports = []
    for _ in range(2):
        assert main(["--output-dir", str(tmp_path), "frame", "spinrun"]) == 0
        reports.append((spin_run / "frame_report.json").read_bytes())
    assert json.loads(reports[0])["residuals"]
    assert reports[0] == reports[1]


def test_initial_condition_from_mfld1(spin_run, tmp_path):
    """A saved slice restarts a run; missing files and grid mismatches fail."""
    meta = json.loads((spin_run / "meta.json").read_text())
    slice_path = spin_run / meta["slices"][0]
    cfg = tmp_path / "restart.cfg"
    cfg.write_text(
        "grid.nx = 32\ngrid.ny = 32\nmodel = M3\nparams.c = 0.3\n"
        f"spin.init = {slice_path}\nt_end = 0.02\nsave_every = 2\n"
        "output_dir = restartrun\n")
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 0
    meta2 = json.loads((tmp_path / "restartrun" / "meta.json").read_text())
    assert len(meta2["slices"]) >= 2
    bad = tmp_path / "bad_restart.cfg"
    bad.write_text(
        "grid.nx = 16\ngrid.ny = 16\nmodel = M3\nparams.c = 0.3\n"
        f"spin.init = {slice_path}\nt_end = 0.02\noutput_dir = badrun\n")
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(bad)]) == 2
    gone = tmp_path / "gone.cfg"
    gone.write_text(
        "grid.nx = 32\ngrid.ny = 32\nmodel = M3\nparams.c = 0.3\n"
        "spin.init = nowhere.mfld1\nt_end = 0.02\noutput_dir = gonerun\n")
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(gone)]) == 2


@pytest.mark.parametrize("side", ["spin", "nls"])
def test_initial_condition_from_another_domain_exits_2(tmp_path, capsys, side):
    """An init MFLD1 sampled on [0, 2pi)^2 is not read onto a domain of length 20."""
    from m3lab.spin import init_modulated_helix
    g = Grid2(16, 16)
    path = tmp_path / "helix.mfld1"
    write_mfld1(path, g, init_modulated_helix(g))
    base = SPIN_CFG if side == "spin" else NLS_CFG
    drop = {k.strip(): None for k, _, _ in (ln.partition("=") for ln in base.splitlines())
            if k.strip().startswith(f"{side}.init.")}
    cfg = tmp_path / "stretched.cfg"
    cfg.write_text(_with(base, **drop, **{"grid.nx": 16, "grid.ny": 16, "grid.lx": 20.0,
                                          f"{side}.init": path}))
    command = f"simulate-{side}"
    assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "lx=20.0" in err
    assert not any(tmp_path.glob("*run"))
    cfg.write_text(_with(base, **drop, **{"grid.nx": 16, "grid.ny": 16, f"{side}.init": path}))
    assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 0


@pytest.mark.parametrize("side", ["spin", "nls"])
def test_initial_file_layout_is_checked_before_its_payload(tmp_path, capsys, side):
    """An init MFLD1 on another grid, or with too few components, is refused
    for its layout before its payload is read: the NaN in it is never seen."""
    from m3lab.spin import init_modulated_helix
    base = _with(SPIN_CFG if side == "spin" else NLS_CFG, **{"grid.nx": 16, "grid.ny": 16})
    drop = {k.strip(): None for k, _, _ in (ln.partition("=") for ln in base.splitlines())
            if k.strip().startswith(f"{side}.init.")}
    for n, comps, message in ((32, 3, "sampled on Grid2(nx=32"), (16, 1, "1 components, need")):
        g = Grid2(n, n)
        data = init_modulated_helix(g)[:comps]
        data[0, 3, 5] = np.nan
        path = tmp_path / f"init{n}.mfld1"
        write_mfld1(path, g, data)
        cfg = tmp_path / "init.cfg"
        cfg.write_text(_with(base, **drop, **{f"{side}.init": path}))
        capsys.readouterr()
        assert main(["--output-dir", str(tmp_path), f"simulate-{side}", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err


def _assert_aborted(run, verify, capsys):
    """A simulate run that aborted: the slices written before the abort may
    remain, but no meta.json and no invariants.csv or norms.csv, those of
    the complete run before it included, so `verify` on it exits 2."""
    assert all(name.endswith(".mfld1") for name in os.listdir(run))
    assert main(["--output-dir", str(run.parent)] + verify) == 2
    assert "meta.json" in capsys.readouterr().err


def test_non_finite_step_exits_3(tmp_path, capsys, monkeypatch):
    import m3lab.spin as spin
    cfg = tmp_path / "spin.cfg"
    cfg.write_text(SPIN_CFG)
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 0
    monkeypatch.setattr(spin, "_rhs", lambda grid, P, *args: np.full_like(P, np.nan))
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 3
    assert "renormalization correction nan" in capsys.readouterr().err
    _assert_aborted(tmp_path / "spinrun", ["charges", "spinrun"], capsys)


def test_non_finite_nls_step_exits_3(tmp_path, capsys, monkeypatch):
    import m3lab.nls as nls
    cfg = tmp_path / "nls.cfg"
    cfg.write_text(NLS_CFG)
    assert main(["--output-dir", str(tmp_path), "simulate-nls", str(cfg)]) == 0
    monkeypatch.setattr(nls, "_q_rate", lambda grid, q, *args: np.full_like(q, np.nan))
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), "simulate-nls", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "step went non-finite" in err and "Traceback" not in err
    _assert_aborted(tmp_path / "nlsrun", ["lax-check", "nlsrun", "--lambda", "0.3,0.1"], capsys)


@pytest.mark.parametrize("command", ["simulate-spin", "simulate-nls"])
def test_simulate_memory_does_not_grow_with_saved_slices(tmp_path, command):
    """Each state is written as it is made and let go: a 30-step march at
    n = 64 that saves all 31 states peaks, under tracemalloc, within one
    slice's bytes of one that saves 2."""
    n, steps = 64, 30
    dt = default_dt(Grid2(n, n))
    text = SPIN_CFG if command == "simulate-spin" else NLS_CFG
    peaks = {}
    for save_every in (steps, 1, steps):  # the first run fills the operator caches
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_with(text, dt=repr(dt), t_end=repr(steps * dt), save_every=save_every,
                             output_dir=f"every{save_every}", **{"grid.nx": n, "grid.ny": n}))
        tracemalloc.start()
        try:
            assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 0
            peaks[save_every] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for save_every, count in ((1, steps + 1), (steps, 2)):
        meta = json.loads((tmp_path / f"every{save_every}" / "meta.json").read_text())
        assert len(meta["slices"]) == count
    assert abs(peaks[1] - peaks[steps]) < 5 * 8 * n * n


def test_meta_records_env(tmp_path, monkeypatch):
    monkeypatch.delenv("M3LAB_THREADS", raising=False)
    want = {"m3lab": m3lab.__version__, "numpy": np.__version__,
            "python": platform.python_version(), "M3LAB_THREADS": None}
    for command, text, run in (("simulate-spin", SPIN_CFG, "spinrun"),
                               ("simulate-nls", NLS_CFG, "nlsrun")):
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text(text)
        assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 0
        assert json.loads((tmp_path / run / "meta.json").read_text())["env"] == want


_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("command, run", [("simulate-spin", "spinrun"),
                                          ("simulate-nls", "nlsrun")])
def test_simulate_bytes_independent_of_thread_cap(tmp_path, command, run):
    """BLAS products carry the derivatives: one and two threads write the same
    MFLD1 bytes.  At n = 128 each product is a 128 x 128 x 128 gemm, large
    enough for OpenBLAS to split it over two threads (at n = 32 it would run
    on one thread either way)."""
    src = os.path.dirname(os.path.dirname(m3lab.__file__))
    cfg = tmp_path / "run.cfg"
    base = SPIN_CFG if run == "spinrun" else _with(NLS_CFG, model="M3q", **{"params.c": 0.3})
    cfg.write_text(_with(base, save_every=1, dt=5e-4, t_end=1e-3,
                         **{"grid.nx": 128, "grid.ny": 128}))
    runs = {}
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in _POOL_VARS}
        env["M3LAB_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "m3lab.cli", "--output-dir", str(out),
                        command, str(cfg)], env=env, check=True, capture_output=True)
        meta = json.loads((out / run / "meta.json").read_text())
        assert meta["env"]["M3LAB_THREADS"] == threads
        runs[threads] = {f.name: f.read_bytes() for f in sorted((out / run).glob("*.mfld1"))}
    assert len(runs["1"]) == 3
    assert runs["1"] == runs["2"]


def test_model_key_aliases():
    cfg = RunConfig.from_text("spin.model = M2\nparams.c = 0.4\nparams.d = 0.0\n"
                              "params.l = 0.3\nnls.model = Strachan\n")
    assert cfg.spin_params().model == "M2"
    assert cfg.nls_params().model == "Strachan"


def test_lax_check_q_side(nls_run, tmp_path):
    assert main(["--output-dir", str(tmp_path), "lax-check", "nlsrun",
                 "--lambda", "0.3,0.1"]) == 0
    rep = json.loads((nls_run / "lax_report.json").read_text())
    entry = rep["results"][0]
    assert entry["residual"] < 1e-3
    assert entry["trace_U"] < 1e-12
    assert entry["trace_V"] < 1e-12


def test_lax_check_scan(nls_run, tmp_path):
    assert main(["--output-dir", str(tmp_path), "lax-check", "nlsrun",
                 "--lambda", "0.3,0.1", "--lambda", "0.5,0.0",
                 "--lambda=-0.2,0.4"]) == 0
    rows = (nls_run / "lax_scan.csv").read_text().splitlines()
    assert rows[0] == "lam_re,lam_im,residual"
    assert len(rows) == 4


def test_lax_check_of_one_lambda_removes_an_earlier_scan(nls_run, tmp_path):
    """A one-lambda report does not sit beside the scan of an earlier call."""
    assert main(["--output-dir", str(tmp_path), "lax-check", "nlsrun",
                 "--lambda", "0.3,0.1", "--lambda=-0.2,0.4"]) == 0
    assert (nls_run / "lax_scan.csv").exists()
    assert main(["--output-dir", str(tmp_path), "lax-check", "nlsrun",
                 "--lambda", "0.5,0.0"]) == 0
    assert len(json.loads((nls_run / "lax_report.json").read_text())["results"]) == 1
    assert not (nls_run / "lax_scan.csv").exists()


def test_lax_check_negative_lambda_separated(nls_run, tmp_path):
    assert main(["--output-dir", str(tmp_path), "lax-check", "nlsrun",
                 "--lambda", "-0.2,0.4", "--lambda=-0.2,0.4"]) == 0
    rep = json.loads((nls_run / "lax_report.json").read_text())
    separated, attached = rep["results"]
    assert separated == attached
    assert separated["lam"] == [-0.2, 0.4]


def test_lax_check_on_repeated_times_exits_2(nls_run, tmp_path, capsys):
    """A run whose `times` repeat is refused, naming them: the central
    difference of q over the middle slices would divide by zero, and the
    flatness residual would overflow whatever --lambda is given."""
    meta = json.loads((nls_run / "meta.json").read_text())
    mid = len(meta["times"]) // 2
    meta["times"][mid:mid + 2] = [meta["times"][mid - 1]] * 2
    (nls_run / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), "lax-check", "nlsrun",
                 "--lambda", "0.3,0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "`times`" in err and "--lambda" not in err
    assert not (nls_run / "lax_report.json").exists()


def test_lax_check_spin_side(spin_run, tmp_path):
    assert main(["--output-dir", str(tmp_path), "lax-check", "spinrun",
                 "--lambda", "0.4,0.2", "--spin-side"]) == 0
    rep = json.loads((spin_run / "lax_report.json").read_text())
    entry = rep["results"][0]
    assert sorted(entry) == ["lam", "trace_V_split"]  # the traces that are 0.0 by construction go
    assert entry["lam"] == [0.4, 0.2] and entry["trace_V_split"] > 0.0


@pytest.mark.parametrize("side, code", [("spin", 0), ("nls", 2)])
def test_lax_check_asks_only_for_the_slices_its_side_reads(tmp_path, capsys, side, code):
    """A 16^2 run of one step, saved at every step, has two slices: the
    spin side reads the middle one alone, and takes it; the q side's
    central difference in t needs three, and refuses it."""
    dt = default_dt(Grid2(16, 16))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(SPIN_CFG if side == "spin" else NLS_CFG, dt=repr(dt), t_end=repr(dt),
                         save_every=1, **{"grid.nx": 16, "grid.ny": 16}))
    assert main(["--output-dir", str(tmp_path), f"simulate-{side}", str(cfg)]) == 0
    meta = json.loads((tmp_path / f"{side}run" / "meta.json").read_text())
    assert len(meta["slices"]) == 2
    capsys.readouterr()
    extra = ["--spin-side"] if side == "spin" else []
    assert main(["--output-dir", str(tmp_path), "lax-check", f"{side}run",
                 "--lambda", "0.3,0.1", *extra]) == code
    if code == 0:
        assert json.loads((tmp_path / "spinrun" / "lax_report.json").read_text())["t"] == dt
    else:
        assert "needs 3 or more saved slices" in _one_error_line(capsys)


LAX_CFGS = {"spin": SPIN_CFG, "nls": NLS_CFG,
            "m3q": _with(NLS_CFG, model="M3q", **{"params.c": 0.3})}


@pytest.mark.parametrize("cfg_name, lam", [
    ("nls", "1e200,0"), ("nls", "0,1e200"), ("nls", "inf,0"), ("nls", "nan,0"),
    ("m3q", "1e150,0"), ("m3q", "0,1e150"),
    ("spin", "1e308,0"), ("spin", "nan,0"), ("spin", "0,-inf"),
    ("spin", "-1.6666666666666667,0"),
])
def test_lax_check_bad_lambda_exits_2(tmp_path, capsys, cfg_name, lam):
    """A non-finite lambda, or one whose c lam^2 + d lam or q-side flatness
    residual overflows, is a validation error naming the flag; so is, on
    the spin side, one at which 2 c lam + d vanishes (c = 0.3, d = 1)."""
    side = "spin" if cfg_name == "spin" else "nls"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(LAX_CFGS[cfg_name])
    assert main(["--output-dir", str(tmp_path), f"simulate-{side}", str(cfg)]) == 0
    extra = ["--spin-side"] if side == "spin" else []
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), "lax-check", f"{side}run",
                 "--lambda", lam, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lambda") and "Traceback" not in err
    assert not (tmp_path / f"{side}run" / "lax_report.json").exists()


def test_equiv_check_small_ladder(spin_run, tmp_path):
    assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun",
                 "--ladder", "16,24,32"]) == 0
    rep = json.loads((spin_run / "equiv_report.json").read_text())
    assert rep["order"] > 1.5
    assert len(rep["ladder"]) == 3
    # each rung's initial helix: no masked point, and degree 0
    assert [(r["n"], r["masked_fraction"]) for r in rep["initial"]] == [(16, 0.0), (24, 0.0),
                                                                         (32, 0.0)]
    assert all(abs(r["Q"]) < 1e-12 for r in rep["initial"])
    # and its spectral tail, which falls to rounding level by n = 32
    tails = [r["tail"] for r in rep["initial"]]
    assert tails == [spectral_tail(init_modulated_helix(Grid2(n, n), kappa=1, eps=0.05))
                     for n in (16, 24, 32)]
    assert tails[0] > tails[1] > tails[2] and tails[2] < 1e-12


def test_equiv_check_one_size_ladder_writes_strict_json(spin_run, tmp_path):
    """No order can be fitted to one grid size: the report says null, not NaN."""
    assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun", "--ladder", "16"]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    rep = json.loads((spin_run / "equiv_report.json").read_text(), parse_constant=reject)
    assert rep["order"] is None
    assert len(rep["ladder"]) == 1


def test_equiv_check_repeated_size_exits_2(spin_run, tmp_path, capsys):
    """A repeated size would be run again and weigh twice in the order fit."""
    assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun", "--ladder", "16,16"]) == 2
    assert capsys.readouterr().err.startswith("error: --ladder")
    assert not (spin_run / "equiv_report.json").exists()


def test_equiv_check_oversized_rung_exits_2(spin_run, tmp_path, capsys, monkeypatch):
    """A rung past MAX_CELLS (4096^2 = 2^24 points) is refused as its grid
    is made, before any rung's state is built or marched, as a simulate
    run's grid is."""
    import m3lab.equivalence as equivalence

    def reached(*args, **kwargs):
        raise AssertionError("a rung was built")

    for name in ("make_state", "march_spin"):
        monkeypatch.setattr(equivalence, name, reached)
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun",
                 "--ladder", "32,4096"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: grid of 4096 x 4096 points exceeds {MAX_CELLS}\n"
    assert not (spin_run / "equiv_report.json").exists()


def test_equiv_check_descending_ladder(spin_run, tmp_path):
    assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun", "--ladder", "24,16"]) == 0
    rep = json.loads((spin_run / "equiv_report.json").read_text())
    assert [round(h * 24 / (2 * np.pi), 12) for h, _ in rep["ladder"]] == [1.0, 1.5]
    assert rep["order"] is not None


def test_lambda_check(capsys):
    assert main(["lambda-check", "--n", "1", "--k", "2", "--a", "1",
                 "--c", "0.5", "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "residual_analytic" in out
    rows = [line for line in out.splitlines() if line and not line.startswith(("y,", "#"))]
    assert all(float(r.split(",")[2]) < 1e-12 for r in rows)


@pytest.mark.parametrize("option, value", [("--k", "-1e3"), ("--a", "-1e308"), ("--c", "-inf"),
                                           ("--k", "-2"), ("--c", "-0.5")])
def test_lambda_check_takes_a_negative_value_as_a_separate_argument(capsys, option, value):
    """`--k -1e3`, `--a -1e308` and `--c -inf` are read as `--k=-1e3` is,
    with the same exit code and output, where the first three were refused
    as options."""
    args = {"--n": "1", "--k": "2", "--a": "1", "--c": "0.5", "--samples": "2"}
    outputs = []
    for attached in (False, True):
        argv = [t for k, v in {**args, option: value}.items()
                for t in ([f"{k}={v}"] if attached and k == option else [k, v])]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outputs.append((main(["lambda-check", *argv]), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    code, (out, err) = outputs[0]
    assert "expected one argument" not in err
    if value == "-inf":
        assert code == 2 and err == "error: --c must be finite, got -inf\n"


def test_lambda_check_samples_beyond_its_bound_exits_2(capsys, monkeypatch):
    """--samples asks for samples^2 rows: one past MAX_SAMPLES is refused
    (exit 2, one line) before any row is computed or printed."""
    import m3lab.lax as lax

    def reached(*args, **kwargs):
        raise AssertionError("lambda_residual reached")

    monkeypatch.setattr(lax, "lambda_residual", reached)
    capsys.readouterr()
    assert main(["lambda-check", "--n", "1", "--k", "2", "--a", "1",
                 "--samples", str(MAX_SAMPLES + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: --samples must be from 1 to {MAX_SAMPLES}")


@pytest.mark.parametrize("option", ["--k", "--c"])
def test_lambda_check_overflowing_residual_exits_2(capsys, option):
    """A finite --k or --c of 1e308 overflows the flow's residual: refused
    (exit 2, one line) with no numpy warning, where it printed inf rows."""
    args = {"--n": "1", "--k": "2", "--a": "1", "--c": "0", "--samples": "2", option: "1e308"}
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lambda-check", *(t for kv in args.items() for t in kv)]) == 2
    assert "the residual overflows at y = " in _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    [], ["frame"], ["lambda-check", "--n", "x", "--k", "2", "--a", "1"],
    ["equiv-check", "run", "--ladder"], ["no-such-command"],
    ["lax-check", "run", "--lambda", "0.3,0.1", "--both-sides"]])
def test_argument_error_is_one_line_exit_2(capsys, argv):
    """An argument argparse refuses is one line and exit 2 through main, as
    every other refusal, where argparse printed its usage too and exited."""
    capsys.readouterr()
    assert main(argv) == 2
    assert _one_error_line(capsys, "error: m3lab")


@pytest.mark.parametrize("where", ["--output-dir", "output_dir", "config"])
def test_nul_in_a_path_exits_2_before_the_run_starts(tmp_path, capsys, monkeypatch, where):
    """A NUL character in a simulate command's config path or run directory
    is refused (exit 2, one line) before an initial state is made; it was a
    ValueError traceback."""
    import m3lab.spin as spin

    def reached(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(spin, "make_state", reached)
    cfg = _config(tmp_path, _with(SPIN_CFG, output_dir="spin\0run" if where == "output_dir"
                                  else "spinrun"))
    base = str(tmp_path / "a\0b") if where == "--output-dir" else str(tmp_path)
    capsys.readouterr()
    assert main(["--output-dir", base, "simulate-spin",
                 cfg + "\0" if where == "config" else cfg]) == 2
    _one_error_line(capsys)
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_selftest_fails_on_a_time_reversed_plane_wave(monkeypatch, capsys):
    """The flatness check can fail: a wave run backwards in time is not a
    solution, and its residual is O(1)."""
    import m3lab.nls as nls
    real = nls.plane_wave_omega
    monkeypatch.setattr(nls, "plane_wave_omega", lambda *a, **k: -real(*a, **k))
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  q-side Lax pair flat on the plane wave" in out


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery.key = 1\n")
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 2
    missing = tmp_path / "nope.cfg"
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(missing)]) == 2


def test_numerical_abort_exits_3(tmp_path):
    # a uniform field has no frame: the invariants stage aborts numerically
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(
        "grid.nx = 32\ngrid.ny = 32\nmodel = M3\nparams.c = 0.25\n"
        "spin.init = uniform\nt_end = 0.02\noutput_dir = flatrun\n")
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 3


def _one_error_line(capsys, prefix="error: ") -> str:
    """The stderr of a refused command: exactly one line, starting with prefix."""
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command, cfg_text", [
    ("simulate-spin", _with(SPIN_CFG, save_every=0)),
    ("simulate-nls", _with(NLS_CFG, save_every=0)),
    ("simulate-spin", _with(SPIN_CFG, t_end=0)),
    ("simulate-nls", _with(NLS_CFG, t_end=0)),
    ("simulate-spin", _with(SPIN_CFG, t_end=-0.1)),
    ("simulate-nls", _with(NLS_CFG, t_end=-0.1)),
    ("simulate-spin", _with(SPIN_CFG, dt=-0.001)),
    ("simulate-spin", _with(SPIN_CFG, **{"spin.init.radius": 0.3})),
    ("simulate-nls", _with(NLS_CFG, **{"nls.init.k3": 1})),
    ("simulate-spin", _with(SPIN_CFG, scheme="foo")),
    ("simulate-nls", _with(NLS_CFG, scheme="foo")),
    ("simulate-spin", _with(SPIN_CFG, **{"params.c": "nan"})),
    ("simulate-nls", _with(NLS_CFG, **{"params.d": "inf"})),
    ("simulate-spin", _with(SPIN_CFG, **{"spin.init.eps": "inf"})),
    ("simulate-spin", _with(SPIN_CFG, dt=5e-324)),
    ("simulate-nls", _with(NLS_CFG, dt=5e-324)),
    ("simulate-spin", _with(SPIN_CFG, **{"params.l": 1e300})),
    ("simulate-spin", _with(SPIN_CFG, **{"params.d": 1e300})),
    ("simulate-nls", _with(NLS_CFG, model="M3q", **{"params.d": 1e300})),
    ("simulate-nls", _with(NLS_CFG, model="M3q", **{"params.c": 1e308})),
    ("simulate-spin", _with(SPIN_CFG, t_end=0.001)),
    ("simulate-nls", _with(NLS_CFG, t_end=0.001)),
    ("simulate-spin", _with(SPIN_CFG, **{"spin.init.kappa": 0.5})),
    ("simulate-nls", _with(NLS_CFG, **{"nls.init.k1": 0.5})),
    ("simulate-nls", _with(NLS_CFG, **{"nls.init.k2": -2.5})),
    ("simulate-spin", _with(LUMP_CFG, **{"spin.init.radius_frac": 0})),
    ("simulate-spin", _with(LUMP_CFG, **{"spin.init.radius_frac": 0.5000001})),
], ids=["spin-save_every-0", "nls-save_every-0", "spin-t_end-0", "nls-t_end-0",
        "spin-t_end-negative", "nls-t_end-negative", "spin-dt-negative",
        "spin-init-unknown-key", "nls-init-unknown-key",
        "spin-scheme-foo", "nls-scheme-foo",
        "spin-params-c-nan", "nls-params-d-inf", "spin-init-inf",
        "spin-dt-tiny", "nls-dt-tiny",
        "spin-params-l-overflows", "spin-params-d-overflows", "nls-params-d-overflows",
        "nls-params-c-overflows", "spin-t_end-no-step", "nls-t_end-no-step",
        "spin-init-kappa-fraction", "nls-init-k1-fraction", "nls-init-k2-fraction",
        "lump-radius_frac-0", "lump-radius_frac-above-half"])
def test_bad_run_config_exits_2(tmp_path, capsys, command, cfg_text):
    """A refused config exits 2 with one error line, no numpy warning
    before it, and nothing written.  A generator's mode number must be an
    integer, and the lump's radius_frac must lie in (0, 0.5]."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(cfg_text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 2
    _one_error_line(capsys)
    assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]


@pytest.mark.parametrize("command, cfg_text, run, slice_name", [
    ("simulate-spin", SPIN_CFG, "spinrun", "spin_000000.mfld1"),
    ("simulate-nls", NLS_CFG, "nlsrun", "nls_000000.mfld1")], ids=["spin", "nls"])
def test_dt_beyond_the_step_bound_leaves_the_run_directory(tmp_path, capsys, command, cfg_text,
                                                           run, slice_name):
    """A dt beyond the step bound max_dt is refused before the run directory is
    touched: an earlier run's files stay and no slice is written."""
    earlier = {"meta.json": "{}\n", slice_name.replace("000000", "000007"): "earlier"}
    (tmp_path / run).mkdir()
    for name, text in earlier.items():
        (tmp_path / run / name).write_text(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(cfg_text, dt=0.01, **{"grid.nx": 64, "grid.ny": 64}))
    assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 2
    assert "outside the stable range" in _one_error_line(capsys)
    assert {p.name: p.read_text() for p in (tmp_path / run).iterdir()} == earlier


def test_recorded_overflowing_parameter_exits_2(recorded_spin_run, tmp_path, capsys):
    """The same for a value that a run's meta.json records."""
    run = tmp_path / "spinrun"
    shutil.copytree(recorded_spin_run, run)
    meta = json.loads((run / "meta.json").read_text())
    meta["config"]["params.l"] = 1e300
    (run / "meta.json").write_text(json.dumps(meta))
    files = sorted(os.listdir(run))
    assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun", "--ladder", "16,24"]) == 2
    assert "overflows" in _one_error_line(capsys)
    assert sorted(os.listdir(run)) == files


def test_nls_density_overflow_is_one_abort_line(tmp_path, capsys):
    """A q whose density |q|^2 overflows aborts with its one line: no numpy
    warning reaches stderr before it."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(NLS_CFG, **{"nls.init.amplitude": 1e200}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--output-dir", str(tmp_path), "simulate-nls", str(cfg)]) == 3
    _one_error_line(capsys, "numerical abort: ")


def test_far_from_unit_initial_S_is_one_error_line(tmp_path, capsys):
    """An initial S far from unit length is refused before its constraints
    are solved, so no numpy warning reaches stderr before the error line."""
    grid = Grid2(16, 16)
    S = init_modulated_helix(grid)
    S[:, 2:5, 3:9] = 1e200
    write_mfld1(tmp_path / "S0.mfld1", grid, S)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(SPIN_CFG, **{"grid.nx": 16, "grid.ny": 16,
                                      "spin.init": tmp_path / "S0.mfld1",
                                      "spin.init.eps": None, "spin.init.kappa": None}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 2
    assert "|S| deviates from 1 by inf" in _one_error_line(capsys)


@pytest.mark.parametrize("changes, what", [
    ({"dt": 1e-300, "t_end": 0.02}, "steps"),
    ({"t_end": 1e300}, "steps"),
    ({"save_every": 1, "t_end": 10_000 * default_dt(Grid2(16, 16))}, "slices"),
    ({"grid.nx": 4096, "grid.ny": 4096}, "points"),
], ids=["tiny-dt", "huge-t_end", "slices", "cells"])
def test_run_length_refuses_a_run_beyond_its_size_bound(changes, what):
    """_run_length refuses a run of more than MAX_STEPS steps or MAX_SLICES
    saved slices, and cfg.grid() one of more than MAX_CELLS points, whose
    grid is never made; the run itself is never started."""
    cfg = RunConfig.from_text(_with(SPIN_CFG, **{"grid.nx": 16, "grid.ny": 16, **changes}))
    with pytest.raises(ConfigError, match=what):
        if what == "points":
            cfg.grid()
        else:
            _run_length(cfg, cfg.grid())


def test_run_length_refuses_a_t_end_that_rounds_to_no_step():
    """A t_end of half a step or less is refused, not run as one whole step
    recorded as the run's end time; a longer one runs its rounded count."""
    cfg = RunConfig.from_text(_with(SPIN_CFG, **{"grid.nx": 16, "grid.ny": 16}))
    dt = default_dt(cfg.grid())
    for t_end in (0.001, 0.5 * dt):
        with pytest.raises(ConfigError, match="rounds to no step"):
            _run_length(RunConfig.from_text(_with(SPIN_CFG, **{
                "grid.nx": 16, "grid.ny": 16, "t_end": t_end})), cfg.grid())
    for t_end, steps in ((0.51 * dt, 1), (1.49 * dt, 1), (1.51 * dt, 2)):
        got = _run_length(RunConfig.from_text(_with(SPIN_CFG, **{
            "grid.nx": 16, "grid.ny": 16, "t_end": t_end})), cfg.grid())
        assert got == (dt, steps)


@pytest.mark.parametrize("command", [["frame"], ["charges"],
                                     ["lax-check", "--spin-side", "--lambda", "0.3,0.1"]],
                         ids=["frame", "charges", "lax-check-spin"])
def test_far_from_unit_slice_is_one_error_line(tmp_path, capsys, command):
    """A recorded slice whose S is finite but far from unit length (1e200 at
    8 points of slice 1 of a 16^2 run) is refused where it is read: exit 2,
    one error line naming the file, and no numpy warning before it."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(SPIN_CFG, t_end=0.1, **{"grid.nx": 16, "grid.ny": 16, "save_every": 1}))
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 0
    meta = json.loads((tmp_path / "spinrun" / "meta.json").read_text())
    assert len(meta["slices"]) == 3
    path = tmp_path / "spinrun" / meta["slices"][1]
    grid, data = read_mfld1(path)
    data[:3, 2:4, 5:9] = 1e200
    write_mfld1(path, grid, data)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--output-dir", str(tmp_path), command[0], "spinrun", *command[1:]]) == 2
    err = _one_error_line(capsys, f"error: {path}: ")
    assert "|S| deviates from 1 by inf" in err


# lengths whose step bound puts t_end past MAX_STEPS steps (grid.ly = 1e-300,
# whose y-derivatives overflow), or that give no step bound at all (1e300 on
# both axes, where kx ky underflows to 0 and max_dt divided by zero)
DOMAINS = [({"grid.ly": 1e-300}, f"takes over {MAX_STEPS} steps of"),
           ({"grid.lx": 1e300, "grid.ly": 1e300}, "no RK4 step on Grid2(")]


@pytest.mark.parametrize("lengths, message", DOMAINS, ids=["short", "long"])
@pytest.mark.parametrize("command, cfg_text", [("simulate-spin", SPIN_CFG),
                                               ("simulate-nls", NLS_CFG)], ids=["spin", "nls"])
def test_domain_past_the_step_bound_is_refused_before_its_field(tmp_path, capsys, command,
                                                                cfg_text, lengths, message):
    """A domain whose step bound gives no run within MAX_STEPS steps is
    refused with one line before its initial state is made, so no numpy
    warning and no traceback comes first, and the run directory is not
    touched."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(cfg_text, **lengths))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 2
    assert message in _one_error_line(capsys)
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("changes, message", [
    ({"params.c": 1e300}, f"takes more than {MAX_STEPS} steps"),
    ({"grid.ly": 1e-300}, f"takes more than {MAX_STEPS} steps"),
    ({"grid.lx": 1e300, "grid.ly": 1e300}, "no RK4 step on Grid2(nx=16, ny=16"),
], ids=["c-huge", "ly-tiny", "lengths-huge"])
def test_equiv_check_refuses_a_rung_past_max_steps(recorded_spin_run, tmp_path, capsys, changes,
                                                   message):
    """A recorded value whose rung would march more than MAX_STEPS steps,
    or has no step bound, is refused with one line and no numpy warning:
    params.c = 1e300 takes the rule's step of the rung to ~1e-300, and
    grid.ly = 1e-300 the step bound of the band (refused before any frame,
    whose derivatives overflow, is built); lengths of 1e300 give no bound."""
    run = tmp_path / "spinrun"
    shutil.copytree(recorded_spin_run, run)
    meta = json.loads((run / "meta.json").read_text())
    meta["config"].update(changes)
    (run / "meta.json").write_text(json.dumps(meta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun",
                     "--ladder", "16,24"]) == 2
    assert message in _one_error_line(capsys)
    assert not (run / "equiv_report.json").exists()


@pytest.mark.parametrize("n, steps, save_every", [(128, 300, 10), (256, 24, 2)])
def test_run_size_bound_is_far_above_the_benchmark(n, steps, save_every):
    """The benchmark's largest runs (300 steps and 31 slices at 128^2, 256^2
    points) are accepted, each at a hundredth of its bound or less."""
    dt = default_dt(Grid2(n, n))
    cfg = RunConfig.from_text(_with(SPIN_CFG, dt=repr(dt), t_end=repr(steps * dt),
                                    save_every=save_every, **{"grid.nx": n, "grid.ny": n}))
    assert _run_length(cfg, cfg.grid()) == (dt, steps)
    assert 100 * steps <= MAX_STEPS and 100 * (steps // save_every + 1) <= MAX_SLICES
    assert 100 * n * n <= MAX_CELLS


@pytest.mark.parametrize("init, key", [("stereographic-lump", "center"),
                                       ("uniform", "direction")])
def test_generator_has_no_vector_parameter(tmp_path, capsys, init, key):
    """The lump is centred in the box and `uniform` is S = e3: a config key,
    which holds a number, sets no centre or direction."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(SPIN_CFG, **{"spin.init": init, "spin.init.eps": None,
                                      "spin.init.kappa": None, f"spin.init.{key}": 1}))
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"has no parameter {key}" in err


def test_equiv_check_refuses_a_degenerate_initial_frame_before_marching(tmp_path, capsys,
                                                                        monkeypatch):
    """The lump's initial Frenet frame is masked on 10.4% of the grid at
    n = 32, beyond equivalence.FRAME_MASK_LIMIT: equiv-check aborts (exit 3)
    before any march, naming the rung, the masked fraction and the degree."""
    import m3lab.equivalence as equivalence

    cfg = tmp_path / "lump.cfg"
    cfg.write_text(LUMP_CFG)
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 0
    capsys.readouterr()

    def no_march(*args):
        raise AssertionError("equiv-check marched a degenerate initial field")

    monkeypatch.setattr(equivalence, "march_spin", no_march)
    assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun",
                 "--ladder", "32,64"]) == 3
    err = _one_error_line(capsys, "numerical abort: ")
    assert "initial field at n = 32" in err and "degenerate on 10.4% of the grid" in err
    assert "degree Q = 1.000002" in err
    assert not (tmp_path / "spinrun" / "equiv_report.json").exists()


def test_equiv_check_refuses_a_folding_frame_before_marching(tmp_path, capsys, monkeypatch):
    """The kappa = 0 helix masks no point, but its Frenet e2 turns by more
    than 90 degrees between 92 x- and 64 y-neighbours at n = 32: equiv-check
    aborts (exit 3) before any march, naming the rung, the count and the
    degree, where it wrote a diverging ladder (order -1.22) and exit 0."""
    import m3lab.equivalence as equivalence

    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(SPIN_CFG, **{"spin.init.kappa": 0}))
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 0
    capsys.readouterr()

    def no_march(*args):
        raise AssertionError("equiv-check marched a folding initial field")

    monkeypatch.setattr(equivalence, "march_spin", no_march)
    assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun",
                 "--ladder", "32,64"]) == 3
    err = _one_error_line(capsys, "numerical abort: ")
    assert "initial field at n = 32 folds" in err and "between 156 pairs" in err
    assert "degree Q = " in err
    assert not (tmp_path / "spinrun" / "equiv_report.json").exists()


@pytest.mark.parametrize("side, key, value", [("nls", "k1", 8), ("nls", "k1", 17),
                                             ("nls", "k2", -8), ("spin", "kappa", 8),
                                             ("spin", "kappa", 9)])
def test_generator_mode_at_or_past_nyquist_exits_2(tmp_path, capsys, side, key, value):
    """A mode number at or past the Nyquist mode n/2 of a 16 x 16 run is
    refused before anything is written: k1 = 8, whose derivative every
    operator drops, and k1 = 17, sampled exactly as k1 = 1, both ran."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(SPIN_CFG if side == "spin" else NLS_CFG,
                         **{"grid.nx": 16, "grid.ny": 16, f"{side}.init.{key}": value}))
    assert main(["--output-dir", str(tmp_path), f"simulate-{side}", str(cfg)]) == 2
    assert f"{key} = {value} is at or past the Nyquist mode of 16 points" in _one_error_line(capsys)
    assert not any(tmp_path.glob("*run"))


def test_equiv_check_refuses_a_mode_past_nyquist_on_a_coarser_rung(tmp_path, capsys,
                                                                    monkeypatch):
    """kappa = 9 is below the Nyquist mode of the run's n = 32 but not of
    n = 16: `equiv-check --ladder 32,16` refuses it (exit 2) on that rung,
    before any march."""
    import m3lab.equivalence as equivalence

    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(SPIN_CFG, **{"spin.init.kappa": 9, "dt": 0.001, "t_end": 0.002}))
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 0
    capsys.readouterr()

    def no_march(*args):
        raise AssertionError("equiv-check marched a field it refuses")

    monkeypatch.setattr(equivalence, "march_spin", no_march)
    assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun",
                 "--ladder", "32,16"]) == 2
    assert "kappa = 9 is at or past the Nyquist mode of 16 points" in _one_error_line(capsys)
    assert not (tmp_path / "spinrun" / "equiv_report.json").exists()


def test_mfld1_initial_takes_no_init_keys(spin_run, tmp_path):
    meta = json.loads((spin_run / "meta.json").read_text())
    cfg = tmp_path / "restart.cfg"
    cfg.write_text(
        "grid.nx = 32\ngrid.ny = 32\nmodel = M3\nparams.c = 0.3\n"
        f"spin.init = {spin_run / meta['slices'][0]}\nspin.init.eps = 0.1\n"
        "t_end = 0.02\noutput_dir = restartrun\n")
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 2


def test_frame_projects_each_slice_once(spin_run, tmp_path, monkeypatch):
    import m3lab.frames as frames
    calls = []
    real = frames.coeffs_from_frame
    monkeypatch.setattr(frames, "coeffs_from_frame",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    assert main(["--output-dir", str(tmp_path), "frame", "spinrun"]) == 0
    meta = json.loads((spin_run / "meta.json").read_text())
    assert len(calls) == len(meta["slices"])


COEFF_COMPS = ("k", "sigma", "tau", "m1", "m2", "m3", "w1", "w2", "w3")


def _lump_run(tmp_path, n, slices=5):
    """A lump run of n x n points with every one of slices - 1 steps saved,
    at the step of configs/lump.cfg relative to hx hy, 0.1 hx hy."""
    grid = Grid2(n, n)
    dt = 0.1 * grid.hx * grid.hy
    cfg = tmp_path / "lump.cfg"
    cfg.write_text(_with(SPIN_CFG, **{"grid.nx": n, "grid.ny": n, "params.c": 0.25,
                                      "spin.init": "stereographic-lump", "spin.init.eps": None,
                                      "spin.init.kappa": None, "dt": repr(dt),
                                      "t_end": repr((slices - 1) * dt), "save_every": 1,
                                      "output_dir": "lump"}))
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 0
    return tmp_path / "lump"


@pytest.mark.parametrize("n", [32, DENSE_MAX_N + 2])
def test_frame_writes_the_library_path_bitwise(tmp_path, n):
    """`frame` writes, bit for bit, what frame_from_spin, coeffs_from_frame,
    frame_dt, with_time_entries and mlxii_residual give called one by one:
    every frame and coefficient dump and every residual of its report, on
    a lump on the matrix path (n = 32) and on the rfft path."""
    from m3lab.frames import (coeffs_from_frame, frame_dt, frame_from_spin, mlxii_residual,
                              with_time_entries)
    run = _lump_run(tmp_path, n)
    assert main(["--output-dir", str(tmp_path), "frame", "lump"]) == 0
    meta = json.loads((run / "meta.json").read_text())
    times, grid = meta["times"], Grid2(n, n)
    frames, coeffs = [], []
    for idx, name in enumerate(meta["slices"]):
        F = frame_from_spin(grid, read_mfld1(run / name)[1][:3])
        dump = read_mfld1(run / f"frame_{idx:06d}.mfld1")[1]
        assert np.array_equal(dump, np.concatenate(F.E))
        frames.append(F)
        coeffs.append(coeffs_from_frame(grid, F))
    report = json.loads((run / "frame_report.json").read_text())["residuals"]
    assert len(report) == len(times) - 2 == 3
    for idx, got in enumerate(report, start=1):
        dt2 = times[idx + 1] - times[idx - 1]
        mid = with_time_entries(coeffs[idx], frames[idx],
                                frame_dt(frames[idx - 1], frames[idx + 1], dt2))
        dump = read_mfld1(run / f"coeffs_{idx:06d}.mfld1")[1]
        assert np.array_equal(dump, np.stack([getattr(mid, c) for c in COEFF_COMPS]))
        assert got == {"t": times[idx], **mlxii_residual(
            grid, mid, coeffs_before=coeffs[idx - 1], coeffs_after=coeffs[idx + 1], dt2=dt2,
            frame=frames[idx])}


def _traced_peak(argv) -> int:
    """tracemalloc peak, in bytes, of main(argv), once a first call has
    filled the operator caches."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_planes(tmp_path, command) -> float:
    """tracemalloc peak, in (ny, nx) planes, of `command` on a lump run on the
    rfft path."""
    n = DENSE_MAX_N + 8
    _lump_run(tmp_path, n)
    return _traced_peak(["--output-dir", str(tmp_path), command, "lump"]) / (8 * n * n)


def test_frame_holds_three_slices_of_e1_e2_a_and_b(tmp_path):
    """`frame` keeps, of each slice in its three-slice window, e1, e2, a and
    b alone (12 planes); e3, the densities and the scratch are shared (18
    planes).  Each slice's S is read into the shared e3, and the time
    entries are written over the densities.  On a lump its peak, 55.5
    (ny, nx) planes, stays below 58: reading each whole slice and keeping
    the time entries apart peaked at ~64, a ring of three whole workspaces
    at ~87."""
    assert _peak_planes(tmp_path, "frame") < 58


def test_charges_reads_each_slice_into_its_frame(tmp_path):
    """`charges` builds every slice's frame and coefficients in one frames
    workspace and reads each slice's S into the e3 stack of its frame.  On
    a lump its peak, 31.4 (ny, nx) planes, stays below 36: reading each
    whole slice peaked at ~41."""
    assert _peak_planes(tmp_path, "charges") < 36


def test_lax_check_holds_one_slice_and_two_differences(tmp_path):
    """The q-side `lax-check` reads the slices either side of the middle one
    for q alone and differences them before its pass, and keeps the middle
    slice's v as a plane of its own.  On an n = 128 M3q run of three slices
    its peak, 13.2 complex (ny, nx) planes, stays within 16: holding three
    whole slices peaked at 24.2."""
    n = 128
    cfg = tmp_path / "nls.cfg"
    cfg.write_text(_with(NLS_CFG, **{"grid.nx": n, "grid.ny": n, "model": "M3q",
                                     "params.c": 0.3, "nls.init.k2": 2, "dt": "0.0002",
                                     "t_end": "0.0004", "save_every": 1}))
    assert main(["--output-dir", str(tmp_path), "simulate-nls", str(cfg)]) == 0
    assert len(json.loads((tmp_path / "nlsrun" / "meta.json").read_text())["slices"]) == 3
    argv = ["--output-dir", str(tmp_path), "lax-check", "nlsrun", "--lambda", "0.3,0.1"]
    assert _traced_peak(argv) <= 16 * (16 * n * n)


def _march(side, grid):
    """march_spin or march_nls of a smooth initial state on grid, every step kept."""
    dt = default_dt(grid)
    if side == "spin":
        par = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")
        state = make_spin_state(grid, init_modulated_helix(grid), par)
        return march_spin(grid, state, par, dt, 3, 1)
    par = NlsParams(c=0.0, d=1.0, model="Zakharov")
    return march_nls(grid, make_nls_state(grid, init_plane_wave(grid), par), par, dt, 3, 1)


@pytest.mark.parametrize("side", ["spin", "nls"])
def test_march_lets_go_of_the_initial_state(side):
    """A march keeps nothing of the state it yielded first: once its caller
    lets that state go, the state is freed before the next one is made."""
    states = _march(side, Grid2(16, 16))
    first = weakref.ref(next(states))
    next(states)
    assert first() is None


@pytest.mark.parametrize("command, cfg_text, side", [
    ("simulate-spin", SPIN_CFG, "spin"), ("simulate-nls", NLS_CFG, "nls")], ids=["spin", "nls"])
def test_simulate_lets_go_of_the_initial_state(tmp_path, monkeypatch, command, cfg_text, side):
    """A simulate command holds one state at a time: by the time it writes
    the second slice, the initial state is freed."""
    import m3lab.fields as fields
    module = importlib.import_module(f"m3lab.{side}")
    real_march, real_write = getattr(module, f"march_{side}"), fields.write_mfld1
    first, alive = [], []

    def watched(grid, state, *args):
        first.append(weakref.ref(state))
        return real_march(grid, state, *args)

    def write(*args):
        alive.append(first[0]() is not None)
        real_write(*args)

    monkeypatch.setattr(module, f"march_{side}", watched)
    monkeypatch.setattr(fields, "write_mfld1", write)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 0
    assert len(alive) > 2 and alive == [True] + [False] * (len(alive) - 1)


@pytest.mark.parametrize("output_dir", ["", ".", "sub/..", "..", "ABS"],
                         ids=["empty", "dot", "up", "parent", "absolute"])
@pytest.mark.parametrize("command, cfg_text", [("simulate-spin", SPIN_CFG),
                                               ("simulate-nls", NLS_CFG)], ids=["spin", "nls"])
def test_run_directory_outside_the_base_directory_is_refused(tmp_path, capsys, command, cfg_text,
                                                             output_dir):
    """A config whose output_dir is not a directory strictly inside
    --output-dir (the base itself, its parent, an absolute path elsewhere)
    is refused (exit 2, one line naming it) before the run starts: a user's
    files there whose names a run writes survive byte for byte, where the
    run deleted them."""
    base = tmp_path / "base" / "out"
    (base / "sub").mkdir(parents=True)
    user = {"meta.json": b'{"mine": true}\n', "norms.csv": b"t,x\n0,1\n",
            "invariants.csv": b"\x00\xff", "spin_000000.mfld1": b"mine", "notes.txt": b"kept"}
    for where in (base, base.parent):
        for name, data in user.items():
            (where / name).write_bytes(data)
    output_dir = str(base.parent) if output_dir == "ABS" else output_dir
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_with(cfg_text, output_dir=output_dir))
    capsys.readouterr()
    assert main(["--output-dir", str(base), command, str(cfg)]) == 2
    assert f"output_dir = {output_dir!r} is no directory inside" in _one_error_line(capsys)
    for where in (base, base.parent):
        assert {p.name: p.read_bytes() for p in where.iterdir() if p.is_file()} == user


def test_run_directory_inside_the_base_directory_runs(tmp_path):
    """A nested output_dir, and one that leaves and re-enters --output-dir,
    are inside it and run."""
    base = tmp_path / "out"
    for output_dir in ("a/b", f"../{base.name}/c"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_with(SPIN_CFG, output_dir=output_dir))
        assert main(["--output-dir", str(base), "simulate-spin", str(cfg)]) == 0
        assert (base / output_dir / "meta.json").is_file()


@pytest.mark.parametrize("command, cfg_text, run, verify", [
    ("simulate-spin", SPIN_CFG, "spinrun", ["frame", "spinrun"]),
    ("simulate-nls", NLS_CFG, "nlsrun",
     ["lax-check", "nlsrun", "--lambda", "0.3,0.1", "--lambda", "0.2,0"]),
], ids=["spin", "nls"])
def test_simulate_removes_an_earlier_runs_files(tmp_path, command, cfg_text, run, verify):
    """A run into the directory of an earlier one, with every state saved
    and its outputs verified, leaves its own files and those m3lab did not
    write: the earlier run's surplus slices, dumps and reports go."""
    cfg = tmp_path / "run.cfg"
    for save_every in (1, 4):
        cfg.write_text(_with(cfg_text, save_every=save_every, t_end=0.1,
                             **{"grid.nx": 16, "grid.ny": 16}))
        assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 0
        if save_every == 1:
            assert main(["--output-dir", str(tmp_path)] + verify) == 0
            for name in ("notes.txt", "spin_init.mfld1"):
                (tmp_path / run / name).write_text("not m3lab's")
    meta = json.loads((tmp_path / run / "meta.json").read_text())
    table = "invariants.csv" if command == "simulate-spin" else "norms.csv"
    assert len(meta["slices"]) == 1
    assert sorted(os.listdir(tmp_path / run)) == sorted(
        meta["slices"] + ["meta.json", table, "notes.txt", "spin_init.mfld1"])


def _meta_text(**entries):
    """meta.json text of a spin run with a complete configuration."""
    return json.dumps({"kind": "spin", "config_hash": "x",
                       "config": RunConfig.from_text(SPIN_CFG).values, **entries})


@pytest.mark.parametrize("meta_text", [
    "{not json",
    "[]",
    '{"kind": "spin", "config_hash": "x", "times": [0.0], "slices": []}',
    '{"kind": "spin", "config_hash": "x", "config": {"scheme": "spectral"}}',
    _meta_text(slices=["spin_000000.mfld1"]),
    _meta_text(times=[0.0]),
    _meta_text(times=[0.0, 0.1], slices=["spin_000000.mfld1"]),
    _meta_text(times=[False, True], slices=["spin_000000.mfld1", "spin_000001.mfld1"]),
    _meta_text(times=[0.0, float("nan")], slices=["spin_000000.mfld1", "spin_000001.mfld1"]),
    _meta_text(times=[0.0, 0.1, 0.1], slices=[f"spin_{i:06d}.mfld1" for i in range(3)]),
], ids=["garbage", "not-an-object", "no-config", "partial-config", "no-times", "no-slices",
        "times-slices-mismatch", "bool-times", "nan-times", "repeated-time"])
def test_bad_run_dir_exits_2(spin_run, tmp_path, capsys, meta_text):
    """A meta.json that does not describe a run is refused, with the run's
    slices in place, before any table is written."""
    (spin_run / "meta.json").write_text(meta_text)
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), "charges", spin_run.name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (spin_run / "charges.csv").exists()


def _damage_slice(run, damage):
    """Rewrite the middle slice of a run: "comps" drops its last component,
    "grid" writes the same values on a domain of another length, "nan-4"
    and "nan-5" put a NaN in the 4th or 5th component alone (u or v on the
    spin side), "truncated", "trailing" and "header" damage the file.
    Returns the slice's path and the end of the error line it gives."""
    meta = json.loads((run / "meta.json").read_text())
    path = run / meta["slices"][len(meta["slices"]) // 2]
    grid, data = read_mfld1(path)
    body = path.read_bytes()
    message = "components on Grid2"
    if damage == "comps":
        write_mfld1(path, grid, data[:-1])
    elif damage == "grid":
        write_mfld1(path, Grid2(grid.nx, grid.ny, 2.0 * grid.lx, grid.ly), data)
    elif damage.startswith("nan"):
        data[int(damage[-1]) - 1, 3, 5] = np.nan
        write_mfld1(path, grid, data)
        message = "payload contains 1 non-finite entries"
    else:
        path.write_bytes({"truncated": body[:-8], "trailing": body + b"junk",
                          "header": b"MFLD2" + body[5:]}[damage])
        message = {"truncated": "truncated payload", "trailing": "trailing bytes after the payload",
                   "header": "not an MFLD1 file"}[damage]
    return path, message


@pytest.mark.parametrize("damage", ["comps", "grid", "nan-4", "nan-5", "truncated", "trailing",
                                    "header"])
@pytest.mark.parametrize("side, extra", [
    ("spin", ["frame"]), ("spin", ["charges"]),
    ("spin", ["lax-check", "--lambda", "0.4,0.2", "--spin-side"]),
    ("nls", ["lax-check", "--lambda", "0.3,0.1"]),
], ids=["frame", "charges", "lax-check-spin", "lax-check-q"])
def test_bad_slice_exits_2_naming_the_file(tmp_path, capsys, side, extra, damage):
    """Every slice a command reads is checked against the run's grid and
    layout, and every component of it for finite values, whether the
    command reads it into a frame stack (frame, charges) or whole
    (lax-check): one error line naming the file, exit 2."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SPIN_CFG if side == "spin" else NLS_CFG)
    assert main(["--output-dir", str(tmp_path), f"simulate-{side}", str(cfg)]) == 0
    run = tmp_path / f"{side}run"
    path, message = _damage_slice(run, damage)
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), extra[0], str(run.name), *extra[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert message in err


def test_missing_slice_exits_2(spin_run, tmp_path, capsys):
    meta = json.loads((spin_run / "meta.json").read_text())
    (spin_run / meta["slices"][0]).unlink()
    assert main(["--output-dir", str(tmp_path), "charges", "spinrun"]) == 2
    assert meta["slices"][0] in capsys.readouterr().err


def test_spin_config_with_beta_minus_one_exits_2(tmp_path, capsys):
    """The spin flow has no beta: a spin run with params.beta = -1 is refused
    before anything is written."""
    cfg = tmp_path / "spin.cfg"
    cfg.write_text(_with(SPIN_CFG, **{"params.beta": -1}))
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "params.beta" in err
    assert sorted(os.listdir(tmp_path)) == ["spin.cfg"]


@pytest.mark.parametrize("extra", [["frame"], ["charges"], ["equiv-check", "--ladder", "16,24"]],
                         ids=["frame", "charges", "equiv-check"])
def test_spin_run_with_beta_minus_one_exits_2(spin_run, tmp_path, capsys, extra):
    """A spin run whose meta.json records params.beta = -1 is refused, with no output."""
    meta = json.loads((spin_run / "meta.json").read_text())
    meta["config"]["params.beta"] = -1
    (spin_run / "meta.json").write_text(json.dumps(meta))
    files = sorted(os.listdir(spin_run))
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), extra[0], "spinrun", *extra[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "params.beta" in err
    assert sorted(os.listdir(spin_run)) == files


@pytest.fixture(scope="module")
def recorded_spin_run(tmp_path_factory):
    """A spin run, made once, for tests that damage a copy of it."""
    out = tmp_path_factory.mktemp("recorded")
    (out / "spin.cfg").write_text(SPIN_CFG)
    assert main(["--output-dir", str(out), "simulate-spin", str(out / "spin.cfg")]) == 0
    return out / "spinrun"


def _listing(run) -> dict:
    """{name: sha256 of its bytes} of every file in the directory run."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in run.iterdir()}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_frame_that_fails_at_a_slice_leaves_the_run_as_it_was(tmp_path, capsys, where):
    """`frame` writes its dumps and report under staging names and renames
    them into place only after its last slice: a NaN in v of the first, a
    middle or the last slice of a fresh run gives exit 2 with one line
    naming the slice, and leaves the directory byte for byte as it was."""
    (tmp_path / "spin.cfg").write_text(_with(SPIN_CFG, save_every=1))
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(tmp_path / "spin.cfg")]) == 0
    run = tmp_path / "spinrun"
    slices = json.loads((run / "meta.json").read_text())["slices"]
    assert len(slices) >= 5
    path = run / slices[{"first": 0, "middle": len(slices) // 2, "last": -1}[where]]
    grid, data = read_mfld1(path)
    data[4, 3, 5] = np.nan
    write_mfld1(path, grid, data)
    before = _listing(run)
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), "frame", "spinrun"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert _listing(run) == before


def test_simulate_clears_the_staging_names_a_killed_command_left(tmp_path):
    """A staged file lands under its own name when the body ends, and its
    staging name matches RUN_FILES: a simulate run clears the ones that a
    command killed before its renames left."""
    run = tmp_path / "spinrun"
    run.mkdir()
    names = ["coeffs_000001.mfld1", "frame_000000.mfld1", "frame_report.json"]
    with _staged_outputs(str(run)) as stage:
        for name in names:
            Path(stage(name)).write_text(name)
        staging = sorted(os.listdir(run))
    assert sorted(os.listdir(run)) == names
    assert all((run / name).read_text() == name for name in names)
    assert all(any(fnmatch.fnmatchcase(name, p) for p in RUN_FILES) for name in staging)
    for name in staging:  # as a command killed before its renames leaves them
        (run / name).write_text(name)
    (tmp_path / "spin.cfg").write_text(SPIN_CFG)
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(tmp_path / "spin.cfg")]) == 0
    assert not set(staging) & set(os.listdir(run))


@pytest.mark.parametrize("key, value", [
    ("grid.nx", "64"), ("grid.nx", 32.0), ("params.c", "0.3"), ("params.beta", "1"),
    ("params.beta", True), ("params.d", float("inf")), ("params.l", float("nan")),
    ("scheme", 1), ("spin.init.eps", "0.05"), ("spin.init.kappa", False), ("params.e", 0.0),
], ids=["nx-str", "nx-float", "c-str", "beta-str", "beta-bool", "d-inf", "l-nan", "scheme-int",
        "init-str", "init-bool", "unknown-key"])
@pytest.mark.parametrize("extra", [
    ["frame"], ["charges"], ["equiv-check", "--ladder", "16,24"],
    ["lax-check", "--lambda", "0.4,0.2", "--spin-side"],
], ids=["frame", "charges", "equiv-check", "lax-check"])
def test_mistyped_recorded_config_exits_2(recorded_spin_run, tmp_path, capsys, extra, key,
                                          value):
    """Each value meta.json records is checked as a config line's value is:
    of its key's type, finite, under a known key; a command refuses a run
    with any other, before it writes anything."""
    run = tmp_path / "spinrun"
    shutil.copytree(recorded_spin_run, run)
    meta = json.loads((run / "meta.json").read_text())
    meta["config"][key] = value
    (run / "meta.json").write_text(json.dumps(meta))
    files = sorted(os.listdir(run))
    assert main(["--output-dir", str(tmp_path), extra[0], "spinrun", *extra[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: meta.json configuration: ") and key in err
    assert "Traceback" not in err and sorted(os.listdir(run)) == files


@pytest.mark.parametrize("beta", [1, -1])
def test_simulate_nls_writes_p_as_beta_conj_q(tmp_path, beta):
    """Re p and Im p of every slice are the bits of beta Re q and -beta Im q,
    signed zeros included."""
    cfg = tmp_path / "nls.cfg"
    cfg.write_text(_with(NLS_CFG, model="M3q", **{"params.c": 0.3, "params.beta": beta}))
    assert main(["--output-dir", str(tmp_path), "simulate-nls", str(cfg)]) == 0
    meta = json.loads((tmp_path / "nlsrun" / "meta.json").read_text())
    assert len(meta["slices"]) == 3
    for name in meta["slices"]:
        _, data = read_mfld1(tmp_path / "nlsrun" / name)
        re_q, im_q, re_p, im_p = data[:4]
        assert re_p.tobytes() == (beta * re_q).tobytes()
        assert im_p.tobytes() == (-beta * im_q).tobytes()


# ---------------------------------------------------------------------------
# exit codes of every subcommand
# ---------------------------------------------------------------------------

def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def _run(tmp_path, command, text, name):
    assert main(["--output-dir", str(tmp_path), command, _config(tmp_path, text)]) == 0
    return name


def _flat_spin_run(tmp_path):
    """A spin run whose slices hold the uniform field, which has no frame."""
    run = _run(tmp_path, "simulate-spin", SPIN_CFG, "spinrun")
    for path in (tmp_path / run).glob("spin_*.mfld1"):
        grid, data = read_mfld1(path)
        data[0:3] = np.array([0.0, 0.0, 1.0])[:, None, None]
        write_mfld1(path, grid, data)
    return run


def _uniform_config_run(tmp_path):
    """A spin run whose recorded configuration starts from the uniform field."""
    run = _run(tmp_path, "simulate-spin", SPIN_CFG, "spinrun")
    meta_path = tmp_path / run / "meta.json"
    meta = json.loads(meta_path.read_text())
    config = {k: v for k, v in meta["config"].items() if not k.startswith("spin.init.")}
    meta["config"] = {**config, "spin.init": "uniform"}
    meta_path.write_text(json.dumps(meta))
    return run


def _empty_slice_name_run(tmp_path):
    """A spin run whose meta.json names its first slice "", the run directory."""
    run = _run(tmp_path, "simulate-spin", SPIN_CFG, "spinrun")
    meta_path = tmp_path / run / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["slices"][0] = ""
    meta_path.write_text(json.dumps(meta))
    return run


def _frame_dump_is_a_directory_run(tmp_path):
    """A spin run where the path of the first frame dump is a directory."""
    run = _run(tmp_path, "simulate-spin", SPIN_CFG, "spinrun")
    (tmp_path / run / "frame_000000.mfld1").mkdir()
    return run


def _output_dir_is_a_file(tmp_path):
    """A spin config whose run directory is an existing file."""
    (tmp_path / "spinrun").write_text("not a directory")
    return _config(tmp_path, SPIN_CFG)


def _blow_up_config(tmp_path):
    """An M3q run from a large smooth q, which overflows within a few steps."""
    grid = Grid2(32, 32)
    q = smooth_complex(grid, np.random.default_rng(3), scale=6.0)
    write_mfld1(tmp_path / "q0.mfld1", grid, (q.real, q.imag))
    return _config(tmp_path, _with(NLS_CFG, model="M3q", **{
        "params.c": 0.3, "nls.init": tmp_path / "q0.mfld1",
        "nls.init.amplitude": None, "nls.init.k1": None, "nls.init.k2": None}))


EXIT_CASES = {
    ("simulate-spin", 0): lambda t: ["simulate-spin", _config(t, SPIN_CFG)],
    ("simulate-spin", 2): lambda t: ["simulate-spin", _config(t, _with(SPIN_CFG, save_every=0))],
    ("simulate-spin", 2, "output-dir-is-a-file"): lambda t: ["simulate-spin",
                                                             _output_dir_is_a_file(t)],
    ("simulate-spin", 3): lambda t: ["simulate-spin", _config(t, _with(
        SPIN_CFG, **{"spin.init": "uniform", "spin.init.eps": None, "spin.init.kappa": None}))],
    ("simulate-nls", 0): lambda t: ["simulate-nls", _config(t, NLS_CFG)],
    ("simulate-nls", 2): lambda t: ["simulate-nls", _config(t, _with(NLS_CFG, scheme="foo"))],
    ("simulate-nls", 3): lambda t: ["simulate-nls", _blow_up_config(t)],
    ("frame", 0): lambda t: ["frame", _run(t, "simulate-spin", SPIN_CFG, "spinrun")],
    ("frame", 2): lambda t: ["frame", _run(t, "simulate-nls", NLS_CFG, "nlsrun")],
    ("frame", 2, "dump-is-a-directory"): lambda t: ["frame", _frame_dump_is_a_directory_run(t)],
    ("frame", 3): lambda t: ["frame", _flat_spin_run(t)],
    ("equiv-check", 0): lambda t: ["equiv-check", _run(t, "simulate-spin", SPIN_CFG, "spinrun"),
                                   "--ladder", "16,24"],
    ("equiv-check", 2): lambda t: ["equiv-check", _run(t, "simulate-spin", SPIN_CFG, "spinrun"),
                                   "--ladder", "16,x"],
    ("equiv-check", 2, "repeated-size"): lambda t: [
        "equiv-check", _run(t, "simulate-spin", SPIN_CFG, "spinrun"), "--ladder", "16,24,16"],
    ("equiv-check", 3): lambda t: ["equiv-check", _uniform_config_run(t), "--ladder", "16,24"],
    ("lax-check", 0): lambda t: ["lax-check", _run(t, "simulate-nls", NLS_CFG, "nlsrun"),
                                 "--lambda", "0.3,0.1"],
    ("lax-check", 2): lambda t: ["lax-check", _run(t, "simulate-nls", NLS_CFG, "nlsrun"),
                                 "--lambda", "0.3"],
    ("charges", 0): lambda t: ["charges", _run(t, "simulate-spin", SPIN_CFG, "spinrun")],
    ("charges", 2): lambda t: ["charges", "no-such-run"],
    ("charges", 2, "empty-slice-name"): lambda t: ["charges", _empty_slice_name_run(t)],
    ("charges", 3): lambda t: ["charges", _flat_spin_run(t)],
    ("lambda-check", 0): lambda t: ["lambda-check", "--n", "1", "--k", "2", "--a", "1",
                                    "--samples", "2"],
    ("lambda-check", 2): lambda t: ["lambda-check", "--n", "0", "--k", "2", "--a", "1"],
    ("selftest", 0): lambda t: ["selftest"],
}


def test_exit_table_covers_every_subcommand():
    commands = set(build_parser()._subparsers._group_actions[0].choices)
    assert {command for command, *_ in EXIT_CASES} == commands


@pytest.mark.parametrize("case", sorted(EXIT_CASES), ids=lambda case: "-".join(map(str, case)))
def test_exit_code_table(tmp_path, capsys, case):
    """Exit 0 on a valid call, 2 on a validation error, 3 on a numerical abort."""
    code = case[1]
    argv = EXIT_CASES[case](tmp_path)
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), *argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith({0: "", 2: "error: ", 3: "numerical abort: "}[code])
    if code == 0:
        assert err == ""


# ---------------------------------------------------------------------------
# argument fuzz: edge values of every argument, one at a time, through main
# ---------------------------------------------------------------------------

LADDERS = ["16", "24,16", "16,24,32", "8", "16,8", "4", "2", "0", "-16", "16,-16", "16,16",
           "16,24,16", "x", "", "16,", ",", "1e3", "16.0", " 16", "9" * 23]
LAMBDAS = ["0.3,0.1", "-0.3,0.1", "-0,-0", "1e-300,0", "1e154,0", "1e300,0", "0,1e300",
           "1e300,1e300", "nan,0", "0,nan", "inf,0", "-inf,0", "word", "a,b", "0.3", "-0.3",
           "0.3,0.1,0", ",", ""]
LAMBDA_ARGS = {"--n": ["0", "-1", "2", "1000000", "9" * 23, "-" + "9" * 23, "1.5", "x", ""],
               "--k": ["0", "-0", "5e-324", "1e308", "-1e308", "nan", "inf", "-inf", "x"],
               "--a": ["0", "1e-10", "2e-10", "1e-308", "1e308", "-1e308", "nan", "inf", "x"],
               "--c": ["0", "-0.1", "-1", "-2", "-0.10000000001", "1e308", "-1e308", "nan", "x"],
               "--samples": ["1", "0", "-1", str(MAX_SAMPLES + 1), "100000000", "x", ""]}
READERS = [["frame"], ["charges"], ["equiv-check", "--ladder", "16"],
           ["lax-check", "--lambda", "0.3,0.1"],
           ["lax-check", "--spin-side", "--lambda", "0.3,0.1"]]
RUN_NAMES = ["", ".", "..", "nope", "a\0b", "run.cfg", "{run}/", "{run}/meta.json", "{other}",
             "/"]
BASE_DIRS = ["", "/nonexistent", "run.cfg", "a\0b", "{base}/", "/"]


def _reader(command, run_name):
    """argv of a command that reads the run run_name (its options after it)."""
    return [command[0], run_name, *command[1:]]


def _fuzz_cases():
    """(id, argv) of each case; `{base}` is the fuzz runs' directory,
    `{run}` a run of the command's side and `{other}` one of the other."""
    cases = [(f"ladder={v!r}", ["--output-dir", "{base}", "equiv-check", "spinrun",
                                "--ladder", v]) for v in LADDERS]
    cases += [(f"lambda{side}={v!r}", ["--output-dir", "{base}", "lax-check", run, "--lambda", v,
                                       *side.split()])
              for v in LAMBDAS for run, side in (("nlsrun", ""), ("spinrun", " --spin-side"))]
    base_args = {"--n": "1", "--k": "2", "--a": "1", "--c": "0", "--samples": "2"}
    cases += [(f"lambda-check{key}={v!r}",
               ["lambda-check", *(t for kv in {**base_args, key: v}.items() for t in kv)])
              for key, values in LAMBDA_ARGS.items() for v in values]
    cases += [(f"{' '.join(cmd)}:run={v!r}", ["--output-dir", "{base}", *_reader(cmd, v)])
              for cmd in READERS for v in RUN_NAMES]
    cases += [(f"{' '.join(cmd)}:output-dir={v!r}", ["--output-dir", v, *_reader(cmd, "{run}")])
              for cmd in READERS for v in BASE_DIRS]
    return cases


FUZZ_CASES = _fuzz_cases()


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A directory holding a run.cfg and a 16^2 spin and NLS run of three slices or more."""
    base = tmp_path_factory.mktemp("fuzz")
    for command, text in (("simulate-spin", SPIN_CFG), ("simulate-nls", NLS_CFG)):
        (base / "run.cfg").write_text(_with(text, t_end=0.1, save_every=1,
                                             **{"grid.nx": 16, "grid.ny": 16}))
        assert main(["--output-dir", str(base), command, str(base / "run.cfg")]) == 0
    return base


def _tree(base) -> set:
    return {os.path.relpath(os.path.join(d, f), base) for d, _, files in os.walk(base)
            for f in files}


@pytest.mark.parametrize("argv", [argv for _, argv in FUZZ_CASES],
                         ids=[case_id for case_id, _ in FUZZ_CASES])
def test_argument_fuzz(fuzz_base, capsys, monkeypatch, argv):
    """Every edge value of --ladder, --lambda, --output-dir, the run
    directory name and lambda-check's arguments: exit 0, 2 or 3, one stderr
    line on a refusal, no traceback or numpy warning, and no file written
    outside the run directories."""
    monkeypatch.chdir(fuzz_base)  # a relative --output-dir is taken from the fuzz runs' directory
    spin_side = "--spin-side" in argv or argv[2:3] in (["frame"], ["charges"], ["equiv-check"])
    run, other = ("spinrun", "nlsrun") if spin_side else ("nlsrun", "spinrun")
    argv = [a.format(base=fuzz_base, run=run, other=other) for a in argv]
    before = _tree(fuzz_base)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert err == "" if code == 0 else err.startswith(("error: ", "numerical abort: "))
    assert err.count("\n") == (code != 0) and "Traceback" not in err
    assert all(path.startswith(("spinrun", "nlsrun")) for path in _tree(fuzz_base) - before)
