import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import m3lab
from m3lab.cli import RunConfig, build_parser, main, parse_config_text
from m3lab.errors import ConfigError
from m3lab.fields import Grid2, read_mfld1, write_mfld1

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


def test_simulate_nls_deterministic(tmp_path):
    a, b = _rerun_files(tmp_path, NLS_CFG, "simulate-nls", "nlsrun")
    assert len(a) >= 3
    assert a == b


def test_simulate_nls_meta_diagnostics(tmp_path):
    """Per-slice conj_dev and v row means in meta.json; two reruns write the same meta.json."""
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
    assert n == 4
    assert meta["conj_dev"] == [0.0] * n
    assert len(meta["v_row_mean"]) == n
    assert all(m >= 0.0 for m in meta["v_row_mean"])
    norms = (tmp_path / "a" / "nlsrun" / "norms.csv").read_text().splitlines()
    assert norms[0] == "t,max_abs_q,conj_dev" and len(norms) == n + 1


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


def test_non_finite_step_exits_3(tmp_path, capsys, monkeypatch):
    import m3lab.spin as spin
    monkeypatch.setattr(spin, "_rhs", lambda grid, P, *args: np.full_like(P, np.nan))
    cfg = tmp_path / "spin.cfg"
    cfg.write_text(SPIN_CFG)
    assert main(["--output-dir", str(tmp_path), "simulate-spin", str(cfg)]) == 3
    assert "renormalization correction nan" in capsys.readouterr().err


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


def test_lax_check_negative_lambda_separated(nls_run, tmp_path):
    assert main(["--output-dir", str(tmp_path), "lax-check", "nlsrun",
                 "--lambda", "-0.2,0.4", "--lambda=-0.2,0.4"]) == 0
    rep = json.loads((nls_run / "lax_report.json").read_text())
    separated, attached = rep["results"]
    assert separated == attached
    assert separated["lam"] == [-0.2, 0.4]


def test_lax_check_spin_side(spin_run, tmp_path):
    assert main(["--output-dir", str(tmp_path), "lax-check", "spinrun",
                 "--lambda", "0.4,0.2", "--spin-side"]) == 0
    rep = json.loads((spin_run / "lax_report.json").read_text())
    entry = rep["results"][0]
    assert entry["trace_U_factored"] < 1e-12
    assert entry["trace_V_factored"] < 1e-12


LAX_CFGS = {"spin": SPIN_CFG, "nls": NLS_CFG,
            "m3q": _with(NLS_CFG, model="M3q", **{"params.c": 0.3})}


@pytest.mark.parametrize("cfg_name, lam", [
    ("nls", "1e200,0"), ("nls", "0,1e200"), ("nls", "inf,0"), ("nls", "nan,0"),
    ("m3q", "1e150,0"), ("m3q", "0,1e150"),
    ("spin", "1e308,0"), ("spin", "nan,0"), ("spin", "0,-inf"),
])
def test_lax_check_bad_lambda_exits_2(tmp_path, capsys, cfg_name, lam):
    """A non-finite lambda, or one whose c lam^2 + d lam or q-side flatness
    residual overflows, is a validation error naming the flag."""
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


def test_equiv_check_one_size_ladder_writes_strict_json(spin_run, tmp_path):
    """No order can be fitted to one grid size: the report says null, not NaN."""
    assert main(["--output-dir", str(tmp_path), "equiv-check", "spinrun", "--ladder", "16"]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    rep = json.loads((spin_run / "equiv_report.json").read_text(), parse_constant=reject)
    assert rep["order"] is None
    assert len(rep["ladder"]) == 1


def test_lambda_check(capsys):
    assert main(["lambda-check", "--n", "1", "--k", "2", "--a", "1",
                 "--c", "0.5", "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "residual_analytic" in out
    rows = [line for line in out.splitlines() if line and not line.startswith(("y,", "#"))]
    assert all(float(r.split(",")[2]) < 1e-12 for r in rows)


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
], ids=["spin-save_every-0", "nls-save_every-0", "spin-t_end-0", "nls-t_end-0",
        "spin-t_end-negative", "nls-t_end-negative", "spin-dt-negative",
        "spin-init-unknown-key", "nls-init-unknown-key",
        "spin-scheme-foo", "nls-scheme-foo",
        "spin-params-c-nan", "nls-params-d-inf", "spin-init-inf"])
def test_bad_run_config_exits_2(tmp_path, capsys, command, cfg_text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(cfg_text)
    assert main(["--output-dir", str(tmp_path), command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
], ids=["garbage", "not-an-object", "no-config", "partial-config", "no-times", "no-slices",
        "times-slices-mismatch"])
def test_bad_run_dir_exits_2(tmp_path, capsys, meta_text):
    run = tmp_path / "run"
    run.mkdir()
    (run / "meta.json").write_text(meta_text)
    assert main(["--output-dir", str(tmp_path), "charges", "run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _damage_slice(run, damage):
    """Rewrite the middle slice of a run: "comps" drops its last component,
    "grid" writes the same values on a domain of another length."""
    meta = json.loads((run / "meta.json").read_text())
    path = run / meta["slices"][len(meta["slices"]) // 2]
    grid, data = read_mfld1(path)
    if damage == "comps":
        write_mfld1(path, grid, data[..., :-1])
    else:
        write_mfld1(path, Grid2(grid.nx, grid.ny, 2.0 * grid.lx, grid.ly), data)
    return path.name


@pytest.mark.parametrize("damage", ["comps", "grid"])
@pytest.mark.parametrize("side, extra", [
    ("spin", ["frame"]), ("spin", ["charges"]),
    ("spin", ["lax-check", "--lambda", "0.4,0.2", "--spin-side"]),
    ("nls", ["lax-check", "--lambda", "0.3,0.1"]),
], ids=["frame", "charges", "lax-check-spin", "lax-check-q"])
def test_bad_slice_exits_2_naming_the_file(tmp_path, capsys, side, extra, damage):
    """Every slice a command reads is checked against the run's grid and layout."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SPIN_CFG if side == "spin" else NLS_CFG)
    assert main(["--output-dir", str(tmp_path), f"simulate-{side}", str(cfg)]) == 0
    run = tmp_path / f"{side}run"
    name = _damage_slice(run, damage)
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), extra[0], str(run.name), *extra[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert name in err and "components on Grid2" in err


def test_missing_slice_exits_2(spin_run, tmp_path, capsys):
    meta = json.loads((spin_run / "meta.json").read_text())
    (spin_run / meta["slices"][0]).unlink()
    assert main(["--output-dir", str(tmp_path), "charges", "spinrun"]) == 2
    assert meta["slices"][0] in capsys.readouterr().err


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
        data[..., 0:3] = (0.0, 0.0, 1.0)
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


def _blow_up_config(tmp_path):
    """An M3q run from a large smooth q, which overflows within a few steps."""
    grid = Grid2(32, 32)
    q = smooth_complex(grid, np.random.default_rng(3), scale=6.0)
    write_mfld1(tmp_path / "q0.mfld1", grid, np.stack([q.real, q.imag], axis=-1))
    return _config(tmp_path, _with(NLS_CFG, model="M3q", **{
        "params.c": 0.3, "nls.init": tmp_path / "q0.mfld1",
        "nls.init.amplitude": None, "nls.init.k1": None, "nls.init.k2": None}))


EXIT_CASES = {
    ("simulate-spin", 0): lambda t: ["simulate-spin", _config(t, SPIN_CFG)],
    ("simulate-spin", 2): lambda t: ["simulate-spin", _config(t, _with(SPIN_CFG, save_every=0))],
    ("simulate-spin", 3): lambda t: ["simulate-spin", _config(t, _with(
        SPIN_CFG, **{"spin.init": "uniform", "spin.init.eps": None, "spin.init.kappa": None}))],
    ("simulate-nls", 0): lambda t: ["simulate-nls", _config(t, NLS_CFG)],
    ("simulate-nls", 2): lambda t: ["simulate-nls", _config(t, _with(NLS_CFG, scheme="foo"))],
    ("simulate-nls", 3): lambda t: ["simulate-nls", _blow_up_config(t)],
    ("frame", 0): lambda t: ["frame", _run(t, "simulate-spin", SPIN_CFG, "spinrun")],
    ("frame", 2): lambda t: ["frame", _run(t, "simulate-nls", NLS_CFG, "nlsrun")],
    ("frame", 3): lambda t: ["frame", _flat_spin_run(t)],
    ("equiv-check", 0): lambda t: ["equiv-check", _run(t, "simulate-spin", SPIN_CFG, "spinrun"),
                                   "--ladder", "16,24"],
    ("equiv-check", 2): lambda t: ["equiv-check", _run(t, "simulate-spin", SPIN_CFG, "spinrun"),
                                   "--ladder", "16,x"],
    ("equiv-check", 3): lambda t: ["equiv-check", _uniform_config_run(t), "--ladder", "16,24"],
    ("lax-check", 0): lambda t: ["lax-check", _run(t, "simulate-nls", NLS_CFG, "nlsrun"),
                                 "--lambda", "0.3,0.1"],
    ("lax-check", 2): lambda t: ["lax-check", _run(t, "simulate-nls", NLS_CFG, "nlsrun"),
                                 "--lambda", "0.3"],
    ("charges", 0): lambda t: ["charges", _run(t, "simulate-spin", SPIN_CFG, "spinrun")],
    ("charges", 2): lambda t: ["charges", "no-such-run"],
    ("charges", 3): lambda t: ["charges", _flat_spin_run(t)],
    ("lambda-check", 0): lambda t: ["lambda-check", "--n", "1", "--k", "2", "--a", "1",
                                    "--samples", "2"],
    ("lambda-check", 2): lambda t: ["lambda-check", "--n", "0", "--k", "2", "--a", "1"],
    ("selftest", 0): lambda t: ["selftest"],
}


def test_exit_table_covers_every_subcommand():
    commands = set(build_parser()._subparsers._group_actions[0].choices)
    assert {command for command, _ in EXIT_CASES} == commands


@pytest.mark.parametrize("command, code", sorted(EXIT_CASES),
                         ids=[f"{c}-{k}" for c, k in sorted(EXIT_CASES)])
def test_exit_code_table(tmp_path, capsys, command, code):
    """Exit 0 on a valid call, 2 on a validation error, 3 on a numerical abort."""
    argv = EXIT_CASES[command, code](tmp_path)
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), *argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith({0: "", 2: "error: ", 3: "numerical abort: "}[code])
    if code == 0:
        assert err == ""
