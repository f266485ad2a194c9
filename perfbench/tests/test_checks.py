"""Tests of the benchmark's own numerics and output checks.

    python3 -m pytest perfbench/tests -q

The numerics are held against closed forms.  Each output check passes on a
small real m3lab run and fails once that output is deliberately corrupted.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from m3lab import cli  # noqa: E402

TWO_PI = 2.0 * math.pi


def grid(nx, ny, lx=TWO_PI, ly=TWO_PI):
    return np.meshgrid(np.arange(nx) * lx / nx, np.arange(ny) * ly / ny)


# ---------------------------------------------------------------------------
# Independent numerics against closed forms
# ---------------------------------------------------------------------------

def test_spectral_derivative_matches_closed_form():
    lx, ly = TWO_PI, 2.0 * TWO_PI
    X, Y = grid(32, 48, lx, ly)
    f = np.sin(2 * X) * np.cos(1.5 * Y) + np.cos(3 * X)
    assert np.max(np.abs(checks.dx(f, lx) - (2 * np.cos(2 * X) * np.cos(1.5 * Y)
                                             - 3 * np.sin(3 * X)))) < 1e-12
    assert np.max(np.abs(checks.dy(f, ly) + 1.5 * np.sin(2 * X) * np.sin(1.5 * Y))) < 1e-12
    vec = np.stack([f, np.exp(1j * (X + Y / 2))], axis=-1)
    want = 1j * 0.5 * np.exp(1j * (X + Y / 2))
    assert np.max(np.abs(checks.dy(vec, ly)[..., 1] - want)) < 1e-12


def test_order_fit_recovers_power_law():
    hs = [0.2, 0.1, 0.05]
    assert checks.fit_order(hs, [3.0 * h**2 for h in hs]) == pytest.approx(2.0, abs=1e-12)
    assert checks.fit_order(hs, [h**1.5 for h in hs]) == pytest.approx(1.5, abs=1e-12)


def test_quadrature_and_degree():
    X, Y = grid(40, 40)
    assert checks.quad2(np.sin(X) ** 2 * np.cos(Y) ** 2) == pytest.approx(math.pi**2, rel=1e-13)
    S = workloads.lump_initial(3, 128)
    assert checks.degree(S) == pytest.approx(1.0, abs=1e-6)
    S[..., 0] *= -1.0  # a reflection reverses the orientation
    assert checks.degree(S) == pytest.approx(-1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Small real runs
# ---------------------------------------------------------------------------

def m3lab(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


def write_cfg(path, values):
    with open(path, "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in values.items())
    return str(path)


@pytest.fixture(scope="module")
def spin_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("spin")
    cfg = write_cfg(base / "spin.cfg", {
        "grid.nx": 32, "grid.ny": 32, "model": "M3", "params.c": 0.3,
        "spin.init": "modulated-helix", "spin.init.eps": 0.05,
        "t_end": 0.05, "save_every": 5, "output_dir": "helix"})
    m3lab("--output-dir", str(base), "simulate-spin", cfg)
    return str(base / "helix")


@pytest.fixture(scope="module")
def nls_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("nls")
    q0 = workloads.nls_initial(5, 32)
    dt = 0.2 * (TWO_PI / workloads.NLS_N) ** 2  # the workload's step, so drift is as small
    checks.write_mfld1(str(base / "q0.mfld1"), np.stack([q0.real, q0.imag], axis=-1))
    cfg = write_cfg(base / "nls.cfg", {
        "grid.nx": 32, "grid.ny": 32, "model": "M3q", "params.c": 0.3,
        "nls.init": base / "q0.mfld1", "dt": dt, "t_end": 20 * dt, "save_every": 2,
        "output_dir": "flat"})
    lams = workloads.lambda_scan(5)[:6]
    m3lab("--output-dir", str(base), "simulate-nls", cfg)
    m3lab("--output-dir", str(base), "lax-check", "flat",
          *[f"--lambda={z.real!r},{z.imag!r}" for z in lams])
    return str(base / "flat"), lams


@pytest.fixture(scope="module")
def lump_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("lump")
    checks.write_mfld1(str(base / "lump0.mfld1"), workloads.lump_initial(2, 64))
    cfg = write_cfg(base / "lump.cfg", {
        "grid.nx": 64, "grid.ny": 64, "model": "M3", "params.c": 0.25,
        "spin.init": base / "lump0.mfld1", "t_end": 0.004, "save_every": 1,
        "output_dir": "lump"})
    for argv in (["simulate-spin", cfg], ["frame", "lump"], ["charges", "lump"]):
        m3lab("--output-dir", str(base), *argv)
    return str(base / "lump")


def corrupted(run, tmp_path, name, edit):
    """Copy of a run directory with one MFLD1 slice edited in place."""
    dst = str(tmp_path / "bad")
    shutil.copytree(run, dst)
    path = os.path.join(dst, name)
    nx, ny, lx, ly, data = checks.read_mfld1(path)
    data = data.copy()
    edit(data)
    checks.write_mfld1(path, data, lx, ly)
    return dst


def edit_json(run, tmp_path, name, edit):
    dst = str(tmp_path / "bad")
    shutil.copytree(run, dst)
    path = os.path.join(dst, name)
    with open(path) as fh:
        rep = json.load(fh)
    edit(rep)
    with open(path, "w") as fh:
        json.dump(rep, fh)
    return dst


def flip(comp):
    def edit(d):
        d[..., comp] *= -1.0
    return edit


def test_unit_spin(spin_run, tmp_path):
    assert checks.unit_spin(spin_run) == []

    def stretch(d):
        d[3, 4, 2] *= 1.001
    assert checks.unit_spin(corrupted(spin_run, tmp_path, "spin_000001.mfld1", stretch))


def test_u_constraint(spin_run, tmp_path):
    assert checks.u_constraint(spin_run) == []
    assert checks.u_constraint(corrupted(spin_run, tmp_path, "spin_000001.mfld1", flip(0)))


def test_ladder_and_diagnostics(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    hs = [0.2, 0.1, 0.05]
    rs = [1e-3 * (h / 0.2) ** 2 * (1 + 0.01 * i) for i, h in enumerate(hs)]
    with open(run / "equiv_report.json", "w") as fh:
        json.dump({"ladder": [[h, r] for h, r in zip(hs, rs)],
                   "order": checks.fit_order(hs, rs), "v_cross": 3e-15,
                   "obstruction": {"fold_defect": -6e-17}}, fh)
    assert checks.ladder(str(run)) == []
    assert checks.equiv_diagnostics(str(run)) == []

    def scale_last(rep):
        rep["ladder"][2][1] *= 10.0
    assert checks.ladder(edit_json(str(run), tmp_path, "equiv_report.json", scale_last))
    shutil.rmtree(tmp_path / "bad")

    def scale_cross(rep):
        rep["v_cross"] *= 1e4
    assert checks.equiv_diagnostics(edit_json(str(run), tmp_path, "equiv_report.json",
                                              scale_cross))


def test_identical(spin_run, tmp_path):
    assert checks.identical(spin_run, spin_run) == []
    assert checks.identical(spin_run, corrupted(spin_run, tmp_path, "spin_000001.mfld1", flip(1)))


def scale_q(d):
    d[..., 0:4] *= 1.0 + 1e-9


@pytest.mark.parametrize("edit", [
    flip(3),      # Im p sign-flipped: p != beta conj q
    flip(4),      # v sign-flipped: v_x != (pq)_y
    scale_q,      # q and p rescaled on one slice: the mass jumps
])
def test_nls_slices(nls_run, tmp_path, edit):
    run, _ = nls_run
    assert checks.nls_slices(run, 1) == []
    assert checks.nls_slices(corrupted(run, tmp_path, "nls_000003.mfld1", edit), 1)


@pytest.mark.parametrize("key, value", [("residual", lambda r: r * 1.001),
                                        ("trace_V", lambda r: 1e-11)])
def test_flatness(nls_run, tmp_path, key, value):
    run, lams = nls_run
    assert checks.flatness(run, lams) == []

    def edit(rep):
        rep["results"][2][key] = value(rep["results"][2][key])
    assert checks.flatness(edit_json(run, tmp_path, "lax_report.json", edit), lams)


def test_lump_degree(lump_run, tmp_path):
    qs = checks.degrees(lump_run)
    assert checks.lump_degree(qs) == []
    assert checks.reported_q1(lump_run, "invariants.csv", qs) == []
    bad = checks.degrees(corrupted(lump_run, tmp_path, "spin_000002.mfld1", flip(0)))
    assert checks.lump_degree(bad)
    assert checks.reported_q1(lump_run, "charges.csv", bad)


def test_frames_orthonormal(lump_run, tmp_path):
    assert checks.frames_orthonormal(lump_run) == []
    assert checks.frames_orthonormal(corrupted(lump_run, tmp_path, "frame_000001.mfld1",
                                               flip(4)))


def test_reported_q1_scaled(lump_run, tmp_path):
    qs = checks.degrees(lump_run)
    assert checks.reported_q1(lump_run, "charges.csv", qs) == []
    dst = str(tmp_path / "bad")
    shutil.copytree(lump_run, dst)
    path = os.path.join(dst, "charges.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    row = lines[2].split(",")
    row[7] = repr(float(row[7]) * (1 + 1e-6))
    lines[2] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert checks.reported_q1(dst, "charges.csv", qs)


# ---------------------------------------------------------------------------
# Span tracer
# ---------------------------------------------------------------------------

def test_tracer_self_time_is_inclusive_minus_children():
    import spans
    tr = spans.Tracer()
    inner = tr._wrap("x.inner", lambda: sum(range(1000)))

    def body():
        inner()
        inner()
    tr._wrap("x.outer", body)()
    got = tr.take()["spans"]
    assert got["x.inner"]["calls"] == 2 and got["x.outer"]["calls"] == 1
    assert got["x.inner"]["self_s"] == got["x.inner"]["incl_s"]
    assert got["x.outer"]["self_s"] == pytest.approx(
        got["x.outer"]["incl_s"] - got["x.inner"]["incl_s"], abs=1e-12)
    assert tr.take() == {"spans": {}, "counts": {}}


def test_tracer_install_traces_imported_names():
    """Calls through `from .fields import ddx` in spin are seen, FFTs counted."""
    import subprocess
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1])\n"
        "from m3lab import (cli, convergence, equivalence, fields, frames,\n"
        "                   invariants, lax, nls, spin)\n"
        "import spans\n"
        "tr = spans.Tracer(); tr.install()\n"
        "g = fields.Grid2(16, 16)\n"
        "spin.solve_u(g, spin.init_modulated_helix(g))\n"
        "print(json.dumps(tr.take()))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(BENCH), "src"))
    out = subprocess.run([sys.executable, "-c", code, BENCH], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    got = json.loads(out.stdout)
    assert got["spans"]["spin.solve_u"]["calls"] == 1
    assert got["spans"]["fields.ddx"]["calls"] == 1 and got["spans"]["fields.ddy"]["calls"] == 1
    # ddx, ddy and inv_dx: one forward and one inverse 1-D FFT each
    assert got["counts"]["fields.fft.calls"] == 6
    assert got["counts"]["fields.fft.points"] == 2 * (16 * 16 * 3 * 2 + 16 * 16)
