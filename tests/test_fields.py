import numpy as np
import pytest

from m3lab.errors import ConfigError, FieldError
from m3lab.fields import (
    Grid2,
    ddx,
    ddy,
    integrate2,
    inv_dx,
    meanx,
    read_mfld1,
    write_csv,
    write_mfld1,
)

from conftest import band_limited


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid2(4, 64)
    with pytest.raises(ConfigError):
        Grid2(64, 64, lx=-1.0)
    g = Grid2(32, 16, lx=1.0, ly=2.0)
    assert g.hx == pytest.approx(1.0 / 32)
    assert g.hy == pytest.approx(2.0 / 16)


def test_ddx_zero_field(grid):
    assert np.all(ddx(grid, np.zeros((grid.ny, grid.nx))) == 0.0)


def test_unknown_scheme_rejected(grid):
    f = np.zeros((grid.ny, grid.nx))
    for deriv in (ddx, ddy):
        with pytest.raises(ConfigError):
            deriv(grid, f, "foo")


def test_ddx_spectral_analytic(grid):
    X, _ = grid.meshgrid()
    f = np.sin(2 * np.pi * X / grid.lx)
    expect = (2 * np.pi / grid.lx) * np.cos(2 * np.pi * X / grid.lx)
    assert np.max(np.abs(ddx(grid, f) - expect)) < 1e-10


def test_ddy_spectral_analytic(grid):
    _, Y = grid.meshgrid()
    f = np.cos(3 * 2 * np.pi * Y / grid.ly)
    expect = -(6 * np.pi / grid.ly) * np.sin(3 * 2 * np.pi * Y / grid.ly)
    assert np.max(np.abs(ddy(grid, f) - expect)) < 1e-10


def test_ddx_central4_fourth_order():
    errs = []
    for n in (32, 64):
        g = Grid2(n, n)
        X, _ = g.meshgrid()
        f = np.sin(2 * np.pi * X / g.lx)
        expect = (2 * np.pi / g.lx) * np.cos(2 * np.pi * X / g.lx)
        errs.append(np.max(np.abs(ddx(g, f, "central4") - expect)))
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0


def test_derivatives_commute(grid, rng):
    f = band_limited(grid, rng)
    for scheme in ("spectral", "central4"):
        gap = np.max(np.abs(ddx(grid, ddy(grid, f, scheme), scheme)
                            - ddy(grid, ddx(grid, f, scheme), scheme)))
        assert gap < 1e-12


def test_non_finite_rejected(grid):
    f = np.zeros((grid.ny, grid.nx))
    f[3, 3] = np.nan
    with pytest.raises(FieldError):
        ddx(grid, f)
    with pytest.raises(FieldError):
        inv_dx(grid, f)


def test_inv_dx_zero(grid):
    out = inv_dx(grid, np.zeros((grid.ny, grid.nx)))
    assert np.all(out.field == 0.0)
    assert np.all(out.row_mean == 0.0)


def test_inv_dx_analytic(grid):
    X, _ = grid.meshgrid()
    w = 2 * np.pi / grid.lx
    out = inv_dx(grid, np.cos(w * X))
    assert np.max(np.abs(out.field - np.sin(w * X) / w)) < 1e-12


def test_inv_dx_constant_reports_mean(grid):
    out = inv_dx(grid, np.ones((grid.ny, grid.nx)))
    assert np.max(np.abs(out.field)) < 1e-14
    assert out.row_mean == pytest.approx(np.ones(grid.ny))


def test_inv_dx_round_trip(grid, rng):
    f = band_limited(grid, rng)
    g = inv_dx(grid, f).field
    assert np.max(np.abs(ddx(grid, g) - (f - meanx(f)))) < 1e-10


def test_operations_are_pure(grid, rng):
    f = band_limited(grid, rng)
    assert np.array_equal(ddx(grid, f), ddx(grid, f))
    assert np.array_equal(inv_dx(grid, f).field, inv_dx(grid, f).field)


def test_integrate2_constant():
    g = Grid2(32, 32)  # lx = ly = 2 pi
    assert integrate2(g, np.ones((32, 32))) == pytest.approx(4 * np.pi**2, abs=1e-12)


def test_integrate2_sine(grid):
    X, _ = grid.meshgrid()
    assert abs(integrate2(grid, np.sin(2 * np.pi * X / grid.lx))) < 1e-12


def test_integrate2_sine_squared():
    g = Grid2(32, 32, lx=1.0, ly=1.0)
    X, _ = g.meshgrid()
    val = integrate2(g, np.sin(2 * np.pi * X) ** 2)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_mfld1_round_trip(tmp_path, grid, rng):
    data = np.stack([band_limited(grid, rng) for _ in range(3)], axis=-1)
    path = tmp_path / "field.mfld1"
    write_mfld1(path, grid, data)
    g2, back = read_mfld1(path)
    assert (g2.nx, g2.ny, g2.lx, g2.ly) == (grid.nx, grid.ny, grid.lx, grid.ly)
    assert np.array_equal(back, data)
    # reruns are byte-identical
    path2 = tmp_path / "field2.mfld1"
    write_mfld1(path2, grid, data)
    assert path.read_bytes() == path2.read_bytes()


def test_mfld1_header_format(tmp_path):
    g = Grid2(8, 16, lx=1.5, ly=2.5)
    path = tmp_path / "h.mfld1"
    write_mfld1(path, g, np.zeros((16, 8)))
    header = path.read_bytes().split(b"\n", 1)[0].split()
    assert header[0] == b"MFLD1"
    assert [int(header[1]), int(header[2]), int(header[3])] == [8, 16, 1]


def test_csv_export(tmp_path, grid, rng):
    f = band_limited(grid, rng)
    write_csv(tmp_path / "f.csv", grid, f)
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[0] == "x,y,c0"
    assert len(lines) == 1 + grid.nx * grid.ny
    with pytest.raises(FieldError):
        write_csv(tmp_path / "g.csv", grid, np.zeros((grid.ny, grid.nx, 5)))
