import numpy as np
import pytest

from m3lab.errors import ConfigError, FieldError, M3LabError
from m3lab.fields import (
    DENSE_MAX_N,
    Grid2,
    _spectral_antideriv,
    _spectral_deriv,
    cross3,
    cross_planes,
    ddx,
    ddx_stack,
    ddy,
    ddy_stack,
    dot_planes,
    integrate2,
    inv_dx,
    meanx,
    read_mfld1,
    write_mfld1,
)
from m3lab.spin import SpinParams, make_state, spin_rhs

from conftest import band_limited, smooth_spin

TWO_PI = 2.0 * np.pi
ABOVE = 2 * DENSE_MAX_N      # an axis length on the rfft branch


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


def _complex_deriv(f, k, axis):
    """The full complex-FFT derivative of a real field, real part kept."""
    shape = [1] * f.ndim
    shape[axis] = k.size
    return np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(f, axis=axis), axis=axis).real


def _complex_inv_dx(f, k):
    """The full complex-FFT zero-mean x-antiderivative of a real field."""
    shape = [1] * f.ndim
    shape[1] = k.size
    with np.errstate(divide="ignore", invalid="ignore"):
        ghat = np.fft.fft(f, axis=1) / (1j * k.reshape(shape))
    ghat[:, 0, ...] = 0.0
    return np.fft.ifft(ghat, axis=1).real


@pytest.mark.parametrize("nx, ny", [(32, 32), (33, 33), (32, 33)])
def test_real_path_matches_complex_fft(nx, ny):
    # even n drops the Nyquist mode, whose complex-path contribution is imaginary
    g = Grid2(nx, ny, lx=2.0, ly=3.0)
    kx = TWO_PI * np.fft.fftfreq(nx, d=g.hx)
    ky = TWO_PI * np.fft.fftfreq(ny, d=g.hy)
    X, Y = g.meshgrid()
    f = np.exp(np.sin(TWO_PI * X / g.lx) + 0.5 * np.cos(2 * TWO_PI * Y / g.ly))
    vec = np.stack([f, f * np.cos(TWO_PI * Y / g.ly), np.sin(TWO_PI * (X / g.lx - Y / g.ly))],
                   axis=-1)
    for field in (f, vec):
        assert np.max(np.abs(ddx(g, field) - _complex_deriv(field, kx, 1))) < 1e-12
        assert np.max(np.abs(ddy(g, field) - _complex_deriv(field, ky, 0))) < 1e-12
        assert np.max(np.abs(inv_dx(g, field).field - _complex_inv_dx(field, kx))) < 1e-12


def test_cross3_equals_np_cross_bitwise(rng):
    a, b = rng.standard_normal((2, 16, 16, 3))
    assert np.array_equal(cross3(a, b), np.cross(a, b))


def test_plane_products_into_given_arrays_bitwise(rng):
    """cross_planes and dot_planes give the same bits into given output and
    scratch arrays as into new ones, and the textbook expressions."""
    a, b = rng.standard_normal((2, 3, 16, 12))
    out, tmp = np.empty((3, 16, 12)), np.empty((16, 12))
    want = np.cross(np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1))
    assert np.array_equal(np.moveaxis(cross_planes(a, b), 0, -1), want)
    assert cross_planes(a, b, out, tmp) is out
    assert np.array_equal(np.moveaxis(out, 0, -1), want)
    dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    assert np.array_equal(dot_planes(a, b), dot)
    assert dot_planes(a, b, tmp, out[0]) is tmp
    assert np.array_equal(tmp, dot)


def _counting(monkeypatch, names):
    """Count calls of the numpy.fft functions `names`; returns the live counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(np.fft, name, counted(name))
    return calls


def test_spin_rhs_makes_no_complex_transforms(rng, monkeypatch):
    """No complex transform on either branch; real transforms only above DENSE_MAX_N."""
    par = SpinParams(c=0.3, d=1.0, l=0.2, model="M3")
    for n, real in ((64, False), (ABOVE, True)):
        g = Grid2(n, n)
        S = smooth_spin(g, rng)
        spin_rhs(g, S, par)  # the operator matrices are built before counting
        with monkeypatch.context() as m:
            calls = _counting(m, ("fft", "ifft", "rfft"))
            spin_rhs(g, S, par)
        assert calls["fft"] == calls["ifft"] == 0
        assert (calls["rfft"] > 0) == real


def test_spin_kernel_transforms_contiguous_planes(rng, monkeypatch):
    """spin_rhs and make_state transform 2-D planes only, never (ny, nx, 3)
    lanes or (3, ny, nx) stacks; a grid whose axes are all on the dense
    branch makes no transform at all."""
    par = SpinParams(c=0.3, d=1.0, l=0.2, model="M3")
    for g, transforms in ((Grid2(32, 40), False), (Grid2(ABOVE, ABOVE + 8), True)):
        S = smooth_spin(g, rng)
        make_state(g, S, par)  # the operator matrices are built before recording
        seen = []

        def recorded(fn, kind):
            def wrapper(a, *args, **kwargs):
                seen.append((kind, a.shape, a.flags.c_contiguous))
                return fn(a, *args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            for name in ("rfft", "irfft"):
                m.setattr(np.fft, name, recorded(getattr(np.fft, name), name))
            spin_rhs(g, S, par)
            make_state(g, S, par)
        if not transforms:
            assert seen == []
            continue
        assert {kind for kind, _, _ in seen} == {"rfft", "irfft"}
        assert all(len(shape) == 2 for _, shape, _ in seen)
        assert all(contiguous for kind, _, contiguous in seen if kind == "rfft")


def _reference(op, g, f):
    """The rfft definition of ddx / ddy / inv_dx on a real field."""
    if op is inv_dx:
        return _spectral_antideriv(f, g.hx)
    if op is ddx:
        return _spectral_deriv(f, g.hx, axis=1)
    return _spectral_deriv(f, g.hy, axis=0)


def _smooth(g, comps=()):
    """exp of a few low modes, times a different mode per component."""
    X, Y = g.meshgrid()
    x, y = TWO_PI * X / g.lx, TWO_PI * Y / g.ly
    f = np.exp(np.sin(x) + 0.5 * np.cos(2 * y) + 0.3 * np.sin(x - y))
    out = np.empty(f.shape + comps)
    for i, idx in enumerate(np.ndindex(comps)):
        out[(...,) + idx] = f * np.cos((i + 1) * x + i * y)
    return out if comps else f


@pytest.mark.parametrize("nx, ny", [(32, 32), (33, 33), (32, 40), (128, 128), (ABOVE, ABOVE)])
@pytest.mark.parametrize("comps", [(), (3,), (3, 3)], ids=["scalar", "vector", "matrix"])
def test_dense_path_matches_rfft(nx, ny, comps):
    g = Grid2(nx, ny, lx=2.0, ly=3.0)
    f = _smooth(g, comps)
    for op in (ddx, ddy, inv_dx):
        got = op(g, f)
        got = got.field if op is inv_dx else got
        ref = _reference(op, g, f)
        scale = np.max(np.abs(f if op is inv_dx else ref))
        assert got.shape == f.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - ref)) < 1e-13 * scale


@pytest.mark.parametrize("nx, ny", [(32, 32), (33, 33), (32, 40), (ABOVE, ABOVE + 8)])
def test_complex_field_is_differentiated_by_parts(nx, ny):
    """A complex field's ddx / ddy / inv_dx is the real operator on its real and
    imaginary parts, and commutes with conjugation, also on the Nyquist mode of
    an even axis (the field carries one along each axis)."""
    g = Grid2(nx, ny, lx=2.0, ly=3.0)
    X, Y = g.meshgrid()
    alternating = (-1.0) ** np.arange(nx) + (-1.0) ** np.arange(ny)[:, None]
    f = _smooth(g) * np.exp(1j * TWO_PI * (X / g.lx - 2 * Y / g.ly)) + 0.1 * (1 + 1j) * alternating
    for op in (ddx, ddy, inv_dx):
        def apply(a):
            return op(g, a).field if op is inv_dx else op(g, a)
        got = apply(f)
        scale = np.max(np.abs(f if op is inv_dx else got))
        assert np.max(np.abs(got - (apply(f.real) + 1j * apply(f.imag)))) < 1e-13 * scale
        assert np.max(np.abs(apply(np.conj(f)) - np.conj(got))) < 1e-13 * scale


@pytest.mark.parametrize("nx, ny", [(32, 64), (33, 40), (ABOVE, ABOVE)])
def test_constant_along_axis_maps_to_zero(nx, ny):
    g = Grid2(nx, ny)
    X, Y = g.meshgrid()
    along_x = np.stack([np.cos(TWO_PI * Y / g.ly) + 3.0, np.exp(Y)], axis=-1)
    along_y = np.sin(TWO_PI * X / g.lx) - 0.7
    assert np.all(ddx(g, along_x) == 0.0)
    assert np.all(inv_dx(g, along_x).field == 0.0)
    assert np.all(ddy(g, along_y) == 0.0)
    # the discarded row mean is that of the unshifted integrand, also when
    # the integrand is its own work array
    mean = np.squeeze(meanx(along_x), axis=1)
    assert np.array_equal(inv_dx(g, along_x).row_mean, mean)
    plane = np.exp(np.cos(TWO_PI * Y / g.ly)) + np.sin(TWO_PI * X / g.lx)
    want = inv_dx(g, plane)
    scratch = plane.copy()
    got = inv_dx(g, scratch, work=scratch)
    assert np.array_equal(got.field, want.field)
    assert np.array_equal(got.row_mean, want.row_mean)


@pytest.mark.parametrize("nx, ny", [(32, 32), (33, 40), (ABOVE, 64)])
def test_plane_derivative_is_its_vector_slice(nx, ny):
    """Bit for bit: a component plane, the (ny, nx, *comps) field it came
    from and the (comps, ny, nx) stack it sits in give the same numbers."""
    g = Grid2(nx, ny)
    for comps in ((3,), (3, 3)):
        f = _smooth(g, comps)
        P = np.moveaxis(f.reshape(ny, nx, -1), -1, 0).copy()
        for op, stack in ((ddx, ddx_stack), (ddy, ddy_stack), (inv_dx, None)):
            whole = op(g, f)
            whole = whole.field if op is inv_dx else whole
            stacked = stack(g, P) if stack else None
            for i, idx in enumerate(np.ndindex(comps)):
                plane = op(g, f[(...,) + idx])
                plane = plane.field if op is inv_dx else plane
                assert np.array_equal(plane, whole[(...,) + idx])
                if stack:
                    assert np.array_equal(plane, stacked[i])


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


def test_mfld1_non_finite_payload_rejected(tmp_path, grid):
    data = np.zeros((grid.ny, grid.nx))
    data[2, 5] = np.nan
    path = tmp_path / "nan.mfld1"
    write_mfld1(path, grid, data)
    with pytest.raises(FieldError, match="non-finite"):
        read_mfld1(path)


def test_mfld1_trailing_bytes_rejected(tmp_path, grid):
    path = tmp_path / "long.mfld1"
    write_mfld1(path, grid, np.zeros((grid.ny, grid.nx)))
    with open(path, "ab") as fh:
        fh.write(b"junk")
    with pytest.raises(FieldError, match="trailing"):
        read_mfld1(path)


@pytest.mark.parametrize("header", [b"MFLD1 8 x 1 1 1\n", b"\xff\xfe\n",
                                    b"MFLD1 8 8 1 nan 1\n"], ids=["int", "non-ascii", "nan-length"])
def test_mfld1_bad_header_rejected(tmp_path, header):
    path = tmp_path / "bad.mfld1"
    path.write_bytes(header + bytes(8 * 64))
    with pytest.raises(M3LabError):
        read_mfld1(path)


def test_mfld1_header_format(tmp_path):
    g = Grid2(8, 16, lx=1.5, ly=2.5)
    path = tmp_path / "h.mfld1"
    write_mfld1(path, g, np.zeros((16, 8)))
    header = path.read_bytes().split(b"\n", 1)[0].split()
    assert header[0] == b"MFLD1"
    assert [int(header[1]), int(header[2]), int(header[3])] == [8, 16, 1]
