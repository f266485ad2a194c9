import tracemalloc

import numpy as np
import pytest

from m3lab import nls, spin
from m3lab.errors import ConfigError, FieldError, M3LabError, ParameterError, UnstableStepError
from m3lab.fields import (
    DENSE_MAX_N,
    EINSUM_ORDER,
    MAX_CELLS,
    RK4_LIMIT,
    STEP_SAFETY,
    Grid2,
    _deriv,
    _inv_dx,
    _spectral_antideriv,
    _spectral_deriv,
    check_mode,
    checked_dt,
    cross_planes,
    ddx,
    ddy,
    default_dt,
    dot3,
    integrate2,
    inv_dx,
    march,
    max_dt,
    meanx,
    norm3,
    read_mfld1,
    rk4,
    spectral_tail,
    write_mfld1,
)
from m3lab.nls import NlsParams, nls_rhs, solve_v_nls
from m3lab.spin import SpinParams, make_state, spin_rhs

from conftest import band_limited, smooth_complex, smooth_spin

TWO_PI = 2.0 * np.pi
ABOVE = 2 * DENSE_MAX_N      # an axis length on the rfft branch


def test_grid_validation():
    """Fewer than 8 points on an axis, a length that is not positive and
    finite, or more than MAX_CELLS points (4096 x 2048 is exactly that
    many) are refused as the grid is made."""
    with pytest.raises(ConfigError):
        Grid2(4, 64)
    with pytest.raises(ConfigError):
        Grid2(64, 64, lx=-1.0)
    assert 4096 * Grid2(4096, 2048).ny == MAX_CELLS
    with pytest.raises(ConfigError, match=f"grid of 4096 x 2049 points exceeds {MAX_CELLS}"):
        Grid2(4096, 2049)
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


@pytest.mark.parametrize("shape", [(64, 64, 3), (64, 3), (3, 64, 32), (64,)],
                         ids=["field", "lanes", "other-grid", "row"])
def test_array_off_the_grid_axes_is_refused(tmp_path, grid, shape):
    """ddx, ddy, inv_dx, integrate2 and write_mfld1 act on the last two
    axes: an array whose trailing dims are not (ny, nx), such as a
    (ny, nx, 3) field, is refused (FieldError) rather than differentiated
    along its component axis."""
    f = np.zeros(shape)
    for op in (ddx, ddy, inv_dx, integrate2):
        with pytest.raises(FieldError, match=r"not \(\.\.\., 64, 64\)"):
            op(grid, f)
    with pytest.raises(FieldError, match="no plane or stack"):
        write_mfld1(tmp_path / "f.mfld1", grid, f)
    assert not (tmp_path / "f.mfld1").exists()


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
    """The full complex-FFT zero-mean x-antiderivative of a real field or stack."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ghat = np.fft.fft(f) / (1j * k)
    ghat[..., 0] = 0.0
    return np.fft.ifft(ghat).real


@pytest.mark.parametrize("nx, ny", [(32, 32), (33, 33), (32, 33)])
def test_real_path_matches_complex_fft(nx, ny):
    # even n drops the Nyquist mode, whose complex-path contribution is imaginary
    g = Grid2(nx, ny, lx=2.0, ly=3.0)
    kx = TWO_PI * np.fft.fftfreq(nx, d=g.hx)
    ky = TWO_PI * np.fft.fftfreq(ny, d=g.hy)
    X, Y = g.meshgrid()
    f = np.exp(np.sin(TWO_PI * X / g.lx) + 0.5 * np.cos(2 * TWO_PI * Y / g.ly))
    vec = np.stack([f, f * np.cos(TWO_PI * Y / g.ly), np.sin(TWO_PI * (X / g.lx - Y / g.ly))])
    for field in (f, vec):
        assert np.max(np.abs(ddx(g, field) - _complex_deriv(field, kx, -1))) < 1e-12
        assert np.max(np.abs(ddy(g, field) - _complex_deriv(field, ky, -2))) < 1e-12
        assert np.max(np.abs(inv_dx(g, field).field - _complex_inv_dx(field, kx))) < 1e-12


def test_cross3_equals_np_cross_bitwise(rng):
    """The cross product of two 3-vector stacks is np.cross over their
    component axis, bit for bit."""
    a, b = rng.standard_normal((2, 3, 16, 16))
    assert np.array_equal(cross_planes(a, b), np.cross(a, b, axis=0))


def test_plane_products_into_given_arrays_bitwise(rng):
    """cross_planes and dot3 give the same bits into given output and
    scratch arrays as into new ones, and the textbook expressions."""
    a, b = rng.standard_normal((2, 3, 16, 12))
    out, tmp = np.empty((3, 16, 12)), np.empty((16, 12))
    want = np.cross(a, b, axis=0)
    assert np.array_equal(cross_planes(a, b), want)
    assert cross_planes(a, b, out, tmp) is out
    assert np.array_equal(out, want)
    dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    assert np.array_equal(dot3(a, b, order=(0, 1, 2)), dot)
    assert dot3(a, b, tmp, out[0], (0, 1, 2)) is tmp
    assert np.array_equal(tmp, dot)


@pytest.mark.parametrize("ny, nx", [(8, 8), (33, 40), (256, 256)])
def test_einsum_order_plane_dot_is_dot3(rng, ny, nx):
    """The numpy behaviour the frame layer's bits rest on: einsum sums a
    (ny, nx, 3) field with contiguous components as (a0 b0 + a2 b2) + a1 b1
    and one with strided components (the view of a stack) in component
    order.  dot3 and norm3 of stacks sum in EINSUM_ORDER, the first, so the
    results pinned to einsum on such fields kept their bits on stacks."""
    def einsum_dot(f, g):
        return np.einsum("...k,...k->...", f, g)

    def field(P):
        return np.ascontiguousarray(np.moveaxis(P, 0, -1))

    P, Q = rng.standard_normal((2, 3, ny, nx))
    for f, g in ((P, Q), (P, P)):
        assert np.array_equal(dot3(f, g), einsum_dot(field(f), field(g)))
    assert np.array_equal(norm3(P), np.sqrt(einsum_dot(field(P), field(P))))
    assert np.array_equal(dot3(P, Q, order=(0, 1, 2)),
                          einsum_dot(np.moveaxis(P, 0, -1), np.moveaxis(Q, 0, -1)))
    out, length, tmp = np.empty((3, ny, nx))
    assert dot3(P, Q, out, tmp) is out and norm3(P, length, tmp) is length
    assert np.array_equal(out, dot3(P, Q)) and np.array_equal(length, norm3(P))
    assert EINSUM_ORDER == (0, 2, 1)
    if ny * nx > 1000:  # the two orders part somewhere, so the choice of order is seen
        assert not np.array_equal(out, dot3(P, Q, order=(0, 1, 2)))


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
    """The rfft definition of ddx / ddy / inv_dx on a real field or stack."""
    if op is inv_dx:
        return _spectral_antideriv(f, g.hx)
    if op is ddx:
        return _spectral_deriv(f, g.hx, axis=-1)
    return _spectral_deriv(f, g.hy, axis=-2)


def _smooth(g, comps=()):
    """exp of a few low modes, times a different mode per component: a
    (*comps, ny, nx) stack."""
    X, Y = g.meshgrid()
    x, y = TWO_PI * X / g.lx, TWO_PI * Y / g.ly
    f = np.exp(np.sin(x) + 0.5 * np.cos(2 * y) + 0.3 * np.sin(x - y))
    out = np.empty(comps + f.shape)
    for i, idx in enumerate(np.ndindex(comps)):
        out[idx] = f * np.cos((i + 1) * x + i * y)
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
    along_x = np.stack([np.cos(TWO_PI * Y / g.ly) + 3.0, np.exp(Y)])
    along_y = np.sin(TWO_PI * X / g.lx) - 0.7
    assert np.all(ddx(g, along_x) == 0.0)
    assert np.all(inv_dx(g, along_x).field == 0.0)
    assert np.all(ddy(g, along_y) == 0.0)
    # the discarded row mean is that of the unshifted integrand, also when
    # the integrand is its own work array
    mean = np.squeeze(meanx(along_x), axis=-1)
    assert np.array_equal(inv_dx(g, along_x).row_mean, mean)
    plane = np.exp(np.cos(TWO_PI * Y / g.ly)) + np.sin(TWO_PI * X / g.lx)
    scratch = plane.copy()
    assert np.array_equal(_inv_dx(g, scratch, work=scratch), inv_dx(g, plane).field)


@pytest.mark.parametrize("dtype", [float, complex])
def test_spectral_antiderivative_is_the_spectrum_quotient_bitwise(rng, dtype):
    """On the rfft path, and for a complex field, _inv_dx divides the spectrum
    in place and transforms it back into out: bit for bit the quotient into a
    spectrum of its own, transformed into a new array, written out here."""
    g = Grid2(ABOVE, 40, lx=2.0)
    f = rng.normal(size=(g.ny, g.nx)).astype(dtype)
    if dtype is complex:
        f += 1j * rng.normal(size=f.shape)
    n, real = g.nx, dtype is float
    k = TWO_PI * np.fft.fftfreq(n, d=g.hx)
    k[n // 2] = 0.0
    k = k[:n // 2 + 1] if real else k
    fhat = np.fft.rfft(f, axis=1) if real else np.fft.fft(f, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ghat = fhat / (1j * k)
    ghat[:, k == 0.0] = 0.0
    want = np.fft.irfft(ghat, n=n, axis=1) if real else np.fft.ifft(ghat, axis=1)
    out = np.empty_like(f)
    assert _inv_dx(g, f, out=out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(_inv_dx(g, f), want)


def test_rfft_antiderivative_holds_one_half_spectrum():
    """Into a given out, an rfft-path antiderivative allocates its spectrum
    alone: no quotient beside it, no result to copy."""
    g = Grid2(ABOVE, ABOVE)
    f = _smooth(g)
    out = np.empty_like(f)
    _inv_dx(g, f, out=out)  # fills the wavenumber cache
    tracemalloc.start()
    try:
        _inv_dx(g, f, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * g.ny * (g.nx // 2 + 1)


@pytest.mark.parametrize("nx, ny", [(32, 32), (33, 40), (ABOVE, 64)])
def test_plane_derivative_is_its_vector_slice(nx, ny):
    """Bit for bit: a component plane and the (*comps, ny, nx) stack it sits
    in give the same numbers, through the public operators and through
    _deriv on the stack's planes as one (comps, ny, nx) array."""
    g = Grid2(nx, ny)
    for comps in ((3,), (3, 3)):
        f = _smooth(g, comps)
        P = f.reshape((-1, ny, nx))
        for op, stack in ((ddx, (g.hx, -1)), (ddy, (g.hy, -2)), (inv_dx, None)):
            whole = op(g, f)
            whole = whole.field if op is inv_dx else whole
            stacked = _deriv(P, "spectral", *stack) if stack else None
            for i, idx in enumerate(np.ndindex(comps)):
                plane = op(g, f[idx])
                plane = plane.field if op is inv_dx else plane
                assert np.array_equal(plane, whole[idx])
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
    data = np.stack([band_limited(grid, rng) for _ in range(3)])
    path = tmp_path / "field.mfld1"
    write_mfld1(path, grid, data)
    g2, back = read_mfld1(path)
    assert (g2.nx, g2.ny, g2.lx, g2.ly) == (grid.nx, grid.ny, grid.lx, grid.ly)
    assert np.array_equal(back, data)
    # reruns are byte-identical
    path2 = tmp_path / "field2.mfld1"
    write_mfld1(path2, grid, data)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("layout", ["plane", "strided view"])
def test_mfld1_payload_is_the_little_endian_buffer(tmp_path, layout):
    """The file is the header and the data's <f8 bytes, components
    interleaved point by point: for a stack, also a strided view written
    without a copy of its own, those of the (ny, nx, 3) array of its points."""
    g = Grid2(8, 12, lx=1.5, ly=2.5)
    base = np.arange(3 * g.ny * g.nx, dtype=float)
    points = (base[:g.ny * g.nx].reshape(g.ny, g.nx) if layout == "plane"
              else base.reshape(g.ny, g.nx, 3))
    data = points if layout == "plane" else np.moveaxis(points, -1, 0)
    assert data.flags.c_contiguous == (layout == "plane")
    path = tmp_path / "p.mfld1"
    write_mfld1(path, g, data)
    ncomp = 1 if data.ndim == 2 else 3
    header = f"MFLD1 8 12 {ncomp} {g.lx:.17g} {g.ly:.17g}\n".encode("ascii")
    assert path.read_bytes() == header + points.astype("<f8").tobytes()


def _textbook_rk4(rhs, y, dt):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("dtype", [float, complex])
def test_rk4_in_place_is_the_textbook_step(rng, dtype):
    """rk4 in its work arrays gives the bits of RK4 written out, leaves y
    alone, and takes a rate that reuses one buffer or returns its input."""
    g = Grid2(16, 16)
    dt = 0.25 * g.hx * g.hy
    y = rng.normal(size=(g.ny, g.nx)).astype(dtype)
    y0 = y.copy()
    shared = np.empty_like(y)

    def reused(f):
        return np.multiply(np.sin(f), -3.0, out=shared)

    for rate in (reused, lambda f: f):
        want = _textbook_rk4(lambda f: rate(f).copy(), y, dt)
        work = tuple(np.empty_like(y) for _ in range(3))
        got = rk4(rate, y, dt, work)
        assert got is work[1]
        assert np.array_equal(got, want)
        assert np.array_equal(rk4(rate, y, dt), want)
        assert np.array_equal(y, y0)


def test_march_yields_state_then_kept_steps(grid):
    """march yields the state it is given, then keep(t, diag) after every
    save_every-th step, on the clock of dt; an abort names the step's time."""
    class State:
        t = 0.5

    taken, dt = [], 0.25
    states = march(State(), lambda: taken.append(1) or len(taken),
                   lambda t, diag: (t, diag, len(taken)), dt, 7, 3)
    assert isinstance(next(states), State) and taken == []
    assert list(states) == [(1.25, 3, 3), (2.0, 6, 6)]
    assert len(taken) == 7

    def unstable():
        raise UnstableStepError("went non-finite")

    states = march(State(), unstable, None, dt, 2, 1)
    next(states)
    with pytest.raises(UnstableStepError, match="step from t = 0.5: went non-finite"):
        next(states)


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


# a grid whose 5-component rows go 6 to a read block: blocks of 6, .., 6, 4 rows
BLOCKED = Grid2(256, 40, lx=1.5, ly=2.5)


@pytest.mark.parametrize("damage, message", [
    ("non-finite", "payload contains 2 non-finite entries"),
    ("truncated", "truncated payload"),
    ("trailing", "trailing bytes after the payload"),
    ("header", "not an MFLD1 file"),
    ("header-int", "bad MFLD1 header"),
    ("header-no-comps", "MFLD1 header gives 0 components"),
])
def test_mfld1_stack_read_rejects_what_an_array_read_rejects(tmp_path, damage, message):
    """Read whole or into a (1, ny, nx) stack, a damaged file is refused with
    the same error.  Every component of every block is checked, the ones a
    stack does not keep included (the NaN and the inf sit in the 4th and
    5th component, in two blocks), and the message counts the whole
    payload's entries."""
    data = np.zeros((5, BLOCKED.ny, BLOCKED.nx))
    data[3, 2, 5] = np.nan
    data[4, 37, 0] = np.inf
    path = tmp_path / "f.mfld1"
    write_mfld1(path, BLOCKED, data if damage == "non-finite" else np.zeros_like(data))
    head, body = path.read_bytes().split(b"\n", 1)
    head += b"\n"
    path.write_bytes({"truncated": head + body[:-8], "trailing": head + body + b"junk",
                      "header": b"MFLD2" + head[5:] + body,
                      "header-int": head.replace(b" 40 ", b" 4x ") + body,
                      "header-no-comps": head.replace(b" 5 ", b" 0 ") + body,
                      }.get(damage, head + body))
    errors = []
    for out in (None, np.empty((1, BLOCKED.ny, BLOCKED.nx))):
        with pytest.raises(FieldError) as exc:
            read_mfld1(path, out)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and errors[0].startswith(f"{path}: {message}")


@pytest.mark.parametrize("k", [1, 3, 5])
def test_mfld1_read_into_a_stack(tmp_path, rng, k):
    """A stack of k planes takes the file's first k components bit for bit,
    block by block, and is what the read returns."""
    data = rng.normal(size=(5, BLOCKED.ny, BLOCKED.nx))
    path = tmp_path / "f.mfld1"
    write_mfld1(path, BLOCKED, data)
    out = np.full((k, BLOCKED.ny, BLOCKED.nx), np.nan)
    grid, got = read_mfld1(path, out)
    assert grid == BLOCKED and got is out
    assert np.array_equal(out, data[:k])
    assert np.array_equal(read_mfld1(path)[1], data)


@pytest.mark.parametrize("shape", [(6, 40, 256), (3, 40, 128), (3, 41, 256)])
def test_mfld1_stack_the_file_cannot_fill_is_refused(tmp_path, shape):
    path = tmp_path / "f.mfld1"
    write_mfld1(path, BLOCKED, np.zeros((5, BLOCKED.ny, BLOCKED.nx)))
    with pytest.raises(FieldError, match="cannot fill"):
        read_mfld1(path, np.empty(shape))


def test_mfld1_layout_check_runs_before_the_payload(tmp_path):
    """check(grid, ncomp) sees the header and can refuse the file before a
    payload entry is read: its error, not the non-finite one, is raised."""
    path = tmp_path / "f.mfld1"
    write_mfld1(path, BLOCKED, np.full((5, BLOCKED.ny, BLOCKED.nx), np.nan))
    seen = []

    def check(grid, ncomp):
        seen.append((grid, ncomp))
        raise ConfigError("refused")

    with pytest.raises(ConfigError, match="refused"):
        read_mfld1(path, np.empty((3, BLOCKED.ny, BLOCKED.nx)), check)
    assert seen == [(BLOCKED, 5)]


def test_mfld1_header_format(tmp_path):
    g = Grid2(8, 16, lx=1.5, ly=2.5)
    path = tmp_path / "h.mfld1"
    write_mfld1(path, g, np.zeros((16, 8)))
    header = path.read_bytes().split(b"\n", 1)[0].split()
    assert header[0] == b"MFLD1"
    assert [int(header[1]), int(header[2]), int(header[3])] == [8, 16, 1]


@pytest.mark.parametrize("n, kept, refused", [(16, 7, 8), (17, 8, 9)])
def test_check_mode_refuses_the_nyquist_mode_and_past(n, kept, refused):
    """A mode number must lie below n/2: on an odd axis the last resolved
    mode (n - 1)/2 is kept, on an even one the Nyquist mode n/2 is refused."""
    for m in (kept, -kept):
        check_mode("k", m, n)
    for m in (refused, -refused, refused + n, 10**300):
        with pytest.raises(ParameterError, match=f"k = {m} is at or past"):
            check_mode("k", m, n)


# ---------------------------------------------------------------------------
# the step ceiling and the spectral tail
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nx, ny, lx, ly", [(128, 128, TWO_PI, TWO_PI), (16, 24, 20.0, TWO_PI),
                                            (33, 32, TWO_PI, 3.0)])
def test_step_ceiling_is_rk4s_limit_over_the_top_wavenumbers(nx, ny, lx, ly):
    """max_dt is 2 sqrt 2 / (kx ky) at the largest wavenumbers, with the
    even-n Nyquist entry dropped (0.2957 hx hy at n = 128); checked_dt
    admits it, and the benchmark's explicit 0.2 hx hy, and refuses past it;
    the NLS default is STEP_SAFETY of it."""
    g = Grid2(nx, ny, lx, ly)
    kx, ky = (TWO_PI / length * ((n - 1) // 2) for n, length in ((nx, lx), (ny, ly)))
    assert max_dt(g) == pytest.approx(RK4_LIMIT / (kx * ky), rel=1e-14)
    assert max_dt(g, 2.0, 3.0) == pytest.approx(RK4_LIMIT / (kx * ky + 2.0 * kx + 3.0 * ky),
                                                rel=1e-14)
    if nx == ny == 128:
        assert max_dt(g) / (g.hx * g.hy) == pytest.approx(0.29575, abs=1e-5)
    assert default_dt(g) == STEP_SAFETY * max_dt(g)
    for dt in (max_dt(g), default_dt(g), 0.2 * g.hx * g.hy):
        assert checked_dt(dt, max_dt(g)) == dt
    for dt in (1.0001 * max_dt(g), 0.0, -default_dt(g)):
        with pytest.raises(ParameterError, match="outside the stable range"):
            checked_dt(dt, max_dt(g))


def test_each_stepper_checks_its_own_ceiling(rng):
    """rk4 checks no dt (test_step_ceiling_is_exact steps past the ceiling):
    step_rk4_spin holds dt to its workspace's ceiling (the band's is
    longer) and step_rk4_nls to max_dt(grid), each refusing a dt past it
    (ParameterError) before it writes the state."""
    g, par = Grid2(16, 16), SpinParams(c=0.3)
    S, q = smooth_spin(g, rng), smooth_complex(g, rng)
    dt = 1.01 * max_dt(g)
    spin.step_rk4_spin(g, spin._Workspace(g, S, band=True), par, dt)
    spin_ws, nls_ws = spin._Workspace(g, S), nls._Workspace(q)
    with pytest.raises(ParameterError, match="outside the stable range"):
        spin.step_rk4_spin(g, spin_ws, par, dt)
    with pytest.raises(ParameterError, match="outside the stable range"):
        nls.step_rk4_nls(g, nls_ws, NlsParams(), dt)
    assert np.array_equal(spin_ws.P, S) and np.array_equal(nls_ws.q, q)


def _top_mode(g):
    """The phase kx x + ky y of the largest resolved mode of g."""
    X, Y = g.meshgrid()
    return (TWO_PI / g.lx * ((g.nx - 1) // 2)) * X + (TWO_PI / g.ly * ((g.ny - 1) // 2)) * Y


@pytest.mark.parametrize("side", ["spin", "nls"])
def test_step_ceiling_is_exact(side):
    """Both models rotate a small perturbation of a uniform field at the top
    mode at the rate kx ky, so RK4 grows it past the ceiling and damps it
    below: at 1.01 max_dt it grows over 40 steps, at 0.99 max_dt it decays."""
    g = Grid2(32, 32)
    phase, eps = _top_mode(g), 1e-6
    if side == "spin":
        par = SpinParams(c=0.3, d=1.0, l=0.0)
        y0 = np.stack([eps * np.cos(phase), eps * np.sin(phase),
                       np.full_like(phase, np.sqrt(1.0 - eps * eps))])

        def rate(S):
            return spin_rhs(g, S, par)

        def size(S):
            return float(np.max(np.abs(S[:2])))
    else:
        par = NlsParams(c=0.0, d=1.0, model="Zakharov")
        y0 = eps * np.exp(1j * phase)

        def rate(q):
            p = np.conj(q)
            return nls_rhs(g, q, p, solve_v_nls(g, q, p)[0], par)[0]

        def size(q):
            return float(np.max(np.abs(q)))
    for factor, grows in ((1.01, True), (0.99, False)):
        y = y0
        for _ in range(40):
            y = rk4(rate, y, factor * max_dt(g))
        assert (size(y) > 2.0 * size(y0)) == grows
        assert (size(y) < 0.5 * size(y0)) == (not grows)


def _full_spectrum_tail(f):
    """spectral_tail written with one fft2 of every plane."""
    worst = 0.0
    for p in f.reshape((-1,) + f.shape[-2:]):
        for part in ((p.real, p.imag) if np.iscomplexobj(p) else (p,)):
            ny, nx = part.shape
            e = np.abs(np.fft.fft2(part)) ** 2
            ky = np.abs(np.fft.fftfreq(ny, 1.0 / ny))[:, None]
            kx = np.abs(np.fft.fftfreq(nx, 1.0 / nx))[None, :]
            if e.sum() > 0.0:
                worst = max(worst, np.sqrt(e[(kx > nx / 3) | (ky > ny / 3)].sum() / e.sum()))
    return worst


@pytest.mark.parametrize("shape", [(16, 16), (3, 24, 17), (2, 9, 32)])
def test_spectral_tail_is_the_energy_beyond_two_thirds(rng, shape):
    """The tail is the root of the energy with |kx| > nx/3 or |ky| > ny/3
    over the total, the largest over the planes: one low mode reads 0, one
    mode past the band 1, an equal mix of the two 1/sqrt 2; random real and
    complex fields read what a full fft2 reads."""
    ny, nx = shape[-2:]
    x = TWO_PI * np.arange(nx) / nx
    y = TWO_PI * np.arange(ny) / ny
    X, Y = np.meshgrid(x, y)
    low, high = np.cos(X + 2 * Y), np.sin((nx // 2 - 1) * X)
    assert spectral_tail(low) < 1e-14
    assert spectral_tail(high) == pytest.approx(1.0)
    assert spectral_tail(np.stack([low, low + high])) == pytest.approx(np.sqrt(0.5))
    assert spectral_tail(np.zeros(shape)) == 0.0
    for f in (rng.normal(size=shape), rng.normal(size=shape) + 1j * rng.normal(size=shape)):
        assert spectral_tail(f) == pytest.approx(_full_spectrum_tail(f), rel=1e-12)
