"""Periodic grids, fields, and the discrete calculus everything else consumes.

Layout conventions used across the package:

  scalar / complex field   ndarray, shape (ny, nx)
  3-vector field           ndarray, shape (3, ny, nx): a stack of its three
                           component planes, from the generators that make
                           it to the MFLD1 file that stores it
  2x2 matrix field         ndarray, shape (ny, nx, 2, 2), complex; only as
                           the Lax builders' return value, never differentiated

x runs along the last axis of a field or stack (fastest in memory), y along
the one before it.  The domain is the periodic rectangle [0, lx) x [0, ly)
sampled at x_i = i*hx, y_j = j*hy.  ddx and ddy act on the last two axes
of any (..., ny, nx) array, inv_dx on the last, so a vector field is
differentiated as one stack; a public entry refuses an array whose
trailing dims are not the grid's (check_field), which would be
differentiated along others.

Two derivative schemes are provided: "spectral" (FFT, exact below Nyquist)
and "central4" (periodic 5-point 4th-order stencil).  The periodic
antiderivative inv_dx is spectral and zero-mean by construction; the per-row
mean it discards is returned as a solvability diagnostic.  spectral_tail
reads how well the grid holds a field: the share of its energy past the
2/3 band, |kx| <= nx//3 and |ky| <= ny//3 (_band_top is the band's one
definition).  band_limit projects a real stack into that band (the 2/3
rule) through an rfft2 pair and a spectrum buffer its caller keeps.

Every spectral operator reads one wavenumber table per (n, h), cached:
the fft wavenumbers with the even-n Nyquist entry set to 0, so the Nyquist
mode, whose derivative is not real, is dropped for real and complex fields
alike.  A complex field goes through fft/ifft and its derivative is that
of its real and imaginary parts, so it commutes with conjugation.  A real
field goes through half-spectrum transforms (rfft/irfft along the axis,
the first n//2+1 entries of the table).  Along an axis of n <= DENSE_MAX_N
points its operators run as one dense n x n matrix product per (ny, nx)
plane instead.  The matrix is that same rfft operator applied to the
identity, cached per (n, h), so the two paths agree to rounding.
Each lane is shifted by its first sample before the product: a field
constant along the axis then maps to exact zeros, as it does through rfft.
One derivative of an (n, n) plane, shift included, best of 15 on a 2-core
VM with one OpenBLAS thread (ms, along x / along y):

  n      matrix product   rfft/irfft
  32     0.005 / 0.004    0.020 / 0.020
  64     0.015 / 0.011    0.035 / 0.035
  128    0.089 / 0.086    0.086 / 0.119
  256    0.91  / 0.91     0.60  / 0.77

so longer axes keep the transforms.  A (..., ny, nx) stack of planes is
differentiated by one product over the stack, or on the rfft branch one
transform per plane, which pocketfft runs faster than one transform over
the stack.  Either way a plane's result is bit for bit that of the plane
alone.

On stacks, cross_planes forms each component as np.cross does, and dot3
sums the three products in a given order, EINSUM_ORDER = (a0 b0 + a2 b2)
+ a1 b1 unless told otherwise; norm3 is its root.  The order is the one
numpy's einsum takes over contiguous components, which the frame layer's
results were first pinned to, and it is load-bearing: the lump's
near-degenerate points amplify a change of rounding, so component order
moves its coefficient dumps by 1.1e-2.  The spin kernel's constraint dots
sum in component order, as they always have.

The stepping core shared by the spin and NLS solvers also lives here: the
step ceiling (max_dt, on the grid's or on the band's top wavenumbers, of
which the NLS default_dt is a fraction, and to which each stepper holds its
dt by checked_dt), one classical RK4 step (rk4, which checks no dt) and
the march protocol (march).  rk4 steps one array, forming its stage state
and weighted sum in place, in a triple of arrays a march's workspace holds
as `work`; march yields a march's states, stepping the workspace it loaded.

Every public operator rejects a non-finite input (FieldError).  The private
_deriv and _inv_dx check nothing: a kernel checks its input once, where it
enters (a stepper once per step), and runs on them, with cross_planes and
dot3, into output and scratch arrays it allocated once.
"""

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FieldError, NumericalError, ParameterError

SPECTRAL = "spectral"
CENTRAL4 = "central4"
RK4_LIMIT = 2.0 * 2.0 ** 0.5  # classical RK4 is stable on the imaginary axis up to this
STEP_SAFETY = 0.9        # a default step is this fraction of RK4's limit
DENSE_MAX_N = 128        # real spectral operators along axes this short: matrix product
EINSUM_ORDER = (0, 2, 1)  # dot3's order of summation over the three components
MFLD1_BLOCK_BYTES = 1 << 16  # payload written through a buffer of about this size
BLOCK_POINTS = 2048      # pointwise work on row blocks of about this many points stays in cache
MAX_STEPS = 100_000      # steps of a run: over 100x the most of the configs, tests, benchmark (300)
MAX_CELLS = 1 << 23      # points of a Grid2: over 100x the most of them (256 x 256)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid2:
    """Uniform periodic rectangle: nx*ny points on [0,lx) x [0,ly).  A grid
    of more than MAX_CELLS points is refused wherever it is made, before
    anything is allocated on it."""

    nx: int
    ny: int
    lx: float = TWO_PI
    ly: float = TWO_PI

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ConfigError(f"grid needs nx, ny >= 8, got {self.nx} x {self.ny}")
        if self.nx * self.ny > MAX_CELLS:
            raise ConfigError(f"grid of {self.nx} x {self.ny} points exceeds {MAX_CELLS}")
        if not (0.0 < self.lx < np.inf and 0.0 < self.ly < np.inf):
            raise ConfigError(f"grid needs positive finite domain lengths, got {self.lx} x {self.ly}")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.hx

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * self.hy

    def meshgrid(self):
        """X, Y arrays of shape (ny, nx)."""
        return np.meshgrid(self.x, self.y)


def check_mode(name: str, m: int, n: int) -> None:
    """Refuse (ParameterError) m, a generator's integer mode number along an
    axis of n points, at or past the Nyquist mode n/2: every operator drops
    the Nyquist mode's derivative, and mode m + n samples as m."""
    if not abs(m) < n / 2:
        raise ParameterError(f"mode number {name} = {m} is at or past the Nyquist mode "
                             f"of {n} points: |{name}| < {n / 2:g} is needed")


def check_finite(f: np.ndarray, name: str = "field") -> np.ndarray:
    f = np.asarray(f)
    if not np.all(np.isfinite(f)):
        bad = int(np.size(f) - np.count_nonzero(np.isfinite(f)))
        raise FieldError(f"{name} contains {bad} non-finite entries")
    return f


def check_field(grid: Grid2, f: np.ndarray, name: str = "field", lead=None) -> np.ndarray:
    """f, checked finite, unless its shape is not lead + (grid.ny, grid.nx),
    or does not end in (grid.ny, grid.nx) when lead is None (FieldError):
    the operators act on the last two axes, so an array laid out otherwise
    would be differentiated along the wrong ones."""
    f = np.asarray(f)
    if f.shape[-2:] != (grid.ny, grid.nx) or (lead is not None and f.shape[:-2] != lead):
        want = f"(..., {grid.ny}, {grid.nx})" if lead is None else str(lead + (grid.ny, grid.nx))
        raise FieldError(f"{name} has shape {f.shape}, not {want}")
    return check_finite(f, name)


def _frozen(M: np.ndarray) -> np.ndarray:
    M = np.ascontiguousarray(M)
    M.flags.writeable = False
    return M


@lru_cache(maxsize=32)
def _wavenumbers(n: int, h: float) -> np.ndarray:
    """fft wavenumbers of an n-point axis of spacing h, the even-n Nyquist entry set to 0.

    A half-spectrum (rfft) transform reads the first n//2 + 1 entries.
    """
    k = TWO_PI * np.fft.fftfreq(n, d=h)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return _frozen(k)


def _spectral_deriv(f: np.ndarray, h: float, axis: int, out=None) -> np.ndarray:
    """The derivative along axis -1 or -2, into out when given (a complex f
    is transformed in it)."""
    n = f.shape[axis]
    k = _wavenumbers(n, h)
    k = k if axis == -1 else k[:, None]
    if np.iscomplexobj(f):
        fhat = np.fft.fft(f, axis=axis, out=out)
        np.multiply(1j * k, fhat, out=fhat)
        return np.fft.ifft(fhat, axis=axis, out=fhat)
    fhat = np.fft.rfft(f, axis=axis)
    fhat *= 1j * k[:n // 2 + 1]
    return np.fft.irfft(fhat, n=n, axis=axis, out=out)


def _spectral_antideriv(f: np.ndarray, h: float, out=None) -> np.ndarray:
    """Zero-mean periodic antiderivative along the last axis by FFT (rfft for a real f).

    The spectrum is divided in place and transformed back into out, when
    it is given (a complex f: into the spectrum, copied into out), so a
    call holds one spectrum.
    """
    n = f.shape[-1]
    real = not np.iscomplexobj(f)
    k = _wavenumbers(n, h)[:n // 2 + 1 if real else n]
    fhat = np.fft.rfft(f) if real else np.fft.fft(f)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(fhat, 1j * k, out=fhat)
    np.copyto(fhat, 0.0, where=k == 0.0)
    if real:
        return np.fft.irfft(fhat, n=n, out=out)
    return _into(out, np.fft.ifft(fhat, out=fhat))


@lru_cache(maxsize=32)
def _deriv_matrix(n: int, h: float) -> np.ndarray:
    """D with D @ f = the half-spectrum derivative of f along an n-point axis."""
    return _frozen(_spectral_deriv(np.eye(n), h, axis=-2))


@lru_cache(maxsize=32)
def _antideriv_matrix(n: int, h: float) -> np.ndarray:
    """A with A @ f = the half-spectrum zero-mean antiderivative along an n-point axis."""
    return _frozen(_spectral_antideriv(np.eye(n), h).T)


def _dense(f: np.ndarray, n: int) -> bool:
    """Whether a spectral operator on f along an n-point axis is a matrix product."""
    return n <= DENSE_MAX_N and not np.iscomplexobj(f)


def _into(out, d: np.ndarray) -> np.ndarray:
    """d, or d copied into out when out is given."""
    if out is None:
        return d
    out[...] = d
    return out


def _apply(M: np.ndarray, f: np.ndarray, axis: int, out=None, work=None) -> np.ndarray:
    """M along axis -1 (x) or -2 (y) of a (..., ny, nx) array f, one product
    per plane, lanes shifted to start at 0.

    The shifted lanes go into work, the result into out, when these are
    given.  The first samples are taken out before the shift, so that a
    work which is f itself is not copied whole.
    """
    shifted = np.subtract(f, np.take(f, [0], axis), out=work, order="C")
    if axis == -1:
        return np.matmul(shifted, M.T, out=out)
    return np.matmul(M, shifted, out=out)


def _central4_deriv(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    fp1 = np.roll(f, -1, axis=axis)
    fp2 = np.roll(f, -2, axis=axis)
    fm1 = np.roll(f, 1, axis=axis)
    fm2 = np.roll(f, 2, axis=axis)
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def _deriv(f: np.ndarray, scheme, h: float, axis: int, out=None, work=None) -> np.ndarray:
    if scheme == SPECTRAL:
        if _dense(f, f.shape[axis]):
            return _apply(_deriv_matrix(f.shape[axis], h), f, axis, out, work)
        if f.ndim > 2:  # a stack: pocketfft is faster plane by plane
            out = np.empty(f.shape, np.result_type(f, 1.0)) if out is None else out
            for p, o in zip(f, out):
                _spectral_deriv(p, h, axis, o)
            return out
        return _spectral_deriv(f, h, axis, out)
    if scheme == CENTRAL4:
        return _into(out, _central4_deriv(f, h, axis))
    raise ConfigError(f"unknown derivative scheme {scheme!r}")


def ddx(grid: Grid2, f: np.ndarray, scheme=SPECTRAL) -> np.ndarray:
    """d/dx along the last axis of a (..., ny, nx) field or stack."""
    return _deriv(check_field(grid, f, "ddx input"), scheme, grid.hx, axis=-1)


def ddy(grid: Grid2, f: np.ndarray, scheme=SPECTRAL) -> np.ndarray:
    """d/dy along the second-last axis of a (..., ny, nx) field or stack."""
    return _deriv(check_field(grid, f, "ddy input"), scheme, grid.hy, axis=-2)


def meanx(f: np.ndarray) -> np.ndarray:
    """Per-row x-mean, shape (..., ny, 1) so it broadcasts against f."""
    return np.mean(f, axis=-1, keepdims=True)


class Antideriv(NamedTuple):
    field: np.ndarray
    row_mean: np.ndarray  # the discarded per-row x-mean of the integrand


def inv_dx(grid: Grid2, f: np.ndarray) -> Antideriv:
    """Zero-mean periodic x-antiderivative of (f - meanx f), per y-row.

    ddx(inv_dx(f).field) == f - meanx(f) to spectral accuracy.  A nonzero
    row mean is a solvability violation of d/dx g = f on the periodic row;
    it is removed and reported, not fatal.
    """
    f = check_field(grid, f, "inv_dx input")
    return Antideriv(_inv_dx(grid, f), np.squeeze(meanx(f), axis=-1))


def _inv_dx(grid: Grid2, f: np.ndarray, out=None, work=None) -> np.ndarray:
    """The field of inv_dx alone, f unchecked: for kernels whose input was
    checked where it entered, and which take any row means from the integrand.

    The result goes into out when it is given; on the matrix path the
    shifted input goes into work, which may be f itself when f is scratch.
    """
    if _dense(f, grid.nx):
        return _apply(_antideriv_matrix(grid.nx, grid.hx), f, -1, out, work)
    return _spectral_antideriv(f, grid.hx, out)


def integrate2(grid: Grid2, f: np.ndarray) -> float:
    """Periodic trapezoid quadrature hx*hy*sum(f); exact below Nyquist."""
    f = check_field(grid, f, "integrate2 input")
    return float(grid.hx * grid.hy * np.sum(f))


def _band_top(n: int) -> int:
    """The largest mode number |k| that the 2/3 band keeps on an n-point axis."""
    return n // 3


def _past_band(n: int, half: bool) -> slice:
    """The entries of an n-point axis's spectrum past the 2/3 band: of its
    half spectrum (rfft) when half, else of its full one (fft)."""
    top = _band_top(n)
    return slice(top + 1, None if half else n - top)


def band_limit(f: np.ndarray, out: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """The part of f, a real (k, ny, nx) stack, with |kx| <= nx//3 and
    |ky| <= ny//3 (the 2/3 rule: Orszag, J. Atmos. Sci. 28, 1971), into out,
    which may be f: an rfft2 into spectrum, the (k, ny, nx//2 + 1) complex
    buffer its caller keeps, the entries past the band zeroed, and back."""
    ny, nx = f.shape[1:]
    np.fft.rfft2(f, out=spectrum)
    spectrum[:, _past_band(ny, False)] = 0.0
    spectrum[:, :, _past_band(nx, True)] = 0.0
    np.fft.irfft(np.fft.ifft(spectrum, axis=1, out=spectrum), n=nx, out=out)  # irfft2 has no out
    return out


def spectral_tail(f: np.ndarray) -> float:
    """How well the grid holds f, an (ny, nx) field or a (k, ny, nx) stack:
    the root of the energy past the 2/3 band (|kx| > nx//3 or |ky| > ny//3)
    over the total, the largest over its planes (a complex field's real and
    imaginary parts).  Each plane's half spectrum is squared in one buffer,
    and the band is summed as slices of it.  Rounding when resolved."""
    f = np.asarray(f)
    ny, nx = f.shape[-2:]
    rows, cols = _past_band(ny, False), _past_band(nx, True)
    kx = np.arange(nx // 2 + 1)
    weight = np.where((kx == 0) | (2 * kx == nx), 1.0, 2.0)  # the half spectrum's mirrored columns
    planes = f.reshape((-1, ny, nx))
    if np.iscomplexobj(f):
        planes = [part for p in planes for part in (p.real, p.imag)]
    F = np.empty((ny, nx // 2 + 1), complex)
    energy = F.real
    worst = 0.0
    for p in planes:
        np.fft.rfft2(p, out=F)
        np.square(F.real, out=F.real)
        np.square(F.imag, out=F.imag)
        energy += F.imag
        energy *= weight
        total = float(np.sum(energy))
        if total > 0.0:
            tail = (np.sum(energy[rows]) + np.sum(energy[:rows.start, cols])
                    + np.sum(energy[rows.stop:, cols]))
            worst = max(worst, float(np.sqrt(tail / total)))
    return worst


# ---------------------------------------------------------------------------
# 3-vector field algebra
# ---------------------------------------------------------------------------

def cross_planes(a, b, out=None, tmp=None):
    """a x b for 3-vectors given as three component planes each (any sequence).

    The result planes are written into out (three planes, e.g. a (3, ...)
    stack; a new (3, ...) stack when not given), each as the difference of
    two products, the second of which goes into tmp when it is given.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    if out is None:
        shape = np.broadcast_shapes(*(np.shape(c) for c in (a0, a1, a2, b0, b1, b2)))
        out = np.empty((3,) + shape, dtype=np.result_type(a0, a1, a2, b0, b1, b2))
    for o, (x, y, z, w) in zip(out, ((a1, b2, a2, b1), (a2, b0, a0, b2), (a0, b1, a1, b0))):
        np.multiply(x, y, out=o)
        o -= np.multiply(z, w, out=tmp)
    return out


def dot3(a, b, out=None, tmp=None, order=EINSUM_ORDER) -> np.ndarray:
    """a . b for 3-vectors given as three component planes each (a stack),
    the products summed in `order`; written into out, with tmp for each
    further product, when these are given."""
    i, j, k = order
    out = np.multiply(a[i], b[i], out=out)
    out += np.multiply(a[j], b[j], out=tmp)
    out += np.multiply(a[k], b[k], out=tmp)
    return out


def norm3(a, out=None, tmp=None) -> np.ndarray:
    """|a| for 3-vectors given as three component planes, summed in
    EINSUM_ORDER; out and tmp as for dot3."""
    return np.sqrt(dot3(a, a, out, tmp), out=out)


def max_norm(M: np.ndarray) -> float:
    return float(np.max(np.abs(M)))


# ---------------------------------------------------------------------------
# Time stepping shared by the spin and NLS solvers
# ---------------------------------------------------------------------------

def max_dt(grid: Grid2, ax: float = 0.0, ay: float = 0.0, band: bool = False) -> float:
    """RK4's imaginary-axis limit over the largest rate kx ky + ax kx + ay ky
    on the grid's wavenumbers (Nyquist dropped, as by every operator), or
    with band on those the 2/3 band keeps (band_limit), whose tops are
    2/3 as large.  About a uniform field both models rotate a mode at
    exactly kx ky, so max_dt(grid, band=band) is the exact ceiling of a
    stable step of the kernel that runs on those wavenumbers; the central4
    wavenumbers are smaller.  ax and ay are first-order rates a field
    drives (spin.stable_dt).  A rate that is not positive and finite gives
    no step (ParameterError).
    """
    kx, ky = (float(_wavenumbers(n, h)[_band_top(n) if band else (n - 1) // 2])
              for n, h in ((grid.nx, grid.hx), (grid.ny, grid.hy)))
    rate = kx * ky + ax * kx + ay * ky
    if not 0.0 < rate < np.inf:  # the wavenumbers of a huge or tiny domain under- or overflow
        raise ParameterError(f"no RK4 step on {grid}: its top rate is {rate!r}")
    return RK4_LIMIT / rate


def default_dt(grid: Grid2) -> float:
    """The NLS default step: STEP_SAFETY of the ceiling max_dt(grid)."""
    return STEP_SAFETY * max_dt(grid)


def checked_dt(dt: float, bound: float) -> float:
    """dt, unless outside (0, bound] (ParameterError), bound the ceiling of
    the kernel that steps (max_dt): past it the shared dispersive term
    grows at every step."""
    if not 0.0 < dt <= bound * (1.0 + 1e-9):
        raise ParameterError(f"dt = {dt:.3e} outside the stable range (0, {bound:.3e}]")
    return dt


def rk4(rhs, y: np.ndarray, dt: float, work=None) -> np.ndarray:
    """One classical RK4 step of y' = rhs(y), y and rhs(y) arrays; dt is
    not checked (checked_dt).

    The stages y + c k and the sum y + dt/6 (k1 + 2 k2 + 2 k3 + k4) are
    formed in place, in that operand order, in work: one (stage, sum,
    scratch) triple of arrays, allocated here when not given.  The new y is
    returned in the sum array.  y is never written, and rhs may return one
    buffer at every stage.
    """
    k = rhs(y)
    s, total, tmp = work or tuple(np.empty(k.shape, np.result_type(y, k)) for _ in range(3))
    total[...] = k
    np.add(y, np.multiply(0.5 * dt, k, out=s), out=s)
    for c in (0.5 * dt, dt):
        k = rhs(s)
        total += np.multiply(2.0, k, out=tmp)
        np.add(y, np.multiply(c, k, out=s), out=s)
    total += rhs(s)
    np.add(y, np.multiply(dt / 6.0, total, out=total), out=total)
    return total


def march(state, step, keep, dt: float, n_steps: int, save_every: int):
    """Yield state, then the state after every save_every-th of n_steps steps.

    step() advances the workspace a march loaded state into by dt, in place,
    and returns a diagnostic; keep(t, diag) makes the kept state at time t
    of it.  Each state is yielded before the next step and then let go, the
    initial one included, so a caller that writes each one out holds one at
    a time.  A numerical abort is re-raised with the time of its step.
    """
    t = state.t
    yield state
    del state
    for i in range(1, n_steps + 1):
        try:
            diag = step()
        except NumericalError as exc:
            raise type(exc)(f"step from t = {t:.6g}: {exc}") from exc
        t = t + dt
        if i % save_every == 0:
            yield keep(t, diag)


# ---------------------------------------------------------------------------
# MFLD1 file format
# ---------------------------------------------------------------------------
#
# One ASCII header line  "MFLD1 <nx> <ny> <ncomp> <lx> <ly>\n"
# followed by nx*ny*ncomp IEEE-754 binary64 little-endian values,
# row-major (y outer, x inner), components interleaved per point.

def write_mfld1(path, grid: Grid2, data) -> None:
    """Write data, an (ny, nx) plane or a (k, ny, nx) stack or a sequence of
    them, whose planes are written side by side, point by point.

    The payload goes out a block of rows at a time, through one small
    buffer, so a strided view or a sequence is never copied whole.
    """
    planes = []
    for d in data if isinstance(data, (list, tuple)) else (data,):
        d = np.asarray(d, dtype=float)
        if d.ndim not in (2, 3) or d.shape[-2:] != (grid.ny, grid.nx):
            raise FieldError(f"data shape {d.shape} is no plane or stack on grid "
                             f"{grid.ny}x{grid.nx}")
        planes.extend(d.reshape((-1, grid.ny, grid.nx)))
    ncomp = len(planes)
    header = f"MFLD1 {grid.nx} {grid.ny} {ncomp} {grid.lx:.17g} {grid.ly:.17g}\n"
    rows = max(1, MFLD1_BLOCK_BYTES // (8 * grid.nx * ncomp))
    block = np.empty((rows, grid.nx, ncomp), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for j in range(0, grid.ny, rows):
            out = block[:min(rows, grid.ny - j)]
            np.stack([p[j:j + rows] for p in planes], axis=-1, out=out)
            fh.write(out)


def read_mfld1(path, out=None, check=None):
    """Returns (Grid2, data), data the (ncomp, ny, nx) stack of the file's
    components, read through one block buffer of rows (as write_mfld1
    writes them).

    Given out, a (k, ny, nx) stack, the file's first k components are read
    into it instead, and data is out: a spin slice's S goes straight into
    the stack that consumes it, and its u and v are never held whole.

    A malformed header (ncomp < 1, or a grid Grid2 refuses, included), or a
    payload that is short, followed by further bytes or not finite, is
    rejected with an M3LabError naming the file; every component is checked
    for finite values, kept or not.  The payload size is checked against
    the file before it is read, and so is the layout: check(grid, ncomp),
    when given, may refuse it by raising, and a file whose grid or
    components cannot fill out is refused.
    """
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[0] != b"MFLD1":
            raise FieldError(f"{path}: not an MFLD1 file")
        try:
            nx, ny, ncomp = (int(h) for h in header[1:4])
            lx, ly = float(header[4]), float(header[5])
        except ValueError:
            raise FieldError(f"{path}: bad MFLD1 header {b' '.join(header)!r}") from None
        if ncomp < 1:
            raise FieldError(f"{path}: MFLD1 header gives {ncomp} components")
        try:
            grid = Grid2(nx, ny, lx, ly)
        except ConfigError as exc:
            raise FieldError(f"{path}: {exc}") from None
        size = 8 * nx * ny * ncomp
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise FieldError(f"{path}: truncated payload")
        if left > size:
            raise FieldError(f"{path}: trailing bytes after the payload")
        if check is not None:
            check(grid, ncomp)
        data = np.empty((ncomp, ny, nx)) if out is None else out
        k = len(data)
        if data.shape[1:] != (ny, nx) or k > ncomp:
            raise FieldError(f"{path}: {ncomp} components on {grid} cannot fill a "
                             f"{data.shape} stack")
        buf = np.empty((max(1, MFLD1_BLOCK_BYTES // (8 * nx * ncomp)), nx, ncomp), "<f8")
        bad = 0
        for j in range(0, ny, len(buf)):
            block = buf[:ny - j]
            if fh.readinto(block) != block.nbytes:
                raise FieldError(f"{path}: truncated payload")
            bad += block.size - np.count_nonzero(np.isfinite(block))
            np.copyto(data[:, j:j + len(block)], np.moveaxis(block[..., :k], -1, 0))
    if bad:
        raise FieldError(f"{path}: payload contains {bad} non-finite entries")
    return grid, data

