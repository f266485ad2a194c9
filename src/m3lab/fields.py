"""Periodic grids, fields, and the discrete calculus everything else consumes.

Layout conventions used across the package:

  scalar / complex field   ndarray, shape (ny, nx)
  3-vector field           ndarray, shape (ny, nx, 3)
  2x2 matrix field         ndarray, shape (ny, nx, 2, 2), complex; only as
                           the Lax builders' return value, never differentiated

x runs along axis 1 (fastest in memory), y along axis 0.  The domain is the
periodic rectangle [0, lx) x [0, ly) sampled at x_i = i*hx, y_j = j*hy.

Two derivative schemes are provided: "spectral" (FFT, exact below Nyquist)
and "central4" (periodic 5-point 4th-order stencil).  The periodic
antiderivative inv_dx is spectral and zero-mean by construction; the per-row
mean it discards is returned as a solvability diagnostic.

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
A (ny, nx, *comps) field is taken apart into contiguous component planes
for the product, so a plane's result is bit for bit the slice of its
field's.  One derivative of an (n, n) plane, shift included, best of 15
on a 2-core VM with one OpenBLAS thread (ms, along x / along y):

  n      matrix product   rfft/irfft
  32     0.005 / 0.004    0.020 / 0.020
  64     0.015 / 0.011    0.035 / 0.035
  128    0.089 / 0.086    0.086 / 0.119
  256    0.91  / 0.91     0.60  / 0.77

so longer axes keep the transforms.  ddx_stack / ddy_stack differentiate
a (..., ny, nx) stack of planes (the spin kernel carries S as one
(3, ny, nx) stack): one product over the stack, or on the rfft branch one
transform per plane, which pocketfft runs faster than one transform over
the stack.

The stepping core shared by the spin and NLS solvers also lives here: one
classical RK4 step (rk4, which owns the dt / stability check) and one save
loop (march).  ddx_stack, ddy_stack, inv_dx, cross_planes and dot_planes
take optional output and scratch arrays, so a kernel called at every stage
can run on arrays it allocated once.
"""

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FieldError, NumericalError, ParameterError

SPECTRAL = "spectral"
CENTRAL4 = "central4"
CFL_SAFETY = 0.3         # dt must not exceed CFL_SAFETY * hx * hy
DENSE_MAX_N = 128        # real spectral operators along axes this short: matrix product

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid2:
    """Uniform periodic rectangle: nx*ny points on [0,lx) x [0,ly)."""

    nx: int
    ny: int
    lx: float = TWO_PI
    ly: float = TWO_PI

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ConfigError(f"grid needs nx, ny >= 8, got {self.nx} x {self.ny}")
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


def _along(k: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    """k reshaped to broadcast along `axis` of an ndim-dimensional field."""
    shape = [1] * ndim
    shape[axis] = k.size
    return k.reshape(shape)


def check_finite(f: np.ndarray, name: str = "field") -> np.ndarray:
    f = np.asarray(f)
    if not np.all(np.isfinite(f)):
        bad = int(np.size(f) - np.count_nonzero(np.isfinite(f)))
        raise FieldError(f"{name} contains {bad} non-finite entries")
    return f


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


def _spectral_deriv(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    n = f.shape[axis]
    k = _wavenumbers(n, h)
    if np.iscomplexobj(f):
        fhat = np.fft.fft(f, axis=axis)
        return np.fft.ifft(1j * _along(k, f.ndim, axis) * fhat, axis=axis)
    fhat = np.fft.rfft(f, axis=axis)
    fhat *= 1j * _along(k[:n // 2 + 1], f.ndim, axis)
    return np.fft.irfft(fhat, n=n, axis=axis)


def _spectral_antideriv(f: np.ndarray, h: float) -> np.ndarray:
    """Zero-mean periodic antiderivative along axis 1 by FFT (rfft for a real f)."""
    n = f.shape[1]
    real = not np.iscomplexobj(f)
    k = _wavenumbers(n, h)[:n // 2 + 1 if real else n]
    fhat = np.fft.rfft(f, axis=1) if real else np.fft.fft(f, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ghat = fhat / (1j * _along(k, f.ndim, 1))
    ghat[:, k == 0.0, ...] = 0.0
    return np.fft.irfft(ghat, n=n, axis=1) if real else np.fft.ifft(ghat, axis=1)


@lru_cache(maxsize=32)
def _deriv_matrix(n: int, h: float) -> np.ndarray:
    """D with D @ f = the half-spectrum derivative of f along an n-point axis."""
    return _frozen(_spectral_deriv(np.eye(n), h, axis=0))


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
    """M along `axis` of f, one product per (ny, nx) plane, lanes shifted to start at 0.

    axis 0 or 1 indexes a (ny, nx, *comps) field, -2 or -1 a (..., ny, nx)
    stack of planes.  The shifted lanes go into work, the result into out,
    when these are given.
    """
    if axis >= 0 and f.ndim > 2:
        planes = np.moveaxis(f.reshape(f.shape[:2] + (-1,)), -1, 0)
        res = np.moveaxis(_apply(M, planes, axis - 2), 0, -1)
        return _into(out, np.ascontiguousarray(res).reshape(f.shape))
    if axis % f.ndim == f.ndim - 1:
        return np.matmul(np.subtract(f, f[..., :1], out=work, order="C"), M.T, out=out)
    return np.matmul(M, np.subtract(f, f[..., :1, :], out=work, order="C"), out=out)


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
        if axis < 0 and f.ndim > 2:  # a stack: pocketfft is faster plane by plane
            return np.stack([_spectral_deriv(p, h, axis) for p in f], out=out)
        return _into(out, _spectral_deriv(f, h, axis))
    if scheme == CENTRAL4:
        return _into(out, _central4_deriv(f, h, axis))
    raise ConfigError(f"unknown derivative scheme {scheme!r}")


def ddx(grid: Grid2, f: np.ndarray, scheme=SPECTRAL) -> np.ndarray:
    """d/dx along axis 1; works for any trailing component dimensions."""
    return _deriv(check_finite(f, "ddx input"), scheme, grid.hx, axis=1)


def ddy(grid: Grid2, f: np.ndarray, scheme=SPECTRAL) -> np.ndarray:
    """d/dy along axis 0; works for any trailing component dimensions."""
    return _deriv(check_finite(f, "ddy input"), scheme, grid.hy, axis=0)


def ddx_stack(grid: Grid2, P: np.ndarray, scheme=SPECTRAL, out=None, work=None) -> np.ndarray:
    """d/dx of a stack of planes, shape (..., ny, nx): x is the last axis.

    The result goes into out when it is given; on the matrix path the
    shifted input goes into work, which may be P itself when P is scratch.
    """
    return _deriv(check_finite(P, "ddx input"), scheme, grid.hx, axis=-1, out=out, work=work)


def ddy_stack(grid: Grid2, P: np.ndarray, scheme=SPECTRAL, out=None, work=None) -> np.ndarray:
    """d/dy of a stack of planes, shape (..., ny, nx): y is the second-last axis.

    out and work as for ddx_stack.
    """
    return _deriv(check_finite(P, "ddy input"), scheme, grid.hy, axis=-2, out=out, work=work)


def meanx(f: np.ndarray) -> np.ndarray:
    """Per-row x-mean, shape (ny, 1, ...) so it broadcasts against f."""
    return np.mean(f, axis=1, keepdims=True)


class Antideriv(NamedTuple):
    field: np.ndarray
    row_mean: np.ndarray  # the discarded per-row x-mean of the integrand


def inv_dx(grid: Grid2, f: np.ndarray, out=None, work=None) -> Antideriv:
    """Zero-mean periodic x-antiderivative of (f - meanx f), per y-row.

    ddx(inv_dx(f).field) == f - meanx(f) to spectral accuracy.  A nonzero
    row mean is a solvability violation of d/dx g = f on the periodic row;
    it is removed and reported, not fatal.  out and work as for ddx_stack.
    """
    f = check_finite(f, "inv_dx input")
    row_mean = np.squeeze(meanx(f), axis=1)  # taken before work (which may be f) is written
    if _dense(f, grid.nx):
        g = _apply(_antideriv_matrix(grid.nx, grid.hx), f, 1, out, work)
    else:
        g = _into(out, _spectral_antideriv(f, grid.hx))
    return Antideriv(g, row_mean)


def integrate2(grid: Grid2, f: np.ndarray) -> float:
    """Periodic trapezoid quadrature hx*hy*sum(f); exact below Nyquist."""
    f = check_finite(f, "integrate2 input")
    return float(grid.hx * grid.hy * np.sum(f))


# ---------------------------------------------------------------------------
# 3-vector field algebra
# ---------------------------------------------------------------------------

def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...k,...k->...", a, b)


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


def dot_planes(a, b, out=None, tmp=None) -> np.ndarray:
    """a . b for 3-vectors given as three component planes each, summed in
    component order; written into out, with tmp for each further product,
    when these are given."""
    out = np.multiply(a[0], b[0], out=out)
    for i in (1, 2):
        out += np.multiply(a[i], b[i], out=tmp)
    return out


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis; the same products and differences as np.cross."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    cross_planes(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0), out=np.moveaxis(out, -1, 0))
    return out


def norm3(a: np.ndarray) -> np.ndarray:
    return np.sqrt(dot3(a, a))


def normalized3(a: np.ndarray) -> np.ndarray:
    return a / norm3(a)[..., None]


# ---------------------------------------------------------------------------
# Pointwise matrix-field algebra (works for (..., 2, 2) and (..., 3, 3)).
# The package carries connections by their Lie-algebra coordinates
# (frames.bracket, lax._sl2_bracket); these products are the reference
# those coordinate forms are tested against.
# ---------------------------------------------------------------------------

def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...jk->...ik", A, B)


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return matmul(A, B) - matmul(B, A)


def max_norm(M: np.ndarray) -> float:
    return float(np.max(np.abs(M)))


# ---------------------------------------------------------------------------
# Time stepping shared by the spin and NLS solvers
# ---------------------------------------------------------------------------

def rk4(grid: Grid2, rhs, y: tuple, dt: float) -> tuple:
    """One classical RK4 step of y' = rhs(y), y and rhs(y) tuples of arrays.

    The mixed-derivative dispersive terms of both models bound the step by
    dt <= CFL_SAFETY * hx * hy; a dt outside (0, bound] is rejected.
    """
    bound = CFL_SAFETY * grid.hx * grid.hy
    if not 0.0 < dt <= bound * (1.0 + 1e-9):
        raise ParameterError(f"dt = {dt:.3e} outside the stable range (0, {bound:.3e}]")

    def stage(c, k):
        return tuple(a + c * b for a, b in zip(y, k))

    k1 = rhs(y)
    k2 = rhs(stage(0.5 * dt, k1))
    k3 = rhs(stage(0.5 * dt, k2))
    k4 = rhs(stage(dt, k3))
    return tuple(a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def march(step, y, t: float, dt: float, n_steps: int, save_every: int, keep) -> list:
    """Take n_steps steps `y, diag = step(y)`, the clock t advancing by dt each.

    Every save_every-th step is passed to keep(y, t, diag) and the results are
    returned in order, so what keep derives (the constraint fields) is
    computed for kept steps only.  A numerical abort is re-raised with the
    time of the step that failed.
    """
    kept = []
    for i in range(1, n_steps + 1):
        try:
            y, diag = step(y)
        except NumericalError as exc:
            raise type(exc)(f"step from t = {t:.6g}: {exc}") from exc
        t = t + dt
        if i % save_every == 0:
            kept.append(keep(y, t, diag))
    return kept


# ---------------------------------------------------------------------------
# MFLD1 file format
# ---------------------------------------------------------------------------
#
# One ASCII header line  "MFLD1 <nx> <ny> <ncomp> <lx> <ly>\n"
# followed by nx*ny*ncomp IEEE-754 binary64 little-endian values,
# row-major (y outer, x inner), components interleaved per point.

def write_mfld1(path, grid: Grid2, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=float)
    if data.ndim == 2:
        data = data[:, :, None]
    if data.shape[:2] != (grid.ny, grid.nx):
        raise FieldError(f"data shape {data.shape} does not match grid {grid.ny}x{grid.nx}")
    ncomp = data.shape[2]
    header = f"MFLD1 {grid.nx} {grid.ny} {ncomp} {grid.lx:.17g} {grid.ly:.17g}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_mfld1(path):
    """Returns (Grid2, data) with data shape (ny, nx, ncomp).

    A malformed header (ncomp < 1 included), or a payload that is short,
    followed by further bytes or not finite, is rejected with an M3LabError.
    The payload size is checked against the file before it is read.
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
        grid = Grid2(nx, ny, lx, ly)
        size = 8 * nx * ny * ncomp
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise FieldError(f"{path}: truncated payload")
        if left > size:
            raise FieldError(f"{path}: trailing bytes after the payload")
        raw = fh.read(size)
    data = np.frombuffer(raw, dtype="<f8").reshape(ny, nx, ncomp).copy()
    return grid, check_finite(data, f"{path}: payload")

