"""Spin-side dynamics: unit-vector field S(x,y,t) with auxiliary scalars u, v.

The evolution implemented here is

    S_t = (S ^ S_y + u S)_x + 2l(cl+d) S_y - 4 c v S_x
    u_x = -S . (S_x ^ S_y)
    v_x = (S_x . S_x)_y / (4 (2cl+d)^2)

with u, v solved from S at every RK stage and for every kept state (they are
constraints, not evolved fields; the stepper advances S alone).  Model
selection only restricts the constants:

    M1: c = 0, d = 1, l = 0      (the l-term is treated as the l = 0 slice)
    M2: d = 0, c != 0            (needs l != 0 so 2cl+d does not vanish)
    M3: general, 2cl+d != 0

All three share one code path, so the reduction identities hold exactly.

S keeps the package's (ny, nx, 3) layout in and out.  The kernel (spin_rhs,
and the constraint solve it shares with solve_u, solve_v and make_state)
works on S as one contiguous (3, ny, nx) component stack: S_x, S_y and
(S ^ S_y)_x are each one derivative of a stack, and the derivatives, cross
and dot products and u, v are written into the arrays of one workspace,
which run_spin reuses for every stage of every step; step_rk4_spin copies
S into its stack once per step and writes the new S once.

The kinematic decomposition S_t = d2 S_x + d3 S_y (with coefficients read off
a moving frame) lives here as m0_reduce / m0_residual.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFieldError, ParameterError, UnstableStepError
from .fields import (
    SPECTRAL,
    Antideriv,
    Grid2,
    cross_planes,
    ddx,
    ddx_stack,
    ddy,
    ddy_stack,
    dot_planes,
    inv_dx,
    march,
    norm3,
    rk4,
)

DENOM_TOL = 1e-12        # rejection threshold for |2cl+d|
DT_FACTOR = 0.2          # default dt = DT_FACTOR * hx * hy
RENORM_LIMIT = 1e-3      # step rejected beyond this renormalization correction

_MODELS = ("M1", "M2", "M3")


@dataclass(frozen=True)
class SpinParams:
    c: float = 0.0
    d: float = 1.0
    l: float = 0.0
    beta: int = 1
    model: str = "M3"

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ParameterError(f"unknown spin model {self.model!r}")
        if self.beta not in (1, -1):
            raise ParameterError("beta must be +1 or -1")
        if self.model == "M1" and (self.c, self.d, self.l) != (0.0, 1.0, 0.0):
            raise ParameterError("M1 requires (c, d, l) = (0, 1, 0)")
        if self.model == "M2":
            if self.d != 0.0:
                raise ParameterError("M2 requires d = 0")
            if self.c == 0.0:
                raise ParameterError("M2 requires c != 0")
        if self.model == "M3" and abs(self.denom) < DENOM_TOL:
            raise ParameterError("M3 requires 2cl + d != 0")

    @property
    def denom(self) -> float:
        return 2.0 * self.c * self.l + self.d

    @property
    def drift(self) -> float:
        """Coefficient of the S_y drift term, 2l(cl+d)."""
        return 2.0 * self.l * (self.c * self.l + self.d)

    @property
    def v_prefactor(self) -> float:
        if abs(self.denom) < DENOM_TOL:
            raise ParameterError(f"|2cl + d| = {abs(self.denom):.3e} below {DENOM_TOL}")
        return 1.0 / (4.0 * self.denom**2)


@dataclass(frozen=True)
class SpinState:
    S: np.ndarray            # (ny, nx, 3), unit length
    u: np.ndarray            # (ny, nx), zero x-mean
    v: np.ndarray            # (ny, nx), zero x-mean
    t: float = 0.0
    renorm: float = 0.0      # max |1 - |S|| removed by the step that made S
    u_row_mean: float = 0.0  # max |row mean| of the u integrand (topological obstruction)
    v_row_mean: float = 0.0  # max |row mean| of the v integrand

    def validate(self, tol: float = 1e-9) -> None:
        dev = float(np.max(np.abs(norm3(self.S) - 1.0)))
        if dev > tol:
            raise ParameterError(f"|S| deviates from 1 by {dev:.3e}")
        for name, f in (("u", self.u), ("v", self.v)):
            drift = float(np.max(np.abs(np.mean(f, axis=1))))
            if drift > tol:
                raise ParameterError(f"{name} has nonzero x-mean {drift:.3e}")


class _Constraints(NamedTuple):
    Sx: np.ndarray           # S_x, S_y as (3, ny, nx) component stacks
    Sy: np.ndarray
    u_x: np.ndarray          # -S.(S_x ^ S_y), the u integrand
    u: Antideriv
    v: Antideriv             # None unless par is given


def _unstack(P: np.ndarray) -> np.ndarray:
    """A (3, ny, nx) stack as a new (ny, nx, 3) field."""
    return np.ascontiguousarray(np.moveaxis(P, 0, -1))


class _Workspace:
    """The stack of S and every array _constraints writes, for (3, ny, nx)
    stacks of one shape.

    run_spin makes one and reuses it in every stage of every step;
    _constraints returns views of it.
    """

    def __init__(self, shape):
        self.P, self.Sx, self.Sy, self.buf = (np.empty(shape) for _ in range(4))
        self.u_x, self.u, self.v, self.tmp = (np.empty(shape[1:]) for _ in range(4))


def _loaded(S: np.ndarray, work=None) -> _Workspace:
    """work, or a new workspace, with the components of S copied into its stack P."""
    ws = work or _Workspace((3,) + S.shape[:2])
    ws.P[...] = np.moveaxis(S, -1, 0)
    return ws


def _constraints(grid: Grid2, P, scheme, par: SpinParams, ws) -> _Constraints:
    """S_x, S_y, the u integrand and u (and v, given par) from the stack P of S.

    The results live in ws.
    """
    Sx = ddx_stack(grid, P, scheme, out=ws.Sx, work=ws.buf)
    Sy = ddy_stack(grid, P, scheme, out=ws.Sy, work=ws.buf)
    u_x = dot_planes(P, cross_planes(Sx, Sy, ws.buf, ws.tmp), ws.u_x, ws.tmp)
    np.negative(u_x, out=u_x)
    # buf is free again: its planes hold the v integrand, each shifted in place
    dens, dens_y, work = ws.buf
    v = None
    if par is not None:
        ddy_stack(grid, dot_planes(Sx, Sx, dens, ws.tmp), scheme, out=dens_y, work=dens)
        dens_y *= par.v_prefactor
        v = inv_dx(grid, dens_y, out=ws.v, work=dens_y)
    return _Constraints(Sx, Sy, u_x, inv_dx(grid, u_x, out=ws.u, work=work), v)


def solve_u(grid: Grid2, S: np.ndarray, scheme=SPECTRAL):
    """u with u_x = -S.(S_x ^ S_y), zero x-mean.

    Returns (u, row_mean) where row_mean is the discarded x-mean of the
    integrand (solvability diagnostic; zero for topologically trivial rows).
    """
    ws = _loaded(S)
    return _constraints(grid, ws.P, scheme, None, ws).u


def solve_v(grid: Grid2, S: np.ndarray, par: SpinParams, scheme=SPECTRAL):
    """v with v_x = (S_x.S_x)_y / (4(2cl+d)^2), zero x-mean; returns (v, row_mean)."""
    ws = _loaded(S)
    return _constraints(grid, ws.P, scheme, par, ws).v


def _rhs(grid: Grid2, P: np.ndarray, par: SpinParams, scheme, ws) -> np.ndarray:
    """S_t of the stack P of S, as a new (3, ny, nx) stack."""
    Sx, Sy, u_x, (u, _), (v, _) = _constraints(grid, P, scheme, par, ws)
    flux = cross_planes(P, Sy, ws.buf, ws.tmp)
    out = ddx_stack(grid, flux, scheme, work=flux)
    out += np.multiply(u_x, P, out=ws.buf)
    out += np.multiply(u, Sx, out=ws.buf)
    if par.drift != 0.0:
        out += np.multiply(par.drift, Sy, out=ws.buf)
    if par.c != 0.0:
        out -= np.multiply(np.multiply(4.0 * par.c, v, out=ws.tmp), Sx, out=ws.buf)
    return out


def spin_rhs(grid: Grid2, S: np.ndarray, par: SpinParams, scheme=SPECTRAL) -> np.ndarray:
    """S_t for the current spin field; tangent to S pointwise.

    The (u S)_x term is expanded as u_x S + u S_x with the exact pointwise
    constraint u_x = -S.(S_x ^ S_y) substituted in the first piece.  On the
    periodic box the zero-mean u drops the row mean of that integrand (the
    solvability defect); substituting the exact u_x keeps S_t orthogonal to
    S to rounding instead of to the size of that defect.

    Computed on the (3, ny, nx) component stack of S; the (ny, nx, 3)
    result is written once.  A non-finite S is rejected (FieldError) by the
    derivatives of the stack, which check their input.
    """
    ws = _loaded(S)
    return _unstack(_rhs(grid, ws.P, par, scheme, ws))


def make_state(grid: Grid2, S: np.ndarray, par: SpinParams, t: float = 0.0,
               scheme=SPECTRAL, renorm: float = 0.0, work=None) -> SpinState:
    """Assemble a SpinState with u, v solved from S (one differentiation of S).

    work as for step_rk4_spin; u and v are copied out of it.
    """
    ws = _loaded(S, work)
    _, _, _, u, v = _constraints(grid, ws.P, scheme, par, ws)
    return SpinState(S=S, u=u.field.copy(), v=v.field.copy(), t=t, renorm=renorm,
                     u_row_mean=float(np.max(np.abs(u.row_mean))),
                     v_row_mean=float(np.max(np.abs(v.row_mean))))


def default_dt(grid: Grid2) -> float:
    """Mixed-derivative dispersive scale: dt = 0.2 hx hy."""
    return DT_FACTOR * grid.hx * grid.hy


def step_rk4_spin(grid: Grid2, S: np.ndarray, par: SpinParams, dt: float,
                  scheme=SPECTRAL, work=None):
    """One classical RK4 step of S.

    Returns (S renormalized to unit length, the correction max |1 - |S||
    that renormalization removed).  A correction beyond RENORM_LIMIT, or a
    non-finite one, aborts the step (UnstableStepError).  The stages run
    on the (3, ny, nx) stack of S with the kernel's arrays in `work`, which
    run_spin makes once for all its steps; a step without one makes its own.
    """
    ws = _loaded(S, work)
    (P_new,) = rk4(grid, lambda y: (_rhs(grid, y[0], par, scheme, ws),), (ws.P,), dt)
    S_new = _unstack(P_new)
    lengths = norm3(S_new)
    correction = float(np.max(np.abs(lengths - 1.0)))
    if not correction <= RENORM_LIMIT:
        raise UnstableStepError(f"unstable step: renormalization correction {correction:.3e}")
    S_new /= lengths[..., None]
    return S_new, correction


def run_spin(grid: Grid2, state: SpinState, par: SpinParams, dt: float,
             n_steps: int, save_every: int = 1, scheme=SPECTRAL):
    """March n_steps, returning the saved states (initial state included)."""
    work = _Workspace((3,) + state.S.shape[:2])
    return [state] + march(
        lambda S: step_rk4_spin(grid, S, par, dt, scheme, work), state.S, state.t, dt,
        n_steps, save_every,
        lambda S, t, renorm: make_state(grid, S, par, t, scheme, renorm, work))


# ---------------------------------------------------------------------------
# Built-in initial conditions
# ---------------------------------------------------------------------------

def init_uniform(grid: Grid2, direction=(0.0, 0.0, 1.0)) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    S = np.empty((grid.ny, grid.nx, 3))
    S[...] = d
    return S


def init_modulated_helix(grid: Grid2, kappa: int = 1, eps: float = 0.08) -> np.ndarray:
    """Equatorial x-helix with a small smooth polar-angle modulation.

    theta = pi/2 + eps*f(x,y) with f built from nonzero x-harmonics, so f has
    zero x-mean on every row; this keeps the torsion row means (the phase
    obstruction of the curvature map) at the eps^2 level.
    """
    X, Y = grid.meshgrid()
    xs = 2.0 * np.pi * X / grid.lx
    ys = 2.0 * np.pi * Y / grid.ly
    f = np.sin(xs) * np.cos(ys) + 0.4 * np.cos(2.0 * xs + 0.6) * np.sin(ys + 0.4)
    theta = 0.5 * np.pi + eps * f
    psi = kappa * xs
    return np.stack([np.sin(theta) * np.cos(psi),
                     np.sin(theta) * np.sin(psi),
                     np.cos(theta)], axis=-1)


def _bump(t: np.ndarray) -> np.ndarray:
    """C-infinity bump: 1 at t=0, identically 0 for t >= 1."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def init_stereographic_lump(grid: Grid2, radius_frac: float = 0.45,
                            center=None) -> np.ndarray:
    """Degree-one lump: S sweeps the sphere once inside a compact disk.

    Outside the disk S = (0,0,1) exactly, so the field is smooth and periodic
    regardless of the box size.
    """
    if center is None:
        center = (0.5 * grid.lx, 0.5 * grid.ly)
    R = radius_frac * min(grid.lx, grid.ly)
    X, Y = grid.meshgrid()
    dx_ = X - center[0]
    dy_ = Y - center[1]
    r = np.sqrt(dx_**2 + dy_**2)
    phi = np.arctan2(-dy_, dx_)  # orientation chosen so the degree is +1
    theta = np.pi * _bump(r / R)
    return np.stack([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1)


INITIAL_CONDITIONS = {
    "uniform": init_uniform,
    "modulated-helix": init_modulated_helix,
    "stereographic-lump": init_stereographic_lump,
}


# ---------------------------------------------------------------------------
# Kinematic decomposition S_t = d2 S_x + d3 S_y
# ---------------------------------------------------------------------------

M0_MASK_TOL = 1e-8


@dataclass(frozen=True)
class M0Coeffs:
    a12: np.ndarray
    a13: np.ndarray
    b12: np.ndarray
    b13: np.ndarray
    c12: np.ndarray
    c13: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    mask: np.ndarray = field(repr=False, default=None)  # True where degenerate


def m0_reduce(coeffs, mask_tol: float = M0_MASK_TOL) -> M0Coeffs:
    """Read the decomposition coefficients off frame coefficients.

    Expects an object with fields k, sigma, tau, m1..m3, w1..w3 (a
    frames.FrameCoeffs).  d2, d3 solve the 2x2 system

        S_t = a12 e2 + a13 e3,  S_x = b12 e2 + b13 e3,  S_y = c12 e2 + c13 e3

    by Cramer's rule; points with |det| < mask_tol are masked out and
    counted.  Residual convergence statements need a mask_tol held fixed
    across the grid ladder (1/det amplifies coefficient errors without
    bound as points approach the degeneracy otherwise).
    """
    a12, a13 = coeffs.w3, -coeffs.w2
    b12, b13 = coeffs.k, -coeffs.sigma
    c12, c13 = coeffs.m3, -coeffs.m2
    delta = b12 * c13 - b13 * c12
    mask = np.abs(delta) < mask_tol
    if np.count_nonzero(mask) > 0.5 * mask.size:
        raise DegenerateFieldError(
            f"degenerate frame: {np.count_nonzero(mask)} of {mask.size} points have |det| < {mask_tol}")
    safe = np.where(mask, 1.0, delta)
    d2 = np.where(mask, 0.0, (a12 * c13 - a13 * c12) / safe)
    d3 = np.where(mask, 0.0, (b12 * a13 - a12 * b13) / safe)
    return M0Coeffs(a12, a13, b12, b13, c12, c13, d2, d3, mask)


def m0_residual(grid: Grid2, S: np.ndarray, par: SpinParams, m0: M0Coeffs,
                scheme=SPECTRAL) -> float:
    """Masked max-norm of S_t - d2 S_x - d3 S_y with S_t from spin_rhs."""
    St = spin_rhs(grid, S, par, scheme)
    Sx = ddx(grid, S, scheme)
    Sy = ddy(grid, S, scheme)
    res = St - m0.d2[..., None] * Sx - m0.d3[..., None] * Sy
    keep = ~m0.mask
    return float(np.max(np.abs(res[keep])))
