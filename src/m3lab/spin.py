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
SpinParams owns |2cl+d| >= DENOM_TOL for every model, checked once: all that
divides by par.denom (v, the q map, the spin-side Lax pair) relies on it.
The pair's U' also divides by 2c lam + d, refused below the same DENOM_TOL.

S is a (3, ny, nx) stack of component planes, in and out: the generators
make it, SpinState holds it and spin_rhs returns S_t as one.  The kernel
(spin_rhs, and the constraint solve it shares with solve_u, solve_v and
make_state) takes S_x, S_y and (S ^ S_y)_x each as one derivative of a
stack, and the derivatives, cross and dot products, u, v, the rate and
the in-place RK4 stages (fields.rk4) are written into the arrays of one
workspace.  Loading S into a workspace copies it into the stack and checks
its shape and its values (fields.check_field): that is where S enters.
step_rk4_spin advances a loaded workspace in place, and a step that ends
non-finite aborts before it writes the stack.  march_spin loads the
initial S and steps that workspace (fields.march); only kept states are
copied out of it, and each is yielded as it is made, so a caller that
writes it out (simulate-spin) holds one at a time.  A march's default step
is stable_dt of its initial state, below the ceiling each step checks.

A march runs on the full grid, or with band in the 2/3 band (the kernel
equiv-check's ladder runs): each stage's rate is projected into the band
(fields.band_limit) and made tangent to S again.  On the full grid the
kernel grows aliased modes from rounding (the kappa >= 2 helix and the
cone waves abort at any step); in the band it does not, and its top
wavenumbers, 2/3 of the grid's, allow a step about twice as long
(stable_dt(..., band=True), under max_dt(grid, band=True)).

The kinematic decomposition S_t = d2 S_x + d3 S_y (with coefficients read off
a moving frame) lives here as m0_reduce / m0_residual.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFieldError, ParameterError, UnstableStepError
from .fields import (
    BLOCK_POINTS,
    SPECTRAL,
    STEP_SAFETY,
    Antideriv,
    Grid2,
    _deriv,
    _inv_dx,
    band_limit,
    check_field,
    check_mode,
    checked_dt,
    cross_planes,
    ddx,
    ddy,
    dot3,
    march,
    max_dt,
    meanx,
    norm3,
    rk4,
    spectral_tail,
)

DENOM_TOL = 1e-12        # rejection threshold for |2cl+d| and |2c lam+d|
RENORM_LIMIT = 1e-3      # step rejected beyond this renormalization correction
STATE_TOL = 1e-9         # check_unit: max | |S| - 1 |

_MODELS = ("M1", "M2", "M3")


@dataclass(frozen=True)
class SpinParams:
    c: float = 0.0
    d: float = 1.0
    l: float = 0.0
    model: str = "M3"

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ParameterError(f"unknown spin model {self.model!r}")
        if self.model == "M1" and (self.c, self.d, self.l) != (0.0, 1.0, 0.0):
            raise ParameterError("M1 requires (c, d, l) = (0, 1, 0)")
        if self.model == "M2":
            if self.d != 0.0:
                raise ParameterError("M2 requires d = 0")
            if self.c == 0.0:
                raise ParameterError("M2 requires c != 0")
        if abs(self.denom) < DENOM_TOL:
            raise ParameterError(f"{self.model} requires |2cl + d| >= {DENOM_TOL}, "
                                 f"got {abs(self.denom):.3e}")
        if not all(map(math.isfinite, (self.denom, self.drift, 4.0 * self.c,
                                       self.denom * self.denom))):
            raise ParameterError(f"(c, d, l) = ({self.c!r}, {self.d!r}, {self.l!r}) overflows "
                                 "2cl + d, its square, 2l(cl + d) or 4c")

    @property
    def denom(self) -> float:
        return 2.0 * self.c * self.l + self.d

    @property
    def drift(self) -> float:
        """Coefficient of the S_y drift term, 2l(cl+d)."""
        return 2.0 * self.l * (self.c * self.l + self.d)

    @property
    def v_prefactor(self) -> float:
        return 1.0 / (4.0 * self.denom**2)


@dataclass(frozen=True)
class SpinState:
    S: np.ndarray            # (3, ny, nx), unit length
    u: np.ndarray            # (ny, nx), zero x-mean
    v: np.ndarray            # (ny, nx), zero x-mean
    t: float = 0.0
    renorm: float = 0.0      # max |1 - |S|| removed by the step that made S
    u_row_mean: float = 0.0  # max |row mean| of the u integrand (topological obstruction)
    v_row_mean: float = 0.0  # max |row mean| of the v integrand
    tail: float = 0.0        # spectral tail of S (fields.spectral_tail)
    slopes: tuple = (0.0, 0.0)  # max |S_x|, max |S_y|, which stable_dt reads


def check_unit(S: np.ndarray) -> np.ndarray:
    """S, unless |S| deviates from 1 by more than STATE_TOL (ParameterError):
    checked before the constraint solve, which a far from unit S overflows.
    |S| is formed on blocks of rows, with no array the size of S and no
    warning where it overflows."""
    rows = max(1, BLOCK_POINTS // np.shape(S)[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        dev = max(float(np.max(np.abs(norm3(S[:, j:j + rows]) - 1.0)))
                  for j in range(0, np.shape(S)[-2], rows))
    if dev > STATE_TOL:
        raise ParameterError(f"|S| deviates from 1 by {dev:.3e}")
    return S


class _Workspace:
    """S loaded: a copy of the stack S as P, checked (shape and values), and
    every array a step writes.  march_spin loads one and reuses it in every
    stage of every step and for every kept state.  With band its rate runs
    in the 2/3 band, through spectrum, the stack's half spectrum
    (fields.band_limit); else spectrum is None.  ceiling is the step bound
    of its kernel (fields.max_dt).  RK4's scratch is buf, which a stage
    leaves free."""

    def __init__(self, grid: Grid2, S: np.ndarray, band: bool = False):
        shape = (3, grid.ny, grid.nx)
        self.P, self.Sx, self.Sy, self.buf, self.rate = (np.empty(shape) for _ in range(5))
        self.u_x, self.u, self.v_x, self.v, self.tmp, self.length = (
            np.empty(shape[1:]) for _ in range(6))
        self.rk4 = (np.empty(shape), np.empty(shape), self.buf)
        self.spectrum = np.empty((3, grid.ny, grid.nx // 2 + 1), complex) if band else None
        self.ceiling = max_dt(grid, band=band)
        self.P[...] = check_field(grid, S, "S", (3,))


def _constraints(grid: Grid2, P, scheme, par: SpinParams, ws) -> None:
    """S_x, S_y, u and its integrand u_x (and v and v_x, given par) from the
    stack P of S, unchecked, into the arrays of ws of those names.

    The integrands are kept, so the row means that inv_dx discards are
    taken only where they are read.
    """
    _deriv(P, scheme, grid.hx, -1, out=ws.Sx, work=ws.buf)
    _deriv(P, scheme, grid.hy, -2, out=ws.Sy, work=ws.buf)
    dot3(P, cross_planes(ws.Sx, ws.Sy, ws.buf, ws.tmp), ws.u_x, ws.tmp, (0, 1, 2))
    np.negative(ws.u_x, out=ws.u_x)
    # buf is free again: its planes take the shifted lanes
    if par is not None:
        dens = dot3(ws.Sx, ws.Sx, ws.buf[0], ws.tmp, (0, 1, 2))
        _deriv(dens, scheme, grid.hy, -2, out=ws.v_x, work=dens)
        ws.v_x *= par.v_prefactor
        _inv_dx(grid, ws.v_x, out=ws.v, work=dens)
    _inv_dx(grid, ws.u_x, out=ws.u, work=ws.buf[1])


def solve_u(grid: Grid2, S: np.ndarray, scheme=SPECTRAL):
    """u with u_x = -S.(S_x ^ S_y), zero x-mean.

    Returns (u, row_mean) where row_mean is the discarded x-mean of the
    integrand (solvability diagnostic; zero for topologically trivial rows).
    States the M-III constraint on u alone; tests hold it to u_from_fg.
    """
    ws = _Workspace(grid, S)
    _constraints(grid, ws.P, scheme, None, ws)
    return Antideriv(ws.u, meanx(ws.u_x)[:, 0])


def solve_v(grid: Grid2, S: np.ndarray, par: SpinParams, scheme=SPECTRAL):
    """v with v_x = (S_x.S_x)_y / (4(2cl+d)^2), zero x-mean; returns (v, row_mean).
    States the M-III constraint on v alone, the partner's v through 2cl+d."""
    ws = _Workspace(grid, S)
    _constraints(grid, ws.P, scheme, par, ws)
    return Antideriv(ws.v, meanx(ws.v_x)[:, 0])


def _rhs(grid: Grid2, P: np.ndarray, par: SpinParams, scheme, ws) -> np.ndarray:
    """S_t of the stack P of S, P unchecked, written into ws.rate.  In a
    band workspace the rate r is projected into the 2/3 band and its normal
    part removed, r <- B r - (S . B r) S, so it stays tangent to S: the
    band stops the aliasing growth of the full-grid kernel, and the normal
    part a bare projection leaves would show as renormalisation."""
    _constraints(grid, P, scheme, par, ws)
    flux = cross_planes(P, ws.Sy, ws.buf, ws.tmp)
    out = _deriv(flux, scheme, grid.hx, -1, out=ws.rate, work=flux)
    out += np.multiply(ws.u_x, P, out=ws.buf)
    out += np.multiply(ws.u, ws.Sx, out=ws.buf)
    if par.drift != 0.0:
        out += np.multiply(par.drift, ws.Sy, out=ws.buf)
    if par.c != 0.0:
        out -= np.multiply(np.multiply(4.0 * par.c, ws.v, out=ws.tmp), ws.Sx, out=ws.buf)
    if ws.spectrum is not None:
        band_limit(out, out, ws.spectrum)
        out -= np.multiply(dot3(P, out, ws.tmp, ws.length, (0, 1, 2)), P, out=ws.buf)
    return out


def spin_rhs(grid: Grid2, S: np.ndarray, par: SpinParams, scheme=SPECTRAL) -> np.ndarray:
    """S_t for the current spin field; tangent to S pointwise.

    The (u S)_x term is expanded as u_x S + u S_x with the exact pointwise
    constraint u_x = -S.(S_x ^ S_y) substituted in the first piece.  On the
    periodic box the zero-mean u drops the row mean of that integrand (the
    solvability defect); substituting the exact u_x keeps S_t orthogonal to
    S to rounding instead of to the size of that defect.

    A non-finite S, or one that is no (3, ny, nx) stack on grid, is
    rejected (FieldError).
    """
    ws = _Workspace(grid, S)
    return _rhs(grid, ws.P, par, scheme, ws)


def _state(grid: Grid2, ws: _Workspace, par: SpinParams, t: float, scheme,
           renorm: float) -> SpinState:
    """The SpinState of the S in the stack of ws, with u, v solved from it
    (one differentiation of S).  Its tail and slopes are taken in ws before
    S, u and v are copied out of it, so the state owns its arrays."""
    _constraints(grid, ws.P, scheme, par, ws)
    slopes = tuple(float(np.max(norm3(d, ws.length, ws.tmp))) for d in (ws.Sx, ws.Sy))
    tail = spectral_tail(ws.P)
    return SpinState(S=ws.P.copy(), u=ws.u.copy(), v=ws.v.copy(), t=t, renorm=renorm,
                     u_row_mean=float(np.max(np.abs(meanx(ws.u_x)))),
                     v_row_mean=float(np.max(np.abs(meanx(ws.v_x)))), tail=tail, slopes=slopes)


def make_state(grid: Grid2, S: np.ndarray, par: SpinParams, t: float = 0.0,
               scheme=SPECTRAL) -> SpinState:
    """Assemble a SpinState with u, v solved from S; a non-finite S, or one
    that is no (3, ny, nx) stack on grid, is rejected (FieldError)."""
    return _state(grid, _Workspace(grid, S), par, t, scheme, 0.0)


def stable_dt(grid: Grid2, par: SpinParams, state: SpinState, band: bool = False) -> float:
    """The step a march of state takes by default: STEP_SAFETY of RK4's
    imaginary-axis limit over rho, the norm of the rate's symbol linearised
    about state.S with frozen coefficients, at the largest wavenumbers:

      rho = kx ky                                  S ^ s_xy
          + kx (|S_y| + |u| + 4|c| |v|)            s_x ^ S_y, u s_x, -4c v s_x
          + ky (|S_x| + |2l(cl+d)|                 S_x ^ s_y, the drift
                + 2|c| |S_x|^2 / (2cl+d)^2)        -4c dv S_x, dv from v's constraint

    with each magnitude's maximum over the grid.  Terms of order zero in
    k, and the u constraint's, which reach the tangent modes at O(1), are
    left out.  rho >= kx ky, so the step stays below the ceiling
    fields.max_dt(grid, band=band).  With band, kx and ky are the tops of
    the 2/3 band, for a march in it (march_spin): there the kx ky term is
    4/9 of the full grid's and the first-order ones 2/3, so the step is
    about twice as long.  It reads the u, v and slopes of state, which the
    constraint solve that made state left: it differentiates nothing.
    """
    c = abs(par.c)
    sx, sy = state.slopes
    ax = sy + float(np.max(np.abs(state.u))) + 4.0 * c * float(np.max(np.abs(state.v)))
    ay = sx + abs(par.drift) + 2.0 * c * sx * sx / par.denom ** 2
    return STEP_SAFETY * max_dt(grid, ax, ay, band)


def step_rk4_spin(grid: Grid2, ws: _Workspace, par: SpinParams, dt: float,
                  scheme=SPECTRAL) -> float:
    """One classical RK4 step of the S loaded in ws, in place.

    The new S, renormalized to unit length, replaces the old in the stack
    ws.P; returns the correction max |1 - |S|| that renormalization
    removed; dt is checked against ws.ceiling.  The stages run unchecked,
    every array in ws: the stack was checked when loaded, and a step that
    ends non-finite gives a NaN correction, which aborts it
    (UnstableStepError) before it writes the stack, as a correction beyond
    RENORM_LIMIT does.  The abort names the spectral tail of the S the step
    started from (fields.spectral_tail): a correction that grows linearly
    with dt on a field of large tail is a rate the grid cannot keep tangent
    to an unresolved S, not an unstable step.
    """
    checked_dt(dt, ws.ceiling)
    # an overflow in a stage ends as a non-finite correction, which aborts
    # below; it needs no warning of its own
    with np.errstate(over="ignore", invalid="ignore"):
        T = rk4(lambda P: _rhs(grid, P, par, scheme, ws), ws.P, dt, ws.rk4)
        lengths = norm3(T, ws.length, ws.tmp)
        correction = float(np.max(np.abs(np.subtract(lengths, 1.0, out=ws.tmp), out=ws.tmp)))
    if not correction <= RENORM_LIMIT:
        raise UnstableStepError(f"unstable step: renormalization correction {correction:.3e} "
                                f"(spectral tail of S {spectral_tail(ws.P):.3e})")
    np.divide(T, lengths, out=ws.P)
    return correction


def march_spin(grid: Grid2, state: SpinState, par: SpinParams, dt: float,
               n_steps: int, save_every: int = 1, scheme=SPECTRAL, band: bool = False):
    """Yield state, then the state after every save_every-th of n_steps steps.

    state.S is loaded into one workspace, which every step and kept state
    runs in (fields.march); each kept state owns copies of its arrays.
    With band the rate runs in the 2/3 band (_rhs), and dt may reach the
    band's ceiling, max_dt(grid, band=True).
    """
    ws = _Workspace(grid, state.S, band)
    return march(state, lambda: step_rk4_spin(grid, ws, par, dt, scheme),
                 lambda t, renorm: _state(grid, ws, par, t, scheme, renorm),
                 dt, n_steps, save_every)


def run_spin(grid: Grid2, state: SpinState, par: SpinParams, dt: float,
             n_steps: int, save_every: int = 1, scheme=SPECTRAL) -> list:
    """The states of march_spin as a list: the initial state and every
    save_every-th of n_steps steps."""
    return list(march_spin(grid, state, par, dt, n_steps, save_every, scheme))


# ---------------------------------------------------------------------------
# Built-in initial conditions
# ---------------------------------------------------------------------------

def init_uniform(grid: Grid2) -> np.ndarray:
    """S = e3 everywhere."""
    S = np.zeros((3, grid.ny, grid.nx))
    S[2] = 1.0
    return S


def init_modulated_helix(grid: Grid2, kappa: int = 1, eps: float = 0.08) -> np.ndarray:
    """Equatorial x-helix with a small smooth polar-angle modulation.

    theta = pi/2 + eps*f(x,y) with f built from nonzero x-harmonics, so f has
    zero x-mean on every row; this keeps the torsion row means (the phase
    obstruction of the curvature map) at the eps^2 level.  The winding
    number kappa must lie below the Nyquist mode nx/2 (ParameterError).
    """
    check_mode("kappa", kappa, grid.nx)
    X, Y = grid.meshgrid()
    xs = 2.0 * np.pi * X / grid.lx
    ys = 2.0 * np.pi * Y / grid.ly
    f = np.sin(xs) * np.cos(ys) + 0.4 * np.cos(2.0 * xs + 0.6) * np.sin(ys + 0.4)
    theta = 0.5 * np.pi + eps * f
    psi = kappa * xs
    return np.stack([np.sin(theta) * np.cos(psi),
                     np.sin(theta) * np.sin(psi),
                     np.cos(theta)])


def _bump(t: np.ndarray) -> np.ndarray:
    """C-infinity bump: 1 at t=0, identically 0 for t >= 1."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def init_stereographic_lump(grid: Grid2, radius_frac: float = 0.45) -> np.ndarray:
    """Degree-one lump: S sweeps the sphere once inside a compact disk
    centred in the box.

    Outside the disk S = (0,0,1) exactly, so the field is smooth and periodic
    regardless of the box size.  A radius_frac outside (0, 0.5], a disk
    that is a point or does not fit in the box, is refused (ParameterError).
    """
    if not 0.0 < radius_frac <= 0.5:
        raise ParameterError(f"radius_frac must lie in (0, 0.5], got {radius_frac!r}")
    R = radius_frac * min(grid.lx, grid.ly)
    X, Y = grid.meshgrid()
    dx_ = X - 0.5 * grid.lx
    dy_ = Y - 0.5 * grid.ly
    r = np.sqrt(dx_**2 + dy_**2)
    phi = np.arctan2(-dy_, dx_)  # orientation chosen so the degree is +1
    theta = np.pi * _bump(r / R)
    return np.stack([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)])


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
    """Read the decomposition coefficients off frame coefficients: the
    paper's kinematics, S_t in the span of S_x and S_y read off the frame.

    Expects a frames.FrameCoeffs with time entries.  d2, d3 solve the 2x2
    system

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
    """Masked max-norm of S_t - d2 S_x - d3 S_y with S_t from spin_rhs: the
    kinematics of m0_reduce holds for the M-III rate."""
    St = spin_rhs(grid, S, par, scheme)
    Sx = ddx(grid, S, scheme)
    Sy = ddy(grid, S, scheme)
    res = St - m0.d2 * Sx - m0.d3 * Sy
    return float(np.max(np.abs(res[:, ~m0.mask])))
