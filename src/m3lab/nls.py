"""NLS-type counterpart: complex pair (q, p) coupled to a real scalar v.

Adopted evolution (the unique reading whose c=0,d=1 limit is the Zakharov
system and whose d=0 limit is the Strachan system):

    i q_t = q_xy - 4ic (v q)_x + 2 d^2 v q
   -i p_t = p_xy + 4ic (v p)_x + 2 d^2 v p
      v_x = (p q)_y

For the physical reduction p = beta * conj(q), the pair equations are complex
conjugates of each other and v stays real, since p q = beta |q|^2.  States
hold q and v only, and the RK4 step advances q alone; p is formed from q by
_paired where a slice is written.  As on the spin side, a march loads q
into one workspace, checked once, and steps it in place; each step checks
its result.
States and stages solve v from beta |q|^2 on the half-spectrum path and a
stage takes q_t as

    q_t = (-i q_y - 4c v q)_x - 2i d^2 v q,

two complex derivatives where q_xy and (v q)_x take three.  Both derivative
schemes are diagonal in Fourier space (spectral multipliers, periodic
central4 stencils), so d_x d_y = d_y d_x and the regrouped rate is the q_t
of nls_rhs up to rounding.  (Stepped as a general pair, (q, p) stays on the
reduction to rounding too: the complex derivative drops the even-n Nyquist
mode, as the real one does, so it commutes with conjugation.)  nls_rhs and
solve_v_nls, the general-pair forms (an explicit p), are a reference for
tests and selftest; the equivalence check reads the stepper's q_rate.

Plane waves q = A exp(i(k1 x + k2 y - w t)) with constant v = v0 satisfy the
dispersion relation  w = -k1 k2 + 4 c v0 k1 + 2 d^2 v0  (and the constraint
forces v0 = 0 on the periodic box, leaving w = -k1 k2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, NumericalError, ParameterError, UnstableStepError
from .fields import (SPECTRAL, Grid2, _deriv, _inv_dx, check_finite, check_mode, checked_dt, ddx,
                     ddy, inv_dx, march, max_dt, meanx, rk4, spectral_tail)

_MODELS = ("M3q", "Zakharov", "Strachan")


@dataclass(frozen=True)
class NlsParams:
    c: float = 0.0
    d: float = 1.0
    beta: int = 1
    model: str = "M3q"

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ParameterError(f"unknown nls model {self.model!r}")
        if self.beta not in (1, -1):
            raise ParameterError("beta must be +1 or -1")
        if self.model == "Zakharov" and (self.c, self.d) != (0.0, 1.0):
            raise ParameterError("Zakharov requires (c, d) = (0, 1)")
        if self.model == "Strachan" and self.d != 0.0:
            raise ParameterError("Strachan requires d = 0")
        if not (math.isfinite(2.0 * self.d * self.d) and math.isfinite(4.0 * self.c)):
            raise ParameterError(f"(c, d) = ({self.c!r}, {self.d!r}) overflows 2 d^2 or 4c")


@dataclass(frozen=True)
class NlsState:
    q: np.ndarray            # (ny, nx) complex; p = beta * conj(q)
    v: np.ndarray            # (ny, nx) real, zero x-mean
    t: float = 0.0
    v_row_mean: float = 0.0  # max |row mean| of (p q)_y that inv_dx discarded
    tail: float = 0.0        # spectral tail of q (fields.spectral_tail)


def _paired(q: np.ndarray, beta: int) -> np.ndarray:
    """p = beta*conj(q) by a sign flip: exact, and silent on non-finite q.
    The p of a written slice."""
    p = np.conj(q)
    return p if beta == 1 else np.negative(p, out=p)


def solve_v_nls(grid: Grid2, q: np.ndarray, p: np.ndarray, scheme=SPECTRAL):
    """v with v_x = (p q)_y, zero x-mean, for a general pair (q, p).

    Returns (v, row_mean, imag_residue): the imaginary part is discarded and
    its magnitude reported (it vanishes when p = beta conj q, up to the
    rounding of the complex product).  A state on the reduction solves v
    from the real density beta |q|^2 instead (make_state, the stepper).
    """
    check_finite(q, "q")
    check_finite(p, "p")
    w, row_mean = inv_dx(grid, ddy(grid, p * q, scheme))
    imag_residue = float(np.max(np.abs(w.imag))) if np.iscomplexobj(w) else 0.0
    return np.real(w), np.real(row_mean), imag_residue


def _paired_v(grid: Grid2, q: np.ndarray, scheme, beta: int, planes) -> tuple:
    """v of the paired q and its integrand (beta |q|^2)_y, q unchecked,
    written into planes, three real arrays of q's shape.  The density is
    Re(p q) to one rounding (numpy's complex product may fuse its multiply-add)."""
    dens, v_x, v = planes
    np.multiply(q.real, q.real, out=dens)
    dens += np.multiply(q.imag, q.imag, out=v)
    np.multiply(beta, dens, out=dens)
    _deriv(dens, scheme, grid.hy, -2, out=v_x, work=dens)
    return _inv_dx(grid, v_x, out=v, work=dens), v_x


def nls_rhs(grid: Grid2, q: np.ndarray, p: np.ndarray, v: np.ndarray, par: NlsParams,
            scheme=SPECTRAL):
    """(q_t, p_t) of the general pair for frozen constraint field v."""
    c, d = par.c, par.d
    q_xy = ddy(grid, ddx(grid, q, scheme), scheme)
    q_t = -1j * (q_xy + 2.0 * d * d * v * q)
    if c != 0.0:
        q_t = q_t - 4.0 * c * ddx(grid, v * q, scheme)
    p_xy = ddy(grid, ddx(grid, p, scheme), scheme)
    p_t = 1j * (p_xy + 2.0 * d * d * v * p)
    if c != 0.0:
        p_t = p_t - 4.0 * c * ddx(grid, v * p, scheme)
    return q_t, p_t


def make_state(grid: Grid2, q: np.ndarray, par: NlsParams, t: float = 0.0,
               scheme=SPECTRAL) -> NlsState:
    """Assemble an NlsState with v solved from beta |q|^2 (p = beta*conj(q)).

    The state owns a copy of q (which may be a stepper's workspace array);
    a non-finite q is rejected (FieldError), and a q whose density beta |q|^2
    overflows is a numerical abort, with no warning on the way.
    """
    q = check_finite(np.array(q, dtype=complex), "q")
    with np.errstate(over="ignore", invalid="ignore"):
        v, v_x = _paired_v(grid, q, scheme, par.beta, tuple(np.empty(q.shape) for _ in range(3)))
    if not np.all(np.isfinite(v)):
        raise NumericalError(f"v of q is not finite (max |q| = {np.max(np.abs(q)):.3e})")
    return NlsState(q=q, v=v, t=t, v_row_mean=float(np.max(np.abs(meanx(v_x)))),
                    tail=spectral_tail(q))


class _Workspace:
    """q loaded: a copy of q, checked finite, and every array an NLS step
    writes; march_nls loads one for all its steps.  RK4's scratch is tmp,
    which a rate leaves free."""

    def __init__(self, q: np.ndarray):
        self.q = check_finite(np.array(q, dtype=complex), "q")
        self.planes = tuple(np.empty(self.q.shape) for _ in range(3))
        self.vq, self.w, self.tmp, self.rate = (np.empty(self.q.shape, complex) for _ in range(4))
        self.rk4 = (np.empty(self.q.shape, complex), np.empty(self.q.shape, complex), self.tmp)


def _q_rate(grid: Grid2, q: np.ndarray, par: NlsParams, scheme, ws) -> np.ndarray:
    """q_t = (-i q_y - 4c v q)_x - 2i d^2 v q with v from beta |q|^2, into
    ws.rate; q unchecked."""
    v, _ = _paired_v(grid, q, scheme, par.beta, ws.planes)
    vq = np.multiply(v, q, out=ws.vq)
    w = _deriv(q, scheme, grid.hy, -2, out=ws.w)
    w *= -1j
    if par.c != 0.0:
        w -= np.multiply(4.0 * par.c, vq, out=ws.tmp)
    q_t = _deriv(w, scheme, grid.hx, -1, out=ws.rate)
    q_t -= np.multiply(2j * par.d * par.d, vq, out=ws.tmp)
    return q_t


def q_rate(grid: Grid2, q: np.ndarray, par: NlsParams, scheme=SPECTRAL) -> tuple:
    """(q_t, v) of q (p = beta*conj(q)) in a workspace of their own, by the
    kernel step_rk4_nls integrates; a non-finite q is rejected (FieldError)."""
    ws = _Workspace(q)
    return _q_rate(grid, ws.q, par, scheme, ws), ws.planes[-1]  # _paired_v solves v into it


def step_rk4_nls(grid: Grid2, ws: _Workspace, par: NlsParams, dt: float,
                 scheme=SPECTRAL) -> None:
    """One RK4 step of the q loaded in ws (p = beta*conj(q)), in place, v
    re-solved at each stage; dt is checked against max_dt(grid).

    The stages run _q_rate unchecked, every array in ws: q was checked when
    loaded, and the step checks the new q before it writes it into ws.q.  A
    step that ends non-finite is a numerical abort (UnstableStepError).
    """
    checked_dt(dt, max_dt(grid))
    # an overflow anywhere in the step ends as a non-finite result, which
    # aborts below; it needs no warning of its own
    with np.errstate(over="ignore", invalid="ignore"):
        q_new = rk4(lambda y: _q_rate(grid, y, par, scheme, ws), ws.q, dt, ws.rk4)
    try:
        check_finite(q_new, "q")
    except FieldError as exc:
        raise UnstableStepError(f"step went non-finite: {exc}") from exc
    np.copyto(ws.q, q_new)  # out of the sum arrays, which the next step writes


def march_nls(grid: Grid2, state: NlsState, par: NlsParams, dt: float,
              n_steps: int, save_every: int = 1, scheme=SPECTRAL):
    """Yield state, then the state after every save_every-th of n_steps steps.

    state.q is loaded into one workspace, which every step runs in
    (fields.march); each kept state owns copies of its arrays (make_state).
    """
    ws = _Workspace(state.q)
    return march(state, lambda: step_rk4_nls(grid, ws, par, dt, scheme),
                 lambda t, _: make_state(grid, ws.q, par, t, scheme),
                 dt, n_steps, save_every)


def run_nls(grid: Grid2, state: NlsState, par: NlsParams, dt: float,
            n_steps: int, save_every: int = 1, scheme=SPECTRAL) -> list:
    """The states of march_nls as a list: the initial state and every
    save_every-th of n_steps steps."""
    return list(march_nls(grid, state, par, dt, n_steps, save_every, scheme))


def init_plane_wave(grid: Grid2, amplitude: float = 0.5, k1: int = 1, k2: int = 1) -> np.ndarray:
    """q = A exp(i(k1 x + k2 y)) with integer mode numbers on the box, each
    below the Nyquist mode of its axis (ParameterError)."""
    check_mode("k1", k1, grid.nx)
    check_mode("k2", k2, grid.ny)
    X, Y = grid.meshgrid()
    return amplitude * np.exp(1j * (k1 * 2.0 * np.pi * X / grid.lx
                                    + k2 * 2.0 * np.pi * Y / grid.ly))


def plane_wave_omega(grid: Grid2, par: NlsParams, k1: int = 1, k2: int = 1,
                     v0: float = 0.0) -> float:
    """Plane-wave frequency w = -k1 k2 + 4 c v0 k1 + 2 d^2 v0 (physical wavenumbers)."""
    kx = k1 * 2.0 * np.pi / grid.lx
    ky = k2 * 2.0 * np.pi / grid.ly
    return -kx * ky + 4.0 * par.c * v0 * kx + 2.0 * par.d**2 * v0


INITIAL_CONDITIONS = {
    "plane-wave": init_plane_wave,
}
