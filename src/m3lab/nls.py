"""NLS-type counterpart: complex pair (q, p) coupled to a real scalar v.

Adopted evolution (the unique reading whose c=0,d=1 limit is the Zakharov
system and whose d=0 limit is the Strachan system):

    i q_t = q_xy - 4ic (v q)_x + 2 d^2 v q
   -i p_t = p_xy + 4ic (v p)_x + 2 d^2 v p
      v_x = (p q)_y

For the physical reduction p = beta * conj(q), the pair equations are complex
conjugates of each other and v stays real, since p q = beta |q|^2.  States
carry that reduction; the RK4 step still advances p next to q and reports
how far the pair drifted from it (conj_dev) before resetting p.

Plane waves q = A exp(i(k1 x + k2 y - w t)) with constant v = v0 satisfy the
dispersion relation  w = -k1 k2 + 4 c v0 k1 + 2 d^2 v0  (and the constraint
forces v0 = 0 on the periodic box, leaving w = -k1 k2).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnstableStepError
from .fields import SPECTRAL, Grid2, check_finite, ddx, ddy, inv_dx, march, rk4
from .spin import RENORM_LIMIT

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


@dataclass(frozen=True)
class NlsState:
    q: np.ndarray            # (ny, nx) complex
    p: np.ndarray            # (ny, nx) complex, beta * conj(q)
    v: np.ndarray            # (ny, nx) real, zero x-mean
    t: float = 0.0
    conj_dev: float = 0.0    # |p - beta conj q| removed by the step that made q


def solve_v_nls(grid: Grid2, q: np.ndarray, p: np.ndarray, scheme=SPECTRAL):
    """v with v_x = (p q)_y, zero x-mean.

    Returns (v, row_mean, imag_residue); the imaginary part is discarded and
    its magnitude reported (it vanishes identically when p = beta conj q).
    """
    check_finite(q, "q")
    check_finite(p, "p")
    w, row_mean = inv_dx(grid, ddy(grid, p * q, scheme))
    imag_residue = float(np.max(np.abs(w.imag))) if np.iscomplexobj(w) else 0.0
    return np.real(w), np.real(row_mean), imag_residue


def nls_rhs(grid: Grid2, q: np.ndarray, p: np.ndarray, v: np.ndarray,
            par: NlsParams, scheme=SPECTRAL):
    """(q_t, p_t) for frozen constraint field v."""
    c, d = par.c, par.d
    q_xy = ddy(grid, ddx(grid, q, scheme), scheme)
    p_xy = ddy(grid, ddx(grid, p, scheme), scheme)
    q_t = -1j * (q_xy + 2.0 * d * d * v * q)
    p_t = 1j * (p_xy + 2.0 * d * d * v * p)
    if c != 0.0:
        q_t = q_t - 4.0 * c * ddx(grid, v * q, scheme)
        p_t = p_t - 4.0 * c * ddx(grid, v * p, scheme)
    return q_t, p_t


def make_state(grid: Grid2, q: np.ndarray, par: NlsParams, t: float = 0.0,
               scheme=SPECTRAL, conj_dev: float = 0.0) -> NlsState:
    """Assemble an NlsState with p = beta*conj(q) and v solved from the pair."""
    p = par.beta * np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p, scheme)
    return NlsState(q=np.asarray(q, dtype=complex), p=np.asarray(p, dtype=complex),
                    v=v, t=t, conj_dev=conj_dev)


def step_rk4_nls(grid: Grid2, q: np.ndarray, par: NlsParams, dt: float,
                 scheme=SPECTRAL):
    """One RK4 step of the pair (q, p = beta*conj(q)), v re-solved at each stage.

    The discrete flow keeps the pairing only up to rounding.  Returns (q,
    max |p - beta*conj(q)| after the step); the stepped p is then dropped,
    since states carry p = beta*conj(q).
    """
    def rhs(pair):
        v, _, _ = solve_v_nls(grid, *pair, scheme)
        return nls_rhs(grid, *pair, v, par, scheme)

    q_new, p_new = rk4(grid, rhs, (q, par.beta * np.conj(q)), dt)
    conj_dev = float(np.max(np.abs(p_new - par.beta * np.conj(q_new))))
    if conj_dev > RENORM_LIMIT:
        raise UnstableStepError(f"conjugate pairing broke: deviation {conj_dev:.3e}")
    return q_new, conj_dev


def run_nls(grid: Grid2, state: NlsState, par: NlsParams, dt: float,
            n_steps: int, save_every: int = 1, scheme=SPECTRAL):
    """March n_steps, returning the saved states (initial state included)."""
    return [state] + march(
        lambda q: step_rk4_nls(grid, q, par, dt, scheme), state.q, state.t, dt,
        n_steps, save_every,
        lambda q, t, conj_dev: make_state(grid, q, par, t, scheme, conj_dev))


def init_plane_wave(grid: Grid2, amplitude: float = 0.5, k1: int = 1, k2: int = 1) -> np.ndarray:
    """q = A exp(i(k1 x + k2 y)) with integer mode numbers on the box."""
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
