"""NLS-type counterpart: complex pair (q, p) coupled to a real scalar v.

Adopted evolution (the unique reading whose c=0,d=1 limit is the Zakharov
system and whose d=0 limit is the Strachan system):

    i q_t = q_xy - 4ic (v q)_x + 2 d^2 v q
   -i p_t = p_xy + 4ic (v p)_x + 2 d^2 v p
      v_x = (p q)_y

For the physical reduction p = beta * conj(q), the pair equations are complex
conjugates of each other and v stays real, since p q = beta |q|^2.  States
carry that reduction, and the solver steps it in reduced form: only q is
differentiated, p_t = beta * conj(q_t) is formed without a transform, and v
is solved from the real density beta |q|^2 on the half-spectrum path.  The
RK4 step still advances p next to q and reports how far the pair drifted
from p = beta conj(q) (conj_dev): with a correct rhs the conjugation is
exact and conj_dev is 0, so it guards the rhs's pairing.  (Stepped as a
general pair, (q, p) stays on the reduction to rounding too: the complex
derivative drops the even-n Nyquist mode, as the real one does, so it
commutes with conjugation.)  nls_rhs and solve_v_nls also take a general
pair (an explicit p), which the equivalence check and the reduction tests
use.

Plane waves q = A exp(i(k1 x + k2 y - w t)) with constant v = v0 satisfy the
dispersion relation  w = -k1 k2 + 4 c v0 k1 + 2 d^2 v0  (and the constraint
forces v0 = 0 on the periodic box, leaving w = -k1 k2).
"""

from dataclasses import dataclass

import numpy as np

from .errors import FieldError, ParameterError, UnstableStepError
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
    conj_dev: float = 0.0    # |p - beta conj q| after the step that made q
    v_row_mean: float = 0.0  # max |row mean| of (p q)_y that inv_dx discarded


def _paired(q: np.ndarray, beta: int) -> np.ndarray:
    """p = beta*conj(q) by a sign flip: exact, and silent on non-finite q."""
    p = np.conj(q)
    return p if beta == 1 else np.negative(p, out=p)


def solve_v_nls(grid: Grid2, q: np.ndarray, p, scheme=SPECTRAL, beta: int = 1):
    """v with v_x = (p q)_y, zero x-mean.

    Returns (v, row_mean, imag_residue).  For a general pair the imaginary
    part is discarded and its magnitude reported (it vanishes identically
    when p = beta conj q).  p=None stands for p = beta*conj(q): v then comes
    from the real density beta |q|^2 on the half-spectrum path and
    imag_residue is 0.  That density equals Re(p q) to one rounding (numpy's
    complex product may fuse its multiply-add, the plain sum does not).
    """
    check_finite(q, "q")
    if p is None:
        w, row_mean = inv_dx(grid, ddy(grid, beta * (q.real * q.real + q.imag * q.imag),
                                       scheme))
        return w, row_mean, 0.0
    check_finite(p, "p")
    w, row_mean = inv_dx(grid, ddy(grid, p * q, scheme))
    imag_residue = float(np.max(np.abs(w.imag))) if np.iscomplexobj(w) else 0.0
    return np.real(w), np.real(row_mean), imag_residue


def nls_rhs(grid: Grid2, q: np.ndarray, p, v: np.ndarray, par: NlsParams,
            scheme=SPECTRAL):
    """(q_t, p_t) for frozen constraint field v.

    p=None stands for p = beta*conj(q): only q is differentiated and p_t is
    beta*conj(q_t), formed without a transform.
    """
    c, d = par.c, par.d
    q_xy = ddy(grid, ddx(grid, q, scheme), scheme)
    q_t = -1j * (q_xy + 2.0 * d * d * v * q)
    if c != 0.0:
        q_t = q_t - 4.0 * c * ddx(grid, v * q, scheme)
    if p is None:
        return q_t, _paired(q_t, par.beta)
    p_xy = ddy(grid, ddx(grid, p, scheme), scheme)
    p_t = 1j * (p_xy + 2.0 * d * d * v * p)
    if c != 0.0:
        p_t = p_t - 4.0 * c * ddx(grid, v * p, scheme)
    return q_t, p_t


def make_state(grid: Grid2, q: np.ndarray, par: NlsParams, t: float = 0.0,
               scheme=SPECTRAL, conj_dev: float = 0.0) -> NlsState:
    """Assemble an NlsState with p = beta*conj(q) and v solved from beta |q|^2."""
    q = np.asarray(q, dtype=complex)
    v, row_mean, _ = solve_v_nls(grid, q, None, scheme, par.beta)
    return NlsState(q=q, p=_paired(q, par.beta), v=v, t=t, conj_dev=conj_dev,
                    v_row_mean=float(np.max(np.abs(row_mean))))


def step_rk4_nls(grid: Grid2, q: np.ndarray, par: NlsParams, dt: float,
                 scheme=SPECTRAL):
    """One RK4 step of the pair (q, p = beta*conj(q)), v re-solved at each stage.

    Each stage differentiates q only and takes v from beta |q|^2; p rides in
    the RK4 tuple with p_t = beta*conj(q_t) from nls_rhs.  Returns (q, max |p -
    beta*conj(q)| after the step), which is exactly 0 unless the rhs broke the
    pairing (then the step aborts); the stepped p is dropped, since states
    carry p = beta*conj(q).  A non-finite q is rejected (FieldError); a step
    that overflows from a finite q is a numerical abort.
    """
    def rhs(pair):
        q = pair[0]
        v, _, _ = solve_v_nls(grid, q, None, scheme, par.beta)
        return nls_rhs(grid, q, None, v, par, scheme)

    check_finite(q, "q")
    try:
        # an overflow anywhere in the step ends as a non-finite stage or
        # result, which aborts below; it needs no warning of its own
        with np.errstate(over="ignore", invalid="ignore"):
            q_new, p_new = rk4(grid, rhs, (q, _paired(q, par.beta)), dt)
            conj_dev = float(np.max(np.abs(p_new - _paired(q_new, par.beta))))
    except FieldError as exc:
        raise UnstableStepError(f"step went non-finite: {exc}") from exc
    if not conj_dev <= RENORM_LIMIT:
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
