"""Executable form of the spin <-> NLS correspondence, plus the bilinear map.

Pipeline: evolve the spin field, build the Frenet frame on saved time
slices, read off curvature k and torsion tau, form

    q = k / (2(2cl+d)) * exp i{ 2l(cl+d) x - inv_dx(tau) }

then measure q_t by central differencing of the saved slices against the
rate simulate-nls integrates (nls.q_rate: p = conj(q), v_x = (p q)_y).  On
a grid ladder the residual must converge at the order of the weakest link
(the time differencing), which is the executable version of the
equivalence claim.

The x-linear part of the phase (the drift term plus the discarded row mean
of tau) is periodic only when its coefficient times lx is a multiple of
2*pi; it is folded in exactly when quantized and reported as an obstruction
otherwise.

The bilinear half maps a pair (f, g) with Lambda = |f|^2 + |g|^2 > 0 to a
unit spin field and an orthonormal frame through Hirota derivatives
D_x(a o b) = a_x b - a b_x.
"""

from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .convergence import fit_order
from .errors import DegenerateFieldError, FieldError, ParameterError
from .fields import (MAX_STEPS, SPECTRAL, TWO_PI, Grid2, check_finite, ddx, ddy, dot3, integrate2,
                     inv_dx, max_dt)
from .frames import (FrameCoeffs, FrameField, _Workspace, charge_density, coeffs_from_frame,
                     frame_from_spin)
from .nls import NlsParams, q_rate
from .spin import SpinParams, make_state, march_spin, stable_dt

FRAME_MASK_LIMIT = 0.10   # abort the equivalence check beyond this mask fraction


@dataclass(frozen=True)
class EquivReport:
    residual_q: float                    # evolution equation for q
    v_cross: float                       # spin-side v versus q-side v
    ladder: list = field(default_factory=list)   # (h, residual_q) pairs
    order: float = float("nan")          # NaN below two ladder sizes; JSON null in as_dict
    obstruction: dict = field(default_factory=dict)
    initial: list = field(default_factory=list)  # per rung: n, masked_fraction, Q, tail of S0

    def as_dict(self) -> dict:
        return {**asdict(self), "order": self.order if np.isfinite(self.order) else None}


def q_from_spin(grid: Grid2, coeffs: FrameCoeffs, par: SpinParams, fold_mode: int = None):
    """Complex field from Frenet data: amplitude k/(2(2cl+d)), phase
    2l(cl+d) x - inv_dx(tau).

    The x-linear coefficient of the phase (drift minus the mean of tau) is
    snapped to the nearest periodic mode 2*pi*m/lx; pass fold_mode to force
    m (needed when comparing slices).  Returns (q, info) where info
    quantifies the snapping defect and the spread of the per-row tau means.
    """
    amp = coeffs.k / (2.0 * par.denom)
    phase_fluct, tau_row_mean = inv_dx(grid, coeffs.tau)
    mu = float(np.mean(tau_row_mean))
    linear = par.drift - mu
    mode = int(np.round(linear * grid.lx / TWO_PI)) if fold_mode is None else int(fold_mode)
    folded = TWO_PI * mode / grid.lx
    x = grid.x[None, :]
    q = amp * np.exp(1j * (folded * x - phase_fluct))
    info = {
        "linear_coeff": linear,
        "fold_mode": mode,
        "fold_defect": linear - folded,
        "tau_row_mean_spread": float(np.max(np.abs(tau_row_mean - mu))),
    }
    return q, info


def _degree(grid: Grid2, S: np.ndarray, scheme) -> float:
    """The degree Q = (1/4 pi) int S.(S_x ^ S_y) of the spin field S."""
    return integrate2(grid, charge_density(grid, S, scheme)) / (4.0 * np.pi)


def _limited_frame(grid: Grid2, S: np.ndarray, scheme, work, what: str):
    """(frame_from_spin of S, in work when it is given, the fraction of the
    grid its mask covers).  The check aborts (DegenerateFieldError), naming
    `what` S is, n and the degree Q of S, on a frame masked beyond
    FRAME_MASK_LIMIT of the grid, and then on a frame that folds where no
    point is masked: its e2 turns by more than 90 degrees (e2.e2' < 0)
    between periodic x- or y-neighbours."""
    F = frame_from_spin(grid, S, scheme, work=work)
    frac = float(np.count_nonzero(F.mask)) / F.mask.size
    if frac > FRAME_MASK_LIMIT:
        why = f"is degenerate on {100*frac:.1f}% of the grid, beyond {FRAME_MASK_LIMIT:.0%}"
    elif folds := sum(int(np.count_nonzero(dot3(F.E[1], np.roll(F.E[1], 1, axis)) < 0.0))
                      for axis in (-1, -2)):
        why = f"folds: e2 turns by more than 90 degrees between {folds} pairs of neighbours"
    else:
        return F, frac
    del F
    raise DegenerateFieldError(f"equivalence check aborted: the frame of the {what} at "
                               f"n = {grid.nx} {why} (degree Q = {_degree(grid, S, scheme):.6f})")


def _slice_to_q(grid: Grid2, S: np.ndarray, par: SpinParams, scheme, fold_mode=None):
    """q of one slice; its frame and coefficients are built in a frames
    workspace of its own."""
    work = _Workspace((grid.ny, grid.nx))
    F, _ = _limited_frame(grid, S, scheme, work, "marched slice")
    return q_from_spin(grid, coeffs_from_frame(grid, F, scheme, work=work), par,
                       fold_mode=fold_mode)


def equiv_residual(grid: Grid2, S_before: np.ndarray, S_mid: np.ndarray,
                   S_after: np.ndarray, dt2: float, par: SpinParams,
                   scheme=SPECTRAL, v_spin: np.ndarray = None) -> dict:
    """Evolution residual of the mapped q on one slice triple, against the
    rate simulate-nls integrates, and the v of that rate against v_spin."""
    q_mid, info = _slice_to_q(grid, S_mid, par, scheme)
    mode = info["fold_mode"]
    q_before, _ = _slice_to_q(grid, S_before, par, scheme, mode)
    q_after, _ = _slice_to_q(grid, S_after, par, scheme, mode)
    q_t, v = q_rate(grid, q_mid, NlsParams(c=par.c, d=par.d), scheme)
    out = {"residual_q": float(np.max(np.abs((q_after - q_before) / dt2 - q_t))),
           "obstruction": info}
    if v_spin is not None:
        out["v_cross"] = float(np.max(np.abs(v - v_spin)))
    return out


def l_equiv_check(par: SpinParams, make_initial, sizes=(32, 64, 128),
                  lx: float = TWO_PI, ly: float = TWO_PI,
                  t_eval: float = 0.2, delta0: float = 0.1,
                  scheme=SPECTRAL) -> EquivReport:
    """Grid-ladder equivalence check.

    make_initial(grid) -> S0.  On each grid the spin field is marched once,
    to t_eval, with slices kept a time delta apart, delta shrinking like the
    grid spacing, so the central-difference q_t is the accuracy bottleneck
    and the fitted order of the residual ladder sits near 2.  Only the last
    three slices are held, and the residuals are taken on them.  Every
    rung's initial field is made (a bad parameter is refused), then its
    frame is checked (_limited_frame), before the first march, and every
    slice the residuals read again after it; the report records each
    rung's initial masked fraction, degree Q and spectral tail (its initial
    state's).  Each rung marches in the 2/3 band, at the step its initial
    state allows there (spin.stable_dt with band), cut to a whole number of
    steps per delta.  A rung past MAX_CELLS points is refused as its grid
    is made, before anything else; one of over MAX_STEPS steps is refused
    (ParameterError), before any frame if it is so at the band's step bound.
    """
    grids = [Grid2(n, n, lx, ly) for n in sizes]
    n0 = sizes[0]
    ladder, initial = [], []

    def spacing(grid, dt):  # (delta, steps per delta, deltas) of a march at steps <= dt
        delta = delta0 * n0 / grid.nx
        spd, blocks = max(1, int(np.ceil(delta / dt))), max(2, int(np.round(t_eval / delta)) + 1)
        if spd * blocks > MAX_STEPS:
            raise ParameterError(f"n = {grid.nx}: the march takes more than {MAX_STEPS} steps "
                                 f"of {dt:.3e}")
        return delta, spd, blocks

    for grid in grids:  # a bad parameter on any rung is refused before any frame is built
        make_initial(grid)
        spacing(grid, max_dt(grid, band=True))
    for grid in grids:  # the check's frame is freed before Q and before any march
        S0 = make_initial(grid)
        frac = _limited_frame(grid, S0, scheme, None, "initial field")[1]
        initial.append({"n": grid.nx, "masked_fraction": frac, "Q": _degree(grid, S0, scheme)})
    del S0
    for grid, rung in zip(grids, initial):
        state = make_state(grid, make_initial(grid), par, scheme=scheme)
        rung["tail"] = state.tail
        delta, spd, blocks = spacing(grid, stable_dt(grid, par, state, band=True))
        states = march_spin(grid, state, par, delta / spd, blocks * spd, spd, scheme,
                            band=True)
        del state
        s0, s1, s2 = deque(states, maxlen=3)
        last = equiv_residual(grid, s0.S, s1.S, s2.S, 2.0 * delta, par,
                              scheme, v_spin=s1.v)
        ladder.append((grid.hx, last["residual_q"]))
    order = fit_order([h for h, _ in ladder], [r for _, r in ladder])
    return EquivReport(**last, ladder=ladder, order=order, initial=initial)


# ---------------------------------------------------------------------------
# Bilinear (Hirota) representation
# ---------------------------------------------------------------------------

LAMBDA_TOL = 1e-12


def hirota_d(grid: Grid2, a: np.ndarray, b: np.ndarray, axis: str = "x",
             scheme=SPECTRAL) -> np.ndarray:
    """Bilinear derivative D(a o b) = a' b - a b' along x or y."""
    deriv = ddx if axis == "x" else ddy
    if axis not in ("x", "y"):
        raise ParameterError(f"axis must be 'x' or 'y', got {axis!r}")
    return deriv(grid, a, scheme) * b - a * deriv(grid, b, scheme)


@dataclass(frozen=True)
class HirotaPair:
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        check_finite(self.f, "f")
        check_finite(self.g, "g")
        lam = self.Lambda
        if float(np.min(lam)) < LAMBDA_TOL:
            raise FieldError(f"|f|^2 + |g|^2 reaches {float(np.min(lam)):.3e}; must stay positive")

    @property
    def Lambda(self) -> np.ndarray:
        return (np.abs(self.f)**2 + np.abs(self.g)**2).real


def spin_from_fg(pair: HirotaPair) -> np.ndarray:
    """Unit spin field: S1 + iS2 = 2 conj(f) g / Lambda, S3 = (|f|^2 - |g|^2)/Lambda."""
    lam = pair.Lambda
    s_plus = 2.0 * np.conj(pair.f) * pair.g / lam
    s3 = (np.abs(pair.f)**2 - np.abs(pair.g)**2) / lam
    return np.stack([s_plus.real, s_plus.imag, s3])


def frame_from_fg(pair: HirotaPair) -> FrameField:
    """Orthonormal triad of the pair; e1 coincides with spin_from_fg.

    e2+ = i(conj(f)^2 + g^2)/Lambda,  e2_3 = i(fg - conj(fg))/Lambda,
    e3+ = (conj(f)^2 - g^2)/Lambda,   e3_3 = -(fg + conj(fg))/Lambda.
    (The second entries of e2+ and e3+ carry g^2, not conj(g)^2; the
    conjugated variant is not orthonormal.)
    """
    f, g = pair.f, pair.g
    lam = pair.Lambda
    fg = f * g
    e2_plus = 1j * (np.conj(f)**2 + g**2) / lam
    e2_3 = (1j * (fg - np.conj(fg))).real / lam
    e3_plus = (np.conj(f)**2 - g**2) / lam
    e3_3 = -(fg + np.conj(fg)).real / lam
    E = (spin_from_fg(pair), np.stack([e2_plus.real, e2_plus.imag, e2_3]),
         np.stack([e3_plus.real, e3_plus.imag, e3_3]))
    return FrameField(E=E, mask=np.zeros(lam.shape, dtype=bool))


def coeffs_from_fg(grid: Grid2, pair: HirotaPair, scheme=SPECTRAL) -> FrameCoeffs:
    """Transport coefficients of the bilinear frame.

    k     = -i D_x(g o f - conj(g) o conj(f)) / Lambda
    sigma =  - D_x(g o f + conj(g) o conj(f)) / Lambda
    tau   =  i D_x(conj(f) o f + conj(g) o g) / Lambda
    m1, m2, m3: same expressions with D_y (m1 like tau, m2 like sigma,
    m3 like k), so each axis gives one (tau-like, sigma-like, k-like)
    stack.  The signs of tau and m1 are fixed by matching the frame
    projections (the conjugation-antisymmetric combinations flip sign under
    the printed ordering).
    """
    f, g = pair.f, pair.g
    fb, gb = np.conj(f), np.conj(g)
    lam = pair.Lambda

    def per_axis(axis):
        d_gf = hirota_d(grid, g, f, axis, scheme)
        d_gf_bar = hirota_d(grid, gb, fb, axis, scheme)
        d_diag = hirota_d(grid, fb, f, axis, scheme) + hirota_d(grid, gb, g, axis, scheme)
        return np.stack([(1j * d_diag / lam).real, (-(d_gf + d_gf_bar) / lam).real,
                         (-1j * (d_gf - d_gf_bar) / lam).real])

    return FrameCoeffs(a=per_axis("x"), b=per_axis("y"))


def gauge_check(grid: Grid2, pair: HirotaPair, scheme=SPECTRAL) -> float:
    """Max-norm of Im(conj(f) f_x + conj(g) g_x): zero in the tau = 0 gauge,
    the gauge condition of the bilinear representation."""
    f, g = pair.f, pair.g
    val = np.imag(np.conj(f) * ddx(grid, f, scheme) + np.conj(g) * ddx(grid, g, scheme))
    return float(np.max(np.abs(val)))


def u_from_fg(grid: Grid2, pair: HirotaPair, scheme=SPECTRAL) -> np.ndarray:
    """Auxiliary scalar in the tau = 0 gauge: -i D_y(conj(f) o f + conj(g) o g)/Lambda.

    This is -m1 of the (left-handed) bilinear triad; the orientation flip
    relative to the right-handed transport identities is what turns the m1
    pairing into a minus sign here (checked against the constraint solver).
    States the bilinear form of the M-III auxiliary field u.
    """
    return -coeffs_from_fg(grid, pair, scheme).m1
