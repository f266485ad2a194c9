"""Orthonormal moving frames over the grid and their transport coefficients.

A frame (e1, e2, e3) attached to a spin field S carries the transport system

    E_x = A E,   E_y = B E,   E_t = C E,       E = (e1; e2; e3)

with antisymmetric-patterned matrices so3_from_vec of the coefficient triples

    a = (tau, sigma, k),  b = (m1, m2, m3),  w = (w1, w2, w3).

Cross-derivative compatibility of the transport system,

    A_y - B_x + [A, B] = 0,
    A_t - C_x + [A, C] = 0,
    B_t - C_y + [B, C] = 0,

is the executable statement checked by mlxii_residual.  Each matrix entry is
0 or +-(beta) one triple component, and [so3_from_vec(*a), so3_from_vec(*b)]
= so3_from_vec(*bracket(a, b, beta)), so the residuals are evaluated on the
triples (scalar derivatives and the bracket, no (..., 3, 3) array) and have
exactly the max-norms of the matrix forms.  The identities such as
tau_y - m1_x = e1.(e1x ^ e1y) read their left-hand side off the same a_y - b_x
and their right-hand side off the densities that coeffs_from_frame keeps.

The Frenet gauge (sigma = 0, k >= 0) is the default frame construction:
e1 = S, e2 = S_x/|S_x|, e3 = e1 ^ e2, with a deterministic left-scan fill
where |S_x| degenerates.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateFieldError, FieldError, IdentificationError
from .fields import (
    SPECTRAL,
    Grid2,
    cross3,
    cross_planes,
    ddx,
    ddy,
    dot3,
    inv_dx,
    max_norm,
    meanx,
    norm3,
    normalized3,
)

DEGENERACY_TOL = 1e-8    # |S_x| below this marks a degenerate point
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 50


@dataclass(frozen=True)
class FrameField:
    e1: np.ndarray           # (ny, nx, 3)
    e2: np.ndarray
    e3: np.ndarray
    mask: np.ndarray = None  # True where the construction was degenerate

    def gram_deviation(self) -> float:
        """Max deviation of the pointwise Gram matrix from the identity."""
        vecs = (self.e1, self.e2, self.e3)
        dev = 0.0
        for i, a in enumerate(vecs):
            for j, b in enumerate(vecs):
                target = 1.0 if i == j else 0.0
                dev = max(dev, float(np.max(np.abs(dot3(a, b) - target))))
        return dev


@dataclass(frozen=True)
class FrameCoeffs:
    k: np.ndarray
    sigma: np.ndarray
    tau: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    w1: np.ndarray = None
    w2: np.ndarray = None
    w3: np.ndarray = None
    densities: tuple = None  # (e_j.(e_jx ^ e_jy) for j = 1, 2, 3), from coeffs_from_frame

    def has_time_entries(self) -> bool:
        return self.w1 is not None

    @property
    def triples(self) -> tuple:
        """(a, b, w) = ((tau, sigma, k), (m1, m2, m3), (w1, w2, w3))."""
        return ((self.tau, self.sigma, self.k), (self.m1, self.m2, self.m3),
                (self.w1, self.w2, self.w3))


def _densities(coeffs: FrameCoeffs) -> tuple:
    if coeffs.densities is None:
        raise FieldError("these coefficients carry no densities e_j.(e_jx ^ e_jy); "
                         "coeffs_from_frame supplies them")
    return coeffs.densities


def _fallback_normal(e1: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to e1 (for fully degenerate rows)."""
    axis = np.zeros_like(e1)
    use_x = np.abs(e1[..., 0]) < 0.9
    axis[..., 0] = np.where(use_x, 1.0, 0.0)
    axis[..., 1] = np.where(use_x, 0.0, 1.0)
    perp = axis - dot3(axis, e1)[..., None] * e1
    return normalized3(perp)


def _fill_columns(mask: np.ndarray) -> np.ndarray:
    """Nearest unmasked column at or left of each point, wrapping (-1 on dead rows)."""
    cols = np.maximum.accumulate(np.where(mask, -1, np.arange(mask.shape[1])), axis=1)
    return np.where(cols < 0, cols[:, -1:], cols)


def frame_from_spin(grid: Grid2, S: np.ndarray, scheme=SPECTRAL,
                    tol: float = DEGENERACY_TOL) -> FrameField:
    """Frenet-gauge frame: e1 = S, e2 = S_x/|S_x|, e3 = e1 ^ e2.

    Points with |S_x| < tol are masked; e2 there is copied from the nearest
    non-degenerate x-neighbour to the left (periodic wrap, deterministic),
    then re-orthogonalized against the local e1.  Rows degenerate end to end
    fall back to a fixed axis.  More than half the grid degenerate is fatal.
    """
    e1 = normalized3(np.asarray(S, dtype=float))
    Sx = ddx(grid, S, scheme)
    k = norm3(Sx)
    mask = k < tol
    n_bad = int(np.count_nonzero(mask))
    if n_bad > 0.5 * mask.size:
        raise DegenerateFieldError(
            f"degenerate spin field: |S_x| < {tol} at {n_bad} of {mask.size} points")

    e2 = Sx / np.where(mask, 1.0, k)[..., None]
    if n_bad:
        e2 = e2[np.arange(grid.ny)[:, None], _fill_columns(mask)]
        row_dead = mask.all(axis=1)
        e2[row_dead] = _fallback_normal(e1[row_dead])

    # orthogonalize against e1 (removes both fill misalignment and the tiny
    # discrete S.S_x residue), then complete the right-handed triad
    e2 = e2 - dot3(e2, e1)[..., None] * e1
    small = norm3(e2) < 1e-12
    if np.any(small):
        e2 = np.where(small[..., None], _fallback_normal(e1), e2)
    e2 = normalized3(e2)
    e3 = cross3(e1, e2)
    return FrameField(e1=e1, e2=e2, e3=e3, mask=mask)


def frame_dt(before: FrameField, after: FrameField, dt2: float):
    """Central-difference frame velocities (e1t, e2t, e3t) over a 2*dt window."""
    return ((after.e1 - before.e1) / dt2,
            (after.e2 - before.e2) / dt2,
            (after.e3 - before.e3) / dt2)


def _k_tau(F: FrameField, e1x: np.ndarray, e2x: np.ndarray) -> tuple:
    """The curvature k = e2.e1_x and the torsion tau = e3.e2_x."""
    return dot3(F.e2, e1x), dot3(F.e3, e2x)


def coeffs_from_frame(grid: Grid2, F: FrameField, scheme=SPECTRAL,
                      dF_dt=None) -> FrameCoeffs:
    """Transport coefficients by projection, and the densities e_j.(e_jx ^ e_jy).

    k = e2.e1_x, sigma = -e3.e1_x, tau = e3.e2_x,
    m1 = e3.e2_y, m2 = -e3.e1_y, m3 = e2.e1_y,
    and, when frame velocities are supplied,
    w1 = e3.e2_t, w2 = -e3.e1_t, w3 = e2.e1_t.
    Each e_j is differentiated once along x and y; two derivatives are held at most.
    """
    e1x, e1y = ddx(grid, F.e1, scheme), ddy(grid, F.e1, scheme)
    sigma, m2, m3 = -dot3(F.e3, e1x), -dot3(F.e3, e1y), dot3(F.e2, e1y)
    d1 = _density(F.e1, e1x, e1y)
    del e1y
    e2x = ddx(grid, F.e2, scheme)
    k, tau = _k_tau(F, e1x, e2x)
    del e1x
    e2y = ddy(grid, F.e2, scheme)
    m1 = dot3(F.e3, e2y)
    d2 = _density(F.e2, e2x, e2y)
    del e2x, e2y
    coeffs = FrameCoeffs(k=k, sigma=sigma, tau=tau, m1=m1, m2=m2, m3=m3,
                         densities=(d1, d2, charge_density(grid, F.e3, scheme)))
    return coeffs if dF_dt is None else with_time_entries(coeffs, F, dF_dt)


def with_time_entries(coeffs: FrameCoeffs, F: FrameField, dF_dt) -> FrameCoeffs:
    """coeffs of frame F completed by w1 = e3.e2_t, w2 = -e3.e1_t, w3 = e2.e1_t."""
    e1t, e2t, _ = dF_dt
    return replace(coeffs, w1=dot3(F.e3, e2t), w2=-dot3(F.e3, e1t), w3=dot3(F.e2, e1t))


# ---------------------------------------------------------------------------
# Transport matrices and compatibility residuals
# ---------------------------------------------------------------------------

def so3_from_vec(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray, beta: int = 1) -> np.ndarray:
    """Antisymmetric-patterned transport matrix from a coefficient triple.

    [[0, v3, -v2], [-beta v3, 0, v1], [beta v2, -v1, 0]]
    """
    z = np.zeros_like(v1)
    return np.stack([
        np.stack([z, v3, -v2], axis=-1),
        np.stack([-beta * v3, z, v1], axis=-1),
        np.stack([beta * v2, -v1, z], axis=-1),
    ], axis=-2)


def so3_matrices(coeffs: FrameCoeffs, beta: int = 1):
    """(A, B, C) transport matrices; C is None without time entries."""
    a, b, w = coeffs.triples
    C = so3_from_vec(*w, beta) if coeffs.has_time_entries() else None
    return so3_from_vec(*a, beta), so3_from_vec(*b, beta), C


def bracket(a, b, beta: int = 1) -> tuple:
    """Triple c = (beta (a3 b2 - a2 b3), a1 b3 - a3 b1, a2 b1 - a1 b2).

    so3_from_vec(*c, beta) is the commutator of so3_from_vec(*a, beta) and
    so3_from_vec(*b, beta); c is the cross product b ^ a, its first
    component scaled by beta.
    """
    c1, c2, c3 = cross_planes(b, a)
    return beta * c1, c2, c3


def _density(e: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    return dot3(e, cross3(ex, ey))


def charge_density(grid: Grid2, e: np.ndarray, scheme=SPECTRAL) -> np.ndarray:
    """e . (e_x ^ e_y) for a unit vector field e."""
    return _density(e, ddx(grid, e, scheme), ddy(grid, e, scheme))


def mlxii_residual(grid: Grid2, coeffs: FrameCoeffs, scheme=SPECTRAL, beta: int = 1,
                   coeffs_before: FrameCoeffs = None, coeffs_after: FrameCoeffs = None,
                   dt2: float = None, frame: FrameField = None) -> dict:
    """Compatibility residuals of the frame transport system.

    Always reports the max-norm of A_y - B_x + [A,B].  With coefficient
    snapshots at t -/+ dt supplied, also reports A_t - C_x + [A,C] and
    B_t - C_y + [B,C] (time derivatives by central difference).  With
    `frame`, the frame these coefficients were projected from, adds the
    pointwise cross-checks against the triple products e_j.(e_jx ^ e_jy),
    read from coeffs.densities.

    Evaluated on the coefficient triples, e.g. a_y - b_x + bracket(a, b);
    each max-norm equals that of the matrix form.
    """
    a, b, w = coeffs.triples
    D = [ddy(grid, ai, scheme) - ddx(grid, bi, scheme) for ai, bi in zip(a, b)]
    out = {"xy": max_norm([d + c for d, c in zip(D, bracket(a, b, beta))])}

    if coeffs_before is not None and coeffs_after is not None:
        if not coeffs.has_time_entries():
            raise IdentificationError("time residuals need w1..w3 in the mid coefficients")
        (a0, b0, _), (a1, b1, _) = coeffs_before.triples, coeffs_after.triples
        for key, deriv, x, x0, x1 in (("xt", ddx, a, a0, a1), ("yt", ddy, b, b0, b1)):
            out[key] = max_norm([(s1 - s0) / dt2 - deriv(grid, wi, scheme) + c
                                 for s0, s1, wi, c in zip(x0, x1, w, bracket(x, w, beta))])

    if frame is not None:
        # D against the frame triple products; at beta=1 these are
        #   tau_y - m1_x   = e1.(e1x ^ e1y)
        #   sigma_y - m2_x = e2.(e2x ^ e2y)
        #   k_y - m3_x     = e3.(e3x ^ e3y)
        for name, d, dens, sign in zip(("e1", "e2", "e3"), D, _densities(coeffs),
                                       (1, beta, beta)):
            out[f"identity_{name}"] = max_norm(d - sign * dens)
    return out


# ---------------------------------------------------------------------------
# Coefficient identification from the spin equation
# ---------------------------------------------------------------------------

def m_coeffs_from_spin(grid: Grid2, S: np.ndarray, u: np.ndarray, v: np.ndarray,
                       par, scheme=SPECTRAL, frame: FrameField = None,
                       sigma_t: np.ndarray = None, k_tol: float = 1e-8) -> FrameCoeffs:
    """Identified transport coefficients for a spin solution.

    The y-entries come from

        m1 = u + inv_dx(tau_y),
        m2 = (u_x + sigma m3) / k,
        m3 = inv_dx(k_y + sigma m1 - tau m2),

    with the per-row antiderivative constants (lost to the periodic zero-mean
    inv_dx) restored from frame projections.  From m2 = u_x / k, the m2/m3
    circularity at sigma != 0 is resolved by a damped fixed point, skipped
    when max|sigma| < 1e-12.  The time entries then follow from the dynamics:

        w2 = -m3_x - tau m2 + u sigma + 2l(cl+d) m2 - 4 c v sigma
        w3 =  m2_x - tau m3 + u k     + 2l(cl+d) m3 - 4 c v k
        w1 = (sigma_t - w2_x + tau w3) / k

    (The sign of the u k term in w3 is fixed by requiring compatibility of
    the transport system; see the project notes.)
    """
    if frame is None:
        frame = frame_from_spin(grid, S, scheme)
    proj = coeffs_from_frame(grid, frame, scheme)
    k, sigma, tau = proj.k, proj.sigma, proj.tau

    k_mask = np.abs(k) < k_tol
    if np.count_nonzero(k_mask) > 0.5 * k_mask.size:
        raise DegenerateFieldError("curvature k vanishes on more than half the grid")
    k_safe = np.where(k_mask, 1.0, k)

    u_x = ddx(grid, u, scheme)
    tau_y = ddy(grid, tau, scheme)
    m1 = u + inv_dx(grid, tau_y).field + meanx(proj.m1)
    m3_mean = meanx(proj.m3)

    k_y = ddy(grid, k, scheme)
    m2 = u_x / k_safe
    m3 = inv_dx(grid, k_y + sigma * m1 - tau * m2).field + m3_mean
    if float(np.max(np.abs(sigma))) >= 1e-12:
        for _ in range(FIXED_POINT_MAX_ITER):
            m2_new = (u_x + sigma * m3) / k_safe
            m3_new = inv_dx(grid, k_y + sigma * m1 - tau * m2_new).field + m3_mean
            m2_new = 0.5 * (m2 + m2_new)
            m3_new = 0.5 * (m3 + m3_new)
            change = max(float(np.max(np.abs(m2_new - m2))),
                         float(np.max(np.abs(m3_new - m3))))
            m2, m3 = m2_new, m3_new
            if change < FIXED_POINT_TOL:
                break
        else:
            raise IdentificationError(
                f"identification diverged: fixed point not within {FIXED_POINT_TOL} "
                f"after {FIXED_POINT_MAX_ITER} iterations")
    m2 = np.where(k_mask, 0.0, m2)

    drift = par.drift
    w2 = -ddx(grid, m3, scheme) - tau * m2 + u * sigma + drift * m2 - 4.0 * par.c * v * sigma
    w3 = ddx(grid, m2, scheme) - tau * m3 + u * k + drift * m3 - 4.0 * par.c * v * k
    if sigma_t is None:
        sigma_t = np.zeros_like(k)
    w1 = np.where(k_mask, 0.0, (sigma_t - ddx(grid, w2, scheme) + tau * w3) / k_safe)
    return FrameCoeffs(k=k, sigma=sigma, tau=tau, m1=m1, m2=m2, m3=m3,
                       w1=w1, w2=w2, w3=w3)
