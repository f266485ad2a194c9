"""2x2 matrix connections, their flatness residuals, and the spectral flow.

The q-side linear problem g_x = U g, g_t = 2 Lam g_y + V g, with
Lam = c lam^2 + d lam, has the cross-derivative compatibility condition

    U_t - 2 Lam U_y - V_x + [U, V] = 0.

U and V are traceless, [[a, b], [c, -a]], and are carried as their sl(2)
entries (a, b, c).  With mu = 2c lam + d,

    U = (i Lam,  i mu q,  i mu p)
    V = mu (-i mu v,  q_y - 4i c v q,  -(p_y + 4i c v p))

is the unique polynomial V for which the residual vanishes identically on
solutions of the q/p/v system (verified symbolically, all powers of lam):
its lam-expansion lam^2 B2 + lam B1 + B0 summed in closed form.  At c = 0
it is the Zakharov-limit connection.

The spin-side connection builder is provided verbatim for structural
diagnostics (algebraic identities, the trace of the split reading); one
grouping ambiguity in its lam^1 coefficient is kept behind a flag.  It too
works on sl(2) entries, S.sigma and the entries of the real derivatives of
S, so no connection here is a product or derivative of a matrix field.
"""

import numpy as np

from .errors import ParameterError
from .fields import SPECTRAL, Grid2, ddx, ddy, max_norm

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
IDENT2 = np.eye(2, dtype=complex)

_PAULI = {1: SIGMA1, 2: SIGMA2, 3: SIGMA3}


def pauli(j: int) -> np.ndarray:
    if j not in _PAULI:
        raise ParameterError(f"pauli index must be 1, 2 or 3, got {j}")
    return _PAULI[j].copy()


def pauli_identities() -> dict:
    """Exact checks of the product table and squares; deviations are 0.0."""
    s1, s2, s3 = SIGMA1, SIGMA2, SIGMA3
    checks = {
        "s1*s2 - i*s3": s1 @ s2 - 1j * s3,
        "s2*s3 - i*s1": s2 @ s3 - 1j * s1,
        "s3*s1 - i*s2": s3 @ s1 - 1j * s2,
        "s2*s1 + i*s3": s2 @ s1 + 1j * s3,
        "s3*s2 + i*s1": s3 @ s2 + 1j * s1,
        "s1*s3 + i*s2": s1 @ s3 + 1j * s2,
        "s1^2 - I": s1 @ s1 - IDENT2,
        "s2^2 - I": s2 @ s2 - IDENT2,
        "s3^2 - I": s3 @ s3 - IDENT2,
    }
    report = {name: float(np.max(np.abs(dev))) for name, dev in checks.items()}
    report["pass"] = all(v == 0.0 for v in report.values())
    return report


def _sl2(a, b, c) -> np.ndarray:
    """[[a, b], [c, -a]] as a complex matrix field; entries broadcast."""
    a, b, c = np.broadcast_arrays(a, b, c)
    return np.stack([a, b, c, -a], axis=-1).reshape(a.shape + (2, 2)).astype(complex, copy=False)


def _sl2_bracket(x, y) -> tuple:
    """Entries of [_sl2(*x), _sl2(*y)]."""
    (a, b, c), (e, f, g) = x, y
    return b * g - c * f, 2.0 * (a * f - b * e), 2.0 * (c * e - a * g)


def trace_deviation(M: np.ndarray) -> float:
    """Max |trace| over the grid (builders here are traceless)."""
    return float(np.max(np.abs(np.einsum("...ii->...", M))))


def _lax_q_entries(grid: Grid2, q, p, v, par, lam: complex, scheme):
    """sl(2) entries of U and V, and the (q_y, p_y) that V is built from."""
    c, d = par.c, par.d
    mu = 2.0 * c * lam + d
    q_y, p_y = ddy(grid, q, scheme), ddy(grid, p, scheme)
    U = (1j * (c * lam**2 + d * lam), 1j * mu * q, 1j * mu * p)
    V = (-1j * mu * mu * v, mu * (q_y - 4j * c * v * q), -mu * (p_y + 4j * c * v * p))
    return U, V, (q_y, p_y)


def build_lax_q(grid: Grid2, q: np.ndarray, p: np.ndarray, v: np.ndarray,
                par, lam: complex, scheme=SPECTRAL):
    """(U, V) connection for the q-side system at spectral parameter lam."""
    U, V, _ = _lax_q_entries(grid, q, p, v, par, lam, scheme)
    return _sl2(*U), _sl2(*V)


def zero_curvature_q(grid: Grid2, qpv_before, qpv_mid, qpv_after, par,
                     lam: complex, dt2: float, scheme=SPECTRAL) -> dict:
    """Flatness residual U_t - 2(c lam^2 + d lam) U_y - V_x + [U,V].

    Each qpv_* is a (q, p, v) triple sampled at t - dt, t, t + dt; U_t is the
    central difference over the 2*dt window.  Vanishes at discretization
    order on solutions of the q/p/v system.  Evaluated on the sl(2) entries,
    whose max-norm is that of the matrix.
    """
    Lam, imu = par.c * lam**2 + par.d * lam, 1j * (2.0 * par.c * lam + par.d)
    U, V, (q_y, p_y) = _lax_q_entries(grid, *qpv_mid, par, lam, scheme)
    (q0, p0, _), (q1, p1, _) = qpv_before, qpv_after
    # U_t - 2 Lam U_y; the diagonal i Lam of U is constant
    U_flow = (0.0, imu * ((q1 - q0) / dt2 - 2.0 * Lam * q_y),
              imu * ((p1 - p0) / dt2 - 2.0 * Lam * p_y))
    R = [uf - ddx(grid, e, scheme) + k for uf, e, k in zip(U_flow, V, _sl2_bracket(U, V))]
    return {"lam": lam, "residual": max_norm(R),
            "trace_U": trace_deviation(_sl2(*U)), "trace_V": trace_deviation(_sl2(*V))}


def _spin_entries(w: np.ndarray) -> tuple:
    """sl(2) entries of w.sigma = [[w3, w1 - i w2], [w1 + i w2, -w3]], w a real 3-vector field."""
    return w[..., 2], w[..., 0] - 1j * w[..., 1], w[..., 0] + 1j * w[..., 1]


def _lin(*terms) -> tuple:
    """Entries of the sum of k X over (k, X) pairs; k a scalar or a field."""
    return tuple(sum(k * X[i] for k, X in terms) for i in range(3))


def build_lax_spin(grid: Grid2, S: np.ndarray, u: np.ndarray, v: np.ndarray,
                   par, lam: complex, scheme=SPECTRAL, grouping: str = "factored"):
    """Spin-side connection (U', V') built verbatim; structural use only.

    S enters as S.sigma = [[S3, S1 - i S2], [S1 + i S2, -S3]], carried as its
    sl(2) entries; S_x and S_y are the entries of the real derivatives of S.
    The lam^1 coefficient contains an ambiguously grouped term;
    grouping="factored" multiplies the whole brace by the S matrix (the
    traceless reading), grouping="split" applies it to the derivative term
    only.

    For traceless 2x2 A, B the product is AB = [A, B]/2 + tr(AB)/2 I, and
    tr(S S_x) = 2 S.S_x vanishes for a unit field.  So S S_x and the
    factored brace are taken as half brackets, traceless by construction
    (the discrete residue of S.S_x is dropped); the split brace keeps
    tr(S (S S_x)_y)/2 as the identity part of V.
    """
    c, d, l = par.c, par.d, par.l
    denom = 2.0 * c * lam + d
    if abs(denom) < 1e-12:
        raise ParameterError(f"|2 c lam + d| = {abs(denom):.3e} too small")
    denom_l = 2.0 * c * l + d
    if abs(denom_l) < 1e-12:
        raise ParameterError(f"|2 c l + d| = {abs(denom_l):.3e} too small")
    if grouping not in ("factored", "split"):
        raise ParameterError(f"unknown grouping {grouping!r}")
    Sm = _spin_entries(S)
    Sx = _spin_entries(ddx(grid, S, scheme))
    Sy = _spin_entries(ddy(grid, S, scheme))
    SSx = _lin((0.5, _sl2_bracket(Sm, Sx)))
    U = _lin((1j * c * (lam**2 - l**2) + 1j * d * (lam - l), Sm), (c * (lam - l) / denom, SSx))

    B = _lin((0.25, _sl2_bracket(Sm, Sy)), (0.5j * u, Sm))
    F2 = _lin((-4j * c * c * v, Sm))
    SSx_y = tuple(ddy(grid, e, scheme) for e in SSx)
    SSx_B = _sl2_bracket(SSx, B)
    if grouping == "factored":
        brace = _lin((0.5, _sl2_bracket(Sm, _lin((1.0, SSx_y), (-1.0, SSx_B)))))
    else:
        brace = _lin((0.5, _sl2_bracket(Sm, SSx_y)), (-1.0, SSx_B))
    F1 = _lin((-4j * c * d * v, Sm), (-(4.0 * c * c / denom_l) * v * v, SSx),
              (-1j * c / denom_l, brace))
    # lam^2 F2 + lam F1 + F0 with F0 = -l F1 - l^2 F2
    V = _sl2(*_lin((2.0 * c * (lam**2 - l**2) + 2.0 * d * (lam - l), B),
                   (lam**2 - l**2, F2), (lam - l, F1)))
    if grouping == "split":
        (s0, s1, s2), (e0, e1, e2) = Sm, SSx_y
        half_tr = 0.5 * (2.0 * s0 * e0 + s1 * e2 + s2 * e1)  # of S (S S_x)_y
        V += (-(lam - l) * 1j * c / denom_l * half_tr)[..., None, None] * IDENT2
    return _sl2(*U), V


# ---------------------------------------------------------------------------
# Frame-side su(2) generator
# ---------------------------------------------------------------------------

def su2_from_vec(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray, beta: int = 1) -> np.ndarray:
    """(1/2i) [[v1, v3 - i v2], [beta(v3 + i v2), -v1]].

    A Lie-algebra homomorphism from the so(3) triples: the commutator of
    su2_from_vec(*a, beta) and su2_from_vec(*b, beta) is
    su2_from_vec(*frames.bracket(a, b, beta), beta).  So the su(2) form of
    the frame transport's flatness is the image of frames.mlxii_residual's.
    """
    v2 = np.asarray(v2)
    return _sl2(v1, v3 - 1j * v2, beta * (v3 + 1j * v2)) / 2j


# ---------------------------------------------------------------------------
# Nonisospectral flow of the spectral parameter
# ---------------------------------------------------------------------------

POLE_TOL = 1e-10


def lambda_rhs(lam: np.ndarray, lam_y: np.ndarray, par) -> np.ndarray:
    """lam_t = 2 (c lam^2 + d lam) lam_y."""
    return 2.0 * (par.c * lam**2 + par.d * lam) * lam_y


def lambda_solution(y, t, n: int, k: float, a: float, c: float = 0.0):
    """Closed-form solution lam = ((y + c)/(a - k t))^(1/n), principal branch."""
    y = np.asarray(y, dtype=complex)
    t = np.asarray(t, dtype=complex)
    denom = a - k * t
    if np.any(np.abs(denom) < POLE_TOL):
        raise ParameterError(f"|a - k t| < {POLE_TOL}: solution pole")
    w = (y + c) / denom
    return w ** (1.0 / n)


def lambda_residual(y, t, n: int, k: float, a: float, c: float = 0.0,
                    fd_step: float = 1e-6) -> dict:
    """Residual of lam_t = k lam^n lam_y for the closed-form solution.

    "analytic" uses the exact partials lam_t = k lam / (n (a - k t)) and
    lam_y = lam / (n (y + c)); "fd" replaces them by central differences of
    step fd_step.  Both are max-norms over the sample points.
    """
    y = np.asarray(y, dtype=complex)
    t = np.asarray(t, dtype=complex)
    if np.any(np.abs(y + c) < POLE_TOL):
        raise ParameterError(f"|y + c| < {POLE_TOL}: branch point")
    lam = lambda_solution(y, t, n, k, a, c)
    lam_t = k * lam / (n * (a - k * t))
    lam_y = lam / (n * (y + c))
    analytic = float(np.max(np.abs(lam_t - k * lam**n * lam_y)))

    lam_tp = lambda_solution(y, t + fd_step, n, k, a, c)
    lam_tm = lambda_solution(y, t - fd_step, n, k, a, c)
    lam_yp = lambda_solution(y + fd_step, t, n, k, a, c)
    lam_ym = lambda_solution(y - fd_step, t, n, k, a, c)
    lam_t_fd = (lam_tp - lam_tm) / (2.0 * fd_step)
    lam_y_fd = (lam_yp - lam_ym) / (2.0 * fd_step)
    fd = float(np.max(np.abs(lam_t_fd - k * lam**n * lam_y_fd)))
    return {"analytic": analytic, "fd": fd}
