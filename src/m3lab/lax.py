"""2x2 matrix connections, their flatness residuals, and the spectral flow.

The q-side linear problem g_x = U g, g_t = 2 Lam g_y + V g, with
Lam = c lam^2 + d lam, has the cross-derivative compatibility condition

    U_t - 2 Lam U_y - V_x + [U, V] = 0.

U and V are traceless, [[a, b], [c, -a]], and are carried as their sl(2)
entries (a, b, c).  With mu = 2c lam + d,

    U = (i Lam,  i mu q,  i mu p)
    V = mu (-i mu v,  Q,  -P),   Q = q_y - 4i c v q,  P = p_y + 4i c v p

is the unique polynomial V for which the residual vanishes identically on
solutions of the q/p/v system (verified symbolically, all powers of lam):
its lam-expansion lam^2 B2 + lam B1 + B0 summed in closed form.  At c = 0
it is the Zakharov-limit connection.

lam enters only through the scalars Lam and mu.  So a lam scan costs one
derivative pass per slice, flatness_pass_q (q_y, p_y and the
x-derivatives of v, Q, P, with the central differences q_t, p_t of the
slices either side, which central_differences forms), and pointwise work
per lam, flatness_at: the entries of U and V, V_x =
mu (-i mu v_x, Q_x, -P_x) by linearity, the sl(2) bracket and the
max-norm, with the traces read off the diagonal entries.  That work runs
on blocks of rows, so its temporaries stay in cache rather than being
faulted in afresh at every lam.  zero_curvature_q is the pass and one
flatness_at; build_lax_q forms the same entries at one lam.

The spin-side connection builder, build_lax_spin, is provided verbatim for
structural diagnostics (algebraic identities), with the ambiguous brace of
its lam^1 coefficient read factored.  Of the other, split reading only the
trace is read: split_trace forms its lam-free trace field once per slice
and scales it per lam.  Both work on sl(2) entries, S.sigma and the
entries of the real derivatives of S, so no connection here is a product
or derivative of a matrix field.
"""

from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .fields import BLOCK_POINTS, SPECTRAL, Grid2, check_field, ddx, ddy, max_norm
from .spin import DENOM_TOL

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
    return float(np.max(np.abs(np.trace(M, axis1=-2, axis2=-1))))


def sl2_trace(a) -> float:
    """trace_deviation of _sl2(a, b, c), read off the diagonal entries."""
    return float(np.max(np.abs(a + (-a))))


# ---------------------------------------------------------------------------
# q-side connection: lam-independent fields, then pointwise work per lam
# ---------------------------------------------------------------------------


def _q_fields(grid: Grid2, q, p, v, par, scheme) -> tuple:
    """(q, p), (v, Q, P) with Q = q_y - 4ic v q, P = p_y + 4ic v p, and (q_y, p_y)."""
    q_y, p_y = ddy(grid, q, scheme), ddy(grid, p, scheme)
    return (q, p), (v, q_y - 4j * par.c * (v * q), p_y + 4j * par.c * (v * p)), (q_y, p_y)


def _q_entries(par, lam: complex, qp: tuple, vf: tuple) -> tuple:
    """sl(2) entries of U and V = mu (-i mu v, Q, -P) at lam, pointwise in the fields."""
    mu = 2.0 * par.c * lam + par.d
    U = (1j * (par.c * lam**2 + par.d * lam), 1j * mu * qp[0], 1j * mu * qp[1])
    return U, _v_entries(mu, *vf)


def _v_entries(mu, v, Q, P) -> tuple:
    """sl(2) entries of mu (-i mu v, Q, -P); applied to (v_x, Q_x, P_x) it gives V_x."""
    return -1j * mu * mu * v, mu * Q, -mu * P


def build_lax_q(grid: Grid2, q: np.ndarray, p: np.ndarray, v: np.ndarray,
                par, lam: complex, scheme=SPECTRAL):
    """(U, V) connection for the q-side system at spectral parameter lam."""
    qp, vf, _ = _q_fields(grid, q, p, v, par, scheme)
    U, V = _q_entries(par, lam, qp, vf)
    return _sl2(*U), _sl2(*V)


class FlatnessQ(NamedTuple):
    """The lam-independent fields of the q-side flatness residual at one slice."""
    par: object
    qp: tuple       # q, p at the slice
    vf: tuple       # v, Q, P there: V = mu (-i mu v, Q, -P)
    vf_x: tuple     # their x-derivatives: V_x = mu (-i mu v_x, Q_x, -P_x)
    qp_y: tuple     # q_y, p_y
    qp_t: tuple     # central differences of q and p about the slice


def central_differences(qp_before, qp_after, dt2: float) -> tuple:
    """(q_t, p_t), the central differences over the 2*dt window of the
    (q, p) pairs sampled at t - dt and t + dt: the entries of U_t."""
    (q0, p0), (q1, p1) = qp_before, qp_after
    return (q1 - q0) / dt2, (p1 - p0) / dt2


def flatness_pass_q(grid: Grid2, qpv, qp_t, par, scheme=SPECTRAL) -> FlatnessQ:
    """Every derivative the flatness residual needs at any lam: five per slice.

    qpv is the (q, p, v) of the slice at t, and qp_t the central
    differences (q_t, p_t) about it (central_differences).
    """
    qp, vf, qp_y = _q_fields(grid, *qpv, par, scheme)
    return FlatnessQ(par, qp, vf, tuple(ddx(grid, f, scheme) for f in vf), qp_y, qp_t)


def _flatness_rows(F: FlatnessQ, lam: complex, rows: slice) -> tuple:
    """(max-norm of the residual entries, trace_V) over a block of rows."""
    par = F.par
    qp, vf, vf_x, (q_y, p_y), (q_t, p_t) = (tuple(f[rows] for f in group) for group in F[1:])
    Lam, imu = par.c * lam**2 + par.d * lam, 1j * (2.0 * par.c * lam + par.d)
    U, V = _q_entries(par, lam, qp, vf)
    # U_t - 2 Lam U_y; the diagonal i Lam of U is constant
    U_flow = (0.0, imu * (q_t - 2.0 * Lam * q_y), imu * (p_t - 2.0 * Lam * p_y))
    V_x = _v_entries(2.0 * par.c * lam + par.d, *vf_x)
    R = [uf - e_x + k for uf, e_x, k in zip(U_flow, V_x, _sl2_bracket(U, V))]
    return float(np.max([max_norm(e) for e in R])), sl2_trace(V[0])


def flatness_at(F: FlatnessQ, lam: complex) -> dict:
    """Flatness residual U_t - 2(c lam^2 + d lam) U_y - V_x + [U,V] at lam.

    Vanishes at discretization order on solutions of the q/p/v system.
    Pointwise in the fields of F, one block of rows at a time; evaluated on
    the sl(2) entries, whose max-norm is that of the matrix.
    """
    ny, nx = F.qp[0].shape
    step = max(1, BLOCK_POINTS // nx)
    blocks = [_flatness_rows(F, lam, slice(i, i + step)) for i in range(0, ny, step)]
    residual, trace_V = np.max(blocks, axis=0)  # NaN-propagating
    Lam = F.par.c * lam**2 + F.par.d * lam
    return {"lam": lam, "residual": float(residual),
            "trace_U": sl2_trace(1j * Lam), "trace_V": float(trace_V)}


def zero_curvature_q(grid: Grid2, qpv_before, qpv_mid, qpv_after, par,
                     lam: complex, dt2: float, scheme=SPECTRAL) -> dict:
    """flatness_at(lam) of the pass over qpv_mid, with U_t the central
    differences of qpv_before and qpv_after over dt2."""
    qp_t = central_differences(qpv_before[:2], qpv_after[:2], dt2)
    return flatness_at(flatness_pass_q(grid, qpv_mid, qp_t, par, scheme), lam)


# ---------------------------------------------------------------------------
# spin-side connection, and the trace of its split reading
# ---------------------------------------------------------------------------

def _spin_entries(w: np.ndarray) -> tuple:
    """sl(2) entries of w.sigma = [[w3, w1 - i w2], [w1 + i w2, -w3]], w a real 3-vector stack."""
    w1, w2, w3 = w
    return w3, w1 - 1j * w2, w1 + 1j * w2


def _lin(*terms) -> tuple:
    """Entries of the sum of k X over (k, X) pairs; k a scalar or a field."""
    return tuple(sum(k * X[i] for k, X in terms) for i in range(3))


def build_lax_spin(grid: Grid2, S: np.ndarray, u: np.ndarray, v: np.ndarray,
                   par, lam: complex, scheme=SPECTRAL):
    """Spin-side connection (U', V') built verbatim; structural use only.

    S enters as S.sigma = [[S3, S1 - i S2], [S1 + i S2, -S3]], carried as its
    sl(2) entries; S_x and S_y are the entries of the real derivatives of S.
    The S matrix multiplies the whole lam^1 brace (the factored reading).

    For traceless 2x2 A, B the product is AB = [A, B]/2 + tr(AB)/2 I, and
    tr(S S_x) = 2 S.S_x vanishes for a unit field.  So S S_x and the brace
    are taken as half brackets, traceless by construction (the discrete
    residue of S.S_x is dropped).  An S that is no finite (3, ny, nx) stack
    on grid is rejected (FieldError), and so is |2c lam + d| < DENOM_TOL.
    """
    c, d, l, denom_l = par.c, par.d, par.l, par.denom
    denom = 2.0 * c * lam + d
    if abs(denom) < DENOM_TOL:
        raise ParameterError(f"|2 c lam + d| = {abs(denom):.3e} too small")
    Sm = _spin_entries(check_field(grid, S, "S", (3,)))
    Sx = _spin_entries(ddx(grid, S, scheme))
    Sy = _spin_entries(ddy(grid, S, scheme))
    SSx = _lin((0.5, _sl2_bracket(Sm, Sx)))
    B = _lin((0.25, _sl2_bracket(Sm, Sy)), (0.5j * u, Sm))
    SSx_y = tuple(ddy(grid, e, scheme) for e in SSx)
    brace = _lin((0.5, _sl2_bracket(Sm, _lin((1.0, SSx_y), (-1.0, _sl2_bracket(SSx, B))))))
    F1 = _lin((-4j * c * d * v, Sm), (-(4.0 * c * c / denom_l) * v * v, SSx),
              (-1j * c / denom_l, brace))
    F2 = _lin((-4j * c * c * v, Sm))
    U = _lin((1j * c * (lam**2 - l**2) + 1j * d * (lam - l), Sm), (c * (lam - l) / denom, SSx))
    # lam^2 F2 + lam F1 + F0 with F0 = -l F1 - l^2 F2
    V = _lin((2.0 * c * (lam**2 - l**2) + 2.0 * d * (lam - l), B),
             (lam**2 - l**2, F2), (lam - l, F1))
    return _sl2(*U), _sl2(*V)


def split_trace(grid: Grid2, S: np.ndarray, par, lams, scheme=SPECTRAL) -> list:
    """max |tr V'| at each lam of lams, with the lam^1 brace split: S
    multiplying its derivative term (S S_x)_y alone.  That adds
    -(lam - l) i c/(2cl + d) tr(S (S S_x)_y)/2 I to the factored V', so only
    S.sigma, S S_x and (S S_x)_y are formed, once; S is checked as in
    build_lax_spin."""
    Sm = _spin_entries(check_field(grid, S, "S", (3,)))
    SSx = _lin((0.5, _sl2_bracket(Sm, _spin_entries(ddx(grid, S, scheme)))))
    (s0, s1, s2), (e0, e1, e2) = Sm, tuple(ddy(grid, e, scheme) for e in SSx)
    half_tr = 0.5 * (2.0 * s0 * e0 + s1 * e2 + s2 * e1)
    return [float(np.max(np.abs(2.0 * (-(lam - par.l) * 1j * par.c / par.denom * half_tr))))
            for lam in lams]


# ---------------------------------------------------------------------------
# Frame-side su(2) generator
# ---------------------------------------------------------------------------

def su2_from_vec(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
    """(1/2i) [[v1, v3 - i v2], [v3 + i v2, -v1]].

    A Lie-algebra homomorphism from the so(3) triples: the commutator of
    su2_from_vec(*a) and su2_from_vec(*b) is su2_from_vec(*frames.bracket(a,
    b)).  So the su(2) form of the frame transport's flatness is the image
    of frames.mlxii_residual's.
    """
    v2 = np.asarray(v2)
    return _sl2(v1, v3 - 1j * v2, v3 + 1j * v2) / 2j


# ---------------------------------------------------------------------------
# Nonisospectral flow of the spectral parameter
# ---------------------------------------------------------------------------

POLE_TOL = 1e-10
FD_STEP = 1e-6           # lambda_residual's central-difference step


def lambda_rhs(lam: np.ndarray, lam_y: np.ndarray, par) -> np.ndarray:
    """lam_t = 2 (c lam^2 + d lam) lam_y: the paper's nonisospectral flow,
    the 2 Lam U_y term of the q-side flatness residual."""
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


def lambda_residual(y, t, n: int, k: float, a: float, c: float = 0.0) -> dict:
    """Residual of lam_t = k lam^n lam_y for the closed-form solution.

    "analytic" uses the exact partials lam_t = k lam / (n (a - k t)) and
    lam_y = lam / (n (y + c)); "fd" replaces them by central differences of
    step FD_STEP.  Both are max-norms over the sample points.
    """
    y = np.asarray(y, dtype=complex)
    t = np.asarray(t, dtype=complex)
    if np.any(np.abs(y + c) < POLE_TOL):
        raise ParameterError(f"|y + c| < {POLE_TOL}: branch point")
    lam = lambda_solution(y, t, n, k, a, c)
    lam_t = k * lam / (n * (a - k * t))
    lam_y = lam / (n * (y + c))
    analytic = float(np.max(np.abs(lam_t - k * lam**n * lam_y)))

    lam_tp = lambda_solution(y, t + FD_STEP, n, k, a, c)
    lam_tm = lambda_solution(y, t - FD_STEP, n, k, a, c)
    lam_yp = lambda_solution(y + FD_STEP, t, n, k, a, c)
    lam_ym = lambda_solution(y - FD_STEP, t, n, k, a, c)
    lam_t_fd = (lam_tp - lam_tm) / (2.0 * FD_STEP)
    lam_y_fd = (lam_yp - lam_ym) / (2.0 * FD_STEP)
    fd = float(np.max(np.abs(lam_t_fd - k * lam**n * lam_y_fd)))
    return {"analytic": analytic, "fd": fd}
