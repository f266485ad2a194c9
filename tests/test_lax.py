import numpy as np
import pytest

from m3lab.cli import main
from m3lab.errors import ParameterError
from m3lab.fields import Grid2, ddx, ddy, max_norm
from m3lab.lax import (
    IDENT2,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    build_lax_q,
    build_lax_spin,
    central_differences,
    flatness_at,
    flatness_pass_q,
    lambda_residual,
    lambda_rhs,
    lambda_solution,
    pauli,
    pauli_identities,
    split_trace,
    trace_deviation,
    zero_curvature_q,
)
from m3lab.nls import NlsParams, init_plane_wave, plane_wave_omega, solve_v_nls
from m3lab.spin import SpinParams, init_uniform, make_state

from conftest import commutator, d_matrix, matmul, smooth_complex, smooth_spin

GEN = NlsParams(c=0.3, d=1.0, model="M3q")


def _spin_matrix(w):
    """w.sigma for a 3-vector stack w, an (ny, nx, 2, 2) matrix field."""
    w1, w2, w3 = (c[..., None, None] for c in w)
    return w1 * SIGMA1 + w2 * SIGMA2 + w3 * SIGMA3


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def test_pauli_product_table_exact():
    assert np.array_equal(SIGMA1 @ SIGMA2, 1j * SIGMA3)
    assert np.array_equal(SIGMA2 @ SIGMA3, 1j * SIGMA1)
    assert np.array_equal(SIGMA3 @ SIGMA2, -1j * SIGMA1)
    for j in (1, 2, 3):
        assert np.array_equal(pauli(j) @ pauli(j), IDENT2)
    assert pauli_identities()["pass"]
    with pytest.raises(ParameterError):
        pauli(0)


def test_spin_matrix_squares_to_identity(grid, rng):
    Sm = _spin_matrix(smooth_spin(grid, rng))
    assert max_norm(matmul(Sm, Sm) - IDENT2) < 1e-12


# ---------------------------------------------------------------------------
# q-side connection
# ---------------------------------------------------------------------------

def test_lax_q_vacuum(grid):
    z = np.zeros((grid.ny, grid.nx), dtype=complex)
    v = np.zeros((grid.ny, grid.nx))
    lam = 0.4 + 0.3j
    U, V = build_lax_q(grid, z, z, v, GEN, lam)
    expect = 1j * (GEN.c * lam**2 + GEN.d * lam) * SIGMA3
    assert max_norm(U - expect) < 1e-15
    assert max_norm(V) == 0.0


def test_lax_q_offdiagonal_entries(grid, rng):
    q = smooth_complex(grid, rng)
    p = np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p)
    lam = 0.2 + 0.5j
    U, _ = build_lax_q(grid, q, p, v, GEN, lam)
    m = 2.0 * GEN.c * lam + GEN.d
    assert max_norm(U[..., 0, 1] - 1j * m * q) < 1e-14
    assert max_norm(U[..., 1, 0] - 1j * m * p) < 1e-14


@pytest.mark.parametrize("beta", [1, -1])
def test_lax_q_traceless(grid, rng, beta):
    q = smooth_complex(grid, rng)
    p = beta * np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p)
    par = NlsParams(c=0.3, d=1.0, beta=beta, model="M3q")
    U, V = build_lax_q(grid, q, p, v, par, 0.7 - 0.2j)
    assert trace_deviation(U) < 1e-12
    assert trace_deviation(V) < 1e-12


def test_lax_q_anti_hermitian_at_real_lambda(grid, rng):
    """With p = conj(q) and real lambda, U is anti-Hermitian exactly."""
    q = smooth_complex(grid, rng)
    p = np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p)
    U, _ = build_lax_q(grid, q, p, v, GEN, 0.6)
    Udag = np.conj(np.swapaxes(U, -1, -2))
    assert max_norm(U + Udag) < 1e-14


def test_lax_q_zakharov_limit(grid, rng):
    """At c = 0 the connection reduces to the Zakharov pair in closed form."""
    par = NlsParams(c=0.0, d=1.0, model="Zakharov")
    q = smooth_complex(grid, rng)
    p = np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p)
    lam = 0.3 + 0.1j
    U, V = build_lax_q(grid, q, p, v, par, lam)
    Q = np.zeros(q.shape + (2, 2), dtype=complex)
    Q[..., 0, 1] = q
    Q[..., 1, 0] = p
    U_ref = 1j * (lam * SIGMA3 + Q)
    V_ref = -1j * v[..., None, None] * SIGMA3 - matmul(d_matrix(ddy, grid, Q), SIGMA3[None, None])
    assert max_norm(U - U_ref) < 1e-14
    assert max_norm(V - V_ref) < 1e-14


@pytest.mark.parametrize("beta", [1, -1])
def test_lax_q_v_is_the_expanded_polynomial(grid, rng, beta):
    """The factored V equals lam^2 B2 + lam B1 + B0 with the coefficients
    written out as matrices, at general (c, d, lam)."""
    par = NlsParams(c=0.37, d=-0.8, beta=beta, model="M3q")
    q = smooth_complex(grid, rng)
    p = beta * np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p)
    lam = 0.45 - 0.7j
    c, d = par.c, par.d
    Q = np.zeros(q.shape + (2, 2), dtype=complex)
    Q[..., 0, 1] = q
    Q[..., 1, 0] = p
    Qy_s3 = matmul(d_matrix(ddy, grid, Q), SIGMA3[None, None])
    vs3, vQ = v[..., None, None] * SIGMA3, v[..., None, None] * Q
    B2 = -4j * c * c * vs3
    B1 = -4j * c * d * vs3 - 2.0 * c * Qy_s3 - 8j * c * c * vQ
    B0 = -1j * d * d * vs3 - d * Qy_s3 - 4j * c * d * vQ
    V_ref = lam**2 * B2 + lam * B1 + B0
    U_ref = 1j * ((c * lam**2 + d * lam) * SIGMA3 + (2.0 * c * lam + d) * Q)
    U, V = build_lax_q(grid, q, p, v, par, lam)
    assert max_norm(U - U_ref) < 1e-14 * max_norm(U_ref)
    assert max_norm(V - V_ref) < 1e-14 * max_norm(V_ref)


def test_zero_curvature_constant_diagonal(grid):
    z = np.zeros((grid.ny, grid.nx), dtype=complex)
    v = np.zeros((grid.ny, grid.nx))
    rep = zero_curvature_q(grid, (z, z, v), (z, z, v), (z, z, v), GEN, 0.5 + 0.2j, 0.1)
    assert rep["residual"] < 1e-14


def _plane_wave_qpv(grid, par, A, k1, k2, t):
    omega = plane_wave_omega(grid, par, k1, k2)
    q = init_plane_wave(grid, A, k1, k2) * np.exp(-1j * omega * t)
    p = np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p)
    return q, p, v


def test_zero_curvature_plane_wave_converges():
    par = NlsParams(c=0.0, d=1.0, model="Zakharov")
    errs = []
    for n in (32, 64):
        g = Grid2(n, n)
        delta = 0.1 * 32 / n
        rep = zero_curvature_q(
            g, _plane_wave_qpv(g, par, 0.5, 1, 2, -delta),
            _plane_wave_qpv(g, par, 0.5, 1, 2, 0.0),
            _plane_wave_qpv(g, par, 0.5, 1, 2, delta),
            par, 0.3 + 0.1j, 2 * delta, scheme="central4")
        errs.append(rep["residual"])
    assert 3.0 < errs[0] / errs[1] < 5.0


def _zero_curvature_by_ddx(grid, before, mid, after, par, lam, dt2, scheme):
    """The flatness residual with V_x taken as ddx of the V entries built at lam."""
    (q0, p0, _), (q, p, v), (q1, p1, _) = before, mid, after
    c, d = par.c, par.d
    Lam, mu = c * lam**2 + d * lam, 2.0 * c * lam + d
    q_y, p_y = ddy(grid, q, scheme), ddy(grid, p, scheme)
    a, b, cc = 1j * Lam, 1j * mu * q, 1j * mu * p
    e, f, g = -1j * mu * mu * v, mu * (q_y - 4j * c * v * q), -mu * (p_y + 4j * c * v * p)
    U_flow = (0.0, 1j * mu * ((q1 - q0) / dt2 - 2.0 * Lam * q_y),
              1j * mu * ((p1 - p0) / dt2 - 2.0 * Lam * p_y))
    bracket = (b * g - cc * f, 2.0 * (a * f - b * e), 2.0 * (cc * e - a * g))
    return max_norm([uf - ddx(grid, x, scheme) + k for uf, x, k in zip(U_flow, (e, f, g), bracket)])


def _general_pair_qpv(grid, rng):
    """Three (q, p, v) samples of an M3q pair with p != beta conj(q); not a solution."""
    out = []
    for _ in range(3):
        q, p = smooth_complex(grid, rng), smooth_complex(grid, rng)
        out.append((q, p, solve_v_nls(grid, q, p)[0]))
    return out


SCAN_LAMBDAS = [0.3 + 0.1j, -0.7 + 0.05j, 1.3, 0.0, -0.2 - 0.8j]


@pytest.mark.parametrize("scheme", ["spectral", "central4"])
@pytest.mark.parametrize("case", ["zakharov-plane-wave", "m3q-general-pair"])
def test_flatness_scan_matches_single_lambda(rng, case, scheme):
    """A scan entry is zero_curvature_q at that lam alone, bit for bit, and
    the per-lam formula with V_x = ddx(V) to rounding."""
    grid = Grid2(48, 40, lx=5.0, ly=7.0)
    if case == "zakharov-plane-wave":
        par, dt2 = NlsParams(c=0.0, d=1.0, model="Zakharov"), 0.02
        triple = [_plane_wave_qpv(grid, par, 0.5, 1, 2, t) for t in (-0.01, 0.0, 0.01)]
    else:
        par, dt2 = NlsParams(c=0.37, d=-0.8, model="M3q"), 0.05
        triple = _general_pair_qpv(grid, rng)
    qp_t = central_differences(triple[0][:2], triple[2][:2], dt2)
    F = flatness_pass_q(grid, triple[1], qp_t, par, scheme)
    scan = [flatness_at(F, lam) for lam in SCAN_LAMBDAS]
    for lam, entry in zip(SCAN_LAMBDAS, scan):
        alone = zero_curvature_q(grid, *triple, par, lam, dt2, scheme)
        assert repr(entry) == repr(alone)
        ref = _zero_curvature_by_ddx(grid, *triple, par, lam, dt2, scheme)
        assert abs(entry["residual"] - ref) <= 1e-12 * ref
        assert entry["trace_U"] == entry["trace_V"] == 0.0
    # an entry does not depend on which other lambdas share the scan
    other = flatness_pass_q(grid, triple[1], qp_t, par, scheme)
    for lam, entry in zip(SCAN_LAMBDAS[::-1], [flatness_at(other, lam) for lam in SCAN_LAMBDAS[::-1]]):
        assert repr(entry) == repr(scan[SCAN_LAMBDAS.index(lam)])


# ---------------------------------------------------------------------------
# spin-side connection (structural)
# ---------------------------------------------------------------------------

SPAR = SpinParams(c=0.3, d=1.0, l=0.2, model="M3")
SPIN_LAMBDAS = [0.4 + 0.2j, -0.7 + 0.05j, 1.3]


def test_lax_spin_vanishes_at_lam_l(grid):
    S = init_uniform(grid)
    zero = np.zeros((grid.ny, grid.nx))
    U, _ = build_lax_spin(grid, S, zero, zero, SPAR, SPAR.l)
    assert max_norm(U) == 0.0


def test_lax_spin_traceless_factored(grid, rng):
    S = smooth_spin(grid, rng)
    state = make_state(grid, S, SPAR)
    U, V = build_lax_spin(grid, S, state.u, state.v, SPAR, 0.4 + 0.2j)
    assert trace_deviation(U) < 1e-12
    assert trace_deviation(V) < 1e-12


def test_lax_spin_split_grouping_differs(rng):
    """split_trace is the trace of the split reading's V, formed as 2x2
    matrix products, at every lam of one call; that trace is not zero."""
    grid = Grid2(40, 48, lx=5.0, ly=7.0)
    S = smooth_spin(grid, rng)
    state = make_state(grid, S, SPAR)
    traces = split_trace(grid, S, SPAR, SPIN_LAMBDAS)
    for lam, tr in zip(SPIN_LAMBDAS, traces, strict=True):
        _, V_ref = _lax_spin_by_matrices(grid, S, state.u, state.v, SPAR, lam, "split")
        ref = trace_deviation(V_ref)
        assert ref > 1e-6
        assert abs(tr - ref) <= 1e-13 * ref


def test_lax_spin_denominator_guard(grid):
    S = init_uniform(grid)
    zero = np.zeros((grid.ny, grid.nx))
    lam_bad = -SPAR.d / (2 * SPAR.c)  # 2 c lam + d = 0
    with pytest.raises(ParameterError):
        build_lax_spin(grid, S, zero, zero, SPAR, lam_bad)


def test_lax_spin_f0_identity(grid, rng):
    """The lam-polynomial part of V satisfies F0 = -l F1 - l^2 F2."""
    S = smooth_spin(grid, rng)
    state = make_state(grid, S, SPAR)
    l = SPAR.l
    Sm = _spin_matrix(S)
    B = 0.25 * (commutator(Sm, _spin_matrix(ddy(grid, S))) + 2j * state.u[..., None, None] * Sm)

    def poly_part(lam):
        _, V = build_lax_spin(grid, S, state.u, state.v, SPAR, lam)
        return V - (2 * SPAR.c * (lam**2 - l**2) + 2 * SPAR.d * (lam - l)) * B

    P0, Pp, Pm = poly_part(0.0), poly_part(1.0), poly_part(-1.0)
    F2 = 0.5 * (Pp + Pm) - P0
    F1 = 0.5 * (Pp - Pm)
    assert max_norm(P0 - (-l * F1 - l * l * F2)) < 1e-12


def _traceless(M):
    tr = np.einsum("...ii->...", M)
    return M - 0.5 * tr[..., None, None] * IDENT2


def _lax_spin_by_matrices(grid, S, u, v, par, lam, grouping):
    """The spin-side pair by 2x2 matrix-field products, S_x and S_y taken as
    S.sigma of the real derivatives of S."""
    c, d, l = par.c, par.d, par.l
    denom, denom_l = 2 * c * lam + d, 2 * c * l + d
    Sm, Sx, Sy = _spin_matrix(S), _spin_matrix(ddx(grid, S)), _spin_matrix(ddy(grid, S))
    SSx = _traceless(matmul(Sm, Sx))
    U = (1j * c * (lam**2 - l**2) + 1j * d * (lam - l)) * Sm + (c * (lam - l) / denom) * SSx
    B = 0.25 * (commutator(Sm, Sy) + 2j * u[..., None, None] * Sm)
    F2 = -4j * c * c * v[..., None, None] * Sm
    SSx_y = d_matrix(ddy, grid, SSx)
    if grouping == "factored":
        brace = _traceless(matmul(Sm, SSx_y - commutator(SSx, B)))
    else:
        brace = matmul(Sm, SSx_y) - commutator(SSx, B)
    F1 = (-4j * c * d * v[..., None, None] * Sm
          - (4 * c * c / denom_l) * (v * v)[..., None, None] * SSx - (1j * c / denom_l) * brace)
    F0 = -l * F1 - l * l * F2
    V = (2 * c * (lam**2 - l**2) + 2 * d * (lam - l)) * B + lam**2 * F2 + lam * F1 + F0
    return U, V


@pytest.mark.parametrize("lam", SPIN_LAMBDAS, ids=lambda lam: f"{lam}-factored")
def test_lax_spin_entries_match_matrix_algebra(rng, lam):
    """build_lax_spin's entries are those of the factored pair by matrix products."""
    grid = Grid2(40, 48, lx=5.0, ly=7.0)
    S = smooth_spin(grid, rng)
    state = make_state(grid, S, SPAR)
    U, V = build_lax_spin(grid, S, state.u, state.v, SPAR, lam)
    U_ref, V_ref = _lax_spin_by_matrices(grid, S, state.u, state.v, SPAR, lam, "factored")
    assert max_norm(U - U_ref) < 1e-13 * max_norm(U_ref)
    assert max_norm(V - V_ref) < 1e-13 * max_norm(V_ref)


def test_lax_spin_differentiates_no_matrix_field(grid, rng, monkeypatch):
    import m3lab.fields as fields
    S = smooth_spin(grid, rng)
    state = make_state(grid, S, SPAR)
    ndims = []
    real = fields._deriv
    monkeypatch.setattr(fields, "_deriv",
                        lambda f, *a, **k: ndims.append(f.ndim) or real(f, *a, **k))
    build_lax_spin(grid, S, state.u, state.v, SPAR, 0.4 + 0.2j)
    split_trace(grid, S, SPAR, [0.4 + 0.2j])
    assert ndims and max(ndims) <= 3


RUN_CFG = """
grid.nx = 32
grid.ny = 32
params.c = 0.3
params.d = 1.0
params.l = 0.0
t_end = 0.05
save_every = 2
output_dir = run
"""


@pytest.mark.parametrize("side, extra, many, derivs", [
    ("nls", "model = M3q\nnls.init = plane-wave\nnls.init.amplitude = 0.5\n", 16, 5),
    ("spin", "model = M3\nspin.init = modulated-helix\nspin.init.eps = 0.05\n", 8, 4),
], ids=["q-side", "spin-side"])
def test_lax_check_derivatives_do_not_grow_with_the_scan(tmp_path, monkeypatch, side, extra, many,
                                                         derivs):
    """lax-check differentiates once per slice, whatever the number of
    lambdas: q_y, p_y and the x-derivatives of v, Q, P on the q side;
    S_x and the y-derivatives of the three entries of S S_x on the spin
    side, which reads neither u nor v."""
    import m3lab.fields as fields
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG + extra)
    assert main(["--output-dir", str(tmp_path), f"simulate-{side}", str(cfg)]) == 0
    calls = []
    real = fields._deriv
    monkeypatch.setattr(fields, "_deriv", lambda f, *a, **k: calls.append(1) or real(f, *a, **k))
    counts = []
    for n in (1, many):
        lams = [f"--lambda={0.1 * k:.1f},0.2" for k in range(n)]
        side_flag = ["--spin-side"] if side == "spin" else []
        calls.clear()
        assert main(["--output-dir", str(tmp_path), "lax-check", "run", *lams, *side_flag]) == 0
        counts.append(len(calls))
    assert counts == [derivs, derivs]


# ---------------------------------------------------------------------------
# spectral-parameter flow
# ---------------------------------------------------------------------------

def test_lambda_rhs_zero():
    assert lambda_rhs(np.array(0.0 + 0j), np.array(1.0 + 0j), GEN) == 0.0


def test_lambda_solution_linear_case():
    """n=1, k=2: lam = (y + c)/(a - 2t)."""
    y = np.linspace(0.2, 1.5, 7)
    t = 0.1
    lam = lambda_solution(y, t, 1, 2.0, 1.0, 0.5)
    assert np.max(np.abs(lam - (y + 0.5) / (1.0 - 2.0 * t))) < 1e-14


@pytest.mark.parametrize("n,k", [(1, 2.0), (2, 1.4)])
def test_lambda_residual_analytic(n, k):
    y = np.linspace(0.1, 2.0, 10)[:, None]
    t = np.linspace(0.0, 0.3, 10)[None, :]
    rep = lambda_residual(y, t, n, k, a=1.0, c=0.5)
    assert rep["analytic"] < 1e-12
    assert rep["fd"] < 1e-7


def test_lambda_pole_rejection():
    with pytest.raises(ParameterError):
        lambda_solution(0.5, 0.5, 1, 2.0, a=1.0)   # a - k t = 0
    with pytest.raises(ParameterError):
        lambda_residual(-0.5, 0.0, 1, 2.0, a=1.0, c=0.5)  # y + c = 0
