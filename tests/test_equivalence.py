import numpy as np
import pytest

from m3lab import nls
from m3lab.equivalence import (
    HirotaPair,
    coeffs_from_fg,
    equiv_residual,
    frame_from_fg,
    gauge_check,
    hirota_d,
    l_equiv_check,
    q_from_spin,
    spin_from_fg,
    u_from_fg,
)
from m3lab.errors import DegenerateFieldError, FieldError, ParameterError
from m3lab.fields import Grid2, cross_planes, default_dt, max_norm, norm3
from m3lab.frames import coeffs_from_frame, frame_from_spin
from m3lab.nls import NlsParams
from m3lab.spin import (
    SpinParams,
    init_modulated_helix,
    init_uniform,
    make_state,
    run_spin,
    solve_u,
)

from conftest import frame_coeffs, smooth_complex

PAR_M1 = SpinParams(c=0.0, d=1.0, l=0.0, model="M1")
PAR = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")


def helix_field(grid, kappa=1):
    X, _ = grid.meshgrid()
    return np.stack([np.sin(kappa * X), np.zeros_like(X), np.cos(kappa * X)])


# ---------------------------------------------------------------------------
# the curvature -> q map
# ---------------------------------------------------------------------------

def test_q_from_constant_curvature(grid):
    k0 = 0.8
    shape = (grid.ny, grid.nx)
    co = frame_coeffs(k=np.full(shape, k0), sigma=np.zeros(shape), tau=np.zeros(shape),
                      m1=np.zeros(shape), m2=np.zeros(shape), m3=np.zeros(shape))
    q, info = q_from_spin(grid, co, PAR_M1)
    assert max_norm(q - k0 / 2.0) < 1e-14
    assert info["fold_mode"] == 0


def test_q_from_zero_curvature_is_zero(grid):
    shape = (grid.ny, grid.nx)
    zeros = np.zeros(shape)
    co = frame_coeffs(k=zeros, sigma=zeros, tau=zeros, m1=zeros, m2=zeros, m3=zeros)
    q, _ = q_from_spin(grid, co, PAR_M1)
    assert max_norm(q) == 0.0


def test_q_from_helix_hand_value(grid):
    """S = (sin x, 0, cos x) with c=0, d=1, l=0 gives q = 1/2 exactly."""
    F = frame_from_spin(grid, helix_field(grid))
    co = coeffs_from_frame(grid, F)
    q, _ = q_from_spin(grid, co, PAR_M1)
    assert max_norm(q - 0.5) < 1e-12


def test_q_quantized_linear_phase_folds_exactly(grid):
    """A helix with integer mean torsion: the linear phase is re-added exactly."""
    X, _ = grid.meshgrid()
    theta0 = np.pi / 3          # cos(theta0) = 1/2, kappa = 2: mean torsion = 1
    psi = 2 * X
    S = np.stack([np.sin(theta0) * np.cos(psi),
                  np.sin(theta0) * np.sin(psi),
                  np.full_like(psi, np.cos(theta0))])
    F = frame_from_spin(grid, S)
    co = coeffs_from_frame(grid, F)
    q, info = q_from_spin(grid, co, PAR_M1)
    assert info["fold_mode"] == -1                 # phase -x re-added
    assert abs(info["fold_defect"]) < 1e-12
    expect = (np.sin(theta0) * 2 / 2.0) * np.exp(-1j * X)
    assert max_norm(q - expect) < 1e-10


def test_slice_map_is_q_from_the_projected_coefficients(grid):
    """The slice map gives the bits of q_from_spin on coeffs_from_frame,
    with and without a forced fold mode."""
    from m3lab.equivalence import _slice_to_q
    S = init_modulated_helix(grid, kappa=1, eps=0.1)
    F = frame_from_spin(grid, S)
    for fold in (None, 3):
        want_q, want_info = q_from_spin(grid, coeffs_from_frame(grid, F), PAR, fold_mode=fold)
        q, info = _slice_to_q(grid, S, PAR, "spectral", fold_mode=fold)
        assert np.array_equal(q, want_q)
        assert info == want_info


def test_q_rejects_vanishing_denominator(grid):
    # |2cl + d| < DENOM_TOL is refused when SpinParams is built, so
    # q_from_spin never divides by it
    shape = (grid.ny, grid.nx)
    zeros = np.zeros(shape)
    co = frame_coeffs(k=zeros + 1.0, sigma=zeros, tau=zeros,
                      m1=zeros, m2=zeros, m3=zeros)
    with pytest.raises(ParameterError):
        q_from_spin(grid, co, SpinParams(c=0.5, d=0.0, l=1e-14, model="M2"))


def test_modified_amplitude_disagreement_witness(grid):
    """The paper prints the sigma-bearing gauge's amplitude as
    (k^2 + sigma^2)/(2(2cl+d)).  In the Frenet gauge that squares the
    curvature: it agrees with the map's k/(2(2cl+d)) exactly when k = 1 and
    is k times it otherwise, and its square root sqrt(k^2 + sigma^2) gives k
    back.  Both amplitudes are formed here from the projected coefficients."""
    denom2 = 2.0 * PAR_M1.denom
    for kappa, tol in ((1, 1e-12), (2, 1e-10)):    # k = 1: the two amplitudes agree
        co = coeffs_from_frame(grid, frame_from_spin(grid, helix_field(grid, kappa=kappa)))
        amp = np.abs(q_from_spin(grid, co, PAR_M1, fold_mode=0)[0])
        assert max_norm(amp - co.k / denom2) < 1e-12              # the map's amplitude
        printed = (co.k**2 + co.sigma**2) / denom2
        assert max_norm(printed - kappa * amp) < tol              # k^2/2 vs k/2
        assert max_norm(np.sqrt(co.k**2 + co.sigma**2) / denom2 - amp) < 1e-10


# ---------------------------------------------------------------------------
# the evolution residual
# ---------------------------------------------------------------------------

def test_equiv_residual_y_independent_statics(grid):
    state = make_state(grid, helix_field(grid), PAR)
    dt = default_dt(grid)
    saved = run_spin(grid, state, PAR, dt, 8, save_every=4)
    res = equiv_residual(grid, saved[0].S, saved[1].S, saved[2].S, 2 * 4 * dt, PAR)
    assert res["residual_q"] < 1e-8
    assert set(res) == {"residual_q", "obstruction"}


def test_equiv_residual_reads_the_rate_the_nls_stepper_integrates():
    """residual_q is max|(q_after - q_before)/dt2 - q_t| bit for bit, with
    q_t from the kernel step_rk4_nls integrates (nls._q_rate) on the mapped
    middle slice, and v_cross compares the spin-side v with the v of the
    NLS state simulate-nls writes; on a 32^2 triple of criterion 06's helix."""
    grid = Grid2(32, 32)
    state = make_state(grid, init_modulated_helix(grid, kappa=1, eps=0.05), PAR)
    dt = default_dt(grid)
    saved = run_spin(grid, state, PAR, dt, 4, save_every=2)
    res = equiv_residual(grid, *(s.S for s in saved), 4 * dt, PAR, v_spin=saved[1].v)

    def q_of(S, mode=None):
        return q_from_spin(grid, coeffs_from_frame(grid, frame_from_spin(grid, S)), PAR, mode)

    q_mid, info = q_of(saved[1].S)
    q_before, q_after = (q_of(s.S, info["fold_mode"])[0] for s in (saved[0], saved[2]))
    npar = NlsParams(c=PAR.c, d=PAR.d)
    ws = nls._Workspace(q_mid)
    q_t = nls._q_rate(grid, ws.q, npar, "spectral", ws)
    assert res["residual_q"] == float(np.max(np.abs((q_after - q_before) / (4 * dt) - q_t)))
    v = nls.make_state(grid, q_mid, npar).v
    assert res["v_cross"] == float(np.max(np.abs(v - saved[1].v)))
    assert 0.0 < res["residual_q"] < 1e-3 and res["v_cross"] < 1e-12


def test_kappa_2_helix_ladder_converges_in_the_band():
    """The kappa = 2 helix (eps = 0.05) on criterion 06's ladder and
    parameters: each rung marches at its rule's step in the 2/3 band, where
    the full-grid kernel aborted on the n = 64 rung at t = 0.136, and the
    ladder converges at order >= 1.9 (1.0431e-3 / 2.5779e-4 / 7.2004e-5,
    order 1.928)."""
    par = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")
    report = l_equiv_check(par, lambda g: init_modulated_helix(g, kappa=2, eps=0.05),
                           sizes=(32, 64, 128), t_eval=0.2, delta0=0.1)
    residuals = [r for _, r in report.ladder]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    assert report.order >= 1.9
    assert report.v_cross < 1e-12


def test_equiv_residual_aborts_on_equilibrium(grid):
    S = init_uniform(grid)
    with pytest.raises(DegenerateFieldError):
        equiv_residual(grid, S, S, S, 0.1, PAR)


# ---------------------------------------------------------------------------
# bilinear representation
# ---------------------------------------------------------------------------

def test_hirota_d_antisymmetry(grid, rng):
    a = smooth_complex(grid, rng)
    assert max_norm(hirota_d(grid, a, a, "x")) < 1e-13
    assert max_norm(hirota_d(grid, a, a, "y")) < 1e-13
    with pytest.raises(ParameterError):
        hirota_d(grid, a, a, "z")


def test_hirota_pair_requires_positive_lambda(grid):
    zero = np.zeros((grid.ny, grid.nx), dtype=complex)
    with pytest.raises(FieldError):
        HirotaPair(f=zero, g=zero)


def test_spin_from_fg_north_pole(grid):
    ones = np.ones((grid.ny, grid.nx), dtype=complex)
    zero = np.zeros_like(ones)
    pair = HirotaPair(f=ones, g=zero)
    S = spin_from_fg(pair)
    assert max_norm(S - np.array([0.0, 0.0, 1.0])[:, None, None]) == 0.0
    assert max_norm(pair.Lambda - 1.0) == 0.0


def generic_pair(grid, rng):
    f = 1.2 + 0.6 * smooth_complex(grid, rng)
    g = 0.3 + 0.5 * smooth_complex(grid, rng)
    return HirotaPair(f=f, g=g)


def test_spin_from_fg_unit_norm(grid, rng):
    S = spin_from_fg(generic_pair(grid, rng))
    assert np.max(np.abs(norm3(S) - 1.0)) < 1e-12


def test_frame_from_fg_orthonormal(grid, rng):
    pair = generic_pair(grid, rng)
    F = frame_from_fg(pair)
    assert F.gram_deviation() < 1e-9
    e1, e2, e3 = F.E
    assert max_norm(e1 - spin_from_fg(pair)) == 0.0
    # the bilinear triad is left-handed: e3 = -e1 ^ e2 (its own transport
    # matrices are consistent with this orientation)
    assert max_norm(e3 + cross_planes(e1, e2)) < 1e-12


def test_spherical_angle_pair_matches_spin(grid):
    X, Y = grid.meshgrid()
    theta = 0.8 + 0.3 * np.sin(X) * np.cos(Y)
    phi = 0.5 * np.sin(X + Y)
    pair = HirotaPair(f=np.cos(theta / 2).astype(complex),
                      g=np.sin(theta / 2) * np.exp(1j * phi))
    S = spin_from_fg(pair)
    expect = np.stack([np.sin(theta) * np.cos(phi),
                       np.sin(theta) * np.sin(phi),
                       np.cos(theta)])
    assert max_norm(S - expect) < 1e-12


def test_coeffs_from_fg_match_projections(grid, rng):
    pair = generic_pair(grid, rng)
    F = frame_from_fg(pair)
    proj = coeffs_from_frame(grid, F)
    bili = coeffs_from_fg(grid, pair)
    for name in ("k", "sigma", "tau", "m1", "m2", "m3"):
        assert max_norm(getattr(bili, name) - getattr(proj, name)) < 1e-8, name


def test_gauge_check_and_u(grid):
    """x-independent phase pair sits in the tau = 0 gauge, where the
    bilinear u formula reproduces the constraint solution."""
    X, Y = grid.meshgrid()
    theta = 0.8 + 0.3 * np.sin(X) * np.cos(Y)
    phi = 0.5 * np.sin(Y)
    pair = HirotaPair(f=np.cos(theta / 2).astype(complex),
                      g=np.sin(theta / 2) * np.exp(1j * phi))
    assert gauge_check(grid, pair) < 1e-12
    u_bil = u_from_fg(grid, pair)
    u_direct, _ = solve_u(grid, spin_from_fg(pair))
    fluct = u_bil - np.mean(u_bil, axis=1, keepdims=True)
    assert max_norm(fluct - u_direct) < 1e-8
