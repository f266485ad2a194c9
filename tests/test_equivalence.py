import numpy as np
import pytest

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
from m3lab.fields import cross3, max_norm, norm3
from m3lab.frames import FrameCoeffs, coeffs_from_frame, frame_from_spin
from m3lab.spin import (
    SpinParams,
    default_dt,
    init_modulated_helix,
    init_uniform,
    make_state,
    run_spin,
    solve_u,
)

from conftest import smooth_complex

PAR_M1 = SpinParams(c=0.0, d=1.0, l=0.0, model="M1")
PAR = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")


def helix_field(grid, kappa=1):
    X, _ = grid.meshgrid()
    return np.stack([np.sin(kappa * X), np.zeros_like(X), np.cos(kappa * X)], axis=-1)


# ---------------------------------------------------------------------------
# the curvature -> q map
# ---------------------------------------------------------------------------

def test_q_from_constant_curvature(grid):
    k0 = 0.8
    shape = (grid.ny, grid.nx)
    co = FrameCoeffs(k=np.full(shape, k0), sigma=np.zeros(shape), tau=np.zeros(shape),
                     m1=np.zeros(shape), m2=np.zeros(shape), m3=np.zeros(shape))
    q, info = q_from_spin(grid, co, PAR_M1)
    assert max_norm(q - k0 / 2.0) < 1e-14
    assert info["fold_mode"] == 0


def test_q_from_zero_curvature_is_zero(grid):
    shape = (grid.ny, grid.nx)
    zeros = np.zeros(shape)
    co = FrameCoeffs(k=zeros, sigma=zeros, tau=zeros, m1=zeros, m2=zeros, m3=zeros)
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
                  np.full_like(psi, np.cos(theta0))], axis=-1)
    F = frame_from_spin(grid, S)
    co = coeffs_from_frame(grid, F)
    q, info = q_from_spin(grid, co, PAR_M1)
    assert info["fold_mode"] == -1                 # phase -x re-added
    assert abs(info["fold_defect"]) < 1e-12
    expect = (np.sin(theta0) * 2 / 2.0) * np.exp(-1j * X)
    assert max_norm(q - expect) < 1e-10


def test_q_rejects_vanishing_denominator(grid):
    shape = (grid.ny, grid.nx)
    zeros = np.zeros(shape)
    co = FrameCoeffs(k=zeros + 1.0, sigma=zeros, tau=zeros,
                     m1=zeros, m2=zeros, m3=zeros)
    par = SpinParams(c=0.5, d=0.0, l=1e-14, model="M2")
    with pytest.raises(ParameterError):
        q_from_spin(grid, co, par)


def test_modified_amplitude_disagreement_witness(grid):
    """In the Frenet gauge the modified map squares the curvature: the two
    maps agree exactly when k = 1 and differ by the factor k otherwise."""
    F1 = frame_from_spin(grid, helix_field(grid, kappa=1))
    co1 = coeffs_from_frame(grid, F1)
    q_a, _ = q_from_spin(grid, co1, PAR_M1)
    q_m, _ = q_from_spin(grid, co1, PAR_M1, modified=True)
    assert max_norm(q_m - q_a) < 1e-12            # k = 1: identical

    F2 = frame_from_spin(grid, helix_field(grid, kappa=2))
    co2 = coeffs_from_frame(grid, F2)
    q_a2, _ = q_from_spin(grid, co2, PAR_M1, fold_mode=0)
    q_m2, _ = q_from_spin(grid, co2, PAR_M1, fold_mode=0, modified=True)
    assert max_norm(q_m2 - 2.0 * q_a2) < 1e-10    # amplitude k^2/2 vs k/2, k = 2
    q_s2, _ = q_from_spin(grid, co2, PAR_M1, fold_mode=0, modified=True, sqrt_variant=True)
    assert max_norm(q_s2 - q_a2) < 1e-10          # sqrt variant restores k/2


# ---------------------------------------------------------------------------
# the evolution residual
# ---------------------------------------------------------------------------

def test_equiv_residual_y_independent_statics(grid):
    state = make_state(grid, helix_field(grid), PAR)
    dt = default_dt(grid)
    saved = run_spin(grid, state, PAR, dt, 8, save_every=4)
    res = equiv_residual(grid, saved[0].S, saved[1].S, saved[2].S, 2 * 4 * dt, PAR)
    assert res["residual_q"] < 1e-8
    assert res["residual_p"] < 1e-8
    assert res["residual_v"] < 1e-9


def test_equiv_residual_p_equals_q():
    """p = beta conj(q) and every derivative commutes with conjugation, so the
    p-residual is the q-residual to rounding; here on the 48^2 slice of the
    criterion 06 helix ladder (delta = 0.1 * 32 / 48)."""
    report = l_equiv_check(PAR, lambda g: init_modulated_helix(g, kappa=1, eps=0.05),
                           sizes=(32, 48), t_eval=0.2, delta0=0.1)
    assert abs(report.residual_p - report.residual_q) <= 1e-12 * report.residual_q


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
    assert max_norm(S - np.array([0.0, 0.0, 1.0])) == 0.0
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
    assert max_norm(F.e1 - spin_from_fg(pair)) == 0.0
    # the bilinear triad is left-handed: e3 = -e1 ^ e2 (its own transport
    # matrices are consistent with this orientation)
    assert max_norm(F.e3 + cross3(F.e1, F.e2)) < 1e-12


def test_spherical_angle_pair_matches_spin(grid):
    X, Y = grid.meshgrid()
    theta = 0.8 + 0.3 * np.sin(X) * np.cos(Y)
    phi = 0.5 * np.sin(X + Y)
    pair = HirotaPair(f=np.cos(theta / 2).astype(complex),
                      g=np.sin(theta / 2) * np.exp(1j * phi))
    S = spin_from_fg(pair)
    expect = np.stack([np.sin(theta) * np.cos(phi),
                       np.sin(theta) * np.sin(phi),
                       np.cos(theta)], axis=-1)
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
