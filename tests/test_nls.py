import numpy as np
import pytest

from m3lab import nls
from m3lab.errors import NumericalError, ParameterError
from m3lab.fields import ddx, ddy, meanx
from m3lab.nls import (
    NlsParams,
    init_plane_wave,
    make_state,
    nls_rhs,
    plane_wave_omega,
    run_nls,
    solve_v_nls,
    step_rk4_nls,
)
from m3lab.spin import default_dt

from conftest import smooth_complex

ZAK = NlsParams(c=0.0, d=1.0, model="Zakharov")
GEN = NlsParams(c=0.3, d=1.0, model="M3q")


def test_params_validation():
    with pytest.raises(ParameterError):
        NlsParams(c=0.1, d=1.0, model="Zakharov")
    with pytest.raises(ParameterError):
        NlsParams(c=0.3, d=0.5, model="Strachan")
    with pytest.raises(ParameterError):
        NlsParams(model="NLS")


def test_solve_v_zero(grid):
    z = np.zeros((grid.ny, grid.nx), dtype=complex)
    v, mean, imag = solve_v_nls(grid, z, z)
    assert np.max(np.abs(v)) == 0.0
    assert imag == 0.0


def test_solve_v_plane_wave(grid):
    q = init_plane_wave(grid, 0.7, 1, 2)
    v, _, imag = solve_v_nls(grid, q, np.conj(q))
    assert np.max(np.abs(v)) < 1e-12     # |q| constant => (pq)_y = 0
    assert imag < 1e-12


def test_solve_v_round_trip(grid, rng):
    q = smooth_complex(grid, rng)
    p = np.conj(q)
    v, _, imag = solve_v_nls(grid, q, p)
    target = ddy(grid, (p * q).real)
    res = ddx(grid, v) - (target - meanx(target))
    assert np.max(np.abs(res)) < 1e-9
    assert imag < 1e-10


def test_rhs_zero_field(grid):
    z = np.zeros((grid.ny, grid.nx), dtype=complex)
    qt, pt = nls_rhs(grid, z, z, np.zeros((grid.ny, grid.nx)), GEN)
    assert np.max(np.abs(qt)) == 0.0
    assert np.max(np.abs(pt)) == 0.0


def test_reduction_identity_zakharov(grid, rng):
    """At (c,d) = (0,1) the generic rhs equals the Zakharov form exactly."""
    q = smooth_complex(grid, rng)
    p = np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p)
    qt, pt = nls_rhs(grid, q, p, v, NlsParams(c=0.0, d=1.0, model="M3q"))
    qt_ref = -1j * (ddy(grid, ddx(grid, q)) + 2.0 * v * q)
    pt_ref = 1j * (ddy(grid, ddx(grid, p)) + 2.0 * v * p)
    assert np.array_equal(qt, qt_ref)
    assert np.array_equal(pt, pt_ref)


def test_reduction_identity_strachan(grid, rng):
    """At d = 0 the generic rhs equals the Strachan form exactly."""
    q = smooth_complex(grid, rng)
    p = np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p)
    c = 0.4
    qt, pt = nls_rhs(grid, q, p, v, NlsParams(c=c, d=0.0, model="M3q"))
    qt_ref = -1j * ddy(grid, ddx(grid, q)) - 4.0 * c * ddx(grid, v * q)
    pt_ref = 1j * ddy(grid, ddx(grid, p)) - 4.0 * c * ddx(grid, v * p)
    assert np.array_equal(qt, qt_ref)
    assert np.array_equal(pt, pt_ref)


@pytest.mark.parametrize("beta", [1, -1])
def test_rhs_conjugate_symmetry(grid, rng, beta):
    q = smooth_complex(grid, rng)
    p = beta * np.conj(q)
    v, _, _ = solve_v_nls(grid, q, p)
    par = NlsParams(c=0.3, d=1.0, beta=beta, model="M3q")
    qt, pt = nls_rhs(grid, q, p, v, par)
    assert np.max(np.abs(pt - beta * np.conj(qt))) < 1e-10


def test_dispersion_relation_with_injected_background(grid):
    """Plane wave with a constant v0 passed directly to the rhs.

    Derived before building: w = -k1 k2 + 4 c v0 k1 + 2 d^2 v0 (with k1, k2
    the physical wavenumbers).
    """
    par = GEN
    v0 = 0.35
    k1m, k2m = 2, 1
    q = init_plane_wave(grid, 0.6, k1m, k2m)
    p = par.beta * np.conj(q)
    v = np.full((grid.ny, grid.nx), v0)
    qt, _ = nls_rhs(grid, q, p, v, par)
    omega = plane_wave_omega(grid, par, k1m, k2m, v0)
    assert np.max(np.abs(qt - (-1j * omega) * q)) < 1e-10 * abs(omega)


def test_step_preserves_zero(grid):
    z = np.zeros((grid.ny, grid.nx), dtype=complex)
    state = make_state(grid, z, ZAK)
    q, _ = step_rk4_nls(grid, state.q, ZAK, default_dt(grid))
    assert np.max(np.abs(q)) == 0.0


def test_step_rk4_order(grid, rng):
    par = GEN
    q0 = smooth_complex(grid, rng)

    def terminal(dt, n):
        q = make_state(grid, q0, par).q
        for _ in range(n):
            q, _ = step_rk4_nls(grid, q, par, dt)
        return q

    dt0, n0 = 0.8 * default_dt(grid), 8
    Q1 = terminal(dt0, n0)
    Q2 = terminal(dt0 / 2, 2 * n0)
    Q4 = terminal(dt0 / 4, 4 * n0)
    ratio = np.max(np.abs(Q1 - Q2)) / np.max(np.abs(Q2 - Q4))
    assert 13.0 < ratio < 19.0


@pytest.mark.parametrize("beta", [1, -1])
def test_conjugate_pairing_held_over_run(grid, rng, beta):
    par = NlsParams(c=0.2, d=1.0, beta=beta, model="M3q")
    q = make_state(grid, smooth_complex(grid, rng, scale=0.3), par).q
    worst = 0.0
    for _ in range(100):
        q, conj_dev = step_rk4_nls(grid, q, par, default_dt(grid))
        worst = max(worst, conj_dev)
    assert worst < 1e-9


def test_broken_pairing_is_a_numerical_abort(grid, rng, monkeypatch):
    """A p-equation that no longer mirrors the q-equation aborts the step."""
    real_rhs = nls.nls_rhs

    def skewed_rhs(*args, **kwargs):
        q_t, p_t = real_rhs(*args, **kwargs)
        return q_t, p_t + 10.0

    monkeypatch.setattr(nls, "nls_rhs", skewed_rhs)
    q = make_state(grid, smooth_complex(grid, rng, scale=0.3), GEN).q
    with pytest.raises(NumericalError):
        step_rk4_nls(grid, q, GEN, default_dt(grid))


def test_plane_wave_modulus_conserved(grid):
    q = make_state(grid, init_plane_wave(grid, 0.5, 1, 1), ZAK).q
    for _ in range(100):
        q, _ = step_rk4_nls(grid, q, ZAK, default_dt(grid))
        assert np.max(np.abs(np.abs(q) - 0.5)) < 1e-9


def test_run_nls_measured_frequency(grid):
    state = make_state(grid, init_plane_wave(grid, 0.5, 1, 1), ZAK)
    dt = default_dt(grid)
    saved = run_nls(grid, state, ZAK, dt, 60, save_every=1)
    phases = np.unwrap([np.angle(s.q[3, 5]) for s in saved])
    times = np.array([s.t for s in saved])
    measured = -np.polyfit(times, phases, 1)[0]
    expected = plane_wave_omega(grid, ZAK, 1, 1)
    assert abs(measured - expected) < 1e-3 * abs(expected)
