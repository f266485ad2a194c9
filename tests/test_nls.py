import warnings

import numpy as np
import pytest

from m3lab import nls
from m3lab.errors import FieldError, NumericalError, ParameterError, UnstableStepError
from m3lab.fields import DENSE_MAX_N, Grid2, ddx, ddy, inv_dx, meanx, rk4
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


# ---------------------------------------------------------------------------
# the reduced kernel against the general pair
# ---------------------------------------------------------------------------

def general_pair_rhs(grid, q, p, par, scheme):
    """(q_t, p_t) of the general pair: q and p each differentiated, v from complex p q."""
    c, d = par.c, par.d
    v = np.real(inv_dx(grid, ddy(grid, p * q, scheme)).field)
    q_t = -1j * (ddy(grid, ddx(grid, q, scheme), scheme) + 2.0 * d * d * v * q)
    p_t = 1j * (ddy(grid, ddx(grid, p, scheme), scheme) + 2.0 * d * d * v * p)
    if c != 0.0:
        q_t = q_t - 4.0 * c * ddx(grid, v * q, scheme)
        p_t = p_t - 4.0 * c * ddx(grid, v * p, scheme)
    return q_t, p_t


def general_pair_step(grid, q, par, dt, scheme):
    return rk4(grid, lambda pair: general_pair_rhs(grid, *pair, par, scheme),
               (q, par.beta * np.conj(q)), dt)


@pytest.mark.parametrize("shape", [(32, 32), (33, 33), (32, 40)])
@pytest.mark.parametrize("scheme", ["spectral", "central4"])
@pytest.mark.parametrize("beta", [1, -1])
@pytest.mark.parametrize("c", [0.0, 0.3])
@pytest.mark.parametrize("d", [0.0, 1.0])
def test_reduced_step_matches_general_pair(shape, scheme, beta, c, d):
    """The reduced step is the general-pair step to rounding, and the general
    pair stays on p = beta conj(q) to rounding.

    Every derivative commutes with conjugation: the spectral one drops the
    Nyquist mode of an even-length axis for complex fields as for real ones,
    so the p-equation stays the conjugate of the q-equation on every grid.
    """
    g = Grid2(*shape)
    par = NlsParams(c=c, d=d, beta=beta, model="M3q")
    q = smooth_complex(g, np.random.default_rng(7), scale=0.4)
    tol = 1e-13 * np.max(np.abs(q))
    q_ref, p_ref = general_pair_step(g, q, par, default_dt(g), scheme)
    assert np.max(np.abs(p_ref - beta * np.conj(q_ref))) <= tol
    q_new, conj_dev = step_rk4_nls(g, q, par, default_dt(g), scheme)
    assert np.max(np.abs(q_new - q_ref)) <= tol
    assert conj_dev == 0.0


def test_general_pair_path_unchanged(grid, rng):
    """With an explicit p (not beta conj q) nls_rhs and solve_v_nls keep the general form bitwise."""
    q = smooth_complex(grid, rng)
    p = smooth_complex(grid, rng)
    v, row_mean, imag = solve_v_nls(grid, q, p)
    w, mean = inv_dx(grid, ddy(grid, p * q))
    assert np.array_equal(v, np.real(w))
    assert np.array_equal(row_mean, np.real(mean))
    assert imag == float(np.max(np.abs(w.imag))) > 1e-3
    for got, ref in zip(nls_rhs(grid, q, p, v, GEN), general_pair_rhs(grid, q, p, GEN, "spectral")):
        assert np.array_equal(got, ref)


def test_paired_v_is_real_density_solve(grid, rng):
    q = smooth_complex(grid, rng)
    for beta in (1, -1):
        v, row_mean, imag = solve_v_nls(grid, q, None, beta=beta)
        w, mean = inv_dx(grid, ddy(grid, beta * (q.real ** 2 + q.imag ** 2)))
        assert np.array_equal(v, w) and np.array_equal(row_mean, mean)
        assert imag == 0.0
        v_gen, _, _ = solve_v_nls(grid, q, beta * np.conj(q))
        assert np.max(np.abs(v - v_gen)) < 1e-13
    state = make_state(grid, q, NlsParams(c=0.3, beta=-1))
    assert np.array_equal(state.v, solve_v_nls(grid, q, None, beta=-1)[0])
    assert state.v_row_mean == float(np.max(np.abs(solve_v_nls(grid, q, None, beta=-1)[1])))
    assert state.v_row_mean > 1e-3


@pytest.mark.parametrize("c, n_complex", [(0.3, 12), (0.0, 8)])
def test_step_transform_counts(rng, monkeypatch, c, n_complex):
    """One step: 2 fft + 2 ifft for q_xy and 1 + 1 for (v q)_x per stage.  v
    is a real solve: 2 rfft + 2 irfft per solve above DENSE_MAX_N, none
    (matrix products) at or below it."""
    for n, n_real in ((64, 0), (2 * DENSE_MAX_N, 2)):
        grid = Grid2(n, n)
        q = smooth_complex(grid, rng)
        solve_v_nls(grid, q, None)  # the operator matrices are built before counting
        calls = dict.fromkeys(("fft", "ifft", "rfft", "irfft"), 0)

        def counted(name):
            fn = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            for name in calls:
                m.setattr(np.fft, name, counted(name))
            step_rk4_nls(grid, q, NlsParams(c=c, d=1.0), default_dt(grid))
            assert calls == {"fft": n_complex, "ifft": n_complex,
                             "rfft": 4 * n_real, "irfft": 4 * n_real}
            calls.update(dict.fromkeys(calls, 0))
            solve_v_nls(grid, q, None)
            assert calls == {"fft": 0, "ifft": 0, "rfft": n_real, "irfft": n_real}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_non_finite_q_rejected(grid, rng, bad, part):
    """A non-finite entry of q is a FieldError, raised before any warning."""
    q = smooth_complex(grid, rng)
    q[5, 7] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldError):
            step_rk4_nls(grid, q, GEN, default_dt(grid))
        with pytest.raises(FieldError):
            make_state(grid, q, GEN)


def test_overflowing_step_is_a_numerical_abort():
    """A finite q whose step overflows aborts as unstable, with no warning on the way."""
    g = Grid2(32, 32)
    q = smooth_complex(g, np.random.default_rng(3), scale=6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnstableStepError):
            for _ in range(10):
                q, _ = step_rk4_nls(g, q, GEN, default_dt(g))
