import tracemalloc
import warnings

import numpy as np
import pytest

from m3lab import nls
from m3lab.errors import FieldError, NumericalError, ParameterError, UnstableStepError
from m3lab.fields import DENSE_MAX_N, Grid2, ddx, ddy, default_dt, inv_dx, meanx, rk4, spectral_tail
from m3lab.nls import (
    NlsParams,
    NlsState,
    init_plane_wave,
    make_state,
    march_nls,
    nls_rhs,
    plane_wave_omega,
    run_nls,
    solve_v_nls,
    step_rk4_nls,
)

from conftest import nls_step, smooth_complex

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
    q = nls_step(grid, state.q, ZAK, default_dt(grid))
    assert np.max(np.abs(q)) == 0.0


def test_step_rk4_order(grid, rng):
    par = GEN
    q0 = smooth_complex(grid, rng)

    def terminal(dt, n):
        ws = nls._Workspace(make_state(grid, q0, par).q)
        for _ in range(n):
            step_rk4_nls(grid, ws, par, dt)
        return ws.q

    dt0, n0 = 0.8 * default_dt(grid), 8
    Q1 = terminal(dt0, n0)
    Q2 = terminal(dt0 / 2, 2 * n0)
    Q4 = terminal(dt0 / 4, 4 * n0)
    ratio = np.max(np.abs(Q1 - Q2)) / np.max(np.abs(Q2 - Q4))
    assert 13.0 < ratio < 19.0


def test_non_finite_stage_is_a_numerical_abort(grid, rng, monkeypatch):
    """A stage rate gone non-finite is not checked in the stage; the step
    result is, and the step aborts with no warning on the way."""
    real_rate = nls._q_rate
    stages = []

    def rate(*args):
        stages.append(1)
        q_t = real_rate(*args)
        return np.full_like(q_t, np.nan) if len(stages) == 2 else q_t

    monkeypatch.setattr(nls, "_q_rate", rate)
    q = make_state(grid, smooth_complex(grid, rng, scale=0.3), GEN).q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite"):
            nls_step(grid, q, GEN, default_dt(grid))
    assert len(stages) == 4


def test_step_given_its_workspace_allocates_less_than_a_field(rng):
    """A step writes every stage, the v solve and the new q into the arrays
    of the workspace it advances: after warm-up, what it allocates at its
    peak stays below one complex (ny, nx) field."""
    g = Grid2(128, 128)
    ws = nls._Workspace(smooth_complex(g, rng, scale=0.3))
    step_rk4_nls(g, ws, GEN, default_dt(g))
    tracemalloc.start()
    try:
        step_rk4_nls(g, ws, GEN, default_dt(g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ws.q.nbytes


def test_plane_wave_modulus_conserved(grid):
    ws = nls._Workspace(make_state(grid, init_plane_wave(grid, 0.5, 1, 1), ZAK).q)
    for _ in range(100):
        step_rk4_nls(grid, ws, ZAK, default_dt(grid))
        assert np.max(np.abs(np.abs(ws.q) - 0.5)) < 1e-9


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
    """(q, p) stepped as one (2, ny, nx) stack: the step is elementwise, so
    each component has the bits of its own step."""
    return rk4(lambda pair: np.stack(general_pair_rhs(grid, *pair, par, scheme)),
               np.stack((q, par.beta * np.conj(q))), dt)


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
    q_new = nls_step(g, q, par, default_dt(g), scheme)
    assert np.max(np.abs(q_new - q_ref)) <= tol


def test_reduced_step_matches_general_pair_at_256():
    """The same on one 256 x 256 spectral grid, where v is solved by rfft
    rather than by matrix products."""
    test_reduced_step_matches_general_pair((256, 256), "spectral", 1, 0.3, 1.0)


@pytest.mark.parametrize("scheme", ["spectral", "central4"])
@pytest.mark.parametrize("beta", [1, -1])
def test_step_reductions_bitwise(grid, rng, scheme, beta):
    """The step under M3q at (c, d) = (0, 1) is the Zakharov step, and at
    d = 0 the Strachan step, bit for bit: each the RK4 step of its reduced
    rate written out (q_t = (-i q_y)_x - 2i v q, q_t = (-i q_y - 4c v q)_x)."""
    q = make_state(grid, smooth_complex(grid, rng, scale=0.4), ZAK).q
    dt = default_dt(grid)

    def vq(q):
        dens = beta * (q.real * q.real + q.imag * q.imag)
        return inv_dx(grid, ddy(grid, dens, scheme)).field * q

    def written_out(rate):
        return rk4(rate, q, dt)

    c = 0.4
    for m3q, reduced, rate in (
            ((0.0, 1.0), "Zakharov", lambda q: ddx(grid, -1j * ddy(grid, q, scheme), scheme)
                                                  - 2j * vq(q)),
            ((c, 0.0), "Strachan", lambda q: ddx(grid, -1j * ddy(grid, q, scheme)
                                                  - 4.0 * c * vq(q), scheme))):
        step = nls_step(grid, q, NlsParams(*m3q, beta=beta, model="M3q"), dt, scheme)
        par = NlsParams(*m3q, beta=beta, model=reduced)
        assert np.array_equal(step, nls_step(grid, q, par, dt, scheme))
        assert np.array_equal(step, written_out(rate))


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


def paired_v(grid, q, beta):
    """v of the paired q and the row means of its integrand, as make_state
    and the stepper solve them."""
    v, v_x = nls._paired_v(grid, q, "spectral", beta, tuple(np.empty(q.shape) for _ in range(3)))
    return v, meanx(v_x)[:, 0]


def test_paired_v_is_real_density_solve(grid, rng):
    q = smooth_complex(grid, rng)
    for beta in (1, -1):
        v, row_mean = paired_v(grid, q, beta)
        w, mean = inv_dx(grid, ddy(grid, beta * (q.real ** 2 + q.imag ** 2)))
        assert np.array_equal(v, w) and np.array_equal(row_mean, mean)
        assert v.dtype == np.float64  # a real solve: no imaginary part to discard
        v_gen, _, _ = solve_v_nls(grid, q, beta * np.conj(q))
        assert np.max(np.abs(v - v_gen)) < 1e-13
    state = make_state(grid, q, NlsParams(c=0.3, beta=-1))
    assert np.array_equal(state.v, paired_v(grid, q, -1)[0])
    assert state.v_row_mean == float(np.max(np.abs(paired_v(grid, q, -1)[1])))
    assert state.v_row_mean > 1e-3


@pytest.mark.parametrize("c, n_complex", [(0.3, 8), (0.0, 8)])
def test_step_transform_counts(rng, monkeypatch, c, n_complex):
    """One step: 1 fft + 1 ifft for q_y and 1 + 1 for (-i q_y - 4c v q)_x per
    stage, whether or not c is 0.  v is a real solve: 2 rfft + 2 irfft per
    solve above DENSE_MAX_N, none (matrix products) at or below it."""
    for n, n_real in ((64, 0), (2 * DENSE_MAX_N, 2)):
        grid = Grid2(n, n)
        q = smooth_complex(grid, rng)
        make_state(grid, q, NlsParams())  # the operator matrices are built before counting
        ws = nls._Workspace(q)
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
            step_rk4_nls(grid, ws, NlsParams(c=c, d=1.0), default_dt(grid))
            assert calls == {"fft": n_complex, "ifft": n_complex,
                             "rfft": 4 * n_real, "irfft": 4 * n_real}
            calls.update(dict.fromkeys(calls, 0))
            make_state(grid, q, NlsParams())
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
            nls_step(grid, q, GEN, default_dt(grid))
        with pytest.raises(FieldError):
            make_state(grid, q, GEN)


def test_overflowing_step_is_a_numerical_abort():
    """A finite q whose step overflows aborts as unstable, with no warning on the way."""
    g = Grid2(32, 32)
    ws = nls._Workspace(smooth_complex(g, np.random.default_rng(3), scale=6.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnstableStepError):
            for _ in range(10):
                step_rk4_nls(g, ws, GEN, default_dt(g))


def test_march_checks_each_state_once(grid, rng, monkeypatch):
    """Each step takes the previous step's checked result unchecked: a march
    of n steps checks the initial q once, where it loads it, each new q once
    on its way out, and each kept state once, and gives the bits of single
    steps each loaded afresh."""
    calls = []
    real = nls.check_finite
    monkeypatch.setattr(nls, "check_finite", lambda f, name="field": calls.append(name) or
                        real(f, name))
    state = make_state(grid, smooth_complex(grid, rng), GEN)
    calls.clear()
    n_steps, save_every = 6, 3
    saved = run_nls(grid, state, GEN, default_dt(grid), n_steps, save_every)
    assert len(calls) == 1 + n_steps + n_steps // save_every
    q = state.q
    for _ in range(n_steps):
        q = nls_step(grid, q, GEN, default_dt(grid))
    assert np.array_equal(saved[-1].q, q)


def test_loading_checks_every_q(grid, rng):
    """Every q that reaches a step is loaded first, and loading rejects a
    non-finite one, before any warning: a march's initial state and a
    workspace loaded for single steps."""
    state = make_state(grid, smooth_complex(grid, rng), GEN)
    bad = state.q.copy()
    bad[3, 4] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: march_nls(grid, NlsState(bad, state.v), GEN, default_dt(grid), 2),
                     lambda: nls._Workspace(bad)):
            with pytest.raises(FieldError):
                call()


def test_state_records_the_tail_of_its_q(grid, rng):
    """Every NLS state, made or kept, carries the spectral tail of its q."""
    state = make_state(grid, smooth_complex(grid, rng), GEN)
    for st in run_nls(grid, state, GEN, default_dt(grid), 2):
        assert st.tail == spectral_tail(st.q) < 1e-8
