import warnings

import numpy as np
import pytest

from m3lab.convergence import fit_order
from m3lab.errors import DegenerateFieldError, FieldError, ParameterError, UnstableStepError
from m3lab.fields import Grid2, cross3, ddx, ddy, dot3, inv_dx, meanx, norm3
from m3lab.frames import FrameCoeffs, coeffs_from_frame, frame_dt, frame_from_spin
from m3lab.spin import (
    SpinParams,
    default_dt,
    init_modulated_helix,
    init_stereographic_lump,
    init_uniform,
    m0_reduce,
    m0_residual,
    make_state,
    run_spin,
    solve_u,
    solve_v,
    spin_rhs,
    step_rk4_spin,
)

from conftest import smooth_spin

PAR = SpinParams(c=0.3, d=1.0, l=0.2, model="M3")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ParameterError):
        SpinParams(c=0.1, d=1.0, model="M1")          # M1 pins (c, d, l)
    with pytest.raises(ParameterError):
        SpinParams(c=0.0, d=1.0, l=0.5, model="M1")
    with pytest.raises(ParameterError):
        SpinParams(c=0.2, d=0.5, model="M2")          # M2 needs d = 0
    with pytest.raises(ParameterError):
        SpinParams(c=0.0, d=0.0, model="M2")          # and c != 0
    with pytest.raises(ParameterError):
        SpinParams(c=0.5, d=-0.2, l=0.2, model="M3")  # 2cl + d = 0
    with pytest.raises(ParameterError):
        SpinParams(beta=2)
    with pytest.raises(ParameterError):
        SpinParams(model="M7")


# ---------------------------------------------------------------------------
# constraint solvers
# ---------------------------------------------------------------------------

def test_solve_u_constant_field(grid):
    u, mean = solve_u(grid, init_uniform(grid))
    assert np.max(np.abs(u)) == 0.0
    assert np.max(np.abs(mean)) == 0.0


def test_solve_u_x_only_field(grid):
    X, _ = grid.meshgrid()
    S = np.stack([np.sin(X), np.zeros_like(X), np.cos(X)], axis=-1)
    u, _ = solve_u(grid, S)
    assert np.max(np.abs(u)) < 1e-12


def test_solve_u_round_trip(grid, rng):
    S = smooth_spin(grid, rng)
    u, _ = solve_u(grid, S)
    integrand = -dot3(S, cross3(ddx(grid, S), ddy(grid, S)))
    res = ddx(grid, u) - (integrand - meanx(integrand))
    assert np.max(np.abs(res)) < 1e-9


def test_solve_v_trivial_cases(grid):
    v, _ = solve_v(grid, init_uniform(grid), PAR)
    assert np.max(np.abs(v)) == 0.0
    X, _ = grid.meshgrid()
    S = np.stack([np.sin(X), np.zeros_like(X), np.cos(X)], axis=-1)
    v, _ = solve_v(grid, S, PAR)
    assert np.max(np.abs(v)) < 1e-11


def test_solve_v_round_trip(grid, rng):
    S = smooth_spin(grid, rng)
    v, _ = solve_v(grid, S, PAR)
    Sx = ddx(grid, S)
    integrand = PAR.v_prefactor * ddy(grid, dot3(Sx, Sx))
    res = ddx(grid, v) - (integrand - meanx(integrand))
    assert np.max(np.abs(res)) < 1e-9


def test_solve_v_rejects_vanishing_denominator(grid):
    # M2 with tiny l slips past construction but 2cl + d is below tolerance
    par = SpinParams(c=0.5, d=0.0, l=1e-14, model="M2")
    with pytest.raises(ParameterError):
        solve_v(grid, init_uniform(grid), par)
    with pytest.raises(ParameterError):
        SpinParams(c=0.5, d=-0.2 + 1e-13, l=0.2, model="M3")


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_equilibrium(grid):
    assert np.max(np.abs(spin_rhs(grid, init_uniform(grid), PAR))) == 0.0


def test_rhs_y_independent_is_static(grid):
    X, _ = grid.meshgrid()
    S = np.stack([np.sin(X), np.zeros_like(X), np.cos(X)], axis=-1)
    assert np.max(np.abs(spin_rhs(grid, S, PAR))) < 1e-10


def test_rhs_tangency(grid, rng):
    S = smooth_spin(grid, rng)
    St = spin_rhs(grid, S, PAR)
    assert np.max(np.abs(dot3(S, St))) < 1e-9


def test_reduction_identity_m1(grid, rng):
    S = smooth_spin(grid, rng)
    r1 = spin_rhs(grid, S, SpinParams(c=0.0, d=1.0, l=0.0, model="M1"))
    r3 = spin_rhs(grid, S, SpinParams(c=0.0, d=1.0, l=0.0, model="M3"))
    assert np.array_equal(r1, r3)


def test_reduction_identity_m2(grid, rng):
    S = smooth_spin(grid, rng)
    r2 = spin_rhs(grid, S, SpinParams(c=0.4, d=0.0, l=0.3, model="M2"))
    r3 = spin_rhs(grid, S, SpinParams(c=0.4, d=0.0, l=0.3, model="M3"))
    assert np.array_equal(r2, r3)


def _vector_layout_rhs(grid, S, par, scheme):
    """The M-III rhs written on the interleaved (ny, nx, 3) layout."""
    Sx = ddx(grid, S, scheme)
    Sy = ddy(grid, S, scheme)
    u_x = -dot3(S, cross3(Sx, Sy))
    u = inv_dx(grid, u_x).field
    v = inv_dx(grid, par.v_prefactor * ddy(grid, dot3(Sx, Sx), scheme)).field
    return (ddx(grid, cross3(S, Sy), scheme) + u_x[..., None] * S + u[..., None] * Sx
            + par.drift * Sy - 4.0 * par.c * v[..., None] * Sx)


@pytest.mark.parametrize("shape", [(32, 32), (33, 33), (32, 40)])
@pytest.mark.parametrize("scheme", ["spectral", "central4"])
@pytest.mark.parametrize("par", [SpinParams(c=0.0, d=1.0, l=0.0, model="M1"),
                                 SpinParams(c=0.4, d=0.0, l=0.3, model="M2"),
                                 SpinParams(c=0.3, d=1.0, l=0.2, model="M3")],
                         ids=["M1", "M2", "M3"])
def test_planar_kernel_matches_vector_layout(rng, shape, scheme, par):
    g = Grid2(*shape)
    S = smooth_spin(g, rng)
    want = _vector_layout_rhs(g, S, par, scheme)
    got = spin_rhs(g, S, par, scheme)
    assert got.shape == S.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("scheme", ["spectral", "central4"])
def test_make_state_constraints_equal_solvers(rng, scheme):
    g = Grid2(32, 40)
    S = smooth_spin(g, rng)
    state = make_state(g, S, PAR, scheme=scheme)
    u, u_mean = solve_u(g, S, scheme)
    v, v_mean = solve_v(g, S, PAR, scheme)
    assert np.array_equal(state.u, u)
    assert np.array_equal(state.v, v)
    assert state.u_row_mean == np.max(np.abs(u_mean))
    assert state.v_row_mean == np.max(np.abs(v_mean))


@pytest.mark.parametrize("shape", [(32, 40), (136, 8)])
def test_state_row_means_are_those_of_the_integrands(rng, shape):
    """The reported row means are the x-means of the u and v integrands,
    formed here on the (ny, nx, 3) layout."""
    g = Grid2(*shape)
    S = smooth_spin(g, rng, amplitude=0.6)
    Sx, Sy = ddx(g, S), ddy(g, S)
    u_int = -dot3(S, cross3(Sx, Sy))
    v_int = PAR.v_prefactor * ddy(g, dot3(Sx, Sx))
    state = make_state(g, S, PAR)
    for got, integrand in ((state.u_row_mean, u_int), (state.v_row_mean, v_int)):
        want = np.max(np.abs(meanx(integrand)))
        assert want > 1e-6
        assert abs(got - want) <= 1e-12 * np.max(np.abs(integrand))


def test_state_row_means(grid):
    flat = make_state(grid, init_uniform(grid), PAR)
    assert flat.u_row_mean == flat.v_row_mean == 0.0
    lump = make_state(grid, init_stereographic_lump(grid), PAR)
    assert lump.u_row_mean > 1e-3
    assert lump.v_row_mean > 1e-3


def test_rhs_beta_minus_one_accepted(grid, rng):
    S = smooth_spin(grid, rng)
    par = SpinParams(c=0.3, d=1.0, l=0.2, beta=-1, model="M3")
    St = spin_rhs(grid, S, par)
    assert np.all(np.isfinite(St))


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def test_step_preserves_equilibrium(grid):
    state = make_state(grid, init_uniform(grid), PAR)
    S, _ = step_rk4_spin(grid, state.S, PAR, default_dt(grid))
    assert np.array_equal(S, state.S)


def test_step_dt_validation(grid):
    state = make_state(grid, init_uniform(grid), PAR)
    with pytest.raises(ParameterError):
        step_rk4_spin(grid, state.S, PAR, -1.0)
    with pytest.raises(ParameterError):
        step_rk4_spin(grid, state.S, PAR, 10.0 * grid.hx * grid.hy)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("comp", [0, 2])
def test_non_finite_spin_rejected(grid, rng, bad, comp):
    """A non-finite entry in any plane of S is a FieldError, raised before any warning."""
    S = smooth_spin(grid, rng)
    S[5, 7, comp] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldError):
            spin_rhs(grid, S, PAR)
        with pytest.raises(FieldError):
            step_rk4_spin(grid, S, PAR, default_dt(grid))

def test_step_rk4_order():
    g = Grid2(48, 48)
    par = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")
    S0 = init_modulated_helix(g, kappa=1, eps=0.1)

    def terminal(dt, n):
        S = make_state(g, S0, par).S
        for _ in range(n):
            S, _ = step_rk4_spin(g, S, par, dt)
        return S

    dt0, n0 = 0.8 * default_dt(g), 10
    S1 = terminal(dt0, n0)
    S2 = terminal(dt0 / 2, 2 * n0)
    S4 = terminal(dt0 / 4, 4 * n0)
    ratio = np.max(np.abs(S1 - S2)) / np.max(np.abs(S2 - S4))
    assert 13.0 < ratio < 19.0


def test_unit_norm_and_drift_over_run(grid):
    par = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")
    S = make_state(grid, init_modulated_helix(grid, kappa=1, eps=0.1), par).S
    worst = 0.0
    for _ in range(100):
        S, renorm = step_rk4_spin(grid, S, par, default_dt(grid))
        worst = max(worst, renorm)
        assert np.max(np.abs(norm3(S) - 1.0)) < 1e-9
    assert worst < 1e-6


def test_unstable_step_rejected():
    """Grid-scale oscillations blow through the renormalization bound."""
    g = Grid2(32, 32)
    par = SpinParams(c=0.25, d=1.0, l=0.0, model="M3")
    X, Y = g.meshgrid()
    kx, ky = g.nx // 2 - 1, g.ny // 2 - 1
    a = 0.8 * np.cos(kx * X) * np.cos(ky * Y)
    b = 0.8 * np.sin(kx * X) * np.sin(ky * Y)
    from m3lab.fields import normalized3
    S = make_state(g, normalized3(np.stack([a, b, np.ones_like(a)], axis=-1)), par).S
    with pytest.raises(UnstableStepError):
        for _ in range(5):
            S, _ = step_rk4_spin(g, S, par, default_dt(g))


def test_non_finite_correction_aborts_the_step(grid, rng, monkeypatch):
    """A rhs gone non-finite gives a NaN renormalization correction; the step
    aborts instead of returning a non-finite S."""
    import m3lab.spin as spin
    monkeypatch.setattr(spin, "_rhs", lambda grid, P, *args: np.full_like(P, np.nan))
    with pytest.raises(UnstableStepError, match="correction nan"):
        step_rk4_spin(grid, smooth_spin(grid, rng), PAR, default_dt(grid))


def test_run_spin_save_cadence(grid):
    par = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")
    state = make_state(grid, init_modulated_helix(grid), par)
    saved = run_spin(grid, state, par, default_dt(grid), 6, save_every=3)
    assert len(saved) == 3
    assert saved[1].t == pytest.approx(3 * default_dt(grid))


@pytest.mark.parametrize("shape", [(32, 40), (136, 8)])
def test_step_is_textbook_rk4_on_spin_rhs(rng, shape):
    """The step's shared buffers give the bits of RK4 written out on spin_rhs
    and renormalised by norm3."""
    g = Grid2(*shape)
    S = smooth_spin(g, rng)
    dt = default_dt(g)
    k1 = spin_rhs(g, S, PAR)
    k2 = spin_rhs(g, S + 0.5 * dt * k1, PAR)
    k3 = spin_rhs(g, S + 0.5 * dt * k2, PAR)
    k4 = spin_rhs(g, S + dt * k3, PAR)
    T = S + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    length = norm3(T)
    got, correction = step_rk4_spin(g, S, PAR, dt)
    assert np.array_equal(got, T / length[..., None])
    assert correction == np.max(np.abs(length - 1.0))


@pytest.mark.parametrize("shape", [(32, 40), (136, 8)])
def test_run_spin_reuses_its_workspace_exactly(rng, shape):
    """One workspace serves every stage of every step: the march gives the
    bits of fresh single steps, and its kept states own their arrays."""
    g = Grid2(*shape)
    par = SpinParams(c=0.3, d=1.0, l=0.2, model="M3")
    state = make_state(g, smooth_spin(g, rng), par)
    saved = run_spin(g, state, par, default_dt(g), 4, save_every=2)
    S = state.S
    for kept in saved[1:]:
        for _ in range(2):
            S, renorm = step_rk4_spin(g, S, par, default_dt(g))
        ref = make_state(g, S, par, kept.t, renorm=renorm)
        for name in ("S", "u", "v", "renorm", "u_row_mean", "v_row_mean"):
            assert np.array_equal(getattr(kept, name), getattr(ref, name)), name
    assert not np.shares_memory(saved[1].u, saved[2].u)
    assert not np.shares_memory(saved[1].v, saved[2].v)


# ---------------------------------------------------------------------------
# kinematic decomposition
# ---------------------------------------------------------------------------

def test_m0_constant_field_degenerate(grid):
    zero = np.zeros((grid.ny, grid.nx))
    coeffs = FrameCoeffs(k=zero, sigma=zero, tau=zero, m1=zero, m2=zero, m3=zero,
                         w1=zero, w2=zero, w3=zero)
    with pytest.raises(DegenerateFieldError, match=r"\|det\| < 1e-08"):
        m0_reduce(coeffs)
    with pytest.raises(DegenerateFieldError, match=r"\|det\| < 0\.5"):
        m0_reduce(coeffs, mask_tol=0.5)


def test_m0_matches_pointwise_solve(grid, rng):
    shape = (grid.ny, grid.nx)
    fields = {n: rng.normal(size=shape) for n in ("k", "sigma", "tau", "m1", "m2", "m3",
                                                  "w1", "w2", "w3")}
    coeffs = FrameCoeffs(**fields)
    m0 = m0_reduce(coeffs, mask_tol=0.05)
    keep = ~m0.mask
    # solve [b12 c12; b13 c13] (d2, d3) = (a12, a13) pointwise
    A = np.stack([np.stack([m0.b12, m0.c12], axis=-1),
                  np.stack([m0.b13, m0.c13], axis=-1)], axis=-2)
    rhs = np.stack([m0.a12, m0.a13], axis=-1)
    sol = np.linalg.solve(A[keep], rhs[keep][..., None])[..., 0]
    assert np.max(np.abs(sol[..., 0] - m0.d2[keep])) < 1e-9
    assert np.max(np.abs(sol[..., 1] - m0.d3[keep])) < 1e-9


def test_m0_proportional_rows_give_zero_d3(grid, rng):
    shape = (grid.ny, grid.nx)
    alpha = 0.7
    k = 1.0 + 0.2 * rng.normal(size=shape)
    sigma = 0.3 * rng.normal(size=shape)
    coeffs = FrameCoeffs(k=k, sigma=sigma, tau=rng.normal(size=shape),
                         m1=rng.normal(size=shape), m2=1.0 + 0.1 * rng.normal(size=shape),
                         m3=rng.normal(size=shape),
                         w1=np.zeros(shape), w2=alpha * sigma, w3=alpha * k)
    m0 = m0_reduce(coeffs, mask_tol=1e-6)
    keep = ~m0.mask
    assert np.max(np.abs(m0.d2[keep] - alpha)) < 1e-9
    assert np.max(np.abs(m0.d3[keep])) < 1e-9


def test_m0_residual_converges():
    """Kinematic decomposition residual, fixed degeneracy cut, delta ~ h."""
    par = SpinParams(c=0.25, d=1.0, l=0.0, model="M3")
    errs, hs = [], []
    for n in (32, 48, 64):
        g = Grid2(n, n)
        state = make_state(g, init_modulated_helix(g, kappa=1, eps=0.1), par)
        delta = 0.04 * 32 / n
        spd = max(1, int(np.ceil(delta / default_dt(g))))
        saved = run_spin(g, state, par, delta / spd, 2 * spd, save_every=spd)
        frames = [frame_from_spin(g, s.S) for s in saved]
        dF = frame_dt(frames[0], frames[2], 2 * delta)
        cmid = coeffs_from_frame(g, frames[1], dF_dt=dF)
        m0 = m0_reduce(cmid, mask_tol=0.01)
        errs.append(m0_residual(g, saved[1].S, par, m0))
        hs.append(g.hx)
    assert fit_order(hs, errs) > 1.7
