import tracemalloc
import warnings

import numpy as np
import pytest

from m3lab import fields, spin
from m3lab.convergence import fit_order
from m3lab.errors import (
    DegenerateFieldError,
    FieldError,
    NumericalError,
    ParameterError,
    UnstableStepError,
)
from m3lab.fields import (
    STEP_SAFETY,
    TWO_PI,
    Grid2,
    cross_planes,
    ddx,
    ddy,
    default_dt,
    dot3,
    inv_dx,
    max_dt,
    meanx,
    norm3,
    rk4,
    spectral_tail,
)
from m3lab.frames import coeffs_from_frame, frame_dt, frame_from_spin
from m3lab.spin import (
    SpinParams,
    SpinState,
    init_modulated_helix,
    init_stereographic_lump,
    init_uniform,
    m0_reduce,
    m0_residual,
    make_state,
    march_spin,
    run_spin,
    solve_u,
    solve_v,
    spin_rhs,
    stable_dt,
    step_rk4_spin,
)

from conftest import frame_coeffs, smooth_spin, spin_step

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
    # 2cl + d is checked at construction for every model, M2 (d = 0) included
    with pytest.raises(ParameterError):
        SpinParams(c=0.5, d=0.0, l=0.0, model="M2")
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
    S = np.stack([np.sin(X), np.zeros_like(X), np.cos(X)])
    u, _ = solve_u(grid, S)
    assert np.max(np.abs(u)) < 1e-12


def test_solve_u_round_trip(grid, rng):
    S = smooth_spin(grid, rng)
    u, _ = solve_u(grid, S)
    integrand = -dot3(S, cross_planes(ddx(grid, S), ddy(grid, S)))
    res = ddx(grid, u) - (integrand - meanx(integrand))
    assert np.max(np.abs(res)) < 1e-9


def test_solve_v_trivial_cases(grid):
    v, _ = solve_v(grid, init_uniform(grid), PAR)
    assert np.max(np.abs(v)) == 0.0
    X, _ = grid.meshgrid()
    S = np.stack([np.sin(X), np.zeros_like(X), np.cos(X)])
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
    # M2 with tiny l: |2cl + d| < DENOM_TOL is refused when SpinParams is
    # built, so solve_v never divides by it
    with pytest.raises(ParameterError):
        solve_v(grid, init_uniform(grid),
                SpinParams(c=0.5, d=0.0, l=1e-14, model="M2"))
    with pytest.raises(ParameterError):
        SpinParams(c=0.5, d=-0.2 + 1e-13, l=0.2, model="M3")


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_equilibrium(grid):
    assert np.max(np.abs(spin_rhs(grid, init_uniform(grid), PAR))) == 0.0


def test_rhs_y_independent_is_static(grid):
    X, _ = grid.meshgrid()
    S = np.stack([np.sin(X), np.zeros_like(X), np.cos(X)])
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
    """The M-III rhs written out on the vector stack with the public
    operators, the (u S)_x term expanded as the kernel expands it."""
    Sx = ddx(grid, S, scheme)
    Sy = ddy(grid, S, scheme)
    u_x = -dot3(S, cross_planes(Sx, Sy))
    u = inv_dx(grid, u_x).field
    v = inv_dx(grid, par.v_prefactor * ddy(grid, dot3(Sx, Sx), scheme)).field
    return (ddx(grid, cross_planes(S, Sy), scheme) + u_x * S + u * Sx
            + par.drift * Sy - 4.0 * par.c * v * Sx)


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
    formed here with the public operators."""
    g = Grid2(*shape)
    S = smooth_spin(g, rng, amplitude=0.6)
    Sx, Sy = ddx(g, S), ddy(g, S)
    u_int = -dot3(S, cross_planes(Sx, Sy))
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


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def test_step_preserves_equilibrium(grid):
    state = make_state(grid, init_uniform(grid), PAR)
    S, _ = spin_step(grid, state.S, PAR, default_dt(grid))
    assert np.array_equal(S, state.S)


def test_step_dt_validation(grid):
    state = make_state(grid, init_uniform(grid), PAR)
    with pytest.raises(ParameterError):
        spin_step(grid, state.S, PAR, -1.0)
    with pytest.raises(ParameterError):
        spin_step(grid, state.S, PAR, 10.0 * grid.hx * grid.hy)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("comp", [0, 2])
def test_non_finite_spin_rejected(grid, rng, bad, comp):
    """A non-finite entry in any plane of S is a FieldError, raised before any warning."""
    S = smooth_spin(grid, rng)
    S[comp, 5, 7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldError):
            spin_rhs(grid, S, PAR)
        with pytest.raises(FieldError):
            spin_step(grid, S, PAR, default_dt(grid))


def test_step_rk4_order():
    g = Grid2(48, 48)
    par = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")
    S0 = init_modulated_helix(g, kappa=1, eps=0.1)

    def terminal(dt, n):
        ws = spin._Workspace(g, make_state(g, S0, par).S)
        for _ in range(n):
            step_rk4_spin(g, ws, par, dt)
        return ws.P

    dt0, n0 = 0.8 * default_dt(g), 10
    S1 = terminal(dt0, n0)
    S2 = terminal(dt0 / 2, 2 * n0)
    S4 = terminal(dt0 / 4, 4 * n0)
    ratio = np.max(np.abs(S1 - S2)) / np.max(np.abs(S2 - S4))
    assert 13.0 < ratio < 19.0


def test_unit_norm_and_drift_over_run(grid):
    par = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")
    ws = spin._Workspace(grid, make_state(grid, init_modulated_helix(grid, kappa=1, eps=0.1),
                                          par).S)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, step_rk4_spin(grid, ws, par, default_dt(grid)))
        assert np.max(np.abs(norm3(ws.P) - 1.0)) < 1e-9
    assert worst < 1e-6


def test_unstable_step_rejected():
    """Grid-scale oscillations blow through the renormalization bound."""
    g = Grid2(32, 32)
    par = SpinParams(c=0.25, d=1.0, l=0.0, model="M3")
    X, Y = g.meshgrid()
    kx, ky = g.nx // 2 - 1, g.ny // 2 - 1
    a = 0.8 * np.cos(kx * X) * np.cos(ky * Y)
    b = 0.8 * np.sin(kx * X) * np.sin(ky * Y)
    from conftest import normalized3
    ws = spin._Workspace(g, make_state(g, normalized3(np.stack([a, b, np.ones_like(a)])), par).S)
    with pytest.raises(UnstableStepError):
        for _ in range(5):
            step_rk4_spin(g, ws, par, default_dt(g))


def test_non_finite_correction_aborts_the_step(grid, rng, monkeypatch):
    """A rhs gone non-finite gives a NaN renormalization correction; the step
    aborts instead of returning a non-finite S."""
    monkeypatch.setattr(spin, "_rhs", lambda grid, P, *args: np.full_like(P, np.nan))
    with pytest.raises(UnstableStepError, match="correction nan"):
        spin_step(grid, smooth_spin(grid, rng), PAR, default_dt(grid))


def test_non_finite_stage_is_a_numerical_abort(grid, rng, monkeypatch):
    """A stage rate gone non-finite is not checked in the stage; the
    renormalisation is, and the step aborts with no warning on the way."""
    real_rhs = spin._rhs
    stages = []

    def rhs(*args):
        stages.append(1)
        rate = real_rhs(*args)
        return np.full_like(rate, np.nan) if len(stages) == 2 else rate

    monkeypatch.setattr(spin, "_rhs", rhs)
    S = smooth_spin(grid, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="correction nan"):
            spin_step(grid, S, PAR, default_dt(grid))
    assert len(stages) == 4


def test_step_given_its_workspace_allocates_less_than_a_stack(rng):
    """A step writes every stage, the weighted sum and the renormalised S
    into the arrays of the workspace it advances: after warm-up, what it
    allocates at its peak (numpy's iterator buffers of at most 8192
    elements) stays below one (3, ny, nx) stack."""
    g = Grid2(128, 128)
    ws = spin._Workspace(g, smooth_spin(g, rng))
    step_rk4_spin(g, ws, PAR, default_dt(g))
    tracemalloc.start()
    try:
        step_rk4_spin(g, ws, PAR, default_dt(g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ws.P.nbytes


def test_march_checks_its_initial_S_once(grid, rng, monkeypatch):
    """Each step takes the previous step's result, the march's own stack,
    unchecked, and so does each kept state: a march of n steps checks its
    initial S once, where it loads it, and gives the bits of single steps
    each loaded afresh."""
    calls = []
    real = spin.check_field
    monkeypatch.setattr(spin, "check_field", lambda grid, f, name, lead: calls.append(name) or
                        real(grid, f, name, lead))
    state = make_state(grid, smooth_spin(grid, rng), PAR)
    calls.clear()
    n_steps, save_every = 6, 3
    saved = run_spin(grid, state, PAR, default_dt(grid), n_steps, save_every)
    assert calls == ["S"]
    S = state.S
    for _ in range(n_steps):
        S, _ = spin_step(grid, S, PAR, default_dt(grid))
    assert np.array_equal(saved[-1].S, S)


def test_loading_checks_every_S(grid, rng):
    """Every S that reaches a step is loaded first, and loading rejects a
    non-finite one, before any warning: a march's initial state, a state
    made from S, a workspace loaded for single steps."""
    state = make_state(grid, smooth_spin(grid, rng), PAR)
    bad = state.S.copy()
    bad[1, 3, 4] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: march_spin(grid, SpinState(bad, state.u, state.v), PAR,
                                        default_dt(grid), 2),
                     lambda: make_state(grid, bad, PAR),
                     lambda: spin._Workspace(grid, bad)):
            with pytest.raises(FieldError):
                call()


@pytest.mark.parametrize("shape", ["field", "two-planes", "other-grid"])
def test_vector_field_off_the_stack_layout_is_refused(grid, rng, shape):
    """Every entry that takes a vector field takes a (3, ny, nx) stack: a
    (ny, nx, 3) field, a stack of other than three planes or one on another
    grid is refused with FieldError, not differentiated along its component
    axis."""
    from m3lab.frames import charge_density, frame_from_spin
    from m3lab.lax import build_lax_spin, split_trace
    S = smooth_spin(grid, rng)
    bad = {"field": np.ascontiguousarray(np.moveaxis(S, 0, -1)), "two-planes": S[:2],
           "other-grid": smooth_spin(Grid2(grid.nx, 2 * grid.ny), rng)}[shape]
    state = make_state(grid, S, PAR)
    for call in (lambda: make_state(grid, bad, PAR), lambda: spin_rhs(grid, bad, PAR),
                 lambda: solve_u(grid, bad), lambda: solve_v(grid, bad, PAR),
                 lambda: march_spin(grid, SpinState(bad, state.u, state.v), PAR,
                                    default_dt(grid), 1),
                 lambda: frame_from_spin(grid, bad), lambda: charge_density(grid, bad),
                 lambda: build_lax_spin(grid, bad, state.u, state.v, PAR, 0.4),
                 lambda: split_trace(grid, bad, PAR, [0.4])):
        with pytest.raises(FieldError, match=f"not \\(3, {grid.ny}, {grid.nx}\\)"):
            call()
    if shape == "field":
        with pytest.raises(FieldError, match="not"):
            ddx(grid, bad)


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
    got, correction = spin_step(g, S, PAR, dt)
    assert np.array_equal(got, T / length)
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
            S, renorm = spin_step(g, S, par, default_dt(g))
        ref = make_state(g, S, par, kept.t)
        for name in ("S", "u", "v", "u_row_mean", "v_row_mean"):
            assert np.array_equal(getattr(kept, name), getattr(ref, name)), name
        assert kept.renorm == renorm
    assert not np.shares_memory(saved[1].u, saved[2].u)
    assert not np.shares_memory(saved[1].v, saved[2].v)


# ---------------------------------------------------------------------------
# kinematic decomposition
# ---------------------------------------------------------------------------

def test_m0_constant_field_degenerate(grid):
    zero = np.zeros((grid.ny, grid.nx))
    coeffs = frame_coeffs(k=zero, sigma=zero, tau=zero, m1=zero, m2=zero, m3=zero,
                          w1=zero, w2=zero, w3=zero)
    with pytest.raises(DegenerateFieldError, match=r"\|det\| < 1e-08"):
        m0_reduce(coeffs)
    with pytest.raises(DegenerateFieldError, match=r"\|det\| < 0\.5"):
        m0_reduce(coeffs, mask_tol=0.5)


def test_m0_matches_pointwise_solve(grid, rng):
    shape = (grid.ny, grid.nx)
    fields = {n: rng.normal(size=shape) for n in ("k", "sigma", "tau", "m1", "m2", "m3",
                                                  "w1", "w2", "w3")}
    coeffs = frame_coeffs(**fields)
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
    coeffs = frame_coeffs(k=k, sigma=sigma, tau=rng.normal(size=shape),
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


def test_renormalisation_lengths_are_norm3_of_the_field(rng, monkeypatch):
    """The step takes |S| of its RK4 result with norm3 on the (3, ny, nx)
    stack, into its workspace: bit for bit the einsum norm of the contiguous
    (ny, nx, 3) field that the step's lengths were first pinned to."""
    results = []
    real = spin.norm3

    def recording(P, out, tmp):
        results.append(P.copy())
        return real(P, out, tmp)

    monkeypatch.setattr(spin, "norm3", recording)
    g = Grid2(40, 32)
    ws = spin._Workspace(g, smooth_spin(g, rng))
    step_rk4_spin(g, ws, PAR, default_dt(g))
    (T,) = results
    field = np.ascontiguousarray(np.moveaxis(T, 0, -1))
    assert np.array_equal(ws.length, np.sqrt(np.einsum("...k,...k->...", field, field)))
    assert np.array_equal(ws.P, T / ws.length)


# ---------------------------------------------------------------------------
# the step rule: stable_dt
# ---------------------------------------------------------------------------

RULE_PARAMS = [SpinParams(c=0.3, d=1.0, l=0.0), SpinParams(c=0.3, d=1.0, l=2.0),
               SpinParams(c=0.25, d=0.0, l=0.4, model="M2"), SpinParams()]


@pytest.mark.parametrize("par", RULE_PARAMS, ids=["M3", "M3-drift", "M2", "M1-slice"])
def test_stable_dt_stays_below_the_ceiling(rng, par):
    """rho >= kx ky, so stable_dt <= STEP_SAFETY max_dt <= max_dt for every
    field, on the grid's wavenumbers and on the 2/3 band's: a uniform field
    with no drift reads STEP_SAFETY max_dt itself, and helices, the lump and
    random smooth fields read less."""
    for n, band in ((n, band) for n in (16, 32, 48) for band in (False, True)):
        g = Grid2(n, n)
        ceiling = max_dt(g, band=band)
        states = [make_state(g, S, par) for S in
                  [init_modulated_helix(g, 1), init_modulated_helix(g, 3),
                   init_stereographic_lump(g)] + [smooth_spin(g, rng) for _ in range(3)]]
        for state in states:
            assert 0.0 < stable_dt(g, par, state, band) < STEP_SAFETY * ceiling
        uniform = stable_dt(g, par, make_state(g, init_uniform(g), par), band)
        assert uniform <= STEP_SAFETY * ceiling < ceiling
        assert (uniform == STEP_SAFETY * ceiling) == (par.drift == 0.0)


def _rule_case(name, n):
    """(grid, par, S0) of a named case of the step rule's no-abort test."""
    g = Grid2(n, n)
    if name.startswith("helix"):
        return g, SpinParams(c=0.3, d=1.0, l=0.0), init_modulated_helix(g, int(name[-1]))
    if name == "lump":
        return g, SpinParams(c=0.25, d=1.0, l=0.0), init_stereographic_lump(g, 0.45)
    return g, SpinParams(c=0.3, d=1.0, l=2.0), init_modulated_helix(g, 1)  # large drift


RULE_CASES = ([(f"helix-k{k}", n) for k in (1, 2, 3, 4) for n in (32, 64, 128)]
              + [("lump", 64), ("lump", 128), ("drift", 32), ("drift", 64)])


@pytest.mark.parametrize("name, n", RULE_CASES, ids=[f"{a}-{b}" for a, b in RULE_CASES])
def test_the_rule_step_marches_without_abort(name, n):
    """A march at the step the rule chose, on the full grid and (at the
    band's own rule step) in the 2/3 band, takes 12 steps with no abort and
    a renormalisation correction below a tenth of RENORM_LIMIT, and
    (n <= 64) is in RK4's asymptotic regime: its distance to a march at
    half the step is over 8x that of the half step to the quarter step (16x
    at fourth order; an unstable step is not convergent at all).  (On the
    full grid the helix at kappa >= 2 and n >= 64 does abort later, at any
    step, from a mode that the semi-discrete flow itself grows from
    rounding; the band holds it.)"""
    g, par, S0 = _rule_case(name, n)
    state = make_state(g, S0, par)
    for band in (False, True):
        dt = stable_dt(g, par, state, band)
        *_, last = march_spin(g, state, par, dt, 12, 12, band=band)
        assert last.renorm < 0.1 * spin.RENORM_LIMIT
        if n <= 64:
            *_, half = march_spin(g, state, par, dt / 2, 24, 24, band=band)
            *_, quarter = march_spin(g, state, par, dt / 4, 48, 48, band=band)
            assert np.max(np.abs(last.S - half.S)) > 8.0 * np.max(np.abs(half.S - quarter.S))


UNRESOLVED = {"lump-0.5": lambda g: init_stereographic_lump(g, 0.5),
              "lump-0.45": lambda g: init_stereographic_lump(g, 0.45),
              "helix-k7": lambda g: init_modulated_helix(g, 7, 0.08)}


@pytest.mark.parametrize("name", sorted(UNRESOLVED))
def test_under_resolved_first_step_is_an_accuracy_limit(name):
    """The 16^2 fields whose first step aborts at 0.2 hx hy hold a spectral
    tail of 3.8e-2 or more, and their first-step correction is linear in dt
    from 0.2 down to 0.05 hx hy: dt max |S . S_t|, the rate the grid cannot
    keep tangent to an unresolved S.  An unstable step would grow with dt
    much faster; no step rule rescues these fields."""
    g = Grid2(16, 16)
    par = SpinParams(c=0.3, d=1.0, l=0.0)
    S = UNRESOLVED[name](g)
    assert spectral_tail(S) >= 3.8e-2
    rate = spin_rhs(g, S, par)
    normal = float(np.max(np.abs(dot3(S, rate))))
    corrections = []
    for factor in (0.2, 0.1, 0.05):
        dt = factor * g.hx * g.hy
        T = rk4(lambda P: spin_rhs(g, P, par), S, dt)
        corrections.append(float(np.max(np.abs(norm3(T) - 1.0))))
    assert corrections[0] > spin.RENORM_LIMIT
    for big, small in zip(corrections, corrections[1:]):
        assert 1.9 < big / small < 2.1
    dt = 0.05 * g.hx * g.hy
    assert corrections[-1] == pytest.approx(dt * normal, rel=0.1)


def test_abort_names_the_tail_of_the_field_it_stepped_from(monkeypatch):
    """The renormalisation abort names the spectral tail of the S the step
    started from, which the step computes on an abort alone."""
    g = Grid2(16, 16)
    par = SpinParams(c=0.3, d=1.0, l=0.0)
    S, helix = init_stereographic_lump(g, 0.5), init_modulated_helix(g)
    dt, helix_dt = (stable_dt(g, par, make_state(g, f, par)) for f in (S, helix))
    calls = []
    monkeypatch.setattr(spin, "spectral_tail", lambda f: calls.append(1) or spectral_tail(f))
    ws = spin._Workspace(g, helix)
    for _ in range(4):
        step_rk4_spin(g, ws, par, helix_dt)
    assert calls == []
    with pytest.raises(UnstableStepError, match=f"spectral tail of S {spectral_tail(S):.3e}"):
        spin_step(g, S, par, dt)
    assert calls == [1]


def _cone_wave(grid, par, theta, k1, k2, t, rate=False):
    """The cone wave S = (sin th cos phi, sin th sin phi, cos th), phi = k1 x
    + k2 y - w t, w = k1 k2 cos th - 2l(cl+d) k2: an exact solution of
    M1/M2/M3 with u = v = 0.  With rate, its S_t instead."""
    X, Y = grid.meshgrid()
    w = k1 * k2 * np.cos(theta) - par.drift * k2
    phi = k1 * X + k2 * Y - w * t
    if rate:
        return w * np.sin(theta) * np.stack([np.sin(phi), -np.cos(phi), np.zeros_like(phi)])
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.full_like(phi, np.cos(theta))])


@pytest.mark.parametrize("par", [SpinParams(c=0.3, d=1.0, l=0.0), SpinParams()],
                         ids=["M3", "M1-slice"])
def test_cone_wave_holds_its_closed_form_at_the_rule_step(par):
    """At theta = 0.7, k = (2, 1) and n = 64 the rate is the wave's S_t to
    rounding, and the march at stable_dt (cut to whole steps) to t = 0.1
    holds the closed form to 1e-10."""
    g = Grid2(64, 64)
    S0 = _cone_wave(g, par, 0.7, 2, 1, 0.0)
    assert np.max(np.abs(spin_rhs(g, S0, par) - _cone_wave(g, par, 0.7, 2, 1, 0.0, True))) < 1e-12
    state = make_state(g, S0, par)
    steps = int(np.ceil(0.1 / stable_dt(g, par, state)))
    *_, last = march_spin(g, state, par, 0.1 / steps, steps, steps)
    assert np.max(np.abs(last.S - _cone_wave(g, par, 0.7, 2, 1, last.t))) <= 1e-10


def test_state_records_the_tail_and_slopes_of_its_S(rng):
    """Every state, made or kept, carries its S's spectral tail and max |S_x|,
    max |S_y|, taken in the workspace of the constraint solve; stable_dt
    reads the slopes, u and v of a state and nothing else."""
    g = Grid2(32, 40)
    par = SpinParams(c=0.3, d=1.0, l=0.2)
    for st in run_spin(g, make_state(g, smooth_spin(g, rng), par), par, 1e-3, 2):
        assert st.tail == spectral_tail(st.S)
        assert st.slopes == tuple(float(np.max(norm3(d(g, st.S)))) for d in (ddx, ddy))
        bare = SpinState(st.S + np.nan, st.u, st.v, slopes=st.slopes)
        assert stable_dt(g, par, bare) == stable_dt(g, par, st)


# ---------------------------------------------------------------------------
# the 2/3 band: the kernel of equiv-check's ladder
# ---------------------------------------------------------------------------

M3_CONE = SpinParams(c=0.3, d=1.0, l=0.0)


def _noisy_cone_march(n, band):
    """The M3 cone wave (theta = 0.7, k = (2, 1)) on n^2, seeded with 1e-10
    noise, marched to t = 1 at the rule's step of its kernel, cut to whole
    steps: (grid, its state at t = 1)."""
    g = Grid2(n, n)
    S0 = _cone_wave(g, M3_CONE, 0.7, 2, 1, 0.0)
    S0 = S0 + 1e-10 * np.random.default_rng(n).normal(size=S0.shape)
    state = make_state(g, S0 / norm3(S0), M3_CONE)
    steps = int(np.ceil(1.0 / stable_dt(g, M3_CONE, state, band)))
    *_, last = march_spin(g, state, M3_CONE, 1.0 / steps, steps, steps, band=band)
    return g, last


@pytest.mark.parametrize("n", [64, 128])
def test_band_holds_the_noisy_cone_wave_to_t1(n):
    """At the band's rule step, in the band, the seeded cone wave holds its
    closed form to 1e-9 up to t = 1 (3.9e-10 at n = 64, 3.6e-10 at 128)."""
    g, last = _noisy_cone_march(n, True)
    assert last.t == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(last.S - _cone_wave(g, M3_CONE, 0.7, 2, 1, last.t))) <= 1e-9


@pytest.mark.parametrize("n", [64, 128])
def test_full_grid_kernel_grows_the_noisy_cone_wave_to_an_abort(n):
    """Witness: the full-grid kernel, at its rule's step, grows the seeded
    cone wave's aliased modes from the noise and aborts before t = 0.2
    (from t = 0.126 at n = 64, 0.033 at 128)."""
    with pytest.raises(UnstableStepError, match=r"step from t = 0\.[01]\d*:"):
        _noisy_cone_march(n, False)


def test_band_ceiling_is_exact():
    """The band keeps the mode (nx//3, ny//3) and rotates a small perturbation
    of a uniform field at it at the rate kx ky of max_dt(grid, band=True):
    RK4 grows it over 40 steps just past that ceiling and not at it."""
    g = Grid2(32, 32)
    X, Y = g.meshgrid()
    phase = (TWO_PI / g.lx * (g.nx // 3)) * X + (TWO_PI / g.ly * (g.ny // 3)) * Y
    eps = 1e-6
    y0 = np.stack([eps * np.cos(phase), eps * np.sin(phase),
                   np.full_like(phase, np.sqrt(1.0 - eps * eps))])
    ws = spin._Workspace(g, y0, band=True)

    for factor, grows in ((1.01, True), (1.0, False)):
        dt, y = factor * max_dt(g, band=True), y0
        for _ in range(40):
            y = rk4(lambda S: spin._rhs(g, S, M3_CONE, "spectral", ws), y, dt)
        growth = float(np.max(np.abs(y[:2]))) / eps
        assert (growth > 2.0) == grows, (factor, growth)
        assert growth > 0.5


@pytest.mark.parametrize("ny, nx", [(48, 40), (27, 33), (32, 32)])
def test_band_limit_keeps_exactly_the_band(rng, ny, nx):
    """band_limit equals zeroing a full fft2 past |kx| <= nx//3, |ky| <= ny//3
    to rounding, in place too; its result holds no energy past the band
    (spectral_tail reads rounding), and a second projection changes nothing."""
    f = rng.normal(size=(3, ny, nx))
    spectrum = np.empty((3, ny, nx // 2 + 1), complex)
    kx, ky = np.fft.fftfreq(nx, 1.0 / nx), np.fft.fftfreq(ny, 1.0 / ny)
    keep = (np.abs(kx) <= nx // 3) & (np.abs(ky)[:, None] <= ny // 3)
    want = np.fft.ifft2(np.fft.fft2(f) * keep).real
    got = fields.band_limit(f, np.empty_like(f), spectrum)
    assert np.max(np.abs(got - want)) < 1e-12
    assert spectral_tail(got) < 1e-12 < spectral_tail(f)
    again = f.copy()
    fields.band_limit(again, again, spectrum)
    assert np.array_equal(again, got)
    assert np.max(np.abs(fields.band_limit(got, np.empty_like(f), spectrum) - got)) < 1e-12
