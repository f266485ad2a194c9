import tracemalloc
import warnings

import numpy as np
import pytest

from m3lab.convergence import fit_order
from m3lab.errors import DegenerateFieldError, FieldError, IdentificationError
from m3lab.fields import (
    Grid2,
    cross_planes,
    ddx,
    ddy,
    default_dt,
    dot3,
    max_norm,
    norm3,
)
from m3lab.frames import (
    DEGENERACY_TOL,
    FrameField,
    _fill_columns,
    coeffs_from_frame,
    frame_dt,
    frame_from_spin,
    m_coeffs_from_spin,
    mlxii_residual,
    transport_window,
    with_time_entries,
)
from m3lab.invariants import charge_density, charges
from m3lab.spin import (
    SpinParams,
    init_modulated_helix,
    init_stereographic_lump,
    init_uniform,
    make_state,
    run_spin,
)

from conftest import (commutator, d_matrix, frame_coeffs, matmul, normalized3, pointwise,
                      smooth_spin, so3_matrices)

PAR = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")


def helix_field(grid):
    X, _ = grid.meshgrid()
    return np.stack([np.sin(X), np.zeros_like(X), np.cos(X)])


def shifted_family(grid):
    """x-profile rigidly shifted by s(y): rich coefficients, u identically 0."""
    X, Y = grid.meshgrid()
    xs = X + 0.4 * np.sin(Y)
    theta = 0.5 * np.pi + 0.25 * np.sin(xs)
    psi = xs + 0.2 * np.cos(xs)
    return np.stack([np.sin(theta) * np.cos(psi),
                     np.sin(theta) * np.sin(psi),
                     np.cos(theta)])


# ---------------------------------------------------------------------------
# frame construction
# ---------------------------------------------------------------------------

def test_frame_hand_case(grid):
    """S = (sin x, 0, cos x): e2 = (cos x, 0, -sin x), e3 = e1 ^ e2 = (0, 1, 0)."""
    F = frame_from_spin(grid, helix_field(grid))
    X, _ = grid.meshgrid()
    e2_expect = np.stack([np.cos(X), np.zeros_like(X), -np.sin(X)])
    assert max_norm(F.E[1] - e2_expect) < 1e-12
    assert max_norm(F.E[2] - np.array([0.0, 1.0, 0.0])[:, None, None]) < 1e-12


def test_frame_orthonormal_and_right_handed(grid, rng):
    F = frame_from_spin(grid, smooth_spin(grid, rng))
    assert F.gram_deviation() < 1e-9
    assert max_norm(F.E[2] - cross_planes(F.E[0], F.E[1])) < 1e-12


def test_frame_rejects_uniform_field(grid):
    with pytest.raises(DegenerateFieldError):
        frame_from_spin(grid, init_uniform(grid))


def test_frame_mask_fill_is_deterministic(grid):
    S = init_stereographic_lump(grid)
    F1 = frame_from_spin(grid, S)
    F2 = frame_from_spin(grid, S)
    assert np.array_equal(F1.E[1], F2.E[1])
    assert 0.0 < F1.mask.mean() < 0.5
    assert F1.gram_deviation() < 1e-9  # fill is re-orthogonalized


def left_scan_loop(e2, mask):
    """The degenerate fill of a stack as a column-by-column loop: each masked
    point takes the value carried from the nearest unmasked column to its
    left, a row's leading masked columns the value of its last unmasked
    column; rows masked end to end are left as they are."""
    e2 = e2.copy()
    for row in np.where(mask.any(axis=1) & ~mask.all(axis=1))[0]:
        carry = e2[:, row, np.where(~mask[row])[0][-1]].copy()
        for i in range(mask.shape[1]):
            if mask[row, i]:
                e2[:, row, i] = carry
            else:
                carry = e2[:, row, i]
    return e2


def test_fill_columns_match_left_scan_loop(rng):
    """Random masks with dead rows and masked first columns: the vectorised
    source columns reproduce the loop, bit for bit."""
    for _ in range(50):
        ny, nx = rng.integers(1, 9), rng.integers(1, 12)
        mask = rng.random((ny, nx)) < rng.uniform(0.1, 0.9)
        mask[rng.random(ny) < 0.2] = True           # dead rows
        mask[rng.random(ny) < 0.5, 0] = True        # masked first column
        values = rng.normal(size=(3, ny, nx))
        cols = _fill_columns(mask)
        alive = ~mask.all(axis=1)
        assert np.all(cols[~alive] == -1)
        got = np.take_along_axis(values, cols[None], axis=2)
        assert np.array_equal(got[:, alive], left_scan_loop(values, mask)[:, alive])


def test_frame_fill_matches_left_scan_loop():
    """frame_from_spin on a field with masked rows end to end and a masked
    band through column 0 (so the fill wraps): off the dead rows, e2 is the
    loop's fill orthonormalized against e1, bit for bit."""
    g = Grid2(32, 32)
    X, Y = g.meshgrid()
    theta = np.sin(Y) * np.cos(X)
    S = np.stack([np.sin(theta), np.zeros_like(X), np.cos(theta)])
    tol = 0.3
    F = frame_from_spin(g, S, tol=tol)
    Sx = ddx(g, S)
    mask = norm3(Sx) < tol
    dead = mask.all(axis=1)
    assert np.array_equal(F.mask, mask)
    assert 0 < dead.sum() and mask[~dead, 0].all() and 0.2 < mask.mean() < 0.5
    e1 = F.E[0][:, ~dead]
    e2 = left_scan_loop(Sx / np.where(mask, 1.0, norm3(Sx)), mask)[:, ~dead]
    assert np.array_equal(F.E[1][:, ~dead], normalized3(e2 - dot3(e2, e1) * e1))
    assert F.gram_deviation() < 1e-12


# ---------------------------------------------------------------------------
# coefficients by projection
# ---------------------------------------------------------------------------

def test_coeffs_hand_case(grid):
    F = frame_from_spin(grid, helix_field(grid))
    co = coeffs_from_frame(grid, F)
    assert max_norm(co.k - 1.0) < 1e-12
    assert max_norm(co.tau) < 1e-12
    assert max_norm(co.sigma) < 1e-12


def test_frenet_classical_formulas(grid):
    """k = |S_x| and tau = S.(S_x ^ S_xx)/|S_x|^2 wherever the frame exists."""
    from m3lab.fields import dot3, norm3
    S = shifted_family(grid)
    F = frame_from_spin(grid, S)
    co = coeffs_from_frame(grid, F)
    Sx = ddx(grid, S)
    Sxx = ddx(grid, Sx)
    speed = norm3(Sx)
    keep = speed > 1e-6
    assert max_norm(co.k[keep] - speed[keep]) < 1e-9
    tau_classic = dot3(S, cross_planes(Sx, Sxx)) / speed**2
    assert max_norm(co.tau[keep] - tau_classic[keep]) < 1e-8


def test_coeffs_constant_frame_vanish(grid):
    ones = np.ones((grid.ny, grid.nx))
    F = FrameField(E=tuple(axis[:, None, None] * ones for axis in np.eye(3)))
    co = coeffs_from_frame(grid, F)
    for name in ("k", "sigma", "tau", "m1", "m2", "m3"):
        assert max_norm(getattr(co, name)) == 0.0


def test_transport_reconstruction(grid):
    """A E and B E rebuild the frame derivatives to scheme accuracy."""
    F = frame_from_spin(grid, shifted_family(grid))
    co = coeffs_from_frame(grid, F)
    A, B, _ = so3_matrices(co)
    E = pointwise(np.stack(F.E), 2)       # (ny, nx, 3(frame), 3(comp))
    Ex = pointwise(ddx(grid, np.stack(F.E)), 2)
    Ey = pointwise(ddy(grid, np.stack(F.E)), 2)
    assert max_norm(matmul(A, E) - Ex) < 1e-9
    assert max_norm(matmul(B, E) - Ey) < 1e-9


def test_time_projections(grid, rng):
    par = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")
    state = make_state(grid, init_modulated_helix(grid, eps=0.1), par)
    dt = default_dt(grid)
    saved = run_spin(grid, state, par, dt, 8, save_every=4)
    frames = [frame_from_spin(grid, s.S) for s in saved]
    dF = frame_dt(frames[0], frames[2], 2 * 4 * dt)
    co = coeffs_from_frame(grid, frames[1], dF_dt=dF)
    assert co.w is not None
    C = so3_matrices(co)[2]
    e3t = (frames[2].E[2] - frames[0].E[2]) / (2 * 4 * dt)
    Et = pointwise(np.stack(list(dF) + [e3t]), 2)
    E = pointwise(np.stack(frames[1].E), 2)
    # C E reproduces the frame velocity up to the finite-difference error
    assert max_norm(matmul(C, E) - Et) < 1e-4


# ---------------------------------------------------------------------------
# compatibility residuals
# ---------------------------------------------------------------------------

def test_mlxii_constant_frame_zero(grid):
    zero = np.zeros((grid.ny, grid.nx))
    co = frame_coeffs(k=zero, sigma=zero, tau=zero, m1=zero, m2=zero, m3=zero,
                      w1=zero, w2=zero, w3=zero)
    res = mlxii_residual(grid, co, coeffs_before=co, coeffs_after=co, dt2=0.1)
    assert res["xy"] == 0.0
    assert res["xt"] == 0.0
    assert res["yt"] == 0.0


def test_mlxii_static_identities(grid):
    F = frame_from_spin(grid, shifted_family(grid))
    co = coeffs_from_frame(grid, F)
    res = mlxii_residual(grid, co, frame=F)
    assert res["xy"] < 1e-9
    for name in ("identity_e1", "identity_e2", "identity_e3"):
        assert res[name] < 1e-9


def test_mlxii_sensitivity_to_corruption(grid):
    """Bumping m2 by 0.1 moves the xy residual by Theta(0.1)."""
    F = frame_from_spin(grid, shifted_family(grid))
    co = coeffs_from_frame(grid, F)
    corrupted = frame_coeffs(k=co.k, sigma=co.sigma, tau=co.tau,
                             m1=co.m1, m2=co.m2 + 0.1, m3=co.m3)
    base = mlxii_residual(grid, co)["xy"]
    bumped = mlxii_residual(grid, corrupted)["xy"]
    assert base < 1e-9
    assert 0.03 < bumped < 1.0


def matrix_residual(grid, co, scheme, coeffs_before=None, coeffs_after=None, dt2=None,
                    frame=None):
    """The residuals of mlxii_residual on so(3) matrix fields: (ny, nx, 3, 3)
    derivatives and einsum commutators, the identities read off by matrix index."""
    A, B, C = so3_matrices(co)
    D = d_matrix(ddy, grid, A, scheme) - d_matrix(ddx, grid, B, scheme)
    out = {"xy": max_norm(D + commutator(A, B))}
    if coeffs_before is not None:
        A0, B0, _ = so3_matrices(coeffs_before)
        A1, B1, _ = so3_matrices(coeffs_after)
        out["xt"] = max_norm((A1 - A0) / dt2 - d_matrix(ddx, grid, C, scheme)
                             + commutator(A, C))
        out["yt"] = max_norm((B1 - B0) / dt2 - d_matrix(ddy, grid, C, scheme)
                             + commutator(B, C))
    if frame is not None:
        lhs = (D[..., 1, 2], D[..., 2, 0], D[..., 0, 1])
        for j, (name, e) in enumerate(zip(("e1", "e2", "e3"), frame.E)):
            rhs = dot3(e, cross_planes(ddx(grid, e, scheme), ddy(grid, e, scheme)))
            out[f"identity_{name}"] = float(np.max(np.abs(lhs[j] - rhs)))
    return out


def slice_window(grid, S0, scheme):
    """Coefficients before, at (with time entries) and after the middle of three
    saved slices, the middle frame and the central-difference window 2 dt."""
    dt = 0.25 * default_dt(grid)
    saved = run_spin(grid, make_state(grid, S0, PAR, scheme=scheme), PAR, dt, 2, scheme=scheme)
    frames = [frame_from_spin(grid, s.S, scheme) for s in saved]
    before, mid, after = (coeffs_from_frame(grid, F, scheme) for F in frames)
    mid = with_time_entries(mid, frames[1], frame_dt(frames[0], frames[2], 2 * dt))
    return before, mid, after, frames[1], 2 * dt


@pytest.mark.parametrize("scheme", ["spectral", "central4"])
@pytest.mark.parametrize("init", [init_stereographic_lump, init_modulated_helix])
def test_mlxii_residual_equals_matrix_form(init, scheme):
    g = Grid2(32, 32)
    before, mid, after, F, dt2 = slice_window(g, init(g), scheme)
    for time in ({}, dict(coeffs_before=before, coeffs_after=after, dt2=dt2)):
        for frame in (None, F):
            got = mlxii_residual(g, mid, scheme, frame=frame, **time)
            assert got == matrix_residual(g, mid, scheme, frame=frame, **time)


def test_frame_vectors_differentiated_once(monkeypatch):
    """coeffs_from_frame takes e1, e2, e3 along x and y once each, one
    (3, ny, nx) stack per derivative; charges differentiates nothing, and
    mlxii_residual its coefficient stacks alone: the identity checks read
    the densities."""
    import m3lab.frames as frames
    g = Grid2(32, 32)
    before, mid, after, F, dt2 = slice_window(g, init_stereographic_lump(g), "spectral")
    calls = []
    real = frames._deriv

    def counting(f, scheme, h, axis, **kw):
        calls.append((f.shape, axis))
        return real(f, scheme, h, axis, **kw)

    monkeypatch.setattr(frames, "_deriv", counting)
    coeffs_from_frame(g, F)
    stack = (3, g.ny, g.nx)
    assert sorted(calls) == [(stack, -2)] * 3 + [(stack, -1)] * 3
    calls.clear()
    charges(g, mid)
    assert calls == []
    timed = dict(coeffs_before=before, coeffs_after=after, dt2=dt2)
    mlxii_residual(g, mid, **timed)
    assert sorted(calls) == [(stack, -2)] * 2 + [(stack, -1)] * 2   # a_y, w_y, b_x, w_x
    without = calls[:]
    calls.clear()
    mlxii_residual(g, mid, frame=F, **timed)
    assert calls == without


def test_residuals_and_charges_differentiate_no_matrix_field(monkeypatch):
    import m3lab.frames as frames
    g = Grid2(32, 32)
    before, mid, after, F, dt2 = slice_window(g, init_stereographic_lump(g), "spectral")
    ndims = []
    real = frames._deriv
    monkeypatch.setattr(frames, "_deriv",
                        lambda f, *a, **k: ndims.append(f.ndim) or real(f, *a, **k))
    mlxii_residual(g, mid, coeffs_before=before, coeffs_after=after, dt2=dt2, frame=F)
    charges(g, mid)
    assert ndims and max(ndims) <= 3


# ---------------------------------------------------------------------------
# identification from the dynamics
# ---------------------------------------------------------------------------

def test_identified_trivial_case(grid):
    """sigma = tau = 0 and y-independent S force m2 = m3 = 0."""
    S = helix_field(grid)
    state = make_state(grid, S, PAR)
    co = m_coeffs_from_spin(grid, S, state.u, state.v, PAR)
    assert max_norm(co.m2) < 1e-11
    assert max_norm(co.m3) < 1e-11


def test_identified_m2_matches_projection(grid, rng):
    """Frenet gauge: u_x / k equals the -e3.e1_y projection at scheme accuracy."""
    S = shifted_family(grid)
    state = make_state(grid, S, PAR)
    F = frame_from_spin(grid, S)
    proj = coeffs_from_frame(grid, F)
    co = m_coeffs_from_spin(grid, S, state.u, state.v, PAR, frame=F)
    assert max_norm(co.m2 - proj.m2) < 1e-9
    assert max_norm(co.m1 - proj.m1) < 1e-8
    assert max_norm(co.m3 - proj.m3) < 1e-8


def test_identified_shift_family_closed_form(grid):
    """For S(x + s(y)): m1 = s' tau, m3 = s' k, m2 = 0."""
    S = shifted_family(grid)
    state = make_state(grid, S, PAR)
    co = m_coeffs_from_spin(grid, S, state.u, state.v, PAR)
    _, Y = grid.meshgrid()
    sprime = 0.4 * np.cos(Y)
    assert max_norm(co.m1 - sprime * co.tau) < 1e-10
    assert max_norm(co.m3 - sprime * co.k) < 1e-10
    assert max_norm(co.m2) < 1e-12


def test_densities_required_where_read():
    """Identified coefficients carry no vector densities: charges and the
    identity checks name what is missing and where it comes from."""
    g = Grid2(32, 32)
    S = init_modulated_helix(g, kappa=1, eps=0.1)
    state = make_state(g, S, PAR)
    F = frame_from_spin(g, S)
    co = m_coeffs_from_spin(g, S, state.u, state.v, PAR, frame=F)
    assert co.densities is None
    for call in (lambda: charges(g, co), lambda: mlxii_residual(g, co, frame=F)):
        with pytest.raises(FieldError, match="no densities.*coeffs_from_frame"):
            call()
    assert "identity_e1" not in mlxii_residual(g, co)


def rotated_frame(grid, S, amplitude):
    """Rotate the Frenet normal plane by a smooth angle: sigma != 0 gauge."""
    F = frame_from_spin(grid, S)
    X, Y = grid.meshgrid()
    phi = amplitude * (1.0 + 0.3 * np.sin(X) * np.cos(Y))
    e1, e2, e3 = F.E
    return FrameField(E=(e1, np.cos(phi) * e2 + np.sin(phi) * e3,
                         -np.sin(phi) * e2 + np.cos(phi) * e3), mask=F.mask)


def test_identified_fixed_point_sigma_nonzero(grid):
    S = init_modulated_helix(grid, kappa=1, eps=0.1)
    state = make_state(grid, S, PAR)
    F = rotated_frame(grid, S, 0.5)
    proj = coeffs_from_frame(grid, F)
    assert max_norm(proj.sigma) > 0.1     # genuinely exercises the coupled path
    co = m_coeffs_from_spin(grid, S, state.u, state.v, PAR, frame=F)
    assert max_norm(co.m2 - proj.m2) < 5e-4
    assert max_norm(co.m3 - proj.m3) < 5e-4


def test_identified_fixed_point_divergence_reported(grid):
    S = init_modulated_helix(grid, kappa=1, eps=0.1)
    state = make_state(grid, S, PAR)
    F = rotated_frame(grid, S, 1.5)
    with pytest.raises(IdentificationError):
        m_coeffs_from_spin(grid, S, state.u, state.v, PAR, frame=F)


def test_identified_xy_compatibility_converges():
    """Identified coefficients satisfy the xy compatibility under refinement."""
    errs, hs = [], []
    for n in (24, 32, 48):
        g = Grid2(n, n)
        S = shifted_family(g)
        state = make_state(g, S, PAR)
        co = m_coeffs_from_spin(g, S, state.u, state.v, PAR, scheme="central4",
                                frame=frame_from_spin(g, S, "central4"))
        A, B, _ = so3_matrices(co)
        res = (d_matrix(ddy, g, A, "central4") - d_matrix(ddx, g, B, "central4")
               + commutator(A, B))
        errs.append(max_norm(res))
        hs.append(g.hx)
    assert fit_order(hs, errs) > 1.7


# ---------------------------------------------------------------------------
# the stack layer against the vector formulas, written out
# ---------------------------------------------------------------------------

def ref_fallback_normal(e1):
    use_x = np.abs(e1[0]) < 0.9
    axis = np.stack([np.where(use_x, 1.0, 0.0), np.where(use_x, 0.0, 1.0), np.zeros_like(e1[0])])
    return normalized3(axis - dot3(axis, e1) * e1)


def ref_frame(grid, S, scheme, tol=DEGENERACY_TOL):
    """e1, e2, e3 and the mask of frame_from_spin, written out on whole stacks."""
    e1 = normalized3(S)
    Sx = ddx(grid, S, scheme)
    k = norm3(Sx)
    mask = k < tol
    e2 = Sx / np.where(mask, 1.0, k)
    if mask.any():
        e2 = left_scan_loop(e2, mask)
        dead = mask.all(axis=1)
        e2[:, dead] = ref_fallback_normal(e1[:, dead])
    e2 = e2 - dot3(e2, e1) * e1
    small = norm3(e2) < 1e-12
    if small.any():
        e2 = np.where(small, ref_fallback_normal(e1), e2)
    e2 = normalized3(e2)
    return e1, e2, cross_planes(e1, e2), mask


def ref_coeffs(grid, e1, e2, e3, scheme):
    """The projections of coeffs_from_frame and its densities."""
    (e1x, e1y), (e2x, e2y), (e3x, e3y) = ((ddx(grid, e, scheme), ddy(grid, e, scheme))
                                          for e in (e1, e2, e3))
    return dict(k=dot3(e2, e1x), sigma=-dot3(e3, e1x), tau=dot3(e3, e2x),
                m1=dot3(e3, e2y), m2=-dot3(e3, e1y), m3=dot3(e2, e1y),
                densities=[dot3(e, cross_planes(ex, ey))
                           for e, ex, ey in ((e1, e1x, e1y), (e2, e2x, e2y), (e3, e3x, e3y))])


def ref_bracket(a, b):
    return tuple(np.cross(np.stack(b), np.stack(a), axis=0))


def ref_mlxii(grid, mid, before, after, dt2, scheme):
    """mlxii_residual of (ny, nx) coefficient planes, each differentiated alone."""
    a, b, w = ([mid[n] for n in names] for names in (("tau", "sigma", "k"), ("m1", "m2", "m3"),
                                                      ("w1", "w2", "w3")))
    D = [ddy(grid, ai, scheme) - ddx(grid, bi, scheme) for ai, bi in zip(a, b)]
    out = {"xy": max_norm([d + c for d, c in zip(D, ref_bracket(a, b))])}
    for key, deriv, x, names in (("xt", ddx, a, ("tau", "sigma", "k")),
                                 ("yt", ddy, b, ("m1", "m2", "m3"))):
        out[key] = max_norm([(after[n] - before[n]) / dt2 - deriv(grid, wi, scheme) + c
                             for n, wi, c in zip(names, w, ref_bracket(x, w))])
    for name, d, dens in zip(("e1", "e2", "e3"), D, mid["densities"]):
        out[f"identity_{name}"] = max_norm(d - dens)
    return out


def dead_row_field(grid):
    X, Y = grid.meshgrid()
    theta = np.sin(Y) * np.cos(X)
    return np.stack([np.sin(theta), np.zeros_like(X), np.cos(theta)])


def small_e2_field(grid):
    """Row 0 is (0, 0, 2 + sin x): S_x is exactly parallel to S there, so e2
    vanishes once projected off e1 and takes the fallback axis (1, 0, 0)."""
    X, Y = grid.meshgrid()
    a = np.sin(Y) ** 2
    return np.stack([a * np.sin(X), a * np.cos(X), 2.0 + np.sin(X)])


def turned(S, angle):
    """S turned about the third axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([c * S[0] - s * S[1], s * S[0] + c * S[1], S[2]])


STACK_CASES = {
    "lump-spectral-32": (32, "spectral", init_stereographic_lump, {}),
    "lump-spectral-256": (256, "spectral", init_stereographic_lump, {}),   # above DENSE_MAX_N
    "lump-central4-32": (32, "central4", init_stereographic_lump, {}),
    "dead-rows": (32, "spectral", dead_row_field, {"tol": 0.3}),
    "small-e2-spectral": (32, "spectral", small_e2_field, {}),
    "small-e2-central4": (32, "central4", small_e2_field, {}),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stack_layer_is_the_field_formulas_bitwise(case):
    """Frames, coefficients, densities, time entries and the residual dict
    equal the vector formulas written out bit for bit, call by call, with and
    without a workspace per slice, and in the three-slice window of
    transport_window."""
    import m3lab.frames as frames
    n, scheme, make, kw = STACK_CASES[case]
    g = Grid2(n, n)
    slices = [turned(make(g), 0.01 * i) for i in range(3)]
    dt2 = 0.02
    want = [ref_frame(g, S, scheme, **kw) for S in slices]
    want_co = [ref_coeffs(g, *r[:3], scheme) for r in want]
    e1t, e2t = ((after - before) / dt2 for before, after in zip(want[0][:2], want[2][:2]))
    e2, e3 = want[1][1:3]
    want_co[1].update(w1=dot3(e3, e2t), w2=-dot3(e3, e1t), w3=dot3(e2, e1t))
    want_res = ref_mlxii(g, want_co[1], want_co[0], want_co[2], dt2, scheme)
    if make is small_e2_field:
        assert np.all(want[1][1][:, 0] == np.array([[1.0], [0.0], [0.0]]))

    def check_frame(f, ref):
        for got, r in zip(f.E + (f.mask,), ref):
            assert np.array_equal(got, r)

    def check_coeffs(c, ref):
        for name in ref:
            if name != "densities" or c.densities is not None:
                assert np.array_equal(getattr(c, name), ref[name]), name

    for works in ([None] * 3, [frames._Workspace((n, n)) for _ in range(3)]):
        F = [frame_from_spin(g, S, scheme, work=wk, **kw) for S, wk in zip(slices, works)]
        co = [coeffs_from_frame(g, f, scheme, work=wk) for f, wk in zip(F, works)]
        for f, ref in zip(F, want):
            check_frame(f, ref)
        # the identities read the densities, which a workspace's time entries overwrite
        got = mlxii_residual(g, co[1], scheme, frame=F[1], work=works[1])
        mid = with_time_entries(co[1], F[1], frame_dt(F[0], F[2], dt2), works[1])
        assert (mid.densities is None) == (works[1] is not None)
        for c, ref in zip(co[:1] + [mid] + co[2:], want_co):
            check_coeffs(c, ref)
        got.update(mlxii_residual(g, mid, scheme, coeffs_before=co[0], coeffs_after=co[2],
                                  dt2=dt2, work=works[1]))
        assert got == want_res
        if works[1] is None:
            assert mlxii_residual(g, mid, scheme, coeffs_before=co[0], coeffs_after=co[2],
                                  dt2=dt2, frame=F[1]) == want_res

    if kw:  # transport_window builds frames at the default tolerance
        return
    seen = []

    def on_frame(idx, f):
        seen.append(idx)
        check_frame(f, want[idx])

    def read_spin(idx, out):
        out[...] = slices[idx]

    windowed = list(transport_window(g, [0.0, 0.01, dt2], read_spin, on_frame, scheme))
    assert seen == [0, 1, 2] and [idx for idx, _, _ in windowed] == [1]
    (_, mid, got), = windowed
    check_coeffs(mid, want_co[1])
    assert got == want_res


@pytest.mark.parametrize("n", [128, 256])
def test_frame_layer_in_its_workspace_allocates_less_than_a_stack(n):
    """A warm frame and projection in a workspace allocate less than one
    (3, ny, nx) stack, on the lump (mask, wrap fill, dead rows), on the
    matrix path and on the rfft path.  So does a frame of the S read into
    the workspace's e3 stack, which frame_from_spin copies onto itself: it
    has the bits of a frame of a copy of S."""
    import m3lab.frames as frames
    g = Grid2(n, n)
    S = init_stereographic_lump(g)
    ws = frames._Workspace((g.ny, g.nx))
    coeffs_from_frame(g, frame_from_spin(g, S, work=ws), work=ws)

    def traced(call):
        tracemalloc.start()
        try:
            out = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ws.X.nbytes
        return out

    traced(lambda: coeffs_from_frame(g, frame_from_spin(g, S, work=ws), work=ws))
    want = frame_from_spin(g, S.copy())
    ws.e3[...] = S
    F = traced(lambda: frame_from_spin(g, ws.e3, work=ws))
    for got, ref in zip(F.E + (F.mask,), want.E + (want.mask,)):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [128, 256])
def test_residuals_of_coefficients_built_elsewhere_allocate_less_than_a_stack(n):
    """mlxii_residual reads the a, b and w stacks of coefficients built
    outside any workspace (m_coeffs_from_spin) where they lie: in a warm
    workspace, the residuals with their time entries allocate less than one
    (3, ny, nx) stack, on the matrix path and on the rfft path."""
    import m3lab.frames as frames
    g = Grid2(n, n)
    dt = default_dt(g)
    saved = run_spin(g, make_state(g, init_modulated_helix(g, eps=0.1), PAR), PAR, dt, 2)
    before, mid, after = (m_coeffs_from_spin(g, s.S, s.u, s.v, PAR) for s in saved)
    ws = frames._Workspace((g.ny, g.nx))
    kw = dict(coeffs_before=before, coeffs_after=after, dt2=2 * dt, work=ws)
    want = mlxii_residual(g, mid, **kw)
    tracemalloc.start()
    try:
        got = mlxii_residual(g, mid, **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(got) == ["xt", "xy", "yt"] and got == want
    assert peak < ws.X.nbytes


COEFF_NAMES = ("k", "sigma", "tau", "m1", "m2", "m3")


@pytest.mark.parametrize("n", [32, 256])
def test_coeffs_of_a_frame_outside_the_workspace_are_bitwise(n):
    """coeffs_from_frame reads a frame's stacks where they lie: contiguous
    copies, stack views of (ny, nx, 3) arrays and strided stack views of a
    frame_from_spin frame give the coefficients and densities of that frame
    in its workspace bit for bit, on the matrix path (n = 32) and the rfft
    path (n = 256).  A NaN in one vector of such a frame is rejected
    (FieldError)."""
    import m3lab.frames as frames
    g = Grid2(n, n)
    ws = frames._Workspace((n, n))
    F = frame_from_spin(g, init_stereographic_lump(g), work=ws)
    assert np.count_nonzero(F.mask)  # the fill runs
    co = coeffs_from_frame(g, F, work=ws)
    want = [np.copy(getattr(co, name)) for name in COEFF_NAMES] + [np.copy(d) for d in
                                                                   co.densities]
    copies = FrameField(E=tuple(np.array(e) for e in F.E), mask=F.mask)
    interleaved = FrameField(E=tuple(np.moveaxis(np.array(pointwise(e)), -1, 0) for e in F.E),
                             mask=F.mask)
    big = np.zeros((3, 4, n, 2 * n))
    for dst, e in zip(big, F.E):
        dst[:3, :, ::2] = e
    views = FrameField(E=tuple(b[:3, :, ::2] for b in big), mask=F.mask)
    for frame in (copies, interleaved, views):
        for work in (None, frames._Workspace((n, n))):
            got = coeffs_from_frame(g, frame, work=work)
            for a, b in zip([getattr(got, name) for name in COEFF_NAMES] + list(got.densities),
                            want):
                assert np.array_equal(a, b)
    big[1, 2, 3, 12] = np.nan
    for work in (None, frames._Workspace((n, n))):
        with pytest.raises(FieldError):
            coeffs_from_frame(g, views, work=work)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("with_work", [False, True])
def test_frame_entries_reject_non_finite_input(bad, with_work):
    """frame_from_spin, coeffs_from_frame, mlxii_residual, charge_density and
    m_coeffs_from_spin reject a non-finite input (FieldError), with no
    warning on the way."""
    import m3lab.frames as frames
    g = Grid2(32, 32)
    S = init_modulated_helix(g, eps=0.1)
    state = make_state(g, S, PAR)
    ws = frames._Workspace((g.ny, g.nx)) if with_work else None
    F = frame_from_spin(g, S)
    co = coeffs_from_frame(g, F)
    bad_S, bad_e2, bad_m2 = S.copy(), F.E[1].copy(), co.m2.copy()
    bad_S[1, 4, 5] = bad_e2[0, 6, 7] = bad_m2[3, 3] = bad
    bad_F = FrameField(E=(F.E[0], bad_e2, F.E[2]), mask=F.mask)
    bad_co = frame_coeffs(k=co.k, sigma=co.sigma, tau=co.tau, m1=co.m1, m2=bad_m2, m3=co.m3,
                          densities=co.densities)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: frame_from_spin(g, bad_S, work=ws),
                     lambda: coeffs_from_frame(g, bad_F, work=ws),
                     lambda: mlxii_residual(g, bad_co, frame=F, work=ws),
                     lambda: charge_density(g, bad_S),
                     lambda: m_coeffs_from_spin(g, bad_S, state.u, state.v, PAR)):
            with pytest.raises(FieldError):
                call()
