"""Orthonormal moving frames over the grid and their transport coefficients.

A frame (e1, e2, e3) attached to a spin field S carries the transport system

    E_x = A E,   E_y = B E,   E_t = C E,       E = (e1; e2; e3)

with A = so3(a), B = so3(b), C = so3(w) of the coefficient triples

    a = (tau, sigma, k),  b = (m1, m2, m3),  w = (w1, w2, w3),

    so3(v) = [[0, v3, -v2], [-v3, 0, v1], [v2, -v1, 0]].

Cross-derivative compatibility of the transport system,

    A_y - B_x + [A, B] = 0,
    A_t - C_x + [A, C] = 0,
    B_t - C_y + [B, C] = 0,

is the executable statement checked by mlxii_residual.  Each matrix entry is
0 or +- one triple component, and [so3(a), so3(b)] = so3(bracket(a, b)),
so the residuals are evaluated on the triples (scalar derivatives and the
bracket, no (..., 3, 3) array) and have exactly the max-norms of the
matrix forms.  The identities such as
tau_y - m1_x = e1.(e1x ^ e1y) read their left-hand side off the same a_y - b_x
and their right-hand side off the densities that coeffs_from_frame keeps.

The Frenet gauge (sigma = 0, k >= 0) is the default frame construction:
e1 = S, e2 = S_x/|S_x|, e3 = e1 ^ e2, with a deterministic left-scan fill
where |S_x| degenerates.

FrameField holds e1, e2, e3 as the (3, ny, nx) stacks E the layer
computes them into; the layer reads the stacks where they lie, whatever
their strides, takes one derivative per stack and axis, and sums its dot
products with fields.dot3, in EINSUM_ORDER.  FrameCoeffs holds a, b, w
and the densities as the stacks the layer computes them into, and every
check reads them there; k .. w3 name their planes.  coeffs_from_frame is
the one projection of a frame onto a, b and the densities: the `frame` and
`charges` commands, the curvature map of equivalence and
m_coeffs_from_spin all read their coefficients off it.
Every array it writes can come from a _Workspace, buffers only, that a
command makes once: allocating per call, as measured at n = 256, is slower
and faults ten times as often in `charges`.  A workspace's e3 stack is
frame_from_spin's copy of S, so a command reads each spin slice's S
straight into it (fields.read_mfld1 into a stack), never the whole slice.
transport_window, which the `frame` command runs, keeps three slices live
in three workspaces, each with its own e1, e2, a and b, the arrays the
window reads again.  The second and third share the first's e3, densities
D and scratch, so each slice's space residuals are taken as soon as its
coefficients exist, while D holds its densities; e3 is formed again where
the time entries read it, the time entries are written over D, and the
time residuals overwrite the oldest slice, which nothing reads after them.
Each public entry checks its input once, for finite values and, a spin
field, for its (3, ny, nx) shape (FieldError), and runs the unchecked
fields._deriv.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateFieldError, FieldError, IdentificationError
from .fields import (
    EINSUM_ORDER,
    SPECTRAL,
    Grid2,
    _deriv,
    check_field,
    check_finite,
    cross_planes,
    ddx,
    ddy,
    dot3,
    inv_dx,
    meanx,
    norm3,
)

DEGENERACY_TOL = 1e-8    # |S_x| below this marks a degenerate point
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 50


def _triple(e, a, b, out: np.ndarray, p: np.ndarray, tmp) -> np.ndarray:
    """e . (a ^ b) of three stacks into out, with the bits of dot3(e,
    cross_planes(a, b)): each component of a ^ b is formed in the plane p
    as cross_planes forms it, and summed in EINSUM_ORDER.  (cross_planes
    would fill a stack, Z, that the rfft path never touches: more memory.)"""
    for n, m in enumerate(EINSUM_ORDER):
        i, j = (m + 1) % 3, (m + 2) % 3
        np.multiply(a[i], b[j], out=p)
        p -= np.multiply(a[j], b[i], out=tmp)
        if n == 0:
            np.multiply(e[m], p, out=out)
        else:
            out += np.multiply(e[m], p, out=p)
    return out


def _max_abs(M: np.ndarray) -> float:
    """max |M|, M (scratch) overwritten by |M|."""
    return float(np.max(np.abs(M, out=M)))


@dataclass(frozen=True)
class FrameField:
    """The frame as its (3, ny, nx) stacks E = (e1, e2, e3)."""
    E: tuple
    mask: np.ndarray = None  # True where the construction was degenerate

    def gram_deviation(self) -> float:
        """Max deviation of the pointwise Gram matrix from the identity."""
        dev = 0.0
        for i, a in enumerate(self.E):
            for j, b in enumerate(self.E):
                target = 1.0 if i == j else 0.0
                dev = max(dev, float(np.max(np.abs(dot3(a, b) - target))))
        return dev


@dataclass(frozen=True)
class FrameCoeffs:
    """The coefficient triples as (3, ny, nx) stacks, each plane also read
    by name: a = (tau, sigma, k), b = (m1, m2, m3), w = (w1, w2, w3)."""
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray = None          # the time entries
    densities: np.ndarray = None  # (e_j.(e_jx ^ e_jy) for j = 1, 2, 3), from coeffs_from_frame

    tau, sigma, k = (property(lambda self, i=i: self.a[i]) for i in range(3))
    m1, m2, m3 = (property(lambda self, i=i: self.b[i]) for i in range(3))
    w1, w2, w3 = (property(lambda self, i=i: self.w[i]) for i in range(3))


class _Workspace:
    """The arrays the frame layer writes, for (ny, nx) planes of one shape.

    e1, e2, e3 (E) and mask take the frame frame_from_spin builds; its e3
    stack is first frame_from_spin's copy of S, so a reader can fill it in
    place.  A, B and D take the a, b and density stacks coeffs_from_frame
    projects; D then takes the time entries, which with_time_entries writes
    over the densities.  Scratch: X, Y and Z (the shifted lanes of the
    matrix path) for derivatives and residuals; planes L and tmp, with L
    also the fill's index plane (its bytes as int64).  Each workspace has
    its own e1, e2, A and B, and takes every other array from `shared`,
    another workspace, when it is given (transport_window's three slices).
    """

    def __init__(self, shape, shared=None):
        self.shape = shape
        self.e1, self.e2, self.A, self.B = (np.empty((3,) + shape) for _ in range(4))
        if shared is None:
            self.e3, self.D, self.X, self.Y, self.Z = (np.empty((3,) + shape) for _ in range(5))
            self.L, self.tmp = np.empty(shape), np.empty(shape)
            self.mask = np.empty(shape, bool)
        else:
            for name in ("e3", "D", "X", "Y", "Z", "L", "tmp", "mask"):
                setattr(self, name, getattr(shared, name))
        self.E = (self.e1, self.e2, self.e3)


def _densities(coeffs: FrameCoeffs) -> tuple:
    if coeffs.densities is None:
        raise FieldError("these coefficients carry no densities e_j.(e_jx ^ e_jy); "
                         "coeffs_from_frame supplies them")
    return coeffs.densities


def _minus_along(v: np.ndarray, e: np.ndarray, d: np.ndarray, tmp) -> None:
    """v - d e for stacks v, e and a plane d, plane by plane, into v."""
    for vi, ei in zip(v, e):
        vi -= np.multiply(d, ei, out=tmp)


def _fallback_normal(e1: np.ndarray, out: np.ndarray, d: np.ndarray, tmp) -> np.ndarray:
    """Deterministic unit vector orthogonal to e1 (for fully degenerate rows),
    as a stack into out; the planes d and tmp are scratch."""
    use_x = np.abs(e1[0]) < 0.9
    out[0], out[1], out[2] = use_x, ~use_x, 0.0
    _minus_along(out, e1, dot3(out, e1, d, tmp), tmp)
    out /= norm3(out, d, tmp)
    return out


def _fill_columns(mask: np.ndarray, out=None) -> np.ndarray:
    """Nearest unmasked column at or left of each point, wrapping (-1 on dead
    rows); into out, an index plane, when it is given."""
    cols = np.empty(mask.shape, dtype=np.intp) if out is None else out
    cols[...] = np.arange(mask.shape[1])
    np.copyto(cols, -1, where=mask)
    np.maximum.accumulate(cols, axis=1, out=cols)
    np.copyto(cols, cols[:, -1:].copy(), where=cols < 0)
    return cols


def frame_from_spin(grid: Grid2, S: np.ndarray, scheme=SPECTRAL,
                    tol: float = DEGENERACY_TOL, work=None) -> FrameField:
    """Frenet-gauge frame: e1 = S, e2 = S_x/|S_x|, e3 = e1 ^ e2.

    Points with |S_x| < tol are masked; e2 there is copied from the nearest
    non-degenerate x-neighbour to the left (periodic wrap, deterministic),
    then re-orthogonalized against the local e1.  Rows degenerate end to end
    fall back to a fixed axis.  More than half the grid degenerate is fatal.
    A non-finite S, or one that is no (3, ny, nx) stack on grid, is
    rejected (FieldError).  The frame is built in the E and mask of a
    _Workspace, work when it is given, and S is first copied into its e3
    stack: a copy of that stack onto itself is free.
    """
    ws = work or _Workspace((grid.ny, grid.nx))
    (e1, e2, e3), mask, L, tmp = ws.E, ws.mask, ws.L, ws.tmp
    P = e3  # S, until e3 is formed
    P[...] = check_field(grid, S, "S", (3,))
    np.divide(P, norm3(P, L, tmp), out=e1)
    k = norm3(_deriv(P, scheme, grid.hx, -1, out=e2, work=P), L, tmp)  # e2 holds S_x
    np.less(k, tol, out=mask)
    n_bad = int(np.count_nonzero(mask))
    if n_bad > 0.5 * mask.size:
        raise DegenerateFieldError(
            f"degenerate spin field: |S_x| < {tol} at {n_bad} of {mask.size} points")

    np.copyto(k, 1.0, where=mask)
    e2 /= k
    if n_bad:
        flat = _fill_columns(mask, L.view(np.int64))  # over k, which is read
        flat += np.arange(0, mask.size, grid.nx)[:, None]   # dead rows: any index
        for src, dst in zip(e2, ws.X):
            np.take(src, flat, out=dst, mode="wrap")
        e2[...] = ws.X
        row_dead = mask.all(axis=1)
        if np.any(row_dead):
            np.copyto(e2, _fallback_normal(e1, ws.X, L, tmp), where=row_dead[:, None])

    # orthogonalize against e1 (removes both fill misalignment and the tiny
    # discrete S.S_x residue), then complete the right-handed triad
    _minus_along(e2, e1, dot3(e2, e1, L, tmp), tmp)
    small = norm3(e2, L, tmp) < 1e-12
    if np.any(small):
        np.copyto(e2, _fallback_normal(e1, ws.X, L, tmp), where=small)
    e2 /= norm3(e2, L, tmp)
    cross_planes(e1, e2, e3, tmp)
    return FrameField(E=ws.E, mask=mask)


def frame_dt(before: FrameField, after: FrameField, dt2: float, out=None):
    """Central-difference velocities (e1t, e2t) of e1 and e2 over a 2*dt
    window, (3, ny, nx) stacks: the time entries (with_time_entries) read
    no e3t.  Written into out, two stacks, when it is given; these may be
    before's e1 and e2, which are then overwritten."""
    T = np.empty((2,) + np.shape(before.E[0])) if out is None else out
    for t, a, b in zip(T, after.E, before.E):
        np.subtract(a, b, out=t)
        t /= dt2
    return T


def _density(grid: Grid2, e: np.ndarray, scheme, ws: _Workspace, out: np.ndarray) -> np.ndarray:
    """e . (e_x ^ e_y) of the stack e, unchecked, into out."""
    ex = _deriv(e, scheme, grid.hx, -1, out=ws.X, work=ws.Z)
    ey = _deriv(e, scheme, grid.hy, -2, out=ws.Y, work=ws.Z)
    return _triple(e, ex, ey, out, ws.L, ws.tmp)


def coeffs_from_frame(grid: Grid2, F: FrameField, scheme=SPECTRAL,
                      dF_dt=None, work=None) -> FrameCoeffs:
    """Transport coefficients by projection, and the densities e_j.(e_jx ^ e_jy).

    k = e2.e1_x, sigma = -e3.e1_x, tau = e3.e2_x,
    m1 = e3.e2_y, m2 = -e3.e1_y, m3 = e2.e1_y,
    and, when the velocities (e1_t, e2_t) of frame_dt are supplied,
    w1 = e3.e2_t, w2 = -e3.e1_t, w3 = e2.e1_t.
    Each e_j is differentiated once along x and y, as one stack, and the
    density of e_j is formed from those two derivatives.  A non-finite
    frame is rejected (FieldError).  Given a _Workspace, the coefficients
    are written into its A, B and D; the frame is read where it lies, built
    in that workspace or not.  The time entries go into arrays of their
    own, so the densities stay.
    """
    ws = work or _Workspace(np.shape(F.E[0])[1:])
    e1, e2, e3 = (check_finite(e, "frame") for e in F.E)
    (tau, sigma, k), (m1, m2, m3), X, Y, Z, tmp = ws.A, ws.B, ws.X, ws.Y, ws.Z, ws.tmp
    dot3(e2, _deriv(e1, scheme, grid.hx, -1, out=X, work=Z), k, tmp)
    np.negative(dot3(e3, X, sigma, tmp), out=sigma)
    _deriv(e1, scheme, grid.hy, -2, out=Y, work=Z)
    np.negative(dot3(e3, Y, m2, tmp), out=m2)
    dot3(e2, Y, m3, tmp)
    _triple(e1, X, Y, ws.D[0], ws.L, tmp)
    dot3(e3, _deriv(e2, scheme, grid.hx, -1, out=X, work=Z), tau, tmp)
    dot3(e3, _deriv(e2, scheme, grid.hy, -2, out=Y, work=Z), m1, tmp)
    _triple(e2, X, Y, ws.D[1], ws.L, tmp)
    _density(grid, e3, scheme, ws, ws.D[2])
    coeffs = FrameCoeffs(a=ws.A, b=ws.B, densities=ws.D)
    return coeffs if dF_dt is None else with_time_entries(coeffs, F, dF_dt)


def with_time_entries(coeffs: FrameCoeffs, F: FrameField, dF_dt, work=None) -> FrameCoeffs:
    """coeffs of frame F completed by w1 = e3.e2_t, w2 = -e3.e1_t, w3 = e2.e1_t
    of the stacks dF_dt = (e1_t, e2_t).  Given a _Workspace, they are written
    into its D, over the densities, and the result carries none."""
    e1t, e2t = dF_dt
    _, e2, e3 = F.E
    w, tmp = (np.empty(np.shape(e3)), None) if work is None else (work.D, work.tmp)
    w1, w2, w3 = w
    dot3(e3, e2t, w1, tmp)
    np.negative(dot3(e3, e1t, w2, tmp), out=w2)
    dot3(e2, e1t, w3, tmp)
    return replace(coeffs, w=w, densities=None if work is not None else coeffs.densities)


# ---------------------------------------------------------------------------
# Transport matrices and compatibility residuals
# ---------------------------------------------------------------------------

def bracket(a, b, out=None, tmp=None) -> np.ndarray:
    """Triple c = (a3 b2 - a2 b3, a1 b3 - a3 b1, a2 b1 - a1 b2).

    so3(c) is the commutator of so3(a) and so3(b) (module docstring); c is
    the cross product b ^ a, written into out (three planes) with tmp when
    these are given, as cross_planes does.
    """
    return cross_planes(b, a, out, tmp)


def charge_density(grid: Grid2, e: np.ndarray, scheme=SPECTRAL) -> np.ndarray:
    """e . (e_x ^ e_y) for a unit vector field e; a non-finite e, or one
    that is no (3, ny, nx) stack on grid, is rejected (FieldError)."""
    ws, e = _Workspace((grid.ny, grid.nx)), check_field(grid, e, "e", (3,))
    return _density(grid, e, scheme, ws, np.empty(ws.shape))


def _time_residuals(grid: Grid2, coeffs: FrameCoeffs, coeffs_before: FrameCoeffs,
                    coeffs_after: FrameCoeffs, dt2: float, scheme, ws: _Workspace,
                    R: np.ndarray) -> dict:
    """The max-norms of A_t - C_x + [A,C] and B_t - C_y + [B,C], each
    formed in the stack R, which may be the a stack of coeffs_before."""
    w = check_finite(coeffs.w, "coefficients")
    Y, tmp = ws.Y, ws.tmp
    out = {}
    for key, h, axis, x, x0, x1 in (
            ("xt", grid.hx, -1, coeffs.a, coeffs_before.a, coeffs_after.a),
            ("yt", grid.hy, -2, coeffs.b, coeffs_before.b, coeffs_after.b)):
        np.subtract(x1, x0, out=R)
        R /= dt2
        R -= _deriv(w, scheme, h, axis, out=Y, work=ws.Z)
        out[key] = _max_abs(np.add(R, bracket(x, w, Y, tmp), out=R))
    return out


def mlxii_residual(grid: Grid2, coeffs: FrameCoeffs, scheme=SPECTRAL,
                   coeffs_before: FrameCoeffs = None, coeffs_after: FrameCoeffs = None,
                   dt2: float = None, frame: FrameField = None, work=None) -> dict:
    """Compatibility residuals of the frame transport system.

    Always reports the max-norm of A_y - B_x + [A,B].  With coefficient
    snapshots at t -/+ dt supplied, also reports A_t - C_x + [A,C] and
    B_t - C_y + [B,C] (time derivatives by central difference).  With
    `frame`, the frame these coefficients were projected from, adds the
    pointwise cross-checks against the triple products e_j.(e_jx ^ e_jy),
    read from coeffs.densities.

    Evaluated on the coefficient triples, e.g. a_y - b_x + bracket(a, b);
    each max-norm equals that of the matrix form.  The a, b and w stacks
    are each checked once (FieldError) and differentiated once per axis,
    where they lie; no input is written.  Given a _Workspace, every array
    is its scratch.  transport_window takes the space residuals here as
    each slice is built, and the time residuals in the arrays of its oldest
    slice.
    """
    timed = coeffs_before is not None and coeffs_after is not None
    if timed and coeffs.w is None:
        raise IdentificationError("time residuals need w1..w3 in the mid coefficients")
    a, b = (check_finite(x, "coefficients") for x in (coeffs.a, coeffs.b))
    ws = work or _Workspace(a.shape[1:])
    X, Y, tmp = ws.X, ws.Y, ws.tmp
    D = _deriv(a, scheme, grid.hy, -2, out=X, work=ws.Z)
    D -= _deriv(b, scheme, grid.hx, -1, out=Y, work=ws.Z)
    out = {"xy": _max_abs(np.add(D, bracket(a, b, Y, tmp), out=Y))}

    if frame is not None:
        # D against the frame triple products:
        #   tau_y - m1_x   = e1.(e1x ^ e1y)
        #   sigma_y - m2_x = e2.(e2x ^ e2y)
        #   k_y - m3_x     = e3.(e3x ^ e3y)
        for name, d, dens in zip(("e1", "e2", "e3"), D, _densities(coeffs)):
            out[f"identity_{name}"] = _max_abs(np.subtract(d, dens, out=tmp))
    if timed:  # D is read: X takes the time derivatives
        out.update(_time_residuals(grid, coeffs, coeffs_before, coeffs_after, dt2, scheme, ws, X))
    return out


def transport_window(grid: Grid2, times, read_spin, on_frame, scheme=SPECTRAL):
    """The transport coefficients, with their time entries, and the
    compatibility residuals of every interior slice of a spin run.

    read_spin(idx, out) reads the spin field S at times[idx] into out, the
    window's shared e3 stack, which frame_from_spin takes as its copy of S;
    on_frame(idx, F) is called with the frame F built from it.
    Yields (idx, coeffs, residuals) for idx = 1 .. len(times) - 2: the bits
    of frame_from_spin, coeffs_from_frame, frame_dt, with_time_entries and
    mlxii_residual(..., coeffs_before, coeffs_after, dt2, frame) on the
    slices idx - 1, idx, idx + 1.  Three slices are live at a time, in
    three workspaces (module docstring) whose arrays F and coeffs show:
    F holds during on_frame (its e3 is shared), coeffs until the next
    slice, and coeffs carry no densities: the shared D holds the densities
    of each slice until its space residuals are taken, then the time
    entries of the middle slice, which the next slice's densities overwrite.
    """
    first = _Workspace((grid.ny, grid.nx))
    slots = [first, _Workspace(first.shape, first), _Workspace(first.shape, first)]
    last = len(times) - 1
    live = []  # (frame, coefficients, space residuals) of the last three slices
    for idx in range(len(times)):
        ws = slots[idx % 3]
        read_spin(idx, ws.e3)
        F = frame_from_spin(grid, ws.e3, scheme, work=ws)
        on_frame(idx, F)
        co = coeffs_from_frame(grid, F, scheme, work=ws)
        # now, while the shared densities are this slice's
        res = mlxii_residual(grid, co, scheme, frame=F, work=ws) if 0 < idx < last else None
        live = live[-2:] + [(F, co, res)]
        if len(live) < 3:
            continue
        (F0, before, _), (F1, mid, res), (F2, after, _) = live
        dt2 = times[idx] - times[idx - 2]
        oldest, ws = slots[(idx - 2) % 3], slots[(idx - 1) % 3]
        dF = frame_dt(F0, F2, dt2, out=oldest.E[:2])
        e1, e2, e3 = ws.E
        cross_planes(e1, e2, e3, ws.tmp)  # the mid's e3 again, as frame_from_spin formed it
        co = with_time_entries(mid, F1, dF, ws)  # into D: the densities were read
        res.update(_time_residuals(grid, co, before, after, dt2, scheme, ws, oldest.A))
        yield idx - 1, co, res


# ---------------------------------------------------------------------------
# Coefficient identification from the spin equation
# ---------------------------------------------------------------------------

def m_coeffs_from_spin(grid: Grid2, S: np.ndarray, u: np.ndarray, v: np.ndarray,
                       par, scheme=SPECTRAL, frame: FrameField = None) -> FrameCoeffs:
    """Identified transport coefficients for a spin solution.

    The y-entries come from

        m1 = u + inv_dx(tau_y),
        m2 = (u_x + sigma m3) / k,
        m3 = inv_dx(k_y + sigma m1 - tau m2),

    with the per-row antiderivative constants (lost to the periodic zero-mean
    inv_dx) restored from the frame's projection, coeffs_from_frame.  From
    m2 = u_x / k, the m2/m3 circularity at sigma != 0 is resolved by a
    damped fixed point, skipped when max|sigma| < 1e-12.  The time entries then follow from the dynamics:

        w2 = -m3_x - tau m2 + u sigma + 2l(cl+d) m2 - 4 c v sigma
        w3 =  m2_x - tau m3 + u k     + 2l(cl+d) m3 - 4 c v k
        w1 = (sigma_t - w2_x + tau w3) / k

    at sigma_t = 0, the Frenet gauge's, and m2 = w1 = 0 where |k| < DEGENERACY_TOL.
    (The sign of the u k term in w3 is fixed by requiring compatibility of
    the transport system; see the project notes.)  States the paper's claim
    that the M-III dynamics fixes the y- and t-entries from k, sigma, tau.
    """
    ws = _Workspace((grid.ny, grid.nx))
    if frame is None:
        frame = frame_from_spin(grid, S, scheme, work=ws)
    proj = coeffs_from_frame(grid, frame, scheme, work=ws)  # the densities are not read
    tau, sigma, k = proj.a

    k_mask = np.abs(k) < DEGENERACY_TOL
    if np.count_nonzero(k_mask) > 0.5 * k_mask.size:
        raise DegenerateFieldError("curvature k vanishes on more than half the grid")
    k_safe = np.where(k_mask, 1.0, k)

    u_x = ddx(grid, u, scheme)
    tau_y = ddy(grid, tau, scheme)
    m1 = u + inv_dx(grid, tau_y).field + meanx(proj.m1)
    m3_mean = meanx(proj.m3)

    k_y = ddy(grid, k, scheme)
    m2 = u_x / k_safe
    m3 = inv_dx(grid, k_y + sigma * m1 - tau * m2).field + m3_mean
    if float(np.max(np.abs(sigma))) >= 1e-12:
        for _ in range(FIXED_POINT_MAX_ITER):
            m2_new = (u_x + sigma * m3) / k_safe
            m3_new = inv_dx(grid, k_y + sigma * m1 - tau * m2_new).field + m3_mean
            m2_new = 0.5 * (m2 + m2_new)
            m3_new = 0.5 * (m3 + m3_new)
            change = max(float(np.max(np.abs(m2_new - m2))),
                         float(np.max(np.abs(m3_new - m3))))
            m2, m3 = m2_new, m3_new
            if change < FIXED_POINT_TOL:
                break
        else:
            raise IdentificationError(
                f"identification diverged: fixed point not within {FIXED_POINT_TOL} "
                f"after {FIXED_POINT_MAX_ITER} iterations")
    m2 = np.where(k_mask, 0.0, m2)

    drift = par.drift
    w2 = -ddx(grid, m3, scheme) - tau * m2 + u * sigma + drift * m2 - 4.0 * par.c * v * sigma
    w3 = ddx(grid, m2, scheme) - tau * m3 + u * k + drift * m3 - 4.0 * par.c * v * k
    w1 = np.where(k_mask, 0.0, (tau * w3 - ddx(grid, w2, scheme)) / k_safe)
    return FrameCoeffs(a=proj.a, b=np.stack([m1, m2, m3]), w=np.stack([w1, w2, w3]))
