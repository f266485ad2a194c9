"""Output checks, computed apart from m3lab.

Everything here reads the files a workload wrote and recomputes what it
needs with its own numerics: a 2-D FFT derivative, a least-squares order
fit and a trapezoid charge quadrature.  Nothing is compared against a
stored copy of earlier output.  Each check returns a list of failure
messages (empty when the output is correct).
"""

import hashlib
import json
import math
import os

import numpy as np

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# Independent numerics
# ---------------------------------------------------------------------------

def read_mfld1(path):
    """(nx, ny, lx, ly, data[ny, nx, ncomp]) from an MFLD1 file."""
    with open(path, "rb") as fh:
        head = fh.readline().decode("ascii").split()
        if len(head) != 6 or head[0] != "MFLD1":
            raise ValueError(f"{path}: not an MFLD1 file")
        nx, ny, nc = int(head[1]), int(head[2]), int(head[3])
        raw = fh.read()
    if len(raw) != 8 * nx * ny * nc:
        raise ValueError(f"{path}: payload has {len(raw)} bytes, want {8 * nx * ny * nc}")
    data = np.frombuffer(raw, dtype="<f8").reshape(ny, nx, nc)
    return nx, ny, float(head[4]), float(head[5]), data


def write_mfld1(path, data, lx=2.0 * math.pi, ly=2.0 * math.pi):
    data = np.asarray(data, dtype="<f8")
    ny, nx, nc = data.shape
    with open(path, "wb") as fh:
        fh.write(f"MFLD1 {nx} {ny} {nc} {lx:.17g} {ly:.17g}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(data).tobytes())


def _wavenumbers(n, length):
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=length / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # odd derivative: the Nyquist mode has no partner
    return k


def spectral_d(f, length, axis):
    """First derivative of a periodic field along axis 1 (x) or 0 (y).

    One 2-D transform over the grid axes; trailing component axes ride along.
    """
    n = f.shape[axis]
    shape = [1] * f.ndim
    shape[axis] = n
    k = _wavenumbers(n, length).reshape(shape)
    out = np.fft.ifft2(1j * k * np.fft.fft2(f, axes=(0, 1)), axes=(0, 1))
    return out if np.iscomplexobj(f) else out.real


def dx(f, lx=2.0 * math.pi):
    return spectral_d(f, lx, 1)


def dy(f, ly=2.0 * math.pi):
    return spectral_d(f, ly, 0)


def fit_order(hs, errs):
    """Least-squares slope of log(err) against log(h)."""
    slope, _ = np.polyfit(np.log(np.asarray(hs, float)), np.log(np.asarray(errs, float)), 1)
    return float(slope)


def quad2(f, lx=2.0 * math.pi, ly=2.0 * math.pi):
    """Periodic trapezoid rule over the rectangle (spectrally accurate)."""
    ny, nx = f.shape[:2]
    return float(np.sum(f) * (lx / nx) * (ly / ny))


def triple_density(S, lx=2.0 * math.pi, ly=2.0 * math.pi):
    """S . (S_x ^ S_y) for a vector field S[ny, nx, 3]."""
    return np.einsum("...k,...k->...", S, np.cross(dx(S, lx), dy(S, ly)))


def degree(S, lx=2.0 * math.pi, ly=2.0 * math.pi):
    """Mapping degree Q1 = (1/4pi) integral S . (S_x ^ S_y)."""
    return quad2(triple_density(S, lx, ly), lx, ly) / FOUR_PI


# ---------------------------------------------------------------------------
# Helpers over a run directory
# ---------------------------------------------------------------------------

def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _meta(run):
    return _json(os.path.join(run, "meta.json"))


def _slices(run):
    """(file name, lx, ly, data) of every saved slice, in order."""
    for name in _meta(run)["slices"]:
        _, _, lx, ly, data = read_mfld1(os.path.join(run, name))
        yield name, lx, ly, data


def slice_digests(run):
    """sha256 of every saved slice of a run directory, by file name."""
    out = {}
    for name in _meta(run)["slices"]:
        with open(os.path.join(run, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _guard(check):
    """A check that cannot even read its input fails with the reason."""
    def run(*args, **kw):
        try:
            return check(*args, **kw)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{check.__name__}: unreadable output: {exc!r}"]
    run.__name__ = check.__name__
    return run


# ---------------------------------------------------------------------------
# Spin-side checks
# ---------------------------------------------------------------------------

@_guard
def unit_spin(run, tol=1e-9):
    out = []
    for name, _, _, d in _slices(run):
        dev = float(np.max(np.abs(np.linalg.norm(d[..., 0:3], axis=-1) - 1.0)))
        if not dev <= tol:
            out.append(f"{name}: | |S| - 1 | = {dev:.3e} > {tol}")
    return out


@_guard
def u_constraint(run, tol=1e-8):
    """u_x = -S.(S_x ^ S_y) minus its row mean, with u of zero row mean."""
    out = []
    for name, lx, ly, d in _slices(run):
        S, u = d[..., 0:3], d[..., 3]
        rhs = -triple_density(S, lx, ly)
        rhs = rhs - rhs.mean(axis=1, keepdims=True)
        dev = float(np.max(np.abs(dx(u, lx) - rhs))) / max(1.0, float(np.max(np.abs(rhs))))
        mean = float(np.max(np.abs(u.mean(axis=1))))
        if not (dev <= tol and mean <= tol):
            out.append(f"{name}: u constraint defect {dev:.3e}, row mean {mean:.3e} (tol {tol})")
    return out


@_guard
def ladder(run, lo=1.7, hi=2.3):
    rep = _json(os.path.join(run, "equiv_report.json"))
    hs = [h for h, _ in rep["ladder"]]
    rs = [r for _, r in rep["ladder"]]
    out = []
    if len(rs) < 3 or not all(r > 0.0 for r in rs):
        return [f"ladder {rep['ladder']} is not three positive residuals"]
    if not all(a > b for a, b in zip(rs, rs[1:])):
        out.append(f"ladder residuals {rs} do not decrease")
    order = fit_order(hs, rs)
    if not lo <= order <= hi:
        out.append(f"fitted order {order:.3f} outside [{lo}, {hi}]")
    if abs(order - rep["order"]) > 1e-9:
        out.append(f"reported order {rep['order']!r} differs from the fit {order!r}")
    return out


@_guard
def equiv_diagnostics(run, v_tol=1e-12, fold_tol=1e-10):
    rep = _json(os.path.join(run, "equiv_report.json"))
    out = []
    if not rep["v_cross"] < v_tol:
        out.append(f"v_cross {rep['v_cross']!r} >= {v_tol}")
    fold = rep["obstruction"]["fold_defect"]
    if not abs(fold) < fold_tol:
        out.append(f"|fold_defect| {abs(fold)!r} >= {fold_tol}")
    return out


@_guard
def identical(run, again):
    """Both runs saved the same slices, byte for byte."""
    a, b = slice_digests(run), slice_digests(again)
    if a != b:
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        return [f"repeated run differs in {diff}"]
    return []


def degrees(run):
    """Q1 of every saved slice of a spin run, in slice order."""
    return [degree(d[..., 0:3], lx, ly) for _, lx, ly, d in _slices(run)]


def lump_degree(qs, q_tol=1e-3, drift_tol=1e-4):
    """Q1 = 1 on every saved slice, with a small drift over the run."""
    if not qs:
        return ["no saved slices"]
    out = [f"slice {i}: Q1 = {q!r}" for i, q in enumerate(qs) if not abs(q - 1.0) <= q_tol]
    drift = max(abs(q - qs[0]) for q in qs)
    if not drift <= drift_tol:
        out.append(f"Q1 drift {drift:.3e} > {drift_tol}")
    return out


@_guard
def reported_q1(run, csv_name, qs, tol=1e-8):
    """The Q1 column a command wrote agrees with the recomputed degrees."""
    with open(os.path.join(run, csv_name)) as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    col = rows[0].index("Q1")
    got = [float(r[col]) for r in rows[1:]]
    if len(got) != len(qs):
        return [f"{csv_name}: {len(got)} rows for {len(qs)} slices"]
    dev = max(abs(a - b) for a, b in zip(got, qs))
    return [] if dev <= tol else [f"{csv_name}: Q1 off by {dev:.3e}"]


@_guard
def frames_orthonormal(run, tol=1e-9):
    out = []
    for idx, (_, _, _, d) in enumerate(_slices(run)):
        name = f"frame_{idx:06d}.mfld1"
        f = read_mfld1(os.path.join(run, name))[4]
        E = f.reshape(f.shape[0], f.shape[1], 3, 3)
        gram = np.einsum("...ik,...jk->...ij", E, E)
        dev = float(np.max(np.abs(gram - np.eye(3))))
        e1 = float(np.max(np.abs(E[..., 0, :] - d[..., 0:3])))
        hand = float(np.max(np.abs(np.cross(E[..., 0, :], E[..., 1, :]) - E[..., 2, :])))
        if not max(dev, e1, hand) <= tol:
            out.append(f"{name}: gram {dev:.3e}, e1-S {e1:.3e}, e1^e2-e3 {hand:.3e} (tol {tol})")
    return out


# ---------------------------------------------------------------------------
# NLS-side checks
# ---------------------------------------------------------------------------

def _qpv(d):
    return d[..., 0] + 1j * d[..., 1], d[..., 2] + 1j * d[..., 3], d[..., 4]


@_guard
def nls_slices(run, beta, mass_tol=1e-12, v_tol=1e-9):
    """Mass conservation, the conjugate pairing and the v constraint."""
    out, masses = [], []
    for name, lx, ly, d in _slices(run):
        q, p, v = _qpv(d)
        masses.append(quad2(np.abs(q) ** 2, lx, ly))
        pair = float(np.max(np.abs(p - beta * np.conj(q))))
        if pair != 0.0:
            out.append(f"{name}: |p - beta conj q| = {pair:.3e}")
        src = dy((p * q).real, ly)
        src = src - src.mean(axis=1, keepdims=True)
        dev = float(np.max(np.abs(dx(v, lx) - src))) / max(1.0, float(np.max(np.abs(src))))
        if not dev <= v_tol:
            out.append(f"{name}: v constraint defect {dev:.3e} > {v_tol}")
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    if not drift <= mass_tol:
        out.append(f"relative drift of the integral of |q|^2 is {drift:.3e} > {mass_tol}")
    return out


def q_rhs(q, v, c, d, lx, ly):
    """q_t = -i(q_xy + 2 d^2 v q) - 4 c (v q)_x, the M3q evolution."""
    return -1j * (dy(dx(q, lx), ly) + 2.0 * d * d * v * q) - 4.0 * c * dx(v * q, lx)


@_guard
def flatness(run, lams, trace_tol=1e-12, rel=1e-6, floor=1e-12):
    """Traces and the zero-curvature residual at every scanned lambda.

    With mu = 2c lam + d, the residual's off-diagonal entries are
    i mu (central difference of q - q_t) and its diagonal ones are
    -i mu^2 rowmean((pq)_y), the solvability defect v drops (see README).
    So residual <= max(|mu| E_q, |mu|^2 M), with E_q and M recomputed here
    from the saved slices.
    """
    meta = _meta(run)
    rep = _json(os.path.join(run, "lax_report.json"))
    cfg = meta["config"]
    c, dd = cfg["params.c"], cfg["params.d"]
    times = meta["times"]
    mid = len(times) // 2 if len(times) // 2 + 1 < len(times) else len(times) - 2
    if abs(rep["t"] - times[mid]) > 0.0:
        return [f"lax-check evaluated t = {rep['t']!r}, expected {times[mid]!r}"]
    (_, _, lx, ly, d0), (_, _, _, _, d1), (_, _, _, _, d2) = (
        read_mfld1(os.path.join(run, meta["slices"][i])) for i in (mid - 1, mid, mid + 1))
    q_cd = (_qpv(d2)[0] - _qpv(d0)[0]) / (times[mid + 1] - times[mid - 1])
    q1, p1, v1 = _qpv(d1)
    e_q = float(np.max(np.abs(q_cd - q_rhs(q1, v1, c, dd, lx, ly))))
    m = float(np.max(np.abs(dy((p1 * q1).real, ly).mean(axis=1))))
    out = []
    got = [complex(*r["lam"]) for r in rep["results"]]
    if got != list(lams):
        out.append(f"lax-check scanned {len(got)} lambdas, not the {len(lams)} requested")
    for r in rep["results"]:
        lam = complex(*r["lam"])
        mu = abs(2.0 * c * lam + dd)
        bound = max(mu * e_q, mu * mu * m) * (1.0 + rel) + floor
        if not r["residual"] <= bound:
            out.append(f"lam {lam}: residual {r['residual']:.6e} > bound {bound:.6e}")
        if not max(r["trace_U"], r["trace_V"]) < trace_tol:
            out.append(f"lam {lam}: trace {max(r['trace_U'], r['trace_V']):.3e} >= {trace_tol}")
    return out
