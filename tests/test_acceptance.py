"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from m3lab.convergence import fit_order, halving_ratios
from m3lab.equivalence import (
    HirotaPair,
    coeffs_from_fg,
    frame_from_fg,
    l_equiv_check,
    spin_from_fg,
)
from m3lab.fields import Grid2, ddx, default_dt, integrate2, inv_dx, max_norm, meanx, norm3
from m3lab.frames import coeffs_from_frame, frame_dt, frame_from_spin, mlxii_residual
from m3lab.invariants import charge_density
from m3lab.lax import build_lax_q, build_lax_spin, lambda_residual, pauli_identities, \
    trace_deviation, zero_curvature_q
from m3lab.nls import (
    NlsParams,
    init_plane_wave,
    make_state as make_nls_state,
    nls_rhs,
    plane_wave_omega,
    run_nls,
    solve_v_nls,
)
from m3lab.spin import (
    SpinParams,
    init_modulated_helix,
    init_stereographic_lump,
    make_state as make_spin_state,
    run_spin,
    spin_rhs,
)

from conftest import smooth_complex, smooth_spin


class _Gate:
    def __init__(self, number, description, budget):
        self.number = number
        self.description = description
        self.budget = budget
        self.t0 = None

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:02d} {status} ({elapsed:6.2f}s / {self.budget:.0f}s) "
              f"{self.description}")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"
        return False


def test_criterion_01_algebra_suite():
    with _Gate(1, "product table exact; connection builders traceless to 1e-12", 1.0):
        assert pauli_identities()["pass"]
        grid = Grid2(32, 32)
        rng = np.random.default_rng(5)
        q = smooth_complex(grid, rng)
        p = np.conj(q)
        v, _, _ = solve_v_nls(grid, q, p)
        npar = NlsParams(c=0.3, d=1.0, model="M3q")
        for lam in (0.5, 0.3 + 0.2j):
            U, V = build_lax_q(grid, q, p, v, npar, lam)
            assert trace_deviation(U) < 1e-12
            assert trace_deviation(V) < 1e-12
        spar = SpinParams(c=0.3, d=1.0, l=0.2, model="M3")
        S = smooth_spin(grid, rng)
        state = make_spin_state(grid, S, spar)
        Us, Vs = build_lax_spin(grid, S, state.u, state.v, spar, 0.4 + 0.1j)
        assert trace_deviation(Us) < 1e-12
        assert trace_deviation(Vs) < 1e-12


def test_criterion_02_operator_round_trips():
    with _Gate(2, "ddx(inv_dx) = id - meanx to 1e-10; central4 ratio 16 +/- 2", 5.0):
        grid = Grid2(64, 64)
        rng = np.random.default_rng(6)
        from conftest import band_limited
        f = band_limited(grid, rng)
        g = inv_dx(grid, f).field
        assert np.max(np.abs(ddx(grid, g) - (f - meanx(f)))) < 1e-10
        errs = []
        for n in (32, 64):
            gn = Grid2(n, n)
            X, _ = gn.meshgrid()
            w = 2 * np.pi / gn.lx
            errs.append(np.max(np.abs(ddx(gn, np.sin(w * X), "central4")
                                      - w * np.cos(w * X))))
        assert 14.0 <= errs[0] / errs[1] <= 18.0


def test_criterion_03_reduction_identities():
    with _Gate(3, "M3q->Zakharov/Strachan and spin M3(d=0)->M2 exact", 5.0):
        from m3lab.fields import ddy
        grid = Grid2(64, 64)
        rng = np.random.default_rng(7)
        q = smooth_complex(grid, rng)
        p = np.conj(q)
        v, _, _ = solve_v_nls(grid, q, p)
        qt, pt = nls_rhs(grid, q, p, v, NlsParams(c=0.0, d=1.0, model="M3q"))
        assert np.array_equal(qt, -1j * (ddy(grid, ddx(grid, q)) + 2 * v * q))
        assert np.array_equal(pt, 1j * (ddy(grid, ddx(grid, p)) + 2 * v * p))
        c = 0.4
        qt, pt = nls_rhs(grid, q, p, v, NlsParams(c=c, d=0.0, model="M3q"))
        assert np.array_equal(qt, -1j * ddy(grid, ddx(grid, q)) - 4 * c * ddx(grid, v * q))
        assert np.array_equal(pt, 1j * ddy(grid, ddx(grid, p)) - 4 * c * ddx(grid, v * p))
        S = smooth_spin(grid, rng)
        r3 = spin_rhs(grid, S, SpinParams(c=0.4, d=0.0, l=0.3, model="M3"))
        r2 = spin_rhs(grid, S, SpinParams(c=0.4, d=0.0, l=0.3, model="M2"))
        assert np.array_equal(r3, r2)


def test_criterion_04_dispersion_oracle():
    with _Gate(4, "plane-wave run: frequency to 1e-3 relative, |q| to 1e-9", 30.0):
        grid = Grid2(64, 64)
        par = NlsParams(c=0.0, d=1.0, model="Zakharov")
        A = 0.5
        state = make_nls_state(grid, init_plane_wave(grid, A, 1, 1), par)
        saved = run_nls(grid, state, par, default_dt(grid), 200, save_every=1)
        expected = plane_wave_omega(grid, par, 1, 1)      # v0 = 0 on the box
        phases = np.unwrap([np.angle(s.q[5, 7]) for s in saved])
        times = np.array([s.t for s in saved])
        measured = -np.polyfit(times, phases, 1)[0]
        assert abs(measured - expected) < 1e-3 * abs(expected)
        drift = max(float(np.max(np.abs(np.abs(s.q) - A))) for s in saved)
        assert drift < 1e-9


def test_criterion_05_zero_curvature_q_side():
    with _Gate(5, "plane-wave flatness residual: h-halving ratio 4 +/- 1, 3 lambdas", 60.0):
        par = NlsParams(c=0.0, d=1.0, model="Zakharov")
        A, k1, k2 = 0.5, 1, 2

        def qpv(grid, t):
            omega = plane_wave_omega(grid, par, k1, k2)
            q = init_plane_wave(grid, A, k1, k2) * np.exp(-1j * omega * t)
            p = np.conj(q)
            v, _, _ = solve_v_nls(grid, q, p)
            return q, p, v

        for lam in (0.3 + 0.1j, -0.2 + 0.4j, 0.7 + 0.0j):
            errs = []
            for n in (32, 64, 128):
                g = Grid2(n, n)
                delta = 0.1 * 32 / n
                rep = zero_curvature_q(g, qpv(g, -delta), qpv(g, 0.0), qpv(g, delta),
                                       par, lam, 2 * delta, scheme="central4")
                errs.append(rep["residual"])
            for ratio in halving_ratios(errs):
                assert 3.0 <= ratio <= 5.0, (lam, errs)


def test_criterion_06_l_equivalence_ladder():
    with _Gate(6, "spin->q map satisfies the NLS system: order in [1.7, 2.3]", 600.0):
        par = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")
        report = l_equiv_check(
            par, lambda g: init_modulated_helix(g, kappa=1, eps=0.05),
            sizes=(32, 64, 128), t_eval=0.2, delta0=0.1)
        assert 1.7 <= report.order <= 2.3, report.ladder
        residuals = [r for _, r in report.ladder]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))  # monotone
        assert report.v_cross < 1e-12     # spin-side v == q-side v
        assert abs(report.obstruction["fold_defect"]) < 1e-10


def test_criterion_07_frame_compatibility():
    with _Gate(7, "frame transport compatibility: weakest order ~2, identities at scheme order", 120.0):
        par = SpinParams(c=0.3, d=1.0, l=0.0, model="M3")
        keys = ("xy", "xt", "yt")
        ids = ("identity_e1", "identity_e2", "identity_e3")
        series = {k: [] for k in keys + ids}
        hs = []
        for n in (24, 32, 48, 64):
            g = Grid2(n, n)
            state = make_spin_state(g, init_modulated_helix(g, kappa=1, eps=0.1), par)
            delta = 0.08 * 24 / n
            spd = max(1, int(np.ceil(delta / default_dt(g))))
            saved = run_spin(g, state, par, delta / spd, 2 * spd, save_every=spd)
            frames = [frame_from_spin(g, s.S, "central4") for s in saved]
            dF = frame_dt(frames[0], frames[2], 2 * delta)
            cs = [coeffs_from_frame(g, f, "central4") for f in frames]
            cmid = coeffs_from_frame(g, frames[1], "central4", dF_dt=dF)
            res = mlxii_residual(g, cmid, "central4", coeffs_before=cs[0],
                                 coeffs_after=cs[2], dt2=2 * delta, frame=frames[1])
            for k in series:
                series[k].append(res[k])
            hs.append(g.hx)
        orders = {k: fit_order(hs, series[k]) for k in series}
        # every residual converges at least at second order; the weakest
        # matrix residual is the central-difference bottleneck, order ~ 2
        for k, order in orders.items():
            assert order > 1.7, (k, series[k])
        assert min(orders[k] for k in keys) < 2.6, orders
        # pointwise identities converge at the spatial scheme order (4th)
        for k in ids:
            assert orders[k] > 3.0, (k, orders[k])


def test_criterion_08_topological_charge():
    with _Gate(8, "lump charge 1 to 1e-3 under refinement; drift < 1e-4 on a run", 60.0):
        values = []
        for n in (64, 96, 128):
            g = Grid2(n, n)
            S = init_stereographic_lump(g)
            values.append(integrate2(g, charge_density(g, S)) / (4 * np.pi))
        assert all(abs(v - 1.0) < 1e-3 for v in values)
        assert abs(values[-1] - values[-2]) < 1e-3
        g = Grid2(64, 64)
        par = SpinParams(c=0.25, d=1.0, l=0.0, model="M3")
        state = make_spin_state(g, init_stereographic_lump(g), par)
        saved = run_spin(g, state, par, 0.5 * default_dt(g), 60, save_every=6)
        qs = [integrate2(g, charge_density(g, s.S)) / (4 * np.pi) for s in saved]
        assert max(abs(q - qs[0]) for q in qs) < 1e-4


def test_criterion_09_lambda_flow():
    with _Gate(9, "closed-form spectral flow solves its PDE to 1e-12 at 100 points", 1.0):
        y = np.linspace(0.1, 2.0, 10)[:, None]
        t = np.linspace(0.0, 0.3, 10)[None, :]
        c_model = 0.7
        for n, k in ((1, 2.0), (2, 2.0 * c_model)):
            rep = lambda_residual(y, t, n, k, a=1.0, c=0.5)
            assert rep["analytic"] < 1e-12
            assert rep["fd"] < 1e-7


def test_criterion_10_bilinear_representation():
    with _Gate(10, "bilinear map: unit spin, orthonormal triad, curvature match", 10.0):
        grid = Grid2(64, 64)
        X, Y = grid.meshgrid()
        theta = 0.8 + 0.3 * np.sin(X) * np.cos(Y)
        phi = 0.4 * np.sin(X + Y) + 0.2 * np.cos(Y)
        pair = HirotaPair(f=np.cos(theta / 2).astype(complex),
                          g=np.sin(theta / 2) * np.exp(1j * phi))
        S = spin_from_fg(pair)
        assert np.max(np.abs(norm3(S) - 1.0)) < 1e-12
        F = frame_from_fg(pair)
        assert F.gram_deviation() < 1e-9
        proj = coeffs_from_frame(grid, F)
        bili = coeffs_from_fg(grid, pair)
        assert max_norm(bili.k - proj.k) < 1e-8
