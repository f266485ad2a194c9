import numpy as np

from m3lab.fields import Grid2, integrate2, max_norm
from m3lab.frames import FrameField, coeffs_from_frame, frame_from_spin
from m3lab.invariants import ChargeReport, charge_density, charges, coeff_densities
from m3lab.spin import init_modulated_helix, init_stereographic_lump, init_uniform

from conftest import normalized3

FOUR_PI = 4.0 * np.pi


def test_density_constant_field(grid):
    assert max_norm(charge_density(grid, init_uniform(grid))) == 0.0


def test_density_parity(grid):
    """Flipping e or reflecting y each negate the density individually."""
    e = normalized3(init_modulated_helix(grid, kappa=1, eps=0.2))
    d = charge_density(grid, e)
    d_flip = charge_density(grid, -e)
    assert max_norm(d_flip + d) < 1e-12
    e_reflect = e[:, ::-1, :].copy()            # y -> -y on the periodic grid
    d_reflect = charge_density(grid, e_reflect)
    assert max_norm(d_reflect + d[::-1, :]) < 1e-9


def test_lump_degree_one():
    """The compact lump integrates to 4 pi, stable under refinement."""
    values = []
    for n in (64, 96, 128):
        g = Grid2(n, n)
        S = init_stereographic_lump(g)
        values.append(integrate2(g, charge_density(g, S)) / FOUR_PI)
    for v in values:
        assert abs(v - 1.0) < 1e-3
    assert abs(values[-1] - values[-2]) < 1e-3


def test_charges_constant_frame(grid):
    ones = np.ones((grid.ny, grid.nx))
    F = FrameField(E=tuple(axis[:, None, None] * ones for axis in np.eye(3)))
    co = coeffs_from_frame(grid, F)
    rep = charges(grid, co)
    assert rep.k_vector == (0.0, 0.0, 0.0)
    assert rep.k_coeff == (0.0, 0.0, 0.0)
    assert rep.q == (0.0, 0.0, 0.0)


def test_density_forms_agree_pointwise(grid):
    """Coefficient-form densities equal the triple products on smooth frames."""
    S = init_modulated_helix(grid, kappa=1, eps=0.1)
    F = frame_from_spin(grid, S)
    co = coeffs_from_frame(grid, F)
    rep = charges(grid, co)
    for dev in rep.density_dev:
        assert dev < 1e-9
    for kv, kc in zip(rep.k_vector, rep.k_coeff):
        assert abs(kv - kc) < 1e-9


def test_coeff_density_closed_form(grid):
    """The matrix recipe reduces to the familiar combinations."""
    F = frame_from_spin(grid, init_modulated_helix(grid, kappa=1, eps=0.1))
    co = coeffs_from_frame(grid, F)
    d1, d2, d3 = coeff_densities(co)
    assert max_norm(d1 - (co.sigma * co.m3 - co.k * co.m2)) < 1e-13
    assert max_norm(d2 - (co.k * co.m1 - co.tau * co.m3)) < 1e-13
    assert max_norm(d3 - (co.tau * co.m2 - co.sigma * co.m1)) < 1e-13


def test_charge_report_row(grid):
    S = init_modulated_helix(grid)
    F = frame_from_spin(grid, S)
    rep = charges(grid, coeffs_from_frame(grid, F))
    assert isinstance(rep, ChargeReport)
    assert len(rep.as_row()) == 9
