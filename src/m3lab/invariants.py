"""Topological charge densities and the frame integrals of motion.

Vector form (ground truth):

    K_j = integral of e_j . (e_jx ^ e_jy),   Q_j = K_j / (4 pi)

with the density e.(e_x ^ e_y) of frames.charge_density; charges reads it
from FrameCoeffs.densities, as the identity check in mlxii_residual does.

Coefficient form: the same densities expressed through the coefficient
triples a = (tau, sigma, k) and b = (m1, m2, m3) as

    density = -bracket(a, b) = (sigma m3 - k m2, k m1 - tau m3, tau m2 - sigma m1)

(frames.bracket, the so(3) commutator on triples).  Value for value it
equals the matrix-entry form A[j,j+1] B[j,j+2] - A[j,j+2]
B[j,j+1] (cyclic indices) of A = so3(a), B = so3(b) (see frames).
The two forms agree pointwise at discretization order for smooth frames;
the comparison is made at the density level because for topologically
nontrivial fields the coefficients are not globally smooth periodic
functions and the integral identity via exact forms is void.
"""

from dataclasses import dataclass

import numpy as np

from .fields import Grid2, integrate2
from .frames import (FrameCoeffs, _densities, _Workspace, bracket,  # noqa: F401 - re-exported
                     charge_density)

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class ChargeReport:
    k_vector: tuple          # (K1, K2, K3) from the triple-product densities
    k_coeff: tuple           # (K1, K2, K3) from the coefficient densities
    q: tuple                 # (Q1, Q2, Q3) = k_vector / 4pi
    density_dev: tuple       # pointwise max gap between the two densities

    def as_row(self) -> list:
        return list(self.k_vector) + list(self.k_coeff) + list(self.q)


def coeff_densities(coeffs: FrameCoeffs, out=None, tmp=None):
    """Coefficient-form charge densities, -bracket(a, b), as a (3, ny, nx)
    stack; written into out with tmp, when these are given."""
    c = bracket(coeffs.a, coeffs.b, out, tmp)
    return np.negative(c, out=c)


def charges(grid: Grid2, coeffs: FrameCoeffs, work=None) -> ChargeReport:
    """All six integrals plus the pointwise density agreement check, for
    coefficients from coeffs_from_frame (their `densities` are the vector form).

    The coefficient densities are formed in the scratch of a frames
    workspace, work when it is given.
    """
    dens_v = _densities(coeffs)
    ws = work or _Workspace(coeffs.a.shape[1:])
    dens_c, scratch = coeff_densities(coeffs, ws.X, ws.tmp), ws.Y[0]
    k_vec = tuple(integrate2(grid, d) for d in dens_v)
    k_coe = tuple(integrate2(grid, d) for d in dens_c)
    dev = tuple(float(np.max(np.abs(np.subtract(dv, dc, out=scratch), out=scratch)))
                for dv, dc in zip(dens_v, dens_c))
    q = tuple(kj / FOUR_PI for kj in k_vec)
    return ChargeReport(k_vector=k_vec, k_coeff=k_coe, q=q, density_dev=dev)
