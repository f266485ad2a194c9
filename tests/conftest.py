import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from m3lab import nls, spin
from m3lab.fields import Grid2, norm3
from m3lab.frames import FrameCoeffs

# Property tests draw the same examples on every run, keep no example
# database and stay time-bounded.
settings.register_profile("m3lab", derandomize=True, database=None, deadline=None,
                          max_examples=12)
settings.load_profile("m3lab")

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # hypothesis caches the constants of the source it sees on disk even
    # without a database; keep that cache out of the tree and drop it after
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="m3lab-hypothesis-")
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


def normalized3(a):
    """a / |a| of a (3, ny, nx) stack."""
    return a / norm3(a)


# Pointwise matrix-field algebra (works for (..., 2, 2) and (..., 3, 3)).
# The package carries connections by their Lie-algebra coordinates
# (frames.bracket, lax._sl2_bracket); these products are the reference
# those coordinate forms are tested against.  They take the matrix indices
# last, so a stack of vectors or matrices is moved to its points first.

def pointwise(stack, k=1):
    """The (ny, nx, ...) view of a stack whose first k axes index components."""
    return np.moveaxis(stack, tuple(range(k)), tuple(range(-k, 0)))


def d_matrix(deriv, grid, M, scheme="spectral"):
    """deriv (ddx or ddy) of an (ny, nx, m, m) matrix field, entry by entry."""
    return pointwise(deriv(grid, np.moveaxis(M, (-2, -1), (0, 1)), scheme), 2)


def matmul(A, B):
    return np.einsum("...ij,...jk->...ik", A, B)


def commutator(A, B):
    return matmul(A, B) - matmul(B, A)


def so3_from_vec(v1, v2, v3):
    """The transport matrix so3(v) of a coefficient triple (frames docstring):
    [[0, v3, -v2], [-v3, 0, v1], [v2, -v1, 0]]."""
    z = np.zeros_like(v1)
    return np.stack([
        np.stack([z, v3, -v2], axis=-1),
        np.stack([-v3, z, v1], axis=-1),
        np.stack([v2, -v1, z], axis=-1),
    ], axis=-2)


def so3_matrices(coeffs):
    """(A, B, C) transport matrices of FrameCoeffs; C is None without time entries."""
    C = None if coeffs.w is None else so3_from_vec(*coeffs.w)
    return so3_from_vec(*coeffs.a), so3_from_vec(*coeffs.b), C


def frame_coeffs(k, sigma, tau, m1, m2, m3, w1=None, w2=None, w3=None, densities=None):
    """FrameCoeffs of named planes, stacked: a = (tau, sigma, k), b = (m1, m2, m3)
    and, when w1 is given, w = (w1, w2, w3)."""
    w = None if w1 is None else np.stack([w1, w2, w3])
    return FrameCoeffs(a=np.stack([tau, sigma, k]), b=np.stack([m1, m2, m3]), w=w,
                       densities=densities)


@pytest.fixture
def grid():
    return Grid2(64, 64)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def band_limited(grid, rng, kmax=4, scale=1.0):
    """Random smooth real field: a handful of low modes, unit-normalized."""
    modes = np.zeros((grid.ny, grid.nx), dtype=complex)
    modes[:kmax, :kmax] = rng.normal(size=(kmax, kmax)) + 1j * rng.normal(size=(kmax, kmax))
    modes[-kmax:, :kmax] = rng.normal(size=(kmax, kmax)) + 1j * rng.normal(size=(kmax, kmax))
    f = np.fft.ifft2(modes).real
    return scale * f / np.max(np.abs(f))


def smooth_spin(grid, rng, amplitude=0.35, kmax=3):
    """Random smooth unit spin field around the north pole.

    Kept well inside the resolved band: normalization is nonlinear, so the
    spectrum of S has tails whose aliasing would otherwise dominate the
    rounding-level identities these fields are used to test.
    """
    S = np.stack([band_limited(grid, rng, kmax=kmax, scale=amplitude) for _ in range(3)])
    S[2] += 1.0
    return normalized3(S)


def spin_step(grid, S, par, dt, scheme="spectral"):
    """One step_rk4_spin of S in a workspace loaded with it: (the new S,
    the renormalisation correction)."""
    ws = spin._Workspace(grid, S)
    correction = spin.step_rk4_spin(grid, ws, par, dt, scheme)
    return ws.P, correction


def nls_step(grid, q, par, dt, scheme="spectral"):
    """One step_rk4_nls of q in a workspace loaded with it: the new q."""
    ws = nls._Workspace(q)
    nls.step_rk4_nls(grid, ws, par, dt, scheme)
    return ws.q


def smooth_complex(grid, rng, kmax=3, scale=0.5):
    re = band_limited(grid, rng, kmax, scale)
    im = band_limited(grid, rng, kmax, scale)
    return re + 1j * im
