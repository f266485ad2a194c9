"""Property tests over random admissible parameters and random smooth fields,
and over arbitrary config text and MFLD1 bytes."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from m3lab.cli import RunConfig, parse_config_text
from m3lab.errors import M3LabError, UnstableStepError
from m3lab.fields import Grid2, ddx, default_dt, inv_dx, meanx, read_mfld1, write_mfld1
from m3lab.frames import bracket
from m3lab.invariants import coeff_densities
from m3lab.lax import _sl2, _sl2_bracket, su2_from_vec
from m3lab.nls import NlsParams, nls_rhs, solve_v_nls
from m3lab.spin import SpinParams, spin_rhs

from conftest import (band_limited, commutator, frame_coeffs, nls_step, smooth_complex,
                      smooth_spin, so3_from_vec, spin_step)

seeds = st.integers(0, 2**32 - 1)
betas = st.sampled_from([1, -1])
schemes = st.sampled_from(["spectral", "central4"])
# |c|, |l| kept off zero: at d = 0 the v prefactor is 1/(4 (2cl)^2), and a
# small 2cl makes the step stiff enough to fail the renormalisation check
away_from_zero = st.floats(0.3, 1.0).flatmap(lambda a: st.sampled_from([a, -a]))


@given(seed=seeds, c=away_from_zero, l=away_from_zero, scheme=schemes)
def test_spin_m3_at_d0_is_m2_bitwise(seed, c, l, scheme):
    g = Grid2(16, 20)
    S = smooth_spin(g, np.random.default_rng(seed))
    m2 = SpinParams(c=c, d=0.0, l=l, model="M2")
    m3 = SpinParams(c=c, d=0.0, l=l, model="M3")
    assert np.array_equal(spin_rhs(g, S, m3, scheme), spin_rhs(g, S, m2, scheme))
    dt = 0.5 * default_dt(g)
    steps = []
    for par in (m3, m2):
        try:
            steps.append(spin_step(g, S, par, dt, scheme))
        except UnstableStepError as exc:  # a stiff draw must abort both alike
            steps.append((None, str(exc)))
    (S3, renorm3), (S2, renorm2) = steps
    assert renorm3 == renorm2
    assert S3 is None or np.array_equal(S3, S2)


@given(seed=seeds, scale=st.floats(0.05, 0.5), beta=betas, scheme=schemes)
def test_nls_m3q_at_0_1_is_zakharov_bitwise(seed, scale, beta, scheme):
    g = Grid2(16, 20)
    q = smooth_complex(g, np.random.default_rng(seed), scale=scale)
    p = beta * np.conj(q)
    m3q = NlsParams(c=0.0, d=1.0, beta=beta, model="M3q")
    zak = NlsParams(c=0.0, d=1.0, beta=beta, model="Zakharov")
    v, _, _ = solve_v_nls(g, q, p, scheme)
    for a, b in zip(nls_rhs(g, q, p, v, m3q, scheme), nls_rhs(g, q, p, v, zak, scheme)):
        assert np.array_equal(a, b)
    dt = 0.5 * default_dt(g)
    assert np.array_equal(nls_step(g, q, m3q, dt, scheme), nls_step(g, q, zak, dt, scheme))


@given(seed=seeds, nx=st.integers(8, 40), ny=st.integers(8, 40),
       lx=st.floats(0.5, 20.0), kmax=st.integers(1, 3), scale=st.floats(0.1, 10.0))
def test_ddx_inverts_inv_dx_up_to_row_mean(seed, nx, ny, lx, kmax, scale):
    g = Grid2(nx, ny, lx=lx)
    f = band_limited(g, np.random.default_rng(seed), kmax=kmax, scale=scale)
    assert np.max(np.abs(ddx(g, inv_dx(g, f).field) - (f - meanx(f)))) < 1e-10


def random_triple(rng, decades):
    """Three (5, 6) planes of signed values spread log-uniformly over `decades` decades."""
    mags = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=(3, 5, 6))
    return tuple(rng.choice([-1.0, 1.0], size=(3, 5, 6)) * mags)


# Equality below is np.array_equal, which is bit for bit except that an exact
# zero may carry either sign.
@given(seed=seeds, decades=st.floats(0.0, 16.0))
def test_bracket_is_the_so3_commutator(seed, decades):
    rng = np.random.default_rng(seed)
    a, b = random_triple(rng, decades), random_triple(rng, decades)
    expect = commutator(so3_from_vec(*a), so3_from_vec(*b))
    assert np.array_equal(so3_from_vec(*bracket(a, b)), expect)


@given(seed=seeds, decades=st.floats(0.0, 16.0))
def test_sl2_bracket_is_the_commutator(seed, decades):
    """The entry bracket against the einsum commutator of the assembled
    traceless matrices, to rounding of the largest product at each point."""
    rng = np.random.default_rng(seed)
    x, y = (tuple(r + 1j * i for r, i in zip(random_triple(rng, decades),
                                             random_triple(rng, decades)))
            for _ in range(2))
    got = _sl2(*_sl2_bracket(x, y))
    expect = commutator(_sl2(*x), _sl2(*y))
    scale = sum(np.abs(e) for e in x) * sum(np.abs(e) for e in y)
    assert np.all(np.abs(got - expect) <= 1e-14 * scale[..., None, None])


@given(seed=seeds, decades=st.floats(0.0, 16.0))
def test_su2_from_vec_is_a_lie_algebra_homomorphism(seed, decades):
    """[su2(a), su2(b)] = su2(bracket(a, b)): the su(2) form of the frame
    transport's flatness is the image of the so(3) triple residual."""
    rng = np.random.default_rng(seed)
    a, b = random_triple(rng, decades), random_triple(rng, decades)
    got = su2_from_vec(*bracket(a, b))
    expect = commutator(su2_from_vec(*a), su2_from_vec(*b))
    scale = sum(np.abs(e) for e in a) * sum(np.abs(e) for e in b)
    assert np.all(np.abs(got - expect) <= 1e-15 * scale[..., None, None])


@given(seed=seeds, decades=st.floats(0.0, 16.0))
def test_coeff_densities_equal_matrix_entry_formula(seed, decades):
    rng = np.random.default_rng(seed)
    (tau, sigma, k), (m1, m2, m3) = random_triple(rng, decades), random_triple(rng, decades)
    co = frame_coeffs(k=k, sigma=sigma, tau=tau, m1=m1, m2=m2, m3=m3)
    A, B = so3_from_vec(tau, sigma, k), so3_from_vec(m1, m2, m3)
    for j, d in enumerate(coeff_densities(co)):
        i, l = (j + 1) % 3, (j + 2) % 3
        assert np.array_equal(d, A[..., j, i] * B[..., j, l] - A[..., j, l] * B[..., j, i])


# ---------------------------------------------------------------------------
# robustness of the two readers
# ---------------------------------------------------------------------------

config_keys = st.sampled_from(sorted(RunConfig.from_text("").values)
                              + ["spin.init.eps", "nls.init.k1", "spin.init."])
config_values = st.one_of(st.text(max_size=12), st.integers().map(str),
                          st.floats().map(repr), st.sampled_from(["1e999", "-0", "0x10", "1_0"]))
config_lines = st.one_of(
    st.text(max_size=40),
    st.builds(lambda key, sep, value: key + sep + value, config_keys,
              st.sampled_from([" = ", "=", " == ", " =# "]), config_values))


# the readers are cheap, so they get more examples than the profile's default
@settings(max_examples=100)
@given(lines=st.lists(config_lines, max_size=6))
def test_parse_config_raises_only_package_errors(lines):
    try:
        parse_config_text("\n".join(lines))
    except M3LabError:
        pass


header_numbers = st.one_of(st.integers(-3, 40), st.integers(), st.floats().map(repr),
                           st.text(max_size=4))
mfld1_headers = st.builds(
    lambda nums, end: ("MFLD1 " + " ".join(str(n) for n in nums) + end).encode(),
    st.lists(header_numbers, min_size=4, max_size=6), st.sampled_from(["\n", "", " \n"]))


@settings(max_examples=100)
@given(head=st.one_of(st.binary(max_size=40), mfld1_headers), body=st.binary(max_size=600))
def test_read_mfld1_raises_only_package_errors(head, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.mfld1")
        with open(path, "wb") as fh:
            fh.write(head + body)
        try:
            read_mfld1(path)
        except M3LabError:
            pass


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(nx=st.integers(8, 12), ny=st.integers(8, 12), ncomp=st.integers(1, 5),
       lx=st.floats(1e-300, 1e300), ly=st.floats(1e-300, 1e300), data=st.data())
def test_mfld1_round_trip_is_bit_exact(nx, ny, ncomp, lx, ly, data):
    grid = Grid2(nx, ny, lx, ly)
    field = data.draw(hnp.arrays(np.float64, (ncomp, ny, nx), elements=finite))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.mfld1")
        write_mfld1(path, grid, field)
        grid2, back = read_mfld1(path)
    assert grid2 == grid
    assert back.tobytes() == field.astype("<f8").tobytes()
