from dataclasses import replace

import numpy as np
import pytest

from nlslab.grid import gradient_values, laplacian_values, make_grid
from nlslab.noise import (
    BrownianPath,
    NoiseError,
    build_profiles,
    coefficient_fields,
    finite_difference_derivative,
    ProfileSpec,
    sample_brownian,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 40, 512)


# ---------------------------------------------------------------------------
# profiles


def test_constant_profiles_zero_coefficients(grid):
    # psi is constant in space: no gauge factor, the step is plain Strang
    prof = build_profiles(ProfileSpec(kind="constant", amplitude=0.7, n_modes=3), grid)
    path = sample_brownian(1, np.linspace(0, 1, 11), 3)
    w = path.values[5]  # t = 0.5
    assert np.any(w != 0.0)
    assert coefficient_fields(prof, w) is None
    assert all(np.abs(g).max() == 0.0 for g in prof.grad_psi(w))


@pytest.mark.parametrize("order,h", [(0, 0.02), (1, 0.02), (2, 0.02), (3, 0.02), (4, 5e-5), (5, 5e-5)])
def test_flat_profile_derivatives_vanish(order, h, grid):
    prof = build_profiles(ProfileSpec(kind="flat", amplitude=0.5, flat_points=((0.0,),)), grid)
    v = finite_difference_derivative(prof.phi_funcs[0], [0.0], order, axis=0, d=1, h=h)
    assert abs(v) < 1e-6


def test_flat_profile_2d_derivatives_vanish():
    g2 = make_grid(2, 40, 128)
    prof = build_profiles(ProfileSpec(kind="flat", amplitude=0.5, flat_points=((0.0, 0.0), (5.0, 3.0))), g2)
    for pt in ((0.0, 0.0), (5.0, 3.0)):
        for axis in (0, 1):
            for order, h in [(1, 0.02), (2, 0.02), (3, 0.02), (4, 5e-5), (5, 5e-5)]:
                v = finite_difference_derivative(prof.phi_funcs[0], pt, order, axis=axis, d=2, h=h)
                assert abs(v) < 1e-6


def test_profile_tail_flatness_at_edge(grid):
    prof = build_profiles(ProfileSpec(kind="flat", amplitude=0.5, flat_points=((0.0,),)), grid)
    bracket = 1.0 + grid.radius_squared()
    for g in prof.grad[0]:
        assert (bracket * np.abs(g))[[0, -1]].max() < 1e-8


def test_analytic_gradients_match_fd(grid):
    for kind, pts in [("schwartz", ()), ("flat", ((0.0,),))]:
        prof = build_profiles(ProfileSpec(kind=kind, amplitude=0.4, n_modes=2, flat_points=pts), grid)
        x = np.array([-7.3, -2.1, 0.9, 4.4])
        idx = np.searchsorted(grid.axis(), x)
        xg = grid.axis()[idx]
        for l in range(2):
            fd = np.array(
                [
                    finite_difference_derivative(prof.phi_funcs[l], [xi], 1, 0, 1, h=1e-4)
                    for xi in xg
                ]
            )
            assert np.abs(fd - prof.grad[l][0][idx]).max() < 1e-6


def test_flat_points_near_edge_rejected(grid):
    with pytest.raises(NoiseError):
        build_profiles(ProfileSpec(kind="flat", amplitude=0.5, flat_points=((17.0,),)), grid)


@pytest.mark.parametrize("d,n,extent", [(1, 1024, 40), (2, 256, 20)])
@pytest.mark.parametrize("kind", ["constant", "schwartz", "flat_one", "flat_two"])
def test_profile_laplacian_consistency_2d(d, n, extent, kind):
    # the product rule's analytic grad phi and Lap phi against spectral ones;
    # two flat points exercise its cross terms
    g = make_grid(d, extent, n)
    pts = {"flat_one": ((0.0,) * d,), "flat_two": ((0.0,) * d, (3.0,) + (1.0,) * (d - 1))}
    spec = ProfileSpec(kind=kind.split("_")[0], amplitude=0.4, n_modes=3, flat_points=pts.get(kind, ()))
    prof = build_profiles(spec, g)
    for l in range(3):
        phi = prof.phi[l].astype(complex)
        scale = np.abs(prof.phi[l]).max()
        assert scale > 0.0
        for spectral, analytic in zip(gradient_values(g, phi), prof.grad[l]):
            assert np.abs(spectral.real - analytic).max() < 1e-10 * scale
        assert np.abs(laplacian_values(g, phi).real - prof.lap[l]).max() < 1e-10 * scale


# ---------------------------------------------------------------------------
# Brownian paths


def test_brownian_determinism():
    times = np.linspace(0, 1, 101)
    a = sample_brownian(42, times, 3)
    b = sample_brownian(42, times, 3)
    assert np.array_equal(a.values, b.values)
    c = sample_brownian(43, times, 3)
    assert not np.array_equal(a.values, c.values)


def test_brownian_starts_at_zero_prefix_sums():
    times = np.linspace(0, 2, 21)
    p = sample_brownian(9, times, 2)
    assert np.all(p.values[0] == 0.0)
    assert np.allclose(np.cumsum(np.diff(p.values, axis=0), axis=0), p.values[1:], atol=1e-15)


def test_brownian_variance_ensemble():
    # 10^4 paths: sample variance of B(1) within 3 sigma of 1
    vals = np.array(
        [sample_brownian(s, np.array([0.0, 1.0]), 1).values[-1, 0] for s in range(10_000)]
    )
    assert abs(vals.var() - 1.0) < 3.0 * np.sqrt(2.0) / 100.0


def test_brownian_disjoint_increment_correlation():
    times = np.array([0.0, 0.5, 1.0])
    incs = np.array(
        [np.diff(sample_brownian(s, times, 1).values[:, 0]) for s in range(10_000)]
    )
    corr = np.corrcoef(incs[:, 0], incs[:, 1])[0, 1]
    assert abs(corr) < 0.05


def test_brownian_refinement_bitwise():
    times = np.linspace(0, 1, 51)
    p = sample_brownian(7, times, 2)
    fine = p.refine()
    assert np.array_equal(fine.values[0::2], p.values)
    assert np.array_equal(fine.times[0::2], p.times)
    # coarse increments equal sums of the two bridge increments
    fine_incs = np.diff(fine.values, axis=0)
    sums = fine_incs[0::2] + fine_incs[1::2]
    assert np.abs(sums - np.diff(p.values, axis=0)).max() < 1e-14
    again = p.refine()
    assert np.array_equal(fine.values, again.values)


def test_brownian_rejects_bad_grid():
    with pytest.raises(NoiseError):
        sample_brownian(1, np.array([0.0, 0.0, 1.0]), 1)
    with pytest.raises(NoiseError):
        sample_brownian(1, np.array([0.0]), 1)


# ---------------------------------------------------------------------------
# the gauge


def test_gauge_preserves_modulus(grid):
    # the forward gauge X -> v multiplies by conj(e^{i psi}), the inverse by
    # e^{i psi}: each keeps |X| pointwise and the two undo each other
    prof = build_profiles(ProfileSpec(kind="schwartz", amplitude=0.6, n_modes=2), grid)
    path = sample_brownian(5, np.linspace(0, 1, 11), 2)
    gauge = coefficient_fields(prof, path.values[5])  # t = 0.5
    assert gauge is not None
    rng = np.random.default_rng(0)
    X = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    v = np.conj(gauge) * X
    mod_err = np.abs(np.abs(v) - np.abs(X))
    assert mod_err.max() < 1e-15 * np.abs(X).max()
    back = gauge * v
    assert np.abs(back - X).max() < 1e-13


def test_coefficient_structure(grid):
    # the gauge factor is e^{i psi}: unimodular, so it keeps the modulus
    prof = build_profiles(ProfileSpec(kind="schwartz", amplitude=0.5, n_modes=2), grid)
    path = sample_brownian(3, np.linspace(0, 1, 11), 2)
    w = path.values[4]  # t = 0.4
    gauge = coefficient_fields(prof, w)
    assert gauge is not None
    assert np.array_equal(gauge, np.exp(1j * prof.psi(w)))
    assert np.abs(np.abs(gauge) - 1.0).max() < 1e-15
    rng = np.random.default_rng(1)
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    assert np.abs(np.abs(gauge * v) - np.abs(v)).max() < 1e-15 * np.abs(v).max()


@pytest.mark.parametrize("d, n", [(1, 512), (1, 1024), (1, 4096), (2, 256)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 100.0])
def test_coefficient_fields_bitwise_complex_exp(d, n, scale):
    # the factor is built as cos + i sin, bitwise np.exp(1j * psi) for every
    # psi a profile set gives (a sum started at +0, so never -0)
    g = make_grid(d, 40, n)
    rng = np.random.default_rng(n)
    prof = replace(
        build_profiles(ProfileSpec(kind="schwartz", amplitude=0.5, n_modes=2), g),
        phi=[rng.standard_normal(g.shape) for _ in range(2)],
    )
    w = scale * rng.standard_normal(2)
    want = np.exp(1j * prof.psi(w))
    assert coefficient_fields(prof, w).tobytes() == want.tobytes()


def test_coefficients_vanish_at_flat_points(grid):
    # grad psi and Lap psi vanish at a flat point, and the factor is 1 there
    prof = build_profiles(ProfileSpec(kind="flat", amplitude=0.5, flat_points=((0.0,),)), grid)
    path = sample_brownian(11, np.linspace(0, 1, 11), 1)
    w = path.values[5]  # t = 0.5
    i0 = np.argmin(np.abs(grid.axis()))
    assert abs(prof.grad_psi(w)[0][i0]) < 1e-12
    assert abs(prof.lap[0][i0] * w[0]) < 1e-12
    gauge = coefficient_fields(prof, w)
    assert abs(gauge[i0] - 1.0) < 1e-12


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["schwartz", "flat"])
def test_gauge_conjugation_identity(d, kind):
    # e^{-i psi} Lap(e^{i psi} v) = Lap v + a1 . grad v + a0 v with the gauged
    # coefficients a1 = 2i grad(psi), a0 = -|grad psi|^2 + i Lap(psi), from the
    # profiles' analytic derivatives: the identity behind the gauged step
    g = make_grid(d, 20, 256)
    flat_points = ((0.0,) * d, (3.0,) + (1.0,) * (d - 1)) if kind == "flat" else ()
    prof = build_profiles(ProfileSpec(kind=kind, amplitude=0.5, n_modes=2, flat_points=flat_points), g)
    w = np.array([0.7, -0.4])
    v = np.exp(-0.5 * g.radius_squared() + 1j * g.mesh()[0])
    psi = prof.psi(w)
    grad_psi = prof.grad_psi(w)
    lap_psi = sum(lap * wl for lap, wl in zip(prof.lap, w))
    lhs = np.exp(-1j * psi) * laplacian_values(g, np.exp(1j * psi) * v)
    a1 = [2j * gp for gp in grad_psi]
    a0 = -sum(gp**2 for gp in grad_psi) + 1j * lap_psi
    rhs = (
        laplacian_values(g, v)
        + sum(a * gv for a, gv in zip(a1, gradient_values(g, v)))
        + a0 * v
    )
    assert np.abs(a0).max() > 0.01
    assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(rhs)


def test_profile_spec_rejects_bad_modes(grid):
    with pytest.raises(NoiseError):
        build_profiles(ProfileSpec(kind="schwartz", amplitude=0.1, n_modes=9), grid)
    with pytest.raises(NoiseError):
        build_profiles(ProfileSpec(kind="schwartz", amplitude=-0.1), grid)
    with pytest.raises(NoiseError):
        build_profiles(ProfileSpec(kind="bogus", amplitude=0.1), grid)
