import warnings

import numpy as np
import pytest

from nlslab.grid import ComplexField, l2_norm_sq, make_grid
from nlslab.ground_state import (
    GroundStateError,
    closed_form_radial,
    elliptic_residual,
    gn_ratio,
    ground_profile,
    radial_shooting_oracle,
    solve_ground_state,
    variational_identities,
)


@pytest.fixture(scope="module")
def grid_1d():
    return make_grid(1, 40, 1024)


@pytest.fixture(scope="module")
def gs_1d(grid_1d):
    return solve_ground_state(grid_1d, 5.0, tol=1e-11)


@pytest.fixture(scope="module")
def gs_2d():
    return solve_ground_state(make_grid(2, 40, 256), 3.0, tol=1e-11)


def test_closed_form_peak_values(grid_1d):
    peak = ground_profile(1, 5.0).sample(grid_1d).values.real.max()
    assert peak == pytest.approx(3**0.25, rel=1e-12)
    q3 = closed_form_radial(3.0)
    x = np.linspace(-3, 3, 41)
    assert np.abs(q3(np.abs(x)) - np.sqrt(2) / np.cosh(x)).max() < 1e-13


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 5.0])
def test_closed_form_elliptic_residual(p, grid_1d):
    assert elliptic_residual(ground_profile(1, p).sample(grid_1d), p) < 1e-10


def test_closed_form_range_check():
    with pytest.raises(GroundStateError):
        ground_profile(1, 6.0)


def test_solver_matches_closed_form(gs_1d, grid_1d):
    exact = ground_profile(1, 5.0).sample(grid_1d)
    assert np.abs(gs_1d.field.values - exact.values).max() < 1e-8


def test_solver_positive_even(gs_1d):
    vals = gs_1d.field.values.real
    assert vals.min() >= 0
    assert vals[1:].min() > 0  # interior strictly positive
    assert np.abs(vals[1:] - vals[1:][::-1]).max() < 1e-8


def test_solver_fixed_point_when_seeded_exactly(grid_1d):
    # one semi-implicit update of the exact state is the identity up to rounding
    from nlslab.grid import laplacian_values

    exact = ground_profile(1, 5.0).sample(grid_1d).values.real
    dtau = 0.1
    sym = 1.0 / (1.0 + dtau * (1.0 + grid_1d.k_squared()))
    stepped = np.fft.ifft(sym * np.fft.fft(exact + dtau * exact**5)).real
    mass0 = np.sqrt(np.sum(exact**2))
    stepped *= mass0 / np.sqrt(np.sum(stepped**2))
    assert np.abs(stepped - exact).max() < 1e-11


def test_solver_grid_refinement_invariance():
    coarse = solve_ground_state(make_grid(1, 40, 512), 5.0, tol=1e-11)
    fine = solve_ground_state(make_grid(1, 40, 1024), 5.0, tol=1e-11)
    assert coarse.amplitude == pytest.approx(fine.amplitude, abs=1e-9)
    assert coarse.mass_sq == pytest.approx(fine.mass_sq, rel=1e-10)


def test_solver_rejects_coarse_grid():
    with pytest.raises(GroundStateError):
        solve_ground_state(make_grid(1, 40, 128), 5.0)


def test_solver_subcritical_matches_closed_form():
    grid = make_grid(1, 40, 1024)
    gs = solve_ground_state(grid, 3.0, tol=1e-11)
    exact = ground_profile(1, 3.0).sample(grid)
    assert np.abs(gs.field.values - exact.values).max() < 1e-8


def test_2d_mass_against_shooting(gs_2d):
    table = radial_shooting_oracle(2, 3.0)
    assert abs(gs_2d.mass_sq - table.mass_sq) / table.mass_sq < 1e-3


def test_shooting_1d_recovers_closed_form():
    table = radial_shooting_oracle(1, 5.0, tol=1e-10)
    assert abs(table.amplitude - 3**0.25) < 1e-6
    assert table.mass_sq == pytest.approx(np.sqrt(3) * np.pi / 2, rel=1e-5)


def test_shooting_2d_reference_values():
    table = radial_shooting_oracle(2, 3.0)
    assert table.amplitude == pytest.approx(2.2062, abs=2e-4)
    assert table.mass_sq == pytest.approx(11.7009, abs=2e-3)


def test_shooting_monotone_decay():
    table = radial_shooting_oracle(2, 3.0)
    inside = table.r < 15.0
    q = table.q[inside]
    assert np.all(np.diff(q) < 1e-12)


def test_shooting_tolerance_self_consistency():
    a1 = radial_shooting_oracle(2, 3.0, tol=1e-10).amplitude
    a2 = radial_shooting_oracle(2, 3.0, tol=1e-13).amplitude
    assert abs(a1 - a2) < 1e-8


def test_elliptic_residual_zero_field(grid_1d):
    assert elliptic_residual(ComplexField(grid_1d, np.zeros(1024)), 5.0) == 0.0


def test_elliptic_residual_doubled_state(grid_1d):
    q = ground_profile(1, 5.0).sample(grid_1d)
    doubled = ComplexField(grid_1d, 2.0 * q.values)
    q5 = ComplexField(grid_1d, q.values.real**5)
    expected = 30.0 * np.sqrt(l2_norm_sq(q5))
    assert elliptic_residual(doubled, 5.0) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("dim", [1, 2])
def test_variational_identities(dim, gs_1d, gs_2d):
    gs = gs_1d if dim == 1 else gs_2d
    rep = variational_identities(gs)
    assert abs(rep.hamiltonian) <= 1e-8 * rep.grad_sq
    assert rep.pohozaev_gap_rel < 1e-7
    assert rep.gn_ratio_self > 1 - 1e-6


def test_gn_ratio_below_one_for_gaussian(gs_1d, grid_1d):
    x = grid_1d.axis()
    v = ComplexField(grid_1d, np.exp(-(x**2) / 2))
    assert gn_ratio(v, gs_1d.mass_sq) < 1.0


def test_gn_ratio_random_smooth_fields(gs_1d, grid_1d):
    # the sharp Gagliardo-Nirenberg inequality, under two Gaussian envelopes
    rng = np.random.default_rng(7)
    x = grid_1d.axis()
    k = grid_1d.wavenumbers()
    for envelope in (40, 50):
        for _ in range(100):
            spec = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
            spec *= np.exp(-np.abs(k))
            vals = np.fft.ifft(spec) * np.exp(-(x**2) / envelope)
            if not np.any(vals):
                continue
            assert gn_ratio(ComplexField(grid_1d, vals), gs_1d.mass_sq) <= 1.0 + 1e-9


def test_ground_profile_moments():
    prof = ground_profile(1)
    assert prof.mass_sq == pytest.approx(np.sqrt(3) * np.pi / 2, rel=1e-12)
    # d/2 * mass identity for the critical exponent
    assert prof.grad_sq == pytest.approx(0.5 * prof.mass_sq, rel=1e-10)
    prof2 = ground_profile(2)
    assert prof2.grad_sq == pytest.approx(prof2.mass_sq, rel=1e-6)


def test_closed_form_far_tail_raises_no_overflow_warning():
    # a contracted bubble evaluates Q at |x| / lambda of several hundred,
    # where cosh overflows; the tail is the correct 0 and must not warn
    from nlslab.exact import BlowupParams, Bubble, pseudo_conformal_blowup

    grid = make_grid(1, 40, 4096)
    params = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = pseudo_conformal_blowup(params, 0.95, grid, ground_profile(1))
        tail = closed_form_radial(5.0)(np.array([0.0, 400.0, np.inf]))
    assert np.abs(f.values).max() > 1.0
    assert tail[0] == pytest.approx(3**0.25) and tail[1] == 0.0 and tail[2] == 0.0
