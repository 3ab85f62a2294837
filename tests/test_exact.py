import numpy as np
import pytest

from nlslab.exact import (
    BlowupParams,
    Bubble,
    ProfileError,
    Soliton,
    SolitonParams,
    blowup_grad_sq,
    pseudo_conformal_blowup,
    pseudo_conformal_map,
    solitary_wave,
)
from nlslab.grid import ComplexField, grad_norm_sq, l2_norm_sq, make_grid
from nlslab.ground_state import ground_profile


@pytest.fixture(scope="module")
def profile():
    return ground_profile(1)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 40, 1024)


def test_single_bubble_at_unit_width(profile, grid):
    params = BlowupParams(blowup_time=2.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    f = pseudo_conformal_blowup(params, 1.0, grid, profile)
    x = grid.axis()
    expected = profile.radial(np.abs(x)) * np.exp(1j * (-np.abs(x) ** 2 / 4.0 + 1.0))
    assert np.abs(f.values - expected).max() < 1e-12


def test_bubble_mass_is_ground_state_mass(profile, grid):
    params = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    for t in (0.0, 0.5, 0.8):
        f = pseudo_conformal_blowup(params, t, grid, profile)
        assert l2_norm_sq(f) == pytest.approx(profile.mass_sq, rel=1e-10)


def test_bubble_gradient_norm_formula(profile):
    grid = make_grid(1, 40, 4096)
    params = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    for t in (0.0, 0.5, 0.8):
        f = pseudo_conformal_blowup(params, t, grid, profile)
        assert grad_norm_sq(f) == pytest.approx(
            blowup_grad_sq(profile, 1.0, 1.0 - t), rel=1e-9
        )


def test_bubble_rejects_late_time_and_thin_width(profile, grid):
    params = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    with pytest.raises(ProfileError):
        pseudo_conformal_blowup(params, 1.0, grid, profile)
    with pytest.raises(ProfileError):
        pseudo_conformal_blowup(params, 1.0 - 2.0 * grid.dx, grid, profile)


def test_bubble_parameter_validation():
    with pytest.raises(ProfileError):
        BlowupParams(blowup_time=np.inf, bubbles=(Bubble(position=(0.0,), width=1.0),))
    with pytest.raises(ProfileError):
        BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=-1.0),))
    with pytest.raises(ProfileError):
        BlowupParams(
            blowup_time=1.0,
            bubbles=(
                Bubble(position=(0.0,), width=1.0),
                Bubble(position=(0.0,), width=2.0),
            ),
        )


def test_multi_bubble_mass_additivity(profile):
    grid = make_grid(1, 80, 2048)
    params = BlowupParams(
        blowup_time=1.0,
        bubbles=(
            Bubble(position=(-10.0,), width=1.0),
            Bubble(position=(10.0,), width=1.0),
        ),
    )
    f = pseudo_conformal_blowup(params, 0.0, grid, profile)
    assert abs(l2_norm_sq(f) - 2.0 * profile.mass_sq) < 1e-6


def test_soliton_at_rest_is_rotating_ground_state(profile, grid):
    params = SolitonParams(solitons=(Soliton(velocity=(0.0,), width=1.0),))
    t = 0.7
    f = solitary_wave(params, t, grid, profile)
    expected = profile.radial(np.abs(grid.axis())) * np.exp(1j * t)
    assert np.abs(f.values - expected).max() < 1e-12


def test_soliton_mass_independent_of_time_and_speed(profile, grid):
    for c, t in [(0.0, 0.0), (1.0, 2.0), (-2.0, 3.0)]:
        params = SolitonParams(solitons=(Soliton(velocity=(c,), width=1.0),))
        f = solitary_wave(params, t, grid, profile)
        assert l2_norm_sq(f) == pytest.approx(profile.mass_sq, rel=1e-10)


def test_soliton_translation_by_cross_correlation(profile):
    grid = make_grid(1, 80, 2048)
    params = SolitonParams(solitons=(Soliton(velocity=(2.0,), width=1.0),))
    f0 = solitary_wave(params, 0.0, grid, profile)
    f1 = solitary_wave(params, 1.5, grid, profile)
    corr = np.fft.ifft(np.fft.fft(np.abs(f1.values) ** 2) * np.conj(np.fft.fft(np.abs(f0.values) ** 2)))
    shift = np.argmax(corr.real) * grid.dx
    assert shift == pytest.approx(3.0, abs=grid.dx)


def test_soliton_outside_box_rejected(profile, grid):
    params = SolitonParams(solitons=(Soliton(velocity=(10.0,), width=1.0),))
    with pytest.raises(ProfileError):
        solitary_wave(params, 2.0, grid, profile)


def test_soliton_velocity_distinctness():
    with pytest.raises(ProfileError):
        SolitonParams(
            solitons=(
                Soliton(velocity=(1.0,), width=1.0),
                Soliton(velocity=(1.0,), width=2.0, position0=(3.0,)),
            )
        )


def test_subcritical_soliton_scaling(profile):
    grid = make_grid(1, 40, 1024)
    prof3 = ground_profile(1, 3.0)
    params = SolitonParams(solitons=(Soliton(velocity=(0.0,), width=2.0),))
    f = solitary_wave(params, 0.0, grid, prof3)
    # subcritical scaling w^{-2/(p-1)} = 1/w at the profile's p = 3
    assert np.abs(f.values).max() == pytest.approx(prof3.radial(0.0) / 2.0, rel=1e-10)


def test_conformal_map_reproduces_blowup_profile(profile):
    grid = make_grid(1, 40, 2048)
    w, T, t = 1.0, 1.0, 0.3
    soliton = SolitonParams(solitons=(Soliton(velocity=(0.0,), width=w),))
    inner = solitary_wave(soliton, 1.0 / (T - t), grid, profile)
    mapped, inner_time = pseudo_conformal_map(inner, t, T, direction="forward")
    assert inner_time == pytest.approx(1.0 / (T - t))
    params = BlowupParams(blowup_time=T, bubbles=(Bubble(position=(0.0,), width=w),))
    direct = pseudo_conformal_blowup(params, t, grid, profile)
    assert np.abs(mapped.values - direct.values).max() < 1e-8


def test_conformal_map_norm_preservation(profile):
    grid = make_grid(1, 40, 2048)
    x = grid.axis()
    f = ComplexField(grid, np.exp(-(x**2)) * np.exp(0.2j * x))
    mapped, _ = pseudo_conformal_map(f, 0.3, 1.0, direction="forward")
    assert abs(l2_norm_sq(mapped) - l2_norm_sq(f)) < 1e-10 * l2_norm_sq(f)


def test_conformal_map_roundtrip(profile):
    grid = make_grid(1, 40, 2048)
    x = grid.axis()
    f = ComplexField(grid, np.exp(-(x**2) / 2) * np.exp(0.1j * x**2))
    T, t = 1.0, 0.25
    fwd, s = pseudo_conformal_map(f, t, T, direction="forward")
    back, _ = pseudo_conformal_map(fwd, s, T, direction="inverse")
    assert np.abs(back.values - f.values).max() < 1e-10


def test_conformal_map_guards(profile):
    grid = make_grid(1, 40, 2048)
    x = grid.axis()
    f = ComplexField(grid, np.exp(-(x**2) / 64))  # wide content
    with pytest.raises(ProfileError):
        pseudo_conformal_map(f, 1.0, 1.0, direction="forward")
    with pytest.raises(ProfileError):
        # inverse at t = 3 magnifies the content past the box
        pseudo_conformal_map(f, 3.0, 1.0, direction="inverse")
