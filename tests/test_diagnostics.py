import numpy as np
import pytest

from nlslab.diagnostics import (
    DiagnosticsError,
    banica_sweep,
    blowup_rate_fit,
    build_cutoff,
    classify_rate,
    extrapolate_blowup_time,
    fit_time_power,
    functionals,
    hamiltonian_evolution_residual,
    localized_mass,
    modulation_fit,
    profile_residuals,
    theta_radial,
    virial,
    virial_evolution_residual,
)
from nlslab.evolution import EvolveConfig, NoiseSetup, integrate
from nlslab.exact import Bubble, BlowupParams, Soliton, SolitonParams, pseudo_conformal_blowup, solitary_wave
from nlslab.grid import ComplexField, make_grid
from nlslab.ground_state import ground_profile
from nlslab.noise import ProfileSpec


@pytest.fixture(scope="module")
def profile():
    return ground_profile(1)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 40, 1024)


@pytest.fixture(scope="module")
def q_mass(profile):
    return np.sqrt(profile.mass_sq)


# ---------------------------------------------------------------------------
# functionals


def test_hamiltonian_vanishes_on_ground_state(profile, grid):
    f = functionals(profile.sample(grid))
    assert abs(f.hamiltonian) < 1e-8 * f.grad_l2**2


def test_mass_constant_along_blowup_family(profile, grid, q_mass):
    params = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    for t in (0.0, 0.4, 0.8):
        f = functionals(pseudo_conformal_blowup(params, t, grid, profile))
        assert f.mass == pytest.approx(q_mass, rel=1e-10)


def test_soliton_hamiltonian(profile, grid):
    sp = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    f = functionals(solitary_wave(sp, 0.0, grid, profile))
    assert f.hamiltonian == pytest.approx(profile.mass_sq / 8.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Banica


def _one_record(v):
    # the recorder's integrands of v alone: a run stopped before its first step
    return integrate(EvolveConfig(5.0, v, 0.0, 1.0, 1e-3, max_steps=0, cadence=None))


def test_banica_real_field_zero_lhs(profile, grid, q_mass):
    traj = _one_record(profile.sample(grid))
    assert np.abs(traj.momentum).max() < 1e-12
    sweep = banica_sweep(traj, q_mass)
    assert sweep.satisfied
    assert sweep.n_checked == 1


def test_banica_boosted_state(profile, grid, q_mass):
    vals = profile.sample(grid).values * np.exp(1j * 0.7 * grid.axis())
    traj = _one_record(ComplexField(grid, vals))
    sweep = banica_sweep(traj, q_mass)
    assert sweep.satisfied
    # the bound is sharp on boosted ground states: |P| = sqrt(2 H M)
    rhs = np.sqrt(2.0 * traj.hamiltonian[0] * traj.mass[0] ** 2)
    assert abs(traj.momentum[0, 0]) == pytest.approx(rhs, rel=1e-6)
    assert abs(sweep.max_violation) < 1e-9


def test_banica_mass_precondition(profile, grid, q_mass):
    doubled = ComplexField(grid, 2.0 * profile.sample(grid).values)
    with pytest.raises(DiagnosticsError):
        banica_sweep(_one_record(doubled), q_mass)


def test_banica_sweep_over_noise_run(profile, q_mass):
    g = make_grid(1, 40, 512)
    sp = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    noise = NoiseSetup(profiles=ProfileSpec(kind="schwartz", amplitude=0.3, n_modes=2), seed=3)
    traj = integrate(EvolveConfig(p=5.0, v0=W0, t0=0.0, t1=0.25, dt0=1e-3, noise=noise, cadence=None))
    sweep = banica_sweep(traj, q_mass)
    assert sweep.satisfied
    assert sweep.n_checked > 500


# ---------------------------------------------------------------------------
# cutoff virial


def test_theta_shape():
    r = np.linspace(0, 4, 2001)
    th, dth = theta_radial(r)
    assert np.all(th <= r**2 + 1e-14)
    assert np.all(th[r >= 3] == 0.0)
    inner = r <= 1
    assert np.abs(th[inner] - r[inner] ** 2).max() < 1e-14
    cut = build_cutoff(1.0)
    mask = th > 1e-200
    assert np.all(dth[mask] ** 2 <= (cut.chord_constant + 1e-6) * th[mask])


def test_virial_cutoff_below_uncut(profile, grid):
    cut = build_cutoff(3.0)
    sp = SolitonParams(solitons=(Soliton(velocity=(0.0,), width=1.0),))
    f = solitary_wave(sp, 0.0, grid, profile)
    assert virial(f, (0.0,), cut) <= virial(f, (0.0,), None)
    zero = ComplexField(grid, np.zeros(grid.shape))
    assert virial(zero, (0.0,), cut) == 0.0


def test_virial_monotone_in_cutoff_scale(profile, grid):
    f = profile.sample(grid)
    uncut = virial(f, (0.0,), None)
    vals = [virial(f, (0.0,), build_cutoff(m)) for m in (1.0, 2.0, 4.0, 6.0)]
    assert all(vals[i] <= vals[i + 1] + 1e-14 for i in range(len(vals) - 1))
    assert vals[-1] <= uncut + 1e-12
    assert vals[-1] == pytest.approx(uncut, rel=1e-6)


def test_blowup_virial_quadratic_vanishing(profile):
    g = make_grid(1, 40, 4096)
    params = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    for t in (0.0, 0.5, 0.8):
        f = pseudo_conformal_blowup(params, t, g, profile)
        expect = (1.0 - t) ** 2 * profile.moment2
        assert virial(f, (0.0,), None) == pytest.approx(expect, rel=1e-8)


def test_virial_evolution_residual_quadrature(profile):
    g = make_grid(1, 40, 1024)
    sp = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    cut = build_cutoff(2.0)
    res = {}
    for cad in (10, 5):
        cfg = EvolveConfig(p=5.0, v0=W0, t0=0.0, t1=1.0, dt0=2.5e-4, cadence=cad, adaptive=False)
        traj = integrate(cfg)
        _, r = virial_evolution_residual(traj, (0.0,), cut)
        res[cad] = np.abs(r).max()
    assert res[10] < 1e-6
    assert res[10] / res[5] >= 2.0


def test_virial_constant_for_standing_soliton(profile):
    g = make_grid(1, 40, 1024)
    sp = SolitonParams(solitons=(Soliton(velocity=(0.0,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    cut = build_cutoff(2.0)
    cfg = EvolveConfig(p=5.0, v0=W0, t0=0.0, t1=1.0, dt0=2.5e-4, cadence=10, adaptive=False)
    traj = integrate(cfg)
    _, r = virial_evolution_residual(traj, (0.0,), cut)
    assert np.abs(r).max() < 1e-10
    series = [virial(s, (0.0,), cut) for _, s in traj.snapshots]
    assert max(series) - min(series) < 1e-5


# ---------------------------------------------------------------------------
# localized mass


def test_localized_mass_total_and_core(profile, grid):
    f = profile.sample(grid)
    total = localized_mass(f, (0.0,), grid.extent)
    assert total == pytest.approx(profile.mass_sq, rel=1e-12)
    core = localized_mass(f, (0.0,), 5.0)
    assert core > 0.999 * profile.mass_sq


# ---------------------------------------------------------------------------
# modulation fit


def test_modulation_roundtrip_family_member(profile, grid):
    lam0, y0, g0 = 0.6, -2.3456789, 1.1
    x = grid.axis()
    vals = lam0**-0.5 * profile.radial(np.abs(x - y0) / lam0) * np.exp(1j * g0)
    fit = modulation_fit(ComplexField(grid, vals), profile)
    assert abs(fit.scale - lam0) < 1e-8
    assert abs(fit.center[0] - y0) < 1e-8
    assert abs(fit.phase - g0) < 1e-8
    assert fit.resid_l2 < 1e-8
    # refit of the reconstruction returns identical parameters
    vals2 = fit.scale**-0.5 * profile.radial(np.abs(x - fit.center[0]) / fit.scale) * np.exp(1j * fit.phase)
    fit2 = modulation_fit(ComplexField(grid, vals2), profile)
    assert abs(fit2.scale - fit.scale) < 1e-8
    assert abs(fit2.center[0] - fit.center[0]) < 1e-8
    assert abs(fit2.phase - fit.phase) < 1e-8


def test_modulation_identity_on_q(profile, grid):
    fit = modulation_fit(profile.sample(grid), profile)
    assert fit.scale == pytest.approx(1.0, abs=1e-10)
    assert abs(fit.center[0]) < 1e-10
    assert abs(fit.phase) < 1e-10


def test_modulation_scale_of_blowup_state(profile):
    from nlslab.exact import blowup_modulation_scale

    g = make_grid(1, 40, 4096)
    params = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    for t in (0.3, 0.7):
        f = pseudo_conformal_blowup(params, t, g, profile)
        fit = modulation_fit(f, profile)
        assert fit.scale == pytest.approx(blowup_modulation_scale(profile, 1.0, 1.0 - t), rel=1e-8)


def test_modulation_rejects_zero(profile, grid):
    with pytest.raises(DiagnosticsError):
        modulation_fit(ComplexField(grid, np.zeros(grid.shape)), profile)


# ---------------------------------------------------------------------------
# rate fits


def test_rate_fit_synthetic_pseudoconformal():
    t = np.linspace(0, 0.99, 120)
    fit = blowup_rate_fit(t, 2.0 / (1.0 - t))
    assert abs(fit.alpha - 1.0) < 1e-6
    assert abs(fit.t_est - 1.0) < 1e-6
    assert classify_rate(fit) == "pseudoconformal"


def test_rate_fit_synthetic_loglog():
    left = np.logspace(-6, -0.7, 150)[::-1]
    t = 1.0 - left
    g = np.sqrt(np.log(np.abs(np.log(left))) / left)
    fit = blowup_rate_fit(t, g)
    assert 0.45 <= fit.alpha <= 0.6
    assert fit.loglog_score > 0
    assert classify_rate(fit) == "loglog"


def test_rate_fit_scaling_invariance():
    t = np.linspace(0, 0.95, 60)
    g = 1.7 / (1.0 - t) ** 1.1
    f1 = blowup_rate_fit(t, g)
    f2 = blowup_rate_fit(t, 55.0 * g)
    assert f1.alpha == pytest.approx(f2.alpha, abs=1e-8)
    assert f1.t_est == pytest.approx(f2.t_est, abs=1e-8)


def test_rate_fit_preconditions():
    t = np.linspace(0, 0.5, 30)
    with pytest.raises(DiagnosticsError):
        blowup_rate_fit(t, np.full(30, 2.0))  # no growth
    with pytest.raises(DiagnosticsError):
        blowup_rate_fit(t[:10], 1.0 / (1.0 - t[:10]))  # too few samples


def test_extrapolate_blowup_time_exact_on_linear():
    t = np.linspace(0, 0.98, 200)
    assert extrapolate_blowup_time(t, 3.0 / (1.0 - t)) == pytest.approx(1.0, abs=1e-9)


def test_fit_time_power():
    t = np.linspace(0, 0.9, 50)
    v = 2.5 * (1.0 - t) ** 2
    assert fit_time_power(t, v, 1.0) == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Hamiltonian evolution identity and profile residuals


def test_hevo_residual_deterministic_is_drift(profile):
    g = make_grid(1, 40, 512)
    sp = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    traj = integrate(EvolveConfig(p=5.0, v0=W0, t0=0.0, t1=1.0, dt0=1e-3, cadence=None))
    _, r = hamiltonian_evolution_residual(traj)
    assert np.abs(r).max() < 1e-8


def test_hevo_residual_constant_profiles(profile):
    g = make_grid(1, 40, 512)
    sp = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    noise = NoiseSetup(profiles=ProfileSpec(kind="constant", amplitude=0.5, n_modes=2), seed=9)
    traj = integrate(EvolveConfig(p=5.0, v0=W0, t0=0.0, t1=1.0, dt0=1e-3, noise=noise, cadence=None))
    assert np.abs(traj.marty).max() == 0.0
    assert np.abs(traj.smear).max() == 0.0
    _, r = hamiltonian_evolution_residual(traj)
    assert np.abs(r).max() < 1e-8


def test_hevo_residual_decreases_under_refinement(profile):
    g = make_grid(1, 40, 512)
    sp = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    prof = ProfileSpec(kind="schwartz", amplitude=0.3, n_modes=1)
    maxima = []
    for dt0 in (1e-3, 5e-4, 2.5e-4):
        cfg = EvolveConfig(
            p=5.0, v0=W0, t0=0.0, t1=0.5, dt0=dt0,
            noise=NoiseSetup(profiles=prof, seed=3, path_dt=1e-3),
            adaptive=False, cadence=None,
        )
        traj = integrate(cfg)
        _, r = hamiltonian_evolution_residual(traj)
        maxima.append(np.abs(r).max())
    assert maxima[0] > maxima[1] > maxima[2]


def test_profile_residuals_exact_and_linear(profile):
    g = make_grid(1, 80, 2048)
    params = BlowupParams(
        blowup_time=1.0,
        bubbles=(Bubble(position=(-10.0,), width=1.0), Bubble(position=(10.0,), width=1.0)),
    )
    ref = pseudo_conformal_blowup(params, 0.2, g, profile)
    res = profile_residuals(ref, ref, [(-10.0,), (10.0,)])
    assert res.l2 == 0.0 and res.h1 == 0.0
    x = g.axis()
    bump_vals = 0.01 * np.exp(-(x**2))
    bump = ComplexField(g, bump_vals)
    from nlslab.grid import l2_norm_sq

    noisy = ComplexField(g, ref.values + bump_vals)
    res2 = profile_residuals(noisy, ref, [(-10.0,), (10.0,)])
    assert res2.l2 == pytest.approx(np.sqrt(l2_norm_sq(bump)), rel=1e-6)
    assert len(res2.per_bubble) == 2


def test_modulation_ambiguity_flag(profile):
    g = make_grid(1, 80, 2048)
    params = BlowupParams(
        blowup_time=1.0,
        bubbles=(Bubble(position=(-10.0,), width=1.0), Bubble(position=(10.0,), width=1.0)),
    )
    two = pseudo_conformal_blowup(params, 0.2, g, profile)
    assert modulation_fit(two, profile).ambiguous_center is True
    one = profile.sample(g)
    assert modulation_fit(one, profile).ambiguous_center is False


def test_modulation_fit_2d():
    prof2 = ground_profile(2)
    g = make_grid(2, 20, 128)
    lam0, y0 = 0.8, np.array([0.731, -1.173])
    r = np.sqrt(g.radius_squared(y0))
    vals = lam0**-1.0 * prof2.radial(r / lam0) * np.exp(0.4j)
    fit = modulation_fit(ComplexField(g, vals), prof2)
    assert abs(fit.scale - lam0) < 1e-4
    assert np.abs(fit.center - y0).max() < 1e-6
    assert abs(fit.phase - 0.4) < 1e-6
