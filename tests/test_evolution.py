import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from nlslab import evolution
from nlslab.evolution import (
    DRIVE_BLOCK,
    DRIVE_FLOOR_LEVELS,
    LADDER_LEVELS,
    PHASE_CACHE_LEVELS,
    POS_LEVEL,
    _LONGDOUBLE,
    _RECORD_ROWS,
    _BrownianDrive,
    _linear_full,
    _nonlinear_half,
    _phase,
    _step_gnls_values,
    EvolveConfig,
    EvolveError,
    NoiseSetup,
    backward_solve,
    integrate,
    step_gnls,
    step_strang,
)
from nlslab.exact import Bubble, BlowupParams, Soliton, SolitonParams, pseudo_conformal_blowup, solitary_wave
from nlslab.grid import ComplexField, l2_norm_sq, make_grid, norm_suite
from nlslab.ground_state import ground_profile
from nlslab.noise import ProfileSpec, build_profiles, coefficient_fields, sample_brownian


@pytest.fixture(scope="module")
def profile():
    return ground_profile(1)


def test_step_plane_wave_exact():
    g = make_grid(1, 2 * np.pi, 64)
    x = g.axis()
    A, k, dt = 0.7, 3.0, 0.01
    f = ComplexField(g, A * np.exp(1j * k * x))
    out = step_strang(f, dt, 5.0)
    exact = A * np.exp(1j * (k * x + (A**4 - k * k) * dt))
    assert np.abs(out.values - exact).max() < 1e-13


def test_step_mass_exact(profile):
    g = make_grid(1, 40, 1024)
    f = profile.sample(g)
    out = step_strang(f, 1e-3, 5.0)
    assert abs(l2_norm_sq(out) - l2_norm_sq(f)) / l2_norm_sq(f) < 1e-14


def test_step_local_order_three(profile):
    g = make_grid(1, 80, 2048)
    sp = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    dt = 2e-3
    errs = []
    for h in (dt, dt / 2):
        exact = solitary_wave(sp, h, g, profile)
        stepped = step_strang(W0, h, 5.0)
        errs.append(np.sqrt(l2_norm_sq(ComplexField(g, stepped.values - exact.values))))
    ratio = errs[0] / errs[1]
    assert 6.0 < ratio < 10.0


def test_gnls_zero_coefficients_bitwise(profile):
    g = make_grid(1, 40, 512)
    prof = build_profiles(ProfileSpec(kind="constant", amplitude=0.8, n_modes=2), g)
    path = sample_brownian(1, np.linspace(0, 1, 11), 2)
    gauge = coefficient_fields(prof, path.values[5])  # t = 0.5
    f = profile.sample(g)
    a = step_gnls(f, 1e-3, 5.0, gauge)
    b = step_strang(f, 1e-3, 5.0)
    assert np.array_equal(a.values, b.values)


def test_soliton_run_error(profile):
    g = make_grid(1, 80, 2048)
    sp = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    cfg = EvolveConfig(p=5.0, v0=W0, t0=0.0, t1=1.0, dt0=1e-3, cadence=10**9)
    traj = integrate(cfg)
    exact = solitary_wave(sp, traj.final_time, g, profile)
    err = np.sqrt(l2_norm_sq(ComplexField(g, traj.final_state.values - exact.values)))
    # second-order splitting at dt=1e-3 over one time unit
    assert err < 3e-4
    assert traj.residual.max() < 1e-12
    assert traj.stop_reason == "reached_end"


def test_blowup_run_stops_and_estimates_T(profile):
    from nlslab.diagnostics import extrapolate_blowup_time

    g = make_grid(1, 40, 2048)
    bp = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    S0 = pseudo_conformal_blowup(bp, 0.0, g, profile)
    cfg = EvolveConfig(
        p=5.0, v0=S0, t0=0.0, t1=1.0, dt0=1e-3,
        g_max=1e5, grad_ref=np.sqrt(profile.grad_sq), width_factor=4.0, cadence=500,
    )
    traj = integrate(cfg)
    assert traj.stop_reason in ("width_resolution", "gradient_threshold")
    assert traj.final_time < 1.0
    t_est = extrapolate_blowup_time(traj.times, traj.grad_norm)
    assert abs(t_est - 1.0) < 0.02


def test_determinism_same_config(profile):
    g = make_grid(1, 40, 512)
    sp = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    noise = NoiseSetup(profiles=ProfileSpec(kind="schwartz", amplitude=0.3, n_modes=2), seed=5)
    cfg = EvolveConfig(p=5.0, v0=W0, t0=0.0, t1=0.25, dt0=1e-3, noise=noise, cadence=50)
    a = integrate(cfg)
    b = integrate(cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.final_state.values, b.final_state.values)
    assert np.array_equal(a.noise_values, b.noise_values)


def test_gnls_smooth_drive_order_two(profile):
    g = make_grid(1, 40, 512)
    sp = SolitonParams(solitons=(Soliton(velocity=(0.5,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    prof = build_profiles(ProfileSpec(kind="schwartz", amplitude=0.3, n_modes=2), g)
    finals = {}
    for dt0 in (4e-3, 2e-3, 1e-3, 5e-4):
        # smooth weights h_l(t) = sin((l + 1) t), frozen at each step midpoint
        f = W0
        for k in range(round(1.0 / dt0)):
            weights = np.sin((np.arange(prof.n_modes) + 1.0) * ((k + 0.5) * dt0))
            f = step_gnls(f, dt0, 5.0, coefficient_fields(prof, weights))
        finals[dt0] = f.values
    e = [
        np.sqrt(l2_norm_sq(ComplexField(g, finals[h] - finals[5e-4])))
        for h in (4e-3, 2e-3, 1e-3)
    ]
    assert np.log2(e[0] / e[1]) > 1.9
    assert np.log2(e[1] / e[2]) > 1.9


def test_gnls_mass_drift_within_budget(profile):
    g = make_grid(1, 40, 512)
    sp = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    W0 = solitary_wave(sp, 0.0, g, profile)
    noise = NoiseSetup(profiles=ProfileSpec(kind="flat", amplitude=0.4, n_modes=2, flat_points=((0.0,),)), seed=2)
    cfg = EvolveConfig(p=5.0, v0=W0, t0=0.0, t1=1.0, dt0=1e-3, noise=noise, cadence=None)
    traj = integrate(cfg)
    assert traj.residual.max() < 1e-12


def test_config_validation(profile):
    g = make_grid(1, 40, 512)
    f = profile.sample(g)
    with pytest.raises(EvolveError):
        EvolveConfig(p=5.0, v0=f, t0=0.0, t1=1.0, dt0=-1e-3)
    with pytest.raises(EvolveError):
        EvolveConfig(p=5.0, v0=f, t0=1.0, t1=0.5, dt0=1e-3)
    cfg = EvolveConfig(p=5.0, v0=f, t0=0.0, t1=1.0, dt0=1e-3, g_max=0.1)
    with pytest.raises(EvolveError):
        integrate(cfg)
    # a NaN bound would switch its stop off; a NaN or infinite time, the clock
    for field, value in [("t0", math.nan), ("t1", math.nan), ("t1", math.inf), ("dt0", math.nan),
                         ("dt0", math.inf), ("g_max", math.nan), ("width_factor", math.nan)]:
        with pytest.raises(EvolveError):
            EvolveConfig(**{"p": 5.0, "v0": f, "t0": 0.0, "t1": 1.0, "dt0": 1e-3, field: value})


def test_noise_span_must_match_path_grid(profile):
    g = make_grid(1, 40, 512)
    f = profile.sample(g)
    noise = NoiseSetup(profiles=ProfileSpec(kind="constant", amplitude=0.1), seed=1)
    cfg = EvolveConfig(p=5.0, v0=f, t0=0.0, t1=0.10037, dt0=1e-3, noise=noise)
    with pytest.raises(EvolveError):
        integrate(cfg)


def test_backward_solve_roundtrip(profile):
    # the discrete Strang step is exactly time-reversible: the forward run
    # undoes the backward solve to rounding
    g = make_grid(1, 40, 512)
    x = g.axis()
    zstar_vals = 0.05 * np.exp(-((x - 5.0) ** 2)).astype(np.complex128)
    zstar = ComplexField(g, zstar_vals)
    z0 = backward_solve(zstar, 1.0, 0.0, 5.0, dt0=1e-3)
    traj = integrate(EvolveConfig(p=5.0, v0=z0, t0=0.0, t1=1.0, dt0=1e-3, adaptive=False,
                                  cadence=None, lean_record=True))
    assert traj.n_steps == 1000
    err = np.sqrt(l2_norm_sq(ComplexField(g, traj.final_state.values - zstar.values)))
    assert err < 1e-12


def test_backward_solve_zero_and_smallness(profile):
    # zero data is refused by the march itself; the smallness bound is a
    # config rule (zstar.amplitude_rel), not the solver's
    g = make_grid(1, 40, 512)
    zero = ComplexField(g, np.zeros(512))
    with pytest.raises(EvolveError, match="identically zero"):
        backward_solve(zero, 1.0, 0.0, 5.0)


def test_backward_solve_small_data_bound(profile):
    g = make_grid(1, 40, 512)
    x = g.axis()
    q_h1 = norm_suite(profile.sample(g)).h1
    vals = np.exp(-((x - 3.0) ** 2)).astype(np.complex128)
    vals *= 0.05 * q_h1 / norm_suite(ComplexField(g, vals)).h1
    zstar = ComplexField(g, vals)
    z0 = backward_solve(zstar, 1.0, 0.0, 5.0, dt0=1e-3)
    assert norm_suite(z0).h1 <= 2.0 * norm_suite(zstar).h1


def test_2d_soliton_short_run():
    prof2 = ground_profile(2)
    g = make_grid(2, 20, 128)
    sp = SolitonParams(solitons=(Soliton(velocity=(0.5, 0.0), width=1.0, position0=(0.0, 0.0)),))
    W0 = solitary_wave(sp, 0.0, g, prof2)
    cfg = EvolveConfig(p=3.0, v0=W0, t0=0.0, t1=0.1, dt0=1e-3, cadence=10**9)
    traj = integrate(cfg)
    exact = solitary_wave(sp, traj.final_time, g, prof2)
    err = np.sqrt(l2_norm_sq(ComplexField(g, traj.final_state.values - exact.values)))
    assert err < 1e-3
    assert traj.residual.max() < 1e-12


def _same_bits(a, b):
    """Equal dtype, values and signs of zero: the same bits, for finite data."""
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


STEP_GRIDS = [(1, 8), (1, 1024), (1, 4096), (2, 8), (2, 16), (2, 256)]
STEP_DTS = (1e-3, 4e-3 * 2.0**-7, 0.37, 1e-3 * 2.0**-0.625)


@pytest.mark.parametrize("d,n", STEP_GRIDS)
@pytest.mark.parametrize("real", [np.longdouble, np.float64])
def test_phase_bitwise_equals_direct_formula(d, n, real):
    # the phase carries the inverse transform's 1/N^d, in the same precision
    g = make_grid(d, 40, n)
    k2 = g.k_squared().astype(real)
    for dt in STEP_DTS:
        direct = np.exp(-1j * k2 * real(dt)) * (real(1.0) / real(n**d))
        _phase.cache_clear()
        cold = _phase(g, dt, real)
        warm = _phase(g, dt, real)
        assert warm is cold  # served from the memo
        assert _same_bits(cold, direct)
        with pytest.raises(ValueError):
            cold[(0,) * d] = 0.0


def _packet(g):
    """A sharply peaked, rough complex field on ``g``."""
    rng = np.random.default_rng(g.points)
    noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return 3.0 * noise * np.exp(-g.radius_squared())


@pytest.mark.parametrize("d,n", STEP_GRIDS)
def test_linear_step_bitwise_equals_scaled_inverse(d, n):
    # folding 1/N^d into the phase and running the inverse unscaled is exact:
    # the round trip is the one whose inverse applies 1/N^d itself
    g = make_grid(d, 40, n)
    v = _packet(g)
    # scipy's pair in extended precision, or in double without a long double
    fwd, inv = (sfft.fft, sfft.ifft) if d == 1 else (sfft.fftn, sfft.ifftn)
    real, cplx = (np.longdouble, np.clongdouble) if _LONGDOUBLE else (np.float64, np.complex128)
    for dt in STEP_DTS:
        phase = np.exp(-1j * g.k_squared().astype(real) * real(dt))
        want = inv(phase * fwd(v.astype(cplx))).astype(np.complex128)
        assert _same_bits(_linear_full(g, v, dt), want)


@pytest.mark.parametrize("d,n", [(1, 4096), (2, 256)])
@pytest.mark.parametrize("p", [3.0, 5.0])
def test_nonlinear_half_bitwise_equals_rotation_product(d, n, p):
    # 2-d N = 256 is past numpy's 256 KB temporary elision: a rotation held
    # in a named array moves the last bit of about a quarter of the entries
    g = make_grid(d, 40, n)
    v = _packet(g)
    dt_half = 0.37e-3
    dens = v.real**2 + v.imag**2
    theta = dens ** (0.5 * (p - 1.0)) * dt_half
    want = v * (np.cos(theta) + 1j * np.sin(theta))
    assert _same_bits(_nonlinear_half(v, dt_half, p), want)


def test_noise_run_independent_of_phase_memo(profile):
    g = make_grid(1, 40, 256)
    noise = NoiseSetup(profiles=ProfileSpec(kind="schwartz", amplitude=0.3, n_modes=2), seed=5)
    cfg = EvolveConfig(
        p=5.0, v0=profile.sample(g), t0=0.0, t1=0.05, dt0=1e-3 / 8,
        noise=noise, cadence=None,
    )
    a = integrate(cfg)  # the memo ends holding this run's last phase
    _phase.cache_clear()
    b = integrate(cfg)
    assert a.n_steps == b.n_steps > 0
    for key in ("times", "mass", "grad_norm"):
        assert np.array_equal(getattr(a, key), getattr(b, key))
    assert _same_bits(a.final_state.values, b.final_state.values)


def test_step_underflow_has_its_own_stop_reason(profile):
    g = make_grid(1, 40, 256)
    noise = NoiseSetup(profiles=ProfileSpec(kind="constant", amplitude=0.1), seed=1, path_dt=1.0)
    cfg = EvolveConfig(p=5.0, v0=profile.sample(g), t0=0.0, t1=1.0, dt0=2.0**-29, noise=noise)
    traj = integrate(cfg)
    assert traj.stop_reason == "step_underflow"
    assert traj.n_steps == 0


def test_one_step_call_per_loop_turn(monkeypatch, profile):
    calls = []
    step = evolution._step_gnls_values
    monkeypatch.setattr(evolution, "_step_gnls_values", lambda *a: calls.append(None) or step(*a))
    g = make_grid(1, 40, 256)
    noise = NoiseSetup(profiles=ProfileSpec(kind="schwartz", amplitude=0.3, n_modes=2), seed=5)
    traj = integrate(EvolveConfig(p=5.0, v0=profile.sample(g), t0=0.0, t1=0.05, dt0=1e-3, noise=noise))
    assert traj.stop_reason == "reached_end"
    assert len(calls) == traj.n_steps > 0
    # |v|^4 of a peak 1.2e77 overflows a double: the phase of a step of any
    # size is non-finite, so the first step call ends the run, which keeps
    # the initial state
    calls.clear()
    v0 = ComplexField(g, 1.2e77 * np.exp(-g.axis() ** 2))
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(EvolveConfig(p=5.0, v0=v0, t0=0.0, t1=0.1, dt0=1e-3, lean_record=True))
    assert traj.stop_reason == "nonfinite"
    assert traj.n_steps == 0
    assert _same_bits(traj.final_state.values, v0.values)
    assert len(calls) == 1


def test_gradient_threshold_stops_at_the_first_record_above_it():
    free = integrate(_bubble_config(t1=0.5))
    assert free.stop_reason == "reached_end"
    g_max = math.sqrt(free.grad_norm[0] * free.grad_norm.max())
    traj = integrate(_bubble_config(t1=0.5, g_max=g_max))
    assert traj.stop_reason == "gradient_threshold"
    first = int(np.argmax(free.grad_norm >= g_max))
    assert traj.n_steps == first > 0
    # the stopped run is the free run's prefix, bitwise
    assert _same_bits(traj.grad_norm, free.grad_norm[:first + 1])
    assert traj.grad_norm[-1] >= g_max > traj.grad_norm[:-1].max()


def _bubble_config(n=1024, t1=1.0, **kw):
    profile = ground_profile(1)
    g = make_grid(1, 40, n)
    bp = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    return EvolveConfig(
        p=5.0, v0=pseudo_conformal_blowup(bp, 0.0, g, profile), t0=0.0, t1=t1,
        dt0=4e-3, grad_ref=np.sqrt(profile.grad_sq), cadence=None,
        **kw,
    )


def _targets(cfg, traj):
    """The step target before each step: dt0 * min(1, (g0/g)^2), or dt0
    for a fixed-step run."""
    g = traj.grad_norm[:-1]
    if not cfg.adaptive:
        return np.full(g.size, cfg.dt0)
    return cfg.dt0 * np.minimum(1.0, (traj.grad_norm[0] / g) ** 2)


def test_adaptive_steps_lie_on_the_ladder():
    cfg = _bubble_config()
    _phase.cache_clear()
    traj = integrate(cfg)
    info = _phase.cache_info()
    assert traj.stop_reason == "width_resolution" and traj.n_steps > 500
    assert np.array_equal(traj.times, _replay_times(cfg, traj))
    dt = np.diff(traj.times)
    level = LADDER_LEVELS * np.log2(cfg.dt0 / dt)
    assert np.abs(level - np.round(level)).max() < 1e-6
    assert np.round(level).min() == 0 and np.round(level).max() >= 2 * LADDER_LEVELS
    # rounded down from the target, by less than one level
    target = _targets(cfg, traj)
    assert np.all(dt <= target * (1 + 1e-12))
    assert np.all(dt > target * 2.0 ** (-1.0 / LADDER_LEVELS))
    # the phase cache holds a few levels and serves nearly every step
    assert info.maxsize == PHASE_CACHE_LEVELS <= 8
    assert info.currsize <= PHASE_CACHE_LEVELS
    assert info.misses <= np.unique(np.round(level)).size + 2
    assert info.hits + info.misses == traj.n_steps


def test_ladder_clips_only_the_last_step_to_the_span():
    cfg = _bubble_config(t1=0.5)
    traj = integrate(cfg)
    assert traj.stop_reason == "reached_end"
    assert abs(traj.final_time - 0.5) < 1e-12
    assert np.array_equal(traj.times, _replay_times(cfg, traj))
    dt = np.diff(traj.times)
    level = LADDER_LEVELS * np.log2(cfg.dt0 / dt[:-1])
    assert np.abs(level - np.round(level)).max() < 1e-6
    assert dt[-1] < cfg.dt0 * 2.0 ** (-np.round(level[-1]) / LADDER_LEVELS)


def test_fixed_step_clock_is_exact():
    # fixed steps land on t0 + k dt0 with no accumulated rounding; the last
    # one is clipped to the end position, within half a unit of t1
    cfg = _bubble_config(n=512, t1=0.3013, adaptive=False)
    traj = integrate(cfg)
    assert traj.stop_reason == "reached_end" and traj.n_steps == 76
    assert np.array_equal(traj.times[:-1], cfg.t0 + np.arange(traj.n_steps) * cfg.dt0)
    assert np.array_equal(traj.times, _replay_times(cfg, traj))
    assert abs(traj.final_time - cfg.t1) <= cfg.dt0 * 2.0 ** -(POS_LEVEL + 1)


def _replay_times(cfg, traj):
    """The clock of every run, replayed from its recorded gradient norms.

    Positions count base_dt 2^-POS_LEVEL, with dt0 = base_dt 2^-j0.  A run
    steps floor(2^(POS_LEVEL - l / LADDER_LEVELS)) at l = 8 j0 plus the
    coarsest ladder level not above the adaptive target; a noise run floors
    that to a multiple of 2^(POS_LEVEL - DRIVE_FLOOR_LEVELS - l // 8); the
    step is clipped to the span.
    """
    base_dt = (cfg.noise.path_dt if cfg.noise else None) or cfg.dt0
    unit = base_dt * 2.0**-POS_LEVEL
    end = int(round((cfg.t1 - cfg.t0) / unit))
    j0 = int(round(math.log2(base_dt / cfg.dt0)))
    pos, times = 0, [cfg.t0]
    for target in _targets(cfg, traj):
        level = LADDER_LEVELS * j0 + max(0, math.ceil(LADDER_LEVELS * math.log2(cfg.dt0 / target)))
        dpos = math.floor(2.0 ** (POS_LEVEL - level / LADDER_LEVELS))
        if cfg.noise is not None:
            grain = 2 ** max(0, POS_LEVEL - DRIVE_FLOOR_LEVELS - level // LADDER_LEVELS)
            dpos = dpos // grain * grain
        pos += min(dpos, end - pos)
        times.append(cfg.t0 + pos * unit)
    return np.array(times)


def test_noise_and_twin_runs_keep_the_ladder_clock():
    # a noise run and its twin (the same run at amplitude 0) step on the
    # ladder, floored to the drive's grain: each step is at most 8.3% below
    # its ladder value, and its midpoint lies at most DRIVE_FLOOR_LEVELS + 1
    # path levels below its octave
    for amplitude in (0.2, 0.0):
        spec = ProfileSpec(kind="schwartz", amplitude=amplitude, n_modes=2)
        cfg = _bubble_config(n=512, noise=NoiseSetup(profiles=spec, seed=3))
        traj = integrate(cfg)
        assert traj.n_steps > 100
        assert np.array_equal(traj.times, _replay_times(cfg, traj))
        unit = cfg.dt0 * 2.0**-POS_LEVEL
        pos = np.rint((traj.times - cfg.t0) / unit).astype(np.int64)
        dpos = np.diff(pos)[:-1]  # the last step is clipped to the span
        level = np.array([
            max(0, math.ceil(LADDER_LEVELS * math.log2(cfg.dt0 / target)))
            for target in _targets(cfg, traj)[:-1]
        ])
        ladder = np.floor(2.0 ** (POS_LEVEL - level / LADDER_LEVELS))
        assert np.all(dpos <= ladder) and np.all(dpos > (1 - 1 / 12) * ladder)
        mid = pos[:-2] + dpos // 2
        assert np.all(POS_LEVEL - np.log2(mid & -mid)
                      <= level // LADDER_LEVELS + DRIVE_FLOOR_LEVELS + 1)


def _off_grid_span_config(**kw):
    # t1 lies 1.5e-12 past the tenth path step, closer to it than half a
    # position unit (4e-3 / 2^31): the span is accepted and ends at 0.04
    g = make_grid(1, 40, 256)
    return EvolveConfig(
        p=5.0, v0=ground_profile(1).sample(g), t0=0.0, t1=0.0400000000015,
        dt0=4e-3, cadence=None, max_steps=200, **kw,
    )


@pytest.mark.parametrize("kw", [
    dict(noise=NoiseSetup(profiles=ProfileSpec(kind="schwartz", amplitude=0.2, n_modes=2), seed=3)),
    dict(noise=NoiseSetup(profiles=ProfileSpec(kind="schwartz", amplitude=0.0, n_modes=2), seed=3)),
], ids=["noise", "twin"])
def test_dyadic_run_ends_at_the_end_position(kw):
    traj = integrate(_off_grid_span_config(**kw))
    assert traj.stop_reason == "reached_end"
    assert traj.n_steps == 10
    assert np.all(np.diff(traj.times) > 0)
    assert traj.final_time == 10 * 2**POS_LEVEL * (4e-3 * 2.0**-POS_LEVEL)


def test_brownian_span_off_the_path_grid_rejected():
    # 1e-10 past the tenth path step is more than half a position unit: the
    # drive would need weights past its last path point
    noise = NoiseSetup(profiles=ProfileSpec(kind="schwartz", amplitude=0.2, n_modes=2), seed=3)
    cfg = dataclasses.replace(_off_grid_span_config(noise=noise), t1=0.0400000001)
    with pytest.raises(EvolveError, match="integer multiple of the path step"):
        integrate(cfg)


def _replay_path(cfg, base_dt):
    """The run's Brownian path, refined (by time) until it holds t."""
    n = int(round((cfg.t1 - cfg.t0) / base_dt))
    return _refined_value_at(sample_brownian(
        cfg.noise.seed, cfg.t0 + np.arange(n + 1) * base_dt, cfg.noise.profiles.n_modes
    ))


def _refined_value_at(path):
    """Lookup by time on ``path``, refined globally until it holds t."""

    def value_at(t):
        nonlocal path
        while True:
            near = np.flatnonzero(np.abs(path.times - t) <= 1e-9 * max(1.0, abs(t)))
            if near.size:
                return path.values[near[0]]
            path = path.refine()

    return value_at


def test_lazy_drive_reads_the_refined_path_bitwise():
    # 37 base intervals: two full blocks and a partial last one; each step
    # looks up its midpoint and its end, as integrate does
    n, base_dt, seed = 37, 1e-3, 40
    unit = base_dt * 2.0**-POS_LEVEL
    end = n << POS_LEVEL
    drive = _BrownianDrive(2, seed, 0.0, base_dt, end)
    value_at = _refined_value_at(sample_brownian(seed, np.arange(n + 1) * base_dt, 2))
    rng = np.random.default_rng(1)
    pos, opened = 0, set()
    while pos < end:
        grain = 1 << (POS_LEVEL - DRIVE_FLOOR_LEVELS - int(rng.integers(0, 4)))
        dpos = min(int(rng.integers(8, 18)) * grain, end - pos)
        for q in (pos + dpos // 2, pos + dpos):
            assert drive.value(q).tobytes() == value_at(q * unit).tobytes()
        opened.add(drive.block)
        pos += dpos
    assert opened == {0, 1, 2}


def test_lazy_drive_keeps_one_block_and_refuses_a_lookup_behind_it():
    n, base_dt, seed = 40, 1e-3, 3
    unit = base_dt * 2.0**-POS_LEVEL
    drive = _BrownianDrive(2, seed, 0.0, base_dt, n << POS_LEVEL)
    value_at = _refined_value_at(sample_brownian(seed, np.arange(n + 1) * base_dt, 2))
    edge = DRIVE_BLOCK << POS_LEVEL  # the first position of block 1
    # block 1 opens deeper than block 0 was refined, skipping block 0's
    # normals of the deeper levels
    for q in (edge - (1 << 27), edge + (1 << 22), edge + (3 << 21)):
        assert drive.value(q).tobytes() == value_at(q * unit).tobytes()
    assert drive.block == 1
    with pytest.raises(EvolveError, match="behind the kept path block"):
        drive.value(edge - (1 << 20))
    # a path point needs no block; block 2 replaces block 1
    assert drive.value(edge).tobytes() == value_at(edge * unit).tobytes()
    assert drive.value(2 * edge + (1 << 29)).tobytes() == value_at((2 * edge + (1 << 29)) * unit).tobytes()
    assert drive.block == 2
    with pytest.raises(EvolveError, match="behind the kept path block"):
        drive.value(edge + (1 << 29))


def _assert_steps_replay(cfg, base_dt):
    """Every recorded step equals a fresh gauged step from the previous
    snapshot, with the weights looked up by time at the step midpoint."""
    traj = integrate(cfg)
    assert len(traj.snapshots) == traj.n_steps + 1
    unit = base_dt * 2.0**-POS_LEVEL
    value_at = _replay_path(cfg, base_dt)
    for (ta, a), (tb, b) in zip(traj.snapshots, traj.snapshots[1:]):
        pa, pb = (int(round((t - cfg.t0) / unit)) for t in (ta, tb))
        dpos = pb - pa
        dt = dpos * unit
        weights = value_at(cfg.t0 + (pa + dpos // 2) * unit)
        gauge = coefficient_fields(traj.profiles, weights)
        assert gauge is not None
        want = _step_gnls_values(cfg.v0.grid, a.values, dt, cfg.p, gauge)
        assert _same_bits(b.values, want)
    return traj


def test_gauged_steps_replay_bitwise_1d():
    # path step 2 dt0, so the midpoints need refinement level 2 and deeper
    noise = NoiseSetup(profiles=ProfileSpec(kind="schwartz", amplitude=0.2, n_modes=2),
                       seed=3, path_dt=8e-3)
    cfg = dataclasses.replace(_bubble_config(n=256, noise=noise), cadence=1)
    traj = _assert_steps_replay(cfg, 8e-3)
    assert traj.stop_reason == "width_resolution"
    levels = np.round(np.log2(8e-3 / np.diff(traj.times)))
    assert levels.min() == 1 and levels.max() >= 2


def test_gauged_steps_replay_bitwise_2d():
    g = make_grid(2, 20, 32)
    r2 = g.radius_squared()
    v0 = ComplexField(g, np.exp(-r2 + 0.3j * g.mesh()[0]))
    noise = NoiseSetup(profiles=ProfileSpec(kind="schwartz", amplitude=0.3, n_modes=2), seed=9)
    cfg = EvolveConfig(p=3.0, v0=v0, t0=0.0, t1=0.04, dt0=2e-3, cadence=1)
    cfg = dataclasses.replace(cfg, noise=noise)
    traj = _assert_steps_replay(cfg, 2e-3)
    assert traj.stop_reason == "reached_end" and traj.n_steps > 20  # dt shrinks


def test_lean_record_keeps_the_clock_and_drops_the_rest():
    noise = NoiseSetup(profiles=ProfileSpec(kind="schwartz", amplitude=0.2, n_modes=2), seed=4)
    full = integrate(_bubble_config(n=256, noise=noise))
    lean = integrate(_bubble_config(n=256, noise=noise, lean_record=True))
    assert (lean.n_steps, lean.stop_reason) == (full.n_steps, full.stop_reason)
    for key in ("times", "mass", "grad_norm", "lam", "residual"):
        assert np.array_equal(getattr(lean, key), getattr(full, key), equal_nan=True)
    assert lean.final_time == full.final_time
    assert _same_bits(lean.final_state.values, full.final_state.values)
    for key in ("hamiltonian", "center", "loc_mass", "momentum", "noise_values", "marty", "smear"):
        assert getattr(lean, key) is None
        assert getattr(full, key) is not None


# every series a run may record: the lean five, then the full record's four,
# then the gauged record's three
_SERIES = ("times", "mass", "grad_norm", "lam", "residual",
           "hamiltonian", "center", "loc_mass", "momentum",
           "noise_values", "marty", "smear")


def _gaussian_config(d, record, **kw):
    """A fixed-step Gaussian below the critical mass on a coarse grid, so
    that a run cheaply outgrows the recorder's first rows; the lean and
    the gauged record run with noise."""
    g = make_grid(d, 20, 64 if d == 1 else 16)
    v0 = ComplexField(g, np.exp(-g.radius_squared() + 0.5j * g.mesh()[0]))
    noise = None if record == "full" else NoiseSetup(
        profiles=ProfileSpec(kind="schwartz", amplitude=0.2, n_modes=2), seed=5)
    return EvolveConfig(p=1.0 + 4.0 / d, v0=v0, t0=0.0, t1=2.0, dt0=1e-3, adaptive=False,
                        cadence=None, noise=noise, lean_record=record == "lean", **kw)


@pytest.mark.parametrize("record", ["lean", "full", "gauged"])
@pytest.mark.parametrize("d", [1, 2])
def test_record_growth_keeps_every_row_bitwise(d, record):
    # a run past the recorder's first rows against one that stays below them
    long = integrate(_gaussian_config(d, record, max_steps=_RECORD_ROWS + 100))
    short = integrate(_gaussian_config(d, record, max_steps=_RECORD_ROWS // 2))
    assert long.n_steps + 1 > _RECORD_ROWS > short.n_steps + 1
    kept = _SERIES[:{"lean": 5, "full": 9, "gauged": 12}[record]]
    assert [name for name in _SERIES if getattr(long, name) is not None] == list(kept)
    widths = {"center": (d,), "momentum": (d,), "noise_values": (2,), "marty": (2,), "smear": (2,)}
    for name in kept:
        a, b = getattr(long, name), getattr(short, name)
        assert a.dtype == np.float64 and a.flags.c_contiguous, name
        assert a.shape == (long.n_steps + 1, *widths.get(name, ())), name
        assert a[: short.n_steps + 1].tobytes() == b.tobytes(), name


def test_record_memory_per_step():
    # the series are preallocated float64 rows, with no Python object per
    # step.  No noise here: a noise run samples its whole base path before
    # the first step, so its peak grows with t1, not with the step count
    g = make_grid(1, 20, 64)
    v0 = ComplexField(g, np.exp(-g.radius_squared() + 0.5j * g.axis()))
    cfg = EvolveConfig(p=5.0, v0=v0, t0=0.0, t1=2.0, dt0=1e-4, adaptive=False, cadence=None)
    integrate(dataclasses.replace(cfg, max_steps=1))  # the grid's and the phase's caches
    tracemalloc.start()
    try:
        traj = integrate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_steps == 20000 and traj.momentum is not None
    assert peak / traj.n_steps < 300
