"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one ``[criterion NN] PASS|FAIL`` line; a session that
records all 16 lines writes them to ``acceptance_report.txt``.  Expensive
runs are shared through session fixtures.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from nlslab import diagnostics as diag
from nlslab.evolution import EvolveConfig, NoiseSetup, backward_solve, integrate
from nlslab.exact import (
    Bubble,
    BlowupParams,
    Soliton,
    SolitonParams,
    pseudo_conformal_blowup,
    solitary_wave,
)
from nlslab.grid import ComplexField, l2_norm_sq, make_grid, norm_suite
from nlslab.ground_state import (
    ground_profile,
    radial_shooting_oracle,
    solve_ground_state,
    variational_identities,
)
from nlslab.noise import ProfileSpec
from nlslab.scenario import build_scenario, parse_config_text, run_scenario

_REPORT = []


def criterion(num: int, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    _REPORT.append((num, line))
    assert ok, line


def _runtime(num: int, elapsed: float, cap: float) -> str:
    """Print a criterion's runtime, which varies from run to run and so stays
    out of the committed report; returns "under" or "over" the cap."""
    print(f"[criterion {num:02d}] runtime {elapsed:.2f}s (cap {cap:g}s)", flush=True)
    return "under" if elapsed < cap else "over"


_N_CRITERIA = 16


@pytest.fixture(scope="session", autouse=True)
def write_report():
    yield
    # Only a session that recorded every criterion rewrites the report; a
    # partial run (``-k criterion_05``, say) leaves the full report intact.
    if {num for num, _ in _REPORT} != set(range(1, _N_CRITERIA + 1)):
        return
    lines = [line for _, line in sorted(_REPORT)]
    Path(__file__).resolve().parent.parent.joinpath("acceptance_report.txt").write_text(
        "\n".join(lines) + "\n"
    )


@pytest.fixture(scope="session")
def profile_1d():
    return ground_profile(1)


@pytest.fixture(scope="session")
def gs_solve_1d():
    grid = make_grid(1, 40, 1024)
    t0 = time.perf_counter()
    gs = solve_ground_state(grid, 5.0, tol=1e-11)
    return gs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def gs_solve_2d():
    return solve_ground_state(make_grid(2, 40, 256), 3.0, tol=1e-11)


@pytest.fixture(scope="session")
def blowup_run(profile_1d):
    """Critical-mass blow-up trajectory shared by criteria 4 and 6-8."""
    grid = make_grid(1, 40, 4096)
    params = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(0.0,), width=1.0),))
    initial = pseudo_conformal_blowup(params, 0.0, grid, profile_1d)
    cfg = EvolveConfig(
        p=5.0, v0=initial, t0=0.0, t1=1.0, dt0=2.5e-4,
        g_max=1e5, grad_ref=np.sqrt(profile_1d.grad_sq), width_factor=4.0,
        cadence=2000,
    )
    traj = integrate(cfg)
    mask = traj.grad_norm >= 1.2 * traj.grad_norm[0]
    fit = diag.blowup_rate_fit(traj.times[mask], traj.grad_norm[mask])
    return dict(grid=grid, params=params, traj=traj, fit=fit)


@pytest.fixture(scope="session")
def soliton_run(profile_1d):
    """Soliton oracle run at the stated configuration (criterion 5)."""
    grid = make_grid(1, 80, 2048)
    params = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    initial = solitary_wave(params, 0.0, grid, profile_1d)
    cfg = EvolveConfig(
        p=5.0, v0=initial, t0=0.0, t1=5.0, dt0=1e-3,
        grad_ref=np.sqrt(profile_1d.grad_sq), cadence=10**9,
    )
    t0 = time.perf_counter()
    traj = integrate(cfg)
    elapsed = time.perf_counter() - t0
    exact = solitary_wave(params, traj.final_time, grid, profile_1d)
    err = np.sqrt(l2_norm_sq(ComplexField(grid, traj.final_state.values - exact.values)))
    return dict(traj=traj, err=err, elapsed=elapsed)


@pytest.fixture(scope="session")
def banica_runs(profile_1d):
    """Critical-mass noise trajectories for three profile kinds (criterion 9)."""
    grid = make_grid(1, 40, 512)
    params = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    initial = solitary_wave(params, 0.0, grid, profile_1d)
    runs = {}
    for kind, pts in (("constant", ()), ("schwartz", ()), ("flat", ((0.0,),))):
        spec = ProfileSpec(kind=kind, amplitude=0.3, n_modes=2, flat_points=pts)
        cfg = EvolveConfig(
            p=5.0, v0=initial, t0=0.0, t1=0.5, dt0=1e-3,
            noise=NoiseSetup(profiles=spec, seed=3), cadence=None,
        )
        runs[kind] = integrate(cfg)
    return runs


@pytest.fixture(scope="session")
def multibubble_run(profile_1d):
    grid = make_grid(1, 80, 4096)
    params = BlowupParams(
        blowup_time=1.0,
        bubbles=(
            Bubble(position=(-10.0,), width=1.0, phase=0.0),
            Bubble(position=(10.0,), width=1.0, phase=0.5),
        ),
    )
    initial = pseudo_conformal_blowup(params, 0.0, grid, profile_1d)
    cfg = EvolveConfig(
        p=5.0, v0=initial, t0=0.0, t1=0.8, dt0=1e-3,
        g_max=1e5, grad_ref=np.sqrt(profile_1d.grad_sq), cadence=400,
    )
    return dict(grid=grid, params=params, traj=integrate(cfg))


@pytest.fixture(scope="session")
def bourgain_wang_run(profile_1d):
    grid = make_grid(1, 80, 4096)
    params = BlowupParams(blowup_time=1.0, bubbles=(Bubble(position=(-5.0,), width=1.0),))
    bubble0 = pseudo_conformal_blowup(params, 0.0, grid, profile_1d)
    q_h1 = norm_suite(profile_1d.sample(grid)).h1
    r2 = grid.radius_squared((10.0,))
    zvals = np.exp(-r2).astype(np.complex128)
    zvals *= 0.05 * q_h1 / norm_suite(ComplexField(grid, zvals)).h1
    zstar = ComplexField(grid, zvals)
    z0 = backward_solve(zstar, 1.0, 0.0, 5.0, dt0=1e-3)
    initial = ComplexField(grid, bubble0.values + z0.values)
    cfg = EvolveConfig(
        p=5.0, v0=initial, t0=0.0, t1=0.8, dt0=1e-3,
        g_max=1e5, grad_ref=np.sqrt(profile_1d.grad_sq), cadence=400,
    )
    return dict(grid=grid, params=params, traj=integrate(cfg), z0=z0, zstar=zstar)


@pytest.fixture(scope="session")
def loglog_run(profile_1d):
    grid = make_grid(1, 40, 4096)
    r2 = grid.radius_squared()
    vals = np.exp(-r2).astype(np.complex128)
    vals *= np.sqrt(1.2 * profile_1d.mass_sq / l2_norm_sq(ComplexField(grid, vals)))
    cfg = EvolveConfig(
        p=5.0, v0=ComplexField(grid, vals), t0=0.0, t1=2.0, dt0=1e-3,
        g_max=1e5, grad_ref=np.sqrt(profile_1d.grad_sq), cadence=1000,
    )
    traj = integrate(cfg)
    mask = traj.grad_norm >= 1.2 * traj.grad_norm[0]
    fit = diag.blowup_rate_fit(traj.times[mask], traj.grad_norm[mask])
    return dict(traj=traj, fit=fit)


# ---------------------------------------------------------------------------


def test_criterion_01_ground_state_oracle(gs_solve_1d):
    gs, elapsed = gs_solve_1d
    x = gs.field.grid.axis()
    target = 3**0.25 * np.cosh(2.0 * x) ** -0.5
    err = np.abs(gs.field.values.real - target).max()
    runtime = _runtime(1, elapsed, 10.0)
    criterion(
        1,
        err < 1e-8 and runtime == "under",
        f"1d ground state: Linf error {err:.2e} (tol 1e-8), runtime {runtime} the 10s cap",
    )


def test_criterion_02_variational_identities(gs_solve_1d, gs_solve_2d):
    details = []
    ok = True
    for gs in (gs_solve_1d[0], gs_solve_2d):
        rep = variational_identities(gs)
        ok = ok and abs(rep.hamiltonian) <= 1e-8 * rep.grad_sq and rep.pohozaev_gap_rel < 1e-7
        details.append(
            f"d={gs.field.grid.d}: |H|/|gradQ|^2 {abs(rep.hamiltonian) / rep.grad_sq:.1e}, gap {rep.pohozaev_gap_rel:.1e}"
        )
    criterion(2, ok, "; ".join(details))


def test_criterion_03_2d_mass_cross_oracle(gs_solve_2d):
    table = radial_shooting_oracle(2, 3.0)
    rel = abs(gs_solve_2d.mass_sq - table.mass_sq) / table.mass_sq
    criterion(
        3,
        rel < 1e-3,
        f"2d mass: grid {gs_solve_2d.mass_sq:.6f} vs shooting {table.mass_sq:.6f}, rel {rel:.1e} (tol 1e-3)",
    )


def test_criterion_04_mass_exactness_and_h_drift(
    profile_1d, blowup_run, soliton_run, banica_runs, multibubble_run, bourgain_wang_run, loglog_run
):
    det_drifts = {
        "blowup": blowup_run["traj"].residual.max(),
        "soliton": soliton_run["traj"].residual.max(),
        "multibubble": multibubble_run["traj"].residual.max(),
        "bourgain_wang": bourgain_wang_run["traj"].residual.max(),
        "loglog": loglog_run["traj"].residual.max(),
    }
    noise_drifts = {k: t.residual.max() for k, t in banica_runs.items()}
    det_ok = max(det_drifts.values()) < 1e-12
    noise_ok = max(noise_drifts.values()) < 1e-10

    # Hamiltonian drift order check on a genuinely deforming solution
    grid = make_grid(1, 40, 1024)
    r2 = grid.radius_squared()
    vals = np.exp(-r2 / 2).astype(np.complex128)
    vals *= np.sqrt(0.8 * profile_1d.mass_sq / l2_norm_sq(ComplexField(grid, vals)))
    drifts = {}
    for dt0 in (2e-3, 1e-3):
        cfg = EvolveConfig(
            p=5.0, v0=ComplexField(grid, vals), t0=0.0, t1=1.0, dt0=dt0,
            cadence=None, adaptive=False,
        )
        tr = integrate(cfg)
        drifts[dt0] = np.abs(tr.hamiltonian - tr.hamiltonian[0]).max()
    ratio = drifts[2e-3] / drifts[1e-3]
    ratio_ok = 2.8 <= ratio <= 5.2
    criterion(
        4,
        det_ok and noise_ok and ratio_ok,
        f"mass drift: det max {max(det_drifts.values()):.1e} (tol 1e-12), "
        f"gauged max {max(noise_drifts.values()):.1e} (tol 1e-10); "
        f"H-drift halving ratio {ratio:.2f} (4 +/- 30%)",
    )


def test_criterion_05_soliton_oracle(soliton_run):
    err = soliton_run["err"]
    elapsed = soliton_run["elapsed"]
    runtime = _runtime(5, elapsed, 60.0)
    criterion(
        5,
        err < 1e-4 and runtime == "under",
        f"soliton L2 error {err:.3e} (tol 1e-4), runtime {runtime} the 60s cap; "
        f"error is second-order in dt and meets 1e-4 at dt0=2.5e-4, not at the stated dt0=1e-3",
    )


def test_criterion_06_blowup_oracle(profile_1d, blowup_run):
    traj = blowup_run["traj"]
    grid = blowup_run["grid"]
    params = blowup_run["params"]
    times = np.array([t for t, _ in traj.snapshots])
    idx = int(np.argmin(np.abs(times - 0.9)))
    t_chk, snap = traj.snapshots[idx]
    exact = pseudo_conformal_blowup(params, t_chk, grid, profile_1d)
    rel = np.sqrt(
        l2_norm_sq(ComplexField(grid, snap.values - exact.values)) / l2_norm_sq(exact)
    )
    fit = blowup_run["fit"]
    ok = (
        abs(t_chk - 0.9) < 6e-3
        and rel < 1e-3
        and abs(fit.alpha - 1.0) <= 0.05
        and abs(fit.t_est - 1.0) <= 0.02
    )
    criterion(
        6,
        ok,
        f"rel L2 error {rel:.2e} at t={t_chk:.4f} (tol 1e-3); "
        f"alpha {fit.alpha:.3f} (1 +/- 0.05), T_est {fit.t_est:.4f} (1 +/- 0.02)",
    )


def test_criterion_07_virial_vanishing(profile_1d, blowup_run):
    traj = blowup_run["traj"]
    fit = blowup_run["fit"]
    mf = diag.modulation_fit(traj.final_state, profile_1d)
    times = np.array([t for t, _ in traj.snapshots])
    vir = np.array([diag.virial(s, mf.center, None) for _, s in traj.snapshots])
    beta = diag.fit_time_power(times[:-1], vir[:-1], fit.t_est)
    bound = traj.grad_norm**2 * (fit.t_est - traj.times) ** 2
    ok = abs(beta - 2.0) <= 0.1 and bound.min() > 0.5
    criterion(
        7,
        ok,
        f"virial exponent {beta:.3f} (2 +/- 0.1); rate bound min {bound.min():.3f} (> 0.5)",
    )


def test_criterion_08_concentration_and_universality(profile_1d, blowup_run):
    traj = blowup_run["traj"]
    mf = diag.modulation_fit(traj.final_state, profile_1d)
    conc = diag.localized_mass(traj.final_state, mf.center, 1.0)
    ok = conc >= 0.99 * profile_1d.mass_sq and mf.resid_h1 < 0.05
    criterion(
        8,
        ok,
        f"localized mass {conc:.6f} vs 0.99 Q^2 {0.99 * profile_1d.mass_sq:.6f}; "
        f"modulation residual H1 {mf.resid_h1:.4f} (tol 0.05)",
    )


def test_criterion_09_banica_suite(profile_1d, banica_runs):
    q_mass = np.sqrt(profile_1d.mass_sq)
    details = []
    ok = True
    for kind, traj in banica_runs.items():
        sweep = diag.banica_sweep(traj, q_mass, slack=1e-10)
        ok = ok and sweep.satisfied
        details.append(f"{kind}: worst {sweep.max_violation:.1e} over {sweep.n_checked}")
    criterion(9, ok, "pairing bound at every step, slack 1e-10; " + "; ".join(details))


def test_criterion_10_hamiltonian_evolution_refinement(profile_1d):
    grid = make_grid(1, 40, 512)
    params = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    initial = solitary_wave(params, 0.0, grid, profile_1d)
    spec = ProfileSpec(kind="schwartz", amplitude=0.3, n_modes=1)
    maxima = []
    for dt0 in (1e-3, 5e-4, 2.5e-4):
        cfg = EvolveConfig(
            p=5.0, v0=initial, t0=0.0, t1=0.5, dt0=dt0,
            noise=NoiseSetup(profiles=spec, seed=3, path_dt=1e-3),
            adaptive=False, cadence=None,
        )
        traj = integrate(cfg)
        _, r = diag.hamiltonian_evolution_residual(traj)
        maxima.append(float(np.abs(r).max()))
    ok = maxima[0] > maxima[1] > maxima[2]
    criterion(
        10,
        ok,
        "Ito-identity residual over dt {1e-3, 5e-4, 2.5e-4}: "
        + " > ".join(f"{m:.2e}" for m in maxima),
    )


def test_criterion_11_virial_evolution_identity(profile_1d):
    grid = make_grid(1, 40, 1024)
    params = SolitonParams(solitons=(Soliton(velocity=(1.0,), width=1.0),))
    initial = solitary_wave(params, 0.0, grid, profile_1d)
    cut = diag.build_cutoff(2.0)
    res = {}
    for cad in (10, 5):
        cfg = EvolveConfig(
            p=5.0, v0=initial, t0=0.0, t1=1.0, dt0=2.5e-4,
            cadence=cad, adaptive=False,
        )
        traj = integrate(cfg)
        _, r = diag.virial_evolution_residual(traj, (0.0,), cut)
        res[cad] = float(np.abs(r).max())
    ok = res[10] < 1e-6 and res[10] / res[5] >= 2.0
    criterion(
        11,
        ok,
        f"residual {res[10]:.2e} (tol 1e-6) at cadence 10; ratio {res[10] / res[5]:.2f} under doubling (>= 2)",
    )


GAUGE_CFG = """
scenario.kind = snls_gauge_check
grid.d = 1
grid.L = 40
grid.N = 512
soliton.waves = 1.0:1.0:0.0:0.0
noise.kind = constant
noise.amplitude = 0.5
noise.modes = 2
noise.seed = 7
evolve.t1 = 0.5
evolve.dt0 = 1e-3
evolve.cadence = 50
"""


def test_criterion_12_gauge_equivalence(tmp_path):
    sc = build_scenario(parse_config_text(GAUGE_CFG))
    summary, code = run_scenario(sc, tmp_path / "gauge")
    ok = (
        code == 0
        and summary["gauge_max_modulus_diff"] < 1e-10
        and summary["gauge_same_stop_step"] is True
    )
    criterion(
        12,
        ok,
        f"max pointwise modulus diff {summary['gauge_max_modulus_diff']:.1e} (tol 1e-10); "
        f"same stop step: {summary['gauge_same_stop_step']}",
    )


def test_criterion_13_multi_bubble(profile_1d, multibubble_run):
    traj = multibubble_run["traj"]
    params = multibubble_run["params"]
    grid = multibubble_run["grid"]
    centers = [b.position for b in params.bubbles]
    worst_h1 = 0.0
    worst_pb = 0.0
    for t, snap in traj.snapshots:
        ref = pseudo_conformal_blowup(params, t, grid, profile_1d)
        res = diag.profile_residuals(snap, ref, centers)
        worst_h1 = max(worst_h1, res.h1)
        worst_pb = max(worst_pb, max(b[1] for b in res.per_bubble))
    ok = traj.stop_reason == "reached_end" and worst_h1 < 0.1 and worst_pb < 0.1
    criterion(
        13,
        ok,
        f"two bubbles, separation 20: H1 residual max {worst_h1:.4f}, per-bubble {worst_pb:.4f} (tol 0.1)",
    )


def test_criterion_14_bourgain_wang(profile_1d, bourgain_wang_run):
    traj = bourgain_wang_run["traj"]
    grid = bourgain_wang_run["grid"]
    params = bourgain_wang_run["params"]
    zstar = bourgain_wang_run["zstar"]
    q_h1 = norm_suite(profile_1d.sample(grid)).h1
    amp_rel = norm_suite(zstar).h1 / q_h1
    z_vals = bourgain_wang_run["z0"].values.copy()
    tz = 0.0
    worst = 0.0
    for t, snap in traj.snapshots:
        if t > tz:
            z_vals = integrate(EvolveConfig(
                p=5.0, v0=ComplexField(grid, z_vals), t0=tz, t1=t, dt0=1e-3,
                adaptive=False, cadence=None, lean_record=True,
            )).final_state.values
            tz = t
        ref = pseudo_conformal_blowup(params, t, grid, profile_1d)
        diff = snap.values - ref.values - z_vals
        worst = max(worst, np.sqrt(l2_norm_sq(ComplexField(grid, diff))))
    ok = abs(amp_rel - 0.05) < 1e-6 and worst < 0.05
    criterion(
        14,
        ok,
        f"|z*|_H1 = {amp_rel:.4f} Q_H1; residual L2 max {worst:.4f} over [0, 0.8] (tol 0.05)",
    )


def test_criterion_15_rate_law_discrimination(loglog_run):
    rng = np.random.default_rng(2024)
    mistakes = 0
    for i in range(20):
        T = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.5, 5.0))
        # window stays below 1/e so the log-log factor is well defined
        left = np.logspace(-6, -0.75, 120)[::-1] * float(rng.uniform(0.8, 1.6))
        t = T - left
        noise = 1.0 + 0.002 * rng.standard_normal(left.size)
        if i % 2 == 0:
            g = c / left * noise
            want = "pseudoconformal"
        else:
            g = c * np.sqrt(np.log(np.abs(np.log(left))) / left) * noise
            want = "loglog"
        fit = diag.blowup_rate_fit(t, g)
        if diag.classify_rate(fit) != want:
            mistakes += 1
    alpha = loglog_run["fit"].alpha
    soft_ok = 0.4 <= alpha <= 0.75
    criterion(
        15,
        mistakes == 0 and soft_ok,
        f"synthetic discrimination: {mistakes}/20 misclassified; "
        f"supercritical run alpha {alpha:.3f} (soft band [0.4, 0.75])",
    )


DETERMINISM_CFG = """
scenario.kind = multi_soliton
grid.d = 1
grid.L = 40
grid.N = 256
soliton.waves = 1.0:1.0:0.0:0.0
noise.kind = schwartz
noise.amplitude = 0.3
noise.modes = 2
noise.seed = 11
evolve.t1 = 0.25
evolve.dt0 = 1e-3
evolve.cadence = 50
"""


def test_criterion_16_bitwise_determinism(tmp_path):
    sc = build_scenario(parse_config_text(DETERMINISM_CFG))
    run_scenario(sc, tmp_path / "a")
    run_scenario(sc, tmp_path / "b")
    compared = []
    ok = True
    for fa in sorted((tmp_path / "a").rglob("*")):
        if fa.is_dir():
            continue
        rel = fa.relative_to(tmp_path / "a")
        fb = tmp_path / "b" / rel
        same = fb.exists() and fa.read_bytes() == fb.read_bytes()
        ok = ok and same
        compared.append(str(rel))
    criterion(
        16,
        ok and len(compared) >= 6,
        f"re-run reproduces {len(compared)} artifacts bitwise: {', '.join(compared)}",
    )
