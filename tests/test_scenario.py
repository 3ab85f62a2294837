import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import nlslab
import nlslab.scenario as scenario
from nlslab import diagnostics as diag
from nlslab import cli
from nlslab.exact import ProfileError
from nlslab.grid import ComplexField
from nlslab.scenario import (
    SCENARIO_KINDS,
    SCHEMA,
    ConfigError,
    build_scenario,
    ensemble_summary,
    load_scenario,
    parse_config_text,
    render_config,
    run_ensemble,
    run_scenario,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GAUGE_CHECK = """
scenario.kind = snls_gauge_check
grid.d = 1
grid.L = 40
grid.N = 256
soliton.waves = 1.0:1.0:0.0:0.0
noise.kind = constant
noise.amplitude = 0.5
noise.modes = 2
noise.seed = 7
evolve.t0 = 0
evolve.t1 = 0.25
evolve.dt0 = 1e-3
evolve.cadence = 50
output.snapshots = final
"""

SOLITON_RUN = """
scenario.kind = multi_soliton
grid.d = 1
grid.L = 80
grid.N = 512
soliton.waves = 2.0:1.0:0.0:-8.0;-2.0:1.0:0.5:8.0
physics.p = 3
evolve.t1 = 0.5
evolve.dt0 = 1e-3
evolve.cadence = 100
"""


def test_parse_and_roundtrip_keys():
    cfg = parse_config_text(GAUGE_CHECK)
    sc = build_scenario(cfg)
    assert sc.kind == "snls_gauge_check"
    assert sc.noise_modes == 2
    assert sc.solitons[0].velocity == (1.0,)


def test_parse_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_config_text("scenario.kind critical_blowup")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2")
    with pytest.raises(ConfigError):
        build_scenario(parse_config_text("scenario.kind = bogus\nevolve.t1 = 1"))
    with pytest.raises(ConfigError, match="unknown config keys"):
        build_scenario(
            parse_config_text("scenario.kind = loglog_supercritical\nevolve.t1 = 1\nmystery.key = 3")
        )


def test_custom_kind_rejected():
    assert "custom" not in SCENARIO_KINDS
    with pytest.raises(ConfigError, match="scenario.kind must be one of"):
        build_scenario(parse_config_text("scenario.kind = custom\nevolve.t1 = 1"))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_rendered_config_loads_back_equal(path):
    sc = load_scenario(path)
    text = render_config(sc)
    assert build_scenario(parse_config_text(text)) == sc
    assert render_config(build_scenario(parse_config_text(text))) == text


_floats = st.floats(allow_nan=False, width=64)


def _point(d):
    return st.lists(_floats, min_size=d, max_size=d).map(lambda xs: ",".join(map(repr, xs)))


@st.composite
def _config_text(draw):
    """Config text that sets every schema key to a valid value; keys with a
    default may be left out."""
    kind = draw(st.sampled_from(SCENARIO_KINDS))
    d = draw(st.sampled_from([1, 2]))
    critical = 1.0 + 4.0 / d
    subcritical_ok = d == 1 and kind not in (
        "critical_blowup", "multi_bubble", "bourgain_wang", "loglog_supercritical"
    )
    p = draw(st.floats(1.0, critical, exclude_min=True)) if subcritical_ok else critical
    pt = _point(d)
    bubble = st.tuples(pt, _floats, _floats).map(lambda b: f"{b[0]}:{b[1]!r}:{b[2]!r}")
    wave = st.tuples(pt, _floats, _floats, pt).map(
        lambda w: f"{w[0]}:{w[1]!r}:{w[2]!r}:{w[3]}"
    )
    noise = "none" if kind == "bourgain_wang" else draw(
        st.sampled_from(["none", "constant", "schwartz", "flat"])
    )
    values = {
        "scenario.kind": kind,
        "grid.d": d,
        "grid.L": repr(draw(_floats)),
        "grid.N": draw(st.integers()),
        "physics.p": repr(p),
        "blowup.bubbles": ";".join(draw(st.lists(bubble, min_size=2, max_size=3))),
        "blowup.T": repr(draw(_floats)),
        "soliton.waves": ";".join(draw(st.lists(wave, min_size=1, max_size=3))),
        "zstar.amplitude_rel": repr(draw(st.floats(max_value=0.1, allow_nan=False))),
        "zstar.center": draw(pt),
        "zstar.width": repr(draw(_floats)),
        "noise.kind": noise,
        "noise.amplitude": repr(draw(_floats)),
        "noise.modes": draw(st.integers()),
        "noise.seed": draw(st.integers(0, 2**64 - 1)),
        "noise.flat_points": ";".join(draw(st.lists(pt, min_size=1, max_size=3))),
        "noise.sigma": repr(draw(_floats)),
        "noise.drive": draw(st.sampled_from(["brownian", "sin"])),
        "init.mass_sq_ratio": repr(draw(_floats)),
        "init.width": repr(draw(_floats)),
        "evolve.t0": repr(draw(st.floats(min_value=0.0, exclude_min=True, allow_nan=False))),
        "evolve.t1": repr(draw(_floats)),
        "evolve.dt0": repr(draw(_floats)),
        "evolve.gmax": repr(draw(_floats)),
        "evolve.width_factor": repr(draw(_floats)),
        "evolve.cadence": draw(st.integers()),
        "output.dir": draw(st.text("abcXYZ019_-./", min_size=1)),
        "output.snapshots": draw(st.sampled_from(["none", "final", "all"])),
        "ensemble.size": draw(st.integers(min_value=1)),
        "ensemble.workers": draw(st.integers(min_value=1)),
    }
    assert set(values) == {row.key for row in SCHEMA}
    keep = {"scenario.kind", "grid.d", "evolve.t1", "blowup.bubbles", "soliton.waves", "evolve.t0"}
    dropped = draw(st.sets(st.sampled_from(sorted(set(values) - keep))))
    return "".join(f"{k} = {v}\n" for k, v in values.items() if k not in dropped)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_config_text())
def test_config_parse_render_parse_roundtrip(text):
    sc = build_scenario(parse_config_text(text))
    assert build_scenario(parse_config_text(render_config(sc))) == sc


def test_run_config_txt_replays_the_run(tmp_path):
    text = """
scenario.kind = loglog_supercritical
grid.L = 40
grid.N = 256
init.mass_sq_ratio = 1.5
init.width = 1.0
zstar.amplitude_rel = 0.08
zstar.width = 2
evolve.t1 = 0.01
evolve.cadence = 5
ensemble.workers = 2
output.dir = runs/loglog
"""
    sc = build_scenario(parse_config_text(text))
    outdir = tmp_path / "run"
    run_scenario(sc, outdir)
    assert load_scenario(outdir / "config.txt") == sc


def test_diagnose_uses_the_runs_ground_profile(tmp_path):
    # p = 3: the critical profile of d = 1 would give another mass
    text = (CONFIGS / "multi_soliton_subcritical.cfg").read_text().replace(
        "evolve.t1 = 5.0", "evolve.t1 = 0.2"
    )
    sc = build_scenario(parse_config_text(text))
    assert sc.p == 3.0 and sc.t1 == 0.2
    run_scenario(sc, tmp_path / "run")
    res = CliRunner().invoke(cli.main, ["diagnose", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["concentration"]["fraction"] == summary["concentration"]["fraction"]

    (tmp_path / "run" / "config.txt").write_text("scenario.kind = nosuch\nevolve.t1 = 1\n")
    res = CliRunner().invoke(cli.main, ["diagnose", str(tmp_path / "run")])
    assert res.exit_code == 2
    assert "config error" in res.output


def test_kind_specific_validation():
    base = "scenario.kind = multi_bubble\nevolve.t1 = 0.5\n"
    with pytest.raises(ConfigError):
        build_scenario(parse_config_text(base))  # missing bubbles
    bw = (
        "scenario.kind = bourgain_wang\nevolve.t1 = 0.5\n"
        "blowup.bubbles = 0:1:0\nzstar.amplitude_rel = 0.2\n"
    )
    with pytest.raises(ConfigError):
        build_scenario(parse_config_text(bw))  # smallness violated


def test_gauge_check_scenario(tmp_path):
    sc = build_scenario(parse_config_text(GAUGE_CHECK))
    summary, code = run_scenario(sc, tmp_path / "run")
    assert code == 0
    assert summary["boundary_mass_fraction"] < 1e-10
    assert summary["gauge_max_modulus_diff"] < 1e-10
    assert summary["gauge_same_stop_step"] is True
    assert summary["banica_ok"] is True
    assert summary["determinism_ok"] is True
    assert summary["mass_drift"] < 1e-10
    for key in ("stop_reason", "T_est", "alpha", "mass_drift", "banica_ok", "h_evo_max_residual"):
        assert key in summary
    outdir = tmp_path / "run"
    assert (outdir / "summary.json").exists()
    assert (outdir / "traj_000" / "diagnostics.csv").exists()
    assert (outdir / "traj_000" / "path.csv").exists()
    assert (outdir / "traj_000" / "snapshot_final.txt").exists()


def test_artifacts_bitwise_reproducible(tmp_path):
    sc = build_scenario(parse_config_text(SOLITON_RUN))
    run_scenario(sc, tmp_path / "a")
    run_scenario(sc, tmp_path / "b")
    for rel in (
        "summary.json",
        "config.txt",
        "traj_000/diagnostics.csv",
        "traj_000/snapshot_final.txt",
        "profile_residuals.csv",
    ):
        fa = (tmp_path / "a" / rel).read_bytes()
        fb = (tmp_path / "b" / rel).read_bytes()
        assert fa == fb, f"artifact {rel} differs between reruns"


def test_soliton_scenario_residual_bounded(tmp_path):
    sc = build_scenario(parse_config_text(SOLITON_RUN))
    summary, code = run_scenario(sc, tmp_path / "run")
    assert code == 0
    # the two boosted solitons take no width stop: the run crosses the span
    assert summary["n_steps"] > 0 and summary["stop_reason"] == "reached_end"
    assert summary["profile_residual_max_l2"] < 0.05
    assert (tmp_path / "run" / "profile_residuals.csv").exists()


def test_residual_series_ends_on_profile_error_only(tmp_path):
    sc = build_scenario(parse_config_text(SOLITON_RUN))
    field = ComplexField(sc.grid, np.exp(-sc.grid.radius_squared()).astype(np.complex128))
    traj = SimpleNamespace(snapshots=[(t, field) for t in (0.0, 0.1, 0.2)])

    def reference(t):
        if t > 0.15:
            raise ProfileError("past the window of the reference")
        return field

    summary = {}
    scenario._residual_series(sc, traj, tmp_path, summary, reference, lambda t: [0.0])
    assert (tmp_path / "profile_residuals.csv").read_text().count("\n") == 3  # header, 2 rows
    assert summary["profile_residual_max_l2"] == 0.0

    def broken(t):
        raise ValueError("not a profile error")

    with pytest.raises(ValueError, match="not a profile error"):
        scenario._residual_series(sc, traj, tmp_path, {}, broken, lambda t: [0.0])


NONPURE_RUN = """
scenario.kind = nonpure_soliton
grid.d = 1
grid.L = 80
grid.N = 1024
soliton.waves = 0.5:1.0:0.0:-15.0;-0.5:1.0:0.3:15.0
zstar.amplitude_rel = 0.05
zstar.center = 0.0
evolve.t0 = 1.25
evolve.t1 = 2.25
evolve.dt0 = 1e-3
evolve.cadence = 250
"""


def test_nonpure_soliton_scenario(tmp_path):
    sc = build_scenario(parse_config_text(NONPURE_RUN))
    summary, code = run_scenario(sc, tmp_path / "np")
    assert code == 0
    # solitons far from the dispersive part: residual stays small
    assert summary["profile_residual_max_l2"] < 0.02
    assert summary["stop_reason"] == "reached_end"


def test_subcritical_regular_profile_measured_against_its_own_ground_state():
    # at p = 3 the smallness bound is a tenth of ||Q_3||_H1 (2.309), not of
    # the critical ||Q_5||_H1 (2.020); z* sits exactly on that bound
    text = NONPURE_RUN.replace("zstar.amplitude_rel = 0.05", "zstar.amplitude_rel = 0.1")
    sc = build_scenario(parse_config_text(text + "physics.p = 3\n"))
    prep = scenario.prepare_run(sc)
    assert prep.ztilde_ref is not None
    assert np.all(np.isfinite(prep.initial.values))


def test_cli_backward_data_too_large_exit_2(tmp_path):
    cfg_file = tmp_path / "big.cfg"
    text = NONPURE_RUN.replace("zstar.amplitude_rel = 0.05", "zstar.amplitude_rel = 0.5")
    cfg_file.write_text(text + "output.dir = big\n")
    res = _cli(["scenario", "run", str(cfg_file)], cwd=tmp_path, env={"NLSLAB_OUT": str(tmp_path)})
    assert res.returncode == 2, res.stderr
    assert "config error: backward data too large" in res.stderr, res.stderr
    assert "Traceback" not in res.stderr


def test_rerun_removes_the_previous_runs_artifacts(tmp_path):
    base = load_scenario(CONFIGS / "critical_blowup.cfg")
    base = dataclasses.replace(base, dt0=4e-3, cadence=250, snapshots="all")
    out = tmp_path / "run"
    first, _ = run_scenario(dataclasses.replace(base, points=1024, width_factor=1.0), out)
    assert first["T_est"] is not None and (out / "virial.csv").exists()
    (out / "traj_001").mkdir()  # a trajectory directory by nlslab's naming
    (out / "report.json").write_text("{}")  # an earlier diagnose report
    (out / "virial_check.csv").write_text("t,virial\n")
    # what nlslab does not write stays
    (out / "notes.csv").write_text("mine\n")
    (out / "traj_notes").mkdir()
    (out / "traj_notes" / "a.csv").write_text("mine\n")
    second, _ = run_scenario(dataclasses.replace(base, points=2048), out)
    assert second["T_est"] is None  # this run writes no virial.csv
    assert sorted(p.name for p in out.iterdir()) == [
        "config.txt", "notes.csv", "profile_residuals.csv", "summary.json",
        "traj_000", "traj_notes",
    ]
    assert (out / "notes.csv").read_text() == "mine\n"
    assert (out / "traj_notes" / "a.csv").read_text() == "mine\n"
    # the initial state, every 250th step and the final state of this run
    snaps = sorted((out / "traj_000").glob("snapshot_0*.txt"))
    assert second["n_steps"] % 250 and len(snaps) == second["n_steps"] // 250 + 2


def test_ensemble_zero_amplitude_identical(tmp_path):
    text = GAUGE_CHECK.replace("noise.amplitude = 0.5", "noise.amplitude = 0.0")
    text += "ensemble.size = 3\nensemble.workers = 2\n"
    sc = build_scenario(parse_config_text(text))
    summary, code = run_ensemble(sc, tmp_path / "ens")
    assert code == 0
    assert len(set(summary["stop_times"])) == 1
    assert (tmp_path / "ens" / "ensemble.csv").exists()


def test_ensemble_summary_ordering():
    rows = [
        {"index": 1, "seed": 11, "stop_time": 0.5, "stop_reason": "x", "n_steps": 5, "t_est": 1.1, "mass_drift": 0.0},
        {"index": 0, "seed": 10, "stop_time": 0.4, "stop_reason": "x", "n_steps": 5, "t_est": 1.0, "mass_drift": 0.0},
        {"index": 2, "seed": 12, "stop_time": 0.6, "stop_reason": "x", "n_steps": 5, "t_est": 1.2, "mass_drift": 0.0},
    ]
    summary = ensemble_summary(rows)
    assert summary["seeds"] == [10, 11, 12]
    assert summary["t_est_quartiles"][1] == pytest.approx(1.1)
    with pytest.raises(ConfigError):
        ensemble_summary(rows[:1])


def test_ensemble_of_one_rejected_before_any_trajectory(tmp_path, monkeypatch):
    def no_trajectory(*args):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(scenario, "_ensemble_worker", no_trajectory)
    sc = build_scenario(parse_config_text(GAUGE_CHECK + "ensemble.size = 1\n"))
    with pytest.raises(ConfigError):
        run_ensemble(sc, tmp_path / "ens")
    assert not (tmp_path / "ens").exists()


def _altered_ensemble(tmp_path, monkeypatch, alter):
    """A 2-seed gauge-check ensemble in this process, each trajectory altered."""
    run = scenario.run_trajectory
    monkeypatch.setattr(
        scenario, "run_trajectory", lambda sc, prep, seed, **kw: alter(run(sc, prep, seed, **kw))
    )
    sc = build_scenario(parse_config_text(GAUGE_CHECK + "ensemble.size = 2\nensemble.workers = 1\n"))
    return run_ensemble(sc, tmp_path / "ens")


def test_ensemble_exit_3_on_failed_trajectory(tmp_path, monkeypatch):
    summary, code = _altered_ensemble(
        tmp_path, monkeypatch, lambda traj: dataclasses.replace(traj, stop_reason="nonfinite")
    )
    assert code == 3
    assert summary["size"] == 2


def test_ensemble_exit_3_when_mass_drift_reaches_budget(tmp_path, monkeypatch):
    # noise runs share the budget of 1e-12; reaching it is a failure
    def drifted(traj):
        return dataclasses.replace(traj, residual=np.full_like(traj.residual, 1e-12))

    summary, code = _altered_ensemble(tmp_path, monkeypatch, drifted)
    assert code == 3
    assert summary["max_mass_drift"] == 1e-12


def _cli(args, cwd, env=None):
    # The child runs in ``cwd``, where a relative PYTHONPATH (such as the
    # ``src`` of an uninstalled checkout) no longer resolves.  Put the
    # directory holding the package under test first, so the child runs the
    # same ``nlslab`` the suite imported.
    e = dict(os.environ)
    pkg_root = str(Path(nlslab.__file__).resolve().parents[1])
    e["PYTHONPATH"] = os.pathsep.join(
        [pkg_root, *filter(None, e.get("PYTHONPATH", "").split(os.pathsep))]
    )
    if env:
        e.update(env)
    return subprocess.run(
        [sys.executable, "-m", "nlslab.cli", *args],
        cwd=cwd, env=e, capture_output=True, text=True,
    )


def test_cli_scenario_run_and_diagnose(tmp_path):
    cfg_file = tmp_path / "g.cfg"
    cfg_file.write_text(
        GAUGE_CHECK.replace("output.snapshots = final", "output.snapshots = all")
        + "output.dir = out_run\n"
    )
    res = _cli(["scenario", "run", str(cfg_file)], cwd=tmp_path, env={"NLSLAB_OUT": str(tmp_path)})
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert summary["gauge_same_stop_step"] is True
    res2 = _cli(["diagnose", str(tmp_path / "out_run")], cwd=tmp_path)
    assert res2.returncode == 0, res2.stderr
    report = json.loads((tmp_path / "out_run" / "report.json").read_text())
    assert report["banica_ok"] is True
    assert report["h_evo_max_residual"] is not None


NOISY_SOLITON = """
scenario.kind = multi_soliton
grid.d = 1
grid.L = 40
grid.N = 256
soliton.waves = 1.0:1.0:0.3:0.0
noise.kind = schwartz
noise.amplitude = 0.3
noise.modes = 2
noise.seed = 11
evolve.t1 = 0.2
evolve.dt0 = 1e-3
evolve.cadence = 50
output.snapshots = all
"""

# one critical-mass bubble, cheap enough to fit a blow-up rate
SHORT_BUBBLE = """
scenario.kind = critical_blowup
grid.d = 1
grid.L = 40
grid.N = 1024
blowup.T = 1.0
blowup.bubbles = 0:1:0
evolve.t1 = 1.0
evolve.dt0 = 4e-3
evolve.width_factor = 1
evolve.cadence = 250
output.snapshots = all
"""

_SERIES = (
    "times", "mass", "hamiltonian", "grad_norm", "lam", "center", "loc_mass",
    "residual", "noise_values", "marty", "smear",
)


@pytest.mark.parametrize("text", [SHORT_BUBBLE, NOISY_SOLITON], ids=["bubble", "schwartz_noise"])
def test_trajectory_artifacts_read_back_bitwise(tmp_path, text):
    sc = build_scenario(parse_config_text(text))
    traj = scenario.run_trajectory(sc, scenario.prepare_run(sc), sc.noise_seed)
    scenario.write_trajectory_artifacts(sc, traj, tmp_path)
    back = scenario.read_trajectory(tmp_path)
    for name in _SERIES:
        want, got = getattr(traj, name), getattr(back, name)
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert back.n_steps == traj.n_steps
    assert len(back.snapshots) == len(traj.snapshots) > 2
    for (t, f), (tb, fb) in zip(traj.snapshots, back.snapshots):
        assert tb == t and fb.grid == f.grid
        assert fb.values.tobytes() == f.values.tobytes()
    for name in ("config", "momentum", "profiles", "stop_reason"):
        assert getattr(back, name) is None


@pytest.mark.parametrize("text", [SHORT_BUBBLE, GAUGE_CHECK.replace(
    "output.snapshots = final", "output.snapshots = all"), NOISY_SOLITON],
    ids=["bubble", "gauge_check", "schwartz_noise"])
def test_diagnose_report_equals_run_summary(tmp_path, text):
    sc = build_scenario(parse_config_text(text))
    out = tmp_path / "run"
    summary, code = run_scenario(sc, out)
    assert code == 0
    res = CliRunner().invoke(cli.main, ["diagnose", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert json.loads(res.stdout) == report
    for key in ("T_est", "alpha", "h_evo_max_residual"):
        assert report[key] == summary[key], key
    assert report["concentration"]["fraction"] == summary["concentration"]["fraction"]
    if (out / "traj_000" / "hevo.csv").exists():
        assert report["banica_ok"] == summary["banica_ok"]
        hevo = out / "hevo_residual.csv"
        assert (out / "hevo_residual_check.csv").read_bytes() == hevo.read_bytes()
    else:
        # the coordinate-function half of the sweep needs the momenta,
        # which are not on disk
        assert report["banica_ok"] is None
        assert summary["T_est"] is not None  # the bubble's rate fit is compared
    virial = report["virial_series"]
    assert len(virial["t"]) == len(list((out / "traj_000").glob("snapshot_0*.txt")))


@pytest.mark.parametrize("contents", ["empty", "ensemble"])
def test_diagnose_without_trajectory_exit_2(tmp_path, contents):
    run_dir = tmp_path / "run"
    if contents == "ensemble":
        text = GAUGE_CHECK + "ensemble.size = 2\nensemble.workers = 1\n"
        run_ensemble(build_scenario(parse_config_text(text)), run_dir)
    else:
        run_dir.mkdir()
    res = CliRunner().invoke(cli.main, ["diagnose", str(run_dir)])
    assert res.exit_code == 2
    assert res.stderr.startswith("no trajectory: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.output


def test_cli_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.kind = nosuch\nevolve.t1 = 1\n")
    res = _cli(["scenario", "run", str(bad)], cwd=tmp_path)
    assert res.returncode == 2
    assert "config error" in res.stderr, res.stderr
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, old, new", [
    ("scenario run", "noise.modes = 2", "noise.modes = 9"),
    ("scenario run", "evolve.dt0 = 1e-3", "evolve.dt0 = -1e-3"),
    ("scenario run", "evolve.cadence = 50", "evolve.cadence = 0"),
    ("scenario ensemble", "noise.modes = 2", "noise.modes = 9"),
    ("evolve", "evolve.cadence = 50", "evolve.cadence = 0"),
], ids=["run_modes", "run_dt0", "run_cadence", "ensemble_modes", "evolve_cadence"])
def test_cli_config_value_errors_exit_2(tmp_path, command, old, new):
    # values the schema accepts but the noise model or the integrator refuses;
    # the refusal comes before the run directory is touched, so an earlier
    # run's files there stay as they were
    text = GAUGE_CHECK + "ensemble.size = 2\nensemble.workers = 1\noutput.dir = run\n"
    run_scenario(build_scenario(parse_config_text(text)), tmp_path / "run")
    before = {p: p.read_bytes() for p in (tmp_path / "run").rglob("*") if p.is_file()}
    assert len(before) > 1
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text.replace(old, new))
    res = _cli([*command.split(), str(cfg_file)], cwd=tmp_path, env={"NLSLAB_OUT": str(tmp_path)})
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr, res.stderr
    assert "Traceback" not in res.stderr
    after = {p: p.read_bytes() for p in (tmp_path / "run").rglob("*") if p.is_file()}
    assert after == before


def test_cli_ensemble_of_one_exit_2(tmp_path):
    cfg_file = tmp_path / "one.cfg"
    cfg_file.write_text(GAUGE_CHECK + "ensemble.size = 1\noutput.dir = ens\n")
    res = _cli(["scenario", "ensemble", str(cfg_file)], cwd=tmp_path, env={"NLSLAB_OUT": str(tmp_path)})
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr, res.stderr
    assert "Traceback" not in res.stderr


def test_cli_ground_state(tmp_path):
    res = _cli(
        ["ground-state", "-d", "1", "-L", "40", "-N", "512", "--tol", "1e-10", "--out", "gs"],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    record = json.loads((tmp_path / "gs" / "ground_state.json").read_text())
    assert abs(record["q0"] - 3**0.25) < 1e-7
    assert record["residual"] < 1e-10
    assert record["mass"] == pytest.approx(np.sqrt(record["mass_sq"]))
    assert (tmp_path / "gs" / "ground_state.txt").exists()


def test_cli_evolve(tmp_path):
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text(SOLITON_RUN + "output.dir = evo\n")
    res = _cli(["evolve", str(cfg_file)], cwd=tmp_path, env={"NLSLAB_OUT": str(tmp_path)})
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "evo" / "traj_000" / "diagnostics.csv").exists()
    assert load_scenario(tmp_path / "evo" / "config.txt") == load_scenario(cfg_file)


NOISY_BLOWUP = """
scenario.kind = critical_blowup
grid.d = 1
grid.L = 40
grid.N = 256
blowup.T = 1.0
blowup.bubbles = 0:1:0
noise.kind = schwartz
noise.amplitude = 0.1
noise.modes = 2
noise.seed = 40
evolve.t1 = 1.0
evolve.dt0 = 4e-3
ensemble.size = 2
ensemble.workers = 1
"""


def test_lean_ensemble_rows_equal_full_trajectory_rows():
    sc = build_scenario(parse_config_text(NOISY_BLOWUP))
    prep = scenario.prepare_run(sc)
    for index in (0, 1):
        row = scenario._ensemble_worker((sc, index))
        full = scenario.run_trajectory(sc, prep, sc.noise_seed + index)
        assert full.hamiltonian is not None and full.noise_values is not None
        want = {
            "index": index,
            "seed": sc.noise_seed + index,
            "stop_time": float(full.final_time),
            "stop_reason": full.stop_reason,
            "n_steps": full.n_steps,
            "t_est": float(diag.extrapolate_blowup_time(full.times, full.grad_norm)),
            "mass_drift": float(full.residual.max()),
        }
        assert row == want  # every float bitwise (none is NaN)
    lean = scenario.run_trajectory(sc, prep, sc.noise_seed, lean=True)
    assert lean.config.lean_record and not lean.config.keep_snapshots
    assert [t for t, _ in lean.snapshots] == [lean.final_time]
    for key in ("hamiltonian", "center", "loc_mass", "momentum", "noise_values", "marty", "smear"):
        assert getattr(lean, key) is None


def test_ensemble_amplitude_sweep_reports_trend(tmp_path):
    """Noise-amplitude sweep on a blow-up config: medians are reported
    descriptively; the trend is a finding, not an assertion."""
    base = """
scenario.kind = critical_blowup
grid.d = 1
grid.L = 40
grid.N = 1024
blowup.T = 1.0
blowup.bubbles = 0:1:0
noise.kind = schwartz
noise.amplitude = {amp}
noise.modes = 2
noise.seed = 40
evolve.t1 = 1.0
evolve.dt0 = 1e-3
evolve.cadence = 500
ensemble.size = 3
ensemble.workers = 1
"""
    medians = {}
    for amp in (0.0, 0.1):
        sc = build_scenario(parse_config_text(base.format(amp=amp)))
        summary, code = run_ensemble(sc, tmp_path / f"amp_{amp}")
        assert code == 0
        assert summary["t_est_quartiles"] is not None
        medians[amp] = summary["t_est_quartiles"][1]
    print("median blow-up time estimates by noise amplitude:", medians)


STOCHASTIC_BLOWUP = """
scenario.kind = critical_blowup
grid.d = 1
grid.L = 40
grid.N = 4096
blowup.T = 1.0
blowup.bubbles = 0:1:0
noise.kind = schwartz
noise.amplitude = 0.1
noise.modes = 2
noise.seed = {seed}
evolve.t1 = 1.0
evolve.dt0 = 4e-3
evolve.gmax = 1e5
evolve.width_factor = 4
evolve.cadence = 250
"""


@pytest.mark.parametrize("seed", [40, 44])
def test_stochastic_blowup_concentrates_on_the_universal_profile(seed):
    """The paper's stochastic blow-up result at desk scale: X = e^{i psi} v,
    gauged back with the weights the run records, keeps ||Q||^2 in a unit
    ball about its centre, is close to the rescaled ground state in H1, and
    its virial vanishes like (T - t)^2 at the run's own estimated T."""
    sc = build_scenario(parse_config_text(STOCHASTIC_BLOWUP.format(seed=seed)))
    traj = scenario.run_trajectory(sc, scenario.prepare_run(sc), sc.noise_seed)
    assert traj.stop_reason == "width_resolution"

    def gauged_back(t, v):
        i = int(np.searchsorted(traj.times, t))
        assert traj.times[i] == t
        return ComplexField(v.grid, np.exp(1j * traj.profiles.psi(traj.noise_values[i])) * v.values)

    X = [(t, gauged_back(t, v)) for t, v in traj.snapshots]
    profile = scenario.run_profile(1)
    mf = diag.modulation_fit(X[-1][1], profile)
    assert diag.localized_mass(X[-1][1], mf.center, 1.0) >= 0.99 * profile.mass_sq
    assert mf.resid_h1 < 0.05
    mask = traj.grad_norm >= 1.2 * traj.grad_norm[0]
    t_est = diag.blowup_rate_fit(traj.times[mask], traj.grad_norm[mask]).t_est
    times = np.array([t for t, _ in X])
    vir = np.array([diag.virial(x, mf.center, None) for _, x in X])
    assert abs(diag.fit_time_power(times[:-1], vir[:-1], t_est) - 2.0) <= 0.1
