import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlslab
import nlslab.scenario as scenario
from nlslab.scenario import (
    ConfigError,
    build_scenario,
    ensemble_summary,
    load_scenario,
    parse_config_text,
    run_ensemble,
    run_scenario,
)

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
    with pytest.raises(ConfigError):
        build_scenario(parse_config_text("scenario.kind = custom\nevolve.t1 = 1\nmystery.key = 3"))


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
    assert summary["profile_residual_max_l2"] < 0.05
    assert (tmp_path / "run" / "profile_residuals.csv").exists()


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
    monkeypatch.setattr(scenario, "run_trajectory", lambda sc, prep, seed: alter(run(sc, prep, seed)))
    sc = build_scenario(parse_config_text(GAUGE_CHECK + "ensemble.size = 2\nensemble.workers = 1\n"))
    return run_ensemble(sc, tmp_path / "ens")


def test_ensemble_exit_3_on_failed_trajectory(tmp_path, monkeypatch):
    summary, code = _altered_ensemble(
        tmp_path, monkeypatch, lambda traj: dataclasses.replace(traj, stop_reason="nonfinite")
    )
    assert code == 3
    assert summary["size"] == 2


def test_ensemble_exit_3_when_mass_drift_reaches_budget(tmp_path, monkeypatch):
    # gauged noise runs have a budget of 1e-10; reaching it is a failure
    def drifted(traj):
        return dataclasses.replace(traj, residual=np.full_like(traj.residual, 1e-10))

    summary, code = _altered_ensemble(tmp_path, monkeypatch, drifted)
    assert code == 3
    assert summary["max_mass_drift"] == 1e-10


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


def test_cli_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario.kind = nosuch\nevolve.t1 = 1\n")
    res = _cli(["scenario", "run", str(bad)], cwd=tmp_path)
    assert res.returncode == 2
    assert "config error" in res.stderr, res.stderr
    assert not (tmp_path / "runs").exists()


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
