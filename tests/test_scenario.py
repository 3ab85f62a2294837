import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlslab
import nlslab.scenario as scenario
from nlslab import diagnostics as diag
from nlslab import cli
from nlslab.exact import ProfileError
from nlslab.evolution import Trajectory
from nlslab.grid import ComplexField, make_grid
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
    with pytest.raises(ConfigError, match="unknown config keys"):
        # the Schwartz width is L/12; there is no knob for it
        build_scenario(parse_config_text(
            GAUGE_CHECK.replace("noise.kind = constant", "noise.kind = schwartz") + "noise.sigma = 3\n"
        ))
    with pytest.raises(ConfigError, match="unknown config keys"):
        # the Brownian drive is the only one a scenario has
        build_scenario(parse_config_text(GAUGE_CHECK + "noise.drive = sin\n"))


def test_custom_kind_rejected():
    assert "custom" not in SCENARIO_KINDS
    with pytest.raises(ConfigError, match="scenario.kind must be one of"):
        build_scenario(parse_config_text("scenario.kind = custom\nevolve.t1 = 1"))


_BUBBLE_RUN = {"scenario.kind": "critical_blowup", "blowup.bubbles": "0:1:0", "evolve.t1": "1"}


@pytest.mark.parametrize("key, value, message", [
    ("blowup.bubbles", "0:1",
     "key 'blowup.bubbles': cannot parse '0:1' (bubble needs position:width:phase, got '0:1')"),
    ("blowup.bubbles", "0:1:0; 5:1",
     "key 'blowup.bubbles': cannot parse '0:1:0; 5:1' (bubble needs position:width:phase, got ' 5:1')"),
    ("soliton.waves", "1:1:0",
     "key 'soliton.waves': cannot parse '1:1:0' "
     "(soliton needs velocity:width:phase:position, got '1:1:0')"),
    ("zstar.center", "1,2", "key 'zstar.center': cannot parse '1,2' (point needs 1 components, got '1,2')"),
    ("scenario.kind", "custom", f"scenario.kind must be one of {SCENARIO_KINDS}, got 'custom'"),
    ("grid.d", "3", "grid.d must be one of (1, 2), got '3'"),
    ("grid.d", "two", "key 'grid.d': cannot parse 'two' (invalid literal for int() with base 10: 'two')"),
    ("noise.kind", "white",
     "noise.kind must be one of ('none', 'constant', 'schwartz', 'flat'), got 'white'"),
    ("output.snapshots", "some", "output.snapshots must be one of ('none', 'final', 'all'), got 'some'"),
], ids=["bubble_fields", "bubble_in_list", "soliton_fields", "point_components", "kind", "dim",
        "dim_not_int", "noise_kind", "snapshots"])
def test_codec_refusals(key, value, message):
    text = "".join(f"{k} = {v}\n" for k, v in {**_BUBBLE_RUN, key: value}.items())
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config_text(text))
    assert str(exc.value) == message


@pytest.mark.parametrize("d, p", [(1, "6"), (1, "0.5"), (2, "2")])
def test_cli_refuses_an_exponent_without_a_run_profile(tmp_path, d, p):
    point = ",".join(["0"] * d)
    cfg_file = tmp_path / "p.cfg"
    cfg_file.write_text(
        f"scenario.kind = multi_soliton\ngrid.d = {d}\nphysics.p = {p}\n"
        f"soliton.waves = {point}:1:0:{point}\nevolve.t1 = 0.1\noutput.dir = run\n"
    )
    res = CliRunner().invoke(cli.main, ["scenario", "run", str(cfg_file)], env={"NLSLAB_OUT": str(tmp_path)})
    assert res.exit_code == 2, res.output
    assert res.stderr == f"config error: physics.p must be in (1, 5] in 1-d and 3 in 2-d, got {float(p)!r}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_rendered_config_loads_back_equal(path):
    sc = load_scenario(path)
    text = render_config(sc)
    assert build_scenario(parse_config_text(text)) == sc
    assert render_config(build_scenario(parse_config_text(text))) == text


def test_rendered_config_is_pinned():
    # every key set, defaults resolved, in schema order, floats to 17 digits
    assert render_config(load_scenario(CONFIGS / "critical_blowup.cfg")) == """\
scenario.kind = critical_blowup
grid.d = 1
grid.L = 40
grid.N = 4096
physics.p = 5
blowup.bubbles = 0:1:0
blowup.T = 1
zstar.amplitude_rel = 0.050000000000000003
zstar.center = 10
zstar.width = 1
noise.kind = none
noise.amplitude = 0
noise.modes = 1
noise.seed = 0
init.mass_sq_ratio = 1.2
init.width = 1
evolve.t0 = 0
evolve.t1 = 1
evolve.dt0 = 0.00025000000000000001
evolve.gmax = 100000
evolve.width_factor = 4
evolve.cadence = 2000
output.dir = runs/critical_blowup
output.snapshots = final
ensemble.size = 1
"""


def test_readme_lists_every_key_in_schema_order():
    readme = (CONFIGS.parent / "README.md").read_text()
    block = readme.split("## Scenario configs", 1)[1].split("```", 2)[1]
    assert [line.split()[0] for line in block.splitlines() if line.strip()] == [row.key for row in SCHEMA]


_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False, width=64)
# positive, with a finite, normal square
_width = st.floats(min_value=1.5e-154, max_value=1.3e154, width=64)


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
        "zstar.amplitude_rel": repr(draw(st.floats(0.0, 0.1, exclude_min=True))),
        "zstar.center": draw(pt),
        "zstar.width": repr(draw(_width)),
        "noise.kind": noise,
        "noise.amplitude": repr(draw(_floats)),
        "noise.modes": draw(st.integers()),
        "noise.seed": draw(st.integers(0, 2**64 - 1)),
        "noise.flat_points": ";".join(draw(st.lists(pt, min_size=1, max_size=3))),
        "init.mass_sq_ratio": repr(draw(_positive)),
        "init.width": repr(draw(_width)),
        "evolve.t0": repr(draw(st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False))),
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

    # diagnose reads only physics.p there: a key a later schema dropped is no error
    config = tmp_path / "run" / "config.txt"
    before = (tmp_path / "run" / "report.json").read_bytes()
    config.write_text(config.read_text() + "noise.drive = brownian\n")
    res = CliRunner().invoke(cli.main, ["diagnose", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "run" / "report.json").read_bytes() == before

    text = config.read_text()
    assert "physics.p = 3\n" in text
    for bad in ("abc", "9"):  # does not parse; has no 1-d ground profile
        config.write_text(text.replace("physics.p = 3\n", f"physics.p = {bad}\n"))
        res = CliRunner().invoke(cli.main, ["diagnose", str(tmp_path / "run")])
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith("config error"), res.stderr


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

    prep = scenario.PreparedRun(field, reference, lambda t: [0.0])
    summary = scenario._residual_series(sc, traj, tmp_path, prep)
    assert (tmp_path / "profile_residuals.csv").read_text().count("\n") == 3  # header, 2 rows
    assert summary["profile_residual_max_l2"] == 0.0

    def broken(t):
        raise ValueError("not a profile error")

    prep = scenario.PreparedRun(field, broken, lambda t: [0.0])
    with pytest.raises(ValueError, match="not a profile error"):
        scenario._residual_series(sc, traj, tmp_path, prep)


# per kind, the keys of a small run; every run but the non-pure one starts at t = 0
_SMALL_RUNS = {
    "critical_blowup": "blowup.bubbles = 0:1:0\nevolve.t1 = 0.1\n",
    "multi_bubble": "blowup.bubbles = -8:1:0;8:1:0.5\nevolve.width_factor = 2\nevolve.t1 = 0.1\n",
    "bourgain_wang": "blowup.bubbles = -5:1:0\nzstar.center = 10.0\nevolve.t1 = 0.1\n",
    "multi_soliton": "soliton.waves = 1.0:1.0:0.0:-8.0;-1.0:1.0:0.5:8.0\nevolve.t1 = 0.1\n",
    "nonpure_soliton": "soliton.waves = 0.5:1.0:0.0:-10.0;-0.5:1.0:0.3:10.0\n"
    "zstar.center = 0.0\nevolve.t0 = 1.25\nevolve.t1 = 1.35\n",
    "snls_gauge_check": "soliton.waves = 1.0:1.0:0.0:0.0\nnoise.kind = constant\n"
    "noise.amplitude = 0.5\nevolve.t1 = 0.1\n",
    "loglog_supercritical": "evolve.t1 = 0.1\n",
}


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_battery_measures_each_kind_against_its_own_family(tmp_path, kind):
    # the blow-up kinds and the two multi-soliton kinds have an exact family
    # to measure residuals against; only a bubble family has per-bubble ones
    bubbles = kind in ("critical_blowup", "multi_bubble", "bourgain_wang")
    family = bubbles or kind in ("multi_soliton", "nonpure_soliton")
    text = f"scenario.kind = {kind}\ngrid.N = 256\nevolve.cadence = 25\n" + _SMALL_RUNS[kind]
    sc = build_scenario(parse_config_text(text))
    summary, code = run_scenario(sc, tmp_path)
    assert code == 0 and summary["n_steps"] > 0
    residuals = tmp_path / "profile_residuals.csv"
    assert residuals.exists() == family
    assert ("profile_residual_max_h1" in summary) == family
    assert ("profile_residual_max_h1_per_bubble" in summary) == bubbles
    if family:
        header = residuals.read_text().split("\n", 1)[0].split(",")
        assert any(col.startswith("h1_bubble_") for col in header) == bubbles


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
    assert prep.regular is not None
    assert np.all(np.isfinite(prep.initial.values))


def test_cli_backward_data_too_large_exit_2(tmp_path):
    cfg_file = tmp_path / "big.cfg"
    text = NONPURE_RUN.replace("zstar.amplitude_rel = 0.05", "zstar.amplitude_rel = 0.5")
    cfg_file.write_text(text + "output.dir = big\n")
    res = _cli(["scenario", "run", str(cfg_file)], cwd=tmp_path, env={"NLSLAB_OUT": str(tmp_path)})
    assert res.returncode == 2, res.stderr
    assert "config error: zstar.amplitude_rel must be in (0, 0.1] (smallness)" in res.stderr, res.stderr
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
    first_virial = (out / "virial.csv").read_bytes()
    second, _ = run_scenario(dataclasses.replace(base, points=2048), out)
    assert second["T_est"] is None and "virial_beta" not in second
    assert sorted(p.name for p in out.iterdir()) == [
        "config.txt", "notes.csv", "profile_residuals.csv", "summary.json",
        "traj_000", "traj_notes", "virial.csv",
    ]
    assert (out / "virial.csv").read_bytes() != first_virial
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


@pytest.mark.parametrize("workers", ["ensemble.workers = 64\n", ""], ids=["set", "unset"])
def test_ensemble_starts_no_more_workers_than_members(tmp_path, monkeypatch, workers):
    # a fork pool starts all its workers at once; this one maps in-process
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(scenario.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(scenario.os, "cpu_count", lambda: 64)
    sc = build_scenario(parse_config_text(GAUGE_CHECK + "ensemble.size = 2\n" + workers))
    summary, code = run_ensemble(sc, tmp_path / "ens")
    assert (summary["size"], code) == (2, 0)
    assert started == [2]


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


def _child_env(env=None) -> dict:
    # A child may run in another directory, where a relative PYTHONPATH (such
    # as the ``src`` of an uninstalled checkout) no longer resolves.  Put the
    # directory holding the package under test first, so the child runs the
    # same ``nlslab`` the suite imported.
    e = dict(os.environ)
    pkg_root = str(Path(nlslab.__file__).resolve().parents[1])
    e["PYTHONPATH"] = os.pathsep.join(
        [pkg_root, *filter(None, e.get("PYTHONPATH", "").split(os.pathsep))]
    )
    e.update(env or {})
    return e


def _cli(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "-m", "nlslab.cli", *args],
        cwd=cwd, env=_child_env(env), capture_output=True, text=True,
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
    for name in ("momentum", "profiles", "stop_reason"):
        assert getattr(back, name) is None


# summary.json keys that need the run itself, not its trajectory on disk
_RUN_ONLY_KEYS = {
    "kind", "boundary_mass_fraction", "determinism_ok", "gauge_max_modulus_diff",
    "gauge_same_stop_step", "mass_tolerance", "hard_checks_ok", "exit_code",
    "profile_residual_max_l2", "profile_residual_max_h1", "profile_residual_max_h1_per_bubble",
}


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
    # the battery's keys: every summary key but the run's own, and the sweep's
    # worst violation, whose coordinate half needs the momenta
    assert set(report) == set(summary) - _RUN_ONLY_KEYS - {"banica_max_violation"}
    assert {"n_steps", "mass_drift", "modulation", "concentration"} <= set(report)
    hevo = (out / "traj_000" / "hevo.csv").exists()
    for key in set(report) - {"stop_reason"}:
        if key == "banica_ok" and not hevo:
            # the coordinate-function half of the sweep needs the momenta,
            # which are not on disk
            assert report[key] is None
            continue
        assert json.dumps(report[key], sort_keys=True) == json.dumps(summary[key], sort_keys=True), key
    assert report["stop_reason"] is None
    if hevo:
        assert (out / "hevo_residual_check.csv").read_bytes() == (out / "hevo_residual.csv").read_bytes()
    else:
        assert report["T_est"] is not None and "rate_class" in report  # the bubble's rate fit is compared
    assert (out / "virial_check.csv").read_bytes() == (out / "virial.csv").read_bytes()


def test_scenario_run_and_diagnose_call_the_battery_once(tmp_path, monkeypatch, bare_run, evolve_run):
    calls = []
    battery = scenario.run_battery
    monkeypatch.setattr(scenario, "run_battery", lambda *a: calls.append(a) or battery(*a))
    text = GAUGE_CHECK.replace("evolve.t1 = 0.25", "evolve.t1 = 0.05")
    run_scenario(build_scenario(parse_config_text(text)), tmp_path / "gauge")
    assert len(calls) == 1
    assert CliRunner().invoke(cli.main, ["diagnose", str(tmp_path / "gauge")]).exit_code == 0
    assert len(calls) == 2
    # an evolve directory gets the report of the scenario run of its config
    reports = []
    for name, run_dir in (("run", bare_run), ("evolve", evolve_run)):
        shutil.copytree(run_dir, tmp_path / name)
        assert CliRunner().invoke(cli.main, ["diagnose", str(tmp_path / name)]).exit_code == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert len(calls) == 4
    assert reports[0] == reports[1]
    assert "mass_drift" in json.loads(reports[0])


# the bubble of tests/test_evolution.py's gradient-threshold test
THRESHOLD_BUBBLE = """
scenario.kind = critical_blowup
grid.L = 40
grid.N = 1024
blowup.bubbles = 0:1:0
evolve.t1 = 0.5
evolve.dt0 = 4e-3
"""


def test_scenario_run_stopped_at_the_gradient_threshold_exits_0(tmp_path):
    sc = build_scenario(parse_config_text(THRESHOLD_BUBBLE))
    free = scenario.run_trajectory(sc, scenario.prepare_run(sc), sc.noise_seed)
    assert free.stop_reason == "reached_end"
    g_max = float(np.sqrt(free.grad_norm[0] * free.grad_norm.max()))
    cfg_file = tmp_path / "stop.cfg"
    cfg_file.write_text(THRESHOLD_BUBBLE + f"evolve.gmax = {g_max!r}\noutput.dir = stop\n")
    res = CliRunner().invoke(cli.main, ["scenario", "run", str(cfg_file)], env={"NLSLAB_OUT": str(tmp_path)})
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "stop" / "summary.json").read_text())
    assert summary["stop_reason"] == "gradient_threshold"
    assert summary["n_steps"] == int(np.argmax(free.grad_norm >= g_max)) > 0


def _synthetic_trajectory(grad_norm, snapshots):
    n = grad_norm.size
    return Trajectory(
        times=np.linspace(0.0, 1.0, n), mass=np.ones(n), grad_norm=grad_norm,
        lam=np.full(n, np.nan), residual=np.zeros(n), snapshots=snapshots,
        hamiltonian=np.zeros(n), center=np.zeros((n, 1)),
    )


def _zero_final_state():
    grid = make_grid(1, 40, 256)
    return _synthetic_trajectory(np.ones(8), [(1.0, ComplexField(grid, np.zeros(256)))])


def _growth_then_fall():
    # a decade of growth, then a slow fall: 1/||grad v|| rises at the end
    t = np.linspace(0.0, 1.0, 40)
    return _synthetic_trajectory(np.where(t < 0.1, 1.0 + 190.0 * t, 20.0 - 18.0 * t), [])


def _rate_fit_with_two_virial_samples():
    # the pseudo-conformal rate with T = 1.05; the virial power fit gets the
    # snapshots before the last, two of them
    grid = make_grid(1, 40, 256)
    q = scenario.run_profile(1).sample(grid)
    t = np.linspace(0.0, 1.0, 40)
    return _synthetic_trajectory(1.0 / (1.05 - t), [(0.0, q), (0.5, q), (1.0, q)])


@pytest.mark.parametrize("make, key, message", [
    (_zero_final_state, "modulation_error", "nonzero field"),
    (_growth_then_fall, "T_extrapolated_error", "not growing"),
    (_rate_fit_with_two_virial_samples, "virial_beta_error", "not enough positive samples"),
], ids=["zero_final_state", "growth_then_fall", "few_virial_samples"])
def test_battery_reports_a_failed_fit_under_its_error_key(tmp_path, make, key, message):
    out, _ = scenario.run_battery(make())
    assert message in out[key]
    scenario.write_summary_json(tmp_path / "summary.json", out)
    assert json.loads((tmp_path / "summary.json").read_text())[key] == out[key]


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


@pytest.fixture(scope="module")
def gauge_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gauge") / "run"
    text = GAUGE_CHECK.replace("evolve.t1 = 0.25", "evolve.t1 = 0.05")
    assert run_scenario(build_scenario(parse_config_text(text)), out)[1] == 0
    return out


@pytest.fixture(scope="module")
def bare_run(tmp_path_factory):
    """``ROW_CUT_BUBBLE`` without snapshots: 924 lines of diagnostics.csv."""
    out = tmp_path_factory.mktemp("bare") / "run"
    text = ROW_CUT_BUBBLE + "output.snapshots = none\n"
    assert run_scenario(build_scenario(parse_config_text(text)), out)[1] == 0
    assert len((out / "traj_000" / "diagnostics.csv").read_text().splitlines()) == 924
    return out


@pytest.fixture(scope="module")
def evolve_run(tmp_path_factory):
    """``nlslab evolve`` of ``ROW_CUT_BUBBLE`` without snapshots."""
    root = tmp_path_factory.mktemp("evolve")
    cfg_file = root / "bubble.cfg"
    cfg_file.write_text(ROW_CUT_BUBBLE + "output.snapshots = none\noutput.dir = run\n")
    res = CliRunner().invoke(cli.main, ["evolve", str(cfg_file)], env={"NLSLAB_OUT": str(root)})
    assert res.exit_code == 0, res.output
    assert len((root / "run" / "traj_000" / "diagnostics.csv").read_text().splitlines()) == 924
    return root / "run"


def test_evolve_records_its_step_count(evolve_run):
    # the step count diagnose dates the rows of diagnostics.csv by
    summary = json.loads((evolve_run / "summary.json").read_text())
    assert summary == {"n_steps": 922, "stop_reason": "reached_end", "t_final": 0.5}


def _drop_column(lines, name):
    at = lines[0].split(",").index(name)
    return [",".join(f for i, f in enumerate(line.split(",")) if i != at) for line in lines]


# (run, file under its directory, damage to its lines), the lines written
# back in Latin-1: a snapshot header extent nan or time inf, a header field
# abc, a body value abc or nan, a truncated body and a body cut away;
# hevo.csv cut to 2 rows, without its smear_1 column or with a time -inf;
# diagnostics.csv emptied, cut to its header, without its loc_mass column or
# with a value x; config.txt not UTF-8; the diagnostics.csv of a run or of
# an evolve without snapshots cut to 200 lines, which only its
# summary.json's n_steps dates
@pytest.mark.parametrize("run, name, damage", [
    ("gauge_run", "traj_000/snapshot_final.txt", lambda lines: [lines[0].replace(",40,", ",nan,", 1)] + lines[1:]),
    ("gauge_run", "traj_000/snapshot_final.txt", lambda lines: [lines[0].rsplit(",", 1)[0] + ",inf"] + lines[1:]),
    ("gauge_run", "traj_000/snapshot_final.txt", lambda lines: [lines[0].replace(",256,", ",abc,", 1)] + lines[1:]),
    ("gauge_run", "traj_000/snapshot_final.txt", lambda lines: lines[:9] + ["abc,0"] + lines[10:]),
    ("gauge_run", "traj_000/snapshot_final.txt", lambda lines: lines[:9] + ["nan,0"] + lines[10:]),
    ("gauge_run", "traj_000/snapshot_final.txt", lambda lines: lines[:100]),
    ("gauge_run", "traj_000/snapshot_final.txt", lambda lines: lines[:1]),
    ("gauge_run", "traj_000/hevo.csv", lambda lines: lines[:3]),
    ("gauge_run", "traj_000/hevo.csv", lambda lines: _drop_column(lines, "smear_1")),
    ("gauge_run", "traj_000/hevo.csv", lambda lines: lines[:5] + ["-inf" + lines[5][lines[5].index(","):]] + lines[6:]),
    ("gauge_run", "traj_000/diagnostics.csv", lambda lines: []),
    ("gauge_run", "traj_000/diagnostics.csv", lambda lines: lines[:1]),
    ("gauge_run", "traj_000/diagnostics.csv", lambda lines: _drop_column(lines, "loc_mass")),
    ("gauge_run", "traj_000/diagnostics.csv", lambda lines: lines[:5] + ["x" + lines[5][1:]] + lines[6:]),
    ("gauge_run", "config.txt", lambda lines: lines + ["# caf\xe9"]),
    ("bare_run", "traj_000/diagnostics.csv", lambda lines: lines[:200]),
    ("evolve_run", "traj_000/diagnostics.csv", lambda lines: lines[:200]),
], ids=["extent_nan", "time_inf", "header_abc", "body_abc", "body_nan", "body_truncated",
        "body_empty", "hevo_two_rows", "hevo_no_smear_1", "hevo_time_inf", "diagnostics_empty",
        "diagnostics_header_only", "diagnostics_no_loc_mass", "diagnostics_value_x",
        "config_not_utf8", "diagnostics_rows_without_snapshots",
        "evolve_diagnostics_rows_without_snapshots"])
def test_diagnose_damaged_trajectory_exit_2(tmp_path, request, run, name, damage):
    run_dir = tmp_path / "run"
    shutil.copytree(request.getfixturevalue(run), run_dir)
    path = run_dir / name
    path.write_bytes("".join(line + "\n" for line in damage(path.read_text().splitlines())).encode("latin-1"))
    # outside pytest a warning prints to stderr too
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = CliRunner().invoke(cli.main, ["diagnose", str(run_dir)])
    assert res.exit_code == 2, res.output
    assert str(path) in res.stderr and res.stderr.count("\n") == 1, res.stderr
    assert "Traceback" not in res.output and not caught


# one critical-mass bubble whose rows a cut at a row boundary shortens
# without breaking any file's layout
ROW_CUT_BUBBLE = """
scenario.kind = critical_blowup
grid.d = 1
grid.L = 40
grid.N = 512
blowup.T = 1.0
blowup.bubbles = 0:1:0
evolve.t1 = 0.5
evolve.dt0 = 1e-3
evolve.cadence = 50
"""

# a bubble resolved below a tenth of its width on a small box: its
# ||grad v|| grows by a decade, so scenario run and diagnose fit a rate
FIT_BUBBLE = """
scenario.kind = critical_blowup
grid.d = 1
grid.L = 16
grid.N = 512
blowup.T = 1.0
blowup.bubbles = 0:1:0
evolve.t1 = 1.0
evolve.dt0 = 2e-3
evolve.width_factor = 2
evolve.cadence = 1000
"""

# every file each run directory holds before diagnose writes into it
_RUN_FILES = {
    "bubble": ("config.txt", "profile_residuals.csv", "summary.json",
               "traj_000/diagnostics.csv", "traj_000/snapshot_final.txt", "virial.csv"),
    "fit": ("config.txt", "profile_residuals.csv", "summary.json",
            "traj_000/diagnostics.csv", "traj_000/snapshot_final.txt", "virial.csv"),
    "gauge": ("config.txt", "hevo_residual.csv", "summary.json", "traj_000/diagnostics.csv",
              "traj_000/hevo.csv", "traj_000/path.csv", "traj_000/snapshot_final.txt",
              "virial.csv"),
}


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    """The run directory of ``FIT_BUBBLE``, whose battery fits a rate."""
    out = tmp_path_factory.mktemp("fit") / "run"
    summary, code = run_scenario(build_scenario(parse_config_text(FIT_BUBBLE)), out)
    assert code == 0 and summary["T_est"] is not None
    return out


DIAGNOSE_PROBE = """
import sys
import nlslab.cli
nlslab.cli.main(["diagnose", sys.argv[1]], standalone_mode=False)
mods = ("scipy.signal", "scipy.optimize", "scipy.integrate", "scipy.interpolate",
        "scipy.fft", "scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.fft")
print([m for m in mods if m in sys.modules])
print("scipy.fft._pocketfft.pypocketfft" in sys.modules)
"""


def test_diagnose_of_a_rate_fit_loads_no_solver_module(fit_run, tmp_path):
    # the rate fit's bounded search is the package's own and the transforms
    # run on scipy's pocketfft extension, loaded from its file: a fresh
    # process that diagnoses a blow-up run loads no solver module and not
    # scipy.fft's package (nor scipy.special or numpy.f2py, which it pulls
    # in), nor numpy.fft
    run_dir = tmp_path / "run"
    shutil.copytree(fit_run, run_dir)
    out = subprocess.run(
        [sys.executable, "-c", DIAGNOSE_PROBE, str(run_dir)],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    report, mods, pocketfft = out.stdout.splitlines()
    assert json.loads(report)["T_est"] is not None
    assert mods == "[]"
    assert pocketfft == "True"


@pytest.fixture(scope="module")
def intact_runs(tmp_path_factory, gauge_run, fit_run):
    """(run directory, the report.json diagnose writes on it intact) of a
    deterministic bubble, of one that fits a rate, and of a noise run."""
    bubble = tmp_path_factory.mktemp("bubble") / "run"
    assert run_scenario(build_scenario(parse_config_text(ROW_CUT_BUBBLE)), bubble)[1] == 0
    runs = {}
    for name, run_dir in (("bubble", bubble), ("fit", fit_run), ("gauge", gauge_run)):
        files = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*") if p.is_file())
        assert files == sorted(_RUN_FILES[name])
        scratch = tmp_path_factory.mktemp(f"{name}_report") / "run"
        shutil.copytree(run_dir, scratch)
        assert CliRunner().invoke(cli.main, ["diagnose", str(scratch)]).exit_code == 0
        runs[name] = (run_dir, (scratch / "report.json").read_bytes())
    return runs


_NON_FINITE = ("nan", "inf", "-inf")


def _damage(text: str, damage: str, at: int, col: int) -> str:
    """``text`` cut at a character or after a line, emptied, without one
    comma-separated column, with a body or header field not a number, or
    with a body field not finite (``_NON_FINITE``: a run writes none, bar
    ``lambda`` without a reference gradient)."""
    lines = text.splitlines(keepends=True)
    if damage == "cut":
        return text[: at % len(text)]
    if damage == "rows":
        return "".join(lines[: at % len(lines)])
    if damage == "empty":
        return ""
    row = 0 if damage in ("drop_column", "header") else 1 + at % (len(lines) - 1)
    fields = lines[row].rstrip("\n").split(",")
    j = col % len(fields)
    if damage == "drop_column":
        return "".join(
            ",".join(f for i, f in enumerate(line.rstrip("\n").split(",")) if i != j) + "\n"
            for line in lines
        )
    fields[j] = damage if damage in _NON_FINITE else "x"
    lines[row] = ",".join(fields) + "\n"
    return "".join(lines)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.sampled_from([(run, name) for run, names in _RUN_FILES.items() for name in names]),
    st.sampled_from(["cut", "rows", "empty", "drop_column", "value", "header", *_NON_FINITE]),
    st.integers(0, 2**20),
    st.integers(0, 64),
)
# diagnostics.csv cut to 200 of its lines, at a row boundary: every file
# keeps its layout, so only the final snapshot's time tells
@example(("bubble", "traj_000/diagnostics.csv"), "rows", 200, 0)
# t = nan in row 1000 of a run that fits a rate: the fit's least squares
# would fail inside LAPACK
@example(("fit", "traj_000/diagnostics.csv"), "nan", 999, 0)
def test_diagnose_damaged_run_refused_or_unchanged(intact_runs, target, damage, at, col):
    # a damaged run directory is refused with one line (exit 2), or, when
    # diagnose does not read the damaged file, reported as if intact
    run, name = target
    intact, report = intact_runs[run]
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        shutil.copytree(intact, run_dir)
        path = run_dir / name
        path.write_text(_damage(path.read_text(), damage, at, col))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = CliRunner().invoke(cli.main, ["diagnose", str(run_dir)])
        assert "Traceback" not in res.output and not caught
        if res.exit_code == 0:
            assert (run_dir / "report.json").read_bytes() == report
        else:
            assert res.exit_code == 2, res.output
            assert res.stderr.count("\n") == 1, res.stderr


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
    ("scenario run", "grid.N = 256", "grid.N = 250"),
    ("scenario run", "soliton.waves = 1.0:1.0:0.0:0.0", "soliton.waves = 1.0:1.0:0.0:18.0"),
    ("scenario run", "evolve.t1 = 0.25", "evolve.t1 = 1e9"),
], ids=["run_modes", "run_dt0", "run_cadence", "ensemble_modes", "evolve_cadence",
        "run_grid", "run_profile", "run_path_span"])
def test_cli_config_value_errors_exit_2(tmp_path, command, old, new):
    # values the schema accepts but the grid, the exact profiles, the noise
    # model or the integrator refuses; the refusal comes before the run
    # directory is touched, so an earlier run's files there stay as they were
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


_PROBE_RUN = {
    "scenario.kind": "critical_blowup", "grid.N": "512", "blowup.bubbles": "0:1:0",
    "noise.kind": "schwartz", "noise.amplitude": "0.1", "evolve.t1": "0.1",
    "ensemble.size": "2", "output.dir": "probe",
}


# the probe run as the kinds that read init.* (loglog) and z* need it; each
# base prepares as it stands, so only the row's value is refused
_PROBE_KINDS = {
    "critical_blowup": {},
    "loglog_supercritical": {"scenario.kind": "loglog_supercritical"},
    "bourgain_wang": {"scenario.kind": "bourgain_wang", "noise.kind": "none"},
    "nonpure_soliton": {"scenario.kind": "nonpure_soliton", "noise.kind": "none",
                        "grid.L": "80", "soliton.waves": "0:1:0:0", "evolve.t0": "1.25",
                        "evolve.t1": "1.3"},
}


@pytest.mark.parametrize("command, kind, key, value", [
    ("scenario run", "critical_blowup", "evolve.t1", "nan"),
    ("scenario run", "critical_blowup", "evolve.t1", "inf"),
    ("scenario run", "critical_blowup", "evolve.dt0", "nan"),
    ("scenario run", "critical_blowup", "evolve.gmax", "nan"),
    ("scenario run", "critical_blowup", "evolve.width_factor", "nan"),
    ("scenario run", "critical_blowup", "noise.amplitude", "nan"),
    ("scenario run", "critical_blowup", "blowup.bubbles", "0:1:nan"),
    ("scenario run", "critical_blowup", "zstar.center", "-inf"),
    ("scenario ensemble", "critical_blowup", "ensemble.workers", "-3"),
    ("scenario run", "critical_blowup", "noise.seed", "-1"),
    ("scenario run", "loglog_supercritical", "init.mass_sq_ratio", "0"),
    ("scenario run", "loglog_supercritical", "init.mass_sq_ratio", "-1"),
    ("scenario run", "loglog_supercritical", "init.width", "0"),
    ("scenario run", "bourgain_wang", "zstar.width", "0"),
    ("scenario run", "bourgain_wang", "zstar.amplitude_rel", "0"),
    ("scenario run", "nonpure_soliton", "zstar.amplitude_rel", "0"),
    ("scenario run", "critical_blowup", "evolve.dt0", "1e-290"),
    ("scenario run", "critical_blowup", "evolve.dt0", "1e-300"),
    ("scenario run", "critical_blowup", "evolve.t1", "1e300"),
    ("scenario run", "loglog_supercritical", "init.width", "1e-200"),
    ("scenario run", "critical_blowup", "blowup.bubbles", "0:1e200:0"),
    ("scenario run", "critical_blowup", "grid.L", "1e-300"),
    ("scenario run", "critical_blowup", "grid.L", "4"),
    ("scenario run", "loglog_supercritical", "init.width", "1e-3"),
    ("scenario run", "loglog_supercritical", "init.width", "1.5e-154"),
    ("scenario run", "bourgain_wang", "zstar.width", "1e-3"),
    ("scenario run", "nonpure_soliton", "zstar.width", "0.6"),
], ids=["t1_nan", "t1_inf", "dt0_nan", "gmax_nan", "width_factor_nan", "amplitude_nan",
        "bubble_phase_nan", "point_inf", "workers_negative", "seed_negative",
        "mass_sq_ratio_zero", "mass_sq_ratio_negative", "init_width_zero", "zstar_width_zero",
        "zstar_amplitude_zero_bourgain_wang", "zstar_amplitude_zero_nonpure_soliton",
        "span_dt0_tiny", "span_dt0_subnormal_unit", "span_t1_huge", "init_width_square_underflows",
        "bubble_width_square_overflows", "grid_L_tiny", "grid_L_4", "init_width_under_resolved",
        "init_width_quotient_overflows", "zstar_width_under_resolved_bourgain_wang",
        "zstar_width_under_resolved_nonpure_soliton"])
def test_cli_refuses_non_finite_values_and_workers_below_one(tmp_path, command, kind, key, value):
    # also the non-positive initial data, which crashed or warned before the
    # config error, the spans and widths that hung or overflowed, a box too
    # small for the boundary-mass ball and widths below 4 dx, which sample
    # one spike: one stderr line, no warning, and no run directory.  The
    # schema's and the initial data's refusals name the key; the
    # integrator's and the exact profile's name the value.
    says = {
        ("evolve.dt0", "1e-290"): "time span", ("evolve.dt0", "1e-300"): "time span",
        ("evolve.t1", "1e300"): "time span", ("blowup.bubbles", "0:1e200:0"): "bubble width",
    }.get((key, value), key)
    text = "".join(f"{k} = {v}\n" for k, v in {**_PROBE_RUN, **_PROBE_KINDS[kind], key: value}.items())
    cfg_file = tmp_path / "probe.cfg"
    cfg_file.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = CliRunner().invoke(
            cli.main, [*command.split(), str(cfg_file)], env={"NLSLAB_OUT": str(tmp_path)}
        )
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("config error") and says in res.stderr, res.stderr
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.output, res.stderr
    assert not caught
    assert not (tmp_path / "probe").exists()


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


@pytest.mark.parametrize("args, reason", [
    (["-N", "1000"], "power of two"),
    (["-N", "128"], "too coarse"),
    (["-d", "3"], "dimension"),
    (["-p", "7"], "exponent"),
    (["--tol", "nan"], "tolerance"),
    (["--tol", "inf"], "tolerance"),
    (["-L", "nan"], "extent"),
], ids=["N_not_power_of_two", "dx_too_coarse", "d3", "p_supercritical", "tol_nan", "tol_inf", "L_nan"])
def test_cli_ground_state_refused_options_exit_2(tmp_path, args, reason):
    # the grid or the solver refuses the option, by name, before the output is made
    res = _cli(["ground-state", *args, "--out", "gs"], cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert reason in res.stderr, res.stderr
    assert not (tmp_path / "gs").exists()


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
