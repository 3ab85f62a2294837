"""Command-line interface: ground-state solves, evolution runs, diagnostics
reports, and config-driven scenarios."""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from .evolution import FAILED_STOPS, EvolveError
from .grid import make_grid, write_snapshot
from .ground_state import solve_ground_state, variational_identities
from .noise import NoiseError
from .scenario import (
    ConfigError,
    MissingTrajectory,
    diagnose_run,
    load_scenario,
    open_run_dir,
    prepare_run,
    run_ensemble,
    run_scenario,
    run_trajectory,
    write_summary_json,
    write_trajectory_artifacts,
)


@contextlib.contextmanager
def _config_errors():
    """A ConfigError, or an EvolveError or NoiseError from a config value,
    raised inside exits 2 with ``config error``."""
    try:
        yield
    except (ConfigError, EvolveError, NoiseError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)


def _load(config_file):
    """The scenario of a config file; a schema violation exits 2."""
    with _config_errors():
        return load_scenario(config_file)


@click.group()
def main():
    """Simulation lab for the focusing critical (stochastic) NLS."""


@main.command("ground-state")
@click.option("-d", "dim", type=int, default=1, show_default=True)
@click.option("-p", "power", type=float, default=None, help="nonlinearity exponent (default critical)")
@click.option("-L", "extent", type=float, default=40.0, show_default=True)
@click.option("-N", "points", type=int, default=1024, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--out", type=click.Path(), default="ground_state_out", show_default=True)
def ground_state_cmd(dim, power, extent, points, tol, out):
    """Solve the nonlinear ground-state equation on the grid."""
    if power is None:
        power = 1.0 + 4.0 / dim
    grid = make_grid(dim, extent, points)
    gs = solve_ground_state(grid, dim, power, tol=tol)
    rep = variational_identities(gs)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_snapshot(outdir / "ground_state.txt", gs.field, 0.0)
    record = {
        "d": dim,
        "p": power,
        "mass": float(np.sqrt(gs.mass_sq)),
        "mass_sq": gs.mass_sq,
        "hamiltonian": rep.hamiltonian,
        "residual": gs.residual,
        "q0": gs.amplitude,
        "pohozaev_gap_rel": rep.pohozaev_gap_rel,
    }
    write_summary_json(outdir / "ground_state.json", record)
    click.echo(json.dumps(record, sort_keys=True))


@main.command("evolve")
@click.argument("config_file", type=click.Path(exists=True))
def evolve_cmd(config_file):
    """Integrate a scenario config; write config.txt, diagnostics CSV and snapshots."""
    sc = _load(config_file)
    with _config_errors():
        prep = prepare_run(sc)
        outdir = open_run_dir(sc, prep)
        traj = run_trajectory(sc, prep, sc.noise_seed)
    write_trajectory_artifacts(sc, traj, outdir / "traj_000")
    click.echo(f"stop_reason={traj.stop_reason} steps={traj.n_steps} out={outdir}")
    sys.exit(3 if traj.stop_reason in FAILED_STOPS else 0)


@main.command("diagnose")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
def diagnose_cmd(run_dir):
    """Re-run the diagnostic battery on dumped trajectory artifacts.

    The ground profile is the run's own (``grid.d`` and ``physics.p`` of its
    ``config.txt``); without that file, the critical one of the snapshot's d.
    A directory without a trajectory exits 2.
    """
    config = Path(run_dir) / "config.txt"
    sc = _load(config) if config.exists() else None
    try:
        report = diagnose_run(run_dir, sc)
    except MissingTrajectory as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
    click.echo(json.dumps(report, sort_keys=True))


@main.group()
def scenario():
    """Run scenario configs."""


@scenario.command("run")
@click.argument("config_file", type=click.Path(exists=True))
def scenario_run(config_file):
    """Run one scenario and its diagnostic battery."""
    sc = _load(config_file)
    with _config_errors():
        summary, code = run_scenario(sc)
    click.echo(json.dumps(summary, sort_keys=True))
    sys.exit(code)


@scenario.command("ensemble")
@click.argument("config_file", type=click.Path(exists=True))
def scenario_ensemble(config_file):
    """Run a seed ensemble of one scenario."""
    sc = _load(config_file)
    with _config_errors():
        summary, code = run_ensemble(sc)
    click.echo(json.dumps(summary, sort_keys=True))
    sys.exit(code)


if __name__ == "__main__":
    main()
