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
from .grid import GridError, make_grid, write_snapshot
from .ground_state import (
    GroundStateError, critical_exponent, solve_ground_state, variational_identities,
)
from .noise import NoiseError
from .scenario import (
    ConfigError,
    TrajectoryError,
    diagnose_run,
    load_scenario,
    run_and_write,
    run_ensemble,
    run_scenario,
    write_summary_json,
)


@contextlib.contextmanager
def _config_errors():
    """A ConfigError, or an EvolveError, NoiseError or GroundStateError from
    a config value, raised inside exits 2 with ``config error``."""
    try:
        yield
    except (ConfigError, EvolveError, GroundStateError, NoiseError) as exc:
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
    """Solve the nonlinear ground-state equation on the grid.  A grid or an
    exponent the solver refuses exits 2 before ``--out`` is created."""
    try:
        grid = make_grid(dim, extent, points)
        if power is None:
            power = critical_exponent(dim)
        gs = solve_ground_state(grid, power, tol=tol)
    except (GridError, GroundStateError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
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
    """Integrate a scenario config, then write config.txt, diagnostics CSV,
    snapshots and a summary.json with the step count ``diagnose`` checks."""
    sc = _load(config_file)
    with _config_errors():
        _, traj, outdir = run_and_write(sc)
    write_summary_json(outdir / "summary.json", {
        "n_steps": traj.n_steps, "stop_reason": traj.stop_reason, "t_final": traj.final_time,
    })
    click.echo(f"stop_reason={traj.stop_reason} steps={traj.n_steps} out={outdir}")
    sys.exit(3 if traj.stop_reason in FAILED_STOPS else 0)


@main.command("diagnose")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
def diagnose_cmd(run_dir):
    """Run the diagnostic battery on the run directory of ``scenario run`` or
    ``evolve``: ``traj_000/``, ``config.txt`` (its ``physics.p``) and
    ``summary.json`` (its stop reason).  A directory without one of them, a
    damaged trajectory, a malformed ``config.txt`` line or a ``physics.p``
    that is missing, does not parse or has no ground profile exits 2.
    """
    try:
        with _config_errors():
            report = diagnose_run(run_dir)
    except (TrajectoryError, GridError) as exc:
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
