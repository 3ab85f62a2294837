"""Command-line interface: ground-state solves, evolution runs, diagnostics
reports, and config-driven scenarios."""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import diagnostics as diag
from .evolution import FAILED_STOPS
from .grid import make_grid, read_snapshot, write_snapshot
from .ground_state import solve_ground_state, variational_identities
from .scenario import (
    ConfigError,
    load_scenario,
    open_run_dir,
    prepare_run,
    run_ensemble,
    run_profile,
    run_scenario,
    run_trajectory,
    write_summary_json,
    write_trajectory_artifacts,
)


@contextlib.contextmanager
def _config_errors():
    """A ConfigError raised inside exits 2 with ``config error``."""
    try:
        yield
    except ConfigError as exc:
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
    outdir = open_run_dir(sc)
    with _config_errors():
        prep = prepare_run(sc)
    traj = run_trajectory(sc, prep, sc.noise_seed)
    write_trajectory_artifacts(sc, traj, outdir / "traj_000")
    click.echo(f"stop_reason={traj.stop_reason} steps={traj.n_steps} out={outdir}")
    sys.exit(3 if traj.stop_reason in FAILED_STOPS else 0)


def _read_csv(path: Path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


@main.command("diagnose")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
def diagnose_cmd(run_dir):
    """Re-run the diagnostic battery on dumped trajectory artifacts.

    The ground profile is the run's own (``grid.d`` and ``physics.p`` of its
    ``config.txt``); without that file, the critical one of the snapshot's d.
    """
    run_dir = Path(run_dir)
    config = run_dir / "config.txt"
    sc = _load(config) if config.exists() else None
    tdir = run_dir / "traj_000"
    if not tdir.exists():
        tdir = run_dir
    header, data = _read_csv(tdir / "diagnostics.csv")
    col = {name: data[:, i] for i, name in enumerate(header)}
    t, grad = col["t"], col["grad_norm"]
    report = {
        "banica_ok": None,
        "h_evo_max_residual": None,
        "T_est": None,
        "alpha": None,
        "loglog_score": None,
        "virial_series": None,
        "concentration": None,
    }

    if grad.max() >= 10.0 * grad.min():
        mask = grad >= 1.2 * grad[0]
        try:
            fit = diag.blowup_rate_fit(t[mask], grad[mask])
            report.update(
                T_est=fit.t_est, alpha=fit.alpha, loglog_score=fit.loglog_score
            )
        except diag.DiagnosticsError as exc:
            report["rate_fit_error"] = str(exc)

    hevo = tdir / "hevo.csv"
    if hevo.exists():
        hh, hdata = _read_csv(hevo)
        n = (len(hh) - 2) // 3
        ham = hdata[:, 1]
        smear = hdata[:, 2 : 2 + n]
        marty = hdata[:, 2 + n : 2 + 2 * n]
        weights = hdata[:, 2 + 2 * n :]
        th = hdata[:, 0]
        h1i = 0.5 * smear.sum(axis=1)
        h1 = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(th) * (h1i[1:] + h1i[:-1]))])
        db = np.diff(weights, axis=0)
        h2 = np.concatenate([[0.0], np.cumsum(-np.sum(marty[:-1] * db, axis=1))])
        resid = ham - ham[0] - h1 - h2
        report["h_evo_max_residual"] = float(np.abs(resid).max())
        lhs = np.abs(marty)
        rhs = np.sqrt(2.0 * np.maximum(ham, 0.0)[:, None] * smear)
        report["banica_ok"] = bool(np.max(lhs - rhs) <= 1e-10)
        with open(run_dir / "hevo_residual_check.csv", "w") as fh:
            fh.write("t,residual\n")
            for ti, ri in zip(th, resid):
                fh.write(f"{ti:.17g},{ri:.17g}\n")
    else:
        report["h_evo_max_residual"] = float(
            np.abs(col["hamiltonian"] - col["hamiltonian"][0]).max()
        )

    final_snap = tdir / "snapshot_final.txt"
    if final_snap.exists():
        fld, t_fin = read_snapshot(final_snap)
        profile = run_profile(sc.d, sc.p) if sc is not None else run_profile(fld.grid.d)
        try:
            mf = diag.modulation_fit(fld, profile)
            conc = diag.localized_mass(fld, mf.center, 1.0)
            report["concentration"] = {
                "R": 1.0,
                "fraction": conc / profile.mass_sq,
            }
            snaps = sorted(tdir.glob("snapshot_0*.txt"))
            if snaps:
                times, virs = [], []
                for sp in snaps:
                    f, ts = read_snapshot(sp)
                    times.append(ts)
                    virs.append(diag.virial(f, mf.center, None))
                report["virial_series"] = {"t": times, "virial": virs}
                with open(run_dir / "virial_check.csv", "w") as fh:
                    fh.write("t,virial\n")
                    for ti, vi in zip(times, virs):
                        fh.write(f"{ti:.17g},{vi:.17g}\n")
        except diag.DiagnosticsError as exc:
            report["modulation_error"] = str(exc)

    write_summary_json(run_dir / "report.json", report)
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
