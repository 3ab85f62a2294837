"""Config-driven scenario runner: reproducible experiments over all modules.

Scenario configs are flat ``section.key = value`` text files (one assignment
per line, ``#`` comments).  A run builds exact initial data, integrates,
executes the diagnostic battery, and writes deterministic artifacts: CSV
series, a JSON summary (sorted keys) and snapshot files.  Re-running the
same config reproduces every artifact byte for byte.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import re
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import diagnostics as diag
from .evolution import (
    FAILED_STOPS,
    EvolveConfig,
    EvolveError,
    NoiseSetup,
    Trajectory,
    backward_solve,
    integrate,
)
from .exact import (
    BlowupParams,
    Bubble,
    ProfileError,
    Soliton,
    SolitonParams,
    pseudo_conformal_blowup,
    pseudo_conformal_map,
    solitary_wave,
)
from .grid import (
    ComplexField, GridError, GridSpec, l2_norm_sq, make_grid, norm_suite, read_rows,
    read_snapshot, write_snapshot,
)
from .ground_state import GroundProfile, critical_exponent, ground_profile
from .noise import ProfileSpec

SCENARIO_KINDS = (
    "critical_blowup",
    "multi_bubble",
    "bourgain_wang",
    "multi_soliton",
    "nonpure_soliton",
    "snls_gauge_check",
    "loglog_supercritical",
)
# travelling-soliton kinds: lambda = ||grad Q||/||grad v|| measures no width there
SOLITON_KINDS = ("multi_soliton", "nonpure_soliton", "snls_gauge_check")

OUTPUT_ROOT_ENV = "NLSLAB_OUT"

# largest relative mass drift a run may show, with or without noise: every
# step, gauged or not, is unitary to rounding
MASS_BUDGET = 1e-12


class ConfigError(ValueError):
    """Schema violation in a scenario config (exit code 2)."""


# ---------------------------------------------------------------------------
# config schema: one row per key drives parsing, defaults and rendering


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _parse_kind(raw: str, d) -> str:
    if raw not in SCENARIO_KINDS:
        raise ConfigError(f"scenario.kind must be one of {SCENARIO_KINDS}, got {raw!r}")
    return raw


def _parse_dim(raw: str, d) -> int:
    d = int(raw)
    if d not in (1, 2):
        raise ConfigError("grid.d must be 1 or 2")
    return d


def _float(raw: str, d=None) -> float:
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError("value must be finite")
    return x


def _parse_point(raw: str, d: int):
    parts = [_float(p) for p in raw.split(",")]
    if len(parts) != d:
        raise ValueError(f"point needs {d} components, got {raw!r}")
    return tuple(parts)


def _render_point(point) -> str:
    return ",".join(_fmt(c) for c in point)


def _parse_points(raw: str, d: int):
    return tuple(_parse_point(c, d) for c in raw.split(";"))


def _render_points(points) -> str:
    return ";".join(_render_point(pt) for pt in points)


def _parse_bubbles(raw: str, d: int):
    bubbles = []
    for chunk in raw.split(";"):
        fields = chunk.strip().split(":")
        if len(fields) != 3:
            raise ValueError(f"bubble needs position:width:phase, got {chunk!r}")
        position, width, phase = fields
        bubbles.append(Bubble(_parse_point(position, d), _float(width), _float(phase)))
    return tuple(bubbles)


def _render_bubbles(bubbles) -> str:
    return ";".join(
        ":".join([_render_point(b.position), _fmt(b.width), _fmt(b.phase)]) for b in bubbles
    )


def _parse_solitons(raw: str, d: int):
    waves = []
    for chunk in raw.split(";"):
        fields = chunk.strip().split(":")
        if len(fields) != 4:
            raise ValueError(
                f"soliton needs velocity:width:phase:position, got {chunk!r}"
            )
        velocity, width, phase, position0 = fields
        waves.append(
            Soliton(_parse_point(velocity, d), _float(width), _float(phase), _parse_point(position0, d))
        )
    return tuple(waves)


def _render_solitons(waves) -> str:
    return ";".join(
        ":".join([_render_point(s.velocity), _fmt(s.width), _fmt(s.phase), _render_point(s.position0)])
        for s in waves
    )


class _Key(NamedTuple):
    """One config key: ``parse(raw, d)`` reads it, ``render`` writes it back.

    ``default`` is a value, a function of the fields parsed before this row,
    or ``REQUIRED``.
    """

    key: str
    field: str
    parse: Callable
    render: Callable
    default: object


REQUIRED = object()
# (parse, render) of the scalar keys
_FLOAT = (_float, _fmt)
_INT = (lambda raw, d: int(raw), str)
_STR = (lambda raw, d: raw, str)

SCHEMA = (
    _Key("scenario.kind", "kind", _parse_kind, str, REQUIRED),
    _Key("grid.d", "d", _parse_dim, str, 1),
    _Key("grid.L", "extent", *_FLOAT, 40.0),
    _Key("grid.N", "points", *_INT, 1024),
    _Key("physics.p", "p", *_FLOAT, lambda f: critical_exponent(f["d"])),
    _Key("blowup.bubbles", "bubbles", _parse_bubbles, _render_bubbles, ()),
    _Key("blowup.T", "blowup_time", *_FLOAT, 1.0),
    _Key("soliton.waves", "solitons", _parse_solitons, _render_solitons, ()),
    _Key("zstar.amplitude_rel", "zstar_amplitude_rel", *_FLOAT, 0.05),
    _Key("zstar.center", "zstar_center", _parse_point, _render_point, lambda f: (10.0,) * f["d"]),
    _Key("zstar.width", "zstar_width", *_FLOAT, 1.0),
    _Key("noise.kind", "noise_kind", *_STR, "none"),
    _Key("noise.amplitude", "noise_amplitude", *_FLOAT, 0.0),
    _Key("noise.modes", "noise_modes", *_INT, 1),
    _Key("noise.seed", "noise_seed", *_INT, 0),
    _Key("noise.flat_points", "noise_flat_points", _parse_points, _render_points, ()),
    _Key("init.mass_sq_ratio", "init_mass_sq_ratio", *_FLOAT, 1.2),
    _Key("init.width", "init_width", *_FLOAT, 1.0),
    _Key("evolve.t0", "t0", *_FLOAT, 0.0),
    _Key("evolve.t1", "t1", *_FLOAT, REQUIRED),
    _Key("evolve.dt0", "dt0", *_FLOAT, 1e-3),
    _Key("evolve.gmax", "g_max", *_FLOAT, 1e5),
    _Key("evolve.width_factor", "width_factor", *_FLOAT, 4.0),
    _Key("evolve.cadence", "cadence", *_INT, 100),
    _Key("output.dir", "out_dir", *_STR, lambda f: f"runs/{f['kind']}"),
    _Key("output.snapshots", "snapshots", *_STR, "final"),
    _Key("ensemble.size", "ensemble_size", *_INT, 1),
    _Key("ensemble.workers", "ensemble_workers", *_INT, None),
)


@dataclass
class ScenarioConfig:
    kind: str
    d: int
    extent: float
    points: int
    p: float
    blowup_time: float
    bubbles: tuple
    solitons: tuple
    zstar_amplitude_rel: float
    zstar_center: tuple
    zstar_width: float
    noise_kind: str
    noise_amplitude: float
    noise_modes: int
    noise_seed: int
    noise_flat_points: tuple
    init_mass_sq_ratio: float
    init_width: float
    t0: float
    t1: float
    dt0: float
    g_max: float
    width_factor: float
    cadence: int
    out_dir: str
    snapshots: str
    ensemble_size: int
    ensemble_workers: Optional[int]

    @property
    def grid(self) -> GridSpec:
        return make_grid(self.d, self.extent, self.points)


def build_scenario(cfg: dict) -> ScenarioConfig:
    cfg = dict(cfg)
    fields: dict = {}
    for row in SCHEMA:
        if row.key in cfg:
            raw = cfg.pop(row.key)
            try:
                fields[row.field] = row.parse(raw, fields.get("d"))
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"key {row.key!r}: cannot parse {raw!r} ({exc})") from exc
        elif row.default is REQUIRED:
            raise ConfigError(f"missing required key {row.key!r}")
        else:
            fields[row.field] = row.default(fields) if callable(row.default) else row.default
    if cfg:
        raise ConfigError(f"unknown config keys: {sorted(cfg)}")
    sc = ScenarioConfig(**fields)
    _validate_scenario(sc)
    return sc


def render_config(sc: ScenarioConfig) -> str:
    """Every key whose value is set, defaults resolved, in schema order:
    loading the text gives back an equal ``ScenarioConfig``."""
    lines = []
    for row in SCHEMA:
        value = getattr(sc, row.field)
        if value is not None and value != ():
            lines.append(f"{row.key} = {row.render(value)}")
    return "\n".join(lines) + "\n"


def _validate_scenario(sc: ScenarioConfig) -> None:
    problems = []
    if sc.noise_kind not in ("none", "constant", "schwartz", "flat"):
        problems.append(f"noise.kind {sc.noise_kind!r} unknown")
    if sc.snapshots not in ("none", "final", "all"):
        problems.append(f"output.snapshots {sc.snapshots!r} unknown")
    if sc.ensemble_size < 1:
        problems.append("ensemble.size must be >= 1")
    if sc.ensemble_workers is not None and sc.ensemble_workers < 1:
        problems.append("ensemble.workers must be >= 1")
    if sc.noise_seed < 0:
        problems.append("noise.seed must be >= 0")
    if sc.kind in ("critical_blowup", "multi_bubble", "bourgain_wang") and not sc.bubbles:
        problems.append(f"{sc.kind} requires blowup.bubbles")
    if sc.kind == "multi_bubble" and len(sc.bubbles) < 2:
        problems.append("multi_bubble requires at least two bubbles")
    if sc.kind in SOLITON_KINDS and not sc.solitons:
        problems.append(f"{sc.kind} requires soliton.waves")
    if sc.kind == "bourgain_wang":
        if sc.noise_kind != "none":
            problems.append("bourgain_wang supports deterministic runs only")
        if sc.zstar_amplitude_rel > 0.1:
            problems.append("zstar.amplitude_rel must be <= 0.1 (smallness)")
    if sc.kind == "nonpure_soliton" and sc.t0 <= 0:
        problems.append("nonpure_soliton requires evolve.t0 > 0")
    if abs(sc.p - critical_exponent(sc.d)) > 1e-12:
        if sc.d != 1 or not (1.0 < sc.p < critical_exponent(1)):
            problems.append("subcritical exponents are supported for d=1 only")
        if sc.kind in ("critical_blowup", "multi_bubble", "bourgain_wang", "loglog_supercritical"):
            problems.append(f"{sc.kind} requires the critical exponent")
    if problems:
        raise ConfigError("; ".join(problems))


def load_scenario(path) -> ScenarioConfig:
    return build_scenario(parse_config_text(Path(path).read_text()))


def run_profile(d: int, p: Optional[float] = None) -> GroundProfile:
    """The ground profile a run compares against: exponent ``p`` in 1-d
    (default critical), the critical one in 2-d."""
    return ground_profile(d, p if d == 1 else None)


# ---------------------------------------------------------------------------
# initial data per scenario kind


@dataclass
class PreparedRun:
    """A run's initial data and the exact family its snapshots are measured
    against: ``reference(t)`` with profile centres ``centers(t)`` (None
    without one).  ``regular = (field, time, clock, frame)`` is the regular
    profile z at ``time``, marched by ``integrate`` to ``clock(t)`` and seen
    as ``frame(z, t)``.  ``per_bubble`` asks for each bubble's H1 residual;
    ``grad_ref`` is ||grad Q||, None where lambda measures no width."""

    initial: ComplexField
    reference: Optional[Callable] = None
    centers: Optional[Callable] = None
    regular: Optional[tuple] = None
    per_bubble: bool = False
    grad_ref: Optional[float] = None


def _gaussian_with_mass(grid: GridSpec, width: float, mass_sq: float) -> ComplexField:
    r2 = grid.radius_squared()
    vals = np.exp(-r2 / width**2).astype(np.complex128)
    f = ComplexField(grid, vals)
    return ComplexField(grid, vals * math.sqrt(mass_sq / l2_norm_sq(f)))


def _regular_profile(
    sc: ScenarioConfig, grid: GridSpec, profile, blowup_time: float, t0: float
) -> ComplexField:
    """The solution at t0 that equals z* at ``blowup_time``.

    z* is a Gaussian whose H1 norm is ``zstar.amplitude_rel`` times the run
    profile's, and the smallness check measures it against that same norm.
    """
    r2 = grid.radius_squared(sc.zstar_center)
    vals = np.exp(-r2 / sc.zstar_width**2).astype(np.complex128)
    q_h1 = norm_suite(profile.sample(grid)).h1
    scale = sc.zstar_amplitude_rel * q_h1 / norm_suite(ComplexField(grid, vals)).h1
    zstar = ComplexField(grid, vals * scale)
    return backward_solve(zstar, blowup_time, t0, sc.p, dt0=sc.dt0, smallness_ref=q_h1)


def prepare_run(sc: ScenarioConfig) -> PreparedRun:
    """The run's initial data and exact family.  Data it cannot prepare (a
    grid the grid model refuses, a profile out of its window, regular-profile
    data the backward solve refuses) is a config error."""
    try:
        return _prepare(sc)
    except (GridError, ProfileError, EvolveError) as exc:
        raise ConfigError(str(exc)) from exc


def _prepare(sc: ScenarioConfig) -> PreparedRun:
    grid = sc.grid
    profile = run_profile(sc.d, sc.p)
    grad_ref = math.sqrt(profile.grad_sq)
    if sc.kind == "loglog_supercritical":
        initial = _gaussian_with_mass(grid, sc.init_width, sc.init_mass_sq_ratio * profile.mass_sq)
        return PreparedRun(initial, grad_ref=grad_ref)
    if sc.kind not in SOLITON_KINDS:
        blowup = BlowupParams(blowup_time=sc.blowup_time, bubbles=sc.bubbles)
        initial = pseudo_conformal_blowup(blowup, sc.t0, grid, profile)
        regular = None
        if sc.kind == "bourgain_wang":
            z0 = _regular_profile(sc, grid, profile, sc.blowup_time, sc.t0)
            initial = ComplexField(grid, initial.values + z0.values)
            regular = (z0, sc.t0, lambda t: t, lambda z, t: z)
        return PreparedRun(
            initial,
            reference=lambda t: pseudo_conformal_blowup(blowup, t, grid, profile),
            centers=lambda t: [b.position for b in blowup.bubbles],
            regular=regular, per_bubble=True, grad_ref=grad_ref,
        )
    solitons = SolitonParams(solitons=sc.solitons)
    initial = solitary_wave(solitons, sc.t0, grid, profile)
    if sc.kind == "snls_gauge_check":
        return PreparedRun(initial)
    regular = None
    if sc.kind == "nonpure_soliton":
        # the regular profile lives in the blow-up frame, on s = 1 - 1/t in [0, 1)
        clock = lambda t: 1.0 - 1.0 / t
        frame = lambda z, t: pseudo_conformal_map(z, t, 1.0, direction="inverse")[0]
        s0 = clock(sc.t0)
        z_at_s0 = _regular_profile(sc, grid, profile, 1.0, s0)
        initial = ComplexField(grid, initial.values + frame(z_at_s0, sc.t0).values)
        regular = (z_at_s0, s0, clock, frame)
    return PreparedRun(
        initial,
        reference=lambda t: solitary_wave(solitons, t, grid, profile),
        centers=lambda t: [
            np.asarray(s.position0, dtype=float) + np.asarray(s.velocity, dtype=float) * t
            for s in solitons.solitons
        ],
        regular=regular,
    )


def evolve_config_for(sc: ScenarioConfig, prep: PreparedRun, seed: int) -> EvolveConfig:
    spec = ProfileSpec(kind=sc.noise_kind, amplitude=sc.noise_amplitude,
                       n_modes=sc.noise_modes, flat_points=sc.noise_flat_points)
    noise = None if sc.noise_kind == "none" else NoiseSetup(profiles=spec, seed=seed)
    return EvolveConfig(
        p=sc.p,
        v0=prep.initial,
        t0=sc.t0,
        t1=sc.t1,
        dt0=sc.dt0,
        g_max=sc.g_max,
        width_factor=sc.width_factor,
        grad_ref=prep.grad_ref,
        cadence=sc.cadence,
        noise=noise,
    )


# ---------------------------------------------------------------------------
# the run-directory format: write_csv writes every CSV; the tables below lay
# out the trajectory files and read_trajectory reads them back


class TrajectoryError(ValueError):
    """No trajectory to diagnose in a directory, or a damaged one (exit 2)."""


def write_csv(path, columns: dict) -> None:
    """The column names, then one line per row.  Numbers have 17 significant
    digits, so reading them back gives every double exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(_fmt(x) for x in row) + "\n")


# (column, Trajectory series) per file.  A wide series (_WIDE) takes one
# column per axis (center_x, center_y) or per noise mode (B_1, B_2, ...),
# as many in every wide series of one file.
_WIDE = ("center", "smear", "marty", "noise_values")
_DIAGNOSTICS_COLUMNS = (
    ("t", "times"), ("mass", "mass"), ("hamiltonian", "hamiltonian"),
    ("grad_norm", "grad_norm"), ("lambda", "lam"), ("center", "center"),
    ("loc_mass", "loc_mass"), ("residual", "residual"),
)
_PATH_COLUMNS = (("t", "times"), ("B", "noise_values"))
_HEVO_COLUMNS = (
    ("t", "times"), ("hamiltonian", "hamiltonian"), ("smear", "smear"),
    ("marty", "marty"), ("B", "noise_values"),
)


def _header(layout, width: int) -> list:
    names = []
    for name, attr in layout:
        labels = "xy"[:width] if attr == "center" else range(1, width + 1)
        names += [f"{name}_{label}" for label in labels] if attr in _WIDE else [name]
    return names


def _columns(traj: Trajectory, layout) -> dict:
    series = [getattr(traj, attr) for _, attr in layout]
    width = max(s.shape[1] for s in series if s.ndim == 2)
    columns = [c for s in series for c in (s.T if s.ndim == 2 else [s])]
    return dict(zip(_header(layout, width), columns))


def _read_series(path: Path, layout) -> dict:
    """The series ``_columns`` gave ``write_csv``, bitwise; a header not the
    layout's, no rows, or a value not a number is a TrajectoryError."""
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            n_wide = sum(attr in _WIDE for _, attr in layout)
            width = (len(header) - len(layout) + n_wide) // n_wide
            if width < 1 or header != _header(layout, width):
                raise ValueError(f"columns {','.join(header)!r} are not its layout")
            data = read_rows(fh, ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"{data.shape[1]} values per row, {len(header)} columns")
    except ValueError as exc:
        raise TrajectoryError(f"damaged trajectory: {path}: {exc}") from exc
    cols = iter(np.ascontiguousarray(data.T))
    return {
        attr: np.column_stack([next(cols) for _ in range(width)]) if attr in _WIDE else next(cols)
        for _, attr in layout
    }


def _snapshot_files(tdir: Path) -> list:
    """The snapshots of an ``output.snapshots = all`` run, in time order."""
    return sorted(tdir.glob("snapshot_0*.txt"))


def write_trajectory_artifacts(sc: ScenarioConfig, traj: Trajectory, tdir: Path) -> None:
    tdir.mkdir(parents=True, exist_ok=True)
    write_csv(tdir / "diagnostics.csv", _columns(traj, _DIAGNOSTICS_COLUMNS))
    if traj.noise_values is not None:
        write_csv(tdir / "path.csv", _columns(traj, _PATH_COLUMNS))
        write_csv(tdir / "hevo.csv", _columns(traj, _HEVO_COLUMNS))
    if sc.snapshots != "none" and traj.snapshots:
        t_fin, snap = traj.snapshots[-1]
        write_snapshot(tdir / "snapshot_final.txt", snap, t_fin)
        if sc.snapshots == "all":
            for i, (t, s) in enumerate(traj.snapshots):
                write_snapshot(tdir / f"snapshot_{i:06d}.txt", s, t)


def read_trajectory(tdir) -> Trajectory:
    """The trajectory ``write_trajectory_artifacts`` wrote to ``tdir``: every
    series bitwise, and every written snapshot (all of them, or the final
    one).  What is not on disk reads back as None: the momenta, the noise
    profiles and the stop reason.  A CSV that is not its layout's, a
    ``hevo.csv`` whose rows are not those of ``diagnostics.csv``, or a last
    ``t`` that is not the final snapshot's time (a cut at a row) raises
    TrajectoryError; a run without snapshots (``output.snapshots = none``)
    has no time to check its rows against."""
    tdir = Path(tdir)
    if not (tdir / "diagnostics.csv").exists():
        raise TrajectoryError(f"no trajectory: {tdir} holds no diagnostics.csv")
    series = _read_series(tdir / "diagnostics.csv", _DIAGNOSTICS_COLUMNS)
    hevo = tdir / "hevo.csv"
    if hevo.exists():
        series.update(_read_series(hevo, _HEVO_COLUMNS))
        if len(series["times"]) != len(series["mass"]):
            raise TrajectoryError(f"damaged trajectory: {hevo} and diagnostics.csv differ in length")
    final = tdir / "snapshot_final.txt"
    paths = _snapshot_files(tdir) or ([final] if final.exists() else [])
    snapshots = [(t, field) for field, t in map(read_snapshot, paths)]
    if snapshots and series["times"][-1] != snapshots[-1][0]:
        raise TrajectoryError(f"damaged trajectory: {tdir / 'diagnostics.csv'} does not end at its final snapshot")
    return Trajectory(snapshots=snapshots, **series)


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, allow_nan=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the diagnostic battery


def _json_safe(x):
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if math.isfinite(x) else None
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def _grew(traj: Trajectory) -> bool:
    """||grad v|| grew by a decade, enough for a blow-up rate fit."""
    return traj.grad_norm.max() >= 10.0 * traj.grad_norm.min()


def _rate_fit(traj: Trajectory, out: dict) -> Optional[diag.RateFit]:
    """Fit the blow-up rate to ||grad v|| from 1.2 times its start on; sets
    ``T_est``, ``alpha`` and ``loglog_score``, or ``rate_fit_error``."""
    mask = traj.grad_norm >= 1.2 * traj.grad_norm[0]
    try:
        fit = diag.blowup_rate_fit(traj.times[mask], traj.grad_norm[mask])
    except diag.DiagnosticsError as exc:
        out["rate_fit_error"] = str(exc)
        return None
    out.update(T_est=fit.t_est, alpha=fit.alpha, loglog_score=fit.loglog_score)
    return fit


def _hevo_residual(traj: Trajectory, out: dict, path: Path) -> None:
    """Sets ``h_evo_max_residual``; a noise run writes the series to ``path``."""
    t_r, r = diag.hamiltonian_evolution_residual(traj)
    out["h_evo_max_residual"] = float(np.abs(r).max())
    if traj.marty is not None:
        write_csv(path, {"t": t_r, "residual": r})


def _fit_final_state(traj: Trajectory, profile: GroundProfile) -> tuple:
    """The modulation fit of the final state and its mass within R = 1 of
    the fitted centre."""
    mf = diag.modulation_fit(traj.final_state, profile)
    return mf, diag.localized_mass(traj.final_state, mf.center, 1.0)


def _virial_series(traj: Trajectory, center) -> tuple:
    """The uncut virial about ``center`` at every snapshot."""
    times = np.array([t for t, _ in traj.snapshots])
    return times, np.array([diag.virial(s, center, None) for _, s in traj.snapshots])


def run_battery(sc: ScenarioConfig, prep: PreparedRun, traj: Trajectory, outdir: Path) -> dict:
    profile = run_profile(sc.d, sc.p)
    q_mass = math.sqrt(profile.mass_sq)
    summary: dict = {
        "kind": sc.kind,
        "stop_reason": traj.stop_reason,
        "n_steps": traj.n_steps,
        "t_final": traj.final_time,
        "mass_drift": float(traj.residual.max()),
        "T_est": None,
        "alpha": None,
        "loglog_score": None,
        "banica_ok": True,
        "banica_applicable": False,
        "h_evo_max_residual": None,
        "concentration": None,
    }

    # Banica sweep whenever the mass precondition holds
    if traj.mass.max() <= q_mass + 1e-8:
        sweep = diag.banica_sweep(traj, q_mass)
        summary["banica_ok"] = bool(sweep.satisfied)
        summary["banica_applicable"] = True
        summary["banica_max_violation"] = sweep.max_violation

    _hevo_residual(traj, summary, outdir / "hevo_residual.csv")

    # blow-up rate fits when the run actually blew up
    grew = _grew(traj)
    if grew:
        fit = _rate_fit(traj, summary)
        if fit is not None:
            summary["rate_class"] = diag.classify_rate(fit)
        try:
            summary["T_extrapolated"] = diag.extrapolate_blowup_time(
                traj.times, traj.grad_norm
            )
        except diag.DiagnosticsError as exc:
            summary["T_extrapolated_error"] = str(exc)

    # modulation + concentration at the final state
    try:
        mf, conc = _fit_final_state(traj, profile)
        summary["modulation"] = {
            "scale": mf.scale,
            "center": [float(c) for c in mf.center],
            "phase": mf.phase,
            "resid_l2": mf.resid_l2,
            "resid_h1": mf.resid_h1,
            "ambiguous_center": bool(mf.ambiguous_center),
        }
        summary["concentration"] = {
            "R": 1.0,
            "fraction": conc / profile.mass_sq,
            "mass_sq": conc,
        }
        if grew and summary.get("T_est"):
            times, vir = _virial_series(traj, mf.center)
            write_csv(outdir / "virial.csv", {"t": times, "virial": vir})
            try:
                summary["virial_beta"] = diag.fit_time_power(
                    times[:-1], vir[:-1], summary["T_est"]
                )
            except diag.DiagnosticsError as exc:
                summary["virial_beta_error"] = str(exc)
            bound = traj.grad_norm**2 * (summary["T_est"] - traj.times) ** 2
            summary["rate_bound_min"] = float(bound.min())
    except diag.DiagnosticsError as exc:
        summary["modulation_error"] = str(exc)

    _residual_series(sc, traj, outdir, summary, prep)

    for key, val in list(summary.items()):
        if isinstance(val, dict):
            summary[key] = {k: _json_safe(v) for k, v in val.items()}
        else:
            summary[key] = _json_safe(val)
    return summary


def _residual_series(sc, traj, outdir, summary, prep: PreparedRun) -> None:
    """Profile residuals of each snapshot against the run's exact family
    (``prep.reference``, ``prep.centers``), less its regular profile if it
    has one, until the reference raises ProfileError."""
    if prep.reference is None:
        return
    if prep.regular:
        z, z_time, clock, frame = prep.regular
    times, l2s, h1s, per = [], [], [], []
    for t, snap in traj.snapshots:
        try:
            ref = prep.reference(t)
        except ProfileError:
            break
        if prep.regular and clock(t) > z_time:  # the first snapshot is at t0, z's time
            cfg = EvolveConfig(sc.p, z, z_time, clock(t), sc.dt0, adaptive=False, cadence=None,
                               lean_record=True)
            z, z_time = integrate(cfg).final_state, clock(t)
        z_field = frame(z, t) if prep.regular else None
        res = diag.profile_residuals(snap, ref, prep.centers(t), z=z_field)
        times.append(t)
        l2s.append(res.l2)
        h1s.append(res.h1)
        per.append([b[1] for b in res.per_bubble])
    if not times:
        return
    rows = {"t": times, "l2": l2s, "h1": h1s}
    if prep.per_bubble:
        for k in range(len(per[0])):
            rows[f"h1_bubble_{k}"] = [pb[k] for pb in per]
        summary["profile_residual_max_h1_per_bubble"] = float(np.max(per))
    write_csv(outdir / "profile_residuals.csv", rows)
    summary["profile_residual_max_l2"] = float(np.max(l2s))
    summary["profile_residual_max_h1"] = float(np.max(h1s))


def diagnose_run(run_dir: Path) -> dict:
    """The battery's checks that need no rerun, on the trajectory in
    ``run_dir/traj_000`` (or ``run_dir``), as ``report.json`` (also
    returned).  The ground profile is that of the snapshot's d and of the
    ``physics.p`` in ``run_dir/config.txt`` (critical without one); no other
    key of that file is read, so keys a later schema dropped do no harm.
    ``banica_ok`` stays None without ``hevo.csv``: the momenta the other
    half of the sweep needs are not on disk."""
    run_dir = Path(run_dir)
    config = run_dir / "config.txt"
    try:
        raw = parse_config_text(config.read_text()).get("physics.p") if config.exists() else None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{config} is not UTF-8 text ({exc.reason})") from exc
    try:
        p = None if raw is None else _float(raw)
    except ValueError as exc:
        raise ConfigError(f"key 'physics.p': cannot parse {raw!r} ({exc})") from exc
    tdir = run_dir / "traj_000"
    if not tdir.exists():
        tdir = run_dir
    traj = read_trajectory(tdir)
    # first, so that an exponent the profile refuses stops before any file is written
    profile = run_profile(traj.final_state.grid.d, p) if traj.snapshots else None
    report = dict.fromkeys((
        "banica_ok", "h_evo_max_residual", "T_est", "alpha", "loglog_score",
        "virial_series", "concentration",
    ))
    if _grew(traj):
        _rate_fit(traj, report)
    _hevo_residual(traj, report, run_dir / "hevo_residual_check.csv")
    if traj.marty is not None:
        # the noise half of the sweep, without the run's mass precondition
        report["banica_ok"] = bool(diag.banica_sweep(traj, None).satisfied)
    if profile is not None:
        try:
            mf, conc = _fit_final_state(traj, profile)
            report["concentration"] = {"R": 1.0, "fraction": conc / profile.mass_sq}
            if _snapshot_files(tdir):
                times, vir = _virial_series(traj, mf.center)
                report["virial_series"] = {"t": times.tolist(), "virial": vir.tolist()}
                write_csv(run_dir / "virial_check.csv", {"t": times, "virial": vir})
        except diag.DiagnosticsError as exc:
            report["modulation_error"] = str(exc)
    write_summary_json(run_dir / "report.json", report)
    return report


# ---------------------------------------------------------------------------
# runner


def _determinism_check(cfg: EvolveConfig) -> bool:
    probe = replace(cfg, max_steps=20, cadence=None)
    a = integrate(probe)
    b = integrate(probe)
    return (
        np.array_equal(a.times, b.times)
        and np.array_equal(a.mass, b.mass)
        and np.array_equal(a.grad_norm, b.grad_norm)
        and np.array_equal(a.hamiltonian, b.hamiltonian)
    )


def resolve_outdir(sc: ScenarioConfig) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    out = Path(sc.out_dir)
    return out if out.is_absolute() else Path(root) / out


# what a run or ``nlslab diagnose`` writes at the top of a run directory;
# trajectories go to traj_NNN/
_RUN_FILES = (
    "hevo_residual.csv", "virial.csv", "profile_residuals.csv", "ensemble.csv",
    "hevo_residual_check.csv", "virial_check.csv",
    "summary.json", "ensemble_summary.json", "report.json",
)
_TRAJ_DIR = re.compile(r"traj_\d{3}")


def open_run_dir(sc: ScenarioConfig, prep: PreparedRun, outdir: Optional[Path] = None) -> Path:
    """Create the run directory (default: ``output.dir``), remove the
    artifacts an earlier run left in it and record the run's resolved
    config as ``config.txt``.  Files nlslab does not write are kept.

    The integrator first sets the run up and stops before its first step,
    so a value it or the noise model refuses raises while the directory is
    still untouched."""
    cfg = evolve_config_for(sc, prep, sc.noise_seed)
    integrate(replace(cfg, max_steps=0, cadence=None, lean_record=True))
    outdir = Path(outdir) if outdir is not None else resolve_outdir(sc)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in _RUN_FILES:
        (outdir / name).unlink(missing_ok=True)
    for path in outdir.glob("traj_*"):
        if path.is_dir() and _TRAJ_DIR.fullmatch(path.name):
            shutil.rmtree(path)
    (outdir / "config.txt").write_text(render_config(sc))
    return outdir


def run_trajectory(sc: ScenarioConfig, prep: PreparedRun, seed: int, lean: bool = False) -> Trajectory:
    """Integrate one trajectory.  ``lean`` records only what an ensemble row
    needs (the clock, ||grad v|| and the mass drift) and keeps no snapshot
    but the final state; its dt sequence is the full run's."""
    cfg = evolve_config_for(sc, prep, seed)
    if lean:
        cfg = replace(cfg, lean_record=True, cadence=None)
    return integrate(cfg)


def run_scenario(sc: ScenarioConfig, outdir: Optional[Path] = None) -> tuple:
    """Execute one scenario; returns (summary, exit_code)."""
    prep = prepare_run(sc)
    outdir = open_run_dir(sc, prep, outdir)
    traj = run_trajectory(sc, prep, sc.noise_seed)
    tdir = outdir / "traj_000"
    write_trajectory_artifacts(sc, traj, tdir)

    # box adequacy: initial mass within radius L/2 - 2 of the box center
    total = l2_norm_sq(prep.initial)
    inner = diag.localized_mass(prep.initial, (0.0,) * sc.d, 0.5 * sc.extent - 2.0)
    boundary_fraction = max(0.0, (total - inner) / total)

    summary = run_battery(sc, prep, traj, outdir)
    summary["boundary_mass_fraction"] = boundary_fraction

    if sc.kind == "snls_gauge_check":
        _gauge_check(sc, prep, traj, summary)

    summary["determinism_ok"] = _determinism_check(
        evolve_config_for(sc, prep, sc.noise_seed)
    )

    failed = traj.stop_reason in FAILED_STOPS
    hard_ok = (
        summary["mass_drift"] < MASS_BUDGET
        and summary["banica_ok"]
        and summary["determinism_ok"]
        and not failed
    )
    summary["mass_tolerance"] = MASS_BUDGET
    summary["hard_checks_ok"] = bool(hard_ok)
    exit_code = 0 if hard_ok else 3
    summary["exit_code"] = exit_code
    write_summary_json(outdir / "summary.json", summary)
    return summary, exit_code


def _gauge_check(sc: ScenarioConfig, prep: PreparedRun, noisy: Trajectory, summary: dict) -> None:
    """Constant-profile runs must match the deterministic twin pointwise: the
    same run at amplitude 0, whose Strang steps share the noise run's clock."""
    cfg = evolve_config_for(sc, prep, sc.noise_seed)
    if cfg.noise is not None:
        cfg.noise = replace(cfg.noise, profiles=replace(cfg.noise.profiles, amplitude=0.0))
    det = integrate(replace(cfg, lean_record=True))  # only its snapshots and stop are read
    n = min(len(noisy.snapshots), len(det.snapshots))
    worst = 0.0
    for (t1, s1), (t2, s2) in zip(noisy.snapshots[:n], det.snapshots[:n]):
        worst = max(worst, float(np.abs(np.abs(s1.values) - np.abs(s2.values)).max()))
    summary["gauge_max_modulus_diff"] = worst
    summary["gauge_same_stop_step"] = bool(
        noisy.n_steps == det.n_steps and noisy.stop_reason == det.stop_reason
    )


# ---------------------------------------------------------------------------
# ensembles


def _ensemble_worker(args):
    sc, index = args
    prep = prepare_run(sc)
    traj = run_trajectory(sc, prep, sc.noise_seed + index, lean=True)
    try:
        t_est = diag.extrapolate_blowup_time(traj.times, traj.grad_norm)
    except diag.DiagnosticsError:
        t_est = float("nan")
    return {
        "index": index,
        "seed": sc.noise_seed + index,
        "stop_time": float(traj.final_time),
        "stop_reason": traj.stop_reason,
        "n_steps": traj.n_steps,
        "t_est": float(t_est),
        "mass_drift": float(traj.residual.max()),
    }


def ensemble_summary(results: list) -> dict:
    """Per-seed stop times plus quartiles of the estimated blow-up time."""
    if len(results) < 2:
        raise ConfigError("ensemble summary needs at least two trajectories")
    ordered = sorted(results, key=lambda r: r["index"])
    t_est = np.array([r["t_est"] for r in ordered])
    finite = t_est[np.isfinite(t_est)]
    quartiles = (
        [float(q) for q in np.percentile(finite, [25, 50, 75])] if finite.size else None
    )
    return {
        "size": len(ordered),
        "stop_times": [r["stop_time"] for r in ordered],
        "seeds": [r["seed"] for r in ordered],
        "t_est": [r["t_est"] for r in ordered],
        "t_est_quartiles": quartiles,
        "max_mass_drift": max(r["mass_drift"] for r in ordered),
    }


def run_ensemble(sc: ScenarioConfig, outdir: Optional[Path] = None) -> tuple:
    """Run the seed ensemble; returns (summary, exit_code).

    The exit code is 3 when any trajectory fails numerically or drifts in
    mass by ``MASS_BUDGET`` or more, else 0.
    """
    if sc.ensemble_size < 2:
        raise ConfigError(f"an ensemble needs ensemble.size >= 2, got {sc.ensemble_size}")
    outdir = open_run_dir(sc, prepare_run(sc), outdir)
    jobs = [(sc, i) for i in range(sc.ensemble_size)]
    # a fork pool starts all its workers at once: no more than there are members
    workers = min(sc.ensemble_size, sc.ensemble_workers or os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_ensemble_worker, jobs))
    else:
        results = [_ensemble_worker(j) for j in jobs]
    summary = ensemble_summary(results)
    ordered = sorted(results, key=lambda r: r["index"])
    write_csv(outdir / "ensemble.csv", {key: [r[key] for r in ordered] for key in ordered[0]})
    write_summary_json(outdir / "ensemble_summary.json", summary)
    failed = any(
        r["stop_reason"] in FAILED_STOPS or not r["mass_drift"] < MASS_BUDGET for r in results
    )
    return summary, 3 if failed else 0
