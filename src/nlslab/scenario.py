"""Config-driven scenario runner: reproducible experiments over all modules.

Scenario configs are flat ``section.key = value`` text files (one assignment
per line, ``#`` comments).  A run builds exact initial data, integrates,
executes the diagnostic battery, and writes deterministic artifacts: CSV
series, a JSON summary (sorted keys) and snapshot files.  Re-running the
same config reproduces every artifact byte for byte.  ``diagnose`` runs
the same battery (``run_battery``) on the trajectory read back from disk.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import re
import shutil
from dataclasses import MISSING, astuple, dataclass, field, fields, replace
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
    usable_width,
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
# config schema: each ScenarioConfig field names its key, codec and default;
# SCHEMA lists them in config order and drives parsing, defaults and rendering


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


class _Codec(NamedTuple):
    """``parse(raw, d)`` reads a value in a d-dimensional config, ``render``
    writes it back."""

    parse: Callable
    render: Callable


def _float(raw: str, d=None) -> float:
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError("value must be finite")
    return x


def _point(raw: str, d: int) -> tuple:
    parts = tuple(_float(c) for c in raw.split(","))
    if len(parts) != d:
        raise ValueError(f"point needs {d} components, got {raw!r}")
    return parts


_FLOAT = _Codec(_float, _fmt)
_INT = _Codec(lambda raw, d: int(raw), str)
_STR = _Codec(lambda raw, d: raw, str)
_POINT = _Codec(_point, lambda point: ",".join(map(_fmt, point)))


def _listed(codec: _Codec) -> _Codec:
    """``a;b;...``: a tuple of ``codec`` values."""
    return _Codec(
        lambda raw, d: tuple(codec.parse(item, d) for item in raw.split(";")),
        lambda values: ";".join(map(codec.render, values)),
    )


def _record(cls, layout: str, codecs: tuple) -> _Codec:
    """``a:b:...``: a ``cls`` whose fields, in order, ``layout`` names and
    ``codecs`` read."""

    def parse(raw: str, d: int):
        parts = raw.split(":")
        if len(parts) != len(codecs):
            raise ValueError(f"{cls.__name__.lower()} needs {layout}, got {raw!r}")
        return cls(*(codec.parse(part, d) for codec, part in zip(codecs, parts)))

    return _Codec(
        parse, lambda rec: ":".join(codec.render(x) for codec, x in zip(codecs, astuple(rec)))
    )


def _choice(key: str, values: tuple, codec: _Codec = _STR) -> _Codec:
    """One of ``values``, read by ``codec``."""

    def parse(raw: str, d):
        value = codec.parse(raw, d)
        if value not in values:
            raise ConfigError(f"{key} must be one of {values}, got {raw!r}")
        return value

    return _Codec(parse, codec.render)


class _Key(NamedTuple):
    """One config key, read into ScenarioConfig's ``field`` by ``codec``.
    ``default`` is a value, a function of the fields read before this row,
    or MISSING (the key is required)."""

    key: str
    field: str
    codec: _Codec
    default: object


def _key(key: str, codec: _Codec, default=MISSING):
    """A ScenarioConfig field read from config key ``key`` (see _Key)."""
    return field(metadata={"key": key, "codec": codec, "default": default})


@dataclass
class ScenarioConfig:
    """A scenario, one field per config key, in config order."""

    kind: str = _key("scenario.kind", _choice("scenario.kind", SCENARIO_KINDS))
    d: int = _key("grid.d", _choice("grid.d", (1, 2), _INT), 1)
    extent: float = _key("grid.L", _FLOAT, 40.0)
    points: int = _key("grid.N", _INT, 1024)
    p: float = _key("physics.p", _FLOAT, lambda f: critical_exponent(f["d"]))
    bubbles: tuple = _key("blowup.bubbles", _listed(
        _record(Bubble, "position:width:phase", (_POINT, _FLOAT, _FLOAT))
    ), ())
    blowup_time: float = _key("blowup.T", _FLOAT, 1.0)
    solitons: tuple = _key("soliton.waves", _listed(
        _record(Soliton, "velocity:width:phase:position", (_POINT, _FLOAT, _FLOAT, _POINT))
    ), ())
    zstar_amplitude_rel: float = _key("zstar.amplitude_rel", _FLOAT, 0.05)
    zstar_center: tuple = _key("zstar.center", _POINT, lambda f: (10.0,) * f["d"])
    zstar_width: float = _key("zstar.width", _FLOAT, 1.0)
    noise_kind: str = _key(
        "noise.kind", _choice("noise.kind", ("none", "constant", "schwartz", "flat")), "none"
    )
    noise_amplitude: float = _key("noise.amplitude", _FLOAT, 0.0)
    noise_modes: int = _key("noise.modes", _INT, 1)
    noise_seed: int = _key("noise.seed", _INT, 0)
    noise_flat_points: tuple = _key("noise.flat_points", _listed(_POINT), ())
    init_mass_sq_ratio: float = _key("init.mass_sq_ratio", _FLOAT, 1.2)
    init_width: float = _key("init.width", _FLOAT, 1.0)
    t0: float = _key("evolve.t0", _FLOAT, 0.0)
    t1: float = _key("evolve.t1", _FLOAT)
    dt0: float = _key("evolve.dt0", _FLOAT, 1e-3)
    g_max: float = _key("evolve.gmax", _FLOAT, 1e5)
    width_factor: float = _key("evolve.width_factor", _FLOAT, 4.0)
    cadence: int = _key("evolve.cadence", _INT, 100)
    out_dir: str = _key("output.dir", _STR, lambda f: f"runs/{f['kind']}")
    snapshots: str = _key(
        "output.snapshots", _choice("output.snapshots", ("none", "final", "all")), "final"
    )
    ensemble_size: int = _key("ensemble.size", _INT, 1)
    ensemble_workers: Optional[int] = _key("ensemble.workers", _INT, None)

    @property
    def grid(self) -> GridSpec:
        return make_grid(self.d, self.extent, self.points)


SCHEMA = tuple(_Key(field=f.name, **f.metadata) for f in fields(ScenarioConfig))


def _read(key: str, codec: _Codec, raw: str, d):
    """``raw`` read by ``codec``; a value it refuses is a config error."""
    try:
        return codec.parse(raw, d)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} ({exc})") from exc


def build_scenario(cfg: dict) -> ScenarioConfig:
    cfg = dict(cfg)
    values: dict = {}
    for row in SCHEMA:
        if row.key in cfg:
            values[row.field] = _read(row.key, row.codec, cfg.pop(row.key), values.get("d"))
        elif row.default is MISSING:
            raise ConfigError(f"missing required key {row.key!r}")
        else:
            values[row.field] = row.default(values) if callable(row.default) else row.default
    if cfg:
        raise ConfigError(f"unknown config keys: {sorted(cfg)}")
    sc = ScenarioConfig(**values)
    _validate_scenario(sc)
    return sc


def render_config(sc: ScenarioConfig) -> str:
    """Every key whose value is set, defaults resolved, in schema order:
    loading the text gives back an equal ``ScenarioConfig``."""
    lines = []
    for row in SCHEMA:
        value = getattr(sc, row.field)
        if value is not None and value != ():
            lines.append(f"{row.key} = {row.codec.render(value)}")
    return "\n".join(lines) + "\n"


def _validate_scenario(sc: ScenarioConfig) -> None:
    problems = []
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
    if sc.kind == "bourgain_wang" and sc.noise_kind != "none":
        problems.append("bourgain_wang supports deterministic runs only")
    if sc.kind == "nonpure_soliton" and sc.t0 <= 0:
        problems.append("nonpure_soliton requires evolve.t0 > 0")
    if sc.kind in ("bourgain_wang", "nonpure_soliton"):
        # z* is scaled to amplitude_rel * ||Q||_H1: the backward solve's smallness
        if not 0.0 < sc.zstar_amplitude_rel <= 0.1:
            problems.append("zstar.amplitude_rel must be in (0, 0.1] (smallness)")
        if not usable_width(sc.zstar_width):
            problems.append("zstar.width must be positive with a finite, normal square")
    if sc.kind == "loglog_supercritical":
        if not sc.init_mass_sq_ratio > 0.0:
            problems.append("init.mass_sq_ratio must be > 0")
        if not usable_width(sc.init_width):
            problems.append("init.width must be positive with a finite, normal square")
    if abs(sc.p - critical_exponent(sc.d)) > 1e-12:
        if sc.d != 1 or not (1.0 < sc.p < critical_exponent(1)):
            problems.append(f"physics.p must be in (1, 5] in 1-d and 3 in 2-d, got {sc.p!r}")
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
    profile's, so the config's bound on that ratio is the smallness bound.
    """
    r2 = grid.radius_squared(sc.zstar_center)
    vals = np.exp(-r2 / sc.zstar_width**2).astype(np.complex128)
    q_h1 = norm_suite(profile.sample(grid)).h1
    scale = sc.zstar_amplitude_rel * q_h1 / norm_suite(ComplexField(grid, vals)).h1
    zstar = ComplexField(grid, vals * scale)
    return backward_solve(zstar, blowup_time, t0, sc.p, dt0=sc.dt0)


def prepare_run(sc: ScenarioConfig) -> PreparedRun:
    """The run's initial data and exact family.  Data it cannot prepare (a
    grid the grid model refuses, a profile out of its window, a backward
    solve the integrator refuses) is a config error."""
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
# the one column a run writes nan in: lambda, without grad_ref
_MAY_BE_NAN = ("lambda",)
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
    layout's, no rows, a value not a number, or a non-finite value where a
    run writes finite ones is a TrajectoryError."""
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
        ok = np.isfinite(data) | (np.isnan(data) & np.isin(header, _MAY_BE_NAN))
        if not ok.all():
            row, col = np.argwhere(~ok)[0]
            raise ValueError(f"{header[col]} of row {row + 1} is {data[row, col]}, not finite")
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
    has no time to check its rows against (``diagnose_run`` checks them
    against the run's ``summary.json``)."""
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


def _json_ready(x):
    """``x`` with numpy scalars as Python numbers and non-finite floats as
    None, into its dicts."""
    if isinstance(x, dict):
        return {key: _json_ready(val) for key, val in x.items()}
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if math.isfinite(x) else None
    if isinstance(x, np.integer):
        return int(x)
    return x


def run_battery(traj: Trajectory, p: Optional[float] = None) -> tuple:
    """The diagnostic battery on a trajectory, live from ``integrate`` or
    read back by ``read_trajectory``: (summary keys, tables).  What it
    computes is decided by what ``traj`` holds; a check whose data it does
    not hold reads None.  The ground profile is that of exponent ``p``
    (critical by default) in the d of ``traj.center``.

    - The Banica sweep needs the momenta or the Marty terms; above the
      ground-state mass it does not apply and ``banica_ok`` is true.
      ``banica_max_violation`` needs the momenta: without them the sweep
      tests only the noise profiles.
    - The rate fits run when ||grad v|| grew by a decade.
    - The modulation fit and the concentration need a snapshot (the final
      one), the virial series (table ``virial``) two; its power fit and
      ``rate_bound_min`` need the rate fit's ``T_est``.
    - Table ``hevo_residual`` is written for a noise run (Marty terms).
    """
    profile = run_profile(traj.center.shape[1], p)
    q_mass = math.sqrt(profile.mass_sq)
    out: dict = {
        "stop_reason": traj.stop_reason,
        "n_steps": traj.n_steps,
        "t_final": traj.times[-1],
        "mass_drift": float(traj.residual.max()),
        "T_est": None,
        "alpha": None,
        "loglog_score": None,
        "banica_ok": None,
        "banica_applicable": bool(traj.mass.max() <= q_mass + 1e-8),
        "h_evo_max_residual": None,
        "concentration": None,
    }
    tables = {}

    if traj.momentum is not None or traj.marty is not None:
        out["banica_ok"] = True
        if out["banica_applicable"]:
            sweep = diag.banica_sweep(traj, q_mass)
            out["banica_ok"] = bool(sweep.satisfied)
            if traj.momentum is not None:  # else the worst is the noise half's alone
                out["banica_max_violation"] = sweep.max_violation

    t_r, r = diag.hamiltonian_evolution_residual(traj)
    out["h_evo_max_residual"] = float(np.abs(r).max())
    if traj.marty is not None:
        tables["hevo_residual"] = {"t": t_r, "residual": r}

    if traj.grad_norm.max() >= 10.0 * traj.grad_norm.min():
        # fit the blow-up rate to ||grad v|| from 1.2 times its start on
        mask = traj.grad_norm >= 1.2 * traj.grad_norm[0]
        try:
            fit = diag.blowup_rate_fit(traj.times[mask], traj.grad_norm[mask])
            out.update(T_est=fit.t_est, alpha=fit.alpha, loglog_score=fit.loglog_score,
                       rate_class=diag.classify_rate(fit))
        except diag.DiagnosticsError as exc:
            out["rate_fit_error"] = str(exc)
        try:
            out["T_extrapolated"] = diag.extrapolate_blowup_time(traj.times, traj.grad_norm)
        except diag.DiagnosticsError as exc:
            out["T_extrapolated_error"] = str(exc)

    mf = None
    if traj.snapshots:
        try:
            mf = diag.modulation_fit(traj.final_state, profile)
        except diag.DiagnosticsError as exc:
            out["modulation_error"] = str(exc)
    if mf is not None:
        conc = diag.localized_mass(traj.final_state, mf.center, 1.0)
        out["modulation"] = {
            "scale": mf.scale,
            "center": [float(c) for c in mf.center],
            "phase": mf.phase,
            "resid_l2": mf.resid_l2,
            "resid_h1": mf.resid_h1,
            "ambiguous_center": bool(mf.ambiguous_center),
        }
        out["concentration"] = {"R": 1.0, "fraction": conc / profile.mass_sq, "mass_sq": conc}
    if mf is not None and len(traj.snapshots) > 1:
        # the uncut virial about the fitted centre at every snapshot
        times = np.array([t for t, _ in traj.snapshots])
        vir = np.array([diag.virial(s, mf.center, None) for _, s in traj.snapshots])
        tables["virial"] = {"t": times, "virial": vir}
        if out["T_est"] is not None:
            try:
                out["virial_beta"] = diag.fit_time_power(times[:-1], vir[:-1], out["T_est"])
            except diag.DiagnosticsError as exc:
                out["virial_beta_error"] = str(exc)
            bound = traj.grad_norm**2 * (out["T_est"] - traj.times) ** 2
            out["rate_bound_min"] = float(bound.min())
    return _json_ready(out), tables


def _residual_series(sc, traj, outdir, prep: PreparedRun) -> dict:
    """Profile residuals of each snapshot against the run's exact family
    (``prep.reference``, ``prep.centers``), less its regular profile if it
    has one, until the reference raises ProfileError: their summary keys."""
    if prep.reference is None:
        return {}
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
        return {}
    rows = {"t": times, "l2": l2s, "h1": h1s}
    summary = {
        "profile_residual_max_l2": float(np.max(l2s)),
        "profile_residual_max_h1": float(np.max(h1s)),
    }
    if prep.per_bubble:
        for k in range(len(per[0])):
            rows[f"h1_bubble_{k}"] = [pb[k] for pb in per]
        summary["profile_residual_max_h1_per_bubble"] = float(np.max(per))
    write_csv(outdir / "profile_residuals.csv", rows)
    return _json_ready(summary)


def _check_step_count(summary: Path, traj: Trajectory, tdir: Path) -> None:
    """``diagnostics.csv`` holds the ``n_steps + 1`` rows ``summary.json``
    records: a cut at a row boundary keeps every file's layout, and
    without a snapshot no final time shows it."""
    try:
        n_steps = json.loads(summary.read_text())["n_steps"]
    except (ValueError, TypeError, KeyError) as exc:
        raise TrajectoryError(f"damaged trajectory: {summary} records no n_steps ({exc})") from exc
    if type(n_steps) is not int or traj.times.size != n_steps + 1:
        raise TrajectoryError(
            f"damaged trajectory: {tdir / 'diagnostics.csv'} holds {traj.times.size} rows, "
            f"not the n_steps + 1 of {summary} (n_steps = {n_steps!r})"
        )


def diagnose_run(run_dir: Path) -> dict:
    """``run_battery`` on the trajectory in ``run_dir/traj_000`` (or
    ``run_dir``), written as ``report.json`` (also returned) and its tables
    as ``*_check.csv``.  What is not on disk reads None: without the
    momenta, ``banica_ok`` needs ``hevo.csv``; without a snapshot there is
    no modulation fit.  The exponent is the ``physics.p`` in
    ``run_dir/config.txt`` (critical without one); no other key of that
    file is read, so keys a later schema dropped do no harm.  Where
    ``scenario run`` or ``nlslab evolve`` left its ``summary.json``, the
    trajectory must hold its ``n_steps + 1`` rows."""
    run_dir = Path(run_dir)
    config = run_dir / "config.txt"
    try:
        raw = parse_config_text(config.read_text()).get("physics.p") if config.exists() else None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{config} is not UTF-8 text ({exc.reason})") from exc
    p = None if raw is None else _read("physics.p", _FLOAT, raw, None)
    tdir = run_dir / "traj_000"
    if not tdir.exists():
        tdir = run_dir
    traj = read_trajectory(tdir)
    if (run_dir / "summary.json").exists():
        _check_step_count(run_dir / "summary.json", traj, tdir)
    report, tables = run_battery(traj, p)
    for name, columns in tables.items():
        write_csv(run_dir / f"{name}_check.csv", columns)
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
    """Execute one scenario; returns (summary, exit_code).  The summary is
    ``run_battery``'s on the live trajectory plus what needs the run itself:
    ``kind``, the profile residuals, the boundary fraction, the gauge twin,
    the determinism probe and the exit code."""
    prep = prepare_run(sc)
    outdir = open_run_dir(sc, prep, outdir)
    traj = run_trajectory(sc, prep, sc.noise_seed)
    tdir = outdir / "traj_000"
    write_trajectory_artifacts(sc, traj, tdir)

    # box adequacy: initial mass within radius L/2 - 2 of the box center
    total = l2_norm_sq(prep.initial)
    inner = diag.localized_mass(prep.initial, (0.0,) * sc.d, 0.5 * sc.extent - 2.0)
    boundary_fraction = max(0.0, (total - inner) / total)

    summary, tables = run_battery(traj, sc.p)
    for name, columns in tables.items():
        write_csv(outdir / f"{name}.csv", columns)
    summary["kind"] = sc.kind
    summary.update(_residual_series(sc, traj, outdir, prep))
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
