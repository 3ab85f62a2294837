"""Correctness checks on the files a workload leaves behind.

Every check compares the program's output with a computation made here,
from closed forms and the file formats alone, or with a property the
method must have.  Nothing in this module imports ``nlslab``, so a fault
in the program cannot hide in the reference.  Each tolerance is an upper
bound: a more accurate scheme passes too.

A check is a ``Check(name, ok, detail)``; a workload is correct when all
of its checks hold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ||Q||^2 of the 1-d quintic ground state Q(y) = 3^{1/4} sech^{1/2}(2y):
# sqrt(3) * int sech(2y) dy = sqrt(3) * pi / 2.
Q_MASS_SQ = math.sqrt(3.0) * math.pi / 2.0

# Strang splitting's global error on the pseudo-conformal bubble, relative
# L2, fitted at dt0 = 2e-3 and 4e-3 on the N = 4096 blow-up run: it scales
# as dt0^2 (ratio 4.0 between the two steps) and as (T - t)^{-3.45}; the
# constant measured there is 1.98.  The bound doubles it and uses the
# steeper power 7/2.  Only snapshots whose bound is at most STRANG_MAX are
# compared: closer to T the error leaves the asymptotic dt0^2 regime.
STRANG_C = 4.0
STRANG_POWER = 3.5
STRANG_MAX = 0.05

# Ito-identity residual of the noisy soliton run (N = 512, t1 = 0.5,
# dt0 = 1e-3): 1.08e-4 for the workload's noise seed 11, at most 4.05e-4
# over seeds 11..50.  The bound is five times the latter, so a change of
# how Brownian paths are refined (which changes the realization) still fits.
ITO_TOL = 2e-3


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def check(name: str, ok, detail: str) -> Check:
    return Check(name, bool(ok), detail)


# ---------------------------------------------------------------------------
# file readers (formats as documented in the repository README)


def read_snapshot(path):
    """Return (d, N, L, t, values) of a ``d,N,L,t`` + ``re,im`` snapshot file."""
    with open(path) as fh:
        d, n, extent, t = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    d, n = int(d), int(n)
    values = (data[:, 0] + 1j * data[:, 1]).reshape((n,) * d)
    return d, n, float(extent), float(t), values


def read_csv(path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def snapshot_files(traj_dir) -> list:
    return sorted(Path(traj_dir).glob("snapshot_0*.txt"))


# ---------------------------------------------------------------------------
# closed forms


def ground_state_1d(y):
    """Q(y) = 3^{1/4} sech^{1/2}(2y), written with exp(-|2y|) so it never overflows."""
    e = np.exp(-2.0 * np.abs(y))
    return 3.0**0.25 * np.sqrt(2.0 * e / (1.0 + e * e))


def pseudo_conformal(x, t, blowup_time, width, x0, phase):
    """Critical-mass bubble of i v_t + v_xx + |v|^4 v = 0 collapsing at T."""
    left = blowup_time - t
    lam = width * left
    r = x - x0
    arg = -r * r / (4.0 * left) + 1.0 / (width * width * left) + phase
    return lam**-0.5 * ground_state_1d(r / lam) * np.exp(1j * arg)


def strang_tolerance(dt0: float, time_left: float) -> float:
    return STRANG_C * dt0 * dt0 * time_left**-STRANG_POWER


def axis(n: int, extent: float) -> np.ndarray:
    return -0.5 * extent + extent / n * np.arange(n)


def relative_drift(mass_col) -> float:
    m = np.asarray(mass_col, dtype=float)
    return float(np.max(np.abs(m - m[0])) / m[0])


# ---------------------------------------------------------------------------
# blowup_1d


def check_blowup(run_dir, bubble: dict, dt0: float) -> list:
    """Checks of one critical-mass bubble run (d = 1).

    ``bubble`` holds ``T``, ``width``, ``x0`` and ``phase`` of the initial
    data the workload wrote into the config.
    """
    run_dir = Path(run_dir)
    tdir = run_dir / "traj_000"
    summary = read_json(run_dir / "summary.json")
    diag = read_csv(tdir / "diagnostics.csv")
    out = []
    out.append(check(
        "blowup.stop_reason",
        summary.get("stop_reason") == "width_resolution",
        f"stop_reason {summary.get('stop_reason')!r} (want width_resolution)",
    ))
    drift_csv = relative_drift(diag["mass"])
    out.append(check(
        "blowup.mass_drift_csv", drift_csv < 1e-12,
        f"relative mass drift from diagnostics.csv {drift_csv:.3e} (< 1e-12)",
    ))
    drift = summary.get("mass_drift")
    out.append(check(
        "blowup.mass_drift_summary", drift is not None and drift < 1e-12,
        f"summary mass_drift {drift} (< 1e-12)",
    ))
    m0 = float(diag["mass"][0]) ** 2
    out.append(check(
        "blowup.initial_mass", abs(m0 - Q_MASS_SQ) <= 1e-9 * Q_MASS_SQ,
        f"initial mass {m0:.15g} against ||Q||^2 = {Q_MASS_SQ:.15g}",
    ))
    alpha, t_est = summary.get("alpha"), summary.get("T_est")
    out.append(check(
        "blowup.rate_alpha", alpha is not None and abs(alpha - 1.0) <= 0.05,
        f"alpha {alpha} (|alpha - 1| <= 0.05)",
    ))
    out.append(check(
        "blowup.rate_T_est",
        t_est is not None and abs(t_est - bubble["T"]) <= 0.02,
        f"T_est {t_est} (|T_est - {bubble['T']}| <= 0.02)",
    ))
    mod = summary.get("modulation") or {}
    resid = mod.get("resid_h1")
    out.append(check(
        "blowup.modulation_resid_h1", resid is not None and resid < 0.05,
        f"final modulation residual H1 {resid} (< 0.05)",
    ))
    beta = summary.get("virial_beta")
    out.append(check(
        "blowup.virial_beta", beta is not None and abs(beta - 2.0) <= 0.1,
        f"virial exponent {beta} (2 +- 0.1)",
    ))

    # localized mass of the final state around its own peak
    _, n, extent, t_fin, v = read_snapshot(tdir / "snapshot_final.txt")
    x = axis(n, extent)
    dens = np.abs(v) ** 2
    centre = x[int(np.argmax(dens))]
    dist = np.abs((x - centre + 0.5 * extent) % extent - 0.5 * extent)
    loc = float(np.sum(dens[dist <= 1.0])) * (extent / n)
    out.append(check(
        "blowup.localized_mass", loc >= 0.99 * Q_MASS_SQ,
        f"mass within R = 1 of the peak at t = {t_fin:.4f}: "
        f"{loc / Q_MASS_SQ:.12f} of ||Q||^2 (>= 0.99)",
    ))

    # snapshots against the closed-form bubble
    compared, worst, worst_ratio, bad = 0, 0.0, 0.0, []
    for path in snapshot_files(tdir):
        _, n, extent, t, v = read_snapshot(path)
        left = bubble["T"] - t
        tol = strang_tolerance(dt0, left)
        if tol > STRANG_MAX:
            continue
        ref = pseudo_conformal(axis(n, extent), t, bubble["T"], bubble["width"],
                               bubble["x0"], bubble["phase"])
        err = float(np.linalg.norm(v - ref) / np.linalg.norm(ref))
        compared += 1
        worst = max(worst, err)
        worst_ratio = max(worst_ratio, err / tol)
        if err > tol:
            bad.append(f"t={t:.4f}: {err:.3e} > {tol:.3e}")
    out.append(check(
        "blowup.exact_snapshots", compared >= 3 and not bad,
        f"{compared} snapshots against the pseudo-conformal bubble, worst "
        f"relative L2 error {worst:.3e}, worst error/tolerance {worst_ratio:.3f}"
        + (f"; over tolerance: {', '.join(bad)}" if bad else ""),
    ))
    return out


# ---------------------------------------------------------------------------
# snls_ensemble


def check_ensemble(rows: list, stop_times: list, t1: float) -> list:
    """Checks of the pool's per-seed rows (``ensemble.csv``) and summary."""
    out = []
    bad = []
    for r in rows:
        reasons = []
        if r["stop_reason"] != "width_resolution":
            reasons.append(f"stop_reason {r['stop_reason']}")
        if not r["stop_time"] < t1:
            reasons.append(f"stop_time {r['stop_time']} >= t1")
        if not r["mass_drift"] < 1e-10:
            reasons.append(f"mass drift {r['mass_drift']:.3e}")
        if not (math.isfinite(r["t_est"]) and r["t_est"] > r["stop_time"]):
            reasons.append(f"T_est {r['t_est']} vs stop {r['stop_time']}")
        if reasons:
            bad.append(f"seed {r['seed']}: " + ", ".join(reasons))
    out.append(check(
        "ensemble.trajectories", rows and not bad,
        f"{len(rows)} trajectories stop at width_resolution before t1 = {t1}, "
        f"mass drift < 1e-10 (max {max((r['mass_drift'] for r in rows), default=float('nan')):.2e}), "
        "finite T_est after the stop" + (f"; failing: {'; '.join(bad)}" if bad else ""),
    ))
    out.append(check(
        "ensemble.distinct_stops", len(set(stop_times)) == len(stop_times) == len(rows),
        f"{len(set(stop_times))} distinct stop times over {len(rows)} seeds",
    ))
    csv_times = [r["stop_time"] for r in rows]
    out.append(check(
        "ensemble.csv_matches_summary", csv_times == list(stop_times),
        "ensemble.csv stop times equal ensemble_summary.json stop_times",
    ))
    return out


def check_replay(row: dict, n_steps: int, stop_time: float) -> Check:
    """A trajectory re-run in the main process reproduces its pool row bitwise."""
    same = n_steps == row["n_steps"] and stop_time == row["stop_time"]
    return check(
        "ensemble.replay",
        same,
        f"seed {row['seed']}: {n_steps} steps, stop {stop_time!r}; "
        f"pool row {row['n_steps']} steps, stop {row['stop_time']!r}",
    )


def check_serial(rows: list, pool_rows: list) -> Check:
    """The ensemble run on one worker repeats the pool's rows bitwise."""
    differ = [r["seed"] for r, q in zip(rows, pool_rows) if r != q]
    return check(
        "ensemble.serial_matches_pool",
        len(rows) == len(pool_rows) and not differ,
        f"{len(rows)} serial rows against {len(pool_rows)} pool rows; "
        f"seeds that differ: {differ}",
    )


def check_gauge(summary: dict, code: int) -> list:
    diff = summary.get("gauge_max_modulus_diff")
    return [
        check("gauge.exit_code", code == 0 and summary.get("hard_checks_ok") is True,
              f"exit code {code}, hard_checks_ok {summary.get('hard_checks_ok')}"),
        check("gauge.modulus_diff", diff is not None and diff < 1e-10,
              f"max modulus difference to the deterministic twin {diff} (< 1e-10)"),
        check("gauge.same_stop_step", summary.get("gauge_same_stop_step") is True,
              f"same stop step {summary.get('gauge_same_stop_step')}"),
    ]


def read_ensemble_rows(path) -> list:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            rec = dict(zip(header, line.strip().split(",")))
            rows.append({
                "index": int(rec["index"]),
                "seed": int(rec["seed"]),
                "stop_time": float(rec["stop_time"]),
                "stop_reason": rec["stop_reason"],
                "n_steps": int(rec["n_steps"]),
                "t_est": float(rec["t_est"]),
                "mass_drift": float(rec["mass_drift"]),
            })
    return rows


# ---------------------------------------------------------------------------
# runs followed by ``nlslab diagnose``

REPORT_KEYS = ("T_est", "alpha", "h_evo_max_residual")


def check_report(run_dir, label: str) -> Check:
    """The ``diagnose`` report equals the run's own summary, bitwise."""
    summary = read_json(Path(run_dir) / "summary.json")
    report = read_json(Path(run_dir) / "report.json")
    diffs = [k for k in REPORT_KEYS if report.get(k) != summary.get(k)]
    conc_s = (summary.get("concentration") or {}).get("fraction")
    conc_r = (report.get("concentration") or {}).get("fraction")
    if conc_s != conc_r:
        diffs.append("concentration.fraction")
    # diagnose evaluates the Banica pairing only from hevo.csv, which only
    # noise runs write; without it the report leaves banica_ok null
    if (Path(run_dir) / "traj_000" / "hevo.csv").exists():
        if report.get("banica_ok") != summary.get("banica_ok"):
            diffs.append("banica_ok")
    elif report.get("banica_ok") is not None:
        diffs.append("banica_ok (report evaluated it without hevo.csv)")
    return check(
        f"{label}.report_equals_summary", not diffs,
        "diagnose report equals the run summary for T_est, alpha, "
        "h_evo_max_residual, banica_ok, concentration.fraction"
        + (f"; differ: {', '.join(diffs)}" if diffs else ""),
    )


def check_snapshots(run_dir, cadence: int, label: str) -> list:
    """Snapshot files of a run with ``output.snapshots = all``."""
    run_dir = Path(run_dir)
    tdir = run_dir / "traj_000"
    n_steps = int(read_json(run_dir / "summary.json")["n_steps"])
    diag = read_csv(tdir / "diagnostics.csv")
    files = snapshot_files(tdir)
    expected = 1 + n_steps // cadence + (1 if n_steps % cadence else 0)
    out = [check(
        f"{label}.snapshot_count", len(files) == expected and diag["t"].size == n_steps + 1,
        f"{len(files)} snapshot files for {n_steps} steps at cadence {cadence} "
        f"(want {expected}); {diag['t'].size} diagnostics rows (want {n_steps + 1})",
    )]

    worst, bad = 0.0, []
    for i, path in enumerate(files):
        row = min(i * cadence, n_steps)
        d, n, extent, t, v = read_snapshot(path)
        mass = float(np.sum(np.abs(v) ** 2)) * (extent / n) ** d
        ref = float(diag["mass"][row]) ** 2
        rel = abs(mass - ref) / ref
        worst = max(worst, rel)
        if rel > 1e-13 or t != float(diag["t"][row]):
            bad.append(f"{path.name}: t {t!r} vs {float(diag['t'][row])!r}, rel {rel:.2e}")
    out.append(check(
        f"{label}.snapshot_mass", files and not bad,
        f"dx*sum|v|^2 of {len(files)} snapshots against the mass column: worst "
        f"relative difference {worst:.2e} (<= 1e-13)"
        + (f"; failing: {'; '.join(bad[:3])}" if bad else ""),
    ))
    return out


def check_noisy(summary: dict, code: int) -> list:
    """The Schwartz-noise soliton: the Ito identity and the Banica bound."""
    resid = summary.get("h_evo_max_residual")
    return [
        check("noisy.exit_code", code == 0 and summary.get("hard_checks_ok") is True,
              f"exit code {code}, hard_checks_ok {summary.get('hard_checks_ok')}"),
        check("noisy.ito_residual", resid is not None and resid < ITO_TOL,
              f"Ito-identity residual {resid} (< {ITO_TOL})"),
        check("noisy.banica",
              summary.get("banica_applicable") is True and summary.get("banica_ok") is True,
              f"Banica check applied {summary.get('banica_applicable')}, "
              f"holds {summary.get('banica_ok')}"),
    ]
