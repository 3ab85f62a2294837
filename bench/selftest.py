#!/usr/bin/env python3
"""Fast self-test of the benchmark's checks (a few seconds, no nlslab run).

    python3 bench/selftest.py

Builds outputs that pass every check of ``checks.py`` (snapshot files of
the closed-form bubble, consistent CSV and JSON files), then corrupts them
one way at a time and requires the named check to fail.  Every check that
the passing outputs exercise must be failed by at least one corruption.
Exits 1 on the first surprise.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parents[1]
PASSED = set()  # checks the clean outputs exercise
FAILED_BY = set()  # checks some corruption made fail


def fail(msg: str):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def by_name(results: list) -> dict:
    return {c.name: c for c in results}


def expect_pass(label: str, results: list) -> None:
    bad = [f"{c.name}: {c.detail}" for c in results if not c.ok]
    if bad:
        fail(f"{label}: clean outputs fail: {bad}")
    PASSED.update(c.name for c in results)


def expect_fail(label: str, results: list, name: str) -> None:
    c = by_name(results).get(name)
    if c is None:
        fail(f"{label}: no check named {name}")
    if c.ok:
        fail(f"{label}: {name} still passes: {c.detail}")
    FAILED_BY.add(name)
    print(f"ok  {label:44s} -> {name} fails")


def write_snapshot(path: Path, values: np.ndarray, extent: float, t: float) -> None:
    lines = [f"1,{values.size},{extent:.17g},{t:.17g}"]
    lines += [f"{z.real:.17g},{z.imag:.17g}" for z in values]
    path.write_text("\n".join(lines) + "\n")


def write_csv(path: Path, cols: dict) -> None:
    names = list(cols)
    rows = zip(*(cols[k] for k in names))
    body = "\n".join(",".join(f"{float(x):.17g}" for x in row) for row in rows)
    path.write_text(",".join(names) + "\n" + body + "\n")


def edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def fresh(src: Path, dst: Path) -> Path:
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(src, dst)
    return dst


# ---------------------------------------------------------------------------


def blowup_fixture(d: Path, bubble: dict) -> None:
    """A bubble run as the program would write it, from the closed form."""
    n, extent = 1024, 40.0
    x = checks.axis(n, extent)
    tdir = d / "traj_000"
    tdir.mkdir(parents=True)
    times = [0.0, 0.3, 0.5, 0.6, 0.7, 0.8]
    for i, t in enumerate(times):
        v = checks.pseudo_conformal(x, t, bubble["T"], bubble["width"], bubble["x0"],
                                    bubble["phase"])
        write_snapshot(tdir / f"snapshot_{i:06d}.txt", v, extent, t)
    shutil.copy(tdir / f"snapshot_{len(times) - 1:06d}.txt", tdir / "snapshot_final.txt")
    v0 = checks.pseudo_conformal(x, 0.0, bubble["T"], bubble["width"], bubble["x0"],
                                 bubble["phase"])
    mass = math.sqrt(float(np.sum(np.abs(v0) ** 2)) * extent / n)
    write_csv(tdir / "diagnostics.csv", {"t": times, "mass": [mass] * len(times)})
    (d / "summary.json").write_text(json.dumps({
        "stop_reason": "width_resolution", "mass_drift": 1e-15, "alpha": 0.99,
        "T_est": 1.004, "modulation": {"resid_h1": 0.02}, "virial_beta": 2.01,
    }))


def test_blowup(tmp: Path) -> None:
    bubble = {"T": 1.0, "width": 1.0, "x0": 0.0123, "phase": 0.7}
    dt0 = 4e-3
    clean = tmp / "blowup"
    blowup_fixture(clean, bubble)
    expect_pass("blowup", checks.check_blowup(clean, bubble, dt0))
    work = tmp / "blowup_work"

    def case(label, corrupt, name):
        d = fresh(clean, work)
        corrupt(d)
        expect_fail(label, checks.check_blowup(d, bubble, dt0), name)

    def rotate(d):
        p = d / "traj_000" / "snapshot_000003.txt"
        _, n, extent, t, v = checks.read_snapshot(p)
        write_snapshot(p, v * np.exp(0.05j), extent, t)

    def spread_final(d):
        shutil.copy(d / "traj_000" / "snapshot_000000.txt", d / "traj_000" / "snapshot_final.txt")

    def scale_mass(factor, last_only):
        def corrupt(d):
            p = d / "traj_000" / "diagnostics.csv"
            cols = checks.read_csv(p)
            if last_only:
                cols["mass"][-1] *= factor
            else:
                cols["mass"] *= factor
            write_csv(p, cols)
        return corrupt

    def summary(key, value):
        return lambda d: edit_json(d / "summary.json", lambda s: s.__setitem__(key, value))

    case("snapshot phase rotated by 0.05", rotate, "blowup.exact_snapshots")
    case("final snapshot not concentrated", spread_final, "blowup.localized_mass")
    case("summary mass drift raised to 1e-9", summary("mass_drift", 1e-9),
         "blowup.mass_drift_summary")
    case("last mass row off by 1e-9", scale_mass(1 + 1e-9, True), "blowup.mass_drift_csv")
    case("mass column off by 1e-6", scale_mass(1 + 1e-6, False), "blowup.initial_mass")
    case("stop reason reached_end", summary("stop_reason", "reached_end"), "blowup.stop_reason")
    case("alpha 0.94", summary("alpha", 0.94), "blowup.rate_alpha")
    case("T_est 1.03", summary("T_est", 1.03), "blowup.rate_T_est")
    case("modulation residual 0.06", summary("modulation", {"resid_h1": 0.06}),
         "blowup.modulation_resid_h1")
    case("virial exponent 1.85", summary("virial_beta", 1.85), "blowup.virial_beta")


# ---------------------------------------------------------------------------


def test_ensemble(tmp: Path) -> None:
    rows = [
        {"index": i, "seed": 40 + i, "stop_time": 0.8 + 0.01 * i,
         "stop_reason": "width_resolution", "n_steps": 1500 + i,
         "t_est": 1.0 + 0.01 * i, "mass_drift": 1e-12}
        for i in range(8)
    ]
    # the CSV reader must give back exactly what was written
    p = tmp / "ensemble.csv"
    p.write_text("index,seed,stop_time,stop_reason,n_steps,t_est,mass_drift\n" + "".join(
        f"{r['index']},{r['seed']},{r['stop_time']:.17g},{r['stop_reason']},"
        f"{r['n_steps']},{r['t_est']:.17g},{r['mass_drift']:.17g}\n" for r in rows))
    if checks.read_ensemble_rows(p) != rows:
        fail("ensemble.csv does not read back bitwise")
    stops = [r["stop_time"] for r in rows]

    def run(rs, st):
        return (checks.check_ensemble(rs, st, 1.0)
                + [checks.check_replay(rs[3], rows[3]["n_steps"], rows[3]["stop_time"]),
                   checks.check_serial(rs, rows)])

    expect_pass("ensemble", run(rows, stops))

    def case(label, i, key, value, name, stop_list=None):
        rs = copy.deepcopy(rows)
        rs[i][key] = value
        expect_fail(label, run(rs, stop_list or [r["stop_time"] for r in rs]), name)

    case("a trajectory reaches the end", 2, "stop_reason", "reached_end", "ensemble.trajectories")
    case("a stop at t1", 2, "stop_time", 1.0, "ensemble.trajectories")
    case("mass drift 1e-9", 5, "mass_drift", 1e-9, "ensemble.trajectories")
    case("T_est not finite", 1, "t_est", float("nan"), "ensemble.trajectories")
    case("T_est before the stop", 1, "t_est", 0.5, "ensemble.trajectories")
    case("two equal stop times", 1, "stop_time", rows[0]["stop_time"], "ensemble.distinct_stops")
    case("summary stop time off by one ulp", 0, "seed", 40,
         "ensemble.csv_matches_summary",
         stop_list=[math.nextafter(stops[0], 2.0)] + stops[1:])
    case("replayed step count differs", 3, "n_steps", rows[3]["n_steps"] + 1, "ensemble.replay")
    case("replayed stop time off by one ulp", 3, "stop_time",
         math.nextafter(rows[3]["stop_time"], 2.0), "ensemble.replay")
    case("serial row differs", 6, "t_est", math.nextafter(rows[6]["t_est"], 2.0),
         "ensemble.serial_matches_pool")

    gauge = {"gauge_max_modulus_diff": 0.0, "gauge_same_stop_step": True, "hard_checks_ok": True}
    expect_pass("gauge", checks.check_gauge(gauge, 0))
    for label, key, value, name in (
        ("gauge modulus difference 1e-9", "gauge_max_modulus_diff", 1e-9, "gauge.modulus_diff"),
        ("gauge stop step differs", "gauge_same_stop_step", False, "gauge.same_stop_step"),
        ("gauge hard checks fail", "hard_checks_ok", False, "gauge.exit_code"),
    ):
        expect_fail(label, checks.check_gauge(dict(gauge, **{key: value}), 0), name)


# ---------------------------------------------------------------------------


def diagnosed_fixture(d: Path, n_steps: int, cadence: int) -> None:
    """A noise run with every snapshot written, and its diagnose report."""
    rng = np.random.default_rng(5)
    n, extent = 64, 10.0
    tdir = d / "traj_000"
    tdir.mkdir(parents=True)
    times = [0.01 * i for i in range(n_steps + 1)]
    masses = []
    for i, t in enumerate(times):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        masses.append(math.sqrt(float(np.sum(np.abs(v) ** 2)) * extent / n))
        if i % cadence == 0 or i == n_steps:
            k = i // cadence + (1 if i % cadence else 0)
            write_snapshot(tdir / f"snapshot_{k:06d}.txt", v, extent, t)
    write_csv(tdir / "diagnostics.csv", {"t": times, "mass": masses})
    write_csv(tdir / "hevo.csv", {"t": times})
    summary = {
        "n_steps": n_steps, "hard_checks_ok": True, "T_est": 0.2644367750347431,
        "alpha": 0.561534858650491, "h_evo_max_residual": 1.0845349154149989e-4,
        "banica_ok": True, "banica_applicable": True,
        "concentration": {"R": 1.0, "fraction": 0.839837953363558, "mass_sq": 2.28},
    }
    report = {k: summary[k] for k in ("T_est", "alpha", "h_evo_max_residual", "banica_ok")}
    report["concentration"] = {"R": 1.0, "fraction": summary["concentration"]["fraction"]}
    (d / "summary.json").write_text(json.dumps(summary))
    (d / "report.json").write_text(json.dumps(report))


def test_diagnosed(tmp: Path) -> None:
    n_steps, cadence = 10, 3
    clean = tmp / "diagnosed"
    diagnosed_fixture(clean, n_steps, cadence)

    def run(d):
        s = checks.read_json(d / "summary.json")
        return ([checks.check_report(d, "run")] + checks.check_snapshots(d, cadence, "run")
                + checks.check_noisy(s, 0))

    expect_pass("diagnosed run", run(clean))
    work = tmp / "diagnosed_work"

    def case(label, corrupt, name):
        d = fresh(clean, work)
        corrupt(d)
        expect_fail(label, run(d), name)

    def report(fn):
        return lambda d: edit_json(d / "report.json", fn)

    def summary_set(key, value):
        return lambda d: edit_json(d / "summary.json", lambda s: s.__setitem__(key, value))

    def rewrite_snapshot(k, fn):
        def corrupt(d):
            p = d / "traj_000" / f"snapshot_{k:06d}.txt"
            _, n, extent, t, v = checks.read_snapshot(p)
            v, t = fn(v, t)
            write_snapshot(p, v, extent, t)
        return corrupt

    case("report T_est changed in the last digit",
         report(lambda r: r.__setitem__("T_est", math.nextafter(r["T_est"], 1.0))),
         "run.report_equals_summary")
    case("report concentration differs",
         report(lambda r: r["concentration"].__setitem__("fraction", 0.84)),
         "run.report_equals_summary")
    case("report Banica verdict differs", report(lambda r: r.__setitem__("banica_ok", False)),
         "run.report_equals_summary")
    case("report has a Banica verdict but no hevo.csv",
         lambda d: (d / "traj_000" / "hevo.csv").unlink(), "run.report_equals_summary")
    case("a snapshot file missing",
         lambda d: (d / "traj_000" / "snapshot_000002.txt").unlink(), "run.snapshot_count")
    case("a snapshot scaled by 1 + 1e-10",
         rewrite_snapshot(1, lambda v, t: (v * (1 + 1e-10), t)), "run.snapshot_mass")
    case("a snapshot stamped with another time",
         rewrite_snapshot(2, lambda v, t: (v, t + 0.01)), "run.snapshot_mass")
    case("hard checks failed", summary_set("hard_checks_ok", False), "noisy.exit_code")
    case("Ito residual 3e-3", summary_set("h_evo_max_residual", 3e-3), "noisy.ito_residual")
    case("Banica check fails", summary_set("banica_ok", False), "noisy.banica")


def main() -> None:
    out_root = ROOT / "bench_runs"
    out_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_root))
    try:
        for test in (test_blowup, test_ensemble, test_diagnosed):
            test(tmp)
    finally:
        shutil.rmtree(tmp)
    never = sorted(PASSED - FAILED_BY)
    if never:
        fail(f"checks no corruption makes fail: {never}")
    print(f"selftest: all {len(PASSED)} checks pass on clean outputs and fail on corrupted ones")


if __name__ == "__main__":
    main()
