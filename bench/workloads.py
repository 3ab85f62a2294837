"""The benchmark's workloads: inputs made from a seed, one round of
operations through nlslab's public functions, and the checks of what the
round wrote.

An operation is one scenario run, one ensemble trajectory or one
``diagnose`` call.  A round runs the same operations every time, so every
round of a workload attempts the same number of them.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from nlslab import cli
from nlslab.scenario import load_scenario, prepare_run, run_ensemble, run_scenario, run_trajectory

import checks
from tracing import NullTracer

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# the Schwartz-noise soliton of snls_ensemble; no config file of the
# repository has it
NOISY_SOLITON = """\
# Schwartz-noise soliton: the Ito identity and the Banica bound
scenario.kind = multi_soliton
grid.d = 1
grid.L = 40
grid.N = 512
soliton.waves = 1.0:1.0:0.0:0.0
noise.kind = schwartz
noise.amplitude = 0.3
noise.modes = 2
noise.seed = 11
evolve.t1 = 0.5
evolve.dt0 = 1e-3
evolve.cadence = 50
"""


def with_overrides(text: str, overrides: dict) -> str:
    """Config text with the given keys replaced (or appended)."""
    lines, seen = [], set()
    for raw in text.splitlines():
        key = raw.split("#", 1)[0].split("=", 1)[0].strip()
        if key in overrides:
            lines.append(f"{key} = {overrides[key]}")
            seen.add(key)
        else:
            lines.append(raw)
    lines += [f"{k} = {v}" for k, v in overrides.items() if k not in seen]
    return "\n".join(lines) + "\n"


def write_config(out_dir: Path, name: str, text: str):
    """Write a generated config and load it through the program's parser."""
    path = out_dir / f"{name}.cfg"
    path.write_text(text)
    sc = load_scenario(path)
    prepare_run(sc)  # builds the ground profile and the initial data
    return sc


def seed_fraction(seed: int, step: float) -> float:
    """A number in [0, 1) that the seed sets (an additive recurrence)."""
    return (seed * step) % 1.0


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def diagnose(run_dir: Path, tracer) -> None:
    """``nlslab diagnose RUN_DIR``, in this process through the click group."""
    with tracer.timed("cli.diagnose"), contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(["diagnose", str(run_dir)], standalone_mode=False)


@dataclass
class Round:
    wall_s: float = 0.0  # operations only; checks excluded
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def op(self, count: int, label: str, fn):
        """Run one call that counts as ``count`` operations; time it."""
        self.attempted += count
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.wall_s += time.perf_counter() - start
            self.failed += count
            self.extra.setdefault("errors", []).append(f"{label}: {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        self.wall_s += elapsed
        self.extra.setdefault("ops", []).append([label, elapsed])
        return out, elapsed


# ---------------------------------------------------------------------------
# blowup_1d


class Blowup1d:
    """critical_blowup.cfg at N = 4096 with a coarsened base step."""

    name = "blowup_1d"
    dt0 = 4e-3

    def prepare(self, out_dir: Path, seed: int) -> dict:
        dx = 40.0 / 4096
        # the seed moves the bubble within one grid cell and turns its phase
        x0 = seed_fraction(seed, 0.6180339887498949) * dx
        phase = seed_fraction(seed, 0.7548776662466927) * math.tau
        bubble = {"T": 1.0, "width": 1.0, "x0": x0, "phase": phase}
        text = with_overrides((CONFIGS / "critical_blowup.cfg").read_text(), {
            "evolve.dt0": repr(self.dt0),
            "evolve.cadence": 250,
            "output.snapshots": "all",
            "blowup.bubbles": f"{x0!r}:1:{phase!r}",
            "output.dir": "critical_blowup",
        })
        return {"sc": write_config(out_dir, "critical_blowup", text), "bubble": bubble}

    def run_round(self, inputs: dict, rdir: Path, tracer=NullTracer()) -> Round:
        r = Round()
        out = rdir / "critical_blowup"
        res = r.op(1, "run_scenario", lambda: run_scenario(inputs["sc"], out))
        if res is None:
            return r
        (summary, code), _ = res
        r.steps = summary["n_steps"]
        if code != 0:
            r.failed += 1
            return r
        if r.op(1, "diagnose", lambda: diagnose(out, tracer)) is None:
            return r
        tracer.add("scenario.artifact_bytes", dir_bytes(out))
        r.checks += checks.check_blowup(out, inputs["bubble"], self.dt0)
        r.checks.append(checks.check_report(out, "blowup"))
        r.checks += checks.check_snapshots(out, inputs["sc"].cadence, "blowup")
        return r


# ---------------------------------------------------------------------------
# snls_ensemble


class SnlsEnsemble:
    """The 8-seed noisy blow-up ensemble on two workers, one of its seeds
    again in this process, the gauge check and a Schwartz-noise soliton, each
    of the last two followed by ``nlslab diagnose``."""

    name = "snls_ensemble"
    dt0 = 4e-3
    workers = 2
    size = 8

    def prepare(self, out_dir: Path, seed: int) -> dict:
        ens = with_overrides((CONFIGS / "snls_blowup_ensemble.cfg").read_text(), {
            "evolve.dt0": repr(self.dt0),
            "noise.seed": 40 + self.size * seed,
            "ensemble.size": self.size,
            "ensemble.workers": self.workers,
            "output.dir": "ensemble",
        })
        gauge = with_overrides((CONFIGS / "snls_gauge_check.cfg").read_text(), {
            "noise.seed": 7 + seed,
            "output.dir": "gauge",
        })
        # The seed turns the soliton's phase.  The noise realization stays at
        # seed 11: its step count varies from 535 to 999 over seeds 11..50.
        phase = seed_fraction(seed, 0.7548776662466927) * math.tau
        noisy = with_overrides(NOISY_SOLITON, {
            "soliton.waves": f"1.0:1.0:{phase!r}:0.0",
            "output.dir": "noisy_soliton",
        })
        return {
            "ens": write_config(out_dir, "snls_blowup_ensemble", ens),
            "gauge": write_config(out_dir, "snls_gauge_check", gauge),
            "noisy": write_config(out_dir, "noisy_soliton", noisy),
            "replay": seed % self.size,
        }

    def run_round(self, inputs: dict, rdir: Path, tracer=NullTracer()) -> Round:
        r = Round()
        sc = inputs["ens"]
        ens_dir = rdir / "ensemble"
        res = r.op(self.size, "run_ensemble", lambda: run_ensemble(sc, ens_dir))
        if res is not None:
            (summary, code), makespan = res
            r.extra["makespan_s"] = makespan
            rows = checks.read_ensemble_rows(ens_dir / "ensemble.csv")
            r.extra["rows"] = rows
            r.steps += sum(row["n_steps"] for row in rows)
            r.checks += checks.check_ensemble(rows, summary["stop_times"], sc.t1)

            # one seed again in this process: the pool row must repeat bitwise
            idx = inputs["replay"]

            def replay():
                return run_trajectory(sc, prepare_run(sc), sc.noise_seed + idx)

            res = r.op(1, "replay", replay)
            if res is not None:
                traj, _ = res
                r.steps += traj.n_steps
                r.checks.append(checks.check_replay(
                    rows[idx], traj.n_steps, float(traj.final_time)))

        for label, sc_run in (("gauge", inputs["gauge"]), ("noisy", inputs["noisy"])):
            out = rdir / label
            res = r.op(1, label, lambda: run_scenario(sc_run, out))
            if res is None:
                continue
            (summary, code), _ = res
            r.steps += summary["n_steps"]
            if code != 0:
                r.failed += 1
                continue
            if r.op(1, f"{label}.diagnose", lambda: diagnose(out, tracer)) is None:
                continue
            tracer.add("scenario.artifact_bytes", dir_bytes(out))
            if label == "gauge":
                r.checks += checks.check_gauge(summary, code)
            else:
                r.checks += checks.check_noisy(summary, code)
            r.checks.append(checks.check_report(out, label))
        return r

    def run_serial(self, inputs: dict, rdir: Path, pool_rows: list) -> Round:
        """The same ensemble on one worker, in this process (traced runs)."""
        r = Round()
        sc = replace(inputs["ens"], ensemble_workers=1)
        ens_dir = rdir / "ensemble_serial"
        res = r.op(self.size, "run_ensemble_serial", lambda: run_ensemble(sc, ens_dir))
        if res is not None:
            _, serial_s = res
            r.extra["serial_s"] = serial_s
            rows = checks.read_ensemble_rows(ens_dir / "ensemble.csv")
            r.steps = sum(row["n_steps"] for row in rows)
            r.checks.append(checks.check_serial(rows, pool_rows))
        return r


WORKLOADS = {w.name: w for w in (Blowup1d(), SnlsEnsemble())}


def remove_tree(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
