#!/usr/bin/env python3
"""Run one nlslab benchmark workload, check its outputs, print its metrics.

    python3 bench/run.py --workload blowup_1d --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark imports the package from
``src/`` and writes only under ``bench_runs/``, one fresh directory per
run.  With ``--trace 0`` it repeats whole rounds of the workload until the
operations have taken ``--seconds`` and reports the end-to-end metrics;
with ``--trace 1`` it runs one untraced and one traced round and reports
the per-layer metrics.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
come from ``BENCHMARK.json``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import of numpy

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / "bench_runs"
SETUP_PROBES = 3  # fresh interpreters timed per run, besides this one
MAX_ROUNDS = 1000


def die(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")
    if args.seconds <= 0:
        die("--seconds must be positive")
    return args


def prepare_environment() -> None:
    """Find the package, and keep every process to one numerical thread."""
    if not (SRC / "nlslab" / "__init__.py").is_file():
        die(f"no package at {SRC / 'nlslab'}; run from the root of a checkout")
    if not (ROOT / "configs").is_dir():
        die(f"no configs/ at {ROOT}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def fresh_dir(args) -> Path:
    OUT_ROOT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    run_dir.mkdir()  # fails if it exists: every run writes into a new directory
    return run_dir


def setup_probe(workload: str, seed: int, out_dir: Path) -> float:
    out_dir.mkdir()
    res = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(out_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    import numpy as np
    import scipy

    ld = np.finfo(np.longdouble)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_bytes": np.dtype(np.longdouble).itemsize,
        "longdouble_mantissa_bits": int(ld.nmant),
        # nlslab's _LONGDOUBLE path: the linear step runs in extended precision
        "longdouble_wider_than_double": bool(np.dtype(np.longdouble).itemsize > 8),
    }


def peak_rss() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"main_mb": own, "largest_child_mb": child, "peak_mb": max(own, child)}


def round_record(r) -> dict:
    return {
        "wall_s": r.wall_s,
        "steps": r.steps,
        "attempted": r.attempted,
        "failed": r.failed,
        "extra": {k: v for k, v in r.extra.items() if k != "rows"},
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in r.checks],
    }


def finish_round(r, rdir: Path, workloads) -> None:
    for c in r.checks:
        if not c.ok:
            print(f"bench: check failed: {c.name}: {c.detail}", file=sys.stderr)
    for err in r.extra.get("errors", ()):
        print(f"bench: operation failed: {err}", file=sys.stderr)
    if r.failed == 0 and all(c.ok for c in r.checks):
        workloads.remove_tree(rdir)  # kept for inspection otherwise


def end_to_end(wl, inputs, args, run_dir, workloads, setup_samples):
    rounds = []
    measured = 0.0
    while not rounds or (measured < args.seconds and len(rounds) < MAX_ROUNDS):
        rdir = run_dir / f"round_{len(rounds)}"
        rdir.mkdir()
        r = wl.run_round(inputs, rdir)
        finish_round(r, rdir, workloads)
        measured += r.wall_s
        rounds.append(r)
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "steps_per_s": statistics.median(r.steps / r.wall_s for r in rounds),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss()["peak_mb"],
    }
    return rounds, metrics


def per_layer(wl, inputs, args, run_dir, workloads):
    import tracing
    from nlslab.ground_state import ground_profile

    rdir = run_dir / "round_untraced"
    rdir.mkdir()
    untraced = wl.run_round(inputs, rdir)
    finish_round(untraced, rdir, workloads)
    rounds = [untraced]

    tracer = tracing.Tracer()
    ground_profile.cache_clear()  # the traced set-up builds the profiles again
    tracer.install()
    try:
        setup_dir = run_dir / "setup_traced"
        setup_dir.mkdir()
        inputs = wl.prepare(setup_dir, args.seed)
        rdir = run_dir / "round_traced"
        rdir.mkdir()
        traced = wl.run_round(inputs, rdir, tracer)
        rounds.append(traced)
        serial = None
        if hasattr(wl, "run_serial") and "rows" in traced.extra:
            serial = wl.run_serial(inputs, rdir, traced.extra["rows"])
            rounds.append(serial)
        finish_round(traced, rdir, workloads)
        if serial is not None:
            finish_round(serial, rdir, workloads)
    finally:
        tracer.uninstall()

    metrics = tracer.layer_metrics()
    metrics.update(tracing.kernel_timings())
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["scenario.ensemble.serial_s"] = 0.0
    metrics["scenario.ensemble.parallel_efficiency"] = 0.0
    if serial is not None and "serial_s" in serial.extra:
        serial_s = serial.extra["serial_s"]
        metrics["scenario.ensemble.serial_s"] = serial_s
        metrics["scenario.ensemble.parallel_efficiency"] = serial_s / (
            wl.workers * traced.extra["makespan_s"]
        )
    return rounds, metrics


def main() -> None:
    args = parse_args()
    prepare_environment()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"no {spec_path.name} at {ROOT}")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; one of {names}")
    run_dir = fresh_dir(args)

    import workloads  # imports numpy, scipy and nlslab

    wl = workloads.WORKLOADS[args.workload]
    setup_dir = run_dir / "setup"
    setup_dir.mkdir()
    inputs = wl.prepare(setup_dir, args.seed)
    setup_samples = [time.perf_counter() - _T0]

    if args.trace:
        rounds, values = per_layer(wl, inputs, args, run_dir, workloads)
        wanted = spec["per_layer"]
    else:
        for i in range(SETUP_PROBES):
            setup_samples.append(setup_probe(args.workload, args.seed, run_dir / f"probe_{i}"))
            workloads.remove_tree(run_dir / f"probe_{i}")
        rounds, values = end_to_end(wl, inputs, args, run_dir, workloads, setup_samples)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": all(c.ok for r in rounds for c in r.checks),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    machine = machine_facts()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_samples_s": setup_samples,
        "rss": peak_rss(),
        "rounds": [round_record(r) for r in rounds],
        "result": result,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"record: {run_dir.relative_to(ROOT) / 'result.json'}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
