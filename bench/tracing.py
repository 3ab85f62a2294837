"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces the public functions where one ``nlslab``
module calls into another with timing wrappers, in every ``nlslab`` module
that holds a reference to them, and ``uninstall`` puts the originals back.
Nothing under ``src/`` is edited.  Spans are aggregated in memory: total
inclusive seconds and calls per name, plus the counts the workloads need
(steps, bytes, path points).

``kernel_timings`` times single calls of the step kernels and their helpers
at fixed grid sizes, apart from any workload.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the module is imported by name
WRAPPED = (
    ("nlslab.evolution", "integrate", "evolution.integrate"),
    ("nlslab.noise", "coefficient_fields", "noise.coefficient_fields"),
    ("nlslab.grid", "write_snapshot", "grid.write_snapshot"),
    ("nlslab.grid", "read_snapshot", "grid.read_snapshot"),
    ("nlslab.scenario", "prepare_run", "scenario.prepare_run"),
    ("nlslab.scenario", "run_trajectory", "scenario.run_trajectory"),
    ("nlslab.scenario", "write_trajectory_artifacts", "scenario.write_trajectory_artifacts"),
    ("nlslab.scenario", "run_battery", "scenario.run_battery"),
    ("nlslab.diagnostics", "modulation_fit", "diagnostics.modulation_fit"),
    ("nlslab.diagnostics", "blowup_rate_fit", "diagnostics.blowup_rate_fit"),
    ("nlslab.diagnostics", "banica_sweep", "diagnostics.banica_sweep"),
    ("nlslab.diagnostics", "hamiltonian_evolution_residual",
     "diagnostics.hamiltonian_evolution_residual"),
    ("nlslab.diagnostics", "profile_residuals", "diagnostics.profile_residuals"),
    ("nlslab.diagnostics", "virial", "diagnostics.virial"),
    ("nlslab.exact", "pseudo_conformal_blowup", "exact.pseudo_conformal_blowup"),
    ("nlslab.exact", "solitary_wave", "exact.solitary_wave"),
    ("nlslab.ground_state", "ground_profile", "ground_state.ground_profile"),
)

# the integrator's per-step kernels: timed only inside ``integrate`` and
# only at the outermost level (the gauged step falls back to Strang)
KERNELS = (
    ("nlslab.evolution", "_step_strang_values"),
    ("nlslab.evolution", "_step_gnls_values"),
)
KERNEL_SPAN = "evolution.kernel"


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.path_points = 0
        self.dt_span = 0.0  # sum of (t_final - t0) over integrate calls
        self.dt_nominal = 0.0  # sum of steps * dt0
        self._stack = []
        self._undo = []

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def timed(self, name: str):
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, start)

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def _enter(self, name):
        self._stack.append(name)
        return time.perf_counter()

    def _exit(self, name, start):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self.seconds[name] += elapsed
        self.calls[name] += 1
        return elapsed

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            start = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, start)
            tracer._after(name, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_kernel(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if "evolution.integrate" not in stack or KERNEL_SPAN in stack:
                return fn(*args, **kwargs)
            start = tracer._enter(KERNEL_SPAN)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(KERNEL_SPAN, start)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, name, args, out):
        if name == "evolution.integrate":
            cfg = args[0]
            self.counts["evolution.steps"] += out.n_steps
            self.dt_span += out.final_time - cfg.t0
            self.dt_nominal += out.n_steps * cfg.dt0
        elif name == "grid.write_snapshot":
            self.counts["grid.snapshot_bytes"] += os.path.getsize(args[0])
        elif name == "noise.refine":
            self.path_points = max(self.path_points, int(out.times.size))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import nlslab.noise

        for modname, attr, name in WRAPPED:
            self._replace(modname, attr, lambda fn, n=name: self._wrap(fn, n))
        for modname, attr in KERNELS:
            self._replace(modname, attr, self._wrap_kernel)
        cls = nlslab.noise.BrownianPath
        original = cls.refine
        cls.refine = self._wrap(original, "noise.refine")
        self._undo.append((cls, "refine", original))

    def _replace(self, modname, attr, make):
        original = getattr(sys.modules[modname], attr)
        wrapper = make(original)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "nlslab" or mname.startswith("nlslab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Metrics measured by the spans (everything but the kernel timings)."""
        s, c, n = self.seconds, self.calls, self.counts
        steps = n["evolution.steps"]
        out = {
            "evolution.loop_overhead_us": (
                (s["evolution.integrate"] - s[KERNEL_SPAN]) / steps * 1e6 if steps else 0.0
            ),
            "evolution.integrate_s": s["evolution.integrate"],
            "evolution.integrate.calls": c["evolution.integrate"],
            "evolution.steps": steps,
            "evolution.mean_dt_ratio": (
                self.dt_span / self.dt_nominal if self.dt_nominal else 0.0
            ),
            "noise.coefficient_fields.calls": c["noise.coefficient_fields"],
            "noise.refine.calls": c["noise.refine"],
            "noise.path_points": self.path_points,
            "grid.write_snapshot_s": s["grid.write_snapshot"],
            "grid.write_snapshot.calls": c["grid.write_snapshot"],
            "grid.read_snapshot_s": s["grid.read_snapshot"],
            "grid.read_snapshot.calls": c["grid.read_snapshot"],
            "grid.snapshot_bytes": n["grid.snapshot_bytes"],
            "scenario.prepare_run_s": s["scenario.prepare_run"],
            "scenario.run_trajectory_s": s["scenario.run_trajectory"],
            "scenario.write_trajectory_artifacts_s": s["scenario.write_trajectory_artifacts"],
            "scenario.run_battery_s": s["scenario.run_battery"],
            "scenario.artifact_bytes": n["scenario.artifact_bytes"],
            "diagnostics.modulation_fit_s": s["diagnostics.modulation_fit"],
            "diagnostics.modulation_fit.calls": c["diagnostics.modulation_fit"],
            "diagnostics.blowup_rate_fit_s": s["diagnostics.blowup_rate_fit"],
            "diagnostics.banica_sweep_s": s["diagnostics.banica_sweep"],
            "diagnostics.hamiltonian_evolution_residual_s": s[
                "diagnostics.hamiltonian_evolution_residual"
            ],
            "diagnostics.profile_residuals_s": s["diagnostics.profile_residuals"],
            "diagnostics.virial_s": s["diagnostics.virial"],
            "exact.pseudo_conformal_blowup_s": s["exact.pseudo_conformal_blowup"],
            "exact.solitary_wave_s": s["exact.solitary_wave"],
            "ground_state.ground_profile_s": s["ground_state.ground_profile"],
            "cli.diagnose_s": s["cli.diagnose"],
        }
        return out


class NullTracer:
    """Stands in for a Tracer in untraced rounds."""

    def timed(self, name: str):
        return contextlib.nullcontext()

    def add(self, key: str, value) -> None:
        pass


# ---------------------------------------------------------------------------
# single-call kernel timings at fixed grid sizes


def _median_us(fn, min_calls: int, budget_s: float) -> float:
    for _ in range(3):
        fn()
    samples = []
    start = time.perf_counter()
    while len(samples) < min_calls or time.perf_counter() - start < budget_s:
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
        if len(samples) >= 2000:
            break
    return statistics.median(samples) * 1e6


def kernel_timings() -> dict:
    """Median wall time of single calls, in microseconds."""
    import numpy as np

    from nlslab.evolution import step_gnls, step_strang
    from nlslab.grid import gradient_values, make_grid
    from nlslab.ground_state import critical_exponent, ground_profile
    from nlslab.noise import ProfileSpec, build_profiles, coefficient_fields

    out = {}
    for d, n, extent, budget in ((1, 4096, 40.0, 0.4), (1, 1024, 40.0, 0.3), (2, 256, 20.0, 0.6)):
        grid = make_grid(d, extent, n)
        field = ground_profile(d).sample(grid)
        p = critical_exponent(d)
        dt = 1e-3
        out[f"evolution.step_strang_us.d{d}n{n}"] = _median_us(
            lambda: step_strang(field, dt, p), 5, budget
        )

    grid = make_grid(1, 40.0, 1024)
    field = ground_profile(1).sample(grid)
    profiles = build_profiles(ProfileSpec(kind="schwartz", amplitude=0.1, n_modes=2), grid)
    weights = np.array([0.3, -0.2])
    coeffs = coefficient_fields(profiles, weights)
    out["evolution.step_gnls_us.d1n1024"] = _median_us(
        lambda: step_gnls(field, 1e-3, 5.0, coeffs), 5, 0.3
    )
    out["noise.coefficient_fields_us"] = _median_us(
        lambda: coefficient_fields(profiles, weights), 20, 0.2
    )
    out["grid.gradient_values_us.d1n1024"] = _median_us(
        lambda: gradient_values(grid, field.values), 20, 0.2
    )
    return out
