"""Split-step time integration of the critical NLS and its gauged variant.

The deterministic equation is advanced by Strang splitting: the nonlinear
flow is an exact pointwise phase (the modulus is invariant), the linear
flow is exact in Fourier space, so the discrete mass is conserved to
rounding.  With the Brownian weights frozen at the step midpoint, the
gauged linear operator e^{-i psi} Lap e^{i psi} has the free flow
conjugated by e^{i psi} as its exact flow, and the nonlinear phase commutes
with that unimodular factor, so a gauged step is the Strang step
conjugated by e^{i psi}: unitary to rounding, like the plain one.

Every run keeps time as an integer position; stochastic runs step on a
dyadic subdivision of the Brownian path grid so that refining the step
never changes already-sampled path values.  The trajectory keeps the
per-step path values, Hamiltonian-evolution integrands and pointing
diagnostics needed by the verification suite.

One trajectory is a strictly sequential state machine; trajectories with
distinct configs or seeds share no mutable state and may run in parallel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.fft as sfft

from .grid import (
    ComplexField,
    GridSpec,
    grad_norm_sq,
    gradient_moments,
    gradient_values,
    l2_norm_sq,
)
from .ground_state import ground_profile
from .noise import (
    NoiseProfileSet,
    ProfileSpec,
    build_profiles,
    coefficient_fields,
    sample_brownian,
)


class EvolveError(RuntimeError):
    """Configuration or runtime failure of the integrator."""


# stop reasons that mark a numerical failure of the run (exit code 3)
FAILED_STOPS = ("nonfinite", "step_underflow")


# ---------------------------------------------------------------------------
# single steps


_LONGDOUBLE = np.dtype(np.longdouble).itemsize > 8
_REAL = np.longdouble if _LONGDOUBLE else np.float64


# the deterministic adaptive step is dt0 * 2^(-l / LADDER_LEVELS), l >= 0
LADDER_LEVELS = 8
# phases kept: a run steps on a few neighbouring levels at a time
PHASE_CACHE_LEVELS = 4


def _nonlinear_half(values: np.ndarray, dt_half: float, p: float) -> np.ndarray:
    """values * exp(i |v|^(p-1) dt_half), |v|^2 taken as re^2 + im^2.

    At p = 5 numpy's scalar-power fast path squares |v|^2 (np.square).
    """
    dens = values.real**2 + values.imag**2
    theta = dens ** (0.5 * (p - 1.0)) * dt_half
    return values * (np.cos(theta) + 1j * np.sin(theta))


@functools.lru_cache(maxsize=PHASE_CACHE_LEVELS)
def _phase(grid: GridSpec, dt: float, real: type) -> np.ndarray:
    """exp(-i k^2 dt) with k^2 and dt in precision ``real``; read-only.

    k^2 at index j and N - j is the same double, so the phase is evaluated
    on the non-negative half of each axis (N/2 + 1 points) and mirrored,
    bitwise equal to the full evaluation.  The phases of the last few step
    sizes are kept: deterministic runs step on the levels of the dt ladder
    and noise runs on dyadic levels, so nearly every step reuses one.
    """
    h = grid.points // 2 + 1
    k2 = grid.k_squared()[(slice(0, h),) * grid.d].astype(real)
    phase = np.exp(-1j * k2 * real(dt))
    for axis in range(grid.d):
        mirror = [slice(None)] * grid.d
        mirror[axis] = slice(h - 2, 0, -1)
        phase = np.concatenate((phase, phase[tuple(mirror)]), axis=axis)
    phase.flags.writeable = False
    return phase


def _linear_full(grid: GridSpec, values: np.ndarray, dt: float) -> np.ndarray:
    """Exact free flow in Fourier space.

    The transform round trip runs in extended precision where the platform
    has a true long double: the double-precision FFT pair carries a small
    systematic mass bias (about 1e-16 per step on sharply peaked fields)
    that would accumulate past the mass-exactness budget over the tens of
    thousands of steps a blow-up run takes.
    """
    phase = _phase(grid, dt, _REAL)
    if _LONGDOUBLE:
        # 1-d: fft/ifft, the transforms fftn/ifftn make there
        fwd, inv = (sfft.fft, sfft.ifft) if grid.d == 1 else (sfft.fftn, sfft.ifftn)
        out = inv(phase * fwd(values.astype(np.clongdouble)))
        return out.astype(np.complex128)
    return np.fft.ifftn(phase * np.fft.fftn(values))


def _step_strang_values(grid: GridSpec, values: np.ndarray, dt: float, p: float) -> np.ndarray:
    v = _nonlinear_half(values, 0.5 * dt, p)
    v = _linear_full(grid, v, dt)
    return _nonlinear_half(v, 0.5 * dt, p)


def march_strang(
    grid: GridSpec, values: np.ndarray, t: float, t_to: float, dt0: float, p: float
) -> tuple:
    """Fixed Strang steps of dt0 from t to t_to, the last one shortened to
    land on t_to; returns (values, t)."""
    while t < t_to - 1e-12:
        dt = min(dt0, t_to - t)
        values = _step_strang_values(grid, values, dt, p)
        t += dt
    return values, t


def step_strang(f: ComplexField, dt: float, p: float) -> ComplexField:
    """One Strang step of i v_t + Lap v + |v|^{p-1} v = 0."""
    if dt <= 0:
        raise EvolveError("dt must be positive")
    return ComplexField(f.grid, _step_strang_values(f.grid, f.values, dt, p))


def _step_gnls_values(
    grid: GridSpec, values: np.ndarray, dt: float, p: float, gauge: Optional[np.ndarray]
) -> np.ndarray:
    """e^{-i psi} S_dt(e^{i psi} v) with S the Strang step and ``gauge`` =
    e^{i psi} from ``coefficient_fields``; None (psi constant in space) is
    the Strang step itself, bitwise."""
    if gauge is None:
        return _step_strang_values(grid, values, dt, p)
    return np.conj(gauge) * _step_strang_values(grid, gauge * values, dt, p)


def step_gnls(f: ComplexField, dt: float, p: float, gauge: Optional[np.ndarray]) -> ComplexField:
    """One gauged step with the weights frozen (``gauge`` from
    ``coefficient_fields``)."""
    if dt <= 0:
        raise EvolveError("dt must be positive")
    out = _step_gnls_values(f.grid, f.values, dt, p, gauge)
    if not np.all(np.isfinite(out)):
        raise EvolveError("step produced non-finite values")
    return ComplexField(f.grid, out)


# ---------------------------------------------------------------------------
# drives: Brownian path or smooth deterministic weights


@dataclass
class NoiseSetup:
    """Noise clause of an evolution config.

    ``drive`` selects Brownian weights (default) or the smooth deterministic
    drive h_l(t) = sin((l+1) t) used for convergence studies.  ``path_dt``
    fixes the base path grid; runs with finer dt refine the same path by
    bridge sampling, never resample it.
    """

    profiles: ProfileSpec
    seed: int = 0
    drive: str = "brownian"  # brownian | sin
    path_dt: Optional[float] = None


# Every run keeps time as an integer position in units of base_dt / 2^POS_LEVEL
# (base_dt: the path step, or dt0 without noise); a level-l step moves it
# floor(2^(POS_LEVEL - l / LADDER_LEVELS)) units, exactly 2^(POS_LEVEL - j) at l = 8j.
POS_LEVEL = 30


class _BrownianDrive:
    """Brownian weights looked up by dyadic position.

    Position ``pos`` lies on refinement level ``L`` of the path when its
    low POS_LEVEL - L bits are zero; its weight is then
    ``values[pos >> (POS_LEVEL - L)]``.  The path is refined (globally, by
    bridge sampling) until the position lies on it, so the level never
    passes POS_LEVEL.
    """

    def __init__(self, profiles: NoiseProfileSet, seed: int, t0: float, base_dt: float, end_pos: int):
        n, rest = divmod(end_pos, 1 << POS_LEVEL)
        if n < 1 or rest:
            raise EvolveError("time span must be an integer multiple of the path step")
        times = t0 + np.arange(n + 1) * base_dt
        # level 1 immediately: every step needs its midpoint weight
        self.path = sample_brownian(seed, times, profiles.n_modes).refine()

    def value(self, pos: int) -> np.ndarray:
        path = self.path
        while pos & ((1 << (POS_LEVEL - path.level)) - 1):
            path = path.refine()
        self.path = path
        return path.values[pos >> (POS_LEVEL - path.level)]


class _SinDrive:
    """h_l(t) = sin((l + 1) t) at the time of a dyadic position."""

    def __init__(self, n_modes: int, t0: float, unit: float):
        self.n_modes = n_modes
        self.t0 = t0
        self.unit = unit

    def value(self, pos: int) -> np.ndarray:
        return np.sin((np.arange(self.n_modes) + 1.0) * (self.t0 + pos * self.unit))


# ---------------------------------------------------------------------------
# configuration and trajectory


@dataclass
class EvolveConfig:
    grid: GridSpec
    p: float
    v0: ComplexField
    t0: float
    t1: float
    dt0: float
    g_max: float = np.inf
    width_factor: float = 4.0
    grad_ref: Optional[float] = None
    cadence: int = 10
    noise: Optional[NoiseSetup] = None
    adaptive: bool = True
    max_steps: Optional[int] = None
    keep_snapshots: bool = True
    force_dyadic: bool = False  # step exactly like a noise run (twin comparisons)
    # record only t, ||grad v||, lambda and the mass (an ensemble row); the
    # other series of the trajectory are None
    lean_record: bool = False

    def __post_init__(self):
        if self.dt0 <= 0:
            raise EvolveError("base step dt0 must be positive")
        if self.t1 <= self.t0:
            raise EvolveError("time span must be nonempty")
        if self.cadence < 1:
            raise EvolveError("snapshot cadence must be at least one step")


@dataclass
class Trajectory:
    """Time-stamped snapshots plus per-step diagnostic series."""

    config: Optional[EvolveConfig]  # None when read back from a run directory
    times: np.ndarray
    mass: np.ndarray
    # hamiltonian, center, loc_mass, momentum and the noise extras are None
    # for a config.lean_record run
    hamiltonian: Optional[np.ndarray]
    grad_norm: np.ndarray
    lam: np.ndarray
    center: Optional[np.ndarray]  # (n, d)
    loc_mass: Optional[np.ndarray]
    residual: np.ndarray  # relative mass drift
    momentum: Optional[np.ndarray]  # (n, d): Im int conj(v) d_j v dx
    snapshots: list  # [(t, ComplexField)]
    stop_reason: Optional[str]  # None when read back from a run directory
    n_steps: int
    # noise extras (None for deterministic runs)
    noise_values: Optional[np.ndarray] = None  # (n, modes) drive weights at step times
    marty: Optional[np.ndarray] = None  # (n, modes) Im int X grad(conj X) . grad(phi_l)
    smear: Optional[np.ndarray] = None  # (n, modes) int |grad(phi_l)|^2 |X|^2
    profiles: Optional[NoiseProfileSet] = None

    @property
    def final_state(self) -> ComplexField:
        return self.snapshots[-1][1]

    @property
    def final_time(self) -> float:
        return self.snapshots[-1][0]


def _refine_peak_1d(absv: np.ndarray, idx: int, dx: float) -> float:
    n = absv.size
    y0, y1, y2 = absv[(idx - 1) % n], absv[idx], absv[(idx + 1) % n]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0 or abs(denom) < 1e-300:
        return 0.0
    return 0.5 * (y0 - y2) / denom * dx


def peak_center(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Location of max |v|, refined by per-axis quadratic interpolation."""
    return _peak_center_abs(grid, np.abs(values))


def _peak_center_abs(grid: GridSpec, absv: np.ndarray) -> np.ndarray:
    flat_idx = int(np.argmax(absv))
    x = grid.axis()
    if grid.d == 1:
        return np.array([x[flat_idx] + _refine_peak_1d(absv, flat_idx, grid.dx)])
    i, j = np.unravel_index(flat_idx, grid.shape)
    off_x = _refine_peak_1d(absv[:, j], i, grid.dx)
    off_y = _refine_peak_1d(absv[i, :], j, grid.dx)
    return np.array([x[i] + off_x, x[j] + off_y])


def _ball_mass(grid: GridSpec, dens: np.ndarray, center, radius: float) -> float:
    """Mass of the density |v|^2 within ``radius`` of ``center``."""
    return float(np.sum(dens[grid.radius_squared(center) <= radius * radius])) * grid.dvol


class _Recorder:
    def __init__(self, config: EvolveConfig, profiles: Optional[NoiseProfileSet]):
        self.config = config
        self.profiles = profiles
        self.lean = config.lean_record
        self.rows = {k: [] for k in (
            "t", "mass", "ham", "grad", "lam", "loc", "res", "weights")}
        self.centers = []
        self.momenta = []
        self.marty = []
        self.smear = []
        self.snapshots = []
        self.mass0 = None
        # |grad phi_l|^2 per mode and axis, for the smear series
        self.grad_phi_sq = None if profiles is None else [
            [g**2 for g in grad] for grad in profiles.grad
        ]

    def record(self, t: float, values: np.ndarray, weights, snapshot: bool):
        """Record the state at t; returns (||grad v||, lambda)."""
        grid = self.config.grid
        dvol = grid.dvol
        # |v| and |v|^2 once per step, shared by every sum below
        absv = np.abs(values)
        dens = absv**2
        mass_sq = float(np.sum(dens)) * dvol
        mass = math.sqrt(mass_sq)
        if self.mass0 is None:
            self.mass0 = mass

        # one FFT, by Parseval; only the gauged-back terms need grad v pointwise
        grad_sq, mom = gradient_moments(grid, values)
        kinetic = grad_sq
        if self.profiles is not None and not self.lean:
            kinetic, mom = self._gauged_back(values, dens, mom, weights)

        grad_norm = math.sqrt(grad_sq)
        lam = self.config.grad_ref / grad_norm if (
            self.config.grad_ref is not None and grad_norm > 0
        ) else np.nan
        self.rows["t"].append(t)
        self.rows["mass"].append(mass)
        self.rows["grad"].append(grad_norm)
        self.rows["lam"].append(lam)
        self.rows["res"].append(abs(mass - self.mass0) / self.mass0)
        if not self.lean:
            # |v|^(2 + 4/d)
            lp_sum = float(np.sum(dens * dens if grid.d == 2 else dens * dens * dens)) * dvol
            center = _peak_center_abs(grid, absv)
            self.rows["ham"].append(0.5 * kinetic - grid.d / (2.0 * grid.d + 4.0) * lp_sum)
            self.rows["loc"].append(_ball_mass(grid, dens, center, 1.0))
            self.centers.append(center)
            self.momenta.append(mom)
        if snapshot and self.config.keep_snapshots:
            self.snapshots.append((t, ComplexField(grid, values.copy())))
        return grad_norm, lam

    def _gauged_back(self, values, dens, mom, weights) -> tuple:
        """Kinetic energy and momenta of the gauged-back field X = e^{i psi} v,
        from v's momenta ``mom``; appends the Marty and smear rows and the
        weights."""
        grid = self.config.grid
        dvol = grid.dvol
        grads = gradient_values(grid, values)
        # gauge back: X = e^{i psi} v; |X| = |v|, grad X picks up i grad(psi) X
        gpsi = self.profiles.grad_psi(weights)
        kinetic = sum(
            float(np.sum(np.abs(g + 1j * gp * values) ** 2))
            for g, gp in zip(grads, gpsi)
        ) * dvol
        mom = mom + np.array(
            [float(np.sum(gp * dens)) * dvol for gp in gpsi]
        )
        # Im(v conj(d_j v)) does not depend on the mode
        cross = [(values * np.conj(g)).imag for g in grads]
        marty_row, smear_row = [], []
        for gl, gsq in zip(self.profiles.grad, self.grad_phi_sq):
            # Im int X grad(conj X) . grad(phi_l) on the gauged-back field
            acc = 0.0
            sm = 0.0
            for j in range(grid.d):
                acc += float(np.sum(cross[j] * gl[j]))
                acc -= float(np.sum(gpsi[j] * gl[j] * dens))
                sm += float(np.sum(gsq[j] * dens))
            marty_row.append(acc * dvol)
            smear_row.append(sm * dvol)
        self.marty.append(marty_row)
        self.smear.append(smear_row)
        self.rows["weights"].append(np.array(weights, dtype=float))
        return kinetic, mom

    def build(self, stop_reason: str, n_steps: int, final_t, final_values) -> Trajectory:
        # the final state is always retained, whatever the snapshot policy
        if not self.snapshots or self.snapshots[-1][0] != final_t:
            self.snapshots.append(
                (final_t, ComplexField(self.config.grid, final_values.copy()))
            )

        def series(rows):
            return None if self.lean else np.array(rows)

        noise_part = {}
        if self.profiles is not None:
            noise_part = dict(
                noise_values=series(self.rows["weights"]),
                marty=series(self.marty),
                smear=series(self.smear),
                profiles=self.profiles,
            )
        return Trajectory(
            config=self.config,
            times=np.array(self.rows["t"]),
            mass=np.array(self.rows["mass"]),
            hamiltonian=series(self.rows["ham"]),
            grad_norm=np.array(self.rows["grad"]),
            lam=np.array(self.rows["lam"]),
            center=series(self.centers),
            loc_mass=series(self.rows["loc"]),
            residual=np.array(self.rows["res"]),
            momentum=series(self.momenta),
            snapshots=self.snapshots,
            stop_reason=stop_reason,
            n_steps=n_steps,
            **noise_part,
        )


def integrate(config: EvolveConfig) -> Trajectory:
    """Advance the configured initial field, recording diagnostics per step.

    t = t0 + pos * unit with the integer position pos (see POS_LEVEL).  The
    target step dt0 * min(1, (g0/g)^2), g = ||grad v||, is rounded down to a
    ladder level, or to a dyadic level of the path grid for a noise run or
    its twin; a ladder step is clipped to the end of the span, a dyadic one
    halved until it fits.  Stops at the end of the span, at the gradient
    threshold, when the fitted width falls below width_factor * dx, on
    non-finite values (keeping the last good state), or when the level
    passes the finest but two of the position grid (``step_underflow``).
    """
    grid = config.grid
    v = config.v0.values.astype(np.complex128).copy()
    t0, t1 = config.t0, config.t1

    profiles = None
    drive = None
    base_dt = config.dt0
    j0 = 0
    if config.noise is not None:
        base_dt = config.noise.path_dt or config.dt0
        ratio = math.log2(base_dt / config.dt0)
        j0 = int(round(ratio))
        if j0 < 0 or abs(ratio - j0) > 1e-9:
            raise EvolveError("dt0 must be the path step divided by a power of two")
    dyadic = config.noise is not None or config.force_dyadic
    unit = base_dt * 2.0**-POS_LEVEL
    pos = 0
    end_pos = int(round((t1 - t0) / unit))
    if config.noise is not None:
        profiles = build_profiles(config.noise.profiles, grid)
        if config.noise.drive == "brownian":
            drive = _BrownianDrive(profiles, config.noise.seed, t0, base_dt, end_pos)
        elif config.noise.drive == "sin":
            drive = _SinDrive(profiles.n_modes, t0, unit)
        else:
            raise EvolveError(f"unknown drive {config.noise.drive!r}")

    rec = _Recorder(config, profiles)
    weights0 = drive.value(0) if drive is not None else None
    g, lam = rec.record(t0, v, weights0, snapshot=True)
    g0 = g
    if config.g_max <= g0:
        raise EvolveError("gradient stop threshold must exceed the initial gradient norm")

    stop_reason = None
    steps = 0
    while True:
        if pos >= end_pos:
            stop_reason = "reached_end"
            break
        if g >= config.g_max:
            stop_reason = "gradient_threshold"
            break
        if (
            config.grad_ref is not None
            and np.isfinite(lam)
            and lam < config.width_factor * grid.dx
        ):
            stop_reason = "width_resolution"
            break
        if config.max_steps is not None and steps >= config.max_steps:
            stop_reason = "max_steps"
            break

        dt_target = config.dt0 * min(1.0, (g0 / g) ** 2) if config.adaptive else config.dt0
        if dyadic:
            level = LADDER_LEVELS * max(j0, math.ceil(math.log2(base_dt / dt_target) - 1e-12))
        else:
            # round down to the ladder, so that steps repeat a few cached phases
            level = max(0, math.ceil(LADDER_LEVELS * math.log2(config.dt0 / dt_target)))
        if level > LADDER_LEVELS * (POS_LEVEL - 2):
            stop_reason = "step_underflow"
            break
        dpos = int(2.0 ** (POS_LEVEL - level / LADDER_LEVELS))
        if dyadic:
            # stay on a dyadic level inside the span
            while pos + dpos > end_pos:
                dpos //= 2
        else:
            dpos = min(dpos, end_pos - pos)

        attempts = 0
        while True:
            dt = dpos * unit
            if profiles is not None:
                # weights frozen at the step midpoint
                gauge = coefficient_fields(profiles, drive.value(pos + dpos // 2))
                v_new = _step_gnls_values(grid, v, dt, config.p, gauge)
            else:
                v_new = _step_strang_values(grid, v, dt, config.p)
            finite = bool(np.all(np.isfinite(v_new)))
            if finite:
                break
            attempts += 1
            dpos //= 2
            if attempts > 3 or dpos == 0:
                break
        if not finite:
            stop_reason = "nonfinite"
            break

        v = v_new
        pos += dpos
        steps += 1
        weights = drive.value(pos) if drive is not None else None
        g, lam = rec.record(t0 + pos * unit, v, weights, snapshot=(steps % config.cadence == 0))

    return rec.build(stop_reason, steps, t0 + pos * unit, v)


# ---------------------------------------------------------------------------
# backward solving for regular profiles


def backward_solve(
    zstar: ComplexField,
    blowup_time: float,
    t0: float,
    p: float,
    dt0: float = 1e-3,
    smallness_ref: Optional[float] = None,
) -> ComplexField:
    """Value at t0 of the solution that equals ``zstar`` at the blow-up time.

    Uses time-reversal symmetry: conjugate, integrate forward over the
    span, conjugate back.  Refuses data that is not small in H1 (default
    bound: a tenth of the ground-state H1 norm).
    """
    grid = zstar.grid
    if smallness_ref is None:
        q = ground_profile(grid.d).sample(grid)
        smallness_ref = math.sqrt(l2_norm_sq(q) + grad_norm_sq(q))
    z_h1 = math.sqrt(l2_norm_sq(zstar) + grad_norm_sq(zstar))
    if z_h1 > 0.1 * smallness_ref + 1e-12:
        raise EvolveError(
            f"backward data too large: H1 norm {z_h1:.4g} exceeds "
            f"0.1 * {smallness_ref:.4g}"
        )
    span = blowup_time - t0
    if span <= 0:
        raise EvolveError("backward solve requires t0 < blow-up time")
    if not np.any(zstar.values):
        return zstar.copy()
    values, _ = march_strang(grid, np.conj(zstar.values), 0.0, span, dt0, p)
    return ComplexField(grid, np.conj(values))
