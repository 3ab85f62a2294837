"""Split-step time integration of the critical NLS and its gauged variant.

The deterministic equation is advanced by Strang splitting: the nonlinear
flow is an exact pointwise phase (the modulus is invariant), the linear
flow is exact in Fourier space, so the discrete mass is conserved to
rounding.  With the Brownian weights frozen at the step midpoint, the
gauged linear operator e^{-i psi} Lap e^{i psi} has the free flow
conjugated by e^{i psi} as its exact flow, and the nonlinear phase commutes
with that unimodular factor, so a gauged step is the Strang step
conjugated by e^{i psi}: unitary to rounding, like the plain one.

Every march, backward solves included, is an ``integrate`` run on an
integer time position, on the levels of one dt ladder; a noise run reads its
weights off the one path ``BrownianPath.refine`` defines for its seed,
refined lazily, so a finer step samples the same realisation.  The
trajectory keeps the per-step path values,
Hamiltonian-evolution integrands and pointing diagnostics needed by the
verification suite.

One trajectory is a strictly sequential state machine; trajectories with
distinct configs or seeds share no mutable state and may run in parallel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (
    ComplexField,
    GridSpec,
    _c2c,
    _rotation,
    gradient_moments,
    gradient_values,
    spectrum,
)
from .noise import (
    NoiseProfileSet,
    ProfileSpec,
    bridge_refine,
    build_profiles,
    coefficient_fields,
    level_stream,
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
_COMPLEX = np.clongdouble if _LONGDOUBLE else np.complex128


# the adaptive step is dt0 * 2^(-l / LADDER_LEVELS), l >= 0
LADDER_LEVELS = 8
# a noise step is floored to a multiple of 2^(POS_LEVEL - 4 - octave) units:
# its midpoint lies at most 5 path levels below its octave
DRIVE_FLOOR_LEVELS = 4
# phases kept: a run steps on a few neighbouring levels at a time
PHASE_CACHE_LEVELS = 4


def _nonlinear_half(values: np.ndarray, dt_half: float, p: float) -> np.ndarray:
    """values * exp(i |v|^(p-1) dt_half), |v|^2 taken as re^2 + im^2.

    At p = 5 numpy's scalar-power fast path squares |v|^2 (np.square).  The
    rotation stays a temporary, as in ``values * (cos + 1j*sin)``: from
    256 KB on numpy multiplies into a temporary in place, with the operands
    in the other order, and a product with a named rotation would move the
    last bit of some entries.
    """
    dens = values.real**2 + values.imag**2
    theta = dens ** (0.5 * (p - 1.0)) * dt_half
    return values * _rotation(theta)


@functools.lru_cache(maxsize=PHASE_CACHE_LEVELS)
def _phase(grid: GridSpec, dt: float, real: type) -> np.ndarray:
    """exp(-i k^2 dt) / N^d with k^2, dt and 1/N^d in precision ``real``;
    read-only.

    The inverse transform's 1/N^d is folded in, so the inverse runs
    unscaled (``norm="forward"``).  N^d is a power of two, and scaling by
    one commutes with every rounding of the phase product and of the
    transform's passes, so the round trip is the scaled inverse's, bitwise.
    k^2 at index j and N - j is the same double, so the phase is evaluated
    on the non-negative half of each axis (N/2 + 1 points) and mirrored,
    bitwise equal to the full evaluation.  The phases of the last few step
    sizes are kept: every run steps on the levels of the dt ladder, so
    nearly every step reuses one.
    """
    h = grid.points // 2 + 1
    k2 = grid.k_squared()[(slice(0, h),) * grid.d].astype(real)
    phase = np.exp(-1j * k2 * real(dt)) * (real(1.0) / real(grid.points**grid.d))
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
    thousands of steps a blow-up run takes.  The axes go first to last,
    scipy.fft's order.
    """
    phase = _phase(grid, dt, _REAL)  # carries the inverse's 1/N^d
    axes = tuple(range(grid.d))
    vhat = values.astype(_COMPLEX)
    vhat = phase * _c2c(vhat, True, axes, out=vhat)
    return _c2c(vhat, False, axes, out=vhat).astype(np.complex128)


def _step_strang_values(grid: GridSpec, values: np.ndarray, dt: float, p: float) -> np.ndarray:
    v = _nonlinear_half(values, 0.5 * dt, p)
    v = _linear_full(grid, v, dt)
    return _nonlinear_half(v, 0.5 * dt, p)


def step_strang(f: ComplexField, dt: float, p: float) -> ComplexField:
    """One Strang step of i v_t + Lap v + |v|^{p-1} v = 0."""
    if dt <= 0:
        raise EvolveError("dt must be positive")
    return ComplexField(f.grid, _step_strang_values(f.grid, f.values, dt, p))


def _step_gnls_values(
    grid: GridSpec, values: np.ndarray, dt: float, p: float, gauge: Optional[np.ndarray]
) -> np.ndarray:
    """e^{-i psi} S_dt(e^{i psi} v) with S the Strang step and ``gauge`` =
    e^{i psi} from ``coefficient_fields``; None (no noise, or psi constant
    in space) is the Strang step itself, bitwise."""
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
# the Brownian drive


@dataclass
class NoiseSetup:
    """Noise clause of an evolution config.

    ``path_dt`` fixes the base path grid (default: dt0; dt0 times a power
    of two).  The seed fixes one path, refined as ``BrownianPath.refine``
    defines it: a finer dt samples the same realisation, never a new one.
    """

    profiles: ProfileSpec
    seed: int = 0
    path_dt: Optional[float] = None


# Every run keeps time as an integer position in units of base_dt / 2^POS_LEVEL
# (base_dt: the path step, or dt0 without noise); a level-l step moves it
# floor(2^(POS_LEVEL - l / LADDER_LEVELS)) units, exactly 2^(POS_LEVEL - j) at l = 8j.
POS_LEVEL = 30
DRIVE_BLOCK = 16  # base intervals in a lazily refined block of the path
# the longest span, in base steps: a noise run samples its path whole before
# the first step, and this bounds its memory and every run's clock
MAX_PATH_STEPS = 1 << 20


class _BrownianDrive:
    """Brownian weights by integer position: ``pos`` lies on path level m
    when its low POS_LEVEL - m bits are zero.  A lookup refines, level by
    level, only the block of DRIVE_BLOCK base intervals it falls in, with
    ``BrownianPath.refine``'s bridge arithmetic and the normals of refine's
    level-m stream at the block's offset (a stream discards the normals of
    blocks it skips), so every value is refine's, bitwise.  The block before
    the newest is kept, never shallower, so a retried step may look behind
    its midpoint; a lookup behind both raises EvolveError."""

    def __init__(self, n_modes: int, seed: int, t0: float, base_dt: float, end_pos: int):
        n, rest = divmod(end_pos, 1 << POS_LEVEL)
        if n < 1 or rest:
            raise EvolveError("time span must be an integer multiple of the path step")
        self.base = sample_brownian(seed, t0 + np.arange(n + 1) * base_dt, n_modes)
        self.streams = {}  # level -> (generator, rows drawn)
        self.blocks = {}  # block index -> [level, times, values]

    def value(self, pos: int) -> np.ndarray:
        index, offset = divmod(pos, 1 << POS_LEVEL)
        if not offset:
            return self.base.values[index]
        k = index // DRIVE_BLOCK
        if k not in self.blocks:
            if self.blocks and k < min(self.blocks):
                raise EvolveError(f"drive lookup at position {pos} lies behind the kept path blocks")
            rows = slice(k * DRIVE_BLOCK, (k + 1) * DRIVE_BLOCK + 1)
            self.blocks = {j: b for j, b in self.blocks.items() if j == k - 1}
            self.blocks[k] = [0, self.base.times[rows], self.base.values[rows]]
        level = POS_LEVEL + 1 - (offset & -offset).bit_length()
        while self.blocks[k][0] < level:
            older = self.blocks.get(k - 1)
            if older is not None and older[0] == self.blocks[k][0]:
                self._refine(k - 1)
            self._refine(k)
        block_level, _, values = self.blocks[k]
        return values[(pos - (k * DRIVE_BLOCK << POS_LEVEL)) >> (POS_LEVEL - block_level)]

    def _refine(self, k: int) -> None:
        block = self.blocks[k]
        level, times, values = block
        n_modes = self.base.n_modes
        rng, drawn = self.streams.get(level + 1) or (level_stream(self.base.seed, level + 1), 0)
        first = k * DRIVE_BLOCK << level  # the block's first row of level + 1 normals
        for skip in range(drawn * n_modes, first * n_modes, 1 << 16):
            rng.standard_normal(min(1 << 16, first * n_modes - skip))
        self.streams[level + 1] = (rng, first + times.size - 1)
        normals = rng.standard_normal((times.size - 1, n_modes))
        block[:] = [level + 1, *bridge_refine(times, values, normals)]


# ---------------------------------------------------------------------------
# configuration and trajectory


@dataclass
class EvolveConfig:
    """``v0``, on its own grid, advanced from t0 to t1 with a snapshot every
    ``cadence`` steps from the start (``None``: the final state only)."""

    p: float
    v0: ComplexField
    t0: float
    t1: float
    dt0: float
    g_max: float = np.inf
    width_factor: float = 4.0
    grad_ref: Optional[float] = None
    cadence: Optional[int] = 10
    noise: Optional[NoiseSetup] = None
    adaptive: bool = True
    max_steps: Optional[int] = None
    # record only t, ||grad v||, lambda and the mass (an ensemble row); the
    # other series of the trajectory are None
    lean_record: bool = False

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t0, self.t1, self.dt0))):
            raise EvolveError("t0, t1 and dt0 must be finite")
        if math.isnan(self.g_max) or math.isnan(self.width_factor):
            raise EvolveError("gradient threshold and width factor must not be NaN")
        if self.dt0 <= 0:
            raise EvolveError("base step dt0 must be positive")
        if self.t1 <= self.t0:
            raise EvolveError("time span must be nonempty")
        if self.cadence is not None and self.cadence < 1:
            raise EvolveError("snapshot cadence must be at least one step")


@dataclass
class Trajectory:
    """Time-stamped snapshots plus per-step diagnostic series.

    Every run records ``times``, ``mass``, ``grad_norm``, ``lam`` and
    ``residual``.  A full run (not ``lean_record``) also records
    ``hamiltonian``, ``center``, ``loc_mass`` and ``momentum``, and a full
    noise run ``noise_values``, ``marty`` and ``smear``; a series a run does
    not record is None.  Each series is a C-contiguous float64 array of
    ``n_steps + 1`` rows, (n,) or (n, width).  Read back from a run directory,
    the momenta, the stop reason and the profiles are None: they are not on
    disk.
    """

    times: np.ndarray
    mass: np.ndarray
    grad_norm: np.ndarray
    lam: np.ndarray
    residual: np.ndarray  # relative mass drift
    snapshots: list  # [(t, ComplexField)]
    stop_reason: Optional[str] = None
    hamiltonian: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None  # (n, d)
    loc_mass: Optional[np.ndarray] = None
    momentum: Optional[np.ndarray] = None  # (n, d): Im int conj(v) d_j v dx
    noise_values: Optional[np.ndarray] = None  # (n, modes) drive weights at step times
    marty: Optional[np.ndarray] = None  # (n, modes) Im int X grad(conj X) . grad(phi_l)
    smear: Optional[np.ndarray] = None  # (n, modes) int |grad(phi_l)|^2 |X|^2
    profiles: Optional[NoiseProfileSet] = None

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

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


def peak_center(grid: GridSpec, absv: np.ndarray) -> np.ndarray:
    """Location of max |v| (``absv``), refined by per-axis quadratic interpolation."""
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


# rows a recorder's series hold at first; a series that fills doubles
_RECORD_ROWS = 1024


class _Recorder:
    """Per-step series under their ``Trajectory`` names, each one float64
    array of ``_RECORD_ROWS`` rows at first, doubled whenever it fills; a
    wide series (``center``, ``momentum``, the noise series) has one
    d- or mode-wide row per step.  The names a run records are fixed here,
    once, by ``lean_record`` and the noise: a lean record skips the momenta,
    the gauged terms and the drive weights."""

    def __init__(self, config: EvolveConfig, profiles: Optional[NoiseProfileSet]):
        self.config = config
        self.grid = config.v0.grid
        self.profiles = profiles
        self.lean = config.lean_record
        self.gauged = profiles is not None and not self.lean
        d = self.grid.d
        widths = dict.fromkeys(["times", "mass", "grad_norm", "lam", "residual"], ())
        if not self.lean:
            widths.update(hamiltonian=(), loc_mass=(), center=(d,), momentum=(d,))
        if self.gauged:
            widths.update(dict.fromkeys(["noise_values", "marty", "smear"], (profiles.n_modes,)))
        self.series = {name: np.empty((_RECORD_ROWS, *w)) for name, w in widths.items()}
        self.rows = 0
        self.snapshots = []
        self.mass0 = None
        # |grad phi_l|^2 per mode and axis, for the smear series
        self.grad_phi_sq = [[g**2 for g in grad] for grad in profiles.grad] if self.gauged else None

    def record(self, t: float, values: np.ndarray, weights):
        """Record the state at t into the next row of every series (row n
        after n steps); returns (||grad v||, lambda)."""
        grid = self.grid
        dvol = grid.dvol
        s = self.series
        n = self.rows
        if n == len(s["times"]):
            for name, rows in s.items():
                s[name] = np.empty((2 * n, *rows.shape[1:]))
                s[name][:n] = rows
        self.rows = n + 1
        # |v| and |v|^2 once per step, shared by every sum below
        absv = np.abs(values)
        dens = absv**2
        mass_sq = float(np.sum(dens)) * dvol
        mass = math.sqrt(mass_sq)
        if self.mass0 is None:
            self.mass0 = mass

        # one forward transform: the Parseval sums here, and the gauged-back
        # terms' pointwise gradient
        vhat = spectrum(grid, values)
        grad_sq, mom = gradient_moments(grid, vhat, momenta=not self.lean)
        grad_norm = math.sqrt(grad_sq)
        lam = self.config.grad_ref / grad_norm if (
            self.config.grad_ref is not None and grad_norm > 0
        ) else np.nan
        s["times"][n] = t
        s["mass"][n] = mass
        s["grad_norm"][n] = grad_norm
        s["lam"][n] = lam
        s["residual"][n] = abs(mass - self.mass0) / self.mass0
        if not self.lean:
            s["momentum"][n] = mom
            kinetic = self._gauged_back(values, vhat, dens, weights, n) if self.gauged else grad_sq
            # |v|^(2 + 4/d)
            lp_sum = float(np.sum(dens * dens if grid.d == 2 else dens * dens * dens)) * dvol
            center = peak_center(grid, absv)
            s["hamiltonian"][n] = 0.5 * kinetic - grid.d / (2.0 * grid.d + 4.0) * lp_sum
            s["loc_mass"][n] = _ball_mass(grid, dens, center, 1.0)
            s["center"][n] = center
        cadence = self.config.cadence
        if cadence is not None and n % cadence == 0:
            self.snapshots.append((t, ComplexField(grid, values.copy())))
        return grad_norm, lam

    def _gauged_back(self, values, vhat, dens, weights, n: int) -> float:
        """Kinetic energy of the gauged-back field X = e^{i psi} v; adds the
        gauge's share to row ``n`` of the momenta (v's) and fills row ``n``
        of the weights and of the Marty and smear series."""
        grid = self.grid
        dvol = grid.dvol
        s = self.series
        grads = gradient_values(grid, values, vhat)
        # gauge back: X = e^{i psi} v; |X| = |v|, grad X picks up i grad(psi) X
        gpsi = self.profiles.grad_psi(weights)
        kinetic = sum(
            float(np.sum(np.abs(g + 1j * gp * values) ** 2))
            for g, gp in zip(grads, gpsi)
        ) * dvol
        mom = s["momentum"][n]
        for j, gp in enumerate(gpsi):
            mom[j] += float(np.sum(gp * dens)) * dvol
        # Im(v conj(d_j v)) does not depend on the mode
        cross = [(values * np.conj(g)).imag for g in grads]
        for mode, (gl, gsq) in enumerate(zip(self.profiles.grad, self.grad_phi_sq)):
            # Im int X grad(conj X) . grad(phi_l) on the gauged-back field
            acc = 0.0
            sm = 0.0
            for j in range(grid.d):
                acc += float(np.sum(cross[j] * gl[j]))
                acc -= float(np.sum(gpsi[j] * gl[j] * dens))
                sm += float(np.sum(gsq[j] * dens))
            s["marty"][n, mode] = acc * dvol
            s["smear"][n, mode] = sm * dvol
        s["noise_values"][n] = weights
        return kinetic

    def build(self, stop_reason: str, final_t, final_values) -> Trajectory:
        # the final state is always retained, whatever the snapshot policy
        if not self.snapshots or self.snapshots[-1][0] != final_t:
            self.snapshots.append((final_t, ComplexField(self.grid, final_values.copy())))
        # a copy of the filled rows, which frees the spare ones: it measured
        # a lower peak RSS than a view of the whole array
        return Trajectory(
            snapshots=self.snapshots, stop_reason=stop_reason,
            profiles=self.profiles,
            **{name: rows[:self.rows].copy() for name, rows in self.series.items()},
        )


def integrate(config: EvolveConfig) -> Trajectory:
    """Advance the configured initial field, recording diagnostics per step.

    t = t0 + pos * unit with the integer position pos (see POS_LEVEL).  The
    target step dt0 * min(1, (g0/g)^2), g = ||grad v||, is rounded down to a
    ladder level; a noise run floors it further to the drive's grain (see
    DRIVE_FLOOR_LEVELS), and the last step is clipped to the end of the
    span.  Stops at the end of the span, at the gradient
    threshold, when the fitted width falls below width_factor * dx, on
    non-finite values (keeping the last good state), or when the level
    passes the finest but two of the position grid (``step_underflow``).
    An all-zero initial field is refused: the mass drift is relative to it;
    so is a span of more than MAX_PATH_STEPS base steps.
    """
    grid = config.v0.grid
    v = config.v0.values.copy()
    if not np.any(v):
        raise EvolveError("initial field is identically zero")
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
    span = (t1 - t0) / base_dt
    if not span <= MAX_PATH_STEPS:
        raise EvolveError(f"time span of {span:.6g} base steps is over the {MAX_PATH_STEPS} limit")
    unit = base_dt * 2.0**-POS_LEVEL
    pos = 0
    end_pos = int(round((t1 - t0) / unit))
    if config.noise is not None:
        profiles = build_profiles(config.noise.profiles, grid)
        drive = _BrownianDrive(profiles.n_modes, config.noise.seed, t0, base_dt, end_pos)

    rec = _Recorder(config, profiles)
    # the step-end weights: only the gauged record reads them
    weights = drive.value(0) if rec.gauged else None
    g, lam = rec.record(t0, v, weights)
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
        # round down to the ladder, so that steps repeat a few cached phases
        level = max(0, math.ceil(LADDER_LEVELS * math.log2(config.dt0 / dt_target)))
        level += LADDER_LEVELS * j0
        if level > LADDER_LEVELS * (POS_LEVEL - 2):
            stop_reason = "step_underflow"
            break
        dpos = int(2.0 ** (POS_LEVEL - level / LADDER_LEVELS))
        if drive is not None:
            dpos -= dpos % (1 << max(0, POS_LEVEL - DRIVE_FLOOR_LEVELS - level // LADDER_LEVELS))
        dpos = min(dpos, end_pos - pos)

        attempts = 0
        while True:
            dt = dpos * unit
            gauge = None
            if drive is not None:  # weights frozen at the step midpoint
                gauge = coefficient_fields(profiles, drive.value(pos + dpos // 2))
            v_new = _step_gnls_values(grid, v, dt, config.p, gauge)
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
        weights = drive.value(pos) if rec.gauged else None
        g, lam = rec.record(t0 + pos * unit, v, weights)

    return rec.build(stop_reason, t0 + pos * unit, v)


# ---------------------------------------------------------------------------
# backward solving for regular profiles


def backward_solve(
    zstar: ComplexField, blowup_time: float, t0: float, p: float, dt0: float = 1e-3
) -> ComplexField:
    """Value at t0 of the solution that equals ``zstar`` at the blow-up time.

    Uses time-reversal symmetry: conjugate, march forward over the span by
    ``integrate`` in fixed steps of dt0, conjugate back.
    """
    v0 = ComplexField(zstar.grid, np.conj(zstar.values))
    cfg = EvolveConfig(p, v0, 0.0, blowup_time - t0, dt0, adaptive=False, cadence=None,
                       lean_record=True)
    return ComplexField(zstar.grid, np.conj(integrate(cfg).final_state.values))
