"""Wiener fields, Brownian paths and the phase gauge.

The noise enters as W(t,x) = sum_l i phi_l(x) B_l(t) with real bounded
spatial profiles phi_l and independent Brownian motions B_l.  Since W is
purely imaginary, the gauge e^{-W} is a pointwise phase and preserves every
L^p norm exactly.  With psi = sum_l phi_l B_l the gauged linear operator is

    e^{-i psi} Lap e^{i psi} = Lap + a1 . grad + a0,
    a1 = 2i grad(psi),   a0 = -|grad psi|^2 + i Lap(psi),

so with the weights frozen its flow is the free flow conjugated by e^{i psi},
the factor ``coefficient_fields`` gives.  Every profile is an amplitude times a
product of radial factors F_k(|x - c_k|^2); each factor gives F, F'/r and F''
once, and one product rule turns them into phi, its analytic gradient (for the
gauged-back diagnostics) and its analytic Laplacian (for the flatness check).

Path generation is deterministic per seed and single-threaded; distinct
seeds can be generated and consumed in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .grid import GridSpec


class NoiseError(ValueError):
    """Invalid profile construction or path lookup."""


# ---------------------------------------------------------------------------
# spatial profiles


@dataclass(frozen=True)
class ProfileSpec:
    """Picklable recipe for a profile set (rebuilt per worker process)."""

    kind: str  # constant | schwartz | flat
    amplitude: float
    n_modes: int = 1
    flat_points: tuple = ()


@dataclass
class NoiseProfileSet:
    """Real spatial profiles with analytic gradients and Laplacians."""

    grid: GridSpec
    phi: list  # list of arrays
    grad: list  # list of [d arrays]
    lap: list  # list of arrays
    phi_funcs: list  # callables on coordinate arrays, for derivative checks

    @property
    def n_modes(self) -> int:
        return len(self.phi)

    def psi(self, weights) -> np.ndarray:
        """sum_l phi_l * w_l (the real gauge phase for given mode weights)."""
        out = np.zeros(self.grid.shape)
        for p, w in zip(self.phi, weights):
            out = out + p * w
        return out

    def grad_psi(self, weights) -> list:
        out = [np.zeros(self.grid.shape) for _ in range(self.grid.d)]
        for g, w in zip(self.grad, weights):
            for j in range(self.grid.d):
                out[j] = out[j] + g[j] * w
        return out


# A radial factor maps r^2 = |x - c|^2 to (F, G, F'') with G = F'/r, so that
# grad F = G * (x - c) and, in dimension d, Lap F = F'' + (d-1) G.


def _gaussian_factor(r2: np.ndarray, s: float):
    """F = exp(-r^2/s^2): the Schwartz kind's one factor."""
    F = np.exp(-r2 / s**2)
    G = -2.0 / s**2 * F
    return F, G, G + 4.0 * r2 / s**4 * F


def _flat_factor(r2: np.ndarray, s: float):
    """F = r^6 exp(-r^2/s^2): flat to order 5 at its centre."""
    g = np.exp(-r2 / s**2)
    r4 = r2 * r2
    F = r4 * r2 * g
    G = g * (6.0 * r4 - 2.0 * r4 * r2 / s**2)
    Fpp = g * (30.0 * r4 - 26.0 * r4 * r2 / s**2 + 4.0 * r4 * r4 / s**4)
    return F, G, Fpp


def _product(fields: list, shape, skip=()) -> np.ndarray:
    out = np.ones(shape)
    for k, F in enumerate(fields):
        if k not in skip:
            out = out * F
    return out


def _mode(amplitude: float, factors: list, coords) -> tuple:
    """phi = amplitude * prod_k F_k(|x - c_k|^2) at the coordinate arrays,
    with grad phi and Lap phi by the product rule; ``factors`` holds
    (c_k, F_k) pairs, and no factors give the constant profile."""
    coords = [np.asarray(c, dtype=float) for c in coords]
    shape = np.broadcast(*coords).shape
    d = len(coords)
    Fs, grads, laps = [], [], []
    for center, factor in factors:
        diff = [xj - cj for xj, cj in zip(coords, center)]
        F, G, Fpp = factor(sum(dj**2 for dj in diff))
        Fs.append(F)
        grads.append([G * dj for dj in diff])
        laps.append(Fpp + (d - 1) * G)
    phi = amplitude * _product(Fs, shape)
    grad = [np.zeros(shape) for _ in range(d)]
    lap = np.zeros(shape)
    for j, gj in enumerate(grads):
        oth = _product(Fs, shape, (j,))
        for ax in range(d):
            grad[ax] = grad[ax] + amplitude * gj[ax] * oth
        lap = lap + amplitude * laps[j] * oth
        for i in range(j + 1, len(grads)):
            dot = sum(gj[ax] * grads[i][ax] for ax in range(d))
            lap = lap + 2.0 * amplitude * dot * _product(Fs, shape, (i, j))
    return phi, grad, lap


def _flat_points(spec: ProfileSpec, grid: GridSpec) -> list:
    if not spec.flat_points:
        raise NoiseError("flat profile kind requires at least one flat point")
    pts = []
    for pt in spec.flat_points:
        p = np.atleast_1d(np.asarray(pt, dtype=float))
        if p.size != grid.d:
            raise NoiseError(f"flat point {pt!r} does not have {grid.d} components")
        if np.any(np.abs(p) > 0.5 * grid.extent - 5.0):
            raise NoiseError(f"flat point {pt!r} closer than 5 units to the box edge")
        pts.append(p)
    return pts


def build_profiles(spec: ProfileSpec, grid: GridSpec) -> NoiseProfileSet:
    """Mode l is amplitude * prod_k F(|x - c_k|^2; s_l), s_l = s_0 / (1 + l/4):
    no factor (constant), one Gaussian at the origin with s_0 = L/12
    (schwartz), or one r^6 Gaussian per flat point with s_0 = 1 (flat)."""
    if spec.amplitude < 0:
        raise NoiseError("amplitude must be nonnegative")
    if spec.n_modes < 1 or spec.n_modes > 8:
        raise NoiseError("number of noise modes must be between 1 and 8")
    if spec.kind == "constant":
        centers, factor, s0 = [], None, 1.0
    elif spec.kind == "schwartz":
        centers, factor, s0 = [(0.0,) * grid.d], _gaussian_factor, grid.extent / 12.0
    elif spec.kind == "flat":
        centers, factor, s0 = _flat_points(spec, grid), _flat_factor, 1.0
    else:
        raise NoiseError(f"unknown profile kind {spec.kind!r}")
    out = NoiseProfileSet(grid=grid, phi=[], grad=[], lap=[], phi_funcs=[])
    for l in range(spec.n_modes):
        factors = [(c, partial(factor, s=s0 / (1.0 + 0.25 * l))) for c in centers]
        phi, grad, lap = _mode(spec.amplitude, factors, grid.mesh())
        out.phi.append(phi)
        out.grad.append(grad)
        out.lap.append(lap)
        out.phi_funcs.append(lambda *coords, f=factors: _mode(spec.amplitude, f, coords)[0])
    _check_asymptotic_flatness(out)
    return out


def _edge_mask(grid: GridSpec) -> np.ndarray:
    mask = np.zeros(grid.shape, dtype=bool)
    if grid.d == 1:
        mask[0] = mask[-1] = True
    else:
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
    return mask


def _check_asymptotic_flatness(profiles: NoiseProfileSet, tol: float = 1e-8) -> None:
    """<x>^2 |d^nu phi| must vanish at the box edge (first and second order)."""
    grid = profiles.grid
    mask = _edge_mask(grid)
    bracket = 1.0 + grid.radius_squared()
    for l in range(profiles.n_modes):
        worst = 0.0
        for g in profiles.grad[l]:
            worst = max(worst, float(np.max(bracket[mask] * np.abs(g[mask]))))
        worst = max(worst, float(np.max(bracket[mask] * np.abs(profiles.lap[l][mask]))))
        if worst > tol:
            raise NoiseError(
                f"profile mode {l} not asymptotically flat at the box edge "
                f"(<x>^2 |d phi| = {worst:.3e} > {tol:g})"
            )


def finite_difference_derivative(func: Callable, point, order: int, axis: int, d: int, h: float = 0.05) -> float:
    """Centered finite-difference pure-axis derivative of a profile callable."""
    stencils = {
        0: ([0], [1.0]),
        1: ([-1, 1], [-0.5, 0.5]),
        2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
        3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
        4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
        5: ([-3, -2, -1, 1, 2, 3], [-0.5, 2.0, -2.5, 2.5, -2.0, 0.5]),
    }
    offsets, coefs = stencils[order]
    point = np.atleast_1d(np.asarray(point, dtype=float))
    total = 0.0
    for off, cf in zip(offsets, coefs):
        shifted = point.copy()
        shifted[axis] += off * h
        total += cf * float(func(*shifted))
    return total / h**order


# ---------------------------------------------------------------------------
# Brownian paths


@dataclass
class BrownianPath:
    """Seeded Brownian values on a step grid; increments are value diffs.

    Refinement inserts midpoints by Brownian-bridge sampling and leaves all
    existing values bitwise unchanged, so any statistic computed from shared
    grid points is reproducible across refinement levels.
    """

    seed: int
    times: np.ndarray
    values: np.ndarray  # (n_times, n_modes)
    level: int = 0

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    def index_of(self, t: float) -> int:
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.times.size and abs(self.times[j] - t) <= 1e-9 * max(
                1.0, abs(t)
            ):
                return j
        raise NoiseError(f"time {t!r} is not on the path grid")

    def value_at(self, t: float) -> np.ndarray:
        return self.values[self.index_of(t)]

    def refine(self) -> "BrownianPath":
        """Split every interval at its midpoint by bridge sampling."""
        normals = level_stream(self.seed, self.level + 1).standard_normal(
            (self.times.size - 1, self.n_modes)
        )
        times, values = bridge_refine(self.times, self.values, normals)
        return BrownianPath(seed=self.seed, times=times, values=values, level=self.level + 1)


def level_stream(seed: int, level: int) -> np.random.Generator:
    """Refinement ``level``'s normals: a row per interval above, in path order."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), level]))


def bridge_refine(times: np.ndarray, values: np.ndarray, normals: np.ndarray) -> tuple:
    """(times, values) with every interval bridge-sampled at its midpoint."""
    dts = np.diff(times)
    out_t, out_v = np.empty(2 * times.size - 1), np.empty((2 * times.size - 1, values.shape[1]))
    out_t[0::2], out_t[1::2] = times, times[:-1] + 0.5 * dts
    out_v[0::2] = values
    out_v[1::2] = 0.5 * (values[:-1] + values[1:]) + np.sqrt(dts / 4.0)[:, None] * normals
    return out_t, out_v


def sample_brownian(seed: int, times, n_modes: int) -> BrownianPath:
    """Independent standard Brownian motions on a step grid, zero at times[0].

    Deterministic given the seed: increments are Gaussian draws from
    numpy's PCG64 generator scaled by sqrt(dt).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise NoiseError("step grid needs at least two times")
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise NoiseError("step grid must be strictly increasing")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    incs = rng.standard_normal((times.size - 1, n_modes)) * np.sqrt(dts)[:, None]
    values = np.vstack([np.zeros((1, n_modes)), np.cumsum(incs, axis=0)])
    return BrownianPath(seed=int(seed), times=times, values=values, level=0)


# ---------------------------------------------------------------------------
# the gauge


def coefficient_fields(profiles: NoiseProfileSet, weights) -> np.ndarray | None:
    """The factor e^{i psi} that conjugates a gauged step at the given mode
    weights (Brownian values or a smooth drive), or None when psi is
    constant in space: the gauged step is then the plain Strang step."""
    psi = profiles.psi(weights)
    if psi.min() == psi.max():
        return None
    return np.exp(1j * psi)
