"""Closed-form solution families: blow-up bubbles, solitary waves, and the
pseudo-conformal map connecting them.

These fields serve double duty as initial data for the evolution module
and as verification oracles for everything the solver produces.  Profiles
are evaluated in scaled coordinates directly from the radial ground-state
evaluator, never by resampling grid data, so strongly contracted bubbles
carry no grid-transfer artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, GridSpec, fourier_interp_axes
from .ground_state import GroundProfile


class ProfileError(ValueError):
    """Invalid profile parameters or an under-resolved/overflowing profile."""


def _as_point(x, d: int) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.size != d:
        raise ProfileError(f"point {x!r} does not have {d} components")
    return pt


@dataclass(frozen=True)
class Bubble:
    """One blow-up bubble: position, contraction scale and phase."""

    position: tuple
    width: float
    phase: float = 0.0


@dataclass(frozen=True)
class BlowupParams:
    """Parameters of a finite-time blow-up family with K bubbles."""

    blowup_time: float
    bubbles: tuple

    def __post_init__(self):
        if not np.isfinite(self.blowup_time):
            raise ProfileError("blow-up time must be finite")
        if len(self.bubbles) == 0:
            raise ProfileError("at least one bubble required")
        for b in self.bubbles:
            if b.width <= 0:
                raise ProfileError(f"bubble width must be positive, got {b.width}")
        pts = [np.atleast_1d(np.asarray(b.position, dtype=float)) for b in self.bubbles]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.allclose(pts[i], pts[j]):
                    raise ProfileError("bubble positions must be distinct")


@dataclass(frozen=True)
class Soliton:
    """One solitary wave: velocity, scale, phase and initial position."""

    velocity: tuple
    width: float
    phase: float = 0.0
    position0: tuple = (0.0,)


@dataclass(frozen=True)
class SolitonParams:
    """Parameters of a K-soliton configuration.  The exponent is not one of
    them: it is the ground profile's, so the scaling matches the profile."""

    solitons: tuple

    def __post_init__(self):
        if len(self.solitons) == 0:
            raise ProfileError("at least one soliton required")
        for s in self.solitons:
            if s.width <= 0:
                raise ProfileError(f"soliton width must be positive, got {s.width}")
        vels = [np.atleast_1d(np.asarray(s.velocity, dtype=float)) for s in self.solitons]
        for i in range(len(vels)):
            for j in range(i + 1, len(vels)):
                if np.allclose(vels[i], vels[j]):
                    raise ProfileError("soliton velocities must be pairwise distinct")


def pseudo_conformal_blowup(
    params: BlowupParams, t: float, grid: GridSpec, profile: GroundProfile
) -> ComplexField:
    """Sum of contracting bubbles at time t < T.

    Each bubble has width w_k (T - t); construction refuses widths below
    4 dx, which defines the valid window of a fixed grid.
    """
    T = params.blowup_time
    if t >= T:
        raise ProfileError(f"profile requires t < blow-up time, got t={t}, T={T}")
    d = grid.d
    out = np.zeros(grid.shape, dtype=np.complex128)
    for b in params.bubbles:
        lam = b.width * (T - t)
        if lam < 4.0 * grid.dx:
            raise ProfileError(
                f"bubble width {lam:.4g} under-resolved (< 4 dx = {4 * grid.dx:.4g})"
            )
        x_k = _as_point(b.position, d)
        r2 = grid.radius_squared(x_k)
        amp = lam ** (-d / 2.0) * profile.radial(np.sqrt(r2) / lam)
        phase = -r2 / (4.0 * (T - t)) + 1.0 / (b.width**2 * (T - t)) + b.phase
        out += amp * np.exp(1j * phase)
    return ComplexField(grid, out)


def solitary_wave(
    params: SolitonParams, t: float, grid: GridSpec, profile: GroundProfile
) -> ComplexField:
    """Sum of traveling rescaled ground states with Galilean phases.

    Critical scaling is w^{-d/2}; subcritical uses w^{-2/(p-1)}.  Soliton
    centers must stay inside the box with a margin of 5 widths.
    """
    d = grid.d
    p = profile.p
    out = np.zeros(grid.shape, dtype=np.complex128)
    mesh = grid.mesh()
    for s in params.solitons:
        c = _as_point(s.velocity, d)
        x0 = _as_point(s.position0, d)
        center = x0 + c * t
        margin = 5.0 * s.width
        if np.any(np.abs(center) > 0.5 * grid.extent - margin):
            raise ProfileError(
                f"soliton center {center} outside safe box region (margin {margin:.3g})"
            )
        r2 = grid.radius_squared(center)
        amp = s.width ** (-2.0 / (p - 1.0)) * profile.radial(np.sqrt(r2) / s.width)
        cdotx = sum(cj * xj for cj, xj in zip(c, mesh))
        phase = (
            0.5 * cdotx
            - 0.25 * float(c @ c) * t
            + t / s.width**2
            + s.phase
        )
        out = out + amp * np.exp(1j * phase)
    return ComplexField(grid, out)


# ---------------------------------------------------------------------------
# pseudo-conformal map


def _content_radius(f: ComplexField, mass_tol: float = 1e-12) -> float:
    """Radius about the box center containing all but ``mass_tol`` of the mass."""
    r = np.sqrt(f.grid.radius_squared())
    dens = (np.abs(f.values) ** 2).reshape(-1)
    order = np.argsort(r.reshape(-1))
    cum = np.cumsum(dens[order])
    total = cum[-1]
    if total == 0.0:
        return 0.0
    idx = int(np.searchsorted(cum, (1.0 - mass_tol) * total))
    return float(r.reshape(-1)[order[min(idx, order.size - 1)]])


def pseudo_conformal_map(
    f: ComplexField, t: float, blowup_time: float, direction: str = "forward"
):
    """Lens transform between solitary-wave and blow-up frames.

    forward:  given the wave-frame field at inner time s = 1/(T-t), returns
              the blow-up-frame field at time t:
              out(x) = (T-t)^{-d/2} f(x/(T-t)) exp(-i|x|^2 / (4(T-t))).
    inverse:  given the blow-up-frame field at time T - 1/t, returns the
              wave-frame field at time t:
              out(x) = t^{-d/2} f(x/t) exp(+i|x|^2 / (4t)).

    Returns (field, inner_time).  The inner field is evaluated at off-grid
    points by trigonometric interpolation; the map preserves the L2 norm.
    """
    grid = f.grid
    T = blowup_time
    if direction == "forward":
        if t == T:
            raise ProfileError("forward map undefined at t = T")
        a = T - t
        sign = -1.0
        inner_time = 1.0 / (T - t)
    elif direction == "inverse":
        if t == 0.0:
            raise ProfileError("inverse map undefined at t = 0")
        a = t
        sign = 1.0
        inner_time = T - 1.0 / t
    else:
        raise ProfileError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if a <= 0:
        raise ProfileError(f"map scale must be positive, got {a}")

    L = grid.extent
    r_f = _content_radius(f)
    if a * r_f > 0.48 * L:
        raise ProfileError(
            f"scale {a:.4g} pushes content (radius {r_f:.3g}) outside the box"
        )
    # chirp wavenumber over the populated output region (radius a*r_f) is r_f/2
    k_max = np.pi / grid.dx
    if 0.5 * r_f > 0.95 * k_max:
        raise ProfileError("quadratic phase under-resolved at this scale")

    # targets beyond the box see zero, not the periodic image of the content:
    # the box stands in for the whole space and carries negligible edge mass
    targets = grid.axis() / a
    outside = np.abs(targets) >= 0.5 * L
    axes = [targets for _ in range(grid.d)]
    inner = fourier_interp_axes(f, axes)
    if grid.d == 1:
        inner = np.where(outside, 0.0, inner)
    else:
        inner = np.where(outside[:, None] | outside[None, :], 0.0, inner)
    r2 = grid.radius_squared()
    out = a ** (-grid.d / 2.0) * inner * np.exp(sign * 1j * r2 / (4.0 * a))
    return ComplexField(grid, out), inner_time


# ---------------------------------------------------------------------------
# derived reference quantities used by tests and diagnostics


def blowup_grad_sq(profile: GroundProfile, width: float, time_left: float) -> float:
    """|| grad S ||^2 for one bubble: ||grad Q||^2/lam^2 + w^2 ||yQ||^2 / 4."""
    lam = width * time_left
    return profile.grad_sq / lam**2 + width**2 * profile.moment2 / 4.0


def blowup_modulation_scale(profile: GroundProfile, width: float, time_left: float) -> float:
    """Modulation scale ||grad Q|| / ||grad S|| of a single bubble."""
    return np.sqrt(profile.grad_sq / blowup_grad_sq(profile, width, time_left))
