"""Ground states of the focusing nonlinear elliptic equation.

Computes the unique positive radial solution of

    Lap Q - Q + Q^p = 0,

with p = 1 + 4/d in the critical case, by three independent routes: the
1-d closed form, imaginary-time (normalized gradient flow) relaxation on
the grid, and a radial shooting/bisection oracle.  Also provides the
variational identities the ground state must satisfy, which serve as
cross-checks everywhere else.

Solves are pure functions of their inputs; concurrent solves are safe.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    ComplexField,
    GridSpec,
    fourier_interp_axes,
    grad_norm_sq,
    inverse_spectrum,
    l2_norm_sq,
    laplacian_values,
    lp_norm,
    make_grid,
    spectrum,
)


class GroundStateError(RuntimeError):
    """Solver failure: non-convergence, loss of positivity, bad bracket."""


def critical_exponent(d: int) -> float:
    return 1.0 + 4.0 / d


# ---------------------------------------------------------------------------
# closed form (d = 1)


def closed_form_radial(p: float) -> Callable[[np.ndarray], np.ndarray]:
    """1-d profile Q(x) = ((p+1)/2)^{1/(p-1)} sech^{2/(p-1)}(((p-1)/2) x)."""
    if not 1.0 < p <= 5.0:
        raise GroundStateError(f"closed form requires 1 < p <= 5, got {p}")
    amp = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
    alpha = 2.0 / (p - 1.0)
    beta = (p - 1.0) / 2.0

    def q(r):
        r = np.asarray(r, dtype=float)
        # cosh overflows to inf far out, and inf ** -alpha is the correct 0
        with np.errstate(over="ignore"):
            return amp * np.cosh(beta * r) ** (-alpha)

    return q


@dataclass
class GroundState:
    """Grid-sampled positive radial ground state."""

    field: ComplexField
    residual: float
    mass_sq: float

    @property
    def amplitude(self) -> float:
        return float(self.field.values.real.max())


# ---------------------------------------------------------------------------
# elliptic residual


def elliptic_residual(f: ComplexField, p: float) -> float:
    """|| Lap f - f + |f|^{p-1} f ||_L2 with the spectral Laplacian."""
    v = f.values
    res = laplacian_values(f.grid, v) - v + np.abs(v) ** (p - 1.0) * v
    return float(np.sqrt(np.sum(np.abs(res) ** 2) * f.grid.dvol))


# ---------------------------------------------------------------------------
# imaginary-time relaxation on the grid


def _multiplier_fit(grid: GridSpec, u: np.ndarray, p: float):
    """Least-squares (mu, c) in  Lap u = mu*u - c*u^p."""
    lap = laplacian_values(grid, u).real
    up = u**p
    a11 = float(np.sum(u * u))
    a12 = float(np.sum(u * up))
    a22 = float(np.sum(up * up))
    b1 = float(np.sum(lap * u))
    b2 = float(np.sum(lap * up))
    mat = np.array([[a11, -a12], [-a12, a22]])
    rhs = np.array([b1, -b2])
    mu, c = np.linalg.solve(mat, rhs)
    return float(mu), float(c)


def _rescale_to_unit_coefficients(grid: GridSpec, u: np.ndarray, p: float):
    """Map a solution of  Lap u - mu*u + c*u^p = 0  onto coefficients (1, 1).

    Amplitude scaling sets the nonlinear coefficient, then the spatial
    dilation x -> mu^{-1/2} x (via trigonometric interpolation, about the
    box center) removes the multiplier.
    """
    mu, c = _multiplier_fit(grid, u, p)
    if mu <= 0 or c <= 0:
        raise GroundStateError(f"relaxation produced invalid multipliers mu={mu}, c={c}")
    amp = (c / mu) ** (1.0 / (p - 1.0))
    b = 1.0 / np.sqrt(mu)
    scaled = amp * u
    if abs(b - 1.0) > 1e-13:
        axes = [b * grid.axis() for _ in range(grid.d)]
        scaled = fourier_interp_axes(ComplexField(grid, scaled), axes).real
    return scaled, mu, c


def solve_ground_state(grid: GridSpec, p: float, tol: float = 1e-10) -> GroundState:
    """Ground state by semi-implicit imaginary-time flow with renormalization.

    Each step solves the linear part (Lap - 1) backward-Euler in Fourier
    space with the nonlinearity explicit, then renormalizes the L2 mass.
    The converged profile satisfies the elliptic equation with a multiplier
    and a nonlinear coefficient, which are periodically (and finally)
    rescaled out so the result solves the unit-coefficient equation.
    """
    d = grid.d
    if d == 2 and abs(p - critical_exponent(2)) > 1e-12:
        raise GroundStateError("only the critical exponent is supported for d=2")
    if not 1.0 < p <= critical_exponent(d):
        raise GroundStateError(f"exponent must satisfy 1 < p <= 1+4/d, got {p}")
    if not 0.0 < tol < np.inf:
        raise GroundStateError(f"tolerance must be positive and finite, got {tol}")
    if grid.dx > 0.2:
        raise GroundStateError(f"grid spacing {grid.dx:.3f} too coarse to resolve the profile")

    dtau, max_iter, seed_width = 0.1, 20000, 1.5
    r2 = grid.radius_squared()
    u = 1.3 * np.exp(-r2 / (2.0 * seed_width**2))
    mass_target = np.sqrt(np.sum(u * u) * grid.dvol)

    sym = 1.0 / (1.0 + dtau * (1.0 + grid.k_squared()))
    rescale_every = 50
    residual = np.inf
    for it in range(1, max_iter + 1):
        nonlin = u**p
        u_new = inverse_spectrum(grid, sym * spectrum(grid, u + dtau * nonlin)).real
        u_new *= mass_target / np.sqrt(np.sum(u_new * u_new) * grid.dvol)
        # eps-level spectral undershoot in the far tail is clipped; anything
        # structurally negative means the flow left the positive cone
        if np.min(u_new) < -1e-6 * np.max(u_new):
            raise GroundStateError("negative values encountered during relaxation")
        u = np.maximum(u_new, 0.0)
        if it % rescale_every == 0:
            u, mu, c = _rescale_to_unit_coefficients(grid, u, p)
            u = np.maximum(u, 0.0)
            mass_target = np.sqrt(np.sum(u * u) * grid.dvol)
            residual = elliptic_residual(ComplexField(grid, u + 0j), p)
            if residual < tol:
                break
    else:
        raise GroundStateError(
            f"no convergence after {max_iter} iterations (residual {residual:.3e})"
        )

    field = ComplexField(grid, u.astype(np.complex128))
    return GroundState(field=field, residual=residual, mass_sq=l2_norm_sq(field))


# ---------------------------------------------------------------------------
# radial shooting oracle


@dataclass
class RadialTable:
    """Shooting-oracle output: sampled radial profile and its mass."""

    r: np.ndarray
    q: np.ndarray
    amplitude: float
    mass_sq: float


def _shoot_once(a: float, d: int, p: float, r_max: float, rtol: float):
    """Integrate the radial equation from the origin for amplitude a.

    Returns (classification, solution) where classification is +1 if the
    profile crossed zero (amplitude too large), -1 if it turned upward
    while positive (too small), and 0 if it survived to r_max.
    """
    from scipy.integrate import solve_ivp  # on first call: a run shoots only for a 2-d profile

    r0 = 1e-8

    def rhs(r, y):
        q, dq = y
        return [dq, q - np.sign(q) * np.abs(q) ** p - (d - 1) / r * dq]

    def hit_zero(r, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    def turn_up(r, y):
        return y[1] - 1e-14

    turn_up.terminal = True
    turn_up.direction = 1

    q0 = a + (a - a**p) / (2.0 * d) * r0**2
    dq0 = (a - a**p) / d * r0
    sol = solve_ivp(
        rhs,
        (r0, r_max),
        [q0, dq0],
        method="DOP853",
        events=(hit_zero, turn_up),
        rtol=rtol,
        atol=1e-14,
        dense_output=True,
    )
    if sol.t_events[0].size:
        return 1, sol
    if sol.t_events[1].size:
        return -1, sol
    return 0, sol


def radial_shooting_oracle(d: int, p: float, tol: float = 1e-12) -> RadialTable:
    """Ground-state profile by bisection on the central amplitude.

    Independent of the grid solver: integrates the radial ODE outward and
    bisects the amplitude between decaying and sign-crossing behavior.
    """
    r_max, n_samples = 30.0, 3000
    lo, hi = 1.0, 4.0
    cls_lo, _ = _shoot_once(lo, d, p, r_max, rtol=1e-12)
    cls_hi, _ = _shoot_once(hi, d, p, r_max, rtol=1e-12)
    if not (cls_lo <= 0 and cls_hi > 0):
        raise GroundStateError(
            f"bisection bracket failure: classes ({cls_lo}, {cls_hi}) at ({lo}, {hi})"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        cls, _ = _shoot_once(mid, d, p, r_max, rtol=1e-12)
        if cls > 0:
            hi = mid
        else:
            lo = mid
    a = 0.5 * (lo + hi)

    cls, sol = _shoot_once(a, d, p, r_max, rtol=1e-13)
    r_end = sol.t[-1]
    r = np.linspace(1e-8, r_end, n_samples)
    q = sol.sol(r)[0]
    # graft the exponential asymptote where the shot solution goes astray
    mask_bad = (q <= 0) | (np.abs(q) > 2 * a)
    if mask_bad.any():
        r = r[~mask_bad]
        q = q[~mask_bad]
    # locate the matching radius: last sample where profile is still reliable
    i_match = np.searchsorted(r, min(r[-1], r_max - 8.0))
    i_match = min(max(i_match, 10), r.size - 1)
    r_match, q_match = r[i_match], q[i_match]
    tail_coeff = q_match * np.exp(r_match) * r_match ** ((d - 1) / 2.0)
    r_tail = np.linspace(r_match, r_max + 10.0, 400)[1:]
    q_tail = tail_coeff * np.exp(-r_tail) * r_tail ** (-(d - 1) / 2.0)
    r_full = np.concatenate([[0.0], r[: i_match + 1], r_tail])
    q_full = np.concatenate([[a], q[: i_match + 1], q_tail])

    surface = 2.0 if d == 1 else 2.0 * np.pi
    integrand = q_full**2 * r_full ** (d - 1)
    mass_sq = surface * np.trapezoid(integrand, r_full)
    return RadialTable(r=r_full, q=q_full, amplitude=a, mass_sq=mass_sq)


# ---------------------------------------------------------------------------
# radial evaluators shared with the exact-solution families


@dataclass(frozen=True)
class GroundProfile:
    """Radially evaluable ground state with cached norms.

    ``radial`` evaluates Q(|x|) at arbitrary radii; mass/gradient norms are
    the squared L2 quantities of the continuum profile, computed on a
    reference grid fine and wide enough that quadrature error is spectral.
    ``p`` is the exponent of every family built on the profile; the
    dimension is that of the grid it is sampled or scaled on.
    """

    p: float
    radial: Callable[[np.ndarray], np.ndarray]
    mass_sq: float
    grad_sq: float
    moment2: float  # || |x| Q ||_L2^2

    def sample(self, grid: GridSpec) -> ComplexField:
        """Sample Q(|x|) about the box center with the nearest periodic images
        folded in: the smooth periodization of the profile, which differs
        from it only at the size of the box-edge tail (about exp(-L/2))."""
        shifts = (-grid.extent, 0.0, grid.extent)
        out = np.zeros(grid.shape)
        for image in itertools.product(shifts, repeat=grid.d):
            out += self.radial(np.sqrt(grid.radius_squared(image)))
        return ComplexField(grid, out.astype(np.complex128))


def _reference_norms(d: int, radial):
    grid = make_grid(d, 40.0, 1024 if d == 1 else 512)
    r = np.sqrt(grid.radius_squared())
    field = ComplexField(grid, radial(r).astype(np.complex128))
    mass_sq = l2_norm_sq(field)
    grad_sq = grad_norm_sq(field)
    mom2 = float(np.sum(grid.radius_squared() * np.abs(field.values) ** 2) * grid.dvol)
    return mass_sq, grad_sq, mom2


@functools.lru_cache(maxsize=8)
def ground_profile(d: int, p: float | None = None) -> GroundProfile:
    """Radial ground-state evaluator: closed form in 1-d, shooting spline in 2-d."""
    if p is None:
        p = critical_exponent(d)
    if d == 1:
        radial = closed_form_radial(p)
    elif d == 2:
        from scipy.interpolate import CubicSpline  # on first call, as solve_ivp

        table = radial_shooting_oracle(d, p, tol=1e-13)
        spline = CubicSpline(table.r, table.q, bc_type=((1, 0.0), "not-a-knot"))
        r_top = table.r[-1]

        def radial(r, _spline=spline, _r_top=r_top):
            r = np.asarray(r, dtype=float)
            out = _spline(np.clip(r, 0.0, _r_top))
            return np.where(r > _r_top, 0.0, out)

    else:
        raise GroundStateError("profiles available for d = 1, 2 only")
    mass_sq, grad_sq, mom2 = _reference_norms(d, radial)
    return GroundProfile(
        p=float(p),
        radial=radial,
        mass_sq=mass_sq,
        grad_sq=grad_sq,
        moment2=mom2,
    )


# ---------------------------------------------------------------------------
# variational identities


@dataclass(frozen=True)
class VariationalReport:
    hamiltonian: float
    grad_sq: float
    pohozaev_gap_rel: float
    gn_ratio_self: float


def gn_ratio(v: ComplexField, q_mass_sq: float) -> float:
    """Gagliardo-Nirenberg sharpness ratio; <= 1 for every field, 1 at Q."""
    d = v.grid.d
    pe = 2.0 + 4.0 / d
    num = lp_norm(v, pe) ** pe
    den = (1.0 + 2.0 / d) * (l2_norm_sq(v) / q_mass_sq) ** (2.0 / d) * grad_norm_sq(v)
    return num / den


def variational_identities(gs: GroundState) -> VariationalReport:
    """H(Q), the Pohozaev gap and the self GN ratio for a converged state."""
    d = gs.field.grid.d
    pe = 2.0 + 4.0 / d
    gsq = grad_norm_sq(gs.field)
    lpp = lp_norm(gs.field, pe) ** pe
    ham = 0.5 * gsq - d / (2.0 * d + 4.0) * lpp
    gap = gsq - d / (d + 2.0) * lpp
    return VariationalReport(
        hamiltonian=ham,
        grad_sq=gsq,
        pohozaev_gap_rel=abs(gap) / gsq,
        gn_ratio_self=gn_ratio(gs.field, gs.mass_sq),
    )
