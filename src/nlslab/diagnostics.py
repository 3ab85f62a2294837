"""Diagnostic functionals, inequalities and fits for blow-up verification.

Covers the conserved functionals, the Banica pairing bound, the Hamiltonian
evolution identity (drift plus Ito sum), the cut-off virial and its drift
identity, localized mass, modulation fits against the ground-state family,
and blow-up rate fitting with log-log discrimination.  The sharp
Gagliardo-Nirenberg inequality is ``ground_state.gn_ratio``.

The pairing bound is read off the integrands a run records (``banica_sweep``).
No run calls ``functionals``, ``build_cutoff`` or ``virial_evolution_residual``:
they are independent oracles for the tests.

Everything here is pure over immutable fields and trajectories; series
reductions run in fixed index order so results are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (
    ComplexField,
    GridSpec,
    fourier_interp_axes,
    fourier_interp_coefficients,
    grad_norm_sq,
    gradient_values,
    norm_suite,
    spectrum,
)
from .ground_state import GroundProfile
from .evolution import Trajectory, peak_center


class DiagnosticsError(ValueError):
    """Precondition violation of a diagnostic check."""


# ---------------------------------------------------------------------------
# basic functionals


@dataclass(frozen=True)
class Functionals:
    mass: float
    hamiltonian: float
    grad_l2: float


def functionals(v: ComplexField) -> Functionals:
    d = v.grid.d
    pe = 2.0 + 4.0 / d
    ns = norm_suite(v)
    ham = 0.5 * ns.grad_l2**2 - d / (2.0 * d + 4.0) * ns.lp**pe
    return Functionals(mass=ns.l2, hamiltonian=ham, grad_l2=ns.grad_l2)


# ---------------------------------------------------------------------------
# Banica pairing bound


@dataclass(frozen=True)
class BanicaSweep:
    satisfied: bool
    max_violation: float
    n_checked: int


def banica_sweep(traj: Trajectory, q_mass: Optional[float], slack: float = 1e-10) -> BanicaSweep:
    """Check the pairing bound at every recorded step of a trajectory.

    Noise runs test against each noise profile (the recorded integrands are
    exactly the two sides of the bound); every run with recorded momenta
    also tests against the coordinate functions, whose gradients are
    constant units.  The mass precondition is checked against ``q_mass``;
    None skips it.
    """
    if q_mass is not None and np.any(traj.mass > q_mass + 1e-8):
        raise DiagnosticsError("trajectory mass exceeds the ground-state mass")
    ham = np.maximum(traj.hamiltonian, 0.0)
    worst = -np.inf
    count = 0
    if traj.marty is not None:
        lhs = np.abs(traj.marty)
        rhs = np.sqrt(2.0 * ham[:, None] * traj.smear)
        worst = float(np.max(lhs - rhs))
        count = lhs.size
    if traj.momentum is not None:
        lhs_c = np.abs(traj.momentum)
        rhs_c = np.sqrt(2.0 * ham * traj.mass**2)[:, None]
        worst = max(worst, float(np.max(lhs_c - rhs_c)))
        count += lhs_c.size
    return BanicaSweep(satisfied=worst <= slack, max_violation=worst, n_checked=count)


# ---------------------------------------------------------------------------
# Hamiltonian evolution identity


def hamiltonian_evolution_residual(traj: Trajectory):
    """Residual of H(X(t)) = H(X_0) + H1(t) + H2(t) along a trajectory.

    H1 is the trapezoid of (1/2) sum_l ||grad(phi_l) X||^2; H2 is the
    left-endpoint Ito sum of the recorded pairing integrands against the
    stored Brownian increments.  Without noise the residual reduces to the
    Hamiltonian drift of the scheme.
    """
    t = traj.times
    if traj.marty is None:
        return t, traj.hamiltonian - traj.hamiltonian[0]
    h1_integrand = 0.5 * np.sum(traj.smear, axis=1)
    dt = np.diff(t)
    h1 = np.concatenate(
        [[0.0], np.cumsum(0.5 * dt * (h1_integrand[1:] + h1_integrand[:-1]))]
    )
    db = np.diff(traj.noise_values, axis=0)
    h2_steps = -np.sum(traj.marty[:-1] * db, axis=1)
    h2 = np.concatenate([[0.0], np.cumsum(h2_steps)])
    return t, traj.hamiltonian - traj.hamiltonian[0] - h1 - h2


# ---------------------------------------------------------------------------
# cut-off virial


def _bump(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    pos = u > 1e-12
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def _bump_prime(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    pos = u > 1e-3
    out[pos] = np.exp(-1.0 / u[pos]) / u[pos] ** 2
    return out


def _smoothstep(u: np.ndarray):
    """C-infinity step s with s(0)=0, s(1)=1, plus derivative."""
    u = np.clip(u, 0.0, 1.0)
    f = _bump(u)
    g = _bump(1.0 - u)
    fp = _bump_prime(u)
    gp = -_bump_prime(1.0 - u)
    denom = f + g
    s = f / denom
    sp = (fp * g - f * gp) / denom**2
    return s, sp


def theta_radial(r: np.ndarray):
    """Cut-off shape: r^2 inside r<=1, bridged smoothly to 0 on [1, 3].

    Returns (theta, dtheta/dr).
    """
    r = np.asarray(r, dtype=float)
    s, sp = _smoothstep((r - 1.0) / 2.0)
    inside = r <= 1.0
    w = np.where(inside, 1.0, 1.0 - s)
    wp = np.where(inside, 0.0, -sp / 2.0)
    theta = r**2 * w
    dtheta = 2.0 * r * w + r**2 * wp
    theta = np.where(r >= 3.0, 0.0, theta)
    dtheta = np.where(r >= 3.0, 0.0, dtheta)
    return theta, dtheta


@dataclass(frozen=True)
class CutoffSpec:
    """Rescaled cut-off theta_m(x) = m^2 theta(|x|/m) with its chord constant.

    ``chord_constant`` is the measured maximum of theta'(r)^2 / theta(r),
    finite because the bump bridge decays faster than any power.
    """

    m: float
    chord_constant: float

    def evaluate(self, grid: GridSpec, center):
        r = np.sqrt(grid.radius_squared(center))
        th, dth = theta_radial(r / self.m)
        return self.m**2 * th, self.m * dth


def build_cutoff(m: float) -> CutoffSpec:
    if m <= 0:
        raise DiagnosticsError("cutoff scale must be positive")
    r = np.linspace(1e-9, 3.0 - 1e-9, 200001)
    th, dth = theta_radial(r)
    mask = th > 1e-280
    c = float(np.max(dth[mask] ** 2 / th[mask]))
    return CutoffSpec(m=float(m), chord_constant=c)


def virial(v: ComplexField, center, cutoff: Optional[CutoffSpec] = None) -> float:
    """int theta_m(x - center) |v|^2, or the uncut int |x - center|^2 |v|^2."""
    grid = v.grid
    dens = np.abs(v.values) ** 2
    if cutoff is None:
        weight = grid.radius_squared(center)
    else:
        weight, _ = cutoff.evaluate(grid, center)
    return float(np.sum(weight * dens)) * grid.dvol


def _virial_drift(v: ComplexField, center, cutoff: Optional[CutoffSpec], weights=None, profiles=None) -> float:
    """-2 Im int X grad(conj X) . grad(theta) dx for the gauged-back field."""
    grid = v.grid
    grads = gradient_values(grid, v.values)
    if cutoff is None:
        grad_theta = [2.0 * (xj - cj) + np.zeros(grid.shape) for xj, cj in zip(grid.mesh(), np.atleast_1d(center))]
    else:
        r = np.sqrt(grid.radius_squared(center))
        _, dth_r = cutoff.evaluate(grid, center)
        safe_r = np.where(r > 1e-12, r, 1.0)
        grad_theta = [
            dth_r * np.where(r > 1e-12, (xj - cj) / safe_r, 0.0)
            for xj, cj in zip(grid.mesh(), np.atleast_1d(center))
        ]
    dens = np.abs(v.values) ** 2
    gpsi = profiles.grad_psi(weights) if profiles is not None else None
    total = 0.0
    for j in range(grid.d):
        term = (v.values * np.conj(grads[j])).imag
        if gpsi is not None:
            term = term - gpsi[j] * dens
        total += float(np.sum(term * grad_theta[j]))
    return -2.0 * total * grid.dvol


def virial_evolution_residual(traj: Trajectory, center, cutoff: Optional[CutoffSpec] = None):
    """Residual of V(t) = V(0) - 2 Im int_0^t <grad(theta) X, grad X> ds.

    Direct virial values at snapshot times against the trapezoid of the
    recorded drift; the identity carries no stochastic term.
    """
    if len(traj.snapshots) < 3:
        raise DiagnosticsError("trajectory needs at least three snapshots")
    times = np.array([t for t, _ in traj.snapshots])
    profiles = traj.profiles
    vir = np.empty(times.size)
    drift = np.empty(times.size)
    for i, (t, snap) in enumerate(traj.snapshots):
        weights = None
        if profiles is not None:
            idx = int(np.argmin(np.abs(traj.times - t)))
            weights = traj.noise_values[idx]
        vir[i] = virial(snap, center, cutoff)
        drift[i] = _virial_drift(snap, center, cutoff, weights, profiles)
    dt = np.diff(times)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * dt * (drift[1:] + drift[:-1]))])
    return times, vir - vir[0] - integral


def localized_mass(v: ComplexField, center, radius: float) -> float:
    """Mass inside the ball |x - center| <= radius, by masked quadrature."""
    if radius <= 0:
        raise DiagnosticsError("radius must be positive")
    grid = v.grid
    mask = grid.radius_squared(center) <= radius * radius
    return float(np.sum(mask * np.abs(v.values) ** 2)) * grid.dvol


# ---------------------------------------------------------------------------
# modulation fit against the ground-state family


@dataclass(frozen=True)
class ModulationFit:
    scale: float
    center: np.ndarray
    phase: float
    resid_l2: float
    resid_h1: float
    # peak-based centers are a surrogate for concentration points; flagged
    # when a second peak carries more than half the primary amplitude
    ambiguous_center: bool = False


def _polish_peak(v: ComplexField, start: np.ndarray, iters: int = 12) -> np.ndarray:
    """Newton refinement of the |v|^2 maximum on the trig interpolant."""
    grid = v.grid
    # the DFT coefficients of v, d_j v and d_j^2 v, transformed once
    vhat = spectrum(grid, v.values)
    dv = gradient_values(grid, v.values, vhat)
    dvhat = [spectrum(grid, dvj) for dvj in dv]
    d2vhat = [spectrum(grid, gradient_values(grid, dv[j], dvhat[j])[j]) for j in range(grid.d)]
    y = start.astype(float).copy()

    def at(chat, pt):
        return complex(fourier_interp_coefficients(grid, chat, [np.array([c]) for c in pt]).reshape(-1)[0])

    for _ in range(iters):
        moved = 0.0
        for j in range(grid.d):
            vv = at(vhat, y)
            d1 = at(dvhat[j], y)
            d2 = at(d2vhat[j], y)
            g1 = 2.0 * (np.conj(vv) * d1).real
            g2 = 2.0 * (abs(d1) ** 2 + (np.conj(vv) * d2).real)
            if g2 >= 0:
                break
            step = np.clip(-g1 / g2, -grid.dx, grid.dx)
            y[j] += step
            moved = max(moved, abs(step))
        if moved < 1e-13:
            break
    return y


def modulation_fit(v: ComplexField, profile: GroundProfile) -> ModulationFit:
    """Scale, center and phase fitting v to the ground-state family.

    scale = ||grad Q|| / ||grad v||; the center refines the peak of |v| by
    quadratic interpolation plus a Newton polish on the trig interpolant;
    the phase is the argument of the overlap with Q after rescaling.
    Residuals are L2 and H1 norms of the rescaled remainder.
    """
    grid = v.grid
    gsq = grad_norm_sq(v)
    if gsq == 0.0 or not np.any(v.values):
        raise DiagnosticsError("modulation fit needs a nonzero field")
    lam = math.sqrt(profile.grad_sq / gsq)
    absv = np.abs(v.values)
    y = _polish_peak(v, peak_center(grid, absv))
    away = grid.radius_squared(y) > (5.0 * lam) ** 2
    second = float(absv[away].max()) if away.any() else 0.0
    ambiguous = second > 0.5 * float(absv.max())

    axes = [lam * grid.axis() + yj for yj in y]
    resampled = lam ** (grid.d / 2.0) * fourier_interp_axes(v, axes)
    qvals = profile.sample(grid).values.real
    overlap = complex(np.sum(qvals * resampled) * grid.dvol)
    if overlap == 0:
        raise DiagnosticsError("degenerate overlap with the ground state")
    gamma = math.atan2(overlap.imag, overlap.real)
    eps = ComplexField(grid, resampled * np.exp(-1j * gamma) - qvals)
    ns = norm_suite(eps)
    return ModulationFit(
        scale=lam,
        center=y,
        phase=gamma,
        resid_l2=ns.l2,
        resid_h1=ns.h1,
        ambiguous_center=ambiguous,
    )


# ---------------------------------------------------------------------------
# blow-up rate fitting


@dataclass(frozen=True)
class RateFit:
    t_est: float
    alpha: float
    amplitude: float
    loglog_score: float


def _lnln_correction(time_left: np.ndarray) -> np.ndarray:
    return 0.5 * np.log(np.log(np.maximum(np.abs(np.log(time_left)), 1.02)))


def _linear_fit_rms(tt: np.ndarray, z: np.ndarray):
    A = np.column_stack([np.ones_like(tt), tt])
    coef, *_ = np.linalg.lstsq(A, z, rcond=None)
    rms = float(np.sqrt(np.mean((A @ coef - z) ** 2)))
    return coef, rms


def _rate_fit_at(t: np.ndarray, logg: np.ndarray, T, correct: bool):
    """(coef, rms) of the line through log ||grad v|| against log(T - t),
    less the log-log factor when ``correct``."""
    left = T - t
    z = logg - (_lnln_correction(left) if correct else 0.0)
    return _linear_fit_rms(np.log(left), z)


def _gap_rms(t: np.ndarray, logg: np.ndarray, correct: bool):
    """u -> the rms of ``_rate_fit_at`` at T = t[-1] + e^u: what the blow-up
    time is scanned on."""
    t_end = t[-1]
    return lambda u: _rate_fit_at(t, logg, t_end + np.exp(u), correct)[1]


def _bounded_minimum(func, lo, hi, xatol: float):
    """Brent's bounded minimiser of ``func`` on [lo, hi]: golden-section
    steps, parabolic where the parabola is acceptable (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5, as in
    ``fminbound``).  Returns (x, number of evaluations).

    A step-for-step port of ``_minimize_scalar_bounded`` from scipy 1.17.1
    (``scipy/optimize/_optimize.py``; BSD-3-Clause licence, Copyright (c)
    2001-2002 Enthought, Inc., 2003 SciPy Developers), without its printing,
    status flag and result object: every comparison, the sign rule and the
    500-evaluation stop are scipy's, so x and the count are scipy's bitwise,
    and the fit needs no ``scipy.optimize`` import.
    """
    maxfun = 500
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # a parabola through the three best points
        if np.abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            # its minimum is acceptable inside the bracket
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, num


def blowup_rate_fit(times, grad_norms) -> RateFit:
    """Joint least squares of ||grad v|| ~ C (T - t)^(-alpha).

    The blow-up time is scanned by bounded scalar minimization with the
    amplitude and exponent profiled out linearly.  ``loglog_score`` is the
    relative improvement of the fit residual when the sqrt(ln |ln(T-t)|)
    factor of the log-log law is included.
    """
    t = np.asarray(times, dtype=float)
    g = np.asarray(grad_norms, dtype=float)
    if t.size < 20:
        raise DiagnosticsError("rate fit needs at least 20 samples")
    if not (np.isfinite(t).all() and np.isfinite(g).all() and (g > 0).all()):
        raise DiagnosticsError("rate fit needs finite times and positive finite gradient norms")
    if np.max(g) < 10.0 * np.min(g):
        raise DiagnosticsError("rate fit needs a decade of gradient growth")
    logg = np.log(g)
    t_end = t[-1]
    span = t_end - t[0]

    # the basin can be a sliver just past the last sample, so scan the gap
    # log-uniformly before refining between the bracketing grid points
    u_grid = np.linspace(np.log(1e-9 * max(1.0, span)), np.log(2.0 * span), 120)
    out = {}
    for correct in (False, True):
        rms_at = _gap_rms(t, logg, correct)
        k = int(np.argmin([rms_at(u) for u in u_grid]))
        lo = u_grid[max(k - 1, 0)]
        hi = u_grid[min(k + 1, u_grid.size - 1)]
        u, _ = _bounded_minimum(rms_at, lo, hi, 1e-14)
        T = t_end + float(np.exp(u))
        coef, rms = _rate_fit_at(t, logg, T, correct)
        out[correct] = (T, -float(coef[1]), float(np.exp(coef[0])), rms)

    T0, alpha0, c0, rms0 = out[False]
    _, _, _, rms1 = out[True]
    score = (rms0 - rms1) / rms0 if rms0 > 0 else 0.0
    return RateFit(
        t_est=T0,
        alpha=alpha0,
        amplitude=c0,
        loglog_score=float(score),
    )


def classify_rate(fit: RateFit) -> str:
    """'loglog' when the correction helps and the exponent is clearly below 1."""
    return "loglog" if (fit.loglog_score > 0.0 and fit.alpha < 0.75) else "pseudoconformal"


def extrapolate_blowup_time(times, grad_norms) -> float:
    """Linear extrapolation of 1/||grad v|| over the last decade of growth.

    Exact for the pseudo-conformal rate, where 1/||grad v|| is linear in t.
    """
    t = np.asarray(times, dtype=float)
    g = np.asarray(grad_norms, dtype=float)
    g_end = g[-1]
    window = g >= 0.1 * g_end
    if np.count_nonzero(window) < 2:
        raise DiagnosticsError("not enough samples in the final decade of growth")
    coef, _ = _linear_fit_rms(t[window], 1.0 / g[window])
    slope, icept = coef[1], coef[0]
    if slope >= 0:
        raise DiagnosticsError("gradient norm is not growing toward blow-up")
    return float(-icept / slope)


def fit_time_power(times, values, t_ref: float):
    """Exponent beta in values ~ C (t_ref - t)^beta, by log-log regression."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = (t_ref - t > 0) & (v > 0)
    if np.count_nonzero(mask) < 5:
        raise DiagnosticsError("not enough positive samples for a power fit")
    coef, _ = _linear_fit_rms(np.log(t_ref - t[mask]), np.log(v[mask]))
    return float(coef[1])


# ---------------------------------------------------------------------------
# residuals against profile sums


@dataclass(frozen=True)
class ProfileResiduals:
    l2: float
    h1: float
    per_bubble: tuple


def profile_residuals(
    v: ComplexField,
    reference: ComplexField,
    centers,
    z: Optional[ComplexField] = None,
) -> ProfileResiduals:
    """Norms of v - reference - z, globally and on per-bubble ball windows.

    ``centers`` are the profile centers at the evaluation time; windows use
    half the minimum pairwise separation (or 10 units for one bubble).
    """
    grid = v.grid
    diff = v.values - reference.values
    if z is not None:
        diff = diff - z.values
    r = ComplexField(grid, diff)
    ns = norm_suite(r)
    centers = [np.atleast_1d(np.asarray(c, dtype=float)) for c in centers]
    if len(centers) >= 2:
        sep = min(
            float(np.linalg.norm(a - b))
            for i, a in enumerate(centers)
            for b in centers[i + 1 :]
        )
        radius = 0.5 * sep
    else:
        radius = 10.0
    grads = gradient_values(grid, diff)
    per = []
    for c in centers:
        mask = grid.radius_squared(c) <= radius * radius
        l2_sq = float(np.sum(mask * np.abs(diff) ** 2)) * grid.dvol
        g_sq = sum(float(np.sum(mask * np.abs(g) ** 2)) for g in grads) * grid.dvol
        per.append((math.sqrt(l2_sq), math.sqrt(l2_sq + g_sq)))
    return ProfileResiduals(l2=ns.l2, h1=ns.h1, per_bubble=tuple(per))
