"""Uniform periodic grids, complex fields and spectral operators.

Everything downstream builds on this module: fields live on the periodic
box [-L/2, L/2)^d sampled at N points per axis, derivatives are computed
in Fourier space (exact for band-limited data), and all norms use the
equal-weight quadrature dx^d * sum, which matches the DFT exactly and is
spectrally accurate for smooth decaying fields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.fft as sfft


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2)^d with N points per axis.

    Wavenumbers follow the standard DFT ordering 2*pi*k/L with
    k = 0, 1, ..., N/2-1, -N/2, ..., -1.
    """

    d: int
    extent: float
    points: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise GridError(f"dimension must be 1 or 2, got {self.d}")
        if not 0.0 < self.extent < math.inf:
            raise GridError(f"box extent must be positive and finite, got {self.extent}")
        if self.points < 8 or not _is_power_of_two(self.points):
            raise GridError(
                f"points per axis must be a power of two >= 8, got {self.points}"
            )

    @property
    def dx(self) -> float:
        return self.extent / self.points

    @property
    def dvol(self) -> float:
        return self.dx**self.d

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.d

    def axis(self) -> np.ndarray:
        """Coordinates -L/2 + j*dx along one axis."""
        return _spectral(self).axis

    def wavenumbers(self) -> np.ndarray:
        """Signed wavenumbers 2*pi*k/L in DFT order along one axis."""
        return _spectral(self).k

    def mesh(self) -> list:
        """Coordinate arrays, broadcastable to the field shape."""
        x = self.axis()
        if self.d == 1:
            return [x]
        return [x[:, None], x[None, :]]

    def k_mesh(self) -> list:
        return list(_spectral(self).k_mesh)

    def k_squared(self) -> np.ndarray:
        return _spectral(self).k_squared

    def radius_squared(self, center=None) -> np.ndarray:
        """|x - center|^2 on the grid; center defaults to the box center."""
        if center is None:
            center = (0.0,) * self.d
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.size != self.d:
            raise GridError(f"center must have {self.d} components")
        out = None
        for xj, cj in zip(self.mesh(), center):
            term = (xj - cj) ** 2
            out = term if out is None else out + term
        return out


class _Spectral(NamedTuple):
    axis: np.ndarray
    k: np.ndarray
    k_mesh: tuple
    k_squared: np.ndarray
    ik: tuple  # 1j * k per axis, the gradient's Fourier multipliers


@functools.lru_cache(maxsize=16)
def _spectral(grid: GridSpec) -> _Spectral:
    """Arrays that depend only on the grid value, built once and read-only.

    Keyed by value, so equal grids rebuilt elsewhere (a snapshot read back,
    a config parsed again) share them; nothing is stored on the instance,
    which keeps grids cheap to pickle into worker processes.
    """
    axis = -0.5 * grid.extent + grid.dx * np.arange(grid.points)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.dx)
    k_mesh = (k,) if grid.d == 1 else (k[:, None], k[None, :])
    k_squared = k_mesh[0] ** 2
    for kj in k_mesh[1:]:
        k_squared = k_squared + kj**2
    ik = tuple(1j * kj for kj in k_mesh)
    for a in (axis, k, *k_mesh, k_squared, *ik):
        a.flags.writeable = False
    return _Spectral(axis, k, k_mesh, k_squared, ik)


@dataclass
class ComplexField:
    """Complex values sampled on a GridSpec.

    Fields are treated as immutable values: operations return new fields
    and never mutate ``values`` in place.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise GridError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GridError("field contains non-finite values")

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy())


def make_grid(d: int, extent: float, points: int) -> GridSpec:
    """Build a grid, rejecting non-power-of-two N and an L that is not
    positive and finite."""
    return GridSpec(d=d, extent=float(extent), points=int(points))


# ---------------------------------------------------------------------------
# spectral derivatives


def gradient_values(grid: GridSpec, values: np.ndarray) -> list:
    """Spectral gradient components as raw arrays."""
    ik = _spectral(grid).ik
    if grid.d == 1:
        # the transform numpy's fftn makes, bitwise, with less wrapper cost;
        # for complex input only (scipy's real-input transform differs)
        return [sfft.ifft(ik[0] * sfft.fft(values))]
    vhat = np.fft.fftn(values)
    return [np.fft.ifftn(ikj * vhat) for ikj in ik]


def gradient_moments(grid: GridSpec, values: np.ndarray) -> tuple:
    """||grad v||^2 and the momenta Im int conj(v) d_j v dx, by Parseval.

    One forward transform; the spectral weights are the gradient's own
    multipliers i k_j (Nyquist included), so the sums equal those over
    ``gradient_values`` to rounding.
    """
    sp = _spectral(grid)
    vhat = np.fft.fft(values) if grid.d == 1 else np.fft.fftn(values)
    power = vhat.real**2 + vhat.imag**2
    scale = grid.dvol / power.size
    grad_sq = float(np.sum(sp.k_squared * power)) * scale
    momentum = np.array([float(np.sum(kj * power)) for kj in sp.k_mesh]) * scale
    return grad_sq, momentum


def laplacian_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    vhat = np.fft.fftn(values)
    return np.fft.ifftn(-grid.k_squared() * vhat)


# ---------------------------------------------------------------------------
# quadrature and norms


def l2_norm_sq(f: ComplexField) -> float:
    return float(np.sum(np.abs(f.values) ** 2)) * f.grid.dvol


def lp_norm(f: ComplexField, p: float) -> float:
    return (float(np.sum(np.abs(f.values) ** p)) * f.grid.dvol) ** (1.0 / p)


def grad_norm_sq(f: ComplexField) -> float:
    out = 0.0
    for g in gradient_values(f.grid, f.values):
        out += float(np.sum(np.abs(g) ** 2))
    return out * f.grid.dvol


@dataclass(frozen=True)
class NormSuite:
    """Norm record; ``lp`` is the L^{2+4/d} norm used by the Hamiltonian."""

    l2: float
    lp: float
    grad_l2: float
    h1: float


def norm_suite(f: ComplexField) -> NormSuite:
    """L2, L^{2+4/d}, H1 and gradient norms by grid quadrature."""
    d = f.grid.d
    p_exp = 2.0 + 4.0 / d
    l2sq = l2_norm_sq(f)
    gsq = grad_norm_sq(f)
    return NormSuite(
        l2=np.sqrt(l2sq),
        lp=lp_norm(f, p_exp),
        grad_l2=np.sqrt(gsq),
        h1=np.sqrt(l2sq + gsq),
    )


# ---------------------------------------------------------------------------
# trigonometric (Fourier) interpolation
#
# The interpolant of values with DFT coefficients c is
#   f(t) = (1/N) sum_k c_k e^{i k (t + L/2)},
# with the Nyquist mode taken as a cosine so real fields interpolate to real
# values.  On an affine uniform target grid t_m = start + m*step it is one
# chirp-z transform (Bluestein's convolution), O(N log N) per axis; arbitrary
# targets take the direct sum.


def _interp_matrix(grid: GridSpec, targets: np.ndarray) -> np.ndarray:
    """Rows evaluate the trigonometric interpolant at arbitrary points."""
    n = grid.points
    k = grid.wavenumbers()
    shift = targets[:, None] + 0.5 * grid.extent
    mat = np.exp(1j * shift * k[None, :])
    mat[:, n // 2] = np.cos(shift[:, 0] * k[n // 2])
    return mat / n


def _affine_targets(targets: np.ndarray):
    """(start, step) when ``targets`` is start + step*m, m = 0..M-1 with
    M >= 2, to rounding; otherwise None."""
    if targets.ndim != 1 or targets.size < 2:
        return None
    start = float(targets[0])
    step = float(targets[-1] - targets[0]) / (targets.size - 1)
    fit = start + step * np.arange(targets.size)
    if np.abs(targets - fit).max() > 1e-14 * np.abs(targets).max():
        return None
    return start, step


def _half_turns(c: float, j: np.ndarray) -> np.ndarray:
    """c*j modulo 2 for integer-valued j with |j| < 2^32.

    c is split into a 21-bit head, whose product with j is exact and is
    reduced exactly, and a tail; so exp(i*pi*result) keeps full accuracy
    where c*j is thousands of half turns.
    """
    mant, exp2 = math.frexp(c)
    head = math.ldexp(round(mant * 2**20), exp2 - 20)
    return np.mod(head * j, 2.0) + (c - head) * j


def _chirp_z(grid: GridSpec, chat: np.ndarray, start: float, step: float, count: int) -> np.ndarray:
    """The interpolant along the last axis of the DFT coefficients ``chat``
    at t_m = start + m*step, m < count (leading axes are batched).

    With signed modes q in [-N/2, N/2] (the Nyquist coefficient halved at
    both ends: its cosine), s = (start + L/2)/L and r = step/L,
    f(t_m) = (1/N) sum_q c_q e^{i pi (2 s q + 2 r q m)}.  Bluestein's
    2 q m = q^2 + m^2 - (m - q)^2 turns the sum into a convolution with the
    chirp e^{-i pi r j^2}, j = m - q, made circular on count + N points.
    """
    n = grid.points
    half = n // 2
    coef = np.concatenate((chat[..., half:], chat[..., :half], chat[..., half : half + 1]), axis=-1)
    s = (start + 0.5 * grid.extent) / grid.extent
    r = step / grid.extent
    q = np.arange(-half, half + 1, dtype=float)
    m = np.arange(count, dtype=float)
    size = sfft.next_fast_len(count + n)
    lag = np.arange(-n, count)  # m - (q + N/2), stored modulo size
    chirp = np.zeros(size, dtype=np.complex128)
    chirp[lag % size] = np.exp(-1j * np.pi * _half_turns(r, (lag + float(half)) ** 2))
    pre = np.exp(1j * np.pi * (_half_turns(2.0 * s, q) + _half_turns(r, q * q)))
    pre[0] *= 0.5
    pre[-1] *= 0.5
    coef *= pre
    spec = sfft.fft(coef, size, axis=-1)
    spec *= sfft.fft(chirp)
    conv = sfft.ifft(spec, axis=-1, overwrite_x=True)[..., :count]
    return conv * (np.exp(1j * np.pi * _half_turns(r, m * m)) / n)


def _interp_axis(grid: GridSpec, chat: np.ndarray, targets, axis: int) -> np.ndarray:
    """Replace ``axis`` of the DFT coefficients by interpolant values.

    The axis is moved last and made contiguous: in 2-d, transforms along
    the contiguous axis run faster than strided ones.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    chat = np.ascontiguousarray(np.moveaxis(chat, axis, -1))
    affine = _affine_targets(targets)
    if affine is None:
        out = chat @ _interp_matrix(grid, targets).T
    else:
        out = _chirp_z(grid, chat, *affine, targets.size)
    return np.moveaxis(out, -1, axis)


def fourier_interp_axes(field: ComplexField, axes_targets) -> np.ndarray:
    """Evaluate the trig interpolant on a tensor grid of target coordinates.

    ``axes_targets`` is a list with one 1-d array of coordinates per axis;
    the result has shape (len(t0),) in 1-d or (len(t0), len(t1)) in 2-d.
    Targets outside the box wrap periodically.
    """
    return fourier_interp_coefficients(field.grid, np.fft.fftn(field.values), axes_targets)


def fourier_interp_coefficients(grid: GridSpec, chat: np.ndarray, axes_targets) -> np.ndarray:
    """``fourier_interp_axes`` of the field whose DFT coefficients are ``chat``."""
    for axis, targets in enumerate(axes_targets[: grid.d]):
        chat = _interp_axis(grid, chat, targets, axis)
    return chat


# ---------------------------------------------------------------------------
# snapshot files


def write_snapshot(path, field: ComplexField, t: float) -> None:
    """Write ``d,N,L,t`` header then one ``re,im`` line per point (row-major)."""
    flat = field.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write(f"{field.grid.d},{field.grid.points},{field.grid.extent:.17g},{t:.17g}\n")
        for z in flat:
            fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


def read_rows(fh, ndmin: int = 0) -> np.ndarray:
    """The comma-separated numbers on the rest of ``fh``; a ValueError when
    there are none (numpy's loadtxt would only warn) or when the last line
    has no newline.  Every writer ends each line with one, so a file cut
    within a line is refused, not read with its last number shortened."""
    start = fh.tell()
    if not fh.readline().strip():
        raise ValueError("no rows")
    fh.seek(start)
    last = ""

    def lines():  # the rows streamed, never held whole; ``last`` keeps the last
        nonlocal last
        for last in fh:
            yield last

    data = np.loadtxt(lines(), delimiter=",", ndmin=ndmin)
    if not last.endswith("\n"):
        raise ValueError("the last line is cut short")
    return data


def read_snapshot(path):
    """Read a snapshot file; returns (ComplexField, t).  A header or body that
    does not parse, or a grid the grid model refuses, is a GridError."""
    try:
        with open(path) as fh:
            d, n, extent, t = fh.readline().strip().split(",")
            grid = make_grid(int(d), float(extent), int(n))
            data = read_rows(fh)
        # the (re, im) pairs as complex128, bit for bit (signed zeros included)
        values = data.view(np.complex128).reshape(grid.shape)
        return ComplexField(grid, values), float(t)
    except ValueError as exc:  # GridError included
        raise GridError(f"malformed snapshot {path}: {exc}") from exc
