"""Uniform periodic grids, complex fields and spectral operators.

Everything downstream builds on this module: fields live on the periodic
box [-L/2, L/2)^d sampled at N points per axis, derivatives are computed
in Fourier space (exact for band-limited data), and all norms use the
equal-weight quadrature dx^d * sum, which matches the DFT exactly and is
spectrally accurate for smooth decaying fields.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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
        if self.extent <= 0:
            raise GridError(f"box extent must be positive, got {self.extent}")
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
        return out + np.zeros(self.shape)


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
    """Build a grid, rejecting non-power-of-two N and nonpositive L."""
    return GridSpec(d=d, extent=float(extent), points=int(points))


# ---------------------------------------------------------------------------
# spectral derivatives


def gradient_values(grid: GridSpec, values: np.ndarray) -> list:
    """Spectral gradient components as raw arrays."""
    ik = _spectral(grid).ik
    if grid.d == 1:
        # the same transform fftn would make, without its n-d wrapper
        return [np.fft.ifft(ik[0] * np.fft.fft(values))]
    vhat = np.fft.fftn(values)
    return [np.fft.ifftn(ikj * vhat) for ikj in ik]


def laplacian_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    vhat = np.fft.fftn(values)
    return np.fft.ifftn(-grid.k_squared() * vhat)


def spectral_derivatives(f: ComplexField):
    """Gradient components and Laplacian of a field, exact for band-limited data."""
    grads = [ComplexField(f.grid, g) for g in gradient_values(f.grid, f.values)]
    lap = ComplexField(f.grid, laplacian_values(f.grid, f.values))
    return grads, lap


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


def weighted_norm_sq(f: ComplexField, center=None) -> float:
    """||x f||_L2^2 with x measured from the box center (or ``center``)."""
    r2 = f.grid.radius_squared(center)
    return float(np.sum(r2 * np.abs(f.values) ** 2)) * f.grid.dvol


@dataclass(frozen=True)
class NormSuite:
    """Norm record; ``lp`` is the L^{2+4/d} norm used by the Hamiltonian."""

    l2: float
    lp: float
    lp_exponent: float
    grad_l2: float
    h1: float
    weighted: float
    sigma: float


def norm_suite(f: ComplexField, center=None) -> NormSuite:
    """L2, L^{2+4/d}, H1, Sigma, ||x f|| and gradient norms by grid quadrature."""
    d = f.grid.d
    p_exp = 2.0 + 4.0 / d
    l2sq = l2_norm_sq(f)
    gsq = grad_norm_sq(f)
    wsq = weighted_norm_sq(f, center)
    h1 = np.sqrt(l2sq + gsq)
    return NormSuite(
        l2=np.sqrt(l2sq),
        lp=lp_norm(f, p_exp),
        lp_exponent=p_exp,
        grad_l2=np.sqrt(gsq),
        h1=h1,
        weighted=np.sqrt(wsq),
        sigma=np.sqrt(l2sq + gsq + wsq),
    )


def l2_inner(f: ComplexField, g: ComplexField) -> complex:
    """L2 inner product, conjugate-linear in the first slot."""
    if f.grid != g.grid:
        raise GridError("inner product requires fields on the same grid")
    return complex(np.sum(np.conj(f.values) * g.values) * f.grid.dvol)


# ---------------------------------------------------------------------------
# trigonometric (Fourier) interpolation


def _interp_matrix(grid: GridSpec, targets: np.ndarray) -> np.ndarray:
    """Rows evaluate the trigonometric interpolant at arbitrary points.

    The Nyquist mode is evaluated as a cosine so real fields interpolate
    to real values.
    """
    n = grid.points
    k = grid.wavenumbers()
    shift = targets[:, None] + 0.5 * grid.extent
    mat = np.exp(1j * shift * k[None, :])
    mat[:, n // 2] = np.cos(shift[:, 0] * k[n // 2])
    return mat / n


def fourier_interp_1d(grid: GridSpec, values: np.ndarray, targets) -> np.ndarray:
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    vhat = np.fft.fft(values)
    out = np.empty(targets.shape, dtype=np.complex128)
    # chunked to bound the evaluation-matrix size on large grids
    step = max(1, 2**22 // grid.points)
    for i in range(0, targets.size, step):
        block = targets[i : i + step]
        out[i : i + block.size] = _interp_matrix(grid, block) @ vhat
    return out


def fourier_interp_axes(field: ComplexField, axes_targets) -> np.ndarray:
    """Evaluate the trig interpolant on a tensor grid of target coordinates.

    ``axes_targets`` is a list with one 1-d array of coordinates per axis;
    the result has shape (len(t0),) in 1-d or (len(t0), len(t1)) in 2-d.
    Targets outside the box wrap periodically.
    """
    grid = field.grid
    if grid.d == 1:
        return fourier_interp_1d(grid, field.values, axes_targets[0])
    tx = np.atleast_1d(np.asarray(axes_targets[0], dtype=float))
    ty = np.atleast_1d(np.asarray(axes_targets[1], dtype=float))
    fhat = np.fft.fft2(field.values)
    ex = _interp_matrix(grid, tx)
    ey = _interp_matrix(grid, ty)
    return (ex @ fhat) @ ey.T


# ---------------------------------------------------------------------------
# snapshot files


def write_snapshot(path, field: ComplexField, t: float) -> None:
    """Write ``d,N,L,t`` header then one ``re,im`` line per point (row-major)."""
    flat = field.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write(f"{field.grid.d},{field.grid.points},{field.grid.extent:.17g},{t:.17g}\n")
        for z in flat:
            fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


def read_snapshot(path):
    """Read a snapshot file; returns (ComplexField, t)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 4:
            raise GridError(f"malformed snapshot header in {path}")
        d, n, extent, t = int(header[0]), int(header[1]), float(header[2]), float(header[3])
        data = np.loadtxt(fh, delimiter=",")
    grid = make_grid(d, extent, n)
    values = (data[:, 0] + 1j * data[:, 1]).reshape(grid.shape)
    return ComplexField(grid, values), t
