"""Uniform periodic grids, complex fields and spectral operators.

Everything downstream builds on this module: fields live on the periodic
box [-L/2, L/2)^d sampled at N points per axis, derivatives are computed
in Fourier space (exact for band-limited data), and all norms use the
equal-weight quadrature dx^d * sum, which matches the DFT exactly and is
spectrally accurate for smooth decaying fields.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# the most points in one field (N^d), which bounds a run's memory
MAX_GRID_POINTS = 1 << 20


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2)^d with N points per axis, a power
    of two >= 8 with N^d at most MAX_GRID_POINTS.

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
        if self.points**self.d > MAX_GRID_POINTS:
            raise GridError(f"{self.points}^{self.d} points per field are over the {MAX_GRID_POINTS} limit")

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
    axes: tuple  # the transform axes, last first, as numpy's fftn takes them


@functools.lru_cache(maxsize=16)
def _spectral(grid: GridSpec) -> _Spectral:
    """Arrays that depend only on the grid value, built once and read-only.

    Keyed by value, so equal grids rebuilt elsewhere (a snapshot read back,
    a config parsed again) share them; nothing is stored on the instance,
    which keeps grids cheap to pickle into worker processes.
    """
    n = grid.points
    axis = -0.5 * grid.extent + grid.dx * np.arange(n)
    # numpy's fftfreq: signed integer modes times 1/(N dx)
    modes = np.arange(n)
    modes[n // 2 :] -= n
    k = 2.0 * np.pi * (modes * (1.0 / (n * grid.dx)))
    k_mesh = (k,) if grid.d == 1 else (k[:, None], k[None, :])
    k_squared = k_mesh[0] ** 2
    for kj in k_mesh[1:]:
        k_squared = k_squared + kj**2
    ik = tuple(1j * kj for kj in k_mesh)
    for a in (axis, k, *k_mesh, k_squared, *ik):
        a.flags.writeable = False
    return _Spectral(axis, k, k_mesh, k_squared, ik, tuple(range(grid.d - 1, -1, -1)))


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


def make_grid(d: int, extent: float, points: int) -> GridSpec:
    """Build a grid, rejecting non-power-of-two N and an L that is not
    positive and finite."""
    return GridSpec(d=d, extent=float(extent), points=int(points))


def _rotation(theta: np.ndarray) -> np.ndarray:
    """cos(theta) + i sin(theta), written straight into one complex array:
    the phase factor of the nonlinear step and of the noise gauge."""
    rot = np.empty(theta.shape, np.complex128)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    return rot


# ---------------------------------------------------------------------------
# transforms


def _load_pocketfft():
    """scipy's compiled pocketfft (M. Reinecke's FFT), loaded from its file.

    ``import scipy.fft`` costs about 0.2 s and 27 MB, nearly all of it in
    modules no transform uses (the array-API layer loads numpy.f2py and
    numpy.testing; fftlog loads scipy.special).  scipy 1.4 through 1.17.1
    keep the extension at ``scipy/fft/_pocketfft/pypocketfft<suffix>``, with
    ``c2c(a, axes, forward, inorm, out, nthreads)`` and
    ``good_size(target, real)``; scipy.fft's functions are thin wrappers
    around these two.  The module is registered under its own name before
    it runs, so a later ``import scipy.fft`` reuses this module object, and
    one that ran first is reused here.  Where the file is not found the
    normal import loads the same module.
    """
    name = "scipy.fft._pocketfft.pypocketfft"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")  # does not import scipy
    for root in getattr(scipy_spec, "submodule_search_locations", None) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "fft", "_pocketfft", "pypocketfft" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                spec.loader.exec_module(module)
                return module
    from scipy.fft._pocketfft import pypocketfft

    return pypocketfft


_pocketfft = _load_pocketfft()


def _c2c(a: np.ndarray, forward: bool, axes=(-1,), inorm: int = 0, out=None) -> np.ndarray:
    """pocketfft's complex transform of ``a`` along ``axes``, taken in the
    order given: bitwise scipy.fft's fft/ifft (one axis) and fftn/ifftn
    (axes first to last), and numpy's (axes last to first).

    ``inorm`` 0 is unscaled (scipy's forward default and its inverse with
    ``norm="forward"``), 2 divides by n (its inverse default).  ``out`` may
    be ``a`` itself, which gives the same bits.  One thread, as scipy.fft's
    default ``workers``.
    """
    return _pocketfft.c2c(a, axes, forward, inorm, out, 1)


# ---------------------------------------------------------------------------
# spectral derivatives


def spectrum(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """v's DFT, bitwise numpy's fftn: pocketfft's complex transform over the
    axes last first, as numpy takes them.  Real input is cast to complex
    first, as numpy does (pocketfft's own real-input transform differs)."""
    return _c2c(np.asarray(values, np.complex128), True, _spectral(grid).axes)


def inverse_spectrum(grid: GridSpec, vhat: np.ndarray) -> np.ndarray:
    """numpy's ifftn of the complex ``vhat``, bitwise, computed in place:
    ``vhat`` is overwritten, so callers pass a temporary."""
    return _c2c(vhat, False, _spectral(grid).axes, inorm=2, out=vhat)


def gradient_values(grid: GridSpec, values: np.ndarray, vhat: Optional[np.ndarray] = None) -> list:
    """Spectral gradient components as raw arrays; ``vhat``, v's
    ``spectrum`` when the caller has it, saves the forward transform."""
    vhat = spectrum(grid, values) if vhat is None else vhat
    return [inverse_spectrum(grid, ikj * vhat) for ikj in _spectral(grid).ik]


def gradient_moments(grid: GridSpec, vhat: np.ndarray, momenta: bool = True) -> tuple:
    """||grad v||^2 and the momenta Im int conj(v) d_j v dx (None without
    ``momenta``), by Parseval from v's ``spectrum`` ``vhat``.

    The spectral weights are the gradient's own multipliers i k_j (Nyquist
    included), so the sums equal those over ``gradient_values`` to
    rounding.
    """
    sp = _spectral(grid)
    power = vhat.real**2 + vhat.imag**2
    scale = grid.dvol / power.size
    grad_sq = float(np.sum(sp.k_squared * power)) * scale
    if not momenta:
        return grad_sq, None
    momentum = np.array([float(np.sum(kj * power)) for kj in sp.k_mesh]) * scale
    return grad_sq, momentum


def laplacian_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    return inverse_spectrum(grid, -grid.k_squared() * spectrum(grid, values))


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
    size = _pocketfft.good_size(count + n, False)
    lag = np.arange(-n, count)  # m - (q + N/2), stored modulo size
    chirp = np.zeros(size, dtype=np.complex128)
    chirp[lag % size] = np.exp(-1j * np.pi * _half_turns(r, (lag + float(half)) ** 2))
    pre = np.exp(1j * np.pi * (_half_turns(2.0 * s, q) + _half_turns(r, q * q)))
    pre[0] *= 0.5
    pre[-1] *= 0.5
    coef *= pre
    spec = np.zeros(coef.shape[:-1] + (size,), dtype=np.complex128)
    spec[..., : coef.shape[-1]] = coef
    _c2c(spec, True, out=spec)
    spec *= _c2c(chirp, True, out=chirp)
    conv = _c2c(spec, False, inorm=2, out=spec)[..., :count]
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
    return fourier_interp_coefficients(field.grid, spectrum(field.grid, field.values), axes_targets)


def fourier_interp_coefficients(grid: GridSpec, chat: np.ndarray, axes_targets) -> np.ndarray:
    """``fourier_interp_axes`` of the field whose DFT coefficients are ``chat``."""
    for axis, targets in enumerate(axes_targets[: grid.d]):
        chat = _interp_axis(grid, chat, targets, axis)
    return chat


# ---------------------------------------------------------------------------
# snapshot files


def write_snapshot(path, field: ComplexField, t: float) -> None:
    """Write ``d,N,L,t`` header then one ``re,im`` line per point (row-major)."""
    pairs = np.ascontiguousarray(field.values).view(float).reshape(-1, 2).tolist()
    header = f"{field.grid.d},{field.grid.points},{field.grid.extent:.17g},{t:.17g}\n"
    with open(path, "w") as fh:
        fh.write(header + "".join(["%.17g,%.17g\n" % (re, im) for re, im in pairs]))


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
    does not parse, a time or value not finite (a run writes none), or a
    grid the grid model refuses, is a GridError."""
    try:
        with open(path) as fh:
            d, n, extent, t = fh.readline().strip().split(",")
            grid = make_grid(int(d), float(extent), int(n))
            data = read_rows(fh)
        if not math.isfinite(float(t)):
            raise ValueError(f"time {t} is not finite")
        # the (re, im) pairs as complex128, bit for bit (signed zeros included)
        values = data.view(np.complex128).reshape(grid.shape)
        return ComplexField(grid, values), float(t)
    except ValueError as exc:  # GridError included
        raise GridError(f"malformed snapshot {path}: {exc}") from exc
