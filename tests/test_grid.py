import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlslab

from nlslab.grid import (
    ComplexField,
    GridError,
    GridSpec,
    _spectral,
    fourier_interp_axes,
    gradient_moments,
    gradient_values,
    laplacian_values,
    l2_norm_sq,
    make_grid,
    norm_suite,
    read_snapshot,
    write_snapshot,
)
from nlslab.ground_state import closed_form_radial


def test_wavenumber_convention():
    g = make_grid(1, 2 * np.pi, 8)
    assert np.array_equal(g.wavenumbers(), [0, 1, 2, 3, -4, -3, -2, -1])


def test_grid_spacing_2d():
    g = make_grid(2, 40, 256)
    assert g.dx == pytest.approx(0.15625)
    assert g.dvol == pytest.approx(0.15625**2)


@pytest.mark.parametrize("d,L,N", [
    (1, 2 * np.pi, 7), (1, -1.0, 8), (1, 2.0, 4), (3, 2.0, 16), (1, np.nan, 1024), (1, np.inf, 1024),
])
def test_grid_rejects_bad_parameters(d, L, N):
    with pytest.raises(GridError):
        make_grid(d, L, N)


def test_derivatives_on_plane_wave():
    g = make_grid(1, 2 * np.pi, 64)
    x = g.axis()
    f = np.exp(1j * x)
    assert np.abs(gradient_values(g, f)[0] - 1j * np.exp(1j * x)).max() < 1e-12
    assert np.abs(laplacian_values(g, f) + np.exp(1j * x)).max() < 1e-12


def test_derivatives_constant():
    g = make_grid(1, 10.0, 32)
    f = np.full(32, 2.5 + 0j)
    assert np.abs(gradient_values(g, f)[0]).max() < 1e-13
    assert np.abs(laplacian_values(g, f)).max() < 1e-13


def test_laplacian_gaussian_analytic():
    g = make_grid(1, 40, 1024)
    x = g.axis()
    lap = laplacian_values(g, np.exp(-(x**2)))
    exact = (4 * x**2 - 2) * np.exp(-(x**2))
    assert np.abs(lap - exact).max() < 1e-10


def test_derivative_linearity():
    g = make_grid(1, 20.0, 128)
    x = g.axis()
    f = np.exp(-(x**2)) * np.exp(0.4j * x)
    h = (np.exp(-((x - 1) ** 2) / 2)).astype(complex)
    a, b = 1.3 - 0.2j, 0.7j
    gf, gh, gc = (gradient_values(g, u)[0] for u in (f, h, a * f + b * h))
    lf, lh, lc = (laplacian_values(g, u) for u in (f, h, a * f + b * h))
    assert np.abs(gc - a * gf - b * gh).max() < 1e-12
    assert np.abs(lc - a * lf - b * lh).max() < 1e-11


def test_norms_zero_field():
    g = make_grid(1, 10.0, 32)
    ns = norm_suite(ComplexField(g, np.zeros(32)))
    assert ns.l2 == ns.lp == ns.grad_l2 == ns.h1 == 0.0


def test_norm_quintic_ground_state_mass():
    g = make_grid(1, 40, 1024)
    q = closed_form_radial(5.0)
    f = ComplexField(g, q(np.abs(g.axis())))
    assert l2_norm_sq(f) == pytest.approx(np.sqrt(3) * np.pi / 2, rel=1e-12)


def test_norm_gaussian_mass():
    g = make_grid(1, 40, 1024)
    f = ComplexField(g, np.exp(-g.axis() ** 2 / 2))
    assert l2_norm_sq(f) == pytest.approx(np.sqrt(np.pi), rel=1e-13)


def test_norm_ordering():
    g = make_grid(2, 20.0, 64)
    X, Y = g.mesh()
    f = ComplexField(g, np.exp(-(X**2 + Y**2) / 3) * np.exp(0.3j * X))
    ns = norm_suite(f)
    assert ns.h1 >= ns.l2


def test_parseval():
    g = make_grid(1, 17.0, 256)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    phys = np.sum(np.abs(vals) ** 2) * g.dx
    spec = np.sum(np.abs(np.fft.fft(vals)) ** 2) * g.dx / g.points
    assert abs(phys - spec) / phys < 1e-12


def test_inner_product_parity():
    g = make_grid(1, 40, 512)
    q = closed_form_radial(5.0)
    x = g.axis()
    qf = ComplexField(g, q(np.abs(x)))
    xq = ComplexField(g, x * q(np.abs(x)))
    assert abs(np.vdot(qf.values, xq.values) * g.dx) < 1e-12


def test_field_rejects_nonfinite():
    g = make_grid(1, 10, 32)
    vals = np.ones(32, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(GridError):
        ComplexField(g, vals)


def test_fourier_interpolation_shifted_gaussian():
    g = make_grid(1, 40, 512)
    x = g.axis()
    f = ComplexField(g, np.exp(-(x**2) / 2) * np.exp(0.3j * x))
    pts = x[100:110] + 0.37 * g.dx
    out = fourier_interp_axes(f, [pts])
    exact = np.exp(-(pts**2) / 2) * np.exp(0.3j * pts)
    assert np.abs(out - exact).max() < 1e-12


def _direct_interp(g, chat, targets):
    """(1/N) sum_k chat_k e^{i k (t + L/2)} term by term along axis 0, the
    Nyquist mode as a cosine."""
    k = g.wavenumbers()
    out = 0.0
    for j in range(g.points):
        wave = np.exp(1j * k[j] * (targets + 0.5 * g.extent))
        if j == g.points // 2:
            wave = wave.real
        out = out + np.multiply.outer(wave, chat[j])
    return out / g.points


@pytest.mark.parametrize("d,n", [(1, 64), (1, 4096), (2, 32)])
@pytest.mark.parametrize("scale,shift", [(1.0, 0.0), (0.37, 1.234), (1.7, -0.5)])
def test_chirp_z_matches_direct_sum(d, n, scale, shift):
    g = make_grid(d, 20.0, n)
    x = g.axis()
    r2 = sum((xj - 0.4 * j) ** 2 for j, xj in enumerate(g.mesh()))
    f = ComplexField(g, np.exp(-r2) * np.exp(0.8j * g.mesh()[0]))
    targets = scale * x + shift
    out = fourier_interp_axes(f, [targets] * d)
    assert out.shape == (n,) * d
    # the direct sum at every 16th target of each axis
    pick = slice(None, None, max(1, n // 256))
    want = _direct_interp(g, np.fft.fftn(f.values), targets[pick])
    if d == 2:
        want = _direct_interp(g, np.moveaxis(want, 0, 1), targets[pick]).T
    got = out[(pick,) * d]
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


def test_chirp_z_keeps_a_real_field_real():
    g = make_grid(1, 20.0, 64)
    v = np.random.default_rng(5).standard_normal(64)  # strong Nyquist content
    targets = 0.7 * g.axis() + 0.3
    out = fourier_interp_axes(ComplexField(g, v), [targets])
    want = _direct_interp(g, np.fft.fft(v), targets)
    assert np.abs(want.imag).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(out.imag).max() <= 1e-13 * np.abs(out).max()
    assert np.abs(out - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("d,n", [(1, 64), (1, 4096), (2, 32)])
def test_parseval_gradient_moments_match_gradient_sums(d, n):
    g = make_grid(d, 40, n)
    rng = np.random.default_rng(n)
    r2 = sum((xj - 1.0) ** 2 for xj in g.mesh())
    boost = sum(c * xj for c, xj in zip((1.3, -0.4), g.mesh()))
    v = np.exp(-r2 + 1j * boost) + 1e-3 * (
        rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    )
    grad_sq, momentum = gradient_moments(g, v)
    grads = gradient_values(g, v)
    want_sq = sum(float(np.sum(np.abs(gj) ** 2)) for gj in grads) * g.dvol
    want_mom = [float(np.sum((np.conj(v) * gj).imag)) * g.dvol for gj in grads]
    assert abs(grad_sq - want_sq) <= 1e-14 * want_sq
    for got, want in zip(momentum, want_mom):
        assert abs(got - want) <= 1e-14 * abs(want)


def test_import_does_not_load_scipy_signal():
    # scipy.signal takes about 1.6 s to import, more than the whole package
    pkg_root = str(Path(nlslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    code = "import sys, nlslab.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_snapshot_roundtrip(tmp_path):
    g = make_grid(2, 12.0, 16)
    rng = np.random.default_rng(3)
    f = ComplexField(g, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    path = tmp_path / "snap.txt"
    write_snapshot(path, f, 0.625)
    f2, t = read_snapshot(path)
    assert t == 0.625
    assert np.array_equal(f.values, f2.values)
    assert f2.grid == g


def test_snapshot_cut_within_its_last_line_is_refused(tmp_path):
    # every line ends with a newline, so a cut inside the last number, which
    # would still parse to a shorter number, is refused
    g = make_grid(1, 10.0, 8)
    path = tmp_path / "snap.txt"
    write_snapshot(path, ComplexField(g, np.full(8, (1.0 + 1j) / 3.0)), 0.5)
    text = path.read_text()
    assert read_snapshot(path)[0].values[-1] == (1.0 + 1j) / 3.0
    for cut in (1, 3):
        path.write_text(text[:-cut])
        with pytest.raises(GridError, match="cut short"):
            read_snapshot(path)


@pytest.mark.parametrize("d,n", [(1, 8), (1, 1024), (1, 4096), (2, 16)])
def test_gradient_bitwise_equals_nd_transform(d, n):
    # numpy.fft is the reference; 1-d runs on scipy.fft, bitwise equal for
    # complex input, contiguous or strided
    g = make_grid(d, 40, n)
    rng = np.random.default_rng(n)
    w = rng.standard_normal((2 * n,) * d) + 1j * rng.standard_normal((2 * n,) * d)
    for v in (w[(slice(0, n),) * d], w[(slice(None, None, 2),) * d]):
        vhat = np.fft.fftn(v)
        for got, kj in zip(gradient_values(g, v), g.k_mesh()):
            want = np.fft.ifftn(1j * kj * vhat)
            assert np.array_equal(got.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("d", [1, 2])
def test_cached_grid_arrays_are_read_only_and_shared(d):
    g = make_grid(d, 40, 16)
    arrays = [g.axis(), g.wavenumbers(), g.k_squared(), *g.k_mesh(), *_spectral(g).ik]
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    # an equal grid built another way shares the arrays
    assert GridSpec(d=d, extent=40.0, points=16).k_squared() is g.k_squared()
    assert np.array_equal(g.wavenumbers(), 2.0 * np.pi * np.fft.fftfreq(16, d=g.dx))
