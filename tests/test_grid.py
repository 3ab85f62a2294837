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
    _c2c,
    _pocketfft,
    _spectral,
    fourier_interp_axes,
    gradient_moments,
    gradient_values,
    inverse_spectrum,
    laplacian_values,
    l2_norm_sq,
    make_grid,
    norm_suite,
    read_snapshot,
    spectrum,
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
    vhat = spectrum(g, v)
    grad_sq, momentum = gradient_moments(g, vhat)
    grads = gradient_values(g, v)
    want_sq = sum(float(np.sum(np.abs(gj) ** 2)) for gj in grads) * g.dvol
    want_mom = [float(np.sum((np.conj(v) * gj).imag)) * g.dvol for gj in grads]
    assert abs(grad_sq - want_sq) <= 1e-14 * want_sq
    for got, want in zip(momentum, want_mom):
        assert abs(got - want) <= 1e-14 * abs(want)
    # the recorder's shared transform: the same gradient, bitwise, and the
    # same ||grad v||^2 without the momenta
    assert all(np.array_equal(a, b) for a, b in zip(gradient_values(g, v, vhat), grads))
    assert gradient_moments(g, vhat, momenta=False) == (grad_sq, None)


IMPORT_PROBE = """
import sys
import numpy as np
import nlslab.cli
from nlslab.diagnostics import blowup_rate_fit, modulation_fit
from nlslab.evolution import step_strang
from nlslab.ground_state import ground_profile
from nlslab.grid import ComplexField, make_grid
mods = ("scipy.signal", "scipy.optimize", "scipy.integrate", "scipy.interpolate",
        "scipy.fft", "scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.fft")
print([m for m in mods if m in sys.modules])
t = np.linspace(0.0, 0.9, 40)
blowup_rate_fit(t, (1.0 - t) ** -1.0)  # a decade of growth
profile = ground_profile(1)
f = profile.sample(make_grid(1, 20.0, 256))
for _ in range(3):
    f = step_strang(f, 1e-3, 5.0)  # the long-double pair, where the platform has one
modulation_fit(f, profile)  # the 1-d gradient and the chirp-z interpolation
g2 = make_grid(2, 10.0, 16)
step_strang(ComplexField(g2, np.exp(-g2.radius_squared())), 1e-3, 3.0)
print([m for m in mods if m in sys.modules])
print("scipy.fft._pocketfft.pypocketfft" in sys.modules)
"""


def _run_probe(code: str, *args) -> list:
    """Standard output lines of ``code`` run in a fresh interpreter that
    imports the package under test."""
    pkg_root = str(Path(nlslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


def test_import_does_not_load_scipy_signal():
    # scipy.signal takes about 1.6 s to import, more than the whole package;
    # the solver modules are loaded by the one function that calls each, and
    # the rate fit calls none.  The transforms run on scipy's pocketfft
    # extension, loaded from its file: scipy.fft's package (0.2 s, 27 MB,
    # with scipy.special and numpy.f2py) is not imported, nor numpy.fft
    assert _run_probe(IMPORT_PROBE) == ["[]", "[]", "True"]


ORDER_PROBE = """
import sys
import numpy as np
if sys.argv[1] == "scipy first":
    import scipy.fft
    import nlslab.grid
else:
    import nlslab.grid
    import scipy.fft
from scipy.fft._pocketfft import basic
x = np.arange(8.0) + 0.5j
print(sys.modules["scipy.fft._pocketfft.pypocketfft"] is nlslab.grid._pocketfft)
print(basic.pfft is nlslab.grid._pocketfft)
print(np.array_equal(scipy.fft.fft(x), np.fft.fft(x)))
"""


@pytest.mark.parametrize("first", ["nlslab first", "scipy first"])
def test_pocketfft_module_is_shared_with_scipy_fft(first):
    # one extension module whichever is imported first: scipy.fft reuses the
    # one the package loaded, and the package reuses scipy's
    assert _run_probe(ORDER_PROBE, first) == ["True"] * 3


FALLBACK_PROBE = """
import importlib.machinery
import sys
if sys.argv[1] == "no file":
    importlib.machinery.EXTENSION_SUFFIXES.clear()  # the file lookup finds nothing
import numpy as np
from nlslab.evolution import step_strang
from nlslab.grid import ComplexField, _pocketfft, make_grid
print("scipy.fft" in sys.modules, _pocketfft is sys.modules["scipy.fft._pocketfft.pypocketfft"])
g = make_grid(1, 40.0, 1024)
rng = np.random.default_rng(1024)
v = 3.0 * (rng.standard_normal(1024) + 1j * rng.standard_normal(1024)) * np.exp(-g.radius_squared())
print(step_strang(ComplexField(g, v), 1e-3, 5.0).values.tobytes().hex())
"""


def test_pocketfft_falls_back_to_the_normal_import():
    # without the file the normal import (through scipy.fft) loads the same
    # extension, and a step gives the same bits
    flags, step = _run_probe(FALLBACK_PROBE, "file")
    assert flags == "False True"
    assert _run_probe(FALLBACK_PROBE, "no file") == ["True True", step]


def _same_bits(a, b):
    """Equal dtype, values and signs of zero: the same bits, for finite data
    (long double's padding bytes are not compared)."""
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
@pytest.mark.parametrize("d,n", [(1, 8), (1, 1024), (1, 4096), (2, 16), (2, 256)])
def test_transform_is_scipy_fft_bitwise(d, n, dtype):
    # scipy.fft, imported here only, is the oracle: each norm, contiguous and
    # strided input, and the transform written over its own input
    import scipy.fft as sfft

    rng = np.random.default_rng(n)
    w = (rng.standard_normal((2 * n,) * d) + 1j * rng.standard_normal((2 * n,) * d)).astype(dtype)
    axes = tuple(range(d))
    fwd, inv = (sfft.fft, sfft.ifft) if d == 1 else (sfft.fftn, sfft.ifftn)
    for v in (np.ascontiguousarray(w[(slice(0, n),) * d]), w[(slice(None, None, 2),) * d]):
        for norm, inorm in (("backward", 0), ("forward", 2)):
            for forward, want in ((True, fwd(v, norm=norm)), (False, inv(v, norm=norm))):
                scale = inorm if forward else 2 - inorm
                assert _same_bits(_c2c(v, forward, axes, scale), want)
                a = v.copy()
                assert _same_bits(_c2c(a, forward, axes, scale, out=a), want)


def test_chirp_z_padded_transform_is_scipy_fft_bitwise():
    # the batched, zero-padded forward transform of ``_chirp_z``
    import scipy.fft as sfft

    rng = np.random.default_rng(7)
    coef = rng.standard_normal((5, 257)) + 1j * rng.standard_normal((5, 257))
    size = _pocketfft.good_size(300 + 256, False)
    spec = np.zeros((5, size), dtype=np.complex128)
    spec[..., :257] = coef
    assert _same_bits(_c2c(spec, True, out=spec), sfft.fft(coef, size, axis=-1))


def test_good_size_is_next_fast_len():
    import scipy.fft as sfft

    assert all(_pocketfft.good_size(n, False) == sfft.next_fast_len(n) for n in range(1, 10_001))


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


def test_snapshot_bytes_are_pinned(tmp_path):
    # signed zeros, a subnormal and values that need all 17 digits
    pairs = [[-0.0, 0.0], [0.1, 1.0 / 3.0], [0.0, -1e-300], [2.0**-1074, 0.0],
             [-2.5, -0.0], [1e22, 0.0], [np.pi, 0.0], [0.0, 0.0]]
    values = np.array(pairs).view(np.complex128).reshape(-1)
    path = tmp_path / "snap.txt"
    write_snapshot(path, ComplexField(make_grid(1, 10.0, 8), values), 0.1)
    assert path.read_bytes() == (
        b"1,8,10,0.10000000000000001\n"
        b"-0,0\n"
        b"0.10000000000000001,0.33333333333333331\n"
        b"0,-1e-300\n"
        b"4.9406564584124654e-324,0\n"
        b"-2.5,-0\n"
        b"1e+22,0\n"
        b"3.1415926535897931,0\n"
        b"0,0\n"
    )
    back = read_snapshot(path)[0].values
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


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


@pytest.mark.parametrize("d,n", [(1, 8), (1, 1024), (1, 4096), (2, 16), (2, 256)])
def test_gradient_bitwise_equals_nd_transform(d, n):
    # numpy.fft is the reference; the gradient runs on scipy's pocketfft with
    # the axes last first, bitwise equal for complex input, contiguous or
    # strided
    g = make_grid(d, 40, n)
    rng = np.random.default_rng(n)
    w = rng.standard_normal((2 * n,) * d) + 1j * rng.standard_normal((2 * n,) * d)
    for v in (w[(slice(0, n),) * d], w[(slice(None, None, 2),) * d]):
        vhat = np.fft.fftn(v)
        for got, kj in zip(gradient_values(g, v), g.k_mesh()):
            want = np.fft.ifftn(1j * kj * vhat)
            assert np.array_equal(got.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("d,n", [(1, 8), (1, 4096), (2, 16), (2, 256)])
def test_spectral_transforms_bitwise_equal_numpy(d, n):
    # spectrum, inverse_spectrum and the Laplacian are pocketfft's complex
    # transform with the axes last first: numpy.fft's bits, for real input
    # (cast to complex, as numpy casts it) and for complex input
    g = make_grid(d, 40, n)
    rng = np.random.default_rng(n + 1)
    real = rng.standard_normal(g.shape)
    v = real + 1j * rng.standard_normal(g.shape)
    for x in (real, v):
        xhat = np.fft.fftn(x)
        assert spectrum(g, x).tobytes() == xhat.tobytes()
        want = np.fft.ifftn(-g.k_squared() * xhat)
        assert laplacian_values(g, x).tobytes() == want.tobytes()
    vhat = np.fft.fftn(v)
    buf = vhat.copy()
    got = inverse_spectrum(g, buf)
    assert got.tobytes() == np.fft.ifftn(vhat).tobytes()
    assert np.shares_memory(got, buf)  # in place


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
