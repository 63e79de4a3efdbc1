"""Sampled spectra: the trapezoidal Fourier intensity of a sampled waveform,
and the widths and mean frequency measured on a sampled spectrum.

The widths follow ``wavepacket``'s convention: the primary one is the
peak-to-first-null half-width, which is ``2*pi/tau`` for a rectangular pulse
of duration ``tau``; FWHM is secondary.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .adjustment import _Checked

__all__ = [
    "SampledWaveform",
    "Spectrum",
    "fourier_intensity",
    "first_zero_halfwidth_numeric",
    "fwhm",
    "mean_omega_numeric",
]

# How closely, as a share of the flank amplitude, the cubic fit around a
# local minimum must predict the amplitude there for the minimum to count as
# a null (see _null).
_NULL_FIT = 0.05

# Frequency-block size for the direct quadrature loop, which only non-uniform
# omega grids take; bounds the omega x t work array.  The NUFFT's bound is
# _NUFFT_BLOCK.
_CHUNK = 512


def _check_grid(x: np.ndarray, name: str) -> None:
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"{name} must be a 1-d grid with at least 2 points")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    if not np.all(x[1:] > x[:-1]):
        raise ValueError(f"{name} must be strictly increasing")
    # No step of an increasing grid exceeds its span, so this covers every step.
    if not math.isfinite(float(x[-1]) - float(x[0])):
        raise ValueError(f"{name} span must be finite")


class _SampledWaveformFields(NamedTuple):
    t: np.ndarray
    amp: np.ndarray


class SampledWaveform(_Checked, _SampledWaveformFields):
    """Complex amplitudes on a strictly increasing time grid."""

    __slots__ = ()  # no instance dict: immutable like its base

    def __new__(cls, t, amp) -> SampledWaveform:
        t = np.asarray(t, dtype=float)
        amp = np.asarray(amp, dtype=complex)
        _check_grid(t, "time grid")
        if amp.shape != t.shape:
            raise ValueError("amp must match the time grid length")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        return super().__new__(cls, t, amp)


class _SpectrumFields(NamedTuple):
    omega: np.ndarray
    intensity: np.ndarray


class Spectrum(_Checked, _SpectrumFields):
    """Nonnegative intensity samples on a strictly increasing frequency grid."""

    __slots__ = ()  # no instance dict: immutable like its base

    def __new__(cls, omega, intensity) -> Spectrum:
        omega = np.asarray(omega, dtype=float)
        intensity = np.asarray(intensity, dtype=float)
        _check_grid(omega, "omega grid")
        if intensity.shape != omega.shape:
            raise ValueError("intensity must match the omega grid length")
        if not np.all(np.isfinite(intensity)):
            raise ValueError("intensities must be finite")
        if np.any(intensity < 0.0):
            raise ValueError("intensities must be nonnegative")
        return super().__new__(cls, omega, intensity)


def fourier_intensity(waveform: SampledWaveform, omega_grid) -> Spectrum:
    """|integral A(t) exp(-i*omega*t) dt|^2 by trapezoidal quadrature.

    Integrates on the caller's time grid (no resampling), so the quadrature
    error is controlled by the caller's sampling density.  Every path sums on
    the offsets s = t - t[0], exact wherever t is within a factor of 2 of t[0]
    (Sterbenz): the factor exp(-i*omega*t[0]) has modulus 1 and drops out of |F|^2.

    The sum over N times for M frequencies takes one of three paths, which
    ``_path`` picks from s and the omega grid.  Tests gate both fast paths
    against the direct quadrature at 1e-12 of the peak.  "Uniform" below
    means equally spaced to within a few ulps, as ``np.linspace`` output is.

    - A non-uniform omega grid takes the direct O(N*M) quadrature, the
      reference.
    - Both grids uniform, with the chirp phase a*max(N,M)^2/2 (a the product
      of the two steps) at most ``_CHIRP_PHASE_CAP`` radians, take a chirp-z
      transform: one Bluestein FFT convolution, O((N+M) log(N+M)).  The cap
      bounds the chirp's rounding error, which grows with that phase.
    - Any other uniform omega grid takes a type-1 nonuniform FFT: each time
      sample spread over 2*_NUFFT_SPREAD points of a grid of L points, L the
      power of two >= 2M, and one FFT of length L.
    """
    og = np.asarray(omega_grid, dtype=float)
    _check_grid(og, "omega grid")
    s = waveform.t - waveform.t[0]
    return Spectrum(og, _path(s, og)(waveform.amp, s, og))


# Deviation from an exactly uniform grid, in units of eps * max|x|, below which
# a grid counts as uniform.  np.linspace output deviates by up to ~2.  Treating
# such grids as uniform moves each phase omega*s by a few times
# _UNIFORM_ULPS * eps * max|omega| * (t span), s the offsets from the first
# time: a small multiple of the rounding the direct quadrature makes when it
# forms omega*s, and under 1e-12 rad while max|omega| * (t span) < 1e3.
_UNIFORM_ULPS = 4.0


def _uniform(x: np.ndarray) -> bool:
    """True when the strictly increasing grid x is equally spaced to a few ulps."""
    h = (x[-1] - x[0]) / (x.size - 1)
    tol = _UNIFORM_ULPS * np.finfo(float).eps * max(abs(x[0]), abs(x[-1]))
    return bool(np.max(np.abs(x - (x[0] + np.arange(x.size) * h))) <= tol)


# Largest chirp phase a*max(N,M)^2/2, in radians, that the chirp-z path is
# given.  Its error against the direct sum grows with that phase: measured
# 3e-14 of peak at 3.2e3 rad, 5e-14 at 1.2e4, 2e-13 at 2.1e4, and 4e-12 at
# 2.1e5 (16 x 200001), which is over the 1e-12 gate.
_CHIRP_PHASE_CAP = 1e4

def _path(s: np.ndarray, og: np.ndarray):
    """The kernel ``fourier_intensity`` takes for the offsets s (s[0] == 0) and
    the omega grid, by the rule its docstring states."""
    if not _uniform(og):
        return _direct_intensity
    n, m = s.size, og.size
    chirp_phase = 0.5 * (og[-1] - og[0]) * s[-1] * max(n, m) ** 2 / ((m - 1) * (n - 1))
    if chirp_phase <= _CHIRP_PHASE_CAP and _uniform(s):
        return _chirp_z_intensity
    return _nufft_intensity


def _direct_intensity(amp: np.ndarray, s: np.ndarray, og: np.ndarray) -> np.ndarray:
    """Reference path: the trapezoid sum over s for every omega, in blocks of _CHUNK."""
    intensity = np.empty(og.size)
    for start in range(0, og.size, _CHUNK):
        block = og[start:start + _CHUNK]
        integrand = amp * np.exp(-1j * np.outer(block, s))
        f = np.trapezoid(integrand, s, axis=1)
        intensity[start:start + _CHUNK] = f.real ** 2 + f.imag ** 2
    return intensity


# Half-width of the NUFFT's Gaussian in grid points: each sample is spread
# over 2 * _NUFFT_SPREAD points.  14 keeps the error near 1e-14 of peak; 12
# measured 1e-13 to 4.5e-13.
_NUFFT_SPREAD = 14
# Samples the NUFFT spreads per block, which bounds its working memory as
# _CHUNK bounds the direct path's: a block's (_NUFFT_BLOCK x 2*_NUFFT_SPREAD)
# temporaries, made afresh for each block, plus ~72 B per sample for the
# weighted samples c_k and their temporaries.  Blocks of 256 to 1024 ran
# alike on the jittered 2048 x 1001 benchmark requests.
_NUFFT_BLOCK = 512


def _nufft_intensity(amp: np.ndarray, s: np.ndarray, og: np.ndarray) -> np.ndarray:
    """The trapezoid sum over s on a uniform omega grid by a type-1 nonuniform
    FFT with Gaussian gridding (Dutt & Rokhlin 1993; Greengard & Lee 2004).

    With omega_m = w0 + m*d, M0 = M//2 and
    c_k = w_k * amp_k * exp(-i*(w0 + M0*d)*s_k), F_m is the 2*pi-periodic
    sum f(j) = sum_k c_k exp(-i*j*x_k) at j = m - M0 with x_k = d*s_k.  The
    samples c_k are spread by the periodic Gaussian exp(-x^2/(4*tau)) onto
    L equally spaced points of [0, 2*pi); one FFT of that grid gives, for
    |j| < L/2, sqrt(tau/pi) * exp(-j^2*tau) * f(j), and dividing by that
    factor leaves f(j).  With the oversampling sigma = L/M (>= 2) the
    width tau = pi*Msp / (M^2 * sigma*(sigma - 1/2)) balances the
    Gaussian's truncation at Msp = _NUFFT_SPREAD points against aliasing.
    """
    m = og.size
    m0 = m // 2
    d = (og[-1] - og[0]) / (m - 1)
    dt = np.diff(s)
    w = np.zeros(s.size)  # trapezoid weights
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    c = w * amp * np.exp(-1j * (og[0] + m0 * d) * s)
    # The power of two >= 2*M.  A length of exactly 2*M can factor badly
    # (400002 = 2*3*163*409), which makes its FFT slow.
    size = 1 << (2 * m - 1).bit_length()
    sigma = size / m
    tau = math.pi * _NUFFT_SPREAD / (m * m * sigma * (sigma - 0.5))
    h = 2.0 * math.pi / size  # grid step
    offsets = np.arange(1 - _NUFFT_SPREAD, _NUFFT_SPREAD + 1)
    re, im = np.zeros(size), np.zeros(size)
    for start in range(0, s.size, _NUFFT_BLOCK):
        rows = slice(start, start + _NUFFT_BLOCK)
        u = s[rows] * (d / h)  # x_k in grid steps; the Gaussian's period is `size` of them
        base = np.floor(u)
        g = (u - base)[:, None] - offsets  # each sample's distance to its grid points
        g = np.exp(g * g * (-h * h / (4.0 * tau)))
        idx = ((base.astype(np.intp)[:, None] + offsets) & (size - 1)).ravel()
        # np.add.at sums in sample order, as one np.bincount over all samples
        # would, so the blocks change no bit.  It runs ~8x slower given the
        # 2-d index than the 1-d one.
        np.add.at(re, idx, (g * c.real[rows, None]).ravel())
        np.add.at(im, idx, (g * c.imag[rows, None]).ravel())
    grid = re + 1j * im
    j = np.arange(-m0, m - m0)
    # numpy loads np.fft on first access, so importing pulselab does not pay for it.
    f = np.fft.fft(grid)[j & (size - 1)] * np.exp(j * j * tau) * (math.sqrt(math.pi / tau) / size)
    return f.real ** 2 + f.imag ** 2


def _chirp_z_intensity(amp: np.ndarray, s: np.ndarray, og: np.ndarray) -> np.ndarray:
    """The trapezoid sum over uniform s and omega grids as one Bluestein FFT convolution.

    With s_k = k*h and omega_m = w0 + m*d, the phase omega_m*s_k is
    w0*s_k + a*m*k with a = d*h, and m*k = (m^2 + k^2 - (m-k)^2)/2 turns the
    sum over k into a convolution with the chirp exp(i*a*j^2/2), times
    exp(-i*a*m^2/2), a unit-modulus factor that drops out of |F|^2.

    The chirp phase reaches a*max(N,M)^2/2, about the omega span times the t
    span times max(N,M)/(2*min(N,M)), and its rounding sets the error against
    the direct sum: ~1e-15 of peak at 4096 x 20001, but 3e-12 at a lopsided
    16 x 200001 and ~1e-10 at 8 x 2000001.  So ``fourier_intensity`` does not
    route such lopsided grids here: above ``_CHIRP_PHASE_CAP`` they take the
    NUFFT.
    """
    n, m = s.size, og.size
    h = s[-1] / (n - 1)
    a = (og[-1] - og[0]) / (m - 1) * h
    j = np.arange(max(n, m), dtype=float)
    chirp = np.exp(0.5j * a * j * j)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    x = w * amp * np.exp(-1j * og[0] * s) * chirp[:n].conj()
    size = 1 << (n + m - 2).bit_length()  # power of two >= n + m - 1
    c = np.zeros(size, dtype=complex)
    c[:m] = chirp[:m]
    c[size - n + 1:] = chirp[n - 1:0:-1]  # chirp at j = -(n-1) .. -1
    # numpy loads np.fft on first access, so importing pulselab does not pay for it.
    f = np.fft.ifft(np.fft.fft(x, size) * np.fft.fft(c))[:m]
    return f.real ** 2 + f.imag ** 2


def _interior_peak(spectrum: Spectrum) -> int:
    i = int(np.argmax(spectrum.intensity))
    if i == 0 or i == spectrum.intensity.size - 1:
        raise ValueError("spectrum has no interior maximum")
    return i


def _crossing(omega, intensity, i_hi, i_lo, level):
    # linear interpolation between the last sample above `level` and the
    # first one below it
    w0, w1 = omega[i_hi], omega[i_lo]
    y0, y1 = intensity[i_hi], intensity[i_lo]
    return w0 + (w1 - w0) * (y0 - level) / (y0 - y1)


def _null(omega, intensity, i, step):
    """The first null beyond the peak sample i in direction step (+1 or -1), or
    None where the spectrum shows none.

    The null is sought at the first local minimum j of the amplitude
    A = sqrt(I) outward from the peak.  Across a null the amplitude changes
    sign, so a cubic is fitted to the signed amplitudes +A[j-2s], +A[j-s],
    -A[j+s], -A[j+2s].  The minimum counts as a null when the cubic predicts
    |A[j]| to within _NULL_FIT of the largest of those four, and the null is
    the cubic's root between omega[j-s] and omega[j+s].  A dip that is not a
    null (two overlapping peaks, say) breaks the cubic's prediction.
    """
    side = intensity[i::step]
    rises = np.flatnonzero(side[1:] > side[:-1])
    if rises.size == 0 or not 2 <= rises[0] <= side.size - 3:
        return None  # no minimum, or too few samples around it for the fit
    j = i + step * int(rises[0])
    idx = j + step * np.array([-2, -1, 1, 2])
    scale = omega[j + step] - omega[j]
    x = (omega[idx] - omega[j]) / scale  # about -2, -1, 1, 2
    y = np.sqrt(intensity[idx]) * np.array([1.0, 1.0, -1.0, -1.0])
    c3, c2, c1, c0 = np.linalg.solve(np.vander(x, 4), y).tolist()
    if abs(abs(c0) - math.sqrt(intensity[j])) > _NULL_FIT * np.max(np.abs(y)):
        return None
    lo, hi = float(x[1]), float(x[2])  # the cubic is +A[j-s] > 0 at lo and -A[j+s] <= 0 at hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ((c3 * mid + c2) * mid + c1) * mid + c0 > 0.0:
            lo = mid
        else:
            hi = mid
    return omega[j] + 0.5 * (lo + hi) * scale


def first_zero_halfwidth_numeric(spectrum: Spectrum) -> float:
    """Peak-to-first-null distance estimated from a sampled spectrum.

    Finds the first null on each side of the peak by a cubic fit of the signed
    amplitude around the first local minimum (``_null``) and returns half the
    null-to-null distance, which does not depend on where the peak falls
    between samples.  With a null on one side only, returns that null's
    distance from the peak, placed at the vertex of the parabola through the
    amplitudes sqrt(I) at the peak sample and its two neighbours
    (``_vertex``).
    """
    i = _interior_peak(spectrum)
    omega, intensity = spectrum.omega, spectrum.intensity
    left, right = _null(omega, intensity, i, -1), _null(omega, intensity, i, 1)
    if left is None and right is None:
        raise ValueError("no zero in range of the sampled spectrum")
    if left is None or right is None:
        return float(abs((right if left is None else left) - _vertex(omega, intensity, i)))
    return float(0.5 * (right - left))


def _vertex(omega, intensity, i):
    """The vertex of the parabola through (omega, sqrt(I)) at samples i-1, i and
    i+1 (any spacing), or omega[i] where the three amplitudes are equal."""
    x0, x1, x2 = omega[i - 1:i + 2].tolist()
    y0, y1, y2 = np.sqrt(intensity[i - 1:i + 2]).tolist()
    left, right = (x1 - x0) * (y1 - y2), (x2 - x1) * (y1 - y0)
    if left + right == 0.0:
        return x1
    return x1 - 0.5 * ((x1 - x0) * left - (x2 - x1) * right) / (left + right)


def fwhm(spectrum: Spectrum) -> float:
    """Full width at half of the peak intensity, crossings interpolated linearly."""
    i = _interior_peak(spectrum)
    omega, intensity = spectrum.omega, spectrum.intensity
    half = 0.5 * intensity[i]
    below = np.flatnonzero(intensity < half)
    right, left = below[below > i], below[below < i]
    if right.size == 0 or left.size == 0:
        raise ValueError("half-maximum level is not crossed within the grid")
    j, k = int(right[0]), int(left[-1])
    return _crossing(omega, intensity, j - 1, j, half) - _crossing(omega, intensity, k + 1, k, half)


def mean_omega_numeric(spectrum: Spectrum) -> float:
    """First moment of the intensity distribution by trapezoidal quadrature.

    An asymmetric grid biases the mean; supply a grid symmetric about the
    expected peak when that matters.
    """
    total = np.trapezoid(spectrum.intensity, spectrum.omega)
    if total <= 0.0:
        raise ValueError("zero total intensity")
    return float(np.trapezoid(spectrum.omega * spectrum.intensity, spectrum.omega) / total)
