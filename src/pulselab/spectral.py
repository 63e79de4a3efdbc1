"""Numerical Fourier-integral spectra, width measures, and energy moments.

Width convention: the primary spectral width is the peak-to-first-zero
half-width ``2*pi/tau`` (so width * duration = 2*pi for the rectangular
envelope); FWHM is reported as a secondary measure.  A second-central-moment
width is deliberately not offered: the sinc^2 distribution has a divergent
variance.  The energy spread is reported by the ``2*pi*hbar/tau`` convention
for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wavepacket import Pulse

__all__ = [
    "SampledWaveform",
    "Spectrum",
    "MomentReport",
    "fourier_intensity",
    "first_zero_halfwidth",
    "first_zero_halfwidth_numeric",
    "fwhm",
    "rectangular_fwhm",
    "uncertainty_product",
    "energy_moments",
    "mean_omega_numeric",
]

# How closely, as a share of the flank amplitude, the cubic fit around a
# local minimum must predict the amplitude there for the minimum to count as
# a null (see _null).
_NULL_FIT = 0.05

# Frequency-block size for the direct quadrature loop, which only non-uniform
# omega grids take; bounds the omega x t work array.
_CHUNK = 512


def _check_grid(x: np.ndarray, name: str) -> None:
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"{name} must be a 1-d grid with at least 2 points")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    with np.errstate(over="ignore"):  # an overflowing step is refused below
        step = np.diff(x)
    if not np.all(step > 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    if not np.all(np.isfinite(step)):
        raise ValueError(f"{name} spacing must be finite")


@dataclass(frozen=True)
class SampledWaveform:
    """Complex amplitudes on a strictly increasing time grid."""

    t: np.ndarray
    amp: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        amp = np.asarray(self.amp, dtype=complex)
        _check_grid(t, "time grid")
        if amp.shape != t.shape:
            raise ValueError("amp must match the time grid length")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "amp", amp)


@dataclass(frozen=True)
class Spectrum:
    """Nonnegative intensity samples on a strictly increasing frequency grid."""

    omega: np.ndarray
    intensity: np.ndarray

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=float)
        intensity = np.asarray(self.intensity, dtype=float)
        _check_grid(omega, "omega grid")
        if intensity.shape != omega.shape:
            raise ValueError("intensity must match the omega grid length")
        if not np.all(np.isfinite(intensity)):
            raise ValueError("intensities must be finite")
        if np.any(intensity < 0.0):
            raise ValueError("intensities must be nonnegative")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "intensity", intensity)


@dataclass(frozen=True)
class MomentReport:
    mean_omega: float
    mean_energy: float  # hbar * mean_omega
    delta_e_convention: float  # 2*pi*hbar / tau
    hbar: float


def fourier_intensity(waveform: SampledWaveform, omega_grid) -> Spectrum:
    """|integral A(t) exp(-i*omega*t) dt|^2 by trapezoidal quadrature.

    Integrates on the caller's time grid (no resampling), so the quadrature
    error is controlled by the caller's sampling density.

    The sum over N times for M frequencies takes one of three paths, which
    ``_path`` picks from the grids alone.  Tests gate both fast paths against
    the direct quadrature at 1e-12 of the peak.  "Uniform" below means
    equally spaced to within a few ulps, as ``np.linspace`` output is.

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
    return Spectrum(og, _path(waveform.t, og)(waveform.amp, waveform.t, og))


# Deviation from an exactly uniform grid, in units of eps * max|x|, below which
# a grid counts as uniform.  np.linspace output deviates by up to ~2.  Treating
# such grids as uniform moves each phase omega*t by a few times
# _UNIFORM_ULPS * eps * max|omega| * max|t|: a small multiple of the rounding
# the direct quadrature makes when it forms omega*t, and under 1e-12 rad while
# max|omega| * max|t| < 1e3.
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

def _path(t: np.ndarray, og: np.ndarray):
    """The kernel ``fourier_intensity`` takes for these grids, by the rule its
    docstring states."""
    if not _uniform(og):
        return _direct_intensity
    n, m = t.size, og.size
    chirp_phase = 0.5 * (og[-1] - og[0]) * (t[-1] - t[0]) * max(n, m) ** 2 / ((m - 1) * (n - 1))
    if chirp_phase <= _CHIRP_PHASE_CAP and _uniform(t):
        return _chirp_z_intensity
    return _nufft_intensity


def _direct_intensity(amp: np.ndarray, t: np.ndarray, og: np.ndarray) -> np.ndarray:
    """Reference path: the trapezoid sum for every omega, in blocks of _CHUNK."""
    intensity = np.empty(og.size)
    for start in range(0, og.size, _CHUNK):
        block = og[start:start + _CHUNK]
        integrand = amp * np.exp(-1j * np.outer(block, t))
        f = np.trapezoid(integrand, t, axis=1)
        intensity[start:start + _CHUNK] = f.real ** 2 + f.imag ** 2
    return intensity


# Half-width of the NUFFT's Gaussian in grid points: each sample is spread
# over 2 * _NUFFT_SPREAD points.  14 keeps the error near 1e-14 of peak; 12
# measured 1e-13 to 4.5e-13.
_NUFFT_SPREAD = 14


def _nufft_intensity(amp: np.ndarray, t: np.ndarray, og: np.ndarray) -> np.ndarray:
    """The trapezoid sum on a uniform omega grid by a type-1 nonuniform FFT
    with Gaussian gridding (Dutt & Rokhlin 1993; Greengard & Lee 2004).

    With omega_m = w0 + m*d, M0 = M//2, offsets s = t - t[0] and
    c_k = w_k * amp_k * exp(-i*(w0 + M0*d)*s_k), F_m is, up to a
    unit-modulus factor that drops out of |F|^2, the 2*pi-periodic sum
    f(j) = sum_k c_k exp(-i*j*x_k) at j = m - M0 with x_k = d*s_k.  The
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
    s = t - t[0]
    dt = np.diff(t)
    w = np.zeros(t.size)  # trapezoid weights
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    c = w * amp * np.exp(-1j * (og[0] + m0 * d) * s)
    # The power of two >= 2*M.  A length of exactly 2*M can factor badly
    # (400002 = 2*3*163*409), which makes its FFT slow.
    size = 1 << (2 * m - 1).bit_length()
    sigma = size / m
    tau = math.pi * _NUFFT_SPREAD / (m * m * sigma * (sigma - 0.5))
    h = 2.0 * math.pi / size  # grid step
    u = s * (d / h)  # x_k in grid steps; the Gaussian's period is `size` of them
    base = np.floor(u)
    offsets = np.arange(1 - _NUFFT_SPREAD, _NUFFT_SPREAD + 1)
    g = (u - base)[:, None] - offsets  # each sample's distance to its grid points
    g *= g
    g *= -h * h / (4.0 * tau)
    np.exp(g, out=g)
    idx = ((base.astype(np.intp)[:, None] + offsets) & (size - 1)).ravel()
    grid = np.bincount(idx, (g * c.real[:, None]).ravel(), size)
    grid = grid + 1j * np.bincount(idx, (g * c.imag[:, None]).ravel(), size)
    j = np.arange(-m0, m - m0)
    # numpy loads np.fft on first access, so importing pulselab does not pay for it.
    f = np.fft.fft(grid)[j & (size - 1)] * np.exp(j * j * tau) * (math.sqrt(math.pi / tau) / size)
    return f.real ** 2 + f.imag ** 2


def _chirp_z_intensity(amp: np.ndarray, t: np.ndarray, og: np.ndarray) -> np.ndarray:
    """The trapezoid sum on uniform grids as one Bluestein FFT convolution.

    With t_k = t0 + k*h and omega_m = w0 + m*d, the phase omega_m*t_k is
    w0*t0 + w0*(t_k - t0) + m*d*t0 + a*m*k with a = d*h.  The terms in m alone
    are unit-modulus factors that drop out of |F|^2, and
    m*k = (m^2 + k^2 - (m-k)^2)/2 turns the sum over k into a convolution
    with the chirp exp(i*a*j^2/2).

    The chirp phase reaches a*max(N,M)^2/2, about the omega span times the t
    span times max(N,M)/(2*min(N,M)), and its rounding sets the error against
    the direct sum: ~1e-15 of peak at 4096 x 20001, but 3e-12 at a lopsided
    16 x 200001 and ~1e-10 at 8 x 2000001.  So ``fourier_intensity`` does not
    route such lopsided grids here: above ``_CHIRP_PHASE_CAP`` they take the
    NUFFT.
    """
    n, m = t.size, og.size
    h = (t[-1] - t[0]) / (n - 1)
    a = (og[-1] - og[0]) / (m - 1) * h
    j = np.arange(max(n, m), dtype=float)
    chirp = np.exp(0.5j * a * j * j)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    x = w * amp * np.exp(-1j * og[0] * (t - t[0])) * chirp[:n].conj()
    size = 1 << (n + m - 2).bit_length()  # power of two >= n + m - 1
    c = np.zeros(size, dtype=complex)
    c[:m] = chirp[:m]
    c[size - n + 1:] = chirp[n - 1:0:-1]  # chirp at j = -(n-1) .. -1
    # numpy loads np.fft on first access, so importing pulselab does not pay for it.
    f = np.fft.ifft(np.fft.fft(x, size) * np.fft.fft(c))[:m]
    return f.real ** 2 + f.imag ** 2


def first_zero_halfwidth(pulse: Pulse) -> float:
    """Distance from the spectral peak to the first null: 2*pi/tau."""
    return 2.0 * np.pi / pulse.tau


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


# The root u ~ 1.39156 of sin(u)^2 / u^2 = 1/2 on (0, pi), to within one ulp.
_HALFMAX_PHASE = 1.3915573782515103


def rectangular_fwhm(tau: float) -> float:
    """Closed-form FWHM of the rectangular pulse's sinc^2 spectrum: ~5.566/tau."""
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError("tau must be positive")
    return 4.0 * _HALFMAX_PHASE / tau


def uncertainty_product(pulse: Pulse) -> float:
    """Time-bandwidth product: first-zero half-width times duration (= 2*pi)."""
    return first_zero_halfwidth(pulse) * pulse.tau


def energy_moments(pulse: Pulse, hbar: float = 1.0) -> MomentReport:
    """Mean frequency/energy and the 2*pi*hbar/tau energy-spread convention."""
    if not np.isfinite(hbar) or hbar <= 0.0:
        raise ValueError("hbar must be positive")
    return MomentReport(
        mean_omega=pulse.omega0,
        mean_energy=hbar * pulse.omega0,
        delta_e_convention=2.0 * np.pi * hbar / pulse.tau,
        hbar=hbar,
    )


def mean_omega_numeric(spectrum: Spectrum) -> float:
    """First moment of the intensity distribution by trapezoidal quadrature.

    An asymmetric grid biases the mean; supply a grid symmetric about the
    expected peak when that matters.
    """
    total = np.trapezoid(spectrum.intensity, spectrum.omega)
    if total <= 0.0:
        raise ValueError("zero total intensity")
    return float(np.trapezoid(spectrum.omega * spectrum.intensity, spectrum.omega) / total)
