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

# Intensity (relative to peak) below which a sample counts as a spectral null.
_ZERO_LEVEL = 1e-6

# Frequency-block size for the direct quadrature loop, which only non-uniform
# omega grids take; bounds the omega x t work array.
_CHUNK = 512


def _check_grid(x: np.ndarray, name: str) -> None:
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"{name} must be a 1-d grid with at least 2 points")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    if not np.all(np.diff(x) > 0.0):
        raise ValueError(f"{name} must be strictly increasing")


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

    The sum over N times for M frequencies takes one of three paths, chosen
    from the grids; tests gate both fast paths against the direct quadrature
    at 1e-12 of the peak:

    - both grids equally spaced to within a few ulps (as ``np.linspace``
      output is): a chirp-z transform, evaluated in O((N+M) log(N+M)) by
      Bluestein's FFT convolution;
    - an equally spaced omega grid with any time grid: angle addition over
      blocks of ~sqrt(M) frequencies, 2*N*sqrt(M) complex exponentials and
      one complex matrix product;
    - any other omega grid: the direct O(N*M) quadrature.
    """
    og = np.asarray(omega_grid, dtype=float)
    _check_grid(og, "omega grid")
    if not _uniform(og):
        intensity = _direct_intensity(waveform.amp, waveform.t, og)
    elif _uniform(waveform.t):
        intensity = _chirp_z_intensity(waveform.amp, waveform.t, og)
    else:
        intensity = _blocked_intensity(waveform.amp, waveform.t, og)
    return Spectrum(og, intensity)


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


def _direct_intensity(amp: np.ndarray, t: np.ndarray, og: np.ndarray) -> np.ndarray:
    """Reference path: the trapezoid sum for every omega, in blocks of _CHUNK."""
    intensity = np.empty(og.size)
    for start in range(0, og.size, _CHUNK):
        block = og[start:start + _CHUNK]
        integrand = amp * np.exp(-1j * np.outer(block, t))
        f = np.trapezoid(integrand, t, axis=1)
        intensity[start:start + _CHUNK] = f.real ** 2 + f.imag ** 2
    return intensity


def _blocked_intensity(amp: np.ndarray, t: np.ndarray, og: np.ndarray) -> np.ndarray:
    """The trapezoid sum on a uniform omega grid by angle addition.

    With omega_m = w0 + (m1*B + m2)*d, B = ceil(sqrt(M)), and offsets
    s = t - t[0] (a unit-modulus factor exp(-i*omega_m*t[0]) that drops out
    of |F|^2), exp(-i*omega_m*s_k) = Y[m2, k] * exp(-i*(w0 + m1*B*d)*s_k)
    with Y[m2, k] = exp(-i*m2*d*s_k), so F_m = (Y @ X)[m2, m1] where X holds
    the weighted samples times the block-start phases.  Both tables have
    ~N*sqrt(M) entries.
    """
    m = og.size
    b = math.isqrt(m - 1) + 1  # ceil(sqrt(m))
    d = (og[-1] - og[0]) / (m - 1)
    s = t - t[0]
    dt = np.diff(t)
    w = np.zeros(t.size)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    y = np.exp(-1j * np.outer(np.arange(b) * d, s))
    starts = og[0] + np.arange(-(-m // b)) * (b * d)
    x = (w * amp)[:, None] * np.exp(-1j * np.outer(s, starts))
    f = (y @ x).T.ravel()[:m]
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
    the direct sum: ~1e-15 of peak at 4096 x 20001, ~1e-10 at 8 x 2000001,
    both far below the trapezoid rule's own error on such grids.
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


def _null_position(omega, intensity, j, step):
    # Linear interpolation on the amplitude (sqrt of intensity): intensity is
    # quadratic at a null, amplitude is locally linear, so extending the
    # flank through the two samples just before the minimum to zero amplitude
    # locates the null to a small fraction of a grid step.
    a, b = j + 2 * step, j + step  # the two flank samples approaching the null
    if not (0 <= a < omega.size):
        return omega[j]
    sa, sb = np.sqrt(intensity[a]), np.sqrt(intensity[b])
    if sa <= sb:
        return omega[j]
    return omega[b] + (omega[b] - omega[a]) * sb / (sa - sb)


def first_zero_halfwidth_numeric(spectrum: Spectrum) -> float:
    """Peak-to-first-null distance estimated from a sampled spectrum.

    Scans outward from the peak on both sides for the first local minimum
    that drops below 1e-6 of the peak, refines the null position by linear
    interpolation of the spectral amplitude, and returns the nearer null's
    distance.
    """
    i = _interior_peak(spectrum)
    omega, intensity = spectrum.omega, spectrum.intensity
    level = _ZERO_LEVEL * intensity[i]
    found = []
    for step in (1, -1):
        j = i + step
        while 0 <= j < omega.size:
            nxt = j + step
            if intensity[j] < level and not (0 <= nxt < omega.size and intensity[nxt] < intensity[j]):
                found.append(abs(_null_position(omega, intensity, j, -step) - omega[i]))
                break
            j = nxt
    if not found:
        raise ValueError("no zero in range of the sampled spectrum")
    return min(found)


def fwhm(spectrum: Spectrum) -> float:
    """Full width at half of the peak intensity, crossings interpolated linearly."""
    i = _interior_peak(spectrum)
    omega, intensity = spectrum.omega, spectrum.intensity
    half = 0.5 * intensity[i]
    right = left = None
    for j in range(i + 1, omega.size):
        if intensity[j] < half:
            right = _crossing(omega, intensity, j - 1, j, half)
            break
    for j in range(i - 1, -1, -1):
        if intensity[j] < half:
            left = _crossing(omega, intensity, j + 1, j, half)
            break
    if right is None or left is None:
        raise ValueError("half-maximum level is not crossed within the grid")
    return right - left


def _halfmax_phase() -> float:
    # root of sin(u)^2 / u^2 = 1/2 on (0, pi), by bisection; u ~ 1.39156
    lo, hi = 1.0, 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if 2.0 * np.sin(mid) ** 2 > mid * mid:
            lo = mid
        else:
            hi = mid


_HALFMAX_PHASE = _halfmax_phase()


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
