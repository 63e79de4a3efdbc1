"""The rectangular-envelope sinusoidal pulse and its closed forms: spectral
intensity, widths, uncertainty product and energy moments.

The pulse is the analytic signal ``a0 * exp(1j * omega0 * t)`` on
``0 <= t <= tau`` (zero outside), whose real part is the physical cosine
waveform; its spectral intensity has the sinc^2 shape.  The primary spectral
width is the peak-to-first-zero half-width ``2*pi/tau`` (so width * duration
= 2*pi), with FWHM a secondary measure.  A second-central-moment width is not
offered, because the sinc^2 distribution has a divergent variance; the energy
spread is reported as ``2*pi*hbar/tau`` for the same reason.  Only
``sample_waveform`` and ``analytic_intensity`` import numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .adjustment import _Checked

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Pulse", "MomentReport", "sample_waveform", "analytic_intensity", "peak_intensity",
           "first_zero_halfwidth", "rectangular_fwhm", "uncertainty_product", "energy_moments"]

# Phase span x = |omega - omega0| * tau below which the closed form is evaluated
# as peak * (1 - x^2/12): the direct sin^2/u^2 quotient loses digits to
# cancellation there, and the next term, x^4/360, is under half an ulp of it.
_SERIES_CUTOFF = 1e-4


class _PulseFields(NamedTuple):
    a0: float
    omega0: float
    tau: float


class Pulse(_Checked, _PulseFields):
    """A sinusoid segment: amplitude ``a0``, carrier ``omega0``, duration ``tau``."""

    __slots__ = ()  # no instance dict: immutable like its base

    def __new__(cls, a0: float, omega0: float, tau: float) -> Pulse:
        if not math.isfinite(a0) or a0 == 0.0:
            raise ValueError("a0 must be finite and nonzero")
        if not math.isfinite(omega0) or omega0 <= 0.0:
            raise ValueError("omega0 must be positive and finite")
        if not math.isfinite(tau) or tau <= 0.0:
            raise ValueError("tau must be positive and finite")
        return super().__new__(cls, a0, omega0, tau)


class MomentReport(NamedTuple):
    mean_omega: float
    mean_energy: float  # hbar * mean_omega
    delta_e_convention: float  # 2*pi*hbar / tau
    hbar: float


def sample_waveform(pulse: Pulse, times) -> np.ndarray | complex:
    """Complex amplitude a0*exp(i*omega0*t) inside [0, tau], 0 outside."""
    import numpy as np

    t = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time samples must be finite")
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    inside = (t >= 0.0) & (t <= pulse.tau)
    amp = np.where(inside, pulse.a0 * np.exp(1j * pulse.omega0 * t), 0.0 + 0.0j)
    return complex(amp[0]) if scalar else amp


def analytic_intensity(pulse: Pulse, omega) -> np.ndarray | float:
    """Exact |integral_0^tau a0*exp(i*(omega0-omega)*t) dt|^2.

    Equal to 4*a0^2*sin((omega-omega0)*tau/2)^2 / (omega-omega0)^2 away
    from resonance and a0^2*tau^2 at it.  The sine is evaluated on the
    argument reduced by whole periods, so the nulls at
    omega0 +- 2*pi*n/tau land on exact floating-point zeros whenever the
    reduced cycle count is an exact integer.

    Working memory is three float arrays the length of ``omega``, the result
    among them: the closed form runs in place over every point and the
    series overwrites the few inside the cutoff.
    """
    import numpy as np

    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("omega must be finite")
    scalar = w.ndim == 0
    w = np.atleast_1d(w)

    u = w - pulse.omega0
    out = u * pulse.tau  # x, the phase span
    a2 = pulse.a0 * pulse.a0
    peak = a2 * pulse.tau * pulse.tau

    small = np.abs(out) < _SERIES_CUTOFF
    xs = out[small]

    out /= 2.0 * np.pi  # cycles
    out -= np.round(out)  # r, cycles past the nearest whole one
    np.multiply(np.pi, out, out=out)
    np.sin(out, out=out)  # s
    np.multiply(out, out, out=out)
    np.multiply(4.0 * a2, out, out=out)  # 4 a0^2 s^2
    np.multiply(u, u, out=u)  # u^2
    # Masked, so that 0/0 at exact resonance is never evaluated.
    np.divide(out, u, out=out, where=~small)

    out[small] = peak * (1.0 - xs * xs / 12.0)
    return float(out[0]) if scalar else out


def peak_intensity(pulse: Pulse) -> float:
    """Intensity at resonance: a0^2 * tau^2."""
    return pulse.a0 * pulse.a0 * pulse.tau * pulse.tau


def first_zero_halfwidth(pulse: Pulse) -> float:
    """Distance from the spectral peak to the first null: 2*pi/tau."""
    return 2.0 * math.pi / pulse.tau


# The root u ~ 1.39156 of sin(u)^2 / u^2 = 1/2 on (0, pi), to within one ulp.
_HALFMAX_PHASE = 1.3915573782515103


def rectangular_fwhm(tau: float) -> float:
    """Closed-form FWHM of the rectangular pulse's sinc^2 spectrum: ~5.566/tau."""
    if not math.isfinite(tau) or tau <= 0.0:
        raise ValueError("tau must be positive")
    return 4.0 * _HALFMAX_PHASE / tau


def uncertainty_product(pulse: Pulse) -> float:
    """Time-bandwidth product: first-zero half-width times duration (= 2*pi)."""
    return first_zero_halfwidth(pulse) * pulse.tau


def energy_moments(pulse: Pulse, hbar: float = 1.0) -> MomentReport:
    """Mean frequency/energy and the 2*pi*hbar/tau energy-spread convention."""
    if not math.isfinite(hbar) or hbar <= 0.0:
        raise ValueError("hbar must be positive")
    return MomentReport(
        mean_omega=pulse.omega0,
        mean_energy=hbar * pulse.omega0,
        delta_e_convention=2.0 * math.pi * hbar / pulse.tau,
        hbar=hbar,
    )
