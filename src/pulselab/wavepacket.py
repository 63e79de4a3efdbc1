"""Rectangular-envelope sinusoidal pulse and its closed-form spectral intensity.

The canonical time representation is the analytic signal
``a0 * exp(1j * omega0 * t)`` on ``0 <= t <= tau`` (zero outside); the
physical cosine waveform is its real part.  The squared modulus of its
Fourier integral has the familiar sinc^2 shape with main-lobe half-width
``2*pi/tau``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Pulse", "sample_waveform", "analytic_intensity", "peak_intensity"]

# Phase span |omega - omega0| * tau below which the closed form is evaluated
# by series; the direct sin^2/u^2 quotient loses digits to cancellation there.
_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class Pulse:
    """A sinusoid segment: amplitude ``a0``, carrier ``omega0``, duration ``tau``."""

    a0: float
    omega0: float
    tau: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.a0) or self.a0 == 0.0:
            raise ValueError("a0 must be finite and nonzero")
        if not np.isfinite(self.omega0) or self.omega0 <= 0.0:
            raise ValueError("omega0 must be positive and finite")
        if not np.isfinite(self.tau) or self.tau <= 0.0:
            raise ValueError("tau must be positive and finite")


def sample_waveform(pulse: Pulse, times) -> np.ndarray | complex:
    """Complex amplitude a0*exp(i*omega0*t) inside [0, tau], 0 outside."""
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

    out[small] = peak * (1.0 - xs * xs / 12.0 + xs ** 4 / 360.0)
    return float(out[0]) if scalar else out


def peak_intensity(pulse: Pulse) -> float:
    """Intensity at resonance: a0^2 * tau^2."""
    return pulse.a0 * pulse.a0 * pulse.tau * pulse.tau
