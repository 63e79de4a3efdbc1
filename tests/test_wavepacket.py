import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from pulselab import Pulse, analytic_intensity, peak_intensity, sample_waveform


def quad_intensity(pulse, omega):
    """Independent oracle: adaptive quadrature of |int_0^tau a0 e^{i(w0-w)t} dt|^2."""
    def integrand_re(t):
        return pulse.a0 * np.cos((pulse.omega0 - omega) * t)

    def integrand_im(t):
        return pulse.a0 * np.sin((pulse.omega0 - omega) * t)

    re, _ = quad(integrand_re, 0.0, pulse.tau, epsabs=1e-13, epsrel=1e-11, limit=200)
    im, _ = quad(integrand_im, 0.0, pulse.tau, epsabs=1e-13, epsrel=1e-11, limit=200)
    return re * re + im * im


class TestPulse:
    def test_valid(self):
        p = Pulse(2.0, 5.0, 1.5)
        assert p.tau == 1.5

    @pytest.mark.parametrize(
        "a0,omega0,tau",
        [(0.0, 1.0, 1.0), (np.inf, 1.0, 1.0), (1.0, -1.0, 1.0),
         (1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (1.0, 1.0, -2.0), (1.0, np.nan, 1.0)],
    )
    def test_invalid(self, a0, omega0, tau):
        with pytest.raises(ValueError):
            Pulse(a0, omega0, tau)


class TestSampleWaveform:
    def test_phase_zero_at_origin(self):
        assert sample_waveform(Pulse(1.0, 3.0, 1.0), 0.0) == 1.0 + 0.0j

    def test_outside_support(self):
        assert sample_waveform(Pulse(1.0, 5.0, 1.0), 2.0) == 0.0

    def test_half_turn(self):
        val = sample_waveform(Pulse(1.0, np.pi, 2.0), 1.0)
        assert val == pytest.approx(-1.0 + 0.0j, abs=1e-15)

    def test_array_and_real_part(self):
        p = Pulse(2.0, 4.0, 1.0)
        t = np.linspace(-0.5, 1.5, 101)
        amp = sample_waveform(p, t)
        inside = (t >= 0) & (t <= 1.0)
        assert np.all(amp[~inside] == 0.0)
        np.testing.assert_allclose(amp[inside].real, 2.0 * np.cos(4.0 * t[inside]), rtol=1e-14)

    def test_nonfinite_time(self):
        with pytest.raises(ValueError):
            sample_waveform(Pulse(1.0, 1.0, 1.0), [0.0, np.nan])


class TestAnalyticIntensity:
    def test_resonance(self):
        assert analytic_intensity(Pulse(1.0, 10.0, 2.0), 10.0) == 4.0

    def test_first_zero(self):
        p = Pulse(3.0, 10.0, 2.0 * np.pi)
        assert analytic_intensity(p, 11.0) == 0.0

    def test_quarter_lobe_value(self):
        p = Pulse(1.0, 10.0, 2.0)
        assert analytic_intensity(p, 10.0 + np.pi / 2) == pytest.approx(16.0 / np.pi ** 2, rel=1e-14)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 10.0])
    def test_against_quadrature(self, tau):
        p = Pulse(1.0, 10.0, tau)
        rng = np.random.default_rng(3)
        for omega in 10.0 + (rng.random(20) - 0.5) * 12.0 * np.pi / tau:
            expected = quad_intensity(p, omega)
            assert analytic_intensity(p, omega) == pytest.approx(expected, rel=1e-8, abs=1e-13)

    def test_series_branch_matches_quadrature(self):
        # points inside the small-phase cutoff where the Taylor branch is used
        p = Pulse(1.0, 10.0, 2.0)
        for delta in [1e-9, 1e-6, 4.9e-5]:
            expected = quad_intensity(p, 10.0 + delta)
            assert analytic_intensity(p, 10.0 + delta) == pytest.approx(expected, rel=1e-10)

    def test_exact_zeros_both_sides(self):
        p = Pulse(1.0, 10.0, 2.0 * np.pi)
        for n in range(1, 6):
            assert analytic_intensity(p, 10.0 + n) == 0.0
            assert analytic_intensity(p, 10.0 - n) == 0.0

    def test_symmetry_exact(self):
        # dyadic offsets so omega0 +- delta round-trips exactly
        p = Pulse(1.0, 16.0, 2.0)
        for delta in [0.25, 0.5, 1.0, 3.75, 7.0625]:
            assert analytic_intensity(p, 16.0 + delta) == analytic_intensity(p, 16.0 - delta)

    def test_amplitude_scaling_exact(self):
        omega = np.linspace(4.0, 16.0, 41)
        base = analytic_intensity(Pulse(1.0, 10.0, 2.0), omega)
        scaled = analytic_intensity(Pulse(2.0, 10.0, 2.0), omega)
        assert np.all(scaled == 4.0 * base)

    def test_nonnegative(self):
        p = Pulse(-1.5, 7.0, 3.0)
        omega = np.linspace(-20.0, 30.0, 5001)
        assert np.all(analytic_intensity(p, omega) >= 0.0)

    def test_nonfinite_omega(self):
        with pytest.raises(ValueError):
            analytic_intensity(Pulse(1.0, 1.0, 1.0), np.inf)


class TestPeakIntensity:
    @pytest.mark.parametrize("a0,tau,expected", [(1.0, 1.0, 1.0), (2.0, 3.0, 36.0), (1.0, 0.5, 0.25)])
    def test_values(self, a0, tau, expected):
        assert peak_intensity(Pulse(a0, 1.0, tau)) == expected

    def test_matches_resonance_quadrature(self):
        p = Pulse(2.0, 3.0, 3.0)
        assert peak_intensity(p) == pytest.approx(quad_intensity(p, 3.0), rel=1e-12)


def reference_intensity(pulse, omega):
    """``analytic_intensity`` as it was written before it ran in place: the
    series and the closed form on boolean-indexed copies."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    u = w - pulse.omega0
    x = u * pulse.tau
    a2 = pulse.a0 * pulse.a0
    peak = a2 * pulse.tau * pulse.tau
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = peak * (1.0 - xs * xs / 12.0 + xs ** 4 / 360.0)
    ul = u[~small]
    cycles = x[~small] / (2.0 * np.pi)
    r = cycles - np.round(cycles)
    s = np.sin(np.pi * r)
    out[~small] = 4.0 * a2 * (s * s) / (ul * ul)
    return out


class TestAnalyticIntensityGate:
    """Bit for bit against the reference expressions, on grids that take both
    branches, cross the series cutoff, and land on exact nulls and resonance."""

    @pytest.mark.parametrize("pulse,omega", [
        # |x| from 0 through the 1e-4 cutoff to 1e-1, on both sides of resonance
        (Pulse(1.0, 10.0, 2.0), 10.0 + np.concatenate([-np.geomspace(5e-2, 1e-9, 300), [0.0],
                                                      np.geomspace(1e-9, 5e-2, 300)])),
        # exact nulls at 10 + n and resonance at 10
        (Pulse(3.0, 10.0, 2.0 * np.pi), np.arange(0.0, 21.0)),
        (Pulse(1.5, 20.0, 3.0), np.linspace(0.5, 40.0, 50001)),
        (Pulse(-0.7, 1e3, 1e-3), np.linspace(-5e4, 5e4, 4097)),
        (Pulse(1e-160, 10.0, 2.0), np.linspace(4.0, 16.0, 101)),  # subnormal intensities
    ], ids=["across-cutoff", "nulls", "wide", "short-pulse", "subnormal"])
    def test_arrays(self, pulse, omega):
        got, want = analytic_intensity(pulse, omega), reference_intensity(pulse, omega)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("omega", [10.0, 10.0 + 3e-5, 10.0 + 1e-3, 11.0, 10.0 - np.pi / 2])
    def test_scalars(self, omega):
        p = Pulse(1.0, 10.0, 2.0)
        got = analytic_intensity(p, omega)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == reference_intensity(p, omega).tobytes()

    def test_no_warning_at_resonance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert analytic_intensity(Pulse(1.0, 10.0, 2.0), np.array([9.0, 10.0, 11.0]))[1] == 4.0
