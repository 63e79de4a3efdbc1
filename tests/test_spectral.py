import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import pulselab
from pulselab import (
    MomentReport,
    Pulse,
    SampledWaveform,
    Spectrum,
    analytic_intensity,
    energy_moments,
    first_zero_halfwidth,
    first_zero_halfwidth_numeric,
    fourier_intensity,
    fwhm,
    mean_omega_numeric,
    rectangular_fwhm,
    sample_waveform,
    uncertainty_product,
)
from pulselab.spectral import _direct_intensity, _uniform


def rect_waveform(a0, omega0, tau, n=4096):
    t = np.linspace(0.0, tau, n)
    return SampledWaveform(t, sample_waveform(Pulse(a0, omega0, tau), t))


# half-max crossing phase of sin^2(u)/u^2, solved independently
HALF_U = brentq(lambda u: np.sin(u) ** 2 / u ** 2 - 0.5, 1.0, 2.0, xtol=1e-14)


class TestTypes:
    def test_waveform_validation(self):
        with pytest.raises(ValueError):
            SampledWaveform(np.array([0.0]), np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            SampledWaveform(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SampledWaveform(np.array([0.0, 1.0]), np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            SampledWaveform(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0]))

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 1.0]), np.array([1.0, -0.1]))


class TestFourierIntensity:
    def test_peak_matches_analytic(self):
        wf = rect_waveform(1.0, 10.0, 2.0)
        spec = fourier_intensity(wf, np.array([9.0, 10.0, 11.0]))
        assert spec.intensity[1] == pytest.approx(4.0, rel=1e-6)

    def test_zero_signal(self):
        wf = SampledWaveform(np.linspace(0, 1, 64), np.zeros(64, dtype=complex))
        spec = fourier_intensity(wf, np.linspace(-5, 5, 11))
        assert np.all(spec.intensity == 0.0)

    def test_null_suppression(self):
        wf = rect_waveform(1.0, 10.0, 2.0)
        spec = fourier_intensity(wf, np.array([10.0, 10.0 + np.pi]))
        assert spec.intensity[1] <= 1e-6 * spec.intensity[0]

    def test_main_lobe_convergence(self):
        pulse = Pulse(1.0, 10.0, 2.0)
        wf = rect_waveform(1.0, 10.0, 2.0)
        omega = np.linspace(10.0 - 0.8 * np.pi, 10.0 + 0.8 * np.pi, 33)
        spec = fourier_intensity(wf, omega)
        np.testing.assert_allclose(spec.intensity, analytic_intensity(pulse, omega), rtol=1e-6)

    def test_time_shift_invariance(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 2.0, 512)
        amp = rng.normal(size=512) + 1j * rng.normal(size=512)
        omega = np.linspace(-8.0, 8.0, 101)
        base = fourier_intensity(SampledWaveform(t, amp), omega)
        shifted = fourier_intensity(SampledWaveform(t + 5.0, amp), omega)
        peak = base.intensity.max()
        np.testing.assert_allclose(shifted.intensity, base.intensity, rtol=1e-9, atol=1e-9 * peak)

    def test_bad_grid(self):
        wf = rect_waveform(1.0, 10.0, 2.0, n=64)
        with pytest.raises(ValueError):
            fourier_intensity(wf, np.array([1.0]))
        with pytest.raises(ValueError):
            fourier_intensity(wf, np.array([1.0, 0.5]))


# The chirp-z path must match the direct quadrature to this fraction of the peak.
CHIRP_Z_GATE = 1e-12


def carrier_waveform(n, t0=0.0, omega0=10.0, tau=2.0):
    """Rectangular pulse on [t0, t0 + tau] sampled on a linspace grid."""
    t = np.linspace(t0, t0 + tau, n)
    return SampledWaveform(t, 1.3 * np.exp(1j * omega0 * t))


class TestChirpZGate:
    @pytest.mark.parametrize("n,m,t0,halfwidths,stride", [
        (2048, 1001, 0.0, 2.5, 1),  # the benchmark's spectrum-sampled shape
        (20000, 4001, 0.0, 2.5, 8),
        (4096, 20001, 0.0, 2.5, 20),
        (2048, 1001, 100.0, 2.5, 1),  # time grid far from the origin
        (2, 2, 0.0, 0.1, 1),
        (3, 7, 0.0, 0.5, 1),
    ])
    def test_matches_direct(self, n, m, t0, halfwidths, stride):
        # The direct reference runs on every stride-th omega (the peak included)
        # to keep the largest shapes fast; the chirp-z path sees the full grid.
        wf = carrier_waveform(n, t0)
        half = halfwidths * np.pi  # first-null half-width 2*pi/tau, tau = 2
        omega = np.linspace(10.0 - half, 10.0 + half, m)
        assert _uniform(wf.t) and _uniform(omega)
        fast = fourier_intensity(wf, omega).intensity[::stride]
        ref = _direct_intensity(wf.amp, wf.t, omega[::stride])
        assert np.max(np.abs(fast - ref)) <= CHIRP_Z_GATE * ref.max()

    def test_linspace_spacing_noise_takes_fast_path(self):
        t = np.linspace(0.1, 3.8, 2048)
        assert np.ptp(np.diff(t)) > 0.0  # spacing varies at the ulp level
        wf = SampledWaveform(t, np.exp(23.0j * t))
        # deviates from exact uniformity by 1.9 eps * max|omega|, the most
        # found in a random search over linspace grids
        omega = np.linspace(-59.6, 67.6, 1001)
        assert _uniform(t) and _uniform(omega)
        ref = _direct_intensity(wf.amp, t, omega)
        fast = fourier_intensity(wf, omega).intensity
        assert np.max(np.abs(fast - ref)) <= CHIRP_Z_GATE * ref.max()

    def test_non_uniform_grids_take_direct_path(self):
        rng = np.random.default_rng(3)
        wf = carrier_waveform(512)
        h = wf.t[1] - wf.t[0]
        t = wf.t.copy()
        t[1:-1] += rng.uniform(-0.3, 0.3, t.size - 2) * h
        jittered = SampledWaveform(t, wf.amp)
        omega = np.linspace(6.0, 14.0, 201)
        stretched = 10.0 + 4.0 * np.sinh(np.linspace(-1.0, 1.0, 201)) / np.sinh(1.0)
        assert not _uniform(t) and not _uniform(stretched)
        for wave, grid in ((jittered, omega), (wf, stretched)):
            np.testing.assert_array_equal(fourier_intensity(wave, grid).intensity,
                                          _direct_intensity(wave.amp, wave.t, grid))

    def test_import_does_not_load_numpy_fft(self):
        src = os.path.dirname(os.path.dirname(pulselab.__file__))
        code = "import sys, pulselab, pulselab.cli; print('numpy.fft' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.strip() == "False"


class TestWidths:
    @pytest.mark.parametrize("tau,expected", [(2.0, np.pi), (2.0 * np.pi, 1.0), (1.0, 2.0 * np.pi)])
    def test_first_zero_halfwidth(self, tau, expected):
        assert first_zero_halfwidth(Pulse(1.0, 5.0, tau)) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("tau", [1.0, 2.0, 17.3, 1e-6])
    def test_uncertainty_product(self, tau):
        assert uncertainty_product(Pulse(1.0, 5.0, tau)) == pytest.approx(2.0 * np.pi, rel=1e-14)

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_numeric_first_zero(self, tau):
        pulse = Pulse(1.0, 10.0, tau)
        omega = np.linspace(10.0 - 4.0 * np.pi, 10.0 + 4.0 * np.pi, 8192)
        spec = Spectrum(omega, analytic_intensity(pulse, omega))
        step = omega[1] - omega[0]
        assert first_zero_halfwidth_numeric(spec) == pytest.approx(2.0 * np.pi / tau, abs=step)

    def test_numeric_first_zero_monotone_errors(self):
        omega = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ValueError):
            first_zero_halfwidth_numeric(Spectrum(omega, omega))

    def test_numeric_first_zero_no_null(self):
        omega = np.linspace(-1.0, 1.0, 201)
        with pytest.raises(ValueError, match="no zero"):
            first_zero_halfwidth_numeric(Spectrum(omega, np.exp(-omega ** 2)))

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_fwhm_rectangular(self, tau):
        pulse = Pulse(1.0, 10.0, tau)
        omega = np.linspace(10.0 - 4.0 * np.pi / tau, 10.0 + 4.0 * np.pi / tau, 8192)
        spec = Spectrum(omega, analytic_intensity(pulse, omega))
        assert fwhm(spec) == pytest.approx(4.0 * HALF_U / tau, rel=1e-5)
        assert rectangular_fwhm(tau) == pytest.approx(4.0 * HALF_U / tau, rel=1e-12)

    def test_fwhm_reference_number(self):
        assert rectangular_fwhm(1.0) == pytest.approx(5.566, abs=5e-4)
        assert rectangular_fwhm(2.0) == pytest.approx(2.783, abs=3e-4)

    def test_fwhm_triangle(self):
        w = 2.0
        omega = np.linspace(-3.0, 3.0, 601)
        intensity = np.clip(1.0 - np.abs(omega) / w, 0.0, None)
        assert fwhm(Spectrum(omega, intensity)) == pytest.approx(w, rel=1e-12)

    def test_fwhm_not_crossed(self):
        omega = np.linspace(-1.0, 1.0, 51)
        intensity = 1.0 - 0.1 * omega ** 2  # never falls below half max
        with pytest.raises(ValueError, match="half"):
            fwhm(Spectrum(omega, intensity))

    def test_widths_scale_inversely_with_tau(self):
        for tau in [0.5, 1.0]:
            a = first_zero_halfwidth(Pulse(1.0, 5.0, tau))
            b = first_zero_halfwidth(Pulse(1.0, 5.0, 2.0 * tau))
            assert b == pytest.approx(a / 2.0, rel=1e-14)
            assert rectangular_fwhm(2.0 * tau) == pytest.approx(rectangular_fwhm(tau) / 2.0, rel=1e-14)


class TestMoments:
    def test_energy_moments_values(self):
        m = energy_moments(Pulse(1.0, 10.0, 2.0 * np.pi), hbar=1.0)
        assert m.mean_energy == 10.0
        assert m.delta_e_convention == pytest.approx(1.0, rel=1e-15)
        m2 = energy_moments(Pulse(1.0, 1.0, 1.0), hbar=1.0)
        assert m2.mean_energy == 1.0
        assert m2.delta_e_convention == 2.0 * np.pi

    def test_energy_moments_linear_in_hbar(self):
        m1 = energy_moments(Pulse(1.0, 3.0, 2.0), hbar=1.0)
        m2 = energy_moments(Pulse(1.0, 3.0, 2.0), hbar=2.0)
        assert m2.mean_energy == 2.0 * m1.mean_energy
        assert m2.delta_e_convention == 2.0 * m1.delta_e_convention

    def test_delta_e_identity(self):
        tau = 3.7
        m = energy_moments(Pulse(1.0, 1.0, tau), hbar=1.5)
        assert m.delta_e_convention * tau == pytest.approx(2.0 * np.pi * m.hbar, rel=1e-15)

    def test_bad_hbar(self):
        with pytest.raises(ValueError):
            energy_moments(Pulse(1.0, 1.0, 1.0), hbar=0.0)

    def test_mean_omega_symmetric(self):
        pulse = Pulse(1.0, 10.0, 2.0)
        omega = np.linspace(10.0 - 3.0 * np.pi, 10.0 + 3.0 * np.pi, 2001)
        spec = Spectrum(omega, analytic_intensity(pulse, omega))
        assert mean_omega_numeric(spec) == pytest.approx(10.0, rel=1e-9)

    def test_mean_omega_point_mass(self):
        spec = Spectrum(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        assert mean_omega_numeric(spec) == 3.0

    def test_mean_omega_two_samples(self):
        spec = Spectrum(np.array([1.0, 3.0]), np.array([0.7, 0.7]))
        assert mean_omega_numeric(spec) == 2.0

    def test_mean_omega_zero_intensity(self):
        spec = Spectrum(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="zero total intensity"):
            mean_omega_numeric(spec)
