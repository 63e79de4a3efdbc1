import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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
from pulselab.spectral import (
    _HALFMAX_PHASE,
    _chirp_z_intensity,
    _direct_intensity,
    _nufft_intensity,
    _path,
    _uniform,
)


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

    @pytest.mark.parametrize("t", [[-1.7e308, 1.7e308], [-1.5e308, 1e308, 1.5e308]])
    def test_overflowing_step_refused(self, t):
        # np.diff gives inf, which passes a bare "> 0" test; the check refuses
        # it itself, so the overflow reaches the caller as this error alone.
        with pytest.raises(ValueError, match="^time grid spacing must be finite$"):
            SampledWaveform(np.array(t), np.ones(len(t), complex))
        with pytest.raises(ValueError, match="^omega grid spacing must be finite$"):
            Spectrum(np.array(t), np.ones(len(t)))

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


def jittered_waveform(n, t0=0.0, seed=3):
    """carrier_waveform with each interior time moved by up to 0.3 steps, as the
    benchmark's jittered spectrum-sampled inputs are."""
    t = np.linspace(t0, t0 + 2.0, n)
    t[1:-1] += np.random.default_rng(seed).uniform(-0.3, 0.3, n - 2) * (t[1] - t[0])
    return SampledWaveform(t, 1.3 * np.exp(10.0j * t))


class TestChirpZGate:
    @pytest.mark.parametrize("n,m,t0,halfwidths,stride", [
        (2048, 1001, 0.0, 2.5, 1),  # the benchmark's spectrum-sampled shape
        (20000, 4001, 0.0, 2.5, 8),
        (4096, 20001, 0.0, 2.5, 20),
        (2048, 1001, 100.0, 2.5, 1),  # time grid far from the origin
        (2, 2, 0.0, 0.1, 1),
        (3, 7, 0.0, 0.5, 1),
        (16, 200001, 0.0, 2.5, 200),  # over the chirp phase cap: the NUFFT
    ])
    def test_matches_direct(self, n, m, t0, halfwidths, stride):
        # The direct reference runs on every stride-th omega (the peak included)
        # to keep the largest shapes fast; fourier_intensity sees the full grid.
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
        # A non-uniform omega grid takes the direct quadrature, whatever the time grid.
        stretched = 10.0 + 4.0 * np.sinh(np.linspace(-1.0, 1.0, 201)) / np.sinh(1.0)
        assert not _uniform(stretched)
        for wave in (carrier_waveform(512), jittered_waveform(512)):
            np.testing.assert_array_equal(fourier_intensity(wave, stretched).intensity,
                                          _direct_intensity(wave.amp, wave.t, stretched))

    def test_import_does_not_load_numpy_fft(self):
        src = os.path.dirname(os.path.dirname(pulselab.__file__))
        code = "import sys, pulselab, pulselab.cli; print('numpy.fft' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.strip() == "False"


class TestBlockedGate:
    """The nonuniform FFT, which a uniform omega grid takes unless the chirp-z
    path does, against the direct quadrature at CHIRP_Z_GATE of the peak, on
    jittered and arbitrary time grids.

    The kernel is called directly, so that grids the dispatch sends to the
    chirp-z path (N = 2 is always uniform) are covered too.  The class is
    named after the angle-addition ("blocked") kernel that the NUFFT
    replaced, and keeps that name so that its test ids stay stable."""

    @pytest.mark.parametrize("n,m,t0,halfwidths,stride", [
        (2048, 1001, 0.0, 2.5, 1),  # the benchmark's jittered spectrum-sampled shape
        (2048, 1001, 100.0, 2.5, 1),
        (2048, 1001, 1000.0, 2.5, 1),
        (2048, 20001, 0.0, 2.5, 20),
        (8192, 4001, 0.0, 2.5, 8),
        (4096, 20001, 0.0, 2.5, 20),
        (512, 1024, 0.0, 2.5, 1),  # M a power of two: L = 2M exactly
        (512, 6, 0.0, 2.5, 1),
        (512, 7, 0.0, 2.5, 1),
        (512, 10, 0.0, 2.5, 1),
        (512, 3, 0.0, 2.5, 1),
        (512, 2, 0.0, 0.25, 1),
        (2, 2, 0.0, 0.1, 1),
        (2, 5, 0.0, 0.5, 1),
    ])
    def test_matches_direct(self, n, m, t0, halfwidths, stride):
        # The direct reference runs on every stride-th omega (the peak included).
        wf = jittered_waveform(n, t0)
        half = halfwidths * np.pi
        omega = np.linspace(10.0 - half, 10.0 + half, m)
        fast = _nufft_intensity(wf.amp, wf.t, omega)[::stride]
        ref = _direct_intensity(wf.amp, wf.t, omega[::stride])
        assert np.max(np.abs(fast - ref)) <= CHIRP_Z_GATE * ref.max()

    def test_far_time_origin(self):
        # The offsets t - t[0] are exact here (Sterbenz), so the direct sum over
        # them is an accurate reference; a sum over t itself would lose
        # ~eps * |omega * t| = 4e-9 rad per term.
        wf = jittered_waveform(2048)
        t = 1e6 + wf.t
        omega = np.linspace(10.0 - 2.5 * np.pi, 10.0 + 2.5 * np.pi, 1001)
        fast = _nufft_intensity(wf.amp, t, omega)
        ref = _direct_intensity(wf.amp, t - t[0], omega)
        assert np.max(np.abs(fast - ref)) <= CHIRP_Z_GATE * ref.max()

    @settings(max_examples=60, deadline=None)
    @given(gaps=st.lists(st.floats(0.001, 0.1), min_size=1, max_size=300),
           t0=st.floats(-5.0, 5.0), omega0=st.floats(-10.0, 10.0),
           half=st.floats(0.1, 20.0), k=st.integers(1, 150),
           noise=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 16))
    def test_random_time_grids(self, gaps, t0, omega0, half, k, noise, seed):
        # A carrier at the middle omega, so the peak is about the duration
        # squared, with seeded complex noise on the amplitudes.  |omega * t|
        # stays below ~1e3, where the direct reference's own phase rounding
        # is far below the gate.
        t = t0 + np.concatenate(([0.0], np.cumsum(gaps)))
        assume(np.all(np.diff(t) > 0.0))
        rng = np.random.default_rng(seed)
        amp = np.exp(1j * omega0 * t) * (1.0 + noise * (rng.normal(size=t.size)
                                                         + 1j * rng.normal(size=t.size)))
        omega = np.linspace(omega0 - half, omega0 + half, 2 * k + 1)
        fast = _nufft_intensity(amp, t, omega)
        ref = _direct_intensity(amp, t, omega)
        assert np.max(np.abs(fast - ref)) <= CHIRP_Z_GATE * ref.max()


SPAN = np.linspace(10.0 - 2.5 * np.pi, 10.0 + 2.5 * np.pi, 1001)
WIDE_SPAN = np.linspace(10.0 - 2.5 * np.pi, 10.0 + 2.5 * np.pi, 200001)


class TestPathRule:
    """fourier_intensity returns, bit for bit, what the kernel ``_path`` picks
    returns for shapes of both classes of uniform omega grids, within
    CHIRP_Z_GATE of the direct sum.  test_non_uniform_grids_take_direct_path
    pins the third class."""

    @pytest.mark.parametrize("wf,omega,kernel,stride", [
        (carrier_waveform(2048), SPAN, _chirp_z_intensity, 1),
        (jittered_waveform(2048), SPAN, _nufft_intensity, 1),
        (jittered_waveform(512), np.linspace(6.0, 14.0, 201), _nufft_intensity, 1),
        (carrier_waveform(16), WIDE_SPAN, _nufft_intensity, 200),  # over the chirp phase cap
        (jittered_waveform(16), WIDE_SPAN, _nufft_intensity, 200),
    ], ids=["uniform-2048x1001", "jittered-2048x1001", "jittered-512x201", "uniform-16x200001",
            "jittered-16x200001"])
    def test_path(self, wf, omega, kernel, stride):
        assert _path(wf.t, omega) is kernel
        fast = fourier_intensity(wf, omega).intensity
        np.testing.assert_array_equal(fast, kernel(wf.amp, wf.t, omega))
        ref = _direct_intensity(wf.amp, wf.t, omega[::stride])
        assert np.max(np.abs(fast[::stride] - ref)) <= CHIRP_Z_GATE * ref.max()


# Relative bound on a sampled first-null half-width at >= 7 samples per
# half-width; 5x the worst error measured there.
WIDTH_RTOL = 5e-3


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

    @settings(max_examples=60, deadline=None)
    @given(tau=st.floats(1.0, 4.0), omega0=st.floats(5.0, 40.0), below=st.floats(1.5, 3.5),
           above=st.floats(1.5, 3.5), per_halfwidth=st.floats(7.0, 200.0), jittered=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_numeric_first_zero_on_any_grid(self, tau, omega0, below, above, per_halfwidth, jittered, seed):
        # The omega grid runs from `below` to `above` half-widths either side of
        # omega0 with `per_halfwidth` points per half-width, so a null falls
        # anywhere between samples.  A scan for a sample near zero would take
        # the second null here (a width of 4*pi/tau) or find none.  The worst
        # error measured over this space was 1.0e-3, at 7 points per half-width.
        t = np.linspace(0.0, tau, 2048)
        if jittered:
            t[1:-1] += np.random.default_rng(seed).uniform(-0.3, 0.3, t.size - 2) * (t[1] - t[0])
        half = 2.0 * np.pi / tau
        points = int((below + above) * per_halfwidth) + 1
        start = omega0 - below * half
        omega = np.linspace(start, start + (points - 1) * half / per_halfwidth, points)
        spec = fourier_intensity(SampledWaveform(t, 1.3 * np.exp(1j * omega0 * t)), omega)
        assert first_zero_halfwidth_numeric(spec) == pytest.approx(half, rel=WIDTH_RTOL)

    @pytest.mark.parametrize("grid", ["uniform", "jittered", "stretched"])
    def test_numeric_first_zero_one_side(self, grid):
        # The grid starts above the lower null (10 - pi), so the half-width is
        # measured from the peak; the peak sample sits 2.4e-3 of pi off it.
        t = np.linspace(0.0, 2.0, 2048)
        omega = np.linspace(8.01, 16.0, 301)
        if grid == "jittered":
            omega[1:-1] += np.random.default_rng(1).uniform(-0.3, 0.3, 299) * (omega[1] - omega[0])
        elif grid == "stretched":
            omega = 8.01 + 7.99 * np.linspace(0.0, 1.0, 301) ** 1.3
        spec = fourier_intensity(SampledWaveform(t, np.exp(10j * t)), omega)
        assert first_zero_halfwidth_numeric(spec) == pytest.approx(np.pi, rel=1e-6)

    def test_numeric_first_zero_monotone_errors(self):
        omega = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ValueError):
            first_zero_halfwidth_numeric(Spectrum(omega, omega))

    def test_numeric_first_zero_no_null(self):
        omega = np.linspace(-1.0, 1.0, 201)
        with pytest.raises(ValueError, match="no zero"):
            first_zero_halfwidth_numeric(Spectrum(omega, np.exp(-omega ** 2)))

    def test_numeric_first_zero_dip_is_not_a_null(self):
        # Two overlapping peaks: the dip between them is a local minimum, but
        # the amplitude does not change sign there, which the cubic fit sees.
        omega = np.linspace(-4.0, 4.0, 401)
        intensity = np.exp(-(omega - 1.0) ** 2) + 0.8 * np.exp(-(omega + 1.0) ** 2)
        with pytest.raises(ValueError, match="no zero"):
            first_zero_halfwidth_numeric(Spectrum(omega, intensity))

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

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["right-only", "left-only"])
    def test_fwhm_crossed_on_one_side_only(self, side):
        omega = side * np.linspace(-0.5, 3.0, 71)[::int(side)]
        intensity = np.exp(-omega ** 2)  # half max at |omega| = 0.83; the grid stops at 0.5 on one side
        with pytest.raises(ValueError, match="half"):
            fwhm(Spectrum(omega, intensity))

    def test_halfmax_phase_within_one_ulp(self):
        # 2*sin(u)^2 - u^2 has its root in (0, pi) within one ulp of _HALFMAX_PHASE.
        u = _HALFMAX_PHASE
        g = [2.0 * math.sin(x) ** 2 - x * x for x in (math.nextafter(u, 0.0), u, math.nextafter(u, 4.0))]
        assert g[1] == 0.0 or (g[0] > 0.0) != (g[2] > 0.0)

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
