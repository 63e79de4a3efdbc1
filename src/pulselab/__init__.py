"""Finite-duration wave packets: spectra, widths, energy moments, the
complex-observable adjustment procedure, and hemisphere recoil sampling."""

from .adjustment import (
    AdjustmentResult,
    ComplexEnergy,
    ComplexObservable,
    EnergyAdjustment,
    EvaluationFailure,
    NoRootInRange,
    ProductParts,
    adjusted_energy_consistent,
    adjusted_energy_paper,
    expand_product,
    paper_offset,
    solve_imag_zero,
)
from .recoil import (
    RecoilStats,
    momentum_samples,
    recoil_stats,
    stats_and_samples,
)
from .spectral import (
    MomentReport,
    SampledWaveform,
    Spectrum,
    energy_moments,
    first_zero_halfwidth,
    first_zero_halfwidth_numeric,
    fourier_intensity,
    fwhm,
    mean_omega_numeric,
    rectangular_fwhm,
    uncertainty_product,
)
from .wavepacket import Pulse, analytic_intensity, peak_intensity, sample_waveform

__version__ = "0.1.0"

__all__ = [
    "AdjustmentResult",
    "ComplexEnergy",
    "ComplexObservable",
    "EnergyAdjustment",
    "EvaluationFailure",
    "MomentReport",
    "NoRootInRange",
    "ProductParts",
    "Pulse",
    "RecoilStats",
    "SampledWaveform",
    "Spectrum",
    "adjusted_energy_consistent",
    "adjusted_energy_paper",
    "analytic_intensity",
    "energy_moments",
    "expand_product",
    "first_zero_halfwidth",
    "first_zero_halfwidth_numeric",
    "fourier_intensity",
    "fwhm",
    "mean_omega_numeric",
    "momentum_samples",
    "paper_offset",
    "peak_intensity",
    "rectangular_fwhm",
    "recoil_stats",
    "sample_waveform",
    "solve_imag_zero",
    "stats_and_samples",
    "uncertainty_product",
]
