"""Monte Carlo recoil directions for photon absorption at a localized point.

The photon's wave-vector magnitude k is fixed by the frequency, but its
direction is uniformly random over the 2*pi-steradian forward hemisphere
about the nominal propagation axis (+z).  Uniform-in-solid-angle means
cos(theta) ~ Uniform(0, 1] and phi ~ Uniform[0, 2*pi); the mean axial
momentum component is therefore k/2.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "RecoilStats",
    "momentum_samples",
    "recoil_stats",
]

GENERATOR = "numpy.random.Generator(PCG64)"


class RecoilStats(NamedTuple):
    n: int
    k: float
    mean_kz: float
    std_kz: float  # sample standard deviation (ddof=1); 0 by convention for n=1
    seed: int
    generator: str = GENERATOR


def _check_args(k: float, n: int, seed: int) -> None:
    if not (np.isfinite(k) and k > 0.0):
        raise ValueError("k must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def _draw_angles(rng: np.random.Generator, n: int):
    # cos_t, drawn first, is uniform on (0, 1]: it excludes the z = 0 rim.
    return 1.0 - rng.random(n), 2.0 * np.pi * rng.random(n)


def _momenta(k: float, cos_t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Rows k * (sin_t cos_phi, sin_t sin_phi, cos_t), written column by column
    into the one (n, 3) result, which stacking the columns would copy."""
    out = np.empty((cos_t.size, 3))
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    out[:, 0] = k * (sin_t * np.cos(phi))
    out[:, 1] = k * (sin_t * np.sin(phi))
    out[:, 2] = k * cos_t
    return out


def _draw(k: float, n: int, seed: int) -> tuple[RecoilStats, np.ndarray, np.ndarray]:
    """The draw of n directions and its statistics: ``(stats, cos_t, phi)``.
    The caller checks the arguments with ``_check_args``."""
    cos_t, phi = _draw_angles(np.random.default_rng(seed), n)
    mean_kz = k * float(np.mean(cos_t))
    std_kz = k * float(np.std(cos_t, ddof=1)) if n > 1 else 0.0
    return RecoilStats(n=n, k=k, mean_kz=mean_kz, std_kz=std_kz, seed=seed), cos_t, phi


def momentum_samples(k: float, n: int, seed: int) -> np.ndarray:
    """(n, 3) array of recoil momenta k * direction; |row| = k per sample."""
    _check_args(k, n, seed)
    return _momenta(k, *_draw_angles(np.random.default_rng(seed), n))


def recoil_stats(k: float, n: int, seed: int) -> RecoilStats:
    """Mean and spread of the axial momentum component over n absorptions.

    Draws cos(theta) with the same stream layout as momentum_samples, so a
    per-sample dump made with the same seed matches these statistics.
    """
    _check_args(k, n, seed)
    return _draw(k, n, seed)[0]
