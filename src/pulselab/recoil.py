"""Monte Carlo recoil directions for photon absorption at a localized point.

The photon's wave-vector magnitude k is fixed by the frequency, but its
direction is uniformly random over the 2*pi-steradian forward hemisphere
about the nominal propagation axis (+z).  Uniform-in-solid-angle means
cos(theta) ~ Uniform(0, 1] and phi ~ Uniform[0, 2*pi); the mean axial
momentum component is therefore k/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RecoilStats",
    "momentum_samples",
    "recoil_stats",
    "stats_and_samples",
]

GENERATOR = "numpy.random.Generator(PCG64)"


@dataclass(frozen=True)
class RecoilStats:
    n: int
    k: float
    mean_kz: float
    std_kz: float  # sample standard deviation (ddof=1); 0 by convention for n=1
    seed: int
    generator: str = field(default=GENERATOR)


def _check_args(k: float, n: int, seed: int) -> None:
    if not (np.isfinite(k) and k > 0.0):
        raise ValueError("k must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def _draw_angles(rng: np.random.Generator, n: int):
    cos_t = rng.random(n)
    np.subtract(1.0, cos_t, out=cos_t)  # uniform on (0, 1]: excludes the z = 0 rim
    phi = rng.random(n)
    np.multiply(2.0 * np.pi, phi, out=phi)
    return cos_t, phi


def _momenta(k: float, cos_t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Rows k * (sin_t cos_phi, sin_t sin_phi, cos_t), written column by column
    into the one (n, 3) result; the trig values stay contiguous."""
    out = np.empty((cos_t.size, 3))
    sin_t = cos_t * cos_t
    np.subtract(1.0, sin_t, out=sin_t)
    np.sqrt(sin_t, out=sin_t)
    trig = np.cos(phi)
    np.multiply(sin_t, trig, out=trig)
    np.multiply(k, trig, out=out[:, 0])
    np.sin(phi, out=trig)
    np.multiply(sin_t, trig, out=trig)
    np.multiply(k, trig, out=out[:, 1])
    np.multiply(k, cos_t, out=out[:, 2])
    return out


def _stats(k: float, n: int, seed: int, cos_t: np.ndarray) -> RecoilStats:
    mean_kz = k * float(np.mean(cos_t))
    std_kz = k * float(np.std(cos_t, ddof=1)) if n > 1 else 0.0
    return RecoilStats(n=n, k=k, mean_kz=mean_kz, std_kz=std_kz, seed=seed)


def _draw(k: float, n: int, seed: int) -> tuple[RecoilStats, np.ndarray, np.ndarray]:
    """One checked draw of n directions: ``(stats, cos_t, phi)``."""
    _check_args(k, n, seed)
    cos_t, phi = _draw_angles(np.random.default_rng(seed), n)
    return _stats(k, n, seed, cos_t), cos_t, phi


def momentum_samples(k: float, n: int, seed: int) -> np.ndarray:
    """(n, 3) array of recoil momenta k * direction; |row| = k per sample."""
    _check_args(k, n, seed)
    return _momenta(k, *_draw_angles(np.random.default_rng(seed), n))


def recoil_stats(k: float, n: int, seed: int) -> RecoilStats:
    """Mean and spread of the axial momentum component over n absorptions.

    Draws cos(theta) with the same stream layout as momentum_samples, so a
    per-sample dump made with the same seed matches these statistics.
    """
    return _draw(k, n, seed)[0]


def stats_and_samples(k: float, n: int, seed: int) -> tuple[RecoilStats, np.ndarray]:
    """``(recoil_stats(k, n, seed), momentum_samples(k, n, seed))`` from one draw."""
    stats, cos_t, phi = _draw(k, n, seed)
    return stats, _momenta(k, cos_t, phi)
