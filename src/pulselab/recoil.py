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
    "Direction",
    "RecoilStats",
    "sample_direction",
    "momentum_samples",
    "recoil_stats",
    "stats_and_samples",
]

GENERATOR = "numpy.random.Generator(PCG64)"


@dataclass(frozen=True)
class Direction:
    """Unit 3-vector on the z >= 0 hemisphere."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm2 = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")
        if self.z < 0.0:
            raise ValueError("direction must lie on the forward hemisphere")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class RecoilStats:
    n: int
    k: float
    mean_kz: float
    std_kz: float  # sample standard deviation (ddof=1); 0 by convention for n=1
    seed: int
    generator: str = field(default=GENERATOR)


def _check_args(k: float, n: int) -> None:
    if not (np.isfinite(k) and k > 0.0):
        raise ValueError("k must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")


def _draw_angles(rng: np.random.Generator, n: int):
    cos_t = 1.0 - rng.random(n)  # uniform on (0, 1]: excludes the z = 0 rim
    phi = 2.0 * np.pi * rng.random(n)
    return cos_t, phi


def sample_direction(rng: np.random.Generator) -> Direction:
    """One direction uniform in solid angle over the forward hemisphere."""
    cos_t, phi = _draw_angles(rng, 1)
    cos_t, phi = cos_t[0], phi[0]
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    return Direction(sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t)


def _momenta(k: float, cos_t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    return k * np.column_stack((sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t))


def _stats(k: float, n: int, seed: int, cos_t: np.ndarray) -> RecoilStats:
    mean_kz = k * float(np.mean(cos_t))
    std_kz = k * float(np.std(cos_t, ddof=1)) if n > 1 else 0.0
    return RecoilStats(n=n, k=k, mean_kz=mean_kz, std_kz=std_kz, seed=seed)


def momentum_samples(k: float, n: int, seed: int) -> np.ndarray:
    """(n, 3) array of recoil momenta k * direction; |row| = k per sample."""
    _check_args(k, n)
    return _momenta(k, *_draw_angles(np.random.default_rng(seed), n))


def recoil_stats(k: float, n: int, seed: int) -> RecoilStats:
    """Mean and spread of the axial momentum component over n absorptions.

    Draws cos(theta) with the same stream layout as momentum_samples, so a
    per-sample dump made with the same seed matches these statistics.
    """
    _check_args(k, n)
    cos_t, _ = _draw_angles(np.random.default_rng(seed), n)
    return _stats(k, n, seed, cos_t)


def stats_and_samples(k: float, n: int, seed: int) -> tuple[RecoilStats, np.ndarray]:
    """``(recoil_stats(k, n, seed), momentum_samples(k, n, seed))`` from one draw."""
    _check_args(k, n)
    cos_t, phi = _draw_angles(np.random.default_rng(seed), n)
    return _stats(k, n, seed, cos_t), _momenta(k, cos_t, phi)
