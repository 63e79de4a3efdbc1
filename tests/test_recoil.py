import numpy as np
import pytest

import pulselab.recoil
from pulselab import (
    RecoilStats,
    momentum_samples,
    recoil_stats,
    stats_and_samples,
)


class TestMomentumSamples:
    def test_magnitude_fixed(self):
        k = 2.7
        samples = momentum_samples(k, 5000, seed=3)
        norms = np.linalg.norm(samples, axis=1)
        np.testing.assert_allclose(norms, k, rtol=1e-12)
        assert np.all((samples[:, 2] > 0.0) & (samples[:, 2] <= k))  # forward hemisphere

    def test_azimuthal_symmetry(self):
        n = 10 ** 6
        samples = momentum_samples(1.0, n, seed=4)
        # Var(sin th cos phi) = Var(sin th sin phi) = 1/3 on the hemisphere
        bound = 3.0 * np.sqrt(1.0 / 3.0 / n)
        assert abs(samples[:, 0].mean()) <= bound
        assert abs(samples[:, 1].mean()) <= bound

    def test_mean_axial_component(self):
        n = 10 ** 6
        kz = momentum_samples(1.0, n, seed=2)[:, 2]
        # <cos theta> over a uniform hemisphere is 1/2; std of U(0,1) is 1/sqrt(12)
        assert abs(kz.mean() - 0.5) <= 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(n)

    def test_matches_stats_stream(self):
        samples = momentum_samples(1.5, 1000, seed=9)
        stats = recoil_stats(1.5, 1000, seed=9)
        assert stats.mean_kz == pytest.approx(samples[:, 2].mean(), rel=1e-12)


class TestRecoilStats:
    def test_mean_within_three_sigma(self):
        n = 10 ** 6
        stats = recoil_stats(1.0, n, seed=7)
        assert abs(stats.mean_kz - 0.5) <= 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(n)

    def test_variance_converges(self):
        n = 10 ** 6
        stats = recoil_stats(1.0, n, seed=8)
        assert stats.std_kz ** 2 == pytest.approx(1.0 / 12.0, rel=0.05)

    def test_linear_in_k(self):
        s1 = recoil_stats(1.0, 10 ** 5, seed=11)
        s2 = recoil_stats(2.0, 10 ** 5, seed=11)
        assert s2.mean_kz == 2.0 * s1.mean_kz
        assert s2.std_kz == 2.0 * s1.std_kz

    def test_single_sample(self):
        stats = recoil_stats(1.0, 1, seed=13)
        samples = momentum_samples(1.0, 1, seed=13)
        assert stats.mean_kz == pytest.approx(samples[0, 2], rel=1e-15)
        assert stats.std_kz == 0.0

    def test_bit_identical_reruns(self):
        a = recoil_stats(1.3, 10 ** 4, seed=21)
        b = recoil_stats(1.3, 10 ** 4, seed=21)
        assert a == b
        assert isinstance(a, RecoilStats)
        assert a.generator == "numpy.random.Generator(PCG64)"
        assert 0.0 <= a.mean_kz <= a.k

    @pytest.mark.parametrize("k,n", [(0.0, 10), (-1.0, 10), (1.0, 0)])
    def test_invalid_args(self, k, n):
        with pytest.raises(ValueError):
            recoil_stats(k, n, seed=0)
        with pytest.raises(ValueError):
            momentum_samples(k, n, seed=0)
        with pytest.raises(ValueError):
            stats_and_samples(k, n, seed=0)


class TestStatsAndSamples:
    @pytest.mark.parametrize("k,n,seed", [(1.0, 1, 13), (2.5, 3, 0), (1.3, 10 ** 4, 21)])
    def test_equals_separate_draws(self, k, n, seed):
        stats, samples = stats_and_samples(k, n, seed)
        assert stats == recoil_stats(k, n, seed)
        np.testing.assert_array_equal(samples, momentum_samples(k, n, seed))


def reference_draw(k, n, seed):
    """The draw, statistics and momenta as written before they ran in place:
    ``(mean_kz, std_kz, (n, 3) momenta)``."""
    rng = np.random.default_rng(seed)
    cos_t = 1.0 - rng.random(n)
    phi = 2.0 * np.pi * rng.random(n)
    mean_kz = k * float(np.mean(cos_t))
    std_kz = k * float(np.std(cos_t, ddof=1)) if n > 1 else 0.0
    return mean_kz, std_kz, reference_momenta(k, cos_t, phi)


def reference_momenta(k, cos_t, phi):
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    return k * np.column_stack((sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


class TestReferenceGate:
    """Bit for bit against the reference expressions."""

    @pytest.mark.parametrize("k,n,seed", [(1.0, 1, 13), (2.5, 2, 0), (0.3, 7, 5), (1.3, 10 ** 4, 21),
                                          (7.0, 50001, 11)])
    def test_draw_stats_and_samples(self, k, n, seed):
        mean_kz, std_kz, momenta = reference_draw(k, n, seed)
        stats, samples = stats_and_samples(k, n, seed)
        assert (stats.mean_kz, stats.std_kz) == (mean_kz, std_kz)
        assert recoil_stats(k, n, seed) == stats
        assert_same_bits(samples, momenta)
        assert_same_bits(momentum_samples(k, n, seed), momenta)

    @pytest.mark.parametrize("n", [1, 3, 4097])
    def test_momenta(self, n):
        rng = np.random.default_rng(n)
        # the rim cos = 1, the pole-ward cos -> 0, and phi on and off the quadrants
        cos_t = np.concatenate([[1.0, 5e-324], rng.random(n)])
        phi = np.concatenate([[0.0, 0.5 * np.pi], 2.0 * np.pi * rng.random(n)])
        assert_same_bits(pulselab.recoil._momenta(2.5, cos_t, phi), reference_momenta(2.5, cos_t, phi))

    def test_sample_std_of_two(self):
        # cos_t = 1 - U: the sample (ddof = 1) spread of two draws is |d| / sqrt(2)
        u = np.random.default_rng(4).random(2)
        assert recoil_stats(1.0, 2, seed=4).std_kz == pytest.approx(abs(u[0] - u[1]) / np.sqrt(2.0), rel=1e-12)

    def test_negative_seed_names_the_seed(self):
        for fn in (recoil_stats, momentum_samples, stats_and_samples):
            with pytest.raises(ValueError, match="^seed must be nonnegative$"):
                fn(1.0, 10, -1)
