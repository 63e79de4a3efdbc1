import numpy as np
import pytest

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
