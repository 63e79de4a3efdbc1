"""Working memory of the bulk paths, as tracemalloc's heap peak per output
row (numpy reports its array buffers to tracemalloc).

Bounds are per row at n = 2e5, where the fixed costs (one emit block of
text, the parser) are a few bytes per row.  Whole-array temporaries cost 8 B
per row each: the kernels that kept every intermediate as its own array
measured 73 B per point and 64 B per dumped sample, and the NUFFT that spread
every sample at once ~730 B per sample.
"""

import tracemalloc

import numpy as np

from pulselab import Pulse, analytic_intensity, momentum_samples
from pulselab.cli import main
from pulselab.spectral import _nufft_intensity

N = 200_000


def heap_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analytic_intensity():
    # the caller's grid is not counted; the result is
    grid = np.linspace(4.0, 16.0, N)
    assert heap_peak(lambda: analytic_intensity(Pulse(1.0, 10.0, 2.0), grid)) / N <= 40


def test_recoil_dump(tmp_path):
    argv = ["recoil", "--k", "1", "--n", str(N), "--seed", "7",
            "--dump", str(tmp_path / "d.csv"), "--output", str(tmp_path / "r.json")]
    codes = []
    assert heap_peak(lambda: codes.append(main(argv))) / N <= 32
    assert codes == [0]


def test_nufft_intensity():
    # a jittered time grid; spreading every sample at once took ~730 B each
    t = np.linspace(0.0, 2.0, N)
    t[1:-1] += np.random.default_rng(5).uniform(-0.3, 0.3, N - 2) * (t[1] - t[0])
    amp = np.exp(10j * t)
    omega = np.linspace(10.0 - 2.5 * np.pi, 10.0 + 2.5 * np.pi, 1001)
    assert heap_peak(lambda: _nufft_intensity(amp, t, omega)) / N <= 120


def test_momentum_samples():
    # the (n, 3) result is 24 B per sample; np.column_stack of the three columns read 72 B
    momentum_samples(1.0, 10, 3)  # warm: the first call's one-off allocations are not per sample
    assert heap_peak(lambda: momentum_samples(1.0, N, 3)) / N <= 60
