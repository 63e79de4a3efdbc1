import numpy as np
import pytest
from scipy.optimize import brentq

from pulselab import (
    AdjustmentResult,
    ComplexEnergy,
    ComplexObservable,
    EvaluationFailure,
    NoRootInRange,
    adjusted_energy_consistent,
    adjusted_energy_paper,
    expand_product,
    paper_offset,
    solve_imag_zero,
)


def linear_obs(e, de, t):
    return ComplexObservable(lambda z: complex(e, de) * z, t)


class TestExpandProduct:
    @pytest.mark.parametrize(
        "e,de,t,tau",
        [(2.0, 1.0, 1.0, -0.5), (1.0, 0.0, 1.0, 0.0), (2.0, 1.0, 1.0, 0.5),
         (-3.0, 0.7, 2.2, 1.4), (5.0, -2.0, -0.3, 0.9)],
    )
    def test_matches_complex_multiplication(self, e, de, t, tau):
        parts = expand_product(ComplexEnergy(e, de), t, tau)
        oracle = complex(e, de) * complex(t, tau)
        assert parts.re == pytest.approx(oracle.real, rel=1e-15, abs=1e-15)
        assert parts.im == pytest.approx(oracle.imag, rel=1e-15, abs=1e-15)

    def test_frozen_examples(self):
        assert expand_product(ComplexEnergy(2.0, 1.0), 1.0, -0.5) == (2.5, 0.0)
        assert expand_product(ComplexEnergy(1.0, 0.0), 1.0, 0.0) == (1.0, 0.0)
        assert expand_product(ComplexEnergy(2.0, 1.0), 1.0, 0.5) == (1.5, 2.0)


class TestSolveImagZero:
    def test_linear_example(self):
        res = solve_imag_zero(linear_obs(2.0, 1.0, 1.0))
        assert res.zeta == pytest.approx(-0.5, abs=1e-12)
        assert res.adjusted_value == pytest.approx(2.5, rel=1e-12)

    def test_already_real(self):
        res = solve_imag_zero(linear_obs(3.0, 0.0, 1.7))
        assert res.zeta == 0.0
        assert res.adjusted_value == 3.0 * 1.7
        assert res.residual_im == 0.0

    def test_square_root_at_origin(self):
        res = solve_imag_zero(ComplexObservable(lambda z: z * z, 1.0))
        assert res.zeta == 0.0
        assert res.adjusted_value == 1.0

    def test_residual_invariant(self):
        obs = ComplexObservable(lambda z: np.exp(z) + (1.0 + 2.0j) * z, 0.7)
        res = solve_imag_zero(obs, tol=1e-12)
        b = obs.evaluate(complex(obs.x0, res.zeta))
        assert abs(b.imag) <= 1e-12 * max(1.0, abs(b))

    def test_nonlinear_against_brentq(self):
        obs = ComplexObservable(lambda z: np.exp(z) + (1.0 + 2.0j) * z, 0.7)
        res = solve_imag_zero(obs)
        f = lambda zeta: (np.exp(complex(0.7, zeta)) + (1.0 + 2.0j) * complex(0.7, zeta)).imag
        oracle = brentq(f, -2.0, 0.0, xtol=1e-14)
        assert res.zeta == pytest.approx(oracle, abs=1e-10)

    def test_smallest_zeta_root(self):
        # Im B = sin(zeta - 0.3): roots at 0.3, 0.3 - pi, ...; nearest is 0.3
        obs = ComplexObservable(lambda z: 1.0 + 1j * np.sin(z.imag - 0.3), 0.0)
        res = solve_imag_zero(obs)
        assert res.zeta == pytest.approx(0.3, abs=1e-10)

    def test_no_root_in_range(self):
        with pytest.raises(NoRootInRange):
            solve_imag_zero(ComplexObservable(lambda z: 1j, 0.0), zeta_max=10.0)

    def test_evaluation_failure(self):
        with pytest.raises(EvaluationFailure):
            solve_imag_zero(ComplexObservable(lambda z: complex(np.nan, 1.0), 0.0))

    def test_deterministic_including_count(self):
        runs = [solve_imag_zero(linear_obs(2.0, 1.0, 1.0)) for _ in range(2)]
        assert runs[0] == runs[1]
        assert isinstance(runs[0], AdjustmentResult)

    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            solve_imag_zero(linear_obs(1.0, 1.0, 1.0), tol=0.0)
        with pytest.raises(ValueError):
            solve_imag_zero(linear_obs(1.0, 1.0, 1.0), zeta_max=-1.0)


class TestClosedForms:
    @pytest.mark.parametrize(
        "e,de,t,zeta,value",
        [(2.0, 1.0, 1.0, -0.5, 2.5), (5.0, 0.0, 3.0, 0.0, 15.0), (1.0, 0.5, 2.0, -1.0, 2.5)],
    )
    def test_consistent_examples(self, e, de, t, zeta, value):
        adj = adjusted_energy_consistent(ComplexEnergy(e, de), t)
        assert adj.zeta == pytest.approx(zeta, abs=1e-14)
        assert adj.value == pytest.approx(value, rel=1e-14)

    def test_consistent_matches_solver(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            e = rng.uniform(0.5, 8.0) * rng.choice([-1.0, 1.0])
            de = rng.uniform(0.05, 0.9) * e
            t = rng.uniform(0.2, 2.0)
            adj = adjusted_energy_consistent(ComplexEnergy(e, de), t)
            res = solve_imag_zero(linear_obs(e, de, t))
            assert res.zeta == pytest.approx(adj.zeta, abs=1e-10)
            assert res.adjusted_value == pytest.approx(adj.value, rel=1e-10)

    def test_consistent_zeroes_imaginary_part(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            ce = ComplexEnergy(rng.uniform(-5, 5) or 1.0, rng.uniform(-5, 5))
            t = rng.uniform(-3, 3)
            adj = adjusted_energy_consistent(ce, t)
            im = expand_product(ce, t, adj.zeta).im
            assert abs(im) <= 4.0 * np.finfo(float).eps * (abs(ce.de * t) + 1e-300)

    def test_consistent_zeroes_imaginary_part_exact_dyadic(self):
        ce = ComplexEnergy(2.0, 1.0)
        adj = adjusted_energy_consistent(ce, 1.0)
        assert expand_product(ce, 1.0, adj.zeta).im == 0.0

    @pytest.mark.parametrize("e,de,expected", [(1.0, 0.0, 1.0), (2.0, 1.0, 1.5), (1.0, 0.5, 0.75)])
    def test_paper_examples(self, e, de, expected):
        assert adjusted_energy_paper(ComplexEnergy(e, de)) == expected

    def test_paper_even_in_de(self):
        for e, de in [(2.0, 1.3), (-4.0, 0.7), (1.0, 3.0)]:
            assert adjusted_energy_paper(ComplexEnergy(e, de)) == adjusted_energy_paper(ComplexEnergy(e, -de))

    def test_zero_width_collapse(self):
        e, t = 3.7, 2.1
        assert adjusted_energy_paper(ComplexEnergy(e, 0.0)) == e
        adj = adjusted_energy_consistent(ComplexEnergy(e, 0.0), t)
        assert adj.zeta == 0.0 and adj.value == e * t

    @pytest.mark.parametrize("e,de,t", [(2.0, 1.0, 1.0), (3.0, 0.0, 2.0), (-4.0, 0.7, 0.3)])
    def test_paper_offset(self, e, de, t):
        ce = ComplexEnergy(e, de)
        zeta = paper_offset(ce, t)
        assert zeta == de * t / e
        assert zeta == -adjusted_energy_consistent(ce, t).zeta
        assert expand_product(ce, t, zeta).im == pytest.approx(2.0 * de * t, abs=1e-15)

    def test_zero_energy_errors(self):
        with pytest.raises(ZeroDivisionError):
            paper_offset(ComplexEnergy(0.0, 1.0), 1.0)
        with pytest.raises(ZeroDivisionError):
            adjusted_energy_paper(ComplexEnergy(0.0, 1.0))
        with pytest.raises(ZeroDivisionError):
            adjusted_energy_consistent(ComplexEnergy(0.0, 1.0), 1.0)
