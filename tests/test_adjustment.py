import cmath
import inspect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pulselab import (
    AdjustmentResult,
    ComplexEnergy,
    ComplexObservable,
    EvaluationFailure,
    MomentReport,
    NoRootInRange,
    Pulse,
    RecoilStats,
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

    @pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
    def test_non_finite_x0_refused_before_evaluating(self, x0):
        calls = []
        with pytest.raises(ValueError, match="^x0 must be finite$"):
            solve_imag_zero(ComplexObservable(calls.append, x0))
        assert calls == []

    def test_default_range_near_the_largest_double(self):
        # 1e6 * |x0| overflows; the default range stops at the largest double.
        res = solve_imag_zero(linear_obs(2.0, 1.0, 1e303))
        assert res.zeta == pytest.approx(-5e302, rel=1e-12)

    def test_deterministic_including_count(self):
        runs = [solve_imag_zero(linear_obs(2.0, 1.0, 1.0)) for _ in range(2)]
        assert runs[0] == runs[1]
        assert isinstance(runs[0], AdjustmentResult)

    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            solve_imag_zero(linear_obs(1.0, 1.0, 1.0), tol=0.0)
        with pytest.raises(ValueError):
            solve_imag_zero(linear_obs(1.0, 1.0, 1.0), zeta_max=-1.0)


def im_b(f):
    """An observable whose imaginary part is f(zeta) and real part 1."""
    return ComplexObservable(lambda z: complex(1.0, f(z.imag)), 0.0)


def scan_oracle(obs, span, step=1e-2):
    """brentq on the sign change nearest zero found by a dense scan of Im B."""
    f = lambda zeta: obs.evaluate(complex(obs.x0, zeta)).imag
    grid = np.arange(-span, span + step / 2, step)
    values = np.array([f(z) for z in grid])
    changes = np.flatnonzero(np.sign(values[1:]) != np.sign(values[:-1]))
    i = min(changes, key=lambda k: min(abs(grid[k]), abs(grid[k + 1])))
    return brentq(f, grid[i], grid[i + 1], xtol=1e-14)


class TestSolverBracket:
    def test_zero_slope_at_origin(self):
        # Im B = cos(zeta) - 0.5 has slope 0 at zero; roots at +-pi/3
        res = solve_imag_zero(im_b(lambda zeta: math.cos(zeta) - 0.5))
        assert res.zeta == pytest.approx(math.pi / 3, abs=1e-10)

    def test_nearest_of_three_roots(self):
        res = solve_imag_zero(im_b(lambda zeta: (zeta - 0.1) * (zeta - 0.2) * (zeta + 5.0)))
        assert res.zeta == pytest.approx(0.1, abs=1e-10)

    @pytest.mark.parametrize("root", [1e-9, -1e-9, 1e4, -1e4])
    def test_roots_far_from_unit_scale(self, root):
        # (1 - i*root) * z at x0 = 1: Im B = zeta - root
        res = solve_imag_zero(ComplexObservable(lambda z: complex(1.0, -root) * z, 1.0))
        assert res.zeta == pytest.approx(root, rel=1e-10)
        assert res.residual_im <= 1e-12 * max(1.0, abs(complex(1.0, -root) * complex(1.0, res.zeta)))

    @settings(max_examples=60, deadline=None)
    @given(e=st.floats(0.5, 5.0), ratio=st.floats(0.05, 2.0), t=st.floats(0.1, 1.0),
           nonlinear=st.booleans())
    def test_matches_dense_scan(self, e, ratio, t, nonlinear):
        """The benchmark's two observable families against brentq."""
        if nonlinear:
            obs = ComplexObservable(lambda z: cmath.exp(1j * z) * (e + z), t)
        else:
            obs = ComplexObservable(lambda z: complex(e, ratio * e) * z, t)
        res = solve_imag_zero(obs)
        b = obs.evaluate(complex(t, res.zeta))
        assert res.residual_im == abs(b.imag) <= 1e-12 * max(1.0, abs(b))
        assert res.zeta == pytest.approx(scan_oracle(obs, span=12.0), abs=1e-10)

    def test_first_rung_brackets_the_negative_side(self):
        # Im B = 1000*zeta + 0.05: the scale r = 5e-5 puts the ladder's start
        # at tol = 2e-4, above the +-1e-4 probes, so they are the first rung
        # and only the -1e-4 one changes sign.
        res = solve_imag_zero(ComplexObservable(lambda z: (1000.0 + 1.0j) * z, 0.05), tol=2e-4)
        assert (res.zeta, res.evaluations) == (-5e-05, 4)

    @pytest.mark.parametrize("root,zeta_max,evaluations", [(1e-4, None, 2), (-1e-4, None, 3), (5.0, 5.0, 10)],
                             ids=["model-probe+d", "model-probe-d", "rung-at-zeta_max"])
    def test_probe_on_the_root_returns_it(self, root, zeta_max, evaluations):
        # Im B = zeta - root at x0 = 0: a +-1e-4 model probe, or the ladder's
        # rung capped at zeta_max, lands on the root exactly.
        res = solve_imag_zero(ComplexObservable(lambda z: z - complex(0.0, root), 0.0), zeta_max=zeta_max)
        assert (res.zeta, res.evaluations) == (root, evaluations)

    def test_no_root_message_ends_with_probes(self):
        with pytest.raises(NoRootInRange, match=r"last probes \(zeta, Im B\): .*\(-10\.0, 1\)$"):
            solve_imag_zero(ComplexObservable(lambda z: 1j, 0.0), zeta_max=10.0)

    def test_stalled_message_ends_with_probes(self):
        # Im B jumps from -1 to +1 at 0.3: the bracket closes on 0.3 at float
        # resolution without the residual ever falling
        obs = im_b(lambda zeta: 1.0 if zeta > 0.3 else -1.0)
        with pytest.raises(EvaluationFailure, match=r"stalled.*last probes \(zeta, Im B\): \(0\.(2999|3)\d*, -?1\)"):
            solve_imag_zero(obs)


# Each observable of the solver's evaluation table, with x0.  A ladder started
# at +-tol takes 64-100 evaluations on these and one started at the
# observable's own scale 12-20, so a budget of 25 catches the long ladder.
BUDGET_CASES = {
    "(2+i)z": (lambda z: (2.0 + 1.0j) * z, 1.0),
    "exp(iz)(3+z)": (lambda z: cmath.exp(1j * z) * (3.0 + z), 0.7),
    "(1e3+i)z": (lambda z: (1e3 + 1.0j) * z, 1.0),
    "(5+0.3i)z": (lambda z: (5.0 + 0.3j) * z, 2.0),
    "exp(z)+(1+2i)z": (lambda z: np.exp(z) + (1.0 + 2.0j) * z, 0.7),
}


@pytest.mark.parametrize("name", BUDGET_CASES)
def test_evaluation_budget(name):
    evaluate, x0 = BUDGET_CASES[name]
    res = solve_imag_zero(ComplexObservable(evaluate, x0))
    assert res.evaluations <= 25
    assert solve_imag_zero(ComplexObservable(evaluate, x0)) == res


@pytest.mark.parametrize("x0", [1e13, 1e15, 1e100, 1e300, -1e200])
def test_model_step_scales_with_x0(x0):
    # An absolute +-1e-4 step falls below the resolution of Im B past
    # |x0| ~ 1e13, and the ladder then took 116 to 2022 evaluations.
    res = solve_imag_zero(ComplexObservable(lambda z: (2.0 + 1.0j) * z, x0))
    assert res.zeta == -x0 / 2
    assert res.evaluations <= 20


# 200 draws like the benchmark's adjust tasks: (e, de, t) with e ~ U(0.5, 5),
# de = U(0.05, 2) * e and t ~ U(0.1, 1).
_rng = random.Random(2024)
CORPUS = [(e, _rng.uniform(0.05, 2.0) * e, _rng.uniform(0.1, 1.0))
          for e in (_rng.uniform(0.5, 5.0) for _ in range(200))]


def stiff_cubic(e, de, t):
    """B(z) = (e + i*de)*z + ((z - t)/0.01)**3 in float arithmetic, which no
    libm or fused multiply-add can change.  Its root lies near zeta ~ 0.01,
    where the +-_MODEL_STEP probes' model depends on the step."""
    def evaluate(z):
        x, y = (z.real - t) / 0.01, z.imag / 0.01
        return complex(e * z.real - de * z.imag + x * x * x - 3.0 * x * y * y,
                       e * z.imag + de * z.real + 3.0 * x * x * y - y * y * y)
    return evaluate


def corpus_evaluations(observable):
    return [solve_imag_zero(ComplexObservable(observable(e, de, t), t)).evaluations for e, de, t in CORPUS]


class TestEvaluationCounts:
    """The solver's evaluation counts over CORPUS, pinned on both sides: a
    change to the model step, the ladder's start or the refinement moves them.
    A change that makes the solver faster lowers them and says so in CHANGES.md.
    Measured mutants: _LADDER_START 1/6 -> 1/1.5 gives 1600, 3060 and
    3225 (fewer, so the pins are two-sided); Chandrupatla's fallback
    t = 0.5 -> 0.3 gives 3842 and 2770; _MODEL_STEP 1e-4 -> 1e-2 moves only
    the stiff cubic, to 3248."""

    def test_linear(self):
        assert corpus_evaluations(lambda e, de, t: (lambda z: complex(e, de) * z)) == [12] * 200

    def test_stiff_cubic(self):
        assert sum(corpus_evaluations(stiff_cubic)) == 2818

    def test_benchmark_nonlinear(self):
        # e^{iz}(e + z) goes through libm's exp, cos and sin, whose last bits
        # may differ between hosts; 3840 in total and 27 at most where measured.
        counts = corpus_evaluations(lambda e, de, t: (lambda z: cmath.exp(1j * z) * (e + z)))
        assert 3800 <= sum(counts) <= 3880 and max(counts) <= 30


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


# Each record type with one value per field, keyed by field name in field order.
RECORDS = [
    (ComplexObservable, {"evaluate": abs, "x0": 0.5}),
    (AdjustmentResult, {"zeta": 0.25, "adjusted_value": 2.5, "residual_im": 0.0, "evaluations": 7}),
    (ComplexEnergy, {"e": 2.0, "de": 1.0}),
    (Pulse, {"a0": 2.0, "omega0": 5.0, "tau": 1.5}),
    (MomentReport, {"mean_omega": 5.0, "mean_energy": 7.5, "delta_e_convention": 6.25, "hbar": 1.5}),
    (RecoilStats, {"n": 3, "k": 1.5, "mean_kz": 0.75, "std_kz": 0.25, "seed": 7, "generator": "PCG64"}),
]


class TestRecords:
    @pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
    def test_public_shape(self, cls, fields):
        assert list(inspect.signature(cls).parameters) == list(fields)
        record = cls(**fields)
        assert [getattr(record, name) for name in fields] == list(fields.values())
        assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
        same = cls(*fields.values())
        assert record == same and hash(record) == hash(same)
        assert record != cls(**{**fields, list(fields)[-1]: 3})
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)

    def test_x0_defaults_to_zero(self):
        assert ComplexObservable(abs).x0 == 0.0

    @pytest.mark.parametrize("e,de", [(math.inf, 1.0), (1.0, math.nan), (-math.inf, -math.inf)])
    def test_non_finite_energy_refused(self, e, de):
        with pytest.raises(ValueError, match="^energy components must be finite$"):
            ComplexEnergy(e, de)
        with pytest.raises(ValueError, match="^energy components must be finite$"):
            ComplexEnergy(e=e, de=de)

    def test_replace_checks_like_construction(self):
        ce = ComplexEnergy(2.0, 1.0)
        assert ce._replace(de=-1.0) == ComplexEnergy(2.0, -1.0)
        with pytest.raises(ValueError, match="^energy components must be finite$"):
            ce._replace(e=math.inf)
