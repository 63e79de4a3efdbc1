"""Adjustment of complex-valued observables by analytic continuation.

A computed quantity B comes out complex; its argument x is continued to
x + i*zeta and zeta is chosen so that Im B vanishes, leaving Re B as the
adjusted real value.  For the linear energy case B(z) = (E + i*dE) * z two
closed forms are provided: the self-consistent one (the continuation offset
that actually zeroes the imaginary part) and the literal published one,
which drops a sign and leaves a nonzero imaginary residual.  Both are kept
and reported side by side; this module does not pick a winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "ComplexObservable",
    "AdjustmentResult",
    "ComplexEnergy",
    "EnergyAdjustment",
    "ProductParts",
    "NoRootInRange",
    "EvaluationFailure",
    "solve_imag_zero",
    "adjusted_energy_consistent",
    "adjusted_energy_paper",
    "paper_offset",
    "expand_product",
]


class NoRootInRange(ValueError):
    """No sign change of Im B found within the search interval."""


class EvaluationFailure(RuntimeError):
    """The observable returned a non-finite value during the solve."""


@dataclass(frozen=True)
class ComplexObservable:
    """A map from one complex argument to one complex value, with the
    nominal real argument ``x0`` at which the continuation starts."""

    evaluate: Callable[[complex], complex]
    x0: float = 0.0


@dataclass(frozen=True)
class AdjustmentResult:
    zeta: float  # imaginary offset added to the argument
    adjusted_value: float  # Re B(x0 + i*zeta)
    residual_im: float  # |Im B(x0 + i*zeta)|
    evaluations: int


@dataclass(frozen=True)
class ComplexEnergy:
    """Real energy ``e`` plus level width ``de`` (imaginary part), same units."""

    e: float
    de: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e) and math.isfinite(self.de)):
            raise ValueError("energy components must be finite")


class EnergyAdjustment(NamedTuple):
    zeta: float
    value: float


class ProductParts(NamedTuple):
    re: float
    im: float


def solve_imag_zero(
    obs: ComplexObservable,
    zeta_max: float | None = None,
    tol: float = 1e-12,
) -> AdjustmentResult:
    """Find the root of zeta -> Im B(x0 + i*zeta) with smallest |zeta|.

    Brackets by geometric expansion outward from zero (factor 2, starting
    at +-tol; the positive side is probed first at each scale), then
    refines by alternating secant and bisection steps until
    |Im B| <= tol * max(1, |B|).  The observable is invoked sequentially;
    the call count is reported in the result.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive")
    if zeta_max is None:
        zeta_max = 1e6 * max(1.0, abs(obs.x0))
    if not (zeta_max > 0.0 and math.isfinite(zeta_max)):
        raise ValueError("zeta_max must be positive")

    evaluations = 0

    def probe(zeta: float) -> complex:
        nonlocal evaluations
        evaluations += 1
        b = complex(obs.evaluate(complex(obs.x0, zeta)))
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise EvaluationFailure(
                f"evaluation failure: B({obs.x0!r} + {zeta!r}i) = {b!r}"
            )
        return b

    def converged(b: complex) -> bool:
        return abs(b.imag) <= tol * max(1.0, abs(b))

    def result(zeta: float, b: complex) -> AdjustmentResult:
        return AdjustmentResult(zeta, b.real, abs(b.imag), evaluations)

    b0 = probe(0.0)
    if converged(b0):
        return result(0.0, b0)

    bracket = None
    last = {1: (0.0, b0.imag), -1: (0.0, b0.imag)}
    h = min(tol, zeta_max)
    while bracket is None:
        for side in (1, -1):
            z = side * h
            b = probe(z)
            if converged(b):
                return result(z, b)
            f = b.imag
            z_prev, f_prev = last[side]
            if (f > 0.0) != (f_prev > 0.0):
                bracket = (z_prev, f_prev, z, f)
                break
            last[side] = (z, f)
        else:
            if h >= zeta_max:
                raise NoRootInRange(
                    f"no root in range: Im B keeps its sign for |zeta| <= {zeta_max!r}"
                )
            h = min(2.0 * h, zeta_max)

    a, fa, b_end, fb = bracket
    use_secant = True
    for _ in range(300):
        lo, hi = (a, b_end) if a < b_end else (b_end, a)
        z = None
        if use_secant and fb != fa:
            z = b_end - fb * (b_end - a) / (fb - fa)
        if z is None or not (lo < z < hi):
            z = 0.5 * (lo + hi)
        use_secant = not use_secant
        if z == lo or z == hi:
            break  # bracket exhausted at float resolution
        bv = probe(z)
        if converged(bv):
            return result(z, bv)
        f = bv.imag
        if (f > 0.0) == (fa > 0.0):
            a, fa = z, f
        else:
            b_end, fb = z, f
    raise EvaluationFailure(
        "root refinement stalled before reaching the residual tolerance; "
        "is Im B continuous across the bracket?"
    )


def expand_product(ce: ComplexEnergy, t: float, tau: float) -> ProductParts:
    """Real and imaginary parts of (e + i*de) * (t + i*tau)."""
    return ProductParts(re=ce.e * t - ce.de * tau, im=ce.e * tau + ce.de * t)


def adjusted_energy_consistent(ce: ComplexEnergy, t: float) -> EnergyAdjustment:
    """Continuation offset and adjusted value that zero the imaginary part.

    zeta = -de*t/e makes expand_product(ce, t, zeta).im vanish identically;
    the adjusted value is then (e + de^2/e) * t.
    """
    if ce.e == 0.0:
        raise ZeroDivisionError("adjustment undefined for E = 0")
    zeta = -(ce.de * t) / ce.e
    value = (ce.e + (ce.de * ce.de) / ce.e) * t
    return EnergyAdjustment(zeta=zeta, value=value)


def adjusted_energy_paper(ce: ComplexEnergy) -> float:
    """The literal published adjusted energy: e - de^2/e.

    This follows the unsigned continuation offset de*t/e and does NOT zero
    the imaginary part of the expanded product when de != 0 (the residual
    is 2*de*t); kept verbatim so both conventions can be compared.
    """
    if ce.e == 0.0:
        raise ZeroDivisionError("adjustment undefined for E = 0")
    return ce.e - (ce.de * ce.de) / ce.e


def paper_offset(ce: ComplexEnergy, t: float) -> float:
    """The unsigned continuation offset de*t/e of the published adjustment.

    It has the opposite sign of adjusted_energy_consistent's zeta, so
    expand_product(ce, t, paper_offset(ce, t)).im is 2*de*t, not 0.
    """
    if ce.e == 0.0:
        raise ZeroDivisionError("adjustment undefined for E = 0")
    return ce.de * t / ce.e
