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
import sys
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


class ComplexObservable(NamedTuple):
    """A map from one complex argument to one complex value, with the
    nominal real argument ``x0`` at which the continuation starts."""

    evaluate: Callable[[complex], complex]
    x0: float = 0.0


class AdjustmentResult(NamedTuple):
    zeta: float  # imaginary offset added to the argument
    adjusted_value: float  # Re B(x0 + i*zeta)
    residual_im: float  # |Im B(x0 + i*zeta)|
    evaluations: int


class _Checked:
    """Put ahead of the NamedTuple base of a record whose ``__new__`` checks its
    fields: ``_make``, and so ``_replace``, builds through that ``__new__``."""

    __slots__ = ()  # gives the records no instance dict

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _ComplexEnergyFields(NamedTuple):
    e: float
    de: float


class ComplexEnergy(_Checked, _ComplexEnergyFields):
    """Real energy ``e`` plus level width ``de`` (imaginary part), same units."""

    __slots__ = ()  # no instance dict: immutable like its base

    def __new__(cls, e: float, de: float) -> ComplexEnergy:
        if not (math.isfinite(e) and math.isfinite(de)):
            raise ValueError("energy components must be finite")
        return super().__new__(cls, e, de)


class EnergyAdjustment(NamedTuple):
    zeta: float
    value: float


class ProductParts(NamedTuple):
    re: float
    im: float


# Half-width of the two probes around zero from which solve_imag_zero
# estimates the scale of Im B, in units of max(1, |x0|): large enough that
# rounding in Im B does not swamp their second difference, small against the
# roots of most observables.  It is relative because Im B is resolved only
# to ~eps * |B|, which grows with |x0|: past |x0| ~ 1e13 an absolute 1e-4
# step moves Im B by less than that, no scale shows, and the ladder climbs
# from 2e-4 in hundreds of steps.
_MODEL_STEP = 1e-4
# The ladder starts at this share of the estimated root scale, so its first
# rung stays below the nearest root unless the model overestimates that
# root's distance more than sixfold.
_LADDER_START = 1.0 / 6.0
_TRACE = 4  # probes quoted in a failure message
_EPS = math.ulp(1.0)


def solve_imag_zero(
    obs: ComplexObservable,
    zeta_max: float | None = None,
    tol: float = 1e-12,
) -> AdjustmentResult:
    """Find the root of zeta -> Im B(x0 + i*zeta) with smallest |zeta|.

    Probes Im B at 0 and +-d (d = 1e-4 * max(1, |x0|), or zeta_max if
    smaller) and takes r, the smaller of the two scales at which the linear
    term alone, or the quadratic term alone, of the model through those
    three values equals |Im B(0)|.  It then brackets by geometric expansion
    outward from zero, factor 2, starting at r/6 (at least tol; the +-d
    probes are the first rung when r is unknown or r/6 > d, and the ladder
    then goes on at r/6 or 2d).  The positive side is probed first at each
    scale, and the first sign change found is refined by Chandrupatla's
    method, started with a false-position step, until
    |Im B| <= tol * max(1, |B|).

    "Smallest |zeta|" is in the ladder's sense: the root bracketed at the
    smallest rung.  An even number of roots inside the first rung, or
    inside one octave of the ladder, goes undetected, and with roots on
    both sides within one rung the positive one wins.  The observable is
    invoked sequentially; the call count is reported in the result, and a
    failure message ends with the last few probes as (zeta, Im B).  A
    non-finite x0 is refused before the first call.  zeta_max defaults to
    1e6 * max(1, |x0|), or the largest double if that overflows.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive")
    if not math.isfinite(obs.x0):
        raise ValueError("x0 must be finite")
    if zeta_max is None:
        zeta_max = min(1e6 * max(1.0, abs(obs.x0)), sys.float_info.max)
    if not (zeta_max > 0.0 and math.isfinite(zeta_max)):
        raise ValueError("zeta_max must be positive")

    probes = []  # (zeta, Im B) of every evaluation, in order

    def probe(zeta: float) -> complex:
        b = complex(obs.evaluate(complex(obs.x0, zeta)))
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise EvaluationFailure(
                f"evaluation failure: B({obs.x0!r} + {zeta!r}i) = {b!r}"
            )
        probes.append((zeta, b.imag))
        return b

    def converged(b: complex) -> bool:
        return abs(b.imag) <= tol * max(1.0, abs(b))

    def result(zeta: float, b: complex) -> AdjustmentResult:
        return AdjustmentResult(zeta, b.real, abs(b.imag), len(probes))

    def trace() -> str:
        return "; last probes (zeta, Im B): " + ", ".join(
            f"({z!r}, {f:.6g})" for z, f in probes[-_TRACE:]
        )

    b0 = probe(0.0)
    if converged(b0):
        return result(0.0, b0)
    f0 = b0.imag
    d = min(_MODEL_STEP * max(1.0, abs(obs.x0)), zeta_max)
    near = {}
    for side in (1, -1):
        b = probe(side * d)
        if converged(b):
            return result(side * d, b)
        near[side] = b.imag
    # The model Im B ~ f0 + slope*zeta + quad*zeta**2 through the three probes
    slope = (near[1] - near[-1]) / (2.0 * d)
    quad = (near[1] - 2.0 * f0 + near[-1]) / (2.0 * d * d)
    scales = [abs(f0 / slope)] if slope else []
    if quad:
        scales.append(math.sqrt(abs(f0 / quad)))
    r = min((x for x in scales if 0.0 < x < math.inf), default=None)

    bracket = None
    last = {1: (0.0, f0), -1: (0.0, f0)}
    h = 2.0 * d if r is None else max(_LADDER_START * r, tol)
    if h > d:  # +-d lie below the ladder's start: they are its first rung
        for side in (1, -1):
            if bracket is None and (near[side] > 0.0) != (f0 > 0.0):
                bracket = (0.0, f0, side * d, near[side])
            last[side] = (side * d, near[side])
    h = min(h, zeta_max)
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
                    + trace()
                )
            h = min(2.0 * h, zeta_max)

    # Chandrupatla 1997: a is the newest point, b the end of opposite sign,
    # c the end just dropped; inverse quadratic interpolation where the
    # three points allow it, bisection where not.
    a, fa, b_end, fb = bracket
    t = fa / (fa - fb)  # false position: exact on a linear Im B
    for _ in range(300):
        lim = 4.0 * _EPS * max(abs(a), abs(b_end)) / abs(b_end - a)
        if lim >= 0.5:
            break  # bracket exhausted at float resolution
        z = a + min(max(lim, t), 1.0 - lim) * (b_end - a)  # a NaN t gives lim
        bv = probe(z)
        if converged(bv):
            return result(z, bv)
        f = bv.imag
        if (f > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc = b_end, fb
            b_end, fb = a, fa
        a, fa = z, f
        xi = (a - b_end) / (c - b_end)
        phi = (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b_end - a) * fa / (fc - fa) * fb / (fc - fb))
        else:
            t = 0.5
    raise EvaluationFailure(
        "root refinement stalled before reaching the residual tolerance "
        "(is Im B continuous across the bracket?)" + trace()
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
