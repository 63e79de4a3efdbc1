"""Per-layer spans recorded from outside pulselab.

Each boundary is a public pulselab function.  ``Tracer.install`` replaces
that function object in every ``pulselab.*`` module namespace that holds it,
so a span survives a refactor that moves the call site to another module.
A boundary whose function no longer exists is reported as missing.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Counters are taken from arguments, results and the
sizes of the files a call reads or writes, never from inside the program.
"""

from __future__ import annotations

import importlib
import io
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _flag_values(argv, flags) -> list:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in flags]


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _count_cli(counts, args, kwargs, result) -> None:
    argv = _arg(args, kwargs, 0, "argv")
    counts["cli.calls"] += 1
    counts["cli.input_bytes"] += _file_bytes(_flag_values(argv, ("--input",)))
    out = _file_bytes(_flag_values(argv, ("--output", "-o", "--dump")))
    if isinstance(sys.stdout, io.StringIO):
        out += len(sys.stdout.getvalue().encode())
    counts["cli.output_bytes"] += out


def _count_fourier(counts, args, kwargs, result) -> None:
    n_t = _arg(args, kwargs, 0, "waveform").t.size
    n_w = np.size(_arg(args, kwargs, 1, "omega_grid"))
    counts["spectral.fourier_intensity.calls"] += 1
    counts["spectral.fourier_intensity.tw_products"] += n_t * n_w
    # Computed from array sizes, not measured: one complex128 pass over the
    # N_t x N_omega block, plus t (float64) and amplitudes (complex128) in,
    # and omega and intensity (float64) in and out.
    counts["spectral.fourier_intensity.bytes_computed"] += 16 * n_t * n_w + 24 * n_t + 16 * n_w


def _count_analytic(counts, args, kwargs, result) -> None:
    counts["wavepacket.analytic_intensity.points"] += np.size(_arg(args, kwargs, 1, "omega"))


def _count_draws(counts, args, kwargs, result) -> None:
    counts["recoil.samples_drawn"] += int(_arg(args, kwargs, 1, "n"))


def _count_solve(counts, args, kwargs, result) -> None:
    counts["adjustment.solve_imag_zero.calls"] += 1
    counts["adjustment.solve_imag_zero.evaluations"] += result.evaluations


# (span name, home module, function name, counter)
BOUNDARIES = [
    ("cli", "pulselab.cli", "main", _count_cli),
    ("spectral.fourier_intensity", "pulselab.spectral", "fourier_intensity", _count_fourier),
    ("spectral.widths", "pulselab.spectral", "first_zero_halfwidth_numeric", None),
    ("spectral.widths", "pulselab.spectral", "fwhm", None),
    ("wavepacket.analytic_intensity", "pulselab.wavepacket", "analytic_intensity", _count_analytic),
    ("recoil.recoil_stats", "pulselab.recoil", "recoil_stats", _count_draws),
    ("recoil.momentum_samples", "pulselab.recoil", "momentum_samples", _count_draws),
    ("adjustment.solve_imag_zero", "pulselab.adjustment", "solve_imag_zero", _count_solve),
    ("adjustment.closed_form", "pulselab.adjustment", "adjusted_energy_consistent", None),
    ("adjustment.closed_form", "pulselab.adjustment", "adjusted_energy_paper", None),
    ("adjustment.closed_form", "pulselab.adjustment", "expand_product", None),
]

SPANS = sorted({b[0] for b in BOUNDARIES})


class Tracer:
    """Spans and counters kept in memory; totals over every traced call."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple] = []

    def _wrap(self, span: str, fn, count):
        stack, self_s, counts = self._stack, self.self_s, self.counts

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[span] += dur - children[0]
                if stack:
                    stack[-1][0] += dur
            if count:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pulselab" or name.startswith("pulselab."))]
        for span, home, name, count in BOUNDARIES:
            try:
                fn = getattr(importlib.import_module(home), name, None)
            except ImportError:
                fn = None
            if fn is None:
                self.missing.append(f"{home}.{name}")
                continue
            traced = self._wrap(span, fn, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
