"""Command-line front end: spectrum, width, adjust, recoil subcommands.

Every JSON output carries the full effective configuration under a
``config`` key, so a run can be reproduced byte-for-byte from its own
output.  JSON floats are written as the shortest text that reads back as the
same double (``float.__repr__``, as ``json`` writes them); CSV carries the
same numbers as ``%.17g``.  Exit codes: 0 success, 1 runtime/domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from itertools import chain

import numpy as np

from . import __version__
from .adjustment import (
    ComplexEnergy,
    adjusted_energy_consistent,
    adjusted_energy_paper,
    expand_product,
    paper_offset,
)
from .recoil import recoil_stats, stats_and_samples
from .spectral import (
    SampledWaveform,
    Spectrum,
    energy_moments,
    first_zero_halfwidth,
    first_zero_halfwidth_numeric,
    fourier_intensity,
    fwhm,
    rectangular_fwhm,
)
from .wavepacket import Pulse, analytic_intensity, peak_intensity

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or flag values; exit code 2."""


class RunError(Exception):
    """Runtime/domain failure (bad input file, undefined operation); exit code 1."""


# Table rows (or JSON array items) formatted per call: output is written in
# blocks this size, so the transient lists and strings of one block bound the
# memory emit adds, however long the table.
_BLOCK_ROWS = 1 << 12


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write(chunks, output: str | None) -> None:
    """Write text chunks in order to ``output``, or to stdout when it is None."""
    if output is None:
        sys.stdout.writelines(chunks)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _require_finite(results: dict) -> None:
    bad = [k for k, v in sorted(results.items()) if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise RunError(f"non-finite result: {', '.join(bad)}")


def _holds_array(value) -> bool:
    return isinstance(value, np.ndarray) or isinstance(value, dict) and any(map(_holds_array, value.values()))


def _json_chunks(value, indent: str = ""):
    """Chunks of ``json.dumps(value, indent=2, sort_keys=True)`` nested at
    ``indent``, where non-empty 1-D numpy arrays may stand in for lists.

    An array is written as a JSON array of its elements' ``repr``, which is
    the text json gives a float, joined in blocks instead of through json's
    pure-Python per-item encoder (json uses its C encoder only without indent).
    Everything that holds no array goes to json itself.
    """
    sep = ",\n" + indent + "  "
    if isinstance(value, np.ndarray):
        yield "["
        for start in range(0, len(value), _BLOCK_ROWS):
            yield (sep if start else sep[1:]) + sep.join(map(repr, value[start:start + _BLOCK_ROWS].tolist()))
        yield "\n" + indent + "]"
    elif isinstance(value, dict) and _holds_array(value):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield (sep if i else sep[1:]) + json.dumps(key) + ": "
            yield from _json_chunks(value[key], indent + "  ")
        yield "\n" + indent + "}"
    else:
        # json escapes newlines inside strings, so every raw one starts a line.
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _header(*sections: dict) -> str:
    """``# key = value`` lines, each section sorted by key."""
    return "".join(f"# {key} = {_fmt(value)}\n" for section in sections for key, value in sorted(section.items()))


def _csv_table(columns: str, table: np.ndarray):
    """Chunks of a CSV table: the ``columns`` line, then one ``%.17g`` row per row
    of the 2-D float array; ``"%.17g" % x`` is the text ``_fmt(x)`` gives."""
    yield columns + "\n"
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        yield row * len(block) % tuple(block.ravel().tolist())


def _emit_json(config: dict, results: dict, output: str | None) -> None:
    _require_finite(results)
    _write(chain(_json_chunks({"config": config, "results": results}), ["\n"]), output)


def _emit_row_csv(config: dict, results: dict, output: str | None) -> None:
    _require_finite(results)
    buf = io.StringIO()
    buf.write(_header(config))
    scalars = {k: v for k, v in results.items() if not isinstance(v, (list, dict))}
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sorted(scalars))
    writer.writerow([_fmt(scalars[k]) for k in sorted(scalars)])
    _write([buf.getvalue()], output)


def _read_waveform(path: str) -> SampledWaveform:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            if "t" not in fields or not ({"re", "im"} <= set(fields) or "amp" in fields):
                raise RunError(f"{path}: expected CSV columns t,re,im or t,amp")
            t, amp = [], []
            for row in reader:
                t.append(float(row["t"]))
                if "amp" in fields:
                    amp.append(complex(float(row["amp"]), 0.0))
                else:
                    amp.append(complex(float(row["re"]), float(row["im"])))
        return SampledWaveform(np.array(t), np.array(amp))
    except (OSError, ValueError) as exc:
        raise RunError(f"cannot read waveform {path}: {exc}") from exc


def _omega_grid(args) -> np.ndarray:
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    if not args.omega_min < args.omega_max:
        raise UsageError("--omega-min must be below --omega-max")
    if not math.isfinite(args.omega_max - args.omega_min):
        raise UsageError("--omega-max minus --omega-min overflows")
    grid = np.linspace(args.omega_min, args.omega_max, args.points)
    if not np.all(grid[1:] > grid[:-1]):
        raise UsageError("--points too many: the omega grid is not strictly increasing")
    return grid


def cmd_spectrum(args) -> int:
    grid = _omega_grid(args)
    config = {
        "command": "spectrum",
        "a0": args.a0,
        "omega0": args.omega0,
        "tau": args.tau,
        "input": args.input,
        "omega_min": args.omega_min,
        "omega_max": args.omega_max,
        "points": args.points,
        "format": args.format,
        "output": args.output,
    }
    if args.input is not None:
        waveform = _read_waveform(args.input)
        try:
            # Spectrum refuses what overflows, so numpy's warnings would only repeat it.
            with np.errstate(over="ignore", invalid="ignore"):
                spec = fourier_intensity(waveform, grid)
        except ValueError as exc:
            raise RunError(str(exc)) from exc
        duration = float(waveform.t[-1] - waveform.t[0])
        i_peak = int(np.argmax(spec.intensity))
        try:
            half = first_zero_halfwidth_numeric(spec)
            width = fwhm(spec)
        except ValueError as exc:
            raise RunError(str(exc)) from exc
        summary = {
            "peak_intensity": float(spec.intensity[i_peak]),
            "peak_omega": float(spec.omega[i_peak]),
            "first_zero_halfwidth": half,
            "fwhm": width,
            "duration": duration,
            "time_bandwidth_product": half * duration,
        }
    else:
        if args.a0 is None or args.omega0 is None or args.tau is None:
            raise UsageError("analytic mode requires --a0, --omega0 and --tau (or use --input)")
        try:
            pulse = Pulse(args.a0, args.omega0, args.tau)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        try:
            spec = Spectrum(grid, analytic_intensity(pulse, grid))
        except ValueError as exc:
            raise RunError(str(exc)) from exc
        half = first_zero_halfwidth(pulse)
        summary = {
            "peak_intensity": peak_intensity(pulse),
            "peak_omega": pulse.omega0,
            "first_zero_halfwidth": half,
            "fwhm": rectangular_fwhm(pulse.tau),
            "duration": pulse.tau,
            "time_bandwidth_product": half * pulse.tau,
        }
    if args.format == "json":
        _emit_json(config, {**summary, "omega": spec.omega, "intensity": spec.intensity}, args.output)
    else:
        _require_finite(summary)
        table = _csv_table("omega,intensity", np.column_stack((spec.omega, spec.intensity)))
        _write(chain([_header(config, summary)], table), args.output)
    return 0


def cmd_width(args) -> int:
    try:
        pulse = Pulse(1.0, args.omega0, args.tau)
        moments = energy_moments(pulse, args.hbar)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    half = first_zero_halfwidth(pulse)
    config = {
        "command": "width",
        "omega0": args.omega0,
        "tau": args.tau,
        "hbar": args.hbar,
        "format": args.format,
        "output": args.output,
    }
    results = {
        "first_zero_halfwidth": half,
        "fwhm": rectangular_fwhm(args.tau),
        "time_bandwidth_product": half * args.tau,
        "mean_omega": moments.mean_omega,
        "mean_energy": moments.mean_energy,
        "delta_e_convention": moments.delta_e_convention,
        "hbar": moments.hbar,
    }
    if args.format == "json":
        _emit_json(config, results, args.output)
    else:
        _emit_row_csv(config, results, args.output)
    return 0


def cmd_adjust(args) -> int:
    if args.e == 0.0:
        raise RunError("adjustment undefined for E = 0")
    ce = ComplexEnergy(args.e, args.de)
    config = {
        "command": "adjust",
        "e": args.e,
        "de": args.de,
        "t": args.t,
        "mode": args.mode,
        "format": args.format,
        "output": args.output,
    }
    results: dict = {}
    if args.mode in ("paper", "both"):
        zeta_paper = paper_offset(ce, args.t)
        results["paper_value"] = adjusted_energy_paper(ce)
        results["zeta_paper"] = zeta_paper
        results["residual_im_paper"] = expand_product(ce, args.t, zeta_paper).im
    if args.mode in ("consistent", "both"):
        adj = adjusted_energy_consistent(ce, args.t)
        results["consistent_value"] = adj.value
        results["zeta_consistent"] = adj.zeta
        results["residual_im_consistent"] = expand_product(ce, args.t, adj.zeta).im
    if args.format == "json":
        _emit_json(config, results, args.output)
    else:
        _emit_row_csv(config, results, args.output)
    return 0


def cmd_recoil(args) -> int:
    try:
        if args.dump is None:
            stats, samples = recoil_stats(args.k, args.n, args.seed), None
        else:
            stats, samples = stats_and_samples(args.k, args.n, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    config = {
        "command": "recoil",
        "k": args.k,
        "n": args.n,
        "seed": args.seed,
        "dump": args.dump,
        "format": args.format,
        "output": args.output,
    }
    results = {
        "n": stats.n,
        "k": stats.k,
        "mean_kz": stats.mean_kz,
        "std_kz": stats.std_kz,
        "seed": stats.seed,
        "generator": stats.generator,
    }
    if samples is not None:
        _write(_csv_table("kx,ky,kz", samples), args.dump)
    if args.format == "json":
        _emit_json(config, results, args.output)
    else:
        _emit_row_csv(config, results, args.output)
    return 0


# argparse takes an argument that starts with "-" for an option unless it
# matches this; its own pattern misses exponent forms such as "-1e-05", which
# is how a document's config prints small negative values.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _add_io_flags(sub) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--output", "-o", default=None, help="output path (default: stdout)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pulselab")
    parser.add_argument("--version", action="version", version=f"pulselab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="spectral intensity of a pulse or sampled waveform")
    sp.add_argument("--a0", type=float, default=None)
    sp.add_argument("--omega0", type=float, default=None)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--input", default=None, help="waveform CSV with columns t,re,im (or t,amp)")
    sp.add_argument("--omega-min", type=float, required=True)
    sp.add_argument("--omega-max", type=float, required=True)
    sp.add_argument("--points", type=int, required=True)
    _add_io_flags(sp)
    sp.set_defaults(func=cmd_spectrum)

    wd = subs.add_parser("width", help="spectral widths and energy moments of a pulse")
    wd.add_argument("--omega0", type=float, required=True)
    wd.add_argument("--tau", type=float, required=True)
    wd.add_argument("--hbar", type=float, default=1.0)
    _add_io_flags(wd)
    wd.set_defaults(func=cmd_width)

    ad = subs.add_parser("adjust", help="complex-energy adjustment, both conventions")
    ad.add_argument("--e", type=float, required=True)
    ad.add_argument("--de", type=float, required=True)
    ad.add_argument("--t", type=float, required=True)
    ad.add_argument("--mode", choices=("paper", "consistent", "both"), default="both")
    _add_io_flags(ad)
    ad.set_defaults(func=cmd_adjust)

    rc = subs.add_parser("recoil", help="hemisphere recoil-direction Monte Carlo")
    rc.add_argument("--k", type=float, required=True)
    rc.add_argument("--n", type=int, required=True)
    rc.add_argument("--seed", type=int, default=0)
    rc.add_argument("--dump", default=None, help="per-sample CSV path (columns kx,ky,kz)")
    _add_io_flags(rc)
    rc.set_defaults(func=cmd_recoil)

    for p in (parser, sp, wd, ad, rc):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"--{name.replace('_', '-')} must be finite")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
