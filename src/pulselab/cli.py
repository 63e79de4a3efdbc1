"""Command-line front end: spectrum, width, adjust, recoil subcommands.

Each run is one parse -> compute -> emit pass in ``main``.  The parsed flags,
all of them, become the document's ``config``, so a run can be reproduced
byte-for-byte from its own output.  The subcommand's ``cmd_*`` function turns
them into ``(results, table)``: scalars by name, and ``None`` or 1-D arrays by
column name.  ``_emit`` writes JSON (the table's columns among the results), a
CSV table under ``# key = value`` lines, or a two-row CSV of the results.

JSON floats are written as the shortest text that reads back as the same
double (``float.__repr__``, as ``json`` writes them); CSV carries the same
numbers as ``%.17g``.  The failure policy lives in ``main`` alone: exit codes
0 success, 1 runtime/domain error, 2 usage error, and no Python warning shown.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
import warnings
from dataclasses import asdict
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
from .recoil import _draw, _momenta, recoil_stats
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


# Table rows (or JSON array items) formatted per call: output is written in
# blocks this size, so the transient lists and strings of one block bound the
# memory emit adds, however long the table.
_BLOCK_ROWS = 1 << 12


def _blocks(n: int):
    """Slices that cut ``n`` rows into blocks of at most ``_BLOCK_ROWS``."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write(chunks, output: str | None) -> None:
    """Write text chunks in order to ``output``, or to stdout when it is None."""
    try:
        if output is None:
            sys.stdout.writelines(chunks)
            # A closed stdout fails here, not at exit: a failed flush leaves the exit-time one nothing to write.
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write {'stdout' if output is None else output}: {exc.strerror or exc}") from exc


def _require_finite(results: dict) -> None:
    bad = [k for k, v in sorted(results.items()) if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite result: {', '.join(bad)}")


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
        for rows in _blocks(len(value)):
            yield (sep if rows.start else sep[1:]) + sep.join(map(repr, value[rows].tolist()))
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


def _csv_table(columns: str, blocks):
    """Chunks of a CSV table: the ``columns`` line, then one ``%.17g`` row per row
    of each 2-D float array in ``blocks``; ``"%.17g" % x`` is the text ``_fmt(x)``
    gives.  A block is made only when its text is due."""
    yield columns + "\n"
    for block in blocks:
        row = ",".join(["%.17g"] * block.shape[1]) + "\n"
        yield row * len(block) % tuple(block.ravel().tolist())


def _emit(config: dict, results: dict, table: dict | None) -> None:
    """Write the run's document to ``config["output"]``, or to stdout when it is None."""
    _require_finite(results)
    if config["format"] == "json":
        chunks = chain(_json_chunks({"config": config, "results": {**results, **(table or {})}}), ["\n"])
    elif table is not None:
        columns = list(table.values())
        blocks = (np.column_stack([c[rows] for c in columns]) for rows in _blocks(len(columns[0])))
        chunks = chain([_header(config, results)], _csv_table(",".join(table), blocks))
    else:
        # Nothing to quote: the names are identifiers, the values numbers or the generator's name.
        names = sorted(results)
        chunks = [_header(config), ",".join(names) + "\n", ",".join(_fmt(results[k]) for k in names) + "\n"]
    _write(chunks, config["output"])


def _read_waveform(path: str) -> SampledWaveform:
    """The waveform in a CSV file: a header row that names ``t`` and either
    ``re``,``im`` or ``amp`` (``amp`` wins when both are there) among any other
    columns, then one row of numbers per sample.

    The header goes through ``csv``; the body is parsed in one C pass by
    ``np.loadtxt``, which reads only the named columns and converts each number
    with the correctly rounded string-to-double ``float()`` uses.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            fields = next(csv.reader(fh), [])
            if "t" not in fields or not ({"re", "im"} <= set(fields) or "amp" in fields):
                raise ValueError("expected CSV columns t,re,im or t,amp")
            # A repeated name means its last column, as in a csv.DictReader row.
            column = {name: i for i, name in enumerate(fields)}
            names = ("t", "amp") if "amp" in column else ("t", "re", "im")
            try:
                body = np.loadtxt(fh, delimiter=",", usecols=[column[name] for name in names],
                                  ndmin=2, comments=None, quotechar='"')
            except ValueError as exc:
                raise ValueError(_bad_value(path, column, names) or exc) from exc
        t, *parts = body.T
        amp = np.zeros(len(t), complex)  # complex(re, im), or complex(amp, 0.0)
        amp.real = parts[0]
        if len(parts) == 2:
            amp.imag = parts[1]
        return SampledWaveform(t, amp)
    except (OSError, ValueError, csv.Error) as exc:
        raise ValueError(f"cannot read waveform {path}: {exc}") from exc


def _bad_value(path: str, column: dict, names: tuple) -> str | None:
    """Where the body of a waveform file fails to parse, as "line N, column
    NAME: ...", or None if a re-read with ``csv`` finds nothing wrong.

    Called only after ``np.loadtxt`` has refused the body: numpy's row number
    counts neither the header nor blank lines, and starts at 0 for a value
    that does not parse but at 1 for a short row.  A value passes when it
    passes ``np.loadtxt``: ``float()``'s syntax in ASCII, without ``_``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
            for row in reader:
                if not row:
                    continue  # np.loadtxt skips blank lines
                for name in names:
                    where = f"line {reader.line_num}, column {name}"
                    if column[name] >= len(row):
                        return f"{where}: missing (the row has {len(row)} fields)"
                    if not _is_number(row[column[name]]):
                        return f"{where}: {row[column[name]]!r} is not a number"
        except csv.Error:
            pass
    return None


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


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


def cmd_spectrum(args) -> tuple[dict, dict]:
    grid = _omega_grid(args)
    if args.input is not None:
        waveform = _read_waveform(args.input)
        spec = fourier_intensity(waveform, grid)
        i_peak = int(np.argmax(spec.intensity))
        peak, peak_omega = float(spec.intensity[i_peak]), float(spec.omega[i_peak])
        half = first_zero_halfwidth_numeric(spec)
        width = fwhm(spec)
        duration = float(waveform.t[-1] - waveform.t[0])
    else:
        if args.a0 is None or args.omega0 is None or args.tau is None:
            raise UsageError("analytic mode requires --a0, --omega0 and --tau (or use --input)")
        try:
            pulse = Pulse(args.a0, args.omega0, args.tau)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        spec = Spectrum(grid, analytic_intensity(pulse, grid))
        peak, peak_omega = peak_intensity(pulse), pulse.omega0
        half = first_zero_halfwidth(pulse)
        width = rectangular_fwhm(pulse.tau)
        duration = pulse.tau
    summary = {
        "peak_intensity": peak,
        "peak_omega": peak_omega,
        "first_zero_halfwidth": half,
        "fwhm": width,
        "duration": duration,
        "time_bandwidth_product": half * duration,
    }
    return summary, {"omega": spec.omega, "intensity": spec.intensity}


def cmd_width(args) -> tuple[dict, None]:
    try:
        pulse = Pulse(1.0, args.omega0, args.tau)
        moments = energy_moments(pulse, args.hbar)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    half = first_zero_halfwidth(pulse)
    return {
        "first_zero_halfwidth": half,
        "fwhm": rectangular_fwhm(args.tau),
        "time_bandwidth_product": half * args.tau,
        **asdict(moments),
    }, None


def cmd_adjust(args) -> tuple[dict, None]:
    ce = ComplexEnergy(args.e, args.de)
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
    return results, None


def cmd_recoil(args) -> tuple[dict, None]:
    try:
        if args.dump is None:
            return asdict(recoil_stats(args.k, args.n, args.seed)), None
        stats, cos_t, phi = _draw(args.k, args.n, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # The momenta of one block at a time: the (n, 3) array is never made.
    momenta = (_momenta(args.k, cos_t[rows], phi[rows]) for rows in _blocks(args.n))
    _write(_csv_table("kx,ky,kz", momenta), args.dump)
    return asdict(stats), None


# argparse takes an argument that starts with "-" for an option unless it
# matches this; its own pattern misses exponent forms such as "-1e-05", which
# is how a document's config prints small negative values.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An argparse parser (subparsers are of the same class) that reads
    ``_NEGATIVE_NUMBER`` as a value and raises argparse's usage errors as
    ``UsageError``, so ``main`` reports them as one ``error:`` line."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):
        raise UsageError(message)


def _add_io_flags(sub) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--output", "-o", default=None, help="output path (default: stdout)")


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on the first call and kept for the process:
    parsing leaves no state in it."""
    parser = _Parser(prog="pulselab")
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
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = {name: value for name, value in vars(args).items() if name != "func"}
        for name, value in config.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"--{name.replace('_', '-')} must be finite")
        with warnings.catch_warnings():
            # Inputs are checked for emptiness and results for finiteness, so a
            # warning (numpy's overflow or empty-input one) would only repeat them.
            warnings.simplefilter("ignore")
            _emit(config, *args.func(args))
        return 0
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except (UsageError, ValueError, ZeroDivisionError, MemoryError) as exc:
        # A message can quote a flag or path that holds a line break; the error stays one line.
        print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
