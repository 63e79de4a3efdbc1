"""Command-line front end: spectrum, width, adjust, recoil subcommands.

Each run is one parse -> compute -> emit pass in ``main``.  A command line is
parsed once, by its command's own parser; the top-level parser sees only
lines that do not start with a command name.  All the parsed flags become the
document's ``config``, so a run can be reproduced byte-for-byte from its
output; ``main``'s one pass over them holds every check on a path flag.  A
``cmd_*`` function turns them into ``(results, table)``: scalars by name, and
``None`` or 1-D arrays by column name (``cmd_recoil`` alone writes a file, the
``--dump``).  ``_emit`` writes JSON, a CSV table under ``# key = value`` lines
or a two-row CSV of the results; one writer, ``_json_chunks``, writes every
JSON document, told by the table's keys where the arrays are.  A table of more
than one block is formatted on two CPUs where the process may run on two: a
forked child formats every other block (``_texts``), and the bytes are those
one process writes.

JSON floats are written as the shortest text that reads back as the same
double (``float.__repr__``, as ``json`` writes them); CSV carries the same
numbers as ``%.17g``.  The failure policy lives in ``main`` alone: exit codes
0 success, 1 runtime/domain error, 2 usage error, and no Python warning shown.
numpy, the modules that import it and ``csv`` (for ``--input``) load only in
the commands that need them: neither ``import pulselab.cli`` nor ``adjust``
nor ``width`` loads any of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings

from . import __version__
from .adjustment import (
    ComplexEnergy,
    adjusted_energy_consistent,
    adjusted_energy_paper,
    expand_product,
    paper_offset,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or flag values; exit code 2."""


# Table rows (or JSON array items) formatted per call: output is written in
# blocks this size, so the transient lists and strings of one block bound the
# memory emit adds, however long the table (two blocks when a child formats
# every other one).  A table of one block is formatted in this process alone:
# a fork and its reaping cost about as much as formatting one block.
_BLOCK_ROWS = 1 << 12


def _blocks(n: int) -> list:
    """Slices that cut ``n`` rows into blocks of at most ``_BLOCK_ROWS``."""
    return [slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS)]


def _texts(make, parts: list):
    """``make(part)`` for each of ``parts`` in order, on two CPUs when there are
    two parts or more and the process may run on two CPUs.

    A forked child makes ``parts[1::2]`` and writes each text to a pipe as
    UTF-8, its byte length first; this process makes the others and reads the
    child's in turn.  The pipe holds less than a block's text, so each side
    runs about one part ahead of the reader.  The child leaves by
    ``os._exit``: it never returns into the caller, and never flushes the
    buffers it inherited.  A child that ends before its last text, or exits
    with a nonzero status, fails the run with a ``ValueError``.  A consumer
    that stops early (a failed write, say) closes this generator, which kills
    and reaps the child.  Without a second CPU, or where ``os.pipe`` or
    ``os.fork`` fails, every part is made here.
    """
    if len(parts) < 2 or not (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1):
        yield from map(make, parts)
        return
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        yield from map(make, parts)
        return
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        yield from map(make, parts)
        return
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for part in parts[1::2]:
                    data = make(part).encode()
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as pipe:
            for i, part in enumerate(parts):
                if i % 2 == 0:
                    yield make(part)
                    continue
                head = pipe.read(8)
                size = int.from_bytes(head, "little")
                data = pipe.read(size) if len(head) == 8 else b""
                if len(head) < 8 or len(data) < size:
                    break  # the child ended before its last text
                yield data.decode()
            else:
                status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:  # stopped early: the child may still run
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status != 0:
        raise ValueError("cannot format the table: the process formatting every other block failed")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write(chunks, output: str | None) -> None:
    """Write the text chunks of the generator ``chunks`` in order to ``output``,
    or to stdout when it is None, and close the generator: a child formatting
    its blocks is reaped however the write ends."""
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
    finally:
        chunks.close()


def _require_finite(results: dict) -> None:
    bad = [k for k, v in sorted(results.items()) if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite result: {', '.join(bad)}")


def _json_chunks(config: dict, results: dict, table: dict):
    """Chunks of ``json.dumps({"config": config, "results": {**results, **table}},
    indent=2, sort_keys=True)``, where ``config`` and ``results`` are flat and
    not empty, ``results`` is finite, and ``table`` holds non-empty 1-D numpy
    arrays by key.

    A table key is written as a JSON array of its elements' ``repr``, which is
    the text json gives a finite float, joined in blocks instead of through
    json's pure-Python per-item encoder (json uses its C encoder only without
    indent).  A float result is written as ``float.__repr__`` too, which skips
    json's per-call cost.  The config and every other value go to json itself.
    The arrays are known by key, so no numpy is needed here.
    """
    # A flat, non-empty dict indented is its compact form with one item a
    # line, which json's C encoder writes: it runs only without indent.
    config_text = json.dumps(config, sort_keys=True, separators=(",\n    ", ": "))[1:-1]
    yield '{\n  "config": {\n    ' + config_text + '\n  },\n  "results": {'
    sep = ",\n      "
    keys = sorted({**results, **table})
    # Every block of every array in one sequence, so that a document forks once
    # at most; a table of one block (one part an array) is made here alone.
    parts = [(key, rows) for key in keys if key in table for rows in _blocks(len(table[key]))]

    def make(part):
        key, rows = part
        return (sep if rows.start else sep[1:]) + sep.join(map(repr, table[key][rows].tolist()))

    texts = _texts(make, parts) if len(parts) > len(table) else map(make, parts)
    for i, key in enumerate(keys):
        yield (",\n    " if i else "\n    ") + json.dumps(key) + ": "
        if key in table:
            yield "["
            for _ in _blocks(len(table[key])):
                yield next(texts)
            yield "\n    ]"
        elif isinstance(results[key], float):
            yield float.__repr__(results[key])
        else:
            yield json.dumps(results[key])
    yield "\n  }\n}"


def _header(*sections: dict) -> str:
    """``# key = value`` lines, each section sorted by key."""
    return "".join(f"# {key} = {_fmt(value)}\n" for section in sections for key, value in sorted(section.items()))


def _csv_table(columns: str, block, n: int):
    """Chunks of a CSV table: the ``columns`` line, then one ``%.17g`` row per row
    of the 2-D float array ``block(rows)`` for each slice ``rows`` that cuts
    ``n`` rows into blocks; ``"%.17g" % x`` is the text ``_fmt(x)`` gives.  A
    block is made only when its text is due."""

    def make(rows):
        table = block(rows)
        return (",".join(["%.17g"] * table.shape[1]) + "\n") * len(table) % tuple(table.ravel().tolist())

    yield columns + "\n"
    yield from _texts(make, _blocks(n))


def _document(config: dict, results: dict, table: dict | None):
    """The run's document in text chunks: JSON, a CSV table under
    ``# key = value`` lines, or a two-row CSV of the results.

    JSON has one writer, ``_json_chunks``, for every command; a table-less
    document is the same writer given no arrays."""
    if config["format"] == "json":
        yield from _json_chunks(config, results, table or {})
        yield "\n"
    elif table is not None:
        import numpy as np

        columns = list(table.values())
        yield _header(config, results)
        yield from _csv_table(",".join(table), lambda rows: np.column_stack([c[rows] for c in columns]),
                              len(columns[0]))
    else:
        # Nothing to quote: the names are identifiers, the values numbers or the generator's name.
        names = sorted(results)
        yield _header(config) + ",".join(names) + "\n" + ",".join(_fmt(results[k]) for k in names) + "\n"


def _emit(config: dict, results: dict, table: dict | None) -> None:
    """Write the run's document to ``config["output"]``, or to stdout when it is None."""
    _require_finite(results)
    _write(_document(config, results, table), config["output"])


def _read_waveform(path: str):
    """The waveform in a CSV file: a header row that names ``t`` and either
    ``re``,``im`` or ``amp`` (``amp`` wins when both are there) among any other
    columns, then one row of numbers per sample.

    The header goes through ``csv``; the body is parsed in one C pass by
    ``np.loadtxt``, which reads only the named columns and converts each number
    with the correctly rounded string-to-double ``float()`` uses.  Returns a
    ``SampledWaveform``.
    """
    import csv

    import numpy as np

    from .spectral import SampledWaveform

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
        raise ValueError(f"cannot read waveform {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _bad_value(path: str, column: dict, names: tuple) -> str | None:
    """Where the body of a waveform file fails to parse, as "line N, column
    NAME: ...", or None if a re-read with ``csv`` finds nothing wrong.

    Called only after ``np.loadtxt`` has refused the body: numpy's row number
    counts neither the header nor blank lines, and starts at 0 for a value
    that does not parse but at 1 for a short row.  A value passes when it
    passes ``np.loadtxt``: ``float()``'s syntax in ASCII, without ``_``.
    """
    import csv

    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def _omega_grid(args):
    import numpy as np

    if args.points < 2:
        raise UsageError("--points must be at least 2")
    if not args.omega_min < args.omega_max:
        raise UsageError("--omega-min must be below --omega-max")
    if not math.isfinite(args.omega_max - args.omega_min):
        raise UsageError("--omega-max minus --omega-min overflows")
    if args.points > sys.maxsize // 8:  # np.linspace raises IndexError at 2**63 - 1 and 2**63
        raise ValueError("--points too many: the omega grid is larger than numpy's largest array")
    grid = np.linspace(args.omega_min, args.omega_max, args.points)
    if not np.all(grid[1:] > grid[:-1]):
        raise UsageError("--points too many: the omega grid is not strictly increasing")
    return grid


def cmd_spectrum(args) -> tuple[dict, dict]:
    import numpy as np

    from .spectral import Spectrum, first_zero_halfwidth_numeric, fourier_intensity, fwhm
    from .wavepacket import Pulse, analytic_intensity, first_zero_halfwidth, peak_intensity, rectangular_fwhm

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
    from .wavepacket import Pulse, energy_moments, first_zero_halfwidth, rectangular_fwhm

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
        **moments._asdict(),
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
    from .recoil import _check_args, _draw, _momenta

    try:
        _check_args(args.k, args.n, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    stats, cos_t, phi = _draw(args.k, args.n, args.seed)
    if args.dump is not None:
        # The momenta of one block at a time: the (n, 3) array is never made.
        _write(_csv_table("kx,ky,kz", lambda rows: _momenta(args.k, cos_t[rows], phi[rows]), args.n), args.dump)
    return stats._asdict(), None


# argparse takes an argument that starts with "-" for an option unless it
# matches this; its own pattern misses exponent forms such as "-1e-05", which
# is how a document's config prints small negative values.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An argparse parser (subparsers are of the same class) that reads
    ``_NEGATIVE_NUMBER`` as a value and raises argparse's usage errors as
    ``UsageError``, so ``main`` reports them as one ``error:`` line.  The
    top-level one holds its subparsers by command name in ``commands``."""

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
    parser.commands = subs.choices
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _parser()
        sub = parser.commands.get(argv[0]) if argv else None
        if sub is None:  # --help, --version, no command or an unknown one
            args = parser.parse_args(argv)
        else:
            # What the top-level parser would do, without its own pass: the
            # command's parser gets the rest, and the name becomes ``command``.
            args = sub.parse_args(argv[1:])
            args.command = argv[0]
        config = {name: value for name, value in vars(args).items() if name != "func"}
        csv_run = config["format"] == "csv"  # a CSV header holds each path as is, on its own line
        for name, value in config.items():
            if value == "":  # only a path flag can be empty; "" names no file, and resolves as "."
                raise UsageError(f"--{name} must not be empty")
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"--{name.replace('_', '-')} must be finite")
            if csv_run and isinstance(value, str) and value.splitlines() not in ([], [value]):
                raise UsageError(f"--{name} must not hold a line break with --format csv")
            if csv_run and isinstance(value, str) and value.encode(errors="ignore").decode() != value:
                raise UsageError(f"--{name} must be UTF-8 text with --format csv")
        output = config["output"]
        for flag in ("input", "dump"):  # the document must not overwrite the waveform or the dump
            try:  # by file identity, so a hard link counts
                same = None not in (config.get(flag), output) and os.path.samefile(config[flag], output)
            except OSError:  # a file not there yet: by name, once symlinks and "." are resolved
                same = os.path.realpath(config[flag]) == os.path.realpath(output)
            if same:
                raise UsageError(f"--{flag} and --output name the same file")
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
