"""Write the golden documents that tests/test_golden.py compares every run with.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs each case in CASES through ``pulselab.cli.main`` in a scratch directory
and writes, next to this script, the two input waveforms, every document a
case writes (its stdout, ``--output`` and ``--dump`` files) and
``manifest.json``, which holds the cases, the files each one writes and the
host facts the documents' bytes depend on: numpy's version, the machine and
numpy's SIMD dispatch.

Run it only when a change is meant to alter documents, and say why in
CHANGES.md.  Never run it to make a failing golden test pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import tempfile

import numpy as np

from pulselab.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

# A rectangular pulse, omega0 = 10 and tau = 2, sampled on 96 points: once on
# an np.linspace grid (the chirp-z path) and once jittered (the NUFFT).
WAVEFORMS = ("wave_uniform.csv", "wave_jittered.csv")

_ANALYTIC = ["spectrum", "--a0", "1.5", "--omega0", "10", "--tau", "2"]
_SAMPLED = ["--omega-min", "2.7", "--omega-max", "18.5", "--points", "73"]

# name -> argv.  Paths are relative, so the config each document embeds is
# the same wherever it runs.
CASES = {
    "spectrum-analytic": [*_ANALYTIC, "--omega-min", "4", "--omega-max", "16", "--points", "41"],
    "spectrum-analytic-csv": [*_ANALYTIC, "--omega-min", "4", "--omega-max", "16", "--points", "41",
                              "--format", "csv", "--output", "spectrum.csv"],
    # Phase spans |omega - omega0| * tau of 0 to 2e-4: both sides of the series cutoff.
    "spectrum-cutoff": [*_ANALYTIC, "--omega-min", "9.9999", "--omega-max", "10.0001", "--points", "9"],
    "spectrum-uniform": ["spectrum", "--input", "wave_uniform.csv", *_SAMPLED],
    "spectrum-jittered": ["spectrum", "--input", "wave_jittered.csv", *_SAMPLED, "--output", "spectrum.json"],
    "spectrum-jittered-csv": ["spectrum", "--input", "wave_jittered.csv", *_SAMPLED, "--format", "csv"],
    # The lower null, 10 - pi, lies below the grid: the width is measured from the peak.
    "spectrum-one-sided": ["spectrum", "--input", "wave_uniform.csv",
                           "--omega-min", "8.01", "--omega-max", "16", "--points", "61"],
    "width": ["width", "--omega0", "10", "--tau", "6.283185307179586", "--hbar", "1.5"],
    "width-csv": ["width", "--omega0", "3", "--tau", "2", "--format", "csv", "--output", "width.csv"],
    "adjust": ["adjust", "--e", "2", "--de", "1", "--t", "1"],
    "adjust-csv": ["adjust", "--e=-1e-05", "--de", "0.3", "--t", "0.7", "--mode", "paper", "--format", "csv"],
    "recoil": ["recoil", "--k", "1", "--n", "100", "--seed", "3"],
    "recoil-csv": ["recoil", "--k", "2.5", "--n", "1", "--format", "csv"],
    "recoil-dump": ["recoil", "--k", "2", "--n", "50", "--seed", "7", "--dump", "dump.csv",
                    "--output", "recoil.json"],
}


def host() -> dict:
    """The facts a document's bytes depend on besides pulselab: numpy's
    version, the machine, and the SIMD targets numpy dispatches to here."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    except ImportError:
        simd = None
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def run_case(argv: list, workdir: str) -> tuple[int, str, str, dict]:
    """``(exit code, stdout, stderr, {name: text})`` of one run of ``argv`` in
    ``workdir``, which holds the input waveforms; the dict holds every file
    the run wrote there."""
    before = set(os.listdir(workdir))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = {}
    for name in sorted(set(os.listdir(workdir)) - before):
        with open(os.path.join(workdir, name), encoding="utf-8", newline="") as fh:
            written[name] = fh.read()
        os.remove(os.path.join(workdir, name))
    return code, out.getvalue(), err.getvalue(), written


def _write_waveforms() -> None:
    t = np.linspace(0.0, 2.0, 96)
    jittered = t.copy()
    jittered[1:-1] += np.random.default_rng(17).uniform(-0.3, 0.3, t.size - 2) * (t[1] - t[0])
    for name, times in zip(WAVEFORMS, (t, jittered)):
        amp = np.exp(10j * times)
        with open(os.path.join(HERE, name), "w", encoding="utf-8", newline="") as fh:
            fh.write("t,re,im\n")
            fh.writelines(f"{ti!r},{a.real!r},{a.imag!r}\n" for ti, a in zip(times.tolist(), amp.tolist()))


def regenerate() -> None:
    _write_waveforms()
    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for name in WAVEFORMS:
            shutil.copy(os.path.join(HERE, name), workdir)
        for name, argv in CASES.items():
            code, stdout, stderr, written = run_case(argv, workdir)
            if code != 0 or stderr:
                raise SystemExit(f"{name}: exit {code}, stderr {stderr!r}")
            files = {"-": stdout} if stdout else {}
            files.update(written)
            golden = {}
            for produced, text in files.items():
                golden[produced] = f"{name}.{'out' if produced == '-' else produced}"
                with open(os.path.join(HERE, golden[produced]), "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            cases.append({"name": name, "argv": argv, "files": golden})
    manifest = {"host": host(), "inputs": list(WAVEFORMS), "cases": cases}
    with open(os.path.join(HERE, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
