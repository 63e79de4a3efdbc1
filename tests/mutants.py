"""Run tier-1 against each mutant in MUTANTS and report which ones it kills.

    python tests/mutants.py

A mutant is one exact edit of one source file: ``old`` must occur in the
file exactly once, and is replaced by ``new``.  For each mutant the script
copies the repository to a temporary directory, applies the edit and runs
``python -m pytest -x -q`` there.  A failing run kills the mutant; a
passing run means it survived.  A mutant marked ``equivalent`` changes no
behaviour any test can see, and the reason says why; it is run and reported
like the others, but its survival is expected.

Exit status 0 when every mutant that is not marked equivalent is killed,
1 when one survived, and 2 when an ``old`` text is not found exactly once or
the unmutated tree fails its own tests.  Uses only the standard library;
pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work",
                              ".bench_build")
TIMEOUT_S = 900  # a run that hangs this long counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    equivalent: str | None = None  # why no test can tell it apart


ADJ, CLI, INIT = "src/pulselab/adjustment.py", "src/pulselab/cli.py", "src/pulselab/__init__.py"
REC, SPE, WAV = "src/pulselab/recoil.py", "src/pulselab/spectral.py", "src/pulselab/wavepacket.py"

MUTANTS = [
    # The solver.
    Mutant("ladder start 1/6 -> 1/1.5", ADJ, "_LADDER_START = 1.0 / 6.0", "_LADDER_START = 1.0 / 1.5"),
    Mutant("model step 1e-4 -> 1e-2", ADJ, "_MODEL_STEP = 1e-4", "_MODEL_STEP = 1e-2"),
    Mutant("Chandrupatla fallback t = 0.5 -> 0.3", ADJ, "            t = 0.5\n", "            t = 0.3\n"),
    Mutant("absolute model step", ADJ, "d = min(_MODEL_STEP * max(1.0, abs(obs.x0)), zeta_max)",
           "d = min(_MODEL_STEP, zeta_max)"),
    Mutant("first-rung sign", ADJ, "bracket = (0.0, f0, side * d, near[side])",
           "bracket = (0.0, f0, -side * d, near[side])"),
    Mutant("x0 check dropped", ADJ, '    if not math.isfinite(obs.x0):\n        raise ValueError("x0 must be finite")\n',
           ""),
    Mutant("model probe on the root not returned", ADJ,
           "        if converged(b):\n            return result(side * d, b)\n", ""),
    Mutant("ladder rung on the root not returned", ADJ,
           "            if converged(b):\n                return result(z, b)\n", ""),
    # The records.
    Mutant("ComplexEnergy without __slots__", ADJ,
           "    __slots__ = ()  # no instance dict: immutable like its base\n\n    def __new__(cls, e",
           "    def __new__(cls, e"),
    Mutant("ComplexEnergy finiteness check dropped", ADJ,
           '        if not (math.isfinite(e) and math.isfinite(de)):\n'
           '            raise ValueError("energy components must be finite")\n', ""),
    Mutant("ComplexEnergy without the _Checked _make", ADJ, "class ComplexEnergy(_Checked, _ComplexEnergyFields):",
           "class ComplexEnergy(_ComplexEnergyFields):"),
    Mutant("Pulse without __slots__", WAV, "    __slots__ = ()  # no instance dict: immutable like its base\n", ""),
    Mutant("Pulse without the _Checked _make", WAV, "class Pulse(_Checked, _PulseFields):",
           "class Pulse(_PulseFields):"),
    # The closed forms.
    Mutant("series cutoff 1e-4 -> 1e-1", WAV, "_SERIES_CUTOFF = 1e-4", "_SERIES_CUTOFF = 1e-1"),
    Mutant("rectangular_fwhm tau check dropped", WAV,
           '    if not math.isfinite(tau) or tau <= 0.0:\n        raise ValueError("tau must be positive")\n', ""),
    # The sampled spectra.
    Mutant("kernels see absolute times", SPE, "    s = waveform.t - waveform.t[0]\n", "    s = waveform.t\n"),
    Mutant("path rule on absolute times", SPE, "_path(s, og)(waveform.amp, s, og)",
           "_path(waveform.t, og)(waveform.amp, s, og)"),
    Mutant("uniform-grid tolerance 4 -> 4000 ulps", SPE, "_UNIFORM_ULPS = 4.0", "_UNIFORM_ULPS = 4000.0"),
    Mutant("chirp-phase cap x1000", SPE, "_CHIRP_PHASE_CAP = 1e4", "_CHIRP_PHASE_CAP = 1e7"),
    Mutant("NUFFT spread 14 -> 9", SPE, "_NUFFT_SPREAD = 14", "_NUFFT_SPREAD = 9"),
    Mutant("per-block bincount", SPE, "        np.add.at(re, idx, (g * c.real[rows, None]).ravel())\n"
           "        np.add.at(im, idx, (g * c.imag[rows, None]).ravel())\n",
           "        re += np.bincount(idx, (g * c.real[rows, None]).ravel(), minlength=size)\n"
           "        im += np.bincount(idx, (g * c.imag[rows, None]).ravel(), minlength=size)\n"),
    Mutant("NUFFT index not wrapped", SPE, "idx = ((base.astype(np.intp)[:, None] + offsets) & (size - 1)).ravel()",
           "idx = (base.astype(np.intp)[:, None] + offsets).ravel()"),
    Mutant("null fit 0.05 -> 0.5", SPE, "_NULL_FIT = 0.05", "_NULL_FIT = 0.5"),
    Mutant("null fit bound side.size - 3 -> - 2", SPE, "2 <= rises[0] <= side.size - 3", "2 <= rises[0] <= side.size - 2"),
    Mutant("null bisection 60 -> 20 steps", SPE, "    for _ in range(60):", "    for _ in range(20):"),
    Mutant("vertex of equal amplitudes at x0", SPE, "    if left + right == 0.0:\n        return x1\n",
           "    if left + right == 0.0:\n        return x0\n"),
    Mutant("time grid finiteness check dropped", SPE,
           '    if not np.all(np.isfinite(x)):\n        raise ValueError(f"{name} must be finite")\n', ""),
    Mutant("SampledWaveform without __slots__", SPE,
           "    __slots__ = ()  # no instance dict: immutable like its base\n\n    def __new__(cls, t, amp)",
           "    def __new__(cls, t, amp)"),
    Mutant("Spectrum shape check dropped", SPE,
           '        if intensity.shape != omega.shape:\n'
           '            raise ValueError("intensity must match the omega grid length")\n', ""),
    Mutant("fwhm below half with <=", SPE, "np.flatnonzero(intensity < half)", "np.flatnonzero(intensity <= half)",
           equivalent="a sample exactly at half maximum gives the same crossing from either side of it"),
    # Recoil.
    Mutant("draw without 1.0 -", REC, "    return 1.0 - rng.random(n), 2.0 * np.pi * rng.random(n)",
           "    return rng.random(n), 2.0 * np.pi * rng.random(n)"),
    Mutant("momenta sin and cos swapped", REC,
           "    out[:, 0] = k * (sin_t * np.cos(phi))\n    out[:, 1] = k * (sin_t * np.sin(phi))",
           "    out[:, 0] = k * (sin_t * np.sin(phi))\n    out[:, 1] = k * (sin_t * np.cos(phi))"),
    Mutant("std_kz with ddof=0", REC, "np.std(cos_t, ddof=1)", "np.std(cos_t, ddof=0)"),
    Mutant("recoil_stats without _check_args", REC, "    _check_args(k, n, seed)\n    return _draw(k, n, seed)[0]",
           "    return _draw(k, n, seed)[0]"),
    # The command line and the package.
    Mutant("csv.Error in _bad_value raised", CLI, "    except (csv.Error, OSError):\n        pass\n",
           "    except (csv.Error, OSError):\n        raise\n"),
    Mutant("unseekable waveform stream not caught", CLI, "    except (csv.Error, OSError):\n", "    except csv.Error:\n"),
    Mutant("stdout None written to", CLI,
           "            if sys.stdout is None:  # as Python sets it when started with fd 1 closed\n"
           "                raise OSError(9, os.strerror(9))  # EBADF\n", ""),
    Mutant("wrong command on the direct dispatch", CLI, "            args.command = argv[0]\n",
           "            args.command = sub.prog\n"),
    Mutant("cmd_recoil without its check", CLI,
           "    try:\n        _check_args(args.k, args.n, args.seed)\n    except ValueError as exc:\n"
           "        raise UsageError(str(exc)) from exc\n", ""),
    Mutant("CSV line-break check dropped", CLI,
           "            if csv_run and isinstance(value, str) and value.splitlines() not in ([], [value]):\n"
           '                raise UsageError(f"--{name} must not hold a line break with --format csv")\n', ""),
    Mutant("UTF-8 check dropped", CLI,
           '            if csv_run and isinstance(value, str) and value.encode(errors="ignore").decode() != value:\n'
           '                raise UsageError(f"--{name} must be UTF-8 text with --format csv")\n', ""),
    Mutant("same-path check dropped", CLI,
           "            if same:\n                raise UsageError(f\"--{flag} and {'stdout' if output is None else '--output'} "
           'name the same file")\n', ""),
    Mutant("stdout never the same file", CLI, "os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))",
           "False"),
    Mutant("same file by name only", CLI, "os.path.samefile(path, output)",
           "os.path.realpath(path) == os.path.realpath(output)"),
    Mutant("a file not there yet never the same", CLI,
           "                same = output is not None and os.path.realpath(path) == os.path.realpath(output)\n",
           "                same = False\n"),
    # One writer: the side files, then the document.
    Mutant("document written before the side files", CLI,
           '    for path, chunks in (*files.items(), (config["output"], _document(config, results, table))):\n',
           '    for path, chunks in ((config["output"], _document(config, results, table)), *files.items()):\n'),
    Mutant("side files never written", CLI,
           '(*files.items(), (config["output"], _document(config, results, table)))',
           '((config["output"], _document(config, results, table)),)'),
    Mutant("empty error text not named", CLI,
           ' or ("out of memory" if isinstance(exc, MemoryError) else "")', ""),
    # Two CPUs format one table.
    Mutant("one-block tables fork", CLI,
           "    texts = _texts(make, parts) if len(parts) > len(table) else map(make, parts)\n",
           "    texts = _texts(make, parts)\n"),
    Mutant("parent makes the child's parts", CLI, "                yield data.decode()\n",
           "                yield make(part)\n"),
    Mutant("child not reaped", CLI, "                status = os.waitpid(pid, 0)[1]\n", "                status = 0\n"),
    Mutant("child failure ignored", CLI,
           "                if len(head) < 8 or len(data) < size:\n"
           "                    break  # the child ended before its last text\n", ""),
    Mutant("loader loads every module", INIT, "        if name in globals():\n",
           '        if name in globals() and module.__name__ == f"{__name__}.spectral":\n'),
]


def check_texts(mutants) -> list[str]:
    """One line per mutant whose ``old`` text does not occur exactly once."""
    bad = []
    for m in mutants:
        with open(os.path.join(ROOT, m.path), encoding="utf-8") as fh:
            count = fh.read().count(m.old)
        if count != 1:
            bad.append(f"{m.name}: old text occurs {count} times in {m.path}")
    return bad


def run_tests(mutant: Mutant | None) -> tuple[int | None, float]:
    """Exit code of tier-1 on a copy of the tree with ``mutant`` applied
    (None on a timeout), and the run's wall time."""
    with tempfile.TemporaryDirectory(prefix="pulselab-mutant-") as scratch:
        tree = os.path.join(scratch, "repo")
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if mutant is not None:
            path = os.path.join(tree, mutant.path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        start = time.perf_counter()
        try:
            code = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
        return code, time.perf_counter() - start


def main() -> int:
    bad = check_texts(MUTANTS)
    if bad:
        print("\n".join(bad))
        return 2
    start = time.perf_counter()
    code, seconds = run_tests(None)
    print(f"{'passes' if code == 0 else 'FAILS'}  unmutated tree ({seconds:.1f} s)", flush=True)
    if code != 0:
        return 2
    killed, survivors, equivalent = 0, [], 0
    for m in MUTANTS:
        code, seconds = run_tests(m)
        # pytest exits 1 when a test failed; 2-5 mean the run itself went wrong.
        if code is None or code == 1:
            verdict = "killed" if code == 1 else "killed (timed out)"
            killed += 1
        elif code == 0:
            verdict = "survived"
            if m.equivalent:
                equivalent += 1
            else:
                survivors.append(m.name)
        else:
            print(f"pytest exited {code} on {m.name}: the run did not complete")
            return 2
        note = f" - equivalent: {m.equivalent}" if m.equivalent else ""
        print(f"{verdict:<9} {m.name} ({seconds:.1f} s){note}", flush=True)
    print(f"{len(MUTANTS)} mutants: {killed} killed, {equivalent} equivalent survived, "
          f"{len(survivors)} others survived; {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
