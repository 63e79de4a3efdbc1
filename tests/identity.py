"""Byte-identity A/B of the command line against another revision.

    python tests/identity.py --base REV [--expect CASE ...]

Extracts ``git archive REV`` into a temporary directory and runs every case
twice, as a fresh ``python -m pulselab.cli`` process with ``src/`` of this
working tree and with ``src/`` of REV on the path.  The two processes of a
case run side by side, each in its own copy of the same input files, so the
relative paths in documents and error lines are the same.  The cases are:

- every request that ``bench/gen.py`` writes for each workload at seeds 7
  and 13, which compare exit code, stdout, stderr and each ``--output`` and
  ``--dump`` file;
- for each adjust task among them, the ``repr`` of the two library
  ``solve_imag_zero`` results the benchmark takes, on the observables of
  ``bench/checks.py``;
- each line of ``identity_corpus.txt`` next to this file, run in a fresh
  directory of the small inputs ``corpus_inputs`` writes, which compares exit
  code, stdout, stderr and every file the directory holds afterwards.

Each facet is compared by its sha256.  The script prints one line per case
that differs and a summary.  ``--expect`` names the cases meant to differ
(shell-style patterns), which are counted apart from the others.  Exit
status 0 when no other case differs, 1 when one does, and 2 when REV cannot
be extracted.  Uses only the standard library; pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from itertools import chain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tests", "identity_corpus.txt")
WORKLOADS = ("spectrum-sampled", "bulk-emit", "small-requests")
SEEDS = (7, 13)
TIMEOUT_S = 600
OUTPUT_FLAGS = ("--output", "-o", "--dump")
CLI = [sys.executable, "-m", "pulselab.cli"]

# Prints, one line each, the repr of the two library solves of every adjust
# task in requests.json (argv[2]), as bench/worker.py makes them with the
# observables of checks.py in the directory argv[1].
SOLVES = """
import json, sys
sys.path.insert(0, sys.argv[1])
import checks, pulselab
for req in json.load(open(sys.argv[2]))["requests"]:
    if req["kind"] == "adjust-task":
        p = req["params"]
        for obs in (checks.linear_observable(p["e"], p["de"]), checks.nonlinear_observable(p["e"])):
            try:
                print(repr(pulselab.solve_imag_zero(pulselab.ComplexObservable(obs, x0=p["t"]))))
            except Exception as exc:
                print(repr(exc))
"""


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def extract(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_pair(trees: list, argv: list, cwds: list) -> list:
    """The exit code and the sha256 of stdout and of stderr of ``argv`` run in
    each tree (in the matching directory of ``cwds``), side by side.  A run
    that times out is killed and reads as its kill's exit code."""
    procs = [subprocess.Popen(argv, cwd=cwd, env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for tree, cwd in zip(trees, cwds)]
    facets = []
    for proc in procs:
        try:
            out, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        facets.append({"exit": str(proc.returncode), "stdout": sha(out), "stderr": sha(err)})
    return facets


def file_facet(path: str) -> str:
    if os.path.islink(path):
        return "link to " + os.readlink(path)
    if not os.path.exists(path):
        return "missing"
    with open(path, "rb") as fh:
        return sha(fh.read())


def named_outputs(argv: list) -> list:
    """The paths an argv names with ``--output``, ``-o`` or ``--dump``, each given as the next argument."""
    return [value for flag, value in zip(argv, argv[1:]) if flag in OUTPUT_FLAGS]


def bench_cases(trees: list, scratch: str):
    """(case name, [facets per tree]) for every benchmark request and library solve."""
    for workload in WORKLOADS:
        for seed in SEEDS:
            label = f"{workload}/{seed}"
            inputs = os.path.join(scratch, "inputs", label)
            subprocess.run([sys.executable, os.path.join(ROOT, "bench", "gen.py"), "--workload", workload,
                            "--seed", str(seed), "--out", inputs], check=True)
            cwds = [os.path.join(scratch, side, label) for side in ("this", "base")]
            for cwd in cwds:
                shutil.copytree(inputs, cwd)
            requests_json = os.path.join(inputs, "requests.json")
            with open(requests_json, encoding="utf-8") as fh:
                requests = json.load(fh)["requests"]
            for i, req in enumerate(requests):
                facets = run_pair(trees, CLI + req["argv"], cwds)
                for path in named_outputs(req["argv"]):
                    for cwd, f in zip(cwds, facets):
                        f[f"file {path}"] = file_facet(os.path.join(cwd, path))
                        if os.path.isfile(os.path.join(cwd, path)):
                            os.remove(os.path.join(cwd, path))  # the documents of bulk-emit add up
                yield f"{label}/{i:03d}", facets
            if any(req["kind"] == "adjust-task" for req in requests):
                argv = [sys.executable, "-c", SOLVES, os.path.join(ROOT, "bench"), requests_json]
                yield f"{label}/solves", run_pair(trees, argv, cwds)


def corpus_inputs(directory: str) -> None:
    """The small input files the corpus lines name: waveforms of the pulse
    a0 = 1, omega0 = 10, tau = 2 at 257 samples (clean ``w.csv``, jittered
    ``jw.csv``, stamped from t = 1e9 ``ew.csv``), three broken waveforms, and
    ``lw.csv``, a symlink to ``w.csv``."""
    os.makedirs(directory)
    n, tau = 257, 2.0
    h = tau / (n - 1)
    rng = random.Random(5)
    grids = {"w.csv": [k * h for k in range(n)],
             "jw.csv": [0.0] + [(k + rng.uniform(-0.3, 0.3)) * h for k in range(1, n - 1)] + [tau],
             "ew.csv": [1e9 + k * h for k in range(n)]}
    for name, t in grids.items():
        rows = "".join(f"{x!r},{math.cos(10.0 * (x - t[0]))!r},{math.sin(10.0 * (x - t[0]))!r}\n" for x in t)
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write("t,re,im\n" + rows)
    for name, text in {"bad.csv": "t,re,im\n0,1,0\n1,x,0\n", "nohead.csv": "t,x\n0,1\n1,2\n",
                       "span.csv": "t,amp\n-1e308,1\n1e308,1\n"}.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    os.symlink("w.csv", os.path.join(directory, "lw.csv"))


def read_corpus() -> list:
    """(name, argv) for each line of the corpus: a name, then the argv as a
    JSON array; blank lines and lines that start with # are skipped."""
    cases = []
    with open(CORPUS, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                name, argv = line.split(None, 1)
                cases.append((name, json.loads(argv)))
    return cases


def corpus_cases(trees: list, scratch: str):
    """(case name, [facets per tree]) for every corpus line."""
    inputs = os.path.join(scratch, "inputs", "corpus")
    corpus_inputs(inputs)
    for name, argv in read_corpus():
        cwds = [os.path.join(scratch, side, "corpus", name) for side in ("this", "base")]
        for cwd in cwds:
            shutil.copytree(inputs, cwd, symlinks=True)
        facets = run_pair(trees, CLI + argv, cwds)
        for cwd, f in zip(cwds, facets):
            for entry in sorted(os.listdir(cwd)):
                f[f"file {entry!r}"] = file_facet(os.path.join(cwd, entry))
            shutil.rmtree(cwd)
        yield f"corpus/{name}", facets


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the git revision to compare against")
    ap.add_argument("--expect", nargs="*", default=[], metavar="CASE",
                    help="cases meant to differ, as shell-style patterns")
    args = ap.parse_args()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="pulselab-identity-") as scratch:
        base = os.path.join(scratch, "tree")
        try:
            extract(args.base, base)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot extract {args.base}: {exc.stderr.decode(errors='replace').strip()}",
                  file=sys.stderr)
            return 2
        trees = [ROOT, base]
        counts = {"identical": 0, "expected": 0, "unexpected": 0}
        for name, (this, other) in chain(bench_cases(trees, scratch), corpus_cases(trees, scratch)):
            differs = sorted(key for key in this.keys() | other.keys() if this.get(key) != other.get(key))
            if not differs:
                counts["identical"] += 1
                continue
            expected = any(fnmatch.fnmatchcase(name, p) for p in args.expect)
            counts["expected" if expected else "unexpected"] += 1
            print(f"{'expected' if expected else 'differs'}: {name} ({', '.join(differs)})", flush=True)
    print(f"{sum(counts.values())} cases against {args.base}: {counts['identical']} identical, "
          f"{counts['expected']} expected differences, {counts['unexpected']} unexpected; "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if counts["unexpected"] else 0


if __name__ == "__main__":
    sys.exit(main())
