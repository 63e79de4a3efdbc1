"""Smoke test of the benchmark harness itself.

    python3 bench/smoke.py

Run from the repository root.  For every workload in BENCHMARK.json it makes
a minimal-length run (``--seconds 1``; untraced runs still time at least 100
requests), untraced and traced, and checks that the result line carries
exactly the declared metrics with their units, that no request failed, and
that the traced run found every layer boundary.  Last, it checks that in a
directory holding only BENCHMARK.json and the benchmark's own files the
benchmark exits non-zero without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()


def run(cmd: list, cwd: str) -> tuple[int, list]:
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = bench["command"] + ["--workload", workload, "--seed", "0",
                                      "--seconds", "1", "--trace", str(trace)]
            code, lines = run(cmd, ROOT)
            name = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{name}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"]
            declared = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(result)}")
            if got != declared:
                problems.append(f"{name}: metrics {got} differ from BENCHMARK.json {declared}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{name}: {result['failed']} of {result['attempted']} requests failed")
            if trace and context["missing"]:
                problems.append(f"{name}: missing layer boundaries {context['missing']}")
            print(f"ok  {name}: {result['attempted']} requests"
                  + (f", dominant layer {context['dominant_layer']}" if trace else ""))

    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                              "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
        if code == 0 or lines:
            problems.append(f"bare directory: exit code {code}, {len(lines)} lines on stdout")
        else:
            print(f"ok  bare directory: exit code {code}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
