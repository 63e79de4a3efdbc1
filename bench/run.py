"""Run one pulselab benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a pulselab source checkout; pulselab is imported
from ``src/``.  One run:

1. gen.py, in its own process, writes the seeded inputs into a scratch
   directory under ``.bench_work/``;
2. with ``--trace 0``, SETUP_PROBES fresh processes each time
   ``import pulselab, pulselab.cli``;
3. worker.py, the single-threaded workload process, times the closed loop
   and checks every output outside the timed interval;
4. the run prints one line of context (machine facts, drift reference,
   request shares, sample counts) and, last, the result line
   ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Workloads, metrics and the layer each metric should move are described in
README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spectrum-sampled", "bulk-emit", "small-requests")
SETUP_PROBES = 8
# Everything a run does must end well inside 180 s.
DEADLINE_S = 170.0
PROBE = ("import time; t0 = time.perf_counter(); import pulselab, pulselab.cli; "
         "print(time.perf_counter() - t0)")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "spectral.fourier_intensity.self_s": "s/req",
    "spectral.fourier_intensity.calls": "1/req",
    "spectral.fourier_intensity.tw_products": "1/req",
    "spectral.fourier_intensity.bytes_computed": "B/req",
    "spectral.widths.self_s": "s/req",
    "cli.self_s": "s/req",
    "cli.calls": "1/req",
    "cli.input_bytes": "B/req",
    "cli.output_bytes": "B/req",
    "recoil.recoil_stats.self_s": "s/req",
    "recoil.momentum_samples.self_s": "s/req",
    "recoil.samples_drawn": "1/req",
    "wavepacket.analytic_intensity.self_s": "s/req",
    "wavepacket.analytic_intensity.points": "1/req",
    "adjustment.solve_imag_zero.self_s": "s/req",
    "adjustment.solve_imag_zero.calls": "1/req",
    "adjustment.solve_imag_zero.evaluations": "1/req",
    "adjustment.closed_form.self_s": "s/req",
    "trace.request_s": "s/req",
    "trace.traced_throughput_rps": "1/s",
    "trace.untraced_throughput_rps": "1/s",
    "trace.overhead_pct": "%",
    "trace.missing_boundaries": "count",
    "machine.spin_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _cache_bytes(index: int) -> int | None:
    path = f"/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _run(argv: list, deadline: float, **kwargs) -> str:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=left, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv[:3])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(argv[:3])}")
    return proc.stdout


def run(args, root: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        _run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--out", workdir], deadline)
        setup = []
        if not args.trace:
            setup = [float(_run([sys.executable, "-c", PROBE], deadline, env=env, cwd=root))
                     for _ in range(SETUP_PROBES)]
        out = json.loads(_run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, "--workdir", workdir,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline, env=env, cwd=root).splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    **out["versions"], "l2_bytes": _cache_bytes(2), "l3_bytes": _cache_bytes(3),
                    "spin_ms_before": out["spin_ms"][0], "spin_ms_after": out["spin_ms"][1]},
        "shares": out["shares"],
        "error_rate": out["failed"] / out["attempted"],
    }
    if not args.trace:
        setup.append(out["setup_s"])
        context.update(requests=out["requests"], by_kind=out["by_kind"], loop_s=out["loop_s"],
                       setup_samples_s=setup)
        values = {"setup_s": statistics.median(setup), "peak_rss_mb": out["peak_rss_mb"],
                  **{k: out[k] for k in ("latency_p50_ms", "latency_p90_ms", "throughput_rps")}}
        units = END_TO_END
    else:
        layers = out["layers"]
        traced, untraced = out["traced"]["throughput_rps"], out["untraced"]["throughput_rps"]
        values = {name: layers.get(name, 0.0) for name in PER_LAYER}
        values.update({
            "trace.traced_throughput_rps": traced,
            "trace.untraced_throughput_rps": untraced,
            "trace.overhead_pct": 100.0 * (untraced / traced - 1.0),
            "trace.missing_boundaries": len(out["missing"]),
            "machine.spin_ms": statistics.mean(out["spin_ms"]),
        })
        context.update(requests=out["traced"]["requests"], by_kind=out["traced"]["by_kind"],
                       **{k: out[k] for k in ("missing", "self_time_shares", "dominant_layer")})
        units = PER_LAYER
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"], "failed": out["failed"],
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    return context, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pulselab", "__init__.py")):
        print("error: run from the root of a pulselab checkout (no src/pulselab here)", file=sys.stderr)
        return 2
    try:
        context, result = run(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
