"""Seeded input generator for the pulselab benchmark.

Writes, into an output directory, everything one benchmark run feeds to the
program: waveform CSV files and ``requests.json``, which holds each
request's argv, its kind, the parameters the output checks need, and the
share of each request kind.  The same ``--workload`` and ``--seed`` always
give the same files.  It runs as its own process before the timed workload
process starts, so the workload process's memory and time count only the
program's own work.

    python3 bench/gen.py --workload spectrum-sampled --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os

import numpy as np

WORKLOADS = ("spectrum-sampled", "bulk-emit", "small-requests")

# Exact request counts per kind.  The shares keep the 50% and 90% latency
# percentiles away from the boundaries between kinds (see README.md).
SAMPLED_KINDS = {"uniform": 30, "jittered": 10}
BULK_KINDS = {"spectrum-json": 12, "spectrum-csv": 4, "recoil-dump": 4}
SMALL_KINDS = {"adjust-task": 130, "width": 20, "spectrum-201": 50}

WAVE_SAMPLES = 2048
SAMPLED_POINTS = 1001
BULK_POINTS = 50000
BULK_RECOIL_N = 50000
SMALL_POINTS = 201


def _num(x: float) -> str:
    # The shortest string that reads back as the same double.
    return repr(float(x))


def _shuffled_kinds(rng, counts: dict) -> list:
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    return [kinds[i] for i in rng.permutation(len(kinds))]


def _shares(counts: dict) -> dict:
    total = sum(counts.values())
    return {kind: count / total for kind, count in counts.items()}


def _pulse(rng) -> dict:
    return {"a0": float(rng.uniform(0.5, 2.0)),
            "omega0": float(rng.uniform(5.0, 40.0)),
            "tau": float(rng.uniform(1.0, 4.0))}


def _analytic_argv(p: dict) -> list:
    return ["spectrum", "--a0", _num(p["a0"]), "--omega0", _num(p["omega0"]),
            "--tau", _num(p["tau"]), "--omega-min", _num(p["omega_min"]),
            "--omega-max", _num(p["omega_max"]), "--points", str(p["points"])]


def _write_waveform(path: str, t: np.ndarray, amp: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,re,im\n")
        for ti, ai in zip(t.tolist(), amp.tolist()):
            fh.write(f"{ti!r},{ai.real!r},{ai.imag!r}\n")


def gen_spectrum_sampled(rng, out: str) -> dict:
    requests = []
    for i, kind in enumerate(_shuffled_kinds(rng, SAMPLED_KINDS)):
        p = _pulse(rng)
        tau = p["tau"]
        if kind == "uniform":
            # As a user's np.linspace export: spacing varies at the ulp level.
            t = np.linspace(0.0, tau, WAVE_SAMPLES)
        else:
            h = tau / (WAVE_SAMPLES - 1)
            t = np.arange(WAVE_SAMPLES) * h
            t[1:-1] += rng.uniform(-0.3, 0.3, WAVE_SAMPLES - 2) * h
            t[-1] = tau
        amp = p["a0"] * np.exp(1j * p["omega0"] * t)
        wave = f"wave{i:03d}.csv"
        _write_waveform(os.path.join(out, wave), t, amp)
        # Five main-lobe half-widths wide: both first nulls and the half-maximum
        # crossings lie inside the grid, and the null falls on a grid point.
        half = 2.0 * math.pi / tau
        output = f"spec{i:03d}.json"
        argv = ["spectrum", "--input", wave,
                "--omega-min", _num(p["omega0"] - 2.5 * half),
                "--omega-max", _num(p["omega0"] + 2.5 * half),
                "--points", str(SAMPLED_POINTS), "--output", output]
        requests.append({"kind": kind, "argv": argv, "params": p,
                         "input": wave, "output": output})
    return {"kinds": SAMPLED_KINDS, "requests": requests}


def _spectrum_request(kind: str, i: int, params: dict) -> dict:
    fmt = "csv" if kind == "spectrum-csv" else "json"
    output = f"spec{i:03d}.{fmt}"
    return {"kind": kind, "argv": _analytic_argv(params) + ["--format", fmt, "--output", output],
            "output": output, "params": params}


def gen_bulk_emit(rng, out: str) -> dict:
    kinds = _shuffled_kinds(rng, BULK_KINDS)
    requests = [None] * len(kinds)
    for i, kind in enumerate(kinds):
        if kind == "recoil-dump":
            k = float(rng.uniform(0.5, 5.0))
            seed = int(rng.integers(0, 2**31))
            dump, output = f"dump{i:03d}.csv", f"recoil{i:03d}.json"
            argv = ["recoil", "--k", _num(k), "--n", str(BULK_RECOIL_N), "--seed", str(seed),
                    "--dump", dump, "--output", output]
            requests[i] = {"kind": kind, "argv": argv, "output": output, "dump": dump,
                           "params": {"k": k, "n": BULK_RECOIL_N, "seed": seed}}
        elif kind == "spectrum-json":
            p = _pulse(rng)
            span = float(rng.uniform(5.0, 20.0)) * 2.0 * math.pi / p["tau"]
            requests[i] = _spectrum_request(kind, i, {
                **p, "omega_min": p["omega0"] - span, "omega_max": p["omega0"] + span,
                "points": BULK_POINTS})
    # Each CSV request repeats the config of one JSON request, so the two
    # formats of one config can be compared number for number.
    json_at = iter([i for i, kind in enumerate(kinds) if kind == "spectrum-json"])
    for i, kind in enumerate(kinds):
        if kind == "spectrum-csv":
            twin = next(json_at)
            requests[i] = {**_spectrum_request(kind, i, requests[twin]["params"]), "twin": twin}
    return {"kinds": BULK_KINDS, "requests": requests}


def gen_small_requests(rng, out: str) -> dict:
    requests = []
    for kind in _shuffled_kinds(rng, SMALL_KINDS):
        if kind == "adjust-task":
            e = float(rng.uniform(0.5, 5.0))
            p = {"e": e, "de": float(rng.uniform(0.05, 2.0)) * e, "t": float(rng.uniform(0.1, 1.0))}
            argv = ["adjust", "--e", _num(p["e"]), "--de", _num(p["de"]), "--t", _num(p["t"])]
        elif kind == "width":
            p = {"omega0": float(rng.uniform(1.0, 50.0)), "tau": float(rng.uniform(0.5, 10.0)),
                 "hbar": float(rng.uniform(0.5, 2.0))}
            argv = ["width", "--omega0", _num(p["omega0"]), "--tau", _num(p["tau"]),
                    "--hbar", _num(p["hbar"])]
        else:
            pulse = _pulse(rng)
            span = 3.0 * 2.0 * math.pi / pulse["tau"]
            p = {**pulse, "omega_min": pulse["omega0"] - span,
                 "omega_max": pulse["omega0"] + span, "points": SMALL_POINTS}
            argv = _analytic_argv(p)
        requests.append({"kind": kind, "argv": argv, "params": p})
    return {"kinds": SMALL_KINDS, "requests": requests}


GENERATORS = {
    "spectrum-sampled": gen_spectrum_sampled,
    "bulk-emit": gen_bulk_emit,
    "small-requests": gen_small_requests,
}


def generate(workload: str, seed: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    spec = GENERATORS[workload](rng, out)
    doc = {"workload": workload, "seed": seed, "shares": _shares(spec["kinds"]),
           "requests": spec["requests"]}
    with open(os.path.join(out, "requests.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
