"""The timed workload process of the pulselab benchmark.

One process, one thread, one closed-loop client: each request calls
``pulselab.cli.main(argv)`` in-process (an adjust task also calls the library
``solve_imag_zero`` twice) and the next request starts only after it returns.
The request list comes from ``requests.json`` in the working directory, made
beforehand by gen.py; the list is replayed in order, wrapping around.

Prints one JSON object with the raw measurements on its last line.  run.py
starts this process; run it alone only to debug:

    PYTHONPATH=src python3 bench/worker.py --root . --workdir DIR --seconds 5 --trace 0
"""

from time import perf_counter

_T0 = perf_counter()
import pulselab  # noqa: E402  (the import is what setup_s times)
import pulselab.cli  # noqa: E402

SETUP_S = perf_counter() - _T0

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402

# p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100


def spin_ms() -> float:
    """A fixed pure-Python plus numpy loop; a drift reference, never used to rescale."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    x = np.arange(200_000, dtype=float)
    for _ in range(20):
        x = np.sqrt(x * x + 1.0)
    return (perf_counter() - t0) * 1e3


def make_call(req: dict):
    """A zero-argument callable for one request; returns (exit code, solver results)."""
    argv = req["argv"]
    if req["kind"] != "adjust-task":
        def call():
            return pulselab.cli.main(argv), None

        return call
    p = req["params"]
    linear = pulselab.ComplexObservable(checks.linear_observable(p["e"], p["de"]), x0=p["t"])
    nonlinear = pulselab.ComplexObservable(checks.nonlinear_observable(p["e"]), x0=p["t"])

    def call():
        rc = pulselab.cli.main(argv)
        solve = pulselab.solve_imag_zero
        return rc, (solve(linear), solve(nonlinear))

    return call


class Loop:
    """Runs requests in list order and keeps the last output of each."""

    def __init__(self, requests: list) -> None:
        self.requests = requests
        self.calls = [make_call(r) for r in requests]
        self.next = 0
        self.attempts = [0] * len(requests)
        self.errors = [0] * len(requests)
        self.stdout = [None] * len(requests)
        self.extras = [None] * len(requests)

    def run(self, seconds: float, min_requests: int = 0, whole_passes: bool = False):
        """Timed closed loop; returns (latencies in s, request indices, completed count, loop wall s)."""
        lat, ran, completed = [], [], 0
        if whole_passes:
            self.next = 0
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            done = elapsed >= seconds and len(lat) >= min_requests
            if done and (not whole_passes or self.next == 0):
                break
            i = self.next
            self.next = (i + 1) % len(self.calls)
            buf = io.StringIO()
            real_stdout, sys.stdout = sys.stdout, buf
            t0 = perf_counter()
            try:
                rc, extra = self.calls[i]()
            except Exception as exc:  # a request that raises is a failed request
                rc, extra = repr(exc), None
            finally:
                t1 = perf_counter()
                sys.stdout = real_stdout
            lat.append(t1 - t0)
            ran.append(i)
            self.attempts[i] += 1
            if rc == 0:
                completed += 1
                self.stdout[i], self.extras[i] = buf.getvalue(), extra
            else:
                self.errors[i] += 1
                print(f"request {i} failed: {rc}", file=sys.stderr)
        return lat, ran, completed, perf_counter() - start

    def check(self) -> list:
        """Check the last output of every request that ran; returns failed request indices."""
        bad = []
        for i, req in enumerate(self.requests):
            if self.attempts[i] == self.errors[i]:
                continue
            try:
                problems = check_request(req, self.stdout[i], self.extras[i], self.requests)
            except Exception as exc:  # an unreadable output fails its request
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                bad.append(i)
                print(f"request {i} ({req['kind']}) check failed: {problems}", file=sys.stderr)
        return bad

    def failed(self, bad: list) -> int:
        return sum(self.errors) + sum(self.attempts[i] - self.errors[i] for i in bad)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check_request(req: dict, stdout: str, extra, requests: list) -> list:
    text = _read(req["output"]) if "output" in req else stdout
    kind = req["kind"]
    if kind in ("uniform", "jittered"):
        return checks.check_spectrum_sampled(req, text)
    if kind in ("spectrum-json", "spectrum-201"):
        return checks.check_spectrum_json(req, text)
    if kind == "spectrum-csv":
        twin = requests[req["twin"]]["output"]
        return checks.check_spectrum_csv(req, text, _read(twin) if os.path.exists(twin) else None)
    if kind == "recoil-dump":
        return checks.check_recoil_dump(req, text, _read(req["dump"]))
    if kind == "adjust-task":
        return checks.check_adjust_task(req, text, *extra)
    if kind == "width":
        return checks.check_width(req, text)
    return [f"unknown request kind {kind}"]


def summarize(requests: list, lat: list, ran: list, completed: int, wall: float) -> dict:
    ms = np.array(lat) * 1e3
    p50, p90 = np.percentile(ms, [50, 90])
    kinds = np.array([requests[i]["kind"] for i in ran])
    by_kind = {k: {"requests": int((kinds == k).sum()), "p50_ms": float(np.median(ms[kinds == k]))}
               for k in sorted(set(kinds))}
    return {"requests": len(lat), "latency_p50_ms": float(p50), "latency_p90_ms": float(p90),
            "throughput_rps": completed / wall, "loop_s": wall, "by_kind": by_kind}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_layers(tracer: Tracer, lat: list) -> tuple[dict, dict]:
    """Per-request means of every span's self time and every counter, and self-time shares."""
    n = len(lat)
    request_s = sum(lat) / n
    layers = {f"{s}.self_s": tracer.self_s[s] / n for s in SPANS}
    layers.update({k: v / n for k, v in tracer.counts.items()})
    layers["trace.request_s"] = request_s
    shares = {s: tracer.self_s[s] / n / request_s for s in SPANS}
    return layers, shares


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(pulselab.__file__).startswith(src + os.sep):
        sys.exit(f"pulselab imported from {pulselab.__file__}, not from {src}")
    os.chdir(args.workdir)
    with open("requests.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    out = {"setup_s": SETUP_S,
           "versions": {"python": platform.python_version(), "numpy": np.__version__,
                        "pulselab": getattr(pulselab, "__version__", "unknown")},
           "shares": spec["shares"]}
    spin_before = spin_ms()
    loop = Loop(spec["requests"])
    gc.collect()
    if args.trace == 0:
        timed = loop.run(args.seconds, MIN_REQUESTS)
        out["peak_rss_mb"] = peak_rss_mb()
        out.update(summarize(loop.requests, *timed))
    else:
        # Untraced first for the overhead baseline, then whole passes over the
        # request list traced, so the per-request counters repeat exactly.
        out["untraced"] = summarize(loop.requests, *loop.run(args.seconds / 2))
        tracer = Tracer()
        tracer.install()
        try:
            timed = loop.run(args.seconds / 2, whole_passes=True)
        finally:
            tracer.uninstall()
        out["traced"] = summarize(loop.requests, *timed)
        out["layers"], shares = traced_layers(tracer, timed[0])
        out["self_time_shares"] = shares
        out["dominant_layer"] = max(shares, key=shares.get)
        out["missing"] = tracer.missing
    out["spin_ms"] = [spin_before, spin_ms()]
    bad = loop.check()
    out["attempted"] = sum(loop.attempts)
    out["failed"] = loop.failed(bad)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
