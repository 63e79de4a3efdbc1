"""Output checks for the pulselab benchmark, run outside the timed interval.

Every reference value here is computed by the benchmark itself, from the
request's parameters and the closed forms or plain numpy sums, not by
calling pulselab.  Each check returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Sampled spectra: allowed |I - I_ref| as a share of the reference peak.  A
# chirp-z path measured at most 5e-11 of peak; a wrong spectrum is off by far
# more than 1e-9.
SAMPLED_TOL = 1e-9
# Analytic spectra: allowed |I - I_closed_form| as a share of the peak.
ANALYTIC_TOL = 1e-9
# Relative tolerance for scalars that are one closed-form expression.
SCALAR_RTOL = 1e-12
# The solver's own convergence tolerance (solve_imag_zero's default).
SOLVER_TOL = 1e-12
SPOTS = 8


def _close(got, want, rtol=SCALAR_RTOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-300)


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _spots(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, SPOTS).round().astype(int))


def read_csv_document(text: str):
    """(scalars from '# key = value' lines, header, numeric rows) of a CSV output."""
    scalars, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            scalars[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line)
    data = np.array([r.split(",") for r in rows], dtype=float) if rows else np.empty((0, len(header)))
    return scalars, header, data


def check_spectrum_sampled(req: dict, text: str) -> list:
    """Spot values against the benchmark's own trapezoid sum; peak position."""
    problems = []
    p = req["params"]
    res = json.loads(text)["results"]
    omega, intensity = np.array(res["omega"]), np.array(res["intensity"])
    points = int(req["argv"][req["argv"].index("--points") + 1])
    _expect(problems, omega.size == intensity.size == points, "omega/intensity length")
    if problems:
        return problems
    wave = np.loadtxt(req["input"], delimiter=",", skiprows=1)
    t, amp = wave[:, 0], wave[:, 1] + 1j * wave[:, 2]
    idx = np.union1d(_spots(points), [int(np.argmax(intensity))])
    f = amp[None, :] * np.exp(-1j * omega[idx, None] * t[None, :])
    ref_f = 0.5 * ((f[:, 1:] + f[:, :-1]) * np.diff(t)[None, :]).sum(axis=1)
    ref = ref_f.real ** 2 + ref_f.imag ** 2
    peak = p["a0"] ** 2 * p["tau"] ** 2
    err = np.max(np.abs(intensity[idx] - ref)) / peak
    _expect(problems, err <= SAMPLED_TOL, f"spectrum off the trapezoid sum by {err:.3g} of peak")
    step = omega[1] - omega[0]
    _expect(problems, abs(res["peak_omega"] - p["omega0"]) <= step * (1 + 1e-9),
            f"peak_omega {res['peak_omega']!r} not within one step of omega0 {p['omega0']!r}")
    _expect(problems, res["peak_intensity"] == float(intensity.max()), "peak_intensity is not max(intensity)")
    return problems


def _closed_form(p: dict, omega: np.ndarray) -> np.ndarray:
    u = omega - p["omega0"]
    with np.errstate(divide="ignore", invalid="ignore"):
        i = 4.0 * p["a0"] ** 2 * np.sin(0.5 * u * p["tau"]) ** 2 / (u * u)
    return np.where(u == 0.0, p["a0"] ** 2 * p["tau"] ** 2, i)


def _check_analytic(p: dict, summary: dict, omega: np.ndarray, intensity: np.ndarray) -> list:
    problems = []
    n = p["points"]
    _expect(problems, omega.size == intensity.size == n, f"{omega.size} points, expected {n}")
    if problems:
        return problems
    idx = _spots(n)
    grid = np.linspace(p["omega_min"], p["omega_max"], n)
    _expect(problems, np.allclose(omega[idx], grid[idx], rtol=1e-14, atol=0.0), "omega grid")
    peak = p["a0"] ** 2 * p["tau"] ** 2
    err = np.max(np.abs(intensity[idx] - _closed_form(p, omega[idx]))) / peak
    _expect(problems, err <= ANALYTIC_TOL, f"intensity off the closed form by {err:.3g} of peak")
    _expect(problems, _close(float(summary["peak_intensity"]), peak), "peak_intensity")
    _expect(problems, _close(float(summary["time_bandwidth_product"]), TWO_PI), "time_bandwidth_product")
    return problems


def check_spectrum_json(req: dict, text: str) -> list:
    res = json.loads(text)["results"]
    return _check_analytic(req["params"], res, np.array(res["omega"]), np.array(res["intensity"]))


def check_spectrum_csv(req: dict, text: str, twin_text: str | None) -> list:
    """Closed-form checks, and the same numbers as the JSON output of its config."""
    scalars, header, data = read_csv_document(text)
    if header != ["omega", "intensity"]:
        return [f"CSV header {header}"]
    problems = _check_analytic(req["params"], scalars, data[:, 0], data[:, 1])
    if twin_text is not None:
        res = json.loads(twin_text)["results"]
        _expect(problems, np.array_equal(data[:, 0], res["omega"]) and
                np.array_equal(data[:, 1], res["intensity"]), "CSV and JSON tables differ")
        for key, value in scalars.items():
            if key in res and isinstance(res[key], float):
                _expect(problems, float(value) == res[key], f"CSV and JSON differ on {key}")
    return problems


def check_recoil_dump(req: dict, text: str, dump_text: str) -> list:
    problems = []
    p = req["params"]
    res = json.loads(text)["results"]
    _, header, data = read_csv_document(dump_text)
    _expect(problems, header == ["kx", "ky", "kz"], f"dump header {header}")
    _expect(problems, res["n"] == p["n"] == data.shape[0], f"{data.shape[0]} dump rows, expected {p['n']}")
    if problems:
        return problems
    k = p["k"]
    norm_err = np.max(np.abs(np.sqrt((data * data).sum(axis=1)) - k))
    _expect(problems, norm_err <= 1e-12 * k, f"|k| of a dump row off by {norm_err:.3g}")
    _expect(problems, _close(float(np.mean(data[:, 2])), res["mean_kz"]), "dump mean kz differs from mean_kz")
    # cos(theta) ~ U(0, 1]: mean k/2, standard error k / sqrt(12 n).
    sigma = k / math.sqrt(12.0 * p["n"])
    _expect(problems, abs(res["mean_kz"] - 0.5 * k) <= 6.0 * sigma, "mean_kz more than 6 sigma from k/2")
    return problems


def check_adjust_task(req: dict, text: str, linear, nonlinear) -> list:
    """CLI closed forms, and the two library solves of the same task."""
    problems = []
    p = req["params"]
    e, de, t = p["e"], p["de"], p["t"]
    res = json.loads(text)["results"]
    zeta = -de * t / e
    _expect(problems, _close(res["paper_value"], e - de * de / e), "paper_value")
    _expect(problems, _close(res["consistent_value"], (e + de * de / e) * t), "consistent_value")
    _expect(problems, _close(res["zeta_consistent"], zeta), "zeta_consistent")
    # Solver stops at |Im B| <= tol * max(1, |B|); Im B = e * zeta + de * t.
    b = complex(e, de) * complex(t, linear.zeta)
    _expect(problems, abs(linear.zeta - zeta) <= 2.0 * SOLVER_TOL * max(1.0, abs(b)) / abs(e),
            f"linear solve zeta {linear.zeta!r}, expected {zeta!r}")
    b = nonlinear_observable(e)(complex(t, nonlinear.zeta))
    _expect(problems, abs(b.imag) <= SOLVER_TOL * max(1.0, abs(b)),
            f"nonlinear residual {abs(b.imag):.3g} above tolerance")
    return problems


def check_width(req: dict, text: str) -> list:
    problems = []
    p = req["params"]
    res = json.loads(text)["results"]
    _expect(problems, _close(res["time_bandwidth_product"], TWO_PI), "time_bandwidth_product")
    _expect(problems, _close(res["first_zero_halfwidth"], TWO_PI / p["tau"]), "first_zero_halfwidth")
    _expect(problems, _close(res["mean_energy"], p["hbar"] * p["omega0"]), "mean_energy")
    return problems


def linear_observable(e: float, de: float):
    c = complex(e, de)
    return lambda z: c * z


def nonlinear_observable(e: float):
    return lambda z: cmath.exp(1j * z) * (e + z)
