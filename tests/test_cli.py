import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pulselab.cli
import pulselab.recoil
from pulselab import (
    Pulse,
    SampledWaveform,
    analytic_intensity,
    fourier_intensity,
    momentum_samples,
    recoil_stats,
    sample_waveform,
)
from pulselab.cli import main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def rebuild_argv(config):
    """Reconstruct the command line from an output's embedded config."""
    argv = [config["command"]]
    for key, value in config.items():
        if key == "command" or value is None:
            continue
        # --flag=value; the bare form reads "-1e-05" as a value too
        # (test_negative_exponent_after_bare_flag)
        argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


class TestSpectrum:
    def test_analytic_summary(self, capsys):
        code, doc = run_json(capsys, [
            "spectrum", "--a0", "1", "--omega0", "10", "--tau", "2",
            "--omega-min", "4", "--omega-max", "16", "--points", "2001",
        ])
        assert code == 0
        s = doc["results"]
        assert s["peak_intensity"] == 4.0
        assert s["peak_omega"] == 10.0
        assert s["first_zero_halfwidth"] == pytest.approx(np.pi, rel=1e-14)
        assert s["time_bandwidth_product"] == pytest.approx(2.0 * np.pi, rel=1e-14)
        assert len(s["omega"]) == len(s["intensity"]) == 2001

    def test_numeric_mode_matches_analytic(self, capsys, tmp_path):
        pulse = Pulse(1.0, 10.0, 2.0)
        t = np.linspace(0.0, 2.0, 4096)
        amp = sample_waveform(pulse, t)
        path = tmp_path / "waveform.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "re", "im"])
            for ti, ai in zip(t, amp):
                writer.writerow([repr(float(ti)), repr(float(ai.real)), repr(float(ai.imag))])
        common = ["--omega-min", "4", "--omega-max", "16", "--points", "4001"]
        _, analytic = run_json(capsys, [
            "spectrum", "--a0", "1", "--omega0", "10", "--tau", "2", *common])
        code, numeric = run_json(capsys, ["spectrum", "--input", str(path), *common])
        assert code == 0
        for key in ("peak_intensity", "first_zero_halfwidth", "fwhm", "time_bandwidth_product"):
            assert numeric["results"][key] == pytest.approx(analytic["results"][key], rel=1e-4)

    def test_degenerate_grid_is_usage_error(self, capsys):
        assert main(["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2",
                     "--omega-min", "4", "--omega-max", "16", "--points", "1"]) == 2

    def test_missing_pulse_flags(self, capsys):
        assert main(["spectrum", "--omega-min", "4", "--omega-max", "16", "--points", "10"]) == 2

    @pytest.mark.parametrize("flag,value", [("--omega-max", "inf"), ("--omega-min", "nan")])
    def test_non_finite_flag_is_usage_error(self, capsys, flag, value):
        argv = ["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2",
                "--omega-min", "4", "--omega-max", "16", "--points", "10"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} must be finite\n"

    @pytest.mark.parametrize("omega_min,omega_max,points,message", [
        ("-1e308", "1e308", "10", "--omega-max minus --omega-min overflows"),
        ("1", "1.0000000000000002", "10", "--points too many: the omega grid is not strictly increasing"),
    ], ids=["span-overflows", "repeated-points"])
    def test_unrepresentable_grid_is_usage_error(self, capsys, omega_min, omega_max, points, message):
        assert main(["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2", f"--omega-min={omega_min}",
                     "--omega-max", omega_max, "--points", points]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("jitter", [None, 0.0, 1e-3])
    def test_intensity_overflow_is_runtime_error(self, capsys, tmp_path, jitter):
        common = ["--omega-min", "5", "--omega-max", "15", "--points", "11"]
        if jitter is None:
            argv = ["spectrum", "--a0", "1e200", "--omega0", "10", "--tau", "2", *common]
        else:  # a sampled waveform on a uniform (chirp-z) or jittered (blocked) grid
            t = np.linspace(0.0, 2.0, 64)
            t[1:-1] += jitter * np.sin(np.arange(62))
            amp = 1e200 * np.exp(10j * t)
            path = tmp_path / "loud.csv"
            path.write_text("t,re,im\n" + "".join(
                f"{ti!r},{a.real!r},{a.imag!r}\n" for ti, a in zip(t.tolist(), amp.tolist())))
            argv = ["spectrum", "--input", str(path), *common]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: intensities must be finite\n"

    @pytest.mark.parametrize("value", ["-1e-05", "-.5E+3", "-7E2"])
    def test_negative_exponent_after_bare_flag(self, capsys, value):
        code, doc = run_json(capsys, ["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2",
                                      "--omega-min", value, "--omega-max", "16", "--points", "11"])
        assert code == 0
        assert doc["config"]["omega_min"] == float(value)
        code, doc = run_json(capsys, ["adjust", "--e", "2", "--de", value, "--t", "1"])
        assert code == 0
        assert doc["config"]["de"] == float(value)

    def test_unreadable_input(self, capsys, tmp_path):
        assert main(["spectrum", "--input", str(tmp_path / "missing.csv"),
                     "--omega-min", "4", "--omega-max", "16", "--points", "10"]) == 1

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2",
                     "--omega-min", "9", "--omega-max", "11", "--points", "5",
                     "--format", "csv", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header_idx = lines.index("omega,intensity")
        assert len(lines) == header_idx + 1 + 5
        assert any(line.startswith("# peak_intensity = 4") for line in lines)
        # CSV numbers round-trip against the JSON output
        _, doc = run_json(capsys, ["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2",
                                   "--omega-min", "9", "--omega-max", "11", "--points", "5"])
        for row, omega, intensity in zip(lines[header_idx + 1:], doc["results"]["omega"],
                                         doc["results"]["intensity"]):
            w, v = row.split(",")
            assert float(w) == omega and float(v) == intensity


class TestWidth:
    def test_reference_values(self, capsys):
        code, doc = run_json(capsys, ["width", "--omega0", "10", "--tau", "6.283185307179586"])
        assert code == 0
        r = doc["results"]
        assert r["first_zero_halfwidth"] == pytest.approx(1.0, rel=1e-14)
        assert r["time_bandwidth_product"] == pytest.approx(2.0 * np.pi, rel=1e-14)
        assert r["mean_energy"] == 10.0
        assert r["delta_e_convention"] == pytest.approx(1.0, rel=1e-14)

    def test_hbar_scaling(self, capsys):
        _, base = run_json(capsys, ["width", "--omega0", "3", "--tau", "2"])
        _, doubled = run_json(capsys, ["width", "--omega0", "3", "--tau", "2", "--hbar", "2"])
        assert doubled["results"]["mean_energy"] == 2.0 * base["results"]["mean_energy"]
        assert doubled["results"]["delta_e_convention"] == 2.0 * base["results"]["delta_e_convention"]

    def test_negative_tau(self, capsys):
        assert main(["width", "--omega0", "10", "--tau", "-1"]) == 2


class TestAdjust:
    def test_both_modes(self, capsys):
        code, doc = run_json(capsys, ["adjust", "--e", "2", "--de", "1", "--t", "1"])
        assert code == 0
        r = doc["results"]
        assert r["paper_value"] == 1.5
        assert r["consistent_value"] == 2.5
        assert r["zeta_consistent"] == -0.5
        assert r["residual_im_consistent"] == 0.0
        assert r["residual_im_paper"] == 2.0

    def test_zero_width(self, capsys):
        _, doc = run_json(capsys, ["adjust", "--e", "3", "--de", "0", "--t", "2"])
        r = doc["results"]
        assert r["paper_value"] == 3.0
        assert r["consistent_value"] == 6.0
        assert r["residual_im_paper"] == 0.0 and r["residual_im_consistent"] == 0.0

    def test_mode_filtering(self, capsys):
        _, doc = run_json(capsys, ["adjust", "--e", "2", "--de", "1", "--t", "1", "--mode", "paper"])
        assert "consistent_value" not in doc["results"]
        _, doc = run_json(capsys, ["adjust", "--e", "2", "--de", "1", "--t", "1", "--mode", "consistent"])
        assert "paper_value" not in doc["results"]

    def test_zero_energy(self, capsys):
        assert main(["adjust", "--e", "0", "--de", "1", "--t", "1"]) == 1
        assert "E = 0" in capsys.readouterr().err

    def test_non_finite_energy_is_usage_error(self, capsys):
        assert main(["adjust", "--e", "nan", "--de", "1", "--t", "1"]) == 2
        assert capsys.readouterr().err == "error: --e must be finite\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_is_runtime_error(self, capsys, fmt):
        assert main(["adjust", "--e", "1e-320", "--de", "1", "--t", "1", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: non-finite result: ")
        assert captured.err.count("\n") == 1


class TestRecoil:
    def test_summary_and_determinism(self, capsys):
        argv = ["recoil", "--k", "1", "--n", "20000", "--seed", "7"]
        code = main(argv)
        first = capsys.readouterr().out
        assert code == 0
        assert main(argv) == 0
        assert capsys.readouterr().out == first  # byte-identical rerun
        doc = json.loads(first)
        assert doc["results"]["n"] == 20000
        assert 0.0 <= doc["results"]["mean_kz"] <= 1.0

    def test_three_sigma_band(self, capsys):
        code, doc = run_json(capsys, ["recoil", "--k", "1", "--n", "1000000", "--seed", "7"])
        assert code == 0
        assert 0.49913 <= doc["results"]["mean_kz"] <= 0.50087

    def test_dump(self, capsys, tmp_path):
        dump = tmp_path / "samples.csv"
        code, doc = run_json(capsys, ["recoil", "--k", "2", "--n", "50", "--seed", "1",
                                      "--dump", str(dump)])
        assert code == 0
        rows = dump.read_text().splitlines()
        assert rows[0] == "kx,ky,kz"
        assert len(rows) == 51
        vec = np.array([float(v) for v in rows[1].split(",")])
        assert np.linalg.norm(vec) == pytest.approx(2.0, rel=1e-12)

    def test_invalid_args(self, capsys):
        assert main(["recoil", "--k", "1", "--n", "0"]) == 2
        assert main(["recoil", "--k", "-1", "--n", "10"]) == 2


class TestReproducibility:
    @pytest.mark.parametrize("argv", [
        ["width", "--omega0", "3", "--tau", "2", "--hbar", "1.5"],
        ["adjust", "--e", "2", "--de", "1", "--t", "1"],
        ["recoil", "--k", "1.5", "--n", "1000", "--seed", "5"],
        ["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2",
         "--omega-min", "4", "--omega-max", "16", "--points", "101"],
    ])
    def test_embedded_config_round_trips(self, capsys, argv):
        code = main(argv)
        first = capsys.readouterr().out
        assert code == 0
        config = json.loads(first)["config"]
        assert main(rebuild_argv(config)) == 0
        assert capsys.readouterr().out == first

    def test_usage_error_without_subcommand(self, capsys):
        assert main([]) == 2


# The emitters write arrays and tables by vectorised formatting; these tests
# hold their bytes to the per-value reference the CLI used before: json.dumps
# with indent=2 and sort_keys=True, and format(v, ".17g") row by row.

def reference_json(doc, arrays):
    """json.dumps of the document with its arrays replaced by ``arrays``."""
    results = {**doc["results"], **{k: v.tolist() for k, v in arrays.items()}}
    return json.dumps({"config": doc["config"], "results": results}, indent=2, sort_keys=True) + "\n"


def reference_value(value):
    return format(value, ".17g") if isinstance(value, float) else str(value)


def reference_table(columns, table):
    lines = [columns] + [",".join(format(v, ".17g") for v in row) for row in table.tolist()]
    return "".join(line + "\n" for line in lines)


def reference_spectrum_csv(config, summary, omega, intensity):
    header = [f"# {k} = {reference_value(v)}\n" for section in (config, summary) for k, v in sorted(section.items())]
    return "".join(header) + reference_table("omega,intensity", np.column_stack((omega, intensity)))


def run_text(argv):
    """Exit code and stdout of one CLI run, without a pytest fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def analytic_argv(a0, omega0, tau, omega_min, omega_max, points):
    return ["spectrum", f"--a0={a0!r}", f"--omega0={omega0!r}", f"--tau={tau!r}",
            f"--omega-min={omega_min!r}", f"--omega-max={omega_max!r}", f"--points={points}"]


class TestEmitGate:
    @pytest.mark.parametrize("block_rows", [None, 3])
    def test_json_chunks_match_json_dumps(self, monkeypatch, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(pulselab.cli, "_BLOCK_ROWS", block_rows)
        value = {"b": {"z": None, "a": "x\ny", "l": [1.5, {"q": []}]}, "e": {}, "c": 3, "d": True,
                 "a": np.array([-0.0, 1e-320, 1e16, 0.1, 2.5, -3e-7, 7.0]),
                 "g": {"h": np.array([1.0, 2.0]), "i": {"j": "k"}}}
        plain = {**value, "a": value["a"].tolist(), "g": {"h": [1.0, 2.0], "i": {"j": "k"}}}
        text = "".join(pulselab.cli._json_chunks(value))
        assert text == json.dumps(plain, indent=2, sort_keys=True)

    @pytest.mark.parametrize("a0,omega0,tau,omega_min,omega_max,points,marker", [
        # exact-zero nulls at every point but the peak
        (1.0, 10.0, 2.0, 10.0 - 3.0 * math.pi, 10.0 + 3.0 * math.pi, 7, "0.0,"),
        # a0^2 * tau^2 = 4e-320: every intensity is subnormal
        (1e-160, 10.0, 2.0, 4.0, 16.0, 101, "e-320"),
        # repr writes 1e16 and above with an exponent
        (1e9, 10.0, 2.0, 1e15, 3e16, 11, "3e+16"),
        (1.0, 10.0, 2.0, 4.0, 16.0, 2, None),
        (1.5, 20.0, 3.0, 0.5, 40.0, 50000, None),
    ])
    def test_analytic_spectrum_bytes(self, tmp_path, a0, omega0, tau, omega_min, omega_max, points, marker):
        argv = analytic_argv(a0, omega0, tau, omega_min, omega_max, points)
        # An output name that reads like the array text the emitter joins.
        out_json = tmp_path / 'x",\n      "omega": [\n      1.0,'
        out_csv = tmp_path / "spec.csv"
        assert main(argv + ["--output", str(out_json)]) == 0
        assert main(argv + ["--format", "csv", "--output", str(out_csv)]) == 0
        text = out_json.read_text()
        doc = json.loads(text)
        omega = np.linspace(omega_min, omega_max, points)
        intensity = analytic_intensity(Pulse(a0, omega0, tau), omega)
        assert text == reference_json(doc, {"omega": omega, "intensity": intensity})
        if marker is not None:
            assert marker in text.replace("\n", "").replace(" ", "")
        summary = {k: v for k, v in doc["results"].items() if not isinstance(v, list)}
        config = {**doc["config"], "format": "csv", "output": str(out_csv)}
        assert out_csv.read_text() == reference_spectrum_csv(config, summary, omega, intensity)

    def test_sampled_spectrum_bytes(self, tmp_path):
        t = np.linspace(0.0, 2.0, 2048)
        amp = sample_waveform(Pulse(1.0, 10.0, 2.0), t)
        wave = tmp_path / "[1.0, 2.0].csv"
        with open(wave, "w", newline="") as fh:
            fh.write("t,re,im\n")
            for ti, ai in zip(t.tolist(), amp.tolist()):
                fh.write(f"{ti!r},{ai.real!r},{ai.imag!r}\n")
        # Nulls at 10 +- pi fall on grid points, as the width search needs.
        omega = np.linspace(10.0 - 2.5 * math.pi, 10.0 + 2.5 * math.pi, 1001)
        argv = ["spectrum", "--input", str(wave), f"--omega-min={float(omega[0])!r}",
                f"--omega-max={float(omega[-1])!r}",
                "--points", "1001"]
        code, text = run_text(argv)
        assert code == 0
        spec = fourier_intensity(SampledWaveform(t, amp), omega)
        assert text == reference_json(json.loads(text), {"omega": spec.omega, "intensity": spec.intensity})

    @pytest.mark.parametrize("n,block_rows", [(3, None), (50000, None), (10, 3)])
    def test_recoil_dump_bytes(self, tmp_path, monkeypatch, n, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(pulselab.cli, "_BLOCK_ROWS", block_rows)
        dump = tmp_path / "dump.csv"
        code, text = run_text(["recoil", "--k", "2.5", "--n", str(n), "--seed", "11", "--dump", str(dump)])
        assert code == 0
        assert dump.read_text() == reference_table("kx,ky,kz", momentum_samples(2.5, n, 11))
        stats = recoil_stats(2.5, n, 11)
        assert json.loads(text)["results"] == {
            "n": n, "k": 2.5, "mean_kz": stats.mean_kz, "std_kz": stats.std_kz,
            "seed": 11, "generator": stats.generator}

    def test_dump_draws_once(self, tmp_path, monkeypatch):
        calls = []
        draw = pulselab.recoil._draw_angles

        def counting(rng, n):
            calls.append(n)
            return draw(rng, n)

        monkeypatch.setattr(pulselab.recoil, "_draw_angles", counting)
        assert run_text(["recoil", "--k", "1", "--n", "100", "--dump", str(tmp_path / "d.csv")])[0] == 0
        assert calls == [100]


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def analytic_configs(draw):
    omega0 = draw(st.floats(0.1, 100.0, **finite))
    low = draw(st.floats(-200.0, 200.0, **finite))
    span = draw(st.floats(1e-3, 400.0, **finite))
    return (draw(st.floats(1e-3, 1e3, **finite)), omega0, draw(st.floats(1e-2, 100.0, **finite)),
            low, low + span, draw(st.integers(2, 300)))


class TestEmitProperties:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(analytic_configs())
    def test_csv_and_json_agree_and_config_reproduces(self, cfg):
        argv = analytic_argv(*cfg)
        code, text = run_text(argv)
        assert code == 0
        doc = json.loads(text)
        # Re-running the document's own config reproduces it byte for byte.
        assert run_text(rebuild_argv(doc["config"])) == (0, text)
        code, csv_text = run_text(argv + ["--format", "csv"])
        assert code == 0
        lines = csv_text.splitlines()
        header = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
        for key, value in doc["results"].items():
            if not isinstance(value, list):
                assert float(header[key]) == value
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[lines.index("omega,intensity") + 1:]])
        assert rows[:, 0].tolist() == doc["results"]["omega"]
        assert rows[:, 1].tolist() == doc["results"]["intensity"]
