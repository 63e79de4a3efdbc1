import csv
import json

import numpy as np
import pytest

from pulselab import Pulse, sample_waveform
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
        argv += [f"--{key.replace('_', '-')}", str(value)]
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
