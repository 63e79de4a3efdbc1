import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pulselab
import pulselab.cli
import pulselab.recoil
import pulselab.spectral
import pulselab.wavepacket
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


def write_clean_waveform(tmp_path):
    """The pulse a0 = 1, omega0 = 10, tau = 2 sampled at 2048 equally spaced times."""
    t = np.linspace(0.0, 2.0, 2048)
    amp = sample_waveform(Pulse(1.0, 10.0, 2.0), t)
    path = tmp_path / "clean.csv"
    path.write_text("t,re,im\n" + "".join(
        f"{ti!r},{a.real!r},{a.imag!r}\n" for ti, a in zip(t.tolist(), amp.tolist())))
    return path


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
        else:  # a sampled waveform on a uniform (chirp-z) or jittered (NUFFT) grid
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
        """The line names the path once and gives the reason without an errno."""
        for path, reason in [(tmp_path / "missing.csv", "No such file or directory"), (tmp_path, "Is a directory")]:
            assert main(["spectrum", "--input", str(path), "--omega-min", "4", "--omega-max", "16",
                         "--points", "10"]) == 1
            assert capsys.readouterr() == ("", f"error: cannot read waveform {path}: {reason}\n")

    @pytest.mark.parametrize("omega_min,omega_max,points,message", [
        ("10", "11", "101", "spectrum has no interior maximum"),
        ("9", "14", "2001", "half-maximum level is not crossed within the grid"),
        ("9.5", "10.5", "101", "no zero in range of the sampled spectrum"),
    ], ids=["no-interior-peak", "no-half-maximum", "no-null"])
    def test_sampled_width_failure_is_runtime_error(self, capsys, tmp_path, omega_min, omega_max, points,
                                                    message):
        wave = write_clean_waveform(tmp_path)
        assert main(["spectrum", "--input", str(wave), "--omega-min", omega_min, "--omega-max", omega_max,
                     "--points", points]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_epoch_times_give_the_results_of_their_offsets(self, capsys, tmp_path):
        # Seconds since the epoch, each moved by up to 1 ulp (1.2e-7 s) as a
        # clock export may round them, and the same samples as offsets.
        t = 1e9 + np.linspace(0.0, 2.0, 2048)
        t += np.random.default_rng(1).integers(-1, 2, t.size) * np.spacing(t)
        s = t - t[0]
        amp = np.exp(10.0j * s)
        docs = []
        for name, times in (("epoch.csv", t), ("offsets.csv", s)):
            (tmp_path / name).write_text("t,re,im\n" + "".join(
                f"{ti!r},{a.real!r},{a.imag!r}\n" for ti, a in zip(times.tolist(), amp.tolist())))
            code, doc = run_json(capsys, ["spectrum", "--input", str(tmp_path / name), "--omega-min", "2",
                                          "--omega-max", "18", "--points", "301"])
            assert code == 0
            docs.append(doc["results"])
        assert docs[0] == docs[1]
        assert docs[0]["first_zero_halfwidth"] == pytest.approx(math.pi, rel=1e-5)

    def test_sampled_width_between_samples(self, capsys, tmp_path):
        # No omega sample comes near the nulls at 10 +- pi, so a scan for a
        # sample below 1e-6 of the peak would find none here.
        wave = write_clean_waveform(tmp_path)
        code, doc = run_json(capsys, ["spectrum", "--input", str(wave), "--omega-min", "2",
                                      "--omega-max", "18", "--points", "301"])
        assert code == 0
        assert doc["results"]["first_zero_halfwidth"] == pytest.approx(math.pi, rel=1e-5)
        assert doc["results"]["time_bandwidth_product"] == pytest.approx(2.0 * math.pi, rel=1e-5)

    def test_input_mode_ignores_analytic_flags(self, capsys, tmp_path):
        wave = write_clean_waveform(tmp_path)
        grid = [f"--omega-min={10.0 - 2.5 * math.pi!r}", f"--omega-max={10.0 + 2.5 * math.pi!r}", "--points=1001"]
        code, doc = run_json(capsys, ["spectrum", "--input", str(wave), *grid])
        assert code == 0
        code, with_tau = run_json(capsys, ["spectrum", "--input", str(wave), "--tau", "-1", *grid])
        assert code == 0
        assert with_tau["config"]["tau"] == -1.0
        assert with_tau["results"] == doc["results"]

    def test_bad_points_is_usage_error_before_input_is_read(self, capsys, tmp_path):
        assert main(["spectrum", "--input", str(tmp_path / "missing.csv"),
                     "--omega-min", "4", "--omega-max", "16", "--points", "1"]) == 2
        assert capsys.readouterr().err == "error: --points must be at least 2\n"

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

    @pytest.mark.parametrize("mode", ["paper", "consistent", "both"])
    def test_zero_energy(self, capsys, mode):
        # Each mode is refused by the first library function it calls.
        assert main(["adjust", "--e", "0", "--de", "1", "--t", "1", "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: adjustment undefined for E = 0\n"

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

    @pytest.mark.parametrize("dump", [False, True])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, dump):
        argv = ["recoil", "--k", "1", "--n", "10", "--seed", "-1"]
        assert main(argv + (["--dump", str(tmp_path / "d.csv")] if dump else [])) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
        assert not (tmp_path / "d.csv").exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv,name", [
        (["width", "--omega0", "10", "--tau", "2", "-o"], "o.json"),
        (["width", "--omega0", "10", "--tau", "2", "--format", "csv", "--output"], "o.csv"),
        (["recoil", "--k", "1", "--n", "10", "--dump"], "d.csv"),
    ], ids=["output", "csv-output", "dump"])
    def test_missing_directory_is_runtime_error(self, capsys, tmp_path, argv, name):
        path = str(tmp_path / "nodir" / name)
        assert main([*argv, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: No such file or directory\n"

    def test_directory_as_output(self, capsys, tmp_path):
        assert main(["adjust", "--e", "2", "--de", "1", "--t", "1", "-o", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")
        assert captured.err.count("\n") == 1

    def test_closed_stdout_is_runtime_error(self):
        # As the console script runs it, with stdout a pipe nobody reads: the
        # write fails inside main, and Python's flush at exit prints nothing.
        src = os.path.dirname(os.path.dirname(pulselab.__file__))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from pulselab.cli import main; sys.exit(main())",
                 "width", "--omega0", "10", "--tau", "2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write stdout: Broken pipe\n"

    def test_stdout_none_is_runtime_error(self, capsys, monkeypatch):
        # Python sets sys.stdout to None when it starts with fd 1 closed (`pulselab adjust ... >&-`).
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["adjust", "--e", "2", "--de", "1", "--t", "1"]) == 1
        assert capsys.readouterr().err == "error: cannot write stdout: Bad file descriptor\n"


class TestOutOfMemory:
    ARGV = {
        "spectrum": ["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2", "--omega-min", "4",
                     "--omega-max", "16", "--points"],
        "recoil": ["recoil", "--k", "1", "--n"],
        "recoil-dump": ["recoil", "--dump", "d.csv", "--k", "1", "--n"],
    }

    @pytest.fixture
    def run(self, capsys, tmp_path, monkeypatch):
        def run(command, size):
            monkeypatch.chdir(tmp_path)
            assert main([*self.ARGV[command], str(size)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert list(tmp_path.iterdir()) == []
        return run

    # 2**58 samples of 8 bytes is 2 EiB: no machine can map it, so nothing is allocated.
    @pytest.mark.parametrize("command", ["spectrum", "recoil"])
    def test_unallocatable_request_is_runtime_error(self, run, command):
        run(command, 2 ** 58)

    # Past 2**60 numpy cannot describe the array at all, and at 2**63 - 1 and
    # 2**63 np.linspace fails with an IndexError of its own.
    @pytest.mark.parametrize("size", [2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 64],
                             ids=["2**62", "2**63-1", "2**63", "2**64"])
    @pytest.mark.parametrize("command", ["spectrum", "recoil", "recoil-dump"])
    def test_request_beyond_numpy_array_limit_is_runtime_error(self, run, command, size):
        run(command, size)

    # str.join raises a MemoryError with no text; a chunk generator fails so here after ``count`` chunks.
    @pytest.mark.parametrize("writer,argv,count", [
        ("_json_chunks", [*ARGV["spectrum"], "201", "-o", "p.json"], 5),
        ("_csv_table", [*ARGV["recoil-dump"], "10"], 1),
    ], ids=["json", "dump"])
    def test_bare_memory_error_mid_stream_is_named(self, capsys, tmp_path, monkeypatch, writer, argv, count):
        chunks = getattr(pulselab.cli, writer)

        def failing(*args):
            yield from (chunk for _, chunk in zip(range(count), chunks(*args)))
            raise MemoryError

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(pulselab.cli, writer, failing)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: out of memory\n")


class TestOneWriter:
    """``_emit`` writes every file a run makes, after the command has returned:
    the side files (the ``--dump``), then the document."""

    def test_dump_formatted_after_compute(self, tmp_path, monkeypatch):
        events = []
        recoil = pulselab.cli._parser().commands["recoil"]
        cmd, table, texts = recoil.get_default("func"), pulselab.cli._csv_table, pulselab.cli._texts

        def func(args):
            returned = cmd(args)
            events.append("returned")
            return returned

        def csv_table(*args):
            events.append("_csv_table")
            yield from table(*args)

        def recording_texts(*args):
            events.append("_texts")
            return texts(*args)

        # The parser is built once per process: its default is what main calls, not the module's name.
        monkeypatch.setitem(recoil._defaults, "func", func)
        monkeypatch.setattr(pulselab.cli, "_csv_table", csv_table)
        monkeypatch.setattr(pulselab.cli, "_texts", recording_texts)
        assert run_captured(["recoil", "--k", "1", "--n", "10", "--dump", str(tmp_path / "d.csv")])[::2] == (0, "")
        assert events == ["returned", "_csv_table", "_texts"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_dump_leaves_no_document(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["recoil", "--k", "1", "--n", "10", "--dump", "/dev/full", "-o", "out.json"]) == 1
        assert capsys.readouterr() == ("", "error: cannot write /dev/full: No space left on device\n")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_document_leaves_the_whole_dump(self, capsys, tmp_path):
        # As it stands: ROADMAP plans that a failed run leave no file it made.
        dump = tmp_path / "d.csv"
        argv = ["recoil", "--k", "1", "--n", "10", "--dump", str(dump)]
        assert main(argv) == 0
        whole = dump.read_bytes()
        dump.unlink()
        capsys.readouterr()
        path = str(tmp_path / "nodir" / "r.json")
        assert main([*argv, "-o", path]) == 1
        assert capsys.readouterr() == ("", f"error: cannot write {path}: No such file or directory\n")
        assert dump.read_bytes() == whole


class TestColdStart:
    @pytest.mark.parametrize("argv", [
        ["adjust", "--e", "2", "--de", "1", "--t", "1"],
        ["width", "--omega0", "10", "--tau", "2"],
        ["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2", "--omega-min", "4", "--omega-max", "16",
         "--points", "201"],
        ["recoil", "--k", "1", "--n", "1000", "--seed", "3"],
    ], ids=["adjust", "width", "spectrum", "recoil"])
    def test_cold_run_writes_the_warm_document(self, argv):
        # A fresh process loads numpy and the modules built on it only if the
        # command needs them; this one has every module loaded already.
        assert {"pulselab.recoil", "pulselab.spectral", "pulselab.wavepacket"} <= set(sys.modules)
        src = os.path.dirname(os.path.dirname(pulselab.__file__))
        cold = subprocess.run([sys.executable, "-m", "pulselab.cli", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (0, "") and out.getvalue().startswith("{")
        assert (cold.returncode, cold.stdout, cold.stderr) == (code, out.getvalue(), err.getvalue())


magnitude = st.floats(1e-3, 1e3)
signed = st.floats(-1e3, 1e3)


def command_argvs():
    """Command lines of width, adjust in each --mode, and recoil with and
    without a dump, ``d.csv`` in the working directory."""
    return st.one_of(
        st.builds(lambda omega0, tau, hbar: ["width", *flags(omega0=omega0, tau=tau, hbar=hbar)],
                  magnitude, magnitude, magnitude),
        st.builds(lambda e, de, t, mode: ["adjust", *flags(e=e, de=de, t=t), f"--mode={mode}"],
                  st.one_of(magnitude, magnitude.map(float.__neg__)), signed, signed,
                  st.sampled_from(["paper", "consistent", "both"])),
        st.builds(lambda k, n, seed, dump: ["recoil", *flags(k=k, n=n, seed=seed), *dump],
                  magnitude, st.integers(1, 300), st.integers(0, 2 ** 64), st.sampled_from([[], ["--dump=d.csv"]])),
    )


def assert_config_round_trips(directory, argv):
    """Run argv in ``directory``, then the argv rebuilt from the document's
    config: stdout and the files left in ``directory`` are the same bytes."""
    def files():  # read and removed, so that every run starts in an empty directory
        found = {path.name: path.read_bytes() for path in directory.iterdir()}
        for name in found:
            (directory / name).unlink()
        return found

    code, first = run_text(argv)
    assert code == 0
    dumped = files()
    assert dumped.keys() == ({"d.csv"} if "--dump=d.csv" in argv else set())
    assert run_text(rebuild_argv(json.loads(first)["config"])) == (0, first)
    assert files() == dumped


class TestReproducibility:
    @pytest.mark.parametrize("argv", [
        ["width", "--omega0", "3", "--tau", "2", "--hbar", "1.5"],
        ["adjust", "--e", "2", "--de", "1", "--t", "1"],
        ["recoil", "--k", "1.5", "--n", "1000", "--seed", "5"],
        ["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2",
         "--omega-min", "4", "--omega-max", "16", "--points", "101"],
    ])
    def test_embedded_config_round_trips(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert_config_round_trips(tmp_path, argv)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command_argvs())
    def test_any_command_config_round_trips(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert_config_round_trips(tmp_path, argv)

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


def reference_header(*sections):
    return "".join(f"# {k} = {reference_value(v)}\n" for section in sections for k, v in sorted(section.items()))


def reference_spectrum_csv(config, summary, omega, intensity):
    return reference_header(config, summary) + reference_table("omega,intensity", np.column_stack((omega, intensity)))


def reference_row_csv(config, results):
    """The config header, then a csv.writer row of result names and one of values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sorted(results))
    writer.writerow([reference_value(results[k]) for k in sorted(results)])
    return reference_header(config) + buf.getvalue()


def assert_same_text(got, want):
    """``got == want``; a mismatch names its first differing line, since
    pytest's own diff of two megabyte documents takes many minutes."""
    if got != want:
        a, b = got.splitlines(), want.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i + 1} differs: {a[i:i + 1]} != {b[i:i + 1]} ({len(a)} lines, {len(b)} expected)")


def run_text(argv):
    """Exit code and stdout of one CLI run, without a pytest fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_captured(argv):
    """Exit code, stdout and stderr of one CLI run, without a pytest fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def analytic_argv(a0, omega0, tau, omega_min, omega_max, points):
    return ["spectrum", f"--a0={a0!r}", f"--omega0={omega0!r}", f"--tau={tau!r}",
            f"--omega-min={omega_min!r}", f"--omega-max={omega_max!r}", f"--points={points}"]


def set_cpus(monkeypatch, count):
    """Let ``cli._texts`` see ``count`` CPUs: with two, a table of more than one
    block is formatted by a forked child as well."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def cpus(request, monkeypatch):
    set_cpus(monkeypatch, request.param)
    return request.param


# The byte gates run with one CPU and with two, and must give the same bytes.
CPU_COUNTS = (1, 2)

# Python 3.12+ warns on a fork in a process with threads (numpy's BLAS pool is
# one); ``main`` ignores it, a test that calls the writers directly must too.
FORK_WARNING = "ignore:This process .* is multi-threaded:DeprecationWarning"


class TestEmitGate:
    @pytest.mark.filterwarnings(FORK_WARNING)
    @pytest.mark.parametrize("block_rows", [None, 3])
    def test_json_chunks_match_json_dumps(self, monkeypatch, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(pulselab.cli, "_BLOCK_ROWS", block_rows)
        config = {"text": 'say "hi"\nto \u00e5ngstr\u00f6m', "none": None, "flag": True, "count": 3,
                  "x": -1e-05, "neg_zero": -0.0, "tiny": 5e-324, "big": 1e16, "max": 1.7976931348623157e308,
                  "output": 'a "q" \\ b\tc\x01d \U0001f600.json'}
        # Arrays at the first, a middle and the last sorted key; "c" holds one element.
        table = {"a": np.array([-0.0, 1e-320, 1e16, 0.1, 2.5, -3e-7, 7.0]), "c": np.array([0.5]),
                 "z": np.arange(7.0)}
        results = {"b": 1.5, "d": np.float64(0.1), "e": False, "n": 20000, "s": "pcg64", "y": -2.0}
        for count in CPU_COUNTS:
            set_cpus(monkeypatch, count)
            for table_part in (table, {"c": table["c"]}, {}):
                text = "".join(pulselab.cli._json_chunks(config, results, table_part))
                plain = {**results, **{key: column.tolist() for key, column in table_part.items()}}
                assert text == json.dumps({"config": config, "results": plain}, indent=2, sort_keys=True)

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
    def test_analytic_spectrum_bytes(self, tmp_path, monkeypatch, a0, omega0, tau, omega_min, omega_max, points,
                                     marker):
        argv = analytic_argv(a0, omega0, tau, omega_min, omega_max, points)
        # An output name that reads like the array text the emitter joins.
        out_json = tmp_path / 'x",\n      "omega": [\n      1.0,'
        out_csv = tmp_path / "spec.csv"
        for count in CPU_COUNTS:
            set_cpus(monkeypatch, count)
            assert main(argv + ["--output", str(out_json)]) == 0
            assert main(argv + ["--format", "csv", "--output", str(out_csv)]) == 0
            text = out_json.read_text()
            doc = json.loads(text)
            omega = np.linspace(omega_min, omega_max, points)
            intensity = analytic_intensity(Pulse(a0, omega0, tau), omega)
            assert_same_text(text, reference_json(doc, {"omega": omega, "intensity": intensity}))
            if marker is not None:
                assert marker in text.replace("\n", "").replace(" ", "")
            summary = {k: v for k, v in doc["results"].items() if not isinstance(v, list)}
            config = {**doc["config"], "format": "csv", "output": str(out_csv)}
            assert_same_text(out_csv.read_text(), reference_spectrum_csv(config, summary, omega, intensity))

    @pytest.mark.parametrize("points", [3, 6, 7])
    def test_block_edge_spectrum_bytes(self, tmp_path, monkeypatch, points):
        """Three rows a block: one block, two whole ones, and two and one row."""
        monkeypatch.setattr(pulselab.cli, "_BLOCK_ROWS", 3)
        self.test_analytic_spectrum_bytes(tmp_path, monkeypatch, 1.0, 10.0, 2.0, 4.0, 16.0, points, None)

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

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    @pytest.mark.parametrize("argv", [
        ["width", "--omega0", "3", "--tau", "0.7", "--hbar", "1.5"],
        ["adjust", "--e", "2", "--de", "-0.3", "--t", "0.7", "--mode", "paper"],
        ["adjust", "--e", "2", "--de", "-0.3", "--t", "0.7", "--mode", "consistent"],
        ["adjust", "--e", "2", "--de", "-0.3", "--t", "0.7", "--mode", "both"],
        ["recoil", "--k", "1.5", "--n", "1000", "--seed", "5"],
    ], ids=["width", "adjust-paper", "adjust-consistent", "adjust-both", "recoil"])
    def test_row_csv_bytes(self, tmp_path, argv, to_file):
        code, text = run_text(argv)
        assert code == 0
        doc = json.loads(text)
        out = tmp_path / "row.csv"
        code, csv_text = run_text(argv + ["--format", "csv"] + (["--output", str(out)] if to_file else []))
        assert code == 0
        if to_file:
            assert csv_text == ""
            csv_text = out.read_bytes().decode()
        config = {**doc["config"], "format": "csv", "output": str(out) if to_file else None}
        assert csv_text == reference_row_csv(config, doc["results"])

    @pytest.mark.parametrize("n,block_rows", [(3, None), (50000, None), (10, 3)])
    def test_recoil_dump_bytes(self, tmp_path, monkeypatch, n, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(pulselab.cli, "_BLOCK_ROWS", block_rows)
        dump = tmp_path / "dump.csv"
        for count in CPU_COUNTS:
            set_cpus(monkeypatch, count)
            code, text = run_text(["recoil", "--k", "2.5", "--n", str(n), "--seed", "11", "--dump", str(dump)])
            assert code == 0
            assert_same_text(dump.read_text(), reference_table("kx,ky,kz", momentum_samples(2.5, n, 11)))
            stats = recoil_stats(2.5, n, 11)
            assert json.loads(text)["results"] == {
                "n": n, "k": 2.5, "mean_kz": stats.mean_kz, "std_kz": stats.std_kz,
                "seed": 11, "generator": stats.generator}

    @pytest.mark.parametrize("n,block_rows", [(50001, None), (10, 3)])
    def test_streamed_dump_matches_reference_expressions(self, tmp_path, monkeypatch, n, block_rows):
        """The dump and the statistics against the draw, the statistics and the
        momenta written out as whole-array expressions."""
        if block_rows is not None:
            monkeypatch.setattr(pulselab.cli, "_BLOCK_ROWS", block_rows)
        dump = tmp_path / "dump.csv"
        rng = np.random.default_rng(11)
        cos_t = 1.0 - rng.random(n)
        phi = 2.0 * np.pi * rng.random(n)
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        momenta = 2.5 * np.column_stack((sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t))
        for count in CPU_COUNTS:
            set_cpus(monkeypatch, count)
            code, text = run_text(["recoil", "--k", "2.5", "--n", str(n), "--seed", "11", "--dump", str(dump)])
            assert code == 0
            assert_same_text(dump.read_text(), reference_table("kx,ky,kz", momenta))
            results = json.loads(text)["results"]
            assert results["mean_kz"] == 2.5 * float(np.mean(cos_t))
            assert results["std_kz"] == 2.5 * float(np.std(cos_t, ddof=1))

    def test_dump_draws_once(self, tmp_path, monkeypatch):
        """One argument check and one draw per run, with --dump and without."""
        calls = []

        def counting(name):
            real = getattr(pulselab.recoil, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("_check_args", "_draw_angles"):
            monkeypatch.setattr(pulselab.recoil, name, counting(name))
        for dump in ([], ["--dump", str(tmp_path / "d.csv")]):
            calls.clear()
            assert run_text(["recoil", "--k", "1", "--n", "100", *dump])[0] == 0
            assert calls == ["_check_args", "_draw_angles"]


def assert_no_child():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def spectrum_argv(points):
    return ["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2", "--omega-min", "4", "--omega-max", "16",
            "--points", str(points)]


def fresh_fds():
    """The two lowest free file descriptors: a descriptor left open moves them."""
    fds = os.pipe()
    for fd in fds:
        os.close(fd)
    return fds


class TestTwoCPUs:
    """A table of more than one block is formatted by this process and a forked
    child, which makes every other block; the child is reaped however the run
    ends.  The bytes are checked by ``TestEmitGate`` with one CPU and with two."""

    @pytest.mark.filterwarnings(FORK_WARNING)
    @pytest.mark.parametrize("parts", [[], [0], [0, 1], list(range(7))], ids=["none", "one", "two", "seven"])
    def test_child_makes_every_other_part(self, cpus, parts):
        fds = fresh_fds()
        made = [text.split() for text in pulselab.cli._texts(lambda part: f"{part} {os.getpid()}", parts)]
        assert [int(part) for part, _ in made] == parts
        forked = cpus == 2 and len(parts) > 1
        assert [int(pid) == os.getpid() for _, pid in made] == [i % 2 == 0 or not forked for i in parts]
        assert_no_child()
        assert fresh_fds() == fds

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_no_pipe_or_fork_makes_every_part_here(self, monkeypatch, cpus, failing):
        def refuse(*args):
            raise OSError(11, "Resource temporarily unavailable")

        fds = fresh_fds()
        monkeypatch.setattr(os, failing, refuse)
        assert list(pulselab.cli._texts(lambda part: f"{part} {os.getpid()}", [0, 1, 2])) == [
            f"{part} {os.getpid()}" for part in (0, 1, 2)]
        monkeypatch.undo()
        assert fresh_fds() == fds

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    def test_one_block_tables_and_scalar_documents_never_fork(self, tmp_path, monkeypatch, cpus):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        wave = write_clean_waveform(tmp_path)
        rows = pulselab.cli._BLOCK_ROWS
        for argv in (spectrum_argv(201), spectrum_argv(1001), spectrum_argv(rows),
                     [*spectrum_argv(rows), "--format", "csv"],
                     ["spectrum", "--input", str(wave), "--omega-min", "4", "--omega-max", "16", "--points", "1001"],
                     ["adjust", "--e", "2", "--de", "1", "--t", "1"], ["width", "--omega0", "10", "--tau", "2"],
                     ["recoil", "--k", "1", "--n", "50000"],
                     ["recoil", "--k", "1", "--n", str(rows), "--dump", str(tmp_path / "d.csv")]):
            assert run_captured(argv)[::2] == (0, ""), argv
        # One CPU: no table forks, however long.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        for argv in (spectrum_argv(50000), [*spectrum_argv(50000), "--format", "csv"],
                     ["recoil", "--k", "1", "--n", "50000", "--dump", str(tmp_path / "d.csv")]):
            assert run_captured(argv)[::2] == (0, ""), argv

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    def test_forks_past_one_block(self, monkeypatch, cpus):
        forks = []
        fork = os.fork

        def counting():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        rows = pulselab.cli._BLOCK_ROWS
        for argv in (spectrum_argv(rows + 1), [*spectrum_argv(rows + 1), "--format", "csv"]):
            forks.clear()
            assert run_captured(argv)[::2] == (0, "")
            assert forks == [os.getpid()]  # one child a document, however many arrays
        assert_no_child()

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_child_reaped_after_success(self, tmp_path, cpus, fmt):
        assert main([*spectrum_argv(50000), "--format", fmt, "-o", str(tmp_path / "s")]) == 0
        assert_no_child()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("cpus", [2], indirect=True)
    @pytest.mark.parametrize("flag", ["--output", "--dump"])
    def test_child_reaped_after_a_failed_write(self, capsys, cpus, flag):
        argv = ["recoil", "--k", "1", "--n", "50000", flag, "/dev/full"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: cannot write /dev/full: No space left on device\n")
        assert main([*spectrum_argv(50000), "-o", "/dev/full"]) == 1
        assert capsys.readouterr().err == "error: cannot write /dev/full: No space left on device\n"
        assert_no_child()

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    def test_child_reaped_after_a_closed_stdout(self, cpus):
        read_end, write_end = os.pipe()
        os.close(read_end)
        pipe = open(write_end, "w")
        try:
            err = io.StringIO()
            with contextlib.redirect_stdout(pipe), contextlib.redirect_stderr(err):
                assert main([*spectrum_argv(50000), "--format", "csv"]) == 1
        finally:
            with contextlib.suppress(BrokenPipeError):  # the text left in its buffer
                pipe.close()
        assert err.getvalue() == "error: cannot write stdout: Broken pipe\n"
        assert_no_child()

    @pytest.mark.parametrize("cpus", [2], indirect=True)
    def test_child_failure_is_one_error_line(self, capsys, tmp_path, monkeypatch, cpus):
        """A block that fails in the child fails the run there: this process makes
        no block after the child's failed one."""
        parent, made = os.getpid(), []
        momenta = pulselab.recoil._momenta

        def failing_in_child(k, cos_t, phi):
            if os.getpid() != parent:
                raise MemoryError
            made.append(len(cos_t))
            return momenta(k, cos_t, phi)

        monkeypatch.setattr(pulselab.recoil, "_momenta", failing_in_child)
        monkeypatch.setattr(pulselab.cli, "_BLOCK_ROWS", 3)
        assert main(["recoil", "--k", "1", "--n", "30", "--dump", str(tmp_path / "d.csv")]) == 1
        assert capsys.readouterr() == (
            "", "error: cannot format the table: the process formatting every other block failed\n")
        assert made == [3]
        assert_no_child()


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


# The waveform reader parses the body with np.loadtxt; these tests hold it to
# the per-row csv.DictReader + float() loop it replaced, bit for bit.

def reference_read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        t, amp = [], []
        for row in reader:
            t.append(float(row["t"]))
            if "amp" in fields:
                amp.append(complex(float(row["amp"]), 0.0))
            else:
                amp.append(complex(float(row["re"]), float(row["im"])))
    return SampledWaveform(np.array(t), np.array(amp))


def assert_reads_as_reference(path):
    got, want = pulselab.cli._read_waveform(str(path)), reference_read(path)
    for a, b in ((got.t, want.t), (got.amp, want.amp)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == b.tobytes()


def bench_style_grid(jittered, n=2048, tau=2.5):
    """As a linspace export (ulp-level spacing noise) or a jittered grid."""
    if not jittered:
        return np.linspace(0.0, tau, n)
    h = tau / (n - 1)
    t = np.arange(n) * h
    t[1:-1] += np.random.default_rng(3).uniform(-0.3, 0.3, n - 2) * h
    t[-1] = tau
    return t


SPECTRUM_TAIL = ["--omega-min", "4", "--omega-max", "16", "--points", "11"]


class TestWaveformReader:
    @pytest.mark.parametrize("jittered", [False, True])
    def test_bench_style_files(self, tmp_path, jittered):
        t = bench_style_grid(jittered)
        amp = 1.3 * np.exp(17j * t)
        path = tmp_path / "wave.csv"
        path.write_text("t,re,im\n" + "".join(
            f"{ti!r},{a.real!r},{a.imag!r}\n" for ti, a in zip(t.tolist(), amp.tolist())))
        assert_reads_as_reference(path)
        assert pulselab.cli._read_waveform(str(path)).t.tolist() == t.tolist()

    @pytest.mark.parametrize("text", [
        "t,amp\n0,1.5\n0.5,-0.0\n1,-2.25\n",
        "t,re,im,amp\n0,9,9,1.5\n0.5,9,9,2\n1,9,9,-3\n",  # amp wins over re,im
        "im,note,re,t\n0.5,a b,1,0\n-0.5,\"c,d\",2,1\n0,,3,2\n",  # reordered, non-numeric extra
        "t,re,im\n0,1,0,x,y\n1,2,-0.0\n2,3,1,,,,\n",  # long rows
        "t,re,im,t\n9,1,0,0\n9,2,0,1\n",  # a repeated name means its last column
        't,re,im\n"0","1.5",0\n1,"2","-3"\n',  # quoted fields
        "t,re,im\r\n0,1,0\r\n1,2,3\r\n",  # CRLF
        "t,re,im\n\n0,1,0\n\n\n1,2,3\n\n",  # blank lines
        "t,re,im\n 0 , 1,0 \n1,\t2 ,  3\n",  # spaces around values
        "t,re,im\n0,1e-320,-1.7976931348623157e+308\n1e-5,+.5,5.\n2,1E+2,-0\n",
    ], ids=["t-amp", "amp-and-re-im", "reordered-extra", "long-rows", "repeated-name",
            "quoted", "crlf", "blank-lines", "spaces", "number-forms"])
    def test_layouts(self, tmp_path, text):
        path = tmp_path / "wave.csv"
        path.write_bytes(text.encode())
        assert_reads_as_reference(path)

    @settings(max_examples=60, deadline=None)
    @given(times=st.lists(st.floats(**finite), min_size=2, max_size=40, unique=True),
           parts=st.lists(st.floats(**finite), min_size=80, max_size=80),
           spec=st.sampled_from(["repr", "%.17g"]))
    @example(times=[-1e308, 0.0, 1e308], parts=[1.0] * 80, spec="repr")  # a span that overflows
    def test_random_doubles(self, tmp_path_factory, times, parts, spec):
        t = sorted(times)
        fmt = repr if spec == "repr" else (lambda x: "%.17g" % x)
        path = tmp_path_factory.mktemp("wave") / "wave.csv"
        path.write_text("t,re,im\n" + "".join(
            f"{fmt(ti)},{fmt(parts[2 * i])},{fmt(parts[2 * i + 1])}\n" for i, ti in enumerate(t)))
        if math.isfinite(t[-1] - t[0]):
            assert_reads_as_reference(path)
        else:
            with pytest.raises(ValueError, match="time grid span must be finite$"):
                pulselab.cli._read_waveform(str(path))

    @pytest.mark.parametrize("text", [
        "t,re,im\n0,1,0\n0.5,1\n1,1,0\n",  # short row
        "t,re,im\n",  # header only
        "t,re,im\n0,1,0\n",  # one row
        "t,re,im\n0,1,0\n0.5,x,0\n1,1,0\n",  # non-numeric value
        "t,re,im\n0,1,0\n   \n1,1,0\n",  # whitespace-only line
        "time,re,im\n0,1,0\n1,1,0\n",  # no t column
        "t,re,im\n0,1,0\n# note\n1,1,0\n",  # no comment syntax
        "t,re,im\n0,1,0\n1_0,1,0\n",  # digit-grouping underscore: refused
        "t,re,im\n0,1,0\n\u0661,1,0\n",  # a non-ASCII digit: refused
        "t,re,im\n0,1,0\n1,\"" + "9" * 200000 + "\",0\n",  # past csv's field size limit; inf
        "t,re,im,\"" + "x" * 200000 + "\"\n0,1,0\n1,1,0\n",  # a header field beyond csv's size limit
    ], ids=["short-row", "header-only", "one-row", "non-numeric", "whitespace-line",
            "no-t-column", "comment-line", "underscore", "non-ascii-digit", "huge-number",
            "huge-header"])
    def test_bad_files_are_runtime_errors(self, capsys, tmp_path, text):
        path = tmp_path / "wave.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["spectrum", "--input", str(path), *SPECTRUM_TAIL]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text,where", [
        ("t,re,im\n0,x,0\n0.5,1,0\n", "line 2, column re: 'x' is not a number"),
        ("t,re,im\n0,1,0\n0.5,1\n1,1,0\n", "line 3, column im: missing (the row has 2 fields)"),
        ("t,re,im\n0,1,0\n\n0.5,1_0,0\n", "line 4, column re: '1_0' is not a number"),
        ('t,re,im\n0,1,0\n"0.5\n",1,0\n1,1,x\n', "line 5, column im: 'x' is not a number"),
        ("t,amp,re\n0,1,x\n1,y,0\n", "line 3, column amp: 'y' is not a number"),
        ("t,re,im\n0,1,0\ninf,1,0\n", "time grid must be finite"),
    ], ids=["value-on-line-2", "short-row-on-line-3", "after-blank-line", "after-quoted-newline",
            "unread-column-skipped", "non-finite-time"])
    def test_bad_value_names_file_line_and_column(self, capsys, tmp_path, text, where):
        path = tmp_path / "wave.csv"
        for encoding in ("utf-8", "utf-8-sig"):  # utf-8-sig writes a byte-order mark first
            path.write_text(text, encoding=encoding)
            assert main(["spectrum", "--input", str(path), *SPECTRUM_TAIL]) == 1
            assert capsys.readouterr().err == f"error: cannot read waveform {path}: {where}\n"

    def test_byte_order_mark_reads_as_without(self, capsys, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark.
        plain = write_clean_waveform(tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        grid = ["--omega-min", "2", "--omega-max", "18", "--points", "301"]
        (code, doc), (bom_code, bom_doc) = (run_json(capsys, ["spectrum", "--input", str(path), *grid])
                                            for path in (plain, bom))
        assert code == bom_code == 0
        assert bom_doc["results"] == doc["results"]

    def test_field_over_the_csv_limit_keeps_numpy_message(self, capsys, tmp_path):
        # 200000 characters exceed csv's default field limit (131072), so the
        # re-read that looks for the bad value stops, and numpy's message stays.
        path = tmp_path / "wave.csv"
        path.write_text("t,re,im\n0," + "x" * 200_000 + ",0\n0.5,1,0\n")
        assert main(["spectrum", "--input", str(path), *SPECTRUM_TAIL]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read waveform {path}: could not convert string 'xxx")
        assert captured.err.count("\n") == 1

    def test_bad_value_read_from_a_pipe_keeps_numpy_message(self, capsys):
        # A pipe cannot seek back to its start for the re-read that names the line: numpy's message stays.
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as pipe:
            pipe.write(b"t,re,im\n0,1,0\n1,x,0\n2,1,0\n")
        path = f"/dev/fd/{read_end}"
        try:
            if not os.path.exists(path):
                pytest.skip(f"{path} does not name the pipe here")
            code = main(["spectrum", "--input", path, *SPECTRUM_TAIL])
        finally:
            os.close(read_end)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read waveform {path}: could not convert string 'x'")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", ["t,re,im\n", "t,re,im\n\n\n", "t,re,im\n0,1,0\n"])
    def test_too_few_rows_message(self, capsys, tmp_path, text):
        path = tmp_path / "wave.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["spectrum", "--input", str(path), *SPECTRUM_TAIL]) == 1
        assert caught == []  # numpy's empty-input warning would print to stderr
        assert capsys.readouterr().err == (
            f"error: cannot read waveform {path}: time grid must be a 1-d grid with at least 2 points\n")

    def test_overflowing_time_step_message(self, capsys, tmp_path):
        path = tmp_path / "wave.csv"
        # An overflowing step, then a span that overflows in finite steps.
        for text in ("t,amp\n-1.7e308,1\n1.7e308,1\n", "t,amp\n-1e308,1\n0,1\n1e308,1\n"):
            path.write_text(text)
            assert main(["spectrum", "--input", str(path), *SPECTRUM_TAIL]) == 1
            assert capsys.readouterr().err == f"error: cannot read waveform {path}: time grid span must be finite\n"

    def test_header_without_t_message(self, capsys, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time,re,im\n0,1,0\n1,1,0\n")
        assert main(["spectrum", "--input", str(path), *SPECTRUM_TAIL]) == 1
        assert capsys.readouterr().err == f"error: cannot read waveform {path}: expected CSV columns t,re,im or t,amp\n"


REQUIRED = {
    "spectrum": {"--omega-min": "4", "--omega-max": "16", "--points": "11", "--a0": "1",
                 "--omega0": "10", "--tau": "2"},
    "width": {"--omega0": "10", "--tau": "2"},
    "adjust": {"--e": "2", "--de": "1", "--t": "1"},
    "recoil": {"--k": "1", "--n": "10"},
}
KNOWN_FLAGS = {"--help", "--version", "--input", "--hbar", "--mode", "--seed", "--dump", "--format", "--output"} | {
    flag for flags in REQUIRED.values() for flag in flags}
CHOICE_FLAGS = {"--format": ("csv", "json"), "--mode": ("paper", "consistent", "both")}


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# Argument text as an OS passes it: no NUL, no lone surrogates.
arg_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=12)


@st.composite
def bad_argv(draw):
    """A command line with one flag or value broken, which must fail as a usage error."""
    command = draw(st.sampled_from(sorted(REQUIRED)))
    flags = dict(REQUIRED[command])
    kind = draw(st.sampled_from(["drop-flag", "drop-value", "bad-number", "bad-choice",
                                 "unknown-flag", "stray-value", "non-finite", "no-command"]))
    extra = []
    if kind == "drop-flag":
        del flags[draw(st.sampled_from(sorted(flags)))]
    elif kind == "drop-value":
        flag = draw(st.sampled_from(sorted(flags)))
        del flags[flag]
        extra = [flag]  # last, so it has no value
    elif kind == "bad-number":
        flag = draw(st.sampled_from(sorted(flags)))
        flags[flag] = draw(arg_text.filter(lambda s: not is_number(s) and not s.startswith("-h")
                                           and not s.startswith("--h")))
    elif kind == "bad-choice":
        flag = draw(st.sampled_from(sorted(CHOICE_FLAGS)))
        if flag == "--mode" and command != "adjust":
            flag = "--format"
        flags[flag] = draw(arg_text.filter(lambda s: s not in CHOICE_FLAGS[flag] and not s.startswith("-")))
    elif kind == "unknown-flag":
        name = draw(st.from_regex(r"--[a-z][a-z0-9-]{0,10}", fullmatch=True))
        # argparse takes any unambiguous prefix of a flag for the flag
        if any(known.startswith(name) for known in KNOWN_FLAGS):
            name = "--no-such-" + name[2:]
        value = draw(arg_text)
        extra = [name, value] if draw(st.booleans()) and not value.startswith("-") else [f"{name}={value}"]
    elif kind == "stray-value":
        extra = [draw(arg_text.filter(lambda s: not s.startswith("-")))]
    elif kind == "non-finite":
        numeric = sorted(set(flags) - {"--points", "--n"})
        flags[draw(st.sampled_from(numeric))] = draw(st.sampled_from(["inf", "-inf", "nan", "Infinity"]))
    argv = [command] + [item for pair in flags.items() for item in pair] + extra
    if kind == "no-command":
        argv = argv[1:]
    return argv


non_finite = st.sampled_from(["nan", "inf", "-inf", "Infinity", "-Infinity"])
not_positive = st.floats(max_value=0.0, allow_nan=False).map(repr) | non_finite
# For each command's flags, values out of range or not finite.  REQUIRED's grid
# runs from --omega-min 4 to --omega-max 16.
BAD_VALUES = {
    "--a0": st.sampled_from(["0", "-0.0"]) | non_finite,
    "--omega0": not_positive,
    "--tau": not_positive,
    "--hbar": not_positive,
    "--k": not_positive,
    "--omega-min": st.floats(min_value=16.0).map(repr) | non_finite,
    "--omega-max": st.floats(max_value=4.0).map(repr) | non_finite,
    "--e": non_finite,
    "--de": non_finite,
    "--t": non_finite,
    "--points": st.integers(max_value=1).map(str) | non_finite,
    "--n": st.integers(max_value=0).map(str) | non_finite,
    "--seed": st.integers(max_value=-1).map(str) | non_finite,
    **{flag: arg_text.filter(lambda s, flag=flag: s not in CHOICE_FLAGS[flag]) for flag in CHOICE_FLAGS},
}


def value_flags(command):
    """The command's flags that take a number or a choice: all but paths and --help."""
    parser = pulselab.cli._parser()
    subparser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    return sorted(a.option_strings[0] for a in subparser._actions if a.type in (float, int) or a.choices)


class TestConfig:
    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_config_is_every_flag_of_the_command(self, command):
        """The embedded config holds the full effective configuration: every
        destination of the command's subparser, plus the command itself."""
        parser = pulselab.cli._parser()
        subparser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
        dests = {a.dest for a in subparser._actions if not isinstance(a, argparse._HelpAction)}
        code, text = run_text([command, *(item for pair in REQUIRED[command].items() for item in pair)])
        assert code == 0
        assert set(json.loads(text)["config"]) == dests | {"command"}


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (["adjust", "--e", "2", "--de", "-x", "--t", "1"], "argument --de: expected one argument"),
        (["spectrum", "--points", "3"], "the following arguments are required: --omega-min, --omega-max"),
        (["recoil", "--k", "1", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
        (["width", "--omega0", "1", "--tau", "1", "x\ny"], "unrecognized arguments: x y"),
        # "" names no file: before the draw, and before the same-file check, where it resolves as "."
        (["width", "--omega0", "10", "--tau", "2", "-o", ""], "--output must not be empty"),
        (["recoil", "--k", "1", "--n", "3", "--dump", ""], "--dump must not be empty"),
        (["spectrum", "--input", "", *SPECTRUM_TAIL], "--input must not be empty"),
        (["spectrum", "--input", "", *SPECTRUM_TAIL, "-o", ""], "--input must not be empty"),
    ])
    def test_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                             ids=["lf", "cr", "vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"])
    @pytest.mark.parametrize("flag,argv", [
        ("--output", ["width", "--omega0", "1", "--tau", "1"]),
        ("--input", ["spectrum", "--omega-min", "2", "--omega-max", "18", "--points", "301"]),
        ("--dump", ["recoil", "--k", "1", "--n", "10"]),
    ], ids=["output", "input", "dump"])
    def test_line_break_in_a_path_is_refused_in_csv(self, capsys, tmp_path, monkeypatch, flag, argv, brk):
        """A CSV header holds the path on one "# " line, which a line break would end;
        JSON escapes it."""
        monkeypatch.chdir(tmp_path)
        path = f"o{brk}ut.csv"
        if flag == "--input":
            os.rename(write_clean_waveform(tmp_path), path)
        argv = [*argv, flag, path]
        assert main([*argv, "--format", "csv"]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} must not hold a line break with --format csv\n")
        assert os.listdir() == ([path] if flag == "--input" else [])
        assert main(argv) == 0
        out = capsys.readouterr().out
        doc = json.loads(Path(path).read_text() if flag == "--output" else out)
        assert doc["config"][flag[2:]] == path

    @pytest.mark.parametrize("flag,argv", [
        ("--output", ["width", "--omega0", "1", "--tau", "1"]),
        ("--input", ["spectrum", "--omega-min", "2", "--omega-max", "18", "--points", "301"]),
        ("--dump", ["recoil", "--k", "1", "--n", "10"]),
    ], ids=["output", "input", "dump"])
    def test_non_utf8_path_is_refused_in_csv(self, capsys, tmp_path, monkeypatch, flag, argv):
        """A path byte that is not UTF-8 (0x85 here) reaches argv as a lone
        surrogate, which the UTF-8 CSV header cannot hold; JSON escapes it."""
        monkeypatch.chdir(tmp_path)
        path = os.fsdecode(b"o\x85ut.csv")
        if flag == "--input":
            os.rename(write_clean_waveform(tmp_path), path)
        argv = [*argv, flag, path]
        assert main([*argv, "--format", "csv"]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} must be UTF-8 text with --format csv\n")
        assert os.listdir() == ([path] if flag == "--input" else [])
        assert main(argv) == 0
        out = capsys.readouterr().out
        doc = json.loads(Path(path).read_text() if flag == "--output" else out)
        assert doc["config"][flag[2:]] == path

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("alias", ["x", "./x", "link", "hard"], ids=["same", "dot", "symlink", "hardlink"])
    @pytest.mark.parametrize("flag,argv", [
        ("--input", ["spectrum", "--omega-min", "2", "--omega-max", "18", "--points", "301"]),
        ("--dump", ["recoil", "--k", "1", "--n", "3"]),
    ], ids=["input", "dump"])
    def test_output_naming_the_input_or_dump_is_refused(self, capsys, tmp_path, monkeypatch, flag, argv,
                                                         alias, fmt):
        """The document would overwrite the waveform or the dump, so the run
        refuses before it reads or writes anything.  A hard link is the same
        file under another name: for the dump, one of a dump already there."""
        monkeypatch.chdir(tmp_path)
        os.symlink("x", "link")
        if flag == "--input":
            os.rename(write_clean_waveform(tmp_path), "x")
        elif alias == "hard":
            assert main([*argv, "--dump", "x", "-o", os.devnull]) == 0
        if alias == "hard":
            os.link("x", "hard")
        names = sorted(os.listdir())
        before = Path("x").read_bytes() if "x" in names else None
        argv = [*argv, flag, alias, "--format", fmt]
        assert main([*argv, "-o", "x"]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} and --output name the same file\n")
        assert sorted(os.listdir()) == names
        assert (Path("x").read_bytes() if "x" in names else None) == before
        assert main([*argv, "-o", "y"]) == 0
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert sorted(os.listdir()) == sorted({*names, "x", "y"})

    @pytest.mark.parametrize("flag,argv,mode", [
        ("--input", ["spectrum", "--omega-min", "2", "--omega-max", "18", "--points", "301"], "a"),
        ("--dump", ["recoil", "--k", "1", "--n", "5", "--seed", "3"], "w"),
    ], ids=["input", "dump"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_naming_the_input_or_dump_is_refused(self, tmp_path, flag, argv, mode, fmt):
        """As `--dump x > x` or `--input x >> x`: the document, written at
        stdout's own offset, would overwrite the dump or the waveform."""
        src = os.path.dirname(os.path.dirname(pulselab.__file__))
        path = write_clean_waveform(tmp_path) if flag == "--input" else tmp_path / "x.csv"
        before = path.read_bytes() if path.exists() else b""
        with open(path, mode) as stdout:
            proc = subprocess.run([sys.executable, "-m", "pulselab.cli", *argv, flag, str(path), "--format", fmt],
                                  stdout=stdout, stderr=subprocess.PIPE, text=True,
                                  env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, f"error: {flag} and stdout name the same file\n")
        assert path.read_bytes() == before

    def test_same_file_is_refused_before_the_commands_checks(self, capsys, tmp_path, monkeypatch):
        """On a line with two usage errors the flag pass's comes first."""
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "--input", "x", "--omega-min", "4", "--omega-max", "16", "--points", "1",
                     "-o", "x"]) == 2
        assert capsys.readouterr() == ("", "error: --input and --output name the same file\n")
        assert os.listdir() == []

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["adjust", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: pulselab" if "--help" in argv else "pulselab ")
        assert captured.err == ""

    @settings(max_examples=150, deadline=None)
    @given(bad_argv())
    def test_bad_flags_exit_two_with_one_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), command=st.sampled_from(sorted(REQUIRED)))
    def test_value_error_names_its_flag(self, data, command):
        flag = data.draw(st.sampled_from(value_flags(command)))
        value = data.draw(BAD_VALUES[flag])
        good = [item for name, text in REQUIRED[command].items() if name != flag for item in (name, text)]
        argv = [command, *good, f"{flag}={value}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        line = err.getvalue()
        assert line.startswith("error: ") and line.count("\n") == 1
        # The flag as a whole word, with or without its dashes: "--omega-min", "tau", "n".
        assert re.search(rf"(?<![\w-])(--)?{re.escape(flag[2:])}(?![\w-])", line), line


class TestParserReuse:
    def test_calls_in_one_process_match_first_calls(self, tmp_path):
        t = np.linspace(0.0, 2.0, 256)
        wave = tmp_path / "wave.csv"
        wave.write_text("t,re,im\n" + "".join(
            f"{ti!r},{a.real!r},{a.imag!r}\n" for ti, a in zip(t.tolist(), np.exp(10j * t).tolist())))
        omega = ["--omega-min", repr(10.0 - 2.5 * math.pi), "--omega-max", repr(10.0 + 2.5 * math.pi),
                 "--points", "101"]
        calls = [
            ["spectrum", "--input", str(wave), *omega],
            ["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2", *omega],
            ["adjust", "--e", "2", "--de", "-x", "--t", "1"],
            ["width", "--omega0", "10", "--tau", "2", "--format", "csv"],
            ["adjust", "--e", "2", "--de", "1", "--t", "1", "--mode", "paper"],
            ["recoil", "--k", "1", "--n", "100", "--seed", "3"],
            ["spectrum", "--input", str(wave), *omega, "--format", "csv"],
            ["adjust", "--e", "2", "--de", "1", "--t", "1"],
            ["width", "--omega0", "10", "--tau", "2"],
        ]

        first = []
        for argv in calls:
            pulselab.cli._parser.cache_clear()
            first.append(run_captured(argv))
        pulselab.cli._parser.cache_clear()
        parser = pulselab.cli._parser()
        assert [run_captured(argv) for argv in calls] == first
        assert pulselab.cli._parser() is parser
        assert [code for code, _, _ in first] == [0, 0, 2, 0, 0, 0, 0, 0, 0]


# Command lines whose exit code, stdout and stderr must not depend on which
# parser reads them: valid ones, help and version, no, unknown and abbreviated
# commands, "--", extras, and bad, ambiguous and non-finite values.
ADJUST = ["adjust", "--e", "2", "--de", "1", "--t", "1"]
DISPATCH_CORPUS = [
    ADJUST,
    ["adjust", "--e=-1e-05", "--de", "0.5", "--t", "0.3", "--mode", "paper"],
    ["adjust", "--mode", "consistent", "--t", "1", "--de", "1", "--e", "2", "--format", "csv"],
    ["width", "--omega0", "10", "--tau", "2", "--format", "csv"],
    ["width", "--omega0", "10", "--tau", "2", "--hbar", "0.5"],
    ["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2", *SPECTRUM_TAIL],
    ["recoil", "--k", "1", "--n", "50", "--seed", "3"],
    ["-h"], ["--help"], ["--version"], ["--vers"],
    ["adjust", "-h"], ["spectrum", "--help"], ["width", "-h"], ["recoil", "--help"],
    [], ["adjst"], ["adj"], ["ADJUST"], ["--format", "csv", "adjust"], ["--", *ADJUST],
    ["adjust", "--", "--e", "2"], [*ADJUST, "extra"], ["adjust", "--version"], [*ADJUST, "--vers"],
    ["adjust", "--e", "x", "--de", "1", "--t", "1"], ["adjust", "--e", "1", "--de", "1"],
    ["spectrum", "--omega", "1", *SPECTRUM_TAIL], ["adjust", "--e", "inf", "--de", "nan", "--t", "1"],
    ["recoil", "--k", "1", "--n", "abc"], ["spectrum", "--points", "3"],
    ["adjust", "--mode", "bogus", "--e", "2", "--de", "1", "--t", "1"],
    ["recoil", "--k", "1", "--n", "10", "--seed", "-1"], [*ADJUST, "--output"],
    ["width", "--omega0", "10", "--tau", "0"], ["width", "--omega0", "1", "--tau", "1", "x\ny"],
]


class TestDispatch:
    """``main`` hands a command line that starts with a command name to that
    command's parser alone; the top-level parser, which would hand it on, is
    the reference."""

    def test_same_as_the_top_level_route(self, monkeypatch):
        direct = [run_captured(argv) for argv in DISPATCH_CORPUS]
        monkeypatch.setattr(pulselab.cli._parser(), "commands", {}, raising=False)
        assert [run_captured(argv) for argv in DISPATCH_CORPUS] == direct
        assert {code for code, _, _ in direct} == {0, 2}

    @pytest.mark.parametrize("argv", [DISPATCH_CORPUS[i] for i in (0, 3, 5, 6)], ids=lambda argv: argv[0])
    def test_one_parse_per_call(self, monkeypatch, argv):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert run_captured(argv)[0] == 0
        assert calls == [f"pulselab {argv[0]}"]


# Any finite double: subnormals, -0.0 and +-1.7976931348623157e308 included.
any_double = st.floats(**finite)
omega_range = st.tuples(any_double, any_double).map(sorted)

# Runs that once leaked numpy warnings onto stderr: (argv, waveform text or None, exit code).
LEAKS = {
    "grid-overflow": (["spectrum", "--a0", "1", "--omega0", "10", "--tau", "2",
                       "--omega-min=-1e308", "--omega-max=-1e307", "--points", "3"], None, 1),
    "huge-omega0": (["spectrum", "--a0", "1", "--omega0", "1e300", "--tau", "1e-300", *SPECTRUM_TAIL], None, 0),
    "huge-tau": (["spectrum", "--a0", "1", "--omega0", "1e-300", "--tau", "1e300",
                  "--omega-min", "0", "--omega-max", "1e-299", "--points", "11"], None, 1),
    "time-span-overflow": (["spectrum", *SPECTRUM_TAIL], "t,amp\n-1.7e308,1\n1.7e308,1\n", 1),
}


def flags(**values):
    """``--name=value`` arguments, so that a negative number reads as a value."""
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]


def reject_constant(name):
    raise AssertionError(f"stdout holds {name}")


def assert_run_contract(argv):
    """One run ends in exit 0 with a JSON document, or in exit 1 or 2 with
    one ``error:`` line; either way no Python warning is raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=reject_constant)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def write_rows(directory, header, rows):
    path = directory / "wave.csv"
    width = 2 if header == "t,amp" else 3
    path.write_text(header + "\n" + "".join(",".join(map(repr, row[:width])) + "\n" for row in rows))
    return str(path)


class TestRunContract:
    """Every finite flag value, however extreme, keeps the exit-code contract."""

    @settings(max_examples=150, deadline=None)
    @given(a0=any_double, omega0=any_double, tau=any_double, omega=omega_range, points=st.integers(0, 2000))
    @example(a0=1.0, omega0=10.0, tau=2.0, omega=(-1e308, -1e307), points=3)
    @example(a0=1.0, omega0=1e300, tau=1e-300, omega=(4.0, 16.0), points=11)
    @example(a0=1.0, omega0=1e-300, tau=1e300, omega=(0.0, 1e-299), points=11)
    def test_analytic_spectrum(self, a0, omega0, tau, omega, points):
        assert_run_contract(["spectrum", *flags(a0=a0, omega0=omega0, tau=tau, omega_min=omega[0],
                                                omega_max=omega[1]), f"--points={points}"])

    @settings(max_examples=100, deadline=None)
    @given(header=st.sampled_from(["t,re,im", "t,amp"]),
           rows=st.lists(st.tuples(any_double, any_double, any_double), max_size=40),
           omega=omega_range, points=st.integers(0, 2000))
    @example(header="t,amp", rows=[(-1.7e308, 1.0, 0.0), (1.7e308, 1.0, 0.0)], omega=(4.0, 16.0), points=11)
    def test_sampled_spectrum(self, tmp_path_factory, header, rows, omega, points):
        path = write_rows(tmp_path_factory.mktemp("wave"), header, rows)
        assert_run_contract(["spectrum", f"--input={path}", *flags(omega_min=omega[0], omega_max=omega[1]),
                             f"--points={points}"])

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.builds(lambda omega0, tau, hbar: ["width", *flags(omega0=omega0, tau=tau, hbar=hbar)],
                  any_double, any_double, any_double),
        st.builds(lambda e, de, t, mode: ["adjust", *flags(e=e, de=de, t=t), f"--mode={mode}"],
                  any_double, any_double, any_double, st.sampled_from(["paper", "consistent", "both"])),
        st.builds(lambda k, n, seed: ["recoil", *flags(k=k, n=n, seed=seed)],
                  any_double, st.integers(-2, 50), st.integers(-2, 2**64)),
    ))
    def test_scalar_commands(self, argv):
        assert_run_contract(argv)

    @pytest.mark.parametrize("argv,text,code", LEAKS.values(), ids=list(LEAKS))
    def test_warnings_as_errors(self, capsys, tmp_path, argv, text, code):
        """Under ``-W error`` too a run ends in its exit code, not a traceback."""
        if text is not None:
            (tmp_path / "wave.csv").write_text(text)
            argv = [*argv, f"--input={tmp_path / 'wave.csv'}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        assert capsys.readouterr().err.count("\n") <= 1
