import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from siotsec import (AntennaConfig, SecrecyScenario, SnrModel, attack, cli, harness,
                     make_snr_model, read_pnm, sop_numeric)
from siotsec.cli import main
from siotsec.harness import (MAX_ATTACK_ITERS, MAX_BLUR_RADIUS, MAX_EMBED_DIM,
                             MAX_ENCODER_WEIGHTS)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out: str):
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_sop_command_matches_library(capsys):
    code, out, err = run_cli(capsys, "sop", "--snr-b-db", "10", "--snr-e-db", "0")
    assert code == 0 and not err
    header, rows = parse_csv(out)
    assert header == ["sop"]
    scenario = SecrecyScenario(make_snr_model(10.0, AntennaConfig(3, 3)),
                               make_snr_model(1.0, AntennaConfig(3, 3)), 1.0)
    assert rows[0][0] == pytest.approx(sop_numeric(scenario), rel=1e-5)


def test_ssop_json_output(capsys):
    code, out, _ = run_cli(capsys, "ssop", "--sdep", "0.3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["columns"] == ["sop", "ssop"]
    sop, ssop = obj["values"][0][0], obj["values"][1][0]
    assert ssop == pytest.approx(0.7 * sop, abs=1e-12)


def test_dfp_command(capsys):
    code, out, _ = run_cli(capsys, "dfp", "--dep", "0.99", "--detections", "50")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["detections", "dfp"]
    assert rows[0][1] == pytest.approx(0.99**50, rel=1e-6)


def test_dfp_from_rate_and_volume(capsys):
    code, out, _ = run_cli(capsys, "dfp", "--dep", "0.95", "--rate-hz", "2",
                           "--data-bits", "1e9", "--covert-rate", "20",
                           "--bandwidth-hz", "5e6", "--ratio", "0.5")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == pytest.approx(10.0)
    assert rows[0][1] == pytest.approx(0.95**10, rel=1e-6)


def test_dep_command_defaults_to_optimal(capsys):
    code, out, _ = run_cli(capsys, "dep", "--signal-power", "1.0", "--samples", "20")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["threshold", "p_fa", "p_md", "dep"]
    assert rows[0][3] == pytest.approx(0.1239513, abs=1e-6)


def test_pnz_mc_includes_error_columns(capsys):
    code, out, _ = run_cli(capsys, "pnz", "--method", "mc", "--mc-samples", "10000",
                           "--tx-antennas", "1", "--rx-antennas", "1", "--eve-antennas", "1",
                           "--snr-b-db", "4.77", "--seed", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["pnz", "std_error", "n_samples"]
    assert rows[0][0] == pytest.approx(0.75, abs=0.02)


def test_attack_command_and_image_output(capsys, tmp_path):
    img_path = tmp_path / "adv.pgm"
    code, out, _ = run_cli(capsys, "attack", "--seed", "13", "--iters", "60",
                           "--save-image", str(img_path))
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["iteration", "best_similarity", "summary_sim_before", "summary_sim_after"]
    assert len(rows) == 62
    adv = read_pnm(img_path)
    assert adv.values.shape == (16, 16, 1)


def test_sweep_command_with_spec_file(capsys, tmp_path):
    spec_file = tmp_path / "fig5.cfg"
    spec_file.write_text("[experiment]\nkind = fig5_sweep\nseed = 3\n"
                         "[fig5]\nratio_step = 0.5\nratio_start = 0.5\n")
    code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec_file))
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["ratio", "dfp_siot", "dfp_conventional"]
    assert [r[0] for r in rows] == [0.5, 1.0]


def test_sweep_writes_output_file(capsys, tmp_path):
    spec_file = tmp_path / "fig5.cfg"
    out_file = tmp_path / "table.csv"
    spec_file.write_text("[experiment]\nkind = fig5_sweep\n")
    code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec_file),
                           "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_text().startswith("# spec_sha256=")


def test_sweep_determinism_across_invocations(capsys, tmp_path):
    spec_file = tmp_path / "attack.cfg"
    spec_file.write_text("[experiment]\nkind = attack_demo\nseed = 13\n"
                         "[attack]\nmax_iters = 30\n")
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["sweep", "--spec", str(spec_file), "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_seed_overrides_spec(capsys, tmp_path):
    spec_file = tmp_path / "m.cfg"
    spec_file.write_text("[experiment]\nkind = single_metric\nseed = 1\n"
                         "[metric]\nmetric = sop\nmethod = mc\nmc_samples = 200000\n")
    _, out1, _ = run_cli(capsys, "sweep", "--spec", str(spec_file))
    _, out2, _ = run_cli(capsys, "sweep", "--spec", str(spec_file), "--seed", "2")
    _, out3, _ = run_cli(capsys, "sweep", "--spec", str(spec_file), "--seed", "2")
    assert out1 != out2
    assert out2 == out3


def test_error_paths_exit_nonzero(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--spec", str(tmp_path / "nope.cfg"))
    assert code == 1 and "error" in err

    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nkind = fig5_sweep\n[fig5]\nbandwidth_hz = -1\n")
    code, _, err = run_cli(capsys, "sweep", "--spec", str(bad))
    assert code == 1 and "bandwidth_hz" in err

    code, _, err = run_cli(capsys, "dfp", "--dep", "1.5")
    assert code == 1 and "dep" in err


@pytest.mark.parametrize("command", ["sop", "pnz", "asc", "dfp"])
def test_oversized_mc_samples_is_one_error_line(capsys, command):
    code, out, err = run_cli(capsys, command, "--method", "mc",
                             "--mc-samples", "100000000000")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("siotsec: error:") and "mc_samples" in lines[0]


@pytest.mark.parametrize("command", ["sop", "pnz", "asc", "dfp"])
def test_mc_samples_is_checked_only_for_method_mc(capsys, command):
    code, out, err = run_cli(capsys, command, "--mc-samples", "5")
    assert code == 0 and not err
    assert parse_csv(out) == parse_csv(run_cli(capsys, command)[1])
    code, out, err = run_cli(capsys, command, "--method", "mc", "--mc-samples", "5")
    assert code == 1 and out == ""
    assert err == "siotsec: error: mc_samples: must be in [1000, 100000000]\n"


@pytest.mark.parametrize("detections", ["2.5", "inf", "1e30"])
def test_dfp_mc_needs_a_whole_look_count(capsys, detections):
    code, out, err = run_cli(capsys, "dfp", "--method", "mc", "--detections", detections,
                             "--mc-samples", "1000")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("siotsec: error: detections: must be a whole number")


@pytest.mark.parametrize("flag,value,field", [
    ("--iters", str(MAX_ATTACK_ITERS + 1), "max_iters"),
    # 16 * 16 * 1 pixels plus 8 embedding outputs per hidden unit
    ("--hidden-dim", str(MAX_ENCODER_WEIGHTS // 264 + 1), "hidden_dim"),
    ("--height", "8000", "hidden_dim"),
    ("--embed-dim", str(MAX_EMBED_DIM + 1), "embed_dim"),
    ("--blur-radius", str(MAX_BLUR_RADIUS + 1), "blur_radius"),
])
def test_oversized_attack_is_one_error_line_before_any_array(capsys, flag, value, field):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "attack", flag, value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"siotsec: error: {field}:")
    assert peak < 2**20


@pytest.mark.parametrize("argv", [
    ["attack", "--iters", "abc"],
    ["sop", "--method", "foo"],
    ["sop", "--format", "xml"],
    ["sop", "--seed", "abc"],
    ["sop", "--wibble", "3"],
    [],
    ["nosuchcommand"],
    ["dfp", "--rate-hz", "fast"],
    # flags that never changed a result are gone
    ["ssop", "--method", "mc"],
    ["ssop", "--mc-samples", "5000"],
    ["dep", "--mc-samples", "5000"],
    ["attack", "--mc-samples", "5000"],
    ["sweep", "--spec", str(Path(__file__).parent / "golden" / "fig5.cfg"),
     "--mc-samples", "5000"],
])
def test_usage_errors_are_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("siotsec: error:")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sop", "--help"])
    assert exc.value.code == 0
    assert "--snr-e-db" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value,field", [
    ("--ratio", "5", "compression_ratio"),
    ("--covert-rate", "0", "covert_rate_bps_hz"),
    # 1e300 looks per second over 1e9 bits: an infinite look count
    ("--rate-hz", "1e300", "source_bits"),
])
def test_dfp_look_flags_are_checked_by_the_covert_model(capsys, flag, value, field):
    code, out, err = run_cli(capsys, "dfp", flag, value)
    assert code == 1 and out == ""
    assert field in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,fig3,field", [
    (["sop", "--snr-b-db", "4000"], None, "snr_b_db"),
    (["sop", "--snr-e-db", "-4000"], None, "eve_snr_db"),
    (None, "snr_db_stop = 4000", "snr_db_stop"),
    (None, "distance_e_m = inf", "distance_e_m"),
    (None, "rate_threshold = inf", "rate_threshold"),
    (["sop", "--eve-antennas", "0"], None, "eve_antennas"),
    (["dep", "--samples", "0"], None, "warden_samples"),
    (["dfp", "--detections", "inf"], None, "detections"),
    # at 3100 dB the linear SNR overflows: rejected before any quadrature
    (None, "snr_db_stop = 3100\nsnr_mode = pathloss", "snr_db_stop"),
    (["dep", "--noise-power", "1e308", "--signal-power", "1e308"], None, "signal_power"),
    (["dep", "--threshold", "inf"], None, "threshold"),
    (["dep", "--threshold", "nan"], None, "threshold"),
])
def test_bad_values_fail_at_parse_naming_the_field(capsys, tmp_path, monkeypatch, argv, fig3,
                                                   field):
    runs, sops = [], []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    monkeypatch.setattr(harness, "sop_numeric", sops.append)
    if fig3 is not None:
        spec = tmp_path / "fig3.cfg"
        spec.write_text(f"[experiment]\nkind = fig3_sweep\n[fig3]\n{fig3}\n")
        argv = ["sweep", "--spec", str(spec)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"siotsec: error: {field}: ")
    assert runs == [] and sops == []


@pytest.mark.parametrize("argv,fig3,metric", [
    # 2**rate overflows, or a mean SNR above about 3066 dB overflows the tail quantile
    (["sop", "--rate", "2000"], None, "SOP"),
    (["ssop", "--rate", "2000"], None, "SOP"),
    (None, "rate_threshold = 2000", "SOP"),
    (["sop", "--snr-e-db", "3070"], None, "SOP"),
    (["pnz", "--snr-e-db", "3070"], None, "PNZ"),
    (["asc", "--snr-b-db", "3070", "--snr-e-db", "3000"], None, "ASC"),
])
def test_quadrature_beyond_the_float_range_is_one_error_line(capsys, tmp_path, argv, fig3,
                                                             metric):
    if fig3 is not None:
        spec = tmp_path / "fig3.cfg"
        spec.write_text(f"[experiment]\nkind = fig3_sweep\n[fig3]\n{fig3}\n")
        argv = ["sweep", "--spec", str(spec)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"siotsec: error: quadrature for {metric} cannot start")


@pytest.mark.parametrize("command", ["pnz", "asc"])
def test_rate_is_not_bounded_where_it_is_not_read(capsys, command):
    code, out, err = run_cli(capsys, command, "--rate", "2000")
    assert code == 0 and not err
    _, rows = parse_csv(out)
    assert 0.0 < rows[0][0]


@pytest.mark.parametrize("noise,signal,dep", [(1e-300, 1e10, 0.0), (1e300, 1e-30, 1.0)])
def test_dep_at_extreme_warden_powers(capsys, noise, signal, dep):
    code, out, err = run_cli(capsys, "dep", "--noise-power", str(noise), "--signal-power",
                             str(signal), "--format", "json")
    assert code == 0 and not err
    values = json.loads(out)["values"]
    assert 20 * noise <= values[0][0] <= 20 * (noise + signal)
    assert values[3][0] == pytest.approx(dep, abs=1e-12)


def test_save_image_runs_the_attack_once(capsys, tmp_path, monkeypatch):
    steps = []
    grad = attack._backprop
    monkeypatch.setattr(attack, "_backprop", lambda *a: steps.append(1) or grad(*a))
    code, _, _ = run_cli(capsys, "attack", "--iters", "20", "--save-image",
                         str(tmp_path / "adv.pgm"))
    assert code == 0 and len(steps) == 20


def test_cli_import_leaves_integrate_optimize_and_stats_unloaded():
    # scipy.integrate alone costs about 0.35 s and 25 MiB; only quadrature loads it
    code = ("import sys, siotsec.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.stats') "
            "if m in sys.modules))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
