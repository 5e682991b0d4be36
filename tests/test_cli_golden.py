"""CLI output corpus: each invocation must reproduce its stored stdout (and
saved image) byte for byte.

The files under tests/golden/ were captured from the CLI before its flags
were rebuilt on the spec parser; `{golden}` in an argument names that
directory and `{tmp}` a per-test temporary directory.  The `help*.out`
files hold the top-level and each subcommand's `--help` text at 80
columns, captured before the metric subcommands were built from
`harness.SINGLE_METRICS`.
"""
import argparse
from pathlib import Path

import pytest

from siotsec.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"

_DEFAULT_CASES = {
    f"{command}_default_{fmt}": [command] + (["--format", "json"] if fmt == "json" else [])
    for command in ("sop", "pnz", "asc", "ssop", "dep", "dfp", "attack")
    for fmt in ("csv", "json")
}

# name -> (argv, saved image or None)
CASES = {name: (argv, None) for name, argv in _DEFAULT_CASES.items()}
CASES.update({
    # 70,000 samples cross the 65,536-sample Monte Carlo block boundary
    **{f"{metric}_mc_70000": ([metric, "--method", "mc", "--mc-samples", "70000",
                               "--seed", "5"], None)
       for metric in ("sop", "pnz", "asc", "dfp")},
    "sop_flags": (["sop", "--snr-b-db", "12.5", "--snr-e-db", "3", "--rate", "0.5",
                   "--tx-antennas", "2", "--rx-antennas", "4", "--eve-antennas", "1",
                   "--format", "json"], None),
    "pnz_siso": (["pnz", "--tx-antennas", "1", "--rx-antennas", "1", "--eve-antennas", "1",
                  "--snr-b-db", "4.77"], None),
    "asc_flags": (["asc", "--snr-b-db", "15", "--snr-e-db", "5", "--rate", "2",
                   "--seed", "99"], None),
    "ssop_flags": (["ssop", "--sdep", "0.7", "--snr-b-db", "8", "--snr-e-db", "-2",
                    "--tx-antennas", "2"], None),
    "dep_threshold": (["dep", "--threshold", "24"], None),
    "dep_flags": (["dep", "--noise-power", "2", "--signal-power", "1", "--samples", "10",
                   "--format", "json"], None),
    "dfp_detections": (["dfp", "--dep", "0.99", "--detections", "50"], None),
    "dfp_rate_volume": (["dfp", "--dep", "0.95", "--rate-hz", "2", "--data-bits", "1e9",
                         "--covert-rate", "20", "--bandwidth-hz", "5e6", "--ratio", "0.5"],
                        None),
    "dfp_rate_volume_odd": (["dfp", "--rate-hz", "3.3", "--data-bits", "7.7e8",
                             "--covert-rate", "13", "--bandwidth-hz", "2.2e6",
                             "--ratio", "0.37", "--format", "json"], None),
    "attack_untargeted": (["attack", "--mode", "untargeted", "--iters", "40",
                           "--save-image", "{tmp}/adv.pgm"], "attack_untargeted.pgm"),
    "attack_flags": (["attack", "--seed", "13", "--epsilon", "0.05", "--step-size", "0.002",
                      "--iters", "25", "--height", "8", "--width", "12", "--channels", "3",
                      "--hidden-dim", "16", "--embed-dim", "4", "--blur-sigma", "1",
                      "--blur-radius", "2", "--format", "json",
                      "--save-image", "{tmp}/adv.ppm"], "attack_flags.ppm"),
    **{f"sweep_{spec}": (["sweep", "--spec", f"{{golden}}/{spec}.cfg"], None)
       for spec in ("fig3", "fig5", "attack", "metric")},
    "sweep_fig3_overrides": (["sweep", "--spec", "{golden}/fig3.cfg", "--seed", "9",
                              "--format", "json"], None),
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, tmp_path):
    argv, image = CASES[name]
    code = main([a.format(golden=GOLDEN, tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    if image is not None:
        saved = Path(argv[-1].format(tmp=tmp_path))
        assert saved.read_bytes() == (GOLDEN / image).read_bytes()


HELP_COMMANDS = ("sop", "pnz", "asc", "ssop", "dep", "dfp", "attack", "sweep")


def help_text(command, monkeypatch, capsys) -> str:
    """The `--help` output of `command` (None: the top level) at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(([command] if command else []) + ["--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    return captured.out


@pytest.mark.parametrize("command", [None, *HELP_COMMANDS])
def test_help_matches_golden(command, monkeypatch, capsys):
    name = f"help_{command}.out" if command else "help.out"
    assert help_text(command, monkeypatch, capsys).encode("utf-8") == \
        (GOLDEN / name).read_bytes()


def test_cli_has_81_flag_slots():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(HELP_COMMANDS)
    slots = [a for sp in sub.choices.values() for a in sp._actions
             if not isinstance(a, argparse._HelpAction)]
    assert len(slots) == 81
