"""Command-line interface: one metric per invocation, plus declarative sweeps.

Every subcommand is a front end on the spec parser.  Its flags are fields
of one `*Params` dataclass; the values a user sets pass on as raw strings,
so unset flags take the dataclass defaults and bad values raise the same
field-named SpecError as a spec file.  Every command prints a small CSV (or
JSON) table to stdout or --out; sweep runs a config file.  Exit code is 0 on
success, 1 with one diagnostic line on stderr otherwise, usage errors
included.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .covert import CovertScenario, num_detections
from .harness import (
    KIND_SECTIONS,
    SINGLE_METRICS,
    AttackParams,
    ExperimentSpec,
    Fig5Params,
    SpecError,
    _field_errors,
    attack_demo,
    build_spec,
    emit_table,
    read_sections,
    render_table,
    run_experiment,
)
from .images import pnm_magic, write_pnm
from .secrecy import BracketError, QuadratureError

# fields whose flag is not "--" + the field name with "_" replaced by "-"
_LEGACY_FLAGS = {"eve_snr_db": "--snr-e-db", "rate_threshold": "--rate",
                 "warden_samples": "--samples", "max_iters": "--iters"}
# subcommand -> (help, experiment kind, params fields it exposes, fixed params keys)
_COMMANDS = {
    **{metric: (help_text, "single_metric", ("method", "mc_samples") + fields if mc else fields,
                {"metric": metric})
       for metric, (help_text, fields, _, mc) in SINGLE_METRICS.items()},
    "attack": ("seeded semantic attack demo", "attack_demo",
               tuple(f.name for f in dataclasses.fields(AttackParams)), {}),
}
# without --detections, a command that reads it counts the looks from these by the covert model
_LOOK_FLAGS = (("--rate-hz", Fig5Params, "detection_rate_hz"),
               ("--data-bits", Fig5Params, "source_bits"),
               ("--covert-rate", Fig5Params, "covert_rate_bps_hz"),
               ("--bandwidth-hz", Fig5Params, "bandwidth_hz"),
               ("--ratio", CovertScenario, "compression_ratio"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error keeps the CLI contract: main reports it on one line, exit 1
        raise SpecError(message)


def _help(cls, name: str) -> str:
    f = next(f for f in dataclasses.fields(cls) if f.name == name)
    return f"{f.metadata['help']} (default {f.default})"


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="siotsec", description="Semantic-IoT security metric toolkit")
    common = _Parser(add_help=False)
    common.add_argument("--seed", help=_help(ExperimentSpec, "seed"))
    common.add_argument("--format", help=_help(ExperimentSpec, "out_format"))
    common.add_argument("--out", default="", help="output file (default stdout)")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (help_text, kind, names, _) in _COMMANDS.items():
        sp = sub.add_parser(command, parents=[common], help=help_text)
        cls = KIND_SECTIONS[kind][1]
        for name in names:
            sp.add_argument(_LEGACY_FLAGS.get(name, "--" + name.replace("_", "-")), dest=name,
                            help=_help(cls, name))
        if "detections" in names:
            for flag, look_cls, name in _LOOK_FLAGS:
                sp.add_argument(flag, dest=name, type=float, default=getattr(look_cls, name),
                                help=_help(look_cls, name))
    sub.choices["attack"].add_argument("--save-image", default="",
                                       help="write the adversarial image (PGM/PPM)")
    sp = sub.add_parser("sweep", parents=[common], help="run a spec file")
    sp.add_argument("--spec", required=True, help="experiment config file")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, and help is formatted when printed
    return build_parser()


def _build_spec(args) -> ExperimentSpec:
    experiment = {key: getattr(args, key) for key in ("seed", "format")
                  if getattr(args, key) is not None}
    if args.command == "sweep":
        sections = read_sections(Path(args.spec).read_text(encoding="utf-8"))
        if "experiment" in sections:
            sections["experiment"].update(experiment)
        return build_spec(sections)
    _, kind, names, fixed = _COMMANDS[args.command]
    params = dict(fixed, **{name: getattr(args, name) for name in names
                            if getattr(args, name) is not None})
    if "detections" in names and "detections" not in params:
        # the warden's DEP does not enter the look count
        scenario = CovertScenario(dep=Fig5Params.dep,
                                  **{name: getattr(args, name) for _, _, name in _LOOK_FLAGS})
        params["detections"] = repr(num_detections(scenario))
    return build_spec({"experiment": {"kind": kind, **experiment},
                       KIND_SECTIONS[kind][0]: params})


def _run(args) -> int:
    spec = _build_spec(args)
    if args.command == "attack":
        if args.save_image:
            with _field_errors():  # before the attack, not after it
                pnm_magic(spec.attack.channels)
        table, adversarial = attack_demo(spec)
        if args.save_image:
            write_pnm(adversarial, args.save_image)
    else:
        table = run_experiment(spec)

    out = args.out or spec.out_path
    if out:
        emit_table(table, spec.out_format, out)
    else:
        sys.stdout.write(render_table(table, spec.out_format))
    return 0


def main(argv=None) -> int:
    try:
        return _run(_parser().parse_args(argv))
    except (SpecError, BracketError, QuadratureError, ValueError, OSError) as e:
        print(f"siotsec: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
