"""Command-line front end for the debate laboratory pipelines.

Exit codes: 0 on success, 1 when the effective configuration cannot be
built (bad file, unknown key, invalid value, bad seed), 2 when a pipeline
fails at runtime. Warnings go to stderr; the summary table goes to stdout.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from madlab.config import ConfigError, ExperimentConfig, load_config
from madlab.harness import (
    SWEEP_AXES,
    PipelineResult,
    run_analysis,
    run_attack,
    run_baseline,
    run_sweep,
    run_udpo,
    with_seed,
    write_summary_csv,
)
from madlab.rewards import ABLATABLE


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _components(text: str) -> tuple[str, ...]:
    parts = tuple(part.strip() for part in text.split(","))
    for part in parts:
        if part not in ABLATABLE:
            raise argparse.ArgumentTypeError(
                f"unknown component {part!r} in {text!r}, expected {'/'.join(ABLATABLE)}"
            )
    return parts


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--config", metavar="PATH",
        help="INI experiment configuration (built-in defaults when omitted)",
    )
    sub.add_argument(
        "--out", metavar="DIR",
        help="output directory (default: the configuration's [output] directory)",
    )
    sub.add_argument(
        "--seed", type=int, metavar="U64",
        help="override the environment seed",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="madlab",
        description="Simulated multi-agent debate: baselines, uncertainty-weighted "
                    "training, compromised-agent attacks, statistics, and sweeps.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    baseline = commands.add_parser(
        "baseline", help="evaluate the untrained ensemble on a fresh question set"
    )
    _add_common(baseline)

    train = commands.add_parser(
        "train", help="train the ensemble and compare against the untrained baseline"
    )
    _add_common(train)
    train.add_argument(
        "--zero", type=_components, default=(), metavar="C1,C2,...",
        help="ablation: zero these calibrated reward components (alpha, beta, gamma) "
             "before training",
    )

    attack = commands.add_parser(
        "attack", help="evaluate trained and untrained ensembles under compromised seats"
    )
    _add_common(attack)
    attack.add_argument(
        "--compromised", type=int, action="append", metavar="M",
        help="number of compromised seats (repeatable; default: the configured count)",
    )

    analyze = commands.add_parser(
        "analyze", help="build statistics reports from trajectory files"
    )
    analyze.add_argument(
        "paths", nargs="+", metavar="TRAJECTORIES",
        help="trajectory .jsonl files to analyze",
    )
    _add_common(analyze)

    sweep = commands.add_parser(
        "sweep", help="baseline evaluation across one environment axis"
    )
    _add_common(sweep)
    sweep.add_argument(
        "--axis", required=True, choices=SWEEP_AXES,
        help="environment axis to vary",
    )
    sweep.add_argument(
        "--values", required=True, type=_int_list, metavar="V1,V2,...",
        help="comma-separated axis values, one evaluation each",
    )

    return parser


def _dispatch(args: argparse.Namespace, config: ExperimentConfig, out_dir: str) -> PipelineResult:
    if args.command == "baseline":
        return run_baseline(config, out_dir)
    if args.command == "train":
        return run_udpo(config, out_dir, zero_components=args.zero)
    if args.command == "attack":
        m_values = args.compromised
        if m_values is None:
            m_values = [config.env.compromised_count]
        return run_attack(config, out_dir, m_values)
    if args.command == "analyze":
        return run_analysis(args.paths, config, out_dir)
    return run_sweep(config, out_dir, args.axis, args.values)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        config = with_seed(config, args.seed)
    except (ConfigError, ValueError) as exc:
        print(f"madlab: configuration error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out if args.out is not None else config.output_dir
    try:
        result = _dispatch(args, config, out_dir)
    except Exception as exc:  # CLI boundary: report and signal, never traceback
        print(f"madlab: error: {exc}", file=sys.stderr)
        return 2
    for warning in result.warnings:
        print(f"madlab: warning: {warning}", file=sys.stderr)
    write_summary_csv(sys.stdout, result.rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
