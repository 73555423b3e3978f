"""Command-line interface.

Subcommands: ``run`` (one configured experiment), ``ablate-init`` (GP-BO with
uniform vs zero-shot initialization), ``ablate-icl`` (LLM-only with no / random
/ top-k demonstrations), and ``report`` (comparison table from run logs).

Exit codes: 0 success, 2 configuration error, 3 remote-LLM failure,
4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_run_config
from .core import ConfigError
from .llm import LlmError
from .orchestrator import ReportError, report, run
from .surrogate import NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LLM = 3
EXIT_NUMERICAL = 4


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="INI experiment file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="run log path (overrides config)")
    parser.add_argument(
        "--mock-llm",
        metavar="SCRIPT",
        help="mock client: a script file of canned responses, or 'random' "
        "for a seeded in-range point generator",
    )


def _overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.mock_llm is not None:
        overrides["mock"] = args.mock_llm
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, **_overrides(args))
    log = run(config)
    path = config.out or "run_log.jsonl"
    log.write(path)
    summary = log.summary
    print(
        f"{config.method} on {config.preset}: {summary['n_evals']} evaluations, "
        f"best FOM {summary['best_fom']:.4g} "
        f"({summary['missed_specs']} missed specs), log: {path}"
    )
    return EXIT_OK


def _variant_path(base: str | None, stem: str, variant: str) -> str:
    if base:
        p = Path(base)
        return str(p.with_name(f"{p.stem}_{variant}{p.suffix or '.jsonl'}"))
    return f"{stem}_{variant}.jsonl"


def _ablate(base, stem: str, variants) -> int:
    """Run ``base`` once per (tag, label, field overrides) variant, then report."""
    paths = []
    for tag, label, fields in variants:
        log = run(dataclasses.replace(base, **fields))
        path = _variant_path(base.out, stem, tag)
        log.write(path)
        paths.append(path)
        print(f"{label}: best FOM {log.summary['best_fom']:.4g}")
    print()
    print(report(paths))
    return EXIT_OK


def _cmd_ablate_init(args: argparse.Namespace) -> int:
    base = load_run_config(args.config, **_overrides(args))
    return _ablate(base, "ablate_init", [
        (strategy, f"gp_bo with {strategy}", dict(
            method="gp_bo",
            llm_queries_per_step=0,
            # keep the per-iteration evaluation budget of the base configuration
            gp_queries_per_step=base.batch_size,
            init_strategy=strategy,
        ))
        for strategy in ("uniform_random", "llm_zero_shot")
    ])


def _cmd_ablate_icl(args: argparse.Namespace) -> int:
    base = load_run_config(args.config, **_overrides(args))
    return _ablate(base, "ablate_icl", [
        (tag, f"llm_only with sampler={kind}", dict(
            method="llm_only",
            llm_queries_per_step=max(base.llm_queries_per_step, 1),
            gp_queries_per_step=0,
            init_strategy="llm_zero_shot",
            sampler_kind=kind,
        ))
        for kind, tag in (("none", "no_icl"), ("uniform", "rand_k"), ("top_k", "top_k"))
    ])


def _cmd_report(args: argparse.Namespace) -> int:
    print(report(args.logs, curves=args.curves), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analogopt",
        description="Hybrid analog design optimization: GP-BO plus an LLM proposer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler in (
        ("run", "run one configured experiment", _cmd_run),
        ("ablate-init", "GP-BO with uniform vs LLM zero-shot initialization",
         _cmd_ablate_init),
        ("ablate-icl", "LLM-only with none / uniform / top-k demonstrations",
         _cmd_ablate_icl),
    ):
        p_cmd = sub.add_parser(name, help=help_text)
        _add_run_options(p_cmd)
        p_cmd.set_defaults(func=handler)

    p_report = sub.add_parser("report", help="comparison table from run logs")
    p_report.add_argument("logs", nargs="+", help="run log files (JSONL)")
    p_report.add_argument(
        "--curves", action="store_true", help="append best-so-far convergence series"
    )
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LlmError as exc:
        print(f"LLM error: {exc}", file=sys.stderr)
        return EXIT_LLM
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
