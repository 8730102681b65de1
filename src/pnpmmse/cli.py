"""Command-line entry point: converge, sweep, and validate subcommands.

Configuration precedence, lowest to highest: built-in defaults, the JSON
file named by ``--config``, the ``--paper-scale`` preset (n=4096, 100
trials), then individual flags.  Exit codes: 0 success, 1 validation
failure, 2 configuration error (including a problem too large to fit in
memory), 3 numerical-failure budget exceeded or a sweep rate at which
every trial failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import ConfigurationError, NumericalFailureError
from .experiment import (
    ExperimentConfig,
    make_output_dir,
    run_convergence_experiment,
    run_rate_sweep,
    run_validation_suite,
    write_validation_report,
)

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="JSON config file with ExperimentConfig keys")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--n", type=int, help="signal dimension")
    sub.add_argument("--alpha", type=float, help="sparsity level in (0, 1]")
    sub.add_argument("--trials", type=int, help="number of random trials")
    sub.add_argument("--rates", type=str, help="comma-separated measurement rates, e.g. 0.3,0.5,0.8")
    sub.add_argument("--solvers", type=str, help="comma-separated subset of pnp,lasso,gamp")
    sub.add_argument("--max-iter", type=int, dest="max_iter", help="iteration budget per run")
    sub.add_argument("--gamma", type=str, help="step-size policy: 'auto' or an explicit value")
    sub.add_argument(
        "--workers",
        type=int,
        help="trial worker threads (default 1); on 2 cores, 2 ran 32-38%% slower than 1",
    )
    sub.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the publication-scale preset (n=4096, 100 trials)",
    )
    sub.add_argument("--out", type=Path, help="output directory for CSV files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnpmmse",
        description="Sparse-recovery experiments with an exact MMSE denoiser inside ISTA",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    converge = sub.add_parser(
        "converge", help="per-iteration cost and SNR traces at a single measurement rate"
    )
    sweep = sub.add_parser("sweep", help="final SNR against measurement rate")
    validate = sub.add_parser("validate", help="run the analytic invariant suite")
    for p in (converge, sweep, validate):
        _add_common_flags(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must contain a JSON object")
        values.update(loaded)
    if args.paper_scale:
        values["n"] = 4096
        values["trials"] = 100
    overrides = {
        "seed": args.seed,
        "n": args.n,
        "alpha": args.alpha,
        "trials": args.trials,
        "max_iter": args.max_iter,
        "workers": args.workers,
    }
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    if args.rates is not None:
        try:
            values["measurement_rates"] = tuple(float(r) for r in args.rates.split(",") if r)
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse --rates: {exc}") from exc
    if args.solvers is not None:
        values["solvers"] = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    if args.gamma is not None:
        if args.gamma == "auto":
            values["gamma_policy"] = "auto"
        else:
            try:
                values["gamma_policy"] = float(args.gamma)
            except ValueError as exc:
                raise ConfigurationError("--gamma must be 'auto' or a number") from exc
    if args.out is not None:
        values["output_dir"] = str(args.out)
    return ExperimentConfig.from_dict(values)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "validate":
            # an unusable --out fails before the suite runs, not after
            out = make_output_dir(config.output_dir)
            report = run_validation_suite(config)
            path = write_validation_report(report, out)
            for check in report.checks:
                print(f"{check.status:4s} {check.name}: {check.detail}")
            print(f"report: {path}")
            if not report.passed:
                return EXIT_VALIDATION_FAILED
        else:
            run = run_convergence_experiment if args.command == "converge" else run_rate_sweep
            for name, path in run(config).items():
                print(f"{name}: {path}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:
        # a shape that passes validation can still exceed this machine's memory
        detail = str(exc) or "allocation failed"
        print(f"configuration error: the problem does not fit in memory: {detail}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
