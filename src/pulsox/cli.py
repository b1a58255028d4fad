"""Command-line interface.

Subcommands map onto the experiment runners plus three calculators
(``squeeze``, ``regime-check``, ``fiber-loss``).  Options layer on top of
an optional config file; results are written as CSV or JSON tables (grids as
CSV) into ``--output`` or the ``PULSOX_OUTPUT_DIR`` directory.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .config import ConfigError, EXPERIMENTS, ExperimentConfig, load_config
from .experiments import RunResult, estimate_fiber_epsilon, run_experiment
from .squeezer import (approx_photon_budget, photon_budget, regime_check,
                       schedule_for_mu)
from .states import pure_fidelity
from .wigner import grid_to_csv


# Each experiment option is a shorthand for one config key: (flag, key, help).
_EXPERIMENT_FLAGS = (
    ("--mu", "sweep.mu", "comma-separated mu values or a log10 range A:B:N"),
    ("--phi", "physical.phi", "mechanical rotation angle"),
    ("--q", "sweep.q", "comma-separated quality factors or a log10 range A:B:N"),
    ("--epsilon", "sweep.epsilon", "comma-separated loss fractions or a log10 range A:B:N"),
    ("--resolution", "grid.resolution", "Wigner grid points per axis"),
    ("--output", "output.path", "output path stem"),
    ("--format", "output.format", "table format: csv or json"),
)


# Calculator options, all finite floats: name -> (help, ((flag, default), ...)),
# where a default of None makes the option required.
_CALCULATORS = {
    "squeeze": ("print the analytic pulse schedule",
                (("--mu", None), ("--phi", None), ("--ancilla-vsq", 0.5))),
    "regime-check": ("pulsed-QND validity diagnostics",
                     (("--g0", None), ("--omega-m", None), ("--kappa", None),
                      ("--pulse-bandwidth", None), ("--margin", 10.0))),
    "fiber-loss": ("delay-line loss estimate",
                   (("--length-km", None), ("--db-per-km", 0.4))),
}


def _finite_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{raw!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pulsox",
                                     description="pulsed optomechanical squeezing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (text, options) in _CALCULATORS.items():
        calculator = sub.add_parser(name, help=text)
        for flag, default in options:
            calculator.add_argument(flag, type=_finite_float, required=default is None,
                                    default=default)
    for name in EXPERIMENTS:
        experiment = sub.add_parser(name, help=f"run the {name} experiment")
        experiment.add_argument("--config", help="config file (key = value lines)")
        experiment.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                                help="override one config key (repeatable)")
        for flag, key, text in _EXPERIMENT_FLAGS:
            experiment.add_argument(flag, dest=key, metavar="VALUE", help=f"{text} ({key})")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    config.experiment = args.command
    overrides = []
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(key, "expected KEY=VALUE")
        if key.strip() == "experiment":
            raise ConfigError("experiment", "is the subcommand, not a --set key")
        overrides.append((key.strip(), value.strip()))
    overrides += [(key, getattr(args, key)) for _, key, _ in _EXPERIMENT_FLAGS
                  if getattr(args, key) is not None]
    for key, value in overrides:
        config.set_key(key, value)
    return config


def _output_stem(config: ExperimentConfig) -> Path:
    if config.output.path:
        return Path(config.output.path)
    base = Path(os.environ.get("PULSOX_OUTPUT_DIR", "."))
    return base / config.experiment.replace("-", "_")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_share(share, pipe) -> None:
    """Forked writer: write a share of the grid jobs, then send None or the error."""
    try:
        for grid, path in share:
            grid_to_csv(grid, path)
    except Exception as exc:
        pipe.send(exc)
    else:
        pipe.send(None)


def _reap(child, reader, paths) -> Exception | None:
    try:
        error = reader.recv()
    except EOFError:  # the writer died without a word
        error = None
    finally:
        child.join()
        reader.close()
    if error is None and child.exitcode != 0:
        error = OSError(f"writer of {', '.join(map(str, paths))} "
                        f"exited with code {child.exitcode}")
    return error


def _write_grids(jobs: list) -> None:
    """Write the (grid, path) jobs in one share per usable CPU.

    The parent writes share 0; a forked child writes each other share.  The
    children inherit the grids through fork, so nothing is pickled, and every
    file holds exactly the bytes a serial ``grid_to_csv`` writes.  All children
    are joined before this returns or raises; the first error, a parent's or a
    child's, is raised here.
    """
    n = max(1, min(len(jobs), _usable_cpus()))
    if n > 1:
        # imported here: it costs about 9 ms, and most runs write no grid.
        # On Python >= 3.12, os.fork in a process that holds BLAS threads
        # emits a DeprecationWarning (an error under the tests' warning
        # filter); the children run only repr and file writes, never BLAS.
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            n = 1
    shares = [jobs[i::n] for i in range(n)]
    children = []
    try:
        if n > 1:
            context = multiprocessing.get_context("fork")
            for share in shares[1:]:
                reader, writer = context.Pipe(duplex=False)
                child = context.Process(target=_write_share, args=(share, writer))
                child.start()
                writer.close()
                children.append((child, reader, [path for _, path in share]))
        for grid, path in shares[0]:
            grid_to_csv(grid, path)
    finally:
        errors = [_reap(*child) for child in children]
    for error in errors:
        if error is not None:
            raise error


def _write_outputs(config: ExperimentConfig, result: RunResult) -> list[Path]:
    stem = _output_stem(config)
    stem.parent.mkdir(parents=True, exist_ok=True)
    fmt = config.output.format
    written = []
    multi = len(result.tables) > 1
    for name, table in result.tables.items():
        path = stem.with_name(f"{stem.name}_{name}.{fmt}") if multi \
            else stem.with_suffix(f".{fmt}")
        path.write_text(table.render(fmt), encoding="utf-8")
        written.append(path)
    jobs = [(grid, stem.with_name(f"{stem.name}_grid_{name}.csv"))
            for name, grid in result.grids.items()]
    _write_grids(jobs)
    return written + [path for _, path in jobs]


def _run_calculator(args: argparse.Namespace) -> int:
    if args.command == "squeeze":
        schedule = schedule_for_mu(args.mu, args.phi, args.ancilla_vsq)
        print(f"schedule for mu={args.mu:g}, phi={args.phi:g}:")
        print(f"  chi1 = {schedule.chi1:.6g}")
        print(f"  lambda = {schedule.lam:.6g}")
        print(f"  second xx pulse = {schedule.chi2_second_pulse:.6g}")
        print(f"  chi3 = {schedule.chi3:.6g}")
        print(f"  theta = {schedule.theta:.6g} rad")
        print(f"  ancilla: vsq = {schedule.ancilla_vsq:g} at {schedule.ancilla_angle:.6g} rad")
        print(f"  photon budget = {photon_budget(schedule):.4g} "
              f"(approx {approx_photon_budget(args.mu, args.phi):.4g})")
        print(f"  lossless vacuum infidelity = "
              f"{1.0 - pure_fidelity(args.mu, args.phi, 1.0, args.ancilla_vsq):.4g}")
        return 0
    if args.command == "regime-check":
        report = regime_check(args.g0, args.omega_m, args.kappa,
                              args.pulse_bandwidth, args.margin)
        for check in report.checks:
            status = "ok" if check.ok else "FAIL"
            print(f"  [{status}] {check.name}: ratio {check.ratio:.3g} "
                  f"(margin {check.margin:g})")
        print("regime check:", "all conditions met" if report.ok
              else "warnings: " + ", ".join(report.failed()))
        return 0
    if args.command == "fiber-loss":
        eps = estimate_fiber_epsilon(args.length_km, args.db_per_km)
        print(f"fiber loss: epsilon = {eps:.4g} "
              f"({args.length_km:g} km at {args.db_per_km:g} dB/km)")
        return 0
    raise AssertionError(f"unhandled command {args.command}")


def _merge_range_values(argv: list[str]) -> list[str]:
    # argparse mistakes '-1.2:1.2:49' for a flag; join it onto its option
    flags = {flag for flag, _, _ in _EXPERIMENT_FLAGS}
    merged = []
    for tok in argv:
        if merged and merged[-1] in flags:
            merged[-1] += f"={tok}"
        else:
            merged.append(tok)
    return merged


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_range_values(list(argv)))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command in _CALCULATORS:
            return _run_calculator(args)
        config = _resolve_config(args)
        result = run_experiment(config)
        written = _write_outputs(config, result)
        print(result.summary)
        for path in written:
            print(f"  wrote {path}")
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, OSError) as exc:
        print(f"numerical/io failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
