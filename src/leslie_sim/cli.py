"""Command-line surface.

Subcommands: validate | simulate | compare | energy-check | ibp-check |
converge.  Exit codes: 0 pass, 1 check failure, 2 usage or config error.  A
run that turns non-finite (SimulationError), refuses its initial state
(InitialStateError) or fails its projection (ProjectionError) is a check
failure, reported as one ``FAIL:`` line on stderr.  A config file that
cannot be read, and an output path that is empty or cannot be written, are
usage or config errors, reported before any step.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import replace

import numpy as np

from . import dynamics, experiments
from .config import ConfigError, load_config, number
from .grid import whole
from .initial import make_initial_state
from .material import validate
from .snapshot import check_snapshot_dir, check_trace_path, write_snapshot, write_trace_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _whole(name: str, least: int):
    """A flag read as the config reads a count or seed: :func:`config.number`,
    then :func:`grid.whole`; a bad value is a usage error naming the flag."""
    def convert(value: str) -> int:
        try:
            return whole(number(value), name, least)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


def _load(args, allow_invalid=False):
    try:
        return load_config(args.config, allow_invalid=allow_invalid)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except (OSError, UnicodeDecodeError) as exc:
        # missing, a directory, unreadable, or not UTF-8: no check ran
        reason = getattr(exc, "strerror", None) or exc
        print(f"config file cannot be read: {args.config}: {reason}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _output(args, flag: str, check, configured):
    """The path that ``--flag`` gives, checked by ``check`` as the config's
    ``[output]`` value is (a bad one is a usage error), else ``configured``."""
    value = getattr(args, flag)
    if value is None:
        return configured
    try:
        return check(value)
    except ValueError as exc:
        print(f"usage error: --{flag}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _cmd_validate(args) -> int:
    cfg = _load(args, allow_invalid=True)
    violations = validate(cfg.params)
    if violations:
        print("INVALID: " + "; ".join(violations))
        return EXIT_USAGE
    print("OK: parameters satisfy the dissipativity conditions")
    return EXIT_OK


def _energy_run(cfg, trace_path, **run):
    """The config's run under :func:`experiments.energy_monitor`, its report
    rows written to ``trace_path`` if one is given; ``run`` holds the
    monitor's ``allow_invalid`` and ``each_step``."""
    report = experiments.energy_monitor(
        cfg.grid, cfg.params, cfg.elastic, cfg.stepper, make_initial_state(cfg.grid, cfg.initial),
        tol_energy=cfg.experiment.tol_energy, tol_step=cfg.experiment.tol_step,
        forcing=cfg.forcing(), **run,
    )
    if trace_path:
        write_trace_csv(trace_path, energy=report.trace, residual=report.residual)
    return report


def _cmd_simulate(args) -> int:
    # without --allow-invalid, invalid parameters are a config error
    cfg = _load(args, allow_invalid=args.allow_invalid)
    trace_path = _output(args, "trace", check_trace_path, cfg.trace_path)
    snap_dir = _output(args, "snapshots", check_snapshot_dir, cfg.snapshot_dir)
    if snap_dir:
        os.makedirs(snap_dir, exist_ok=True)
    written = itertools.count()

    def each_step(e, terms, sampled):
        # each snapshot is written as it is sampled; no state is kept
        if sampled and snap_dir:
            path = os.path.join(snap_dir, f"state_{next(written):05d}.snap")
            write_snapshot(e.member(0), path)

    try:
        # the energy-law run: rows and snapshots at the samples
        trace = _energy_run(cfg, trace_path, allow_invalid=args.allow_invalid, each_step=each_step).trace
    except dynamics.SimulationError as exc:
        if snap_dir and exc.last_state is not None:
            path = os.path.join(snap_dir, "last_valid.snap")
            write_snapshot(exc.last_state, path)
            raise dynamics.SimulationError(f"{exc}; last valid state saved to {path}") from exc
        raise

    print(
        f"PASS: simulated to t = {trace.t[-1]:.6g}, "
        f"total energy {trace.total[-1]:.6g} "
        f"(initial {trace.total[0]:.6g})"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _load(args)
    flags = {"delta": args.delta, "seed": args.seed}
    try:
        # a flag overrides its config value and is checked as that value is
        exp = replace(cfg.experiment, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    trace_path = _output(args, "trace", check_trace_path, cfg.trace_path)
    state = make_initial_state(cfg.grid, cfg.initial)
    report = experiments.weak_strong_experiment(
        cfg.grid, cfg.params, cfg.elastic, cfg.stepper, state,
        seed=exp.seed, delta=exp.delta, c=exp.gronwall_c,
        forcing=cfg.forcing(),
    )
    if trace_path:
        write_trace_csv(trace_path, relative=report.trace)
    ok = report.bound_satisfied and np.isfinite(report.minimal_c)
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{verdict}: delta = {exp.delta:g}, E(0) = {report.E0:.6g}, "
        f"max E = {report.max_E:.6g}, minimal_c = {report.minimal_c:.6g}, "
        f"bound at c = {exp.gronwall_c:g}: "
        f"{'holds' if report.bound_satisfied else 'violated'}"
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_energy_check(args) -> int:
    cfg = _load(args)
    report = _energy_run(cfg, _output(args, "trace", check_trace_path, cfg.trace_path))
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: max residual {report.max_residual_rel:.3e} (rel), "
        f"max per-step increase {report.max_step_increase_rel:.3e} (rel), "
        f"max |cross term| {report.cross_term_max:.3e}"
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_ibp_check(args) -> int:
    report = experiments.ibp_suite(ns=(args.n,), seeds=tuple(range(args.seed, args.seed + 5)))
    for row in report.rows:
        print(
            f"n={row['n']} seed={row['seed']} {row['check']}: "
            f"residual {row['residual']:.3e}"
        )
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict}: max relative residual {report.max_residual:.3e}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_converge(args) -> int:
    report = experiments.convergence_study(args.mode)
    # each error compares the solutions at two consecutive levels
    for coarse, fine, err in zip(report.levels, report.levels[1:], report.errors):
        print(f"level {coarse} vs {fine}: error {err:.6e}")
    print(f"observed orders: {['%.3f' % o for o in report.orders]}")
    target = 1.9 if args.mode == "space" else 0.9
    ok = report.min_order >= target
    print(f"{'PASS' if ok else 'FAIL'}: min order {report.min_order:.3f} (target {target})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leslie-sim",
        description="Penalized Ericksen-Leslie simulator and relative-energy checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check material parameters")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="run one trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--allow-invalid", action="store_true")
    p.add_argument("--snapshots", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="weak-strong stability comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--seed", type=number, default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("energy-check", help="energy-law monitor")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_energy_check)

    p = sub.add_parser("ibp-check", help="discrete integration-by-parts residuals")
    p.add_argument("--n", type=_whole("grid n", 4), default=32)
    p.add_argument("--seed", type=_whole("seed", 0), default=1)
    p.set_defaults(func=_cmd_ibp_check)

    p = sub.add_parser("converge", help="self-convergence study of the coupled stepper")
    p.add_argument("--mode", choices=("space", "time"), required=True)
    p.set_defaults(func=_cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # a run that blows up is reported by its own finiteness check, as one
        # FAIL line, not by numpy's floating-point warnings on the way there
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (dynamics.SimulationError, dynamics.ProjectionError, dynamics.InitialStateError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
