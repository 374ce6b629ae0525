"""Command-line driver.

Subcommands:

* ``sweep``      run a parameter grid from a config with a sweep block,
                 emit the stats table as CSV;
* ``run``        run a single cascade, print a summary, optionally export
                 state snapshots at chosen steps;
* ``transition`` extract onset / upper-boundary crossings of the cascade
                 probability from an R sweep (optionally per threshold)
                 and fit the boundary scaling exponent, both read by
                 ``montecarlo.window_boundaries``, the pipeline the
                 acceptance criteria share.

Flags override config-file values. Exit codes: 0 success, 2 parse error,
3 infeasible experiment, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from .config import describe_config, describe_sweep, parse_config
from .errors import ConfigError, ExperimentInfeasibleError, LinkSamplingError, SeedingError
from .montecarlo import SweepSpec, run_replicate, sweep, window_boundaries
from .output import (
    RunManifest,
    emit_sweep_csv,
    emit_transition_csv,
    export_snapshot,
    snapshot_path,
    summarize_run,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netwake", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, threads: bool):
        p.add_argument("--config", required=True, help="path to the config document")
        p.add_argument("--seed", type=int, default=None, help="master seed, overrides the config")
        p.add_argument("--out", default=None, help="output file path")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes, one pool per sweep; "
                                "0 means all usable cores (default 1)")

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and emit CSV")
    common(p_sweep, threads=True)

    p_run = sub.add_parser("run", help="run a single cascade")
    common(p_run, threads=False)
    p_run.add_argument("--snapshots", default=None,
                       help="comma list of step indices (>= 0) to export snapshots at")

    p_tr = sub.add_parser("transition", help="estimate cascade-window boundaries from an R sweep")
    common(p_tr, threads=True)
    return parser


def _load(path: str, seed_override: int | None):
    with open(path) as fh:
        parsed = parse_config(fh.read())
    if seed_override is not None:
        try:
            if isinstance(parsed, SweepSpec):
                parsed = replace(parsed, base=replace(parsed.base, master_seed=seed_override))
            else:
                parsed = replace(parsed, master_seed=seed_override)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    return parsed


def _n_jobs(threads: int) -> int:
    if threads == 0:
        # The cores this process may run on, not every core of the host.
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if threads < 0:
        raise ConfigError("--threads must be >= 0")
    return threads


def _sweep_reporting_flags(spec: SweepSpec, threads: int):
    """Run the sweep; on stderr name every flagged cell, every cell where
    some, but not all, replicates were infeasible (with the count per
    reason), and every cell with stalled cascades."""
    rows = sweep(spec, n_jobs=_n_jobs(threads))
    for row in rows:
        cell = f"{spec.axis1.name}={row.axis1_value}"
        if spec.axis2 is not None:
            cell += f" {spec.axis2.name}={row.axis2_value}"
        if row.error:
            print(f"netwake: cell {cell} flagged: {row.error}", file=sys.stderr)
            continue
        s = row.stats
        if s.n_infeasible:
            reasons = ", ".join(f"{name} {count}" for name, count in
                                (("seeding", s.n_infeasible_seeding), ("links", s.n_infeasible_links))
                                if count)
            print(f"netwake: cell {cell}: {s.n_infeasible} of {s.n_runs} "
                  f"replicates infeasible ({reasons})", file=sys.stderr)
        if s.n_stalled:
            print(f"netwake: cell {cell}: {s.n_stalled} of {s.n_runs} replicates stalled",
                  file=sys.stderr)
    return rows


def _start_sweep(args, command: str, check=lambda spec: None):
    """Load the sweep config, vet it with ``check``, start the clock and
    run the sweep; return the spec, the rows and the start time."""
    spec = _load(args.config, args.seed)
    if not isinstance(spec, SweepSpec):
        raise ConfigError(f"the {command} subcommand needs a config with a sweep block")
    check(spec)
    start = time.monotonic()
    return spec, _sweep_reporting_flags(spec, args.threads), start


def _cmd_sweep(args) -> int:
    spec, rows, start = _start_sweep(args, "sweep")
    manifest = RunManifest(
        config_echo=describe_sweep(spec),
        master_seed=spec.base.master_seed,
        duration_s=time.monotonic() - start,
        row_count=len(rows),
    )
    destination = args.out or "sweep.csv"
    emit_sweep_csv(rows, manifest, destination)
    print(f"wrote {len(rows)} rows to {destination}")
    return EXIT_OK


def _snapshot_steps(text: str) -> list[int]:
    """The steps of a --snapshots list: integers >= 0, comma-separated."""
    try:
        steps = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--snapshots must be a comma list of integers, got {text!r}")
    negative = [step for step in steps if step < 0]
    if negative:
        raise ConfigError(f"--snapshots steps must be >= 0, got {negative[0]}")
    return steps


def _cmd_run(args) -> int:
    cfg = _load(args.config, args.seed)
    if isinstance(cfg, SweepSpec):
        raise ConfigError("the run subcommand needs a config without a sweep block")
    steps = _snapshot_steps(args.snapshots) if args.snapshots else []
    start = time.monotonic()
    rep = run_replicate(cfg, 0)
    print(summarize_run(rep.outcome, rep.report))

    if steps:
        base = args.out or "snapshot.csv"
        for step in steps:
            manifest = RunManifest(
                config_echo=describe_config(cfg),
                master_seed=cfg.master_seed,
                duration_s=time.monotonic() - start,
                row_count=rep.net.n_nodes,
            )
            path = snapshot_path(base, step)
            export_snapshot(rep.net, rep.outcome.active_at(step), step, path, manifest)
            print(f"wrote snapshot at step {step} to {path}")
    return EXIT_OK


def _check_transition_axes(spec: SweepSpec) -> None:
    if spec.axis1.name != "R":
        raise ConfigError("transition estimation sweeps R on axis1")
    if spec.axis2 is not None and spec.axis2.name != "phi":
        raise ConfigError("transition estimation accepts only phi as axis2")


def _cmd_transition(args) -> int:
    spec, rows, start = _start_sweep(args, "transition", _check_transition_axes)
    # Rows run row-major over (R, phi): every len(phis)-th row is one phi's curve.
    phis = spec.axis2.values if spec.axis2 is not None else (spec.base.phi,)
    curves = [(phi, spec.axis1.values, rows[j::len(phis)]) for j, phi in enumerate(phis)]
    table, exponent, reason = window_boundaries(curves)
    if reason:
        print(f"netwake: boundary exponent omitted: {reason}", file=sys.stderr)
    manifest = RunManifest(
        config_echo=describe_sweep(spec),
        master_seed=spec.base.master_seed,
        duration_s=time.monotonic() - start,
        row_count=len(table),
        extra={} if exponent is None else {"boundary-exponent": repr(exponent)},
    )
    destination = args.out or "transition.csv"
    emit_transition_csv(table, manifest, destination)
    print(f"wrote {len(table)} boundary rows to {destination}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_transition(args)
    except ConfigError as exc:
        print(f"netwake: config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ExperimentInfeasibleError, SeedingError, LinkSamplingError) as exc:
        print(f"netwake: infeasible experiment: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"netwake: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
