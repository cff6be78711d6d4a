"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` -- run one GW pod with a synthetic workload and print a
  throughput/latency report (the quickstart, parameterized).
* ``experiment`` -- run one named experiment (or ``all``) and print its
  table; names match :func:`repro.experiments.runner.all_experiments`.
* ``faults`` -- run a named fault-injection scenario (or ``all``) from
  :mod:`repro.faults.scenarios` and print its recovery report.  With
  ``REPRO_SANITIZE=1`` in the environment the run is sanitized (summary on
  stderr; stdout stays byte-identical to an unsanitized run).
* ``sweep`` -- shard a named parameter sweep (:mod:`repro.fleet`)
  across worker processes and write the merged ``SWEEP_repro.json``;
  the merged report is byte-identical for any ``--workers`` count.
  Every run is durably recorded under ``RUNS/<run-id>/`` (one atomic
  JSON file per completed shard); ``--resume <run-id>`` re-runs only
  the missing/stale shards and merges to the same bytes as an
  uninterrupted run.
* ``runs`` -- query the durable run store: ``list`` runs and their
  completion, ``show`` one run shard-by-shard, ``compare`` renders a
  cross-run trajectory table over run ids and SWEEP/BENCH artifacts.
* ``migrate`` -- run a named live-migration scenario (or ``all``) from
  :mod:`repro.controlplane.scenarios` and print its drain/blackout
  report.  Honours ``REPRO_SANITIZE=1`` the same way ``faults`` does.
* ``lint`` -- run the static analyzers (:mod:`repro.analysis`) over
  source trees: determinism rules plus the snapshot-completeness (SNAP)
  rules.  ``--list-rules`` prints the authoritative inventory from the
  registry; ``--select`` narrows the run to matching codes.  Exits 1 on
  findings.
* ``statecheck`` -- build a live scenario and execute
  checkpoint -> restore -> checkpoint byte-equality probes against every
  discovered checkpoint-capable component; exits 1 on a mismatch.
* ``sanitize`` -- run fault scenario(s) with the runtime sanitizer's
  invariant checks enabled; exits 1 on a violation.
* ``inventory`` -- list the unified scenario registry: scenarios,
  sweeps, fault scenarios, experiments and gateway services.
"""

import argparse
import sys

# Kept in sync with repro.faults.scenarios.SCENARIOS (asserted by tests)
# so building the parser does not import the simulation stack.
FAULT_SCENARIOS = (
    "bfd-flap",
    "chaos",
    "core-stall-plb-vs-rss",
    "limiter-reset",
    "pod-crash-reschedule",
)

# Kept in sync with repro.fleet.sweeps.SWEEP_FACTORIES (asserted by tests).
SWEEPS = (
    "tenant-scaling",
    "seed-replication",
    "migration-replication",
    "az-scaling",
)

# Kept in sync with repro.controlplane.scenarios.MIGRATION_SCENARIOS
# (asserted by tests).
MIGRATIONS = (
    "rebalance-hot-pod",
    "rolling-upgrade",
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Albatross (SIGCOMM 2025) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Shared flags live in parent parsers so every subcommand declares
    # them once with one default and one help string (they drifted when
    # each subcommand re-declared its own copies).
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument(
        "--seed", type=int, default=42, help="deterministic run seed"
    )
    quick_parent = argparse.ArgumentParser(add_help=False)
    quick_parent.add_argument(
        "--quick", action="store_true",
        help="quick mode: scaled-down durations/axes",
    )
    timeseries_parent = argparse.ArgumentParser(add_help=False)
    timeseries_parent.add_argument(
        "--timeseries-every-ms", type=float, default=None, metavar="MS",
        help="arm windowed telemetry with a window of MS sim-milliseconds",
    )

    simulate = commands.add_parser(
        "simulate", help="run one GW pod",
        parents=[seed_parent, timeseries_parent],
    )
    simulate.add_argument("--cores", type=int, default=8, help="data cores")
    simulate.add_argument(
        "--mode", choices=("plb", "rss"), default="plb", help="load-balancing mode"
    )
    simulate.add_argument(
        "--service",
        default="VPC-Internet",
        help="gateway service (see 'inventory')",
    )
    simulate.add_argument(
        "--load", type=float, default=0.6, help="offered load as a capacity fraction"
    )
    simulate.add_argument(
        "--duration-ms", type=int, default=50, help="simulated duration"
    )
    simulate.add_argument("--flows", type=int, default=1000)
    simulate.add_argument("--tenants", type=int, default=50)

    experiment = commands.add_parser(
        "experiment", help="run a paper experiment", parents=[quick_parent]
    )
    experiment.add_argument("name", help="experiment name or 'all'")

    faults = commands.add_parser(
        "faults", help="run a fault-injection scenario",
        parents=[seed_parent, quick_parent],
    )
    faults.add_argument(
        "scenario",
        choices=FAULT_SCENARIOS + ("all",),
        help="named scenario (or 'all')",
    )

    sweep = commands.add_parser(
        "sweep", help="run a sharded parameter sweep across workers",
        parents=[seed_parent, quick_parent, timeseries_parent],
    )
    sweep.add_argument("name", choices=SWEEPS, help="named sweep")
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (0 = auto); the report is byte-identical "
             "for any count",
    )
    sweep.add_argument(
        "--output", default="SWEEP_repro.json",
        help="merged report path (default: SWEEP_repro.json)",
    )
    sweep.add_argument(
        "--runs-dir", default="RUNS",
        help="durable run store root (default: RUNS)",
    )
    sweep.add_argument(
        "--run-id", default=None,
        help="run directory name (default: <sweep>-<timestamp>)",
    )
    sweep.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="resume an interrupted run: shards whose cached result "
             "matches the current spec hash are served from disk",
    )

    runs = commands.add_parser(
        "runs", help="query the durable run store and past artifacts"
    )
    runs.add_argument(
        "--runs-dir", default="RUNS",
        help="durable run store root (default: RUNS)",
    )
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)
    runs_commands.add_parser("list", help="list runs and their completion")
    runs_show = runs_commands.add_parser(
        "show", help="per-shard status and metrics for one run"
    )
    runs_show.add_argument("run_id", help="run id under the runs dir")
    runs_show.add_argument(
        "--timeseries", action="store_true",
        help="render per-window telemetry rows instead of shard summaries",
    )
    runs_compare = runs_commands.add_parser(
        "compare", help="cross-run trajectory table over artifacts"
    )
    runs_compare.add_argument(
        "artifacts", nargs="+", metavar="RUN_OR_PATH",
        help="run ids and/or SWEEP_*.json / BENCH_*.json paths",
    )
    runs_compare.add_argument(
        "--timeseries", action="store_true",
        help="diff windowed-telemetry columns across the operands",
    )

    migrate = commands.add_parser(
        "migrate", help="run a live pod-migration scenario",
        parents=[seed_parent, quick_parent],
    )
    migrate.add_argument(
        "scenario",
        choices=MIGRATIONS + ("all",),
        help="named migration scenario (or 'all')",
    )

    lint = commands.add_parser(
        "lint",
        help="run the static analyzers (determinism + snapshot rules)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule table"
    )
    lint.add_argument(
        "--select", action="append", default=None, metavar="CODE",
        help="run only rules matching CODE (exact code or prefix, e.g. "
             "SNAP or DET001; repeatable)",
    )

    statecheck = commands.add_parser(
        "statecheck",
        help="run checkpoint->restore->checkpoint byte-equality probes",
        parents=[seed_parent],
    )
    statecheck.add_argument(
        "-v", "--verbose", action="store_true",
        help="print one line per probed class",
    )

    sanitize = commands.add_parser(
        "sanitize", help="run fault scenario(s) with runtime invariant checks",
        parents=[seed_parent, quick_parent],
    )
    sanitize.add_argument(
        "scenario",
        choices=FAULT_SCENARIOS + ("all",),
        help="named scenario (or 'all')",
    )

    commands.add_parser("inventory", help="list experiments and services")
    return parser


def cmd_simulate(args):
    from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build
    from repro.sim.units import MS, US

    try:
        spec = ScenarioSpec(
            name="cli-simulate",
            pods=(
                PodSpec(name="cli-pod", data_cores=args.cores, mode=args.mode,
                        service=args.service),
            ),
            workload=WorkloadSpec(
                kind="cbr", flows=args.flows, tenants=args.tenants,
                load=args.load, stream="traffic",
            ),
            duration_ns=args.duration_ms * MS,
            seed=args.seed,
            timeseries_every_ns=(
                None if args.timeseries_every_ms is None
                else int(args.timeseries_every_ms * MS)
            ),
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    handle = build(spec).run()
    pod = handle.pod
    rate = int(handle.capacity_pps() * args.load)

    histogram = pod.latency_histogram
    stats = pod.reorder_stats
    print(f"pod: {args.cores} cores, {args.mode} mode, {args.service}")
    print(f"offered: {rate / 1e6:.3f} Mpps ({args.load:.0%} of capacity)")
    print(f"delivered: {pod.throughput_mpps():.3f} Mpps "
          f"({pod.transmitted()} packets in {args.duration_ms} ms)")
    if histogram.count:
        print(f"latency: mean {histogram.mean_ns / US:.1f} us / "
              f"p99 {histogram.percentile(0.99) / US:.1f} us / "
              f"max {histogram.max_ns / US:.1f} us")
    if args.mode == "plb":
        print(f"reorder: {stats.in_order} in order, {stats.best_effort} "
              f"best-effort (disorder {stats.disorder_rate():.2e}), "
              f"{stats.hol_events} HOL events")
    drops = {
        name: pod.counters.get(name)
        for name in ("rx_queue_drops", "reorder_fifo_drops", "rate_limited_drops")
        if pod.counters.get(name)
    }
    print(f"drops: {drops or 'none'}")
    if handle.telemetry is not None:
        from repro.experiments.common import format_table
        from repro.telemetry import flatten_windows

        print("timeseries:")
        print(format_table(flatten_windows(handle.telemetry.series()["windows"])))
    return 0


def cmd_experiment(args):
    from repro.experiments.runner import all_experiments

    names = []
    for name, fn in all_experiments(quick=args.quick):
        names.append(name)
        if args.name in (name, "all"):
            result = fn()
            if isinstance(result, tuple):
                for part in result:
                    part.print_table()
            else:
                result.print_table()
    if args.name != "all" and args.name not in names:
        print(f"unknown experiment {args.name!r}; choose from: {', '.join(names)}")
        return 1
    return 0


def _run_named_scenarios(args, names, runner):
    """Run ``args.scenario`` (or every name) and print each report."""
    selected = names if args.scenario == "all" else (args.scenario,)
    for index, name in enumerate(selected):
        if index:
            print()
        print(runner(name, seed=args.seed, quick=args.quick).render())


def _print_sanitizer_summary():
    from repro.analysis.sanitizer import get_sanitizer

    sanitizer = get_sanitizer()
    if sanitizer is not None:
        # Summary on stderr: stdout must stay byte-identical to an
        # unsanitized run (test_analysis_sanitizer compares the two).
        print(sanitizer.summary(), file=sys.stderr)


def cmd_faults(args):
    from repro.faults.scenarios import run_scenario

    _run_named_scenarios(args, FAULT_SCENARIOS, run_scenario)
    _print_sanitizer_summary()
    return 0


def cmd_migrate(args):
    from repro.controlplane import run_migration_scenario

    _run_named_scenarios(args, MIGRATIONS, run_migration_scenario)
    _print_sanitizer_summary()
    return 0


def cmd_lint(args):
    from repro.analysis import all_project_rules, all_rules, lint_paths, select_rules

    rules, project_rules = None, None
    if args.select:
        try:
            rules, project_rules = select_rules(args.select)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    if args.list_rules:
        selected = (
            list(rules or ()) + list(project_rules or ())
            if args.select
            else list(all_rules()) + list(all_project_rules())
        )
        for rule in sorted(selected, key=lambda rule: rule.code):
            print(f"{rule.code}: {rule.summary}")
        return 0
    report = lint_paths(args.paths, rules=rules, project_rules=project_rules)
    print(report.render())
    return 0 if report.clean else 1


def cmd_statecheck(args):
    from repro.analysis.statecheck import run_statecheck

    result = run_statecheck(seed=args.seed)
    for probe in result.probes:
        if args.verbose or not probe.ok:
            print(probe.render())
    print(result.summary())
    return 0 if result.ok else 1


def cmd_sanitize(args):
    from repro.analysis.sanitizer import SanitizerViolation, install, uninstall
    from repro.faults.scenarios import run_scenario

    sanitizer = install()
    try:
        _run_named_scenarios(args, FAULT_SCENARIOS, run_scenario)
    except SanitizerViolation as violation:
        print(f"sanitizer violation in scenario run:\n{violation}")
        return 1
    finally:
        uninstall()
    print()
    print(sanitizer.summary())
    return 0


def cmd_inventory(_args):
    from repro.controlplane import migration_descriptions
    from repro.cpu.service import standard_services
    from repro.experiments.runner import all_experiments
    from repro.faults.scenarios import scenario_descriptions as fault_descriptions
    from repro.fleet import sweep_descriptions
    from repro.scenarios import scenario_descriptions

    print("scenarios:")
    for name, blurb in scenario_descriptions().items():
        print(f"  {name}: {blurb}")
    print("sweeps:")
    for name, blurb in sweep_descriptions().items():
        print(f"  {name}: {blurb}")
    print("fault scenarios:")
    for name, blurb in fault_descriptions().items():
        print(f"  {name}: {blurb}")
    print("migration scenarios:")
    for name, blurb in migration_descriptions().items():
        print(f"  {name}: {blurb}")
    print("experiments:")
    for name, _fn in all_experiments():
        print(f"  {name}")
    print("gateway services:")
    for name, service in standard_services().items():
        print(f"  {name}: base {service.base_ns} ns, "
              f"{service.lookup_count} lookups")
    return 0


def cmd_sweep(args):
    from repro.fleet import (
        ShardFailure, build_sweep, default_workers, run_sweep,
        sweep_to_json, with_timeseries,
    )
    from repro.runs import RunStore, RunStoreError, atomic_write_text
    from repro.sim.units import MS

    shards = build_sweep(args.name, quick=args.quick, seed=args.seed)
    if args.timeseries_every_ms is not None:
        shards = with_timeseries(shards, int(args.timeseries_every_ms * MS))
    workers = args.workers if args.workers > 0 else default_workers()
    store = RunStore(args.runs_dir)
    try:
        if args.resume is not None:
            run = store.resume(
                args.resume, args.name, args.seed, shards, quick=args.quick
            )
        else:
            run = store.create(
                args.name, args.seed, shards,
                run_id=args.run_id, quick=args.quick,
            )
    except RunStoreError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        report = run_sweep(
            args.name, shards, workers=workers, seed=args.seed, run=run
        )
    except ShardFailure as error:
        # Completed shards are already durable; name the run to resume.
        print(str(error), file=sys.stderr)
        print(
            f"completed shards are saved; resume with: "
            f"python -m repro sweep {args.name}"
            f"{' --quick' if args.quick else ''} --resume {run.run_id}",
            file=sys.stderr,
        )
        return 1
    text = sweep_to_json(report)
    atomic_write_text(args.output, text)
    run.write_merged(text)
    cached = report.cached_shards
    print(
        f"sweep {args.name}: run {run.run_id}: "
        f"{cached} cached + {len(shards) - cached} simulated shard(s) "
        f"-> {args.output}"
    )
    print(report.render())
    return 0


def cmd_runs(args):
    from repro.runs.query import cmd_runs as run_query

    return run_query(args, err=lambda message: print(message, file=sys.stderr))


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "experiment": cmd_experiment,
        "faults": cmd_faults,
        "sweep": cmd_sweep,
        "runs": cmd_runs,
        "migrate": cmd_migrate,
        "lint": cmd_lint,
        "statecheck": cmd_statecheck,
        "sanitize": cmd_sanitize,
        "inventory": cmd_inventory,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
