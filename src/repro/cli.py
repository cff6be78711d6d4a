"""Command-line interface: ``python -m repro <command>``.

Every subcommand is one row of :data:`COMMANDS`: its help text, the
function that runs it, its arguments and, for a named command, the
registry its ``name`` positional resolves against.  :func:`build_parser`
and :func:`main` are loops over that table; ``--help`` lists it.  A row
``"a b"`` is subcommand ``b`` of row ``"a"``, a group with no function.

``REPRO_SANITIZE=1`` in the environment runs any command under the
runtime sanitizer: stdout stays byte-identical, a violation exits 1 with
its event trace on stderr.
"""

import argparse
import os
import sys
from functools import partial
from typing import Callable, NamedTuple, Optional

from repro.analysis import all_project_rules, all_rules, lint_paths, select_rules
from repro.analysis.sanitizer import SanitizerViolation, get_sanitizer
from repro.analysis.statecheck import run_statecheck
from repro.controlplane import MIGRATION_SCENARIOS, run_migration_scenario
from repro.cpu.service import standard_services
from repro.experiments.claims import claims_for
from repro.experiments.common import format_table
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.faults import scenarios as faults
from repro.fleet import (
    SWEEP_FACTORIES, ShardFailure, build_sweep, default_workers, run_sweep,
    sweep_to_json, with_timeseries,
)
from repro.runs import RunStore, RunStoreError, atomic_write_text, query
from repro.scenarios import (
    SCENARIO_FACTORIES, PodSpec, ScenarioSpec, WorkloadSpec, build, lookup,
)
from repro.sim.units import MS, US
from repro.telemetry import flatten_windows


class Command(NamedTuple):
    """One row of :data:`COMMANDS`."""

    help: str
    run: Optional[Callable]     # None: a group, whose rows follow it
    arguments: tuple = ()       # (flags, add_argument kwargs) pairs
    registry: Optional[dict] = None   # resolves the ``name`` positional
    what: str = ""              # the registry's noun, for help and errors
    every: bool = True          # ``name`` may be ``all``


def _arg(*flags, **kwargs):
    return flags, kwargs


SEED = _arg("--seed", type=int, default=42, help="deterministic run seed")
QUICK = _arg(
    "--quick", action="store_true", help="quick mode: scaled-down durations/axes"
)
TIMESERIES = _arg(
    "--timeseries-every-ms", type=float, default=None, metavar="MS",
    help="arm windowed telemetry with a window of MS sim-milliseconds",
)
RUNS_DIR = _arg(
    "--runs-dir", default="RUNS", help="durable run store root (default: RUNS)"
)


def _simulate(args):
    try:
        handle = build(ScenarioSpec(
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
        ))
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    handle.run()
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
        print("timeseries:")
        print(format_table(flatten_windows(handle.telemetry.series()["windows"])))
    return 0


def _experiment(args):
    failed = 0
    for name in args.names:
        result = run_experiment(name, quick=args.quick)
        result.print_table()
        for claim in claims_for(name):
            holds, verdict = claim.check(result)
            print(verdict)
            failed += not holds
    return 1 if failed else 0


def _print_reports(runner, args):
    """Run each selected scenario and print its report."""
    for index, name in enumerate(args.names):
        if index:
            print()
        print(runner(name, seed=args.seed, quick=args.quick).render())
    sanitizer = get_sanitizer()
    if sanitizer is not None:
        # Summary on stderr: stdout must stay byte-identical to an
        # unsanitized run (test_analysis_sanitizer compares the two).
        print(sanitizer.summary(), file=sys.stderr)
    return 0


def _sweep(args):
    shards = build_sweep(args.name, quick=args.quick, seed=args.seed)
    if args.timeseries_every_ms is not None:
        shards = with_timeseries(shards, int(args.timeseries_every_ms * MS))
    workers = args.workers if args.workers > 0 else default_workers()
    store = RunStore(args.runs_dir)
    if args.resume is not None:
        run = store.resume(args.resume, args.name, args.seed, shards, quick=args.quick)
    else:
        run = store.create(
            args.name, args.seed, shards, run_id=args.run_id, quick=args.quick
        )
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


def _runs_list(args):
    store = RunStore(args.runs_dir)
    rows = query.list_rows(store)
    print(format_table(rows) if rows else f"no runs under {store.root!r}")
    return 0


def _runs_show(args):
    store = RunStore(args.runs_dir)
    if args.timeseries:
        run, rows = query.show_timeseries_rows(store, args.run_id)
        if not rows:
            print(f"run {run.run_id} has no windowed telemetry "
                  "(arm spec.timeseries_every_ns, e.g. sweep --timeseries-every-ms)")
            return 0
        print(f"run {run.run_id}: windowed telemetry")
    else:
        run, rows = query.show_rows(store, args.run_id)
        manifest = run.manifest
        print(f"run {run.run_id}: sweep {manifest.get('sweep')!r}, "
              f"seed {manifest.get('seed')}, "
              f"{len(manifest.get('shards', ()))} shard(s)")
    print(format_table(rows))
    return 0


def _runs_compare(args):
    store = RunStore(args.runs_dir)
    if args.timeseries:
        rows = query.compare_timeseries_rows(args.artifacts, store)
        if not rows:
            print("no windowed telemetry in the given artifacts")
            return 0
    else:
        rows = query.compare_rows(args.artifacts, store)
    print(format_table(rows))
    return 0


def _lint(args):
    if args.select:
        try:
            rules, project_rules = select_rules(args.select)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    else:
        rules, project_rules = all_rules(), all_project_rules()
    if args.list_rules:
        for rule in sorted([*rules, *project_rules], key=lambda rule: rule.code):
            print(f"{rule.code}: {rule.summary}")
        return 0
    try:
        report = lint_paths(args.paths, rules=rules, project_rules=project_rules)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.clean else 1


def _statecheck(args):
    result = run_statecheck(seed=args.seed)
    for probe in result.probes:
        if args.verbose or not probe.ok:
            print(probe.render())
    print(result.summary())
    return 0 if result.ok else 1


def _inventory(_args):
    for title, registry in (
        ("scenarios", SCENARIO_FACTORIES),
        ("sweeps", SWEEP_FACTORIES),
        ("fault scenarios", faults.SCENARIOS),
        ("migration scenarios", MIGRATION_SCENARIOS),
    ):
        print(f"{title}:")
        for name, factory in registry.items():
            print(f"  {name}: {factory.__doc__.strip().splitlines()[0]}")
    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("gateway services:")
    for name, service in standard_services().items():
        print(f"  {name}: base {service.base_ns} ns, "
              f"{service.lookup_count} lookups")
    return 0


#: Every subcommand, in ``--help`` order.
COMMANDS = {
    "simulate": Command("run one GW pod", _simulate, (
        SEED, TIMESERIES,
        _arg("--cores", type=int, default=8, help="data cores"),
        _arg("--mode", choices=("plb", "rss"), default="plb",
             help="load-balancing mode"),
        _arg("--service", default="VPC-Internet",
             help="gateway service (see 'inventory')"),
        _arg("--load", type=float, default=0.6,
             help="offered load as a capacity fraction"),
        _arg("--duration-ms", type=int, default=50, help="simulated duration"),
        _arg("--flows", type=int, default=1000),
        _arg("--tenants", type=int, default=50),
    )),
    "experiment": Command(
        "run a paper experiment and check its claims (exit 1 if one fails)",
        _experiment, (QUICK,), EXPERIMENTS, "experiment",
    ),
    "faults": Command(
        "run a fault-injection scenario",
        partial(_print_reports, faults.run_scenario),
        (SEED, QUICK), faults.SCENARIOS, "fault scenario",
    ),
    "sweep": Command(
        "run a sharded parameter sweep across workers", _sweep, (
            SEED, QUICK, TIMESERIES,
            _arg("--workers", type=int, default=1,
                 help="worker processes (0 = auto); the report is "
                      "byte-identical for any count"),
            _arg("--output", default="SWEEP_repro.json",
                 help="merged report path (default: SWEEP_repro.json)"),
            RUNS_DIR,
            _arg("--run-id", default=None,
                 help="run directory name (default: <sweep>-<timestamp>)"),
            _arg("--resume", default=None, metavar="RUN_ID",
                 help="resume an interrupted run: shards whose cached result "
                      "matches the current spec hash are served from disk"),
        ), SWEEP_FACTORIES, "sweep", every=False,
    ),
    "runs": Command(
        "query the durable run store and past artifacts", None, (RUNS_DIR,)
    ),
    "runs list": Command("list runs and their completion", _runs_list),
    "runs show": Command("per-shard status and metrics for one run", _runs_show, (
        _arg("run_id", help="run id under the runs dir"),
        _arg("--timeseries", action="store_true",
             help="render per-window telemetry rows instead of shard summaries"),
    )),
    "runs compare": Command("cross-run trajectory table over artifacts", _runs_compare, (
        _arg("artifacts", nargs="+", metavar="RUN_OR_PATH",
             help="run ids and/or SWEEP_*.json / BENCH_*.json paths"),
        _arg("--timeseries", action="store_true",
             help="diff windowed-telemetry columns across the operands"),
    )),
    "migrate": Command(
        "run a live pod-migration scenario",
        partial(_print_reports, run_migration_scenario),
        (SEED, QUICK), MIGRATION_SCENARIOS, "migration scenario",
    ),
    "lint": Command("run the static analyzers (determinism + snapshot rules)", _lint, (
        _arg("paths", nargs="*", default=["src"],
             help="files or directories to lint (default: src)"),
        _arg("--list-rules", action="store_true", help="print the rule table"),
        _arg("--select", action="append", default=None, metavar="CODE",
             help="run only rules matching CODE (exact code or prefix, e.g. "
                  "SNAP or DET001; repeatable)"),
    )),
    "statecheck": Command(
        "run checkpoint->restore->checkpoint byte-equality probes", _statecheck, (
            SEED,
            _arg("-v", "--verbose", action="store_true",
                 help="print one line per probed class"),
        ),
    ),
    "inventory": Command(
        "list scenarios, sweeps, fault and migration scenarios, experiments "
        "and services", _inventory,
    ),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Albatross (SIGCOMM 2025) reproduction toolkit",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, command in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        subparser = groups[group].add_parser(leaf, help=command.help)
        for flags, kwargs in command.arguments:
            subparser.add_argument(*flags, **kwargs)
        if command.registry is not None:
            every = " (or 'all')" if command.every else ""
            subparser.add_argument("name", help=f"named {command.what}{every}")
        if command.run is None:
            groups[name] = subparser.add_subparsers(
                dest=f"{name}_command", required=True
            )
        else:
            subparser.set_defaults(command=name)
    return parser


def select(command, name):
    """The registry names ``name`` selects: every one for ``all``."""
    if command.every and name == "all":
        return tuple(command.registry)
    lookup(command.registry, name, command.what)
    return (name,)


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        if command.registry is not None:
            args.names = select(command, args.name)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        status = command.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader left (``| head``): send what is still buffered, and
        # the interpreter's flush at exit, to /dev/null instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except RunStoreError as error:
        print(str(error), file=sys.stderr)
        return 2
    except SanitizerViolation as violation:
        print(str(violation), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
