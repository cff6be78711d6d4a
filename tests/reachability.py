"""Reachability check: every function under ``src/repro`` is called by some
command, or the allow-list below says why it is kept.

In this one process, under a ``sys.setprofile`` hook, the script runs the
CLI surface at quick size, the four quick sweeps on one worker, one of
them resumed once finished and once run without ``--run-id``,
``runs list/show/compare`` over the runs they leave, the five examples
and a fault run under an installed sanitizer.  Then it walks
every ``def`` under ``src/repro`` and exits 1 if a function was neither
called nor covered by an :data:`ALLOWED` entry, or if an entry covers a
function that *was* called (the entry is stale: delete it) or covers
nothing at all.  An entry names a module, a class or a function by its
dotted path and carries a one-line reason, the same idiom as
``lint: disable``; the summary counts the entries by reason.

Its name does not start with ``test_``, so pytest does not collect it (it
takes about two minutes on a 2-core host).  Run it from the repository
root:

    PYTHONPATH=src python tests/reachability.py
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_CLAIM_BGP = ("§4.3 BGP/BFD over the priority path under a saturated data plane: "
              "waits on its ROADMAP 6(a) claim")
_PRIORITY = "the priority path: only PodControlPlane's protocol packets take it (ROADMAP 6(a))"
_CLAIM_FALLBACK = "§4.1 PLB->RSS fallback: waits on its ROADMAP 6(a) claim"
_CLAIM_HITTERS = ("§4.3 CPU heavy-hitter detection: statecheck runs HotFlowPromoter over a "
                  "pod's limiter unfed; waits on its ROADMAP 6(a) claim")
_CLAIM_SRAM = "§4.3 limiter SRAM budget: waits on its ROADMAP 6(a) claim"
_CLAIM_SRIOV = ("SR-IOV VF bookkeeping: ROADMAP 6(a) routes Fig. 15 placement through "
                "VfAllocator or deletes it")
_FPGA_RESET = ("FPGA stall and watchdog reset: the chaos plan can draw it, "
               "its quick seed does not; tier-1 fault tests force it")
_FAULT = "fault path that no quick scenario triggers; tier-1 tests force it"
_FAILURE = "runs only when a check fails; tier-1 tests plant the failure"
_NO_INPUT = "the linted tree has no such construct; tier-1 tests lint one"
_POOL = ("fork path (--workers > 1, or 0 = auto): CI's sanitized --workers 2 sweeps "
         "run it; a child's body runs in the forked process")
_ORACLE = "test oracle: tier-1 tests check the simulator against it"
_REPR = "debugging text for an interactive session; no command prints it"
_SCENARIO = "registry scenario: `inventory` lists it, tier-1 golden and wire tests build it"

#: Dotted module, class or function path -> why it is kept although no
#: command below calls it.  An entry covers everything under its path,
#: so a class or module entry means none of it is called.
ALLOWED = {
    # Mechanisms waiting on ROADMAP 6(a) claims.
    "repro.bgp.pod": _CLAIM_BGP,
    "repro.core.pktdir.PktDir.classify": _PRIORITY,
    "repro.core.priority.PriorityQueueManager.enqueue": _PRIORITY,
    "repro.core.priority.PriorityQueueManager._start_next": _PRIORITY,
    "repro.core.priority.PriorityQueueManager._finish": _PRIORITY,
    "repro.core.priority.PriorityQueueManager.dropped": _PRIORITY,
    "repro.core.nic.NicPipeline.restore_plb": _CLAIM_FALLBACK,
    "repro.core.hitters.SpaceSavingSketch.estimate": _CLAIM_HITTERS,
    "repro.core.ratelimit.TwoStageRateLimiter.demote": _CLAIM_HITTERS,
    "repro.core.ratelimit.TwoStageRateLimiter.installed": _CLAIM_HITTERS,
    "repro.core.ratelimit.TwoStageRateLimiter.sram_bytes": _CLAIM_SRAM,
    "repro.core.ratelimit.TwoStageRateLimiter.naive_sram_bytes": _CLAIM_SRAM,
    "repro.core.ratelimit.TwoStageRateLimiter.meter_collision_pairs": _CLAIM_SRAM,
    "repro.core.resources.headroom": _CLAIM_SRAM,
    "repro.container.sriov.NicPort.recover": _CLAIM_SRIOV,
    "repro.container.sriov.NicCard.fail": _CLAIM_SRIOV,
    "repro.container.sriov.NicCard.recover": _CLAIM_SRIOV,
    "repro.container.sriov.VfAllocator.release": _CLAIM_SRIOV,
    "repro.container.sriov.VfAllocator.switch_failure_impact": _CLAIM_SRIOV,
    # Samplers and oracles.
    "repro.metrics.trace": "ROADMAP 2(c)'s per-packet sampler: a subscriber no command arms yet",
    "repro.telemetry.recorder.validate_series": _ORACLE,
    "repro.packet.flows.FlowKey.__reduce__": ("pickle and copy protocol: commands ship reports, "
                                              "not keys, to workers; tier-1 tests pickle keys"),
    # Paths that need more than one worker, a failure or a fault.
    "repro.fleet.engine._child": _POOL,
    "repro.fleet.engine._unwrap": _POOL,
    "repro.fleet.engine.default_workers": _POOL,
    "repro.fleet.engine._payload_label": _FAILURE,
    "repro.analysis.sanitizer.SanitizerViolation": _FAILURE,
    "repro.analysis.sanitizer.Sanitizer.violation": _FAILURE,
    "repro.analysis.reporter.Finding.sort_key": _FAILURE,
    "repro.analysis.reporter.Finding.render": _FAILURE,
    "repro.analysis.rules._is_datetime_name": _NO_INPUT,
    "repro.analysis.rules.UnorderedIterationRule.visit_AsyncFor": _NO_INPUT,
    "repro.core.nic.NicPipeline.fpga_stalled": _FPGA_RESET,
    "repro.core.nic.NicPipeline.set_fpga_stalled": _FPGA_RESET,
    "repro.core.nic.NicPipeline.recover_fpga": _FPGA_RESET,
    "repro.core.plb.reorder.ReorderEngine.reset": _FPGA_RESET,
    "repro.faults.injector.FaultInjector._inject_fpga_stall": _FPGA_RESET,
    "repro.faults.injector.FaultInjector._clear_fpga_stall": _FPGA_RESET,
    "repro.faults.scenarios.chaos.on_reset": _FPGA_RESET,
    "repro.faults.scenarios.chaos.on_down": _FAULT,
    "repro.faults.injector.FaultInjector._restart_pod": _FAULT,
    "repro.core.gateway.GwPodRuntime.recover": _FAULT,
    "repro.bgp.fsm.BgpSession._hold_expired": _FAULT,
    "repro.bgp.fsm.Link.fail": _FAULT,
    "repro.bgp.fsm.Link.recover": _FAULT,
    "repro.bgp.switch.UplinkSwitch.restart": _FAULT,
    "repro.scenarios.registry.microburst_reorder": _SCENARIO,
    "repro.scenarios.registry.ratelimit_churn": _SCENARIO,
    "repro.perf": "host metadata for benchmarks/perf/child.py",
    "repro.fleet.engine.write_sweep_report": "benchmarks/perf/driver.py writes its sweeps with it",
    "repro.sim.engine.Simulator.run": "run-to-exhaustion entry point; commands run to a deadline",
    "repro.sim.engine.Simulator._step_fast": "run-to-exhaustion entry point; commands run to a deadline",
    "repro.sim.engine.Simulator._reject_past": _FAILURE,
    # Debugging text.
    "repro.analysis.reporter.Finding.__repr__": _REPR,
    "repro.bgp.speaker.RouteEntry.__repr__": _REPR,
    "repro.container.sriov.NicPort.__repr__": _REPR,
    "repro.container.sriov.NicCard.__repr__": _REPR,
    "repro.container.sriov.VirtualFunction.__repr__": _REPR,
    "repro.cpu.cache.CacheStats.__repr__": _REPR,
    "repro.cpu.numa.NumaNode.__repr__": _REPR,
    "repro.experiments.common.ExperimentResult.__repr__": _REPR,
    "repro.faults.injector.FaultRecord.__repr__": _REPR,
    "repro.faults.plan.Fault.__repr__": _REPR,
    "repro.fleet.report.SweepReport.__repr__": _REPR,
    "repro.fleet.shard.ShardSpec.__repr__": _REPR,
    "repro.metrics.counters.CounterSet.__repr__": _REPR,
    "repro.packet.flows.FlowKey.__repr__": _REPR,
    "repro.packet.flows.FlowKey.__str__": _REPR,
    "repro.packet.flows._ip_str": _REPR,
    "repro.packet.packet.Packet.__repr__": _REPR,
    "repro.runs.store.Run.__repr__": _REPR,
    "repro.sim.engine.Event.__repr__": _REPR,
    "repro.tofino.program.Header.__repr__": _REPR,
    "repro.tofino.program.Table.__repr__": _REPR,
}


def _cli(*argv):
    from repro.cli import main

    status = main(list(argv))
    if status != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {status}")


def _run_ids(runs_dir):
    return sorted(entry.name for entry in os.scandir(runs_dir) if entry.is_dir())


def exercise(workdir):
    """Everything the check counts as reachable, in one process."""
    from repro.analysis.sanitizer import install, uninstall
    from repro.fleet.sweeps import SWEEP_FACTORIES

    runs = str(workdir / "RUNS")
    _cli("experiment", "all", "--quick")
    _cli("faults", "all", "--quick")
    _cli("migrate", "all", "--quick")
    _cli("simulate", "--cores", "2", "--duration-ms", "20")
    _cli("simulate", "--cores", "2", "--duration-ms", "20", "--mode", "rss",
         "--timeseries-every-ms", "5")
    _cli("inventory")
    _cli("statecheck", "-v")
    _cli("lint", str(SRC))
    _cli("lint", "--select", "DET", str(SRC))
    for name in SWEEP_FACTORIES:
        extra = ("--timeseries-every-ms", "5") if name == "az-scaling" else ()
        _cli("sweep", name, "--quick", "--workers", "1", *extra,
             "--runs-dir", runs, "--run-id", name,
             "--output", str(workdir / f"{name}.json"))
    # A finished run resumed: every shard is served from the store.
    _cli("sweep", "tenant-scaling", "--quick", "--workers", "1", "--runs-dir", runs,
         "--resume", "tenant-scaling", "--output", str(workdir / "resumed.json"))
    # A run named by the store, in a runs dir of its own so that
    # ``_run_ids(runs)`` below lists only the runs named above.
    _cli("sweep", "tenant-scaling", "--quick", "--workers", "1",
         "--runs-dir", str(workdir / "UNNAMED"), "--output", str(workdir / "unnamed.json"))
    _cli("runs", "--runs-dir", runs, "list")
    for run_id in _run_ids(runs):
        _cli("runs", "--runs-dir", runs, "show", run_id)
    _cli("runs", "--runs-dir", runs, "show", "az-scaling", "--timeseries")
    bench = sorted((ROOT / "benchmarks" / "trajectory").glob("BENCH_*.json"))[-2:]
    _cli("runs", "--runs-dir", runs, "compare", *_run_ids(runs), *map(str, bench))
    _cli("runs", "--runs-dir", runs, "compare", "--timeseries", "az-scaling",
         str(workdir / "az-scaling.json"))
    for example in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")
    install()
    try:
        _cli("faults", "all", "--quick")
    finally:
        uninstall()


def profile_reached(run=exercise):
    """``(file, first line)`` of every function ``run(workdir)`` called."""
    codes = {}

    def hook(frame, event, arg):
        # Keyed by id: hashing a code object hashes its bytecode, and
        # this runs on every call.  The value keeps the code alive.
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    with tempfile.TemporaryDirectory() as workdir, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            run(Path(workdir))
        finally:
            sys.setprofile(previous)
    # Importing a module runs its body as a code object that starts on
    # line 1, where a ``def`` may start too: only functions count.
    return {
        (os.path.realpath(code.co_filename), code.co_firstlineno)
        for code in codes.values() if code.co_name != "<module>"
    }


def _definitions(node, prefix, path):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            # A decorated function's code starts at its first decorator.
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            body = child.end_lineno - child.body[0].lineno + 1
            yield name, (path, first), body
            yield from _definitions(child, name, path)
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, f"{prefix}.{child.name}", path)
        else:
            yield from _definitions(child, prefix, path)


def definitions(src=SRC):
    """``(dotted name, (file, first line), body lines)`` of every ``def``
    under the package directory ``src``."""
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text())
        yield from _definitions(tree, module, os.path.realpath(path))


def _covers(entry, name):
    return name == entry or name.startswith(entry + ".")


def find_problems(functions, reached, allowed):
    """The check itself: ``functions`` as :func:`definitions` yields them,
    ``reached`` the ``(file, first line)`` keys that ran.  Returns the
    unreached ``(name, body lines)`` and one line per problem."""
    unreached = [(name, body) for name, key, body in functions if key not in reached]
    reached_names = [name for name, key, _ in functions if key in reached]
    problems = []
    for name, _ in unreached:
        if not any(_covers(entry, name) for entry in allowed):
            problems.append(f"not called and not allow-listed: {name}")
    for entry, reason in allowed.items():
        if not reason.strip():
            problems.append(f"allow-list entry without a reason: {entry}")
        covered = [name for name, _, _ in functions if _covers(entry, name)]
        if not covered:
            problems.append(f"allow-list entry matches no function: {entry}")
        for name in reached_names:
            if _covers(entry, name):
                problems.append(f"allow-listed but called (stale entry {entry}): {name}")
    return unreached, problems


def reason_counts():
    """``[(reason constant, entries)]`` over :data:`ALLOWED`, in the order
    the constants are defined, then ``other`` for the one-off reasons."""
    constants = {value: name for name, value in globals().items()
                 if name.startswith("_") and name.isupper() and isinstance(value, str)}
    counts = dict.fromkeys(constants.values(), 0)
    counts["other"] = 0
    for reason in ALLOWED.values():
        counts[constants.get(reason, "other")] += 1
    return list(counts.items())


def main():
    reached = profile_reached()
    functions = list(definitions())
    unreached, problems = find_problems(functions, reached, ALLOWED)
    total_lines = sum(body for _, _, body in functions)
    print(f"reachability: {len(functions) - len(unreached)} of {len(functions)} "
          f"functions called; {len(unreached)} not called "
          f"({sum(body for _, body in unreached)} of {total_lines} "
          f"function-body lines)")
    for problem in problems:
        print(problem)
    print(f"reachability: {len(ALLOWED)} allow-list entries, "
          f"{len(problems)} problem(s)")
    print("reachability: entries by reason: "
          + ", ".join(f"{name} {count}" for name, count in reason_counts()))
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())
