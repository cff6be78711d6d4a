"""A process imports what it runs.

A package ``__init__`` loads only what its package's build path runs
(``repro`` itself loads nothing), ``repro.fleet.engine`` never loads
``multiprocessing``, and each ``repro.cli.COMMANDS`` row imports its
modules when it runs.  Each check starts a fresh interpreter: this test process has
imported most of the tree already, so only a new one shows what a path
loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Off the build-and-run path of a plain spec: the pool, the migration
#: controller, the linter, the observers a caller attaches, the
#: ablations' NF model, the sweep registry, heavy-hitter detection and
#: the PCIe model.
OFF_THE_RUN_PATH = (
    "multiprocessing",
    "repro.controlplane.migration",
    "repro.analysis.registry",
    "repro.analysis.reporter",
    "repro.metrics.trace",
    "repro.metrics.summary",
    "repro.cpu.stateful",
    "repro.fleet.sweeps",
    "repro.core.hitters",
    "repro.core.pcie",
)

#: Loaded by other commands than ``simulate``: the experiments, the
#: fault scenarios, the state checker, the lint rules and the migration
#: scenarios.
OTHER_COMMANDS = (
    "repro.experiments",
    "repro.faults",
    "repro.analysis.statecheck",
    "repro.analysis.rules",
    "repro.controlplane.scenarios",
)

#: The simulator and its build path: a command that only parses
#: arguments loads none of them.
BUILD_PATH = (
    "repro.core",
    "repro.scenarios",
    "repro.sim",
    "repro.packet",
    "repro.workloads",
)


def _modules_after(body):
    """Every module name in ``sys.modules`` once ``body`` has run in a
    fresh interpreter with ``src`` on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(SRC), os.environ.get("PYTHONPATH"))))}
    probe = f"{body}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    child = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout.splitlines()[-1]))


def _loaded(modules, names):
    """The entries of ``names`` loaded, each itself or as a package."""
    return sorted(
        module for module in modules for name in names
        if module == name or module.startswith(name + ".")
    )


def test_a_plain_run_loads_nothing_off_its_path():
    modules = _modules_after(
        "import repro.fleet, repro.runs, repro.scenarios\n"
        "from repro.scenarios import build, scenario_spec\n"
        "build(scenario_spec('steady-state-plb', quick=True)).run().report()"
    )
    assert "repro.scenarios.build" in modules
    assert _loaded(modules, OFF_THE_RUN_PATH) == []


def test_simulate_loads_no_other_commands_modules():
    modules = _modules_after(
        "from repro.cli import main\n"
        "assert main(['simulate', '--duration-ms', '1']) == 0"
    )
    assert "repro.cli" in modules
    assert _loaded(modules, OFF_THE_RUN_PATH + OTHER_COMMANDS) == []


def test_a_named_command_loads_its_own_registry_only():
    modules = _modules_after(
        "from repro.cli import main\n"
        "assert main(['experiment', 'tab1']) == 0"
    )
    assert "repro.experiments.runner" in modules
    assert _loaded(modules, ("repro.faults", "repro.controlplane.scenarios",
                             "repro.fleet.sweeps", "repro.analysis.statecheck")) == []


def test_importing_the_package_loads_no_submodule():
    assert _loaded(_modules_after("import repro"), ("repro",)) == ["repro"]


def test_help_loads_nothing_of_the_build_path():
    modules = _modules_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0, done.code\n"
    )
    assert "repro.cli" in modules
    assert _loaded(modules, BUILD_PATH) == []


def test_a_forked_sweep_loads_no_multiprocessing():
    modules = _modules_after(
        "from repro.fleet import ShardSpec, run_sweep\n"
        "from repro.scenarios import scenario_spec\n"
        "spec = scenario_spec('steady-state-plb', quick=True)\n"
        "shards = [ShardSpec(index, {}, spec) for index in range(2)]\n"
        "assert run_sweep('floor', shards, workers=2).cached_shards == 0"
    )
    assert "repro.fleet.engine" in modules
    assert _loaded(modules, ("multiprocessing", "pickle", "socket")) == []


def _runs_command_modules(runs_dir, command, expected):
    """The modules ``runs <command>`` loads; its stdout holds ``expected``."""
    return _modules_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main(['runs', '--runs-dir', {runs_dir!r}, *{command!r}]) == 0\n"
        f"assert {expected!r} in out.getvalue(), out.getvalue()"
    )


def test_runs_list_loads_nothing_of_the_simulator(tmp_path):
    from repro.fleet import ShardSpec
    from repro.runs import RunStore
    from repro.scenarios import scenario_spec

    runs_dir = str(tmp_path / "RUNS")
    shards = [ShardSpec(0, {}, scenario_spec("steady-state-plb", quick=True))]
    RunStore(runs_dir).create("floor", 42, shards, run_id="listed")
    modules = _runs_command_modules(runs_dir, ["list"], "listed")
    assert "repro.table" in modules
    assert _loaded(modules, ("repro.scenarios", "repro.core", "repro.sim",
                             "repro.experiments")) == []
    assert "_hashlib" not in modules


def test_runs_show_loads_nothing_of_the_build_path(tmp_path):
    """A completed shard renders through ``shard_row`` without the simulator."""
    from repro.fleet import ShardSpec, run_sweep
    from repro.runs import RunStore
    from repro.scenarios import scenario_spec

    runs_dir = str(tmp_path / "RUNS")
    shards = [ShardSpec(0, {}, scenario_spec("steady-state-plb", quick=True))]
    run = RunStore(runs_dir).create("floor", 42, shards, run_id="shown")
    run_sweep("floor", shards, run=run)
    modules = _runs_command_modules(runs_dir, ["show", "shown"], "done")
    assert "repro.runs.query" in modules
    assert _loaded(modules, BUILD_PATH) == []
