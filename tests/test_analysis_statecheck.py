"""Runtime statecheck tests: twin probes, the object walk and the full run."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.analysis.statecheck import (
    ProbeResult,
    StatecheckResult,
    discover,
    probe_keys,
    probe_object,
    resolve,
    run_statecheck,
    walk,
)
from repro.cli import main
from repro.controlplane.snapshot import Stateful


class GoodCounter(Stateful):
    """Declared state, generic pair."""

    STATE = ("count",)

    def __init__(self):
        self.count = 0


class ForgetfulCounter:
    """Checkpoints one attribute, silently drops the other on restore."""

    def __init__(self):
        self.count = 0
        self.errors = 0

    def checkpoint(self):
        return {"count": self.count, "errors": self.errors}

    def restore(self, snapshot):
        self.count = snapshot["count"]
        self.errors = 0  # drift: restored instances forget their errors


class LeakyCheckpoint:
    """Snapshot carries a live object -- not plain data."""

    def __init__(self):
        self.handle = object()

    def checkpoint(self):
        return {"handle": self.handle}

    def restore(self, snapshot):
        self.handle = snapshot["handle"]


class NoRestore:
    """Checkpoints, but offers nothing to restore into."""

    def checkpoint(self):
        return {}


class Unstorable(Stateful):
    """Declares a live object the codec cannot store."""

    STATE = ("handle",)

    def __init__(self):
        self.handle = object()


class HandWritten:
    """Declared state with a hand-written pair that honours it."""

    STATE = ("count", ("errors", "_errors"))

    def __init__(self):
        self.count = 0
        self._errors = 0

    def checkpoint(self):
        return {"count": self.count, "errors": self._errors}

    def restore(self, snapshot):
        self.count = snapshot["count"]
        self._errors = snapshot["errors"]


class UnwrittenKey(HandWritten):
    """``errors`` is declared, but neither side of the pair carries it."""

    def checkpoint(self):
        return {"count": self.count}

    def restore(self, snapshot):
        self.count = snapshot["count"]


class UnreadKey(HandWritten):
    """Writes ``errors``, restores it only when present."""

    def restore(self, snapshot):
        self.count = snapshot["count"]
        self._errors = snapshot.get("errors", 0)


class Holder:
    """Undeclared wiring around a declared member."""

    def __init__(self, child, cache=None):
        self.child = child
        self.cache = cache


class Cached(Stateful):
    STATE = ("count",)
    DERIVED = {"memo": "pure cache"}

    def __init__(self):
        self.count = 0
        self.memo = {"inner": GoodCounter()}


class TestProbeObject:
    def test_round_trip_into_a_twin(self):
        obj = GoodCounter()
        obj.count = 7
        assert probe_object(obj, GoodCounter()) is None

    def test_restore_drift_is_detected(self):
        obj = ForgetfulCounter()
        obj.count = 3
        obj.errors = 2
        error = probe_object(obj, ForgetfulCounter())
        assert error is not None and "byte-identical" in error

    def test_non_plain_snapshot_is_an_error(self):
        assert "plain data" in probe_object(LeakyCheckpoint(), LeakyCheckpoint())

    def test_missing_twin_is_an_error(self):
        assert "no twin" in probe_object(GoodCounter(), None)

    def test_restore_that_raises_is_reported(self):
        class Strict(GoodCounter):
            def restore(self, snapshot):
                raise ValueError("shape mismatch")

        error = probe_object(Strict(), Strict())
        assert "ValueError" in error and "shape mismatch" in error

    def test_checkpoint_without_restore_side_is_an_error(self):
        assert "no restore side" in probe_object(NoRestore(), NoRestore())

    def test_unstorable_state_value_is_reported(self):
        error = probe_object(Unstorable(), Unstorable())
        assert "TypeError" in error and "Unstorable.handle" in error


class TestProbeKeys:
    def test_pair_that_honours_its_state_passes(self):
        obj = HandWritten()
        obj.count, obj._errors = 4, 2
        assert probe_keys(obj, HandWritten()) is None

    def test_key_neither_side_carries_is_flagged(self):
        # Both sides forget ``errors``, so the byte probe passes.
        obj = UnwrittenKey()
        obj._errors = 2
        assert probe_object(obj, UnwrittenKey()) is None
        assert "does not write STATE key 'errors'" in probe_keys(obj, UnwrittenKey())

    def test_key_restore_never_requires_is_flagged(self):
        assert "without STATE key 'errors'" in probe_keys(UnreadKey(), UnreadKey())

    def test_checkpoint_that_raises_is_reported(self):
        error = probe_keys(Unstorable(), Unstorable())
        assert "checkpoint raised TypeError" in error


class TestWalk:
    def test_walks_containers_and_attributes(self):
        inner = GoodCounter()
        outer = Holder({"a": [inner]})
        found = [obj for _path, obj in discover([outer])]
        assert found == [inner]
        assert [obj for _path, obj, _tokens in walk([outer])] == [outer, inner]

    def test_deduplicates_shared_objects(self):
        shared = GoodCounter()
        found = [obj for _path, obj in discover([{"x": shared}, [shared], shared])]
        assert found.count(shared) == 1

    def test_respects_object_budget(self):
        chain = GoodCounter()
        for _ in range(20):
            parent = GoodCounter()
            parent.child = chain
            chain = parent
        assert len(discover([chain])) == 21
        assert len(discover([chain], max_objects=5)) == 5

    def test_derived_attributes_are_not_walked(self):
        cached = Cached()
        found = [obj for _path, obj in discover([cached])]
        assert found == [cached]

    def test_paths_resolve_in_a_twin_world(self):
        roots = [Holder([GoodCounter(), GoodCounter()])]
        twin = [Holder([GoodCounter(), GoodCounter()])]
        for path, obj in discover(roots):
            assert resolve(roots, path) is obj
            assert type(resolve(twin, path)) is type(obj)
        assert resolve(twin, (("item", 0), ("attr", "child"), ("item", 5))) is None


class TestResultRendering:
    def test_failure_flips_overall_ok(self):
        result = StatecheckResult([
            ProbeResult("A", "restore", 1, True),
            ProbeResult("B", "restore", 2, False, "diverged"),
        ])
        assert not result.ok
        assert "1 failed" in result.summary()

    def test_completeness_findings_fail_without_counting_as_probed(self):
        result = StatecheckResult([
            ProbeResult("A", "restore", 1, True),
            ProbeResult("A", "state", 1, False, "A.x changed outside STATE/DERIVED"),
        ])
        assert not result.ok
        assert result.summary() == "1 class(es) probed, 1 failed"

    def test_derived_reasons_render_one_line_each(self):
        result = StatecheckResult([], [("B", "y", "why b"), ("A", "x", "why a")])
        assert result.render_derived() == [
            "     derived A.x: why a", "     derived B.y: why b",
        ]


@pytest.fixture(scope="module")
def full_run():
    return run_statecheck(seed=42)


def _snapshot_aware_classes():
    """Every class under ``repro`` that declares STATE or defines checkpoint()."""
    names = [module.name for module in pkgutil.walk_packages(repro.__path__, "repro.")]
    found = set()
    for module_name in names:
        module = importlib.import_module(module_name)
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module_name
                    and cls is not Stateful
                    and ("STATE" in vars(cls) or "checkpoint" in vars(cls))):
                found.add(cls.__name__)
    return found


class TestFullStatecheck:
    def test_everything_passes(self, full_run):
        failing = [p.render() for p in full_run.probes if not p.ok]
        assert full_run.ok, "\n".join(failing)

    def test_world_probes_cover_both_dispatch_modes(self, full_run):
        worlds = [p for p in full_run.probes if p.mode == "world"]
        details = " ".join(p.detail for p in worlds)
        assert len(worlds) == 5
        assert "plb" in details and "rss" in details and "lossy" in details
        assert "scheduled" in details and "az" in details

    def test_core_components_are_probed(self, full_run):
        probed = {p.cls_name for p in full_run.probes if p.mode == "restore"}
        for cls_name in (
            "GwPodRuntime", "NicPipeline", "ReorderEngine", "RngRegistry",
            "Simulator", "TwoStageRateLimiter", "BfdLink", "FpgaSessionOffload",
            "EcmpUplink", "FlowPodDispatch", "DpuPreClassifier", "HotFlowPromoter",
        ):
            assert cls_name in probed, f"{cls_name} not probed"
        assert int(full_run.summary().split()[0]) >= 23

    def test_every_snapshot_aware_class_is_probed(self, full_run):
        # A runtime rule only sees what its worlds build: a class that
        # declares state but no world reaches is unchecked.
        covered = {p.cls_name for p in full_run.probes if p.mode == "restore"}
        missing = _snapshot_aware_classes() - covered
        assert not missing, f"no statecheck world reaches {sorted(missing)}"

    def test_hand_written_pairs_are_held_to_their_state(self, full_run):
        keyed = {p.cls_name for p in full_run.probes if p.mode == "keys"}
        for cls_name in (
            "CbrSource", "MicroburstSource", "FpgaSessionOffload",
            "ReorderEngine", "TimeSeriesRecorder",
        ):
            assert cls_name in keyed, f"{cls_name} not key-checked"

    def test_owners_of_pending_events_are_probed_in_place(self, full_run):
        assert {p.mode for p in full_run.probes} == {"restore", "world", "keys"}
        probed = {p.cls_name for p in full_run.probes if p.mode == "restore"}
        for cls_name in (
            "CbrSource", "MicroburstSource", "SimCheckpointer", "TimeSeriesRecorder",
        ):
            assert cls_name in probed, f"{cls_name} not probed in place"

    def test_derived_reasons_are_reported(self, full_run):
        derived = {(cls, attr): reason for cls, attr, reason in full_run.derived}
        assert "closures" in derived[("Simulator", "_heap")]
        assert "drained" in derived[("PacketQueue", "packets")]
        assert all(derived.values())

    def test_cli_verbose_prints_probes_and_derived_reasons(self, capsys):
        assert main(["statecheck", "-v"]) == 0
        out = capsys.readouterr().out
        assert "ok   FpgaSessionOffload [restore x1]" in out
        assert "ok   SimCheckpointer [restore x5]" in out
        assert "ok   TopologyRuntime [restore x1]" in out
        assert "ok   ScheduledSource [restore x1]" in out
        assert "ok   PoissonSource [restore x1]" in out
        assert "derived SimCheckpointer.captured: capture-process telemetry" in out
        assert out.rstrip().endswith("0 failed")
