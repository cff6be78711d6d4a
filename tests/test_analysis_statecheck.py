"""Runtime statecheck tests: checkpoint round-trip probes on live objects."""

import pytest

from repro.analysis.statecheck import (
    IN_PLACE_EXCLUSIONS,
    ProbeResult,
    StatecheckResult,
    discover,
    probe_object,
    run_statecheck,
)


class GoodCounter:
    """Well-behaved checkpoint/restore pair."""

    def __init__(self):
        self.count = 0

    def checkpoint(self):
        return {"count": self.count}

    def restore(self, snapshot):
        self.count = snapshot["count"]


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


class CloneOnly:
    """Only offers the from_checkpoint side of the protocol."""

    def __init__(self, rate):
        self.rate = rate

    def checkpoint(self):
        return {"rate": self.rate}

    @classmethod
    def from_checkpoint(cls, snapshot):
        return cls(snapshot["rate"])


class LeakyCheckpoint:
    """Snapshot carries a live object -- not plain data."""

    def __init__(self):
        self.handle = object()

    def checkpoint(self):
        return {"handle": self.handle}

    def restore(self, snapshot):
        self.handle = snapshot["handle"]


class NoRestore:
    def checkpoint(self):
        return {}


class TestProbeObject:
    def test_round_trip_in_place(self):
        obj = GoodCounter()
        obj.count = 7
        mode, error = probe_object(obj)
        assert (mode, error) == ("restore", None)

    def test_restore_drift_is_detected(self):
        obj = ForgetfulCounter()
        obj.count = 3
        obj.errors = 2
        mode, error = probe_object(obj)
        assert mode == "restore"
        assert error is not None and "byte-identical" in error

    def test_clone_path_used_when_no_in_place_restore(self):
        mode, error = probe_object(CloneOnly(rate=9))
        assert (mode, error) == ("clone", None)

    def test_non_plain_snapshot_is_an_error(self):
        mode, error = probe_object(LeakyCheckpoint())
        assert mode is None
        assert "plain data" in error

    def test_checkpoint_without_restore_side_is_an_error(self):
        mode, error = probe_object(NoRestore())
        assert mode is None
        assert "no restore side" in error


class TestDiscover:
    def test_walks_containers_and_attributes(self):
        inner = GoodCounter()
        outer = CloneOnly(rate=1)
        outer.children = {"a": [inner]}
        found = discover([outer])
        assert inner in found and outer in found

    def test_deduplicates_shared_objects(self):
        shared = GoodCounter()
        roots = [{"x": shared}, [shared], shared]
        found = discover(roots)
        assert found.count(shared) == 1

    def test_respects_object_budget(self):
        chain = GoodCounter()
        for _ in range(20):
            parent = GoodCounter()
            parent.child = chain
            chain = parent
        assert len(discover([chain], max_objects=5)) <= 5


class TestResultRendering:
    def test_failure_flips_overall_ok(self):
        result = StatecheckResult([
            ProbeResult("A", "restore", 1, True),
            ProbeResult("B", "restore", 2, False, "diverged"),
        ])
        assert not result.ok
        assert "1 failed" in result.summary()

    def test_skips_are_counted_separately(self):
        result = StatecheckResult([
            ProbeResult("A", "restore", 1, True),
            ProbeResult("Src", "skipped", 3, True, "world probe covers it"),
        ])
        assert result.ok
        assert result.summary() == "1 class(es) probed, 1 skipped, 0 failed"


@pytest.fixture(scope="module")
def full_run():
    return run_statecheck(seed=42)


class TestFullStatecheck:
    def test_everything_passes(self, full_run):
        failing = [p.render() for p in full_run.probes if not p.ok]
        assert full_run.ok, "\n".join(failing)

    def test_world_probes_cover_both_dispatch_modes(self, full_run):
        worlds = [p for p in full_run.probes if p.mode == "world"]
        details = " ".join(p.detail for p in worlds)
        assert len(worlds) == 2
        assert "plb" in details and "rss" in details

    def test_core_components_are_probed(self, full_run):
        probed = {p.cls_name for p in full_run.probes if p.mode != "skipped"}
        for cls_name in (
            "GwPodRuntime", "NicPipeline", "ReorderEngine", "RngRegistry",
            "Simulator", "TokenBucket", "BfdLink",
        ):
            assert cls_name in probed, f"{cls_name} not probed"

    def test_every_exclusion_surfaces_as_reasoned_skip(self, full_run):
        skipped = {
            p.cls_name: p.detail
            for p in full_run.probes
            if p.mode == "skipped"
        }
        for cls_name, reason in skipped.items():
            assert cls_name in IN_PLACE_EXCLUSIONS
            assert reason  # a skip without a reason is a silent gap
