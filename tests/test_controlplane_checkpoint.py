"""Checkpoint/restore round-trips for every stateful component.

The control plane's freeze phase serializes a pod to plain data; these
tests pin down the contract component by component:

* a checkpoint is plain JSON-safe data (``ensure_plain`` passes, and a
  ``json`` round trip restores byte-identically);
* restoring into a *fresh* instance reproduces the frozen one exactly;
* every component that owns an RNG carries the stream position, so the
  restored instance's future draws match what the original would have
  produced (the RNG-omission regression tests fail if a component drops
  its ``rng`` entry).
"""

import enum
import json
import random
from collections import deque

import pytest

from repro.bgp.bfd import BfdLink, BfdState
from repro.controlplane import ensure_plain, snapshot_bytes
from repro.controlplane.snapshot import SimCheckpointer, Stateful, Table
from repro.core import AlbatrossServer
from repro.core.offload import FpgaSessionOffload
from repro.core.plb.dispatch import PlbDispatcher
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig
from repro.core.ratelimit import TwoStageRateLimiter
from repro.core.rss import RssDispatcher
from repro.metrics.counters import CounterSet
from repro.metrics.histogram import LatencyHistogram
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet
from repro.scenarios import PodSpec
from repro.sim import RngRegistry, Simulator
from repro.sim.engine import SimulationError
from repro.sim.rng import derived_stream, rng_state, set_rng_state
from repro.sim.units import MS, SECOND
from repro.workloads.generators import uniform_population
from repro.workloads.microburst import MicroburstSource
from tests.reorder_admission import Admitter


def json_round_trip(snapshot):
    """A snapshot must survive the wire: serialize, parse, compare."""
    encoded = snapshot_bytes(snapshot)
    return json.loads(encoded)


class TestPlainData:
    @pytest.mark.parametrize(
        "snapshot,path",
        [
            ({1: "x"}, "snapshot has a non-string key 1"),
            ({"pod": {"state": BfdState.UP}}, "snapshot.pod.state holds a non-plain BfdState"),
            ({"queue": [1, {2, 3}]}, r"snapshot.queue\[1\] holds a non-plain set"),
            ({"flow": FlowKey(1, 2, 3, 4, 17), "seen": b"raw"},
             "snapshot.seen holds a non-plain bytes"),
        ],
        ids=["int-key", "enum", "set", "bytes"],
    )
    def test_leaked_objects_are_named_by_path(self, snapshot, path):
        with pytest.raises(TypeError, match=path):
            ensure_plain(snapshot)

    def test_plain_data_passes_through(self):
        snapshot = {"a": [1, 2.5, "x", None, True], "b": {"c": (1, 2)}}
        assert ensure_plain(snapshot) is snapshot

    def test_canonical_bytes_ignore_key_order(self):
        first = {"b": 1, "a": {"y": [1, 2], "x": None}}
        second = {"a": {"x": None, "y": [1, 2]}, "b": 1}
        assert snapshot_bytes(first) == snapshot_bytes(second)
        assert snapshot_bytes(first) == b'{"a":{"x":null,"y":[1,2]},"b":1}'

    @pytest.mark.parametrize("every_ns", [0, -1])
    def test_checkpoint_cadence_must_be_positive(self, every_ns):
        with pytest.raises(ValueError, match="cadence must be positive"):
            SimCheckpointer(Simulator(), RngRegistry(), {}, [], every_ns)


class TestRngState:
    def test_round_trip_resumes_stream(self):
        rng = random.Random(1234)
        rng.random()
        state = json_round_trip(rng_state(rng))
        expected = [rng.random() for _ in range(10)]
        fresh = random.Random(0)
        set_rng_state(fresh, state)
        assert [fresh.random() for _ in range(10)] == expected

    def test_registry_checkpoint_restores_every_stream(self):
        rngs = RngRegistry(seed=7)
        rngs.stream("traffic").random()
        rngs.stream("pod.gw").random()
        snapshot = json_round_trip(rngs.checkpoint())
        ensure_plain(snapshot)
        expected = {
            name: [rngs.stream(name).random() for _ in range(5)]
            for name in ("traffic", "pod.gw")
        }
        restored = RngRegistry(seed=7)
        restored.restore(snapshot)
        for name, draws in expected.items():
            assert [restored.stream(name).random() for _ in range(5)] == draws

    def test_registry_leaves_out_the_streams_their_owners_carry(self):
        rngs = RngRegistry(seed=7)
        carried = rngs.carried_stream("pod.gw")
        assert rngs.stream("pod.gw") is carried
        rngs.stream("traffic").random()
        assert [name for name, _ in rngs.checkpoint()["streams"]] == ["traffic"]


class TestCounterSet:
    def test_round_trip(self):
        counters = CounterSet()
        counters.incr("rx_packets", 10)
        counters.incr("tx_packets", 9)
        snapshot = json_round_trip(counters.checkpoint())
        fresh = CounterSet()
        fresh.restore(snapshot)
        assert fresh.snapshot() == counters.snapshot()


class TestLatencyHistogram:
    def _filled(self, count=5000):
        histogram = LatencyHistogram()
        rng = random.Random(99)
        for _ in range(count):
            histogram.record(rng.randrange(100, 1_000_000))
        return histogram

    def test_round_trip_preserves_stats(self):
        histogram = self._filled()
        snapshot = json_round_trip(histogram.checkpoint())
        ensure_plain(snapshot)
        fresh = LatencyHistogram()
        fresh.restore(snapshot)
        assert fresh.checkpoint() == histogram.checkpoint()
        assert fresh.percentile(0.99) == histogram.percentile(0.99)

    def test_restored_copy_records_like_the_original(self):
        histogram = self._filled()
        fresh = LatencyHistogram()
        fresh.restore(json_round_trip(histogram.checkpoint()))
        for value in range(1000, 200_000, 1000):
            histogram.record(value)
            fresh.record(value)
        assert snapshot_bytes(fresh.checkpoint()) == snapshot_bytes(histogram.checkpoint())

    def test_checkpoint_carries_no_samples(self):
        snapshot = self._filled().checkpoint()
        assert set(snapshot) == {"count", "sum", "min", "max", "buckets"}
        assert snapshot["count"] == 5000
        assert len(snapshot["buckets"]) < snapshot["count"] / 4


def _flow(index):
    return FlowKey(0x0A000000 + index, 0x0B000000 + index, 1000 + index, 80, 17)


class TestTwoStageRateLimiter:
    def _driven(self, rng_seed=5):
        limiter = TwoStageRateLimiter(
            random.Random(rng_seed), stage1_rate_pps=1000, stage2_rate_pps=250
        )
        now = 0
        for step in range(2000):
            limiter.admit(step % 7, now)
            now += 100_000
        return limiter

    def test_round_trip_decisions_identical(self):
        limiter = self._driven()
        snapshot = json_round_trip(limiter.checkpoint())
        ensure_plain(snapshot)
        fresh = TwoStageRateLimiter(
            random.Random(0), stage1_rate_pps=1000, stage2_rate_pps=250
        )
        fresh.restore(snapshot)
        now = 2000 * 100_000
        for step in range(2000):
            vni = step % 7
            assert fresh.admit(vni, now) == limiter.admit(vni, now)
            now += 40_000

    def test_a_held_snapshot_restores_twice_to_the_same_run(self):
        """A restore copies each row: driving the restored limiter leaves
        the snapshot it came from (a checkpointer's ``latest``, a
        migration's freeze) as it was, so a second restore replays it."""
        snapshot = self._driven().checkpoint()
        held = snapshot_bytes(snapshot)
        runs = []
        for _ in range(2):
            fresh = TwoStageRateLimiter(
                random.Random(0), stage1_rate_pps=1000, stage2_rate_pps=250
            )
            fresh.restore(snapshot)
            now = 2000 * 100_000
            decisions = []
            for step in range(2000):
                decisions.append(fresh.admit(step % 7, now))
                now += 40_000
            runs.append(decisions)
            assert snapshot_bytes(snapshot) == held
        assert runs[0] == runs[1]
        assert len(set(runs[0])) > 1

    def test_sampler_rng_carried(self):
        snapshot = self._driven().checkpoint()
        assert "rng" in snapshot["sampler"]


class TestReorderEngine:
    def _engine(self, sim):
        return ReorderEngine(
            sim, ReorderQueueConfig(queue_count=2, depth=64), lambda p, o: None
        )

    def test_round_trip_psn_continuity(self):
        sim = Simulator()
        engine = self._engine(sim)
        psn = Admitter(engine).admit(0).meta.psn
        # Settle the slot via the reorder timeout so the queue drains.
        sim.run_until(SECOND)
        snapshot = json_round_trip(engine.checkpoint())
        ensure_plain(snapshot)
        fresh = self._engine(Simulator())
        fresh.restore(snapshot)
        assert fresh.epoch == engine.epoch
        assert (Admitter(fresh).admit(0).meta.psn
                == Admitter(engine).admit(0).meta.psn != psn)

    def test_checkpoint_requires_drained_queues(self):
        sim = Simulator()
        engine = self._engine(sim)
        Admitter(engine).admit(0)
        with pytest.raises(ValueError):
            engine.checkpoint()


class TestBfd:
    def test_link_round_trip(self):
        sim = Simulator()
        link = BfdLink(sim)
        # Between probes: none is on the wire.
        sim.run_until(SECOND + 10 * MS)
        assert link.sessions_up
        snapshot = json_round_trip([sim.checkpoint(), link.checkpoint()])
        ensure_plain(snapshot)
        assert snapshot[1]["a"]["state"] == BfdState.UP.value
        # A twin whose link is down, restored as RunHandle.restore_checkpoint
        # does: the simulator first.
        other_sim = Simulator()
        other = BfdLink(other_sim)
        other.set_down()
        other_sim.run_until(SECOND // 2)
        assert not other.sessions_up
        other_sim.restore(snapshot[0])
        other.restore(snapshot[1])
        assert other.up
        assert other.a.state is BfdState.UP
        assert other.a.probes_sent == snapshot[1]["a"]["probes_sent"]
        sim.run_until(2 * SECOND)
        other_sim.run_until(2 * SECOND)
        assert other.checkpoint() == link.checkpoint()


class TestRssDispatcher:
    def test_round_trip_indirection(self):
        class FakeCore:
            def __init__(self, core_id):
                self.core_id = core_id

        cores = [FakeCore(index) for index in range(4)]
        rss = RssDispatcher(cores)
        table = [(index * 3) % 4 for index in range(128)]
        rss.set_indirection(table)
        rss.dispatch(Packet(_flow(3)))
        snapshot = json_round_trip(rss.checkpoint())
        fresh = RssDispatcher(cores)
        fresh.restore(snapshot)
        assert fresh.checkpoint()["indirection"] == table
        assert fresh.dispatched == 1


class TestPlbDispatcher:
    def _dispatcher(self, core_count):
        class FakeCore:
            pass

        engine = ReorderEngine(Simulator(), ReorderQueueConfig(queue_count=2, depth=64),
                               lambda p, o: None)
        return PlbDispatcher([FakeCore() for _ in range(core_count)], engine)

    def test_rotation_continues_modulo_the_new_core_count(self):
        wide = self._dispatcher(4)
        for tenant in range(3):
            wide.dispatch(Packet(_flow(tenant)))
        snapshot = json_round_trip(wide.checkpoint())
        assert snapshot["rr_index"] == 3
        narrow = self._dispatcher(2)
        narrow.restore(snapshot)
        assert narrow.dispatched == 3
        assert narrow.dispatch(Packet(_flow(9))) is narrow.cores[1]


def _server_with_pod(seed=11, **spec_kwargs):
    sim = Simulator()
    rngs = RngRegistry(seed=seed)
    server = AlbatrossServer(sim, rngs)
    pod = server.add_pod(PodSpec(name="gw", data_cores=2, **spec_kwargs))
    return sim, rngs, server, pod


class TestPodCheckpoint:
    def test_idle_pod_quiescent_and_zero_in_flight(self):
        sim, _, _, pod = _server_with_pod()
        assert pod.nic.in_flight() == 0
        assert pod.quiescent()
        pod.ingress(Packet(_flow(1)))
        assert pod.nic.in_flight() == 1
        assert not pod.quiescent()
        sim.run_until(MS)
        assert pod.nic.in_flight() == 0
        assert pod.quiescent()
        assert pod.transmitted() == 1

    def test_checkpoint_is_plain_and_json_safe(self):
        sim, _, _, pod = _server_with_pod()
        for index in range(32):
            pod.ingress(Packet(_flow(index)))
        sim.run_until(MS)
        snapshot = pod.checkpoint()
        ensure_plain(snapshot)
        assert json_round_trip(snapshot) == snapshot

    def test_restore_into_fresh_pod_byte_identical(self):
        sim, _, _, pod = _server_with_pod()
        for index in range(32):
            pod.ingress(Packet(_flow(index)))
        sim.run_until(MS)
        snapshot = json_round_trip(pod.checkpoint())
        _, _, _, fresh = _server_with_pod(seed=999)
        fresh.restore(snapshot)
        assert snapshot_bytes(fresh.checkpoint()) == snapshot_bytes(snapshot)

    def test_restore_rejects_shape_mismatch(self):
        _, _, _, pod = _server_with_pod()
        snapshot = pod.checkpoint()
        sim = Simulator()
        server = AlbatrossServer(sim, RngRegistry(seed=1))
        other = server.add_pod(PodSpec(name="wide", data_cores=4))
        with pytest.raises(ValueError):
            other.restore(snapshot)

    def test_a_frozen_limiter_pod_resumes_its_sampler_on_another_registry(self):
        """A migration's freeze carries no registry: the pod's own snapshot
        repositions its limiter's sampler stream, the registry's left out."""
        sim, rngs, _, pod = _server_with_pod(limiter_stage1_pps=1_000)
        for index in range(64):
            pod.ingress(Packet(_flow(index)))
        sim.run_until(MS)
        snapshot = json_round_trip(pod.checkpoint())
        assert [name for name, _ in rngs.checkpoint()["streams"]] == []
        _, fresh_rngs, _, fresh = _server_with_pod(seed=555, limiter_stage1_pps=1_000)
        fresh.restore(snapshot)
        for name in ("limiter.gw", "pod.gw"):
            assert fresh_rngs.stream(name).getstate() == rngs.stream(name).getstate()
        assert snapshot_bytes(fresh.checkpoint()) == snapshot_bytes(snapshot)

    def test_verdict_rng_resumes(self):
        """The pod's ACL-roll rng continues from the frozen position."""
        sim, _, _, pod = _server_with_pod(acl_drop_probability=0.3)
        for index in range(64):
            pod.ingress(Packet(_flow(index)))
        sim.run_until(MS)
        snapshot = json_round_trip(pod.checkpoint())
        expected = [pod.rng.random() for _ in range(10)]
        _, _, _, fresh = _server_with_pod(seed=555, acl_drop_probability=0.3)
        fresh.restore(snapshot)
        assert [fresh.rng.random() for _ in range(10)] == expected


class TestRngOmissionRegression:
    """Every RNG-bearing component must carry its stream position.

    If a future checkpoint drops one of these entries, restored pods
    would silently diverge from the original after migration -- this
    test names the component that forgot.
    """

    def test_pod_checkpoint_names_every_rng(self):
        sim = Simulator()
        rngs = RngRegistry(seed=3)
        server = AlbatrossServer(sim, rngs)
        pod = server.add_pod(
            PodSpec(name="gw", data_cores=2, limiter_stage1_pps=1_000)
        )
        snapshot = pod.checkpoint()
        missing = []
        if "rng" not in snapshot:
            missing.append("GwPodRuntime.rng (verdict rolls)")
        if "rng" not in snapshot["nic"]["limiter"]["sampler"]:
            missing.append("TwoStageRateLimiter sampler (hitter detection)")
        assert not missing, f"checkpoint omits RNG state for: {missing}"


class TestShapeMismatch:
    """A snapshot restores only into a pod of the same shape: a member one
    side has and the other lacks raises instead of being dropped."""

    def _limited(self, **spec_kwargs):
        sim, _, _, pod = _server_with_pod(limiter_stage1_pps=1_000, **spec_kwargs)
        for index in range(64):
            pod.ingress(Packet(_flow(index)))
        sim.run_until(MS)
        return pod

    def test_limiter_snapshot_into_a_limiterless_pod_raises(self):
        snapshot = json_round_trip(self._limited().checkpoint())
        _, _, _, bare = _server_with_pod()
        with pytest.raises(ValueError, match="rate_limiter"):
            bare.restore(snapshot)

    def test_limiterless_snapshot_into_a_limiter_armed_pod_raises(self):
        _, _, _, bare = _server_with_pod()
        snapshot = json_round_trip(bare.checkpoint())
        armed = self._limited()
        with pytest.raises(ValueError, match="rate_limiter"):
            armed.restore(snapshot)

    def test_offload_snapshot_into_a_pod_without_one_raises(self):
        sim, _, _, pod = _server_with_pod()
        pod.nic.session_offload = FpgaSessionOffload(sim)
        snapshot = json_round_trip(pod.checkpoint())
        _, _, _, bare = _server_with_pod()
        with pytest.raises(ValueError, match="session_offload"):
            bare.restore(snapshot)
        bare.nic.session_offload = FpgaSessionOffload(bare.sim)
        bare.restore(snapshot)
        assert snapshot_bytes(bare.checkpoint()) == snapshot_bytes(snapshot)

    def test_offloadless_snapshot_into_a_pod_with_one_raises(self):
        _, _, _, bare = _server_with_pod()
        snapshot = json_round_trip(bare.checkpoint())
        sim, _, _, pod = _server_with_pod()
        pod.nic.session_offload = FpgaSessionOffload(sim)
        with pytest.raises(ValueError, match="session_offload"):
            pod.restore(snapshot)

    def test_core_count_mismatch_keeps_its_message(self):
        snapshot = self._limited().checkpoint()
        sim = Simulator()
        wide = AlbatrossServer(sim, RngRegistry(seed=1)).add_pod(
            PodSpec(name="gw", data_cores=3, limiter_stage1_pps=1_000)
        )
        with pytest.raises(ValueError, match="checkpoint has 2 cores, pod has 3"):
            wide.restore(snapshot)


class _Mode(enum.Enum):
    ON = "on"
    OFF = "off"


class _Gadget(Stateful):
    STATE = ("mode", ("ticks", "_ticks"), "rng", "table", "buckets", "tags",
             "by_mode", "history", "child")
    DERIVED = {"memo": "cache"}

    def __init__(self):
        self.mode = _Mode.OFF
        self._ticks = 0
        self.rng = derived_stream("gadget")
        self.table = Table()
        self.buckets = Table()
        self.tags = set()
        self.by_mode = {mode: 0 for mode in _Mode}
        self.history = deque()
        self.child = CounterSet()
        self.memo = {}

    def drive(self):
        self.mode = _Mode.ON
        self._ticks = 3
        self.rng.random()
        self.table.update({9: 1, 2: 5})
        self.buckets[7] = [0.5, 5 * MS]
        self.tags.update({"b", "a"})
        self.by_mode[_Mode.ON] += 2
        self.history.extend([1, 2])
        self.child.incr("seen")
        self.memo["x"] = 1
        return self


class TestSnapshotCodec:
    def test_state_walk_keys_values_and_order(self):
        snapshot = _Gadget().drive().checkpoint()
        assert list(snapshot) == ["mode", "ticks", "rng", "table", "buckets", "tags",
                                  "by_mode", "history", "child"]
        assert snapshot["mode"] == "on"
        assert snapshot["table"] == [[2, 5], [9, 1]]
        assert snapshot["buckets"] == [[7, [0.5, 5 * MS]]]
        assert snapshot["tags"] == ["a", "b"]
        assert snapshot["by_mode"] == {"on": 2, "off": 0}
        assert snapshot["history"] == [1, 2]
        assert snapshot["child"] == {"counts": {"seen": 1}}
        ensure_plain(snapshot)

    def test_restore_refills_containers_in_place(self):
        original = _Gadget().drive()
        snapshot = json_round_trip(original.checkpoint())
        fresh = _Gadget()
        containers = [fresh.table, fresh.buckets, fresh.tags, fresh.by_mode,
                      fresh.history, fresh.child.counts, fresh.rng]
        fresh.restore(snapshot)
        assert all(a is b for a, b in zip(
            [fresh.table, fresh.buckets, fresh.tags, fresh.by_mode,
             fresh.history, fresh.child.counts, fresh.rng], containers))
        assert fresh.mode is _Mode.ON
        assert snapshot_bytes(fresh.checkpoint()) == snapshot_bytes(snapshot)
        assert fresh.buckets[7] == snapshot["buckets"][0][1]
        assert fresh.rng.random() == original.rng.random()
        assert fresh.memo == {}

    def test_a_table_row_is_copied_out_and_back_in(self):
        original = _Gadget().drive()
        snapshot = original.checkpoint()
        assert snapshot["buckets"][0][1] is not original.buckets[7]
        fresh = _Gadget()
        fresh.restore(snapshot)
        assert fresh.buckets[7] is not snapshot["buckets"][0][1]
        fresh.buckets[7][0] -= 0.5
        assert snapshot["buckets"] == [[7, [0.5, 5 * MS]]]

    def test_a_value_the_codec_cannot_store_is_named(self):
        gadget = _Gadget()
        gadget.history = object()
        with pytest.raises(TypeError, match="_Gadget.history holds a object"):
            gadget.checkpoint()

    def test_a_non_string_dict_key_is_named(self):
        gadget = _Gadget()
        gadget.by_mode[3] = 1
        with pytest.raises(TypeError, match="_Gadget.by_mode has a int key 3"):
            gadget.checkpoint()

    def test_members_of_another_count_are_refused(self):
        class Pair(Stateful):
            STATE = ("parts",)

            def __init__(self, count):
                self.parts = [CounterSet() for _ in range(count)]

        with pytest.raises(ValueError, match="Pair.parts: the snapshot has 3 members"):
            Pair(2).restore(Pair(3).checkpoint())


class _Alarm(Stateful):
    """One pending event in ``STATE``, held as the sources hold theirs."""

    STATE = (("alarm", "_event"),)

    def __init__(self, sim, delay, log, name):
        self.sim = sim
        self._event = sim.schedule(delay, log.append, name)   # the handler is wiring


class TestPendingEvents:
    """The codec's one protocol: a snapshot's pending event goes back
    into its own ``(time, seq)`` slot."""

    def test_restored_events_fire_in_slot_order_before_later_ones(self):
        sim = Simulator()
        first, second = _Alarm(sim, 10, [], "first"), _Alarm(sim, 10, [], "second")
        state = json_round_trip({"sim": sim.checkpoint(), "first": first.checkpoint(),
                                 "second": second.checkpoint()})

        fresh, replay = Simulator(), []
        alarms = {name: _Alarm(fresh, 3, replay, name) for name in ("first", "second")}
        fresh.restore(state["sim"])
        # Restored in reverse: the slots, not the restore order, decide.
        for name in ("second", "first"):
            alarms[name].restore(state[name])
        assert (alarms["first"]._event.time, alarms["first"]._event.seq) == (10, 0)
        fresh.schedule(10, replay.append, "later")
        fresh.run()
        assert replay == ["first", "second", "later"]

    def test_an_event_already_in_its_slot_is_kept(self):
        def world():
            sim = Simulator()
            source = MicroburstSource(
                sim, RngRegistry(1).stream("s"), lambda packet: None,
                uniform_population(4), base_rate_pps=10_000, burst_period_ns=50 * MS,
            )
            return sim, source

        sim, source = world()
        edge = source._burst_event.time
        sim.run_until(edge - 1)       # ticks have fired, the first burst edge has not
        state = json_round_trip({"sim": sim.checkpoint(), "source": source.checkpoint()})
        twin_sim, twin = world()
        never_fired = twin._burst_event
        twin_sim.restore(state["sim"])
        twin.restore(state["source"])
        assert twin._burst_event is never_fired
        assert sum(1 for entry in twin_sim._heap if entry[4] is never_fired) == 1
        sim.run_until(edge + 1 * MS)
        twin_sim.run_until(edge + 1 * MS)
        assert twin.bursts_started == source.bursts_started == 1
        assert snapshot_bytes(twin.checkpoint()) == snapshot_bytes(source.checkpoint())

    def test_an_event_restored_into_an_object_without_one_is_refused(self):
        sim = Simulator()
        state = _Alarm(sim, 10, [], "a").checkpoint()
        empty = _Alarm(sim, 10, [], "b")
        empty._event.cancel()
        empty._event = None
        with pytest.raises(ValueError, match="_Alarm._event: the snapshot carries one"):
            empty.restore(state)

    def test_the_sequence_counter_never_moves_backwards(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1, lambda: None)
        with pytest.raises(SimulationError, match="sequence counter backwards to 2"):
            sim.restore({"now": 0, "events_processed": 0, "seq": 2})
        assert sim.seq == 3
        sim.restore({"now": 0, "events_processed": 0, "seq": 3})
        assert sim.schedule(1, lambda: None).seq == 3
