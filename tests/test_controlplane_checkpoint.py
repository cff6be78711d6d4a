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

import json
import random

import pytest

from repro.bgp.bfd import BfdLink, BfdState
from repro.controlplane import ensure_plain, snapshot_bytes
from repro.controlplane.snapshot import SimCheckpointer
from repro.core import AlbatrossServer
from repro.core.plb.reorder import ReorderEngine, ReorderQueueConfig
from repro.core.ratelimit import TwoStageRateLimiter
from repro.core.rss import RssDispatcher
from repro.metrics.counters import CounterSet
from repro.metrics.histogram import LatencyHistogram
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet
from repro.scenarios import PodSpec
from repro.sim import RngRegistry, Simulator
from repro.sim.rng import rng_state, set_rng_state
from repro.sim.units import MS, SECOND
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
    def _filled(self, count=5000, **kwargs):
        histogram = LatencyHistogram(**kwargs)
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
        assert fresh.to_dict() == histogram.to_dict()
        assert fresh.percentile(0.99) == histogram.percentile(0.99)

    def test_rng_position_carried(self):
        """The reservoir rng resumes: both sides sample identically."""
        # A tiny reservoir so the 5000 records above actually consult
        # the rng (eviction decisions), making divergence observable.
        histogram = self._filled(max_samples=100)
        snapshot = json_round_trip(histogram.checkpoint())
        fresh = LatencyHistogram()
        fresh.restore(snapshot)
        for value in range(1000, 200_000, 1000):
            histogram.record(value)
            fresh.record(value)
        assert fresh.to_dict() == histogram.to_dict()

    def test_checkpoint_carries_rng(self):
        assert "rng" in self._filled().checkpoint()


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
        sim.run_until(SECOND)
        assert link.sessions_up
        snapshot = json_round_trip(link.checkpoint())
        ensure_plain(snapshot)
        assert snapshot["a"]["state"] == BfdState.UP.value
        link.set_down()
        sim.run_until(2 * SECOND)
        assert not link.sessions_up
        link.restore(snapshot)
        assert link.up
        assert link.a.state is BfdState.UP
        assert link.a.probes_sent == snapshot["a"]["probes_sent"]


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
        assert fresh.indirection_table == table
        assert fresh.dispatched == 1


def _server_with_pod(seed=11, **spec_kwargs):
    sim = Simulator()
    rngs = RngRegistry(seed=seed)
    server = AlbatrossServer(sim, rngs)
    pod = server.add_pod(PodSpec(name="gw", data_cores=2, **spec_kwargs))
    return sim, rngs, server, pod


class TestPodCheckpoint:
    def test_idle_pod_quiescent_and_zero_in_flight(self):
        sim, _, _, pod = _server_with_pod()
        assert pod.in_flight() == 0
        assert pod.quiescent()
        pod.ingress(Packet(_flow(1)))
        assert pod.in_flight() == 1
        assert not pod.quiescent()
        sim.run_until(MS)
        assert pod.in_flight() == 0
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
        fresh.restore_state(snapshot)
        assert snapshot_bytes(fresh.checkpoint()) == snapshot_bytes(snapshot)

    def test_restore_rejects_shape_mismatch(self):
        _, _, _, pod = _server_with_pod()
        snapshot = pod.checkpoint()
        sim = Simulator()
        server = AlbatrossServer(sim, RngRegistry(seed=1))
        other = server.add_pod(PodSpec(name="wide", data_cores=4))
        with pytest.raises(ValueError):
            other.restore_state(snapshot)

    def test_verdict_rng_resumes(self):
        """The pod's ACL-roll rng continues from the frozen position."""
        sim, _, _, pod = _server_with_pod(acl_drop_probability=0.3)
        for index in range(64):
            pod.ingress(Packet(_flow(index)))
        sim.run_until(MS)
        snapshot = json_round_trip(pod.checkpoint())
        expected = [pod.rng.random() for _ in range(10)]
        _, _, _, fresh = _server_with_pod(seed=555, acl_drop_probability=0.3)
        fresh.restore_state(snapshot)
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
        if "rng" not in snapshot["latency"]:
            missing.append("LatencyHistogram (reservoir sampling)")
        if "rng" not in snapshot["nic"]["limiter"]["sampler"]:
            missing.append("TwoStageRateLimiter sampler (hitter detection)")
        assert not missing, f"checkpoint omits RNG state for: {missing}"
