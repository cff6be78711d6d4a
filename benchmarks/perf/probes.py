"""Layer probes: direct calls into one layer's public functions.

Each probe runs a fixed number of operations against one layer with
null sinks on either side, so its cost is that layer's alone (a
``cProfile`` share is not: profiling inflates call-heavy layers).  Op
counts and inputs are constants; only the host time varies.  Each value
is the median of ``TRIALS`` trials.
"""

import os
import random
import statistics
import time

from repro.controlplane.snapshot import snapshot_bytes
from repro.core.hitters import SpaceSavingSketch
from repro.core.plb import PlbDispatcher, ReorderEngine
from repro.core.plb.reorder import ReorderQueueConfig
from repro.core.ratelimit import TwoStageRateLimiter
from repro.fleet import pool_map
from repro.metrics.histogram import LatencyHistogram
from repro.packet.flows import flow_for_tenant
from repro.packet.packet import Packet
from repro.runs import RunStore, spec_fingerprint
from repro.scenarios import ScenarioSpec, build, scenario_spec
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.topology import DpuPreClassifier, EcmpUplink, HotFlowPromoter
from repro.workloads import CbrSource, uniform_population
from workloads import WORKLOADS

TRIALS = 3
OPS = 40_000
SMOKE_OPS = 2_000


def _null(*_args):
    pass


def _identity(payload):
    return payload


def _median_of(trial):
    return statistics.median(trial() for _ in range(TRIALS))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _packets(count, flows):
    return [
        Packet(flow_for_tenant(index % flows, index % flows), vni=index % flows)
        for index in range(count)
    ]


def _sim_ns_per_event(ops):
    def trial():
        sim = Simulator()

        def work():
            for delay in range(ops):
                sim.schedule(delay, _null)
            sim.run()

        return _timed(work) / ops * 1e9

    return _median_of(trial)


def _cbr_ns_per_pkt(ops):
    population = uniform_population(64, tenants=4)

    def trial():
        sim = Simulator()
        source = CbrSource(sim, random.Random(1), _null, population, 1_000_000)
        wall = _timed(lambda: sim.run_until(ops * US))
        return wall / source.emitted * 1e9

    return _median_of(trial)


def _histogram_record_ns(ops):
    values = [10_000 + (index * 7919) % 50_000 for index in range(ops)]

    def trial():
        record = LatencyHistogram().record

        def work():
            for value in values:
                record(value)

        return _timed(work) / ops * 1e9

    return _median_of(trial)


def _reorder_rig():
    sim = Simulator()
    reorder = ReorderEngine(sim, ReorderQueueConfig(queue_count=1), _null)
    dispatcher = PlbDispatcher([object()] * 4, reorder, lambda: sim.now)
    return sim, reorder, dispatcher


def _plb_inorder_ns_per_pkt(ops):
    def trial():
        sim, reorder, dispatcher = _reorder_rig()
        packets = _packets(ops, 64)
        flush_ns = 2 * reorder.config.timeout_ns

        def work():
            for index, packet in enumerate(packets):
                dispatcher.dispatch(packet)
                reorder.writeback(packet)
                if not index & 255:
                    # Pop the cancelled head-timeout events, as a running
                    # simulation would, so the heap stays small.
                    sim.run_until(sim.now + flush_ns)

        return _timed(work) / ops * 1e9

    return _median_of(trial)


def _plb_timeout_ns_per_pkt(ops):
    """Batches of 8 whose first PSN is withheld until the head times out."""
    batch = 8

    def trial():
        sim, reorder, dispatcher = _reorder_rig()
        packets = _packets(ops - ops % batch, 64)
        timeout_ns = reorder.config.timeout_ns

        def work():
            for start in range(0, len(packets), batch):
                group = packets[start:start + batch]
                for packet in group:
                    dispatcher.dispatch(packet)
                for packet in group[1:]:
                    reorder.writeback(packet)
                sim.run_until(sim.now + timeout_ns)
                reorder.writeback(group[0])

        return _timed(work) / len(packets) * 1e9

    return _median_of(trial)


def _ratelimit_admit_ns(ops):
    def trial():
        limiter = TwoStageRateLimiter(
            random.Random(1), stage1_rate_pps=400, stage2_rate_pps=100
        )
        admit = limiter.admit

        def work():
            for index in range(ops):
                admit(index % 1024, index * 5_000)

        return _timed(work) / ops * 1e9

    return _median_of(trial)


def _drained_pod():
    """The burst-limited pod after 40 ms, sources stopped, drained."""
    workload = WORKLOADS["pod-burst-limited"]
    spec = workload.shards(1)[0].spec.with_overrides(duration_ns=40 * MS)
    handle = build(spec)
    workload.arm(handle)
    handle.run()
    for source in handle.sources:
        source.stop()
    handle.run(5 * MS)
    if not handle.pod.quiescent():
        raise RuntimeError("probe pod did not drain")
    return handle


def _checkpoint_probes():
    handle = _drained_pod()
    pod = handle.pod
    checkpoint_ms = _median_of(lambda: _timed(pod.checkpoint) * 1e3)
    snapshot = pod.checkpoint()
    restore_ms = _median_of(lambda: _timed(lambda: pod.restore_state(snapshot)) * 1e3)
    return {
        "controlplane.checkpoint_ms": checkpoint_ms,
        "controlplane.restore_ms": restore_ms,
        "controlplane.snapshot_kib": len(snapshot_bytes(snapshot)) / 1024,
    }, handle.report()


def _population_ns_per_flow(ops):
    return _median_of(
        lambda: _timed(lambda: uniform_population(ops, tenants=ops)) / ops * 1e9
    )


def _spec_roundtrip_us(ops):
    spec = scenario_spec("az-steady", servers=8, tenants=100_000)
    rounds = max(1, ops // 100)

    def work():
        for _ in range(rounds):
            spec_fingerprint(ScenarioSpec.from_dict(spec.to_dict()))

    return _median_of(lambda: _timed(work) / rounds * 1e6)


def _atomic_write_ms(tmp, report):
    run = RunStore(tmp).create("probe", 1, [], run_id="probe")
    result = {"index": 0, "axes": {}, "report": report}
    return _median_of(
        lambda: _timed(lambda: run.record_shard(0, "probe", result)) * 1e3
    )


def _uplink(sinks=4):
    return EcmpUplink([(f"srv{index}", _null) for index in range(sinks)])


def _topology_forward_ns(ops):
    def trial():
        uplink = _uplink()
        packets = _packets(ops, 1024)
        for packet in packets[:1024]:
            uplink.forward(packet)

        def work():
            for packet in packets:
                uplink.forward(packet)

        return _timed(work) / ops * 1e9

    return _median_of(trial)


def _topology_first_seen_ns(ops):
    def trial():
        uplink = _uplink()
        packets = _packets(ops, ops)

        def work():
            for packet in packets:
                uplink.forward(packet)

        return _timed(work) / ops * 1e9

    return _median_of(trial)


def _dpu_ingress_ns(ops):
    """Half the flows installed in the fast table, half falling through."""
    def trial():
        sim = Simulator()
        dpu = DpuPreClassifier(sim, _null, table_capacity=256)
        dpu.promoter = HotFlowPromoter(sim, dpu)
        packets = _packets(ops, 512)
        for packet in packets[:512:2]:
            dpu.promote(packet.flow)

        def work():
            for packet in packets:
                dpu.ingress(packet)

        return _timed(work) / ops * 1e9

    return _median_of(trial)


def _hitters_observe_ns(ops):
    """Nine in ten observations hit 512 tracked keys, one in ten evicts."""
    keys = [
        index % 512 if index % 10 else 1_000 + index for index in range(ops // 4)
    ]

    def trial():
        observe = SpaceSavingSketch(1024).observe

        def work():
            for key in keys:
                observe(key)

        return _timed(work) / len(keys) * 1e9

    return _median_of(trial)


def _histogram_merge_ms(ops):
    shards = []
    for shard in range(4):
        histogram = LatencyHistogram(seed=shard)
        for index in range(ops // 4):
            histogram.record(10_000 + (index * 7919 + shard) % 50_000)
        shards.append(histogram)

    def trial():
        merged = LatencyHistogram()

        def work():
            for histogram in shards:
                merged.merge(histogram)

        return _timed(work) * 1e3

    return _median_of(trial)


def _pool_spawn_ms():
    return _median_of(
        lambda: _timed(lambda: pool_map(_identity, [0, 1, 2, 3], workers=2)) * 1e3
    )


def run_probes(tmp, smoke=False):
    """Every probe, by per-layer metric name."""
    ops = SMOKE_OPS if smoke else OPS
    values, report = _checkpoint_probes()
    values.update({
        "sim.ns_per_event": _sim_ns_per_event(ops),
        "workloads.cbr_ns_per_pkt": _cbr_ns_per_pkt(ops),
        "workloads.population_ns_per_flow": _population_ns_per_flow(ops),
        "metrics.record_ns": _histogram_record_ns(ops),
        "metrics.merge_ms": _histogram_merge_ms(ops),
        "core.plb.inorder_ns_per_pkt": _plb_inorder_ns_per_pkt(ops),
        "core.plb.timeout_ns_per_pkt": _plb_timeout_ns_per_pkt(ops),
        "core.ratelimit.admit_ns": _ratelimit_admit_ns(ops),
        "core.hitters.observe_ns": _hitters_observe_ns(ops),
        "scenarios.spec_roundtrip_us": _spec_roundtrip_us(ops),
        "runs.atomic_write_ms": _atomic_write_ms(os.path.join(tmp, "probe-runs"), report),
        "topology.forward_ns": _topology_forward_ns(ops),
        "topology.first_seen_ns": _topology_first_seen_ns(ops),
        "topology.dpu_ingress_ns": _dpu_ingress_ns(ops),
        "fleet.pool_spawn_ms": _pool_spawn_ms(),
    })
    return values
