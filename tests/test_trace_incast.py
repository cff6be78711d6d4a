"""Tests for the packet tracer and incast workload."""

import pytest

from repro.core.gateway import AlbatrossServer, PodConfig
from repro.core.offload import FpgaSessionOffload
from repro.metrics.trace import PacketTracer
from repro.sim import MS, RngRegistry, Simulator, US
from repro.workloads.generators import CbrSource, uniform_population
from repro.workloads.incast import IncastEvent, periodic_incast


def make_pod(data_cores=2, mode="plb"):
    sim = Simulator()
    rngs = RngRegistry(seed=37)
    server = AlbatrossServer(sim, rngs)
    pod = server.add_pod(PodConfig(name="gw", data_cores=data_cores, mode=mode))
    return sim, rngs, pod


def traced_pod(mode="plb", **tracer_kwargs):
    sim, rngs, pod = make_pod(mode=mode)
    tracer = PacketTracer(**tracer_kwargs)
    pod.subscribers.append(tracer)
    return sim, rngs, pod, tracer


class TestPacketTracer:
    @pytest.mark.parametrize("mode", ["plb", "rss"])
    def test_stages_recorded_in_order(self, mode):
        sim, rngs, pod, tracer = traced_pod(mode=mode)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        sim.run_until(5 * MS)
        completed = tracer.completed_traces()
        assert len(completed) == pod.transmitted() > 100
        for trace in completed:
            assert trace.stages == ["ingress", "cpu_start", "cpu_done", "egress"]
            times = [timestamp for _, timestamp in trace.events]
            assert times == sorted(times)

    def test_fpga_fast_path_skips_the_cpu_stages(self):
        sim, rngs, pod, tracer = traced_pod()
        pod.nic.session_offload = FpgaSessionOffload(sim, capacity=64)
        population = uniform_population(8)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=200_000)
        sim.run_until(5 * MS)
        fast = [
            trace for trace in tracer.completed_traces()
            if trace.stages == ["ingress", "egress"]
        ]
        assert len(fast) == pod.outcomes["fpga_fast_path"] > 100

    def test_breakdown_matches_latency_model(self):
        sim, rngs, pod, tracer = traced_pod()
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        sim.run_until(10 * MS)
        breakdown = tracer.breakdown()
        # Unloaded: RX segment == NIC RX latency (3.90 us), TX segment ==
        # DMA TX + PLB TX + deparser (4.17 us).
        assert breakdown["nic_rx_and_queue"] == pytest.approx(3.90 * US, abs=100)
        assert breakdown["nic_tx_and_reorder"] == pytest.approx(4.17 * US, abs=100)
        assert breakdown["cpu_service"] == pytest.approx(
            pod.chain.expected_service_ns(), rel=0.05
        )
        assert breakdown["total"] == pytest.approx(
            pod.latency_histogram.mean_ns, rel=0.02
        )

    def test_sampling(self):
        sim, rngs, pod, tracer = traced_pod(sample_every=10)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        sim.run_until(5 * MS)
        assert len(tracer.traces) == pytest.approx(
            pod.counters.get("rx_packets") / 10, abs=2
        )

    def test_sampling_traces_first_packet_of_each_stride(self):
        # Regression: `seen % N == 0` skipped the first N-1 packets, so a
        # short run with a sparse sampler traced nothing.  The first
        # packet of every stride must be traced.
        sim, rngs, pod, tracer = traced_pod(sample_every=100)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        # Long enough for a handful of packets, far fewer than 100.
        sim.run_until(200 * US)
        assert pod.counters.get("rx_packets") < 100
        assert len(tracer.traces) == 1

    def test_max_traces_cap(self):
        sim, rngs, pod, tracer = traced_pod(max_traces=50)
        population = uniform_population(10)
        CbrSource(sim, rngs.stream("t"), pod.ingress, population, rate_pps=50_000)
        sim.run_until(5 * MS)
        assert len(tracer.traces) == 50


class TestIncast:
    def test_event_emits_during_window_only(self):
        sim = Simulator()
        rngs = RngRegistry(seed=41)
        received = []
        event = IncastEvent(
            sim,
            rngs.stream("incast"),
            lambda packet: received.append(sim.now),
            senders=16,
            per_sender_pps=10_000,
            start_ns=2 * MS,
            duration_ns=3 * MS,
        )
        sim.run_until(10 * MS)
        assert event.emitted == pytest.approx(16 * 10_000 * 0.003, rel=0.05)
        assert min(received) >= 2 * MS
        assert max(received) <= 5 * MS + 100

    def test_flows_share_destination(self):
        sim = Simulator()
        rngs = RngRegistry(seed=41)
        packets = []
        IncastEvent(
            sim, rngs.stream("incast"), packets.append,
            senders=8, per_sender_pps=50_000, start_ns=0, duration_ns=1 * MS,
        )
        sim.run_until(2 * MS)
        destinations = {packet.flow.dst_ip for packet in packets}
        sources = {packet.flow.src_ip for packet in packets}
        assert len(destinations) == 1
        assert len(sources) > 1

    def test_periodic_scheduler(self):
        sim = Simulator()
        rngs = RngRegistry(seed=41)
        events = periodic_incast(
            sim, rngs.stream("incast"), lambda packet: None,
            period_ns=10 * MS, horizon_ns=45 * MS,
            senders=4, per_sender_pps=1000, duration_ns=1 * MS,
        )
        assert len(events) == 4
        sim.run_until(50 * MS)
        assert all(event.emitted > 0 for event in events)

    def test_incast_spreads_under_plb(self):
        """The §3.1 motivation: PLB absorbs incast that RSS concentrates."""
        results = {}
        for mode in ("rss", "plb"):
            sim, rngs, pod = make_pod(data_cores=4, mode=mode)
            # 3 synchronized senders onto 4 cores: under RSS at least one
            # core sits idle while others absorb whole flows (pigeonhole);
            # under PLB every burst packet is sprayed.
            IncastEvent(
                sim,
                rngs.stream("incast"),
                pod.ingress,
                senders=3,
                per_sender_pps=300_000,
                start_ns=0,
                duration_ns=20 * MS,
            )
            sim.run_until(25 * MS)
            utils = pod.core_utilizations(20 * MS)
            results[mode] = max(utils) - min(utils)
        assert results["plb"] < 0.05
        assert results["rss"] > 0.25
