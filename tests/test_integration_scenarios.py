"""Cross-module integration scenarios.

These wire several subsystems together the way production does:

* protocol prioritization keeping BFD alive through data-plane saturation;
* two pods on one server staying isolated;
* make-before-break migration driving real BGP speakers;
* the full VF + switch fabric surviving failures.
"""

import pytest

from repro.bgp.bfd import BfdState, bfd_pair
from repro.container.elasticity import ElasticityManager
from repro.container.sriov import VfAllocator
from repro.core.gateway import AlbatrossServer
from repro.packet.flows import FlowKey
from repro.packet.packet import Packet, PacketKind
from repro.scenarios import PodSpec
from repro.sim import MS, RngRegistry, SECOND, Simulator
from repro.workloads.generators import CbrSource, uniform_population


class TestPrioritySurvivesSaturation:
    """§4.3 GOP technique 2: data-plane overload must not drop BFD."""

    def _saturated_pod(self):
        sim = Simulator()
        rngs = RngRegistry(seed=17)
        server = AlbatrossServer(sim, rngs)
        # A 50 Kpps/core synthetic service: the same 2x overload over the
        # same windows (BFD: four 60 ms detection times), ~1/20 the packets.
        pod = server.add_pod(PodSpec(
            name="gw", data_cores=2, rx_capacity=128, per_core_pps=50_000,
        ))
        population = uniform_population(100, tenants=10)
        capacity = pod.expected_capacity_mpps() * 1e6
        CbrSource(
            sim,
            rngs.stream("flood"),
            pod.ingress,
            population,
            rate_pps=int(capacity * 2),  # 2x overload
        )
        return sim, pod

    def test_data_plane_drops_but_protocol_passes(self):
        sim, pod = self._saturated_pod()
        protocol_population = uniform_population(1)
        bfd_sent = []

        def send_bfd():
            packet = Packet(
                FlowKey(1, 2, 3784, 3784, 17), kind=PacketKind.PROTOCOL
            )
            bfd_sent.append(packet)
            pod.ingress(packet)

        sim.every(10 * MS, send_bfd)
        sim.run_until(80 * MS)
        sim.run_until(82 * MS)  # drain the probe sent on the boundary
        # Data plane is overloaded and dropping...
        drops = pod.counters.get("rx_queue_drops") + pod.counters.get(
            "reorder_fifo_drops"
        )
        assert drops > 1000
        # ...yet every BFD probe was delivered through the priority path.
        assert pod.nic.priority.delivered == len(bfd_sent)
        assert pod.nic.priority.dropped == 0

    def test_bfd_survives_when_routed_through_priority_path(self):
        """End-to-end: a BFD session whose probes ride the priority path
        of a saturated pod never flaps."""
        sim, pod = self._saturated_pod()

        # Probes traverse the pod's priority queue: deliver them to the
        # remote endpoint once the ctrl core has processed them.
        pending = []
        pod.nic.priority.deliver_fn = lambda packet: pending.append(packet)

        def transport(data):
            # The probe traverses the saturated pod as a protocol packet;
            # delivery to the remote endpoint mirrors the priority path.
            packet = Packet(FlowKey(9, 9, 3784, 3784, 17), kind=PacketKind.PROTOCOL)
            pod.ingress(packet)
            sim.schedule(1 * MS, remote.receive, data)

        # Build a local BFD endpoint that sends via the saturated pod.
        from repro.bgp.bfd import BfdSession

        downs = []
        local = BfdSession(
            sim, "local", transport, interval_ns=20 * MS,
            on_down=lambda s: downs.append(sim.now),
        )
        remote = BfdSession(
            sim, "remote", lambda data: sim.schedule(1 * MS, local.receive, data),
            interval_ns=20 * MS,
            on_down=lambda s: downs.append(sim.now),
        )
        sim.run_until(250 * MS)
        assert local.state is BfdState.UP
        assert remote.state is BfdState.UP
        assert not downs


class TestMultiPodIsolation:
    def test_one_pod_overload_does_not_touch_the_other(self):
        sim = Simulator()
        rngs = RngRegistry(seed=19)
        server = AlbatrossServer(sim, rngs)
        victim = server.add_pod(PodSpec(name="victim", data_cores=2, numa_node=0))
        quiet = server.add_pod(PodSpec(name="quiet", data_cores=2, numa_node=1))
        population = uniform_population(50, tenants=5)
        capacity = victim.expected_capacity_mpps() * 1e6
        CbrSource(
            sim, rngs.stream("flood"), victim.ingress, population,
            rate_pps=int(capacity * 3),
        )
        CbrSource(
            sim, rngs.stream("calm"), quiet.ingress, population,
            rate_pps=int(capacity * 0.2),
        )
        sim.run_until(100 * MS)
        # The quiet pod delivered everything with normal latency.
        assert quiet.counters.get("rx_queue_drops", ) == 0
        assert quiet.latency_histogram.percentile(0.99) < 30_000
        # The flooded pod is visibly overloaded.
        assert (
            victim.counters.get("rx_queue_drops")
            + victim.counters.get("reorder_fifo_drops")
        ) > 0


class TestElasticityWithBgp:
    def test_migration_drives_route_state(self):
        """The §7 elasticity playbook against real speakers: new pod's
        route present before and after; old pod's gone only at cutover."""
        from repro.bgp.fsm import establish_pair
        from repro.bgp.speaker import BgpSpeaker
        from repro.bgp.switch import UplinkSwitch

        sim = Simulator()
        switch = UplinkSwitch(sim, "switch")
        old_pod = BgpSpeaker(sim, "old", 65001, 0x0A000001)
        new_pod = BgpSpeaker(sim, "new", 65002, 0x0A000002)
        establish_pair(sim, old_pod, switch, hold_time_s=9)
        establish_pair(sim, new_pod, switch, hold_time_s=9)
        sim.run_until(1 * SECOND)
        vip = (0x0A640000, 32)
        old_pod.advertise(*vip)
        sim.run_until(2 * SECOND)

        speakers = {"old": old_pod, "new": new_pod}
        manager = ElasticityManager(
            sim,
            prepare_fn=lambda name: None,
            validate_fn=lambda name: switch.knows_route(*vip),
            advertise_fn=lambda name: speakers[name].advertise(*vip),
            withdraw_fn=lambda name: speakers[name].withdraw(*vip),
        )
        plan = manager.start_migration("old", "new")
        sim.run_until(2 * SECOND + 60 * SECOND)
        assert plan.phase == "done"
        # The switch still reaches the VIP -- via the new pod only.
        routes = switch.rib[vip]
        assert set(routes) == {"new"}

    def test_failed_validation_keeps_old_route(self):
        sim = Simulator()
        advertised = set()
        manager = ElasticityManager(
            sim,
            prepare_fn=lambda name: None,
            validate_fn=lambda name: False,
            advertise_fn=advertised.add,
            withdraw_fn=advertised.discard,
        )
        advertised.add("old")
        plan = manager.start_migration("old", "new")
        sim.run_until(60 * SECOND)
        assert plan.phase == "failed"
        assert "old" in advertised
        assert "new" not in advertised


class TestVfFabric:
    def test_switch_failure_costs_each_pod_one_link(self):
        allocator = VfAllocator()
        allocator.allocate("gw-a", 0, 8)
        allocator.allocate("gw-b", 1, 8)
        allocator.wire_switches(["sw0", "sw1", "sw2", "sw3"])
        for pod in ("gw-a", "gw-b"):
            for switch in ("sw0", "sw1", "sw2", "sw3"):
                assert allocator.switch_failure_impact(pod, switch) == 1

    def test_pods_share_ports_but_not_vfs(self):
        allocator = VfAllocator()
        vfs_a = allocator.allocate("gw-a", 0, 4)
        vfs_b = allocator.allocate("gw-b", 0, 4)
        assert {vf.port.name for vf in vfs_a} == {vf.port.name for vf in vfs_b}
        assert not set(vfs_a) & set(vfs_b)
