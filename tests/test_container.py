"""Container layer tests: SR-IOV VFs, fleet scheduling, elasticity."""

import pytest

from repro.container.elasticity import (
    ElasticityManager,
    POD_PREPARE_NS,
    VALIDATION_NS,
)
from repro.container.scheduler import FleetScheduler, PlacementError, ServerSpec
from repro.container.sriov import VfAllocator
from repro.sim import SECOND, Simulator


class TestVfAllocator:
    def test_standard_complement(self):
        """4 cards, 2 per NUMA node, 2 ports each."""
        allocator = VfAllocator()
        assert len(allocator.cards) == 4
        assert len(allocator.ports_on_node(0)) == 4
        assert len(allocator.ports_on_node(1)) == 4

    def test_pod_gets_four_vfs_with_queue_pairs(self):
        allocator = VfAllocator()
        vfs = allocator.allocate("gw", numa_node=0, data_cores=20)
        assert len(vfs) == 4
        assert all(vf.queue_pairs == 20 for vf in vfs)
        # Spread over both cards of the node.
        cards = {vf.port.card.card_index for vf in vfs}
        assert len(cards) == 2

    def test_vlan_ids_unique(self):
        allocator = VfAllocator()
        vfs_a = allocator.allocate("a", 0, 4)
        vfs_b = allocator.allocate("b", 0, 4)
        vlans = [vf.vlan_id for vf in vfs_a + vfs_b]
        assert len(set(vlans)) == len(vlans)

    def test_duplicate_allocation_rejected(self):
        allocator = VfAllocator()
        allocator.allocate("a", 0, 4)
        with pytest.raises(ValueError):
            allocator.allocate("a", 0, 4)

    def test_release(self):
        allocator = VfAllocator()
        allocator.allocate("a", 0, 4)
        assert allocator.release("a") == 4
        assert allocator.usable_vfs("a") == []

    def test_port_failure_affects_one_vf(self):
        """Appendix B HA goal: one port down costs one connection."""
        allocator = VfAllocator()
        allocator.allocate("gw", 0, 4)
        allocator.cards[0].ports[0].fail()
        assert len(allocator.usable_vfs("gw")) == 3
        assert allocator.pod_connected("gw")

    def test_card_failure_costs_two_vfs(self):
        allocator = VfAllocator()
        allocator.allocate("gw", 0, 4)
        allocator.cards[0].fail()
        assert len(allocator.usable_vfs("gw")) == 2
        assert allocator.pod_connected("gw")

    def test_total_failure_disconnects(self):
        allocator = VfAllocator()
        allocator.allocate("gw", 0, 4)
        for card in allocator.cards_on_node(0):
            card.fail()
        assert not allocator.pod_connected("gw")

    def test_recovery(self):
        allocator = VfAllocator()
        allocator.allocate("gw", 0, 4)
        allocator.cards[0].fail()
        allocator.cards[0].recover()
        assert len(allocator.usable_vfs("gw")) == 4

    def test_switch_wiring_independent(self):
        """Fig. B.2: the pod's four links go to four different switches."""
        allocator = VfAllocator()
        allocator.allocate("gw", 0, 4)
        allocator.wire_switches(["sw0", "sw1", "sw2", "sw3"])
        assert allocator.switch_failure_impact("gw", "sw0") == 1
        assert allocator.switch_failure_impact("gw", "sw3") == 1

    def test_fewer_switches_than_ports_share_uplinks(self):
        """Fig. B.2(a): two switches for four links -- one failure costs two."""
        allocator = VfAllocator()
        allocator.allocate("gw", 0, 4)
        allocator.wire_switches(["sw0", "sw1"])
        assert allocator.switch_failure_impact("gw", "sw0") == 2
        assert allocator.switch_failure_impact("gw", "sw1") == 2
        assert allocator.switch_failure_impact("gw", "sw9") == 0

    def test_second_node_uses_its_own_cards(self):
        allocator = VfAllocator()
        vfs = allocator.allocate("gw", numa_node=1, data_cores=8)
        assert {vf.port.card.card_index for vf in vfs} == {2, 3}
        assert all(vf.port.card.numa_node == 1 for vf in vfs)

    def test_node_without_enough_ports_rejected(self):
        allocator = VfAllocator(cards_per_node=1)
        with pytest.raises(ValueError, match="has 2 ports; need 4"):
            allocator.allocate("gw", 0, 4)
        assert "gw" not in allocator.allocations

    def test_release_unknown_pod_frees_nothing(self):
        allocator = VfAllocator()
        assert allocator.release("ghost") == 0
        assert not allocator.pod_connected("ghost")

    def test_release_detaches_vfs_from_ports(self):
        allocator = VfAllocator()
        allocator.allocate("a", 0, 4)
        allocator.release("a")
        assert all(not port.vfs for port in allocator.ports_on_node(0))
        allocator.allocate("a", 0, 4)  # the name is free again

    def test_vf_on_failed_port_starts_down(self):
        allocator = VfAllocator()
        allocator.cards[0].ports[0].fail()
        allocator.allocate("gw", 0, 4)
        assert len(allocator.usable_vfs("gw")) == 3
        allocator.cards[0].ports[0].recover()
        assert len(allocator.usable_vfs("gw")) == 4

    def test_text(self):
        allocator = VfAllocator()
        port = allocator.cards[1].ports[1]
        assert repr(port) == "<NicPort nic1p1 100G up>"
        port.fail()
        assert repr(port) == "<NicPort nic1p1 100G down>"
        assert repr(allocator.cards[3]) == "<NicCard 3 numa=1>"
        vf = allocator.allocate("gw", 0, 6)[0]
        assert repr(vf) == f"<VF pod=gw port=nic0p0 vlan={vf.vlan_id} q=6>"


class TestFleetScheduler:
    def _fleet(self, servers=8):
        return FleetScheduler([ServerSpec(f"s{index}") for index in range(servers)])

    def test_fig15_consolidation(self):
        """32 pods of 22 cores pack onto 8 dual-NUMA servers."""
        fleet = self._fleet(8)
        fleet.place_all([(f"gw{index}", 22, 64) for index in range(32)])
        assert fleet.servers_used() == 8
        assert len(fleet.pods_on("s0")) == 4

    def test_numa_affinity_respected(self):
        """A 60-core pod cannot split across two 48-core nodes."""
        fleet = self._fleet(1)
        with pytest.raises(PlacementError):
            fleet.place_pod("big", cores=60)

    def test_two_44_core_pods_per_server(self):
        fleet = self._fleet(1)
        fleet.place_pod("a", 46)
        fleet.place_pod("b", 46)
        with pytest.raises(PlacementError):
            fleet.place_pod("c", 46)

    def test_consolidation_prefers_loaded_servers(self):
        fleet = self._fleet(4)
        fleet.place_pod("a", 10)
        fleet.place_pod("b", 10)
        placements = fleet.placements
        assert placements["a"][0] == placements["b"][0]

    def test_memory_constraint(self):
        fleet = FleetScheduler([ServerSpec("s0", memory_gb_per_node=64)])
        fleet.place_pod("a", 4, memory_gb=64)
        node_a = fleet.placements["a"][1]
        fleet.place_pod("b", 4, memory_gb=64)
        assert fleet.placements["b"][1] != node_a

    def test_evict(self):
        fleet = self._fleet(1)
        fleet.place_pod("a", 46)
        assert fleet.evict_pod("a")
        assert not fleet.evict_pod("a")
        fleet.place_pod("b", 46)

    def test_duplicate_rejected(self):
        fleet = self._fleet(1)
        fleet.place_pod("a", 4)
        with pytest.raises(ValueError):
            fleet.place_pod("a", 4)

    def test_utilization(self):
        fleet = self._fleet(1)
        assert fleet.utilization() == 0.0
        fleet.place_pod("a", 48)
        assert fleet.utilization() == pytest.approx(0.5)

    def test_max_pods_cap(self):
        fleet = FleetScheduler([ServerSpec("s0", max_pods=1)])
        fleet.place_pod("a", 4)
        with pytest.raises(PlacementError):
            fleet.place_pod("b", 4)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetScheduler([])

    def test_place_all_is_largest_first(self):
        pods = [("a", 12, 64), ("b", 12, 64), ("c", 36, 64), ("d", 36, 64)]
        # In the given order the two small pods share node 0 and strand
        # the second 36-core pod.
        in_order = self._fleet(1)
        with pytest.raises(PlacementError):
            for name, cores, memory_gb in pods:
                in_order.place_pod(name, cores, memory_gb)
        placements = self._fleet(1).place_all(pods)
        assert placements == {
            "c": ("s0", 0), "d": ("s0", 1), "a": ("s0", 0), "b": ("s0", 1),
        }

    def test_unknown_server_rejected(self):
        with pytest.raises(ValueError, match="unknown server"):
            self._fleet(1).pods_on("nope")

    def test_reschedule_avoids_excluded_server(self):
        fleet = self._fleet(2)
        server, _ = fleet.place_pod("a", 20)
        other = "s1" if server == "s0" else "s0"
        assert fleet.reschedule_pod("a", exclude_servers={server})[0] == other
        assert fleet.pods_on(server) == []
        assert fleet.pods_on(other) == ["a"]

    def test_reschedule_unknown_pod_rejected(self):
        with pytest.raises(ValueError, match="unknown pod"):
            self._fleet(1).reschedule_pod("ghost")

    def test_reschedule_without_room_leaves_pod_evicted(self):
        fleet = self._fleet(1)
        fleet.place_pod("a", 20)
        with pytest.raises(PlacementError):
            fleet.reschedule_pod("a", exclude_servers={"s0"})
        assert "a" not in fleet.placements
        assert fleet.utilization() == 0.0


class TestElasticity:
    def _manager(self, sim, validate=True):
        events = []
        manager = ElasticityManager(
            sim,
            prepare_fn=lambda name: events.append(("prepare", name, sim.now)),
            validate_fn=lambda name: validate,
            advertise_fn=lambda name: events.append(("advertise", name, sim.now)),
            withdraw_fn=lambda name: events.append(("withdraw", name, sim.now)),
        )
        return manager, events

    def test_make_before_break_ordering(self):
        """§7: the new pod advertises BEFORE the old pod withdraws."""
        sim = Simulator()
        manager, events = self._manager(sim)
        plan = manager.start_migration("old", "new")
        sim.run_until(60 * SECOND)
        assert plan.phase == "done"
        kinds = [(kind, name) for kind, name, _ in events]
        assert kinds == [
            ("prepare", "new"),
            ("advertise", "new"),
            ("withdraw", "old"),
        ]
        advertise_time = events[1][2]
        withdraw_time = events[2][2]
        assert withdraw_time - advertise_time >= VALIDATION_NS

    def test_pod_ready_in_10_seconds(self):
        sim = Simulator()
        manager, events = self._manager(sim)
        manager.start_migration("old", "new")
        sim.run_until(POD_PREPARE_NS)
        assert events[0] == ("prepare", "new", POD_PREPARE_NS)

    def test_failed_validation_rolls_back(self):
        sim = Simulator()
        manager, events = self._manager(sim, validate=False)
        plan = manager.start_migration("old", "new")
        sim.run_until(60 * SECOND)
        assert plan.phase == "failed"
        kinds = [(kind, name) for kind, name, _ in events]
        # The *new* pod's route is withdrawn; the old pod keeps serving.
        assert ("withdraw", "new") in kinds
        assert ("withdraw", "old") not in kinds

    def test_invalid_phase_rejected(self):
        from repro.container.elasticity import MigrationPlan

        plan = MigrationPlan("a", "b")
        with pytest.raises(ValueError):
            plan.advance("bogus", 0)
