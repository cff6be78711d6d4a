"""NUMA topology/balancer and stateful-NF model tests."""

import pytest

from repro.cpu.numa import NumaBalancer, NumaTopology
from repro.cpu.stateful import StatefulNfModel, write_heavy_nf, write_light_nf
from repro.sim import MS, Simulator


class TestTopology:
    def test_default_albatross_shape(self):
        topology = NumaTopology()
        assert [node.core_count for node in topology.nodes] == [48, 48]
        assert topology.nodes[0].memory_gb == 512

    def test_core_ids_partitioned(self):
        topology = NumaTopology()
        assert [node.core_ids for node in topology.nodes] == [
            list(range(48)), list(range(48, 96))]

    def test_speed_factor_intra_is_one(self):
        topology = NumaTopology()
        assert topology.speed_factor(0, 0) == 1.0

    def test_speed_factor_cross_matches_paper(self):
        """-14% throughput lookup-heavy, -3% compute (Fig. 16)."""
        topology = NumaTopology()
        service = topology.speed_factor(0, 1, lookup_heavy=True)
        compute = topology.speed_factor(0, 1, lookup_heavy=False)
        assert 1 / service == pytest.approx(0.86, rel=0.001)
        assert 1 / compute == pytest.approx(0.97, rel=0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            NumaTopology(nodes=0)


class FakeCore:
    def __init__(self):
        self.stalls = []

    def inject_stall(self, ns):
        self.stalls.append(ns)


class TestBalancer:
    def test_scans_inject_stalls(self):
        sim = Simulator()
        cores = [FakeCore() for _ in range(4)]
        NumaBalancer(sim, cores, scan_period_ns=10 * MS, stall_ns=100)
        sim.run_until(35 * MS)
        total_stalls = sum(len(core.stalls) for core in cores)
        assert total_stalls == 3  # one affected core per scan (25% of 4)

    def test_disabled_never_scans(self):
        sim = Simulator()
        cores = [FakeCore() for _ in range(4)]
        balancer = NumaBalancer(sim, cores, enabled=False)
        sim.run_until(1000 * MS)
        assert balancer.scans == 0
        assert all(not core.stalls for core in cores)


class TestStatefulNf:
    def test_write_light_scales_linearly(self):
        """§7: write-light NFs scale ~linearly with cores under PLB."""
        nf = write_light_nf()
        t8 = nf.throughput_mpps(8, "plb")
        t32 = nf.throughput_mpps(32, "plb")
        assert t32 / t8 == pytest.approx(4.0, rel=0.15)

    def test_write_heavy_degrades_with_cores(self):
        """§7: more cores -> worse overall performance."""
        nf = write_heavy_nf()
        peak = nf.throughput_mpps(4, "plb")
        many = nf.throughput_mpps(32, "plb")
        assert many < peak

    def test_lock_removal_changes_little(self):
        """§7: degradation 'remains largely unchanged' lock-free."""
        nf = write_heavy_nf()
        locked = nf.throughput_mpps(32, "plb", locked=True)
        lockfree = nf.throughput_mpps(32, "plb", locked=False)
        assert lockfree < 2 * locked  # same order; coherence dominates

    def test_local_state_restores_linear_scaling(self):
        nf = write_heavy_nf()
        local = nf.throughput_mpps(32, "plb_local")
        shared = nf.throughput_mpps(32, "plb")
        assert local > 10 * shared

    def test_grouped_spray_in_between(self):
        nf = write_heavy_nf()
        grouped = nf.throughput_mpps(32, "plb_grouped", group_size=4)
        shared = nf.throughput_mpps(32, "plb")
        local = nf.throughput_mpps(32, "plb_local")
        assert shared < grouped < local

    def test_grouped_handles_remainder(self):
        nf = write_heavy_nf()
        assert nf.throughput_mpps(10, "plb_grouped", group_size=4) > 0

    def test_rss_equals_local(self):
        nf = write_heavy_nf()
        assert nf.throughput_mpps(8, "rss") == nf.throughput_mpps(8, "plb_local")

    def test_single_core_mode_independent(self):
        nf = write_heavy_nf()
        assert nf.throughput_mpps(1, "plb") == pytest.approx(
            nf.throughput_mpps(1, "rss"), rel=0.05
        )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            StatefulNfModel().throughput_mpps(4, "bogus")

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            StatefulNfModel().throughput_mpps(0)

    @pytest.mark.parametrize("mode", ["plb", "rss", "plb_local", "plb_grouped"])
    @pytest.mark.parametrize(
        "make_nf", [write_light_nf, write_heavy_nf], ids=["write-light", "write-heavy"]
    )
    def test_no_mode_beats_core_local_scaling(self, make_nf, mode):
        """Core-local state is the compute cap: sharing can only cost."""
        nf = make_nf()
        one_core = nf.throughput_mpps(1, "plb_local")
        for cores in (1, 2, 3, 4, 8, 10, 16, 32, 64):
            mpps = nf.throughput_mpps(cores, mode)
            assert 0 < mpps <= cores * one_core * (1 + 1e-12)

    @pytest.mark.parametrize(
        "make_nf,peak_cores",
        [(write_light_nf, 64), (write_heavy_nf, 2)],
        ids=["write-light", "write-heavy"],
    )
    def test_scaling_curve_shape(self, make_nf, peak_cores):
        """§7: under PLB a write-light NF gains from every core added, a
        write-heavy one peaks early and then loses with every doubling."""
        nf = make_nf()
        core_counts = [1, 2, 4, 8, 16, 32, 64]
        curve = [nf.throughput_mpps(cores, "plb") for cores in core_counts]
        peak = core_counts.index(peak_cores)
        assert curve[peak] == max(curve)
        assert all(a < b for a, b in zip(curve[:peak + 1], curve[1:peak + 1]))
        assert all(a > b for a, b in zip(curve[peak:], curve[peak + 1:]))
