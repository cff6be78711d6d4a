"""Tofino pipeline model tests: program validation, allocation, Sailfish."""

import pytest

from repro.tofino.allocator import AllocationError, PipelineAllocator
from repro.tofino.program import (
    Header,
    MATCH_EXACT,
    MATCH_LPM,
    MATCH_TERNARY,
    P4Program,
    Table,
)
from repro.tofino.resources import PipelineSpec
from repro.tofino.sailfish import (
    TAB1_PIPE02,
    TAB1_PIPE13,
    new_feature_attempts,
    sailfish_egress_program,
    sailfish_ingress_program,
)


class TestProgram:
    def test_phv_bits_sum(self):
        program = P4Program("p", headers=[Header("a", 100), Header("b", 50)])
        assert program.phv_bits() == 150

    def test_duplicate_header_rejected(self):
        program = P4Program("p", headers=[Header("a", 100)])
        with pytest.raises(ValueError):
            program.add_header(Header("a", 10))

    def test_dependency_validation(self):
        program = P4Program("p")
        with pytest.raises(ValueError):
            program.add_table(
                Table("t", MATCH_EXACT, 10, 8, 8, depends_on=("missing",))
            )

    def test_dependency_depth(self):
        program = P4Program("p")
        program.add_table(Table("a", MATCH_EXACT, 10, 8, 8))
        program.add_table(Table("b", MATCH_EXACT, 10, 8, 8, depends_on=("a",)))
        program.add_table(Table("c", MATCH_EXACT, 10, 8, 8, depends_on=("b",)))
        program.add_table(Table("d", MATCH_EXACT, 10, 8, 8))
        assert program.dependency_depth() == 3

    def test_copy_is_independent(self):
        program = P4Program("p", headers=[Header("a", 100)])
        duplicate = program.copy("q")
        duplicate.add_header(Header("b", 10))
        assert program.phv_bits() == 100
        assert duplicate.phv_bits() == 110

    def test_invalid_table_params(self):
        with pytest.raises(ValueError):
            Table("t", "bogus", 10, 8, 8)
        with pytest.raises(ValueError):
            Table("t", MATCH_EXACT, 0, 8, 8)
        with pytest.raises(ValueError):
            Header("h", 0)


class TestAllocatorCostModel:
    def _alloc(self):
        return PipelineAllocator(PipelineSpec())

    def test_exact_table_sram_blocks(self):
        alloc = self._alloc()
        table = Table("t", MATCH_EXACT, 1024, key_bits=64, action_bits=64)
        bits = 1024 * 128 * 1.25
        expected = -(-int(bits) // (16 * 1024 * 8))
        assert alloc.sram_blocks_for(table) == max(1, expected)

    def test_exact_table_no_tcam(self):
        alloc = self._alloc()
        assert alloc.tcam_blocks_for(Table("t", MATCH_EXACT, 1024, 64, 64)) == 0

    def test_ternary_tcam_slices(self):
        alloc = self._alloc()
        # 104-bit key needs 3 x 44-bit slices; 1024 entries = 2 rows.
        table = Table("t", MATCH_TERNARY, 1024, key_bits=104, action_bits=8)
        assert alloc.tcam_blocks_for(table) == 6

    def test_lpm_uses_tcam(self):
        alloc = self._alloc()
        table = Table("t", MATCH_LPM, 512, key_bits=32, action_bits=8)
        assert alloc.tcam_blocks_for(table) == 1


class TestAllocation:
    def test_small_program_compiles(self):
        allocator = PipelineAllocator(PipelineSpec())
        program = P4Program("p", headers=[Header("eth", 112)])
        program.add_table(Table("a", MATCH_EXACT, 1024, 32, 32))
        program.add_table(Table("b", MATCH_EXACT, 1024, 32, 32, depends_on=("a",)))
        result = allocator.allocate(program)
        a_first, a_last = result.placement["a"]
        b_first, _ = result.placement["b"]
        assert b_first > a_last

    def test_phv_overflow(self):
        allocator = PipelineAllocator(PipelineSpec(phv_bits=100))
        program = P4Program("p", headers=[Header("big", 200)])
        with pytest.raises(AllocationError) as excinfo:
            allocator.allocate(program)
        assert excinfo.value.cause == "phv"

    def test_stage_overflow(self):
        allocator = PipelineAllocator(PipelineSpec(stages=2))
        program = P4Program("p")
        previous = None
        for index in range(3):
            deps = (previous,) if previous else ()
            program.add_table(Table(f"t{index}", MATCH_EXACT, 10, 8, 8, depends_on=deps))
            previous = f"t{index}"
        with pytest.raises(AllocationError) as excinfo:
            allocator.allocate(program)
        assert excinfo.value.cause == "stage"

    def test_memory_overflow(self):
        allocator = PipelineAllocator(PipelineSpec(stages=2, sram_blocks_per_stage=1))
        program = P4Program("p")
        program.add_table(Table("huge", MATCH_EXACT, 1_000_000, 64, 64))
        with pytest.raises(AllocationError) as excinfo:
            allocator.allocate(program)
        assert excinfo.value.cause == "memory"

    def test_cycle_detected(self):
        # Build a cycle by hand (add_table validation blocks forward refs).
        program = P4Program("p")
        a = Table("a", MATCH_EXACT, 10, 8, 8)
        program.add_table(a)
        b = Table("b", MATCH_EXACT, 10, 8, 8, depends_on=("a",))
        program.add_table(b)
        # Rebuild table "a" with a back-edge to create the cycle.
        program.tables[0] = Table("a", MATCH_EXACT, 10, 8, 8, depends_on=("b",))
        program._by_name["a"] = program.tables[0]
        allocator = PipelineAllocator(PipelineSpec())
        with pytest.raises(AllocationError) as excinfo:
            allocator.allocate(program)
        assert excinfo.value.cause == "stage"

    def test_big_table_spills_across_stages(self):
        allocator = PipelineAllocator(PipelineSpec())
        program = P4Program("p")
        program.add_table(Table("big", MATCH_EXACT, 600_000, 56, 64))
        result = allocator.allocate(program)
        first, last = result.placement["big"]
        assert last > first

    def test_folding_doubles_stages(self):
        spec = PipelineSpec(stages=12)
        folded = spec.folded()
        assert folded.stages == 24
        assert folded.total_sram_blocks == 2 * spec.total_sram_blocks
        assert folded.phv_bits == spec.phv_bits  # PHV does not double


class TestSailfishTab1:
    def _allocator(self):
        return PipelineAllocator(PipelineSpec().folded())

    def test_ingress_matches_tab1(self):
        result = self._allocator().allocate(sailfish_ingress_program())
        sram, tcam, phv = result.utilization_row()
        assert sram == pytest.approx(TAB1_PIPE02["sram"], abs=0.5)
        assert tcam == pytest.approx(TAB1_PIPE02["tcam"], abs=0.5)
        assert phv == pytest.approx(TAB1_PIPE02["phv"], abs=0.5)

    def test_egress_matches_tab1(self):
        result = self._allocator().allocate(sailfish_egress_program())
        sram, tcam, phv = result.utilization_row()
        assert sram == pytest.approx(TAB1_PIPE13["sram"], abs=0.5)
        assert tcam == pytest.approx(TAB1_PIPE13["tcam"], abs=0.5)
        assert phv == pytest.approx(TAB1_PIPE13["phv"], abs=0.5)

    def test_ingress_is_phv_bound_egress_is_sram_bound(self):
        """The paper's characterization of which wall each pipe hits."""
        allocator = self._allocator()
        ingress = allocator.allocate(sailfish_ingress_program())
        egress = allocator.allocate(sailfish_egress_program())
        assert ingress.phv_utilization > ingress.sram_utilization
        assert egress.sram_utilization > egress.phv_utilization

    def test_egress_lpm_is_02m(self):
        """Tab. 6 consistency: Sailfish holds ~0.2M LPM rules."""
        [lpm] = [t for t in sailfish_egress_program().tables if t.name == "vxlan_route_lpm"]
        assert lpm.entries == pytest.approx(
            200_000, rel=0.1
        )

    @pytest.mark.parametrize(
        "attempt,expected_cause",
        [
            ("new header (Geneve)", "phv"),
            ("new header (NSH)", "phv"),
            ("large table", "memory"),
            ("long-chained function", "stage"),
        ],
    )
    def test_evolution_attempts_fail_as_reported(self, attempt, expected_cause):
        allocator = self._allocator()
        programs = {
            "ingress": sailfish_ingress_program(),
            "egress": sailfish_egress_program(),
        }
        target, mutate = new_feature_attempts()[attempt]
        _, error = allocator.try_allocate(mutate(programs[target]))
        assert error is not None
        assert error.cause == expected_cause
