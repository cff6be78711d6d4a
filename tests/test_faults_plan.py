"""Fault descriptions and the ordering/validation rules of a fault plan."""

import random

import pytest

from repro.faults.plan import Fault, FaultKind, FaultPlan
from repro.sim import MS


class TestFault:
    @pytest.mark.parametrize(
        "at_ns,duration_ns,error",
        [(-1, 0, "time"), (0, -1, "duration"), (-5, -5, "time")],
        ids=["negative-time", "negative-duration", "both"],
    )
    def test_negative_values_rejected(self, at_ns, duration_ns, error):
        with pytest.raises(ValueError, match=error):
            Fault(FaultKind.POD_CRASH, at_ns, duration_ns)

    def test_times_are_whole_nanoseconds(self):
        fault = Fault(FaultKind.CORE_STALL, 1.9, 2.5, target=3)
        assert (fault.at_ns, fault.duration_ns, fault.target) == (1, 2, 3)

    def test_unbounded_duration(self):
        fault = Fault(FaultKind.POD_CRASH, 10, None)
        assert fault.duration_ns is None
        assert repr(fault) == "<Fault pod_crash @10ns for ∞>"

    def test_text(self):
        assert repr(Fault(FaultKind.LINK_FLAP, 5, 7)) == "<Fault link_flap @5ns for 7ns>"

    def test_params_are_copied(self):
        params = {"factor": 2}
        fault = Fault(FaultKind.FPGA_STALL, 0, params=params)
        params["factor"] = 3
        assert fault.params == {"factor": 2}
        assert Fault(FaultKind.FPGA_STALL, 0).params == {}
        assert fault.record is None


class TestFaultPlan:
    def test_construction_sorts_by_time(self):
        late = Fault(FaultKind.POD_CRASH, 30)
        early = Fault(FaultKind.LINK_FLAP, 10)
        plan = FaultPlan([late, early])
        assert list(plan) == [early, late]
        assert plan.kinds() == [FaultKind.LINK_FLAP, FaultKind.POD_CRASH]
        assert len(plan) == 2

    def test_add_keeps_order_and_returns_the_fault(self):
        plan = FaultPlan([Fault(FaultKind.POD_CRASH, 30)])
        middle = plan.add(Fault(FaultKind.CORE_STALL, 20, target=0))
        plan.add(Fault(FaultKind.LINK_FLAP, 40))
        assert [fault.at_ns for fault in plan] == [20, 30, 40]
        assert plan.faults[0] is middle

    def test_equal_times_keep_insertion_order(self):
        first = Fault(FaultKind.FPGA_STALL, 10)
        second = Fault(FaultKind.LIMITER_SRAM, 10)
        plan = FaultPlan([first, second])
        third = plan.add(Fault(FaultKind.LINK_FLAP, 10))
        assert list(plan) == [first, second, third]

    def test_empty_plan(self):
        plan = FaultPlan()
        assert len(plan) == 0 and plan.kinds() == []


class TestChaosValidation:
    def test_needs_a_kind(self):
        with pytest.raises(ValueError, match="at least one fault kind"):
            FaultPlan.chaos(random.Random(1), duration_ns=1_000 * MS, kinds=[])

    def test_duration_must_fit_the_gaps(self):
        # Four faults need five 50 ms gaps: 250 ms.
        with pytest.raises(ValueError, match="too short"):
            FaultPlan.chaos(random.Random(1), duration_ns=249 * MS, count=4)
        assert len(FaultPlan.chaos(random.Random(1), duration_ns=250 * MS, count=4)) == 4

    @pytest.mark.parametrize("kind", list(FaultKind), ids=lambda kind: kind.value)
    def test_single_kind_plans(self, kind):
        plan = FaultPlan.chaos(
            random.Random(11), duration_ns=2_000 * MS, kinds=[kind], count=3,
            max_fault_ns=40 * MS, core_count=2,
        )
        assert plan.kinds() == [kind] * 3
        for fault in plan:
            assert fault.at_ns < 2_000 * MS
            if kind is FaultKind.LIMITER_SRAM:
                assert fault.duration_ns == 0
            else:
                assert 10 * MS <= fault.duration_ns < 40 * MS
            assert (fault.target is not None) == (kind is FaultKind.CORE_STALL)

    def test_different_seeds_differ(self):
        plans = [
            [(f.kind, f.at_ns) for f in FaultPlan.chaos(random.Random(seed), 2_000 * MS)]
            for seed in (1, 2)
        ]
        assert plans[0] != plans[1]
