"""The bounded per-flow memo and what it keeps on real deployments.

``FlowMemo`` is the one memo type of the per-packet path (the population
draw, the PLB order queue, the RSS hash, the service chain's addresses
and the in-server pod pick).  A recurring population must stay fully
memoised -- each flow derived once -- and a million-tenant tail must not
stay resident.
"""

import pytest

from repro.packet.flows import FLOW_MEMO_CAPACITY, FlowMemo, flow_for_tenant
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build, scenario_spec
from repro.sim.units import MS


class _Counted:
    """A pure ``derive`` that counts its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, key):
        self.calls.append(key)
        return key * 3


class TestFlowMemo:
    def test_capacity_is_respected(self):
        memo = FlowMemo(_Counted())
        for key in range(FLOW_MEMO_CAPACITY + 100):
            memo[key]
        assert len(memo) == FLOW_MEMO_CAPACITY
        assert sorted(memo) == list(range(FLOW_MEMO_CAPACITY))

    def test_derive_runs_once_per_key_under_capacity(self):
        derive = _Counted()
        memo = FlowMemo(derive)
        for _ in range(3):
            for key in range(FLOW_MEMO_CAPACITY):
                assert memo[key] == key * 3
        assert derive.calls == list(range(FLOW_MEMO_CAPACITY))

    def test_value_past_capacity_equals_derive(self):
        derive = _Counted()
        memo = FlowMemo(derive)
        past = range(FLOW_MEMO_CAPACITY, FLOW_MEMO_CAPACITY + 5)
        assert [memo[key] for key in range(FLOW_MEMO_CAPACITY)] == [
            key * 3 for key in range(FLOW_MEMO_CAPACITY)]
        derive.calls.clear()
        assert [memo[key] for key in past] == [key * 3 for key in past]
        assert memo[past[-1]] == past[-1] * 3     # derived again, still not kept
        assert derive.calls == [*past, past[-1]]
        assert past[-1] not in memo

    def test_hit_never_calls_derive(self):
        derive = _Counted()
        memo = FlowMemo(derive)
        flow = flow_for_tenant(1, 2)
        memo[flow]
        derive.calls.clear()
        for _ in range(100):
            memo[flow]
        assert derive.calls == []

    def test_get_and_membership_do_not_derive(self):
        derive = _Counted()
        memo = FlowMemo(derive)
        assert memo.get(4) is None
        assert 4 not in memo
        assert derive.calls == []


@pytest.fixture
def memo_log(monkeypatch):
    """Every FlowMemo built while the fixture is live, with the keys each
    one derived: ``[(memo, [key, ...]), ...]``."""
    log = []
    by_id = {}
    init, missing = FlowMemo.__init__, FlowMemo.__missing__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        by_id[id(self)] = []
        log.append((self, by_id[id(self)]))

    def tracked_missing(self, key):
        by_id[id(self)].append(key)
        return missing(self, key)

    monkeypatch.setattr(FlowMemo, "__init__", tracked_init)
    monkeypatch.setattr(FlowMemo, "__missing__", tracked_missing)
    return log


def _plb_pod(flows, tenants, duration_ms):
    return ScenarioSpec(
        name=f"memo-{flows}",
        pods=(PodSpec(name="pod", data_cores=4, per_core_pps=150_000, mode="plb"),),
        workload=WorkloadSpec(kind="cbr", flows=flows, tenants=tenants, load=0.6),
        duration_ns=duration_ms * MS,
        seed=3,
    )


class TestRecurringPopulationsStayMemoised:
    @pytest.mark.parametrize("flows, tenants, duration_ms", [(64, 4, 5), (4096, 1024, 60)])
    def test_each_memo_derives_once_per_distinct_flow(self, memo_log, flows, tenants,
                                                      duration_ms):
        handle = build(_plb_pod(flows, tenants, duration_ms))
        handle.run()
        used = [(memo, keys) for memo, keys in memo_log if keys]
        # The population draw and the PLB order queue at least.
        assert len(used) >= 2
        for memo, keys in used:
            assert len(keys) == len(set(keys)) == len(memo) <= flows
        drawn = max(len(keys) for _memo, keys in used)
        # Nearly every flow was drawn, many times over, and none derived twice.
        assert drawn > 0.95 * flows


class TestMillionTenantShardIsBounded:
    def test_no_memo_outgrows_its_capacity(self, memo_log):
        spec = scenario_spec("fleet-steady", tenants=1_000_000).with_overrides(
            duration_ns=50 * MS, overrides={"checkpoint_every_ns": None},
        )
        handle = build(spec)
        handle.run()
        assert memo_log
        for memo, _keys in memo_log:
            assert len(memo) <= FLOW_MEMO_CAPACITY
        # The bound binds: more distinct flows went by than a memo keeps.
        assert max(len(set(keys)) for _memo, keys in memo_log) > FLOW_MEMO_CAPACITY
