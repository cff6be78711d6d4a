"""The bounded per-flow memo, the population head, and what each keeps on
real deployments.

``FlowMemo`` is the memo type of the per-packet path (the PLB order
queue when a pod has more than one, the RSS hash, the service chain's
addresses, the in-server pod pick and the limiter's meter slot).  A
population keeps no memo: it builds the flows of its first
``FLOW_MEMO_CAPACITY`` indexes at construction when they carry at least
half of its draw mass, and keeps nothing per flow otherwise.  A recurring
population must derive each flow once, at ``build()``, and a
million-tenant tail must not stay resident.
"""

import tracemalloc

import pytest

from repro.core.plb import dispatch as dispatch_module
from repro.packet.flows import FLOW_MEMO_CAPACITY, FlowMemo, flow_for_tenant
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build, scenario_spec
from repro.sim.rng import RngRegistry
from repro.sim.units import MS
from repro.workloads import generators
from repro.workloads.generators import uniform_population, zipf_population


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


@pytest.fixture
def derived_flows(monkeypatch):
    """Every flow the population views derive, in order."""
    derived = []
    real = generators.flow_for_tenant

    def counting(tenant_id, flow_index):
        flow = real(tenant_id, flow_index)
        derived.append(flow)
        return flow

    monkeypatch.setattr(generators, "flow_for_tenant", counting)
    return derived


def _plb_pod(flows, tenants, duration_ms, reorder_queues=None):
    return ScenarioSpec(
        name=f"memo-{flows}",
        pods=(PodSpec(name="pod", data_cores=4, per_core_pps=150_000, mode="plb",
                      reorder_queues=reorder_queues),),
        workload=WorkloadSpec(kind="cbr", flows=flows, tenants=tenants, load=0.6),
        duration_ns=duration_ms * MS,
        seed=3,
    )


@pytest.fixture
def ordq_hashes(monkeypatch):
    """Every flow the PLB dispatcher hashes onto an order queue."""
    hashed = []
    real_hash = dispatch_module.crc32_flow_hash

    def counting_hash(flow, seed=0):
        hashed.append(flow)
        return real_hash(flow, seed=seed)

    monkeypatch.setattr(dispatch_module, "crc32_flow_hash", counting_hash)
    return hashed


def _run_derives_nothing(handle, derived_flows, flows):
    """Run ``handle``, whose build derived each of its ``flows`` flows
    once, and check the run derived none and drew nearly all of them."""
    built = list(derived_flows)
    assert len(built) == len(set(built)) == flows
    seen = set()
    handle.subscribe(lambda packet, _where, _outcome: seen.add(packet.flow))
    handle.run()
    assert derived_flows == built
    # Nearly every flow was drawn, many times over, and none derived again.
    assert seen <= set(built)
    assert len(seen) > 0.95 * flows


def _used(memo_log, flows):
    """The memos that derived anything, each checked to have derived
    every key once."""
    used = [(memo, keys) for memo, keys in memo_log if keys]
    for memo, keys in used:
        assert len(keys) == len(set(keys)) == len(memo) <= flows
    return used


class TestRecurringPopulationsStayMemoised:
    @pytest.mark.parametrize("flows, tenants, duration_ms", [(64, 4, 5), (4096, 1024, 60)])
    def test_each_flow_is_derived_once_at_build(self, memo_log, ordq_hashes, derived_flows,
                                                 flows, tenants, duration_ms):
        """A 4-core pod has one order queue: every packet takes queue 0, so
        the dispatcher keeps no memo and hashes nothing; the population
        derives its flows at build, and no memo derives anything."""
        handle = build(_plb_pod(flows, tenants, duration_ms))
        dispatcher = handle.pods["pod"].nic.plb
        assert dispatcher.reorder.queue_count == 1
        _run_derives_nothing(handle, derived_flows, flows)
        assert _used(memo_log, flows) == []
        assert dispatcher._ordq_cache is None
        assert ordq_hashes == []

    @pytest.mark.parametrize("flows, tenants, duration_ms", [(64, 4, 5), (4096, 1024, 60)])
    def test_a_two_queue_pod_memoises_its_order_queue_pick(self, memo_log, ordq_hashes,
                                                           derived_flows, flows, tenants,
                                                           duration_ms):
        handle = build(_plb_pod(flows, tenants, duration_ms, reorder_queues=2))
        dispatcher = handle.pods["pod"].nic.plb
        _run_derives_nothing(handle, derived_flows, flows)
        used = _used(memo_log, flows)
        assert [memo for memo, _keys in used] == [dispatcher._ordq_cache]
        ordq_keys = used[0][1]
        assert len(ordq_keys) > 0.95 * flows
        # The dispatcher hashed each flow once, on the memo's miss.
        assert ordq_hashes == ordq_keys
        assert {dispatcher._ordq_cache[flow] for flow in ordq_keys} == {0, 1}


class TestMillionTenantShardIsBounded:
    def test_no_memo_outgrows_its_capacity(self, memo_log):
        # 100 ms, so the limiter's VNI -> meter-slot memo meets more
        # distinct tenants (~8 000) than it keeps.
        spec = scenario_spec("fleet-steady", tenants=1_000_000).with_overrides(
            duration_ns=100 * MS, overrides={"checkpoint_every_ns": None},
        )
        handle = build(spec)
        handle.run()
        assert memo_log
        for memo, _keys in memo_log:
            assert len(memo) <= FLOW_MEMO_CAPACITY
        # The bound binds: more distinct keys went by than a memo keeps.
        assert max(len(set(keys)) for _memo, keys in memo_log) > FLOW_MEMO_CAPACITY
        # The population's first 4 096 of 1M flows carry 0.4 % of its
        # mass: it holds no per-flow object.
        (source,) = handle.sources
        population = source.population
        assert len(population.flows) >= 1_000_000
        assert population._head_flows == []
        assert len(population._head_vnis) == 0
        assert type(population.flows) is generators._TenantFlows
        assert type(population.vnis) is generators._TenantVnis


def _head(population):
    assert len(population._head_flows) == len(population._head_vnis)
    return population._head_flows


class TestPopulationHead:
    def test_a_zipf_population_keeps_its_heavy_head(self):
        population = zipf_population(100_000, tenants=1_000)
        head = _head(population)
        assert len(head) == FLOW_MEMO_CAPACITY
        assert head == [population.flows[index] for index in range(FLOW_MEMO_CAPACITY)]
        assert list(population._head_vnis) == [
            population.vnis[index] for index in range(FLOW_MEMO_CAPACITY)]

    @pytest.mark.parametrize("flows, kept", [(8_192, FLOW_MEMO_CAPACITY), (8_193, 0)])
    def test_the_half_mass_line(self, flows, kept):
        """Equal weights: the first 4 096 of 8 192 flows carry exactly half
        the mass, and of 8 193 just under it."""
        assert len(_head(uniform_population(flows, tenants=64))) == kept

    def test_a_drawn_population_retains_only_its_head(self):
        """Flows, VNIs and the list and array holding them: ~320 KiB for
        4 096 flows, where a dict memo of drawn pairs held ~0.77 MiB."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            population = uniform_population(4_096, tenants=1_024)
            rng = RngRegistry(seed=11).stream("draw")
            for _ in range(20_000):
                population.choose(rng)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(_head(population)) == 4_096
        assert retained <= 360 * 1024
