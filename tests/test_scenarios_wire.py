"""Wire-format pins for the scenario layer.

``ScenarioSpec.to_dict()`` is the fleet's wire format and the input of
``spec_fingerprint``, which keys the durable run store's resume cache:
a silent change to a key, a default or the key order invalidates every
stored shard.  The literals below were computed at the commit before the
spec classes were made declarative; they may only change together with a
deliberate wire-format bump.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.scenarios import rolling_upgrade_spec
from repro.runs import spec_fingerprint
from repro.scenarios import (
    SCENARIO_FACTORIES,
    DpuTierSpec,
    EcmpSpec,
    MigrationSpec,
    PodSpec,
    ScenarioSpec,
    ServerSpec,
    WorkloadSpec,
    scenario_spec,
)

# name -> (full, quick)
REGISTRY_FINGERPRINTS = {
    "steady-state-plb": (
        "102f17cc8445623696ce3b8b9dc9739d43cb9bf71aac867b8f3b27b06ae79703",
        "260c0bf02c7ec10f0ea520d02bd35e320d85f82c2a50aa782b4f6f9e60575f46",
    ),
    "microburst-reorder": (
        "ae638d155b6b2a9de01eb2bee71b65df446c2df6a846773419be0855cdae83eb",
        "44c6ebf6fef049f9cf02f1d2b9a6109c40858acabe5fe493fcd2911ec64f1768",
    ),
    "ratelimit-churn": (
        "655be7562e815cf20786a136c2e8428d5086888319acc10e251a79848099ad4a",
        "92665d34b9a528b259d847ac26298475e95ee2e9a9b47282ef5879a40a4ad29b",
    ),
    "fleet-steady": (
        "c62d8d7beb39cc30e977f1b8eaa0070ac0c54e9f73ca631284918b12e89baec0",
        "9444384d302c04529102b61622312caff92d1b5035248f757a6cd7b65338343b",
    ),
    "az-steady": (
        "f7f2421fbd6f2863f82ddb1d569903dc2bab6f2ebffe93a5609ef3afc7569740",
        "cccc5d5faf45dc278511511e646c3fe62a3c4eade30712772fc2ccfb5cf9176b",
    ),
}
ROLLING_UPGRADE_FINGERPRINT = (
    "5e97e85fe1099f73d371eed2cbbe6dae22b5b6b474fcedffdda7b10043e2092d"
)

POD_KEYS = [
    "name", "data_cores", "ctrl_cores", "mode", "service", "per_core_pps",
    "lookups", "reorder_queues", "rx_capacity", "drop_flag_enabled",
    "acl_drop_probability", "silent_drop_probability", "numa_node",
    "memory_node", "limiter_stage1_pps", "limiter_stage2_pps",
]
WORKLOAD_KEYS = [
    "kind", "flows", "tenants", "rate_pps", "load", "size", "stream",
    "population", "zipf_exponent", "burst_factor", "burst_duration_ns",
    "burst_period_ns",
]
MIGRATION_KEYS = [
    "pod", "start_ns", "target_numa_node", "target_memory_node", "poll_ns",
    "freeze_ns", "per_kib_ns", "restore_ns", "route_update_ns",
    "flush_rate_pps", "server",
]
FLAT_KEYS = [
    "name", "pods", "workload", "duration_ns", "seed", "migration",
    "checkpoint_every_ns", "timeseries_every_ns",
]
TOPOLOGY_KEYS = FLAT_KEYS + ["servers", "ecmp", "dpu_tier"]


class TestPinnedFingerprints:
    def test_every_registry_scenario_is_pinned(self):
        assert set(REGISTRY_FINGERPRINTS) == set(SCENARIO_FACTORIES)

    @pytest.mark.parametrize("name", sorted(REGISTRY_FINGERPRINTS))
    def test_registry_fingerprints(self, name):
        full, quick = REGISTRY_FINGERPRINTS[name]
        assert spec_fingerprint(scenario_spec(name)) == full
        assert spec_fingerprint(scenario_spec(name, quick=True)) == quick

    def test_migration_spec_fingerprint(self):
        assert spec_fingerprint(rolling_upgrade_spec()) == ROLLING_UPGRADE_FINGERPRINT


class TestPinnedKeyOrder:
    def test_flat_spec(self):
        data = rolling_upgrade_spec().to_dict()
        assert list(data) == FLAT_KEYS
        assert list(data["pods"][0]) == POD_KEYS
        assert list(data["workload"]) == WORKLOAD_KEYS
        assert list(data["migration"]) == MIGRATION_KEYS

    def test_topology_spec(self):
        data = scenario_spec("az-steady", quick=True).to_dict()
        assert list(data) == TOPOLOGY_KEYS
        assert data["pods"] == []
        assert list(data["servers"][0]) == ["name", "pods"]
        assert list(data["servers"][0]["pods"][0]) == POD_KEYS
        assert list(data["ecmp"]) == ["hash_seed", "pod_hash_seed", "pin_flows"]
        assert list(data["dpu_tier"]) == [
            "table_capacity", "threshold_pps", "epoch_ns",
            "demote_after_epochs", "fast_latency_ns", "sketch_capacity",
        ]

    def test_topology_keys_follow_servers_not_their_own_value(self):
        # A topology spec always carries all three keys (unset ones as
        # null); a flat spec carries none of them.
        bare = ScenarioSpec(
            name="az", servers=(ServerSpec("s0", (PodSpec(name="p0"),)),)
        ).to_dict()
        assert list(bare) == TOPOLOGY_KEYS
        assert bare["ecmp"] is None and bare["dpu_tier"] is None


_optional_int = st.none() | st.integers(min_value=1, max_value=10**9)
_names = st.text("abcdefgh-", min_size=1, max_size=6)


def _pods(name):
    return st.builds(
        PodSpec,
        name=name,
        data_cores=st.integers(min_value=1, max_value=16),
        mode=st.sampled_from(("plb", "rss")),
        per_core_pps=_optional_int,
        reorder_queues=_optional_int,
        drop_flag_enabled=st.booleans(),
        acl_drop_probability=st.floats(min_value=0, max_value=1),
        numa_node=st.none() | st.integers(min_value=0, max_value=1),
        limiter_stage1_pps=_optional_int,
        meta_placement=st.none() | st.sampled_from(("head", "tail")),
        reorder_depth=st.none() | st.integers(min_value=1, max_value=4096),
        offload_capacity=_optional_int,
    )


_offset = st.none() | st.integers(min_value=0, max_value=10**6)
_workload = st.builds(
    WorkloadSpec,
    kind=st.sampled_from(WorkloadSpec.KINDS),
    flows=st.integers(min_value=1, max_value=10**6),
    load=st.floats(min_value=0.01, max_value=2),
    population=st.sampled_from(("uniform", "zipf")),
    burst_duration_ns=_optional_int,
    first_tenant=_offset,
) | st.builds(
    WorkloadSpec,
    rate_pps=st.integers(min_value=0, max_value=10**7),
    schedule=st.lists(
        st.tuples(st.integers(0, 10**10), st.integers(0, 10**7)), max_size=4,
    ).map(lambda steps: tuple(sorted(steps))),
    first_flow=_offset,
)
_workloads = st.none() | _workload | st.lists(_workload, min_size=1, max_size=3).map(tuple)


@st.composite
def scenario_specs(draw):
    pod_names = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    pods = tuple(draw(_pods(st.just(name))) for name in pod_names)
    topology = draw(st.booleans())
    common = {
        "name": draw(_names),
        "workload": draw(_workloads),
        "duration_ns": draw(st.integers(min_value=0, max_value=10**10)),
        "seed": draw(st.integers(min_value=0, max_value=2**32)),
    }
    if draw(st.booleans()):
        migrated = draw(st.sampled_from(pod_names))
        common["migration"] = MigrationSpec(
            pod=migrated,
            start_ns=draw(st.integers(min_value=0, max_value=10**9)),
            target_numa_node=draw(st.none() | st.integers(0, 1)),
            flush_rate_pps=draw(_optional_int),
            server=f"srv-{migrated}" if topology and draw(st.booleans()) else None,
        )
    elif not topology:
        common["checkpoint_every_ns"] = draw(_optional_int)
    common["timeseries_every_ns"] = draw(_optional_int)
    common["l3_bytes"] = draw(_optional_int)
    if not topology:
        return ScenarioSpec(pods=pods, **common)
    return ScenarioSpec(
        servers=tuple(ServerSpec(f"srv-{pod.name}", (pod,)) for pod in pods),
        ecmp=draw(st.none() | st.builds(EcmpSpec, hash_seed=st.integers(0, 999))),
        dpu_tier=draw(
            st.none()
            | st.builds(DpuTierSpec, table_capacity=st.integers(1, 4096))
        ),
        **common,
    )


class TestGeneratedRoundTrip:
    @given(scenario_specs())
    @settings(max_examples=200, deadline=None)
    def test_from_dict_inverts_to_dict(self, spec):
        wire = spec.to_dict()
        assert ScenarioSpec.from_dict(wire).to_dict() == wire
        keys = TOPOLOGY_KEYS if spec.servers else FLAT_KEYS
        assert list(wire) == keys + (["l3_bytes"] if spec.l3_bytes else [])

    @given(scenario_specs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_unknown_key_raises_at_every_level(self, spec, data):
        wire = spec.to_dict()
        servers = wire.get("servers", [])
        nested = [wire] + wire["pods"] + servers
        nested += [pod for server in servers for pod in server["pods"]]
        nested += [
            wire[key] for key in ("migration", "ecmp", "dpu_tier")
            if wire.get(key) is not None
        ]
        workload = wire["workload"]
        if isinstance(workload, list):
            nested += workload
        elif workload is not None:
            nested.append(workload)
        data.draw(st.sampled_from(nested))["no_such_field"] = 1
        with pytest.raises(TypeError, match="no_such_field"):
            ScenarioSpec.from_dict(wire)


class TestDeclaredForms:
    """What an experiment states its run with: a workload tuple, a rate
    schedule, tenant and flow offsets, a session offload and an L3 size.
    Each is on the wire exactly while it is set."""

    SPEC = ScenarioSpec(
        name="declared",
        pods=(PodSpec(name="p0", offload_capacity=4096),),
        workload=(
            WorkloadSpec(rate_pps=1000, schedule=((5, 2000), (9, 0))),
            WorkloadSpec(kind="poisson", rate_pps=500, first_tenant=7000, first_flow=3),
        ),
        l3_bytes=1 << 19,
    )

    def test_round_trip_through_json(self):
        wire = self.SPEC.to_dict()
        assert list(wire) == FLAT_KEYS + ["l3_bytes"]
        assert list(wire["pods"][0]) == POD_KEYS + ["offload_capacity"]
        first, second = wire["workload"]
        assert list(first) == WORKLOAD_KEYS + ["schedule"]
        assert first["schedule"] == [[5, 2000], [9, 0]]
        assert list(second) == WORKLOAD_KEYS + ["first_tenant", "first_flow"]
        shipped = ScenarioSpec.from_dict(json.loads(json.dumps(wire)))
        assert shipped.to_dict() == wire
        assert shipped.workload[0].schedule == ((5, 2000), (9, 0))
        assert (shipped.l3_bytes, shipped.pods[0].offload_capacity) == (1 << 19, 4096)

    def test_override_into_the_tuple(self):
        spec = self.SPEC.with_overrides(overrides={"workload.1.rate_pps": 750})
        assert [workload.rate_pps for workload in spec.workloads] == [1000, 750]
        assert spec.workloads[1].first_tenant == 7000
        with pytest.raises(KeyError, match="workload.2.rate_pps"):
            self.SPEC.with_overrides(overrides={"workload.2.rate_pps": 1})

    def test_unset_fields_stay_off_the_wire(self):
        wire = ScenarioSpec(
            name="plain", pods=(PodSpec(),), workload=WorkloadSpec(rate_pps=1),
        ).to_dict()
        assert list(wire) == FLAT_KEYS
        assert list(wire["pods"][0]) == POD_KEYS
        assert list(wire["workload"]) == WORKLOAD_KEYS

    def test_a_single_workload_keeps_its_form(self):
        spec = scenario_spec("steady-state-plb", quick=True)
        assert isinstance(spec.to_dict()["workload"], dict)
        assert spec.workloads == (spec.workload,)
        tenants = spec.with_overrides(overrides={"workload.tenants": 3})
        assert tenants.workload.tenants == 3
