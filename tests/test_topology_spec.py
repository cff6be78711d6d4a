"""Spec wire-format evolution: topology fields, validation, checkpoints,
overrides.

Four guarantees under test:

* **Backward wire compat** -- pre-topology dicts (no ``servers`` key)
  load through :meth:`ScenarioSpec.from_dict` unchanged, serialize back
  byte-identically (so spec fingerprints keying the durable run store's
  resume cache are stable), and build byte-identical reports.
* **Validation** -- duplicate server names, a migration naming the
  wrong server, and ill-formed topology combinations are rejected.
* **Checkpoints** -- an AZ restored from any capture, or a sweep of AZ
  shards killed and resumed on one or two workers, plain or sanitized,
  reports the straight run's bytes.
* **Override paths** -- every malformed ``apply_override`` path raises
  the same ``KeyError`` (bad list indices included), per the CLI
  contract.
"""

import json

import pytest

from repro.analysis.sanitizer import install, uninstall
from repro.fleet import ShardSpec, run_shard, run_sweep, sweep_to_json
from repro.runs import RunStore
from repro.scenarios import build
from repro.scenarios.registry import scenario_spec
from repro.scenarios.spec import (
    DpuTierSpec,
    EcmpSpec,
    MigrationSpec,
    PodSpec,
    ScenarioSpec,
    ServerSpec,
    WorkloadSpec,
    apply_override,
)
from repro.sim.units import MS


def _pod(name="pod"):
    return PodSpec(name=name, data_cores=2, per_core_pps=50_000, mode="plb")


def _topology_spec(migration=None):
    return ScenarioSpec(
        name="az",
        servers=(
            ServerSpec(name="srv0", pods=(_pod("a"),)),
            ServerSpec(name="srv1", pods=(_pod("b"), _pod("c"))),
        ),
        ecmp=EcmpSpec(hash_seed=7),
        dpu_tier=DpuTierSpec(table_capacity=32),
        workload=WorkloadSpec(kind="cbr", flows=100, tenants=10, load=0.4),
        duration_ns=5 * MS,
        seed=9,
        migration=migration,
    )


class TestBackwardWireCompat:
    def test_pre_topology_dict_round_trips_byte_identically(self):
        spec = scenario_spec("fleet-steady", quick=True, tenants=300)
        wire = spec.to_dict()
        assert "servers" not in wire
        assert "ecmp" not in wire
        assert "dpu_tier" not in wire
        round_tripped = ScenarioSpec.from_dict(json.loads(json.dumps(wire)))
        assert json.dumps(round_tripped.to_dict(), sort_keys=True) == \
            json.dumps(wire, sort_keys=True)

    def test_pre_topology_dict_builds_byte_identical_report(self):
        spec = scenario_spec("fleet-steady", quick=True, tenants=300)
        direct = build(spec).run().report()
        revived = build(ScenarioSpec.from_dict(spec.to_dict())).run().report()
        assert json.dumps(direct, sort_keys=True) == \
            json.dumps(revived, sort_keys=True)

    def test_topology_spec_round_trips(self):
        spec = _topology_spec()
        wire = spec.to_dict()
        assert [server["name"] for server in wire["servers"]] == ["srv0", "srv1"]
        revived = ScenarioSpec.from_dict(json.loads(json.dumps(wire)))
        assert json.dumps(revived.to_dict(), sort_keys=True) == \
            json.dumps(wire, sort_keys=True)
        assert revived.ecmp.hash_seed == 7
        assert revived.dpu_tier.table_capacity == 32
        assert revived.all_pods[0].name == "a"

    def test_defaults_survive_round_trip(self):
        spec = ScenarioSpec(
            name="bare",
            servers=(ServerSpec(name="s", pods=(_pod(),)),),
        )
        revived = ScenarioSpec.from_dict(spec.to_dict())
        assert revived.ecmp is None
        assert revived.dpu_tier is None
        assert revived.servers[0].pods[0].name == "pod"


class TestTopologyValidation:
    def test_duplicate_server_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate server name"):
            ScenarioSpec(
                name="az",
                servers=(
                    ServerSpec(name="srv", pods=(_pod("a"),)),
                    ServerSpec(name="srv", pods=(_pod("b"),)),
                ),
            )

    def test_duplicate_pod_names_across_servers_rejected(self):
        with pytest.raises(ValueError, match="duplicate pod name"):
            ScenarioSpec(
                name="az",
                servers=(
                    ServerSpec(name="srv0", pods=(_pod("a"),)),
                    ServerSpec(name="srv1", pods=(_pod("a"),)),
                ),
            )

    def test_pods_and_servers_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ScenarioSpec(
                name="az",
                pods=(_pod("flat"),),
                servers=(ServerSpec(name="srv", pods=(_pod("a"),)),),
            )

    def test_ecmp_without_servers_rejected(self):
        with pytest.raises(ValueError, match="require a server topology"):
            ScenarioSpec(name="az", pods=(_pod(),), ecmp=EcmpSpec())

    def test_dpu_tier_without_servers_rejected(self):
        with pytest.raises(ValueError, match="require a server topology"):
            ScenarioSpec(name="az", pods=(_pod(),), dpu_tier=DpuTierSpec())

    def test_migration_on_wrong_server_rejected(self):
        migration = MigrationSpec(pod="a", start_ns=1 * MS, server="srv1")
        with pytest.raises(ValueError, match="lives on 'srv0'"):
            _topology_spec(migration=migration)

    def test_migration_on_home_server_accepted(self):
        migration = MigrationSpec(pod="a", start_ns=1 * MS, server="srv0")
        spec = _topology_spec(migration=migration)
        revived = ScenarioSpec.from_dict(spec.to_dict())
        assert revived.migration.server == "srv0"

    def test_migration_server_without_topology_rejected(self):
        migration = MigrationSpec(pod="pod", start_ns=1 * MS, server="srv0")
        with pytest.raises(ValueError, match="no topology"):
            ScenarioSpec(name="flat", pods=(_pod(),), migration=migration)

    def test_server_spec_needs_pods(self):
        with pytest.raises(ValueError, match="at least one pod"):
            ServerSpec(name="srv", pods=())

    def test_dpu_tier_validates_positive(self):
        with pytest.raises(ValueError):
            DpuTierSpec(table_capacity=0)
        with pytest.raises(ValueError):
            DpuTierSpec(epoch_ns=-1)


def _checkpointed_topology_spec(seed=10):
    """Light load, for the checkpointer's quiescent instants; a small fast
    table and short epochs, so flows are promoted, refused and demoted
    around the captures."""
    return ScenarioSpec(
        name="az-ckpt",
        servers=(
            ServerSpec(name="srv0", pods=(_pod("a"),)),
            ServerSpec(name="srv1", pods=(_pod("b"), _pod("c"))),
        ),
        dpu_tier=DpuTierSpec(table_capacity=5, threshold_pps=2_000, epoch_ns=2 * MS),
        workload=WorkloadSpec(kind="cbr", flows=200, tenants=50, load=0.15,
                              population="zipf"),
        duration_ns=10 * MS,
        seed=seed,
        checkpoint_every_ns=2 * MS,
        timeseries_every_ns=3 * MS,
    )


@pytest.fixture(params=[False, True], ids=["plain", "sanitized"])
def sanitized(request):
    """Run the test body plain, then under an installed sanitizer (what
    ``REPRO_SANITIZE=1`` installs at import)."""
    if request.param:
        install()
    yield request.param
    uninstall()


class TestTopologyCheckpoints:
    """An AZ checkpoints like a flat spec: every capture, restored into a
    fresh build, and every killed-and-resumed sweep, gives the straight
    run's bytes."""

    def test_restore_from_each_capture_replays_the_straight_run(self, sanitized):
        spec = _checkpointed_topology_spec()
        straight = build(spec)
        assert (straight.sim._sanitizer is not None) == sanitized
        captures = []
        straight.checkpointer.sink = captures.append
        expected = json.dumps(straight.run().report(), sort_keys=True)
        assert len(captures) >= 3
        assert all("topology" in capture for capture in captures)
        tier = json.loads(expected)["tiers"]["dpu"]["counters"]
        assert tier["demotions"] > 0 and tier["table_full"] > 0
        for capture in captures:
            resumed = build(spec)
            resumed.restore_checkpoint(json.loads(json.dumps(capture)))
            resumed.run(spec.duration_ns - resumed.sim.now)
            assert json.dumps(resumed.report(), sort_keys=True) == expected, capture["taken_ns"]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_killed_sweep_resumes_to_the_straight_bytes(self, sanitized, workers, tmp_path):
        shards = [ShardSpec(index, {"seed": seed}, _checkpointed_topology_spec(seed))
                  for index, seed in enumerate((10, 11))]
        straight = sweep_to_json(run_sweep("az-ckpt", shards, workers=1, seed=10))
        run = RunStore(str(tmp_path / "RUNS")).create("az-ckpt", 10, shards, run_id="r")
        # "Kill" the first shard late: only its checkpoint survives.
        run_shard(dict(shards[0].to_dict(), checkpoint_path=run.checkpoint_path(0)))
        fingerprint = run.manifest["shards"][0]["spec_hash"]
        assert "topology" in run.load_checkpoint(0, fingerprint)
        report = run_sweep("az-ckpt", shards, workers=workers, seed=10, run=run)
        assert sweep_to_json(report) == straight


class TestApplyOverride:
    def _wire(self):
        return scenario_spec("fleet-steady", quick=True, tenants=300).to_dict()

    def test_valid_list_index(self):
        data = self._wire()
        apply_override(data, "pods.0.mode", "rss")
        assert data["pods"][0]["mode"] == "rss"

    def test_out_of_range_list_index(self):
        with pytest.raises(KeyError, match="does not exist in the spec"):
            apply_override(self._wire(), "pods.9.mode", "rss")

    def test_non_integer_list_index(self):
        with pytest.raises(KeyError, match="does not exist in the spec"):
            apply_override(self._wire(), "pods.first.mode", "rss")

    def test_missing_leaf_key(self):
        with pytest.raises(KeyError, match="does not exist in the spec"):
            apply_override(self._wire(), "workload.nonsense", 1)

    def test_missing_mid_path_key(self):
        with pytest.raises(KeyError, match="does not exist in the spec"):
            apply_override(self._wire(), "nonsense.deeper.key", 1)

    def test_descending_through_scalar(self):
        with pytest.raises(KeyError, match="does not exist in the spec"):
            apply_override(self._wire(), "seed.deeper", 1)

    def test_topology_paths_work(self):
        data = _topology_spec().to_dict()
        apply_override(data, "servers.1.pods.0.data_cores", 8)
        assert data["servers"][1]["pods"][0]["data_cores"] == 8
        apply_override(data, "dpu_tier.table_capacity", 64)
        revived = ScenarioSpec.from_dict(data)
        assert revived.servers[1].pods[0].data_cores == 8
        assert revived.dpu_tier.table_capacity == 64
