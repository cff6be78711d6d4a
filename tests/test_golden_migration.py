"""Golden-report determinism for the migration scenarios.

Migration runs must be replayable evidence: the same seed produces the
same bytes, whether the run happens once or twice, sanitized or plain,
in one worker process or several.  These are the migration counterparts
of the fleet and fault-scenario golden tests.
"""

import json

import pytest

from repro.analysis.sanitizer import install, uninstall
from repro.controlplane.scenarios import MIGRATION_SCENARIOS, run_migration_scenario
from repro.fleet import run_sweep, sweep_to_json
from repro.fleet.sweeps import build_sweep
from repro.scenarios import build
from repro.controlplane.scenarios import migration_scenario_spec


@pytest.fixture(autouse=True)
def _clean_sanitizer():
    yield
    uninstall()


def _report_bytes(name, seed):
    """The scenario's report values at full precision (``render`` rounds)."""
    report = run_migration_scenario(name, seed=seed, quick=True)
    return json.dumps(report.values, sort_keys=True).encode()


class TestSameSeedSameBytes:
    @pytest.mark.parametrize("name", sorted(MIGRATION_SCENARIOS))
    def test_run_twice_byte_identical(self, name):
        assert _report_bytes(name, seed=42) == _report_bytes(name, seed=42)

    @pytest.mark.parametrize("name", sorted(MIGRATION_SCENARIOS))
    def test_different_seeds_differ(self, name):
        assert _report_bytes(name, seed=42) != _report_bytes(name, seed=43)

    def test_full_run_report_with_migration_section_stable(self):
        spec = migration_scenario_spec("rolling-upgrade", seed=9, quick=True)
        first = build(spec).run().report()
        second = build(spec).run().report()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["migration"]["state"] == "complete"


class TestSanitizedEqualsPlain:
    @pytest.mark.parametrize("name", sorted(MIGRATION_SCENARIOS))
    def test_sanitizer_does_not_change_the_report(self, name):
        plain = _report_bytes(name, seed=42)
        sanitizer = install()
        try:
            sanitized = _report_bytes(name, seed=42)
        finally:
            uninstall()
        assert sanitized == plain
        assert sanitizer.checks > 0
        assert sanitizer.violations == 0


class TestSweepWorkerInvariance:
    def test_migration_replication_1_vs_2_workers(self):
        shards = build_sweep("migration-replication", quick=True, seed=42)
        serial = sweep_to_json(run_sweep("migration-replication", shards, workers=1))
        parallel = sweep_to_json(
            run_sweep("migration-replication", shards, workers=2)
        )
        assert serial == parallel

    def test_every_shard_migrated_to_completion(self):
        shards = build_sweep("migration-replication", quick=True, seed=42)
        sweep = run_sweep("migration-replication", shards, workers=2)
        assert len(sweep.shard_results) >= 3
        for result in sweep.shard_results:
            migration = result["report"]["migration"]
            assert migration["state"] == "complete"
            assert migration["packets_buffered"] > 0

    def test_replicated_shards_use_distinct_seeds(self):
        shards = build_sweep("migration-replication", quick=True, seed=42)
        seeds = {shard.spec.seed for shard in shards}
        assert len(seeds) == len(shards)
