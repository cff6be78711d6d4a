"""Unified scenario API tests: spec round-trips and build equivalence.

The acceptance bar for the API redesign: a scenario defined once as a
:class:`ScenarioSpec` must (a) survive the wire format losslessly --
that is what the fleet engine ships to workers -- and (b) produce the
same deployment from every entry point (simulate, faults, sweeps,
experiments).
"""

import json

import pytest

from repro.controlplane import migration_scenario_spec
from repro.metrics.trace import PacketTracer
from repro.scenarios import (
    PodSpec,
    ScenarioSpec,
    WorkloadSpec,
    build,
    scenario_names,
    scenario_spec,
)
from repro.sim.units import MS


def _spec(**overrides):
    kwargs = {
        "name": "round-trip",
        "pods": (
            PodSpec(name="pod", data_cores=4, per_core_pps=100_000,
                    limiter_stage1_pps=100, limiter_stage2_pps=25),
        ),
        "workload": WorkloadSpec(kind="cbr", flows=32, tenants=4, load=0.5),
        "duration_ns": 10 * MS,
        "seed": 7,
    }
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestSpecRoundTrip:
    def test_to_from_dict_is_lossless(self):
        spec = _spec()
        assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_survives_json(self):
        spec = _spec()
        wire = json.dumps(spec.to_dict())
        assert ScenarioSpec.from_dict(json.loads(wire)).to_dict() == spec.to_dict()

    def test_registry_specs_round_trip(self):
        for name in scenario_names():
            spec = scenario_spec(name, quick=True)
            restored = ScenarioSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            )
            assert restored.to_dict() == spec.to_dict(), name

    def test_round_tripped_spec_builds_identical_run(self):
        spec = scenario_spec("steady-state-plb", quick=True)
        direct = build(spec).run().report()
        shipped = build(ScenarioSpec.from_dict(spec.to_dict())).run().report()
        assert direct == shipped


class TestSpecValidation:
    def test_unknown_workload_kind(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            WorkloadSpec(kind="poisson", load=0.5)

    def test_rate_and_load_mutually_exclusive(self):
        with pytest.raises(ValueError, match="rate_pps/load"):
            WorkloadSpec(rate_pps=1000, load=0.5)
        with pytest.raises(ValueError, match="rate_pps/load"):
            WorkloadSpec()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("flows", 0), ("flows", -1), ("tenants", 0), ("tenants", -4),
            ("zipf_exponent", -0.1), ("size", 0),
        ],
    )
    def test_degenerate_workload_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(load=0.5, **{field: value})

    def test_smallest_workload_accepted(self):
        WorkloadSpec(load=0.5, flows=1, tenants=1, zipf_exponent=0, size=1)

    def test_duplicate_pod_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate pod name"):
            ScenarioSpec(name="x", pods=(PodSpec(name="a"), PodSpec(name="a")))

    def test_workload_without_pods_rejected_at_build(self):
        spec = ScenarioSpec(
            name="x", workload=WorkloadSpec(load=0.5), duration_ns=MS
        )
        with pytest.raises(ValueError, match="workload but no pods"):
            build(spec)

    def test_unknown_registry_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_spec("nope")

    def test_checkpoint_cadence_must_be_positive(self):
        with pytest.raises(ValueError, match="checkpoint_every_ns"):
            _spec(checkpoint_every_ns=0)
        with pytest.raises(ValueError, match="checkpoint_every_ns"):
            _spec(checkpoint_every_ns=-5)

    def test_checkpoint_cadence_excludes_migration(self):
        from repro.scenarios.spec import MigrationSpec

        migration = MigrationSpec(pod="pod", start_ns=MS)
        with pytest.raises(ValueError, match="cannot be combined"):
            _spec(migration=migration, checkpoint_every_ns=MS)

    def test_checkpoint_cadence_round_trips(self):
        spec = _spec(checkpoint_every_ns=2 * MS)
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.checkpoint_every_ns == 2 * MS

    def test_pre_checkpoint_wire_format_loads(self):
        data = _spec().to_dict()
        del data["checkpoint_every_ns"]
        assert ScenarioSpec.from_dict(data).checkpoint_every_ns is None

    def test_build_attaches_checkpointer_only_when_requested(self):
        assert build(_spec()).checkpointer is None
        handle = build(_spec(checkpoint_every_ns=MS))
        assert handle.checkpointer is not None
        assert handle.checkpointer.every_ns == MS


class TestOverrides:
    def test_dotted_override_reaches_nested_fields(self):
        spec = _spec()
        derived = spec.with_overrides(
            seed=99,
            overrides={"workload.tenants": 1234, "pods.0.data_cores": 8},
        )
        assert derived.seed == 99
        assert derived.workload.tenants == 1234
        assert derived.pods[0].data_cores == 8
        # The original is untouched.
        assert spec.seed == 7
        assert spec.workload.tenants == 4

    def test_bad_override_path_raises(self):
        with pytest.raises(KeyError, match="does not exist"):
            _spec().with_overrides(overrides={"workload.typo": 1})


class TestBuildEntryPoints:
    def test_registry_scenario_is_deterministic(self):
        spec = scenario_spec("steady-state-plb", quick=True)
        first = build(spec).run().report()
        assert first == build(spec).run().report()
        assert first["events"] > 0

    def test_per_core_pps_builds_the_scaled_service(self):
        from repro.scenarios import scaled_service

        handle = build(ScenarioSpec(
            name="scaled-pod",
            pods=(PodSpec(data_cores=4, per_core_pps=50_000),),
            seed=3,
        ))
        assert handle.capacity_pps() == 200_000
        assert handle.pod.expected_capacity_mpps() * 1e6 == pytest.approx(
            200_000, rel=0.02
        )
        assert (
            handle.pod.config.custom_service.base_ns
            == scaled_service(per_core_pps=50_000).base_ns
        )

    def test_limiter_fields_construct_a_live_limiter(self):
        handle = build(_spec())
        limiter = handle.pod.nic.rate_limiter
        assert limiter is not None
        assert limiter.stage1_rate_pps == 100
        assert limiter.stage2_rate_pps == 25

    def test_control_plane_spec_builds_no_pods(self):
        handle = build(ScenarioSpec(name="bare", duration_ns=MS, seed=1))
        assert handle.pods == {}
        handle.run()
        assert handle.sim.now == MS

    @pytest.mark.parametrize("spec", [
        _spec(timeseries_every_ns=2 * MS),                  # limiter + telemetry
        scenario_spec("az-steady", quick=True, servers=2),  # uplink + DPU tier
        migration_scenario_spec("rolling-upgrade", quick=True),
    ], ids=lambda spec: spec.name)
    def test_subscribers_never_perturb_the_report(self, spec):
        plain = json.dumps(build(spec).run().report())
        armed = build(spec)
        tracer = armed.subscribe(PacketTracer(sample_every=3))
        assert json.dumps(armed.run().report()) == plain
        assert tracer.completed_traces()

    def test_report_shape(self):
        report = build(_spec()).run().report()
        assert set(report) == {
            "scenario", "seed", "duration_ns", "sim_ns", "events", "pods",
        }
        pod = report["pods"]["pod"]
        assert {"transmitted", "counters", "outcomes", "latency"} <= set(pod)
        assert "reorder" in pod  # plb mode
        # The report must be plain data (the fleet wire format).
        json.dumps(report)
